//! Range, prefix and quantile queries under Local Differential Privacy —
//! the primary contribution of *"Answering Range Queries Under Local
//! Differential Privacy"* (SIGMOD 2019).
//!
//! Three mechanism families estimate `R[a,b]`, the fraction of a population
//! of `N` users whose private value falls in a closed interval, from one
//! ε-LDP report per user:
//!
//! * [`flat`] — the baseline: a frequency oracle over the whole domain,
//!   summing point estimates. Variance grows linearly with range length
//!   (Fact 1).
//! * [`hh`] — hierarchical histograms `HH_B`: users sample one level of a
//!   complete B-ary tree and release their node one-hot vector through a
//!   frequency oracle; ranges decompose into `O(B·log_B r)` nodes, with
//!   variance `O(log² D)·VF` (Theorem 4.3). Constrained inference
//!   ([`hh::consistency`]) sharpens the constants (Lemma 4.6).
//! * [`haar`] — `HaarHRR`: users release one rescaled ±1 Haar coefficient
//!   via Hadamard randomized response; variance `log2(D)²·VF/2` (Eq. 3)
//!   with consistency by design.
//!
//! The three served mechanisms — flat, `HH_B` and `HaarHRR` — also answer
//! straight from their integer statistics: [`tables`] keeps one integer
//! prefix per level and evaluates each answer in one root-to-leaf walk,
//! `O(h²)` lookups with constrained inference folded in for `HH_B`,
//! `O(h)` for `HaarHRR`. Each server keeps one allocating float freeze
//! (`frequency_estimate`), for `eval` and as the tables' test reference.
//!
//! On top of any mechanism's [`RangeEstimate`]: prefix queries (§4.7),
//! quantile search ([`quantile()`]), and the two-dimensional extension
//! ([`multidim`], §6). The [`theory`] module carries the paper's
//! closed-form bounds for cross-checking; every server also offers an
//! `absorb_population` fast path — the statistically-equivalent simulation
//! the paper itself uses to evaluate populations of `N = 2^26`.

#[cfg(test)]
mod answer_contract;
pub mod binomial_support;
pub mod config;
pub mod error;
pub mod estimate;
pub mod flat;
#[cfg(test)]
mod freeze_differential;
pub mod haar;
pub mod hh;
pub mod mergeable;
pub mod multidim;
pub mod persist;
pub mod quantile;
pub mod tables;
pub mod theory;

pub use config::{FlatConfig, HaarConfig, HhConfig, RangeMechanism};
pub use error::RangeError;
pub use estimate::{FrequencyEstimate, RangeEstimate};
pub use flat::{FlatClient, FlatServer};
pub use haar::calibration::{HaarOueClient, HaarOueReport, HaarOueServer};
pub use haar::{HaarEstimate, HaarHrrClient, HaarHrrReport, HaarHrrServer};
pub use hh::split::{HhSplitClient, HhSplitReport, HhSplitServer};
pub use hh::{HhClient, HhEstimate, HhReport, HhServer};
pub use mergeable::{MergeableServer, SubtractableServer};
pub use multidim::{Hh2dClient, Hh2dConfig, Hh2dEstimate, Hh2dReport, Hh2dServer};
pub use persist::{PersistableServer, StateReader};
pub use quantile::{deciles, quantile, true_quantile};
pub use tables::PrefixTables;

// Re-export the privacy parameter so downstream users need only this crate.
pub use ldp_freq_oracle::{Epsilon, FrequencyOracle};
