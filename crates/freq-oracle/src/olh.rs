//! Optimal Local Hashing (OLH) — Wang et al., adopted by paper §3.2.
//!
//! Each user samples a universal hash `H : [D] → [g]` with `g = ⌊e^ε⌋ + 1`,
//! hashes her value, perturbs the hash with k-ary randomized response over
//! `[g]`, and transmits `(H, y)`. The aggregator counts, for every original
//! item `j`, how many reports *support* it (`H(j) = y`) and corrects the
//! bias: `θ̂[j] = (S[j]/N − 1/g)/(p − 1/g)`.
//!
//! OLH matches OUE's variance with far less communication, but decoding
//! costs `O(N·D)` — the paper drops it for large domains for exactly this
//! reason, and so do our benchmarks.

use rand::RngCore;

use crate::grr::Grr;
use crate::hash::{UniversalHash, MERSENNE_P};
use crate::oracle::{self, EstimateMap, PointOracle};
use crate::params::olh_hash_range;
use crate::variance::frequency_oracle_variance;
use crate::{Epsilon, FrequencyOracle, OracleError, Tally};

/// Counts one report's support: `support[j] += 1` for every item `j` with
/// `H(j) = y`. This O(D) scan per report is the decode cost the paper
/// highlights as OLH's drawback, so it walks the hash incrementally:
/// `a·(j+1) + b ≡ (a·j + b) + a (mod P)`, and with `a, b < P` the running
/// residue stays below `P`, so one conditional subtraction replaces
/// [`UniversalHash::eval`]'s 128-bit remainder — the same residues, hence
/// the same support, bit for bit.
fn add_support(support: &mut [u64], hash: UniversalHash, y: usize) {
    let (a, b) = hash.parts();
    let (g, y) = (hash.range() as u64, y as u64);
    let mut v = b;
    for s in support {
        *s += u64::from(v % g == y);
        v += a;
        if v >= MERSENNE_P {
            v -= MERSENNE_P;
        }
    }
}

/// One user's OLH report: her sampled hash function and perturbed hash
/// value — `O(log D)` bits in practice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OlhReport {
    hash: UniversalHash,
    value: usize,
}

impl OlhReport {
    /// The transmitted hash function.
    #[must_use]
    pub fn hash(&self) -> UniversalHash {
        self.hash
    }

    /// The perturbed hash value in `[g]`.
    #[must_use]
    pub fn value(&self) -> usize {
        self.value
    }

    /// Rebuilds a report from its transmitted parts (wire decoding).
    ///
    /// # Panics
    ///
    /// Panics unless `value` lies in the hash's range.
    #[must_use]
    pub fn from_parts(hash: UniversalHash, value: usize) -> Self {
        assert!(
            value < hash.range(),
            "hash value {value} outside range {}",
            hash.range()
        );
        Self { hash, value }
    }
}

/// The OLH frequency oracle.
#[derive(Debug, Clone)]
pub struct Olh {
    domain: usize,
    eps: Epsilon,
    g: usize,
    grr: Grr,
    /// Support counts per original item, and the report total.
    tally: Tally,
}

impl Olh {
    /// Creates an OLH oracle over `domain` items with the variance-optimal
    /// hash range `g = ⌊e^ε⌋ + 1`.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::EmptyDomain`] for a zero-size domain.
    pub fn new(domain: usize, eps: Epsilon) -> Result<Self, OracleError> {
        if domain == 0 {
            return Err(OracleError::EmptyDomain);
        }
        let g = olh_hash_range(eps);
        Ok(Self {
            domain,
            eps,
            g,
            grr: Grr::new(g, eps),
            tally: Tally::counts(domain),
        })
    }

    /// The hash range `g`.
    #[must_use]
    pub fn hash_range(&self) -> usize {
        self.g
    }

    /// Merges another shard's support counts into this one.
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] on shape mismatch and
    /// [`OracleError::EpsilonMismatch`] on a different ε.
    pub fn merge(&mut self, other: &Self) -> Result<(), OracleError> {
        oracle::merge(self, other)
    }

    /// Removes a previously merged shard's support counts — the exact
    /// inverse of [`Olh::merge`] (see [`crate::Oue::subtract`]).
    ///
    /// # Errors
    ///
    /// Returns [`OracleError::ReportDomainMismatch`] on shape mismatch,
    /// [`OracleError::EpsilonMismatch`] on a different ε, and
    /// [`OracleError::SubtractUnderflow`] if `other` was never merged into
    /// this state. The accumulator is unchanged on error.
    pub fn subtract(&mut self, other: &Self) -> Result<(), OracleError> {
        oracle::subtract(self, other)
    }
}

impl PointOracle for Olh {
    type Report = OlhReport;

    fn domain(&self) -> usize {
        self.domain
    }

    fn epsilon(&self) -> Epsilon {
        self.eps
    }

    fn encode(&self, value: usize, rng: &mut dyn RngCore) -> Result<OlhReport, OracleError> {
        if value >= self.domain {
            return Err(OracleError::ValueOutOfDomain {
                value,
                domain: self.domain,
            });
        }
        let hash = UniversalHash::sample(self.g, rng);
        let h = hash.eval(value);
        Ok(OlhReport {
            hash,
            value: self.grr.perturb(h, rng),
        })
    }

    fn absorb(&mut self, report: &OlhReport) -> Result<(), OracleError> {
        if report.hash.range() != self.g {
            return Err(OracleError::ReportDomainMismatch {
                report: report.hash.range(),
                server: self.g,
            });
        }
        add_support(&mut self.tally.stats, report.hash, report.value);
        self.tally.reports += 1;
        Ok(())
    }

    fn absorb_population(
        &mut self,
        true_counts: &[u64],
        rng: &mut dyn RngCore,
    ) -> Result<(), OracleError> {
        if true_counts.len() != self.domain {
            return Err(OracleError::ReportDomainMismatch {
                report: true_counts.len(),
                server: self.domain,
            });
        }
        // Supports of different items are correlated through the shared
        // hash function of each user, so unlike OUE there is no
        // per-item-independent shortcut: we simulate users honestly. This
        // costs O(N·D) and is only intended for modest N/D (the paper also
        // restricts OLH to its smallest domain).
        for (value, &count) in true_counts.iter().enumerate() {
            for _ in 0..count {
                let report = self.encode(value, rng)?;
                self.absorb(&report)?;
            }
        }
        Ok(())
    }

    fn num_reports(&self) -> u64 {
        self.tally.reports
    }

    fn kind(&self) -> FrequencyOracle {
        FrequencyOracle::Olh
    }

    fn tally(&self) -> &Tally {
        &self.tally
    }

    fn tally_mut(&mut self) -> &mut Tally {
        &mut self.tally
    }

    fn clear(&mut self) {
        self.tally.clear();
    }

    fn estimate_into(&self, out: &mut [f64]) {
        assert_eq!(out.len(), self.domain, "estimate buffer != domain");
        if self.tally.reports == 0 {
            out.fill(0.0);
            return;
        }
        let n = self.tally.reports as f64;
        let inv_g = 1.0 / self.g as f64;
        let denom = self.grr.keep_prob() - inv_g;
        for (o, &s) in out.iter_mut().zip(&self.tally.stats) {
            *o = (s as f64 / n - inv_g) / denom;
        }
    }

    /// A report supports its own holder's item with the GRR keep
    /// probability and any other item with probability `1/g`.
    fn estimate_map(&self) -> EstimateMap {
        EstimateMap::counts(
            self.tally.reports,
            self.grr.keep_prob(),
            1.0 / self.g as f64,
        )
    }

    /// The support counts as they are.
    fn statistic_prefix_into(&self, out: &mut [i64]) -> Result<(), OracleError> {
        self.tally.count_prefix_into(out)
    }

    fn theoretical_variance(&self) -> f64 {
        frequency_oracle_variance(self.eps, self.tally.reports)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// The incremental walk ≡ the `eval` loop it replaced, bit for bit,
    /// for every reported value: random coefficients and ranges, plus the
    /// extremes where the running residue wraps on every step or lands
    /// exactly on `P`.
    #[test]
    fn incremental_walk_matches_eval() {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(35);
        let top = MERSENNE_P - 1;
        for domain in [1, 2, 63, 1_000, 4_096] {
            let mut hashes: Vec<UniversalHash> = (0..24)
                .map(|_| UniversalHash::sample(rng.random_range(2..40), &mut rng))
                .collect();
            hashes.extend(
                [(1, 0), (top, top), (top, 0), (1, top)]
                    .map(|(a, b)| UniversalHash::from_parts(a, b, rng.random_range(2..40))),
            );
            for hash in hashes {
                for y in 0..hash.range() {
                    let mut walked = vec![0u64; domain];
                    add_support(&mut walked, hash, y);
                    let evaluated: Vec<u64> =
                        (0..domain).map(|j| u64::from(hash.eval(j) == y)).collect();
                    assert_eq!(walked, evaluated, "D={domain} {hash:?} y={y}");
                }
            }
        }
    }

    #[test]
    fn hash_range_follows_epsilon() {
        let olh = Olh::new(10, Epsilon::from_exp(3.0)).unwrap();
        assert_eq!(olh.hash_range(), 4);
    }

    #[test]
    fn rejects_empty_domain() {
        assert_eq!(
            Olh::new(0, Epsilon::new(1.0)).unwrap_err(),
            OracleError::EmptyDomain
        );
    }

    #[test]
    fn rejects_out_of_domain() {
        let olh = Olh::new(4, Epsilon::new(1.0)).unwrap();
        let mut rng = StdRng::seed_from_u64(31);
        assert!(olh.encode(4, &mut rng).is_err());
    }

    #[test]
    fn estimates_are_unbiased() {
        let eps = Epsilon::new(1.1);
        let mut olh = Olh::new(12, eps).unwrap();
        let mut rng = StdRng::seed_from_u64(32);
        let n = 40_000usize;
        for i in 0..n {
            let v = if i % 4 == 0 { 2 } else { 7 }; // 25% item 2, 75% item 7
            let r = olh.encode(v, &mut rng).unwrap();
            olh.absorb(&r).unwrap();
        }
        let est = olh.estimate();
        assert!((est[2] - 0.25).abs() < 0.04, "est[2]={}", est[2]);
        assert!((est[7] - 0.75).abs() < 0.04, "est[7]={}", est[7]);
        assert!(est[0].abs() < 0.04, "est[0]={}", est[0]);
    }

    #[test]
    fn population_path_equivalent_to_user_path() {
        let eps = Epsilon::new(1.0);
        let counts = vec![600u64, 0, 0, 400, 0, 0, 0, 0];
        let mut rng = StdRng::seed_from_u64(33);
        let mut mean_est = [0.0; 8];
        let reps = 30;
        for _ in 0..reps {
            let mut olh = Olh::new(8, eps).unwrap();
            olh.absorb_population(&counts, &mut rng).unwrap();
            assert_eq!(olh.num_reports(), 1_000);
            for (m, e) in mean_est.iter_mut().zip(olh.estimate()) {
                *m += e / f64::from(reps);
            }
        }
        assert!((mean_est[0] - 0.6).abs() < 0.03, "{}", mean_est[0]);
        assert!((mean_est[3] - 0.4).abs() < 0.03, "{}", mean_est[3]);
    }

    #[test]
    fn empirical_variance_matches_theory() {
        let eps = Epsilon::new(1.0);
        let counts = vec![500u64; 4];
        let n: u64 = counts.iter().sum();
        let mut rng = StdRng::seed_from_u64(34);
        let reps = 400;
        let mut sq = 0.0;
        for _ in 0..reps {
            let mut olh = Olh::new(4, eps).unwrap();
            olh.absorb_population(&counts, &mut rng).unwrap();
            sq += (olh.estimate()[1] - 0.25_f64).powi(2);
        }
        let empirical = sq / f64::from(reps);
        let theory = frequency_oracle_variance(eps, n);
        let ratio = empirical / theory;
        assert!((0.7..1.35).contains(&ratio), "ratio {ratio}");
    }
}
