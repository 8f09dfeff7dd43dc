//! Privacy audit of the unary encoders, on the bytes a client sends.
//!
//! OUE and SUE reports are product-form: bit `j` of a report of value `v`
//! is an independent Bernoulli(`p`) draw at `j = v` and Bernoulli(`q`)
//! elsewhere, and that product form is what bounds the likelihood ratio
//! between two inputs by `(p/q)·((1−q)/(1−p)) = e^ε`. A sampler that
//! correlates bits, or lets the input steer anything but the value's own
//! bit, breaks ε-LDP while every bit-identity suite and every MSE check
//! can still pass. So for every configuration below this draws reports
//! per input through `encode` and holds their bits to that distribution
//! — OUE's as the service receives them, through
//! [`WireReport::encode_frame`] → [`decode_frame`]; SUE's, which the
//! service does not serve (wire oracle tag 3 is retired), straight from
//! `encode`:
//!
//! - per position, the count of 1s is a Binomial(n, p or q) draw;
//! - per pair of positions — every pair, so `j` / `j+64` and pairs across
//!   word boundaries included — the count of joint 1s is a
//!   Binomial(n, πⱼ·πₖ) draw, which with the two marginals pins the
//!   pair's 2×2 table to independence;
//! - every OUE frame has the same byte length, whatever the input.
//!
//! Each count is held to the two-sided Chernoff bound
//! `n·KL(x/n ‖ π) ≤ ln(2M/α)`, Bonferroni-corrected over all `M` counts
//! of a run, so a correct sampler fails a run with probability ≤ α.
//!
//! Reports are independent and every range estimator is linear in the
//! bits, so the marginals and pairwise covariances checked here fix each
//! range answer's bias and variance: this is also the accuracy gate for
//! the encode kernel. It runs against the kernel (`Oue::encode` /
//! `Sue::encode`) and against the per-bit loop that kernel replaced.

use ldp_freq_oracle::{
    oue_probs, sue_probs, AnyOracle, AnyReport, Epsilon, FrequencyOracle, OueReport, PointOracle,
};
use ldp_service::{decode_frame, WireReport};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const KINDS: [FrequencyOracle; 2] = [FrequencyOracle::Oue, FrequencyOracle::Sue];
/// Around and across the 64-bit word edges.
const DOMAINS: [usize; 7] = [1, 2, 16, 63, 64, 65, 130];
const EXP_EPS: [f64; 3] = [1.5, 3.0, 9.0];
/// Reports drawn per input (a multiple of 64: one column word per 64).
const REPORTS: usize = 4_096;
/// Family-wise false-failure rate of one audit run.
const ALPHA: f64 = 1e-6;

/// Which encoder the audit drives.
#[derive(Debug, Clone, Copy)]
enum Sampler {
    /// `PointOracle::encode`: the word-parallel lane kernel.
    Kernel,
    /// The per-bit loop: one uniform `f64` per bit, compared against `p`
    /// at the value and `q` elsewhere.
    Reference,
}

/// The inputs audited: all of them up to 16 items, otherwise the word
/// edges and both ends.
fn inputs(domain: usize) -> Vec<usize> {
    if domain <= 16 {
        return (0..domain).collect();
    }
    let mut picks: Vec<usize> = [0, 1, 31, 62, 63, 64, domain - 1]
        .into_iter()
        .filter(|&v| v < domain)
        .collect();
    picks.dedup();
    picks
}

/// Counts checked for one configuration: a marginal per position and a
/// joint count per pair, per input.
fn counts_per_config(domain: usize) -> usize {
    inputs(domain).len() * (domain + domain * (domain - 1) / 2)
}

fn probs(kind: FrequencyOracle, eps: Epsilon) -> (f64, f64) {
    match kind {
        FrequencyOracle::Oue => oue_probs(eps),
        FrequencyOracle::Sue => sue_probs(eps),
        other => unreachable!("{other} is not a unary oracle"),
    }
}

fn encode_per_bit(domain: usize, value: usize, (p, q): (f64, f64), rng: &mut StdRng) -> OueReport {
    let mut words = vec![0u64; domain.div_ceil(64)];
    for j in 0..domain {
        let prob = if j == value { p } else { q };
        if rng.random::<f64>() < prob {
            words[j / 64] |= 1 << (j % 64);
        }
    }
    OueReport::from_words(domain, words)
}

/// `KL(a ‖ b)` between Bernoulli distributions, with `0·ln 0 = 0`.
fn kl(a: f64, b: f64) -> f64 {
    let term = |x: f64, y: f64| if x == 0.0 { 0.0 } else { x * (x / y).ln() };
    term(a, b) + term(1.0 - a, 1.0 - b)
}

/// One run's Chernoff threshold and its worst and failing counts.
struct Tally {
    threshold: f64,
    worst: f64,
    failures: Vec<String>,
}

impl Tally {
    /// Holds `ones` out of [`REPORTS`] to Binomial(`REPORTS`, `prob`).
    fn check(&mut self, ones: u32, prob: f64, what: impl FnOnce() -> String) {
        let n = REPORTS as f64;
        let stat = n * kl(f64::from(ones) / n, prob);
        self.worst = self.worst.max(stat);
        if stat > self.threshold {
            self.failures.push(format!(
                "{}: {ones}/{REPORTS} ones, expected {:.1} (n·KL {stat:.1} > {:.1})",
                what(),
                prob * n,
                self.threshold
            ));
        }
    }
}

fn audit(sampler: Sampler) {
    let checks: usize =
        KINDS.len() * EXP_EPS.len() * DOMAINS.map(counts_per_config).iter().sum::<usize>();
    let mut tally = Tally {
        threshold: (2.0 * checks as f64 / ALPHA).ln(),
        worst: 0.0,
        failures: Vec::new(),
    };
    let columns = REPORTS / 64;
    let mut rng = StdRng::seed_from_u64(0xa0d1);
    for kind in KINDS {
        for exp_eps in EXP_EPS {
            let eps = Epsilon::from_exp(exp_eps);
            let (p, q) = probs(kind, eps);
            for domain in DOMAINS {
                let oracle = AnyOracle::new(kind, domain, eps).unwrap();
                let config = format!("{sampler:?} {kind} e^ε={exp_eps} D={domain}");
                let mut frame_len = None;
                for value in inputs(domain) {
                    // bits[j·columns + t/64] bit t%64: bit j of report t.
                    let mut bits = vec![0u64; domain * columns];
                    let mut frame = Vec::new();
                    for t in 0..REPORTS {
                        let report = match (sampler, kind) {
                            (Sampler::Kernel, _) => oracle.encode(value, &mut rng).unwrap(),
                            (Sampler::Reference, FrequencyOracle::Oue) => {
                                AnyReport::Oue(encode_per_bit(domain, value, (p, q), &mut rng))
                            }
                            (Sampler::Reference, _) => {
                                AnyReport::Sue(encode_per_bit(domain, value, (p, q), &mut rng))
                            }
                        };
                        let unary = match report {
                            AnyReport::Oue(_) => {
                                frame.clear();
                                report.encode_frame(&mut frame);
                                assert_eq!(
                                    *frame_len.get_or_insert(frame.len()),
                                    frame.len(),
                                    "{config}: frame length depends on the input (value {value})"
                                );
                                let (decoded, used) = decode_frame::<AnyReport>(&frame).unwrap();
                                assert_eq!(used, frame.len(), "{config}");
                                let AnyReport::Oue(unary) = decoded else {
                                    panic!("{config}: decoded a non-OUE report");
                                };
                                unary
                            }
                            AnyReport::Sue(unary) => unary,
                            _ => panic!("{config}: encoded a non-unary report"),
                        };
                        for (wi, &word) in unary.words().iter().enumerate() {
                            let mut w = word;
                            while w != 0 {
                                let j = wi * 64 + w.trailing_zeros() as usize;
                                bits[j * columns + t / 64] |= 1 << (t % 64);
                                w &= w - 1;
                            }
                        }
                    }
                    let column = |j: usize| &bits[j * columns..(j + 1) * columns];
                    let marginal = |j: usize| if j == value { p } else { q };
                    for j in 0..domain {
                        let ones = column(j).iter().map(|w| w.count_ones()).sum();
                        tally.check(ones, marginal(j), || {
                            format!("{config} value {value} bit {j}")
                        });
                    }
                    for j in 0..domain {
                        for k in j + 1..domain {
                            let both = column(j)
                                .iter()
                                .zip(column(k))
                                .map(|(a, b)| (a & b).count_ones())
                                .sum();
                            tally.check(both, marginal(j) * marginal(k), || {
                                format!("{config} value {value} bits {j}&{k}")
                            });
                        }
                    }
                }
            }
        }
    }
    assert!(
        tally.failures.is_empty(),
        "{sampler:?}: {} of {checks} counts outside their Chernoff bound, first: {:#?}",
        tally.failures.len(),
        &tally.failures[..tally.failures.len().min(8)]
    );
    // A run this size that never strays is as suspicious as one that
    // strays too far: the worst of ~10⁵ honest counts sits well above 1.
    assert!(tally.worst > 1.0, "{sampler:?}: worst n·KL {}", tally.worst);
}

#[test]
fn lane_kernel_passes_the_unary_encode_audit() {
    audit(Sampler::Kernel);
}

#[test]
fn per_bit_reference_passes_the_unary_encode_audit() {
    audit(Sampler::Reference);
}
