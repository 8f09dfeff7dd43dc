//! The answer contract: what [`PrefixTables`] answers from the integer
//! statistics is what the serial float freeze of the same integers
//! answers ([`FlatServer::frequency_estimate`],
//! [`HhServer::frequency_estimate`], [`HaarHrrServer::frequency_estimate`]),
//! up to rounding — and it is exactly unbiased.
//!
//! **Tolerance.** Every prefix, point and range answer agrees with the
//! freeze within [`PrefixTables::freeze_tolerance`], whose doc derives
//! it from the statistics: twice `γ_K(1 + 2h)X` for flat and `HH_B`,
//! `12γ_K X` for `HaarHRR` — the standard forward error bound of a
//! linear computation of at most `K` rounded steps over the raw
//! estimates' terms, whose total magnitude is `X`. Nothing here is tuned
//! to the data. A quantile is the same index on both sides, unless the
//! two binary searches part at an index where the freeze's prefix lies
//! within that tolerance of φ, where rounding may decide either way.
//!
//! **Scope.** Flat and `HH_B` for B ∈ {2, 3, 4, 16}, over OUE, OLH and
//! HRR (HRR where every level is a power of two), and `HaarHRR`; every
//! prefix and point up to 2^10 items and every range up to 2^7, sampled
//! ones above them up to 2^16 (2^17 for `HaarHRR`; a tree's or a
//! pyramid's range is the difference of two prefixes); the empty state, a
//! populated one, a level with no reports, and a window (three epochs
//! merged, the oldest subtracted back out, as an epoch ring retires it).
//!
//! **Exact bias.** Loaded with its *expected* statistics for a chosen
//! histogram — written as tally bodies and restored through
//! [`PersistableServer::restore_state`] — every mechanism answers the
//! true fraction of every range, within the same tolerance.

use ldp_freq_oracle::{put_varint, Epsilon, FrequencyOracle, PointOracle};
use ldp_transforms::fwht_i64;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::config::{FlatConfig, HaarConfig, HhConfig};
use crate::estimate::{FrequencyEstimate, RangeEstimate};
use crate::flat::FlatServer;
use crate::haar::{coefficient_of, HaarHrrServer};
use crate::hh::HhServer;
use crate::mergeable::SubtractableServer;
use crate::persist::{PersistableServer, StateReader};
use crate::quantile::quantile;
use crate::tables::PrefixTables;

const ORACLES: [FrequencyOracle; 3] = [
    FrequencyOracle::Oue,
    FrequencyOracle::Olh,
    FrequencyOracle::Hrr,
];
const FANOUTS: [usize; 4] = [2, 3, 4, 16];
/// Every range is checked up to this many items; above it, sampled ones.
const EVERY_RANGE: usize = 1 << 7;
/// Every prefix and point is checked up to this many items; above it,
/// sampled ones.
const EVERY_PREFIX: usize = 1 << 10;
const SAMPLED: usize = 1_000;

fn eps() -> Epsilon {
    Epsilon::from_exp(3.0)
}

/// A skewed cohort: user `i` holds `i² mod D`.
fn cohort(domain: usize, users: u64) -> Vec<u64> {
    let mut counts = vec![0; domain];
    for i in 0..users {
        counts[(i * i % domain as u64) as usize] += 1;
    }
    counts
}

/// OLH simulates each user at `O(D)`, so it gets a handful.
fn users(oracle: FrequencyOracle, domain: usize) -> u64 {
    match oracle {
        FrequencyOracle::Olh => 48.min(4 * domain as u64),
        _ => 8 * domain as u64,
    }
}

/// Every `B^h` from `B` up to `max`.
fn powers(fanout: usize, max: usize) -> impl Iterator<Item = usize> {
    std::iter::successors(Some(fanout), move |&d| Some(d * fanout)).take_while(move |&d| d <= max)
}

/// The ranges checked at `domain`: all of them up to [`EVERY_RANGE`]
/// items, else the full range, the single items at both ends and random
/// ones.
fn ranges(domain: usize, rng: &mut StdRng) -> Vec<(usize, usize)> {
    if domain <= EVERY_RANGE {
        return (0..domain)
            .flat_map(|a| (a..domain).map(move |b| (a, b)))
            .collect();
    }
    let mut ranges = vec![(0, domain - 1), (0, 0), (domain - 1, domain - 1)];
    ranges.extend((0..SAMPLED).map(|_| {
        let (a, b) = (rng.random_range(0..domain), rng.random_range(0..domain));
        (a.min(b), a.max(b))
    }));
    ranges
}

/// The prefixes and points checked at `domain`: all of them up to
/// [`EVERY_PREFIX`] items, else both ends and random ones.
fn items(domain: usize, rng: &mut StdRng) -> Vec<usize> {
    if domain <= EVERY_PREFIX {
        return (0..domain).collect();
    }
    let mut items = vec![0, domain - 1];
    items.extend((0..SAMPLED).map(|_| rng.random_range(0..domain)));
    items
}

/// The prefixes and points, then the ranges, within the tolerance; then
/// the quantiles.
fn assert_contract(
    tables: &PrefixTables,
    freeze: &FrequencyEstimate,
    rng: &mut StdRng,
    what: &str,
) {
    let tol = tables.freeze_tolerance();
    assert!(tol.is_finite() && tol < 1e-3, "{what}: tolerance {tol}");
    assert_eq!(tables.domain(), freeze.domain(), "{what}: domain");
    let d = freeze.domain();
    for z in items(d, rng) {
        let (got, want) = (tables.prefix(z), freeze.prefix(z));
        assert!(
            (got - want).abs() <= tol,
            "{what}: prefix {z}: {got} vs {want}"
        );
        let (got, want) = (tables.point(z), freeze.point(z));
        assert!(
            (got - want).abs() <= tol,
            "{what}: point {z}: {got} vs {want}"
        );
    }
    for (a, b) in ranges(d, rng) {
        let (got, want) = (tables.range(a, b), freeze.range(a, b));
        assert!(
            (got - want).abs() <= tol,
            "{what}: range [{a}, {b}]: {got} vs {want} (tolerance {tol})"
        );
    }
    for i in 0..=20 {
        assert_same_quantile(tables, freeze, tol, f64::from(i) / 20.0, what);
    }
}

/// The φ-quantile from both sides: the same index, unless the searches
/// part where the freeze's prefix is within the tolerance of φ.
fn assert_same_quantile(
    tables: &PrefixTables,
    freeze: &FrequencyEstimate,
    tol: f64,
    phi: f64,
    what: &str,
) {
    let (mut lo, mut hi) = (0, freeze.domain() - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let reached = freeze.prefix(mid) >= phi;
        if reached != (tables.prefix(mid) >= phi) {
            let gap = (freeze.prefix(mid) - phi).abs();
            assert!(gap <= tol, "{what}: φ={phi} parts at {mid}, {gap} from φ");
            return;
        }
        if reached {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    assert_eq!(
        quantile(tables, phi),
        quantile(freeze, phi),
        "{what}: φ={phi}"
    );
}

/// The states every configuration is checked in: empty, populated, one
/// level holding no reports, and a window.
fn states<S: SubtractableServer>(
    empty: &S,
    populate: impl Fn(&mut S, u64),
    clear_level: impl Fn(&mut S),
) -> Vec<(&'static str, S)> {
    let mut populated = empty.clone();
    populate(&mut populated, 1);
    let mut one_level_empty = populated.clone();
    clear_level(&mut one_level_empty);
    let epochs: Vec<S> = (2..5)
        .map(|seed| {
            let mut epoch = empty.clone();
            populate(&mut epoch, seed);
            epoch
        })
        .collect();
    let mut window = empty.clone();
    for epoch in &epochs {
        window.merge(epoch).unwrap();
    }
    window.subtract(&epochs[0]).unwrap();
    vec![
        ("empty", empty.clone()),
        ("populated", populated),
        ("one level empty", one_level_empty),
        ("window", window),
    ]
}

fn check_hh(config: &HhConfig, rng: &mut StdRng) {
    let (oracle, domain) = (config.oracle, config.domain);
    let populate = |server: &mut HhServer, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed * 7919 + domain as u64);
        let counts = cohort(domain, users(oracle, domain) + seed);
        server.absorb_population(&counts, &mut rng).unwrap();
    };
    let clear_level = |server: &mut HhServer| {
        let levels = server.oracles_mut();
        let mid = levels.len() / 2;
        levels[mid].clear();
    };
    let empty = HhServer::new(config.clone()).unwrap();
    for (state, server) in states(&empty, populate, clear_level) {
        let what = format!("HH_{} {oracle} D={domain} {state}", config.fanout);
        let tables = server.prefix_tables().unwrap();
        assert_contract(&tables, &server.frequency_estimate(), rng, &what);
    }
}

fn check_flat(config: &FlatConfig, rng: &mut StdRng) {
    let (oracle, domain) = (config.oracle, config.domain);
    let populate = |server: &mut FlatServer, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed * 7919 + domain as u64);
        let counts = cohort(domain, users(oracle, domain) + seed);
        server.absorb_population(&counts, &mut rng).unwrap();
    };
    let empty = FlatServer::new(config).unwrap();
    for (state, server) in states(&empty, populate, |server| server.oracles_mut()[0].clear()) {
        let what = format!("flat {oracle} D={domain} {state}");
        let tables = server.prefix_tables().unwrap();
        assert_contract(&tables, &server.frequency_estimate(), rng, &what);
    }
}

/// `HaarHRR` over `domain` items, in every state of [`states`].
fn check_haar(domain: usize, rng: &mut StdRng) {
    let populate = |server: &mut HaarHrrServer, seed: u64| {
        let mut rng = StdRng::seed_from_u64(seed * 7919 + domain as u64);
        let counts = cohort(domain, 8 * domain as u64 + seed);
        server.absorb_population(&counts, &mut rng).unwrap();
    };
    let clear_level = |server: &mut HaarHrrServer| {
        let levels = server.oracles_mut();
        let mid = levels.len() / 2;
        levels[mid].clear();
    };
    let empty = HaarHrrServer::new(HaarConfig::new(domain, eps()).unwrap()).unwrap();
    for (state, server) in states(&empty, populate, clear_level) {
        let what = format!("HaarHRR D={domain} {state}");
        let tables = server.prefix_tables().unwrap();
        assert_contract(&tables, &server.frequency_estimate(), rng, &what);
    }
}

/// Every power of two up to 2^10, then 2^12, 2^14 and 2^17, each plain
/// and windowed: every prefix and point up to 2^10, sampled above.
#[test]
fn haar_tables_answer_as_the_float_freeze_up_to_2_17() {
    let mut rng = StdRng::seed_from_u64(5204);
    for domain in (1..=10).chain([12, 14, 17]).map(|k| 1usize << k) {
        check_haar(domain, &mut rng);
    }
}

#[test]
fn hh_tables_answer_as_the_float_freeze_up_to_2_10() {
    let mut rng = StdRng::seed_from_u64(5201);
    for oracle in ORACLES {
        for fanout in FANOUTS {
            for domain in powers(fanout, 1 << 10) {
                if let Ok(config) = HhConfig::with_oracle(domain, fanout, eps(), oracle) {
                    check_hh(&config, &mut rng);
                }
            }
        }
    }
}

#[test]
fn flat_tables_answer_as_the_float_freeze() {
    let mut rng = StdRng::seed_from_u64(5202);
    for oracle in ORACLES {
        for domain in [1, 2, 3, 64, 1000, 1024] {
            if let Ok(config) = FlatConfig::with_oracle(domain, eps(), oracle) {
                check_flat(&config, &mut rng);
            }
        }
    }
}

/// The largest power of each fanout up to 2^16, over OUE and HRR (OLH is
/// served up to 2^10 only), empty and populated.
#[test]
fn large_tables_answer_as_the_float_freeze_up_to_2_16() {
    let mut rng = StdRng::seed_from_u64(5203);
    for oracle in [FrequencyOracle::Oue, FrequencyOracle::Hrr] {
        for fanout in FANOUTS {
            let Some(domain) = powers(fanout, 1 << 16).last().filter(|&d| d > 1 << 10) else {
                continue;
            };
            let Ok(config) = HhConfig::with_oracle(domain, fanout, eps(), oracle) else {
                continue;
            };
            let mut server = HhServer::new(config).unwrap();
            for populated in [false, true] {
                if populated {
                    let counts = cohort(domain, 4 * domain as u64);
                    server.absorb_population(&counts, &mut rng).unwrap();
                }
                let what = format!("HH_{fanout} {oracle} D={domain} populated={populated}");
                let tables = server.prefix_tables().unwrap();
                assert_contract(&tables, &server.frequency_estimate(), &mut rng, &what);
            }
        }
        let config = FlatConfig::with_oracle(1 << 16, eps(), oracle).unwrap();
        let mut server = FlatServer::new(&config).unwrap();
        let counts = cohort(1 << 16, 1 << 18);
        server.absorb_population(&counts, &mut rng).unwrap();
        let tables = server.prefix_tables().unwrap();
        let what = format!("flat {oracle} D=2^16");
        assert_contract(&tables, &server.frequency_estimate(), &mut rng, &what);
    }
}

// --- exact bias ---------------------------------------------------------

/// The histogram the bias rows load: `2D·w` users on item `z`, for a
/// small weight `w` (zero on some items), so every expected statistic
/// below is an integer.
fn histogram(domain: usize) -> Vec<u64> {
    (0..domain as u64)
        .map(|z| 2 * domain as u64 * ((z * z + 3 * z) % 5))
        .collect()
}

/// A level's expected statistics at e^ε = 3 for node counts `m` out of
/// `reports` users, from the oracles' definitions:
/// - OUE (`oue.rs`): a holder's bit is 1 w.p. `p = 1/2`, anyone else's
///   w.p. `q = 1/(1 + e^ε) = 1/4`, so `E[c_v] = m_v/2 + (N − m_v)/4`;
/// - OLH (`olh.rs`): `g = 4`, a holder supports `v` w.p. the GRR keep
///   probability `e^ε/(e^ε + g − 1) = 1/2`, anyone else w.p. `1/g`: the
///   same counts as OUE;
/// - HRR (`hrr.rs`): a user samples index `j` of `n` uniformly and sends
///   `φ[v][j]` kept w.p. `p = e^ε/(1 + e^ε) = 3/4`, so
///   `E[s_j] = (2p − 1)/n · Σ_v m_v φ[v][j] = (φm)_j / (2n)`.
///
/// For `HaarHRR` `m_v` is signed: the users under node `v`'s left half
/// minus those under its right half, each sending `±φ[v][j]`.
fn expected_statistics(oracle: FrequencyOracle, m: &[i64], reports: u64) -> Vec<i64> {
    let m = m.to_vec();
    let n = reports as i64;
    match oracle {
        FrequencyOracle::Hrr => {
            let mut t = m;
            fwht_i64(&mut t);
            let width = 2 * t.len() as i64;
            t.iter()
                .map(|&s| {
                    assert_eq!(s % width, 0, "histogram not a multiple of 2n");
                    s / width
                })
                .collect()
        }
        _ => m
            .iter()
            .map(|&c| {
                assert_eq!((c + n) % 4, 0, "histogram not a multiple of 4");
                (c + n) / 4
            })
            .collect(),
    }
}

/// One level's tally body behind its kind's tag: the checkpoint bytes
/// `persist.rs` restores.
fn put_level(out: &mut Vec<u8>, oracle: FrequencyOracle, reports: u64, stats: &[i64]) {
    out.push(oracle.tag());
    put_body(out, oracle, reports, stats);
}

/// One level's tally body, untagged as `HaarHRR` writes it.
fn put_body(out: &mut Vec<u8>, oracle: FrequencyOracle, reports: u64, stats: &[i64]) {
    put_varint(out, reports);
    for &s in stats {
        let code = if oracle == FrequencyOracle::Hrr {
            ((s << 1) ^ (s >> 63)) as u64
        } else {
            s as u64
        };
        put_varint(out, code);
    }
}

/// The true fraction of every prefix of `counts`.
fn true_prefixes(counts: &[u64]) -> Vec<f64> {
    let total: u64 = counts.iter().sum();
    counts
        .iter()
        .scan(0, |acc, &c| {
            *acc += c;
            Some(*acc as f64 / total as f64)
        })
        .collect()
}

/// Both the tables and the float freeze answer every range of `counts`
/// exactly: each side's own rounding is at most half the tolerance.
fn assert_unbiased<S: PersistableServer>(
    mut server: S,
    bytes: &[u8],
    counts: &[u64],
    tables: impl Fn(&S) -> PrefixTables,
    freeze: impl Fn(&S) -> FrequencyEstimate,
    what: &str,
) {
    server
        .restore_state(&mut StateReader::new(bytes))
        .unwrap_or_else(|e| panic!("{what}: {e}"));
    let (tables, freeze) = (tables(&server), freeze(&server));
    let tol = tables.freeze_tolerance() / 2.0;
    let truth = true_prefixes(counts);
    let exact = |a: usize, b: usize| truth[b] - if a == 0 { 0.0 } else { truth[a - 1] };
    let mut rng = StdRng::seed_from_u64(counts.len() as u64);
    let prefixes = (0..counts.len()).map(|b| (0, b));
    for (a, b) in prefixes.chain(ranges(counts.len(), &mut rng)) {
        for (side, got) in [
            ("tables", tables.range(a, b)),
            ("freeze", freeze.range(a, b)),
        ] {
            assert!(
                (got - exact(a, b)).abs() <= tol,
                "{what}: {side} range [{a}, {b}]: {got} vs {} (tolerance {tol})",
                exact(a, b)
            );
        }
    }
}

#[test]
fn expected_statistics_answer_every_range_exactly() {
    for oracle in ORACLES {
        for domain in (4..=10).map(|k| 1usize << k) {
            let counts = histogram(domain);
            let total: u64 = counts.iter().sum();
            let config = FlatConfig::with_oracle(domain, eps(), oracle).unwrap();
            let mut bytes = Vec::new();
            let m: Vec<i64> = counts.iter().map(|&c| c as i64).collect();
            put_level(
                &mut bytes,
                oracle,
                total,
                &expected_statistics(oracle, &m, total),
            );
            assert_unbiased(
                FlatServer::new(&config).unwrap(),
                &bytes,
                &counts,
                |s| s.prefix_tables().unwrap(),
                FlatServer::frequency_estimate,
                &format!("flat {oracle} D={domain}"),
            );
        }
        for fanout in [2, 4, 16] {
            for domain in powers(fanout, 1 << 10).filter(|&d| d >= 1 << 4) {
                let counts = histogram(domain);
                let config = HhConfig::with_oracle(domain, fanout, eps(), oracle).unwrap();
                let shape = config.shape();
                // Each depth's cohort is the histogram scaled by 1, 2 or
                // 3, so the levels' report totals and maps differ.
                let mut bytes = Vec::new();
                for depth in 1..=shape.height() {
                    let scale = 1 + u64::from(depth % 3);
                    let mut m = vec![0i64; shape.nodes_at_depth(depth)];
                    for (z, &c) in counts.iter().enumerate() {
                        m[shape.ancestor_at_depth(z, depth)] += (scale * c) as i64;
                    }
                    let reports = m.iter().sum::<i64>() as u64;
                    let stats = expected_statistics(oracle, &m, reports);
                    put_level(&mut bytes, oracle, reports, &stats);
                }
                assert_unbiased(
                    HhServer::new(config).unwrap(),
                    &bytes,
                    &counts,
                    |s| s.prefix_tables().unwrap(),
                    HhServer::frequency_estimate,
                    &format!("HH_{fanout} {oracle} D={domain}"),
                );
            }
        }
    }
}

/// `HaarHRR` loaded with each depth's expected HRR statistics answers
/// every range of the histogram exactly, through the Haar walk and
/// through the float freeze, at 2^1–2^10 items. Each depth's cohort is
/// the histogram scaled by 1, 2 or 3, so the depths' report totals and
/// maps differ; node `v`'s signed count is its left half's users minus
/// its right half's, a multiple of `2D`, so every expected sum is an
/// integer.
#[test]
fn expected_haar_statistics_answer_every_range_exactly() {
    for domain in (1..=10).map(|k| 1usize << k) {
        let counts = histogram(domain);
        let config = HaarConfig::new(domain, eps()).unwrap();
        let height = config.height;
        let mut bytes = Vec::new();
        for depth in 0..height {
            let scale = 1 + u64::from(depth % 3);
            let mut m = vec![0i64; 1 << depth];
            for (z, &c) in counts.iter().enumerate() {
                let (node, sign) = coefficient_of(z, depth, height);
                m[node] += i64::from(sign) * (scale * c) as i64;
            }
            let reports = scale * counts.iter().sum::<u64>();
            let stats = expected_statistics(FrequencyOracle::Hrr, &m, reports);
            put_body(&mut bytes, FrequencyOracle::Hrr, reports, &stats);
        }
        assert_unbiased(
            HaarHrrServer::new(config).unwrap(),
            &bytes,
            &counts,
            |s| s.prefix_tables().unwrap(),
            HaarHrrServer::frequency_estimate,
            &format!("HaarHRR D={domain}"),
        );
    }
}

/// A restored state whose prefixes would leave `i64` is refused by the
/// table build, for counts and for HRR's transformed sums, and one just
/// inside the bound builds.
#[test]
fn overflowing_statistics_are_refused() {
    use ldp_freq_oracle::OracleError;
    let domain = 16usize;
    for (oracle, over, inside) in [
        // N·D: 2^63 + 16 is one step past the count bound, 2^63 − 16
        // inside it.
        (
            FrequencyOracle::Oue,
            ((1u64 << 59) + 1, 1i64 << 58),
            ((1u64 << 59) - 1, 1i64 << 58),
        ),
        // Σ|s|·D: 16·2^55·16 = 2^63 is past the bound, 2^62 inside it.
        (
            FrequencyOracle::Hrr,
            (1u64 << 55, 1i64 << 55),
            (1u64 << 55, 1i64 << 54),
        ),
    ] {
        let config = FlatConfig::with_oracle(domain, eps(), oracle).unwrap();
        let mut server = FlatServer::new(&config).unwrap();
        let mut bytes = Vec::new();
        put_level(&mut bytes, oracle, over.0, &vec![over.1; domain]);
        server.restore_state(&mut StateReader::new(&bytes)).unwrap();
        assert_eq!(
            server.prefix_tables().unwrap_err(),
            OracleError::StatisticOverflow,
            "{oracle}"
        );
        let mut bytes = Vec::new();
        put_level(&mut bytes, oracle, inside.0, &vec![inside.1; domain]);
        server.restore_state(&mut StateReader::new(&bytes)).unwrap();
        let tables = server.prefix_tables().unwrap();
        assert!(tables.prefix(domain - 1).is_finite(), "{oracle}");
    }
    // One HRR sum at 2^55 and the rest zero: the bound from the largest
    // magnitude (2^55·16·16 = 2^63) cannot admit it, the exact total
    // (2^55·16 = 2^59) does, and the table matches the float freeze.
    let config = FlatConfig::with_oracle(domain, eps(), FrequencyOracle::Hrr).unwrap();
    let mut server = FlatServer::new(&config).unwrap();
    let mut stats = vec![0; domain];
    stats[3] = 1i64 << 55;
    let mut bytes = Vec::new();
    put_level(&mut bytes, FrequencyOracle::Hrr, 1 << 55, &stats);
    server.restore_state(&mut StateReader::new(&bytes)).unwrap();
    let tables = server.prefix_tables().unwrap();
    let mut rng = StdRng::seed_from_u64(5205);
    assert_contract(
        &tables,
        &server.frequency_estimate(),
        &mut rng,
        "one large HRR sum",
    );
}
