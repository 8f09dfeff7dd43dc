//! The bit-sliced unary absorb ≡ the scalar per-bit oracle, bit for bit.
//!
//! `Oue` and `Sue` absorb a batch by staging each report as a row
//! (`absorb_deferred`), folding every sixteen rows into bit planes with a
//! carry-save adder tree, and spilling the planes into their counts once
//! (`settle`, or by themselves after 255 pending reports). These tests
//! drive runs of deferred absorbs — across word and lane-block edges,
//! across the fold's sixteen-row groups and the auto-settle, at every
//! density from all-clear to all-set — with `settle`, `clone`, `merge`
//! and `subtract` interleaved at arbitrary points, and hold the settled
//! counts to a model that adds each report one bit at a time. A drain
//! (`drain`) moves a shard's pending reports and counts into an
//! accumulator without settling the shard first; the drain rows hold it
//! to the same model at every pending count around the fold groups and
//! the auto-settle, for every shard state.

use proptest::prelude::*;

use ldp_freq_oracle::{Epsilon, OracleError, Oue, OueReport, PointOracle, Sue};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Domains around the word edges and, at 513 and 4 160 items (9 and 65
/// words), off the fold's 8-word lane blocks, so rows carry zero pad.
const DOMAINS: [usize; 10] = [1, 2, 63, 64, 65, 513, 1_000, 4_096, 4_160, 65_536];
/// Run lengths around the fold's 16-row groups (15, 16, 17, 33; 240 and
/// 241, the last whole group before the auto-settle and one past it) and
/// around the 255-report auto-settle.
const RUNS: [usize; 13] = [1, 2, 15, 16, 17, 33, 240, 241, 254, 255, 256, 511, 1_000];

/// The two unary oracles behind one interface.
trait Unary: PointOracle<Report = OueReport> + Clone {
    fn build(domain: usize) -> Self;
    fn counts(&self) -> &[u64];
    fn merge(&mut self, other: &Self) -> Result<(), OracleError>;
    fn subtract(&mut self, other: &Self) -> Result<(), OracleError>;
}

impl Unary for Oue {
    fn build(domain: usize) -> Self {
        Oue::new(domain, Epsilon::from_exp(3.0)).unwrap()
    }
    fn counts(&self) -> &[u64] {
        Oue::counts(self)
    }
    fn merge(&mut self, other: &Self) -> Result<(), OracleError> {
        Oue::merge(self, other)
    }
    fn subtract(&mut self, other: &Self) -> Result<(), OracleError> {
        Oue::subtract(self, other)
    }
}

impl Unary for Sue {
    fn build(domain: usize) -> Self {
        Sue::new(domain, Epsilon::from_exp(3.0)).unwrap()
    }
    fn counts(&self) -> &[u64] {
        Sue::counts(self)
    }
    fn merge(&mut self, other: &Self) -> Result<(), OracleError> {
        Sue::merge(self, other)
    }
    fn subtract(&mut self, other: &Self) -> Result<(), OracleError> {
        Sue::subtract(self, other)
    }
}

/// Report bit densities: all-clear, all-set, and OUE's `q = 1/4` at
/// e^ε = 3 (two random words ANDed).
#[derive(Debug, Clone, Copy)]
enum Density {
    Zero,
    Ones,
    Q,
}

fn report(domain: usize, density: Density, rng: &mut StdRng) -> OueReport {
    let mut words: Vec<u64> = (0..domain.div_ceil(64))
        .map(|_| match density {
            Density::Zero => 0,
            Density::Ones => !0,
            Density::Q => rng.random::<u64>() & rng.random::<u64>(),
        })
        .collect();
    if !domain.is_multiple_of(64) {
        *words.last_mut().unwrap() &= (1u64 << (domain % 64)) - 1;
    }
    OueReport::from_words(domain, words)
}

/// The scalar per-bit oracle: adds one report, one item at a time.
fn add_per_bit(model: &mut [u64], report: &OueReport) {
    for (j, count) in model.iter_mut().enumerate() {
        *count += u64::from(report.bit(j));
    }
}

/// An oracle and the model of its counts.
struct Tracked<O> {
    oracle: O,
    model: Vec<u64>,
    reports: u64,
}

impl<O: Unary> Tracked<O> {
    fn new(domain: usize) -> Self {
        Self {
            oracle: O::build(domain),
            model: vec![0; domain],
            reports: 0,
        }
    }

    fn absorb_deferred(&mut self, report: &OueReport) {
        self.oracle.absorb_deferred(report).unwrap();
        add_per_bit(&mut self.model, report);
        self.reports += 1;
        assert_eq!(self.oracle.num_reports(), self.reports);
    }

    fn settle_and_check(&mut self, what: &str) {
        self.oracle.settle();
        assert_eq!(self.oracle.counts(), &self.model[..], "{what}");
        assert_eq!(self.oracle.num_reports(), self.reports, "{what}");
    }
}

/// One run of `len` deferred absorbs at `density` into a `domain`-item
/// oracle, with the interleavings `schedule` picks: at its chosen points
/// the run settles, forks a clone (both halves keep absorbing the same
/// reports), merges in a side oracle, or subtracts a previously merged
/// one back out.
fn check_run<O: Unary>(domain: usize, len: usize, density: Density, schedule: u64) {
    let what = format!("D={domain} len={len} {density:?} schedule={schedule:#x}");
    let mut rng = StdRng::seed_from_u64(schedule);
    let mut main = Tracked::<O>::new(domain);
    let mut fork: Option<Tracked<O>> = None;
    let mut merged: Vec<Tracked<O>> = Vec::new();
    for i in 0..len {
        let r = report(domain, density, &mut rng);
        main.absorb_deferred(&r);
        if let Some(fork) = &mut fork {
            fork.absorb_deferred(&r);
        }
        match rng.random_range(0..64u32) {
            0 => main.settle_and_check(&format!("{what}: settle at {i}")),
            1 if fork.is_none() => {
                fork = Some(Tracked {
                    oracle: main.oracle.clone(),
                    model: main.model.clone(),
                    reports: main.reports,
                });
            }
            2 => {
                let mut side = Tracked::<O>::new(domain);
                for _ in 0..rng.random_range(1..40usize) {
                    side.absorb_deferred(&report(domain, density, &mut rng));
                }
                side.settle_and_check(&format!("{what}: side at {i}"));
                main.oracle.settle();
                main.oracle.merge(&side.oracle).unwrap();
                for (m, s) in main.model.iter_mut().zip(&side.model) {
                    *m += s;
                }
                main.reports += side.reports;
                merged.push(side);
            }
            3 if !merged.is_empty() => {
                let side = merged.swap_remove(rng.random_range(0..merged.len()));
                main.oracle.settle();
                main.oracle.subtract(&side.oracle).unwrap();
                for (m, s) in main.model.iter_mut().zip(&side.model) {
                    *m -= s;
                }
                main.reports -= side.reports;
            }
            _ => {}
        }
    }
    main.settle_and_check(&format!("{what}: end"));
    if let Some(mut fork) = fork {
        fork.settle_and_check(&format!("{what}: fork"));
    }
}

proptest! {
    #[test]
    fn oue_planes_match_per_bit_oracle(
        d in 0usize..DOMAINS.len(),
        n in 0usize..RUNS.len(),
        density in 0usize..3,
        schedule in 0u64..u64::MAX,
    ) {
        let density = [Density::Zero, Density::Ones, Density::Q][density];
        check_run::<Oue>(DOMAINS[d], RUNS[n], density, schedule);
    }

    #[test]
    fn sue_planes_match_per_bit_oracle(
        d in 0usize..DOMAINS.len(),
        n in 0usize..RUNS.len(),
        density in 0usize..3,
        schedule in 0u64..u64::MAX,
    ) {
        let density = [Density::Zero, Density::Ones, Density::Q][density];
        check_run::<Sue>(DOMAINS[d], RUNS[n], density, schedule);
    }
}

/// Every domain × run length with all bits set — the densest carries,
/// where every item's pending count climbs to the auto-settle threshold
/// — and no interleaving: the counts must read exactly the run length.
#[test]
fn all_set_runs_count_exactly_across_the_auto_settle() {
    for domain in DOMAINS {
        let r = report(domain, Density::Ones, &mut StdRng::seed_from_u64(0));
        for len in RUNS {
            let mut oue = Oue::build(domain);
            let mut sue = Sue::build(domain);
            for _ in 0..len {
                oue.absorb_deferred(&r).unwrap();
                sue.absorb_deferred(&r).unwrap();
            }
            oue.settle();
            sue.settle();
            let expected = vec![len as u64; domain];
            assert_eq!(oue.counts(), &expected[..], "OUE D={domain} len={len}");
            assert_eq!(sue.counts(), &expected[..], "SUE D={domain} len={len}");
        }
    }
}

/// The per-report `absorb` is `absorb_deferred` + `settle`: a run of
/// single absorbs and one deferred batch land on the same counts.
#[test]
fn per_report_absorb_equals_one_settled_batch() {
    let mut rng = StdRng::seed_from_u64(1);
    for domain in [65, 4_096] {
        let mut one_by_one = Oue::build(domain);
        let mut batched = Oue::build(domain);
        for _ in 0..600 {
            let r = report(domain, Density::Q, &mut rng);
            one_by_one.absorb(&r).unwrap();
            batched.absorb_deferred(&r).unwrap();
        }
        batched.settle();
        assert_eq!(one_by_one.counts(), batched.counts(), "D={domain}");
        let bits = |o: &Oue| o.estimate().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(&one_by_one), bits(&batched), "D={domain}");
    }
}

/// Pending counts a drain meets: nothing, one staged row, a partial
/// group, one group exactly and one past it, and the counts around the
/// 255-report auto-settle.
const DRAIN_PENDING: [usize; 10] = [0, 1, 2, 15, 16, 17, 254, 255, 256, 511];

/// What a shard holds before its pending reports arrive.
#[derive(Debug, Clone, Copy)]
enum ShardState {
    /// Freshly built: counts known to be zero.
    Fresh,
    /// 255 reports absorbed deferred, which settle by themselves.
    AutoSettled,
    /// A settled side oracle merged in through the tally.
    Merged,
}

/// A shard in `state` with `pending` more reports absorbed deferred, and
/// the model of everything it holds.
fn shard<O: Unary>(
    domain: usize,
    state: ShardState,
    pending: usize,
    rng: &mut StdRng,
) -> Tracked<O> {
    let mut shard = Tracked::<O>::new(domain);
    match state {
        ShardState::Fresh => {}
        ShardState::AutoSettled => {
            for _ in 0..255 {
                shard.absorb_deferred(&report(domain, Density::Q, rng));
            }
        }
        ShardState::Merged => {
            let mut side = Tracked::<O>::new(domain);
            for _ in 0..40 {
                side.absorb_deferred(&report(domain, Density::Q, rng));
            }
            side.settle_and_check("side");
            shard.oracle.merge(&side.oracle).unwrap();
            shard.model = side.model;
            shard.reports = side.reports;
        }
    }
    for _ in 0..pending {
        shard.absorb_deferred(&report(domain, Density::Q, rng));
    }
    shard
}

/// A shard drained into an accumulator that already holds counts — at
/// every pending count of [`DRAIN_PENDING`], from every [`ShardState`] —
/// leaves the accumulator holding both models' sum and the shard empty. The drained shard then absorbs a run
/// that crosses a fold group, settles to exactly that run, and drains
/// again.
fn check_drains<O: Unary>() {
    let mut rng = StdRng::seed_from_u64(0xD4A1);
    for domain in [65, 4_160] {
        let mut acc = Tracked::<O>::new(domain);
        for _ in 0..3 {
            acc.absorb_deferred(&report(domain, Density::Q, &mut rng));
        }
        acc.settle_and_check("accumulator");
        for state in [
            ShardState::Fresh,
            ShardState::AutoSettled,
            ShardState::Merged,
        ] {
            for pending in DRAIN_PENDING {
                let template = shard::<O>(domain, state, pending, &mut rng);
                let what = format!("D={domain} {state:?} pending={pending}");
                let mut into = acc.oracle.clone();
                let mut from = template.oracle.clone();
                PointOracle::drain(&mut into, &mut from);
                let sum: Vec<u64> = acc
                    .model
                    .iter()
                    .zip(&template.model)
                    .map(|(a, b)| a + b)
                    .collect();
                assert_eq!(into.counts(), &sum[..], "{what}: accumulator");
                assert_eq!(into.num_reports(), acc.reports + template.reports, "{what}");
                assert_eq!(from.num_reports(), 0, "{what}: drained shard");
                assert_eq!(from.counts(), &vec![0; domain][..], "{what}: drained shard");

                let mut again = Tracked {
                    oracle: from,
                    model: vec![0; domain],
                    reports: 0,
                };
                for _ in 0..17 {
                    again.absorb_deferred(&report(domain, Density::Q, &mut rng));
                }
                let mut twice = into.clone();
                PointOracle::drain(&mut twice, &mut again.oracle);
                let sum: Vec<u64> = sum.iter().zip(&again.model).map(|(a, b)| a + b).collect();
                assert_eq!(twice.counts(), &sum[..], "{what}: second drain");
                again.model.fill(0);
                again.reports = 0;
                for _ in 0..17 {
                    again.absorb_deferred(&report(domain, Density::Ones, &mut rng));
                }
                again.settle_and_check(&format!("{what}: absorbed after the drains"));
            }
        }
    }
}

#[test]
fn oue_drain_spills_pending_reports_exactly() {
    check_drains::<Oue>();
}

#[test]
fn sue_drain_spills_pending_reports_exactly() {
    check_drains::<Sue>();
}

/// Folded groups before the rows a drain meets: none, one, two, four and
/// fourteen groups of sixteen, so the spill reads 0, 5, 6, 7 and 8 bit
/// planes (the planes a run of whole groups can reach).
const DRAIN_GROUPS: [usize; 5] = [0, 1, 2, 4, 14];

/// The spill a drain runs (the AVX2 build on a CPU that reports AVX2, the
/// portable one elsewhere) ≡ the per-bit model, over every number of
/// staged rows 0–15 after each of [`DRAIN_GROUPS`], from a fresh shard
/// (no drained counts) and from one holding merged counts, over 64, 65,
/// 513 and 2^16 items.
#[test]
fn oue_drain_spills_every_plane_depth_and_row_count_exactly() {
    let mut rng = StdRng::seed_from_u64(0x5B1D);
    for domain in [64, 65, 513, 1 << 16] {
        let mut acc = Tracked::<Oue>::new(domain);
        for _ in 0..5 {
            acc.absorb_deferred(&report(domain, Density::Q, &mut rng));
        }
        acc.settle_and_check("accumulator");
        for state in [ShardState::Fresh, ShardState::Merged] {
            for groups in DRAIN_GROUPS {
                let mut template = shard::<Oue>(domain, state, 16 * groups, &mut rng);
                for rows in 0..16 {
                    let what = format!("D={domain} {state:?} groups={groups} rows={rows}");
                    let mut into = acc.oracle.clone();
                    let mut from = template.oracle.clone();
                    PointOracle::drain(&mut into, &mut from);
                    let sum: Vec<u64> = acc
                        .model
                        .iter()
                        .zip(&template.model)
                        .map(|(a, b)| a + b)
                        .collect();
                    assert_eq!(into.counts(), &sum[..], "{what}: accumulator");
                    assert_eq!(into.num_reports(), acc.reports + template.reports, "{what}");
                    assert_eq!(from.counts(), &vec![0; domain][..], "{what}: drained shard");
                    template.absorb_deferred(&report(domain, Density::Q, &mut rng));
                }
            }
        }
    }
}
