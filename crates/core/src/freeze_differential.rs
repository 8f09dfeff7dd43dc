//! The freeze differential: every mechanism's published per-item
//! estimate (`frequency_estimate`, what a service snapshot freezes) ≡ the
//! freeze pipeline it replaced, bit for bit.
//!
//! The reference below is that pipeline, kept only here: each level
//! oracle's `estimate()` vector copied into a fresh tree (or pyramid
//! levels, or grid list), constrained inference with the fanout read at
//! run time, Haar leaves expanded node by node, and the prefix built by
//! `push`. The served float freeze writes each level estimate once, in
//! place, into its tree or pyramid; nothing may move a bit.

use ldp_freq_oracle::{AnyOracle, Epsilon, FrequencyOracle, PointOracle};
use ldp_transforms::{decompose_range, CompleteTree, FlatTree};
use rand::rngs::StdRng;
use rand::SeedableRng;

use crate::config::{FlatConfig, HaarConfig, HhConfig};
use crate::estimate::{FrequencyEstimate, RangeEstimate};
use crate::flat::FlatServer;
use crate::haar::calibration::HaarOueServer;
use crate::haar::HaarHrrServer;
use crate::hh::split::HhSplitServer;
use crate::hh::HhServer;
use crate::multidim::{Hh2dConfig, Hh2dServer};

const FANOUTS: [usize; 6] = [2, 3, 4, 5, 8, 16];
const MAX_DOMAIN: usize = 1 << 16;
const ORACLES: [FrequencyOracle; 4] = [
    FrequencyOracle::Oue,
    FrequencyOracle::Sue,
    FrequencyOracle::Olh,
    FrequencyOracle::Hrr,
];

/// The reference prefix: one `push` per item, adding left to right.
fn reference_prefix(freqs: &[f64]) -> Vec<f64> {
    let mut prefix = Vec::with_capacity(freqs.len() + 1);
    let mut acc = 0.0;
    prefix.push(0.0);
    for &f in freqs {
        acc += f;
        prefix.push(acc);
    }
    prefix
}

/// The reference constrained inference: the slice kernel with the
/// sibling-group length read from the tree at run time.
fn reference_consistency(tree: &mut FlatTree<f64>) {
    let shape = tree.shape();
    let fanout = shape.fanout();
    let b = fanout as f64;
    let h = shape.height();
    for d in (1..h).rev() {
        let subtree_levels = i32::try_from(h - d + 1).expect("height fits i32");
        let bi = b.powi(subtree_levels);
        let bim1 = b.powi(subtree_levels - 1);
        let w_self = (bi - bim1) / (bi - 1.0);
        let w_children = (bim1 - 1.0) / (bi - 1.0);
        let (parents, children) = tree.adjacent_levels_mut(d);
        for (v, group) in parents.iter_mut().zip(children.chunks_exact(fanout)) {
            let child_sum: f64 = group.iter().sum();
            *v = w_self * *v + w_children * child_sum;
        }
    }
    *tree.get_mut(0, 0) = 1.0;
    for d in 0..h {
        let (parents, children) = tree.adjacent_levels_mut(d);
        for (parent_val, group) in parents.iter().zip(children.chunks_exact_mut(fanout)) {
            let child_sum: f64 = group.iter().sum();
            let adjust = (parent_val - child_sum) / b;
            for c in group {
                *c += adjust;
            }
        }
    }
}

/// The reference HH freeze: per-level `estimate()` copied into a fresh
/// tree, root pinned at 1, reference CI, leaves copied out.
fn reference_hh(shape: CompleteTree, levels: &[AnyOracle]) -> Vec<f64> {
    let mut tree = FlatTree::new(shape);
    *tree.get_mut(0, 0) = 1.0;
    for (i, oracle) in levels.iter().enumerate() {
        tree.level_mut(i as u32 + 1)
            .copy_from_slice(&oracle.estimate());
    }
    reference_consistency(&mut tree);
    tree.leaves().to_vec()
}

/// The reference Haar collapse: per-depth difference vectors expanded
/// into leaves node by node, from the pinned total of 1.
fn reference_haar(diffs: &[Vec<f64>]) -> Vec<f64> {
    let mut sums = vec![0.0; 1 << diffs.len()];
    sums[0] = 1.0;
    for (d, level) in diffs.iter().enumerate() {
        for t in (0..1usize << d).rev() {
            let (s, d_u) = (sums[t], level[t]);
            sums[2 * t] = (s + d_u) / 2.0;
            sums[2 * t + 1] = (s - d_u) / 2.0;
        }
    }
    sums
}

/// The reference 2-D linearization: per-grid `estimate()` vectors, and
/// each cell `(x, y)` answered as the rectangle `[x, x] × [y, y]`.
fn reference_hh2d(config: &Hh2dConfig, grids: &[AnyOracle]) -> Vec<f64> {
    let shape = CompleteTree::with_height(config.fanout, config.height);
    let grids: Vec<Vec<f64>> = grids.iter().map(PointOracle::estimate).collect();
    let side = config.side;
    let pair_index = |dx: u32, dy: u32| (dx * (config.height + 1) + dy) as usize - 1;
    let mut freqs = Vec::with_capacity(side * side);
    for x in 0..side {
        for y in 0..side {
            let mut total = 0.0;
            for nx in &decompose_range(&shape, x, x) {
                for ny in &decompose_range(&shape, y, y) {
                    let cols = shape.nodes_at_depth(ny.depth);
                    total += grids[pair_index(nx.depth, ny.depth)][nx.index * cols + ny.index];
                }
            }
            freqs.push(total);
        }
    }
    freqs
}

/// `fast` holds the reference frequencies and their `push`-built prefix,
/// bit for bit.
fn assert_same(fast: &FrequencyEstimate, reference: &[f64], what: &str) {
    let prefix = reference_prefix(reference);
    assert_eq!(fast.domain(), reference.len(), "{what}: domain");
    for (z, (a, b)) in fast.frequencies().iter().zip(reference).enumerate() {
        assert_eq!(a.to_bits(), b.to_bits(), "{what}: item {z}: {a} vs {b}");
    }
    for b in 0..reference.len() {
        let want = prefix[b + 1] - prefix[0];
        let got = fast.prefix(b);
        assert_eq!(
            got.to_bits(),
            want.to_bits(),
            "{what}: prefix {b}: {got} vs {want}"
        );
    }
}

/// A skewed cohort of `users` people over `domain` items: user `i` holds
/// `i² mod D`, so the quadratic residues carry all the mass.
fn cohort(domain: usize, users: u64) -> Vec<u64> {
    let mut counts = vec![0; domain];
    for i in 0..users {
        counts[(i * i % domain as u64) as usize] += 1;
    }
    counts
}

/// Users per configuration: OLH simulates each user at O(D), so it gets
/// a handful; the aggregate simulations of the others are O(D) whatever
/// the population.
fn users(oracle: FrequencyOracle, domain: usize) -> u64 {
    match oracle {
        FrequencyOracle::Olh => 64.min(4 * domain as u64),
        _ => 16 * domain as u64,
    }
}

/// Every `B^h ≤ 2^16` with `h ≥ 1`, for each tested fanout.
fn tree_domains() -> impl Iterator<Item = (usize, usize)> {
    FANOUTS.into_iter().flat_map(|fanout| {
        std::iter::successors(Some(fanout), move |&d| Some(d * fanout))
            .take_while(|&d| d <= MAX_DOMAIN)
            .map(move |domain| (fanout, domain))
    })
}

fn eps() -> Epsilon {
    Epsilon::from_exp(3.0)
}

#[test]
fn hh_freeze_matches_reference_for_every_oracle_and_fanout() {
    let mut rng = StdRng::seed_from_u64(3101);
    for oracle in ORACLES {
        for (fanout, domain) in tree_domains() {
            let Ok(config) = HhConfig::with_oracle(domain, fanout, eps(), oracle) else {
                continue; // HRR needs power-of-two levels
            };
            let mut server = HhServer::new(config.clone()).unwrap();
            for populated in [false, true] {
                if populated {
                    let counts = cohort(domain, users(oracle, domain));
                    server.absorb_population(&counts, &mut rng).unwrap();
                }
                let what = format!("HH {oracle} B={fanout} D={domain} populated={populated}");
                let reference = reference_hh(config.shape(), server.oracles());
                assert_same(&server.frequency_estimate(), &reference, &what);
            }
        }
    }
}

#[test]
fn hh_split_freeze_matches_reference() {
    let mut rng = StdRng::seed_from_u64(3102);
    for (fanout, domain) in tree_domains() {
        let config = HhConfig::new(domain, fanout, eps()).unwrap();
        let mut server = HhSplitServer::new(config.clone()).unwrap();
        for populated in [false, true] {
            if populated {
                let counts = cohort(domain, users(FrequencyOracle::Oue, domain));
                server.absorb_population(&counts, &mut rng).unwrap();
            }
            let what = format!("HhSplit B={fanout} D={domain} populated={populated}");
            let reference = reference_hh(config.shape(), server.oracles());
            assert_same(&server.frequency_estimate(), &reference, &what);
        }
    }
}

#[test]
fn haar_freezes_match_reference() {
    let mut rng = StdRng::seed_from_u64(3103);
    for height in 1..=16u32 {
        let domain = 1usize << height;
        let config = HaarConfig::new(domain, eps()).unwrap();
        let mut hrr = HaarHrrServer::new(config.clone()).unwrap();
        let mut oue = HaarOueServer::new(config).unwrap();
        for populated in [false, true] {
            if populated {
                let counts = cohort(domain, 16 * domain as u64);
                hrr.absorb_population(&counts, &mut rng).unwrap();
                oue.absorb_population(&counts, &mut rng).unwrap();
            }
            let diffs: Vec<Vec<f64>> = hrr.oracles().iter().map(PointOracle::estimate).collect();
            let what = format!("HaarHRR D={domain} populated={populated}");
            assert_same(&hrr.frequency_estimate(), &reference_haar(&diffs), &what);

            let diffs: Vec<Vec<f64>> = oue
                .oracles()
                .iter()
                .map(|oracle| {
                    let cells = oracle.estimate();
                    cells
                        .chunks_exact(2)
                        .map(|pair| pair[0] - pair[1])
                        .collect()
                })
                .collect();
            let what = format!("HaarOUE D={domain} populated={populated}");
            assert_same(&oue.frequency_estimate(), &reference_haar(&diffs), &what);
        }
    }
}

#[test]
fn flat_freeze_matches_reference() {
    let mut rng = StdRng::seed_from_u64(3104);
    for oracle in ORACLES {
        for domain in [1usize, 2, 3, 64, 1_000, 4_096, MAX_DOMAIN] {
            let Ok(config) = FlatConfig::with_oracle(domain, eps(), oracle) else {
                continue; // HRR needs a power-of-two domain
            };
            let mut server = FlatServer::new(&config).unwrap();
            for populated in [false, true] {
                if populated {
                    let counts = cohort(domain, users(oracle, domain));
                    server.absorb_population(&counts, &mut rng).unwrap();
                }
                let what = format!("Flat {oracle} D={domain} populated={populated}");
                assert_same(
                    &server.frequency_estimate(),
                    &server.oracle().estimate(),
                    &what,
                );
            }
        }
    }
}

#[test]
fn hh2d_linearization_matches_reference() {
    let mut rng = StdRng::seed_from_u64(3105);
    for fanout in FANOUTS {
        for side in std::iter::successors(Some(fanout), |&s| Some(s * fanout))
            .take_while(|&s| s * s <= MAX_DOMAIN)
        {
            let config = Hh2dConfig::new(side, fanout, eps()).unwrap();
            let mut server = Hh2dServer::new(config.clone()).unwrap();
            for populated in [false, true] {
                if populated {
                    let counts = cohort(side * side, 16 * (side * side) as u64);
                    server.absorb_population(&counts, &mut rng).unwrap();
                }
                let what = format!("Hh2d B={fanout} side={side} populated={populated}");
                let reference = reference_hh2d(&config, server.oracles());
                assert_same(&server.frequency_estimate(), &reference, &what);
            }
        }
    }
}
