//! Integration: sharded (distributed) aggregation — disjoint cohorts
//! absorbed apart and merged estimate like one server.

use ldp_range_queries::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn cauchy(domain: usize, n: u64, seed: u64) -> Dataset {
    let mut rng = StdRng::seed_from_u64(seed);
    Dataset::sample(
        DistributionKind::Cauchy(CauchyParams::paper_default()),
        domain,
        n,
        &mut rng,
    )
}

/// Splits a histogram into `k` disjoint shards (round-robin by count).
fn shard(counts: &[u64], k: u64) -> Vec<Vec<u64>> {
    (0..k)
        .map(|s| {
            counts
                .iter()
                .map(|&c| c / k + u64::from(c % k > s))
                .collect()
        })
        .collect()
}

#[test]
fn sharded_hh_aggregation_equals_single_server_distribution() {
    let domain = 256;
    let ds = cauchy(domain, 1 << 18, 41);
    let eps = Epsilon::from_exp(3.0);
    let config = HhConfig::new(domain, 4, eps).unwrap();
    let mut rng = StdRng::seed_from_u64(42);

    // Four shards absorb disjoint cohorts, then merge.
    let shards = shard(ds.counts(), 4);
    let mut merged = HhServer::new(config.clone()).unwrap();
    for shard_counts in &shards {
        let mut s = HhServer::new(config.clone()).unwrap();
        s.absorb_population(shard_counts, &mut rng).unwrap();
        merged.merge(&s).unwrap();
    }
    assert_eq!(merged.num_reports(), ds.population());

    let est = merged.estimate_consistent();
    let truth = ds.true_range(64, 191);
    assert!(
        (est.range(64, 191) - truth).abs() < 0.05,
        "merged estimate {} vs truth {truth}",
        est.range(64, 191)
    );
}

#[test]
fn sharded_haar_and_flat_aggregation() {
    let domain = 128;
    let ds = cauchy(domain, 1 << 17, 43);
    let eps = Epsilon::new(1.1);
    let mut rng = StdRng::seed_from_u64(44);
    let shards = shard(ds.counts(), 3);

    let hc = HaarConfig::new(domain, eps).unwrap();
    let mut haar = HaarHrrServer::new(hc.clone()).unwrap();
    let fc = FlatConfig::new(domain, eps).unwrap();
    let mut flat = FlatServer::new(&fc).unwrap();
    for shard_counts in &shards {
        let mut hs = HaarHrrServer::new(hc.clone()).unwrap();
        hs.absorb_population(shard_counts, &mut rng).unwrap();
        haar.merge(&hs).unwrap();
        let mut fs = FlatServer::new(&fc).unwrap();
        fs.absorb_population(shard_counts, &mut rng).unwrap();
        flat.merge(&fs).unwrap();
    }
    assert_eq!(haar.num_reports(), ds.population());
    assert_eq!(flat.num_reports(), ds.population());
    let truth = ds.true_range(32, 95);
    assert!((haar.estimate().range(32, 95) - truth).abs() < 0.05);
    assert!((flat.estimate().range(32, 95) - truth).abs() < 0.15);
}

#[test]
fn merge_rejects_mismatched_shapes() {
    let eps = Epsilon::new(1.0);
    let mut a = HhServer::new(HhConfig::new(256, 4, eps).unwrap()).unwrap();
    let b = HhServer::new(HhConfig::new(256, 2, eps).unwrap()).unwrap();
    assert!(a.merge(&b).is_err());
    let mut ha = HaarHrrServer::new(HaarConfig::new(64, eps).unwrap()).unwrap();
    let hb = HaarHrrServer::new(HaarConfig::new(128, eps).unwrap()).unwrap();
    assert!(ha.merge(&hb).is_err());
}
