//! Which oracles the service serves: flat, `HH_B` and HaarHRR over OUE,
//! HRR and — up to [`MAX_OLH_DOMAIN`] items — OLH. A prototype with SUE
//! levels, or with an OLH level over the cap, is refused with a typed
//! error by every constructor: `LdpService::new`, `LdpService::windowed`,
//! `LdpService::with_recovered` and `DurableService::open` /
//! `open_windowed` (which a follower opens through), the durable ones
//! before they read or write their directory.

use std::collections::BTreeMap;
use std::path::Path;

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{FlatClient, FlatConfig, FlatServer, HhConfig, HhServer};
use ldp_service::storage::{scratch_dir, DurableConfig, DurableService};
use ldp_service::{
    EncodedStream, LdpService, ServiceError, SnapshotSource, WireReport, MAX_OLH_DOMAIN,
};
use rand::rngs::StdRng;
use rand::SeedableRng;

fn eps() -> Epsilon {
    Epsilon::from_exp(3.0)
}

fn flat(oracle: FrequencyOracle, domain: usize) -> FlatServer {
    FlatServer::new(&FlatConfig::with_oracle(domain, eps(), oracle).unwrap()).unwrap()
}

fn hh(oracle: FrequencyOracle, domain: usize, fanout: usize) -> HhServer {
    HhServer::new(HhConfig::with_oracle(domain, fanout, eps(), oracle).unwrap()).unwrap()
}

/// Every file under `dir` with its bytes; `None` if `dir` does not exist.
fn tree(dir: &Path) -> Option<BTreeMap<String, Vec<u8>>> {
    let entries = std::fs::read_dir(dir).ok()?;
    let mut files = BTreeMap::new();
    for entry in entries {
        let path = entry.unwrap().path();
        files.insert(
            path.file_name().unwrap().to_string_lossy().into_owned(),
            std::fs::read(&path).unwrap(),
        );
    }
    Some(files)
}

/// Every constructor refuses `prototype` with the error `refused` picks
/// out, and neither durable open touches an existing directory or
/// creates a missing one.
fn assert_refused<S>(prototype: &S, refused: fn(&ServiceError) -> bool, what: &str)
where
    S: SnapshotSource + 'static,
    S::Report: WireReport,
{
    let check = |result: Result<(), ServiceError>, via: &str| match result {
        Err(e) if refused(&e) => {}
        other => panic!("{what} via {via}: {other:?}"),
    };
    check(LdpService::new(prototype, 2).map(drop), "new");
    check(LdpService::windowed(prototype, 2, 3).map(drop), "windowed");
    check(
        LdpService::with_recovered(prototype.clone(), prototype, 2).map(drop),
        "with_recovered",
    );

    // A directory a served (OUE) prototype of the same shape wrote: the
    // refused open reads nothing, takes no lock and writes nothing.
    let dir = scratch_dir("served-oracles").unwrap();
    let served = flat(FrequencyOracle::Oue, 8);
    {
        let (durable, _) = DurableService::open(&dir, &served, DurableConfig::default()).unwrap();
        let client = FlatClient::new(&FlatConfig::new(8, eps()).unwrap()).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let mut stream = EncodedStream::new();
        for v in 0..8 {
            stream.push(&client.report(v, &mut rng).unwrap());
        }
        durable.ingest_batch(1, 8, stream.as_bytes()).unwrap();
        durable.checkpoint().unwrap();
    }
    let before = tree(&dir).expect("the served open wrote the directory");
    let config = DurableConfig::default;
    check(
        DurableService::open(&dir, prototype, config()).map(drop),
        "DurableService::open",
    );
    check(
        DurableService::open_windowed(&dir, prototype, 3, config()).map(drop),
        "DurableService::open_windowed",
    );
    assert_eq!(tree(&dir), Some(before), "{what}: directory changed");

    let missing = dir.join("never-created");
    check(
        DurableService::open(&missing, prototype, config()).map(drop),
        "DurableService::open (missing dir)",
    );
    assert_eq!(tree(&missing), None, "{what}: directory created");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn sue_backed_servers_are_refused_by_every_constructor() {
    let sue = |e: &ServiceError| matches!(e, ServiceError::SueNotServed);
    assert_refused(&flat(FrequencyOracle::Sue, 8), sue, "flat SUE");
    assert_refused(&hh(FrequencyOracle::Sue, 16, 4), sue, "HH_4 over SUE");
    // The same shapes over OUE are served.
    LdpService::new(&flat(FrequencyOracle::Oue, 8), 2).unwrap();
    LdpService::windowed(&hh(FrequencyOracle::Oue, 16, 4), 2, 3).unwrap();
}

#[test]
fn olh_is_served_up_to_the_cap_and_refused_just_over_it() {
    let over = MAX_OLH_DOMAIN + 1;
    let over_cap =
        |e: &ServiceError| matches!(e, ServiceError::OlhDomainOverCap(d) if *d > MAX_OLH_DOMAIN);
    assert_refused(&flat(FrequencyOracle::Olh, over), over_cap, "flat OLH");
    // `HH_2` over 2·cap: its leaf level holds 2·cap items.
    assert_refused(
        &hh(FrequencyOracle::Olh, 2 * MAX_OLH_DOMAIN, 2),
        over_cap,
        "HH_2 over OLH",
    );
    assert!(matches!(
        LdpService::new(&flat(FrequencyOracle::Olh, over), 1).err(),
        Some(ServiceError::OlhDomainOverCap(d)) if d == over
    ));

    // At the cap: served, and a report absorbs.
    let config = FlatConfig::with_oracle(MAX_OLH_DOMAIN, eps(), FrequencyOracle::Olh).unwrap();
    let client = FlatClient::new(&config).unwrap();
    let service = LdpService::new(&FlatServer::new(&config).unwrap(), 2).unwrap();
    let report = client
        .report(MAX_OLH_DOMAIN - 1, &mut StdRng::seed_from_u64(3))
        .unwrap();
    service.submit(&report).unwrap();
    assert_eq!(service.num_reports(), 1);
    LdpService::windowed(&hh(FrequencyOracle::Olh, MAX_OLH_DOMAIN, 4), 2, 3).unwrap();
    LdpService::new(&hh(FrequencyOracle::Olh, MAX_OLH_DOMAIN, 2), 2).unwrap();
    // HRR has no cap: a domain OLH is refused at is served over HRR.
    LdpService::new(&flat(FrequencyOracle::Hrr, 2 * MAX_OLH_DOMAIN), 2).unwrap();
}
