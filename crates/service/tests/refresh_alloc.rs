//! A warm dirty refresh allocates nothing of size `O(D)`.
//!
//! This binary installs a counting global allocator: [`large_allocations`]
//! runs a closure and counts the blocks of at least a given size that the
//! calling thread allocated (or grew a block to) inside it. Other test
//! threads in the binary are never counted. [`huge_allocations`] counts
//! every thread's blocks instead, so every test here runs under one lock
//! ([`serial`]): a test that builds a D = 2^16 service allocates blocks
//! that size in its first publish, and run beside another test it would
//! be counted against it.
//!
//! The tests build plain `HH_4`/OUE and HaarHRR services at D = 2^12, run
//! two warm-up refreshes (the second reclaims the retired initial
//! snapshot's tables), then require each later dirty `refresh_snapshot`
//! — drain, table build, publish — to allocate no block of `D · 8` bytes
//! or more: every prefix table it writes must be one the service already
//! owns. A windowed HaarHRR service must allocate no block of 1 KB or
//! more: the window's live sum goes into a server the ring keeps. At
//! D = 2^16 no thread may allocate a block of `D · 8` bytes during a warm
//! refresh, and the caller none of 1 KB.
//!
//! Ingest is held to the same rule: a warm `submit_wire_batch` of 256
//! `HH_4`/OUE frames at D = 2^16 allocates no block of 16 KiB or more,
//! nor does such a batch followed by the refresh whose drain spills its
//! still-pending reports.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, MutexGuard, PoisonError};

use ldp_freq_oracle::{Epsilon, FrequencyOracle};
use ldp_ranges::{HaarConfig, HaarHrrClient, HaarHrrServer, HhClient, HhConfig, HhServer};
use ldp_service::net::WIRE_V1;
use ldp_service::{LdpService, SnapshotSource, WireReport};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Counts, per thread, the allocations of at least `min` bytes made
/// while armed, and the largest.
struct CountingAlloc;

thread_local! {
    /// The size from which an allocation is counted; `None` = disarmed.
    static MIN_BYTES: Cell<Option<usize>> = const { Cell::new(None) };
    static COUNT: Cell<usize> = const { Cell::new(0) };
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

/// The size from which [`huge_allocations`] counts a block on any
/// thread; 0 = disarmed.
static HUGE_MIN: AtomicUsize = AtomicUsize::new(0);
static HUGE_COUNT: AtomicUsize = AtomicUsize::new(0);

fn note(size: usize) {
    let huge = HUGE_MIN.load(Ordering::Relaxed);
    if huge > 0 && size >= huge {
        HUGE_COUNT.fetch_add(1, Ordering::Relaxed);
    }
    // `try_with`: the allocator also serves threads whose locals are
    // being torn down. These cells own nothing, so reading them never
    // allocates.
    let _ = MIN_BYTES.try_with(|min| {
        if min.get().is_some_and(|min| size >= min) {
            COUNT.set(COUNT.get() + 1);
            LARGEST.set(LARGEST.get().max(size));
        }
    });
}

// SAFETY: every method forwards to `System` with the caller's arguments
// unchanged; `note` only reads and writes plain thread-local cells.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

/// Runs `f` and returns `(count, largest)`: how many blocks of at least
/// `min_bytes` this thread allocated or grew to inside it, and the
/// largest such size (0 if none).
fn large_allocations(min_bytes: usize, f: impl FnOnce()) -> (usize, usize) {
    COUNT.set(0);
    LARGEST.set(0);
    MIN_BYTES.set(Some(min_bytes));
    f();
    MIN_BYTES.set(None);
    (COUNT.get(), LARGEST.get())
}

/// Runs `f` and returns how many blocks of at least `min_bytes` any
/// thread allocated or grew to inside it.
fn huge_allocations(min_bytes: usize, f: impl FnOnce()) -> usize {
    HUGE_COUNT.store(0, Ordering::Relaxed);
    HUGE_MIN.store(min_bytes, Ordering::Relaxed);
    f();
    HUGE_MIN.store(0, Ordering::Relaxed);
    HUGE_COUNT.load(Ordering::Relaxed)
}

/// Held by every test in this binary for its whole run, so no test's
/// allocations land inside another's [`huge_allocations`].
static SERIAL: Mutex<()> = Mutex::new(());

/// Takes [`SERIAL`]; a test that failed while holding it does not fail
/// the others.
fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(PoisonError::into_inner)
}

const D: usize = 1 << 12;
const BATCH: usize = 200;

/// Feeds `reports` a batch at a time; after two warm-up refreshes,
/// counts each later dirty refresh's allocations of `D · 8` bytes or
/// more. The returned snapshot is dropped inside the measured closure,
/// so it is free to be recycled by the next refresh.
fn assert_warm_refreshes_allocate_no_o_d_block<S: SnapshotSource>(
    prototype: &S,
    reports: &[S::Report],
    what: &str,
) {
    let service = LdpService::new(prototype, 2).expect("service");
    for (round, batch) in reports.chunks(BATCH).enumerate() {
        for report in batch {
            service.submit(report).expect("submit");
        }
        let mut version = 0;
        let (count, largest) = large_allocations(D * 8, || {
            version = service.refresh_snapshot().expect("refresh").version();
        });
        assert_eq!(version, round as u64 + 1, "{what}: the refresh was dirty");
        if round >= 2 {
            assert_eq!(
                count,
                0,
                "{what}: warm dirty refresh {round} allocated {count} block(s) of ≥ {} bytes \
                 (largest {largest})",
                D * 8
            );
        }
    }
}

#[test]
fn warm_hh4_oue_refresh_allocates_no_o_d_block() {
    let _serial = serial();
    let config =
        HhConfig::with_oracle(D, 4, Epsilon::from_exp(3.0), FrequencyOracle::Oue).expect("config");
    let client = HhClient::new(config.clone()).expect("client");
    let mut rng = StdRng::seed_from_u64(4311);
    let reports: Vec<_> = (0..5 * BATCH)
        .map(|i| client.report((i * 37) % D, &mut rng).expect("report"))
        .collect();
    let prototype = HhServer::new(config).expect("server");
    assert_warm_refreshes_allocate_no_o_d_block(&prototype, &reports, "HH_4/OUE");
}

#[test]
fn warm_haar_hrr_refresh_allocates_no_o_d_block() {
    let _serial = serial();
    let config = HaarConfig::new(D, Epsilon::from_exp(3.0)).expect("config");
    let client = HaarHrrClient::new(config.clone()).expect("client");
    let mut rng = StdRng::seed_from_u64(4312);
    let reports: Vec<_> = (0..5 * BATCH)
        .map(|i| client.report((i * 37) % D, &mut rng).expect("report"))
        .collect();
    let prototype = HaarHrrServer::new(config).expect("server");
    assert_warm_refreshes_allocate_no_o_d_block(&prototype, &reports, "HaarHRR");
}

#[test]
fn warm_windowed_haar_hrr_refresh_allocates_no_kilobyte_block() {
    let _serial = serial();
    let config = HaarConfig::new(D, Epsilon::from_exp(3.0)).expect("config");
    let client = HaarHrrClient::new(config.clone()).expect("client");
    let mut rng = StdRng::seed_from_u64(4313);
    let prototype = HaarHrrServer::new(config).expect("server");
    let service = LdpService::windowed(&prototype, 2, 4).expect("service");
    for round in 0..8 {
        for i in 0..BATCH {
            let report = client
                .report((i * 37 + round) % D, &mut rng)
                .expect("report");
            service.submit(&report).expect("submit");
        }
        let (count, largest) = large_allocations(1024, || {
            drop(service.refresh_snapshot().expect("refresh"));
        });
        if round >= 2 {
            assert_eq!(
                count, 0,
                "windowed HaarHRR: warm dirty refresh {round} allocated {count} block(s) of \
                 ≥ 1 KB (largest {largest})"
            );
        }
        // Sealed epochs fill the running sum the live window adds to.
        if round % 2 == 1 {
            service.seal_epoch().expect("seal");
        }
    }
}

/// At D = 2^16, the served domain of `HH_4`/OUE and HaarHRR, a warm
/// refresh allocates no `O(D)` block on any thread, and none of 1 KB on
/// the caller.
#[test]
fn warm_d64k_refreshes_allocate_no_o_d_block_on_any_thread() {
    let _serial = serial();
    const BIG: usize = 1 << 16;
    let eps = Epsilon::from_exp(3.0);
    let mut rng = StdRng::seed_from_u64(4314);
    let hh = HhConfig::with_oracle(BIG, 4, eps, FrequencyOracle::Oue).expect("config");
    let hh_client = HhClient::new(hh.clone()).expect("client");
    let hh_service = LdpService::new(&HhServer::new(hh).expect("server"), 2).expect("service");
    let haar = HaarConfig::new(BIG, eps).expect("config");
    let haar_client = HaarHrrClient::new(haar.clone()).expect("client");
    let haar_service =
        LdpService::new(&HaarHrrServer::new(haar).expect("server"), 2).expect("service");
    for round in 0..5 {
        for i in 0..8 {
            let value = (i * 7919 + round) % BIG;
            hh_service
                .submit(&hh_client.report(value, &mut rng).expect("report"))
                .expect("submit");
            haar_service
                .submit(&haar_client.report(value, &mut rng).expect("report"))
                .expect("submit");
        }
        let mut huge = 0;
        let (on_caller, largest) = large_allocations(1024, || {
            huge = huge_allocations(BIG * 8, || {
                drop(hh_service.refresh_snapshot().expect("refresh"));
                drop(haar_service.refresh_snapshot().expect("refresh"));
            });
        });
        if round >= 2 {
            assert_eq!(
                huge, 0,
                "warm refresh {round} allocated {huge} O(D) block(s)"
            );
            assert_eq!(
                on_caller, 0,
                "warm refresh {round} allocated {on_caller} block(s) of ≥ 1 KB on the caller \
                 (largest {largest})"
            );
        }
    }
}

/// A warm batch of `HH_4`/OUE frames at D = 2^16 — decoded into one word
/// buffer of at most 1 024 words (8 KiB), staged as rows and folded into
/// bit planes per level — allocates no block of 16 KiB or more: the rows
/// and planes keep their capacity from one batch to the next. The warm-up
/// batch is the same frames, so every level sees the same run lengths.
#[test]
fn warm_hh4_oue_ingest_allocates_no_16_kib_block() {
    let _serial = serial();
    const BIG: usize = 1 << 16;
    const FRAMES: u64 = 256;
    let config = HhConfig::with_oracle(BIG, 4, Epsilon::from_exp(3.0), FrequencyOracle::Oue)
        .expect("config");
    let client = HhClient::new(config.clone()).expect("client");
    let mut rng = StdRng::seed_from_u64(4315);
    let mut frames = Vec::new();
    for i in 0..FRAMES as usize {
        let report = client.report((i * 7919) % BIG, &mut rng).expect("report");
        report.encode_frame(&mut frames);
    }
    let service = LdpService::new(&HhServer::new(config).expect("server"), 1).expect("service");
    let submit = || {
        service
            .submit_wire_batch(WIRE_V1, FRAMES, &frames)
            .expect("batch")
    };
    assert_eq!(submit(), FRAMES, "warm-up batch");
    let mut absorbed = 0;
    let (count, largest) = large_allocations(16 * 1024, || absorbed = submit());
    assert_eq!(absorbed, FRAMES);
    assert_eq!(
        count, 0,
        "warm HH_4/OUE batch allocated {count} block(s) of ≥ 16 KiB (largest {largest})"
    );
}

/// A warm deferred batch of `HH_4`/OUE frames at D = 2^16, then a
/// refresh whose fused drain spills the batch's pending reports straight
/// into the accumulator before the tables are rebuilt: no block of
/// 16 KiB or more. Two warm-up rounds put a batch on each of the two
/// shards.
#[test]
fn warm_deferred_batch_and_drain_allocate_no_16_kib_block() {
    let _serial = serial();
    const DOMAIN: usize = 1 << 16;
    const FRAMES: u64 = 256;
    let config = HhConfig::with_oracle(DOMAIN, 4, Epsilon::from_exp(3.0), FrequencyOracle::Oue)
        .expect("config");
    let client = HhClient::new(config.clone()).expect("client");
    let mut rng = StdRng::seed_from_u64(4316);
    let mut frames = Vec::new();
    for i in 0..FRAMES as usize {
        let report = client
            .report((i * 7919) % DOMAIN, &mut rng)
            .expect("report");
        report.encode_frame(&mut frames);
    }
    let service = LdpService::new(&HhServer::new(config).expect("server"), 2).expect("service");
    for round in 0..6 {
        let mut version = 0;
        let (count, largest) = large_allocations(16 * 1024, || {
            let absorbed = service
                .submit_wire_batch(WIRE_V1, FRAMES, &frames)
                .expect("batch");
            assert_eq!(absorbed, FRAMES);
            version = service.refresh_snapshot().expect("refresh").version();
        });
        assert_eq!(version, round + 1, "the refresh was dirty");
        if round >= 2 {
            assert_eq!(
                count, 0,
                "round {round}: a warm batch and drain allocated {count} block(s) of ≥ 16 KiB \
                 (largest {largest})"
            );
        }
    }
}

#[test]
fn counter_sees_only_large_blocks_on_its_own_thread() {
    let _serial = serial();
    let (count, largest) = large_allocations(D * 8, || {
        std::hint::black_box(vec![0u8; 16]);
        std::hint::black_box(vec![0.0f64; D]);
        std::thread::spawn(|| std::hint::black_box(vec![0.0f64; 2 * D]))
            .join()
            .expect("thread");
    });
    assert_eq!((count, largest), (1, D * 8));
}
