//! The per-layer ladders of a traced run. Each rung is a span around
//! calls of one public function, on the workload's own frames and batch
//! size, one thread; a rung's self time is its cost minus the rung
//! below it. The ladders run on auxiliary instances built from the
//! workload's mechanism, never on the end-to-end server, so every
//! workload measures every layer — the in-memory workloads learn what a
//! WAL would cost them, the unwindowed ones what a seal would.

use std::path::Path;
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Metrics;
use crate::run::{wait_until, EndToEnd, Inputs, Job, Ops, Res};
use crate::stats::median;
use crate::sut::{
    absorb_all, answer, fwht, haar_inverse, same_snapshot, Durable, Follower, InProc, Mech, Oracle,
    QueryOp, QueryResult, Stream, Sut, Tree, ORACLES,
};
use crate::trace::Recorder;
use crate::workloads::{Backend, CONNECTIONS, QUERY_WINDOW, SHARDS};

/// Repetitions of a rung; the median is reported.
const REPS: usize = 5;
/// Repetitions of the single-call query rungs.
const CALL_REPS: usize = 15;
/// Epochs the window rungs seal, and batches ingested into each.
const SEAL_EPOCHS: usize = 8;
const SEAL_BATCHES: usize = 4;
/// Domain and reports of the workload-independent oracle table.
const ORACLE_DOMAIN: usize = 1 << 10;
const ORACLE_REPORTS: usize = 2048;

/// Times rungs and records each repetition as a span under one root.
struct Rungs<'a> {
    rec: &'a mut Recorder,
    root: u64,
}

impl Rungs<'_> {
    /// Median over `reps` runs of `f` of its duration per item, ns.
    fn time(
        &mut self,
        layer: &'static str,
        name: &'static str,
        items: usize,
        reps: usize,
        mut f: impl FnMut() -> Res<()>,
    ) -> Res<f64> {
        let mut per_item = Vec::with_capacity(reps);
        for _ in 0..reps {
            let t0 = Instant::now();
            f()?;
            let t1 = Instant::now();
            self.rec
                .record(self.root, layer, name, t0, t1, items as u64);
            per_item.push((t1 - t0).as_nanos() as f64 / items.max(1) as f64);
        }
        Ok(median(&mut per_item))
    }
}

/// Sends every batch of `stream` through `send`, failing on a short ack.
fn each_batch(stream: &Stream, mut send: impl FnMut(u64, &[u8]) -> Res<u64>) -> Res<()> {
    for b in 0..stream.num_batches() {
        let (count, frames) = stream.batch(b);
        let acked = send(count, frames)?;
        if acked != count {
            return Err(format!("batch {b} acked {acked} of {count}"));
        }
    }
    Ok(())
}

/// Bytes of the files in `dir` whose name ends in `suffix`.
fn dir_bytes(dir: &Path, suffix: &str) -> u64 {
    std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .filter(|e| e.file_name().to_string_lossy().ends_with(suffix))
        .filter_map(|e| e.metadata().ok())
        .map(|m| m.len())
        .sum()
}

/// A byte copy of a WAL directory without its `LOCK`: what a crash
/// leaves behind, since nothing checkpointed it.
fn crash_image(from: &Path, to: &Path) -> Res<()> {
    std::fs::create_dir_all(to).map_err(|e| e.to_string())?;
    for entry in std::fs::read_dir(from).map_err(|e| e.to_string())? {
        let entry = entry.map_err(|e| e.to_string())?;
        if entry.file_name() != "LOCK" {
            std::fs::copy(entry.path(), to.join(entry.file_name())).map_err(|e| e.to_string())?;
        }
    }
    Ok(())
}

/// Bytes the loopback interface has carried, if the host says.
fn loopback_bytes() -> Option<u64> {
    let dev = std::fs::read_to_string("/proc/net/dev").ok()?;
    let line = dev.lines().find(|l| l.trim_start().starts_with("lo:"))?;
    line.split(':')
        .nth(1)?
        .split_whitespace()
        .next()?
        .parse()
        .ok()
}

/// Runs every ladder and adds its metrics to `out`, which already holds
/// the end-to-end figures of the traced cycles the ratios relate to.
pub fn run<M: Mech>(
    job: &Job<M>,
    inputs: &Inputs,
    e2e: &EndToEnd,
    rec: &mut Recorder,
    out: &mut Metrics,
    ops: &mut Ops,
) -> Res<()> {
    let Job {
        spec,
        mech,
        seed,
        scratch,
    } = *job;
    let ladder_started = Instant::now();
    let root = rec.reserve();
    let mut rungs = Rungs { rec, root };
    let mut rng = StdRng::seed_from_u64(seed ^ 0x1add_e500);
    let windowed = spec.windowed();
    let n = spec.ladder_frames;

    // --- ingest ladder --------------------------------------------------
    let mut values = Vec::new();
    let sample = rungs.time("workloads", "sample_value", n, REPS, || {
        values = (0..n).map(|_| inputs.population.draw(&mut rng)).collect();
        Ok(())
    })?;
    out.set("workloads.sample_ns_per_value", sample);

    let mut reports: Vec<M::Report> = Vec::new();
    let encode = rungs.time("core", "client_encode", n, REPS, || {
        reports = values.iter().map(|&v| mech.encode(v, &mut rng)).collect();
        Ok(())
    })?;
    out.set("core.client_encode_ns_per_report", encode);

    let mut stream = Stream::encode(&reports[..0], windowed.then_some(0));
    let wire_encode = rungs.time("wire", "encode_frame", n, REPS, || {
        stream = Stream::encode(&reports, windowed.then_some(0));
        Ok(())
    })?;
    out.set("wire.encode_ns_per_frame", wire_encode);
    let frame_bytes = stream.total_bytes() as f64 / n as f64;
    out.set("wire.frame_bytes_mean", frame_bytes);
    drop(reports);

    // Decode and absorb alternate batch by batch, so absorb reads its
    // reports as warm as the service's own decode-then-absorb loop does.
    let mut server = mech.prototype();
    let (mut decode, mut absorb) = (Vec::with_capacity(REPS), Vec::with_capacity(REPS));
    for _ in 0..REPS {
        let (mut decode_ns, mut absorb_ns) = (0u128, 0u128);
        let rep_started = Instant::now();
        for b in 0..stream.num_batches() {
            let t0 = Instant::now();
            let batch: Vec<M::Report> = stream.decode_batch(b)?;
            let t1 = Instant::now();
            absorb_all(&mut server, &batch)?;
            decode_ns += (t1 - t0).as_nanos();
            absorb_ns += t1.elapsed().as_nanos();
        }
        // Both rungs share the interval; their split is in the metrics.
        rungs.rec.record(
            root,
            "wire+core",
            "decode_frame+absorb",
            rep_started,
            Instant::now(),
            n as u64,
        );
        decode.push(decode_ns as f64 / n as f64);
        absorb.push(absorb_ns as f64 / n as f64);
    }
    let (decode, absorb) = (median(&mut decode), median(&mut absorb));
    out.set("wire.decode_ns_per_frame", decode);
    out.set("core.absorb_ns_per_report", absorb);

    let service = InProc::new(mech, windowed, SHARDS)?;
    let version = stream.wire_version;
    let submit = rungs.time("service", "submit_wire_batch", n, REPS, || {
        each_batch(&stream, |count, frames| {
            service.submit(version, count, frames)
        })
    })?;
    out.set("service.submit_ns_per_report", submit);
    out.set("service.stage_self_ns_per_report", submit - decode - absorb);
    // Estimates do not change when every count is multiplied by REPS, so
    // accuracy is scored here, on fixed work, and repeats exactly.
    accuracy(inputs, &service, out)?;

    let wal_dir = scratch.join("ladder-wal");
    let (store, _) = Durable::open(mech, &wal_dir, windowed)?;
    let storage = rungs.time("storage", "ingest_batch", n, REPS, || {
        each_batch(&stream, |count, frames| {
            store.ingest(version, count, frames)
        })
    })?;
    // Untimed: the crash images below are copies of the files.
    store.sync()?;
    out.set("storage.ingest_ns_per_report", storage);
    out.set("storage.wal_self_ns_per_report", storage - submit);
    let logged = (REPS * n) as f64;
    out.set(
        "storage.wal_bytes_per_report",
        dir_bytes(&wal_dir, ".log") as f64 / logged,
    );

    // One connection against a fresh backend of the workload's own kind.
    let net_dir = scratch.join("ladder-net");
    let sut = match spec.backend {
        Backend::Durable => Sut::serve_durable(Durable::open(mech, &net_dir, false)?.0, false)?,
        _ => Sut::serve_mem(InProc::new(mech, windowed, SHARDS)?)?,
    };
    let mut conn = sut.connect(version)?;
    let lo_before = loopback_bytes();
    let net = rungs.time("net", "send_batch", n, REPS, || {
        each_batch(&stream, |count, frames| conn.send_batch(count, frames))
    })?;
    let on_the_wire = match (lo_before, loopback_bytes()) {
        (Some(before), Some(after)) if after > before => (after - before) as f64 / logged,
        _ => frame_bytes,
    };
    conn.bye()?;
    sut.shutdown();
    let _ = std::fs::remove_dir_all(&net_dir);
    let below_net = if spec.backend == Backend::Durable {
        storage
    } else {
        submit
    };
    out.set("net.ingest_ns_per_report", net);
    out.set("net.ingest_self_ns_per_report", net - below_net);
    out.set("net.bytes_per_report", on_the_wire);
    // One uncontended connection's time per report over what each of the
    // end-to-end phase's connections saw: below 1 is time spent waiting
    // for the other connection's work.
    let e2e_rate = out.get("ingest_reports_per_s").unwrap_or(0.0);
    out.set(
        "ladder.ingest_sum_over_e2e",
        net * e2e_rate / (CONNECTIONS as f64 * 1e9),
    );

    // --- query ladder ---------------------------------------------------
    let d = spec.domain;
    // Enough calls per repetition that the clock's grain does not show.
    let calls = ((1 << 16) / d).max(8);
    let mut signal: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
    let fwht_ns = rungs.time("transforms", "fwht", calls, REPS, || {
        (0..calls).for_each(|_| fwht(std::hint::black_box(&mut signal)));
        Ok(())
    })?;
    out.set("transforms.fwht_ns", fwht_ns);
    let coefficients: Vec<f64> = (0..d).map(|_| rng.random::<f64>()).collect();
    let haar_ns = rungs.time("transforms", "haar_inverse", calls, REPS, || {
        (0..calls).for_each(|_| {
            std::hint::black_box(haar_inverse(std::hint::black_box(&coefficients)));
        });
        Ok(())
    })?;
    out.set("transforms.haar_inverse_ns", haar_ns);
    let mut tree = Tree::new(d, &mut rng);
    let ci_ns = rungs.time("core", "enforce_consistency", calls, REPS, || {
        (0..calls).for_each(|_| tree.enforce_consistency());
        Ok(())
    })?;
    out.set("core.enforce_consistency_ns", ci_ns);

    let state = service.state()?;
    let estimate = rungs.time("core", "frequency_estimate", calls, REPS, || {
        (0..calls).for_each(|_| {
            std::hint::black_box(state.estimate());
        });
        Ok(())
    })?;
    out.set("core.estimate_ns", estimate);
    let freeze = rungs.time("snapshot", "freeze", calls, REPS, || {
        (0..calls).for_each(|_| {
            std::hint::black_box(state.freeze());
        });
        Ok(())
    })?;
    out.set("snapshot.freeze_ns", freeze);
    out.set("snapshot.freeze_self_ns", freeze - estimate);

    let (count, frames) = stream.batch(0);
    let mut dirty = Vec::with_capacity(CALL_REPS);
    for _ in 0..CALL_REPS {
        service.submit(version, count, frames)?;
        dirty.push(rungs.time("service", "refresh_dirty", 1, 1, || {
            service.refresh().map(|_| ())
        })?);
    }
    let dirty = median(&mut dirty);
    let clean = rungs.time("service", "refresh_clean", 1, CALL_REPS, || {
        service.refresh().map(|_| ())
    })?;
    out.set("service.refresh_dirty_ns", dirty);
    out.set("service.refresh_clean_ns", clean);
    out.set("service.merge_self_ns", dirty - freeze);

    let snapshot = service.refresh()?;
    let ranges = &inputs.accuracy_ranges;
    let range_ns = rungs.time("snapshot", "range", ranges.len(), REPS, || {
        for &(a, b) in ranges {
            let op = QueryOp::Range {
                a: a as u64,
                b: b as u64,
            };
            std::hint::black_box(answer(&snapshot, op));
        }
        Ok(())
    })?;
    out.set("snapshot.range_ns", range_ns);
    let quantile_ns = rungs.time("snapshot", "quantile", ranges.len(), REPS, || {
        for i in 0..ranges.len() {
            let phi = (i as f64 + 0.5) / ranges.len() as f64;
            std::hint::black_box(answer(&snapshot, QueryOp::Quantile { phi }));
        }
        Ok(())
    })?;
    out.set("snapshot.quantile_ns", quantile_ns);

    // The net share of a query is taken from the cached queries, so the
    // sum below checks the fresh ones against numbers they did not make.
    let fresh_ns = out.get("query_fresh_p50_us").unwrap_or(0.0) * 1e3;
    let cached_ns = out.get("query_cached_p50_us").unwrap_or(0.0) * 1e3;
    let net_query = cached_ns - clean - range_ns;
    out.set("net.query_fresh_ns", fresh_ns);
    out.set("net.query_self_ns", net_query);
    out.set(
        "ladder.query_sum_over_e2e",
        (dirty + range_ns + net_query) / fresh_ns,
    );

    // --- recovery, checkpoint, replication ------------------------------
    let pre_crash = store.refresh()?;
    drop(store);
    let mut recovered = None;
    let mut recover = Vec::with_capacity(3);
    for rep in 0..3 {
        let dir = scratch.join(format!("ladder-recover-{rep}"));
        crash_image(&wal_dir, &dir)?;
        let t0 = Instant::now();
        let opened = ops.attempt(Durable::open(mech, &dir, windowed), "reopen");
        let Some((reopened, replayed)) = opened else {
            continue;
        };
        let snap = reopened.refresh()?;
        std::hint::black_box(answer(&snap, QueryOp::Quantile { phi: 0.5 }));
        let t1 = Instant::now();
        rungs
            .rec
            .record(root, "storage", "recover", t0, t1, replayed);
        recover.push((t1 - t0).as_nanos() as f64 / replayed.max(1) as f64);
        ops.check(replayed == (REPS * n) as u64, || {
            format!("replayed {replayed} of {} frames", REPS * n)
        });
        ops.check(same_snapshot(&snap, &pre_crash), || {
            "recovered snapshot differs from the pre-crash one".into()
        });
        recovered = Some((reopened, dir));
    }
    out.set("storage.recover_ns_per_report", median(&mut recover));

    let (reopened, reopened_dir) = recovered.ok_or("no reopening succeeded")?;
    let checkpoint = rungs.time("storage", "checkpoint", 1, 3, || {
        reopened.checkpoint().map(|_| ())
    })?;
    out.set("storage.checkpoint_ns", checkpoint);
    out.set(
        "storage.checkpoint_bytes",
        dir_bytes(&reopened_dir, ".ckpt") as f64,
    );
    drop(reopened);

    // A cold follower drains a leader that recovered the same log.
    let leader_dir = scratch.join("ladder-leader");
    crash_image(&wal_dir, &leader_dir)?;
    let leader = Durable::open(mech, &leader_dir, windowed)?.0;
    let leader_snapshot = leader.refresh()?;
    let leader_sut = Sut::serve_durable(leader, windowed)?;
    let records = (REPS * stream.num_batches()) as u64;
    let t0 = Instant::now();
    let follower = Follower::open(
        mech,
        &scratch.join("ladder-follower"),
        &leader_sut.addr(),
        windowed,
    )?;
    let caught_up = wait_until(Duration::from_secs(60), || follower.position() >= records);
    let t1 = Instant::now();
    rungs.rec.record(root, "repl", "catchup", t0, t1, records);
    ops.check(caught_up, || {
        format!(
            "follower stalled at {} of {records}: {:?}",
            follower.position(),
            follower.last_error()
        )
    });
    out.set(
        "repl.catchup_ns_per_record",
        (t1 - t0).as_nanos() as f64 / records as f64,
    );
    out.set("repl.records", records as f64);
    let promoted = ops.attempt(follower.promote(), "promote");
    if let Some(promoted) = promoted {
        let snap = promoted.refresh()?;
        ops.check(same_snapshot(&snap, &leader_snapshot), || {
            "promoted follower differs from its leader".into()
        });
    }
    leader_sut.shutdown();

    // --- window ----------------------------------------------------------
    // Epoch `e` of the windowed workload needs frames tagged `e`; the
    // others ship untagged frames, which any open epoch accepts.
    let epoch_stream = |e: usize| {
        if windowed {
            &inputs.units[e % inputs.units.len()][0]
        } else {
            &stream
        }
    };
    let fill = |e: usize, send: &mut dyn FnMut(u64, &[u8]) -> Res<u64>| -> Res<()> {
        let s = epoch_stream(e);
        for b in 0..SEAL_BATCHES.min(s.num_batches()) {
            let (count, frames) = s.batch(b);
            send(count, frames)?;
        }
        Ok(())
    };
    let ring = InProc::new(mech, true, SHARDS)?;
    let (mut seal, mut window_snapshot) = (Vec::new(), Vec::new());
    for e in 0..SEAL_EPOCHS {
        fill(e, &mut |count, frames| ring.submit(version, count, frames))?;
        seal.push(rungs.time("window", "seal_epoch", 1, 1, || ring.seal().map(|_| ()))?);
        window_snapshot.push(rungs.time("window", "window_snapshot", 1, 1, || {
            ring.window_snapshot(QUERY_WINDOW as usize).map(|_| ())
        })?);
    }
    let seal = median(&mut seal);
    out.set("window.seal_ns", seal);
    out.set("window.window_snapshot_ns", median(&mut window_snapshot));

    let ring_sut = Sut::serve_mem(InProc::new(mech, true, SHARDS)?)?;
    let mut conn = ring_sut.connect(version)?;
    let mut net_seal = Vec::new();
    for e in 0..SEAL_EPOCHS {
        fill(e, &mut |count, frames| conn.send_batch(count, frames))?;
        net_seal.push(rungs.time("net", "seal", 1, 1, || conn.seal().map(|_| ()))?);
    }
    conn.bye()?;
    ring_sut.shutdown();
    out.set("net.seal_self_ns", median(&mut net_seal) - seal);

    // --- frequency oracles, at one fixed domain --------------------------
    let oracle_values: Vec<usize> = values
        .iter()
        .take(ORACLE_REPORTS)
        .map(|v| v % ORACLE_DOMAIN)
        .collect();
    for name in ORACLES {
        let mut oracle = Oracle::new(name, ORACLE_DOMAIN)?;
        let reports = oracle.encode(&oracle_values, &mut rng)?;
        let absorb = rungs.time("freq_oracle", "absorb", reports.len(), REPS, || {
            oracle.absorb_all(&reports)
        })?;
        out.set(&format!("freq_oracle.{name}_absorb_ns"), absorb);
        let estimate = rungs.time("freq_oracle", "estimate", 1, REPS, || {
            std::hint::black_box(oracle.estimate());
            Ok(())
        })?;
        out.set(&format!("freq_oracle.{name}_estimate_ns"), estimate);
    }

    // --- the traced end-to-end phases ------------------------------------
    out.set(
        "trace.overhead_pct",
        100.0 * (e2e.untraced_rate - e2e.traced_rate) / e2e.untraced_rate,
    );
    rungs
        .rec
        .record_reserved(root, "bench", "ladders", ladder_started, Instant::now(), 0);
    Ok(())
}

/// Scores the service's snapshot against the population it was drawn
/// from: mean squared error over the seeded ranges, mean absolute decile
/// error in items.
fn accuracy<M: Mech>(inputs: &Inputs, service: &InProc<M>, out: &mut Metrics) -> Res<()> {
    let snapshot = service.refresh()?;
    let mut squared = 0.0;
    for &(a, b) in &inputs.accuracy_ranges {
        let op = QueryOp::Range {
            a: a as u64,
            b: b as u64,
        };
        if let QueryResult::Fraction(f) = answer(&snapshot, op) {
            squared += (f - inputs.population.true_range(a, b)).powi(2);
        }
    }
    out.set(
        "core.range_mse",
        squared / inputs.accuracy_ranges.len().max(1) as f64,
    );
    let mut off = 0.0;
    for decile in 1..10 {
        let phi = f64::from(decile) / 10.0;
        if let QueryResult::Index(q) = answer(&snapshot, QueryOp::Quantile { phi }) {
            off += (q as f64 - inputs.population.true_quantile(phi) as f64).abs();
        }
    }
    out.set("core.quantile_abs_err_mean", off / 9.0);
    Ok(())
}
