//! The end-to-end phases of one workload: set-up, ingest, serve, verify.
//! All load comes from this process over loopback; the server only ever
//! sees bytes generated from the seed.

use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::metrics::Metrics;
use crate::stats::{median, median_of_passes, percentile};
use crate::sut::{
    answer, same_answer, same_snapshot, snapshot_reports, Conn, InProc, Mech, Population, Query,
    QueryOp, QueryResult, State, Stream, Sut,
};
use crate::trace::{Recorder, Span};
use crate::workloads::{
    Spec, ACCURACY_QUERIES, CONNECTIONS, CYCLES, INGEST_SHARE, MAX_SERVE_ITERATIONS, MIN_PASSES,
    QUERY_POOL, QUERY_WINDOW, SERVE_SHARE, TRACED_CYCLES, TRACED_INGEST_SHARE, TRACED_SERVE_SHARE,
    VERIFY_QUERIES,
};

pub type Res<T> = Result<T, String>;

/// Distinct reports below which an estimate is not held to the truth.
const MIN_REPORTS_FOR_TRUTH: usize = 8192;

/// Every span recorder draws its ids from its own block of this size.
pub const SPAN_BLOCK_BITS: u32 = 24;

/// One workload run: what every phase and ladder needs to know.
pub struct Job<'a, M: Mech> {
    pub spec: &'a Spec,
    pub mech: &'a M,
    pub seed: u64,
    /// A directory this run may fill and must leave empty.
    pub scratch: &'a Path,
}

/// The spans of a traced run and the next free block of span ids; an
/// untraced run carries `origin: None` and records nothing.
struct Tracing {
    origin: Option<Instant>,
    next_block: u64,
    spans: Vec<Span>,
}

impl Tracing {
    /// The first id of `blocks` fresh id blocks.
    fn take_blocks(&mut self, blocks: usize) -> u64 {
        let first = self.next_block << SPAN_BLOCK_BITS;
        self.next_block += blocks as u64;
        first
    }
}

/// Operations attempted and failed: batches, queries, seals, reopenings
/// and verify checks. An error, a short ack or a mismatched answer is a
/// failure.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    /// The first few failures, for the operator.
    pub notes: Vec<String>,
}

impl Ops {
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Counts one operation and unwraps its result.
    pub fn attempt<T>(&mut self, result: Res<T>, what: &str) -> Option<T> {
        self.attempted += 1;
        match result {
            Ok(v) => Some(v),
            Err(e) => {
                self.fail(format!("{what}: {e}"));
                None
            }
        }
    }

    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    fn absorb(&mut self, other: Ops) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        for note in other.notes {
            if self.notes.len() < 8 {
                self.notes.push(note);
            }
        }
    }
}

/// Everything drawn from the seed before the server exists.
pub struct Inputs {
    pub population: Population,
    /// One pair of per-connection streams per unit. Unwindowed workloads
    /// have one unit, replayed every pass; the windowed workload has one
    /// per epoch (frames carry their epoch id) plus one for the serve
    /// phase's open epoch.
    pub units: Vec<Vec<Stream>>,
    pub query_pool: Vec<Query>,
    pub verify_queries: Vec<Query>,
    /// Seeded ranges scored against the population's truth.
    pub accuracy_ranges: Vec<(usize, usize)>,
}

pub fn prepare<M: Mech>(spec: &Spec, mech: &M, seed: u64) -> Inputs {
    let mut rng = StdRng::seed_from_u64(seed);
    let population = Population::sample(spec.domain, 1 << 20, &mut rng);
    let unit_count = if spec.windowed() {
        spec.max_passes + 1
    } else {
        1
    };
    let units = (0..unit_count)
        .map(|unit| {
            (0..CONNECTIONS)
                .map(|_| {
                    let reports: Vec<M::Report> = (0..spec.unit_frames)
                        .map(|_| mech.encode(population.draw(&mut rng), &mut rng))
                        .collect();
                    Stream::encode(&reports, spec.windowed().then_some(unit as u64))
                })
                .collect()
        })
        .collect();
    let query_pool = (0..QUERY_POOL)
        .map(|_| draw_query(spec, &mut rng))
        .collect();
    let verify_queries = (0..VERIFY_QUERIES)
        .map(|_| draw_query(spec, &mut rng))
        .collect();
    let accuracy_ranges = (0..ACCURACY_QUERIES)
        .map(|_| draw_range(spec.domain, &mut rng))
        .collect();
    Inputs {
        population,
        units,
        query_pool,
        verify_queries,
        accuracy_ranges,
    }
}

fn draw_range(domain: usize, rng: &mut StdRng) -> (usize, usize) {
    let (x, y) = (rng.random_range(0..domain), rng.random_range(0..domain));
    (x.min(y), x.max(y))
}

/// The serve mix: 50 % range, 20 % prefix, 10 % point, 20 % quantile; on
/// the windowed workload every second query asks for a trailing window.
fn draw_query(spec: &Spec, rng: &mut StdRng) -> Query {
    let domain = spec.domain;
    let op = match rng.random_range(0..10u32) {
        0..=4 => {
            let (a, b) = draw_range(domain, rng);
            QueryOp::Range {
                a: a as u64,
                b: b as u64,
            }
        }
        5 | 6 => QueryOp::Prefix {
            b: rng.random_range(0..domain) as u64,
        },
        7 => QueryOp::Point {
            z: rng.random_range(0..domain) as u64,
        },
        _ => QueryOp::Quantile {
            phi: rng.random::<f64>(),
        },
    };
    let window = (spec.windowed() && rng.random::<bool>()).then_some(QUERY_WINDOW);
    Query { op, window }
}

/// The server with its connections open and one warm-up batch and query
/// behind it.
struct Live<M: Mech> {
    sut: Sut<M>,
    conns: Vec<Conn>,
    dir: PathBuf,
}

fn start<M: Mech>(spec: &Spec, mech: &M, inputs: &Inputs, dir: PathBuf) -> Res<Live<M>> {
    std::fs::create_dir_all(&dir).map_err(|e| e.to_string())?;
    let sut = Sut::start(mech, spec.backend, &dir)?;
    let wire_version = inputs.units[0][0].wire_version;
    let mut conns = (0..CONNECTIONS)
        .map(|_| sut.connect(wire_version))
        .collect::<Res<Vec<Conn>>>()?;
    let (count, frames) = inputs.units[0][0].batch(0);
    let acked = conns[0].send_batch(count, frames)?;
    if acked != count {
        return Err(format!("warm-up batch acked {acked} of {count}"));
    }
    conns[0].query(Query {
        op: QueryOp::Quantile { phi: 0.5 },
        window: None,
    })?;
    Ok(Live { sut, conns, dir })
}

fn stop<M: Mech>(live: Live<M>) -> Res<(u64, u64)> {
    let mut result = Ok(());
    for conn in live.conns {
        result = result.and(conn.bye());
    }
    let stats = live.sut.shutdown();
    let _ = std::fs::remove_dir_all(&live.dir);
    result.map(|()| stats)
}

/// What one thread measured in one ingest pass.
struct ConnPass {
    acks_us: Vec<f64>,
    sent: u64,
    ops: Ops,
    spans: Vec<Span>,
}

/// One ingest pass: every connection replays its unit stream `replays`
/// times in its own thread, one batch in flight per connection.
fn ingest_pass(
    conns: &mut [Conn],
    unit: &[Stream],
    replays: usize,
    origin: Instant,
    traced: bool,
    first_span_id: u64,
) -> (f64, Vec<ConnPass>) {
    let started = Instant::now();
    let per_conn: Vec<ConnPass> = std::thread::scope(|scope| {
        let handles: Vec<_> = conns
            .iter_mut()
            .zip(unit)
            .enumerate()
            .map(|(c, (conn, stream))| {
                scope.spawn(move || {
                    let batches = stream.num_batches();
                    let mut pass = ConnPass {
                        acks_us: Vec::with_capacity(batches * replays),
                        sent: 0,
                        ops: Ops::default(),
                        spans: Vec::new(),
                    };
                    // Disjoint id ranges per pass and connection.
                    let first = first_span_id + ((c as u64) << SPAN_BLOCK_BITS);
                    let mut rec = Recorder::new(origin, traced, first);
                    let pass_id = rec.reserve();
                    let pass_started = Instant::now();
                    for _ in 0..replays {
                        for b in 0..batches {
                            let (count, frames) = stream.batch(b);
                            let t0 = Instant::now();
                            let result = conn.send_batch(count, frames);
                            let t1 = Instant::now();
                            rec.record(pass_id, "net", "send_batch", t0, t1, count);
                            pass.acks_us.push((t1 - t0).as_secs_f64() * 1e6);
                            pass.sent += count;
                            let acked = pass.ops.attempt(result, "REPORT");
                            if let Some(acked) = acked.filter(|&a| a != count) {
                                pass.ops
                                    .check(false, || format!("short ack {acked} of {count}"));
                            }
                        }
                    }
                    rec.record_reserved(
                        pass_id,
                        "bench",
                        "ingest_pass",
                        pass_started,
                        Instant::now(),
                        pass.sent,
                    );
                    pass.spans = rec.spans;
                    pass
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("ingest thread panicked"))
            .collect()
    });
    (started.elapsed().as_secs_f64(), per_conn)
}

/// What the end-to-end cycles leave for the ladders and the report.
pub struct EndToEnd {
    pub metrics: Metrics,
    pub ops: Ops,
    pub spans: Vec<Span>,
    /// Ingest rate of the passes run with span recording off and on
    /// (a traced run alternates; an untraced run has only the first).
    pub untraced_rate: f64,
    pub traced_rate: f64,
    /// SEAL round trip at the epoch boundaries (windowed workload only).
    pub seal_p50_us: Option<f64>,
}

/// Samples of one cycle: one server instance from bind to shutdown.
#[derive(Default)]
struct Cycle {
    /// Per-pass ingest rates, untraced and traced passes apart.
    rates: [Vec<f64>; 2],
    /// Ack round trips, µs, one vector per pass.
    pass_acks: Vec<Vec<f64>>,
    fresh_us: Vec<f64>,
    cached_us: Vec<f64>,
    seals_us: Vec<f64>,
}

/// Runs `CYCLES` cycles of set-up, ingest, serve, verify and shutdown,
/// each on a fresh server, and reports the median cycle: `setup_s` needs
/// several set-ups to have a median, and whatever is drawn once per
/// server instance (where its threads land, which connection meets
/// which shard) is sampled several times instead of once.
pub fn end_to_end<M: Mech>(
    job: &Job<M>,
    seconds: f64,
    trace_origin: Option<Instant>,
) -> Res<(EndToEnd, Inputs)> {
    let Job { spec, mech, .. } = *job;
    let traced = trace_origin.is_some();
    let mut ops = Ops::default();
    let mut tracing = Tracing {
        origin: trace_origin,
        next_block: 1,
        spans: Vec::new(),
    };
    let cycles = if traced { TRACED_CYCLES } else { CYCLES };
    let (ingest_share, serve_share) = if traced {
        (TRACED_INGEST_SHARE, TRACED_SERVE_SHARE)
    } else {
        (INGEST_SHARE, SERVE_SHARE)
    };
    let per_cycle = seconds / cycles as f64;

    let mut setup_s = Vec::with_capacity(cycles);
    let mut done: Vec<Cycle> = Vec::with_capacity(cycles);
    let mut last_inputs = None;
    for cycle in 0..cycles {
        // One copy of the inputs at a time, so `peak_rss_mb` is a cycle's.
        drop(last_inputs.take());
        let t0 = Instant::now();
        let inputs = prepare(spec, mech, job.seed);
        let dir = job.scratch.join(format!("e2e-{cycle}"));
        let live = start(spec, mech, &inputs, dir)?;
        setup_s.push(t0.elapsed().as_secs_f64());
        done.push(run_cycle(
            job,
            &inputs,
            live,
            (per_cycle * ingest_share, per_cycle * serve_share),
            &mut tracing,
            &mut ops,
        ));
        last_inputs = Some(inputs);
    }

    let mut metrics = Metrics::default();
    let mut stat = |f: &mut dyn FnMut(&mut Cycle) -> f64| -> f64 {
        let mut per_cycle: Vec<f64> = done.iter_mut().map(f).collect();
        median(&mut per_cycle)
    };
    metrics.set("setup_s", median(&mut setup_s));
    metrics.set(
        "ingest_reports_per_s",
        stat(&mut |c| {
            let mut all: Vec<f64> = c.rates.iter().flatten().copied().collect();
            median(&mut all)
        }),
    );
    metrics.set(
        "ack_p50_us",
        stat(&mut |c| median_of_passes(&mut c.pass_acks, 0.50)),
    );
    metrics.set(
        "query_fresh_p50_us",
        stat(&mut |c| percentile(&mut c.fresh_us, 0.50)),
    );
    metrics.set(
        "query_cached_p50_us",
        stat(&mut |c| percentile(&mut c.cached_us, 0.50)),
    );
    metrics.set(
        "net.ack_p99_us",
        stat(&mut |c| median_of_passes(&mut c.pass_acks, 0.99)),
    );
    // The far tails pool every cycle: one cycle has too few samples.
    let mut pool = Cycle::default();
    for c in done {
        pool.rates[0].extend(&c.rates[0]);
        pool.rates[1].extend(&c.rates[1]);
        pool.pass_acks.extend(c.pass_acks);
        pool.fresh_us.extend(c.fresh_us);
        pool.cached_us.extend(c.cached_us);
        pool.seals_us.extend(c.seals_us);
    }
    let mut all_acks: Vec<f64> = pool.pass_acks.into_iter().flatten().collect();
    metrics.set("net.ack_p99_9_us", percentile(&mut all_acks, 0.999));
    metrics.set(
        "net.query_fresh_p99_us",
        percentile(&mut pool.fresh_us, 0.99),
    );
    metrics.set(
        "net.query_cached_p99_us",
        percentile(&mut pool.cached_us, 0.99),
    );
    metrics.set("peak_rss_mb", peak_rss_mb());

    let [mut untraced, mut traced_rates] = pool.rates;
    Ok((
        EndToEnd {
            metrics,
            ops,
            spans: tracing.spans,
            untraced_rate: median(&mut untraced),
            traced_rate: median(&mut traced_rates),
            seal_p50_us: spec
                .windowed()
                .then(|| percentile(&mut pool.seals_us, 0.50)),
        },
        last_inputs.expect("at least one cycle"),
    ))
}

/// Ingest, serve, verify and shutdown on one live server. `budgets` are
/// the seconds the ingest and serve phases measure for.
fn run_cycle<M: Mech>(
    job: &Job<M>,
    inputs: &Inputs,
    mut live: Live<M>,
    budgets: (f64, f64),
    tracing: &mut Tracing,
    ops: &mut Ops,
) -> Cycle {
    let Job { spec, mech, .. } = *job;
    let traced = tracing.origin.is_some();
    let origin = tracing.origin.unwrap_or_else(Instant::now);
    let mut cycle = Cycle::default();
    let mut sent = inputs.units[0][0].batch(0).0;

    // --- ingest ---------------------------------------------------------
    let phase_started = Instant::now();
    let mut passes = 0usize;
    while passes < spec.max_passes
        && (passes < MIN_PASSES || phase_started.elapsed().as_secs_f64() < budgets.0)
    {
        // A traced run records spans on every second pass, so the two
        // halves see the same machine state.
        let record = traced && passes % 2 == 1;
        let unit = &inputs.units[if spec.windowed() { passes } else { 0 }];
        let first_id = tracing.take_blocks(CONNECTIONS);
        let (wall_s, per_conn) = ingest_pass(
            &mut live.conns,
            unit,
            spec.replays,
            origin,
            record,
            first_id,
        );
        let mut acks = Vec::new();
        let mut pass_sent = 0;
        for conn in per_conn {
            acks.extend(conn.acks_us);
            pass_sent += conn.sent;
            ops.absorb(conn.ops);
            tracing.spans.extend(conn.spans);
        }
        sent += pass_sent;
        cycle.rates[usize::from(record)].push(pass_sent as f64 / wall_s);
        cycle.pass_acks.push(acks);
        passes += 1;
        if spec.windowed() {
            let t0 = Instant::now();
            let sealed = ops.attempt(live.conns[0].seal(), "SEAL");
            cycle.seals_us.push(t0.elapsed().as_secs_f64() * 1e6);
            ops.check(sealed.is_none_or(|e| e == passes as u64 - 1), || {
                format!("pass {passes} sealed epoch {sealed:?}")
            });
        }
    }

    // --- serve ----------------------------------------------------------
    let serve_stream = &inputs.units[if spec.windowed() { passes } else { 0 }][0];
    let mut rec = Recorder::new(origin, traced, tracing.take_blocks(1));
    let serve_id = rec.reserve();
    let phase_started = Instant::now();
    let mut serve_batches = 0usize;
    while serve_batches < MIN_PASSES
        || (serve_batches < MAX_SERVE_ITERATIONS
            && phase_started.elapsed().as_secs_f64() < budgets.1)
    {
        let (count, frames) = serve_stream.batch(serve_batches % serve_stream.num_batches());
        let acked = ops.attempt(live.conns[0].send_batch(count, frames), "serve REPORT");
        ops.check(acked.is_none_or(|a| a == count), || {
            format!("serve batch acked {acked:?} of {count}")
        });
        sent += count;
        // The first query after a batch must refresh the snapshot; the
        // second finds nothing changed. Classified by construction.
        for (slot, times) in [&mut cycle.fresh_us, &mut cycle.cached_us]
            .into_iter()
            .enumerate()
        {
            let query = inputs.query_pool[(2 * serve_batches + slot) % QUERY_POOL];
            let t0 = Instant::now();
            let reply = live.conns[0].query(query);
            let t1 = Instant::now();
            let name = if slot == 0 {
                "query_fresh"
            } else {
                "query_cached"
            };
            rec.record(serve_id, "net", name, t0, t1, 1);
            times.push((t1 - t0).as_secs_f64() * 1e6);
            let reply = ops.attempt(reply, "serve QUERY");
            ops.check(reply.is_none_or(|r| plausible(r, spec.domain)), || {
                format!("implausible answer {reply:?} to {query:?}")
            });
        }
        serve_batches += 1;
    }
    rec.record_reserved(
        serve_id,
        "bench",
        "serve",
        phase_started,
        Instant::now(),
        serve_batches as u64,
    );
    tracing.spans.extend(rec.spans);

    // --- verify ---------------------------------------------------------
    let reference = ops.attempt(
        reference_state(spec, mech, inputs, passes, serve_batches),
        "reference",
    );
    if let Some(reference) = reference {
        verify(spec, &mut live, inputs, &reference, ops);
    }
    let stopped = ops.attempt(stop(live), "shutdown");
    if let Some((absorbed, rejected)) = stopped {
        ops.check(absorbed == sent && rejected == 0, || {
            format!("sent {sent} frames, server acked {absorbed} and rejected {rejected}")
        });
    }
    cycle
}

fn plausible(reply: QueryResult, domain: usize) -> bool {
    match reply {
        QueryResult::Fraction(f) => f.is_finite(),
        QueryResult::Index(i) => (i as usize) < domain,
    }
}

/// The state a single in-process one-shard server holds after the same
/// frames: each distinct stream is absorbed once and `merge`d with
/// itself for its remaining replays (merge is exact, so this is what
/// absorbing every replay would give, at a fraction of the cost).
fn reference_state<M: Mech>(
    spec: &Spec,
    mech: &M,
    inputs: &Inputs,
    passes: usize,
    serve_batches: usize,
) -> Res<State<M>> {
    let windowed = spec.windowed();
    // An in-process builder whose open epoch is `epoch`.
    let builder = |epoch: usize| -> Res<InProc<M>> {
        let b = InProc::new(mech, windowed, 1)?;
        for _ in 0..epoch {
            b.seal()?;
        }
        Ok(b)
    };
    let whole = |b: &InProc<M>, stream: &Stream| -> Res<()> {
        let (count, frames) = stream.prefix(stream.num_batches());
        b.submit(stream.wire_version, count, frames).map(|_| ())
    };
    let open_epoch = if windowed { passes } else { 0 };

    // The pass units, each replayed `replays` times per pass.
    let pass_units = builder(0)?;
    for unit in &inputs.units[..if windowed { passes } else { 1 }] {
        for stream in unit {
            whole(&pass_units, stream)?;
        }
        if windowed {
            pass_units.seal()?;
        }
    }
    let times = spec.replays * if windowed { 1 } else { passes };
    let mut total = pass_units.state()?.times(times as u64)?;

    // The warm-up batch, in epoch 0.
    let warm_up = builder(0)?;
    let (count, frames) = inputs.units[0][0].batch(0);
    warm_up.submit(inputs.units[0][0].wire_version, count, frames)?;
    for _ in 0..open_epoch {
        warm_up.seal()?;
    }
    total.merge(&warm_up.state()?)?;

    // The serve phase: whole cycles of its stream, then a prefix.
    let stream = &inputs.units[open_epoch][0];
    let (cycles, rest) = (
        serve_batches / stream.num_batches(),
        serve_batches % stream.num_batches(),
    );
    if cycles > 0 {
        let cycle = builder(open_epoch)?;
        whole(&cycle, stream)?;
        total.merge(&cycle.state()?.times(cycles as u64)?)?;
    }
    if rest > 0 {
        let tail = builder(open_epoch)?;
        let (count, frames) = stream.prefix(rest);
        tail.submit(stream.wire_version, count, frames)?;
        total.merge(&tail.state()?)?;
    }
    Ok(total)
}

/// The quiesced server against the reference: same report count, a
/// bit-identical snapshot, identical query replies, and answers that
/// make sense against the population's truth.
fn verify<M: Mech>(
    spec: &Spec,
    live: &mut Live<M>,
    inputs: &Inputs,
    reference: &State<M>,
    ops: &mut Ops,
) {
    let expected = reference.freeze();
    let served = ops.attempt(live.sut.refresh(), "final refresh");
    if let Some(served) = served {
        ops.check(snapshot_reports(&served) == reference.num_reports(), || {
            format!(
                "server holds {} reports, reference {}",
                snapshot_reports(&served),
                reference.num_reports()
            )
        });
        ops.check(same_snapshot(&served, &expected), || {
            "final snapshot differs from the one-shard reference".into()
        });
    }
    let window = spec
        .windowed()
        .then(|| reference.window(QUERY_WINDOW as usize));
    for &query in &inputs.verify_queries {
        let want = match (query.window, &window) {
            (Some(_), Some(Ok(w))) => answer(w, query.op),
            (Some(_), _) => {
                ops.check(false, || "reference has no trailing window".into());
                continue;
            }
            (None, _) => answer(&expected, query.op),
        };
        let got = ops.attempt(live.conns[1].query(query), "verify QUERY");
        ops.check(got.is_none_or(|g| same_answer(g, want)), || {
            format!("{query:?}: server {got:?}, reference {want:?}")
        });
    }
    // Sanity against truth: the whole domain holds everyone, and the
    // median lands within 5 % of D of the population's (the distinct
    // reports set-up can afford put 2 % at about three standard errors on
    // the largest domain, which one seed in thirty would miss).
    let all = answer(
        &expected,
        QueryOp::Range {
            a: 0,
            b: spec.domain as u64 - 1,
        },
    );
    ops.check(
        matches!(all, QueryResult::Fraction(f) if (f - 1.0).abs() < 1e-6),
        || format!("full range answers {all:?}"),
    );
    // Only meaningful with a real population behind the estimate; the
    // unit tests' thousandth-scale runs skip it.
    if spec.unit_frames * CONNECTIONS >= MIN_REPORTS_FOR_TRUTH {
        let truth = inputs.population.true_quantile(0.5) as f64;
        let median = answer(&expected, QueryOp::Quantile { phi: 0.5 });
        ops.check(
            matches!(median, QueryResult::Index(m)
                if (m as f64 - truth).abs() <= 0.05 * spec.domain as f64),
            || format!("median {median:?}, truth {truth}"),
        );
    }
}

/// Peak resident set of this process (server threads included), MB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Polls `done` until it holds or `limit` passes.
pub fn wait_until(limit: Duration, mut done: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + limit;
    while !done() {
        if Instant::now() > deadline {
            return false;
        }
        std::thread::sleep(Duration::from_micros(200));
    }
    true
}
