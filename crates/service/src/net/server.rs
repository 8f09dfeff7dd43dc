//! [`LdpServer`] — the event-loop TCP front end serving the session
//! protocol against a shared [`LdpService`].
//!
//! [`NetConfig::workers`] identical event loops (the `net::reactor`
//! module) serve the sockets: loop 0 accepts and deals streams out
//! round-robin, and each loop keeps its sessions' partial-read and
//! partial-write buffers over the length-prefixed framing, executes every
//! complete message inline against the shared backend on the thread that
//! read it, and flushes the replies with vectored writes. The loop count
//! bounds CPU concurrency, not the session count, so a node holds as many
//! sessions as it has file descriptors.
//! Report batches land through the service's one all-or-nothing batch
//! path ([`LdpService::submit_wire_batch`]: absorbed in place, rolled
//! back exactly if a frame is rejected), so a session is a pure
//! transport: the state it leaves behind is bit-identical to calling
//! [`LdpService::submit_frame`] in-process with the same frames.
//!
//! Every `bind*` constructor serves the same node: a service of either
//! shape (all-time or windowed) that reads go to, an optional durable
//! log that writes go through, and a read-only flag for replicas.
//!
//! Shutdown is graceful and total: accepting stops, in-flight messages
//! are executed and their replies flushed, half-received messages get
//! bounded patience (a stalled peer cannot hold the drain hostage),
//! every thread is joined (nothing leaks), the open epoch of a windowed
//! backend is sealed, a durable backend checkpoints, and a final
//! snapshot is published. A read replica's shutdown neither seals nor
//! checkpoints — its log is its leader's copy, so it only publishes the
//! final snapshot. On a plain backend `num_reports` after shutdown
//! equals exactly the number of frames the server acked — the drain
//! contract the concurrency tests pin down. A windowed backend keeps its
//! *retention* semantics through the drain: the final seal can rotate
//! the oldest epoch out of the window, so `num_reports` counts the
//! retained window (every acked frame is still accounted for in
//! [`ServerStats::frames_absorbed`]).

use std::net::{SocketAddr, TcpListener, ToSocketAddrs};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldp_ranges::{PersistableServer, SubtractableServer};

use crate::error::ServiceError;
use crate::net::ops::OpsListener;
use crate::net::proto::{
    decode_report_frames, ClientMsg, ErrorCode, Hello, HelloOk, Query, QueryOp, QueryReply,
    QueryResult, RemoteError, ReportFrames, ServerMsg, StatusReply, MSG_QUERY, MSG_REPLICATE,
    MSG_REPORT, MSG_SEAL, MSG_STATUS, WIRE_EPOCH, WIRE_V1,
};
use crate::net::reactor::{
    EventLoop, Execute, Job, JobDone, PushSource, ReactorKnobs, ReactorShared,
};
use crate::net::{NetConfig, NetError};
use crate::obs::instruments::NetInstruments;
use crate::obs::trace::set_current_span;
use crate::obs::{
    MetricsRegistry, TimeSeriesRing, TraceEvent, TraceOutcome, TraceRing, TraceStage,
};
use crate::repl::cursor::ReplCursor;
use crate::service::{AnyService, LdpService};
use crate::snapshot::{RangeSnapshot, SnapshotSource};
use crate::storage::DurableService;
use crate::window::EpochRing;
use crate::wire::WireReport;

/// The node a server fronts. Reads (snapshots, windows, the open epoch,
/// the report count) go to `service`; writes (REPORT, SEAL) go through
/// `log` when the node is durable, so they reach the write-ahead log
/// before the ack. Everything is `Arc`-shared, so the owner keeps
/// querying (and, when durable, checkpointing) while the server ingests.
struct Backend<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer,
    S::Report: WireReport,
{
    service: AnyService<S>,
    log: Option<Arc<DurableService<S>>>,
    /// A read replica over a replication follower: REPORT and SEAL are
    /// refused and shutdown writes nothing, because the follower's log
    /// must stay a pure copy of its leader's.
    read_only: bool,
}

/// What a read replica answers to REPORT and SEAL.
const READ_ONLY: &str = "replica is read-only: its log is a copy of its leader's";

impl<S> Backend<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    fn memory(service: AnyService<S>) -> Self {
        Self {
            service,
            log: None,
            read_only: false,
        }
    }

    fn durable(log: Arc<DurableService<S>>, read_only: bool) -> Self {
        Self {
            service: log.service().clone(),
            log: Some(log),
            read_only,
        }
    }

    fn refuse_if_read_only(&self) -> Result<(), RemoteError> {
        if self.read_only {
            return Err(RemoteError::new(ErrorCode::BadState, None, READ_ONLY));
        }
        Ok(())
    }

    /// Absorbs a REPORT batch straight from its borrowed envelope bytes,
    /// all-or-nothing (through the WAL on durable backends), and returns
    /// the number of frames absorbed.
    fn absorb_frames(
        &self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> Result<u64, RemoteError> {
        self.refuse_if_read_only()?;
        match &self.log {
            Some(log) => log.ingest_batch(wire_version, count, frames),
            None => self.service.submit_wire_batch(wire_version, count, frames),
        }
        .map_err(service_error)
    }

    /// Answers one query from a snapshot — never from live shard state,
    /// so ingestion is never blocked on estimation.
    fn query(&self, q: &Query) -> Result<QueryReply, RemoteError> {
        let (snap, window) = match q.window {
            None => (
                self.service.refresh_snapshot().map_err(service_error)?,
                None,
            ),
            Some(k) => {
                let w = self
                    .service
                    .window_snapshot(usize::try_from(k).unwrap_or(usize::MAX))
                    .map_err(service_error)?;
                let bounds = (w.first_epoch(), w.last_epoch());
                (w.shared_snapshot(), Some(bounds))
            }
        };
        let result = answer(&snap, q.op)?;
        Ok(QueryReply {
            result,
            version: snap.version(),
            num_reports: snap.num_reports(),
            window,
        })
    }

    fn seal(&self) -> Result<u64, RemoteError> {
        self.refuse_if_read_only()?;
        match &self.log {
            Some(log) => log.seal_epoch(),
            None => self.service.seal_epoch(),
        }
        .map_err(service_error)
    }

    /// The shutdown epilogue: seal the open epoch (windowed backends),
    /// checkpoint (durable backends — the drained state is durable on
    /// disk before the server reports itself stopped), and publish one
    /// final snapshot. A read replica only publishes: sealing or
    /// checkpointing would write into the follower's log.
    fn finalize(&self) -> (Option<u64>, Option<u64>, Arc<RangeSnapshot>) {
        // `seal` refuses on a plain or read-only backend.
        let sealed = self.seal().ok();
        let checkpoint = match &self.log {
            Some(log) if !self.read_only => log.finalize().ok(),
            _ => None,
        };
        let snap = self
            .service
            .refresh_snapshot()
            .unwrap_or_else(|_| self.service.snapshot());
        (sealed, checkpoint, snap)
    }
}

fn answer(snap: &RangeSnapshot, op: QueryOp) -> Result<QueryResult, RemoteError> {
    let domain = snap.domain() as u64;
    let check = |bound: u64| {
        if bound >= domain {
            Err(RemoteError::new(
                ErrorCode::BadQuery,
                None,
                format!("bound {bound} outside domain {domain}"),
            ))
        } else {
            Ok(bound as usize)
        }
    };
    Ok(match op {
        QueryOp::Range { a, b } => QueryResult::Fraction(snap.range(check(a)?, check(b)?)),
        QueryOp::Prefix { b } => QueryResult::Fraction(snap.prefix(check(b)?)),
        QueryOp::Point { z } => QueryResult::Fraction(snap.point(check(z)?)),
        QueryOp::Quantile { phi } => QueryResult::Index(snap.quantile(phi) as u64),
    })
}

/// Maps a service-layer rejection to its typed protocol error.
fn service_error(e: ServiceError) -> RemoteError {
    match &e {
        ServiceError::BadFrame { index, source, .. } => {
            let code = if matches!(**source, ServiceError::EpochMismatch { .. }) {
                ErrorCode::EpochMismatch
            } else {
                ErrorCode::BadFrame
            };
            RemoteError::new(code, Some(*index as u64), e.to_string())
        }
        ServiceError::EpochMismatch { .. } => {
            RemoteError::new(ErrorCode::EpochMismatch, None, e.to_string())
        }
        ServiceError::EmptyWindow => RemoteError::new(ErrorCode::EmptyWindow, None, e.to_string()),
        ServiceError::Wire(_) => RemoteError::new(ErrorCode::BadFrame, None, e.to_string()),
        ServiceError::Io(_) | ServiceError::LockPoisoned(_) => {
            RemoteError::new(ErrorCode::Internal, None, e.to_string())
        }
        _ => RemoteError::new(ErrorCode::BadState, None, e.to_string()),
    }
}

// --- the server --------------------------------------------------------

struct Shared<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer,
    S::Report: WireReport,
{
    backend: Backend<S>,
    /// The one registry every tier behind this server reports into.
    registry: Arc<MetricsRegistry>,
    /// Net-tier instruments: the *single* accounting path — drain totals
    /// ([`ServerStats`]) and STATUS replies both read these counters.
    obs: NetInstruments,
    trace: Option<Arc<TraceRing>>,
}

/// What a drained server reports back from [`LdpServer::shutdown`]. The
/// counters are read out of the server's registry ([`LdpServer::registry`],
/// the one `GET /metrics` serves), so they and a scrape always agree.
#[derive(Debug, Clone)]
pub struct ServerStats {
    /// Sessions served to completion.
    pub sessions: u64,
    /// Frames absorbed *and acked*. On a plain backend this equals the
    /// backend's `num_reports` after the drain exactly.
    pub frames_absorbed: u64,
    /// Frames arriving in rejected batches (nothing from those batches
    /// was absorbed).
    pub frames_rejected: u64,
    /// `num_reports` of the backend after the drain. For a windowed
    /// backend this counts the *retained* window only — the drain's
    /// final seal can rotate the oldest epoch out, so it may be smaller
    /// than [`ServerStats::frames_absorbed`].
    pub num_reports: u64,
    /// For windowed backends: the id of the epoch sealed by the drain.
    /// Always `None` for a read replica, whose shutdown never seals.
    pub sealed_epoch: Option<u64>,
    /// For durable backends: the id of the checkpoint the drain took —
    /// the drained state is on disk before shutdown returns. Always
    /// `None` for a read replica, whose shutdown never checkpoints.
    pub final_checkpoint: Option<u64>,
    /// The final snapshot published after the drain.
    pub final_snapshot: Arc<RangeSnapshot>,
}

/// A socket front end serving ingestion and queries for one report type.
///
/// Built over a shared [`LdpService`] (the caller keeps its own `Arc`
/// and can query in-process at any time). Dropped without
/// [`LdpServer::shutdown`], threads are detached — call `shutdown` to
/// drain and join.
pub struct LdpServer<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer,
    S::Report: WireReport,
{
    shared: Arc<Shared<S>>,
    rshared: Arc<ReactorShared>,
    addr: SocketAddr,
    loops: Vec<JoinHandle<()>>,
    /// The plain-HTTP ops endpoint and its time-series sampler, when
    /// `ops_addr` asked for one.
    ops: Option<OpsListener>,
}

impl<S> LdpServer<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    /// Binds a server over a plain (all-time) service.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<LdpService<S>>,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        Self::start(addr, Backend::memory(AnyService::Plain(service)), config)
    }

    /// Binds a server over a windowed (epoch-ring) service.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_windowed(
        addr: impl ToSocketAddrs,
        service: Arc<LdpService<EpochRing<S>>>,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        Self::start(addr, Backend::memory(AnyService::Windowed(service)), config)
    }

    /// Binds a server in durable mode over a [`DurableService`] (plain
    /// or windowed): every acked REPORT batch is logged through the
    /// write-ahead log before the ack, SEALs are logged, and graceful
    /// shutdown checkpoints, so a restart recovers the drained state
    /// bit-identically.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_durable(
        addr: impl ToSocketAddrs,
        service: Arc<DurableService<S>>,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        Self::start(addr, Backend::durable(service, false), config)
    }

    /// Binds a *read replica* server over a replication follower's
    /// durable service (see [`crate::repl::FollowerService::service`]):
    /// QUERY and STATUS are served from the follower's own snapshots (and,
    /// with [`NetConfig::ops_addr`], `/metrics` and `/health` from the
    /// follower's registry), but REPORT and SEAL are refused — the follower's log
    /// must stay a pure copy of its leader's. For the same reason the
    /// replica's shutdown neither seals nor checkpoints; it only
    /// publishes a final snapshot. The replica also serves REPLICATE, so
    /// followers can chain.
    ///
    /// # Errors
    ///
    /// Propagates bind failures.
    pub fn bind_replica(
        addr: impl ToSocketAddrs,
        service: Arc<DurableService<S>>,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        Self::start(addr, Backend::durable(service, true), config)
    }

    fn start(
        addr: impl ToSocketAddrs,
        backend: Backend<S>,
        config: NetConfig,
    ) -> Result<Self, NetError> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // Loop 0 owns the listener non-blocking; readiness comes from
        // its poller, not accept timeouts.
        listener.set_nonblocking(true)?;
        // One registry for every tier behind this server. A durable
        // backend already carries the registry its storage layer (and
        // the wrapped service) registered into, so sharing it is what
        // makes a single scrape see WAL, shard, and session metrics
        // together; an explicit `config.registry` wins.
        let registry = match (&config.registry, &backend.log) {
            (Some(r), _) => Arc::clone(r),
            (None, Some(log)) => Arc::clone(log.registry()),
            (None, None) => Arc::new(MetricsRegistry::new()),
        };
        // A durable service attached its metrics at open.
        if backend.log.is_none() {
            backend.service.attach_metrics(&registry);
        }
        let obs = NetInstruments::register(&registry);
        // Trace adoption mirrors registry adoption: an explicit
        // `config.trace` wins; otherwise a durable backend's own ring
        // (from [`crate::storage::DurableConfig::trace`]) is shared, so
        // session-tier span events land in the same ring the storage
        // tier's WAL-append events do.
        let trace = match (&config.trace, &backend.log) {
            (Some(t), _) => Some(Arc::clone(t)),
            (None, Some(log)) => log.trace().cloned(),
            (None, None) => None,
        };
        let shared = Arc::new(Shared {
            backend,
            registry,
            obs: obs.clone(),
            trace: trace.clone(),
        });
        let ops = match &config.ops_addr {
            Some(ops_addr) => Some(
                OpsListener::start(ops_addr, Arc::clone(&shared.registry), &config)
                    .map_err(NetError::Io)?,
            ),
            None => None,
        };
        // The portable poller has no kernel readiness and sweeps on a
        // tick instead; keep that tick well under the idle poll so
        // request latency stays in the low milliseconds.
        let tick = config.idle_poll.min(Duration::from_millis(1));
        let rshared = Arc::new(ReactorShared::new(
            config.workers,
            config.portable_poller,
            tick,
        ));
        // A durable backend serves REPLICATE: seed the hub (counting the
        // retained log once) and ring every loop's doorbell on each
        // appended record, so push streams pump promptly on whichever
        // loop holds them. A store that cannot state its log (wedged)
        // simply leaves the hub unset and REPLICATE answered with
        // REPL_UNAVAILABLE.
        if let Some(log) = &shared.backend.log {
            if let Ok(hub) = log.ensure_repl_hub() {
                let doorbell = Arc::clone(&rshared);
                hub.add_waker(Box::new(move || doorbell.wake_all()));
            }
        }
        let knobs = ReactorKnobs {
            idle_poll: config.idle_poll,
            drain_patience: config.drain_patience,
            idle_timeout: config.idle_timeout,
        };
        let exec: Arc<dyn Execute> = shared.clone();
        let mut listener = Some(listener);
        let mut loops = Vec::with_capacity(rshared.loops());
        for k in 0..rshared.loops() {
            let spawned = EventLoop::new(
                k,
                listener.take(),
                Arc::clone(&rshared),
                Arc::clone(&exec),
                knobs,
                obs.clone(),
                trace.clone(),
            )
            .and_then(|ev| {
                std::thread::Builder::new()
                    .name(format!("ldp-net-loop-{k}"))
                    .spawn(move || ev.run())
            });
            match spawned {
                Ok(handle) => loops.push(handle),
                Err(e) => {
                    // Loops already running must not outlive the failed
                    // bind and keep serving a port the caller believes
                    // never opened.
                    stop_loops(&rshared, loops, &obs);
                    return Err(NetError::Io(e));
                }
            }
        }
        Ok(Self {
            shared,
            rshared,
            addr,
            loops,
            ops,
        })
    }

    /// The bound address (port 0 in `bind` resolves to a real port here).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The metrics registry this server (and every tier behind it)
    /// reports into: the in-process view of what `GET /metrics` and
    /// `GET /health` serve when [`NetConfig::ops_addr`] is set.
    #[must_use]
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.shared.registry
    }

    /// The bound address of the plain-HTTP ops endpoint, when
    /// [`NetConfig::ops_addr`] asked for one (`:0` resolves to a real
    /// port here).
    #[must_use]
    pub fn ops_local_addr(&self) -> Option<SocketAddr> {
        self.ops.as_ref().map(OpsListener::local_addr)
    }

    /// The metrics time-series ring `GET /metrics/range` serves. Only a
    /// server with [`NetConfig::ops_addr`] runs the sampler that fills
    /// it; without one this is `None`.
    #[must_use]
    pub fn timeseries(&self) -> Option<&Arc<TimeSeriesRing>> {
        self.ops.as_ref().map(OpsListener::timeseries)
    }

    /// Drains and stops the server: no new connections are accepted,
    /// in-flight messages are executed and their replies flushed (with
    /// bounded patience for stalled peers), every thread is joined, a
    /// windowed backend's open epoch is sealed, a durable backend
    /// checkpoints, and a final snapshot is published. A read replica
    /// neither seals nor checkpoints.
    #[must_use]
    pub fn shutdown(mut self) -> ServerStats {
        // Scraping and sampling stop first: the ops endpoint must not
        // observe a half-finalized backend.
        if let Some(mut ops) = self.ops.take() {
            ops.stop();
        }
        stop_loops(
            &self.rshared,
            std::mem::take(&mut self.loops),
            &self.shared.obs,
        );
        let (sealed_epoch, final_checkpoint, final_snapshot) = self.shared.backend.finalize();
        // Drain totals read straight from the registry counters — the
        // registry *is* the accounting path, so an operator scraping
        // `/metrics` and a caller holding these stats can never disagree.
        ServerStats {
            sessions: self.shared.obs.sessions_closed.get(),
            frames_absorbed: self.shared.obs.frames_absorbed.get(),
            frames_rejected: self.shared.obs.frames_rejected.get(),
            num_reports: self.shared.backend.service.num_reports(),
            sealed_epoch,
            final_checkpoint,
            final_snapshot,
        }
    }
}

/// Drains and joins every event loop, then accounts for the streams
/// still waiting in a mailbox (admitted and closed), so
/// `sessions_opened == sessions_closed` once this returns.
fn stop_loops(rshared: &ReactorShared, loops: Vec<JoinHandle<()>>, obs: &NetInstruments) {
    rshared.request_shutdown();
    for handle in loops {
        let _ = handle.join();
    }
    rshared.close_unadmitted(obs);
}

/// Records one handled request into the per-message-type latency
/// histogram and — when tracing is on — the trace ring, as the span's
/// Execute-stage event.
fn observe<S>(shared: &Shared<S>, span: u64, session: u64, msg_type: u8, ok: bool, started: Instant)
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
    let histo = match msg_type {
        MSG_REPORT => &shared.obs.report_ns,
        MSG_QUERY => &shared.obs.query_ns,
        MSG_SEAL => &shared.obs.seal_ns,
        // STATUS and REPLICATE share one introspection-latency histogram.
        _ => &shared.obs.status_ns,
    };
    histo.record(ns);
    if let Some(trace) = &shared.trace {
        trace.record(TraceEvent {
            span,
            session,
            stage: TraceStage::Execute,
            msg_type,
            outcome: if ok {
                TraceOutcome::Ok
            } else {
                TraceOutcome::Error
            },
            ns,
        });
    }
}

/// What a replication stream answers to anything but REPL_ACK and BYE.
const STREAM_ONLY: &str = "session is a replication stream: only REPL_ACK and BYE are accepted";

fn error_body(code: ErrorCode, detail: impl Into<String>) -> Vec<u8> {
    ServerMsg::Error(RemoteError::new(code, None, detail)).encode()
}

impl<S> Execute for Shared<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    fn execute(&self, job: Job) -> JobDone {
        execute_job(self, job)
    }
}

/// Executes one session's queued messages against the backend and
/// returns the encoded replies — the session state machine every event
/// loop runs inline. Every hostile input (garbage bytes, absurd lengths,
/// mismatched handshakes, malformed batches) lands in a typed error
/// reply or a close decision, nothing panics the loop, and
/// rejected batches leave the backend untouched. Messages after a
/// close-triggering one are dropped unprocessed, exactly as a blocking
/// loop that returned would have left them unread.
fn execute_job<S>(shared: &Shared<S>, job: Job) -> JobDone
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let obs = &shared.obs;
    let mut hello: Option<Hello> = job.hello;
    let mut replies: Vec<Vec<u8>> = Vec::with_capacity(job.bodies.len());
    let mut close = false;
    let mut repl = job.repl;
    let mut push: Option<Box<dyn PushSource>> = None;
    for (span, body) in &job.bodies {
        let span = *span;
        // The decode-assigned span follows the message into the storage
        // tiers through the loop's thread-local, so a WAL group-commit
        // can stamp its event with the span that caused it.
        set_current_span(Some(span));
        if body.is_empty() {
            // Hostile envelope length (zero or over the cap): typed
            // error, then close — resync is impossible.
            replies.push(error_body(
                ErrorCode::Protocol,
                "message length outside (0, cap]",
            ));
            close = true;
            break;
        }
        let started = Instant::now();
        // The one REPORT handler. REPORT bodies on ingest sessions decode
        // as borrowed frames straight out of the envelope buffer instead
        // of through `ClientMsg::decode`'s owning `ReportBatch`, so the
        // frame bytes are never copied between the socket and the shard
        // absorb. Replication sessions fall through to the generic decode
        // so the stream guard below refuses them like any other message.
        if !repl && body[0] == MSG_REPORT {
            let ReportFrames { count, frames } = match decode_report_frames(body) {
                Ok(rf) => rf,
                Err(e) => {
                    replies.push(error_body(ErrorCode::Protocol, e.to_string()));
                    if hello.is_none() {
                        close = true;
                        break;
                    }
                    continue;
                }
            };
            let Some(h) = hello else {
                replies.push(error_body(ErrorCode::BadState, "REPORT before HELLO"));
                close = true;
                break;
            };
            match shared.backend.absorb_frames(h.wire_version, count, frames) {
                Ok(accepted) => {
                    obs.frames_absorbed.add(accepted);
                    replies.push(ServerMsg::ReportOk { accepted }.encode());
                    observe(shared, span, job.session, MSG_REPORT, true, started);
                }
                Err(e) => {
                    // Count what the payload could physically hold (the
                    // smallest frame is 5 bytes), never the attacker-
                    // declared count — a lying count must not corrupt an
                    // operator-visible counter.
                    let plausible = count.min(frames.len() as u64 / 5);
                    obs.frames_rejected.add(plausible);
                    replies.push(ServerMsg::Error(e).encode());
                    observe(shared, span, job.session, MSG_REPORT, false, started);
                }
            }
            continue;
        }
        let msg = match ClientMsg::decode(body) {
            Ok(msg) => msg,
            Err(e) => {
                replies.push(error_body(ErrorCode::Protocol, e.to_string()));
                // Before the handshake nothing about the peer is
                // trusted; after it, the envelope kept us in sync, so
                // the session may continue.
                if hello.is_none() {
                    close = true;
                    break;
                }
                continue;
            }
        };
        // A replication stream is one-way after the subscription: the
        // follower may only acknowledge progress or say goodbye.
        if repl {
            match msg {
                ClientMsg::ReplAck { acked } => {
                    // Lag accounting only — a hostile position is clamped
                    // by the hub and can never corrupt leader state.
                    if let Some(hub) = shared.backend.log.as_ref().and_then(|log| log.repl_hub()) {
                        hub.ack(job.session, acked);
                    }
                    continue; // acks carry no reply
                }
                ClientMsg::Bye => {
                    replies.push(ServerMsg::ByeOk.encode());
                    close = true;
                    break;
                }
                _ => {
                    replies.push(error_body(ErrorCode::BadState, STREAM_ONLY));
                    close = true;
                    break;
                }
            }
        }
        match msg {
            ClientMsg::Hello(h) => {
                if hello.is_some() {
                    replies.push(error_body(ErrorCode::Protocol, "duplicate HELLO"));
                    continue;
                }
                if let Err((code, detail)) =
                    validate_hello::<S>(&h, shared.backend.service.is_windowed())
                {
                    replies.push(error_body(code, detail));
                    close = true;
                    break;
                }
                replies.push(
                    ServerMsg::HelloOk(HelloOk {
                        kind: h.kind,
                        wire_version: h.wire_version,
                        windowed: h.windowed,
                        domain: shared.backend.service.snapshot().domain() as u64,
                    })
                    .encode(),
                );
                hello = Some(h);
            }
            // Never reached: the handler above takes every REPORT on an
            // ingest session and the stream guard closes every REPORT on
            // a replication one. Exhaustiveness wants an arm; it answers
            // what the guard would.
            ClientMsg::Report(_) => {
                replies.push(error_body(ErrorCode::BadState, STREAM_ONLY));
                close = true;
                break;
            }
            ClientMsg::Query(query) => {
                if hello.is_none() {
                    replies.push(error_body(ErrorCode::BadState, "QUERY before HELLO"));
                    close = true;
                    break;
                }
                let (reply, ok) = match shared.backend.query(&query) {
                    Ok(reply) => (ServerMsg::QueryOk(reply), true),
                    Err(e) => (ServerMsg::Error(e), false),
                };
                replies.push(reply.encode());
                observe(shared, span, job.session, MSG_QUERY, ok, started);
            }
            ClientMsg::Seal => {
                if hello.is_none() {
                    replies.push(error_body(ErrorCode::BadState, "SEAL before HELLO"));
                    close = true;
                    break;
                }
                let (reply, ok) = match shared.backend.seal() {
                    Ok(epoch) => (ServerMsg::SealOk { epoch }, true),
                    Err(e) => (ServerMsg::Error(e), false),
                };
                replies.push(reply.encode());
                observe(shared, span, job.session, MSG_SEAL, ok, started);
            }
            ClientMsg::Status => {
                // No handshake required: STATUS names no report kind, so
                // an operator tool can probe any server blind.
                let (reply, ok) = match build_status(shared) {
                    Ok(status) => (ServerMsg::StatusOk(status), true),
                    Err(e) => (ServerMsg::Error(e), false),
                };
                replies.push(reply.encode());
                observe(shared, span, job.session, MSG_STATUS, ok, started);
            }
            ClientMsg::Replicate { start } => {
                // Allowed before HELLO only (like STATUS it names no
                // report kind) — and *instead of* it: a stream session
                // never negotiates a report session.
                if hello.is_some() {
                    replies.push(error_body(
                        ErrorCode::BadState,
                        "REPLICATE on a negotiated report session",
                    ));
                    close = true;
                    break;
                }
                match setup_replication(shared, job.session, start) {
                    Ok((reply, source)) => {
                        replies.push(reply);
                        repl = true;
                        push = Some(source);
                        observe(shared, span, job.session, MSG_REPLICATE, true, started);
                        // Anything pipelined after this body hits the
                        // stream-session guard above.
                    }
                    Err((code, detail)) => {
                        replies.push(error_body(code, detail));
                        observe(shared, span, job.session, MSG_REPLICATE, false, started);
                        close = true;
                        break;
                    }
                }
            }
            ClientMsg::ReplAck { .. } => {
                replies.push(error_body(
                    ErrorCode::BadState,
                    "REPL_ACK outside a replication stream",
                ));
                close = true;
                break;
            }
            ClientMsg::Bye => {
                replies.push(ServerMsg::ByeOk.encode());
                close = true;
                break;
            }
        }
    }
    // A loop runs many sessions; never leak a span into the next job.
    set_current_span(None);
    JobDone {
        hello,
        replies,
        repl,
        push,
        close,
    }
}

/// A granted replication stream: the encoded `REPL_OK` reply plus the
/// push source feeding the session, or the typed refusal to send back.
type ReplGrant = Result<(Vec<u8>, Box<dyn PushSource>), (ErrorCode, String)>;

/// Subscribes a session to the leader's log and builds its push stream:
/// the hub admits the position, the cursor opens the log, and the
/// `REPL_OK` reply carries the leader's record count. Any failure after
/// the subscription unsubscribes before reporting, so a refused stream
/// leaks nothing.
fn setup_replication<S>(shared: &Shared<S>, session: u64, start: u64) -> ReplGrant
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let Some(log) = &shared.backend.log else {
        return Err((
            ErrorCode::ReplUnavailable,
            "replication requires a durable backend (no write-ahead log to stream)".to_string(),
        ));
    };
    let Some(hub) = log.repl_hub() else {
        return Err((
            ErrorCode::ReplUnavailable,
            "replication hub unavailable: the store could not state its log".to_string(),
        ));
    };
    hub.subscribe(session, start)
        .map_err(|detail| (ErrorCode::ReplUnavailable, detail))?;
    match ReplCursor::new(Arc::clone(hub), session, log.dir(), start) {
        Ok(cursor) => {
            let reply = ServerMsg::ReplOk {
                start,
                leader_records: hub.records(),
            }
            .encode();
            Ok((reply, Box::new(cursor)))
        }
        Err(e) => {
            hub.unsubscribe(session);
            Err((
                ErrorCode::Internal,
                format!("opening a log cursor for the stream failed: {e}"),
            ))
        }
    }
}

/// Assembles the STATUS reply from the server counters, the backend's
/// published snapshot (no refresh — probing must stay cheap), and the
/// durable layer's progress.
fn build_status<S>(shared: &Shared<S>) -> Result<StatusReply, RemoteError>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    Ok(StatusReply {
        sessions: shared.obs.sessions_closed.get(),
        frames_absorbed: shared.obs.frames_absorbed.get(),
        frames_rejected: shared.obs.frames_rejected.get(),
        num_reports: shared.backend.service.num_reports(),
        snapshot_version: shared.backend.service.snapshot().version(),
        current_epoch: shared.backend.service.current_epoch().ok(),
        // A durable server whose store cannot state its progress (a
        // poisoned WAL lock) answers with an error: it must never pass
        // for a non-durable one to the probe built to watch durability.
        durable: shared
            .backend
            .log
            .as_ref()
            .map(|log| log.status())
            .transpose()
            .map_err(service_error)?,
    })
}

fn validate_hello<S>(hello: &Hello, windowed: bool) -> Result<(), (ErrorCode, String)>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let mode = |windowed: bool| if windowed { "windowed" } else { "unwindowed" };
    if hello.kind != S::Report::KIND {
        return Err((
            ErrorCode::KindMismatch,
            format!(
                "server aggregates kind {}, client proposed kind {}",
                S::Report::KIND,
                hello.kind
            ),
        ));
    }
    if hello.windowed != windowed {
        return Err((
            ErrorCode::EpochModeMismatch,
            format!(
                "server is {}, client proposed {}",
                mode(windowed),
                mode(hello.windowed)
            ),
        ));
    }
    if hello.wire_version == WIRE_EPOCH && !windowed {
        return Err((
            ErrorCode::WireVersionMismatch,
            "epoch-tagged frames (wire v2) against an unwindowed service".to_string(),
        ));
    }
    debug_assert!(hello.wire_version == WIRE_V1 || hello.wire_version == WIRE_EPOCH);
    Ok(())
}
