//! [`FollowerService`] — a hot standby / read replica built from a
//! [`DurableService`] fed by a leader's replication stream.

use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use ldp_ranges::{PersistableServer, SubtractableServer};

use crate::error::ServiceError;
use crate::obs::instruments::ReplInstruments;
use crate::obs::trace::set_current_span;
use crate::obs::{TraceEvent, TraceOutcome, TraceStage};
use crate::repl::feed::ReplFeed;
use crate::snapshot::SnapshotSource;
use crate::storage::recovery::RecoveryReport;
use crate::storage::wal::WalRecord;
use crate::storage::{DurableConfig, DurableService};
use crate::wire::WireReport;

/// Acknowledge progress to the leader after this many applied records
/// (plus immediately after every SEAL or CHECKPOINT, the natural commit
/// boundaries), so lag gauges stay fresh without an ack per record.
const ACK_EVERY: u64 = 32;

/// Most records pulled off the feed per pump iteration. Bounds the
/// memory of one batched apply and keeps ack latency bounded while a
/// cold follower drains a deep backlog.
const BATCH_MAX: usize = 256;

/// How long the pump thread blocks on the feed before re-checking the
/// stop flag — bounds how long [`FollowerService::promote`] waits.
const IDLE_POLL: Duration = Duration::from_millis(200);

/// A durable service kept in sync with a remote leader by applying its
/// streamed WAL records.
///
/// The follower opens (or resumes) its **own** durable log, computes
/// its position from that log's length (positions count every record,
/// checkpoint markers included), subscribes at exactly that position,
/// and applies each pushed record through the same absorb/seal paths
/// live ingestion uses — all-or-nothing, so its state at position `p`
/// is bit-identical to the leader's at `p`. Records are re-framed into
/// the follower's log before the ack, and a record half-received at
/// disconnect is simply not applied (the stream analogue of the WAL
/// torn-tail rule): restarting resumes from the local tail.
///
/// Queries are served from the inner service's snapshots (expose it
/// over the socket with [`crate::net::server::LdpServer::bind_replica`]);
/// [`FollowerService::promote`] stops replication and hands the inner
/// durable service back as a normal leader.
pub struct FollowerService<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    service: Arc<DurableService<S>>,
    stop: Arc<AtomicBool>,
    position: Arc<AtomicU64>,
    leader_records: Arc<AtomicU64>,
    pump: Option<JoinHandle<()>>,
    last_error: Arc<Mutex<Option<String>>>,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl<S> FollowerService<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    /// Opens a *plain* follower in `dir`, recovering any local log
    /// first, and connects to the leader at `leader_addr` from the
    /// local tail position.
    ///
    /// # Errors
    ///
    /// Anything [`DurableService::open`] can raise, a local log that
    /// does not retain its origin (a follower must never checkpoint),
    /// or a refused/failed subscription ([`ServiceError::Io`] carrying
    /// the connect diagnosis).
    pub fn open(
        dir: impl AsRef<Path>,
        prototype: &S,
        leader_addr: &str,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let (service, report) =
            DurableService::open(dir, prototype, Self::follower_config(config))?;
        Ok((Self::start(Arc::new(service), leader_addr)?, report))
    }

    /// Opens a *windowed* follower; see [`FollowerService::open`].
    ///
    /// # Errors
    ///
    /// As [`FollowerService::open`], plus `window_len == 0`.
    pub fn open_windowed(
        dir: impl AsRef<Path>,
        prototype: &S,
        window_len: usize,
        leader_addr: &str,
        config: DurableConfig,
    ) -> Result<(Self, RecoveryReport), ServiceError> {
        let (service, report) = DurableService::open_windowed(
            dir,
            prototype,
            window_len,
            Self::follower_config(config),
        )?;
        Ok((Self::start(Arc::new(service), leader_addr)?, report))
    }

    /// A follower never checkpoints: its log must keep its origin so
    /// its length stays equal to its replication position.
    fn follower_config(mut config: DurableConfig) -> DurableConfig {
        config.checkpoint_every_records = 0;
        config
    }

    fn start(service: Arc<DurableService<S>>, leader_addr: &str) -> Result<Self, ServiceError> {
        let (records, origin) = service.scan_log()?;
        if !origin {
            return Err(ServiceError::Io(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "follower log does not start at segment 0 — it was checkpointed and cannot \
                 state its replication position",
            )));
        }
        // Subscribe synchronously so connect/refusal errors surface at
        // open instead of dying silently inside the pump thread.
        let mut feed = ReplFeed::connect(leader_addr, records).map_err(|e| {
            ServiceError::Io(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                format!("replication subscription to {leader_addr} failed: {e}"),
            ))
        })?;
        feed.set_idle_timeout(IDLE_POLL).map_err(|e| {
            ServiceError::Io(std::io::Error::other(format!(
                "replication feed setup failed: {e}"
            )))
        })?;

        let stop = Arc::new(AtomicBool::new(false));
        let position = Arc::new(AtomicU64::new(records));
        let leader_records = Arc::new(AtomicU64::new(feed.leader_records()));
        let last_error = Arc::new(Mutex::new(None));
        let obs = ReplInstruments::register(service.registry());

        let pump = {
            let service = Arc::clone(&service);
            let stop = Arc::clone(&stop);
            let position = Arc::clone(&position);
            let leader_records = Arc::clone(&leader_records);
            let last_error = Arc::clone(&last_error);
            std::thread::Builder::new()
                .name("ldp-repl-follower".into())
                .spawn(move || {
                    if let Err(e) =
                        pump_loop(&service, &mut feed, &stop, &position, &leader_records, &obs)
                    {
                        *lock(&last_error) = Some(e);
                    }
                })
                .map_err(ServiceError::Io)?
        };

        Ok(Self {
            service,
            stop,
            position,
            leader_records,
            pump: Some(pump),
            last_error,
        })
    }

    /// Records applied and durably logged locally — the follower's
    /// replication position.
    #[must_use]
    pub fn position(&self) -> u64 {
        self.position.load(Ordering::SeqCst)
    }

    /// The leader's record count as last observed over the stream — the
    /// follower's lag is `leader_records() - position()`.
    #[must_use]
    pub fn leader_records(&self) -> u64 {
        self.leader_records.load(Ordering::SeqCst)
    }

    /// The inner durable service — serve QUERY/STATUS from its
    /// snapshots (read replica). Writes must never go through this
    /// handle while replication runs; the socket front end enforces
    /// that for remote clients via
    /// [`crate::net::server::LdpServer::bind_replica`].
    #[must_use]
    pub fn service(&self) -> &Arc<DurableService<S>> {
        &self.service
    }

    /// Whether the pump thread is still streaming. `false` means the
    /// stream ended — [`FollowerService::last_error`] says why.
    #[must_use]
    pub fn running(&self) -> bool {
        self.pump.as_ref().is_some_and(|p| !p.is_finished())
    }

    /// The diagnosis of a dead stream, if it died. A clean leader
    /// shutdown is an error here too ("leader closed the stream") —
    /// the caller decides whether to reconnect or promote.
    #[must_use]
    pub fn last_error(&self) -> Option<String> {
        lock(&self.last_error).clone()
    }

    /// Stops replication and promotes the follower into a normal
    /// durable leader over its replicated log: the pump is joined, the
    /// log fsynced, and the inner service handed back. The caller can
    /// then ingest into it directly or serve it with
    /// [`crate::net::server::LdpServer::bind_durable`].
    ///
    /// # Errors
    ///
    /// A failed final fsync (the service is wedged; the log still holds
    /// every acked record).
    pub fn promote(mut self) -> Result<Arc<DurableService<S>>, ServiceError> {
        self.shutdown();
        self.service.sync()?;
        Ok(Arc::clone(&self.service))
    }

    fn shutdown(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(pump) = self.pump.take() {
            let _ = pump.join();
        }
    }
}

impl<S> Drop for FollowerService<S>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    fn drop(&mut self) {
        self.shutdown();
    }
}

/// The pump: drain a run of records off the feed, apply + log the run
/// under one exclusive order lock, ack at batch and commit boundaries. Returns the
/// stream's cause of death as a string (a stopped pump via the stop
/// flag returns `Ok`).
fn pump_loop<S>(
    service: &DurableService<S>,
    feed: &mut ReplFeed,
    stop: &AtomicBool,
    position: &AtomicU64,
    leader_records: &AtomicU64,
    obs: &ReplInstruments,
) -> Result<(), String>
where
    S: SnapshotSource + SubtractableServer + PersistableServer + 'static,
    S::Report: WireReport,
{
    let mut unacked = 0u64;
    loop {
        if stop.load(Ordering::SeqCst) {
            // Flush the final position so the leader's lag gauge is
            // accurate at the moment the follower detaches.
            let _ = feed.ack(position.load(Ordering::SeqCst));
            return Ok(());
        }
        let pushed = match feed.next_records(BATCH_MAX) {
            Ok(batch) if batch.is_empty() => {
                let leader = feed.leader_records();
                leader_records.store(leader, Ordering::SeqCst);
                obs.follower_lag_records
                    .set(leader.saturating_sub(position.load(Ordering::SeqCst)));
                continue;
            }
            Ok(batch) => batch,
            Err(e) => return Err(format!("replication stream ended: {e}")),
        };
        // Position continuity: the run must carry exactly the records
        // the local log expects next, in order.
        let start = position.load(Ordering::SeqCst);
        let mut expected = start;
        let mut records = Vec::with_capacity(pushed.len());
        for (at, body) in &pushed {
            if *at != expected {
                return Err(format!(
                    "leader pushed record {at} but the follower is at {expected} — \
                     the stream and the local log have diverged"
                ));
            }
            expected += 1;
            let record = WalRecord::decode_body(body)
                .map_err(|e| format!("pushed WAL record {at} is malformed: {e}"))?;
            records.push((*at, record));
        }
        let boundary = records
            .iter()
            .any(|(_, r)| !matches!(r, WalRecord::Frames { .. }));
        // The span of a replicated record is its leader-assigned log
        // position: the one id both sides already agree on, so a
        // leader's WalAppend and the follower's ReplApply for the same
        // record correlate without a wire change. The batched apply
        // stamps each record's own position onto its WalAppend; here
        // each record gets its ReplApply event with the run's wall time
        // amortized across its records.
        let started = Instant::now();
        let applied = service.apply_replicated_batch(&records);
        set_current_span(None);
        if let Some(trace) = service.trace() {
            let elapsed = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
            let per_record = elapsed / records.len() as u64;
            for (at, _) in &records {
                trace.record(TraceEvent {
                    span: *at,
                    session: 0,
                    stage: TraceStage::ReplApply,
                    msg_type: 0,
                    outcome: if applied.is_ok() {
                        TraceOutcome::Ok
                    } else {
                        TraceOutcome::Error
                    },
                    ns: per_record,
                });
            }
        }
        applied
            .map_err(|e| format!("applying replicated records {start}..{expected} failed: {e}"))?;
        position.store(expected, Ordering::SeqCst);
        let leader = feed.leader_records();
        leader_records.store(leader, Ordering::SeqCst);
        obs.follower_lag_records
            .set(leader.saturating_sub(expected));
        obs.records_applied.add(records.len() as u64);
        unacked += records.len() as u64;
        if unacked >= ACK_EVERY || boundary {
            if let Err(e) = feed.ack(expected) {
                return Err(format!("acknowledging position {expected} failed: {e}"));
            }
            unacked = 0;
        }
    }
}
