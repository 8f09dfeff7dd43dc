//! The system under test, seen from outside. Every call into the product
//! crates is in this module, so a change to their public surface is a
//! change to this file only. The surface is kept to what a deployment
//! uses: the socket server and client, the durable store, the follower,
//! the in-process service, the snapshot, the frame codec, the mergeable
//! server algebra and the three transforms. No `ShardedAggregator`, no
//! refresh or poller switches, no METRICS/STATUS messages, no registry.

use std::path::Path;
use std::sync::Arc;

use ldp_freq_oracle::{AnyOracle, AnyReport, Epsilon, FrequencyOracle, PointOracle};
use ldp_ranges::{
    HaarConfig, HaarHrrClient, HaarHrrReport, HaarHrrServer, HhClient, HhConfig, HhReport,
    HhServer, MergeableServer, PersistableServer, SubtractableServer,
};
use ldp_service::net::{NetConfig, WIRE_EPOCH, WIRE_V1};
use ldp_service::wire::encode_epoch_frame;
use ldp_service::{
    decode_epoch_frame, decode_frame, DurableConfig, DurableService, EpochRing, FollowerService,
    FsyncPolicy, Hello, LdpClient, LdpServer, LdpService, RangeSnapshot, SnapshotSource,
    WireReport,
};
use ldp_transforms::{CompleteTree, FlatTree};
use ldp_workloads::{CauchyParams, Dataset, DistributionKind};
use rand::rngs::StdRng;

pub use ldp_service::net::{Query, QueryOp, QueryResult};

use crate::workloads::{
    Backend, Mechanism, BATCH, EXP_EPSILON, FANOUT, SHARDS, WAL_SEGMENT_BYTES, WINDOW_LEN, WORKERS,
};

type Res<T> = Result<T, String>;

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

// --- mechanisms --------------------------------------------------------

/// One range-query mechanism: its client side and an empty server.
pub trait Mech: Sync {
    type Report: WireReport + Clone + Send + Sync + 'static;
    type Server: SnapshotSource
        + SubtractableServer
        + PersistableServer
        + MergeableServer<Report = Self::Report>
        + 'static;

    fn prototype(&self) -> Self::Server;
    fn encode(&self, value: usize, rng: &mut StdRng) -> Self::Report;
}

pub struct Hh {
    client: HhClient,
    prototype: HhServer,
}

impl Hh {
    pub fn new(mechanism: Mechanism, domain: usize) -> Res<Self> {
        let oracle = match mechanism {
            Mechanism::HhHrr => FrequencyOracle::Hrr,
            _ => FrequencyOracle::Oue,
        };
        let config = HhConfig::with_oracle(domain, FANOUT, epsilon(), oracle).map_err(err)?;
        Ok(Self {
            client: HhClient::new(config.clone()).map_err(err)?,
            prototype: HhServer::new(config).map_err(err)?,
        })
    }
}

impl Mech for Hh {
    type Report = HhReport;
    type Server = HhServer;

    fn prototype(&self) -> HhServer {
        self.prototype.clone()
    }

    fn encode(&self, value: usize, rng: &mut StdRng) -> HhReport {
        self.client
            .report(value, rng)
            .expect("value drawn in-domain")
    }
}

pub struct Haar {
    client: HaarHrrClient,
    prototype: HaarHrrServer,
}

impl Haar {
    pub fn new(domain: usize) -> Res<Self> {
        let config = HaarConfig::new(domain, epsilon()).map_err(err)?;
        Ok(Self {
            client: HaarHrrClient::new(config.clone()).map_err(err)?,
            prototype: HaarHrrServer::new(config).map_err(err)?,
        })
    }
}

impl Mech for Haar {
    type Report = HaarHrrReport;
    type Server = HaarHrrServer;

    fn prototype(&self) -> HaarHrrServer {
        self.prototype.clone()
    }

    fn encode(&self, value: usize, rng: &mut StdRng) -> HaarHrrReport {
        self.client
            .report(value, rng)
            .expect("value drawn in-domain")
    }
}

fn epsilon() -> Epsilon {
    Epsilon::from_exp(EXP_EPSILON)
}

// --- population --------------------------------------------------------

/// The user population: a Cauchy histogram (the paper's default shape)
/// that values are drawn from and answers are scored against.
pub struct Population(Dataset);

impl Population {
    pub fn sample(domain: usize, users: u64, rng: &mut StdRng) -> Self {
        let kind = DistributionKind::Cauchy(CauchyParams::paper_default());
        Self(Dataset::sample(kind, domain, users, rng))
    }

    pub fn draw(&self, rng: &mut StdRng) -> usize {
        self.0.sample_value(rng)
    }

    pub fn true_range(&self, a: usize, b: usize) -> f64 {
        self.0.true_range(a, b)
    }

    pub fn true_quantile(&self, phi: f64) -> usize {
        self.0.true_quantile(phi)
    }
}

// --- frames ------------------------------------------------------------

/// Wire frames back to back plus their offsets — what a relay holds
/// before it ships REPORT batches.
pub struct Stream {
    buf: Vec<u8>,
    offsets: Vec<usize>,
    pub wire_version: u8,
}

impl Stream {
    /// Encodes `reports`, epoch-tagged (wire v2) when `epoch` is given.
    pub fn encode<R: WireReport>(reports: &[R], epoch: Option<u64>) -> Self {
        let mut buf = Vec::new();
        let mut offsets = Vec::with_capacity(reports.len() + 1);
        offsets.push(0);
        for report in reports {
            match epoch {
                Some(e) => encode_epoch_frame(report, e, &mut buf),
                None => report.encode_frame(&mut buf),
            }
            offsets.push(buf.len());
        }
        Self {
            buf,
            offsets,
            wire_version: if epoch.is_some() { WIRE_EPOCH } else { WIRE_V1 },
        }
    }

    pub fn len(&self) -> usize {
        self.offsets.len() - 1
    }

    pub fn total_bytes(&self) -> usize {
        self.buf.len()
    }

    /// Number of REPORT batches the stream splits into.
    pub fn num_batches(&self) -> usize {
        self.len().div_ceil(BATCH)
    }

    /// Batch `i`: its frame count and contiguous bytes.
    pub fn batch(&self, i: usize) -> (u64, &[u8]) {
        let lo = i * BATCH;
        let hi = (lo + BATCH).min(self.len());
        (
            (hi - lo) as u64,
            &self.buf[self.offsets[lo]..self.offsets[hi]],
        )
    }

    /// The first `batches` batches as one span.
    pub fn prefix(&self, batches: usize) -> (u64, &[u8]) {
        let hi = (batches * BATCH).min(self.len());
        (hi as u64, &self.buf[..self.offsets[hi]])
    }

    /// Decodes the frames of batch `i`, one `decode_frame` call each.
    pub fn decode_batch<R: WireReport>(&self, i: usize) -> Res<Vec<R>> {
        let lo = i * BATCH;
        let hi = (lo + BATCH).min(self.len());
        let mut reports = Vec::with_capacity(hi - lo);
        for w in self.offsets[lo..=hi].windows(2) {
            let frame = &self.buf[w[0]..w[1]];
            let report = if self.wire_version == WIRE_EPOCH {
                decode_epoch_frame::<R>(frame).map_err(err)?.1
            } else {
                decode_frame::<R>(frame).map_err(err)?.0
            };
            reports.push(report);
        }
        Ok(reports)
    }
}

/// Absorbs pre-decoded reports into one server — the mechanism's own
/// cost, with no codec and no service around it.
pub fn absorb_all<S: MergeableServer>(server: &mut S, reports: &[S::Report]) -> Res<()> {
    reports
        .iter()
        .try_for_each(|r| server.absorb(r).map_err(err))
}

// --- in-process service ------------------------------------------------

/// The sharded in-memory service, all-time or windowed.
pub enum InProc<M: Mech> {
    Plain(Arc<LdpService<M::Server>>),
    Windowed(Arc<LdpService<EpochRing<M::Server>>>),
}

impl<M: Mech> InProc<M> {
    pub fn new(mech: &M, windowed: bool, shards: usize) -> Res<Self> {
        let proto = mech.prototype();
        Ok(if windowed {
            Self::Windowed(Arc::new(
                LdpService::windowed(&proto, shards, WINDOW_LEN).map_err(err)?,
            ))
        } else {
            Self::Plain(Arc::new(LdpService::new(&proto, shards).map_err(err)?))
        })
    }

    /// One REPORT batch, staged and committed all-or-nothing.
    pub fn submit(&self, wire_version: u8, count: u64, frames: &[u8]) -> Res<u64> {
        match self {
            Self::Plain(s) => s.submit_wire_batch(wire_version, count, frames),
            Self::Windowed(s) => s.submit_epoch_wire_batch(wire_version, count, frames),
        }
        .map_err(err)
    }

    pub fn seal(&self) -> Res<u64> {
        match self {
            Self::Plain(_) => Err("seal on an unwindowed service".into()),
            Self::Windowed(s) => s.seal_epoch().map_err(err),
        }
    }

    pub fn refresh(&self) -> Res<Arc<RangeSnapshot>> {
        match self {
            Self::Plain(s) => s.refresh_snapshot(),
            Self::Windowed(s) => s.refresh_snapshot(),
        }
        .map_err(err)
    }

    /// Freezes the trailing `epochs` sealed epochs.
    pub fn window_snapshot(&self, epochs: usize) -> Res<RangeSnapshot> {
        match self {
            Self::Plain(_) => Err("window snapshot on an unwindowed service".into()),
            Self::Windowed(s) => Ok(s.window_snapshot(epochs).map_err(err)?.snapshot().clone()),
        }
    }

    /// All shards merged into one server.
    pub fn state(&self) -> Res<State<M>> {
        Ok(match self {
            Self::Plain(s) => State::Plain(s.merged_state().map_err(err)?),
            Self::Windowed(s) => State::Windowed(s.merged_state().map_err(err)?),
        })
    }
}

/// Merged server state: integer sufficient statistics, so `merge` is
/// exact and a stream replayed `k` times equals one pass merged with
/// itself `k` times.
pub enum State<M: Mech> {
    Plain(M::Server),
    Windowed(EpochRing<M::Server>),
}

impl<M: Mech> Clone for State<M> {
    fn clone(&self) -> Self {
        match self {
            Self::Plain(s) => Self::Plain(s.clone()),
            Self::Windowed(s) => Self::Windowed(s.clone()),
        }
    }
}

impl<M: Mech> State<M> {
    pub fn merge(&mut self, other: &Self) -> Res<()> {
        match (self, other) {
            (Self::Plain(a), Self::Plain(b)) => a.merge(b).map_err(err),
            (Self::Windowed(a), Self::Windowed(b)) => a.merge(b).map_err(err),
            _ => Err("merge of a plain and a windowed state".into()),
        }
    }

    /// This state counted `k ≥ 1` times, by doubling.
    pub fn times(&self, mut k: u64) -> Res<Self> {
        let mut power = self.clone();
        let mut acc: Option<Self> = None;
        loop {
            if k & 1 == 1 {
                match &mut acc {
                    None => acc = Some(power.clone()),
                    Some(a) => a.merge(&power)?,
                }
            }
            k >>= 1;
            if k == 0 {
                return acc.ok_or_else(|| "times(0)".into());
            }
            let copy = power.clone();
            power.merge(&copy)?;
        }
    }

    pub fn num_reports(&self) -> u64 {
        match self {
            Self::Plain(s) => s.num_reports(),
            Self::Windowed(s) => s.num_reports(),
        }
    }

    /// The mechanism's estimator alone (constrained inference or Haar
    /// inverse), without the snapshot's prefix sums.
    pub fn estimate(&self) -> usize {
        match self {
            Self::Plain(s) => s.frequency_estimate().frequencies().len(),
            Self::Windowed(s) => s.frequency_estimate().frequencies().len(),
        }
    }

    pub fn freeze(&self) -> RangeSnapshot {
        match self {
            Self::Plain(s) => RangeSnapshot::freeze(s, 0),
            Self::Windowed(s) => RangeSnapshot::freeze(s, 0),
        }
    }

    /// The trailing `epochs` sealed epochs of a windowed state.
    pub fn window(&self, epochs: usize) -> Res<RangeSnapshot> {
        match self {
            Self::Plain(_) => Err("window of an unwindowed state".into()),
            Self::Windowed(s) => Ok(s.window_snapshot(epochs).map_err(err)?.snapshot().clone()),
        }
    }
}

/// Answers `op` from a snapshot, as the server does for a QUERY.
pub fn answer(snapshot: &RangeSnapshot, op: QueryOp) -> QueryResult {
    match op {
        QueryOp::Range { a, b } => QueryResult::Fraction(snapshot.range(a as usize, b as usize)),
        QueryOp::Prefix { b } => QueryResult::Fraction(snapshot.prefix(b as usize)),
        QueryOp::Point { z } => QueryResult::Fraction(snapshot.point(z as usize)),
        QueryOp::Quantile { phi } => QueryResult::Index(snapshot.quantile(phi) as u64),
    }
}

/// Whether two answers are the same bits.
pub fn same_answer(a: QueryResult, b: QueryResult) -> bool {
    match (a, b) {
        (QueryResult::Fraction(x), QueryResult::Fraction(y)) => x.to_bits() == y.to_bits(),
        (QueryResult::Index(x), QueryResult::Index(y)) => x == y,
        _ => false,
    }
}

/// Whether two snapshots hold the same report count and bit-identical
/// per-item estimates.
pub fn same_snapshot(a: &RangeSnapshot, b: &RangeSnapshot) -> bool {
    let (fa, fb) = (a.estimate().frequencies(), b.estimate().frequencies());
    a.num_reports() == b.num_reports()
        && fa.len() == fb.len()
        && fa.iter().zip(fb).all(|(x, y)| x.to_bits() == y.to_bits())
}

pub fn snapshot_reports(snapshot: &RangeSnapshot) -> u64 {
    snapshot.num_reports()
}

// --- durable store -----------------------------------------------------

pub struct Durable<M: Mech>(Arc<DurableService<M::Server>>);

/// The log is written but never fsynced while a phase is timed: the
/// sandbox's disk is a rate-limited virtual device whose fsync latency
/// says how much earlier runs wrote, not how the storage tier performs.
/// What is timed is the tier's own work — framing, CRC, coalescing and
/// the write calls — and every byte still reaches the disk at shutdown.
fn durable_config() -> DurableConfig {
    DurableConfig {
        num_shards: SHARDS,
        segment_bytes: WAL_SEGMENT_BYTES,
        fsync: FsyncPolicy::Never,
        checkpoint_every_records: 0,
        ..DurableConfig::default()
    }
}

impl<M: Mech> Durable<M> {
    /// Opens (recovering whatever `dir` holds) and returns the store with
    /// the number of frames replay re-absorbed.
    pub fn open(mech: &M, dir: &Path, windowed: bool) -> Res<(Self, u64)> {
        let proto = mech.prototype();
        let (service, report) = if windowed {
            DurableService::open_windowed(dir, &proto, WINDOW_LEN, durable_config())
        } else {
            DurableService::open(dir, &proto, durable_config())
        }
        .map_err(err)?;
        Ok((Self(Arc::new(service)), report.frames_replayed))
    }

    pub fn ingest(&self, wire_version: u8, count: u64, frames: &[u8]) -> Res<u64> {
        self.0
            .ingest_batch(wire_version, count, frames)
            .map_err(err)
    }

    pub fn sync(&self) -> Res<()> {
        self.0.sync().map_err(err)
    }

    pub fn checkpoint(&self) -> Res<u64> {
        self.0.checkpoint().map_err(err)
    }

    pub fn refresh(&self) -> Res<Arc<RangeSnapshot>> {
        self.0.refresh_snapshot().map_err(err)
    }
}

/// A cold standby draining a leader's log over a socket.
pub struct Follower<M: Mech>(FollowerService<M::Server>);

impl<M: Mech> Follower<M> {
    pub fn open(mech: &M, dir: &Path, leader: &str, windowed: bool) -> Res<Self> {
        let proto = mech.prototype();
        let (follower, _) = if windowed {
            FollowerService::open_windowed(dir, &proto, WINDOW_LEN, leader, durable_config())
        } else {
            FollowerService::open(dir, &proto, leader, durable_config())
        }
        .map_err(err)?;
        Ok(Self(follower))
    }

    /// WAL records applied and logged locally.
    pub fn position(&self) -> u64 {
        self.0.position()
    }

    pub fn last_error(&self) -> Option<String> {
        self.0.last_error()
    }

    pub fn promote(self) -> Res<Durable<M>> {
        self.0.promote().map(Durable).map_err(err)
    }
}

// --- socket server and client ------------------------------------------

enum Handle<M: Mech> {
    Mem(InProc<M>),
    Durable(Durable<M>),
}

/// A running server on a loopback port, with an in-process handle on its
/// backend (a deployment keeps one too, to checkpoint and to query).
pub struct Sut<M: Mech> {
    server: LdpServer<M::Server>,
    handle: Handle<M>,
    windowed: bool,
}

impl<M: Mech> Sut<M> {
    pub fn start(mech: &M, backend: Backend, dir: &Path) -> Res<Self> {
        match backend {
            Backend::Durable => Self::serve_durable(Durable::open(mech, dir, false)?.0, false),
            Backend::Plain => Self::serve_mem(InProc::new(mech, false, SHARDS)?),
            Backend::Windowed => Self::serve_mem(InProc::new(mech, true, SHARDS)?),
        }
    }

    pub fn serve_mem(service: InProc<M>) -> Res<Self> {
        let (server, windowed) = match &service {
            InProc::Plain(s) => (
                LdpServer::bind("127.0.0.1:0", Arc::clone(s), net_config()),
                false,
            ),
            InProc::Windowed(s) => (
                LdpServer::bind_windowed("127.0.0.1:0", Arc::clone(s), net_config()),
                true,
            ),
        };
        Ok(Self {
            server: server.map_err(err)?,
            handle: Handle::Mem(service),
            windowed,
        })
    }

    pub fn serve_durable(store: Durable<M>, windowed: bool) -> Res<Self> {
        let server = LdpServer::bind_durable("127.0.0.1:0", Arc::clone(&store.0), net_config());
        Ok(Self {
            server: server.map_err(err)?,
            handle: Handle::Durable(store),
            windowed,
        })
    }

    pub fn addr(&self) -> String {
        self.server.local_addr().to_string()
    }

    /// Opens a session that will ship frames of `wire_version`.
    pub fn connect(&self, wire_version: u8) -> Res<Conn> {
        let hello = Hello {
            kind: M::Report::KIND,
            wire_version,
            windowed: self.windowed,
        };
        LdpClient::connect(self.server.local_addr(), hello)
            .map(Conn)
            .map_err(err)
    }

    /// Publishes and returns a fresh snapshot through the in-process
    /// handle (what the server does for every QUERY).
    pub fn refresh(&self) -> Res<Arc<RangeSnapshot>> {
        match &self.handle {
            Handle::Mem(s) => s.refresh(),
            Handle::Durable(d) => d.refresh(),
        }
    }

    /// Drains, joins every server thread and returns the frames the
    /// server acked and rejected.
    pub fn shutdown(self) -> (u64, u64) {
        let stats = self.server.shutdown();
        (stats.frames_absorbed, stats.frames_rejected)
    }
}

fn net_config() -> NetConfig {
    NetConfig {
        workers: WORKERS,
        ..NetConfig::default()
    }
}

/// One negotiated client session.
pub struct Conn(LdpClient);

impl Conn {
    /// Sends one REPORT batch and waits for its ack.
    pub fn send_batch(&mut self, count: u64, frames: &[u8]) -> Res<u64> {
        self.0.send_batch(count, frames).map_err(err)
    }

    pub fn query(&mut self, query: Query) -> Res<QueryResult> {
        self.0.query(query).map(|r| r.result).map_err(err)
    }

    pub fn seal(&mut self) -> Res<u64> {
        self.0.seal_epoch().map_err(err)
    }

    pub fn bye(self) -> Res<()> {
        self.0.bye().map_err(err)
    }
}

// --- transforms and oracles, called directly ---------------------------

pub fn fwht(data: &mut [f64]) {
    ldp_transforms::fwht(data);
}

pub fn haar_inverse(coefficients: &[f64]) -> Vec<f64> {
    ldp_transforms::haar_inverse(coefficients)
}

/// An `HH_4` estimate tree over `domain` leaves with every level
/// summing to 1, as constrained inference expects.
pub struct Tree(FlatTree<f64>);

impl Tree {
    pub fn new(domain: usize, rng: &mut StdRng) -> Self {
        use rand::Rng;
        let shape = CompleteTree::new(FANOUT, domain);
        let mut tree = FlatTree::new(shape);
        for depth in 0..=shape.height() {
            let level = tree.level_mut(depth);
            let share = 1.0 / level.len() as f64;
            for node in level {
                *node = share * (0.5 + rng.random::<f64>());
            }
        }
        Self(tree)
    }

    pub fn enforce_consistency(&mut self) {
        ldp_ranges::hh::consistency::enforce_consistency(&mut self.0);
    }
}

pub const ORACLES: [&str; 4] = ["oue", "olh", "hrr", "sue"];

/// One frequency oracle of the paper's §3.2, both its sides.
pub struct Oracle(AnyOracle);

impl Oracle {
    pub fn new(name: &str, domain: usize) -> Res<Self> {
        let kind = match name {
            "oue" => FrequencyOracle::Oue,
            "olh" => FrequencyOracle::Olh,
            "hrr" => FrequencyOracle::Hrr,
            "sue" => FrequencyOracle::Sue,
            other => return Err(format!("unknown oracle {other}")),
        };
        AnyOracle::new(kind, domain, epsilon())
            .map(Self)
            .map_err(err)
    }

    pub fn encode(&self, values: &[usize], rng: &mut StdRng) -> Res<Vec<AnyReport>> {
        values
            .iter()
            .map(|&v| self.0.encode(v, rng).map_err(err))
            .collect()
    }

    pub fn absorb_all(&mut self, reports: &[AnyReport]) -> Res<()> {
        reports
            .iter()
            .try_for_each(|r| self.0.absorb(r).map_err(err))
    }

    pub fn estimate(&self) -> Vec<f64> {
        self.0.estimate()
    }
}
