//! The four workloads and the load shape they share. Every constant is
//! fixed here, sized for the two-core reference box; the host's core
//! count is recorded with each result, not used.

/// Connections, each driven by its own thread in a closed loop: the
/// callers are batching relays that wait for each REPORT ack. Four, not
/// two: two leave both cores idle half the time, and a round trip then
/// measures how fast the hypervisor wakes a halted core, which moved by
/// ±20 % from run to run; four keep the cores busy (spread under 5 %).
pub const CONNECTIONS: usize = 4;
/// Server worker threads and service shards.
pub const WORKERS: usize = 2;
pub const SHARDS: usize = 2;
/// Frames per REPORT message.
pub const BATCH: usize = 256;
/// `e^ε = 3`, the paper's default privacy level.
pub const EXP_EPSILON: f64 = 3.0;
/// Branching factor of the hierarchical mechanisms (`HH_4`).
pub const FANOUT: usize = 4;
/// Sealed epochs the windowed workload retains.
pub const WINDOW_LEN: usize = 4;
/// Trailing epochs a windowed query asks for.
pub const QUERY_WINDOW: u64 = 2;
/// WAL segment size of the durable workloads: larger than anything one
/// run logs, so no rotation (and its fsync) lands inside a timed phase.
pub const WAL_SEGMENT_BYTES: u64 = 256 << 20;
/// Server instances one run measures, each from set-up to shutdown; the
/// run reports the median instance (`setup_s` included).
pub const CYCLES: usize = 5;
/// A traced run spends half its time on the ladders instead.
pub const TRACED_CYCLES: usize = 2;
/// Ingest passes every cycle completes, however short `--seconds` is.
pub const MIN_PASSES: usize = 3;
/// Serve iterations per cycle at most: a median over 1000 samples gains
/// little from more, and every iteration of a durable workload logs a
/// batch.
pub const MAX_SERVE_ITERATIONS: usize = 1000;
/// Queries of the serve-phase mix pre-drawn from the seed.
pub const QUERY_POOL: usize = 4096;
/// Quiesced query replies checked against the reference snapshot.
pub const VERIFY_QUERIES: usize = 200;
/// Seeded ranges (and deciles) scored against the dataset's truth.
pub const ACCURACY_QUERIES: usize = 1000;
/// Share of `--seconds` the end-to-end phases measure for, summed over
/// the cycles; the rest is the verify queries and, in a traced run, the
/// ladders.
pub const INGEST_SHARE: f64 = 0.55;
pub const SERVE_SHARE: f64 = 0.35;
pub const TRACED_INGEST_SHARE: f64 = 0.30;
pub const TRACED_SERVE_SHARE: f64 = 0.15;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mechanism {
    /// `HH_4` with constrained inference, OUE level reports.
    HhOue,
    /// `HH_4` with constrained inference, HRR level reports.
    HhHrr,
    /// `HaarHRR`.
    HaarHrr,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// In-memory, all-time.
    Plain,
    /// In-memory epoch ring; frames are epoch-tagged (wire v2) and every
    /// ingest pass is one epoch closed by a timed SEAL.
    Windowed,
    /// Write-ahead logged.
    Durable,
}

#[derive(Debug, Clone, Copy)]
pub struct Spec {
    pub name: &'static str,
    /// Why the workload exists (one line; copied into `BENCHMARK.json`).
    pub why: &'static str,
    pub mechanism: Mechanism,
    pub domain: usize,
    pub backend: Backend,
    /// Distinct pre-encoded frames per connection per unit stream.
    pub unit_frames: usize,
    /// Times each connection replays its unit stream in one ingest pass;
    /// sized so a pass takes about a third of a second.
    pub replays: usize,
    /// Ingest passes per cycle at most (the windowed workload encodes
    /// this many epochs, and one more for the serve phase, in set-up).
    pub max_passes: usize,
    /// Frames each ladder rung processes per repetition.
    pub ladder_frames: usize,
}

impl Spec {
    #[cfg(test)]
    /// The same workload with `divisor` times less data — the unit tests
    /// run every workload at 1/1000 scale.
    pub fn scaled_down(mut self, divisor: usize) -> Self {
        let shrink = |n: usize, floor: usize| (n / divisor).max(floor);
        self.unit_frames = shrink(self.unit_frames, 2 * BATCH);
        self.ladder_frames = shrink(self.ladder_frames, 2 * BATCH);
        self.replays = 1;
        self.max_passes = self.max_passes.min(8);
        self
    }

    pub fn windowed(&self) -> bool {
        self.backend == Backend::Windowed
    }
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "hh_oue_d1k_wal",
        why: "HH4/OUE, D=2^10, WAL on: 44-byte frames make storage the largest ingest share; queries are cheap, so net dominates them",
        mechanism: Mechanism::HhOue,
        domain: 1 << 10,
        backend: Backend::Durable,
        unit_frames: 256 * BATCH,
        replays: 1,
        max_passes: 16,
        ladder_frames: 256 * BATCH,
    },
    Spec {
        name: "haar_hrr_d64k_wal",
        why: "HaarHRR, D=2^16, WAL on: 9-byte frames and O(1) absorb leave the per-batch O(D) staged clone as the ingest cost; queries pay the Haar inverse",
        mechanism: Mechanism::HaarHrr,
        domain: 1 << 16,
        backend: Backend::Durable,
        unit_frames: 2048 * BATCH,
        replays: 1,
        max_passes: 16,
        ladder_frames: 256 * BATCH,
    },
    Spec {
        name: "hh_oue_d64k_mem",
        why: "HH4/OUE, D=2^16, in memory: 1.4 KB frames make wire decode and absorb the work and bypass storage; queries run constrained inference over 87k nodes",
        mechanism: Mechanism::HhOue,
        domain: 1 << 16,
        backend: Backend::Plain,
        unit_frames: 16 * BATCH,
        replays: 8,
        max_passes: 16,
        ladder_frames: 32 * BATCH,
    },
    Spec {
        name: "hh_hrr_d1k_win_mem",
        why: "HH4/HRR, D=2^10, windowed in memory, epoch-tagged frames with a SEAL per pass: 10-byte frames and O(1) absorb leave net as the ingest cost; drives the epoch path",
        mechanism: Mechanism::HhHrr,
        domain: 1 << 10,
        backend: Backend::Windowed,
        unit_frames: 128 * BATCH,
        replays: 12,
        max_passes: 16,
        ladder_frames: 256 * BATCH,
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|w| w.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_in_the_metric_charset() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(crate::metrics::valid_name(w.name), "{}", w.name);
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert_eq!(w.unit_frames % BATCH, 0);
        }
    }
}
