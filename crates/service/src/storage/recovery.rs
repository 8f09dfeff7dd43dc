//! Crash recovery: newest valid checkpoint + WAL tail replay.
//!
//! Recovery rebuilds the exact pre-crash state in three steps:
//!
//! 1. **Checkpoint** — load the newest checkpoint that CRC-validates
//!    ([`crate::storage::checkpoint::latest_valid_checkpoint`]) and
//!    restore its serialized state into a prototype-built server. No
//!    restorable checkpoint means an empty starting state and a
//!    full-log replay — but only when the WAL verifiably starts at
//!    segment 0 (or is empty), so the replay covers the complete
//!    history. A WAL whose first segment is `> 0` was pruned by a
//!    checkpoint that is now corrupt or deleted; its records exist
//!    nowhere else, and replaying the surviving tail onto an empty
//!    state would silently drop them, so recovery refuses the open.
//! 2. **Replay** — scan WAL segments from the checkpoint's
//!    `replay_from_seq` in order, re-absorbing every FRAMES record
//!    through the one function live ingestion absorbs with
//!    (`service::absorb_frames`: same frame walker, same tag rule, same
//!    all-or-nothing rollback — so replay accepts and rejects exactly
//!    what the live service would, and a rejected record leaves no
//!    partial absorption behind) and re-sealing every SEAL record.
//! 3. **Torn-tail rule** — the first record that fails to parse, fails
//!    its CRC, or is rejected by the state machine ends replay *cleanly*:
//!    everything before it is kept, everything from it on is ignored. A
//!    crash can only tear the last record being written, so under
//!    [`crate::storage::FsyncPolicy::Always`] every acknowledged batch
//!    survives. Only that genuine crash shape — an unparseable record at
//!    the physical end of the log — is truncated when the log reopens
//!    for appending; mid-log damage or a record the state machine
//!    rejects (a mismatched prototype) refuses the reopen instead, so a
//!    misconfigured restart can never destroy acknowledged records.
//!
//! Because absorption is exact integer arithmetic, the recovered state is
//! bit-identical to an in-process server fed the same record prefix —
//! and checkpoint + tail replay is bit-identical to replaying the full
//! log, which the differential tests check mechanism by mechanism.

use std::path::Path;

use ldp_ranges::{PersistableServer, StateReader};

use crate::error::ServiceError;
use crate::service::absorb_frames;
use crate::snapshot::SnapshotSource;
use crate::storage::{checkpoint, wal};
use crate::window::EpochRing;
use crate::wire::WireReport;

/// How the scanned WAL ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TailStatus {
    /// Every record up to the physical end of the log parsed and applied.
    Clean,
    /// Replay stopped at the first invalid record (torn write, CRC
    /// mismatch, or a record the state machine rejected). Everything
    /// before the offset was applied; everything from it on is ignored.
    /// A tear at the physical end of the log (the crash artifact) is
    /// truncated when the log reopens for appending; damage anywhere
    /// else refuses the reopen instead of destroying acked records.
    Torn {
        /// Segment the offending record sits in.
        segment: u64,
        /// Byte offset of the offending record within that segment.
        offset: u64,
        /// Why the record was rejected.
        reason: String,
    },
}

/// Where the WAL writer resumes after recovery.
#[derive(Debug, Clone, Copy)]
pub(crate) enum ResumePoint {
    /// No usable segment exists: create segment `seq` fresh.
    Fresh {
        /// Sequence number for the new segment.
        seq: u64,
    },
    /// Continue appending to segment `seq`, truncated to `valid_len`
    /// first (discarding any torn tail).
    Continue {
        /// Sequence number of the segment to reopen.
        seq: u64,
        /// Length of its valid prefix.
        valid_len: u64,
    },
}

/// What recovery did — the observability record the durable service
/// keeps and the recovery tests assert on.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// Id of the checkpoint restored, if any was valid.
    pub checkpoint_id: Option<u64>,
    /// WAL segments scanned during replay.
    pub segments_scanned: u64,
    /// Records applied (FRAMES + SEAL; CHECKPOINT markers are skipped).
    pub records_replayed: u64,
    /// Report frames re-absorbed from FRAMES records.
    pub frames_replayed: u64,
    /// How the log ended.
    pub tail: TailStatus,
    pub(crate) resume: ResumePoint,
    /// Whether a torn tail is a genuine crash artifact (an unparseable
    /// record at the physical end of the log) that is safe to truncate
    /// on reopen. `false` means the damage is *mid-log* (bit rot with
    /// valid segments after it, a sequence gap, or a CRC-valid record
    /// the state machine rejected — e.g. a mismatched prototype):
    /// truncating there would destroy acknowledged records, so opening
    /// for writing must refuse instead.
    pub(crate) safe_to_resume: bool,
}

/// Outcome of one record application: frames absorbed, or the reason
/// replay must stop here (the record is logically corrupt).
type ApplyResult = Result<u64, String>;

/// Scans segments `>= from_seq` in order, applying each record. Stops at
/// the first torn/corrupt/rejected record or the first gap in the
/// segment sequence (segments after a gap are unreachable history).
/// The report comes back with `checkpoint_id` unset — replay knows
/// nothing of checkpoints.
fn replay_segments<F>(
    dir: &Path,
    from_seq: u64,
    mut apply: F,
) -> Result<RecoveryReport, ServiceError>
where
    F: FnMut(&wal::WalRecord) -> ApplyResult,
{
    let segments: Vec<_> = wal::list_segments(dir)?
        .into_iter()
        .filter(|(seq, _)| *seq >= from_seq)
        .collect();
    // Only the physically last segment can hold a crash artifact: a
    // crash tears the record being written, and nothing is ever written
    // after it. Damage anywhere earlier is corruption, not a tear, and
    // truncating there would destroy acknowledged records.
    let last_seq = segments.last().map(|(seq, _)| *seq);
    let mut outcome = RecoveryReport {
        checkpoint_id: None,
        segments_scanned: 0,
        records_replayed: 0,
        frames_replayed: 0,
        tail: TailStatus::Clean,
        resume: ResumePoint::Fresh { seq: from_seq },
        safe_to_resume: true,
    };
    let mut expected_seq = from_seq;
    for (seq, path) in &segments {
        let is_last = Some(*seq) == last_seq;
        if *seq != expected_seq {
            // A hole in the numbering: whatever lies beyond it cannot be
            // ordered after the applied prefix. A gap is never a crash
            // artifact (rotation is sequential), so resuming is refused.
            outcome.tail = TailStatus::Torn {
                segment: *seq,
                offset: 0,
                reason: format!("segment gap: expected seq {expected_seq}, found {seq}"),
            };
            outcome.safe_to_resume = false;
            return Ok(outcome);
        }
        let bytes = std::fs::read(path)?;
        outcome.segments_scanned += 1;
        let mut pos = match wal::check_segment_header(&bytes, *seq) {
            Ok(header) => header as usize,
            Err(e) => {
                outcome.tail = TailStatus::Torn {
                    segment: *seq,
                    offset: 0,
                    reason: format!("segment header: {e}"),
                };
                // A headerless *final* segment is the classic crash shape
                // (rotation created the file, the header never flushed).
                outcome.resume = ResumePoint::Fresh { seq: *seq };
                outcome.safe_to_resume = is_last;
                return Ok(outcome);
            }
        };
        while pos < bytes.len() {
            let (record, used) = match wal::decode_framed(&bytes[pos..]) {
                Ok(ok) => ok,
                Err(e) => {
                    outcome.tail = TailStatus::Torn {
                        segment: *seq,
                        offset: pos as u64,
                        reason: e.to_string(),
                    };
                    outcome.resume = ResumePoint::Continue {
                        seq: *seq,
                        valid_len: pos as u64,
                    };
                    outcome.safe_to_resume = is_last;
                    return Ok(outcome);
                }
            };
            match apply(&record) {
                Ok(frames) => {
                    if !matches!(record, wal::WalRecord::Checkpoint { .. }) {
                        outcome.records_replayed += 1;
                    }
                    outcome.frames_replayed += frames;
                }
                Err(reason) => {
                    // A CRC-valid record the state machine rejects was
                    // fully written and accepted live before it was
                    // logged — rejection here means a mismatched
                    // prototype or logic corruption, never a crash.
                    // Refuse to resume (truncating would destroy it).
                    outcome.tail = TailStatus::Torn {
                        segment: *seq,
                        offset: pos as u64,
                        reason,
                    };
                    outcome.resume = ResumePoint::Continue {
                        seq: *seq,
                        valid_len: pos as u64,
                    };
                    outcome.safe_to_resume = false;
                    return Ok(outcome);
                }
            }
            pos += used;
        }
        outcome.resume = ResumePoint::Continue {
            seq: *seq,
            valid_len: bytes.len() as u64,
        };
        expected_seq = seq + 1;
    }
    Ok(outcome)
}

/// Restores checkpoint state bytes into a prototype clone, requiring full
/// consumption — trailing bytes mean the prototype does not match the
/// configuration the checkpoint was taken under.
fn restore_checkpoint_state<S: PersistableServer>(
    state: &mut S,
    bytes: &[u8],
) -> Result<(), ServiceError> {
    let mut r = StateReader::new(bytes);
    state.restore_state(&mut r).map_err(ServiceError::Range)?;
    if r.remaining() != 0 {
        return Err(ServiceError::Range(ldp_ranges::RangeError::CorruptState(
            "checkpoint state has trailing bytes — prototype configuration mismatch",
        )));
    }
    Ok(())
}

/// Loads the newest valid checkpoint. When none is restorable (`None`:
/// start empty, replay everything), a from-scratch replay is exact only
/// if the complete history survives — the WAL starts at segment 0, or is
/// empty (a genuinely fresh directory). A first segment `> 0` means a
/// checkpoint once pruned the earlier segments, so the records it
/// covered exist nowhere else; whether its file is now corrupt
/// ([`checkpoint::CheckpointScan::AllCorrupt`]) or was deleted outright
/// (scanning as `NoFiles`), recovery must refuse rather than silently
/// resurrect a truncated state.
fn load_checkpoint(dir: &Path) -> Result<Option<checkpoint::Checkpoint>, ServiceError> {
    if let checkpoint::CheckpointScan::Valid(c) = checkpoint::latest_valid_checkpoint(dir)? {
        return Ok(Some(c));
    }
    let full_history = wal::list_segments(dir)?
        .first()
        .is_none_or(|(seq, _)| *seq == 0);
    if full_history {
        Ok(None)
    } else {
        Err(ServiceError::Range(ldp_ranges::RangeError::CorruptState(
            "no usable checkpoint (corrupt or deleted) and the WAL does not start \
             at segment 0; replaying the surviving tail would silently drop the \
             checkpointed records — restore a checkpoint from backup or inspect \
             the log",
        )))
    }
}

/// The recovery both backends share: restore the newest valid checkpoint
/// into `state`, then replay the WAL tail — FRAMES through
/// [`absorb_frames`] (tags checked by a ring, refused outright when
/// `windowed` is false), SEAL through `seal`.
fn recover<S>(
    dir: &Path,
    mut state: S,
    windowed: bool,
    mut seal: impl FnMut(&mut S, u64) -> ApplyResult,
) -> Result<(S, RecoveryReport), ServiceError>
where
    S: SnapshotSource,
    S::Report: WireReport,
{
    let (from_seq, checkpoint_id) = match load_checkpoint(dir)? {
        Some(c) => {
            restore_checkpoint_state(&mut state, &c.state)?;
            (c.replay_from_seq, Some(c.id))
        }
        None => (
            wal::list_segments(dir)?.first().map_or(0, |(seq, _)| *seq),
            None,
        ),
    };
    let mut report = replay_segments(dir, from_seq, |record| match record {
        wal::WalRecord::Frames {
            wire_version,
            count,
            frames,
        } => {
            if !windowed && *wire_version != crate::wire::VERSION {
                return Err("epoch-tagged FRAMES record in an unwindowed log".to_string());
            }
            absorb_frames(&mut state, *wire_version, *count, frames).map_err(|e| e.to_string())
        }
        wal::WalRecord::Seal { epoch } => seal(&mut state, *epoch),
        wal::WalRecord::Checkpoint { .. } => Ok(0),
    })?;
    // The replay absorbed deferred; the state is read from here on.
    state.settle();
    report.checkpoint_id = checkpoint_id;
    Ok((state, report))
}

/// Recovers a *plain* (all-time) server from `dir`: newest valid
/// checkpoint, then WAL tail replay, stopping cleanly at the first torn
/// or corrupt record.
///
/// The returned state is bit-identical to a fresh server that absorbed
/// exactly the logged prefix in order.
///
/// # Errors
///
/// I/O failures, or a checkpoint whose state does not match the
/// prototype's configuration. A torn *log* is not an error — it is the
/// expected crash artifact, reported in [`RecoveryReport::tail`].
pub fn recover_plain<S>(dir: &Path, prototype: &S) -> Result<(S, RecoveryReport), ServiceError>
where
    S: SnapshotSource,
    S::Report: WireReport,
{
    recover(dir, prototype.clone(), false, |_, _| {
        Err("SEAL record in an unwindowed log".to_string())
    })
}

/// Recovers a *windowed* (epoch-ring) server from `dir`. The ring is
/// rebuilt with `window_len` retained epochs (which must match the
/// checkpointed configuration), FRAMES records re-absorb into the open
/// epoch under the same tag rules live ingestion enforces, and SEAL
/// records re-run the rotation — so the recovered window, including
/// which epochs have been retired by subtraction, is bit-identical to
/// the pre-crash ring.
///
/// # Errors
///
/// As [`recover_plain`].
pub fn recover_windowed<S>(
    dir: &Path,
    prototype: &S,
    window_len: usize,
) -> Result<(EpochRing<S>, RecoveryReport), ServiceError>
where
    S: SnapshotSource,
    S::Report: WireReport,
{
    let ring = EpochRing::new(prototype, window_len)?;
    recover(dir, ring, true, |ring, epoch| {
        let sealed = ring.seal_epoch().map_err(|e| e.to_string())?;
        if sealed != epoch {
            return Err(format!(
                "SEAL record names epoch {epoch}, ring sealed {sealed}"
            ));
        }
        Ok(0)
    })
}
