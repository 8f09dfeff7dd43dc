//! Checkpoint files: full mechanism state, written atomically.
//!
//! A checkpoint is the serialized [`ldp_ranges::PersistableServer`] state
//! of the whole service (shards merged), plus the WAL position replay
//! must resume from:
//!
//! ```text
//! file    := magic(4B = "LDPK")  version(1B = 1)  crc32(4B LE, over meta+state)
//!            meta  state
//! meta    := id:varint  replay_from_seq:varint  state_len:varint
//! state   := the PersistableServer bytes (state_len of them)
//! ```
//!
//! Writes are crash-atomic: the bytes go to a `.tmp` file which is
//! fsynced, renamed over the final name, and the directory fsynced — a
//! crash at any point leaves either the old checkpoint set or the new
//! one, never a half-written file under the real name. Reads validate
//! magic, version, CRC, and the declared state length against the actual
//! file size before interpreting anything. [`latest_valid_checkpoint`]
//! falls back from a corrupt newer file to an older valid one, but
//! reports the case where checkpoint files exist and *none* decodes
//! ([`CheckpointScan::AllCorrupt`]) distinctly from a directory that was
//! never checkpointed — with pruning enabled the corrupt file is the only
//! copy of the pre-checkpoint history, so recovery must not mistake that
//! state for a fresh log.

use std::io::Write;
use std::path::{Path, PathBuf};

use crate::error::WireError;
use crate::storage::wal::crc32;
use crate::wire::Reader;
use ldp_ranges::persist::put_varint;

/// Magic bytes opening every checkpoint file.
pub const CHECKPOINT_MAGIC: [u8; 4] = *b"LDPK";
/// Checkpoint format version.
pub const CHECKPOINT_VERSION: u8 = 1;

/// One parsed checkpoint.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Checkpoint {
    /// Monotone checkpoint id (0 is the first ever taken).
    pub id: u64,
    /// First WAL segment whose records are *not* covered by this state —
    /// recovery restores the state, then replays segments `>=` this.
    pub replay_from_seq: u64,
    /// The serialized server state.
    pub state: Vec<u8>,
}

/// The filename of checkpoint `id`.
#[must_use]
pub fn checkpoint_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("ckpt-{id:08}.ckpt"))
}

/// Parses a checkpoint filename back to its id.
#[must_use]
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    name.strip_prefix("ckpt-")?
        .strip_suffix(".ckpt")?
        .parse()
        .ok()
}

/// Lists the checkpoint files in `dir`, sorted by id ascending.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_checkpoints(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut checkpoints = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(id) = entry.file_name().to_str().and_then(parse_checkpoint_name) {
            checkpoints.push((id, entry.path()));
        }
    }
    checkpoints.sort_unstable_by_key(|(id, _)| *id);
    Ok(checkpoints)
}

/// Serializes a checkpoint into its on-disk bytes.
#[must_use]
pub fn encode_checkpoint(ckpt: &Checkpoint) -> Vec<u8> {
    let mut payload = Vec::with_capacity(ckpt.state.len() + 32);
    put_varint(&mut payload, ckpt.id);
    put_varint(&mut payload, ckpt.replay_from_seq);
    put_varint(&mut payload, ckpt.state.len() as u64);
    payload.extend_from_slice(&ckpt.state);
    let mut out = Vec::with_capacity(payload.len() + 9);
    out.extend_from_slice(&CHECKPOINT_MAGIC);
    out.push(CHECKPOINT_VERSION);
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
    out
}

/// Parses checkpoint bytes. Total: corrupt input is a typed
/// [`WireError`], never a panic, and the declared state length is
/// validated against the bytes actually present before any copy.
///
/// # Errors
///
/// Fails on bad magic/version, CRC mismatch, a state length the file
/// does not hold, or trailing bytes.
pub fn decode_checkpoint(bytes: &[u8]) -> Result<Checkpoint, WireError> {
    let Some((&[m0, m1, m2, m3, version, crc @ ..], payload)) = bytes.split_first_chunk::<9>()
    else {
        return Err(WireError::Truncated);
    };
    if [m0, m1, m2, m3] != CHECKPOINT_MAGIC {
        return Err(WireError::BadMagic([m0, m1]));
    }
    if version != CHECKPOINT_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    if crc32(payload) != u32::from_le_bytes(crc) {
        return Err(WireError::Malformed("checkpoint CRC mismatch"));
    }
    let mut r = Reader::new(payload);
    let id = r.varint()?;
    let replay_from_seq = r.varint()?;
    let state_len = r.varint()?;
    if state_len > r.remaining() as u64 {
        return Err(WireError::Truncated);
    }
    let state = r.bytes(state_len as usize)?.to_vec();
    if r.remaining() != 0 {
        return Err(WireError::Malformed("trailing bytes after checkpoint"));
    }
    Ok(Checkpoint {
        id,
        replay_from_seq,
        state,
    })
}

/// Writes a checkpoint crash-atomically (temp file + fsync + rename +
/// directory fsync), returning its final path.
///
/// # Errors
///
/// Propagates I/O failures; on error no file exists under the final
/// name that wasn't there before.
pub fn write_checkpoint(dir: &Path, ckpt: &Checkpoint) -> std::io::Result<PathBuf> {
    let final_path = checkpoint_path(dir, ckpt.id);
    let tmp_path = final_path.with_extension("ckpt.tmp");
    {
        let mut tmp = std::fs::File::create(&tmp_path)?;
        tmp.write_all(&encode_checkpoint(ckpt))?;
        tmp.sync_all()?;
    }
    std::fs::rename(&tmp_path, &final_path)?;
    // Make the rename itself durable.
    crate::storage::sync_dir(dir)?;
    Ok(final_path)
}

/// Outcome of scanning a directory for checkpoints.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CheckpointScan {
    /// No checkpoint files exist — a fresh directory, or one that never
    /// checkpointed; recovery replays the WAL from its first segment.
    NoFiles,
    /// The newest checkpoint that parses and CRC-validates.
    Valid(Checkpoint),
    /// Checkpoint files exist but none decodes (or none can be read).
    /// Recovery must not treat this like a fresh directory: with pruning
    /// enabled the corrupt file was the only copy of the pre-checkpoint
    /// history, and replaying the surviving WAL tail onto an empty state
    /// would silently drop every checkpointed record.
    AllCorrupt,
}

/// Loads the newest checkpoint that parses and CRC-validates, falling
/// back past corrupt or unreadable newer files to older valid ones (a
/// stray `.tmp` never counts — the name filter ignores it). Distinguishes
/// a directory with no checkpoint files at all from one where files exist
/// but every one is corrupt; see [`CheckpointScan`].
///
/// # Errors
///
/// Propagates directory-read failures; a corrupt checkpoint *file* is
/// reported via [`CheckpointScan::AllCorrupt`], not an error.
pub fn latest_valid_checkpoint(dir: &Path) -> std::io::Result<CheckpointScan> {
    let files = list_checkpoints(dir)?;
    if files.is_empty() {
        return Ok(CheckpointScan::NoFiles);
    }
    for (_, path) in files.into_iter().rev() {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        if let Ok(ckpt) = decode_checkpoint(&bytes) {
            return Ok(CheckpointScan::Valid(ckpt));
        }
    }
    Ok(CheckpointScan::AllCorrupt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn checkpoints_roundtrip_and_validate() {
        let ckpt = Checkpoint {
            id: 7,
            replay_from_seq: 3,
            state: (0..200u32).map(|i| i as u8).collect(),
        };
        let bytes = encode_checkpoint(&ckpt);
        assert_eq!(decode_checkpoint(&bytes).unwrap(), ckpt);
        for cut in 0..bytes.len() {
            assert!(decode_checkpoint(&bytes[..cut]).is_err(), "prefix {cut}");
        }
        for i in 0..bytes.len() {
            let mut corrupt = bytes.clone();
            corrupt[i] ^= 0x01;
            assert!(decode_checkpoint(&corrupt).is_err(), "flip at {i} accepted");
        }
    }

    #[test]
    fn newest_valid_checkpoint_wins_and_corruption_falls_back() {
        let dir = crate::storage::scratch_dir("ckpt-unit").unwrap();
        let old = Checkpoint {
            id: 1,
            replay_from_seq: 1,
            state: vec![1, 2, 3],
        };
        let new = Checkpoint {
            id: 2,
            replay_from_seq: 2,
            state: vec![4, 5, 6],
        };
        let newest_id = |dir: &Path| match latest_valid_checkpoint(dir).unwrap() {
            CheckpointScan::Valid(c) => c.id,
            other => panic!("expected a valid checkpoint, got {other:?}"),
        };
        assert_eq!(
            latest_valid_checkpoint(&dir).unwrap(),
            CheckpointScan::NoFiles,
            "empty directory must read as never-checkpointed"
        );
        write_checkpoint(&dir, &old).unwrap();
        write_checkpoint(&dir, &new).unwrap();
        assert_eq!(newest_id(&dir), 2);

        // Corrupt the newest: recovery falls back to the older one.
        let mut bytes = std::fs::read(checkpoint_path(&dir, 2)).unwrap();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xFF;
        std::fs::write(checkpoint_path(&dir, 2), &bytes).unwrap();
        assert_eq!(newest_id(&dir), 1);

        // Corrupt both: reported distinctly from a fresh directory, so
        // recovery can refuse instead of replaying onto an empty state.
        std::fs::write(checkpoint_path(&dir, 1), b"garbage").unwrap();
        assert_eq!(
            latest_valid_checkpoint(&dir).unwrap(),
            CheckpointScan::AllCorrupt
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
