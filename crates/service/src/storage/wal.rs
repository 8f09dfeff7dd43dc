//! The segmented write-ahead log.
//!
//! A WAL is a directory of numbered segment files, each a short header
//! followed by back-to-back records:
//!
//! ```text
//! segment  := magic(4B = "LDPW")  version(1B = 1)  seq(8B LE)  record*
//! record   := len(4B LE, 1 ..= MAX_RECORD_BYTES)  crc32(4B LE)  body
//! body     := type(1B)  payload
//!
//! type 0x01 FRAMES      payload := wire_version(1B: 1|2)  count:varint
//!                                  wire_frame × count   (raw, back to back)
//! type 0x02 SEAL        payload := epoch:varint
//! type 0x03 CHECKPOINT  payload := checkpoint_id:varint
//! ```
//!
//! FRAMES payloads are the [`crate::wire`] frames *exactly as the client
//! sent them* — the wire format is the log format, so one codec (and one
//! set of adversarial guarantees) covers transport and storage. Decoding
//! is total and allocation-capped like `net/proto.rs`: the declared
//! length is validated against [`MAX_RECORD_BYTES`] before anything is
//! read, the CRC is checked before the body is interpreted, and a FRAMES
//! count is validated against the payload it arrived in. Any violation is
//! a typed error carrying the byte offset, which is how recovery
//! implements the torn-tail rule.
//!
//! The body grammar above is the human-readable spec; the
//! `message_table!` rows for [`WalRecord`] are authoritative.

use std::fs::{File, OpenOptions};
use std::io::{IoSlice, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

use crate::error::WireError;
use crate::wire::{
    decode_message, encode_message, message_table, Field, FrameCount, Tail, WireVersion,
    MAX_VARINT_BYTES,
};

/// Magic bytes opening every segment file.
pub const SEGMENT_MAGIC: [u8; 4] = *b"LDPW";
/// Segment format version.
pub const SEGMENT_VERSION: u8 = 1;
/// Bytes of the segment header (magic + version + seq).
pub const SEGMENT_HEADER_BYTES: u64 = 13;
/// Hard cap on one record body, enforced before allocation. Sized so
/// that any batch a maximum-length session REPORT message can carry
/// still fits once the record header (type + wire version + count
/// varint) is added — a legal ack must never produce an oversized,
/// unreplayable record.
pub const MAX_RECORD_BYTES: usize = crate::net::proto::MAX_MESSAGE_BYTES + 16;

// --- crc32 -------------------------------------------------------------
//
// The record and checkpoint checksum is CRC-32/ISO-HDLC (the IEEE 802.3 /
// zlib CRC): reflected polynomial 0xEDB8_8320, initial state and final
// xor both !0, check value 0xCBF4_3926 over "123456789". Those parameters
// are part of the on-disk format, and the literal check values in this
// module's tests and the golden corpus's long FRAMES row pin them; they
// come from an independent implementation, so a kernel that only agrees
// with itself cannot pass.
//
// The kernel is slicing-by-16 (Kounavis & Berry, ISCC 2005, widened from
// 8 to 16 bytes): table `k` advances a byte's contribution through `k`
// further zero bytes, so one 16-byte step is sixteen independent lookups
// XORed together instead of a sixteen-long chain of dependent ones.

/// The CRC-32 polynomial, bit-reflected.
const CRC_POLY: u32 = 0xEDB8_8320;

/// The sixteen slicing tables (16 KiB), built at compile time. Row 0 is
/// the classic bytewise table; row `k` is row `k - 1` advanced by one
/// zero byte.
const fn crc_tables() -> [[u32; 256]; 16] {
    let mut tables = [[0u32; 256]; 16];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                CRC_POLY ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 16 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static CRC_TABLES: [[u32; 256]; 16] = crc_tables();

/// Feeds `bytes` into a running CRC-32 state (start from `!0`, finish
/// with a final complement) — lets the append path checksum a record
/// split across a header and a borrowed payload without concatenating.
/// Sixteen bytes per step; the last `len % 16` go a byte at a time.
fn crc32_update(mut state: u32, mut bytes: &[u8]) -> u32 {
    while let Some((block, rest)) = bytes.split_first_chunk::<16>() {
        let mut block = *block;
        for (b, s) in block.iter_mut().zip(state.to_le_bytes()) {
            *b ^= s;
        }
        // Byte `i` of the block has 15 - i bytes after it in the step.
        state = block
            .iter()
            .zip(CRC_TABLES.iter().rev())
            .fold(0, |acc, (&b, table)| acc ^ table[usize::from(b)]);
        bytes = rest;
    }
    for &b in bytes {
        state = (state >> 8) ^ CRC_TABLES[0][usize::from(state as u8 ^ b)];
    }
    state
}

/// CRC-32 (IEEE) of `bytes` — the record integrity check.
#[must_use]
pub fn crc32(bytes: &[u8]) -> u32 {
    !crc32_update(!0, bytes)
}

// --- records -----------------------------------------------------------

/// One write-ahead-log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// One acknowledged report batch: the raw wire frames exactly as
    /// received (v1 epoch-less or v2 epoch-tagged, per `wire_version`).
    Frames {
        /// Wire version the frames decode under (1 or 2).
        wire_version: u8,
        /// Number of back-to-back frames in `frames`.
        count: u64,
        /// The concatenated raw wire frames.
        frames: Vec<u8>,
    },
    /// The open epoch was sealed (windowed backends only).
    Seal {
        /// Id of the epoch that was sealed.
        epoch: u64,
    },
    /// A checkpoint with this id was taken covering every record up to
    /// here; replay ignores it (the checkpoint *file* carries the state),
    /// it exists so a full-log scan can see where checkpoints happened.
    Checkpoint {
        /// The checkpoint's id.
        id: u64,
    },
}

message_table! {
    WalRecord, unknown(t) => WireError::UnknownKind(t);
    0x01 FRAMES => Frames { wire_version: WireVersion, count: FrameCount, frames: Tail },
    0x02 SEAL => Seal { epoch: u64 },
    0x03 CHECKPOINT => Checkpoint { id: u64 },
}

impl WalRecord {
    /// Encodes the record body (type byte + payload, no framing).
    #[must_use]
    pub fn encode_body(&self) -> Vec<u8> {
        encode_message::<Self>(self)
    }

    /// Decodes one record body. Total: malformed bytes yield a
    /// [`WireError`], never a panic, and nothing is allocated beyond the
    /// input's own length.
    ///
    /// # Errors
    ///
    /// Fails on an empty body, an unknown type byte, a bad wire version,
    /// a frame count the payload cannot hold, or trailing bytes.
    pub fn decode_body(body: &[u8]) -> Result<Self, WireError> {
        decode_message::<Self>(body, "trailing bytes after record")
    }

    /// Encodes the full framed record (`len + crc + body`).
    #[must_use]
    pub fn encode_framed(&self) -> Vec<u8> {
        let body = self.encode_body();
        let mut out = Vec::with_capacity(body.len() + 8);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(&crc32(&body).to_le_bytes());
        out.extend_from_slice(&body);
        out
    }
}

/// Decodes one framed record from the front of `buf`, returning it and
/// the bytes consumed. This is the single validation point the recovery
/// scan drives: any return of `Err` at offset `o` means the log is valid
/// exactly up to `o`.
///
/// # Errors
///
/// Fails on truncation, a declared length outside `1 ..= MAX_RECORD_BYTES`
/// (checked *before* the body is touched), a CRC mismatch, or a malformed
/// body.
pub fn decode_framed(buf: &[u8]) -> Result<(WalRecord, usize), WireError> {
    let Some((&[l0, l1, l2, l3, c0, c1, c2, c3], rest)) = buf.split_first_chunk::<8>() else {
        return Err(WireError::Truncated);
    };
    let len = u32::from_le_bytes([l0, l1, l2, l3]) as usize;
    if len == 0 || len > MAX_RECORD_BYTES {
        return Err(WireError::SizeOverCap(len as u64));
    }
    let body = rest.get(..len).ok_or(WireError::Truncated)?;
    if crc32(body) != u32::from_le_bytes([c0, c1, c2, c3]) {
        return Err(WireError::Malformed("record CRC mismatch"));
    }
    Ok((WalRecord::decode_body(body)?, 8 + len))
}

// --- segment files -----------------------------------------------------

/// The filename of segment `seq`.
#[must_use]
pub fn segment_path(dir: &Path, seq: u64) -> PathBuf {
    dir.join(format!("wal-{seq:08}.log"))
}

/// Parses a segment filename back to its sequence number.
#[must_use]
pub fn parse_segment_name(name: &str) -> Option<u64> {
    name.strip_prefix("wal-")?
        .strip_suffix(".log")?
        .parse()
        .ok()
}

/// Lists the WAL segments in `dir`, sorted by sequence number.
///
/// # Errors
///
/// Propagates directory-read failures.
pub fn list_segments(dir: &Path) -> std::io::Result<Vec<(u64, PathBuf)>> {
    let mut segments = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if let Some(seq) = entry.file_name().to_str().and_then(parse_segment_name) {
            segments.push((seq, entry.path()));
        }
    }
    segments.sort_unstable_by_key(|(seq, _)| *seq);
    Ok(segments)
}

/// Validates a segment's 13-byte header against its expected sequence
/// number, returning the offset of the first record.
///
/// # Errors
///
/// Typed [`WireError`] on a short, misidentified, or misnumbered header.
pub fn check_segment_header(bytes: &[u8], expected_seq: u64) -> Result<u64, WireError> {
    let Some(&[m0, m1, m2, m3, version, seq @ ..]) =
        bytes.first_chunk::<{ SEGMENT_HEADER_BYTES as usize }>()
    else {
        return Err(WireError::Truncated);
    };
    if [m0, m1, m2, m3] != SEGMENT_MAGIC {
        return Err(WireError::BadMagic([m0, m1]));
    }
    if version != SEGMENT_VERSION {
        return Err(WireError::UnsupportedVersion(version));
    }
    if u64::from_le_bytes(seq) != expected_seq {
        return Err(WireError::Malformed("segment header seq != filename seq"));
    }
    Ok(SEGMENT_HEADER_BYTES)
}

// --- durability policy -------------------------------------------------

/// When acknowledged WAL bytes are forced to disk.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// `fdatasync` after every appended record: an ack implies the bytes
    /// survive power loss. The durable default.
    Always,
    /// `fdatasync` once at least this many bytes have accumulated since
    /// the last sync (group durability): bounded data-loss window, a
    /// fraction of the fsync cost.
    EveryBytes(u64),
    /// Never sync on append; only rotation, checkpoints, and shutdown
    /// sync. Records under 8 KiB wait in the writer's in-process buffer
    /// until 256 KiB accumulate (or a sync, rotation, checkpoint, follower
    /// flush or clean drop hands them to the OS), so a process crash such
    /// as `kill -9` can lose up to the last 256 KiB of acked records, and
    /// a host crash anything not yet synced.
    Never,
}

// --- the writer --------------------------------------------------------

/// Staged record bytes are handed to the kernel in one write once they
/// accumulate past this threshold. Under a lazy [`FsyncPolicy`] this is
/// the group-commit knob: adjacent appends coalesce in the staging buffer
/// and reach the OS as one large write instead of four small ones per
/// record.
const WRITE_COALESCE_BYTES: usize = 256 << 10;

/// A record tail at least this large skips the staging copy entirely:
/// the staged bytes (earlier records plus this record's framing) and the
/// borrowed tail go to the kernel together in one vectored write, so a
/// big REPORT batch is never memcpy'd into the log's buffer at all.
const DIRECT_TAIL_BYTES: usize = 8 << 10;

/// Capacity the staging buffer is allowed to retain across flushes — a
/// single oversized record must not pin megabytes for the log's lifetime.
const STAGING_RETAIN_BYTES: usize = WRITE_COALESCE_BYTES;

/// `write_all` over two buffers via `writev`, so a borrowed record tail
/// lands on disk after the staged bytes without being concatenated with
/// them. Loops on short writes exactly like `write_all`.
fn write_all_vectored(file: &mut File, mut head: &[u8], mut tail: &[u8]) -> std::io::Result<()> {
    while !head.is_empty() || !tail.is_empty() {
        let n = file.write_vectored(&[IoSlice::new(head), IoSlice::new(tail)])?;
        if n == 0 {
            return Err(std::io::ErrorKind::WriteZero.into());
        }
        if n >= head.len() {
            tail = &tail[n - head.len()..];
            head = &[];
        } else {
            head = &head[n..];
        }
    }
    Ok(())
}

/// Append side of the WAL: owns the current segment file, rotates at the
/// configured size, and applies the [`FsyncPolicy`].
///
/// Appends are *coalesced*: records are framed into an owned staging
/// buffer and flushed to the OS in one write (or one vectored write, for
/// large borrowed payloads) when a sync is due, the buffer crosses the
/// group-commit threshold (`WRITE_COALESCE_BYTES`, 256 KiB), or a
/// tail-follower needs visibility — never one syscall per field like a
/// naive `BufWriter` drain.
#[derive(Debug)]
pub struct WalWriter {
    dir: PathBuf,
    seq: u64,
    file: File,
    /// Framed record bytes not yet handed to the OS.
    staging: Vec<u8>,
    segment_len: u64,
    unsynced: u64,
    segment_bytes: u64,
    fsync: FsyncPolicy,
    appended_records: u64,
    appended_frames: u64,
}

impl WalWriter {
    /// Creates a fresh segment `seq` in `dir` and positions the writer at
    /// its first record.
    ///
    /// # Errors
    ///
    /// Propagates file-creation failures (including an already-existing
    /// segment — the WAL never overwrites).
    pub fn create(
        dir: &Path,
        seq: u64,
        segment_bytes: u64,
        fsync: FsyncPolicy,
    ) -> std::io::Result<Self> {
        let file = OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(segment_path(dir, seq))?;
        // fdatasync on the file makes the record bytes durable, but the
        // segment's *name* lives in the directory: without a directory
        // sync a power loss can drop the entry — and a whole segment of
        // acknowledged batches with it — which recovery would misread as
        // a shorter, clean log.
        crate::storage::sync_dir(dir)?;
        let mut staging = Vec::with_capacity(4 << 10);
        staging.extend_from_slice(&SEGMENT_MAGIC);
        staging.push(SEGMENT_VERSION);
        staging.extend_from_slice(&seq.to_le_bytes());
        Ok(Self {
            dir: dir.to_path_buf(),
            seq,
            file,
            staging,
            segment_len: SEGMENT_HEADER_BYTES,
            unsynced: SEGMENT_HEADER_BYTES,
            segment_bytes,
            fsync,
            appended_records: 0,
            appended_frames: 0,
        })
    }

    /// Reopens segment `seq` for appending after recovery, truncating it
    /// to `valid_len` first — anything past the last valid record (a torn
    /// tail from the crash) is discarded so new records are reachable.
    ///
    /// # Errors
    ///
    /// Propagates open/truncate failures.
    pub fn resume(
        dir: &Path,
        seq: u64,
        valid_len: u64,
        segment_bytes: u64,
        fsync: FsyncPolicy,
    ) -> std::io::Result<Self> {
        let mut file = OpenOptions::new()
            .write(true)
            .open(segment_path(dir, seq))?;
        file.set_len(valid_len)?;
        file.sync_data()?;
        file.seek(SeekFrom::End(0))?;
        Ok(Self {
            dir: dir.to_path_buf(),
            seq,
            file,
            staging: Vec::with_capacity(4 << 10),
            segment_len: valid_len,
            unsynced: 0,
            segment_bytes,
            fsync,
            appended_records: 0,
            appended_frames: 0,
        })
    }

    /// Sequence number of the segment currently being appended to.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Records appended through this writer (since open).
    #[must_use]
    pub fn appended_records(&self) -> u64 {
        self.appended_records
    }

    /// Frames appended through this writer (since open).
    #[must_use]
    pub fn appended_frames(&self) -> u64 {
        self.appended_frames
    }

    /// Appends one record, applies the fsync policy, and rotates the
    /// segment if it crossed the size threshold.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures; on error the record must be treated as
    /// not durable, and nothing further may be appended (a partial
    /// record may be on disk — the durable service fail-stops).
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<()> {
        let body = record.encode_body();
        let frames = match record {
            WalRecord::Frames { count, .. } => *count,
            _ => 0,
        };
        self.append_parts(&body, &[], frames)
    }

    /// Appends one FRAMES record straight from the borrowed payload —
    /// the ingest hot path: the raw wire frames are checksummed and
    /// written in place (no intermediate record, body, or framing
    /// buffers), so a large batch costs one small header allocation.
    ///
    /// # Errors
    ///
    /// As [`WalWriter::append`].
    pub fn append_frames(
        &mut self,
        wire_version: u8,
        count: u64,
        frames: &[u8],
    ) -> std::io::Result<()> {
        let mut head = Vec::with_capacity(2 + MAX_VARINT_BYTES);
        head.push(WalRecord::FRAMES);
        WireVersion::put(&wire_version, &mut head);
        FrameCount::put(&count, &mut head);
        self.append_parts(&head, frames, count)
    }

    /// Shared append tail: frames the record as `head ++ tail` into the
    /// staging buffer, updates counters, applies the fsync policy, and
    /// rotates on overflow. A large borrowed `tail` bypasses staging and
    /// reaches the kernel in one vectored write with the staged bytes.
    fn append_parts(&mut self, head: &[u8], tail: &[u8], frames: u64) -> std::io::Result<()> {
        let len = head.len() + tail.len();
        if len == 0 || len > MAX_RECORD_BYTES {
            return Err(std::io::Error::other(
                "record body outside (0, MAX_RECORD_BYTES]",
            ));
        }
        let crc = !crc32_update(crc32_update(!0, head), tail);
        self.staging.extend_from_slice(&(len as u32).to_le_bytes());
        self.staging.extend_from_slice(&crc.to_le_bytes());
        self.staging.extend_from_slice(head);
        if tail.len() >= DIRECT_TAIL_BYTES {
            write_all_vectored(&mut self.file, &self.staging, tail)?;
            self.staging.clear();
        } else {
            self.staging.extend_from_slice(tail);
        }
        self.segment_len += len as u64 + 8;
        self.unsynced += len as u64 + 8;
        self.appended_records += 1;
        self.appended_frames += frames;
        match self.fsync {
            FsyncPolicy::Always => self.sync()?,
            FsyncPolicy::EveryBytes(n) => {
                if self.unsynced >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::Never => {}
        }
        if self.staging.len() >= WRITE_COALESCE_BYTES {
            self.flush_staging()?;
        }
        if self.segment_len >= self.segment_bytes {
            self.rotate()?;
        }
        Ok(())
    }

    /// Hands every staged byte to the OS in one write. The staging buffer
    /// keeps a bounded capacity afterwards so one oversized record cannot
    /// pin its allocation forever.
    fn flush_staging(&mut self) -> std::io::Result<()> {
        if !self.staging.is_empty() {
            self.file.write_all(&self.staging)?;
            self.staging.clear();
        }
        if self.staging.capacity() > STAGING_RETAIN_BYTES {
            self.staging.shrink_to(STAGING_RETAIN_BYTES);
        }
        Ok(())
    }

    /// Flushes staged bytes and forces them to disk.
    ///
    /// # Errors
    ///
    /// Propagates flush/fsync failures.
    pub fn sync(&mut self) -> std::io::Result<()> {
        self.flush_staging()?;
        self.file.sync_data()?;
        self.unsynced = 0;
        Ok(())
    }

    /// Flushes staged bytes to the OS without forcing them to disk —
    /// under a lazy [`FsyncPolicy`] this is what makes freshly appended
    /// records visible to a tail-following [`WalReader`] promptly (the
    /// replication stream) without paying an fsync per record.
    ///
    /// # Errors
    ///
    /// Propagates flush failures.
    pub fn flush_buffer(&mut self) -> std::io::Result<()> {
        self.flush_staging()
    }

    /// Syncs and closes the current segment and opens the next one,
    /// returning the new sequence number. Checkpoints rotate explicitly
    /// so the checkpoint boundary is a segment boundary.
    ///
    /// # Errors
    ///
    /// Propagates I/O failures.
    pub fn rotate(&mut self) -> std::io::Result<u64> {
        self.sync()?;
        let next = Self::create(&self.dir, self.seq + 1, self.segment_bytes, self.fsync)?;
        let appended_records = self.appended_records;
        let appended_frames = self.appended_frames;
        *self = next;
        self.appended_records = appended_records;
        self.appended_frames = appended_frames;
        Ok(self.seq)
    }
}

// --- the tail-follow reader --------------------------------------------

/// Read side of a *live* WAL: a cursor that scans records in order and
/// follows the tail while a [`WalWriter`] keeps appending — the feed a
/// replication leader streams to its followers from.
///
/// The cursor distinguishes three tail shapes:
///
/// * **Nothing more yet** — the current segment ends cleanly (or in a
///   partial record the writer is still producing) and no later segment
///   exists: [`WalReader::next_batch`] returns an empty batch and the
///   caller retries after the next append.
/// * **Rotation** — the current segment is exhausted on a record
///   boundary and segment `seq + 1` exists: the cursor advances into it
///   transparently.
/// * **Damage** — an undecodable record in a *sealed* segment (one with
///   a successor: the writer only rotates on record boundaries), or a
///   segment deleted under the cursor (checkpoint pruning outran it).
///   Both are hard errors; a torn tail in the *last* segment is never
///   one, because it is indistinguishable from a write in progress.
#[derive(Debug)]
pub struct WalReader {
    dir: PathBuf,
    seq: u64,
    file: Option<File>,
    /// Unconsumed bytes read from the current segment, starting at a
    /// record boundary (or at byte 0 before the header is validated).
    buf: Vec<u8>,
    /// Whether the current segment's header has been validated (and
    /// stripped from `buf`).
    header_done: bool,
    /// Records yielded so far — position `records_read()` is the next
    /// record the cursor will produce.
    records_read: u64,
}

impl WalReader {
    /// Opens a cursor at the first record of the earliest segment in
    /// `dir`.
    ///
    /// # Errors
    ///
    /// Fails when the directory cannot be listed or holds no segments.
    pub fn open_start(dir: &Path) -> std::io::Result<Self> {
        let segments = list_segments(dir)?;
        let Some(&(seq, _)) = segments.first() else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                "WAL directory holds no segments",
            ));
        };
        Ok(Self {
            dir: dir.to_path_buf(),
            seq,
            file: None,
            buf: Vec::new(),
            header_done: false,
            records_read: 0,
        })
    }

    /// Sequence number of the segment the cursor is positioned in.
    #[must_use]
    pub fn seq(&self) -> u64 {
        self.seq
    }

    /// Records yielded so far — the absolute position (relative to the
    /// first retained segment) of the next record.
    #[must_use]
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Pulls bytes from the current segment file into `buf`. Returns
    /// whether any new bytes arrived.
    fn fill(&mut self) -> std::io::Result<bool> {
        use std::io::Read;
        let file = match &mut self.file {
            Some(file) => file,
            slot @ None => match File::open(segment_path(&self.dir, self.seq)) {
                Ok(f) => slot.insert(f),
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    // Not created yet (the writer is about to) — unless a
                    // later segment exists, in which case this one was
                    // pruned out from under the cursor.
                    let later = list_segments(&self.dir)?
                        .iter()
                        .any(|&(seq, _)| seq > self.seq);
                    if later {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::NotFound,
                            format!("WAL segment {} pruned under the cursor", self.seq),
                        ));
                    }
                    return Ok(false);
                }
                Err(e) => return Err(e),
            },
        };
        let before = self.buf.len();
        // The file handle's own cursor tracks how far we have read; a
        // concurrent writer only ever appends past it.
        let mut chunk = [0u8; 16 * 1024];
        loop {
            match file.read(&mut chunk) {
                Ok(0) => break,
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e) => return Err(e),
            }
        }
        Ok(self.buf.len() > before)
    }

    /// Reads the next run of complete records, up to roughly `max_bytes`
    /// of record bodies per call (at least one record when one is
    /// available). An empty result means the log holds no complete
    /// record past the cursor *yet* — retry after the writer appends.
    ///
    /// # Errors
    ///
    /// Fails on filesystem errors, a pruned segment, or corruption in a
    /// sealed (non-last) segment. A partial record at the very tail is
    /// not an error.
    pub fn next_batch(&mut self, max_bytes: usize) -> std::io::Result<Vec<WalRecord>> {
        let mut out = Vec::new();
        let mut budget = max_bytes;
        loop {
            self.fill()?;
            if !self.header_done {
                if self.buf.len() < SEGMENT_HEADER_BYTES as usize {
                    return Ok(out); // header still being written
                }
                check_segment_header(&self.buf, self.seq)
                    .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
                self.buf.drain(..SEGMENT_HEADER_BYTES as usize);
                self.header_done = true;
            }
            let mut pos = 0usize;
            let mut stalled = false;
            while pos < self.buf.len() {
                match decode_framed(&self.buf[pos..]) {
                    Ok((record, used)) => {
                        pos += used;
                        budget = budget.saturating_sub(used);
                        self.records_read += 1;
                        out.push(record);
                        if budget == 0 {
                            self.buf.drain(..pos);
                            return Ok(out);
                        }
                    }
                    Err(WireError::Truncated) => {
                        stalled = true;
                        break;
                    }
                    Err(e) => {
                        // Complete-looking but invalid bytes. In the last
                        // segment this can transiently happen while the
                        // writer's bytes land; only a *sealed* segment
                        // (successor exists) makes it real corruption.
                        if segment_path(&self.dir, self.seq + 1).exists() {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::InvalidData,
                                format!("WAL record corrupt in sealed segment {}: {e}", self.seq),
                            ));
                        }
                        stalled = true;
                        break;
                    }
                }
            }
            self.buf.drain(..pos);
            if stalled || self.buf.is_empty() {
                // At the readable end of this segment. If the writer has
                // rotated past it, leftover bytes are a torn rotation
                // (impossible from the writer, so: corruption); a clean
                // boundary advances the cursor.
                if segment_path(&self.dir, self.seq + 1).exists() {
                    // Re-read once: the tail bytes may have completed
                    // between our fill and the rotation.
                    if self.fill()? {
                        continue;
                    }
                    if !self.buf.is_empty() {
                        return Err(std::io::Error::new(
                            std::io::ErrorKind::InvalidData,
                            format!("torn record at end of sealed segment {}", self.seq),
                        ));
                    }
                    self.seq += 1;
                    self.file = None;
                    self.header_done = false;
                    continue;
                }
                return Ok(out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_ranges::persist::put_varint;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC-32 check values. The last three are long
        // enough to reach the 16-byte step; they come from an independent
        // implementation (Python's `zlib.crc32`).
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
        let all_bytes: Vec<u8> = (0..=255).collect();
        assert_eq!(crc32(&all_bytes), 0x2905_8C73);
        assert_eq!(crc32(&[0u8; 4096]), 0xC71C_0011);
    }

    /// The bytewise (Sarwate) CRC: one dependent table lookup per byte.
    /// The differential oracle for [`crc32_update`].
    fn crc32_update_bytewise(mut state: u32, bytes: &[u8]) -> u32 {
        for &b in bytes {
            state = (state >> 8) ^ CRC_TABLES[0][usize::from(state as u8 ^ b)];
        }
        state
    }

    #[test]
    fn slicing_kernel_matches_the_bytewise_oracle() {
        let buf: Vec<u8> = (0..1u32 << 20)
            .map(|i| (i.wrapping_mul(0x9E37_79B9) >> 24) as u8)
            .collect();
        // Every length through several 16-byte steps, at every start
        // offset within one step.
        for start in 0..16 {
            for len in 0..=300 {
                let bytes = &buf[start..start + len];
                assert_eq!(
                    crc32_update(!0, bytes),
                    crc32_update_bytewise(!0, bytes),
                    "start {start}, len {len}"
                );
            }
        }
        // Chained across every head/tail split of a record body, the way
        // `append_parts` checksums a header and a borrowed payload.
        let body = WalRecord::Frames {
            wire_version: 2,
            count: 9,
            frames: buf[..203].to_vec(),
        }
        .encode_body();
        let whole = crc32_update_bytewise(!0, &body);
        for split in 0..=body.len() {
            let (head, tail) = body.split_at(split);
            assert_eq!(
                crc32_update(crc32_update(!0, head), tail),
                whole,
                "split {split}"
            );
        }
        assert_eq!(crc32_update(!0, &buf), crc32_update_bytewise(!0, &buf));
    }

    #[test]
    fn records_roundtrip_framed() {
        let records = [
            WalRecord::Frames {
                wire_version: 1,
                count: 3,
                frames: vec![0xAB; 17],
            },
            WalRecord::Frames {
                wire_version: 2,
                count: 0,
                frames: Vec::new(),
            },
            // A 93-byte body: several 16-byte CRC steps plus a byte tail.
            WalRecord::Frames {
                wire_version: 2,
                count: 6,
                frames: (0..90).map(|i| (i * 37) as u8).collect(),
            },
            WalRecord::Seal { epoch: 41 },
            WalRecord::Checkpoint { id: u64::MAX },
        ];
        for record in records {
            let framed = record.encode_framed();
            let (decoded, used) = decode_framed(&framed).expect("decode own encoding");
            assert_eq!(used, framed.len());
            assert_eq!(decoded, record);
            // Every truncation prefix is an error, never a panic.
            for cut in 0..framed.len() {
                assert!(decode_framed(&framed[..cut]).is_err(), "prefix {cut}");
            }
            // Any single flipped bit is refused: in the length (a size or
            // truncation error, or a CRC over the wrong span), in the CRC
            // or in the body.
            for i in 0..framed.len() {
                for bit in 0..8 {
                    let mut corrupt = framed.clone();
                    corrupt[i] ^= 1 << bit;
                    assert!(
                        decode_framed(&corrupt).is_err(),
                        "flip of bit {bit} at {i} accepted"
                    );
                }
            }
        }
    }

    #[test]
    fn append_frames_fast_path_is_byte_identical_to_record_append() {
        let dir_a = crate::storage::scratch_dir("wal-fast-a").unwrap();
        let dir_b = crate::storage::scratch_dir("wal-fast-b").unwrap();
        let payload: Vec<u8> = (0..200u32).map(|i| i as u8).collect();
        let mut a = WalWriter::create(&dir_a, 0, 1 << 20, FsyncPolicy::Never).unwrap();
        a.append(&WalRecord::Frames {
            wire_version: 2,
            count: 40,
            frames: payload.clone(),
        })
        .unwrap();
        a.sync().unwrap();
        let mut b = WalWriter::create(&dir_b, 0, 1 << 20, FsyncPolicy::Never).unwrap();
        b.append_frames(2, 40, &payload).unwrap();
        b.sync().unwrap();
        assert_eq!(
            std::fs::read(segment_path(&dir_a, 0)).unwrap(),
            std::fs::read(segment_path(&dir_b, 0)).unwrap(),
            "fast path diverged from the record codec"
        );
        assert_eq!(b.appended_records(), 1);
        assert_eq!(b.appended_frames(), 40);
        std::fs::remove_dir_all(&dir_a).unwrap();
        std::fs::remove_dir_all(&dir_b).unwrap();
    }

    #[test]
    fn hostile_lengths_rejected_before_allocation() {
        let mut hostile = Vec::new();
        hostile.extend_from_slice(&(u32::MAX).to_le_bytes());
        hostile.extend_from_slice(&[0u8; 8]);
        assert!(matches!(
            decode_framed(&hostile),
            Err(WireError::SizeOverCap(_))
        ));
        let mut zero = Vec::new();
        zero.extend_from_slice(&0u32.to_le_bytes());
        zero.extend_from_slice(&[0u8; 4]);
        assert!(matches!(
            decode_framed(&zero),
            Err(WireError::SizeOverCap(0))
        ));
    }

    #[test]
    fn frame_count_is_validated_against_payload() {
        let body_over = {
            let mut b = vec![WalRecord::FRAMES, 1];
            put_varint(&mut b, 1_000_000);
            b.extend_from_slice(&[0u8; 4]);
            b
        };
        assert!(matches!(
            WalRecord::decode_body(&body_over),
            Err(WireError::Malformed(_))
        ));
        assert!(matches!(
            WalRecord::decode_body(&[WalRecord::FRAMES, 9, 0]),
            Err(WireError::UnsupportedVersion(9))
        ));
        assert!(matches!(
            WalRecord::decode_body(&[0x66]),
            Err(WireError::UnknownKind(0x66))
        ));
        assert!(matches!(
            WalRecord::decode_body(&[]),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn writer_rotates_and_segments_scan_back() {
        let dir = crate::storage::scratch_dir("wal-unit").unwrap();
        let mut writer = WalWriter::create(&dir, 0, 256, FsyncPolicy::Never).unwrap();
        for i in 0..40u64 {
            writer
                .append(&WalRecord::Frames {
                    wire_version: 1,
                    count: 1,
                    frames: vec![i as u8; 16],
                })
                .unwrap();
        }
        writer.sync().unwrap();
        assert!(writer.seq() > 0, "no rotation happened");
        assert_eq!(writer.appended_records(), 40);
        let segments = list_segments(&dir).unwrap();
        assert_eq!(segments.len() as u64, writer.seq() + 1);
        let mut total = 0u64;
        for (seq, path) in &segments {
            let bytes = std::fs::read(path).unwrap();
            let mut pos = check_segment_header(&bytes, *seq).unwrap() as usize;
            while pos < bytes.len() {
                let (_, used) = decode_framed(&bytes[pos..]).unwrap();
                pos += used;
                total += 1;
            }
        }
        assert_eq!(total, 40);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_tail_follows_across_rotations() {
        let dir = crate::storage::scratch_dir("wal-reader").unwrap();
        let mut writer = WalWriter::create(&dir, 0, 256, FsyncPolicy::Never).unwrap();
        let mut reader = WalReader::open_start(&dir).unwrap();
        // Nothing yet (header only).
        writer.flush_buffer().unwrap();
        assert!(reader.next_batch(1 << 20).unwrap().is_empty());

        let mut written = Vec::new();
        for i in 0..25u64 {
            let rec = WalRecord::Frames {
                wire_version: 1,
                count: 1,
                frames: vec![i as u8; 16],
            };
            writer.append(&rec).unwrap();
            written.push(rec);
        }
        writer.append(&WalRecord::Seal { epoch: 0 }).unwrap();
        written.push(WalRecord::Seal { epoch: 0 });
        writer.flush_buffer().unwrap();
        assert!(writer.seq() > 0, "no rotation happened");

        // The reader walks every record across the rotations, in order.
        let mut seen = Vec::new();
        loop {
            let batch = reader.next_batch(128).unwrap();
            if batch.is_empty() {
                break;
            }
            seen.extend(batch);
        }
        assert_eq!(seen, written);
        assert_eq!(reader.records_read(), written.len() as u64);

        // A partial record at the tail is "nothing yet", not an error —
        // hand-append a framed record minus its last byte.
        let framed = WalRecord::Seal { epoch: 9 }.encode_framed();
        let tail_path = segment_path(&dir, writer.seq());
        use std::io::Write as _;
        let mut raw = OpenOptions::new().append(true).open(&tail_path).unwrap();
        raw.write_all(&framed[..framed.len() - 1]).unwrap();
        raw.flush().unwrap();
        assert!(reader.next_batch(1 << 20).unwrap().is_empty());
        // Completing the record makes it readable.
        raw.write_all(&framed[framed.len() - 1..]).unwrap();
        raw.flush().unwrap();
        drop(raw);
        assert_eq!(
            reader.next_batch(1 << 20).unwrap(),
            vec![WalRecord::Seal { epoch: 9 }]
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reader_errors_on_pruned_segment_and_sealed_corruption() {
        let dir = crate::storage::scratch_dir("wal-reader-err").unwrap();
        let mut writer = WalWriter::create(&dir, 0, 200, FsyncPolicy::Never).unwrap();
        for i in 0..20u64 {
            writer
                .append(&WalRecord::Frames {
                    wire_version: 1,
                    count: 1,
                    frames: vec![i as u8; 16],
                })
                .unwrap();
        }
        writer.sync().unwrap();
        assert!(writer.seq() >= 2, "need several segments");

        // Corruption inside a sealed (non-last) segment is a hard error.
        let mut reader = WalReader::open_start(&dir).unwrap();
        let bytes = std::fs::read(segment_path(&dir, 0)).unwrap();
        let mut corrupt = bytes.clone();
        corrupt[SEGMENT_HEADER_BYTES as usize + 9] ^= 0x20;
        std::fs::write(segment_path(&dir, 0), &corrupt).unwrap();
        assert!(reader.next_batch(1 << 20).is_err());
        std::fs::write(segment_path(&dir, 0), &bytes).unwrap();

        // A segment deleted under the cursor (pruning outran it) errors
        // rather than silently skipping records.
        let mut reader = WalReader::open_start(&dir).unwrap();
        std::fs::remove_file(segment_path(&dir, 0)).unwrap();
        assert!(reader.next_batch(1 << 20).is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
