//! The versioned binary wire format for client reports.
//!
//! Every report the service absorbs — flat one-hots through any oracle,
//! hierarchical-histogram level reports and HaarHRR coefficient reports —
//! encodes into one self-delimiting *frame*:
//!
//! ```text
//! frame   := magic(2B = "LQ")  version(1B)  kind(1B)  payload        (v1)
//!          | magic(2B = "LQ")  version(1B = 2)  kind(1B)
//!            epoch:varint  payload                                   (v2)
//! varint  := LEB128 in its shortest form, at most 10 bytes, no 64-bit
//!            overflow
//!
//! kind 0  Flat      payload := oracle_report
//! kind 1  Hh        payload := depth:varint  oracle_report
//! kind 2  retired — was HhSplit; never reuse
//! kind 3  HaarHrr   payload := depth:varint  hrr_report
//! kind 4  retired — was HaarOue; never reuse
//! kind 5  retired — was Hh2d; never reuse
//!
//! oracle_report := tag(1B) body        (tag = FrequencyOracle::tag, as in checkpoints)
//!   tag 0 OUE   body := unary_report
//!   tag 1 OLH   body := a:varint b:varint range:varint value:varint
//!   tag 2 HRR   body := hrr_report
//!   tag 3 retired — was SUE; never reuse
//!
//! unary_report := domain:varint  word:8B-LE × ⌈domain/64⌉
//! hrr_report   := domain:varint  index:varint  sign(1B: 0 ⇒ −1, 1 ⇒ +1)
//! ```
//!
//! Frames are concatenable: [`decode_frame`] reports how many bytes it
//! consumed, so a batch is just frames back to back (see
//! [`crate::loadgen::EncodedStream`]). Decoding is total — malformed or
//! truncated input yields a [`WireError`], never a panic, and declared
//! sizes are capped by [`MAX_WIRE_DOMAIN`] before any allocation so a
//! hostile header cannot balloon memory.
//!
//! Version negotiation: the version byte is bumped on any incompatible
//! change; decoders reject versions they do not know
//! ([`WireError::UnsupportedVersion`]) rather than guessing. Version 2
//! extends the header with an epoch id for the windowed streaming path
//! ([`crate::EpochRing`]): [`decode_epoch_frame`] accepts both versions
//! (v1 frames carry no epoch), while the strict v1 [`decode_frame`]
//! rejects v2 frames outright.

use ldp_freq_oracle::{AnyReport, FrequencyOracle, HrrReport, OlhReport, OueReport, UniversalHash};
use ldp_ranges::persist::put_varint;
use ldp_ranges::{HaarHrrReport, HhReport};

use crate::error::WireError;

/// First magic byte (`'L'`).
pub const MAGIC: [u8; 2] = *b"LQ";
/// The original (epoch-less) wire version.
pub const VERSION: u8 = 1;
/// The epoch-extended wire version: identical to v1 except that one
/// varint epoch id sits between the kind byte and the payload. Decoders
/// that only know v1 reject these frames
/// ([`WireError::UnsupportedVersion`]) instead of misparsing the epoch id
/// as payload.
pub const VERSION_EPOCH: u8 = 2;
/// Upper bound on any declared domain/size field — the paper's largest
/// experiments use `D = 2^22`; we leave headroom to `2^26` (the paper's
/// *population* scale) before calling a header hostile.
pub const MAX_WIRE_DOMAIN: u64 = 1 << 26;

// Kinds 2, 4 and 5 are retired: see the module docs.
const KIND_FLAT: u8 = 0;
const KIND_HH: u8 = 1;
const KIND_HAAR_HRR: u8 = 3;

// --- primitive readers -------------------------------------------------

/// Cursor over a frame buffer, exposed so downstream report types can
/// implement [`WireReport`] too.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Wraps a buffer, starting at offset 0.
    #[must_use]
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Reads one byte.
    ///
    /// # Errors
    ///
    /// Fails at end of buffer.
    pub fn u8(&mut self) -> Result<u8, WireError> {
        let b = *self.buf.get(self.pos).ok_or(WireError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Reads `n` raw bytes.
    ///
    /// # Errors
    ///
    /// Fails if fewer than `n` bytes remain.
    pub fn bytes(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        let s = self.buf.get(self.pos..end).ok_or(WireError::Truncated)?;
        self.pos = end;
        Ok(s)
    }

    /// Reads one LEB128 varint in its shortest form.
    ///
    /// # Errors
    ///
    /// Fails on truncation, 64-bit overflow or a multi-byte encoding ending in `0x00`.
    pub fn varint(&mut self) -> Result<u64, WireError> {
        let mut v: u64 = 0;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let bits = u64::from(byte & 0x7f);
            if shift == 63 && bits > 1 {
                return Err(WireError::BadVarint);
            }
            v |= bits << shift;
            if byte & 0x80 == 0 {
                return (byte != 0 || shift == 0)
                    .then_some(v)
                    .ok_or(WireError::BadVarint);
            }
        }
        Err(WireError::BadVarint)
    }

    /// Bytes left to read — bound any size-driven allocation by this
    /// before reserving memory, so a tiny frame with a huge declared size
    /// cannot balloon allocations.
    #[must_use]
    pub fn remaining(&self) -> usize {
        self.buf.len().saturating_sub(self.pos)
    }

    /// A varint validated against [`MAX_WIRE_DOMAIN`] and narrowed.
    ///
    /// # Errors
    ///
    /// Fails on a bad varint or a value above the cap.
    pub fn size(&mut self) -> Result<usize, WireError> {
        let v = self.varint()?;
        if v > MAX_WIRE_DOMAIN {
            return Err(WireError::SizeOverCap(v));
        }
        Ok(v as usize)
    }

    /// Takes every remaining byte.
    #[inline]
    pub(crate) fn rest(&mut self) -> &'a [u8] {
        let rest = self.buf.get(self.pos..).unwrap_or_default();
        self.pos = self.buf.len();
        rest
    }
}

// --- message fields ----------------------------------------------------

/// Longest LEB128 encoding of a `u64`.
pub(crate) const MAX_VARINT_BYTES: usize = 10;

/// One field of a session message ([`crate::net::proto`]) or a WAL record
/// body ([`crate::storage::wal`]): the one place its bytes are written and
/// the one place they are read and checked. The implementing type names
/// the *encoding* and `Value` what it carries, so one Rust type can travel
/// in more than one form (a `u64` as a varint, or as [`Le64`]).
pub(crate) trait Field {
    type Value;
    fn put(v: &Self::Value, out: &mut Vec<u8>);
    /// Reads the field and runs its validation. Total, and allocates no
    /// more than the bytes it consumes.
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, WireError>;
}

impl Field for u8 {
    type Value = u8;
    fn put(v: &u8, out: &mut Vec<u8>) {
        out.push(*v);
    }
    fn get(r: &mut Reader<'_>) -> Result<u8, WireError> {
        r.u8()
    }
}

/// A `u64` travels as a varint.
impl Field for u64 {
    type Value = u64;
    fn put(v: &u64, out: &mut Vec<u8>) {
        put_varint(out, *v);
    }
    fn get(r: &mut Reader<'_>) -> Result<u64, WireError> {
        r.varint()
    }
}

/// A flag byte: exactly 0 or 1.
impl Field for bool {
    type Value = bool;
    fn put(v: &bool, out: &mut Vec<u8>) {
        out.push(u8::from(*v));
    }
    fn get(r: &mut Reader<'_>) -> Result<bool, WireError> {
        match r.u8()? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Malformed("flag byte not 0/1")),
        }
    }
}

/// A `u64` as eight little-endian bytes.
pub(crate) struct Le64;

impl Field for Le64 {
    type Value = u64;
    fn put(v: &u64, out: &mut Vec<u8>) {
        out.extend_from_slice(&v.to_le_bytes());
    }
    fn get(r: &mut Reader<'_>) -> Result<u64, WireError> {
        let raw = r.bytes(8)?.try_into().map_err(|_| WireError::Truncated)?;
        Ok(u64::from_le_bytes(raw))
    }
}

/// An `f64` as its IEEE-754 bits, eight little-endian bytes.
impl Field for f64 {
    type Value = f64;
    fn put(v: &f64, out: &mut Vec<u8>) {
        Le64::put(&v.to_bits(), out);
    }
    fn get(r: &mut Reader<'_>) -> Result<f64, WireError> {
        Le64::get(r).map(f64::from_bits)
    }
}

/// A flag byte, then the value when the flag is 1.
impl<T: Field> Field for Option<T> {
    type Value = Option<T::Value>;
    fn put(v: &Self::Value, out: &mut Vec<u8>) {
        bool::put(&v.is_some(), out);
        if let Some(x) = v {
            T::put(x, out);
        }
    }
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, WireError> {
        Ok(if bool::get(r)? {
            Some(T::get(r)?)
        } else {
            None
        })
    }
}

impl<A: Field, B: Field> Field for (A, B) {
    type Value = (A::Value, B::Value);
    fn put((a, b): &Self::Value, out: &mut Vec<u8>) {
        A::put(a, out);
        B::put(b, out);
    }
    fn get(r: &mut Reader<'_>) -> Result<Self::Value, WireError> {
        Ok((A::get(r)?, B::get(r)?))
    }
}

/// A wire version byte: [`VERSION`] or [`VERSION_EPOCH`].
pub(crate) struct WireVersion;

impl Field for WireVersion {
    type Value = u8;
    fn put(v: &u8, out: &mut Vec<u8>) {
        out.push(*v);
    }
    fn get(r: &mut Reader<'_>) -> Result<u8, WireError> {
        match r.u8()? {
            v @ (VERSION | VERSION_EPOCH) => Ok(v),
            v => Err(WireError::UnsupportedVersion(v)),
        }
    }
}

/// The head of a FRAMES payload — a REPORT message, a WAL FRAMES record:
/// the frame count, followed by the frames back to back to the end of
/// the body ([`Tail`]). Inlined into the borrowed fast paths, which run
/// it once per batch.
pub(crate) struct FrameCount;

impl Field for FrameCount {
    type Value = u64;
    #[inline]
    fn put(v: &u64, out: &mut Vec<u8>) {
        put_varint(out, *v);
    }
    #[inline]
    fn get(r: &mut Reader<'_>) -> Result<u64, WireError> {
        let count = r.varint()?;
        // The smallest well-formed wire frame is 5 bytes (magic + version
        // + kind + ≥1 payload byte); a count the payload cannot hold is
        // rejected here so later per-frame work stays bounded by real
        // bytes.
        if count > r.remaining() as u64 {
            return Err(WireError::Malformed("frame count exceeds payload"));
        }
        Ok(count)
    }
}

/// The rest of the body, verbatim.
pub(crate) struct Tail;

impl Field for Tail {
    type Value = Vec<u8>;
    fn put(v: &Vec<u8>, out: &mut Vec<u8>) {
        out.extend_from_slice(v);
    }
    fn get(r: &mut Reader<'_>) -> Result<Vec<u8>, WireError> {
        Ok(r.rest().to_vec())
    }
}

// Both message entry points stay out of line, and `FrameCount` and
// `Reader::rest` are inlined: with a whole table's `match` folded into
// the session loop, or the FRAMES head left as calls in the REPORT fast
// path, `ldpbench` hh_oue_d64k_mem (1.4 KB frames, 2-CPU container)
// acked batches about 25% slower.

/// Encodes one whole message body.
#[inline(never)]
pub(crate) fn encode_message<F: Field>(v: &F::Value) -> Vec<u8> {
    let mut out = Vec::with_capacity(16);
    F::put(v, &mut out);
    out
}

/// Decodes one whole message body: `F`, then nothing.
#[inline(never)]
pub(crate) fn decode_message<F: Field>(
    body: &[u8],
    trailing: &'static str,
) -> Result<F::Value, WireError> {
    let mut r = Reader::new(body);
    let v = F::get(&mut r)?;
    if r.remaining() != 0 {
        return Err(WireError::Malformed(trailing));
    }
    Ok(v)
}

/// Declares a tagged table — a message set, or a tagged field inside a
/// message — and derives its [`Field`] impl and `TYPES` (the live tags)
/// from it. One row per tag: `tag NAME => [Head] Variant payload`, the
/// payload's field encodings in wire order. `NAME` (optional) becomes a
/// `pub const`; `[Head]` (optional) is a unit-valued field checked before
/// the payload; a trailing `if <bad> => "why"` rejects the decoded fields
/// as [`WireError::Malformed`]; an unknown tag `t` fails with `unknown(t)`.
macro_rules! message_table {
    (@bind $_t:ty, $p:ident) => { $p };
    (
        $Msg:ident, unknown($t:pat) => $unknown:expr;
        $(
            $tag:literal $($NAME:ident)? => $([$Head:ty])? $V:ident
            $(($T:ty))?
            $({ $($f:ident: $F:ty),* $(,)? })?
            $(if $bad:expr => $why:literal)?,
        )*
    ) => {
        impl $Msg {
            $($(
                #[doc = concat!("Tag byte of `", stringify!($V), "`.")]
                pub const $NAME: u8 = $tag;
            )?)*
            /// Every live tag byte of this table.
            pub const TYPES: &'static [u8] = &[$($tag),*];
        }

        impl $crate::wire::Field for $Msg {
            type Value = Self;

            fn put(v: &Self, out: &mut Vec<u8>) {
                match v {
                    $(Self::$V $(($crate::wire::message_table!(@bind $T, payload)))? $({ $($f),* })? => {
                        out.push($tag);
                        $(<$Head as $crate::wire::Field>::put(&(), out);)?
                        $(<$T as $crate::wire::Field>::put(payload, out);)?
                        $($(<$F as $crate::wire::Field>::put($f, out);)*)?
                    })*
                }
            }

            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::error::WireError> {
                Ok(match r.u8()? {
                    $($tag => {
                        $(<$Head as $crate::wire::Field>::get(r)?;)?
                        $($(let $f = <$F as $crate::wire::Field>::get(r)?;)*)?
                        $(if $bad {
                            return Err($crate::error::WireError::Malformed($why));
                        })?
                        Self::$V $((<$T as $crate::wire::Field>::get(r)?))? $({ $($f),* })?
                    })*
                    $t => return Err($unknown),
                })
            }
        }
    };
}
pub(crate) use message_table;

/// Derives [`Field`] for a struct from its fields' encodings, every field
/// listed in wire order (a field left out does not compile).
macro_rules! fields {
    ($S:ident { $($f:ident: $F:ty),* $(,)? }) => {
        impl $crate::wire::Field for $S {
            type Value = Self;

            fn put(v: &Self, out: &mut Vec<u8>) {
                $(<$F as $crate::wire::Field>::put(&v.$f, out);)*
            }

            fn get(
                r: &mut $crate::wire::Reader<'_>,
            ) -> Result<Self, $crate::error::WireError> {
                $(let $f = <$F as $crate::wire::Field>::get(r)?;)*
                Ok(Self { $($f),* })
            }
        }
    };
}
pub(crate) use fields;

// --- sub-codecs --------------------------------------------------------

fn put_unary(out: &mut Vec<u8>, report: &OueReport) {
    put_varint(out, report.domain() as u64);
    for w in report.words() {
        out.extend_from_slice(&w.to_le_bytes());
    }
}

/// Reads a unary body into `words`, the caller's buffer: taken, cleared
/// and refilled, so the report holds this frame's words and nothing else.
fn get_unary(r: &mut Reader<'_>, words: &mut Vec<u64>) -> Result<OueReport, WireError> {
    let domain = r.size()?;
    if domain == 0 {
        return Err(WireError::Malformed("unary report over empty domain"));
    }
    let n_words = domain.div_ceil(64);
    // The declared domain implies n_words*8 payload bytes; reject frames
    // too short to hold them *before* allocating, so a ~15-byte hostile
    // header cannot cost an up-to-8-MiB allocation.
    if r.remaining() < n_words * 8 {
        return Err(WireError::Truncated);
    }
    // One bulk read for the whole bit vector: the per-word bounds checks
    // collapse into a single range check, and the copy of each exact
    // 8-byte chunk into a fixed array has no failure arm, so the loop
    // below is a straight copy. Reserved exactly, so a fresh buffer
    // (`decode_frame`) is one allocation of the frame's size.
    let raw = r.bytes(n_words * 8)?;
    let mut buf = std::mem::take(words);
    buf.clear();
    buf.reserve_exact(n_words);
    buf.extend(raw.chunks_exact(8).map(|chunk| {
        let mut word = [0u8; 8];
        word.copy_from_slice(chunk);
        u64::from_le_bytes(word)
    }));
    OueReport::try_from_words(domain, buf).ok_or(WireError::Malformed("bits set past unary domain"))
}

fn put_hrr(out: &mut Vec<u8>, report: &HrrReport) {
    put_varint(out, report.domain() as u64);
    put_varint(out, report.index() as u64);
    out.push(u8::from(report.bit() > 0));
}

fn get_hrr(r: &mut Reader<'_>) -> Result<HrrReport, WireError> {
    let domain = r.size()?;
    let index = r.size()?;
    if domain == 0 || index >= domain {
        return Err(WireError::Malformed("HRR index outside domain"));
    }
    let sign = match r.u8()? {
        0 => -1i8,
        1 => 1i8,
        _ => return Err(WireError::Malformed("HRR sign byte not 0/1")),
    };
    Ok(HrrReport::from_parts(domain, index, sign))
}

fn put_olh(out: &mut Vec<u8>, report: &OlhReport) {
    let (a, b) = report.hash().parts();
    put_varint(out, a);
    put_varint(out, b);
    put_varint(out, report.hash().range() as u64);
    put_varint(out, report.value() as u64);
}

fn get_olh(r: &mut Reader<'_>) -> Result<OlhReport, WireError> {
    let a = r.varint()?;
    let b = r.varint()?;
    let range = r.size()?;
    let value = r.size()?;
    if range < 2 {
        return Err(WireError::Malformed("OLH hash range below 2"));
    }
    if !(1..ldp_freq_oracle::hash::MERSENNE_P).contains(&a)
        || b >= ldp_freq_oracle::hash::MERSENNE_P
    {
        return Err(WireError::Malformed("OLH hash coefficients out of field"));
    }
    if value >= range {
        return Err(WireError::Malformed("OLH value outside hash range"));
    }
    Ok(OlhReport::from_parts(
        UniversalHash::from_parts(a, b, range),
        value,
    ))
}

fn put_any(out: &mut Vec<u8>, report: &AnyReport) {
    match report {
        AnyReport::Oue(r) => {
            out.push(FrequencyOracle::Oue.tag());
            put_unary(out, r);
        }
        AnyReport::Olh(r) => {
            out.push(FrequencyOracle::Olh.tag());
            put_olh(out, r);
        }
        AnyReport::Hrr(r) => {
            out.push(FrequencyOracle::Hrr.tag());
            put_hrr(out, r);
        }
        // SUE is not served: its report writes only the retired tag,
        // which every decoder refuses.
        AnyReport::Sue(_) => out.push(FrequencyOracle::Sue.tag()),
    }
}

fn get_any(r: &mut Reader<'_>, words: &mut Vec<u64>) -> Result<AnyReport, WireError> {
    let tag = r.u8()?;
    match FrequencyOracle::from_tag(tag) {
        Some(FrequencyOracle::Oue) => Ok(AnyReport::Oue(get_unary(r, words)?)),
        Some(FrequencyOracle::Olh) => Ok(AnyReport::Olh(get_olh(r)?)),
        Some(FrequencyOracle::Hrr) => Ok(AnyReport::Hrr(get_hrr(r)?)),
        Some(FrequencyOracle::Sue) | None => Err(WireError::UnknownOracleTag(tag)),
    }
}

// --- public trait ------------------------------------------------------

/// A report type with a wire representation.
///
/// `encode_frame` appends one self-delimiting frame; [`decode_frame`]
/// parses one frame from the front of a buffer and returns the bytes it
/// consumed, so concatenated frames stream naturally.
pub trait WireReport: Sized {
    /// The frame's kind byte.
    const KIND: u8;

    /// Appends this report's payload (everything after the kind byte).
    fn encode_payload(&self, out: &mut Vec<u8>);

    /// Parses the payload. A unary body's packed words are read into
    /// `words`, a buffer the caller lends: it is taken, cleared and
    /// refilled, so nothing it held reaches the report, and
    /// [`WireReport::recycle`] gives it back.
    ///
    /// # Errors
    ///
    /// Any malformed payload yields a [`WireError`].
    fn decode_payload(r: &mut Reader<'_>, words: &mut Vec<u64>) -> Result<Self, WireError>;

    /// Returns the report's packed-word buffer, if it has one, to `words`
    /// for the next [`WireReport::decode_payload`].
    fn recycle(self, words: &mut Vec<u64>) {
        let _ = words;
    }

    /// Appends one full frame (header + payload) to `out`.
    fn encode_frame(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&MAGIC);
        out.push(VERSION);
        out.push(Self::KIND);
        self.encode_payload(out);
    }

    /// Encodes one full frame into a fresh buffer.
    fn to_frame(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(16);
        self.encode_frame(&mut out);
        out
    }
}

impl WireReport for AnyReport {
    const KIND: u8 = KIND_FLAT;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_any(out, self);
    }

    fn decode_payload(r: &mut Reader<'_>, words: &mut Vec<u64>) -> Result<Self, WireError> {
        get_any(r, words)
    }

    fn recycle(self, words: &mut Vec<u64>) {
        if let Self::Oue(report) = self {
            *words = report.into_words();
        }
    }
}

impl WireReport for HhReport {
    const KIND: u8 = KIND_HH;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.depth()));
        put_any(out, self.inner());
    }

    fn decode_payload(r: &mut Reader<'_>, words: &mut Vec<u64>) -> Result<Self, WireError> {
        let depth = r.size()? as u32;
        Ok(Self::from_parts(depth, get_any(r, words)?))
    }

    fn recycle(self, words: &mut Vec<u64>) {
        self.into_parts().1.recycle(words);
    }
}

impl WireReport for HaarHrrReport {
    const KIND: u8 = KIND_HAAR_HRR;

    fn encode_payload(&self, out: &mut Vec<u8>) {
        put_varint(out, u64::from(self.depth()));
        put_hrr(out, &self.inner());
    }

    fn decode_payload(r: &mut Reader<'_>, _words: &mut Vec<u64>) -> Result<Self, WireError> {
        let depth = r.size()? as u32;
        Ok(Self::from_parts(depth, get_hrr(r)?))
    }
}

/// Decodes one frame of type `T` from the front of `buf`, returning the
/// report and the number of bytes consumed.
///
/// # Errors
///
/// Fails on truncated input, bad magic/version, a kind byte that does not
/// match `T`, or a malformed payload.
pub fn decode_frame<T: WireReport>(buf: &[u8]) -> Result<(T, usize), WireError> {
    let (_, report, used) = decode_into(buf, false, &mut Vec::new())?;
    Ok((report, used))
}

/// The one frame decoder, behind [`decode_frame`], [`decode_epoch_frame`]
/// and [`for_each_frame`]: the header — a v2 epoch header only when
/// `epochs` — then the payload, with a unary body read into `words`
/// ([`WireReport::decode_payload`]). Always inlined: called out of line,
/// once per frame of a batch, it cost small-frame ingest a call and a
/// report returned through memory.
#[inline(always)]
fn decode_into<T: WireReport>(
    buf: &[u8],
    epochs: bool,
    words: &mut Vec<u64>,
) -> Result<(Option<u64>, T, usize), WireError> {
    let mut r = Reader::new(buf);
    let magic = [r.u8()?, r.u8()?];
    if magic != MAGIC {
        return Err(WireError::BadMagic(magic));
    }
    let version = r.u8()?;
    if version != VERSION && !(epochs && version == VERSION_EPOCH) {
        return Err(WireError::UnsupportedVersion(version));
    }
    let kind = r.u8()?;
    if kind != T::KIND {
        return Err(WireError::UnknownKind(kind));
    }
    let epoch = if version == VERSION_EPOCH {
        Some(r.varint()?)
    } else {
        None
    };
    let report = T::decode_payload(&mut r, words)?;
    Ok((epoch, report, r.pos))
}

/// Appends one epoch-tagged (version 2) frame to `out`: the v1 header
/// with the version byte bumped and `epoch` spliced in before the
/// payload.
pub fn encode_epoch_frame<T: WireReport>(report: &T, epoch: u64, out: &mut Vec<u8>) {
    out.extend_from_slice(&MAGIC);
    out.push(VERSION_EPOCH);
    out.push(T::KIND);
    put_varint(out, epoch);
    report.encode_payload(out);
}

/// Decodes one frame of type `T` accepting both wire versions, returning
/// the epoch id (`None` for an epoch-less v1 frame), the report, and the
/// number of bytes consumed.
///
/// Decoding stays total: the epoch id is an ordinary varint (truncation
/// and overflow are errors, any 64-bit value is structurally valid — its
/// freshness is the *service's* policy question, not the codec's), and
/// every v1 rejection path applies unchanged.
///
/// # Errors
///
/// Fails on truncated input, bad magic, a version other than 1 or 2, a
/// kind byte that does not match `T`, a malformed epoch varint, or a
/// malformed payload.
pub fn decode_epoch_frame<T: WireReport>(buf: &[u8]) -> Result<(Option<u64>, T, usize), WireError> {
    decode_into(buf, true, &mut Vec::new())
}

/// Decodes a buffer of back-to-back frames into reports.
///
/// # Errors
///
/// Fails on the first malformed frame; trailing garbage is an error, not
/// silently ignored.
pub fn decode_all<T: WireReport>(mut buf: &[u8]) -> Result<Vec<T>, WireError> {
    let mut reports = Vec::new();
    while !buf.is_empty() {
        let (report, used) = decode_frame::<T>(buf)?;
        reports.push(report);
        buf = &buf[used..];
    }
    Ok(reports)
}

/// Walks a REPORT-style batch (back-to-back raw wire frames, declared
/// `count`) under a negotiated wire version, lending each decoded report
/// — with its optional epoch tag — to `sink` as it is produced. Every
/// frame is decoded straight from its borrowed subslice of `frames`, so
/// a consumer that absorbs in place never materializes the batch, and
/// the walk owns one packed-word buffer that every unary frame is read
/// into and handed back from ([`WireReport::recycle`]), so no frame
/// allocates once the buffer has grown to the batch's widest. Its one
/// absorbing caller is `service::absorb_frames`, so every backend
/// rejects hostile batches identically.
///
/// Returns the number of frames decoded (equal to `count` on success).
///
/// # Errors
///
/// A malformed frame, a count/payload mismatch, or a `sink` rejection
/// surfaces as [`ServiceError::BadFrame`] with the offending index.
pub(crate) fn for_each_frame<R: WireReport>(
    wire_version: u8,
    count: u64,
    frames: &[u8],
    mut sink: impl FnMut(Option<u64>, &R) -> Result<(), crate::error::ServiceError>,
) -> Result<u64, crate::error::ServiceError> {
    let bad =
        |index: usize, source: crate::error::ServiceError| crate::error::ServiceError::BadFrame {
            index,
            report_type: crate::error::report_type_name::<R>(),
            source: Box::new(source),
        };
    let epochs = wire_version == VERSION_EPOCH;
    let mut words = Vec::new();
    let mut decoded = 0u64;
    let mut buf = frames;
    while !buf.is_empty() {
        if decoded >= count {
            return Err(bad(
                count as usize,
                WireError::Malformed("batch holds more frames than declared").into(),
            ));
        }
        let index = decoded as usize;
        let (epoch, report, used) =
            decode_into::<R>(buf, epochs, &mut words).map_err(|e| bad(index, e.into()))?;
        sink(epoch, &report).map_err(|e| bad(index, e))?;
        report.recycle(&mut words);
        decoded += 1;
        buf = &buf[used..];
    }
    if decoded < count {
        return Err(bad(
            decoded as usize,
            WireError::Malformed("batch declared more frames than it holds").into(),
        ));
    }
    Ok(decoded)
}

#[cfg(test)]
mod tests {
    use super::*;
    use ldp_freq_oracle::{AnyOracle, Epsilon, FrequencyOracle, PointOracle};
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    /// Kind bytes of the retired HhSplit, HaarOue and Hh2d reports.
    const RETIRED_KINDS: [u8; 3] = [2, 4, 5];

    #[test]
    fn retired_kinds_stay_retired() {
        for kind in [AnyReport::KIND, HhReport::KIND, HaarHrrReport::KIND] {
            assert!(!RETIRED_KINDS.contains(&kind), "kind {kind} is retired");
        }
    }

    fn roundtrip<T: WireReport>(report: &T) -> T {
        let frame = report.to_frame();
        let (decoded, used) = decode_frame::<T>(&frame).expect("roundtrip decode");
        assert_eq!(used, frame.len(), "frame not fully consumed");
        // Re-encoding the decoded report must reproduce the bytes exactly.
        assert_eq!(decoded.to_frame(), frame, "re-encode mismatch");
        decoded
    }

    #[test]
    fn any_report_roundtrips_every_oracle() {
        let mut rng = StdRng::seed_from_u64(401);
        let eps = Epsilon::new(1.1);
        for kind in [
            FrequencyOracle::Oue,
            FrequencyOracle::Olh,
            FrequencyOracle::Hrr,
        ] {
            let oracle = AnyOracle::new(kind, 64, eps).unwrap();
            for v in [0usize, 31, 63] {
                let report = oracle.encode(v, &mut rng).unwrap();
                let decoded = roundtrip(&report);
                // Absorbing original and decoded must agree exactly.
                let mut a = oracle.clone();
                let mut b = oracle.clone();
                a.absorb(&report).unwrap();
                b.absorb(&decoded).unwrap();
                assert_eq!(a.estimate(), b.estimate(), "{kind}");
            }
        }
    }

    #[test]
    fn unary_domain_not_multiple_of_64_roundtrips() {
        let mut rng = StdRng::seed_from_u64(402);
        let oracle = AnyOracle::new(FrequencyOracle::Oue, 37, Epsilon::new(0.9)).unwrap();
        let report = oracle.encode(36, &mut rng).unwrap();
        roundtrip(&report);
    }

    #[test]
    fn truncation_is_an_error_everywhere() {
        let mut rng = StdRng::seed_from_u64(403);
        let oracle = AnyOracle::new(FrequencyOracle::Oue, 128, Epsilon::new(1.1)).unwrap();
        let frame = oracle.encode(5, &mut rng).unwrap().to_frame();
        for cut in 0..frame.len() {
            assert!(
                decode_frame::<AnyReport>(&frame[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
    }

    #[test]
    fn bad_headers_are_rejected() {
        let mut rng = StdRng::seed_from_u64(404);
        let oracle = AnyOracle::new(FrequencyOracle::Hrr, 16, Epsilon::new(1.1)).unwrap();
        let frame = oracle.encode(3, &mut rng).unwrap().to_frame();

        let mut bad_magic = frame.clone();
        bad_magic[0] = b'X';
        assert!(matches!(
            decode_frame::<AnyReport>(&bad_magic),
            Err(WireError::BadMagic(_))
        ));

        let mut bad_version = frame.clone();
        bad_version[2] = 99;
        assert!(matches!(
            decode_frame::<AnyReport>(&bad_version),
            Err(WireError::UnsupportedVersion(99))
        ));

        let mut bad_kind = frame.clone();
        bad_kind[3] = 42;
        assert!(matches!(
            decode_frame::<AnyReport>(&bad_kind),
            Err(WireError::UnknownKind(42))
        ));
    }

    #[test]
    fn hostile_sizes_do_not_allocate() {
        // kind=Flat, tag=OUE, domain = 2^40 — must be rejected by the cap,
        // not attempted.
        let mut frame = vec![
            MAGIC[0],
            MAGIC[1],
            VERSION,
            KIND_FLAT,
            FrequencyOracle::Oue.tag(),
        ];
        put_varint(&mut frame, 1 << 40);
        assert!(matches!(
            decode_frame::<AnyReport>(&frame),
            Err(WireError::SizeOverCap(_))
        ));

        // A domain *under* the cap but far larger than the frame must be
        // rejected as truncated before the word buffer is allocated (the
        // allocation-amplification guard).
        let mut tiny = vec![
            MAGIC[0],
            MAGIC[1],
            VERSION,
            KIND_FLAT,
            FrequencyOracle::Oue.tag(),
        ];
        put_varint(&mut tiny, MAX_WIRE_DOMAIN);
        assert!(tiny.len() < 16);
        assert!(matches!(
            decode_frame::<AnyReport>(&tiny),
            Err(WireError::Truncated)
        ));
    }

    #[test]
    fn hrr_sign_and_index_are_validated() {
        let mut frame = vec![
            MAGIC[0],
            MAGIC[1],
            VERSION,
            KIND_FLAT,
            FrequencyOracle::Hrr.tag(),
        ];
        put_varint(&mut frame, 8); // domain
        put_varint(&mut frame, 9); // index out of domain
        frame.push(1);
        assert!(matches!(
            decode_frame::<AnyReport>(&frame),
            Err(WireError::Malformed(_))
        ));

        let mut frame = vec![
            MAGIC[0],
            MAGIC[1],
            VERSION,
            KIND_FLAT,
            FrequencyOracle::Hrr.tag(),
        ];
        put_varint(&mut frame, 8);
        put_varint(&mut frame, 3);
        frame.push(7); // sign byte must be 0/1
        assert!(matches!(
            decode_frame::<AnyReport>(&frame),
            Err(WireError::Malformed(_))
        ));
    }

    #[test]
    fn epoch_frames_roundtrip_and_v1_stays_epochless() {
        let mut rng = StdRng::seed_from_u64(406);
        let oracle = AnyOracle::new(FrequencyOracle::Hrr, 32, Epsilon::new(1.1)).unwrap();
        let report = oracle.encode(7, &mut rng).unwrap();

        for epoch in [0u64, 1, 41, u64::MAX] {
            let mut frame = Vec::new();
            encode_epoch_frame(&report, epoch, &mut frame);
            let (got_epoch, decoded, used) = decode_epoch_frame::<AnyReport>(&frame).unwrap();
            assert_eq!(got_epoch, Some(epoch));
            assert_eq!(used, frame.len());
            assert_eq!(decoded.to_frame(), report.to_frame());
            // The strict v1 decoder must refuse the v2 frame, not
            // misparse the epoch varint as payload.
            assert!(matches!(
                decode_frame::<AnyReport>(&frame),
                Err(WireError::UnsupportedVersion(2))
            ));
        }

        // A v1 frame decodes through the epoch-aware entry point with no
        // epoch attached, consuming the same bytes either way.
        let v1 = report.to_frame();
        let (epoch, _, used) = decode_epoch_frame::<AnyReport>(&v1).unwrap();
        assert_eq!(epoch, None);
        assert_eq!(used, v1.len());
    }

    #[test]
    fn hostile_epoch_headers_are_rejected() {
        let mut rng = StdRng::seed_from_u64(407);
        let oracle = AnyOracle::new(FrequencyOracle::Hrr, 16, Epsilon::new(1.1)).unwrap();
        let report = oracle.encode(3, &mut rng).unwrap();
        let mut frame = Vec::new();
        encode_epoch_frame(&report, 99, &mut frame);

        // Every truncation prefix errors — including cuts inside the
        // epoch varint.
        for cut in 0..frame.len() {
            assert!(
                decode_epoch_frame::<AnyReport>(&frame[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }

        // An epoch varint overflowing 64 bits is rejected.
        let mut overflow = vec![MAGIC[0], MAGIC[1], VERSION_EPOCH, KIND_FLAT];
        overflow.extend_from_slice(&[0xFF; 10]);
        assert!(matches!(
            decode_epoch_frame::<AnyReport>(&overflow),
            Err(WireError::BadVarint)
        ));

        // An unknown version is rejected by the epoch-aware decoder too.
        let mut v3 = frame.clone();
        v3[2] = 3;
        assert!(matches!(
            decode_epoch_frame::<AnyReport>(&v3),
            Err(WireError::UnsupportedVersion(3))
        ));

        // Hostile payload sizes stay capped behind the epoch header.
        let mut huge = vec![MAGIC[0], MAGIC[1], VERSION_EPOCH, KIND_FLAT];
        put_varint(&mut huge, 17); // epoch
        huge.push(FrequencyOracle::Oue.tag());
        put_varint(&mut huge, 1 << 40); // domain over the cap
        assert!(matches!(
            decode_epoch_frame::<AnyReport>(&huge),
            Err(WireError::SizeOverCap(_))
        ));
    }

    /// The word loop reads the body wherever it starts: the same unary
    /// body, at every start offset 0–7 from an 8-byte boundary, decodes
    /// into the same words through a reused buffer that holds other
    /// words, and consumes exactly the body.
    #[test]
    fn unary_body_decodes_at_every_byte_offset() {
        use rand::RngCore;
        let mut rng = StdRng::seed_from_u64(408);
        let mut words = vec![u64::MAX; 200];
        for domain in [1usize, 63, 64, 65, 1_000, 8_192] {
            let mut bits: Vec<u64> = (0..domain.div_ceil(64)).map(|_| rng.next_u64()).collect();
            if !domain.is_multiple_of(64) {
                *bits.last_mut().unwrap() &= (1u64 << (domain % 64)) - 1;
            }
            let report = OueReport::try_from_words(domain, bits).expect("report");
            let mut body = Vec::new();
            put_unary(&mut body, &report);
            for offset in 0..8 {
                let mut buf = vec![0xA5u8; offset];
                buf.extend_from_slice(&body);
                let mut r = Reader::new(&buf);
                r.bytes(offset).expect("prefix");
                let decoded = get_unary(&mut r, &mut words).expect("decode");
                assert_eq!(
                    decoded.words(),
                    report.words(),
                    "D={domain} offset={offset}"
                );
                assert_eq!(r.remaining(), 0, "D={domain} offset={offset}");
                words = decoded.into_words();
            }
        }
    }

    #[test]
    fn concatenated_frames_stream() {
        let mut rng = StdRng::seed_from_u64(405);
        let oracle = AnyOracle::new(FrequencyOracle::Oue, 20, Epsilon::new(1.3)).unwrap();
        let mut buf = Vec::new();
        let originals: Vec<AnyReport> = (0..10)
            .map(|i| oracle.encode(i % 20, &mut rng).unwrap())
            .collect();
        for r in &originals {
            r.encode_frame(&mut buf);
        }
        let decoded = decode_all::<AnyReport>(&buf).unwrap();
        assert_eq!(decoded.len(), originals.len());
        for (a, b) in originals.iter().zip(&decoded) {
            assert_eq!(a.to_frame(), b.to_frame());
        }
        // Trailing garbage is an error.
        buf.push(0xFF);
        assert!(decode_all::<AnyReport>(&buf).is_err());
    }
}
