//! A fixed-size lock-free trace ring for postmortem debugging of the
//! adversarial session paths.
//!
//! The ring records one structured [`TraceEvent`] per traced *stage* of
//! a session-protocol interaction (span id, session id, pipeline stage,
//! raw message-type byte, outcome, stage nanoseconds) into a bounded
//! buffer that writers can never block on and never grow: each write
//! claims a monotonically increasing ticket with one `fetch_add` and
//! publishes into slot `ticket % capacity` under a per-slot seqlock (the
//! sequence is stored odd while a write is in flight, even once the slot
//! is valid). Readers retry torn slots and skip in-flight ones, so a
//! reader concurrent with heavy writing gets a *best-effort consistent*
//! sample — which is exactly the contract a postmortem ring needs; it is
//! debugging telemetry, not accounting (the registry's counters are the
//! accounting path).
//!
//! ## Spans
//!
//! Every message an event loop decodes is assigned a span id (from one
//! counter shared by all loops), and each tier that touches the message
//! records its own event under that id: [`TraceStage::Decode`] when the
//! loop slices the envelope off the socket, [`TraceStage::Execute`] when
//! the same loop finishes handling it,
//! [`TraceStage::WalAppend`] when the durable store fsyncs the batch it
//! carried, and [`TraceStage::ReplApply`] when a follower re-applies the
//! shipped record (there the span id *is* the leader-assigned record
//! position, so lag is attributable per stage). Filtering one span id
//! out of a `TraceRing::events()` tail therefore reconstructs the
//! decode→absorb→fsync→ack timeline of a single REPORT.
//!
//! The span id crosses tier boundaries without threading a parameter
//! through every backend signature: the executing loop parks it in a
//! thread-local ([`set_current_span`]) and the storage tier reads it
//! back ([`current_span`]) — the absorb/append path runs on the same
//! thread that decoded the job.
//!
//! Tracing is off until [`TraceRing::set_enabled`] turns it on (or the
//! ring is built with [`TraceRing::enabled_with`]), so the disabled cost
//! on the session path is one relaxed load.

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// How a traced interaction ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceOutcome {
    /// The message was handled and a success reply was written.
    Ok,
    /// The message was rejected (protocol violation, backend error) and
    /// an error reply was written or the session was cut.
    Error,
    /// The peer disconnected (clean BYE or vanished mid-session).
    Disconnect,
}

impl TraceOutcome {
    fn to_u8(self) -> u8 {
        match self {
            Self::Ok => 0,
            Self::Error => 1,
            Self::Disconnect => 2,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Ok,
            1 => Self::Error,
            _ => Self::Disconnect,
        }
    }
}

/// Which pipeline stage recorded the event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceStage {
    /// An event loop sliced the message's envelope off the socket and
    /// assigned the span id (`ns` is 0 — an arrival marker, not a
    /// duration).
    Decode,
    /// The loop finished handling the message (`ns` covers decode of the
    /// body through reply construction, including any storage work the
    /// nested stages break out).
    Execute,
    /// The durable store appended (and per its fsync policy, synced) the
    /// WAL record the message produced (`ns` is the append+fsync time;
    /// `session` is 0 — the storage tier correlates by span id).
    WalAppend,
    /// A follower applied a replicated record; the span id is the
    /// leader-assigned record position.
    ReplApply,
}

impl TraceStage {
    fn to_u8(self) -> u8 {
        match self {
            Self::Decode => 0,
            Self::Execute => 1,
            Self::WalAppend => 2,
            Self::ReplApply => 3,
        }
    }

    fn from_u8(v: u8) -> Self {
        match v {
            0 => Self::Decode,
            2 => Self::WalAppend,
            3 => Self::ReplApply,
            _ => Self::Execute,
        }
    }
}

/// One structured session event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEvent {
    /// Correlates the stages of one message's journey: assigned by the
    /// event loop at decode (unique per server), or the leader-assigned
    /// record position for [`TraceStage::ReplApply`] spans. 0 for events
    /// with no message context (e.g. a session teardown).
    pub span: u64,
    /// Server-assigned session id (0 for storage-tier stages, which
    /// correlate by span instead).
    pub session: u64,
    /// Which pipeline stage recorded this event.
    pub stage: TraceStage,
    /// Raw message-type byte (`MSG_*` from [`crate::net::proto`]; 0 for
    /// events with no parsed type, e.g. a peer that sent garbage).
    pub msg_type: u8,
    /// How the interaction ended.
    pub outcome: TraceOutcome,
    /// Stage wall time in nanoseconds (0 for arrival markers).
    pub ns: u64,
}

thread_local! {
    /// The span id of the message the current thread is executing, if
    /// any — parked by the executing loop, read by the storage tier.
    static CURRENT_SPAN: Cell<Option<u64>> = const { Cell::new(None) };
}

/// Parks (or clears) the span id of the message the current thread is
/// handling, so tiers deeper in the call stack can tag their trace
/// events without a parameter threaded through every signature.
pub fn set_current_span(span: Option<u64>) {
    CURRENT_SPAN.with(|s| s.set(span));
}

/// The span id parked by [`set_current_span`], if any.
#[must_use]
pub fn current_span() -> Option<u64> {
    CURRENT_SPAN.with(Cell::get)
}

// One ring slot. `seq` encodes the publication state: 0 = never written,
// `2t + 1` = ticket t's write in flight, `2t + 2` = ticket t published.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    span: AtomicU64,
    session: AtomicU64,
    // msg_type | outcome << 8 | stage << 16, packed so a slot stays a
    // handful of atomics.
    meta: AtomicU64,
    ns: AtomicU64,
}

/// The fixed-size lock-free event ring. See the [module docs](self) for
/// the concurrency contract.
#[derive(Debug)]
pub struct TraceRing {
    slots: Box<[Slot]>,
    head: AtomicU64,
    enabled: AtomicBool,
}

impl TraceRing {
    /// A ring holding the last `capacity` events (clamped to ≥ 1),
    /// disabled until [`TraceRing::set_enabled`].
    #[must_use]
    pub fn new(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        Self {
            slots: (0..capacity)
                .map(|_| Slot {
                    seq: AtomicU64::new(0),
                    span: AtomicU64::new(0),
                    session: AtomicU64::new(0),
                    meta: AtomicU64::new(0),
                    ns: AtomicU64::new(0),
                })
                .collect(),
            head: AtomicU64::new(0),
            enabled: AtomicBool::new(false),
        }
    }

    /// A ring that starts enabled.
    #[must_use]
    pub fn enabled_with(capacity: usize) -> Self {
        let ring = Self::new(capacity);
        ring.set_enabled(true);
        ring
    }

    /// Number of slots.
    #[must_use]
    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Whether recording is on.
    #[must_use]
    pub fn enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Turns recording on or off at runtime.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Total events ever recorded (monotone; events beyond capacity have
    /// overwritten the oldest slots).
    #[must_use]
    pub fn recorded(&self) -> u64 {
        self.head.load(Ordering::Acquire)
    }

    /// Records one event (no-op while disabled). Never blocks: one
    /// `fetch_add` claims a ticket, then the slot is published under its
    /// seqlock.
    pub fn record(&self, event: TraceEvent) {
        if !self.enabled() {
            return;
        }
        let ticket = self.head.fetch_add(1, Ordering::AcqRel);
        let slot = &self.slots[(ticket % self.slots.len() as u64) as usize];
        // Mark in flight (odd), publish fields, then mark valid (even).
        // Two writers lapping each other on one slot leave it with the
        // higher ticket's data or a seq readers detect as torn — either
        // way readers never observe a half-written event as valid.
        slot.seq.store(2 * ticket + 1, Ordering::Release);
        slot.span.store(event.span, Ordering::Relaxed);
        slot.session.store(event.session, Ordering::Relaxed);
        slot.meta.store(
            u64::from(event.msg_type)
                | u64::from(event.outcome.to_u8()) << 8
                | u64::from(event.stage.to_u8()) << 16,
            Ordering::Relaxed,
        );
        slot.ns.store(event.ns, Ordering::Relaxed);
        slot.seq.store(2 * ticket + 2, Ordering::Release);
    }

    /// Best-effort snapshot of the ring: the surviving events sorted
    /// oldest → newest, each tagged with its ticket (the monotone event
    /// number). Slots being overwritten concurrently are skipped.
    #[must_use]
    pub fn events(&self) -> Vec<(u64, TraceEvent)> {
        let mut out = Vec::with_capacity(self.slots.len());
        for slot in self.slots.iter() {
            // Read seq, fields, seq again; keep only stable even reads.
            let before = slot.seq.load(Ordering::Acquire);
            if before == 0 || before % 2 == 1 {
                continue;
            }
            let span = slot.span.load(Ordering::Relaxed);
            let session = slot.session.load(Ordering::Relaxed);
            let meta = slot.meta.load(Ordering::Relaxed);
            let ns = slot.ns.load(Ordering::Relaxed);
            let after = slot.seq.load(Ordering::Acquire);
            if after != before {
                continue;
            }
            out.push((
                (before - 2) / 2,
                TraceEvent {
                    span,
                    session,
                    stage: TraceStage::from_u8(((meta >> 16) & 0xff) as u8),
                    msg_type: (meta & 0xff) as u8,
                    outcome: TraceOutcome::from_u8(((meta >> 8) & 0xff) as u8),
                    ns,
                },
            ));
        }
        out.sort_by_key(|(ticket, _)| *ticket);
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(session: u64, ns: u64) -> TraceEvent {
        TraceEvent {
            span: session,
            session,
            stage: TraceStage::Execute,
            msg_type: 0x03,
            outcome: TraceOutcome::Ok,
            ns,
        }
    }

    #[test]
    fn disabled_ring_records_nothing() {
        let ring = TraceRing::new(4);
        ring.record(ev(1, 10));
        assert_eq!(ring.recorded(), 0);
        assert!(ring.events().is_empty());
        ring.set_enabled(true);
        ring.record(ev(1, 10));
        assert_eq!(ring.recorded(), 1);
        assert_eq!(ring.events().len(), 1);
    }

    #[test]
    fn ring_keeps_the_newest_capacity_events_in_order() {
        let ring = TraceRing::enabled_with(4);
        for i in 0..10u64 {
            ring.record(ev(i, i * 100));
        }
        let events = ring.events();
        assert_eq!(events.len(), 4);
        let tickets: Vec<u64> = events.iter().map(|(t, _)| *t).collect();
        assert_eq!(tickets, vec![6, 7, 8, 9]);
        for (ticket, event) in events {
            assert_eq!(event.session, ticket);
            assert_eq!(event.ns, ticket * 100);
        }
    }

    #[test]
    fn concurrent_writers_never_produce_torn_events() {
        let ring = std::sync::Arc::new(TraceRing::enabled_with(8));
        std::thread::scope(|scope| {
            for w in 0..4u64 {
                let ring = std::sync::Arc::clone(&ring);
                scope.spawn(move || {
                    for i in 0..500u64 {
                        // session encodes writer, ns and span encode the
                        // writer too — a torn slot would mix them.
                        ring.record(ev(w * 1000, w * 1000));
                        let _ = i;
                    }
                });
            }
            for _ in 0..50 {
                for (_, event) in ring.events() {
                    assert_eq!(event.session, event.ns, "torn slot observed");
                    assert_eq!(event.span, event.ns, "torn slot observed");
                }
            }
        });
        assert_eq!(ring.recorded(), 2000);
    }

    #[test]
    fn stage_and_span_roundtrip_through_a_slot() {
        let ring = TraceRing::enabled_with(8);
        for (i, stage) in [
            TraceStage::Decode,
            TraceStage::Execute,
            TraceStage::WalAppend,
            TraceStage::ReplApply,
        ]
        .into_iter()
        .enumerate()
        {
            ring.record(TraceEvent {
                span: 700 + i as u64,
                session: 9,
                stage,
                msg_type: 0x02,
                outcome: TraceOutcome::Ok,
                ns: 5,
            });
        }
        let events = ring.events();
        assert_eq!(events.len(), 4);
        assert_eq!(events[0].1.stage, TraceStage::Decode);
        assert_eq!(events[2].1.stage, TraceStage::WalAppend);
        assert_eq!(events[3].1.stage, TraceStage::ReplApply);
        assert_eq!(events[3].1.span, 703);
    }

    #[test]
    fn current_span_is_thread_local() {
        assert_eq!(current_span(), None);
        set_current_span(Some(41));
        assert_eq!(current_span(), Some(41));
        std::thread::spawn(|| assert_eq!(current_span(), None))
            .join()
            .unwrap();
        set_current_span(None);
        assert_eq!(current_span(), None);
    }
}
