//! The run-to-completion event loops behind [`crate::net::LdpServer`].
//!
//! The server runs `NetConfig::workers` identical [`EventLoop`]s. Each
//! owns a readiness poller and the sessions assigned to it: it reads
//! non-blocking sockets into per-session buffers, slices complete
//! length-prefixed envelopes out of them, executes them inline against
//! the backend (the server's session state machine, behind [`Execute`]),
//! and flushes the encoded replies with vectored writes through
//! per-session output queues. A message is read, executed and answered
//! on one thread, so it crosses no thread hand-off. A session costs one
//! file descriptor and a few buffers, not an OS thread, so the node's
//! session ceiling is the file-descriptor limit.
//!
//! Loop 0 also owns the listener. It hands each accepted stream to the
//! next loop round-robin, through that loop's mailbox plus its poller's
//! wake. The loops share only the shutdown flag, one session-id counter
//! (so ids stay unique server-wide — the replication hub keys streams by
//! them), and the registry instruments (so `net.sessions_open` is one
//! count).
//!
//! Ordering: a session's messages execute on its one loop in arrival
//! order, and their replies are queued in that order, so a pipelined
//! client sees exactly the replies a blocking request-reply loop would
//! have produced, without paying a round trip per message.
//!
//! Run to completion: after executing, a loop keeps parsing and
//! executing until none of its sessions holds a complete message, and
//! only then waits again. A pipelined burst larger than the inbox cap is
//! therefore served back to back, never one poll tick per slice.
//!
//! Backpressure: a session whose inbox (parsed-but-unexecuted messages)
//! or output queue grows past its cap has read interest dropped until
//! the backlog drains, so fan-in is bounded per session.

use std::collections::VecDeque;
use std::io::{IoSlice, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crate::net::poll::{Event, Interest, Poller, TOKEN_LISTENER};
use crate::net::proto::{ErrorCode, Hello, RemoteError, ServerMsg, MAX_MESSAGE_BYTES};
use crate::obs::instruments::NetInstruments;
use crate::service::lock_infallible;

/// Parsed-but-unexecuted messages a session may hold before its read
/// interest is shed (per-session pipelining bound).
const INBOX_CAP: usize = 32;
/// Output-queue bytes a session may hold before its read interest is
/// shed — a peer that stops reading its replies stops being read.
const OUT_SOFT_CAP: usize = 8 * 1024 * 1024;
/// Reply chunks gathered into one vectored write.
const MAX_IOV: usize = 64;
/// Stack scratch for one read syscall.
const READ_CHUNK: usize = 16 * 1024;
/// How long accepting pauses after a hard accept failure (EMFILE and
/// friends) — the listener is deregistered for the pause so a
/// level-triggered poller does not busy-loop on the still-pending
/// connection.
const ACCEPT_PAUSE: Duration = Duration::from_millis(50);

/// Wraps an encoded message body in the 4-byte little-endian length
/// envelope the session protocol frames everything with.
pub(crate) fn envelope(body: &[u8]) -> Vec<u8> {
    let mut buf = Vec::with_capacity(4 + body.len());
    buf.extend_from_slice(&u32::try_from(body.len()).unwrap_or(u32::MAX).to_le_bytes());
    buf.extend_from_slice(body);
    buf
}

/// A batch of complete message bodies from one session, executed inline
/// by its loop. An empty body is the hostile-envelope sentinel (declared
/// length zero or over the cap): the executor answers it with a typed
/// protocol error and closes, mirroring the blocking engine's behavior
/// byte for byte.
pub(crate) struct Job {
    /// Server-wide session id (the replication hub keys streams by it).
    pub session: u64,
    /// Negotiated handshake state before the batch.
    pub hello: Option<Hello>,
    /// The session entered replication mode (REPLICATE accepted).
    pub repl: bool,
    /// Message bodies in arrival order.
    pub bodies: Vec<Vec<u8>>,
}

/// What executing a [`Job`] produced.
pub(crate) struct JobDone {
    /// Handshake state after the batch (a HELLO inside the batch
    /// upgrades it).
    pub hello: Option<Hello>,
    /// Encoded reply bodies in order; the loop envelopes and flushes
    /// them.
    pub replies: Vec<Vec<u8>>,
    /// The session entered replication mode during this job.
    pub repl: bool,
    /// A server-push source to install on the session (a REPLICATE
    /// stream). The loop pumps it whenever the output queue has
    /// headroom.
    pub push: Option<Box<dyn PushSource>>,
    /// Close the session once the replies are flushed (BYE, fatal
    /// protocol error, failed handshake).
    pub close: bool,
}

/// The session state machine a loop runs inline: the server implements
/// it over its backend, so the loops stay free of the report type.
pub(crate) trait Execute: Send + Sync {
    fn execute(&self, job: Job) -> JobDone;
}

/// What one [`PushSource::pull`] produced.
pub(crate) enum Pull {
    /// Encoded message bodies to envelope and queue, in order.
    Bodies(Vec<Vec<u8>>),
    /// Nothing available right now — pull again after the next wake or
    /// tick (the source's producer rings [`Poller::wake`] on progress).
    Idle,
    /// The stream is over: optionally queue one final body (a typed
    /// error), then close the session once flushed.
    End(Option<Vec<u8>>),
}

/// A server-push byte source owned by one session — the long-lived
/// half of a replication stream. The loop pulls whenever the session's
/// output queue is below [`OUT_SOFT_CAP`], so the cap *is* the bounded
/// per-follower send buffer: a slow or stalled follower stops costing
/// memory at the cap, not at the log size. `max_bytes` is the remaining
/// headroom; a pull may return less, never much more than one record
/// over. Dropping the source (session teardown) must release anything
/// it registered.
pub(crate) trait PushSource: Send {
    fn pull(&mut self, max_bytes: usize) -> Pull;
}

/// One loop's doorbell and mailbox, reachable from every thread.
struct LoopHandle {
    /// The loop's readiness source; `wake` is its doorbell.
    poller: Poller,
    /// Streams loop 0 accepted for this loop, not yet admitted.
    mailbox: Mutex<Vec<TcpStream>>,
}

/// What the loops and the server handle share: each loop's poller and
/// mailbox, the shutdown flag, and the server-wide id counters.
pub(crate) struct ReactorShared {
    loops: Vec<LoopHandle>,
    /// Set by [`ReactorShared::request_shutdown`]; flips every loop into
    /// its drain.
    shutdown: AtomicBool,
    /// Next session id (accept order across the whole server).
    next_session: AtomicU64,
}

impl ReactorShared {
    /// `loops` pollers (at least one), each with an empty mailbox.
    pub(crate) fn new(loops: usize, portable_poller: bool, tick: Duration) -> Self {
        Self {
            loops: (0..loops.max(1))
                .map(|_| LoopHandle {
                    poller: Poller::new(portable_poller, tick),
                    mailbox: Mutex::new(Vec::new()),
                })
                .collect(),
            shutdown: AtomicBool::new(false),
            next_session: AtomicU64::new(0),
        }
    }

    /// How many loops there are.
    pub(crate) fn loops(&self) -> usize {
        self.loops.len()
    }

    /// Rings every loop's doorbell.
    pub(crate) fn wake_all(&self) {
        for l in &self.loops {
            l.poller.wake();
        }
    }

    /// Flips every loop into its drain.
    pub(crate) fn request_shutdown(&self) {
        self.shutdown.store(true, Ordering::SeqCst);
        self.wake_all();
    }

    /// Accounts for the streams still waiting in a mailbox once every
    /// loop has exited (accepted just as the drain began): each is
    /// admitted and closed, so `sessions_opened == sessions_closed`.
    pub(crate) fn close_unadmitted(&self, obs: &NetInstruments) {
        for l in &self.loops {
            // Taking the streams out drops (closes) them.
            let stragglers = std::mem::take(&mut *lock_infallible(&l.mailbox)).len() as u64;
            obs.sessions_opened.add(stragglers);
            obs.sessions_closed.add(stragglers);
        }
    }

    fn hand_off(&self, to: usize, stream: TcpStream) {
        lock_infallible(&self.loops[to].mailbox).push(stream);
        self.loops[to].poller.wake();
    }
}

/// Loop tuning derived from [`crate::net::NetConfig`].
#[derive(Clone, Copy)]
pub(crate) struct ReactorKnobs {
    /// Poll tick — bounds how stale the shutdown flag and idle clocks
    /// can get.
    pub idle_poll: Duration,
    /// Mid-message patience during drain, in ticks of `idle_poll`.
    pub drain_patience: u32,
    /// Evict sessions quiescent for longer than this (off when `None`).
    pub idle_timeout: Option<Duration>,
}

struct Session {
    stream: TcpStream,
    /// Server-wide id (accept order).
    id: u64,
    /// Partial-read accumulator: raw bytes, possibly mid-envelope.
    inbuf: Vec<u8>,
    /// Complete message bodies awaiting execution.
    inbox: VecDeque<Vec<u8>>,
    /// Enveloped replies awaiting flush.
    outq: VecDeque<Vec<u8>>,
    /// Bytes of `outq[0]` already written.
    out_head: usize,
    /// Total bytes queued in `outq` (backpressure accounting).
    out_bytes: usize,
    /// Negotiated handshake, updated from [`JobDone`].
    hello: Option<Hello>,
    /// The session is in replication mode (only REPL_ACK/BYE accepted).
    repl: bool,
    /// Installed push stream (replication records), pumped while the
    /// output queue has headroom.
    push: Option<Box<dyn PushSource>>,
    /// Close once `outq` flushes (BYE, fatal error, idle eviction).
    closing: bool,
    /// Read side saw EOF, a read error, or a hostile envelope.
    read_gone: bool,
    /// Write side failed; nothing further can be delivered.
    write_dead: bool,
    /// Interest currently registered with the poller.
    registered: Interest,
    /// Last byte received (idle-eviction clock).
    last_rx: Instant,
    /// Last byte moved either way (drain-patience clock).
    progress_at: Instant,
}

impl Session {
    fn quiescent(&self) -> bool {
        self.inbox.is_empty() && self.inbuf.is_empty() && self.outq.is_empty() && !self.closing
    }
}

struct Slot {
    gen: u32,
    sess: Option<Session>,
}

fn token_of(gen: u32, idx: usize) -> u64 {
    (u64::from(gen) << 32) | idx as u64
}

/// One event loop's state. Constructed by the server, consumed by
/// [`EventLoop::run`] on a dedicated thread.
pub(crate) struct EventLoop {
    /// This loop's position in [`ReactorShared`]'s loops.
    index: usize,
    /// The accept listener (loop 0 only).
    listener: Option<TcpListener>,
    shared: Arc<ReactorShared>,
    exec: Arc<dyn Execute>,
    knobs: ReactorKnobs,
    obs: NetInstruments,
    slots: Vec<Slot>,
    free: Vec<usize>,
    /// Sessions this loop holds (the drain's exit condition).
    open: usize,
    /// Loop the next accepted stream goes to (loop 0 only).
    next_target: usize,
    /// `Some(deadline)` while accepting is paused after a hard accept
    /// error; the listener is re-registered once the deadline passes.
    accept_paused_until: Option<Instant>,
    listener_registered: bool,
}

impl EventLoop {
    /// Wires loop `index`. Loop 0 takes the already-bound non-blocking
    /// listener and registers it with its poller.
    pub(crate) fn new(
        index: usize,
        listener: Option<TcpListener>,
        shared: Arc<ReactorShared>,
        exec: Arc<dyn Execute>,
        knobs: ReactorKnobs,
        obs: NetInstruments,
    ) -> std::io::Result<Self> {
        if let Some(l) = &listener {
            shared.loops[index]
                .poller
                .register(l, TOKEN_LISTENER, Interest::READ)?;
        }
        Ok(Self {
            index,
            listener_registered: listener.is_some(),
            listener,
            shared,
            exec,
            knobs,
            obs,
            slots: Vec::new(),
            free: Vec::new(),
            open: 0,
            next_target: 0,
            accept_paused_until: None,
        })
    }

    fn poller(&self) -> &Poller {
        &self.shared.loops[self.index].poller
    }

    /// The event loop. Runs until shutdown has been requested *and*
    /// every session it holds is torn down.
    pub(crate) fn run(mut self) {
        let mut events: Vec<Event> = Vec::new();
        loop {
            if self.shared.shutdown.load(Ordering::SeqCst) {
                self.unregister_listener();
            } else {
                self.maybe_resume_accepting();
            }
            self.poller().wait(&mut events, Some(self.knobs.idle_poll));
            // Read after the wait: the shutdown wake must start the drain
            // now, not a poll tick later.
            let draining = self.shared.shutdown.load(Ordering::SeqCst);
            let handed = std::mem::take(&mut *lock_infallible(
                &self.shared.loops[self.index].mailbox,
            ));
            for stream in handed {
                self.admit(stream);
            }
            for &ev in &events {
                if ev.token == TOKEN_LISTENER {
                    if !draining {
                        self.accept_ready();
                    }
                } else {
                    self.session_event(ev);
                }
            }
            self.run_to_completion();
            if draining {
                self.drain_tick();
                if self.open == 0 {
                    break;
                }
            } else {
                self.pump_push_all();
                if self.knobs.idle_timeout.is_some() {
                    self.evict_idle();
                }
            }
        }
    }

    fn unregister_listener(&mut self) {
        if let (Some(l), true) = (&self.listener, self.listener_registered) {
            self.shared.loops[self.index]
                .poller
                .deregister(l, TOKEN_LISTENER);
            self.listener_registered = false;
        }
    }

    fn maybe_resume_accepting(&mut self) {
        let (Some(l), Some(deadline)) = (&self.listener, self.accept_paused_until) else {
            return;
        };
        if Instant::now() >= deadline {
            match self.shared.loops[self.index]
                .poller
                .register(l, TOKEN_LISTENER, Interest::READ)
            {
                Ok(()) => {
                    self.accept_paused_until = None;
                    self.listener_registered = true;
                }
                Err(_) => {
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
                }
            }
        }
    }

    /// Accepts until the listener would block, dealing streams out
    /// round-robin across the loops. A hard failure (EMFILE under fd
    /// pressure being the realistic one) pauses accepting for
    /// [`ACCEPT_PAUSE`] instead of spinning on a level-triggered
    /// readiness that cannot be consumed.
    fn accept_ready(&mut self) {
        loop {
            let Some(listener) = &self.listener else {
                return;
            };
            match listener.accept() {
                Ok((stream, _)) => {
                    let to = self.next_target;
                    self.next_target = (to + 1) % self.shared.loops();
                    if to == self.index {
                        self.admit(stream);
                    } else {
                        self.shared.hand_off(to, stream);
                    }
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    self.unregister_listener();
                    self.accept_paused_until = Some(Instant::now() + ACCEPT_PAUSE);
                    break;
                }
            }
        }
    }

    fn admit(&mut self, stream: TcpStream) {
        if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
            // Counted as a served-and-closed session so opened == closed
            // stays an invariant (the blocking engine did the same for a
            // connection that failed socket setup).
            self.obs.sessions_opened.incr();
            self.obs.sessions_closed.incr();
            return;
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.slots.push(Slot { gen: 0, sess: None });
            self.slots.len() - 1
        });
        let gen = self.slots[idx].gen;
        let token = token_of(gen, idx);
        debug_assert!(token < TOKEN_WAKE_GUARD, "slab token hit a reserved value");
        if self
            .poller()
            .register(&stream, token, Interest::READ)
            .is_err()
        {
            self.free.push(idx);
            self.obs.sessions_opened.incr();
            self.obs.sessions_closed.incr();
            return;
        }
        let now = Instant::now();
        let id = self.shared.next_session.fetch_add(1, Ordering::Relaxed);
        self.slots[idx].sess = Some(Session {
            stream,
            id,
            inbuf: Vec::new(),
            inbox: VecDeque::new(),
            outq: VecDeque::new(),
            out_head: 0,
            out_bytes: 0,
            hello: None,
            repl: false,
            push: None,
            closing: false,
            read_gone: false,
            write_dead: false,
            registered: Interest::READ,
            last_rx: now,
            progress_at: now,
        });
        self.open += 1;
        self.obs.sessions_opened.incr();
        self.obs.sessions_open.incr();
    }

    fn resolve(&self, token: u64) -> Option<usize> {
        let idx = usize::try_from(token & 0xFFFF_FFFF).ok()?;
        let gen = u32::try_from(token >> 32).ok()?;
        let slot = self.slots.get(idx)?;
        (slot.gen == gen && slot.sess.is_some()).then_some(idx)
    }

    fn session_event(&mut self, ev: Event) {
        let Some(idx) = self.resolve(ev.token) else {
            // Stale token: the session was torn down after the event was
            // harvested (or the slot was even reused — the generation
            // tag is what makes reuse safe to ignore).
            return;
        };
        if ev.readable {
            self.do_read(idx);
        }
        if self.slots[idx].sess.is_some() && ev.writable {
            self.do_flush(idx);
        }
        if self.slots[idx].sess.is_some() {
            self.update_interest(idx);
            self.maybe_teardown(idx);
        }
    }

    /// Drains the socket into the session's partial-read buffer, then
    /// slices complete envelopes out of it.
    fn do_read(&mut self, idx: usize) {
        {
            let Some(s) = self.slots[idx].sess.as_mut() else {
                return;
            };
            let mut buf = [0u8; READ_CHUNK];
            loop {
                if s.read_gone || s.closing {
                    break;
                }
                // Backpressure: stop pulling bytes while the inbox or
                // output queue is saturated; interest recomputation will
                // also shed read readiness until the backlog drains.
                if s.inbox.len() >= INBOX_CAP || s.out_bytes >= OUT_SOFT_CAP {
                    break;
                }
                match s.stream.read(&mut buf) {
                    Ok(0) => {
                        s.read_gone = true;
                        break;
                    }
                    Ok(n) => {
                        s.inbuf.extend_from_slice(&buf[..n]);
                        let now = Instant::now();
                        s.last_rx = now;
                        s.progress_at = now;
                        if n < buf.len() {
                            break;
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        s.read_gone = true;
                        break;
                    }
                }
            }
        }
        self.parse_inbuf(idx);
    }

    /// Extracts complete envelopes into the inbox. A hostile declared
    /// length (zero or over the cap) enqueues the empty-body sentinel —
    /// sequenced *after* every previously queued message, exactly where
    /// the blocking engine would have tripped over it — and stops the
    /// read side for good.
    fn parse_inbuf(&mut self, idx: usize) {
        let mut in_bytes = 0u64;
        {
            let Some(s) = self.slots[idx].sess.as_mut() else {
                return;
            };
            let mut off = 0;
            while !s.closing && s.inbox.len() < INBOX_CAP {
                let rest = &s.inbuf[off..];
                if rest.len() < 4 {
                    break;
                }
                let len = u32::from_le_bytes([rest[0], rest[1], rest[2], rest[3]]) as usize;
                let hostile = len == 0 || len > MAX_MESSAGE_BYTES;
                if !hostile && rest.len() < 4 + len {
                    break;
                }
                if hostile {
                    s.inbox.push_back(Vec::new());
                    s.read_gone = true;
                    s.inbuf.clear();
                    off = 0;
                    break;
                }
                s.inbox.push_back(rest[4..4 + len].to_vec());
                // Envelope + body, counted once decoded off the socket —
                // same accounting point as the blocking engine.
                in_bytes += 4 + len as u64;
                off += 4 + len;
            }
            if off > 0 {
                s.inbuf.drain(..off);
            }
        }
        if in_bytes > 0 {
            self.obs.bytes_in.add(in_bytes);
        }
    }

    /// Flushes the output queue with vectored writes until it would
    /// block or empties.
    fn do_flush(&mut self, idx: usize) {
        let mut out_bytes = 0u64;
        {
            let Some(s) = self.slots[idx].sess.as_mut() else {
                return;
            };
            while !s.outq.is_empty() && !s.write_dead {
                let mut iov: Vec<IoSlice<'_>> = Vec::with_capacity(s.outq.len().min(MAX_IOV));
                for (k, chunk) in s.outq.iter().take(MAX_IOV).enumerate() {
                    let from = if k == 0 { s.out_head } else { 0 };
                    iov.push(IoSlice::new(&chunk[from..]));
                }
                match s.stream.write_vectored(&iov) {
                    Ok(0) => {
                        s.write_dead = true;
                    }
                    Ok(mut n) => {
                        out_bytes += n as u64;
                        s.out_bytes -= n.min(s.out_bytes);
                        s.progress_at = Instant::now();
                        while n > 0 {
                            let rem = s.outq[0].len() - s.out_head;
                            if n >= rem {
                                n -= rem;
                                s.out_head = 0;
                                s.outq.pop_front();
                            } else {
                                s.out_head += n;
                                n = 0;
                            }
                        }
                    }
                    Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                    Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => break,
                    Err(_) => {
                        s.write_dead = true;
                    }
                }
            }
        }
        if out_bytes > 0 {
            self.obs.bytes_out.add(out_bytes);
        }
    }

    /// Recomputes and (only when changed) re-registers poller interest.
    fn update_interest(&mut self, idx: usize) {
        let token = token_of(self.slots[idx].gen, idx);
        let Some(s) = self.slots[idx].sess.as_mut() else {
            return;
        };
        let read = !s.read_gone
            && !s.closing
            && !s.write_dead
            && s.inbox.len() < INBOX_CAP
            && s.out_bytes < OUT_SOFT_CAP;
        let write = !s.outq.is_empty() && !s.write_dead;
        let want = Interest { read, write };
        if want == s.registered {
            return;
        }
        match self.shared.loops[self.index]
            .poller
            .reregister(&s.stream, token, want)
        {
            Ok(()) => s.registered = want,
            Err(_) => {
                // The fd is unusable; mark both sides dead so the next
                // teardown check reclaims the session.
                s.read_gone = true;
                s.write_dead = true;
            }
        }
    }

    /// Executes every session's queued messages, re-parsing what its
    /// buffer already holds after each batch, until no session on this
    /// loop has a complete message left.
    fn run_to_completion(&mut self) {
        let mut ran = true;
        while ran {
            ran = false;
            for idx in 0..self.slots.len() {
                ran |= self.execute_ready(idx);
            }
        }
    }

    /// Executes a ready session's whole inbox as one batch, then queues
    /// the replies, applies the handshake upgrade and close-after-flush,
    /// re-parses buffered bytes that queued behind the inbox cap, and
    /// flushes. Returns whether anything ran.
    fn execute_ready(&mut self, idx: usize) -> bool {
        let job = match self.slots[idx].sess.as_mut() {
            Some(s) if !s.closing && !s.write_dead && !s.inbox.is_empty() => Job {
                session: s.id,
                hello: s.hello,
                repl: s.repl,
                bodies: s.inbox.drain(..).collect(),
            },
            _ => return false,
        };
        let done = self.exec.execute(job);
        {
            let Some(s) = self.slots[idx].sess.as_mut() else {
                return true;
            };
            s.hello = done.hello;
            s.repl |= done.repl;
            if done.push.is_some() {
                s.push = done.push;
            }
            s.closing |= done.close;
            for body in &done.replies {
                let env = envelope(body);
                s.out_bytes += env.len();
                s.outq.push_back(env);
            }
        }
        self.parse_inbuf(idx);
        self.pump_push(idx);
        self.do_flush(idx);
        self.update_interest(idx);
        self.maybe_teardown(idx);
        true
    }

    /// Pulls from every session's installed push stream (one sweep per
    /// event-loop iteration — the hub's append waker rings every loop,
    /// so a fresh record is pumped on the very next iteration).
    fn pump_push_all(&mut self) {
        for idx in 0..self.slots.len() {
            let pumpable = self.slots[idx]
                .sess
                .as_ref()
                .is_some_and(|s| s.push.is_some());
            if !pumpable {
                continue;
            }
            self.pump_push(idx);
            self.do_flush(idx);
            self.update_interest(idx);
            self.maybe_teardown(idx);
        }
    }

    /// Fills the session's output queue from its push stream up to the
    /// [`OUT_SOFT_CAP`] headroom — the bounded per-follower send buffer.
    /// An ended stream queues its final body (if any) and closes the
    /// session once flushed.
    fn pump_push(&mut self, idx: usize) {
        loop {
            let Some(s) = self.slots[idx].sess.as_mut() else {
                return;
            };
            if s.push.is_none() || s.closing || s.write_dead || s.out_bytes >= OUT_SOFT_CAP {
                return;
            }
            let budget = OUT_SOFT_CAP - s.out_bytes;
            let Some(push) = s.push.as_mut() else {
                return;
            };
            match push.pull(budget) {
                Pull::Bodies(bodies) => {
                    if bodies.is_empty() {
                        return;
                    }
                    for body in &bodies {
                        let env = envelope(body);
                        s.out_bytes += env.len();
                        s.outq.push_back(env);
                    }
                }
                Pull::Idle => return,
                Pull::End(last) => {
                    if let Some(body) = last {
                        let env = envelope(&body);
                        s.out_bytes += env.len();
                        s.outq.push_back(env);
                    }
                    s.push = None;
                    s.closing = true;
                    return;
                }
            }
        }
    }

    /// Tears the session down when nothing further can or should happen:
    /// a protocol-initiated close whose replies flushed (or whose peer
    /// stopped reading), a dead write side, or a gone read side with no
    /// work left.
    fn maybe_teardown(&mut self, idx: usize) {
        let Some(s) = self.slots[idx].sess.as_ref() else {
            return;
        };
        let flushed = s.outq.is_empty();
        let done = s.write_dead
            || (s.closing && flushed)
            || (s.read_gone && s.inbox.is_empty() && flushed);
        if done {
            self.teardown(idx);
        }
    }

    fn teardown(&mut self, idx: usize) {
        let slot = &mut self.slots[idx];
        let Some(s) = slot.sess.take() else {
            return;
        };
        let token = token_of(slot.gen, idx);
        slot.gen = slot.gen.wrapping_add(1);
        self.shared.loops[self.index]
            .poller
            .deregister(&s.stream, token);
        drop(s);
        self.free.push(idx);
        self.open -= 1;
        self.obs.sessions_closed.incr();
        self.obs.sessions_open.decr();
    }

    /// One drain sweep, run after the loop has executed everything
    /// executable: quiescent sessions close immediately (the blocking
    /// engine closed them at their next idle tick); sessions with a
    /// half-received message or unflushed replies get bounded patience —
    /// `drain_patience` ticks without a byte of progress and they are
    /// abandoned, so a stalled peer cannot hold shutdown hostage.
    fn drain_tick(&mut self) {
        let patience = self
            .knobs
            .idle_poll
            .saturating_mul(self.knobs.drain_patience.max(1));
        for idx in 0..self.slots.len() {
            let Some(s) = self.slots[idx].sess.as_ref() else {
                continue;
            };
            if s.quiescent() || s.progress_at.elapsed() > patience {
                self.teardown(idx);
            }
        }
    }

    /// Evicts sessions that have been fully quiescent past the idle
    /// timeout: a typed `IdleTimeout` error is queued, the session
    /// closes once it flushes, and the eviction never races a request —
    /// backlogged sessions (parsed-but-unexecuted messages or unflushed
    /// replies) are by definition not idle, and neither is a session
    /// whose *write* side moved bytes recently: a slow reader that just
    /// drained its reply backlog gets a full timeout of quiet before
    /// eviction, not an instant cut the moment its queue empties
    /// (`progress_at` stamps both directions, `last_rx` only reads).
    /// Replication sessions are never idle — the push stream is the work.
    fn evict_idle(&mut self) {
        let Some(timeout) = self.knobs.idle_timeout else {
            return;
        };
        for idx in 0..self.slots.len() {
            {
                let Some(s) = self.slots[idx].sess.as_mut() else {
                    continue;
                };
                let evict = s.quiescent()
                    && s.push.is_none()
                    && s.last_rx.elapsed() > timeout
                    && s.progress_at.elapsed() > timeout;
                if !evict {
                    continue;
                }
                let body = ServerMsg::Error(RemoteError::new(
                    ErrorCode::IdleTimeout,
                    None,
                    format!("session idle past the {}ms timeout", timeout.as_millis()),
                ))
                .encode();
                let env = envelope(&body);
                s.out_bytes += env.len();
                s.outq.push_back(env);
                s.closing = true;
            }
            self.do_flush(idx);
            self.update_interest(idx);
            self.maybe_teardown(idx);
        }
    }
}

/// Guard bound for slab tokens: both reserved tokens live at the very
/// top of the `u64` space, unreachable for any realistic slab.
const TOKEN_WAKE_GUARD: u64 = u64::MAX - 1;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn envelope_prefixes_length_little_endian() {
        let env = envelope(&[0xAA, 0xBB, 0xCC]);
        assert_eq!(env, vec![3, 0, 0, 0, 0xAA, 0xBB, 0xCC]);
    }

    #[test]
    fn token_packing_round_trips() {
        let t = token_of(7, 42);
        assert_eq!(t & 0xFFFF_FFFF, 42);
        assert_eq!(t >> 32, 7);
        assert!(t < TOKEN_WAKE_GUARD);
    }
}
