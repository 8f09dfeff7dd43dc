//! The follower-side stream client: connects to a leader, subscribes at
//! a position, and yields pushed WAL record bodies one at a time.

use std::io::Read;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::net::proto::{write_message, ClientMsg, ServerMsg, MAX_REPL_MESSAGE_BYTES};
use crate::net::NetError;

/// A live replication feed from a leader.
///
/// Unlike [`crate::net::LdpClient`], the feed parses envelopes
/// incrementally from an internal buffer instead of using blocking
/// `read_exact` calls: the stream is server-push, so a read timeout is
/// the normal idle case, and a timeout inside `read_exact` could leave
/// half an envelope consumed and the stream desynced. Here a timed-out
/// `read` simply leaves the partial envelope buffered for the next
/// call.
#[derive(Debug)]
pub struct ReplFeed {
    stream: TcpStream,
    buf: Vec<u8>,
    next_position: u64,
    leader_records: u64,
}

impl ReplFeed {
    /// Connects to a leader and subscribes from absolute record
    /// position `start`. REPLICATE is allowed pre-HELLO (like STATUS),
    /// so no handshake precedes it.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, or a typed rejection
    /// ([`NetError::Remote`] — most notably `REPL_UNAVAILABLE` when the
    /// leader is not durable or has pruned its log origin).
    pub fn connect(addr: impl ToSocketAddrs, start: u64) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        let mut feed = Self {
            stream,
            buf: Vec::new(),
            next_position: start,
            leader_records: 0,
        };
        feed.send(&ClientMsg::Replicate { start })?;
        // The subscription ack arrives before any pushed record; an
        // idle timeout during the handshake is a dead leader.
        let body = feed.read_body()?.ok_or(NetError::Disconnected)?;
        match ServerMsg::decode(&body)? {
            ServerMsg::ReplOk {
                start: echoed,
                leader_records,
            } => {
                if echoed != start {
                    return Err(NetError::UnexpectedReply(
                        "REPL_OK echoed a different start position",
                    ));
                }
                feed.leader_records = leader_records;
                Ok(feed)
            }
            ServerMsg::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::UnexpectedReply(
                "REPLICATE answered with non-REPL_OK",
            )),
        }
    }

    /// Sets how long [`ReplFeed::next_record`] blocks before reporting
    /// "nothing yet" — the follower pump's stop-flag poll interval.
    ///
    /// # Errors
    ///
    /// Socket option failures.
    pub fn set_idle_timeout(&mut self, timeout: Duration) -> Result<(), NetError> {
        self.stream.set_read_timeout(Some(timeout))?;
        Ok(())
    }

    /// Waits for the next pushed record. Returns `Ok(None)` when the
    /// read timed out with the stream still healthy (a partial envelope
    /// stays buffered); returns `Err(NetError::Disconnected)` when the
    /// leader closed — if that happens mid-envelope, the partial record
    /// is simply discarded, mirroring the WAL torn-tail rule.
    ///
    /// # Errors
    ///
    /// Transport failures, protocol violations, a typed error pushed by
    /// the leader, or disconnect.
    pub fn next_record(&mut self) -> Result<Option<(u64, Vec<u8>)>, NetError> {
        let Some(body) = self.read_body()? else {
            return Ok(None);
        };
        self.decode_record(&body).map(Some)
    }

    /// Waits for the next pushed record, then drains every *complete*
    /// record the socket reads buffered alongside it — a busy leader
    /// pushes records back to back, so one kernel round trip often
    /// carries dozens of envelopes, and handing them to the caller as
    /// one run lets the follower apply them under one order lock instead
    /// of one per record. Never blocks once the first record is in
    /// hand; returns an empty run when the initial read timed out.
    ///
    /// # Errors
    ///
    /// As [`ReplFeed::next_record`]. Records decoded before the failing
    /// one are discarded — the caller resumes from its own position, so
    /// nothing is lost.
    pub fn next_records(&mut self, max: usize) -> Result<Vec<(u64, Vec<u8>)>, NetError> {
        let Some(first) = self.read_body()? else {
            return Ok(Vec::new());
        };
        let mut out = Vec::with_capacity(16);
        out.push(self.decode_record(&first)?);
        while out.len() < max {
            match self.take_buffered_body()? {
                Some(body) => out.push(self.decode_record(&body)?),
                None => break,
            }
        }
        Ok(out)
    }

    fn decode_record(&mut self, body: &[u8]) -> Result<(u64, Vec<u8>), NetError> {
        match ServerMsg::decode(body)? {
            ServerMsg::ReplRecord { position, body } => {
                self.next_position = position + 1;
                self.leader_records = self.leader_records.max(self.next_position);
                Ok((position, body))
            }
            ServerMsg::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::UnexpectedReply(
                "replication stream pushed a non-REPL_REC message",
            )),
        }
    }

    /// Reports progress to the leader: `acked` records durably applied.
    ///
    /// # Errors
    ///
    /// Transport failures.
    pub fn ack(&mut self, acked: u64) -> Result<(), NetError> {
        self.send(&ClientMsg::ReplAck { acked })
    }

    /// Position the next pushed record is expected to carry.
    #[must_use]
    pub fn next_position(&self) -> u64 {
        self.next_position
    }

    /// The leader's record count at subscribe time, advanced as records
    /// arrive — `leader_records() - next_position()` is a lag floor.
    #[must_use]
    pub fn leader_records(&self) -> u64 {
        self.leader_records
    }

    fn send(&mut self, msg: &ClientMsg) -> Result<(), NetError> {
        write_message(&mut self.stream, &msg.encode())
    }

    /// Pulls one complete envelope body out of the buffer without
    /// touching the socket — `Ok(None)` means the buffer holds no
    /// complete envelope (a partial one stays put for the next read).
    /// The cap is the stream's, not a client's: a REPL_REC wraps a WAL
    /// record, which may be longer than the REPORT it was acked from.
    fn take_buffered_body(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        if self.buf.len() >= 4 {
            let len =
                u32::from_le_bytes([self.buf[0], self.buf[1], self.buf[2], self.buf[3]]) as usize;
            if len == 0 || len > MAX_REPL_MESSAGE_BYTES {
                return Err(NetError::TooLarge {
                    declared: len as u64,
                });
            }
            if self.buf.len() >= 4 + len {
                let body = self.buf[4..4 + len].to_vec();
                self.buf.drain(..4 + len);
                return Ok(Some(body));
            }
        }
        Ok(None)
    }

    /// Pulls one complete envelope body, reading from the socket as
    /// needed. `Ok(None)` means the read timed out first.
    fn read_body(&mut self) -> Result<Option<Vec<u8>>, NetError> {
        loop {
            if let Some(body) = self.take_buffered_body()? {
                return Ok(Some(body));
            }
            let mut chunk = [0u8; 16 * 1024];
            match self.stream.read(&mut chunk) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(e)
                    if e.kind() == std::io::ErrorKind::WouldBlock
                        || e.kind() == std::io::ErrorKind::TimedOut =>
                {
                    return Ok(None)
                }
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }
}
