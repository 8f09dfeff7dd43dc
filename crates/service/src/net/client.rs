//! [`LdpClient`] — the blocking session client.
//!
//! One client owns one TCP session: a HELLO handshake at connect, then
//! any mix of batched report submission, queries, and (on windowed
//! sessions) epoch seals, finished by a clean BYE. Used by the
//! differential tests, `examples/net_pipeline.rs`, the socket replay
//! path over [`EncodedStream`], and the `ldpbench` load generator.

use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

use crate::loadgen::EncodedStream;
use crate::net::proto::{
    read_message, write_message, write_report, ClientMsg, Hello, HelloOk, Query, QueryOp,
    QueryReply, ServerMsg, StatusReply,
};
use crate::net::NetError;

/// A blocking client for one negotiated session.
#[derive(Debug)]
pub struct LdpClient {
    stream: TcpStream,
    negotiated: HelloOk,
}

impl LdpClient {
    /// Connects and performs the HELLO handshake. A read timeout guards
    /// every reply so a dead server surfaces as a typed error instead of
    /// a hung test.
    ///
    /// # Errors
    ///
    /// I/O failures, protocol violations, or a typed server rejection
    /// ([`NetError::Remote`] — kind/wire-version/epoch-mode mismatches).
    pub fn connect(addr: impl ToSocketAddrs, hello: Hello) -> Result<Self, NetError> {
        let stream = TcpStream::connect(addr)?;
        stream.set_read_timeout(Some(Duration::from_secs(10)))?;
        stream.set_nodelay(true)?;
        let mut client = Self {
            stream,
            negotiated: HelloOk {
                kind: hello.kind,
                wire_version: hello.wire_version,
                windowed: hello.windowed,
                domain: 0,
            },
        };
        match client.roundtrip(&ClientMsg::Hello(hello))? {
            ServerMsg::HelloOk(ok) => {
                client.negotiated = ok;
                Ok(client)
            }
            ServerMsg::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::UnexpectedReply("HELLO answered with non-HELLO")),
        }
    }

    /// Like [`LdpClient::connect`], with an explicit reply read timeout
    /// — the hook the slow-client and idle-eviction tests use to wait
    /// longer (or shorter) than the 10-second default.
    ///
    /// # Errors
    ///
    /// As [`LdpClient::connect`].
    pub fn connect_with(
        addr: impl ToSocketAddrs,
        hello: Hello,
        read_timeout: Duration,
    ) -> Result<Self, NetError> {
        let client = Self::connect(addr, hello)?;
        client.stream.set_read_timeout(Some(read_timeout))?;
        Ok(client)
    }

    /// The negotiated session parameters, including the server's snapshot
    /// domain.
    #[must_use]
    pub fn negotiated(&self) -> HelloOk {
        self.negotiated
    }

    /// Surrenders the underlying stream with the handshake already done —
    /// the hook tests use to speak raw protocol bytes (pipelined
    /// envelopes, half-written frames) over a negotiated session.
    #[must_use]
    pub fn into_stream(self) -> TcpStream {
        self.stream
    }

    /// Sends one batch of already-encoded frames (`count` back-to-back
    /// wire frames in `frames`), returning the acked count.
    ///
    /// # Errors
    ///
    /// Transport failures, or [`NetError::Remote`] when the server
    /// rejects the batch (nothing from it was absorbed; the error names
    /// the offending frame index).
    pub fn send_batch(&mut self, count: u64, frames: &[u8]) -> Result<u64, NetError> {
        // Straight from the borrowed span: prefix, header and frames
        // leave in one vectored write, and the frames are never copied.
        write_report(&mut self.stream, count, frames)?;
        match self.reply()? {
            ServerMsg::ReportOk { accepted } => Ok(accepted),
            ServerMsg::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::UnexpectedReply("REPORT answered with non-ACK")),
        }
    }

    /// Replays an [`EncodedStream`] in REPORT batches of `batch_frames`
    /// frames, returning the total acked count — the socket-mode loadgen
    /// path.
    ///
    /// # Errors
    ///
    /// As [`LdpClient::send_batch`]; the total reflects only batches
    /// acked before the failure.
    pub fn send_stream(
        &mut self,
        stream: &EncodedStream,
        batch_frames: usize,
    ) -> Result<u64, NetError> {
        let batch_frames = batch_frames.max(1);
        let mut acked = 0;
        let mut lo = 0;
        while lo < stream.len() {
            let hi = (lo + batch_frames).min(stream.len());
            acked += self.send_batch((hi - lo) as u64, stream.frame_span(lo, hi))?;
            lo = hi;
        }
        Ok(acked)
    }

    /// Runs one query.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed server rejection.
    pub fn query(&mut self, query: Query) -> Result<QueryReply, NetError> {
        match self.roundtrip(&ClientMsg::Query(query))? {
            ServerMsg::QueryOk(reply) => Ok(reply),
            ServerMsg::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::UnexpectedReply("QUERY answered with non-reply")),
        }
    }

    /// Convenience: an unwindowed range query `[a, b]`.
    ///
    /// # Errors
    ///
    /// As [`LdpClient::query`].
    pub fn range(&mut self, a: u64, b: u64) -> Result<QueryReply, NetError> {
        self.query(Query {
            op: QueryOp::Range { a, b },
            window: None,
        })
    }

    /// Convenience: an unwindowed φ-quantile query.
    ///
    /// # Errors
    ///
    /// As [`LdpClient::query`].
    pub fn quantile(&mut self, phi: f64) -> Result<QueryReply, NetError> {
        self.query(Query {
            op: QueryOp::Quantile { phi },
            window: None,
        })
    }

    /// Probes the server's counters and durability progress. Works on
    /// any session (the request names no report kind). Metrics and
    /// health are not on the session protocol: scrape the server's
    /// [`crate::net::NetConfig::ops_addr`] endpoint for those.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed server rejection.
    pub fn status(&mut self) -> Result<StatusReply, NetError> {
        match self.roundtrip(&ClientMsg::Status)? {
            ServerMsg::StatusOk(status) => Ok(status),
            ServerMsg::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::UnexpectedReply("STATUS answered with non-status")),
        }
    }

    /// Seals the open epoch (windowed sessions), returning its id.
    ///
    /// # Errors
    ///
    /// Transport failures or a typed rejection (unwindowed backend).
    pub fn seal_epoch(&mut self) -> Result<u64, NetError> {
        match self.roundtrip(&ClientMsg::Seal)? {
            ServerMsg::SealOk { epoch } => Ok(epoch),
            ServerMsg::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::UnexpectedReply("SEAL answered with non-ack")),
        }
    }

    /// Opens a replication feed against a durable leader, subscribed
    /// from absolute record position `start` — a stream session, not a
    /// report session, so it gets its own connection (no HELLO) and its
    /// own type: [`crate::repl::ReplFeed`].
    ///
    /// # Errors
    ///
    /// Transport failures or a typed rejection (`REPL_UNAVAILABLE` from
    /// a non-durable or pruned leader).
    pub fn replicate(
        addr: impl ToSocketAddrs,
        start: u64,
    ) -> Result<crate::repl::ReplFeed, NetError> {
        crate::repl::ReplFeed::connect(addr, start)
    }

    /// Ends the session cleanly.
    ///
    /// # Errors
    ///
    /// Transport failures; the server's BYE ack is awaited so the drain
    /// accounting on both sides agrees.
    pub fn bye(mut self) -> Result<(), NetError> {
        match self.roundtrip(&ClientMsg::Bye)? {
            ServerMsg::ByeOk => Ok(()),
            ServerMsg::Error(e) => Err(NetError::Remote(e)),
            _ => Err(NetError::UnexpectedReply("BYE answered with non-ack")),
        }
    }

    fn roundtrip(&mut self, msg: &ClientMsg) -> Result<ServerMsg, NetError> {
        write_message(&mut self.stream, &msg.encode())?;
        self.reply()
    }

    fn reply(&mut self) -> Result<ServerMsg, NetError> {
        let reply = read_message(&mut self.stream)?;
        Ok(ServerMsg::decode(&reply)?)
    }
}
