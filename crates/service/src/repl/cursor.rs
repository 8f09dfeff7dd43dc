//! The leader-side stream cursor: a [`PushSource`] that tail-follows
//! the leader's WAL and turns records into `REPL_REC` push messages.

use std::path::Path;
use std::sync::Arc;

use crate::net::proto::{ErrorCode, RemoteError, ServerMsg};
use crate::net::reactor::{Pull, PushSource};
use crate::repl::hub::ReplHub;
use crate::storage::wal::WalReader;

/// One follower's view into the leader's log. An event loop owns it via
/// the session's push slot and pulls whenever the output queue has
/// headroom; dropping it (session teardown, however it happens)
/// unsubscribes the follower from the hub.
pub(crate) struct ReplCursor {
    hub: Arc<ReplHub>,
    session: u64,
    reader: WalReader,
    /// Records still to discard before the subscribed start position —
    /// the reader can only open at the log origin, so a resuming
    /// follower's prefix is skipped record by record (cheap: decode
    /// without encode or network).
    skip: u64,
}

impl ReplCursor {
    /// Opens a cursor for `session`, positioned to emit record `start`
    /// next. The caller must already hold a hub subscription for the
    /// session; on error the caller unsubscribes.
    pub(crate) fn new(
        hub: Arc<ReplHub>,
        session: u64,
        dir: &Path,
        start: u64,
    ) -> std::io::Result<Self> {
        let reader = WalReader::open_start(dir)?;
        Ok(Self {
            hub,
            session,
            reader,
            skip: start,
        })
    }
}

impl PushSource for ReplCursor {
    fn pull(&mut self, max_bytes: usize) -> Pull {
        let mut bodies = Vec::new();
        let mut spent = 0usize;
        // Loop so a skipped prefix (follower resuming mid-log) is burned
        // through without bouncing off the reactor per batch.
        loop {
            let batch = match self
                .reader
                .next_batch(max_bytes.saturating_sub(spent).max(1))
            {
                Ok(batch) => batch,
                Err(e) => {
                    let body = ServerMsg::Error(RemoteError::new(
                        ErrorCode::ReplUnavailable,
                        None,
                        format!("replication stream failed reading the leader's log: {e}"),
                    ))
                    .encode();
                    return Pull::End(Some(body));
                }
            };
            if batch.is_empty() {
                // Caught up to the writer's tail.
                return if bodies.is_empty() {
                    Pull::Idle
                } else {
                    Pull::Bodies(bodies)
                };
            }
            let mut position = self.reader.records_read() - batch.len() as u64;
            for record in &batch {
                if self.skip > 0 {
                    self.skip -= 1;
                    position += 1;
                    continue;
                }
                let body = ServerMsg::ReplRecord {
                    position,
                    body: record.encode_body(),
                }
                .encode();
                spent += body.len();
                bodies.push(body);
                position += 1;
            }
            if spent >= max_bytes {
                return Pull::Bodies(bodies);
            }
        }
    }
}

impl Drop for ReplCursor {
    fn drop(&mut self) {
        self.hub.unsubscribe(self.session);
    }
}
