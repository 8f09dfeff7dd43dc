//! WAL-shipping replication: hot standby and read replicas over the
//! session protocol.
//!
//! PR 4 made the wire format the log format — a WAL FRAMES record
//! carries raw wire frames exactly as clients sent them — and this
//! module exploits that: a **leader** (a durable server) streams its
//! acked WAL records (FRAMES, SEAL, and CHECKPOINT markers) to any
//! connected **follower**, which re-applies them through the same
//! decode/absorb/seal paths live ingestion uses and appends them to its
//! *own* log. Because absorption is exact integer arithmetic, the
//! follower's state is bit-identical to the leader's at the same
//! replication position — the property the replication differential
//! test pins down mechanism by mechanism.
//!
//! Positions are absolute record indices from the log's origin
//! (segment 0), counting every record — FRAMES, SEAL, and CHECKPOINT
//! markers alike. A leader serves replication only while its retained
//! log still starts at segment 0 (checkpoint pruning makes earlier
//! positions unservable, so new subscriptions are refused with
//! `REPL_UNAVAILABLE` after a prune); a follower never checkpoints, so
//! its own log length *is* its position, and a restart resumes exactly
//! from its local tail — the recovery torn-tail rule discards a record
//! half-received at disconnect, and the stream re-sends from there.
//!
//! The leader pushes records through its event loops' bounded per-session
//! output queue, so a slow follower costs at most the cap, never the
//! log; follower acknowledgements feed the `repl.followers` and
//! `repl.follower_lag_records` gauges. [`FollowerService::promote`]
//! seals replication and hands back the inner durable service — a
//! normal durable leader over the replicated log.

pub(crate) mod cursor;
mod feed;
mod follower;
pub(crate) mod hub;

pub use feed::ReplFeed;
pub use follower::FollowerService;
