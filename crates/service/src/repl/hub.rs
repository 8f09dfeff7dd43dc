//! The leader-side replication hub: follower registry, absolute record
//! count, lag gauges, and the event loops' wake channel.
//!
//! One hub hangs off a [`crate::storage::DurableService`] once it first
//! serves as a leader. Append paths call [`ReplHub::record_appended`]
//! under the WAL lock, so the hub's count order is log order; streaming
//! sessions subscribe/ack/unsubscribe keyed by their session id.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

use crate::obs::instruments::ReplInstruments;

type Waker = Box<dyn Fn() + Send + Sync>;

/// Leader-side replication state shared between the durable store's
/// append paths and the network front end's streaming sessions.
pub(crate) struct ReplHub {
    /// Absolute records in the log, counted from segment 0.
    records: AtomicU64,
    /// Whether positions can still be served from the origin (flips off
    /// when a checkpoint prunes segments).
    available: AtomicBool,
    /// Cached `followers.len()` so the append hot path skips the lock
    /// while nobody is subscribed.
    follower_count: AtomicUsize,
    /// Session id → highest acknowledged position.
    followers: Mutex<HashMap<u64, u64>>,
    /// Event-loop doorbells, rung on every append so streams pump promptly.
    wakers: Mutex<Vec<Waker>>,
    obs: ReplInstruments,
}

fn lock<'a, T>(m: &'a Mutex<T>) -> std::sync::MutexGuard<'a, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
}

impl ReplHub {
    pub(crate) fn new(records: u64, available: bool, obs: ReplInstruments) -> Self {
        Self {
            records: AtomicU64::new(records),
            available: AtomicBool::new(available),
            follower_count: AtomicUsize::new(0),
            followers: Mutex::new(HashMap::new()),
            wakers: Mutex::new(Vec::new()),
            obs,
        }
    }

    /// Absolute record count — the position the next appended record
    /// will take.
    pub(crate) fn records(&self) -> u64 {
        self.records.load(Ordering::SeqCst)
    }

    /// Marks origin positions unservable (checkpoint pruning removed
    /// segments). In-flight cursors keep streaming until they hit the
    /// pruned gap; new subscriptions are refused.
    pub(crate) fn mark_pruned(&self) {
        self.available.store(false, Ordering::SeqCst);
    }

    pub(crate) fn has_followers(&self) -> bool {
        self.follower_count.load(Ordering::SeqCst) > 0
    }

    /// Registers an event-loop doorbell, rung on every appended record.
    pub(crate) fn add_waker(&self, waker: Waker) {
        lock(&self.wakers).push(waker);
    }

    /// One record hit the log (called under the WAL lock). Bumps the
    /// count, refreshes the lag gauge, and rings every doorbell so the
    /// streams pump on the next event-loop iteration.
    pub(crate) fn record_appended(&self) {
        self.records.fetch_add(1, Ordering::SeqCst);
        if !self.has_followers() {
            return;
        }
        self.refresh_lag(&lock(&self.followers));
        for waker in lock(&self.wakers).iter() {
            waker();
        }
    }

    /// Admits a follower at `start`. Refused when origin positions are
    /// no longer servable or `start` lies past the log's end.
    pub(crate) fn subscribe(&self, session: u64, start: u64) -> Result<(), String> {
        if !self.available.load(Ordering::SeqCst) {
            return Err(
                "the leader's retained log no longer starts at its origin (a checkpoint \
                 pruned earlier segments), so replication positions cannot be served"
                    .to_string(),
            );
        }
        let records = self.records();
        if start > records {
            return Err(format!(
                "requested start position {start} is past the leader's {records} records"
            ));
        }
        let mut followers = lock(&self.followers);
        followers.insert(session, start);
        self.follower_count.store(followers.len(), Ordering::SeqCst);
        self.obs.followers.set(followers.len() as u64);
        self.refresh_lag(&followers);
        Ok(())
    }

    /// Records a follower acknowledgement. Hostile values cannot move
    /// the gauge backwards or past the log's end: the ack is clamped to
    /// the record count and kept monotone per follower.
    pub(crate) fn ack(&self, session: u64, acked: u64) {
        let mut followers = lock(&self.followers);
        if let Some(prev) = followers.get_mut(&session) {
            *prev = (*prev).max(acked.min(self.records()));
        }
        self.refresh_lag(&followers);
    }

    /// Drops a follower (stream teardown) and refreshes both gauges.
    pub(crate) fn unsubscribe(&self, session: u64) {
        let mut followers = lock(&self.followers);
        followers.remove(&session);
        self.follower_count.store(followers.len(), Ordering::SeqCst);
        self.obs.followers.set(followers.len() as u64);
        self.refresh_lag(&followers);
    }

    /// Lag = records the *slowest* subscribed follower has not yet
    /// acknowledged (0 with no followers).
    fn refresh_lag(&self, followers: &HashMap<u64, u64>) {
        let lag = match followers.values().min() {
            Some(&slowest) => self.records().saturating_sub(slowest),
            None => 0,
        };
        self.obs.follower_lag_records.set(lag);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MetricsRegistry;

    fn hub(records: u64, available: bool) -> (ReplHub, std::sync::Arc<MetricsRegistry>) {
        let registry = std::sync::Arc::new(MetricsRegistry::new());
        let obs = ReplInstruments::register(&registry);
        (ReplHub::new(records, available, obs), registry)
    }

    #[test]
    fn subscribe_validates_availability_and_position() {
        let (h, _r) = hub(10, true);
        assert!(h.subscribe(1, 0).is_ok());
        assert!(h.subscribe(2, 10).is_ok());
        assert!(h.subscribe(3, 11).is_err());
        let (h, _r) = hub(10, false);
        assert!(h.subscribe(1, 0).is_err());
    }

    #[test]
    fn garbage_acks_are_clamped_and_monotone() {
        let (h, _r) = hub(10, true);
        h.subscribe(1, 0).unwrap();
        h.ack(1, u64::MAX);
        assert_eq!(h.obs.follower_lag_records.get(), 0); // clamped to 10
        h.ack(1, 3); // backwards: ignored
        assert_eq!(h.obs.follower_lag_records.get(), 0);
        h.ack(99, 5); // unknown session: ignored entirely
        assert_eq!(h.obs.followers.get(), 1);
    }

    #[test]
    fn lag_tracks_the_slowest_follower_and_appends() {
        let (h, _r) = hub(10, true);
        h.subscribe(1, 10).unwrap();
        h.subscribe(2, 4).unwrap();
        assert_eq!(h.obs.follower_lag_records.get(), 6);
        h.record_appended();
        assert_eq!(h.records(), 11);
        assert_eq!(h.obs.follower_lag_records.get(), 7);
        h.unsubscribe(2);
        assert_eq!(h.obs.follower_lag_records.get(), 1);
        h.unsubscribe(1);
        assert_eq!(h.obs.followers.get(), 0);
        assert_eq!(h.obs.follower_lag_records.get(), 0);
    }

    #[test]
    fn wakers_ring_only_while_followers_exist() {
        let (h, _r) = hub(0, true);
        let rings = std::sync::Arc::new(AtomicUsize::new(0));
        let counter = std::sync::Arc::clone(&rings);
        h.add_waker(Box::new(move || {
            counter.fetch_add(1, Ordering::SeqCst);
        }));
        h.record_appended();
        assert_eq!(rings.load(Ordering::SeqCst), 0);
        h.subscribe(1, 0).unwrap();
        h.record_appended();
        assert_eq!(rings.load(Ordering::SeqCst), 1);
    }
}
