//! Front-end read caches.
//!
//! Large services do not serve every read from the authoritative replica:
//! reads hit front-end caches that are refreshed periodically. A client
//! whose consecutive reads land on *different* caches (or on a cache that
//! has not yet absorbed the client's own write) observes exactly the
//! session-guarantee anomalies of §III — a write that is acknowledged but
//! missing from the next read (read-your-writes), or a post that was seen
//! once and then disappears (monotonic reads).
//!
//! [`ReadCache`] is the pure cache state; the service node decides when to
//! refresh it (timer-driven) and which cache a given read hits.

use crate::event::PostId;
use conprobe_sim::{SimDuration, SimTime};
use std::sync::Arc;

/// A snapshot cache in front of a replica.
#[derive(Debug, Clone)]
pub struct ReadCache {
    snapshot: Arc<[PostId]>,
    last_refresh: Option<SimTime>,
    refresh_every: SimDuration,
}

impl ReadCache {
    /// Creates an empty cache that considers itself stale after
    /// `refresh_every`. A never-refreshed cache is always stale.
    pub fn new(refresh_every: SimDuration) -> Self {
        ReadCache { snapshot: Arc::from([]), last_refresh: None, refresh_every }
    }

    /// The cached sequence served to readers, as the shared slice it was
    /// installed as.
    pub fn read(&self) -> &Arc<[PostId]> {
        &self.snapshot
    }

    /// When the cache last pulled from its replica (`None` if never).
    pub fn last_refresh(&self) -> Option<SimTime> {
        self.last_refresh
    }

    /// The configured refresh interval.
    pub fn refresh_every(&self) -> SimDuration {
        self.refresh_every
    }

    /// Whether the cache is due for a refresh at `now`.
    pub fn is_stale(&self, now: SimTime) -> bool {
        match self.last_refresh {
            None => true,
            Some(last) => now.saturating_since(last) >= self.refresh_every,
        }
    }

    /// Installs a fresh snapshot taken at `now`. The `Arc` slice is the
    /// replica's cached view, shared rather than copied.
    pub fn refresh(&mut self, snapshot: Arc<[PostId]>, now: SimTime) {
        self.snapshot = snapshot;
        self.last_refresh = Some(now);
    }

    /// Refreshes only if stale, pulling the snapshot lazily.
    ///
    /// Returns `true` if a refresh happened.
    pub fn refresh_if_stale<F>(&mut self, now: SimTime, pull: F) -> bool
    where
        F: FnOnce() -> Arc<[PostId]>,
    {
        if self.is_stale(now) {
            self.refresh(pull(), now);
            true
        } else {
            false
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AuthorId;

    fn id(seq: u32) -> PostId {
        PostId::new(AuthorId(1), seq)
    }

    #[test]
    fn fresh_cache_is_stale_and_empty() {
        let c = ReadCache::new(SimDuration::from_millis(500));
        assert!(c.is_stale(SimTime::ZERO));
        assert!(c.read().is_empty());
    }

    #[test]
    fn refresh_installs_snapshot() {
        let mut c = ReadCache::new(SimDuration::from_millis(500));
        c.refresh(vec![id(1), id(2)].into(), SimTime::from_millis(100));
        assert_eq!(**c.read(), [id(1), id(2)]);
        assert_eq!(c.last_refresh(), Some(SimTime::from_millis(100)));
        assert!(!c.is_stale(SimTime::from_millis(400)));
        assert!(c.is_stale(SimTime::from_millis(600)));
    }

    #[test]
    fn refresh_if_stale_pulls_lazily() {
        let mut c = ReadCache::new(SimDuration::from_millis(100));
        let refreshed = c.refresh_if_stale(SimTime::from_millis(50), || vec![id(1)].into());
        assert!(refreshed);
        assert_eq!(**c.read(), [id(1)]);
        // Not stale yet: the closure must not run.
        let refreshed = c.refresh_if_stale(SimTime::from_millis(100), || panic!("pulled"));
        assert!(!refreshed);
        assert_eq!(**c.read(), [id(1)]);
    }

    #[test]
    fn staleness_boundary_is_inclusive() {
        let mut c = ReadCache::new(SimDuration::from_millis(100));
        c.refresh(Arc::from([]), SimTime::from_millis(0));
        assert!(c.is_stale(SimTime::from_millis(100)));
        assert!(!c.is_stale(SimTime::from_millis(99)));
    }
}
