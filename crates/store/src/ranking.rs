//! Interest-based feed ranking — the Facebook Feed read path.
//!
//! The paper explains Facebook Feed's extreme anomaly rates by its read
//! semantics: *"the reply to a read contains a subset of the writes, which
//! are not the most recent ones, but a selection of writes based on a
//! criteria that depends on the expected interest of these writes for the
//! user issuing the read operation."* (§V, order-divergence discussion.)
//!
//! [`FeedRanker`] models that pipeline:
//!
//! 1. **Indexing delay** — a write becomes rankable only `index_delay` after
//!    it is visible at the serving replica (newsfeed indices are
//!    asynchronously materialized). Until then the author's own read misses
//!    it → read-your-writes violations.
//! 2. **Interest score** — `score = -age + N(0, noise)`, sampled per read
//!    and per post. Different readers (and the same reader across reads)
//!    order near-contemporaneous posts differently → order divergence and
//!    monotonic-writes violations.
//! 3. **Selection** — each indexed post is independently dropped with
//!    probability `omit_prob` (shard fan-in timeouts, interest threshold),
//!    and the result is truncated to `top_k` → content divergence and
//!    monotonic-reads violations.

use crate::event::{PostId, StoredPost};
use conprobe_sim::{SimDuration, SimRng, SimTime};
use std::sync::Arc;

/// Parameters of the ranked read path.
#[derive(Debug, Clone)]
pub struct RankingConfig {
    /// Standard deviation of the per-(read, post) interest noise, in
    /// seconds of equivalent age.
    pub noise_std_secs: f64,
    /// Maximum number of posts a read returns.
    pub top_k: usize,
    /// Probability that an indexed post is omitted from a given read.
    pub omit_prob: f64,
    /// Delay between a post becoming visible at the replica and becoming
    /// rankable (index materialization lag).
    pub index_delay: SimDuration,
}

impl Default for RankingConfig {
    /// Defaults tuned to reproduce the paper's Facebook Feed anomaly rates
    /// (see `conprobe-services::fbfeed`).
    fn default() -> Self {
        RankingConfig {
            noise_std_secs: 2.0,
            top_k: 25,
            omit_prob: 0.04,
            index_delay: SimDuration::from_millis(1200),
        }
    }
}

/// The ranked read path.
#[derive(Debug, Clone)]
pub struct FeedRanker {
    config: RankingConfig,
}

impl FeedRanker {
    /// Creates a ranker.
    pub fn new(config: RankingConfig) -> Self {
        FeedRanker { config }
    }

    /// The ranker's configuration.
    pub fn config(&self) -> &RankingConfig {
        &self.config
    }

    /// Executes one ranked read at time `now` over `posts`, each with the
    /// time it became visible at the serving replica (`visible_at`),
    /// drawing selection noise from `rng`.
    ///
    /// Selection keeps the `top_k` best-scoring posts; presentation is in
    /// *score-ascending* order, i.e. the service's newest-first feed
    /// normalized back to (noisy) timeline order, which is how the paper's
    /// agents logged the sequence. A noise-free read therefore returns
    /// chronological order; noise produces the inversions behind Facebook
    /// Feed's monotonic-writes and order-divergence anomalies. The same
    /// inputs with the same RNG state return the same selection, but — as
    /// in the real service — two successive reads draw fresh noise and may
    /// both reorder and re-select. The selection is collected straight
    /// into the shared slice a read view wraps: one allocation.
    pub fn read(
        &self,
        posts: &[StoredPost],
        visible_at: impl Fn(&StoredPost) -> SimTime,
        now: SimTime,
        rng: &mut SimRng,
    ) -> Arc<[PostId]> {
        let mut scored: Vec<(f64, PostId)> = Vec::with_capacity(posts.len());
        for p in posts {
            // Not yet indexed: invisible to ranked reads.
            if now.saturating_since(visible_at(p)) < self.config.index_delay {
                continue;
            }
            if self.config.omit_prob > 0.0 && rng.gen_bool(self.config.omit_prob) {
                continue;
            }
            let age = now.saturating_since(p.server_ts).as_secs_f64();
            let noise = if self.config.noise_std_secs > 0.0 {
                rng.gen_normal(0.0, self.config.noise_std_secs)
            } else {
                0.0
            };
            scored.push((-age + noise, p.id()));
        }
        // Best score first; post id as a deterministic tie-break.
        scored.sort_by(|a, b| b.0.partial_cmp(&a.0).unwrap().then(a.1.cmp(&b.1)));
        scored.truncate(self.config.top_k);
        // Present in (noisy) timeline order: worst-score = oldest first.
        scored.reverse();
        scored.into_iter().map(|(_, id)| id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AuthorId, Post, PostId};
    use conprobe_sim::LocalTime;

    /// A stored post and the time it became visible at the replica.
    fn rankable(seq: u32, server_ms: u64, visible_ms: u64) -> (StoredPost, SimTime) {
        let stored = StoredPost {
            post: Post::new(PostId::new(AuthorId(1), seq), "m", LocalTime::from_nanos(0)),
            server_ts: SimTime::from_millis(server_ms),
            arrival_index: seq as u64,
        };
        (stored, SimTime::from_millis(visible_ms))
    }

    /// A ranked read over `rankable` posts, the way a replica serves one.
    fn read(
        ranker: &FeedRanker,
        posts: &[(StoredPost, SimTime)],
        now: SimTime,
        rng: &mut SimRng,
    ) -> Arc<[PostId]> {
        let stored: Vec<StoredPost> = posts.iter().map(|(p, _)| p.clone()).collect();
        let visible_at = |p: &StoredPost| posts.iter().find(|(q, _)| q.id() == p.id()).unwrap().1;
        ranker.read(&stored, visible_at, now, rng)
    }

    fn noiseless(top_k: usize, omit: f64, index_ms: u64) -> FeedRanker {
        FeedRanker::new(RankingConfig {
            noise_std_secs: 0.0,
            top_k,
            omit_prob: omit,
            index_delay: SimDuration::from_millis(index_ms),
        })
    }

    #[test]
    fn noiseless_read_is_timeline_ordered() {
        let ranker = noiseless(10, 0.0, 0);
        let posts = vec![rankable(2, 3_000, 3_000), rankable(1, 1_000, 1_000)];
        let mut rng = SimRng::new(1);
        let out = read(&ranker, &posts, SimTime::from_secs(10), &mut rng);
        // Presentation is normalized to chronological order.
        assert_eq!(*out, [PostId::new(AuthorId(1), 1), PostId::new(AuthorId(1), 2)]);
    }

    #[test]
    fn unindexed_posts_are_invisible() {
        let ranker = noiseless(10, 0.0, 1_000);
        let posts = vec![rankable(1, 0, 9_500)];
        let mut rng = SimRng::new(1);
        assert!(read(&ranker, &posts, SimTime::from_secs(10), &mut rng).is_empty());
        assert_eq!(read(&ranker, &posts, SimTime::from_millis(10_500), &mut rng).len(), 1);
    }

    #[test]
    fn top_k_truncates() {
        let ranker = noiseless(2, 0.0, 0);
        let posts: Vec<_> = (1..=5).map(|i| rankable(i, i as u64 * 100, 0)).collect();
        let mut rng = SimRng::new(1);
        let out = read(&ranker, &posts, SimTime::from_secs(5), &mut rng);
        // The two newest posts are selected, presented oldest-first.
        assert_eq!(*out, [PostId::new(AuthorId(1), 4), PostId::new(AuthorId(1), 5)]);
    }

    #[test]
    fn omit_prob_one_drops_everything() {
        let ranker = noiseless(10, 1.0, 0);
        let posts = vec![rankable(1, 0, 0)];
        let mut rng = SimRng::new(1);
        assert!(read(&ranker, &posts, SimTime::from_secs(1), &mut rng).is_empty());
    }

    #[test]
    fn noise_reorders_contemporaneous_posts_across_reads() {
        let ranker = FeedRanker::new(RankingConfig {
            noise_std_secs: 2.0,
            top_k: 10,
            omit_prob: 0.0,
            index_delay: SimDuration::ZERO,
        });
        // Two posts 300 ms apart (the paper's write spacing in Test 1).
        let posts = vec![rankable(1, 1_000, 1_000), rankable(2, 1_300, 1_300)];
        let mut rng = SimRng::new(7);
        let mut orders = std::collections::HashSet::new();
        for _ in 0..50 {
            orders.insert(read(&ranker, &posts, SimTime::from_secs(5), &mut rng));
        }
        assert!(orders.len() > 1, "noise should produce both orders");
    }

    #[test]
    fn noise_rarely_reorders_well_separated_posts() {
        let ranker = FeedRanker::new(RankingConfig {
            noise_std_secs: 1.0,
            top_k: 10,
            omit_prob: 0.0,
            index_delay: SimDuration::ZERO,
        });
        // 30 s apart: 30 sigma — effectively never reordered.
        let posts = vec![rankable(1, 0, 0), rankable(2, 30_000, 30_000)];
        let mut rng = SimRng::new(7);
        for _ in 0..100 {
            let out = read(&ranker, &posts, SimTime::from_secs(60), &mut rng);
            assert_eq!(out[0], PostId::new(AuthorId(1), 1), "oldest first");
        }
    }

    #[test]
    fn deterministic_given_same_rng_state() {
        let ranker = FeedRanker::new(RankingConfig::default());
        let posts: Vec<_> = (1..=6).map(|i| rankable(i, i as u64 * 300, 0)).collect();
        let a = read(&ranker, &posts, SimTime::from_secs(30), &mut SimRng::new(3));
        let b = read(&ranker, &posts, SimTime::from_secs(30), &mut SimRng::new(3));
        assert_eq!(a, b);
    }
}
