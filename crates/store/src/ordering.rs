//! Ordering policies — how a replica sequences the events it returns.
//!
//! Two families are modelled:
//!
//! * [`OrderingPolicy::Arrival`] — events appear in the order the replica
//!   received them. Two replicas receiving concurrent writes over different
//!   paths order them differently, which is the root of *order divergence*
//!   (§III) in the Google+ model.
//! * [`OrderingPolicy::Timestamp`] — events are sorted by their server
//!   timestamp truncated to a configurable precision, with ties broken by a
//!   [`TieBreak`] rule. The Facebook Group model uses a **1-second
//!   precision** with [`TieBreak::ReversePostId`], reproducing the paper's
//!   finding: *"each event in Facebook Group is tagged with a timestamp that
//!   has a precision of one second, and whenever two write operations were
//!   issued by an agent within that interval … the effects of those
//!   operations would always be observed in reverse order."*

use crate::event::StoredPost;
use conprobe_sim::SimDuration;

/// Rule for ordering events whose (truncated) timestamps are equal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TieBreak {
    /// Ascending post id — stable, author-then-sequence order.
    PostId,
    /// Descending post id — the deterministic *reversing* rule the paper
    /// observed on Facebook Group for same-second writes.
    ReversePostId,
    /// Ascending arrival index at this replica.
    Arrival,
}

/// How a replica orders its event sequence for reads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderingPolicy {
    /// Order of arrival at this replica.
    Arrival,
    /// Server timestamp truncated to `precision`, ties broken by `tie`.
    Timestamp {
        /// Truncation granularity (e.g. one second for Facebook Group).
        precision: SimDuration,
        /// Tie-break rule within a truncated-timestamp bucket.
        tie: TieBreak,
    },
}

impl OrderingPolicy {
    /// The Facebook Group rule: 1-second timestamp buckets, reversed ties.
    pub fn facebook_group() -> Self {
        OrderingPolicy::Timestamp {
            precision: SimDuration::from_secs(1),
            tie: TieBreak::ReversePostId,
        }
    }

    /// Exact (nanosecond) timestamp order with stable id tie-break.
    pub fn exact_timestamp() -> Self {
        OrderingPolicy::Timestamp { precision: SimDuration::from_nanos(1), tie: TieBreak::PostId }
    }

    /// A sort key for `post` under this policy. Sorting by this key yields
    /// the policy's total order. The tie key is unsigned: a reversed id
    /// is its complement, which orders every `u64` id, not only the ones
    /// below 2^63.
    pub fn sort_key(&self, post: &StoredPost) -> (u64, u64) {
        match self {
            OrderingPolicy::Arrival => (post.arrival_index, 0),
            OrderingPolicy::Timestamp { precision, tie } => {
                let p = precision.as_nanos().max(1);
                let bucket = post.server_ts.as_nanos() / p;
                let tie_key = match tie {
                    TieBreak::PostId => post.id().as_u64(),
                    TieBreak::ReversePostId => !post.id().as_u64(),
                    TieBreak::Arrival => post.arrival_index,
                };
                (bucket, tie_key)
            }
        }
    }

    /// Sorts `posts` in place according to this policy.
    pub fn sort(&self, posts: &mut [StoredPost]) {
        posts.sort_by_key(|p| self.sort_key(p));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{AuthorId, Post, PostId};
    use conprobe_sim::{LocalTime, SimTime};

    fn stored(author: u32, seq: u32, server_ms: u64, arrival: u64) -> StoredPost {
        StoredPost {
            post: Post::new(
                PostId::new(AuthorId(author), seq),
                format!("m{author}-{seq}"),
                LocalTime::from_nanos(0),
            ),
            server_ts: SimTime::from_millis(server_ms),
            arrival_index: arrival,
        }
    }

    fn ids(posts: &[StoredPost]) -> Vec<String> {
        posts.iter().map(|p| p.id().to_string()).collect()
    }

    #[test]
    fn arrival_order_follows_arrival_index() {
        let mut v = vec![stored(1, 2, 500, 2), stored(1, 1, 900, 1), stored(2, 1, 100, 3)];
        OrderingPolicy::Arrival.sort(&mut v);
        assert_eq!(ids(&v), ["a1#1", "a1#2", "a2#1"]);
    }

    #[test]
    fn exact_timestamp_orders_by_time() {
        let mut v = vec![stored(1, 1, 900, 1), stored(2, 1, 100, 2), stored(1, 2, 500, 3)];
        OrderingPolicy::exact_timestamp().sort(&mut v);
        assert_eq!(ids(&v), ["a2#1", "a1#2", "a1#1"]);
    }

    #[test]
    fn facebook_group_reverses_same_second_writes() {
        // Two writes by the same author 300 ms apart: same 1-second bucket,
        // so the ReversePostId tie-break flips them — the paper's anomaly.
        let mut v = vec![stored(1, 1, 1100, 1), stored(1, 2, 1400, 2)];
        OrderingPolicy::facebook_group().sort(&mut v);
        assert_eq!(ids(&v), ["a1#2", "a1#1"]);
    }

    #[test]
    fn facebook_group_keeps_cross_second_writes_in_order() {
        let mut v = vec![stored(1, 1, 1100, 1), stored(1, 2, 2400, 2)];
        OrderingPolicy::facebook_group().sort(&mut v);
        assert_eq!(ids(&v), ["a1#1", "a1#2"]);
    }

    #[test]
    fn timestamp_bucket_boundary_is_exact() {
        // 1999 ms and 2000 ms are in different 1-second buckets.
        let mut v = vec![stored(1, 1, 1999, 1), stored(1, 2, 2000, 2)];
        OrderingPolicy::facebook_group().sort(&mut v);
        assert_eq!(ids(&v), ["a1#1", "a1#2"]);
    }

    #[test]
    fn arrival_tiebreak_within_bucket() {
        let policy = OrderingPolicy::Timestamp {
            precision: SimDuration::from_secs(1),
            tie: TieBreak::Arrival,
        };
        let mut v = vec![stored(2, 1, 1400, 7), stored(1, 1, 1100, 9)];
        policy.sort(&mut v);
        assert_eq!(ids(&v), ["a2#1", "a1#1"]);
    }

    /// The ids of authors at and past 2^31 (2^63 and up as a `u64`) order
    /// like every other id: ascending under `PostId`, descending under
    /// `ReversePostId`, and no id overflows the key.
    #[test]
    fn tie_breaks_order_every_id_including_the_top_half() {
        let authors = [0, 1, (1 << 31) - 1, 1 << 31, (1 << 31) + 1, u32::MAX];
        let posts: Vec<StoredPost> = authors
            .iter()
            .flat_map(|&author| [0, 1, u32::MAX].map(|seq| stored(author, seq, 1100, 0)))
            .collect();
        let mut ascending: Vec<u64> = posts.iter().map(|p| p.id().as_u64()).collect();
        ascending.sort_unstable();
        let order = |policy: OrderingPolicy| {
            let mut v = posts.clone();
            policy.sort(&mut v);
            v.iter().map(|p| p.id().as_u64()).collect::<Vec<u64>>()
        };
        assert_eq!(order(OrderingPolicy::exact_timestamp()), ascending);
        let descending: Vec<u64> = ascending.iter().rev().copied().collect();
        assert_eq!(order(OrderingPolicy::facebook_group()), descending);
        // Two posts in one bucket, on either side of 2^63: reversed.
        let mut pair = vec![stored(1, 1, 1100, 1), stored(1 << 31 | 1, 1, 1400, 2)];
        OrderingPolicy::facebook_group().sort(&mut pair);
        assert_eq!(ids(&pair), ["a2147483649#1", "a1#1"]);
    }

    #[test]
    fn sort_key_is_total_and_consistent_with_sort() {
        let policy = OrderingPolicy::facebook_group();
        let v = vec![stored(1, 1, 1100, 1), stored(1, 2, 1400, 2), stored(2, 1, 2100, 3)];
        let mut sorted = v.clone();
        policy.sort(&mut sorted);
        for w in sorted.windows(2) {
            assert!(policy.sort_key(&w[0]) <= policy.sort_key(&w[1]));
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::event::{AuthorId, Post, PostId};
    use conprobe_sim::{LocalTime, SimRng, SimTime};

    fn gen_post(rng: &mut SimRng) -> StoredPost {
        StoredPost {
            post: Post::new(
                PostId::new(AuthorId(rng.gen_range(0u32..4)), rng.gen_range(1u32..50)),
                "x",
                LocalTime::from_nanos(0),
            ),
            server_ts: SimTime::from_millis(rng.gen_range(0u64..10_000)),
            arrival_index: rng.gen_range(0u64..1_000),
        }
    }

    fn gen_posts(rng: &mut SimRng, max: usize) -> Vec<StoredPost> {
        let len = rng.gen_range(0..max);
        (0..len).map(|_| gen_post(rng)).collect()
    }

    /// Sorting is idempotent: applying the policy twice equals once.
    #[test]
    fn sort_is_idempotent() {
        let mut rng = SimRng::new(0x5702_0001);
        for case in 0..400 {
            let mut posts = gen_posts(&mut rng, 30);
            let policy = OrderingPolicy::facebook_group();
            policy.sort(&mut posts);
            let once = posts.clone();
            policy.sort(&mut posts);
            assert_eq!(once, posts, "case {case}");
        }
    }

    /// The sort key induces the same order regardless of input
    /// permutation (total order ⇒ canonical result), provided keys are
    /// unique, which holds when post ids are unique.
    #[test]
    fn sort_is_permutation_invariant() {
        let mut rng = SimRng::new(0x5702_0002);
        for case in 0..400 {
            let posts = gen_posts(&mut rng, 20);
            // Deduplicate ids to make keys unique under ReversePostId.
            let mut seen = std::collections::HashSet::new();
            let posts: Vec<_> = posts.into_iter().filter(|p| seen.insert(p.id())).collect();
            let policy = OrderingPolicy::facebook_group();
            let mut a = posts.clone();
            let mut b = posts;
            b.reverse();
            policy.sort(&mut a);
            policy.sort(&mut b);
            assert_eq!(a, b, "case {case}");
        }
    }

    /// Exact-timestamp ordering never inverts strictly-ordered stamps.
    #[test]
    fn exact_timestamp_respects_time() {
        let mut rng = SimRng::new(0x5702_0003);
        for case in 0..400 {
            let mut posts = gen_posts(&mut rng, 30);
            OrderingPolicy::exact_timestamp().sort(&mut posts);
            for w in posts.windows(2) {
                assert!(w[0].server_ts <= w[1].server_ts, "case {case}");
            }
        }
    }
}
