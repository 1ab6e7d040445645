//! A single replica's state machine.
//!
//! [`ReplicaCore`] stores each applied post once, in arrival order, and
//! keeps beside it the policy-ordered sequence a read returns. That
//! sequence is *maintained*, not derived: an apply places the newcomer by
//! one binary search on [`OrderingPolicy::sort_key`], so no mutation ever
//! costs the next read a copy and a sort of the whole post list. The core
//! also supports digest-based anti-entropy (compute what a peer is
//! missing) and canonical re-sequencing (the reconciliation step that
//! ends order divergence in the Google+ model).

use crate::event::{Post, PostId, StoredPost};
use crate::ordering::OrderingPolicy;
use conprobe_sim::SimTime;
use std::cell::RefCell;
use std::collections::HashSet;
use std::sync::Arc;

/// The published form of a replica's policy-ordered view.
///
/// Reads dominate writes in every service model (Tables I/II: hundreds of
/// reads against a handful of writes per test), so every read between two
/// mutations shares one `Arc` slice. A mutation empties both slots; the
/// next read republishes the slot it needs from [`ReplicaCore`]'s
/// maintained order — one allocation, no per-post copy, no sort. The
/// id slice is what the wire path serves; the post slice is filled only
/// for the few callers that need timestamps or bodies (ranking read
/// paths, quorum merge, rejoin), and its entries share their bodies with
/// the stored posts.
#[derive(Debug, Clone, Default)]
struct ViewCache {
    ids: Option<Arc<[PostId]>>,
    posts: Option<Arc<[StoredPost]>>,
}

/// Replica state: applied posts, arrival order, ordering policy.
#[derive(Debug, Clone)]
pub struct ReplicaCore {
    policy: OrderingPolicy,
    /// Applied posts in arrival order — the order `missing_from` feeds
    /// peers in, and the order an `Arrival` replica serves.
    posts: Vec<StoredPost>,
    /// Positions into `posts`, in policy order.
    order: Vec<usize>,
    seen: HashSet<PostId>,
    arrival_counter: u64,
    /// Published slices of `order` (interior mutability keeps the read
    /// path `&self`; each simulated world is single-threaded and the live
    /// cluster holds a core behind its replica's mutex, so the `RefCell`
    /// is never contended). A clone starts from the same published
    /// slices, which are immutable, and republishes on its own.
    view: RefCell<ViewCache>,
}

impl ReplicaCore {
    /// Creates an empty replica with the given ordering policy.
    pub fn new(policy: OrderingPolicy) -> Self {
        ReplicaCore {
            policy,
            posts: Vec::new(),
            order: Vec::new(),
            seen: HashSet::new(),
            arrival_counter: 0,
            view: RefCell::default(),
        }
    }

    /// The replica's ordering policy.
    pub fn policy(&self) -> OrderingPolicy {
        self.policy
    }

    /// Number of distinct posts applied.
    pub fn len(&self) -> usize {
        self.posts.len()
    }

    /// True when no posts have been applied.
    pub fn is_empty(&self) -> bool {
        self.posts.is_empty()
    }

    /// Stores a post this replica has not seen, as its latest arrival, and
    /// places it in the policy order: after every post whose sort key is
    /// not greater, which is where a stable sort over the arrival-ordered
    /// posts would leave it.
    fn insert(&mut self, post: Post, server_ts: SimTime) {
        let stored = StoredPost { post, server_ts, arrival_index: self.arrival_counter };
        self.arrival_counter += 1;
        let key = self.policy.sort_key(&stored);
        let not_after = |i: &usize| self.policy.sort_key(&self.posts[*i]) <= key;
        // Clocks move forward: the usual newcomer sorts last, one
        // comparison; the search is for a late replicated arrival.
        let at = match self.order.last() {
            Some(last) if !not_after(last) => self.order.partition_point(not_after),
            _ => self.order.len(),
        };
        self.order.insert(at, self.posts.len());
        self.posts.push(stored);
        *self.view.get_mut() = ViewCache::default();
    }

    /// Applies a post first accepted locally at `server_ts`.
    ///
    /// Returns the stored record if the post was new, or `None` if it was a
    /// duplicate (idempotent re-delivery).
    pub fn apply_new(&mut self, post: Post, server_ts: SimTime) -> Option<&StoredPost> {
        if !self.seen.insert(post.id) {
            return None;
        }
        self.insert(post, server_ts);
        self.posts.last()
    }

    /// Applies a post replicated from a peer, preserving the original
    /// server timestamp but recording local arrival order.
    ///
    /// Returns `true` if the post was new.
    pub fn apply_replicated(&mut self, stored: StoredPost) -> bool {
        if !self.seen.insert(stored.id()) {
            return false;
        }
        self.insert(stored.post, stored.server_ts);
        true
    }

    /// Whether this replica has applied `id`.
    pub fn contains(&self, id: PostId) -> bool {
        self.seen.contains(&id)
    }

    /// The post ids this replica holds, as a digest for anti-entropy.
    /// Borrowed: a caller that ships the digest to a peer clones it, one
    /// that compares two cores in place does not.
    pub fn digest(&self) -> &HashSet<PostId> {
        &self.seen
    }

    /// Posts this replica holds that are absent from `peer_digest` —
    /// the anti-entropy payload to push to that peer, in arrival order.
    pub fn missing_from(&self, peer_digest: &HashSet<PostId>) -> Vec<StoredPost> {
        self.posts.iter().filter(|p| !peer_digest.contains(&p.id())).cloned().collect()
    }

    /// The sequence of post ids a read returns, ordered by the policy.
    ///
    /// Repeated reads between mutations share one allocation; the result
    /// is identical to cloning and policy-sorting the post set.
    pub fn snapshot(&self) -> Arc<[PostId]> {
        let mut view = self.view.borrow_mut();
        let ids = view
            .ids
            .get_or_insert_with(|| self.order.iter().map(|&i| self.posts[i].id()).collect());
        Arc::clone(ids)
    }

    /// The full stored posts in policy order (for read paths that need
    /// timestamps, e.g. feed ranking). Shared like [`ReplicaCore::snapshot`]
    /// once asked for; bodies are shared with the stored posts.
    pub fn snapshot_posts(&self) -> Arc<[StoredPost]> {
        let mut view = self.view.borrow_mut();
        let posts = view
            .posts
            .get_or_insert_with(|| self.order.iter().map(|&i| self.posts[i].clone()).collect());
        Arc::clone(posts)
    }

    /// Rewrites arrival indices so that arrival order coincides with exact
    /// server-timestamp order.
    ///
    /// This is the reconciliation step of the Google+ model's anti-entropy:
    /// replicas serve reads in arrival order (which diverges across replicas
    /// for concurrent writes), and periodically converge to the canonical
    /// timestamp order — ending the order-divergence window.
    pub fn resequence_canonical(&mut self) {
        OrderingPolicy::exact_timestamp().sort(&mut self.posts);
        for (i, p) in self.posts.iter_mut().enumerate() {
            p.arrival_index = i as u64;
        }
        self.arrival_counter = self.posts.len() as u64;
        // Positions and arrival-based keys all moved: the one place the
        // order is rebuilt rather than maintained.
        let (policy, posts) = (self.policy, &self.posts);
        self.order = (0..posts.len()).collect();
        self.order.sort_by_key(|&i| policy.sort_key(&posts[i]));
        *self.view.get_mut() = ViewCache::default();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::AuthorId;
    use conprobe_sim::LocalTime;

    fn post(author: u32, seq: u32) -> Post {
        Post::new(PostId::new(AuthorId(author), seq), "m", LocalTime::from_nanos(0))
    }

    #[test]
    fn apply_and_snapshot_in_arrival_order() {
        let mut r = ReplicaCore::new(OrderingPolicy::Arrival);
        r.apply_new(post(1, 1), SimTime::from_millis(10)).unwrap();
        r.apply_new(post(2, 1), SimTime::from_millis(5)).unwrap();
        assert_eq!(r.len(), 2);
        assert_eq!(
            r.snapshot().to_vec(),
            vec![PostId::new(AuthorId(1), 1), PostId::new(AuthorId(2), 1)]
        );
    }

    #[test]
    fn duplicate_apply_is_ignored() {
        let mut r = ReplicaCore::new(OrderingPolicy::Arrival);
        assert!(r.apply_new(post(1, 1), SimTime::ZERO).is_some());
        assert!(r.apply_new(post(1, 1), SimTime::from_secs(9)).is_none());
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn replicated_apply_preserves_server_ts() {
        let mut a = ReplicaCore::new(OrderingPolicy::exact_timestamp());
        a.apply_new(post(1, 1), SimTime::from_millis(700)).unwrap();
        let payload = a.missing_from(&HashSet::new());
        let mut b = ReplicaCore::new(OrderingPolicy::exact_timestamp());
        assert!(b.apply_replicated(payload[0].clone()));
        assert!(!b.apply_replicated(payload[0].clone()));
        assert_eq!(b.snapshot_posts()[0].server_ts, SimTime::from_millis(700));
    }

    #[test]
    fn digest_and_missing_from_diff() {
        let mut a = ReplicaCore::new(OrderingPolicy::Arrival);
        a.apply_new(post(1, 1), SimTime::ZERO).unwrap();
        a.apply_new(post(1, 2), SimTime::ZERO).unwrap();
        let mut b = ReplicaCore::new(OrderingPolicy::Arrival);
        b.apply_new(post(1, 1), SimTime::ZERO).unwrap();
        let missing = a.missing_from(b.digest());
        assert_eq!(missing.len(), 1);
        assert_eq!(missing[0].id(), PostId::new(AuthorId(1), 2));
        assert!(a.missing_from(a.digest()).is_empty());
    }

    #[test]
    fn resequence_canonical_converges_two_replicas() {
        // a receives (x, y); b receives (y, x). In arrival order they
        // diverge; after canonical re-sequencing both agree.
        let x = post(1, 1);
        let y = post(2, 1);
        let mut a = ReplicaCore::new(OrderingPolicy::Arrival);
        a.apply_new(x.clone(), SimTime::from_millis(100)).unwrap();
        let x_stored = a.snapshot_posts()[0].clone();
        let mut b = ReplicaCore::new(OrderingPolicy::Arrival);
        b.apply_new(y.clone(), SimTime::from_millis(120)).unwrap();
        let y_stored = b.snapshot_posts()[0].clone();
        a.apply_replicated(y_stored);
        b.apply_replicated(x_stored);
        assert_ne!(a.snapshot(), b.snapshot(), "pre-reconciliation orders diverge");
        a.resequence_canonical();
        b.resequence_canonical();
        assert_eq!(a.snapshot(), b.snapshot());
        assert_eq!(a.snapshot().to_vec(), vec![x.id, y.id]);
    }

    #[test]
    fn empty_replica_behaviour() {
        let r = ReplicaCore::new(OrderingPolicy::Arrival);
        assert!(r.is_empty());
        assert!(r.snapshot().is_empty());
        assert!(!r.contains(PostId::new(AuthorId(0), 1)));
    }

    #[test]
    fn arrivals_after_resequence_continue_counter() {
        let mut r = ReplicaCore::new(OrderingPolicy::Arrival);
        r.apply_new(post(1, 1), SimTime::from_millis(50)).unwrap();
        r.apply_new(post(1, 2), SimTime::from_millis(20)).unwrap();
        r.resequence_canonical();
        r.apply_new(post(1, 3), SimTime::from_millis(10)).unwrap();
        // New arrival lands after the resequenced posts in arrival order
        // even though its timestamp is older.
        assert_eq!(
            r.snapshot().to_vec(),
            vec![
                PostId::new(AuthorId(1), 2),
                PostId::new(AuthorId(1), 1),
                PostId::new(AuthorId(1), 3)
            ]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::event::AuthorId;
    use conprobe_sim::{LocalTime, SimRng};

    fn gen_ops(rng: &mut SimRng) -> Vec<(u32, u32, u64)> {
        let len = rng.gen_range(0usize..40);
        (0..len)
            .map(|_| (rng.gen_range(0u32..3), rng.gen_range(1u32..20), rng.gen_range(0u64..5_000)))
            .collect()
    }

    /// A replica's snapshot never contains duplicates and always has
    /// exactly as many entries as distinct applied ids.
    #[test]
    fn snapshot_is_duplicate_free() {
        let mut rng = SimRng::new(0x4E01_0001);
        for case in 0..400 {
            let ops = gen_ops(&mut rng);
            let mut r = ReplicaCore::new(OrderingPolicy::Arrival);
            let mut distinct = std::collections::HashSet::new();
            for (a, s, ms) in ops {
                let p = Post::new(PostId::new(AuthorId(a), s), "x", LocalTime::from_nanos(0));
                distinct.insert(p.id);
                r.apply_new(p, SimTime::from_millis(ms));
            }
            let snap = r.snapshot();
            let set: std::collections::HashSet<_> = snap.iter().copied().collect();
            assert_eq!(set.len(), snap.len(), "case {case}");
            assert_eq!(snap.len(), distinct.len(), "case {case}");
        }
    }

    /// Anti-entropy exchange makes two replicas' digests equal, and
    /// canonical re-sequencing makes their snapshots equal.
    #[test]
    fn anti_entropy_converges() {
        let mut rng = SimRng::new(0x4E01_0002);
        for case in 0..400 {
            let ops = gen_ops(&mut rng);
            let split = rng.gen_range(0usize..40);
            // Each post id must be written exactly once (as in the real
            // system, where a write has a single home replica).
            let mut seen = std::collections::HashSet::new();
            let ops: Vec<_> = ops.into_iter().filter(|(a, s, _)| seen.insert((*a, *s))).collect();
            let mut a = ReplicaCore::new(OrderingPolicy::Arrival);
            let mut b = ReplicaCore::new(OrderingPolicy::Arrival);
            for (i, (au, s, ms)) in ops.iter().enumerate() {
                let p = Post::new(PostId::new(AuthorId(*au), *s), "x", LocalTime::from_nanos(0));
                if i < split {
                    a.apply_new(p, SimTime::from_millis(*ms));
                } else {
                    b.apply_new(p, SimTime::from_millis(*ms));
                }
            }
            for sp in a.missing_from(b.digest()) {
                b.apply_replicated(sp);
            }
            for sp in b.missing_from(a.digest()) {
                a.apply_replicated(sp);
            }
            assert_eq!(a.digest(), b.digest(), "case {case}");
            a.resequence_canonical();
            b.resequence_canonical();
            assert_eq!(a.snapshot(), b.snapshot(), "case {case}");
        }
    }

    /// The maintained policy-ordered view always equals a fresh clone+sort
    /// of the raw post set, under all four orderings, across interleaved
    /// applies (local and replicated), duplicate deliveries, canonical
    /// re-sequencing, crash/recovery refill and a clone that diverges from
    /// its original. Both slices are published *before* every mutation, in
    /// either order, so the test exercises invalidation, not just cold
    /// builds — and a slice held across the mutation must not move.
    #[test]
    fn cached_view_equals_fresh_clone_and_sort() {
        // The reference path deliberately bypasses the maintained order:
        // `missing_from(∅)` returns the raw posts, which we clone and sort
        // exactly the way the pre-cache implementation did.
        fn check(r: &ReplicaCore, ids_first: bool, at: &str) {
            let mut expected = r.missing_from(&HashSet::new());
            r.policy().sort(&mut expected);
            let expected_ids: Vec<PostId> = expected.iter().map(StoredPost::id).collect();
            let (ids, posts) = if ids_first {
                let ids = r.snapshot();
                (ids, r.snapshot_posts())
            } else {
                let posts = r.snapshot_posts();
                (r.snapshot(), posts)
            };
            assert_eq!(ids.to_vec(), expected_ids, "{at}");
            assert_eq!(posts.to_vec(), expected, "{at}");
        }

        // Five one-second buckets under up to 72 ids: every bucket holds
        // several posts, so tie-breaks decide.
        fn fresh(rng: &mut SimRng) -> (Post, SimTime) {
            let id = PostId::new(AuthorId(rng.gen_range(0u32..3)), rng.gen_range(1u32..25));
            let at = SimTime::from_millis(rng.gen_range(0u64..5_000));
            (Post::new(id, "x", LocalTime::from_nanos(0)), at)
        }

        let policies = [
            OrderingPolicy::Arrival,
            OrderingPolicy::exact_timestamp(),
            OrderingPolicy::facebook_group(),
            OrderingPolicy::Timestamp {
                precision: conprobe_sim::SimDuration::from_secs(1),
                tie: crate::ordering::TieBreak::Arrival,
            },
        ];
        let mut rng = SimRng::new(0x4E01_0003);
        for case in 0..200 {
            let policy = policies[case % policies.len()];
            let mut r = ReplicaCore::new(policy);
            let steps = rng.gen_range(1usize..50);
            for step in 0..steps {
                let at = format!("case {case} step {step}");
                // Publish the view so the next mutation must invalidate
                // it, and hold it across that mutation.
                check(&r, step % 2 == 0, &at);
                let (held_ids, held_posts) = (r.snapshot(), r.snapshot_posts());
                let (old_ids, old_posts) = (held_ids.to_vec(), held_posts.to_vec());
                match rng.gen_range(0u32..14) {
                    0..=6 => {
                        let (p, ts) = fresh(&mut rng);
                        r.apply_new(p, ts);
                    }
                    7..=8 => {
                        // Replicated apply, possibly a duplicate.
                        let donor = r.clone();
                        let payload = donor.missing_from(&HashSet::new());
                        if !payload.is_empty() {
                            let i = rng.gen_range(0..payload.len());
                            r.apply_replicated(payload[i].clone());
                        }
                    }
                    9..=10 => r.resequence_canonical(),
                    11 => {
                        // Crash: volatile state is lost; anti-entropy
                        // refills the fresh replica from a survivor.
                        let survivor = r.clone();
                        r = ReplicaCore::new(policy);
                        for sp in survivor.missing_from(r.digest()) {
                            r.apply_replicated(sp);
                        }
                    }
                    _ => {
                        // A clone starts from the published view and then
                        // goes its own way; neither side sees the other.
                        let mut fork = r.clone();
                        let (p, ts) = fresh(&mut rng);
                        fork.apply_new(p, ts);
                        check(&fork, step % 2 == 1, &at);
                        assert_eq!(r.snapshot().to_vec(), old_ids, "{at}: original moved");
                        let (p, ts) = fresh(&mut rng);
                        r.apply_new(p, ts);
                        check(&fork, step % 2 == 0, &at);
                    }
                }
                check(&r, step % 2 == 1, &at);
                assert_eq!(held_ids.to_vec(), old_ids, "{at}: a published slice was rewritten");
                assert_eq!(held_posts.to_vec(), old_posts, "{at}: a published slice was rewritten");
            }
        }
    }
}
