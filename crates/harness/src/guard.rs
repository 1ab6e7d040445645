//! Client-side session-guarantee enforcement (extension A3).
//!
//! The paper closes §V observing that most session anomalies can be masked
//! at the application level *"by simply identifying requests with a session
//! id and a sequence number within a session, and using a combination of
//! caching and replaying previous values that were read and written, and
//! delaying or omitting the delivery of messages"*. [`SessionGuard`] is that
//! scheme over [`PostId`]s, whose `(author, seq)` already is a session id
//! plus a 1-based sequence number. An agent feeds it every write ack and
//! every raw read, and logs the corrected view it returns:
//!
//! * **read your writes** — acknowledged own writes are injected;
//! * **monotonic reads** — the view is cumulative: nothing once shown is
//!   dropped;
//! * **monotonic writes** — an event is held back until the session's
//!   earlier own writes and its `(author, seq − 1)` predecessor are in the
//!   view, so one author's posts always appear in issue order.
//!
//! Staleness is the only price: the guard works on local state, adds no
//! round trip and never blocks a request.

use conprobe_core::ReadView;
use conprobe_store::PostId;
use std::collections::HashSet;

/// One session's guard: the corrected view plus the events held back.
#[derive(Debug, Default)]
pub(crate) struct SessionGuard {
    /// The session's acknowledged writes, in ack (= issue) order.
    own_writes: Vec<PostId>,
    /// The cumulative corrected view, in delivery order.
    view: Vec<PostId>,
    in_view: HashSet<PostId>,
    /// Known events not yet deliverable, in discovery order.
    pending: Vec<PostId>,
    /// Everything known to exist: the view plus `pending`.
    known: HashSet<PostId>,
}

impl SessionGuard {
    /// Records the ack of one of the session's own writes. Call in issue
    /// order; the write joins the view at the next read.
    pub(crate) fn note_write_ack(&mut self, id: PostId) {
        if !self.own_writes.contains(&id) {
            self.own_writes.push(id);
        }
        self.discover(id);
    }

    /// Filters one raw read result and returns the corrected view: every
    /// event previously returned, then whatever became deliverable.
    pub(crate) fn filter_read(&mut self, seq: &[PostId]) -> ReadView<PostId> {
        for &id in seq {
            self.discover(id);
        }
        // One delivery can release events held behind it: sweep to fixpoint.
        loop {
            let held = self.pending.len();
            let mut i = 0;
            while i < self.pending.len() {
                if self.deliverable(self.pending[i]) {
                    let id = self.pending.remove(i);
                    self.in_view.insert(id);
                    self.view.push(id);
                } else {
                    i += 1;
                }
            }
            if self.pending.len() == held {
                return self.view.as_slice().into();
            }
        }
    }

    fn discover(&mut self, id: PostId) {
        if self.known.insert(id) {
            self.pending.push(id);
        }
    }

    /// Whether `id`'s earlier own writes and its predecessor are all in
    /// the view. Every delivered event had its predecessor delivered, so
    /// the view holds each author's posts as a gap-free prefix `1..=seq`.
    fn deliverable(&self, id: PostId) -> bool {
        let shown = |w: &PostId| self.in_view.contains(w);
        let own_ready = match self.own_writes.iter().position(|w| *w == id) {
            Some(i) => self.own_writes[..i].iter().all(shown),
            None => true,
        };
        own_ready && (id.seq <= 1 || shown(&PostId::new(id.author, id.seq - 1)))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use conprobe_store::AuthorId;

    pub(super) fn p(author: u32, seq: u32) -> PostId {
        PostId::new(AuthorId(author), seq)
    }

    #[test]
    fn injects_own_missing_write() {
        let mut g = SessionGuard::default();
        g.note_write_ack(p(1, 1));
        assert_eq!(g.filter_read(&[]), [p(1, 1)], "own write injected (read your writes)");
    }

    #[test]
    fn monotonic_reads_keeps_disappeared_events() {
        let mut g = SessionGuard::default();
        assert_eq!(g.filter_read(&[p(2, 1)]), [p(2, 1)]);
        // The service drops the event; the guard's view retains it.
        assert_eq!(g.filter_read(&[]), [p(2, 1)]);
        assert_eq!(g.filter_read(&[p(2, 2)]), [p(2, 1), p(2, 2)]);
    }

    #[test]
    fn monotonic_writes_delays_out_of_order_foreign_writes() {
        let mut g = SessionGuard::default();
        // The service surfaces (2,2) before (2,1): the guard holds it back.
        assert!(g.filter_read(&[p(2, 2)]).is_empty());
        assert_eq!(g.pending, [p(2, 2)]);
        // Once (2,1) arrives, both deliver in issue order.
        assert_eq!(g.filter_read(&[p(2, 1), p(2, 2)]), [p(2, 1), p(2, 2)]);
        assert!(g.pending.is_empty());
    }

    #[test]
    fn monotonic_writes_fixes_reversed_presentation() {
        // The FB Group same-second reversal: the service always presents
        // (2,2) before (2,1); the guard's view restores issue order.
        let mut g = SessionGuard::default();
        assert_eq!(g.filter_read(&[p(2, 2), p(2, 1)]), [p(2, 1), p(2, 2)]);
    }

    #[test]
    fn own_writes_appear_in_issue_order() {
        let mut g = SessionGuard::default();
        g.note_write_ack(p(1, 1));
        g.note_write_ack(p(1, 2));
        // The service shows only the second one.
        assert_eq!(g.filter_read(&[p(1, 2)]), [p(1, 1), p(1, 2)]);
    }

    #[test]
    fn duplicate_acks_are_idempotent() {
        let mut g = SessionGuard::default();
        g.note_write_ack(p(1, 1));
        g.note_write_ack(p(1, 1));
        assert_eq!(g.filter_read(&[]), [p(1, 1)]);
    }

    #[test]
    fn view_is_always_monotone_prefix() {
        let mut g = SessionGuard::default();
        let reads =
            [vec![p(2, 1)], vec![p(2, 2), p(2, 1)], vec![], vec![p(3, 1)], vec![p(2, 3), p(3, 1)]];
        let mut prev = ReadView::default();
        for r in reads {
            let v = g.filter_read(&r);
            assert!(v.starts_with(&prev), "view must extend, never rewrite: {prev:?} → {v:?}");
            prev = v;
        }
    }

    /// End to end: a very anomalous service history through the guard
    /// yields a per-agent trace the session checkers find clean.
    #[test]
    fn corrected_trace_passes_session_checkers() {
        use conprobe_core::trace::{AgentId, TestTraceBuilder, Timestamp};
        use conprobe_core::{analyze, AnomalyKind, CheckerConfig};

        let t = Timestamp::from_millis;
        // Agent 0 writes (0,1), (0,2); the service shows them reversed,
        // then drops one.
        let raw_reads = [vec![p(0, 2)], vec![p(0, 2), p(0, 1)], vec![p(0, 1)]];
        let mut g = SessionGuard::default();
        let mut b = TestTraceBuilder::new();
        b.write(AgentId(0), t(0), t(10), p(0, 1));
        g.note_write_ack(p(0, 1));
        b.write(AgentId(0), t(11), t(20), p(0, 2));
        g.note_write_ack(p(0, 2));
        for (i, r) in raw_reads.iter().enumerate() {
            let at = t(30 + i as i64 * 10);
            b.read(AgentId(0), at, at, g.filter_read(r).to_vec());
        }
        let analysis = analyze(&b.build(), &CheckerConfig::default());
        for kind in
            [AnomalyKind::ReadYourWrites, AnomalyKind::MonotonicWrites, AnomalyKind::MonotonicReads]
        {
            assert!(!analysis.has(kind), "{kind}: {:?}", analysis.observations);
        }
    }
}

#[cfg(test)]
mod proptests {
    use super::tests::p;
    use super::*;
    use conprobe_json::testkit::TestRng;
    use std::cmp::Ordering;

    /// Random read results: duplicate-free lists of (author, seq) posts.
    fn gen_reads(rng: &mut TestRng) -> Vec<Vec<PostId>> {
        let n = rng.range_usize(0, 12);
        (0..n)
            .map(|_| {
                let len = rng.range_usize(0, 6);
                let mut seen = HashSet::new();
                (0..len)
                    .map(|_| p(rng.range(0, 3) as u32, rng.range(1, 6) as u32))
                    .filter(|k| seen.insert(*k))
                    .collect()
            })
            .collect()
    }

    /// Liveness: once the service presents every event (in a final,
    /// complete read), the guard delivers every event — nothing is
    /// suppressed forever once its predecessors are available.
    #[test]
    fn guard_is_live_once_service_converges() {
        let mut rng = TestRng::new(0x6A8D_0001);
        for case in 0..400 {
            let reads = gen_reads(&mut rng);
            let mut g = SessionGuard::default();
            for r in &reads {
                let _ = g.filter_read(r);
            }
            // A converged store holds every post ever surfaced plus the
            // session prefixes the key scheme implies (seq 1..max).
            let mut complete: Vec<PostId> = reads
                .iter()
                .flatten()
                .flat_map(|k| (1..=k.seq).map(|s| PostId::new(k.author, s)))
                .collect();
            complete.sort();
            complete.dedup();
            let final_view = g.filter_read(&complete);
            for e in &complete {
                assert!(
                    final_view.contains(e),
                    "case {case}: event {e:?} still suppressed after convergence"
                );
            }
            assert!(g.pending.is_empty(), "case {case}");
        }
    }

    /// For any service behaviour: the view is duplicate-free, monotone
    /// (each result is a prefix of the next), and never shows a later
    /// same-session event before an earlier one.
    #[test]
    fn guard_invariants() {
        let mut rng = TestRng::new(0x6A8D_0002);
        for case in 0..400 {
            let mut g = SessionGuard::default();
            let mut prev = ReadView::default();
            for r in gen_reads(&mut rng) {
                let v = g.filter_read(&r);
                let set: HashSet<_> = v.iter().collect();
                assert_eq!(set.len(), v.len(), "case {case}: duplicates in view");
                assert!(v.starts_with(&prev), "case {case}");
                for (i, a) in v.iter().enumerate() {
                    for b in &v[i + 1..] {
                        assert_ne!(
                            (a.author == b.author).then(|| a.seq.cmp(&b.seq)),
                            Some(Ordering::Greater),
                            "case {case}: same-session inversion in view"
                        );
                    }
                }
                prev = v;
            }
        }
    }

    /// The generic guard this module replaced, frozen as the agent ran it:
    /// every switch on, `PostId` keys, the author/sequence issue order.
    /// Left out are its intervention counters, which never touched a view,
    /// and its dependency map, which nothing ever filled.
    #[derive(Default)]
    struct FrozenGuard {
        own_writes: Vec<PostId>,
        own_set: HashSet<PostId>,
        view: Vec<PostId>,
        in_view: HashSet<PostId>,
        pending: Vec<PostId>,
        known: HashSet<PostId>,
    }

    fn same_session_order(a: &PostId, b: &PostId) -> Option<Ordering> {
        (a.author == b.author).then(|| a.seq.cmp(&b.seq))
    }

    fn predecessor(k: &PostId) -> Option<PostId> {
        (k.seq > 1).then(|| PostId::new(k.author, k.seq - 1))
    }

    impl FrozenGuard {
        fn note_write_ack(&mut self, id: PostId) {
            if self.own_set.insert(id) {
                self.own_writes.push(id);
            }
            if self.known.insert(id) {
                self.pending.push(id);
            }
        }

        fn filter_read(&mut self, seq: &[PostId]) -> Vec<PostId> {
            for e in seq {
                if self.known.insert(*e) {
                    self.pending.push(*e);
                } else if self.own_set.contains(e)
                    && !self.in_view.contains(e)
                    && !self.pending.contains(e)
                {
                    // An own write known from its ack but not yet queued
                    // (possible when RYW was toggled after the ack).
                    self.pending.push(*e);
                }
            }
            self.drain_pending();
            self.view.clone()
        }

        fn drain_pending(&mut self) {
            loop {
                let mut delivered_any = false;
                let mut i = 0;
                while i < self.pending.len() {
                    if self.deliverable(&self.pending[i]) {
                        let e = self.pending.remove(i);
                        self.in_view.insert(e);
                        self.view.push(e);
                        delivered_any = true;
                    } else {
                        i += 1;
                    }
                }
                if !delivered_any {
                    return;
                }
            }
        }

        fn deliverable(&self, e: &PostId) -> bool {
            let own_block = self.own_set.contains(e)
                && self
                    .own_writes
                    .iter()
                    .take_while(|w| *w != e)
                    .any(|w| !self.in_view.contains(w));
            if own_block {
                return false;
            }
            if let Some(pred) = predecessor(e) {
                if !self.in_view.contains(&pred) {
                    return false;
                }
            }
            !self.known.iter().any(|q| {
                q != e
                    && !self.in_view.contains(q)
                    && same_session_order(q, e) == Some(Ordering::Less)
            })
        }
    }

    /// The PostId guard returns exactly the frozen generic guard's views
    /// on random histories of acks and reads: duplicate acks and posts,
    /// sequence gaps, same-author posts out of order, sequence numbers
    /// from 1, and a final converged read.
    #[test]
    fn agrees_with_the_frozen_generic_guard() {
        let mut rng = TestRng::new(0x6A8D_0003);
        let post = |rng: &mut TestRng| p(rng.range(0, 4) as u32, rng.range(1, 7) as u32);
        for case in 0..1000 {
            let (mut new, mut old) = (SessionGuard::default(), FrozenGuard::default());
            let mut surfaced = Vec::new();
            for step in 0..rng.range_usize(1, 20) {
                if rng.chance(0.3) {
                    // The session is author 0; its acks may skip or repeat.
                    let id = p(0, rng.range(1, 7) as u32);
                    new.note_write_ack(id);
                    old.note_write_ack(id);
                    continue;
                }
                let read: Vec<PostId> =
                    (0..rng.range_usize(0, 8)).map(|_| post(&mut rng)).collect();
                surfaced.extend_from_slice(&read);
                assert_eq!(
                    new.filter_read(&read),
                    old.filter_read(&read),
                    "case {case} step {step}"
                );
            }
            let converged: Vec<PostId> = surfaced
                .iter()
                .flat_map(|k| (1..=k.seq).map(|s| PostId::new(k.author, s)))
                .collect();
            assert_eq!(new.filter_read(&converged), old.filter_read(&converged), "case {case}");
        }
    }
}
