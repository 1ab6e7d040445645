//! The two test designs of §IV–V as one I/O-free state machine.
//!
//! A [`TestScript`] is everything an agent *decides*: who writes when,
//! the adaptive read period, when the agent is done, and how a throttle
//! storm stretches the schedule. It does no sends, reads no clock and
//! sets no timers — its driver ([`AgentNode`](crate::agent::AgentNode) in
//! the simulator, [`run_script`](crate::transport::run_script) over live
//! endpoints) tells it what happened and does what it answers:
//!
//! * **Test 1** — continuous background reads every `read_period`;
//!   agent 0 writes its two messages at the start (the second as soon as
//!   the first is acknowledged); agent *i* > 0 writes its two messages
//!   when a read first shows agent *i−1*'s second message; an agent is
//!   complete when it has seen the last agent's second message (M6);
//! * **Test 2** — one write at the synchronized start instant;
//!   background reads at `read_period` for the first `fast_reads` reads,
//!   then at `slow_period` (the paper's adaptive schedule working around
//!   rate limits); complete after `reads_target` reads have *returned*;
//! * **throttling** — a `Throttled` operation is retried by the driver
//!   after the backoff [`TestScript::throttled`] returns; from the third
//!   consecutive rejection on, that backoff and the read period widen
//!   with the streak, and any success resets them.

use crate::proto::{test1_post, TestKind};
use conprobe_sim::{LocalTime, SimDuration};
use conprobe_store::{Post, PostId};

/// Consecutive throttle rejections that trip the period-widening circuit.
const THROTTLE_TRIP: u32 = 3;
/// Cap on the widening factor under a sustained throttle storm.
const WIDEN_CAP: u64 = 8;

/// The parameters of one test design (Tables I and II).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cadence {
    /// Which of the paper's two tests to run.
    pub kind: TestKind,
    /// Background read period (Tables I/II: 300 ms everywhere).
    pub read_period: SimDuration,
    /// Test 2: number of initial fast reads before switching to
    /// `slow_period` (Table II: 14×/13×/20×/20×).
    pub fast_reads: u32,
    /// Test 2: read period after the fast phase (Table II: 1 s).
    pub slow_period: SimDuration,
    /// Test 2: reads after which an agent is complete (Table II).
    pub reads_target: u32,
}

/// What a returned read makes the agent do.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReadOutcome {
    /// Issue this write now (Test 1: the predecessor's second message
    /// just came into view).
    pub write: Option<PostId>,
    /// This read met the agent's completion condition for the first time.
    pub completed: bool,
}

/// One agent's run of a [`Cadence`].
#[derive(Debug, Clone)]
pub struct TestScript {
    cadence: Cadence,
    agent_index: u32,
    total_agents: u32,
    reads_issued: u32,
    reads_done: u32,
    next_write_seq: u32,
    completed: bool,
    /// Consecutive throttle rejections with no success in between.
    throttle_streak: u32,
}

impl TestScript {
    /// The script of agent `agent_index` (0-based; the paper's
    /// Agent⟨i+1⟩) among `total_agents`.
    pub fn new(cadence: Cadence, agent_index: u32, total_agents: u32) -> Self {
        TestScript {
            cadence,
            agent_index,
            total_agents,
            reads_issued: 0,
            reads_done: 0,
            next_write_seq: 1,
            completed: false,
            throttle_streak: 0,
        }
    }

    /// Whether the completion condition has been met.
    pub fn completed(&self) -> bool {
        self.completed
    }

    /// Current run of consecutive throttle rejections.
    pub fn throttle_streak(&self) -> u32 {
        self.throttle_streak
    }

    /// This agent's next message: `M(2·agent + seq)` in the paper's
    /// naming.
    fn next_post(&mut self) -> PostId {
        let id = test1_post(self.agent_index, self.next_write_seq);
        self.next_write_seq += 1;
        id
    }

    /// Period multiplier while the throttle circuit is tripped: 1× below
    /// [`THROTTLE_TRIP`] consecutive rejections, then widening with the
    /// streak up to [`WIDEN_CAP`]×. Under a sustained `Throttled` storm,
    /// hammering the front door at full rate only deepens the storm.
    fn widen_factor(&self) -> u64 {
        if self.throttle_streak < THROTTLE_TRIP {
            1
        } else {
            u64::from(self.throttle_streak - THROTTLE_TRIP + 2).min(WIDEN_CAP)
        }
    }

    /// The synchronized start instant has arrived. Returns the write to
    /// issue before the first read, if this agent opens with one (Test 1:
    /// agent 0 only; Test 2: everyone, simultaneously).
    pub fn start(&mut self) -> Option<PostId> {
        match self.cadence.kind {
            TestKind::Test1 if self.agent_index > 0 => None,
            TestKind::Test1 | TestKind::Test2 => Some(self.next_post()),
        }
    }

    /// A write was acknowledged. Returns the write to issue next: "each
    /// agent performs two consecutive writes", so Test 1's second message
    /// goes out as soon as the first is acknowledged.
    pub fn write_acked(&mut self) -> Option<PostId> {
        self.throttle_streak = 0;
        (self.cadence.kind == TestKind::Test1 && self.next_write_seq == 2).then(|| self.next_post())
    }

    /// A scheduled background read is going out. Returns the delay from
    /// this read's scheduled instant to the next one, or `None` when the
    /// Test 2 quota is spent and the agent stops reading. The retry of a
    /// throttled read is not a scheduled read and is not announced here.
    pub fn read_issued(&mut self) -> Option<SimDuration> {
        self.reads_issued += 1;
        let c = &self.cadence;
        let period = match c.kind {
            TestKind::Test1 => c.read_period,
            TestKind::Test2 if self.reads_issued >= c.reads_target => return None,
            TestKind::Test2 if self.reads_issued < c.fast_reads => c.read_period,
            TestKind::Test2 => c.slow_period,
        };
        Some(period.saturating_mul(self.widen_factor()))
    }

    /// A read returned `seq` (after any client-side session guard).
    pub fn read_returned(&mut self, seq: &[PostId]) -> ReadOutcome {
        self.throttle_streak = 0;
        self.reads_done += 1;
        let mut write = None;
        let done = match self.cadence.kind {
            TestKind::Test1 => {
                // Staggering: my writes (none issued yet) are triggered by
                // the predecessor's second message appearing in my view.
                let trigger = self.agent_index.checked_sub(1).map(|prev| test1_post(prev, 2));
                if self.next_write_seq == 1 && trigger.is_some_and(|t| seq.contains(&t)) {
                    write = Some(self.next_post());
                }
                seq.contains(&test1_post(self.total_agents - 1, 2))
            }
            TestKind::Test2 => self.reads_done >= self.cadence.reads_target,
        };
        let completed = done && !self.completed;
        self.completed |= done;
        ReadOutcome { write, completed }
    }

    /// The service refused an operation with `Throttled`. Returns how
    /// long to back off before retrying it as a new operation (the
    /// refused attempt failed visibly, so it is neither logged nor
    /// counted): a throttled write would otherwise stall Test 1's chain.
    pub fn throttled(&mut self) -> SimDuration {
        self.throttle_streak += 1;
        self.cadence.read_period.saturating_mul(self.widen_factor())
    }
}

/// The post an agent writes for message `id`, stamped with its local
/// clock reading `now`.
pub fn post_for(id: PostId, now: LocalTime) -> Post {
    Post::new(id, format!("post {id}"), now)
}

#[cfg(test)]
mod tests {
    use super::*;

    const PERIOD: SimDuration = SimDuration::from_millis(300);
    const SLOW: SimDuration = SimDuration::from_secs(1);

    fn cadence(kind: TestKind, fast_reads: u32, reads_target: u32) -> Cadence {
        Cadence { kind, read_period: PERIOD, fast_reads, slow_period: SLOW, reads_target }
    }

    #[test]
    fn test1_chain_for_two_three_and_four_agents() {
        for n in 2..=4u32 {
            let mut agents: Vec<TestScript> =
                (0..n).map(|i| TestScript::new(cadence(TestKind::Test1, 0, 0), i, n)).collect();
            // Agent 0 opens with M1 and follows with M2 on the ack;
            // nobody else writes at the start.
            for (i, a) in agents.iter_mut().enumerate() {
                let first = a.start();
                assert_eq!(first, (i == 0).then(|| test1_post(0, 1)), "n={n} agent {i}");
            }
            assert_eq!(agents[0].write_acked(), Some(test1_post(0, 2)));
            assert_eq!(agents[0].write_acked(), None, "two writes per agent");

            let mut visible = vec![test1_post(0, 1), test1_post(0, 2)];
            for i in 1..n as usize {
                let me = i as u32;
                // A view without the predecessor's second message
                // triggers nothing.
                let idle = agents[i].read_returned(&visible[..visible.len() - 1]);
                assert_eq!(idle, ReadOutcome { write: None, completed: false });
                // Agent i triggers on M(2i), exactly once.
                let hit = agents[i].read_returned(&visible);
                assert_eq!(hit.write, Some(test1_post(me, 1)), "n={n} agent {i}");
                assert!(!hit.completed);
                assert_eq!(agents[i].read_returned(&visible).write, None, "duplicate sighting");
                assert_eq!(agents[i].write_acked(), Some(test1_post(me, 2)));
                assert_eq!(agents[i].write_acked(), None);
                // Agents other than i never write on this view.
                for (j, other) in agents.iter_mut().enumerate().filter(|(j, _)| *j != i) {
                    assert_eq!(other.read_returned(&visible).write, None, "n={n} agent {j}");
                    assert!(!other.completed(), "n={n}: M{} is not the last message", 2 * me);
                }
                visible.extend([test1_post(me, 1), test1_post(me, 2)]);
            }
            // Completion is the last agent's second post, reported once;
            // Test 1 agents keep reading until told to stop.
            for a in &mut agents {
                assert!(a.read_returned(&visible).completed);
                assert!(!a.read_returned(&visible).completed, "completion is reported once");
                assert!(a.completed());
                assert_eq!(a.read_issued(), Some(PERIOD));
            }
        }
    }

    #[test]
    fn test2_switches_to_the_slow_period_and_stops_at_the_quota() {
        let mut s = TestScript::new(cadence(TestKind::Test2, 3, 5), 1, 3);
        assert_eq!(s.start(), Some(test1_post(1, 1)), "everyone writes at the start");
        assert_eq!(s.write_acked(), None, "one write per agent");
        let gaps: Vec<_> = (0..5).map(|_| s.read_issued()).collect();
        assert_eq!(
            gaps,
            [Some(PERIOD), Some(PERIOD), Some(SLOW), Some(SLOW), None],
            "reads 1–2 are followed at the fast period, 3–4 at the slow one, 5 by nothing"
        );
        // Completion counts reads *done*, not reads issued: all five
        // are out, none has returned yet.
        assert!(!s.completed());
        for done in 1..=5 {
            let out = s.read_returned(&[]);
            assert_eq!(out, ReadOutcome { write: None, completed: done == 5 }, "read {done}");
        }
        assert!(s.completed());
    }

    #[test]
    fn throttle_streak_widens_the_period_and_any_success_resets_it() {
        let mut s = TestScript::new(cadence(TestKind::Test1, 0, 0), 0, 2);
        let factors = [1, 1, 2, 3, 4, 5, 6, 7, 8, 8, 8];
        for (streak, factor) in factors.into_iter().enumerate() {
            assert_eq!(s.throttled(), PERIOD.saturating_mul(factor), "rejection {}", streak + 1);
            assert_eq!(s.read_issued(), Some(PERIOD.saturating_mul(factor)));
        }
        assert_eq!(s.throttle_streak(), factors.len() as u32);
        s.read_returned(&[]);
        assert_eq!(s.read_issued(), Some(PERIOD), "a returned read resets the circuit");
        for _ in 0..4 {
            s.throttled();
        }
        assert_eq!(s.read_issued(), Some(PERIOD.saturating_mul(3)));
        s.write_acked();
        assert_eq!(s.read_issued(), Some(PERIOD), "so does an acknowledged write");
        assert_eq!(s.throttle_streak(), 0);
    }
}
