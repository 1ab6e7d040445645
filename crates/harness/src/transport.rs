//! The blocking endpoint the live agents call a service through, and the
//! blocking driver that runs a test script against it.
//!
//! The paper's agents spoke HTTP to live services. This reproduction has
//! one [`TestScript`] — who writes when, the adaptive read period, when an
//! agent is done — and two drivers for it:
//! [`AgentNode`](crate::agent::AgentNode) turns the script's answers into
//! messages and timers inside the simulator; [`run_script`] turns them
//! into blocking calls on a [`ServiceEndpoint`] and sleeps on an
//! [`AgentClock`], which the live probe in `conprobe-wire` implements
//! over real sockets and a skewed wall clock. The
//! [`clocksync`](crate::clocksync) estimator, the record and trace types
//! and the `analyze()` checkers are shared too, so a live trace flows
//! through the journal, report and anomaly tables exactly as a simulated
//! one does.
//!
//! The traits live here, not in the wire crate, so the harness stays
//! ignorant of sockets and an in-process fake can stand in for one.

use crate::proto::LocalOpRecord;
use crate::script::{post_for, TestScript};
use conprobe_core::trace::OpKind;
use conprobe_core::ReadView;
use conprobe_services::{ClientOp, OpResult};
use conprobe_sim::LocalTime;
use conprobe_store::PostId;

/// A transport-level failure from a blocking endpoint: the connection
/// died, the peer spoke garbage, or the protocol versions disagree.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EndpointError(pub String);

impl std::fmt::Display for EndpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for EndpointError {}

/// Blocking request/response endpoint used by live (real-network) clients.
///
/// One call issues one operation and waits for its result; clock probes
/// read the *server's* clock so the caller can run the Cristian estimator
/// from [`clocksync`](crate::clocksync) over the wire.
pub trait ServiceEndpoint {
    /// Issues one operation and blocks until the service answers.
    fn call(&mut self, op: ClientOp) -> Result<OpResult, EndpointError>;

    /// Reads the remote server's clock: nanoseconds on the server's own
    /// timeline. Wrapping this between two local clock readings yields a
    /// [`ProbeSample`](crate::clocksync::ProbeSample) whose
    /// `agent_reading` is the server's reading.
    fn server_clock(&mut self) -> Result<i64, EndpointError>;
}

/// The local clock a blocking agent timestamps its operations with and
/// paces its schedule on.
pub trait AgentClock {
    /// The current local clock reading.
    fn now(&self) -> LocalTime;

    /// Blocks until the local clock reaches `deadline`.
    fn sleep_until(&self, deadline: LocalTime);
}

/// What one blocking run of a script produced.
#[derive(Debug)]
pub struct ScriptRun {
    /// Every operation that got an answer, in local time. When `error`
    /// is set these are the records up to the failure — the salvageable
    /// part of the agent's trace.
    pub records: Vec<LocalOpRecord>,
    /// Whether the script's completion condition was met.
    pub completed: bool,
    /// The transport failure that ended the run early, if one did.
    pub error: Option<EndpointError>,
}

/// Runs `script` against `endpoint`, blocking: the live counterpart of
/// [`AgentNode`](crate::agent::AgentNode).
///
/// `observe` is shown every logged record exactly once — those new since
/// its last call, plus the completion flag — before every scheduled read
/// and once more at the end. The run ends when the script schedules no
/// further read (a Test 2 quota), `clock` reaches `deadline`, `observe`
/// returns `false` (Test 1 agents read until told to stop), or a call
/// fails. A `Throttled` operation is retried in place as a new operation
/// after the backoff the script asks for.
pub fn run_script<E: ServiceEndpoint, C: AgentClock>(
    script: TestScript,
    endpoint: &mut E,
    clock: &C,
    deadline: LocalTime,
    observe: impl FnMut(&[LocalOpRecord], bool) -> bool,
) -> ScriptRun {
    let mut run =
        Blocking { script, endpoint, clock, deadline, observe, records: Vec::new(), observed: 0 };
    let error = run.cadence().err();
    run.checkpoint(); // whatever the last cycle logged
    ScriptRun { records: run.records, completed: run.script.completed(), error }
}

struct Blocking<'a, E, C, F> {
    script: TestScript,
    endpoint: &'a mut E,
    clock: &'a C,
    deadline: LocalTime,
    observe: F,
    records: Vec<LocalOpRecord>,
    /// How many of `records` the observer has been shown.
    observed: usize,
}

impl<E, C, F> Blocking<'_, E, C, F>
where
    E: ServiceEndpoint,
    C: AgentClock,
    F: FnMut(&[LocalOpRecord], bool) -> bool,
{
    /// Shows the observer what was logged since its last look; `false`
    /// means stop.
    fn checkpoint(&mut self) -> bool {
        let new = &self.records[self.observed..];
        self.observed = self.records.len();
        (self.observe)(new, self.script.completed())
    }

    fn cadence(&mut self) -> Result<(), EndpointError> {
        let mut next_read = self.clock.now();
        let opening = self.script.start();
        self.write_chain(opening)?;
        while self.checkpoint() && next_read.max(self.clock.now()) < self.deadline {
            self.clock.sleep_until(next_read);
            let gap = self.script.read_issued();
            let Some(seq) = self.call(|_| ClientOp::Read)? else { break };
            let outcome = self.script.read_returned(&seq);
            self.write_chain(outcome.write)?;
            let Some(gap) = gap else { break };
            next_read = next_read.offset_by(gap.as_nanos() as i64);
        }
        Ok(())
    }

    /// Writes `next` and whatever the script chains onto its ack (a
    /// blocking call gives "as soon as the first is acknowledged" for
    /// free).
    fn write_chain(&mut self, mut next: Option<PostId>) -> Result<(), EndpointError> {
        while let Some(id) = next {
            next = match self.call(|now| ClientOp::Write(post_for(id, now)))? {
                Some(_) => self.script.write_acked(),
                None => None,
            };
        }
        Ok(())
    }

    /// Issues the operation `op` builds for the current local time until
    /// the service accepts it, and logs it as the sim agent logs its
    /// operations. Returns the read sequence (empty for a write), or
    /// `None` once a throttle backoff has run into the deadline.
    fn call(
        &mut self,
        op: impl Fn(LocalTime) -> ClientOp,
    ) -> Result<Option<ReadView<PostId>>, EndpointError> {
        loop {
            let invoke = self.clock.now();
            let result = self.endpoint.call(op(invoke))?;
            let response = self.clock.now();
            let (kind, seq) = match result {
                OpResult::WriteAck(id) => (OpKind::Write { id }, ReadView::default()),
                OpResult::ReadOk(seq) => (OpKind::Read { seq: seq.clone() }, seq),
                OpResult::Throttled => {
                    let retry_at = response.offset_by(self.script.throttled().as_nanos() as i64);
                    self.clock.sleep_until(retry_at.min(self.deadline));
                    if retry_at >= self.deadline {
                        return Ok(None);
                    }
                    continue;
                }
            };
            self.records.push(LocalOpRecord { invoke, response, kind });
            return Ok(Some(seq));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::proto::{test1_post, TestKind};
    use crate::script::Cadence;
    use conprobe_sim::SimDuration;
    use std::cell::Cell;
    use std::collections::VecDeque;

    const MS: i64 = 1_000_000;

    /// What the fake service answers to the next call, whatever it is.
    enum Reply {
        Ack,
        Throttle,
        Read(Vec<PostId>),
        Fail,
    }

    /// An in-memory endpoint that answers from a script and remembers
    /// what it was asked.
    struct FakeEndpoint {
        replies: VecDeque<Reply>,
        asked: Vec<ClientOp>,
    }

    impl FakeEndpoint {
        fn new(replies: impl IntoIterator<Item = Reply>) -> Self {
            FakeEndpoint { replies: replies.into_iter().collect(), asked: Vec::new() }
        }
    }

    impl ServiceEndpoint for FakeEndpoint {
        fn call(&mut self, op: ClientOp) -> Result<OpResult, EndpointError> {
            self.asked.push(op.clone());
            match (self.replies.pop_front().expect("the driver called past the script"), op) {
                (Reply::Ack, ClientOp::Write(post)) => Ok(OpResult::WriteAck(post.id)),
                (Reply::Read(seq), ClientOp::Read) => Ok(OpResult::ReadOk(seq.into())),
                (Reply::Throttle, _) => Ok(OpResult::Throttled),
                (Reply::Fail, _) => Err(EndpointError("connection reset".into())),
                (_, op) => panic!("scripted reply does not fit {op:?}"),
            }
        }

        fn server_clock(&mut self) -> Result<i64, EndpointError> {
            unreachable!("the script driver never syncs clocks")
        }
    }

    /// A clock that advances 1 ms per reading and jumps on sleep.
    struct FakeClock(Cell<i64>);

    impl AgentClock for FakeClock {
        fn now(&self) -> LocalTime {
            LocalTime::from_nanos(self.0.replace(self.0.get() + MS))
        }

        fn sleep_until(&self, deadline: LocalTime) {
            self.0.set(self.0.get().max(deadline.as_nanos()));
        }
    }

    fn script(kind: TestKind, reads_target: u32) -> TestScript {
        let cadence = Cadence {
            kind,
            read_period: SimDuration::from_millis(300),
            fast_reads: 1,
            slow_period: SimDuration::from_secs(1),
            reads_target,
        };
        TestScript::new(cadence, 0, 2)
    }

    fn record(invoke_ms: i64, kind: OpKind<PostId>) -> LocalOpRecord {
        LocalOpRecord {
            invoke: LocalTime::from_nanos(invoke_ms * MS),
            response: LocalTime::from_nanos((invoke_ms + 1) * MS),
            kind,
        }
    }

    #[test]
    fn throttled_write_is_retried_fresh_and_an_io_error_salvages_the_log() {
        let (m1, m2) = (test1_post(0, 1), test1_post(0, 2));
        let mut endpoint = FakeEndpoint::new([
            Reply::Ack,
            Reply::Throttle,
            Reply::Ack,
            Reply::Read(vec![m1, m2]),
            Reply::Fail,
        ]);
        let mut seen = Vec::new();
        let run = run_script(
            script(TestKind::Test1, 0),
            &mut endpoint,
            &FakeClock(Cell::new(0)),
            LocalTime::from_nanos(60_000 * MS),
            |records, completed| {
                seen.push((records.len(), completed));
                true
            },
        );

        assert_eq!(run.error, Some(EndpointError("connection reset".into())));
        assert!(!run.completed, "agent 1's second message never came into view");
        // The refused M2 (invoked at 3 ms, refused at 4 ms) is not in the
        // log; its retry is a new operation one read period later.
        assert_eq!(
            run.records,
            [
                record(1, OpKind::Write { id: m1 }),
                record(304, OpKind::Write { id: m2 }),
                record(307, OpKind::Read { seq: vec![m1, m2].into() }),
            ],
            "everything answered before the error is salvaged"
        );
        assert_eq!(seen, [(2, false), (1, false), (0, false)], "each record is shown once");
        let stamps: Vec<_> = endpoint
            .asked
            .iter()
            .map(|op| match op {
                ClientOp::Write(post) => Some((post.id, post.client_ts.as_nanos() / MS)),
                _ => None,
            })
            .collect();
        assert_eq!(
            stamps,
            [Some((m1, 1)), Some((m2, 3)), Some((m2, 304)), None, None],
            "the retried write carries its own invoke time"
        );
    }

    #[test]
    fn throttled_read_costs_no_quota_and_a_lasting_storm_ends_at_the_deadline() {
        let mut endpoint = FakeEndpoint::new([
            Reply::Ack,
            Reply::Throttle,
            Reply::Read(vec![]),
            Reply::Read(vec![]),
        ]);
        let clock = FakeClock(Cell::new(0));
        let far = LocalTime::from_nanos(60_000 * MS);
        let run = run_script(script(TestKind::Test2, 2), &mut endpoint, &clock, far, |_, _| true);
        assert_eq!(run.error, None);
        assert!(run.completed, "two reads returned: the quota is met");
        assert_eq!(run.records.len(), 3, "one write, two reads; the refusal is not logged");
        assert!(endpoint.replies.is_empty());

        let mut endpoint = FakeEndpoint::new((0..8).map(|_| Reply::Throttle));
        let clock = FakeClock(Cell::new(0));
        let near = LocalTime::from_nanos(2_000 * MS);
        let run = run_script(script(TestKind::Test2, 2), &mut endpoint, &clock, near, |_, _| true);
        assert_eq!(run.error, None, "being throttled is not a transport failure");
        assert!(!run.completed);
        assert!(run.records.is_empty());
        // Backoffs of 300, 300, 600, 900 ms: the fifth would overrun 2 s.
        assert_eq!(endpoint.asked.len(), 4);
    }
}
