//! The blocking endpoint the live agents call a service through.
//!
//! The paper's agents spoke HTTP to live services. This reproduction has
//! two agents: [`AgentNode`](crate::agent::AgentNode), an event-driven
//! state machine inside the simulator that sends each request straight
//! to its plan's front-door node, and the live probe agent in
//! `conprobe-wire`, a thread that blocks on a [`ServiceEndpoint`] over
//! real sockets. They are not the same code: the Test 1 / Test 2 cadence
//! (who writes when, the adaptive read period, when an agent is done)
//! lives twice, once per agent. What the two share is everything around
//! it — the post naming ([`test1_post`](crate::proto::test1_post)), the
//! [`clocksync`](crate::clocksync) estimator, the trace and record types
//! ([`LocalOpRecord`](crate::proto::LocalOpRecord),
//! [`TestResult`](crate::runner::TestResult)), and the `analyze()`
//! checkers — so a live trace flows through the journal, report and
//! anomaly tables exactly as a simulated one does.
//!
//! The trait lives here, not in the wire crate, so the harness stays
//! ignorant of sockets and an in-process fake can stand in for one.

use conprobe_services::{ClientOp, OpResult};

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
