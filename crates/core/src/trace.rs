//! The operation trace a test produces.
//!
//! Every agent logs, for each operation, "the time when they occurred
//! (invocation and response times) and their output" (§IV). The harness maps
//! all local timestamps onto the coordinator's timeline using the estimated
//! clock deltas, then hands the merged log to the checkers as a
//! [`TestTrace`].

use crate::view::{ReadView, ViewDecoder};
use conprobe_json::{read_members, FromJson, JsonError, JsonReader, JsonWriter, ToJson};
use std::fmt;
use std::hash::Hash;

/// Marker trait for event key types usable by the checkers.
///
/// Blanket-implemented; you never implement this manually.
pub trait EventKey: Clone + Eq + Hash + Ord + fmt::Debug {}
impl<T: Clone + Eq + Hash + Ord + fmt::Debug> EventKey for T {}

/// Identifies an agent (client) in a test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct AgentId(pub u32);

impl fmt::Display for AgentId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "agent{}", self.0)
    }
}

/// An instant on the common, clock-corrected timeline (nanoseconds).
///
/// Signed: clock-delta correction can map an early local reading before the
/// coordinator's zero.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Timestamp(i64);

impl Timestamp {
    /// The timeline origin.
    pub const ZERO: Timestamp = Timestamp(0);

    /// From raw nanoseconds.
    pub const fn from_nanos(ns: i64) -> Self {
        Timestamp(ns)
    }

    /// From milliseconds.
    pub const fn from_millis(ms: i64) -> Self {
        Timestamp(ms * 1_000_000)
    }

    /// From whole seconds.
    pub const fn from_secs(s: i64) -> Self {
        Timestamp(s * 1_000_000_000)
    }

    /// Raw nanoseconds.
    pub const fn as_nanos(self) -> i64 {
        self.0
    }

    /// Seconds as a float.
    pub fn as_secs_f64(self) -> f64 {
        self.0 as f64 / 1e9
    }

    /// `self - other` in nanoseconds.
    pub const fn delta_nanos(self, other: Timestamp) -> i64 {
        self.0 - other.0
    }
}

impl fmt::Display for Timestamp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}s", self.as_secs_f64())
    }
}

/// What an operation did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OpKind<K> {
    /// A write that created event `id`.
    Write {
        /// The event the write created.
        id: K,
    },
    /// A read that returned `seq`, in the order the service presented it.
    Read {
        /// The returned event sequence, shared with whoever served it.
        seq: ReadView<K>,
    },
}

/// One logged operation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct OpRecord<K> {
    /// The agent that issued the operation.
    pub agent: AgentId,
    /// Invocation time (corrected timeline).
    pub invoke: Timestamp,
    /// Response time (corrected timeline).
    pub response: Timestamp,
    /// The operation and its payload/output.
    pub kind: OpKind<K>,
}

impl<K> OpRecord<K> {
    /// True for write operations.
    pub fn is_write(&self) -> bool {
        matches!(self.kind, OpKind::Write { .. })
    }

    /// True for read operations.
    pub fn is_read(&self) -> bool {
        matches!(self.kind, OpKind::Read { .. })
    }

    /// The returned sequence, if this is a read.
    pub fn read_seq(&self) -> Option<&[K]> {
        match &self.kind {
            OpKind::Read { seq } => Some(seq),
            OpKind::Write { .. } => None,
        }
    }

    /// The created event, if this is a write.
    pub fn write_id(&self) -> Option<&K> {
        match &self.kind {
            OpKind::Write { id } => Some(id),
            OpKind::Read { .. } => None,
        }
    }
}

/// The merged, time-corrected operation log of one test instance.
///
/// Operations are stored sorted by `(invoke, response)`; the accessors the
/// checkers use are derived views.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TestTrace<K> {
    ops: Vec<OpRecord<K>>,
}

impl<K: EventKey> TestTrace<K> {
    /// Builds a trace from raw records (any order).
    ///
    /// # Panics
    ///
    /// Panics if any record has `response < invoke` — that indicates a
    /// corrupted log rather than an anomaly.
    pub fn new(mut ops: Vec<OpRecord<K>>) -> Self {
        for op in &ops {
            assert!(
                op.response >= op.invoke,
                "operation response precedes invocation: {:?} < {:?}",
                op.response,
                op.invoke
            );
        }
        ops.sort_by_key(|o| (o.invoke, o.response));
        TestTrace { ops }
    }

    /// All operations, sorted by invocation time.
    pub fn ops(&self) -> &[OpRecord<K>] {
        &self.ops
    }

    /// The number of operations.
    pub fn len(&self) -> usize {
        self.ops.len()
    }

    /// True when the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// The distinct agents appearing in the trace, ascending.
    pub fn agents(&self) -> Vec<AgentId> {
        let mut v: Vec<AgentId> = self.ops.iter().map(|o| o.agent).collect();
        v.sort();
        v.dedup();
        v
    }

    /// Writes issued by `agent`, in issue order, with their event keys.
    pub fn writes_by(&self, agent: AgentId) -> Vec<(&OpRecord<K>, &K)> {
        self.ops
            .iter()
            .filter(|o| o.agent == agent)
            .filter_map(|o| o.write_id().map(|id| (o, id)))
            .collect()
    }

    /// All writes in the trace, in issue order.
    pub fn writes(&self) -> Vec<(&OpRecord<K>, &K)> {
        self.ops.iter().filter_map(|o| o.write_id().map(|id| (o, id))).collect()
    }

    /// Reads issued by `agent`, in issue order.
    pub fn reads_by(&self, agent: AgentId) -> Vec<&OpRecord<K>> {
        self.ops.iter().filter(|o| o.agent == agent && o.is_read()).collect()
    }

    /// All reads in the trace, in issue order.
    pub fn reads(&self) -> Vec<&OpRecord<K>> {
        self.ops.iter().filter(|o| o.is_read()).collect()
    }

    /// Total number of read operations.
    pub fn read_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_read()).count()
    }

    /// Total number of write operations.
    pub fn write_count(&self) -> usize {
        self.ops.iter().filter(|o| o.is_write()).count()
    }
}

impl ToJson for AgentId {
    fn write_json(&self, w: &mut JsonWriter) {
        self.0.write_json(w);
    }
}

impl FromJson for AgentId {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        u32::read_json(r).map(AgentId)
    }
}

impl ToJson for Timestamp {
    fn write_json(&self, w: &mut JsonWriter) {
        self.0.write_json(w);
    }
}

impl FromJson for Timestamp {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        i64::read_json(r).map(Timestamp)
    }
}

impl<K: ToJson> ToJson for OpKind<K> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        match self {
            OpKind::Write { id } => {
                w.key("Write");
                w.begin_object();
                w.member("id", id);
            }
            OpKind::Read { seq } => {
                w.key("Read");
                w.begin_object();
                w.member("seq", seq);
            }
        }
        w.end_object();
        w.end_object();
    }
}

impl<K: FromJson + Clone> OpKind<K> {
    /// Reads an operation's `kind`, a read's view through `views`.
    fn read_json_with(
        r: &mut JsonReader<'_>,
        views: &mut ViewDecoder<K>,
    ) -> Result<Self, JsonError> {
        let (mut write, mut read) = (None, None);
        let mut view = |r: &mut JsonReader<'_>| {
            read_members!(r => seq: |r| views.read(r));
            Ok(seq)
        };
        r.begin_object()?;
        if r.expect_key("Read") {
            r.member(&mut read, &mut view)?;
        }
        while let Some(variant) = r.next_key()? {
            match &*variant {
                "Write" => r.member(&mut write, |r| {
                    read_members!(r => id);
                    Ok(id)
                })?,
                "Read" => r.member(&mut read, &mut view)?,
                _ => drop(r.skip_value()?),
            }
        }
        match (write, read) {
            (Some(id), _) => Ok(OpKind::Write { id }),
            (None, Some(seq)) => Ok(OpKind::Read { seq }),
            (None, None) => Err(JsonError::schema("expected `Write` or `Read` variant")),
        }
    }
}

impl<K: FromJson + Clone> FromJson for OpKind<K> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        Self::read_json_with(r, &mut ViewDecoder::default())
    }
}

impl<K: ToJson> ToJson for OpRecord<K> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("agent", &self.agent);
        w.member("invoke", &self.invoke);
        w.member("response", &self.response);
        w.member("kind", &self.kind);
        w.end_object();
    }
}

impl<K: FromJson + Clone> OpRecord<K> {
    /// Reads one operation; see [`OpKind::read_json_with`].
    fn read_json_with(
        r: &mut JsonReader<'_>,
        views: &mut ViewDecoder<K>,
    ) -> Result<Self, JsonError> {
        read_members!(r => agent, invoke, response, kind: |r| OpKind::read_json_with(r, views));
        Ok(OpRecord { agent, invoke, response, kind })
    }
}

impl<K: FromJson + Clone> FromJson for OpRecord<K> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        Self::read_json_with(r, &mut ViewDecoder::default())
    }
}

impl<K: ToJson> ToJson for TestTrace<K> {
    fn write_json(&self, w: &mut JsonWriter) {
        w.begin_object();
        w.member("ops", &self.ops);
        w.end_object();
    }
}

/// A decoded timestamp's magnitude must stay below this many
/// nanoseconds, so the difference of any two fits an `i64`.
const MAX_DECODED_NANOS: u64 = 1 << 62;

impl<K: EventKey + FromJson> FromJson for TestTrace<K> {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, JsonError> {
        // One view decoder for the trace: one allocation per view.
        let mut views = ViewDecoder::default();
        read_members!(r => ops: |r| r.elements(|r| OpRecord::read_json_with(r, &mut views)));
        if ops.iter().any(|op| op.response < op.invoke) {
            return Err(JsonError::schema("operation response precedes invocation"));
        }
        // Within ±2^62 ns (±146 years) any two instants subtract exactly.
        let far = |t: Timestamp| t.0.unsigned_abs() >= MAX_DECODED_NANOS;
        if let Some(op) = ops.iter().find(|op| far(op.invoke) || far(op.response)) {
            return Err(JsonError::schema(format!(
                "operation timestamp {} ns is outside ±2^62 ns",
                if far(op.invoke) { op.invoke.0 } else { op.response.0 }
            )));
        }
        Ok(TestTrace::new(ops))
    }
}

/// Convenience builder for constructing traces in tests and examples.
#[derive(Debug, Clone, Default)]
pub struct TestTraceBuilder<K> {
    ops: Vec<OpRecord<K>>,
}

impl<K: EventKey> TestTraceBuilder<K> {
    /// Creates an empty builder.
    pub fn new() -> Self {
        TestTraceBuilder { ops: Vec::new() }
    }

    /// Records a write of `id` by `agent`.
    pub fn write(
        &mut self,
        agent: AgentId,
        invoke: Timestamp,
        response: Timestamp,
        id: K,
    ) -> &mut Self {
        self.ops.push(OpRecord { agent, invoke, response, kind: OpKind::Write { id } });
        self
    }

    /// Records a read returning `seq` by `agent`.
    pub fn read(
        &mut self,
        agent: AgentId,
        invoke: Timestamp,
        response: Timestamp,
        seq: Vec<K>,
    ) -> &mut Self {
        self.ops.push(OpRecord { agent, invoke, response, kind: OpKind::Read { seq: seq.into() } });
        self
    }

    /// Finishes the trace.
    pub fn build(&mut self) -> TestTrace<K> {
        TestTrace::new(std::mem::take(&mut self.ops))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn builder_sorts_by_invocation() {
        let mut b = TestTraceBuilder::new();
        b.read(AgentId(0), t(100), t(110), vec![1u32]);
        b.write(AgentId(0), t(0), t(10), 1u32);
        let trace = b.build();
        assert!(trace.ops()[0].is_write());
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.read_count(), 1);
        assert_eq!(trace.write_count(), 1);
    }

    #[test]
    fn accessors_filter_by_agent_and_kind() {
        let mut b = TestTraceBuilder::new();
        b.write(AgentId(0), t(0), t(5), 1u32);
        b.write(AgentId(1), t(1), t(6), 2u32);
        b.read(AgentId(0), t(10), t(15), vec![1, 2]);
        let trace = b.build();
        assert_eq!(trace.agents(), vec![AgentId(0), AgentId(1)]);
        assert_eq!(trace.writes_by(AgentId(0)).len(), 1);
        assert_eq!(*trace.writes_by(AgentId(1))[0].1, 2);
        assert_eq!(trace.reads_by(AgentId(0)).len(), 1);
        assert!(trace.reads_by(AgentId(1)).is_empty());
        assert_eq!(trace.writes().len(), 2);
    }

    #[test]
    #[should_panic(expected = "response precedes invocation")]
    fn rejects_negative_duration_ops() {
        let mut b = TestTraceBuilder::new();
        b.write(AgentId(0), t(10), t(5), 1u32);
        let _ = b.build();
    }

    /// Two reads 2^64 − 20 ns apart would overflow every difference the
    /// window and visibility passes take; the decoder refuses them.
    #[test]
    fn decoded_timestamps_beyond_two_to_the_62_are_refused() {
        let trace = |early: i64, late: i64| {
            let mut b = TestTraceBuilder::new();
            b.write(AgentId(0), Timestamp(early), Timestamp(early + 5), 1u32);
            b.read(AgentId(1), Timestamp(early), Timestamp(early + 10), vec![1]);
            b.read(AgentId(0), Timestamp(late - 10), Timestamp(late), vec![1]);
            b.build().to_compact()
        };
        let decode = |text: &str| TestTrace::<u32>::from_json_str(text);
        let err = decode(&trace(i64::MIN + 10, i64::MAX - 10)).unwrap_err();
        assert!(err.message.contains("outside ±2^62 ns"), "{err}");
        let edge = (1i64 << 62) - 1;
        assert!(decode(&trace(-edge, edge)).is_ok());
        assert!(decode(&trace(-edge - 1, 0)).is_err());
        assert!(decode(&trace(0, edge + 1)).is_err());
    }

    #[test]
    fn timestamps_support_negative_corrected_values() {
        let early = Timestamp::from_nanos(-5);
        assert!(early < Timestamp::ZERO);
        assert_eq!(early.delta_nanos(Timestamp::ZERO), -5);
        assert_eq!(Timestamp::from_secs(1).as_nanos(), 1_000_000_000);
        assert_eq!(Timestamp::from_millis(1).to_string(), "0.001000s");
    }

    #[test]
    fn empty_trace() {
        let trace: TestTrace<u32> = TestTrace::new(vec![]);
        assert!(trace.is_empty());
        assert!(trace.agents().is_empty());
    }

    #[test]
    fn op_record_inspectors() {
        let w = OpRecord {
            agent: AgentId(0),
            invoke: t(0),
            response: t(1),
            kind: OpKind::Write { id: 9u32 },
        };
        let r = OpRecord {
            agent: AgentId(0),
            invoke: t(2),
            response: t(3),
            kind: OpKind::Read { seq: vec![9u32].into() },
        };
        assert_eq!(w.write_id(), Some(&9));
        assert_eq!(w.read_seq(), None);
        assert_eq!(r.read_seq().unwrap(), &[9]);
        assert_eq!(r.write_id(), None);
    }

    #[test]
    fn json_round_trip() {
        let mut b = TestTraceBuilder::new();
        b.write(AgentId(0), t(0), t(5), 1u32).read(AgentId(1), t(6), t(9), vec![1u32]);
        let trace = b.build();
        let json = trace.to_compact();
        assert_eq!(
            json,
            r#"{"ops":[{"agent":0,"invoke":0,"response":5000000,"kind":{"Write":{"id":1}}},{"agent":1,"invoke":6000000,"response":9000000,"kind":{"Read":{"seq":[1]}}}]}"#
        );
        assert_eq!(TestTrace::<u32>::from_json_str(&json), Ok(trace.clone()));
        // The tree reads the same text, and the trace reads back from the tree.
        let tree = conprobe_json::parse(&json).unwrap();
        assert_eq!(tree.to_compact(), json);
        assert_eq!(TestTrace::<u32>::from_json(&tree), Ok(trace));
        // Corrupted logs are rejected at parse time, mirroring `TestTrace::new`.
        let bad = json.replace("\"invoke\":6000000", "\"invoke\":99000000");
        assert!(TestTrace::<u32>::from_json_str(&bad).is_err());
        // `Write` wins over `Read` whichever comes first, as a lookup would.
        let both =
            r#"{"agent":0,"invoke":0,"response":1,"kind":{"Read":{"seq":[]},"Write":{"id":4}}}"#;
        assert_eq!(OpRecord::<u32>::from_json_str(both).unwrap().write_id(), Some(&4));
        assert!(OpRecord::<u32>::from_json_str(&both.replace("Write", "Wrote")).unwrap().is_read());
        assert!(OpRecord::<u32>::from_json_str(
            &both.replace("Read", "Wrote").replace("Write", "W")
        )
        .is_err());
    }
}
