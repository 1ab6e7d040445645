//! A shared, precomputed view of a [`TestTrace`] for the checkers.
//!
//! Every checker and both window sweeps need the same derived data: the
//! agent list, each agent's reads (in trace and in response order), each
//! agent's writes, and fast membership/position lookups into each read's
//! returned sequence. Before this module each checker re-derived those
//! views by scanning `trace.ops()` — per agent, per pair, and in the
//! pairwise sweeps per *read pair* — and hashed full event keys on every
//! membership test.
//!
//! [`TraceIndex`] computes all of it once per analysis:
//!
//! * Event keys are **interned** into dense `u32` ids in first-appearance
//!   order, so every later lookup is an array index instead of a hash of
//!   the (potentially wide) key type.
//! * Each read gets a [`ReadView`] with its interned sequence and a
//!   positions array indexed by dense key id (`u32::MAX` = absent), giving
//!   O(1) membership and position tests.
//! * Per-agent read/write lists are materialized once, in trace order and
//!   (for reads) response order — the two orders the checkers consume.
//!
//! Memory is `reads × key_count` u32s for the position arrays, which is
//! small for the paper's workloads (hundreds of reads, tens of writes).
//!
//! The checkers themselves run on the streaming engine
//! ([`crate::stream`]) and no longer build an index; it is the substrate
//! of the frozen batch oracle the streaming-equivalence suite compares
//! that engine against.

use crate::trace::{AgentId, EventKey, OpRecord, TestTrace};
use std::collections::HashMap;

/// Sentinel in a [`ReadView`] positions array: the key is absent.
const ABSENT: u32 = u32::MAX;

/// One read operation, with its sequence interned for O(1) lookups.
#[derive(Debug)]
pub struct ReadView<'t, K> {
    /// The underlying operation record.
    pub op: &'t OpRecord<K>,
    /// The returned sequence, as logged (for witness extraction).
    pub seq: &'t [K],
    /// Dense key id of each element of `seq`, in sequence order.
    keys: Vec<u32>,
    /// Position of each dense key id in `seq` (`u32::MAX` = absent).
    /// For duplicated elements the *last* occurrence wins, matching the
    /// overwrite semantics of the per-read hash maps this replaces.
    positions: Vec<u32>,
}

impl<K> ReadView<'_, K> {
    /// Dense key ids of the returned sequence, in sequence order.
    pub fn keys(&self) -> &[u32] {
        &self.keys
    }

    /// Whether the read's sequence contains the key.
    pub fn contains(&self, key: u32) -> bool {
        self.positions.get(key as usize).is_some_and(|&p| p != ABSENT)
    }

    /// The key's position in the sequence (last occurrence), if present.
    pub fn position(&self, key: u32) -> Option<u32> {
        self.positions.get(key as usize).copied().filter(|&p| p != ABSENT)
    }
}

/// One write operation with its interned event key.
#[derive(Debug)]
pub struct WriteView<'t, K> {
    /// The underlying operation record.
    pub op: &'t OpRecord<K>,
    /// The event the write created.
    pub id: &'t K,
    /// Dense id of `id`.
    pub key: u32,
}

/// The precomputed derived views of one trace. See the module docs.
#[derive(Debug)]
pub struct TraceIndex<'t, K> {
    /// Every operation in trace order (the stream the index was built from).
    ops: &'t [OpRecord<K>],
    /// Distinct agents, ascending.
    agents: Vec<AgentId>,
    /// Every read in trace order.
    reads: Vec<ReadView<'t, K>>,
    /// Indices into `reads`, sorted by response time (stable, so ties keep
    /// trace order — the same order a stable sort of a filtered list gives).
    reads_by_response: Vec<u32>,
    /// Per agent (position in `agents`): indices into `reads`, trace order.
    reads_of: Vec<Vec<u32>>,
    /// Per agent: indices into `reads`, response order.
    reads_of_by_response: Vec<Vec<u32>>,
    /// Per agent: writes in trace (issue) order.
    writes_of: Vec<Vec<WriteView<'t, K>>>,
    /// Intern table: event key → dense id, in first-appearance order.
    key_ids: HashMap<&'t K, u32>,
}

impl<'t, K: EventKey> TraceIndex<'t, K> {
    /// Builds the index with one pass over the trace (plus per-agent
    /// response-order sorts).
    pub fn new(trace: &'t TestTrace<K>) -> Self {
        let agents = trace.agents();
        let agent_pos: HashMap<AgentId, usize> =
            agents.iter().enumerate().map(|(i, &a)| (a, i)).collect();

        let mut key_ids: HashMap<&'t K, u32> = HashMap::new();
        fn intern<'t, K: EventKey>(key_ids: &mut HashMap<&'t K, u32>, k: &'t K) {
            let next = key_ids.len() as u32;
            key_ids.entry(k).or_insert(next);
        }

        // First pass: intern every key (writes and read elements, op order).
        for op in trace.ops() {
            if let Some(id) = op.write_id() {
                intern(&mut key_ids, id);
            } else if let Some(seq) = op.read_seq() {
                for k in seq {
                    intern(&mut key_ids, k);
                }
            }
        }
        let key_count = key_ids.len();

        let mut reads = Vec::new();
        let mut reads_of = vec![Vec::new(); agents.len()];
        let mut writes_of: Vec<Vec<WriteView<'t, K>>> =
            (0..agents.len()).map(|_| Vec::new()).collect();
        for op in trace.ops() {
            let ai = agent_pos[&op.agent];
            if let Some(id) = op.write_id() {
                writes_of[ai].push(WriteView { op, id, key: key_ids[id] });
            } else if let Some(seq) = op.read_seq() {
                let keys: Vec<u32> = seq.iter().map(|k| key_ids[k]).collect();
                let mut positions = vec![ABSENT; key_count];
                for (i, &k) in keys.iter().enumerate() {
                    positions[k as usize] = i as u32;
                }
                let ri = reads.len() as u32;
                reads.push(ReadView { op, seq, keys, positions });
                reads_of[ai].push(ri);
            }
        }

        let mut reads_by_response: Vec<u32> = (0..reads.len() as u32).collect();
        reads_by_response.sort_by_key(|&i| reads[i as usize].op.response);
        let reads_of_by_response = reads_of
            .iter()
            .map(|list| {
                let mut sorted = list.clone();
                sorted.sort_by_key(|&i| reads[i as usize].op.response);
                sorted
            })
            .collect();

        TraceIndex {
            ops: trace.ops(),
            agents,
            reads,
            reads_by_response,
            reads_of,
            reads_of_by_response,
            writes_of,
            key_ids,
        }
    }

    /// Every operation in trace order — the event stream the index was
    /// built from, exposed so batch entry points can replay it through
    /// [`crate::stream::StreamingAnalyzer`].
    pub fn ops(&self) -> &'t [OpRecord<K>] {
        self.ops
    }

    /// Distinct agents in the trace, ascending.
    pub fn agents(&self) -> &[AgentId] {
        &self.agents
    }

    /// Number of distinct event keys.
    pub fn key_count(&self) -> usize {
        self.key_ids.len()
    }

    /// The dense id of `key`, if it appears anywhere in the trace.
    pub fn key_id(&self, key: &K) -> Option<u32> {
        self.key_ids.get(key).copied()
    }

    /// Every read, in trace order.
    pub fn reads(&self) -> &[ReadView<'t, K>] {
        &self.reads
    }

    /// Every read, in response order (ties keep trace order).
    pub fn reads_by_response(&self) -> impl Iterator<Item = &ReadView<'t, K>> {
        self.reads_by_response.iter().map(|&i| &self.reads[i as usize])
    }

    fn agent_index(&self, agent: AgentId) -> Option<usize> {
        self.agents.binary_search(&agent).ok()
    }

    /// `agent`'s reads in trace (issue) order.
    pub fn reads_of(&self, agent: AgentId) -> impl Iterator<Item = &ReadView<'t, K>> {
        self.agent_index(agent)
            .map(|ai| self.reads_of[ai].as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&i| &self.reads[i as usize])
    }

    /// `agent`'s reads in response order (ties keep trace order).
    pub fn reads_of_by_response(&self, agent: AgentId) -> impl Iterator<Item = &ReadView<'t, K>> {
        self.agent_index(agent)
            .map(|ai| self.reads_of_by_response[ai].as_slice())
            .unwrap_or(&[])
            .iter()
            .map(|&i| &self.reads[i as usize])
    }

    /// `agent`'s writes in issue order.
    pub fn writes_of(&self, agent: AgentId) -> &[WriteView<'t, K>] {
        self.agent_index(agent).map(|ai| self.writes_of[ai].as_slice()).unwrap_or(&[])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::{TestTraceBuilder, Timestamp};

    fn t(ms: i64) -> Timestamp {
        Timestamp::from_millis(ms)
    }
    const A0: AgentId = AgentId(0);
    const A1: AgentId = AgentId(1);

    fn sample() -> TestTrace<u32> {
        let mut b = TestTraceBuilder::new();
        b.write(A0, t(0), t(10), 1u32);
        b.write(A1, t(5), t(15), 2u32);
        b.read(A0, t(20), t(90), vec![1, 2]); // slow read, answered last
        b.read(A0, t(30), t(40), vec![1]);
        b.read(A1, t(30), t(40), vec![2, 1]);
        b.build()
    }

    #[test]
    fn views_mirror_the_trace() {
        let trace = sample();
        let ix = TraceIndex::new(&trace);
        assert_eq!(ix.agents(), &[A0, A1]);
        assert_eq!(ix.key_count(), 2);
        assert_eq!(ix.reads().len(), 3);
        assert_eq!(ix.writes_of(A0).len(), 1);
        assert_eq!(*ix.writes_of(A0)[0].id, 1);
        assert_eq!(ix.writes_of(A1)[0].key, ix.key_id(&2).unwrap());
        assert_eq!(ix.reads_of(A0).count(), 2);
        assert_eq!(ix.reads_of(A1).count(), 1);
        assert_eq!(ix.key_id(&99), None);
    }

    #[test]
    fn positions_match_sequence_order() {
        let trace = sample();
        let ix = TraceIndex::new(&trace);
        let k1 = ix.key_id(&1).unwrap();
        let k2 = ix.key_id(&2).unwrap();
        let r = ix.reads_of(A1).next().unwrap(); // saw [2, 1]
        assert_eq!(r.position(k2), Some(0));
        assert_eq!(r.position(k1), Some(1));
        assert!(r.contains(k1) && r.contains(k2));
        assert!(!r.contains(u32::MAX));
        assert_eq!(r.keys(), &[k2, k1]);
        assert_eq!(r.seq, &[2, 1]);
    }

    #[test]
    fn response_order_differs_from_trace_order() {
        let trace = sample();
        let ix = TraceIndex::new(&trace);
        // Trace order: the slow (invoke 20, response 90) read comes first.
        let trace_first = ix.reads_of(A0).next().unwrap();
        assert_eq!(trace_first.op.response, t(90));
        // Response order: the fast (invoke 30, response 40) read comes first.
        let resp_first = ix.reads_of_by_response(A0).next().unwrap();
        assert_eq!(resp_first.op.response, t(40));
        // Global response order interleaves agents, ties in trace order.
        let order: Vec<Timestamp> = ix.reads_by_response().map(|r| r.op.response).collect();
        assert_eq!(order, vec![t(40), t(40), t(90)]);
    }

    #[test]
    fn duplicate_elements_keep_last_position() {
        let mut b = TestTraceBuilder::new();
        b.read(A0, t(0), t(10), vec![7u32, 8, 7]);
        let trace = b.build();
        let ix = TraceIndex::new(&trace);
        let k7 = ix.key_id(&7).unwrap();
        assert_eq!(ix.reads()[0].position(k7), Some(2));
        assert_eq!(ix.reads()[0].keys().len(), 3);
    }

    #[test]
    fn unknown_agent_yields_empty_views() {
        let trace = sample();
        let ix = TraceIndex::new(&trace);
        assert_eq!(ix.reads_of(AgentId(9)).count(), 0);
        assert!(ix.writes_of(AgentId(9)).is_empty());
    }
}
