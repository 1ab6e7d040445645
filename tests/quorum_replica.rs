//! The majority-quorum control arm, end to end (ISSUE 6 acceptance bar).
//!
//! The `Quorum` service exists to prove the harness measures the
//! *services* and not itself: majority writes + majority reads +
//! crash-recovery state transfer with read fencing. Measured profile
//! (200 seeds a cell): read-your-writes, monotonic writes, monotonic
//! reads, writes-follow-reads and order divergence never fire, in clean
//! runs and under the chaos plan's crash/recover cycle alike; Test 2
//! shows a brief *content divergence* in ≈ 5–8 % of instances (seeds 9,
//! 19, 22, 39 of the first 60). White-box samples explain it (seed 9,
//! below): two concurrent one-phase reads consult the same two replicas
//! at different instants, each its own door before that door's write
//! lands and the other door after, so each sees only the other agent's
//! write. The other seeds pinned below are clean on all six checkers.
//! Under a fixed seed the whole thing — trace, recovery narration,
//! state-transfer stream hash — must be byte-deterministic.

use conprobe::cli::chaos_plan;
use conprobe::core::{AgentId, AnomalyKind, OpRecord};
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::{run_one_test, TestConfig, TestResult};
use conprobe::harness::whitebox::PERIOD;
use conprobe::services::ServiceKind;
use conprobe::store::PostId;
use conprobe_json::frame::fnv64;
use conprobe_json::ToJson;
use conprobe_obs::{EventLog, ObsSink, Severity};
use std::collections::BTreeSet;

/// The control arm: no faults, every checker, both test designs, seeds
/// 0..6 plus 7 and 42 — zero anomaly observations. That covers what
/// overlapping quorums promise (an acknowledged write is in some replica
/// the next read consults: read-your-writes), what the canonical
/// timestamp order promises (no order divergence at any coordinator) and
/// what synchronous writes promise (a client's two writes cannot
/// reorder: monotonic writes).
#[test]
fn clean_quorum_runs_are_anomaly_free_across_all_six_checkers() {
    for kind in [TestKind::Test1, TestKind::Test2] {
        for seed in (0..6).chain([7, 42]) {
            let config = TestConfig::paper(ServiceKind::Quorum, kind);
            let r = run_one_test(&config, seed);
            assert!(r.completed, "{kind} seed {seed} must complete");
            for anomaly in AnomalyKind::ALL {
                assert_eq!(
                    r.analysis.count(anomaly),
                    0,
                    "{kind} seed {seed}: {anomaly} observed against the strong control arm"
                );
            }
            assert!(r.analysis.is_clean());
        }
    }
}

/// Quorum Test 2, seed 9: the content divergence, joined with the two
/// reads' front doors and the white-box samples around them.
///
/// A one-phase `QuorumReplica::quorum_read` answers with its door's store
/// (taken when the read arrives) merged with the first peer snapshot to
/// come back, so each result is the union of one majority's sets. The
/// expected explanation was two reads served by two *different*
/// majorities. The samples show one majority read twice instead: each
/// read holds only the other agent's write, which is exactly the other
/// door's set at the first sample after the writes land, and its own
/// door contributes its empty set from before them. Both reads are
/// explained by the same pair of replicas and by no other pair. The two
/// doors read each other in opposite orders against two concurrent
/// writes, which no single order of the four operations allows.
#[test]
fn quorum_divergence_is_one_majority_read_at_two_instants() {
    let mut config = TestConfig::paper(ServiceKind::Quorum, TestKind::Test2);
    config.whitebox = true;
    let r = run_one_test(&config, 9);
    let cds = r.analysis.of_kind(AnomalyKind::ContentDivergence);
    assert_eq!(cds.len(), 1, "seed 9 diverges once: {cds:?}");
    let cd = cds[0];
    let (a, b) = (cd.agent, cd.other_agent.expect("a divergence names its pair"));
    // `a` alone sees `x`, `b` alone sees `y`.
    let (x, y) = (cd.witnesses[0], cd.witnesses[1]);
    let set = |op: &OpRecord<PostId>| -> BTreeSet<PostId> {
        op.read_seq().expect("a read").iter().copied().collect()
    };
    let diverging_read = |agent: AgentId, has: PostId, lacks: PostId| {
        let reads: Vec<_> = r
            .trace
            .reads_by(agent)
            .into_iter()
            .filter(|op| set(op).contains(&has) && !set(op).contains(&lacks))
            .collect();
        assert_eq!(reads.len(), 1, "{agent} has one diverging read");
        reads[0]
    };
    let (read_a, read_b) = (diverging_read(a, x, y), diverging_read(b, y, x));
    let writer = |id: PostId| {
        r.trace.ops().iter().find(|op| op.write_id() == Some(&id)).expect("a written id").agent
    };
    // Each read holds the other agent's write and nothing else.
    assert_eq!((writer(x), writer(y)), (b, a));
    assert_eq!(set(read_a), BTreeSet::from([x]));
    assert_eq!(set(read_b), BTreeSet::from([y]));
    // The two reads overlap in time.
    assert!(read_a.invoke < read_b.response && read_b.invoke < read_a.response);

    let door = |agent: AgentId| r.agent_entries[agent.0 as usize].0;
    let (door_a, door_b) = (door(a), door(b));
    assert_ne!(door_a, door_b);
    let wb = r.whitebox.as_ref().expect("white-box samples");
    let sampled = |replica: usize, at: u64| -> BTreeSet<PostId> {
        let s = wb.samples.iter().find(|s| s.replica == replica && s.at_nanos == at);
        s.expect("every replica is sampled at every instant").seq.iter().copied().collect()
    };
    // The nearest samples: `landed` is the first instant any replica holds
    // either write. Then each door holds exactly its own agent's write;
    // one period earlier every replica was empty.
    let landed = wb
        .samples
        .iter()
        .find(|s| s.seq.contains(&x) || s.seq.contains(&y))
        .expect("the writes land")
        .at_nanos;
    let before = landed - PERIOD.as_nanos();
    assert_eq!(sampled(door_a, landed), BTreeSet::from([y]));
    assert_eq!(sampled(door_b, landed), BTreeSet::from([x]));
    for replica in 0..wb.replicas {
        assert!(sampled(replica, before).is_empty(), "replica {replica} before the writes");
    }
    // So each read is its peer's set after the writes landed, joined with
    // its door's set from before them.
    assert_eq!(set(read_a), &sampled(door_a, before) | &sampled(door_b, landed));
    assert_eq!(set(read_b), &sampled(door_b, before) | &sampled(door_a, landed));

    // The one-phase prediction, tested over every sampled instant: which
    // peers, joined with the door, can explain each result?
    let held = |replica: usize| -> Vec<BTreeSet<PostId>> {
        let mut sets: Vec<BTreeSet<PostId>> = Vec::new();
        for s in wb.samples.iter().filter(|s| s.replica == replica) {
            let now: BTreeSet<PostId> = s.seq.iter().copied().collect();
            if sets.last() != Some(&now) {
                sets.push(now);
            }
        }
        sets
    };
    let majorities = |door: usize, result: &BTreeSet<PostId>| -> BTreeSet<usize> {
        (0..wb.replicas)
            .filter(|&peer| peer != door)
            .filter(|&peer| {
                held(door).iter().any(|d| held(peer).iter().any(|p| &(d | p) == result))
            })
            .collect()
    };
    // Each result is one majority's union, and both name the same one.
    assert_eq!(majorities(door_a, &set(read_a)), BTreeSet::from([door_b]));
    assert_eq!(majorities(door_b, &set(read_b)), BTreeSet::from([door_a]));
}

/// Runs the level-3 chaos cell (loss burst + degraded link + link flap +
/// a replica crash/recover cycle) of Test 2 against `service`, capturing
/// the service event log.
fn chaos_crash_run(service: ServiceKind, seed: u64) -> (TestResult, Vec<String>) {
    let sink = ObsSink::with_log(
        EventLog::new(4096).with_min_severity(Severity::Info).with_target_prefix("services"),
    );
    let mut config = TestConfig::paper(service, TestKind::Test2);
    config.fault_plan = chaos_plan(3, seed);
    config.obs = Some(sink.clone());
    let r = run_one_test(&config, seed);
    let events = sink.log.drain().iter().map(|e| e.render()).collect();
    (r, events)
}

/// The crash arm: replica 1 dies at 7 s and rejoins at 11 s. Read
/// fencing must hold — the recovering replica serves nothing until its
/// catch-up stream passes the rejoin watermark, so the run stays
/// anomaly-free — and the recovery must narrate a completed state
/// transfer.
#[test]
fn crash_and_recover_stays_clean_and_completes_a_state_transfer() {
    let (r, events) = chaos_crash_run(ServiceKind::Quorum, 42);
    assert!(r.completed, "the survivors keep both quorums available");
    for anomaly in AnomalyKind::ALL {
        assert_eq!(
            r.analysis.count(anomaly),
            0,
            "{anomaly} observed across a fenced crash/recover cycle:\n{events:#?}"
        );
    }
    // The fault ledger shows the cycle actually executed.
    assert!(
        r.fault_ledger.actions.len() >= 2,
        "crash + recover must be in the ledger: {:?}",
        r.fault_ledger.actions
    );
    assert!(events.iter().any(|e| e.contains("crashed")), "crash event missing: {events:#?}");
    assert!(
        events.iter().any(|e| e.contains("state transfer complete")),
        "recovery must complete a state transfer: {events:#?}"
    );
}

/// Same seed, same plan → byte-identical trace and byte-identical
/// recovery narration, stream hash included. This pins the state
/// transfer (snapshot request, `cpj1` catch-up frames, fence lift) as
/// fully deterministic.
#[test]
fn crash_recovery_state_transfer_is_byte_deterministic() {
    let (r1, e1) = chaos_crash_run(ServiceKind::Quorum, 42);
    let (r2, e2) = chaos_crash_run(ServiceKind::Quorum, 42);
    assert_eq!(r1.trace, r2.trace, "traces must be byte-identical under a fixed seed");
    assert_eq!(e1, e2, "recovery narration (incl. stream hash) must be deterministic");
    assert!(
        e1.iter().any(|e| e.contains("stream hash")),
        "the transfer narration carries the catch-up stream hash: {e1:#?}"
    );
}

/// The three sim replica types share one front-door shell and the two
/// strong arms one catch-up round; this pins what that shell says and
/// does. The constants were captured on the commit *before* the shell was
/// factored out (three pasted copies): FNV-1a over the compact trace JSON
/// followed by every `services` event-log line, newline-terminated.
#[test]
fn replica_shell_refactor_left_traces_and_narration_byte_identical() {
    for (service, want) in [
        (ServiceKind::Quorum, 0xf48a_2a91_e6d9_c08c_u64),
        (ServiceKind::Pbft, 0x3be7_f178_b6fb_a8db),
        (ServiceKind::GooglePlus, 0x2f18_ba3e_57ae_b72a),
    ] {
        let (r, events) = chaos_crash_run(service, 42);
        let mut bytes = r.trace.to_compact();
        for line in &events {
            bytes.push_str(line);
            bytes.push('\n');
        }
        let got = fnv64(bytes.as_bytes());
        assert_eq!(got, want, "{service}: got {got:#018x}\n{events:#?}");
    }
}

/// The paper's campaign matrix — and with it every golden fingerprint —
/// deliberately excludes the control arm.
#[test]
fn the_paper_matrix_does_not_gain_the_control_arm() {
    assert_eq!(ServiceKind::ALL.len(), 4);
    assert!(!ServiceKind::ALL.contains(&ServiceKind::Quorum));
    assert!(ServiceKind::CATALOG.contains(&ServiceKind::Quorum));
}
