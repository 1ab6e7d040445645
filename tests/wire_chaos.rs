//! Live-path chaos: the fault-injecting interposer, replica
//! crash/rejoin, and graceful degradation, exercised end to end over
//! real loopback sockets (ISSUE 9 acceptance bar).
//!
//! These tests put the [`ChaosProxy`] between real probe agents and a
//! live [`WireServer`] and verify the robustness contract: injected
//! byte corruption is a *typed* rejection (never a panic), mid-frame
//! resets are survived by [`ReconnectPolicy`]'s idempotent resend, an
//! overloaded server sheds load with retryable `busy` frames instead of
//! hanging clients, and a crashed quorum replica rejoins via state
//! transfer after which the unmodified checkers analyze clean.

use conprobe::cli::{execute, parse};
use conprobe::harness::journal::{result_from_json, wire_chaos_cell_id, Journal};
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::TestConfig;
use conprobe::harness::transport::ServiceEndpoint;
use conprobe::services::api::{ClientOp, OpResult};
use conprobe::services::ServiceKind;
use conprobe::sim::{
    FaultEvent, FaultNetStats, FaultPlan, LocalTime, Region, SimDuration, SimTime,
};
use conprobe::store::{AuthorId, Post, PostId};
use conprobe::wire::{
    drive_service_actions, run_load, run_probe, ChaosConfig, ChaosProxy, ChaosTarget,
    InjectProfile, LoadConfig, ProbeConfig, ReconnectPolicy, ServeConfig, WireClient, WireServer,
};
use conprobe_obs::MetricsRegistry;
use std::time::{Duration, Instant};

/// Interposer targets mirroring a server's listeners one to one.
fn targets_for(server: &WireServer) -> Vec<ChaosTarget> {
    server
        .addrs()
        .iter()
        .map(|&(region, addr)| ChaosTarget { region, replica_region: region, addr })
        .collect()
}

/// Fuzz-style sweep: seeded corruption, injected resets and slow-loris
/// trickle on every link at once. No thread may panic, the decoder must
/// reject corrupt frames as typed errors, and the probe must still
/// produce an analyzable result — completed or salvaged, never wedged.
#[test]
fn fuzzed_interposer_probe_survives_corruption_resets_and_trickle() {
    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 51)).expect("bind");
    let proxy = ChaosProxy::start(
        &ChaosConfig {
            seed: 51,
            plan: FaultPlan::new(51),
            inject: InjectProfile {
                corrupt_prob: 0.03,
                reset_prob: 0.01,
                trickle_prob: 0.05,
                ..InjectProfile::default()
            },
            base_port: 0,
        },
        &targets_for(&server),
    )
    .expect("interposer");

    let mut config =
        ProbeConfig::loopback(ServiceKind::Blogger, TestKind::Test2, proxy.addrs().to_vec(), 51);
    // Short read timeout: a frame eaten by the corrupt-then-close path
    // becomes a quick reconnect instead of a 5 s stall per incident.
    config.timeout = Duration::from_millis(1000);
    let result = run_probe(&config).expect("a fuzzed probe still returns a result");

    server.request_stop();
    proxy.request_stop();
    let ledger = proxy.join();
    server.join();

    assert!(ledger.forwarded > 0, "traffic flowed: {ledger:?}");
    assert!(ledger.corrupted > 0, "the fuzz arm must actually corrupt frames: {ledger:?}");
    assert!(ledger.trickled > 0, "the fuzz arm must actually trickle frames: {ledger:?}");
    // The run may be salvaged (a quarantined agent after repeated
    // injected failures is legitimate) but never empty-handed.
    assert!(result.completed || result.salvaged, "probe neither completed nor salvaged");
    assert!(result.writes_total > 0);
}

/// A single client driven through an aggressive reset regime: every
/// torn connection is re-dialed and the in-flight frame re-sent. The
/// write path is idempotent — a post re-sent after an ambiguous drop
/// must not appear twice in the final read.
#[test]
fn reconnect_policy_resends_through_injected_resets_without_duplicates() {
    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 52)).expect("bind");
    let proxy = ChaosProxy::start(
        &ChaosConfig {
            seed: 52,
            plan: FaultPlan::new(52),
            inject: InjectProfile { reset_prob: 0.08, ..InjectProfile::default() },
            base_port: 0,
        },
        &targets_for(&server),
    )
    .expect("interposer");

    let addr = proxy.addrs()[0].1;
    let mut client = WireClient::connect_with_policy(
        addr,
        Duration::from_millis(1000),
        ReconnectPolicy::probe_default(52),
    )
    .expect("connect through the interposer");

    let writes = 20u32;
    for seq in 0..writes {
        let id = PostId::new(AuthorId(0), seq);
        let post = Post::new(id, format!("post {id}"), LocalTime::from_nanos(i64::from(seq)));
        match client.call(ClientOp::Write(post)).expect("write survives resets") {
            OpResult::WriteAck(acked) => assert_eq!(acked, id),
            other => panic!("unexpected write reply: {other:?}"),
        }
    }
    let posts = match client.call(ClientOp::Read).expect("read survives resets") {
        OpResult::ReadOk(posts) => posts,
        other => panic!("unexpected read reply: {other:?}"),
    };

    server.request_stop();
    proxy.request_stop();
    let ledger = proxy.join();
    server.join();

    assert!(ledger.resets > 0, "the reset arm must actually tear connections: {ledger:?}");
    assert!(client.reconnects() > 0, "the client must have re-dialed at least once");
    assert_eq!(
        posts.len(),
        writes as usize,
        "idempotent resend: no dropped and no duplicated writes"
    );
}

/// Graceful degradation under connection pressure: a server capped at
/// two connections answers the overflow with typed `busy` frames. The
/// load generator backs off and retries, keeps making progress on the
/// admitted connections, and both sides count the sheds.
#[test]
fn overloaded_server_sheds_busy_frames_and_load_still_progresses() {
    let server = WireServer::start(&ServeConfig {
        max_connections: 2,
        ..ServeConfig::loopback(ServiceKind::Blogger, 53)
    })
    .expect("bind");
    let metrics = MetricsRegistry::new();
    let report = run_load(
        &LoadConfig {
            connections: 8,
            pipeline: 4,
            threads: 2,
            keys: 2,
            duration: Duration::from_millis(500),
            warmup: Duration::from_millis(100),
            seed_posts: 4,
            ..LoadConfig::loopback(server.addrs()[0].1)
        },
        &metrics,
    )
    .expect("load");
    server.request_stop();
    let server_metrics = server.join();

    assert!(report.ops > 0, "admitted connections still make progress");
    assert!(report.busy_sheds > 0, "overflow connections must see busy frames: {report:?}");
    let json = metrics.to_json().to_pretty();
    assert!(json.contains("wire.load.busy_sheds"), "{json}");
    assert!(
        server_metrics.contains("wire.server.busy_sheds"),
        "server counts its sheds: {server_metrics}"
    );
}

/// The acceptance scenario: a quorum replica is crashed and restarted by
/// the fault driver, rejoins via `cpj1` state transfer (narrated), and a
/// post-rejoin probe over real TCP analyzes clean on every checker.
#[test]
fn quorum_crash_rejoin_completes_state_transfer_and_probes_clean() {
    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Quorum, 54)).expect("bind");

    // Seed real state first so the transfer has posts to move.
    let warmup =
        ProbeConfig::loopback(ServiceKind::Quorum, TestKind::Test2, server.addrs().to_vec(), 54);
    let seeded = run_probe(&warmup).expect("warmup probe");
    assert!(seeded.completed);

    let plan = FaultPlan::new(54).with(FaultEvent::CrashCycle {
        target: 1,
        at: SimTime::ZERO,
        down_for: SimDuration::from_millis(100),
        up_for: SimDuration::ZERO,
        cycles: 1,
    });
    let mut narration = Vec::new();
    let executed = drive_service_actions(&server, &plan, |line| narration.push(line));
    assert_eq!(executed, 2, "one crash and one recover");
    let joined = narration.join("\n");
    assert!(joined.contains("replica n1 crashed"), "{joined}");
    assert!(joined.contains("state transfer complete"), "{joined}");

    let after =
        ProbeConfig::loopback(ServiceKind::Quorum, TestKind::Test2, server.addrs().to_vec(), 55);
    let result = run_probe(&after).expect("post-rejoin probe");
    server.request_stop();
    server.join();

    assert!(result.completed, "post-rejoin probe finishes its quota");
    assert!(!result.salvaged);
    assert!(
        result.analysis.is_clean(),
        "a rejoined majority-quorum replica must hide nothing from the checkers"
    );
}

/// The consensus-arm acceptance scenario: the live pbft leader (view 1
/// leads at replica 1, Tokyo's door) is killed by the fault driver for
/// 3 s. Its door is dark meanwhile, so the traffic is a client at each of
/// the two surviving doors, not a probe: every read is refused until
/// operations have stalled at both past the suspicion timeout (1.2 s and
/// seeded jitter), the survivors install view 2 through the protocol's own
/// `ViewChange`/`NewView` exchange, and reads are answered again. The
/// ex-leader rejoins via `cpj1` state transfer, and a post-rejoin probe
/// over real TCP analyzes clean on every checker.
#[test]
fn pbft_leader_kill_forces_a_live_view_change_and_probes_clean() {
    let server = WireServer::start(&ServeConfig::loopback(ServiceKind::Pbft, 56)).expect("bind");
    assert_eq!(server.pbft_status(), Some((1, 1, 0)), "boot: view 1, leader n1, none entered");

    // Seed real state first so the transfer has posts to move.
    let warmup =
        ProbeConfig::loopback(ServiceKind::Pbft, TestKind::Test2, server.addrs().to_vec(), 56);
    let seeded = run_probe(&warmup).expect("warmup probe");
    assert!(seeded.completed);

    let plan = FaultPlan::new(56).with(FaultEvent::CrashCycle {
        target: 1,
        at: SimTime::ZERO,
        down_for: SimDuration::from_millis(3_000),
        up_for: SimDuration::ZERO,
        cycles: 1,
    });
    let (killed_tx, killed_rx) = std::sync::mpsc::channel();
    let (executed, narration) = std::thread::scope(|scope| {
        let driver = scope.spawn(|| {
            let mut narration = Vec::new();
            let executed = drive_service_actions(&server, &plan, |line| {
                if line.contains("crashed") {
                    killed_tx.send(Instant::now()).expect("the test is listening");
                }
                narration.push(line);
            });
            (executed, narration)
        });
        let killed = killed_rx.recv_timeout(Duration::from_secs(5)).expect("an immediate kill");
        let mut doors = [Region::Oregon, Region::Ireland].map(|door| {
            let addr = server.addr_for(door).expect("a listener a region");
            WireClient::connect(addr, Duration::from_secs(2)).expect("a surviving door")
        });
        let mut refused = 0;
        while server.pbft_status() != Some((2, 2, 1)) {
            assert!(killed.elapsed() < Duration::from_secs(5), "two-door traffic moved no view");
            for door in &mut doors {
                match door.call(ClientOp::Read).expect("a surviving door replies") {
                    OpResult::Throttled => refused += 1,
                    // Only a new leader can have sequenced it.
                    answer => assert_eq!(server.pbft_status(), Some((2, 2, 1)), "{answer:?}"),
                }
            }
            std::thread::sleep(Duration::from_millis(50));
        }
        assert!(killed.elapsed() >= Duration::from_millis(1_200), "sooner than the protocol can");
        assert!(refused >= 2 * 10, "reads were refused at both doors throughout: {refused}");
        for door in &mut doors {
            let answer = door.call(ClientOp::Read).expect("a read under the new leader");
            assert!(matches!(answer, OpResult::ReadOk(_)), "{answer:?}");
        }
        driver.join().expect("the fault driver")
    });
    assert_eq!(executed, 2, "one crash and one recover");
    let at = |what: &str| {
        narration.iter().position(|line| line.contains(what)).unwrap_or_else(|| {
            panic!("no {what:?} in:\n{}", narration.join("\n"));
        })
    };
    assert!(at("replica n1 crashed") < at("pbft view change: view 2, new leader n2"));
    assert!(at("pbft view change: view 2, new leader n2") < at("state transfer complete"));
    assert_eq!(server.pbft_status(), Some((2, 2, 1)), "the ex-leader rejoined as a follower");

    let after =
        ProbeConfig::loopback(ServiceKind::Pbft, TestKind::Test2, server.addrs().to_vec(), 57);
    let result = run_probe(&after).expect("post-rejoin probe");
    server.request_stop();
    server.join();

    assert!(result.completed, "post-rejoin probe finishes its quota");
    assert!(!result.salvaged);
    assert!(
        result.analysis.is_clean(),
        "an ordered log with a replaced leader must hide nothing from the checkers"
    );
}

/// A seeded `chaos --wire` sweep journals its per-level results; a
/// resumed sweep splices them back and reproduces the report
/// byte-for-byte without re-running a single live level.
#[test]
fn wire_chaos_sweep_resume_is_byte_identical() {
    let journal =
        std::env::temp_dir().join(format!("conprobe-wire-chaos-{}.jsonl", std::process::id()));
    let _ = std::fs::remove_file(&journal);

    let fresh = execute(
        parse(&to_args(&format!(
            "chaos --service blogger --test 2 --seed 9 --levels 1 --wire --journal {}",
            journal.display()
        )))
        .unwrap(),
    )
    .expect("fresh wire sweep");
    assert!(fresh.contains("wire chaos sweep"), "{fresh}");
    assert!(fresh.contains("level 0"), "{fresh}");
    assert!(fresh.contains("level 1"), "{fresh}");

    let resumed = execute(
        parse(&to_args(&format!(
            "chaos --service blogger --test 2 --seed 9 --levels 1 --wire --resume {}",
            journal.display()
        )))
        .unwrap(),
    )
    .expect("resumed wire sweep");
    assert_eq!(fresh, resumed, "splice reproduces the live sweep byte-for-byte");

    // Each level journals what the interposer did to its frames: nothing
    // at level 0, the level 1 latency spike's delays at level 1.
    let recovery = Journal::recover(&journal).expect("the journal recovers");
    let cell = wire_chaos_cell_id(ServiceKind::Blogger, TestKind::Test2);
    let config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test2);
    let net: Vec<FaultNetStats> = recovery
        .completed_for(&cell)
        .values()
        .map(|&(_, payload)| result_from_json(&config, payload).unwrap().fault_ledger.net)
        .collect();
    assert_eq!(net.len(), 2, "{net:?}");
    assert_eq!(net[0], FaultNetStats::default(), "level 0 is fault-free");
    assert!(net[1].delayed > 0, "level 1 delays frames: {:?}", net[1]);
    let _ = std::fs::remove_file(&journal);
}

fn to_args(s: &str) -> Vec<String> {
    s.split_whitespace().map(str::to_string).collect()
}
