//! Robustness of the measurement harness under injected faults: message
//! loss, partitions, and hostile clocks. The paper's infrastructure had to
//! survive a real WAN; ours must survive a simulated-adversarial one.

use conprobe::core::AnomalyKind;
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::{run_one_test, TestConfig};
use conprobe::services::ServiceKind;
use conprobe::sim::net::Region;
use conprobe::sim::{
    BrownoutMode, ClockConfig, FaultEvent, FaultPlan, LinkScope, SimDuration, SimTime,
};

/// A plan under which every link loses each message with probability
/// `loss` for the whole run.
fn whole_run_loss(loss: f64) -> FaultPlan {
    FaultPlan::new(0).with(FaultEvent::LossBurst {
        scope: LinkScope::All,
        at: SimTime::ZERO,
        duration: SimDuration::from_secs(3600),
        loss,
    })
}

/// The full-test Tokyo partition: divergence is detected, the test times
/// out or completes, and the harness still produces a coherent trace.
#[test]
fn partition_produces_divergence_and_a_coherent_trace() {
    let config =
        TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test2).with_tokyo_partition();
    for seed in 0..3 {
        let r = run_one_test(&config, seed);
        assert!(r.partitioned);
        // The cut is a plan event, so the ledger counts what it blocked.
        assert!(r.fault_ledger.net.blocked > 0, "seed {seed}: {:?}", r.fault_ledger.net);
        assert!(r.has(AnomalyKind::ContentDivergence));
        // The Tokyo agent still performed its reads (it could reach its own
        // front door throughout).
        assert!(r.reads_per_agent[1] > 0);
        // The divergence windows for the Tokyo pairs are long (the fault
        // heals after ~11 s) but eventually close thanks to anti-entropy.
        let w = r
            .analysis
            .pair_windows(
                conprobe::core::WindowKind::Content,
                conprobe::core::AgentId(0),
                conprobe::core::AgentId(1),
            )
            .expect("windows computed");
        assert!(w.any_divergence());
    }
}

/// Partitioned Test 1 cannot complete (M6 never reaches Tokyo while the
/// partition holds and the test is shorter than the heal time when
/// max_duration is small) — the coordinator must time out gracefully.
#[test]
fn partitioned_test1_times_out_gracefully() {
    let mut config =
        TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test1).with_tokyo_partition();
    config.max_duration = conprobe::sim::SimDuration::from_secs(6); // < heal time
    let r = run_one_test(&config, 1);
    assert!(!r.completed, "completion requires Tokyo to see M6");
    // The trace still contains every agent's log.
    assert_eq!(r.reads_per_agent.len(), 3);
    assert!(r.reads_per_agent.iter().all(|n| *n > 0));
}

/// Extreme clock offsets and drift do not break the methodology: the
/// Cristian-style sync absorbs the offset, and anomaly detection (which
/// never compares across agents' raw clocks) is unaffected.
#[test]
fn hostile_clocks_do_not_create_false_anomalies() {
    let mut config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test1);
    config.agent_clocks = ClockConfig {
        max_initial_offset_nanos: 60_000_000_000, // ±60 s
        max_drift_ppm: 1_000.0,                   // ±1000 ppm (86 s/day)
    };
    for seed in 0..4 {
        let r = run_one_test(&config, seed);
        assert!(r.completed, "seed {seed}");
        assert!(
            r.analysis.is_clean(),
            "hostile clocks must not fabricate anomalies on a linearizable \
             service: {:?}",
            r.analysis.observations.first()
        );
    }
}

/// Under extreme drift the claimed half-RTT uncertainty is no longer a
/// bound by the end of a long test — the estimate decays, which is exactly
/// why the paper re-syncs before every test.
#[test]
fn drift_decays_the_clock_estimate() {
    let mut config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test2);
    config.agent_clocks = ClockConfig { max_initial_offset_nanos: 0, max_drift_ppm: 0.0 };
    let perfect = run_one_test(&config, 2);
    config.agent_clocks =
        ClockConfig { max_initial_offset_nanos: 1_000_000_000, max_drift_ppm: 2_000.0 };
    let drifty = run_one_test(&config, 2);
    let perfect_err: i64 = perfect.clock_error_nanos.iter().sum();
    let drifty_err: i64 = drifty.clock_error_nanos.iter().sum();
    assert!(
        drifty_err > perfect_err,
        "2000 ppm drift should add measurable estimate error \
         ({perfect_err} vs {drifty_err})"
    );
}

/// The whole pipeline survives a lossy WAN: clock probes are re-sent,
/// agent requests are retransmitted (replicas deduplicate by post id),
/// anti-entropy repairs lost replication pushes, and log collection retries
/// until it has every agent's data.
#[test]
fn lossy_network_is_survivable() {
    for service in [ServiceKind::Blogger, ServiceKind::GooglePlus] {
        let mut config = TestConfig::paper(service, TestKind::Test1);
        config.fault_plan = whole_run_loss(0.03); // 3 % of all messages vanish
        let mut completed = 0;
        for seed in 0..4 {
            let r = run_one_test(&config, seed);
            // Even a timed-out run must still produce a full trace.
            assert_eq!(r.reads_per_agent.len(), 3, "seed {seed}");
            assert!(r.writes_total >= 1, "seed {seed}: some writes must land");
            assert!(r.fault_ledger.net.dropped > 0, "seed {seed}: the drops are on the ledger");
            if r.completed {
                completed += 1;
                assert_eq!(r.writes_total, 6, "completed runs saw all of M1..M6");
            }
        }
        assert!(completed >= 3, "{service}: most lossy runs should still complete");
    }
}

/// Under loss, Blogger must stay anomaly-free: retransmissions and
/// duplicate acknowledgements must not fabricate events or reorderings.
#[test]
fn loss_does_not_fabricate_anomalies_on_a_linearizable_service() {
    let mut config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test2);
    config.fault_plan = whole_run_loss(0.05);
    for seed in 10..14 {
        let r = run_one_test(&config, seed);
        assert!(
            r.analysis.is_clean(),
            "seed {seed}: loss fabricated {:?}",
            r.analysis.observations.first()
        );
    }
}

/// Crash-fault injection: crashing one Google+ replica mid-test wipes its
/// volatile state. Agents of that DC observe massive monotonic-reads
/// violations (everything they had seen disappears), and anti-entropy
/// restores the state after recovery — a failure mode the black-box
/// methodology detects without any knowledge of the crash.
#[test]
fn replica_crash_is_visible_as_monotonic_reads_violations() {
    let mut config = TestConfig::paper(ServiceKind::GooglePlus, TestKind::Test2);
    config.fault_plan.push(FaultEvent::CrashCycle {
        target: 0, // DC-West, serving Oregon and Tokyo
        at: SimTime::from_secs(8),
        down_for: SimDuration::from_secs(4),
        up_for: SimDuration::ZERO,
        cycles: 1,
    });
    let mut mr_hits = 0;
    for seed in 0..3 {
        let r = run_one_test(&config, seed);
        if r.has(AnomalyKind::MonotonicReads) {
            mr_hits += 1;
        }
        // The run still concludes and produces full logs.
        assert_eq!(r.reads_per_agent.len(), 3);
    }
    assert!(
        mr_hits >= 2,
        "state loss at the serving replica must surface as MR violations \
         ({mr_hits}/3 tests)"
    );
}

/// A crash of an unused replica (FB Group's idle Tokyo replica) is
/// invisible to the black-box methodology — faults only matter when they
/// intersect the serving path.
#[test]
fn crash_of_an_idle_replica_is_invisible() {
    let mut config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test2);
    config.fault_plan.push(FaultEvent::CrashCycle {
        target: 1, // the idle Tokyo replica
        at: SimTime::from_secs(8),
        down_for: SimDuration::from_secs(4),
        up_for: SimDuration::ZERO,
        cycles: 1,
    });
    let r = run_one_test(&config, 5);
    assert!(r.completed);
    assert!(
        !r.has(AnomalyKind::ContentDivergence) && !r.has(AnomalyKind::MonotonicReads),
        "an idle replica's crash must not affect observations"
    );
}

/// A front door in a throttle storm rejects every client request, and the
/// agents' backoff keeps the test progressing: retried writes keep Test 1's
/// staggered chain alive.
#[test]
fn a_throttling_front_door_is_survivable() {
    // Blogger's one replica serves every agent, so all three meet the storm.
    let mut config = TestConfig::paper(ServiceKind::Blogger, TestKind::Test1);
    config.fault_plan = FaultPlan::new(0).with(FaultEvent::Brownout {
        target: 0,
        at: SimTime::from_secs(3),
        duration: SimDuration::from_secs(4),
        mode: BrownoutMode::ThrottleStorm,
    });
    let r = run_one_test(&config, 2);
    assert!(r.completed, "backoff must keep the test progressing");
    assert_eq!(r.writes_total, 6, "all writes eventually accepted");
    assert!(
        r.analysis.is_clean(),
        "throttling must not fabricate anomalies: {:?}",
        r.analysis.observations.first()
    );
    for (i, rpc) in r.fault_ledger.agent_rpc.iter().enumerate() {
        assert!(rpc.throttled > 0, "agent {i} met the storm: {rpc:?}");
    }
}

/// A link flap, a loss burst, and a crash/restart cycle composed in one
/// declarative plan. Timings sit inside Test 2's measured phase (which
/// opens ~2.5 s into the run and lasts ~36 s for FB Group).
fn combined_plan(seed: u64) -> FaultPlan {
    FaultPlan::new(seed)
        .with(FaultEvent::LossBurst {
            scope: LinkScope::All,
            at: SimTime::from_secs(5),
            duration: SimDuration::from_secs(8),
            loss: 0.15,
        })
        .with(FaultEvent::LinkFlap {
            // Ireland↔Virginia carries the Ireland agent's heartbeats and
            // its service traffic (FB Group's replicas are US-side), so
            // the flap demonstrably blocks messages.
            scope: LinkScope::Between(Region::Ireland, Region::Virginia),
            at: SimTime::from_secs(6),
            down_for: SimDuration::from_secs(2),
            up_for: SimDuration::from_secs(2),
            flaps: 2,
        })
        .with(FaultEvent::CrashCycle {
            target: 0,
            at: SimTime::from_secs(12),
            down_for: SimDuration::from_secs(3),
            up_for: SimDuration::from_secs(2),
            cycles: 2,
        })
}

/// The headline property of the fault engine: a plan composing a link
/// flap, a loss burst, and a crash/restart cycle executes against a full
/// test, every interference is accounted in the ledger, and replaying the
/// same world seed and plan reproduces the run byte for byte — trace,
/// anomaly verdicts, ledger, and agent health all identical.
#[test]
fn combined_fault_plan_is_deterministic_and_accounted() {
    let mut config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test2);
    config.fault_plan = combined_plan(99);

    let a = run_one_test(&config, 11);
    let b = run_one_test(&config, 11);

    // The plan ran: network interference and all four crash/recover
    // transitions (2 cycles) are on the ledger.
    assert!(a.fault_ledger.net.dropped > 0, "loss burst must drop messages");
    assert!(a.fault_ledger.net.blocked > 0, "link flap must block messages");
    assert_eq!(a.fault_ledger.actions.len(), 4, "crash,recover × 2 cycles");
    assert_eq!(a.fault_ledger.skipped_actions, 0);
    assert!(a.fault_ledger.any_interference());

    // The run still concludes with a full-size trace.
    assert_eq!(a.reads_per_agent.len(), 3);
    assert!(a.writes_total >= 1);

    // Byte-identical replay.
    assert_eq!(a.trace, b.trace);
    assert_eq!(a.duration_secs, b.duration_secs);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.salvaged, b.salvaged);
    assert_eq!(a.fault_ledger.net, b.fault_ledger.net);
    assert_eq!(a.fault_ledger.actions, b.fault_ledger.actions);
    assert_eq!(a.fault_ledger.agent_rpc, b.fault_ledger.agent_rpc);
    for kind in AnomalyKind::ALL {
        assert_eq!(a.analysis.count(kind), b.analysis.count(kind), "{kind}");
    }

    // A different fault seed reshuffles the probabilistic interference
    // without touching the deterministic service transitions.
    config.fault_plan = combined_plan(100);
    let c = run_one_test(&config, 11);
    assert_eq!(c.fault_ledger.actions.len(), 4);
    assert_ne!(
        a.fault_ledger.net, c.fault_ledger.net,
        "a different plan seed should redraw the loss coin flips"
    );
}

/// Graceful coordinator degradation: an agent whose region is cut off
/// mid-test (covering its service path *and* its heartbeat path) is
/// quarantined after the bounded Stop-retry budget, and the coordinator
/// salvages a coherent partial trace from the surviving agents instead of
/// hanging.
#[test]
fn severed_agent_is_quarantined_and_the_trace_salvaged() {
    let mut config = TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test1);
    // Cut every Tokyo link shortly after the synchronized start and keep
    // it down past the end of the run. Clock sync (~2.5 s) and the start
    // margin complete on a healthy network, so the agent is mid-test —
    // beaconing and writing — when the link dies.
    config.start_margin = SimDuration::from_secs(2);
    config.fault_plan = FaultPlan::new(1).with(FaultEvent::LinkFlap {
        scope: LinkScope::Touching(Region::Tokyo),
        at: SimTime::from_secs(5),
        down_for: SimDuration::from_secs(300),
        up_for: SimDuration::ZERO,
        flaps: 1,
    });
    config.max_duration = SimDuration::from_secs(20);

    let r = run_one_test(&config, 4);

    assert!(!r.completed, "a severed agent must not count as a clean run");
    assert!(r.salvaged, "the partial trace must be flagged as salvaged");
    assert_eq!(r.agent_health.len(), 3);
    let tokyo = &r.agent_health[1];
    assert!(tokyo.quarantined, "the unreachable agent is quarantined");
    assert!(!tokyo.log_collected);
    assert!(tokyo.heartbeats > 0, "it was alive before the cut");
    for i in [0usize, 2] {
        assert!(r.agent_health[i].log_collected, "agent {i} salvaged");
        assert!(!r.agent_health[i].quarantined);
        assert!(r.reads_per_agent[i] > 0, "agent {i} contributed reads");
    }
    assert_eq!(r.reads_per_agent[1], 0, "no log, no reads in the trace");
    assert!(r.fault_ledger.net.blocked > 0, "the cut is on the ledger");

    // Degradation is as deterministic as a healthy run.
    let r2 = run_one_test(&config, 4);
    assert_eq!(r.trace, r2.trace);
    assert_eq!(r.salvaged, r2.salvaged);
    assert_eq!(
        r.agent_health.iter().map(|h| h.quarantined).collect::<Vec<_>>(),
        r2.agent_health.iter().map(|h| h.quarantined).collect::<Vec<_>>()
    );
}
