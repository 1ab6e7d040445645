//! `conprobe chaos` — the simulated and the live (`--wire`) fault-level
//! sweeps — and the fault plans every fault-injecting command executes.

use super::args::Args;
use super::study::{JournalArgs, TestSpec};
use super::{write_metrics, CliError};
use conprobe_harness::journal;
use conprobe_harness::runner::{run_one_test, TestConfig, TestResult};
use conprobe_obs::{EventLog, Severity};
use conprobe_services::catalog::topology;
use conprobe_services::ServiceKind;
use conprobe_sim::net::Region;
use conprobe_sim::{
    BrownoutMode, FaultEvent, FaultPlan, LinkScope, ObsSink, SimDuration, SimRng, SimTime,
};
use conprobe_wire::{
    drive_service_actions, run_probe, ChaosConfig, ChaosLedger, ChaosProxy, ChaosTarget,
    InjectProfile, ProbeConfig, ServeConfig, WireServer,
};
use std::fmt::Write as _;
use std::time::Duration;

/// One fault class of the level sweep and how it scales with the level.
#[derive(Clone, Copy)]
enum FaultClass {
    /// A loss burst on the scoped links: loss probability per level
    /// (the level counted up to 10).
    Loss(LinkScope, f64),
    /// A latency spike on the scoped links: extra base milliseconds per
    /// level, with half of one step as jitter.
    Degraded(LinkScope, u64),
    /// A link flap, down and up for the row's duration each: one flap,
    /// plus this many for every level above the row's minimum.
    Flap(LinkScope, u32),
    /// One crash/restart cycle of this replica, down for the row's
    /// duration (skipped — and accounted — where the topology lacks it).
    Crash(usize),
    /// A throttle-storm brownout of this replica's front door.
    Brownout(usize),
}

/// One row of a sweep timescale: minimum level, start and duration in
/// milliseconds on the plan clock, fault class.
type FaultRow = (u32, u64, u64, FaultClass);

/// Simulated time. Every window starts ≥ 4 s into the run so clock sync
/// and the synchronized start happen on a healthy network — the faults
/// hit the measured phase (which opens ~2.5 s in), not the bootstrap.
const SIM_TIMESCALE: [FaultRow; 5] = [
    (1, 4_000, 10_000, FaultClass::Loss(LinkScope::All, 0.05)),
    (2, 5_000, 8_000, FaultClass::Degraded(LinkScope::Touching(Region::Tokyo), 40)),
    (3, 6_000, 2_000, FaultClass::Flap(LinkScope::Between(Region::Tokyo, Region::Ireland), 1)),
    (3, 7_000, 4_000, FaultClass::Crash(1)),
    (4, 8_000, 5_000, FaultClass::Brownout(0)),
];

/// Wall-clock time one loopback probe instance actually spans. The plan
/// clock starts when the interposer (or server) comes up, so every window
/// sits a few hundred milliseconds in — past the probe's connect and
/// clock-sync phase and inside its measured phase.
const WIRE_TIMESCALE: [FaultRow; 5] = [
    (1, 250, 900, FaultClass::Degraded(LinkScope::All, 4)),
    (2, 400, 250, FaultClass::Loss(LinkScope::All, 0.02)),
    (3, 700, 150, FaultClass::Flap(LinkScope::Touching(Region::Tokyo), 0)),
    (3, 500, 300, FaultClass::Crash(1)),
    (4, 900, 400, FaultClass::Brownout(0)),
];

/// Level 0 is fault-free; each level above it switches on the rows whose
/// minimum it reaches, on top of the earlier ones, and turns their
/// magnitudes up.
fn sweep_plan(rows: &[FaultRow], level: u32, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    for &(min_level, at_ms, duration_ms, class) in rows.iter().filter(|row| level >= row.0) {
        let at = SimTime::from_millis(at_ms);
        let duration = SimDuration::from_millis(duration_ms);
        plan.push(match class {
            FaultClass::Loss(scope, per_level) => FaultEvent::LossBurst {
                scope,
                at,
                duration,
                loss: f64::from(level.min(10)) * per_level,
            },
            FaultClass::Degraded(scope, step_ms) => FaultEvent::DegradedLink {
                scope,
                at,
                duration,
                extra_base: SimDuration::from_millis(step_ms).saturating_mul(u64::from(level)),
                extra_jitter: SimDuration::from_millis(step_ms / 2),
            },
            FaultClass::Flap(scope, growth) => FaultEvent::LinkFlap {
                scope,
                at,
                down_for: duration,
                up_for: duration,
                flaps: 1 + growth * (level - min_level),
            },
            FaultClass::Crash(target) => FaultEvent::CrashCycle {
                target,
                at,
                down_for: duration,
                up_for: SimDuration::ZERO,
                cycles: 1,
            },
            FaultClass::Brownout(target) => {
                FaultEvent::Brownout { target, at, duration, mode: BrownoutMode::ThrottleStorm }
            }
        });
    }
    plan
}

/// The fault plan for one intensity level of the simulated chaos sweep.
///
/// * level ≥ 1 — a global loss burst (`5·level` %, capped at 50 %).
/// * level ≥ 2 — a latency spike on every link touching Tokyo.
/// * level ≥ 3 — a Tokyo↔Ireland link flap plus one crash/restart cycle
///   of replica 1 (skipped — and accounted — on single-replica
///   topologies).
/// * level ≥ 4 — a throttle-storm brownout of replica 0's front door.
pub fn chaos_plan(level: u32, seed: u64) -> FaultPlan {
    sweep_plan(&SIM_TIMESCALE, level, seed)
}

/// The live-path counterpart of [`chaos_plan`] (`chaos --wire`,
/// `chaosd`, `serve --fault-level`): the same fault classes compressed
/// onto the wall-clock timescale of a loopback probe.
///
/// * level ≥ 1 — a latency spike on every link (base grows with level).
/// * level ≥ 2 — a short global loss burst (frames blackholed; the
///   probes' reconnect budget rides it out).
/// * level ≥ 3 — a Tokyo link flap plus one crash/restart cycle of
///   replica 1 (the fenced `cpj1` rejoin path, against live sockets).
/// * level ≥ 4 — a throttle-storm brownout of replica 0.
pub fn wire_chaos_plan(level: u32, seed: u64) -> FaultPlan {
    sweep_plan(&WIRE_TIMESCALE, level, seed)
}

/// Interposer byte-level injections for one wire sweep level: off at
/// level 0 (pure plan replay), then gently escalating per-frame
/// probabilities — a probe instance moves hundreds of frames, so even a
/// few permil forces several corrupted/reset/trickled frames while
/// staying well inside the clients' reconnect budget.
fn wire_inject_profile(level: u32) -> InjectProfile {
    InjectProfile {
        corrupt_prob: f64::from(level) * 0.002,
        reset_prob: f64::from(level) * 0.001,
        trickle_prob: f64::from(level) * 0.004,
        ..InjectProfile::default()
    }
}

/// The fault plan a command executes: a measured incident timeline when
/// `--outage-trace` is given, the `synthetic` escalation at `level`
/// otherwise.
pub(super) fn fault_plan(
    outage_trace: &Option<String>,
    synthetic: fn(u32, u64) -> FaultPlan,
    level: u32,
    seed: u64,
) -> Result<FaultPlan, CliError> {
    let Some(path) = outage_trace else { return Ok(synthetic(level, seed)) };
    let text = std::fs::read_to_string(path).map_err(|e| CliError(format!("read {path}: {e}")))?;
    FaultPlan::from_outage_trace(&text).map_err(|e| CliError(format!("outage trace {path}: {e}")))
}

/// What the interposer did to the traffic, as `chaosd` and the wire
/// sweep both report it.
pub(super) fn ledger_counts(ledger: &ChaosLedger) -> String {
    let ChaosLedger { forwarded, net, corrupted, resets, trickled } = ledger;
    format!(
        "{forwarded} forwarded, {} blocked, {} dropped, {} delayed, \
         {corrupted} corrupted, {resets} reset, {trickled} trickled",
        net.blocked, net.dropped, net.delayed
    )
}

/// One interposer target in front of each upstream listener of `service`,
/// judged on the link from the door's region to its replica's region (the
/// catalog's routing): the region pair the simulator judges for an agent.
pub(super) fn interpose_on(
    service: ServiceKind,
    upstream: &[(Region, std::net::SocketAddr)],
) -> Vec<ChaosTarget> {
    let topo = topology(service);
    upstream
        .iter()
        .map(|&(region, addr)| {
            let replica_region = topo.replicas[topo.affinity.replica_for(region)].0;
            ChaosTarget { region, replica_region, addr }
        })
        .collect()
}

/// `conprobe chaos`: sweep fault-plan intensity levels against one
/// service and report how the measurement degrades.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosArgs {
    /// What to run; the seed feeds both the world and the fault plan.
    pub spec: TestSpec,
    /// Highest intensity level to run (sweeps 0..=levels).
    pub levels: u32,
    /// Run each level against a real loopback TCP arm — server, chaos
    /// interposer, fault-driven replica crash/rejoin, live probe —
    /// instead of the simulator.
    pub wire: bool,
    /// Replay a measured incident timeline (outage-trace JSON) instead
    /// of the synthetic escalation.
    pub outage_trace: Option<String>,
    /// Dump the metrics registry as JSON to this path (simulated sweep
    /// only).
    pub metrics_out: Option<String>,
    /// Where finished levels are journaled.
    pub journal: JournalArgs,
}

impl ChaosArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        let parsed = ChaosArgs {
            spec: TestSpec::parse(a)?,
            levels: a.num("--levels")?.unwrap_or(3),
            wire: a.on("--wire"),
            outage_trace: a.text("--outage-trace"),
            metrics_out: a.text("--metrics"),
            journal: JournalArgs::parse(a)?,
        };
        if parsed.wire && parsed.metrics_out.is_some() {
            return Err(CliError(
                "chaos --wire has no metrics registry to dump; drop --metrics".into(),
            ));
        }
        Ok(parsed)
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        if self.wire {
            self.wire_sweep(out)
        } else {
            self.sim_sweep(out)
        }
    }

    /// The simulated sweep: one deterministic in-sim test per intensity
    /// level, each under [`chaos_plan`] — or, with `--outage-trace`, a
    /// single replay of the trace's compiled timeline.
    fn sim_sweep(&self, out: &mut String) -> Result<(), CliError> {
        let TestSpec { service, kind, seed } = self.spec;
        let _ = writeln!(out, "{service} {kind} chaos sweep (seed {seed}):");
        // A replayed trace is one fixed timeline, not an escalation — the
        // sweep collapses to a single level.
        let levels = match &self.outage_trace {
            Some(path) => {
                if self.levels > 0 {
                    eprintln!("outage-trace replay of {path}: a single level, --levels ignored");
                }
                0
            }
            None => self.levels,
        };
        // Chaos always captures service-lifecycle events (crashes,
        // recoveries, state transfers, brownouts) and narrates them on
        // stderr: stdout must stay byte-identical between a fresh
        // sweep and a journal-resumed one, and spliced levels re-run
        // nothing so they have no events to narrate.
        let sink = ObsSink::with_log(
            EventLog::new(4096).with_min_severity(Severity::Info).with_target_prefix("services"),
        );
        let journaled = self.journal.open()?;
        let cell = format!("chaos/{}", journal::cell_id(service, kind));
        let levels_done = journaled.units(&cell, "level");
        for level in 0..=levels {
            let mut config = TestConfig::paper(service, kind);
            config.fault_plan = fault_plan(&self.outage_trace, chaos_plan, level, seed)?;
            config.obs = Some(sink.clone());
            let r = levels_done.splice_or_run(level, seed, &config, || {
                let r = run_one_test(&config, seed);
                for e in sink.log.drain() {
                    eprintln!("  level {level}: {}", e.render());
                }
                Ok(r)
            })?;
            let ledger = &r.fault_ledger;
            let rpc: u64 = ledger.agent_rpc.iter().map(|s| s.retransmits).sum();
            let _ = writeln!(
                out,
                "  level {level}: {} in {:>5.1}s; {} anomaly observation(s); \
                 net {}/{}/{} blocked/dropped/delayed; {} service action(s) \
                 ({} skipped); {rpc} retransmit(s)",
                if r.salvaged {
                    "SALVAGED"
                } else if r.completed {
                    "completed"
                } else {
                    "TIMED OUT"
                },
                r.duration_secs,
                r.analysis.observations.len(),
                ledger.net.blocked,
                ledger.net.dropped,
                ledger.net.delayed,
                ledger.actions.len(),
                ledger.skipped_actions,
            );
        }
        write_metrics(out, &self.metrics_out, || sink.metrics.to_json().to_pretty())
    }

    /// The live sweep (`chaos --wire`): for each level a real loopback
    /// [`WireServer`] hosts the service, a [`ChaosProxy`] interposes on
    /// every agent↔replica link executing the level's plan plus seeded
    /// byte-level injections, a fault driver crashes/rejoins replicas on
    /// the same timeline, and the ordinary live probe runs through the
    /// proxies. Both sweeps share the fault vocabulary and the
    /// unmodified `analyze()`, so sim-vs-wire and weak-vs-quorum arms
    /// compare level by level.
    fn wire_sweep(&self, out: &mut String) -> Result<(), CliError> {
        let TestSpec { service, kind, seed } = self.spec;
        let _ = writeln!(out, "{service} {kind} wire chaos sweep (seed {seed}):");
        let journaled = self.journal.open()?;
        let cell = journal::wire_chaos_cell_id(service, kind);
        let levels_done = journaled.units(&cell, "level");
        let root = SimRng::new(seed);
        // The analysis config a spliced level is re-checked under; the
        // live arm serves one listener per agent region.
        let mut analysis_config = TestConfig::paper(service, kind);
        analysis_config.agent_regions = Region::AGENTS.to_vec();
        for level in 0..=self.levels {
            // With an outage trace the network/service timeline is the
            // measured incident at every level; `--levels` still scales the
            // interposer's byte-level injections on top of it.
            let plan = fault_plan(&self.outage_trace, wire_chaos_plan, level, seed)?;
            let inst_seed = root.split_indexed("wire-chaos", u64::from(level)).seed();
            let run = || {
                let (r, ledger) = run_wire_chaos_level(&self.spec, level, inst_seed, &plan)?;
                // Interposer tallies are wall-timing-dependent, so they
                // narrate on stderr; stdout stays resume-stable.
                eprintln!("  level {level}: interposer {}", ledger_counts(&ledger));
                Ok(r)
            };
            let r = levels_done.splice_or_run(level, inst_seed, &analysis_config, run)?;
            let _ = writeln!(
                out,
                "  level {level}: {}; {} write(s); {} anomaly observation(s)",
                if r.salvaged {
                    "SALVAGED"
                } else if r.completed {
                    "completed"
                } else {
                    "INCOMPLETE"
                },
                r.writes_total,
                r.analysis.observations.len(),
            );
        }
        Ok(())
    }
}

/// One wire sweep level: a loopback server, the chaos interposer in
/// front of every listener, the fault driver replaying the plan's
/// service actions against the live replicas, and a probe instance
/// pointed at the proxies. The result's `fault_ledger.net` is the
/// interposer's, so the journal records what the plan did to the wire.
fn run_wire_chaos_level(
    spec: &TestSpec,
    level: u32,
    inst_seed: u64,
    plan: &FaultPlan,
) -> Result<(TestResult, ChaosLedger), CliError> {
    let server = WireServer::start(&ServeConfig::loopback(spec.service, spec.seed))
        .map_err(|e| CliError(format!("wire chaos serve: {e}")))?;
    let chaos_config = ChaosConfig {
        seed: spec.seed ^ (u64::from(level) << 32),
        plan: plan.clone(),
        inject: wire_inject_profile(level),
        base_port: 0,
    };
    let proxy = ChaosProxy::start(&chaos_config, &interpose_on(spec.service, server.addrs()))
        .map_err(|e| CliError(format!("wire chaos interposer: {e}")))?;
    let mut pc = ProbeConfig::loopback(spec.service, spec.kind, proxy.addrs().to_vec(), inst_seed);
    // A blackholed response stalls a read until the socket times out; a
    // short timeout turns each stall into a quick reconnect-and-resend
    // instead of a multi-second hang.
    pc.timeout = Duration::from_millis(1000);
    let probe_res = std::thread::scope(|scope| {
        let driver = scope.spawn(|| {
            drive_service_actions(&server, plan, |line| eprintln!("  level {level}: {line}"))
        });
        let res = run_probe(&pc);
        server.request_stop();
        let _ = driver.join();
        res
    });
    proxy.request_stop();
    let ledger = proxy.join();
    let _ = server.join();
    let mut r = probe_res.map_err(|e| CliError(format!("wire chaos probe: {e}")))?;
    r.fault_ledger.net = ledger.net;
    Ok((r, ledger))
}

#[cfg(test)]
mod tests {
    use super::*;
    use conprobe_json::frame::fnv64;

    /// `fnv64` of the `{:?}` rendering of the plans for levels 0..=6,
    /// captured from the two hand-written builders this table replaced.
    #[test]
    fn sweep_plans_are_pinned_event_for_event() {
        type Builder = fn(u32, u64) -> FaultPlan;
        let pinned: [(Builder, u64, [u64; 7]); 4] = [
            (
                chaos_plan,
                1,
                [
                    0xb3b8_073e_a467_827f,
                    0x9269_ddf3_8f2e_333c,
                    0x66f8_2621_a39d_a836,
                    0xfe99_bbd4_2b1c_702c,
                    0xc831_5bb5_b4de_fd97,
                    0x4b76_9ebb_7ee7_2fe2,
                    0x57a8_4de1_098f_e299,
                ],
            ),
            (
                chaos_plan,
                42,
                [
                    0xf506_4470_35c2_0c26,
                    0x9ae9_b14c_1f1a_3bab,
                    0x5cf4_491a_f5b8_327d,
                    0x11f2_b593_b63d_5aa3,
                    0x8414_c2de_1a27_54ae,
                    0xd26b_2c30_639b_9829,
                    0xa98d_82e2_541d_d3a4,
                ],
            ),
            (
                wire_chaos_plan,
                1,
                [
                    0xb3b8_073e_a467_827f,
                    0xd36a_8eba_4ee6_3a91,
                    0xe82f_11b9_1240_8925,
                    0x2db9_cf26_02d0_ed04,
                    0x9e34_b63b_185e_7b4e,
                    0x2645_d1b1_287b_d326,
                    0x80f1_72e5_e138_736a,
                ],
            ),
            (
                wire_chaos_plan,
                42,
                [
                    0xf506_4470_35c2_0c26,
                    0xbe6e_f85e_4abf_317a,
                    0x69b7_ca93_3bd5_2f36,
                    0x8da2_9aaa_e91e_617d,
                    0x04e8_a4bd_78d7_0931,
                    0x03da_8aff_3cb4_f04b,
                    0xd2ae_ee7f_c20f_195d,
                ],
            ),
        ];
        for (plan, seed, hashes) in pinned {
            for (level, hash) in (0u32..).zip(hashes) {
                let rendering = format!("{:?}", plan(level, seed));
                assert_eq!(fnv64(rendering.as_bytes()), hash, "level {level}: {rendering}");
            }
        }
    }

    #[test]
    fn wire_injections_escalate_from_a_silent_level_zero() {
        assert_eq!(wire_inject_profile(0).corrupt_prob, 0.0);
        let inject = wire_inject_profile(3);
        assert!(inject.corrupt_prob > wire_inject_profile(1).corrupt_prob);
        assert!(inject.reset_prob > 0.0 && inject.trickle_prob > 0.0);
    }
}
