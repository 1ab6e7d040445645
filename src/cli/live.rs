//! The live wire-plane commands — `serve`, `chaosd`, `probe`, `load`,
//! `dispatch`, `worker` — and the ready-file they hand addresses over in.

use super::args::{parse_endpoint, parse_service, region_token, Args};
use super::chaos::{fault_plan, interpose_on, ledger_counts, wire_chaos_plan};
use super::study::{campaign_tests, progress_gauge, render_campaign_report, JournalArgs, TestSpec};
use super::{write_file, write_metrics, CliError};
use conprobe_core::trace::OpRecord;
use conprobe_core::{AnomalyKind, CheckerConfig, StreamingAnalyzer, TestAnalysis};
use conprobe_harness::journal;
use conprobe_harness::runner::{checker_config_for, TestConfig, TestResult};
use conprobe_obs::MetricsRegistry;
use conprobe_services::live::StaleWindow;
use conprobe_services::shard::MAX_SHARDS;
use conprobe_services::{ServiceKind, ShardRing};
use conprobe_sim::net::Region;
use conprobe_sim::{FaultPlan, SimDuration, SimRng};
use conprobe_store::PostId;
use conprobe_wire::{
    drive_service_actions, run_dispatch, run_load, run_probe, run_probe_with_live, run_worker,
    ChaosConfig, ChaosProxy, DispatchConfig, InjectProfile, LiveEvent, LoadConfig, ProbeConfig,
    ReconnectPolicy, ServeConfig, WireServer, WorkerConfig,
};
use std::collections::VecDeque;
use std::fmt::Write as _;
use std::net::SocketAddr;
use std::time::{Duration, Instant};

/// The `key=value` file `serve`, `chaosd` and `dispatch` write once
/// their listeners are bound, and `chaosd`, `probe`, `load` and `worker`
/// read addresses back from.
#[derive(Debug, Default, PartialEq)]
pub(super) struct ReadyFile {
    /// `region=host:port` lines, one per listener.
    pub endpoints: Vec<(Region, SocketAddr)>,
    /// The `shards=N` line of a `serve` (absent from older files).
    pub shards: Option<usize>,
    /// The `service=NAME` line of a `serve`: chaosd routes doors by it.
    pub service: Option<ServiceKind>,
    /// The `dispatch=host:port` line of a coordinator.
    pub dispatch: Option<SocketAddr>,
}

impl ReadyFile {
    pub fn parse(text: &str) -> Result<Self, CliError> {
        let mut ready = ReadyFile::default();
        for line in text.lines().map(str::trim).filter(|l| !l.is_empty()) {
            if let Some(n) = line.strip_prefix("shards=") {
                let n = n.parse().map_err(|e| CliError(format!("bad shards line: {e}")))?;
                ready.shards = Some(bounded_shards("bad shards line", n)?);
            } else if let Some(name) = line.strip_prefix("service=") {
                ready.service = Some(parse_service(name)?);
            } else if let Some(a) = line.strip_prefix("dispatch=") {
                let addr = a.parse().map_err(|e| CliError(format!("dispatch address '{a}': {e}")));
                ready.dispatch = Some(addr?);
            } else {
                ready.endpoints.push(parse_endpoint(line)?);
            }
        }
        Ok(ready)
    }

    pub fn render(&self) -> String {
        let mut lines = String::new();
        for (region, addr) in &self.endpoints {
            let _ = writeln!(lines, "{}={addr}", region_token(*region));
        }
        if let Some(n) = self.shards {
            let _ = writeln!(lines, "shards={n}");
        }
        if let Some(service) = self.service {
            let _ = writeln!(lines, "service={}", journal::service_token(service));
        }
        if let Some(addr) = self.dispatch {
            let _ = writeln!(lines, "dispatch={addr}");
        }
        lines
    }

    pub fn read(path: &str) -> Result<Self, CliError> {
        let text =
            std::fs::read_to_string(path).map_err(|e| CliError(format!("read {path}: {e}")))?;
        Self::parse(&text).map_err(|e| CliError(format!("{path}: {e}")))
    }

    /// Reads the ready-file of a `serve` (or of a `chaosd` standing in
    /// for one), which lists at least one endpoint.
    pub fn read_serve(path: &str) -> Result<Self, CliError> {
        let ready = Self::read(path)?;
        if ready.endpoints.is_empty() {
            return Err(CliError(format!("{path} lists no endpoints")));
        }
        Ok(ready)
    }
}

/// A shard count as it enters, refused past [`MAX_SHARDS`] before a ring
/// or a cluster allocates for it.
fn bounded_shards(what: &str, n: usize) -> Result<usize, CliError> {
    let refusal = || CliError(format!("{what}: {n} shards is more than {MAX_SHARDS}"));
    (n <= MAX_SHARDS).then_some(n).ok_or_else(refusal)
}

/// The flags `serve` and `chaosd` share: what their listeners bind and
/// announce, the wire-timescale fault plan they execute, and when they
/// drain.
#[derive(Debug, Clone, PartialEq)]
pub struct HostArgs {
    /// Seed: `serve`'s replication-delay and latency-shaping streams,
    /// `chaosd`'s injection streams.
    pub seed: u64,
    /// Base TCP port (listener `i` binds `base+i`); 0 = ephemeral.
    pub base_port: u16,
    /// Wire-timescale fault-plan intensity (0 = no faults).
    pub fault_level: u32,
    /// Seed for the fault plan (defaults to `seed`).
    pub fault_seed: Option<u64>,
    /// Replay a measured incident timeline (outage-trace JSON) instead
    /// of the synthetic escalation.
    pub outage_trace: Option<String>,
    /// Write `region=addr` lines here once the listeners are bound.
    pub ready_file: Option<String>,
    /// Graceful-drain trigger file.
    pub stop_file: Option<String>,
    /// Safety cap: drain after this many seconds.
    pub max_secs: Option<u64>,
}

impl HostArgs {
    fn parse(a: &Args) -> Result<Self, CliError> {
        Ok(HostArgs {
            seed: a.seed()?,
            base_port: a.num("--port")?.unwrap_or(0),
            fault_level: a.num("--fault-level")?.unwrap_or(0),
            fault_seed: a.num("--fault-seed")?,
            outage_trace: a.text("--outage-trace"),
            ready_file: a.text("--ready-file"),
            stop_file: a.text("--stop-file"),
            max_secs: a.num("--max-secs")?,
        })
    }

    /// The fault plan the host executes: the outage trace, or the wire
    /// escalation at `--fault-level`.
    fn plan(&self) -> Result<FaultPlan, CliError> {
        let seed = self.fault_seed.unwrap_or(self.seed);
        fault_plan(&self.outage_trace, wire_chaos_plan, self.fault_level, seed)
    }

    /// Prints the bound listeners to stderr under `banner` and publishes
    /// them to the `--ready-file`, if one was asked for.
    fn announce(&self, banner: &str, ready: &ReadyFile) -> Result<(), CliError> {
        let lines = ready.render();
        eprint!("{banner} on:\n{lines}");
        if let Some(path) = &self.ready_file {
            write_file(path, &lines)?;
            eprintln!("endpoints written to {path}");
        }
        Ok(())
    }

    /// Blocks until the `--stop-file` appears (the host's loops never
    /// look for it), `stopped` reports a drain trigger of the host's own,
    /// or `--max-secs` have elapsed since `started`.
    pub(super) fn wait_for_drain(&self, started: Instant, stopped: impl Fn() -> bool) {
        let open = |cap: u64| started.elapsed() < Duration::from_secs(cap);
        let stop_file = self.stop_file.as_ref().map(std::path::Path::new);
        let drained = || stopped() || stop_file.is_some_and(|f| f.exists());
        while !drained() && self.max_secs.is_none_or(open) {
            std::thread::sleep(Duration::from_millis(50));
        }
    }
}

/// Applies a command-line override to a library default.
fn set<T>(slot: &mut T, value: Option<T>) {
    if let Some(v) = value {
        *slot = v;
    }
}

/// A latency in milliseconds to three significant figures ("0.0523 ms",
/// "1.20 ms", "340 ms"), or "n/a" when nothing was measured: a quantile
/// within 1/32 of its value keeps its own digits.
pub(super) fn millis_3sf(nanos: Option<u64>) -> String {
    let Some(nanos) = nanos else { return "n/a".into() };
    let ms = nanos as f64 / 1e6;
    let decimals = if nanos == 0 { 0 } else { (2 - ms.log10().floor() as i64).max(0) as usize };
    format!("{ms:.decimals$} ms")
}

/// `conprobe serve`: host a catalog service on real TCP listeners
/// (`cpw1` protocol) until drained by a stop file, a `stop` frame, or
/// `--max-secs`. Every `Option` tuning field overrides
/// [`ServeConfig::loopback`].
#[derive(Debug, Clone, PartialEq)]
pub struct ServeArgs {
    /// Service to host.
    pub service: ServiceKind,
    /// Listeners, fault plan (its crash/recover/brownout timeline is
    /// driven against the hosted replicas) and drain.
    pub host: HostArgs,
    /// Multiplier on paper-WAN artificial latency (0 disables).
    pub latency_scale: Option<f64>,
    /// Seeded staleness window: `(replica index, lag nanos)`.
    pub stale: Option<(usize, u64)>,
    /// Keyspace shards in the hosted cluster.
    pub shards: Option<usize>,
    /// Event-loop worker threads multiplexing the connections.
    pub event_loops: Option<usize>,
    /// Bounded accept backlog: shed with a `busy` frame above this
    /// many live connections (0 = unbounded).
    pub max_conns: Option<usize>,
    /// Slow-client eviction budget in milliseconds (0 = disabled).
    pub stall_budget_ms: Option<u64>,
    /// Dump the server's final metrics registry as JSON to this path.
    pub metrics_out: Option<String>,
}

impl ServeArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        let stale = match (a.num("--stale-replica")?, a.num::<u64>("--stale-lag-ms")?) {
            (Some(replica), lag_ms) => {
                let lag_ms = lag_ms.unwrap_or(3_000);
                let lag_nanos = lag_ms.checked_mul(1_000_000).ok_or_else(|| {
                    CliError(format!("--stale-lag-ms: {lag_ms} ms does not fit in nanoseconds"))
                })?;
                Some((replica, lag_nanos))
            }
            (None, Some(_)) => {
                return Err(CliError(
                    "--stale-lag-ms sets the lag of the --stale-replica window; pass both".into(),
                ))
            }
            (None, None) => None,
        };
        let latency_scale: Option<f64> = a.num("--latency-scale")?;
        if let Some(scale) = latency_scale.filter(|s| !(s.is_finite() && *s >= 0.0)) {
            return Err(CliError(format!("--latency-scale: {scale} is not a finite scale >= 0")));
        }
        Ok(ServeArgs {
            service: a.service()?,
            host: HostArgs::parse(a)?,
            latency_scale,
            stale,
            shards: a.num("--shards")?.map(|n| bounded_shards("--shards", n)).transpose()?,
            event_loops: a.num("--event-loops")?,
            max_conns: a.num("--max-conns")?,
            stall_budget_ms: a.num("--stall-budget-ms")?,
            metrics_out: a.text("--metrics"),
        })
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let (service, seed) = (self.service, self.host.seed);
        let plan = self.host.plan()?;
        if !plan.network_effects().is_empty() {
            eprintln!(
                "note: the plan's {} network effect(s) need the chaosd interposer; \
                 serve executes service actions only",
                plan.network_effects().len()
            );
        }
        let mut config = ServeConfig::loopback(service, seed);
        config.base_port = self.host.base_port;
        config.stale_window =
            self.stale.map(|(replica, lag_nanos)| StaleWindow { replica, lag_nanos });
        set(&mut config.latency_scale, self.latency_scale);
        set(&mut config.shards, self.shards);
        set(&mut config.event_loops, self.event_loops);
        set(&mut config.max_connections, self.max_conns);
        set(&mut config.stall_budget, self.stall_budget_ms.map(Duration::from_millis));
        let server = WireServer::start(&config).map_err(|e| CliError(format!("serve: {e}")))?;
        // Probes read the shard count back to label keyed cells.
        let ready = ReadyFile {
            endpoints: server.addrs().to_vec(),
            shards: Some(server.shard_count()),
            service: Some(service),
            dispatch: None,
        };
        self.host.announce(&format!("serving {service} (seed {seed})"), &ready)?;
        let started = Instant::now();
        std::thread::scope(|scope| {
            // The fault driver replays the plan's crash/recover/
            // brownout timeline against the live replicas while the
            // main thread watches for the drain triggers; a drain
            // makes the driver bail out at its next 20 ms slice.
            if !plan.service_actions().is_empty() {
                scope.spawn(|| {
                    let n =
                        drive_service_actions(&server, &plan, |line| eprintln!("fault: {line}"));
                    eprintln!("fault plan drained: {n} service action(s) executed");
                });
            }
            self.host.wait_for_drain(started, || server.stopping());
            server.request_stop();
        });
        let metrics_json = server.join();
        let _ = writeln!(out, "{service} drained after {:.1}s", started.elapsed().as_secs_f64());
        write_metrics(out, &self.metrics_out, || metrics_json)
    }
}

/// `conprobe chaosd`: interpose deterministic chaos between live probes
/// and a serve's listeners — per-region proxies execute a fault-plan
/// timeline plus seeded byte-level injections against the real TCP
/// streams.
#[derive(Debug, Clone, PartialEq)]
pub struct ChaosdArgs {
    /// The upstream serve's ready-file (`region=host:port` lines).
    pub server_file: String,
    /// Proxy listeners, fault plan (its network effects are executed
    /// per link) and drain; the ready file is a drop-in serve
    /// ready-file (the upstream's `shards=` line rides along).
    pub host: HostArgs,
    /// Per-frame probability of a seeded single-bit corruption.
    pub corrupt: f64,
    /// Per-frame probability of a hard connection reset.
    pub reset: f64,
    /// Per-frame probability of slow-loris trickle delivery.
    pub trickle: f64,
}

impl ChaosdArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        Ok(ChaosdArgs {
            server_file: a.text("--server-file").ok_or_else(|| {
                CliError("chaosd requires --server-file (a serve ready-file)".into())
            })?,
            host: HostArgs::parse(a)?,
            corrupt: a.num("--corrupt")?.unwrap_or(0.0),
            reset: a.num("--reset")?.unwrap_or(0.0),
            trickle: a.num("--trickle")?.unwrap_or(0.0),
        })
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let seed = self.host.seed;
        let upstream = ReadyFile::read_serve(&self.server_file)?;
        let service = upstream.service.ok_or_else(|| {
            CliError(format!("{} has no service= line (serve writes one)", self.server_file))
        })?;
        let plan = self.host.plan()?;
        if !plan.service_actions().is_empty() {
            eprintln!(
                "note: the plan's {} service action(s) need `serve --fault-level`; \
                 chaosd injects network effects only",
                plan.service_actions().len()
            );
        }
        let config = ChaosConfig {
            seed,
            plan,
            inject: InjectProfile {
                corrupt_prob: self.corrupt,
                reset_prob: self.reset,
                trickle_prob: self.trickle,
                ..InjectProfile::default()
            },
            base_port: self.host.base_port,
        };
        let proxy = ChaosProxy::start(&config, &interpose_on(service, &upstream.endpoints))
            .map_err(|e| CliError(format!("chaosd: {e}")))?;
        // The upstream shard count and service pass through, so probes
        // pointed at the interposer still label keyed cells correctly.
        let ready = ReadyFile { endpoints: proxy.addrs().to_vec(), ..upstream };
        self.host.announce(&format!("chaos interposer (seed {seed})"), &ready)?;
        let started = Instant::now();
        self.host.wait_for_drain(started, || false);
        proxy.request_stop();
        let ledger = proxy.join();
        let _ = writeln!(
            out,
            "chaosd drained after {:.1}s: {}",
            started.elapsed().as_secs_f64(),
            ledger_counts(&ledger)
        );
        Ok(())
    }
}

/// `conprobe probe`: run live probe agents against remote `cpw1`
/// endpoints and feed the traces through the standard analysis/journal
/// pipeline. The cadence fields override [`ProbeConfig::loopback`].
#[derive(Debug, Clone, PartialEq)]
pub struct ProbeArgs {
    /// What the servers host (verified on connect) and how to test it;
    /// per-instance seeds derive from the seed like a campaign's.
    pub spec: TestSpec,
    /// Number of test instances to run.
    pub tests: u32,
    /// `region=host:port` endpoints, one agent each.
    pub endpoints: Vec<String>,
    /// Read endpoints from a `serve --ready-file` instead.
    pub server_file: Option<String>,
    /// Background read period in milliseconds (the slow phase reads at
    /// twice this).
    pub read_ms: Option<u64>,
    /// Reads per agent before a Test 2 instance completes.
    pub reads: Option<u32>,
    /// Dump the probe metrics registry as JSON to this path.
    pub metrics_out: Option<String>,
    /// Where finished instances are journaled.
    pub journal: JournalArgs,
    /// Keyspace key the probe addresses. `None` is key 0 under the
    /// plain `wire/<cell>` journal label; naming a key (0 included)
    /// labels the cell with the key and its shard.
    pub key: Option<u32>,
    /// Stream a running anomaly readout to stderr while agents run.
    pub live: bool,
}

impl ProbeArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        let parsed = ProbeArgs {
            spec: TestSpec::parse(a)?,
            tests: a.tests(1)?,
            endpoints: a.all("--endpoint"),
            server_file: a.text("--server-file"),
            read_ms: a.num("--read-ms")?,
            reads: a.num("--reads")?,
            metrics_out: a.text("--metrics"),
            journal: JournalArgs::parse(a)?,
            key: a.num("--key")?,
            live: a.on("--live"),
        };
        if parsed.endpoints.is_empty() && parsed.server_file.is_none() {
            return Err(CliError(
                "probe requires --endpoint region=host:port (repeatable) or --server-file".into(),
            ));
        }
        // The slow phase reads at twice this, a throttle storm widens
        // that up to eightfold, and the result is added to a signed
        // nanosecond clock.
        const MAX_READ_MS: u64 = i64::MAX as u64 / (2 * 8 * 1_000_000);
        if let Some(ms) = parsed.read_ms.filter(|ms| *ms > MAX_READ_MS) {
            return Err(CliError(format!(
                "--read-ms: {ms} ms is too long to double for the slow phase"
            )));
        }
        Ok(parsed)
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let TestSpec { service, kind, seed } = self.spec;
        let ready = match &self.server_file {
            Some(path) => ReadyFile::read_serve(path)?,
            None => ReadyFile::default(),
        };
        let endpoints = if self.endpoints.is_empty() {
            ready.endpoints
        } else {
            self.endpoints.iter().map(|s| parse_endpoint(s)).collect::<Result<_, _>>()?
        };
        let _ = writeln!(
            out,
            "{service} {kind} live probe × {} (seed {seed}): {} agent(s)",
            self.tests,
            endpoints.len()
        );
        let metrics = MetricsRegistry::new();
        let journaled = self.journal.open()?;
        // A probe addresses one logical object; with `--key` the cell
        // label records which key and which shard owns it (from the
        // serve ready-file's `shards=` line, defaulting to the serve
        // default) so journals from different placements never mix.
        let cell = match self.key {
            Some(k) => {
                let shards = ready.shards.unwrap_or(ServeConfig::loopback(service, seed).shards);
                let shard = ShardRing::new(shards).shard_for_key(k);
                format!("wire/{}/k{k}@s{shard}", journal::cell_id(service, kind))
            }
            None => format!("wire/{}", journal::cell_id(service, kind)),
        };
        let instances = journaled.units(&cell, "instance");
        let root = SimRng::new(seed);
        let mut analysis_config = TestConfig::paper(service, kind);
        analysis_config.agent_regions = endpoints.iter().map(|(r, _)| *r).collect();
        let mut results = Vec::new();
        for i in 0..self.tests {
            let inst_seed = root.split_indexed("test", u64::from(i)).seed();
            let probe = || {
                let mut pc = ProbeConfig::loopback(service, kind, endpoints.clone(), inst_seed);
                if let Some(ms) = self.read_ms {
                    pc.cadence.read_period = SimDuration::from_millis(ms);
                    pc.cadence.slow_period = SimDuration::from_millis(ms * 2);
                }
                if let Some(n) = self.reads {
                    pc.cadence.reads_target = n;
                    pc.cadence.fast_reads = n / 2;
                }
                pc.key = self.key.unwrap_or(0);
                let res = if self.live {
                    run_probe_watched(&pc, i, checker_config_for(&analysis_config))
                } else {
                    run_probe(&pc)
                };
                res.map_err(|e| CliError(format!("probe: {e}")))
            };
            let r = instances.splice_or_run(i, inst_seed, &analysis_config, probe)?;
            // Timing-dependent figures go to stderr; stdout stays
            // grep/diff-stable for scripted runs.
            let max_err = r.clock_error_nanos.iter().max().copied().unwrap_or(0);
            eprintln!(
                "  instance {i}: {:.1}s, max clock error {:.2} ms",
                r.duration_secs,
                max_err as f64 / 1e6
            );
            for h in r.agent_health.iter().filter(|h| h.quarantined) {
                eprintln!(
                    "  instance {i}: agent {} QUARANTINED ({}); partial trace salvaged",
                    h.agent_index,
                    if h.log_collected { "some records kept" } else { "no records" },
                );
            }
            let _ = writeln!(
                out,
                "  instance {i}: {}; {} writes; {} anomaly observation(s)",
                if r.completed { "completed" } else { "INCOMPLETE" },
                r.writes_total,
                r.analysis.observations.len(),
            );
            metrics.counter("wire.probe.instances").inc();
            metrics.counter("wire.probe.writes").add(u64::from(r.writes_total));
            metrics
                .counter("wire.probe.reads")
                .add(r.reads_per_agent.iter().map(|&n| u64::from(n)).sum());
            let h = metrics.log_histogram("wire.probe.clock_error_nanos");
            for e in &r.clock_error_nanos {
                h.record(e.unsigned_abs());
            }
            results.push(r);
        }
        // The deterministic section: anomaly counts across instances,
        // every kind always listed (CI diffs this block verbatim).
        let _ = writeln!(out, "anomaly table:");
        for kind in AnomalyKind::ALL {
            let observations: usize = results.iter().map(|r| r.analysis.count(kind)).sum();
            let instances = results.iter().filter(|r| r.analysis.has(kind)).count();
            let name = kind.to_string();
            let _ = writeln!(
                out,
                "  {name:<22} {instances}/{} instance(s), {observations} observation(s)",
                results.len()
            );
        }
        write_metrics(out, &self.metrics_out, || metrics.to_json().to_pretty())
    }
}

/// One `probe --live` instance: the probe's tap feeds a streaming
/// analyzer on a monitor thread whose readout goes to stderr (stdout
/// must stay byte-identical to a tap-less run).
fn run_probe_watched(
    pc: &ProbeConfig,
    instance: u32,
    checkers: CheckerConfig<PostId>,
) -> Result<TestResult, conprobe_harness::transport::EndpointError> {
    let (tx, rx) = std::sync::mpsc::channel();
    let agents = pc.endpoints.len();
    let monitor = std::thread::spawn(move || live_monitor(rx, agents, checkers));
    let res = run_probe_with_live(pc, Some(tx));
    match monitor.join() {
        Ok(analysis) => eprintln!(
            "  instance {instance}: live analysis finished: {} anomaly observation(s)",
            analysis.observations.len()
        ),
        Err(_) => eprintln!("  instance {instance}: live monitor panicked"),
    }
    res
}

/// Drains a probe's live tap (`probe --live`): a k-way merge of the
/// per-agent event streams on `(invoke, response)` — each agent's own
/// stream already arrives invoke-ordered — reconstructs the trace order
/// `TestTrace::new` sorts into, and feeds a [`StreamingAnalyzer`] for a
/// running stderr readout. An event is released only once every
/// still-active agent has one queued (or is done), so no later-arriving
/// earlier event can violate the analyzer's watermark. Returns the
/// finished analysis: same events, same order as the batch pass, so the
/// two agree exactly.
fn live_monitor(
    rx: std::sync::mpsc::Receiver<LiveEvent>,
    agents: usize,
    config: CheckerConfig<PostId>,
) -> TestAnalysis<PostId> {
    let mut analyzer = StreamingAnalyzer::new(&config);
    let mut queues: Vec<VecDeque<OpRecord<PostId>>> =
        (0..agents).map(|_| VecDeque::new()).collect();
    let mut done = vec![false; agents];
    let mut last = [0usize; 6];
    for event in rx {
        match event {
            LiveEvent::Op(op) => {
                let a = op.agent.0 as usize;
                if a < agents {
                    queues[a].push_back(op);
                }
            }
            LiveEvent::Done(a) => {
                if (a as usize) < agents {
                    done[a as usize] = true;
                }
            }
        }
        while !queues.iter().zip(&done).any(|(q, d)| q.is_empty() && !d) {
            // Ties across agents resolve lowest-agent-first in both this
            // `min_by_key` and the batch path's stable sort.
            let Some(next) = queues
                .iter()
                .enumerate()
                .filter_map(|(i, q)| q.front().map(|f| (i, (f.invoke, f.response))))
                .min_by_key(|&(_, key)| key)
                .map(|(i, _)| i)
            else {
                break;
            };
            let op = queues[next].pop_front().expect("front checked above");
            analyzer.push_event(&op);
            let counts = analyzer.live_counts();
            if counts != last {
                last = counts;
                eprintln!(
                    "  live: {} op(s) in; ryw {} mw {} mr {} wfr {} cd {} od {}",
                    analyzer.events_pushed(),
                    counts[0],
                    counts[1],
                    counts[2],
                    counts[3],
                    counts[4],
                    counts[5],
                );
            }
        }
    }
    analyzer.finish()
}

/// `conprobe load`: closed-loop load generator against one `cpw1`
/// endpoint. Every `Option` field overrides [`LoadConfig::loopback`].
#[derive(Debug, Clone, PartialEq)]
pub struct LoadArgs {
    /// `host:port` to load.
    pub addr: Option<SocketAddr>,
    /// Read the first endpoint from a `serve --ready-file` instead.
    pub server_file: Option<String>,
    /// Concurrent connections (multiplexed, not threads).
    pub connections: Option<usize>,
    /// In-flight pipelined requests per connection.
    pub pipeline: Option<usize>,
    /// Sweeper threads the connections are spread over.
    pub threads: Option<usize>,
    /// Keyspace keys the reads cycle through round-robin.
    pub keys: Option<u32>,
    /// Wall-clock duration of the measurement loop in seconds.
    pub secs: Option<u64>,
    /// Warm-up seconds before measurement begins. Unlike the library's
    /// short default warm-up, the command line measures from the start
    /// unless told otherwise.
    pub warmup_secs: u64,
    /// Optional total ops/sec pacing target (default: flat out).
    pub target_ops: Option<u64>,
    /// Dump the load metrics registry as JSON to this path.
    pub metrics_out: Option<String>,
}

impl LoadArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        let parsed = LoadArgs {
            addr: a.num("--addr")?,
            server_file: a.text("--server-file"),
            connections: a.num("--connections")?,
            pipeline: a.num("--pipeline")?,
            threads: a.num("--threads")?,
            keys: a.num("--keys")?,
            secs: a.num("--secs")?,
            warmup_secs: a.num("--warmup-secs")?.unwrap_or(0),
            target_ops: a.num("--target-ops")?,
            metrics_out: a.text("--metrics"),
        };
        if parsed.addr.is_none() && parsed.server_file.is_none() {
            return Err(CliError("load requires --addr host:port or --server-file".into()));
        }
        Ok(parsed)
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let target = match (self.addr, &self.server_file) {
            (Some(addr), _) => addr,
            (None, Some(path)) => ReadyFile::read_serve(path)?.endpoints[0].1,
            (None, None) => return Err(CliError("no endpoints given".into())),
        };
        let mut config = LoadConfig::loopback(target);
        set(&mut config.connections, self.connections);
        set(&mut config.pipeline, self.pipeline);
        set(&mut config.threads, self.threads);
        set(&mut config.keys, self.keys);
        set(&mut config.duration, self.secs.map(Duration::from_secs));
        config.warmup = Duration::from_secs(self.warmup_secs);
        config.target_ops_per_sec = self.target_ops;
        let metrics = MetricsRegistry::new();
        let report = run_load(&config, &metrics).map_err(|e| CliError(format!("load: {e}")))?;
        let _ = writeln!(
            out,
            "load {target}: {} ops in {:.1}s over {} connection(s) \
             x {} in-flight ({:.0} ops/sec); \
             p50 {}, p99 {}, p999 {}; \
             {} error(s) ({} ordering, {} decode; \
             {} connection(s) affected, worst {}); {} throttled",
            report.ops,
            report.elapsed_secs,
            config.connections,
            config.pipeline,
            report.ops_per_sec,
            millis_3sf(report.p50_nanos),
            millis_3sf(report.p99_nanos),
            millis_3sf(report.p999_nanos),
            report.errors,
            report.ordering_errors,
            report.decode_errors,
            report.conns_with_errors,
            report.max_conn_errors,
            report.throttled
        );
        write_metrics(out, &self.metrics_out, || metrics.to_json().to_pretty())
    }
}

/// `conprobe dispatch`: coordinate a campaign cell farmed out to
/// `worker` processes over TCP, journaling every pushed result and
/// merging byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct DispatchArgs {
    /// What to run.
    pub spec: TestSpec,
    /// Number of instances.
    pub tests: u32,
    /// Address to listen on (port 0 = ephemeral; default loopback).
    pub addr: Option<SocketAddr>,
    /// Seconds a granted unit may stay unfinished before re-issue.
    pub lease_secs: u64,
    /// Write a `dispatch=addr` line here once the listener is bound.
    pub ready_file: Option<String>,
    /// The journal workers' results merge through (mandatory).
    pub journal: JournalArgs,
}

impl DispatchArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        let parsed = DispatchArgs {
            spec: TestSpec::parse(a)?,
            tests: campaign_tests(a)?,
            addr: a.num("--addr")?,
            lease_secs: a.num("--lease-secs")?.unwrap_or(30),
            ready_file: a.text("--ready-file"),
            journal: JournalArgs::parse(a)?,
        };
        if parsed.journal.journal_out.is_none() && parsed.journal.resume.is_none() {
            return Err(CliError(
                "dispatch requires --journal FILE or --resume FILE (the journal is the medium \
                 workers' results merge through)"
                    .into(),
            ));
        }
        Ok(parsed)
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let tests = self.tests;
        let journaled = self.journal.open()?;
        let journal_file =
            journaled.journal.ok_or(CliError("dispatch requires a journal".into()))?;
        let cell = journal::cell_id(self.spec.service, self.spec.kind);
        let dcfg = DispatchConfig {
            config: self.spec.campaign_config(tests),
            cell: cell.clone(),
            addr: self.addr.unwrap_or(SocketAddr::from(([127, 0, 0, 1], 0))),
            lease_timeout: Duration::from_secs(self.lease_secs),
        };
        let mut on_ready = |bound: SocketAddr| {
            eprintln!("dispatching {cell} × {tests} on {bound}");
            if let Some(path) = &self.ready_file {
                let ready = ReadyFile { dispatch: Some(bound), ..ReadyFile::default() };
                match write_file(path, ready.render()) {
                    Ok(()) => eprintln!("address written to {path}"),
                    Err(e) => eprintln!("{e}"),
                }
            }
        };
        let (result, stats) = run_dispatch(
            &dcfg,
            journal_file,
            journaled.recovery.as_ref(),
            &mut on_ready,
            Some(&progress_gauge()),
        )
        .map_err(|e| CliError(format!("dispatch: {e}")))?;
        render_campaign_report(out, &self.spec, tests, &result);
        eprintln!(
            "  {} worker connection(s), {} lease(s) re-issued",
            stats.connections, stats.reissued
        );
        Ok(())
    }
}

/// `conprobe worker`: pull leased work units from a `dispatch`
/// coordinator, run them with the ordinary panic-isolated runner, and
/// push results back.
#[derive(Debug, Clone, PartialEq)]
pub struct WorkerArgs {
    /// What to run (must match the coordinator's).
    pub spec: TestSpec,
    /// Number of instances (must match the coordinator's).
    pub tests: u32,
    /// The coordinator's `host:port`.
    pub addr: Option<SocketAddr>,
    /// Read the coordinator address from a `dispatch --ready-file`.
    pub server_file: Option<String>,
    /// Worker id for progress labels.
    pub worker_id: u32,
}

impl WorkerArgs {
    pub(super) fn parse(a: &Args) -> Result<Self, CliError> {
        let parsed = WorkerArgs {
            spec: TestSpec::parse(a)?,
            tests: campaign_tests(a)?,
            addr: a.num("--addr")?,
            server_file: a.text("--server-file"),
            worker_id: a.num("--worker-id")?.unwrap_or(0),
        };
        if parsed.addr.is_none() && parsed.server_file.is_none() {
            return Err(CliError("worker requires --addr host:port or --server-file".into()));
        }
        Ok(parsed)
    }

    pub(super) fn execute(&self, out: &mut String) -> Result<(), CliError> {
        let worker_id = self.worker_id;
        let addr = match (self.addr, &self.server_file) {
            (Some(addr), _) => addr,
            (None, Some(path)) => ReadyFile::read(path)?
                .dispatch
                .ok_or_else(|| CliError(format!("{path} has no dispatch= line")))?,
            (None, None) => return Err(CliError("no coordinator address given".into())),
        };
        let wcfg = WorkerConfig {
            addr,
            config: self.spec.campaign_config(self.tests),
            cell: journal::cell_id(self.spec.service, self.spec.kind),
            worker_id,
            // More patient than the probe default: a worker may dial
            // before its coordinator binds, and campaigns outlive the
            // occasional dropped connection.
            reconnect: ReconnectPolicy {
                attempts: 10,
                base_delay: Duration::from_millis(50),
                max_delay: Duration::from_secs(2),
                seed: self.spec.seed ^ u64::from(worker_id),
            },
        };
        let report = run_worker(&wcfg).map_err(|e| CliError(format!("worker {worker_id}: {e}")))?;
        let _ = writeln!(
            out,
            "worker {worker_id}: {} completed, {} crashed, {} reconnect(s)",
            report.completed, report.crashed, report.reconnects
        );
        Ok(())
    }
}
