//! The `conprobe` command-line interface (logic layer).
//!
//! All argument parsing and command execution lives here and returns
//! strings/results so it can be unit-tested; `src/bin/conprobe.rs` is the
//! thin I/O shell.

use conprobe_core::checkers::WfrMode;
use conprobe_core::{
    analyze, timeline, AnomalyKind, CheckerConfig, StreamingAnalyzer, TestTrace, Verdict,
};
use conprobe_harness::journal::{self, Journal, Recovery};
use conprobe_harness::proto::{test1_trigger_pairs, TestKind};
use conprobe_harness::runner::{checker_config_for, run_one_test, TestConfig, TestResult};
use conprobe_harness::stats;
use conprobe_json::{FromJson, ToJson};
use conprobe_obs::{EventLog, MetricsRegistry, Severity};
use conprobe_services::live::StaleWindow;
use conprobe_services::ServiceKind;
use conprobe_sim::net::Region;
use conprobe_sim::{
    BrownoutMode, FaultEvent, FaultPlan, LinkScope, ObsSink, SimDuration, SimRng, SimTime,
};
use conprobe_store::PostId;
use conprobe_wire::{
    drive_service_actions, run_dispatch, run_load, run_probe, run_probe_with_live, run_worker,
    ChaosConfig, ChaosLedger, ChaosProxy, ChaosTarget, DispatchConfig, InjectProfile, LiveEvent,
    LoadConfig, ProbeConfig, ReconnectPolicy, ServeConfig, WireServer, WorkerConfig,
};
use std::fmt::Write as _;
use std::time::Duration;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one test instance and report.
    Run {
        /// Service under test.
        service: ServiceKind,
        /// Test design.
        kind: TestKind,
        /// Seed.
        seed: u64,
        /// Wrap agents in a session guard.
        guard: bool,
        /// Enable the white-box replica probe.
        whitebox: bool,
        /// Print the ASCII timeline.
        show_timeline: bool,
        /// Dump the trace as JSON to this path.
        json_out: Option<String>,
        /// Dump the metrics registry as JSON to this path.
        metrics_out: Option<String>,
    },
    /// Analyze a previously exported trace JSON.
    Analyze {
        /// Path to the trace JSON.
        path: String,
        /// Interpret as a Test 1 trace (enables the trigger-pair WFR mode).
        test1: bool,
    },
    /// Run a small campaign cell and summarize.
    Campaign {
        /// Service under test.
        service: ServiceKind,
        /// Test design.
        kind: TestKind,
        /// Number of instances.
        tests: u32,
        /// Seed.
        seed: u64,
        /// Dump the metrics registry as JSON to this path.
        metrics_out: Option<String>,
        /// Journal every finished instance to this path (fresh journal).
        journal_out: Option<String>,
        /// Resume from (and keep appending to) this journal.
        resume: Option<String>,
    },
    /// Sweep fault-plan intensity levels against one service and report
    /// how the measurement degrades.
    Chaos {
        /// Service under test.
        service: ServiceKind,
        /// Test design.
        kind: TestKind,
        /// Seed (both for the world and the fault plan).
        seed: u64,
        /// Highest intensity level to run (sweeps 0..=levels).
        levels: u32,
        /// Run each level against a real loopback TCP arm — server,
        /// chaos interposer, fault-driven replica crash/rejoin, live
        /// probe — instead of the simulator.
        wire: bool,
        /// Replay a measured incident timeline (outage-trace JSON)
        /// instead of the synthetic escalation.
        outage_trace: Option<String>,
        /// Dump the metrics registry as JSON to this path.
        metrics_out: Option<String>,
        /// Journal every finished level to this path (fresh journal).
        journal_out: Option<String>,
        /// Resume from (and keep appending to) this journal.
        resume: Option<String>,
    },
    /// Replay one test with the structured event log on, printing the
    /// sim-time-stamped events to stderr and a summary to stdout.
    Trace {
        /// Service under test.
        service: ServiceKind,
        /// Test design.
        kind: TestKind,
        /// Seed.
        seed: u64,
        /// Minimum severity to record.
        level: Severity,
        /// Only record events whose target starts with this prefix.
        target: Option<String>,
        /// Event-log ring capacity (older events are evicted).
        cap: usize,
    },
    /// Run the full mini-study (every service × both tests) and print a
    /// prevalence table; `--metrics` dumps the combined registry.
    Repro {
        /// Instances per (service, test) cell.
        tests: u32,
        /// Seed (combined with each cell's own master seed).
        seed: u64,
        /// Dump the metrics registry as JSON to this path.
        metrics_out: Option<String>,
        /// Journal every finished instance to this path (fresh journal).
        journal_out: Option<String>,
        /// Resume from (and keep appending to) this journal.
        resume: Option<String>,
    },
    /// Inspect a campaign journal: record counts, per-cell completion,
    /// corrupt-tail diagnostics.
    JournalInspect {
        /// Path to the journal file.
        path: String,
    },
    /// Host a catalog service on real TCP listeners (`cpw1` protocol)
    /// until drained by a stop file, a `stop` frame, or `--max-secs`.
    Serve {
        /// Service to host.
        service: ServiceKind,
        /// Seed for replication-delay and latency-shaping streams.
        seed: u64,
        /// Base TCP port (region `i` binds `base+i`); 0 = ephemeral.
        base_port: u16,
        /// Multiplier on paper-WAN artificial latency (0 disables).
        latency_scale: f64,
        /// Probability of dropping a response (lossy-WAN emulation).
        drop_prob: f64,
        /// Seeded staleness window: `(replica index, lag millis)`.
        stale: Option<(usize, u64)>,
        /// Graceful-drain trigger file.
        stop_file: Option<String>,
        /// Write `region=addr` lines here once the listeners are bound.
        ready_file: Option<String>,
        /// Safety cap: drain after this many seconds.
        max_secs: Option<u64>,
        /// Dump the server's final metrics registry as JSON to this path.
        metrics_out: Option<String>,
        /// Keyspace shards in the hosted cluster.
        shards: usize,
        /// Event-loop worker threads multiplexing the connections.
        event_loops: usize,
        /// Bounded accept backlog: shed with a `busy` frame above this
        /// many live connections (0 = unbounded).
        max_conns: usize,
        /// Slow-client eviction budget in milliseconds (0 = disabled).
        stall_budget_ms: u64,
        /// Drive the wire-timescale fault plan's crash/recover/brownout
        /// timeline against the hosted replicas (0 = no faults).
        fault_level: u32,
        /// Seed for the fault plan (defaults to the serve seed).
        fault_seed: Option<u64>,
        /// Drive a measured incident timeline (outage-trace JSON)
        /// instead of the synthetic escalation.
        outage_trace: Option<String>,
    },
    /// Interpose deterministic chaos between live probes and a serve's
    /// listeners: per-region proxies execute a fault-plan timeline plus
    /// seeded byte-level injections against the real TCP streams.
    Chaosd {
        /// The upstream serve's ready-file (`region=host:port` lines).
        server_file: String,
        /// Seed for every injection stream.
        seed: u64,
        /// Wire-timescale fault-plan intensity (0 = transparent relay).
        fault_level: u32,
        /// Seed for the fault plan (defaults to `seed`).
        fault_seed: Option<u64>,
        /// Replay a measured incident timeline (outage-trace JSON)
        /// instead of the synthetic escalation.
        outage_trace: Option<String>,
        /// Per-frame probability of a seeded single-bit corruption.
        corrupt: f64,
        /// Per-frame probability of a hard connection reset.
        reset: f64,
        /// Per-frame probability of slow-loris trickle delivery.
        trickle: f64,
        /// Base TCP port for the proxy listeners (0 = ephemeral).
        base_port: u16,
        /// Write proxy `region=addr` lines here once bound (a drop-in
        /// serve ready-file; the upstream's `shards=` line rides along).
        ready_file: Option<String>,
        /// Graceful-drain trigger file.
        stop_file: Option<String>,
        /// Safety cap: drain after this many seconds.
        max_secs: Option<u64>,
    },
    /// Run live probe agents against remote `cpw1` endpoints and feed
    /// the traces through the standard analysis/journal pipeline.
    Probe {
        /// Service the servers host (verified on connect).
        service: ServiceKind,
        /// Test design.
        kind: TestKind,
        /// Master seed (per-instance seeds derive like a campaign's).
        seed: u64,
        /// Number of test instances to run.
        tests: u32,
        /// `region=host:port` endpoints, one agent each.
        endpoints: Vec<String>,
        /// Read endpoints from a `serve --ready-file` instead.
        server_file: Option<String>,
        /// Background read period in milliseconds.
        read_ms: u64,
        /// Reads per agent before a Test 2 instance completes.
        reads_target: u32,
        /// Dump the probe metrics registry as JSON to this path.
        metrics_out: Option<String>,
        /// Journal every finished instance to this path (fresh journal).
        journal_out: Option<String>,
        /// Resume from (and keep appending to) this journal.
        resume: Option<String>,
        /// Keyspace key the probe addresses (keyed sharded frames);
        /// `None` speaks the legacy un-keyed protocol.
        key: Option<u32>,
        /// Stream a running anomaly readout to stderr while agents run.
        live: bool,
    },
    /// Closed-loop load generator against one `cpw1` endpoint.
    Load {
        /// `host:port` to load.
        addr: Option<String>,
        /// Read the first endpoint from a `serve --ready-file` instead.
        server_file: Option<String>,
        /// Concurrent connections (multiplexed, not threads).
        connections: usize,
        /// In-flight pipelined requests per connection.
        pipeline: usize,
        /// Sweeper threads the connections are spread over.
        threads: usize,
        /// Keyspace keys the reads cycle through round-robin.
        keys: u32,
        /// Wall-clock duration of the measurement loop in seconds.
        secs: u64,
        /// Warm-up seconds before measurement begins.
        warmup_secs: u64,
        /// Optional total ops/sec pacing target (default: flat out).
        target_ops: Option<u64>,
        /// Dump the load metrics registry as JSON to this path.
        metrics_out: Option<String>,
    },
    /// Coordinate a campaign cell farmed out to `worker` processes over
    /// TCP, journaling every pushed result and merging byte-identically.
    Dispatch {
        /// Service under test.
        service: ServiceKind,
        /// Test design.
        kind: TestKind,
        /// Number of instances.
        tests: u32,
        /// Seed.
        seed: u64,
        /// Address to listen on (`host:port`; port 0 = ephemeral).
        addr: Option<String>,
        /// Seconds a granted unit may stay unfinished before re-issue.
        lease_secs: u64,
        /// Write a `dispatch=addr` line here once the listener is bound.
        ready_file: Option<String>,
        /// Journal every pushed record to this path (fresh journal).
        journal_out: Option<String>,
        /// Resume from (and keep appending to) this journal.
        resume: Option<String>,
    },
    /// Pull leased work units from a `dispatch` coordinator, run them
    /// with the ordinary panic-isolated runner, and push results back.
    Worker {
        /// Service under test (must match the coordinator's).
        service: ServiceKind,
        /// Test design (must match the coordinator's).
        kind: TestKind,
        /// Number of instances (must match the coordinator's).
        tests: u32,
        /// Seed (must match the coordinator's).
        seed: u64,
        /// The coordinator's `host:port`.
        addr: Option<String>,
        /// Read the coordinator address from a `dispatch --ready-file`.
        server_file: Option<String>,
        /// Worker id for progress labels.
        worker_id: u32,
    },
    /// List the available service models.
    Services,
    /// Print usage.
    Help,
}

/// Errors produced by parsing or execution.
#[derive(Debug)]
pub struct CliError(pub String);

impl std::fmt::Display for CliError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}
impl std::error::Error for CliError {}

/// Usage text.
pub const USAGE: &str = "\
conprobe — black-box consistency characterization (DSN'16 reproduction)

USAGE:
  conprobe run --service <svc> [--test 1|2] [--seed N] [--guard]
               [--whitebox] [--timeline] [--json FILE] [--metrics FILE]
  conprobe analyze <trace.json> [--test1]
  conprobe campaign --service <svc> [--test 1|2] [--tests N] [--seed N]
               [--metrics FILE] [--journal FILE | --resume FILE]
  conprobe chaos --service <svc> [--test 1|2] [--seed N] [--levels N]
               [--wire] [--outage-trace FILE]
               [--metrics FILE] [--journal FILE | --resume FILE]
  conprobe trace --service <svc> [--test 1|2] [--seed N]
               [--level debug|info|warn|error] [--target PREFIX] [--cap N]
  conprobe repro [--tests N] [--seed N] [--metrics FILE]
               [--journal FILE | --resume FILE]
  conprobe journal inspect <journal.jsonl>
  conprobe serve --service <svc> [--seed N] [--port BASE]
               [--latency-scale F] [--drop P]
               [--stale-replica I] [--stale-lag-ms N]
               [--shards N] [--event-loops N]
               [--max-conns N] [--stall-budget-ms N]
               [--fault-level N] [--fault-seed N] [--outage-trace FILE]
               [--stop-file FILE] [--ready-file FILE] [--max-secs N]
               [--metrics FILE]
  conprobe chaosd --server-file FILE [--seed N] [--port BASE]
               [--fault-level N] [--fault-seed N] [--outage-trace FILE]
               [--corrupt P] [--reset P] [--trickle P]
               [--ready-file FILE] [--stop-file FILE] [--max-secs N]
  conprobe probe --service <svc> [--test 1|2] [--seed N] [--tests N]
               (--endpoint region=host:port ... | --server-file FILE)
               [--read-ms N] [--reads N] [--key K] [--live]
               [--metrics FILE] [--journal FILE | --resume FILE]
  conprobe load (--addr host:port | --server-file FILE)
               [--connections N] [--pipeline N] [--threads N] [--keys N]
               [--secs N] [--warmup-secs N] [--target-ops N]
               [--metrics FILE]
  conprobe dispatch --service <svc> [--test 1|2] [--tests N] [--seed N]
               (--journal FILE | --resume FILE) [--addr host:port]
               [--lease-secs N] [--ready-file FILE]
  conprobe worker --service <svc> [--test 1|2] [--tests N] [--seed N]
               (--addr host:port | --server-file FILE) [--worker-id N]
  conprobe services
  conprobe help

  <svc>: blogger | gplus | fbfeed | fbgroup | quorum | pbft
  region: oregon | tokyo | ireland | virginia (or OR|JP|IR|VA)

  `serve` hosts a catalog service on one 127.0.0.1 listener per agent
  region, speaking the length-prefixed, checksummed `cpw1` protocol; the
  deterministic replica cores run on wall-clock time, with optional
  artificial WAN latency (--latency-scale, from the paper latency
  matrix), response loss (--drop), and a seeded staleness window
  (--stale-replica/--stale-lag-ms). It drains gracefully — finishing
  whole frames — when --stop-file appears, a client sends `stop`, or
  --max-secs elapses. The hosted cluster shards its keyspace over
  --shards consistent-hash shards served by --event-loops non-blocking
  event-loop workers; the ready file records the shard count. `probe`
  runs the paper's agents for real: skewed local clocks, Cristian sync
  over the wire, the Test 1/2 cadence, and the unmodified checkers on
  the merged trace; --journal/--resume work exactly as in `campaign`;
  --key K pins the probe to one keyspace key (keyed sharded frames)
  and labels the journal cell with the key and owning shard; --live
  merges the agents' operation streams through the incremental checkers
  as they happen, printing a running anomaly readout to stderr (stdout
  and the final batch analysis are unaffected). `load`
  measures sustained closed-loop throughput with latency histograms,
  multiplexing --connections pipelined connections (--pipeline
  in-flight requests each) over --threads sweeper threads, cycling
  reads over --keys keys; measurement starts after --warmup-secs.

  `chaosd` interposes deterministic chaos between live probes and a
  serve's listeners: per-region proxy listeners relay whole cpw1
  frames while a fault plan — the synthetic wire-timescale escalation
  (--fault-level) or a measured incident timeline (--outage-trace
  JSON) — blackholes, delays and drops them per link, and seeded
  per-frame injections flip single bits (--corrupt, rejected by the
  checksummed decoder), reset connections (--reset) or trickle bytes
  (--trickle). Its --ready-file is a drop-in serve ready-file, so
  probes point at the proxies unchanged. `serve` accepts the same
  fault flags and drives the plan's crash/recover/brownout timeline
  against its own replicas: a killed quorum replica rejoins through
  the fenced cpj1 state-transfer protocol, weak-arm replicas rejoin
  cold. Overloaded servers shed new connections past --max-conns with
  a typed `busy` frame (clients back off and retry after the hinted
  wait) and evict clients whose responses stall past
  --stall-budget-ms. `chaos --wire` runs the whole live arm per level
  in one process — server, interposer, fault driver, probe — and
  prints the same anomaly report as the simulated sweep, so sim-vs-
  wire and weak-vs-quorum arms compare directly; with --outage-trace
  both sweep modes replay the trace's timeline instead.

  --metrics dumps the run's metrics registry (counters, gauges,
  histograms across the sim/services/harness/campaign layers) as JSON.
  `trace` prints the structured event log to stderr, one line per event,
  stamped with simulated time. Observability never perturbs the
  simulation: the same seed yields the same trace with it on or off.

  --journal appends one checksummed, fsync'd record per finished test to
  FILE as the campaign runs; --resume recovers FILE (tolerating a
  truncated tail from a crash), re-runs only the missing instances, and
  keeps journaling to the same file. A resumed campaign produces
  byte-identical output to an uninterrupted one with the same seed.

  `dispatch` runs a campaign cell distributed: it leases each instance
  to connecting `worker` processes (started with the identical
  --service/--test/--tests/--seed), journals every pushed result, and —
  once all units land — merges the journal through the ordinary resume
  path, so stdout is byte-identical to `campaign` with the same flags.
  A worker that disconnects or exceeds --lease-secs has its units
  re-issued; duplicate pushes are deduplicated; a worker whose derived
  seeds disagree with a grant refuses it as a configuration mismatch.
";

fn parse_service(s: &str) -> Result<ServiceKind, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "blogger" => Ok(ServiceKind::Blogger),
        "gplus" | "google+" | "googleplus" => Ok(ServiceKind::GooglePlus),
        "fbfeed" | "feed" => Ok(ServiceKind::FacebookFeed),
        "fbgroup" | "group" => Ok(ServiceKind::FacebookGroup),
        "quorum" => Ok(ServiceKind::Quorum),
        "pbft" => Ok(ServiceKind::Pbft),
        other => Err(CliError(format!("unknown service '{other}'"))),
    }
}

fn parse_region(s: &str) -> Result<Region, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "oregon" | "or" => Ok(Region::Oregon),
        "tokyo" | "jp" => Ok(Region::Tokyo),
        "ireland" | "ir" => Ok(Region::Ireland),
        "virginia" | "va" => Ok(Region::Virginia),
        other => Err(CliError(format!("unknown region '{other}'"))),
    }
}

/// The token `serve --ready-file` writes and `--endpoint` accepts.
fn region_token(r: Region) -> &'static str {
    match r {
        Region::Oregon => "oregon",
        Region::Tokyo => "tokyo",
        Region::Ireland => "ireland",
        Region::Virginia => "virginia",
        Region::Datacenter(_) => "datacenter",
    }
}

/// Parses one `region=host:port` endpoint spec.
fn parse_endpoint(s: &str) -> Result<(Region, std::net::SocketAddr), CliError> {
    let (region, addr) = s
        .split_once('=')
        .ok_or_else(|| CliError(format!("endpoint '{s}' is not region=host:port")))?;
    Ok((parse_region(region)?, addr.parse().map_err(|e| CliError(format!("endpoint '{s}': {e}")))?))
}

fn parse_test(s: &str) -> Result<TestKind, CliError> {
    match s {
        "1" | "test1" => Ok(TestKind::Test1),
        "2" | "test2" => Ok(TestKind::Test2),
        other => Err(CliError(format!("unknown test '{other}' (use 1 or 2)"))),
    }
}

fn parse_level(s: &str) -> Result<Severity, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "debug" => Ok(Severity::Debug),
        "info" => Ok(Severity::Info),
        "warn" => Ok(Severity::Warn),
        "error" => Ok(Severity::Error),
        other => Err(CliError(format!("unknown level '{other}' (use debug|info|warn|error)"))),
    }
}

/// Parses a raw argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let mut it = args.iter().map(String::as_str);
    let Some(cmd) = it.next() else {
        return Ok(Command::Help);
    };
    let mut service = None;
    let mut kind = TestKind::Test1;
    let mut seed = 42u64;
    let mut tests: Option<u32> = None;
    let mut levels = 3u32;
    let mut guard = false;
    let mut whitebox = false;
    let mut show_timeline = false;
    let mut json_out = None;
    let mut metrics_out = None;
    let mut journal_out = None;
    let mut resume = None;
    let mut level = Severity::Info;
    let mut target = None;
    let mut cap = 10_000usize;
    let mut positional: Vec<String> = Vec::new();
    let mut test1 = false;
    let mut base_port = 0u16;
    let mut latency_scale = 0.0f64;
    let mut drop_prob = 0.0f64;
    let mut stale_replica: Option<usize> = None;
    let mut stale_lag_ms = 3_000u64;
    let mut stop_file = None;
    let mut ready_file = None;
    let mut max_secs: Option<u64> = None;
    let mut endpoints: Vec<String> = Vec::new();
    let mut server_file = None;
    let mut addr = None;
    let mut read_ms = 30u64;
    let mut reads_target = 30u32;
    let mut connections = 8usize;
    let mut pipeline = 1usize;
    let mut threads = 1usize;
    let mut keys = 1u32;
    let mut secs = 5u64;
    let mut warmup_secs = 0u64;
    let mut target_ops: Option<u64> = None;
    let mut shards = 16usize;
    let mut event_loops = 1usize;
    let mut key: Option<u32> = None;
    let mut lease_secs = 30u64;
    let mut worker_id = 0u32;
    let mut live = false;
    let mut wire = false;
    let mut outage_trace: Option<String> = None;
    let mut fault_level = 0u32;
    let mut fault_seed: Option<u64> = None;
    let mut max_conns = 0usize;
    let mut stall_budget_ms = 0u64;
    let mut corrupt = 0.0f64;
    let mut reset = 0.0f64;
    let mut trickle = 0.0f64;
    fn val<'a>(it: &mut impl Iterator<Item = &'a str>, flag: &str) -> Result<&'a str, CliError> {
        it.next().ok_or_else(|| CliError(format!("{flag} needs a value")))
    }
    fn num<T: std::str::FromStr>(s: &str, flag: &str) -> Result<T, CliError>
    where
        T::Err: std::fmt::Display,
    {
        s.parse().map_err(|e| CliError(format!("{flag}: {e}")))
    }
    while let Some(a) = it.next() {
        match a {
            "--port" => base_port = num(val(&mut it, a)?, a)?,
            "--latency-scale" => latency_scale = num(val(&mut it, a)?, a)?,
            "--drop" => drop_prob = num(val(&mut it, a)?, a)?,
            "--stale-replica" => stale_replica = Some(num(val(&mut it, a)?, a)?),
            "--stale-lag-ms" => stale_lag_ms = num(val(&mut it, a)?, a)?,
            "--stop-file" => stop_file = Some(val(&mut it, a)?.to_string()),
            "--ready-file" => ready_file = Some(val(&mut it, a)?.to_string()),
            "--max-secs" => max_secs = Some(num(val(&mut it, a)?, a)?),
            "--endpoint" => endpoints.push(val(&mut it, a)?.to_string()),
            "--server-file" => server_file = Some(val(&mut it, a)?.to_string()),
            "--addr" => addr = Some(val(&mut it, a)?.to_string()),
            "--read-ms" => read_ms = num(val(&mut it, a)?, a)?,
            "--reads" => reads_target = num(val(&mut it, a)?, a)?,
            "--connections" => connections = num(val(&mut it, a)?, a)?,
            "--pipeline" => pipeline = num(val(&mut it, a)?, a)?,
            "--threads" => threads = num(val(&mut it, a)?, a)?,
            "--keys" => keys = num(val(&mut it, a)?, a)?,
            "--secs" => secs = num(val(&mut it, a)?, a)?,
            "--warmup-secs" => warmup_secs = num(val(&mut it, a)?, a)?,
            "--target-ops" => target_ops = Some(num(val(&mut it, a)?, a)?),
            "--shards" => shards = num(val(&mut it, a)?, a)?,
            "--event-loops" => event_loops = num(val(&mut it, a)?, a)?,
            "--key" => key = Some(num(val(&mut it, a)?, a)?),
            "--lease-secs" => lease_secs = num(val(&mut it, a)?, a)?,
            "--worker-id" => worker_id = num(val(&mut it, a)?, a)?,
            "--live" => live = true,
            "--wire" => wire = true,
            "--outage-trace" => outage_trace = Some(val(&mut it, a)?.to_string()),
            "--fault-level" => fault_level = num(val(&mut it, a)?, a)?,
            "--fault-seed" => fault_seed = Some(num(val(&mut it, a)?, a)?),
            "--max-conns" => max_conns = num(val(&mut it, a)?, a)?,
            "--stall-budget-ms" => stall_budget_ms = num(val(&mut it, a)?, a)?,
            "--corrupt" => corrupt = num(val(&mut it, a)?, a)?,
            "--reset" => reset = num(val(&mut it, a)?, a)?,
            "--trickle" => trickle = num(val(&mut it, a)?, a)?,
            "--service" => service = Some(parse_service(val(&mut it, a)?)?),
            "--test" => kind = parse_test(val(&mut it, a)?)?,
            "--seed" => seed = num(val(&mut it, a)?, a)?,
            "--tests" => tests = Some(num(val(&mut it, a)?, a)?),
            "--levels" => levels = num(val(&mut it, a)?, a)?,
            "--guard" => guard = true,
            "--whitebox" => whitebox = true,
            "--timeline" => show_timeline = true,
            "--test1" => test1 = true,
            "--json" => json_out = Some(val(&mut it, a)?.to_string()),
            "--metrics" => metrics_out = Some(val(&mut it, a)?.to_string()),
            "--journal" => journal_out = Some(val(&mut it, a)?.to_string()),
            "--resume" => resume = Some(val(&mut it, a)?.to_string()),
            "--level" => level = parse_level(val(&mut it, a)?)?,
            "--target" => target = Some(val(&mut it, a)?.to_string()),
            "--cap" => cap = num(val(&mut it, a)?, a)?,
            other if other.starts_with('-') => {
                return Err(CliError(format!("unknown flag '{other}'")))
            }
            other => positional.push(other.to_string()),
        }
    }
    if journal_out.is_some() && resume.is_some() {
        return Err(CliError(
            "--journal starts a fresh journal and --resume continues one; pass exactly one".into(),
        ));
    }
    match cmd {
        "run" => Ok(Command::Run {
            service: service.ok_or(CliError("run requires --service".into()))?,
            kind,
            seed,
            guard,
            whitebox,
            show_timeline,
            json_out,
            metrics_out,
        }),
        "analyze" => Ok(Command::Analyze {
            path: positional
                .first()
                .cloned()
                .ok_or(CliError("analyze requires a trace path".into()))?,
            test1,
        }),
        "campaign" => Ok(Command::Campaign {
            service: service.ok_or(CliError("campaign requires --service".into()))?,
            kind,
            tests: tests.unwrap_or(20),
            seed,
            metrics_out,
            journal_out,
            resume,
        }),
        "chaos" => Ok(Command::Chaos {
            service: service.ok_or(CliError("chaos requires --service".into()))?,
            kind,
            seed,
            levels,
            wire,
            outage_trace,
            metrics_out,
            journal_out,
            resume,
        }),
        "trace" => Ok(Command::Trace {
            service: service.ok_or(CliError("trace requires --service".into()))?,
            kind,
            seed,
            level,
            target,
            cap,
        }),
        "repro" => Ok(Command::Repro {
            tests: tests.unwrap_or(20),
            seed,
            metrics_out,
            journal_out,
            resume,
        }),
        "journal" => match positional.first().map(String::as_str) {
            Some("inspect") => Ok(Command::JournalInspect {
                path: positional
                    .get(1)
                    .cloned()
                    .ok_or(CliError("journal inspect requires a journal path".into()))?,
            }),
            _ => Err(CliError("usage: conprobe journal inspect <journal.jsonl>".into())),
        },
        "serve" => Ok(Command::Serve {
            service: service.ok_or(CliError("serve requires --service".into()))?,
            seed,
            base_port,
            latency_scale,
            drop_prob,
            stale: stale_replica.map(|r| (r, stale_lag_ms)),
            stop_file,
            ready_file,
            max_secs,
            metrics_out,
            shards,
            event_loops,
            max_conns,
            stall_budget_ms,
            fault_level,
            fault_seed,
            outage_trace,
        }),
        "chaosd" => Ok(Command::Chaosd {
            server_file: server_file
                .ok_or(CliError("chaosd requires --server-file (a serve ready-file)".into()))?,
            seed,
            fault_level,
            fault_seed,
            outage_trace,
            corrupt,
            reset,
            trickle,
            base_port,
            ready_file,
            stop_file,
            max_secs,
        }),
        "probe" => {
            if endpoints.is_empty() && server_file.is_none() {
                return Err(CliError(
                    "probe requires --endpoint region=host:port (repeatable) or --server-file"
                        .into(),
                ));
            }
            Ok(Command::Probe {
                service: service.ok_or(CliError("probe requires --service".into()))?,
                kind,
                seed,
                tests: tests.unwrap_or(1),
                endpoints,
                server_file,
                read_ms,
                reads_target,
                metrics_out,
                journal_out,
                resume,
                key,
                live,
            })
        }
        "load" => {
            if addr.is_none() && server_file.is_none() {
                return Err(CliError("load requires --addr host:port or --server-file".into()));
            }
            Ok(Command::Load {
                addr,
                server_file,
                connections,
                pipeline,
                threads,
                keys,
                secs,
                warmup_secs,
                target_ops,
                metrics_out,
            })
        }
        "dispatch" => {
            if journal_out.is_none() && resume.is_none() {
                return Err(CliError(
                    "dispatch requires --journal FILE or --resume FILE (the journal is the \
                     medium workers' results merge through)"
                        .into(),
                ));
            }
            Ok(Command::Dispatch {
                service: service.ok_or(CliError("dispatch requires --service".into()))?,
                kind,
                tests: tests.unwrap_or(20),
                seed,
                addr,
                lease_secs,
                ready_file,
                journal_out,
                resume,
            })
        }
        "worker" => {
            if addr.is_none() && server_file.is_none() {
                return Err(CliError("worker requires --addr host:port or --server-file".into()));
            }
            Ok(Command::Worker {
                service: service.ok_or(CliError("worker requires --service".into()))?,
                kind,
                tests: tests.unwrap_or(20),
                seed,
                addr,
                server_file,
                worker_id,
            })
        }
        "services" => Ok(Command::Services),
        "help" | "--help" | "-h" => Ok(Command::Help),
        other => Err(CliError(format!("unknown command '{other}'"))),
    }
}

/// The fault plan for one intensity level of the chaos sweep.
///
/// Level 0 is fault-free; each level above it adds one fault class on top
/// of the previous ones and turns the shared knobs up. All windows start
/// ≥ 4 s into the run so clock sync and the synchronized start happen on
/// a healthy network — the faults hit the measured phase (which opens
/// ~2.5 s in), not the harness bootstrap.
///
/// * level ≥ 1 — a global loss burst (`5·level` %, capped at 50 %).
/// * level ≥ 2 — a latency spike on every link touching Tokyo.
/// * level ≥ 3 — a Tokyo↔Ireland link flap plus one crash/restart cycle
///   of replica 1 (skipped — and accounted — on single-replica
///   topologies).
/// * level ≥ 4 — a throttle-storm brownout of replica 0's front door.
pub fn chaos_plan(level: u32, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    if level >= 1 {
        plan.push(FaultEvent::LossBurst {
            scope: LinkScope::All,
            at: SimTime::from_secs(4),
            duration: SimDuration::from_secs(10),
            loss: f64::from(level.min(10)) * 0.05,
        });
    }
    if level >= 2 {
        plan.push(FaultEvent::DegradedLink {
            scope: LinkScope::Touching(Region::Tokyo),
            at: SimTime::from_secs(5),
            duration: SimDuration::from_secs(8),
            extra_base: SimDuration::from_millis(40).saturating_mul(u64::from(level)),
            extra_jitter: SimDuration::from_millis(20),
        });
    }
    if level >= 3 {
        plan.push(FaultEvent::LinkFlap {
            scope: LinkScope::Between(Region::Tokyo, Region::Ireland),
            at: SimTime::from_secs(6),
            down_for: SimDuration::from_secs(2),
            up_for: SimDuration::from_secs(2),
            flaps: level - 2,
        });
        plan.push(FaultEvent::CrashCycle {
            target: 1,
            at: SimTime::from_secs(7),
            down_for: SimDuration::from_secs(4),
            up_for: SimDuration::ZERO,
            cycles: 1,
        });
    }
    if level >= 4 {
        plan.push(FaultEvent::Brownout {
            target: 0,
            at: SimTime::from_secs(8),
            duration: SimDuration::from_secs(5),
            mode: BrownoutMode::ThrottleStorm,
        });
    }
    plan
}

/// The live-path counterpart of [`chaos_plan`] (`chaos --wire`,
/// `chaosd`, `serve --fault-level`): the same fault classes compressed
/// onto a wall-clock timescale one loopback probe instance actually
/// spans. The plan clock starts when the interposer (or server) comes
/// up, so every window sits a few hundred milliseconds in — past the
/// probe's connect/clock-sync phase and inside its measured phase.
///
/// * level ≥ 1 — a latency spike on every link (base grows with level).
/// * level ≥ 2 — a short global loss burst (frames blackholed; the
///   probes' reconnect budget rides it out).
/// * level ≥ 3 — a Tokyo link flap plus one crash/restart cycle of
///   replica 1 (the fenced `cpj1` rejoin path, against live sockets).
/// * level ≥ 4 — a throttle-storm brownout of replica 0.
pub fn wire_chaos_plan(level: u32, seed: u64) -> FaultPlan {
    let mut plan = FaultPlan::new(seed);
    if level >= 1 {
        plan.push(FaultEvent::DegradedLink {
            scope: LinkScope::All,
            at: SimTime::from_millis(250),
            duration: SimDuration::from_millis(900),
            extra_base: SimDuration::from_millis(4).saturating_mul(u64::from(level)),
            extra_jitter: SimDuration::from_millis(2),
        });
    }
    if level >= 2 {
        plan.push(FaultEvent::LossBurst {
            scope: LinkScope::All,
            at: SimTime::from_millis(400),
            duration: SimDuration::from_millis(250),
            loss: f64::from(level.min(10)) * 0.02,
        });
    }
    if level >= 3 {
        plan.push(FaultEvent::LinkFlap {
            scope: LinkScope::Touching(Region::Tokyo),
            at: SimTime::from_millis(700),
            down_for: SimDuration::from_millis(150),
            up_for: SimDuration::from_millis(150),
            flaps: 1,
        });
        plan.push(FaultEvent::CrashCycle {
            target: 1,
            at: SimTime::from_millis(500),
            down_for: SimDuration::from_millis(300),
            up_for: SimDuration::ZERO,
            cycles: 1,
        });
    }
    if level >= 4 {
        plan.push(FaultEvent::Brownout {
            target: 0,
            at: SimTime::from_millis(900),
            duration: SimDuration::from_millis(400),
            mode: BrownoutMode::ThrottleStorm,
        });
    }
    plan
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

/// The fault plan a live command executes: a measured incident timeline
/// when `--outage-trace` is given, the synthetic wire-timescale
/// escalation otherwise.
fn load_fault_plan(
    outage_trace: &Option<String>,
    level: u32,
    seed: u64,
) -> Result<FaultPlan, CliError> {
    match outage_trace {
        Some(path) => {
            let text =
                std::fs::read_to_string(path).map_err(|e| CliError(format!("read {path}: {e}")))?;
            FaultPlan::from_outage_trace(&text)
                .map_err(|e| CliError(format!("outage trace {path}: {e}")))
        }
        None => Ok(wire_chaos_plan(level, seed)),
    }
}

/// The simulated chaos sweep (the pre-`--wire` behaviour): one
/// deterministic in-sim test per intensity level, each under
/// [`chaos_plan`] — or, with `--outage-trace`, a single replay of the
/// trace's compiled timeline.
#[allow(clippy::too_many_arguments)]
fn run_sim_chaos_sweep(
    out: &mut String,
    service: ServiceKind,
    kind: TestKind,
    seed: u64,
    levels: u32,
    outage_trace: &Option<String>,
    metrics_out: &Option<String>,
    journal_out: &Option<String>,
    resume: &Option<String>,
) -> Result<(), CliError> {
    let _ = writeln!(out, "{service} {kind} chaos sweep (seed {seed}):");
    // A replayed trace is one fixed timeline, not an escalation — the
    // sweep collapses to a single level.
    let levels = match outage_trace {
        Some(path) => {
            if levels > 0 {
                eprintln!("outage-trace replay of {path}: a single level, --levels ignored");
            }
            0
        }
        None => levels,
    };
    // Chaos always captures service-lifecycle events (crashes,
    // recoveries, state transfers, brownouts) and narrates them on
    // stderr: stdout must stay byte-identical between a fresh
    // sweep and a journal-resumed one, and spliced levels re-run
    // nothing so they have no events to narrate.
    let sink = Some(ObsSink::with_log(
        EventLog::new(4096).with_min_severity(Severity::Info).with_target_prefix("services"),
    ));
    let (journal_file, recovery) = open_journal(journal_out, resume)?;
    let cell = format!("chaos/{}", journal::cell_id(service, kind));
    let recovered = recovery.as_ref().map(|r| r.completed_for(&cell)).unwrap_or_default();
    for level in 0..=levels {
        let mut config = TestConfig::paper(service, kind);
        config.fault_plan = match outage_trace {
            Some(_) => load_fault_plan(outage_trace, level, seed)?,
            None => chaos_plan(level, seed),
        };
        config.obs = sink.clone();
        // The sweep's journal keys each level as an instance; a
        // recovered level is spliced only when its seed matches.
        let spliced = recovered
            .get(&level)
            .filter(|(rseed, _)| *rseed == seed)
            .and_then(|(_, payload)| journal::result_from_json(&config, payload).ok());
        let r = match spliced {
            Some(r) => {
                eprintln!("  level {level} spliced from the journal");
                r
            }
            None => {
                let r = run_one_test(&config, seed);
                if let Some(sink) = &sink {
                    for e in sink.log.drain() {
                        eprintln!("  level {level}: {}", e.render());
                    }
                }
                if let Some(j) = &journal_file {
                    if let Err(e) = j.append_completed(&cell, level, seed, &r) {
                        eprintln!("journal: append failed for {cell} level {level}: {e}");
                    }
                }
                r
            }
        };
        let ledger = &r.fault_ledger;
        let rpc: u64 = ledger.agent_rpc.iter().map(|s| s.retransmits).sum();
        let anomalies: usize = AnomalyKind::ALL.iter().map(|k| r.analysis.count(*k)).sum();
        let _ = writeln!(
            out,
            "  level {level}: {} in {:>5.1}s; {anomalies} anomaly observation(s); \
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
            ledger.net.blocked,
            ledger.net.dropped,
            ledger.net.delayed,
            ledger.actions.len(),
            ledger.skipped_actions,
        );
    }
    if let (Some(sink), Some(path)) = (&sink, metrics_out) {
        write_metrics(sink, path, out)?;
    }
    Ok(())
}

/// The live half of the chaos sweep (`chaos --wire`): for each level a
/// real loopback [`WireServer`] hosts the service, a [`ChaosProxy`]
/// interposes on every agent↔replica link executing the level's plan
/// plus seeded byte-level injections, a fault driver crashes/rejoins
/// replicas on the same timeline, and the ordinary live probe runs
/// through the proxies. Both sweep halves share the fault vocabulary
/// and the unmodified `analyze()`, so sim-vs-wire and weak-vs-quorum
/// arms compare level by level.
#[allow(clippy::too_many_arguments)]
fn run_wire_chaos_sweep(
    out: &mut String,
    service: ServiceKind,
    kind: TestKind,
    seed: u64,
    levels: u32,
    outage_trace: &Option<String>,
    journal_out: &Option<String>,
    resume: &Option<String>,
) -> Result<(), CliError> {
    let _ = writeln!(out, "{service} {kind} wire chaos sweep (seed {seed}):");
    let (journal_file, recovery) = open_journal(journal_out, resume)?;
    let cell = journal::wire_chaos_cell_id(service, kind);
    let recovered = recovery.as_ref().map(|r| r.completed_for(&cell)).unwrap_or_default();
    let root = SimRng::new(seed);
    for level in 0..=levels {
        // With an outage trace the network/service timeline is the
        // measured incident at every level; `--levels` still scales the
        // interposer's byte-level injections on top of it.
        let plan = match outage_trace {
            Some(_) => load_fault_plan(outage_trace, level, seed)?,
            None => wire_chaos_plan(level, seed),
        };
        let inst_seed = root.split_indexed("wire-chaos", u64::from(level)).seed();
        // The analysis config a spliced level is re-checked under; the
        // live arm serves one listener per agent region.
        let mut analysis_config = TestConfig::paper(service, kind);
        analysis_config.agent_regions = Region::AGENTS.to_vec();
        let spliced = recovered
            .get(&level)
            .filter(|(rseed, _)| *rseed == inst_seed)
            .and_then(|(_, payload)| journal::result_from_json(&analysis_config, payload).ok());
        let r = match spliced {
            Some(r) => {
                eprintln!("  level {level} spliced from the journal");
                r
            }
            None => {
                let (r, ledger) = run_wire_chaos_level(
                    service,
                    kind,
                    seed,
                    level,
                    inst_seed,
                    &plan,
                    wire_inject_profile(level),
                )?;
                // Interposer tallies are wall-timing-dependent, so they
                // narrate on stderr; stdout stays resume-stable.
                eprintln!(
                    "  level {level}: interposer forwarded {}, blocked {}, dropped {}, \
                     delayed {}, corrupted {}, reset {}, trickled {}",
                    ledger.forwarded,
                    ledger.blocked,
                    ledger.dropped,
                    ledger.delayed,
                    ledger.corrupted,
                    ledger.resets,
                    ledger.trickled,
                );
                if let Some(j) = &journal_file {
                    if let Err(e) = j.append_completed(&cell, level, inst_seed, &r) {
                        eprintln!("journal: append failed for {cell} level {level}: {e}");
                    }
                }
                r
            }
        };
        let anomalies: usize = AnomalyKind::ALL.iter().map(|k| r.analysis.count(*k)).sum();
        let _ = writeln!(
            out,
            "  level {level}: {}; {} write(s); {anomalies} anomaly observation(s)",
            if r.salvaged {
                "SALVAGED"
            } else if r.completed {
                "completed"
            } else {
                "INCOMPLETE"
            },
            r.writes_total,
        );
    }
    Ok(())
}

/// One wire sweep level: a loopback server, the chaos interposer in
/// front of every listener, the fault driver replaying the plan's
/// service actions against the live replicas, and a probe instance
/// pointed at the proxies.
fn run_wire_chaos_level(
    service: ServiceKind,
    kind: TestKind,
    seed: u64,
    level: u32,
    inst_seed: u64,
    plan: &FaultPlan,
    inject: InjectProfile,
) -> Result<(TestResult, ChaosLedger), CliError> {
    let server = WireServer::start(&ServeConfig::loopback(service, seed))
        .map_err(|e| CliError(format!("wire chaos serve: {e}")))?;
    let targets: Vec<ChaosTarget> = server
        .addrs()
        .iter()
        .map(|&(region, addr)| ChaosTarget { region, replica_region: region, addr })
        .collect();
    let chaos_config = ChaosConfig {
        seed: seed ^ (u64::from(level) << 32),
        plan: plan.clone(),
        inject,
        base_port: 0,
    };
    let proxy = ChaosProxy::start(&chaos_config, &targets)
        .map_err(|e| CliError(format!("wire chaos interposer: {e}")))?;
    let mut pc = ProbeConfig::loopback(service, kind, proxy.addrs().to_vec(), inst_seed);
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
    let r = probe_res.map_err(|e| CliError(format!("wire chaos probe: {e}")))?;
    Ok((r, ledger))
}

fn report_analysis(
    out: &mut String,
    analysis: &conprobe_core::TestAnalysis<PostId>,
    trace: &TestTrace<PostId>,
    show_timeline: bool,
) {
    let _ =
        writeln!(out, "operations: {} writes, {} reads", trace.write_count(), trace.read_count());
    for kind in AnomalyKind::ALL {
        let n = analysis.count(kind);
        if n > 0 {
            let _ = writeln!(out, "  {kind}: {n} observation(s)");
        }
    }
    if analysis.is_clean() {
        let _ = writeln!(out, "  no anomalies");
    }
    let _ = writeln!(out, "{}", Verdict::from_analysis(analysis));
    if show_timeline {
        let _ = writeln!(out, "\n{}", timeline::render(trace, &analysis.observations, 72));
    }
}

/// A metrics-only sink for `--metrics` runs (no event log: the registry
/// is the product, and counters/gauges/histograms are cheap everywhere).
fn metrics_sink() -> ObsSink {
    ObsSink::default()
}

/// Writes the sink's registry dump to `path` and notes it in `out`.
fn write_metrics(sink: &ObsSink, path: &str, out: &mut String) -> Result<(), CliError> {
    let json = sink.metrics.to_json().to_pretty();
    crate::fsio::write_atomic(path, json).map_err(|e| CliError(format!("write {path}: {e}")))?;
    let _ = writeln!(out, "metrics written to {path}");
    Ok(())
}

/// Opens the journal implied by `--journal` (fresh) or `--resume`
/// (recover + continue). Recovery diagnostics go to stderr so stdout
/// stays byte-comparable between resumed and uninterrupted runs.
fn open_journal(
    journal_out: &Option<String>,
    resume: &Option<String>,
) -> Result<(Option<Journal>, Option<Recovery>), CliError> {
    match (journal_out, resume) {
        (None, None) => Ok((None, None)),
        (Some(path), None) => {
            let j = Journal::create(path).map_err(|e| CliError(format!("journal {path}: {e}")))?;
            Ok((Some(j), None))
        }
        (_, Some(path)) => {
            let (j, r) =
                Journal::resume(path).map_err(|e| CliError(format!("resume {path}: {e}")))?;
            if let Some(tail) = &r.tail {
                eprintln!("journal {path}: {tail}");
            }
            if r.duplicates > 0 {
                eprintln!("journal {path}: {} superseded duplicate record(s)", r.duplicates);
            }
            eprintln!("journal {path}: recovered {} record(s); continuing", r.records.len());
            Ok((Some(j), Some(r)))
        }
    }
}

/// Test hook shared with CI's kill-and-resume drill:
/// `CONPROBE_INJECT_PANIC=i,j,…` makes the campaign workers for those
/// instance indices panic (each is quarantined, not fatal).
fn injected_panics() -> Vec<u32> {
    std::env::var("CONPROBE_INJECT_PANIC")
        .map(|v| v.split(',').filter_map(|s| s.trim().parse().ok()).collect())
        .unwrap_or_default()
}

/// Appends quarantine lines for crashed instances (stdout — a campaign
/// with quarantined tests must say so in its report).
fn report_crashed(out: &mut String, crashed: &[conprobe_harness::campaign::CrashedInstance]) {
    for c in crashed {
        let _ = writeln!(
            out,
            "  QUARANTINED instance {} (seed {:#x}): worker panicked: {}",
            c.index, c.seed, c.panic
        );
    }
}

/// Executes a command, returning the text to print.
pub fn execute(cmd: Command) -> Result<String, CliError> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Services => {
            for s in ServiceKind::CATALOG {
                let topo = conprobe_services::catalog::topology(s);
                let _ = writeln!(
                    out,
                    "{:<10} — {} replica(s): {}",
                    s.name(),
                    topo.replicas.len(),
                    topo.replicas.iter().map(|(r, _)| r.to_string()).collect::<Vec<_>>().join(", ")
                );
            }
        }
        Command::Run {
            service,
            kind,
            seed,
            guard,
            whitebox,
            show_timeline,
            json_out,
            metrics_out,
        } => {
            let mut config = TestConfig::paper(service, kind);
            config.use_guard = guard;
            if whitebox {
                config.whitebox_period = Some(SimDuration::from_millis(100));
            }
            let sink = metrics_out.as_ref().map(|_| metrics_sink());
            config.obs = sink.clone();
            let r = run_one_test(&config, seed);
            let _ = writeln!(
                out,
                "{service} {kind} (seed {seed}): {} in {:.1}s",
                if r.completed { "completed" } else { "TIMED OUT" },
                r.duration_secs
            );
            report_analysis(&mut out, &r.analysis, &r.trace, show_timeline);
            if let Some(report) = &r.whitebox {
                let _ = writeln!(
                    out,
                    "white-box: {} samples over {} replicas; true content divergence: {}, \
                     true order divergence: {}",
                    report.samples,
                    report.replicas,
                    report.any_true_content_divergence(),
                    report.any_true_order_divergence()
                );
            }
            if let Some(path) = json_out {
                let json = ToJson::to_json(&r.trace).to_pretty();
                crate::fsio::write_atomic(&path, json)
                    .map_err(|e| CliError(format!("write {path}: {e}")))?;
                let _ = writeln!(out, "trace written to {path}");
            }
            if let (Some(sink), Some(path)) = (&sink, &metrics_out) {
                write_metrics(sink, path, &mut out)?;
            }
        }
        Command::Analyze { path, test1 } => {
            let json = std::fs::read_to_string(&path)
                .map_err(|e| CliError(format!("read {path}: {e}")))?;
            let doc =
                conprobe_json::parse(&json).map_err(|e| CliError(format!("parse {path}: {e}")))?;
            let trace: TestTrace<PostId> =
                FromJson::from_json(&doc).map_err(|e| CliError(format!("parse {path}: {e}")))?;
            let config = if test1 {
                CheckerConfig {
                    wfr_mode: WfrMode::TriggerPairs(test1_trigger_pairs(3)),
                    compute_windows: true,
                }
            } else {
                CheckerConfig::default()
            };
            let analysis = analyze(&trace, &config);
            let _ = writeln!(out, "analyzed {path}:");
            report_analysis(&mut out, &analysis, &trace, true);
        }
        Command::Chaos {
            service,
            kind,
            seed,
            levels,
            wire,
            outage_trace,
            metrics_out,
            journal_out,
            resume,
        } => {
            if wire {
                if metrics_out.is_some() {
                    return Err(CliError(
                        "chaos --wire has no metrics registry to dump; drop --metrics".into(),
                    ));
                }
                run_wire_chaos_sweep(
                    &mut out,
                    service,
                    kind,
                    seed,
                    levels,
                    &outage_trace,
                    &journal_out,
                    &resume,
                )?;
            } else {
                run_sim_chaos_sweep(
                    &mut out,
                    service,
                    kind,
                    seed,
                    levels,
                    &outage_trace,
                    &metrics_out,
                    &journal_out,
                    &resume,
                )?;
            }
        }
        Command::Campaign { service, kind, tests, seed, metrics_out, journal_out, resume } => {
            let mut config =
                conprobe_harness::CampaignConfig::paper(service, kind, tests).with_seed(seed);
            let sink = metrics_out.as_ref().map(|_| metrics_sink());
            config.test.obs = sink.clone();
            config.inject_panic = injected_panics();
            let (journal_file, recovery) = open_journal(&journal_out, &resume)?;
            // Progress to stderr (stdout carries the report): completed
            // count and instantaneous throughput, overwritten in place.
            let started = std::time::Instant::now();
            let progress = move |done: usize, total: usize| {
                let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
                eprint!("\r  {done}/{total} tests ({rate:.1} tests/sec)");
                if done == total {
                    eprintln!();
                }
            };
            let cell = journal::cell_id(service, kind);
            let result = conprobe_harness::campaign::run_campaign_journaled(
                &config,
                Some(&progress),
                &cell,
                journal_file.as_ref(),
                recovery.as_ref(),
            );
            if result.resumed > 0 {
                eprintln!("  {} instance(s) spliced from the journal", result.resumed);
            }
            let _ = writeln!(
                out,
                "{service} {kind} × {tests}: {}/{} completed, {} reads, {} writes",
                result.completed(),
                tests,
                result.total_reads(),
                result.total_writes()
            );
            report_crashed(&mut out, &result.crashed);
            for kind in AnomalyKind::ALL {
                let p = stats::prevalence(&result.results, kind);
                if p > 0.0 {
                    let _ = writeln!(out, "  {kind:<22} {p:>5.1}% of tests");
                }
            }
            if let (Some(sink), Some(path)) = (&sink, &metrics_out) {
                write_metrics(sink, path, &mut out)?;
            }
        }
        Command::Trace { service, kind, seed, level, target, cap } => {
            let mut log = EventLog::new(cap).with_min_severity(level);
            if let Some(prefix) = &target {
                log = log.with_target_prefix(prefix.clone());
            }
            let sink = ObsSink::with_log(log);
            let mut config = TestConfig::paper(service, kind);
            config.obs = Some(sink.clone());
            let r = run_one_test(&config, seed);
            let events = sink.log.drain();
            for e in &events {
                eprintln!("{}", e.render());
            }
            let _ = writeln!(
                out,
                "{service} {kind} (seed {seed}): {} in {:.1}s; {} event(s) at {level} or \
                 above{} ({} evicted)",
                if r.completed { "completed" } else { "TIMED OUT" },
                r.duration_secs,
                events.len(),
                target.map(|t| format!(" under '{t}'")).unwrap_or_default(),
                sink.log.evicted(),
            );
            report_analysis(&mut out, &r.analysis, &r.trace, false);
        }
        Command::Repro { tests, seed, metrics_out, journal_out, resume } => {
            let sink = metrics_out.as_ref().map(|_| metrics_sink());
            let (journal_file, recovery) = open_journal(&journal_out, &resume)?;
            let inject = injected_panics();
            let _ = writeln!(out, "mini-study: {tests} instance(s) per cell (seed {seed})");
            let _ = writeln!(
                out,
                "  {:<10} {:<6} {:>10} {:>8} {:>8}",
                "service", "test", "completed", "reads", "writes"
            );
            let mut all: Vec<(ServiceKind, Vec<conprobe_harness::runner::TestResult>)> = Vec::new();
            for service in ServiceKind::ALL {
                let mut rows = Vec::new();
                for kind in [TestKind::Test1, TestKind::Test2] {
                    let mut config = conprobe_harness::CampaignConfig::paper(service, kind, tests);
                    config.seed ^= seed;
                    config.test.obs = sink.clone();
                    config.inject_panic = inject.clone();
                    let cell = journal::cell_id(service, kind);
                    let result = conprobe_harness::campaign::run_campaign_journaled(
                        &config,
                        None,
                        &cell,
                        journal_file.as_ref(),
                        recovery.as_ref(),
                    );
                    if result.resumed > 0 {
                        eprintln!(
                            "  {cell}: {} instance(s) spliced from the journal",
                            result.resumed
                        );
                    }
                    let _ = writeln!(
                        out,
                        "  {:<10} {:<6} {:>6}/{:<3} {:>8} {:>8}",
                        service.name(),
                        kind.to_string(),
                        result.completed(),
                        tests,
                        result.total_reads(),
                        result.total_writes()
                    );
                    report_crashed(&mut out, &result.crashed);
                    rows.extend(result.results);
                }
                all.push((service, rows));
            }
            let _ = writeln!(out, "anomaly prevalence (% of tests, both test kinds pooled):");
            for (service, rows) in &all {
                let mut cells = Vec::new();
                for kind in AnomalyKind::ALL {
                    let p = stats::prevalence(rows, kind);
                    if p > 0.0 {
                        cells.push(format!("{}={p:.1}%", kind.short()));
                    }
                }
                let _ = writeln!(
                    out,
                    "  {:<10} {}",
                    service.name(),
                    if cells.is_empty() { "clean".to_string() } else { cells.join(" ") }
                );
            }
            if let (Some(sink), Some(path)) = (&sink, &metrics_out) {
                write_metrics(sink, path, &mut out)?;
            }
        }
        Command::JournalInspect { path } => {
            let recovery = Journal::recover(&path).map_err(|e| CliError(format!("{path}: {e}")))?;
            let _ = writeln!(
                out,
                "{path}: {} record(s), {} superseded duplicate(s)",
                recovery.total_records, recovery.duplicates
            );
            match &recovery.tail {
                Some(t) => {
                    let _ = writeln!(out, "  tail: {t}");
                }
                None => {
                    let _ = writeln!(out, "  tail: clean");
                }
            }
            for cell in journal::summarize(&recovery) {
                let _ = writeln!(
                    out,
                    "  {:<20} {} completed, {} crashed (max instance {})",
                    cell.cell, cell.completed, cell.crashed, cell.max_instance
                );
            }
            for (key, panic) in recovery.crashed() {
                let _ = writeln!(
                    out,
                    "  crashed: {} instance {} (seed {:#x}): {panic}",
                    key.cell, key.instance, key.seed
                );
            }
        }
        Command::Serve {
            service,
            seed,
            base_port,
            latency_scale,
            drop_prob,
            stale,
            stop_file,
            ready_file,
            max_secs,
            metrics_out,
            shards,
            event_loops,
            max_conns,
            stall_budget_ms,
            fault_level,
            fault_seed,
            outage_trace,
        } => {
            let plan = load_fault_plan(&outage_trace, fault_level, fault_seed.unwrap_or(seed))?;
            if !plan.network_effects().is_empty() {
                eprintln!(
                    "note: the plan's {} network effect(s) need the chaosd interposer; \
                     serve executes service actions only",
                    plan.network_effects().len()
                );
            }
            let config = ServeConfig {
                kind: service,
                seed,
                stale_window: stale.map(|(replica, lag_ms)| StaleWindow {
                    replica,
                    lag_nanos: lag_ms * 1_000_000,
                }),
                latency_scale,
                drop_prob,
                base_port,
                stop_file: stop_file.map(Into::into),
                shards,
                event_loops,
                max_connections: max_conns,
                stall_budget: Duration::from_millis(stall_budget_ms),
            };
            let server = WireServer::start(&config).map_err(|e| CliError(format!("serve: {e}")))?;
            let mut lines = String::new();
            for (region, addr) in server.addrs() {
                let _ = writeln!(lines, "{}={addr}", region_token(*region));
            }
            // Probes read the shard count back to label keyed cells;
            // `resolve_endpoints` skips this line.
            let _ = writeln!(lines, "shards={}", server.shard_count());
            eprint!("serving {service} (seed {seed}) on:\n{lines}");
            if let Some(path) = &ready_file {
                crate::fsio::write_atomic(path, &lines)
                    .map_err(|e| CliError(format!("write {path}: {e}")))?;
                eprintln!("endpoints written to {path}");
            }
            let started = std::time::Instant::now();
            std::thread::scope(|scope| {
                // The fault driver replays the plan's crash/recover/
                // brownout timeline against the live replicas while the
                // main thread watches for the drain triggers; a drain
                // makes the driver bail out at its next 20 ms slice.
                if !plan.service_actions().is_empty() {
                    scope.spawn(|| {
                        let n = drive_service_actions(&server, &plan, |line| {
                            eprintln!("fault: {line}")
                        });
                        eprintln!("fault plan drained: {n} service action(s) executed");
                    });
                }
                while !server.stopping() {
                    if let Some(cap) = max_secs {
                        if started.elapsed() >= Duration::from_secs(cap) {
                            server.request_stop();
                            break;
                        }
                    }
                    std::thread::sleep(Duration::from_millis(50));
                }
            });
            let metrics_json = server.join();
            let _ =
                writeln!(out, "{service} drained after {:.1}s", started.elapsed().as_secs_f64());
            if let Some(path) = &metrics_out {
                crate::fsio::write_atomic(path, &metrics_json)
                    .map_err(|e| CliError(format!("write {path}: {e}")))?;
                let _ = writeln!(out, "metrics written to {path}");
            }
        }
        Command::Chaosd {
            server_file,
            seed,
            fault_level,
            fault_seed,
            outage_trace,
            corrupt,
            reset,
            trickle,
            base_port,
            ready_file,
            stop_file,
            max_secs,
        } => {
            let upstream = resolve_endpoints(&[], &Some(server_file.clone()))?;
            let shards = resolve_shard_count(&Some(server_file.clone()))?;
            let plan = load_fault_plan(&outage_trace, fault_level, fault_seed.unwrap_or(seed))?;
            if !plan.service_actions().is_empty() {
                eprintln!(
                    "note: the plan's {} service action(s) need `serve --fault-level`; \
                     chaosd injects network effects only",
                    plan.service_actions().len()
                );
            }
            let targets: Vec<ChaosTarget> = upstream
                .iter()
                .map(|&(region, addr)| ChaosTarget { region, replica_region: region, addr })
                .collect();
            let config = ChaosConfig {
                seed,
                plan,
                inject: InjectProfile {
                    corrupt_prob: corrupt,
                    reset_prob: reset,
                    trickle_prob: trickle,
                    ..InjectProfile::default()
                },
                base_port,
            };
            let proxy = ChaosProxy::start(&config, &targets)
                .map_err(|e| CliError(format!("chaosd: {e}")))?;
            let mut lines = String::new();
            for (region, addr) in proxy.addrs() {
                let _ = writeln!(lines, "{}={addr}", region_token(*region));
            }
            if let Some(n) = shards {
                // Pass the upstream shard count through so probes pointed
                // at the interposer still label keyed cells correctly.
                let _ = writeln!(lines, "shards={n}");
            }
            eprint!("chaos interposer (seed {seed}) on:\n{lines}");
            if let Some(path) = &ready_file {
                crate::fsio::write_atomic(path, &lines)
                    .map_err(|e| CliError(format!("write {path}: {e}")))?;
                eprintln!("endpoints written to {path}");
            }
            let started = std::time::Instant::now();
            loop {
                if let Some(cap) = max_secs {
                    if started.elapsed() >= Duration::from_secs(cap) {
                        break;
                    }
                }
                if let Some(f) = &stop_file {
                    if std::path::Path::new(f).exists() {
                        break;
                    }
                }
                std::thread::sleep(Duration::from_millis(50));
            }
            proxy.request_stop();
            let ledger = proxy.join();
            let _ = writeln!(
                out,
                "chaosd drained after {:.1}s: {} forwarded, {} blocked, {} dropped, \
                 {} delayed, {} corrupted, {} reset, {} trickled",
                started.elapsed().as_secs_f64(),
                ledger.forwarded,
                ledger.blocked,
                ledger.dropped,
                ledger.delayed,
                ledger.corrupted,
                ledger.resets,
                ledger.trickled
            );
        }
        Command::Probe {
            service,
            kind,
            seed,
            tests,
            endpoints,
            server_file,
            read_ms,
            reads_target,
            metrics_out,
            journal_out,
            resume,
            key,
            live,
        } => {
            let endpoints = resolve_endpoints(&endpoints, &server_file)?;
            let _ = writeln!(
                out,
                "{service} {kind} live probe × {tests} (seed {seed}): {} agent(s)",
                endpoints.len()
            );
            let metrics = metrics_out.as_ref().map(|_| MetricsRegistry::new());
            let (journal_file, recovery) = open_journal(&journal_out, &resume)?;
            // A keyed probe addresses one logical object; the cell label
            // records which key and which shard owns it (from the serve
            // ready-file's `shards=` line, defaulting to the serve
            // default) so journals from different placements never mix.
            let cell = match key {
                Some(k) => {
                    let shards = resolve_shard_count(&server_file)?.unwrap_or(16);
                    let shard = conprobe_services::ShardRing::new(shards).shard_for_key(k);
                    format!("wire/{}/k{k}@s{shard}", journal::cell_id(service, kind))
                }
                None => format!("wire/{}", journal::cell_id(service, kind)),
            };
            let recovered = recovery.as_ref().map(|r| r.completed_for(&cell)).unwrap_or_default();
            let root = SimRng::new(seed);
            let mut analysis_config = TestConfig::paper(service, kind);
            analysis_config.agent_regions = endpoints.iter().map(|(r, _)| *r).collect();
            let mut results = Vec::new();
            for i in 0..tests {
                let inst_seed = root.split_indexed("test", u64::from(i)).seed();
                // Splice a journaled instance only when its seed matches
                // the freshly derived one — same rule as `campaign`.
                let spliced = recovered.get(&i).filter(|(rseed, _)| *rseed == inst_seed).and_then(
                    |(_, payload)| journal::result_from_json(&analysis_config, payload).ok(),
                );
                let r = match spliced {
                    Some(r) => {
                        eprintln!("  instance {i} spliced from the journal");
                        r
                    }
                    None => {
                        let mut pc =
                            ProbeConfig::loopback(service, kind, endpoints.clone(), inst_seed);
                        pc.read_period = Duration::from_millis(read_ms);
                        pc.slow_period = Duration::from_millis(read_ms * 2);
                        pc.reads_target = reads_target;
                        pc.fast_reads = reads_target / 2;
                        pc.key = key;
                        let r = if live {
                            // The tap feeds a streaming analyzer on a
                            // monitor thread; its readout goes to stderr
                            // (stdout must stay byte-identical to a
                            // tap-less run).
                            let (tx, rx) = std::sync::mpsc::channel();
                            let agents = endpoints.len();
                            let cc = checker_config_for(&analysis_config);
                            let monitor = std::thread::spawn(move || live_monitor(rx, agents, cc));
                            let res = run_probe_with_live(&pc, Some(tx));
                            match monitor.join() {
                                Ok(analysis) => {
                                    let total: usize =
                                        AnomalyKind::ALL.iter().map(|k| analysis.count(*k)).sum();
                                    eprintln!(
                                        "  instance {i}: live analysis finished: {total} \
                                         anomaly observation(s)"
                                    );
                                }
                                Err(_) => eprintln!("  instance {i}: live monitor panicked"),
                            }
                            res.map_err(|e| CliError(format!("probe: {e}")))?
                        } else {
                            run_probe(&pc).map_err(|e| CliError(format!("probe: {e}")))?
                        };
                        if let Some(j) = &journal_file {
                            if let Err(e) = j.append_completed(&cell, i, inst_seed, &r) {
                                eprintln!("journal: append failed for {cell} instance {i}: {e}");
                            }
                        }
                        r
                    }
                };
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
                let anomalies: usize = AnomalyKind::ALL.iter().map(|k| r.analysis.count(*k)).sum();
                let _ = writeln!(
                    out,
                    "  instance {i}: {}; {} writes; {anomalies} anomaly observation(s)",
                    if r.completed { "completed" } else { "INCOMPLETE" },
                    r.writes_total,
                );
                if let Some(m) = &metrics {
                    m.counter("wire.probe.instances").inc();
                    m.counter("wire.probe.writes").add(u64::from(r.writes_total));
                    m.counter("wire.probe.reads")
                        .add(r.reads_per_agent.iter().map(|&n| u64::from(n)).sum());
                    let bounds = conprobe_obs::latency_bounds_nanos();
                    let h = m.histogram("wire.probe.clock_error_nanos", &bounds);
                    for e in &r.clock_error_nanos {
                        h.record(e.unsigned_abs());
                    }
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
            if let (Some(m), Some(path)) = (&metrics, &metrics_out) {
                let json = m.to_json().to_pretty();
                crate::fsio::write_atomic(path, json)
                    .map_err(|e| CliError(format!("write {path}: {e}")))?;
                let _ = writeln!(out, "metrics written to {path}");
            }
        }
        Command::Dispatch {
            service,
            kind,
            tests,
            seed,
            addr,
            lease_secs,
            ready_file,
            journal_out,
            resume,
        } => {
            let mut config =
                conprobe_harness::CampaignConfig::paper(service, kind, tests).with_seed(seed);
            config.inject_panic = injected_panics();
            let (journal_file, recovery) = open_journal(&journal_out, &resume)?;
            let journal_file =
                journal_file.ok_or(CliError("dispatch requires a journal".into()))?;
            let cell = journal::cell_id(service, kind);
            let listen: std::net::SocketAddr = match &addr {
                Some(a) => a.parse().map_err(|e| CliError(format!("--addr '{a}': {e}")))?,
                None => std::net::SocketAddr::from(([127, 0, 0, 1], 0)),
            };
            let dcfg = DispatchConfig {
                config,
                cell: cell.clone(),
                addr: listen,
                lease_timeout: Duration::from_secs(lease_secs),
            };
            // Same stderr gauge as `campaign` (stdout carries the report,
            // and must stay byte-comparable to a single-process run).
            let started = std::time::Instant::now();
            let progress = move |done: usize, total: usize| {
                let rate = done as f64 / started.elapsed().as_secs_f64().max(1e-9);
                eprint!("\r  {done}/{total} tests ({rate:.1} tests/sec)");
                if done == total {
                    eprintln!();
                }
            };
            let mut on_ready = |bound: std::net::SocketAddr| {
                eprintln!("dispatching {cell} × {tests} on {bound}");
                if let Some(path) = &ready_file {
                    match crate::fsio::write_atomic(path, format!("dispatch={bound}\n")) {
                        Ok(()) => eprintln!("address written to {path}"),
                        Err(e) => eprintln!("write {path}: {e}"),
                    }
                }
            };
            let (result, stats) = run_dispatch(
                &dcfg,
                journal_file,
                recovery.as_ref(),
                &mut on_ready,
                Some(&progress),
            )
            .map_err(|e| CliError(format!("dispatch: {e}")))?;
            if result.resumed > 0 {
                eprintln!("  {} instance(s) spliced from the journal", result.resumed);
            }
            eprintln!(
                "  {} worker connection(s), {} lease(s) re-issued",
                stats.connections, stats.reissued
            );
            let _ = writeln!(
                out,
                "{service} {kind} × {tests}: {}/{} completed, {} reads, {} writes",
                result.completed(),
                tests,
                result.total_reads(),
                result.total_writes()
            );
            report_crashed(&mut out, &result.crashed);
            for kind in AnomalyKind::ALL {
                let p = stats::prevalence(&result.results, kind);
                if p > 0.0 {
                    let _ = writeln!(out, "  {kind:<22} {p:>5.1}% of tests");
                }
            }
        }
        Command::Worker { service, kind, tests, seed, addr, server_file, worker_id } => {
            let mut config =
                conprobe_harness::CampaignConfig::paper(service, kind, tests).with_seed(seed);
            config.inject_panic = injected_panics();
            let target = resolve_dispatch_addr(&addr, &server_file)?;
            let wcfg = WorkerConfig {
                addr: target,
                config,
                cell: journal::cell_id(service, kind),
                worker_id,
                // More patient than the probe default: a worker may dial
                // before its coordinator binds, and campaigns outlive the
                // occasional dropped connection.
                reconnect: ReconnectPolicy {
                    attempts: 10,
                    base_delay: Duration::from_millis(50),
                    max_delay: Duration::from_secs(2),
                    seed: seed ^ u64::from(worker_id),
                },
            };
            let report =
                run_worker(&wcfg).map_err(|e| CliError(format!("worker {worker_id}: {e}")))?;
            let _ = writeln!(
                out,
                "worker {worker_id}: {} completed, {} crashed, {} reconnect(s)",
                report.completed, report.crashed, report.reconnects
            );
        }
        Command::Load {
            addr,
            server_file,
            connections,
            pipeline,
            threads,
            keys,
            secs,
            warmup_secs,
            target_ops,
            metrics_out,
        } => {
            let target = match addr {
                Some(a) => a.parse().map_err(|e| CliError(format!("--addr '{a}': {e}")))?,
                None => resolve_endpoints(&[], &server_file)?
                    .first()
                    .map(|(_, a)| *a)
                    .ok_or(CliError("server file lists no endpoints".into()))?,
            };
            let config = LoadConfig {
                connections,
                pipeline,
                threads,
                keys,
                duration: Duration::from_secs(secs),
                warmup: Duration::from_secs(warmup_secs),
                target_ops_per_sec: target_ops,
                ..LoadConfig::loopback(target)
            };
            let metrics = MetricsRegistry::new();
            let report = run_load(&config, &metrics).map_err(|e| CliError(format!("load: {e}")))?;
            // A saturated percentile fell in the histogram's open-ended
            // overflow bucket: the printed bound is a floor, not a
            // measurement, and is marked as such.
            let sat = |saturated: bool| if saturated { "+ (saturated)" } else { "" };
            let _ = writeln!(
                out,
                "load {target}: {} ops in {:.1}s over {connections} connection(s) \
                 x {pipeline} in-flight ({:.0} ops/sec); \
                 p50 {:.2} ms{}, p99 {:.2} ms{}, p999 {:.2} ms{}; \
                 {} error(s) ({} ordering, {} decode; \
                 {} connection(s) affected, worst {})",
                report.ops,
                report.elapsed_secs,
                report.ops_per_sec,
                report.p50_nanos as f64 / 1e6,
                sat(report.p50_saturated),
                report.p99_nanos as f64 / 1e6,
                sat(report.p99_saturated),
                report.p999_nanos as f64 / 1e6,
                sat(report.p999_saturated),
                report.errors,
                report.ordering_errors,
                report.decode_errors,
                report.conns_with_errors,
                report.max_conn_errors
            );
            if let Some(path) = &metrics_out {
                let json = metrics.to_json().to_pretty();
                crate::fsio::write_atomic(path, json)
                    .map_err(|e| CliError(format!("write {path}: {e}")))?;
                let _ = writeln!(out, "metrics written to {path}");
            }
        }
    }
    Ok(out)
}

/// Resolves probe/load endpoints from `--endpoint` specs or a
/// `serve --ready-file` (lines of `region=host:port`, plus one
/// `shards=N` metadata line that is skipped here).
fn resolve_endpoints(
    specs: &[String],
    server_file: &Option<String>,
) -> Result<Vec<(Region, std::net::SocketAddr)>, CliError> {
    if !specs.is_empty() {
        return specs.iter().map(|s| parse_endpoint(s)).collect();
    }
    let path = server_file.as_ref().ok_or(CliError("no endpoints given".into()))?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError(format!("read {path}: {e}")))?;
    let endpoints: Vec<_> = text
        .lines()
        .filter(|l| !l.trim().is_empty() && !l.trim().starts_with("shards="))
        .map(parse_endpoint)
        .collect::<Result<_, _>>()?;
    if endpoints.is_empty() {
        return Err(CliError(format!("{path} lists no endpoints")));
    }
    Ok(endpoints)
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
) -> conprobe_core::TestAnalysis<PostId> {
    let mut analyzer = StreamingAnalyzer::new(&config);
    let mut queues: Vec<std::collections::VecDeque<conprobe_core::trace::OpRecord<PostId>>> =
        (0..agents).map(|_| std::collections::VecDeque::new()).collect();
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

/// Resolves the dispatch coordinator's address from `--addr` or a
/// `dispatch --ready-file` (a single `dispatch=host:port` line).
fn resolve_dispatch_addr(
    addr: &Option<String>,
    server_file: &Option<String>,
) -> Result<std::net::SocketAddr, CliError> {
    if let Some(a) = addr {
        return a.parse().map_err(|e| CliError(format!("--addr '{a}': {e}")));
    }
    let path = server_file.as_ref().ok_or(CliError("no coordinator address given".into()))?;
    let text = std::fs::read_to_string(path).map_err(|e| CliError(format!("read {path}: {e}")))?;
    for line in text.lines() {
        if let Some(a) = line.trim().strip_prefix("dispatch=") {
            return a.parse().map_err(|e| CliError(format!("{path}: dispatch address '{a}': {e}")));
        }
    }
    Err(CliError(format!("{path} has no dispatch= line")))
}

/// Reads the `shards=N` line a `serve --ready-file` records, if the
/// file (and line) exists. `Ok(None)` when probing `--endpoint` specs
/// directly or against an older ready-file without the line.
fn resolve_shard_count(server_file: &Option<String>) -> Result<Option<usize>, CliError> {
    let Some(path) = server_file else { return Ok(None) };
    let text = std::fs::read_to_string(path).map_err(|e| CliError(format!("read {path}: {e}")))?;
    for line in text.lines() {
        if let Some(n) = line.trim().strip_prefix("shards=") {
            return n
                .parse()
                .map(Some)
                .map_err(|e| CliError(format!("{path}: bad shards line: {e}")));
        }
    }
    Ok(None)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn parses_run_with_flags() {
        let cmd = parse(&args("run --service gplus --test 2 --seed 7 --guard --timeline")).unwrap();
        match cmd {
            Command::Run {
                service,
                kind,
                seed,
                guard,
                show_timeline,
                whitebox,
                json_out,
                metrics_out,
            } => {
                assert_eq!(service, ServiceKind::GooglePlus);
                assert_eq!(kind, TestKind::Test2);
                assert_eq!(seed, 7);
                assert!(guard && show_timeline && !whitebox);
                assert!(json_out.is_none());
                assert!(metrics_out.is_none());
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn parses_trace_with_filters() {
        let cmd = parse(&args(
            "trace --service blogger --test 1 --seed 5 --level warn --target sim --cap 64",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Trace {
                service: ServiceKind::Blogger,
                kind: TestKind::Test1,
                seed: 5,
                level: Severity::Warn,
                target: Some("sim".into()),
                cap: 64,
            }
        );
        assert!(parse(&args("trace")).is_err(), "trace requires --service");
        assert!(parse(&args("trace --service blogger --level loud")).is_err());
    }

    #[test]
    fn trace_replays_a_test_and_counts_events() {
        let out = execute(
            parse(&args("trace --service blogger --test 1 --seed 1 --level debug --cap 100000"))
                .unwrap(),
        )
        .unwrap();
        assert!(out.contains("completed"), "{out}");
        assert!(out.contains("event(s) at DEBUG or above"), "{out}");
        // A full run delivers thousands of messages; zero events would
        // mean the log never reached the world.
        assert!(!out.contains(" 0 event(s)"), "{out}");
    }

    #[test]
    fn run_with_metrics_dumps_the_registry() {
        let dir = std::env::temp_dir().join("conprobe-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("run-metrics.json").to_string_lossy().to_string();
        let out = execute(
            parse(&args(&format!("run --service gplus --test 2 --seed 2 --metrics {path}")))
                .unwrap(),
        )
        .unwrap();
        assert!(out.contains("metrics written to"), "{out}");
        let doc = conprobe_json::parse(&std::fs::read_to_string(&path).unwrap()).unwrap();
        let counters = doc.get("counters").expect("counters block");
        assert!(counters.get("sim.delivered").is_some(), "sim layer counted");
    }

    #[test]
    fn repro_emits_metrics_covering_all_layers() {
        let dir = std::env::temp_dir().join("conprobe-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("repro-metrics.json").to_string_lossy().to_string();
        let out =
            execute(parse(&args(&format!("repro --tests 1 --seed 9 --metrics {path}"))).unwrap())
                .unwrap();
        assert!(out.contains("mini-study"), "{out}");
        assert!(out.contains("Blogger"), "{out}");
        assert!(out.contains("anomaly prevalence"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        let doc = conprobe_json::parse(&json).unwrap();
        // The acceptance bar: one registry dump spanning all four layers.
        let counters = doc.get("counters").expect("counters block");
        assert!(counters.get("sim.delivered").is_some(), "sim layer: {json}");
        assert!(counters.get("harness.tests.completed").is_some(), "harness layer: {json}");
        assert!(counters.get("campaign.tests.completed").is_some(), "campaign layer: {json}");
        let gauges = doc.get("gauges").expect("gauges block");
        assert!(gauges.get("campaign.tests_per_sec").is_some(), "campaign gauges: {json}");
        let has_replica = matches!(counters, conprobe_json::JsonValue::Object(kv)
            if kv.iter().any(|(k, _)| k.starts_with("services.replica.")));
        assert!(has_replica, "services layer: {json}");
        let has_hist = matches!(doc.get("histograms"), Some(conprobe_json::JsonValue::Object(kv))
            if kv.iter().any(|(k, _)| k.contains("propagation_lag_nanos")));
        assert!(has_hist, "propagation-lag histogram: {json}");
    }

    #[test]
    fn parses_service_aliases() {
        for (alias, kind) in [
            ("blogger", ServiceKind::Blogger),
            ("GPLUS", ServiceKind::GooglePlus),
            ("feed", ServiceKind::FacebookFeed),
            ("fbgroup", ServiceKind::FacebookGroup),
        ] {
            assert_eq!(parse_service(alias).unwrap(), kind);
        }
        assert!(parse_service("myspace").is_err());
    }

    #[test]
    fn rejects_missing_and_unknown_args() {
        assert!(parse(&args("run")).is_err(), "run requires --service");
        assert!(parse(&args("run --service blogger --frobnicate")).is_err());
        assert!(parse(&args("bogus")).is_err());
        assert!(parse(&args("analyze")).is_err(), "analyze requires a path");
        assert!(matches!(parse(&args("help")).unwrap(), Command::Help));
        assert!(matches!(parse(&[]).unwrap(), Command::Help));
    }

    #[test]
    fn services_listing_names_all_models() {
        let out = execute(Command::Services).unwrap();
        for name in ["Blogger", "Google+", "FB Feed", "FB Group"] {
            assert!(out.contains(name), "{out}");
        }
    }

    #[test]
    fn run_and_analyze_round_trip() {
        let dir = std::env::temp_dir().join("conprobe-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.json").to_string_lossy().to_string();
        let out = execute(
            parse(&args(&format!("run --service fbgroup --test 1 --seed 3 --json {path}")))
                .unwrap(),
        )
        .unwrap();
        assert!(out.contains("completed"), "{out}");
        assert!(out.contains("monotonic writes"), "{out}");
        assert!(out.contains("strongest compatible level"), "{out}");

        let out = execute(parse(&args(&format!("analyze {path} --test1"))).unwrap()).unwrap();
        assert!(out.contains("analyzed"), "{out}");
        assert!(out.contains("monotonic writes"), "{out}");
        assert!(out.contains("anomalous read"), "timeline shown: {out}");
    }

    #[test]
    fn run_with_whitebox_reports_ground_truth() {
        let out =
            execute(parse(&args("run --service fbfeed --test 2 --seed 2 --whitebox")).unwrap())
                .unwrap();
        assert!(out.contains("white-box:"), "{out}");
        assert!(out.contains("true order divergence: false"), "{out}");
    }

    #[test]
    fn chaos_sweep_reports_interference_per_level() {
        let cmd = parse(&args("chaos --service blogger --test 1 --seed 3 --levels 1")).unwrap();
        assert_eq!(
            cmd,
            Command::Chaos {
                service: ServiceKind::Blogger,
                kind: TestKind::Test1,
                seed: 3,
                levels: 1,
                metrics_out: None,
                journal_out: None,
                resume: None,
                wire: false,
                outage_trace: None,
            }
        );
        let out = execute(cmd).unwrap();
        assert!(out.contains("chaos sweep"), "{out}");
        assert!(out.contains("level 0"), "{out}");
        assert!(out.contains("level 1"), "{out}");
        // Level 0 runs fault-free…
        assert!(out.contains("net 0/0/0"), "{out}");
        // …and the plan builder escalates monotonically.
        assert!(chaos_plan(0, 1).is_empty());
        assert!(chaos_plan(1, 1).events().len() < chaos_plan(4, 1).events().len());
    }

    #[test]
    fn parses_wire_commands() {
        assert!(parse(&args("serve")).is_err(), "serve requires --service");
        assert!(parse(&args("probe --service blogger")).is_err(), "probe requires endpoints");
        assert!(parse(&args("load")).is_err(), "load requires a target");
        assert!(parse(&args("probe --service blogger --endpoint oregon=nonsense")).is_ok());
        let cmd = parse(&args(
            "serve --service gplus --seed 4 --port 9200 --latency-scale 1.0 --drop 0.01 \
             --stale-replica 1 --stale-lag-ms 500 --max-secs 30",
        ))
        .unwrap();
        match cmd {
            Command::Serve { service, seed, base_port, stale, max_secs, .. } => {
                assert_eq!(service, ServiceKind::GooglePlus);
                assert_eq!(seed, 4);
                assert_eq!(base_port, 9200);
                assert_eq!(stale, Some((1, 500)));
                assert_eq!(max_secs, Some(30));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd = parse(&args(
            "probe --service blogger --test 2 --endpoint oregon=127.0.0.1:9200 \
             --endpoint JP=127.0.0.1:9201 --reads 10",
        ))
        .unwrap();
        match cmd {
            Command::Probe { endpoints, tests, reads_target, .. } => {
                assert_eq!(endpoints.len(), 2);
                assert_eq!(tests, 1, "probe defaults to one instance");
                assert_eq!(reads_target, 10);
            }
            other => panic!("wrong parse: {other:?}"),
        }
        assert_eq!(
            parse_endpoint("tokyo=127.0.0.1:9201").unwrap(),
            (Region::Tokyo, "127.0.0.1:9201".parse().unwrap())
        );
        assert!(parse_endpoint("mars=127.0.0.1:9201").is_err());
        assert!(parse_endpoint("tokyo").is_err());
    }

    #[test]
    fn serve_with_max_secs_zero_drains_immediately() {
        let dir = std::env::temp_dir().join("conprobe-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let ready = dir.join(format!("ready-{}.txt", std::process::id()));
        let metrics = dir.join(format!("serve-metrics-{}.json", std::process::id()));
        let out = execute(
            parse(&args(&format!(
                "serve --service blogger --seed 1 --max-secs 0 --ready-file {} --metrics {}",
                ready.display(),
                metrics.display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("drained"), "{out}");
        let listing = std::fs::read_to_string(&ready).unwrap();
        // One listener per agent region, parseable as probe endpoints,
        // plus the shard-count metadata line.
        assert_eq!(listing.lines().count(), Region::AGENTS.len() + 1, "{listing}");
        for line in listing.lines().filter(|l| !l.starts_with("shards=")) {
            parse_endpoint(line).unwrap();
        }
        assert!(listing.lines().any(|l| l == "shards=16"), "{listing}");
        assert_eq!(
            resolve_shard_count(&Some(ready.display().to_string())).unwrap(),
            Some(16),
            "{listing}"
        );
        let json = std::fs::read_to_string(&metrics).unwrap();
        assert!(json.contains("wire.server.connections"), "{json}");
        let _ = std::fs::remove_file(&ready);
        let _ = std::fs::remove_file(&metrics);
    }

    #[test]
    fn probe_cli_runs_against_a_live_server_and_journals() {
        let dir = std::env::temp_dir().join("conprobe-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tag = std::process::id();
        let ready = dir.join(format!("probe-ready-{tag}.txt"));
        let journal_path = dir.join(format!("probe-journal-{tag}.jsonl"));
        let _ = std::fs::remove_file(&journal_path);

        let server =
            conprobe_wire::WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 21))
                .unwrap();
        let mut listing = String::new();
        for (region, addr) in server.addrs() {
            let _ = writeln!(listing, "{}={addr}", region_token(*region));
        }
        crate::fsio::write_atomic(&ready, &listing).unwrap();

        // `--live` on the first run: the streaming readout must not
        // perturb stdout (the resumed run below has no tap and must
        // still compare byte-identical).
        let cmdline = format!(
            "probe --service blogger --test 2 --seed 21 --server-file {} --read-ms 10 \
             --reads 8 --live --journal {}",
            ready.display(),
            journal_path.display()
        );
        let out = execute(parse(&args(&cmdline)).unwrap()).unwrap();
        assert!(out.contains("instance 0: completed"), "{out}");
        assert!(out.contains("anomaly table:"), "{out}");
        // Clean loopback run: all six table rows report zero.
        let table: Vec<&str> = out.lines().skip_while(|l| *l != "anomaly table:").skip(1).collect();
        assert_eq!(table.len(), AnomalyKind::ALL.len(), "{out}");
        for row in table {
            assert!(row.ends_with("0/1 instance(s), 0 observation(s)"), "clean run: {out}");
        }

        // Resume splices instead of re-running (no live traffic needed,
        // but the server is still up so a re-run would also work — the
        // splice message proves it did not).
        let resumed = execute(
            parse(&args(&format!(
                "probe --service blogger --test 2 --seed 21 --server-file {} --read-ms 10 \
                 --reads 8 --resume {}",
                ready.display(),
                journal_path.display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert_eq!(out, resumed, "resumed probe output is byte-identical");

        server.request_stop();
        server.join();
        let _ = std::fs::remove_file(&ready);
        let _ = std::fs::remove_file(&journal_path);
    }

    #[test]
    fn parses_chaosd_and_fault_flags() {
        assert!(parse(&args("chaosd")).is_err(), "chaosd requires --server-file");
        let cmd = parse(&args(
            "chaosd --server-file up.txt --seed 9 --fault-level 3 --fault-seed 11 \
             --corrupt 0.01 --reset 0.02 --trickle 0.03 --port 9400 --ready-file r.txt \
             --stop-file s.txt --max-secs 5",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Chaosd {
                server_file: "up.txt".into(),
                seed: 9,
                fault_level: 3,
                fault_seed: Some(11),
                outage_trace: None,
                corrupt: 0.01,
                reset: 0.02,
                trickle: 0.03,
                base_port: 9400,
                ready_file: Some("r.txt".into()),
                stop_file: Some("s.txt".into()),
                max_secs: Some(5),
            }
        );
        let cmd = parse(&args(
            "serve --service blogger --max-conns 64 --stall-budget-ms 250 --fault-level 2 \
             --outage-trace incidents.json",
        ))
        .unwrap();
        match cmd {
            Command::Serve { max_conns, stall_budget_ms, fault_level, outage_trace, .. } => {
                assert_eq!(max_conns, 64);
                assert_eq!(stall_budget_ms, 250);
                assert_eq!(fault_level, 2);
                assert_eq!(outage_trace.as_deref(), Some("incidents.json"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
        let cmd =
            parse(&args("chaos --service gplus --test 1 --wire --outage-trace t.json")).unwrap();
        match cmd {
            Command::Chaos { wire, outage_trace, .. } => {
                assert!(wire);
                assert_eq!(outage_trace.as_deref(), Some("t.json"));
            }
            other => panic!("wrong parse: {other:?}"),
        }
    }

    #[test]
    fn wire_chaos_plan_escalates_with_level() {
        assert!(wire_chaos_plan(0, 1).is_empty(), "level 0 is the control arm");
        assert!(wire_chaos_plan(1, 1).events().len() < wire_chaos_plan(4, 1).events().len());
        // The crash/rejoin cycle arrives at level 3 so lower levels stay
        // pure network interference.
        assert!(wire_chaos_plan(2, 1).service_actions().is_empty());
        assert!(wire_chaos_plan(3, 1)
            .service_actions()
            .iter()
            .any(|a| format!("{}", a.action) == "crash"));
        // Every fault window must land inside a loopback probe's
        // measured phase, so the whole plan stays under two seconds.
        for level in 0..=4 {
            assert!(wire_chaos_plan(level, 1).end_time() <= SimTime::from_secs(2));
        }
        let inject = wire_inject_profile(3);
        assert!(inject.corrupt_prob > wire_inject_profile(1).corrupt_prob);
        assert!(inject.reset_prob > 0.0 && inject.trickle_prob > 0.0);
    }

    #[test]
    fn chaosd_fronts_a_live_server_and_drains() {
        let dir = std::env::temp_dir().join("conprobe-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tag = std::process::id();
        let upstream_file = dir.join(format!("chaosd-upstream-{tag}.txt"));
        let proxy_file = dir.join(format!("chaosd-ready-{tag}.txt"));

        let server =
            conprobe_wire::WireServer::start(&ServeConfig::loopback(ServiceKind::Blogger, 7))
                .unwrap();
        let mut listing = String::new();
        for (region, addr) in server.addrs() {
            let _ = writeln!(listing, "{}={addr}", region_token(*region));
        }
        let _ = writeln!(listing, "shards={}", server.shard_count());
        crate::fsio::write_atomic(&upstream_file, &listing).unwrap();

        let out = execute(
            parse(&args(&format!(
                "chaosd --server-file {} --seed 7 --max-secs 0 --ready-file {}",
                upstream_file.display(),
                proxy_file.display()
            )))
            .unwrap(),
        )
        .unwrap();
        assert!(out.contains("chaosd drained"), "{out}");

        // The interposer listing is itself a valid serve ready-file:
        // probe endpoints per region plus the shard count passed through
        // from upstream.
        let proxied = std::fs::read_to_string(&proxy_file).unwrap();
        assert_eq!(proxied.lines().count(), Region::AGENTS.len() + 1, "{proxied}");
        for line in proxied.lines().filter(|l| !l.starts_with("shards=")) {
            parse_endpoint(line).unwrap();
        }
        assert_eq!(
            resolve_shard_count(&Some(proxy_file.display().to_string())).unwrap(),
            Some(server.shard_count()),
            "{proxied}"
        );

        server.request_stop();
        server.join();
        let _ = std::fs::remove_file(&upstream_file);
        let _ = std::fs::remove_file(&proxy_file);
    }

    #[test]
    fn wire_chaos_sweep_level_zero_runs_clean() {
        let out = execute(
            parse(&args("chaos --service blogger --test 2 --seed 5 --levels 0 --wire")).unwrap(),
        )
        .unwrap();
        assert!(out.contains("wire chaos sweep"), "{out}");
        assert!(out.contains("level 0: completed"), "{out}");
        // Level 0 is fault-free: the interposer forwards everything and
        // the analysis must come back anomaly-free.
        assert!(out.contains("0 anomaly observation(s)"), "{out}");
    }

    #[test]
    fn parses_dispatch_and_worker_commands() {
        assert!(parse(&args("dispatch --service blogger")).is_err(), "dispatch needs a journal");
        assert!(parse(&args("worker --service blogger")).is_err(), "worker needs an address");
        let cmd = parse(&args(
            "dispatch --service blogger --test 2 --tests 6 --seed 5 --journal j.jsonl \
             --lease-secs 7 --ready-file r.txt",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Dispatch {
                service: ServiceKind::Blogger,
                kind: TestKind::Test2,
                tests: 6,
                seed: 5,
                addr: None,
                lease_secs: 7,
                ready_file: Some("r.txt".into()),
                journal_out: Some("j.jsonl".into()),
                resume: None,
            }
        );
        let cmd = parse(&args(
            "worker --service blogger --test 2 --tests 6 --seed 5 --server-file r.txt \
             --worker-id 3",
        ))
        .unwrap();
        assert_eq!(
            cmd,
            Command::Worker {
                service: ServiceKind::Blogger,
                kind: TestKind::Test2,
                tests: 6,
                seed: 5,
                addr: None,
                server_file: Some("r.txt".into()),
                worker_id: 3,
            }
        );
    }

    #[test]
    fn dispatch_cli_matches_campaign_output_byte_for_byte() {
        let dir = std::env::temp_dir().join("conprobe-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let tag = std::process::id();
        let ready = dir.join(format!("dispatch-ready-{tag}.txt"));
        let journal_path = dir.join(format!("dispatch-journal-{tag}.jsonl"));
        let _ = std::fs::remove_file(&ready);
        let _ = std::fs::remove_file(&journal_path);

        let flags = "--service blogger --test 2 --tests 3 --seed 11";
        let dispatch_cmd = parse(&args(&format!(
            "dispatch {flags} --journal {} --ready-file {}",
            journal_path.display(),
            ready.display()
        )))
        .unwrap();
        let coordinator = std::thread::spawn(move || execute(dispatch_cmd));

        // The ready-file is the coordinator's address handoff.
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while !ready.exists() {
            assert!(std::time::Instant::now() < deadline, "coordinator never bound");
            std::thread::sleep(Duration::from_millis(10));
        }
        let worker_out = execute(
            parse(&args(&format!("worker {flags} --server-file {}", ready.display()))).unwrap(),
        )
        .unwrap();
        assert!(worker_out.contains("3 completed, 0 crashed"), "{worker_out}");

        let dispatched = coordinator.join().unwrap().unwrap();
        let local = execute(parse(&args(&format!("campaign {flags}"))).unwrap()).unwrap();
        assert_eq!(dispatched, local, "dispatched cell diverged from the local campaign");

        let _ = std::fs::remove_file(&ready);
        let _ = std::fs::remove_file(&journal_path);
    }

    #[test]
    fn campaign_summarizes_prevalence() {
        let out = execute(
            parse(&args("campaign --service blogger --test 2 --tests 2 --seed 1")).unwrap(),
        )
        .unwrap();
        assert!(out.contains("2/2 completed"), "{out}");
        assert!(!out.contains("read your writes"), "Blogger clean: {out}");
    }
}
