//! The `conprobe` command-line interface (logic layer).
//!
//! All argument parsing and command execution lives here and returns
//! strings/results so it can be unit-tested; `src/bin/conprobe.rs` is the
//! thin I/O shell. `args` reads each subcommand's flags off its [`USAGE`]
//! synopsis; [`study`], [`repro`], [`chaos`] and [`live`] each hold one
//! command family's argument structs next to the code that runs them.

mod args;
pub mod chaos;
pub mod live;
pub mod repro;
pub mod study;

pub use chaos::{chaos_plan, wire_chaos_plan};

use args::Args;
use std::fmt::Write as _;

/// A parsed CLI invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// Run one test instance and report.
    Run(study::RunArgs),
    /// Analyze a previously exported trace JSON.
    Analyze(study::AnalyzeArgs),
    /// Run a small campaign cell and summarize.
    Campaign(study::CampaignArgs),
    /// Sweep fault-plan intensity levels against one service.
    Chaos(chaos::ChaosArgs),
    /// Replay one test with the structured event log on.
    Trace(study::TraceArgs),
    /// Render the paper's tables and figures.
    Repro(repro::ReproArgs),
    /// Inspect a campaign journal.
    JournalInspect(study::JournalInspectArgs),
    /// Host a catalog service on real TCP listeners.
    Serve(live::ServeArgs),
    /// Interpose deterministic chaos in front of a serve's listeners.
    Chaosd(live::ChaosdArgs),
    /// Run live probe agents against remote `cpw1` endpoints.
    Probe(live::ProbeArgs),
    /// Closed-loop load generator against one `cpw1` endpoint.
    Load(live::LoadArgs),
    /// Coordinate a campaign cell farmed out to `worker` processes.
    Dispatch(live::DispatchArgs),
    /// Pull leased work units from a `dispatch` coordinator.
    Worker(live::WorkerArgs),
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

/// Usage text. Its synopsis blocks are the CLI's grammar: a subcommand
/// accepts exactly the flags its block names, and a flag takes a value
/// exactly when a placeholder follows it inside its brackets.
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
  conprobe repro [--tests N] [--seed N] [--csv DIR] [--report FILE]
               [--metrics FILE] [--journal FILE | --resume FILE]
               [artifact…]
  conprobe journal inspect <journal.jsonl>
  conprobe serve --service <svc> [--seed N] [--port BASE]
               [--latency-scale F]
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
  deterministic replica cores (for quorum, the simulator's own replica
  nodes) run on wall-clock time, with optional artificial WAN latency
  (--latency-scale, from the paper latency matrix; wire loss is chaosd's),
  and on the other arms a seeded staleness window
  (--stale-replica/--stale-lag-ms). It drains gracefully — finishing
  whole frames — when --stop-file appears, a client sends `stop`, or
  --max-secs elapses. The hosted cluster shards its keyspace over
  --shards consistent-hash shards served by --event-loops non-blocking
  event-loop workers; the ready file records shards and service. `probe`
  runs the paper's agents for real: skewed local clocks, Cristian sync
  over the wire, the Test 1/2 cadence, and the unmodified checkers on
  the merged trace; --journal/--resume work exactly as in `campaign`;
  --key K picks the keyspace key (the object) the probe addresses, 0
  by default, and labels the journal cell with it and its shard; --live
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
  JSON) — blackholes, delays and drops them on each door's link to
  its replica (the serve ready-file names the service), and seeded
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

  --journal appends one checksummed record per finished test to FILE as
  the campaign runs, fsync'd in groups (a killed campaign loses at most
  its last 64 finished tests, which --resume re-runs), and refuses a
  FILE that already holds records; --resume recovers FILE (tolerating a
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

/// Parses a raw argument list (without the program name).
pub fn parse(args: &[String]) -> Result<Command, CliError> {
    let a = Args::tokenize(args)?;
    match a.cmd {
        "run" => study::RunArgs::parse(&a).map(Command::Run),
        "analyze" => study::AnalyzeArgs::parse(&a).map(Command::Analyze),
        "campaign" => study::CampaignArgs::parse(&a).map(Command::Campaign),
        "chaos" => chaos::ChaosArgs::parse(&a).map(Command::Chaos),
        "trace" => study::TraceArgs::parse(&a).map(Command::Trace),
        "repro" => repro::ReproArgs::parse(&a).map(Command::Repro),
        "journal" => study::JournalInspectArgs::parse(&a).map(Command::JournalInspect),
        "serve" => live::ServeArgs::parse(&a).map(Command::Serve),
        "chaosd" => live::ChaosdArgs::parse(&a).map(Command::Chaosd),
        "probe" => live::ProbeArgs::parse(&a).map(Command::Probe),
        "load" => live::LoadArgs::parse(&a).map(Command::Load),
        "dispatch" => live::DispatchArgs::parse(&a).map(Command::Dispatch),
        "worker" => live::WorkerArgs::parse(&a).map(Command::Worker),
        "services" => Ok(Command::Services),
        "help" => Ok(Command::Help),
        other => unreachable!("`{other}` has a synopsis but no argument parser"),
    }
}

/// Executes a command, returning the text to print.
pub fn execute(cmd: Command) -> Result<String, CliError> {
    let mut out = String::new();
    match cmd {
        Command::Help => out.push_str(USAGE),
        Command::Services => study::list_services(&mut out),
        Command::Run(args) => args.execute(&mut out)?,
        Command::Analyze(args) => args.execute(&mut out)?,
        Command::Campaign(args) => args.execute(&mut out)?,
        Command::Chaos(args) => args.execute(&mut out)?,
        Command::Trace(args) => args.execute(&mut out)?,
        Command::Repro(args) => args.execute(&mut out)?,
        Command::JournalInspect(args) => args.execute(&mut out)?,
        Command::Serve(args) => args.execute(&mut out)?,
        Command::Chaosd(args) => args.execute(&mut out)?,
        Command::Probe(args) => args.execute(&mut out)?,
        Command::Load(args) => args.execute(&mut out)?,
        Command::Dispatch(args) => args.execute(&mut out)?,
        Command::Worker(args) => args.execute(&mut out)?,
    }
    Ok(out)
}

/// Writes `contents` to `path` atomically.
fn write_file(path: &str, contents: impl AsRef<[u8]>) -> Result<(), CliError> {
    crate::fsio::write_atomic(path, contents).map_err(|e| CliError(format!("write {path}: {e}")))
}

/// The `--metrics FILE` tail of a command: dumps the registry JSON and
/// notes it in `out`. Without the flag, `json` is never rendered.
fn write_metrics(
    out: &mut String,
    path: &Option<String>,
    json: impl FnOnce() -> String,
) -> Result<(), CliError> {
    let Some(path) = path else { return Ok(()) };
    write_file(path, json())?;
    let _ = writeln!(out, "metrics written to {path}");
    Ok(())
}

#[cfg(test)]
mod tests;
