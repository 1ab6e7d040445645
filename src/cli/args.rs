//! The CLI's one argument layer: every flag is declared once, every
//! subcommand lists the flags it reads, and one tokenizer rejects
//! everything else — including a real flag handed to a subcommand that
//! would silently ignore it.

use super::CliError;
use conprobe_harness::proto::TestKind;
use conprobe_obs::Severity;
use conprobe_services::ServiceKind;
use conprobe_sim::net::Region;

/// One flag: its spelling and whether it consumes the next token.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(super) struct Flag {
    pub name: &'static str,
    pub takes_value: bool,
}

const fn valued(name: &'static str) -> Flag {
    Flag { name, takes_value: true }
}

const fn switch(name: &'static str) -> Flag {
    Flag { name, takes_value: false }
}

pub(super) const SERVICE: Flag = valued("--service");
pub(super) const TEST: Flag = valued("--test");
pub(super) const SEED: Flag = valued("--seed");
pub(super) const TESTS: Flag = valued("--tests");
pub(super) const LEVELS: Flag = valued("--levels");
pub(super) const GUARD: Flag = switch("--guard");
pub(super) const WHITEBOX: Flag = switch("--whitebox");
pub(super) const TIMELINE: Flag = switch("--timeline");
pub(super) const TEST1: Flag = switch("--test1");
pub(super) const JSON: Flag = valued("--json");
pub(super) const METRICS: Flag = valued("--metrics");
pub(super) const JOURNAL: Flag = valued("--journal");
pub(super) const RESUME: Flag = valued("--resume");
pub(super) const LEVEL: Flag = valued("--level");
pub(super) const TARGET: Flag = valued("--target");
pub(super) const CAP: Flag = valued("--cap");
pub(super) const WIRE: Flag = switch("--wire");
pub(super) const OUTAGE_TRACE: Flag = valued("--outage-trace");
pub(super) const PORT: Flag = valued("--port");
pub(super) const LATENCY_SCALE: Flag = valued("--latency-scale");
pub(super) const DROP: Flag = valued("--drop");
pub(super) const STALE_REPLICA: Flag = valued("--stale-replica");
pub(super) const STALE_LAG_MS: Flag = valued("--stale-lag-ms");
pub(super) const SHARDS: Flag = valued("--shards");
pub(super) const EVENT_LOOPS: Flag = valued("--event-loops");
pub(super) const MAX_CONNS: Flag = valued("--max-conns");
pub(super) const STALL_BUDGET_MS: Flag = valued("--stall-budget-ms");
pub(super) const FAULT_LEVEL: Flag = valued("--fault-level");
pub(super) const FAULT_SEED: Flag = valued("--fault-seed");
pub(super) const STOP_FILE: Flag = valued("--stop-file");
pub(super) const READY_FILE: Flag = valued("--ready-file");
pub(super) const MAX_SECS: Flag = valued("--max-secs");
pub(super) const CORRUPT: Flag = valued("--corrupt");
pub(super) const RESET: Flag = valued("--reset");
pub(super) const TRICKLE: Flag = valued("--trickle");
pub(super) const ENDPOINT: Flag = valued("--endpoint");
pub(super) const SERVER_FILE: Flag = valued("--server-file");
pub(super) const ADDR: Flag = valued("--addr");
pub(super) const READ_MS: Flag = valued("--read-ms");
pub(super) const READS: Flag = valued("--reads");
pub(super) const KEY: Flag = valued("--key");
pub(super) const LIVE: Flag = switch("--live");
pub(super) const CONNECTIONS: Flag = valued("--connections");
pub(super) const PIPELINE: Flag = valued("--pipeline");
pub(super) const THREADS: Flag = valued("--threads");
pub(super) const KEYS: Flag = valued("--keys");
pub(super) const SECS: Flag = valued("--secs");
pub(super) const WARMUP_SECS: Flag = valued("--warmup-secs");
pub(super) const TARGET_OPS: Flag = valued("--target-ops");
pub(super) const LEASE_SECS: Flag = valued("--lease-secs");
pub(super) const WORKER_ID: Flag = valued("--worker-id");

/// Every subcommand and the flags it reads. A flag missing from a
/// subcommand's row is an error there, never silently dropped; a test
/// holds these rows and the `USAGE` synopses to each other.
pub(super) const TABLES: &[(&str, &[Flag])] = &[
    ("run", &[SERVICE, TEST, SEED, GUARD, WHITEBOX, TIMELINE, JSON, METRICS]),
    ("analyze", &[TEST1]),
    ("campaign", &[SERVICE, TEST, TESTS, SEED, METRICS, JOURNAL, RESUME]),
    ("chaos", &[SERVICE, TEST, SEED, LEVELS, WIRE, OUTAGE_TRACE, METRICS, JOURNAL, RESUME]),
    ("trace", &[SERVICE, TEST, SEED, LEVEL, TARGET, CAP]),
    ("repro", &[TESTS, SEED, METRICS, JOURNAL, RESUME]),
    ("journal", &[]),
    (
        "serve",
        &[
            SERVICE,
            SEED,
            PORT,
            LATENCY_SCALE,
            DROP,
            STALE_REPLICA,
            STALE_LAG_MS,
            SHARDS,
            EVENT_LOOPS,
            MAX_CONNS,
            STALL_BUDGET_MS,
            FAULT_LEVEL,
            FAULT_SEED,
            OUTAGE_TRACE,
            STOP_FILE,
            READY_FILE,
            MAX_SECS,
            METRICS,
        ],
    ),
    (
        "chaosd",
        &[
            SERVER_FILE,
            SEED,
            PORT,
            FAULT_LEVEL,
            FAULT_SEED,
            OUTAGE_TRACE,
            CORRUPT,
            RESET,
            TRICKLE,
            READY_FILE,
            STOP_FILE,
            MAX_SECS,
        ],
    ),
    (
        "probe",
        &[
            SERVICE,
            TEST,
            SEED,
            TESTS,
            ENDPOINT,
            SERVER_FILE,
            READ_MS,
            READS,
            KEY,
            LIVE,
            METRICS,
            JOURNAL,
            RESUME,
        ],
    ),
    (
        "load",
        &[
            ADDR,
            SERVER_FILE,
            CONNECTIONS,
            PIPELINE,
            THREADS,
            KEYS,
            SECS,
            WARMUP_SECS,
            TARGET_OPS,
            METRICS,
        ],
    ),
    ("dispatch", &[SERVICE, TEST, TESTS, SEED, JOURNAL, RESUME, ADDR, LEASE_SECS, READY_FILE]),
    ("worker", &[SERVICE, TEST, TESTS, SEED, ADDR, SERVER_FILE, WORKER_ID]),
    ("services", &[]),
    ("help", &[]),
];

/// A tokenized invocation: the subcommand, the flags it was given (all
/// of them declared in its table) and the positional arguments.
pub(super) struct Args<'a> {
    pub cmd: &'static str,
    table: &'static [Flag],
    given: Vec<(Flag, &'a str)>,
    pub positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Splits a raw argument list (without the program name) against the
    /// subcommand's flag table. No arguments at all means `help`.
    pub fn tokenize(args: &'a [String]) -> Result<Self, CliError> {
        let (cmd, rest) = match args.split_first() {
            Some((cmd, rest)) => (cmd.as_str(), rest),
            None => ("help", args),
        };
        let cmd = if matches!(cmd, "--help" | "-h") { "help" } else { cmd };
        let &(cmd, table) = TABLES
            .iter()
            .find(|(name, _)| *name == cmd)
            .ok_or_else(|| CliError(format!("unknown command '{cmd}'")))?;
        let mut parsed = Args { cmd, table, given: Vec::new(), positional: Vec::new() };
        let mut it = rest.iter().map(String::as_str);
        while let Some(token) = it.next() {
            if !token.starts_with('-') {
                parsed.positional.push(token);
                continue;
            }
            let Some(&flag) = table.iter().find(|f| f.name == token) else {
                let elsewhere = TABLES.iter().any(|(_, t)| t.iter().any(|f| f.name == token));
                return Err(CliError(if elsewhere {
                    format!("flag '{token}' does not apply to '{cmd}'")
                } else {
                    format!("unknown flag '{token}'")
                }));
            };
            let value = if flag.takes_value {
                it.next().ok_or_else(|| CliError(format!("{token} needs a value")))?
            } else {
                ""
            };
            parsed.given.push((flag, value));
        }
        Ok(parsed)
    }

    /// The value of the last occurrence of `flag` (`""` for a switch).
    fn last(&self, flag: Flag) -> Option<&'a str> {
        debug_assert!(self.table.contains(&flag), "{} reads undeclared {}", self.cmd, flag.name);
        self.given.iter().rev().find(|(f, _)| *f == flag).map(|&(_, v)| v)
    }

    /// Whether a switch was given.
    pub fn on(&self, flag: Flag) -> bool {
        self.last(flag).is_some()
    }

    /// A flag's value as given.
    pub fn text(&self, flag: Flag) -> Option<String> {
        self.last(flag).map(str::to_string)
    }

    /// Every value of a repeatable flag, in order.
    pub fn all(&self, flag: Flag) -> Vec<String> {
        self.given.iter().filter(|(f, _)| *f == flag).map(|(_, v)| v.to_string()).collect()
    }

    /// A flag's value through a vocabulary parser.
    pub fn get<T>(
        &self,
        flag: Flag,
        parse: fn(&str) -> Result<T, CliError>,
    ) -> Result<Option<T>, CliError> {
        self.last(flag).map(parse).transpose()
    }

    /// A flag's numeric value.
    pub fn num<T: std::str::FromStr>(&self, flag: Flag) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        let parse = |s: &str| s.parse().map_err(|e| CliError(format!("{}: {e}", flag.name)));
        self.last(flag).map(parse).transpose()
    }

    /// The mandatory `--service`.
    pub fn service(&self) -> Result<ServiceKind, CliError> {
        self.get(SERVICE, parse_service)?
            .ok_or_else(|| CliError(format!("{} requires {}", self.cmd, SERVICE.name)))
    }

    /// `--seed`, defaulting to 42.
    pub fn seed(&self) -> Result<u64, CliError> {
        Ok(self.num(SEED)?.unwrap_or(42))
    }
}

pub(super) fn parse_service(s: &str) -> Result<ServiceKind, CliError> {
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
pub(super) fn region_token(r: Region) -> &'static str {
    match r {
        Region::Oregon => "oregon",
        Region::Tokyo => "tokyo",
        Region::Ireland => "ireland",
        Region::Virginia => "virginia",
        Region::Datacenter(_) => "datacenter",
    }
}

/// Parses one `region=host:port` endpoint spec.
pub(super) fn parse_endpoint(s: &str) -> Result<(Region, std::net::SocketAddr), CliError> {
    let (region, addr) = s
        .split_once('=')
        .ok_or_else(|| CliError(format!("endpoint '{s}' is not region=host:port")))?;
    Ok((parse_region(region)?, addr.parse().map_err(|e| CliError(format!("endpoint '{s}': {e}")))?))
}

pub(super) fn parse_test(s: &str) -> Result<TestKind, CliError> {
    match s {
        "1" | "test1" => Ok(TestKind::Test1),
        "2" | "test2" => Ok(TestKind::Test2),
        other => Err(CliError(format!("unknown test '{other}' (use 1 or 2)"))),
    }
}

pub(super) fn parse_level(s: &str) -> Result<Severity, CliError> {
    match s.to_ascii_lowercase().as_str() {
        "debug" => Ok(Severity::Debug),
        "info" => Ok(Severity::Info),
        "warn" => Ok(Severity::Warn),
        "error" => Ok(Severity::Error),
        other => Err(CliError(format!("unknown level '{other}' (use debug|info|warn|error)"))),
    }
}
