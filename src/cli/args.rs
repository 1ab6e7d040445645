//! The CLI's one argument layer. The `USAGE` synopsis is the grammar:
//! each subcommand's block names every flag it reads and whether that
//! flag takes a value, and one tokenizer rejects everything else —
//! including a real flag handed to a subcommand that would silently
//! ignore it.

use super::{CliError, USAGE};
use conprobe_harness::proto::TestKind;
use conprobe_obs::Severity;
use conprobe_services::ServiceKind;
use conprobe_sim::net::Region;

/// Every subcommand with its synopsis block, in `USAGE` order. A block
/// runs from its `  conprobe <cmd>` line to the next synopsis line or the
/// first blank line; the prose below the synopses is not grammar.
pub(super) fn synopses() -> impl Iterator<Item = (&'static str, &'static str)> {
    let (_, section) = USAGE.split_once("\nUSAGE:\n").expect("USAGE opens a synopsis section");
    let section = section.split("\n\n").next().unwrap_or(section);
    section.split("  conprobe ").skip(1).map(|block| {
        let cmd = block.split_whitespace().next().expect("a synopsis names its command");
        (cmd, block)
    })
}

/// The flags a synopsis block declares, in order, each with whether it
/// takes a value: a `--flag` does iff its own token is not closed by `]`
/// or `)` and the next token is a placeholder — not `|`, `[…`, `(…` or
/// another `--flag`.
pub(super) fn grammar(block: &'static str) -> Vec<(&'static str, bool)> {
    let mut tokens = block.split_whitespace().peekable();
    let mut flags = Vec::new();
    while let Some(token) = tokens.next() {
        let open = token.trim_start_matches(['[', '(']);
        if !open.starts_with("--") {
            continue;
        }
        let name = open.trim_end_matches([']', ')']);
        let placeholder = tokens.peek().is_some_and(|next| {
            *next != "|" && !next.starts_with(['[', '(']) && !next.starts_with("--")
        });
        flags.push((name, name == open && placeholder));
    }
    flags
}

/// A tokenized invocation: the subcommand, the flags it was given (all
/// of them declared in its synopsis) and the positional arguments.
pub(super) struct Args<'a> {
    pub cmd: &'static str,
    declared: Vec<(&'static str, bool)>,
    given: Vec<(&'static str, &'a str)>,
    pub positional: Vec<&'a str>,
}

impl<'a> Args<'a> {
    /// Splits a raw argument list (without the program name) against the
    /// subcommand's synopsis. No arguments at all means `help`.
    pub fn tokenize(args: &'a [String]) -> Result<Self, CliError> {
        let (cmd, rest) = match args.split_first() {
            Some((cmd, rest)) => (cmd.as_str(), rest),
            None => ("help", args),
        };
        let cmd = if matches!(cmd, "--help" | "-h") { "help" } else { cmd };
        let (cmd, block) = synopses()
            .find(|(name, _)| *name == cmd)
            .ok_or_else(|| CliError(format!("unknown command '{cmd}'")))?;
        let mut parsed =
            Args { cmd, declared: grammar(block), given: Vec::new(), positional: Vec::new() };
        let mut it = rest.iter().map(String::as_str);
        while let Some(token) = it.next() {
            if !token.starts_with('-') {
                parsed.positional.push(token);
                continue;
            }
            let Some(&(flag, takes_value)) = parsed.declared.iter().find(|(f, _)| *f == token)
            else {
                let elsewhere =
                    synopses().any(|(_, b)| grammar(b).iter().any(|(f, _)| *f == token));
                return Err(CliError(if elsewhere {
                    format!("flag '{token}' does not apply to '{cmd}'")
                } else {
                    format!("unknown flag '{token}'")
                }));
            };
            let value = if takes_value {
                it.next().ok_or_else(|| CliError(format!("{token} needs a value")))?
            } else {
                ""
            };
            parsed.given.push((flag, value));
        }
        Ok(parsed)
    }

    /// Every value given for `flag`, in order. Reading a flag the
    /// synopsis does not declare is a bug at the parse site, so every
    /// parse test catches a misspelled flag.
    fn values<'s>(&'s self, flag: &'s str) -> impl DoubleEndedIterator<Item = &'a str> + 's {
        assert!(
            self.declared.iter().any(|(f, _)| *f == flag),
            "{} reads undeclared {flag}",
            self.cmd
        );
        self.given.iter().filter(move |(f, _)| *f == flag).map(|&(_, v)| v)
    }

    /// The value of the last occurrence of `flag` (`""` for a switch).
    fn last(&self, flag: &str) -> Option<&'a str> {
        self.values(flag).next_back()
    }

    /// Whether a switch was given.
    pub fn on(&self, flag: &str) -> bool {
        self.last(flag).is_some()
    }

    /// A flag's value as given.
    pub fn text(&self, flag: &str) -> Option<String> {
        self.last(flag).map(str::to_string)
    }

    /// Every value of a repeatable flag, in order.
    pub fn all(&self, flag: &str) -> Vec<String> {
        self.values(flag).map(str::to_string).collect()
    }

    /// A flag's value through a vocabulary parser.
    pub fn get<T>(
        &self,
        flag: &str,
        parse: fn(&str) -> Result<T, CliError>,
    ) -> Result<Option<T>, CliError> {
        self.last(flag).map(parse).transpose()
    }

    /// A flag's numeric value.
    pub fn num<T: std::str::FromStr>(&self, flag: &str) -> Result<Option<T>, CliError>
    where
        T::Err: std::fmt::Display,
    {
        let parse = |s: &str| s.parse().map_err(|e| CliError(format!("{flag}: {e}")));
        self.last(flag).map(parse).transpose()
    }

    /// The mandatory `--service`.
    pub fn service(&self) -> Result<ServiceKind, CliError> {
        self.get("--service", parse_service)?
            .ok_or_else(|| CliError(format!("{} requires --service", self.cmd)))
    }

    /// `--seed`, defaulting to 42.
    pub fn seed(&self) -> Result<u64, CliError> {
        Ok(self.num("--seed")?.unwrap_or(42))
    }

    /// `--tests`, defaulting to `default`. Zero is refused: a run of no
    /// tests would report on nothing as if it had measured something.
    pub fn tests(&self, default: u32) -> Result<u32, CliError> {
        match self.num("--tests")? {
            Some(0) => Err(CliError("--tests must be at least 1".into())),
            tests => Ok(tests.unwrap_or(default)),
        }
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
