//! `conprobe`'s benchmark: five workloads over the live and study planes.
//!
//! ```text
//! cargo run --release --manifest-path benchmarks/Cargo.toml -- \
//!     run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]
//! cargo run --release --manifest-path benchmarks/Cargo.toml -- compare A B
//! ```
//!
//! `run --workload W` measures one workload in this process and prints,
//! as the last line of its standard output, one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, every per-layer metric with `--trace 1`. Without
//! `--workload`, every workload runs in a fresh child process, first with
//! tracing off and then traced. See `README.md` beside this package.

mod analyze;
mod calib;
mod compare;
mod gen;
mod layers;
mod live;
mod metrics;
mod span;
mod stats;
mod study;
mod util;

use metrics::{Def, Outcome, END_TO_END, PER_LAYER, WORKLOADS};
use std::io::Write;
use std::process::ExitCode;
use std::time::Instant;

const DEFAULT_SEED: u64 = 0xB17E;
/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 20;
const USAGE: &str = "usage: run [--workload W] [--seed S] [--seconds N] [--trace 0|1] [--out FILE]\n       compare A B";

struct RunArgs {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: Option<bool>,
    out: Option<String>,
}

fn parse_u64(text: &str) -> Option<u64> {
    match text.strip_prefix("0x") {
        Some(hex) => u64::from_str_radix(hex, 16).ok(),
        None => text.parse().ok(),
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: None,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let number = || parse_u64(value).ok_or(format!("{flag} {value}: not a number"));
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => {
                parsed.workload = Some(value.clone())
            }
            "--workload" => return Err(format!("unknown workload {value}; one of {WORKLOADS:?}")),
            "--seed" => parsed.seed = number()?,
            "--seconds" => parsed.seconds = number()?.clamp(1, 60),
            "--trace" => parsed.trace = Some(number()? != 0),
            "--out" => parsed.out = Some(value.clone()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(parsed)
}

/// One workload with tracing off: every end-to-end metric.
fn end_to_end(workload: &str, seed: u64, seconds: u64) -> Outcome {
    match workload {
        "wire-read" => live::end_to_end(live::WIRE_READ, seed, seconds),
        "wire-mixed" => live::end_to_end(live::WIRE_MIXED, seed, seconds),
        "study" => study::run_study(seed, seconds),
        "study-journaled" => study::run_journaled(seed, seconds),
        "analyze" => analyze::run(seed, seconds),
        other => unreachable!("workload {other} passed argument parsing"),
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_json(outcome: &Outcome, metrics: &[(&Def, f64)], extra: &str) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(d, v)| format!("\"{}\":{{\"value\":{v:?},\"unit\":\"{}\"}}", d.name, d.unit))
        .collect();
    format!(
        "{{{extra}\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.errors.is_empty() && outcome.failed == 0,
        outcome.attempted.max(1),
        outcome.failed,
        body.join(",")
    )
}

fn run_one(workload: &str, args: &RunArgs) -> Result<(), String> {
    let traced = args.trace.unwrap_or(false);
    println!(
        "{workload}: seed {:#x}, {} s, trace {}; {}",
        args.seed,
        args.seconds,
        u8::from(traced),
        util::host_line()
    );
    let began = Instant::now();
    let (outcome, list): (Outcome, &[Def]) = if traced {
        let outcome = match layers::run(workload, args.seed, args.seconds) {
            Ok(values) => {
                Outcome { values, attempted: PER_LAYER.len() as u64, ..Outcome::default() }
            }
            Err(e) => Outcome { errors: vec![e], ..Outcome::default() },
        };
        (outcome, &PER_LAYER)
    } else {
        (end_to_end(workload, args.seed, args.seconds), &END_TO_END)
    };
    for e in &outcome.errors {
        eprintln!("{workload}: CHECK FAILED: {e}");
    }
    // A run that could not measure everything it must print has no
    // result to print: fail without one.
    let metrics = outcome.values.exactly(list)?;
    for (d, v) in &metrics {
        println!("{workload:<16} {:<36} {v:>16.4} {}", d.name, d.unit);
    }
    println!("{workload}: done in {:.1} s; {}", began.elapsed().as_secs_f64(), util::host_line());
    if let Some(path) = &args.out {
        let extra = format!(
            "\"workload\":\"{workload}\",\"seed\":{},\"seconds\":{},\"trace\":{},",
            args.seed,
            args.seconds,
            u8::from(traced)
        );
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(path)
            .map_err(|e| format!("{path}: {e}"))?;
        writeln!(file, "{}", result_json(&outcome, &metrics, &extra))
            .map_err(|e| format!("{path}: {e}"))?;
    }
    println!("{}", result_json(&outcome, &metrics, ""));
    Ok(())
}

/// Every workload in a fresh child process: tracing off, then traced
/// (or only the mode `--trace` names).
fn run_all(args: &RunArgs) -> Result<(), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let modes: Vec<bool> = args.trace.map_or(vec![false, true], |t| vec![t]);
    let mut failures = Vec::new();
    for workload in WORKLOADS {
        for &traced in &modes {
            let mut child = std::process::Command::new(&exe);
            child.args(["run", "--workload", workload]);
            child.args(["--seed", &args.seed.to_string(), "--seconds", &args.seconds.to_string()]);
            child.args(["--trace", if traced { "1" } else { "0" }]);
            if let Some(out) = &args.out {
                child.args(["--out", out]);
            }
            let status = child.status().map_err(|e| format!("spawn {workload}: {e}"))?;
            if !status.success() {
                failures
                    .push(format!("{workload} (trace {}) exited with {status}", u8::from(traced)));
            }
        }
    }
    if failures.is_empty() {
        Ok(())
    } else {
        Err(failures.join("; "))
    }
}

fn compare_files(a: &str, b: &str) -> Result<bool, String> {
    let read = |path: &str| {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        compare::parse_runs(&text).map_err(|e| format!("{path}: {e}"))
    };
    let (text, regressed) = compare::render(&compare::compare(&read(a)?, &read(b)?));
    print!("{text}");
    Ok(regressed)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.split_first() {
        Some((cmd, rest)) if cmd == "run" => {
            parse_run_args(rest).and_then(|parsed| match &parsed.workload {
                Some(workload) => run_one(workload, &parsed),
                None => run_all(&parsed),
            })
        }
        Some((cmd, rest)) if cmd == "compare" && rest.len() == 2 => {
            match compare_files(&rest[0], &rest[1]) {
                Ok(false) => Ok(()),
                Ok(true) => Err("at least one metric regressed".into()),
                Err(e) => Err(e),
            }
        }
        _ => Err(USAGE.to_string()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn parses_the_drivers_argument_shape() {
        let parsed = parse_run_args(&args(&[
            "--workload",
            "wire-mixed",
            "--seed",
            "7",
            "--seconds",
            "14",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert_eq!(parsed.workload.as_deref(), Some("wire-mixed"));
        assert_eq!((parsed.seed, parsed.seconds, parsed.trace), (7, 14, Some(true)));
        let defaults = parse_run_args(&[]).unwrap();
        assert_eq!(
            (defaults.seed, defaults.seconds, defaults.trace),
            (0xB17E, DEFAULT_SECONDS, None)
        );
        assert_eq!(parse_run_args(&args(&["--seed", "0xB17E"])).unwrap().seed, 0xB17E);
        assert!(parse_run_args(&args(&["--workload", "nope"])).is_err());
        assert!(parse_run_args(&args(&["--seed"])).is_err());
        assert!(parse_run_args(&args(&["--frobnicate", "1"])).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys_and_full_precision() {
        let mut outcome = Outcome { attempted: 10, ..Outcome::default() };
        outcome.values.set("setup_s", 0.123456789012);
        let metrics = outcome.values.exactly(&END_TO_END[..1]).unwrap();
        let line = result_json(&outcome, &metrics, "");
        let doc = conprobe::json::parse(&line).unwrap();
        let keys: Vec<&str> = doc.as_object().unwrap().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert!(line.contains("\"setup_s\":{\"value\":0.123456789012,\"unit\":\"s\"}"), "{line}");
        assert_eq!(doc.get("correct").and_then(|c| c.as_bool()), Some(true));
        outcome.errors.push("a check failed".into());
        assert!(result_json(&outcome, &metrics, "").contains("\"correct\":false"));
    }
}
