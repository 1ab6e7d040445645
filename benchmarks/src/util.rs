//! Small pieces every workload shares: the committed expectations,
//! scratch space and the process's peak memory.

use crate::metrics::Outcome;
use conprobe::json::JsonValue;
use std::path::{Path, PathBuf};

fn expectations() -> JsonValue {
    conprobe::json::parse(include_str!("../expected.json")).expect("expected.json parses")
}

/// The hash `expected.json` commits under `section` for `seed`, if that
/// seed is covered. On any other seed a workload still checks everything
/// that does not need a committed value.
pub fn expected_hash(section: &str, seed: u64) -> Option<u64> {
    let doc = expectations();
    let hex = doc.get(section)?.get(&seed.to_string())?.as_str()?;
    Some(u64::from_str_radix(hex.trim_start_matches("0x"), 16).expect("expected.json holds hex"))
}

/// The four golden fingerprint lines `expected.json` commits, as
/// `conprobe-bench --golden` renders them.
pub fn expected_golden() -> Vec<String> {
    let doc = expectations();
    let lines = doc.get("golden").and_then(JsonValue::as_array).expect("expected.json has golden");
    lines.iter().map(|l| l.as_str().expect("golden lines are strings").to_string()).collect()
}

/// Where scratch files go: `benchmarks/out/`, inside the checkout.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("create benchmarks/out");
    dir
}

/// `VmHWM` of this process, MiB: the most memory it ever held.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let line =
        status.lines().find(|l| l.starts_with("VmHWM:")).ok_or("no VmHWM in /proc/self/status")?;
    let kb: f64 = line
        .split_whitespace()
        .nth(1)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("unreadable VmHWM line {line:?}"))?;
    Ok(kb / 1024.0)
}

/// Sets `peak_rss_mb`. Called when the measurement ends, before the
/// remaining set-ups: what they allocate is the benchmark's doing.
pub fn record_peak_rss(out: &mut Outcome) {
    match peak_rss_mb() {
        Ok(mb) => out.values.set("peak_rss_mb", mb),
        Err(e) => out.errors.push(e),
    }
}

/// The host, as far as it explains a noisy run: cores and load average.
pub fn host_line() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |p| p.get());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    format!("host: nproc {cores}, loadavg {}", load.trim())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn expectations_cover_the_default_seed_and_nothing_invented() {
        assert!(expected_hash("study", 0xB17E).is_some());
        assert!(expected_hash("analyze", 0xB17E).is_some());
        assert_eq!(expected_hash("study", 0xFFFF_FFFF_FFFF), None);
        assert_eq!(expected_hash("nope", 0xB17E), None);
        assert_eq!(expected_golden().len(), 4);
    }

    #[test]
    fn peak_rss_reads_as_a_plausible_size() {
        let mb = peak_rss_mb().unwrap();
        assert!(mb > 1.0 && mb < 1e6, "{mb}");
        assert!(host_line().contains("nproc"));
    }
}
