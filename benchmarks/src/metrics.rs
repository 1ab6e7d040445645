//! The metric catalogue: every name the benchmark prints, with its unit,
//! direction and — for end-to-end metrics — regression bound.
//!
//! `BENCHMARK.json` at the repository root carries the same catalogue for
//! the driver; a unit test keeps the two identical.

/// Which direction is an improvement.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    /// Smaller is better (times, sizes, counts of work).
    Lower,
    /// Larger is better (rates, efficiencies).
    Higher,
}

#[cfg(test)]
impl Better {
    /// The word `BENCHMARK.json` uses.
    pub fn word(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One catalogued metric.
#[derive(Debug, Clone, Copy)]
pub struct Def {
    /// Name, as printed and as cited by later issues.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// Direction of improvement.
    pub better: Better,
    /// Share of the baseline median by which the metric may worsen before
    /// a change counts as a regression. End-to-end metrics only.
    pub bound: Option<f64>,
}

const fn gated(name: &'static str, unit: &'static str, better: Better, bound: f64) -> Def {
    Def { name, unit, better, bound: Some(bound) }
}

const fn lower(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: Better::Lower, bound: None }
}

const fn higher(name: &'static str, unit: &'static str) -> Def {
    Def { name, unit, better: Better::Higher, bound: None }
}

/// The workloads, in run order. Names are final: later issues cite them.
pub const WORKLOADS: [&str; 5] = ["wire-read", "wire-mixed", "study", "study-journaled", "analyze"];

/// What a user of the system sees. Every workload reports every one of
/// these, measured with tracing off.
///
/// * `setup_s` — process start to the first measured operation: server
///   start and corpus seeding, pool build, golden checks. Quiet quartile
///   of five set-ups per run.
/// * `peak_rss_mb` — `VmHWM` of the workload's process when the
///   measurement ends.
/// * `throughput` — units of work per second at saturation: wire ops
///   (closed loop, 2 × 64 in flight; quiet quartile of the 0.5 s slices),
///   test instances (2 threads; instances ÷ quiet-quartile round), trace
///   operations through all three analysis passes (likewise).
/// * `lat_p50_us` — median wall time of one unit of work as its caller
///   sees it, below saturation: a keyed read at the workload's fixed
///   open-loop rate, timed from the instant it was due; one test instance
///   run alone (journaled, for `study-journaled`); one trace pass.
///
/// The three time-based ones are reported at nominal machine speed (see
/// `calib`). The bounds are the widest the driver's contract allows: on
/// the shared machine the benchmark was sized on, identical runs differ
/// by 5–15 % (inter-quartile over median, ten seeds), and a bound narrower
/// than the instrument's own spread would reject unchanged code.
pub const END_TO_END: [Def; 4] = [
    gated("setup_s", "s", Better::Lower, 0.25),
    gated("peak_rss_mb", "MiB", Better::Lower, 0.25),
    gated("throughput", "1/s", Better::Higher, 0.25),
    gated("lat_p50_us", "us", Better::Lower, 0.25),
];

/// The ten study cells, in run order: the paper matrix plus the two
/// strong control arms on Test 2.
pub const CELLS: [&str; 10] = [
    "gplus-t1",
    "gplus-t2",
    "blogger-t1",
    "blogger-t2",
    "fbfeed-t1",
    "fbfeed-t2",
    "fbgroup-t1",
    "fbgroup-t2",
    "quorum-t2",
    "pbft-t2",
];

/// Single layers, measured by the traced pass (`--trace 1`). No bounds:
/// they explain an end-to-end movement, they do not gate one.
pub const PER_LAYER: [Def; 74] = [
    // wire.frame — cpw1 codec, per op of the wire-mixed sequence.
    lower("wire.frame.enc_req_ns", "ns"),
    lower("wire.frame.dec_req_ns", "ns"),
    lower("wire.frame.enc_resp_ns", "ns"),
    lower("wire.frame.dec_resp_ns", "ns"),
    lower("wire.frame.resp_bytes_per_op", "B"),
    // wire.server — sockets, event-loop sweep, idle ladder.
    lower("wire.server.rtt1_p50_us", "us"),
    lower("wire.server.residual_us", "us"),
    lower("wire.server.frames", "count"),
    lower("wire.server.reads", "count"),
    lower("wire.server.writes", "count"),
    lower("wire.server.drain_ms", "ms"),
    // gen — load-generator health (validity, not performance).
    lower("gen.late_p99_us", "us"),
    lower("gen.busy_frac", "ratio"),
    // rate — latency medians at the fixed open-loop rates.
    lower("rate.lat_lo_p50_us", "us"),
    lower("rate.lat_hi_p50_us", "us"),
    lower("rate.wlat_hi_p50_us", "us"),
    // tail — percentile per slice, median across slices. Reported, not
    // gated: on two shared cores the tail is a scheduler measurement.
    lower("tail.lat_lo_p90_us", "us"),
    lower("tail.lat_lo_p99_us", "us"),
    lower("tail.lat_hi_p90_us", "us"),
    lower("tail.lat_hi_p99_us", "us"),
    lower("tail.lat_hi_p999_us", "us"),
    lower("tail.sat_p50_us", "us"),
    lower("tail.sat_p99_us", "us"),
    lower("tail.max_stall_ms", "ms"),
    // services.shard / services.live — ring lookup and the wall-clock
    // replica group, replayed on virtual time.
    lower("services.shard.lookup_ns", "ns"),
    lower("services.live.read_ns", "ns"),
    lower("services.live.write_ns", "ns"),
    lower("services.live.tick_ns_per_op", "ns"),
    lower("services.live.tick_busy_frac", "ratio"),
    lower("services.live.tick_max_ms", "ms"),
    lower("services.live.converge_virtual_ms", "ms"),
    lower("services.live.rejoin_ms", "ms"),
    // store.replica — one ReplicaCore holding 150 posts.
    lower("store.replica.apply_new_ns", "ns"),
    lower("store.replica.apply_replicated_ns", "ns"),
    lower("store.replica.snapshot_hit_ns", "ns"),
    lower("store.replica.snapshot_rebuild_ns", "ns"),
    lower("store.replica.digest_ns", "ns"),
    // sim.world and the three protocol implementations.
    lower("sim.world.dispatch_ns_per_event", "ns"),
    higher("sim.world.events_per_s", "1/s"),
    lower("services.replica_node.ns_per_event", "ns"),
    lower("services.quorum.ns_per_event", "ns"),
    lower("services.pbft.ns_per_event", "ns"),
    lower("services.quorum.events_per_test", "count"),
    lower("services.pbft.events_per_test", "count"),
    // harness.runner — median timed `run_one_test` per cell.
    lower("harness.runner.test_us.gplus-t1", "us"),
    lower("harness.runner.test_us.gplus-t2", "us"),
    lower("harness.runner.test_us.blogger-t1", "us"),
    lower("harness.runner.test_us.blogger-t2", "us"),
    lower("harness.runner.test_us.fbfeed-t1", "us"),
    lower("harness.runner.test_us.fbfeed-t2", "us"),
    lower("harness.runner.test_us.fbgroup-t1", "us"),
    lower("harness.runner.test_us.fbgroup-t2", "us"),
    lower("harness.runner.test_us.quorum-t2", "us"),
    lower("harness.runner.test_us.pbft-t2", "us"),
    higher("harness.campaign.parallel_eff", "ratio"),
    // harness.journal and the JSON codec under it.
    lower("harness.journal.encode_us_per_record", "us"),
    lower("harness.journal.append_us_per_record", "us"),
    lower("harness.journal.bytes_per_record", "B"),
    lower("harness.journal.parse_us_per_record", "us"),
    lower("harness.journal.recover_us_per_record", "us"),
    lower("harness.journal.overhead_pct", "%"),
    higher("json.encode_mb_per_s", "MB/s"),
    higher("json.parse_mb_per_s", "MB/s"),
    // core — checkers, index, streaming engine, visibility.
    lower("core.analysis.ns_per_op", "ns"),
    lower("core.analysis.ns_per_op_study", "ns"),
    lower("core.index.build_ns_per_op", "ns"),
    lower("core.stream.push_ns_per_event", "ns"),
    lower("core.stream.finish_us", "us"),
    lower("core.stream.retained_bytes_peak", "count"),
    lower("core.visibility.ns_per_record", "ns"),
    // obs and the tracing itself.
    lower("obs.counter_inc_ns", "ns"),
    lower("obs.histogram_record_ns", "ns"),
    lower("obs.study_overhead_pct", "%"),
    lower("trace.overhead_pct", "%"),
];

/// Looks a metric up in either list.
pub fn def(name: &str) -> Option<&'static Def> {
    END_TO_END.iter().chain(PER_LAYER.iter()).find(|d| d.name == name)
}

/// Measured values, by catalogue name.
#[derive(Debug, Default)]
pub struct Values(Vec<(&'static str, f64)>);

impl Values {
    /// Records `name`. The name must be catalogued and not yet set, and
    /// the value finite: a typo or a NaN must fail the run, not print.
    pub fn set(&mut self, name: &str, value: f64) {
        let def = def(name).unwrap_or_else(|| panic!("metric {name} is not in the catalogue"));
        assert!(value.is_finite(), "metric {name} is {value}");
        assert!(self.get(name).is_none(), "metric {name} set twice");
        self.0.push((def.name, value));
    }

    /// The value recorded under `name`.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| *n == name).map(|(_, v)| *v)
    }

    /// The values for exactly the metrics of `list`, in its order.
    ///
    /// # Errors
    ///
    /// Names the first listed metric that was never set.
    pub fn exactly(&self, list: &'static [Def]) -> Result<Vec<(&'static Def, f64)>, String> {
        list.iter()
            .map(|d| {
                self.get(d.name)
                    .map(|v| (d, v))
                    .ok_or(format!("metric {} was not measured", d.name))
            })
            .collect()
    }
}

/// What one run of one workload reports.
#[derive(Debug, Default)]
pub struct Outcome {
    /// The measured metrics.
    pub values: Values,
    /// Units of work attempted inside the measured windows.
    pub attempted: u64,
    /// Of those: failed, wrong, lost or never answered.
    pub failed: u64,
    /// Output checks that did not hold. Any entry makes the run incorrect.
    pub errors: Vec<String>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use conprobe::json::JsonValue;

    #[test]
    fn names_are_unique_and_within_the_contract() {
        let mut seen = std::collections::HashSet::new();
        for d in END_TO_END.iter().chain(PER_LAYER.iter()) {
            assert!(seen.insert(d.name), "duplicate metric {}", d.name);
            assert!(d.name.len() <= 64 && d.unit.len() <= 16, "{} too long", d.name);
            assert!(d.name.chars().next().unwrap().is_ascii_alphanumeric());
            assert!(d.name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)));
            assert!(d.unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)));
        }
        assert!(END_TO_END.iter().all(|d| d.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(PER_LAYER.iter().all(|d| d.bound.is_none()));
        for cell in CELLS {
            assert!(def(&format!("harness.runner.test_us.{cell}")).is_some(), "{cell}");
        }
    }

    #[test]
    fn values_reject_unknown_duplicate_and_missing() {
        let mut v = Values::default();
        v.set("setup_s", 0.5);
        assert_eq!(v.get("setup_s"), Some(0.5));
        assert!(v.exactly(&END_TO_END).unwrap_err().contains("peak_rss_mb"));
        assert!(std::panic::catch_unwind(|| Values::default().set("nope", 1.0)).is_err());
        assert!(std::panic::catch_unwind(|| Values::default().set("setup_s", f64::NAN)).is_err());
    }

    fn listed(doc: &JsonValue, key: &str) -> Vec<(String, String, String, Option<f64>)> {
        doc.get(key)
            .and_then(JsonValue::as_array)
            .unwrap_or_else(|| panic!("BENCHMARK.json lacks {key}"))
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(JsonValue::as_str).unwrap().to_string();
                (s("name"), s("unit"), s("better"), m.get("bound").and_then(JsonValue::as_f64))
            })
            .collect()
    }

    /// `BENCHMARK.json` is what the driver reads; the catalogue above is
    /// what the program prints. They must be the same list.
    #[test]
    fn benchmark_json_matches_the_catalogue() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = conprobe::json::parse(&text).expect("BENCHMARK.json parses");
        let of = |list: &[Def]| -> Vec<(String, String, String, Option<f64>)> {
            list.iter()
                .map(|d| (d.name.into(), d.unit.into(), d.better.word().into(), d.bound))
                .collect()
        };
        assert_eq!(listed(&doc, "end_to_end"), of(&END_TO_END));
        assert_eq!(listed(&doc, "per_layer"), of(&PER_LAYER));
        let workloads: Vec<&str> = doc
            .get("workloads")
            .and_then(JsonValue::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(JsonValue::as_str).unwrap())
            .collect();
        assert_eq!(workloads, WORKLOADS);
        assert_eq!(
            doc.get("run_seconds").and_then(JsonValue::as_u64),
            Some(crate::DEFAULT_SECONDS)
        );
    }
}
