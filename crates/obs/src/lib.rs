//! # conprobe-obs — deterministic observability for long-running campaigns
//!
//! The paper's authors ran each service for ~30 days and could only
//! characterize what their harness logged. This crate is the reproduction's
//! telemetry substrate: a metrics registry of lock-free-ish atomic
//! counters/gauges/log-linear histograms, a bounded ring-buffer event log
//! keyed by **simulation time**, and wall-clock [`Span`] guards for
//! harness/campaign phases.
//!
//! Every [`Histogram`] has one layout: exact below 64, then 32 linear
//! sub-buckets per power of two, 1,920 buckets over all of `u64`, so
//! [`Histogram::quantile`] lands within 1/32 above the exact nearest-rank
//! value. A dump ([`MetricsRegistry::to_json`]) lists only the non-empty
//! buckets, each by its lower bound.
//!
//! ## Determinism contract
//!
//! Observability must never change what a simulation does:
//!
//! * recording a metric or an event draws **no randomness** and schedules
//!   **no events** — it only mutates atomics or appends to a bounded log;
//! * nothing in the simulation ever *reads* a metric back to make a
//!   decision;
//! * every hot-path hook is gated on an `Option`, so a world without an
//!   installed sink pays one branch per event and nothing else.
//!
//! The golden-seed suite (`tests/determinism_golden.rs` at the workspace
//! root) holds this contract: fingerprints must be byte-identical with
//! observability on and off.
//!
//! ## Time bases
//!
//! Metrics recorded *inside* the simulation (delivery counters, propagation
//! lags, coordinator phases) are keyed by sim-time nanoseconds. [`Span`]
//! guards use the host's wall clock and exist for the code *around* the
//! simulation — campaign stages, per-instance timings — where wall time is
//! the quantity of interest. Wall-clock readings never flow back into
//! simulation logic.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use conprobe_json::JsonValue;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// A monotonically increasing counter (atomic, shareable across threads).
#[derive(Debug, Clone)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A counter not attached to any registry (for tests/defaults).
    pub fn detached() -> Self {
        Counter(Arc::new(AtomicU64::new(0)))
    }

    /// Adds one.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A last-value-wins gauge holding an `f64` (stored as bits in an atomic).
#[derive(Debug, Clone)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A gauge not attached to any registry.
    pub fn detached() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }

    /// Sets the value.
    pub fn set(&self, v: f64) {
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> f64 {
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Buckets of the one histogram layout: 64 exact buckets for `0..64`, then
/// 32 linear sub-buckets for each of the 58 powers of two from `2^6` up to
/// `2^63`, so every `u64` has a bucket.
const BUCKETS: usize = 60 * 32;

/// The bucket of `v`: exact below 64; above, the six leading bits of `v`
/// under the shift that keeps them.
fn bucket_of(v: u64) -> usize {
    let shift = (u64::BITS - v.leading_zeros()).saturating_sub(6);
    ((shift as usize) << 5) + (v >> shift) as usize
}

/// The inclusive `(lower, upper)` values of bucket `i`. A lower end has at
/// most six significant bits, so it is exact as an `f64`; the width is at
/// most 1/32 of it.
fn bucket_range(i: usize) -> (u64, u64) {
    let shift = (i >> 5).saturating_sub(1);
    let lower = ((i - (shift << 5)) as u64) << shift;
    (lower, lower + ((1u64 << shift) - 1))
}

#[derive(Debug)]
struct HistogramCore {
    buckets: Box<[AtomicU64]>,
    count: AtomicU64,
    sum: AtomicU64,
    /// Set once `sum` has wrapped: from then on it bounds nothing.
    sum_overflowed: AtomicBool,
}

/// A histogram of `u64` samples (typically nanoseconds) over one fixed
/// log-linear layout: exact below 64, and within 1/32 of every sample
/// above.
#[derive(Debug, Clone)]
pub struct Histogram(Arc<HistogramCore>);

impl Histogram {
    fn new() -> Self {
        Histogram(Arc::new(HistogramCore {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            sum_overflowed: AtomicBool::new(false),
        }))
    }

    /// Records one sample.
    pub fn record(&self, v: u64) {
        self.0.buckets[bucket_of(v)].fetch_add(1, Ordering::Relaxed);
        self.0.count.fetch_add(1, Ordering::Relaxed);
        let before = self.0.sum.fetch_add(v, Ordering::Relaxed);
        if before.checked_add(v).is_none() {
            self.0.sum_overflowed.store(true, Ordering::Relaxed);
        }
    }

    /// Total samples recorded.
    pub fn count(&self) -> u64 {
        self.0.count.load(Ordering::Relaxed)
    }

    /// Sum of all samples, saturating at `u64::MAX`: it never
    /// under-reports, even after the running sum has overflowed.
    pub fn sum(&self) -> u64 {
        self.exact_sum().unwrap_or(u64::MAX)
    }

    /// Sum of all samples, or `None` once it no longer fits in a `u64`.
    fn exact_sum(&self) -> Option<u64> {
        let sum = self.0.sum.load(Ordering::Relaxed);
        (!self.0.sum_overflowed.load(Ordering::Relaxed)).then_some(sum)
    }

    /// The `q`-quantile (`0 ≤ q ≤ 1`) by nearest rank, as the inclusive
    /// upper end of the bucket holding that rank: never below the exact
    /// quantile, and above it by at most 1/32 of it. `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        // Two passes over the live buckets: a sample recorded between them
        // only makes the second reach the rank sooner.
        let counts = || self.0.buckets.iter().map(|c| c.load(Ordering::Relaxed));
        let total: u64 = counts().sum();
        if total == 0 {
            return None;
        }
        let rank = ((total as f64 * q).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        counts()
            .position(|c| {
                seen += c;
                seen >= rank
            })
            .map(|i| bucket_range(i).1)
    }

    /// `(lower, count)` for each non-empty bucket, lowest first.
    fn occupied(&self) -> impl Iterator<Item = (u64, u64)> + '_ {
        self.0.buckets.iter().enumerate().filter_map(|(i, c)| {
            let n = c.load(Ordering::Relaxed);
            (n > 0).then(|| (bucket_range(i).0, n))
        })
    }
}

#[derive(Debug, Clone)]
enum Metric {
    Counter(Counter),
    Gauge(Gauge),
    Histogram(Histogram),
}

/// A registry of named metrics. Cloning shares the underlying store;
/// registration takes a lock, but recording through the returned handles is
/// wait-free atomic arithmetic — callers cache handles, not names.
#[derive(Debug, Clone, Default)]
pub struct MetricsRegistry {
    inner: Arc<Mutex<BTreeMap<String, Metric>>>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Gets or creates the counter `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn counter(&self, name: &str) -> Counter {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map.entry(name.to_string()).or_insert_with(|| Metric::Counter(Counter::detached())) {
            Metric::Counter(c) => c.clone(),
            other => panic!("metric '{name}' already registered as {}", kind_name(other)),
        }
    }

    /// Gets or creates the gauge `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map.entry(name.to_string()).or_insert_with(|| Metric::Gauge(Gauge::detached())) {
            Metric::Gauge(g) => g.clone(),
            other => panic!("metric '{name}' already registered as {}", kind_name(other)),
        }
    }

    /// Gets or creates the histogram `name`.
    ///
    /// # Panics
    ///
    /// Panics if `name` is already registered as a different metric kind.
    pub fn log_histogram(&self, name: &str) -> Histogram {
        let mut map = self.inner.lock().expect("metrics registry poisoned");
        match map.entry(name.to_string()).or_insert_with(|| Metric::Histogram(Histogram::new())) {
            Metric::Histogram(h) => h.clone(),
            other => panic!("metric '{name}' already registered as {}", kind_name(other)),
        }
    }

    /// [`MetricsRegistry::log_histogram`]; `bounds` is ignored, since every
    /// histogram has the one layout.
    // frozen benchmark surface: ROADMAP item 24
    pub fn histogram(&self, name: &str, _bounds: &[u64]) -> Histogram {
        self.log_histogram(name)
    }

    /// Starts a wall-clock span named `name`: on drop it adds the elapsed
    /// nanoseconds to `<name>.nanos` and one to `<name>.count`.
    pub fn span(&self, name: &str) -> Span {
        Span {
            nanos: self.counter(&format!("{name}.nanos")),
            count: self.counter(&format!("{name}.count")),
            started: Instant::now(),
        }
    }

    /// True when no metric has been registered.
    pub fn is_empty(&self) -> bool {
        self.inner.lock().expect("metrics registry poisoned").is_empty()
    }

    /// Serializes every metric, sorted by name, as
    /// `{"counters": {...}, "gauges": {...}, "histograms": {...}}`. A
    /// histogram lists only its non-empty buckets, each by its lower end;
    /// its `sum` is `null` once the samples' sum overflowed a `u64`.
    pub fn to_json(&self) -> JsonValue {
        let map = self.inner.lock().expect("metrics registry poisoned");
        let mut counters = Vec::new();
        let mut gauges = Vec::new();
        let mut histograms = Vec::new();
        for (name, metric) in map.iter() {
            match metric {
                Metric::Counter(c) => counters.push((name.clone(), JsonValue::UInt(c.get()))),
                Metric::Gauge(g) => gauges.push((name.clone(), JsonValue::Float(g.get()))),
                Metric::Histogram(h) => {
                    let (lowers, counts): (Vec<_>, Vec<_>) = h
                        .occupied()
                        .map(|(lower, n)| (JsonValue::UInt(lower), JsonValue::UInt(n)))
                        .unzip();
                    histograms.push((
                        name.clone(),
                        JsonValue::Object(vec![
                            ("count".into(), JsonValue::UInt(h.count())),
                            ("sum".into(), h.exact_sum().map_or(JsonValue::Null, JsonValue::UInt)),
                            ("bucket_lower_bounds".into(), JsonValue::Array(lowers)),
                            ("bucket_counts".into(), JsonValue::Array(counts)),
                        ]),
                    ));
                }
            }
        }
        JsonValue::Object(vec![
            ("counters".into(), JsonValue::Object(counters)),
            ("gauges".into(), JsonValue::Object(gauges)),
            ("histograms".into(), JsonValue::Object(histograms)),
        ])
    }
}

fn kind_name(m: &Metric) -> &'static str {
    match m {
        Metric::Counter(_) => "a counter",
        Metric::Gauge(_) => "a gauge",
        Metric::Histogram(_) => "a histogram",
    }
}

/// A wall-clock duration guard (see [`MetricsRegistry::span`]).
///
/// Wall time only — spans never feed back into simulation logic.
#[derive(Debug)]
pub struct Span {
    nanos: Counter,
    count: Counter,
    started: Instant,
}

impl Drop for Span {
    fn drop(&mut self) {
        self.nanos.add(self.started.elapsed().as_nanos() as u64);
        self.count.inc();
    }
}

/// Event severity, lowest first.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Per-event chatter (message deliveries, timer fires).
    Debug,
    /// Phase transitions, notable state changes.
    Info,
    /// Degraded operation: drops, retries, quarantines, brownouts.
    Warn,
    /// A failure of the prober itself: a panicking campaign worker,
    /// an unrecoverable journal write error.
    Error,
}

impl Severity {
    /// Parses "debug" / "info" / "warn" / "error" (case-insensitive).
    pub fn parse(s: &str) -> Option<Severity> {
        match s.to_ascii_lowercase().as_str() {
            "debug" => Some(Severity::Debug),
            "info" => Some(Severity::Info),
            "warn" | "warning" => Some(Severity::Warn),
            "error" => Some(Severity::Error),
            _ => None,
        }
    }
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.pad(match self {
            Severity::Debug => "DEBUG",
            Severity::Info => "INFO",
            Severity::Warn => "WARN",
            Severity::Error => "ERROR",
        })
    }
}

/// One structured event, keyed by true simulation time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// True sim-time of the event, nanoseconds since the world epoch.
    pub at_nanos: u64,
    /// Severity.
    pub severity: Severity,
    /// Subsystem that emitted it ("sim", "services", "harness", …).
    pub target: &'static str,
    /// Human-readable description.
    pub message: String,
}

impl ObsEvent {
    /// Renders as `[   1.234567s] WARN  sim       message`.
    pub fn render(&self) -> String {
        format!(
            "[{:>11.6}s] {:<5} {:<9} {}",
            self.at_nanos as f64 / 1e9,
            self.severity,
            self.target,
            self.message
        )
    }
}

#[derive(Debug)]
struct EventLogCore {
    capacity: usize,
    min_severity: Severity,
    target_prefix: Option<String>,
    events: Mutex<VecDeque<ObsEvent>>,
    evicted: AtomicU64,
}

/// A bounded ring buffer of [`ObsEvent`]s with record-time severity/target
/// filtering. The default ([`EventLog::disabled`]) records nothing —
/// producers must check [`EventLog::enabled`] before formatting messages so
/// a disabled log costs one branch, not one `format!`.
#[derive(Debug, Clone)]
pub struct EventLog(Arc<EventLogCore>);

impl EventLog {
    /// A log that records nothing (capacity zero).
    pub fn disabled() -> Self {
        EventLog::new(0)
    }

    /// A log keeping the most recent `capacity` events at `Debug` and
    /// above, all targets.
    pub fn new(capacity: usize) -> Self {
        EventLog(Arc::new(EventLogCore {
            capacity,
            min_severity: Severity::Debug,
            target_prefix: None,
            events: Mutex::new(VecDeque::new()),
            evicted: AtomicU64::new(0),
        }))
    }

    /// Builder: drop events below `min` at record time.
    pub fn with_min_severity(self, min: Severity) -> Self {
        EventLog(Arc::new(EventLogCore {
            capacity: self.0.capacity,
            min_severity: min,
            target_prefix: self.0.target_prefix.clone(),
            events: Mutex::new(VecDeque::new()),
            evicted: AtomicU64::new(0),
        }))
    }

    /// Builder: keep only events whose target starts with `prefix`.
    pub fn with_target_prefix(self, prefix: impl Into<String>) -> Self {
        EventLog(Arc::new(EventLogCore {
            capacity: self.0.capacity,
            min_severity: self.0.min_severity,
            target_prefix: Some(prefix.into()),
            events: Mutex::new(VecDeque::new()),
            evicted: AtomicU64::new(0),
        }))
    }

    /// Whether an event with this severity/target would be kept. Check this
    /// before building the message string.
    pub fn enabled(&self, severity: Severity, target: &str) -> bool {
        self.0.capacity > 0
            && severity >= self.0.min_severity
            && self.0.target_prefix.as_ref().is_none_or(|p| target.starts_with(p.as_str()))
    }

    /// Records an event (no-op when filtered out). The oldest event is
    /// evicted once the ring is full.
    pub fn record(
        &self,
        at_nanos: u64,
        severity: Severity,
        target: &'static str,
        message: impl Into<String>,
    ) {
        if !self.enabled(severity, target) {
            return;
        }
        let mut events = self.0.events.lock().expect("event log poisoned");
        if events.len() >= self.0.capacity {
            events.pop_front();
            self.0.evicted.fetch_add(1, Ordering::Relaxed);
        }
        events.push_back(ObsEvent { at_nanos, severity, target, message: message.into() });
    }

    /// Drains and returns all retained events, oldest first.
    pub fn drain(&self) -> Vec<ObsEvent> {
        self.0.events.lock().expect("event log poisoned").drain(..).collect()
    }

    /// Number of events evicted by the ring bound (signals an undersized
    /// `--cap`).
    pub fn evicted(&self) -> u64 {
        self.0.evicted.load(Ordering::Relaxed)
    }

    /// Number of events currently retained.
    pub fn len(&self) -> usize {
        self.0.events.lock().expect("event log poisoned").len()
    }

    /// True when no events are retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

impl Default for EventLog {
    fn default() -> Self {
        EventLog::disabled()
    }
}

/// The pair a world or harness layer records into: a metrics registry plus
/// an event log. Cloning shares both.
#[derive(Debug, Clone, Default)]
pub struct ObsSink {
    /// Metrics store.
    pub metrics: MetricsRegistry,
    /// Structured event log (disabled by default).
    pub log: EventLog,
}

impl ObsSink {
    /// A sink collecting metrics only (event log disabled).
    pub fn new() -> Self {
        ObsSink::default()
    }

    /// A sink with the given event log attached.
    pub fn with_log(log: EventLog) -> Self {
        ObsSink { metrics: MetricsRegistry::new(), log }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.count");
        c.inc();
        c.add(4);
        assert_eq!(reg.counter("a.count").get(), 5, "same name shares state");
        let g = reg.gauge("a.rate");
        g.set(2.5);
        assert_eq!(reg.gauge("a.rate").get(), 2.5);
    }

    #[test]
    #[should_panic(expected = "already registered")]
    fn kind_mismatch_panics() {
        let reg = MetricsRegistry::new();
        reg.counter("x");
        reg.gauge("x");
    }

    #[test]
    fn histogram_buckets_samples() {
        let reg = MetricsRegistry::new();
        let h = reg.log_histogram("lat");
        for v in [5, 63, 64, 65, 100, 5000] {
            h.record(v);
        }
        assert_eq!(h.count(), 6);
        assert_eq!(h.sum(), 5297);
        // Exact below 64; 64 and 65 share a bucket two wide; 5000 lands in
        // [4992, 5119], 128 wide.
        let buckets: Vec<(u64, u64)> = h.occupied().collect();
        assert_eq!(buckets, vec![(5, 1), (63, 1), (64, 2), (100, 1), (4992, 1)]);
        assert_eq!(bucket_range(bucket_of(5000)), (4992, 5119));
        assert_eq!(bucket_range(BUCKETS - 1).1, u64::MAX, "the layout covers every u64");
    }

    #[test]
    fn every_bucket_holds_exactly_its_range() {
        let mut next = 0;
        for i in 0..BUCKETS {
            let (lower, upper) = bucket_range(i);
            assert_eq!(lower, next, "bucket {i} starts where {} ends", i.saturating_sub(1));
            assert!(lower == 0 || lower >> lower.trailing_zeros() < 64, "six significant bits");
            assert_eq!((bucket_of(lower), bucket_of(upper)), (i, i));
            assert!((upper - lower) as u128 * 32 <= u128::from(lower.max(1)), "bucket {i}");
            next = upper.wrapping_add(1);
        }
        assert_eq!(next, 0, "the last bucket ends at u64::MAX");
    }

    /// The exact nearest-rank `q`-quantile of ascending `sorted`.
    fn exact_quantile(sorted: &[u64], q: f64) -> u64 {
        let rank = ((sorted.len() as f64 * q).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantiles_never_under_report_and_stay_within_a_32nd() {
        use conprobe_json::testkit::TestRng;
        const MS: u64 = 1_000_000;
        let mut rng = TestRng::new(0x0B5_4157);
        let n = 20_000;
        let distributions: Vec<(&str, Vec<u64>)> = vec![
            ("constant", vec![676; n]),
            ("uniform on [0, 1 ms]", (0..n).map(|_| rng.range(0, MS + 1)).collect()),
            (
                "exponential, mean 50 us",
                (0..n).map(|_| (-(1.0 - rng.unit()).ln() * 50_000.0) as u64).collect(),
            ),
            (
                "bimodal 1 us / 10 ms",
                (0..n).map(|_| if rng.chance(0.7) { 1_000 } else { 10 * MS }).collect(),
            ),
            ("0, 63, 64 and u64::MAX", vec![0, 63, 64, u64::MAX]),
        ];
        for (name, mut samples) in distributions {
            let h = MetricsRegistry::new().log_histogram("q");
            samples.iter().for_each(|&v| h.record(v));
            samples.sort_unstable();
            for q in [0.5, 0.9, 0.99, 0.999] {
                let exact = exact_quantile(&samples, q);
                let estimate = h.quantile(q).expect("recorded samples");
                assert!(estimate >= exact, "{name} q{q}: {estimate} < exact {exact}");
                assert!(
                    u128::from(estimate - exact) * 32 <= u128::from(exact),
                    "{name} q{q}: {estimate} is more than 1/32 above {exact}"
                );
            }
        }
        assert_eq!(MetricsRegistry::new().log_histogram("empty").quantile(0.5), None);
    }

    #[test]
    fn span_accumulates_wall_time() {
        let reg = MetricsRegistry::new();
        {
            let _s = reg.span("phase.x");
        }
        {
            let _s = reg.span("phase.x");
        }
        assert_eq!(reg.counter("phase.x.count").get(), 2);
        // Elapsed is tiny but measured; the counter existing is the point.
        let _ = reg.counter("phase.x.nanos").get();
    }

    #[test]
    fn event_log_ring_and_filters() {
        let log = EventLog::new(2).with_min_severity(Severity::Info);
        assert!(!log.enabled(Severity::Debug, "sim"));
        log.record(1, Severity::Debug, "sim", "dropped by filter");
        log.record(2, Severity::Info, "sim", "one");
        log.record(3, Severity::Warn, "harness", "two");
        log.record(4, Severity::Info, "sim", "three");
        assert_eq!(log.evicted(), 1);
        let events = log.drain();
        assert_eq!(events.len(), 2);
        assert_eq!(events[0].message, "two");
        assert_eq!(events[1].message, "three");
        assert!(log.is_empty());
    }

    #[test]
    fn target_prefix_filters() {
        let log = EventLog::new(10).with_target_prefix("services");
        assert!(log.enabled(Severity::Debug, "services.replica"));
        assert!(!log.enabled(Severity::Warn, "sim"));
        log.record(0, Severity::Warn, "sim", "filtered");
        log.record(0, Severity::Debug, "services", "kept");
        assert_eq!(log.len(), 1);
    }

    #[test]
    fn disabled_log_costs_nothing() {
        let log = EventLog::disabled();
        assert!(!log.enabled(Severity::Warn, "sim"));
        log.record(0, Severity::Warn, "sim", "ignored");
        assert!(log.is_empty());
        assert_eq!(log.evicted(), 0);
    }

    #[test]
    fn registry_json_shape() {
        let sink = ObsSink::new();
        sink.metrics.counter("sim.delivered").add(7);
        sink.metrics.gauge("campaign.tests_per_sec").set(12.0);
        sink.metrics.log_histogram("services.lag").record(50);
        let doc = sink.metrics.to_json();
        assert_eq!(
            doc.get("counters").and_then(|c| c.get("sim.delivered")).and_then(|v| v.as_u64()),
            Some(7)
        );
        assert_eq!(
            doc.get("gauges")
                .and_then(|g| g.get("campaign.tests_per_sec"))
                .and_then(|v| v.as_f64()),
            Some(12.0)
        );
        let hist = doc.get("histograms").and_then(|h| h.get("services.lag")).expect("histogram");
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(1));
        // Only the one non-empty bucket is listed, by its lower end.
        assert_eq!(
            hist.get("bucket_lower_bounds"),
            Some(&JsonValue::Array(vec![JsonValue::UInt(50)]))
        );
        assert_eq!(hist.get("bucket_counts"), Some(&JsonValue::Array(vec![JsonValue::UInt(1)])));
    }

    #[test]
    fn a_dump_holding_u64_max_has_no_bound_an_f64_reader_mangles() {
        let sink = ObsSink::new();
        let h = sink.metrics.log_histogram("services.lag");
        for v in [7, 5_000, u64::MAX] {
            h.record(v);
        }
        let doc = sink.metrics.to_json();
        let hist = doc.get("histograms").and_then(|h| h.get("services.lag")).expect("histogram");
        let Some(JsonValue::Array(bounds)) = hist.get("bucket_lower_bounds") else {
            panic!("bucket_lower_bounds missing: {hist:?}");
        };
        assert_eq!(bounds.len(), 3);
        for bound in bounds {
            let b = bound.as_u64().expect("a lower bound is an integer");
            assert_eq!(b as f64 as u64, b, "{b} survives a round trip through f64");
        }
        // u64::MAX's bucket is listed by its lower end, 63 << 58; the
        // dump spells no u64::MAX anywhere (the sum wraps, as an atomic
        // sum does).
        assert_eq!(bounds[2].as_u64(), Some(63 << 58));
        let out = doc.to_compact();
        assert!(!out.contains("18446744073709551615"), "u64::MAX leaked: {out}");
    }

    #[test]
    fn an_overflowed_sum_saturates_and_dumps_as_null() {
        let sink = ObsSink::new();
        let h = sink.metrics.log_histogram("services.lag");
        for v in [7, 5_000] {
            h.record(v);
        }
        assert_eq!(h.sum(), 5_007);
        h.record(u64::MAX);
        assert_eq!(h.count(), 3);
        assert_eq!(h.sum(), u64::MAX, "an overflowed sum never under-reports");
        // Further samples cannot bring a wrapped sum back into range.
        h.record(1);
        assert_eq!(h.sum(), u64::MAX);
        let doc = sink.metrics.to_json();
        let hist = doc.get("histograms").and_then(|h| h.get("services.lag")).expect("histogram");
        assert_eq!(hist.get("sum"), Some(&JsonValue::Null));
        assert_eq!(hist.get("count").and_then(|v| v.as_u64()), Some(4));
    }

    #[test]
    fn event_render_format() {
        let e = ObsEvent {
            at_nanos: 1_234_567_000,
            severity: Severity::Warn,
            target: "sim",
            message: "drop".into(),
        };
        assert_eq!(e.render(), "[   1.234567s] WARN  sim       drop");
    }

    #[test]
    fn severity_parse_and_order() {
        assert_eq!(Severity::parse("WARN"), Some(Severity::Warn));
        assert_eq!(Severity::parse("nope"), None);
        assert!(Severity::Debug < Severity::Info && Severity::Info < Severity::Warn);
    }
}
