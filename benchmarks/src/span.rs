//! In-memory spans for the traced pass.
//!
//! The traced pass replays a workload's operations around the public
//! calls the server or the harness makes, and records each call as a span
//! `{id, parent, name, op, start_ns, end_ns}`; the spans of one operation
//! (or test, or trace pass) share its `op` number. A layer's *self time*
//! is its span's duration minus what its child spans cover — the time
//! spent in that layer and in nothing the benchmark can see below it.
//!
//! Spans are recorded from the benchmark's side of each call; spans
//! inside the product are a later change.

use std::time::Instant;

/// "No parent": the span is the root of its operation.
pub const ROOT: u32 = u32::MAX;

/// One recorded call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    /// Position in recording order (a child's id is above its parent's).
    pub id: u32,
    /// The enclosing span, or [`ROOT`].
    pub parent: u32,
    /// Index into [`Recorder::names`].
    pub name: u16,
    /// The operation all spans of one request share.
    pub op: u32,
    /// Start, nanoseconds on the recorder's clock.
    pub start_ns: u64,
    /// End, nanoseconds on the recorder's clock.
    pub end_ns: u64,
}

/// Per-name totals over every span recorded, kept or not.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Totals {
    /// Spans closed under this name.
    pub count: u64,
    /// Sum of durations.
    pub total_ns: u64,
    /// Sum of self times (duration minus direct children).
    pub self_ns: u64,
    /// Longest single duration.
    pub max_ns: u64,
}

struct Open {
    id: u32,
    name: u16,
    op: u32,
    start_ns: u64,
    children_ns: u64,
}

/// A single-threaded span recorder. Spans nest strictly (the replay makes
/// one call at a time), so the enclosing span is the top of a stack.
pub struct Recorder {
    epoch: Instant,
    names: Vec<&'static str>,
    totals: Vec<Totals>,
    stack: Vec<Open>,
    spans: Vec<Span>,
    keep: usize,
    /// Whether the operation now open is inside the kept prefix: decided
    /// when its root opens, so the file never holds half an operation.
    keeping: bool,
    next_id: u32,
}

impl Recorder {
    /// A recorder that keeps spans verbatim for the trace file until
    /// `keep` are held (a full replay closes millions; the totals cover
    /// all of them, the file shows how a few thousand operations
    /// decompose).
    pub fn new(keep: usize) -> Self {
        Recorder {
            epoch: Instant::now(),
            names: Vec::new(),
            totals: Vec::new(),
            stack: Vec::new(),
            spans: Vec::with_capacity(keep),
            keep,
            keeping: false,
            next_id: 0,
        }
    }

    /// Registers a span name (idempotent) and returns its index.
    pub fn name(&mut self, name: &'static str) -> u16 {
        if let Some(i) = self.names.iter().position(|n| *n == name) {
            return i as u16;
        }
        self.names.push(name);
        self.totals.push(Totals::default());
        (self.names.len() - 1) as u16
    }

    /// Nanoseconds since the recorder was made.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one.
    pub fn begin(&mut self, name: u16, op: u32) {
        let at = self.now();
        self.begin_at(name, op, at);
    }

    /// Closes the innermost open span and returns its duration.
    pub fn end(&mut self) -> u64 {
        let at = self.now();
        self.end_at(at)
    }

    /// Records `f` as one span.
    pub fn span<T>(&mut self, name: u16, op: u32, f: impl FnOnce() -> T) -> T {
        self.begin(name, op);
        let out = f();
        self.end();
        out
    }

    /// [`Recorder::begin`] with the clock reading supplied.
    pub fn begin_at(&mut self, name: u16, op: u32, start_ns: u64) {
        let id = self.next_id;
        self.next_id += 1;
        if self.stack.is_empty() {
            self.keeping = self.spans.len() < self.keep;
        }
        self.stack.push(Open { id, name, op, start_ns, children_ns: 0 });
    }

    /// [`Recorder::end`] with the clock reading supplied; returns the
    /// span's duration.
    ///
    /// # Panics
    ///
    /// Panics when no span is open.
    pub fn end_at(&mut self, end_ns: u64) -> u64 {
        let open = self.stack.pop().expect("end without begin");
        let duration = end_ns.saturating_sub(open.start_ns);
        let totals = &mut self.totals[open.name as usize];
        totals.count += 1;
        totals.total_ns += duration;
        totals.self_ns += duration.saturating_sub(open.children_ns);
        totals.max_ns = totals.max_ns.max(duration);
        let parent = match self.stack.last_mut() {
            Some(parent) => {
                parent.children_ns += duration;
                parent.id
            }
            None => ROOT,
        };
        if self.keeping {
            self.spans.push(Span {
                id: open.id,
                parent,
                name: open.name,
                op: open.op,
                start_ns: open.start_ns,
                end_ns,
            });
        }
        duration
    }

    /// Totals for `name` (zero when nothing closed under it).
    pub fn totals(&self, name: &str) -> Totals {
        self.names.iter().position(|n| *n == name).map(|i| self.totals[i]).unwrap_or_default()
    }

    /// Mean self time of `name` in nanoseconds, less `clock_ns` — what
    /// reading the clock twice adds to every span.
    pub fn mean_self_ns(&self, name: &str, clock_ns: f64) -> f64 {
        let t = self.totals(name);
        assert!(t.count > 0, "no span named {name} was recorded");
        (t.self_ns as f64 / t.count as f64 - clock_ns).max(0.0)
    }

    /// Every registered name with its totals.
    pub fn all_totals(&self) -> impl Iterator<Item = (&'static str, Totals)> + '_ {
        self.names.iter().copied().zip(self.totals.iter().copied())
    }

    /// The kept spans, in closing order.
    #[cfg(test)]
    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// The trace file: names, per-name totals, and the kept spans.
    pub fn to_json(&self, workload: &str, seed: u64) -> String {
        let mut out = String::with_capacity(64 + self.spans.len() * 96);
        out.push_str(&format!("{{\"workload\":\"{workload}\",\"seed\":{seed},\"totals\":["));
        for (i, (name, t)) in self.all_totals().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str(&format!(
                "{{\"name\":\"{name}\",\"count\":{},\"total_ns\":{},\"self_ns\":{},\"max_ns\":{}}}",
                t.count, t.total_ns, t.self_ns, t.max_ns
            ));
        }
        out.push_str("],\"spans\":[\n");
        for (i, s) in self.spans.iter().enumerate() {
            if i > 0 {
                out.push_str(",\n");
            }
            let parent = if s.parent == ROOT { "null".to_string() } else { s.parent.to_string() };
            out.push_str(&format!(
                "{{\"id\":{},\"parent\":{parent},\"name\":\"{}\",\"op\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, self.names[s.name as usize], s.op, s.start_ns, s.end_ns
            ));
        }
        out.push_str("\n]}\n");
        out
    }
}

/// A replay runs with a recorder or without one (to time what tracing
/// costs); the same code serves both through these.
pub type Tracing<'a> = Option<&'a mut Recorder>;

/// Opens a span named `name` when tracing. The name is looked up per
/// call: meant for calls that take microseconds, not nanoseconds.
pub fn open(rec: &mut Tracing<'_>, name: &'static str, op: u32) {
    if let Some(r) = rec {
        let name = r.name(name);
        r.begin(name, op);
    }
}

/// Closes the innermost span when tracing.
pub fn close(rec: &mut Tracing<'_>) {
    if let Some(r) = rec {
        r.end();
    }
}

/// Runs `f`, as a span named `name` when tracing.
pub fn spanned<T>(rec: &mut Tracing<'_>, name: &'static str, op: u32, f: impl FnOnce() -> T) -> T {
    open(rec, name, op);
    let out = f();
    close(rec);
    out
}

/// What an empty span measures — the clock read and the bookkeeping
/// that fall inside every span's interval. The median over
/// batches of the batch mean, so a preempted batch does not count.
/// Subtracted from every mean the traced pass reports.
pub fn clock_overhead_ns() -> f64 {
    let mut rec = Recorder::new(0);
    let name = rec.name("calibrate.empty");
    let batch_means: Vec<f64> = (0..21)
        .map(|_| {
            let before = rec.totals("calibrate.empty").total_ns;
            for _ in 0..1000 {
                rec.span(name, 0, || ());
            }
            (rec.totals("calibrate.empty").total_ns - before) as f64 / 1000.0
        })
        .collect();
    crate::stats::median(&batch_means)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let mut rec = Recorder::new(16);
        let (op, dec, svc, store) =
            (rec.name("op"), rec.name("decode"), rec.name("service"), rec.name("store"));
        // op [0,100] ⊃ decode [10,30], service [40,90] ⊃ store [50,70]
        rec.begin_at(op, 7, 0);
        rec.begin_at(dec, 7, 10);
        rec.end_at(30);
        rec.begin_at(svc, 7, 40);
        rec.begin_at(store, 7, 50);
        rec.end_at(70);
        rec.end_at(90);
        rec.end_at(100);

        assert_eq!(rec.totals("decode").self_ns, 20);
        assert_eq!(rec.totals("store").self_ns, 20);
        // service: 50 long, 20 of it in store (a grandchild of op, so it
        // is charged to service, not to op).
        assert_eq!(rec.totals("service").total_ns, 50);
        assert_eq!(rec.totals("service").self_ns, 30);
        // op: 100 long, children decode (20) + service (50).
        assert_eq!(rec.totals("op").self_ns, 30);
        // Self times partition the root's duration.
        let sum: u64 = rec.all_totals().map(|(_, t)| t.self_ns).sum();
        assert_eq!(sum, 100);

        // Children close first; parents point at enclosing ids.
        let spans = rec.spans();
        assert_eq!(spans.len(), 4);
        let by_name = |n: u16| spans.iter().find(|s| s.name == n).unwrap();
        assert_eq!(by_name(op).parent, ROOT);
        assert_eq!(by_name(dec).parent, by_name(op).id);
        assert_eq!(by_name(store).parent, by_name(svc).id);
        assert!(spans.iter().all(|s| s.op == 7));
    }

    #[test]
    fn totals_cover_spans_beyond_the_kept_prefix() {
        let mut rec = Recorder::new(2);
        let n = rec.name("call");
        for i in 0..5u64 {
            rec.begin_at(n, i as u32, i * 10);
            rec.end_at(i * 10 + 4 + i);
        }
        assert_eq!(rec.spans().len(), 2);
        let t = rec.totals("call");
        assert_eq!((t.count, t.total_ns, t.max_ns), (5, 4 + 5 + 6 + 7 + 8, 8));
        assert_eq!(rec.mean_self_ns("call", 1.0), 5.0);
        assert_eq!(rec.totals("absent"), Totals::default());
    }

    #[test]
    fn trace_file_is_valid_json_with_null_root_parents() {
        let mut rec = Recorder::new(8);
        let (a, b) = (rec.name("outer"), rec.name("inner"));
        rec.begin_at(a, 1, 5);
        rec.begin_at(b, 1, 6);
        rec.end_at(8);
        rec.end_at(9);
        let doc = conprobe::json::parse(&rec.to_json("analyze", 3)).expect("valid JSON");
        let spans = doc.get("spans").and_then(|s| s.as_array()).unwrap();
        assert_eq!(spans.len(), 2);
        assert_eq!(spans[0].get("name").and_then(|n| n.as_str()), Some("inner"));
        assert_eq!(spans[0].get("parent").and_then(|p| p.as_u64()), Some(0));
        assert_eq!(spans[1].get("parent"), Some(&conprobe::json::JsonValue::Null));
        assert_eq!(doc.get("totals").and_then(|t| t.as_array()).unwrap().len(), 2);
    }
}
