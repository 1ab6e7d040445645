//! The six §III anomaly definitions, one module each. They are checked
//! together, in one pass, by [`crate::analysis::analyze`]. Conventions
//! shared by all checkers:
//!
//! * A write by agent `c` is considered *issued* at its invocation time and
//!   *completed* at its response time. Only writes completed before a read's
//!   invocation are required to be visible (in-flight writes are exempt) —
//!   the conservative interpretation that avoids flagging races as
//!   anomalies.
//! * A checker emits at most one observation per offending read (or read
//!   pair), carrying all witnesses, so "number of observations per test"
//!   matches the per-read counting the paper plots in Figures 4–7.
//! * The observing agent recorded on the observation is the *reader*, which
//!   is what the paper's per-location breakdowns (Oregon/Tokyo/Ireland) are
//!   keyed on.

pub mod content;
pub mod mr;
pub mod mw;
pub mod order;
pub mod ryw;
pub mod wfr;

pub use wfr::WfrMode;

/// The observations of `kind` in the full analysis of `trace`: one
/// checker's output, as its unit tests read it.
#[cfg(test)]
fn observations_of<K: crate::trace::EventKey>(
    trace: &crate::trace::TestTrace<K>,
    kind: crate::anomaly::AnomalyKind,
    wfr_mode: WfrMode<K>,
) -> Vec<crate::anomaly::Observation<K>> {
    let analysis = crate::analysis::analyze(trace, &crate::analysis::CheckerConfig { wfr_mode });
    analysis.observations.into_iter().filter(|o| o.kind == kind).collect()
}
