//! # conprobe-core — consistency anomaly definitions and checkers
//!
//! This crate implements §III of *"Characterizing the Consistency of Online
//! Services"* (DSN 2016): precise, service-agnostic definitions of six
//! consistency anomalies, as pure predicates over an observed trace of
//! operations, plus the quantitative divergence-window metrics.
//!
//! The model matches the paper's: clients issue **write** requests (each
//! creating one event) and **read** requests (each returning a *sequence* of
//! events). A [`trace::TestTrace`] records those operations with their
//! invocation/response times on a common (clock-corrected) timeline, and
//! [`analyze`] checks it for every anomaly in one pass (definitions in
//! [`checkers`]):
//!
//! | Anomaly | Predicate (paper §III) |
//! |---|---|
//! | Read Your Writes | `∃x∈W : x∉S` — a client's completed write missing from its own later read |
//! | Monotonic Writes | `∃x,y∈W : W(x)≺W(y) ∧ y∈S ∧ (x∉S ∨ S(y)≺S(x))` |
//! | Monotonic Reads  | `∃x∈S₁ : x∉S₂` for two successive reads by one client |
//! | Writes Follows Reads | `w∈S₂ ∧ ∃x∈S₁ : x∉S₂` where `w` was issued after its author read `S₁` |
//! | Content Divergence | `∃x∈S₁, y∈S₂ : x∉S₂ ∧ y∉S₁` across two clients |
//! | Order Divergence | `∃x,y ∈ S₁,S₂ : S₁(x)≺S₁(y) ∧ S₂(y)≺S₂(x)` |
//!
//! The same pass measures the [`window`]s: how long content or order
//! divergence holds between each pair of clients' most recent reads. Keys
//! are generic (`K`: post ids, HTTP resource ids, plain integers).
//!
//! ## Example
//!
//! ```
//! use conprobe_core::{analyze, AgentId, AnomalyKind, CheckerConfig, TestTraceBuilder, Timestamp};
//!
//! let mut b = TestTraceBuilder::new();
//! let a0 = AgentId(0);
//! b.write(a0, Timestamp::from_millis(0), Timestamp::from_millis(10), 1u32);
//! // A later read by the same agent that misses write 1:
//! b.read(a0, Timestamp::from_millis(20), Timestamp::from_millis(30), vec![]);
//! let analysis = analyze(&b.build(), &CheckerConfig::default());
//! assert_eq!(analysis.count(AnomalyKind::ReadYourWrites), 1);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod analysis;
pub mod anomaly;
pub mod checkers;
pub mod index;
pub mod stream;
pub mod timeline;
pub mod trace;
pub mod verdict;
pub mod view;
pub mod visibility;
pub mod window;

pub use analysis::{analyze, CheckerConfig, TestAnalysis};
pub use anomaly::{AnomalyKind, Observation};
pub use index::TraceIndex;
pub use stream::StreamingAnalyzer;
pub use trace::{AgentId, EventKey, OpKind, OpRecord, TestTrace, TestTraceBuilder, Timestamp};
pub use verdict::{Status, Verdict};
pub use view::ReadView;
pub use visibility::{
    staleness_bound_nanos, visibility, Visibility, VisibilityRecord, VisibilitySummary,
};
pub use window::{WindowAnalysis, WindowKind};
