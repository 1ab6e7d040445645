//! # conprobe-wire — real-network serving and live probing
//!
//! The paper's agents probed **live services over a real network**; the
//! rest of this workspace reproduces the methodology inside a
//! discrete-event simulator. This crate adds the missing half:
//!
//! * [`frame`] — the `cpw1` wire protocol: length-prefixed,
//!   FNV-checksummed binary frames with an incremental, fuzz-hardened
//!   decoder (the `conprobe-json` discipline, applied to bytes);
//! * [`server`] — `conprobe serve`: any catalog service behind
//!   per-region TCP listeners, with the sim's deterministic service
//!   models bridged onto wall-clock time by
//!   [`LiveCluster`](conprobe_services::live::LiveCluster), optional
//!   WAN-shaped artificial latency, and a graceful drain on a `stop`
//!   frame or [`WireServer::request_stop`] — accepting, serving and
//!   ticking on one event loop;
//! * [`client`] — the one blocking client (a TCP [`ServiceEndpoint`], and
//!   the dispatch worker's exchange), reconnect-and-resend underneath;
//! * [`probe`] — `conprobe probe`: real agent threads running the
//!   paper's Test 1 / Test 2 cadence with skewed local clocks,
//!   Cristian-synced over the wire, emitting a standard `TestTrace`
//!   that the unmodified `analyze()`/journal/report pipeline consumes;
//! * [`pipeline`] — non-blocking pipelined client connections: many
//!   in-flight keyed requests per socket, batched writes, FIFO-order
//!   verification by echoed request id;
//! * [`load`] — `conprobe load`: a closed-loop load generator
//!   multiplexing tens of thousands of pipelined connections, with
//!   latency histograms, backing the `bench_wire_throughput` stage;
//! * [`dispatch`] — `conprobe dispatch` / `conprobe worker`: a campaign
//!   cell farmed out to worker processes over leased work units, with
//!   results streamed back as journal records and merged byte-identically
//!   to a single-process run;
//! * [`chaos`] — `conprobe chaosd`: a deterministic fault-injecting TCP
//!   interposer that executes a [`FaultPlan`](conprobe_sim::FaultPlan)
//!   timeline against real connections — per-link partitions, loss,
//!   latency spikes, resets, seeded byte corruption, slow-loris trickle
//!   — on one event loop, plus the fault driver that crashes/rejoins
//!   live replicas and toggles brownouts on a running [`WireServer`].
//!
//! The server hosts a consistent-hash-sharded keyspace
//! ([`conprobe_services::shard`]): every `read_q`/`write_q` names its
//! key (a probe without `--key` addresses key 0), and every shard is a
//! full replica group with the paper's storage semantics.
//!
//! [`ServiceEndpoint`]: conprobe_harness::transport::ServiceEndpoint

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod chaos;
pub mod client;
mod conn;
pub mod dispatch;
pub mod frame;
pub mod load;
pub mod pipeline;
pub mod probe;
pub mod server;

pub use chaos::{
    drive_service_actions, ChaosConfig, ChaosLedger, ChaosProxy, ChaosTarget, InjectProfile,
};
pub use client::{ReconnectPolicy, WireClient};
pub use dispatch::{run_dispatch, run_worker, DispatchConfig, DispatchStats, WorkerConfig};
pub use frame::{decode, Frame, WireError, MAX_PAYLOAD, PROTO_VERSION};
pub use load::{run_load, LoadConfig, LoadReport};
pub use pipeline::{PipeConn, PipeFault};
pub use probe::{run_probe, run_probe_with_live, LiveEvent, ProbeConfig};
pub use server::{ServeConfig, ServeError, WireServer};

/// No bounds: every histogram has `conprobe-obs`'s one layout, and
/// `MetricsRegistry::histogram` ignores what it is given.
// frozen benchmark surface: ROADMAP item 24
pub fn wire_latency_bounds_nanos() -> Vec<u64> {
    Vec::new()
}

#[cfg(test)]
mod tests;
