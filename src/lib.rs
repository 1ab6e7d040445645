//! # conprobe — characterizing the consistency of online services
//!
//! Umbrella crate re-exporting the whole `conprobe` workspace: a faithful
//! reproduction of *"Characterizing the Consistency of Online Services
//! (Practical Experience Report)"* (Freitas, Leitão, Preguiça, Rodrigues —
//! DSN 2016) against simulated stand-ins for the paper's four services.
//!
//! Start with [`harness::campaign`] to run a measurement campaign, or see
//! `examples/quickstart.rs` for the shortest end-to-end path.

pub mod bench;
pub mod cli;
pub mod fsio;

pub use conprobe_core as core;
pub use conprobe_harness as harness;
pub use conprobe_json as json;
pub use conprobe_services as services;
pub use conprobe_sim as sim;
pub use conprobe_store as store;
pub use conprobe_wire as wire;
