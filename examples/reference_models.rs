//! A consistency-design safari: the same black-box methodology applied to
//! five reference designs, producing five distinct anomaly signatures.
//!
//! | design | expected signature |
//! |---|---|
//! | single synchronous replica (Blogger) | nothing |
//! | weak multi-master (Google+ preset)   | everything, at modest rates |
//! | ranked feed (FB Feed preset)         | everything, extreme rates |
//! | primary-backup, local reads          | only read-your-writes staleness |
//! | majority quorums (`Quorum`)          | five checkers clean; Test 2 content divergence in ≈ 5–8 % of runs |
//!
//! ```sh
//! cargo run --release --example reference_models
//! ```

use conprobe::core::{AnomalyKind, Verdict};
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::{run_one_test, TestConfig};
use conprobe::services::catalog::{topology_primary_backup, Topology};
use conprobe::services::ServiceKind;

fn profile(label: &str, service: ServiceKind, topo: Option<Topology>) {
    let runs = 6u64;
    let mut counts = std::collections::BTreeMap::new();
    let mut last_verdict = None;
    for seed in 0..runs {
        for kind in [TestKind::Test1, TestKind::Test2] {
            let mut config = TestConfig::paper(service, kind);
            config.service_override = topo.clone();
            let r = run_one_test(&config, seed);
            for obs in &r.analysis.observations {
                *counts.entry(obs.kind).or_insert(0u32) += 1;
            }
            last_verdict = Some(Verdict::from_analysis(&r.analysis, service.reads_whole_state()));
        }
    }
    println!("== {label} ==");
    if counts.is_empty() {
        println!("  anomaly-free across {runs} runs of both tests");
    }
    for kind in AnomalyKind::ALL {
        if let Some(n) = counts.get(&kind) {
            println!("  {kind:<22} {n:>5} observation(s)");
        }
    }
    if let Some(v) = last_verdict {
        println!("  last run: {}", v.strongest_level());
    }
    println!();
}

fn main() {
    profile("single synchronous replica (Blogger)", ServiceKind::Blogger, None);
    profile("weak multi-master (Google+)", ServiceKind::GooglePlus, None);
    profile("interest-ranked feed (FB Feed)", ServiceKind::FacebookFeed, None);
    profile(
        "primary-backup with local reads",
        ServiceKind::Blogger,
        Some(topology_primary_backup(400)),
    );
    profile("majority quorums (sync writes + quorum reads)", ServiceKind::Quorum, None);
}
