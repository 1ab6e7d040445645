//! Plugging your own service model into the measurement methodology.
//!
//! The paper's methodology is deliberately black-box: anything that answers
//! `write`/`read` can be characterized. This example builds a hypothetical
//! "quorum-ish" service — three replicas, client writes everywhere but reads
//! one replica, no anti-entropy — and runs both tests against it to see
//! which anomalies its design admits.
//!
//! ```sh
//! cargo run --release --example custom_service
//! ```

use conprobe::core::AnomalyKind;
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::{run_one_test, TestConfig};
use conprobe::services::catalog::Topology;
use conprobe::services::{DelayDist, ReadPath, ReplicaParams, ServiceKind};
use conprobe::sim::net::Region;
use conprobe::sim::SimDuration;
use conprobe::store::{AffinityMap, OrderingPolicy};

/// One replica per agent region; asynchronous propagation with a modest
/// delay; reads served locally in arrival order; no repair protocol.
fn my_topology() -> Topology {
    let params = ReplicaParams {
        ordering: OrderingPolicy::Arrival,
        read_path: ReadPath::Snapshot,
        apply_delay: DelayDist::Zero,
        repl_delay: DelayDist::Exp {
            base: SimDuration::from_millis(200),
            mean: SimDuration::from_millis(400),
        },
        anti_entropy: Some(SimDuration::from_secs(3)),
        canonicalize_on_anti_entropy: true,
        canonicalize_on_push: false,
        write_mode: Default::default(),
    };
    Topology {
        replicas: vec![
            (Region::Oregon, params.clone()),
            (Region::Tokyo, params.clone()),
            (Region::Ireland, params),
        ],
        affinity: AffinityMap::one_per_agent(),
    }
}

fn main() {
    let runs = 8;
    for kind in [TestKind::Test1, TestKind::Test2] {
        // Reuse any ServiceKind as a label; the override topology is what
        // actually gets deployed.
        let mut config = TestConfig::paper(ServiceKind::Blogger, kind);
        config.service_override = Some(my_topology());

        let mut hits = std::collections::BTreeMap::new();
        for seed in 0..runs {
            let result = run_one_test(&config, seed);
            for obs in &result.analysis.observations {
                *hits.entry(obs.kind).or_insert(0u32) += 1;
            }
        }
        println!("== {kind} × {runs} instances against the custom service ==");
        if hits.is_empty() {
            println!("  no anomalies");
        }
        for kind in AnomalyKind::ALL {
            if let Some(n) = hits.get(&kind) {
                println!("  {kind}: {n} observation(s) across all runs");
            }
        }
        println!();
    }
    println!(
        "Arrival-ordered local reads admit order divergence and monotonic-\
         writes violations until anti-entropy re-sequences — the same class \
         of behaviour the paper observed on Google+."
    );
}
