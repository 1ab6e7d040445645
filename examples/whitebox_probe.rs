//! White-box vs black-box: is the divergence your clients perceive real?
//!
//! Runs Test 2 against Google+ and Facebook Feed with the replica probe
//! enabled and contrasts what agents saw (black box) with what the replica
//! states actually were (white box) — implementing the paper's future-work
//! suggestion of extending the methodology with white-box testing.
//!
//! ```sh
//! cargo run --release --example whitebox_probe
//! ```

use conprobe::core::AnomalyKind;
use conprobe::harness::proto::TestKind;
use conprobe::harness::runner::{run_one_test, TestConfig};
use conprobe::services::ServiceKind;
use conprobe::sim::SimDuration;

fn main() {
    println!(
        "{:<10}{:>6}{:>16}{:>16}{:>14}{:>14}",
        "service", "seed", "black-box CD", "black-box OD", "true CD", "true OD"
    );
    for service in [ServiceKind::GooglePlus, ServiceKind::FacebookFeed] {
        for seed in 0..5 {
            let mut config = TestConfig::paper(service, TestKind::Test2);
            config.whitebox_period = Some(SimDuration::from_millis(100));
            let r = run_one_test(&config, seed);
            let report = r.whitebox.as_ref().expect("probe enabled");
            println!(
                "{:<10}{:>6}{:>16}{:>16}{:>14}{:>14}",
                service.name(),
                seed,
                r.has(AnomalyKind::ContentDivergence),
                r.has(AnomalyKind::OrderDivergence),
                report.content_presence,
                report.order_presence,
            );
        }
    }
    println!(
        "\nFacebook Feed: the replicas essentially never order-diverge — the \n\
         order divergence agents see is manufactured by the interest-ranked \n\
         read path (the paper's own explanation, §V). Google+: what agents \n\
         see is what the replicas do."
    );
}
