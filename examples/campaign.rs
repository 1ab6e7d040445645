//! A miniature measurement campaign: the paper's §V at 1/20th scale.
//!
//! Runs Test 1 and Test 2 cells for every service (50 instances each, in
//! parallel), then prints Figure 3 and the per-pair content-divergence
//! breakdown of Figure 8. For the full set of tables and figures use
//! `conprobe repro` (`cargo run --release -- repro`).
//!
//! ```sh
//! cargo run --release --example campaign
//! ```

use conprobe::harness::campaign::{run_campaign, CampaignConfig, CampaignResult};
use conprobe::harness::figures;
use conprobe::harness::proto::TestKind;
use conprobe::services::ServiceKind;

fn main() {
    let tests = 50;
    let mut cells: Vec<(CampaignResult, CampaignResult)> = Vec::new();
    for service in ServiceKind::ALL {
        eprintln!("running {service} ({tests} instances per test kind)…");
        let t1 = run_campaign(&CampaignConfig::paper(service, TestKind::Test1, tests));
        let t2 = run_campaign(&CampaignConfig::paper(service, TestKind::Test2, tests));
        cells.push((t1, t2));
    }
    let pairs: Vec<(&CampaignResult, &CampaignResult)> =
        cells.iter().map(|(a, b)| (a, b)).collect();
    let t1_refs: Vec<&CampaignResult> = cells.iter().map(|(a, _)| a).collect();
    let t2_refs: Vec<&CampaignResult> = cells.iter().map(|(_, b)| b).collect();

    print!("{}", figures::render_table1(&t1_refs));
    print!("{}", figures::render_fig3(&pairs));
    print!("{}", figures::render_fig8(&t2_refs));
    print!("{}", figures::render_totals(&pairs));
}
