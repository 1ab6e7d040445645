//! Golden fingerprints of the Tokyo partition: FB Group Test 2 with the
//! Tokyo-side replica cut off by its fault plan
//! (`TestConfig::with_tokyo_partition`), seeds 0–3.
//!
//! The literals were captured when the cut was still a partition the
//! world kept beside its fault plan. Expressing it as a plan event must
//! leave every trace byte-identical: a cut message takes no draw from
//! the network stream, so checking cuts after the link-delay draw, or
//! judging them with the region windows, moves these hashes.

use conprobe::bench::{fingerprint, GoldenFingerprint};
use conprobe_harness::proto::TestKind;
use conprobe_harness::runner::TestConfig;
use conprobe_services::ServiceKind;

#[test]
fn tokyo_partitioned_fbgroup_test2_matches_its_golden() {
    let config =
        TestConfig::paper(ServiceKind::FacebookGroup, TestKind::Test2).with_tokyo_partition();
    let pinned: [u64; 4] =
        [0x02efef1689476cca, 0xce168c602433a675, 0xf4aec5c22a48c274, 0xe8a947a3a5bff278];
    for (seed, trace_hash) in (0..).zip(pinned) {
        let got = fingerprint(&config, seed);
        // Two content-divergence observations and two content windows
        // per run; nothing else is observed.
        let want = GoldenFingerprint {
            trace_hash,
            anomaly_counts: ["RYW", "MW", "MR", "WFR", "CD", "OD"]
                .into_iter()
                .zip([0, 0, 0, 0, 2, 0])
                .collect(),
            content_windows: 2,
            order_windows: 0,
        };
        assert_eq!(got, want, "seed {seed}:\ngot  {}\nwant {}", got.render(), want.render());
    }
}
