//! Trace portability and analysis stability: results can be exported,
//! re-imported and re-analyzed bit-for-bit — the workflow for analyzing a
//! trace captured elsewhere (e.g. a future real-HTTP agent, per the paper's
//! future-work direction of extending the methodology to other services).

use conprobe::core::checkers::WfrMode;
use conprobe::core::{analyze, AnomalyKind, CheckerConfig, TestTrace};
use conprobe::harness::proto::{test1_trigger_pairs, TestKind};
use conprobe::harness::runner::{run_one_test, TestConfig};
use conprobe::json::{FromJson, ToJson};
use conprobe::services::ServiceKind;
use conprobe::store::PostId;

#[test]
fn traces_round_trip_through_json() {
    let config = TestConfig::paper(ServiceKind::FacebookFeed, TestKind::Test1);
    let r = run_one_test(&config, 21);
    let json = r.trace.to_compact();
    let parsed = conprobe::json::parse(&json).expect("parse");
    let back: TestTrace<PostId> = FromJson::from_json(&parsed).expect("deserialize");
    assert_eq!(r.trace, back);

    // Re-analysis of the imported trace reproduces the original findings.
    let checker = CheckerConfig { wfr_mode: WfrMode::TriggerPairs(test1_trigger_pairs(3)) };
    let re = analyze(&back, &checker);
    for kind in AnomalyKind::ALL {
        assert_eq!(re.count(kind), r.analysis.count(kind), "{kind} count changed after round trip");
    }
    assert_eq!(re.content_windows, r.analysis.content_windows);
    assert_eq!(re.order_windows, r.analysis.order_windows);
}

#[test]
fn analysis_is_a_pure_function_of_the_trace() {
    let config = TestConfig::paper(ServiceKind::GooglePlus, TestKind::Test2);
    let r = run_one_test(&config, 8);
    let a = analyze(&r.trace, &CheckerConfig::default());
    let b = analyze(&r.trace, &CheckerConfig::default());
    assert_eq!(a.observations, b.observations);
    assert_eq!(a.content_windows, b.content_windows);
}

/// Observation metadata is well-formed on real traces: observers exist,
/// divergence pairs are ordered, timestamps lie within the trace.
#[test]
fn observation_metadata_is_well_formed() {
    let config = TestConfig::paper(ServiceKind::FacebookFeed, TestKind::Test2);
    let r = run_one_test(&config, 13);
    let first = r.trace.ops().first().expect("non-empty").invoke;
    let last = r.trace.ops().iter().map(|o| o.response).max().unwrap();
    for obs in &r.analysis.observations {
        assert!(obs.agent.0 < 3);
        assert!(obs.at >= first && obs.at <= last, "{obs}");
        assert!(!obs.witnesses.is_empty());
        if matches!(obs.kind, AnomalyKind::ContentDivergence | AnomalyKind::OrderDivergence) {
            let other = obs.other_agent.expect("divergence names a pair");
            assert!(obs.agent < other, "pairs are normalized");
        }
    }
}
