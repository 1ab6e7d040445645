//! Cristian-style clock-delta estimation (§IV, *Time synchronization*).
//!
//! *"A coordinator process conducts a series of queries to the different
//! agents to request a reading of their current local time, and also
//! measures the RTT to fulfill that query. The clock deltas are then
//! calculated by assuming the time spent to send the request and receive the
//! reply are the same, and taking the average over all the estimates of this
//! delta. The uncertainty of this computation is half of the RTT values."*

use conprobe_sim::LocalTime;

/// One completed probe: the coordinator's send/receive local times and the
/// agent's reported local reading.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ProbeSample {
    /// Coordinator local time when the probe was sent.
    pub sent: LocalTime,
    /// Coordinator local time when the reply arrived.
    pub received: LocalTime,
    /// The agent's local clock reading (taken when the probe reached it).
    pub agent_reading: LocalTime,
}

impl ProbeSample {
    /// The probe's round-trip time in nanoseconds.
    pub fn rtt_nanos(&self) -> i64 {
        self.received.delta_nanos(self.sent)
    }

    /// The single-probe delta estimate: agent reading minus the
    /// coordinator's midpoint time (assumes symmetric one-way delays).
    ///
    /// **Error bound.** If the true one-way delays are `d_req` (probe out)
    /// and `d_resp` (reply back), the estimate's error is exactly
    /// `(d_req − d_resp) / 2` — half the delay *asymmetry* — and therefore
    /// at most `RTT / 2` in magnitude, which is why the paper reports half
    /// the RTT as the uncertainty. A perfectly symmetric path gives zero
    /// error regardless of how slow it is. The property test
    /// `asymmetry_error_is_exactly_half_the_delay_imbalance` exercises
    /// this bound across a seeded sweep of delay splits and true deltas.
    pub fn delta_nanos(&self) -> i64 {
        let midpoint = self.sent.as_nanos() + self.rtt_nanos() / 2;
        self.agent_reading.as_nanos() - midpoint
    }
}

/// The estimated clock delta of one agent relative to the coordinator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DeltaEstimate {
    /// Estimated `agent_local − coordinator_local`, in nanoseconds.
    pub delta_nanos: i64,
    /// Half the average RTT — the paper's uncertainty bound.
    pub uncertainty_nanos: i64,
    /// Number of probes averaged.
    pub samples: u32,
}

impl DeltaEstimate {
    /// Maps an agent-local reading onto the coordinator's timeline.
    pub fn to_coordinator(&self, agent_local: LocalTime) -> LocalTime {
        agent_local.offset_by(-self.delta_nanos)
    }
}

/// Averages probe samples into a [`DeltaEstimate`].
///
/// # Panics
///
/// Panics if `samples` is empty — an estimate from zero probes is
/// meaningless, and the coordinator never requests one.
pub fn estimate(samples: &[ProbeSample]) -> DeltaEstimate {
    assert!(!samples.is_empty(), "cannot estimate a clock delta from zero probes");
    let n = samples.len() as i64;
    let delta = samples.iter().map(ProbeSample::delta_nanos).sum::<i64>() / n;
    let avg_rtt = samples.iter().map(ProbeSample::rtt_nanos).sum::<i64>() / n;
    DeltaEstimate {
        delta_nanos: delta,
        uncertainty_nanos: avg_rtt / 2,
        samples: samples.len() as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn lt(ms: i64) -> LocalTime {
        LocalTime::from_nanos(ms * 1_000_000)
    }

    #[test]
    fn symmetric_probe_recovers_exact_delta() {
        // Coordinator sends at 0, receives at 100 ms; the agent (clock
        // +5 s) read its clock at true midpoint 50 ms → reading 5050 ms.
        let p = ProbeSample { sent: lt(0), received: lt(100), agent_reading: lt(5050) };
        assert_eq!(p.rtt_nanos(), 100_000_000);
        assert_eq!(p.delta_nanos(), 5_000_000_000);
        let e = estimate(&[p]);
        assert_eq!(e.delta_nanos, 5_000_000_000);
        assert_eq!(e.uncertainty_nanos, 50_000_000);
        assert_eq!(e.samples, 1);
    }

    #[test]
    fn asymmetric_delay_error_is_bounded_by_half_rtt() {
        // True delta 0, but the request took 80 ms and the reply 20 ms:
        // reading taken at true 80 ms, midpoint assumed 50 ms → error 30 ms
        // < half RTT (50 ms).
        let p = ProbeSample { sent: lt(0), received: lt(100), agent_reading: lt(80) };
        let err = p.delta_nanos().abs();
        assert_eq!(err, 30_000_000);
        assert!(err <= p.rtt_nanos() / 2);
    }

    #[test]
    fn averaging_reduces_noise() {
        // Two probes with opposite asymmetries average to the truth.
        let p1 = ProbeSample { sent: lt(0), received: lt(100), agent_reading: lt(80) };
        let p2 = ProbeSample { sent: lt(200), received: lt(300), agent_reading: lt(220) };
        let e = estimate(&[p1, p2]);
        assert_eq!(e.delta_nanos, 0);
        assert_eq!(e.samples, 2);
    }

    #[test]
    fn negative_delta_round_trip() {
        // Agent clock 2 s *behind*.
        let p = ProbeSample { sent: lt(0), received: lt(100), agent_reading: lt(-1950) };
        let e = estimate(&[p]);
        assert_eq!(e.delta_nanos, -2_000_000_000);
        // Mapping an agent reading back onto the coordinator timeline.
        assert_eq!(e.to_coordinator(lt(-1950)), lt(50));
    }

    #[test]
    #[should_panic(expected = "zero probes")]
    fn estimate_requires_samples() {
        let _ = estimate(&[]);
    }

    /// Property test for the documented asymmetry bound: for *any* true
    /// delta, send time, and request/response delay split, the estimation
    /// error is exactly `(d_resp − d_req) / 2` (up to integer-division
    /// rounding) and never exceeds half the RTT. A seeded sweep, so the
    /// corpus is reproducible.
    #[test]
    fn asymmetry_error_is_exactly_half_the_delay_imbalance() {
        let mut rng = conprobe_json::testkit::TestRng::new(0x9e3779b97f4a7c15);
        for _ in 0..2_000 {
            let sent_nanos = rng.below(3_600_000_000_000) as i64 - 1_800_000_000_000;
            let d_req = rng.below(500_000_000) as i64 + 1; // 1 ns ‥ 500 ms out
            let d_resp = rng.below(500_000_000) as i64 + 1; // 1 ns ‥ 500 ms back
            let true_delta = rng.below(20_000_000_000) as i64 - 10_000_000_000; // ±10 s
            let reading = sent_nanos + d_req + true_delta;
            let p = ProbeSample {
                sent: LocalTime::from_nanos(sent_nanos),
                received: LocalTime::from_nanos(sent_nanos + d_req + d_resp),
                agent_reading: LocalTime::from_nanos(reading),
            };
            let err = p.delta_nanos() - true_delta;
            let expected = (d_req - d_resp) / 2;
            // Integer midpoint division may shave one nanosecond.
            assert!(
                (err - expected).abs() <= 1,
                "error {err} != (d_req−d_resp)/2 = {expected} (d_req={d_req}, d_resp={d_resp})"
            );
            assert!(
                err.abs() <= p.rtt_nanos() / 2 + 1,
                "error {err} exceeds half RTT {}",
                p.rtt_nanos() / 2
            );
        }
    }
}
