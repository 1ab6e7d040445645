//! Study scheduling — the paper's month-long campaign calendar.
//!
//! §V: *"For each of the services, we deployed the various agents for a
//! total period of roughly 30 days per service (for running both tests).
//! For each service, we alternated between running each of the two test
//! types roughly every four days … Due to rate limits, after a test
//! instance finishes, we had to wait for a fixed period of time before
//! starting a new one."*
//!
//! [`StudyPlan`] captures that calendar, and [`plan_counts`] computes how
//! many instances of each test fit (using a pilot run to estimate
//! per-instance duration, since Test 1's duration is emergent) — a sanity
//! check on the paper's own arithmetic: ~30 days at the reported pauses
//! yields test counts of the same order as Tables I–II.

use crate::campaign::CampaignConfig;
use crate::proto::TestKind;
use crate::runner::{run_one_test, TestConfig};
use conprobe_services::ServiceKind;
use conprobe_sim::SimDuration;

/// The calendar of one service's study.
#[derive(Debug, Clone)]
pub struct StudyPlan {
    /// Service under study.
    pub service: ServiceKind,
    /// Length of one alternation block (the paper: 4 days).
    pub block: SimDuration,
    /// Total study duration (the paper: ~30 days).
    pub total: SimDuration,
    /// Pause after each Test 1 instance (Table I).
    pub pause_test1: SimDuration,
    /// Pause after each Test 2 instance (Table II).
    pub pause_test2: SimDuration,
}

impl StudyPlan {
    /// The paper's calendar for `service`: 4-day blocks over 30 days, with
    /// Table I/II pauses.
    pub fn paper(service: ServiceKind) -> Self {
        let t1 = CampaignConfig::paper(service, TestKind::Test1, 1);
        let t2 = CampaignConfig::paper(service, TestKind::Test2, 1);
        StudyPlan {
            service,
            block: SimDuration::from_secs(4 * 86_400),
            total: SimDuration::from_secs(30 * 86_400),
            pause_test1: t1.between_tests,
            pause_test2: t2.between_tests,
        }
    }

    /// Wall-clock share of the study spent on each test type (alternating
    /// equal blocks ⇒ half each, modulo the final partial block).
    pub fn time_per_kind(&self) -> (SimDuration, SimDuration) {
        let blocks = self.total.as_nanos() / self.block.as_nanos().max(1);
        let t1_blocks = blocks.div_ceil(2);
        let t2_blocks = blocks / 2;
        let remainder =
            SimDuration::from_nanos(self.total.as_nanos() - blocks * self.block.as_nanos());
        let t1 = SimDuration::from_nanos(t1_blocks * self.block.as_nanos())
            + if blocks.is_multiple_of(2) { remainder } else { SimDuration::ZERO };
        let t2 = SimDuration::from_nanos(t2_blocks * self.block.as_nanos())
            + if !blocks.is_multiple_of(2) { remainder } else { SimDuration::ZERO };
        (t1, t2)
    }
}

/// Estimated instance counts for a plan, from measured per-test durations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PlannedCounts {
    /// Test 1 instances that fit in the calendar.
    pub test1: u32,
    /// Test 2 instances that fit.
    pub test2: u32,
}

/// Runs `pilots` instances of each test to estimate mean durations, then
/// computes how many instances fit the plan's calendar.
pub fn plan_counts(plan: &StudyPlan, pilots: u32, seed: u64) -> PlannedCounts {
    let mean_duration = |kind: TestKind| -> f64 {
        let config = TestConfig::paper(plan.service, kind);
        let total: f64 = (0..pilots.max(1))
            .map(|i| run_one_test(&config, seed ^ (i as u64) << 32).duration_secs)
            .sum();
        total / pilots.max(1) as f64
    };
    let (t1_time, t2_time) = plan.time_per_kind();
    let per1 = mean_duration(TestKind::Test1) + plan.pause_test1.as_secs_f64();
    let per2 = mean_duration(TestKind::Test2) + plan.pause_test2.as_secs_f64();
    PlannedCounts {
        test1: (t1_time.as_secs_f64() / per1) as u32,
        test2: (t2_time.as_secs_f64() / per2) as u32,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_plan_uses_table_pauses() {
        let plan = StudyPlan::paper(ServiceKind::GooglePlus);
        assert_eq!(plan.pause_test1, SimDuration::from_secs(34 * 60));
        assert_eq!(plan.pause_test2, SimDuration::from_secs(17 * 60));
        assert_eq!(plan.block.as_millis(), 4 * 86_400_000);
    }

    #[test]
    fn time_split_is_roughly_half_half() {
        let plan = StudyPlan::paper(ServiceKind::Blogger);
        let (t1, t2) = plan.time_per_kind();
        assert_eq!(t1 + t2, plan.total);
        // 30/4 = 7.5 blocks → 4 blocks test1, 3 blocks test2 + remainder.
        assert_eq!(t1.as_nanos(), 4 * plan.block.as_nanos());
        assert_eq!(t2.as_nanos(), 3 * plan.block.as_nanos() + plan.block.as_nanos() / 2);
    }

    #[test]
    fn planned_counts_land_in_the_papers_order_of_magnitude() {
        // The real check on the paper's arithmetic: its calendar and pauses
        // must produce counts in the hundreds-to-low-thousands per cell.
        for service in [ServiceKind::GooglePlus, ServiceKind::FacebookFeed] {
            let plan = StudyPlan::paper(service);
            let counts = plan_counts(&plan, 1, 7);
            assert!((200..5_000).contains(&counts.test1), "{service} test1: {counts:?}");
            assert!((200..20_000).contains(&counts.test2), "{service} test2: {counts:?}");
        }
    }
}
