//! WAN network model: regions and the latency matrix.
//!
//! The paper's agents sat in three Amazon EC2 availability zones — Oregon,
//! Tokyo and Ireland — with a coordinator in North Virginia, and reported
//! average coordinator↔agent RTTs of 136 ms (Oregon), 218 ms (Tokyo) and
//! 172 ms (Ireland). [`LatencyMatrix::paper_wan`] seeds the model from those
//! numbers; inter-agent links use public WAN measurements of the same era.
//!
//! One-way delays are sampled as `base + Exp(jitter_mean)`, a standard heavy
//! -tail-ish WAN model that keeps medians near the base while producing the
//! occasional slow packet. Links themselves never lose a message: every
//! loss, block, cut or extra delay is a window of the world's
//! [`crate::faults::FaultPlan`] (see [`crate::world::WorldConfig`]), so
//! this module has no fault rules of its own.

use crate::rng::SimRng;
use crate::time::SimDuration;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt;

/// A geographic region hosting one or more nodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Region {
    /// Amazon EC2 us-west-2 — paper agent 1.
    Oregon,
    /// Amazon EC2 ap-northeast-1 — paper agent 2.
    Tokyo,
    /// Amazon EC2 eu-west-1 — paper agent 3.
    Ireland,
    /// Amazon EC2 us-east-1 — paper coordinator.
    Virginia,
    /// An additional datacenter region (service back-ends).
    Datacenter(u8),
}

impl Region {
    /// The three agent regions, in the paper's agent-id order.
    pub const AGENTS: [Region; 3] = [Region::Oregon, Region::Tokyo, Region::Ireland];

    /// Short label used in figures ("OR", "JP", "IR", "VA", "DCn").
    ///
    /// Borrowed for the fixed regions; only `Datacenter(n)` allocates.
    pub fn short(&self) -> Cow<'static, str> {
        match self {
            Region::Oregon => Cow::Borrowed("OR"),
            Region::Tokyo => Cow::Borrowed("JP"),
            Region::Ireland => Cow::Borrowed("IR"),
            Region::Virginia => Cow::Borrowed("VA"),
            Region::Datacenter(n) => Cow::Owned(format!("DC{n}")),
        }
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Region::Oregon => write!(f, "Oregon"),
            Region::Tokyo => write!(f, "Tokyo"),
            Region::Ireland => write!(f, "Ireland"),
            Region::Virginia => write!(f, "Virginia"),
            Region::Datacenter(n) => write!(f, "Datacenter{n}"),
        }
    }
}

/// Timing parameters of a directed region pair.
#[derive(Debug, Clone, Copy)]
pub struct LinkSpec {
    /// Minimum one-way delay.
    pub base: SimDuration,
    /// Mean of the exponential jitter added on top of `base`.
    pub jitter_mean: SimDuration,
}

impl LinkSpec {
    /// A link with the given base one-way delay in milliseconds and 10 %
    /// of the base as mean jitter.
    pub fn wan_ms(base_ms: u64) -> Self {
        LinkSpec {
            base: SimDuration::from_millis(base_ms),
            jitter_mean: SimDuration::from_millis((base_ms / 10).max(1)),
        }
    }

    /// A fast intra-datacenter link (250 µs base, 50 µs jitter).
    pub fn local() -> Self {
        LinkSpec { base: SimDuration::from_micros(250), jitter_mean: SimDuration::from_micros(50) }
    }

    /// Samples one message's one-way delay: `base + Exp(jitter_mean)`.
    pub(crate) fn sample_delay(&self, rng: &mut SimRng) -> SimDuration {
        let jitter = rng.gen_exp(self.jitter_mean.as_nanos() as f64);
        self.base + SimDuration::from_nanos(jitter.round() as u64)
    }
}

/// Symmetric matrix of [`LinkSpec`]s between regions.
///
/// Lookups are symmetric: the spec for `(a, b)` also answers `(b, a)`.
/// Unspecified pairs fall back to [`LatencyMatrix::default_link`].
#[derive(Debug, Clone)]
pub struct LatencyMatrix {
    links: BTreeMap<(Region, Region), LinkSpec>,
    default_link: LinkSpec,
    local_link: LinkSpec,
}

impl Default for LatencyMatrix {
    fn default() -> Self {
        LatencyMatrix::paper_wan()
    }
}

impl LatencyMatrix {
    /// An empty matrix where every inter-region link uses `default_link`.
    pub fn uniform(default_link: LinkSpec) -> Self {
        LatencyMatrix { links: BTreeMap::new(), default_link, local_link: LinkSpec::local() }
    }

    /// Every link, intra-region included, delivers at once: what the
    /// replicas of one process see of each other.
    pub fn instant() -> Self {
        let link = LinkSpec { base: SimDuration::ZERO, jitter_mean: SimDuration::ZERO };
        LatencyMatrix { links: BTreeMap::new(), default_link: link, local_link: link }
    }

    /// The WAN the paper ran on.
    ///
    /// Coordinator links reproduce the paper's measured RTTs exactly
    /// (one-way = RTT/2): Virginia–Oregon 136 ms, Virginia–Tokyo 218 ms,
    /// Virginia–Ireland 172 ms. Inter-agent links use representative
    /// inter-AZ figures of the period.
    pub fn paper_wan() -> Self {
        let mut m = LatencyMatrix::uniform(LinkSpec::wan_ms(60));
        m.set(Region::Virginia, Region::Oregon, LinkSpec::wan_ms(68));
        m.set(Region::Virginia, Region::Tokyo, LinkSpec::wan_ms(109));
        m.set(Region::Virginia, Region::Ireland, LinkSpec::wan_ms(86));
        m.set(Region::Oregon, Region::Tokyo, LinkSpec::wan_ms(48));
        m.set(Region::Oregon, Region::Ireland, LinkSpec::wan_ms(70));
        m.set(Region::Tokyo, Region::Ireland, LinkSpec::wan_ms(120));
        m
    }

    /// Sets the spec for an unordered region pair.
    pub fn set(&mut self, a: Region, b: Region, spec: LinkSpec) -> &mut Self {
        let key = if a <= b { (a, b) } else { (b, a) };
        self.links.insert(key, spec);
        self
    }

    /// The spec used for pairs with no explicit entry.
    pub fn default_link(&self) -> LinkSpec {
        self.default_link
    }

    /// Looks up the spec for a (possibly intra-region) pair.
    pub fn link(&self, a: Region, b: Region) -> LinkSpec {
        if a == b {
            return self.local_link;
        }
        let key = if a <= b { (a, b) } else { (b, a) };
        self.links.get(&key).copied().unwrap_or(self.default_link)
    }

    /// Samples a one-way delay for a message from `a` to `b`.
    pub fn sample_delay(&self, a: Region, b: Region, rng: &mut SimRng) -> SimDuration {
        self.link(a, b).sample_delay(rng)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn short_labels_match_figures() {
        assert_eq!(Region::Oregon.short(), "OR");
        assert_eq!(Region::Tokyo.short(), "JP");
        assert_eq!(Region::Ireland.short(), "IR");
        assert_eq!(Region::Virginia.short(), "VA");
        assert_eq!(Region::Datacenter(3).short(), "DC3");
    }

    #[test]
    fn short_borrows_for_fixed_regions() {
        for r in Region::AGENTS.iter().chain([Region::Virginia].iter()) {
            assert!(matches!(r.short(), Cow::Borrowed(_)), "{r} should not allocate");
        }
        assert!(matches!(Region::Datacenter(0).short(), Cow::Owned(_)));
    }

    #[test]
    fn lookup_is_symmetric() {
        let m = LatencyMatrix::paper_wan();
        let a = m.link(Region::Virginia, Region::Tokyo);
        let b = m.link(Region::Tokyo, Region::Virginia);
        assert_eq!(a.base, b.base);
        assert_eq!(a.base, SimDuration::from_millis(109));
    }

    #[test]
    fn paper_rtts_match_measurements() {
        // One-way × 2 should give the RTTs reported in the paper, §V.
        let m = LatencyMatrix::paper_wan();
        for (region, rtt_ms) in
            [(Region::Oregon, 136), (Region::Tokyo, 218), (Region::Ireland, 172)]
        {
            let one_way = m.link(Region::Virginia, region).base;
            assert_eq!(one_way.as_millis() * 2, rtt_ms);
        }
    }

    #[test]
    fn intra_region_is_fast() {
        let m = LatencyMatrix::paper_wan();
        assert!(m.link(Region::Oregon, Region::Oregon).base < SimDuration::from_millis(1));
    }

    #[test]
    fn unknown_pair_uses_default() {
        let m = LatencyMatrix::paper_wan();
        let d = m.link(Region::Datacenter(0), Region::Datacenter(1));
        assert_eq!(d.base, m.default_link().base);
    }

    #[test]
    fn sampled_delay_at_least_base() {
        let m = LatencyMatrix::paper_wan();
        let mut rng = SimRng::new(1);
        for _ in 0..200 {
            let d = m.sample_delay(Region::Oregon, Region::Ireland, &mut rng);
            assert!(d >= SimDuration::from_millis(70));
            assert!(d < SimDuration::from_millis(300), "pathological jitter: {d}");
        }
    }
}
