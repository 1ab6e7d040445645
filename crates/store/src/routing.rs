//! Client-region → replica affinity.
//!
//! Several of the paper's findings are explained by *which datacenter a
//! client talks to*: Google+ content divergence is much rarer (and resolves
//! much faster) between Oregon and Japan than between other pairs,
//! "suggest\[ing\] that the Oregon and the Japan agents are connecting to the
//! same data center"; in Facebook Group, "the agent in Japan may be
//! contacting a different replica than the remaining agents". An
//! [`AffinityMap`] encodes those assignments.

use conprobe_sim::net::Region;
use std::collections::BTreeMap;

/// Maps client regions to replica indices (indices are interpreted by the
/// service model that owns the map).
#[derive(Debug, Clone, Default)]
pub struct AffinityMap {
    assignments: BTreeMap<Region, usize>,
    fallback: usize,
}

impl AffinityMap {
    /// Creates an empty map whose unmatched regions route to replica 0.
    pub fn new() -> Self {
        AffinityMap::default()
    }

    /// Creates a map with an explicit fallback replica.
    pub fn with_fallback(fallback: usize) -> Self {
        AffinityMap { assignments: BTreeMap::new(), fallback }
    }

    /// Routes `region` to `replica`.
    pub fn assign(&mut self, region: Region, replica: usize) -> &mut Self {
        self.assignments.insert(region, replica);
        self
    }

    /// The replica index serving `region`.
    pub fn replica_for(&self, region: Region) -> usize {
        self.assignments.get(&region).copied().unwrap_or(self.fallback)
    }

    /// The Google+ model's affinity per the paper's inference: Oregon and
    /// Tokyo share replica 0 ("DC-West"); Ireland uses replica 1 ("DC-EU").
    pub fn gplus_paper() -> Self {
        let mut m = AffinityMap::new();
        m.assign(Region::Oregon, 0).assign(Region::Tokyo, 0).assign(Region::Ireland, 1);
        m
    }

    /// One replica per agent region: Oregon→0, Tokyo→1, Ireland→2 (the
    /// Facebook Feed model, where divergence is uniform across pairs).
    pub fn one_per_agent() -> Self {
        let mut m = AffinityMap::new();
        m.assign(Region::Oregon, 0).assign(Region::Tokyo, 1).assign(Region::Ireland, 2);
        m
    }

    /// The number of distinct replicas referenced (including the fallback).
    pub fn replica_count(&self) -> usize {
        self.assignments.values().copied().chain(std::iter::once(self.fallback)).max().unwrap_or(0)
            + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fallback_routes_unknown_regions() {
        let m = AffinityMap::with_fallback(2);
        assert_eq!(m.replica_for(Region::Virginia), 2);
    }

    #[test]
    fn gplus_affinity_matches_paper_inference() {
        let m = AffinityMap::gplus_paper();
        assert_eq!(m.replica_for(Region::Oregon), m.replica_for(Region::Tokyo));
        assert_ne!(m.replica_for(Region::Oregon), m.replica_for(Region::Ireland));
    }

    #[test]
    fn one_per_agent_is_injective() {
        let m = AffinityMap::one_per_agent();
        let set: std::collections::HashSet<_> =
            Region::AGENTS.iter().map(|r| m.replica_for(*r)).collect();
        assert_eq!(set.len(), 3);
        assert_eq!(m.replica_count(), 3);
    }

    #[test]
    fn replica_count_includes_fallback() {
        let mut m = AffinityMap::with_fallback(0);
        m.assign(Region::Oregon, 4);
        assert_eq!(m.replica_count(), 5);
    }
}
