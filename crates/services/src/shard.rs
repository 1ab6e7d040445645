//! Consistent-hash keyspace sharding for the live serving path.
//!
//! A [`ShardRing`] places every shard at a fixed set of *virtual points*
//! on a 64-bit hash ring; a key belongs to the shard owning the first
//! point at or after the key's own hash (wrapping). Properties the live
//! cluster and its tests rely on:
//!
//! * **Deterministic** — placement is a pure function of the shard count
//!   and the key. No RNG, no per-process state: every client, server and
//!   replay of a probe trace computes the identical `key → shard` map,
//!   across runs and regardless of any experiment seed.
//! * **Bounded movement** — growing the ring from `n` to `n + 1` shards
//!   only reassigns keys that fall to the new shard's points (about
//!   `1/(n+1)` of the keyspace); every other key keeps its shard, so a
//!   resharded deployment invalidates only the migrated slice. This is
//!   the classic consistent-hashing contract, and `tests` pins it.
//! * **Balanced** — [`VNODES`] points per shard smooth the ring enough
//!   that no shard owns a pathological share of a uniform keyspace.
//! * **Constant-time lookup** — beside the sorted points the ring keeps a
//!   prefix table: for every top-`k`-bit prefix of the ring hash, the
//!   index of the first point at or after it, with `2^k` about four times
//!   the point count (16 KiB of `u32`s for 16 shards). A lookup hashes the
//!   key, reads two table entries and scans the points under its prefix
//!   (a quarter of a point on average), and lands on exactly the point a
//!   binary search over the whole ring would find.
//!
//! The hash is the workspace's standard FNV-1a 64 (the journal/frame
//! checksum), so the ring needs no new primitives.

/// Virtual points per shard. 64 keeps the worst/ideal load ratio within
/// ~2x for the shard counts the serving path uses (tens). The lookup cost
/// does not grow with it: the prefix table leaves a quarter of a point to
/// scan on average at any shard count.
pub const VNODES: usize = 64;

/// Most shards a ring holds. A shard is a replica group and [`VNODES`]
/// ring points, so the CLI bounds a shard count where it enters
/// (`serve --shards`, a ready file's `shards=` line).
pub const MAX_SHARDS: usize = 1024;

fn ring_hash(bytes: &[u8]) -> u64 {
    let mut hash = conprobe_json::frame::fnv64(bytes);
    // Raw FNV-1a diffuses short inputs poorly into the high bits, and
    // ring ownership is decided by the high bits; finish with a
    // SplitMix64-style avalanche so sequential keys scatter uniformly.
    hash ^= hash >> 30;
    hash = hash.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    hash ^= hash >> 27;
    hash = hash.wrapping_mul(0x94d0_49bb_1331_11eb);
    hash ^ (hash >> 31)
}

/// A consistent-hash ring mapping `u32` keyspace keys to shard indices.
#[derive(Debug, Clone)]
pub struct ShardRing {
    /// `(point, shard)` sorted by point.
    points: Vec<(u64, u32)>,
    /// `first[p]`: the index of the first point whose top bits are at or
    /// above prefix `p`; `first[2^k]` is `points.len()`.
    first: Vec<u32>,
    /// `64 - k`: a hash's prefix is `hash >> shift`.
    shift: u32,
    shards: usize,
}

impl ShardRing {
    /// Builds the ring for `shards` shards (at least 1, at most
    /// [`MAX_SHARDS`]).
    pub fn new(shards: usize) -> Self {
        assert!(shards <= MAX_SHARDS, "{shards} shards: the ring holds at most {MAX_SHARDS}");
        let shards = shards.max(1);
        let mut points = Vec::with_capacity(shards * VNODES);
        for shard in 0..shards as u32 {
            for vnode in 0..VNODES as u32 {
                let mut label = [0u8; 13];
                label[..5].copy_from_slice(b"shard");
                label[5..9].copy_from_slice(&shard.to_le_bytes());
                label[9..13].copy_from_slice(&vnode.to_le_bytes());
                points.push((ring_hash(&label), shard));
            }
        }
        points.sort_unstable();
        // Hash collisions between distinct shards' points would make
        // ownership order-dependent; FNV-64 over 13-byte labels makes
        // them absurdly unlikely, and the sort above resolves any tie
        // deterministically by shard index anyway.
        let bits = points.len().next_power_of_two().trailing_zeros() + 2;
        let shift = 64 - bits;
        let mut first = Vec::with_capacity((1 << bits) + 1);
        let mut idx = 0;
        for prefix in 0..1u64 << bits {
            while idx < points.len() && points[idx].0 >> shift < prefix {
                idx += 1;
            }
            first.push(idx as u32);
        }
        first.push(points.len() as u32);
        ShardRing { points, first, shift, shards }
    }

    /// Number of shards on the ring.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `key`: the first ring point at or after the
    /// key's hash, wrapping past the top of the ring.
    pub fn shard_for_key(&self, key: u32) -> usize {
        self.shard_for_hash(ring_hash(&key.to_le_bytes()))
    }

    /// The shard owning ring position `h`. Every point before
    /// `first[prefix]` lies below `h` and every point from
    /// `first[prefix + 1]` on lies above it, so only the points under
    /// `h`'s own prefix are compared.
    fn shard_for_hash(&self, h: u64) -> usize {
        let prefix = (h >> self.shift) as usize;
        let (lo, hi) = (self.first[prefix] as usize, self.first[prefix + 1] as usize);
        let idx = lo + self.points[lo..hi].iter().take_while(|&&(p, _)| p < h).count();
        let (_, shard) = self.points[if idx == self.points.len() { 0 } else { idx }];
        shard as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The binary search over every point that the prefix table stands in for.
    fn searched(ring: &ShardRing, h: u64) -> usize {
        let idx = ring.points.partition_point(|&(p, _)| p < h);
        ring.points[if idx == ring.points.len() { 0 } else { idx }].1 as usize
    }

    #[test]
    fn the_prefix_table_places_every_hash_where_a_full_search_does() {
        for shards in [1, 2, 3, 16, 17, 100, MAX_SHARDS] {
            let ring = ShardRing::new(shards);
            let keys = [0, u32::MAX].into_iter().chain((0..=u32::MAX).step_by(65_521));
            for key in keys {
                let h = ring_hash(&key.to_le_bytes());
                assert_eq!(
                    ring.shard_for_key(key),
                    searched(&ring, h),
                    "{shards} shards, key {key}"
                );
            }
            // On a point, just above one, and the ends of the ring.
            let on_and_above = ring.points.iter().flat_map(|&(p, _)| [p, p.saturating_add(1)]);
            for h in on_and_above.chain([0, u64::MAX]) {
                assert_eq!(
                    ring.shard_for_hash(h),
                    searched(&ring, h),
                    "{shards} shards, hash {h:#x}"
                );
            }
            let (last, _) = *ring.points.last().unwrap();
            if last < u64::MAX {
                let wrapped = ring.points[0].1 as usize;
                assert_eq!(ring.shard_for_hash(last + 1), wrapped, "{shards} shards: no wrap");
            }
        }
    }

    #[test]
    fn placement_is_deterministic_across_constructions() {
        // Two independently built rings (different call sites, different
        // "runs") agree on every key; nothing about placement depends on
        // process state or experiment seeds.
        let a = ShardRing::new(16);
        let b = ShardRing::new(16);
        for key in (0..100_000u32).step_by(61) {
            assert_eq!(a.shard_for_key(key), b.shard_for_key(key), "key {key}");
        }
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = ShardRing::new(1);
        for key in 0..1_000u32 {
            assert_eq!(ring.shard_for_key(key), 0);
        }
        // A zero request is clamped to one shard rather than panicking.
        assert_eq!(ShardRing::new(0).shard_for_key(7), 0);
    }

    #[test]
    fn growing_the_ring_moves_a_bounded_fraction_and_only_to_the_new_shard() {
        for n in [2usize, 4, 8, 16] {
            let before = ShardRing::new(n);
            let after = ShardRing::new(n + 1);
            let keys: Vec<u32> = (0..40_000u32).collect();
            let mut moved = 0usize;
            for &key in &keys {
                let from = before.shard_for_key(key);
                let to = after.shard_for_key(key);
                if from != to {
                    moved += 1;
                    // Consistent hashing: a key only ever moves *to* the
                    // shard that was added — old shards never trade keys
                    // among themselves.
                    assert_eq!(to, n, "key {key} moved {from}→{to} instead of to the new shard");
                }
            }
            let ideal = keys.len() / (n + 1);
            assert!(moved > 0, "growing {n}→{} must claim some keys", n + 1);
            assert!(
                moved <= ideal * 5 / 2,
                "growing {n}→{}: {moved} keys moved, ideal ~{ideal} (vnode imbalance too high)",
                n + 1
            );
        }
    }

    #[test]
    fn load_is_roughly_balanced_across_shards() {
        let shards = 16;
        let ring = ShardRing::new(shards);
        let mut counts = vec![0usize; shards];
        let total = 64_000u32;
        for key in 0..total {
            counts[ring.shard_for_key(key)] += 1;
        }
        let ideal = total as usize / shards;
        for (shard, &count) in counts.iter().enumerate() {
            assert!(count > 0, "shard {shard} owns no keys");
            assert!(
                count < ideal * 3,
                "shard {shard} owns {count} of {total} keys (ideal {ideal}) — ring too lumpy"
            );
        }
    }
}
