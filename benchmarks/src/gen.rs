//! Seeded input generation: the benchmark's own random stream, Poisson
//! arrival schedules and keyed op sequences.
//!
//! The generator is deliberately not the product's `SimRng`/`TestRng`: a
//! later change to either must not be able to change what a workload
//! sends. Same seed ⇒ same schedule, byte for byte (pinned by a test).

/// FNV-1a 64 over a byte string, for pinning generated inputs and
/// checking outputs. The benchmark's own copy, for the same reason the
/// random stream is.
pub fn fnv64(bytes: &[u8]) -> u64 {
    fnv64_fold(0xcbf2_9ce4_8422_2325, bytes)
}

/// Continues an FNV-1a 64 hash over more bytes.
pub fn fnv64_fold(mut hash: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        hash ^= u64::from(b);
        hash = hash.wrapping_mul(0x100_0000_01b3);
    }
    hash
}

/// A splitmix64 stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// The stream `label` of `seed`: streams with different labels are
    /// independent, so adding a draw to one never shifts another.
    pub fn new(seed: u64, label: &str) -> Self {
        Rng(seed ^ fnv64(label.as_bytes()))
    }

    /// Next raw value.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform draw in `0..n`.
    pub fn below(&mut self, n: u32) -> u32 {
        ((u128::from(self.next_u64()) * u128::from(n)) >> 64) as u32
    }

    /// Uniform draw in `(0, 1]`.
    pub fn unit(&mut self) -> f64 {
        ((self.next_u64() >> 11) + 1) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// True with probability `p`.
    pub fn chance(&mut self, p: f64) -> bool {
        self.unit() <= p
    }
}

/// One operation of a live workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Op {
    /// When the op is due, nanoseconds after the phase starts (0 in a
    /// closed loop, where an op is due when a slot frees).
    pub due_ns: u64,
    /// Keyspace key.
    pub key: u32,
    /// `write_q` rather than `read_q`.
    pub write: bool,
}

/// The traffic mix of a live workload: uniform keys, a fixed write share.
#[derive(Debug, Clone)]
pub struct OpStream {
    rng: Rng,
    keys: u32,
    write_pct: u32,
}

impl OpStream {
    /// The op stream `label` of `seed`.
    pub fn new(seed: u64, label: &str, keys: u32, write_pct: u32) -> Self {
        OpStream { rng: Rng::new(seed, label), keys, write_pct }
    }

    /// The next op, due at `due_ns`.
    pub fn next_op(&mut self, due_ns: u64) -> Op {
        let key = self.rng.below(self.keys);
        let write = self.rng.below(100) < self.write_pct;
        Op { due_ns, key, write }
    }
}

/// An open-loop schedule: Poisson arrivals at `rate_per_s` for `nanos`,
/// each op due at its arrival instant whatever the system under test is
/// doing — so a stall delays, and is charged to, every op due during it.
pub fn poisson_schedule(mut stream: OpStream, seed: u64, rate_per_s: f64, nanos: u64) -> Vec<Op> {
    let mut arrivals = Rng::new(seed, "arrivals");
    let mean_gap_ns = 1e9 / rate_per_s;
    let mut ops = Vec::with_capacity((nanos as f64 / mean_gap_ns * 1.05) as usize + 16);
    let mut at = 0.0f64;
    loop {
        at -= arrivals.unit().ln() * mean_gap_ns;
        if at >= nanos as f64 {
            return ops;
        }
        ops.push(stream.next_op(at as u64));
    }
}

/// Fingerprint of an op sequence (pins determinism in tests and lets two
/// result files prove they ran the same inputs).
pub fn ops_hash(ops: &[Op]) -> u64 {
    ops.iter().fold(fnv64(b"ops"), |h, op| {
        let h = fnv64_fold(h, &op.due_ns.to_le_bytes());
        let h = fnv64_fold(h, &op.key.to_le_bytes());
        fnv64_fold(h, &[u8::from(op.write)])
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    #[test]
    fn same_seed_same_schedule_and_the_hash_is_pinned() {
        let make = |seed| {
            poisson_schedule(OpStream::new(seed, "mix", 1024, 10), seed, 40_000.0, 50_000_000)
        };
        let (a, b) = (make(0xB17E), make(0xB17E));
        assert_eq!(a, b);
        assert_eq!(a.len(), 1_916);
        assert_eq!(ops_hash(&a), 0x2c55_0ba7_059d_5f58);
        assert_ne!(ops_hash(&a), ops_hash(&make(0xB17F)), "the seed must matter");
    }

    #[test]
    fn schedule_has_the_asked_rate_mix_and_order() {
        let ops = poisson_schedule(OpStream::new(7, "mix", 1024, 10), 7, 100_000.0, 1_000_000_000);
        let n = ops.len() as f64;
        assert!((n - 100_000.0).abs() < 1_500.0, "Poisson count {n} far from its mean");
        let writes = ops.iter().filter(|o| o.write).count() as f64;
        assert!((writes / n - 0.10).abs() < 0.01, "write share {}", writes / n);
        assert!(ops.windows(2).all(|w| w[0].due_ns <= w[1].due_ns), "arrivals must ascend");
        assert!(ops.iter().all(|o| o.key < 1024 && o.due_ns < 1_000_000_000));
        let mut seen = vec![false; 1024];
        ops.iter().for_each(|o| seen[o.key as usize] = true);
        assert!(seen.iter().all(|s| *s), "uniform keys must cover the keyspace");
    }

    #[test]
    fn read_only_stream_never_writes() {
        let mut s = OpStream::new(1, "mix", 16, 0);
        assert!((0..10_000).all(|_| !s.next_op(0).write));
    }
}
