//! Property-style tests on the simulator's cost-model primitives and
//! execution invariants, run over deterministic seeded case batteries so
//! failures reproduce exactly.

use skewjoin_gpu_sim::{BlockCtx, Device, DeviceSpec, Kernel};

/// Minimal deterministic generator (splitmix64) for the case batteries.
struct TestRng(u64);

impl TestRng {
    fn new(seed: u64) -> Self {
        Self(seed)
    }

    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next_u64() % bound as u64) as usize
    }
}

fn run_gather(indices: &[usize]) -> u64 {
    let mut dev = Device::new(DeviceSpec::tiny(1 << 22));
    let max = indices.iter().copied().max().unwrap_or(0);
    let buf = dev.memory.alloc(max + 1, 8).expect("fits");
    struct K<'a> {
        buf: skewjoin_gpu_sim::BufferId,
        indices: &'a [usize],
    }
    impl Kernel for K<'_> {
        fn block(&mut self, ctx: &mut BlockCtx<'_>) {
            let mut out = Vec::new();
            ctx.warp_gather(self.buf, self.indices, &mut out);
        }
    }
    let stats = dev.launch("g", 1, 32, &mut K { buf, indices }).unwrap();
    stats.metrics.transactions
}

/// Transactions are bounded: at least the bytes/128 floor, at most one per
/// lane, and never zero for a non-empty access.
#[test]
fn transaction_count_bounds() {
    let mut rng = TestRng::new(0x51D_0001);
    for case in 0..64 {
        let len = 1 + rng.below(31);
        let indices: Vec<usize> = (0..len).map(|_| rng.below(4096)).collect();
        let tx = run_gather(&indices);
        assert!(tx >= 1, "case {case}");
        assert!(tx <= indices.len() as u64, "case {case}");
        // Exact: distinct 128-byte lines of an 8-byte element access.
        let mut lines: Vec<usize> = indices.iter().map(|&i| i * 8 / 128).collect();
        lines.sort_unstable();
        lines.dedup();
        assert_eq!(tx, lines.len() as u64, "case {case}: {indices:?}");
    }
}

/// Sequential access of n elements costs ~n/16 transactions (8-byte
/// elements, 128-byte lines), far below the n of a scattered access.
#[test]
fn sequential_beats_scattered() {
    let mut rng = TestRng::new(0x51D_0002);
    for case in 0..32 {
        let start = rng.below(1024);
        let seq: Vec<usize> = (start..start + 32).collect();
        let scat: Vec<usize> = (0..32).map(|i| start + i * 97).collect();
        assert!(run_gather(&seq) <= 3, "case {case}");
        assert!(run_gather(&scat) >= run_gather(&seq), "case {case}");
    }
}

/// Device time is monotone: launching more blocks never reduces the total,
/// and equals the max SM load (≥ total work / SMs).
#[test]
fn device_time_monotone_in_blocks() {
    struct Fixed(u64);
    impl Kernel for Fixed {
        fn block(&mut self, ctx: &mut BlockCtx<'_>) {
            ctx.alu(self.0);
        }
    }
    let mut rng = TestRng::new(0x51D_0003);
    for case in 0..64 {
        let blocks = 1 + rng.below(39);
        let cost = 1 + rng.next_u64() % 999;
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        let stats = dev.launch("fixed", blocks, 32, &mut Fixed(cost)).unwrap();
        let sms = dev.spec().num_sms as u64;
        let total_work = blocks as u64 * cost;
        assert!(stats.device_cycles >= total_work / sms, "case {case}");
        assert!(stats.device_cycles <= total_work, "case {case}");
        // Every block costs the same, so the busiest block IS the cost and
        // the device total can never undercut it.
        assert_eq!(stats.max_block_cycles, cost, "case {case}");
        assert!(stats.device_cycles >= stats.max_block_cycles, "case {case}");
        // Perfect balance when blocks divide evenly.
        if (blocks as u64).is_multiple_of(sms) {
            assert_eq!(stats.device_cycles, total_work / sms, "case {case}");
        }
    }
}

/// Atomic serialization cost grows with the number of colliding lanes.
#[test]
fn atomic_serialization_monotone() {
    struct AtomicK {
        buf: skewjoin_gpu_sim::BufferId,
        collisions: usize,
    }
    impl Kernel for AtomicK {
        fn block(&mut self, ctx: &mut BlockCtx<'_>) {
            // `collisions` lanes hit address 0; the rest hit distinct ones.
            let ops: Vec<(usize, u64)> = (0..32)
                .map(|i| (if i < self.collisions { 0 } else { i }, 1u64))
                .collect();
            let mut old = Vec::new();
            ctx.warp_atomic_add(self.buf, &ops, &mut old);
        }
    }
    let cost = |c: usize| {
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        let buf = dev.memory.alloc(32, 8).unwrap();
        dev.launch("a", 1, 32, &mut AtomicK { buf, collisions: c })
            .unwrap()
            .metrics
            .atomic_cycles
    };
    for collisions in 1..32 {
        assert!(cost(collisions) <= cost(32), "collisions={collisions}");
        if collisions > 1 {
            assert!(cost(collisions) > cost(1), "collisions={collisions}");
        }
    }
}

/// Shared-memory data is faithful: scatter then gather returns exactly what
/// was written, for any permutation.
#[test]
fn shared_memory_roundtrip() {
    struct SharedK {
        perm: Vec<usize>,
    }
    impl Kernel for SharedK {
        fn block(&mut self, ctx: &mut BlockCtx<'_>) {
            let sh = ctx.shared_alloc(32, 8);
            let writes: Vec<(usize, u64)> = self
                .perm
                .iter()
                .enumerate()
                .map(|(i, &p)| (p, i as u64))
                .collect();
            ctx.shared_scatter(sh, &writes);
            let mut out = Vec::new();
            ctx.shared_gather(sh, &self.perm, &mut out);
            for (i, &v) in out.iter().enumerate() {
                assert_eq!(v, i as u64);
            }
        }
    }
    let mut rng = TestRng::new(0x51D_0004);
    for _case in 0..32 {
        // Fisher–Yates with the deterministic generator.
        let mut perm: Vec<usize> = (0..32).collect();
        for i in (1..32usize).rev() {
            let j = rng.below(i + 1);
            perm.swap(i, j);
        }
        let mut dev = Device::new(DeviceSpec::tiny(1 << 20));
        dev.launch("sh", 1, 32, &mut SharedK { perm }).unwrap();
    }
}
