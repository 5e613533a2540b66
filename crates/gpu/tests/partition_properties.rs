//! Property-style tests on the GPU partitioning kernels, run over
//! deterministic seeded case batteries: both cost styles must produce exact
//! partitionings for arbitrary inputs, and the directory must agree with
//! `final_pid`. `gpu_partition` picks the style (it counts first while
//! blocks × fanout < threads a block × waves of blocks over the SMs), so
//! each battery draws sizes on one side of that rule and checks from the
//! launch log which style ran.

use skewjoin_common::hash::RadixConfig;
use skewjoin_common::{Relation, Tuple};
use skewjoin_gpu::backend::GpuBackendKind;
use skewjoin_gpu::pack::{unpack, upload_relation};
use skewjoin_gpu::partition::{final_pid, gpu_partition, DevicePartitioned};
use skewjoin_gpu_sim::DeviceSpec;

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

    fn keys(&mut self, lens: std::ops::RangeInclusive<usize>, key_bound: u64) -> Vec<u32> {
        let len = lens.start() + self.below(lens.end() - lens.start() + 1);
        (0..len)
            .map(|_| (self.next_u64() % key_bound) as u32)
            .collect()
    }
}

/// Partitions `keys` on a fresh `kind` device and checks the result is
/// exact and that the count kernel ran exactly when `count_first`.
fn check(
    keys: &[u32],
    bits: u32,
    block_dim: usize,
    kind: GpuBackendKind,
    count_first: bool,
) -> Result<DevicePartitioned, String> {
    let rel = Relation::from_keys(keys);
    let mut dev = kind
        .create(&DeviceSpec::tiny(1 << 24))
        .map_err(|e| e.to_string())?;
    let dev = dev.as_mut();
    let buf = upload_relation(dev, &rel, "table R").map_err(|e| e.to_string())?;
    let cfg = RadixConfig::two_pass(bits);
    let parted = gpu_partition(dev, buf, &cfg, block_dim).map_err(|e| e.to_string())?;

    let counted = dev.launch_log().iter().any(|l| l.name.ends_with("_count"));
    if counted != count_first {
        return Err(format!(
            "count kernel ran: {counted}, expected {count_first}"
        ));
    }
    if *parted.starts.last().unwrap() != rel.len() {
        return Err("directory total mismatch".into());
    }
    // Multiset preserved.
    let mut got: Vec<Tuple> = dev
        .host_slice(parted.buf)
        .iter()
        .map(|&w| unpack(w))
        .collect();
    let mut orig = rel.tuples().to_vec();
    got.sort_unstable_by_key(|t| (t.key, t.payload));
    orig.sort_unstable_by_key(|t| (t.key, t.payload));
    if got != orig {
        return Err("multiset changed".into());
    }
    // Placement agrees with final_pid.
    for pid in 0..parted.partitions() {
        for i in parted.range(pid) {
            let t = unpack(dev.host_read(parted.buf, i));
            if final_pid(&cfg, t.key) != pid {
                return Err(format!("tuple {t:?} misplaced in {pid}"));
            }
        }
    }
    Ok(parted)
}

#[test]
fn count_scatter_partitions_exactly() {
    // At most 600 tuples at 64 threads: at most 2 blocks × 16 children.
    let mut rng = TestRng::new(0x6B_0001);
    for case in 0..32 {
        let keys = rng.keys(0..=600, u64::from(u32::MAX) + 1);
        let bits = 2 + rng.below(6) as u32;
        for kind in [GpuBackendKind::Sim, GpuBackendKind::Host] {
            check(&keys, bits, 64, kind, true)
                .unwrap_or_else(|e| panic!("case {case} on {kind}: {e}"));
        }
    }
}

#[test]
fn linked_buckets_partitions_exactly() {
    // 1024–2048 tuples at 32 threads on the tiny device's 4 SMs: 4–8
    // blocks in 1–2 waves, × at least 16 children, ≥ 32 counters a wave.
    let mut rng = TestRng::new(0x6B_0002);
    for case in 0..32 {
        let keys = rng.keys(1024..=2048, 64); // collision-heavy
        let bits = 8 + rng.below(4) as u32;
        for kind in [GpuBackendKind::Sim, GpuBackendKind::Host] {
            check(&keys, bits, 32, kind, false)
                .unwrap_or_else(|e| panic!("case {case} on {kind}: {e}"));
        }
    }
}

#[test]
fn styles_produce_identical_directories() {
    // The same input on both sides of the rule: linked buckets at 32
    // threads a block, counted first at 256 (one block).
    let mut rng = TestRng::new(0x6B_0003);
    for case in 0..32 {
        let keys = rng.keys(1024..=2048, u64::from(u32::MAX) + 1);
        let bits = 8 + rng.below(4) as u32;
        let linked = check(&keys, bits, 32, GpuBackendKind::Sim, false)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        let counted = check(&keys, bits, 256, GpuBackendKind::Sim, true)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(linked.starts, counted.starts, "case {case}");
    }
}
