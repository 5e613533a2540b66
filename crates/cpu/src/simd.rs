//! Explicit SIMD kernels for the partition/probe hot loops.
//!
//! The two hottest per-tuple computations in the CPU joins are the same
//! arithmetic: *hash every key of a tuple run and extract an index from
//! it* — the radix scatter needs `(mix32(key) >> shift) & mask` per pass,
//! the no-partition join's bucket-chain probe needs `mix32(key) >> (32 -
//! bits)`. Both are
//! branch-free integer pipelines over a `#[repr(C)]` `(u32 key, u32
//! payload)` layout, which vectorizes cleanly: de-interleave the keys,
//! multiply by the Fibonacci constant, shift, mask, store.
//!
//! [`hash_indices`] is that kernel with three implementations — AVX2 and
//! SSE4.1 via `core::arch::x86_64` behind runtime feature detection, NEON
//! via `core::arch::aarch64` (baseline on that target) — plus the scalar
//! loop, which is always compiled, serves every remainder tail, and is the
//! reference the fuzzer's `simd-vs-scalar` identity compares against.
//!
//! Dispatch is data-driven rather than `ifunc`-style: callers resolve a
//! [`SimdLevel`] once per join from the [`SimdPolicy`] config knob and
//! thread it through, so a forced-scalar run exercises byte-identical code
//! paths on every machine.

use skewjoin_common::hash::{mix32, FIB_MULT_32};
use skewjoin_common::Tuple;

/// Configuration knob: how aggressively the CPU joins use SIMD.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SimdPolicy {
    /// Use the widest instruction set the CPU reports at runtime.
    #[default]
    Auto,
    /// Always run the scalar fallback (the fuzzer's reference config, and
    /// an escape hatch if a SIMD lane misbehaves in the field).
    Scalar,
}

impl SimdPolicy {
    /// Resolves the policy against the running machine.
    #[inline]
    pub fn resolve(self) -> SimdLevel {
        match self {
            SimdPolicy::Auto => detect(),
            SimdPolicy::Scalar => SimdLevel::Scalar,
        }
    }
}

/// The instruction set a join run actually executes its hot loops with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimdLevel {
    /// Plain scalar loops (always available, always compiled).
    Scalar,
    /// 128-bit SSE4.1 (x86-64; needs `pmulld`).
    Sse41,
    /// 256-bit AVX2 (x86-64).
    Avx2,
    /// 128-bit NEON (aarch64 baseline).
    Neon,
}

impl SimdLevel {
    /// Short human-readable name for traces and bench output.
    pub fn name(self) -> &'static str {
        match self {
            SimdLevel::Scalar => "scalar",
            SimdLevel::Sse41 => "sse4.1",
            SimdLevel::Avx2 => "avx2",
            SimdLevel::Neon => "neon",
        }
    }
}

/// Widest level this machine supports, detected once and cached.
pub fn detect() -> SimdLevel {
    use std::sync::OnceLock;
    static LEVEL: OnceLock<SimdLevel> = OnceLock::new();
    *LEVEL.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            if std::arch::is_x86_feature_detected!("avx2") {
                return SimdLevel::Avx2;
            }
            if std::arch::is_x86_feature_detected!("sse4.1") {
                return SimdLevel::Sse41;
            }
            SimdLevel::Scalar
        }
        #[cfg(target_arch = "aarch64")]
        {
            SimdLevel::Neon
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            SimdLevel::Scalar
        }
    })
}

/// Computes `out[i] = ((mix32?(tuples[i].key)) >> shift) & mask` for a run
/// of tuples, using the widest lanes `level` allows. `mixed` selects the
/// Fibonacci multiply (radix `RadixMode::Mixed` and all bucket hashing);
/// `shift` must be < 32.
///
/// Serves both hot-loop callers:
/// - radix scatter pass `p`: `shift = cfg.shift(p)`, `mask = fanout - 1`
/// - bucket probe: `shift = 32 - bits`, `mask = (1 << bits) - 1` (the mask
///   is a no-op there, but keeping one kernel keeps one test surface)
///
/// # Panics
/// Panics if `out` is shorter than `tuples`.
#[inline]
pub fn hash_indices(
    level: SimdLevel,
    tuples: &[Tuple],
    mixed: bool,
    shift: u32,
    mask: u32,
    out: &mut [u32],
) {
    assert!(out.len() >= tuples.len(), "output buffer too short");
    debug_assert!(shift < 32);
    match level {
        SimdLevel::Scalar => hash_indices_scalar(tuples, mixed, shift, mask, out),
        #[cfg(target_arch = "x86_64")]
        // SAFETY: callers only obtain these levels from `detect()`, which
        // checked the CPU features at runtime.
        SimdLevel::Avx2 => unsafe { hash_indices_avx2(tuples, mixed, shift, mask, out) },
        #[cfg(target_arch = "x86_64")]
        // SAFETY: as above.
        SimdLevel::Sse41 => unsafe { hash_indices_sse41(tuples, mixed, shift, mask, out) },
        #[cfg(target_arch = "aarch64")]
        // SAFETY: NEON is baseline on aarch64.
        SimdLevel::Neon => unsafe { hash_indices_neon(tuples, mixed, shift, mask, out) },
        #[allow(unreachable_patterns)]
        _ => hash_indices_scalar(tuples, mixed, shift, mask, out),
    }
}

/// The always-compiled scalar kernel (and every SIMD path's tail loop).
fn hash_indices_scalar(tuples: &[Tuple], mixed: bool, shift: u32, mask: u32, out: &mut [u32]) {
    for (t, o) in tuples.iter().zip(out.iter_mut()) {
        let h = if mixed { mix32(t.key) } else { t.key };
        *o = (h >> shift) & mask;
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn hash_indices_avx2(tuples: &[Tuple], mixed: bool, shift: u32, mask: u32, out: &mut [u32]) {
    use core::arch::x86_64::*;
    const LANES: usize = 8; // 8 tuples = 2 × 256-bit loads
    let n = tuples.len();
    let full = n - n % LANES;
    let mult = _mm256_set1_epi32(FIB_MULT_32 as i32);
    let maskv = _mm256_set1_epi32(mask as i32);
    let count = _mm_cvtsi32_si128(shift as i32);
    let mut i = 0;
    while i < full {
        // Two unaligned loads cover tuples i..i+8 as interleaved
        // [k,p,k,p,…] u32 lanes (Tuple is #[repr(C)] (u32, u32)).
        let a = _mm256_loadu_si256(tuples.as_ptr().add(i) as *const __m256i);
        let b = _mm256_loadu_si256(tuples.as_ptr().add(i + 4) as *const __m256i);
        // Per 128-bit half, gather the two keys into the low 64 bits:
        // [k0 k1 k0 k1 | k2 k3 k2 k3].
        let ka = _mm256_shuffle_epi32::<0b10_00_10_00>(a);
        let kb = _mm256_shuffle_epi32::<0b10_00_10_00>(b);
        // [k0 k1 k4 k5 | k2 k3 k6 k7] → restore order with a cross-lane
        // 64-bit permute (0b11_01_10_00 picks quads 0,2,1,3).
        let packed = _mm256_unpacklo_epi64(ka, kb);
        let keys = _mm256_permute4x64_epi64::<0b11_01_10_00>(packed);
        let h = if mixed {
            _mm256_mullo_epi32(keys, mult)
        } else {
            keys
        };
        let shifted = _mm256_srl_epi32(h, count);
        let res = _mm256_and_si256(shifted, maskv);
        _mm256_storeu_si256(out.as_mut_ptr().add(i) as *mut __m256i, res);
        i += LANES;
    }
    hash_indices_scalar(&tuples[full..], mixed, shift, mask, &mut out[full..]);
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "sse4.1")]
unsafe fn hash_indices_sse41(
    tuples: &[Tuple],
    mixed: bool,
    shift: u32,
    mask: u32,
    out: &mut [u32],
) {
    use core::arch::x86_64::*;
    const LANES: usize = 4; // 4 tuples = 2 × 128-bit loads
    let n = tuples.len();
    let full = n - n % LANES;
    let mult = _mm_set1_epi32(FIB_MULT_32 as i32);
    let maskv = _mm_set1_epi32(mask as i32);
    let count = _mm_cvtsi32_si128(shift as i32);
    let mut i = 0;
    while i < full {
        let a = _mm_loadu_si128(tuples.as_ptr().add(i) as *const __m128i);
        let b = _mm_loadu_si128(tuples.as_ptr().add(i + 2) as *const __m128i);
        // [k0 k1 k0 k1], [k2 k3 k2 k3] → low halves joined: [k0 k1 k2 k3].
        let ka = _mm_shuffle_epi32::<0b10_00_10_00>(a);
        let kb = _mm_shuffle_epi32::<0b10_00_10_00>(b);
        let keys = _mm_unpacklo_epi64(ka, kb);
        let h = if mixed {
            _mm_mullo_epi32(keys, mult)
        } else {
            keys
        };
        let shifted = _mm_srl_epi32(h, count);
        let res = _mm_and_si128(shifted, maskv);
        _mm_storeu_si128(out.as_mut_ptr().add(i) as *mut __m128i, res);
        i += LANES;
    }
    hash_indices_scalar(&tuples[full..], mixed, shift, mask, &mut out[full..]);
}

#[cfg(target_arch = "aarch64")]
unsafe fn hash_indices_neon(tuples: &[Tuple], mixed: bool, shift: u32, mask: u32, out: &mut [u32]) {
    use core::arch::aarch64::*;
    const LANES: usize = 4; // vld2 de-interleaves 4 (key, payload) pairs
    let n = tuples.len();
    let full = n - n % LANES;
    let mult = vdupq_n_u32(FIB_MULT_32);
    let maskv = vdupq_n_u32(mask);
    // NEON has no vector-scalar right shift; shift left by a negative count.
    let shiftv = vdupq_n_s32(-(shift as i32));
    let mut i = 0;
    while i < full {
        let pairs = vld2q_u32(tuples.as_ptr().add(i) as *const u32);
        let keys = pairs.0;
        let h = if mixed { vmulq_u32(keys, mult) } else { keys };
        let shifted = vshlq_u32(h, shiftv);
        let res = vandq_u32(shifted, maskv);
        vst1q_u32(out.as_mut_ptr().add(i), res);
        i += LANES;
    }
    hash_indices_scalar(&tuples[full..], mixed, shift, mask, &mut out[full..]);
}

/// Issues a best-effort prefetch-for-read of the cache line holding `p`.
/// Purely a scheduling hint: never faults, compiles to nothing on targets
/// without a prefetch instruction. Used on bucket-chain walks, where the
/// next link's address is known one hop before its data is needed.
#[inline(always)]
pub fn prefetch_read<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: prefetch is a hint; it cannot fault even on invalid addresses.
    unsafe {
        core::arch::x86_64::_mm_prefetch::<{ core::arch::x86_64::_MM_HINT_T0 }>(p as *const i8);
    }
    #[cfg(target_arch = "aarch64")]
    // SAFETY: PRFM is a hint; it cannot fault even on invalid addresses.
    unsafe {
        core::arch::asm!("prfm pldl1keep, [{0}]", in(reg) p, options(nostack, preserves_flags));
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    let _ = p;
}

/// Scratch buffer size the scatter/probe loops hash ahead by. 1 KiB of
/// indices: big enough to amortize dispatch, small enough to stay in L1.
pub(crate) const HASH_BATCH: usize = 256;

#[cfg(test)]
mod tests {
    use super::*;
    use skewjoin_common::hash::table_hash;

    fn levels_to_test() -> Vec<SimdLevel> {
        let mut levels = vec![SimdLevel::Scalar];
        if detect() != SimdLevel::Scalar {
            levels.push(detect());
        }
        #[cfg(target_arch = "x86_64")]
        if detect() == SimdLevel::Avx2 && std::arch::is_x86_feature_detected!("sse4.1") {
            levels.push(SimdLevel::Sse41);
        }
        levels
    }

    fn tuples_of(keys: &[u32]) -> Vec<Tuple> {
        keys.iter()
            .enumerate()
            .map(|(i, &k)| Tuple::new(k, i as u32))
            .collect()
    }

    fn interesting_keys(n: usize) -> Vec<u32> {
        let edge = [0u32, 1, 2, 0x7FFF_FFFF, 0x8000_0000, u32::MAX - 1, u32::MAX];
        (0..n)
            .map(|i| {
                if i % 3 == 0 {
                    edge[i % edge.len()]
                } else {
                    (i as u32)
                        .wrapping_mul(2654435761)
                        .rotate_left(i as u32 % 31)
                }
            })
            .collect()
    }

    /// Tail-handling sweep: every boundary size around each level's lane
    /// width (0, 1, lane−1, lane, lane+1, …) must agree with scalar.
    #[test]
    fn boundary_sizes_match_scalar() {
        for level in levels_to_test() {
            for lane in [4usize, 8] {
                for n in [
                    0,
                    1,
                    lane - 1,
                    lane,
                    lane + 1,
                    2 * lane - 1,
                    2 * lane + 3,
                    63,
                    64,
                    65,
                ] {
                    let tuples = tuples_of(&interesting_keys(n));
                    for (mixed, shift, mask) in [
                        (true, 0u32, 0xFFF),
                        (true, 20, 0xF),
                        (false, 7, 0x3F),
                        (true, 31, 1),
                    ] {
                        let mut want = vec![0u32; n];
                        hash_indices_scalar(&tuples, mixed, shift, mask, &mut want);
                        let mut got = vec![0u32; n];
                        hash_indices(level, &tuples, mixed, shift, mask, &mut got);
                        assert_eq!(
                            got,
                            want,
                            "level {} n {n} mixed {mixed} shift {shift} mask {mask:#x}",
                            level.name()
                        );
                    }
                }
            }
        }
    }

    /// Misaligned slices: a sub-slice starting at an odd tuple offset keeps
    /// the underlying u32 run interleaved differently relative to any
    /// 16/32-byte boundary; the unaligned loads must not care.
    #[test]
    fn unaligned_slices_match_scalar() {
        let tuples = tuples_of(&interesting_keys(133));
        for level in levels_to_test() {
            for start in [1usize, 2, 3, 5, 7] {
                let sub = &tuples[start..];
                let mut want = vec![0u32; sub.len()];
                hash_indices_scalar(sub, true, 12, 0xFF, &mut want);
                let mut got = vec![0u32; sub.len()];
                hash_indices(level, sub, true, 12, 0xFF, &mut got);
                assert_eq!(got, want, "level {} start {start}", level.name());
            }
        }
    }

    /// The probe-side parameterization must reproduce `table_hash` exactly.
    #[test]
    fn matches_table_hash() {
        let tuples = tuples_of(&interesting_keys(97));
        for level in levels_to_test() {
            for bits in [1u32, 4, 13, 22, 28] {
                let mut got = vec![0u32; tuples.len()];
                hash_indices(
                    level,
                    &tuples,
                    true,
                    32 - bits,
                    (1u32 << bits) - 1,
                    &mut got,
                );
                for (t, &g) in tuples.iter().zip(&got) {
                    assert_eq!(
                        g as usize,
                        table_hash(t.key, bits),
                        "level {} bits {bits}",
                        level.name()
                    );
                }
            }
        }
    }

    /// The radix-side parameterization must reproduce `partition_of`.
    #[test]
    fn matches_partition_of() {
        use skewjoin_common::hash::{RadixConfig, RadixMode};
        let tuples = tuples_of(&interesting_keys(80));
        let cfgs = [
            RadixConfig::two_pass(12),
            RadixConfig::single_pass(5),
            RadixConfig {
                bits_per_pass: vec![3, 2, 3],
                mode: RadixMode::Raw,
            },
        ];
        for level in levels_to_test() {
            for cfg in &cfgs {
                for pass in 0..cfg.bits_per_pass.len() {
                    let mixed = cfg.mode == RadixMode::Mixed;
                    let mask = (cfg.fanout(pass) - 1) as u32;
                    let mut got = vec![0u32; tuples.len()];
                    hash_indices(level, &tuples, mixed, cfg.shift(pass), mask, &mut got);
                    for (t, &g) in tuples.iter().zip(&got) {
                        assert_eq!(g as usize, cfg.partition_of(t.key, pass));
                    }
                }
            }
        }
    }

    #[test]
    fn policy_resolution_and_names() {
        assert_eq!(SimdPolicy::Scalar.resolve(), SimdLevel::Scalar);
        let auto = SimdPolicy::Auto.resolve();
        assert_eq!(auto, detect());
        assert!(!auto.name().is_empty());
        // Detection is cached and stable.
        assert_eq!(detect(), detect());
    }

    #[test]
    fn prefetch_is_harmless() {
        let v = [1u32; 16];
        prefetch_read(v.as_ptr());
        prefetch_read(v.as_ptr().wrapping_add(1 << 20)); // out of bounds: still just a hint
        prefetch_read(std::ptr::null::<u32>());
    }
}
