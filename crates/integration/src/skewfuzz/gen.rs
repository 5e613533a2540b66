//! Structured random case generation.
//!
//! Everything is drawn from one [`Rng`] stream, so a `(seed, index)` pair
//! reproduces a case bit-for-bit. The generator is deliberately *shaped*
//! rather than uniform: empty and singleton relations, duplicate floods,
//! boundary keys (`0`, `u32::MAX`, the sign bit), Zipf skew across the
//! full θ ∈ [0, 2] range of the paper, and configuration knobs at both
//! clamps all appear with far higher probability than uniform sampling
//! would give them — those are where join bugs live.

use skewjoin::datagen::{Rng, ZipfWorkload};
use skewjoin::Algorithm;
use skewjoin_service::{protocol, AlgoChoice, JoinRequest};

use super::{FrameCase, FuzzConfig, JoinCase, Oracle};

/// Hard ceiling on the *expected* join output of a generated case; inputs
/// are thinned until they fit. Without this a θ=2 flood on 10⁶-tuple
/// relations would expect ~10¹¹ result tuples — not a bug, just quadratic
/// blowup that stops the hunt.
pub const OUTPUT_BUDGET: u64 = 4_000_000;

/// Ceiling on the *expected* chained-table probe work of a case: probe
/// tuples × expected chain length (build tuples per bucket under uniform
/// hashing). A tiny `max_bucket_bits` on a large input makes `cbase-npj`
/// walk `r.len() >> bits`-link chains for every probe tuple — hundreds of
/// millions of dependent loads that read as a hang to the watchdog while
/// being the paper's documented pathology, not a bug. The cap is enforced
/// by *raising* `max_bucket_bits`, never by thinning the relations, so the
/// adversarial shapes survive. Both probe directions are bounded because
/// the swap-sides oracle runs the join reversed.
pub const PROBE_BUDGET: u64 = 1 << 25;

/// Keys that sit on representation edges.
const BOUNDARY_KEYS: [u32; 7] = [0, 1, 2, 0x7FFF_FFFF, 0x8000_0000, u32::MAX - 1, u32::MAX];

fn draw_size(rng: &mut Rng, max_size: usize) -> usize {
    match rng.below(12) {
        0 => 0,
        1 => 1,
        2 | 3 => 2 + rng.below(63),
        4..=7 => 65 + rng.below(4032),
        8..=10 => {
            // Log-uniform in (4096, max_size/4].
            let hi = (max_size / 4).max(4097);
            log_uniform(rng, 4097, hi)
        }
        _ => log_uniform(rng, 4097, max_size.max(4097)),
    }
}

fn log_uniform(rng: &mut Rng, lo: usize, hi: usize) -> usize {
    if hi <= lo {
        return lo;
    }
    let span = ((hi as f64) / (lo as f64)).ln();
    let x = (lo as f64) * (rng.next_f64() * span).exp();
    (x as usize).clamp(lo, hi)
}

/// How keys for one case are drawn. Both relations share the pattern so
/// their key sets overlap and the join produces output.
#[derive(Clone, Copy)]
enum KeyPattern {
    /// Dense small domain `0..universe`.
    Dense { universe: usize },
    /// Uniform over the entire `u32` space (output mostly empty).
    FullDomain,
    /// Zipf-distributed ranks over a shared key array.
    Zipf { theta_milli: u32, universe: usize },
    /// A handful of keys, massively duplicated.
    Flood { distinct: usize },
    /// Representation-edge keys only.
    Boundary,
    /// Half dense, half boundary.
    Mixed { universe: usize },
}

fn draw_pattern(rng: &mut Rng, total: usize) -> KeyPattern {
    let universe = (total / 4).max(1);
    match rng.below(8) {
        0 | 1 => KeyPattern::Dense { universe },
        2 => KeyPattern::FullDomain,
        3 | 4 => KeyPattern::Zipf {
            // θ in {0.0, 0.25, …, 2.0}.
            theta_milli: 250 * rng.below(9) as u32,
            universe: (total / 2).max(16),
        },
        5 => KeyPattern::Flood {
            distinct: 1 + rng.below(4),
        },
        6 => KeyPattern::Boundary,
        _ => KeyPattern::Mixed { universe },
    }
}

fn fill_keys(rng: &mut Rng, pattern: KeyPattern, n: usize, out: &mut Vec<(u32, u32)>) {
    match pattern {
        KeyPattern::Dense { universe } => {
            for i in 0..n {
                out.push((rng.below(universe) as u32, i as u32));
            }
        }
        KeyPattern::FullDomain => {
            for i in 0..n {
                out.push((rng.next_u32(), i as u32));
            }
        }
        KeyPattern::Zipf {
            theta_milli,
            universe,
        } => {
            let zipf = ZipfWorkload::new(universe, f64::from(theta_milli) / 1000.0, rng.next_u64());
            for i in 0..n {
                out.push((zipf.draw(rng), i as u32));
            }
        }
        KeyPattern::Flood { distinct } => {
            let keys: Vec<u32> = (0..distinct).map(|_| rng.next_u32()).collect();
            for i in 0..n {
                out.push((keys[rng.below(keys.len())], i as u32));
            }
        }
        KeyPattern::Boundary => {
            for i in 0..n {
                out.push((BOUNDARY_KEYS[rng.below(BOUNDARY_KEYS.len())], i as u32));
            }
        }
        KeyPattern::Mixed { universe } => {
            for i in 0..n {
                let key = if rng.below(2) == 0 {
                    rng.below(universe) as u32
                } else {
                    BOUNDARY_KEYS[rng.below(BOUNDARY_KEYS.len())]
                };
                out.push((key, i as u32));
            }
        }
    }
}

/// Expected inner-join output of two pair lists.
pub fn expected_output(r: &[(u32, u32)], s: &[(u32, u32)]) -> u64 {
    let mut r_counts = std::collections::HashMap::new();
    for &(k, _) in r {
        *r_counts.entry(k).or_insert(0u64) += 1;
    }
    let mut total = 0u64;
    let mut s_counts = std::collections::HashMap::new();
    for &(k, _) in s {
        *s_counts.entry(k).or_insert(0u64) += 1;
    }
    for (k, sc) in s_counts {
        if let Some(rc) = r_counts.get(&k) {
            total = total.saturating_add(rc * sc);
        }
    }
    total
}

/// Thins both relations (largest first) until the expected output fits the
/// budget. Truncation keeps prefixes, so the case stays reproducible from
/// its stored pair lists alone.
fn enforce_output_budget(r: &mut Vec<(u32, u32)>, s: &mut Vec<(u32, u32)>) {
    while expected_output(r, s) > OUTPUT_BUDGET {
        if r.len() >= s.len() {
            r.truncate((r.len() / 2).max(1));
        } else {
            s.truncate((s.len() / 2).max(1));
        }
        if r.len() <= 1 && s.len() <= 1 {
            break;
        }
    }
}

fn small(case_size: usize) -> bool {
    case_size <= 4096
}

/// Expected chained-probe work of one orientation: probe tuples × expected
/// tuples per visited bucket.
fn probe_work(build: usize, probe: usize, max_bits: u32) -> u64 {
    let eff = skewjoin::common::hash::bucket_bits_for(build).min(max_bits);
    (probe as u64).saturating_mul(((build as u64) >> eff).max(1))
}

/// Raises `max_bucket_bits` until both probe orientations fit
/// [`PROBE_BUDGET`]. Converges because at `bucket_bits_for(len)` the
/// expected chain length is 1 and the work collapses to the probe
/// cardinality, which `draw_size` already caps at ~10⁶.
fn enforce_probe_budget(cfg: &mut FuzzConfig, r_len: usize, s_len: usize) {
    while cfg.max_bucket_bits < 28
        && probe_work(r_len, s_len, cfg.max_bucket_bits).max(probe_work(
            s_len,
            r_len,
            cfg.max_bucket_bits,
        )) > PROBE_BUDGET
    {
        cfg.max_bucket_bits += 1;
    }
}

fn draw_config(rng: &mut Rng, case_size: usize) -> FuzzConfig {
    let mut cfg = FuzzConfig {
        threads: [1, 1, 2, 2, 3, 4, 8][rng.below(7)],
        ..FuzzConfig::default()
    };
    // Radix shape: mostly sane two-pass totals, with both clamps (a single
    // 1-bit pass; a 24-bit total) represented — the heavyweight 24-bit
    // fan-out only on small inputs, where its memory cost is the point —
    // and the default, derived from |R|.
    cfg.radix_bits = match rng.below(16) {
        0 => vec![1],
        1 if small(case_size) => vec![12, 12],
        2 => vec![2, 2, 2],
        3..=5 => vec![1 + rng.below(6) as u32],
        6 => Vec::new(),
        _ => {
            let total = 2 + rng.below(13) as u32;
            vec![total / 2, total - total / 2]
        }
    };
    cfg.raw_radix = rng.below(4) == 0;
    cfg.mutex_scheduler = rng.below(4) == 0;
    cfg.split_factor = [1.0, 1.5, 3.0, 8.0][rng.below(4)];
    cfg.extra_pass_bits = [1, 2, 4, 8, 12][rng.below(5)];
    // A 1-bit bucket cap means O(n²/4) probe chains: only survivable on
    // small inputs.
    cfg.max_bucket_bits = if small(case_size) {
        [1, 2, 8, 16, 22, 28][rng.below(6)]
    } else {
        [8, 16, 22, 22, 28][rng.below(5)]
    };
    // Bias toward the small morsels that actually fragment fuzz-sized
    // inputs — the default 16 Ki morsel leaves most cases single-morsel.
    cfg.morsel_tuples = [256, 256, 1024, 4096, 16_384, 1 << 20][rng.below(6)];
    cfg.force_scalar = rng.below(8) == 0;
    cfg.sample_rate = [0.001, 0.01, 0.1, 0.5, 1.0][rng.below(5)];
    cfg.min_sample_freq = [2, 2, 3, 8][rng.below(4)];
    cfg.detect_seed = rng.next_u64();
    cfg.gpu_table_capacity = match rng.below(4) {
        0 => None,
        // 128..2048: the whole range keeps the chained table within the
        // A100's shared memory, so these are *valid* overrides; the
        // out-of-range values live in the expect_invalid arm below.
        _ => Some(128 << rng.below(5)),
    };
    cfg.gpu_block_dim = [32, 64, 256, 256, 1024][rng.below(5)];
    cfg.gpu_sample_rate = [0.01, 0.1, 0.1, 1.0][rng.below(4)];
    cfg.gpu_top_k = [1, 3, 3, 8][rng.below(4)];
    cfg.tiny_device = case_size <= 16_384 && rng.below(8) == 0;
    // A quarter of the GPU cases execute on the host backend, so every
    // oracle identity doubles as a sim/host differential check.
    cfg.gpu_backend_host = rng.below(4) == 0;
    // Roughly one case in six runs the CPU joins out of core: budgets
    // tight relative to the input force recursive re-partitioning and,
    // at the floor, NM decomposition — all under the same oracles. Large
    // inputs stay in memory; spilling them is covered by soak, and here
    // it would only burn the watchdog budget on file I/O.
    cfg.spill_budget = match rng.below(6) {
        0 if case_size <= 200_000 => Some(if rng.below(2) == 0 {
            skewjoin::cpu::MIN_SPILL_BUDGET
        } else {
            1 << 20
        }),
        _ => None,
    };

    // Occasionally break exactly one knob in a way `validate()` must
    // reject; completing the join anyway means an entry point skipped
    // validation.
    if rng.below(16) == 0 {
        cfg.expect_invalid = true;
        match rng.below(11) {
            0 => cfg.max_bucket_bits = 0,
            1 => cfg.max_bucket_bits = 29,
            2 => cfg.extra_pass_bits = 0,
            3 => cfg.split_factor = 0.5,
            4 => cfg.sample_rate = 0.0,
            5 => cfg.gpu_block_dim = 100,
            6 => cfg.gpu_top_k = 0,
            // Zero would spin the NM sub-list decomposition forever; a
            // 2²⁰-tuple table cannot fit any block's shared memory.
            7 => cfg.gpu_table_capacity = Some(0),
            8 => cfg.gpu_table_capacity = Some(1 << 20),
            // Below the spill floor: the grace driver cannot hold even
            // one partition's hash table in its working set.
            9 => cfg.spill_budget = Some(1024),
            _ => cfg.morsel_tuples = 0,
        }
        // The broken GPU knobs only fail GPU algorithms and vice versa;
        // the caller re-rolls the algorithm to match (see gen_join_case).
    }
    cfg
}

fn config_breaks_cpu(cfg: &FuzzConfig) -> bool {
    cfg.to_cpu_config().validate().is_err()
}

fn config_breaks_gpu(cfg: &FuzzConfig) -> bool {
    cfg.to_gpu_config().validate().is_err()
}

/// Generates the `index`-th join case of a seed's stream.
pub fn gen_join_case(rng: &mut Rng, seed: u64, index: usize, max_size: usize) -> JoinCase {
    let r_size = draw_size(rng, max_size);
    let s_size = draw_size(rng, max_size);
    let pattern = draw_pattern(rng, r_size + s_size);
    let mut r = Vec::with_capacity(r_size);
    let mut s = Vec::with_capacity(s_size);
    fill_keys(rng, pattern, r_size, &mut r);
    fill_keys(rng, pattern, s_size, &mut s);
    enforce_output_budget(&mut r, &mut s);

    let case_size = r.len().max(s.len());
    let mut config = draw_config(rng, case_size);
    if !config.expect_invalid {
        enforce_probe_budget(&mut config, r.len(), s.len());
    }
    let mut algorithm = Algorithm::ALL[rng.below(Algorithm::ALL.len())];
    if config.expect_invalid {
        // Point the case at a backend the broken knob actually invalidates.
        let cpu_broken = config_breaks_cpu(&config);
        let gpu_broken = config_breaks_gpu(&config);
        match (cpu_broken, gpu_broken, algorithm) {
            (true, false, Algorithm::Gpu(_)) => {
                algorithm = Algorithm::ALL[rng.below(3)]; // the CPU trio
            }
            (false, true, Algorithm::Cpu(_)) => {
                algorithm = Algorithm::ALL[3 + rng.below(2)]; // the GPU pair
            }
            (false, false, _) => config.expect_invalid = false,
            _ => {}
        }
    }

    // Metamorphic variants multiply execution cost; keep them where bugs
    // are findable cheaply and let the rare huge cases stick to the
    // differential + trace layers.
    let oracle = if config.expect_invalid || r.len() + s.len() > 300_000 {
        Oracle::Diff
    } else {
        match rng.below(10) {
            0..=2 => Oracle::Diff,
            3 => Oracle::Permute,
            4 => Oracle::SwapSides,
            5 | 6 => Oracle::Bijection,
            7 => Oracle::SplitAdditive,
            // The SIMD identity only distinguishes anything on the CPU
            // joins; the GPU simulator has no vector dispatch to flip.
            _ if matches!(algorithm, Algorithm::Cpu(_)) => Oracle::SimdScalar,
            _ => Oracle::Diff,
        }
    };

    JoinCase {
        name: format!("s{seed}-case{index}-{}", algorithm.name()),
        algorithm,
        oracle,
        config,
        r,
        s,
    }
}

fn frame_of(json: &skewjoin::common::json::Json) -> Vec<u8> {
    let mut bytes = Vec::new();
    protocol::write_frame(&mut bytes, json).expect("generated frames are far below the cap");
    bytes
}

/// Generates the `index`-th protocol-frame case of a seed's stream.
pub fn gen_frame_case(rng: &mut Rng, seed: u64, index: usize) -> FrameCase {
    let algo_names = [
        "cbase",
        "cbase-npj",
        "csh",
        "gbase",
        "gsh",
        "auto",
        "auto-gpu",
    ];
    let (tag, bytes): (&str, Vec<u8>) = match rng.below(10) {
        0 | 1 => {
            // Well-formed generate request: the service must answer it.
            let algo = AlgoChoice::parse(algo_names[rng.below(algo_names.len())]).unwrap();
            let req = JoinRequest::generate(
                "skewfuzz",
                algo,
                rng.below(2048),
                f64::from(rng.below(7) as u32) * 0.25,
                rng.next_u64(),
            );
            ("generate", frame_of(&req.to_json()))
        }
        2 => {
            // Well-formed inline request with boundary keys.
            use skewjoin::common::{Relation, Tuple};
            use std::sync::Arc;
            let (r_len, s_len) = (1 + rng.below(256), 1 + rng.below(256));
            let mut mk = |n: usize| {
                let mut rel = Relation::with_capacity(n);
                for i in 0..n {
                    rel.push(Tuple::new(
                        BOUNDARY_KEYS[rng.below(BOUNDARY_KEYS.len())],
                        i as u32,
                    ));
                }
                Arc::new(rel)
            };
            let (r, s) = (mk(r_len), mk(s_len));
            let algo = AlgoChoice::parse(algo_names[rng.below(5)]).unwrap();
            let req = JoinRequest::inline("skewfuzz", algo, r, s);
            ("inline", frame_of(&req.to_json()))
        }
        3 => {
            // Valid JSON, broken shape: must get a typed reply, not a drop.
            let bodies = [
                r#"{"op":"join"}"#,
                r#"{"op":"join","algo":"csh"}"#,
                r#"{"op":"join","algo":"nope","payload":{"generate":{"tuples":1,"zipf":0.0}}}"#,
                r#"{"op":"join","algo":"csh","payload":{"generate":{"tuples":"many","zipf":0.0}}}"#,
                r#"{"op":"join","algo":"csh","priority":"turbo","payload":{"generate":{"tuples":1,"zipf":0.0}}}"#,
                r#"{"op":"warp"}"#,
                r#"{}"#,
                r#"[1,2,3]"#,
                r#"42"#,
                r#"null"#,
            ];
            let body = bodies[rng.below(bodies.len())].as_bytes().to_vec();
            let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
            bytes.extend_from_slice(&body);
            ("shape", bytes)
        }
        4 => {
            // Byte-flipped mutation of a valid frame: alternately an
            // inline request, whose flips all land in the binary tail (the
            // relation blocks after the NUL), and a generate request, which
            // has no tail and takes its flips anywhere. Frame cases sit at
            // every fourth index (all odd), so the choice alternates on
            // `index / 4`. It draws nothing extra from the rng (one draw
            // per flip position, as before), so existing repros name the
            // same cases.
            let algo = AlgoChoice::parse("csh").unwrap();
            let req = if (index / 4) % 2 == 1 {
                use skewjoin::common::Relation;
                use std::sync::Arc;
                let side = Arc::new(Relation::from_keys(&BOUNDARY_KEYS));
                JoinRequest::inline("skewfuzz", algo, Arc::clone(&side), side)
            } else {
                JoinRequest::generate("skewfuzz", algo, 64, 0.5, 7)
            };
            let mut bytes = frame_of(&req.to_json());
            // The first NUL after the length prefix ends the JSON head.
            let tail = bytes[4..]
                .iter()
                .position(|&b| b == 0)
                .map_or(0, |nul| 4 + nul + 1);
            for _ in 0..(1 + rng.below(8)) {
                let i = tail + rng.below(bytes.len() - tail);
                bytes[i] ^= (rng.next_u32() & 0xFF) as u8;
            }
            ("mutated", bytes)
        }
        5 => {
            // Truncated: declared length exceeds what we send before close.
            let body = br#"{"op":"ping"}"#.to_vec();
            let mut bytes = ((body.len() as u32) + 1 + rng.below(4096) as u32)
                .to_be_bytes()
                .to_vec();
            bytes.extend_from_slice(&body);
            ("truncated", bytes)
        }
        6 => {
            // Garbage body under a correct prefix.
            let n = rng.below(512);
            let mut body = Vec::with_capacity(n);
            for _ in 0..n {
                body.push((rng.next_u32() & 0xFF) as u8);
            }
            let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
            bytes.extend_from_slice(&body);
            ("garbage", bytes)
        }
        7 => {
            // Zero-length frame: empty body is not valid JSON — the server
            // must reply with a protocol error, not hang or crash.
            ("zero-length", vec![0, 0, 0, 0])
        }
        8 => {
            // Deeply nested body: the parser must reject it iteratively.
            let depth = 600 + rng.below(2000);
            let mut body = Vec::with_capacity(depth * 2);
            body.extend(std::iter::repeat_n(b'[', depth));
            body.extend(std::iter::repeat_n(b']', depth));
            let mut bytes = (body.len() as u32).to_be_bytes().to_vec();
            bytes.extend_from_slice(&body);
            ("deep", bytes)
        }
        _ => {
            // Oversized declared length (> 64 MiB cap): typed refusal, and
            // crucially no 4 GB allocation.
            let len: u32 = match rng.below(3) {
                0 => 64 * 1024 * 1024 + 1,
                1 => u32::MAX,
                _ => 1 << 31,
            };
            let mut bytes = len.to_be_bytes().to_vec();
            bytes.extend_from_slice(b"x");
            ("oversized", bytes)
        }
    };
    FrameCase {
        name: format!("s{seed}-frame{index}-{tag}"),
        bytes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generation_is_deterministic() {
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for i in 0..20 {
            assert_eq!(
                gen_join_case(&mut a, 9, i, 10_000),
                gen_join_case(&mut b, 9, i, 10_000)
            );
        }
        let mut a = Rng::seed_from_u64(9);
        let mut b = Rng::seed_from_u64(9);
        for i in 0..20 {
            assert_eq!(gen_frame_case(&mut a, 9, i), gen_frame_case(&mut b, 9, i));
        }
    }

    #[test]
    fn output_budget_is_enforced() {
        let mut rng = Rng::seed_from_u64(3);
        for i in 0..60 {
            let case = gen_join_case(&mut rng, 3, i, 200_000);
            assert!(
                expected_output(&case.r, &case.s) <= OUTPUT_BUDGET,
                "case {i} expects more output than the budget"
            );
        }
    }

    #[test]
    fn probe_budget_is_enforced() {
        let mut rng = Rng::seed_from_u64(3);
        for i in 0..200 {
            let case = gen_join_case(&mut rng, 3, i, 1 << 20);
            if case.config.expect_invalid {
                continue;
            }
            let bits = case.config.max_bucket_bits;
            let work = probe_work(case.r.len(), case.s.len(), bits).max(probe_work(
                case.s.len(),
                case.r.len(),
                bits,
            ));
            assert!(
                work <= PROBE_BUDGET,
                "case {i}: expected probe work {work} over budget at {bits} bits"
            );
        }
    }

    #[test]
    fn probe_budget_raises_bucket_bits() {
        // Seed-3 case 505's shape: a ~half-million-tuple build under an
        // 8-bit bucket cap is ~1800-link chains per probe — honest work
        // that reads as a hang. The enforcer must raise the cap until the
        // expected work fits, not touch the relations.
        let mut cfg = FuzzConfig {
            max_bucket_bits: 8,
            ..FuzzConfig::default()
        };
        enforce_probe_budget(&mut cfg, 470_000, 470_000);
        assert!(cfg.max_bucket_bits > 8);
        assert!(cfg.max_bucket_bits <= 28);
        assert!(probe_work(470_000, 470_000, cfg.max_bucket_bits) <= PROBE_BUDGET);
    }

    #[test]
    fn invalid_configs_point_at_a_backend_they_break() {
        let mut rng = Rng::seed_from_u64(5);
        let mut seen = 0;
        for i in 0..400 {
            let case = gen_join_case(&mut rng, 5, i, 10_000);
            if !case.config.expect_invalid {
                continue;
            }
            seen += 1;
            let broken = match case.algorithm {
                Algorithm::Cpu(_) => case.config.to_cpu_config().validate().is_err(),
                Algorithm::Gpu(_) => case.config.to_gpu_config().validate().is_err(),
            };
            assert!(broken, "case {i} expects invalid but its backend validates");
        }
        assert!(seen > 0, "no invalid configs in 400 cases");
    }

    #[test]
    fn size_classes_cover_the_edges() {
        let mut rng = Rng::seed_from_u64(7);
        let (mut empty, mut singleton, mut large) = (false, false, false);
        for i in 0..300 {
            let case = gen_join_case(&mut rng, 7, i, 1 << 20);
            empty |= case.r.is_empty() || case.s.is_empty();
            singleton |= case.r.len() == 1 || case.s.len() == 1;
            large |= case.r.len() > 100_000 || case.s.len() > 100_000;
        }
        assert!(empty, "no empty relation in 300 cases");
        assert!(singleton, "no singleton relation in 300 cases");
        assert!(large, "no large relation in 300 cases");
    }
}
