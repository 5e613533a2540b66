//! The three workloads, the relation pairs they generate from a seed, and
//! the per-pair oracle every operation is checked against.

use std::sync::Arc;

use skewjoin::common::{CountingSink, OutputSink, Relation};
use skewjoin::cpu::reference_join;
use skewjoin::datagen::{PaperWorkload, WorkloadSpec};

use crate::tiers::Tier;

/// A benchmark workload. Why each exists is recorded in `BENCHMARK.json`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// θ = 0, 2^18 tuples per side: per-tuple bulk costs (partitioning,
    /// the JSON wire codec, datagen); the skew paths find no hot key.
    Uniform,
    /// θ = 1.0, 2^15 tuples per side, 8 pairs: output-bound; the skew
    /// paths do most of the work and the wire carries little.
    Skewed,
    /// θ = 0.5, 2^12 tuples per side, 96 pairs cycled over 2 connections:
    /// per-call fixed costs and plan-cache misses dominate.
    Small,
}

impl Workload {
    pub const ALL: [Workload; 3] = [Workload::Uniform, Workload::Skewed, Workload::Small];

    pub fn parse(name: &str) -> Option<Workload> {
        Self::ALL.into_iter().find(|w| w.name() == name)
    }

    pub fn name(self) -> &'static str {
        match self {
            Workload::Uniform => "uniform",
            Workload::Skewed => "skewed",
            Workload::Small => "small",
        }
    }

    pub fn shape(self) -> Shape {
        match self {
            // The service and cluster round trips (≈ 400 and ≈ 330 ms) set
            // the round's length; the in-process tiers repeat to take a
            // fair share of it.
            Workload::Uniform => Shape {
                tuples: 1 << 18,
                theta: 0.0,
                pairs: 1,
                connections: 1,
                service_requests: 1,
                repeats: Repeats {
                    cbase: 6,
                    csh: 3,
                    spill: 1,
                    gpu_host: 1,
                    cluster: 1,
                },
            },
            // At θ = 1 the hot keys' frequencies, and so the output size and
            // the cluster's routing, vary with the seed: eight pairs per run
            // average that out. Three back-to-back requests a round give
            // the service figures three samples a round.
            Workload::Skewed => Shape {
                tuples: 1 << 15,
                theta: 1.0,
                pairs: 8,
                connections: 1,
                service_requests: 3,
                repeats: Repeats {
                    cbase: 2,
                    csh: 4,
                    spill: 1,
                    gpu_host: 1,
                    cluster: 2,
                },
            },
            // 96 distinct pairs outrun the service's 64-entry plan cache.
            // In process a join takes 1–7 ms against ≈ 50 ms for a round
            // trip, so the in-process tiers repeat many times a round.
            Workload::Small => Shape {
                tuples: 1 << 12,
                theta: 0.5,
                pairs: 96,
                connections: 2,
                service_requests: 3,
                repeats: Repeats {
                    cbase: 16,
                    csh: 8,
                    spill: 2,
                    gpu_host: 16,
                    cluster: 2,
                },
            },
        }
    }
}

/// The input dimensions of a workload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Shape {
    /// Tuples per relation.
    pub tuples: usize,
    /// Zipf factor of both relations' keys.
    pub theta: f64,
    /// Distinct relation pairs, used in turn.
    pub pairs: usize,
    /// Closed-loop service connections.
    pub connections: usize,
    /// Closed-loop requests each connection sends per round.
    pub service_requests: usize,
    /// Back-to-back operations per round of the other tiers.
    pub repeats: Repeats,
}

/// How many operations a round runs back to back on each tier other than
/// the service, so that cheap tiers gather as many samples as their share
/// of the round allows. Each operation takes the next pair in turn.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Repeats {
    pub cbase: usize,
    pub csh: usize,
    pub spill: usize,
    pub gpu_host: usize,
    pub cluster: usize,
}

impl Shape {
    /// Operations tier `tier` runs per round: the service tier's closed
    /// loop is one phase of `service_requests` per connection.
    pub fn repeats(&self, tier: Tier) -> usize {
        let r = &self.repeats;
        match tier {
            Tier::Cbase => r.cbase,
            Tier::Csh => r.csh,
            Tier::Spill => r.spill,
            Tier::GpuHost => r.gpu_host,
            Tier::Cluster => r.cluster,
            Tier::Service | Tier::GpuSim => 1,
        }
    }

    /// The generator spec of pair `index` under the run seed.
    pub fn spec(&self, seed: u64, index: usize) -> WorkloadSpec {
        WorkloadSpec::paper(self.tuples, self.theta, pair_seed(seed, index))
    }
}

/// Distinct, reproducible generator seeds per pair (splitmix64 step).
fn pair_seed(seed: u64, index: usize) -> u64 {
    let mut z = seed
        .wrapping_add((index as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The right answer for one pair: result count and order-independent
/// checksum, as every join path reports them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Expected {
    pub count: u64,
    pub checksum: u64,
}

impl Expected {
    /// Computes the answer with the workspace's reference hash join.
    pub fn of(r: &Relation, s: &Relation) -> Expected {
        let mut sink = CountingSink::new();
        reference_join(r, s, &mut sink);
        Expected {
            count: sink.count(),
            checksum: sink.checksum(),
        }
    }

    /// `Err` naming the mismatch when a reported result is not this one.
    pub fn check(&self, count: u64, checksum: u64) -> Result<(), String> {
        if count != self.count || checksum != self.checksum {
            return Err(format!(
                "result {count} / {checksum:#018x}, reference {} / {:#018x}",
                self.count, self.checksum
            ));
        }
        Ok(())
    }
}

/// One generated relation pair with its oracle.
pub struct Pair {
    pub r: Arc<Relation>,
    pub s: Arc<Relation>,
    pub expected: Expected,
}

impl Pair {
    pub fn generate(spec: WorkloadSpec) -> Pair {
        let w = PaperWorkload::generate(spec);
        let expected = Expected::of(&w.r, &w.s);
        Pair {
            r: Arc::new(w.r),
            s: Arc::new(w.s),
            expected,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("hit"), None);
    }

    #[test]
    fn the_same_seed_gives_the_same_inputs() {
        let shape = Shape {
            tuples: 512,
            ..Workload::Small.shape()
        };
        let a = Pair::generate(shape.spec(9, 3));
        let b = Pair::generate(shape.spec(9, 3));
        let c = Pair::generate(shape.spec(9, 4));
        assert_eq!(a.r.tuples(), b.r.tuples());
        assert_eq!(a.expected, b.expected);
        assert_ne!(a.r.tuples(), c.r.tuples());
    }

    #[test]
    fn oracle_rejects_a_tampered_result() {
        let pair = Pair::generate(WorkloadSpec::paper(1024, 0.9, 5));
        let e = pair.expected;
        assert!(e.count > 0);
        assert!(e.check(e.count, e.checksum).is_ok());
        assert!(e.check(e.count + 1, e.checksum).is_err());
        assert!(e.check(e.count, e.checksum ^ 1).is_err());
        // A join that drops one S tuple is caught through its own result.
        let mut tuples = pair.s.tuples().to_vec();
        let probe = tuples
            .iter()
            .position(|t| pair.r.tuples().iter().any(|r| r.key == t.key))
            .expect("a matching probe tuple");
        tuples.remove(probe);
        let tampered = Expected::of(&pair.r, &Relation::from_tuples(tuples));
        assert!(e.check(tampered.count, tampered.checksum).is_err());
    }
}
