//! Skew-aware key routing for sharded (multi-node) joins.
//!
//! The cluster coordinator splits one join across N shards. Plain hash
//! routing (`shard_of`) sends each key's tuples — both sides — to one owner
//! shard, which is correct but collapses under product skew: a zipf-heavy
//! key funnels most of the probe work into a single shard. The two classic
//! moves (SharesSkew, Afrati et al.) fix exactly that:
//!
//! * **Build replication** — a detected heavy hitter's (small) build-side
//!   tuples are broadcast to *every* shard, so its probes can join locally
//!   wherever they land.
//! * **Probe splitting** — the heavy key's (large) probe side is dealt
//!   round-robin across shards instead of hashed, spreading the product.
//!
//! Because each hot probe tuple meets the full replicated build side on
//! whichever shard it lands, and every cold key keeps both sides on its
//! owner shard, each (r, s) match pair is produced by exactly one shard —
//! results are purely additive and shard tasks can be retried on another
//! shard verbatim after a failure.
//!
//! The routing signal is the CSH sampler ([`detect_skewed_keys`]) that the
//! single-node joins already use — run once by the coordinator over the
//! build side before scattering.

use skewjoin_common::hash::shard_of;
use skewjoin_common::{Key, SkewedKey, Tuple};

use crate::config::SkewDetectConfig;
use crate::skew::{detect_skewed_keys, SkewCheckupTable};

/// Where one build-side (R) tuple must be sent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BuildRoute {
    /// A hot key: replicate the tuple to every shard.
    Broadcast,
    /// A cold key: send to its owner shard only.
    Owner(usize),
}

/// Routes tuples of one join to shards, with hot-key exceptions.
///
/// Probe routing is stateful (a per-hot-key round-robin cursor), so the
/// coordinator owns one router per join.
#[derive(Debug, Clone)]
pub struct ShardRouter {
    shards: usize,
    hot: Vec<SkewedKey>,
    checkup: SkewCheckupTable,
    /// Round-robin cursor per hot key, indexed by the checkup table's
    /// partition id. Per-key cursors keep every hot key's split even
    /// regardless of how the keys interleave in S.
    cursors: Vec<usize>,
}

impl ShardRouter {
    /// Builds a router by running the CSH sampling pass over the build side.
    pub fn detect(r_tuples: &[Tuple], shards: usize, cfg: &SkewDetectConfig) -> Self {
        Self::from_hot_keys(detect_skewed_keys(r_tuples, cfg), shards)
    }

    /// Builds a router from an already-detected hot-key set.
    pub fn from_hot_keys(hot: Vec<SkewedKey>, shards: usize) -> Self {
        assert!(shards >= 1, "router needs at least one shard");
        let checkup = SkewCheckupTable::build(&hot);
        let cursors = vec![0usize; hot.len()];
        Self {
            shards,
            hot,
            checkup,
            cursors,
        }
    }

    /// Number of shards this router scatters over.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The detected hot keys, hottest first.
    pub fn hot_keys(&self) -> &[SkewedKey] {
        &self.hot
    }

    /// Whether `key` is routed through the hot-key paths.
    #[inline]
    pub fn is_hot(&self, key: Key) -> bool {
        self.checkup.lookup(key).is_some()
    }

    /// Routes one build-side tuple: broadcast for hot keys, owner otherwise.
    #[inline]
    pub fn route_build(&self, key: Key) -> BuildRoute {
        if self.is_hot(key) {
            BuildRoute::Broadcast
        } else {
            BuildRoute::Owner(shard_of(key, self.shards))
        }
    }

    /// Routes one probe-side tuple: round-robin across shards for hot keys
    /// (probe splitting), owner shard otherwise.
    #[inline]
    pub fn route_probe(&mut self, key: Key) -> usize {
        match self.checkup.lookup(key) {
            Some(pid) => {
                let cursor = &mut self.cursors[pid as usize];
                let shard = *cursor;
                *cursor = (*cursor + 1) % self.shards;
                shard
            }
            None => shard_of(key, self.shards),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn router(hot_keys: &[Key], shards: usize) -> ShardRouter {
        let hot = hot_keys
            .iter()
            .map(|&key| SkewedKey { key, frequency: 2 })
            .collect();
        ShardRouter::from_hot_keys(hot, shards)
    }

    #[test]
    fn cold_keys_route_to_their_owner_on_both_sides() {
        let mut r = router(&[], 4);
        for key in 0..1000u32 {
            let owner = shard_of(key, 4);
            assert_eq!(r.route_build(key), BuildRoute::Owner(owner));
            assert_eq!(r.route_probe(key), owner);
        }
    }

    #[test]
    fn hot_keys_broadcast_builds_and_split_probes() {
        let mut r = router(&[42], 3);
        assert_eq!(r.route_build(42), BuildRoute::Broadcast);
        // Probe splitting cycles all shards evenly.
        let takes: Vec<usize> = (0..6).map(|_| r.route_probe(42)).collect();
        assert_eq!(takes, [0, 1, 2, 0, 1, 2]);
    }

    #[test]
    fn per_key_cursors_are_independent() {
        let mut r = router(&[1, 2], 2);
        assert_eq!(r.route_probe(1), 0);
        assert_eq!(r.route_probe(2), 0); // key 2 starts its own cycle
        assert_eq!(r.route_probe(1), 1);
        assert_eq!(r.route_probe(2), 1);
    }

    #[test]
    fn detect_flags_the_heavy_hitter() {
        let mut tuples = vec![Tuple::new(7, 0); 5000];
        tuples.extend((0..5000u32).map(|k| Tuple::new(k + 100_000, k)));
        let r = ShardRouter::detect(&tuples, 4, &SkewDetectConfig::default());
        assert!(r.is_hot(7), "heavy hitter not detected");
        assert_eq!(r.route_build(7), BuildRoute::Broadcast);
    }

    #[test]
    fn single_shard_degenerates_cleanly() {
        let mut r = router(&[5], 1);
        assert_eq!(r.route_build(5), BuildRoute::Broadcast);
        assert_eq!(r.route_probe(5), 0);
        assert_eq!(r.route_probe(3), 0);
    }
}
