//! Deterministic randomness for the simulator.
//!
//! Every randomized decision made by a node in round `t` is drawn from a stream
//! that is derived *only* from `(master seed, node id, round)`. This has two
//! important consequences:
//!
//! 1. **Reproducibility** — a run is a pure function of the master seed and the
//!    adversary strategy, which makes every experiment in `EXPERIMENTS.md`
//!    exactly reproducible.
//! 2. **Order independence** — per-node streams do not depend on the order in
//!    which nodes are stepped, so the engine may execute the compute phase of a
//!    round in parallel (`rayon::for_each_index_mut`) without changing
//!    results.
//!
//! The paper additionally assumes a uniform hash function `h : V × N → [0,1)`
//! that is known to every node but opaque to the adversary (a random oracle).
//! [`position_hash`] realizes it with the same SplitMix64 mixing.

use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

use crate::ids::{NodeId, Round};

/// SplitMix64 finalizer; a fast, well-mixed 64-bit permutation.
#[inline]
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Combines several 64-bit words into one well-mixed word.
#[inline]
pub fn mix(words: &[u64]) -> u64 {
    let mut acc = 0x243F_6A88_85A3_08D3u64; // pi fractional bits
    for &w in words {
        acc = splitmix64(acc ^ splitmix64(w));
    }
    acc
}

/// Returns the deterministic RNG stream for `(seed, node, round)`.
///
/// The stream is a ChaCha8 generator seeded by a SplitMix64 mix of its inputs;
/// ChaCha8 is more than strong enough for simulation purposes and is cheap to
/// construct.
pub fn node_round_rng(seed: u64, node: NodeId, round: Round) -> ChaCha8Rng {
    let s = mix(&[seed, node.raw(), round, 0x5157_4F52_4C44_u64]);
    ChaCha8Rng::seed_from_u64(s)
}

/// The shared uniform hash `h(v, e) ∈ [0,1)` from Section 5 of the paper.
///
/// Every node can evaluate it for any identifier it knows, which is how the
/// maintenance protocol lets mature nodes compute the future positions of the
/// fresh nodes they sponsor. The adversary never evaluates it (random-oracle
/// assumption), which the engine enforces simply by not exposing the seed
/// through [`crate::knowledge::KnowledgeView`].
#[inline]
pub fn position_hash(seed: u64, node: NodeId, epoch: u64) -> f64 {
    let z = mix(&[seed, node.raw(), epoch, 0x504F_5349_5449_4F4E]);
    // Take the top 53 bits to build a double in [0, 1).
    (z >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::Rng;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        assert_eq!(splitmix64(1), splitmix64(1));
        assert_ne!(splitmix64(1), splitmix64(2));
        assert_ne!(splitmix64(0), 0);
    }

    #[test]
    fn node_round_streams_are_reproducible() {
        let mut a = node_round_rng(7, NodeId(3), 11);
        let mut b = node_round_rng(7, NodeId(3), 11);
        let xs: Vec<u64> = (0..16).map(|_| a.gen()).collect();
        let ys: Vec<u64> = (0..16).map(|_| b.gen()).collect();
        assert_eq!(xs, ys);
    }

    #[test]
    fn node_round_streams_differ_across_inputs() {
        let mut a = node_round_rng(7, NodeId(3), 11);
        let mut b = node_round_rng(7, NodeId(4), 11);
        let mut c = node_round_rng(7, NodeId(3), 12);
        let mut d = node_round_rng(8, NodeId(3), 11);
        let xa: u64 = a.gen();
        assert_ne!(xa, b.gen::<u64>());
        assert_ne!(xa, c.gen::<u64>());
        assert_ne!(xa, d.gen::<u64>());
    }

    #[test]
    fn position_hash_is_in_unit_interval_and_uniform_ish() {
        let mut sum = 0.0;
        let n = 10_000;
        for i in 0..n {
            let p = position_hash(42, NodeId(i), 3);
            assert!((0.0..1.0).contains(&p), "position {p} out of range");
            sum += p;
        }
        let mean = sum / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean} far from 0.5");
    }

    #[test]
    fn position_hash_changes_with_epoch() {
        let a = position_hash(42, NodeId(1), 1);
        let b = position_hash(42, NodeId(1), 2);
        assert_ne!(a, b);
    }
}
