//! Trajectories (Definition 7): the sequence of points a message visits when
//! routed by bit-wise address adaption in a de Bruijn topology.
//!
//! For a start position `v`, a target `p` and `λ` address bits, the trajectory
//! is `x_0, …, x_{λ+1}` with `x_0 = v`, `x_{λ+1} = p` and
//!
//! ```text
//! x_i = ( p_{λ-i+1} … p_λ  v_1 … v_{λ-i} )   as a binary fraction,
//! ```
//!
//! i.e. in step `i` the `i`-th *least* significant of the target's `λ` most
//! significant bits is pushed in front, which is the same as applying the
//! de Bruijn image `x ↦ (x + bit)/2`.

use crate::position::Position;

/// A message trajectory: `λ + 2` points from source to target.
#[derive(Clone, Debug, PartialEq)]
pub struct Trajectory {
    points: Vec<Position>,
    lambda: u32,
}

impl Trajectory {
    /// Computes the trajectory `τ(v, p)` for `lambda` address bits.
    pub fn compute(v: Position, p: Position, lambda: u32) -> Self {
        let mut points = Vec::with_capacity(lambda as usize + 2);
        points.push(v);
        let mut current = v;
        for i in 1..=lambda {
            // Step i pushes bit p_{λ-i+1}: the i-th least significant of the
            // target's λ most significant bits.
            let bit = p.bit(lambda - i + 1, lambda);
            current = current.debruijn_image(bit);
            points.push(current);
        }
        points.push(p);
        Trajectory { points, lambda }
    }

    /// The number of address bits used.
    pub fn lambda(&self) -> u32 {
        self.lambda
    }

    /// The points `x_0, …, x_{λ+1}`.
    pub fn points(&self) -> &[Position] {
        &self.points
    }

    /// The `i`-th point (`0 ≤ i ≤ λ+1`).
    pub fn point(&self, i: usize) -> Position {
        self.points[i]
    }

    /// Number of points (`λ + 2`).
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Trajectories are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// The distance between the last de Bruijn point `x_λ` and the target
    /// `p = x_{λ+1}`. The routing analysis relies on this being at most
    /// `2^{-λ}` plus the start position's contribution, i.e. `O(1/n)` — well
    /// inside the target swarm.
    pub fn final_gap(&self) -> f64 {
        let l = self.points.len();
        self.points[l - 2].distance(self.points[l - 1])
    }
}

/// The bit pushed at step `i` (1-indexed) when routing towards `p` with
/// `lambda` address bits — exposed separately because the routing protocol
/// needs it without materializing the whole trajectory.
#[inline]
pub fn step_bit(p: Position, i: u32, lambda: u32) -> u8 {
    p.bit(lambda - i + 1, lambda)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn trajectory_has_lambda_plus_two_points() {
        let t = Trajectory::compute(Position::new(0.3), Position::new(0.8), 10);
        assert_eq!(t.len(), 12);
        assert_eq!(t.lambda(), 10);
        assert!(!t.is_empty());
        assert_eq!(t.point(0), Position::new(0.3));
        assert_eq!(t.point(11), Position::new(0.8));
    }

    #[test]
    fn each_step_is_a_debruijn_image() {
        let t = Trajectory::compute(Position::new(0.123), Position::new(0.789), 8);
        for i in 1..=8usize {
            let prev = t.point(i - 1);
            let cur = t.point(i);
            let is_image =
                prev.half().distance(cur) < 1e-12 || prev.half_plus().distance(cur) < 1e-12;
            assert!(is_image, "step {i} is not a de Bruijn image");
        }
    }

    #[test]
    fn final_point_converges_to_target_bits() {
        // After λ steps the position's λ most significant bits equal the
        // target's λ most significant bits.
        let lambda = 12;
        let v = Position::new(0.37);
        let p = Position::new(0.642);
        let t = Trajectory::compute(v, p, lambda);
        let x_lambda = t.point(lambda as usize);
        assert_eq!(x_lambda.to_bits(lambda), p.to_bits(lambda));
        assert!(t.final_gap() <= 1.0 / (1u64 << lambda) as f64 + 1e-12);
    }

    #[test]
    fn step_bit_matches_trajectory_construction() {
        let p = Position::new(0.625); // binary 0.101
                                      // λ = 3: bits are (1, 0, 1). Step 1 pushes p_3 = 1, step 2 pushes p_2 = 0,
                                      // step 3 pushes p_1 = 1.
        assert_eq!(step_bit(p, 1, 3), 1);
        assert_eq!(step_bit(p, 2, 3), 0);
        assert_eq!(step_bit(p, 3, 3), 1);
    }

    proptest! {
        #[test]
        fn prop_trajectory_ends_within_target_swarm(v in 0.0f64..1.0, p in 0.0f64..1.0) {
            let lambda = 10u32;
            let t = Trajectory::compute(Position::new(v), Position::new(p), lambda);
            // 2^-λ = 1/1024; any reasonable swarm radius (cλ/n with n ≤ 2^λ/ (cλ))
            // is far larger than the final gap.
            prop_assert!(t.final_gap() <= 1.0 / 1024.0 + 1e-12);
        }

        #[test]
        fn prop_all_points_valid_positions(v in 0.0f64..1.0, p in 0.0f64..1.0, lambda in 1u32..16) {
            let t = Trajectory::compute(Position::new(v), Position::new(p), lambda);
            prop_assert_eq!(t.len() as u32, lambda + 2);
            for x in t.points() {
                prop_assert!(x.value() >= 0.0 && x.value() < 1.0);
            }
        }
    }
}
