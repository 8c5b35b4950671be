//! Positions on the `[0,1)` ring and the paper's distance function.
//!
//! Every node chooses a position `p_v ∈ [0,1)` uniformly at random (Section 3).
//! The distance between two positions is the shorter way around the ring:
//!
//! ```text
//! d(v, w) = |v - w|       if |v - w| <= 1/2
//!           1 - |v - w|   otherwise
//! ```

use std::fmt;

/// The ring distance `d(a, b)` of Section 3 on raw values in `[0, 1)`: the
/// definition [`Position::distance`] wraps, exposed for hot loops that keep
/// positions as plain `f64`s (the maintenance protocol's per-copy member
/// filter) and must not pay [`Position::new`]'s wrap for every comparison.
#[inline]
pub fn ring_distance(a: f64, b: f64) -> f64 {
    let diff = (a - b).abs();
    if diff <= 0.5 {
        diff
    } else {
        1.0 - diff
    }
}

/// A point on the unit ring `[0, 1)`.
///
/// The type maintains the invariant `0.0 <= value < 1.0`; all constructors and
/// arithmetic wrap around the ring.
#[derive(Clone, Copy, PartialEq, PartialOrd, serde::Serialize, serde::Deserialize)]
pub struct Position(f64);

impl Position {
    /// Wraps `value` into `[0, 1)`.
    #[inline]
    pub fn new(value: f64) -> Self {
        let mut v = value.rem_euclid(1.0);
        // rem_euclid can return 1.0 for tiny negative inputs due to rounding.
        if v >= 1.0 {
            v = 0.0;
        }
        Position(v)
    }

    /// The raw value in `[0, 1)`.
    #[inline]
    pub fn value(self) -> f64 {
        self.0
    }

    /// The ring distance `d(self, other)` from Section 3.
    #[inline]
    pub fn distance(self, other: Position) -> f64 {
        ring_distance(self.0, other.0)
    }

    /// The first de Bruijn image `p / 2`.
    #[inline]
    pub fn half(self) -> Position {
        Position(self.0 / 2.0)
    }

    /// The second de Bruijn image `(p + 1) / 2`.
    #[inline]
    pub fn half_plus(self) -> Position {
        Position((self.0 + 1.0) / 2.0)
    }

    /// The de Bruijn image `(p + i) / 2` for bit `i ∈ {0, 1}`.
    #[inline]
    pub fn debruijn_image(self, bit: u8) -> Position {
        if bit == 0 {
            self.half()
        } else {
            self.half_plus()
        }
    }

    /// The de Bruijn *pre*-image `2p mod 1` (the inverse of pushing a bit).
    #[inline]
    pub fn double(self) -> Position {
        Position::new(self.0 * 2.0)
    }

    /// Moves `delta` along the ring (positive = clockwise / to the right).
    #[inline]
    pub fn offset(self, delta: f64) -> Position {
        Position::new(self.0 + delta)
    }

    /// `true` if `self` is *left of* `other` in the paper's sense: for
    /// `|u - v| <= 1/2` the smaller value is left; if the two points are more
    /// than half the ring apart the relation reverses.
    #[inline]
    pub fn is_left_of(self, other: Position) -> bool {
        if self == other {
            return false;
        }
        let diff = (self.0 - other.0).abs();
        if diff <= 0.5 {
            self.0 < other.0
        } else {
            self.0 > other.0
        }
    }

    /// `true` if `self` is right of `other` (and distinct).
    #[inline]
    pub fn is_right_of(self, other: Position) -> bool {
        self != other && !self.is_left_of(other)
    }

    /// The `lambda` most significant bits of the binary expansion of the
    /// position, packed into the low bits of a `u64` (most significant bit of
    /// the expansion first). Used by trajectories (Definition 7).
    #[inline]
    pub fn to_bits(self, lambda: u32) -> u64 {
        debug_assert!(lambda <= 52, "lambda must fit a double's mantissa");
        let scaled = self.0 * (1u64 << lambda) as f64;
        (scaled as u64).min((1u64 << lambda) - 1)
    }

    /// Reconstructs a position from `lambda` bits produced by [`Self::to_bits`]
    /// (the midpoint of the corresponding dyadic interval).
    #[inline]
    pub fn from_bits(bits: u64, lambda: u32) -> Position {
        let denom = (1u64 << lambda) as f64;
        Position::new((bits as f64 + 0.5) / denom)
    }

    /// The `i`-th most significant bit (1-indexed, `1 ..= lambda`) of the
    /// binary expansion.
    #[inline]
    pub fn bit(self, i: u32, lambda: u32) -> u8 {
        let bits = self.to_bits(lambda);
        ((bits >> (lambda - i)) & 1) as u8
    }
}

impl fmt::Debug for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl fmt::Display for Position {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{:.6}", self.0)
    }
}

impl From<f64> for Position {
    fn from(v: f64) -> Self {
        Position::new(v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn new_wraps_into_unit_interval() {
        assert_eq!(Position::new(1.25).value(), 0.25);
        assert_eq!(Position::new(-0.25).value(), 0.75);
        assert_eq!(Position::new(0.0).value(), 0.0);
        assert!(Position::new(1.0).value() < 1.0);
    }

    #[test]
    fn distance_is_shorter_arc() {
        let a = Position::new(0.1);
        let b = Position::new(0.9);
        assert!((a.distance(b) - 0.2).abs() < 1e-12, "wraps around 0");
        let c = Position::new(0.4);
        assert!((a.distance(c) - 0.3).abs() < 1e-12);
        assert_eq!(a.distance(a), 0.0);
    }

    #[test]
    fn debruijn_images_match_definition() {
        let p = Position::new(0.6);
        assert!((p.half().value() - 0.3).abs() < 1e-12);
        assert!((p.half_plus().value() - 0.8).abs() < 1e-12);
        assert_eq!(p.debruijn_image(0), p.half());
        assert_eq!(p.debruijn_image(1), p.half_plus());
    }

    #[test]
    fn double_inverts_debruijn_images() {
        let p = Position::new(0.37);
        assert!(p.half().double().distance(p) < 1e-12);
        assert!(p.half_plus().double().distance(p) < 1e-12);
    }

    #[test]
    fn left_right_relation() {
        let a = Position::new(0.1);
        let b = Position::new(0.2);
        assert!(a.is_left_of(b));
        assert!(b.is_right_of(a));
        // Across the wrap point the relation reverses: 0.95 is "left of" 0.05.
        let c = Position::new(0.95);
        let d = Position::new(0.05);
        assert!(c.is_left_of(d));
        assert!(d.is_right_of(c));
        assert!(!a.is_left_of(a));
    }

    #[test]
    fn bit_extraction_matches_binary_expansion() {
        // 0.625 = 0.101 in binary.
        let p = Position::new(0.625);
        assert_eq!(p.bit(1, 3), 1);
        assert_eq!(p.bit(2, 3), 0);
        assert_eq!(p.bit(3, 3), 1);
        assert_eq!(p.to_bits(3), 0b101);
    }

    #[test]
    fn from_bits_is_close_to_original() {
        let p = Position::new(0.317);
        let q = Position::from_bits(p.to_bits(20), 20);
        assert!(p.distance(q) < 1.0 / (1 << 19) as f64);
    }

    proptest! {
        #[test]
        fn prop_ring_distance_matches_position_type(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let d = Position::new(a).distance(Position::new(b));
            prop_assert_eq!(ring_distance(a, b).to_bits(), d.to_bits());
        }

        #[test]
        fn prop_distance_is_symmetric_and_bounded(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let pa = Position::new(a);
            let pb = Position::new(b);
            let d1 = pa.distance(pb);
            let d2 = pb.distance(pa);
            prop_assert!((d1 - d2).abs() < 1e-15);
            prop_assert!(d1 <= 0.5 + 1e-15);
            prop_assert!(d1 >= 0.0);
        }

        #[test]
        fn prop_triangle_inequality(a in 0.0f64..1.0, b in 0.0f64..1.0, c in 0.0f64..1.0) {
            let (pa, pb, pc) = (Position::new(a), Position::new(b), Position::new(c));
            prop_assert!(pa.distance(pc) <= pa.distance(pb) + pb.distance(pc) + 1e-12);
        }

        #[test]
        fn prop_halving_halves_distance(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            // Lemma 6 case 1: d(p/2, v/2) = d(p, v) / 2 when |p - v| <= 1/2.
            let pa = Position::new(a);
            let pb = Position::new(b);
            if (a - b).abs() <= 0.5 {
                let d = pa.half().distance(pb.half());
                prop_assert!((d - pa.distance(pb) / 2.0).abs() < 1e-12);
            }
        }

        #[test]
        fn prop_offset_round_trips(a in 0.0f64..1.0, delta in -2.0f64..2.0) {
            let p = Position::new(a);
            let q = p.offset(delta).offset(-delta);
            prop_assert!(p.distance(q) < 1e-9);
        }

        #[test]
        fn prop_left_xor_right(a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let pa = Position::new(a);
            let pb = Position::new(b);
            if pa != pb {
                prop_assert!(!(pa.is_left_of(pb) ^ pa.is_right_of(pb)) || pa.is_left_of(pb) != pa.is_right_of(pb));
                prop_assert!(pa.is_left_of(pb) != pb.is_left_of(pa));
            }
        }
    }
}
