//! Intervals on the `[0,1)` ring.
//!
//! The paper writes `⟨p ± r⟩` for the set of points within ring distance `r`
//! of `p`, and `⟨v, w⟩` for the set of points right of `v` and left of `w`.
//! [`Interval`] models both as a center/radius pair, which is the only shape
//! the algorithms need.

use crate::position::Position;

/// A closed arc of the ring, given by its center and radius (half-width).
#[derive(Clone, Copy, Debug, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct Interval {
    center: Position,
    radius: f64,
}

impl Interval {
    /// The arc `⟨center ± radius⟩`. Radii of `0.5` or more cover the whole ring.
    pub fn around(center: Position, radius: f64) -> Self {
        Interval {
            center,
            radius: radius.max(0.0),
        }
    }

    /// The interval's center.
    pub fn center(&self) -> Position {
        self.center
    }

    /// The interval's radius (half its length).
    pub fn radius(&self) -> f64 {
        self.radius
    }

    /// Total arc length covered (capped at 1).
    pub fn length(&self) -> f64 {
        (2.0 * self.radius).min(1.0)
    }

    /// Whether the interval covers the entire ring.
    pub fn is_full_ring(&self) -> bool {
        self.radius >= 0.5
    }

    /// `true` if `p` lies inside the interval.
    #[inline]
    pub fn contains(&self, p: Position) -> bool {
        self.center.distance(p) <= self.radius + 1e-15
    }

    /// The left endpoint (counter-clockwise boundary).
    pub fn left_end(&self) -> Position {
        self.center.offset(-self.radius)
    }

    /// The right endpoint (clockwise boundary).
    pub fn right_end(&self) -> Position {
        self.center.offset(self.radius)
    }

    /// `true` if the two intervals share at least one point.
    pub fn overlaps(&self, other: &Interval) -> bool {
        self.center.distance(other.center) <= self.radius + other.radius + 1e-15
    }

    /// Length of the overlap of two intervals (0 if disjoint). Used in the
    /// Lemma 19 argument that any two future neighbours share a witness.
    pub fn overlap_length(&self, other: &Interval) -> f64 {
        if self.is_full_ring() {
            return other.length();
        }
        if other.is_full_ring() {
            return self.length();
        }
        let d = self.center.distance(other.center);
        let overlap = (self.radius + other.radius - d).max(0.0);
        overlap.min(self.length()).min(other.length())
    }

    /// The image of this interval under the de Bruijn map `x ↦ (x + bit)/2`:
    /// the center maps and the radius halves.
    pub fn debruijn_image(&self, bit: u8) -> Interval {
        Interval {
            center: self.center.debruijn_image(bit),
            radius: self.radius / 2.0,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn contains_handles_wraparound() {
        let i = Interval::around(Position::new(0.02), 0.05);
        assert!(i.contains(Position::new(0.99)));
        assert!(i.contains(Position::new(0.05)));
        assert!(!i.contains(Position::new(0.5)));
    }

    #[test]
    fn endpoints_are_consistent() {
        let i = Interval::around(Position::new(0.5), 0.1);
        assert!((i.left_end().value() - 0.4).abs() < 1e-12);
        assert!((i.right_end().value() - 0.6).abs() < 1e-12);
        assert!((i.length() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn overlap_length_cases() {
        let a = Interval::around(Position::new(0.1), 0.1);
        let b = Interval::around(Position::new(0.25), 0.1);
        assert!(a.overlaps(&b));
        assert!((a.overlap_length(&b) - 0.05).abs() < 1e-12);
        let c = Interval::around(Position::new(0.6), 0.05);
        assert!(!a.overlaps(&c));
        assert_eq!(a.overlap_length(&c), 0.0);
    }

    #[test]
    fn full_ring_interval() {
        let i = Interval::around(Position::new(0.3), 0.6);
        assert!(i.is_full_ring());
        assert!(i.contains(Position::new(0.9)));
        assert_eq!(i.length(), 1.0);
        let j = Interval::around(Position::new(0.0), 0.01);
        assert!((i.overlap_length(&j) - j.length()).abs() < 1e-12);
    }

    #[test]
    fn debruijn_image_halves_radius() {
        let i = Interval::around(Position::new(0.6), 0.2);
        let img = i.debruijn_image(0);
        assert!((img.radius() - 0.1).abs() < 1e-12);
        assert!((img.center().value() - 0.3).abs() < 1e-12);
    }

    proptest! {
        #[test]
        fn prop_contains_iff_within_radius(c in 0.0f64..1.0, r in 0.0f64..0.5, p in 0.0f64..1.0) {
            let i = Interval::around(Position::new(c), r);
            let pos = Position::new(p);
            prop_assert_eq!(i.contains(pos), Position::new(c).distance(pos) <= r + 1e-15);
        }

        #[test]
        fn prop_endpoints_are_contained(c in 0.0f64..1.0, r in 0.0f64..0.49) {
            let i = Interval::around(Position::new(c), r);
            prop_assert!(i.contains(i.left_end()));
            prop_assert!(i.contains(i.right_end()));
            prop_assert!(i.contains(i.center()));
        }

        #[test]
        fn prop_overlap_is_symmetric(c1 in 0.0f64..1.0, r1 in 0.0f64..0.4, c2 in 0.0f64..1.0, r2 in 0.0f64..0.4) {
            let a = Interval::around(Position::new(c1), r1);
            let b = Interval::around(Position::new(c2), r2);
            prop_assert_eq!(a.overlaps(&b), b.overlaps(&a));
            prop_assert!((a.overlap_length(&b) - b.overlap_length(&a)).abs() < 1e-12);
        }
    }
}
