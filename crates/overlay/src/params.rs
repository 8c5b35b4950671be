//! Overlay parameters shared by every component.
//!
//! The paper assumes every node knows `n` (a lower bound on the network size)
//! and `κ` (so that `|V_t| ∈ [n, κn]`), and defines `λ := log(κn)`. The swarm
//! radius is `cλ/n` for a robustness parameter `c > 1` (Lemma 17 uses
//! `c ≥ 36k`, where `k` is the "with high probability" exponent; in simulation
//! far smaller constants already give the behaviour the asymptotics promise,
//! so `c` is configurable).

use serde::{Deserialize, Serialize};

use crate::position::ring_distance;

/// Global parameters of an LDS-style overlay.
#[derive(Clone, Copy, Debug, PartialEq, Serialize, Deserialize)]
pub struct OverlayParams {
    /// Lower bound `n` on the number of nodes.
    pub n: usize,
    /// Upper bound factor `κ`: the network never exceeds `κn` nodes.
    pub kappa: f64,
    /// Robustness parameter `c > 1` controlling the swarm radius `cλ/n`.
    pub c: f64,
}

impl OverlayParams {
    /// Parameters with the paper's convenience choice `κ = 1 + 1/16`.
    pub fn new(n: usize, c: f64) -> Self {
        OverlayParams {
            n,
            kappa: 1.0 + 1.0 / 16.0,
            c,
        }
    }

    /// A sensible default robustness parameter for simulation (`c = 2`).
    pub fn with_default_c(n: usize) -> Self {
        Self::new(n, 2.0)
    }

    /// `λ = ceil(log2(κ n))`, the number of address bits (the paper assumes λ
    /// is an integer for convenience; we round up).
    pub fn lambda(&self) -> u32 {
        let v = (self.kappa * self.n as f64).max(2.0);
        v.log2().ceil() as u32
    }

    /// The ratio `λ / n` that every radius below is a multiple of.
    fn lambda_over_n(&self) -> f64 {
        self.lambda() as f64 / self.n as f64
    }

    /// The swarm radius `cλ/n`: `v ∈ S(p)` iff `d(v, p) ≤ cλ/n`.
    pub fn swarm_radius(&self) -> f64 {
        self.c * self.lambda_over_n()
    }

    /// The list-edge radius `2cλ/n` of Definition 5.
    pub fn list_radius(&self) -> f64 {
        2.0 * self.c * self.lambda_over_n()
    }

    /// The long-distance (de Bruijn) edge radius `3cλ/(2n)` of Definition 5.
    pub fn debruijn_radius(&self) -> f64 {
        1.5 * self.c * self.lambda_over_n()
    }

    /// `λ` and the three radii, computed once — for code that asks per
    /// message or per pair, where the `log2` behind every getter above would
    /// be most of the work.
    pub fn radii(&self) -> Radii {
        Radii {
            lambda: self.lambda(),
            swarm: self.swarm_radius(),
            list: self.list_radius(),
            debruijn: self.debruijn_radius(),
        }
    }

    /// [`Radii::are_neighbors`] for these parameters.
    pub fn are_neighbors(&self, p: f64, q: f64) -> bool {
        self.radii().are_neighbors(p, q)
    }

    /// The paper's freshness threshold `λ' = 2λ + 4`: nodes younger than this
    /// are *fresh*, older nodes are *mature*.
    pub fn maturity_age(&self) -> u64 {
        2 * self.lambda() as u64 + 4
    }

    /// The paper's adversary state-lateness `b = 2λ + 7`.
    pub fn state_lateness(&self) -> u64 {
        2 * self.lambda() as u64 + 7
    }

    /// The paper's churn window `T = 4λ + 14`.
    pub fn churn_window(&self) -> u64 {
        4 * self.lambda() as u64 + 14
    }

    /// The paper's churn budget `αn = n/16` per churn window.
    pub fn churn_budget(&self) -> usize {
        self.n / 16
    }

    /// Routing dilation `2λ + 2` (Lemma 9): the exact number of rounds after
    /// which `A_ROUTING` delivers a message.
    pub fn dilation(&self) -> u64 {
        2 * self.lambda() as u64 + 2
    }
}

/// What [`OverlayParams::radii`] precomputes: `λ` and the radii of
/// Definition 5, bit for bit the getters' values.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Radii {
    /// [`OverlayParams::lambda`].
    pub lambda: u32,
    /// [`OverlayParams::swarm_radius`].
    pub swarm: f64,
    /// [`OverlayParams::list_radius`].
    pub list: f64,
    /// [`OverlayParams::debruijn_radius`].
    pub debruijn: f64,
}

impl Radii {
    /// Definition 5 read symmetrically, on raw positions in `[0, 1)`: `true`
    /// iff nodes at `p` and `q` are joined by a list edge or by a
    /// long-distance edge in either direction — `q ∈ N(p)` or `p ∈ N(q)` in
    /// [`Lds`](crate::Lds) terms. The maintenance protocol runs this for
    /// every pair of announced nodes, hence raw `f64`s.
    #[inline]
    pub fn are_neighbors(&self, p: f64, q: f64) -> bool {
        ring_distance(p, q) <= self.list
            || ring_distance(p / 2.0, q) <= self.debruijn
            || ring_distance((p + 1.0) / 2.0, q) <= self.debruijn
            || ring_distance(q / 2.0, p) <= self.debruijn
            || ring_distance((q + 1.0) / 2.0, p) <= self.debruijn
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn radii_are_the_getters_values() {
        for (n, c) in [(2, 1.0), (64, 1.5), (1000, 2.0), (4096, 0.75)] {
            let p = OverlayParams::new(n, c);
            let r = p.radii();
            assert_eq!(r.lambda, p.lambda());
            assert_eq!(r.swarm.to_bits(), p.swarm_radius().to_bits());
            assert_eq!(r.list.to_bits(), p.list_radius().to_bits());
            assert_eq!(r.debruijn.to_bits(), p.debruijn_radius().to_bits());
        }
    }

    #[test]
    fn lambda_grows_logarithmically() {
        let p256 = OverlayParams::with_default_c(256);
        let p1024 = OverlayParams::with_default_c(1024);
        assert!(p256.lambda() >= 8);
        assert_eq!(p1024.lambda(), p256.lambda() + 2);
    }

    #[test]
    fn radii_have_the_right_ratios() {
        let p = OverlayParams::new(1000, 2.0);
        let s = p.swarm_radius();
        assert!((p.list_radius() - 2.0 * s).abs() < 1e-12);
        assert!((p.debruijn_radius() - 1.5 * s).abs() < 1e-12);
    }

    #[test]
    fn paper_derived_quantities() {
        let p = OverlayParams::new(1600, 2.0);
        let l = p.lambda() as u64;
        assert_eq!(p.maturity_age(), 2 * l + 4);
        assert_eq!(p.state_lateness(), 2 * l + 7);
        assert_eq!(p.churn_window(), 4 * l + 14);
        assert_eq!(p.churn_budget(), 100);
        assert_eq!(p.dilation(), 2 * l + 2);
    }

    #[test]
    fn kappa_default_matches_paper() {
        let p = OverlayParams::new(64, 1.5);
        assert!((p.kappa - 17.0 / 16.0).abs() < 1e-12);
    }
}
