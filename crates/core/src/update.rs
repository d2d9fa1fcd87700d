//! Heat-bath updates engineered for grand couplings.
//!
//! A heat-bath resample is distributionally just "sample from the
//! conditional marginal", but *how* the randomness maps to the outcome
//! decides how well a shared-randomness (grand) coupling contracts:
//!
//! * inverse-CDF sampling is generic but shift-sensitive — for colorings,
//!   two chains whose available-color sets differ by one element pick
//!   different colors almost always, and coalescence stalls;
//! * the **permutation scheme** — walk a shared uniformly random
//!   permutation of `[q]` and take the first *available* spin — is the
//!   classic coupling-friendly equivalent for models whose positive
//!   marginal weights are all equal (proper/list colorings and every
//!   other hard-constraint CSP with indicator vertex activities): chains
//!   agree whenever their available sets agree, and disagreement spreads
//!   only with probability O(disagreeing neighbors / available colors).
//!
//! [`Resampler`] picks the scheme *per model* (never per state, so
//! coupled copies always take the same branch), and consumes exactly one
//! 64-bit draw from the step stream per update (the draw seeds a private
//! subgenerator), keeping coupled streams aligned regardless of internal
//! rejection sampling.

use lsl_local::rng::Xoshiro256pp;
use lsl_mrf::{Mrf, Spin};

/// A coupling-friendly heat-bath resampler bound to a model.
#[derive(Clone, Debug)]
pub struct Resampler {
    uniform_marginals: bool,
    perm: Vec<u32>,
}

impl Resampler {
    /// Builds a resampler, detecting whether the model has uniform
    /// positive marginal weights (hard edge constraints + indicator-like
    /// vertex activities).
    pub fn new(mrf: &Mrf) -> Self {
        Resampler {
            uniform_marginals: has_uniform_marginals(mrf),
            perm: (0..mrf.q() as u32).collect(),
        }
    }

    /// Whether the permutation scheme is active.
    pub fn uses_permutation_scheme(&self) -> bool {
        self.uniform_marginals
    }

    /// Samples a spin from the (unnormalized) marginal `weights`,
    /// consuming exactly one 64-bit draw from `rng` (see
    /// [`Resampler::resample_head`]). Returns `None` if all weights
    /// vanish.
    pub fn resample(&mut self, weights: &[f64], rng: &mut Xoshiro256pp) -> Option<Spin> {
        self.resample_head(weights, rng.next())
    }

    /// [`Resampler::resample`] given the draw itself: `head` seeds the
    /// private subgenerator. A resolve stream's first draw is its head
    /// ([`lsl_local::rng::stream_head`]), so kernels that fill a block
    /// of heads resample bit-identically to the per-vertex streams.
    /// Returns `None` if all weights vanish.
    pub fn resample_head(&mut self, weights: &[f64], head: u64) -> Option<Spin> {
        let mut sub = Xoshiro256pp::seed_from(head);
        if self.uniform_marginals {
            // Fisher–Yates with the shared subgenerator; the first
            // available spin in the permutation is uniform over the
            // available set.
            let q = self.perm.len();
            for (i, slot) in self.perm.iter_mut().enumerate() {
                *slot = i as u32;
            }
            for i in (1..q).rev() {
                let j = (sub.next() % (i as u64 + 1)) as usize;
                self.perm.swap(i, j);
            }
            // The first available spin in permutation order, found by a
            // backward scan that selects rather than branches.
            let mut pick = None;
            for &c in self.perm.iter().rev() {
                if weights[c as usize] > 0.0 {
                    pick = Some(c);
                }
            }
            pick
        } else {
            lsl_mrf::model::sample_weighted(weights, &mut sub)
        }
    }
}

/// Whether every positive marginal weight of `mrf` is equal whatever the
/// boundary: hard edge constraints and indicator-like vertex activities.
pub fn has_uniform_marginals(mrf: &Mrf) -> bool {
    if !mrf.all_hard_constraints() {
        return false;
    }
    mrf.graph().vertices().all(|v| {
        let b = mrf.vertex_activity(v);
        let max = (0..mrf.q() as Spin).map(|c| b.get(c)).fold(0.0, f64::max);
        (0..mrf.q() as Spin).all(|c| {
            let x = b.get(c);
            x == 0.0 || x == max
        })
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsl_graph::generators;
    use lsl_mrf::models;

    #[test]
    fn scheme_detection() {
        assert!(has_uniform_marginals(&models::proper_coloring(
            generators::path(3),
            4
        )));
        assert!(has_uniform_marginals(&models::list_coloring(
            generators::path(2),
            4,
            &[vec![0, 1], vec![2, 3]]
        )));
        // Hardcore has b = (1, λ): not indicator-like unless λ = 1.
        assert!(!has_uniform_marginals(&models::hardcore(
            generators::path(3),
            2.0
        )));
        assert!(has_uniform_marginals(&models::uniform_independent_set(
            generators::path(3)
        )));
        // Soft activities: never.
        assert!(!has_uniform_marginals(&models::ising(
            generators::path(2),
            0.5
        )));
    }

    #[test]
    fn permutation_scheme_uniform_over_available() {
        let mrf = models::proper_coloring(generators::path(2), 4);
        let mut rs = Resampler::new(&mrf);
        assert!(rs.uses_permutation_scheme());
        let weights = [0.0, 1.0, 1.0, 0.0];
        let mut rng = Xoshiro256pp::seed_from(3);
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            let c = rs.resample(&weights, &mut rng).unwrap() as usize;
            counts[c] += 1;
        }
        assert_eq!(counts[0], 0);
        assert_eq!(counts[3], 0);
        let frac = counts[1] as f64 / 20_000.0;
        assert!((frac - 0.5).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn cdf_scheme_proportional() {
        let mrf = models::hardcore(generators::path(2), 3.0);
        let mut rs = Resampler::new(&mrf);
        assert!(!rs.uses_permutation_scheme());
        let weights = [1.0, 3.0];
        let mut rng = Xoshiro256pp::seed_from(5);
        let mut ones = 0usize;
        for _ in 0..40_000 {
            ones += rs.resample(&weights, &mut rng).unwrap() as usize;
        }
        let frac = ones as f64 / 40_000.0;
        assert!((frac - 0.75).abs() < 0.02, "frac = {frac}");
    }

    #[test]
    fn one_draw_per_update() {
        // Two identically seeded streams stay aligned across resamples
        // with different weight patterns.
        let mrf = models::proper_coloring(generators::path(2), 5);
        let mut rs_a = Resampler::new(&mrf);
        let mut rs_b = Resampler::new(&mrf);
        let mut rng_a = Xoshiro256pp::seed_from(7);
        let mut rng_b = Xoshiro256pp::seed_from(7);
        let wa = [1.0, 1.0, 0.0, 1.0, 0.0];
        let wb = [0.0, 1.0, 1.0, 1.0, 1.0];
        for _ in 0..50 {
            rs_a.resample(&wa, &mut rng_a);
            rs_b.resample(&wb, &mut rng_b);
            assert_eq!(rng_a.next(), rng_b.next());
            // (consume the same extra draw on both sides)
        }
    }

    #[test]
    fn coupled_resamples_agree_when_available_sets_agree() {
        let mrf = models::proper_coloring(generators::path(2), 6);
        let mut rs_a = Resampler::new(&mrf);
        let mut rs_b = Resampler::new(&mrf);
        let w = [0.0, 1.0, 1.0, 0.0, 1.0, 1.0];
        for seed in 0..100 {
            let mut rng_a = Xoshiro256pp::seed_from(seed);
            let mut rng_b = Xoshiro256pp::seed_from(seed);
            assert_eq!(rs_a.resample(&w, &mut rng_a), rs_b.resample(&w, &mut rng_b));
        }
    }

    #[test]
    fn returns_none_on_zero_weights() {
        let mrf = models::proper_coloring(generators::path(2), 3);
        let mut rs = Resampler::new(&mrf);
        let mut rng = Xoshiro256pp::seed_from(1);
        assert_eq!(rs.resample(&[0.0, 0.0, 0.0], &mut rng), None);
    }
}
