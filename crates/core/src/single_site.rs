//! Start configurations and the systematic-scan baseline.
//!
//! The sequential single-site chains the paper parallelizes — heat-bath
//! **Glauber** dynamics (§3) and single-site **Metropolis** (footnote 2)
//! — are engine rules
//! ([`GlauberRule`](crate::engine::rules::GlauberRule),
//! [`MetropolisRule`](crate::engine::rules::MetropolisRule)) built
//! through the sampler facade. This module keeps what sits outside the
//! engine:
//!
//! * [`default_start`] and [`arbitrary_start`] — the start
//!   configurations every chain and measurement begins from;
//! * [`ScanChain`] — systematic scan (Dyer–Goldberg–Jerrum): heat-bath
//!   updates in a fixed vertex order; one [`ScanChain::step`] = one full
//!   sweep.

use crate::update::Resampler;
use lsl_local::rng::Xoshiro256pp;
use lsl_mrf::{Mrf, Spin};
use std::sync::Arc;

/// Samples an arbitrary initial configuration with positive vertex
/// activities (the paper lets chains start from any configuration; spins
/// with `b_v = 0` could never be proposed or kept, so avoid them).
pub fn arbitrary_start(mrf: &Mrf, rng: &mut Xoshiro256pp) -> Vec<Spin> {
    mrf.graph()
        .vertices()
        .map(|v| mrf.vertex_activity(v).sample(rng))
        .collect()
}

/// Systematic scan: one step = one heat-bath sweep in vertex order.
#[derive(Clone, Debug)]
pub struct ScanChain {
    mrf: Arc<Mrf>,
    state: Vec<Spin>,
    scratch: Vec<f64>,
    resampler: Resampler,
}

impl ScanChain {
    /// Creates the chain with the deterministic default start.
    pub fn new(mrf: impl Into<Arc<Mrf>>) -> Self {
        let mrf = mrf.into();
        let state = default_start(&mrf);
        let scratch = vec![0.0; mrf.q()];
        let resampler = Resampler::new(&mrf);
        ScanChain {
            mrf,
            state,
            scratch,
            resampler,
        }
    }

    /// The current configuration.
    pub fn state(&self) -> &[Spin] {
        &self.state
    }

    /// One full heat-bath sweep in vertex order.
    pub fn step(&mut self, rng: &mut Xoshiro256pp) {
        for v in self.mrf.graph().vertices() {
            self.mrf
                .marginal_weights_into(v, &self.state, &mut self.scratch);
            let pick = self
                .resampler
                .resample(&self.scratch, rng)
                .expect("scan marginal must be well-defined");
            self.state[v.index()] = pick;
        }
    }
}

/// Deterministic default start: at each vertex, the smallest spin with
/// positive activity.
pub fn default_start(mrf: &Mrf) -> Vec<Spin> {
    mrf.graph()
        .vertices()
        .map(|v| {
            let b = mrf.vertex_activity(v);
            (0..mrf.q() as Spin)
                .find(|&c| b.get(c) > 0.0)
                .expect("vertex activity has a positive entry")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sampler::{Algorithm, Sampler};
    use lsl_analysis::EmpiricalDistribution;
    use lsl_graph::generators;
    use lsl_mrf::gibbs::{encode_config, Enumeration};
    use lsl_mrf::models;

    /// TV between the exact Gibbs distribution and the facade's `alg`
    /// at `steps` rounds.
    fn facade_tv(mrf: &Mrf, alg: Algorithm, steps: usize, replicas: usize) -> f64 {
        let exact = Enumeration::new(mrf).unwrap();
        Sampler::for_mrf(mrf)
            .algorithm(alg)
            .seed(1000)
            .tv(&exact, steps, replicas)
            .unwrap()
    }

    #[test]
    fn glauber_reaches_feasibility() {
        let mrf = models::proper_coloring(generators::complete(4), 5);
        let mut chain = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::Glauber)
            .seed(3)
            .build()
            .unwrap();
        chain.run(100);
        assert!(mrf.is_feasible(chain.state()));
    }

    #[test]
    fn glauber_samples_gibbs_on_small_instance() {
        let mrf = models::uniform_independent_set(generators::path(3));
        let tv = facade_tv(&mrf, Algorithm::Glauber, 80, 6000);
        assert!(tv < 0.04, "tv = {tv}");
    }

    #[test]
    fn metropolis_samples_gibbs_on_small_instance() {
        let mrf = models::proper_coloring(generators::cycle(3), 4);
        let tv = facade_tv(&mrf, Algorithm::Metropolis, 150, 6000);
        assert!(tv < 0.06, "tv = {tv}");
    }

    #[test]
    fn metropolis_weighted_model() {
        // Hardcore with λ = 2 on P2: π({}) = 1/5, π({0}) = π({1}) = 2/5.
        let mrf = models::hardcore(generators::path(2), 2.0);
        let tv = facade_tv(&mrf, Algorithm::Metropolis, 60, 8000);
        assert!(tv < 0.04, "tv = {tv}");
    }

    #[test]
    fn scan_samples_gibbs() {
        let mrf = models::proper_coloring(generators::path(4), 3);
        let exact = Enumeration::new(&mrf).unwrap();
        let mut emp = EmpiricalDistribution::new();
        for rep in 0..6000 {
            let mut chain = ScanChain::new(&mrf);
            let mut rng = Xoshiro256pp::seed_from(1000 + rep);
            for _ in 0..25 {
                chain.step(&mut rng);
            }
            emp.record(encode_config(chain.state(), 3));
        }
        let tv = emp.tv_against_dense(&exact.distribution());
        assert!(tv < 0.05, "tv = {tv}");
    }

    #[test]
    fn default_start_respects_lists() {
        let g = generators::path(2);
        let mrf = models::list_coloring(g, 4, &[vec![2, 3], vec![0]]);
        assert_eq!(default_start(&mrf), vec![2, 0]);
    }

    #[test]
    fn set_state_roundtrip() {
        let mrf = models::proper_coloring(generators::path(3), 3);
        let mut chain = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::Glauber)
            .build()
            .unwrap();
        chain.set_state(&[2, 1, 0]);
        assert_eq!(chain.state(), &[2, 1, 0]);
    }

    #[test]
    fn arbitrary_start_in_support() {
        let g = generators::path(3);
        let mrf = models::list_coloring(g, 5, &[vec![1], vec![2, 4], vec![0]]);
        let mut rng = Xoshiro256pp::seed_from(9);
        for _ in 0..20 {
            let s = arbitrary_start(&mrf, &mut rng);
            assert_eq!(s[0], 1);
            assert!(s[1] == 2 || s[1] == 4);
            assert_eq!(s[2], 0);
        }
    }
}
