//! The weighted-CSP extension of LocalMetropolis (Remark after
//! Algorithm 2).
//!
//! "The local filtering now occurs on each local constraint, such that a
//! k-ary constraint c = (f_c, S_c) passes the check with the probability
//! which is a product of 2^k − 1 normalized factors f̃_c(τ) for the
//! τ ∈ \[q\]^{S_c} obtained from 2^k − 1 ways of mixing σ_{S_c} with
//! X_{S_c} except the X_{S_c} itself."
//!
//! Each step: every vertex proposes a uniform spin; every constraint
//! flips one shared coin with the mixture-product pass probability; a
//! vertex accepts iff *all* constraints containing it pass. For binary
//! edge constraints the mixture product is exactly the three-factor
//! filter of Algorithm 2, which [`csp_local_metropolis_kernel`]'s tests
//! verify by comparing kernels entrywise against the MRF chain.

use lsl_analysis::Kernel;
use lsl_local::rng::Xoshiro256pp;
use lsl_mrf::csp::{Constraint, Csp};
use lsl_mrf::gibbs::{checked_pow, decode_config};
use lsl_mrf::Spin;
use std::collections::HashMap;

/// The mixture-product pass probability of constraint `c` given the
/// current spins and proposals of its scope: `Π_{∅ ≠ S ⊆ [k]} f̃(τ_S)`
/// where `τ_S` takes `σ` on `S` and `X` elsewhere.
pub fn constraint_pass_probability(
    c: &Constraint,
    q: usize,
    current: &[Spin],
    proposals: &[Spin],
) -> f64 {
    let k = c.scope().len();
    debug_assert!(k <= 16, "scope too large for mixture enumeration");
    let max = c.max_value();
    if max == 0.0 {
        return 0.0;
    }
    let mut local = vec![0 as Spin; k];
    let mut p = 1.0;
    for mask in 1u32..(1 << k) {
        for (i, slot) in local.iter_mut().enumerate() {
            let v = c.scope()[i] as usize;
            *slot = if (mask >> i) & 1 == 1 {
                proposals[v]
            } else {
                current[v]
            };
        }
        p *= c.evaluate_local(q, &local) / max;
        if p == 0.0 {
            return 0.0;
        }
    }
    p
}

/// One LocalMetropolis round over a weighted local CSP: every vertex
/// proposes a uniform spin, then every constraint (in order) flips one
/// coin against its mixture-product pass probability, and a vertex takes
/// its proposal iff every constraint containing it passed. `proposals`
/// and `accept` are reusable scratch of length `n`.
pub(crate) fn round(
    csp: &Csp,
    state: &mut [Spin],
    proposals: &mut [Spin],
    accept: &mut [bool],
    rng: &mut Xoshiro256pp,
) {
    let q = csp.q();
    for slot in proposals.iter_mut() {
        *slot = (rng.uniform_f64() * q as f64) as Spin;
    }
    accept.fill(true);
    for c in csp.constraints() {
        let p = constraint_pass_probability(c, q, state, proposals);
        if rng.uniform_f64() >= p {
            for &v in c.scope() {
                accept[v as usize] = false;
            }
        }
    }
    for ((x, &s), &ok) in state.iter_mut().zip(proposals.iter()).zip(accept.iter()) {
        if ok {
            *x = s;
        }
    }
}

/// The exact transition kernel of the CSP LocalMetropolis chain on a
/// small CSP,
/// by enumerating proposal vectors and constraint-coin patterns.
///
/// # Panics
/// Panics if `q^n > 729` or the CSP has more than 12 constraints.
pub fn csp_local_metropolis_kernel(csp: &Csp) -> Kernel {
    let n = csp.graph().num_vertices();
    let q = csp.q();
    let total = checked_pow(q, n)
        .filter(|&t| t <= 729)
        .expect("state space too large");
    let m = csp.constraints().len();
    assert!(m <= 12, "too many constraints for coin enumeration");
    let proposal_prob = 1.0 / total as f64; // uniform over [q]^n
    let mut maps: Vec<HashMap<usize, f64>> = vec![HashMap::new(); total];
    let mut x_cfg = vec![0 as Spin; n];
    let mut s_cfg = vec![0 as Spin; n];
    for x in 0..total {
        decode_config(x, q, &mut x_cfg);
        let row = &mut maps[x];
        for s in 0..total {
            decode_config(s, q, &mut s_cfg);
            let pass: Vec<f64> = csp
                .constraints()
                .iter()
                .map(|c| constraint_pass_probability(c, q, &x_cfg, &s_cfg))
                .collect();
            let mut stack: Vec<(usize, f64, u32)> = vec![(0, proposal_prob, 0)];
            while let Some((ci, p, fail_mask)) = stack.pop() {
                if ci == m {
                    let mut y = 0usize;
                    let mut stride = 1usize;
                    for v in 0..n {
                        let rejected = csp.constraints().iter().enumerate().any(|(idx, c)| {
                            (fail_mask >> idx) & 1 == 1 && c.scope().contains(&(v as u32))
                        });
                        let spin = if rejected { x_cfg[v] } else { s_cfg[v] };
                        y += spin as usize * stride;
                        stride *= q;
                    }
                    *row.entry(y).or_insert(0.0) += p;
                    continue;
                }
                let pp = pass[ci];
                if pp > 0.0 {
                    stack.push((ci + 1, p * pp, fail_mask));
                }
                if pp < 1.0 {
                    stack.push((ci + 1, p * (1.0 - pp), fail_mask | (1 << ci)));
                }
            }
        }
    }
    let rows = maps
        .into_iter()
        .map(|mrow| {
            let mut row: Vec<(usize, f64)> = mrow.into_iter().filter(|&(_, p)| p > 0.0).collect();
            row.sort_by_key(|&(j, _)| j);
            let sum: f64 = row.iter().map(|&(_, p)| p).sum();
            for (_, p) in &mut row {
                *p /= sum;
            }
            row
        })
        .collect();
    Kernel::new(rows).expect("stochastic kernel")
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsl_graph::generators;
    use lsl_mrf::models;
    use std::sync::Arc;

    /// Mirror a proper-coloring MRF as an edge-constraint CSP.
    fn coloring_csp(g: lsl_graph::Graph, q: usize) -> Csp {
        let g = Arc::new(g);
        let constraints = g
            .edges()
            .map(|(_, u, v)| {
                Constraint::from_predicate(q, vec![u.0, v.0], |local| local[0] != local[1])
                    .expect("valid")
            })
            .collect();
        Csp::new(g, q, constraints)
    }

    #[test]
    fn binary_constraints_recover_algorithm_2() {
        // On an MRF expressed as binary constraints, the CSP chain's
        // kernel equals the MRF LocalMetropolis kernel entrywise — the
        // 2^2−1 mixtures are exactly the three factors of Algorithm 2.
        let g = generators::path(3);
        let q = 3;
        let csp = coloring_csp(g.clone(), q);
        let mrf = models::proper_coloring(g, q);
        let a = csp_local_metropolis_kernel(&csp);
        let b = crate::kernel::local_metropolis_kernel(&mrf, true);
        assert_eq!(a.num_states(), b.num_states());
        for i in 0..a.num_states() {
            for &(j, p) in a.row(i) {
                assert!((p - b.prob(i, j)).abs() < 1e-12, "P({i},{j})");
            }
        }
    }

    #[test]
    fn ternary_soft_constraint_reversible() {
        // A genuinely multivariate soft factor: the kernel must be
        // reversible w.r.t. the CSP's weighted distribution (Remark
        // after Thm 4.1, extended).
        let g = Arc::new(generators::path(3));
        let c = Constraint::new(
            2,
            vec![0, 1, 2],
            // weight 2 when the three spins are not all equal, else 1.
            vec![1.0, 2.0, 2.0, 2.0, 2.0, 2.0, 2.0, 1.0],
        )
        .unwrap();
        let csp = Csp::new(g, 2, vec![c]);
        let k = csp_local_metropolis_kernel(&csp);
        // Stationary candidate: normalized weights.
        let sols: Vec<f64> = (0..8)
            .map(|idx| {
                let mut cfg = vec![0 as Spin; 3];
                decode_config(idx, 2, &mut cfg);
                csp.weight(&cfg)
            })
            .collect();
        let z: f64 = sols.iter().sum();
        let pi: Vec<f64> = sols.iter().map(|w| w / z).collect();
        assert!(k.stationarity_residual(&pi) < 1e-12);
        assert!(k.detailed_balance_residual(&pi) < 1e-12);
    }

    #[test]
    fn mixed_arity_reversible() {
        // Unary + binary soft constraints together.
        let g = Arc::new(generators::path(2));
        let unary = Constraint::new(2, vec![0], vec![1.0, 3.0]).unwrap();
        let binary = Constraint::new(2, vec![0, 1], vec![2.0, 1.0, 1.0, 2.0]).unwrap();
        let csp = Csp::new(g, 2, vec![unary, binary]);
        let k = csp_local_metropolis_kernel(&csp);
        let sols: Vec<f64> = (0..4)
            .map(|idx| {
                let mut cfg = vec![0 as Spin; 2];
                decode_config(idx, 2, &mut cfg);
                csp.weight(&cfg)
            })
            .collect();
        let z: f64 = sols.iter().sum();
        let pi: Vec<f64> = sols.iter().map(|w| w / z).collect();
        assert!(k.stationarity_residual(&pi) < 1e-12);
        assert!(k.detailed_balance_residual(&pi) < 1e-12);
    }

    /// The facade's CSP LocalMetropolis sampler from `start`.
    fn sampler(csp: &Arc<Csp>, start: Vec<Spin>, seed: u64) -> crate::sampler::Sampler {
        crate::sampler::Sampler::for_csp(Arc::clone(csp))
            .algorithm(crate::sampler::Algorithm::LocalMetropolis)
            .start(start)
            .seed(seed)
            .build()
            .unwrap()
    }

    #[test]
    fn hard_constraints_preserve_feasibility() {
        let csp = Arc::new(Csp::maximal_independent_set(Arc::new(generators::cycle(5))));
        let sols = csp.enumerate();
        let mut chain = sampler(&csp, sols[0].0.clone(), 5);
        for _ in 0..200 {
            chain.step();
            assert!(csp.is_feasible(chain.state()));
        }
    }

    #[test]
    fn dominating_set_sampling_converges() {
        use lsl_analysis::EmpiricalDistribution;
        use lsl_mrf::gibbs::encode_config;
        let csp = Arc::new(Csp::dominating_set(Arc::new(generators::path(3))));
        let sols = csp.enumerate();
        let mut emp = EmpiricalDistribution::new();
        for rep in 0..20_000u64 {
            let mut chain = sampler(&csp, vec![1, 1, 1], 2_000 + rep);
            chain.run(80);
            emp.record(encode_config(chain.state(), 2));
        }
        for (sol, _) in &sols {
            let f = emp.frequency(encode_config(sol, 2));
            assert!((f - 0.2).abs() < 0.02, "sol {sol:?}: freq {f}");
        }
    }

    #[test]
    fn pass_probability_binary_matches_three_factors() {
        let q = 4;
        let c = Constraint::from_predicate(q, vec![0, 1], |l| l[0] != l[1]).unwrap();
        // current (0, 1), proposals (2, 3): all mixtures proper → pass.
        assert_eq!(constraint_pass_probability(&c, q, &[0, 1], &[2, 3]), 1.0);
        // proposals (1, 3): mixture (σ_u, X_v) = (1, 1) improper → fail.
        assert_eq!(constraint_pass_probability(&c, q, &[0, 1], &[1, 3]), 0.0);
        // proposals (2, 2): σσ mixture improper → fail.
        assert_eq!(constraint_pass_probability(&c, q, &[0, 1], &[2, 2]), 0.0);
    }
}
