//! Grand couplings and coalescence-time measurement.
//!
//! The paper's mixing upper bounds (Theorems 3.2 and 4.2) are proved by
//! coupling: if coupled copies of a chain started from any two states
//! coincide by time `T` with probability ≥ 1 − ε, then `τ(ε) ≤ T`. The
//! experimental counterpart is the *grand coupling*: run several copies
//! from different starts, feeding every copy the *same* randomness each
//! step, and record the round at which they all coincide.
//!
//! Engine rounds draw every random choice from counter-style streams
//! keyed by `(master, round, vertex-or-edge id)`, so copies sharing a
//! master seed share all randomness regardless of their states. For
//! LocalMetropolis this realizes the identity coupling of §4.2.2 (same
//! proposals and coins); for heat-bath chains it is the standard
//! inverse-CDF grand coupling.

use crate::engine::replicas::ReplicaSet;
use crate::engine::SyncRule;
use crate::sampler::Sampler;
use lsl_local::rng::{derive_seed, Xoshiro256pp};
use lsl_mrf::{Mrf, Spin};
use rand::RngExt;
use std::ops::ControlFlow;
use std::sync::Arc;

/// Label for the per-trial step keys of [`one_step_drift`].
const STEP_LABEL: u64 = 0x4350_4c53_5445_5000; // "CPLSTEP\0"

/// Result of a coalescence run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Coalescence {
    /// All copies coincided at this step (1-based count of executed steps).
    At(usize),
    /// Copies still disagreed after the step budget.
    TimedOut,
}

impl Coalescence {
    /// The coalescence step, if any.
    pub fn step(self) -> Option<usize> {
        match self {
            Coalescence::At(t) => Some(t),
            Coalescence::TimedOut => None,
        }
    }
}

/// Standard adversarial start set for an MRF: the deterministic default
/// start, the "reversed" start (largest feasible spin per vertex), and
/// `extra` random starts drawn from the vertex activities.
pub fn adversarial_starts(mrf: &Mrf, extra: usize, seed: u64) -> Vec<Vec<Spin>> {
    let mut starts = Vec::with_capacity(extra + 2);
    starts.push(crate::single_site::default_start(mrf));
    let high: Vec<Spin> = mrf
        .graph()
        .vertices()
        .map(|v| {
            let b = mrf.vertex_activity(v);
            (0..mrf.q() as Spin)
                .rev()
                .find(|&c| b.get(c) > 0.0)
                .expect("positive entry exists")
        })
        .collect();
    starts.push(high);
    let mut rng = Xoshiro256pp::seed_from(derive_seed(seed, 0x53_54_41_52_54, 0)); // "START"
    for _ in 0..extra {
        starts.push(crate::single_site::arbitrary_start(mrf, &mut rng));
    }
    starts.dedup();
    starts
}

/// Runs the grand coupling of an engine rule as a coupled
/// [`ReplicaSet`] — all copies share one master seed, and the batch
/// computes each round's shared randomness once — until all states
/// coincide or `max_steps` elapse.
pub fn coalesce_batched<R: SyncRule>(
    mrf: &Arc<Mrf>,
    rule: R,
    starts: &[Vec<Spin>],
    master_seed: u64,
    max_steps: usize,
) -> Coalescence {
    coalesce_batched_observed(mrf, rule, starts, master_seed, max_steps, &mut |_| {
        ControlFlow::Continue(())
    })
}

/// [`coalesce_batched`] calling `observe` with the 1-based round count
/// after every executed round — the per-round hook the progress
/// reporting plugs into. Observation never perturbs the coupling; an
/// `observe` that returns [`ControlFlow::Break`] preempts the loop
/// (cancellation), reported as [`Coalescence::TimedOut`] — callers
/// that preempt discard the value anyway.
pub fn coalesce_batched_observed<R: SyncRule>(
    mrf: &Arc<Mrf>,
    rule: R,
    starts: &[Vec<Spin>],
    master_seed: u64,
    max_steps: usize,
    observe: &mut dyn FnMut(u64) -> ControlFlow<()>,
) -> Coalescence {
    let mut set = ReplicaSet::coupled(Arc::clone(mrf), rule, starts, master_seed);
    // Copies shard over all cores; the coupling is execution-independent.
    set.set_backend(crate::engine::Backend::Parallel { threads: 0 });
    if set.coalesced() {
        return Coalescence::At(0);
    }
    for t in 0..max_steps {
        set.step_all();
        let stop = observe(t as u64 + 1).is_break();
        if set.coalesced() {
            return Coalescence::At(t + 1);
        }
        if stop {
            return Coalescence::TimedOut;
        }
    }
    Coalescence::TimedOut
}

/// Measures coalescence times over `trials` independent grand couplings
/// of an engine rule, each a coupled replica set; returns the observed
/// times (timed-out runs are omitted) and the number of timeouts.
pub fn coalescence_times_batched<R: SyncRule + Clone>(
    mrf: &Arc<Mrf>,
    rule: &R,
    starts: &[Vec<Spin>],
    trials: usize,
    max_steps: usize,
    seed: u64,
) -> (Vec<usize>, usize) {
    coalescence_times_batched_observed(mrf, rule, starts, trials, max_steps, seed, &mut |_, _| {
        ControlFlow::Continue(())
    })
}

/// [`coalescence_times_batched`] reporting progress through `progress`
/// with `(rounds done, trials × max_steps)` — ticked every few round
/// slices inside each (potentially multi-million-round) coupling, and
/// snapped to the trial boundary when a trial coalesces early. The
/// sink observes the loop; it never changes the coupling.
#[allow(clippy::too_many_arguments)]
pub fn coalescence_times_batched_observed<R: SyncRule + Clone>(
    mrf: &Arc<Mrf>,
    rule: &R,
    starts: &[Vec<Spin>],
    trials: usize,
    max_steps: usize,
    seed: u64,
    progress: crate::mixing::ProgressSink<'_>,
) -> (Vec<usize>, usize) {
    let mut times = Vec::with_capacity(trials);
    let mut timeouts = 0;
    let total = (trials as u64) * (max_steps as u64);
    // Tick roughly every 1/8th of a trial budget, but never rarer than
    // every 1<<16 rounds: a 2M-round coupling must report while it runs.
    let tick = (max_steps / 8).clamp(1, 1 << 16) as u64;
    for trial in 0..trials {
        let base = (trial as u64) * (max_steps as u64);
        let master = derive_seed(seed, 0x545249414c, trial as u64); // "TRIAL"
        let mut stopped = false;
        let mut observe = |t: u64| {
            if t % tick == 0 {
                let flow = progress(base + t, total);
                stopped |= flow.is_break();
                return flow;
            }
            ControlFlow::Continue(())
        };
        match coalesce_batched_observed(mrf, rule.clone(), starts, master, max_steps, &mut observe)
        {
            Coalescence::At(t) => times.push(t),
            Coalescence::TimedOut => timeouts += 1,
        }
        if stopped || progress(base + max_steps as u64, total.max(1)).is_break() {
            // Preempted (cancellation): the caller discards the partial
            // tally, so skip the remaining trials.
            return (times, timeouts);
        }
    }
    if trials == 0 || max_steps == 0 {
        let _ = progress(1, 1);
    }
    (times, timeouts)
}

/// One-step path-coupling contraction estimate for a chain on colorings:
/// starting from a feasible pair `(X, Y)` differing at one uniformly
/// random vertex, couples one step with shared randomness (both samplers
/// take the same [`Sampler::step_keyed`] key) and reports the average
/// change in Hamming distance. `make` builds a fresh sampler from a
/// start. Negative drift corroborates the path-coupling contractions of
/// Lemmas 4.4/4.5.
pub fn one_step_drift(
    mut make: impl FnMut(&[Spin]) -> Sampler,
    base: &[Spin],
    disagree_at: usize,
    alternative: Spin,
    trials: usize,
    seed: u64,
) -> f64 {
    let mut total = 0.0;
    let mut other = base.to_vec();
    other[disagree_at] = alternative;
    for trial in 0..trials {
        let mut a = make(base);
        let mut b = make(&other);
        let key = derive_seed(seed, STEP_LABEL, trial as u64);
        a.step_keyed(key);
        b.step_keyed(key);
        let after = hamming(a.state(), b.state());
        total += after as f64 - 1.0;
    }
    total / trials as f64
}

/// Hamming distance between two configurations.
pub fn hamming(a: &[Spin], b: &[Spin]) -> usize {
    a.iter().zip(b).filter(|(x, y)| x != y).count()
}

/// Draws a uniformly random *proper* coloring pair differing at exactly
/// one vertex, by rejection from Glauber-equilibrated states; used to
/// seed [`one_step_drift`]. Returns `(base, vertex, alternative_spin)`.
pub fn random_disagreeing_pair(
    mrf: &Mrf,
    burn_in: usize,
    seed: u64,
) -> Option<(Vec<Spin>, usize, Spin)> {
    let mut rng = Xoshiro256pp::seed_from(seed);
    let mut chain = crate::engine::SyncChain::new(mrf, crate::engine::rules::GlauberRule, seed);
    chain.run(burn_in);
    let base = chain.state().to_vec();
    let n = base.len();
    for _ in 0..200 {
        let v = rng.random_range(0..n);
        let c = rng.random_range(0..mrf.q() as Spin);
        if c == base[v] {
            continue;
        }
        let mut alt = base.clone();
        alt[v] = c;
        if mrf.is_feasible(&alt) {
            return Some((base, v, c));
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::rules::{GlauberRule, LocalMetropolisRule, LubyGlauberRule};
    use crate::sampler::Algorithm;
    use lsl_graph::generators;
    use lsl_mrf::models;

    #[test]
    fn coalescence_detects_equal_starts() {
        // A coupled facade batch from equal starts is coalesced before
        // its first round.
        let mrf = models::proper_coloring(generators::cycle(5), 6);
        let batch = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::Glauber)
            .replicas(2)
            .starts(vec![vec![0; 5]; 2])
            .coupled()
            .build()
            .unwrap();
        assert!(batch.coalesced());
    }

    #[test]
    fn glauber_grand_coupling_coalesces() {
        // Ample colors: the grand coupling coalesces quickly on a cycle.
        let mrf = Arc::new(models::proper_coloring(generators::cycle(6), 8));
        let starts = adversarial_starts(&mrf, 2, 7);
        let (times, timeouts) =
            coalescence_times_batched(&mrf, &GlauberRule, &starts, 5, 20_000, 11);
        assert_eq!(timeouts, 0, "couplings timed out");
        assert!(!times.is_empty());
    }

    #[test]
    fn local_metropolis_identity_coupling_coalesces_fast() {
        // The facade's coalescence job over the batched couplings.
        let mrf = models::proper_coloring(generators::torus(4, 4), 24);
        let report = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::LocalMetropolis)
            .seed(13)
            .coalescence(5, 5_000)
            .unwrap();
        assert_eq!(report.timeouts, 0);
        assert!(
            report.summary.max < 500.0,
            "coalescence too slow: {report:?}"
        );
    }

    #[test]
    fn luby_glauber_coalesces() {
        let mrf = models::proper_coloring(generators::cycle(8), 6);
        let report = Sampler::for_mrf(&mrf)
            .algorithm(Algorithm::LubyGlauber)
            .seed(17)
            .coalescence(5, 20_000)
            .unwrap();
        assert_eq!(report.timeouts, 0);
        assert!(report.summary.n > 0);
    }

    #[test]
    fn coupled_chains_share_randomness() {
        // Two copies from the SAME start, built under different seeds but
        // stepped with the same keys, must track each other exactly.
        let mrf = models::proper_coloring(generators::cycle(6), 5);
        let build = |seed| {
            Sampler::for_mrf(&mrf)
                .start(vec![0, 1, 0, 1, 0, 1])
                .seed(seed)
                .build()
                .unwrap()
        };
        let mut copies = [build(1), build(2)];
        for t in 0..50 {
            let key = derive_seed(5, STEP_LABEL, t);
            for c in copies.iter_mut() {
                c.step_keyed(key);
            }
            assert_eq!(copies[0].state(), copies[1].state(), "diverged at {t}");
        }
    }

    #[test]
    fn batched_grand_coupling_coalesces() {
        let mrf = Arc::new(models::proper_coloring(generators::torus(4, 4), 24));
        let starts = adversarial_starts(&mrf, 2, 3);
        let (times, timeouts) =
            coalescence_times_batched(&mrf, &LocalMetropolisRule::new(), &starts, 5, 5_000, 13);
        assert_eq!(timeouts, 0);
        let max = *times.iter().max().unwrap();
        assert!(max < 500, "coalescence too slow: {max}");
    }

    #[test]
    fn batched_coalesce_detects_equal_starts() {
        let mrf = Arc::new(models::proper_coloring(generators::cycle(5), 6));
        let starts = vec![vec![0; 5], vec![0; 5]];
        assert_eq!(
            coalesce_batched(&mrf, GlauberRule, &starts, 1, 10),
            Coalescence::At(0)
        );
    }

    #[test]
    fn batched_luby_glauber_coalesces() {
        let mrf = Arc::new(models::proper_coloring(generators::cycle(8), 6));
        let starts = adversarial_starts(&mrf, 1, 3);
        let (times, timeouts) =
            coalescence_times_batched(&mrf, &LubyGlauberRule::luby(), &starts, 5, 20_000, 17);
        assert_eq!(timeouts, 0);
        assert!(!times.is_empty());
    }

    #[test]
    fn hamming_basics() {
        assert_eq!(hamming(&[0, 1, 2], &[0, 1, 2]), 0);
        assert_eq!(hamming(&[0, 1, 2], &[1, 1, 0]), 2);
    }

    #[test]
    fn adversarial_starts_shape() {
        let mrf = models::proper_coloring(generators::path(4), 3);
        let starts = adversarial_starts(&mrf, 3, 0);
        assert!(starts.len() >= 2);
        assert_eq!(starts[0], vec![0, 0, 0, 0]);
        assert_eq!(starts[1], vec![2, 2, 2, 2]);
    }

    #[test]
    fn drift_is_negative_with_ample_colors() {
        // Path coupling contraction: for q well above 2+√2 Δ, the
        // one-step drift of LocalMetropolis from a disagreeing pair is
        // negative.
        let mrf = Arc::new(models::proper_coloring(generators::cycle(8), 12));
        let (base, v, c) = random_disagreeing_pair(&mrf, 400, 3).expect("pair exists");
        let drift = one_step_drift(
            |s| {
                Sampler::for_mrf(Arc::clone(&mrf))
                    .algorithm(Algorithm::LocalMetropolis)
                    .start(s.to_vec())
                    .build()
                    .unwrap()
            },
            &base,
            v,
            c,
            4000,
            21,
        );
        assert!(drift < 0.0, "drift = {drift}");
    }
}
