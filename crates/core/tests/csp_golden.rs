//! Golden trajectories of the CSP chains: every CSP algorithm ×
//! scheduler, with and without burn-in, through the spec runner, plus
//! one externally keyed [`Sampler::step_keyed`] trajectory per
//! algorithm. The values were recorded before the CSP chains were folded
//! into one sampler type; any change to how a CSP round draws its
//! randomness shows up here.

use lsl_core::prelude::*;
use lsl_core::spec::{fingerprint, BuiltModel, JobOutput};

/// The spec lines the golden pins cover, in pin order.
fn golden_lines() -> Vec<String> {
    let models = [
        "graph=cycle:12 model=dominating-set",
        "graph=torus:4x4 model=mis",
        "graph=torus:4x4 model=dominating-set",
    ];
    let chains = [
        "algorithm=local-metropolis",
        "algorithm=luby-glauber scheduler=luby",
        "algorithm=luby-glauber scheduler=singleton",
        "algorithm=luby-glauber scheduler=bernoulli:0.3",
        "algorithm=luby-glauber scheduler=chromatic",
    ];
    let mut lines = Vec::new();
    for model in models {
        for chain in chains {
            for burn in ["", " burn-in=7"] {
                lines.push(format!("{model} {chain} seed=3{burn} job=run:rounds=40"));
            }
        }
    }
    lines
}

/// Fingerprint of the final state of each [`golden_lines`] run, in
/// `(no burn-in, burn-in=7)` pairs. The MIS rows all equal the greedy
/// start: single-site moves out of a maximal independent set pass
/// through non-maximal ones, and on this instance no simultaneous move
/// lands on another one, so both chains hold still — the pins check
/// that they do.
const GOLDEN: [u64; 30] = [
    0xb0c132b0a50d1685,
    0x9ed1914e9cc43615,
    0xd0fe0aef3ea72e14,
    0x7d5538244c8aaa84,
    0xdaaef182559f7f14,
    0x042cf442f3f38014,
    0x3ddf743301d1bd15,
    0x9d9bb4a97ef83014,
    0x4b811733c31f7384,
    0xe1d6ada8991c9864,
    0x90bf6ec7a23a43a5,
    0x90bf6ec7a23a43a5,
    0x90bf6ec7a23a43a5,
    0x90bf6ec7a23a43a5,
    0x90bf6ec7a23a43a5,
    0x90bf6ec7a23a43a5,
    0x90bf6ec7a23a43a5,
    0x90bf6ec7a23a43a5,
    0x90bf6ec7a23a43a5,
    0x90bf6ec7a23a43a5,
    0x655b64595af07655,
    0x1ffb246bcf1f78a5,
    0xd035c9bb0ce314c5,
    0x5ad5e6f74a308ea4,
    0x79e8bbbd236a0b35,
    0x8f8e371fce1a0f34,
    0x3f1805c4fde8e0a5,
    0x3f1805c4fde8e0a5,
    0x1cdc2b2560eddcf4,
    0x5cdd783ddb334984,
];

#[test]
fn csp_runs_match_golden_pins() {
    let lines = golden_lines();
    assert_eq!(lines.len(), GOLDEN.len());
    for (line, &want) in lines.iter().zip(&GOLDEN) {
        let result = line.parse::<JobSpec>().unwrap().run().unwrap();
        let JobOutput::Run {
            fingerprint: got,
            comm: None,
            ..
        } = result.output
        else {
            panic!("{line}: expected a run without comm stats, got {result:?}");
        };
        assert_eq!(got, want, "{line}");
    }
}

/// Steps a CSP sampler with keys drawn from one generator and
/// fingerprints the whole trajectory (every intermediate state).
fn keyed_trajectory(line: &str, algorithm: Algorithm, key_seed: u64) -> u64 {
    let spec = line.parse::<JobSpec>().unwrap();
    let BuiltModel::Csp { csp, start } = spec.build_model() else {
        panic!("{line}: not a CSP scenario");
    };
    let mut sampler = Sampler::for_csp(csp)
        .algorithm(algorithm)
        .start(start)
        .seed(11)
        .build()
        .unwrap();
    let mut keys = Xoshiro256pp::seed_from(key_seed);
    let mut trajectory = Vec::new();
    for _ in 0..30 {
        sampler.step_keyed(keys.next());
        trajectory.extend_from_slice(sampler.state());
    }
    fingerprint(&trajectory)
}

#[test]
fn csp_step_keyed_trajectories_match_golden_pins() {
    let lg = keyed_trajectory(
        "graph=cycle:12 model=dominating-set",
        Algorithm::LubyGlauber,
        21,
    );
    let lm = keyed_trajectory(
        "graph=torus:4x4 model=dominating-set",
        Algorithm::LocalMetropolis,
        22,
    );
    assert_eq!((lg, lm), (0x8de408280654bd04, 0x8dc88469ef396815));
}
