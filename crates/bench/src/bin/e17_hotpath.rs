//! E17 — hot-path engine: packed state slabs, block RNG, and
//! lane-batched kernels.
//!
//! The engine's determinism contract (every draw of round `r` is a
//! pure function of `(master, r, vertex)`) permits a much faster
//! *implementation* of the same trajectory: pack states into u8/bit
//! lanes, fill each round's randomness as one contiguous block of
//! stream heads instead of constructing a generator per vertex, and
//! sweep same-phase vertices in batches over the slab. This sweep
//! measures each layer against the scalar oracle on the step-engine
//! reference workloads:
//!
//! * 256×256 torus Ising at β = 0.4 under LocalMetropolis — the
//!   headline row (bit lanes, q = 2), targeting ≥ 3× the scalar
//!   baseline's vertex-steps/sec, plus the headline kernel on
//!   `parallel:2` and `sharded:2`: kernels run one range per worker or
//!   shard, so two workers should beat one;
//! * 256×256 torus proper coloring, q = 16 — the byte-lane regime
//!   (vectorized proposal count, byte-table hard edge pass), with the
//!   byte-lane block kernel also on `parallel:2` and `sharded:2`;
//! * 32×32 torus Ising, the headline kernel on `sequential`,
//!   `parallel:2` and `sharded:2` over many short rounds — where a
//!   round's dispatch to the workers costs most against its work;
//! * 256×256 torus hardcore at λ = 1 under LubyGlauber — the
//!   edge-pass selection and gathered resolve heads, on `sequential`,
//!   `parallel:2` and `sharded:2`.
//!
//! Every row is one [`JobSpec`] differing only in the `backend=` and
//! `hotpath=` keys, and every row's final-state fingerprint is asserted
//! equal to the `sequential` scalar row's — the sweep *witnesses*
//! bit-identity while it measures (the fuller property-test matrix
//! lives in `crates/core/tests/hotpath_identity.rs`).
//!
//! ```text
//! e17_hotpath [--tiny]
//! ```
//!
//! Results are printed as TSV and recorded to `BENCH_hotpath.json` at
//! the workspace root. `--tiny` (or `quick` / `LSL_BENCH_QUICK=1`)
//! shrinks the workload for smoke runs and skips the JSON write.

use lsl_bench::{header, header_row, row};
use lsl_core::engine::{Backend, HotPath};
use lsl_core::spec::{BuiltModel, JobOutput, JobSpec};

struct Row {
    workload: &'static str,
    backend: Backend,
    hotpath: String,
    n: usize,
    rounds: usize,
    secs: f64,
    steps_vertices_per_sec: f64,
    speedup_vs_scalar: f64,
    fingerprint: u64,
}

/// Runs `spec` on the prebuilt model `repeats` times; returns the best
/// wall clock and the (deterministic) final-state fingerprint.
fn best_run(spec: &JobSpec, model: &BuiltModel, repeats: usize) -> (f64, u64) {
    let mut best = f64::INFINITY;
    let mut fp = 0;
    for _ in 0..repeats {
        let result = spec.run_on(model).expect("a valid E17 spec");
        best = best.min(result.elapsed_secs);
        match result.output {
            JobOutput::Run { fingerprint, .. } => fp = fingerprint,
            other => panic!("expected a run output, got {other:?}"),
        }
    }
    (best, fp)
}

fn sweep(
    workload: &'static str,
    chain: &str,
    side: usize,
    variants: &[(Backend, HotPath)],
    rounds: usize,
    repeats: usize,
    rows: &mut Vec<Row>,
) {
    let base: JobSpec = format!("graph=torus:{side}x{side} {chain} seed=1 job=run:rounds={rounds}")
        .parse()
        .expect("a valid E17 base spec");
    let model = base.build_model();
    let n = side * side;

    let mut scalar_rate = f64::NAN;
    let mut scalar_fp = 0;
    for (i, &(backend, hp)) in std::iter::once(&(Backend::Sequential, HotPath::Scalar))
        .chain(variants)
        .enumerate()
    {
        let mut spec = base.clone();
        spec.backend = Some(backend);
        spec.hotpath = Some(hp);
        let (secs, fp) = best_run(&spec, &model, repeats);
        let rate = rounds as f64 * n as f64 / secs;
        if i == 0 {
            scalar_rate = rate;
            scalar_fp = fp;
        }
        assert_eq!(
            fp, scalar_fp,
            "{workload} backend={backend} hotpath={hp} diverged from the scalar oracle"
        );
        rows.push(Row {
            workload,
            backend,
            hotpath: hp.to_string(),
            n,
            rounds,
            secs,
            steps_vertices_per_sec: rate,
            speedup_vs_scalar: rate / scalar_rate,
            fingerprint: fp,
        });
    }
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny" || a == "tiny" || a == "quick")
        || std::env::var("LSL_BENCH_QUICK").is_ok_and(|v| v != "0");
    let (side, rounds, repeats) = if tiny { (48, 4, 1) } else { (256, 96, 4) };
    let small_rounds = if tiny { 40 } else { 4000 };

    // Sequential scalar first (implicit), then every lane variant the
    // model's q admits: the full packing × RNG matrix on Ising (q = 2
    // supports bit lanes) plus the headline kernel on two workers and
    // two shards, the wide/byte column on q = 16 coloring.
    let lanes = |s: &str| -> HotPath { s.parse().expect("a lane variant") };
    let mut ising: Vec<(Backend, HotPath)> = ["wide", "byte", "bit"]
        .iter()
        .flat_map(|p| {
            ["block", "pervertex"]
                .iter()
                .map(move |r| (Backend::Sequential, lanes(&format!("lanes:{p}:{r}"))))
        })
        .collect();
    ising.push((Backend::Parallel { threads: 2 }, lanes("lanes:bit:block")));
    ising.push((Backend::Sharded { shards: 2 }, lanes("lanes:bit:block")));
    let backends = [
        Backend::Sequential,
        Backend::Parallel { threads: 2 },
        Backend::Sharded { shards: 2 },
    ];
    let mut coloring: Vec<(Backend, HotPath)> = [
        "lanes:wide:block",
        "lanes:byte:block",
        "lanes:byte:pervertex",
    ]
    .iter()
    .map(|s| (Backend::Sequential, lanes(s)))
    .collect();
    coloring.extend(
        backends[1..]
            .iter()
            .map(|&b| (b, lanes("lanes:byte:block"))),
    );
    let small: Vec<(Backend, HotPath)> = backends
        .into_iter()
        .map(|b| (b, lanes("lanes:bit:block")))
        .collect();
    let luby: Vec<(Backend, HotPath)> = backends
        .into_iter()
        .map(|b| (b, lanes("lanes:auto:block")))
        .collect();

    header(&[
        "E17: hot-path engine: packed slabs + block RNG + lane kernels",
        "every row is bit-identical to the scalar oracle (fingerprints asserted);",
        "headline: lanes:bit:block on the torus Ising local-metropolis workload,",
        "on sequential, parallel:2 and sharded:2 (speedups vs the sequential scalar row),",
        "at 256x256 and at 32x32 (many short rounds); q=16 coloring byte lanes",
        "and hardcore luby-glauber on the same three backends",
    ]);
    header_row("workload,backend,hotpath,n,rounds,secs,steps_vertices_per_sec,speedup_vs_scalar");

    let mut rows: Vec<Row> = Vec::new();
    sweep(
        "torus-ising",
        "model=ising:beta=0.4 algorithm=local-metropolis",
        side,
        &ising,
        rounds,
        repeats,
        &mut rows,
    );
    sweep(
        "torus-coloring-q16",
        "model=coloring:q=16 algorithm=local-metropolis",
        side,
        &coloring,
        rounds,
        repeats,
        &mut rows,
    );
    sweep(
        "torus32-ising",
        "model=ising:beta=0.4 algorithm=local-metropolis",
        32,
        &small,
        small_rounds,
        repeats,
        &mut rows,
    );
    sweep(
        "torus-hardcore-lg",
        "model=hardcore:lambda=1 algorithm=luby-glauber",
        side,
        &luby,
        rounds,
        repeats,
        &mut rows,
    );

    for r in &rows {
        row(&[
            r.workload.into(),
            r.backend.to_string(),
            r.hotpath.clone(),
            r.n.to_string(),
            r.rounds.to_string(),
            format!("{:.4}", r.secs),
            format!("{:.3e}", r.steps_vertices_per_sec),
            format!("{:.2}", r.speedup_vs_scalar),
        ]);
    }

    // Record the datapoint (hand-rolled JSON: no serde in the tree).
    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                "    {{\"workload\": \"{}\", \"backend\": \"{}\", \"hotpath\": \"{}\", \
                 \"n\": {}, \"rounds\": {}, \"secs\": {:.6}, \"steps_vertices_per_sec\": {:.1}, \
                 \"speedup_vs_scalar\": {:.3}, \"fingerprint\": \"{:016x}\"}}",
                r.workload,
                r.backend,
                r.hotpath,
                r.n,
                r.rounds,
                r.secs,
                r.steps_vertices_per_sec,
                r.speedup_vs_scalar,
                r.fingerprint,
            )
        })
        .collect();
    let json = format!(
        "{{\n  \"bench\": \"hotpath\",\n  \"workload\": \"LocalMetropolis torus Ising \
         beta=0.4 + proper coloring q=16, hotpath sweep (scalar oracle vs packed lane \
         kernels x block RNG; Ising headline kernel also on parallel:2 and sharded:2, \
         at 256x256 and 32x32, q=16 byte lanes also on parallel:2 and sharded:2) + LubyGlauber torus hardcore lambda=1 on the same three \
         backends\",\n  \"meta\": {},\n  \"tiny\": {tiny},\n  \"rows\": \
         [\n{}\n  ]\n}}\n",
        lsl_bench::meta_json(),
        json_rows.join(",\n")
    );
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_hotpath.json");
    if tiny {
        // Smoke runs must not clobber the recorded full-workload datapoint.
        println!("# tiny run: not recording {path}");
    } else if let Err(e) = std::fs::write(path, json) {
        eprintln!("could not record {path}: {e}");
    } else {
        println!("# recorded {path}");
    }
}
