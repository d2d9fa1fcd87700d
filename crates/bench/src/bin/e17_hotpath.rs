//! E17 — hot-path engine: the scalar oracle against the lane-batched
//! kernels, per workload and backend.
//!
//! The engine's determinism contract (every draw of round `r` is a
//! pure function of `(master, r, vertex)`) permits a much faster
//! *implementation* of the same trajectory: pack states into `u8`
//! lanes, fill each round's randomness as one contiguous block of
//! stream heads instead of constructing a generator per vertex, and
//! sweep the round as strided passes over the range's vertices and
//! edges. This sweep measures `hotpath=scalar` against `hotpath=lanes`
//! on `sequential`, `parallel:2` and `sharded:2` for each workload:
//!
//! * 256×256 torus Ising at β = 0.4 under LocalMetropolis — the
//!   headline (q = 2, coins drawn, one product-table load per edge),
//!   targeting ≥ 3× the sequential scalar row's vertex-steps/sec;
//! * 256×256 torus proper coloring, q = 16 (vectorized proposal count,
//!   byte-table hard edge pass);
//! * 32×32 torus Ising over many short rounds — where a round's
//!   dispatch to the workers costs most against its work;
//! * 256×256 torus hardcore at λ = 1 under LubyGlauber — the
//!   edge-pass selection and gathered resolve heads.
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

/// Runs one workload as `hotpath=scalar` and `hotpath=lanes` rows on
/// each backend, the `sequential` scalar row first.
fn sweep(
    workload: &'static str,
    chain: &str,
    side: usize,
    rounds: usize,
    repeats: usize,
    rows: &mut Vec<Row>,
) {
    let base: JobSpec = format!("graph=torus:{side}x{side} {chain} seed=1 job=run:rounds={rounds}")
        .parse()
        .expect("a valid E17 base spec");
    let model = base.build_model();
    let n = side * side;

    let (first, mut scalar_rate, mut scalar_fp) = (rows.len(), f64::NAN, 0);
    let backends = [
        Backend::Sequential,
        Backend::Parallel { threads: 2 },
        Backend::Sharded { shards: 2 },
    ];
    for backend in backends {
        for hp in [HotPath::Scalar, HotPath::Lanes] {
            let mut spec = base.clone();
            spec.backend = Some(backend);
            spec.hotpath = Some(hp);
            let (secs, fp) = best_run(&spec, &model, repeats);
            let rate = rounds as f64 * n as f64 / secs;
            if rows.len() == first {
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
}

fn main() {
    let tiny = std::env::args().any(|a| a == "--tiny" || a == "tiny" || a == "quick")
        || std::env::var("LSL_BENCH_QUICK").is_ok_and(|v| v != "0");
    let (side, rounds, repeats) = if tiny { (48, 4, 1) } else { (256, 96, 4) };
    let small_rounds = if tiny { 40 } else { 4000 };

    header(&[
        "E17: hot-path engine: scalar oracle vs lane kernels, per workload and backend",
        "every row is bit-identical to the sequential scalar row (fingerprints asserted);",
        "headline: hotpath=lanes on the torus Ising local-metropolis workload",
        "(speedups vs the sequential scalar row), at 256x256 and at 32x32 (many short",
        "rounds); q=16 coloring and hardcore luby-glauber on the same three backends",
    ]);
    header_row("workload,backend,hotpath,n,rounds,secs,steps_vertices_per_sec,speedup_vs_scalar");

    let mut rows: Vec<Row> = Vec::new();
    let ising = "model=ising:beta=0.4 algorithm=local-metropolis";
    sweep("torus-ising", ising, side, rounds, repeats, &mut rows);
    sweep(
        "torus-coloring-q16",
        "model=coloring:q=16 algorithm=local-metropolis",
        side,
        rounds,
        repeats,
        &mut rows,
    );
    sweep("torus32-ising", ising, 32, small_rounds, repeats, &mut rows);
    sweep(
        "torus-hardcore-lg",
        "model=hardcore:lambda=1 algorithm=luby-glauber",
        side,
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
        "{{\n  \"bench\": \"hotpath\",\n  \"workload\": \"hotpath=scalar vs \
         hotpath=lanes on sequential, parallel:2 and sharded:2: LocalMetropolis torus Ising \
         beta=0.4 at 256x256 and 32x32, proper coloring q=16 at 256x256, LubyGlauber torus \
         hardcore lambda=1 at 256x256\",\n  \"meta\": {},\n  \"tiny\": {tiny},\n  \
         \"rows\": [\n{}\n  ]\n}}\n",
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
