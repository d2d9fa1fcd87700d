//! One benchmark for the lsl sampling stack.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <chain-large|serve-mix|state-stream|cluster-shard> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. Generates the workload's lines from
//! the seed, drives the stack through its public API for the given
//! number of seconds, checks every answer against the in-process
//! reference, and prints, as the last line of standard output, one
//! JSON object: `correct`, `attempted`, `failed` and `metrics` — the
//! end-to-end metrics with `--trace 0`, the per-layer metrics with
//! `--trace 1`. The line before it records provenance.

mod chain_large;
mod cluster_shard;
mod gen;
mod netpath;
mod oracle;
mod run;
mod serve_mix;
mod state_stream;
mod stats;
mod trace;

use run::{Config, Metrics, Outcome, END_TO_END, PER_LAYER};
use std::path::{Path, PathBuf};

const WORKLOADS: [&str; 4] = ["chain-large", "serve-mix", "state-stream", "cluster-shard"];

/// CPUs of the host the bounds in BENCHMARK.json were set on. Figures
/// from a host with another count are marked not comparable.
const REFERENCE_CPUS: usize = 2;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                seconds = Some(
                    value
                        .parse::<f64>()
                        .map_err(|e| format!("--seconds: {e}"))?,
                )
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload {workload:?} (expected {WORKLOADS:?})"
        ));
    }
    let seconds = seconds.unwrap_or(10.0);
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    Ok(Args {
        workload,
        seed: seed.unwrap_or(0),
        seconds,
        trace: trace.unwrap_or(false),
    })
}

/// FNV-1a over every file under `crates/` plus the root manifests: the
/// source revision, for checkouts that are not git repositories.
fn source_digest() -> String {
    fn walk(dir: &Path, files: &mut Vec<PathBuf>) {
        let Ok(entries) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in entries.flatten() {
            let path = entry.path();
            if path.is_dir() {
                walk(&path, files);
            } else {
                files.push(path);
            }
        }
    }
    let mut files = vec![PathBuf::from("Cargo.toml"), PathBuf::from("Cargo.lock")];
    walk(Path::new("crates"), &mut files);
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let Ok(bytes) = std::fs::read(&path) else {
            continue;
        };
        for &b in path.to_string_lossy().as_bytes().iter().chain(&bytes) {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    format!("{h:016x}")
}

fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// The end-to-end metrics, and how each latency percentile was taken.
fn end_to_end(out: &Outcome) -> (Metrics, Vec<String>) {
    let t = &out.tally;
    let mut m = Metrics::new();
    m.insert("setup_s".into(), stats::median_of(&out.setup_s));
    m.insert("jobs_per_s".into(), t.jobs_per_s);
    m.insert("vertex_steps_per_s".into(), t.vertex_steps_per_s);
    m.insert("peak_rss_mb".into(), out.peak_rss_mb);
    let mut sorted = t.latencies.clone();
    sorted.sort_by(f64::total_cmp);
    let mut basis = Vec::new();
    for (name, p) in [
        ("latency_p50_s", 0.5),
        ("latency_p90_s", 0.9),
        ("latency_p99_s", 0.99),
    ] {
        let (taken, value) = stats::percentile_or_highest(&sorted, p);
        m.insert(name.into(), value);
        basis.push(format!(
            "\"{name}\": {{\"percentile\": {}, \"samples\": {}}}",
            json_number(taken * 100.0),
            sorted.len()
        ));
    }
    (m, basis)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    if !Path::new("crates").is_dir() {
        eprintln!("perfbench: run from the repository root (no crates/ here)");
        std::process::exit(2);
    }
    let scratch =
        PathBuf::from(".perfbench-run").join(format!("{}-{}", args.workload, std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&scratch) {
        eprintln!("perfbench: cannot create {}: {e}", scratch.display());
        std::process::exit(2);
    }
    let cfg = Config {
        seed: args.seed,
        seconds: args.seconds,
        trace: args.trace,
        scratch: scratch.clone(),
        spans_out: PathBuf::from(".perfbench-trace")
            .join(format!("{}-seed{}.jsonl", args.workload, args.seed)),
    };
    let out = match args.workload.as_str() {
        "chain-large" => chain_large::run(&cfg),
        "serve-mix" => serve_mix::run(&cfg),
        "state-stream" => state_stream::run(&cfg),
        _ => cluster_shard::run(&cfg),
    };
    let _ = std::fs::remove_dir_all(&scratch);
    let _ = std::fs::remove_dir(".perfbench-run");

    let (e2e, basis) = end_to_end(&out);
    let mut reported = Vec::new();
    if args.trace {
        let mut layer = out.layer.clone();
        layer.insert("states_per_s".into(), out.tally.states_per_s);
        layer.insert(
            "failed_frac".into(),
            out.failed as f64 / out.attempted.max(1) as f64,
        );
        for (name, unit) in PER_LAYER {
            reported.push((*name, *unit, layer.get(*name).copied().unwrap_or(0.0)));
        }
    } else {
        for (name, unit) in END_TO_END {
            reported.push((name, unit, e2e[name]));
        }
    }

    let cpus = run::host_cpus();
    let props: Vec<String> = out
        .props
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    println!(
        "{{\"provenance\": {{\"meta\": {}, \"source_digest\": \"{}\", \"workload\": \"{}\", \
         \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"reference_cpus\": {REFERENCE_CPUS}, \
         \"comparable\": {}, \"latency\": {{{}}}, \"properties\": {{{}}}}}}}",
        lsl_bench::meta_json(),
        source_digest(),
        args.workload,
        args.seed,
        json_number(args.seconds),
        args.trace,
        cpus == REFERENCE_CPUS,
        basis.join(", "),
        props.join(", "),
    );
    let metrics: Vec<String> = reported
        .iter()
        .map(|(name, unit, v)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*v)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        out.failed == 0 && out.attempted > 0,
        out.attempted.max(1),
        out.failed,
        metrics.join(", ")
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    /// BENCHMARK.json at the repository root names exactly the metrics
    /// and workloads this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let named = |name: &str| json.contains(&format!("\"name\": \"{name}\""));
        for (name, _) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(named(name), "BENCHMARK.json lacks {name}");
        }
        for w in WORKLOADS {
            assert!(named(w), "BENCHMARK.json lacks workload {w}");
        }
        let count = json.matches("\"name\": \"").count();
        assert_eq!(count, END_TO_END.len() + PER_LAYER.len() + WORKLOADS.len());
    }
}
