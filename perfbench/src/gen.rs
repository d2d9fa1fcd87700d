//! Workload line generators. Every line is a pure function of the
//! workload seed and the line's position, so a run can be replayed
//! exactly (the traced run replays the untraced run's lines) and the
//! program under test receives nothing but the generated text.

/// SplitMix64: a tiny counter-style generator, independent of the
/// library's own RNG so that changing the library never changes the
/// inputs.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`; the modulo bias is irrelevant here).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    pub fn pick<'a, T>(&mut self, items: &'a [T]) -> &'a T {
        &items[self.below(items.len() as u64) as usize]
    }
}

/// Derives an independent stream seed from a seed and a path of keys.
pub fn derive(seed: u64, keys: &[u64]) -> u64 {
    keys.iter().fold(seed ^ 0x6c73_6c62_656e_6368, |acc, &k| {
        Rng::new(acc ^ k.wrapping_mul(0x2545_f491_4f6c_dd1d)).next_u64()
    })
}

/// A chain seed small enough to read in a spec line.
fn chain_seed(seed: u64, keys: &[u64]) -> u64 {
    derive(seed, keys) % 1_000_000
}

// ---------------------------------------------------------------------
// chain-large
// ---------------------------------------------------------------------

/// The five chain-large specs: a label and the spec without its seed.
pub const CHAIN_SPECS: [(&str, &str); 5] = [
    (
        "ising-seq",
        "graph=torus:256x256 model=ising:beta=0.4 algorithm=local-metropolis backend=sequential",
    ),
    (
        "ising-par2",
        "graph=torus:256x256 model=ising:beta=0.4 algorithm=local-metropolis backend=parallel:2",
    ),
    (
        "ising-sh2",
        "graph=torus:256x256 model=ising:beta=0.4 algorithm=local-metropolis backend=sharded:2",
    ),
    (
        "coloring16-seq",
        "graph=torus:256x256 model=coloring:q=16 algorithm=local-metropolis backend=sequential",
    ),
    (
        "hardcore-lg-seq",
        "graph=torus:256x256 model=hardcore:lambda=1 algorithm=luby-glauber backend=sequential",
    ),
];

pub const CHAIN_ROUNDS: usize = 200;

/// Chain seeds per spec. Lines reuse a small pool so the reference
/// check after the timed phase costs a few seconds, not a second run.
const CHAIN_SEED_POOL: u64 = 3;

/// Lines after which chain-large has sent every spec once.
pub const CHAIN_CYCLE: usize = CHAIN_SPECS.len();

/// Line `i` of chain-large: the specs in a fixed cycle, so every run
/// spends the same share of lines on each backend.
pub fn chain_large_line(seed: u64, i: usize) -> (usize, String) {
    let k = i % CHAIN_SPECS.len();
    let pool = (i / CHAIN_SPECS.len()) as u64 % CHAIN_SEED_POOL;
    let s = chain_seed(seed, &[1, k as u64, pool]);
    let line = format!(
        "{} seed={s} job=run:rounds={CHAIN_ROUNDS}",
        CHAIN_SPECS[k].1
    );
    (k, line)
}

// ---------------------------------------------------------------------
// serve-mix
// ---------------------------------------------------------------------

/// The kinds of serve-mix line. One block of [`MIX_BLOCK`] lines holds
/// each kind in a fixed count, shuffled per block, so any prefix of a
/// run has nearly the stated proportions whatever the seed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum MixKind {
    RunTorus,
    RunGnp,
    RunRegular,
    RunPotts,
    DominatingSet,
    Mis,
    Sample,
    Tv,
    Distribution,
    Coalescence,
    Sweep,
    Repeat,
}

pub const MIX_BLOCK: [MixKind; 16] = [
    MixKind::RunTorus,
    MixKind::RunTorus,
    MixKind::RunGnp,
    MixKind::RunRegular,
    MixKind::RunPotts,
    MixKind::DominatingSet,
    MixKind::Mis,
    MixKind::Sample,
    MixKind::Tv,
    MixKind::Distribution,
    MixKind::Coalescence,
    MixKind::Sweep,
    MixKind::Repeat,
    MixKind::Repeat,
    MixKind::Repeat,
    MixKind::Repeat,
];

/// How far back a repeat may reach: far enough to land on lines the
/// same session already finished, near enough to stay in the store's
/// working set of one run.
const REPEAT_WINDOW: usize = 16;

/// The kind of line `j` of a session's serve-mix stream.
pub fn mix_kind(seed: u64, session: usize, j: usize) -> MixKind {
    let block = j / MIX_BLOCK.len();
    let mut order = MIX_BLOCK;
    let mut rng = Rng::new(derive(seed, &[2, session as u64, block as u64]));
    for i in (1..order.len()).rev() {
        order.swap(i, rng.below(i as u64 + 1) as usize);
    }
    order[j % MIX_BLOCK.len()]
}

/// Line `j` of session `session`'s serve-mix stream. A `Repeat` copies
/// an earlier line of the same session verbatim (following repeats of
/// repeats back to a fresh line).
pub fn serve_mix_line(seed: u64, session: usize, j: usize) -> String {
    let mut rng = Rng::new(derive(seed, &[3, session as u64, j as u64]));
    let s = rng.below(1_000_000);
    match mix_kind(seed, session, j) {
        MixKind::Repeat if j > 0 => {
            let back = 1 + rng.below(REPEAT_WINDOW.min(j) as u64) as usize;
            serve_mix_line(seed, session, j - back)
        }
        // Line 0 has nothing to repeat; it runs a torus line instead.
        MixKind::Repeat | MixKind::RunTorus => {
            let model = rng.pick(&["ising:beta=0.3", "coloring:q=12", "hardcore:lambda=0.8"]);
            format!("graph=torus:32x32 model={model} seed={s} job=run:rounds=40")
        }
        MixKind::RunGnp => {
            format!("graph=gnp:n=512,p=0.01 model=coloring:q=12 seed={s} job=run:rounds=40")
        }
        MixKind::RunRegular => {
            format!(
                "graph=random-regular:n=512,d=4 model=ising:beta=0.3 seed={s} job=run:rounds=40"
            )
        }
        MixKind::RunPotts => {
            format!("graph=torus:24x24 model=potts:q=4,beta=0.5 seed={s} job=run:rounds=40")
        }
        MixKind::DominatingSet => {
            format!("graph=cycle:256 model=dominating-set seed={s} job=run:rounds=40")
        }
        MixKind::Mis => format!("graph=torus:16x16 model=mis seed={s} job=run:rounds=40"),
        MixKind::Sample => {
            format!("graph=torus:16x16 model=coloring:q=16 seed={s} job=sample:rounds=20,count=8")
        }
        MixKind::Tv => {
            format!("graph=torus:3x3 model=ising:beta=0.3 seed={s} job=tv:rounds=20,replicas=200")
        }
        MixKind::Distribution => format!(
            "graph=torus:4x4 model=coloring:q=5 seed={s} job=distribution:rounds=20,replicas=200"
        ),
        MixKind::Coalescence => format!(
            "graph=torus:8x8 model=coloring:q=16 seed={s} job=coalescence:trials=4,max-rounds=64"
        ),
        MixKind::Sweep => {
            let a = rng.below(1_000_000);
            format!(
                "graph=torus:16x16 model=ising:beta=0.3 job=run:rounds=40 seeds={a}..{}",
                a + 8
            )
        }
    }
}

// ---------------------------------------------------------------------
// state-stream
// ---------------------------------------------------------------------

pub const STREAM_SIDE: usize = 32;
pub const STREAM_ROUNDS: usize = 64;
pub const SAMPLE_SIDE: usize = 64;
pub const SAMPLE_COUNT: usize = 16;
pub const SAMPLE_ROUNDS: usize = 1;

/// Distinct state-stream lines per run. Both sessions walk the same
/// list, so every line is delivered once per codec and the reference
/// is computed once per line.
pub const STREAM_LINES: usize = 8;

/// Lines after which state-stream has sent each job kind on each model.
pub const STREAM_CYCLE: usize = 4;

/// Line `i` (taken modulo [`STREAM_LINES`]) of state-stream: streams
/// and multi-sample jobs on q=16 coloring (byte-packed states) and
/// Ising (bit-packed states), in a fixed cycle.
pub fn state_stream_line(seed: u64, i: usize) -> String {
    let i = i % STREAM_LINES;
    let s = chain_seed(seed, &[4, i as u64]);
    let model = if i.is_multiple_of(2) {
        "coloring:q=16"
    } else {
        "ising:beta=0.4"
    };
    let (side, job) = if (i / 2).is_multiple_of(2) {
        (
            STREAM_SIDE,
            format!("stream:rounds={STREAM_ROUNDS},every=1"),
        )
    } else {
        (
            SAMPLE_SIDE,
            format!("sample:rounds={SAMPLE_ROUNDS},count={SAMPLE_COUNT}"),
        )
    };
    format!("graph=torus:{side}x{side} model={model} seed={s} job={job}")
}

// ---------------------------------------------------------------------
// cluster-shard
// ---------------------------------------------------------------------

pub const CLUSTER_SIDE: usize = 128;
pub const CLUSTER_ROUNDS: usize = 60;
pub const CLUSTER_SWEEP: u64 = 16;

/// Lines after which cluster-shard has sent every kind of line once.
pub const CLUSTER_CYCLE: usize = 3;

/// Line `i` of cluster-shard: two `cluster:2` run lines (Ising and q=16
/// coloring on a 128² torus) and one plain-tier sweep of small members,
/// in a fixed cycle, over a pool of two seeds per line kind.
pub fn cluster_shard_line(seed: u64, i: usize) -> String {
    let k = i % 3;
    let pool = (i / 3) as u64 % 2;
    let s = chain_seed(seed, &[5, k as u64, pool]);
    let side = CLUSTER_SIDE;
    match k {
        0 => format!(
            "graph=torus:{side}x{side} model=ising:beta=0.4 backend=cluster:2 seed={s} \
             job=run:rounds={CLUSTER_ROUNDS}"
        ),
        1 => format!(
            "graph=torus:{side}x{side} model=coloring:q=16 backend=cluster:2 seed={s} \
             job=run:rounds={CLUSTER_ROUNDS}"
        ),
        _ => format!(
            "graph=torus:16x16 model=potts:q=3,beta=0.5 job=run:rounds=40 seeds={s}..{}",
            s + CLUSTER_SWEEP
        ),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lsl_core::spec::SweepSpec;
    use std::collections::BTreeMap;

    fn mix_counts(seed: u64, blocks: std::ops::Range<usize>) -> BTreeMap<MixKind, usize> {
        let mut counts = BTreeMap::new();
        for j in blocks.start * MIX_BLOCK.len()..blocks.end * MIX_BLOCK.len() {
            *counts.entry(mix_kind(seed, 0, j)).or_insert(0) += 1;
        }
        counts
    }

    #[test]
    fn lines_are_a_pure_function_of_the_seed() {
        for seed in [0, 7, 1 << 40] {
            for j in 0..200 {
                assert_eq!(serve_mix_line(seed, 1, j), serve_mix_line(seed, 1, j));
                assert_eq!(chain_large_line(seed, j), chain_large_line(seed, j));
                assert_eq!(state_stream_line(seed, j), state_stream_line(seed, j));
                assert_eq!(cluster_shard_line(seed, j), cluster_shard_line(seed, j));
            }
        }
    }

    #[test]
    fn a_new_seed_gives_new_lines_in_the_same_proportions() {
        let a: Vec<String> = (0..160).map(|j| serve_mix_line(1, 0, j)).collect();
        let b: Vec<String> = (0..160).map(|j| serve_mix_line(2, 0, j)).collect();
        assert_ne!(a, b);
        assert_eq!(mix_counts(1, 1..11), mix_counts(2, 1..11));
        let repeats = mix_counts(1, 0..10)[&MixKind::Repeat];
        assert_eq!(repeats * 4, 10 * MIX_BLOCK.len(), "a quarter repeats");
        assert_ne!(chain_large_line(1, 0), chain_large_line(2, 0));
        assert_ne!(state_stream_line(1, 0), state_stream_line(2, 0));
        assert_ne!(cluster_shard_line(1, 2), cluster_shard_line(2, 2));
    }

    #[test]
    fn repeats_copy_an_earlier_line_of_the_same_session() {
        for j in 1..400 {
            if mix_kind(9, 0, j) == MixKind::Repeat {
                let line = serve_mix_line(9, 0, j);
                assert!((0..j).any(|i| serve_mix_line(9, 0, i) == line));
            }
        }
    }

    #[test]
    fn every_generated_line_parses() {
        for j in 0..64 {
            for line in [
                serve_mix_line(3, 0, j),
                chain_large_line(3, j).1,
                state_stream_line(3, j),
                cluster_shard_line(3, j),
            ] {
                line.parse::<SweepSpec>().expect(&line);
            }
        }
    }
}
