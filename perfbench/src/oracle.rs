//! The reference oracle: every answer the stack gives is compared with
//! the same build's in-process `JobSpec` run of the same member spec.
//!
//! Answers are compared through digests, so a pass can hold tens of
//! thousands of lines in little memory. Two fields are never used as
//! evidence: `feasible` is compared like any other output field but
//! never required to be true (the weight product it rests on underflows
//! at about a thousand vertices), and `elapsed_secs` takes no part (a
//! store hit replays the original run's value).

use lsl_core::codec::StateBlob;
use lsl_core::spec::{BuiltModel, JobOutput, JobResult, JobSpec, SpecError};
use std::collections::HashMap;
use std::ops::ControlFlow;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

fn mix(words: impl Iterator<Item = u64>) -> u64 {
    words.fold(0x243f_6a88_85a3_08d3u64, |h, w| {
        (h ^ w).wrapping_mul(0x9e37_79b9_7f4a_7c15).rotate_left(29)
    })
}

/// A cheap digest of one decoded configuration.
pub fn digest(spins: &[u32]) -> u64 {
    mix(spins.iter().map(|&s| u64::from(s)))
}

/// The `(round, digest)` sequence a stream of state deliveries decodes to.
pub fn decode_states(states: &[(u64, StateBlob)]) -> Vec<(u64, u64)> {
    states
        .iter()
        .map(|(round, blob)| (*round, digest(&blob.unpack())))
        .collect()
}

/// A digest of a blob's shape and packed bytes.
fn blob_digest(blob: &StateBlob) -> u64 {
    let shape = [blob.n() as u64, blob.q() as u64];
    mix(shape
        .into_iter()
        .chain(blob.bytes().iter().map(|&b| u64::from(b))))
}

/// A digest of one member's answer: its canonical spec, its output (a
/// sample's configurations by their packed bytes, every other output
/// by its exact `Debug` form, floats to the last bit) and the states it
/// streamed, in order. The wall-clock field takes no part.
pub fn member_digest(spec: &str, output: &JobOutput, streamed: &[(u64, u64)]) -> u64 {
    let out = match output {
        JobOutput::Sample { rounds, states } => {
            mix(std::iter::once(*rounds).chain(states.iter().map(blob_digest)))
        }
        other => mix(format!("{other:?}").bytes().map(u64::from)),
    };
    let spec = mix(spec.bytes().map(u64::from));
    mix([spec, out]
        .into_iter()
        .chain(streamed.iter().flat_map(|&(r, d)| [r, d])))
}

fn combine(digests: Vec<u64>) -> u64 {
    mix(std::iter::once(digests.len() as u64).chain(digests))
}

/// A digest of a line's answers: every member's digest, in order;
/// `None` when any member did not finish.
pub fn line_digest(
    members: &[Result<JobResult, SpecError>],
    streamed: &[Vec<(u64, u64)>],
) -> Option<u64> {
    let digests = members
        .iter()
        .enumerate()
        .map(|(i, m)| {
            let r = m.as_ref().ok()?;
            let s = streamed.get(i).map_or(&[][..], Vec::as_slice);
            Some(member_digest(&r.spec, &r.output, s))
        })
        .collect::<Option<Vec<u64>>>()?;
    Some(combine(digests))
}

/// The line digest the references call for: each member's own spec,
/// with the output and streamed states of its reference run.
pub fn expected_digest(
    answers: &Answers,
    specs: &[JobSpec],
    reference: &dyn Fn(&JobSpec) -> JobSpec,
) -> Option<u64> {
    let digests = specs
        .iter()
        .map(|spec| match answers.get(&reference(spec).to_string()) {
            Some(Ok((result, streamed))) => {
                Some(member_digest(&spec.to_string(), &result.output, streamed))
            }
            _ => None,
        })
        .collect::<Option<Vec<u64>>>()?;
    Some(combine(digests))
}

/// An in-process answer: the result and, for `stream` jobs, the decoded
/// state sequence `run_on_streamed` delivered.
pub type Answer = Result<(JobResult, Vec<(u64, u64)>), SpecError>;

/// In-process answers keyed by canonical spec.
pub type Answers = HashMap<String, Answer>;

/// Maps `f` over `items` on up to two threads, keeping order.
pub fn par_map<T: Sync, R: Send>(items: &[T], f: impl Fn(&T) -> R + Sync) -> Vec<R> {
    let next = AtomicUsize::new(0);
    let out: Mutex<Vec<Option<R>>> = Mutex::new((0..items.len()).map(|_| None).collect());
    let threads = crate::run::host_cpus().clamp(1, 2);
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else { break };
                let r = f(item);
                out.lock().expect("result slots lock")[i] = Some(r);
            });
        }
    });
    out.into_inner()
        .expect("result slots lock")
        .into_iter()
        .map(|r| r.expect("every item mapped"))
        .collect()
}

/// Runs one spec in-process, recording streamed states.
pub fn answer(spec: &JobSpec) -> Answer {
    let model: BuiltModel = spec.build_model();
    let mut states = Vec::new();
    let result = spec.run_on_streamed(
        &model,
        &mut |_, _| ControlFlow::Continue(()),
        &mut |round, blob| {
            states.push((round, digest(&blob.unpack())));
            ControlFlow::Continue(())
        },
    )?;
    Ok((result, states))
}

/// In-process answers for every distinct spec.
pub fn answers(specs: impl IntoIterator<Item = JobSpec>) -> Answers {
    let mut distinct: HashMap<String, JobSpec> = HashMap::new();
    for spec in specs {
        distinct.entry(spec.to_string()).or_insert(spec);
    }
    let distinct: Vec<(String, JobSpec)> = distinct.into_iter().collect();
    let computed = par_map(&distinct, |(_, spec)| answer(spec));
    distinct.into_iter().map(|(k, _)| k).zip(computed).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(spec: &str, fingerprint: u64, feasible: bool, elapsed: f64) -> JobResult {
        JobResult {
            spec: spec.to_string(),
            output: JobOutput::Run {
                rounds: 10,
                n: 16,
                feasible,
                fingerprint,
                comm: None,
            },
            elapsed_secs: elapsed,
        }
    }

    fn digest_of(r: &JobResult) -> Option<u64> {
        line_digest(&[Ok(r.clone())], &[])
    }

    #[test]
    fn the_comparison_ignores_only_elapsed_secs() {
        let spec = "graph=cycle:16 model=ising:beta=0.3";
        let a = digest_of(&result(spec, 7, false, 0.5));
        assert_eq!(a, digest_of(&result(spec, 7, false, 9.0)));
        assert_ne!(a, digest_of(&result(spec, 8, false, 0.5)));
        let other = "graph=cycle:17 model=ising:beta=0.3";
        assert_ne!(a, digest_of(&result(other, 7, false, 0.5)));
        assert_ne!(
            a,
            digest_of(&result(spec, 7, true, 0.5)),
            "feasible is compared"
        );
        assert_eq!(line_digest(&[Err(SpecError::Cancelled)], &[]), None);
    }

    #[test]
    fn delivered_answers_match_their_reference() {
        let line = "graph=torus:8x8 model=coloring:q=16 job=stream:rounds=4,every=1 seeds=2..4";
        let specs = line.parse::<lsl_core::spec::SweepSpec>().unwrap().expand();
        let sample: JobSpec =
            "graph=torus:8x8 model=coloring:q=16 seed=2 job=sample:rounds=3,count=4"
                .parse()
                .unwrap();
        let answers = answers(specs.iter().cloned().chain([sample.clone()]));
        let same = |s: &JobSpec| s.clone();
        let delivered = |spec: &JobSpec| answers[&spec.to_string()].clone().unwrap();
        let (members, streams): (Vec<_>, Vec<_>) = specs
            .iter()
            .map(|s| {
                let (r, st) = delivered(s);
                (Ok(r), st)
            })
            .unzip();
        assert_eq!(streams[0].len(), 4);
        let want = expected_digest(&answers, &specs, &same);
        assert_eq!(line_digest(&members, &streams), want);
        let mut swapped = streams.clone();
        swapped[1].swap(0, 1);
        assert_ne!(
            line_digest(&members, &swapped),
            want,
            "states are checked in order"
        );

        let (mut full, _) = delivered(&sample);
        let want = expected_digest(&answers, std::slice::from_ref(&sample), &same);
        assert_eq!(line_digest(&[Ok(full.clone())], &[]), want);
        if let JobOutput::Sample { states, .. } = &mut full.output {
            let b = &states[3];
            let mut bytes = b.bytes().to_vec();
            bytes[0] ^= 1;
            states[3] = StateBlob::from_parts(b.n(), b.q(), bytes).unwrap();
        }
        assert_ne!(
            line_digest(&[Ok(full)], &[]),
            want,
            "sample states are checked"
        );
    }
}
