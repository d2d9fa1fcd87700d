//! Spans recorded around the benchmark's calls into each layer.
//!
//! The library has no tracing hooks, so a layer is measured from
//! outside. A span is either *real* (an interval seen on the caller's
//! clock, such as a line's submit-to-outcome or a job's Started-to-
//! Finished events) or a *replay*: the same line's work re-run one
//! layer down after the traced pass, attached under the span whose
//! work it repeats. A span's self time is its duration minus what its
//! children cover: the union of its real children's intervals plus the
//! durations of its replay children. Spans without a layer are
//! envelopes (a job's run window); their self time is the part of a
//! line no layer explains.

use std::time::Instant;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Spec,
    Service,
    Store,
    Sampler,
    Engine,
    Codec,
    Net,
    Cluster,
}

pub const LAYERS: [Layer; 8] = [
    Layer::Spec,
    Layer::Service,
    Layer::Store,
    Layer::Sampler,
    Layer::Engine,
    Layer::Codec,
    Layer::Net,
    Layer::Cluster,
];

impl Layer {
    pub fn name(self) -> &'static str {
        match self {
            Layer::Spec => "spec",
            Layer::Service => "service",
            Layer::Store => "store",
            Layer::Sampler => "sampler",
            Layer::Engine => "engine",
            Layer::Codec => "codec",
            Layer::Net => "net",
            Layer::Cluster => "cluster",
        }
    }
}

#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub layer: Option<Layer>,
    pub parent: Option<usize>,
    pub line: usize,
    /// Seconds since the trace origin (meaningful for real spans).
    pub start: f64,
    pub dur: f64,
    pub replay: bool,
}

/// One caller thread's spans, kept in memory until the run ends.
pub struct Trace {
    origin: Instant,
    pub spans: Vec<Span>,
}

impl Trace {
    pub fn new(origin: Instant) -> Self {
        Trace {
            origin,
            spans: Vec::new(),
        }
    }

    fn push(&mut self, span: Span) -> usize {
        self.spans.push(span);
        self.spans.len() - 1
    }

    /// Records a real interval.
    pub fn real(
        &mut self,
        name: &'static str,
        layer: Option<Layer>,
        parent: Option<usize>,
        line: usize,
        (start, end): (Instant, Instant),
    ) -> usize {
        self.push(Span {
            name,
            layer,
            parent,
            line,
            start: start.saturating_duration_since(self.origin).as_secs_f64(),
            dur: end.saturating_duration_since(start).as_secs_f64(),
            replay: false,
        })
    }

    /// Records a replay of `dur` seconds.
    pub fn replayed(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: usize,
        line: usize,
        dur: f64,
    ) -> usize {
        let start = self.origin.elapsed().as_secs_f64();
        self.push(Span {
            name,
            layer: Some(layer),
            parent: Some(parent),
            line,
            start,
            dur,
            replay: true,
        })
    }

    /// Times `f` as a replay under `parent`.
    pub fn replay<T>(
        &mut self,
        name: &'static str,
        layer: Layer,
        parent: usize,
        line: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let t = Instant::now();
        let out = f();
        self.replayed(name, layer, parent, line, t.elapsed().as_secs_f64());
        out
    }

    /// Writes every span as one JSON object per line.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        for (id, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{{\"id\": {id}, \"name\": \"{}\", \"layer\": \"{}\", \"parent\": {}, \
                 \"line\": {}, \"start_s\": {}, \"dur_s\": {}, \"replay\": {}}}",
                s.name,
                s.layer.map_or("", Layer::name),
                s.parent.map_or("null".to_string(), |p| p.to_string()),
                s.line,
                s.start,
                s.dur,
                s.replay
            )?;
        }
        Ok(())
    }

    /// Durations of every span called `name`.
    pub fn durations<'a>(&'a self, name: &'a str) -> impl Iterator<Item = f64> + 'a {
        self.spans
            .iter()
            .filter(move |s| s.name == name)
            .map(|s| s.dur)
    }
}

/// Self time per layer over a set of traces.
#[derive(Debug, Default)]
pub struct Accounting {
    pub self_s: [f64; LAYERS.len()],
    /// Self time of envelope spans: what no layer explains.
    pub unexplained_s: f64,
}

impl Accounting {
    /// The traced wall: all self time. Equal to the summed line
    /// durations when each line runs on one thread; a line whose
    /// members run concurrently adds their busy time.
    pub fn wall_s(&self) -> f64 {
        self.self_s.iter().sum::<f64>() + self.unexplained_s
    }

    /// `1 − Σ layer self time ÷ traced wall`.
    pub fn unexplained_frac(&self) -> f64 {
        let wall = self.wall_s();
        if wall > 0.0 {
            1.0 - self.self_s.iter().sum::<f64>() / wall
        } else {
            0.0
        }
    }

    pub fn share(&self, layer: usize) -> f64 {
        let total: f64 = self.self_s.iter().sum();
        if total > 0.0 {
            self.self_s[layer] / total
        } else {
            0.0
        }
    }
}

/// Length of the union of intervals.
fn union_len(mut intervals: Vec<(f64, f64)>) -> f64 {
    intervals.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut total = 0.0;
    let mut current: Option<(f64, f64)> = None;
    for (s, e) in intervals {
        match current {
            Some((cs, ce)) if s <= ce => current = Some((cs, ce.max(e))),
            Some((cs, ce)) => {
                total += ce - cs;
                current = Some((s, e));
            }
            None => current = Some((s, e)),
        }
    }
    total + current.map_or(0.0, |(s, e)| e - s)
}

pub fn account<'a>(traces: impl IntoIterator<Item = &'a Trace>) -> Accounting {
    let mut acc = Accounting::default();
    for trace in traces {
        let n = trace.spans.len();
        let mut real: Vec<Vec<(f64, f64)>> = vec![Vec::new(); n];
        let mut replayed = vec![0.0; n];
        for span in &trace.spans {
            if let Some(p) = span.parent {
                if span.replay {
                    replayed[p] += span.dur;
                } else {
                    real[p].push((span.start, span.start + span.dur));
                }
            }
        }
        for (i, span) in trace.spans.iter().enumerate() {
            let covered = union_len(std::mem::take(&mut real[i])) + replayed[i];
            let own = span.dur - covered;
            match span.layer {
                Some(layer) => acc.self_s[layer as usize] += own,
                None => acc.unexplained_s += own,
            }
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn self_time_subtracts_covered_children() {
        let origin = Instant::now();
        let at = |ms: u64| origin + Duration::from_millis(ms);
        let mut t = Trace::new(origin);
        let line = t.real("net.line", Some(Layer::Net), None, 0, (at(0), at(100)));
        t.replayed("spec.parse", Layer::Spec, line, 0, 0.005);
        let svc = t.real(
            "service.line",
            Some(Layer::Service),
            Some(line),
            0,
            (at(10), at(90)),
        );
        // Two members running concurrently: union 10..70 = 60 ms.
        let a = t.real("job", None, Some(svc), 0, (at(10), at(60)));
        t.real("job", None, Some(svc), 0, (at(20), at(70)));
        t.replayed("engine.run", Layer::Engine, a, 0, 0.040);
        let acc = account([&t]);
        let close = |a: f64, b: f64| (a - b).abs() < 1e-9;
        assert!(close(
            acc.self_s[Layer::Net as usize],
            0.100 - 0.080 - 0.005
        ));
        assert!(close(acc.self_s[Layer::Service as usize], 0.080 - 0.060));
        assert!(close(acc.self_s[Layer::Spec as usize], 0.005));
        assert!(close(acc.self_s[Layer::Engine as usize], 0.040));
        assert!(close(acc.unexplained_s, 0.050 - 0.040 + 0.050));
        assert!(
            close(acc.wall_s(), 0.140),
            "concurrent members add busy time"
        );
        assert!(close(acc.unexplained_frac(), 0.060 / 0.140));
    }

    #[test]
    fn union_merges_overlaps() {
        assert_eq!(union_len(vec![(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]), 4.0);
        assert_eq!(union_len(Vec::new()), 0.0);
    }
}
