//! The frame alphabet and the token grammar of the text codec.
//!
//! A session speaks two frame alphabets, defined here:
//!
//! * [`ClientFrame`] — client → server:
//!   `submit id=<id> spec=<spec-or-sweep line>`, `cancel id=<id>`
//!   (stop every member of a submitted id), `shutdown` (ask the
//!   server to drain and exit), `hello codec=<text|binary>` (switch
//!   the session codec), `ping nonce=<n>` (liveness probe), and the
//!   cluster frames `shard-init id=<id> shard=<s> of=<k> spec=<spec
//!   line>` / `shard-sync id=<id> round=<r> blob=<n/q/base64url>`
//!   (open a distributed shard session; deliver one round's halo
//!   states);
//! * [`ServerFrame`] — server → client:
//!   `submitted id=<id> jobs=<n>` (the submit ack, carrying the sweep
//!   expansion size), `event id=<id> index=<k> <event>` (one member
//!   job's [`JobEvent`]), `error id=<id|-> message=<..>` (a typed
//!   protocol error; the session stays alive), `hello codec=<..>`,
//!   `pong nonce=<n>`, and the cluster answers `shard-sync id=<id>
//!   round=<r> blob=<..>` / `shard-done id=<id> rounds=<r> blob=<..>`
//!   (one round's boundary states; the shard's final owned states).
//!
//! Events print as `accepted`, `rejected <reason>`, `started`,
//! `progress round=<r> of=<n>`, `finished <result>`, `failed <error>`,
//! `cancelled`, `state round=<r> blob=<..>`; a result as
//! `elapsed=<secs> output=<kind>:<field>,… spec=<canonical spec line>`.
//!
//! Both wire codecs of these frames — `Display`/`FromStr` text and the
//! tagged binary records — are generated from the one frame table in
//! [`codec`](crate::codec); this module holds what the table's fields
//! are made of. `parse ∘ print` is the identity (property-tested in
//! `tests/proto_roundtrip.rs`). Floats are printed with Rust's
//! shortest-round-trip `Display`, so results survive the wire
//! bit-identically; strings inside errors are percent-escaped into
//! single tokens ([`escape`]/[`unescape`]); typed errors cross as one
//! token of their own grammar ([`encode_spec_error`],
//! [`encode_reject_reason`]), in both codecs.
//!
//! ## Event ordering over the wire
//!
//! Frames of *different* jobs interleave arbitrarily (they race on the
//! session writer), but frames of one `(id, index)` job preserve the
//! service's stream order: `accepted`, `started`, monotone `progress`,
//! then exactly one terminal `finished`/`failed`/`cancelled` — or a
//! lone terminal `rejected <reason>` when admission refused the member
//! ([`RejectReason`]). The `submitted` ack always precedes every event
//! of its `id`.

use crate::lifecycle::RejectReason;
use crate::sampler::{Algorithm, BuildError};
use crate::service::JobEvent;
use crate::spec::SpecError;
use std::fmt;

/// Why a frame failed to parse. The receiving end answers with an
/// `error` frame and keeps the session — a malformed line must never
/// tear down a connection carrying other in-flight jobs.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    /// What was wrong with the frame.
    pub message: String,
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed frame: {}", self.message)
    }
}

impl std::error::Error for WireError {}

pub(crate) fn wire_err(message: impl Into<String>) -> WireError {
    WireError {
        message: message.into(),
    }
}

// ---------------------------------------------------------------------
// Token escaping
// ---------------------------------------------------------------------

/// Percent-escapes `s` into a single ASCII frame token: `%`,
/// separators (whitespace, `,`, `=`, `:`), control bytes, and every
/// non-ASCII byte become `%XX`, so the result splits cleanly on any
/// separator and survives any transport. [`unescape`] inverts exactly
/// (escaped bytes are UTF-8, reassembled on decode).
#[must_use]
pub fn escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for byte in s.bytes() {
        match byte {
            b'%' | b',' | b'=' | b':' => out.push_str(&format!("%{byte:02X}")),
            // Pushing a non-ASCII byte as a `char` would Latin-1-widen
            // it (mojibake after decode); escape everything outside
            // printable ASCII instead.
            b if b.is_ascii_whitespace() || b.is_ascii_control() || !b.is_ascii() => {
                out.push_str(&format!("%{b:02X}"));
            }
            b => out.push(b as char),
        }
    }
    out
}

/// Inverts [`escape`].
///
/// # Errors
/// A [`WireError`] on a truncated or non-hex `%XX` sequence.
pub fn unescape(s: &str) -> Result<String, WireError> {
    let bytes = s.as_bytes();
    let mut out = Vec::with_capacity(bytes.len());
    let mut i = 0;
    while i < bytes.len() {
        if bytes[i] == b'%' {
            let hex = bytes
                .get(i + 1..i + 3)
                .ok_or_else(|| wire_err(format!("truncated escape in {s:?}")))?;
            // Exactly two hex digits: `from_str_radix` alone would also
            // take a sign (`%+A`), a second spelling of `%0A`.
            let byte = std::str::from_utf8(hex)
                .ok()
                .filter(|h| h.bytes().all(|b| b.is_ascii_hexdigit()))
                .and_then(|h| u8::from_str_radix(h, 16).ok())
                .ok_or_else(|| wire_err(format!("bad escape in {s:?}")))?;
            out.push(byte);
            i += 3;
        } else {
            out.push(bytes[i]);
            i += 1;
        }
    }
    String::from_utf8(out).map_err(|_| wire_err("escape decodes to invalid utf-8"))
}

/// Splits `key=value` with the exact expected key.
pub(crate) fn field<'a>(token: &'a str, key: &str) -> Result<&'a str, WireError> {
    token
        .strip_prefix(key)
        .and_then(|r| r.strip_prefix('='))
        .ok_or_else(|| wire_err(format!("expected {key}=.., got {token:?}")))
}

// ---------------------------------------------------------------------
// Errors on the wire
// ---------------------------------------------------------------------

/// `&'static str` fields cross the wire by value and must decode back
/// to statics; the codec only accepts the strings the crate actually
/// produces (anything else is a [`WireError`], never a leak).
fn known_static(s: &str, table: &[&'static str]) -> Result<&'static str, WireError> {
    table
        .iter()
        .find(|&&k| k == s)
        .copied()
        .ok_or_else(|| wire_err(format!("unknown static string {s:?}")))
}

/// Every `what` the facade puts into [`BuildError::UnsupportedOnCsp`].
const KNOWN_WHATS: &[&str] = &[
    "LocalMetropolis",
    "LocalMetropolis(no rule 3)",
    "LubyGlauber",
    "Glauber",
    "Metropolis",
    "the distribution job",
    "the tv_curve job",
    "the coalescence job",
    "replica batching",
    "the sharded backend",
    "the cluster backend",
];

/// Encodes a [`BuildError`] as one token (the `combo-*` family).
fn encode_build_error(e: &BuildError) -> String {
    match e {
        BuildError::ZeroReplicas => "combo-zero-replicas".into(),
        BuildError::SchedulerNotApplicable { algorithm } => {
            format!("combo-scheduler:algorithm={algorithm}")
        }
        BuildError::InvalidBernoulliProbability { p } => format!("combo-bernoulli:p={p}"),
        BuildError::StartLength { expected, got } => {
            format!("combo-start-length:expected={expected},got={got}")
        }
        BuildError::StartCount { expected, got } => {
            format!("combo-start-count:expected={expected},got={got}")
        }
        BuildError::EmptyModel => "combo-empty-model".into(),
        BuildError::StartRequiredForCsp => "combo-start-required".into(),
        BuildError::UnsupportedOnCsp { what } => {
            format!("combo-unsupported-on-csp:what={}", escape(what))
        }
        BuildError::StartSpin { spin, q } => format!("combo-start-spin:spin={spin},q={q}"),
    }
}

/// Splits an error token into `(kind, args)` and the args into the
/// expected `key=value` list.
fn error_args<'a>(args: &'a str, expected: &[&str]) -> Result<Vec<&'a str>, WireError> {
    let pieces: Vec<&str> = if args.is_empty() {
        Vec::new()
    } else {
        args.split(',').collect()
    };
    if pieces.len() != expected.len() {
        return Err(wire_err(format!(
            "expected arguments {expected:?}, got {args:?}"
        )));
    }
    pieces
        .iter()
        .zip(expected)
        .map(|(piece, key)| field(piece, key))
        .collect()
}

fn decode_build_error(kind: &str, args: &str) -> Result<BuildError, WireError> {
    Ok(match kind {
        "combo-zero-replicas" => BuildError::ZeroReplicas,
        "combo-scheduler" => {
            let v = error_args(args, &["algorithm"])?;
            BuildError::SchedulerNotApplicable {
                algorithm: v[0].parse::<Algorithm>().map_err(wire_err)?,
            }
        }
        "combo-bernoulli" => {
            let v = error_args(args, &["p"])?;
            BuildError::InvalidBernoulliProbability {
                p: v[0].parse().map_err(|_| wire_err("bad p"))?,
            }
        }
        "combo-start-length" => {
            let v = error_args(args, &["expected", "got"])?;
            BuildError::StartLength {
                expected: v[0].parse().map_err(|_| wire_err("bad expected"))?,
                got: v[1].parse().map_err(|_| wire_err("bad got"))?,
            }
        }
        "combo-start-count" => {
            let v = error_args(args, &["expected", "got"])?;
            BuildError::StartCount {
                expected: v[0].parse().map_err(|_| wire_err("bad expected"))?,
                got: v[1].parse().map_err(|_| wire_err("bad got"))?,
            }
        }
        "combo-empty-model" => BuildError::EmptyModel,
        "combo-start-required" => BuildError::StartRequiredForCsp,
        "combo-unsupported-on-csp" => {
            let v = error_args(args, &["what"])?;
            // Unlike the small closed `key`/`kind` vocabularies, the
            // `what` set grows with the facade; an unrecognized value
            // (a newer server) degrades to a generic static instead of
            // failing the frame — one drifted string must not cost a
            // client its whole session of results.
            let what = known_static(&unescape(v[0])?, KNOWN_WHATS)
                .unwrap_or("a job the remote end rejected");
            BuildError::UnsupportedOnCsp { what }
        }
        "combo-start-spin" => {
            let v = error_args(args, &["spin", "q"])?;
            BuildError::StartSpin {
                spin: v[0].parse().map_err(|_| wire_err("bad spin"))?,
                q: v[1].parse().map_err(|_| wire_err("bad q"))?,
            }
        }
        other => return Err(wire_err(format!("unknown combo error {other:?}"))),
    })
}

/// Encodes a [`SpecError`] as one token; [`decode_spec_error`]
/// inverts it exactly (the typed error, not just its message, crosses
/// the wire).
#[must_use]
pub fn encode_spec_error(e: &SpecError) -> String {
    match e {
        SpecError::NotKeyValue { token } => format!("not-key-value:token={}", escape(token)),
        SpecError::UnknownKey { key } => format!("unknown-key:key={}", escape(key)),
        SpecError::DuplicateKey { key } => format!("duplicate-key:key={}", escape(key)),
        SpecError::MissingKey { key } => format!("missing-key:key={}", escape(key)),
        SpecError::UnknownScenario { kind, name } => {
            format!(
                "unknown-scenario:kind={},name={}",
                escape(kind),
                escape(name)
            )
        }
        SpecError::BadValue { key, message } => {
            format!("bad-value:key={},message={}", escape(key), escape(message))
        }
        SpecError::Combo(e) => encode_build_error(e),
        SpecError::Unsupported { message } => format!("unsupported:message={}", escape(message)),
        SpecError::JobPanicked { message } => {
            format!("job-panicked:message={}", escape(message))
        }
        SpecError::ServiceStopped => "service-stopped".into(),
        SpecError::Cancelled => "cancelled".into(),
        SpecError::Rejected(reason) => format!("rejected:{}", encode_reject_reason(reason)),
    }
}

/// Encodes a [`RejectReason`] as one token; [`decode_reject_reason`]
/// inverts it. Nested inside `rejected:` spec errors and `rejected`
/// job events.
#[must_use]
pub fn encode_reject_reason(reason: &RejectReason) -> String {
    match reason {
        RejectReason::QueueFull { cap } => format!("queue-full:cap={cap}"),
        RejectReason::SessionBusy { cap } => format!("session-busy:cap={cap}"),
        RejectReason::RoundBudget { budget, cap } => {
            format!("round-budget:budget={budget},cap={cap}")
        }
        RejectReason::Draining => "draining".into(),
    }
}

/// Inverts [`encode_reject_reason`].
///
/// # Errors
/// A [`WireError`] on an unknown kind or bad arity.
pub fn decode_reject_reason(token: &str) -> Result<RejectReason, WireError> {
    let (kind, args) = match token.split_once(':') {
        Some((k, a)) => (k, a),
        None => (token, ""),
    };
    Ok(match kind {
        "queue-full" => {
            let v = error_args(args, &["cap"])?;
            RejectReason::QueueFull {
                cap: v[0].parse().map_err(|_| wire_err("bad cap"))?,
            }
        }
        "session-busy" => {
            let v = error_args(args, &["cap"])?;
            RejectReason::SessionBusy {
                cap: v[0].parse().map_err(|_| wire_err("bad cap"))?,
            }
        }
        "round-budget" => {
            let v = error_args(args, &["budget", "cap"])?;
            RejectReason::RoundBudget {
                budget: v[0].parse().map_err(|_| wire_err("bad budget"))?,
                cap: v[1].parse().map_err(|_| wire_err("bad cap"))?,
            }
        }
        "draining" => {
            if !args.is_empty() {
                return Err(wire_err("draining takes no arguments"));
            }
            RejectReason::Draining
        }
        other => return Err(wire_err(format!("unknown reject reason {other:?}"))),
    })
}

/// Inverts [`encode_spec_error`].
///
/// # Errors
/// A [`WireError`] on an unknown kind, bad arity, or a `&'static str`
/// field whose value the crate never produces.
pub fn decode_spec_error(token: &str) -> Result<SpecError, WireError> {
    let (kind, args) = match token.split_once(':') {
        Some((k, a)) => (k, a),
        None => (token, ""),
    };
    Ok(match kind {
        "not-key-value" => {
            let v = error_args(args, &["token"])?;
            SpecError::NotKeyValue {
                token: unescape(v[0])?,
            }
        }
        "unknown-key" => {
            let v = error_args(args, &["key"])?;
            SpecError::UnknownKey {
                key: unescape(v[0])?,
            }
        }
        "duplicate-key" => {
            let v = error_args(args, &["key"])?;
            SpecError::DuplicateKey {
                key: unescape(v[0])?,
            }
        }
        "missing-key" => {
            let v = error_args(args, &["key"])?;
            SpecError::MissingKey {
                key: known_static(&unescape(v[0])?, &["graph", "model"])?,
            }
        }
        "unknown-scenario" => {
            let v = error_args(args, &["kind", "name"])?;
            SpecError::UnknownScenario {
                kind: known_static(&unescape(v[0])?, &["graph family", "model", "job"])?,
                name: unescape(v[1])?,
            }
        }
        "bad-value" => {
            let v = error_args(args, &["key", "message"])?;
            SpecError::BadValue {
                key: unescape(v[0])?,
                message: unescape(v[1])?,
            }
        }
        "unsupported" => {
            let v = error_args(args, &["message"])?;
            SpecError::Unsupported {
                message: unescape(v[0])?,
            }
        }
        "job-panicked" => {
            let v = error_args(args, &["message"])?;
            SpecError::JobPanicked {
                message: unescape(v[0])?,
            }
        }
        "service-stopped" => {
            if !args.is_empty() {
                return Err(wire_err("service-stopped takes no arguments"));
            }
            SpecError::ServiceStopped
        }
        "cancelled" => {
            if !args.is_empty() {
                return Err(wire_err("cancelled takes no arguments"));
            }
            SpecError::Cancelled
        }
        "rejected" => SpecError::Rejected(decode_reject_reason(args)?),
        _ if kind.starts_with("combo") => SpecError::Combo(decode_build_error(kind, args)?),
        other => return Err(wire_err(format!("unknown error kind {other:?}"))),
    })
}

// ---------------------------------------------------------------------
// Session frames
// ---------------------------------------------------------------------

/// A client → server frame. Both wire forms come from its rows in the
/// frame table of [`codec`](crate::codec).
#[derive(Clone, Debug, PartialEq)]
pub enum ClientFrame {
    /// Submit a spec (or sweep) line under a client-chosen id; the
    /// server acks with [`ServerFrame::Submitted`] and then streams
    /// one event sequence per member job.
    Submit {
        /// Client-chosen job id (scoped to the session; reusing an id
        /// interleaves two event streams — don't).
        id: u64,
        /// The spec/sweep line, verbatim (parsed server-side).
        spec: String,
    },
    /// Cancel every member job of a previously submitted id. Each
    /// still-unresolved member terminates with
    /// [`JobEvent::Cancelled`]
    /// within one progress interval; an unknown id gets a
    /// [`ServerFrame::Error`] carrying it.
    Cancel {
        /// The submit id to cancel.
        id: u64,
    },
    /// Ask the server to drain and shut down: stop accepting
    /// connections, reject new submissions, let in-flight jobs finish
    /// (or cancel them past the grace deadline), then exit.
    Shutdown,
    /// Negotiate the session's wire format (`hello codec=binary`). The
    /// server acks with [`ServerFrame::Hello`] *in the session's
    /// current codec*, then both directions switch — every frame
    /// before the ack is old-codec, every frame after is new-codec.
    Hello {
        /// The requested codec.
        codec: crate::codec::Codec,
    },
    /// Liveness probe: the server answers immediately with a
    /// [`ServerFrame::Pong`] echoing the nonce, ahead of any queued
    /// work — what a coordinator uses to tell a slow worker from a
    /// dead one.
    Ping {
        /// Caller-chosen nonce, echoed verbatim in the pong.
        nonce: u64,
    },
    /// Open a distributed-shard session: this connection now owns
    /// shard `shard` of `of` of the partition that `spec` describes,
    /// and will exchange per-round boundary states as `shard-sync`
    /// frames until it reports [`ServerFrame::ShardDone`].
    ShardInit {
        /// Coordinator-chosen shard-session id (scoped to the
        /// session, like submit ids).
        id: u64,
        /// The shard this connection owns.
        shard: u32,
        /// Total shard count (the partition's `k`).
        of: u32,
        /// The spec line naming the workload, verbatim (parsed
        /// worker-side; graph, model, rule, and partition are all
        /// derived from it deterministically).
        spec: String,
    },
    /// The coordinator's half of one round barrier: the halo states
    /// (this shard's out-of-shard neighbors, ascending vertex order)
    /// after round `round` committed everywhere.
    ShardSync {
        /// The shard-session id.
        id: u64,
        /// The round these states close (0-based).
        round: u64,
        /// Halo-vertex spins, packed in ascending vertex order.
        blob: crate::codec::StateBlob,
    },
}

/// A server → client frame. Both wire forms come from its rows in the
/// frame table of [`codec`](crate::codec).
#[derive(Clone, Debug, PartialEq)]
pub enum ServerFrame {
    /// Ack: the submitted line parsed and expanded into `jobs` member
    /// jobs, all enqueued. Precedes every event of its id.
    Submitted {
        /// The echoed submit id.
        id: u64,
        /// Member-job count (1 for a single spec).
        jobs: u64,
    },
    /// One member job's event, tagged with the submit id and the
    /// member's expansion index.
    Event {
        /// The echoed submit id.
        id: u64,
        /// The member's expansion index (0 for a single spec).
        index: u64,
        /// The event.
        event: JobEvent,
    },
    /// A typed protocol error (malformed frame, rejected spec line).
    /// The session stays alive; only the offending frame is dropped.
    Error {
        /// The submit id the error belongs to, when attributable.
        id: Option<u64>,
        /// What was wrong.
        message: String,
    },
    /// Ack of a [`ClientFrame::Hello`]: the codec the session now
    /// speaks. Sent in the codec that was active *before* the switch.
    Hello {
        /// The codec in effect for every subsequent frame.
        codec: crate::codec::Codec,
    },
    /// Answer to a [`ClientFrame::Ping`], echoing its nonce. Sent
    /// inline from the session loop, so it overtakes queued job work.
    Pong {
        /// The echoed nonce.
        nonce: u64,
    },
    /// The worker's half of one round barrier: its boundary-vertex
    /// states (owned vertices with an out-of-shard neighbor, ascending
    /// vertex order) after round `round` committed locally.
    ShardSync {
        /// The shard-session id.
        id: u64,
        /// The round these states close (0-based).
        round: u64,
        /// Boundary-vertex spins, packed in ascending vertex order.
        blob: crate::codec::StateBlob,
    },
    /// A shard session finished: every round ran and these are the
    /// final states of the shard's owned vertices (ascending vertex
    /// order).
    ShardDone {
        /// The shard-session id.
        id: u64,
        /// Total rounds executed (burn-in included).
        rounds: u64,
        /// Owned-vertex spins, packed in ascending vertex order.
        blob: crate::codec::StateBlob,
    },
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommSummary, JobOutput, JobResult};

    fn result(spec: &str, output: JobOutput) -> JobResult {
        JobResult {
            spec: spec.to_string(),
            output,
            elapsed_secs: 0.25,
        }
    }

    #[test]
    fn known_whats_track_the_facade() {
        // Ties KNOWN_WHATS to the values sampler.rs actually produces:
        // every algorithm name (the `other.name()` rejection path)
        // must decode back to its exact static.
        for alg in [
            Algorithm::LocalMetropolis,
            Algorithm::LocalMetropolisNoRule3,
            Algorithm::LubyGlauber,
            Algorithm::Glauber,
            Algorithm::Metropolis,
        ] {
            assert!(
                KNOWN_WHATS.contains(&alg.name()),
                "add {:?} to KNOWN_WHATS",
                alg.name()
            );
        }
        // And an unknown value degrades to the documented fallback
        // instead of failing the frame.
        let drifted = "combo-unsupported-on-csp:what=some-future-verb";
        match decode_spec_error(drifted).unwrap() {
            SpecError::Combo(BuildError::UnsupportedOnCsp { what }) => {
                assert_eq!(what, "a job the remote end rejected");
            }
            other => panic!("unexpected decode: {other:?}"),
        }
    }

    #[test]
    fn escape_round_trips() {
        for s in [
            "",
            "plain",
            "a b,c=d:e%f",
            "line\nbreak\ttab",
            "100%,=:%",
            // Non-ASCII must survive byte-exactly (β is two UTF-8
            // bytes; a char-wise escape would mojibake it).
            "β=0.4 and λ≥1 — ünïcode",
        ] {
            assert_eq!(unescape(&escape(s)).unwrap(), s, "{s:?}");
            assert!(escape(s).is_ascii());
            assert!(!escape(s).contains(' '));
        }
        assert!(unescape("bad%zz").is_err());
        assert!(unescape("trunc%2").is_err());
    }

    #[test]
    fn events_round_trip() {
        let comm = CommSummary {
            rounds_seen: 30,
            total_messages: 1200,
            total_bytes: 2400,
            total_changed: 7,
        };
        let events = vec![
            JobEvent::Accepted,
            JobEvent::Started,
            JobEvent::Progress { round: 5, of: 100 },
            JobEvent::Finished(result(
                "graph=torus:6x6 model=coloring:q=12 seed=5 job=run:rounds=30",
                JobOutput::Run {
                    rounds: 30,
                    n: 36,
                    feasible: true,
                    fingerprint: 0xdead_beef,
                    comm: Some(comm),
                },
            )),
            JobEvent::Finished(result(
                "graph=cycle:4 model=coloring:q=3 job=tv:rounds=40,replicas=2000",
                JobOutput::Tv {
                    rounds: 40,
                    replicas: 2000,
                    tv: 0.012_345_678_901_234_5,
                },
            )),
            JobEvent::Failed(SpecError::Combo(BuildError::SchedulerNotApplicable {
                algorithm: Algorithm::Glauber,
            })),
            JobEvent::Failed(SpecError::JobPanicked {
                message: "index out of bounds: the len is 3".into(),
            }),
        ];
        for event in events {
            let printed = event.to_string();
            assert_eq!(printed.parse::<JobEvent>().unwrap(), event, "{printed}");
        }
    }

    #[test]
    fn frames_round_trip() {
        let frames = [
            ServerFrame::Submitted { id: 7, jobs: 32 },
            ServerFrame::Event {
                id: 7,
                index: 31,
                event: JobEvent::Progress { round: 1, of: 2 },
            },
            ServerFrame::Error {
                id: None,
                message: "malformed frame: unknown client frame \"hello\"".into(),
            },
            ServerFrame::Error {
                id: Some(3),
                message: "unknown model \"isng\"".into(),
            },
        ];
        for frame in frames {
            assert_eq!(frame.to_string().parse::<ServerFrame>().unwrap(), frame);
        }
        let submit = ClientFrame::Submit {
            id: 9,
            spec: "graph=cycle:12 model=coloring:q=5 seeds=0..4".into(),
        };
        assert_eq!(submit.to_string().parse::<ClientFrame>().unwrap(), submit);
    }

    #[test]
    fn floats_survive_the_wire_bit_identically() {
        for tv in [0.1 + 0.2, 1.0 / 3.0, f64::MIN_POSITIVE, 1e300, 0.0] {
            let r = result(
                "graph=cycle:4 model=coloring:q=3 job=tv:rounds=1,replicas=1",
                JobOutput::Tv {
                    rounds: 1,
                    replicas: 1,
                    tv,
                },
            );
            let back: JobResult = r.to_string().parse().unwrap();
            match back.output {
                JobOutput::Tv { tv: t, .. } => assert_eq!(t.to_bits(), tv.to_bits()),
                _ => unreachable!(),
            }
        }
        // NaN compares unequal but must still cross the wire as NaN.
        let r = result(
            "graph=cycle:4 model=coloring:q=3 job=coalescence:trials=1,max-rounds=1",
            JobOutput::Coalescence {
                trials: 1,
                mean_rounds: f64::NAN,
                std_error: f64::INFINITY,
                timeouts: 1,
            },
        );
        let back: JobResult = r.to_string().parse().unwrap();
        match back.output {
            JobOutput::Coalescence {
                mean_rounds,
                std_error,
                ..
            } => {
                assert!(mean_rounds.is_nan());
                assert_eq!(std_error, f64::INFINITY);
            }
            _ => unreachable!(),
        }
    }

    #[test]
    fn malformed_frames_are_typed_errors() {
        for bad in [
            "hello",
            "hello codec=morse",
            "hello codec=binary extra=1",
            "submit id=x spec=graph=cycle:3 model=mis",
            "event id=1 index=0 exploded",
            "event id=1 index=0 finished elapsed=zz output=tv:rounds=1,replicas=1,tv=0 spec=x",
            "event id=1 index=0 state round=5 blob=2/3/!!!",
            "error id=7 message=bad%GG",
            "error id=7 message=bad%+A",
        ] {
            assert!(bad.parse::<ServerFrame>().is_err(), "{bad:?}");
        }
    }

    #[test]
    fn state_outputs_and_events_round_trip() {
        use crate::codec::StateBlob;
        let blob = StateBlob::pack(&[0, 2, 1, 2, 0, 1], 3);
        let wide = StateBlob::pack(&[1, 300, 0, 299], 301);
        let bits = StateBlob::pack(&[1, 0, 1, 1, 0, 0, 1, 0, 1], 2);

        let sample = result(
            "graph=cycle:6 model=coloring:q=3 seed=1 job=sample:rounds=10,count=3",
            JobOutput::Sample {
                rounds: 10,
                states: vec![blob.clone(), wide, bits],
            },
        );
        assert_eq!(sample.to_string().parse::<JobResult>().unwrap(), sample);

        let stream = result(
            "graph=cycle:6 model=coloring:q=3 seed=1 job=stream:rounds=10,every=2",
            JobOutput::Stream {
                rounds: 10,
                every: 2,
                n: 6,
                states: 5,
                fingerprint: 0x0123_4567_89ab_cdef,
            },
        );
        assert_eq!(stream.to_string().parse::<JobResult>().unwrap(), stream);

        let event = JobEvent::State { round: 4, blob };
        assert_eq!(event.to_string().parse::<JobEvent>().unwrap(), event);
    }

    #[test]
    fn hello_frames_round_trip() {
        use crate::codec::Codec;
        for codec in [Codec::Text, Codec::Binary] {
            let client = ClientFrame::Hello { codec };
            assert_eq!(client.to_string().parse::<ClientFrame>().unwrap(), client);
            let server = ServerFrame::Hello { codec };
            assert_eq!(server.to_string().parse::<ServerFrame>().unwrap(), server);
        }
        assert!("hello".parse::<ClientFrame>().is_err(), "codec is required");
    }

    #[test]
    fn cluster_frames_round_trip() {
        use crate::codec::StateBlob;
        let blob = StateBlob::pack(&[0, 2, 1, 2], 3);
        let empty = StateBlob::pack(&[], 3);
        let client_frames = [
            ClientFrame::Ping { nonce: 42 },
            ClientFrame::ShardInit {
                id: 3,
                shard: 1,
                of: 4,
                spec: "graph=torus:6x6 model=coloring:q=12 backend=cluster:4 \
                       job=run:rounds=30"
                    .into(),
            },
            ClientFrame::ShardSync {
                id: 3,
                round: 7,
                blob: blob.clone(),
            },
            ClientFrame::ShardSync {
                id: 3,
                round: 0,
                blob: empty.clone(),
            },
        ];
        for frame in client_frames {
            assert_eq!(frame.to_string().parse::<ClientFrame>().unwrap(), frame);
        }
        let server_frames = [
            ServerFrame::Pong { nonce: 42 },
            ServerFrame::ShardSync {
                id: 3,
                round: 7,
                blob: blob.clone(),
            },
            ServerFrame::ShardDone {
                id: 3,
                rounds: 30,
                blob,
            },
            ServerFrame::ShardSync {
                id: 3,
                round: 0,
                blob: empty,
            },
        ];
        for frame in server_frames {
            assert_eq!(frame.to_string().parse::<ServerFrame>().unwrap(), frame);
        }
        for bad in [
            "ping",
            "ping nonce=7 extra=1",
            "shard-init id=1 shard=0 of=2",
            "shard-sync id=1 round=0",
            "shard-sync id=1 round=0 blob=2/3/!!!",
        ] {
            assert!(bad.parse::<ClientFrame>().is_err(), "{bad:?}");
        }
        assert!("pong".parse::<ServerFrame>().is_err());
        assert!("shard-done id=1 rounds=2".parse::<ServerFrame>().is_err());
    }
}
