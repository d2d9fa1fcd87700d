//! The wire codec's contract: `parse ∘ print` is the identity for
//! [`JobEvent`]s, [`JobResult`]s, and both frame alphabets, across
//! generated events covering every output and error variant — plus
//! the malformed-frame contract: a server answers garbage with a
//! typed `error` frame and keeps the session (and its other in-flight
//! jobs) alive.

use lsl_core::codec::StateBlob;
use lsl_core::lifecycle::RejectReason;
use lsl_core::net::Server;
use lsl_core::proto::{ClientFrame, ServerFrame};
use lsl_core::sampler::{Algorithm, BuildError};
use lsl_core::service::JobEvent;
use lsl_core::spec::{CommSummary, JobOutput, JobResult, SpecError};
use proptest::prelude::*;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;

// ----- strategies over the protocol ----------------------------------

/// Finite-or-infinite f64s with full mantissa variety (NaN is mapped
/// away: it never compares equal, and results never produce it except
/// for empty coalescence summaries, covered by a unit test in proto).
fn arb_f64() -> impl Strategy<Value = f64> {
    any::<u64>().prop_map(|bits| {
        let v = f64::from_bits(bits);
        if v.is_nan() {
            0.5
        } else {
            v
        }
    })
}

fn arb_comm() -> impl Strategy<Value = CommSummary> {
    (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
        |(rounds_seen, total_messages, total_bytes, total_changed)| CommSummary {
            rounds_seen,
            total_messages,
            total_bytes,
            total_changed,
        },
    )
}

fn arb_output() -> impl Strategy<Value = JobOutput> {
    prop_oneof![
        (
            any::<u64>(),
            0usize..1_000_000,
            any::<bool>(),
            any::<u64>(),
            proptest::option::of(arb_comm())
        )
            .prop_map(|(rounds, n, feasible, fingerprint, comm)| JobOutput::Run {
                rounds,
                n,
                feasible,
                fingerprint,
                comm,
            }),
        (any::<u64>(), 0usize..1_000_000)
            .prop_map(|(replicas, support)| JobOutput::Distribution { replicas, support }),
        (0usize..100_000, 0usize..100_000, arb_f64()).prop_map(|(rounds, replicas, tv)| {
            JobOutput::Tv {
                rounds,
                replicas,
                tv,
            }
        }),
        (0usize..1_000, arb_f64(), arb_f64(), 0usize..1_000).prop_map(
            |(trials, mean_rounds, std_error, timeouts)| JobOutput::Coalescence {
                trials,
                mean_rounds,
                std_error,
                timeouts,
            }
        ),
    ]
}

/// Spec strings as they appear in results: canonical single-line specs
/// (the codec carries them verbatim to end-of-line).
fn arb_spec_string() -> impl Strategy<Value = String> {
    (3usize..40, 2usize..12, 0u64..1_000_000).prop_map(|(n, q, seed)| {
        format!("graph=cycle:{n} model=coloring:q={q} seed={seed} job=run:rounds=50")
    })
}

/// Packed state blobs across spin widths (1-bit Ising up to 10-bit
/// alphabets), including the empty halo a 1-shard partition ships.
fn arb_blob() -> impl Strategy<Value = StateBlob> {
    (
        prop_oneof![Just(2usize), Just(3), Just(16), Just(1000)],
        0usize..40,
    )
        .prop_flat_map(|(q, n)| {
            proptest::collection::vec(0u32..u32::try_from(q).unwrap(), n)
                .prop_map(move |spins| StateBlob::pack(&spins, q))
        })
}

fn arb_result() -> impl Strategy<Value = JobResult> {
    (arb_spec_string(), arb_output(), arb_f64()).prop_map(|(spec, output, elapsed)| JobResult {
        spec,
        output,
        // Elapsed crosses the wire too (not part of equality, but the
        // codec must not corrupt it).
        elapsed_secs: elapsed,
    })
}

/// Strings that exercise the escaping (separators, percent signs,
/// multi-line payloads — panic messages contain all of these).
fn arb_message() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just("plain".to_string()),
        Just("spaces and, commas = and : colons".to_string()),
        Just("100% weird\nmulti\tline\r".to_string()),
        (0usize..64).prop_map(|n| "=%,: \n".repeat(n)),
    ]
}

fn arb_algorithm() -> impl Strategy<Value = Algorithm> {
    prop_oneof![
        Just(Algorithm::LocalMetropolis),
        Just(Algorithm::LocalMetropolisNoRule3),
        Just(Algorithm::LubyGlauber),
        Just(Algorithm::Glauber),
        Just(Algorithm::Metropolis),
    ]
}

fn arb_build_error() -> impl Strategy<Value = BuildError> {
    prop_oneof![
        Just(BuildError::ZeroReplicas),
        arb_algorithm().prop_map(|algorithm| BuildError::SchedulerNotApplicable { algorithm }),
        arb_f64().prop_map(|p| BuildError::InvalidBernoulliProbability { p }),
        (0usize..10_000, 0usize..10_000)
            .prop_map(|(expected, got)| BuildError::StartLength { expected, got }),
        (0usize..10_000, 0usize..10_000)
            .prop_map(|(expected, got)| BuildError::StartCount { expected, got }),
        Just(BuildError::EmptyModel),
        Just(BuildError::StartRequiredForCsp),
        prop_oneof![
            Just("Glauber"),
            Just("Metropolis"),
            Just("LocalMetropolis(no rule 3)"),
            Just("the distribution job"),
            Just("the coalescence job"),
            Just("replica batching"),
        ]
        .prop_map(|what| BuildError::UnsupportedOnCsp { what }),
        (any::<u32>(), 0usize..10_000).prop_map(|(spin, q)| BuildError::StartSpin { spin, q }),
    ]
}

/// Every admission-rejection reason the service can emit.
fn arb_reject_reason() -> impl Strategy<Value = RejectReason> {
    prop_oneof![
        (0usize..10_000).prop_map(|cap| RejectReason::QueueFull { cap }),
        (0usize..10_000).prop_map(|cap| RejectReason::SessionBusy { cap }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(budget, cap)| RejectReason::RoundBudget { budget, cap }),
        Just(RejectReason::Draining),
    ]
}

fn arb_spec_error() -> impl Strategy<Value = SpecError> {
    prop_oneof![
        arb_message().prop_map(|token| SpecError::NotKeyValue { token }),
        arb_message().prop_map(|key| SpecError::UnknownKey { key }),
        arb_message().prop_map(|key| SpecError::DuplicateKey { key }),
        prop_oneof![Just("graph"), Just("model")].prop_map(|key| SpecError::MissingKey { key }),
        (
            prop_oneof![Just("graph family"), Just("model"), Just("job")],
            arb_message()
        )
            .prop_map(|(kind, name)| SpecError::UnknownScenario { kind, name }),
        (arb_message(), arb_message())
            .prop_map(|(key, message)| SpecError::BadValue { key, message }),
        arb_build_error().prop_map(SpecError::Combo),
        arb_message().prop_map(|message| SpecError::Unsupported { message }),
        arb_message().prop_map(|message| SpecError::JobPanicked { message }),
        Just(SpecError::ServiceStopped),
        Just(SpecError::Cancelled),
        arb_reject_reason().prop_map(SpecError::Rejected),
    ]
}

fn arb_event() -> impl Strategy<Value = JobEvent> {
    prop_oneof![
        Just(JobEvent::Accepted),
        Just(JobEvent::Started),
        (any::<u64>(), any::<u64>()).prop_map(|(round, of)| JobEvent::Progress { round, of }),
        arb_result().prop_map(JobEvent::Finished),
        arb_spec_error().prop_map(JobEvent::Failed),
        arb_reject_reason().prop_map(|reason| JobEvent::Rejected { reason }),
        Just(JobEvent::Cancelled),
    ]
}

fn arb_server_frame() -> impl Strategy<Value = ServerFrame> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(id, jobs)| ServerFrame::Submitted { id, jobs }),
        (any::<u64>(), any::<u64>(), arb_event())
            .prop_map(|(id, index, event)| ServerFrame::Event { id, index, event }),
        (proptest::option::of(any::<u64>()), arb_message())
            .prop_map(|(id, message)| ServerFrame::Error { id, message }),
        any::<u64>().prop_map(|nonce| ServerFrame::Pong { nonce }),
        (any::<u64>(), any::<u64>(), arb_blob())
            .prop_map(|(id, round, blob)| ServerFrame::ShardSync { id, round, blob }),
        (any::<u64>(), any::<u64>(), arb_blob())
            .prop_map(|(id, rounds, blob)| ServerFrame::ShardDone { id, rounds, blob }),
    ]
}

/// The coordinator-side frames the cluster layer added: liveness
/// probes and the shard-session alphabet (the spec rides verbatim to
/// end-of-line, exactly like `submit`).
fn arb_cluster_client_frame() -> impl Strategy<Value = ClientFrame> {
    prop_oneof![
        any::<u64>().prop_map(|nonce| ClientFrame::Ping { nonce }),
        (any::<u64>(), any::<u32>(), any::<u32>(), arb_spec_string()).prop_map(
            |(id, shard, of, spec)| ClientFrame::ShardInit {
                id,
                shard,
                of,
                spec,
            }
        ),
        (any::<u64>(), any::<u64>(), arb_blob())
            .prop_map(|(id, round, blob)| ClientFrame::ShardSync { id, round, blob }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The headline codec contract: `parse(print(event)) == event`,
    /// and the printed form is a fixed point.
    #[test]
    fn job_events_roundtrip(event in arb_event()) {
        let printed = event.to_string();
        let reparsed: JobEvent = printed.parse().expect("canonical form must parse");
        prop_assert_eq!(&reparsed, &event, "wire form: {}", printed);
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    #[test]
    fn job_results_roundtrip(result in arb_result()) {
        let printed = result.to_string();
        let reparsed: JobResult = printed.parse().expect("canonical form must parse");
        prop_assert_eq!(&reparsed, &result, "wire form: {}", printed);
        // Elapsed is outside PartialEq; check it separately, bitwise.
        prop_assert_eq!(reparsed.elapsed_secs.to_bits(), result.elapsed_secs.to_bits());
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    #[test]
    fn server_frames_roundtrip(frame in arb_server_frame()) {
        let printed = frame.to_string();
        prop_assert!(!printed.contains('\n'), "frames are single lines: {}", printed);
        let reparsed: ServerFrame = printed.parse().expect("canonical form must parse");
        prop_assert_eq!(&reparsed, &frame, "wire form: {}", printed);
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    #[test]
    fn client_frames_roundtrip(id in any::<u64>(), spec in arb_spec_string()) {
        let frame = ClientFrame::Submit { id, spec };
        let printed = frame.to_string();
        let reparsed: ClientFrame = printed.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, frame);
    }

    /// The cluster frames round-trip like everything else: pings,
    /// shard-init lines, and bit-packed shard-sync blobs in both
    /// directions, single-line and fixed-point.
    #[test]
    fn cluster_frames_roundtrip(frame in arb_cluster_client_frame()) {
        let printed = frame.to_string();
        prop_assert!(!printed.contains('\n'), "frames are single lines: {}", printed);
        let reparsed: ClientFrame = printed.parse().expect("canonical form must parse");
        prop_assert_eq!(&reparsed, &frame, "wire form: {}", printed);
        prop_assert_eq!(reparsed.to_string(), printed);
    }

    #[test]
    fn cancel_frames_roundtrip(id in any::<u64>()) {
        let frame = ClientFrame::Cancel { id };
        let printed = frame.to_string();
        let reparsed: ClientFrame = printed.parse().expect("canonical form must parse");
        prop_assert_eq!(reparsed, frame);
        prop_assert_eq!(reparsed.to_string(), printed);
    }
}

/// The two argument-less lifecycle frames have fixed wire forms.
#[test]
fn admin_frames_have_fixed_wire_forms() {
    assert_eq!(ClientFrame::Shutdown.to_string(), "shutdown");
    assert_eq!(
        "shutdown".parse::<ClientFrame>().unwrap(),
        ClientFrame::Shutdown
    );
    assert_eq!(
        "cancel id=7".parse::<ClientFrame>().unwrap(),
        ClientFrame::Cancel { id: 7 }
    );
    assert_eq!(ClientFrame::Ping { nonce: 9 }.to_string(), "ping nonce=9");
    assert_eq!(
        "pong nonce=9".parse::<ServerFrame>().unwrap(),
        ServerFrame::Pong { nonce: 9 }
    );
    // Trailing garbage is malformed, not silently ignored.
    assert!("shutdown now".parse::<ClientFrame>().is_err());
    assert!("cancel id=7 extra".parse::<ClientFrame>().is_err());
    assert!("ping nonce=9 extra".parse::<ClientFrame>().is_err());
}

/// The malformed-frame contract, end to end on a live session: a
/// garbage line gets a typed `error` frame (not a disconnect), a
/// syntactically fine submit with a rejected spec gets an `error`
/// carrying the id, and a job submitted afterwards on the *same*
/// connection still runs to completion.
#[test]
fn malformed_frames_answer_typed_errors_and_keep_the_session() {
    let server = Server::bind("127.0.0.1:0", 1).expect("bind an ephemeral port");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    let read_frame = |reader: &mut BufReader<TcpStream>| -> ServerFrame {
        let mut line = String::new();
        assert!(
            reader.read_line(&mut line).expect("read") > 0,
            "server hung up on a malformed frame"
        );
        line.trim_end().parse().expect("server speaks the protocol")
    };

    // 1. Not a frame: typed session-level error, no id.
    writeln!(writer, "GET / HTTP/1.1").unwrap();
    match read_frame(&mut reader) {
        ServerFrame::Error { id: None, message } => {
            assert!(message.contains("malformed frame"), "{message}");
        }
        other => panic!("expected a session-level error, got {other:?}"),
    }

    // 2. A well-formed submit whose spec is garbage: error with the id.
    writeln!(writer, "submit id=42 spec=graph=cycle:2 model=coloring:q=5").unwrap();
    match read_frame(&mut reader) {
        ServerFrame::Error {
            id: Some(42),
            message,
        } => {
            assert!(message.contains("cycle"), "{message}");
        }
        other => panic!("expected an id-tagged error, got {other:?}"),
    }

    // 3. The session survived both: a real job completes on it.
    writeln!(
        writer,
        "submit id=43 spec=graph=cycle:8 model=coloring:q=5 seed=3 job=run:rounds=20"
    )
    .unwrap();
    let direct: JobResult = "graph=cycle:8 model=coloring:q=5 seed=3 job=run:rounds=20"
        .parse::<lsl_core::spec::JobSpec>()
        .unwrap()
        .run()
        .unwrap();
    loop {
        if let ServerFrame::Event {
            id: 43,
            index: 0,
            event: JobEvent::Finished(result),
        } = read_frame(&mut reader)
        {
            assert_eq!(
                result, direct,
                "the surviving session serves bit-identically"
            );
            break;
        }
    }
}
