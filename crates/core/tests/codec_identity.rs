//! The binary codec's contract: a session negotiated to
//! [`Codec::Binary`] answers **byte-identically** to the same line on
//! a text session — member results, state deliveries, and the printed
//! wire forms all agree — and `decode ∘ encode = id` holds over the
//! whole frame vocabulary, including the rejection and cancellation
//! paths that normal runs rarely exercise.

mod common;

use lsl_core::codec::{self, Codec, StateBlob};
use lsl_core::lifecycle::RejectReason;
use lsl_core::net::{Client, Server};
use lsl_core::proto::{ClientFrame, ServerFrame};
use lsl_core::sampler::{Algorithm, BuildError};
use lsl_core::service::{JobEvent, Service};
use lsl_core::spec::{CommSummary, JobOutput, JobResult, SpecError};
use proptest::prelude::*;

/// Submits `line` on a text session and a binary session against the
/// same server and asserts the outcomes agree exactly (results, state
/// deliveries, and printed wire forms; progress counts are
/// time-throttled and deliberately not compared).
fn assert_codecs_agree(server: &Server, line: &str) {
    let mut text = Client::connect_with(server.local_addr(), Codec::Text).unwrap();
    let mut binary = Client::connect_with(server.local_addr(), Codec::Binary).unwrap();
    text.submit(line).unwrap();
    binary.submit(line).unwrap();
    let t = text.drain().unwrap().into_iter().next().unwrap();
    let b = binary.drain().unwrap().into_iter().next().unwrap();
    assert_eq!(t.members, b.members, "results diverged on {line}");
    assert_eq!(t.states, b.states, "state deliveries diverged on {line}");
    for (tm, bm) in t.members.iter().zip(&b.members) {
        if let (Ok(tr), Ok(br)) = (tm, bm) {
            // The full result line embeds wall-clock elapsed time;
            // compare the deterministic parts' printed forms.
            assert_eq!(tr.spec, br.spec, "specs diverged on {line}");
            assert_eq!(
                tr.output.to_string(),
                br.output.to_string(),
                "output wire forms diverged on {line}"
            );
        }
    }
}

/// The state-shipping jobs, deterministically: sample (single and
/// replicated), stream, and a CSP model, across both codecs.
#[test]
fn state_jobs_agree_across_codecs() {
    let server = Server::bind("127.0.0.1:0", 2).unwrap();
    for line in [
        "graph=torus:5x5 model=coloring:q=9 seed=4 job=sample:rounds=40,count=1",
        "graph=torus:4x4 model=coloring:q=9 seed=5 job=sample:rounds=30,count=4",
        "graph=torus:5x5 model=ising:beta=0.3 seed=6 job=stream:rounds=50,every=10",
        "graph=cycle:9 model=coloring:q=5 seed=7 job=stream:rounds=30,every=7",
        "graph=cycle:8 model=mis seed=8 job=sample:rounds=25,count=1",
        "graph=torus:4x4 model=coloring:q=9 seed=9 burn-in=10 job=sample:rounds=20,count=2",
        // Degenerate budgets are part of the grammar.
        "graph=cycle:5 model=coloring:q=4 seed=1 job=stream:rounds=0,every=3",
        "graph=cycle:5 model=coloring:q=4 seed=1 job=sample:rounds=0,count=2",
    ] {
        assert_codecs_agree(&server, line);
    }
}

/// A binary session's streamed state sequence is exactly the sequence
/// an in-process [`Service`] run emits — same rounds, same decoded
/// configurations, same final result.
#[test]
fn streamed_states_match_in_process_run() {
    let line = "graph=torus:6x6 model=coloring:q=8 seed=11 job=stream:rounds=40,every=10";
    let server = Server::bind("127.0.0.1:0", 2).unwrap();
    let mut client = Client::connect_with(server.local_addr(), Codec::Binary).unwrap();
    client.submit(line).unwrap();
    let outcome = client.drain().unwrap().into_iter().next().unwrap();

    let mut local_states: Vec<(u64, StateBlob)> = Vec::new();
    let mut local_result = None;
    let handle = Service::new(2).submit_str(line).unwrap();
    for event in handle.events() {
        match event {
            JobEvent::State { round, blob } => local_states.push((round, blob)),
            JobEvent::Finished(result) => local_result = Some(result),
            _ => {}
        }
    }

    assert_eq!(outcome.states[0], local_states);
    assert_eq!(local_states.len(), 4, "rounds=40 every=10 ships 4 states");
    assert_eq!(outcome.members[0].as_ref().unwrap(), &local_result.unwrap());
    // The blobs really are full configurations, not fingerprints.
    let (round, last) = local_states.last().unwrap();
    assert_eq!(*round, 40);
    assert_eq!(last.unpack().len(), 36);
}

/// A malformed binary frame — garbage payload, or a length prefix
/// past the 16 MiB cap — answers a typed `error` frame and the
/// session keeps working, mirroring the text protocol's
/// malformed-line contract (`tests/lifecycle.rs`).
#[test]
fn malformed_binary_frames_get_typed_errors_and_the_session_survives() {
    use std::io::{Read, Write};
    use std::net::TcpStream;

    let server = Server::bind("127.0.0.1:0", 1).unwrap();
    let mut stream = TcpStream::connect(server.local_addr()).unwrap();

    // Negotiate in text; the ack comes back as one text line.
    writeln!(stream, "hello codec=binary").unwrap();
    let mut ack = Vec::new();
    let mut byte = [0u8; 1];
    loop {
        stream.read_exact(&mut byte).unwrap();
        if byte[0] == b'\n' {
            break;
        }
        ack.push(byte[0]);
    }
    assert_eq!(String::from_utf8(ack).unwrap().trim(), "hello codec=binary");

    // Everything after the ack is length-prefixed binary.
    let mut fb = codec::FrameBuffer::new();
    let next = |stream: &mut TcpStream, fb: &mut codec::FrameBuffer| -> ServerFrame {
        loop {
            if let Some(payload) = fb.next_frame().unwrap() {
                return codec::decode_server(&payload).unwrap();
            }
            let mut tmp = [0u8; 4096];
            let n = stream.read(&mut tmp).unwrap();
            assert!(n > 0, "server closed the session");
            fb.extend(&tmp[..n]);
        }
    };

    // A complete frame of garbage: typed error, session alive.
    stream.write_all(&7u32.to_le_bytes()).unwrap();
    stream.write_all(&[0xFF; 7]).unwrap();
    match next(&mut stream, &mut fb) {
        ServerFrame::Error { id: None, message } => {
            assert!(message.contains("malformed"), "got {message:?}")
        }
        other => panic!("expected a session-level error, got {other:?}"),
    }

    // An over-cap length prefix: typed error, and the stream resyncs
    // at the next byte — the valid submit right behind it runs.
    let oversize = u32::try_from(codec::MAX_FRAME + 1).unwrap();
    stream.write_all(&oversize.to_le_bytes()).unwrap();
    let line = "graph=cycle:6 model=coloring:q=4 seed=2 job=run:rounds=5";
    let submit = ClientFrame::Submit {
        id: 0,
        spec: line.into(),
    };
    codec::write_frame(&mut stream, &codec::encode_client(&submit)).unwrap();
    match next(&mut stream, &mut fb) {
        ServerFrame::Error { id: None, message } => {
            assert!(message.contains("exceeds cap"), "got {message:?}")
        }
        other => panic!("expected an oversize error, got {other:?}"),
    }
    let result = loop {
        if let ServerFrame::Event {
            id: 0,
            event: JobEvent::Finished(result),
            ..
        } = next(&mut stream, &mut fb)
        {
            break result;
        }
    };
    let direct = line
        .parse::<lsl_core::spec::JobSpec>()
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(result, direct, "post-error session must still answer");
}

/// Adversarial strings for the escaped payload paths: control bytes,
/// the protocol separators, non-ASCII.
fn arb_string() -> impl Strategy<Value = String> {
    proptest::collection::vec(0u32..0x250, 0..12)
        .prop_map(|cs| cs.into_iter().filter_map(char::from_u32).collect())
}

fn arb_blob() -> impl Strategy<Value = StateBlob> {
    (
        prop_oneof![Just(2usize), Just(5), Just(256), Just(1000)],
        1usize..400,
    )
        .prop_flat_map(|(q, n)| {
            proptest::collection::vec(0u32..u32::try_from(q).unwrap(), n)
                .prop_map(move |spins| StateBlob::pack(&spins, q))
        })
}

fn arb_output() -> impl Strategy<Value = JobOutput> {
    prop_oneof![
        (any::<u64>(), any::<usize>(), any::<bool>(), any::<u64>()).prop_map(
            |(rounds, n, feasible, fingerprint)| JobOutput::Run {
                rounds,
                n,
                feasible,
                fingerprint,
                comm: None,
            }
        ),
        (any::<u64>(), any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
            |(rounds_seen, total_messages, total_bytes, total_changed)| JobOutput::Run {
                rounds: 1,
                n: 2,
                feasible: false,
                fingerprint: 3,
                comm: Some(CommSummary {
                    rounds_seen,
                    total_messages,
                    total_bytes,
                    total_changed,
                }),
            }
        ),
        (any::<usize>(), any::<usize>(), any::<f64>()).prop_map(|(rounds, replicas, tv)| {
            JobOutput::Tv {
                rounds,
                replicas,
                tv,
            }
        }),
        (any::<u64>(), proptest::collection::vec(arb_blob(), 0..3))
            .prop_map(|(rounds, states)| JobOutput::Sample { rounds, states }),
        (
            any::<u64>(),
            1usize..100,
            any::<usize>(),
            any::<u64>(),
            any::<u64>()
        )
            .prop_map(
                |(rounds, every, n, states, fingerprint)| JobOutput::Stream {
                    rounds,
                    every,
                    n,
                    states,
                    fingerprint,
                }
            ),
    ]
}

fn arb_spec_error() -> impl Strategy<Value = SpecError> {
    prop_oneof![
        arb_string().prop_map(|token| SpecError::NotKeyValue { token }),
        arb_string().prop_map(|key| SpecError::UnknownKey { key }),
        Just(SpecError::MissingKey { key: "graph" }),
        (arb_string(), arb_string())
            .prop_map(|(key, message)| SpecError::BadValue { key, message }),
        Just(SpecError::Combo(BuildError::SchedulerNotApplicable {
            algorithm: Algorithm::Glauber,
        })),
        arb_string().prop_map(|message| SpecError::JobPanicked { message }),
        Just(SpecError::Cancelled),
        Just(SpecError::ServiceStopped),
    ]
}

fn arb_reject() -> impl Strategy<Value = RejectReason> {
    prop_oneof![
        any::<usize>().prop_map(|cap| RejectReason::QueueFull { cap }),
        any::<usize>().prop_map(|cap| RejectReason::SessionBusy { cap }),
        (any::<u64>(), any::<u64>())
            .prop_map(|(budget, cap)| RejectReason::RoundBudget { budget, cap }),
        Just(RejectReason::Draining),
    ]
}

fn arb_event() -> impl Strategy<Value = JobEvent> {
    prop_oneof![
        Just(JobEvent::Accepted),
        Just(JobEvent::Started),
        (any::<u64>(), any::<u64>()).prop_map(|(round, of)| JobEvent::Progress { round, of }),
        (any::<u64>(), arb_blob()).prop_map(|(round, blob)| JobEvent::State { round, blob }),
        (arb_string(), arb_output(), any::<f64>()).prop_map(|(spec, output, elapsed_secs)| {
            JobEvent::Finished(JobResult {
                spec,
                output,
                elapsed_secs,
            })
        }),
        arb_spec_error().prop_map(JobEvent::Failed),
        arb_reject().prop_map(|reason| JobEvent::Rejected { reason }),
        Just(JobEvent::Cancelled),
    ]
}

fn arb_codec() -> impl Strategy<Value = Codec> {
    prop_oneof![Just(Codec::Text), Just(Codec::Binary)]
}

fn arb_server_frame() -> impl Strategy<Value = ServerFrame> {
    prop_oneof![
        (any::<u64>(), any::<u64>()).prop_map(|(id, jobs)| ServerFrame::Submitted { id, jobs }),
        (any::<u64>(), any::<u64>(), arb_event())
            .prop_map(|(id, index, event)| ServerFrame::Event { id, index, event }),
        (proptest::option::of(any::<u64>()), arb_string())
            .prop_map(|(id, message)| ServerFrame::Error { id, message }),
        arb_codec().prop_map(|codec| ServerFrame::Hello { codec }),
        any::<u64>().prop_map(|nonce| ServerFrame::Pong { nonce }),
        (any::<u64>(), any::<u64>(), arb_blob())
            .prop_map(|(id, round, blob)| ServerFrame::ShardSync { id, round, blob }),
        (any::<u64>(), any::<u64>(), arb_blob())
            .prop_map(|(id, rounds, blob)| ServerFrame::ShardDone { id, rounds, blob }),
    ]
}

fn arb_client_frame() -> impl Strategy<Value = ClientFrame> {
    prop_oneof![
        (any::<u64>(), arb_string()).prop_map(|(id, spec)| ClientFrame::Submit { id, spec }),
        any::<u64>().prop_map(|id| ClientFrame::Cancel { id }),
        Just(ClientFrame::Shutdown),
        arb_codec().prop_map(|codec| ClientFrame::Hello { codec }),
        any::<u64>().prop_map(|nonce| ClientFrame::Ping { nonce }),
        (any::<u64>(), any::<u32>(), any::<u32>(), arb_string()).prop_map(
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
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// `decode ∘ encode = id` over the full binary frame vocabulary —
    /// every client frame, every server frame, every event (including
    /// `Rejected`, `Cancelled`, `State`), every output shape, and
    /// adversarial float/string payloads.
    #[test]
    fn binary_frames_round_trip(server in arb_server_frame(), client in arb_client_frame()) {
        let payload = codec::encode_server(&server);
        let back = codec::decode_server(&payload).unwrap();
        // NaN-carrying frames compare unequal; compare prints instead.
        prop_assert_eq!(format!("{server:?}"), format!("{back:?}"));
        let payload = codec::encode_client(&client);
        prop_assert_eq!(codec::decode_client(&payload).unwrap(), client);
    }

    /// Truncating an encoded frame never round-trips quietly: every
    /// strict prefix is a typed decode error, not a wrong frame.
    #[test]
    fn truncated_binary_frames_are_errors(server in arb_server_frame(), cut in any::<u64>()) {
        let payload = codec::encode_server(&server);
        if payload.len() > 1 {
            let cut = 1 + usize::try_from(cut % (payload.len() as u64 - 1)).unwrap();
            if cut < payload.len() {
                prop_assert!(codec::decode_server(&payload[..cut]).is_err());
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Randomized sessions over the shared spec strategies: whatever
    /// the workload (including specs that *fail* — typed errors cross
    /// both codecs too), text and binary sessions agree exactly.
    #[test]
    fn sessions_agree_across_codecs_randomized(spec in common::arb_runnable_spec()) {
        let server = Server::bind("127.0.0.1:0", 2).unwrap();
        assert_codecs_agree(&server, &spec.to_string());
    }
}

/// Bytes skewed toward the wire alphabet, so mutations land on
/// separators, keys, escapes and digits as often as on noise.
fn arb_wire_byte() -> impl Strategy<Value = u8> {
    const ALPHABET: &[u8] = b" =:,;/%+-_0123456789abcdefAZ\n";
    prop_oneof![any::<u8>(), (0..ALPHABET.len()).prop_map(|i| ALPHABET[i]),]
}

/// One to four edits, each overwriting, inserting or deleting a byte.
fn arb_edits() -> impl Strategy<Value = Vec<(usize, u8, u8)>> {
    proptest::collection::vec((any::<usize>(), any::<u8>(), arb_wire_byte()), 1..5)
}

fn mutate(mut bytes: Vec<u8>, edits: &[(usize, u8, u8)]) -> Vec<u8> {
    for &(at, op, byte) in edits {
        let at = at % (bytes.len() + 1);
        match op % 3 {
            0 if at < bytes.len() => bytes[at] = byte,
            2 if at < bytes.len() => {
                bytes.remove(at);
            }
            _ => bytes.insert(at, byte),
        }
    }
    bytes
}

fn mutate_text(text: String, edits: &[(usize, u8, u8)]) -> String {
    String::from_utf8_lossy(&mutate(text.into_bytes(), edits)).into_owned()
}

fn arb_result() -> impl Strategy<Value = JobResult> {
    (arb_string(), arb_output(), any::<f64>()).prop_map(|(spec, output, elapsed_secs)| JobResult {
        spec,
        output,
        elapsed_secs,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A panic-free boundary for the binary decoders: noise and
    /// byte-mutated encodings of every frame decode to a frame or a
    /// typed error, and whatever decodes re-encodes to the same frame.
    #[test]
    fn binary_decoders_never_panic(
        noise in proptest::collection::vec(any::<u8>(), 0..64),
        server in arb_server_frame(),
        client in arb_client_frame(),
        edits in arb_edits(),
    ) {
        for bytes in [
            noise,
            mutate(codec::encode_server(&server), &edits),
            mutate(codec::encode_client(&client), &edits),
        ] {
            if let Ok(frame) = codec::decode_server(&bytes) {
                let again = codec::decode_server(&codec::encode_server(&frame)).unwrap();
                prop_assert_eq!(format!("{again:?}"), format!("{frame:?}"));
            }
            if let Ok(frame) = codec::decode_client(&bytes) {
                let again = codec::decode_client(&codec::encode_client(&frame)).unwrap();
                prop_assert_eq!(again, frame);
            }
        }
    }

    /// The same boundary for the text parsers: wire-alphabet noise and
    /// byte-mutated printed frames and results parse to a value or a
    /// typed error, and whatever parses prints to a line that parses
    /// back to it.
    #[test]
    fn text_decoders_never_panic(
        noise in proptest::collection::vec(arb_wire_byte(), 0..80),
        server in arb_server_frame(),
        client in arb_client_frame(),
        result in arb_result(),
        edits in arb_edits(),
    ) {
        for line in [
            String::from_utf8_lossy(&noise).into_owned(),
            mutate_text(server.to_string(), &edits),
            mutate_text(client.to_string(), &edits),
            mutate_text(result.to_string(), &edits),
        ] {
            if let Ok(frame) = line.parse::<ServerFrame>() {
                let again: ServerFrame = frame.to_string().parse().unwrap();
                prop_assert_eq!(format!("{again:?}"), format!("{frame:?}"));
            }
            if let Ok(frame) = line.parse::<ClientFrame>() {
                let again: ClientFrame = frame.to_string().parse().unwrap();
                prop_assert_eq!(again, frame);
            }
            if let Ok(result) = line.parse::<JobResult>() {
                let again: JobResult = result.to_string().parse().unwrap();
                prop_assert_eq!(format!("{again:?}"), format!("{result:?}"));
            }
        }
    }
}
