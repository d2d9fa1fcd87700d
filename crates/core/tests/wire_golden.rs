//! Golden wire frames: for one fixed value of every frame, event and
//! output variant, the exact text line and the exact binary record
//! (hex). A codec change that alters a single byte of either form
//! fails here, so the frozen wire format cannot drift silently.

use lsl_core::codec::{self, Codec, StateBlob};
use lsl_core::lifecycle::RejectReason;
use lsl_core::proto::{ClientFrame, ServerFrame};
use lsl_core::service::JobEvent;
use lsl_core::spec::{CommSummary, JobOutput, JobResult, SpecError};
use lsl_core::store::ResultStore;

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Parses the pinned hex, ignoring the spaces that separate fields.
fn unhex(s: &str) -> Vec<u8> {
    let s: String = s.split_whitespace().collect();
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

const SPEC: &str = "graph=cycle:6 model=coloring:q=3 seed=1";

/// The binary result envelope ahead of the output: the spec as a
/// length-prefixed string, then `elapsed_secs` (0.25) as `f64` bits.
const RESULT_HEAD: &str = "27000000 \
    67726170683d6379636c653a36206d6f64656c3d636f6c6f72696e673a713d3320736565643d31 \
    000000000000d03f";

fn result(output: JobOutput) -> JobResult {
    JobResult {
        spec: SPEC.into(),
        output,
        elapsed_secs: 0.25,
    }
}

fn run_output(comm: Option<CommSummary>) -> JobOutput {
    JobOutput::Run {
        rounds: 30,
        n: 36,
        feasible: true,
        fingerprint: 0xdead_beef,
        comm,
    }
}

fn comm() -> CommSummary {
    CommSummary {
        rounds_seen: 30,
        total_messages: 1200,
        total_bytes: 2400,
        total_changed: 7,
    }
}

fn check_client(frame: ClientFrame, text: &str, bin: &str) {
    assert_eq!(frame.to_string(), text);
    assert_eq!(text.parse::<ClientFrame>().unwrap(), frame, "{text}");
    assert_eq!(
        hex(&codec::encode_client(&frame)),
        hex(&unhex(bin)),
        "{text}"
    );
    assert_eq!(codec::decode_client(&unhex(bin)).unwrap(), frame, "{text}");
}

fn check_server(frame: ServerFrame, text: &str, bin: &str) {
    assert_eq!(frame.to_string(), text);
    assert_eq!(text.parse::<ServerFrame>().unwrap(), frame, "{text}");
    assert_eq!(
        hex(&codec::encode_server(&frame)),
        hex(&unhex(bin)),
        "{text}"
    );
    assert_eq!(codec::decode_server(&unhex(bin)).unwrap(), frame, "{text}");
}

/// An event's text is its own `Display`; its binary form is pinned
/// inside the `event id=1 index=2` server frame that carries it.
fn check_event(event: JobEvent, text: &str, bin: &str) {
    assert_eq!(event.to_string(), text);
    assert_eq!(text.parse::<JobEvent>().unwrap(), event, "{text}");
    check_server(
        ServerFrame::Event {
            id: 1,
            index: 2,
            event,
        },
        &format!("event id=1 index=2 {text}"),
        &format!("82 0100000000000000 0200000000000000 {bin}"),
    );
}

/// An output's text is pinned inside its result line; its binary form
/// inside the `finished` event frame that carries the result.
fn check_output(output: JobOutput, text: &str, bin: &str) {
    let result = result(output);
    assert_eq!(result.to_string(), text);
    let back: JobResult = text.parse().unwrap();
    assert_eq!(back, result, "{text}");
    assert_eq!(back.elapsed_secs.to_bits(), result.elapsed_secs.to_bits());
    check_event(
        JobEvent::Finished(result),
        &format!("finished {text}"),
        &format!("05 {RESULT_HEAD} {bin}"),
    );
}

/// The 5-vertex Ising blob `1 0 1 1 0` packs into one byte, `0x0d`.
fn bits() -> StateBlob {
    StateBlob::pack(&[1, 0, 1, 1, 0], 2)
}

/// A q=3 coloring packs one byte per vertex.
fn bytes() -> StateBlob {
    StateBlob::pack(&[0, 2, 1, 2, 0, 1], 3)
}

#[test]
fn client_frames_are_pinned() {
    check_client(
        ClientFrame::Submit {
            id: 7,
            spec: "graph=cycle:6 model=coloring:q=3".into(),
        },
        "submit id=7 spec=graph=cycle:6 model=coloring:q=3",
        "01 0700000000000000 20000000 \
         67726170683d6379636c653a36206d6f64656c3d636f6c6f72696e673a713d33",
    );
    check_client(
        ClientFrame::Cancel { id: 7 },
        "cancel id=7",
        "02 0700000000000000",
    );
    check_client(ClientFrame::Shutdown, "shutdown", "03");
    check_client(
        ClientFrame::Hello {
            codec: Codec::Binary,
        },
        "hello codec=binary",
        "04 01",
    );
    check_client(
        ClientFrame::Ping { nonce: 42 },
        "ping nonce=42",
        "05 2a00000000000000",
    );
    check_client(
        ClientFrame::ShardInit {
            id: 3,
            shard: 1,
            of: 4,
            spec: "graph=cycle:8 model=ising:beta=0.4 backend=cluster:4".into(),
        },
        "shard-init id=3 shard=1 of=4 spec=graph=cycle:8 model=ising:beta=0.4 backend=cluster:4",
        "06 0300000000000000 01000000 04000000 34000000 \
         67726170683d6379636c653a38206d6f64656c3d6973696e673a626574613d302e34\
         206261636b656e643d636c75737465723a34",
    );
    check_client(
        ClientFrame::ShardSync {
            id: 3,
            round: 7,
            blob: bits(),
        },
        "shard-sync id=3 round=7 blob=5/2/DQ",
        "07 0300000000000000 0700000000000000 \
         0500000000000000 0200000000000000 01000000 0d",
    );
}

#[test]
fn server_frames_are_pinned() {
    check_server(
        ServerFrame::Submitted { id: 7, jobs: 4 },
        "submitted id=7 jobs=4",
        "81 0700000000000000 0400000000000000",
    );
    check_server(
        ServerFrame::Event {
            id: 7,
            index: 3,
            event: JobEvent::Started,
        },
        "event id=7 index=3 started",
        "82 0700000000000000 0300000000000000 03",
    );
    check_server(
        ServerFrame::Error {
            id: Some(3),
            message: "unknown model \"isng\"".into(),
        },
        "error id=3 message=unknown%20model%20\"isng\"",
        "83 01 0300000000000000 14000000 756e6b6e6f776e206d6f64656c202269736e6722",
    );
    check_server(
        ServerFrame::Error {
            id: None,
            message: "malformed frame: 100%".into(),
        },
        "error id=- message=malformed%20frame%3A%20100%25",
        "83 00 15000000 6d616c666f726d6564206672616d653a2031303025",
    );
    check_server(
        ServerFrame::Hello { codec: Codec::Text },
        "hello codec=text",
        "84 00",
    );
    check_server(
        ServerFrame::Pong { nonce: 42 },
        "pong nonce=42",
        "85 2a00000000000000",
    );
    check_server(
        ServerFrame::ShardSync {
            id: 3,
            round: 7,
            blob: bits(),
        },
        "shard-sync id=3 round=7 blob=5/2/DQ",
        "86 0300000000000000 0700000000000000 \
         0500000000000000 0200000000000000 01000000 0d",
    );
    check_server(
        ServerFrame::ShardDone {
            id: 3,
            rounds: 30,
            blob: bytes(),
        },
        "shard-done id=3 rounds=30 blob=6/3/AAIBAgAB",
        "87 0300000000000000 1e00000000000000 \
         0600000000000000 0300000000000000 06000000 000201020001",
    );
}

/// Every event but `finished`, which [`job_outputs_are_pinned`]
/// covers once per output kind.
#[test]
fn job_events_are_pinned() {
    check_event(JobEvent::Accepted, "accepted", "01");
    check_event(
        JobEvent::Rejected {
            reason: RejectReason::RoundBudget {
                budget: 500,
                cap: 100,
            },
        },
        "rejected round-budget:budget=500,cap=100",
        "02 1f000000 726f756e642d6275646765743a6275646765743d3530302c6361703d313030",
    );
    check_event(JobEvent::Started, "started", "03");
    check_event(
        JobEvent::Progress { round: 3, of: 10 },
        "progress round=3 of=10",
        "04 0300000000000000 0a00000000000000",
    );
    check_event(
        JobEvent::Failed(SpecError::BadValue {
            key: "q".into(),
            message: "must be ≥ 2".into(),
        }),
        "failed bad-value:key=q,message=must%20be%20%E2%89%A5%202",
        "06 31000000 \
         6261642d76616c75653a6b65793d712c6d6573736167653d6d7573742532306265\
         25323025453225383925413525323032",
    );
    check_event(JobEvent::Cancelled, "cancelled", "07");
    check_event(
        JobEvent::State {
            round: 4,
            blob: bytes(),
        },
        "state round=4 blob=6/3/AAIBAgAB",
        "08 0400000000000000 0600000000000000 0300000000000000 06000000 000201020001",
    );
}

#[test]
fn job_outputs_are_pinned() {
    check_output(
        run_output(Some(comm())),
        "elapsed=0.25 output=run:rounds=30,n=36,feasible=true,fingerprint=00000000deadbeef,\
         comm=30/1200/2400/7 spec=graph=cycle:6 model=coloring:q=3 seed=1",
        "01 1e00000000000000 2400000000000000 01 efbeadde00000000 \
         01 1e00000000000000 b004000000000000 6009000000000000 0700000000000000",
    );
    check_output(
        run_output(None),
        "elapsed=0.25 output=run:rounds=30,n=36,feasible=true,fingerprint=00000000deadbeef \
         spec=graph=cycle:6 model=coloring:q=3 seed=1",
        "01 1e00000000000000 2400000000000000 01 efbeadde00000000 00",
    );
    check_output(
        JobOutput::Distribution {
            replicas: 2000,
            support: 81,
        },
        "elapsed=0.25 output=distribution:replicas=2000,support=81 \
         spec=graph=cycle:6 model=coloring:q=3 seed=1",
        "02 d007000000000000 5100000000000000",
    );
    check_output(
        JobOutput::Tv {
            rounds: 40,
            replicas: 2000,
            tv: 0.1 + 0.2,
        },
        "elapsed=0.25 output=tv:rounds=40,replicas=2000,tv=0.30000000000000004 \
         spec=graph=cycle:6 model=coloring:q=3 seed=1",
        "03 2800000000000000 d007000000000000 343333333333d33f",
    );
    check_output(
        JobOutput::Coalescence {
            trials: 16,
            mean_rounds: 12.5,
            std_error: 0.75,
            timeouts: 1,
        },
        "elapsed=0.25 output=coalescence:trials=16,mean-rounds=12.5,std-error=0.75,timeouts=1 \
         spec=graph=cycle:6 model=coloring:q=3 seed=1",
        "04 1000000000000000 0000000000002940 000000000000e83f 0100000000000000",
    );
    check_output(
        JobOutput::Sample {
            rounds: 10,
            states: vec![bits(), StateBlob::pack(&[300, 0], 301)],
        },
        "elapsed=0.25 output=sample:rounds=10,states=5/2/DQ;2/301/LAEAAAAAAAA \
         spec=graph=cycle:6 model=coloring:q=3 seed=1",
        "05 0a00000000000000 02000000 \
         0500000000000000 0200000000000000 01000000 0d \
         0200000000000000 2d01000000000000 08000000 2c01000000000000",
    );
    check_output(
        JobOutput::Sample {
            rounds: 10,
            states: vec![],
        },
        "elapsed=0.25 output=sample:rounds=10,states= spec=graph=cycle:6 model=coloring:q=3 seed=1",
        "05 0a00000000000000 00000000",
    );
    check_output(
        JobOutput::Stream {
            rounds: 10,
            every: 2,
            n: 6,
            states: 5,
            fingerprint: 0x0123_4567_89ab_cdef,
        },
        "elapsed=0.25 output=stream:rounds=10,every=2,n=6,states=5,fingerprint=0123456789abcdef \
         spec=graph=cycle:6 model=coloring:q=3 seed=1",
        "06 0a00000000000000 0200000000000000 0600000000000000 0500000000000000 \
         efcdab8967452301",
    );
}

/// A store entry is the version header plus the result's text line.
#[test]
fn store_entry_is_pinned() {
    let dir = std::env::temp_dir().join(format!("lsl-wire-golden-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let store = ResultStore::open(&dir).unwrap();
    let entry = result(run_output(Some(comm())));
    store.put(&entry).unwrap();
    let files: Vec<_> = std::fs::read_dir(&dir)
        .unwrap()
        .map(|e| e.unwrap().path())
        .collect();
    assert_eq!(files.len(), 1, "{files:?}");
    assert_eq!(
        std::fs::read_to_string(&files[0]).unwrap(),
        "#lsl-store-v2\n\
         elapsed=0.25 output=run:rounds=30,n=36,feasible=true,fingerprint=00000000deadbeef,\
         comm=30/1200/2400/7 spec=graph=cycle:6 model=coloring:q=3 seed=1\n"
    );
    let back = store.get(SPEC).unwrap();
    assert_eq!(back, entry);
    assert_eq!(back.elapsed_secs.to_bits(), entry.elapsed_secs.to_bits());
    std::fs::remove_dir_all(&dir).unwrap();
}
