//! Fault injection for the job lifecycle: bounded admission under
//! burst load, cooperative cancellation (in-process, over the wire,
//! and implied by a client disconnect), abandoned-handle slot
//! reclamation, and graceful server drain. The invariants under test:
//!
//! * admission is deterministic — a burst over the queue cap yields an
//!   exact accept/reject split, every rejection typed;
//! * a cancelled job terminates with [`JobEvent::Cancelled`] within
//!   one progress interval, on every backend;
//! * dropping the last handle of a *queued* job frees its queue slot
//!   immediately and the job never executes (the result store is the
//!   witness);
//! * a session survives malformed frames mid-job and dies cleanly
//!   (cancelling its jobs) when its client disconnects;
//! * a drained server stops accepting and joins every session;
//! * build-time rejections (a CSP on a distributed backend) cross the
//!   wire as the same typed error the in-process run returns.

use lsl_core::lifecycle::{Limits, RejectReason};
use lsl_core::net::{Client, Server};
use lsl_core::proto::ServerFrame;
use lsl_core::sampler::BuildError;
use lsl_core::service::{JobEvent, Service};
use lsl_core::spec::{JobSpec, SpecError};
use lsl_core::store::ResultStore;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// A job that runs effectively forever (a million coalescence trials)
/// but observes its progress sink at sub-millisecond intervals — the
/// ideal cancellation target: unbounded work, instant preemption.
const BLOCKER: &str =
    "graph=cycle:8 model=coloring:q=4 seed=9 job=coalescence:trials=1000000,max-rounds=2000";

/// A job that completes in well under a second.
const QUICK: &str = "graph=cycle:8 model=coloring:q=5 seed=1 job=run:rounds=10";

fn spec(s: &str) -> JobSpec {
    s.parse().expect("test specs are well-formed")
}

/// A per-test scratch directory under the system temp dir.
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("lsl-lifecycle-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Reads server frames until `stop` returns true; panics on EOF.
fn read_until(reader: &mut BufReader<TcpStream>, mut stop: impl FnMut(&ServerFrame) -> bool) {
    let mut line = String::new();
    loop {
        line.clear();
        assert!(
            reader.read_line(&mut line).expect("read a frame") > 0,
            "server hung up mid-stream"
        );
        let frame: ServerFrame = line.trim_end().parse().expect("server speaks the protocol");
        if stop(&frame) {
            return;
        }
    }
}

/// A 64-job burst against `queue_cap=3` with the single worker pinned
/// by a blocker: exactly 3 admissions, exactly 61 typed rejections —
/// and the admitted jobs still run to completion once the blocker is
/// cancelled.
#[test]
fn burst_over_the_queue_cap_splits_deterministically() {
    let service = Service::with_limits(
        1,
        Limits {
            queue_cap: 3,
            ..Limits::default()
        },
    );
    let blocker = service.submit(spec(BLOCKER));
    let blocker_ctl = blocker.cancel_token();
    let mut blocker_events = blocker.events();
    // Once `Started` is seen the worker has dequeued the blocker and
    // given its queue slot back: all 3 slots are free, deterministically.
    for event in &mut blocker_events {
        if matches!(event, JobEvent::Started) {
            break;
        }
    }
    let handles: Vec<_> = (0..64)
        .map(|seed| {
            service.submit(spec(&format!(
                "graph=cycle:8 model=coloring:q=5 seed={seed} job=run:rounds=10"
            )))
        })
        .collect();
    assert_eq!(service.queued_jobs(), 3, "the cap bounds the queue");
    blocker_ctl.cancel();
    assert!(
        blocker_events.any(|e| matches!(e, JobEvent::Cancelled)),
        "the blocker must terminate as cancelled"
    );
    let (mut finished, mut rejected) = (0, 0);
    for handle in handles {
        match handle.wait() {
            Ok(_) => finished += 1,
            Err(SpecError::Rejected(RejectReason::QueueFull { cap })) => {
                assert_eq!(cap, 3);
                rejected += 1;
            }
            Err(other) => panic!("unexpected terminal: {other}"),
        }
    }
    assert_eq!((finished, rejected), (3, 61));
    assert_eq!(service.queued_jobs(), 0);
}

/// A spec whose round budget exceeds the service's cap is rejected
/// before it touches the queue; the same spec within budget runs.
#[test]
fn round_budget_rejects_before_queueing() {
    let service = Service::with_limits(
        1,
        Limits {
            max_rounds: 1000,
            ..Limits::default()
        },
    );
    let over = service.submit(spec(
        "graph=cycle:8 model=coloring:q=5 seed=1 job=run:rounds=2000",
    ));
    match over.wait() {
        Err(SpecError::Rejected(RejectReason::RoundBudget { budget, cap })) => {
            assert_eq!((budget, cap), (2000, 1000));
        }
        other => panic!("expected a round-budget rejection, got {other:?}"),
    }
    assert_eq!(service.queued_jobs(), 0, "rejection must not hold a slot");
    let within = service.submit(spec(
        "graph=cycle:8 model=coloring:q=5 seed=1 job=run:rounds=999",
    ));
    assert!(within.wait().is_ok());
}

/// Cancelling a running job lands within one progress interval on
/// every backend: after the cancel, at most a stray in-flight progress
/// event or two, then the `Cancelled` terminal — never a `Finished`.
#[test]
fn cancel_lands_within_one_progress_interval_on_every_backend() {
    for backend in ["", " backend=parallel:2", " backend=sharded:2"] {
        let job: JobSpec = spec(&format!(
            "graph=torus:8x8 model=coloring:q=16 seed=3{backend} job=run:rounds=80000"
        ));
        let service = Service::with_limits(1, Limits::default());
        let handle = service.submit(job);
        let token = handle.cancel_token();
        let mut cancelled_at: Option<Instant> = None;
        let mut progress_after_cancel = 0u32;
        let mut terminal = None;
        for event in handle.events() {
            match event {
                JobEvent::Progress { .. } => {
                    if cancelled_at.is_none() {
                        token.cancel();
                        cancelled_at = Some(Instant::now());
                    } else {
                        progress_after_cancel += 1;
                    }
                }
                event if event.is_terminal() => {
                    terminal = Some(event);
                    break;
                }
                _ => {}
            }
        }
        let cancelled_at = cancelled_at
            .unwrap_or_else(|| panic!("job finished before any progress tick ({backend:?})"));
        assert!(
            matches!(terminal, Some(JobEvent::Cancelled)),
            "{backend:?}: expected Cancelled, got {terminal:?}"
        );
        assert!(
            progress_after_cancel <= 2,
            "{backend:?}: {progress_after_cancel} progress events after cancel"
        );
        assert!(
            cancelled_at.elapsed() < Duration::from_secs(10),
            "{backend:?}: cancellation took {:?}",
            cancelled_at.elapsed()
        );
    }
}

/// The abandoned-handle contract: dropping the last handle of a
/// *queued* job frees its queue slot immediately and the job never
/// executes. The disk store is the witness — an executed job would
/// have written its result through.
#[test]
fn dropping_the_last_handle_of_a_queued_job_frees_the_slot_and_never_runs() {
    let dir = scratch("abandon");
    let service = Service::with_store(
        1,
        Limits {
            queue_cap: 1,
            ..Limits::default()
        },
        ResultStore::open(&dir).expect("open the scratch store"),
    );
    let blocker = service.submit(spec(BLOCKER));
    let blocker_ctl = blocker.cancel_token();
    let mut blocker_events = blocker.events();
    for event in &mut blocker_events {
        if matches!(event, JobEvent::Started) {
            break;
        }
    }
    let abandoned_spec = spec("graph=cycle:9 model=coloring:q=5 seed=7 job=run:rounds=20");
    let abandoned_key = abandoned_spec.to_string();
    let queued = service.submit(abandoned_spec);
    assert_eq!(service.queued_jobs(), 1, "the queued job holds the slot");
    // The single slot is taken: an extra submission bounces.
    let extra = service.submit(spec(
        "graph=cycle:9 model=coloring:q=5 seed=8 job=run:rounds=20",
    ));
    assert!(matches!(
        extra.wait(),
        Err(SpecError::Rejected(RejectReason::QueueFull { cap: 1 }))
    ));
    // Dropping the last handle abandons the queued job: the slot comes
    // back synchronously, before any worker touches the task.
    drop(queued);
    assert_eq!(service.queued_jobs(), 0, "abandonment must free the slot");
    let ran_spec = spec("graph=cycle:9 model=coloring:q=5 seed=9 job=run:rounds=20");
    let ran_key = ran_spec.to_string();
    let ran = service.submit(ran_spec);
    blocker_ctl.cancel();
    assert!(ran.wait().is_ok(), "the freed slot admits a new job");
    drop(service);
    let store = ResultStore::open(&dir).expect("reopen the store");
    assert!(store.exists(&ran_key), "the finished job wrote through");
    assert!(
        !store.exists(&abandoned_key),
        "an abandoned job must never execute"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

/// A client that disconnects mid-stream gets its running job cancelled
/// and its session reclaimed: with a single worker, a fresh client's
/// job can only complete if the orphaned blocker was preempted.
#[test]
fn client_disconnect_cancels_its_jobs_and_reclaims_the_session() {
    let server = Server::bind_service("127.0.0.1:0", Service::with_limits(1, Limits::default()))
        .expect("bind");
    {
        let stream = TcpStream::connect(server.local_addr()).expect("connect");
        let mut writer = stream.try_clone().expect("clone");
        let mut reader = BufReader::new(stream);
        writeln!(writer, "submit id=1 spec={BLOCKER}").unwrap();
        // A progress frame proves the blocker is *running* (not queued)
        // when the connection dies.
        read_until(&mut reader, |frame| {
            matches!(
                frame,
                ServerFrame::Event {
                    event: JobEvent::Progress { .. },
                    ..
                }
            )
        });
    } // Both halves of the socket drop: the client is gone.
    let mut client = Client::connect(server.local_addr()).expect("reconnect");
    client.submit(QUICK).unwrap();
    let outcomes = client.drain().expect("the worker was freed");
    assert!(outcomes[0].is_ok(), "{:?}", outcomes[0].members);
    assert_eq!(server.service().queued_jobs(), 0);
}

/// Malformed frames and cancellations mid-job: the session answers
/// garbage with a typed error while the job's events keep streaming,
/// honours `cancel id=N` with a terminal `cancelled` event, rejects a
/// cancel for an unknown id — and still serves the next job.
#[test]
fn malformed_frames_and_wire_cancel_mid_job_keep_the_session() {
    let server = Server::bind_service("127.0.0.1:0", Service::with_limits(1, Limits::default()))
        .expect("bind");
    let stream = TcpStream::connect(server.local_addr()).expect("connect");
    let mut writer = stream.try_clone().expect("clone");
    let mut reader = BufReader::new(stream);
    writeln!(writer, "submit id=1 spec={BLOCKER}").unwrap();
    read_until(&mut reader, |frame| {
        matches!(
            frame,
            ServerFrame::Event {
                id: 1,
                event: JobEvent::Progress { .. },
                ..
            }
        )
    });
    // Garbage mid-job: a typed session-level error, job keeps running.
    writeln!(writer, "!!! not a frame").unwrap();
    read_until(&mut reader, |frame| match frame {
        ServerFrame::Error { id: None, .. } => true,
        ServerFrame::Event { id: 1, .. } => false,
        other => panic!("unexpected frame: {other:?}"),
    });
    // Cancel over the wire: the job ends with a `cancelled` terminal.
    writeln!(writer, "cancel id=1").unwrap();
    read_until(&mut reader, |frame| match frame {
        ServerFrame::Event {
            id: 1,
            event: JobEvent::Cancelled,
            ..
        } => true,
        ServerFrame::Event { id: 1, .. } => false,
        other => panic!("unexpected frame: {other:?}"),
    });
    // Cancelling an id this session never submitted: typed, id-tagged.
    writeln!(writer, "cancel id=99").unwrap();
    read_until(&mut reader, |frame| match frame {
        ServerFrame::Error { id: Some(99), .. } => true,
        other => panic!("unexpected frame: {other:?}"),
    });
    // The same connection still serves jobs to completion.
    writeln!(writer, "submit id=2 spec={QUICK}").unwrap();
    read_until(&mut reader, |frame| {
        matches!(
            frame,
            ServerFrame::Event {
                id: 2,
                event: JobEvent::Finished(_),
                ..
            }
        )
    });
}

/// Session-level admission over the wire: with `per_session_inflight`
/// = 1 a second unresolved line is rejected as `session-busy`, and
/// [`Client::cancel`] resolves the first as [`SpecError::Cancelled`].
#[test]
fn session_inflight_cap_and_client_cancel_over_the_wire() {
    let service = Service::with_limits(
        1,
        Limits {
            per_session_inflight: 1,
            ..Limits::default()
        },
    );
    let server = Server::bind_service("127.0.0.1:0", service).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    let blocker_id = client.submit(BLOCKER).unwrap();
    let busy_id = client.submit(QUICK).unwrap();
    client.cancel(blocker_id).unwrap();
    let outcomes = client.drain().expect("drain");
    assert_eq!(outcomes[0].id, blocker_id);
    assert!(
        matches!(outcomes[0].members[0], Err(SpecError::Cancelled)),
        "{:?}",
        outcomes[0].members
    );
    assert_eq!(outcomes[1].id, busy_id);
    assert!(
        matches!(
            outcomes[1].members[0],
            Err(SpecError::Rejected(RejectReason::SessionBusy { cap: 1 }))
        ),
        "{:?}",
        outcomes[1].members
    );
}

/// A service-level rejection (round budget) crosses the wire as the
/// same typed reason the in-process caller would see.
#[test]
fn round_budget_rejection_rides_the_wire_typed() {
    let service = Service::with_limits(
        1,
        Limits {
            max_rounds: 50,
            ..Limits::default()
        },
    );
    let server = Server::bind_service("127.0.0.1:0", service).expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    client
        .submit("graph=cycle:8 model=coloring:q=5 seed=1 job=run:rounds=100")
        .unwrap();
    let outcomes = client.drain().expect("drain");
    assert!(
        matches!(
            outcomes[0].members[0],
            Err(SpecError::Rejected(RejectReason::RoundBudget {
                budget: 100,
                cap: 50
            }))
        ),
        "{:?}",
        outcomes[0].members
    );
}

/// A CSP on `sharded:k` or `cluster:k` fails to build with a typed
/// error instead of silently running sequentially — the same error in
/// process and over a loopback session.
#[test]
fn csp_on_distributed_backends_is_one_typed_error_locally_and_remotely() {
    let server = Server::bind_service("127.0.0.1:0", Service::with_limits(1, Limits::default()))
        .expect("bind");
    let mut client = Client::connect(server.local_addr()).expect("connect");
    for backend in ["sharded:2", "cluster:2"] {
        let line =
            format!("graph=cycle:12 model=dominating-set backend={backend} job=run:rounds=10");
        let local = spec(&line).run().expect_err("CSPs run sequentially only");
        assert!(
            matches!(local, SpecError::Combo(BuildError::UnsupportedOnCsp { .. })),
            "{local:?}"
        );
        client.submit(&line).unwrap();
        let outcomes = client.drain().expect("drain");
        match &outcomes[0].members[..] {
            [Err(remote)] => assert_eq!(*remote, local, "{line}"),
            other => panic!("{line}: {other:?}"),
        }
    }
}

/// The `shutdown` admin frame latches the request; an explicit drain
/// then leaves nothing listening on the port.
#[test]
fn shutdown_frame_drains_and_the_server_stops_listening() {
    let mut server =
        Server::bind_service("127.0.0.1:0", Service::with_limits(1, Limits::default()))
            .expect("bind");
    let addr = server.local_addr();
    let mut client = Client::connect(addr).expect("connect");
    client.submit(QUICK).unwrap();
    let outcomes = client.drain().expect("drain before shutdown");
    assert!(outcomes[0].is_ok());
    client.request_shutdown().unwrap();
    let deadline = Instant::now() + Duration::from_secs(5);
    while !server.shutdown_requested() {
        assert!(
            Instant::now() < deadline,
            "the shutdown frame never latched"
        );
        std::thread::sleep(Duration::from_millis(10));
    }
    server.shutdown(Duration::from_millis(200));
    assert!(
        TcpStream::connect(addr).is_err(),
        "a drained server must not accept connections"
    );
}
