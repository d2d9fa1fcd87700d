//! The serving paths wait on events, not on timers: a server's accept
//! loop blocks in `accept` and is woken by `shutdown`, and a cluster
//! sweep's idle worker threads wait on the plain-member queue until a
//! member is requeued or the last one resolves. Each test runs under a
//! watchdog, so a missed wake-up fails the test instead of hanging the
//! suite. The tests run one at a time, each wholly inside its
//! watchdog: one of them counts the process's threads.

use lsl_core::cluster::{ClusterEvent, Coordinator};
use lsl_core::lifecycle::Limits;
use lsl_core::net::Server;
use lsl_core::service::Service;
use lsl_core::spec::SweepSpec;
use std::sync::mpsc::RecvTimeoutError;
use std::sync::Mutex;
use std::time::{Duration, Instant};

const WATCHDOG: Duration = Duration::from_secs(60);

/// Serializes this file's tests.
static SERIAL: Mutex<()> = Mutex::new(());

/// Runs `body` on its own thread, failing if it has not returned within
/// [`WATCHDOG`]; a panic in `body` is re-raised.
fn within<T: Send + 'static>(body: impl FnOnce() -> T + Send + 'static) -> T {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let (tx, rx) = std::sync::mpsc::channel();
    let handle = std::thread::spawn(move || {
        let _ = tx.send(body());
    });
    match rx.recv_timeout(WATCHDOG) {
        Ok(value) => {
            let _ = handle.join();
            value
        }
        Err(RecvTimeoutError::Disconnected) => {
            std::panic::resume_unwind(handle.join().expect_err("body ended without a value"))
        }
        Err(RecvTimeoutError::Timeout) => panic!("still running after {WATCHDOG:?}"),
    }
}

/// The `Threads:` line of `/proc/self/status`.
#[cfg(target_os = "linux")]
fn threads() -> usize {
    let status = std::fs::read_to_string("/proc/self/status").unwrap();
    status
        .lines()
        .find_map(|l| l.strip_prefix("Threads:"))
        .and_then(|n| n.trim().parse().ok())
        .expect("a Threads: line")
}

/// Binding and dropping a server joins every thread it started: the
/// accept loop, blocked in `accept`, is woken rather than leaked.
#[cfg(target_os = "linux")]
#[test]
fn bind_drop_cycles_leave_no_threads_behind() {
    within(|| {
        let baseline = threads();
        for cycle in 0..200 {
            let bind = if cycle % 2 == 0 {
                "127.0.0.1:0"
            } else {
                "0.0.0.0:0"
            };
            drop(Server::bind(bind, 1).unwrap());
        }
        // A joined thread can linger in the kernel for a moment.
        let deadline = Instant::now() + Duration::from_secs(10);
        while threads() > baseline {
            assert!(
                Instant::now() < deadline,
                "{} threads after 200 bind/drop cycles, {baseline} before",
                threads()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    });
}

/// Runs `line` on the fleet `servers` and checks the aggregate against
/// a single in-process service.
fn coordinate(servers: &[Server], line: &str) -> Vec<ClusterEvent> {
    let addrs: Vec<String> = servers.iter().map(|s| s.local_addr().to_string()).collect();
    let run = Coordinator::connect(addrs)
        .unwrap()
        .run_sweep(line)
        .unwrap();
    let sweep: SweepSpec = line.parse().unwrap();
    let local = Service::new(1).submit_sweep(&sweep).wait().unwrap();
    assert_eq!(run.result, local, "{line}");
    run.events
}

/// Fewer plain members than workers: the threads that find nothing to
/// claim wait, and leave when the last member resolves.
#[test]
fn sweep_with_fewer_members_than_workers_returns() {
    within(|| {
        let servers: Vec<Server> = (0..3)
            .map(|_| Server::bind("127.0.0.1:0", 1).unwrap())
            .collect();
        for line in [
            "graph=cycle:10 model=coloring:q=5 seed=3 job=run:rounds=10",
            "graph=cycle:10 model=coloring:q=5 job=run:rounds=10 seeds=0..2",
        ] {
            assert!(coordinate(&servers, line).is_empty());
        }
    });
}

/// A worker that declines every job (its session cap is zero) hands
/// each member it claims back to the queue; the healthy worker, waiting
/// once the queue runs dry, must be woken for each of them.
#[test]
fn requeued_members_reach_a_waiting_worker() {
    within(|| {
        let busy = Limits {
            per_session_inflight: 0,
            ..Limits::default()
        };
        let servers = [
            Server::bind_service("127.0.0.1:0", Service::with_limits(1, busy)).unwrap(),
            Server::bind("127.0.0.1:0", 1).unwrap(),
        ];
        let events = coordinate(
            &servers,
            "graph=torus:6x6 model=coloring:q=10 job=run:rounds=100 seeds=0..16",
        );
        assert!(
            events
                .iter()
                .any(|e| matches!(e, ClusterEvent::Requeued { .. })),
            "the declining worker claimed no member: {events:?}"
        );
    });
}
