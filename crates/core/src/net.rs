//! The network front end: the service's event-streaming job protocol
//! over TCP (`std::net`, one session per connection, line-delimited
//! [`proto`](crate::proto) frames).
//!
//! * [`Server::bind`] starts an accept loop over a shared
//!   [`Service`]. The loop blocks in `accept`, so a new connection is
//!   served at once; [`Server::shutdown`] wakes it with one
//!   self-connect (on loopback when the server is bound to an
//!   unspecified address such as `0.0.0.0` or `::`). Each connection
//!   gets a session thread that parses
//!   [`ClientFrame`]s, expands sweep lines, submits member jobs, and
//!   forwards every [`JobEvent`] back as a [`ServerFrame::Event`].
//!   Multiple jobs per session run **concurrently** — frames of
//!   different jobs interleave; frames of one job keep the service's
//!   event order. A malformed line is answered with a typed
//!   [`ServerFrame::Error`] and the session stays alive.
//! * Lifecycle over the wire: a `cancel id=N` frame cancels a line's
//!   member jobs (each answers with a terminal
//!   [`JobEvent::Cancelled`]); a `shutdown` frame latches
//!   [`Server::shutdown_requested`] so the process driving the server
//!   can call [`Server::shutdown`]. A draining server rejects new
//!   submissions with [`RejectReason::Draining`]; a session over its
//!   configured in-flight cap rejects with
//!   [`RejectReason::SessionBusy`] — both without touching the
//!   service queue. A client that disconnects mid-stream gets its
//!   remaining jobs cancelled and its session thread reclaimed.
//! * [`Client::connect`] speaks the other side: submit any number of
//!   lines, then [`Client::drain`] demultiplexes the event streams
//!   into per-line [`RemoteOutcome`]s.
//!
//! **Determinism over TCP**: the wire codec round-trips results
//! bit-identically (shortest-round-trip floats, escaped strings) and
//! the server runs jobs through the same [`Service`] path as
//! in-process callers, so a remote answer equals the in-process answer
//! exactly — property-tested in `tests/remote_identity.rs`, including
//! concurrent multi-client batches.
//!
//! **Codec negotiation**: sessions start on the text codec. A client
//! `hello codec=binary` frame switches the session to the
//! length-prefixed binary codec ([`codec`]): the server
//! acks in the old codec under the writer lock, then both directions
//! speak binary — the path that makes full-state delivery
//! ([`JobEvent::State`]) cheap. Text sessions remain fully supported
//! (blobs fall back to base64url tokens), and both codecs answer
//! bit-identical outcomes (`tests/codec_identity.rs`).

use crate::codec::{self, Codec, CodecError, Frame, FrameError, StateBlob};
use crate::lifecycle::{CancelToken, RejectReason};
use crate::proto::{ClientFrame, ServerFrame, WireError};
use crate::service::{JobEvent, Service};
use crate::spec::{JobResult, SpecError, SweepResult, SweepSpec};
use std::collections::HashMap;
use std::io::Read;
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a session blocks on its socket before re-checking the
/// server's drain/cancel flags. Bounds how stale a session's view of
/// a shutdown can be.
const SESSION_POLL: Duration = Duration::from_millis(25);

/// The size of one socket read, on both ends of a session.
const READ_CHUNK: usize = 64 * 1024;

/// How long [`Server::shutdown`]'s wake connect may take before the
/// accept thread is left unjoined (see there).
const WAKE_CONNECT: Duration = Duration::from_secs(1);

/// The pause after a failed `accept` (EMFILE under fd pressure, say),
/// so a persistent error does not spin the accept thread. Successful
/// accepts never wait.
const ACCEPT_BACKOFF: Duration = Duration::from_millis(10);

/// A session's shared write half: the socket and its codec behind one
/// lock, so concurrent forwarders never interleave *within* a frame —
/// including large state frames, which go out atomically — and every
/// frame lands wholly in one codec.
struct SessionWriter(Mutex<(TcpStream, Codec)>);

impl SessionWriter {
    /// Writes one frame in the session's current codec.
    fn send(&self, frame: &ServerFrame) {
        let mut out = self.0.lock().expect("session writer lock");
        let (stream, codec) = &mut *out;
        // A gone client is not an error worth a worker's life: the
        // session reader will notice EOF and wind down.
        let _ = frame.write_to(stream, *codec);
    }

    /// Acks a `hello` and switches codecs atomically under the writer
    /// lock: the ack goes out in the *old* codec, every later frame in
    /// the new one — no frame can straddle the switch.
    fn switch(&self, to: Codec) {
        let mut out = self.0.lock().expect("session writer lock");
        let (stream, codec) = &mut *out;
        let _ = ServerFrame::Hello { codec: to }.write_to(stream, *codec);
        *codec = to;
    }
}

/// Shutdown signals shared by every session of one [`Server`].
#[derive(Default)]
struct SessionCtl {
    /// Stop admitting work: sessions reject new submissions with
    /// [`RejectReason::Draining`] and exit once idle.
    draining: AtomicBool,
    /// The grace deadline passed: sessions cancel their in-flight
    /// jobs instead of waiting them out.
    cancel_all: AtomicBool,
    /// A client sent the `shutdown` admin frame; the process driving
    /// the server decides when to act on it.
    shutdown_requested: AtomicBool,
    /// Entries held in the token and shard maps of every session — a
    /// gauge of per-session bookkeeping, which pruning keeps bounded by
    /// what is still running rather than by what was ever submitted.
    tracked: AtomicUsize,
}

/// What a session's helper threads report when they end, so the
/// session can prune its maps: a submitted line whose members all
/// reported a terminal event (by id and the session serial its tokens
/// were filed under), or a shard runner that finished or failed.
enum Ended {
    Line { id: u64, serial: u64 },
    Shard(u64),
}

/// One session's bookkeeping: cancellation handles by submit id and
/// the feeds of the shard runners it hosts, each pruned when its line
/// or runner ends.
#[derive(Default)]
struct SessionMaps {
    /// Cancellation handles of unresolved lines by submit id (with the
    /// serial they were filed under, so a line that reused an id is
    /// pruned only by its own forwarder).
    tokens: HashMap<u64, (u64, Vec<CancelToken>)>,
    /// Shard runners hosted by this session (cluster mode): the feed
    /// half of each runner's `shard-sync` channel, by shard id.
    /// Dropping a feed is how a runner learns its coordinator is gone.
    shards: HashMap<u64, std::sync::mpsc::Sender<(u64, StateBlob)>>,
    /// Serials handed out to submitted lines.
    serial: u64,
    /// The highest submit id seen: a cancel for a smaller unknown id
    /// names a line already resolved and pruned — the documented no-op.
    max_submit: Option<u64>,
}

impl SessionMaps {
    /// Applies one helper thread's end report.
    fn prune(&mut self, ended: Ended, ctl: &SessionCtl) {
        let removed = match ended {
            Ended::Line { id, serial } => match self.tokens.get(&id) {
                Some((filed, _)) if *filed == serial => self.tokens.remove(&id).is_some(),
                _ => false,
            },
            Ended::Shard(id) => self.shards.remove(&id).is_some(),
        };
        if removed {
            ctl.tracked.fetch_sub(1, Ordering::AcqRel);
        }
    }

    fn all_tokens(&self) -> impl Iterator<Item = &CancelToken> {
        self.tokens.values().flat_map(|(_, members)| members)
    }
}

/// The TCP front end over an owned [`Service`] — what `lsl serve`
/// runs. Bound to a local address; every accepted connection becomes
/// an independent session speaking the [`proto`](crate::proto) frame
/// protocol. [`Server::shutdown`] drains gracefully: stop accepting,
/// let in-flight jobs finish within a grace period, cancel the rest,
/// join every session thread.
pub struct Server {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    accept: Option<JoinHandle<()>>,
    sessions: Arc<Mutex<Vec<JoinHandle<()>>>>,
    ctl: Arc<SessionCtl>,
    service: Arc<Service>,
}

impl Server {
    /// Binds `addr` (e.g. `127.0.0.1:0` for an ephemeral port) and
    /// starts serving on a fresh [`Service`] with `threads` workers.
    ///
    /// # Errors
    /// The bind error, if the address is unavailable.
    pub fn bind(addr: impl ToSocketAddrs, threads: usize) -> std::io::Result<Server> {
        Server::bind_service(addr, Service::new(threads))
    }

    /// Binds `addr` and serves an already-configured [`Service`] —
    /// the way to put admission limits or a result store behind the
    /// wire (see [`Service::with_limits`] / [`Service::with_store`]).
    ///
    /// # Errors
    /// The bind error, if the address is unavailable.
    pub fn bind_service(addr: impl ToSocketAddrs, service: Service) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let ctl = Arc::new(SessionCtl::default());
        let sessions = Arc::new(Mutex::new(Vec::new()));
        let service = Arc::new(service);
        let accept = {
            let stop = Arc::clone(&stop);
            let ctl = Arc::clone(&ctl);
            let sessions = Arc::clone(&sessions);
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("lsl-accept".into())
                .spawn(move || accept_loop(&listener, &service, &stop, &ctl, &sessions))
                .expect("spawning the accept loop")
        };
        Ok(Server {
            addr,
            stop,
            accept: Some(accept),
            sessions,
            ctl,
            service,
        })
    }

    /// The bound address (with the resolved port).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service the server runs jobs on.
    pub fn service(&self) -> &Service {
        &self.service
    }

    /// Whether any client sent the `shutdown` admin frame. The server
    /// does not act on the request itself — the process driving it
    /// polls this and calls [`Server::shutdown`].
    pub fn shutdown_requested(&self) -> bool {
        self.ctl.shutdown_requested.load(Ordering::Acquire)
    }

    /// Drains the server: stops accepting, puts every session into
    /// draining mode (new submissions answer
    /// [`RejectReason::Draining`]), waits up to `grace` for in-flight
    /// jobs to finish on their own, then cancels whatever is left and
    /// joins every session thread. Idempotent — a second call (or the
    /// implicit one in `Drop`) finds nothing to do.
    ///
    /// The accept loop blocks in `accept`, so stopping it takes one
    /// self-connect to the bound address (loopback when bound to an
    /// unspecified address). If that connect fails — the loopback
    /// interface is down, or it does not answer within a second — the
    /// accept thread is **not** joined, so shutdown never hangs on it:
    /// the thread stays parked in `accept` and exits, closing the
    /// listener, at the next connection it receives (which it drops).
    pub fn shutdown(&mut self, grace: Duration) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.accept.take() {
            if TcpStream::connect_timeout(&wake_addr(self.addr), WAKE_CONNECT).is_ok() {
                let _ = h.join();
            }
        }
        self.ctl.draining.store(true, Ordering::Release);
        let deadline = Instant::now() + grace;
        loop {
            let all_idle = {
                let sessions = self.sessions.lock().expect("session registry lock");
                sessions.iter().all(|h| h.is_finished())
            };
            if all_idle || Instant::now() >= deadline {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        self.ctl.cancel_all.store(true, Ordering::Release);
        let handles: Vec<JoinHandle<()>> = {
            let mut sessions = self.sessions.lock().expect("session registry lock");
            sessions.drain(..).collect()
        };
        for h in handles {
            let _ = h.join();
        }
    }
}

impl Drop for Server {
    /// A dropped server shuts down with zero grace: in-flight jobs
    /// are cancelled (terminating within one progress interval) and
    /// every session thread is joined before the drop returns.
    fn drop(&mut self) {
        self.shutdown(Duration::ZERO);
    }
}

impl std::fmt::Debug for Server {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Server").field("addr", &self.addr).finish()
    }
}

/// Where [`Server::shutdown`] connects to wake the accept loop: the
/// bound address, with an unspecified IP (`0.0.0.0`, `::`) replaced by
/// the loopback address of its family.
fn wake_addr(bound: SocketAddr) -> SocketAddr {
    let ip = match bound.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    SocketAddr::new(ip, bound.port())
}

/// Blocks in `accept` and gives every connection a session thread.
/// `stop` is checked after each wake-up: the connection that arrives
/// once it is set (the shutdown wake connect, or a client racing the
/// shutdown) is dropped unserved and the loop ends.
fn accept_loop(
    listener: &TcpListener,
    service: &Arc<Service>,
    stop: &Arc<AtomicBool>,
    ctl: &Arc<SessionCtl>,
    sessions: &Arc<Mutex<Vec<JoinHandle<()>>>>,
) {
    loop {
        let accepted = listener.accept();
        if stop.load(Ordering::Acquire) {
            return;
        }
        match accepted {
            Ok((stream, _)) => {
                let service = Arc::clone(service);
                let ctl = Arc::clone(ctl);
                let handle = std::thread::Builder::new()
                    .name("lsl-session".into())
                    .spawn(move || session(stream, &service, &ctl))
                    .expect("spawning a session");
                let mut registry = sessions.lock().expect("session registry lock");
                registry.push(handle);
                // Reap finished sessions so a long-lived server doesn't
                // hold a handle per past connection.
                registry.retain(|h| !h.is_finished());
            }
            // Transient accept errors (EMFILE under fd pressure,
            // ECONNABORTED on a client reset mid-handshake) must not
            // kill the accept loop — a serve process that stops
            // accepting while its main loop keeps sleeping would look
            // healthy and be dead.
            Err(_) => std::thread::sleep(ACCEPT_BACKOFF),
        }
    }
}

/// One connection's lifetime: read frames until EOF or drain. Each
/// submitted line's member jobs route their events into one tagged
/// channel ([`Service::submit_routed`]) drained by **one** forwarder
/// thread per line — a `seeds=0..4096` sweep costs one thread, not
/// 4096 — writing frames through the shared writer. Reads are timed
/// ([`SESSION_POLL`]) so the loop notices server-wide drain/cancel
/// flags even while the client is silent. On exit (client EOF, socket
/// error, or drain) every still-running job of the session is
/// cancelled and the forwarders are joined.
fn session(stream: TcpStream, service: &Arc<Service>, ctl: &Arc<SessionCtl>) {
    // Timed blocking reads; Nagle off: event frames are
    // latency-sensitive and already write-combined.
    if stream.set_read_timeout(Some(SESSION_POLL)).is_err() || stream.set_nodelay(true).is_err() {
        return;
    }
    let mut sock = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    let writer = Arc::new(SessionWriter(Mutex::new((stream, Codec::Text))));
    // Jobs of this session that have not reported a terminal event
    // yet; forwarders decrement as terminals go out.
    let inflight = Arc::new(AtomicUsize::new(0));
    // Cancellation handles by submit id, for `cancel id=N` frames and
    // the end-of-session sweep, and the shard runners' feeds. Helper
    // threads report on `ended` when they finish, and the loop prunes
    // their entries, so a long-lived session holds only what is still
    // running.
    let mut maps = SessionMaps::default();
    let (ended_tx, ended) = std::sync::mpsc::channel::<Ended>();
    let mut forwarders: Vec<JoinHandle<()>> = Vec::new();
    let mut cancelled_all = false;
    // Raw byte accumulation persists across timed reads: in text mode
    // complete lines are cut at `\n` (a partial tail waits for more
    // bytes), in binary mode complete length-prefixed frames are cut
    // by their prefix. A `hello` frame flips the mode for every byte
    // that follows it — bytes already buffered behind the hello are
    // re-interpreted under the new codec, exactly as the client that
    // switched immediately after sending it intended.
    let mut inbuf = codec::FrameBuffer::new();
    let mut mode = Codec::Text;
    let mut tmp = vec![0u8; READ_CHUNK];
    loop {
        if ctl.cancel_all.load(Ordering::Acquire) && !cancelled_all {
            cancelled_all = true;
            for token in maps.all_tokens() {
                token.cancel();
            }
        }
        if ctl.draining.load(Ordering::Acquire) && inflight.load(Ordering::Acquire) == 0 {
            break;
        }
        match sock.read(&mut tmp) {
            Ok(0) => break,
            Ok(n) => {
                inbuf.extend(&tmp[..n]);
                // Drain every complete frame at the mode it arrives
                // under. Over-cap frames and lines answer a typed error
                // and resync (the malformed-frame contract).
                while let Some(parsed) = inbuf.cut::<ClientFrame>(mode).transpose() {
                    if let Some(codec) = handle_frame(
                        parsed,
                        &writer,
                        service,
                        ctl,
                        &inflight,
                        &mut maps,
                        &mut forwarders,
                        &ended_tx,
                    ) {
                        mode = codec;
                    }
                }
            }
            Err(e)
                if matches!(
                    e.kind(),
                    std::io::ErrorKind::WouldBlock
                        | std::io::ErrorKind::TimedOut
                        | std::io::ErrorKind::Interrupted
                ) => {}
            Err(_) => break,
        }
        // Reap finished helpers so a long-lived session submitting
        // thousands of lines doesn't hold a handle or a map entry per
        // past line or shard.
        forwarders.retain(|h| !h.is_finished());
        for report in ended.try_iter() {
            maps.prune(report, ctl);
        }
    }
    // The client is gone (or the server is draining): any job still
    // running has nobody to report to. Cancelling resolved tokens is
    // a no-op, so the blanket sweep is safe. Dropping the shard feeds
    // *before* joining unblocks any runner waiting on a `shard-sync`
    // that will never come.
    for token in maps.all_tokens() {
        token.cancel();
    }
    ctl.tracked
        .fetch_sub(maps.tokens.len() + maps.shards.len(), Ordering::AcqRel);
    drop(maps);
    for f in forwarders {
        let _ = f.join();
    }
}

/// Processes one parsed (or unparseable) frame on the session thread.
/// Returns the codec the *read* side should switch to, if the frame
/// was a `hello` (the write side switches inside, under the writer
/// lock).
#[allow(clippy::too_many_arguments)]
fn handle_frame(
    parsed: Result<ClientFrame, FrameError>,
    writer: &Arc<SessionWriter>,
    service: &Arc<Service>,
    ctl: &Arc<SessionCtl>,
    inflight: &Arc<AtomicUsize>,
    maps: &mut SessionMaps,
    forwarders: &mut Vec<JoinHandle<()>>,
    ended: &std::sync::mpsc::Sender<Ended>,
) -> Option<Codec> {
    match parsed {
        Err(e) => {
            // The malformed-frame contract: answer typed, stay up.
            writer.send(&ServerFrame::Error {
                id: None,
                message: e.to_string(),
            });
        }
        Ok(ClientFrame::Hello { codec }) => {
            // Ack in the old codec, then switch both directions.
            writer.switch(codec);
            return Some(codec);
        }
        Ok(ClientFrame::Ping { nonce }) => {
            // Answered inline on the session thread: a pong proves the
            // session loop itself is alive, not just the socket.
            writer.send(&ServerFrame::Pong { nonce });
        }
        Ok(ClientFrame::ShardInit {
            id,
            shard,
            of,
            spec,
        }) => {
            if maps.shards.contains_key(&id) {
                writer.send(&ServerFrame::Error {
                    id: Some(id),
                    message: format!("shard id {id} already initialised"),
                });
                return None;
            }
            let (tx, rx) = std::sync::mpsc::channel::<(u64, StateBlob)>();
            maps.shards.insert(id, tx);
            ctl.tracked.fetch_add(1, Ordering::AcqRel);
            let writer = Arc::clone(writer);
            let ended = ended.clone();
            let runner = std::thread::Builder::new()
                .name("lsl-shard".into())
                .spawn(move || {
                    crate::cluster::run_shard(
                        move |frame: &ServerFrame| writer.send(frame),
                        id,
                        shard,
                        of,
                        &spec,
                        &rx,
                    );
                    // `shard-done` (or the runner's error) is out.
                    let _ = ended.send(Ended::Shard(id));
                })
                .expect("spawning a shard runner");
            forwarders.push(runner);
        }
        Ok(ClientFrame::ShardSync { id, round, blob }) => match maps.shards.get(&id) {
            // A dead runner (failed init) drops its receiver; sends
            // then are no-ops, matching the typed error the runner
            // already reported.
            Some(tx) => {
                let _ = tx.send((round, blob));
            }
            None => writer.send(&ServerFrame::Error {
                id: Some(id),
                message: format!("shard-sync for unknown shard id {id}"),
            }),
        },
        Ok(ClientFrame::Cancel { id }) => match maps.tokens.get(&id) {
            // The terminal `cancelled` event (per member, through the
            // forwarder) is the acknowledgement.
            Some((_, members)) => {
                for token in members {
                    token.cancel();
                }
            }
            // Resolved lines are pruned; cancelling one stays a no-op.
            None if maps.max_submit.is_some_and(|max| id <= max) => {}
            None => writer.send(&ServerFrame::Error {
                id: Some(id),
                message: format!("cancel for unknown job id {id}"),
            }),
        },
        Ok(ClientFrame::Shutdown) => {
            ctl.shutdown_requested.store(true, Ordering::Release);
        }
        Ok(ClientFrame::Submit { id, spec }) => {
            maps.max_submit = maps.max_submit.max(Some(id));
            submit_line(
                writer, service, ctl, inflight, maps, forwarders, ended, id, &spec,
            );
        }
    }
    None
}

/// Expands, admits and queues one submitted line, filing its members'
/// cancellation handles in `maps` and spawning its event forwarder.
#[allow(clippy::too_many_arguments)]
fn submit_line(
    writer: &Arc<SessionWriter>,
    service: &Arc<Service>,
    ctl: &Arc<SessionCtl>,
    inflight: &Arc<AtomicUsize>,
    maps: &mut SessionMaps,
    forwarders: &mut Vec<JoinHandle<()>>,
    ended: &std::sync::mpsc::Sender<Ended>,
    id: u64,
    spec: &str,
) {
    let sweep = match spec.parse::<SweepSpec>() {
        Ok(sweep) => sweep,
        Err(e) => {
            return writer.send(&ServerFrame::Error {
                id: Some(id),
                message: e.to_string(),
            })
        }
    };
    let members = sweep.expand();
    let jobs = members.len();
    writer.send(&ServerFrame::Submitted {
        id,
        jobs: jobs as u64,
    });
    // Session-level admission, before the service queue is touched: a
    // draining server takes nothing new, and a session over its
    // in-flight cap must finish (or cancel) work before submitting
    // more.
    let rejection = if ctl.draining.load(Ordering::Acquire) {
        Some(RejectReason::Draining)
    } else {
        let cap = service.limits().per_session_inflight;
        if inflight.load(Ordering::Acquire).saturating_add(jobs) > cap {
            Some(RejectReason::SessionBusy { cap })
        } else {
            None
        }
    };
    if let Some(reason) = rejection {
        for index in 0..jobs as u64 {
            writer.send(&ServerFrame::Event {
                id,
                index,
                event: JobEvent::Rejected {
                    reason: reason.clone(),
                },
            });
        }
        return;
    }
    inflight.fetch_add(jobs, Ordering::AcqRel);
    let (tx, rx) = std::sync::mpsc::channel::<(u64, JobEvent)>();
    let mut member_tokens = Vec::with_capacity(jobs);
    for (index, member) in members.into_iter().enumerate() {
        let tx = tx.clone();
        member_tokens.push(service.submit_routed(member, move |event| {
            // The forwarder may already be gone (client hung up);
            // dropping events then is fine.
            let _ = tx.send((index as u64, event));
        }));
    }
    drop(tx);
    maps.serial += 1;
    let serial = maps.serial;
    if maps.tokens.insert(id, (serial, member_tokens)).is_none() {
        ctl.tracked.fetch_add(1, Ordering::AcqRel);
    }
    let writer = Arc::clone(writer);
    let inflight = Arc::clone(inflight);
    let ended = ended.clone();
    let forwarder = std::thread::Builder::new()
        .name("lsl-forward".into())
        .spawn(move || {
            forward_line(&writer, id, jobs, &rx, &inflight);
            // Every member's terminal event is out.
            let _ = ended.send(Ended::Line { id, serial });
        })
        .expect("spawning an event forwarder");
    forwarders.push(forwarder);
}

/// Drains one submitted line's tagged event stream into frames until
/// every member reported a terminal event, decrementing the session's
/// in-flight count per terminal. If the channel closes with members
/// unresolved (the service died mid-queue), each of them is failed
/// explicitly so the client never hangs.
fn forward_line(
    writer: &SessionWriter,
    id: u64,
    jobs: usize,
    rx: &std::sync::mpsc::Receiver<(u64, JobEvent)>,
    inflight: &AtomicUsize,
) {
    let mut resolved = vec![false; jobs];
    let mut remaining = jobs;
    for (index, event) in rx.iter() {
        let terminal = event.is_terminal();
        writer.send(&ServerFrame::Event { id, index, event });
        if terminal {
            if let Some(slot) = resolved.get_mut(index as usize) {
                if !*slot {
                    *slot = true;
                    remaining -= 1;
                    inflight.fetch_sub(1, Ordering::AcqRel);
                }
            }
            if remaining == 0 {
                return;
            }
        }
    }
    for (index, done) in resolved.into_iter().enumerate() {
        if !done {
            writer.send(&ServerFrame::Event {
                id,
                index: index as u64,
                event: JobEvent::Failed(SpecError::ServiceStopped),
            });
            inflight.fetch_sub(1, Ordering::AcqRel);
        }
    }
}

/// How one submitted line ended, as seen by a [`Client`].
#[derive(Clone, Debug, PartialEq)]
pub struct RemoteOutcome {
    /// The session-scoped submit id.
    pub id: u64,
    /// The submitted line, verbatim.
    pub spec: String,
    /// Member results in expansion index order (`Err` members carry
    /// the job's typed [`SpecError`]; a line rejected by the server
    /// before expansion has one `Err` member with the rejection).
    pub members: Vec<Result<JobResult, SpecError>>,
    /// `Progress` events observed across all members.
    pub progress_events: u64,
    /// Full-state deliveries per member, in member order: the
    /// `(round, blob)` pairs a `stream` job's [`JobEvent::State`]
    /// events carried. Empty vectors for non-streaming members; empty
    /// overall when the line was rejected before expansion.
    pub states: Vec<Vec<(u64, StateBlob)>>,
}

impl RemoteOutcome {
    /// Whether every member finished.
    #[must_use]
    pub fn is_ok(&self) -> bool {
        self.members.iter().all(Result::is_ok)
    }

    /// Aggregates a multi-member outcome into a [`SweepResult`]
    /// (expansion order), or the first member error.
    ///
    /// # Errors
    /// The first failing member's error.
    pub fn into_sweep_result(self) -> Result<SweepResult, SpecError> {
        let mut results = Vec::with_capacity(self.members.len());
        for member in self.members {
            results.push(member?);
        }
        Ok(SweepResult::aggregate(self.spec, results))
    }
}

/// A blocking client session — what `lsl run --remote` speaks. Submit
/// any number of lines ([`Client::submit`]), then [`Client::drain`]
/// the interleaved event streams into per-line outcomes. In-flight
/// lines can be cancelled by id ([`Client::cancel`]); their members
/// come back as [`SpecError::Cancelled`].
///
/// [`Client::connect_with`] negotiates the session codec up front:
/// [`Codec::Binary`] switches both directions to length-prefixed
/// binary frames (required for efficient `stream` jobs),
/// [`Codec::Text`] keeps the line protocol.
pub struct Client {
    stream: TcpStream,
    next_id: u64,
    /// Nonce source for [`Client::ping`] (distinct from submit ids so
    /// a stale pong can never alias a job frame).
    next_nonce: u64,
    /// Submitted lines awaiting terminal events, by id.
    pending: HashMap<u64, Pending>,
    /// Submission order, so outcomes come back in the order sent.
    order: Vec<u64>,
    /// The negotiated session codec.
    codec: Codec,
    /// Raw receive buffer, shared by both codecs (bytes buffered
    /// across a codec switch are re-cut under the new framing).
    inbuf: codec::FrameBuffer,
    /// The socket read chunk, allocated once per session.
    chunk: Vec<u8>,
}

struct Pending {
    spec: String,
    /// `None` until the `submitted` ack tells us the expansion size.
    members: Option<Vec<Option<Result<JobResult, SpecError>>>>,
    progress_events: u64,
    /// Per-member `(round, blob)` state deliveries; sized with
    /// `members` at the `submitted` ack.
    states: Option<Vec<Vec<(u64, StateBlob)>>>,
    /// A line-level rejection (server `error` frame for this id).
    rejected: Option<SpecError>,
}

impl Client {
    /// Connects to an [`Server`] (or `lsl serve`) address, speaking
    /// the default text codec.
    ///
    /// # Errors
    /// The connect error.
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        // Submits and cancels are latency-sensitive one-off frames,
        // already write-combined — Nagle only adds stalls. Timed reads
        // let deadline-bounded waits (ping, shard barriers) poll the
        // socket without giving up blocking semantics.
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(SESSION_POLL))?;
        Ok(Client {
            stream,
            next_id: 0,
            next_nonce: 0,
            pending: HashMap::new(),
            order: Vec::new(),
            codec: Codec::Text,
            inbuf: codec::FrameBuffer::new(),
            chunk: vec![0u8; READ_CHUNK],
        })
    }

    /// Connects and negotiates `codec` for the session. The handshake
    /// is always in text: the client sends `hello codec=<name>`, the
    /// server acks with its own `hello` frame in the *old* codec, and
    /// both sides switch immediately after.
    ///
    /// # Errors
    /// `io::Error` on connect/handshake failure (an unexpected or
    /// unparsable ack maps to `InvalidData`).
    pub fn connect_with(addr: impl ToSocketAddrs, codec: Codec) -> std::io::Result<Client> {
        let mut client = Client::connect(addr)?;
        if codec == Codec::Text {
            return Ok(client);
        }
        let invalid = |m: String| std::io::Error::new(std::io::ErrorKind::InvalidData, m);
        client
            .send(&ClientFrame::Hello { codec })
            .map_err(|e| invalid(format!("codec handshake write failed: {e}")))?;
        match client.recv_frame(None) {
            Ok(Some(ServerFrame::Hello { codec: acked })) if acked == codec => {
                client.codec = codec;
                Ok(client)
            }
            Ok(Some(frame)) => Err(invalid(format!("unexpected handshake ack: {frame}"))),
            Ok(None) => Err(invalid("server closed during codec handshake".into())),
            Err(e) => Err(invalid(format!("bad handshake ack: {e}"))),
        }
    }

    /// Connects (negotiating `codec`) with bounded exponential
    /// backoff: up to `attempts` tries, sleeping
    /// `base_delay * 2^(try-1)` between consecutive tries. The way a
    /// cluster coordinator re-reaches a worker that is restarting.
    ///
    /// # Errors
    /// A typed [`ConnectError`] carrying the attempt count and the
    /// last try's error once the budget is exhausted.
    pub fn connect_with_retry(
        addr: impl ToSocketAddrs,
        codec: Codec,
        attempts: u32,
        base_delay: Duration,
    ) -> Result<Client, ConnectError> {
        let attempts = attempts.max(1);
        let mut last: Option<std::io::Error> = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                // Clamp the shift: past 2^16 the delay is effectively
                // saturated anyway and the shift must not overflow.
                let backoff = base_delay.saturating_mul(1u32 << (attempt - 1).min(16));
                std::thread::sleep(backoff);
            }
            match Client::connect_with(&addr, codec) {
                Ok(client) => return Ok(client),
                Err(e) => last = Some(e),
            }
        }
        Err(ConnectError {
            attempts,
            last: last.expect("at least one attempt was made"),
        })
    }

    /// Sends a `ping` and blocks until the matching `pong` arrives or
    /// `timeout` passes — the coordinator's worker-liveness probe.
    /// Job events arriving in between are applied to their pending
    /// lines (never lost); a stale pong from an earlier timed-out
    /// ping is skipped.
    ///
    /// # Errors
    /// [`NetError::Timeout`] if no pong arrived in time; the usual
    /// socket/protocol errors otherwise.
    pub fn ping(&mut self, timeout: Duration) -> Result<(), NetError> {
        let nonce = self.next_nonce;
        self.next_nonce += 1;
        self.send(&ClientFrame::Ping { nonce })
            .map_err(NetError::Io)?;
        let deadline = Instant::now() + timeout;
        loop {
            match self.recv_frame(Some(deadline))? {
                None => return Err(NetError::Disconnected),
                Some(ServerFrame::Pong { nonce: got }) if got == nonce => return Ok(()),
                Some(ServerFrame::Pong { .. }) => {}
                Some(frame) => self.apply(frame)?,
            }
        }
    }

    /// Sends one raw client frame — the cluster layer's shard
    /// channels speak `shard-init`/`shard-sync` outside the
    /// submit/drain flow.
    pub(crate) fn send_frame(&mut self, frame: &ClientFrame) -> Result<(), NetError> {
        self.send(frame).map_err(NetError::Io)
    }

    /// Sends one client frame under the negotiated codec.
    fn send(&mut self, frame: &ClientFrame) -> std::io::Result<()> {
        frame.write_to(&mut self.stream, self.codec)
    }

    /// Blocks for the next server frame under the negotiated codec,
    /// retrying timed socket reads until `deadline` (forever when
    /// `None`). `Ok(None)` means the server closed the connection.
    ///
    /// # Errors
    /// [`NetError::Timeout`] past the deadline; socket/decode errors
    /// otherwise.
    pub(crate) fn recv_frame(
        &mut self,
        deadline: Option<Instant>,
    ) -> Result<Option<ServerFrame>, NetError> {
        loop {
            if let Some(frame) = self.inbuf.cut(self.codec)? {
                return Ok(Some(frame));
            }
            if deadline.is_some_and(|d| Instant::now() >= d) {
                return Err(NetError::Timeout);
            }
            match self.stream.read(&mut self.chunk) {
                Ok(0) => return Ok(None),
                Ok(n) => self.inbuf.extend(&self.chunk[..n]),
                Err(e)
                    if matches!(
                        e.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Submits one spec/sweep line; returns its session-scoped id.
    /// Events accumulate server-side until [`Client::drain`] reads
    /// them — submit the whole batch first, then drain once.
    ///
    /// # Errors
    /// The socket write error, or `InvalidInput` if `spec` contains a
    /// line break (frames are line-delimited; an embedded newline
    /// would split one submit into two frames and desync the session).
    pub fn submit(&mut self, spec: &str) -> std::io::Result<u64> {
        if spec.contains('\n') || spec.contains('\r') {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a spec line must not contain line breaks",
            ));
        }
        let id = self.next_id;
        self.next_id += 1;
        let frame = ClientFrame::Submit {
            id,
            spec: spec.to_string(),
        };
        self.send(&frame)?;
        self.pending.insert(
            id,
            Pending {
                spec: spec.to_string(),
                members: None,
                progress_events: 0,
                states: None,
                rejected: None,
            },
        );
        self.order.push(id);
        Ok(id)
    }

    /// Asks the server to cancel a submitted line's member jobs. The
    /// server answers through the event stream: each member ends with
    /// a terminal `cancelled` event, which [`Client::drain`] maps to
    /// [`SpecError::Cancelled`]. Racing a job's natural completion is
    /// fine — members that finish first stay finished.
    ///
    /// # Errors
    /// The socket write error.
    pub fn cancel(&mut self, id: u64) -> std::io::Result<()> {
        self.send(&ClientFrame::Cancel { id })
    }

    /// Sends the `shutdown` admin frame, asking the serve process to
    /// drain gracefully. The request is a latch the server's driver
    /// polls ([`Server::shutdown_requested`]); jobs already in flight
    /// still stream to completion within the drain grace period.
    ///
    /// # Errors
    /// The socket write error.
    pub fn request_shutdown(&mut self) -> std::io::Result<()> {
        self.send(&ClientFrame::Shutdown)
    }

    /// Blocks until every submitted line resolved (all member jobs
    /// terminal, or the line rejected) and returns the outcomes in
    /// submission order.
    ///
    /// # Errors
    /// A [`NetError`] if the connection drops or the server sends a
    /// frame that does not parse — job-level failures are **not**
    /// errors here; they come back inside [`RemoteOutcome::members`].
    pub fn drain(&mut self) -> Result<Vec<RemoteOutcome>, NetError> {
        while !self.all_resolved() {
            let frame = self.recv_frame(None)?.ok_or(NetError::Disconnected)?;
            self.apply(frame)?;
        }
        let mut outcomes = Vec::with_capacity(self.order.len());
        for id in std::mem::take(&mut self.order) {
            let p = self.pending.remove(&id).expect("resolved ids are pending");
            let members = match (p.rejected, p.members) {
                (Some(e), _) => vec![Err(e)],
                (None, Some(members)) => members
                    .into_iter()
                    .map(|m| m.expect("resolved lines have terminal members"))
                    .collect(),
                (None, None) => unreachable!("resolved lines are acked or rejected"),
            };
            outcomes.push(RemoteOutcome {
                id,
                spec: p.spec,
                members,
                progress_events: p.progress_events,
                states: p.states.unwrap_or_default(),
            });
        }
        Ok(outcomes)
    }

    fn all_resolved(&self) -> bool {
        self.pending.values().all(|p| {
            p.rejected.is_some()
                || p.members
                    .as_ref()
                    .is_some_and(|m| m.iter().all(Option::is_some))
        })
    }

    fn apply(&mut self, frame: ServerFrame) -> Result<(), NetError> {
        match frame {
            ServerFrame::Submitted { id, jobs } => {
                let p = self.pending.get_mut(&id).ok_or(NetError::UnknownId(id))?;
                p.members = Some((0..jobs).map(|_| None).collect());
                p.states = Some((0..jobs).map(|_| Vec::new()).collect());
            }
            ServerFrame::Event { id, index, event } => {
                let p = self.pending.get_mut(&id).ok_or(NetError::UnknownId(id))?;
                match event {
                    JobEvent::Progress { .. } => p.progress_events += 1,
                    JobEvent::State { round, blob } => {
                        let states = p.states.as_mut().ok_or_else(|| {
                            NetError::Protocol("event before submitted ack".into())
                        })?;
                        let slot = states.get_mut(index as usize).ok_or_else(|| {
                            NetError::Protocol(format!("member index {index} out of range"))
                        })?;
                        slot.push((round, blob));
                    }
                    JobEvent::Finished(result) => set_member(p, index, Ok(result))?,
                    JobEvent::Failed(e) => set_member(p, index, Err(e))?,
                    JobEvent::Rejected { reason } => {
                        set_member(p, index, Err(SpecError::Rejected(reason)))?;
                    }
                    JobEvent::Cancelled => set_member(p, index, Err(SpecError::Cancelled))?,
                    JobEvent::Accepted | JobEvent::Started => {}
                }
            }
            ServerFrame::Hello { codec } => {
                return Err(NetError::Protocol(format!(
                    "unexpected mid-session codec ack (codec={codec})"
                )));
            }
            // A pong whose ping already timed out: harmless, drop it.
            ServerFrame::Pong { .. } => {}
            ServerFrame::ShardSync { id, .. } | ServerFrame::ShardDone { id, .. } => {
                return Err(NetError::Protocol(format!(
                    "shard frame for id {id} outside a shard session"
                )));
            }
            ServerFrame::Error { id, message } => match id.and_then(|i| self.pending.get_mut(&i)) {
                // Line-level rejection: the server names the id.
                Some(p) => {
                    p.rejected = Some(SpecError::Unsupported {
                        message: format!("rejected by server: {message}"),
                    });
                }
                // A session-level protocol error is a client bug.
                None => return Err(NetError::Protocol(message)),
            },
        }
        Ok(())
    }
}

fn set_member(
    p: &mut Pending,
    index: u64,
    result: Result<JobResult, SpecError>,
) -> Result<(), NetError> {
    let members = p
        .members
        .as_mut()
        .ok_or_else(|| NetError::Protocol("event before submitted ack".into()))?;
    let slot = members
        .get_mut(index as usize)
        .ok_or_else(|| NetError::Protocol(format!("member index {index} out of range")))?;
    *slot = Some(result);
    Ok(())
}

impl std::fmt::Debug for Client {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Client")
            .field("pending", &self.pending.len())
            .finish()
    }
}

/// A client-side session failure (distinct from job-level
/// [`SpecError`]s, which arrive inside outcomes).
#[derive(Debug)]
pub enum NetError {
    /// Reading or writing the socket failed.
    Io(std::io::Error),
    /// The server closed the connection with lines still unresolved.
    Disconnected,
    /// A server frame failed to parse.
    Wire(WireError),
    /// A binary frame failed to decode (or exceeded the frame cap).
    Codec(CodecError),
    /// The server referenced an id this session never submitted, or
    /// violated the frame ordering contract.
    Protocol(String),
    /// A server error frame named an id we no longer track.
    UnknownId(u64),
    /// A deadline-bounded wait ([`Client::ping`], a shard barrier)
    /// expired before the expected frame arrived.
    Timeout,
}

impl std::fmt::Display for NetError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "socket error: {e}"),
            NetError::Disconnected => f.write_str("server disconnected mid-session"),
            NetError::Wire(e) => write!(f, "{e}"),
            NetError::Codec(e) => write!(f, "{e}"),
            NetError::Protocol(m) => write!(f, "protocol violation: {m}"),
            NetError::UnknownId(id) => write!(f, "server frame for unknown id {id}"),
            NetError::Timeout => f.write_str("timed out waiting for a server frame"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<FrameError> for NetError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::Codec(e) => NetError::Codec(e),
            FrameError::Wire(e) => NetError::Wire(e),
        }
    }
}

/// A typed connection failure after [`Client::connect_with_retry`]
/// exhausted its attempt budget.
#[derive(Debug)]
pub struct ConnectError {
    /// Connection attempts made.
    pub attempts: u32,
    /// The last attempt's error.
    pub last: std::io::Error,
}

impl std::fmt::Display for ConnectError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "failed to connect after {} attempt{}: {}",
            self.attempts,
            if self.attempts == 1 { "" } else { "s" },
            self.last
        )
    }
}

impl std::error::Error for ConnectError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        Some(&self.last)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::JobOutput;
    use std::io::{BufRead, BufReader, Write};

    #[test]
    fn loopback_job_matches_in_process() {
        let server = Server::bind("127.0.0.1:0", 2).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        let line = "graph=torus:5x5 model=coloring:q=9 seed=4 job=run:rounds=40";
        client.submit(line).unwrap();
        let outcomes = client.drain().unwrap();
        assert_eq!(outcomes.len(), 1);
        let direct = line.parse::<crate::spec::JobSpec>().unwrap().run().unwrap();
        assert_eq!(outcomes[0].members[0].as_ref().unwrap(), &direct);
        assert!(outcomes[0].progress_events > 0, "progress streamed");
    }

    #[test]
    fn malformed_lines_get_typed_errors_and_the_session_survives() {
        let server = Server::bind("127.0.0.1:0", 1).unwrap();
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        let mut writer = stream.try_clone().unwrap();
        let mut reader = BufReader::new(stream);
        // Not a frame at all.
        writeln!(writer, "EHLO example.com").unwrap();
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let frame: ServerFrame = line.trim_end().parse().unwrap();
        assert!(
            matches!(frame, ServerFrame::Error { id: None, .. }),
            "{frame:?}"
        );
        // A line one byte over the frame cap: typed, then resync.
        let mut huge = vec![b'x'; codec::MAX_FRAME + 1];
        huge.push(b'\n');
        writer.write_all(&huge).unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        match line.trim_end().parse::<ServerFrame>().unwrap() {
            ServerFrame::Error { id: None, message } => {
                assert!(message.contains("exceeds cap"), "{message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        // A frame whose spec is rejected: typed, with the id.
        writeln!(writer, "submit id=5 spec=graph=moebius:9 model=mis").unwrap();
        line.clear();
        reader.read_line(&mut line).unwrap();
        let frame: ServerFrame = line.trim_end().parse().unwrap();
        match frame {
            ServerFrame::Error { id, message } => {
                assert_eq!(id, Some(5));
                assert!(message.contains("graph family"), "{message}");
            }
            other => panic!("expected an error frame, got {other:?}"),
        }
        // The session is still alive: a good job runs to completion.
        writeln!(
            writer,
            "submit id=6 spec=graph=cycle:8 model=coloring:q=5 seed=1 job=run:rounds=10"
        )
        .unwrap();
        let mut finished = false;
        while !finished {
            line.clear();
            assert!(reader.read_line(&mut line).unwrap() > 0, "server hung up");
            let frame: ServerFrame = line.trim_end().parse().unwrap();
            if let ServerFrame::Event {
                id: 6,
                event: JobEvent::Finished(result),
                ..
            } = frame
            {
                assert!(matches!(result.output, JobOutput::Run { .. }));
                finished = true;
            }
        }
    }

    /// Waits until the server's session maps hold at most `bound`
    /// entries in total (pruning runs on the session's next poll).
    fn settle(server: &Server, bound: usize) {
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            let tracked = server.ctl.tracked.load(Ordering::Acquire);
            if tracked <= bound {
                return;
            }
            assert!(
                Instant::now() < deadline,
                "session maps still hold {tracked} entries (bound {bound})"
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn session_maps_stay_bounded_under_many_quick_submits() {
        let server = Server::bind("127.0.0.1:0", 2).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        const BATCH: usize = 200;
        let line = "graph=path:3 model=coloring:q=3 seed=1 job=run:rounds=1";
        for _ in 0..15 {
            for _ in 0..BATCH {
                client.submit(line).unwrap();
            }
            let outcomes = client.drain().unwrap();
            assert_eq!(outcomes.len(), BATCH);
            assert!(outcomes.iter().all(RemoteOutcome::is_ok));
            // Resolved lines leave the token map: what the session
            // holds is bounded by one batch, not by 3000 submits (a
            // forwarder may report its end a moment after its line's
            // last event reaches the client, hence the settling wait).
            settle(&server, BATCH);
        }
        settle(&server, 0);
        // Cancelling a pruned (finished) line stays the documented
        // no-op: no error frame reaches the client.
        client.cancel(0).unwrap();
        client.submit(line).unwrap();
        assert!(client.drain().unwrap()[0].is_ok());

        // Shard runners leave the shard map when they end — here at
        // once, on a spec no shard session can run.
        let deadline = Some(Instant::now() + Duration::from_secs(20));
        for id in 0..500 {
            client
                .send_frame(&ClientFrame::ShardInit {
                    id,
                    shard: 0,
                    of: 2,
                    spec: "graph=cycle:6 model=dominating-set backend=cluster:2".into(),
                })
                .unwrap();
        }
        for _ in 0..500 {
            let frame = client.recv_frame(deadline).unwrap();
            assert!(
                matches!(frame, Some(ServerFrame::Error { id: Some(_), .. })),
                "{frame:?}"
            );
        }
        settle(&server, 0);
    }

    const WATCHDOG: Duration = Duration::from_secs(20);

    /// A server on `bind` answers a job, then `stop` (drop or
    /// shutdown) returns and closes the listener.
    fn serve_then_stop(bind: &'static str, stop: fn(Server)) {
        crate::within(WATCHDOG, move || {
            let server = Server::bind(bind, 1).unwrap();
            let reach = wake_addr(server.local_addr());
            let mut client = Client::connect(reach).unwrap();
            client
                .submit("graph=cycle:6 model=coloring:q=4 seed=1 job=run:rounds=5")
                .unwrap();
            assert!(client.drain().unwrap()[0].is_ok());
            drop(client);
            stop(server);
            // The accept thread was joined, so its listener is closed.
            assert!(
                TcpStream::connect(reach).is_err(),
                "{bind}: still accepting"
            );
        });
    }

    #[test]
    fn shutdown_and_drop_wake_a_blocked_accept() {
        for bind in ["127.0.0.1:0", "0.0.0.0:0"] {
            serve_then_stop(bind, drop);
            serve_then_stop(bind, |mut server| server.shutdown(Duration::from_secs(5)));
        }
        // IPv6 where the host has it.
        if TcpListener::bind("[::1]:0").is_ok() {
            serve_then_stop("[::]:0", drop);
        }
    }

    #[test]
    fn wake_addr_maps_unspecified_binds_to_loopback() {
        let wake = |a: &str| wake_addr(a.parse().unwrap()).to_string();
        assert_eq!(wake("0.0.0.0:7401"), "127.0.0.1:7401");
        assert_eq!(wake("[::]:7401"), "[::1]:7401");
        assert_eq!(wake("10.1.2.3:7401"), "10.1.2.3:7401");
    }

    /// If the wake connect fails, shutdown leaves the accept thread
    /// unjoined instead of hanging; the thread ends at the next
    /// connection it receives.
    #[test]
    fn shutdown_does_not_hang_when_the_wake_connect_fails() {
        crate::within(WATCHDOG, || {
            let mut server = Server::bind("127.0.0.1:0", 1).unwrap();
            let real = server.local_addr();
            // Point the wake at a port nothing listens on.
            let dead = TcpListener::bind("127.0.0.1:0")
                .unwrap()
                .local_addr()
                .unwrap();
            server.addr = dead;
            server.shutdown(Duration::ZERO);
            assert!(server.accept.is_none());
            drop(server);
            // The parked accept loop sees `stop` at the next connection.
            drop(TcpStream::connect(real).unwrap());
            let deadline = Instant::now() + Duration::from_secs(10);
            while TcpStream::connect(real).is_ok() {
                assert!(Instant::now() < deadline, "accept loop still running");
                std::thread::sleep(Duration::from_millis(5));
            }
        });
    }

    #[test]
    fn sweep_streams_tagged_members() {
        let server = Server::bind("127.0.0.1:0", 2).unwrap();
        let mut client = Client::connect(server.local_addr()).unwrap();
        client
            .submit("graph=cycle:10 model=coloring:q=5 job=run:rounds=10 seeds=0..3")
            .unwrap();
        let outcomes = client.drain().unwrap();
        assert_eq!(outcomes[0].members.len(), 3);
        let sweep = outcomes[0].clone().into_sweep_result().unwrap();
        assert_eq!(sweep.summary.jobs, 3);
        for (i, member) in sweep.results.iter().enumerate() {
            let solo: crate::spec::JobSpec =
                format!("graph=cycle:10 model=coloring:q=5 seed={i} job=run:rounds=10")
                    .parse()
                    .unwrap();
            assert_eq!(member, &solo.run().unwrap(), "member {i}");
        }
    }
}
