//! One persistent fork-join pool per multi-worker chain.
//!
//! A synchronous round of the paper's chains touches every vertex once,
//! so on a large graph it costs about a millisecond, and on a small one
//! a few microseconds. Spawning and joining a thread per round costs
//! hundreds of microseconds on a busy host: more than the work itself
//! on all but the largest graphs. A [`RoundPool`] pays that once per
//! chain instead. It owns `workers − 1` threads, started the first time
//! a round has work for them and joined when the pool drops; the
//! calling thread always takes job 0.
//!
//! Between rounds a worker spins on a generation counter for [`SPIN`],
//! yielding its core now and then, then parks on a condition variable.
//! Job `i` always runs on worker `i`, so each worker's range (and its
//! kernel's buffers) stays in one core's cache round after round. A
//! panic in any job is re-raised on the calling thread once every job
//! of the round has finished. If the OS refuses a thread, the jobs it
//! would have run execute on the calling thread: slower, but the same
//! trajectory, since the determinism contract makes execution order
//! unobservable.

use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long an idle worker spins before it parks: longer than the
/// caller's serial work between two rounds of one chain (the sharded
/// exchange is the largest, tens of microseconds on a 256² torus), so
/// back-to-back rounds never pay a wake-up, and short enough that an
/// idle chain gives its core back almost at once.
const SPIN: Duration = Duration::from_micros(200);

/// Spinning threads yield their core every this many polls, so that on
/// an oversubscribed host (more workers than cores, or several pools)
/// a spinner never holds a core that a working thread is waiting for.
const YIELD_EVERY: u32 = 64;

/// One round's job, called once per job index.
type Job<'a> = dyn Fn(usize) + Sync + 'a;

/// A raw pointer to a slice's items that may cross threads: each job
/// index dereferences only its own item.
struct Items<T>(*mut T);

// SAFETY: `RoundPool::run` hands item `i` to job `i` alone, so no two
// threads ever reach the same item; `T: Send` lets an item be mutated
// from a thread other than its owner's.
unsafe impl<T: Send> Sync for Items<T> {}

/// State shared by the caller and the workers of one pool.
struct Shared {
    /// Bumped once per dispatched round; a worker runs the round's job
    /// when it sees the counter move.
    generation: AtomicU64,
    /// The current round's job, as a thin pointer to a `&Job` on the
    /// caller's stack. Written before `generation` is bumped (the
    /// bump's `SeqCst` store releases it) and read after a worker sees
    /// the bump (`SeqCst`/`Acquire` load).
    job: AtomicPtr<()>,
    /// Workers still running the current round: set before the bump,
    /// decremented (`Release`) by each worker when its job returns,
    /// awaited (`Acquire`) by the caller, which publishes the jobs'
    /// writes back to it.
    pending: AtomicUsize,
    /// The first panic payload a worker caught this round.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    /// Set once, by `Drop`, when no round is in flight.
    shutdown: AtomicBool,
    /// Workers parked (or about to park) on `wake`. Incremented under
    /// `lock` before the parked worker re-checks `generation`, so a
    /// dispatcher that reads zero here has bumped `generation` before
    /// any worker's re-check (all `SeqCst`).
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    wake: Condvar,
}

impl Shared {
    /// Waits for a generation other than `seen`: `None` on shutdown.
    fn wait_past(&self, seen: u64) -> Option<u64> {
        let start = Instant::now();
        let mut spins = 0u32;
        loop {
            let g = self.generation.load(Ordering::SeqCst);
            if g != seen {
                return Some(g);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                return None;
            }
            spins = spins.wrapping_add(1);
            if spins % YIELD_EVERY == 0 {
                if start.elapsed() > SPIN {
                    break;
                }
                std::thread::yield_now();
            }
            std::hint::spin_loop();
        }
        let mut guard = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, Ordering::SeqCst);
        let next = loop {
            let g = self.generation.load(Ordering::SeqCst);
            if g != seen {
                break Some(g);
            }
            if self.shutdown.load(Ordering::SeqCst) {
                break None;
            }
            guard = self
                .wake
                .wait(guard)
                .unwrap_or_else(PoisonError::into_inner);
        };
        self.sleepers.fetch_sub(1, Ordering::SeqCst);
        next
    }

    /// Wakes every parked worker (the caller has just bumped
    /// `generation` or set `shutdown`).
    fn wake_sleepers(&self) {
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            drop(self.lock.lock().unwrap_or_else(PoisonError::into_inner));
            self.wake.notify_all();
        }
    }
}

/// Worker `index`'s loop: run job `index` of every round until the
/// pool shuts down. Workers start before the first round is dispatched
/// but may not run until after it, so each starts from generation 0.
fn work(shared: &Shared, index: usize) {
    let mut seen = 0;
    while let Some(g) = shared.wait_past(seen) {
        seen = g;
        let job = shared.job.load(Ordering::Acquire) as *const &Job<'static>;
        // SAFETY: the caller stored a pointer to a live `&Job` before
        // bumping `generation`, and keeps both alive until `pending`
        // reaches zero, which this worker's decrement below is part of;
        // the job is not touched after that decrement.
        let job: &Job<'static> = unsafe { *job };
        if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| job(index))) {
            let mut first = shared.panic.lock().unwrap_or_else(PoisonError::into_inner);
            first.get_or_insert(payload);
        }
        shared.pending.fetch_sub(1, Ordering::Release);
    }
}

/// A persistent pool of `workers − 1` threads plus the calling thread,
/// which runs one round's jobs at a time (see the module docs).
///
/// A one-worker pool owns nothing and runs every job inline.
pub(crate) struct RoundPool {
    workers: usize,
    /// Started by the first [`RoundPool::run`] with jobs for them.
    threads: Option<(Arc<Shared>, Vec<JoinHandle<()>>)>,
}

impl RoundPool {
    /// A pool for `workers` workers (at least one); no thread starts
    /// until a round has work for it.
    pub(crate) fn new(workers: usize) -> Self {
        RoundPool {
            workers: workers.max(1),
            threads: None,
        }
    }

    /// The worker count the pool was made for (the calling thread
    /// included), whether or not the OS granted every thread.
    pub(crate) fn workers(&self) -> usize {
        self.workers
    }

    /// Starts the worker threads, stopping at the first the OS refuses
    /// (the calling thread then runs those jobs itself).
    fn start(&mut self) -> &(Arc<Shared>, Vec<JoinHandle<()>>) {
        let workers = self.workers;
        self.threads.get_or_insert_with(|| {
            let shared = Arc::new(Shared {
                generation: AtomicU64::new(0),
                job: AtomicPtr::new(std::ptr::null_mut()),
                pending: AtomicUsize::new(0),
                panic: Mutex::new(None),
                shutdown: AtomicBool::new(false),
                sleepers: AtomicUsize::new(0),
                lock: Mutex::new(()),
                wake: Condvar::new(),
            });
            let mut handles = Vec::with_capacity(workers - 1);
            for index in 1..workers {
                let shared = Arc::clone(&shared);
                match spawn(format!("lsl-round-{index}"), move || work(&shared, index)) {
                    Ok(handle) => handles.push(handle),
                    Err(_) => break,
                }
            }
            (shared, handles)
        })
    }

    /// Runs `f(i, &mut items[i])` for every item: item `i` on worker
    /// `i` when the pool has that thread, else (item 0, items past the
    /// last thread, and every item of a one-worker pool) on the calling
    /// thread. Returns once every job has finished.
    ///
    /// # Panics
    /// Re-raises the first panic of any job, after every job of the
    /// round has finished.
    pub(crate) fn run<T: Send>(&mut self, items: &mut [T], f: impl Fn(usize, &mut T) + Sync) {
        if items.len() <= 1 || self.workers <= 1 {
            for (i, item) in items.iter_mut().enumerate() {
                f(i, item);
            }
            return;
        }
        let (shared, handles) = self.start();
        let threads = handles.len();
        let len = items.len();
        let base = Items(items.as_mut_ptr());
        let task = move |i: usize| {
            if i < len {
                let base = &base;
                // SAFETY: `i < len` is in bounds, and job `i` runs
                // exactly once per round (worker `i`, or the caller for
                // the indices no worker takes), so this is the only
                // reference to item `i` while the round runs.
                f(i, unsafe { &mut *base.0.add(i) });
            }
        };
        let job: &Job<'_> = &task;
        shared.pending.store(threads, Ordering::SeqCst);
        shared
            .job
            .store(&job as *const &Job<'_> as *mut (), Ordering::SeqCst);
        shared.generation.fetch_add(1, Ordering::SeqCst);
        shared.wake_sleepers();
        let mine = panic::catch_unwind(AssertUnwindSafe(|| {
            task(0);
            for i in threads + 1..len {
                task(i);
            }
        }));
        // The workers borrow `task` and `items` until they are done,
        // even when the caller's own jobs panicked.
        let mut spins = 0u32;
        while shared.pending.load(Ordering::Acquire) != 0 {
            spins = spins.wrapping_add(1);
            if spins % YIELD_EVERY == 0 {
                std::thread::yield_now();
            }
            std::hint::spin_loop();
        }
        let theirs = shared
            .panic
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .take();
        if let Err(payload) = mine {
            panic::resume_unwind(payload);
        }
        if let Some(payload) = theirs {
            panic::resume_unwind(payload);
        }
    }
}

impl Drop for RoundPool {
    fn drop(&mut self) {
        if let Some((shared, handles)) = self.threads.take() {
            shared.shutdown.store(true, Ordering::SeqCst);
            shared.wake_sleepers();
            for handle in handles {
                // Workers catch every job panic, so a join error cannot
                // carry one; nothing to report from `Drop` either way.
                let _ = handle.join();
            }
        }
    }
}

/// Spawns a named pool thread.
fn spawn(name: String, body: impl FnOnce() + Send + 'static) -> std::io::Result<JoinHandle<()>> {
    #[cfg(test)]
    if REFUSE_THREADS.with(|r| r.get()) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::WouldBlock,
            "thread refused by the test hook",
        ));
    }
    std::thread::Builder::new().name(name).spawn(body)
}

#[cfg(test)]
std::thread_local! {
    /// Test hook: pools built on this thread are refused every thread,
    /// as by an OS at its thread limit.
    pub(crate) static REFUSE_THREADS: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_item_runs_once_on_a_stable_worker() {
        let mut pool = RoundPool::new(3);
        let mut items = vec![(0usize, None); 3];
        let mut names = Vec::new();
        for round in 0..50 {
            pool.run(&mut items, |i, (count, name)| {
                *count += i;
                *name = std::thread::current().name().map(str::to_owned);
            });
            assert!(items
                .iter()
                .enumerate()
                .all(|(i, (c, _))| *c == i * (round + 1)));
            names.push(items.iter().map(|(_, n)| n.clone()).collect::<Vec<_>>());
        }
        assert!(names.windows(2).all(|w| w[0] == w[1]), "workers moved");
        assert_eq!(names[0][1].as_deref(), Some("lsl-round-1"));
        assert_eq!(names[0][2].as_deref(), Some("lsl-round-2"));
    }

    #[test]
    fn worker_panics_reach_the_caller_and_the_pool_survives() {
        let mut pool = RoundPool::new(2);
        let mut items = [0u32; 2];
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut items, |i, _| assert!(i != 1, "job one fails"))
        }));
        let payload = caught.expect_err("the worker's panic must re-raise");
        assert_eq!(payload.downcast_ref::<&str>(), Some(&"job one fails"));
        // The caller's own job may panic too; both finish first.
        let caught = panic::catch_unwind(AssertUnwindSafe(|| {
            pool.run(&mut items, |i, x| {
                *x += 1;
                assert!(i != 0, "job zero fails");
            })
        }));
        assert!(caught.is_err());
        assert_eq!(items, [1, 1]);
        pool.run(&mut items, |_, x| *x += 1);
        assert_eq!(items, [2, 2]);
    }

    #[test]
    fn parked_workers_wake_for_the_next_round() {
        let mut pool = RoundPool::new(2);
        let mut items = [0u32; 2];
        pool.run(&mut items, |_, x| *x += 1);
        std::thread::sleep(SPIN * 20);
        pool.run(&mut items, |_, x| *x += 1);
        assert_eq!(items, [2, 2]);
    }

    #[test]
    fn refused_threads_leave_the_jobs_on_the_caller() {
        REFUSE_THREADS.with(|r| r.set(true));
        let mut pool = RoundPool::new(3);
        let me = std::thread::current().id();
        let mut items = [None; 3];
        pool.run(&mut items, |_, slot| {
            *slot = Some(std::thread::current().id())
        });
        REFUSE_THREADS.with(|r| r.set(false));
        assert!(items.iter().all(|&t| t == Some(me)));
    }
}
