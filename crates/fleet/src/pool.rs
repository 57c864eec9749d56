//! Persistent work-stealing executor for the fleet's vehicle batches
//! and parameter sweeps.
//!
//! The fleet engine needs "run these N independent chunks of work on at
//! most K OS threads, return results in input order" — but it needs it
//! *every epoch*, thousands of times per run. The old pool spawned and
//! joined fresh scoped threads per call and funneled every item through
//! its own `Mutex` cell; this one holds K persistent parked workers for
//! the pool's lifetime and hands items out by disjoint index, so the
//! steady-state cost of a submission is one condvar broadcast.
//!
//! Work distribution is classic stealing: each worker owns a deque and
//! pops from the front; a contiguous chunk of the submission is
//! pre-pushed onto each deque and the remainder goes to a shared
//! injector queue; a worker that runs dry takes from the injector and
//! then steals from the *back* of its siblings' deques. Per-worker
//! busy time, steal counts, and stolen-work time are reported back per
//! submission ([`WorkerSample`]) so the engine profile can show where
//! the epoch's wall-clock went.
//!
//! The steal schedule is wall-clock-dependent and therefore
//! nondeterministic — which is why callers must only submit work whose
//! *outputs* are order-free (the fleet's vehicle batches each own their
//! seeded RNG streams and private output buffers, and the engine folds
//! batch results in canonical order). Results of [`WorkerPool::map`]
//! are returned in input order regardless of which worker ran them, so
//! pool size never affects determinism.
//!
//! A task that panics does not take its worker down: the worker catches
//! the unwind, still counts the task as finished, and the submission
//! re-raises the first panic on the submitting thread once every task
//! has run.

use std::any::Any;
use std::cell::UnsafeCell;
use std::collections::VecDeque;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::{Duration, Instant};

use vdap_obs::WorkerSample;

/// A fixed-size pool of persistent worker threads, capped at the
/// machine's available parallelism.
///
/// Workers are spawned lazily on the first parallel submission and
/// parked between submissions; dropping the pool shuts them down and
/// joins them. A single-thread pool never spawns: it runs submissions
/// inline on the caller, in index order.
///
/// # Examples
///
/// ```
/// use vdap_fleet::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let squares = pool.map((0u64..8).collect(), |x| x * x);
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
pub struct WorkerPool {
    threads: usize,
    inner: OnceLock<Inner>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("spawned", &self.inner.get().is_some())
            .finish()
    }
}

impl WorkerPool {
    /// Creates a pool of at most `max_threads` workers, clamped to
    /// `[1, available_parallelism]`. No threads are spawned until the
    /// first parallel submission.
    #[must_use]
    pub fn new(max_threads: usize) -> Self {
        let hw = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        WorkerPool {
            threads: max_threads.clamp(1, hw),
            inner: OnceLock::new(),
        }
    }

    /// A pool sized to the machine (`available_parallelism` workers).
    #[must_use]
    pub fn with_default_size() -> Self {
        WorkerPool::new(usize::MAX)
    }

    /// Number of worker threads this pool will use.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every input on the pool and returns outputs in
    /// input order.
    pub fn map<P, T>(&self, inputs: Vec<P>, f: impl Fn(P) -> T + Sync) -> Vec<T>
    where
        P: Send,
        T: Send,
    {
        let n = inputs.len();
        if n == 0 {
            return Vec::new();
        }
        let inputs: Slots<Option<P>> = Slots(
            inputs
                .into_iter()
                .map(|p| UnsafeCell::new(Some(p)))
                .collect(),
        );
        let outputs: Slots<Option<T>> = Slots((0..n).map(|_| UnsafeCell::new(None)).collect());
        self.run_tasks(n, &|_w, i| {
            // SAFETY: the executor hands each index to exactly one
            // worker, so these disjoint-slot accesses never alias.
            let input = unsafe { &mut *inputs.slot(i) }
                .take()
                .expect("each input is taken exactly once");
            let output = f(input);
            unsafe { *outputs.slot(i) = Some(output) };
        });
        outputs
            .0
            .into_iter()
            .map(|c| c.into_inner().expect("every input produced an output"))
            .collect()
    }

    /// Runs `f(index, item)` for every item, mutating in place. Items
    /// are handed to workers by disjoint index — no per-item locks —
    /// and each item is visited exactly once. Returns one
    /// [`WorkerSample`] per pool thread for this submission.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any `f` call, after every other
    /// item has been visited.
    pub fn for_each_mut<S: Send>(
        &self,
        items: &mut [S],
        f: impl Fn(usize, &mut S) + Sync,
    ) -> Vec<WorkerSample> {
        let n = items.len();
        let base = SendPtr(items.as_mut_ptr());
        self.run_tasks(n, &move |_w, i| {
            // SAFETY: the executor hands each index to exactly one
            // worker, so these &mut borrows are disjoint, and the
            // submission blocks until every task finished, so the
            // slice outlives all of them.
            let item = unsafe { &mut *base.at(i) };
            f(i, item);
        })
    }

    /// Executes `task(worker, index)` for every index in `0..n` across
    /// the pool and blocks until all of them finished. The core
    /// submission primitive behind [`WorkerPool::map`] and
    /// [`WorkerPool::for_each_mut`].
    fn run_tasks(&self, n: usize, task: &(dyn Fn(usize, usize) + Sync)) -> Vec<WorkerSample> {
        if self.threads == 1 {
            let started = Instant::now();
            for i in 0..n {
                task(0, i);
            }
            return vec![WorkerSample {
                busy: started.elapsed(),
                steals: 0,
                stolen: Duration::ZERO,
            }];
        }
        if n == 0 {
            return vec![WorkerSample::default(); self.threads];
        }
        let inner = self.inner.get_or_init(|| Inner::spawn(self.threads));
        inner.submit(n, task)
    }
}

/// `Vec<UnsafeCell<T>>` shared across workers; sound because each index
/// is claimed by exactly one worker per submission. Access goes through
/// [`Slots::slot`] so closures capture the wrapper (and its `Sync`
/// impl), not the raw `Vec` field.
struct Slots<T>(Vec<UnsafeCell<T>>);

impl<T> Slots<T> {
    fn slot(&self, i: usize) -> *mut T {
        self.0[i].get()
    }
}

// SAFETY: disjoint-index access only (see Slots doc).
unsafe impl<T: Send> Sync for Slots<T> {}

/// A raw `*mut S` that may cross threads; each worker only dereferences
/// offsets it exclusively claimed. Access goes through [`SendPtr::at`]
/// so closures capture the wrapper, not the raw pointer field.
#[derive(Clone, Copy)]
struct SendPtr<S>(*mut S);

impl<S> SendPtr<S> {
    /// The `i`-th element's address.
    ///
    /// # Safety
    ///
    /// `i` must be in bounds of the allocation this pointer heads.
    unsafe fn at(&self, i: usize) -> *mut S {
        unsafe { self.0.add(i) }
    }
}

// SAFETY: disjoint-index access only (see SendPtr doc).
unsafe impl<S: Send> Send for SendPtr<S> {}
unsafe impl<S: Send> Sync for SendPtr<S> {}

/// The current submission, guarded by `Shared::job`. The task pointer
/// is lifetime-erased: `Inner::submit` blocks until every task has run
/// and clears it before returning, so workers never observe a dangling
/// closure.
struct JobSlot {
    epoch: u64,
    task: Option<&'static (dyn Fn(usize, usize) + Sync)>,
    shutdown: bool,
}

#[derive(Default)]
struct WorkerStat {
    busy_ns: AtomicU64,
    steals: AtomicU64,
    stolen_ns: AtomicU64,
}

struct Shared {
    job: Mutex<JobSlot>,
    job_cv: Condvar,
    /// Per-worker deques: the owner pops from the front, thieves steal
    /// from the back.
    deques: Vec<Mutex<VecDeque<usize>>>,
    /// Overflow/remainder queue any worker may take from (not a steal).
    injector: Mutex<VecDeque<usize>>,
    /// Tasks of the current submission not yet completed.
    pending: AtomicUsize,
    /// The first panic payload of the current submission.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
    done: Mutex<()>,
    done_cv: Condvar,
    stats: Vec<WorkerStat>,
}

struct Inner {
    shared: Arc<Shared>,
    /// Serializes submissions: the distribution/stat-reset protocol
    /// assumes one job in flight.
    submit_lock: Mutex<()>,
    handles: Vec<thread::JoinHandle<()>>,
}

impl Inner {
    fn spawn(threads: usize) -> Inner {
        let shared = Arc::new(Shared {
            job: Mutex::new(JobSlot {
                epoch: 0,
                task: None,
                shutdown: false,
            }),
            job_cv: Condvar::new(),
            deques: (0..threads).map(|_| Mutex::new(VecDeque::new())).collect(),
            injector: Mutex::new(VecDeque::new()),
            pending: AtomicUsize::new(0),
            panic: Mutex::new(None),
            done: Mutex::new(()),
            done_cv: Condvar::new(),
            stats: (0..threads).map(|_| WorkerStat::default()).collect(),
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = Arc::clone(&shared);
                thread::Builder::new()
                    .name(format!("vdap-steal-{w}"))
                    .spawn(move || worker_loop(w, &shared))
                    .expect("spawn pool worker")
            })
            .collect();
        Inner {
            shared,
            submit_lock: Mutex::new(()),
            handles,
        }
    }

    fn submit(&self, n: usize, task: &(dyn Fn(usize, usize) + Sync)) -> Vec<WorkerSample> {
        let serial = self.submit_lock.lock().expect("pool submit lock");
        let shared = &self.shared;
        let threads = shared.deques.len();
        {
            // All setup happens under the job lock: a worker that claims
            // a task from a refilled deque must take this lock to read
            // the closure, so it cannot run ahead of the installation.
            let mut job = shared.job.lock().expect("pool job lock");
            for stat in &shared.stats {
                stat.busy_ns.store(0, Ordering::Relaxed);
                stat.steals.store(0, Ordering::Relaxed);
                stat.stolen_ns.store(0, Ordering::Relaxed);
            }
            shared.pending.store(n, Ordering::Release);
            let chunk = n / threads;
            for (w, deque) in shared.deques.iter().enumerate() {
                deque
                    .lock()
                    .expect("pool deque lock")
                    .extend(w * chunk..(w + 1) * chunk);
            }
            shared
                .injector
                .lock()
                .expect("pool injector lock")
                .extend(threads * chunk..n);
            job.epoch += 1;
            // SAFETY: lifetime erasure — this reference is cleared
            // below before `submit` returns, and `submit` only returns
            // once `pending` hit zero, i.e. after the last use.
            job.task = Some(unsafe {
                std::mem::transmute::<
                    &(dyn Fn(usize, usize) + Sync),
                    &'static (dyn Fn(usize, usize) + Sync),
                >(task)
            });
            shared.job_cv.notify_all();
        }
        {
            let mut guard = shared.done.lock().expect("pool done lock");
            while shared.pending.load(Ordering::Acquire) > 0 {
                guard = shared.done_cv.wait(guard).expect("pool done wait");
            }
        }
        shared.job.lock().expect("pool job lock").task = None;
        let samples = shared
            .stats
            .iter()
            .map(|stat| WorkerSample {
                busy: Duration::from_nanos(stat.busy_ns.load(Ordering::Relaxed)),
                steals: stat.steals.load(Ordering::Relaxed),
                stolen: Duration::from_nanos(stat.stolen_ns.load(Ordering::Relaxed)),
            })
            .collect();
        let panicked = shared.panic.lock().expect("pool panic slot").take();
        // Re-raised only after the submit lock is released, so the pool
        // stays usable for the next submission.
        drop(serial);
        if let Some(payload) = panicked {
            panic::resume_unwind(payload);
        }
        samples
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        {
            let mut job = self.shared.job.lock().expect("pool job lock");
            job.shutdown = true;
            self.shared.job_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Claims one task index for worker `w`: own deque front, then the
/// injector, then a steal from the back of a sibling's deque. Returns
/// `(index, was_stolen)`.
fn claim(w: usize, shared: &Shared) -> Option<(usize, bool)> {
    if let Some(i) = shared.deques[w]
        .lock()
        .expect("pool deque lock")
        .pop_front()
    {
        return Some((i, false));
    }
    if let Some(i) = shared
        .injector
        .lock()
        .expect("pool injector lock")
        .pop_front()
    {
        return Some((i, false));
    }
    let threads = shared.deques.len();
    for k in 1..threads {
        let victim = (w + k) % threads;
        if let Some(i) = shared.deques[victim]
            .lock()
            .expect("pool deque lock")
            .pop_back()
        {
            return Some((i, true));
        }
    }
    None
}

fn worker_loop(w: usize, shared: &Shared) {
    let mut last_epoch = 0u64;
    loop {
        {
            let mut job = shared.job.lock().expect("pool job lock");
            while job.epoch == last_epoch && !job.shutdown {
                job = shared.job_cv.wait(job).expect("pool job wait");
            }
            if job.shutdown {
                return;
            }
            last_epoch = job.epoch;
        }
        while let Some((i, was_stolen)) = claim(w, shared) {
            // Re-read the closure under the lock: a claimed task pins
            // `pending > 0`, so the job it belongs to cannot be
            // replaced (or its closure cleared) before we run it.
            let task = shared
                .job
                .lock()
                .expect("pool job lock")
                .task
                .expect("claimed task implies an installed job");
            let started = Instant::now();
            // A panicking task must still count as finished, or the
            // submitter would wait on `pending` forever.
            if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| task(w, i))) {
                shared
                    .panic
                    .lock()
                    .expect("pool panic slot")
                    .get_or_insert(payload);
            }
            let elapsed = started.elapsed().as_nanos() as u64;
            let stat = &shared.stats[w];
            stat.busy_ns.fetch_add(elapsed, Ordering::Relaxed);
            if was_stolen {
                stat.steals.fetch_add(1, Ordering::Relaxed);
                stat.stolen_ns.fetch_add(elapsed, Ordering::Relaxed);
            }
            if shared.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
                let _guard = shared.done.lock().expect("pool done lock");
                shared.done_cv.notify_all();
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn map_preserves_input_order() {
        let pool = WorkerPool::new(3);
        let out = pool.map((0..100u32).collect(), |x| x * 2);
        assert_eq!(out, (0..100).map(|x| x * 2).collect::<Vec<u32>>());
    }

    #[test]
    fn map_handles_fewer_inputs_than_workers() {
        let pool = WorkerPool::new(16);
        assert_eq!(pool.map(vec![7u8], |x| x + 1), vec![8]);
        assert_eq!(pool.map(Vec::<u8>::new(), |x| x), Vec::<u8>::new());
    }

    #[test]
    fn for_each_mut_touches_every_item_once() {
        let pool = WorkerPool::new(4);
        let mut items = vec![0u32; 50];
        pool.for_each_mut(&mut items, |i, x| *x += i as u32 + 1);
        for (i, x) in items.iter().enumerate() {
            assert_eq!(*x, i as u32 + 1);
        }
    }

    #[test]
    fn pool_size_is_clamped() {
        assert!(WorkerPool::new(0).threads() >= 1);
        let hw = thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
        assert!(WorkerPool::new(usize::MAX).threads() <= hw);
    }

    #[test]
    fn single_thread_pool_runs_inline() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        let out = pool.map(vec![1, 2, 3], |x| x * 10);
        assert_eq!(out, vec![10, 20, 30]);
    }

    #[test]
    fn workers_persist_across_submissions() {
        // Thousands of submissions on one pool: the old implementation
        // spawned a thread per worker per call; the persistent pool
        // must reuse its parked workers and stay correct throughout.
        let pool = WorkerPool::new(4);
        let mut items = vec![0u64; 64];
        for _ in 0..1000 {
            pool.for_each_mut(&mut items, |_, x| *x += 1);
        }
        assert!(items.iter().all(|&x| x == 1000));
    }

    #[test]
    fn samples_cover_every_worker_and_account_all_work() {
        let pool = WorkerPool::new(4);
        let mut items = vec![0u8; 32];
        let samples = pool.for_each_mut(&mut items, |_, x| {
            *x = 1;
            // Make the work long enough to register on the clock.
            std::hint::black_box((0..10_000u64).sum::<u64>());
        });
        if pool.threads() > 1 {
            assert_eq!(samples.len(), pool.threads());
        } else {
            assert_eq!(samples.len(), 1);
        }
        assert!(samples.iter().any(|s| s.busy > Duration::ZERO));
        // Stolen time is a subset of busy time, per worker.
        for s in &samples {
            assert!(s.stolen <= s.busy);
        }
    }

    #[test]
    fn a_panicking_task_panics_the_caller_instead_of_hanging() {
        // Run on a helper thread, so a submission that never returns
        // fails the test at the timeout instead of hanging it.
        let (tx, rx) = std::sync::mpsc::channel();
        thread::spawn(move || {
            let pool = WorkerPool::new(2);
            let mut items = vec![0u32; 16];
            let outcome = panic::catch_unwind(AssertUnwindSafe(|| {
                pool.for_each_mut(&mut items, |i, x| {
                    assert!(i != 5, "task 5 failed");
                    *x += 1;
                });
            }));
            let message = outcome
                .err()
                .map(|payload| match payload.downcast::<&str>() {
                    Ok(text) => (*text).to_string(),
                    Err(payload) => payload
                        .downcast::<String>()
                        .map_or_else(|_| "?".into(), |t| *t),
                });
            // Every other item still ran, and the pool serves the next
            // submission.
            let visited = items.iter().filter(|&&x| x == 1).count();
            pool.for_each_mut(&mut items, |_, x| *x += 1);
            let _ = tx.send((message, visited, items.iter().all(|&x| x >= 1)));
        });
        let (message, visited, reusable) = rx
            .recv_timeout(Duration::from_secs(60))
            .expect("a panicking task hung the submission");
        assert_eq!(message.as_deref(), Some("task 5 failed"));
        assert_eq!(visited, 15);
        assert!(reusable);
    }

    #[test]
    fn uneven_items_get_stolen() {
        // One pathologically slow item pinned to worker 0's chunk: the
        // rest of worker 0's chunk should be stolen by idle siblings
        // (on a multi-core machine) — and regardless of stealing, every
        // item must be visited exactly once.
        let pool = WorkerPool::with_default_size();
        let mut items = vec![0u32; 256];
        let samples = pool.for_each_mut(&mut items, |i, x| {
            if i == 0 {
                std::thread::sleep(Duration::from_millis(20));
            }
            *x += 1;
        });
        assert!(items.iter().all(|&x| x == 1));
        if pool.threads() > 1 {
            let steals: u64 = samples.iter().map(|s| s.steals).sum();
            assert!(steals > 0, "no batch was stolen from the stalled worker");
        }
    }
}
