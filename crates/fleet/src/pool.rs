//! Persistent work-stealing executor for the fleet's vehicle batches
//! and parameter sweeps.
//!
//! The engine submits "run these N independent chunks of work on at
//! most K threads" every epoch, so the pool parks K − 1 helpers for its
//! lifetime and the submitting thread works as worker 0. A submission
//! cuts its items into one contiguous share per worker, each an
//! iterator behind a `Mutex` that hands out the `&mut` items: a worker
//! takes the front of its own share, then steals from the *back* of a
//! sibling's, the items that sibling would reach last. Each worker
//! reports its busy time and steals as a [`WorkerSample`].
//!
//! The job slot holds the submission's borrowed worker closure. A
//! helper that takes it counts itself in under the slot's lock; when
//! the submitter runs out of work it withdraws the closure and waits
//! only for the helpers that counted in. That rule makes the pool's one
//! `unsafe`, which erases the closure's lifetime to fit the slot, sound.
//!
//! The steal schedule depends on the wall clock, so callers submit only
//! work whose outputs are order-free; [`WorkerPool::map`] returns
//! outputs in input order. A panicking task does not take its worker
//! down: the submission re-raises the first panic once every other item
//! has run.

use std::panic::{self, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock, PoisonError};
use std::thread;
use std::time::Instant;

use vdap_obs::WorkerSample;

/// A fixed-size pool of persistent worker threads, capped at the
/// machine's available parallelism. The submitting thread is worker 0,
/// so the pool itself holds one thread fewer than it uses.
///
/// Helpers are spawned lazily on the first parallel submission and
/// parked between submissions; dropping the pool shuts them down and
/// joins them. A single-thread pool never spawns: it runs submissions
/// on the caller, in index order. Any pool runs a one-item submission
/// on the caller too.
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
    /// The job slot and the parked helpers, once spawned.
    helpers: OnceLock<(Arc<Slot>, Vec<thread::JoinHandle<()>>)>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .field("spawned", &self.helpers.get().is_some())
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
            helpers: OnceLock::new(),
        }
    }

    /// A pool sized to the machine (`available_parallelism` workers).
    #[must_use]
    pub fn with_default_size() -> Self {
        WorkerPool::new(usize::MAX)
    }

    /// Number of worker threads this pool will use, the submitting
    /// thread included.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Applies `f` to every input on the pool and returns outputs in
    /// input order.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic of any `f` call, after every other
    /// input has been mapped.
    pub fn map<P, T>(&self, inputs: Vec<P>, f: impl Fn(P) -> T + Sync) -> Vec<T>
    where
        P: Send,
        T: Send,
    {
        let mut slots: Vec<_> = inputs.into_iter().map(|p| (Some(p), None)).collect();
        self.for_each_mut(&mut slots, |_, (input, output)| {
            *output = Some(f(input.take().expect("each input is taken once")));
        });
        slots
            .into_iter()
            .map(|(_, output)| output.expect("every input produced an output"))
            .collect()
    }

    /// Runs `f(index, item)` for every item, mutating in place, with the
    /// calling thread as worker 0. Each item is visited exactly once.
    /// Returns one [`WorkerSample`] per pool thread for this submission.
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
        let threads = self.threads;
        if items.is_empty() {
            return vec![WorkerSample::default(); threads];
        }
        let inline = threads == 1 || items.len() == 1;
        let share_len = items.len().div_ceil(threads);
        let shares: Vec<_> = items
            .chunks_mut(share_len)
            .map(|share| Mutex::new(share.iter_mut().enumerate()))
            .collect();
        // Worker `w` takes the front of its own share, else steals the
        // back of a sibling's, scanning round-robin from `w + 1`.
        let take = |v: usize, steal: bool| {
            let mut share = shares.get(v)?.lock().expect("pool share lock");
            let (i, item) = if steal {
                share.next_back()
            } else {
                share.next()
            }?;
            Some((v * share_len + i, item, steal))
        };
        let samples = Mutex::new(vec![WorkerSample::default(); threads]);
        let panicked = Mutex::new(None);
        let work = |w: usize| {
            let mut sample = WorkerSample::default();
            let claim = || {
                take(w, false).or_else(|| (1..threads).find_map(|k| take((w + k) % threads, true)))
            };
            let started = Instant::now();
            while let Some((i, item, stolen)) = claim() {
                sample.steals += u64::from(stolen);
                if let Err(payload) = panic::catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                    panicked
                        .lock()
                        .expect("pool panic slot")
                        .get_or_insert(payload);
                }
            }
            sample.busy = started.elapsed();
            samples.lock().expect("pool samples")[w] = sample;
        };
        // One item can go to one worker only: the caller runs it
        // instead of waking helpers that would find nothing to take.
        if inline {
            work(0);
        } else {
            self.helpers
                .get_or_init(|| spawn_helpers(threads))
                .0
                .run(&work);
        }
        if let Some(payload) = panicked.into_inner().expect("pool panic slot") {
            panic::resume_unwind(payload);
        }
        samples.into_inner().expect("pool samples")
    }
}

/// Spawns the parked helpers, workers `1..threads`.
fn spawn_helpers(threads: usize) -> (Arc<Slot>, Vec<thread::JoinHandle<()>>) {
    let slot = Arc::new(Slot::default());
    let handles = (1..threads)
        .map(|w| {
            let slot = Arc::clone(&slot);
            thread::Builder::new()
                .name(format!("vdap-steal-{w}"))
                .spawn(move || helper_loop(w, &slot))
                .expect("spawn pool worker")
        })
        .collect();
    (slot, handles)
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        if let Some((slot, handles)) = self.helpers.take() {
            let mut job = slot.job.lock().unwrap_or_else(PoisonError::into_inner);
            job.shutdown = true;
            drop(job);
            slot.posted.notify_all();
            for handle in handles {
                let _ = handle.join();
            }
        }
    }
}

/// The job slot the submitting thread shares with the helpers.
#[derive(Default)]
struct Slot {
    job: Mutex<Job>,
    /// Wakes parked helpers when a job is posted or the pool shuts down.
    posted: Condvar,
    /// Wakes the submitter when the last counted-in helper leaves.
    left: Condvar,
    /// Serializes submissions: the slot holds one job at a time.
    submit: Mutex<()>,
}

#[derive(Default)]
struct Job {
    /// Bumped per submission: a helper joins each job at most once.
    epoch: u64,
    /// The submission's worker closure, lifetime-erased: present from
    /// posting until the submitter withdraws it (see [`Withdraw`]).
    work: Option<&'static (dyn Fn(usize) + Sync)>,
    /// Helpers that took `work` and have not finished running it.
    running: usize,
    shutdown: bool,
}

impl Slot {
    /// Posts `work` to the helpers and runs it as worker 0; returns once
    /// the closure is withdrawn and no helper runs it any more.
    fn run(&self, work: &(dyn Fn(usize) + Sync)) {
        let _serial = self.submit.lock().expect("pool submit lock");
        // Dropped before `_serial`, on return and on unwind alike.
        let _withdraw = Withdraw(self);
        let mut job = self.job.lock().expect("pool job lock");
        #[allow(unsafe_code)]
        // SAFETY: the erased reference is reachable only through the
        // job slot, and a helper copies it out only under the job lock
        // while counting itself in. `_withdraw` clears the slot and
        // waits until every counted-in helper has counted out before
        // `run` returns or unwinds, so no use outlives the borrow.
        let erased: &'static (dyn Fn(usize) + Sync) = unsafe { std::mem::transmute(work) };
        job.work = Some(erased);
        job.epoch += 1;
        drop(job);
        self.posted.notify_all();
        work(0);
    }
}

/// Clears the job slot and waits until every helper that took the
/// closure has finished with it: the condition the lifetime erasure in
/// [`Slot::run`] rests on.
struct Withdraw<'a>(&'a Slot);

impl Drop for Withdraw<'_> {
    fn drop(&mut self) {
        // Every update under the job lock leaves the slot consistent, so
        // a poisoned lock is safe to use, and a drop must not panic.
        let mut job = self.0.job.lock().unwrap_or_else(PoisonError::into_inner);
        job.work = None;
        drop(self.0.left.wait_while(job, |job| job.running > 0));
    }
}

/// A helper's life: wait for a job it has not seen, count in unless the
/// submitter already withdrew it, run it as worker `w`, count out.
fn helper_loop(w: usize, slot: &Slot) {
    let mut job = slot.job.lock().expect("pool job lock");
    while !job.shutdown {
        let seen = job.epoch;
        if let Some(work) = job.work {
            job.running += 1;
            drop(job);
            work(w);
            job = slot.job.lock().expect("pool job lock");
            job.running -= 1;
            if job.running == 0 && job.work.is_none() {
                slot.left.notify_one();
            }
        }
        job = slot
            .posted
            .wait_while(job, |job| job.epoch == seen && !job.shutdown)
            .expect("pool job lock");
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

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
    fn one_item_runs_on_the_caller_and_spawns_no_helper() {
        let pool = WorkerPool::new(2);
        let caller = thread::current().id();
        let mut item = [None];
        pool.for_each_mut(&mut item, |_, ran_on| {
            *ran_on = Some(thread::current().id())
        });
        assert_eq!(item, [Some(caller)]);
        assert_eq!(pool.map(vec![()], |()| thread::current().id()), [caller]);
        assert!(pool.helpers.get().is_none(), "a helper was spawned");
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
        // Steals are batch runs: never more than the items submitted.
        assert!(samples.iter().map(|s| s.steals).sum::<u64>() <= 32);
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

    #[test]
    fn concurrent_submissions_to_one_shared_pool_all_come_back_right() {
        // The pool is `Sync`: four threads submit to it at once. The
        // barrier lines their first submissions up, so later ones
        // queue on the submit lock while a job is in flight.
        let pool = WorkerPool::new(4);
        let start = std::sync::Barrier::new(4);
        thread::scope(|s| {
            for t in 0..4u64 {
                let (pool, start) = (&pool, &start);
                s.spawn(move || {
                    start.wait();
                    for round in 0..200u64 {
                        let inputs: Vec<u64> = (0..(round % 37) + 1).collect();
                        let out = pool.map(inputs.clone(), |x| x * 1000 + t);
                        let want: Vec<u64> = inputs.iter().map(|x| x * 1000 + t).collect();
                        assert_eq!(out, want, "thread {t}, round {round}");
                    }
                });
            }
        });
    }

    #[test]
    fn short_submissions_over_fresh_vecs_visit_every_item_once() {
        // Each submission borrows a Vec that is dropped as soon as it
        // returns, and most end before a helper has woken: a late
        // helper must find the closure withdrawn and never touch the
        // freed items.
        let pool = WorkerPool::with_default_size();
        for round in 0..10_000usize {
            let mut items = vec![0u8; round % 7 + 1];
            pool.for_each_mut(&mut items, |_, x| *x += 1);
            assert!(items.iter().all(|&x| x == 1), "round {round}: {items:?}");
        }
    }
}
