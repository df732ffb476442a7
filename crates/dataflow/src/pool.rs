//! A persistent work-stealing worker pool for heterogeneous tasks.
//!
//! The item-sharded solve paths used to spawn OS threads through
//! [`std::thread::scope`] on every call — acceptable for one cold solve,
//! but the repeated-query traffic this crate is built for (pressure
//! re-solve rounds, batch lint pipelines, plan regeneration) pays the
//! spawn and teardown cost on every round. A [`WorkerPool`] keeps its
//! threads parked on a condvar between calls; [`WorkerPool::scope`]
//! hands out a [`PoolScope`] whose [`PoolScope::spawn`] accepts
//! non-`'static` closures exactly like `std::thread::scope`, and joins
//! every job before returning (also on unwind), which is what makes the
//! lifetime erasure inside sound.
//!
//! Scheduling is work-stealing: every worker owns a local deque and
//! there is one shared injector queue. A job spawned from *outside* the
//! pool lands on the injector; a job spawned from *inside* a pool job
//! (nested [`PoolScope::spawn`]) lands on the spawning worker's local
//! deque, where the owner pops newest-first for locality and idle
//! workers steal oldest-first. This is what lets one pool serve
//! heterogeneous tasks — whole lint-pipeline runs next to word-shard
//! closures — without a head-of-line queue.
//!
//! Two properties matter for callers that nest scopes (a batch-lint job
//! whose solve itself shards over the pool):
//!
//! * [`WorkerPool::scope`] *helps*: while waiting for its jobs it runs
//!   queued jobs (its own or any other scope's) instead of sleeping, so
//!   a scope entered from a worker thread cannot deadlock the pool even
//!   when every worker is inside such a scope;
//! * a panicking job is caught at the job boundary and re-raised by its
//!   own scope only — the pool's locks are never poisoned and the
//!   workers survive for subsequent batches.
//!
//! [`global_pool`] is the process-wide lazily-created instance sized to
//! the available parallelism; the batch lint front-end in `gnt-analyze`
//! draws from it instead of spawning.

use std::cell::Cell;
use std::collections::VecDeque;
use std::marker::PhantomData;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread;
use std::time::Duration;

type Job = Box<dyn FnOnce() + Send + 'static>;

thread_local! {
    /// `(pool identity, worker index)` when the current thread is a pool
    /// worker; spawns from inside a job use it to reach the local deque.
    static WORKER: Cell<Option<(usize, usize)>> = const { Cell::new(None) };
}

/// Wakeup bookkeeping: `generation` ticks on every enqueue so a worker
/// that scanned empty queues re-scans instead of sleeping through a job
/// pushed between its scan and its wait (the classic lost-wakeup race).
struct SleepState {
    generation: u64,
    shutdown: bool,
}

struct PoolShared {
    injector: Mutex<VecDeque<Job>>,
    locals: Vec<Mutex<VecDeque<Job>>>,
    sleep: Mutex<SleepState>,
    job_ready: Condvar,
}

impl PoolShared {
    /// Pool identity for the worker thread-local: stable for the pool's
    /// lifetime, distinct between live pools.
    fn id(self: &Arc<Self>) -> usize {
        Arc::as_ptr(self) as usize
    }

    fn push(self: &Arc<Self>, job: Job) {
        let here = WORKER.with(Cell::get);
        match here {
            // Nested spawn: newest work goes on the spawning worker's own
            // deque (popped LIFO by the owner, stolen FIFO by thieves).
            Some((pool, k)) if pool == self.id() => {
                self.locals[k].lock().expect("pool deque").push_back(job);
            }
            _ => self.injector.lock().expect("pool injector").push_back(job),
        }
        let mut sleep = self.sleep.lock().expect("pool sleep state");
        sleep.generation = sleep.generation.wrapping_add(1);
        drop(sleep);
        self.job_ready.notify_one();
    }

    /// One scheduling round for worker `k`: own deque newest-first, then
    /// the injector, then steal oldest-first from the siblings.
    fn find_job(&self, k: usize) -> Option<Job> {
        if let Some(job) = self.locals[k].lock().expect("pool deque").pop_back() {
            return Some(job);
        }
        if let Some(job) = self.injector.lock().expect("pool injector").pop_front() {
            return Some(job);
        }
        let n = self.locals.len();
        for step in 1..n {
            let victim = (k + step) % n;
            if let Some(job) = self.locals[victim].lock().expect("pool deque").pop_front() {
                return Some(job);
            }
        }
        None
    }

    /// A scheduling round for a thread with no deque of its own (a scope
    /// caller helping out): injector first, then steal from every worker.
    fn steal_any(&self) -> Option<Job> {
        if let Some(job) = self.injector.lock().expect("pool injector").pop_front() {
            return Some(job);
        }
        for local in &self.locals {
            if let Some(job) = local.lock().expect("pool deque").pop_front() {
                return Some(job);
            }
        }
        None
    }
}

struct ScopeState {
    pending: Mutex<usize>,
    all_done: Condvar,
    panicked: AtomicBool,
}

/// A fixed-size pool of persistent worker threads with a scoped-spawn
/// API and work-stealing scheduling. Threads are spawned once in
/// [`WorkerPool::new`] and parked between jobs; dropping the pool shuts
/// them down.
///
/// # Examples
///
/// ```
/// use gnt_dataflow::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let mut parts = vec![0u64; 8];
/// pool.scope(|s| {
///     for (i, slot) in parts.iter_mut().enumerate() {
///         s.spawn(move || *slot = i as u64 * 10);
///     }
/// });
/// assert_eq!(parts.iter().sum::<u64>(), 280);
/// ```
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    workers: usize,
    handles: Vec<thread::JoinHandle<()>>,
    /// Worker threads this pool has spawned — the regression counter
    /// behind [`WorkerPool::threads_spawned`].
    spawned: AtomicUsize,
}

impl WorkerPool {
    /// Creates a pool of `workers` parked threads (at least one).
    pub fn new(workers: usize) -> WorkerPool {
        let workers = workers.max(1);
        let shared = Arc::new(PoolShared {
            injector: Mutex::new(VecDeque::new()),
            locals: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            sleep: Mutex::new(SleepState {
                generation: 0,
                shutdown: false,
            }),
            job_ready: Condvar::new(),
        });
        let spawned = AtomicUsize::new(0);
        let handles = (0..workers)
            .map(|k| {
                let shared = Arc::clone(&shared);
                spawned.fetch_add(1, Ordering::Relaxed);
                thread::Builder::new()
                    .name(format!("gnt-pool-{k}"))
                    .spawn(move || {
                        WORKER.with(|w| w.set(Some((shared.id(), k))));
                        worker_loop(&shared, k);
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            workers,
            handles,
            spawned,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Worker threads this pool has spawned over its lifetime. A
    /// steady-state batch workload must not grow this between batches —
    /// the hardening tests pin exactly that. The count is per pool, so
    /// pools created elsewhere in the process (concurrently running
    /// tests, say) never move it.
    pub fn threads_spawned(&self) -> usize {
        self.spawned.load(Ordering::Relaxed)
    }

    /// Runs `f` with a [`PoolScope`] and blocks until every job spawned
    /// through it has finished — the pool-backed equivalent of
    /// [`std::thread::scope`]. The wait happens even if `f` unwinds, so
    /// borrows captured by the jobs can never dangle. While waiting, the
    /// calling thread helps drain the pool's queues, which keeps nested
    /// scopes (a pool job that itself opens a scope) deadlock-free.
    ///
    /// # Panics
    ///
    /// Panics if any spawned job panicked.
    pub fn scope<'env, R>(
        &self,
        f: impl for<'scope> FnOnce(&'scope PoolScope<'scope, 'env>) -> R,
    ) -> R {
        let scope = PoolScope {
            shared: Arc::clone(&self.shared),
            state: Arc::new(ScopeState {
                pending: Mutex::new(0),
                all_done: Condvar::new(),
                panicked: AtomicBool::new(false),
            }),
            _scope: PhantomData,
            _env: PhantomData,
        };
        /// Joins the scope's jobs on drop, so the wait also runs when the
        /// closure unwinds. Helping (running queued jobs while waiting)
        /// is what makes scopes-from-within-jobs safe on a fixed pool.
        struct WaitGuard<'a>(&'a ScopeState, &'a PoolShared);
        impl Drop for WaitGuard<'_> {
            fn drop(&mut self) {
                loop {
                    if *self.0.pending.lock().expect("pool scope") == 0 {
                        return;
                    }
                    if let Some(job) = self.1.steal_any() {
                        job();
                        continue;
                    }
                    // Nothing runnable right now: sleep until our jobs
                    // finish, with a short timeout so jobs queued later
                    // (by still-running jobs of any scope) get picked up.
                    let pending = self.0.pending.lock().expect("pool scope");
                    if *pending == 0 {
                        return;
                    }
                    let _ = self
                        .0
                        .all_done
                        .wait_timeout(pending, Duration::from_micros(200))
                        .expect("pool scope");
                }
            }
        }
        let result = {
            let _guard = WaitGuard(&scope.state, &scope.shared);
            f(&scope)
        };
        assert!(
            !scope.state.panicked.load(Ordering::Acquire),
            "worker pool job panicked"
        );
        result
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut sleep = self.shared.sleep.lock().expect("pool sleep state");
            sleep.shutdown = true;
        }
        self.shared.job_ready.notify_all();
        for h in self.handles.drain(..) {
            let _ = h.join();
        }
    }
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkerPool({} workers)", self.workers)
    }
}

/// The spawn handle passed to the closure of [`WorkerPool::scope`]:
/// jobs may borrow from the enclosing environment (`'env`) and may
/// themselves spawn onto the same scope (`&'scope self`), because the
/// scope joins them all before it returns.
pub struct PoolScope<'scope, 'env: 'scope> {
    shared: Arc<PoolShared>,
    state: Arc<ScopeState>,
    _scope: PhantomData<&'scope mut &'scope ()>,
    _env: PhantomData<&'env mut &'env ()>,
}

impl<'scope, 'env> PoolScope<'scope, 'env> {
    /// Queues `job` on the pool. Jobs spawned from inside another pool
    /// job go to that worker's local deque (work-stealing); jobs spawned
    /// from outside go to the shared injector. Panics inside the job are
    /// caught at the job boundary and re-raised by the enclosing
    /// [`WorkerPool::scope`] call after all jobs finish.
    pub fn spawn(&'scope self, job: impl FnOnce() + Send + 'scope) {
        *self.state.pending.lock().expect("pool scope") += 1;
        let state = Arc::clone(&self.state);
        let job: Box<dyn FnOnce() + Send + 'scope> = Box::new(job);
        // SAFETY: the job queue requires 'static, but `scope` (via its
        // drop guard, which runs even on unwind) blocks until `pending`
        // reaches zero — i.e. until this job has run to completion — so
        // nothing borrowed for 'scope is ever used after 'scope ends.
        let job: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'scope>, Box<dyn FnOnce() + Send>>(job)
        };
        let wrapped: Job = Box::new(move || {
            if catch_unwind(AssertUnwindSafe(job)).is_err() {
                state.panicked.store(true, Ordering::Release);
            }
            let mut pending = state.pending.lock().expect("pool scope");
            *pending -= 1;
            if *pending == 0 {
                state.all_done.notify_all();
            }
        });
        self.shared.push(wrapped);
    }
}

fn worker_loop(shared: &Arc<PoolShared>, k: usize) {
    loop {
        // Read the wakeup generation *before* scanning, so an enqueue
        // between the scan and the wait below flips the comparison and
        // forces a re-scan instead of a sleep.
        let seen = {
            let sleep = shared.sleep.lock().expect("pool sleep state");
            if sleep.shutdown {
                return;
            }
            sleep.generation
        };
        if let Some(job) = shared.find_job(k) {
            job();
            continue;
        }
        let mut sleep = shared.sleep.lock().expect("pool sleep state");
        while !sleep.shutdown && sleep.generation == seen {
            sleep = shared.job_ready.wait(sleep).expect("pool sleep state");
        }
        if sleep.shutdown {
            return;
        }
    }
}

/// The worker count the process-wide pool uses: exactly the host's
/// [`std::thread::available_parallelism`] (1 when detection fails).
/// More workers than hardware threads only adds contention — the
/// committed benchmarks measured an 8-worker batch lint running slower
/// than 1 worker on a single-CPU host — so the *default* never
/// oversubscribes; callers wanting a specific width (e.g. `--jobs N`)
/// build their own [`WorkerPool`].
pub fn default_workers() -> usize {
    thread::available_parallelism().map_or(1, usize::from)
}

/// The process-wide pool, created on first use and sized to
/// [`default_workers`]. Solver shards and batch lint jobs across the
/// whole process share these threads instead of each call spawning its
/// own.
pub fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(default_workers()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn scope_joins_all_jobs_and_allows_borrows() {
        let pool = WorkerPool::new(3);
        let mut slots = vec![0usize; 40];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || *slot = i + 1);
            }
        });
        assert_eq!(slots.iter().sum::<usize>(), 40 * 41 / 2);
    }

    #[test]
    fn scopes_are_reusable_and_pool_outlives_many_rounds() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        for _ in 0..50 {
            pool.scope(|s| {
                for _ in 0..4 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 200);
    }

    #[test]
    fn more_jobs_than_workers_all_run() {
        let pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..64 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 64);
    }

    #[test]
    fn jobs_can_spawn_jobs_onto_the_same_scope() {
        let pool = WorkerPool::new(2);
        let counter = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                    // Nested spawn lands on this worker's local deque.
                    s.spawn(|| {
                        counter.fetch_add(10, Ordering::Relaxed);
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 44);
    }

    #[test]
    fn nested_scopes_from_within_jobs_do_not_deadlock() {
        // Every worker enters a job that itself opens a scope on the
        // same pool; the helping wait keeps this from deadlocking even
        // though the pool has a single worker.
        let pool = WorkerPool::new(1);
        let counter = AtomicUsize::new(0);
        pool.scope(|outer| {
            for _ in 0..3 {
                let pool = &pool;
                let counter = &counter;
                outer.spawn(move || {
                    pool.scope(|inner| {
                        for _ in 0..4 {
                            inner.spawn(|| {
                                counter.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 12);
    }

    #[test]
    #[should_panic(expected = "worker pool job panicked")]
    fn job_panics_propagate_to_the_scope_caller() {
        let pool = WorkerPool::new(2);
        pool.scope(|s| {
            s.spawn(|| panic!("boom"));
            s.spawn(|| {});
        });
    }

    #[test]
    fn a_panicked_job_does_not_poison_the_pool_for_later_scopes() {
        let pool = WorkerPool::new(2);
        let panicked = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|s| {
                s.spawn(|| panic!("boom"));
            });
        }));
        assert!(panicked.is_err());
        // The same pool keeps serving whole batches afterwards.
        let counter = AtomicUsize::new(0);
        for _ in 0..5 {
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 40);
    }

    #[test]
    fn repeated_batches_do_not_spawn_new_threads() {
        let pool = WorkerPool::new(3);
        let before = pool.threads_spawned();
        let counter = AtomicUsize::new(0);
        for _ in 0..20 {
            pool.scope(|s| {
                for _ in 0..6 {
                    s.spawn(|| {
                        counter.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }
        assert_eq!(counter.load(Ordering::Relaxed), 120);
        assert_eq!(
            pool.threads_spawned(),
            before,
            "steady-state batches must reuse the pool's threads"
        );
    }

    #[test]
    fn global_pool_never_oversubscribes_the_host() {
        assert_eq!(
            global_pool().workers(),
            thread::available_parallelism().map_or(1, usize::from)
        );
    }

    #[test]
    fn global_pool_is_shared_and_working() {
        let p1 = global_pool() as *const WorkerPool;
        let p2 = global_pool() as *const WorkerPool;
        assert_eq!(p1, p2);
        let counter = AtomicUsize::new(0);
        global_pool().scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 8);
    }
}
