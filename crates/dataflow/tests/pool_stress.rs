//! Stress tests for the work-stealing [`WorkerPool`]: many concurrent
//! scopes, panic storms followed by reuse, deeply nested spawns, and the
//! thread-count pin that proves batches never leak threads.
//!
//! Iteration counts scale with the `GNT_STRESS` environment variable
//! (default 1): CI's stress job runs these in release with a multiplier,
//! the default `cargo test` keeps them cheap.

use gnt_dataflow::{global_pool, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// Stress multiplier from the environment (`GNT_STRESS`, default 1).
fn stress() -> usize {
    std::env::var("GNT_STRESS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(1)
        .max(1)
}

#[test]
fn many_sequential_scopes_reuse_the_same_threads() {
    let pool = WorkerPool::new(4);
    let before = pool.threads_spawned();
    let hits = AtomicUsize::new(0);
    for _ in 0..100 * stress() {
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    hits.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
    }
    assert_eq!(hits.load(Ordering::Relaxed), 100 * stress() * 8);
    assert_eq!(
        pool.threads_spawned(),
        before,
        "steady-state scopes must not spawn threads"
    );
}

#[test]
fn concurrent_scopes_from_many_client_threads() {
    // One shared pool, many external threads opening scopes at once:
    // every job must run exactly once and every scope must join.
    let pool = Arc::new(WorkerPool::new(4));
    let total = Arc::new(AtomicUsize::new(0));
    let clients: Vec<_> = (0..8)
        .map(|_| {
            let pool = Arc::clone(&pool);
            let total = Arc::clone(&total);
            std::thread::spawn(move || {
                for _ in 0..25 * stress() {
                    let local = AtomicUsize::new(0);
                    pool.scope(|s| {
                        for _ in 0..4 {
                            s.spawn(|| {
                                local.fetch_add(1, Ordering::Relaxed);
                            });
                        }
                    });
                    assert_eq!(local.load(Ordering::Relaxed), 4, "scope joined early");
                    total.fetch_add(4, Ordering::Relaxed);
                }
            })
        })
        .collect();
    for c in clients {
        c.join().expect("client thread");
    }
    assert_eq!(total.load(Ordering::Relaxed), 8 * 25 * stress() * 4);
}

#[test]
fn panic_storm_then_reuse() {
    // A burst of panicking jobs must propagate a panic to each scope
    // caller without poisoning the pool: the very next scope on the same
    // pool runs normally.
    let pool = WorkerPool::new(2);
    for round in 0..10 * stress() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.scope(|s| {
                for _ in 0..8 {
                    s.spawn(|| panic!("storm {round}"));
                }
            });
        }));
        assert!(result.is_err(), "scope must propagate the job panic");

        let ok = AtomicUsize::new(0);
        pool.scope(|s| {
            for _ in 0..8 {
                s.spawn(|| {
                    ok.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(ok.load(Ordering::Relaxed), 8, "pool poisoned after storm");
    }
}

#[test]
fn nested_spawns_fan_out_and_join() {
    // Jobs that spawn more jobs (the shape lint_batch produces when a
    // pipeline run shards its solve internally): a 3-level tree of
    // spawns must fully execute within one scope, even when the tree is
    // much wider than the pool.
    let pool = WorkerPool::new(2);
    for _ in 0..10 * stress() {
        let count = AtomicUsize::new(0);
        pool.scope(|s| {
            let count = &count;
            for _ in 0..4 {
                s.spawn(move || {
                    count.fetch_add(1, Ordering::Relaxed);
                    s.spawn(move || {
                        count.fetch_add(1, Ordering::Relaxed);
                        s.spawn(move || {
                            count.fetch_add(1, Ordering::Relaxed);
                        });
                    });
                });
            }
        });
        assert_eq!(count.load(Ordering::Relaxed), 4 * 3);
    }
}

#[test]
fn nested_scopes_on_the_global_pool_do_not_deadlock() {
    // A scope opened from inside a pool worker (lint jobs calling the
    // sharded solver) must complete even when every worker is busy: the
    // waiting job helps drain queues instead of blocking a thread.
    let pool = global_pool();
    let done = AtomicUsize::new(0);
    pool.scope(|outer| {
        for _ in 0..8 {
            outer.spawn(|| {
                global_pool().scope(|inner| {
                    for _ in 0..4 {
                        inner.spawn(|| {
                            done.fetch_add(1, Ordering::Relaxed);
                        });
                    }
                });
            });
        }
    });
    assert_eq!(done.load(Ordering::Relaxed), 8 * 4);
}

#[test]
fn scope_results_are_ordered_by_slot_not_schedule() {
    // The batch front-end's determinism rests on per-job slot writes;
    // stress the same shape directly: jobs finishing in scrambled order
    // must still land in their own slots.
    let pool = WorkerPool::new(4);
    for round in 0..20 * stress() {
        let mut slots: Vec<Option<usize>> = vec![None; 64];
        pool.scope(|s| {
            for (i, slot) in slots.iter_mut().enumerate() {
                s.spawn(move || {
                    // Scramble completion order a little.
                    if (i + round) % 7 == 0 {
                        std::thread::yield_now();
                    }
                    *slot = Some(i * i);
                });
            }
        });
        for (i, slot) in slots.iter().enumerate() {
            assert_eq!(*slot, Some(i * i));
        }
    }
}

#[test]
fn panics_in_some_jobs_do_not_lose_others() {
    // Mixed storm: panicking and succeeding jobs interleaved. The scope
    // panics, but every non-panicking job still ran (no dropped work).
    let pool = WorkerPool::new(2);
    let ran = Arc::new(Mutex::new(Vec::new()));
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.scope(|s| {
            for i in 0..16 {
                let ran = Arc::clone(&ran);
                s.spawn(move || {
                    if i % 4 == 0 {
                        panic!("job {i}");
                    }
                    ran.lock().unwrap().push(i);
                });
            }
        });
    }));
    assert!(result.is_err());
    let mut ran = ran.lock().unwrap().clone();
    ran.sort_unstable();
    let expected: Vec<usize> = (0..16).filter(|i| i % 4 != 0).collect();
    assert_eq!(ran, expected, "non-panicking jobs must all run");
}
