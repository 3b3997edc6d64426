//! The scoped worker pool behind the parallel execution plane.
//!
//! Every parallel site in the workspace — relstore scan filtering and hash
//! join probes, graphstore path search — funnels through [`Pool`].
//! The pool is deliberately tiny: plain `std::thread::scope` workers (no
//! external dependencies, nothing long-lived), a work-stealing task queue,
//! and **deterministic, input-ordered result collection**. Parallelism must
//! never be observable in results: callers get task outputs in task order,
//! merge per-task counters in task order, and a one-thread pool executes
//! the exact sequential code path (no threads are spawned at all).
//!
//! The thread count comes from [`RaptorConfig`]: the `RAPTOR_THREADS`
//! environment variable when set, otherwise the machine's
//! [`std::thread::available_parallelism`].

use std::ops::Range;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Runtime configuration shared by the storage engines and the query
/// engine. Currently the parallel execution plane's knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RaptorConfig {
    /// Worker threads for parallel execution. `1` disables parallelism
    /// (every [`Pool`] call takes the sequential code path).
    pub threads: usize,
}

impl RaptorConfig {
    /// Reads the configuration from the environment: `RAPTOR_THREADS` when
    /// set to a positive integer, otherwise the machine's available
    /// parallelism (falling back to 1 if that is unavailable).
    pub fn from_env() -> Self {
        RaptorConfig { threads: threads_from(std::env::var("RAPTOR_THREADS").ok().as_deref()) }
    }
}

/// Parses a `RAPTOR_THREADS`-style override, falling back to the machine's
/// available parallelism.
fn threads_from(var: Option<&str>) -> usize {
    match var.map(str::trim).and_then(|v| v.parse::<usize>().ok()) {
        Some(n) if n >= 1 => n,
        _ => std::thread::available_parallelism().map(usize::from).unwrap_or(1),
    }
}

/// How many tasks [`Pool::run_partitioned`] creates per worker thread:
/// finer than one-per-thread so the work-stealing queue absorbs skew
/// (e.g. one graph anchor with a much deeper search than its peers).
const TASKS_PER_THREAD: usize = 4;

thread_local! {
    /// Set for the lifetime of a pool worker thread. Nested pool calls (a
    /// fan-out inside a task that is itself running on a worker) run
    /// inline instead of spawning threads-of-threads — only
    /// the outermost level fans out, so concurrent OS threads stay bounded
    /// by the configured count instead of multiplying per nesting level.
    static IN_POOL_WORKER: std::cell::Cell<bool> = const { std::cell::Cell::new(false) };
}

fn on_pool_worker() -> bool {
    IN_POOL_WORKER.with(std::cell::Cell::get)
}

/// A scoped worker pool. `Copy`-cheap (it is just the thread count);
/// workers are spawned per [`Pool::run`] call inside a `std::thread::scope`
/// and never outlive it, so borrowed task captures need no `'static`.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool {
    threads: usize,
}

impl Default for Pool {
    /// [`Pool::from_env`].
    fn default() -> Self {
        Pool::from_env()
    }
}

impl Pool {
    /// A pool configured from the environment ([`RaptorConfig::from_env`]).
    pub fn from_env() -> Self {
        Pool::from_config(&RaptorConfig::from_env())
    }

    pub fn from_config(cfg: &RaptorConfig) -> Self {
        Pool { threads: cfg.threads.max(1) }
    }

    /// A pool with an explicit thread count (clamped to at least 1).
    pub fn with_threads(threads: usize) -> Self {
        Pool { threads: threads.max(1) }
    }

    pub fn threads(&self) -> usize {
        self.threads
    }

    /// `true` when every `run` takes the sequential code path.
    pub fn is_sequential(&self) -> bool {
        self.threads == 1
    }

    /// Runs `tasks`, returning their outputs **in task order**.
    ///
    /// With one thread (or at most one task, or when already running on a
    /// pool worker — nested calls never spawn threads-of-threads) the
    /// tasks run inline, in order, on the caller's thread — the exact
    /// sequential code path. Otherwise `min(threads, tasks)` scoped
    /// workers drain a shared work-stealing queue; outputs are reassembled
    /// by task index, so the returned `Vec` is identical at every thread
    /// count.
    ///
    /// A panicking task panics the calling thread (one of the panic
    /// payloads is resumed after all workers have stopped; *which* one is
    /// timing-dependent when several tasks panic) — the pool never
    /// swallows a panic or hangs on one.
    pub fn run<T, F>(&self, tasks: Vec<F>) -> Vec<T>
    where
        T: Send,
        F: FnOnce() -> T + Send,
    {
        let n = tasks.len();
        if self.threads == 1 || n <= 1 || on_pool_worker() {
            return tasks.into_iter().map(|t| t()).collect();
        }
        // Observability: the depth of the queue this fan-out submits, and
        // a running total of pooled tasks (touched once per batch, not per
        // task — worker loops stay metric-free).
        let m = crate::obs::metrics();
        m.gauge_set("raptor_pool_queue_depth", n as i64);
        m.counter_add("raptor_pool_tasks_total", n as u64);
        // Each slot is claimed exactly once via the shared counter; the
        // mutex only guards the `take` (tasks run outside it).
        let slots: Vec<Mutex<Option<F>>> = tasks.into_iter().map(|t| Mutex::new(Some(t))).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.min(n);
        let mut results: Vec<(usize, T)> = Vec::with_capacity(n);
        let mut panic: Option<Box<dyn std::any::Any + Send>> = None;
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    s.spawn(|| {
                        IN_POOL_WORKER.with(|w| w.set(true));
                        let mut local = Vec::new();
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            let task =
                                slots[i].lock().expect("task slot").take().expect("claimed once");
                            local.push((i, task()));
                        }
                        local
                    })
                })
                .collect();
            for h in handles {
                match h.join() {
                    Ok(part) => results.extend(part),
                    Err(payload) => panic = panic.take().or(Some(payload)),
                }
            }
        });
        if let Some(payload) = panic {
            std::panic::resume_unwind(payload);
        }
        results.sort_unstable_by_key(|&(i, _)| i);
        debug_assert_eq!(results.len(), n);
        results.into_iter().map(|(_, t)| t).collect()
    }

    /// Partitions `0..n_items` into contiguous ranges of at least
    /// `min_items` items, runs `f` on each range, and returns the per-range
    /// outputs **in range order** — so concatenating them reproduces the
    /// sequential left-to-right traversal exactly, and summing per-range
    /// counters reproduces the sequential totals.
    ///
    /// Below `2 * min_items` (or on a one-thread pool) this is a single
    /// inline `f(0..n_items)` call: the sequential code path, with no
    /// partitioning and no threads.
    pub fn run_partitioned<T, F>(&self, n_items: usize, min_items: usize, f: F) -> Vec<T>
    where
        T: Send,
        F: Fn(Range<usize>) -> T + Sync,
    {
        if n_items == 0 {
            return Vec::new();
        }
        let min_items = min_items.max(1);
        if self.threads == 1 || n_items < min_items.saturating_mul(2) || on_pool_worker() {
            return vec![f(0..n_items)];
        }
        let parts = (n_items / min_items).min(self.threads * TASKS_PER_THREAD).max(2);
        let per = n_items / parts;
        let rem = n_items % parts;
        let mut tasks = Vec::with_capacity(parts);
        let mut start = 0usize;
        for i in 0..parts {
            let len = per + usize::from(i < rem);
            let range = start..start + len;
            start += len;
            let f = &f;
            tasks.push(move || f(range));
        }
        debug_assert_eq!(start, n_items);
        self.run(tasks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_are_input_ordered_at_any_thread_count() {
        let inputs: Vec<usize> = (0..257).collect();
        let expected: Vec<usize> = inputs.iter().map(|i| i * 3).collect();
        for threads in [1, 2, 4, 8] {
            let pool = Pool::with_threads(threads);
            let tasks: Vec<_> = inputs.iter().map(|&i| move || i * 3).collect();
            assert_eq!(pool.run(tasks), expected, "threads={threads}");
        }
    }

    #[test]
    fn partitioned_concatenation_is_sequential_order() {
        let items: Vec<i64> = (0..10_000).map(|i| i * 7 % 13).collect();
        let sequential: Vec<i64> = items.iter().copied().filter(|&v| v % 2 == 0).collect();
        for threads in [1, 3, 8] {
            let pool = Pool::with_threads(threads);
            let parts = pool.run_partitioned(items.len(), 64, |r| {
                items[r].iter().copied().filter(|&v| v % 2 == 0).collect::<Vec<_>>()
            });
            assert_eq!(parts.concat(), sequential, "threads={threads}");
        }
    }

    #[test]
    fn sequential_pool_spawns_no_partitions() {
        let pool = Pool::with_threads(1);
        assert!(pool.is_sequential());
        let calls = AtomicUsize::new(0);
        let parts = pool.run_partitioned(100_000, 1, |r| {
            calls.fetch_add(1, Ordering::Relaxed);
            r.len()
        });
        // One inline call over the whole range: the exact sequential path.
        assert_eq!(parts, vec![100_000]);
        assert_eq!(calls.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn small_inputs_stay_inline_even_on_parallel_pools() {
        let pool = Pool::with_threads(8);
        let parts = pool.run_partitioned(10, 1000, |r| r.len());
        assert_eq!(parts, vec![10]);
    }

    /// A worker panic must reach the caller (not hang the scope, not get
    /// swallowed into a truncated result).
    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panics_propagate() {
        let pool = Pool::with_threads(4);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..16usize)
            .map(|i| {
                Box::new(move || {
                    if i == 7 {
                        panic!("worker exploded");
                    }
                    i
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        let _ = pool.run(tasks);
    }

    #[test]
    #[should_panic(expected = "worker exploded")]
    fn worker_panics_propagate_sequentially_too() {
        let pool = Pool::with_threads(1);
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> =
            vec![Box::new(|| panic!("worker exploded"))];
        let _ = pool.run(tasks);
    }

    #[test]
    fn thread_override_parses() {
        assert_eq!(threads_from(Some("4")), 4);
        assert_eq!(threads_from(Some(" 2 ")), 2);
        // Invalid or zero overrides fall back to the machine default.
        let machine = threads_from(None);
        assert!(machine >= 1);
        assert_eq!(threads_from(Some("0")), machine);
        assert_eq!(threads_from(Some("lots")), machine);
    }

    /// Nested pool calls never fan out again: a task already running on a
    /// pool worker executes inner pool calls inline, so concurrent OS
    /// threads stay bounded by the configured count.
    #[test]
    fn nested_pool_calls_run_inline() {
        let pool = Pool::with_threads(4);
        let tasks: Vec<_> =
            (0..8).map(|_| move || pool.run_partitioned(100_000, 1, |r| r.len()).len()).collect();
        // Each inner run_partitioned would split into multiple parts at the
        // top level; from inside a worker it must be one inline call.
        assert_eq!(pool.run(tasks), vec![1; 8]);
        // ...while the same call from the outside does partition.
        assert!(pool.run_partitioned(100_000, 1, |r| r.len()).len() > 1);
    }

    #[test]
    fn empty_and_single_task_lists() {
        let pool = Pool::with_threads(4);
        let empty: Vec<fn() -> usize> = Vec::new();
        assert!(pool.run(empty).is_empty());
        assert_eq!(pool.run(vec![|| 42]), vec![42]);
        assert!(pool.run_partitioned(0, 16, |r| r.len()).is_empty());
    }
}
