//! What is left of the worker pool: a shim that reports one thread.
//!
//! Query execution runs on the calling thread. The scoped pool that used
//! to partition relstore scans, hash-join probes and graph path search
//! served no operation the benchmark times, and it is gone together with
//! the environment variable that sized it. `bench_ledger` still prints
//! `Pool::from_env().threads()` in its machine-facts header, so the type
//! stays until the benchmark's next revision drops that line.

/// The engine's execution "pool": always the calling thread.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Pool;

impl Pool {
    /// The pool the engine runs on (the environment no longer matters).
    pub fn from_env() -> Self {
        Pool
    }

    /// Worker threads: always 1.
    pub fn threads(&self) -> usize {
        1
    }
}
