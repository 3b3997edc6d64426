//! Benchmark harness library.
//!
//! [`caseval`] evaluates one benchmark case end to end (extraction quality,
//! synthesis, hunting precision/recall, per-stage timings) and is shared by
//! the `tables` binary (which reprints every table of the paper) and the
//! integration tests. [`tables`] renders the paper-style tables, and
//! [`golden`] the pinned extraction output of the catalog reports.

pub mod caseval;
pub mod corpus;
pub mod golden;
pub mod tables;
