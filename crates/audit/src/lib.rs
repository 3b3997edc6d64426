//! System auditing substrate.
//!
//! ThreatRaptor (ICDE'21) is built on kernel auditing frameworks (Sysdig,
//! Linux Audit, ETW) that record system calls and on a parser that lifts the
//! raw call stream into *system entities* (files, processes, network
//! connections) and *system events* ⟨subject, operation, object⟩. This crate
//! reproduces that substrate end to end:
//!
//! * [`syscall`] — the raw record model covering the Table I calls,
//! * [`entity`] / [`event`] — the parsed data model with the Table II / III
//!   attributes and the paper's entity-identity rules,
//! * [`codec`] — a compact binary codec plus a sysdig-like text form for raw
//!   records,
//! * [`parser`] — the stateful log parser (process table + per-process fd
//!   tables) that produces a [`parser::ParsedLog`],
//! * [`reduce`] — the CCS'16-style data-reduction pass that merges excessive
//!   events between the same entity pair (Section III-B),
//! * [`sim`] — a deterministic workload simulator standing in for the live
//!   testbed: benign background activity plus scripted attack behaviours
//!   (substitution documented in `DESIGN.md` §1).

pub mod codec;
pub mod entity;
pub mod event;
pub mod parser;
pub mod reduce;
pub mod sim;
pub mod syscall;

pub use entity::{
    Entity, EntityAttrs, EntityKind, FileAttrs, Identity, NetConnAttrs, ProcessAttrs,
};
pub use event::{EventKind, Operation, SystemEvent};
pub use parser::{LogParser, ParsedLog};
pub use reduce::{merge_events, ReductionStats};
pub use syscall::{Syscall, SyscallArgs, SyscallRecord};
