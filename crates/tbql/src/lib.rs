//! TBQL — the Threat Behavior Query Language (Section III-D, Grammar 1).
//!
//! TBQL treats system entities (`file` / `proc` / `ip`) and system events as
//! first-class citizens. A query is a sequence of *TBQL patterns* — event
//! patterns (`proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1`)
//! and variable-length event path patterns (`proc p ~>(2~4)[read] file f`) —
//! plus optional global filters, a `with` clause for temporal/attribute
//! relationships between patterns, and a `return` clause.
//!
//! Syntactic sugar (resolved by [`analyze()`]):
//! * default attributes — a bare value filter `["%/bin/tar%"]` means the
//!   entity kind's default attribute (`name` for files, `exename` for
//!   processes, `dstip` for network connections); a bare entity ID in
//!   `return` likewise,
//! * entity ID reuse — using `p1` in two patterns declares them to be the
//!   same entity.
//!
//! Modules: [`parser`] (over the shared lexer, [`raptor_common::lex`]) →
//! [`ast`] → [`mod@analyze`] (semantic checking and desugaring) →
//! [`mod@print`] (round-trip rendering) and [`metrics`] (character/word
//! conciseness counts for Table X).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic))]

pub mod analyze;
pub mod ast;
mod lexer;
pub mod metrics;
pub mod parser;
pub mod print;

pub use analyze::{analyze, AnalyzedQuery};
pub use ast::*;
pub use parser::parse_tbql;
