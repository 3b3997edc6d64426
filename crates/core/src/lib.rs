//! # ThreatRaptor
//!
//! An OSCTI-driven cyber threat hunting system over system audit logs — a
//! from-scratch Rust reproduction of *"Enabling Efficient Cyber Threat
//! Hunting With Cyber Threat Intelligence"* (ICDE 2021).
//!
//! The facade ties the workspace together:
//!
//! ```text
//!  OSCTI report ──► raptor-extract ──► threat behavior graph
//!                                            │ (query synthesis, this crate)
//!                                            ▼
//!  audit records ─► raptor-audit ──► raptor-engine ◄── TBQL (raptor-tbql)
//!                   (parse+reduce)   (SQL + Cypher backends)
//! ```
//!
//! A [`ThreatRaptor`] holds one [`stream::StreamSession`] — the stores,
//! their engine, the standing-query registry — however it was built: bulk
//! loaded ([`ThreatRaptor::from_records`], one volatile epoch), grown from
//! empty ([`ThreatRaptor::stream`]), or opened durably over a directory
//! ([`ThreatRaptor::open`]: write-ahead log, checkpoints, crash recovery).
//!
//! ## Quickstart
//!
//! ```
//! use threatraptor::ThreatRaptor;
//! use raptor_audit::sim::Simulator;
//! use raptor_common::time::Timestamp;
//!
//! // 1. Collect audit records (here: simulated).
//! let mut sim = Simulator::new(1, Timestamp::from_secs(0));
//! let shell = sim.boot_process("/bin/bash", "root");
//! let tar = sim.spawn(shell, "/bin/tar", "tar cf /tmp/out.tar");
//! sim.read_file(tar, "/etc/passwd", 4096, 4);
//! let records = sim.finish();
//!
//! // 2. Stand up ThreatRaptor over the records.
//! let raptor = ThreatRaptor::from_records(&records).unwrap();
//!
//! // 3. Hunt straight from CTI text.
//! let report = "The attacker used /bin/tar to read credentials from /etc/passwd.";
//! let outcome = raptor.hunt(report).unwrap();
//! assert_eq!(outcome.results.rows.len(), 1);
//! ```
//!
//! ## Keep hunting as records arrive
//!
//! The same report can stand as a query over a stream of epochs, on the
//! same type:
//!
//! ```
//! use threatraptor::stream::{EpochPolicy, EpochStream};
//! use threatraptor::{SynthesisPlan, ThreatRaptor};
//! use raptor_audit::sim::Simulator;
//! use raptor_audit::LogParser;
//! use raptor_common::time::Timestamp;
//!
//! let mut sim = Simulator::new(1, Timestamp::from_secs(0));
//! let shell = sim.boot_process("/bin/bash", "root");
//! let tar = sim.spawn(shell, "/bin/tar", "tar cf /tmp/out.tar");
//! sim.read_file(tar, "/etc/passwd", 4096, 4);
//! let log = LogParser::parse(&sim.finish());
//!
//! let mut raptor = ThreatRaptor::stream().unwrap();
//! let report = "The attacker used /bin/tar to read credentials from /etc/passwd.";
//! let (id, _, _) = raptor.register_report("leak", report, &SynthesisPlan::default()).unwrap();
//! for batch in EpochStream::new(&log, EpochPolicy::ByCount(2)) {
//!     raptor.session_mut().ingest_batch(&batch).unwrap();
//! }
//! assert_eq!(raptor.session().query(id).cumulative_batch().n_rows(), 1);
//! // One-shot hunts run over the same stores.
//! assert_eq!(raptor.hunt(report).unwrap().results.rows.len(), 1);
//! ```

pub mod raptor;
pub mod synthesis;

pub use raptor::{HuntOutcome, ThreatRaptor};

// Durability plane: WAL + checkpoints + crash recovery
// (`ThreatRaptor::open` / `open_with_fs`).
pub use raptor_stream::{DurablePolicy, RecoveryReport};
pub use synthesis::{synthesize, SynthesisPlan};

// Observability plane: trace spans, metrics registry, slow-query log
// (`raptor_common::obs`) and EXPLAIN redaction control (`Redact`).
pub use raptor_common::obs;
pub use raptor_engine::Redact;

// Re-export the sub-crates so downstream users need only one dependency.
pub use raptor_audit as audit;
pub use raptor_common as common;
pub use raptor_engine as engine;
pub use raptor_extract as extract;
pub use raptor_graphstore as graphstore;
pub use raptor_nlp as nlp;
pub use raptor_relstore as relstore;
pub use raptor_storage as storage;
pub use raptor_stream as stream;
pub use raptor_tbql as tbql;
