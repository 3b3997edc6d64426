//! The Cypher subset.
//!
//! Compiled TBQL path patterns only need a focused slice of Cypher:
//!
//! ```cypher
//! MATCH (p1:Process)-[evt1:EVENT {optype: 'read'}]->(f1:File),
//!       (p2:Process)-[:EVENT*1..3]->(m)-[evt2:EVENT {optype: 'write'}]->(f2:File)
//! WHERE p1.exename CONTAINS '/bin/tar' AND f1.name CONTAINS '/etc/passwd'
//!   AND evt1.starttime < evt2.starttime
//! RETURN DISTINCT p1.exename, f1.name LIMIT 10
//! ```
//!
//! Supported: node patterns `(var:Label {k: lit, ...})`, directed
//! relationships `-[var:LABEL(*m..n)? {k: lit}]->`, comma-separated pattern
//! parts sharing variables, `WHERE` with `=`, `<>`, `<`, `<=`, `>`, `>=`,
//! `CONTAINS`, `STARTS WITH`, `ENDS WITH`, `IN [..]`, `AND`/`OR`/`NOT`,
//! `RETURN [DISTINCT] var.prop[, ...]`, `LIMIT n`. The lexer is the shared
//! one, [`raptor_common::lex::CYPHER`].

pub mod ast;
pub mod exec;
mod lexer;
pub mod parser;

pub use ast::CypherQuery;
pub use parser::parse_cypher;
