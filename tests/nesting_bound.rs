//! Nesting is bounded in all three query frontends: input nested past
//! `raptor_common::lex::MAX_DEPTH` — by `(`, by `!` / `NOT`, or by a long
//! `||` / `OR` chain — is a syntax error at the token that crosses the
//! bound, and a tree exactly at the bound still parses, analyzes, prints
//! and runs. Both hold on a thread with a 2 MB stack (run it in a debug
//! build, whose frames are the largest).

use raptor_common::error::{ErrorKind, Result};
use raptor_common::lex::MAX_DEPTH;
use raptor_graphstore::cypher::parse_cypher;
use raptor_relstore::sql::parse_select;
use raptor_tbql::{analyze, parse_tbql, print::print_query};
use threatraptor::audit::{sim::Simulator, LogParser};
use threatraptor::common::time::Timestamp;
use threatraptor::engine::exec::ExecMode;
use threatraptor::ThreatRaptor;

/// Runs `f` on a thread with a 2 MB stack, the default of a spawned thread.
fn on_small_stack(f: impl FnOnce() + Send + 'static) {
    let t = std::thread::Builder::new().stack_size(2 << 20).spawn(f).unwrap();
    t.join().unwrap();
}

/// A frontend, from text to its checked tree.
type Parse = fn(&str) -> Result<()>;

/// `parse`'s input: `rep` `n` times between `head` and `tail`, and the
/// offset of the `rep` that opens level `MAX_DEPTH + 1` (its `at`-th byte).
type Shape = (Parse, String, usize);

fn nest(parse: Parse, head: &str, rep: &str, at: usize, n: usize, tail: &str) -> Shape {
    (parse, format!("{head}{}{tail}", rep.repeat(n)), head.len() + MAX_DEPTH * rep.len() + at)
}

/// Every shape of nesting, `n` levels deep, for each frontend.
fn shapes(n: usize) -> Vec<Shape> {
    let tbql: Parse = |t| {
        let q = parse_tbql(t)?;
        analyze(&q)?;
        assert!(!print_query(&q).is_empty());
        Ok(())
    };
    let sql: Parse = |t| parse_select(t).map(drop);
    let cypher: Parse = |t| parse_cypher(t).map(drop);
    let close = ")".repeat(n);
    let (sql_where, cy_where) = ("SELECT a FROM t WHERE ", "MATCH (n) WHERE ");
    vec![
        nest(tbql, "proc p ", "!", 0, n, "read file f return f"),
        nest(tbql, "proc p ", "(", 0, n, &format!("read{close} file f return f")),
        nest(tbql, "proc p[", "(", 0, n, &format!("pid = 1{close}] read file f return f")),
        nest(tbql, "proc p[pid = 1", " || pid = 1", 1, n, "] read file f return f"),
        nest(tbql, "proc p read", " && write", 1, n, " file f return f"),
        nest(sql, sql_where, "NOT ", 0, n, "a = 1"),
        nest(sql, sql_where, "(", 0, n, &format!("a = 1{close}")),
        nest(sql, &format!("{sql_where}a = 1"), " OR a = 1", 1, n, ""),
        nest(sql, &format!("{sql_where}a = 1"), " AND a = 1", 1, n, ""),
        nest(cypher, cy_where, "NOT ", 0, n, "n.x = 1 RETURN n.x"),
        nest(cypher, cy_where, "(", 0, n, &format!("n.x = 1{close} RETURN n.x")),
        nest(cypher, &format!("{cy_where}n.x = 1"), " OR n.x = 1", 1, n, " RETURN n.x"),
    ]
}

/// The bound sits well above the deepest tree the workspace builds: 55
/// levels, the `AND` chain of a catalog case's giant SQL at noise ×1, ×4
/// and ×16 alike (giant Cypher: 28; TBQL, the corpus and the 18 synthesized
/// queries: 1).
#[test]
fn the_bound_is_pinned() {
    assert_eq!(MAX_DEPTH, 256);
}

#[test]
fn deep_input_is_a_syntax_error() {
    on_small_stack(|| {
        for (parse, text, offset) in shapes(100_000) {
            let err = parse(&text).unwrap_err();
            let head = &text[..40];
            assert_eq!((err.kind, err.offset), (ErrorKind::Syntax, Some(offset)), "{head}");
            assert_eq!(err.message, format!("expression nested deeper than {MAX_DEPTH} levels"));
        }
        let raptor = ThreatRaptor::from_records(&[]).unwrap();
        for (_, text, _) in shapes(100_000).into_iter().take(5) {
            assert_eq!(raptor.query(&text).unwrap_err().kind, ErrorKind::Syntax);
        }
    });
}

#[test]
fn a_tree_at_the_bound_parses() {
    on_small_stack(|| {
        for (parse, text, _) in shapes(MAX_DEPTH) {
            parse(&text).unwrap_or_else(|e| panic!("{e}: {}", &text[..40]));
        }
        for (parse, text, offset) in shapes(MAX_DEPTH + 1) {
            assert_eq!(parse(&text).unwrap_err().offset, Some(offset), "{}", &text[..40]);
        }
    });
}

/// A TBQL query at the bound (the first five shapes) also runs in every
/// mode on the same stack: the engine's passes over its tree fit too. The
/// giant baselines compile it to SQL or Cypher that may nest deeper, which
/// is then their syntax error.
#[test]
fn a_query_at_the_bound_runs() {
    on_small_stack(|| {
        let mut sim = Simulator::new(77, Timestamp::from_secs(1_500_000_000));
        let tar = sim.boot_process("/bin/tar", "root");
        sim.read_file(tar, "/etc/passwd", 4096, 4);
        let raptor = ThreatRaptor::from_log(&LogParser::parse(&sim.finish())).unwrap();
        for (_, text, _) in shapes(MAX_DEPTH).into_iter().take(5) {
            for mode in [ExecMode::Scheduled, ExecMode::GiantSql, ExecMode::GiantCypher] {
                if let Err(e) = raptor.query_with_mode(&text, mode) {
                    let baseline_too_deep =
                        mode != ExecMode::Scheduled && e.kind == ErrorKind::Syntax;
                    assert!(baseline_too_deep, "{mode:?}: {e}: {}", &text[..40]);
                }
            }
        }
    });
}
