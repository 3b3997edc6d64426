//! Recursive-descent TBQL parser (Grammar 1), over the shared TBQL lexer
//! ([`raptor_common::lex::TBQL`]).

use raptor_common::error::{Error, Result};
use raptor_common::lex::{Cursor, Logic, TokenKind, TBQL};
use raptor_common::time::{parse_datetime, Timestamp};

use crate::ast::*;

// Each is spelled as the printer spells it.
const ENTITIES: [EntityType; 3] = [EntityType::File, EntityType::Proc, EntityType::Ip];
const CMP: [CmpOp; 6] = [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge];
const TEMPORAL: [TemporalOp; 3] = [TemporalOp::Before, TemporalOp::After, TemporalOp::Within];
const WINDOW_KEYWORDS: [&str; 5] = ["from", "at", "before", "after", "last"];

/// Attribute expressions: a negated value is an atom, not a nesting `!`.
const ATTR: Logic<AttrExpr> =
    Logic { or: ("||", AttrExpr::Or), and: ("&&", AttrExpr::And), not: None, atom: attr_atom };

/// Operation expressions.
const OPS: Logic<OpExpr> = Logic {
    or: ("||", OpExpr::Or),
    and: ("&&", OpExpr::And),
    not: Some(("!", OpExpr::Not)),
    atom: |c| Ok(OpExpr::Op(c.identifier()?)),
};

/// TBQL integers are never negative: `-` is a symbol of its own.
fn int(c: &mut Cursor) -> Result<i64> {
    Ok(c.count("expected integer")? as i64)
}

fn value(c: &mut Cursor) -> Result<Value> {
    c.literal(Value::Int, Value::Str, "expected value")
}

fn datetime(c: &mut Cursor) -> Result<Timestamp> {
    let offset = c.peek().offset;
    if let Some(n) = c.eat_count() {
        return Ok(Timestamp(n as i64));
    }
    let s = c.string("expected datetime")?;
    parse_datetime(&s).ok_or_else(|| Error::syntax(format!("invalid datetime `{s}`"), offset))
}

fn at_entity_type(c: &Cursor) -> bool {
    ENTITIES.iter().any(|t| c.at(t.keyword()))
}

fn at_window(c: &Cursor) -> bool {
    WINDOW_KEYWORDS.iter().any(|k| c.at(k))
}

fn window(c: &mut Cursor) -> Result<Window> {
    let Some(&kw) = WINDOW_KEYWORDS.iter().find(|k| c.at(k)) else {
        return Err(c.unexpected("expected time window"));
    };
    c.advance();
    Ok(match kw {
        "from" => {
            let a = datetime(c)?;
            c.expect("to")?;
            Window::FromTo(a, datetime(c)?)
        }
        "at" => Window::At(datetime(c)?),
        "before" => Window::Before(datetime(c)?),
        "after" => Window::After(datetime(c)?),
        _ => Window::Last { n: int(c)?, unit: c.identifier()? },
    })
}

/// `[expression]`, if next.
fn bracketed<T>(c: &mut Cursor, g: &Logic<T>) -> Result<Option<T>> {
    if !c.eat("[") {
        return Ok(None);
    }
    let e = c.logic(g)?;
    c.expect("]")?;
    Ok(Some(e))
}

fn attr_atom(c: &mut Cursor) -> Result<AttrExpr> {
    let negated = c.eat("!");
    if negated || matches!(c.peek().kind, TokenKind::Str(_) | TokenKind::Int(_)) {
        return Ok(AttrExpr::Bare { negated, value: value(c)? });
    }
    if !matches!(c.peek().kind, TokenKind::Word(_)) {
        return Err(c.unexpected("expected attribute expression"));
    }
    let base = c.identifier()?;
    let attr = AttrRef { base, attr: if c.eat(".") { Some(c.identifier()?) } else { None } };
    // `not in`, `in`, or comparison.
    let negated = c.eat("not");
    if c.eat("in") {
        c.expect("(")?;
        let set = c.list(value)?;
        c.expect(")")?;
        return Ok(AttrExpr::InSet { attr, negated, set });
    }
    if negated {
        return Err(c.unexpected("expected `in` after `not`"));
    }
    let op = cmp_op(c)?;
    Ok(AttrExpr::Cmp { attr, op, value: value(c)? })
}

fn cmp_op(c: &mut Cursor) -> Result<CmpOp> {
    let op = c.eat_one_of(&CMP.map(|op| (op.as_str(), op)));
    op.ok_or_else(|| c.unexpected("expected comparison operator"))
}

fn entity(c: &mut Cursor) -> Result<EntityDecl> {
    let Some(ty) = c.eat_one_of(&ENTITIES.map(|t| (t.keyword(), t))) else {
        let other = c.identifier()?;
        let want = format!("expected entity type (file/proc/ip), found `{other}`");
        return Err(c.unexpected(&want));
    };
    let id = c.identifier()?;
    Ok(EntityDecl { ty, id, filter: bracketed(c, &ATTR)? })
}

fn pattern(c: &mut Cursor) -> Result<Pattern> {
    let subject = entity(c)?;
    let op = if let Some(arrow) = c.eat_one_of(&[("~>", Arrow::Fuzzy), ("->", Arrow::Single)]) {
        // Optional length bounds `(m~n)` / `(m~)` / `(~n)` / `(n)`.
        let (mut min, mut max) = (None, None);
        if c.eat("(") {
            min = c.eat_u32()?;
            max = if c.eat("~") { c.eat_u32()? } else { min };
            c.expect(")")?;
        }
        // Optional final-hop operation `[op_exp]`.
        PatternOp::Path { arrow, min, max, op: bracketed(c, &OPS)? }
    } else {
        PatternOp::Event(c.logic(&OPS)?)
    };
    let object = entity(c)?;
    let (id, event_filter) =
        if c.eat("as") { (Some(c.identifier()?), bracketed(c, &ATTR)?) } else { (None, None) };
    let window = if at_pattern_window(c) { Some(window(c)?) } else { None };
    Ok(Pattern { subject, op, object, id, event_filter, window })
}

/// A pattern-level window must not swallow a `with` clause's ids:
/// `before` / `after` open one only when a datetime (string or integer)
/// follows.
fn at_pattern_window(c: &Cursor) -> bool {
    let datetime_next =
        matches!(c.peek2().map(|t| t.kind), Some(TokenKind::Str(_) | TokenKind::Int(_)));
    at_window(c) && (datetime_next || !(c.at("before") || c.at("after")))
}

fn rel_clause_item(c: &mut Cursor) -> Result<RelClause> {
    let base = c.identifier()?;
    if c.eat(".") {
        // Attribute relationship: `p1.pid = p2.pid`.
        let attr = c.identifier()?;
        let op = cmp_op(c)?;
        let rbase = c.identifier()?;
        c.expect(".")?;
        return Ok(RelClause::Attr {
            left: AttrRef { base, attr: Some(attr) },
            op,
            right: AttrRef { base: rbase, attr: Some(c.identifier()?) },
        });
    }
    let op = c.eat_one_of(&TEMPORAL.map(|op| (op.as_str(), op)));
    let op = op.ok_or_else(|| c.unexpected("expected `before`, `after` or `within`"))?;
    let range = if c.eat("[") {
        let lo = int(c)?;
        c.expect("-")?;
        let hi = int(c)?;
        let unit = c.identifier()?;
        c.expect("]")?;
        Some((lo, hi, unit))
    } else {
        None
    };
    Ok(RelClause::Temporal { left: base, op, range, right: c.identifier()? })
}

fn query(c: &mut Cursor) -> Result<Query> {
    let mut global_filters = Vec::new();
    // Global filters come before the first pattern.
    while !at_entity_type(c) {
        if at_window(c) {
            global_filters.push(GlobalFilter::Window(window(c)?));
        } else if matches!(
            c.peek().kind,
            TokenKind::Word(_) | TokenKind::Str(_) | TokenKind::Int(_)
        ) && !c.at("return")
            && !c.at("with")
        {
            global_filters.push(GlobalFilter::Attr(c.logic(&ATTR)?));
        } else {
            break;
        }
    }
    let mut patterns = Vec::new();
    while at_entity_type(c) {
        patterns.push(pattern(c)?);
    }
    if patterns.is_empty() {
        return Err(c.unexpected("expected at least one pattern"));
    }
    let relations = if c.eat("with") { c.list(rel_clause_item)? } else { Vec::new() };
    c.expect("return")?;
    let distinct = c.eat("distinct");
    let items = c.list(|c| {
        let base = c.identifier()?;
        Ok(AttrRef { base, attr: if c.eat(".") { Some(c.identifier()?) } else { None } })
    })?;
    c.end("expected end of query")?;
    Ok(Query { global_filters, patterns, relations, ret: ReturnClause { distinct, items } })
}

/// Parses one TBQL query.
pub fn parse_tbql(text: &str) -> Result<Query> {
    query(&mut Cursor::new(&TBQL, text)?)
}

/// The Figure 2 query, used in tests and docs across the workspace.
pub const FIG2_QUERY: &str = r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1
proc p1 write file f2["%/tmp/upload.tar%"] as evt2
proc p2["%/bin/bzip2%"] read file f2 as evt3
proc p2 write file f3["%/tmp/upload.tar.bz2%"] as evt4
proc p3["%/usr/bin/gpg%"] read file f3 as evt5
proc p3 write file f4["%/tmp/upload%"] as evt6
proc p4["%/usr/bin/curl%"] read file f4 as evt7
proc p4 connect ip i1["192.168.29.128"] as evt8
with evt1 before evt2, evt2 before evt3, evt3 before evt4, evt4 before evt5,
evt5 before evt6, evt6 before evt7, evt7 before evt8
return distinct p1, f1, f2, p2, f3, p3, f4, p4, i1"#;

/// The 8-query backend-equivalence corpus, shared by the equivalence tests,
/// the scheduler's order-pinning tests and the `bench_smoke` CI gate. Every
/// query stays inside the fragment the giant compiled baselines support
/// (event patterns, plain `before`/`after`), matches the data-leak scenario
/// the corpus simulators stage, and must return identical `sorted_rows()`
/// under every execution mode and scheduler order.
pub const EQUIV_CORPUS: &[&str] = &[
    r#"proc p["%/bin/tar%"] read file f["%/etc/passwd%"] as e1 return p, f"#,
    r#"proc p["%/bin/tar%"] read file f1["%/etc/passwd%"] as e1
       proc p write file f2["%/tmp/upload.tar%"] as e2
       with e1 before e2
       return distinct p, f1, f2"#,
    r#"proc p1["%tar%"] write file f["%upload%"] as e1
       proc p2["%curl%"] read file f as e2
       proc p2 connect ip i as e3
       with e1 before e2, e2 before e3
       return distinct p1, p2, f, i"#,
    // The scheduler's showcase: syntactically the two patterns tie (two
    // constraint atoms each), but `read || write` over unfiltered files
    // matches a large slice of the store while the IOC'd `connect` matches
    // almost nothing — the cost-based order runs the connect first and
    // prunes the big pattern through the propagated `IN` sets.
    r#"proc p read || write file f as e1
       proc p connect ip i["%192.168.29.128%"] as e2
       return distinct p, f, i"#,
    r#"proc p["%curl%"] connect ip i["%192.168.29.128%"] as e1 return p, i"#,
    r#"proc p1 write file f["%upload%"] as e1
       proc p2 read file f as e2
       with p1.user = p2.user
       return distinct p1, p2, f"#,
    r#"proc p["%/bin/tar%"] read file f as e1 return distinct p, f, e1.optype"#,
    r#"proc p write file f["%upload%"] as e1 return distinct f, e1.amount"#,
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure2_query_parses() {
        let q = parse_tbql(FIG2_QUERY).unwrap();
        assert_eq!(q.patterns.len(), 8);
        assert_eq!(q.relations.len(), 7);
        assert!(q.ret.distinct);
        assert_eq!(q.ret.items.len(), 9);
        // Entity reuse: p1 appears in two patterns, filtered once.
        assert_eq!(q.patterns[0].subject.id, "p1");
        assert_eq!(q.patterns[1].subject.id, "p1");
        assert!(q.patterns[0].subject.filter.is_some());
        assert!(q.patterns[1].subject.filter.is_none());
        // evt8 is a connect to ip.
        assert_eq!(q.patterns[7].object.ty, EntityType::Ip);
    }

    #[test]
    fn op_expressions() {
        let q = parse_tbql(
            r#"proc p[pid = 1 && exename = "%chrome.exe%"] read || write file f return f"#,
        )
        .unwrap();
        match &q.patterns[0].op {
            PatternOp::Event(OpExpr::Or(a, b)) => {
                assert_eq!(**a, OpExpr::Op("read".into()));
                assert_eq!(**b, OpExpr::Op("write".into()));
            }
            other => panic!("{other:?}"),
        }
        let q = parse_tbql("proc p !read && !write file f return f").unwrap();
        assert!(matches!(&q.patterns[0].op, PatternOp::Event(OpExpr::And(_, _))));
    }

    #[test]
    fn path_patterns_all_forms() {
        let cases: [(&str, Option<u32>, Option<u32>, bool); 6] = [
            ("proc p ~>[read] file f return f", None, None, true),
            ("proc p ~>(2~4)[read] file f return f", Some(2), Some(4), true),
            ("proc p ~>(2~)[read] file f return f", Some(2), None, true),
            ("proc p ~>(~4)[read] file f return f", None, Some(4), true),
            ("proc p ~> file f return f", None, None, false),
            ("proc p ->[read] file f return f", None, None, true),
        ];
        for (text, want_min, want_max, has_op) in cases {
            let q = parse_tbql(text).unwrap();
            match &q.patterns[0].op {
                PatternOp::Path { min, max, op, .. } => {
                    assert_eq!(*min, want_min, "{text}");
                    assert_eq!(*max, want_max, "{text}");
                    assert_eq!(op.is_some(), has_op, "{text}");
                }
                other => panic!("{text}: {other:?}"),
            }
        }
        // Arrow type distinguishes execution backend.
        let q = parse_tbql("proc p ->[read] file f return f").unwrap();
        assert!(matches!(&q.patterns[0].op, PatternOp::Path { arrow: Arrow::Single, .. }));
        let err = parse_tbql("proc p ~>(1~4294967296)[read] file f return f").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (Some(12), "integer literal out of range"));
    }

    #[test]
    fn windows() {
        let q = parse_tbql(
            r#"proc p read file f from "2018-04-06 15:00:00" to "2018-04-06 16:00:00" return f"#,
        )
        .unwrap();
        assert!(matches!(q.patterns[0].window, Some(Window::FromTo(_, _))));
        let q = parse_tbql("proc p read file f last 2 h return f").unwrap();
        assert!(matches!(q.patterns[0].window, Some(Window::Last { n: 2, .. })));
        let q = parse_tbql(r#"last 1 day proc p read file f return f"#).unwrap();
        assert_eq!(q.global_filters.len(), 1);
    }

    #[test]
    fn temporal_with_range() {
        let q = parse_tbql("proc p read file f as e1 proc p write file g as e2 with e1 before[0-5 min] e2 return f").unwrap();
        match &q.relations[0] {
            RelClause::Temporal { left, op, range, right } => {
                assert_eq!(left, "e1");
                assert_eq!(*op, TemporalOp::Before);
                assert_eq!(range, &Some((0, 5, "min".to_string())));
                assert_eq!(right, "e2");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn attribute_relationship() {
        let q =
            parse_tbql("proc p1 read file f proc p2 write file g with p1.pid = p2.pid return f")
                .unwrap();
        assert!(matches!(&q.relations[0], RelClause::Attr { .. }));
    }

    #[test]
    fn in_set_filter() {
        let q = parse_tbql(
            r#"proc p[exename in ("%a%", "%b%")] read file f[name not in ("%c%")] return f"#,
        )
        .unwrap();
        let pf = q.patterns[0].subject.filter.as_ref().unwrap();
        assert!(matches!(pf, AttrExpr::InSet { negated: false, .. }));
        let ff = q.patterns[0].object.filter.as_ref().unwrap();
        assert!(matches!(ff, AttrExpr::InSet { negated: true, .. }));
    }

    #[test]
    fn event_filter_after_as() {
        let q = parse_tbql("proc p read file f as e1[amount > 1024] return f").unwrap();
        assert!(q.patterns[0].event_filter.is_some());
    }

    #[test]
    fn errors() {
        assert!(parse_tbql("return f").is_err(), "no patterns");
        assert!(parse_tbql("proc p read file f").is_err(), "no return");
        assert!(parse_tbql("proc p read return f").is_err(), "missing object");
        assert!(parse_tbql("widget w read file f return f").is_err());
    }
}
