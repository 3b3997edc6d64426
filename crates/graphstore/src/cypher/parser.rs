//! Recursive-descent Cypher parser, over the shared Cypher lexer
//! ([`raptor_common::lex::CYPHER`]).

use raptor_common::error::Result;
use raptor_common::lex::{Cursor, Logic, TokenKind, CYPHER};

use super::ast::*;

/// `OR < AND < NOT < predicate`.
const WHERE: Logic<CExpr> = Logic {
    or: ("OR", CExpr::Or),
    and: ("AND", CExpr::And),
    not: Some(("NOT", CExpr::Not)),
    atom: predicate,
};

const CMP: [(&str, COp); 6] = [
    ("=", COp::Eq),
    ("<>", COp::Ne),
    ("<", COp::Lt),
    ("<=", COp::Le),
    (">", COp::Gt),
    (">=", COp::Ge),
];

/// `STARTS` and `ENDS` are followed by `WITH`.
const STR_PREDS: [(&str, StrPredKind); 3] = [
    ("CONTAINS", StrPredKind::Contains),
    ("STARTS", StrPredKind::StartsWith),
    ("ENDS", StrPredKind::EndsWith),
];

/// An optional `var` then an optional `:Label`.
fn var_label(c: &mut Cursor) -> Result<(Option<String>, Option<String>)> {
    let var = if c.at_identifier() { Some(c.identifier()?) } else { None };
    let label = if c.eat(":") { Some(c.identifier()?) } else { None };
    Ok((var, label))
}

fn literal(c: &mut Cursor) -> Result<CLit> {
    c.literal(CLit::Int, CLit::Str, "expected literal")
}

fn prop_map(c: &mut Cursor) -> Result<Vec<(String, CLit)>> {
    if !c.eat("{") {
        return Ok(Vec::new());
    }
    let props = c.list(|c| {
        let key = c.identifier()?;
        c.expect(":")?;
        Ok((key, literal(c)?))
    })?;
    c.expect("}")?;
    Ok(props)
}

fn node_pattern(c: &mut Cursor) -> Result<NodePattern> {
    c.expect("(")?;
    let (var, label) = var_label(c)?;
    let props = prop_map(c)?;
    c.expect(")")?;
    Ok(NodePattern { var, label, props })
}

fn rel_pattern(c: &mut Cursor) -> Result<RelPattern> {
    c.expect("-")?;
    let mut rel = RelPattern::default();
    if c.eat("[") {
        (rel.var, rel.label) = var_label(c)?;
        if c.eat("*") {
            // `*`, `*n` (exactly n), `*m..n`, `*m..`, `*..n`; bare `*` = 1..
            let min = c.eat_u32()?;
            let max = if c.eat("..") { c.eat_u32()? } else { min };
            rel.range = Some((min, max));
        }
        rel.props = prop_map(c)?;
        c.expect("]")?;
    }
    c.expect("->")?;
    Ok(rel)
}

fn path_pattern(c: &mut Cursor) -> Result<PathPattern> {
    let start = node_pattern(c)?;
    let mut segments = Vec::new();
    while c.at("-") {
        let rel = rel_pattern(c)?;
        segments.push((rel, node_pattern(c)?));
    }
    Ok(PathPattern { start, segments })
}

fn prop_ref(c: &mut Cursor) -> Result<PropRef> {
    let var = c.identifier()?;
    c.expect(".")?;
    Ok(PropRef { var, prop: c.identifier()? })
}

fn predicate(c: &mut Cursor) -> Result<CExpr> {
    let left = prop_ref(c)?;
    if let Some(kind) = c.eat_one_of(&STR_PREDS) {
        if kind != StrPredKind::Contains {
            c.expect("WITH")?;
        }
        let needle = c.string("expected string literal")?;
        return Ok(CExpr::StrPred { left, kind, needle });
    }
    if c.eat("IN") {
        c.expect("[")?;
        let list = c.list(literal)?;
        c.expect("]")?;
        return Ok(CExpr::InList { left, list });
    }
    let op = c.eat_one_of(&CMP).ok_or_else(|| c.unexpected("expected comparison operator"))?;
    let right = match c.peek().kind {
        TokenKind::Int(_) | TokenKind::Str(_) => CmpRhs::Lit(literal(c)?),
        TokenKind::Word(_) => CmpRhs::Prop(prop_ref(c)?),
        _ => return Err(c.unexpected("expected literal or property")),
    };
    Ok(CExpr::Cmp { left, op, right })
}

fn query(c: &mut Cursor) -> Result<CypherQuery> {
    c.expect("MATCH")?;
    let paths = c.list(path_pattern)?;
    let where_clause = if c.eat("WHERE") { Some(c.logic(&WHERE)?) } else { None };
    c.expect("RETURN")?;
    let distinct = c.eat("DISTINCT");
    let return_items = c.list(|c| Ok(ReturnItem { prop: prop_ref(c)? }))?;
    let limit = if c.eat("LIMIT") { Some(c.count("expected non-negative integer")?) } else { None };
    c.end("expected end of query")?;
    Ok(CypherQuery { paths, where_clause, distinct, return_items, limit })
}

/// Parses one Cypher query.
pub fn parse_cypher(text: &str) -> Result<CypherQuery> {
    query(&mut Cursor::new(&CYPHER, text)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn simple_event_pattern() {
        let q = parse_cypher(
            "MATCH (p1:Process)-[evt1:EVENT {optype: 'read'}]->(f1:File) \
             WHERE p1.exename CONTAINS '/bin/tar' RETURN DISTINCT p1.exename, f1.name",
        )
        .unwrap();
        assert_eq!(q.paths.len(), 1);
        let path = &q.paths[0];
        assert_eq!(path.start.var.as_deref(), Some("p1"));
        assert_eq!(path.start.label.as_deref(), Some("Process"));
        assert_eq!(path.segments.len(), 1);
        let (rel, node) = &path.segments[0];
        assert_eq!(rel.var.as_deref(), Some("evt1"));
        assert_eq!(rel.props, vec![("optype".to_string(), CLit::Str("read".into()))]);
        assert!(rel.range.is_none());
        assert_eq!(node.label.as_deref(), Some("File"));
        assert!(q.distinct);
        assert_eq!(q.return_items.len(), 2);
    }

    #[test]
    fn var_length_ranges() {
        let cases = [
            ("*", (None, None)),
            ("*3", (Some(3), Some(3))),
            ("*2..4", (Some(2), Some(4))),
            ("*2..", (Some(2), None)),
            ("*..4", (None, Some(4))),
        ];
        for (spec, want) in cases {
            let q = parse_cypher(&format!("MATCH (a)-[:EVENT{spec}]->(b) RETURN a.x")).unwrap();
            let (rel, _) = &q.paths[0].segments[0];
            assert_eq!(rel.range, Some(want), "{spec}");
        }
        let err = parse_cypher("MATCH (a)-[:EVENT*4294967296]->(b) RETURN a.x").unwrap_err();
        assert_eq!((err.offset, err.message.as_str()), (Some(18), "integer literal out of range"));
    }

    #[test]
    fn multi_path_with_where() {
        let q = parse_cypher(
            "MATCH (p:Process)-[e1:EVENT]->(f:File), (p)-[e2:EVENT]->(g:File) \
             WHERE e1.starttime < e2.starttime AND (f.name CONTAINS 'passwd' OR g.name STARTS WITH '/tmp') \
             RETURN p.exename LIMIT 7",
        )
        .unwrap();
        assert_eq!(q.paths.len(), 2);
        assert_eq!(q.limit, Some(7));
        let w = q.where_clause.unwrap();
        assert_eq!(w.clone().conjuncts().len(), 2);
        assert!(w.vars().contains(&"e1"));
    }

    #[test]
    fn anonymous_nodes_and_rels() {
        let q = parse_cypher(
            "MATCH (p:Process)-[:EVENT*1..2]->()-[e:EVENT {optype:'read'}]->(f) RETURN f.name",
        )
        .unwrap();
        let path = &q.paths[0];
        assert_eq!(path.segments.len(), 2);
        assert!(path.segments[0].1.var.is_none());
        assert!(path.segments[0].0.var.is_none());
    }

    #[test]
    fn in_list_and_ends_with() {
        let q = parse_cypher(
            "MATCH (p:Process) WHERE p.exename IN ['/bin/tar', '/bin/gzip'] AND p.exename ENDS WITH 'tar' RETURN p.exename",
        );
        // A bare node with no relationship is a valid path.
        let q = q.unwrap();
        assert!(q.paths[0].segments.is_empty());
    }

    #[test]
    fn errors() {
        assert!(parse_cypher("MATCH (p RETURN p.x").is_err());
        assert!(parse_cypher("MATCH (p) WHERE RETURN p.x").is_err());
        assert!(parse_cypher("MATCH (p) RETURN p").is_err(), "bare var not supported");
        assert!(parse_cypher("(p) RETURN p.x").is_err());
    }
}
