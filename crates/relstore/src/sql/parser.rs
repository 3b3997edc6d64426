//! Recursive-descent SQL parser, over the shared SQL lexer
//! ([`raptor_common::lex::SQL`]).

use raptor_common::error::{Error, Result};
use raptor_common::lex::{Cursor, Logic, TokenKind, SQL};

use super::ast::{CmpOp, ColRef, Expr, Literal, Projection, Select, TableRef};

/// `OR < AND < NOT < predicate`.
const WHERE: Logic<Expr> = Logic {
    or: ("OR", Expr::Or),
    and: ("AND", Expr::And),
    not: Some(("NOT", Expr::Not)),
    atom: predicate,
};

/// `<>` lexes as `!=`.
const CMP: [(&str, CmpOp); 6] = [
    ("=", CmpOp::Eq),
    ("!=", CmpOp::Ne),
    ("<", CmpOp::Lt),
    ("<=", CmpOp::Le),
    (">", CmpOp::Gt),
    (">=", CmpOp::Ge),
];

/// `alias.column` or `column`.
fn col_ref(c: &mut Cursor) -> Result<ColRef> {
    let first = c.identifier()?;
    if c.eat(".") {
        Ok(ColRef { qualifier: Some(first), column: c.identifier()? })
    } else {
        Ok(ColRef { qualifier: None, column: first })
    }
}

fn literal(c: &mut Cursor) -> Result<Literal> {
    c.literal(Literal::Int, Literal::Str, "expected literal")
}

fn select(c: &mut Cursor) -> Result<Select> {
    c.expect("SELECT")?;
    let distinct = c.eat("DISTINCT");
    let mut projections = Vec::new();
    loop {
        let offset = c.peek().offset;
        if c.eat("COUNT") {
            c.expect("(")?;
            c.expect("*")?;
            c.expect(")")?;
            projections.push(Projection::CountStar);
        } else {
            projections.push(Projection::Col(col_ref(c)?));
        }
        // A count is one row of one column: it stands alone.
        if projections.len() > 1 && projections.contains(&Projection::CountStar) {
            return Err(Error::syntax("COUNT(*) must be the only projection", offset));
        }
        if !c.eat(",") {
            break;
        }
    }
    c.expect("FROM")?;
    let from = c.list(|c| {
        let table = c.identifier()?;
        // `t AS a`, `t a`, or bare `t` (alias = table name).
        let alias = if c.eat("AS") || c.at_identifier() { c.identifier()? } else { table.clone() };
        Ok(TableRef { table, alias })
    })?;
    let where_clause = if c.eat("WHERE") { Some(c.logic(&WHERE)?) } else { None };
    let order_by = if c.eat("ORDER") {
        c.expect("BY")?;
        c.list(col_ref)?
    } else {
        Vec::new()
    };
    let limit = if c.eat("LIMIT") { Some(c.count("expected non-negative integer")?) } else { None };
    c.end("expected end of statement")?;
    Ok(Select { distinct, projections, from, where_clause, order_by, limit })
}

/// `col [NOT] LIKE` / `IN`, or `col op (literal | col)`.
fn predicate(c: &mut Cursor) -> Result<Expr> {
    let col = col_ref(c)?;
    let negated = c.eat("NOT");
    if c.eat("LIKE") {
        let pattern = c.string("expected LIKE pattern string")?;
        return Ok(Expr::Like { col, pattern, negated });
    }
    if c.eat("IN") {
        c.expect("(")?;
        let list = c.list(literal)?;
        c.expect(")")?;
        return Ok(Expr::InList { col, list, negated });
    }
    if negated {
        return Err(c.unexpected("expected LIKE or IN after NOT"));
    }
    let op = c.eat_one_of(&CMP).ok_or_else(|| c.unexpected("expected comparison operator"))?;
    // Right side: literal or column.
    match c.peek().kind {
        TokenKind::Int(_) | TokenKind::Str(_) => Ok(Expr::CmpLit { col, op, lit: literal(c)? }),
        TokenKind::Word(_) => Ok(Expr::CmpCol { left: col, op, right: col_ref(c)? }),
        _ => Err(c.unexpected("expected literal or column")),
    }
}

/// Parses a single SELECT statement.
pub fn parse_select(sql: &str) -> Result<Select> {
    select(&mut Cursor::new(&SQL, sql)?)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn minimal_select() {
        let s = parse_select("SELECT a FROM t").unwrap();
        assert!(!s.distinct);
        assert_eq!(s.projections.len(), 1);
        assert_eq!(s.from, vec![TableRef { table: "t".into(), alias: "t".into() }]);
        assert!(s.where_clause.is_none());
    }

    #[test]
    fn full_featured_select() {
        let s = parse_select(
            "SELECT DISTINCT p1.exename, f1.name FROM processes p1, events AS evt1, files f1 \
             WHERE evt1.subject = p1.id AND evt1.object = f1.id AND evt1.optype = 'read' \
             AND p1.exename LIKE '%/bin/tar%' AND p1.id IN (1, 2, 3) \
             AND (evt1.starttime >= 100 OR evt1.endtime <= 200) \
             ORDER BY p1.exename LIMIT 5",
        )
        .unwrap();
        assert!(s.distinct);
        assert_eq!(s.from.len(), 3);
        assert_eq!(s.from[1].alias, "evt1");
        let conjuncts = s.where_clause.unwrap().conjuncts();
        assert_eq!(conjuncts.len(), 6);
        assert!(matches!(&conjuncts[5], Expr::Or(_, _)));
        assert_eq!(s.order_by.len(), 1);
        assert_eq!(s.limit, Some(5));
    }

    #[test]
    fn count_star() {
        let s = parse_select("SELECT COUNT(*) FROM events").unwrap();
        assert_eq!(s.projections, vec![Projection::CountStar]);
    }

    /// `COUNT(*)` beside another projection is a syntax error; it used to
    /// return one value column for two names.
    #[test]
    fn count_star_must_stand_alone() {
        for (sql, at) in
            [("SELECT t.id, COUNT(*) FROM t", 13), ("SELECT COUNT(*), COUNT(*) FROM t", 17)]
        {
            let err = parse_select(sql).unwrap_err();
            let want = (raptor_common::error::ErrorKind::Syntax, Some(at));
            assert_eq!((err.kind, err.offset), want, "{sql}: {err}");
        }
    }

    #[test]
    fn not_like_and_not_in() {
        let s = parse_select("SELECT a FROM t WHERE a NOT LIKE '%x%' AND b NOT IN (1,2)").unwrap();
        let c = s.where_clause.unwrap().conjuncts();
        assert!(matches!(&c[0], Expr::Like { negated: true, .. }));
        assert!(matches!(&c[1], Expr::InList { negated: true, .. }));
    }

    #[test]
    fn keywords_case_insensitive() {
        assert!(parse_select("select a from t where a = 1").is_ok());
        assert!(parse_select("Select a From t Where a Like '%x%'").is_ok());
    }

    #[test]
    fn error_reporting() {
        let e = parse_select("SELECT FROM t").unwrap_err();
        assert!(e.to_string().contains("expected identifier"), "{e}");
        let e = parse_select("SELECT a FROM t WHERE").unwrap_err();
        assert!(e.to_string().contains("expected"), "{e}");
        let e = parse_select("SELECT a FROM t extra garbage ; --").unwrap_err();
        assert!(e.to_string().contains("expected"), "{e}");
    }

    #[test]
    fn col_op_col_parses() {
        let s = parse_select("SELECT a FROM t, u WHERE t.x = u.y AND t.z < u.w").unwrap();
        let c = s.where_clause.unwrap().conjuncts();
        assert!(matches!(&c[0], Expr::CmpCol { op: CmpOp::Eq, .. }));
        assert!(matches!(&c[1], Expr::CmpCol { op: CmpOp::Lt, .. }));
    }

    #[test]
    fn reserved_words_cannot_be_identifiers() {
        assert!(parse_select("SELECT select FROM t").is_err());
    }
}
