//! Recursive-descent SQL parser.

use raptor_common::error::{Error, Result};

use super::ast::{CmpOp, ColRef, Expr, Literal, Projection, Select, TableRef};
use super::lexer::{lex, Token, TokenKind};

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> &Token {
        &self.tokens[self.pos]
    }

    fn advance(&mut self) -> Token {
        let t = self.tokens[self.pos].clone();
        if self.pos + 1 < self.tokens.len() {
            self.pos += 1;
        }
        t
    }

    fn at_keyword(&self, kw: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Word { upper, .. } if upper == kw)
    }

    fn eat_keyword(&mut self, kw: &str) -> bool {
        if self.at_keyword(kw) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_keyword(&mut self, kw: &str) -> Result<()> {
        if self.eat_keyword(kw) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected `{kw}`")))
        }
    }

    fn at_symbol(&self, s: &str) -> bool {
        matches!(&self.peek().kind, TokenKind::Symbol(sym) if *sym == s)
    }

    fn eat_symbol(&mut self, s: &str) -> bool {
        if self.at_symbol(s) {
            self.advance();
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: &str) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("expected `{s}`")))
        }
    }

    fn unexpected(&self, want: &str) -> Error {
        Error::syntax(format!("{want}, found {}", self.peek().kind.describe()), self.peek().offset)
    }

    fn identifier(&mut self) -> Result<String> {
        match &self.peek().kind {
            TokenKind::Word { text, upper } if !is_reserved(upper) => {
                let t = text.clone();
                self.advance();
                Ok(t)
            }
            _ => Err(self.unexpected("expected identifier")),
        }
    }

    /// `alias.column` or `column`.
    fn col_ref(&mut self) -> Result<ColRef> {
        let first = self.identifier()?;
        if self.eat_symbol(".") {
            let col = self.identifier()?;
            Ok(ColRef { qualifier: Some(first), column: col })
        } else {
            Ok(ColRef { qualifier: None, column: first })
        }
    }

    fn literal(&mut self) -> Result<Literal> {
        match self.peek().kind.clone() {
            TokenKind::Int(i) => {
                self.advance();
                Ok(Literal::Int(i))
            }
            TokenKind::Str(s) => {
                self.advance();
                Ok(Literal::Str(s))
            }
            _ => Err(self.unexpected("expected literal")),
        }
    }

    fn select(&mut self) -> Result<Select> {
        self.expect_keyword("SELECT")?;
        let distinct = self.eat_keyword("DISTINCT");
        let mut projections = Vec::new();
        loop {
            let offset = self.peek().offset;
            if self.at_keyword("COUNT") {
                self.advance();
                self.expect_symbol("(")?;
                self.expect_symbol("*")?;
                self.expect_symbol(")")?;
                projections.push(Projection::CountStar);
            } else {
                projections.push(Projection::Col(self.col_ref()?));
            }
            // A count is one row of one column: it stands alone.
            if projections.len() > 1 && projections.contains(&Projection::CountStar) {
                return Err(Error::syntax("COUNT(*) must be the only projection", offset));
            }
            if !self.eat_symbol(",") {
                break;
            }
        }
        self.expect_keyword("FROM")?;
        let mut from = Vec::new();
        loop {
            let table = self.identifier()?;
            // `t AS a`, `t a`, or bare `t` (alias = table name).
            let alias = if self.eat_keyword("AS")
                || matches!(&self.peek().kind, TokenKind::Word { upper, .. } if !is_reserved(upper))
            {
                self.identifier()?
            } else {
                table.clone()
            };
            from.push(TableRef { table, alias });
            if !self.eat_symbol(",") {
                break;
            }
        }
        let where_clause = if self.eat_keyword("WHERE") { Some(self.or_expr()?) } else { None };
        let mut order_by = Vec::new();
        if self.eat_keyword("ORDER") {
            self.expect_keyword("BY")?;
            loop {
                order_by.push(self.col_ref()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
        }
        let limit = if self.eat_keyword("LIMIT") {
            match self.peek().kind.clone() {
                TokenKind::Int(n) if n >= 0 => {
                    self.advance();
                    Some(n as usize)
                }
                _ => return Err(self.unexpected("expected non-negative integer")),
            }
        } else {
            None
        };
        if !matches!(self.peek().kind, TokenKind::Eof) {
            return Err(self.unexpected("expected end of statement"));
        }
        Ok(Select { distinct, projections, from, where_clause, order_by, limit })
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_keyword("OR") {
            let right = self.and_expr()?;
            left = Expr::Or(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_keyword("AND") {
            let right = self.not_expr()?;
            left = Expr::And(Box::new(left), Box::new(right));
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_keyword("NOT") {
            let inner = self.not_expr()?;
            return Ok(Expr::Not(Box::new(inner)));
        }
        self.primary_expr()
    }

    fn primary_expr(&mut self) -> Result<Expr> {
        if self.eat_symbol("(") {
            let e = self.or_expr()?;
            self.expect_symbol(")")?;
            return Ok(e);
        }
        let col = self.col_ref()?;
        // col [NOT] LIKE / IN, or col op (literal | col)
        let negated = self.eat_keyword("NOT");
        if self.eat_keyword("LIKE") {
            match self.peek().kind.clone() {
                TokenKind::Str(p) => {
                    self.advance();
                    return Ok(Expr::Like { col, pattern: p, negated });
                }
                _ => return Err(self.unexpected("expected LIKE pattern string")),
            }
        }
        if self.eat_keyword("IN") {
            self.expect_symbol("(")?;
            let mut list = Vec::new();
            loop {
                list.push(self.literal()?);
                if !self.eat_symbol(",") {
                    break;
                }
            }
            self.expect_symbol(")")?;
            return Ok(Expr::InList { col, list, negated });
        }
        if negated {
            return Err(self.unexpected("expected LIKE or IN after NOT"));
        }
        let op = match &self.peek().kind {
            TokenKind::Symbol("=") => CmpOp::Eq,
            TokenKind::Symbol("!=") => CmpOp::Ne,
            TokenKind::Symbol("<") => CmpOp::Lt,
            TokenKind::Symbol("<=") => CmpOp::Le,
            TokenKind::Symbol(">") => CmpOp::Gt,
            TokenKind::Symbol(">=") => CmpOp::Ge,
            _ => return Err(self.unexpected("expected comparison operator")),
        };
        self.advance();
        // Right side: literal or column.
        match self.peek().kind.clone() {
            TokenKind::Int(_) | TokenKind::Str(_) => {
                let lit = self.literal()?;
                Ok(Expr::CmpLit { col, op, lit })
            }
            TokenKind::Word { .. } => {
                let right = self.col_ref()?;
                Ok(Expr::CmpCol { left: col, op, right })
            }
            _ => Err(self.unexpected("expected literal or column")),
        }
    }
}

fn is_reserved(upper: &str) -> bool {
    matches!(
        upper,
        "SELECT"
            | "DISTINCT"
            | "FROM"
            | "WHERE"
            | "AND"
            | "OR"
            | "NOT"
            | "LIKE"
            | "IN"
            | "AS"
            | "ORDER"
            | "BY"
            | "LIMIT"
            | "COUNT"
    )
}

/// Parses a single SELECT statement.
pub fn parse_select(sql: &str) -> Result<Select> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    p.select()
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
