//! SQL abstract syntax.

/// A possibly-qualified column reference (`alias.column` or `column`).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct ColRef {
    pub qualifier: Option<String>,
    pub column: String,
}

impl ColRef {
    pub fn new(qualifier: Option<&str>, column: &str) -> Self {
        ColRef { qualifier: qualifier.map(str::to_string), column: column.to_string() }
    }
}

impl std::fmt::Display for ColRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.column),
            None => f.write_str(&self.column),
        }
    }
}

/// Comparison operators.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    pub fn as_str(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "!=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

/// A literal value. Parsed SQL text produces `Str`; a typed request's
/// predicate lowering produces `Interned` — a pre-resolved handle
/// into the shared dictionary, so the executor binds the literal without a
/// dictionary lookup.
#[derive(Clone, PartialEq, Debug)]
pub enum Literal {
    Int(i64),
    Str(String),
    Interned(raptor_common::Sym),
}

/// Boolean expression tree.
#[derive(Clone, PartialEq, Debug)]
pub enum Expr {
    /// `col op literal`
    CmpLit {
        col: ColRef,
        op: CmpOp,
        lit: Literal,
    },
    /// `col op col` (join predicates, attribute relations)
    CmpCol {
        left: ColRef,
        op: CmpOp,
        right: ColRef,
    },
    /// `col [NOT] LIKE 'pattern'`
    Like {
        col: ColRef,
        pattern: String,
        negated: bool,
    },
    /// `col [NOT] IN (lit, ...)`
    InList {
        col: ColRef,
        list: Vec<Literal>,
        negated: bool,
    },
    And(Box<Expr>, Box<Expr>),
    Or(Box<Expr>, Box<Expr>),
    Not(Box<Expr>),
}

impl Expr {
    /// Splits a conjunction into its top-level conjuncts.
    pub fn conjuncts(self) -> Vec<Expr> {
        match self {
            Expr::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            other => vec![other],
        }
    }

    /// Collects the column references used anywhere in the expression.
    pub fn collect_cols<'a>(&'a self, out: &mut Vec<&'a ColRef>) {
        match self {
            Expr::CmpLit { col, .. } | Expr::Like { col, .. } | Expr::InList { col, .. } => {
                out.push(col)
            }
            Expr::CmpCol { left, right, .. } => {
                out.push(left);
                out.push(right);
            }
            Expr::And(a, b) | Expr::Or(a, b) => {
                a.collect_cols(out);
                b.collect_cols(out);
            }
            Expr::Not(e) => e.collect_cols(out),
        }
    }

    /// Distinct qualifiers referenced by the expression (unqualified columns
    /// contribute `None`).
    pub fn qualifiers(&self) -> Vec<Option<String>> {
        let mut cols = Vec::new();
        self.collect_cols(&mut cols);
        let mut quals: Vec<Option<String>> =
            cols.into_iter().map(|c| c.qualifier.clone()).collect();
        quals.sort();
        quals.dedup();
        quals
    }
}

/// Items of the SELECT list.
#[derive(Clone, PartialEq, Debug)]
pub enum Projection {
    Col(ColRef),
    CountStar,
}

/// A FROM item: `table [AS] alias`.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct TableRef {
    pub table: String,
    pub alias: String,
}

/// A parsed SELECT statement.
#[derive(Clone, PartialEq, Debug)]
pub struct Select {
    pub distinct: bool,
    pub projections: Vec<Projection>,
    pub from: Vec<TableRef>,
    pub where_clause: Option<Expr>,
    pub order_by: Vec<ColRef>,
    pub limit: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjunct_splitting() {
        let a = Expr::CmpLit {
            col: ColRef::new(Some("p"), "pid"),
            op: CmpOp::Eq,
            lit: Literal::Int(1),
        };
        let b = Expr::Like {
            col: ColRef::new(Some("p"), "exename"),
            pattern: "%tar%".into(),
            negated: false,
        };
        let c = Expr::Or(Box::new(a.clone()), Box::new(b.clone()));
        let e = Expr::And(
            Box::new(a.clone()),
            Box::new(Expr::And(Box::new(b.clone()), Box::new(c.clone()))),
        );
        let parts = e.conjuncts();
        assert_eq!(parts.len(), 3);
        assert_eq!(parts[0], a);
        assert_eq!(parts[1], b);
        assert_eq!(parts[2], c);
    }

    #[test]
    fn qualifier_collection() {
        let e = Expr::CmpCol {
            left: ColRef::new(Some("evt1"), "subject"),
            op: CmpOp::Eq,
            right: ColRef::new(Some("p1"), "id"),
        };
        assert_eq!(e.qualifiers(), vec![Some("evt1".to_string()), Some("p1".to_string())]);
    }
}
