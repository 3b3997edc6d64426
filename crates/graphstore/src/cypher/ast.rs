//! Cypher abstract syntax.

/// A literal. Parsed Cypher text produces `Str`; a typed request's
/// predicate lowering produces `Sym` — a pre-resolved handle into
/// the shared dictionary, evaluated without a dictionary lookup.
#[derive(Clone, PartialEq, Debug)]
pub enum CLit {
    Int(i64),
    Str(String),
    Sym(raptor_common::Sym),
}

/// `var.prop`
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct PropRef {
    pub var: String,
    pub prop: String,
}

impl std::fmt::Display for PropRef {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}.{}", self.var, self.prop)
    }
}

/// A node pattern `(var:Label {k: v, ...})`; every part optional.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct NodePattern {
    pub var: Option<String>,
    pub label: Option<String>,
    pub props: Vec<(String, CLit)>,
}

/// Length spec of a relationship: `None` = exactly one hop;
/// `Some((min, max))` = variable-length with optional bounds
/// (`*` = 1.., `*2..4`, `*2..`, `*..4`, `*3` = exactly 3).
pub type LengthRange = Option<(Option<u32>, Option<u32>)>;

/// A relationship pattern `-[var:LABEL*m..n {k: v}]->`.
#[derive(Clone, PartialEq, Debug, Default)]
pub struct RelPattern {
    pub var: Option<String>,
    pub label: Option<String>,
    pub props: Vec<(String, CLit)>,
    pub range: LengthRange,
}

/// One path part: a start node plus a chain of (relationship, node).
#[derive(Clone, PartialEq, Debug)]
pub struct PathPattern {
    pub start: NodePattern,
    pub segments: Vec<(RelPattern, NodePattern)>,
}

/// Comparison operators (Cypher spelling of ≠ is `<>`): the typed
/// requests' own, so a typed predicate lowers with no translation.
pub use raptor_storage::CmpOp as COp;

/// WHERE expression tree.
#[derive(Clone, PartialEq, Debug)]
pub enum CExpr {
    /// `a.x op lit` or `a.x op b.y`
    Cmp {
        left: PropRef,
        op: COp,
        right: CmpRhs,
    },
    /// `a.x CONTAINS 'lit'` / `STARTS WITH` / `ENDS WITH`, or a typed
    /// request's SQL `LIKE` pattern
    StrPred {
        left: PropRef,
        kind: StrPredKind,
        needle: String,
    },
    /// `a.x IN [lit, ...]`
    InList {
        left: PropRef,
        list: Vec<CLit>,
    },
    And(Box<CExpr>, Box<CExpr>),
    Or(Box<CExpr>, Box<CExpr>),
    Not(Box<CExpr>),
}

#[derive(Clone, PartialEq, Debug)]
pub enum CmpRhs {
    Lit(CLit),
    Prop(PropRef),
}

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum StrPredKind {
    Contains,
    StartsWith,
    EndsWith,
    /// SQL `LIKE` (`%`, `_`), exactly as the relational store evaluates it.
    /// Cypher text has no spelling for it; typed requests lower to it.
    Like,
}

impl StrPredKind {
    /// Does `s` satisfy the predicate against `needle`?
    pub fn holds(self, s: &str, needle: &str) -> bool {
        match self {
            StrPredKind::Contains => s.contains(needle),
            StrPredKind::StartsWith => s.starts_with(needle),
            StrPredKind::EndsWith => s.ends_with(needle),
            StrPredKind::Like => raptor_common::like::like_match(needle, s),
        }
    }
}

impl CExpr {
    /// Splits top-level AND conjuncts.
    pub fn conjuncts(self) -> Vec<CExpr> {
        match self {
            CExpr::And(a, b) => {
                let mut v = a.conjuncts();
                v.extend(b.conjuncts());
                v
            }
            e => vec![e],
        }
    }

    /// Variables referenced anywhere in the expression.
    pub fn vars(&self) -> Vec<&str> {
        fn go<'a>(e: &'a CExpr, out: &mut Vec<&'a str>) {
            match e {
                CExpr::Cmp { left, right, .. } => {
                    out.push(&left.var);
                    if let CmpRhs::Prop(p) = right {
                        out.push(&p.var);
                    }
                }
                CExpr::StrPred { left, .. } | CExpr::InList { left, .. } => out.push(&left.var),
                CExpr::And(a, b) | CExpr::Or(a, b) => {
                    go(a, out);
                    go(b, out);
                }
                CExpr::Not(i) => go(i, out),
            }
        }
        let mut v = Vec::new();
        go(self, &mut v);
        v.sort();
        v.dedup();
        v
    }
}

/// `RETURN` item: `var.prop`.
#[derive(Clone, PartialEq, Debug)]
pub struct ReturnItem {
    pub prop: PropRef,
}

/// A parsed query.
#[derive(Clone, PartialEq, Debug)]
pub struct CypherQuery {
    pub paths: Vec<PathPattern>,
    pub where_clause: Option<CExpr>,
    pub distinct: bool,
    pub return_items: Vec<ReturnItem>,
    pub limit: Option<usize>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conjuncts_and_vars() {
        let a = CExpr::Cmp {
            left: PropRef { var: "e1".into(), prop: "starttime".into() },
            op: COp::Lt,
            right: CmpRhs::Prop(PropRef { var: "e2".into(), prop: "starttime".into() }),
        };
        let b = CExpr::StrPred {
            left: PropRef { var: "p".into(), prop: "exename".into() },
            kind: StrPredKind::Contains,
            needle: "tar".into(),
        };
        let e = CExpr::And(Box::new(a), Box::new(b));
        assert_eq!(e.vars(), vec!["e1", "e2", "p"]);
        assert_eq!(e.conjuncts().len(), 2);
    }
}
