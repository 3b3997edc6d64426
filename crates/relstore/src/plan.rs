//! Logical planning.
//!
//! Planning does three things: resolve names (tables, aliases, unqualified
//! columns), push single-alias conjuncts down into their scans, and leave
//! every multi-alias conjunct as a *residual* evaluated during joins.
//!
//! Join order is the FROM-list order, on purpose. ThreatRaptor's scheduler
//! beats the "giant query" plans precisely because a general engine executes
//! what it is given; modelling a full cost-based join reorderer would both
//! exceed the paper's scope and erase the phenomenon Table VIII measures
//! (giant SQL queries weaving many joins/constraints run far slower than
//! scheduled small ones).

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;

use crate::schema::TableSchema;
use crate::sql::ast::{ColRef, Expr, Projection, Select, TableRef};

/// Access to table schemas, implemented by [`crate::db::Database`].
pub trait SchemaProvider {
    fn schema(&self, table: &str) -> Option<&TableSchema>;
}

/// A planned scan of one FROM item.
#[derive(Clone, Debug)]
pub struct ScanPlan {
    pub table: String,
    pub alias: String,
    /// The pushed-down single-alias conjuncts, in `WHERE` order.
    pub conjuncts: Vec<Expr>,
}

/// A fully-resolved query plan.
#[derive(Clone, Debug)]
pub struct QueryPlan {
    pub scans: Vec<ScanPlan>,
    /// Multi-alias conjuncts, evaluated as soon as their aliases are bound.
    pub residuals: Vec<Expr>,
    pub distinct: bool,
    pub projections: Vec<Projection>,
    pub order_by: Vec<ColRef>,
    pub limit: Option<usize>,
}

struct Resolver<'a> {
    /// alias → (table name, schema)
    aliases: FxHashMap<String, &'a TableSchema>,
    /// insertion order of aliases
    order: Vec<String>,
}

impl<'a> Resolver<'a> {
    fn build(provider: &'a dyn SchemaProvider, from: &[TableRef]) -> Result<Self> {
        let mut aliases = FxHashMap::default();
        let mut order = Vec::new();
        for tr in from {
            let schema = provider
                .schema(&tr.table)
                .ok_or_else(|| Error::storage(format!("unknown table `{}`", tr.table)))?;
            if aliases.insert(tr.alias.clone(), schema).is_some() {
                return Err(Error::semantic(format!("duplicate alias `{}`", tr.alias)));
            }
            order.push(tr.alias.clone());
        }
        Ok(Resolver { aliases, order })
    }

    /// Fills in the qualifier of an unqualified column; validates qualified
    /// ones.
    fn resolve(&self, col: &ColRef) -> Result<ColRef> {
        match &col.qualifier {
            Some(q) => {
                let schema = self
                    .aliases
                    .get(q)
                    .ok_or_else(|| Error::semantic(format!("unknown alias `{q}`")))?;
                schema.require_column(&col.column)?;
                Ok(col.clone())
            }
            None => {
                let mut owners = self
                    .order
                    .iter()
                    .filter(|a| self.aliases[*a].column_index(&col.column).is_some());
                let first = owners
                    .next()
                    .ok_or_else(|| Error::semantic(format!("unknown column `{}`", col.column)))?;
                if owners.next().is_some() {
                    return Err(Error::semantic(format!(
                        "ambiguous column `{}` (qualify it)",
                        col.column
                    )));
                }
                Ok(ColRef { qualifier: Some(first.clone()), column: col.column.clone() })
            }
        }
    }

    fn resolve_expr(&self, e: &Expr) -> Result<Expr> {
        Ok(match e {
            Expr::CmpLit { col, op, lit } => {
                Expr::CmpLit { col: self.resolve(col)?, op: *op, lit: lit.clone() }
            }
            Expr::CmpCol { left, op, right } => {
                Expr::CmpCol { left: self.resolve(left)?, op: *op, right: self.resolve(right)? }
            }
            Expr::Like { col, pattern, negated } => {
                Expr::Like { col: self.resolve(col)?, pattern: pattern.clone(), negated: *negated }
            }
            Expr::InList { col, list, negated } => {
                Expr::InList { col: self.resolve(col)?, list: list.clone(), negated: *negated }
            }
            Expr::And(a, b) => {
                Expr::And(Box::new(self.resolve_expr(a)?), Box::new(self.resolve_expr(b)?))
            }
            Expr::Or(a, b) => {
                Expr::Or(Box::new(self.resolve_expr(a)?), Box::new(self.resolve_expr(b)?))
            }
            Expr::Not(inner) => Expr::Not(Box::new(self.resolve_expr(inner)?)),
        })
    }
}

/// Plans a parsed SELECT against the catalog.
pub fn plan_select(provider: &dyn SchemaProvider, sel: &Select) -> Result<QueryPlan> {
    let resolver = Resolver::build(provider, &sel.from)?;

    let projections = sel
        .projections
        .iter()
        .map(|p| {
            Ok(match p {
                Projection::Col(c) => Projection::Col(resolver.resolve(c)?),
                Projection::CountStar => Projection::CountStar,
            })
        })
        .collect::<Result<Vec<_>>>()?;

    let order_by = sel.order_by.iter().map(|c| resolver.resolve(c)).collect::<Result<Vec<_>>>()?;

    let mut scan_preds: FxHashMap<String, Vec<Expr>> = FxHashMap::default();
    let mut residuals = Vec::new();
    if let Some(w) = &sel.where_clause {
        let resolved = resolver.resolve_expr(w)?;
        for conjunct in resolved.conjuncts() {
            // The resolver qualifies every column.
            if let [Some(q)] = conjunct.qualifiers().as_slice() {
                scan_preds.entry(q.clone()).or_default().push(conjunct);
            } else {
                residuals.push(conjunct);
            }
        }
    }

    let scans = sel
        .from
        .iter()
        .map(|tr| {
            let conjuncts = scan_preds.remove(&tr.alias).unwrap_or_default();
            ScanPlan { table: tr.table.clone(), alias: tr.alias.clone(), conjuncts }
        })
        .collect();

    Ok(QueryPlan {
        scans,
        residuals,
        distinct: sel.distinct,
        projections,
        order_by,
        limit: sel.limit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{ColumnDef, ColumnType};
    use crate::sql::parse_select;

    struct Fake(Vec<TableSchema>);

    impl SchemaProvider for Fake {
        fn schema(&self, table: &str) -> Option<&TableSchema> {
            self.0.iter().find(|s| s.name == table)
        }
    }

    fn provider() -> Fake {
        Fake(vec![
            TableSchema::new(
                "processes",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("exename", ColumnType::Str),
                ],
            ),
            TableSchema::new(
                "events",
                vec![
                    ColumnDef::new("id", ColumnType::Int),
                    ColumnDef::new("subject", ColumnType::Int),
                    ColumnDef::new("optype", ColumnType::Str),
                ],
            ),
        ])
    }

    #[test]
    fn pushdown_and_residuals() {
        let sel = parse_select(
            "SELECT p.exename FROM processes p, events e \
             WHERE e.subject = p.id AND p.exename LIKE '%tar%' AND e.optype = 'read'",
        )
        .unwrap();
        let plan = plan_select(&provider(), &sel).unwrap();
        assert_eq!(plan.scans.len(), 2);
        assert!(!plan.scans[0].conjuncts.is_empty(), "LIKE pushed to p");
        assert!(!plan.scans[1].conjuncts.is_empty(), "optype pushed to e");
        assert_eq!(plan.residuals.len(), 1, "join predicate is residual");
    }

    #[test]
    fn unqualified_columns_resolve_uniquely() {
        let sel = parse_select("SELECT exename FROM processes p WHERE optype = 'read'").unwrap();
        // optype is not in processes: error only if FROM lacks events.
        assert!(plan_select(&provider(), &sel).is_err());

        let sel = parse_select("SELECT exename FROM processes p").unwrap();
        let plan = plan_select(&provider(), &sel).unwrap();
        match &plan.projections[0] {
            Projection::Col(c) => assert_eq!(c.qualifier.as_deref(), Some("p")),
            _ => panic!(),
        }
    }

    #[test]
    fn ambiguous_column_rejected() {
        let sel = parse_select("SELECT id FROM processes p, events e").unwrap();
        let err = plan_select(&provider(), &sel).unwrap_err();
        assert!(err.to_string().contains("ambiguous"));
    }

    #[test]
    fn unknown_table_and_alias() {
        let sel = parse_select("SELECT x FROM nope").unwrap();
        assert!(plan_select(&provider(), &sel).is_err());
        let sel = parse_select("SELECT q.exename FROM processes p").unwrap();
        assert!(plan_select(&provider(), &sel).is_err());
    }

    #[test]
    fn duplicate_alias_rejected() {
        let sel = parse_select("SELECT p.id FROM processes p, events p").unwrap();
        assert!(plan_select(&provider(), &sel).unwrap_err().to_string().contains("duplicate"));
    }

    #[test]
    fn or_across_aliases_is_residual() {
        let sel = parse_select(
            "SELECT p.id FROM processes p, events e \
             WHERE p.exename = 'x' OR e.optype = 'read'",
        )
        .unwrap();
        let plan = plan_select(&provider(), &sel).unwrap();
        assert!(plan.scans.iter().all(|s| s.conjuncts.is_empty()));
        assert_eq!(plan.residuals.len(), 1);
    }
}
