//! Semantic analysis and desugaring.
//!
//! Resolves TBQL's syntactic sugar and validates the query:
//!
//! * entity ID reuse: all declarations of an id must agree on the entity
//!   type; their filters are AND-merged onto one canonical entity,
//! * default attributes: bare value filters become comparisons on the entity
//!   kind's default attribute; bare ids in `return` become
//!   `id.default_attribute`,
//! * operation names are validated against the system-event vocabulary,
//! * pattern ids are unique (auto-generated `_evtN` where omitted),
//! * `with` temporal clauses may only reference *event* patterns (paths have
//!   no temporal semantics — Section III-E, Step 3),
//! * attribute names are validated per entity kind / event.

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;

use crate::ast::*;

/// Valid operation names (the `⟨op⟩` rule; mirrors the audit vocabulary).
pub const OPERATIONS: [&str; 7] = ["read", "write", "execute", "start", "end", "rename", "connect"];

const FILE_ATTRS: [&str; 4] = ["name", "path", "user", "group"];
const PROC_ATTRS: [&str; 5] = ["pid", "exename", "user", "group", "cmd"];
const IP_ATTRS: [&str; 5] = ["srcip", "srcport", "dstip", "dstport", "protocol"];
const EVENT_ATTRS: [&str; 9] =
    ["id", "optype", "starttime", "endtime", "duration", "amount", "failcode", "host", "object"];

pub fn entity_attrs(ty: EntityType) -> &'static [&'static str] {
    match ty {
        EntityType::File => &FILE_ATTRS,
        EntityType::Proc => &PROC_ATTRS,
        EntityType::Ip => &IP_ATTRS,
    }
}

/// A canonical entity after ID-reuse merging.
#[derive(Clone, Debug)]
pub struct AEntity {
    pub id: String,
    pub ty: EntityType,
    /// AND of all filters declared on this id, desugared.
    pub filter: Option<AttrExpr>,
}

/// A resolved pattern.
#[derive(Clone, Debug)]
pub struct APattern {
    /// Position in the query.
    pub index: usize,
    /// Pattern id (`as evtN`, or generated `_evtN`).
    pub id: String,
    pub subject: String,
    pub object: String,
    pub op: PatternOp,
    pub event_filter: Option<AttrExpr>,
    pub window: Option<Window>,
}

/// A resolved return item.
#[derive(Clone, PartialEq, Debug)]
pub struct RetItem {
    pub base: String,
    pub attr: String,
    /// True when `base` names a pattern (event) rather than an entity.
    pub is_event: bool,
}

/// The analyzed, desugared query.
#[derive(Clone, Debug)]
pub struct AnalyzedQuery {
    pub entities: FxHashMap<String, AEntity>,
    /// Entity ids in first-appearance order (stable output ordering).
    pub entity_order: Vec<String>,
    pub patterns: Vec<APattern>,
    pub relations: Vec<RelClause>,
    pub ret: Vec<RetItem>,
    pub distinct: bool,
    pub global_windows: Vec<Window>,
    pub global_attrs: Vec<AttrExpr>,
}

impl AnalyzedQuery {
    pub fn pattern_by_id(&self, id: &str) -> Option<&APattern> {
        self.patterns.iter().find(|p| p.id == id)
    }
}

/// Desugars an attribute filter in the context of one entity: `Bare` values
/// become comparisons on the default attribute; attribute names are checked.
fn desugar_filter(e: &EntityDecl, f: &AttrExpr) -> Result<AttrExpr> {
    Ok(match f {
        AttrExpr::Bare { negated, value } => AttrExpr::Cmp {
            attr: AttrRef { base: e.ty.default_attribute().to_string(), attr: None },
            op: if *negated { CmpOp::Ne } else { CmpOp::Eq },
            value: value.clone(),
        },
        AttrExpr::Cmp { attr, op, value } => {
            check_entity_attr(e, attr)?;
            AttrExpr::Cmp { attr: attr.clone(), op: *op, value: value.clone() }
        }
        AttrExpr::InSet { attr, negated, set } => {
            check_entity_attr(e, attr)?;
            AttrExpr::InSet { attr: attr.clone(), negated: *negated, set: set.clone() }
        }
        AttrExpr::And(a, b) => {
            AttrExpr::And(Box::new(desugar_filter(e, a)?), Box::new(desugar_filter(e, b)?))
        }
        AttrExpr::Or(a, b) => {
            AttrExpr::Or(Box::new(desugar_filter(e, a)?), Box::new(desugar_filter(e, b)?))
        }
    })
}

fn check_entity_attr(e: &EntityDecl, attr: &AttrRef) -> Result<()> {
    // Inside entity brackets the attr is unqualified (`pid = 1`).
    let name = attr.attr.as_deref().unwrap_or(&attr.base);
    if entity_attrs(e.ty).contains(&name) {
        Ok(())
    } else {
        Err(Error::semantic(format!(
            "entity `{}` ({}) has no attribute `{}`",
            e.id,
            e.ty.keyword(),
            name
        )))
    }
}

fn check_op_expr(e: &OpExpr) -> Result<()> {
    for name in e.op_names() {
        if !OPERATIONS.contains(&name) {
            return Err(Error::semantic(format!("unknown operation `{name}`")));
        }
    }
    Ok(())
}

/// Analyzes a parsed query.
pub fn analyze(q: &Query) -> Result<AnalyzedQuery> {
    let mut entities: FxHashMap<String, AEntity> = FxHashMap::default();
    let mut entity_order: Vec<String> = Vec::new();
    let mut register = |decl: &EntityDecl| -> Result<()> {
        let desugared = match &decl.filter {
            Some(f) => Some(desugar_filter(decl, f)?),
            None => None,
        };
        match entities.get_mut(&decl.id) {
            Some(existing) => {
                if existing.ty != decl.ty {
                    return Err(Error::semantic(format!(
                        "entity id `{}` reused with conflicting types ({} vs {})",
                        decl.id,
                        existing.ty.keyword(),
                        decl.ty.keyword()
                    )));
                }
                if let Some(f) = desugared {
                    existing.filter = Some(match existing.filter.take() {
                        Some(old) => AttrExpr::And(Box::new(old), Box::new(f)),
                        None => f,
                    });
                }
            }
            None => {
                entities.insert(
                    decl.id.clone(),
                    AEntity { id: decl.id.clone(), ty: decl.ty, filter: desugared },
                );
                entity_order.push(decl.id.clone());
            }
        }
        Ok(())
    };

    for p in &q.patterns {
        // The subject of a system event is always a process (Section III-A).
        if p.subject.ty != EntityType::Proc {
            return Err(Error::semantic(format!(
                "pattern subject `{}` must be a proc entity",
                p.subject.id
            )));
        }
        register(&p.subject)?;
        register(&p.object)?;
        match &p.op {
            PatternOp::Event(e) => check_op_expr(e)?,
            PatternOp::Path { arrow, min, max, op } => {
                if let Some(e) = op {
                    check_op_expr(e)?;
                }
                if *arrow == Arrow::Single && (min.is_some() || max.is_some()) {
                    return Err(Error::semantic(
                        "`->` paths have length exactly 1; length bounds need `~>`",
                    ));
                }
                if let (Some(lo), Some(hi)) = (min, max) {
                    if lo > hi {
                        return Err(Error::semantic(format!(
                            "path length range {lo}~{hi} is empty"
                        )));
                    }
                }
            }
        }
    }

    // Pattern ids.
    let mut seen_ids: FxHashMap<String, ()> = FxHashMap::default();
    let mut patterns = Vec::with_capacity(q.patterns.len());
    for (i, p) in q.patterns.iter().enumerate() {
        let id = match &p.id {
            Some(id) => {
                if seen_ids.insert(id.clone(), ()).is_some() {
                    return Err(Error::semantic(format!("duplicate pattern id `{id}`")));
                }
                if entities.contains_key(id) {
                    return Err(Error::semantic(format!(
                        "pattern id `{id}` collides with an entity id"
                    )));
                }
                id.clone()
            }
            None => {
                let id = format!("_evt{i}");
                seen_ids.insert(id.clone(), ());
                id
            }
        };
        patterns.push(APattern {
            index: i,
            id,
            subject: p.subject.id.clone(),
            object: p.object.id.clone(),
            op: p.op.clone(),
            event_filter: p.event_filter.clone(),
            window: p.window.clone(),
        });
    }

    // Relations.
    for r in &q.relations {
        match r {
            RelClause::Temporal { left, right, range, .. } => {
                for id in [left, right] {
                    let p = patterns
                        .iter()
                        .find(|p| &p.id == id)
                        .ok_or_else(|| Error::semantic(format!("unknown pattern id `{id}`")))?;
                    // Event patterns and paths with an identifiable final
                    // hop (a `->` single hop, or `~>` with a final-hop op of
                    // length 1) carry event timestamps; open variable-length
                    // paths do not (Section III-E, Step 3).
                    if !p.has_final_hop() {
                        return Err(Error::semantic(format!(
                            "temporal relationship references path pattern `{id}`; \
                             event paths have no temporal relationships"
                        )));
                    }
                }
                if let Some((lo, hi, unit)) = range {
                    if lo > hi {
                        return Err(Error::semantic(format!("empty temporal range {lo}-{hi}")));
                    }
                    use raptor_common::time::Duration;
                    if Duration::from_unit(1, unit).is_none() {
                        return Err(Error::semantic(format!("unknown time unit `{unit}`")));
                    }
                    if Duration::from_unit(*lo, unit).is_none()
                        || Duration::from_unit(*hi, unit).is_none()
                    {
                        return Err(Error::semantic(format!(
                            "temporal range {lo}-{hi} {unit} overflows nanoseconds"
                        )));
                    }
                }
            }
            RelClause::Attr { left, op: _, right } => {
                for a in [left, right] {
                    let ent = entities.get(&a.base).ok_or_else(|| {
                        Error::semantic(format!("unknown entity `{}` in with clause", a.base))
                    })?;
                    let name = a.attr.as_deref().unwrap_or("");
                    if !entity_attrs(ent.ty).contains(&name) {
                        return Err(Error::semantic(format!(
                            "entity `{}` has no attribute `{name}`",
                            a.base
                        )));
                    }
                }
            }
        }
    }

    // Return clause: bare entity ids get the default attribute.
    let mut ret = Vec::with_capacity(q.ret.items.len());
    for item in &q.ret.items {
        if let Some(ent) = entities.get(&item.base) {
            let attr = match &item.attr {
                Some(a) => {
                    if !entity_attrs(ent.ty).contains(&a.as_str()) {
                        return Err(Error::semantic(format!(
                            "entity `{}` has no attribute `{a}`",
                            item.base
                        )));
                    }
                    a.clone()
                }
                None => ent.ty.default_attribute().to_string(),
            };
            ret.push(RetItem { base: item.base.clone(), attr, is_event: false });
        } else if patterns.iter().any(|p| p.id == item.base) {
            let attr = item.attr.clone().unwrap_or_else(|| "id".to_string());
            if !EVENT_ATTRS.contains(&attr.as_str()) {
                return Err(Error::semantic(format!("events have no attribute `{attr}`")));
            }
            ret.push(RetItem { base: item.base.clone(), attr, is_event: true });
        } else {
            return Err(Error::semantic(format!(
                "unknown identifier `{}` in return clause",
                item.base
            )));
        }
    }

    let mut global_windows = Vec::new();
    let mut global_attrs = Vec::new();
    for g in &q.global_filters {
        match g {
            GlobalFilter::Window(w) => global_windows.push(w.clone()),
            GlobalFilter::Attr(a) => global_attrs.push(a.clone()),
        }
    }

    Ok(AnalyzedQuery {
        entities,
        entity_order,
        patterns,
        relations: q.relations.clone(),
        ret,
        distinct: q.ret.distinct,
        global_windows,
        global_attrs,
    })
}

impl APattern {
    pub fn is_path(&self) -> bool {
        matches!(self.op, PatternOp::Path { .. })
    }

    /// Does this pattern bind exactly one concrete event (so timestamps
    /// exist for temporal relationships and event-attribute returns)?
    /// True for event patterns and length-1 paths; variable-length paths
    /// match whole event chains and carry no single timestamp.
    pub fn has_final_hop(&self) -> bool {
        match &self.op {
            PatternOp::Event(_) => true,
            PatternOp::Path { arrow: Arrow::Single, .. } => true,
            PatternOp::Path { min, max, .. } => *min == Some(1) && *max == Some(1),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::{parse_tbql, FIG2_QUERY};

    #[test]
    fn figure2_analyzes() {
        let q = parse_tbql(FIG2_QUERY).unwrap();
        let a = analyze(&q).unwrap();
        assert_eq!(a.entities.len(), 9); // p1-p4, f1-f4, i1
        assert_eq!(a.patterns.len(), 8);
        assert!(a.distinct);
        // Bare return ids desugar to default attributes.
        assert_eq!(
            a.ret[0],
            RetItem { base: "p1".into(), attr: "exename".into(), is_event: false }
        );
        assert_eq!(a.ret[1], RetItem { base: "f1".into(), attr: "name".into(), is_event: false });
        assert_eq!(a.ret[8], RetItem { base: "i1".into(), attr: "dstip".into(), is_event: false });
        // Bare value filter desugars to default attribute comparison.
        let p1 = &a.entities["p1"];
        match p1.filter.as_ref().unwrap() {
            AttrExpr::Cmp { attr, op: CmpOp::Eq, value: Value::Str(s) } => {
                assert_eq!(attr.base, "exename");
                assert_eq!(s, "%/bin/tar%");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn id_reuse_merges_filters() {
        let q = parse_tbql(r#"proc p["%tar%"] read file f proc p[pid = 7] write file g return f"#)
            .unwrap();
        let a = analyze(&q).unwrap();
        assert!(matches!(a.entities["p"].filter, Some(AttrExpr::And(_, _))));
    }

    #[test]
    fn id_reuse_type_conflict() {
        let q = parse_tbql("proc x read file f proc p read file x return f").unwrap();
        let err = analyze(&q).unwrap_err();
        assert!(err.to_string().contains("conflicting types"));
    }

    #[test]
    fn subject_must_be_proc() {
        let q = parse_tbql("file f read file g return f").unwrap();
        assert!(analyze(&q).unwrap_err().to_string().contains("must be a proc"));
    }

    #[test]
    fn unknown_operation_rejected() {
        let q = parse_tbql("proc p frobnicate file f return f").unwrap();
        assert!(analyze(&q).unwrap_err().to_string().contains("unknown operation"));
    }

    #[test]
    fn unknown_attribute_rejected() {
        let q = parse_tbql("proc p[color = 1] read file f return f").unwrap();
        assert!(analyze(&q).unwrap_err().to_string().contains("no attribute"));
        let q = parse_tbql("proc p read file f return f.dstip").unwrap();
        assert!(analyze(&q).unwrap_err().to_string().contains("no attribute"));
    }

    #[test]
    fn temporal_on_path_rejected() {
        let q = parse_tbql(
            "proc p ~>[read] file f as e1 proc p read file g as e2 with e1 before e2 return f",
        )
        .unwrap();
        assert!(analyze(&q).unwrap_err().to_string().contains("no temporal relationships"));
    }

    #[test]
    fn duplicate_pattern_ids_rejected() {
        let q = parse_tbql("proc p read file f as e proc p write file g as e return f").unwrap();
        assert!(analyze(&q).unwrap_err().to_string().contains("duplicate pattern id"));
    }

    #[test]
    fn event_return_items() {
        let q = parse_tbql("proc p read file f as e1 return e1.amount, f").unwrap();
        let a = analyze(&q).unwrap();
        assert!(a.ret[0].is_event);
        assert_eq!(a.ret[0].attr, "amount");
    }

    #[test]
    fn empty_path_range_rejected() {
        let q = parse_tbql("proc p ~>(4~2)[read] file f return f").unwrap();
        assert!(analyze(&q).unwrap_err().to_string().contains("empty"));
    }

    #[test]
    fn overflowing_temporal_range_rejected() {
        let text = |range: &str| {
            format!(
                "proc p read file f as e1 proc p write file g as e2 \
                 with e1 before[{range}] e2 return f"
            )
        };
        for range in ["0-200000000000 d", "200000000000-300000000000 d"] {
            let q = parse_tbql(&text(range)).unwrap();
            let err = analyze(&q).unwrap_err();
            assert_eq!(err.kind, raptor_common::error::ErrorKind::Semantic, "{err:?}");
            assert!(err.to_string().contains("overflows"), "{err}");
        }
        // The largest day count that fits in i64 nanoseconds is accepted.
        let q = parse_tbql(&text("0-106751 d")).unwrap();
        assert!(analyze(&q).is_ok());
    }

    #[test]
    fn global_filters_collected() {
        let q = parse_tbql("last 2 h proc p read file f return f").unwrap();
        let a = analyze(&q).unwrap();
        assert_eq!(a.global_windows.len(), 1);
    }
}
