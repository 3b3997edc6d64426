//! TBQL → data-query compilation.
//!
//! Each *event pattern* compiles to a small typed request against the
//! relational store ([`event_pattern_request`]); each *path pattern* to a
//! typed request against the graph store ([`path_pattern_request`]). The
//! whole query can also be compiled into one *giant* SQL or Cypher
//! statement — the baselines of Table VIII and the comparison texts of
//! Table X, and the only query text this module renders.
//!
//! Known restriction: the giant compiled forms support plain
//! `before`/`after` temporal relationships; `within` and `[lo-hi unit]`
//! gap ranges need arithmetic that the embedded SQL subset does not
//! expose, and are only handled by the scheduled execution path.

use std::fmt::Write as _;

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;
use raptor_common::intern::SharedDict;
use raptor_common::time::Duration;
use raptor_graphstore::backend::label_for_class;
use raptor_tbql::analyze::{APattern, AnalyzedQuery};
use raptor_tbql::{
    AttrExpr, CmpOp, EntityType, OpExpr, PatternOp, RelClause, TemporalOp, Value, Window,
};

/// Compilation context.
pub struct CompileCtx<'a> {
    pub aq: &'a AnalyzedQuery,
    /// Reference time for `last N unit` windows (max event end in the db).
    pub now_ns: i64,
    /// The shared dictionary plane: TBQL string literals are interned here
    /// at compile time, so typed requests carry pre-interned symbols and
    /// backends never do per-request dictionary lookups.
    pub dict: SharedDict,
}

/// Entity ids propagated from already-executed patterns (scheduler state).
///
/// Candidate sets are kept **sorted and distinct**: the `MAX_IN_LIST` cap
/// then measures distinct ids, and compiled `id_in` lists are deterministic
/// for a given result set.
///
/// **A filtered entity's ids all pass its filter**: its set starts as the
/// filter's seed and [`Propagation::intersect`] only narrows it. A request
/// that sends the ids sends no filter, so each IOC filter is decided once,
/// by the relational seed, for both stores.
#[derive(Clone, Default, Debug)]
pub struct Propagation {
    entity_ids: FxHashMap<String, Vec<i64>>,
}

impl Propagation {
    /// Replaces the candidate set for `var`. `ids` must already be sorted
    /// and distinct — the [`Database::entity_candidates`] contract — so
    /// canonicalization happens in exactly one place (the store) instead
    /// of being repeated on every propagation step.
    ///
    /// [`Database::entity_candidates`]: raptor_relstore::Database::entity_candidates
    pub fn set(&mut self, var: impl Into<String>, ids: Vec<i64>) {
        debug_assert!(
            ids.windows(2).all(|w| w[0] < w[1]),
            "candidate ids must arrive sorted-distinct"
        );
        self.entity_ids.insert(var.into(), ids);
    }

    /// Narrows `var` to the intersection with `ids`; sets it when absent.
    /// `ids` is a match column read in place, so (unlike
    /// [`Propagation::set`]) it may be unsorted and duplicated.
    pub fn intersect(&mut self, var: &str, ids: &[i64]) {
        match self.entity_ids.get_mut(var) {
            Some(existing) => {
                let set: raptor_common::FxHashSet<i64> = ids.iter().copied().collect();
                existing.retain(|x| set.contains(x));
            }
            None => {
                let mut ids = ids.to_vec();
                ids.sort_unstable();
                ids.dedup();
                self.set(var, ids);
            }
        }
    }

    /// The candidate set for `var`, if any (sorted, distinct).
    pub fn get(&self, var: &str) -> Option<&[i64]> {
        self.entity_ids.get(var).map(Vec::as_slice)
    }

    /// The candidate set for `var` when it is small enough to be worth an
    /// `IN` filter — beyond [`MAX_IN_LIST`] distinct ids the filter costs
    /// more than it prunes.
    pub fn in_list(&self, var: &str) -> Option<&[i64]> {
        self.get(var).filter(|ids| ids.len() <= MAX_IN_LIST)
    }
}

/// Caps the size of propagated `IN` lists (distinct ids); beyond this the
/// filter costs more than it prunes.
pub const MAX_IN_LIST: usize = 4096;

fn sql_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

// --- SQL fragments ---

fn attr_to_sql(alias: &str, e: &AttrExpr) -> String {
    match e {
        AttrExpr::Bare { .. } => unreachable!("analyzer desugars bare values"),
        AttrExpr::Cmp { attr, op, value } => {
            let col = format!("{alias}.{}", attr.attr.as_deref().unwrap_or(&attr.base));
            match (op, value) {
                (CmpOp::Eq, Value::Str(s)) if s.contains('%') => {
                    format!("{col} LIKE {}", sql_str(s))
                }
                (CmpOp::Ne, Value::Str(s)) if s.contains('%') => {
                    format!("{col} NOT LIKE {}", sql_str(s))
                }
                (_, Value::Str(s)) => format!("{col} {} {}", op.as_str(), sql_str(s)),
                (_, Value::Int(i)) => format!("{col} {} {i}", op.as_str()),
            }
        }
        AttrExpr::InSet { attr, negated, set } => {
            let col = format!("{alias}.{}", attr.attr.as_deref().unwrap_or(&attr.base));
            let vals: Vec<String> = set
                .iter()
                .map(|v| match v {
                    Value::Int(i) => i.to_string(),
                    Value::Str(s) => sql_str(s),
                })
                .collect();
            format!("{col} {}IN ({})", if *negated { "NOT " } else { "" }, vals.join(", "))
        }
        AttrExpr::And(a, b) => format!("({} AND {})", attr_to_sql(alias, a), attr_to_sql(alias, b)),
        AttrExpr::Or(a, b) => format!("({} OR {})", attr_to_sql(alias, a), attr_to_sql(alias, b)),
    }
}

fn op_to_sql(evt: &str, e: &OpExpr) -> String {
    match e {
        OpExpr::Op(name) => format!("{evt}.optype = {}", sql_str(name)),
        OpExpr::Not(inner) => format!("NOT {}", op_to_sql(evt, inner)),
        OpExpr::And(a, b) => format!("({} AND {})", op_to_sql(evt, a), op_to_sql(evt, b)),
        OpExpr::Or(a, b) => format!("({} OR {})", op_to_sql(evt, a), op_to_sql(evt, b)),
    }
}

fn window_to_sql(evt: &str, w: &Window, now_ns: i64) -> Result<String> {
    Ok(match w {
        Window::FromTo(a, b) => {
            format!("{evt}.starttime >= {} AND {evt}.starttime <= {}", a.0, b.0)
        }
        Window::At(t) => format!("{evt}.starttime <= {} AND {evt}.endtime >= {}", t.0, t.0),
        Window::Before(t) => format!("{evt}.starttime < {}", t.0),
        Window::After(t) => format!("{evt}.starttime > {}", t.0),
        Window::Last { n, unit } => {
            let d = Duration::from_unit(*n, unit)
                .ok_or_else(|| Error::semantic(format!("unknown time unit `{unit}`")))?;
            format!("{evt}.starttime >= {}", now_ns.saturating_sub(d.0))
        }
    })
}

// --- Cypher fragments ---

fn cypher_str(s: &str) -> String {
    format!("'{}'", s.replace('\'', "''"))
}

fn attr_to_cypher(var: &str, e: &AttrExpr) -> String {
    match e {
        AttrExpr::Bare { .. } => unreachable!("analyzer desugars bare values"),
        AttrExpr::Cmp { attr, op, value } => {
            let prop = format!("{var}.{}", attr.attr.as_deref().unwrap_or(&attr.base));
            match (op, value) {
                (CmpOp::Eq, Value::Str(s)) if s.contains('%') => str_pred_cypher(&prop, s, false),
                (CmpOp::Ne, Value::Str(s)) if s.contains('%') => str_pred_cypher(&prop, s, true),
                (_, Value::Str(s)) => {
                    let op_str = if *op == CmpOp::Ne { "<>" } else { op.as_str() };
                    format!("{prop} {} {}", op_str, cypher_str(s))
                }
                (_, Value::Int(i)) => {
                    let op_str = if *op == CmpOp::Ne { "<>" } else { op.as_str() };
                    format!("{prop} {op_str} {i}")
                }
            }
        }
        AttrExpr::InSet { attr, negated, set } => {
            let prop = format!("{var}.{}", attr.attr.as_deref().unwrap_or(&attr.base));
            let vals: Vec<String> = set
                .iter()
                .map(|v| match v {
                    Value::Int(i) => i.to_string(),
                    Value::Str(s) => cypher_str(s),
                })
                .collect();
            let base = format!("{prop} IN [{}]", vals.join(", "));
            if *negated {
                format!("NOT ({base})")
            } else {
                base
            }
        }
        AttrExpr::And(a, b) => {
            format!("({} AND {})", attr_to_cypher(var, a), attr_to_cypher(var, b))
        }
        AttrExpr::Or(a, b) => {
            format!("({} OR {})", attr_to_cypher(var, a), attr_to_cypher(var, b))
        }
    }
}

/// `%lit%` → CONTAINS, `%lit` → ENDS WITH, `lit%` → STARTS WITH; other
/// wildcard shapes fall back to CONTAINS on the longest literal run.
fn str_pred_cypher(prop: &str, pattern: &str, negated: bool) -> String {
    let inner = pattern.trim_matches('%');
    let pred = if pattern.starts_with('%') && pattern.ends_with('%') && !inner.contains('%') {
        format!("{prop} CONTAINS {}", cypher_str(inner))
    } else if pattern.starts_with('%') && !inner.contains('%') {
        format!("{prop} ENDS WITH {}", cypher_str(inner))
    } else if pattern.ends_with('%') && !inner.contains('%') {
        format!("{prop} STARTS WITH {}", cypher_str(inner))
    } else {
        let run = inner.split('%').max_by_key(|r| r.len()).unwrap_or("");
        format!("{prop} CONTAINS {}", cypher_str(run))
    };
    if negated {
        format!("NOT ({pred})")
    } else {
        pred
    }
}

fn op_to_cypher(edge: &str, e: &OpExpr) -> String {
    match e {
        OpExpr::Op(name) => format!("{edge}.optype = {}", cypher_str(name)),
        OpExpr::Not(inner) => format!("NOT ({})", op_to_cypher(edge, inner)),
        OpExpr::And(a, b) => format!("({} AND {})", op_to_cypher(edge, a), op_to_cypher(edge, b)),
        OpExpr::Or(a, b) => format!("({} OR {})", op_to_cypher(edge, a), op_to_cypher(edge, b)),
    }
}

fn window_to_cypher(edge: &str, w: &Window, now_ns: i64) -> Result<String> {
    Ok(match w {
        Window::FromTo(a, b) => {
            format!("{edge}.starttime >= {} AND {edge}.starttime <= {}", a.0, b.0)
        }
        Window::At(t) => format!("{edge}.starttime <= {} AND {edge}.endtime >= {}", t.0, t.0),
        Window::Before(t) => format!("{edge}.starttime < {}", t.0),
        Window::After(t) => format!("{edge}.starttime > {}", t.0),
        Window::Last { n, unit } => {
            let d = Duration::from_unit(*n, unit)
                .ok_or_else(|| Error::semantic(format!("unknown time unit `{unit}`")))?;
            format!("{edge}.starttime >= {}", now_ns.saturating_sub(d.0))
        }
    })
}

/// Renders one pattern's MATCH fragment, collecting its event-level WHERE
/// conditions. Entity filters are the caller's: [`giant_cypher`] emits them
/// once per entity, not once per pattern the entity appears in.
fn cypher_pattern_fragment(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    conds: &mut Vec<String>,
) -> Result<String> {
    let subj = &ctx.aq.entities[&p.subject];
    let obj = &ctx.aq.entities[&p.object];
    let s_node = format!("({}:{})", p.subject, label_for_class(class_for_type(subj.ty)));
    let o_node = format!("({}:{})", p.object, label_for_class(class_for_type(obj.ty)));
    Ok(match &p.op {
        PatternOp::Event(op) => {
            conds.push(op_to_cypher(&p.id, op));
            if let Some(f) = &p.event_filter {
                conds.push(attr_to_cypher(&p.id, f));
            }
            if let Some(w) = &p.window {
                conds.push(window_to_cypher(&p.id, w, ctx.now_ns)?);
            }
            for w in &ctx.aq.global_windows {
                conds.push(window_to_cypher(&p.id, w, ctx.now_ns)?);
            }
            format!("{s_node}-[{}:EVENT]->{o_node}", p.id)
        }
        PatternOp::Path { arrow, min, max, op } => {
            path_fragment(p, *arrow, *min, *max, op.as_ref(), &s_node, &o_node, conds)
        }
    })
}

/// Shared path-fragment rendering. `->` means exactly one hop; `~>` renders
/// variable-length, splitting off the final hop when it carries an
/// operation constraint (TBQL's final-hop semantics).
#[allow(clippy::too_many_arguments)]
fn path_fragment(
    p: &APattern,
    arrow: raptor_tbql::Arrow,
    min: Option<u32>,
    max: Option<u32>,
    op: Option<&OpExpr>,
    s_node: &str,
    o_node: &str,
    conds: &mut Vec<String>,
) -> String {
    let (lo, hi) =
        if arrow == raptor_tbql::Arrow::Single { (1, Some(1)) } else { (min.unwrap_or(1), max) };
    let hi_text = hi.map(|m| m.to_string()).unwrap_or_default();
    match op {
        Some(op) if lo == 1 && hi == Some(1) => {
            conds.push(op_to_cypher(&p.id, op));
            format!("{s_node}-[{}:EVENT]->{o_node}", p.id)
        }
        Some(op) => {
            conds.push(op_to_cypher(&p.id, op));
            let plo = lo.saturating_sub(1);
            let phi = hi.map(|m| (m.saturating_sub(1)).to_string()).unwrap_or_default();
            format!("{s_node}-[:EVENT*{plo}..{phi}]->(_m{})-[{}:EVENT]->{o_node}", p.index, p.id)
        }
        None if lo == 1 && hi == Some(1) => {
            format!("{s_node}-[{}:EVENT]->{o_node}", p.id)
        }
        None => format!("{s_node}-[:EVENT*{lo}..{hi_text}]->{o_node}"),
    }
}

/// Compiles the whole query into one giant SQL statement (the paper's
/// baseline "(b)"). Only valid when every pattern is an event pattern.
pub fn giant_sql(ctx: &CompileCtx<'_>) -> Result<String> {
    let aq = ctx.aq;
    if aq.patterns.iter().any(|p| p.is_path()) {
        return Err(Error::semantic(
            "giant SQL requires event patterns only (paths need the graph backend)",
        ));
    }
    // SELECT: return items.
    let items: Vec<String> = aq.ret.iter().map(|r| format!("{}.{}", r.base, r.attr)).collect();
    let mut sql =
        format!("SELECT {}{}", if aq.distinct { "DISTINCT " } else { "" }, items.join(", "));
    // FROM: each entity once, each pattern's event once.
    let mut from: Vec<String> = Vec::new();
    for id in &aq.entity_order {
        let e = &aq.entities[id];
        from.push(format!("{} {}", class_for_type(e.ty).table_name(), id));
    }
    for p in &aq.patterns {
        from.push(format!("events {}", p.id));
    }
    let _ = write!(sql, " FROM {}", from.join(", "));
    // WHERE.
    let mut conds: Vec<String> = Vec::new();
    for p in &aq.patterns {
        let e = &p.id;
        let obj_ty = aq.entities[&p.object].ty;
        conds.push(format!("{e}.subject = {}.id", p.subject));
        conds.push(format!("{e}.object = {}.id", p.object));
        conds.push(format!("{e}.kind = {}", sql_str(class_for_type(obj_ty).event_kind())));
        match &p.op {
            PatternOp::Event(op) => conds.push(op_to_sql(e, op)),
            PatternOp::Path { .. } => unreachable!(),
        }
        if let Some(f) = &p.event_filter {
            conds.push(attr_to_sql(e, f));
        }
        if let Some(w) = &p.window {
            conds.push(window_to_sql(e, w, ctx.now_ns)?);
        }
        for w in &aq.global_windows {
            conds.push(window_to_sql(e, w, ctx.now_ns)?);
        }
    }
    for id in &aq.entity_order {
        if let Some(f) = &aq.entities[id].filter {
            conds.push(attr_to_sql(id, f));
        }
    }
    for rel in &aq.relations {
        match rel {
            RelClause::Temporal { left, op, range, right } => {
                if range.is_some() || *op == TemporalOp::Within {
                    return Err(Error::semantic(
                        "giant SQL supports plain before/after only (see module docs)",
                    ));
                }
                match op {
                    TemporalOp::Before => {
                        conds.push(format!("{left}.starttime < {right}.starttime"))
                    }
                    TemporalOp::After => {
                        conds.push(format!("{left}.starttime > {right}.starttime"))
                    }
                    TemporalOp::Within => unreachable!(),
                }
            }
            RelClause::Attr { left, op, right } => {
                conds.push(format!("{left} {} {right}", op.as_str()));
            }
        }
    }
    if !conds.is_empty() {
        let _ = write!(sql, " WHERE {}", conds.join(" AND "));
    }
    Ok(sql)
}

/// Compiles the whole query into one giant Cypher statement (baseline "(d)").
pub fn giant_cypher(ctx: &CompileCtx<'_>) -> Result<String> {
    let aq = ctx.aq;
    let mut conds: Vec<String> = Vec::new();
    let mut frags: Vec<String> = Vec::new();
    for p in &aq.patterns {
        frags.push(cypher_pattern_fragment(ctx, p, &mut conds)?);
    }
    for id in &aq.entity_order {
        if let Some(f) = &aq.entities[id].filter {
            conds.push(attr_to_cypher(id, f));
        }
    }
    for rel in &aq.relations {
        match rel {
            RelClause::Temporal { left, op, range, right } => {
                if range.is_some() || *op == TemporalOp::Within {
                    return Err(Error::semantic(
                        "giant Cypher supports plain before/after only (see module docs)",
                    ));
                }
                match op {
                    TemporalOp::Before => {
                        conds.push(format!("{left}.starttime < {right}.starttime"))
                    }
                    TemporalOp::After => {
                        conds.push(format!("{left}.starttime > {right}.starttime"))
                    }
                    TemporalOp::Within => unreachable!(),
                }
            }
            RelClause::Attr { left, op, right } => {
                let op_str = if *op == CmpOp::Ne { "<>" } else { op.as_str() };
                conds.push(format!("{left} {op_str} {right}"));
            }
        }
    }
    let mut q = format!("MATCH {}", frags.join(", "));
    if !conds.is_empty() {
        let _ = write!(q, " WHERE {}", conds.join(" AND "));
    }
    let items: Vec<String> = aq.ret.iter().map(|r| format!("{}.{}", r.base, r.attr)).collect();
    let _ = write!(q, " RETURN {}{}", if aq.distinct { "DISTINCT " } else { "" }, items.join(", "));
    Ok(q)
}

// --- typed requests (the scheduled executor's parse-free path) ---

pub fn class_for_type(ty: EntityType) -> raptor_storage::EntityClass {
    match ty {
        EntityType::File => raptor_storage::EntityClass::File,
        EntityType::Proc => raptor_storage::EntityClass::Process,
        EntityType::Ip => raptor_storage::EntityClass::NetConn,
    }
}

fn storage_cmp_op(op: CmpOp) -> raptor_storage::CmpOp {
    match op {
        CmpOp::Eq => raptor_storage::CmpOp::Eq,
        CmpOp::Ne => raptor_storage::CmpOp::Ne,
        CmpOp::Lt => raptor_storage::CmpOp::Lt,
        CmpOp::Le => raptor_storage::CmpOp::Le,
        CmpOp::Gt => raptor_storage::CmpOp::Gt,
        CmpOp::Ge => raptor_storage::CmpOp::Ge,
    }
}

/// Interns a TBQL literal into the shared plane (parse-time interning: the
/// one place query strings become symbols).
fn storage_value(v: &Value, dict: &SharedDict) -> raptor_storage::Value {
    match v {
        Value::Int(i) => raptor_storage::Value::Int(*i),
        Value::Str(s) => raptor_storage::Value::Str(dict.intern(s)),
    }
}

/// Lowers a TBQL attribute expression to a typed predicate (same semantics
/// as the SQL lowering: `=`/`!=` against a `%` pattern means LIKE). String
/// literals are interned into `dict` here, so the emitted predicate carries
/// pre-interned symbols.
pub fn attr_pred(e: &AttrExpr, dict: &SharedDict) -> raptor_storage::Pred {
    use raptor_storage::Pred;
    match e {
        AttrExpr::Bare { .. } => unreachable!("analyzer desugars bare values"),
        AttrExpr::Cmp { attr, op, value } => {
            let attr = attr.attr.as_deref().unwrap_or(&attr.base).to_string();
            match (op, value) {
                (CmpOp::Eq, Value::Str(s)) if s.contains('%') => {
                    Pred::Like { attr, pattern: s.clone(), negated: false }
                }
                (CmpOp::Ne, Value::Str(s)) if s.contains('%') => {
                    Pred::Like { attr, pattern: s.clone(), negated: true }
                }
                _ => Pred::Cmp { attr, op: storage_cmp_op(*op), value: storage_value(value, dict) },
            }
        }
        AttrExpr::InSet { attr, negated, set } => Pred::InSet {
            attr: attr.attr.as_deref().unwrap_or(&attr.base).to_string(),
            negated: *negated,
            values: set.iter().map(|v| storage_value(v, dict)).collect(),
        },
        AttrExpr::And(a, b) => {
            Pred::And(Box::new(attr_pred(a, dict)), Box::new(attr_pred(b, dict)))
        }
        AttrExpr::Or(a, b) => Pred::Or(Box::new(attr_pred(a, dict)), Box::new(attr_pred(b, dict))),
    }
}

fn op_pred(e: &OpExpr, dict: &SharedDict) -> raptor_storage::Pred {
    use raptor_storage::Pred;
    match e {
        OpExpr::Op(name) => Pred::Cmp {
            attr: "optype".to_string(),
            op: raptor_storage::CmpOp::Eq,
            value: raptor_storage::Value::Str(dict.intern(name)),
        },
        OpExpr::Not(inner) => Pred::Not(Box::new(op_pred(inner, dict))),
        OpExpr::And(a, b) => Pred::And(Box::new(op_pred(a, dict)), Box::new(op_pred(b, dict))),
        OpExpr::Or(a, b) => Pred::Or(Box::new(op_pred(a, dict)), Box::new(op_pred(b, dict))),
    }
}

fn window_pred(w: &Window, now_ns: i64) -> Result<raptor_storage::Pred> {
    use raptor_storage::{CmpOp as SOp, Pred, Value as SVal};
    let cmp =
        |attr: &str, op: SOp, v: i64| Pred::Cmp { attr: attr.to_string(), op, value: SVal::Int(v) };
    Ok(match w {
        Window::FromTo(a, b) => Pred::And(
            Box::new(cmp("starttime", SOp::Ge, a.0)),
            Box::new(cmp("starttime", SOp::Le, b.0)),
        ),
        Window::At(t) => Pred::And(
            Box::new(cmp("starttime", SOp::Le, t.0)),
            Box::new(cmp("endtime", SOp::Ge, t.0)),
        ),
        Window::Before(t) => cmp("starttime", SOp::Lt, t.0),
        Window::After(t) => cmp("starttime", SOp::Gt, t.0),
        Window::Last { n, unit } => {
            let d = Duration::from_unit(*n, unit)
                .ok_or_else(|| Error::semantic(format!("unknown time unit `{unit}`")))?;
            cmp("starttime", SOp::Ge, now_ns.saturating_sub(d.0))
        }
    })
}

/// An endpoint's propagated ids, which passed its filter ([`Propagation`]),
/// or else its filter.
fn entity_sel(ctx: &CompileCtx<'_>, var: &str, prop: &Propagation) -> raptor_storage::EntitySel {
    let e = &ctx.aq.entities[var];
    let id_in = prop.in_list(var).map(<[i64]>::to_vec);
    raptor_storage::EntitySel {
        class: class_for_type(e.ty),
        filter: e.filter.as_ref().filter(|_| id_in.is_none()).map(|f| attr_pred(f, &ctx.dict)),
        id_in,
    }
}

/// Conjunction of the pattern's event-level predicates: operation, event
/// filter, per-pattern window, global windows.
fn event_conjuncts(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    op: Option<&OpExpr>,
) -> Result<Vec<raptor_storage::Pred>> {
    let mut preds = Vec::new();
    if let Some(op) = op {
        preds.push(op_pred(op, &ctx.dict));
    }
    if let Some(f) = &p.event_filter {
        preds.push(attr_pred(f, &ctx.dict));
    }
    if let Some(w) = &p.window {
        preds.push(window_pred(w, ctx.now_ns)?);
    }
    for w in &ctx.aq.global_windows {
        preds.push(window_pred(w, ctx.now_ns)?);
    }
    Ok(preds)
}

/// One pattern's typed data request: an event pattern's for the relational
/// store, a path pattern's for the graph store.
#[derive(Clone, Debug)]
pub(crate) enum Request {
    Event(raptor_storage::EventPatternQuery),
    Path(raptor_storage::PathPatternQuery),
}

impl Request {
    /// Builds `p`'s request over the candidates in `prop`.
    pub(crate) fn build(
        ctx: &CompileCtx<'_>,
        p: &APattern,
        prop: &Propagation,
        hop_cap: u32,
    ) -> Result<Request> {
        Ok(match p.is_path() {
            true => Request::Path(path_pattern_request(ctx, p, prop, hop_cap)?),
            false => Request::Event(event_pattern_request(ctx, p, prop)?),
        })
    }

    fn endpoints_mut(&mut self) -> [&mut raptor_storage::EntitySel; 2] {
        match self {
            Request::Event(q) => [&mut q.subject, &mut q.object],
            Request::Path(q) => [&mut q.subject, &mut q.object],
        }
    }

    /// Gives each endpoint of `p` the candidates `prop` now holds for its
    /// variable. Candidates only narrow, so an endpoint that has ids keeps
    /// ids, and one that gains them drops its filter, as `entity_sel`
    /// builds it: they all passed it.
    pub(crate) fn propagate(&mut self, p: &APattern, prop: &Propagation) {
        for (sel, var) in self.endpoints_mut().into_iter().zip([&p.subject, &p.object]) {
            if let Some(ids) = prop.in_list(var) {
                sel.id_in = Some(ids.to_vec());
                sel.filter = None;
            }
        }
    }

    /// How many endpoints carry propagated ids.
    pub(crate) fn in_lists(&self) -> usize {
        let (s, o) = match self {
            Request::Event(q) => (&q.subject, &q.object),
            Request::Path(q) => (&q.subject, &q.object),
        };
        s.id_in.is_some() as usize + o.id_in.is_some() as usize
    }
}

/// Builds the typed request for one event pattern.
pub fn event_pattern_request(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    prop: &Propagation,
) -> Result<raptor_storage::EventPatternQuery> {
    let PatternOp::Event(op) = &p.op else {
        return Err(Error::semantic("path patterns build path requests, not event requests"));
    };
    Ok(raptor_storage::EventPatternQuery {
        subject: entity_sel(ctx, &p.subject, prop),
        object: entity_sel(ctx, &p.object, prop),
        event_pred: raptor_storage::Pred::and(event_conjuncts(ctx, p, Some(op))?),
        subject_is_object: p.subject == p.object,
    })
}

/// Builds the typed request for one path pattern.
pub fn path_pattern_request(
    ctx: &CompileCtx<'_>,
    p: &APattern,
    prop: &Propagation,
    hop_cap: u32,
) -> Result<raptor_storage::PathPatternQuery> {
    let PatternOp::Path { arrow, min, max, op } = &p.op else {
        return Err(Error::semantic("event patterns build event requests, not path requests"));
    };
    let (min_hops, max_hops) =
        if *arrow == raptor_tbql::Arrow::Single { (1, Some(1)) } else { (min.unwrap_or(1), *max) };
    // Path patterns constrain only the final hop's operation (event filters
    // and windows apply to event patterns).
    let final_hop_pred = op.as_ref().map(|o| op_pred(o, &ctx.dict));
    Ok(raptor_storage::PathPatternQuery {
        subject: entity_sel(ctx, &p.subject, prop),
        object: entity_sel(ctx, &p.object, prop),
        min_hops,
        max_hops,
        hop_cap,
        final_hop_pred,
        want_event: p.has_final_hop(),
        subject_is_object: p.subject == p.object,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_tbql::{analyze, parse_tbql};

    fn ctx_for(text: &str) -> (AnalyzedQuery, i64) {
        let q = parse_tbql(text).unwrap();
        (analyze(&q).unwrap(), 1_000_000_000_000)
    }

    #[test]
    fn event_pattern_sql_shape() {
        let (aq, now) =
            ctx_for(r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1 return p1, f1"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let sql = giant_sql(&ctx).unwrap();
        assert!(sql.contains("FROM processes p1, files f1, events evt1"), "{sql}");
        assert!(sql.contains("evt1.subject = p1.id"), "{sql}");
        assert!(sql.contains("evt1.optype = 'read'"), "{sql}");
        assert!(sql.contains("p1.exename LIKE '%/bin/tar%'"), "{sql}");
        assert!(sql.contains("f1.name LIKE '%/etc/passwd%'"), "{sql}");
        assert!(sql.contains("evt1.kind = 'file'"), "{sql}");
        // Compiled SQL parses in the relational engine's dialect.
        assert!(raptor_relstore::sql::parse_select(&sql).is_ok(), "{sql}");
    }

    #[test]
    fn propagation_adds_in_filters() {
        let (aq, now) = ctx_for("proc p read file f as e1 return p, f");
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let mut prop = Propagation::default();
        prop.set("p", vec![3, 5, 9]);
        let req = event_pattern_request(&ctx, &aq.patterns[0], &prop).unwrap();
        assert_eq!(req.subject.id_in.as_deref(), Some(&[3, 5, 9][..]));
        assert_eq!(req.object.id_in, None);
    }

    #[test]
    fn oversized_in_list_skipped() {
        let (aq, now) = ctx_for("proc p read file f as e1 return p, f");
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let mut prop = Propagation::default();
        prop.set("p", (0..(MAX_IN_LIST as i64 + 1)).collect());
        let req = event_pattern_request(&ctx, &aq.patterns[0], &prop).unwrap();
        assert_eq!(req.subject.id_in, None);
        // A seed too large to send leaves the filter to the endpoint probe.
        let (aq, now) = ctx_for(r#"proc p["%tar%"] read file f as e1 return p, f"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let req = event_pattern_request(&ctx, &aq.patterns[0], &prop).unwrap();
        assert_eq!(req.subject.id_in, None);
        assert!(matches!(
            req.subject.filter,
            Some(raptor_storage::Pred::Like { ref pattern, .. }) if pattern == "%tar%"
        ));
    }

    /// Candidates arrive sorted-distinct from the backend
    /// (`entity_candidates` is the one canonicalization point — see the
    /// `candidates_sorted_distinct` backend test); propagation stores and
    /// emits them verbatim instead of re-sorting on every step.
    #[test]
    fn propagated_ids_emitted_canonically() {
        let (aq, now) = ctx_for("proc p read file f as e1 return p, f");
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let mut prop = Propagation::default();
        prop.set("p", vec![3, 5, 9]);
        let req = event_pattern_request(&ctx, &aq.patterns[0], &prop).unwrap();
        assert_eq!(req.subject.id_in.as_deref(), Some(&[3, 5, 9][..]));
        // Rows from match results (unsorted, duplicated) still canonicalize
        // through `intersect`'s set-when-absent path.
        prop.intersect("f", &[9, 3, 5, 3, 9, 9]);
        assert_eq!(prop.get("f"), Some(&[3, 5, 9][..]));
    }

    #[test]
    #[should_panic(expected = "sorted-distinct")]
    #[cfg(debug_assertions)]
    fn propagation_set_rejects_unsorted_in_debug() {
        let mut prop = Propagation::default();
        prop.set("p", vec![9, 3, 5]);
    }

    #[test]
    fn propagation_intersects() {
        let mut prop = Propagation::default();
        prop.set("p", vec![1, 2, 3, 4]);
        prop.intersect("p", &[4, 2, 9]);
        assert_eq!(prop.get("p"), Some(&[2, 4][..]));
        prop.intersect("q", &[5, 5, 1]);
        assert_eq!(prop.get("q"), Some(&[1, 5][..]));
    }

    #[test]
    fn typed_event_request_mirrors_sql() {
        let (aq, now) =
            ctx_for(r#"proc p1["%/bin/tar%"] read file f1["%/etc/passwd%"] as evt1 return p1, f1"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let mut prop = Propagation::default();
        prop.set("p1", vec![3, 5]);
        let req = event_pattern_request(&ctx, &aq.patterns[0], &prop).unwrap();
        assert_eq!(req.subject.class, raptor_storage::EntityClass::Process);
        assert_eq!(req.object.class, raptor_storage::EntityClass::File);
        // The seeded subject is its ids alone: they already passed
        // `p1.exename LIKE '%/bin/tar%'`.
        assert_eq!(req.subject.id_in.as_deref(), Some(&[3, 5][..]));
        assert_eq!(req.subject.filter, None);
        // The unseeded object keeps the SQL's `f1.name LIKE` filter.
        assert_eq!(req.object.id_in, None);
        assert!(matches!(
            req.object.filter,
            Some(raptor_storage::Pred::Like { ref pattern, negated: false, .. })
                if pattern == "%/etc/passwd%"
        ));
        assert!(req.event_pred.is_some());
    }

    #[test]
    fn typed_path_request_shape() {
        let (aq, now) = ctx_for(r#"proc p["%tar%"] ~>(2~4)[read] file f as e1 return p, f"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let req = path_pattern_request(&ctx, &aq.patterns[0], &Propagation::default(), 8).unwrap();
        assert_eq!((req.min_hops, req.max_hops, req.hop_cap), (2, Some(4), 8));
        assert!(!req.want_event, "variable-length paths bind no single event");
        assert!(req.final_hop_pred.is_some());
    }

    #[test]
    fn path_pattern_cypher_shape() {
        let (aq, now) = ctx_for(r#"proc p["%tar%"] ~>(2~4)[read] file f as e1 return p, f"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let cy = giant_cypher(&ctx).unwrap();
        assert!(cy.contains("(p:Process)-[:EVENT*1..3]->(_m0)-[e1:EVENT]->(f:File)"), "{cy}");
        assert!(cy.contains("e1.optype = 'read'"), "{cy}");
        assert!(cy.contains("p.exename CONTAINS 'tar'"), "{cy}");
        assert!(cy.contains("RETURN p.exename, f.name"), "{cy}");
        assert!(raptor_graphstore::cypher::parse_cypher(&cy).is_ok(), "{cy}");
    }

    #[test]
    fn length_one_path_is_single_hop() {
        let (aq, now) = ctx_for("proc p ->[read] file f as e1 return p, f");
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let cy = giant_cypher(&ctx).unwrap();
        // `->` parses with no explicit bounds: compiled as open-ended from
        // the analyzer's perspective? No: Arrow::Single defaults min=max=1.
        assert!(cy.contains("-[") && cy.contains("EVENT"), "{cy}");
        assert!(raptor_graphstore::cypher::parse_cypher(&cy).is_ok(), "{cy}");
    }

    #[test]
    fn giant_sql_covers_everything() {
        let (aq, now) = ctx_for(raptor_tbql::parser::FIG2_QUERY);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let sql = giant_sql(&ctx).unwrap();
        // 9 entities + 8 event aliases in FROM.
        assert_eq!(sql.matches("events evt").count(), 8, "{sql}");
        assert!(sql.contains("SELECT DISTINCT p1.exename"), "{sql}");
        assert!(sql.contains("evt1.starttime < evt2.starttime"), "{sql}");
        assert!(raptor_relstore::sql::parse_select(&sql).is_ok(), "{sql}");
    }

    #[test]
    fn giant_sql_rejects_paths_and_ranges() {
        let (aq, now) = ctx_for("proc p ~>[read] file f return p, f");
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        assert!(giant_sql(&ctx).is_err());
        let (aq, now) = ctx_for(
            "proc p read file f as e1 proc p write file g as e2 with e1 before[0-5 min] e2 return f",
        );
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        assert!(giant_sql(&ctx).is_err());
    }

    #[test]
    fn giant_cypher_covers_everything() {
        let (aq, now) = ctx_for(raptor_tbql::parser::FIG2_QUERY);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let cy = giant_cypher(&ctx).unwrap();
        assert_eq!(cy.matches(":EVENT]").count(), 8, "{cy}");
        assert!(cy.contains("RETURN DISTINCT p1.exename"), "{cy}");
        // Entity filter appears once even though p1 is used twice.
        assert_eq!(cy.matches("p1.exename CONTAINS '/bin/tar'").count(), 1, "{cy}");
        assert!(raptor_graphstore::cypher::parse_cypher(&cy).is_ok(), "{cy}");
    }

    #[test]
    fn windows_compile() {
        let (aq, _) = ctx_for("proc p read file f as e1 last 2 h return f");
        let ctx = CompileCtx { aq: &aq, now_ns: 10_000_000_000_000, dict: SharedDict::new() };
        let sql = giant_sql(&ctx).unwrap();
        let cutoff = 10_000_000_000_000i64 - 7200 * 1_000_000_000;
        assert!(sql.contains(&format!("e1.starttime >= {cutoff}")), "{sql}");
    }

    #[test]
    fn string_escaping() {
        let (aq, now) = ctx_for(r#"proc p["%o'brien%"] read file f return f"#);
        let ctx = CompileCtx { aq: &aq, now_ns: now, dict: SharedDict::new() };
        let sql = giant_sql(&ctx).unwrap();
        assert!(sql.contains("'%o''brien%'"), "{sql}");
        assert!(raptor_relstore::sql::parse_select(&sql).is_ok(), "{sql}");
    }
}
