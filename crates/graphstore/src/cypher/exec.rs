//! Cypher execution.
//!
//! Pipeline: for each path pattern (in MATCH order) — anchor the start node
//! (bound variable, indexed property lookup, class scan, or full scan),
//! then extend bindings along each relationship segment (fixed-length via
//! adjacency, variable-length via bounded DFS with edge-distinctness) —
//! applying WHERE conjuncts as soon as all their variables are bound,
//! then gather each RETURN item into a column of a `ResultBatch`, and
//! apply DISTINCT and LIMIT to the batch. Patterns, conjuncts and
//! RETURN items are bound once per query (`bind`), so the walk resolves
//! no name.
//!
//! The graph is a view of the relational rows ([`Topology`], resolved once
//! per query): a node's out-edges are its `events.subject` posting, and
//! every property is a cell. A label binds to an entity class (`EVENT` to
//! every edge), a key to its column in each class's table and in `events`,
//! and an anchor's index lookup reads the relational store's hash index on
//! that column. A NULL cell and a key outside a class's schema both read
//! as a missing property.

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashMap;
use raptor_common::intern::SharedDict;
use raptor_relstore::exec::entity_ids;
use raptor_relstore::table::{RowId, Table};
use raptor_relstore::Database;
use raptor_storage::{EntityClass, ResultBatch, Value};

use super::ast::*;
use crate::backend::{label_for_class, LABEL_EVENT};
use crate::graph::{EdgeId, NodeId, Topology};

/// Default hop cap for unbounded variable-length patterns (`[*]`, `[*2..]`).
pub const DEFAULT_MAX_HOPS: u32 = 8;

/// Execution counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct GraphQueryStats {
    pub nodes_scanned: usize,
    pub edges_traversed: usize,
    pub bindings_built: usize,
}

/// Query result: the projected columns, one per RETURN item. Strings stay
/// interned — the values are the shared plane's own, and the batch carries
/// the dictionary to render them.
#[derive(Clone, Debug)]
pub struct CypherResult {
    pub batch: ResultBatch,
    pub stats: GraphQueryStats,
}

/// What a binding slot holds.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(crate) enum BindVal {
    Unbound,
    Node(NodeId),
    Edge(EdgeId),
}

struct VarTable {
    slots: FxHashMap<String, usize>,
    count: usize,
}

impl VarTable {
    fn slot(&mut self, name: &str) -> usize {
        if let Some(&s) = self.slots.get(name) {
            return s;
        }
        let s = self.count;
        self.slots.insert(name.to_string(), s);
        self.count += 1;
        s
    }

    fn lookup(&self, name: &str) -> Result<usize> {
        self.slots
            .get(name)
            .copied()
            .ok_or_else(|| Error::semantic(format!("unknown variable `{name}`")))
    }
}

// --- binding: names resolve once per request, never per node, edge or row ---
//
// A label resolves to a class, a key to its columns, and a string literal
// through `SharedDict::get`, which takes the dictionary's read lock. [`bind`]
// does that once per request; a string no record carries binds to `None`,
// and [`eval`] reads the bound form without touching the dictionary's map.

/// A key bound to the rows: its column in each class's table and in
/// `events`, `None` where the schema has none.
#[derive(Clone, Copy)]
pub(crate) struct Cols<'a> {
    node: [Option<(&'a Table, usize)>; EntityClass::ALL.len()],
    edge: Option<(&'a Table, usize)>,
}

impl<'a> Cols<'a> {
    fn bind(db: &'a Database, key: &str) -> Cols<'a> {
        let col =
            |table: &str| db.table(table).and_then(|t| Some((t, t.schema.column_index(key)?)));
        Cols { node: EntityClass::ALL.map(|c| col(c.table_name())), edge: col("events") }
    }

    /// Node `n`'s cell, NULL where its class has no such column.
    fn node(&self, g: &Topology<'_>, n: NodeId) -> Value {
        let node = g.node(n);
        self.node[node.class as usize].map_or(Value::Null, |(t, c)| t.cell(node.row, c))
    }

    /// Edge `e`'s cell: its `events` row's.
    fn edge(&self, e: EdgeId) -> Value {
        self.edge.map_or(Value::Null, |(t, c)| t.cell(e.0, c))
    }
}

/// `var.prop` bound: the variable's binding slot and the key's columns.
#[derive(Clone, Copy)]
pub(crate) struct BoundProp<'a> {
    slot: usize,
    cols: Cols<'a>,
}

impl BoundProp<'_> {
    /// The property under `binding`; NULL when it is missing.
    fn read(&self, g: &Topology<'_>, binding: &[BindVal]) -> Value {
        match binding[self.slot] {
            BindVal::Node(n) => self.cols.node(g, n),
            BindVal::Edge(e) => self.cols.edge(e),
            BindVal::Unbound => Value::Null,
        }
    }
}

/// A WHERE expression bound by [`bind`]. A string literal is the value it
/// would be stored as, `None` when no record carries it; an `IN` list keeps
/// only the literals some record carries.
pub(crate) enum BoundExpr<'a> {
    Cmp { left: BoundProp<'a>, op: COp, right: BoundRhs<'a> },
    StrPred { left: BoundProp<'a>, kind: StrPredKind, needle: &'a str },
    InList { left: BoundProp<'a>, list: Vec<Value> },
    And(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    Or(Box<BoundExpr<'a>>, Box<BoundExpr<'a>>),
    Not(Box<BoundExpr<'a>>),
}

pub(crate) enum BoundRhs<'a> {
    Lit(Option<Value>),
    Prop(BoundProp<'a>),
}

fn bind_lit(dict: &SharedDict, lit: &CLit) -> Option<Value> {
    match lit {
        CLit::Int(i) => Some(Value::Int(*i)),
        CLit::Str(s) => dict.get(s).map(Value::Str),
    }
}

fn bind_prop<'a>(db: &'a Database, p: &PropRef, slot: &impl Fn(&str) -> usize) -> BoundProp<'a> {
    BoundProp { slot: slot(&p.var), cols: Cols::bind(db, &p.prop) }
}

/// Binds `e`; `slot` gives each variable's binding slot.
fn bind<'a>(db: &'a Database, e: &'a CExpr, slot: &impl Fn(&str) -> usize) -> BoundExpr<'a> {
    let sub = |e: &'a CExpr| Box::new(bind(db, e, slot));
    match e {
        CExpr::Cmp { left, op, right } => BoundExpr::Cmp {
            left: bind_prop(db, left, slot),
            op: *op,
            right: match right {
                CmpRhs::Lit(lit) => BoundRhs::Lit(bind_lit(db.dict(), lit)),
                CmpRhs::Prop(p) => BoundRhs::Prop(bind_prop(db, p, slot)),
            },
        },
        CExpr::StrPred { left, kind, needle } => {
            BoundExpr::StrPred { left: bind_prop(db, left, slot), kind: *kind, needle }
        }
        CExpr::InList { left, list } => BoundExpr::InList {
            left: bind_prop(db, left, slot),
            list: list.iter().filter_map(|lit| bind_lit(db.dict(), lit)).collect(),
        },
        CExpr::And(a, b) => BoundExpr::And(sub(a), sub(b)),
        CExpr::Or(a, b) => BoundExpr::Or(sub(a), sub(b)),
        CExpr::Not(inner) => BoundExpr::Not(sub(inner)),
    }
}

/// Decides a bound WHERE expression under `binding`. A missing property
/// satisfies no operator, an `Int` never compares with a `Str`, strings
/// order by content, and a string no record carries satisfies only `<>`,
/// and only against a string.
fn eval(g: &Topology<'_>, dict: &SharedDict, e: &BoundExpr<'_>, binding: &[BindVal]) -> bool {
    match e {
        BoundExpr::Cmp { left, op, right } => {
            let lv = left.read(g, binding);
            let rv = match right {
                BoundRhs::Lit(Some(v)) => *v,
                BoundRhs::Lit(None) => return *op == COp::Ne && matches!(lv, Value::Str(_)),
                BoundRhs::Prop(p) => p.read(g, binding),
            };
            use std::cmp::Ordering::*;
            let ord = match (lv, rv) {
                (Value::Int(a), Value::Int(b)) => a.cmp(&b),
                (Value::Str(a), Value::Str(b)) => match op {
                    // One dictionary: two symbols are equal exactly when
                    // their strings are, so only an ordering reads them.
                    COp::Eq | COp::Ne => a.cmp(&b),
                    _ => dict.resolve(a).cmp(dict.resolve(b)),
                },
                // A missing side, or `Int` against `Str`.
                _ => return false,
            };
            match op {
                COp::Eq => ord == Equal,
                COp::Ne => ord != Equal,
                COp::Lt => ord == Less,
                COp::Le => ord != Greater,
                COp::Gt => ord == Greater,
                COp::Ge => ord != Less,
            }
        }
        BoundExpr::StrPred { left, kind, needle } => {
            let Value::Str(sym) = left.read(g, binding) else { return false };
            kind.holds(dict.resolve(sym), needle)
        }
        // The list holds no NULL, so a missing property is in no list.
        BoundExpr::InList { left, list } => list.contains(&left.read(g, binding)),
        BoundExpr::And(a, b) => eval(g, dict, a, binding) && eval(g, dict, b, binding),
        BoundExpr::Or(a, b) => eval(g, dict, a, binding) || eval(g, dict, b, binding),
        BoundExpr::Not(inner) => !eval(g, dict, inner, binding),
    }
}

/// A node or relationship pattern's label and property map, bound. A node
/// pattern's label is a class (`Some(None)`: a label no class has); a
/// relationship's `EVENT` admits every edge, like no label, and any other
/// label binds to `Some(None)`. A `None` literal is a string no record
/// carries.
struct BoundShape<'a> {
    label: Option<Option<EntityClass>>,
    props: Vec<(Cols<'a>, Option<Value>)>,
}

impl<'a> BoundShape<'a> {
    fn bind(
        db: &'a Database,
        label: Option<Option<EntityClass>>,
        props: &[(String, CLit)],
    ) -> BoundShape<'a> {
        let props = props.iter().map(|(k, lit)| (Cols::bind(db, k), bind_lit(db.dict(), lit)));
        BoundShape { label, props: props.collect() }
    }

    fn node_pattern(db: &'a Database, p: &NodePattern) -> BoundShape<'a> {
        let class = |l: &String| EntityClass::ALL.into_iter().find(|&c| label_for_class(c) == l);
        Self::bind(db, p.label.as_ref().map(class), &p.props)
    }

    fn rel_pattern(db: &'a Database, p: &RelPattern) -> BoundShape<'a> {
        let label = p.label.as_deref().filter(|&l| l != LABEL_EVENT).map(|_| None);
        Self::bind(db, label, &p.props)
    }

    /// Does every property of the map equal its literal?
    fn props_hold(&self, cell: impl Fn(&Cols<'a>) -> Value) -> bool {
        self.props.iter().all(|(cols, v)| v.is_some_and(|v| cell(cols) == v))
    }

    fn node(&self, g: &Topology<'_>, n: NodeId) -> bool {
        self.label.is_none_or(|l| l == Some(g.node(n).class)) && self.props_hold(|c| c.node(g, n))
    }

    fn edge(&self, e: EdgeId) -> bool {
        self.label.is_none() && self.props_hold(|c| c.edge(e))
    }
}

/// Candidate anchors for a path start: the tightest access path available —
/// a hash index of the start class's table on a property-map key, then on
/// an indexable WHERE conjunct's key, then the class's rows, or every node
/// for a pattern without a label.
fn anchor_candidates(
    g: &Topology<'_>,
    db: &Database,
    pat: &BoundShape<'_>,
    extra: &[&BoundExpr<'_>],
    stats: &mut GraphQueryStats,
) -> Vec<NodeId> {
    let Some(label) = pat.label else {
        // Full scan.
        stats.nodes_scanned += g.node_count();
        return (0..g.node_count() as u32).map(NodeId).collect();
    };
    // A label no class has: no node has it.
    let Some(class) = label else { return Vec::new() };
    let (name, ci) = (class.table_name(), class as usize);
    let Some(ids) = db.table(name).and_then(|t| entity_ids(t).ok()) else { return Vec::new() };
    let mut out = Vec::new();
    let mut collect = |rows: &mut dyn Iterator<Item = RowId>| {
        out.extend(rows.filter_map(|r| g.entity_node(ids[r as usize])));
        stats.nodes_scanned += out.len();
    };
    let index = |cols: &Cols<'_>| db.hash_index(name, cols.node[ci]?.1);
    // 1. Indexed property-map equality.
    for (cols, v) in &pat.props {
        if let (Some(ix), Some(v)) = (index(cols), v) {
            collect(&mut ix.get(*v).iter().copied());
            return out;
        }
    }
    // 2. Indexed WHERE conjuncts on this variable (= / IN / CONTAINS /
    //    STARTS WITH / ENDS WITH against the column's distinct strings).
    for e in extra {
        match e {
            BoundExpr::Cmp { left, op: COp::Eq, right: BoundRhs::Lit(v) } => {
                if let Some(ix) = index(&left.cols) {
                    // A literal string unseen in the store: no node matches.
                    collect(&mut v.map_or(&[][..], |v| ix.get(v)).iter().copied());
                    return out;
                }
            }
            BoundExpr::InList { left, list } => {
                // `p.name IN [..]` — an `IN` list in Cypher text (GiantCypher's).
                match index(&left.cols) {
                    Some(ix) => {
                        collect(&mut list.iter().flat_map(|&v| ix.get(v)).copied());
                        return out;
                    }
                    // No literal some record carries: nothing matches.
                    None if list.is_empty() => return out,
                    None => {}
                }
            }
            BoundExpr::StrPred { left, kind, needle } => {
                if let Some(ix) = index(&left.cols) {
                    let dict = db.dict();
                    let hits = ix.syms().filter(|&s| kind.holds(dict.resolve(s), needle));
                    collect(&mut hits.flat_map(|s| ix.get(Value::Str(s))).copied());
                    return out;
                }
            }
            _ => {}
        }
    }
    // 3. Class scan: every row of the class's table.
    collect(&mut (0..ids.len() as RowId));
    out
}

/// Runs a parsed query over the graph, reading every property from `db`'s
/// rows.
pub fn execute(db: &Database, q: &CypherQuery, max_hops: u32) -> Result<CypherResult> {
    let g = &Topology::of(db)?;
    let dict = db.dict();
    let mut stats = GraphQueryStats::default();
    let mut vars = VarTable { slots: FxHashMap::default(), count: 0 };

    // Pre-assign slots for all named pattern variables, in appearance order.
    for path in &q.paths {
        if let Some(v) = &path.start.var {
            vars.slot(v);
        }
        for (rel, node) in &path.segments {
            if let Some(v) = &rel.var {
                if rel.range.is_some() {
                    return Err(Error::semantic(format!(
                        "variable `{v}` binds a variable-length relationship; \
                         bind the final hop separately instead"
                    )));
                }
                vars.slot(v);
            }
            if let Some(v) = &node.var {
                vars.slot(v);
            }
        }
    }
    let nslots = vars.count;

    // Split WHERE into conjuncts; each applies once all its vars are bound.
    let conjuncts: Vec<CExpr> = q.where_clause.clone().map(|w| w.conjuncts()).unwrap_or_default();
    for c in &conjuncts {
        for v in c.vars() {
            vars.lookup(v)?; // fail fast on unknown vars
        }
    }
    for item in &q.return_items {
        vars.lookup(&item.prop.var)?;
    }
    let slot = |v: &str| vars.slots[v];
    let bound: Vec<BoundExpr<'_>> = conjuncts.iter().map(|c| bind(db, c, &slot)).collect();
    let returned: Vec<BoundProp<'_>> =
        q.return_items.iter().map(|item| bind_prop(db, &item.prop, &slot)).collect();
    let mut applied = vec![false; conjuncts.len()];
    let mut bound_names: Vec<String> = Vec::new();

    let mut bindings: Vec<Vec<BindVal>> = vec![vec![BindVal::Unbound; nslots]];

    for path in &q.paths {
        // --- anchor ---
        let start = BoundShape::node_pattern(db, &path.start);
        let start_slot = path.start.var.as_ref().map(|v| vars.slots[v.as_str()]);
        let bound_slot =
            start_slot.filter(|&s| bindings.first().is_some_and(|b| b[s] != BindVal::Unbound));
        let cursors: Vec<NodeId> = if let Some(slot) = bound_slot {
            // Filter existing bindings by the start pattern; they carry the
            // cursors.
            let mut cursors = Vec::with_capacity(bindings.len());
            bindings.retain(|b| match b[slot] {
                BindVal::Node(n) if start.node(g, n) => {
                    cursors.push(n);
                    true
                }
                _ => false,
            });
            cursors
        } else {
            // Anchor with WHERE conjuncts that reference only this new var.
            let var = path.start.var.as_deref();
            let extra: Vec<&BoundExpr<'_>> = conjuncts
                .iter()
                .zip(&bound)
                .filter(|(c, _)| var.is_some_and(|v| c.vars() == [v]))
                .map(|(_, b)| b)
                .collect();
            let mut candidates = anchor_candidates(g, db, &start, &extra, &mut stats);
            candidates.retain(|&n| start.node(g, n));
            let len = bindings.len() * candidates.len();
            let (mut next, mut cursors) = (Vec::with_capacity(len), Vec::with_capacity(len));
            for b in &bindings {
                for &n in &candidates {
                    let mut nb = b.clone();
                    // An anonymous start is carried by its cursor alone.
                    if let Some(s) = start_slot {
                        nb[s] = BindVal::Node(n);
                    }
                    next.push(nb);
                    cursors.push(n);
                }
            }
            bindings = next;
            cursors
        };
        extend_path(g, db, path, &mut bindings, cursors, &vars, max_hops, &mut stats);
        let segment_vars = path.segments.iter().flat_map(|(rel, node)| [&rel.var, &node.var]);
        for v in std::iter::once(&path.start.var).chain(segment_vars).flatten() {
            if !bound_names.contains(v) {
                bound_names.push(v.clone());
            }
        }
        for (i, c) in conjuncts.iter().enumerate() {
            if !applied[i] && c.vars().iter().all(|v| bound_names.iter().any(|b| b == v)) {
                bindings.retain(|b| eval(g, dict, &bound[i], b));
                applied[i] = true;
            }
        }
        stats.bindings_built += bindings.len();
    }

    // Any conjunct not yet applied references an unbound variable.
    if let Some(i) = applied.iter().position(|a| !a) {
        let c = &conjuncts[i];
        return Err(Error::semantic(format!(
            "WHERE references variable(s) {:?} never bound by MATCH",
            c.vars()
        )));
    }

    // --- projection ---
    let columns = q.return_items.iter().map(|item| item.prop.to_string()).collect();
    let cols = returned.iter().map(|p| bindings.iter().map(|b| p.read(g, b)).collect()).collect();
    let mut batch = ResultBatch::new(columns, cols, dict.clone());
    if q.distinct {
        batch.dedup_rows();
    }
    if let Some(n) = q.limit {
        batch.truncate(n);
    }
    Ok(CypherResult { batch, stats })
}

/// A relationship segment and its target node, bound.
struct Segment<'a> {
    range: LengthRange,
    rel: BoundShape<'a>,
    node: BoundShape<'a>,
    rel_slot: Option<usize>,
    node_slot: Option<usize>,
}

impl Segment<'_> {
    /// May `dst` end this segment under `binding`? If the target variable
    /// is already bound, it must be the same node.
    fn target_ok(&self, g: &Topology<'_>, binding: &[BindVal], dst: NodeId) -> bool {
        self.node.node(g, dst)
            && self.node_slot.is_none_or(|s| match binding[s] {
                BindVal::Node(existing) => existing == dst,
                BindVal::Edge(_) => false,
                BindVal::Unbound => true,
            })
    }
}

/// Extends one binding along one relationship segment, appending every
/// extension to `out_bindings`/`out_cursors` (in the deterministic
/// traversal order) and counting traversed edges into `edges`.
fn extend_one(
    g: &Topology<'_>,
    seg: &Segment<'_>,
    max_hops: u32,
    b: &[BindVal],
    cur: NodeId,
    out: (&mut Vec<Vec<BindVal>>, &mut Vec<NodeId>),
    edges: &mut usize,
) {
    let (out_bindings, out_cursors) = out;
    match seg.range {
        None => {
            for eid in g.out_edges(cur) {
                *edges += 1;
                if !seg.rel.edge(eid) {
                    continue;
                }
                let dst = g.edge(eid).dst;
                if !seg.target_ok(g, b, dst) {
                    continue;
                }
                let mut nb = b.to_vec();
                if let Some(s) = seg.rel_slot {
                    nb[s] = BindVal::Edge(eid);
                }
                if let Some(s) = seg.node_slot {
                    nb[s] = BindVal::Node(dst);
                }
                out_bindings.push(nb);
                out_cursors.push(dst);
            }
        }
        Some((min, max)) => {
            let min = min.unwrap_or(1);
            let max = max.unwrap_or(max_hops).min(max_hops);
            let edge_ok = |eid| seg.rel.edge(eid);
            edge_distinct_walks(g, cur, min, max, edge_ok, edges, |n| {
                if seg.target_ok(g, b, n) {
                    let mut nb = b.to_vec();
                    if let Some(s) = seg.node_slot {
                        nb[s] = BindVal::Node(n);
                    }
                    out_bindings.push(nb);
                    out_cursors.push(n);
                }
            });
        }
    }
}

/// Bounded DFS with edge-distinctness along the walk: calls `visit` with
/// the endpoint of every walk from `start` over `edge_ok` edges whose
/// length is in `min..=max` — once per walk, so an endpoint reached by
/// several walks is visited several times. `min == 0` admits the zero-hop
/// walk (`start` itself), which compiled `~>(1~n)` prefixes rely on. Every
/// out-edge examined is counted into `edges`.
pub(crate) fn edge_distinct_walks(
    g: &Topology<'_>,
    start: NodeId,
    min: u32,
    max: u32,
    edge_ok: impl Fn(EdgeId) -> bool,
    edges: &mut usize,
    mut visit: impl FnMut(NodeId),
) {
    let mut stack: Vec<(NodeId, u32, Vec<EdgeId>)> = vec![(start, 0, Vec::new())];
    while let Some((n, depth, used)) = stack.pop() {
        if depth >= min {
            visit(n);
        }
        if depth == max {
            continue;
        }
        for eid in g.out_edges(n) {
            *edges += 1;
            if used.contains(&eid) || !edge_ok(eid) {
                continue;
            }
            let mut used2 = used.clone();
            used2.push(eid);
            stack.push((g.edge(eid).dst, depth + 1, used2));
        }
    }
}

/// Extends `bindings` (with per-binding `cursors` at the current path
/// position) along every segment of `path`: one adjacency walk or bounded
/// DFS per binding, in binding order. Each segment is bound once.
#[allow(clippy::too_many_arguments)]
fn extend_path(
    g: &Topology<'_>,
    db: &Database,
    path: &PathPattern,
    bindings: &mut Vec<Vec<BindVal>>,
    mut cursors: Vec<NodeId>,
    vars: &VarTable,
    max_hops: u32,
    stats: &mut GraphQueryStats,
) {
    for (rel, node) in &path.segments {
        let seg = Segment {
            range: rel.range,
            rel: BoundShape::rel_pattern(db, rel),
            node: BoundShape::node_pattern(db, node),
            rel_slot: rel.var.as_ref().map(|v| vars.slots[v.as_str()]),
            node_slot: node.var.as_ref().map(|v| vars.slots[v.as_str()]),
        };
        let mut next_bindings = Vec::new();
        let mut next_cursors = Vec::new();
        for (b, &cur) in bindings.iter().zip(&cursors) {
            let out = (&mut next_bindings, &mut next_cursors);
            extend_one(g, &seg, max_hops, b, cur, out, &mut stats.edges_traversed);
        }
        *bindings = next_bindings;
        cursors = next_cursors;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cypher::parse_cypher;
    use crate::testkit::Stores;
    use raptor_relstore::ColumnType::{Int, Str};
    use raptor_storage::FieldValue;

    /// The Figure 2 chain: tar→passwd, tar→upload.tar, bzip2→upload.tar,
    /// bzip2→upload.tar.bz2, gpg→..., curl→ip.
    fn fig2_graph() -> Stores {
        let mut st = Stores::new(
            &[("exename", Str), ("pid", Int), ("name", Str), ("dstip", Str)],
            &[("optype", Str), ("starttime", Int)],
        );
        let mk_proc = |st: &mut Stores, exe: &str, pid: i64| {
            let fields = [("exename", FieldValue::Str(exe)), ("pid", FieldValue::Int(pid))];
            st.entity(EntityClass::Process, &fields)
        };
        let mk_file = |st: &mut Stores, name: &str| {
            st.entity(EntityClass::File, &[("name", FieldValue::Str(name))])
        };
        let tar = mk_proc(&mut st, "/bin/tar", 100);
        let bzip = mk_proc(&mut st, "/bin/bzip2", 101);
        let gpg = mk_proc(&mut st, "/usr/bin/gpg", 102);
        let curl = mk_proc(&mut st, "/usr/bin/curl", 103);
        let passwd = mk_file(&mut st, "/etc/passwd");
        let uptar = mk_file(&mut st, "/tmp/upload.tar");
        let upbz2 = mk_file(&mut st, "/tmp/upload.tar.bz2");
        let upload = mk_file(&mut st, "/tmp/upload");
        let ip = st.entity(EntityClass::NetConn, &[("dstip", FieldValue::Str("192.168.29.128"))]);
        let edges = [
            (tar, passwd, "read"),
            (tar, uptar, "write"),
            (bzip, uptar, "read"),
            (bzip, upbz2, "write"),
            (gpg, upbz2, "read"),
            (gpg, upload, "write"),
            (curl, upload, "read"),
            (curl, ip, "connect"),
        ];
        for (i, (s, d, op)) in edges.into_iter().enumerate() {
            let t = 100 * (i as i64 + 1);
            st.event(
                i as i64,
                s,
                d,
                &[("optype", FieldValue::Str(op)), ("starttime", FieldValue::Int(t))],
            );
        }
        st.db.create_hash_index("processes", "exename").unwrap();
        st.db.create_hash_index("files", "name").unwrap();
        st
    }

    /// A chain of files `a -> b -> c -> d` (and more edges as given) by name.
    fn named_files(names: &[&str], edges: &[(u32, u32)]) -> Stores {
        let mut st = Stores::new(&[("name", Str)], &[]);
        for name in names {
            st.entity(EntityClass::File, &[("name", FieldValue::Str(name))]);
        }
        for (i, &(a, b)) in edges.iter().enumerate() {
            st.event(i as i64, NodeId(a), NodeId(b), &[]);
        }
        st
    }

    fn run(st: &Stores, q: &str) -> Vec<Vec<String>> {
        let parsed = parse_cypher(q).unwrap();
        execute(&st.db, &parsed, DEFAULT_MAX_HOPS).unwrap().batch.rendered_rows()
    }

    #[test]
    fn single_pattern_with_contains() {
        let st = fig2_graph();
        let rows = run(
            &st,
            "MATCH (p:Process)-[e:EVENT {optype: 'read'}]->(f:File) \
             WHERE p.exename CONTAINS '/bin/tar' AND f.name CONTAINS '/etc/passwd' \
             RETURN DISTINCT p.exename, f.name",
        );
        assert_eq!(rows, vec![vec!["/bin/tar".to_string(), "/etc/passwd".to_string()]]);
    }

    #[test]
    fn shared_variable_joins_patterns() {
        let st = fig2_graph();
        // bzip2 reads upload.tar which tar wrote.
        let rows = run(
            &st,
            "MATCH (p1:Process)-[:EVENT {optype: 'write'}]->(f:File), \
                   (p2:Process)-[:EVENT {optype: 'read'}]->(f) \
             WHERE p1.exename CONTAINS 'tar' AND p2.exename CONTAINS 'bzip2' \
             RETURN p1.exename, p2.exename, f.name",
        );
        assert_eq!(
            rows,
            vec![vec![
                "/bin/tar".to_string(),
                "/bin/bzip2".to_string(),
                "/tmp/upload.tar".to_string()
            ]]
        );
    }

    #[test]
    fn temporal_where_between_edges() {
        let st = fig2_graph();
        let rows = run(
            &st,
            "MATCH (p:Process)-[e1:EVENT {optype:'read'}]->(f1:File), \
                   (p)-[e2:EVENT {optype:'write'}]->(f2:File) \
             WHERE e1.starttime < e2.starttime \
             RETURN p.exename, f1.name, f2.name",
        );
        // tar, bzip2, gpg each read-then-write.
        assert_eq!(rows.len(), 3);
    }

    #[test]
    fn var_length_path_reaches_transitively() {
        let st = fig2_graph();
        // passwd flows to upload in 6 hops through alternating file/proc?
        // Our edges all point proc→file, so walk from a file needs in-edges;
        // instead check proc→file 1-hop vs 2-hop caps.
        let rows = run(
            &st,
            "MATCH (p:Process)-[:EVENT*1..2]->(f:File) \
             WHERE p.exename CONTAINS 'tar' RETURN DISTINCT f.name",
        );
        // From /bin/tar: passwd and upload.tar at depth 1; no deeper edges
        // from files (graph is bipartite proc→{file,net}).
        let mut got: Vec<String> = rows.into_iter().map(|mut r| r.remove(0)).collect();
        got.sort();
        assert_eq!(got, vec!["/etc/passwd".to_string(), "/tmp/upload.tar".to_string()]);
    }

    #[test]
    fn var_length_respects_min() {
        let st = named_files(&["a", "b", "c", "d"], &[(0, 1), (1, 2), (2, 3)]);
        let rows = run(&st, "MATCH (x {name:'a'})-[:EVENT*2..3]->(y) RETURN y.name");
        let mut got: Vec<String> = rows.into_iter().map(|mut r| r.remove(0)).collect();
        got.sort();
        assert_eq!(got, vec!["c".to_string(), "d".to_string()]);
    }

    #[test]
    fn var_length_cycle_terminates() {
        let st = named_files(&["a", "b"], &[(0, 1), (1, 0)]);
        // Unbounded: must not loop forever; edge-distinctness caps at 2 hops.
        let rows = run(&st, "MATCH (x {name:'a'})-[:EVENT*]->(y) RETURN y.name");
        assert_eq!(rows.len(), 2); // b (1 hop), a (2 hops)
                                   // No edge carries another label.
        assert!(run(&st, "MATCH (x {name:'a'})-[:E*]->(y) RETURN y.name").is_empty());
    }

    /// A NULL cell fails every operator, exactly as a key outside the
    /// schema does, and `NOT` of either holds.
    #[test]
    fn null_cell_reads_as_missing_key() {
        let mut st = Stores::new(&[("name", Str), ("pid", Int)], &[]);
        st.entity(
            EntityClass::Process,
            &[("name", FieldValue::Str("a")), ("pid", FieldValue::Int(1))],
        );
        st.entity(EntityClass::Process, &[]);
        for cond in [
            "= 'a'",
            "<> 'a'",
            "< 'b'",
            "<= 'b'",
            "> ''",
            ">= ''",
            "= 1",
            "<> 1",
            "< 2",
            "IN ['a']",
            "CONTAINS 'a'",
            "STARTS WITH 'a'",
            "ENDS WITH 'a'",
        ] {
            for key in ["name", "pid", "nokey"] {
                let ids = |c: &str| {
                    let text = format!("MATCH (s:Process) WHERE {c} RETURN s.id");
                    let rows = run(&st, &text);
                    rows.into_iter().map(|mut r| r.remove(0)).collect::<Vec<_>>()
                };
                let hit = ids(&format!("s.{key} {cond}"));
                assert!(!hit.contains(&"1".to_string()), "s.{key} {cond} selected the NULL row");
                let miss = ids(&format!("NOT s.{key} {cond}"));
                assert!(miss.contains(&"1".to_string()), "NOT s.{key} {cond}");
            }
        }
    }

    #[test]
    fn connect_pattern_to_netconn() {
        let st = fig2_graph();
        let rows = run(
            &st,
            "MATCH (p:Process)-[:EVENT {optype:'connect'}]->(i:NetConn) \
             WHERE i.dstip = '192.168.29.128' RETURN p.exename",
        );
        assert_eq!(rows, vec![vec!["/usr/bin/curl".to_string()]]);
    }

    #[test]
    fn unknown_literal_string_matches_nothing() {
        let st = fig2_graph();
        let rows = run(
            &st,
            "MATCH (p:Process)-[:EVENT]->(f:File) WHERE p.exename = '/bin/absent' RETURN f.name",
        );
        assert!(rows.is_empty());
    }

    #[test]
    fn where_on_unbound_var_is_error() {
        let st = fig2_graph();
        let q = parse_cypher("MATCH (p:Process) WHERE z.name = 'x' RETURN p.exename").unwrap();
        assert!(execute(&st.db, &q, DEFAULT_MAX_HOPS).is_err());
    }

    #[test]
    fn varlen_rel_binding_rejected() {
        let st = fig2_graph();
        let q =
            parse_cypher("MATCH (p:Process)-[e:EVENT*1..2]->(f:File) RETURN p.exename").unwrap();
        let err = execute(&st.db, &q, DEFAULT_MAX_HOPS).unwrap_err();
        assert!(err.to_string().contains("variable-length"));
    }

    #[test]
    fn limit_and_distinct() {
        let st = fig2_graph();
        let rows =
            run(&st, "MATCH (p:Process)-[:EVENT]->(f:File) RETURN DISTINCT p.exename LIMIT 2");
        assert_eq!(rows.len(), 2);
    }

    #[test]
    fn in_list_where() {
        let st = fig2_graph();
        let rows = run(
            &st,
            "MATCH (p:Process)-[:EVENT]->(f:File) \
             WHERE p.exename IN ['/bin/tar', '/usr/bin/gpg'] RETURN DISTINCT p.exename",
        );
        assert_eq!(rows.len(), 2);
    }
}
