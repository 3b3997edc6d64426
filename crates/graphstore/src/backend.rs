//! The graph store's typed surface: the write seam ([`MutableBackend`]) and
//! one read, [`Graph::match_path_pattern`] — TBQL's `~>(m~n)[op]`.
//!
//! A request is compiled once into a `PathSpec`: labels, hop bounds and the
//! three predicates, lowered to Cypher WHERE expressions so that the
//! executor's evaluator ([`crate::cypher::exec`]) decides them and predicate
//! semantics cannot drift from the text frontend. It is bound per use:
//! `PathSpec::on` resolves labels, property keys and string literals to
//! symbols once per request (and once per frontier advance, since a later
//! epoch may be the first to intern a name), so the walk takes no
//! dictionary lock per node, edge or row. Matching then walks the adjacency
//! arrays; no query AST is built and nothing is parsed.
//!
//! Every shape is a *prefix* of `lo..=hi` EVENT hops from an anchor plus,
//! when the pattern constrains or returns its last event, one *final edge*.
//! A match is a distinct `(subject, object)` pair — or `(subject, object,
//! event)` when the event is wanted — joined by an edge-distinct prefix walk
//! within the bounds; the final edge is a segment of its own and may repeat
//! a prefix edge. Which nodes end such a prefix:
//!
//! * `lo <= 1`: exactly the nodes whose *shortest* walk from the anchor is
//!   at most `hi` long — a shortest walk repeats no vertex, hence no edge,
//!   and is at least one hop — so a bounded BFS finds them. The anchor ends
//!   its own prefix at depth 0 when `lo == 0`, and otherwise when a cycle
//!   through it is short enough, which the BFS sees as re-reaching it;
//! * `lo >= 2`: the residue, enumerated by the executor's own edge-distinct
//!   DFS (`cypher::exec::edge_distinct_walks`).
//!
//! `PathMatcher` is the one definition of "what `n` contributes for anchor
//! `a`"; this module's one-shot driver and [`crate::frontier`]'s incremental
//! one both call it.

use raptor_common::error::{Error, Result};
use raptor_common::intern::Sym;
use raptor_common::obs;
use raptor_storage::{
    dense_entity_id, BackendStats, EntityClass, Field, FieldValue, MutableBackend,
    PathPatternQuery, PatternMatches, Pred, Value as SVal,
};

use crate::cypher::ast::{CExpr, CLit, CmpRhs, PropRef, StrPredKind};
use crate::cypher::exec::{
    anchor_candidates, bind, edge_distinct_walks, eval, BindVal, BoundExpr, BoundShape,
    GraphQueryStats,
};
use crate::graph::{EdgeId, Graph, NodeId, PropValue};

pub fn label_for_class(class: EntityClass) -> &'static str {
    match class {
        EntityClass::File => "File",
        EntityClass::Process => "Process",
        EntityClass::NetConn => "NetConn",
    }
}

fn clit(v: &SVal) -> Result<CLit> {
    match v {
        SVal::Int(i) => Ok(CLit::Int(*i)),
        // Pre-interned: the executor evaluates the handle without a
        // dictionary lookup.
        SVal::Str(s) => Ok(CLit::Sym(*s)),
        SVal::Null => Err(Error::semantic("NULL literals are not valid in predicates")),
    }
}

fn prop(var: &str, attr: &str) -> PropRef {
    PropRef { var: var.to_string(), prop: attr.to_string() }
}

/// A typed `LIKE` keeps its pattern: the executor evaluates it with the
/// relational store's own matcher, so both stores select the same entities.
fn like_to_cexpr(var: &str, attr: &str, pattern: &str, negated: bool) -> CExpr {
    let pred = CExpr::StrPred {
        left: prop(var, attr),
        kind: StrPredKind::Like,
        needle: pattern.to_string(),
    };
    if negated {
        CExpr::Not(Box::new(pred))
    } else {
        pred
    }
}

/// Lowers a typed predicate to a Cypher WHERE expression over `var`.
fn pred_to_cexpr(var: &str, p: &Pred) -> Result<CExpr> {
    Ok(match p {
        Pred::Cmp { attr, op, value } => {
            CExpr::Cmp { left: prop(var, attr), op: *op, right: CmpRhs::Lit(clit(value)?) }
        }
        Pred::Like { attr, pattern, negated } => like_to_cexpr(var, attr, pattern, *negated),
        Pred::InSet { attr, negated, values } => {
            let base = CExpr::InList {
                left: prop(var, attr),
                list: values.iter().map(clit).collect::<Result<Vec<_>>>()?,
            };
            if *negated {
                CExpr::Not(Box::new(base))
            } else {
                base
            }
        }
        Pred::And(a, b) => {
            CExpr::And(Box::new(pred_to_cexpr(var, a)?), Box::new(pred_to_cexpr(var, b)?))
        }
        Pred::Or(a, b) => {
            CExpr::Or(Box::new(pred_to_cexpr(var, a)?), Box::new(pred_to_cexpr(var, b)?))
        }
        Pred::Not(inner) => CExpr::Not(Box::new(pred_to_cexpr(var, inner)?)),
    })
}

/// A path request compiled once; see the module doc for the shape.
pub(crate) struct PathSpec {
    subj_label: &'static str,
    obj_label: &'static str,
    /// The subject filter's top-level conjuncts (anchor selection looks for
    /// one an index can serve).
    subj_conds: Vec<CExpr>,
    obj_pred: Option<CExpr>,
    final_pred: Option<CExpr>,
    /// Propagated candidate ids, sorted and distinct.
    subj_ids: Option<Vec<i64>>,
    obj_ids: Option<Vec<i64>>,
    subject_is_object: bool,
    /// The pattern ends in a final edge (it constrains or returns one).
    pub(crate) has_final: bool,
    /// Prefix hop bounds. `lo == 0` makes every anchor a prefix endpoint.
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

impl PathSpec {
    pub(crate) fn compile(q: &PathPatternQuery) -> Result<PathSpec> {
        let lower =
            |var: &str, p: &Option<Pred>| p.as_ref().map(|p| pred_to_cexpr(var, p)).transpose();
        // One TBQL variable bound as both ends: the walk closes on its own
        // anchor, whose conditions the subject side already carries.
        let object = (!q.subject_is_object).then_some(&q.object);
        let has_final = q.want_event || q.final_hop_pred.is_some();
        // The final edge is one of the pattern's hops.
        let (min, max) = match has_final {
            true => (q.min_hops.saturating_sub(1), q.max_hops.map(|m| m.saturating_sub(1))),
            false => (q.min_hops, q.max_hops),
        };
        // `hop_cap` bounds a variable-length walk, never the fixed single hop.
        let single_hop = q.min_hops == 1 && q.max_hops == Some(1);
        let hi = if single_hop { min } else { max.unwrap_or(q.hop_cap).min(q.hop_cap) };
        Ok(PathSpec {
            subj_label: label_for_class(q.subject.class),
            obj_label: label_for_class(q.object.class),
            subj_conds: lower("s", &q.subject.filter)?.map(CExpr::conjuncts).unwrap_or_default(),
            obj_pred: object.map(|o| lower("o", &o.filter)).transpose()?.flatten(),
            final_pred: lower("e", &q.final_hop_pred)?,
            subj_ids: q.subject.id_in.clone(),
            obj_ids: object.and_then(|o| o.id_in.clone()),
            subject_is_object: q.subject_is_object,
            has_final,
            lo: min,
            hi,
        })
    }

    /// The spec bound to `g` as it is now: labels, keys and literals
    /// resolve to today's symbols (a name no record carries yet has none,
    /// and matches nothing). Each predicate names one variable, slot 0.
    pub(crate) fn on<'a>(&'a self, g: &'a Graph) -> PathMatcher<'a> {
        let dict = g.dict();
        let sym = |name| dict.get(name);
        let bind = |e| bind(dict, e, &|_| 0);
        PathMatcher {
            g,
            spec: self,
            subj: sym(self.subj_label),
            obj: sym(self.obj_label),
            event: sym("EVENT"),
            subj_conds: self.subj_conds.iter().map(bind).collect(),
            obj_pred: self.obj_pred.as_ref().map(bind),
            final_pred: self.final_pred.as_ref().map(bind),
            id: sym("id"),
            starttime: sym("starttime"),
            endtime: sym("endtime"),
        }
    }
}

/// A [`PathSpec`] bound to a graph: the endpoint and final-edge tests, and
/// what a prefix endpoint contributes.
pub(crate) struct PathMatcher<'a> {
    pub(crate) g: &'a Graph,
    pub(crate) spec: &'a PathSpec,
    subj: Option<Sym>,
    obj: Option<Sym>,
    event: Option<Sym>,
    subj_conds: Vec<BoundExpr<'a>>,
    obj_pred: Option<BoundExpr<'a>>,
    final_pred: Option<BoundExpr<'a>>,
    /// The keys of an event row's columns (events arrive in any order).
    id: Option<Sym>,
    starttime: Option<Sym>,
    endtime: Option<Sym>,
}

impl PathMatcher<'_> {
    /// The entity id of node `n`: its ordinal, since entity ids are dense
    /// and `insert_entity` appends them in order.
    pub(crate) fn entity_id(&self, n: NodeId) -> i64 {
        i64::from(n.0)
    }

    /// An event row's `(id, starttime, endtime)` (`-1` where one is missing).
    fn event_row(&self, e: EdgeId) -> (i64, i64, i64) {
        let int = |key: Option<Sym>| match key.and_then(|k| self.g.edge_prop_sym(e, k)) {
            Some(PropValue::Int(i)) => i,
            _ => -1,
        };
        (int(self.id), int(self.starttime), int(self.endtime))
    }

    /// Is `n` among the propagated candidates (if there are any)?
    fn listed(&self, ids: &Option<Vec<i64>>, n: NodeId) -> bool {
        ids.as_ref().is_none_or(|ids| ids.binary_search(&i64::from(n.0)).is_ok())
    }

    pub(crate) fn is_event(&self, e: EdgeId) -> bool {
        Some(self.g.edge(e).label) == self.event
    }

    /// Is `n` an anchor — a node the pattern's subject may bind?
    pub(crate) fn subject_ok(&self, n: NodeId) -> bool {
        Some(self.g.node(n).label) == self.subj
            && self.subj_conds.iter().all(|c| eval(self.g, c, &[BindVal::Node(n)]))
            && self.listed(&self.spec.subj_ids, n)
    }

    /// Does `n` qualify as the pattern's object for anchor `a`?
    pub(crate) fn object_ok(&self, n: NodeId, a: NodeId) -> bool {
        if self.spec.subject_is_object {
            return n == a;
        }
        Some(self.g.node(n).label) == self.obj
            && self.obj_pred.as_ref().is_none_or(|p| eval(self.g, p, &[BindVal::Node(n)]))
            && self.listed(&self.spec.obj_ids, n)
    }

    /// May `e` be the pattern's final edge?
    pub(crate) fn final_edge_ok(&self, e: EdgeId) -> bool {
        self.is_event(e)
            && self.final_pred.as_ref().is_none_or(|p| eval(self.g, p, &[BindVal::Edge(e)]))
    }

    /// Anchor `a`'s prefix ends at `n`: calls `hit(object, final edge)` for
    /// every match that makes — `n` itself, or the far end of each of `n`'s
    /// qualifying out-edges when the pattern has a final edge (one call per
    /// edge: the same object may come up more than once).
    pub(crate) fn matches_at(
        &self,
        n: NodeId,
        a: NodeId,
        mut hit: impl FnMut(NodeId, Option<EdgeId>),
    ) {
        if !self.spec.has_final {
            if self.object_ok(n, a) {
                hit(n, None);
            }
            return;
        }
        for &e in self.g.out_edges(n) {
            let dst = self.g.edge(e).dst;
            if self.final_edge_ok(e) && self.object_ok(dst, a) {
                hit(dst, Some(e));
            }
        }
    }

    /// The anchors: the propagated ids that are nodes with the subject's
    /// label, when there are any, or else the tightest access path the
    /// value indexes offer for the subject's conditions. `scanned` counts
    /// the candidates read — what either path returns.
    fn anchors(&self, scanned: &mut usize) -> Vec<NodeId> {
        let mut anchors = match &self.spec.subj_ids {
            Some(ids) => {
                let labelled = |n: &NodeId| Some(self.g.node(*n).label) == self.subj;
                ids.iter().filter_map(|&id| self.g.entity_node(id)).filter(labelled).collect()
            }
            None => {
                let conds: Vec<&BoundExpr<'_>> = self.subj_conds.iter().collect();
                let start = BoundShape::of_label(self.subj);
                anchor_candidates(self.g, &start, &conds, &mut GraphQueryStats::default())
            }
        };
        *scanned += anchors.len();
        anchors.retain(|&n| self.subject_ok(n));
        anchors
    }
}

/// Marks `n` with `stamp`; false if it already carried it. One mark array
/// serves every anchor of a request: anchor `i` stamps `i + 1`.
fn mark(marks: &mut [u32], stamp: u32, n: NodeId) -> bool {
    std::mem::replace(&mut marks[n.0 as usize], stamp) != stamp
}

impl Graph {
    /// Matches one (possibly variable-length) path pattern against the whole
    /// graph, on the calling thread. Rows are distinct by construction.
    pub fn match_path_pattern(
        &self,
        q: &PathPatternQuery,
        stats: &mut BackendStats,
    ) -> Result<PatternMatches> {
        let spec = PathSpec::compile(q)?;
        let m = spec.on(self);
        // One expansion span per path-pattern request.
        let mut sp = obs::span("graphstore.expand");
        let (mut nodes, mut edges) = (0usize, 0usize);
        let mut out = PatternMatches::with_capacity(0, q.want_event);
        // Per anchor: prefix endpoints reached, objects already paired.
        let mut reached_by = vec![0u32; self.node_count()];
        let mut paired_by = vec![0u32; self.node_count()];
        let mut reached: Vec<NodeId> = Vec::new();
        let mut queue: Vec<(NodeId, u32)> = Vec::new();
        for (i, a) in m.anchors(&mut nodes).into_iter().enumerate() {
            let stamp = i as u32 + 1;
            reached.clear();
            if spec.lo <= 1 {
                if spec.lo == 0 {
                    mark(&mut reached_by, stamp, a);
                    reached.push(a);
                }
                queue.clear();
                queue.push((a, 0));
                let mut head = 0;
                while let Some(&(n, depth)) = queue.get(head) {
                    head += 1;
                    if depth == spec.hi {
                        break;
                    }
                    for &e in self.out_edges(n) {
                        edges += 1;
                        let dst = self.edge(e).dst;
                        if m.is_event(e) && mark(&mut reached_by, stamp, dst) {
                            reached.push(dst);
                            // `a` re-reached through a cycle ends a prefix
                            // but was expanded already.
                            if dst != a {
                                queue.push((dst, depth + 1));
                            }
                        }
                    }
                }
            } else {
                edge_distinct_walks(
                    self,
                    a,
                    spec.lo,
                    spec.hi,
                    |e| m.is_event(e),
                    &mut edges,
                    |n| {
                        if mark(&mut reached_by, stamp, n) {
                            reached.push(n);
                        }
                    },
                );
            }
            let subj = m.entity_id(a);
            for &n in &reached {
                if spec.has_final {
                    edges += self.out_edges(n).len();
                }
                m.matches_at(n, a, |o, e| match e {
                    Some(e) if q.want_event => {
                        let (id, start, end) = m.event_row(e);
                        out.push_event(subj, m.entity_id(o), id, start, end)
                    }
                    _ => {
                        if mark(&mut paired_by, stamp, o) {
                            out.push_pair(subj, m.entity_id(o));
                        }
                    }
                });
            }
        }
        stats.data_queries += 1;
        stats.items_scanned += nodes;
        stats.items_built += out.len();
        stats.edges_traversed += edges;
        sp.attr("rows", out.len() as u64);
        sp.attr("edges", edges as u64);
        sp.attr("nodes", nodes as u64);
        Ok(out)
    }
}

impl MutableBackend for Graph {
    fn insert_entity(
        &mut self,
        class: EntityClass,
        id: i64,
        fields: &[Field<'_>],
        stats: &mut BackendStats,
    ) -> Result<()> {
        // Node ids are arena indexes; the trait contract (dense ascending
        // entity ids) is what keeps `NodeId == entity id` true, which every
        // edge insert and anchor lookup relies on.
        dense_entity_id(id, self.node_count())?;
        self.append_node(label_for_class(class), &[("id", FieldValue::Int(id))], fields);
        stats.items_inserted += 1;
        Ok(())
    }

    fn insert_event(
        &mut self,
        id: i64,
        subject: i64,
        object: i64,
        fields: &[Field<'_>],
        stats: &mut BackendStats,
    ) -> Result<()> {
        let node = |id: i64| {
            self.entity_node(id)
                .ok_or_else(|| Error::storage(format!("event endpoint {id} is not a node")))
        };
        let (src, dst) = (node(subject)?, node(object)?);
        self.append_edge(src, dst, "EVENT", &[("id", FieldValue::Int(id))], fields)?;
        stats.items_inserted += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PropIns;
    use raptor_common::intern::SharedDict;
    use raptor_storage::EntitySel;

    /// tar→passwd (read), tar→upload.tar (write), curl→upload.tar (read),
    /// curl→ip (connect).
    fn audit_graph() -> Graph {
        let mut g = Graph::new();
        let tar = g
            .add_node("Process", &[("id", PropIns::Int(0)), ("exename", PropIns::Str("/bin/tar"))]);
        let curl = g.add_node(
            "Process",
            &[("id", PropIns::Int(1)), ("exename", PropIns::Str("/usr/bin/curl"))],
        );
        let passwd =
            g.add_node("File", &[("id", PropIns::Int(2)), ("name", PropIns::Str("/etc/passwd"))]);
        let uptar = g.add_node(
            "File",
            &[("id", PropIns::Int(3)), ("name", PropIns::Str("/tmp/upload.tar"))],
        );
        let ip = g.add_node(
            "NetConn",
            &[("id", PropIns::Int(4)), ("dstip", PropIns::Str("192.168.29.128"))],
        );
        let mut t = 0;
        let mut ev = |g: &mut Graph, s, d, eid: i64, op: &str| {
            t += 100;
            g.add_edge(
                s,
                d,
                "EVENT",
                &[
                    ("id", PropIns::Int(eid)),
                    ("optype", PropIns::Str(op)),
                    ("starttime", PropIns::Int(t)),
                    ("endtime", PropIns::Int(t + 10)),
                ],
            )
            .unwrap();
        };
        ev(&mut g, tar, passwd, 10, "read");
        ev(&mut g, tar, uptar, 11, "write");
        ev(&mut g, curl, uptar, 12, "read");
        ev(&mut g, curl, ip, 13, "connect");
        g.create_node_index("Process", "exename");
        g
    }

    fn op_eq(g: &Graph, name: &str) -> Pred {
        Pred::Cmp {
            attr: "optype".into(),
            op: raptor_storage::CmpOp::Eq,
            value: SVal::Str(g.dict().intern(name)),
        }
    }

    /// `subject ~>(0~0) subject`: every anchor pairs with itself, so the
    /// rows are the subject selection.
    fn selected(g: &Graph, subject: EntitySel) -> Vec<i64> {
        let q = PathPatternQuery {
            object: EntitySel::of(subject.class, None),
            subject,
            min_hops: 0,
            max_hops: Some(0),
            hop_cap: 8,
            final_hop_pred: None,
            want_event: false,
            subject_is_object: false,
        };
        let mut stats = BackendStats::default();
        let m = g.match_path_pattern(&q, &mut stats).unwrap();
        assert_eq!((stats.data_queries, stats.text_parses), (1, 0));
        assert_eq!(m.subj, m.obj);
        let mut ids = m.subj;
        ids.sort_unstable();
        ids
    }

    /// A typed LIKE selects what `like_match` selects — interior `%` and
    /// `_` included — through the value index and through a label scan.
    #[test]
    fn candidates_are_exact_like() {
        use raptor_common::like::like_match;
        let g = audit_graph();
        let exes = ["/bin/tar", "/usr/bin/curl"];
        let files = ["/etc/passwd", "/tmp/upload.tar"];
        // The first used to be CONTAINS '/upload'; `_` used to be a literal.
        for pattern in [
            "%/etc/%/upload%",
            "%/usr/%/curl%",
            "/bin/t_r",
            "%c_rl",
            "%up_oad%",
            "/%/%",
            "%",
            "_%r",
            "tar",
        ] {
            for (class, attr, ids, names) in [
                (EntityClass::Process, "exename", [0, 1], exes),
                (EntityClass::File, "name", [2, 3], files),
            ] {
                for negated in [false, true] {
                    let like = Pred::Like { attr: attr.into(), pattern: pattern.into(), negated };
                    let got = selected(&g, EntitySel::of(class, Some(like)));
                    let want: Vec<i64> = (ids.into_iter().zip(names))
                        .filter(|(_, name)| like_match(pattern, name) != negated)
                        .map(|(id, _)| id)
                        .collect();
                    assert_eq!(got, want, "{attr} {negated} LIKE {pattern}");
                }
            }
        }
        // `=` / `!=` against a string holding `%` compare the string.
        for (op, want) in
            [(raptor_storage::CmpOp::Eq, vec![]), (raptor_storage::CmpOp::Ne, vec![0, 1])]
        {
            let bin = SVal::Str(g.dict().intern("%bin%"));
            let cmp = Pred::Cmp { attr: "exename".into(), op, value: bin };
            assert_eq!(selected(&g, EntitySel::of(EntityClass::Process, Some(cmp))), want);
        }
    }

    /// The bound evaluator's semantics, pinned through both drivers: each
    /// case selects processes as a typed request and as Cypher text, over a
    /// fresh graph, so the text's literals are unseen unless a record
    /// carries them. Names intern in reverse order of content (`c`, `b`,
    /// `a`), so symbol order is not string order.
    #[test]
    fn bound_evaluator_semantics_agree_across_drivers() {
        use crate::cypher::{exec::execute, parse_cypher};
        use raptor_storage::CmpOp::{self, *};
        fn graph() -> Graph {
            let mut g = Graph::new();
            for (id, name, pid) in [(0, "c", 30), (1, "b", 20), (2, "a", 10)] {
                let props = [
                    ("id", PropIns::Int(id)),
                    ("name", PropIns::Str(name)),
                    ("pid", PropIns::Int(pid)),
                ];
                g.add_node("Process", &props);
            }
            // Carries no `name`.
            g.add_node("Process", &[("id", PropIns::Int(3)), ("pid", PropIns::Int(40))]);
            g
        }
        enum Lit {
            I(i64),
            S(&'static str),
        }
        enum Test {
            Cmp(CmpOp, Lit),
            In(bool, &'static [&'static str]),
        }
        use Lit::{I, S};
        use Test::{Cmp, In};
        let pred = |d: &SharedDict, attr: &str, test: &Test| match test {
            Cmp(op, lit) => Pred::Cmp {
                attr: attr.into(),
                op: *op,
                value: match lit {
                    I(i) => SVal::Int(*i),
                    S(s) => SVal::Str(d.intern(s)),
                },
            },
            In(negated, lits) => Pred::InSet {
                attr: attr.into(),
                negated: *negated,
                values: lits.iter().map(|s| SVal::Str(d.intern(s))).collect(),
            },
        };
        // (Cypher condition, typed attribute and test, selected ids)
        let cases: [(&str, &str, Test, &[i64]); 31] = [
            // An unseen string: `=` is false, `<>` holds on strings only.
            ("s.name = 'zz'", "name", Cmp(Eq, S("zz")), &[]),
            ("s.name <> 'zz'", "name", Cmp(Ne, S("zz")), &[0, 1, 2]),
            ("s.pid <> 'zz'", "pid", Cmp(Ne, S("zz")), &[]),
            // A missing property satisfies no operator: node 3 has no
            // `name`, no node has `nokey`.
            ("s.name = 'a'", "name", Cmp(Eq, S("a")), &[2]),
            ("s.name <> 'a'", "name", Cmp(Ne, S("a")), &[0, 1]),
            // `=` and `<>` between distinct symbols, at both ends of the order.
            ("s.name = 'c'", "name", Cmp(Eq, S("c")), &[0]),
            ("s.name <> 'c'", "name", Cmp(Ne, S("c")), &[1, 2]),
            ("s.name IN ['c', 'a']", "name", In(false, &["c", "a"]), &[0, 2]),
            ("s.nokey = 'a'", "nokey", Cmp(Eq, S("a")), &[]),
            ("s.nokey <> 'a'", "nokey", Cmp(Ne, S("a")), &[]),
            ("s.nokey < 1", "nokey", Cmp(Lt, I(1)), &[]),
            ("s.nokey <= 1", "nokey", Cmp(Le, I(1)), &[]),
            ("s.nokey > 1", "nokey", Cmp(Gt, I(1)), &[]),
            ("s.nokey >= 1", "nokey", Cmp(Ge, I(1)), &[]),
            ("s.nokey IN ['a']", "nokey", In(false, &["a"]), &[]),
            // `Int` against `Str` is false under every operator.
            ("s.pid = 'a'", "pid", Cmp(Eq, S("a")), &[]),
            ("s.pid <> 'a'", "pid", Cmp(Ne, S("a")), &[]),
            ("s.name = 10", "name", Cmp(Eq, I(10)), &[]),
            ("s.name <> 10", "name", Cmp(Ne, I(10)), &[]),
            ("s.name < 10", "name", Cmp(Lt, I(10)), &[]),
            ("s.pid >= 'a'", "pid", Cmp(Ge, S("a")), &[]),
            // `IN` with an unseen literal matches the literals that exist.
            ("s.name IN ['zz', 'a']", "name", In(false, &["zz", "a"]), &[2]),
            ("s.name IN ['zz']", "name", In(false, &["zz"]), &[]),
            ("NOT s.name IN ['zz', 'a']", "name", In(true, &["zz", "a"]), &[0, 1, 3]),
            // Strings order by content, not by symbol number.
            ("s.name < 'b'", "name", Cmp(Lt, S("b")), &[2]),
            ("s.name <= 'b'", "name", Cmp(Le, S("b")), &[1, 2]),
            ("s.name > 'b'", "name", Cmp(Gt, S("b")), &[0]),
            ("s.name >= 'b'", "name", Cmp(Ge, S("b")), &[0, 1]),
            // `c` has the lowest symbol and the highest content, `a` the
            // reverse.
            ("s.name < 'c'", "name", Cmp(Lt, S("c")), &[1, 2]),
            ("s.name > 'a'", "name", Cmp(Gt, S("a")), &[0, 1]),
            ("s.pid > 15", "pid", Cmp(Gt, I(15)), &[0, 1, 3]),
        ];
        for (cond, attr, test, want) in cases {
            let g = graph();
            let (c, b) = (g.dict().get("c").unwrap(), g.dict().get("b").unwrap());
            assert!(c < b, "`c` interns before `b`");
            let text = format!("MATCH (s:Process) WHERE {cond} RETURN s.id");
            let r = execute(&g, &parse_cypher(&text).unwrap(), 8).unwrap();
            let ids = &r.batch.cols[0];
            let mut by_text: Vec<i64> =
                (0..ids.len()).map(|i| ids.get(i).as_int().unwrap()).collect();
            by_text.sort_unstable();
            let filter = pred(g.dict(), attr, &test);
            let typed = selected(&g, EntitySel::of(EntityClass::Process, Some(filter)));
            assert_eq!(by_text, want, "text: {cond}");
            assert_eq!(typed, want, "typed: {cond}");
        }
    }

    /// `subject -> file`, the event returned: an event pattern.
    fn single_hop(subject: EntitySel, op: Option<Pred>) -> PathPatternQuery {
        PathPatternQuery {
            subject,
            object: EntitySel::of(EntityClass::File, None),
            min_hops: 1,
            max_hops: Some(1),
            hop_cap: 8,
            final_hop_pred: op,
            want_event: true,
            subject_is_object: false,
        }
    }

    #[test]
    fn event_pattern_on_graph() {
        let g = audit_graph();
        let mut stats = BackendStats::default();
        let q = single_hop(EntitySel::of(EntityClass::Process, None), Some(op_eq(&g, "read")));
        let m = g.match_path_pattern(&q, &mut stats).unwrap();
        assert_eq!(m.len(), 2);
        assert!(m.has_event);
        assert!(m.evt.contains(&10) && m.evt.contains(&12));
    }

    #[test]
    fn variable_length_path_with_final_hop() {
        let g = audit_graph();
        let mut stats = BackendStats::default();
        // tar ~>(1~2)[read] file: the graph is bipartite (no out-edges from
        // files), so with the subject pinned to tar only the direct read of
        // /etc/passwd matches.
        let q = PathPatternQuery {
            subject: EntitySel::of(
                EntityClass::Process,
                Some(Pred::Like {
                    attr: "exename".into(),
                    pattern: "%tar%".into(),
                    negated: false,
                }),
            ),
            object: EntitySel::of(EntityClass::File, None),
            min_hops: 1,
            max_hops: Some(2),
            hop_cap: 8,
            final_hop_pred: Some(op_eq(&g, "read")),
            want_event: true,
            subject_is_object: false,
        };
        let m = g.match_path_pattern(&q, &mut stats).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!((m.subj[0], m.obj[0], m.evt[0]), (0, 2, 10));
    }

    #[test]
    fn pure_path_without_event_binding() {
        let g = audit_graph();
        let mut stats = BackendStats::default();
        let q = PathPatternQuery {
            subject: EntitySel::of(EntityClass::Process, None),
            object: EntitySel::of(EntityClass::NetConn, None),
            min_hops: 1,
            max_hops: None,
            hop_cap: 8,
            final_hop_pred: None,
            want_event: false,
            subject_is_object: false,
        };
        let m = g.match_path_pattern(&q, &mut stats).unwrap();
        assert_eq!(m.len(), 1);
        assert!(!m.has_event);
        assert_eq!((m.subj[0], m.obj[0], m.evt[0]), (1, 4, -1));
    }

    /// An endpoint id past `u32` would wrap to a node that exists (`1 << 32`
    /// to node 0) and pass `append_edge`'s bounds check: it is refused
    /// before narrowing, like any id that is not a node.
    #[test]
    fn out_of_range_event_endpoint_is_refused() {
        use raptor_common::error::ErrorKind;
        let mut g = audit_graph();
        let edges = g.edge_count();
        let mut stats = BackendStats::default();
        for (s, o) in [(1i64 << 32, 2), (0, (1 << 32) + 2), (-1, 2), (0, 5)] {
            let err = g.insert_event(99, s, o, &[], &mut stats).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Storage, "{s} -> {o}: {err}");
        }
        assert_eq!(g.edge_count(), edges);
        assert_eq!(stats.items_inserted, 0);
    }

    #[test]
    fn propagated_ids_anchor() {
        let g = audit_graph();
        let mut stats = BackendStats::default();
        let mut subject = EntitySel::of(EntityClass::Process, None);
        // Node 2 is a file and 9 is no node: only process 1 is an anchor,
        // and the only candidate read.
        subject.id_in = Some(vec![1, 2, 9]);
        let m = g.match_path_pattern(&single_hop(subject, None), &mut stats).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.subj[0], 1);
        assert_eq!(stats.items_scanned, 1);
    }
}
