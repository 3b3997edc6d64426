//! The graph store's typed surface: the write seam ([`MutableBackend`]) and
//! one read, [`Graph::match_path_pattern`] — TBQL's `~>(m~n)[op]`.
//!
//! A request is compiled once into a `PathSpec`: labels, hop bounds and the
//! three predicates, lowered to Cypher WHERE expressions so that the
//! executor's evaluator ([`crate::cypher::exec`]) decides them and predicate
//! semantics cannot drift from the text frontend. Matching then walks the
//! adjacency arrays; no query AST is built and nothing is parsed.
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
use raptor_common::intern::{SharedDict, Sym};
use raptor_common::obs;
use raptor_storage::{
    BackendStats, EntityClass, Field, FieldValue, MutableBackend, PathPatternQuery, PatternMatches,
    Pred, Value as SVal,
};

use crate::cypher::ast::{CExpr, CLit, COp, CmpRhs, NodePattern, PropRef, StrPredKind};
use crate::cypher::exec::{
    anchor_candidates, edge_distinct_walks, eval_single_edge, eval_single_node, GraphQueryStats,
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

fn cop(op: raptor_storage::CmpOp) -> COp {
    match op {
        raptor_storage::CmpOp::Eq => COp::Eq,
        raptor_storage::CmpOp::Ne => COp::Ne,
        raptor_storage::CmpOp::Lt => COp::Lt,
        raptor_storage::CmpOp::Le => COp::Le,
        raptor_storage::CmpOp::Gt => COp::Gt,
        raptor_storage::CmpOp::Ge => COp::Ge,
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
fn pred_to_cexpr(var: &str, p: &Pred, dict: &SharedDict) -> Result<CExpr> {
    Ok(match p {
        Pred::Cmp { attr, op, value } => {
            // `= '%…%'` keeps LIKE semantics (defensive: the TBQL lowering
            // already emits `Pred::Like`).
            let wildcard = value.as_sym().map(|s| dict.resolve(s)).filter(|s| s.contains('%'));
            match (op, wildcard) {
                (raptor_storage::CmpOp::Eq, Some(s)) => like_to_cexpr(var, attr, s, false),
                (raptor_storage::CmpOp::Ne, Some(s)) => like_to_cexpr(var, attr, s, true),
                _ => CExpr::Cmp {
                    left: prop(var, attr),
                    op: cop(*op),
                    right: CmpRhs::Lit(clit(value)?),
                },
            }
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
        Pred::And(a, b) => CExpr::And(
            Box::new(pred_to_cexpr(var, a, dict)?),
            Box::new(pred_to_cexpr(var, b, dict)?),
        ),
        Pred::Or(a, b) => CExpr::Or(
            Box::new(pred_to_cexpr(var, a, dict)?),
            Box::new(pred_to_cexpr(var, b, dict)?),
        ),
        Pred::Not(inner) => CExpr::Not(Box::new(pred_to_cexpr(var, inner, dict)?)),
    })
}

fn id_in_cexpr(var: &str, ids: &[i64]) -> CExpr {
    // An empty candidate set must match nothing.
    let list = if ids.is_empty() {
        vec![CLit::Int(-1)]
    } else {
        ids.iter().map(|&i| CLit::Int(i)).collect()
    };
    CExpr::InList { left: prop(var, "id"), list }
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
    pub(crate) fn compile(q: &PathPatternQuery, dict: &SharedDict) -> Result<PathSpec> {
        let lower = |var: &str, p: &Option<Pred>| {
            p.as_ref().map(|p| pred_to_cexpr(var, p, dict)).transpose()
        };
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

    /// The spec over `g` as it is now: labels resolve to today's symbols (a
    /// label no record carries yet has none, and matches nothing).
    pub(crate) fn on<'a>(&'a self, g: &'a Graph) -> PathMatcher<'a> {
        let sym = |label| g.dict().get(label);
        PathMatcher {
            g,
            spec: self,
            subj: sym(self.subj_label),
            obj: sym(self.obj_label),
            event: sym("EVENT"),
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
}

impl PathMatcher<'_> {
    /// The entity id a node carries (`-1` if it has none).
    pub(crate) fn entity_id(&self, n: NodeId) -> i64 {
        match self.g.node_prop(n, "id") {
            Some(PropValue::Int(i)) => i,
            _ => -1,
        }
    }

    /// Is `n`'s entity id among the propagated candidates (if there are any)?
    fn listed(&self, ids: &Option<Vec<i64>>, n: NodeId) -> bool {
        ids.as_ref().is_none_or(|ids| ids.binary_search(&self.entity_id(n)).is_ok())
    }

    pub(crate) fn is_event(&self, e: EdgeId) -> bool {
        Some(self.g.edge(e).label) == self.event
    }

    /// Is `n` an anchor — a node the pattern's subject may bind?
    pub(crate) fn subject_ok(&self, n: NodeId) -> bool {
        Some(self.g.node(n).label) == self.subj
            && self.spec.subj_conds.iter().all(|c| eval_single_node(self.g, c, "s", n))
            && self.listed(&self.spec.subj_ids, n)
    }

    /// Does `n` qualify as the pattern's object for anchor `a`?
    pub(crate) fn object_ok(&self, n: NodeId, a: NodeId) -> bool {
        if self.spec.subject_is_object {
            return n == a;
        }
        Some(self.g.node(n).label) == self.obj
            && self.spec.obj_pred.as_ref().is_none_or(|p| eval_single_node(self.g, p, "o", n))
            && self.listed(&self.spec.obj_ids, n)
    }

    /// May `e` be the pattern's final edge?
    pub(crate) fn final_edge_ok(&self, e: EdgeId) -> bool {
        self.is_event(e)
            && self.spec.final_pred.as_ref().is_none_or(|p| eval_single_edge(self.g, p, "e", e))
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

    /// The anchors, through the tightest access path the value indexes offer
    /// for the subject's conditions; `scanned` counts the candidates read.
    fn anchors(&self, scanned: &mut usize) -> Vec<NodeId> {
        let start =
            NodePattern { var: None, label: Some(self.spec.subj_label.to_string()), props: vec![] };
        let id_in = self.spec.subj_ids.as_deref().map(|ids| id_in_cexpr("s", ids));
        let conds: Vec<&CExpr> = self.spec.subj_conds.iter().chain(&id_in).collect();
        let mut stats = GraphQueryStats::default();
        let mut anchors = anchor_candidates(self.g, &start, &conds, &mut stats);
        *scanned += stats.nodes_scanned;
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
        let spec = PathSpec::compile(q, self.dict())?;
        let m = spec.on(self);
        // One expansion span per path-pattern request.
        let mut sp = obs::span("graphstore.expand");
        let (mut nodes, mut edges) = (0usize, 0usize);
        let mut out = PatternMatches::with_capacity(0, q.want_event);
        let int = |e, key| match self.edge_prop(e, key) {
            Some(PropValue::Int(i)) => i,
            _ => -1,
        };
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
                    Some(e) if q.want_event => out.push_event(
                        subj,
                        m.entity_id(o),
                        int(e, "id"),
                        int(e, "starttime"),
                        int(e, "endtime"),
                    ),
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
        // edge insert and anchor lookup relies on. Check it loudly.
        if id != self.node_count() as i64 {
            return Err(Error::storage(format!(
                "entity id {id} breaks dense insertion order (next node id is {})",
                self.node_count()
            )));
        }
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
        if subject < 0 || object < 0 {
            return Err(Error::storage("event endpoints must be non-negative entity ids"));
        }
        self.append_edge(
            crate::graph::NodeId(subject as u32),
            crate::graph::NodeId(object as u32),
            "EVENT",
            &[("id", FieldValue::Int(id))],
            fields,
        )?;
        stats.items_inserted += 1;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::PropIns;
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
        g.create_node_index("Process", "id");
        g.create_node_index("File", "id");
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

    #[test]
    fn propagated_ids_anchor() {
        let g = audit_graph();
        let mut stats = BackendStats::default();
        let mut subject = EntitySel::of(EntityClass::Process, None);
        subject.id_in = Some(vec![1]);
        let m = g.match_path_pattern(&single_hop(subject, None), &mut stats).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.subj[0], 1);
    }
}
