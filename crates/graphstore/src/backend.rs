//! The typed [`StorageBackend`] implementation.
//!
//! Typed requests are lowered straight to the Cypher *AST*
//! ([`crate::cypher::ast`]) — the lexer/parser are never involved — and run
//! through the normal executor, sharing its anchor selection and traversal
//! machinery. Attribute fetches read the graph arenas directly.

use raptor_common::error::{Error, Result};
use raptor_common::hash::FxHashSet;
use raptor_common::intern::SharedDict;
use raptor_common::obs;
use raptor_storage::{
    AttrSource, BackendStats, EntityClass, EventPatternQuery, Field, FieldValue, MutableBackend,
    PathPatternQuery, PatternMatches, Pred, StorageBackend, Value as SVal,
};

use crate::cypher::ast::{
    CExpr, CLit, COp, CmpRhs, CypherQuery, NodePattern, PathPattern, PropRef, RelPattern,
    ReturnItem, StrPredKind,
};
use crate::cypher::exec::{execute, GraphQueryStats};
use crate::graph::{Graph, PropValue};

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
pub(crate) fn pred_to_cexpr(var: &str, p: &Pred, dict: &SharedDict) -> Result<CExpr> {
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

fn and_all(conds: Vec<CExpr>) -> Option<CExpr> {
    conds.into_iter().reduce(|a, b| CExpr::And(Box::new(a), Box::new(b)))
}

fn node(var: &str, class: EntityClass) -> NodePattern {
    NodePattern {
        var: Some(var.to_string()),
        label: Some(label_for_class(class).to_string()),
        props: vec![],
    }
}

fn ret(var: &str, attr: &str) -> ReturnItem {
    ReturnItem { prop: prop(var, attr) }
}

fn absorb_graph(stats: &mut BackendStats, g: &GraphQueryStats) {
    stats.items_scanned += g.nodes_scanned;
    stats.items_built += g.bindings_built;
    stats.edges_traversed += g.edges_traversed;
}

impl Graph {
    fn run_query(
        &self,
        q: &CypherQuery,
        hop_cap: u32,
        stats: &mut BackendStats,
    ) -> Result<Vec<Vec<SVal>>> {
        let r = execute(self, q, hop_cap)?;
        absorb_graph(stats, &r.stats);
        stats.data_queries += 1;
        Ok(r.rows)
    }

    /// Collects entity selection conditions shared by both pattern shapes.
    fn entity_conds(
        &self,
        sel: &raptor_storage::EntitySel,
        var: &str,
        conds: &mut Vec<CExpr>,
    ) -> Result<()> {
        if let Some(f) = &sel.filter {
            conds.push(pred_to_cexpr(var, f, self.dict())?);
        }
        if let Some(ids) = &sel.id_in {
            conds.push(id_in_cexpr(var, ids));
        }
        Ok(())
    }
}

impl StorageBackend for Graph {
    fn backend_name(&self) -> &'static str {
        "graph"
    }

    fn entity_candidates(
        &self,
        class: EntityClass,
        filter: &Pred,
        stats: &mut BackendStats,
    ) -> Result<Vec<i64>> {
        let q = CypherQuery {
            paths: vec![PathPattern { start: node("x", class), segments: vec![] }],
            where_clause: Some(pred_to_cexpr("x", filter, self.dict())?),
            distinct: true,
            return_items: vec![ret("x", "id")],
            limit: None,
        };
        let rows = self.run_query(&q, 1, stats)?;
        let mut ids: Vec<i64> = rows.iter().filter_map(|r| r[0].as_int()).collect();
        ids.sort_unstable();
        ids.dedup();
        Ok(ids)
    }

    fn match_event_pattern(
        &self,
        q: &EventPatternQuery,
        stats: &mut BackendStats,
    ) -> Result<PatternMatches> {
        let path = PathPatternQuery {
            subject: q.subject.clone(),
            object: q.object.clone(),
            min_hops: 1,
            max_hops: Some(1),
            hop_cap: 1,
            final_hop_pred: q.event_pred.clone(),
            want_event: true,
            subject_is_object: q.subject_is_object,
        };
        self.match_path_pattern(&path, stats)
    }

    fn match_path_pattern(
        &self,
        q: &PathPatternQuery,
        stats: &mut BackendStats,
    ) -> Result<PatternMatches> {
        // One TBQL variable bound as both subject and object: reuse the
        // start variable for the end node — the executor then requires the
        // path to close on the same entity (the text compiler got this from
        // the shared variable name).
        let obj_var = if q.subject_is_object { "s" } else { "o" };
        let mut conds: Vec<CExpr> = Vec::new();
        self.entity_conds(&q.subject, "s", &mut conds)?;
        if !q.subject_is_object {
            self.entity_conds(&q.object, obj_var, &mut conds)?;
        }

        let single_hop = q.min_hops == 1 && q.max_hops == Some(1);
        let mut segments: Vec<(RelPattern, NodePattern)> = Vec::new();
        let event_edge = |var: Option<&str>, range| RelPattern {
            var: var.map(str::to_string),
            label: Some("EVENT".to_string()),
            props: vec![],
            range,
        };
        // The edge variable is bound whenever the final hop carries a
        // predicate, but its event columns are *returned* only when the
        // caller wants them — otherwise results stay DISTINCT (subj, obj)
        // pairs and do not multiply per matching final edge.
        let bind_event = q.want_event || q.final_hop_pred.is_some();
        if bind_event {
            if let Some(p) = &q.final_hop_pred {
                conds.push(pred_to_cexpr("e", p, self.dict())?);
            }
            if single_hop {
                segments.push((event_edge(Some("e"), None), node(obj_var, q.object.class)));
            } else {
                // TBQL final-hop semantics: unconstrained prefix, then the
                // constrained last edge.
                let prefix_min = q.min_hops.saturating_sub(1);
                let prefix_max = q.max_hops.map(|m| m.saturating_sub(1));
                segments.push((
                    event_edge(None, Some((Some(prefix_min), prefix_max))),
                    NodePattern { var: None, label: None, props: vec![] },
                ));
                segments.push((event_edge(Some("e"), None), node(obj_var, q.object.class)));
            }
        } else if single_hop {
            segments.push((event_edge(None, None), node(obj_var, q.object.class)));
        } else {
            segments.push((
                event_edge(None, Some((Some(q.min_hops), q.max_hops))),
                node(obj_var, q.object.class),
            ));
        }

        let mut return_items = vec![ret("s", "id"), ret(obj_var, "id")];
        if q.want_event {
            return_items.push(ret("e", "id"));
            return_items.push(ret("e", "starttime"));
            return_items.push(ret("e", "endtime"));
        }
        let cq = CypherQuery {
            paths: vec![PathPattern { start: node("s", q.subject.class), segments }],
            where_clause: and_all(conds),
            distinct: true,
            return_items,
            limit: None,
        };
        // One expansion span per path-pattern request (internal frontier
        // partitioning stays invisible: counts are thread-count invariant).
        let rows = {
            let mut sp = obs::span("graphstore.expand");
            let before = *stats;
            let rows = self.run_query(&cq, q.hop_cap, stats)?;
            sp.attr("rows", rows.len() as u64);
            sp.attr("edges", (stats.edges_traversed - before.edges_traversed) as u64);
            sp.attr("nodes", (stats.items_scanned - before.items_scanned) as u64);
            rows
        };
        let mut out = PatternMatches::with_capacity(rows.len(), q.want_event);
        for row in &rows {
            let int = |col: usize| row[col].as_int().unwrap_or(-1);
            if q.want_event {
                out.push_event(int(0), int(1), int(2), int(3), int(4));
            } else {
                out.push_pair(int(0), int(1));
            }
        }
        Ok(out)
    }

    fn fetch_attr(
        &self,
        source: AttrSource,
        attr: &str,
        ids: &[i64],
        stats: &mut BackendStats,
    ) -> Result<Vec<(i64, SVal)>> {
        stats.data_queries += 1;
        let mut out = Vec::with_capacity(ids.len());
        match source {
            AttrSource::Entity(class) => {
                let label = label_for_class(class);
                for &id in ids {
                    // Entity ids are indexed on load; fall back to a label
                    // scan only when the index is absent.
                    let nodes = match self.indexed_nodes(label, "id", PropValue::Int(id)) {
                        Some(nodes) => {
                            stats.index_scans += 1;
                            nodes.to_vec()
                        }
                        None => {
                            stats.full_scans += 1;
                            self.nodes_with_label(label)
                                .iter()
                                .copied()
                                .filter(|&n| self.node_prop(n, "id") == Some(PropValue::Int(id)))
                                .collect()
                        }
                    };
                    stats.items_scanned += nodes.len();
                    if let Some(&n) = nodes.first() {
                        if let Some(v) = self.node_prop(n, attr) {
                            out.push((id, v.into()));
                        }
                    }
                }
            }
            AttrSource::Event => {
                // Events are edges; edge properties are not indexed, so scan.
                let wanted: FxHashSet<i64> = ids.iter().copied().collect();
                stats.full_scans += 1;
                for i in 0..self.edge_count() {
                    let eid = crate::graph::EdgeId(i as u32);
                    stats.items_scanned += 1;
                    if let Some(PropValue::Int(id)) = self.edge_prop(eid, "id") {
                        if wanted.contains(&id) {
                            if let Some(v) = self.edge_prop(eid, attr) {
                                out.push((id, v.into()));
                            }
                        }
                    }
                }
                out.sort_by_key(|(id, _)| *id);
            }
        }
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

    #[test]
    fn candidates_via_ast() {
        let g = audit_graph();
        let mut stats = BackendStats::default();
        let like = Pred::Like { attr: "exename".into(), pattern: "%tar%".into(), negated: false };
        let ids = g.entity_candidates(EntityClass::Process, &like, &mut stats).unwrap();
        assert_eq!(ids, vec![0]);
        assert_eq!(stats.data_queries, 1);
        assert_eq!(stats.text_parses, 0);
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
                    let got =
                        g.entity_candidates(class, &like, &mut BackendStats::default()).unwrap();
                    let want: Vec<i64> = (ids.into_iter().zip(names))
                        .filter(|(_, name)| like_match(pattern, name) != negated)
                        .map(|(id, _)| id)
                        .collect();
                    assert_eq!(got, want, "{attr} {negated} LIKE {pattern}");
                }
            }
        }
    }

    #[test]
    fn event_pattern_on_graph() {
        let g = audit_graph();
        let mut stats = BackendStats::default();
        let q = EventPatternQuery {
            subject: EntitySel::of(EntityClass::Process, None),
            object: EntitySel::of(EntityClass::File, None),
            event_pred: Some(op_eq(&g, "read")),
            subject_is_object: false,
        };
        let m = g.match_event_pattern(&q, &mut stats).unwrap();
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
        let q = EventPatternQuery {
            subject,
            object: EntitySel::of(EntityClass::File, None),
            event_pred: None,
            subject_is_object: false,
        };
        let m = g.match_event_pattern(&q, &mut stats).unwrap();
        assert_eq!(m.len(), 1);
        assert_eq!(m.subj[0], 1);
    }

    #[test]
    fn typed_attr_fetch() {
        let g = audit_graph();
        let mut stats = BackendStats::default();
        let names = g
            .fetch_attr(AttrSource::Entity(EntityClass::File), "name", &[2, 3, 99], &mut stats)
            .unwrap();
        assert_eq!(
            names,
            vec![
                (2, SVal::Str(g.dict().get("/etc/passwd").unwrap())),
                (3, SVal::Str(g.dict().get("/tmp/upload.tar").unwrap()))
            ]
        );
        let amounts = g.fetch_attr(AttrSource::Event, "optype", &[11, 13], &mut stats).unwrap();
        assert_eq!(
            amounts,
            vec![
                (11, SVal::Str(g.dict().get("write").unwrap())),
                (13, SVal::Str(g.dict().get("connect").unwrap()))
            ]
        );
    }
}
