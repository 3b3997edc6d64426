//! The graph store's typed surface: one read, [`match_path_pattern`] —
//! TBQL's `~>(m~n)[op]` — over the relational store, which owns the graph
//! ([`crate::graph`]).
//!
//! A request is compiled once into a `PathSpec`: the two endpoints, the
//! final-hop predicate and the hop bounds. It is bound per use to the
//! relational rows: `PathSpec::on` resolves the [`Topology`], resolves
//! each endpoint as the relational matcher does
//! (`raptor_relstore::exec::Endpoint`: its class table and its filter),
//! and compiles the final-hop predicate over `events`, both into the
//! relational store's one compiled predicate form (`exec::ScanPred`, what
//! seeding scans with), so both stores decide a predicate the same way by
//! construction. A node's filter is tested on its class-table row and an
//! edge's on its `events` row. Matching then walks the `events.subject`
//! postings; no query AST is built and nothing is parsed.
//!
//! Every shape is a *prefix* of `lo..=hi` hops from an anchor plus, when
//! the pattern constrains or returns its last event, one *final edge*.
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

use std::borrow::Cow;

use raptor_common::error::Result;
use raptor_common::intern::SharedDict;
use raptor_common::obs;
use raptor_relstore::exec::{compile_pred, table_named, Endpoint, ScanPred};
use raptor_relstore::table::Table;
use raptor_relstore::Database;
use raptor_storage::{
    BackendStats, EntityClass, EntitySel, PathPatternQuery, PatternMatches, Pred,
};

use crate::cypher::exec::edge_distinct_walks;
use crate::graph::{EdgeId, NodeId, Topology};

/// The Cypher label of a class's nodes.
pub fn label_for_class(class: EntityClass) -> &'static str {
    match class {
        EntityClass::File => "File",
        EntityClass::Process => "Process",
        EntityClass::NetConn => "NetConn",
    }
}

/// The Cypher label of every edge: each is an event.
pub const LABEL_EVENT: &str = "EVENT";

/// A path request compiled once; see the module doc for the shape.
pub(crate) struct PathSpec {
    subject: EntitySel,
    /// `None` when one variable is bound as both ends: the walk closes on
    /// its own anchor, whose conditions the subject side already carries.
    object: Option<EntitySel>,
    final_pred: Option<Pred>,
    /// The pattern ends in a final edge (it constrains or returns one).
    pub(crate) has_final: bool,
    /// Prefix hop bounds. `lo == 0` makes every anchor a prefix endpoint.
    pub(crate) lo: u32,
    pub(crate) hi: u32,
}

impl PathSpec {
    pub(crate) fn compile(q: &PathPatternQuery) -> PathSpec {
        let has_final = q.want_event || q.final_hop_pred.is_some();
        // The final edge is one of the pattern's hops.
        let (min, max) = match has_final {
            true => (q.min_hops.saturating_sub(1), q.max_hops.map(|m| m.saturating_sub(1))),
            false => (q.min_hops, q.max_hops),
        };
        // `hop_cap` bounds a variable-length walk, never the fixed single hop.
        let single_hop = q.min_hops == 1 && q.max_hops == Some(1);
        let hi = if single_hop { min } else { max.unwrap_or(q.hop_cap).min(q.hop_cap) };
        PathSpec {
            subject: q.subject.clone(),
            object: (!q.subject_is_object).then(|| q.object.clone()),
            final_pred: q.final_hop_pred.clone(),
            has_final,
            lo: min,
            hi,
        }
    }

    /// The spec bound to the rows as they are now: the graph over them, and
    /// each predicate compiled over the table its records live in.
    pub(crate) fn on<'a>(&'a self, db: &'a Database) -> Result<PathMatcher<'a>> {
        let events = table_named(db, "events")?;
        let col = |name| events.schema.column_index(name);
        Ok(PathMatcher {
            g: Topology::of(db)?,
            spec: self,
            dict: db.dict(),
            subj: Endpoint::resolve(db, &self.subject)?,
            obj: self.object.as_ref().map(|o| Endpoint::resolve(db, o)).transpose()?,
            final_pred: self.final_pred.as_ref().map(|p| compile_pred(p, events)).transpose()?,
            events,
            event_cols: [col("id"), col("starttime"), col("endtime")],
        })
    }
}

/// A [`PathSpec`] bound to the stores: the endpoint and final-edge tests,
/// and what a prefix endpoint contributes.
pub(crate) struct PathMatcher<'a> {
    pub(crate) g: Topology<'a>,
    pub(crate) spec: &'a PathSpec,
    dict: &'a SharedDict,
    /// Each end's class table and filter; `obj` is `None` with
    /// `spec.object`.
    subj: Endpoint<'a>,
    obj: Option<Endpoint<'a>>,
    final_pred: Option<ScanPred<'a>>,
    events: &'a Table,
    /// `events`' `id`, `starttime` and `endtime` columns.
    event_cols: [Option<usize>; 3],
}

impl PathMatcher<'_> {
    /// The entity id of node `n`: its ordinal, since entity ids are dense
    /// and `insert_entity` appends them in order.
    pub(crate) fn entity_id(&self, n: NodeId) -> i64 {
        i64::from(n.0)
    }

    /// An event's `(id, starttime, endtime)`, read from its `events` row
    /// (`-1` where one is missing).
    fn event_row(&self, e: EdgeId) -> (i64, i64, i64) {
        let [id, start, end] = self
            .event_cols
            .map(|c| c.and_then(|c| self.events.cell(e.0, c).as_int()).unwrap_or(-1));
        (id, start, end)
    }

    /// Is `n` of `sel`'s class, does its row pass the filter, and is it
    /// among the propagated candidates (if there are any)?
    fn end_ok(&self, sel: &EntitySel, end: &Endpoint<'_>, n: NodeId) -> bool {
        let node = self.g.node(n);
        node.class == sel.class
            && end.passes(node.row, self.dict)
            && sel.id_in.as_ref().is_none_or(|ids| ids.binary_search(&i64::from(n.0)).is_ok())
    }

    /// Is `n` an anchor — a node the pattern's subject may bind?
    pub(crate) fn subject_ok(&self, n: NodeId) -> bool {
        self.end_ok(&self.spec.subject, &self.subj, n)
    }

    /// Does `n` qualify as the pattern's object for anchor `a`?
    pub(crate) fn object_ok(&self, n: NodeId, a: NodeId) -> bool {
        match (&self.spec.object, &self.obj) {
            (Some(sel), Some(end)) => self.end_ok(sel, end, n),
            _ => n == a,
        }
    }

    /// May `e` be the pattern's final edge?
    pub(crate) fn final_edge_ok(&self, e: EdgeId) -> bool {
        self.final_pred.as_ref().is_none_or(|p| p.holds(self.events, e.0, self.dict))
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
        for e in self.g.out_edges(n) {
            let dst = self.g.edge(e).dst;
            if self.final_edge_ok(e) && self.object_ok(dst, a) {
                hit(dst, Some(e));
            }
        }
    }

    /// The anchors: the propagated ids that are nodes of the subject's
    /// class, when there are any; else the entities the subject's filter
    /// selects (only standing queries send a filter without ids), read by
    /// the relational store's own seeding scan; else every row of the
    /// class table. `scanned` counts the candidates read — what either path
    /// returns.
    fn anchors(&self, db: &Database, scanned: &mut usize) -> Result<Vec<NodeId>> {
        let (g, subject) = (&self.g, &self.spec.subject);
        let ids: Cow<'_, [i64]> = match (&subject.id_in, &subject.filter) {
            (Some(ids), _) => Cow::Borrowed(ids),
            (None, Some(filter)) => Cow::Owned(db.entity_candidates(
                subject.class,
                filter,
                &mut BackendStats::default(),
            )?),
            (None, None) => Cow::Borrowed(self.subj.ids),
        };
        let of_class = |n: &NodeId| g.node(*n).class == subject.class;
        let mut anchors: Vec<NodeId> =
            ids.iter().filter_map(|&id| g.entity_node(id)).filter(of_class).collect();
        *scanned += anchors.len();
        anchors.retain(|&n| self.subject_ok(n));
        Ok(anchors)
    }
}

/// Marks `n` with `stamp`; false if it already carried it. One mark array
/// serves every anchor of a request: anchor `i` stamps `i + 1`.
fn mark(marks: &mut [u32], stamp: u32, n: NodeId) -> bool {
    std::mem::replace(&mut marks[n.0 as usize], stamp) != stamp
}

/// Matches one (possibly variable-length) path pattern against the whole
/// graph of `db`'s rows, on the calling thread. Rows are distinct by
/// construction.
pub fn match_path_pattern(
    db: &Database,
    q: &PathPatternQuery,
    stats: &mut BackendStats,
) -> Result<PatternMatches> {
    let spec = PathSpec::compile(q);
    let m = spec.on(db)?;
    let g = &m.g;
    // One expansion span per path-pattern request.
    let mut sp = obs::span("graphstore.expand");
    let (mut nodes, mut edges) = (0usize, 0usize);
    let mut out = PatternMatches::with_capacity(0, q.want_event);
    // Per anchor: prefix endpoints reached, objects already paired.
    let mut reached_by = vec![0u32; g.node_count()];
    let mut paired_by = vec![0u32; g.node_count()];
    let mut reached: Vec<NodeId> = Vec::new();
    let mut queue: Vec<(NodeId, u32)> = Vec::new();
    for (i, a) in m.anchors(db, &mut nodes)?.into_iter().enumerate() {
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
                for e in g.out_edges(n) {
                    edges += 1;
                    let dst = g.edge(e).dst;
                    if mark(&mut reached_by, stamp, dst) {
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
                g,
                a,
                spec.lo,
                spec.hi,
                |_| true,
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
                edges += g.out_edges(n).len();
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit::Stores;
    use raptor_common::intern::SharedDict;
    use raptor_relstore::ColumnType::{Int, Str};
    use raptor_storage::{FieldValue, Value as SVal};

    /// tar→passwd (read), tar→upload.tar (write), curl→upload.tar (read),
    /// curl→ip (connect).
    fn audit_graph() -> Stores {
        let mut st = Stores::new(
            &[("exename", Str), ("name", Str), ("dstip", Str)],
            &[("optype", Str), ("starttime", Int), ("endtime", Int)],
        );
        let mut entity = |class, key, v| st.entity(class, &[(key, FieldValue::Str(v))]);
        let tar = entity(EntityClass::Process, "exename", "/bin/tar");
        let curl = entity(EntityClass::Process, "exename", "/usr/bin/curl");
        let passwd = entity(EntityClass::File, "name", "/etc/passwd");
        let uptar = entity(EntityClass::File, "name", "/tmp/upload.tar");
        let ip = entity(EntityClass::NetConn, "dstip", "192.168.29.128");
        let mut t = 0;
        for (s, d, eid, op) in
            [(tar, passwd, 10, "read"), (tar, uptar, 11, "write"), (curl, uptar, 12, "read")]
                .into_iter()
                .chain([(curl, ip, 13, "connect")])
        {
            t += 100;
            let fields = [
                ("optype", FieldValue::Str(op)),
                ("starttime", FieldValue::Int(t)),
                ("endtime", FieldValue::Int(t + 10)),
            ];
            st.event(eid, s, d, &fields);
        }
        st.db.create_hash_index("processes", "exename").unwrap();
        st
    }

    fn op_eq(st: &Stores, name: &str) -> Pred {
        Pred::Cmp {
            attr: "optype".into(),
            op: raptor_storage::CmpOp::Eq,
            value: SVal::Str(st.db.dict().intern(name)),
        }
    }

    fn run(st: &Stores, q: &PathPatternQuery, stats: &mut BackendStats) -> PatternMatches {
        match_path_pattern(&st.db, q, stats).unwrap()
    }

    /// `subject ~>(0~0) subject`: every anchor pairs with itself, so the
    /// rows are the subject selection.
    fn selected(st: &Stores, subject: EntitySel) -> Vec<i64> {
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
        let m = run(st, &q, &mut stats);
        assert_eq!((stats.data_queries, stats.text_parses), (1, 0));
        assert_eq!(m.subj, m.obj);
        let mut ids = m.subj;
        ids.sort_unstable();
        ids
    }

    /// A typed LIKE selects what `like_match` selects — interior `%` and
    /// `_` included — through a hash index and through a full scan.
    #[test]
    fn candidates_are_exact_like() {
        use raptor_common::like::like_match;
        let st = audit_graph();
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
                    let got = selected(&st, EntitySel::of(class, Some(like)));
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
            let bin = SVal::Str(st.db.dict().intern("%bin%"));
            let cmp = Pred::Cmp { attr: "exename".into(), op, value: bin };
            assert_eq!(selected(&st, EntitySel::of(EntityClass::Process, Some(cmp))), want);
        }
    }

    /// The bound evaluator's semantics, pinned through both drivers: each
    /// case selects processes as a typed request and as Cypher text, over
    /// fresh stores, so the text's literals are unseen unless a record
    /// carries them. Names intern in reverse order of content (`c`, `b`,
    /// `a`), so symbol order is not string order.
    #[test]
    fn bound_evaluator_semantics_agree_across_drivers() {
        use crate::cypher::{exec::execute, parse_cypher};
        use raptor_storage::CmpOp::{self, *};
        fn graph() -> Stores {
            let mut st = Stores::new(&[("name", Str), ("pid", Int)], &[]);
            for (name, pid) in [("c", 30), ("b", 20), ("a", 10)] {
                let props = [("name", FieldValue::Str(name)), ("pid", FieldValue::Int(pid))];
                st.entity(EntityClass::Process, &props);
            }
            // Carries no `name`: its cell is NULL.
            st.entity(EntityClass::Process, &[("pid", FieldValue::Int(40))]);
            st
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
            let st = graph();
            let (c, b) = (st.db.dict().get("c").unwrap(), st.db.dict().get("b").unwrap());
            assert!(c < b, "`c` interns before `b`");
            let text = format!("MATCH (s:Process) WHERE {cond} RETURN s.id");
            let r = execute(&st.db, &parse_cypher(&text).unwrap(), 8).unwrap();
            let ids = &r.batch.cols[0];
            let mut by_text: Vec<i64> =
                (0..ids.len()).map(|i| ids.get(i).as_int().unwrap()).collect();
            by_text.sort_unstable();
            let filter = pred(st.db.dict(), attr, &test);
            let typed = selected(&st, EntitySel::of(EntityClass::Process, Some(filter)));
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
        let st = audit_graph();
        let mut stats = BackendStats::default();
        let q = single_hop(EntitySel::of(EntityClass::Process, None), Some(op_eq(&st, "read")));
        let m = run(&st, &q, &mut stats);
        assert_eq!(m.len(), 2);
        assert!(m.has_event);
        assert!(m.evt.contains(&10) && m.evt.contains(&12));
    }

    /// Events delivered out of id order: an edge's ordinal is its `events`
    /// row, not its id, so the event a match returns — id and times — is
    /// the one the edge stands for.
    #[test]
    fn out_of_order_events_return_their_own_rows() {
        let mut st = Stores::new(&[], &[("starttime", Int), ("endtime", Int)]);
        let p = st.entity(EntityClass::Process, &[]);
        let files = [0; 3].map(|_| st.entity(EntityClass::File, &[]));
        for (f, id) in files.into_iter().zip([12, 10, 11]) {
            let times =
                [("starttime", FieldValue::Int(id * 100)), ("endtime", FieldValue::Int(-id))];
            st.event(id, p, f, &times);
        }
        let q = single_hop(EntitySel::of(EntityClass::Process, None), None);
        let m = run(&st, &q, &mut BackendStats::default());
        let mut got: Vec<_> =
            (0..m.len()).map(|i| (m.obj[i], m.evt[i], m.start[i], m.end[i])).collect();
        got.sort_unstable();
        assert_eq!(got, [(1, 12, 1200, -12), (2, 10, 1000, -10), (3, 11, 1100, -11)]);
    }

    #[test]
    fn variable_length_path_with_final_hop() {
        let st = audit_graph();
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
            final_hop_pred: Some(op_eq(&st, "read")),
            want_event: true,
            subject_is_object: false,
        };
        let m = run(&st, &q, &mut stats);
        assert_eq!(m.len(), 1);
        assert_eq!((m.subj[0], m.obj[0], m.evt[0]), (0, 2, 10));
    }

    #[test]
    fn pure_path_without_event_binding() {
        let st = audit_graph();
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
        let m = run(&st, &q, &mut stats);
        assert_eq!(m.len(), 1);
        assert!(!m.has_event);
        assert_eq!((m.subj[0], m.obj[0], m.evt[0]), (1, 4, -1));
    }

    /// An endpoint id past `u32` would wrap to a node that exists (`1 << 32`
    /// to node 0): it is refused before narrowing, like any id that is not
    /// a node, by the rows and by the facade's shim alike.
    #[test]
    fn out_of_range_event_endpoint_is_refused() {
        use crate::graph::{Graph, Topology};
        use raptor_common::error::ErrorKind;
        use raptor_storage::MutableBackend;
        let mut st = audit_graph();
        let mut g = Graph::new();
        for id in 0..5 {
            g.insert_entity(EntityClass::File, id, &[], &mut BackendStats::default()).unwrap();
        }
        let edges = Topology::of(&st.db).unwrap().edge_count();
        let mut stats = BackendStats::default();
        for (s, o) in [(1i64 << 32, 2), (0, (1 << 32) + 2), (-1, 2), (0, 5)] {
            let err = g.insert_event(99, s, o, &[], &mut stats).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Storage, "{s} -> {o}: {err}");
            let err = st.db.insert_event(99, s, o, &[], &mut stats).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Storage, "{s} -> {o}: {err}");
        }
        assert_eq!((g.edge_count(), Topology::of(&st.db).unwrap().edge_count()), (0, edges));
        assert_eq!(stats.items_inserted, 0);
    }

    #[test]
    fn propagated_ids_anchor() {
        let st = audit_graph();
        let mut stats = BackendStats::default();
        let mut subject = EntitySel::of(EntityClass::Process, None);
        // Node 2 is a file and 9 is no node: only process 1 is an anchor,
        // and the only candidate read.
        subject.id_in = Some(vec![1, 2, 9]);
        let m = run(&st, &single_hop(subject, None), &mut stats);
        assert_eq!(m.len(), 1);
        assert_eq!(m.subj[0], 1);
        assert_eq!(stats.items_scanned, 1);
    }
}
