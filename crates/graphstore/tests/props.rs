//! Property-based tests, a chain of references: the Cypher executor's
//! variable-length DFS against a brute-force oracle on random graphs, then
//! the typed path matcher — one-shot and incremental — against the Cypher
//! executor running the same pattern as text. Every record goes to the
//! relational rows, whose entity-id indexes are the graph, as the engine's
//! loader writes it.

use proptest::prelude::*;
use proptest::test_runner::TestRng;
use raptor_common::{FxHashSet, SharedDict};
use raptor_graphstore::cypher::exec::execute;
use raptor_graphstore::cypher::parse_cypher;
use raptor_graphstore::{match_path_pattern, PathFrontier};
use raptor_relstore::{ColumnDef, ColumnType, Database, TableSchema};
use raptor_storage::{
    BackendStats, CmpOp, EntityClass, EntitySel, Field, FieldValue, MutableBackend,
    PathPatternQuery, Pred, Value,
};

/// An empty store over `dict`: each class table holds `id` and `name`,
/// `events` its endpoints (entity-id indexed), `optype` and times.
fn stores(dict: &SharedDict) -> Database {
    use ColumnType::{Int, Str};
    let mut db = Database::with_dict(dict.clone());
    let table = |name, cols: &[(&str, ColumnType)]| {
        TableSchema::new(name, cols.iter().map(|&(c, ty)| ColumnDef::new(c, ty)).collect())
    };
    for class in EntityClass::ALL {
        db.create_table(table(class.table_name(), &[("id", Int), ("name", Str)])).unwrap();
    }
    let ints = ["id", "subject", "object", "starttime", "endtime"].map(|c| (c, Int));
    db.create_table(table("events", &[&ints[..], &[("optype", Str)]].concat())).unwrap();
    for col in ["subject", "object"] {
        db.create_entity_index("events", col).unwrap();
    }
    db
}

/// Appends the next entity.
fn entity(db: &mut Database, class: EntityClass, fields: &[Field<'_>]) {
    let id = db.entities().len() as i64;
    db.insert_entity(class, id, fields, &mut BackendStats::default()).unwrap();
}

/// Appends an event.
fn event(db: &mut Database, id: i64, s: usize, o: usize, fields: &[Field<'_>]) {
    let stats = &mut BackendStats::default();
    db.insert_event(id, s as i64, o as i64, fields, stats).unwrap();
}

/// Files `n0..n{n}` and one event per edge.
fn file_graph(n: usize, edges: &[(usize, usize)]) -> Database {
    let mut st = stores(&SharedDict::new());
    for i in 0..n {
        entity(&mut st, EntityClass::File, &[("name", FieldValue::Str(&format!("n{i}")))]);
    }
    for (i, &(a, b)) in edges.iter().enumerate() {
        event(&mut st, i as i64, a, b, &[]);
    }
    st
}

/// All nodes reachable from `src` within `[min, max]` hops, using
/// edge-distinct walks (the executor's uniqueness rule), brute force.
fn oracle_reachable(edges: &[(usize, usize)], src: usize, min: u32, max: u32) -> FxHashSet<usize> {
    let mut out = FxHashSet::default();
    let mut stack: Vec<(usize, u32, Vec<usize>)> = vec![(src, 0, Vec::new())];
    while let Some((n, d, used)) = stack.pop() {
        if d >= min && d > 0 {
            out.insert(n);
        }
        if d == max {
            continue;
        }
        for (ei, &(a, b)) in edges.iter().enumerate() {
            if a == n && !used.contains(&ei) {
                let mut u2 = used.clone();
                u2.push(ei);
                stack.push((b, d + 1, u2));
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn var_length_matches_oracle(
        n in 2usize..8,
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..14),
        min in 1u32..3,
        extra in 0u32..3,
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let max = min + extra;
        let db = file_graph(n, &edges);
        let src = 0usize;
        let q = parse_cypher(&format!(
            "MATCH (x {{name: 'n{src}'}})-[:EVENT*{min}..{max}]->(y) RETURN DISTINCT y.name"
        )).unwrap();
        let r = execute(&db, &q, 16).unwrap();
        let got: FxHashSet<String> =
            r.batch.rendered_rows().into_iter().map(|mut row| row.remove(0)).collect();
        let want: FxHashSet<String> = oracle_reachable(&edges, src, min, max)
            .into_iter()
            .map(|i| format!("n{i}"))
            .collect();
        prop_assert_eq!(got, want);
    }

    /// Fixed single-hop pattern agrees with direct adjacency.
    #[test]
    fn single_hop_matches_adjacency(
        n in 2usize..8,
        edges in proptest::collection::vec((0usize..8, 0usize..8), 0..14),
    ) {
        let edges: Vec<(usize, usize)> =
            edges.into_iter().map(|(a, b)| (a % n, b % n)).collect();
        let db = file_graph(n, &edges);
        let q = parse_cypher("MATCH (x)-[:EVENT]->(y) RETURN x.name, y.name").unwrap();
        let r = execute(&db, &q, 16).unwrap();
        // Row multiset equals the edge multiset.
        let mut got: Vec<(String, String)> =
            r.batch.rendered_rows().into_iter().map(|r| (r[0].clone(), r[1].clone())).collect();
        got.sort();
        let mut want: Vec<(String, String)> = edges
            .iter()
            .map(|&(a, b)| (format!("n{a}"), format!("n{b}")))
            .collect();
        want.sort();
        prop_assert_eq!(got, want);
    }
}

// --- the typed path matcher against the text frontend ---

const NAMES: [&str; 4] = ["a0", "a1", "b0", "b1"];
const OPS: [&str; 2] = ["read", "write"];

/// An entity filter with a spelling on both sides: a typed [`Pred`] and a
/// Cypher condition (`LIKE` has none, so the patterns stay in the shapes
/// `CONTAINS` / `STARTS WITH` / `ENDS WITH` cover).
#[derive(Clone, Copy, Debug)]
enum Filter {
    Eq(&'static str),
    Starts(&'static str),
    Ends(&'static str),
    Contains(&'static str),
}

impl Filter {
    fn pred(self, dict: &SharedDict) -> Pred {
        let like = |pattern: String| Pred::Like { attr: "name".into(), pattern, negated: false };
        match self {
            Filter::Eq(v) => {
                Pred::Cmp { attr: "name".into(), op: CmpOp::Eq, value: Value::Str(dict.intern(v)) }
            }
            Filter::Starts(v) => like(format!("{v}%")),
            Filter::Ends(v) => like(format!("%{v}")),
            Filter::Contains(v) => like(format!("%{v}%")),
        }
    }

    fn text(self, var: &str) -> String {
        match self {
            Filter::Eq(v) => format!("{var}.name = '{v}'"),
            Filter::Starts(v) => format!("{var}.name STARTS WITH '{v}'"),
            Filter::Ends(v) => format!("{var}.name ENDS WITH '{v}'"),
            Filter::Contains(v) => format!("{var}.name CONTAINS '{v}'"),
        }
    }
}

const FILTERS: [Filter; 13] = [
    Filter::Eq("a0"),
    Filter::Eq("a1"),
    Filter::Eq("b0"),
    Filter::Eq("b1"),
    Filter::Eq("zz"),
    Filter::Starts("a"),
    Filter::Starts("b"),
    Filter::Ends("0"),
    Filter::Ends("1"),
    Filter::Ends("a0"),
    Filter::Ends("x"),
    Filter::Contains("a"),
    Filter::Contains("1"),
];

/// One side of a pattern as generated: class (`true` = Process), filter,
/// and a bitmask over node ids standing for the propagated candidates.
type Side = (bool, Option<Filter>, Option<u8>);

/// Mostly unconstrained, so that many-row answers occur.
fn side() -> impl Strategy<Value = Side> {
    let filter = (0usize..52).prop_map(|i| FILTERS.get(i).copied());
    let ids = (0u8..5, 0u8..64).prop_map(|(p, mask)| (p == 0).then_some(mask));
    (proptest::bool::ANY, filter, ids)
}

fn label(process: bool) -> &'static str {
    if process {
        "Process"
    } else {
        "File"
    }
}

fn entity_sel((process, filter, mask): Side, n: usize, dict: &SharedDict) -> EntitySel {
    EntitySel {
        class: if process { EntityClass::Process } else { EntityClass::File },
        filter: filter.map(|f| f.pred(dict)),
        id_in: mask.map(|m| (0..n as i64).filter(|i| m >> i & 1 == 1).collect()),
    }
}

/// What the request means, written as the Cypher the text frontend runs:
/// an unconstrained variable-length prefix, then — when the pattern
/// constrains or returns its last event — one final edge of its own.
fn cypher_text(q: &PathPatternQuery, subject: Side, object: Side, op: Option<&str>) -> String {
    let o = if q.subject_is_object { "s" } else { "o" };
    let o_node = format!("({o}:{})", label(object.0));
    let single_hop = q.min_hops == 1 && q.max_hops == Some(1);
    let range = |min: u32, max: Option<u32>| {
        format!("*{min}..{}", max.map(|m| m.to_string()).unwrap_or_default())
    };
    let walk = match (q.want_event || op.is_some(), single_hop) {
        (true, true) => format!("-[e:EVENT]->{o_node}"),
        (true, false) => format!(
            "-[:EVENT{}]->()-[e:EVENT]->{o_node}",
            range(q.min_hops.saturating_sub(1), q.max_hops.map(|m| m.saturating_sub(1)))
        ),
        (false, true) => format!("-[:EVENT]->{o_node}"),
        (false, false) => format!("-[:EVENT{}]->{o_node}", range(q.min_hops, q.max_hops)),
    };
    let mut conds: Vec<String> = Vec::new();
    let mut endpoint = |var: &str, sel: &EntitySel, f: Option<Filter>| {
        conds.extend(f.map(|f| f.text(var)));
        if let Some(ids) = &sel.id_in {
            let list: Vec<String> = ids.iter().map(i64::to_string).collect();
            conds.push(format!(
                "{var}.id IN [{}]",
                if ids.is_empty() { "-1".into() } else { list.join(", ") }
            ));
        }
    };
    endpoint("s", &q.subject, subject.1);
    if !q.subject_is_object {
        endpoint("o", &q.object, object.1);
    }
    conds.extend(op.map(|op| format!("e.optype = '{op}'")));
    let event = if q.want_event { ", e.id, e.starttime, e.endtime" } else { "" };
    let where_clause =
        if conds.is_empty() { String::new() } else { format!(" WHERE {}", conds.join(" AND ")) };
    format!(
        "MATCH (s:{}){walk}{where_clause} RETURN DISTINCT s.id, {o}.id{event}",
        label(subject.0)
    )
}

/// The typed matcher's two drivers against the text frontend, over small
/// random digraphs — cycles, self-loops, parallel edges — and random
/// requests: every hop envelope (`lo <= 1` is answered
/// by BFS, `lo >= 2` by the shared DFS), with and without a final-hop
/// operation, a wanted event, endpoint filters, candidate ids, one variable
/// on both ends. Rows must agree as multisets, so the typed rows must be
/// distinct by construction.
#[test]
fn typed_path_matcher_agrees_with_cypher_text() {
    let case = (
        (
            proptest::collection::vec((proptest::bool::ANY, 0usize..4), 3..7),
            proptest::collection::vec((0usize..6, 0usize..6, 0usize..9), 0..17),
            proptest::bool::ANY,
        ),
        (side(), side(), (0u8..5).prop_map(|x| x == 0)),
        // `min`, `max - min` (or unbounded), `hop_cap`.
        (
            (0usize..7).prop_map(|i| [0u32, 0, 1, 1, 1, 2, 3][i]),
            proptest::option::of(0u32..3),
            2u32..5,
        ),
        ((0usize..5).prop_map(|i| OPS.get(i).copied()), proptest::bool::ANY),
        1usize..4,
    );
    let mut rng = TestRng::from_name("typed_path_matcher_agrees_with_cypher_text");
    let (mut empty, mut many, mut dfs, mut incremental) = (0, 0, 0, 0);
    for _ in 0..512 {
        let ((nodes, edges, indexed), (subject, object, same_var), hops, (op, want_event), step) =
            case.generate(&mut rng);
        let (min_hops, extra_hops, hop_cap) = hops;
        let max_hops = extra_hops.map(|extra| min_hops.max(1) + extra);
        let object = if same_var { subject } else { object };

        let dict = SharedDict::new();
        let mut g = stores(&dict);
        // The same records fed a few edges at a time, for the frontier.
        let mut grown = stores(&dict);
        for &(process, name) in &nodes {
            let class = if process { EntityClass::Process } else { EntityClass::File };
            let props = [("name", FieldValue::Str(NAMES[name]))];
            entity(&mut g, class, &props);
            entity(&mut grown, class, &props);
        }
        if indexed {
            for (table, key) in [("processes", "name"), ("processes", "id"), ("files", "id")] {
                g.create_hash_index(table, key).unwrap();
            }
        }
        let n = nodes.len();
        // Every edge is an event; `kind` picks its operation.
        let add_edge = |g: &mut Database, i: usize| {
            let (src, dst, kind) = edges[i];
            let t = i as i64 * 10;
            let fields = [
                ("optype", FieldValue::Str(OPS[kind % 2])),
                ("starttime", FieldValue::Int(t)),
                ("endtime", FieldValue::Int(t + 5)),
            ];
            event(g, 100 + i as i64, src % n, dst % n, &fields);
        };
        (0..edges.len()).for_each(|i| add_edge(&mut g, i));

        let q = PathPatternQuery {
            subject: entity_sel(subject, n, &dict),
            object: entity_sel(object, n, &dict),
            min_hops,
            max_hops,
            hop_cap,
            final_hop_pred: op.map(|op| Pred::Cmp {
                attr: "optype".into(),
                op: CmpOp::Eq,
                value: Value::Str(dict.intern(op)),
            }),
            want_event,
            subject_is_object: same_var,
        };
        let text = cypher_text(&q, subject, object, op);
        let reference = execute(&g, &parse_cypher(&text).unwrap(), hop_cap).unwrap();
        let b = &reference.batch;
        let mut want: Vec<Vec<i64>> = (0..b.n_rows())
            .map(|i| b.row(i).iter().map(|v| v.as_int().unwrap()).collect())
            .collect();
        want.sort_unstable();

        let mut stats = BackendStats::default();
        let m = match_path_pattern(&g, &q, &mut stats).unwrap();
        assert_eq!(m.has_event, want_event);
        let mut got: Vec<Vec<i64>> = (0..m.len())
            .map(|i| match want_event {
                true => vec![m.subj[i], m.obj[i], m.evt[i], m.start[i], m.end[i]],
                false => vec![m.subj[i], m.obj[i]],
            })
            .collect();
        got.sort_unstable();
        assert_eq!(got, want, "one-shot vs text: {q:?}\n{text}\nnodes {nodes:?}\nedges {edges:?}");
        assert_eq!((stats.data_queries, stats.text_parses), (1, 0));

        if let Some(mut frontier) = PathFrontier::new(&q) {
            let mut pairs = frontier.advance(&grown).unwrap();
            for i in 0..edges.len() {
                add_edge(&mut grown, i);
                if (i + 1) % step == 0 || i + 1 == edges.len() {
                    pairs.extend(frontier.advance(&grown).unwrap());
                }
            }
            let mut pairs: Vec<Vec<i64>> = pairs.into_iter().map(|(s, o)| vec![s, o]).collect();
            pairs.sort_unstable();
            assert_eq!(
                pairs, want,
                "frontier vs text: {q:?}\n{text}\nnodes {nodes:?}\nedges {edges:?}"
            );
            incremental += 1;
        }
        empty += want.is_empty() as usize;
        many += (want.len() >= 4) as usize;
        let has_final = want_event || op.is_some();
        dfs += (min_hops >= 2 + has_final as u32) as usize;
    }
    // The generator reaches every regime it claims to.
    assert!(empty >= 100 && many >= 40, "{empty} empty, {many} with 4+ rows");
    assert!(dfs >= 60 && incremental >= 100, "{dfs} in the DFS residue, {incremental} incremental");
}
