//! Write-path equivalence.
//!
//! Every way of getting a record into the stores funnels into one appender
//! per store, which addresses tables, columns and indexes by ordinals
//! resolved once. Two properties pin that:
//!
//! 1. **Sparse records** — records with absent attributes, fields in any
//!    order (reshuffled between records, so resolved shapes keep missing)
//!    and an unknown field name, written through raw `Database::insert`
//!    and through `MutableBackend`, build stores with equal contents and
//!    identical hash / B-tree / trigram lookups for every inserted key,
//!    through SQL and through Cypher text — each also checked against a
//!    scan of the generated records — and every entity is found by its id,
//!    a position in the entity directory and the graph's node, and every
//!    event's edge is its `events` row, listed in its endpoints' postings.
//! 2. **Whole logs** — the same log written raw, through `MutableBackend`,
//!    by bulk `load` and as one-event epochs answers the 8-query corpus
//!    identically and holds equal contents.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use threatraptor::audit::{Entity, EntityAttrs, ParsedLog, SystemEvent};
use threatraptor::engine::exec::ExecMode;
use threatraptor::engine::load::{self, class_for_kind, LoadedStores};
use threatraptor::engine::Engine;
use threatraptor::graphstore::backend::label_for_class;
use threatraptor::graphstore::cypher::{exec::execute, parse_cypher};
use threatraptor::graphstore::{EdgeId, NodeId, Topology};
use threatraptor::relstore::db::Ins;
use threatraptor::storage::{
    AttrSource, BackendStats, EntityClass, Field, FieldValue, MutableBackend, Value,
};
use threatraptor::stream::StreamSession;

const QUERIES: &[&str] = threatraptor::tbql::parser::EQUIV_CORPUS;

#[derive(Clone, Debug, PartialEq)]
enum Val {
    Int(i64),
    Str(String),
}

/// One record as a writer sees it: explicit ids plus named attributes, of
/// which any may be absent and one may be unknown to the schema.
#[derive(Clone, Debug)]
struct Rec {
    /// `None` for an event.
    class: Option<EntityClass>,
    id: i64,
    ends: (i64, i64),
    fields: Vec<(&'static str, Val)>,
}

impl Rec {
    fn table(&self) -> &'static str {
        self.class.map_or("events", EntityClass::table_name)
    }

    fn get(&self, name: &str) -> Option<&Val> {
        self.fields.iter().find(|f| f.0 == name).map(|f| &f.1)
    }

    fn fields(&self) -> Vec<Field<'_>> {
        fn field<'a>((name, v): &'a (&'static str, Val)) -> Field<'a> {
            match v {
                Val::Int(i) => (*name, FieldValue::Int(*i)),
                Val::Str(s) => (*name, FieldValue::Str(s)),
            }
        }
        self.fields.iter().map(field).collect()
    }
}

fn entity_rec(e: &Entity) -> Rec {
    let s = |v: &String| Val::Str(v.clone());
    let mut fields = match &e.attrs {
        EntityAttrs::File(f) => vec![
            ("name", s(&f.name)),
            ("path", s(&f.path)),
            ("user", s(&f.user)),
            ("group", s(&f.group)),
        ],
        EntityAttrs::Process(p) => vec![
            ("pid", Val::Int(p.pid as i64)),
            ("exename", s(&p.exename)),
            ("user", s(&p.user)),
            ("group", s(&p.group)),
            ("cmd", s(&p.cmd)),
        ],
        EntityAttrs::NetConn(n) => vec![
            ("srcip", s(&n.src_ip)),
            ("srcport", Val::Int(n.src_port as i64)),
            ("dstip", s(&n.dst_ip)),
            ("dstport", Val::Int(n.dst_port as i64)),
            ("protocol", Val::Str(n.protocol.name().into())),
        ],
    };
    fields.push(("host", Val::Int(e.host as i64)));
    Rec { class: Some(class_for_kind(e.kind())), id: e.id.index() as i64, ends: (0, 0), fields }
}

fn event_rec(ev: &SystemEvent) -> Rec {
    let fields = vec![
        ("optype", Val::Str(ev.op.name().into())),
        ("kind", Val::Str(ev.kind.name().into())),
        ("starttime", Val::Int(ev.start.0)),
        ("endtime", Val::Int(ev.end.0)),
        ("duration", Val::Int(ev.duration().0)),
        ("amount", Val::Int(ev.amount as i64)),
        ("failcode", Val::Int(ev.fail_code as i64)),
        ("host", Val::Int(ev.host as i64)),
    ];
    let ends = (ev.subject.index() as i64, ev.object.index() as i64);
    Rec { class: None, id: ev.id.index() as i64, ends, fields }
}

fn records(log: &ParsedLog) -> Vec<Rec> {
    log.entities.iter().map(entity_rec).chain(log.events.iter().map(event_rec)).collect()
}

/// Drops attributes, reorders the rest and sometimes adds a field no schema
/// knows. The order changes only now and then, so runs of one shape (cache
/// hits) alternate with shape changes (the search fallback).
fn sparsify(recs: &mut [Rec], rng: &mut StdRng) {
    let mut order_seed = rng.gen_range(0..1_000_000u64);
    for r in recs {
        r.fields.retain(|_| rng.gen_range(0..5) > 0);
        if rng.gen_range(0..4) == 0 {
            order_seed = rng.gen_range(0..1_000_000u64);
        }
        let mut order = StdRng::seed_from_u64(order_seed);
        for i in (1..r.fields.len()).rev() {
            r.fields.swap(i, order.gen_range(0..(i + 1)));
        }
        if rng.gen_range(0..6) == 0 {
            let at = rng.gen_range(0..(r.fields.len() + 1));
            r.fields.insert(at, ("bogus", Val::Int(7)));
        }
    }
}

/// Raw inserts: rows in schema column order (absent attributes are NULL);
/// the graph is a view of them. The relational store is not given the
/// field its schema does not know.
fn write_raw(recs: &[Rec]) -> LoadedStores {
    let mut stores = load::empty().unwrap();
    for r in recs {
        let schema = stores.rel.table(r.table()).unwrap().schema.clone();
        let row: Vec<Ins<'_>> = schema
            .columns
            .iter()
            .map(|c| match (c.name.as_str(), r.get(&c.name)) {
                ("id", _) => Ins::Int(r.id),
                ("subject", _) if r.class.is_none() => Ins::Int(r.ends.0),
                ("object", _) if r.class.is_none() => Ins::Int(r.ends.1),
                (_, Some(Val::Int(i))) => Ins::Int(*i),
                (_, Some(Val::Str(s))) => Ins::Str(s),
                (_, None) => Ins::Null,
            })
            .collect();
        stores.rel.insert(r.table(), &row).unwrap();
    }
    stores
}

/// The same records through each store's `MutableBackend`.
fn write_mutable(recs: &[Rec]) -> LoadedStores {
    let mut stores = load::empty().unwrap();
    let mut stats = BackendStats::default();
    for r in recs {
        let fields = r.fields();
        match r.class {
            Some(class) => {
                stores.rel.insert_entity(class, r.id, &fields, &mut stats).unwrap();
                stores.graph.insert_entity(class, r.id, &fields, &mut stats).unwrap();
            }
            None => {
                let (s, o) = r.ends;
                stores.rel.insert_event(r.id, s, o, &fields, &mut stats).unwrap();
                stores.graph.insert_event(r.id, s, o, &fields, &mut stats).unwrap();
            }
        }
    }
    assert_eq!(stats.items_inserted, 2 * recs.len());
    stores
}

fn ids(stores: &LoadedStores, sql: &str) -> (Vec<i64>, usize) {
    let r = stores.rel.query(sql).unwrap();
    let col = &r.batch.cols[0];
    let mut ids: Vec<i64> = (0..col.len()).map(|i| col.get(i).as_int().unwrap()).collect();
    ids.sort_unstable();
    (ids, r.stats.index_scans)
}

/// Every index lookup a generated key can be found by, in every store,
/// against a scan of the records themselves.
fn assert_lookups(recs: &[Rec], stores: &[&LoadedStores]) {
    let matching = |table: &str, pred: &dyn Fn(&Rec) -> bool| -> Vec<i64> {
        let mut ids: Vec<i64> =
            recs.iter().filter(|r| r.table() == table && pred(r)).map(|r| r.id).collect();
        ids.sort_unstable();
        ids
    };
    // (class, column): hash + trigram, read by SQL and by Cypher text.
    let keyed = [
        (EntityClass::File, "name"),
        (EntityClass::Process, "exename"),
        (EntityClass::NetConn, "dstip"),
    ];
    // The `events` rows of the events `pred` holds for, ascending.
    let naming = |pred: &dyn Fn(&Rec) -> bool| -> Vec<u32> {
        let events = recs.iter().filter(|r| r.class.is_none());
        events.zip(0..).filter(|(e, _)| pred(e)).map(|(_, row)| row).collect()
    };
    let mut event_row = 0u32;
    for r in recs {
        for &(class, col) in keyed.iter().filter(|k| Some(k.0) == r.class) {
            let (table, label) = (class.table_name(), label_for_class(class));
            let Some(Val::Str(v)) = r.get(col) else { continue };
            let want = matching(table, &|o| o.get(col) == r.get(col));
            // The key's last four characters (LIKE wildcards aside).
            let gram: String = v.chars().skip(v.len().saturating_sub(4)).collect();
            if gram.contains(['%', '_']) {
                continue;
            }
            let like = matching(
                table,
                &|o| matches!(o.get(col), Some(Val::Str(s)) if s.contains(gram.as_str())),
            );
            for s in stores {
                let hash = ids(s, &format!("SELECT id FROM {table} WHERE {col} = '{v}'"));
                assert_eq!(hash, (want.clone(), 1), "hash {table}.{col} = {v}");
                let tri = ids(s, &format!("SELECT id FROM {table} WHERE {col} LIKE '%{gram}%'"));
                assert_eq!(tri.0, like, "trigram {table}.{col} ~ {gram}");
                assert_eq!(tri.1, (gram.len() >= 3) as usize, "trigram path for {gram}");
                // The Cypher frontend's anchor reads the same hash index.
                let text = format!("MATCH (n:{label}) WHERE n.{col} = '{v}' RETURN n.id");
                let c = execute(&s.rel, &parse_cypher(&text).unwrap(), 8).unwrap();
                let mut nodes: Vec<i64> =
                    (0..c.batch.n_rows()).map(|i| c.batch.row(i)[0].as_int().unwrap()).collect();
                nodes.sort_unstable();
                assert_eq!((nodes, c.stats.nodes_scanned), (want.clone(), want.len()), "{text}");
            }
        }
        // Unique keys. An entity id is a position: `fetch_attr` finds the
        // entity by id, and node `NodeId(id)` of the graph view is of its
        // class and points at the row that carries it; an event is the
        // edge at its `events` row, whose id goes through the `events.id`
        // hash index, and `starttime` through the B-tree. Each endpoint's
        // entity-id posting is the rows of the events naming it, in order,
        // and the subject's is the node's out-edges.
        for s in stores {
            let g = Topology::of(&s.rel).unwrap();
            let Some(class) = r.class else {
                let by_id = ids(s, &format!("SELECT id FROM events WHERE id = {}", r.id));
                assert_eq!(by_id, (vec![r.id], 1));
                let events = s.rel.table("events").unwrap();
                let column = |c| events.schema.column_index(c).unwrap();
                let edge = g.edge(EdgeId(event_row));
                let ends = (i64::from(edge.src.0), i64::from(edge.dst.0));
                assert_eq!(
                    (events.cell(event_row, column("id")), ends),
                    (Value::Int(r.id), r.ends)
                );
                let out: Vec<u32> = g.out_edges(edge.src).map(|e| e.0).collect();
                assert_eq!(out, naming(&|e| e.ends.0 == r.ends.0), "out-edges of {}", r.ends.0);
                let object = s.rel.entity_index("events", column("object")).unwrap();
                let into = naming(&|e| e.ends.1 == r.ends.1);
                assert_eq!(object.rows(r.ends.1 as usize), into, "events into {}", r.ends.1);
                continue;
            };
            let mut stats = BackendStats::default();
            let found = s.rel.fetch_attr(AttrSource::Entity(class), "id", &[r.id], &mut stats);
            assert_eq!(found.unwrap(), vec![(r.id, Value::Int(r.id))]);
            let node = g.node(NodeId(r.id as u32));
            let table = s.rel.table(class.table_name()).unwrap();
            assert_eq!((node.class, table.cell(node.row, 0)), (class, Value::Int(r.id)));
        }
        event_row += r.class.is_none() as u32;
        if let (None, Some(Val::Int(t))) = (r.class, r.get("starttime")) {
            let want =
                matching("events", &|o| matches!(o.get("starttime"), Some(Val::Int(x)) if x >= t));
            for s in stores {
                let range = ids(s, &format!("SELECT id FROM events WHERE starttime >= {t}"));
                assert_eq!(range, (want.clone(), 1), "btree starttime >= {t}");
            }
        }
    }
}

fn assert_same_contents(a: &LoadedStores, b: &LoadedStores, ctx: &str) {
    // Every table's rows and the graph's edges, rendered.
    assert_eq!(a.contents(), b.contents(), "{ctx}");
    let size = |s: &LoadedStores| {
        let g = Topology::of(&s.rel).unwrap();
        (g.node_count(), g.edge_count())
    };
    assert_eq!(size(a), size(b), "{ctx}");
}

fn case_log(case_idx: usize, seed: u64) -> ParsedLog {
    let cases = raptor_cases::all_cases();
    raptor_cases::build_case(cases[case_idx % cases.len()], 0.02, seed).log
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn sparse_records_raw_equals_mutable_backend(case_idx in 0usize..18, seed in 0u64..1_000_000) {
        let log = case_log(case_idx, seed);
        let mut recs = records(&log);
        recs.truncate(log.entities.len() + 120);
        sparsify(&mut recs, &mut StdRng::seed_from_u64(seed));
        prop_assert!(recs.iter().any(|r| r.get("bogus").is_some()));

        let (raw, mutable) = (write_raw(&recs), write_mutable(&recs));
        assert_same_contents(&raw, &mutable, "raw vs MutableBackend");
        assert_lookups(&recs, &[&raw, &mutable]);
    }
}

/// The corpus scenario, written four ways: identical corpus rows, equal
/// contents.
#[test]
fn whole_log_four_write_paths_agree() {
    let log = raptor_bench::corpus::corpus_log();
    let recs = records(&log);

    let mut epochs = StreamSession::new().unwrap();
    for ev in &log.events {
        epochs.ingest_chunk(&log, std::slice::from_ref(ev)).unwrap();
    }
    epochs.flush_entities(&log).unwrap();

    let bulk = Engine::new(load::load(&log).unwrap());
    let others = [
        ("raw", Engine::new(write_raw(&recs))),
        ("MutableBackend", Engine::new(write_mutable(&recs))),
    ];
    let others = others.iter().map(|(n, e)| (*n, e)).chain([("one-event epochs", epochs.engine())]);
    for (name, engine) in others {
        assert_same_contents(&engine.stores, &bulk.stores, name);
        for q in QUERIES {
            let (got, _) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
            let (want, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
            assert_eq!(want.rows.len(), 1, "the corpus finds the attack: {q}");
            assert_eq!(got.sorted_rows(), want.sorted_rows(), "{name}: {q}");
        }
    }
}
