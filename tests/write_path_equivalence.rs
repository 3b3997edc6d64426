//! Write-path equivalence.
//!
//! Every way of getting a record into the stores funnels into one appender
//! per store, which addresses tables, columns, indexes and statistics by
//! ordinals resolved once. Two properties pin that:
//!
//! 1. **Sparse records** — records with absent attributes, fields in any
//!    order (reshuffled between records, so resolved shapes keep missing)
//!    and an unknown field name, written through raw
//!    `Database::insert` / `Graph::add_node` / `add_edge` and through
//!    `MutableBackend`, build stores with equal statistics and identical
//!    hash / B-tree / trigram / graph value-index lookups for every inserted
//!    key — each also checked against a scan of the generated records.
//! 2. **Whole logs** — the same log written raw, through `MutableBackend`,
//!    by bulk `load` and as one-event epochs answers the 8-query corpus
//!    identically and serves equal statistics.

use proptest::prelude::*;
use rand::{rngs::StdRng, Rng, SeedableRng};
use threatraptor::audit::{Entity, EntityAttrs, ParsedLog, SystemEvent};
use threatraptor::engine::exec::ExecMode;
use threatraptor::engine::load::{self, class_for_kind, LoadedStores};
use threatraptor::engine::Engine;
use threatraptor::graphstore::backend::label_for_class;
use threatraptor::graphstore::{NodeId, PropValue};
use threatraptor::relstore::db::Ins;
use threatraptor::storage::{BackendStats, EntityClass, Field, FieldValue, MutableBackend};
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

/// Raw inserts: rows in schema column order (absent attributes are NULL),
/// nodes and edges with their properties spelled out. Neither store is
/// given the field its schema does not know.
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

        let fields = r.fields();
        let props: Vec<Field<'_>> = std::iter::once(("id", FieldValue::Int(r.id)))
            .chain(fields.iter().copied().filter(|f| f.0 != "bogus"))
            .collect();
        match r.class {
            Some(class) => {
                stores.graph.add_node(label_for_class(class), &props);
            }
            None => {
                let (s, o) = (NodeId(r.ends.0 as u32), NodeId(r.ends.1 as u32));
                stores.graph.add_edge(s, o, load::LABEL_EVENT, &props).unwrap();
            }
        }
    }
    stores
}

/// The same records through each store's `MutableBackend`.
fn write_mutable(recs: &[Rec]) -> LoadedStores {
    let mut stores = load::empty().unwrap();
    let mut stats = BackendStats::default();
    for r in recs {
        let fields = r.fields();
        let graph_fields: Vec<Field<'_>> =
            fields.iter().copied().filter(|f| f.0 != "bogus").collect();
        match r.class {
            Some(class) => {
                stores.rel.insert_entity(class, r.id, &fields, &mut stats).unwrap();
                stores.graph.insert_entity(class, r.id, &graph_fields, &mut stats).unwrap();
            }
            None => {
                let (s, o) = r.ends;
                stores.rel.insert_event(r.id, s, o, &fields, &mut stats).unwrap();
                stores.graph.insert_event(r.id, s, o, &graph_fields, &mut stats).unwrap();
            }
        }
    }
    assert_eq!(stats.items_inserted, 2 * recs.len());
    stores
}

fn ids(stores: &LoadedStores, sql: &str) -> (Vec<i64>, usize) {
    let r = stores.rel.query(sql).unwrap();
    let mut ids: Vec<i64> = r.rows().iter().map(|row| row[0].as_int().unwrap()).collect();
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
    // (table, graph label, column): hash + trigram + graph value index.
    let keyed = [
        ("files", "File", "name"),
        ("processes", "Process", "exename"),
        ("netconns", "NetConn", "dstip"),
    ];
    for r in recs {
        for &(table, label, col) in keyed.iter().filter(|k| k.0 == r.table()) {
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
                let sym = s.graph.dict().get(v).unwrap();
                let mut nodes: Vec<i64> = s
                    .graph
                    .indexed_nodes(label, col, PropValue::Str(sym))
                    .unwrap()
                    .iter()
                    .map(|n| n.0 as i64)
                    .collect();
                nodes.sort_unstable();
                assert_eq!(nodes, want, "graph index {label}.{col} = {v}");
            }
        }
        // Unique keys: `id` in both stores; `starttime` through the B-tree.
        for s in stores {
            let by_id = ids(s, &format!("SELECT id FROM {} WHERE id = {}", r.table(), r.id));
            assert_eq!(by_id, (vec![r.id], 1));
            if let Some(class) = r.class {
                let label = keyed.iter().find(|k| k.0 == class.table_name()).unwrap().1;
                let found = s.graph.indexed_nodes(label, "id", PropValue::Int(r.id)).unwrap();
                assert_eq!(found, &[NodeId(r.id as u32)]);
            }
        }
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

fn assert_same_stats(a: &LoadedStores, b: &LoadedStores, ctx: &str) {
    // Tables, degree summaries and the path catalog.
    assert_eq!(a.rel.store_stats().canonical(), b.rel.store_stats().canonical(), "{ctx}");
    assert_eq!(a.rel.total_rows(), b.rel.total_rows(), "{ctx}");
    assert_eq!(
        (a.graph.node_count(), a.graph.edge_count()),
        (b.graph.node_count(), b.graph.edge_count()),
        "{ctx}"
    );
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
        assert_same_stats(&raw, &mutable, "raw vs MutableBackend");
        // A column exists once a value was recorded in it: absent
        // attributes and the unknown field leave no trace.
        for t in ["files", "processes", "netconns", "events"] {
            let Some(ts) = mutable.rel.store_stats().table(t) else { continue };
            prop_assert!(ts.column("bogus").is_none());
            for name in ts.column_names() {
                prop_assert!(ts.column(name).unwrap().non_null() > 0);
            }
        }
        assert_lookups(&recs, &[&raw, &mutable]);
    }
}

/// The corpus scenario, written four ways: identical corpus rows, equal
/// statistics.
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
        assert_same_stats(&engine.stores, &bulk.stores, name);
        for q in QUERIES {
            let (got, _) = engine.execute_text(q, ExecMode::Scheduled).unwrap();
            let (want, _) = bulk.execute_text(q, ExecMode::Scheduled).unwrap();
            assert_eq!(want.rows.len(), 1, "the corpus finds the attack: {q}");
            assert_eq!(got.sorted_rows(), want.sorted_rows(), "{name}: {q}");
        }
    }
}
