//! Loading parsed audit data into the storage backends.
//!
//! The paper replicates data across PostgreSQL and Neo4j "which supports the
//! execution of different types of queries and improves data availability",
//! with indexes on key attributes (file name, process executable name,
//! source/destination IP). This module does the same against our embedded
//! engines, using one consistent entity id across both stores.
//!
//! Since the streaming subsystem landed there is exactly **one** write path:
//! [`empty`] creates schemas and indexes up front, and every record —
//! whether bulk-loaded by [`load`] or ingested epoch-by-epoch by
//! `raptor-stream` — goes through [`append_entity`] / [`append_event`],
//! which drive both stores' [`MutableBackend`] implementations. Both stores
//! maintain every index on insert, so an incrementally-grown store is
//! identical-by-construction to a bulk-loaded one.
//!
//! The seam is memory only. Durability sits above it: a durable session
//! logs each epoch as one frame ([`crate::wal`]) and replays those frames
//! through these same appenders.

use raptor_audit::{Entity, EntityAttrs, EntityKind, ParsedLog, SystemEvent};
use raptor_common::error::{Error, Result};
use raptor_common::intern::SharedDict;
use raptor_graphstore::Graph;
use raptor_relstore::{ColumnDef, ColumnType, Database, TableSchema};
use raptor_storage::{BackendStats, EntityClass, Field, FieldValue, MutableBackend};

/// Both backends, loaded with the same data, interning into the same
/// dictionary.
pub struct LoadedStores {
    pub rel: Database,
    pub graph: Graph,
    /// The shared dictionary plane: one append-only, concurrently-readable
    /// dictionary hoisted above both backends, created here and handed to
    /// each store at construction. Equal strings therefore map to equal
    /// [`raptor_common::Sym`]s across the whole pipeline — string equality
    /// in joins, DISTINCT and stream diffing is an integer compare, and
    /// display strings are materialized exactly once, at the edge.
    pub dict: SharedDict,
    /// Max event end time (reference point for `last N unit` windows).
    pub now_ns: i64,
}

/// Node labels used in the graph store.
pub const LABEL_PROCESS: &str = "Process";
pub const LABEL_FILE: &str = "File";
pub const LABEL_NETCONN: &str = "NetConn";
pub const LABEL_EVENT: &str = "EVENT";

/// Table name for an entity kind.
pub fn table_for(kind: EntityKind) -> &'static str {
    match kind {
        EntityKind::File => "files",
        EntityKind::Process => "processes",
        EntityKind::NetConn => "netconns",
    }
}

/// Graph label for an entity kind.
pub fn label_for(kind: EntityKind) -> &'static str {
    match kind {
        EntityKind::File => LABEL_FILE,
        EntityKind::Process => LABEL_PROCESS,
        EntityKind::NetConn => LABEL_NETCONN,
    }
}

fn audit_schema() -> Vec<TableSchema> {
    use ColumnType::*;
    vec![
        TableSchema::new(
            "files",
            vec![
                ColumnDef::new("id", Int),
                ColumnDef::new("name", Str),
                ColumnDef::new("path", Str),
                ColumnDef::new("user", Str),
                ColumnDef::new("group", Str),
                ColumnDef::new("host", Int),
            ],
        ),
        TableSchema::new(
            "processes",
            vec![
                ColumnDef::new("id", Int),
                ColumnDef::new("pid", Int),
                ColumnDef::new("exename", Str),
                ColumnDef::new("user", Str),
                ColumnDef::new("group", Str),
                ColumnDef::new("cmd", Str),
                ColumnDef::new("host", Int),
            ],
        ),
        TableSchema::new(
            "netconns",
            vec![
                ColumnDef::new("id", Int),
                ColumnDef::new("srcip", Str),
                ColumnDef::new("srcport", Int),
                ColumnDef::new("dstip", Str),
                ColumnDef::new("dstport", Int),
                ColumnDef::new("protocol", Str),
                ColumnDef::new("host", Int),
            ],
        ),
        TableSchema::new(
            "events",
            vec![
                ColumnDef::new("id", Int),
                ColumnDef::new("subject", Int),
                ColumnDef::new("object", Int),
                ColumnDef::new("optype", Str),
                ColumnDef::new("kind", Str),
                ColumnDef::new("starttime", Time),
                ColumnDef::new("endtime", Time),
                ColumnDef::new("duration", Int),
                ColumnDef::new("amount", Int),
                ColumnDef::new("failcode", Int),
                ColumnDef::new("host", Int),
            ],
        ),
    ]
}

/// Storage entity class for an audit entity kind.
pub fn class_for_kind(kind: EntityKind) -> EntityClass {
    match kind {
        EntityKind::File => EntityClass::File,
        EntityKind::Process => EntityClass::Process,
        EntityKind::NetConn => EntityClass::NetConn,
    }
}

/// Creates empty stores with the audit schema and every index (paper
/// Section III-B: key attributes, plus id lookups for scheduler
/// propagation). Records appended later maintain all of them.
pub fn empty() -> Result<LoadedStores> {
    empty_with_dict(SharedDict::new())
}

/// [`empty`] over a caller-provided dictionary. The durability plane's
/// recovery path restores the checkpointed dictionary first (pinning every
/// interned [`raptor_common::Sym`] to its pre-crash value) and then rebuilds
/// the stores around it, so symbols inside recovered standing-query state
/// stay valid.
pub fn empty_with_dict(dict: SharedDict) -> Result<LoadedStores> {
    let mut rel = Database::with_dict(dict.clone());
    for schema in audit_schema() {
        rel.create_table(schema)?;
    }
    for (table, col) in [
        ("files", "id"),
        ("files", "name"),
        ("processes", "id"),
        ("processes", "exename"),
        ("netconns", "id"),
        ("netconns", "dstip"),
        ("netconns", "srcip"),
        ("events", "id"),
        ("events", "subject"),
        ("events", "object"),
        ("events", "optype"),
    ] {
        rel.create_hash_index(table, col)?;
    }
    for (table, col) in [("files", "name"), ("processes", "exename"), ("netconns", "dstip")] {
        rel.create_trigram_index(table, col)?;
    }
    rel.create_btree_index("events", "starttime")?;

    let mut graph = Graph::with_dict(dict.clone());
    for (label, key) in [
        (LABEL_PROCESS, "exename"),
        (LABEL_PROCESS, "id"),
        (LABEL_FILE, "name"),
        (LABEL_FILE, "id"),
        (LABEL_NETCONN, "dstip"),
        (LABEL_NETCONN, "id"),
    ] {
        graph.create_node_index(label, key);
    }

    Ok(LoadedStores { rel, graph, dict, now_ns: 0 })
}

/// Appends one entity to both stores through their [`MutableBackend`]s.
///
/// Entities must arrive in dense ascending id order (the audit parser's id
/// space) — graph node ids coincide with entity ids exactly because of this.
/// Strings are interned here, once, and reach both stores as symbols.
pub fn append_entity(
    stores: &mut LoadedStores,
    e: &Entity,
    stats: &mut BackendStats,
) -> Result<()> {
    let id = e.id.index() as i64;
    if id != stores.graph.node_count() as i64 {
        return Err(Error::storage(format!(
            "entity {id} appended out of order (expected {})",
            stores.graph.node_count()
        )));
    }
    let dict = &stores.dict;
    let sym = |s: &str| FieldValue::Sym(dict.intern(s));
    let host = ("host", FieldValue::Int(e.host as i64));
    let class = class_for_kind(e.attrs.kind());
    let mut both = |fields: &[Field<'_>]| -> Result<()> {
        stores.rel.insert_entity(class, id, fields, stats)?;
        stores.graph.insert_entity(class, id, fields, stats)
    };
    match &e.attrs {
        EntityAttrs::File(f) => both(&[
            ("name", sym(&f.name)),
            ("path", sym(&f.path)),
            ("user", sym(&f.user)),
            ("group", sym(&f.group)),
            host,
        ]),
        EntityAttrs::Process(p) => both(&[
            ("pid", FieldValue::Int(p.pid as i64)),
            ("exename", sym(&p.exename)),
            ("user", sym(&p.user)),
            ("group", sym(&p.group)),
            ("cmd", sym(&p.cmd)),
            host,
        ]),
        EntityAttrs::NetConn(n) => both(&[
            ("srcip", sym(&n.src_ip)),
            ("srcport", FieldValue::Int(n.src_port as i64)),
            ("dstip", sym(&n.dst_ip)),
            ("dstport", FieldValue::Int(n.dst_port as i64)),
            ("protocol", sym(n.protocol.name())),
            host,
        ]),
    }
}

/// Appends one event to both stores; advances the `now_ns` watermark. An
/// event naming an entity that was never appended is rejected before it
/// reaches either store, so both stay as they were.
pub fn append_event(
    stores: &mut LoadedStores,
    ev: &SystemEvent,
    stats: &mut BackendStats,
) -> Result<()> {
    let (id, subj, obj) =
        (ev.id.index() as i64, ev.subject.index() as i64, ev.object.index() as i64);
    let nodes = stores.graph.node_count() as i64;
    if subj >= nodes || obj >= nodes {
        return Err(Error::storage(format!(
            "event {id} names entity {} but only {nodes} entities were appended",
            subj.max(obj)
        )));
    }
    let sym = |s: &str| FieldValue::Sym(stores.dict.intern(s));
    let fields: [Field<'_>; 8] = [
        ("optype", sym(ev.op.name())),
        ("kind", sym(ev.kind.name())),
        ("starttime", FieldValue::Int(ev.start.0)),
        ("endtime", FieldValue::Int(ev.end.0)),
        ("duration", FieldValue::Int(ev.duration().0)),
        ("amount", FieldValue::Int(ev.amount as i64)),
        ("failcode", FieldValue::Int(ev.fail_code as i64)),
        ("host", FieldValue::Int(ev.host as i64)),
    ];
    stores.rel.insert_event(id, subj, obj, &fields, stats)?;
    stores.graph.insert_event(id, subj, obj, &fields, stats)?;
    stores.now_ns = stores.now_ns.max(ev.end.0);
    Ok(())
}

/// Appends a whole parsed log (entities first, then events).
pub fn append_log(
    stores: &mut LoadedStores,
    log: &ParsedLog,
    stats: &mut BackendStats,
) -> Result<()> {
    for e in &log.entities {
        append_entity(stores, e, stats)?;
    }
    for ev in &log.events {
        append_event(stores, ev, stats)?;
    }
    Ok(())
}

/// Loads a parsed log into both stores: [`empty`] + [`append_log`]. The
/// streaming path ingests through the very same appenders, so bulk and
/// incremental loads produce identical stores.
pub fn load(log: &ParsedLog) -> Result<LoadedStores> {
    let mut stores = empty()?;
    let mut stats = BackendStats::default();
    append_log(&mut stores, log, &mut stats)?;
    Ok(stores)
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_audit::sim::Simulator;
    use raptor_audit::LogParser;
    use raptor_common::time::Timestamp;

    fn sample_log() -> ParsedLog {
        let mut sim = Simulator::new(5, Timestamp::from_secs(1000));
        let shell = sim.boot_process("/bin/bash", "root");
        let tar = sim.spawn(shell, "/bin/tar", "tar cf /tmp/upload.tar");
        sim.read_file(tar, "/etc/passwd", 4096, 4);
        sim.write_file(tar, "/tmp/upload.tar", 4096, 2);
        let curl = sim.spawn(shell, "/usr/bin/curl", "curl");
        let fd = sim.connect(curl, "192.168.29.128", 443);
        sim.send(curl, fd, 1024, 2);
        sim.exit(curl);
        sim.exit(tar);
        LogParser::parse(&sim.finish())
    }

    #[test]
    fn both_stores_consistent() {
        let log = sample_log();
        let stores = load(&log).unwrap();
        // Same number of entities as rows across entity tables.
        let n_rel: i64 = ["files", "processes", "netconns"]
            .iter()
            .map(|t| stores.rel.query_count(&format!("SELECT COUNT(*) FROM {t}")).unwrap())
            .sum();
        assert_eq!(n_rel as usize, log.entities.len());
        assert_eq!(stores.graph.node_count(), log.entities.len());
        assert_eq!(
            stores.rel.query_count("SELECT COUNT(*) FROM events").unwrap() as usize,
            log.events.len()
        );
        assert_eq!(stores.graph.edge_count(), log.events.len());
    }

    #[test]
    fn indexed_lookup_works_in_both() {
        let stores = load(&sample_log()).unwrap();
        let r =
            stores.rel.query("SELECT id FROM processes WHERE exename LIKE '%/bin/tar%'").unwrap();
        assert_eq!(r.n_rows(), 1);
        assert!(r.stats.index_scans >= 1);
        let sym = stores.graph.dict().get("/bin/tar").unwrap();
        let nodes = stores
            .graph
            .indexed_nodes(LABEL_PROCESS, "exename", raptor_graphstore::PropValue::Str(sym))
            .unwrap();
        assert_eq!(nodes.len(), 1);
        // Same entity id across stores.
        let rel_id = r.row(0)[0].as_int().unwrap();
        let g_id = stores.graph.node_prop(nodes[0], "id").unwrap();
        assert_eq!(g_id, raptor_graphstore::PropValue::Int(rel_id));
    }

    /// An event naming an entity that was never appended is refused before
    /// either store sees it (it used to be inserted relationally before the
    /// graph found the missing endpoint).
    #[test]
    fn event_naming_unknown_entity_changes_nothing() {
        use raptor_common::ids::EntityId;
        let log = sample_log();
        let mut stores = load(&log).unwrap();
        let mut stats = BackendStats::default();
        let state = |s: &LoadedStores, stats: &BackendStats| {
            (
                s.rel.total_rows(),
                (s.graph.node_count(), s.graph.edge_count()),
                s.rel.store_stats().canonical(),
                (s.now_ns, stats.items_inserted),
            )
        };
        let before = state(&stores, &stats);
        let unknown = EntityId::from_usize(log.entities.len());
        for bad in [
            SystemEvent { object: unknown, ..log.events[0].clone() },
            SystemEvent { subject: unknown, ..log.events[0].clone() },
        ] {
            let err = append_event(&mut stores, &bad, &mut stats).unwrap_err();
            assert_eq!(err.kind, raptor_common::error::ErrorKind::Storage, "{err}");
            assert!(state(&stores, &stats) == before);
        }
    }

    #[test]
    fn now_is_max_end_time() {
        let log = sample_log();
        let stores = load(&log).unwrap();
        let max_end = log.events.iter().map(|e| e.end.0).max().unwrap();
        assert_eq!(stores.now_ns, max_end);
    }
}
