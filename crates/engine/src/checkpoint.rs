//! Checkpoints: point-in-time serialization of everything a restart must
//! survive — the shared dictionary, the columnar segments and zone maps of
//! every table, the stream session's epoch/watermark position, and each
//! standing query's accumulated match state.
//!
//! ## Restore strategy: replay through the one write seam
//!
//! A checkpoint is *not* restored by poking bytes back into the backends.
//! Instead, [`decode`] rebuilds the store by replaying every serialized row
//! through the same [`crate::load::append_entity`] / [`append_event`] seam
//! that built it — in the original arrival order, which the checkpoint
//! records as per-epoch `(entities, events)` runs. That makes a recovered
//! store **identical by construction**: both backends, every index, every
//! zone map, and every statistics histogram are rebuilt by the exact code
//! path that produced them, so order-sensitive state (MCV tracking caps,
//! histogram extents, adjacency order) cannot drift. The serialized zone
//! maps are then used as an integrity cross-check of the rebuilt store
//! rather than as the restore source.
//!
//! The dictionary is restored *first*, pinning every interned
//! [`raptor_common::Sym`] to its pre-crash value — symbols embedded in
//! standing-query state stay valid, and all interning during replay is an
//! idempotent no-op.
//!
//! ## File layout
//!
//! ```text
//! [magic u32][version u32][crc32(body) u32][body]
//! body = dict · segment capacity · 4 tables (cells, null flags, zones)
//!        · session meta (epochs, now_ns, ingest stats, arrival runs)
//!        · standing queries (name, TBQL text, opaque state, frontier
//!          state)
//!        · path-catalog digest (flag, canonical length + crc32)
//! ```
//!
//! Each standing query carries its cached [`PathFrontier`] state (so
//! recovery resumes delta-incremental path matching without a cold
//! rebuild), and the image ends with a digest of the path cardinality
//! catalog. The catalog itself is *never* serialized — replay through the
//! load seam rebuilds it by construction — the digest only cross-checks
//! that the rebuilt catalogs (both backends maintain one through the same
//! `record_edge` seam) match what the checkpointed process observed. This
//! is layout version 2, the only one read or written: an image of any other
//! version decodes to the typed `unsupported checkpoint version` error.
//!
//! Corrupt input — truncation, bit flips, implausible lengths — decodes to
//! a typed [`Error::storage`], never a panic.
//!
//! [`PathFrontier`]: raptor_graphstore::PathFrontier
//!
//! [`append_event`]: crate::load::append_event

use raptor_audit::syscall::Protocol;
use raptor_audit::{
    Entity, EntityAttrs, EntityKind, FileAttrs, NetConnAttrs, Operation, ProcessAttrs, SystemEvent,
};
use raptor_common::error::{Error, Result};
use raptor_common::ids::{EntityId, EventId};
use raptor_common::intern::SharedDict;
use raptor_common::io::{self, Cur};
use raptor_common::time::Timestamp;
use raptor_common::Sym;
use raptor_storage::BackendStats;

use crate::load::{self, LoadedStores};
use crate::standing::StandingQuery;

/// File name of the checkpoint inside a durability `Fs`.
pub const CKPT_FILE: &str = "ckpt";

const MAGIC: u32 = 0x5452_434B; // "KCRT" little-endian: reads as "TRCK" tag
const VERSION: u32 = 2;

/// Fixed serialization order of the audit tables.
const TABLES: [&str; 4] = ["files", "processes", "netconns", "events"];

/// Stream-session position and provenance captured alongside the store.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionMeta {
    /// Epochs committed so far (the next epoch number).
    pub epochs: u64,
    /// The store's `now_ns` watermark (max event end time).
    pub now_ns: i64,
    /// Cumulative ingest-side backend stats across all epochs.
    pub total_ingest: BackendStats,
    /// Per-epoch arrival runs `(entities, events)`, in epoch order. Within
    /// an epoch, entities always precede events (the load seam's contract),
    /// so these pairs fully determine global arrival order.
    pub arrival: Vec<(u64, u64)>,
}

/// Everything [`decode`] rebuilds from a checkpoint.
pub struct Restored {
    pub stores: LoadedStores,
    /// Recovered standing queries, in registration order.
    pub queries: Vec<StandingQuery>,
    pub meta: SessionMeta,
    /// Entity + event rows replayed out of the snapshot.
    pub replayed_rows: u64,
}

// ---------------------------------------------------------------------------
// Encoding.
// ---------------------------------------------------------------------------

fn encode_stats(buf: &mut Vec<u8>, s: &BackendStats) {
    for v in [
        s.data_queries,
        s.text_parses,
        s.items_scanned,
        s.items_built,
        s.items_inserted,
        s.index_scans,
        s.full_scans,
        s.edges_traversed,
        s.segments_scanned,
        s.segments_pruned,
    ] {
        io::put_u64(buf, v as u64);
    }
}

fn decode_stats(cur: &mut Cur<'_>) -> Result<BackendStats> {
    let mut s = BackendStats::default();
    for field in [
        &mut s.data_queries,
        &mut s.text_parses,
        &mut s.items_scanned,
        &mut s.items_built,
        &mut s.items_inserted,
        &mut s.index_scans,
        &mut s.full_scans,
        &mut s.edges_traversed,
        &mut s.segments_scanned,
        &mut s.segments_pruned,
    ] {
        *field = cur.get_u64()? as usize;
    }
    Ok(s)
}

fn encode_table(buf: &mut Vec<u8>, t: &raptor_relstore::table::Table) {
    let rows = t.len();
    io::put_u64(buf, rows as u64);
    io::put_u64(buf, t.schema.arity() as u64);
    for col in 0..t.schema.arity() {
        if let Some(ints) = t.int_cells(col) {
            io::put_u8(buf, 0);
            for v in ints {
                io::put_i64(buf, *v);
            }
        } else {
            io::put_u8(buf, 1);
            for s in t.sym_cells(col).expect("column is int or sym") {
                io::put_u32(buf, s.0);
            }
        }
        for null in t.null_flags(col) {
            io::put_u8(buf, *null as u8);
        }
        io::put_u64(buf, t.n_segments() as u64);
        for seg in 0..t.n_segments() {
            let z = t.zone(col, seg);
            io::put_u64(buf, z.ints.count());
            io::put_i64(buf, z.ints.min().unwrap_or(0));
            io::put_i64(buf, z.ints.max().unwrap_or(0));
            io::put_u32(buf, z.nulls);
            io::put_u32(buf, z.rows);
        }
    }
}

/// Serializes a checkpoint of `stores` + `standing` + `meta`.
pub fn encode(
    stores: &LoadedStores,
    standing: &[StandingQuery],
    meta: &SessionMeta,
) -> Result<Vec<u8>> {
    let mut body = Vec::with_capacity(4096);
    // Dictionary, in insertion order: restoring it first pins every Sym.
    io::put_u64(&mut body, stores.dict.len() as u64);
    for (_, s) in stores.dict.iter() {
        io::put_str(&mut body, s);
    }
    let cap = stores
        .rel
        .table(TABLES[0])
        .ok_or_else(|| Error::storage("checkpoint: missing audit table"))?
        .segment_rows();
    io::put_u64(&mut body, cap as u64);
    for name in TABLES {
        let t = stores
            .rel
            .table(name)
            .ok_or_else(|| Error::storage(format!("checkpoint: missing table {name}")))?;
        encode_table(&mut body, t);
    }
    io::put_u64(&mut body, meta.epochs);
    io::put_i64(&mut body, meta.now_ns);
    encode_stats(&mut body, &meta.total_ingest);
    io::put_u64(&mut body, meta.arrival.len() as u64);
    for (ents, evs) in &meta.arrival {
        io::put_u64(&mut body, *ents);
        io::put_u64(&mut body, *evs);
    }
    io::put_u64(&mut body, standing.len() as u64);
    for query in standing {
        io::put_str(&mut body, query.name());
        io::put_str(&mut body, query.text());
        let mut state = Vec::new();
        query.encode_state(&mut state);
        io::put_u64(&mut body, state.len() as u64);
        body.extend_from_slice(&state);
        // The cached path-frontier state, its own length-prefixed blob.
        let mut frontier = Vec::new();
        query.encode_frontier_state(&mut frontier);
        io::put_u64(&mut body, frontier.len() as u64);
        body.extend_from_slice(&frontier);
    }
    // Path-catalog digest (tag 1 = present). The rendering is scratch as
    // large as the image: its block frees it before `out` is allocated.
    {
        let canonical = stores.graph.store_stats().catalog().canonical(&stores.dict);
        let rendered = format!("{canonical:?}");
        io::put_u8(&mut body, 1);
        io::put_u64(&mut body, rendered.len() as u64);
        io::put_u32(&mut body, io::crc32(rendered.as_bytes()));
    }

    let mut out = Vec::with_capacity(12 + body.len());
    io::put_u32(&mut out, MAGIC);
    io::put_u32(&mut out, VERSION);
    io::put_u32(&mut out, io::crc32(&body));
    out.extend_from_slice(&body);
    Ok(out)
}

// ---------------------------------------------------------------------------
// Decoding + replay.
// ---------------------------------------------------------------------------

/// One decoded column: either int cells or dictionary symbols, plus nulls
/// and the serialized zone maps (used as a post-replay integrity check).
struct ColSnap {
    ints: Vec<i64>,
    syms: Vec<u32>,
    nulls: Vec<bool>,
    /// (non-null count, min, max, nulls, rows) per segment.
    zones: Vec<(u64, i64, i64, u32, u32)>,
}

struct TableSnap {
    rows: usize,
    cols: Vec<ColSnap>,
}

fn decode_table(cur: &mut Cur<'_>, arity: usize, n_syms: u32) -> Result<TableSnap> {
    let rows = cur.get_len()?;
    let got_arity = cur.get_len()?;
    if got_arity != arity {
        return Err(Error::storage(format!(
            "checkpoint table arity {got_arity} != schema arity {arity}"
        )));
    }
    let mut cols = Vec::with_capacity(arity);
    for _ in 0..arity {
        let kind = cur.get_u8()?;
        let mut ints = Vec::new();
        let mut syms = Vec::new();
        match kind {
            0 => {
                ints.reserve(rows);
                for _ in 0..rows {
                    ints.push(cur.get_i64()?);
                }
            }
            1 => {
                syms.reserve(rows);
                for _ in 0..rows {
                    let s = cur.get_u32()?;
                    if s >= n_syms {
                        return Err(Error::storage(format!(
                            "checkpoint symbol {s} out of dictionary range {n_syms}"
                        )));
                    }
                    syms.push(s);
                }
            }
            other => {
                return Err(Error::storage(format!("invalid column kind tag {other}")));
            }
        }
        let mut nulls = Vec::with_capacity(rows);
        for _ in 0..rows {
            nulls.push(match cur.get_u8()? {
                0 => false,
                1 => true,
                other => {
                    return Err(Error::storage(format!("invalid null flag {other}")));
                }
            });
        }
        let n_segs = cur.get_len()?;
        let mut zones = Vec::with_capacity(n_segs);
        for _ in 0..n_segs {
            zones.push((
                cur.get_u64()?,
                cur.get_i64()?,
                cur.get_i64()?,
                cur.get_u32()?,
                cur.get_u32()?,
            ));
        }
        cols.push(ColSnap { ints, syms, nulls, zones });
    }
    Ok(TableSnap { rows, cols })
}

fn cell_int(snap: &TableSnap, table: &str, row: usize, col: usize) -> Result<i64> {
    let c = &snap.cols[col];
    if c.nulls.get(row).copied().unwrap_or(true) {
        return Err(Error::storage(format!(
            "checkpoint: unexpected NULL at {table}[{row}][{col}]"
        )));
    }
    c.ints
        .get(row)
        .copied()
        .ok_or_else(|| Error::storage(format!("checkpoint: {table}[{row}][{col}] not an int cell")))
}

fn cell_str(
    snap: &TableSnap,
    dict: &SharedDict,
    table: &str,
    row: usize,
    col: usize,
) -> Result<String> {
    let c = &snap.cols[col];
    if c.nulls.get(row).copied().unwrap_or(true) {
        return Err(Error::storage(format!(
            "checkpoint: unexpected NULL at {table}[{row}][{col}]"
        )));
    }
    let s = c.syms.get(row).copied().ok_or_else(|| {
        Error::storage(format!("checkpoint: {table}[{row}][{col}] not a string cell"))
    })?;
    Ok(dict.resolve(Sym(s)).to_string())
}

fn narrow<T: TryFrom<i64>>(v: i64, what: &str) -> Result<T> {
    T::try_from(v).map_err(|_| Error::storage(format!("checkpoint: {what} {v} out of range")))
}

/// Rebuilds one entity from its snapshot row.
fn entity_at(
    snaps: &[TableSnap],
    dict: &SharedDict,
    kind: EntityKind,
    row: usize,
    id: i64,
) -> Result<Entity> {
    let (ti, table) = match kind {
        EntityKind::File => (0usize, "files"),
        EntityKind::Process => (1, "processes"),
        EntityKind::NetConn => (2, "netconns"),
    };
    let snap = &snaps[ti];
    let attrs = match kind {
        EntityKind::File => EntityAttrs::File(FileAttrs {
            name: cell_str(snap, dict, table, row, 1)?,
            path: cell_str(snap, dict, table, row, 2)?,
            user: cell_str(snap, dict, table, row, 3)?,
            group: cell_str(snap, dict, table, row, 4)?,
        }),
        EntityKind::Process => EntityAttrs::Process(ProcessAttrs {
            pid: narrow(cell_int(snap, table, row, 1)?, "pid")?,
            exename: cell_str(snap, dict, table, row, 2)?,
            user: cell_str(snap, dict, table, row, 3)?,
            group: cell_str(snap, dict, table, row, 4)?,
            cmd: cell_str(snap, dict, table, row, 5)?,
        }),
        EntityKind::NetConn => EntityAttrs::NetConn(NetConnAttrs {
            src_ip: cell_str(snap, dict, table, row, 1)?,
            src_port: narrow(cell_int(snap, table, row, 2)?, "srcport")?,
            dst_ip: cell_str(snap, dict, table, row, 3)?,
            dst_port: narrow(cell_int(snap, table, row, 4)?, "dstport")?,
            protocol: match cell_str(snap, dict, table, row, 5)?.as_str() {
                "tcp" => Protocol::Tcp,
                "udp" => Protocol::Udp,
                other => {
                    return Err(Error::storage(format!("checkpoint: unknown protocol `{other}`")));
                }
            },
        }),
    };
    let host_col = match kind {
        EntityKind::File => 5,
        EntityKind::Process | EntityKind::NetConn => 6,
    };
    Ok(Entity {
        id: EntityId(narrow::<u32>(id, "entity id")?),
        host: narrow(cell_int(snap, table, row, host_col)?, "host")?,
        attrs,
    })
}

/// Rebuilds one event from the events snapshot row.
fn event_at(snap: &TableSnap, dict: &SharedDict, row: usize) -> Result<SystemEvent> {
    let t = "events";
    let op_name = cell_str(snap, dict, t, row, 3)?;
    let op = Operation::from_name(&op_name)
        .ok_or_else(|| Error::storage(format!("checkpoint: unknown operation `{op_name}`")))?;
    let kind = match cell_str(snap, dict, t, row, 4)?.as_str() {
        "file" => raptor_audit::EventKind::File,
        "process" => raptor_audit::EventKind::Process,
        "network" => raptor_audit::EventKind::Network,
        other => {
            return Err(Error::storage(format!("checkpoint: unknown event kind `{other}`")));
        }
    };
    let start = cell_int(snap, t, row, 5)?;
    let end = cell_int(snap, t, row, 6)?;
    let duration = cell_int(snap, t, row, 7)?;
    if end - start != duration {
        return Err(Error::storage("checkpoint: event duration inconsistent with start/end"));
    }
    Ok(SystemEvent {
        id: EventId(narrow::<u32>(cell_int(snap, t, row, 0)?, "event id")?),
        subject: EntityId(narrow::<u32>(cell_int(snap, t, row, 1)?, "subject id")?),
        object: EntityId(narrow::<u32>(cell_int(snap, t, row, 2)?, "object id")?),
        op,
        kind,
        start: Timestamp(start),
        end: Timestamp(end),
        amount: narrow(cell_int(snap, t, row, 8)?, "amount")?,
        fail_code: narrow(cell_int(snap, t, row, 9)?, "failcode")?,
        host: narrow(cell_int(snap, t, row, 10)?, "host")?,
    })
}

/// Cross-checks the rebuilt table's zone maps against the serialized ones.
/// Any divergence means the replay did not reproduce the checkpointed store
/// — corrupt input or a logic drift — and recovery must not proceed.
fn check_zones(t: &raptor_relstore::table::Table, snap: &TableSnap, name: &str) -> Result<()> {
    if t.len() != snap.rows {
        return Err(Error::storage(format!(
            "checkpoint integrity: {name} rebuilt {} rows, snapshot has {}",
            t.len(),
            snap.rows
        )));
    }
    for (col, cs) in snap.cols.iter().enumerate() {
        if t.n_segments() != cs.zones.len() {
            return Err(Error::storage(format!(
                "checkpoint integrity: {name}.{col} segment count mismatch"
            )));
        }
        for (seg, &(count, min, max, nulls, rows)) in cs.zones.iter().enumerate() {
            let z = t.zone(col, seg);
            let same = z.ints.count() == count
                && z.ints.min().unwrap_or(0) == min
                && z.ints.max().unwrap_or(0) == max
                && z.nulls == nulls
                && z.rows == rows;
            if !same {
                return Err(Error::storage(format!(
                    "checkpoint integrity: {name}.{col} zone {seg} diverged after replay"
                )));
            }
        }
    }
    Ok(())
}

/// Decodes a checkpoint and rebuilds the full session state (see module
/// docs for the replay strategy).
pub fn decode(bytes: &[u8]) -> Result<Restored> {
    let mut cur = Cur::new(bytes);
    if cur.get_u32()? != MAGIC {
        return Err(Error::storage("not a ThreatRaptor checkpoint (bad magic)"));
    }
    let version = cur.get_u32()?;
    if version != VERSION {
        return Err(Error::storage(format!("unsupported checkpoint version {version}")));
    }
    let crc = cur.get_u32()?;
    let body = &bytes[cur.pos()..];
    if io::crc32(body) != crc {
        return Err(Error::storage("checkpoint checksum mismatch (corrupt file)"));
    }

    // 1. Dictionary first: pins every Sym to its pre-crash value.
    let n_syms = cur.get_len()?;
    let dict = SharedDict::new();
    for i in 0..n_syms {
        let s = cur.get_str()?;
        let sym = dict.intern(&s);
        if sym.index() != i {
            return Err(Error::storage("checkpoint dictionary has duplicate strings"));
        }
    }
    let cap = cur.get_len()?;
    if cap == 0 {
        return Err(Error::storage("checkpoint: zero segment capacity"));
    }

    // 2. Fresh stores around the restored dictionary, at the recorded
    //    segment capacity.
    let mut stores = load::empty_with_dict(dict.clone())?;
    stores.rel.set_segment_rows(cap);

    // 3. Decode the four table snapshots.
    let mut snaps = Vec::with_capacity(TABLES.len());
    for name in TABLES {
        let arity = stores
            .rel
            .table(name)
            .ok_or_else(|| Error::storage(format!("missing table {name}")))?
            .schema
            .arity();
        snaps.push(decode_table(&mut cur, arity, n_syms as u32)?);
    }

    // 4. Session meta.
    let mut meta = SessionMeta {
        epochs: cur.get_u64()?,
        now_ns: cur.get_i64()?,
        total_ingest: decode_stats(&mut cur)?,
        arrival: Vec::new(),
    };
    let n_runs = cur.get_len()?;
    for _ in 0..n_runs {
        let ents = cur.get_u64()?;
        let evs = cur.get_u64()?;
        meta.arrival.push((ents, evs));
    }

    // 5. Replay every row through the load seam, in recorded arrival order.
    //    Entity ids are dense and ascending, so the id → (kind, row) map
    //    drives the interleave.
    let mut by_id: Vec<Option<(EntityKind, usize)>> = Vec::new();
    let total_entities: usize = snaps[..3].iter().map(|s| s.rows).sum();
    by_id.resize(total_entities, None);
    for (ti, kind) in
        [(0usize, EntityKind::File), (1, EntityKind::Process), (2, EntityKind::NetConn)]
    {
        for row in 0..snaps[ti].rows {
            let id = cell_int(&snaps[ti], TABLES[ti], row, 0)?;
            let slot =
                by_id
                    .get_mut(usize::try_from(id).map_err(|_| {
                        Error::storage(format!("checkpoint: negative entity id {id}"))
                    })?)
                    .ok_or_else(|| {
                        Error::storage(format!("checkpoint: entity id {id} out of dense range"))
                    })?;
            if slot.replace((kind, row)).is_some() {
                return Err(Error::storage(format!("checkpoint: duplicate entity id {id}")));
            }
        }
    }
    let run_total: (u64, u64) =
        meta.arrival.iter().fold((0, 0), |(e, v), (re, rv)| (e + re, v + rv));
    if run_total.0 != total_entities as u64 || run_total.1 != snaps[3].rows as u64 {
        return Err(Error::storage(format!(
            "checkpoint: arrival runs cover {}/{} rows, tables hold {}/{}",
            run_total.0, run_total.1, total_entities, snaps[3].rows
        )));
    }

    let mut stats = BackendStats::default();
    let mut next_entity = 0usize;
    let mut next_event = 0usize;
    for &(run_ents, run_evs) in &meta.arrival {
        for _ in 0..run_ents {
            let (kind, row) = by_id[next_entity].ok_or_else(|| {
                Error::storage(format!("checkpoint: missing entity id {next_entity}"))
            })?;
            let e = entity_at(&snaps, &dict, kind, row, next_entity as i64)?;
            load::append_entity(&mut stores, &e, &mut stats)?;
            next_entity += 1;
        }
        for _ in 0..run_evs {
            let ev = event_at(&snaps[3], &dict, next_event)?;
            if ev.subject.index() >= next_entity || ev.object.index() >= next_entity {
                return Err(Error::storage(format!(
                    "checkpoint: event {next_event} references a not-yet-arrived entity"
                )));
            }
            load::append_event(&mut stores, &ev, &mut stats)?;
            next_event += 1;
        }
    }

    // 6. Integrity: the rebuilt zone maps must match the serialized ones.
    for (ti, name) in TABLES.iter().enumerate() {
        let t = stores.rel.table(name).ok_or_else(|| Error::storage("missing table"))?;
        check_zones(t, &snaps[ti], name)?;
    }
    if stores.now_ns > meta.now_ns {
        return Err(Error::storage("checkpoint: now_ns behind replayed events"));
    }
    stores.now_ns = meta.now_ns;

    // 7. Standing queries: recompile the registered text, restore state.
    let n_standing = cur.get_len()?;
    let mut queries = Vec::with_capacity(n_standing);
    for _ in 0..n_standing {
        let name = cur.get_str()?;
        let text = cur.get_str()?;
        let state_len = cur.get_len()?;
        let state = cur.get_bytes(state_len)?;
        let mut q = StandingQuery::new(name, &text, dict.clone())
            .map_err(|e| Error::storage(format!("checkpoint: bad standing query: {e}")))?;
        q.decode_state(&mut Cur::new(state))?;
        let frontier_len = cur.get_len()?;
        let frontier = cur.get_bytes(frontier_len)?;
        q.decode_frontier_state(&mut Cur::new(frontier))?;
        queries.push(q);
    }

    // 8. Cross-check the rebuilt path catalogs against the digest the
    //    checkpointed process recorded. Tag 0 (no digest) is what a build
    //    with the since-retired catalog escape hatch wrote when the hatch
    //    was pulled; such an image has nothing to check against.
    match cur.get_u8()? {
        0 => {}
        1 => {
            let len = cur.get_u64()?;
            let crc = cur.get_u32()?;
            for (backend, s) in
                [("graph", stores.graph.store_stats()), ("relational", stores.rel.store_stats())]
            {
                let rendered = format!("{:?}", s.catalog().canonical(&dict));
                if rendered.len() as u64 != len || io::crc32(rendered.as_bytes()) != crc {
                    return Err(Error::storage(format!(
                        "checkpoint integrity: {backend} path catalog diverged after replay"
                    )));
                }
            }
        }
        other => {
            return Err(Error::storage(format!("invalid catalog digest tag {other}")));
        }
    }
    if !cur.is_done() {
        return Err(Error::storage(format!(
            "checkpoint: {} trailing bytes after decode",
            cur.remaining()
        )));
    }

    let replayed_rows = (next_entity + next_event) as u64;
    Ok(Restored { stores, queries, meta, replayed_rows })
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_audit::sim::Simulator;
    use raptor_audit::LogParser;

    fn sample_log() -> raptor_audit::ParsedLog {
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

    fn meta_for(log: &raptor_audit::ParsedLog, now_ns: i64) -> SessionMeta {
        SessionMeta {
            epochs: 1,
            now_ns,
            total_ingest: BackendStats::default(),
            arrival: vec![(log.entities.len() as u64, log.events.len() as u64)],
        }
    }

    #[test]
    fn roundtrip_rebuilds_identical_store() {
        let log = sample_log();
        let stores = load::load(&log).unwrap();
        let meta = meta_for(&log, stores.now_ns);
        let bytes = encode(&stores, &[], &meta).unwrap();
        let restored = decode(&bytes).unwrap();
        assert_eq!(restored.meta, meta);
        assert_eq!(restored.replayed_rows as usize, log.entities.len() + log.events.len());
        // Same stats (covers dict, histograms, degree maps), same rows.
        assert_eq!(restored.stores.rel.store_stats(), stores.rel.store_stats());
        assert_eq!(restored.stores.graph.node_count(), stores.graph.node_count());
        assert_eq!(restored.stores.graph.edge_count(), stores.graph.edge_count());
        assert_eq!(restored.stores.now_ns, stores.now_ns);
        assert_eq!(restored.stores.dict.len(), stores.dict.len());
        // Dictionary is pinned string-for-string.
        for (sym, s) in stores.dict.iter() {
            assert_eq!(restored.stores.dict.resolve(sym), s);
        }
    }

    /// One layout is decoded. An image of any other version — the retired
    /// v1 or one never shipped — is refused with the typed version error on
    /// its header alone, whatever its body holds: no panic, no partial
    /// restore.
    #[test]
    fn other_checkpoint_versions_are_refused() {
        let log = sample_log();
        let stores = load::load(&log).unwrap();
        let meta = meta_for(&log, stores.now_ns);
        let current = encode(&stores, &[], &meta).unwrap();
        for version in [0u32, 1, 3, u32::MAX] {
            let mut image = current.clone();
            image[4..8].copy_from_slice(&version.to_le_bytes());
            let err = decode(&image).map(|_| ()).unwrap_err();
            assert_eq!(err.kind, raptor_common::error::ErrorKind::Storage);
            assert_eq!(err.message, format!("unsupported checkpoint version {version}"));
        }
    }

    /// The current version round-trips standing state *and* the catalog
    /// digest: replay must reproduce the exact catalog or decode refuses.
    #[test]
    fn v2_roundtrip_checks_catalog_digest() {
        let log = sample_log();
        let stores = load::load(&log).unwrap();
        let meta = meta_for(&log, stores.now_ns);
        let bytes = encode(&stores, &[], &meta).unwrap();
        let restored = decode(&bytes).unwrap();
        assert_eq!(
            restored.stores.rel.store_stats().catalog().canonical(&restored.stores.dict),
            stores.graph.store_stats().catalog().canonical(&stores.dict),
            "both rebuilt catalogs must match the encoded digest's source"
        );
    }

    #[test]
    fn corrupt_checkpoints_error_cleanly() {
        let log = sample_log();
        let stores = load::load(&log).unwrap();
        let meta = meta_for(&log, stores.now_ns);
        let clean = encode(&stores, &[], &meta).unwrap();
        // Zero-length and truncated-at-every-boundary inputs.
        assert!(decode(&[]).is_err());
        for cut in [1, 4, 11, 12, clean.len() / 2, clean.len() - 1] {
            assert!(decode(&clean[..cut]).is_err(), "cut at {cut} must error");
        }
        // Bit flips anywhere must be caught (header checks or crc).
        for i in (0..clean.len()).step_by(7) {
            let mut corrupt = clean.clone();
            corrupt[i] ^= 0x10;
            assert!(decode(&corrupt).is_err(), "flip at {i} must error");
        }
    }
}
