//! Checkpoints: a **manifest** over the write-ahead log.
//!
//! The log ([`crate::wal`]) is the only on-disk form of rows: every entity
//! and event is in it, in arrival order, under its epoch's CRC. A
//! checkpoint therefore holds no rows. It holds what a restart cannot get
//! from the log — the shared dictionary and each standing query's
//! accumulated state — plus the binding to the log prefix it summarises.
//!
//! ## Restore strategy: replay through the one write seam
//!
//! A restart rebuilds the store by replaying the log through the same
//! [`crate::load::append_entity`] / [`append_event`] seam that built it, in
//! the order the log holds. That makes a recovered store **identical by
//! construction**: both backends, every index and every statistics
//! histogram are rebuilt by the exact code path that produced them, so
//! order-sensitive state (MCV tracking caps, histogram extents,
//! adjacency order) cannot drift. The manifest only lets that replay skip
//! standing-query advancement below `log_len` (their state at that point is
//! in the manifest) — removing the checkpoint file leaves a log that
//! rebuilds the same session on its own.
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
//! body = dict
//!        · log binding (log_len, epochs, rows, now_ns, ingest stats)
//!        · standing queries (name, TBQL text, opaque state, frontier
//!          state)
//!        · path-catalog digest (crc32 of the catalog's canonical bytes)
//! ```
//!
//! `log_len` is a byte offset into the log that is always a durable point
//! (the end of an epoch's or a registration's frame, fsynced before the
//! manifest was written). `epochs`, `rows`, `now_ns` and the
//! ingest stats are what replaying `log[..log_len]` must reproduce: they are
//! **compared** with the replayed session, never assigned to it, and a
//! mismatch is the typed `diverged after replay` error. So is a mismatch of
//! the path-catalog digest, checked against the catalog the replay rebuilt
//! in the relational store's statistics — the one copy (the catalog itself
//! is never serialized). Earlier layouts also carried every table's
//! cells; the bytes replay reads now are the log's, and each log frame has
//! its own CRC.
//!
//! Each standing query carries its cached [`PathFrontier`] state, so
//! recovery resumes delta-incremental path matching without a cold rebuild.
//! This is layout version 4, the only one read or written: an image of any
//! other version decodes to the typed `unsupported checkpoint version`
//! error.
//!
//! Corrupt input — truncation, bit flips, implausible lengths — decodes to
//! a typed [`Error::storage`], never a panic.
//!
//! [`PathFrontier`]: raptor_graphstore::PathFrontier
//!
//! [`append_event`]: crate::load::append_event

use raptor_common::error::{Error, Result};
use raptor_common::intern::SharedDict;
use raptor_common::io::{self, Cur};
use raptor_storage::BackendStats;

use crate::load::{self, LoadedStores};
use crate::standing::StandingQuery;

/// File name of the checkpoint inside a durability `Fs`.
pub const CKPT_FILE: &str = "ckpt";

const MAGIC: u32 = 0x5452_434B; // "KCRT" little-endian: reads as "TRCK" tag
const VERSION: u32 = 4;

/// The log prefix a manifest summarises, and the session position that
/// replaying exactly that prefix reproduces.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SessionMeta {
    /// Byte length of the summarised log prefix (always a durable point).
    pub log_len: u64,
    /// Epochs committed so far (the next epoch number).
    pub epochs: u64,
    /// Entity + event rows in the store (= the entities and events the log
    /// prefix's epochs hold).
    pub rows: u64,
    /// The store's `now_ns` watermark (max event end time).
    pub now_ns: i64,
    /// Cumulative ingest-side backend stats across all epochs.
    pub total_ingest: BackendStats,
}

/// What [`decode`] reads out of a checkpoint besides the empty stores it
/// builds around the restored dictionary.
pub struct Manifest {
    /// Standing queries with their state at `meta.log_len`, in registration
    /// order.
    pub queries: Vec<StandingQuery>,
    pub meta: SessionMeta,
    catalog_digest: u32,
}

impl Manifest {
    /// Cross-checks a session rebuilt by replaying `log[..log_len]` — its
    /// position `replayed` and its `stores` — against what the checkpointed
    /// process recorded there. Any divergence means the log prefix is not
    /// the one this manifest summarises, or a logic drift — recovery must
    /// not proceed.
    pub fn check_replayed(&self, stores: &LoadedStores, replayed: &SessionMeta) -> Result<()> {
        if *replayed != self.meta {
            return Err(Error::storage(format!(
                "checkpoint integrity: session diverged after replay: the log rebuilt \
                 {replayed:?}, the checkpoint recorded {:?}",
                self.meta
            )));
        }
        if stores.rel.store_stats().catalog().digest() != self.catalog_digest {
            return Err(Error::storage("checkpoint integrity: path catalog diverged after replay"));
        }
        Ok(())
    }
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
    ] {
        *field = cur.get_u64()? as usize;
    }
    Ok(s)
}

/// Serializes the manifest of `stores` + `standing` at position `meta`.
pub fn encode(stores: &LoadedStores, standing: &[StandingQuery], meta: &SessionMeta) -> Vec<u8> {
    let mut body = Vec::with_capacity(4096);
    // Dictionary, in insertion order: restoring it first pins every Sym.
    io::put_u64(&mut body, stores.dict.len() as u64);
    for (_, s) in stores.dict.iter() {
        io::put_str(&mut body, s);
    }
    io::put_u64(&mut body, meta.log_len);
    io::put_u64(&mut body, meta.epochs);
    io::put_u64(&mut body, meta.rows);
    io::put_i64(&mut body, meta.now_ns);
    encode_stats(&mut body, &meta.total_ingest);
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
    io::put_u32(&mut body, stores.rel.store_stats().catalog().digest());

    let mut out = Vec::with_capacity(12 + body.len());
    io::put_u32(&mut out, MAGIC);
    io::put_u32(&mut out, VERSION);
    io::put_u32(&mut out, io::crc32(&body));
    out.extend_from_slice(&body);
    out
}

// ---------------------------------------------------------------------------
// Decoding.
// ---------------------------------------------------------------------------

/// Decodes a checkpoint into empty stores around its dictionary and the
/// [`Manifest`] to install once the log
/// has been replayed up to `meta.log_len` (see module docs).
pub fn decode(bytes: &[u8]) -> Result<(LoadedStores, Manifest)> {
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

    // Dictionary first: pins every Sym to its pre-crash value.
    let n_syms = cur.get_len()?;
    let dict = SharedDict::new();
    for i in 0..n_syms {
        let s = cur.get_str()?;
        let sym = dict.intern(&s);
        if sym.index() != i {
            return Err(Error::storage("checkpoint dictionary has duplicate strings"));
        }
    }
    let stores = load::empty_with_dict(dict.clone())?;

    let meta = SessionMeta {
        log_len: cur.get_u64()?,
        epochs: cur.get_u64()?,
        rows: cur.get_u64()?,
        now_ns: cur.get_i64()?,
        total_ingest: decode_stats(&mut cur)?,
    };

    // Standing queries: recompile the registered text, restore state.
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
    let catalog_digest = cur.get_u32()?;
    if !cur.is_done() {
        return Err(Error::storage(format!(
            "checkpoint: {} trailing bytes after decode",
            cur.remaining()
        )));
    }
    Ok((stores, Manifest { queries, meta, catalog_digest }))
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_audit::sim::Simulator;
    use raptor_audit::LogParser;
    use raptor_common::error::ErrorKind;
    use raptor_common::time::Timestamp;

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

    fn meta_for(stores: &LoadedStores) -> SessionMeta {
        SessionMeta {
            log_len: 4242,
            epochs: 1,
            rows: stores.rel.total_rows() as u64,
            now_ns: stores.now_ns,
            total_ingest: BackendStats::default(),
        }
    }

    /// The image restores the dictionary string-for-string and binds the
    /// manifest to a log prefix; the rows come back by replaying that
    /// prefix into the decoded stores, after which the cross-check passes
    /// and the rebuilt store equals the original.
    #[test]
    fn roundtrip_rebuilds_identical_store() {
        let log = sample_log();
        let stores = load::load(&log).unwrap();
        let meta = meta_for(&stores);
        let (mut restored, manifest) = decode(&encode(&stores, &[], &meta)).unwrap();
        assert_eq!(manifest.meta, meta);
        assert_eq!(restored.rel.total_rows(), 0, "a manifest holds no rows");
        assert_eq!(restored.dict.len(), stores.dict.len());
        for (sym, s) in stores.dict.iter() {
            assert_eq!(restored.dict.resolve(sym), s);
        }
        load::append_log(&mut restored, &log, &mut BackendStats::default()).unwrap();
        manifest.check_replayed(&restored, &meta).unwrap();
        // Same stats (covers histograms, degree maps, the path catalog).
        assert_eq!(restored.rel.store_stats(), stores.rel.store_stats());
        assert_eq!(restored.now_ns, stores.now_ns);
    }

    /// A replay that lands anywhere else — another position, or the same
    /// position over other edges — is refused with the typed error.
    #[test]
    fn a_diverged_replay_is_refused() {
        let stores = load::load(&sample_log()).unwrap();
        let meta = meta_for(&stores);
        let (mut restored, manifest) = decode(&encode(&stores, &[], &meta)).unwrap();
        let diverged = |r: Result<()>| {
            let err = r.unwrap_err();
            assert_eq!(err.kind, ErrorKind::Storage);
            assert!(err.message.contains("diverged after replay"), "{err}");
        };
        // Same position claimed, one event short: the catalogs differ.
        let mut short = sample_log();
        short.events.pop();
        load::append_log(&mut restored, &short, &mut BackendStats::default()).unwrap();
        diverged(manifest.check_replayed(&restored, &meta));
        // Same store, another position.
        for moved in [
            SessionMeta { epochs: 2, ..meta.clone() },
            SessionMeta { rows: meta.rows - 1, ..meta.clone() },
            SessionMeta { now_ns: meta.now_ns + 1, ..meta.clone() },
            SessionMeta { log_len: 0, ..meta.clone() },
        ] {
            diverged(manifest.check_replayed(&stores, &moved));
        }
        manifest.check_replayed(&stores, &meta).unwrap();
    }

    /// One layout is decoded. An image of any other version — the retired
    /// v1 to v3, or one never shipped — is refused with the typed version
    /// error on its header alone, whatever its body holds: no panic, no
    /// partial restore.
    #[test]
    fn other_checkpoint_versions_are_refused() {
        let log = sample_log();
        let stores = load::load(&log).unwrap();
        let current = encode(&stores, &[], &meta_for(&stores));
        for version in [0u32, 1, 2, 3, 5, u32::MAX] {
            let mut image = current.clone();
            image[4..8].copy_from_slice(&version.to_le_bytes());
            let err = decode(&image).map(|_| ()).unwrap_err();
            assert_eq!(err.kind, ErrorKind::Storage);
            assert_eq!(err.message, format!("unsupported checkpoint version {version}"));
        }
    }

    #[test]
    fn corrupt_checkpoints_error_cleanly() {
        let log = sample_log();
        let stores = load::load(&log).unwrap();
        let clean = encode(&stores, &[], &meta_for(&stores));
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
