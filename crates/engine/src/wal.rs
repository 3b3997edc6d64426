//! The write-ahead log: binary, length-prefixed, checksummed records with
//! epoch/watermark framing.
//!
//! Every mutation that reaches the storage backends goes through the single
//! write seam in [`crate::load`]; when a [`WalSink`] is attached to the
//! [`crate::load::LoadedStores`], each appended entity/event is logged
//! *before* it is applied. Epoch boundaries are framed by an
//! [`WalRecord::EpochCommit`] record (followed by an fsync) — the WAL's
//! durable points. Standing-query registrations are logged as
//! [`WalRecord::Register`] records, which are **self-committing**: a
//! registration never sits inside an epoch's record run, so a synced
//! `Register` extends the durable prefix on its own.
//!
//! ## On-disk record frame
//!
//! ```text
//! [len: u32 le] [crc32(payload): u32 le] [payload: len bytes]
//! payload = [tag: u8] tag-specific fields (little-endian, strings u32-len-prefixed)
//! ```
//!
//! ## The log is the store's durable form
//!
//! The file is never truncated while a session runs: it holds every record
//! since the stream began, and a restart rebuilds the stores by replaying
//! it. A checkpoint ([`crate::checkpoint`]) is a manifest over a prefix of
//! it, written beside it; writing one does not touch this file.
//!
//! [`scan`] reads a WAL byte buffer back tolerantly, one durable unit at a
//! time (a committed epoch's records, or a `Register`): a torn, truncated
//! or checksum-corrupt suffix simply terminates the scan (it is the tail
//! the crash tore — recovery discards it), and valid-but-uncommitted
//! records after the last durable point are discarded too, because the
//! epoch they belong to never committed and will be re-delivered by the
//! source. Whether the scan may stop where it did is the caller's call:
//! below a checkpoint's `log_len` the bytes were fsynced, so stopping there
//! is corruption, not a torn tail. After a torn tail, recovery trims the
//! file to its durable prefix with one atomic replace — a rewrite of the
//! whole log, once per crash, beside a replay that reads all of it anyway.

use std::sync::Arc;
use std::time::Instant;

use raptor_audit::syscall::Protocol;
use raptor_audit::{
    Entity, EntityAttrs, EventKind, FileAttrs, NetConnAttrs, Operation, ProcessAttrs, SystemEvent,
};
use raptor_common::error::{Error, Result};
use raptor_common::ids::{EntityId, EventId};
use raptor_common::io::{self, Cur, Fs};
use raptor_common::obs;
use raptor_common::time::Timestamp;

/// File name of the write-ahead log inside a durability [`Fs`].
pub const WAL_FILE: &str = "wal";

const TAG_ENTITY: u8 = 1;
const TAG_EVENT: u8 = 2;
const TAG_COMMIT: u8 = 3;
const TAG_REGISTER: u8 = 4;

/// One logical WAL record.
#[derive(Clone, Debug, PartialEq)]
pub enum WalRecord {
    /// An appended entity (logged before it reaches the backends).
    Entity(Entity),
    /// An appended event.
    Event(SystemEvent),
    /// Durable point: the epoch's records are complete and fsynced.
    EpochCommit { epoch: u64, watermark: i64 },
    /// A standing-query registration (self-committing durable point).
    Register { name: String, text: String },
}

// ---------------------------------------------------------------------------
// Payload codecs.
// ---------------------------------------------------------------------------

fn kind_tag(kind: EventKind) -> u8 {
    match kind {
        EventKind::File => 0,
        EventKind::Process => 1,
        EventKind::Network => 2,
    }
}

fn kind_from_tag(tag: u8) -> Result<EventKind> {
    match tag {
        0 => Ok(EventKind::File),
        1 => Ok(EventKind::Process),
        2 => Ok(EventKind::Network),
        other => Err(Error::storage(format!("invalid event kind tag {other}"))),
    }
}

fn put_entity(buf: &mut Vec<u8>, e: &Entity) {
    io::put_u32(buf, e.id.0);
    io::put_u16(buf, e.host);
    match &e.attrs {
        EntityAttrs::File(f) => {
            io::put_u8(buf, 0);
            io::put_str(buf, &f.name);
            io::put_str(buf, &f.path);
            io::put_str(buf, &f.user);
            io::put_str(buf, &f.group);
        }
        EntityAttrs::Process(p) => {
            io::put_u8(buf, 1);
            io::put_u32(buf, p.pid);
            io::put_str(buf, &p.exename);
            io::put_str(buf, &p.user);
            io::put_str(buf, &p.group);
            io::put_str(buf, &p.cmd);
        }
        EntityAttrs::NetConn(n) => {
            io::put_u8(buf, 2);
            io::put_str(buf, &n.src_ip);
            io::put_u16(buf, n.src_port);
            io::put_str(buf, &n.dst_ip);
            io::put_u16(buf, n.dst_port);
            io::put_u8(
                buf,
                match n.protocol {
                    Protocol::Tcp => 0,
                    Protocol::Udp => 1,
                },
            );
        }
    }
}

fn get_entity(cur: &mut Cur<'_>) -> Result<Entity> {
    let id = EntityId(cur.get_u32()?);
    let host = cur.get_u16()?;
    let attrs = match cur.get_u8()? {
        0 => EntityAttrs::File(FileAttrs {
            name: cur.get_str()?,
            path: cur.get_str()?,
            user: cur.get_str()?,
            group: cur.get_str()?,
        }),
        1 => EntityAttrs::Process(ProcessAttrs {
            pid: cur.get_u32()?,
            exename: cur.get_str()?,
            user: cur.get_str()?,
            group: cur.get_str()?,
            cmd: cur.get_str()?,
        }),
        2 => EntityAttrs::NetConn(NetConnAttrs {
            src_ip: cur.get_str()?,
            src_port: cur.get_u16()?,
            dst_ip: cur.get_str()?,
            dst_port: cur.get_u16()?,
            protocol: match cur.get_u8()? {
                0 => Protocol::Tcp,
                1 => Protocol::Udp,
                other => {
                    return Err(Error::storage(format!("invalid protocol tag {other}")));
                }
            },
        }),
        other => return Err(Error::storage(format!("invalid entity kind tag {other}"))),
    };
    Ok(Entity { id, host, attrs })
}

fn put_event(buf: &mut Vec<u8>, ev: &SystemEvent) {
    io::put_u32(buf, ev.id.0);
    io::put_u32(buf, ev.subject.0);
    io::put_u32(buf, ev.object.0);
    let op = Operation::ALL.iter().position(|o| *o == ev.op).expect("op in ALL") as u8;
    io::put_u8(buf, op);
    io::put_u8(buf, kind_tag(ev.kind));
    io::put_i64(buf, ev.start.0);
    io::put_i64(buf, ev.end.0);
    io::put_u64(buf, ev.amount);
    io::put_i32(buf, ev.fail_code);
    io::put_u16(buf, ev.host);
}

fn get_event(cur: &mut Cur<'_>) -> Result<SystemEvent> {
    let id = EventId(cur.get_u32()?);
    let subject = EntityId(cur.get_u32()?);
    let object = EntityId(cur.get_u32()?);
    let op_tag = cur.get_u8()? as usize;
    let op = *Operation::ALL
        .get(op_tag)
        .ok_or_else(|| Error::storage(format!("invalid operation tag {op_tag}")))?;
    let kind = kind_from_tag(cur.get_u8()?)?;
    let start = Timestamp(cur.get_i64()?);
    let end = Timestamp(cur.get_i64()?);
    let amount = cur.get_u64()?;
    let fail_code = cur.get_i32()?;
    let host = cur.get_u16()?;
    Ok(SystemEvent { id, subject, object, op, kind, start, end, amount, fail_code, host })
}

fn encode_payload(rec: &WalRecord) -> Vec<u8> {
    let mut buf = Vec::with_capacity(64);
    match rec {
        WalRecord::Entity(e) => {
            io::put_u8(&mut buf, TAG_ENTITY);
            put_entity(&mut buf, e);
        }
        WalRecord::Event(ev) => {
            io::put_u8(&mut buf, TAG_EVENT);
            put_event(&mut buf, ev);
        }
        WalRecord::EpochCommit { epoch, watermark } => {
            io::put_u8(&mut buf, TAG_COMMIT);
            io::put_u64(&mut buf, *epoch);
            io::put_i64(&mut buf, *watermark);
        }
        WalRecord::Register { name, text } => {
            io::put_u8(&mut buf, TAG_REGISTER);
            io::put_str(&mut buf, name);
            io::put_str(&mut buf, text);
        }
    }
    buf
}

fn decode_payload(payload: &[u8]) -> Result<WalRecord> {
    let mut cur = Cur::new(payload);
    let rec = match cur.get_u8()? {
        TAG_ENTITY => WalRecord::Entity(get_entity(&mut cur)?),
        TAG_EVENT => WalRecord::Event(get_event(&mut cur)?),
        TAG_COMMIT => WalRecord::EpochCommit { epoch: cur.get_u64()?, watermark: cur.get_i64()? },
        TAG_REGISTER => WalRecord::Register { name: cur.get_str()?, text: cur.get_str()? },
        other => return Err(Error::storage(format!("invalid WAL record tag {other}"))),
    };
    if !cur.is_done() {
        return Err(Error::storage(format!(
            "trailing {} bytes inside WAL record payload",
            cur.remaining()
        )));
    }
    Ok(rec)
}

/// Frames a record for appending: `[len][crc][payload]`.
pub fn frame(rec: &WalRecord) -> Vec<u8> {
    let payload = encode_payload(rec);
    let mut out = Vec::with_capacity(8 + payload.len());
    io::put_u32(&mut out, payload.len() as u32);
    io::put_u32(&mut out, io::crc32(&payload));
    out.extend_from_slice(&payload);
    out
}

// ---------------------------------------------------------------------------
// The sink: attached below the load seam.
// ---------------------------------------------------------------------------

/// Appends framed records to the `wal` file of an [`Fs`], with fsyncs at
/// durable points, and knows how long the file is. Attached to
/// [`crate::load::LoadedStores::wal`] so the load seam logs every
/// entity/event before applying it.
#[derive(Debug)]
pub struct WalSink {
    fs: Arc<dyn Fs>,
    len: u64,
}

impl WalSink {
    /// A sink appending to a log that already holds `len` bytes.
    pub fn new(fs: Arc<dyn Fs>, len: u64) -> Self {
        WalSink { fs, len }
    }

    /// Bytes in the log: what was there when the sink was attached plus
    /// every record appended since. Between epochs of a live session this
    /// is a durable point.
    pub fn log_len(&self) -> u64 {
        self.len
    }

    fn append(&mut self, rec: &WalRecord) -> Result<()> {
        let bytes = frame(rec);
        self.fs.append(WAL_FILE, &bytes)?;
        self.len += bytes.len() as u64;
        let m = obs::metrics();
        m.counter_add("raptor_wal_records_total", 1);
        m.counter_add("raptor_wal_bytes_total", bytes.len() as u64);
        Ok(())
    }

    fn sync(&self) -> Result<()> {
        let t = Instant::now();
        self.fs.sync(WAL_FILE)?;
        obs::metrics().observe_ns("raptor_wal_fsync_ns", t.elapsed().as_nanos() as u64);
        Ok(())
    }

    /// Logs an entity append (no fsync — the epoch commit syncs).
    pub fn log_entity(&mut self, e: &Entity) -> Result<()> {
        self.append(&WalRecord::Entity(e.clone()))
    }

    /// Logs an event append (no fsync — the epoch commit syncs).
    pub fn log_event(&mut self, ev: &SystemEvent) -> Result<()> {
        self.append(&WalRecord::Event(ev.clone()))
    }

    /// Commits an epoch: appends the `EpochCommit` frame and fsyncs. Only
    /// after this returns is the epoch durable.
    pub fn commit_epoch(&mut self, epoch: u64, watermark: i64) -> Result<()> {
        self.append(&WalRecord::EpochCommit { epoch, watermark })?;
        self.sync()
    }

    /// Logs a standing-query registration and fsyncs (self-committing).
    pub fn log_register(&mut self, name: &str, text: &str) -> Result<()> {
        self.append(&WalRecord::Register { name: name.to_string(), text: text.to_string() })?;
        self.sync()
    }
}

// ---------------------------------------------------------------------------
// Tolerant scan.
// ---------------------------------------------------------------------------

/// One durable unit of the log: what a single fsync made durable.
#[derive(Clone, Debug, PartialEq)]
pub enum WalUnit {
    /// A committed epoch: its entity and event records in append order,
    /// closed by their `EpochCommit`.
    Epoch { epoch: u64, entities: Vec<Entity>, events: Vec<SystemEvent> },
    /// A standing-query registration.
    Register { name: String, text: String },
}

impl WalUnit {
    /// Records the unit occupies in the log (an epoch's commit included).
    pub fn records(&self) -> u64 {
        match self {
            WalUnit::Epoch { entities, events, .. } => (entities.len() + events.len() + 1) as u64,
            WalUnit::Register { .. } => 1,
        }
    }
}

/// A tolerant scan in progress (see module docs): an iterator over the
/// durable units of a WAL buffer. It never errors — it ends where the
/// durable prefix ends, and [`WalScan::discarded`] is what lies beyond.
#[derive(Debug)]
pub struct WalScan<'a> {
    bytes: &'a [u8],
    durable_len: usize,
}

/// Starts scanning WAL bytes; nothing is decoded until the first `next`.
pub fn scan(bytes: &[u8]) -> WalScan<'_> {
    WalScan { bytes, durable_len: 0 }
}

impl WalScan<'_> {
    /// Byte length of the units handed out so far — once the scan has
    /// ended, of the whole durable prefix.
    pub fn durable_len(&self) -> usize {
        self.durable_len
    }

    /// Bytes after [`WalScan::durable_len`]. Once the scan has ended: a
    /// torn/corrupt tail and/or records of an epoch whose commit never made
    /// it to disk.
    pub fn discarded(&self) -> usize {
        self.bytes.len() - self.durable_len
    }

    /// The record framed at `offset` and the offset after it; `None` for a
    /// torn, corrupt or undecodable frame.
    fn record_at(&self, offset: usize) -> Option<(WalRecord, usize)> {
        let header = self.bytes.get(offset..offset + 8)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("sized")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("sized"));
        if len > io::MAX_BLOB {
            return None; // corrupt length prefix
        }
        let payload = self.bytes.get(offset + 8..offset + 8 + len)?;
        if io::crc32(payload) != crc {
            return None; // bit-rot or torn rewrite
        }
        // Checksum ok but undecodable is a corrupt tail all the same.
        Some((decode_payload(payload).ok()?, offset + 8 + len))
    }
}

impl Iterator for WalScan<'_> {
    type Item = WalUnit;

    fn next(&mut self) -> Option<WalUnit> {
        let (mut entities, mut events) = (Vec::new(), Vec::new());
        let mut offset = self.durable_len;
        let unit = loop {
            let (rec, after) = self.record_at(offset)?;
            offset = after;
            match rec {
                WalRecord::Entity(e) => entities.push(e),
                WalRecord::Event(ev) => events.push(ev),
                WalRecord::EpochCommit { epoch, .. } => {
                    break WalUnit::Epoch { epoch, entities, events };
                }
                // A registration never sits inside an epoch's record run.
                WalRecord::Register { .. } if !(entities.is_empty() && events.is_empty()) => {
                    return None;
                }
                WalRecord::Register { name, text } => break WalUnit::Register { name, text },
            }
        };
        self.durable_len = offset;
        Some(unit)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_entity() -> Entity {
        Entity {
            id: EntityId(7),
            host: 3,
            attrs: EntityAttrs::Process(ProcessAttrs {
                pid: 4242,
                exename: "/usr/bin/curl".into(),
                user: "root".into(),
                group: "wheel".into(),
                cmd: "curl -s http://x".into(),
            }),
        }
    }

    fn sample_event() -> SystemEvent {
        SystemEvent {
            id: EventId(11),
            subject: EntityId(7),
            object: EntityId(2),
            op: Operation::Connect,
            kind: EventKind::Network,
            start: Timestamp(1_000),
            end: Timestamp(2_000),
            amount: 512,
            fail_code: 0,
            host: 3,
        }
    }

    #[test]
    fn record_roundtrip() {
        let recs = [
            WalRecord::Entity(sample_entity()),
            WalRecord::Entity(Entity {
                id: EntityId(8),
                host: 1,
                attrs: EntityAttrs::File(FileAttrs {
                    name: "/etc/passwd".into(),
                    path: "/etc".into(),
                    user: "root".into(),
                    group: "root".into(),
                }),
            }),
            WalRecord::Entity(Entity {
                id: EntityId(9),
                host: 1,
                attrs: EntityAttrs::NetConn(NetConnAttrs {
                    src_ip: "10.0.0.1".into(),
                    src_port: 40000,
                    dst_ip: "192.168.29.128".into(),
                    dst_port: 443,
                    protocol: Protocol::Udp,
                }),
            }),
            WalRecord::Event(sample_event()),
            WalRecord::EpochCommit { epoch: 5, watermark: 123_456 },
            WalRecord::Register { name: "exfil".into(), text: "proc p read file f".into() },
        ];
        for rec in &recs {
            let framed = frame(rec);
            let payload = &framed[8..];
            assert_eq!(&decode_payload(payload).unwrap(), rec);
        }
    }

    fn commit(epoch: u64, watermark: i64) -> Vec<u8> {
        frame(&WalRecord::EpochCommit { epoch, watermark })
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut bytes = Vec::new();
        bytes.extend_from_slice(&frame(&WalRecord::Entity(sample_entity())));
        bytes.extend_from_slice(&commit(0, 9));
        let durable = bytes.len();
        // A torn half-record after the commit.
        let torn = frame(&WalRecord::Event(sample_event()));
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        let mut scan = scan(&bytes);
        let unit = scan.next().unwrap();
        assert_eq!(unit.records(), 2);
        assert_eq!(
            unit,
            WalUnit::Epoch { epoch: 0, entities: vec![sample_entity()], events: vec![] }
        );
        assert_eq!(scan.next(), None);
        assert_eq!(scan.next(), None, "the end is the end");
        assert_eq!(scan.durable_len(), durable);
        assert_eq!(scan.discarded(), torn.len() / 2);
    }

    #[test]
    fn scan_discards_uncommitted_epoch() {
        let mut bytes = commit(0, 1);
        let durable = bytes.len();
        // A fully-written but never-committed record run.
        bytes.extend_from_slice(&frame(&WalRecord::Entity(sample_entity())));
        bytes.extend_from_slice(&frame(&WalRecord::Event(sample_event())));
        let mut scan = scan(&bytes);
        assert_eq!(scan.by_ref().count(), 1);
        assert_eq!(scan.durable_len(), durable);
        assert!(scan.discarded() > 0);
    }

    /// Units come one at a time, each moving the durable length to its own
    /// end: a `Register` is a unit by itself, wherever it sits.
    #[test]
    fn register_is_a_durable_point() {
        let register = WalRecord::Register { name: "q".into(), text: "proc p read file f".into() };
        let mut bytes = commit(0, 1);
        let first = bytes.len();
        bytes.extend_from_slice(&frame(&register));
        let second = bytes.len();
        bytes.extend_from_slice(&frame(&WalRecord::Event(sample_event())));
        bytes.extend_from_slice(&commit(1, 2));
        let mut scan = scan(&bytes);
        assert_eq!(scan.durable_len(), 0);
        assert!(matches!(scan.next(), Some(WalUnit::Epoch { epoch: 0, .. })));
        assert_eq!(scan.durable_len(), first);
        let unit = scan.next().unwrap();
        assert_eq!(unit.records(), 1);
        assert_eq!(unit, WalUnit::Register { name: "q".into(), text: "proc p read file f".into() });
        assert_eq!(scan.durable_len(), second);
        assert!(matches!(scan.next(), Some(WalUnit::Epoch { epoch: 1, .. })));
        assert_eq!((scan.durable_len(), scan.discarded()), (bytes.len(), 0));
        assert_eq!(scan.next(), None);

        // Inside an epoch's record run it is not something the sink wrote:
        // the durable prefix ends before the run.
        let mut bytes = commit(0, 1);
        bytes.extend_from_slice(&frame(&WalRecord::Entity(sample_entity())));
        bytes.extend_from_slice(&frame(&register));
        let mut scan = super::scan(&bytes);
        assert_eq!(scan.by_ref().count(), 1);
        assert_eq!(scan.durable_len(), commit(0, 1).len());
    }

    #[test]
    fn scan_rejects_bit_flips() {
        let clean = commit(3, 77);
        for i in 0..clean.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut corrupt = clean.clone();
                corrupt[i] ^= bit;
                // Either the frame is rejected outright, or (if the flip hit
                // the length prefix making it implausibly large) it reads as
                // torn — never a panic, never a silently-wrong record.
                if let Some(unit) = scan(&corrupt).next() {
                    panic!("bit flip at byte {i} survived: {unit:?}");
                }
            }
        }
    }

    #[test]
    fn empty_and_zero_length_inputs() {
        let mut s = scan(&[]);
        assert_eq!(s.next(), None);
        assert_eq!(s.durable_len(), 0);
        let mut s = scan(&[0u8; 7]); // shorter than one header
        assert_eq!(s.next(), None);
        assert_eq!(s.discarded(), 7);
    }

    /// The sink counts what it appended on top of what was there.
    #[test]
    fn sink_knows_the_log_length() {
        let fs = raptor_common::io::MemFs::new();
        fs.store(WAL_FILE, commit(0, 1));
        let mut sink = WalSink::new(Arc::new(fs.clone()), commit(0, 1).len() as u64);
        sink.log_entity(&sample_entity()).unwrap();
        sink.log_event(&sample_event()).unwrap();
        sink.commit_epoch(1, 2).unwrap();
        sink.log_register("q", "proc p read file f").unwrap();
        let log = fs.snapshot(WAL_FILE);
        assert_eq!(sink.log_len(), log.len() as u64);
        let mut scan = scan(&log);
        assert_eq!(scan.by_ref().map(|u| u.records()).collect::<Vec<_>>(), [1, 3, 1]);
        assert_eq!(scan.discarded(), 0);
    }
}
