//! The write-ahead log: one length-prefixed, checksummed frame per durable
//! unit.
//!
//! A durable unit is what one fsync makes durable: an **epoch** (its number,
//! its entities and its events, in the order the load seam applies them) or a
//! standing-query **registration**. The session encodes a unit into one
//! frame ([`frame_epoch`] / [`frame_register`], straight from the borrowed
//! batch) and hands it to its [`WalSink`], whose [`WalSink::commit`] is one
//! [`Fs::append`] followed by one [`Fs::sync`]. The writer and the reader
//! ([`scan`]) speak the same unit, so a unit in the file is either whole
//! (its CRC holds) or the tail a crash tore — there is no third state.
//!
//! ## On-disk frame
//!
//! ```text
//! [len: u32 le] [crc32(payload): u32 le] [payload: len bytes]
//! payload = [tag: u8 = 5] epoch u64 · n_entities u32 · n_events u32
//!                         · entities · events                      (an epoch)
//!         | [tag: u8 = 4] name · text                        (a registration)
//! ```
//!
//! Integers are little-endian and strings `u32`-length-prefixed. This is the
//! only layout written or read. Tags 1–3 belonged to the retired per-record
//! layout (one frame per entity, event and epoch commit): an intact frame
//! carrying one is answered with a typed error that names the layout —
//! never read as a torn tail, which recovery would trim away.
//!
//! ## The log is the store's durable form
//!
//! The file is never truncated while a session runs: it holds every unit
//! since the stream began, and a restart rebuilds the stores by replaying
//! it. A checkpoint ([`crate::checkpoint`]) is a manifest over a prefix of
//! it, written beside it; writing one does not touch this file.
//!
//! [`scan`] reads a WAL byte buffer back tolerantly, one frame at a time: a
//! torn, truncated, checksum-corrupt or undecodable frame simply terminates
//! the scan (it is the tail the crash tore — recovery discards it, and the
//! source re-delivers the epoch). Whether the scan may stop where it did is
//! the caller's call: below a checkpoint's `log_len` the bytes were fsynced,
//! so stopping there is corruption, not a torn tail. After a torn tail,
//! recovery trims the file to its durable prefix with one atomic replace — a
//! rewrite of the whole log, once per crash, beside a replay that reads all
//! of it anyway.

use std::ops::RangeInclusive;
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

const TAG_REGISTER: u8 = 4;
const TAG_EPOCH: u8 = 5;
/// Entity, event and epoch-commit frames of the retired per-record layout.
const RETIRED_TAGS: RangeInclusive<u8> = 1..=3;

/// The shortest encodings [`put_entity`] (a connection between two empty
/// addresses) and [`put_event`] (fixed) produce: what bounds a decoded count
/// by the bytes left to decode it from.
const MIN_ENTITY_BYTES: usize = 20;
const EVENT_BYTES: usize = 44;

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

/// Wraps `tag` and whatever `body` writes after it into one frame:
/// `[len][crc][payload]`. A payload the `u32` length cannot describe is
/// refused — the caller has applied nothing yet.
fn framed(tag: u8, body: impl FnOnce(&mut Vec<u8>)) -> Result<Vec<u8>> {
    let mut out = vec![0u8; 8];
    io::put_u8(&mut out, tag);
    body(&mut out);
    let len = u32::try_from(out.len() - 8).map_err(|_| {
        Error::storage(format!(
            "a WAL frame holds at most {} payload bytes, this unit needs {}: deliver it in \
             smaller epochs",
            u32::MAX,
            out.len() - 8
        ))
    })?;
    let crc = io::crc32(&out[8..]);
    out[..4].copy_from_slice(&len.to_le_bytes());
    out[4..8].copy_from_slice(&crc.to_le_bytes());
    Ok(out)
}

/// Frames epoch `epoch`: `entities` then `events`, as the load seam applies
/// them. An empty epoch is a unit too (it still advances the position).
pub fn frame_epoch(epoch: u64, entities: &[Entity], events: &[SystemEvent]) -> Result<Vec<u8>> {
    framed(TAG_EPOCH, |buf| {
        buf.reserve(16 + MIN_ENTITY_BYTES * entities.len() + EVENT_BYTES * events.len());
        io::put_u64(buf, epoch);
        // A count its `u32` cannot hold comes with a payload `framed` refuses.
        io::put_u32(buf, entities.len() as u32);
        io::put_u32(buf, events.len() as u32);
        for e in entities {
            put_entity(buf, e);
        }
        for ev in events {
            put_event(buf, ev);
        }
    })
}

/// Frames a standing-query registration.
pub fn frame_register(name: &str, text: &str) -> Result<Vec<u8>> {
    framed(TAG_REGISTER, |buf| {
        io::put_str(buf, name);
        io::put_str(buf, text);
    })
}

fn decode_payload(payload: &[u8]) -> Result<WalUnit> {
    let mut cur = Cur::new(payload);
    let unit = match cur.get_u8()? {
        TAG_EPOCH => {
            let epoch = cur.get_u64()?;
            let (n_entities, n_events) = (cur.get_u32()? as usize, cur.get_u32()? as usize);
            // Nothing is reserved for a count the bytes left could not hold.
            let need = n_entities
                .saturating_mul(MIN_ENTITY_BYTES)
                .saturating_add(n_events.saturating_mul(EVENT_BYTES));
            if need > cur.remaining() {
                return Err(Error::storage(format!(
                    "WAL epoch {epoch} claims {n_entities} entities and {n_events} events in {} \
                     bytes",
                    cur.remaining()
                )));
            }
            let mut entities = Vec::with_capacity(n_entities);
            for _ in 0..n_entities {
                entities.push(get_entity(&mut cur)?);
            }
            let mut events = Vec::with_capacity(n_events);
            for _ in 0..n_events {
                events.push(get_event(&mut cur)?);
            }
            WalUnit::Epoch { epoch, entities, events }
        }
        TAG_REGISTER => WalUnit::Register { name: cur.get_str()?, text: cur.get_str()? },
        other => return Err(Error::storage(format!("invalid WAL frame tag {other}"))),
    };
    if !cur.is_done() {
        return Err(Error::storage(format!(
            "trailing {} bytes inside WAL frame payload",
            cur.remaining()
        )));
    }
    Ok(unit)
}

// ---------------------------------------------------------------------------
// The sink: held by a durable session.
// ---------------------------------------------------------------------------

/// Appends frames to the `wal` file of an [`Fs`], one fsync each, and knows
/// how long the file is.
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

    /// Bytes in the log: what was there when the sink was created plus
    /// every frame committed since — always a durable point.
    pub fn log_len(&self) -> u64 {
        self.len
    }

    /// Makes one unit durable: one append of its `frame`, one fsync. Only
    /// after this returns is the unit durable. `records` is what the unit
    /// counts for ([`WalUnit::records`]).
    pub fn commit(&mut self, frame: &[u8], records: u64) -> Result<()> {
        self.fs.append(WAL_FILE, frame)?;
        self.len += frame.len() as u64;
        let m = obs::metrics();
        m.counter_add("raptor_wal_records_total", records);
        m.counter_add("raptor_wal_bytes_total", frame.len() as u64);
        let t = Instant::now();
        self.fs.sync(WAL_FILE)?;
        m.observe_ns("raptor_wal_fsync_ns", t.elapsed().as_nanos() as u64);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Tolerant scan.
// ---------------------------------------------------------------------------

/// One durable unit of the log: what a single frame holds and a single
/// fsync made durable.
#[derive(Clone, Debug, PartialEq)]
pub enum WalUnit {
    /// An epoch: its entities and events in append order.
    Epoch { epoch: u64, entities: Vec<Entity>, events: Vec<SystemEvent> },
    /// A standing-query registration.
    Register { name: String, text: String },
}

impl WalUnit {
    /// Records the unit counts for: an epoch's entities and events plus
    /// its commit, or the one registration.
    pub fn records(&self) -> u64 {
        match self {
            WalUnit::Epoch { entities, events, .. } => (entities.len() + events.len() + 1) as u64,
            WalUnit::Register { .. } => 1,
        }
    }
}

/// A tolerant scan in progress (see module docs): an iterator over the
/// durable units of a WAL buffer. It ends where the durable prefix ends,
/// and [`WalScan::discarded`] is what lies beyond. Its one error is an
/// intact frame of the retired layout, which it does not step over.
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

    /// Bytes after [`WalScan::durable_len`]. Once the scan has ended: the
    /// torn or corrupt tail.
    pub fn discarded(&self) -> usize {
        self.bytes.len() - self.durable_len
    }
}

impl Iterator for WalScan<'_> {
    type Item = Result<WalUnit>;

    /// Decodes exactly one frame; `None` for a torn, corrupt or undecodable
    /// one (and for the end of the buffer).
    fn next(&mut self) -> Option<Result<WalUnit>> {
        let (header, rest) = self.bytes[self.durable_len..].split_at_checked(8)?;
        let len = u32::from_le_bytes(header[..4].try_into().expect("sized")) as usize;
        let crc = u32::from_le_bytes(header[4..].try_into().expect("sized"));
        let payload = rest.get(..len)?;
        if io::crc32(payload) != crc {
            return None; // bit-rot or torn write
        }
        if let Some(tag) = payload.first().filter(|tag| RETIRED_TAGS.contains(tag)) {
            return Some(Err(Error::storage(format!(
                "the log is in the retired per-record WAL layout (an intact frame tagged {tag} \
                 at byte {}); this layout holds one frame per epoch or registration",
                self.durable_len
            ))));
        }
        // Checksum ok but undecodable is a corrupt tail all the same.
        let unit = decode_payload(payload).ok()?;
        self.durable_len += 8 + len;
        Some(Ok(unit))
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

    fn frame(unit: &WalUnit) -> Vec<u8> {
        match unit {
            WalUnit::Epoch { epoch, entities, events } => frame_epoch(*epoch, entities, events),
            WalUnit::Register { name, text } => frame_register(name, text),
        }
        .unwrap()
    }

    fn epoch(epoch: u64) -> WalUnit {
        WalUnit::Epoch { epoch, entities: vec![sample_entity()], events: vec![sample_event()] }
    }

    fn register() -> WalUnit {
        WalUnit::Register { name: "q".into(), text: "proc p read file f".into() }
    }

    /// The units of `bytes`' durable prefix, and that prefix's length.
    fn durable(bytes: &[u8]) -> (Vec<WalUnit>, usize) {
        let mut scan = scan(bytes);
        let units = scan.by_ref().collect::<Result<Vec<_>>>().unwrap();
        (units, scan.durable_len())
    }

    #[test]
    fn record_roundtrip() {
        let every_entity_kind = vec![
            sample_entity(),
            Entity {
                id: EntityId(8),
                host: 1,
                attrs: EntityAttrs::File(FileAttrs {
                    name: "/etc/passwd".into(),
                    path: "/etc".into(),
                    user: "root".into(),
                    group: "root".into(),
                }),
            },
            Entity {
                id: EntityId(9),
                host: 1,
                attrs: EntityAttrs::NetConn(NetConnAttrs {
                    src_ip: "10.0.0.1".into(),
                    src_port: 40000,
                    dst_ip: "192.168.29.128".into(),
                    dst_port: 443,
                    protocol: Protocol::Udp,
                }),
            },
        ];
        let units = [
            WalUnit::Epoch { epoch: 5, entities: every_entity_kind, events: vec![sample_event()] },
            // What `flush_entities` with nothing to flush logs.
            WalUnit::Epoch { epoch: 6, entities: vec![], events: vec![] },
            WalUnit::Register { name: "exfil".into(), text: "proc p read file f".into() },
        ];
        for unit in &units {
            let framed = frame(unit);
            assert_eq!(&decode_payload(&framed[8..]).unwrap(), unit);
            assert_eq!(durable(&framed), (vec![unit.clone()], framed.len()));
        }
        assert_eq!(units.each_ref().map(WalUnit::records), [5, 1, 1]);
    }

    /// The bounds `decode_payload` holds a count to are the encoder's.
    #[test]
    fn smallest_encodings_are_what_bounds_a_count() {
        let conn = Entity {
            id: EntityId(0),
            host: 0,
            attrs: EntityAttrs::NetConn(NetConnAttrs {
                src_ip: String::new(),
                src_port: 0,
                dst_ip: String::new(),
                dst_port: 0,
                protocol: Protocol::Tcp,
            }),
        };
        let mut buf = Vec::new();
        put_entity(&mut buf, &conn);
        assert_eq!(buf.len(), MIN_ENTITY_BYTES);
        buf.clear();
        put_event(&mut buf, &sample_event());
        assert_eq!(buf.len(), EVENT_BYTES);
    }

    /// A count the payload could not hold is an error before anything is
    /// reserved for it, whatever the checksum says.
    #[test]
    fn forged_count_is_an_error_not_an_allocation() {
        for (n_entities, n_events) in [(u32::MAX, 0), (0, u32::MAX), (u32::MAX, u32::MAX), (2, 1)] {
            let forged = framed(TAG_EPOCH, |buf| {
                io::put_u64(buf, 0);
                io::put_u32(buf, n_entities);
                io::put_u32(buf, n_events);
                put_entity(buf, &sample_entity());
                put_event(buf, &sample_event());
            })
            .unwrap();
            let err = decode_payload(&forged[8..]).unwrap_err();
            // (2, 1) could fit, going by the bounds: decoding finds out.
            assert!(n_entities == 2 || err.message.contains("claims"), "{err}");
            assert_eq!(durable(&forged), (vec![], 0), "an undecodable frame is a torn tail");
        }
    }

    #[test]
    fn scan_stops_at_torn_tail() {
        let mut bytes = frame(&epoch(0));
        let durable_len = bytes.len();
        let torn = frame(&epoch(1));
        bytes.extend_from_slice(&torn[..torn.len() / 2]);
        let mut scan = scan(&bytes);
        let unit = scan.next().unwrap().unwrap();
        assert_eq!(unit.records(), 3);
        assert_eq!(unit, epoch(0));
        assert!(scan.next().is_none());
        assert!(scan.next().is_none(), "the end is the end");
        assert_eq!(scan.durable_len(), durable_len);
        assert_eq!(scan.discarded(), torn.len() / 2);
    }

    /// Units come one at a time, each moving the durable length to its own
    /// end: a `Register` is a unit by itself, wherever it sits.
    #[test]
    fn register_is_a_durable_point() {
        let mut bytes = frame(&epoch(0));
        let first = bytes.len();
        bytes.extend_from_slice(&frame(&register()));
        let second = bytes.len();
        bytes.extend_from_slice(&frame(&epoch(1)));
        let mut scan = scan(&bytes);
        assert_eq!(scan.durable_len(), 0);
        assert_eq!(scan.next().unwrap().unwrap(), epoch(0));
        assert_eq!(scan.durable_len(), first);
        let unit = scan.next().unwrap().unwrap();
        assert_eq!(unit.records(), 1);
        assert_eq!(unit, register());
        assert_eq!(scan.durable_len(), second);
        assert_eq!(scan.next().unwrap().unwrap(), epoch(1));
        assert_eq!((scan.durable_len(), scan.discarded()), (bytes.len(), 0));
        assert!(scan.next().is_none());
    }

    /// Damage anywhere in a two-unit log — cut at any byte, any byte
    /// flipped — leaves the units before it and never part of a unit.
    #[test]
    fn scan_rejects_bit_flips() {
        let units = [epoch(0), register()];
        let first = frame(&units[0]).len();
        let clean = [frame(&units[0]), frame(&units[1])].concat();
        assert_eq!(durable(&clean), (units.to_vec(), clean.len()));
        let prefix = |whole_units: usize| (units[..whole_units].to_vec(), [0, first][whole_units]);
        for cut in 0..clean.len() {
            assert_eq!(durable(&clean[..cut]), prefix((cut >= first) as usize), "cut at {cut}");
        }
        for i in 0..clean.len() {
            for bit in [0x01u8, 0x80u8] {
                let mut corrupt = clean.clone();
                corrupt[i] ^= bit;
                assert_eq!(durable(&corrupt), prefix((i >= first) as usize), "flip at byte {i}");
            }
        }
    }

    /// An intact frame of the retired per-record layout is an error that
    /// names the layout, not a tail to trim; the scan stays before it.
    #[test]
    fn retired_layout_is_an_error_not_a_torn_tail() {
        for tag in RETIRED_TAGS {
            let old = framed(tag, |buf| io::put_u64(buf, 0)).unwrap();
            let bytes = [frame(&register()), old].concat();
            let mut scan = scan(&bytes);
            assert_eq!(scan.next().unwrap().unwrap(), register());
            let err = scan.next().unwrap().unwrap_err();
            assert_eq!(err.kind, raptor_common::error::ErrorKind::Storage);
            assert!(err.message.contains("retired per-record WAL layout"), "{err}");
            assert_eq!(scan.durable_len(), frame(&register()).len());
        }
        // Any other unknown tag is damage.
        let unknown = framed(9, |buf| io::put_u64(buf, 0)).unwrap();
        assert_eq!(durable(&unknown), (vec![], 0));
    }

    #[test]
    fn empty_and_zero_length_inputs() {
        let mut s = scan(&[]);
        assert!(s.next().is_none());
        assert_eq!(s.durable_len(), 0);
        let mut s = scan(&[0u8; 7]); // shorter than one header
        assert!(s.next().is_none());
        assert_eq!(s.discarded(), 7);
        // A header describing an empty payload (whose CRC is 0) holds no tag.
        assert_eq!(durable(&[0u8; 64]), (vec![], 0));
    }

    /// The sink counts what it committed on top of what was there.
    #[test]
    fn sink_knows_the_log_length() {
        let fs = raptor_common::io::MemFs::new();
        fs.store(WAL_FILE, frame(&epoch(0)));
        let mut sink = WalSink::new(Arc::new(fs.clone()), frame(&epoch(0)).len() as u64);
        for unit in [epoch(1), register()] {
            sink.commit(&frame(&unit), unit.records()).unwrap();
        }
        let log = fs.snapshot(WAL_FILE);
        assert_eq!(sink.log_len(), log.len() as u64);
        assert_eq!(durable(&log), (vec![epoch(0), epoch(1), register()], log.len()));
    }
}
