//! The audit log parser.
//!
//! Lifts a stream of raw [`SyscallRecord`]s into system entities and system
//! events. The parser is stateful, exactly like a real auditing pipeline:
//!
//! * a **process table** maps live (host, pid) to the process entity created
//!   for the current executable image (an `execve` replaces the image and
//!   therefore creates a *new* process entity — the identity rule is
//!   (exename, pid)),
//! * per-process **fd tables** map file descriptors to the file or network
//!   connection they designate, so a `read(fd)` can be attributed to the
//!   right object entity and categorized as a file or network event.
//!
//! Entities are deduplicated through their identities (Section III-A), so
//! re-opening `/etc/passwd` ten times yields one file entity and ten events.
//! The identity is probed with parts borrowed from the record before any
//! attribute is built: a record that names only known entities allocates
//! nothing but its event.

use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

use raptor_common::hash::FxHashMap;
use raptor_common::ids::{EntityId, EventId};

use crate::entity::{
    parent_dir, Entity, EntityAttrs, FileAttrs, Identity, NetConnAttrs, ProcessAttrs,
};
use crate::event::{EventKind, Operation, SystemEvent};
use crate::syscall::{Protocol, Syscall, SyscallArgs, SyscallRecord};

/// The output of parsing: deduplicated entities plus the event sequence.
#[derive(Debug, Default)]
pub struct ParsedLog {
    pub entities: Vec<Entity>,
    pub events: Vec<SystemEvent>,
    /// Identity hash → entity id, so parsing can resume incrementally. The
    /// strings stay in `entities`: two identities whose hashes collide take
    /// successive slots (`hash + 1`, `hash + 2`, …), and a probe walks them
    /// until an entity with its identity or an empty slot.
    by_identity: FxHashMap<u64, EntityId>,
    /// Keyed per log: identities come from outside the program, so records
    /// crafted to collide must not be able to lengthen every probe.
    hasher: RandomState,
}

impl ParsedLog {
    pub fn entity(&self, id: EntityId) -> &Entity {
        &self.entities[id.index()]
    }

    /// Looks up an entity by its identity.
    pub fn entity_by_identity(&self, identity: Identity<'_>) -> Option<&Entity> {
        self.probe(identity).1.map(|id| self.entity(id))
    }

    /// The slot `identity` occupies or would take, and its entity if known.
    fn probe(&self, identity: Identity<'_>) -> (u64, Option<EntityId>) {
        let mut slot = self.hasher.hash_one(identity);
        loop {
            match self.by_identity.get(&slot) {
                None => return (slot, None),
                Some(&id) if self.entities[id.index()].identity() == identity => {
                    return (slot, Some(id))
                }
                Some(_) => slot = slot.wrapping_add(1),
            }
        }
    }

    /// The entity with `identity`; `attrs` builds it on first sight only.
    fn entity_for(
        &mut self,
        identity: Identity<'_>,
        attrs: impl FnOnce() -> EntityAttrs,
    ) -> EntityId {
        let (slot, known) = self.probe(identity);
        if let Some(id) = known {
            return id;
        }
        let id = EntityId::from_usize(self.entities.len());
        let entity = Entity { id, host: identity.host(), attrs: attrs() };
        debug_assert_eq!(entity.identity(), identity);
        self.entities.push(entity);
        self.by_identity.insert(slot, id);
        id
    }
}

/// What an open file descriptor designates.
#[derive(Clone, Copy, Debug)]
enum FdTarget {
    File(EntityId),
    /// A socket before `connect` (no 5-tuple yet, so no entity yet).
    UnconnectedSocket(Protocol),
    NetConn(EntityId),
}

#[derive(Debug)]
struct LiveProcess {
    entity: EntityId,
    fds: FxHashMap<i32, FdTarget>,
}

/// Stateful parser; feed records in timestamp order.
#[derive(Debug)]
pub struct LogParser {
    log: ParsedLog,
    /// (host, pid) → live process state.
    procs: FxHashMap<(u16, u32), LiveProcess>,
    /// Events whose raw call failed are dropped unless this is set; the
    /// failure code is preserved either way on emitted events.
    pub keep_failed: bool,
}

impl Default for LogParser {
    fn default() -> Self {
        Self::new()
    }
}

impl LogParser {
    pub fn new() -> Self {
        LogParser { log: ParsedLog::default(), procs: FxHashMap::default(), keep_failed: true }
    }

    /// Parses an entire batch of records.
    pub fn parse(records: &[SyscallRecord]) -> ParsedLog {
        let mut p = LogParser::new();
        for r in records {
            p.feed(r);
        }
        p.finish()
    }

    /// Consumes the parser, returning the parsed log.
    pub fn finish(self) -> ParsedLog {
        self.log
    }

    /// Returns the process entity for a record's calling process, creating
    /// the process (and its table entry) on first sight.
    fn subject_for(&mut self, r: &SyscallRecord) -> EntityId {
        if let Some(lp) = self.procs.get(&(r.host, r.pid)) {
            // The auditing layer reports the exe on every record; if it
            // changed without an observed execve (lost record), re-key.
            let current = &self.log.entities[lp.entity.index()];
            if let EntityAttrs::Process(p) = &current.attrs {
                if p.exename == r.exe {
                    return lp.entity;
                }
            }
        }
        let id = self.process_entity(r, r.pid, &r.exe, &r.exe);
        let fds = match self.procs.remove(&(r.host, r.pid)) {
            Some(old) => old.fds, // image replaced: fds survive execve
            None => FxHashMap::default(),
        };
        self.procs.insert((r.host, r.pid), LiveProcess { entity: id, fds });
        id
    }

    /// The process entity `(exename, pid)` on the record's host, owned by
    /// the record's user and group.
    fn process_entity(
        &mut self,
        r: &SyscallRecord,
        pid: u32,
        exename: &str,
        cmd: &str,
    ) -> EntityId {
        self.log.entity_for(Identity::Process { host: r.host, exename, pid }, || {
            EntityAttrs::Process(ProcessAttrs {
                pid,
                exename: exename.to_owned(),
                user: r.user.clone(),
                group: r.group.clone(),
                cmd: cmd.to_owned(),
            })
        })
    }

    /// The file entity `path` on the record's host; the record's user and
    /// group own it.
    fn file_entity(&mut self, r: &SyscallRecord, path: &str) -> EntityId {
        self.log.entity_for(Identity::File { host: r.host, name: path }, || {
            EntityAttrs::File(FileAttrs {
                name: path.to_owned(),
                path: parent_dir(path),
                user: r.user.clone(),
                group: r.group.clone(),
            })
        })
    }

    fn emit(
        &mut self,
        r: &SyscallRecord,
        subject: EntityId,
        object: EntityId,
        op: Operation,
        kind: EventKind,
        amount: u64,
    ) {
        if r.failed() && !self.keep_failed {
            return;
        }
        let id = EventId::from_usize(self.log.events.len());
        self.log.events.push(SystemEvent {
            id,
            subject,
            object,
            op,
            kind,
            start: r.ts,
            end: r.end(),
            amount,
            fail_code: if r.failed() { (-r.ret) as i32 } else { 0 },
            host: r.host,
        });
    }

    /// Feeds one record.
    pub fn feed(&mut self, r: &SyscallRecord) {
        let subject = self.subject_for(r);
        match (&r.call, &r.args) {
            (Syscall::Open, SyscallArgs::Open { path, fd }) => {
                let file = self.file_entity(r, path);
                if !r.failed() {
                    self.with_proc(r, |lp| {
                        lp.fds.insert(*fd, FdTarget::File(file));
                    });
                }
            }
            (Syscall::Close, SyscallArgs::Close { fd }) => {
                self.with_proc(r, |lp| {
                    lp.fds.remove(fd);
                });
            }
            (Syscall::Socket, SyscallArgs::Socket { fd, protocol }) if !r.failed() => {
                let proto = *protocol;
                self.with_proc(r, |lp| {
                    lp.fds.insert(*fd, FdTarget::UnconnectedSocket(proto));
                });
            }
            (Syscall::Connect, SyscallArgs::Connect { fd, src_ip, src_port, dst_ip, dst_port }) => {
                let protocol = match self.fd_target(r, *fd) {
                    Some(FdTarget::UnconnectedSocket(p)) => p,
                    Some(FdTarget::NetConn(_)) | Some(FdTarget::File(_)) | None => Protocol::Tcp,
                };
                let (src_port, dst_port) = (*src_port, *dst_port);
                let identity = Identity::NetConn {
                    host: r.host,
                    src_ip,
                    src_port,
                    dst_ip,
                    dst_port,
                    protocol,
                };
                let conn = self.log.entity_for(identity, || {
                    EntityAttrs::NetConn(NetConnAttrs {
                        src_ip: src_ip.clone(),
                        src_port,
                        dst_ip: dst_ip.clone(),
                        dst_port,
                        protocol,
                    })
                });
                if !r.failed() {
                    self.with_proc(r, |lp| {
                        lp.fds.insert(*fd, FdTarget::NetConn(conn));
                    });
                }
                self.emit(r, subject, conn, Operation::Connect, EventKind::Network, 0);
            }
            (
                Syscall::Read | Syscall::Readv | Syscall::Recvfrom | Syscall::Recvmsg,
                SyscallArgs::Io { fd },
            ) => {
                let amount = r.ret.max(0) as u64;
                match self.fd_target(r, *fd) {
                    Some(FdTarget::File(f)) => {
                        self.emit(r, subject, f, Operation::Read, EventKind::File, amount)
                    }
                    Some(FdTarget::NetConn(c)) => {
                        self.emit(r, subject, c, Operation::Read, EventKind::Network, amount)
                    }
                    _ => {} // reads on unknown fds (inherited/untracked) are dropped
                }
            }
            (
                Syscall::Write | Syscall::Writev | Syscall::Sendto | Syscall::Sendmsg,
                SyscallArgs::Io { fd },
            ) => {
                let amount = r.ret.max(0) as u64;
                match self.fd_target(r, *fd) {
                    Some(FdTarget::File(f)) => {
                        self.emit(r, subject, f, Operation::Write, EventKind::File, amount)
                    }
                    Some(FdTarget::NetConn(c)) => {
                        self.emit(r, subject, c, Operation::Write, EventKind::Network, amount)
                    }
                    _ => {}
                }
            }
            (Syscall::Execve, SyscallArgs::Exec { path, cmdline }) => {
                // File event: the process executes the image file.
                let file = self.file_entity(r, path);
                self.emit(r, subject, file, Operation::Execute, EventKind::File, 0);
                if !r.failed() {
                    // The image is replaced: a new process entity begins.
                    let new_proc = self.process_entity(r, r.pid, path, cmdline);
                    // Process event: old image starts the new one.
                    if new_proc != subject {
                        self.emit(r, subject, new_proc, Operation::Start, EventKind::Process, 0);
                    }
                    let fds =
                        self.procs.remove(&(r.host, r.pid)).map(|lp| lp.fds).unwrap_or_default();
                    self.procs.insert((r.host, r.pid), LiveProcess { entity: new_proc, fds });
                }
            }
            (Syscall::Fork | Syscall::Clone, SyscallArgs::Spawn { child_pid, child_exe }) => {
                if r.failed() {
                    return;
                }
                let child = self.process_entity(r, *child_pid, child_exe, child_exe);
                // Child inherits the parent's fd table (as fork does).
                let inherited =
                    self.procs.get(&(r.host, r.pid)).map(|lp| lp.fds.clone()).unwrap_or_default();
                self.procs
                    .insert((r.host, *child_pid), LiveProcess { entity: child, fds: inherited });
                self.emit(r, subject, child, Operation::Start, EventKind::Process, 0);
            }
            (Syscall::Rename, SyscallArgs::Rename { old, new: _ }) => {
                let file = self.file_entity(r, old);
                self.emit(r, subject, file, Operation::Rename, EventKind::File, 0);
            }
            (Syscall::Exit, SyscallArgs::Exit) => {
                self.emit(r, subject, subject, Operation::End, EventKind::Process, 0);
                self.procs.remove(&(r.host, r.pid));
            }
            // A record whose args don't match its call is malformed; a real
            // pipeline logs and skips it.
            _ => {}
        }
    }

    fn with_proc(&mut self, r: &SyscallRecord, f: impl FnOnce(&mut LiveProcess)) {
        if let Some(lp) = self.procs.get_mut(&(r.host, r.pid)) {
            f(lp);
        }
    }

    fn fd_target(&self, r: &SyscallRecord, fd: i32) -> Option<FdTarget> {
        self.procs.get(&(r.host, r.pid))?.fds.get(&fd).copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use raptor_common::time::{Duration, Timestamp};

    fn rec(
        ts: i64,
        pid: u32,
        exe: &str,
        call: Syscall,
        args: SyscallArgs,
        ret: i64,
    ) -> SyscallRecord {
        SyscallRecord {
            ts: Timestamp::from_secs(ts),
            latency: Duration::from_millis(1),
            host: 0,
            pid,
            exe: exe.into(),
            user: "root".into(),
            group: "root".into(),
            call,
            args,
            ret,
        }
    }

    #[test]
    fn open_read_close_produces_one_file_event() {
        let records = vec![
            rec(
                1,
                10,
                "/bin/tar",
                Syscall::Open,
                SyscallArgs::Open { path: "/etc/passwd".into(), fd: 3 },
                3,
            ),
            rec(2, 10, "/bin/tar", Syscall::Read, SyscallArgs::Io { fd: 3 }, 4096),
            rec(3, 10, "/bin/tar", Syscall::Close, SyscallArgs::Close { fd: 3 }, 0),
        ];
        let log = LogParser::parse(&records);
        assert_eq!(log.events.len(), 1);
        let e = &log.events[0];
        assert_eq!(e.op, Operation::Read);
        assert_eq!(e.kind, EventKind::File);
        assert_eq!(e.amount, 4096);
        assert_eq!(log.entity(e.subject).attrs.get("exename").as_deref(), Some("/bin/tar"));
        assert_eq!(log.entity(e.object).attrs.get("name").as_deref(), Some("/etc/passwd"));
    }

    #[test]
    fn reads_after_close_are_dropped() {
        let records = vec![
            rec(
                1,
                10,
                "/bin/cat",
                Syscall::Open,
                SyscallArgs::Open { path: "/tmp/a".into(), fd: 3 },
                3,
            ),
            rec(2, 10, "/bin/cat", Syscall::Close, SyscallArgs::Close { fd: 3 }, 0),
            rec(3, 10, "/bin/cat", Syscall::Read, SyscallArgs::Io { fd: 3 }, 100),
        ];
        let log = LogParser::parse(&records);
        assert_eq!(log.events.len(), 0);
    }

    #[test]
    fn socket_connect_send_is_network_write() {
        let records = vec![
            rec(
                1,
                20,
                "/usr/bin/curl",
                Syscall::Socket,
                SyscallArgs::Socket { fd: 4, protocol: Protocol::Tcp },
                4,
            ),
            rec(
                2,
                20,
                "/usr/bin/curl",
                Syscall::Connect,
                SyscallArgs::Connect {
                    fd: 4,
                    src_ip: "10.0.0.5".into(),
                    src_port: 51000,
                    dst_ip: "192.168.29.128".into(),
                    dst_port: 443,
                },
                0,
            ),
            rec(3, 20, "/usr/bin/curl", Syscall::Sendto, SyscallArgs::Io { fd: 4 }, 1500),
        ];
        let log = LogParser::parse(&records);
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].op, Operation::Connect);
        assert_eq!(log.events[0].kind, EventKind::Network);
        assert_eq!(log.events[1].op, Operation::Write);
        assert_eq!(log.events[1].kind, EventKind::Network);
        assert_eq!(log.events[1].amount, 1500);
        let conn = log.entity(log.events[1].object);
        assert_eq!(conn.attrs.get("dstip").as_deref(), Some("192.168.29.128"));
    }

    #[test]
    fn execve_creates_new_process_entity_and_two_events() {
        let records = vec![rec(
            1,
            30,
            "/bin/bash",
            Syscall::Execve,
            SyscallArgs::Exec {
                path: "/usr/bin/gpg".into(),
                cmdline: "gpg -c upload.tar.bz2".into(),
            },
            0,
        )];
        let log = LogParser::parse(&records);
        // Execute (file) + Start (process).
        assert_eq!(log.events.len(), 2);
        assert_eq!(log.events[0].op, Operation::Execute);
        assert_eq!(log.events[0].kind, EventKind::File);
        assert_eq!(log.events[1].op, Operation::Start);
        assert_eq!(log.events[1].kind, EventKind::Process);
        // Old and new process entities are distinct (identity = exename+pid).
        assert_ne!(log.events[1].subject, log.events[1].object);
        let new_proc = log.entity(log.events[1].object);
        assert_eq!(new_proc.attrs.get("exename").as_deref(), Some("/usr/bin/gpg"));
        assert_eq!(new_proc.attrs.get("cmd").as_deref(), Some("gpg -c upload.tar.bz2"));
    }

    #[test]
    fn fork_inherits_fds() {
        let records = vec![
            rec(
                1,
                40,
                "/bin/bash",
                Syscall::Open,
                SyscallArgs::Open { path: "/tmp/x".into(), fd: 5 },
                5,
            ),
            rec(
                2,
                40,
                "/bin/bash",
                Syscall::Fork,
                SyscallArgs::Spawn { child_pid: 41, child_exe: "/bin/bash".into() },
                41,
            ),
            rec(3, 41, "/bin/bash", Syscall::Write, SyscallArgs::Io { fd: 5 }, 64),
        ];
        let log = LogParser::parse(&records);
        let write = log.events.iter().find(|e| e.op == Operation::Write).unwrap();
        assert_eq!(log.entity(write.object).attrs.get("name").as_deref(), Some("/tmp/x"));
        // Parent and child are distinct entities despite same exe.
        let start = log.events.iter().find(|e| e.op == Operation::Start).unwrap();
        assert_ne!(start.subject, start.object);
    }

    #[test]
    fn entities_are_deduplicated() {
        let mut records = Vec::new();
        for i in 0..10 {
            records.push(rec(
                i,
                50,
                "/bin/cat",
                Syscall::Open,
                SyscallArgs::Open { path: "/etc/passwd".into(), fd: 3 },
                3,
            ));
            records.push(rec(i, 50, "/bin/cat", Syscall::Read, SyscallArgs::Io { fd: 3 }, 100));
            records.push(rec(i, 50, "/bin/cat", Syscall::Close, SyscallArgs::Close { fd: 3 }, 0));
        }
        let log = LogParser::parse(&records);
        assert_eq!(log.events.len(), 10);
        // One process + one file entity.
        assert_eq!(log.entities.len(), 2);
    }

    #[test]
    fn failed_calls_keep_fail_code() {
        let records = vec![
            rec(
                1,
                60,
                "/bin/cat",
                Syscall::Open,
                SyscallArgs::Open { path: "/etc/shadow".into(), fd: -1 },
                -13,
            ),
            rec(
                2,
                60,
                "/bin/cat",
                Syscall::Execve,
                SyscallArgs::Exec { path: "/bin/ls".into(), cmdline: "ls".into() },
                -13,
            ),
        ];
        let log = LogParser::parse(&records);
        // Failed open emits nothing (no fd), failed execve emits the file
        // Execute attempt with the failure code but no process switch.
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].op, Operation::Execute);
        assert_eq!(log.events[0].fail_code, 13);
    }

    #[test]
    fn exit_emits_end_event() {
        let records = vec![rec(1, 70, "/bin/sleep", Syscall::Exit, SyscallArgs::Exit, 0)];
        let log = LogParser::parse(&records);
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.events[0].op, Operation::End);
        assert_eq!(log.events[0].subject, log.events[0].object);
    }

    #[test]
    fn colliding_identities_take_successive_slots() {
        let file = |name: &str| {
            EntityAttrs::File(FileAttrs {
                name: name.into(),
                path: parent_dir(name),
                user: "root".into(),
                group: "root".into(),
            })
        };
        let (a_id, b_id) =
            (Identity::File { host: 0, name: "/a" }, Identity::File { host: 0, name: "/b" });
        let mut log = ParsedLog::default();
        let a = log.entity_for(a_id, || file("/a"));
        // Plant `/a` in the slot `/b` hashes to, as a hash collision would.
        let (slot_b, _) = log.probe(b_id);
        log.by_identity.insert(slot_b, a);
        let b = log.entity_for(b_id, || file("/b"));
        assert_ne!(a, b);
        assert_eq!(log.probe(b_id), (slot_b.wrapping_add(1), Some(b)));
        assert_eq!(log.entity_by_identity(a_id).map(|e| e.id), Some(a));
        assert_eq!(log.entity_by_identity(b_id).map(|e| e.id), Some(b));
        // Known identities build nothing.
        assert_eq!(log.entity_for(b_id, || unreachable!()), b);
        assert_eq!(log.entity_for(a_id, || unreachable!()), a);
        assert_eq!(log.entities.len(), 2);
    }

    #[test]
    fn hosts_partition_entities() {
        let mut r1 = rec(
            1,
            80,
            "/bin/cat",
            Syscall::Open,
            SyscallArgs::Open { path: "/tmp/f".into(), fd: 3 },
            3,
        );
        let mut r2 = r1.clone();
        r2.host = 1;
        r1.host = 0;
        let log = LogParser::parse(&[r1, r2]);
        // Same path on two hosts ⇒ two file entities, two process entities.
        assert_eq!(log.entities.len(), 4);
    }
}
