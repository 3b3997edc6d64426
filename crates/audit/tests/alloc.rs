//! Allocation counts of the ingest path, under a counting allocator: decoding
//! allocates once per non-empty string, and parsing a record that names only
//! entities already seen allocates nothing of its own.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use raptor_audit::codec::{decode_batch, encode_batch};
use raptor_audit::syscall::{Protocol, Syscall, SyscallArgs, SyscallRecord};
use raptor_audit::LogParser;
use raptor_common::time::{Duration, Timestamp};

struct Counting;

thread_local! {
    /// Allocations made by this thread; tests run on threads of their own.
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations `f` makes on this thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (out, ALLOCS.with(Cell::get) - before)
}

fn rec(ts: i64, pid: u32, exe: &str, call: Syscall, args: SyscallArgs, ret: i64) -> SyscallRecord {
    SyscallRecord {
        ts: Timestamp::from_millis(ts),
        latency: Duration::from_millis(1),
        host: 1,
        pid,
        exe: exe.into(),
        user: "alice".into(),
        group: "users".into(),
        call,
        args,
        ret,
    }
}

/// One record of every argument shape, every string non-empty.
fn every_shape() -> Vec<SyscallRecord> {
    let curl = |ts, call, args, ret| rec(ts, 7, "/usr/bin/curl", call, args, ret);
    vec![
        curl(1, Syscall::Open, SyscallArgs::Open { path: "/tmp/upload".into(), fd: 3 }, 3),
        curl(2, Syscall::Read, SyscallArgs::Io { fd: 3 }, 512),
        curl(3, Syscall::Close, SyscallArgs::Close { fd: 3 }, 0),
        curl(4, Syscall::Socket, SyscallArgs::Socket { fd: 4, protocol: Protocol::Udp }, 4),
        curl(
            5,
            Syscall::Connect,
            SyscallArgs::Connect {
                fd: 4,
                src_ip: "10.0.0.5".into(),
                src_port: 50123,
                dst_ip: "192.168.29.128".into(),
                dst_port: 443,
            },
            0,
        ),
        curl(6, Syscall::Sendto, SyscallArgs::Io { fd: 4 }, 1500),
        curl(
            7,
            Syscall::Execve,
            SyscallArgs::Exec { path: "/bin/ls".into(), cmdline: "ls".into() },
            0,
        ),
        curl(
            8,
            Syscall::Fork,
            SyscallArgs::Spawn { child_pid: 8, child_exe: "/bin/bash".into() },
            8,
        ),
        curl(
            9,
            Syscall::Rename,
            SyscallArgs::Rename { old: "/tmp/a".into(), new: "/tmp/b".into() },
            0,
        ),
        curl(10, Syscall::Exit, SyscallArgs::Exit, 0),
    ]
}

fn strings_of(r: &SyscallRecord) -> usize {
    3 + match &r.args {
        SyscallArgs::Open { .. } | SyscallArgs::Spawn { .. } => 1,
        SyscallArgs::Exec { .. } | SyscallArgs::Rename { .. } | SyscallArgs::Connect { .. } => 2,
        SyscallArgs::Close { .. }
        | SyscallArgs::Io { .. }
        | SyscallArgs::Socket { .. }
        | SyscallArgs::Exit => 0,
    }
}

#[test]
fn decoding_allocates_once_per_string() {
    let records = every_shape();
    let encoded = encode_batch(&records);
    let (decoded, n) = allocs(|| decode_batch(encoded.clone()).unwrap());
    assert_eq!(decoded, records);
    let strings: usize = records.iter().map(strings_of).sum();
    // One per string, plus the batch's `Vec`, reserved once at its count.
    assert_eq!(n, strings + 1);
}

#[test]
fn records_naming_known_entities_allocate_nothing() {
    let tar = |ts, call, args, ret| rec(ts, 10, "/bin/tar", call, args, ret);
    let round = |ts| {
        [
            tar(ts, Syscall::Open, SyscallArgs::Open { path: "/etc/passwd".into(), fd: 3 }, 3),
            tar(ts + 1, Syscall::Read, SyscallArgs::Io { fd: 3 }, 4096),
            tar(ts + 2, Syscall::Close, SyscallArgs::Close { fd: 3 }, 0),
            tar(
                ts + 3,
                Syscall::Rename,
                SyscallArgs::Rename { old: "/etc/passwd".into(), new: "/etc/passwd.bak".into() },
                0,
            ),
        ]
    };
    let mut parser = LogParser::new();
    for r in round(0) {
        parser.feed(&r);
    }
    let records: Vec<SyscallRecord> = (1..=1_000).flat_map(|i| round(10 * i)).collect();
    let ((), n) = allocs(|| records.iter().for_each(|r| parser.feed(r)));
    // 4,000 records, 2,000 events: only the event `Vec` grows, by doubling.
    assert!(n <= 12, "{n} allocations for 4,000 records naming known entities");
    let log = parser.finish();
    assert_eq!((log.entities.len(), log.events.len()), (2, 2_002));
}
