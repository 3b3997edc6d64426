//! Property-based tests: codec round-trip and data-reduction invariants.

use std::collections::HashSet;

use bytes::Bytes;
use proptest::prelude::*;
use raptor_audit::codec::{decode_batch, encode_batch};
use raptor_audit::reduce::merge_events;
use raptor_audit::syscall::{Protocol, Syscall, SyscallArgs, SyscallRecord};
use raptor_audit::{EventKind, LogParser, Operation, SystemEvent};
use raptor_common::ids::{EntityId, EventId};
use raptor_common::time::{Duration, Timestamp};

fn arb_args() -> impl Strategy<Value = (Syscall, SyscallArgs)> {
    prop_oneof![
        ("[ -~]{1,40}", 0..64i32)
            .prop_map(|(p, fd)| (Syscall::Open, SyscallArgs::Open { path: p, fd })),
        (0..64i32).prop_map(|fd| (Syscall::Close, SyscallArgs::Close { fd })),
        (0..64i32).prop_map(|fd| (Syscall::Read, SyscallArgs::Io { fd })),
        (0..64i32).prop_map(|fd| (Syscall::Sendto, SyscallArgs::Io { fd })),
        ("[ -~]{1,40}", "[ -~]{0,40}")
            .prop_map(|(p, c)| (Syscall::Execve, SyscallArgs::Exec { path: p, cmdline: c })),
        (1u32..99999, "[ -~]{1,30}").prop_map(|(pid, exe)| (
            Syscall::Fork,
            SyscallArgs::Spawn { child_pid: pid, child_exe: exe }
        )),
        ("[ -~]{1,30}", "[ -~]{1,30}")
            .prop_map(|(a, b)| (Syscall::Rename, SyscallArgs::Rename { old: a, new: b })),
        (0..64i32, proptest::bool::ANY).prop_map(|(fd, udp)| {
            (
                Syscall::Socket,
                SyscallArgs::Socket {
                    fd,
                    protocol: if udp { Protocol::Udp } else { Protocol::Tcp },
                },
            )
        }),
        (0..64i32, "[0-9.]{7,15}", 1u16.., "[0-9.]{7,15}", 1u16..).prop_map(
            |(fd, si, sp, di, dp)| {
                (
                    Syscall::Connect,
                    SyscallArgs::Connect { fd, src_ip: si, src_port: sp, dst_ip: di, dst_port: dp },
                )
            }
        ),
        Just((Syscall::Exit, SyscallArgs::Exit)),
    ]
}

fn arb_record() -> impl Strategy<Value = SyscallRecord> {
    (
        0i64..1_000_000_000_000,
        0i64..1_000_000,
        0u16..4,
        1u32..100_000,
        "[ -~]{1,30}",
        "[a-z]{1,10}",
        arb_args(),
        -200i64..1_000_000,
    )
        .prop_map(|(ts, lat, host, pid, exe, user, (call, args), ret)| SyscallRecord {
            ts: Timestamp(ts),
            latency: Duration(lat),
            host,
            pid,
            exe,
            user: user.clone(),
            group: user,
            call,
            args,
            ret,
        })
}

/// Records over a handful of hosts, pids, executables, paths and
/// endpoints, so that entities recur and identities nearly collide.
fn arb_recurring_record() -> impl Strategy<Value = SyscallRecord> {
    let args = prop_oneof![
        ("/[ab]{1,2}", 3..5i32)
            .prop_map(|(path, fd)| (Syscall::Open, SyscallArgs::Open { path, fd })),
        (3..5i32).prop_map(|fd| (Syscall::Read, SyscallArgs::Io { fd })),
        (3..5i32).prop_map(|fd| (Syscall::Write, SyscallArgs::Io { fd })),
        (3..5i32).prop_map(|fd| (Syscall::Close, SyscallArgs::Close { fd })),
        ("/bin/[ab]", "[ab]{0,2}")
            .prop_map(|(path, cmdline)| (Syscall::Execve, SyscallArgs::Exec { path, cmdline })),
        (1u32..4, "/bin/[ab]").prop_map(|(child_pid, child_exe)| {
            (Syscall::Clone, SyscallArgs::Spawn { child_pid, child_exe })
        }),
        (3..5i32, proptest::bool::ANY).prop_map(|(fd, udp)| {
            let protocol = if udp { Protocol::Udp } else { Protocol::Tcp };
            (Syscall::Socket, SyscallArgs::Socket { fd, protocol })
        }),
        (3..5i32, "10.0.0.[12]", 1u16..3, "10.0.0.[12]", 1u16..3).prop_map(
            |(fd, src_ip, src_port, dst_ip, dst_port)| {
                let args = SyscallArgs::Connect { fd, src_ip, src_port, dst_ip, dst_port };
                (Syscall::Connect, args)
            }
        ),
        Just((Syscall::Exit, SyscallArgs::Exit)),
    ];
    (0u16..2, 1u32..4, "/bin/[ab]", args, -1i64..3).prop_map(
        |(host, pid, exe, (call, args), ret)| SyscallRecord {
            ts: Timestamp(0),
            latency: Duration(1),
            host,
            pid,
            exe,
            user: "root".into(),
            group: "root".into(),
            call,
            args,
            ret,
        },
    )
}

fn arb_event(groups: usize) -> impl Strategy<Value = SystemEvent> {
    (0..groups, 0..groups, 0..3usize, 0i64..10_000, 0i64..50, 0u64..10_000).prop_map(
        move |(s, o, op, start_ms, dur_ms, amount)| SystemEvent {
            id: EventId(0),
            subject: EntityId(s as u32),
            object: EntityId((o + groups) as u32),
            op: [Operation::Read, Operation::Write, Operation::Connect][op],
            kind: EventKind::File,
            start: Timestamp::from_millis(start_ms),
            end: Timestamp::from_millis(start_ms + dur_ms),
            amount,
            fail_code: 0,
            host: 0,
        },
    )
}

proptest! {
    /// The binary codec round-trips arbitrary record batches exactly.
    #[test]
    fn codec_roundtrip(records in proptest::collection::vec(arb_record(), 0..40)) {
        let encoded = encode_batch(&records);
        let decoded = decode_batch(encoded).unwrap();
        prop_assert_eq!(records, decoded);
    }

    /// Truncated batches fail gracefully (error, never panic).
    #[test]
    fn codec_truncation_never_panics(
        records in proptest::collection::vec(arb_record(), 1..10),
        cut_frac in 0.0f64..1.0,
    ) {
        let encoded = encode_batch(&records);
        let cut = ((encoded.len() as f64) * cut_frac) as usize;
        if cut < encoded.len() {
            let _ = decode_batch(encoded.slice(..cut)); // must not panic
        }
    }

    /// A corrupted batch decodes to records or to a typed error: never a
    /// panic, never a reservation its bytes cannot back.
    #[test]
    fn codec_corruption_never_panics(
        records in proptest::collection::vec(arb_record(), 1..10),
        at_frac in 0.0f64..1.0,
        byte in 0u16..256,
    ) {
        let mut raw = encode_batch(&records).as_ref().to_vec();
        let at = ((raw.len() as f64) * at_frac) as usize;
        raw[at] = byte as u8;
        let _ = decode_batch(Bytes::from(raw));
    }

    /// The parser keeps one entity per identity, and finds each entity
    /// again by its identity, however the records recur.
    #[test]
    fn parser_keeps_one_entity_per_identity(
        mut records in proptest::collection::vec(arb_recurring_record(), 0..80),
    ) {
        for (i, r) in records.iter_mut().enumerate() {
            r.ts = Timestamp::from_millis(i as i64);
        }
        let log = LogParser::parse(&records);
        let mut seen = HashSet::new();
        for (i, e) in log.entities.iter().enumerate() {
            prop_assert_eq!(e.id.index(), i);
            prop_assert!(seen.insert(e.identity()), "{:?} twice", e.identity());
            prop_assert_eq!(log.entity_by_identity(e.identity()).map(|f| f.id), Some(e.id));
        }
        for ev in &log.events {
            prop_assert!(ev.subject.index() < log.entities.len());
            prop_assert!(ev.object.index() < log.entities.len());
        }
    }

    /// Data reduction: never increases event count, conserves total data
    /// amount, never merges across different (subject, object, op) groups,
    /// and is idempotent.
    #[test]
    fn reduction_invariants(mut events in proptest::collection::vec(arb_event(4), 0..60)) {
        events.sort_by_key(|e| e.start.0);
        for (i, e) in events.iter_mut().enumerate() {
            e.id = EventId(i as u32);
        }
        let total_before: u64 = events.iter().map(|e| e.amount).sum();
        let count_before = events.len();
        let mut merged = events.clone();
        let stats = merge_events(&mut merged, Duration::from_millis(500));
        prop_assert_eq!(stats.before, count_before);
        prop_assert!(merged.len() <= count_before);
        let total_after: u64 = merged.iter().map(|e| e.amount).sum();
        prop_assert_eq!(total_before, total_after, "data amount conserved");
        // Ids are dense.
        for (i, e) in merged.iter().enumerate() {
            prop_assert_eq!(e.id.index(), i);
        }
        // Per-group counts only shrink; groups never mix.
        use std::collections::HashMap;
        let group = |e: &SystemEvent| (e.subject, e.object, e.op);
        let mut before: HashMap<_, usize> = HashMap::new();
        for e in &events {
            *before.entry(group(e)).or_default() += 1;
        }
        let mut after: HashMap<_, usize> = HashMap::new();
        for e in &merged {
            *after.entry(group(e)).or_default() += 1;
        }
        for (g, n) in &after {
            prop_assert!(before.get(g).is_some_and(|b| b >= n));
        }
        // Idempotence.
        let mut twice = merged.clone();
        merge_events(&mut twice, Duration::from_millis(500));
        prop_assert_eq!(twice.len(), merged.len());
    }
}
