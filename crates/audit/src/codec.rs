//! Audit log codecs.
//!
//! Monitoring agents ship collected records to the central database
//! (Section II). This module provides the two on-the-wire forms:
//!
//! * a compact length-prefixed **binary** codec (tag byte per call, varint-
//!   free fixed-width integers, length-prefixed strings) built on `bytes`,
//! * a human-readable **text** form, one record per line, loosely following
//!   sysdig's output (`ts host pid exe user:group call(args) = ret`).
//!
//! Both roundtrip exactly; property tests in `tests/` assert it.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use raptor_common::error::{Error, Result};
use raptor_common::time::{Duration, Timestamp};

use crate::syscall::{Protocol, Syscall, SyscallArgs, SyscallRecord};

const MAX_STR: usize = 64 * 1024;

fn put_str(buf: &mut BytesMut, s: &str) {
    debug_assert!(s.len() <= MAX_STR);
    buf.put_u32_le(s.len() as u32);
    buf.put_slice(s.as_bytes());
}

/// Reads a length-prefixed string: validated in place, then copied once
/// into the `String` the record owns.
fn get_str(buf: &mut Bytes) -> Result<String> {
    if buf.remaining() < 4 {
        return Err(Error::audit("truncated string length"));
    }
    let len = buf.get_u32_le() as usize;
    if len > MAX_STR || buf.remaining() < len {
        return Err(Error::audit("truncated or oversized string"));
    }
    let s = std::str::from_utf8(&buf.chunk()[..len])
        .map_err(|_| Error::audit("invalid utf-8 in record"))?
        .to_owned();
    buf.advance(len);
    Ok(s)
}

fn call_tag(call: Syscall) -> u8 {
    Syscall::ALL.iter().position(|&c| c == call).unwrap() as u8
}

fn call_from_tag(tag: u8) -> Result<Syscall> {
    Syscall::ALL
        .get(tag as usize)
        .copied()
        .ok_or_else(|| Error::audit(format!("unknown syscall tag {tag}")))
}

/// Encodes one record onto `buf`.
pub fn encode_record(r: &SyscallRecord, buf: &mut BytesMut) {
    buf.put_i64_le(r.ts.0);
    buf.put_i64_le(r.latency.0);
    buf.put_u16_le(r.host);
    buf.put_u32_le(r.pid);
    put_str(buf, &r.exe);
    put_str(buf, &r.user);
    put_str(buf, &r.group);
    buf.put_u8(call_tag(r.call));
    buf.put_i64_le(r.ret);
    match &r.args {
        SyscallArgs::Open { path, fd } => {
            put_str(buf, path);
            buf.put_i32_le(*fd);
        }
        SyscallArgs::Close { fd } | SyscallArgs::Io { fd } => buf.put_i32_le(*fd),
        SyscallArgs::Exec { path, cmdline } => {
            put_str(buf, path);
            put_str(buf, cmdline);
        }
        SyscallArgs::Spawn { child_pid, child_exe } => {
            buf.put_u32_le(*child_pid);
            put_str(buf, child_exe);
        }
        SyscallArgs::Rename { old, new } => {
            put_str(buf, old);
            put_str(buf, new);
        }
        SyscallArgs::Socket { fd, protocol } => {
            buf.put_i32_le(*fd);
            buf.put_u8(matches!(protocol, Protocol::Udp) as u8);
        }
        SyscallArgs::Connect { fd, src_ip, src_port, dst_ip, dst_port } => {
            buf.put_i32_le(*fd);
            put_str(buf, src_ip);
            buf.put_u16_le(*src_port);
            put_str(buf, dst_ip);
            buf.put_u16_le(*dst_port);
        }
        SyscallArgs::Exit => {}
    }
}

/// Decodes one record from `buf`, advancing it.
pub fn decode_record(buf: &mut Bytes) -> Result<SyscallRecord> {
    if buf.remaining() < 8 + 8 + 2 + 4 {
        return Err(Error::audit("truncated record header"));
    }
    let ts = Timestamp(buf.get_i64_le());
    let latency = Duration(buf.get_i64_le());
    let host = buf.get_u16_le();
    let pid = buf.get_u32_le();
    let exe = get_str(buf)?;
    let user = get_str(buf)?;
    let group = get_str(buf)?;
    if buf.remaining() < 1 + 8 {
        return Err(Error::audit("truncated record body"));
    }
    let call = call_from_tag(buf.get_u8())?;
    let ret = buf.get_i64_le();
    let need_i32 = |buf: &mut Bytes| -> Result<i32> {
        if buf.remaining() < 4 {
            return Err(Error::audit("truncated args"));
        }
        Ok(buf.get_i32_le())
    };
    let args = match call {
        Syscall::Open => {
            let path = get_str(buf)?;
            SyscallArgs::Open { path, fd: need_i32(buf)? }
        }
        Syscall::Close => SyscallArgs::Close { fd: need_i32(buf)? },
        Syscall::Read
        | Syscall::Readv
        | Syscall::Write
        | Syscall::Writev
        | Syscall::Sendto
        | Syscall::Sendmsg
        | Syscall::Recvfrom
        | Syscall::Recvmsg => SyscallArgs::Io { fd: need_i32(buf)? },
        Syscall::Execve => SyscallArgs::Exec { path: get_str(buf)?, cmdline: get_str(buf)? },
        Syscall::Fork | Syscall::Clone => {
            if buf.remaining() < 4 {
                return Err(Error::audit("truncated spawn args"));
            }
            let child_pid = buf.get_u32_le();
            SyscallArgs::Spawn { child_pid, child_exe: get_str(buf)? }
        }
        Syscall::Rename => SyscallArgs::Rename { old: get_str(buf)?, new: get_str(buf)? },
        Syscall::Socket => {
            let fd = need_i32(buf)?;
            if buf.remaining() < 1 {
                return Err(Error::audit("truncated socket args"));
            }
            let protocol = if buf.get_u8() == 1 { Protocol::Udp } else { Protocol::Tcp };
            SyscallArgs::Socket { fd, protocol }
        }
        Syscall::Connect => {
            let fd = need_i32(buf)?;
            let src_ip = get_str(buf)?;
            if buf.remaining() < 2 {
                return Err(Error::audit("truncated connect args"));
            }
            let src_port = buf.get_u16_le();
            let dst_ip = get_str(buf)?;
            if buf.remaining() < 2 {
                return Err(Error::audit("truncated connect args"));
            }
            let dst_port = buf.get_u16_le();
            SyscallArgs::Connect { fd, src_ip, src_port, dst_ip, dst_port }
        }
        Syscall::Exit => SyscallArgs::Exit,
    };
    Ok(SyscallRecord { ts, latency, host, pid, exe, user, group, call, args, ret })
}

/// Encodes a batch with a count header.
pub fn encode_batch(records: &[SyscallRecord]) -> Bytes {
    let mut buf = BytesMut::with_capacity(records.len() * 64);
    buf.put_u64_le(records.len() as u64);
    for r in records {
        encode_record(r, &mut buf);
    }
    buf.freeze()
}

/// The fewest bytes an encoded record takes: the fixed header, three empty
/// strings, the call tag and the return value (`exit` has no arguments).
const MIN_RECORD: usize = 8 + 8 + 2 + 4 + 3 * 4 + 1 + 8;

/// Decodes a batch produced by [`encode_batch`]. A count the bytes cannot
/// hold is an error before anything is reserved for it.
pub fn decode_batch(mut bytes: Bytes) -> Result<Vec<SyscallRecord>> {
    if bytes.remaining() < 8 {
        return Err(Error::audit("truncated batch header"));
    }
    let n = bytes.get_u64_le();
    if n > (bytes.remaining() / MIN_RECORD) as u64 {
        return Err(Error::audit(format!(
            "batch claims {n} records in {} bytes",
            bytes.remaining()
        )));
    }
    let mut out = Vec::with_capacity(n as usize);
    for _ in 0..n {
        out.push(decode_record(&mut bytes)?);
    }
    Ok(out)
}

/// Renders one record as a sysdig-like text line.
pub fn to_text_line(r: &SyscallRecord) -> String {
    let args = match &r.args {
        SyscallArgs::Open { path, fd } => format!("path={path} fd={fd}"),
        SyscallArgs::Close { fd } => format!("fd={fd}"),
        SyscallArgs::Io { fd } => format!("fd={fd}"),
        SyscallArgs::Exec { path, cmdline } => format!("path={path} cmd={:?}", cmdline),
        SyscallArgs::Spawn { child_pid, child_exe } => {
            format!("child={child_pid} exe={child_exe}")
        }
        SyscallArgs::Rename { old, new } => format!("old={old} new={new}"),
        SyscallArgs::Socket { fd, protocol } => format!("fd={fd} proto={}", protocol.name()),
        SyscallArgs::Connect { fd, src_ip, src_port, dst_ip, dst_port } => {
            format!("fd={fd} src={src_ip}:{src_port} dst={dst_ip}:{dst_port}")
        }
        SyscallArgs::Exit => String::new(),
    };
    format!(
        "{} h{} {} {} {}:{} {}({}) = {}",
        r.ts.0,
        r.host,
        r.pid,
        r.exe,
        r.user,
        r.group,
        r.call.name(),
        args,
        r.ret
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<SyscallRecord> {
        let base = |call, args, ret| SyscallRecord {
            ts: Timestamp::from_millis(12345),
            latency: Duration::from_millis(2),
            host: 3,
            pid: 777,
            exe: "/usr/bin/curl".into(),
            user: "alice".into(),
            group: "users".into(),
            call,
            args,
            ret,
        };
        vec![
            base(Syscall::Open, SyscallArgs::Open { path: "/tmp/upload".into(), fd: 3 }, 3),
            base(Syscall::Read, SyscallArgs::Io { fd: 3 }, 8192),
            base(Syscall::Close, SyscallArgs::Close { fd: 3 }, 0),
            base(Syscall::Socket, SyscallArgs::Socket { fd: 4, protocol: Protocol::Udp }, 4),
            base(
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
            base(
                Syscall::Execve,
                SyscallArgs::Exec { path: "/bin/ls".into(), cmdline: "ls -la".into() },
                0,
            ),
            base(
                Syscall::Fork,
                SyscallArgs::Spawn { child_pid: 778, child_exe: "/bin/bash".into() },
                778,
            ),
            base(
                Syscall::Rename,
                SyscallArgs::Rename { old: "/tmp/a".into(), new: "/tmp/b".into() },
                0,
            ),
            base(Syscall::Exit, SyscallArgs::Exit, 0),
        ]
    }

    #[test]
    fn batch_roundtrip() {
        let records = sample_records();
        let encoded = encode_batch(&records);
        let decoded = decode_batch(encoded).unwrap();
        assert_eq!(records, decoded);
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let records = sample_records();
        let encoded = encode_batch(&records);
        for cut in [0, 1, 7, 9, 20, encoded.len() - 1] {
            let sliced = encoded.slice(..cut);
            assert!(decode_batch(sliced).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn bad_tag_rejected() {
        let mut buf = BytesMut::new();
        let r = &sample_records()[8];
        encode_record(r, &mut buf);
        // Corrupt the call tag (offset: 8+8+2+4 + (4+len(exe)) + ... compute
        // by scanning: easier to flip the known tag byte value).
        let mut raw = buf.to_vec();
        let tag_pos = raw.iter().position(|&b| b == call_tag(Syscall::Exit)).unwrap();
        raw[tag_pos] = 250;
        let res = decode_record(&mut Bytes::from(raw));
        assert!(res.is_err());
    }

    #[test]
    fn forged_count_is_an_error_not_a_reservation() {
        let mut buf = BytesMut::new();
        buf.put_u64_le(u64::MAX);
        encode_record(&sample_records()[8], &mut buf);
        let err = decode_batch(buf.freeze()).unwrap_err();
        assert!(err.to_string().contains("claims"), "{err}");
        // One record more than the bytes hold is refused too.
        let mut one_short = encode_batch(&sample_records()).to_vec();
        one_short[..8].copy_from_slice(&10u64.to_le_bytes());
        assert!(decode_batch(Bytes::from(one_short)).is_err());
    }

    #[test]
    fn invalid_utf8_is_an_error() {
        let mut buf = BytesMut::new();
        encode_record(&sample_records()[8], &mut buf);
        let mut raw = buf.to_vec();
        // The first string (exe) starts after the fixed header and its length.
        raw[8 + 8 + 2 + 4 + 4] = 0xFF;
        let err = decode_record(&mut Bytes::from(raw)).unwrap_err();
        assert!(err.to_string().contains("utf-8"), "{err}");
    }

    #[test]
    fn text_line_contains_key_fields() {
        let line = to_text_line(&sample_records()[4]);
        assert!(line.contains("connect"));
        assert!(line.contains("192.168.29.128:443"));
        assert!(line.contains("/usr/bin/curl"));
    }

    #[test]
    fn empty_batch() {
        let encoded = encode_batch(&[]);
        assert_eq!(decode_batch(encoded).unwrap(), Vec::new());
    }
}
