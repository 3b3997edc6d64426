//! The durability plane's I/O substrate: a minimal injectable file backend
//! plus the binary encoding primitives shared by the WAL and checkpoint
//! codecs.
//!
//! * [`Fs`] — the five operations durability needs (`append`, `sync`,
//!   `read`, `replace`, `remove`), implemented by [`DirFs`] (a real
//!   directory), [`MemFs`] (in-memory, for tests and benches) and
//!   [`FailpointFs`] (a deterministic fault injector that can tear any
//!   write at a chosen global byte offset, or fail a chosen operation,
//!   and then behave like a crashed process),
//! * [`crc32`] — the IEEE CRC-32 every WAL record and checkpoint carries,
//! * [`Cur`] plus the `put_*` helpers — a tiny length-checked binary
//!   cursor; every truncation or overrun surfaces as a typed
//!   [`Error::storage`], never a panic.

use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

use crate::error::{Error, Result};

/// Hard cap on any length-prefixed string/blob read through [`Cur`] — a
/// corrupt length prefix must not turn into a giant allocation.
pub const MAX_BLOB: usize = 64 * 1024 * 1024;

// ---------------------------------------------------------------------------
// CRC-32 (IEEE 802.3), table-driven, built at compile time.
// ---------------------------------------------------------------------------

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        table[i] = c;
        i += 1;
    }
    table
}

const CRC_TABLE: [u32; 256] = crc_table();

/// IEEE CRC-32 of `bytes` (the checksum in every WAL record frame and
/// checkpoint header).
pub fn crc32(bytes: &[u8]) -> u32 {
    let mut c = 0xFFFF_FFFFu32;
    for &b in bytes {
        c = CRC_TABLE[((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

// ---------------------------------------------------------------------------
// Binary cursor helpers.
// ---------------------------------------------------------------------------

/// A length-checked little-endian reader over a byte slice. Every accessor
/// returns a typed [`Error::storage`] on truncation — corrupt durability
/// files decode to errors, never panics.
pub struct Cur<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Cur<'a> {
    pub fn new(buf: &'a [u8]) -> Self {
        Cur { buf, pos: 0 }
    }

    pub fn pos(&self) -> usize {
        self.pos
    }

    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    pub fn is_done(&self) -> bool {
        self.remaining() == 0
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(Error::storage(format!(
                "truncated {what}: need {n} bytes, {} left at offset {}",
                self.remaining(),
                self.pos
            )));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    pub fn get_u8(&mut self) -> Result<u8> {
        Ok(self.take(1, "u8")?[0])
    }

    pub fn get_u16(&mut self) -> Result<u16> {
        Ok(u16::from_le_bytes(self.take(2, "u16")?.try_into().expect("sized")))
    }

    pub fn get_u32(&mut self) -> Result<u32> {
        Ok(u32::from_le_bytes(self.take(4, "u32")?.try_into().expect("sized")))
    }

    pub fn get_i32(&mut self) -> Result<i32> {
        Ok(i32::from_le_bytes(self.take(4, "i32")?.try_into().expect("sized")))
    }

    pub fn get_u64(&mut self) -> Result<u64> {
        Ok(u64::from_le_bytes(self.take(8, "u64")?.try_into().expect("sized")))
    }

    pub fn get_i64(&mut self) -> Result<i64> {
        Ok(i64::from_le_bytes(self.take(8, "i64")?.try_into().expect("sized")))
    }

    /// A `u64` that must fit a sane in-memory count (guards corrupt length
    /// prefixes before they become allocations).
    pub fn get_len(&mut self) -> Result<usize> {
        let n = self.get_u64()?;
        if n > MAX_BLOB as u64 {
            return Err(Error::storage(format!("implausible length {n} (corrupt input?)")));
        }
        Ok(n as usize)
    }

    pub fn get_bytes(&mut self, n: usize) -> Result<&'a [u8]> {
        if n > MAX_BLOB {
            return Err(Error::storage(format!("implausible blob length {n}")));
        }
        self.take(n, "blob")
    }

    /// A `u32`-length-prefixed UTF-8 string.
    pub fn get_str(&mut self) -> Result<String> {
        let n = self.get_u32()? as usize;
        if n > MAX_BLOB {
            return Err(Error::storage(format!("implausible string length {n}")));
        }
        let raw = self.take(n, "string")?;
        String::from_utf8(raw.to_vec())
            .map_err(|_| Error::storage("invalid utf-8 in durability record"))
    }
}

pub fn put_u8(buf: &mut Vec<u8>, v: u8) {
    buf.push(v);
}

pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i32(buf: &mut Vec<u8>, v: i32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_i64(buf: &mut Vec<u8>, v: i64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub fn put_str(buf: &mut Vec<u8>, s: &str) {
    debug_assert!(s.len() <= MAX_BLOB);
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

// ---------------------------------------------------------------------------
// The injectable file backend.
// ---------------------------------------------------------------------------

/// The file operations the durability plane needs, kept deliberately tiny
/// so fault injection can wrap *every* byte that would reach disk.
///
/// Semantics the implementations guarantee:
///
/// * [`Fs::append`] appends to the named file, creating it if absent,
/// * [`Fs::sync`] is the durability point (fsync; a no-op for [`MemFs`]),
/// * [`Fs::read`] returns `None` for a missing file (not an error),
/// * [`Fs::replace`] atomically replaces the whole file content — after a
///   crash the file holds either the old bytes or the new bytes, never a
///   mix ([`DirFs`] implements it as write-to-temp + rename).
pub trait Fs: Send + Sync + std::fmt::Debug {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<()>;
    fn sync(&self, name: &str) -> Result<()>;
    fn read(&self, name: &str) -> Result<Option<Vec<u8>>>;
    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()>;
    fn remove(&self, name: &str) -> Result<()>;
}

/// A real directory. File names are flat (no separators).
#[derive(Debug, Clone)]
pub struct DirFs {
    root: PathBuf,
}

impl DirFs {
    /// Opens (creating if needed) `root` as a durability directory.
    pub fn new(root: impl AsRef<Path>) -> Result<Self> {
        let root = root.as_ref().to_path_buf();
        std::fs::create_dir_all(&root)
            .map_err(|e| Error::storage(format!("create dir {}: {e}", root.display())))?;
        Ok(DirFs { root })
    }

    pub fn root(&self) -> &Path {
        &self.root
    }

    fn path(&self, name: &str) -> Result<PathBuf> {
        if name.is_empty() || name.contains(['/', '\\']) {
            return Err(Error::storage(format!("invalid durability file name `{name}`")));
        }
        Ok(self.root.join(name))
    }
}

impl Fs for DirFs {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let path = self.path(name)?;
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| Error::storage(format!("open {}: {e}", path.display())))?;
        f.write_all(bytes).map_err(|e| Error::storage(format!("append {name}: {e}")))
    }

    fn sync(&self, name: &str) -> Result<()> {
        let path = self.path(name)?;
        match std::fs::File::open(&path) {
            Ok(f) => f.sync_all().map_err(|e| Error::storage(format!("fsync {name}: {e}"))),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Error::storage(format!("fsync open {name}: {e}"))),
        }
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let path = self.path(name)?;
        match std::fs::read(&path) {
            Ok(bytes) => Ok(Some(bytes)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(Error::storage(format!("read {name}: {e}"))),
        }
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let path = self.path(name)?;
        let tmp = self.root.join(format!("{name}.tmp"));
        std::fs::write(&tmp, bytes)
            .map_err(|e| Error::storage(format!("write {}: {e}", tmp.display())))?;
        // Renamed into place unsynced, the new content can come back empty
        // after power loss: no sync, no rename — the old file stays.
        std::fs::File::open(&tmp)
            .and_then(|f| f.sync_all())
            .map_err(|e| Error::storage(format!("fsync {}: {e}", tmp.display())))?;
        std::fs::rename(&tmp, &path).map_err(|e| Error::storage(format!("rename into {name}: {e}")))
    }

    fn remove(&self, name: &str) -> Result<()> {
        let path = self.path(name)?;
        match std::fs::remove_file(&path) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(Error::storage(format!("remove {name}: {e}"))),
        }
    }
}

/// An in-memory [`Fs`]. Cloning shares the backing files — a recovery test
/// keeps one handle, wraps another in a [`FailpointFs`], "crashes" the
/// wrapped one and re-opens from the shared state, exactly like a process
/// restart over a real directory.
#[derive(Debug, Clone, Default)]
pub struct MemFs {
    files: Arc<Mutex<std::collections::BTreeMap<String, Vec<u8>>>>,
}

impl MemFs {
    pub fn new() -> Self {
        Self::default()
    }

    /// Direct test access: current content of `name` (empty if absent).
    pub fn snapshot(&self, name: &str) -> Vec<u8> {
        self.files.lock().expect("memfs lock").get(name).cloned().unwrap_or_default()
    }

    /// Direct test access: overwrites `name` (for corruption injection).
    pub fn store(&self, name: &str, bytes: Vec<u8>) {
        self.files.lock().expect("memfs lock").insert(name.to_string(), bytes);
    }
}

impl Fs for MemFs {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.files
            .lock()
            .expect("memfs lock")
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn sync(&self, _name: &str) -> Result<()> {
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        Ok(self.files.lock().expect("memfs lock").get(name).cloned())
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.files.lock().expect("memfs lock").insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.files.lock().expect("memfs lock").remove(name);
        Ok(())
    }
}

#[derive(Debug, Default)]
struct FailState {
    /// Bytes that may still be written before the simulated crash. `None`
    /// disarms the failpoint.
    budget: Option<u64>,
    /// Once tripped, every subsequent operation fails (the process is
    /// "dead"; recovery happens over the unwrapped inner backend).
    crashed: bool,
    /// Total bytes successfully handed to the inner backend.
    written: u64,
    /// Countdown of operations until a one-shot injected error (no crash).
    err_ops: Option<u64>,
}

/// A deterministic fault injector around any [`Fs`].
///
/// * [`FailpointFs::crash_after_bytes`] arms a **torn-write crash**: the
///   write that crosses the global byte budget is truncated at exactly the
///   budget boundary (an atomic [`Fs::replace`] instead keeps the old
///   content — that is what atomic means), and every operation after it
///   fails. This simulates power loss mid-record, mid-checkpoint, or right
///   after an fsync, depending on where the budget lands.
/// * [`FailpointFs::error_on_op`] injects a single transient error without
///   crashing (exercises error propagation paths).
#[derive(Debug)]
pub struct FailpointFs {
    inner: Arc<dyn Fs>,
    state: Mutex<FailState>,
}

impl FailpointFs {
    pub fn new(inner: Arc<dyn Fs>) -> Self {
        FailpointFs { inner, state: Mutex::new(FailState::default()) }
    }

    /// Arms the crash failpoint: after `budget` more bytes, writes tear and
    /// the backend goes dead.
    pub fn crash_after_bytes(&self, budget: u64) {
        let mut st = self.state.lock().expect("failpoint lock");
        st.budget = Some(budget);
    }

    /// Injects one error `n` operations from now (0 = the next operation).
    pub fn error_on_op(&self, n: u64) {
        self.state.lock().expect("failpoint lock").err_ops = Some(n);
    }

    /// Has the armed crash tripped?
    pub fn crashed(&self) -> bool {
        self.state.lock().expect("failpoint lock").crashed
    }

    /// Total bytes successfully written through this wrapper (calibrates
    /// crash offsets in tests).
    pub fn bytes_written(&self) -> u64 {
        self.state.lock().expect("failpoint lock").written
    }

    fn gate(st: &mut FailState) -> Result<()> {
        if st.crashed {
            return Err(Error::storage("failpoint: backend crashed"));
        }
        if let Some(n) = st.err_ops {
            if n == 0 {
                st.err_ops = None;
                return Err(Error::storage("failpoint: injected transient error"));
            }
            st.err_ops = Some(n - 1);
        }
        Ok(())
    }
}

impl Fs for FailpointFs {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let mut st = self.state.lock().expect("failpoint lock");
        Self::gate(&mut st)?;
        if let Some(budget) = st.budget {
            if (bytes.len() as u64) > budget {
                // Torn write: the prefix reaches "disk", the rest is lost,
                // and the process is dead from here on.
                let keep = budget as usize;
                st.crashed = true;
                st.written += keep as u64;
                self.inner.append(name, &bytes[..keep])?;
                return Err(Error::storage("failpoint: crash mid-write (torn record)"));
            }
            st.budget = Some(budget - bytes.len() as u64);
        }
        st.written += bytes.len() as u64;
        self.inner.append(name, bytes)
    }

    fn sync(&self, name: &str) -> Result<()> {
        let mut st = self.state.lock().expect("failpoint lock");
        Self::gate(&mut st)?;
        self.inner.sync(name)
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let mut st = self.state.lock().expect("failpoint lock");
        Self::gate(&mut st)?;
        self.inner.read(name)
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let mut st = self.state.lock().expect("failpoint lock");
        Self::gate(&mut st)?;
        if let Some(budget) = st.budget {
            if (bytes.len() as u64) > budget {
                // Crash mid-replace: atomic replace means the rename never
                // happened — the old content survives untouched.
                st.crashed = true;
                return Err(Error::storage("failpoint: crash mid-replace (old content kept)"));
            }
            st.budget = Some(budget - bytes.len() as u64);
        }
        st.written += bytes.len() as u64;
        self.inner.replace(name, bytes)
    }

    fn remove(&self, name: &str) -> Result<()> {
        let mut st = self.state.lock().expect("failpoint lock");
        Self::gate(&mut st)?;
        self.inner.remove(name)
    }
}

/// The durability directory tests and CI use: `RAPTOR_WAL_DIR` when set
/// (CI plumbs a workspace temp dir through it), else the system temp dir.
/// The returned path is namespaced by `label` and the process id so
/// concurrent test binaries never collide.
pub fn test_wal_dir(label: &str) -> PathBuf {
    let base =
        std::env::var_os("RAPTOR_WAL_DIR").map(PathBuf::from).unwrap_or_else(std::env::temp_dir);
    base.join(format!("raptor-{label}-{}", std::process::id()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_known_vectors() {
        // Standard IEEE test vector.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_ne!(crc32(b"abc"), crc32(b"abd"));
    }

    #[test]
    fn cursor_roundtrip_and_truncation() {
        let mut buf = Vec::new();
        put_u8(&mut buf, 7);
        put_u16(&mut buf, 300);
        put_u32(&mut buf, 70_000);
        put_u64(&mut buf, u64::MAX - 1);
        put_i64(&mut buf, -42);
        put_i32(&mut buf, -7);
        put_str(&mut buf, "hello");
        let mut cur = Cur::new(&buf);
        assert_eq!(cur.get_u8().unwrap(), 7);
        assert_eq!(cur.get_u16().unwrap(), 300);
        assert_eq!(cur.get_u32().unwrap(), 70_000);
        assert_eq!(cur.get_u64().unwrap(), u64::MAX - 1);
        assert_eq!(cur.get_i64().unwrap(), -42);
        assert_eq!(cur.get_i32().unwrap(), -7);
        assert_eq!(cur.get_str().unwrap(), "hello");
        assert!(cur.is_done());
        // Every truncation point errors, never panics.
        for cut in 0..buf.len() {
            let mut c = Cur::new(&buf[..cut]);
            let mut ok = true;
            while ok {
                ok = c.get_u8().is_ok();
            }
        }
    }

    #[test]
    fn implausible_lengths_rejected() {
        let mut buf = Vec::new();
        put_u32(&mut buf, u32::MAX); // absurd string length
        assert!(Cur::new(&buf).get_str().is_err());
        let mut buf = Vec::new();
        put_u64(&mut buf, u64::MAX);
        assert!(Cur::new(&buf).get_len().is_err());
    }

    #[test]
    fn memfs_append_replace_read() {
        let fs = MemFs::new();
        assert_eq!(fs.read("wal").unwrap(), None);
        fs.append("wal", b"ab").unwrap();
        fs.append("wal", b"cd").unwrap();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"abcd");
        fs.replace("wal", b"xy").unwrap();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"xy");
        fs.remove("wal").unwrap();
        assert_eq!(fs.read("wal").unwrap(), None);
    }

    #[test]
    fn dirfs_roundtrip() {
        let dir = test_wal_dir("dirfs-unit");
        let fs = DirFs::new(&dir).unwrap();
        fs.remove("wal").unwrap();
        fs.append("wal", b"hello ").unwrap();
        fs.append("wal", b"world").unwrap();
        fs.sync("wal").unwrap();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"hello world");
        fs.replace("wal", b"fresh").unwrap();
        assert_eq!(fs.read("wal").unwrap().unwrap(), b"fresh");
        assert!(fs.append("../escape", b"x").is_err());
        fs.remove("wal").unwrap();
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn failpoint_tears_write_at_budget_and_goes_dead() {
        let mem = MemFs::new();
        let fp = FailpointFs::new(Arc::new(mem.clone()));
        fp.crash_after_bytes(5);
        fp.append("wal", b"abc").unwrap();
        // This 4-byte write crosses the 5-byte budget: 2 bytes land.
        assert!(fp.append("wal", b"defg").is_err());
        assert!(fp.crashed());
        assert_eq!(mem.snapshot("wal"), b"abcde");
        // Dead from here on — every operation fails.
        assert!(fp.append("wal", b"x").is_err());
        assert!(fp.sync("wal").is_err());
        assert!(fp.read("wal").is_err());
        // ...but the unwrapped backend still serves recovery.
        assert_eq!(mem.read("wal").unwrap().unwrap(), b"abcde");
    }

    #[test]
    fn failpoint_replace_is_atomic_under_crash() {
        let mem = MemFs::new();
        mem.store("ckpt", b"old".to_vec());
        let fp = FailpointFs::new(Arc::new(mem.clone()));
        fp.crash_after_bytes(2);
        assert!(fp.replace("ckpt", b"new-content").is_err());
        // Old content survives: replace never half-applies.
        assert_eq!(mem.snapshot("ckpt"), b"old");
    }

    #[test]
    fn failpoint_one_shot_error_without_crash() {
        let mem = MemFs::new();
        let fp = FailpointFs::new(Arc::new(mem.clone()));
        fp.error_on_op(1);
        fp.append("wal", b"a").unwrap();
        assert!(fp.append("wal", b"b").is_err());
        // Transient: the backend keeps working afterwards.
        fp.append("wal", b"c").unwrap();
        assert!(!fp.crashed());
        assert_eq!(mem.snapshot("wal"), b"ac");
    }
}
