//! `TimedFs`: the benchmark's view of the durability plane's I/O.
//!
//! Wraps any [`Fs`] behind the public trait and counts calls, bytes and
//! busy time per operation. With an enabled [`Tracer`] each call is also a
//! span, so an epoch's span knows how much of it was I/O.

use std::sync::{Arc, Mutex};

use threatraptor::common::error::Result;
use threatraptor::common::io::Fs;

use crate::trace::Tracer;

/// Calls, bytes and per-call durations of one `Fs` operation.
#[derive(Clone, Debug, Default)]
pub struct OpLog {
    pub calls: u64,
    pub bytes: u64,
    pub busy_ns: u64,
    /// Per-call durations; kept only for `sync` (`replace` keeps its own).
    pub each_ns: Vec<u64>,
}

#[derive(Clone, Debug, Default)]
pub struct FsLog {
    pub append: OpLog,
    pub sync: OpLog,
    pub read: OpLog,
    pub replace: OpLog,
    pub remove: OpLog,
    /// Every `replace` call: file name, bytes written, duration.
    pub replaces: Vec<(String, u64, u64)>,
}

impl FsLog {
    pub fn busy_ns(&self) -> u64 {
        self.append.busy_ns
            + self.sync.busy_ns
            + self.read.busy_ns
            + self.replace.busy_ns
            + self.remove.busy_ns
    }
}

#[derive(Debug)]
pub struct TimedFs {
    inner: Arc<dyn Fs>,
    log: Mutex<FsLog>,
    tracer: Tracer,
}

impl TimedFs {
    pub fn new(inner: Arc<dyn Fs>, tracer: Tracer) -> Self {
        TimedFs { inner, log: Mutex::default(), tracer }
    }

    /// A copy of the counters so far.
    pub fn log(&self) -> FsLog {
        self.lock().clone()
    }

    /// Busy time and `replace` calls so far: cheap enough to read around
    /// every epoch.
    pub fn counters(&self) -> (u64, u64) {
        let log = self.lock();
        (log.busy_ns(), log.replace.calls)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, FsLog> {
        self.log.lock().expect("TimedFs holds its lock over plain counter updates only")
    }

    fn timed<R>(
        &self,
        span: &'static str,
        bytes: usize,
        keep_each: bool,
        pick: impl FnOnce(&mut FsLog) -> &mut OpLog,
        call: impl FnOnce() -> Result<R>,
    ) -> Result<(R, u64)> {
        let (r, ns) = self.tracer.span_timed(span, call);
        let mut log = self.lock();
        let op = pick(&mut log);
        op.calls += 1;
        op.bytes += bytes as u64;
        op.busy_ns += ns;
        if keep_each {
            op.each_ns.push(ns);
        }
        r.map(|r| (r, ns))
    }
}

impl Fs for TimedFs {
    fn append(&self, name: &str, bytes: &[u8]) -> Result<()> {
        self.timed(
            "common.io.append",
            bytes.len(),
            false,
            |l| &mut l.append,
            || self.inner.append(name, bytes),
        )?;
        Ok(())
    }

    fn sync(&self, name: &str) -> Result<()> {
        self.timed("common.io.sync", 0, true, |l| &mut l.sync, || self.inner.sync(name))?;
        Ok(())
    }

    fn read(&self, name: &str) -> Result<Option<Vec<u8>>> {
        let (r, _) =
            self.timed("common.io.read", 0, false, |l| &mut l.read, || self.inner.read(name))?;
        if let Some(bytes) = &r {
            self.lock().read.bytes += bytes.len() as u64;
        }
        Ok(r)
    }

    fn replace(&self, name: &str, bytes: &[u8]) -> Result<()> {
        let ((), ns) = self.timed(
            "common.io.replace",
            bytes.len(),
            false,
            |l| &mut l.replace,
            || self.inner.replace(name, bytes),
        )?;
        self.lock().replaces.push((name.to_string(), bytes.len() as u64, ns));
        Ok(())
    }

    fn remove(&self, name: &str) -> Result<()> {
        self.timed("common.io.remove", 0, false, |l| &mut l.remove, || self.inner.remove(name))?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use threatraptor::common::io::MemFs;

    #[test]
    fn counts_calls_and_bytes_against_memfs() {
        let mem = MemFs::new();
        let tracer = Tracer::new(true);
        let fs = TimedFs::new(Arc::new(mem.clone()), tracer.clone());
        fs.append("wal", b"abc").unwrap();
        fs.append("wal", b"de").unwrap();
        fs.sync("wal").unwrap();
        fs.replace("ckpt", b"0123456789").unwrap();
        fs.replace("ckpt", b"01234").unwrap();
        assert_eq!(fs.read("wal").unwrap().as_deref(), Some(&b"abcde"[..]));
        assert_eq!(fs.read("missing").unwrap(), None);
        fs.remove("wal").unwrap();

        // The wrapped file system saw exactly the same bytes.
        assert_eq!(mem.snapshot("ckpt"), b"01234");
        assert_eq!(mem.read("wal").unwrap(), None);

        let log = fs.log();
        assert_eq!((log.append.calls, log.append.bytes), (2, 5));
        assert_eq!((log.sync.calls, log.sync.each_ns.len()), (1, 1));
        assert_eq!((log.replace.calls, log.replace.bytes), (2, 15));
        let replaces: Vec<(&str, u64)> =
            log.replaces.iter().map(|(n, b, _)| (n.as_str(), *b)).collect();
        assert_eq!(replaces, vec![("ckpt", 10), ("ckpt", 5)]);
        assert_eq!(fs.counters(), (log.busy_ns(), 2));
        assert_eq!((log.read.calls, log.read.bytes), (2, 5));
        assert_eq!(log.remove.calls, 1);
        assert!(log.append.each_ns.is_empty(), "per-call times kept for rare calls only");
        // One span per call, each its own root here (no op open).
        assert_eq!(tracer.spans().len(), 8);
    }
}
