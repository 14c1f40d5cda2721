//! A [`StoreFs`] that delegates to [`RealFs`] and counts, per operation
//! kind, the calls, failures, bytes and host time, so the `store.*`
//! metrics are measured from outside the campaign crate.

use crate::trace::Tracer;
use paradet_faults::{RealFs, StoreFs};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The operation kinds the store metrics break out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OpKind {
    /// `write`.
    Write,
    /// `rename`.
    Rename,
    /// `read_to_string`.
    Read,
    /// `remove_file`, `exists`, `create_dir_all` and `list_dir`.
    Other,
}

impl OpKind {
    /// Every kind, in reporting order.
    pub const ALL: [OpKind; 4] = [OpKind::Write, OpKind::Rename, OpKind::Read, OpKind::Other];

    /// Lower-case name used in metric and span names.
    pub fn name(self) -> &'static str {
        match self {
            OpKind::Write => "write",
            OpKind::Rename => "rename",
            OpKind::Read => "read",
            OpKind::Other => "other",
        }
    }

    fn span(self) -> &'static str {
        match self {
            OpKind::Write => "store.write",
            OpKind::Rename => "store.rename",
            OpKind::Read => "store.read",
            OpKind::Other => "store.other",
        }
    }
}

/// Tallies for one operation kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpCount {
    /// Calls made.
    pub calls: u64,
    /// Calls that returned an error other than "not found" (the store
    /// probes for absent checkpoints by reading them).
    pub errors: u64,
    /// Bytes written (writes) or read (reads).
    pub bytes: u64,
    /// Host time spent in the calls, in nanoseconds.
    pub nanos: u64,
}

/// Counting pass-through to the real filesystem.
#[derive(Debug)]
pub struct CountingFs {
    tracer: Arc<Tracer>,
    counts: Mutex<[OpCount; 4]>,
}

impl CountingFs {
    /// A counting store that records a span per call on `tracer`.
    pub fn new(tracer: Arc<Tracer>) -> CountingFs {
        CountingFs { tracer, counts: Mutex::default() }
    }

    /// The tallies so far, indexed like [`OpKind::ALL`].
    pub fn counts(&self) -> [OpCount; 4] {
        *self.counts.lock().expect("a store call panicked while holding the tallies")
    }

    /// Clears the tallies.
    pub fn reset(&self) {
        *self.counts.lock().expect("a store call panicked while holding the tallies") =
            Default::default();
    }

    fn count<T>(
        &self,
        kind: OpKind,
        bytes: impl FnOnce(&T) -> u64,
        call: impl FnOnce() -> io::Result<T>,
    ) -> io::Result<T> {
        let t0 = Instant::now();
        let r = call();
        let t1 = Instant::now();
        self.tracer.record(kind.span(), t0, t1);
        let mut c = self.counts.lock().expect("a store call panicked while holding the tallies");
        let c = &mut c[kind as usize];
        c.calls += 1;
        c.nanos += (t1 - t0).as_nanos() as u64;
        match &r {
            Ok(v) => c.bytes += bytes(v),
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(_) => c.errors += 1,
        }
        r
    }
}

impl StoreFs for CountingFs {
    fn read_to_string(&self, path: &Path) -> io::Result<String> {
        self.count(OpKind::Read, |s: &String| s.len() as u64, || RealFs.read_to_string(path))
    }
    fn write(&self, path: &Path, contents: &[u8]) -> io::Result<()> {
        self.count(OpKind::Write, |_| contents.len() as u64, || RealFs.write(path, contents))
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.count(OpKind::Rename, |_| 0, || RealFs.rename(from, to))
    }
    fn remove_file(&self, path: &Path) -> io::Result<()> {
        self.count(OpKind::Other, |_| 0, || RealFs.remove_file(path))
    }
    fn exists(&self, path: &Path) -> bool {
        self.count(OpKind::Other, |_| 0, || Ok(RealFs.exists(path))).unwrap_or(false)
    }
    fn create_dir_all(&self, path: &Path) -> io::Result<()> {
        self.count(OpKind::Other, |_| 0, || RealFs.create_dir_all(path))
    }
    fn list_dir(&self, path: &Path) -> io::Result<Vec<PathBuf>> {
        self.count(OpKind::Other, |_| 0, || RealFs.list_dir(path))
    }
}
