//! Filesystems for the durability layer: a counting [`Vfs`] wrapper that
//! tallies the bytes written, by file class, and logs the class of every
//! write so a crash can be planned at a chosen journal write (the
//! fail-stop plan's write index counts the same writes); and
//! [`NoSyncVfs`], the real filesystem without fsync.

use cs_obs::{StdVfs, Vfs, VfsFile};
use std::io;
use std::path::Path;
use std::sync::{Arc, Mutex};

/// Which durable file a write went to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FileClass {
    /// Appends to the journal.
    Journal,
    /// A snapshot generation or its tmp file.
    Snapshot,
    /// GC segment rotation (`<journal>.tmp`) and segment metadata.
    Other,
}

impl FileClass {
    fn of(path: &Path) -> Self {
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or("");
        if name.contains(".snap") {
            FileClass::Snapshot
        } else if name.ends_with(".tmp") || name.contains(".seg") {
            FileClass::Other
        } else {
            FileClass::Journal
        }
    }
}

/// What went through the wrapper.
#[derive(Debug, Clone, Default)]
pub struct IoTally {
    /// Bytes written to the journal.
    pub journal_bytes: u64,
    /// Bytes written to snapshot files.
    pub snapshot_bytes: u64,
    /// The class of every write, in order.
    pub writes: Vec<FileClass>,
}

/// Counts everything passing through to `inner`.
#[derive(Debug, Clone)]
pub struct CountingVfs<V> {
    inner: V,
    tally: Arc<Mutex<IoTally>>,
}

impl<V: Vfs> CountingVfs<V> {
    /// Wraps `inner` with an empty tally.
    pub fn new(inner: V) -> Self {
        Self {
            inner,
            tally: Arc::default(),
        }
    }

    /// A copy of the tally so far.
    pub fn tally(&self) -> IoTally {
        self.tally.lock().expect("tally lock poisoned").clone()
    }
}

#[derive(Debug)]
struct CountingFile {
    inner: Box<dyn VfsFile>,
    class: FileClass,
    tally: Arc<Mutex<IoTally>>,
}

impl VfsFile for CountingFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        let mut t = self.tally.lock().expect("tally lock poisoned");
        t.writes.push(self.class);
        let n = buf.len() as u64;
        match self.class {
            FileClass::Journal => t.journal_bytes += n,
            FileClass::Snapshot => t.snapshot_bytes += n,
            FileClass::Other => {}
        }
        drop(t);
        self.inner.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        self.inner.sync_data()
    }
}

impl<V: Vfs> Vfs for CountingVfs<V> {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.create(path)?,
            class: FileClass::of(path),
            tally: self.tally.clone(),
        }))
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(CountingFile {
            inner: self.inner.open_append(path, valid_len)?,
            class: FileClass::of(path),
            tally: self.tally.clone(),
        }))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.inner.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
}

/// The real filesystem ([`StdVfs`]) with `sync_data` made a no-op.
/// Every write, rename and read goes through the durability layer's own
/// code to the page cache; only fsync latency, the disk's noise, is left
/// out, as tmpfs would leave it out.
#[derive(Debug, Clone, Copy, Default)]
pub struct NoSyncVfs;

#[derive(Debug)]
struct NoSyncFile(Box<dyn VfsFile>);

impl VfsFile for NoSyncFile {
    fn write_all(&mut self, buf: &[u8]) -> io::Result<()> {
        self.0.write_all(buf)
    }

    fn sync_data(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Vfs for NoSyncVfs {
    fn create(&self, path: &Path) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(NoSyncFile(StdVfs.create(path)?)))
    }

    fn open_append(&self, path: &Path, valid_len: u64) -> io::Result<Box<dyn VfsFile>> {
        Ok(Box::new(NoSyncFile(StdVfs.open_append(path, valid_len)?)))
    }

    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        StdVfs.read(path)
    }

    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        StdVfs.rename(from, to)
    }

    fn remove(&self, path: &Path) -> io::Result<()> {
        StdVfs.remove(path)
    }

    fn exists(&self, path: &Path) -> bool {
        StdVfs.exists(path)
    }
}
