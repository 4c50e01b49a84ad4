//! A word-addressed persistent heap: the durable backing store for
//! crash-recoverable SEC structures (DESIGN.md §16).
//!
//! The heap is a flat array of `u64` words accessed through
//! [`AtomicU64`] references. Two backings exist:
//!
//! - **File** — a file-backed `MAP_SHARED` mmap. Stores land in the
//!   kernel page cache, which survives the *process* dying (including
//!   `SIGKILL`): after a kill−9, re-mapping the file observes every
//!   store that retired before the kill, in a manner consistent with
//!   the program's store ordering. Surviving *power loss* additionally
//!   requires [`msync`](PersistentHeap::msync), which callers opt into
//!   per-range.
//! - **Volatile** — an anonymous `MAP_PRIVATE` mapping with identical
//!   semantics minus any durability. Used by tests, CI and benches so
//!   the recovery logic runs everywhere without touching the
//!   filesystem. Its pages read as zero and become resident only where
//!   they are first written, so a large heap costs memory only for the
//!   part in use.
//!
//! The heap never interprets its contents; layout (headers, logs,
//! intent cells) belongs to the layers above in `sec-core`.

use core::ffi::c_void;
use core::sync::atomic::{AtomicU64, Ordering};
use std::fs::{File, OpenOptions};
use std::io;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::sync::Arc;

// Raw syscall bindings: std already links libc, so declaring the
// symbols here avoids a dependency on the `libc` crate (the build
// environment is offline). Constants are the Linux values; this
// module is Linux-only, like the rest of the workspace's CI.
extern "C" {
    fn mmap(
        addr: *mut c_void,
        len: usize,
        prot: i32,
        flags: i32,
        fd: i32,
        offset: i64,
    ) -> *mut c_void;
    fn munmap(addr: *mut c_void, len: usize) -> i32;
    fn msync(addr: *mut c_void, len: usize, flags: i32) -> i32;
}

const PROT_READ: i32 = 1;
const PROT_WRITE: i32 = 2;
const MAP_SHARED: i32 = 1;
const MAP_PRIVATE: i32 = 2;
const MAP_ANONYMOUS: i32 = 0x20;
const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;
const MS_SYNC: i32 = 4;
const PAGE: usize = 4096;

enum Backing {
    /// An anonymous private mapping, unmapped on drop.
    Volatile,
    /// File-backed `MAP_SHARED` mapping; the file handle is kept open
    /// for the lifetime of the heap (the mapping itself would survive
    /// a close, but holding it keeps the fd visible in diagnostics).
    File { _file: File },
}

/// A fixed-size array of durable `u64` words (see module docs).
///
/// Cloneable via `Arc`; all accessors take `&self`, so one heap can
/// back a structure and its recovery checker at once.
pub struct PersistentHeap {
    base: *mut u8,
    bytes: usize,
    backing: Backing,
}

// The heap hands out `&AtomicU64` only; raw-pointer arithmetic is
// internal and bounds-checked.
unsafe impl Send for PersistentHeap {}
unsafe impl Sync for PersistentHeap {}

impl PersistentHeap {
    /// Creates an anonymous (non-durable) heap of `words` zeroed words.
    /// No page is resident until it is written.
    pub fn volatile(words: usize) -> Arc<Self> {
        let bytes = words.checked_mul(8).expect("heap size overflow").max(8);
        // SAFETY: anonymous mapping of positive length; the kernel
        // picks the (page-aligned) address.
        let base = unsafe {
            mmap(
                core::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_PRIVATE | MAP_ANONYMOUS,
                -1,
                0,
            )
        };
        assert!(
            base != MAP_FAILED && !base.is_null(),
            "volatile heap mapping of {bytes} bytes failed: {}",
            io::Error::last_os_error()
        );
        Arc::new(Self {
            base: base.cast(),
            bytes,
            backing: Backing::Volatile,
        })
    }

    /// Creates a *fresh* file-backed heap of `words` zeroed words at
    /// `path`, truncating any existing file (a reused path must not
    /// leak stale log records into a new structure).
    pub fn create_file(path: &Path, words: usize) -> io::Result<Arc<Self>> {
        let bytes = words.checked_mul(8).expect("heap size overflow").max(8);
        let bytes = bytes.div_ceil(PAGE) * PAGE;
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(path)?;
        file.set_len(bytes as u64)?;
        Self::map_file(file, bytes)
    }

    /// Maps an *existing* heap file for recovery. The word count comes
    /// from the file's length; validation of the contents (magic,
    /// layout) belongs to the caller.
    pub fn open_file(path: &Path) -> io::Result<Arc<Self>> {
        let file = OpenOptions::new().read(true).write(true).open(path)?;
        let bytes = file.metadata()?.len() as usize;
        if bytes == 0 || !bytes.is_multiple_of(8) {
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                "persistent heap file is empty or not word-sized",
            ));
        }
        Self::map_file(file, bytes)
    }

    fn map_file(file: File, bytes: usize) -> io::Result<Arc<Self>> {
        // SAFETY: valid fd, positive length; MAP_SHARED so stores
        // reach the page cache (and thus survive process death).
        let base = unsafe {
            mmap(
                core::ptr::null_mut(),
                bytes,
                PROT_READ | PROT_WRITE,
                MAP_SHARED,
                file.as_raw_fd(),
                0,
            )
        };
        if base == MAP_FAILED || base.is_null() {
            return Err(io::Error::last_os_error());
        }
        Ok(Arc::new(Self {
            base: base.cast(),
            bytes,
            backing: Backing::File { _file: file },
        }))
    }

    /// Number of words in the heap.
    pub fn words(&self) -> usize {
        self.bytes / 8
    }

    /// `true` when backed by a file (stores survive kill−9).
    pub fn is_file_backed(&self) -> bool {
        matches!(self.backing, Backing::File { .. })
    }

    /// The word at index `idx` as an atomic. Panics when out of range.
    #[inline]
    pub fn word(&self, idx: usize) -> &AtomicU64 {
        assert!(idx < self.words(), "heap word {idx} out of range");
        // SAFETY: in-bounds, 8-aligned (base is page-aligned), and the
        // backing memory lives as long as `self`.
        unsafe { &*(self.base.add(idx * 8) as *const AtomicU64) }
    }

    /// Makes the pages under the word range `[start, start + len)`
    /// resident by writing each, without changing any word, so that
    /// later stores there take no page fault.
    pub fn prefault(&self, start: usize, len: usize) {
        if len == 0 {
            return;
        }
        let end = start.checked_add(len).expect("prefault range overflow");
        assert!(end <= self.words(), "prefault range past the heap");
        let page_words = PAGE / 8;
        let mut w = start;
        while w < end {
            // A compare-exchange of a word with itself writes without
            // changing it, even racing another writer. (An RMW of zero
            // would not do: it compiles to a plain load.)
            let word = self.word(w);
            let v = word.load(Ordering::Relaxed);
            let _ = word.compare_exchange(v, v, Ordering::Relaxed, Ordering::Relaxed);
            w = (w / page_words + 1) * page_words;
        }
    }

    /// Synchronously flushes the word range `[start, start + len)` to
    /// the backing file (`msync(MS_SYNC)`), for power-failure — not
    /// merely crash — durability. A no-op on volatile heaps.
    pub fn msync(&self, start: usize, len: usize) -> io::Result<()> {
        if !self.is_file_backed() || len == 0 {
            return Ok(());
        }
        assert!(start.checked_add(len).is_some_and(|e| e <= self.words()));
        // msync requires a page-aligned address: widen the range down
        // to its page boundary.
        let lo = (start * 8) / PAGE * PAGE;
        let hi = start * 8 + len * 8;
        // SAFETY: [lo, hi) is within the mapping and lo is page-aligned.
        let rc = unsafe { msync(self.base.add(lo).cast(), hi - lo, MS_SYNC) };
        if rc != 0 {
            return Err(io::Error::last_os_error());
        }
        Ok(())
    }
}

impl Drop for PersistentHeap {
    fn drop(&mut self) {
        // SAFETY: both backings are mappings of exactly `bytes` bytes
        // at `base` (`volatile`, `map_file`), unmapped once, here.
        unsafe { munmap(self.base.cast(), self.bytes) };
    }
}

impl core::fmt::Debug for PersistentHeap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("PersistentHeap")
            .field("words", &self.words())
            .field("file_backed", &self.is_file_backed())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    extern "C" {
        fn mincore(addr: *mut c_void, len: usize, vec: *mut u8) -> i32;
    }

    /// Pages of `h` resident now, by `mincore` on its own mapping (the
    /// process RSS would count every other test's memory too).
    fn resident_pages(h: &PersistentHeap) -> usize {
        let mut vec = vec![0u8; h.bytes.div_ceil(PAGE)];
        // SAFETY: `base` is the page-aligned start of a live mapping of
        // `bytes` bytes, and `vec` has one byte per page of it.
        let rc = unsafe { mincore(h.base.cast(), h.bytes, vec.as_mut_ptr()) };
        assert_eq!(rc, 0, "mincore: {}", io::Error::last_os_error());
        vec.iter().filter(|&&b| b & 1 != 0).count()
    }

    #[test]
    fn volatile_heap_is_resident_only_where_written() {
        const WORDS: usize = (64 << 20) / 8;
        let h = PersistentHeap::volatile(WORDS);
        h.word(WORDS / 2).store(1, Ordering::Relaxed);
        let resident = resident_pages(&h);
        assert!(
            (1..=4).contains(&resident),
            "{resident} of {} pages resident after one write",
            WORDS * 8 / PAGE
        );
        let window = 16 * PAGE / 8;
        h.prefault(3, window);
        let after = resident_pages(&h);
        assert!(
            (17..=21).contains(&after),
            "{after} pages resident after prefaulting 17"
        );
    }

    #[test]
    fn volatile_heap_is_zeroed_and_writable() {
        let h = PersistentHeap::volatile(1024);
        assert_eq!(h.words(), 1024);
        assert!(!h.is_file_backed());
        for i in 0..1024 {
            assert_eq!(h.word(i).load(Ordering::Relaxed), 0);
        }
        h.word(7).store(0xdead_beef, Ordering::Relaxed);
        assert_eq!(h.word(7).load(Ordering::Relaxed), 0xdead_beef);
        h.msync(0, 1024).unwrap();
    }

    #[test]
    fn file_heap_round_trips_across_remap() {
        let path = std::env::temp_dir().join(format!("sec-pheap-test-{}.heap", std::process::id()));
        {
            let h = PersistentHeap::create_file(&path, 100).unwrap();
            assert!(h.is_file_backed());
            assert!(h.words() >= 100);
            for i in 0..100 {
                h.word(i).store(i as u64 * 3 + 1, Ordering::Release);
            }
            h.msync(0, 100).unwrap();
        }
        {
            let h = PersistentHeap::open_file(&path).unwrap();
            for i in 0..100 {
                assert_eq!(h.word(i).load(Ordering::Acquire), i as u64 * 3 + 1);
            }
        }
        // create_file on the same path must zero it again.
        let h = PersistentHeap::create_file(&path, 100).unwrap();
        for i in 0..100 {
            assert_eq!(h.word(i).load(Ordering::Relaxed), 0);
        }
        drop(h);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_word_panics() {
        let h = PersistentHeap::volatile(8);
        h.word(8);
    }

    #[test]
    fn open_missing_file_errors() {
        assert!(PersistentHeap::open_file(Path::new("/nonexistent/sec.heap")).is_err());
    }
}
