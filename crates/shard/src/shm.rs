//! The shared-memory transport: a pair of single-producer single-consumer
//! byte rings in an anonymous `memfd`, one per direction, with atomic
//! monotonic head/tail cursors living inside the mapping.
//!
//! The coordinator creates the memfd (without `MFD_CLOEXEC`, so the file
//! descriptor survives `exec`), maps it, and passes the raw fd number to the
//! worker through `SWR_SHARD_SHM_FD`; the worker maps the same fd and the two
//! processes share the rings directly — tile payloads cross the process
//! boundary with one memcpy in and one out, no syscalls on the fast path.
//!
//! Ring protocol: `head` and `tail` are monotonically increasing byte
//! counters (they never wrap modulo the capacity; the data offset is
//! `counter % cap`). The producer may write while `head - tail < cap`; the
//! consumer may read while `head > tail`. A `closed` flag (set by either
//! side's shutdown, or by the coordinator's child watcher when a worker
//! dies) turns further reads into EOF and writes into `BrokenPipe`, so a
//! SIGKILLed peer unblocks the survivor instead of wedging it.
//!
//! On non-Linux hosts `memfd_create` is unavailable; constructing the
//! transport returns a typed error and callers fall back to the socket path.

#![allow(dead_code)]

use std::io::{self, Read, Write};
use std::sync::atomic::{AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use swr_error::Error;

/// Default per-direction ring capacity in bytes.
pub const DEFAULT_RING_CAP: usize = 1 << 20;

/// Ring header size (head, tail, closed — each on its own 64-byte line).
const RING_HDR: usize = 192;

/// Environment variable carrying the inherited memfd number to the worker.
pub const ENV_SHM_FD: &str = "SWR_SHARD_SHM_FD";
/// Environment variable carrying the per-direction ring capacity.
pub const ENV_SHM_CAP: &str = "SWR_SHARD_SHM_CAP";

/// How long a blocked ring read/write waits before giving up (a peer that is
/// alive but silent for this long is treated as wedged).
const RING_STALL_TIMEOUT: Duration = Duration::from_secs(120);

#[cfg(target_os = "linux")]
mod sys {
    use std::os::raw::{c_char, c_int, c_long, c_uint, c_void};

    pub const PROT_READ: c_int = 1;
    pub const PROT_WRITE: c_int = 2;
    pub const MAP_SHARED: c_int = 1;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn memfd_create(name: *const c_char, flags: c_uint) -> c_int;
        pub fn ftruncate(fd: c_int, length: c_long) -> c_int;
        pub fn mmap(
            addr: *mut c_void,
            length: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: c_long,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, length: usize) -> c_int;
        pub fn close(fd: c_int) -> c_int;
    }
}

/// A shared mapping holding the two rings of one coordinator↔worker link.
///
/// Layout: ring 0 (coordinator → worker) at offset 0, ring 1 (worker →
/// coordinator) at offset `ring_bytes(cap)`; each ring is a `RING_HDR`-byte
/// header followed by `cap` data bytes.
pub struct ShmMap {
    base: *mut u8,
    len: usize,
    cap: usize,
    /// Owning side keeps the memfd open for the lifetime of the mapping so
    /// the fd number stays valid for late-spawning workers; -1 when the
    /// mapping came from an inherited fd we do not own.
    fd: i32,
    owns_fd: bool,
}

// SAFETY: all cross-thread access to the mapping goes through the atomics in
// the ring headers plus acquire/release-ordered data copies; the raw pointer
// itself is only offset arithmetic.
unsafe impl Send for ShmMap {}
unsafe impl Sync for ShmMap {}

fn ring_bytes(cap: usize) -> usize {
    RING_HDR + cap
}

fn map_len(cap: usize) -> usize {
    2 * ring_bytes(cap)
}

fn unsupported() -> Error {
    Error::InvalidConfig {
        reason: "shared-memory transport requires Linux memfd support; \
                 use --transport socket"
            .into(),
    }
}

impl ShmMap {
    /// Creates the memfd and maps it (coordinator side). The fd is created
    /// *without* `MFD_CLOEXEC` so spawned workers inherit it.
    #[cfg(target_os = "linux")]
    pub fn create(cap: usize) -> Result<ShmMap, Error> {
        let len = map_len(cap);
        // SAFETY: name is a valid NUL-terminated C string; flags 0 keeps the
        // fd inheritable across exec (deliberate — the worker needs it).
        let fd = unsafe { sys::memfd_create(c"swr-shard-ring".as_ptr(), 0) };
        if fd < 0 {
            return Err(Error::from(io::Error::last_os_error()));
        }
        // SAFETY: fd is a fresh memfd we own.
        if unsafe { sys::ftruncate(fd, len as i64) } != 0 {
            let e = io::Error::last_os_error();
            // SAFETY: fd is open and owned by us.
            unsafe { sys::close(fd) };
            return Err(Error::from(e));
        }
        Self::map_fd(fd, cap, true)
    }

    #[cfg(not(target_os = "linux"))]
    pub fn create(_cap: usize) -> Result<ShmMap, Error> {
        Err(unsupported())
    }

    /// Maps an inherited memfd (worker side).
    #[cfg(target_os = "linux")]
    pub fn from_inherited_fd(fd: i32, cap: usize) -> Result<ShmMap, Error> {
        Self::map_fd(fd, cap, false)
    }

    #[cfg(not(target_os = "linux"))]
    pub fn from_inherited_fd(_fd: i32, _cap: usize) -> Result<ShmMap, Error> {
        Err(unsupported())
    }

    #[cfg(target_os = "linux")]
    fn map_fd(fd: i32, cap: usize, owns_fd: bool) -> Result<ShmMap, Error> {
        let len = map_len(cap);
        // SAFETY: fd is a memfd of at least `len` bytes; we request a fresh
        // shared read/write mapping and check for MAP_FAILED.
        let base = unsafe {
            sys::mmap(
                std::ptr::null_mut(),
                len,
                sys::PROT_READ | sys::PROT_WRITE,
                sys::MAP_SHARED,
                fd,
                0,
            )
        };
        if base == sys::MAP_FAILED {
            let e = io::Error::last_os_error();
            if owns_fd {
                // SAFETY: fd is open and owned by us.
                unsafe { sys::close(fd) };
            }
            return Err(Error::from(e));
        }
        Ok(ShmMap {
            base: base as *mut u8,
            len,
            cap,
            fd,
            owns_fd,
        })
    }

    /// The raw memfd number (what `SWR_SHARD_SHM_FD` carries to the worker).
    pub fn fd(&self) -> i32 {
        self.fd
    }

    /// Per-direction ring capacity in bytes.
    pub fn cap(&self) -> usize {
        self.cap
    }

    fn ring_base(&self, idx: usize) -> *mut u8 {
        debug_assert!(idx < 2);
        // In-bounds by construction: the mapping holds exactly two rings.
        self.base.wrapping_add(idx * ring_bytes(self.cap))
    }

    fn head(&self, idx: usize) -> &AtomicU64 {
        // SAFETY: offset 0 of the ring header is within the mapping and
        // 8-aligned (page-aligned base); the mapping outlives `self`.
        unsafe { &*(self.ring_base(idx) as *const AtomicU64) }
    }

    fn tail(&self, idx: usize) -> &AtomicU64 {
        // SAFETY: offset 64 is within the header and 8-aligned.
        unsafe { &*(self.ring_base(idx).add(64) as *const AtomicU64) }
    }

    fn closed(&self, idx: usize) -> &AtomicU32 {
        // SAFETY: offset 128 is within the header and 4-aligned.
        unsafe { &*(self.ring_base(idx).add(128) as *const AtomicU32) }
    }

    fn data(&self, idx: usize) -> *mut u8 {
        self.ring_base(idx).wrapping_add(RING_HDR)
    }

    /// Marks both directions closed, waking any blocked reader or writer on
    /// either side. Idempotent; called on orderly shutdown and by the child
    /// watcher when the peer process dies.
    pub fn close_both(&self) {
        self.closed(0).store(1, Ordering::Release);
        self.closed(1).store(1, Ordering::Release);
    }
}

impl Drop for ShmMap {
    fn drop(&mut self) {
        #[cfg(target_os = "linux")]
        {
            // SAFETY: base/len describe the mapping created in map_fd.
            unsafe { sys::munmap(self.base as *mut _, self.len) };
            if self.owns_fd {
                // SAFETY: fd is open and owned by us.
                unsafe { sys::close(self.fd) };
            }
        }
    }
}

/// Which side of the link this endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShmSide {
    Coordinator,
    Worker,
}

impl ShmSide {
    /// Ring index this side writes to.
    fn tx(self) -> usize {
        match self {
            ShmSide::Coordinator => 0,
            ShmSide::Worker => 1,
        }
    }
    /// Ring index this side reads from.
    fn rx(self) -> usize {
        match self {
            ShmSide::Coordinator => 1,
            ShmSide::Worker => 0,
        }
    }
}

/// Writing endpoint of one direction of a [`ShmMap`].
pub struct ShmWriter {
    map: Arc<ShmMap>,
    ring: usize,
    /// Busy-wait iterations observed while the ring was full (the
    /// `shard.ring_full_spins` telemetry counter).
    pub full_spins: Arc<AtomicU64>,
}

/// Reading endpoint of one direction of a [`ShmMap`].
pub struct ShmReader {
    map: Arc<ShmMap>,
    ring: usize,
}

/// Splits a mapped link into this side's (reader, writer) endpoints.
pub fn endpoints(map: Arc<ShmMap>, side: ShmSide) -> (ShmReader, ShmWriter) {
    (
        ShmReader {
            map: Arc::clone(&map),
            ring: side.rx(),
        },
        ShmWriter {
            map,
            ring: side.tx(),
            full_spins: Arc::new(AtomicU64::new(0)),
        },
    )
}

/// One step of the backoff ladder for a blocked ring operation.
fn backoff(iters: &mut u64) {
    *iters += 1;
    if *iters < 64 {
        std::hint::spin_loop();
    } else if *iters < 4096 {
        std::thread::yield_now();
    } else {
        std::thread::sleep(Duration::from_micros(200));
    }
}

impl Write for ShmWriter {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let cap = self.map.cap() as u64;
        let head = self.map.head(self.ring);
        let tail = self.map.tail(self.ring);
        let closed = self.map.closed(self.ring);
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            if closed.load(Ordering::Acquire) != 0 {
                return Err(io::Error::new(
                    io::ErrorKind::BrokenPipe,
                    "shard ring closed by peer",
                ));
            }
            let h = head.load(Ordering::Relaxed);
            let t = tail.load(Ordering::Acquire);
            let free = cap - (h - t);
            if free > 0 {
                let n = (buf.len() as u64).min(free) as usize;
                let off = (h % cap) as usize;
                let first = n.min(self.map.cap() - off);
                let data = self.map.data(self.ring);
                // SAFETY: [off, off+first) and [0, n-first) are inside the
                // ring's data area; the SPSC protocol guarantees the
                // consumer does not read past `head`, so these bytes are
                // exclusively ours until the head store below publishes them.
                unsafe {
                    std::ptr::copy_nonoverlapping(buf.as_ptr(), data.add(off), first);
                    if n > first {
                        std::ptr::copy_nonoverlapping(buf.as_ptr().add(first), data, n - first);
                    }
                }
                head.store(h + n as u64, Ordering::Release);
                return Ok(n);
            }
            self.full_spins.fetch_add(1, Ordering::Relaxed);
            if start.elapsed() > RING_STALL_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "shard ring full: peer stopped draining",
                ));
            }
            backoff(&mut iters);
        }
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

impl Read for ShmReader {
    fn read(&mut self, buf: &mut [u8]) -> io::Result<usize> {
        if buf.is_empty() {
            return Ok(0);
        }
        let cap = self.map.cap() as u64;
        let head = self.map.head(self.ring);
        let tail = self.map.tail(self.ring);
        let closed = self.map.closed(self.ring);
        let start = Instant::now();
        let mut iters = 0u64;
        loop {
            let h = head.load(Ordering::Acquire);
            let t = tail.load(Ordering::Relaxed);
            let avail = h - t;
            if avail > 0 {
                let n = (buf.len() as u64).min(avail) as usize;
                let off = (t % cap) as usize;
                let first = n.min(self.map.cap() - off);
                let data = self.map.data(self.ring);
                // SAFETY: the ranges are inside the ring's data area; the
                // acquire load of `head` synchronizes with the producer's
                // release store, making these bytes visible and stable.
                unsafe {
                    std::ptr::copy_nonoverlapping(data.add(off), buf.as_mut_ptr(), first);
                    if n > first {
                        std::ptr::copy_nonoverlapping(data, buf.as_mut_ptr().add(first), n - first);
                    }
                }
                tail.store(t + n as u64, Ordering::Release);
                return Ok(n);
            }
            // Drain-then-close: only report EOF once the ring is empty.
            if closed.load(Ordering::Acquire) != 0 {
                return Ok(0);
            }
            if start.elapsed() > RING_STALL_TIMEOUT {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "shard ring empty: peer went silent without closing",
                ));
            }
            backoff(&mut iters);
        }
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    #![allow(clippy::unwrap_used)]
    use super::*;

    #[test]
    fn ring_round_trips_across_wrap() {
        let map = Arc::new(ShmMap::create(4096).unwrap());
        let (mut rx, mut tx) = endpoints(Arc::clone(&map), ShmSide::Coordinator);
        let (mut wrx, mut wtx) = endpoints(Arc::clone(&map), ShmSide::Worker);
        // Coordinator → worker, repeatedly, to force wraparound.
        let msg: Vec<u8> = (0..1500u32).map(|i| (i * 7) as u8).collect();
        for round in 0..10 {
            tx.write_all(&msg).unwrap();
            let mut got = vec![0u8; msg.len()];
            wrx.read_exact(&mut got).unwrap();
            assert_eq!(got, msg, "round {round}");
        }
        // Worker → coordinator on the other ring.
        wtx.write_all(b"pong").unwrap();
        let mut got = [0u8; 4];
        rx.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"pong");
    }

    #[test]
    fn ring_threads_stream_concurrently() {
        let map = Arc::new(ShmMap::create(1024).unwrap());
        let (_rx, mut tx) = endpoints(Arc::clone(&map), ShmSide::Coordinator);
        let (mut wrx, _wtx) = endpoints(Arc::clone(&map), ShmSide::Worker);
        let total = 1 << 18; // far beyond capacity: requires overlap
        let producer = std::thread::spawn(move || {
            let chunk: Vec<u8> = (0..257u32).map(|i| i as u8).collect();
            let mut sent = 0;
            while sent < total {
                let n = chunk.len().min(total - sent);
                tx.write_all(&chunk[..n]).unwrap();
                sent += n;
            }
        });
        let mut got = 0usize;
        let mut buf = [0u8; 509];
        while got < total {
            let n = wrx.read(&mut buf).unwrap();
            assert!(n > 0);
            for (i, &b) in buf[..n].iter().enumerate() {
                assert_eq!(b, ((got + i) % 257) as u8);
            }
            got += n;
        }
        producer.join().unwrap();
    }

    #[test]
    fn close_unblocks_reader_with_eof_and_writer_with_broken_pipe() {
        let map = Arc::new(ShmMap::create(256).unwrap());
        let (mut wrx, _wtx) = endpoints(Arc::clone(&map), ShmSide::Worker);
        let m2 = Arc::clone(&map);
        let closer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(30));
            m2.close_both();
        });
        let mut buf = [0u8; 16];
        assert_eq!(wrx.read(&mut buf).unwrap(), 0, "EOF after close");
        closer.join().unwrap();
        let (_rx, mut tx) = endpoints(Arc::clone(&map), ShmSide::Coordinator);
        let err = tx.write(&[1, 2, 3]).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::BrokenPipe);
    }

    #[test]
    fn full_ring_counts_spins() {
        let map = Arc::new(ShmMap::create(64).unwrap());
        let (_rx, mut tx) = endpoints(Arc::clone(&map), ShmSide::Coordinator);
        let spins = Arc::clone(&tx.full_spins);
        tx.write_all(&[0u8; 64]).unwrap(); // fill exactly
        let (mut wrx, _wtx) = endpoints(Arc::clone(&map), ShmSide::Worker);
        let drainer = std::thread::spawn(move || {
            std::thread::sleep(Duration::from_millis(20));
            let mut buf = [0u8; 64];
            wrx.read_exact(&mut buf).unwrap();
        });
        tx.write_all(&[1u8; 32]).unwrap(); // must block until drained
        drainer.join().unwrap();
        assert!(spins.load(Ordering::Relaxed) > 0, "blocked write must spin");
    }
}
