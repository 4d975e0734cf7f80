//! Bricked run-length storage with bounded-resident streaming.
//!
//! The flat [`RleEncoding`] stores each axis's runs and
//! voxels as three monolithic streams. That is compact but has two costs at
//! modern scale: a scanline's working set strides the whole volume (poor
//! L2/TLB locality when many slices interleave), and the *entire* encoding
//! must be resident — the paper's O(n²) capacity working set. This module
//! re-chunks each per-axis encoding into fixed-extent **bricks** (default
//! 32³ voxels):
//!
//! * Each brick owns the run/voxel sub-streams of the scanline segments that
//!   fall inside its `i`-extent, with per-brick scanline offset tables — the
//!   compositor reads a voxel scanline out of one row of bricks.
//! * Per-brick metadata ([`BrickMeta`]: min/max stored opacity, stored voxel
//!   count, payload bytes) always stays in RAM. A brick with no stored
//!   voxels has **no payload at all**; its whole `i`-extent is transparent
//!   from metadata alone.
//! * Payloads either stay resident ([`BrickedVolume::from_encoded`]) or
//!   spill to an anonymous chunk file and decode lazily through a sharded
//!   clock cache with a hard byte budget
//!   ([`BrickedVolume::from_encoded_streamed`]) — the bounded-resident-set
//!   mode that lets beyond-paper volumes render in fixed memory.
//!
//! The brick builder re-chunks the *already encoded* flat streams (it never
//! re-classifies), so a brick-local scanline decodes to exactly the same
//! voxels as the flat scanline restricted to the brick's `i`-range — the
//! renderer's bricked path is bit-identical to the flat path by
//! construction, which `tests/render_equivalence.rs` proves over seams.

use crate::classify::RgbaVoxel;
use crate::rle::{EncodedVolume, RleEncoding};
use std::collections::HashMap;
use std::io::Write;
use std::ops::Range;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use swr_geom::Axis;

/// Default brick edge length, in voxels. 32³ puts a dense brick's payload
/// (≤ 32³·4 B voxels + runs + offsets ≈ 140 KiB) comfortably inside L2 while
/// keeping the metadata array tiny even for gigavoxel grids; the memsim
/// working-set model (`swr-memsim`) validates this choice against predicted
/// miss curves.
pub const DEFAULT_BRICK_EXTENT: usize = 32;

/// Always-resident summary of one brick.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrickMeta {
    /// Minimum stored (non-transparent) voxel opacity; 0 when nothing is
    /// stored.
    pub min_a: u8,
    /// Maximum stored voxel opacity; 0 ⇔ the brick stores no voxels (every
    /// stored voxel's opacity is ≥ the transparent threshold ≥ 1), which is
    /// the "skip without touching the payload" test.
    pub max_a: u8,
    /// Stored (non-transparent) voxels in the brick.
    pub stored: u32,
    /// Heap bytes of the brick's payload (0 for empty bricks).
    pub bytes: u32,
}

impl BrickMeta {
    /// True when the brick stores no voxels and therefore has no payload.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.stored == 0
    }
}

/// One brick's run-length payload: the flat encoding's streams restricted to
/// the brick, with local per-scanline offsets. Local scanline index is
/// `lk * jx + lj` where `jx` is the brick's `j`-extent (tail bricks are
/// narrower).
#[derive(Debug, Clone, Default)]
pub struct Brick {
    runs: Vec<u8>,
    voxels: Vec<RgbaVoxel>,
    scan_run_start: Vec<u32>,
    scan_vox_start: Vec<u32>,
}

impl Brick {
    /// Alternating transparent/non-transparent run lengths, all local
    /// scanlines concatenated. Each local scanline starts with a (possibly
    /// zero-length) transparent run and covers the brick's full `i`-extent.
    #[inline]
    pub fn runs(&self) -> &[u8] {
        &self.runs
    }

    /// Stored voxels, packed in local scanline order.
    #[inline]
    pub fn voxels(&self) -> &[RgbaVoxel] {
        &self.voxels
    }

    /// Run and voxel ranges of local scanline `idx`.
    #[inline]
    pub fn scan_range(&self, idx: usize) -> (Range<usize>, Range<usize>) {
        (
            self.scan_run_start[idx] as usize..self.scan_run_start[idx + 1] as usize,
            self.scan_vox_start[idx] as usize..self.scan_vox_start[idx + 1] as usize,
        )
    }

    /// Local scanline count.
    #[inline]
    pub fn scan_count(&self) -> usize {
        self.scan_run_start.len().saturating_sub(1)
    }

    /// A synthetic payload of exactly `bytes` heap bytes (filler runs, no
    /// voxels, no scanlines). Renders nothing; exists so cache simulators
    /// (`swr-memsim`'s working-set replay) can drive a real [`BrickCache`]
    /// with controlled sizes when validating predicted miss curves.
    pub fn synthetic(bytes: usize) -> Brick {
        Brick {
            runs: vec![0; bytes],
            ..Brick::default()
        }
    }

    /// Heap bytes held by the payload (what the resident budget accounts).
    pub fn heap_bytes(&self) -> usize {
        self.runs.len()
            + self.voxels.len() * std::mem::size_of::<RgbaVoxel>()
            + (self.scan_run_start.len() + self.scan_vox_start.len()) * 4
    }

    /// Serializes the payload for the spill file.
    fn serialize(&self, out: &mut Vec<u8>) {
        let push_u32 = |out: &mut Vec<u8>, v: u32| out.extend_from_slice(&v.to_le_bytes());
        push_u32(out, self.scan_count() as u32);
        push_u32(out, self.runs.len() as u32);
        push_u32(out, self.voxels.len() as u32);
        for &v in &self.scan_run_start {
            push_u32(out, v);
        }
        for &v in &self.scan_vox_start {
            push_u32(out, v);
        }
        out.extend_from_slice(&self.runs);
        for v in &self.voxels {
            out.extend_from_slice(&[v.r, v.g, v.b, v.a]);
        }
    }

    /// Inverse of [`Brick::serialize`]. Returns `None` on a malformed blob
    /// (truncated read, corrupt spill file): the three header counts must
    /// account for `buf.len()` exactly — checked before anything is
    /// allocated, so a corrupt header cannot request more memory than the
    /// blob it came in — and both offset tables must be non-decreasing and
    /// end at the run / voxel counts, so every [`Brick::scan_range`] of the
    /// result slices in bounds.
    fn deserialize(buf: &[u8]) -> Option<Brick> {
        let le32 = |b: &[u8]| u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        let header = buf.get(..12)?;
        let nscan = le32(&header[0..4]) as usize;
        let nruns = le32(&header[4..8]) as usize;
        let nvox = le32(&header[8..12]) as usize;
        let table = nscan.checked_add(1)?.checked_mul(4)?;
        let total = 12usize
            .checked_add(table.checked_mul(2)?)?
            .checked_add(nruns)?
            .checked_add(nvox.checked_mul(4)?)?;
        if total != buf.len() {
            return None;
        }
        let (run_table, rest) = buf[12..].split_at(table);
        let (vox_table, rest) = rest.split_at(table);
        let (runs, voxels) = rest.split_at(nruns);
        let offsets = |bytes: &[u8], end: usize| -> Option<Vec<u32>> {
            let v: Vec<u32> = bytes.chunks_exact(4).map(le32).collect();
            let ordered = v.windows(2).all(|w| w[0] <= w[1]);
            (ordered && v.last().copied() == Some(end as u32)).then_some(v)
        };
        Some(Brick {
            scan_run_start: offsets(run_table, nruns)?,
            scan_vox_start: offsets(vox_table, nvox)?,
            runs: runs.to_vec(),
            voxels: voxels
                .chunks_exact(4)
                .map(|c| RgbaVoxel {
                    r: c[0],
                    g: c[1],
                    b: c[2],
                    a: c[3],
                })
                .collect(),
        })
    }
}

/// Borrowed or cache-held access to one brick's payload. The `Cached`
/// variant owns an `Arc`, so a brick evicted from the cache while it is
/// still in use stays alive until its last handle drops.
///
/// The renderers hold handles in a per-chunk brick-row pin
/// (`swr_render::BrickRowPin`), not per cursor: a worker keeps the handles
/// of at most **2 brick rows × `nb_i` bricks** — the rows feeding the
/// scanline it is compositing — and drops them when its chunk moves on.
/// That is the in-flight bound. It lies *outside* the cache's accounting:
/// the budget (and `peak_resident_bytes ≤ budget_bytes`) covers
/// cache-resident bytes only, so under a starved budget a process holds up
/// to `threads × 2 × nb_i` evicted-but-pinned bricks on top of it.
pub enum BrickHandle<'a> {
    /// Payload lives in the resident store.
    Resident(&'a Brick),
    /// Payload was decoded through the [`BrickCache`].
    Cached(Arc<Brick>),
}

impl BrickHandle<'_> {
    /// The payload itself.
    #[inline]
    pub fn brick(&self) -> &Brick {
        match self {
            BrickHandle::Resident(b) => b,
            BrickHandle::Cached(b) => b,
        }
    }
}

/// Counter snapshot of a [`BrickCache`] (all zeros for a fully resident
/// volume). `peak_resident_bytes ≤ budget_bytes` is the bounded-resident-set
/// guarantee `swrender --resident-mb` asserts. A renderer looks a brick up
/// when a band loop's pin first needs its brick row (see [`BrickHandle`]),
/// so `hits` counts pin fills — one per brick of each brick row a chunk
/// of scanlines enters — not voxel-scanline reads.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BrickCacheStats {
    /// Lookups served from the cache.
    pub hits: u64,
    /// Lookups that decoded from the spill file.
    pub misses: u64,
    /// Bricks evicted to stay under budget.
    pub evictions: u64,
    /// Bytes currently resident in the cache.
    pub resident_bytes: u64,
    /// High-water mark of `resident_bytes`.
    pub peak_resident_bytes: u64,
    /// The hard budget (requested budget clamped up to the largest single
    /// brick so one brick can always be resident).
    pub budget_bytes: u64,
}

const CACHE_SHARDS: usize = 16;

struct CacheSlot {
    key: u64,
    brick: Arc<Brick>,
    bytes: u64,
    referenced: bool,
}

#[derive(Default)]
struct CacheShard {
    slots: Vec<CacheSlot>,
    index: HashMap<u64, usize>,
    hand: usize,
}

impl CacheShard {
    fn get(&mut self, key: u64) -> Option<Arc<Brick>> {
        let &i = self.index.get(&key)?;
        self.slots[i].referenced = true;
        Some(Arc::clone(&self.slots[i].brick))
    }

    fn insert(&mut self, key: u64, brick: Arc<Brick>, bytes: u64) {
        let i = self.slots.len();
        self.slots.push(CacheSlot {
            key,
            brick,
            bytes,
            referenced: true,
        });
        self.index.insert(key, i);
    }

    /// Second-chance clock sweep: clears one round of reference bits, then
    /// evicts the first unreferenced slot. Returns the freed byte count.
    fn clock_evict(&mut self) -> Option<u64> {
        if self.slots.is_empty() {
            return None;
        }
        for _ in 0..2 * self.slots.len() {
            if self.hand >= self.slots.len() {
                self.hand = 0;
            }
            if self.slots[self.hand].referenced {
                self.slots[self.hand].referenced = false;
                self.hand += 1;
            } else {
                let victim = self.slots.swap_remove(self.hand);
                self.index.remove(&victim.key);
                if let Some(moved) = self.slots.get(self.hand) {
                    self.index.insert(moved.key, self.hand);
                }
                return Some(victim.bytes);
            }
        }
        None
    }
}

/// Sharded clock (second-chance) cache of decoded bricks with a **hard**
/// byte budget: bytes are reserved *before* a decoded brick is admitted, so
/// `resident_bytes` (and its peak) never exceed the budget. Shared by the
/// three per-axis encodings of one streamed [`BrickedVolume`]; keys embed
/// the axis.
pub struct BrickCache {
    budget: u64,
    shards: Vec<Mutex<CacheShard>>,
    resident: AtomicU64,
    peak: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl BrickCache {
    /// A cache with the given byte budget (callers clamp it to at least the
    /// largest single brick; see [`BrickedVolume::from_encoded_streamed`]).
    pub fn new(budget_bytes: u64) -> Self {
        BrickCache {
            budget: budget_bytes,
            shards: (0..CACHE_SHARDS).map(|_| Mutex::default()).collect(),
            resident: AtomicU64::new(0),
            peak: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        // Fibonacci hash: brick ids are sequential, spread them.
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % self.shards.len()
    }

    fn lock(&self, i: usize) -> std::sync::MutexGuard<'_, CacheShard> {
        // A poisoned shard only means another worker panicked mid-insert;
        // the map itself is still structurally sound.
        match self.shards[i].lock() {
            Ok(g) => g,
            Err(p) => p.into_inner(),
        }
    }

    /// Looks up `key`, decoding through `load` on a miss. Eviction runs
    /// before admission so the budget is never exceeded, even transiently.
    pub fn get_or_load(&self, key: u64, load: impl FnOnce() -> Arc<Brick>) -> Arc<Brick> {
        let s = self.shard_of(key);
        if let Some(b) = self.lock(s).get(key) {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return b;
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let brick = load();
        let bytes = brick.heap_bytes() as u64;
        self.reserve(bytes, s);
        let mut shard = self.lock(s);
        if let Some(existing) = shard.get(key) {
            // A racing thread admitted the same brick first; keep its copy
            // and release our reservation.
            drop(shard);
            self.resident.fetch_sub(bytes, Ordering::Relaxed);
            return existing;
        }
        shard.insert(key, Arc::clone(&brick), bytes);
        brick
    }

    /// Reserves `bytes` against the budget, evicting (starting at the
    /// insert shard) until the reservation fits. When nothing is evictable
    /// there are two cases: the cache is truly empty (`resident == 0`), so
    /// the brick alone exceeds the budget and is admitted anyway — the
    /// constructors clamp the budget to the largest brick precisely so this
    /// cannot happen in practice — or racing threads hold reservations they
    /// have not yet inserted as slots; they insert immediately after
    /// reserving, so yield and retry rather than over-admitting. This is
    /// what makes `peak_resident_bytes ≤ budget_bytes` a hard bound even
    /// with many workers missing at once under a starved budget.
    fn reserve(&self, bytes: u64, start_shard: usize) {
        loop {
            let cur = self.resident.load(Ordering::Relaxed);
            if cur + bytes <= self.budget {
                if self
                    .resident
                    .compare_exchange(cur, cur + bytes, Ordering::Relaxed, Ordering::Relaxed)
                    .is_ok()
                {
                    self.peak.fetch_max(cur + bytes, Ordering::Relaxed);
                    return;
                }
                continue;
            }
            if !self.evict_one(start_shard) {
                if bytes > self.budget && self.resident.load(Ordering::Relaxed) == 0 {
                    let now = self.resident.fetch_add(bytes, Ordering::Relaxed) + bytes;
                    self.peak.fetch_max(now, Ordering::Relaxed);
                    return;
                }
                std::thread::yield_now();
            }
        }
    }

    fn evict_one(&self, start_shard: usize) -> bool {
        for off in 0..self.shards.len() {
            let i = (start_shard + off) % self.shards.len();
            if let Some(freed) = self.lock(i).clock_evict() {
                self.resident.fetch_sub(freed, Ordering::Relaxed);
                self.evictions.fetch_add(1, Ordering::Relaxed);
                return true;
            }
        }
        false
    }

    /// Snapshot of the counters.
    pub fn stats(&self) -> BrickCacheStats {
        BrickCacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            resident_bytes: self.resident.load(Ordering::Relaxed),
            peak_resident_bytes: self.peak.load(Ordering::Relaxed),
            budget_bytes: self.budget,
        }
    }
}

/// The anonymous chunk file holding spilled brick payloads. Created in the
/// system temp directory and unlinked immediately after opening on Unix, so
/// it cannot outlive the process; elsewhere the path is removed on drop.
struct SpillFile {
    file: std::fs::File,
    /// Non-Unix fallback: positioned reads need exclusive access, and the
    /// file must be unlinked explicitly on drop.
    #[cfg(not(unix))]
    lock: Mutex<()>,
    #[cfg(not(unix))]
    path: std::path::PathBuf,
}

impl SpillFile {
    fn create(payload: &[u8]) -> std::io::Result<SpillFile> {
        static SPILL_SEQ: AtomicU64 = AtomicU64::new(0);
        let path = std::env::temp_dir().join(format!(
            "swr-bricks-{}-{}.bin",
            std::process::id(),
            SPILL_SEQ.fetch_add(1, Ordering::Relaxed)
        ));
        let mut file = std::fs::OpenOptions::new()
            .read(true)
            .write(true)
            .create_new(true)
            .open(&path)?;
        file.write_all(payload)?;
        file.flush()?;
        #[cfg(unix)]
        {
            // Unlink-after-open: the inode stays readable through `file`
            // and disappears when the last handle closes.
            let _ = std::fs::remove_file(&path);
            Ok(SpillFile { file })
        }
        #[cfg(not(unix))]
        Ok(SpillFile {
            file,
            lock: Mutex::new(()),
            path,
        })
    }

    fn read_at(&self, offset: u64, len: usize) -> std::io::Result<Vec<u8>> {
        let mut buf = vec![0u8; len];
        #[cfg(unix)]
        {
            use std::os::unix::fs::FileExt;
            self.file.read_exact_at(&mut buf, offset)?;
        }
        #[cfg(not(unix))]
        {
            use std::io::{Read, Seek, SeekFrom};
            let _guard = match self.lock.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            let mut f = &self.file;
            f.seek(SeekFrom::Start(offset))?;
            f.read_exact(&mut buf)?;
        }
        Ok(buf)
    }
}

#[cfg(not(unix))]
impl Drop for SpillFile {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Where a [`BrickedEncoding`]'s payloads live.
enum BrickStore {
    /// All payloads in RAM; `None` entries are empty bricks.
    Resident(Vec<Option<Brick>>),
    /// Payloads in the spill file, decoded on demand through the cache.
    Streamed {
        /// Per-brick `(offset, len)` into the spill file; `(0, 0)` for
        /// empty bricks.
        table: Vec<(u64, u32)>,
        file: Arc<SpillFile>,
        cache: Arc<BrickCache>,
    },
}

/// One axis's run-length encoding re-chunked into bricks. Built from (and
/// bit-identical in content to) the corresponding flat [`RleEncoding`].
pub struct BrickedEncoding {
    axis: Axis,
    std_dims: [usize; 3],
    brick: usize,
    /// Brick grid `[nb_i, nb_j, nb_k]` (ceil-divided standard dims).
    grid: [usize; 3],
    /// Grid-ordered metadata: id = `(bk·nb_j + bj)·nb_i + bi`.
    metas: Vec<BrickMeta>,
    store: BrickStore,
}

/// Accumulates one brick's local run/voxel streams while the builder walks
/// the flat encoding's global scanlines.
#[derive(Default)]
struct BrickBuilder {
    payload: Brick,
    min_a: u8,
    max_a: u8,
    /// Transparent length accumulated since the last opaque push.
    pending_t: usize,
    /// A transparent run has been emitted for the current scanline (every
    /// local scanline must start with one, possibly zero-length).
    scan_open: bool,
}

impl BrickBuilder {
    fn begin_scanline(&mut self) {
        self.payload
            .scan_run_start
            .push(self.payload.runs.len() as u32);
        self.payload
            .scan_vox_start
            .push(self.payload.voxels.len() as u32);
        self.pending_t = 0;
        self.scan_open = false;
    }

    fn push_transparent(&mut self, len: usize) {
        self.pending_t += len;
    }

    fn flush_transparent(&mut self) {
        push_split_run(&mut self.payload.runs, self.pending_t);
        self.pending_t = 0;
        self.scan_open = true;
    }

    fn push_opaque(&mut self, vox: &[RgbaVoxel]) {
        self.flush_transparent();
        push_split_run(&mut self.payload.runs, vox.len());
        let first = self.payload.voxels.is_empty();
        for (n, v) in vox.iter().enumerate() {
            if first && n == 0 {
                self.min_a = v.a;
                self.max_a = v.a;
            } else {
                self.min_a = self.min_a.min(v.a);
                self.max_a = self.max_a.max(v.a);
            }
        }
        self.payload.voxels.extend_from_slice(vox);
    }

    fn end_scanline(&mut self) {
        if self.pending_t > 0 || !self.scan_open {
            // Trailing transparent gap, or a fully transparent scanline.
            self.flush_transparent();
        }
    }

    fn finish(mut self) -> (BrickMeta, Option<Brick>) {
        self.payload
            .scan_run_start
            .push(self.payload.runs.len() as u32);
        self.payload
            .scan_vox_start
            .push(self.payload.voxels.len() as u32);
        if self.payload.voxels.is_empty() {
            return (BrickMeta::default(), None);
        }
        let meta = BrickMeta {
            min_a: self.min_a,
            max_a: self.max_a,
            stored: self.payload.voxels.len() as u32,
            bytes: self.payload.heap_bytes() as u32,
        };
        (meta, Some(self.payload))
    }
}

/// Pushes a run of `len`, splitting into ≤255 chunks interleaved with
/// zero-length runs of the other kind — the same convention as the flat
/// encoder, so brick-local runs parse with the same cursor logic.
fn push_split_run(runs: &mut Vec<u8>, len: usize) {
    let mut remaining = len;
    loop {
        let chunk = remaining.min(255);
        runs.push(chunk as u8);
        remaining -= chunk;
        if remaining == 0 {
            break;
        }
        runs.push(0);
    }
}

fn ceil_div(a: usize, b: usize) -> usize {
    a.div_ceil(b)
}

impl BrickedEncoding {
    /// Re-chunks a flat encoding into bricks of edge `brick` (clamped to
    /// ≥ 1). Walks every flat scanline's merged segments and distributes
    /// each across the brick columns it crosses; no re-classification or
    /// thresholding happens, so decoded content is identical by
    /// construction.
    pub fn from_flat(flat: &RleEncoding, brick: usize) -> Self {
        let (metas, bricks, meta) = Self::build(flat, brick);
        BrickedEncoding {
            axis: meta.0,
            std_dims: meta.1,
            brick: meta.2,
            grid: meta.3,
            metas,
            store: BrickStore::Resident(bricks),
        }
    }

    /// [`Self::from_flat`] with payloads spilled to an anonymous chunk file
    /// and decoded on demand through `cache`.
    pub fn from_flat_streamed(
        flat: &RleEncoding,
        brick: usize,
        cache: Arc<BrickCache>,
    ) -> std::io::Result<Self> {
        let (metas, bricks, meta) = Self::build(flat, brick);
        let mut blob = Vec::new();
        let mut table = Vec::with_capacity(bricks.len());
        let mut scratch = Vec::new();
        for b in &bricks {
            match b {
                None => table.push((0u64, 0u32)),
                Some(b) => {
                    scratch.clear();
                    b.serialize(&mut scratch);
                    table.push((blob.len() as u64, scratch.len() as u32));
                    blob.extend_from_slice(&scratch);
                }
            }
        }
        drop(bricks); // the in-memory payloads are now on disk
        let file = Arc::new(SpillFile::create(&blob)?);
        Ok(BrickedEncoding {
            axis: meta.0,
            std_dims: meta.1,
            brick: meta.2,
            grid: meta.3,
            metas,
            store: BrickStore::Streamed { table, file, cache },
        })
    }

    #[allow(clippy::type_complexity)]
    fn build(
        flat: &RleEncoding,
        brick: usize,
    ) -> (
        Vec<BrickMeta>,
        Vec<Option<Brick>>,
        (Axis, [usize; 3], usize, [usize; 3]),
    ) {
        let b = brick.max(1);
        let [n_i, n_j, n_k] = flat.std_dims();
        let grid = [ceil_div(n_i, b), ceil_div(n_j, b), ceil_div(n_k, b)];
        let [nb_i, nb_j, _nb_k] = grid;
        let total = grid[0] * grid[1] * grid[2];
        let mut builders: Vec<BrickBuilder> = (0..total).map(|_| BrickBuilder::default()).collect();

        for k in 0..n_k {
            let bk = k / b;
            for j in 0..n_j {
                let bj = j / b;
                let row_base = (bk * nb_j + bj) * nb_i;
                for bi in 0..nb_i {
                    builders[row_base + bi].begin_scanline();
                }
                let sl = flat.scanline(k, j);
                let mut pos = 0usize;
                // Distributes [from, to) across the brick columns it
                // crosses, transparent (`vox = None`) or opaque.
                let emit = |builders: &mut [BrickBuilder],
                            from: usize,
                            to: usize,
                            vox: Option<&[RgbaVoxel]>| {
                    let mut lo = from;
                    while lo < to {
                        let bi = lo / b;
                        let hi = to.min(((bi + 1) * b).min(n_i));
                        let bldr = &mut builders[row_base + bi];
                        match vox {
                            None => bldr.push_transparent(hi - lo),
                            Some(v) => bldr.push_opaque(&v[lo - from..hi - from]),
                        }
                        lo = hi;
                    }
                };
                for (skip, vox) in sl.segments() {
                    if skip > 0 {
                        emit(&mut builders, pos, pos + skip, None);
                        pos += skip;
                    }
                    if !vox.is_empty() {
                        emit(&mut builders, pos, pos + vox.len(), Some(vox));
                        pos += vox.len();
                    }
                }
                if pos < n_i {
                    // The flat encoder always emits full coverage; keep the
                    // invariant even if that ever changes.
                    emit(&mut builders, pos, n_i, None);
                }
                for bi in 0..nb_i {
                    builders[row_base + bi].end_scanline();
                }
            }
        }

        let mut metas = Vec::with_capacity(total);
        let mut bricks = Vec::with_capacity(total);
        for bldr in builders {
            let (meta, payload) = bldr.finish();
            metas.push(meta);
            bricks.push(payload);
        }
        (metas, bricks, (flat.axis(), flat.std_dims(), b, grid))
    }

    /// The slice axis this encoding serves.
    pub fn axis(&self) -> Axis {
        self.axis
    }

    /// Standard (permuted) dims `[n_i, n_j, n_k]` — same as the flat
    /// encoding's.
    #[inline]
    pub fn std_dims(&self) -> [usize; 3] {
        self.std_dims
    }

    /// Brick edge length in voxels.
    #[inline]
    pub fn brick_extent(&self) -> usize {
        self.brick
    }

    /// Brick grid `[nb_i, nb_j, nb_k]`.
    #[inline]
    pub fn grid(&self) -> [usize; 3] {
        self.grid
    }

    /// Id of the brick at grid position `(bi, bj, bk)`.
    #[inline]
    pub fn brick_id(&self, bi: usize, bj: usize, bk: usize) -> usize {
        (bk * self.grid[1] + bj) * self.grid[0] + bi
    }

    /// Metadata of brick `id`.
    #[inline]
    pub fn meta(&self, id: usize) -> BrickMeta {
        self.metas[id]
    }

    /// Global `i`-range `[lo, hi)` of brick column `bi`.
    #[inline]
    pub fn col_range(&self, bi: usize) -> (i64, i64) {
        let lo = bi * self.brick;
        let hi = ((bi + 1) * self.brick).min(self.std_dims[0]);
        (lo as i64, hi as i64)
    }

    /// Local scanline index of global scanline `(k, j)` within its brick.
    #[inline]
    pub fn local_scan(&self, k: usize, j: usize) -> usize {
        let b = self.brick;
        let bj = j / b;
        let jx = ((bj + 1) * b).min(self.std_dims[1]) - bj * b;
        (k % b) * jx + (j % b)
    }

    /// Payload of brick `id`; `None` for empty bricks (the metadata-only
    /// skip). Streamed encodings decode through the cache on a miss.
    pub fn payload(&self, id: usize) -> Option<BrickHandle<'_>> {
        if self.metas[id].is_empty() {
            return None;
        }
        match &self.store {
            BrickStore::Resident(bricks) => bricks[id].as_ref().map(BrickHandle::Resident),
            BrickStore::Streamed { table, file, cache } => {
                let (off, len) = table[id];
                let key = ((self.axis.index() as u64) << 40) | id as u64;
                let brick = cache.get_or_load(key, || {
                    let buf = file
                        .read_at(off, len as usize)
                        .unwrap_or_else(|e| panic!("brick spill read failed: {e}"));
                    Arc::new(
                        Brick::deserialize(&buf).expect("spill file holds what serialize wrote"),
                    )
                });
                Some(BrickHandle::Cached(brick))
            }
        }
    }

    /// Conservative (brick-granular) version of
    /// [`RleEncoding::slice_nonempty_bounds`]: the `j`-range covered by
    /// bricks of slice `k`'s brick row that store any voxel. Always a
    /// superset of the flat bounds, which is safe for the empty-region
    /// optimization (guard rows composite to zero).
    pub fn slice_nonempty_bounds(&self, k: usize) -> Option<(usize, usize)> {
        let [nb_i, nb_j, _] = self.grid;
        let bk = k / self.brick;
        let mut lo = None;
        let mut hi = None;
        for bj in 0..nb_j {
            let occupied = (0..nb_i).any(|bi| !self.metas[self.brick_id(bi, bj, bk)].is_empty());
            if occupied {
                if lo.is_none() {
                    lo = Some(bj * self.brick);
                }
                hi = Some(((bj + 1) * self.brick).min(self.std_dims[1]) - 1);
            }
        }
        Some((lo?, hi?))
    }

    /// Total stored (non-transparent) voxels across all bricks.
    pub fn stored_voxels(&self) -> usize {
        self.metas.iter().map(|m| m.stored as usize).sum()
    }

    /// Heap/spill bytes of all payloads plus metadata.
    pub fn storage_bytes(&self) -> usize {
        self.metas.iter().map(|m| m.bytes as usize).sum::<usize>()
            + self.metas.len() * std::mem::size_of::<BrickMeta>()
    }

    /// Number of bricks that store at least one voxel.
    pub fn occupied_bricks(&self) -> usize {
        self.metas.iter().filter(|m| !m.is_empty()).count()
    }

    /// Decodes global scanline `(k, j)` to a dense voxel row — the
    /// reference the equivalence tests compare against
    /// [`RleScanline::decode`](crate::RleScanline::decode). Not used on the
    /// render path.
    pub fn decode_scanline(&self, k: usize, j: usize) -> Vec<RgbaVoxel> {
        let [n_i, _, _] = self.std_dims;
        let scan = self.local_scan(k, j);
        let mut out = Vec::with_capacity(n_i);
        for bi in 0..self.grid[0] {
            let (lo, hi) = self.col_range(bi);
            let width = (hi - lo) as usize;
            match self.payload(self.brick_id(bi, j / self.brick, k / self.brick)) {
                None => out.resize(out.len() + width, RgbaVoxel::TRANSPARENT),
                Some(h) => {
                    let b = h.brick();
                    let (rr, vr) = b.scan_range(scan);
                    let sl = crate::RleScanline {
                        runs: &b.runs()[rr],
                        voxels: &b.voxels()[vr],
                    };
                    out.extend_from_slice(&sl.decode(width));
                }
            }
        }
        out
    }
}

/// A classified volume bricked along all three principal axes — the bricked
/// counterpart of [`EncodedVolume`], either fully resident or streaming
/// through a shared budgeted [`BrickCache`].
pub struct BrickedVolume {
    dims: [usize; 3],
    brick: usize,
    encodings: [BrickedEncoding; 3],
    cache: Option<Arc<BrickCache>>,
}

impl std::fmt::Debug for BrickedVolume {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BrickedVolume")
            .field("dims", &self.dims)
            .field("brick", &self.brick)
            .field("streamed", &self.cache.is_some())
            .finish_non_exhaustive()
    }
}

impl BrickedVolume {
    /// Re-chunks an encoded volume into fully resident bricks.
    pub fn from_encoded(enc: &EncodedVolume, brick: usize) -> Self {
        BrickedVolume {
            dims: enc.dims(),
            brick: brick.max(1),
            encodings: [
                BrickedEncoding::from_flat(enc.for_axis(Axis::X), brick),
                BrickedEncoding::from_flat(enc.for_axis(Axis::Y), brick),
                BrickedEncoding::from_flat(enc.for_axis(Axis::Z), brick),
            ],
            cache: None,
        }
    }

    /// Streaming mode: payloads spill to an anonymous chunk file and decode
    /// lazily through one shared [`BrickCache`] holding at most
    /// `budget_bytes` (clamped up to the largest single brick, so a cursor
    /// can always make progress).
    pub fn from_encoded_streamed(
        enc: &EncodedVolume,
        brick: usize,
        budget_bytes: u64,
    ) -> std::io::Result<Self> {
        // First pass (metadata only) to learn the largest brick for the
        // budget clamp: build resident once, measure, then spill.
        let resident = Self::from_encoded(enc, brick);
        let max_brick = resident
            .encodings
            .iter()
            .flat_map(|e| e.metas.iter())
            .map(|m| m.bytes as u64)
            .max()
            .unwrap_or(0);
        let cache = Arc::new(BrickCache::new(budget_bytes.max(max_brick)));
        let [ex, ey, ez] = resident.encodings;
        let respill = |e: BrickedEncoding| -> std::io::Result<BrickedEncoding> {
            let BrickStore::Resident(bricks) = e.store else {
                unreachable!("from_encoded builds resident stores");
            };
            let mut blob = Vec::new();
            let mut table = Vec::with_capacity(bricks.len());
            let mut scratch = Vec::new();
            for b in &bricks {
                match b {
                    None => table.push((0u64, 0u32)),
                    Some(b) => {
                        scratch.clear();
                        b.serialize(&mut scratch);
                        table.push((blob.len() as u64, scratch.len() as u32));
                        blob.extend_from_slice(&scratch);
                    }
                }
            }
            let file = Arc::new(SpillFile::create(&blob)?);
            Ok(BrickedEncoding {
                axis: e.axis,
                std_dims: e.std_dims,
                brick: e.brick,
                grid: e.grid,
                metas: e.metas,
                store: BrickStore::Streamed {
                    table,
                    file,
                    cache: Arc::clone(&cache),
                },
            })
        };
        Ok(BrickedVolume {
            dims: enc.dims(),
            brick: brick.max(1),
            encodings: [respill(ex)?, respill(ey)?, respill(ez)?],
            cache: Some(cache),
        })
    }

    /// Original volume dimensions `[nx, ny, nz]`.
    pub fn dims(&self) -> [usize; 3] {
        self.dims
    }

    /// Brick edge length in voxels.
    pub fn brick_extent(&self) -> usize {
        self.brick
    }

    /// The bricked encoding for a principal axis.
    #[inline]
    pub fn for_axis(&self, axis: Axis) -> &BrickedEncoding {
        &self.encodings[axis.index()]
    }

    /// True when payloads stream from the spill file under a byte budget.
    pub fn is_streamed(&self) -> bool {
        self.cache.is_some()
    }

    /// Cache counters; `None` for a fully resident volume.
    pub fn cache_stats(&self) -> Option<BrickCacheStats> {
        self.cache.as_ref().map(|c| c.stats())
    }

    /// Total payload + metadata bytes across the three encodings.
    pub fn storage_bytes(&self) -> usize {
        self.encodings.iter().map(|e| e.storage_bytes()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::classify::ClassifiedVolume;

    fn vox(a: u8) -> RgbaVoxel {
        RgbaVoxel {
            r: a,
            g: a,
            b: a,
            a,
        }
    }

    fn vol_from(dims: [usize; 3], f: impl Fn(usize, usize, usize) -> u8) -> ClassifiedVolume {
        let mut v = Vec::new();
        for z in 0..dims[2] {
            for y in 0..dims[1] {
                for x in 0..dims[0] {
                    v.push(vox(f(x, y, z)));
                }
            }
        }
        ClassifiedVolume::from_raw(dims, v)
    }

    fn assert_scanlines_match(enc: &EncodedVolume, bricked: &BrickedVolume) {
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            let flat = enc.for_axis(axis);
            let br = bricked.for_axis(axis);
            assert_eq!(flat.std_dims(), br.std_dims());
            let [n_i, n_j, n_k] = flat.std_dims();
            for k in 0..n_k {
                for j in 0..n_j {
                    assert_eq!(
                        flat.scanline(k, j).decode(n_i),
                        br.decode_scanline(k, j),
                        "axis {axis:?} scanline ({k},{j})"
                    );
                }
            }
        }
    }

    #[test]
    fn bricked_scanlines_decode_identically_across_seams() {
        // Dims deliberately not multiples of the brick edge: 1-voxel-wide
        // tail bricks on every axis, and runs spanning brick boundaries.
        let dims = [13, 9, 7];
        let v = vol_from(dims, |x, y, z| {
            if (3..11).contains(&x) && (x + y + z) % 4 != 0 {
                (40 + x * 7 + y * 3 + z) as u8
            } else {
                0
            }
        });
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        let bricked = BrickedVolume::from_encoded(&enc, 4);
        assert_scanlines_match(&enc, &bricked);
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            assert_eq!(
                bricked.for_axis(axis).stored_voxels(),
                enc.for_axis(axis).stored_voxels()
            );
        }
    }

    #[test]
    fn all_transparent_bricks_carry_no_payload() {
        // Content confined to one corner: most bricks must be metadata-only.
        let dims = [16, 16, 16];
        let v = vol_from(dims, |x, y, z| ((x < 4) && (y < 4) && (z < 4)) as u8 * 200);
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        let bricked = BrickedVolume::from_encoded(&enc, 4);
        let br = bricked.for_axis(Axis::Z);
        let total = br.grid()[0] * br.grid()[1] * br.grid()[2];
        assert_eq!(total, 64);
        assert_eq!(br.occupied_bricks(), 1);
        let empty = (0..total).filter(|&id| br.meta(id).is_empty()).count();
        assert_eq!(empty, 63);
        for id in 0..total {
            let m = br.meta(id);
            assert_eq!(m.is_empty(), br.payload(id).is_none());
            if m.is_empty() {
                assert_eq!(m.max_a, 0, "empty brick must advertise max_a = 0");
            } else {
                assert!(m.min_a >= 1 && m.max_a >= m.min_a);
            }
        }
        assert_scanlines_match(&enc, &bricked);
    }

    #[test]
    fn all_opaque_volume_bricks_fully() {
        let dims = [10, 10, 10];
        let v = vol_from(dims, |_, _, _| 255);
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        let bricked = BrickedVolume::from_encoded(&enc, 4);
        let br = bricked.for_axis(Axis::Z);
        assert_eq!(br.occupied_bricks(), 27);
        assert_eq!(br.stored_voxels(), 1000);
        assert_scanlines_match(&enc, &bricked);
    }

    #[test]
    fn long_runs_split_across_many_bricks() {
        // A 600-voxel opaque run crosses many 32-wide brick columns and
        // exercises the >255 run-splitting inside a single column too
        // (brick extent 300).
        let dims = [1000, 2, 1];
        let v = vol_from(dims, |x, _, _| ((150..750).contains(&x)) as u8 * 90);
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        for brick in [7, 32, 300] {
            let bricked = BrickedVolume::from_encoded(&enc, brick);
            assert_scanlines_match(&enc, &bricked);
        }
    }

    #[test]
    fn brick_meta_min_max_bound_stored_opacities() {
        let dims = [8, 8, 8];
        let v = vol_from(dims, |x, y, z| ((x + 2 * y + 3 * z) % 97) as u8);
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        let bricked = BrickedVolume::from_encoded(&enc, 4);
        let br = bricked.for_axis(Axis::Y);
        let [_n_i, n_j, n_k] = br.std_dims();
        for k in 0..n_k {
            for j in 0..n_j {
                for (i, vx) in br.decode_scanline(k, j).iter().enumerate() {
                    if vx.a == 0 {
                        continue;
                    }
                    let id = br.brick_id(i / 4, j / 4, k / 4);
                    let m = br.meta(id);
                    assert!(
                        m.min_a <= vx.a && vx.a <= m.max_a,
                        "voxel a={} outside brick meta [{}, {}]",
                        vx.a,
                        m.min_a,
                        m.max_a
                    );
                }
            }
        }
    }

    #[test]
    fn streamed_volume_decodes_identically_and_respects_budget() {
        let dims = [24, 18, 10];
        let v = vol_from(dims, |x, y, z| {
            if (x * 5 + y * 3 + z * 7) % 6 < 3 {
                (30 + x + y + z) as u8
            } else {
                0
            }
        });
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        let resident = BrickedVolume::from_encoded(&enc, 8);
        // Budget far below the total payload so eviction must run.
        let total_payload: usize = resident.storage_bytes();
        let budget = (total_payload / 8).max(1) as u64;
        let streamed = BrickedVolume::from_encoded_streamed(&enc, 8, budget).expect("spill");
        assert!(streamed.is_streamed());
        assert_scanlines_match(&enc, &streamed);
        // Walk everything a second time: hits plus misses, evictions firing.
        assert_scanlines_match(&enc, &streamed);
        let stats = streamed.cache_stats().expect("streamed volume has stats");
        assert!(stats.misses > 0, "streaming must decode bricks");
        assert!(stats.evictions > 0, "tiny budget must evict: {stats:?}");
        assert!(
            stats.peak_resident_bytes <= stats.budget_bytes,
            "peak {} exceeds budget {}",
            stats.peak_resident_bytes,
            stats.budget_bytes
        );
        assert!(stats.resident_bytes <= stats.budget_bytes);
    }

    #[test]
    fn generous_budget_caches_everything_after_first_pass() {
        let dims = [16, 16, 8];
        let v = vol_from(dims, |x, y, z| ((x ^ y ^ z) & 1) as u8 * 120);
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        let streamed = BrickedVolume::from_encoded_streamed(&enc, 8, 64 << 20).expect("spill");
        assert_scanlines_match(&enc, &streamed);
        let cold = streamed.cache_stats().expect("stats");
        assert_scanlines_match(&enc, &streamed);
        let warm = streamed.cache_stats().expect("stats");
        assert_eq!(
            cold.misses, warm.misses,
            "second pass must be all hits under a generous budget"
        );
        assert!(warm.hits > cold.hits);
        assert_eq!(warm.evictions, 0);
    }

    #[test]
    fn brick_serialization_round_trips() {
        let dims = [9, 5, 3];
        let v = vol_from(dims, |x, y, z| ((x * y + z) % 3 == 0) as u8 * 77);
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        let bricked = BrickedVolume::from_encoded(&enc, 4);
        let br = bricked.for_axis(Axis::X);
        let total = br.grid()[0] * br.grid()[1] * br.grid()[2];
        for id in 0..total {
            let Some(h) = br.payload(id) else { continue };
            let mut blob = Vec::new();
            h.brick().serialize(&mut blob);
            let back = Brick::deserialize(&blob).expect("round trip");
            assert_eq!(back.runs, h.brick().runs);
            assert_eq!(back.voxels.len(), h.brick().voxels.len());
            assert_eq!(back.scan_run_start, h.brick().scan_run_start);
            assert_eq!(back.scan_vox_start, h.brick().scan_vox_start);
        }
    }

    /// Serialized payloads of every occupied brick of a seeded volume with
    /// runs, gaps and tail bricks on all three axes.
    fn built_blobs(dims: [usize; 3], brick: usize, seed: usize) -> Vec<(Brick, Vec<u8>)> {
        let v = vol_from(dims, |x, y, z| {
            let h = (x * 31 + y * 17 + z * 7 + seed * 13) % 11;
            if h < 5 {
                (20 + h * 40 + seed % 16) as u8
            } else {
                0
            }
        });
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        let bricked = BrickedVolume::from_encoded(&enc, brick);
        let mut out = Vec::new();
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            let br = bricked.for_axis(axis);
            for id in 0..br.grid().iter().product::<usize>() {
                if let Some(h) = br.payload(id) {
                    let mut blob = Vec::new();
                    h.brick().serialize(&mut blob);
                    out.push((h.brick().clone(), blob));
                }
            }
        }
        out
    }

    /// What `deserialize` owes a hostile blob: `None`, or a brick no bigger
    /// than the blob whose every scanline slices in bounds.
    fn assert_bounded_by_input(buf: &[u8]) {
        let Some(b) = Brick::deserialize(buf) else {
            return;
        };
        assert!(
            b.heap_bytes() <= buf.len(),
            "{} heap bytes from a {}-byte blob",
            b.heap_bytes(),
            buf.len()
        );
        for scan in 0..b.scan_count() {
            let (rr, vr) = b.scan_range(scan);
            let _ = (&b.runs()[rr], &b.voxels()[vr]);
        }
    }

    proptest::proptest! {
        #[test]
        fn built_bricks_round_trip_exactly(
            nx in 1usize..14,
            ny in 1usize..10,
            nz in 1usize..8,
            brick in 1usize..9,
            seed in 0usize..1000,
        ) {
            for (b, blob) in built_blobs([nx, ny, nz], brick, seed) {
                let back = Brick::deserialize(&blob).expect("round trip");
                proptest::prop_assert_eq!(&back.runs, &b.runs);
                proptest::prop_assert_eq!(&back.voxels, &b.voxels);
                proptest::prop_assert_eq!(&back.scan_run_start, &b.scan_run_start);
                proptest::prop_assert_eq!(&back.scan_vox_start, &b.scan_vox_start);
                proptest::prop_assert_eq!(back.heap_bytes() + 12, blob.len());
            }
        }

        #[test]
        fn hostile_blobs_never_panic_or_outgrow_their_input(
            bytes in proptest::collection::vec(0u16..256, 0..96),
            counts in (0u32..40, 0u32..40, 0u32..40),
            huge in 0usize..3,
            seed in 0usize..1000,
            cut in 0usize..4096,
            poke in (0usize..4096, 0u16..256),
        ) {
            // Arbitrary bytes.
            let bytes: Vec<u8> = bytes.into_iter().map(|b| b as u8).collect();
            assert_bounded_by_input(&bytes);
            // A plausible header — or one count at `u32::MAX`, the 16 GiB
            // request — in front of them.
            let mut counts = [counts.0, counts.1, counts.2];
            counts[huge] = if seed % 2 == 0 { u32::MAX } else { counts[huge] };
            let mut framed: Vec<u8> = counts.iter().flat_map(|c| c.to_le_bytes()).collect();
            framed.extend_from_slice(&bytes);
            assert_bounded_by_input(&framed);
            // A real blob, truncated and with one byte overwritten.
            let blobs = built_blobs([9, 5, 3], 4, seed);
            let (_, blob) = &blobs[seed % blobs.len()];
            let mut hurt = blob[..cut % (blob.len() + 1)].to_vec();
            if !hurt.is_empty() {
                let at = poke.0 % hurt.len();
                hurt[at] = poke.1 as u8;
            }
            assert_bounded_by_input(&hurt);
        }
    }

    #[test]
    fn conservative_slice_bounds_contain_flat_bounds() {
        let dims = [20, 17, 9];
        let v = vol_from(dims, |x, y, z| {
            ((5..12).contains(&y) && (x + z) % 3 == 0) as u8 * 150
        });
        let enc = EncodedVolume::encode_with_threshold(&v, 1);
        let bricked = BrickedVolume::from_encoded(&enc, 4);
        for axis in [Axis::X, Axis::Y, Axis::Z] {
            let flat = enc.for_axis(axis);
            let br = bricked.for_axis(axis);
            for k in 0..flat.std_dims()[2] {
                match (flat.slice_nonempty_bounds(k), br.slice_nonempty_bounds(k)) {
                    (None, _) => {}
                    (Some((flo, fhi)), Some((blo, bhi))) => {
                        assert!(
                            blo <= flo && bhi >= fhi,
                            "axis {axis:?} slice {k}: bricked ({blo},{bhi}) \
                             must contain flat ({flo},{fhi})"
                        );
                    }
                    (Some(f), None) => {
                        panic!("axis {axis:?} slice {k}: flat occupied {f:?}, bricked empty")
                    }
                }
            }
        }
    }

    #[test]
    fn cache_evicts_under_pressure_and_counts_consistently() {
        let cache = BrickCache::new(4096);
        let mk = |n: usize| {
            Arc::new(Brick {
                runs: vec![0, 255],
                voxels: vec![RgbaVoxel::TRANSPARENT; n],
                scan_run_start: vec![0, 2],
                scan_vox_start: vec![0, n as u32],
            })
        };
        for key in 0..64u64 {
            let b = cache.get_or_load(key, || mk(200)); // ~832 B each
            assert_eq!(b.voxels.len(), 200);
        }
        let s = cache.stats();
        assert_eq!(s.misses, 64);
        assert!(s.evictions >= 59, "evictions = {}", s.evictions);
        assert!(s.resident_bytes <= s.budget_bytes);
        assert!(s.peak_resident_bytes <= s.budget_bytes);
        // Hot key stays cached when re-touched between inserts.
        let before = cache.stats().hits;
        let _ = cache.get_or_load(63, || panic!("63 was just inserted"));
        assert_eq!(cache.stats().hits, before + 1);
    }
}
