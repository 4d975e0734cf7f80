//! Working-set replay for the bricked streaming store.
//!
//! `swr-volume`'s streamed `BrickedVolume` bounds its resident set with a
//! sharded second-chance clock cache (`BrickCache`). Choosing the brick
//! extent and the byte budget is a classic working-set problem: too-small
//! budgets thrash (every scanline pass re-decodes the slab of bricks it
//! strides), too-large budgets waste the memory the bound was supposed to
//! save, and the brick size moves both the compulsory miss count and the
//! per-miss decode cost. This module predicts those effects *before* a
//! render:
//!
//! * [`pinned_touches`] synthesizes the brick reference stream a
//!   principal-axis compositing pass makes over a bricked grid. A band loop
//!   holds the bricks under its chunk of scanlines in a brick-row pin
//!   (`swr_render::BrickRowPin`) until the chunk moves to another brick
//!   row, so the cache sees one reference per `(slab, brick row, column)`
//!   of each chunk, and the whole depth is walked once per chunk.
//!   [`scanline_touches`] is the unpinned stream — every voxel row of every
//!   slice crossing the full row of bricks — which only the one-shot
//!   compositing entry points still make.
//! * [`ClockCacheSim`] is a policy twin of the real `BrickCache`: same
//!   Fibonacci-hash sharding, same reserve-before-admit accounting, same
//!   per-shard second-chance sweep. Replaying a touch stream through it
//!   predicts the exact hit/miss/eviction counters a streamed render with
//!   that reference pattern would produce (the crate's tests drive the real
//!   cache with the same stream and assert the counters match).
//! * [`lru_misses`] is the idealized byte-LRU bound. LRU has the stack
//!   inclusion property, so its miss curve ([`miss_curve`]) is monotone in
//!   the budget — the "knee" of that curve is the smallest budget that
//!   captures the pass's working set (one brick-row slab per axis).
//! * [`sweep_brick_sizes`] / [`recommend_brick`] replay the same volume at
//!   several brick extents under one budget and rank them by **decoded
//!   bytes** (misses × brick payload) — the quantity that actually costs
//!   wall-clock time on the streaming path. This is the model that
//!   validates `DEFAULT_BRICK_EXTENT`'s 32³ choice.

use std::collections::HashMap;

/// Number of shards in the real `BrickCache` (`crates/volume/src/brick.rs`);
/// the simulator mirrors it so eviction order matches exactly.
const SIM_SHARDS: usize = 16;

/// One recorded (or synthesized) brick reference: which brick, and how many
/// heap bytes its decoded payload occupies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrickTouch {
    /// Brick identity (linear brick index; any consistent scheme works).
    pub key: u64,
    /// Decoded payload bytes the cache must hold while the brick is used.
    pub bytes: u64,
}

/// Brick id of `(bi, bj, bk)` in a grid `nbx` columns by `nby` rows wide —
/// the real `BrickedEncoding::brick_id` order.
fn brick_key(bi: usize, bj: usize, bk: usize, nbx: usize, nby: usize) -> u64 {
    ((bk * nby + bj) * nbx + bi) as u64
}

/// The brick reference stream of one head-on principal-axis compositing pass
/// over a `dims` grid bricked at extent `brick`, as the renderers' band loops
/// make it, with every brick's payload modeled as `bytes_per_brick`. The
/// image's `dims[1]` scanlines are composited in chunks of `chunk_rows`
/// (`dims[1]` itself models the serial renderer, whose whole image is one
/// band); each chunk walks the volume front to back holding two brick rows,
/// direct-mapped by the parity of `bj` as in the real pin, and touches a
/// row's bricks when it is not the one held. A chunk within two brick rows
/// therefore makes one touch per `(slab, brick row, column)`, however many
/// scanlines and slices read the row; a taller chunk evicts its own rows
/// and re-touches them every slice.
pub fn pinned_touches(
    dims: [usize; 3],
    brick: usize,
    chunk_rows: usize,
    bytes_per_brick: u64,
) -> Vec<BrickTouch> {
    let (b, chunk_rows) = (brick.max(1), chunk_rows.max(1));
    let nbx = dims[0].div_ceil(b);
    let nby = dims[1].div_ceil(b);
    let mut out = Vec::new();
    for chunk_lo in (0..dims[1]).step_by(chunk_rows) {
        let chunk_hi = (chunk_lo + chunk_rows).min(dims[1]);
        let mut held = [None; 2];
        for k in 0..dims[2] {
            for bj in chunk_lo / b..=(chunk_hi - 1) / b {
                if held[bj % 2].replace((k / b, bj)) == Some((k / b, bj)) {
                    continue;
                }
                out.extend((0..nbx).map(|bi| BrickTouch {
                    key: brick_key(bi, bj, k / b, nbx, nby),
                    bytes: bytes_per_brick,
                }));
            }
        }
    }
    out
}

/// The unpinned counterpart of [`pinned_touches`]: for each slice `k`, each
/// voxel row `j` crosses the full row of bricks in `i`, so the brick row for
/// `(j, k)` is re-referenced by all `brick` rows and slices that map into
/// it. This was the compositor's stream while every scanline cursor looked
/// its bricks up itself; band loops now make the pinned stream, and only
/// the one-shot compositing entry points (one pin per scanline) still make
/// this one: what the cache has to absorb with no help from the pins.
pub fn scanline_touches(dims: [usize; 3], brick: usize, bytes_per_brick: u64) -> Vec<BrickTouch> {
    let b = brick.max(1);
    let nbx = dims[0].div_ceil(b);
    let nby = dims[1].div_ceil(b);
    let mut out = Vec::with_capacity(dims[2] * dims[1] * nbx);
    for k in 0..dims[2] {
        for j in 0..dims[1] {
            out.extend((0..nbx).map(|bi| BrickTouch {
                key: brick_key(bi, j / b, k / b, nbx, nby),
                bytes: bytes_per_brick,
            }));
        }
    }
    out
}

/// Counter snapshot of a [`ClockCacheSim`] replay; field-for-field the shape
/// of the real cache's `BrickCacheStats`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SimStats {
    /// References served from the simulated cache.
    pub hits: u64,
    /// References that would decode from the spill file.
    pub misses: u64,
    /// Simulated evictions.
    pub evictions: u64,
    /// Bytes resident at the end of the replay.
    pub resident_bytes: u64,
    /// High-water mark of resident bytes.
    pub peak_resident_bytes: u64,
    /// The byte budget the replay ran under.
    pub budget_bytes: u64,
}

#[derive(Debug)]
struct SimSlot {
    key: u64,
    bytes: u64,
    referenced: bool,
}

#[derive(Debug, Default)]
struct SimShard {
    slots: Vec<SimSlot>,
    index: HashMap<u64, usize>,
    hand: usize,
}

impl SimShard {
    fn get(&mut self, key: u64) -> bool {
        match self.index.get(&key) {
            Some(&i) => {
                self.slots[i].referenced = true;
                true
            }
            None => false,
        }
    }

    fn insert(&mut self, key: u64, bytes: u64) {
        let i = self.slots.len();
        self.slots.push(SimSlot {
            key,
            bytes,
            referenced: true,
        });
        self.index.insert(key, i);
    }

    /// Second-chance sweep, mirroring the real shard: clear one round of
    /// reference bits, evict the first unreferenced slot (`swap_remove`, so
    /// the index fix-up order also matches).
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

/// Deterministic single-threaded twin of the real `BrickCache` policy:
/// sharded second-chance clock with reserve-before-admit, so the predicted
/// peak never exceeds the budget (unless a single brick does).
#[derive(Debug)]
pub struct ClockCacheSim {
    budget: u64,
    shards: Vec<SimShard>,
    resident: u64,
    peak: u64,
    hits: u64,
    misses: u64,
    evictions: u64,
}

impl ClockCacheSim {
    /// A simulated cache with the given byte budget.
    pub fn new(budget_bytes: u64) -> Self {
        ClockCacheSim {
            budget: budget_bytes,
            shards: (0..SIM_SHARDS).map(|_| SimShard::default()).collect(),
            resident: 0,
            peak: 0,
            hits: 0,
            misses: 0,
            evictions: 0,
        }
    }

    /// Same Fibonacci spread as the real cache, so the same keys land in the
    /// same shards and eviction order is reproduced exactly.
    #[inline]
    fn shard_of(&self, key: u64) -> usize {
        (key.wrapping_mul(0x9E37_79B9_7F4A_7C15) >> 48) as usize % self.shards.len()
    }

    /// References one brick; returns `true` on a (simulated) hit.
    pub fn touch(&mut self, key: u64, bytes: u64) -> bool {
        let s = self.shard_of(key);
        if self.shards[s].get(key) {
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        // Reserve-before-admit: evict (starting at the insert shard) until
        // the new payload fits; if every shard drains and it still does not
        // fit, admit anyway — exactly the real cache's oversized-brick path.
        while self.resident + bytes > self.budget {
            if !self.evict_one(s) {
                break;
            }
        }
        self.resident += bytes;
        self.peak = self.peak.max(self.resident);
        self.shards[s].insert(key, bytes);
        false
    }

    fn evict_one(&mut self, start_shard: usize) -> bool {
        for off in 0..self.shards.len() {
            let i = (start_shard + off) % self.shards.len();
            if let Some(freed) = self.shards[i].clock_evict() {
                self.resident -= freed;
                self.evictions += 1;
                return true;
            }
        }
        false
    }

    /// Replays a whole touch stream.
    pub fn replay(&mut self, touches: &[BrickTouch]) {
        for t in touches {
            self.touch(t.key, t.bytes);
        }
    }

    /// Snapshot of the simulated counters.
    pub fn stats(&self) -> SimStats {
        SimStats {
            hits: self.hits,
            misses: self.misses,
            evictions: self.evictions,
            resident_bytes: self.resident,
            peak_resident_bytes: self.peak,
            budget_bytes: self.budget,
        }
    }
}

/// Misses an idealized byte-budget LRU cache takes on `touches`. LRU has
/// the stack inclusion property, so this is monotone non-increasing in
/// `budget_bytes` — the clean "predicted miss curve" the clock policy
/// approximates (the second-chance clock over-misses near exact capacity
/// boundaries, which is why prediction ranks with LRU and validation uses
/// the [`ClockCacheSim`] twin).
pub fn lru_misses(touches: &[BrickTouch], budget_bytes: u64) -> u64 {
    // Exact LRU via a recency-ordered map: O(log m) per touch.
    let mut stamp: HashMap<u64, (u64, u64)> = HashMap::new(); // key → (time, bytes)
    let mut recency: std::collections::BTreeMap<u64, u64> = Default::default(); // time → key
    let mut resident = 0u64;
    let mut misses = 0u64;
    for (now, t) in touches.iter().enumerate() {
        let now = now as u64;
        if let Some((prev, _)) = stamp.insert(t.key, (now, t.bytes)) {
            recency.remove(&prev);
            recency.insert(now, t.key);
            continue;
        }
        misses += 1;
        while resident + t.bytes > budget_bytes {
            let Some((_, victim)) = recency.pop_first() else {
                break;
            };
            if let Some((_, b)) = stamp.remove(&victim) {
                resident -= b;
            }
        }
        resident += t.bytes;
        recency.insert(now, t.key);
    }
    misses
}

/// One point of a predicted miss curve.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MissCurvePoint {
    /// Byte budget this point was replayed under.
    pub budget_bytes: u64,
    /// Idealized LRU misses (monotone in the budget).
    pub lru_misses: u64,
    /// Clock-policy misses (what the real `BrickCache` would count).
    pub clock_misses: u64,
    /// Clock-policy evictions.
    pub clock_evictions: u64,
}

/// The predicted miss curve of `touches` across `budgets`: for each budget,
/// the idealized-LRU miss count and the clock policy twin's counters.
pub fn miss_curve(touches: &[BrickTouch], budgets: &[u64]) -> Vec<MissCurvePoint> {
    budgets
        .iter()
        .map(|&budget_bytes| {
            let mut sim = ClockCacheSim::new(budget_bytes);
            sim.replay(touches);
            let s = sim.stats();
            MissCurvePoint {
                budget_bytes,
                lru_misses: lru_misses(touches, budget_bytes),
                clock_misses: s.misses,
                clock_evictions: s.evictions,
            }
        })
        .collect()
}

/// Predicted streaming cost of one candidate brick extent.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BrickChoice {
    /// Candidate brick edge length.
    pub brick: usize,
    /// Modeled payload bytes of one (dense) brick, offset tables included.
    pub brick_bytes: u64,
    /// Predicted (idealized-LRU) misses over one compositing pass.
    pub misses: u64,
    /// `misses × brick_bytes` — the bytes the pass would decode from the
    /// spill file, the quantity that costs wall-clock time.
    pub decoded_bytes: u64,
}

/// Replays one compositing pass over a `dims` grid at each candidate brick
/// extent under the same byte budget — the unpinned pass, so the ranking
/// does not lean on the bricks a pin keeps alive outside the budget —
/// modeling dense bricks of
/// `bytes_per_voxel` (4 for stored RGBA) plus the per-brick scanline offset
/// tables the real payload carries (`Brick::heap_bytes` charges two
/// `u32[b² + 1]` tables, so `8·(b² + 1)` bytes — the overhead that makes
/// *small* bricks expensive, opposing the slab thrash that makes *large*
/// bricks expensive). Results are in candidate order; rank with
/// [`recommend_brick`].
pub fn sweep_brick_sizes(
    dims: [usize; 3],
    candidates: &[usize],
    budget_bytes: u64,
    bytes_per_voxel: u64,
) -> Vec<BrickChoice> {
    candidates
        .iter()
        .map(|&brick| {
            let b = brick.max(1);
            let brick_bytes = (b * b * b) as u64 * bytes_per_voxel + 8 * (b * b + 1) as u64;
            let touches = scanline_touches(dims, b, brick_bytes);
            let misses = lru_misses(&touches, budget_bytes);
            BrickChoice {
                brick: b,
                brick_bytes,
                misses,
                decoded_bytes: misses * brick_bytes,
            }
        })
        .collect()
}

/// The candidate brick extent with the least predicted decode traffic
/// (ties break toward the larger brick: fewer, bigger, more sequential
/// reads). Returns `None` for an empty candidate list.
pub fn recommend_brick(
    dims: [usize; 3],
    candidates: &[usize],
    budget_bytes: u64,
    bytes_per_voxel: u64,
) -> Option<BrickChoice> {
    sweep_brick_sizes(dims, candidates, budget_bytes, bytes_per_voxel)
        .into_iter()
        .min_by(|a, b| {
            a.decoded_bytes
                .cmp(&b.decoded_bytes)
                .then(b.brick.cmp(&a.brick))
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use swr_volume::{Brick, BrickCache};

    #[test]
    fn scanline_touches_cover_every_brick_and_rereference_slabs() {
        let dims = [48, 48, 48];
        let touches = scanline_touches(dims, 16, 1024);
        // Every row of every slice crosses the full brick row in i.
        assert_eq!(touches.len(), 48 * 48 * 3);
        let distinct: std::collections::HashSet<u64> = touches.iter().map(|t| t.key).collect();
        assert_eq!(distinct.len(), 3 * 3 * 3, "one key per brick");
        // An infinite budget sees exactly one (compulsory) miss per brick.
        let mut sim = ClockCacheSim::new(u64::MAX);
        sim.replay(&touches);
        let s = sim.stats();
        assert_eq!(s.misses, 27);
        assert_eq!(s.evictions, 0);
        assert_eq!(s.hits, touches.len() as u64 - 27);
    }

    /// The stream's length is the real render's lookup count: a dense
    /// volume head-on through the serial renderer (one band) and through a
    /// band loop over 4-row chunks, streamed under a starved budget.
    #[test]
    fn pinned_touches_count_what_a_streamed_render_looks_up() {
        use swr_geom::{Factorization, ViewSpec};
        use swr_render::{
            composite_scanline_slice_untraced_src, BrickRowPin, CompositeOpts, IntermediateImage,
            SerialRenderer, VolumeSrc,
        };
        use swr_volume::{BrickedVolume, ClassifiedVolume, EncodedVolume, RgbaVoxel};
        let (dims, brick, chunk_rows) = ([24, 32, 12], 8, 4);
        let voxel = |n: usize| {
            let a = 40 + (n % 90) as u8;
            RgbaVoxel {
                r: a,
                g: a,
                b: a,
                a,
            }
        };
        let dense = (0..dims[0] * dims[1] * dims[2]).map(voxel).collect();
        let enc = EncodedVolume::encode_with_threshold(&ClassifiedVolume::from_raw(dims, dense), 1);
        let streamed = BrickedVolume::from_encoded_streamed(&enc, brick, 1).expect("spill");
        let lookups = || {
            let s = streamed.cache_stats().expect("streamed");
            assert!(s.peak_resident_bytes <= s.budget_bytes);
            s.hits + s.misses
        };
        let src = VolumeSrc::Bricked(&streamed);
        let view = ViewSpec::new(dims);

        let before = lookups();
        SerialRenderer::new().render_src(src, &view);
        let one_band = pinned_touches(dims, brick, dims[1], 0);
        assert_eq!(lookups() - before, one_band.len() as u64);
        // Four brick rows under one band: the two-row pin holds none of them
        // from one slice to the next.
        assert_eq!(one_band.len(), 12 * 4 * 3, "slices × brick rows × columns");

        let fact = Factorization::from_view(&view);
        let axis = src.for_axis(fact.principal);
        let mut inter = IntermediateImage::new(fact.inter_w, fact.inter_h);
        let before = lookups();
        for chunk in (0..dims[1]).step_by(chunk_rows) {
            let mut pin = BrickRowPin::new(axis);
            for m in 0..fact.slice_count() {
                let k = fact.slice_for_step(m);
                for y in chunk..chunk + chunk_rows {
                    let mut row = inter.row_view(y);
                    let opts = CompositeOpts::default();
                    composite_scanline_slice_untraced_src(&mut pin, &fact, &mut row, k, &opts);
                }
            }
        }
        let chunked = pinned_touches(dims, brick, chunk_rows, 0);
        assert_eq!(lookups() - before, chunked.len() as u64);
        assert_eq!(chunked.len(), 8 * 2 * 3, "chunks × slabs × columns");
    }

    #[test]
    fn lru_miss_curve_is_monotone_and_flattens_at_the_working_set() {
        let dims = [64, 64, 64];
        let brick_bytes = 16 * 16 * 16 * 4u64;
        let touches = scanline_touches(dims, 16, brick_bytes);
        let nbricks = 4 * 4 * 4u64;
        // 4, 8, 12, ..., 64 bricks of budget (the volume is 64 bricks).
        let budgets: Vec<u64> = (1..=16).map(|i| i * 4 * brick_bytes).collect();
        let curve = miss_curve(&touches, &budgets);
        for w in curve.windows(2) {
            assert!(
                w[1].lru_misses <= w[0].lru_misses,
                "LRU curve must be monotone: {w:?}"
            );
        }
        // A compositing pass re-references one slice's worth of bricks
        // (nbx·nby = 16 here) slice after slice; the curve's knee is there:
        // at 16 bricks of budget only compulsory misses remain, at 12 the
        // pass still thrashes.
        assert_eq!(curve[3].lru_misses, nbricks, "{:?}", curve[3]);
        assert!(curve[2].lru_misses > nbricks, "{:?}", curve[2]);
        let starved = &curve[0];
        assert!(
            starved.lru_misses > 4 * nbricks,
            "a 4-brick budget must thrash: {starved:?}"
        );
        // The clock twin tracks the same shape: compulsory-only once nothing
        // ever needs evicting, thrash when starved.
        let full = curve.last().expect("non-empty curve");
        assert_eq!(full.clock_misses, nbricks);
        assert_eq!(full.clock_evictions, 0);
        assert!(starved.clock_misses > 4 * nbricks);
    }

    #[test]
    fn clock_sim_matches_the_real_brick_cache_counter_for_counter() {
        let dims = [48, 48, 24];
        let brick_bytes = 8 * 8 * 8 * 4u64;
        let touches = scanline_touches(dims, 8, brick_bytes);
        // From starved through saturated, including a non-multiple budget.
        for budget in [
            brick_bytes,
            3 * brick_bytes + 17,
            9 * brick_bytes,
            64 * brick_bytes,
        ] {
            let mut sim = ClockCacheSim::new(budget);
            sim.replay(&touches);
            let predicted = sim.stats();
            let real = BrickCache::new(budget);
            for t in &touches {
                let bytes = t.bytes as usize;
                let _ = real.get_or_load(t.key, || Arc::new(Brick::synthetic(bytes)));
            }
            let actual = real.stats();
            assert_eq!(predicted.hits, actual.hits, "hits @ budget {budget}");
            assert_eq!(predicted.misses, actual.misses, "misses @ budget {budget}");
            assert_eq!(
                predicted.evictions, actual.evictions,
                "evictions @ budget {budget}"
            );
            assert_eq!(
                predicted.resident_bytes, actual.resident_bytes,
                "resident @ budget {budget}"
            );
            assert_eq!(
                predicted.peak_resident_bytes, actual.peak_resident_bytes,
                "peak @ budget {budget}"
            );
            assert!(
                actual.peak_resident_bytes <= budget,
                "real cache held its budget"
            );
        }
    }

    #[test]
    fn recommendation_minimizes_decode_traffic_and_vindicates_the_default() {
        let dims = [128, 128, 128];
        // A cache-slice-sized budget: holds 32³'s slice working set
        // (nbx·nby = 16 bricks ≈ 2.2 MiB) but not 64³'s (4 bricks ≈ 4.3 MiB).
        let budget = 4u64 << 20;
        let sweep = sweep_brick_sizes(dims, &[8, 16, 32, 64], budget, 4);
        let best = recommend_brick(dims, &[8, 16, 32, 64], budget, 4).expect("candidates");
        for c in &sweep {
            assert!(
                best.decoded_bytes <= c.decoded_bytes,
                "recommendation {best:?} beaten by {c:?}"
            );
        }
        // 64³ bricks overflow the budget by one slice working set: every
        // slice re-decodes the slab. 8³ pays ~25% offset-table overhead on
        // every compulsory decode. 32³ threads the needle.
        let b64 = sweep.iter().find(|c| c.brick == 64).expect("64 in sweep");
        let b8 = sweep.iter().find(|c| c.brick == 8).expect("8 in sweep");
        assert!(
            best.decoded_bytes * 4 < b64.decoded_bytes,
            "oversized bricks must thrash: best {best:?} vs {b64:?}"
        );
        assert!(
            best.decoded_bytes < b8.decoded_bytes,
            "tiny bricks pay table overhead: best {best:?} vs {b8:?}"
        );
        assert_eq!(
            best.brick, 32,
            "the shipped DEFAULT_BRICK_EXTENT wins this regime: {sweep:?}"
        );
    }

    #[test]
    fn oversized_single_brick_is_admitted_like_the_real_cache() {
        // Budget smaller than one brick: both sides admit it anyway.
        let touches = [
            BrickTouch { key: 1, bytes: 100 },
            BrickTouch { key: 2, bytes: 100 },
            BrickTouch { key: 1, bytes: 100 },
        ];
        let mut sim = ClockCacheSim::new(10);
        sim.replay(&touches);
        let real = BrickCache::new(10);
        for t in &touches {
            let bytes = t.bytes as usize;
            let _ = real.get_or_load(t.key, || Arc::new(Brick::synthetic(bytes)));
        }
        assert_eq!(sim.stats().misses, real.stats().misses);
        assert_eq!(sim.stats().hits, real.stats().hits);
        assert_eq!(sim.stats().evictions, real.stats().evictions);
        assert_eq!(
            sim.stats().peak_resident_bytes,
            real.stats().peak_resident_bytes
        );
    }
}
