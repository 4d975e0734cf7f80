//! The benchmark's vocabulary: workload names, end-to-end metrics and
//! per-layer metrics, with units. `BENCHMARK.json` must list exactly these
//! (a unit test compares the two).

use std::collections::BTreeMap;

/// `(name, why)` of every workload, in run order.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "orbit_mri256",
        "the paper's experiment at the paper's size: composite is ~80% of the frame, so render kernels and core partition/steal/profile dominate",
    ),
    (
        "animate_ct256_zoom2",
        "thin opaque shell at zoom 2: the 4x larger warp is about half the frame and the pipeline overlaps warp N with composite N+1",
    ),
    (
        "serve_mri128_px",
        "request to pixels over real TCP through swr-serve: hex serialisation, socket and queue are a large share, a renderer win moves it less",
    ),
    (
        "stream_mri192_q",
        "bricked volume streamed under a resident budget of 1/4 of the encoded bytes, one render thread: the brick cache's lookup/fetch/evict path dominates; orbit_mri256 bypasses it",
    ),
    (
        "shard_mri256_shm2",
        "orbit_mri256's frames produced by 2 swr-shard processes over the shm ring: route/merge/codec cost and the price of extra processes",
    ),
    (
        "retransfer_mri64",
        "each op edits the transfer function then classifies, encodes and renders: the volume layer as a write path, which the read workloads bypass",
    ),
];

/// `(name, unit)` of every end-to-end metric, in print order.
pub const END_TO_END: [(&str, &str); 6] = [
    ("frames_per_s", "frames/s"),
    ("frame_ms_p50", "ms"),
    ("frame_ms_p90", "ms"),
    ("setup_s", "s"),
    ("cpu_ms_per_frame", "ms"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric in `BENCHMARK.json`. Each is
/// measured by every workload's traced run, on that workload's own volume
/// and views (the layer census), so none is ever a placeholder.
pub const PER_LAYER: [(&str, &str); 45] = [
    ("geom.factorize_us", "us"),
    ("volume.generate_s", "s"),
    ("volume.classify_s", "s"),
    ("volume.encode_s", "s"),
    ("volume.encoded_mib", "MiB"),
    ("volume.transparent_frac", "ratio"),
    ("volume.brick_build_s", "s"),
    ("volume.brick_hits", "count"),
    ("volume.brick_misses", "count"),
    ("volume.brick_evictions", "count"),
    ("volume.brick_hit_ratio", "ratio"),
    ("volume.brick_peak_resident_mib", "MiB"),
    ("volume.brick_penalty_ms", "ms"),
    ("volume.stream_penalty_ms", "ms"),
    ("render.composite_ms", "ms"),
    ("render.warp_ms", "ms"),
    ("render.composite_share", "ratio"),
    ("render.composited_mpix", "Mpix"),
    ("render.composite_mpix_per_s", "Mpix/s"),
    ("render.warped_mpix_per_s", "Mpix/s"),
    ("core.frame_ms_profiled", "ms"),
    ("core.frame_ms_unprofiled", "ms"),
    ("core.profiled_frames", "count"),
    ("core.steals_per_frame", "count"),
    ("core.degraded_frames", "count"),
    ("core.partition_us", "us"),
    ("core.imbalance", "ratio"),
    ("core.parallel_efficiency", "ratio"),
    ("core.overhead_ms", "ms"),
    ("core.speedup_vs_serial", "ratio"),
    ("core.speedup_vs_old", "ratio"),
    ("ref.serial_frames_per_s", "frames/s"),
    ("ref.old_frames_per_s", "frames/s"),
    ("core.pipeline_gain", "ratio"),
    ("core.pool_spawn_us", "us"),
    ("shard.codec_mib_per_s", "MiB/s"),
    ("serve.parse_us", "us"),
    ("serve.serialize_ms", "ms"),
    ("serve.hash_ms", "ms"),
    ("serve.render_ms", "ms"),
    ("serve.resp_kib", "KiB"),
    ("telemetry.export_ms", "ms"),
    ("telemetry.spans_per_frame", "count"),
    ("harness.trace_overhead_frac", "ratio"),
    ("harness.unattributed_ms", "ms"),
];

/// `(name, unit)` of the per-layer metrics only one workload can measure —
/// they need its live server, its live worker fleet or its own per-op
/// spans. A traced run prints the ones it measured; they are not in
/// `BENCHMARK.json`, whose per-layer metrics every workload must report.
pub const LOCAL: [(&str, &str); 17] = [
    ("volume.classify_ms", "ms"),
    ("volume.encode_ms", "ms"),
    ("shard.spawn_s", "s"),
    ("shard.frame_ms", "ms"),
    ("shard.overhead_ms", "ms"),
    ("shard.tiles_per_frame", "count"),
    ("shard.bytes_per_frame", "bytes"),
    ("shard.ring_full_spins", "count"),
    ("shard.repaired", "count"),
    ("shard.socket_frames_per_s", "frames/s"),
    ("serve.wire_ms", "ms"),
    ("serve.hello_cold_ms", "ms"),
    ("serve.hello_warm_ms", "ms"),
    ("serve.retries", "count"),
    ("serve.shed", "count"),
    ("serve.serial_fallbacks", "count"),
    ("serve.nopixels_frames_per_s", "frames/s"),
];

/// The per-layer values one traced run measured.
#[derive(Debug, Default)]
pub struct Layers(BTreeMap<&'static str, f64>);

impl Layers {
    /// Records a per-layer value.
    ///
    /// # Panics
    /// Panics on a name in neither [`PER_LAYER`] nor [`LOCAL`] — a typo
    /// would otherwise silently go unreported.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            PER_LAYER.iter().chain(&LOCAL).any(|(n, _)| *n == name),
            "unknown per-layer metric {name}"
        );
        self.0.insert(name, value);
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The [`PER_LAYER`] names the run did not measure.
    pub fn missing(&self) -> Vec<&'static str> {
        PER_LAYER
            .iter()
            .map(|(n, _)| *n)
            .filter(|n| !self.0.contains_key(n))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use shearwarp::telemetry::Json;

    fn contract() -> Json {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        Json::parse(&text).expect("BENCHMARK.json parses")
    }

    fn names(doc: &Json, key: &str, field: &str) -> Vec<(String, String)> {
        doc.get(key)
            .and_then(Json::as_arr)
            .expect(key)
            .iter()
            .map(|m| {
                let s = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (s("name"), s(field))
            })
            .collect()
    }

    fn owned(table: &[(&str, &str)]) -> Vec<(String, String)> {
        table
            .iter()
            .map(|(a, b)| (a.to_string(), b.to_string()))
            .collect()
    }

    #[test]
    fn benchmark_json_lists_exactly_the_harness_vocabulary() {
        let doc = contract();
        assert_eq!(names(&doc, "workloads", "why"), owned(&WORKLOADS));
        assert_eq!(names(&doc, "end_to_end", "unit"), owned(&END_TO_END));
        assert_eq!(names(&doc, "per_layer", "unit"), owned(&PER_LAYER));
    }

    #[test]
    fn names_and_units_obey_the_contract_limits() {
        let ok_name = |n: &str| {
            n.len() <= 64
                && n.starts_with(|c: char| c.is_ascii_alphanumeric())
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
        };
        let ok_unit = |u: &str| {
            !u.is_empty()
                && u.len() <= 16
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::BTreeSet::new();
        for (n, u) in END_TO_END.iter().chain(&PER_LAYER).chain(&LOCAL) {
            assert!(ok_name(n) && ok_unit(u), "{n} [{u}]");
            assert!(seen.insert(*n), "{n} used twice");
        }
        for (n, why) in WORKLOADS {
            assert!(ok_name(n) && seen.insert(n), "{n}");
            assert!(why.len() <= 200 && !why.contains('\n'), "{n}: why too long");
        }
        assert!(END_TO_END.contains(&("setup_s", "s")));
    }
}
