//! Lap statistics. Every end-to-end number is computed on the
//! **undisturbed lap**: op by op, the fastest latency that op showed in any
//! timed lap. On a shared 2-vCPU box a noisy neighbour only ever *adds*
//! time, in bursts of 0.1–2 s, so the per-op minimum over laps is what the
//! code costs and the rest is what the neighbours cost; it moved 2–4 % from
//! run to run where the median over laps moved 6–12 %.

/// Median of `v` (mean of the two middle values for even lengths).
///
/// # Panics
/// Panics on an empty slice — a workload that timed nothing is a bug.
pub fn median(v: &[f64]) -> f64 {
    assert!(!v.is_empty(), "median of no samples");
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        0.5 * (s[n / 2 - 1] + s[n / 2])
    }
}

/// Nearest-rank index of quantile `q` among `n` sorted samples:
/// `ceil(q·n) − 1`. At the lap size of 100 ops, p50 is index 49 and p90 is
/// index 89 — ten samples lie beyond it, the fewest the metric guide allows.
pub fn percentile_index(n: usize, q: f64) -> usize {
    assert!(n > 0 && (0.0..=1.0).contains(&q));
    ((q * n as f64).ceil() as usize).clamp(1, n) - 1
}

/// Nearest-rank percentile of unsorted samples.
pub fn percentile(v: &[f64], q: f64) -> f64 {
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    s[percentile_index(s.len(), q)]
}

/// One timed pass over a workload's op list.
#[derive(Debug, Clone, Default)]
pub struct Lap {
    /// Wall time of the pass, verification excluded.
    pub wall_s: f64,
    /// CPU time (user + system, harness and child processes) of the pass.
    pub cpu_ms: f64,
    /// Per-op latency, issue → pixels in hand, in op order: `streams`
    /// equal runs, one per closed-loop client, that executed side by side.
    pub lat_ms: Vec<f64>,
    /// Concurrent closed-loop clients (1 everywhere but the serve workload).
    pub streams: usize,
    /// The ops overlap inside the program (the animation pipeline), so a
    /// "latency" is the gap between two deliveries and a long gap buys the
    /// next one short: gaps are not separately repeatable, only the lap is.
    pub coupled: bool,
}

impl Lap {
    /// Ops per second of this lap alone.
    pub fn rate(&self) -> f64 {
        self.lat_ms.len() as f64 / self.wall_s
    }
}

/// The lap-derived end-to-end metrics.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LapSummary {
    pub frames_per_s: f64,
    pub frame_ms_p50: f64,
    pub frame_ms_p90: f64,
    pub cpu_ms_per_frame: f64,
    /// Share of the median lap's wall time that the undisturbed lap does
    /// not need — how much the neighbours (or the program's own jitter)
    /// added. Printed, not gated.
    pub disturbance: f64,
}

/// Wall time of a lap given its op latencies: the slowest client's sum.
fn lap_wall_ms(lat_ms: &[f64], streams: usize) -> f64 {
    lat_ms
        .chunks(lat_ms.len() / streams)
        .map(|client| client.iter().sum::<f64>())
        .fold(0.0, f64::max)
}

/// Summarizes laps over the same op list on their undisturbed lap — op by
/// op the fastest latency of any lap, or, when the ops are coupled, the
/// fastest lap as a whole. CPU per frame is that of the cheapest lap (CPU
/// time is only known per lap).
///
/// # Panics
/// Panics if the laps are empty or differ in shape.
pub fn summarize(laps: &[Lap]) -> LapSummary {
    let (ops, streams, coupled) = (laps[0].lat_ms.len(), laps[0].streams, laps[0].coupled);
    assert!(laps
        .iter()
        .all(|l| (l.lat_ms.len(), l.streams, l.coupled) == (ops, streams, coupled)));
    let undisturbed: Vec<f64> = if coupled {
        laps.iter()
            .min_by(|a, b| a.wall_s.total_cmp(&b.wall_s))
            .expect("at least one lap")
            .lat_ms
            .clone()
    } else {
        (0..ops)
            .map(|i| {
                laps.iter()
                    .map(|l| l.lat_ms[i])
                    .fold(f64::INFINITY, f64::min)
            })
            .collect()
    };
    let wall_ms = lap_wall_ms(&undisturbed, streams);
    let typical_ms = median(
        &laps
            .iter()
            .map(|l| lap_wall_ms(&l.lat_ms, streams))
            .collect::<Vec<_>>(),
    );
    LapSummary {
        frames_per_s: ops as f64 / wall_ms * 1e3,
        frame_ms_p50: percentile(&undisturbed, 0.5),
        frame_ms_p90: percentile(&undisturbed, 0.9),
        cpu_ms_per_frame: laps
            .iter()
            .map(|l| l.cpu_ms / ops as f64)
            .fold(f64::INFINITY, f64::min),
        disturbance: 1.0 - wall_ms / typical_ms,
    }
}

/// Whether to start another lap: always at least two (the per-op minimum
/// needs a second opinion),
/// then only while the next lap is expected to end within half a lap of the
/// `--seconds` budget. Laps are never cut short — the lap size is what makes
/// p90 meaningful.
pub fn another_lap(done: usize, elapsed_s: f64, last_lap_s: f64, budget_s: f64) -> bool {
    done < 2 || elapsed_s + 0.5 * last_lap_s <= budget_s
}

/// Relative gap `|a − b| / min(|a|, |b|)` used by the agreement check.
pub fn rel_gap(a: f64, b: f64) -> f64 {
    let base = a.abs().min(b.abs());
    if base == 0.0 {
        return if a == b { 0.0 } else { f64::INFINITY };
    }
    (a - b).abs() / base
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_odd_even_and_unsorted() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[7.0]), 7.0);
    }

    #[test]
    fn percentile_indices_at_lap_size() {
        assert_eq!(percentile_index(100, 0.5), 49);
        assert_eq!(percentile_index(100, 0.9), 89);
        // p90 of a 100-op lap leaves exactly ten samples beyond it.
        assert_eq!(100 - 1 - percentile_index(100, 0.9), 10);
        assert_eq!(percentile_index(400, 0.9), 359);
        assert_eq!(percentile_index(1, 0.9), 0);
        assert_eq!(percentile_index(10, 1.0), 9);
        assert_eq!(percentile_index(10, 0.0), 0);
    }

    #[test]
    fn percentile_picks_nearest_rank() {
        let v: Vec<f64> = (1..=100).rev().map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.9), 90.0);
    }

    fn lap(lat_ms: Vec<f64>, streams: usize, cpu_ms: f64) -> Lap {
        Lap {
            wall_s: lap_wall_ms(&lat_ms, streams) / 1e3,
            cpu_ms,
            lat_ms,
            streams,
            coupled: false,
        }
    }

    #[test]
    fn bursts_in_different_laps_leave_the_summary_untouched() {
        let clean = vec![10.0; 100];
        // Each lap is hit by a 30-op burst, at a different place.
        let hit = |from: usize| {
            let mut l = clean.clone();
            l[from..from + 30].iter_mut().for_each(|ms| *ms = 40.0);
            l
        };
        let s = summarize(&[
            lap(hit(0), 1, 2300.0),
            lap(hit(50), 1, 2000.0),
            lap(hit(70), 1, 2600.0),
        ]);
        assert!((s.frames_per_s - 100.0).abs() < 1e-9);
        assert_eq!((s.frame_ms_p50, s.frame_ms_p90), (10.0, 10.0));
        assert!((s.cpu_ms_per_frame - 20.0).abs() < 1e-9, "cheapest lap");
        // 1000 ms undisturbed against 1900 ms laps.
        assert!((s.disturbance - 9.0 / 19.0).abs() < 1e-9);
    }

    #[test]
    fn a_slow_op_in_every_lap_stays_in_the_tail() {
        // Structure (here: every 8th op is a profile refresh) is not noise:
        // it repeats at the same op, so the minimum keeps it.
        let shape: Vec<f64> = (0..100)
            .map(|i| if i % 8 == 0 { 25.0 } else { 10.0 })
            .collect();
        let s = summarize(&[lap(shape.clone(), 1, 1.0), lap(shape, 1, 1.0)]);
        assert_eq!((s.frame_ms_p50, s.frame_ms_p90), (10.0, 25.0));
        assert_eq!(s.disturbance, 0.0);
    }

    #[test]
    fn coupled_laps_are_summarized_by_their_fastest_lap_as_a_whole() {
        // The same 60 ms delivered as (long, short) or (short, long) gaps:
        // mixing per-op minima would invent a 40 ms lap nobody ran.
        let coupled = |lat_ms| Lap {
            coupled: true,
            ..lap(lat_ms, 1, 1.0)
        };
        let s = summarize(&[coupled(vec![40.0, 20.0]), coupled(vec![20.0, 41.0])]);
        assert!((s.frames_per_s - 2.0 / 0.060).abs() < 1e-9);
        assert_eq!(s.frame_ms_p90, 40.0);
    }

    #[test]
    fn concurrent_clients_set_the_wall_by_the_slower_one() {
        // Two clients, 2 ops each: client 0 needs 30 ms, client 1 needs 50.
        let s = summarize(&[lap(vec![10.0, 20.0, 20.0, 30.0], 2, 1.0)]);
        assert!((s.frames_per_s - 4.0 / 0.050).abs() < 1e-9);
    }

    #[test]
    fn lap_budget_rule() {
        assert!(another_lap(0, 0.0, 0.0, 8.0));
        assert!(another_lap(1, 9.0, 9.0, 8.0), "always at least two laps");
        assert!(another_lap(2, 5.0, 2.5, 8.0));
        assert!(!another_lap(3, 7.8, 2.6, 8.0));
    }

    #[test]
    fn rel_gap_is_symmetric() {
        assert!((rel_gap(100.0, 110.0) - 0.1).abs() < 1e-12);
        assert_eq!(rel_gap(110.0, 100.0), rel_gap(100.0, 110.0));
        assert_eq!(rel_gap(0.0, 0.0), 0.0);
    }
}
