//! `swr-e2e`: the paper-scale end-to-end benchmark with a per-layer ledger.
//!
//! With `--workload NAME` it runs one workload in this process and prints
//! the result object as its last line (the form the benchmark driver calls);
//! without, it runs every workload in a fresh child process each and prints
//! the tables (`--traced`: per-layer metrics; `--agree`: two sets and their
//! gaps). See `benchmark/README.md`.

mod harness;
mod metrics;
mod ops;
mod procfs;
mod span;
mod stats;
mod suite;
mod workloads;

use harness::{Args, THREADS};
use metrics::{END_TO_END, LOCAL, PER_LAYER};
use shearwarp::telemetry::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::Report;

const USAGE: &str = "usage: swr-e2e [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
               [--traced] [--agree] [--shard-bin PATH] [--out DIR]
  --workload NAME  run one workload here and print its result object last
                   (default: every workload, each in a fresh child process)
  --seed N         the only input to workload generation (default 42)
  --seconds S      timed seconds per run (default 8)
  --trace 0|1      0: end-to-end metrics, tracing off; 1: per-layer metrics
  --traced         all workloads with --trace 1
  --agree          two untraced sets back to back; fails on a gap > bound
  --shard-bin PATH the root build's swr-shard (run.sh passes it)
  --out DIR        where span files and agreement.json go (benchmark/out)";

/// Command line of the multi-workload driver plus the single-run [`Args`].
struct Cli {
    run: Args,
    single: bool,
    agree: bool,
}

fn parse_cli() -> Result<Cli, String> {
    let mut cli = Cli {
        run: Args {
            workload: String::new(),
            seed: 42,
            seconds: 8.0,
            trace: false,
            shard_bin: None,
            out_dir: PathBuf::from("benchmark/out"),
            shrink: 1,
        },
        single: false,
        agree: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => {
                cli.run.workload = value()?;
                cli.single = true;
            }
            "--seed" => cli.run.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                cli.run.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(cli.run.seconds > 0.0 && cli.run.seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".into());
                }
            }
            "--trace" => {
                cli.run.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace wants 0 or 1, got {other:?}")),
                }
            }
            "--traced" => cli.run.trace = true,
            "--agree" => cli.agree = true,
            "--shard-bin" => cli.run.shard_bin = Some(PathBuf::from(value()?)),
            "--out" => cli.run.out_dir = PathBuf::from(value()?),
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(cli)
}

/// `(name, unit, value)` of every metric the run reports to the driver:
/// the end-to-end metrics of an untraced run, or every [`PER_LAYER`] metric
/// of a traced one.
fn metric_rows(report: &Report) -> Vec<(&'static str, &'static str, f64)> {
    match report {
        Report::EndToEnd(e) => {
            let values = [
                e.laps.frames_per_s,
                e.laps.frame_ms_p50,
                e.laps.frame_ms_p90,
                e.setup_s,
                e.laps.cpu_ms_per_frame,
                e.peak_rss_mib,
            ];
            END_TO_END
                .iter()
                .zip(values)
                .map(|(&(name, unit), v)| (name, unit, v))
                .collect()
        }
        // A metric the run failed to measure is already a recorded problem
        // (`correct` is false); it still needs a number here.
        Report::Layers(l) => PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, l.get(name).unwrap_or(0.0)))
            .collect(),
    }
}

fn run_single(args: &Args) -> ExitCode {
    println!("env {}", procfs::environment(THREADS));
    let (report, check) = match workloads::run(args) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("swr-e2e: {}: {e}", args.workload);
            return ExitCode::from(1);
        }
    };
    for p in &check.problems {
        eprintln!("swr-e2e: {}: FAILED {p}", args.workload);
    }
    if let Report::EndToEnd(e) = &report {
        println!(
            "{}: seed {} ops {} failed {} frames/s per lap {:.2?} disturbance {:.3}",
            args.workload,
            args.seed,
            check.attempted,
            check.failed,
            e.lap_rates,
            e.laps.disturbance
        );
    }
    let mut metrics = Json::obj();
    for (name, unit, v) in metric_rows(&report) {
        println!("  {name:<32} {v:>14.4} {unit}");
        metrics.set(
            name,
            Json::obj()
                .with("value", Json::F64(v))
                .with("unit", Json::Str(unit.into())),
        );
    }
    if let Report::Layers(l) = &report {
        for (name, unit) in LOCAL {
            if let Some(v) = l.get(name) {
                println!("  {name:<32} {v:>14.4} {unit}  (this workload only)");
            }
        }
    }
    // The driver's result object: exactly these four keys, last on stdout.
    let result = Json::obj()
        .with(
            "correct",
            Json::Bool(check.failed == 0 && check.problems.is_empty()),
        )
        .with("attempted", Json::U64(check.attempted.max(1)))
        .with("failed", Json::U64(check.failed))
        .with("metrics", metrics);
    println!("{result}");
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let cli = match parse_cli() {
        Ok(c) => c,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("swr-e2e: {e}");
            }
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        }
    };
    if cli.single {
        run_single(&cli.run)
    } else if cli.agree {
        suite::agree(&cli.run)
    } else {
        suite::all(&cli.run)
    }
}
