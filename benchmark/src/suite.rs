//! The multi-workload driver: every workload in a fresh child process, the
//! tables, and the two-set agreement check.

use crate::harness::Args;
use crate::metrics::{END_TO_END, WORKLOADS};
use crate::stats::rel_gap;
use shearwarp::telemetry::Json;
use std::process::{Command, ExitCode, Stdio};

/// A child's parsed result object.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// `(name, value, unit)` in print order.
    metrics: Vec<(String, f64, String)>,
    /// The child's own metric lines (they include what only it measures).
    printed: Vec<String>,
}

/// Runs one workload in a fresh process and parses its last stdout line.
fn run_child(args: &Args, workload: &str) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .arg("--out")
        .arg(&args.out_dir)
        .stdin(Stdio::null())
        .stderr(Stdio::inherit());
    if let Some(bin) = &args.shard_bin {
        cmd.arg("--shard-bin").arg(bin);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("spawning {workload}: {e}"))?;
    if !out.status.success() {
        return Err(format!("{workload} exited with {}", out.status));
    }
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().ok_or("no output")?;
    let printed = stdout
        .lines()
        .filter(|l| l.starts_with("  "))
        .map(String::from)
        .collect();
    let doc = Json::parse(last).map_err(|e| format!("{workload}: result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_obj)
        .ok_or("result has no metrics")?
        .iter()
        .map(|(name, m)| {
            (
                name.clone(),
                m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN),
                m.get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or("")
                    .to_string(),
            )
        })
        .collect();
    Ok(Outcome {
        correct: doc.get("correct").and_then(Json::as_bool) == Some(true),
        attempted: doc.get("attempted").and_then(Json::as_u64).unwrap_or(0),
        failed: doc.get("failed").and_then(Json::as_u64).unwrap_or(0),
        metrics,
        printed,
    })
}

/// One set: every workload once. Prints each workload's metrics by name
/// with units; `Err` if any workload failed to run or had a failed op.
fn run_set(args: &Args) -> Result<Vec<(&'static str, Outcome)>, String> {
    let mut set = Vec::new();
    let mut bad = Vec::new();
    for (name, _) in WORKLOADS {
        let out = run_child(args, name)?;
        let failed_frac = out.failed as f64 / out.attempted.max(1) as f64;
        println!(
            "{name}  (seed {}, {} ops checked against the serial renderer, failed_frac {failed_frac})",
            args.seed, out.attempted
        );
        for line in &out.printed {
            println!("{line}");
        }
        if !out.correct {
            bad.push(name);
        }
        set.push((name, out));
    }
    if bad.is_empty() {
        Ok(set)
    } else {
        Err(format!(
            "failed ops or broken layer assertions in: {}",
            bad.join(", ")
        ))
    }
}

/// `run.sh` / `run.sh --traced`.
pub fn all(args: &Args) -> ExitCode {
    println!(
        "env {}",
        crate::procfs::environment(crate::harness::THREADS)
    );
    match run_set(args) {
        Ok(_) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("swr-e2e: {e}");
            ExitCode::from(1)
        }
    }
}

/// The committed bound of every end-to-end metric, from `BENCHMARK.json`
/// in the current directory (the repository root).
fn bounds() -> Result<Vec<(String, f64)>, String> {
    let text = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("BENCHMARK.json (run from the repository root): {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end")?
        .iter()
        .map(|m| {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("metric without name")?;
            let bound = m
                .get("bound")
                .and_then(Json::as_f64)
                .ok_or("metric without bound")?;
            Ok((name.to_string(), bound))
        })
        .collect()
}

/// `run.sh --agree`: two full untraced sets back to back; the relative gap
/// of every (workload, end-to-end metric) pair goes to
/// `<out>/agreement.json` and must stay within the metric's bound.
pub fn agree(args: &Args) -> ExitCode {
    let run = || -> Result<bool, String> {
        let bounds = bounds()?;
        let args = Args {
            trace: false,
            ..args.clone()
        };
        println!("== set A");
        let a = run_set(&args)?;
        println!("== set B");
        let b = run_set(&args)?;
        let mut rows = Vec::new();
        let mut worst_ok = true;
        println!("== agreement (|A-B| / min, bound)");
        for ((workload, oa), (_, ob)) in a.iter().zip(&b) {
            for ((metric, va, unit), (_, vb, _)) in oa.metrics.iter().zip(&ob.metrics) {
                let bound = bounds
                    .iter()
                    .find(|(n, _)| n == metric)
                    .map(|(_, b)| *b)
                    .ok_or(format!("no bound for {metric}"))?;
                let gap = rel_gap(*va, *vb);
                let ok = gap <= bound;
                worst_ok &= ok;
                println!(
                    "  {workload:<22} {metric:<18} {va:>12.4} {vb:>12.4} {unit:<9} gap {gap:.4} bound {bound} {}",
                    if ok { "ok" } else { "EXCEEDED" }
                );
                rows.push(
                    Json::obj()
                        .with("workload", Json::Str((*workload).into()))
                        .with("metric", Json::Str(metric.clone()))
                        .with("a", Json::F64(*va))
                        .with("b", Json::F64(*vb))
                        .with("gap", Json::F64(gap))
                        .with("bound", Json::F64(bound))
                        .with("ok", Json::Bool(ok)),
                );
            }
        }
        debug_assert_eq!(rows.len(), WORKLOADS.len() * END_TO_END.len());
        let doc = Json::obj()
            .with("schema", Json::Str("swr-e2e-agreement/1".into()))
            .with("seed", Json::U64(args.seed))
            .with("seconds", Json::F64(args.seconds))
            .with("pairs", Json::Arr(rows));
        let path = args.out_dir.join("agreement.json");
        std::fs::create_dir_all(&args.out_dir)
            .and_then(|()| std::fs::write(&path, doc.to_string()))
            .map_err(|e| format!("writing {}: {e}", path.display()))?;
        println!("wrote {}", path.display());
        Ok(worst_ok)
    };
    match run() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("swr-e2e: two sets of the same code disagree beyond a bound");
            ExitCode::from(1)
        }
        Err(e) => {
            eprintln!("swr-e2e: {e}");
            ExitCode::from(1)
        }
    }
}
