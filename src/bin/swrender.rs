//! `swrender` — command-line shear-warp volume renderer.
//!
//! Renders synthetic phantoms or user-supplied volume files to PPM images,
//! with any of the three renderers (serial, old parallel, new parallel).
//!
//! ```text
//! swrender --phantom mri --base 128 --angle-y 30 -o brain.ppm
//! swrender --raw head.raw --dims 256,256,225 --transfer ct --algorithm new \
//!          --threads 8 --frames 24 --step 15 -o head_
//! ```

//! Exit codes: `0` success, `1` I/O failure, `2` usage / invalid arguments,
//! `3` render fault (worker panic, scheduler stall), `4` service/session
//! error (client mode: shed, blown deadline, failed session).

use shearwarp::memsim::Platform;
use shearwarp::prelude::*;
use shearwarp::volume::io::{try_load_raw, try_load_volume};

#[derive(Clone, Copy, PartialEq)]
enum Algorithm {
    Serial,
    Old,
    New,
}

struct Cli {
    phantom: Option<Phantom>,
    base: usize,
    seed: u64,
    input: Option<String>,
    raw: Option<String>,
    dims: Option<[usize; 3]>,
    transfer: String,
    angle_x: f64,
    angle_y: f64,
    zoom: f64,
    perspective: Option<f64>,
    depth_cue: Option<f32>,
    algorithm: Algorithm,
    layout: String,
    brick: usize,
    resident_mb: Option<u64>,
    pin: Option<Placement>,
    threads: usize,
    shards: Option<usize>,
    shard_transport: Option<String>,
    shard_kill: Option<usize>,
    shard_crosscheck: Option<String>,
    watchdog_ms: Option<u64>,
    frames: usize,
    step: f64,
    animate: Option<usize>,
    no_pipeline: bool,
    output: String,
    metrics: Option<String>,
    trace: Option<String>,
    breakdown: bool,
    simulate: Option<Platform>,
    connect: Option<String>,
    deadline_ms: Option<u64>,
    fault_json: Option<String>,
    stats_json: Option<String>,
    watch: bool,
    watch_interval_ms: u64,
    watch_iters: Option<u64>,
}

impl Default for Cli {
    fn default() -> Self {
        Cli {
            phantom: Some(Phantom::MriBrain),
            base: 96,
            seed: 42,
            input: None,
            raw: None,
            dims: None,
            transfer: "mri".into(),
            angle_x: 15.0,
            angle_y: 30.0,
            zoom: 1.0,
            perspective: None,
            depth_cue: None,
            algorithm: Algorithm::New,
            layout: "flat".into(),
            brick: DEFAULT_BRICK_EXTENT,
            resident_mb: None,
            pin: None,
            threads: 4,
            shards: None,
            shard_transport: None,
            shard_kill: None,
            shard_crosscheck: None,
            watchdog_ms: None,
            frames: 1,
            step: 3.0,
            animate: None,
            no_pipeline: false,
            output: "render.ppm".into(),
            metrics: None,
            trace: None,
            breakdown: false,
            simulate: None,
            connect: None,
            deadline_ms: None,
            fault_json: None,
            stats_json: None,
            watch: false,
            watch_interval_ms: 1000,
            watch_iters: None,
        }
    }
}

impl Cli {
    /// Parallel-renderer configuration with the watchdog override applied
    /// (`--watchdog-ms`, falling back to `SWR_WATCHDOG_MS`; `0` disables).
    fn pcfg(&self) -> ParallelConfig {
        let mut cfg = ParallelConfig::with_procs(self.threads);
        if let Some(ms) = self.watchdog_ms {
            cfg.watchdog_timeout = if ms == 0 {
                None
            } else {
                Some(std::time::Duration::from_millis(ms))
            };
        }
        if let Some(pin) = self.pin {
            cfg.placement = pin;
        }
        cfg
    }
}

fn usage() -> ! {
    eprintln!(
        "swrender — shear-warp volume renderer

input (choose one):
  --phantom mri|ct|ellipsoid   synthetic dataset (default: mri)
  --base N                     phantom base resolution (default 96)
  --seed S                     phantom seed (default 42)
  --input FILE.svol            native volume file
  --raw FILE --dims X,Y,Z      headerless raw u8 volume

rendering:
  --transfer mri|ct|opaque     classification preset (default mri)
  --angle-x D  --angle-y D     view angles in degrees
  --zoom Z                     zoom factor
  --perspective D              perspective projection, eye D voxels from center
  --depth-cue F                depth cueing, F fractional attenuation per slice
  --algorithm serial|old|new   renderer (default new)
  --threads T                  worker threads for parallel renderers
  --pin none|compact|scatter   pin workers to CPUs (default: SWR_PIN env or
                               none; no-op off Linux or when unprivileged)

multi-process rendering:
  --shards N                   render through N separate swr-shard worker
                               processes: each owns a contiguous band of the
                               intermediate image, halo scanlines are routed
                               through the coordinator, and warped spans
                               merge into a final image bit-identical to the
                               in-process renderers (synthetic phantoms only)
  --transport shm|socket       coordinator<->worker byte transport (default
                               shm: shared-memory rings on Linux; socket:
                               Unix-domain sockets, portable + traceable)
  --shard-kill K               chaos: SIGKILL shard K after its first tile
                               of the frame arrives (exercises the repair
                               ladder; output stays bit-identical)
  --shard-crosscheck PATH      also replay the frame's task traces on the
                               paper's page-based SVM model and write a JSON
                               report comparing predicted page traffic
                               (faults + diffs x 4096 B) against measured
                               tile traffic (tiles_routed, bytes_moved)

memory layout:
  --layout flat|bricked        RLE storage layout (default flat); bricked
                               splits each per-axis RLE into BxBxB bricks
                               with per-brick opacity bounds (bit-identical
                               output, better locality + brick skipping)
  --brick B                    brick edge length in voxels (default 32)
  --resident-mb N              stream bricks from a spill file through a
                               clock cache holding at most N MiB resident
                               (implies --layout bricked); prints cache
                               hit/miss/eviction stats after rendering
  --watchdog-ms MS             scheduler stall watchdog for the parallel
                               renderers (0 disables; env SWR_WATCHDOG_MS;
                               default 10000)
  --frames N --step D          rotation animation (N frames, D deg/frame),
                               rendered one frame at a time
  --animate N                  render an N-frame rotation animation on the
                               multi-frame pipeline: persistent worker pool,
                               two frames in flight, in-order delivery
                               (requires --algorithm new)
  --no-pipeline                with --animate: render the same N frames
                               through the per-frame new renderer instead
                               (the non-overlapped contrast case)
  -o, --output PATH            output PPM (prefix when rendering > 1 frame)

telemetry:
  --metrics PATH               write per-frame metrics + totals JSON
  --trace PATH                 write Chrome/Perfetto trace-event JSON
                               (load at https://ui.perfetto.dev)
  --breakdown                  print the per-worker busy/stall/sync table
  --simulate challenge|dash|dsm|origin
                               replay the frame's task traces on a simulated
                               machine instead of rendering natively; spans
                               are in virtual cycles, no PPM is written
                               (requires --algorithm old|new)

render service (client mode):
  --connect HOST:PORT          render through a running swr-serve daemon
                               instead of locally: opens a session for the
                               configured phantom and renders --frames
                               frames remotely (writes PPMs, prints one
                               `frame N quality=... hash=...` line each)
  --deadline-ms MS             per-request deadline sent with the render
  --fault-json JSON            chaos: attach a fault object to the render
                               request, e.g. '{{\"panic_at_task\":1}}'
                               (see crates/serve protocol docs)
  --stats-json PATH            also request the server's stats + metrics and
                               write both replies to PATH as one JSON
                               document (machine-readable ops snapshot)
  --watch                      live view instead of rendering: poll the
                               metrics op and redraw a per-session /
                               per-worker utilization and quality-ladder
                               table until interrupted
  --watch-interval-ms MS       polling period for --watch (default 1000)
  --watch-iters N              stop --watch after N polls (testing/scripts;
                               default: run until interrupted)"
    );
    std::process::exit(2)
}

/// Takes `name`'s value and parses it as a number; a malformed one is
/// reported with the flag and the offending text.
fn num<T: std::str::FromStr>(name: &str, val: &mut impl FnMut(&str) -> String) -> T {
    let raw = val(name);
    raw.parse().unwrap_or_else(|_| {
        eprintln!("{name} expects a number, got {raw:?}");
        usage()
    })
}

fn parse() -> Cli {
    let mut cli = Cli::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = |name: &str| -> String {
            it.next().unwrap_or_else(|| {
                eprintln!("flag {name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--phantom" => {
                cli.phantom = Some(match val("--phantom").as_str() {
                    "mri" => Phantom::MriBrain,
                    "ct" => Phantom::CtHead,
                    "ellipsoid" => Phantom::SolidEllipsoid,
                    other => {
                        eprintln!("unknown phantom {other}");
                        usage()
                    }
                })
            }
            "--base" => {
                cli.base = num("--base", &mut val);
                if cli.base == 0 {
                    eprintln!("--base must be >= 1");
                    usage()
                }
            }
            "--seed" => cli.seed = num("--seed", &mut val),
            "--input" => {
                cli.input = Some(val("--input"));
                cli.phantom = None;
            }
            "--raw" => {
                cli.raw = Some(val("--raw"));
                cli.phantom = None;
            }
            "--dims" => {
                let v: Vec<usize> = val("--dims")
                    .split(',')
                    .map(|s| s.trim().parse().unwrap_or_else(|_| usage()))
                    .collect();
                if v.len() != 3 {
                    usage()
                }
                if v.contains(&0) {
                    eprintln!("--dims must all be >= 1, got {},{},{}", v[0], v[1], v[2]);
                    usage()
                }
                cli.dims = Some([v[0], v[1], v[2]]);
            }
            "--transfer" => cli.transfer = val("--transfer"),
            "--angle-x" => cli.angle_x = num("--angle-x", &mut val),
            "--angle-y" => cli.angle_y = num("--angle-y", &mut val),
            "--zoom" => cli.zoom = num("--zoom", &mut val),
            "--perspective" => cli.perspective = Some(num("--perspective", &mut val)),
            "--depth-cue" => cli.depth_cue = Some(num("--depth-cue", &mut val)),
            "--algorithm" => {
                cli.algorithm = match val("--algorithm").as_str() {
                    "serial" => Algorithm::Serial,
                    "old" => Algorithm::Old,
                    "new" => Algorithm::New,
                    other => {
                        eprintln!("unknown algorithm {other} (want serial|old|new)");
                        usage()
                    }
                }
            }
            "--layout" => {
                cli.layout = val("--layout");
                if cli.layout != "flat" && cli.layout != "bricked" {
                    eprintln!("--layout must be flat or bricked, got {}", cli.layout);
                    usage()
                }
            }
            "--brick" => {
                cli.brick = num("--brick", &mut val);
                if cli.brick == 0 {
                    eprintln!("--brick must be >= 1");
                    usage()
                }
            }
            "--resident-mb" => {
                let mb: u64 = num("--resident-mb", &mut val);
                if mb == 0 {
                    eprintln!("--resident-mb must be >= 1");
                    usage()
                }
                cli.resident_mb = Some(mb);
                cli.layout = "bricked".into();
            }
            "--pin" => {
                let raw = val("--pin");
                cli.pin = Some(raw.parse().unwrap_or_else(|_| {
                    eprintln!("--pin must be none, compact, or scatter, got {raw}");
                    usage()
                }))
            }
            "--threads" => {
                cli.threads = num("--threads", &mut val);
                if cli.threads == 0 {
                    eprintln!("--threads must be >= 1");
                    usage()
                }
            }
            "--shards" => {
                cli.shards = Some(num("--shards", &mut val));
                if cli.shards == Some(0) {
                    eprintln!("--shards must be >= 1");
                    usage()
                }
            }
            "--transport" => cli.shard_transport = Some(val("--transport")),
            "--shard-kill" => cli.shard_kill = Some(num("--shard-kill", &mut val)),
            "--shard-crosscheck" => cli.shard_crosscheck = Some(val("--shard-crosscheck")),
            "--watchdog-ms" => cli.watchdog_ms = Some(num("--watchdog-ms", &mut val)),
            "--frames" => {
                cli.frames = num("--frames", &mut val);
                if cli.frames == 0 {
                    eprintln!("--frames must be >= 1");
                    usage()
                }
            }
            "--step" => cli.step = num("--step", &mut val),
            "--animate" => {
                let n: usize = num("--animate", &mut val);
                if n == 0 {
                    eprintln!("--animate must be >= 1");
                    usage()
                }
                cli.animate = Some(n);
            }
            "--no-pipeline" => cli.no_pipeline = true,
            "--metrics" => cli.metrics = Some(val("--metrics")),
            "--trace" => cli.trace = Some(val("--trace")),
            "--breakdown" => cli.breakdown = true,
            "--simulate" => {
                cli.simulate = Some(match val("--simulate").as_str() {
                    "challenge" => Platform::challenge(),
                    "dash" => Platform::dash(),
                    "dsm" => Platform::ideal_dsm(),
                    "origin" => Platform::origin2000(),
                    other => {
                        eprintln!("unknown platform {other} (want challenge|dash|dsm|origin)");
                        usage()
                    }
                })
            }
            "--connect" => cli.connect = Some(val("--connect")),
            "--deadline-ms" => cli.deadline_ms = Some(num("--deadline-ms", &mut val)),
            "--fault-json" => cli.fault_json = Some(val("--fault-json")),
            "--stats-json" => cli.stats_json = Some(val("--stats-json")),
            "--watch" => cli.watch = true,
            "--watch-interval-ms" => cli.watch_interval_ms = num("--watch-interval-ms", &mut val),
            "--watch-iters" => cli.watch_iters = Some(num("--watch-iters", &mut val)),
            "-o" | "--output" => cli.output = val("--output"),
            "-h" | "--help" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    if cli.watchdog_ms.is_none() {
        if let Ok(ms) = std::env::var("SWR_WATCHDOG_MS") {
            match ms.parse::<u64>() {
                Ok(v) => cli.watchdog_ms = Some(v),
                Err(_) => {
                    eprintln!("SWR_WATCHDOG_MS must be an integer, got {ms:?}");
                    usage()
                }
            }
        }
    }
    cli
}

/// Client mode (`--connect`): renders through a running `swr-serve` daemon
/// over the `swr-serve/1` line-delimited JSON protocol instead of locally.
/// Writes the received frames as PPMs and prints one
/// `frame N quality=... hash=...` line per frame on stdout. Exits with the
/// class of the worst error response received (the same exit-code table as
/// local rendering: 1 I/O, 2 usage, 3 render fault, 4 service error).
fn run_client(cli: &Cli, addr: &str) -> ! {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;
    use swr_error::wire_exit_code;

    let die = |msg: String, code: i32| -> ! {
        eprintln!("swrender: {msg}");
        std::process::exit(code)
    };
    if cli.watch {
        run_watch(cli, addr);
    }
    if cli.input.is_some() || cli.raw.is_some() {
        die(
            "--connect renders server-side phantoms; --input/--raw are local-only".into(),
            2,
        );
    }
    let phantom = match cli.phantom {
        Some(Phantom::MriBrain) => "mri",
        Some(Phantom::CtHead) => "ct",
        Some(Phantom::SolidEllipsoid) => "ellipsoid",
        None => "mri",
    };
    let fault = cli.fault_json.as_ref().map(|raw| {
        Json::parse(raw).unwrap_or_else(|e| {
            eprintln!("--fault-json is not valid JSON: {e}");
            usage()
        })
    });

    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| die(format!("cannot connect to {addr}: {e}"), 1));
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(120)))
        .unwrap_or_else(|e| die(format!("socket setup failed: {e}"), 1));
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .unwrap_or_else(|e| die(format!("socket setup failed: {e}"), 1)),
    );
    let mut tx = stream;
    let mut send = |doc: &Json| {
        let mut line = doc.to_string();
        line.push('\n');
        tx.write_all(line.as_bytes())
            .unwrap_or_else(|e| die(format!("send failed: {e}"), 1));
    };
    let mut recv = || -> Json {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => die("server closed the connection".into(), 4),
            Ok(_) => {}
            Err(e) => die(format!("receive failed: {e}"), 1),
        }
        Json::parse(line.trim()).unwrap_or_else(|e| die(format!("malformed response line: {e}"), 4))
    };

    let mut hello = Json::obj()
        .with("op", Json::Str("hello".into()))
        .with("phantom", Json::Str(phantom.into()))
        .with("base", Json::U64(cli.base as u64))
        .with("seed", Json::U64(cli.seed))
        .with("transfer", Json::Str(cli.transfer.clone()))
        .with("threads", Json::U64(cli.threads as u64));
    if cli.layout != "flat" {
        hello.set("layout", Json::Str(cli.layout.clone()));
        hello.set("brick", Json::U64(cli.brick as u64));
    }
    if let Some(mb) = cli.resident_mb {
        hello.set("resident_mb", Json::U64(mb));
    }
    send(&hello);
    let hello = recv();
    if hello.get("ok").and_then(Json::as_bool) != Some(true) {
        let code = hello
            .get("code")
            .and_then(Json::as_str)
            .unwrap_or("protocol");
        let msg = hello
            .get("error")
            .and_then(Json::as_str)
            .unwrap_or("hello refused");
        die(
            format!("server error [{code}]: {msg}"),
            wire_exit_code(code),
        );
    }
    eprintln!(
        "session {} open on {addr} ({} threads granted)",
        hello.get("session").and_then(Json::as_u64).unwrap_or(0),
        hello.get("threads").and_then(Json::as_u64).unwrap_or(0),
    );

    let frames = cli.frames.max(1);
    let mut render = Json::obj()
        .with("op", Json::Str("render".into()))
        .with("id", Json::U64(1))
        .with("angle_x", Json::F64(cli.angle_x))
        .with("angle_y", Json::F64(cli.angle_y))
        .with("zoom", Json::F64(cli.zoom))
        .with("frames", Json::U64(frames as u64))
        .with("step", Json::F64(cli.step))
        .with("want_pixels", Json::Bool(true));
    if let Some(ms) = cli.deadline_ms {
        render.set("deadline_ms", Json::U64(ms));
    }
    if let Some(f) = fault {
        render.set("fault", f);
    }
    send(&render);
    if cli.stats_json.is_some() {
        // The queue is FIFO, so these answer after the render frames.
        send(&Json::obj().with("op", Json::Str("stats".into())));
        send(&Json::obj().with("op", Json::Str("metrics".into())));
    }
    // Responses stream back in order; `bye` marks the end of ours.
    send(&Json::obj().with("op", Json::Str("bye".into())));

    let mut worst = 0;
    let mut stats_doc: Option<Json> = None;
    let mut metrics_doc: Option<Json> = None;
    loop {
        let resp = recv();
        match resp.get("type").and_then(Json::as_str) {
            Some("frame") => {
                let n = resp.get("frame").and_then(Json::as_u64).unwrap_or(0);
                let quality = resp.get("quality").and_then(Json::as_str).unwrap_or("?");
                let attempts = resp.get("attempts").and_then(Json::as_u64).unwrap_or(1);
                let hash = resp.get("hash").and_then(Json::as_str).unwrap_or("?");
                if let Some(img) = decode_frame(&resp) {
                    let path = if frames > 1 {
                        format!("{}{n:04}.ppm", cli.output.trim_end_matches(".ppm"))
                    } else {
                        cli.output.clone()
                    };
                    std::fs::write(&path, img.to_ppm())
                        .unwrap_or_else(|e| die(format!("cannot write {path}: {e}"), 1));
                    eprintln!("frame {n}: {}x{} -> {path}", img.width(), img.height());
                }
                println!("frame {n} quality={quality} attempts={attempts} hash={hash}");
            }
            Some("error") => {
                let code = resp
                    .get("code")
                    .and_then(Json::as_str)
                    .unwrap_or("protocol");
                let msg = resp
                    .get("error")
                    .and_then(Json::as_str)
                    .unwrap_or("unknown");
                eprintln!("swrender: server error [{code}]: {msg}");
                worst = worst.max(wire_exit_code(code));
            }
            Some("stats") => stats_doc = Some(resp),
            Some("metrics") => metrics_doc = Some(resp),
            Some("bye") => break,
            other => die(format!("unexpected response type {other:?}"), 4),
        }
    }
    if let Some(path) = &cli.stats_json {
        let mut doc = Json::obj().with("server", Json::Str(addr.into()));
        if let Some(s) = stats_doc {
            doc.set("stats", s.get("metrics").cloned().unwrap_or_else(Json::obj));
        }
        if let Some(m) = metrics_doc {
            doc.set(
                "content_type",
                m.get("content_type").cloned().unwrap_or(Json::Null),
            );
            doc.set(
                "exposition",
                m.get("exposition").cloned().unwrap_or(Json::Null),
            );
        }
        std::fs::write(path, format!("{doc}\n"))
            .unwrap_or_else(|e| die(format!("cannot write {path}: {e}"), 1));
        eprintln!("stats -> {path}");
    }
    std::process::exit(worst)
}

/// `--connect --watch`: polls the `metrics` op and redraws a compact
/// operational table — sessions, budget, rolling frame-latency quantiles,
/// the quality ladder, per-worker utilization, and per-session degradation
/// levels — parsed client-side from the Prometheus exposition text.
fn run_watch(cli: &Cli, addr: &str) -> ! {
    use std::io::{BufRead, BufReader, Write};
    use std::net::TcpStream;

    let die = |msg: String, code: i32| -> ! {
        eprintln!("swrender: {msg}");
        std::process::exit(code)
    };
    let stream = TcpStream::connect(addr)
        .unwrap_or_else(|e| die(format!("cannot connect to {addr}: {e}"), 1));
    stream
        .set_read_timeout(Some(std::time::Duration::from_secs(30)))
        .unwrap_or_else(|e| die(format!("socket setup failed: {e}"), 1));
    let mut reader = BufReader::new(
        stream
            .try_clone()
            .unwrap_or_else(|e| die(format!("socket setup failed: {e}"), 1)),
    );
    let mut tx = stream;
    let mut scrape = 0u64;
    loop {
        scrape += 1;
        let mut line = r#"{"op":"metrics"}"#.to_string();
        line.push('\n');
        tx.write_all(line.as_bytes())
            .unwrap_or_else(|e| die(format!("send failed: {e}"), 1));
        let mut resp_line = String::new();
        match reader.read_line(&mut resp_line) {
            Ok(0) => die("server closed the connection".into(), 4),
            Ok(_) => {}
            Err(e) => die(format!("receive failed: {e}"), 1),
        }
        let resp = Json::parse(resp_line.trim())
            .unwrap_or_else(|e| die(format!("malformed response line: {e}"), 4));
        if resp.get("type").and_then(Json::as_str) != Some("metrics") {
            die(format!("unexpected response to metrics op: {resp}"), 4);
        }
        let expo = resp.get("exposition").and_then(Json::as_str).unwrap_or("");
        let samples = parse_exposition_samples(expo);
        if cli.watch_iters.is_none() {
            // Interactive refresh: clear and repaint. With --watch-iters
            // (scripts, tests) emit plain appended blocks instead.
            print!("\x1b[2J\x1b[H");
        }
        print_watch_table(addr, scrape, &samples);
        let _ = std::io::stdout().flush();
        if let Some(n) = cli.watch_iters {
            if scrape >= n {
                break;
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(
            cli.watch_interval_ms.max(10),
        ));
    }
    let _ = tx.write_all(b"{\"op\":\"bye\"}\n");
    std::process::exit(0)
}

/// Flattens exposition text into `(sample_name_with_labels, value)` pairs.
fn parse_exposition_samples(text: &str) -> Vec<(String, f64)> {
    text.lines()
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .filter_map(|l| {
            let (name, val) = l.rsplit_once(' ')?;
            let v = if val == "+Inf" {
                f64::INFINITY
            } else {
                val.parse().ok()?
            };
            Some((name.to_string(), v))
        })
        .collect()
}

fn print_watch_table(addr: &str, scrape: u64, samples: &[(String, f64)]) {
    let g = |name: &str| -> f64 {
        samples
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
            .unwrap_or(0.0)
    };
    println!("swr-serve @ {addr} — scrape #{scrape}");
    println!(
        "  sessions {:.0} (degraded {:.0})   budget {:.0}/{:.0}   frames {:.0}   errors {:.0}   shed {:.0}",
        g("swr_serve_sessions"),
        g("swr_serve_degraded"),
        g("swr_serve_budget_in_use"),
        g("swr_serve_budget_total"),
        g("swr_serve_frames_total"),
        g("swr_serve_errors_total"),
        g("swr_serve_shed_total"),
    );
    println!(
        "  frame latency ms (window): p50 {:.0} / p95 {:.0} / p99 {:.0}   queue wait p95 {:.0}   steals p95 {:.0}",
        g("swr_serve_frame_latency_ms_window{quantile=\"0.5\"}"),
        g("swr_serve_frame_latency_ms_window{quantile=\"0.95\"}"),
        g("swr_serve_frame_latency_ms_window{quantile=\"0.99\"}"),
        g("swr_serve_queue_wait_ms_window{quantile=\"0.95\"}"),
        g("swr_serve_frame_steals_window{quantile=\"0.95\"}"),
    );
    println!(
        "  quality ladder: full {:.0}  repaired {:.0}  reduced {:.0}  serial {:.0}   retries {:.0}  fallbacks {:.0}  flight dumps {:.0}",
        g("swr_serve_quality_full_total"),
        g("swr_serve_quality_repaired_total"),
        g("swr_serve_quality_reduced_total"),
        g("swr_serve_quality_serial_total"),
        g("swr_serve_retries_total"),
        g("swr_serve_serial_fallbacks_total"),
        g("swr_serve_flight_dumps_total"),
    );
    let utils: Vec<String> = samples
        .iter()
        .filter_map(|(n, v)| {
            let w = n.strip_prefix("swr_serve_util_")?;
            Some(format!("{w} {v:.0}%"))
        })
        .collect();
    if !utils.is_empty() {
        println!("  worker util: {}", utils.join("  "));
    }
    let levels: Vec<String> = samples
        .iter()
        .filter_map(|(n, v)| {
            let id = n
                .strip_prefix("swr_serve_session_")?
                .strip_suffix("_level")?;
            let level = match *v as u64 {
                0 => "full",
                1 => "reduced",
                _ => "serial_only",
            };
            Some(format!("s{id}={level}"))
        })
        .collect();
    if !levels.is_empty() {
        println!("  session levels: {}", levels.join("  "));
    }
}

/// `--shards N`: renders through N separate `swr-shard` worker processes.
/// Each worker owns a contiguous band of the intermediate image; halo
/// scanlines route through the coordinator and the warped spans merge into
/// a final image bit-identical to the in-process renderers. Publishes the
/// hub's traffic counters (`shard.tiles_routed`, `shard.bytes_moved`,
/// `shard.ring_full_spins`) and optionally cross-checks the measured tile
/// traffic against the paper's page-based SVM model (`--shard-crosscheck`).
fn run_sharded(cli: &Cli) -> ! {
    let die = |msg: String| -> ! {
        eprintln!("swrender: {msg}");
        std::process::exit(2)
    };
    let fail = |e: Error| -> ! {
        eprintln!("swrender: {e}");
        std::process::exit(e.exit_code())
    };
    let shards = cli.shards.expect("dispatched on --shards");
    if cli.input.is_some() || cli.raw.is_some() {
        die("--shards renders synthetic phantoms only (workers regenerate the volume from phantom+seed)".into());
    }
    if cli.simulate.is_some() || cli.animate.is_some() {
        die("--shards cannot be combined with --simulate/--animate".into());
    }
    if cli.layout != "flat" || cli.resident_mb.is_some() {
        die("--shards composites from the flat RLE layout only".into());
    }
    if cli.depth_cue.is_some() {
        die(
            "--shards workers composite with default options; --depth-cue is single-process only"
                .into(),
        );
    }
    if let Some(k) = cli.shard_kill {
        if k >= shards {
            die(format!(
                "--shard-kill {k} is out of range for {shards} shards"
            ));
        }
    }
    let ph = cli.phantom.expect("default phantom");
    let phantom = match ph {
        Phantom::MriBrain => "mri",
        Phantom::CtHead => "ct",
        Phantom::SolidEllipsoid => "ellipsoid",
    };
    let scene = SceneSpec {
        phantom: phantom.into(),
        base: cli.base,
        seed: cli.seed,
        transfer: cli.transfer.clone(),
    };
    let transport = match cli.shard_transport.as_deref() {
        Some(s) => ShardTransport::parse(s).unwrap_or_else(|e| fail(e)),
        None => ShardTransport::default(),
    };
    let tname = match transport {
        ShardTransport::Shm => "shm",
        ShardTransport::Socket => "socket",
    };
    let cfg = ShardConfig {
        shards,
        transport,
        kill_shard: cli.shard_kill,
        ..ShardConfig::default()
    };

    eprintln!("spawning {shards} swr-shard workers ({tname} transport)...");
    let mut renderer = ShardedRenderer::try_new(&scene, cfg).unwrap_or_else(|e| fail(e));

    let dims = ph.paper_dims(cli.base);
    let view_at = |frame: usize| {
        let ay = cli.angle_y + frame as f64 * cli.step;
        let mut view = ViewSpec::new(dims)
            .rotate_x(cli.angle_x.to_radians())
            .rotate_y(ay.to_radians())
            .with_zoom(cli.zoom);
        if let Some(d) = cli.perspective {
            view = view.with_perspective(d);
        }
        (view, ay)
    };

    let frames = cli.frames.max(1);
    let mut reg = MetricsRegistry::new();
    for frame in 0..frames {
        let (view, ay) = view_at(frame);
        let t = std::time::Instant::now();
        let image = renderer.try_render(&view).unwrap_or_else(|e| fail(e));
        let stats = renderer.last_stats.clone();
        reg.inc("shard.frames", 1);
        reg.inc("shard.tiles_routed", stats.tiles_routed);
        reg.inc("shard.bytes_moved", stats.bytes_moved);
        reg.inc("shard.ring_full_spins", stats.ring_full_spins);
        reg.inc("shard.stale_tiles", stats.stale_tiles);
        reg.inc("shard.repaired_bands", stats.repaired_shards.len() as u64);
        if stats.fallback_serial {
            reg.inc("shard.serial_fallbacks", 1);
        }
        let quality = if stats.fallback_serial {
            "serial-fallback".to_string()
        } else if !stats.repaired_shards.is_empty() {
            format!("repaired shards {:?}", stats.repaired_shards)
        } else {
            "full".to_string()
        };
        let path = if frames > 1 {
            format!("{}{frame:04}.ppm", cli.output.trim_end_matches(".ppm"))
        } else {
            cli.output.clone()
        };
        std::fs::write(&path, image.to_ppm()).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        });
        eprintln!(
            "frame {frame} @ {ay:.1}°: {}x{} in {:.1} ms -> {path}  \
             (tiles {} bytes {} spins {} quality {quality})",
            image.width(),
            image.height(),
            t.elapsed().as_secs_f64() * 1e3,
            stats.tiles_routed,
            stats.bytes_moved,
            stats.ring_full_spins,
        );
    }
    reg.set_gauge("shard.alive", renderer.alive() as f64);
    drop(renderer); // orderly Shutdown broadcast + child reaping

    if let Some(path) = &cli.metrics {
        let doc = metrics_json(&reg);
        std::fs::write(path, format!("{doc}\n")).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        });
        eprintln!("metrics -> {path}");
    }

    // The cross-check: the same frame, partitioned the same way, replayed on
    // the paper's page-based SVM machine. Page faults + diffs × 4 KB is what
    // a page-granular shared address space would move for this communication
    // pattern; the tile protocol's measured bytes_moved is what the explicit
    // message version actually moved.
    if let Some(path) = &cli.shard_crosscheck {
        use shearwarp::core::{try_capture_frame, CaptureConfig};
        use shearwarp::memsim::{try_replay_svm, SvmConfig};
        eprintln!("replaying frame 0 on the SVM page model for the cross-check...");
        let enc = scene.try_build().unwrap_or_else(|e| fail(e));
        let (view, _) = view_at(0);
        let inter_rows = Factorization::from_view(&view).inter_h;
        let ccfg = CaptureConfig::from_parallel(&ParallelConfig::with_procs(shards), inter_rows);
        let mut cap = try_capture_frame(&enc, &view, &ccfg, true, true).unwrap_or_else(|e| fail(e));
        let profile = cap.profile.clone();
        let workload = cap.new_workload(shards, &profile);
        let svm = SvmConfig::paper();
        let sim = try_replay_svm(&svm, &workload).unwrap_or_else(|e| fail(e));
        let predicted_bytes = (sim.faults + sim.diffs) * svm.page_bytes;
        let measured_per_frame = reg.counter("shard.bytes_moved") / frames as u64;
        let ratio = measured_per_frame as f64 / predicted_bytes.max(1) as f64;
        let doc = Json::obj()
            .with("schema", Json::Str("swr-shard-crosscheck/1".into()))
            .with("shards", Json::U64(shards as u64))
            .with("transport", Json::Str(tname.into()))
            .with("page_bytes", Json::U64(svm.page_bytes))
            .with(
                "predicted",
                Json::obj()
                    .with("page_faults", Json::U64(sim.faults))
                    .with("page_diffs", Json::U64(sim.diffs))
                    .with("bytes_per_frame", Json::U64(predicted_bytes))
                    .with("total_cycles", Json::U64(sim.total_cycles)),
            )
            .with(
                "measured",
                Json::obj()
                    .with("frames", Json::U64(frames as u64))
                    .with("tiles_routed", Json::U64(reg.counter("shard.tiles_routed")))
                    .with("bytes_moved", Json::U64(reg.counter("shard.bytes_moved")))
                    .with("bytes_per_frame", Json::U64(measured_per_frame))
                    .with(
                        "ring_full_spins",
                        Json::U64(reg.counter("shard.ring_full_spins")),
                    ),
            )
            .with("measured_over_predicted", Json::F64(ratio));
        std::fs::write(path, format!("{doc}\n")).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        });
        eprintln!(
            "crosscheck -> {path}  (svm predicts {predicted_bytes} B/frame, \
             tiles moved {measured_per_frame} B/frame, ratio {ratio:.2})"
        );
    }
    std::process::exit(0)
}

/// Rebuilds a [`FinalImage`] from a frame response's hex `pixels` payload
/// (8 hex digits per RGBA pixel, row-major). `None` when pixels were not
/// requested or the payload is inconsistent with the advertised size.
fn decode_frame(resp: &Json) -> Option<FinalImage> {
    let w = resp.get("width").and_then(Json::as_u64)? as usize;
    let h = resp.get("height").and_then(Json::as_u64)? as usize;
    let hex = resp.get("pixels").and_then(Json::as_str)?;
    if hex.len() != w * h * 8 {
        return None;
    }
    let nibble = |c: u8| -> Option<u8> {
        match c {
            b'0'..=b'9' => Some(c - b'0'),
            b'a'..=b'f' => Some(c - b'a' + 10),
            _ => None,
        }
    };
    let bytes = hex.as_bytes();
    let mut img = FinalImage::new(w, h);
    for i in 0..w * h {
        let mut px = [0u8; 4];
        for (c, slot) in px.iter_mut().enumerate() {
            let j = i * 8 + c * 2;
            *slot = nibble(bytes[j])? << 4 | nibble(bytes[j + 1])?;
        }
        img.set(i % w, i / w, px);
    }
    Some(img)
}

fn main() {
    let mut cli = parse();
    if let Some(addr) = cli.connect.clone() {
        run_client(&cli, &addr);
    }
    if cli.shards.is_some() {
        run_sharded(&cli);
    }
    if cli.animate.is_some() {
        if cli.algorithm != Algorithm::New {
            eprintln!("--animate requires --algorithm new");
            usage()
        }
        if cli.simulate.is_some() {
            eprintln!("--animate cannot be combined with --simulate");
            usage()
        }
        if cli.no_pipeline {
            // The contrast case: same animation, one frame at a time
            // through the existing per-frame loop.
            cli.frames = cli.animate.take().expect("checked");
        }
    }
    let cli = cli;

    // Load or generate the volume.
    let fail = |e: Error| -> ! {
        eprintln!("swrender: {e}");
        std::process::exit(e.exit_code())
    };
    let raw_vol = if let Some(path) = &cli.input {
        try_load_volume(path).unwrap_or_else(|e| fail(e))
    } else if let Some(path) = &cli.raw {
        let dims = cli.dims.unwrap_or_else(|| {
            eprintln!("--raw requires --dims X,Y,Z");
            usage()
        });
        try_load_raw(path, dims).unwrap_or_else(|e| fail(e))
    } else {
        let ph = cli.phantom.expect("default phantom");
        let dims = ph.paper_dims(cli.base);
        eprintln!(
            "generating {:?} phantom {}x{}x{}",
            ph, dims[0], dims[1], dims[2]
        );
        ph.generate(dims, cli.seed)
    };

    let tf = match cli.transfer.as_str() {
        "mri" => TransferFunction::mri_default(),
        "ct" => TransferFunction::ct_default(),
        "opaque" => TransferFunction::opaque_nonzero(),
        other => {
            eprintln!("unknown transfer function {other}");
            usage()
        }
    };

    eprintln!("classifying + run-length encoding...");
    let t0 = std::time::Instant::now();
    let classified = classify(&raw_vol, &tf);
    let enc = EncodedVolume::encode(&classified);
    eprintln!(
        "  {:.1}% transparent, {:.1}x compressed  ({:.2}s)",
        enc.transparent_fraction() * 100.0,
        enc.compression_ratio(),
        t0.elapsed().as_secs_f64()
    );

    // Optional bricked / streamed storage. `src` borrows whichever layout is
    // active; every renderer produces bit-identical output from either.
    let bricked: Option<BrickedVolume> = if cli.layout == "bricked" {
        if cli.simulate.is_some() {
            eprintln!("--simulate replays task traces from the flat layout only");
            usage()
        }
        let t = std::time::Instant::now();
        let vol = match cli.resident_mb {
            Some(mb) => BrickedVolume::from_encoded_streamed(&enc, cli.brick, mb << 20)
                .unwrap_or_else(|e| {
                    eprintln!("swrender: cannot spill bricks to disk: {e}");
                    std::process::exit(1)
                }),
            None => BrickedVolume::from_encoded(&enc, cli.brick),
        };
        eprintln!(
            "  bricked {b}x{b}x{b}: {} run bytes{}  ({:.2}s)",
            vol.storage_bytes(),
            if vol.is_streamed() {
                " spilled to disk, decoded on demand"
            } else {
                " resident"
            },
            t.elapsed().as_secs_f64(),
            b = cli.brick,
        );
        Some(vol)
    } else {
        None
    };
    let src = match &bricked {
        Some(b) => VolumeSrc::Bricked(b),
        None => VolumeSrc::Flat(&enc),
    };

    enum AnyRenderer {
        Serial(Box<SerialRenderer>),
        Old(Box<OldParallelRenderer>),
        New(Box<NewParallelRenderer>),
    }
    let composite_opts = shearwarp::render::CompositeOpts {
        depth_cue: cli.depth_cue.map(|per_slice| shearwarp::render::DepthCue {
            front: 1.0,
            per_slice,
        }),
        ..Default::default()
    };
    let mut renderer = match cli.algorithm {
        Algorithm::Serial => {
            let mut r = SerialRenderer::new();
            r.opts = composite_opts;
            AnyRenderer::Serial(Box::new(r))
        }
        Algorithm::Old => {
            let mut r = OldParallelRenderer::new(cli.pcfg());
            r.composite_opts = composite_opts;
            AnyRenderer::Old(Box::new(r))
        }
        Algorithm::New => {
            let mut r = NewParallelRenderer::new(cli.pcfg());
            r.composite_opts = composite_opts;
            AnyRenderer::New(Box::new(r))
        }
    };

    let dims = raw_vol.dims();
    let view_at = |frame: usize| {
        let ay = cli.angle_y + frame as f64 * cli.step;
        let mut view = ViewSpec::new(dims)
            .rotate_x(cli.angle_x.to_radians())
            .rotate_y(ay.to_radians())
            .with_zoom(cli.zoom);
        if let Some(d) = cli.perspective {
            view = view.with_perspective(d);
        }
        (view, ay)
    };

    let mut telemetry: Vec<FrameTelemetry> = Vec::new();
    if let Some(nframes) = cli.animate {
        // Pipelined animation: the pool persists across frames and frame
        // N+1's compositing overlaps frame N's warp. Frames arrive in
        // order on this thread while later frames are still rendering.
        let mut pipe = AnimationPipeline::new(cli.pcfg());
        pipe.composite_opts = composite_opts;
        let views: Vec<ViewSpec> = (0..nframes).map(|f| view_at(f).0).collect();
        let t0 = std::time::Instant::now();
        pipe.try_render_animation_src(src, &views, |frame, image, _stats| {
            let path = if nframes > 1 {
                format!("{}{frame:04}.ppm", cli.output.trim_end_matches(".ppm"))
            } else {
                cli.output.clone()
            };
            std::fs::write(&path, image.to_ppm()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1)
            });
            eprintln!(
                "frame {frame} @ {:.1}°: {}x{} delivered at +{:.1} ms -> {path}",
                cli.angle_y + frame as f64 * cli.step,
                image.width(),
                image.height(),
                t0.elapsed().as_secs_f64() * 1e3
            );
        })
        .unwrap_or_else(|e| fail(e));
        let secs = t0.elapsed().as_secs_f64();
        eprintln!(
            "{nframes} frames in {:.1} ms pipelined on {} threads ({:.1} fps)",
            secs * 1e3,
            cli.threads,
            nframes as f64 / secs.max(1e-9)
        );
        telemetry = std::mem::take(&mut pipe.telemetry);
    } else if let Some(platform) = cli.simulate {
        simulate(&cli, platform, &enc, &view_at, &mut telemetry).unwrap_or_else(|e| fail(e));
    } else {
        for frame in 0..cli.frames.max(1) {
            let (view, ay) = view_at(frame);
            let t = std::time::Instant::now();
            // Route faults by class: worker panics and scheduler stalls exit 3,
            // bad views 2, rather than unwinding out of main.
            let image = match &mut renderer {
                AnyRenderer::Serial(r) => r.try_render_src(src, &view),
                AnyRenderer::Old(r) => r.try_render_with_stats_src(src, &view).map(|(i, _)| i),
                AnyRenderer::New(r) => r.try_render_with_stats_src(src, &view).map(|(i, _)| i),
            }
            .unwrap_or_else(|e| fail(e));
            if let Some(t) = match &mut renderer {
                AnyRenderer::Serial(r) => r.last_telemetry.take(),
                AnyRenderer::Old(r) => r.last_telemetry.take(),
                AnyRenderer::New(r) => r.last_telemetry.take(),
            } {
                telemetry.push(t);
            }
            let path = if cli.frames > 1 {
                format!("{}{frame:04}.ppm", cli.output.trim_end_matches(".ppm"))
            } else {
                cli.output.clone()
            };
            std::fs::write(&path, image.to_ppm()).unwrap_or_else(|e| {
                eprintln!("cannot write {path}: {e}");
                std::process::exit(1)
            });
            eprintln!(
                "frame {frame} @ {ay:.1}°: {}x{} in {:.1} ms -> {path}",
                image.width(),
                image.height(),
                t.elapsed().as_secs_f64() * 1e3
            );
        }
    }

    // One grep-friendly line for CI budget assertions: peak never exceeds
    // the (clamped) budget by construction of the reserve-before-admit cache.
    // These are the cache's bytes: each worker's brick-row pin keeps up to
    // 2 × nb_i bricks alive outside them. `hits` counts pin fills (one per
    // brick a chunk's brick rows hold), not voxel-scanline reads.
    if let Some(stats) = bricked.as_ref().and_then(|v| v.cache_stats()) {
        eprintln!(
            "brick cache: hits={} misses={} evictions={} resident_bytes={} peak_resident_bytes={} budget_bytes={} within_budget={}",
            stats.hits,
            stats.misses,
            stats.evictions,
            stats.resident_bytes,
            stats.peak_resident_bytes,
            stats.budget_bytes,
            stats.peak_resident_bytes <= stats.budget_bytes,
        );
    }

    write_telemetry(&cli, &telemetry);
}

/// Replays the frame's captured task traces on a simulated shared-address-
/// space machine (virtual time, cycle-unit spans) instead of rendering
/// natively. The machine persists across animation frames so caches stay
/// warm, as in the paper's steady-state measurements; for the new algorithm
/// each frame is partitioned with the previous frame's measured work
/// profile, exactly as the animation loop would.
fn simulate(
    cli: &Cli,
    platform: Platform,
    enc: &EncodedVolume,
    view_at: &dyn Fn(usize) -> (ViewSpec, f64),
    telemetry: &mut Vec<FrameTelemetry>,
) -> Result<()> {
    use shearwarp::core::{try_capture_frame, CaptureConfig};
    use shearwarp::memsim::Machine;

    let new_alg = match cli.algorithm {
        Algorithm::New => true,
        Algorithm::Old => false,
        Algorithm::Serial => {
            eprintln!("--simulate requires --algorithm old|new");
            usage()
        }
    };
    let pcfg = cli.pcfg();
    let mut machine = Machine::new(platform, cli.threads);
    let mut prev_profile: Option<Vec<u64>> = None;
    for frame in 0..cli.frames.max(1) {
        let (view, ay) = view_at(frame);
        let inter_rows = shearwarp::geom::Factorization::from_view(&view).inter_h;
        let cfg = CaptureConfig::from_parallel(&pcfg, inter_rows);
        let mut cap = try_capture_frame(enc, &view, &cfg, true, new_alg)?;
        let workload = if new_alg {
            let h = cap.factorization().inter_h;
            let profile = match &prev_profile {
                Some(prev) => fit_profile(prev, h),
                None => cap.profile.clone(), // first frame: self-profile
            };
            prev_profile = Some(cap.profile.clone());
            cap.new_workload(cli.threads, &profile)
        } else {
            cap.old_workload(cli.threads)
        };
        let (r, t) = machine.try_run_frame_traced(&workload)?;
        eprintln!(
            "frame {frame} @ {ay:.1}°: {} cycles on {} procs (busy {}, steals {}, miss/1k {:.1})",
            r.total_cycles,
            cli.threads,
            r.busy_total(),
            r.steals,
            r.miss_rate() * 1000.0
        );
        telemetry.push(t);
    }
    Ok(())
}

/// Rescales the previous frame's per-scanline work profile to this frame's
/// intermediate height (nearest-sample), mirroring the §4.2 prediction step.
fn fit_profile(prev: &[u64], h: usize) -> Vec<u64> {
    if prev.is_empty() || h == 0 {
        return vec![0; h];
    }
    (0..h).map(|i| prev[i * prev.len() / h]).collect()
}

/// Writes `--metrics` / `--trace` documents and prints `--breakdown` tables
/// for every frame that produced telemetry.
fn write_telemetry(cli: &Cli, telemetry: &[FrameTelemetry]) {
    let needs = cli.metrics.is_some() || cli.trace.is_some() || cli.breakdown;
    if !needs {
        return;
    }
    if telemetry.is_empty() {
        eprintln!("swrender: no telemetry was collected (nothing rendered?)");
        std::process::exit(1);
    }
    let refs: Vec<&FrameTelemetry> = telemetry.iter().collect();
    if let Some(path) = &cli.metrics {
        let doc = run_metrics_json(&refs);
        std::fs::write(path, format!("{doc}\n")).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        });
        eprintln!("metrics -> {path}");
    }
    if let Some(path) = &cli.trace {
        let doc = chrome_trace(&refs);
        std::fs::write(path, format!("{doc}\n")).unwrap_or_else(|e| {
            eprintln!("cannot write {path}: {e}");
            std::process::exit(1)
        });
        eprintln!("trace -> {path} (load at https://ui.perfetto.dev)");
    }
    if cli.breakdown {
        for t in telemetry {
            print!("{}", breakdown_table(t));
        }
    }
}
