//! Chaos suite for the `swr-serve` render service: every `FaultPlan` fault
//! is driven through a **live daemon** (real TCP, real session threads)
//! with three concurrent sessions. The faulted session must get a typed
//! error or a degraded-but-bit-identical frame; the other sessions' frames
//! must stay bit-identical to the serial reference; the daemon must never
//! exit. The overload test drives more work than the global worker budget,
//! expects typed sheds and visible degradation, and then watches the
//! session climb the quality ladder back to full.

use shearwarp::prelude::*;
use shearwarp::serve::protocol::image_hash;
use shearwarp::serve::{spawn, ServeConfig, ServerHandle};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::sync::Once;
use std::time::Duration;

const BASE: usize = 20;
const SEED: u64 = 11;
const ANGLE_X: f64 = 12.0;
const ANGLE_Y: f64 = 30.0;

/// Silences the backtraces of the dozens of *injected* worker panics while
/// keeping real assertion failures visible.
fn quiet_panics() {
    static ONCE: Once = Once::new();
    ONCE.call_once(|| {
        std::panic::set_hook(Box::new(|info| {
            let msg = info
                .payload()
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| info.payload().downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if !msg.contains("injected fault") {
                eprintln!("{info}");
            }
        }));
    });
}

/// The serial renderer's hash for the scene every session renders — the
/// bit-identity reference checked across the socket.
fn reference_hash() -> String {
    let dims = Phantom::MriBrain.paper_dims(BASE);
    let vol = Phantom::MriBrain.generate(dims, SEED);
    let enc = EncodedVolume::encode(&classify(&vol, &Phantom::MriBrain.default_transfer()));
    let view = ViewSpec::new(dims)
        .rotate_x(ANGLE_X.to_radians())
        .rotate_y(ANGLE_Y.to_radians());
    image_hash(&SerialRenderer::new().render(&enc, &view))
}

/// One protocol client over a real socket.
struct Client {
    rx: BufReader<TcpStream>,
    tx: TcpStream,
}

impl Client {
    fn connect(handle: &ServerHandle) -> Client {
        let tx = TcpStream::connect(handle.addr).expect("connect");
        tx.set_read_timeout(Some(Duration::from_secs(120)))
            .expect("read timeout");
        Client {
            rx: BufReader::new(tx.try_clone().expect("clone")),
            tx,
        }
    }

    fn send(&mut self, line: &str) {
        // One write per request: a separate newline segment would sit out
        // a delayed-ACK timeout (40 ms) behind Nagle's algorithm.
        self.tx
            .write_all(format!("{line}\n").as_bytes())
            .expect("send");
    }

    fn recv(&mut self) -> Json {
        let mut line = String::new();
        let n = self.rx.read_line(&mut line).expect("recv");
        assert!(n > 0, "server closed the connection unexpectedly");
        Json::parse(line.trim()).expect("response is JSON")
    }

    fn hello(&mut self, threads: usize) {
        self.hello_base(threads, BASE);
    }

    fn hello_base(&mut self, threads: usize, base: usize) {
        self.send(&format!(
            r#"{{"op":"hello","phantom":"mri","base":{base},"seed":{SEED},"threads":{threads}}}"#
        ));
        let v = self.recv();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("hello"), "{v:?}");
    }

    /// Sends one single-frame render request; does not read the response.
    fn send_render(&mut self, id: u64, fault: Option<&str>) {
        let fault_field = fault
            .map(|f| format!(r#","fault":{f}"#))
            .unwrap_or_default();
        self.send(&format!(
            r#"{{"op":"render","id":{id},"angle_x":{ANGLE_X},"angle_y":{ANGLE_Y}{fault_field}}}"#
        ));
    }

    fn assert_alive(&mut self) {
        self.send(r#"{"op":"ping"}"#);
        assert_eq!(self.recv().get("type").and_then(Json::as_str), Some("pong"));
    }
}

/// Polls a gauge until it reaches `want` or a 5 s deadline passes; the final
/// assert carries the last observed value either way.
fn wait_for_gauge(m: &shearwarp::serve::ServeMetrics, name: &str, want: f64) {
    let deadline = std::time::Instant::now() + Duration::from_secs(5);
    loop {
        let got = m.gauge(name);
        if got == Some(want) {
            return;
        }
        if std::time::Instant::now() >= deadline {
            assert_eq!(got, Some(want), "gauge {name} never settled");
        }
        std::thread::sleep(Duration::from_millis(20));
    }
}

fn quality(v: &Json) -> &str {
    v.get("quality").and_then(Json::as_str).unwrap_or("?")
}

fn hash(v: &Json) -> &str {
    v.get("hash").and_then(Json::as_str).unwrap_or("?")
}

#[test]
fn every_fault_class_is_isolated_to_its_session() {
    quiet_panics();
    let reference = reference_hash();
    let handle = spawn(ServeConfig {
        budget: 8,
        ..ServeConfig::default()
    })
    .expect("spawn server");

    // Every injectable fault class, each kept armed across the parallel
    // retry (sticky) so the ladder is exercised as deep as it goes.
    let faults = [
        ("task panic", r#"{"panic_at_task":1,"sticky":true}"#),
        ("warp panic", r#"{"panic_warp_at":0,"sticky":true}"#),
        ("sink panic", r#"{"panic_sink_at":0,"sticky":true}"#),
        (
            "truncated queue",
            r#"{"truncate_queue":1000,"sticky":true}"#,
        ),
        (
            "corrupted profile",
            r#"{"corrupt_profile":true,"sticky":true}"#,
        ),
        ("zeroed profile", r#"{"zero_profile":true,"sticky":true}"#),
    ];

    for (name, fault) in faults {
        // Three concurrent sessions; session 0 carries the fault.
        let mut clients: Vec<Client> = (0..3).map(|_| Client::connect(&handle)).collect();
        for c in &mut clients {
            c.hello(2);
        }
        clients[0].send_render(100, Some(fault));
        clients[1].send_render(101, None);
        clients[2].send_render(102, None);

        // Healthy sessions: frames bit-identical to the serial reference.
        for (i, c) in clients.iter_mut().enumerate().skip(1) {
            let v = c.recv();
            assert_eq!(
                v.get("type").and_then(Json::as_str),
                Some("frame"),
                "{name}: healthy session {i} got {v:?}"
            );
            assert_eq!(
                hash(&v),
                reference,
                "{name}: healthy session {i} output diverged from serial"
            );
        }

        // Faulted session: a typed error or a frame whose repair rung is
        // bit-identical (only the `reduced` rung may change dimensions,
        // and a fresh session is still at full quality).
        let v = clients[0].recv();
        match v.get("type").and_then(Json::as_str) {
            Some("frame") => {
                assert!(
                    ["full", "repaired", "serial"].contains(&quality(&v)),
                    "{name}: unexpected quality {v:?}"
                );
                assert_eq!(
                    hash(&v),
                    reference,
                    "{name}: faulted session's repaired frame must stay bit-identical"
                );
            }
            Some("error") => {
                let code = v.get("code").and_then(Json::as_str).expect("typed code");
                assert_eq!(
                    swr_error::wire_exit_code(code),
                    4,
                    "{name}: service errors carry the service exit class, got {code}"
                );
            }
            other => panic!("{name}: unexpected response type {other:?}: {v:?}"),
        }

        // The daemon and every session survived.
        for c in &mut clients {
            c.assert_alive();
            c.send(r#"{"op":"bye"}"#);
            let v = c.recv();
            assert_eq!(v.get("type").and_then(Json::as_str), Some("bye"), "{v:?}");
        }
    }

    let m = handle.metrics();
    assert!(
        m.counter("serve.faults_injected") >= 6,
        "all faults were armed via the wire"
    );
    // Connection teardown (and its gauge decrement) finishes asynchronously
    // after the `bye` ack, so allow it a moment to settle.
    wait_for_gauge(&m, "serve.sessions", 0.0);
    handle
        .shutdown()
        .expect("daemon shuts down cleanly after chaos");
}

#[test]
fn expired_deadline_is_a_typed_error_over_the_wire() {
    quiet_panics();
    let handle = spawn(ServeConfig::default()).expect("spawn server");
    let mut c = Client::connect(&handle);
    c.hello(1);
    c.send(&format!(
        r#"{{"op":"render","id":9,"angle_y":{ANGLE_Y},"deadline_ms":0}}"#
    ));
    let v = c.recv();
    assert_eq!(v.get("type").and_then(Json::as_str), Some("error"), "{v:?}");
    assert_eq!(
        v.get("code").and_then(Json::as_str),
        Some("deadline_exceeded")
    );
    c.assert_alive();
    assert!(handle.metrics().counter("serve.deadline_missed") >= 1);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn overload_sheds_degrades_and_recovers() {
    quiet_panics();
    let reference = reference_hash();
    // One worker slot total and a hair-trigger ladder: the first shed
    // degrades, the first healthy request recovers one level.
    let handle = spawn(ServeConfig {
        budget: 1,
        degrade_after: 1,
        recover_after: 1,
        ..ServeConfig::default()
    })
    .expect("spawn server");

    let mut hog = Client::connect(&handle);
    let mut victim = Client::connect(&handle);
    hog.hello_base(1, 32);
    victim.hello(1);

    // The hog renders a larger volume, and enough frames of it that its
    // single worker lease outlives the victim's walk down the ladder in any
    // build profile. A fixed count cannot do that: 64 frames last 0.3 s in
    // a debug build and under 20 ms in release, where the victim's first
    // request found the budget free again. So the count comes from the
    // server's own clock (`elapsed_ms` of a warm-up animation's last frame)
    // and buys `HOG_HOLD_MS`, hundreds of times what the victim's three
    // requests need; the walk ends by checking the lease was still held.
    const HOG_HOLD_MS: u64 = 1000;
    const WARMUP_FRAMES: u64 = 16;
    let hog_render = |hog: &mut Client, id: u64, frames: u64| {
        hog.send(&format!(
            r#"{{"op":"render","id":{id},"angle_x":{ANGLE_X},"angle_y":{ANGLE_Y},"frames":{frames},"step":3.0}}"#
        ));
    };
    hog_render(&mut hog, 0, WARMUP_FRAMES);
    let mut warmup_ms = 0;
    for _ in 0..WARMUP_FRAMES {
        let v = hog.recv();
        warmup_ms = v.get("elapsed_ms").and_then(Json::as_u64).expect("timing");
    }
    let hog_frames = HOG_HOLD_MS * WARMUP_FRAMES / warmup_ms.max(1);

    // The hog leases the whole budget for a long multi-frame animation.
    // The lease is visible on the `serve.budget_in_use` gauge the moment it
    // is granted — wait for that instead of guessing with a sleep.
    hog_render(&mut hog, 1, hog_frames);
    {
        let m = handle.metrics();
        let deadline = std::time::Instant::now() + Duration::from_secs(10);
        while m.gauge("serve.budget_in_use").unwrap_or(0.0) < 1.0 {
            assert!(
                std::time::Instant::now() < deadline,
                "hog never acquired the worker budget"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    // While the budget is exhausted, the victim's requests walk the
    // ladder: shed (Full), shed (Reduced), then SerialOnly — where the
    // request is served bit-identically WITHOUT a worker lease.
    victim.send_render(2, None);
    victim.send_render(3, None);
    victim.send_render(4, None);
    let shed1 = victim.recv();
    assert_eq!(
        shed1.get("code").and_then(Json::as_str),
        Some("overloaded"),
        "{shed1:?}"
    );
    let shed2 = victim.recv();
    assert_eq!(
        shed2.get("code").and_then(Json::as_str),
        Some("overloaded"),
        "{shed2:?}"
    );
    let serial = victim.recv();
    assert_eq!(
        serial.get("type").and_then(Json::as_str),
        Some("frame"),
        "degraded sessions still get frames: {serial:?}"
    );
    assert_eq!(quality(&serial), "serial");
    assert_eq!(
        hash(&serial),
        reference,
        "the serial rung is bit-identical at full dimensions"
    );

    let m = handle.metrics();
    assert_eq!(
        m.gauge("serve.budget_in_use"),
        Some(1.0),
        "the hog's {hog_frames}-frame lease did not outlive the walk ({warmup_ms} ms warm-up)"
    );
    assert!(m.counter("serve.shed") >= 2, "sheds are counted");
    assert!(
        m.gauge("serve.degraded").unwrap_or(0.0) >= 1.0,
        "the degraded gauge shows the victim below full quality"
    );

    // Drain the hog: every frame arrives in order despite the overload.
    for i in 0..hog_frames {
        let v = hog.recv();
        assert_eq!(
            v.get("type").and_then(Json::as_str),
            Some("frame"),
            "hog frame {i}: {v:?}"
        );
        assert_eq!(v.get("frame").and_then(Json::as_u64), Some(i));
    }

    // Load has dropped; each healthy request climbs one level. The serial
    // frame above was itself healthy (SerialOnly -> Reduced), so the next
    // request renders reduced and the one after is back to full.
    victim.send_render(5, None);
    let v = victim.recv();
    assert_eq!(quality(&v), "reduced", "{v:?}");
    victim.send_render(6, None);
    let v = victim.recv();
    assert_eq!(quality(&v), "full", "recovered to full quality: {v:?}");
    assert_eq!(hash(&v), reference, "recovered output is bit-identical");

    let m = handle.metrics();
    assert_eq!(
        m.gauge("serve.degraded"),
        Some(0.0),
        "recovery clears the degraded gauge"
    );
    assert!(m.counter("serve.serial_fallbacks") >= 1);

    hog.send(r#"{"op":"bye"}"#);
    victim.send(r#"{"op":"bye"}"#);
    handle.shutdown().expect("clean shutdown after overload");
}

#[test]
fn exposition_stays_valid_under_chaos_load() {
    quiet_panics();
    let handle = spawn(ServeConfig::default()).expect("spawn server");
    let mut render = Client::connect(&handle);
    render.hello(2);
    // A second connection scrapes via the `metrics` protocol op while the
    // first alternates faulted and healthy renders — the scrape must stay
    // parseable, complete, and monotone throughout.
    let mut scraper = Client::connect(&handle);
    let mut last_frames = 0.0;
    let mut last_text = String::new();
    for round in 0..4u64 {
        let fault = (round % 2 == 0).then_some(r#"{"panic_at_task":1}"#);
        render.send_render(300 + round, fault);
        let v = render.recv();
        assert!(
            matches!(
                v.get("type").and_then(Json::as_str),
                Some("frame") | Some("error")
            ),
            "round {round}: {v:?}"
        );

        scraper.send(r#"{"op":"metrics"}"#);
        let m = scraper.recv();
        assert_eq!(
            m.get("type").and_then(Json::as_str),
            Some("metrics"),
            "{m:?}"
        );
        assert_eq!(
            m.get("content_type").and_then(Json::as_str),
            Some(shearwarp::telemetry::EXPOSITION_CONTENT_TYPE)
        );
        let text = m
            .get("exposition")
            .and_then(Json::as_str)
            .expect("exposition text");
        let stats = shearwarp::telemetry::validate_exposition(text)
            .unwrap_or_else(|e| panic!("round {round}: invalid exposition: {e}"));
        assert!(stats.families > 0 && stats.samples > 0);
        let frames = stats
            .counters
            .get("swr_serve_frames_total")
            .copied()
            .unwrap_or(0.0);
        assert!(
            frames >= last_frames,
            "frames counter went backwards: {last_frames} -> {frames}"
        );
        last_frames = frames;
        last_text = text.to_string();
    }
    assert!(last_frames >= 1.0, "healthy rounds produced frames");
    // The scrape carries the full latency family: cumulative buckets with
    // explicit upper bounds, the _sum/_count pair, and the rolling-window
    // quantile summary the dashboards read.
    for needle in [
        "swr_serve_frame_latency_ms_bucket{le=",
        "swr_serve_frame_latency_ms_sum",
        "swr_serve_frame_latency_ms_count",
        "swr_serve_frame_latency_ms_window{quantile=\"0.5\"}",
        "swr_serve_frame_latency_ms_window{quantile=\"0.95\"}",
        "swr_serve_frame_latency_ms_window{quantile=\"0.99\"}",
    ] {
        assert!(
            last_text.contains(needle),
            "exposition is missing {needle}:\n{last_text}"
        );
    }
    render.send(r#"{"op":"bye"}"#);
    handle.shutdown().expect("clean shutdown");
}

#[test]
fn faults_dump_correlated_flight_traces() {
    quiet_panics();
    let dir = std::env::temp_dir().join(format!("swr-flight-chaos-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let handle = spawn(ServeConfig {
        flight_dir: Some(dir.to_string_lossy().into_owned()),
        ..ServeConfig::default()
    })
    .expect("spawn server");

    // One session per fault class, each with a unique request id so the
    // dumps can be matched back to the request that caused them. Worker
    // panics are repaired *inside* the pipeline (band handoff) without
    // failing the attempt, so they must NOT dump — forensics are for
    // faults that escalate. A truncated queue stalls the scheduler and
    // walks the retry ladder (one dump per rung); a sink panic escapes the
    // ladder entirely and exercises the supervisor's `session_failed` dump.
    let repaired: (u64, &str, &str) = (401, "task panic", r#"{"panic_at_task":1,"sticky":true}"#);
    let escalating: [(u64, &str, &str); 2] = [
        (
            402,
            "truncated queue",
            r#"{"truncate_queue":1000,"sticky":true}"#,
        ),
        (403, "sink panic", r#"{"panic_sink_at":0,"sticky":true}"#),
    ];
    for (id, name, fault) in std::iter::once(repaired).chain(escalating) {
        let mut c = Client::connect(&handle);
        c.hello(2);
        c.send_render(id, Some(fault));
        let v = c.recv();
        assert!(
            matches!(
                v.get("type").and_then(Json::as_str),
                Some("frame") | Some("error")
            ),
            "{name}: {v:?}"
        );
        c.send(r#"{"op":"bye"}"#);
        let v = c.recv();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("bye"), "{v:?}");
    }

    let names: Vec<String> = std::fs::read_dir(&dir)
        .expect("flight dir exists")
        .filter_map(|e| e.ok())
        .map(|e| e.file_name().to_string_lossy().into_owned())
        .collect();
    assert!(
        !names.iter().any(|n| n.contains("-r401-")),
        "a repaired-in-place fault must leave no forensics dump: {names:?}"
    );
    for (id, name, _) in escalating {
        let file = names
            .iter()
            .find(|n| n.contains(&format!("-r{id}-")))
            .unwrap_or_else(|| panic!("{name}: no flight dump for request {id} in {names:?}"));
        let text = std::fs::read_to_string(dir.join(file)).expect("read dump");
        let doc = Json::parse(&text).expect("dump is JSON");
        shearwarp::telemetry::validate_chrome_trace(&doc)
            .unwrap_or_else(|e| panic!("{name}: invalid flight trace: {e}"));
        // Correlation: the trace's spans carry the failing request's id.
        let correlated = doc
            .get("traceEvents")
            .and_then(Json::as_arr)
            .expect("traceEvents")
            .iter()
            .any(|ev| {
                ev.get("args")
                    .and_then(|a| a.get("request"))
                    .and_then(Json::as_u64)
                    == Some(id)
            });
        assert!(correlated, "{name}: no span correlated to request {id}");
    }
    assert!(
        names.iter().any(|n| n.contains("session_failed")),
        "the escaped sink panic produced a session_failed dump: {names:?}"
    );
    assert!(handle.metrics().counter("serve.flight_dumps") >= 2);
    handle.shutdown().expect("clean shutdown");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn queue_overflow_sheds_at_the_door() {
    quiet_panics();
    // Queue depth 1: pipelining many requests at a busy session overflows
    // the bounded queue, which must shed (typed `overloaded`), not buffer
    // unboundedly or hang.
    let handle = spawn(ServeConfig {
        budget: 1,
        queue_depth: 1,
        ..ServeConfig::default()
    })
    .expect("spawn server");
    let mut c = Client::connect(&handle);
    c.hello(1);
    // A slow multi-frame render occupies the session worker...
    c.send(&format!(
        r#"{{"op":"render","id":1,"angle_y":{ANGLE_Y},"frames":8,"step":3.0}}"#
    ));
    std::thread::sleep(Duration::from_millis(100));
    // ...while a burst of pipelined requests lands on the bounded queue.
    for id in 2..10 {
        c.send_render(id, None);
    }
    let mut sheds = 0;
    let mut frames = 0;
    // 8 frames from the first render + 8 burst responses.
    for _ in 0..16 {
        let v = c.recv();
        match v.get("type").and_then(Json::as_str) {
            Some("frame") => frames += 1,
            Some("error") => {
                assert_eq!(
                    v.get("code").and_then(Json::as_str),
                    Some("overloaded"),
                    "{v:?}"
                );
                sheds += 1;
            }
            other => panic!("unexpected {other:?}: {v:?}"),
        }
    }
    assert!(sheds >= 1, "the bounded queue shed at least one request");
    assert!(frames >= 8, "the in-flight animation still completed");
    c.assert_alive();
    handle.shutdown().expect("clean shutdown");
}

/// The multi-process path over the wire: a hello carrying `"shards"` opens
/// a session whose Full-level frames render through the `swr-shard` worker
/// fleet — bit-identical to the serial reference — while a hello that
/// cannot spawn the fleet (bogus worker binary) still opens and serves
/// identical frames on the in-process ladder.
#[test]
fn sharded_sessions_render_bit_identically_and_fall_back() {
    quiet_panics();
    // The serve daemon resolves the worker binary like any sibling
    // install; tests pin it to the one cargo just built.
    std::env::set_var("SWR_SHARD_BIN", env!("CARGO_BIN_EXE_swr-shard"));
    let reference = reference_hash();
    let handle = spawn(ServeConfig::default()).expect("spawn server");

    // Session 1: two worker processes, default (shm) transport.
    let mut c = Client::connect(&handle);
    c.send(&format!(
        r#"{{"op":"hello","phantom":"mri","base":{BASE},"seed":{SEED},"shards":2}}"#
    ));
    let v = c.recv();
    assert_eq!(v.get("type").and_then(Json::as_str), Some("hello"), "{v:?}");
    for id in 1..=2 {
        c.send_render(id, None);
        let v = c.recv();
        assert_eq!(v.get("type").and_then(Json::as_str), Some("frame"), "{v:?}");
        assert_eq!(quality(&v), "full", "{v:?}");
        assert_eq!(hash(&v), reference, "sharded frame must be bit-identical");
    }
    let m = handle.metrics();
    assert!(
        m.counter("serve.shard_frames") >= 2,
        "frames went through the fleet"
    );
    assert!(m.counter("serve.shard_bytes_moved") > 0, "tiles crossed it");
    c.send(r#"{"op":"bye"}"#);

    // Session 2: socket transport, same bit-identity.
    let mut c = Client::connect(&handle);
    c.send(&format!(
        r#"{{"op":"hello","phantom":"mri","base":{BASE},"seed":{SEED},"shards":2,"shard_transport":"socket"}}"#
    ));
    assert_eq!(
        c.recv().get("type").and_then(Json::as_str),
        Some("hello"),
        "socket-transport hello"
    );
    c.send_render(3, None);
    let v = c.recv();
    assert_eq!(quality(&v), "full", "{v:?}");
    assert_eq!(hash(&v), reference, "socket transport is bit-identical too");
    c.send(r#"{"op":"bye"}"#);

    // A bogus transport is a typed protocol-level refusal, not a session.
    let mut c = Client::connect(&handle);
    c.send(&format!(
        r#"{{"op":"hello","phantom":"mri","base":{BASE},"seed":{SEED},"shards":2,"shard_transport":"pigeon"}}"#
    ));
    let v = c.recv();
    assert_eq!(v.get("type").and_then(Json::as_str), Some("error"), "{v:?}");

    // Unspawnable fleet (worker binary pointed at nothing): the session
    // still opens and renders identical frames on the in-process ladder.
    std::env::set_var("SWR_SHARD_BIN", "/nonexistent/swr-shard");
    let mut c = Client::connect(&handle);
    c.send(&format!(
        r#"{{"op":"hello","phantom":"mri","base":{BASE},"seed":{SEED},"shards":2}}"#
    ));
    assert_eq!(
        c.recv().get("type").and_then(Json::as_str),
        Some("hello"),
        "fleet-less hello still opens a session"
    );
    c.send_render(4, None);
    let v = c.recv();
    assert_eq!(quality(&v), "full", "{v:?}");
    assert_eq!(hash(&v), reference, "fallback ladder is bit-identical");
    assert!(
        handle.metrics().counter("serve.shard_unavailable") >= 1,
        "the fallback was counted"
    );
    std::env::set_var("SWR_SHARD_BIN", env!("CARGO_BIN_EXE_swr-shard"));
    handle.shutdown().expect("clean shutdown");
}
