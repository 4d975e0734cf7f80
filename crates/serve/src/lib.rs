//! `swr-serve`: a fault-isolated render service over the shear-warp
//! pipeline.
//!
//! The daemon speaks a line-delimited JSON protocol
//! ([`protocol`], `swr-serve/1`) over TCP. Each connection is one
//! *session*: a `hello` names the scene (served from a shared
//! [`VolumeCache`]) and the session gets its own
//! [`AnimationPipeline`](swr_core::AnimationPipeline) plus a serial
//! fallback renderer. Render requests then run under the supervision
//! policy in [`session`]:
//!
//! * **deadlines** — per-request millisecond budgets, enforced while
//!   queued and (via the scheduler watchdog) while rendering;
//! * **admission control** — a global [`WorkerBudget`] shared by every
//!   session, plus a bounded per-session request queue; saturation is
//!   answered with a typed `overloaded` shed, never unbounded queueing;
//! * **retry ladder** — parallel, parallel retry, bit-identical serial
//!   fallback, typed error — in that order, per request;
//! * **graceful degradation** — a per-session quality ladder
//!   (`Full → Reduced → SerialOnly`) driven by consecutive outcomes,
//!   stepping back up as health returns.
//!
//! Fault isolation is the point: a panic injected into one session's
//! render (see [`protocol::FaultSpec`]) is contained by that
//! session's supervisor — the pipeline restarts, the request gets a typed
//! error or a degraded frame, and every other session keeps producing
//! frames bit-identical to the serial renderer.

pub mod budget;
pub mod cache;
pub mod events;
pub mod metrics;
pub mod protocol;
pub mod session;

pub use budget::{Lease, WorkerBudget};
pub use cache::{VolumeCache, VolumeKey};
pub use events::EventLog;
pub use metrics::ServeMetrics;
pub use protocol::{FaultSpec, HelloReq, Quality, RenderReq, Request, PROTOCOL};
pub use session::{Health, Level, Session};

use parking_lot::{Condvar, Mutex};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use swr_error::{panic_message, Error};
use swr_shard::{SceneSpec, ShardTransport};
use swr_telemetry::Json;

/// Service configuration; [`Default`] gives test-friendly values.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Listen address (`127.0.0.1:0` picks an ephemeral port).
    pub addr: String,
    /// Global worker budget shared across sessions.
    pub budget: usize,
    /// Per-session ceiling on parallel render workers.
    pub max_threads_per_session: usize,
    /// Bound on each session's pending-request queue; overflow is shed.
    pub queue_depth: usize,
    /// Deadline applied to requests that do not carry one.
    pub default_deadline_ms: u64,
    /// Scheduler watchdog ceiling (clamped per render to the remaining
    /// deadline budget).
    pub watchdog: Duration,
    /// Consecutive faulted requests before a session steps down a quality
    /// level.
    pub degrade_after: u32,
    /// Consecutive healthy requests before a session steps back up.
    pub recover_after: u32,
    /// Zoom multiplier at the `Reduced` quality level.
    pub reduced_zoom: f64,
    /// Sidecar scrape listener address (`--expose`); `None` disables it.
    /// The sidecar speaks just enough HTTP for `curl`/Prometheus and
    /// serves [`ServeMetrics::exposition`] without touching the protocol
    /// port — a scraper can never occupy a session slot.
    pub expose: Option<String>,
    /// JSONL event-log path; `None` keeps events in memory only.
    pub event_log: Option<String>,
    /// Directory for flight-recorder forensics dumps; `None` disables
    /// dumping. Defaults to `swr-flight` under the system temp dir.
    pub flight_dir: Option<String>,
}

impl Default for ServeConfig {
    fn default() -> Self {
        ServeConfig {
            addr: "127.0.0.1:0".into(),
            budget: 8,
            max_threads_per_session: 4,
            queue_depth: 16,
            default_deadline_ms: 30_000,
            watchdog: Duration::from_secs(10),
            degrade_after: 3,
            recover_after: 2,
            reduced_zoom: 0.5,
            expose: None,
            event_log: None,
            flight_dir: Some(
                std::env::temp_dir()
                    .join("swr-flight")
                    .to_string_lossy()
                    .into_owned(),
            ),
        }
    }
}

/// A bounded MPSC queue of parsed requests, stamped with arrival time so
/// queueing delay counts against the deadline. `None` is the reader's
/// end-of-stream sentinel.
struct RequestQueue {
    items: Mutex<VecDeque<Option<(Request, Instant)>>>,
    ready: Condvar,
    depth: usize,
}

impl RequestQueue {
    fn new(depth: usize) -> Self {
        RequestQueue {
            items: Mutex::new(VecDeque::new()),
            ready: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Enqueues unless the bound is hit; a refused push is the shed signal.
    fn try_push(&self, req: Request, arrived: Instant) -> bool {
        let mut q = self.items.lock();
        if q.len() >= self.depth {
            return false;
        }
        q.push_back(Some((req, arrived)));
        self.ready.notify_one();
        true
    }

    /// Sentinel push: always succeeds (never sheds the goodbye).
    fn close(&self) {
        self.items.lock().push_back(None);
        self.ready.notify_one();
    }

    /// Pops the next entry, waking periodically so the caller can observe
    /// a server-wide stop.
    fn pop(&self, stop: &AtomicBool) -> Option<(Request, Instant)> {
        let mut q = self.items.lock();
        loop {
            if let Some(entry) = q.pop_front() {
                return entry;
            }
            if stop.load(Ordering::Acquire) {
                return None;
            }
            self.ready.wait_for(&mut q, Duration::from_millis(50));
        }
    }
}

/// Line-oriented response writer shared by the reader (sheds, parse
/// errors) and the session worker (everything else).
#[derive(Clone)]
struct ResponseWriter {
    stream: Arc<Mutex<TcpStream>>,
}

impl ResponseWriter {
    fn new(stream: TcpStream) -> Self {
        ResponseWriter {
            stream: Arc::new(Mutex::new(stream)),
        }
    }

    /// Writes one response line. A dead peer is not an error worth
    /// propagating — the reader will see EOF and close the session.
    fn send(&self, resp: &Json) {
        let mut line = resp.to_string();
        line.push('\n');
        let mut s = self.stream.lock();
        let _ = s.write_all(line.as_bytes());
        let _ = s.flush();
    }
}

/// The daemon: accept loop, session threads, shared budget/cache/metrics.
pub struct Server {
    listener: TcpListener,
    expose: Option<Arc<TcpListener>>,
    cfg: Arc<ServeConfig>,
    budget: Arc<WorkerBudget>,
    cache: Arc<VolumeCache>,
    metrics: ServeMetrics,
    events: EventLog,
    stop: Arc<AtomicBool>,
    next_session: AtomicU64,
    conns: Arc<Mutex<Vec<TcpStream>>>,
}

impl Server {
    /// Binds the listen socket (and the `--expose` sidecar, when
    /// configured); the accept loop starts in [`Server::run`].
    pub fn bind(cfg: ServeConfig) -> Result<Server, Error> {
        let listener = TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let expose = match &cfg.expose {
            Some(addr) => {
                let l = TcpListener::bind(addr)?;
                l.set_nonblocking(true)?;
                Some(Arc::new(l))
            }
            None => None,
        };
        let events = match &cfg.event_log {
            Some(path) => EventLog::to_file(path)?,
            None => EventLog::in_memory(),
        };
        let metrics = ServeMetrics::new();
        let budget = WorkerBudget::new(cfg.budget);
        metrics.set_gauge("serve.budget_total", budget.total() as f64);
        metrics.set_gauge("serve.budget_in_use", 0.0);
        metrics.set_gauge("serve.sessions", 0.0);
        metrics.set_gauge("serve.degraded", 0.0);
        Ok(Server {
            listener,
            expose,
            cfg: Arc::new(cfg),
            budget,
            cache: VolumeCache::new(),
            metrics,
            events,
            stop: Arc::new(AtomicBool::new(false)),
            next_session: AtomicU64::new(1),
            conns: Arc::new(Mutex::new(Vec::new())),
        })
    }

    /// The bound address (useful with an ephemeral port).
    pub fn local_addr(&self) -> Result<SocketAddr, Error> {
        Ok(self.listener.local_addr()?)
    }

    /// The sidecar scrape listener's bound address, when enabled.
    pub fn expose_addr(&self) -> Option<SocketAddr> {
        self.expose.as_ref().and_then(|l| l.local_addr().ok())
    }

    /// The structured event log (shared with every session).
    pub fn events(&self) -> EventLog {
        self.events.clone()
    }

    /// Shared stop flag: setting it makes [`Server::run`] return after
    /// closing every live connection. Signal handlers and test harnesses
    /// both drive shutdown through this.
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Service metrics handle (shared with every session).
    pub fn metrics(&self) -> ServeMetrics {
        self.metrics.clone()
    }

    /// Runs the accept loop until the stop flag is raised, then shuts down
    /// every live connection and joins the session threads.
    pub fn run(&self) -> Result<(), Error> {
        let expose_thread = self.expose.as_ref().map(|l| {
            let l = Arc::clone(l);
            let metrics = self.metrics.clone();
            let stop = Arc::clone(&self.stop);
            thread::Builder::new()
                .name("swr-serve-expose".into())
                .spawn(move || expose_loop(&l, &metrics, &stop))
                .map_err(Error::from)
        });
        let expose_thread = match expose_thread {
            Some(t) => Some(t?),
            None => None,
        };
        let mut workers: Vec<thread::JoinHandle<()>> = Vec::new();
        while !self.stop.load(Ordering::Acquire) {
            match self.listener.accept() {
                Ok((stream, _peer)) => {
                    let id = self.next_session.fetch_add(1, Ordering::Relaxed);
                    if let Ok(clone) = stream.try_clone() {
                        self.conns.lock().push(clone);
                    }
                    let conn = Connection {
                        cfg: Arc::clone(&self.cfg),
                        budget: Arc::clone(&self.budget),
                        cache: Arc::clone(&self.cache),
                        metrics: self.metrics.clone(),
                        events: self.events.clone(),
                        stop: Arc::clone(&self.stop),
                    };
                    workers.push(
                        thread::Builder::new()
                            .name(format!("swr-serve-session-{id}"))
                            .spawn(move || conn.serve(id, stream))
                            .map_err(Error::from)?,
                    );
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    thread::sleep(Duration::from_millis(20));
                }
                Err(e) => return Err(e.into()),
            }
            workers.retain(|w| !w.is_finished());
        }
        // Graceful shutdown: close every live socket so readers see EOF,
        // then wait for each session to finish its in-flight request.
        for s in self.conns.lock().iter() {
            let _ = s.shutdown(Shutdown::Both);
        }
        for w in workers {
            let _ = w.join();
        }
        if let Some(t) = expose_thread {
            let _ = t.join();
        }
        Ok(())
    }
}

/// The `--expose` sidecar: answers every TCP connection with one
/// HTTP/1.0 response carrying the current exposition, then closes. Just
/// enough HTTP for `curl` and a Prometheus scrape job; renders are never
/// blocked (see [`ServeMetrics::exposition`]) and a scraper never enters
/// the protocol port's session machinery.
fn expose_loop(listener: &TcpListener, metrics: &ServeMetrics, stop: &AtomicBool) {
    use std::io::Read;
    while !stop.load(Ordering::Acquire) {
        match listener.accept() {
            Ok((mut s, _peer)) => {
                let _ = s.set_read_timeout(Some(Duration::from_millis(500)));
                // Drain (and ignore) the request head; any path scrapes.
                let mut buf = [0u8; 1024];
                let _ = s.read(&mut buf);
                let body = metrics.exposition();
                let head = format!(
                    "HTTP/1.0 200 OK\r\nContent-Type: {}\r\nContent-Length: {}\r\nConnection: close\r\n\r\n",
                    swr_telemetry::EXPOSITION_CONTENT_TYPE,
                    body.len()
                );
                let _ = s.write_all(head.as_bytes());
                let _ = s.write_all(body.as_bytes());
                let _ = s.flush();
                let _ = s.shutdown(Shutdown::Both);
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(20));
            }
            Err(_) => break,
        }
    }
}

/// Everything one connection thread needs, cloned out of the server.
struct Connection {
    cfg: Arc<ServeConfig>,
    budget: Arc<WorkerBudget>,
    cache: Arc<VolumeCache>,
    metrics: ServeMetrics,
    events: EventLog,
    stop: Arc<AtomicBool>,
}

impl Connection {
    /// Runs one session to completion. Never panics outward: the daemon's
    /// accept loop must outlive anything a session does.
    fn serve(self, id: u64, stream: TcpStream) {
        let writer = match stream.try_clone() {
            Ok(w) => ResponseWriter::new(w),
            Err(_) => return,
        };
        let queue = Arc::new(RequestQueue::new(self.cfg.queue_depth));
        let reader = {
            let queue = Arc::clone(&queue);
            let writer = writer.clone();
            let metrics = self.metrics.clone();
            let stream = BufReader::new(stream);
            thread::Builder::new()
                .name(format!("swr-serve-reader-{id}"))
                .spawn(move || read_loop(stream, &queue, &writer, &metrics))
        };
        self.metrics.adjust_gauge("serve.sessions", 1.0);
        self.events.emit("session_open", id, None, &[]);
        self.session_loop(id, &queue, &writer);
        self.metrics.adjust_gauge("serve.sessions", -1.0);
        self.events.emit("session_close", id, None, &[]);
        // Unblock the reader if the session ended first (bye / stop), then
        // reap it.
        {
            let s = writer.stream.lock();
            let _ = s.shutdown(Shutdown::Both);
        }
        if let Ok(r) = reader {
            let _ = r.join();
        }
    }

    /// Dispatches queued requests until the stream closes, `bye` arrives,
    /// or the server stops. The outer `catch_unwind` is the session
    /// supervisor: a panic that escapes the retry ladder restarts the
    /// pipeline and answers with a typed `session_failed`, keeping both
    /// the session and the daemon alive.
    fn session_loop(&self, id: u64, queue: &RequestQueue, writer: &ResponseWriter) {
        let mut session: Option<Session> = None;
        while let Some((req, arrived)) = queue.pop(&self.stop) {
            match req {
                Request::Ping => writer.send(&protocol::pong_response()),
                Request::Stats => writer.send(&protocol::stats_response(self.metrics.to_json())),
                Request::Metrics => {
                    writer.send(&protocol::metrics_response(self.metrics.exposition()))
                }
                Request::Bye => {
                    writer.send(&protocol::bye_response());
                    break;
                }
                Request::Hello(h) => match self.open_session(id, &h) {
                    Ok(s) => {
                        writer.send(&protocol::hello_response(
                            id,
                            s.threads(),
                            self.budget.total(),
                        ));
                        if let Some(mut old) = session.replace(s) {
                            old.close();
                        }
                    }
                    Err(e) => {
                        self.metrics.inc("serve.errors");
                        writer.send(&protocol::error_response(None, &e));
                    }
                },
                Request::Render(r) => {
                    let Some(s) = session.as_mut() else {
                        self.metrics.inc("serve.errors");
                        writer.send(&protocol::error_response(
                            Some(r.id),
                            &Error::Protocol {
                                reason: "render before hello".into(),
                            },
                        ));
                        continue;
                    };
                    let mut out = Vec::new();
                    let handled =
                        catch_unwind(AssertUnwindSafe(|| s.handle_render(&r, arrived, &mut out)));
                    if let Err(payload) = handled {
                        // Supervisor rung: dump the flight recorder while
                        // the dying attempt's spans are still in its rings,
                        // then contain, restart, and answer typed.
                        let message = panic_message(payload.as_ref());
                        s.dump_flight(r.id, "session_failed");
                        self.events.emit(
                            "session_failed",
                            id,
                            Some(r.id),
                            &[("message", Json::Str(message.clone()))],
                        );
                        s.restart_pipeline();
                        self.metrics.inc("serve.errors");
                        out.push(protocol::error_response(
                            Some(r.id),
                            &Error::SessionFailed {
                                session: id,
                                message,
                            },
                        ));
                    }
                    for resp in &out {
                        writer.send(resp);
                    }
                }
            }
        }
        if let Some(mut s) = session {
            s.close();
        }
    }

    fn open_session(&self, id: u64, h: &HelloReq) -> Result<Session, Error> {
        // A resident budget implies the bricked layout; otherwise the
        // client picks the layout explicitly (default flat).
        let layout = match &h.layout {
            Some(l) => l.clone(),
            None if h.resident_mb.is_some() => "bricked".into(),
            None => "flat".into(),
        };
        let key = VolumeKey {
            phantom: h.phantom.clone(),
            base: h.base,
            seed: h.seed,
            transfer: h.transfer.clone().unwrap_or_default(),
            layout,
            brick: h.brick.unwrap_or(cache::DEFAULT_SERVE_BRICK),
            resident_bytes: h.resident_mb.map(|mb| mb << 20).unwrap_or(0),
        };
        let enc = self.cache.get(&key)?;
        let mut session = Session::new(
            id,
            enc,
            h.threads.unwrap_or(self.cfg.max_threads_per_session),
            Arc::clone(&self.cfg),
            Arc::clone(&self.budget),
            self.metrics.clone(),
            self.events.clone(),
        );
        if let Some(shards) = h.shards {
            // The shard fleet regenerates the scene inside each worker
            // process, so it composes with the flat layout only; a bricked
            // layout or resident budget is a config conflict, not a silent
            // ignore.
            if key.layout != "flat" || h.resident_mb.is_some() {
                return Err(Error::InvalidConfig {
                    reason: "sharded rendering requires the flat layout with no resident budget"
                        .into(),
                });
            }
            let transport = match h.shard_transport.as_deref() {
                Some(t) => ShardTransport::parse(t)?,
                None => ShardTransport::default(),
            };
            // A bad shard count is the client's mistake — refuse the hello
            // with the typed reason before touching the fleet.
            if !(1..=256).contains(&shards) {
                return Err(Error::InvalidConfig {
                    reason: format!("shard count {shards} out of range 1..=256"),
                });
            }
            let scene = match &h.transfer {
                Some(t) => SceneSpec {
                    phantom: h.phantom.clone(),
                    base: h.base,
                    seed: h.seed,
                    transfer: t.clone(),
                },
                None => SceneSpec::new(&h.phantom, h.base, h.seed)?,
            };
            if let Err(e) = session.enable_sharding(&scene, shards, transport) {
                // Worker binary missing or the fleet failed to spawn: the
                // session still opens, on the in-process ladder.
                self.metrics.inc("serve.shard_unavailable");
                self.events.emit(
                    "shard_unavailable",
                    id,
                    None,
                    &[("reason", Json::Str(e.wire_code().into()))],
                );
            }
        }
        Ok(session)
    }
}

/// The per-connection reader: parses lines off the socket and enqueues
/// them. Malformed lines and queue overflow are answered here, directly,
/// so a wedged render can never stop the session from shedding load.
fn read_loop(
    mut stream: BufReader<TcpStream>,
    queue: &RequestQueue,
    writer: &ResponseWriter,
    metrics: &ServeMetrics,
) {
    let mut line = String::new();
    loop {
        line.clear();
        match stream.read_line(&mut line) {
            Ok(0) | Err(_) => break,
            Ok(_) => {}
        }
        if line.trim().is_empty() {
            continue;
        }
        match Request::parse(&line) {
            Ok(req) => {
                let is_bye = req == Request::Bye;
                if !queue.try_push(req, Instant::now()) {
                    // Bounded queue full: shed at the door with a typed
                    // refusal instead of buffering unbounded work.
                    metrics.inc("serve.shed");
                    metrics.inc("serve.errors");
                    writer.send(&protocol::error_response(
                        None,
                        &Error::Overloaded {
                            reason: "session queue full".into(),
                        },
                    ));
                    continue;
                }
                if is_bye {
                    break;
                }
            }
            Err(e) => {
                metrics.inc("serve.errors");
                writer.send(&protocol::error_response(None, &e));
            }
        }
    }
    queue.close();
}

/// A running server on its own thread, for tests and the binary.
pub struct ServerHandle {
    /// The bound address.
    pub addr: SocketAddr,
    /// The sidecar scrape listener's address, when `--expose` is set.
    pub expose_addr: Option<SocketAddr>,
    stop: Arc<AtomicBool>,
    metrics: ServeMetrics,
    events: EventLog,
    thread: thread::JoinHandle<Result<(), Error>>,
}

impl ServerHandle {
    /// Service metrics handle.
    pub fn metrics(&self) -> ServeMetrics {
        self.metrics.clone()
    }

    /// The structured event log.
    pub fn events(&self) -> EventLog {
        self.events.clone()
    }

    /// The shared stop flag (what a SIGTERM handler raises).
    pub fn stop_flag(&self) -> Arc<AtomicBool> {
        Arc::clone(&self.stop)
    }

    /// Raises the stop flag and waits for the accept loop to drain.
    pub fn shutdown(self) -> Result<(), Error> {
        self.stop.store(true, Ordering::Release);
        match self.thread.join() {
            Ok(r) => r,
            Err(_) => Err(Error::SessionFailed {
                session: 0,
                message: "server thread panicked".into(),
            }),
        }
    }
}

/// Binds and runs a server on a background thread.
pub fn spawn(cfg: ServeConfig) -> Result<ServerHandle, Error> {
    let server = Server::bind(cfg)?;
    let addr = server.local_addr()?;
    let expose_addr = server.expose_addr();
    let stop = server.stop_flag();
    let metrics = server.metrics();
    let events = server.events();
    let thread = thread::Builder::new()
        .name("swr-serve-accept".into())
        .spawn(move || server.run())?;
    Ok(ServerHandle {
        addr,
        expose_addr,
        stop,
        metrics,
        events,
        thread,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::BufRead;

    fn connect(addr: SocketAddr) -> (BufReader<TcpStream>, TcpStream) {
        let stream = TcpStream::connect(addr).expect("connect");
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .expect("timeout");
        (BufReader::new(stream.try_clone().expect("clone")), stream)
    }

    fn send_line(stream: &mut TcpStream, line: &str) {
        stream.write_all(line.as_bytes()).expect("write");
        stream.write_all(b"\n").expect("write");
    }

    fn read_json(reader: &mut BufReader<TcpStream>) -> Json {
        let mut line = String::new();
        reader.read_line(&mut line).expect("read");
        Json::parse(line.trim()).expect("response is JSON")
    }

    #[test]
    fn end_to_end_session_renders_and_shuts_down_cleanly() {
        let handle = spawn(ServeConfig {
            budget: 2,
            ..ServeConfig::default()
        })
        .expect("spawn");
        let (mut rx, mut tx) = connect(handle.addr);

        send_line(&mut tx, r#"{"op":"ping"}"#);
        assert_eq!(
            read_json(&mut rx).get("type").and_then(Json::as_str),
            Some("pong")
        );

        // Render before hello is a typed protocol error, not a hangup.
        send_line(&mut tx, r#"{"op":"render","id":1}"#);
        let v = read_json(&mut rx);
        assert_eq!(v.get("code").and_then(Json::as_str), Some("protocol"));

        send_line(
            &mut tx,
            r#"{"op":"hello","phantom":"mri","base":20,"seed":11,"threads":2}"#,
        );
        let v = read_json(&mut rx);
        assert_eq!(v.get("type").and_then(Json::as_str), Some("hello"));
        assert_eq!(v.get("protocol").and_then(Json::as_str), Some(PROTOCOL));

        send_line(&mut tx, r#"{"op":"render","id":2,"angle_y":30.0}"#);
        let v = read_json(&mut rx);
        assert_eq!(v.get("type").and_then(Json::as_str), Some("frame"), "{v:?}");
        assert_eq!(v.get("quality").and_then(Json::as_str), Some("full"));
        let hash = v
            .get("hash")
            .and_then(Json::as_str)
            .expect("hash")
            .to_string();
        assert_eq!(hash.len(), 16);

        // Malformed line: typed error, session still usable.
        send_line(&mut tx, "not json at all");
        let v = read_json(&mut rx);
        assert_eq!(v.get("code").and_then(Json::as_str), Some("protocol"));

        send_line(&mut tx, r#"{"op":"stats"}"#);
        let v = read_json(&mut rx);
        let m = v.get("metrics").expect("metrics");
        assert!(m.to_string().contains("serve.frames"), "{m:?}");

        // The metrics op ships a valid Prometheus exposition.
        send_line(&mut tx, r#"{"op":"metrics"}"#);
        let v = read_json(&mut rx);
        assert_eq!(v.get("type").and_then(Json::as_str), Some("metrics"));
        let expo = v
            .get("exposition")
            .and_then(Json::as_str)
            .expect("exposition text");
        let stats = swr_telemetry::validate_exposition(expo).expect("exposition validates");
        assert!(stats.counters["swr_serve_frames_total"] >= 1.0);

        send_line(&mut tx, r#"{"op":"bye"}"#);
        assert_eq!(
            read_json(&mut rx).get("type").and_then(Json::as_str),
            Some("bye")
        );
        handle.shutdown().expect("clean shutdown");
    }

    #[test]
    fn expose_sidecar_serves_http_scrapes_and_logs_session_events() {
        use std::io::Read;
        let handle = spawn(ServeConfig {
            expose: Some("127.0.0.1:0".into()),
            ..ServeConfig::default()
        })
        .expect("spawn");
        let events = handle.events();
        // One quick protocol session so the scrape has something to show.
        let (mut rx, mut tx) = connect(handle.addr);
        send_line(
            &mut tx,
            r#"{"op":"hello","phantom":"mri","base":20,"seed":11,"threads":1}"#,
        );
        let _ = read_json(&mut rx);
        send_line(&mut tx, r#"{"op":"render","id":1}"#);
        let v = read_json(&mut rx);
        assert_eq!(v.get("type").and_then(Json::as_str), Some("frame"), "{v:?}");
        send_line(&mut tx, r#"{"op":"bye"}"#);
        let _ = read_json(&mut rx);

        let addr = handle.expose_addr.expect("sidecar bound");
        let scrape = |label: &str| -> String {
            let mut s = TcpStream::connect(addr).expect(label);
            s.set_read_timeout(Some(Duration::from_secs(30)))
                .expect("read timeout");
            s.write_all(b"GET /metrics HTTP/1.0\r\n\r\n").expect(label);
            let mut buf = String::new();
            s.read_to_string(&mut buf).expect(label);
            assert!(buf.starts_with("HTTP/1.0 200 OK"), "{label}: {buf}");
            assert!(
                buf.contains(swr_telemetry::EXPOSITION_CONTENT_TYPE),
                "{label}: {buf}"
            );
            buf.split("\r\n\r\n").nth(1).expect(label).to_string()
        };
        let first = swr_telemetry::validate_exposition(&scrape("first")).expect("first valid");
        let second = swr_telemetry::validate_exposition(&scrape("second")).expect("second valid");
        assert!(first.counters["swr_serve_frames_total"] >= 1.0);
        // Counters are monotone across scrapes; the scrape counter proves
        // both scrapes were really served.
        assert!(
            second.counters["swr_serve_scrapes_total"] > first.counters["swr_serve_scrapes_total"]
        );
        handle.shutdown().expect("clean shutdown");
        let kinds: Vec<String> = events
            .recent()
            .iter()
            .filter_map(|e| e.get("event").and_then(Json::as_str).map(String::from))
            .collect();
        assert!(kinds.contains(&"session_open".to_string()), "{kinds:?}");
        assert!(kinds.contains(&"session_close".to_string()), "{kinds:?}");
    }
}
