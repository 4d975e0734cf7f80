//! `serve_mri128_px`: request → pixels through `swr-serve` over real TCP on
//! loopback. Two closed-loop client sessions (one render thread each) orbit
//! the MRI brain at 128×128×83 and ask for the pixels; the frame is small,
//! so hex serialisation, the socket and the session queue are a large share
//! of every request.

use crate::harness::{
    build_encoded, reference_frames, Args, Check, FrameRef, LapOutcome, Scene, TracedLaps, Workload,
};
use crate::metrics::Layers;
use crate::ops::{client_offsets, orbit_angles, orbit_views, PHANTOM_SEED, TILT_DEG};
use crate::procfs;
use crate::span::Recorder;
use crate::stats::{percentile, Lap};
use shearwarp::geom::ViewSpec;
use shearwarp::render::VolumeSrc;
use shearwarp::serve::{self, ServeConfig, ServerHandle};
use shearwarp::shard::codec::fnv1a64;
use shearwarp::telemetry::Json;
use shearwarp::volume::{EncodedVolume, Phantom};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Instant;

const BASE: usize = 128;
const CLIENTS: usize = 2;
/// Each client goes round the orbit twice per lap: 400 requests a lap.
const ORBITS_PER_LAP: usize = 2;

struct Client {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    next_id: u64,
}

/// The fields of a frame response the untraced client looks at: found by
/// scanning the short header in front of the pixel payload, so the client
/// spends no CPU parsing 300 KiB of hex it only needs the length of.
#[derive(Debug)]
struct Head {
    hash: String,
    /// Hex digits in the `pixels` string, when present.
    pixels_len: Option<usize>,
    expected_pixels_len: usize,
}

fn field<'a>(head: &'a str, key: &str) -> Result<&'a str, String> {
    let start = head
        .find(key)
        .ok_or_else(|| format!("response lacks {key}: {head}"))?
        + key.len();
    let rest = &head[start..];
    let end = rest.find([',', '}', '"']).unwrap_or(rest.len());
    Ok(&rest[..end])
}

/// Checks `ok`, `quality: full` and `repaired: false`, and extracts the
/// hash and the pixel payload's length. Anything else — a typed error, a
/// shed, a reduced or serial frame — is a failed op.
fn scan_response(line: &str) -> Result<Head, String> {
    let line = line.trim_end();
    let head = &line[..line.len().min(400)];
    if !head.starts_with("{\"ok\":true,\"type\":\"frame\"") {
        return Err(format!("not a frame: {head}"));
    }
    if field(head, "\"quality\":\"")? != "full" || field(head, "\"repaired\":")? != "false" {
        return Err(format!("below full quality: {head}"));
    }
    let dim = |key| -> Result<usize, String> {
        field(head, key)?.parse().map_err(|e| format!("{key} {e}"))
    };
    let pixels_len = head
        .find("\"pixels\":\"")
        .map(|at| line.len() - (at + "\"pixels\":\"".len()) - "\"}".len());
    Ok(Head {
        hash: field(head, "\"hash\":\"")?.to_string(),
        pixels_len,
        expected_pixels_len: dim("\"width\":")? * dim("\"height\":")? * 8,
    })
}

/// Traced lap only: full JSON parse, hex decode and re-hash of the payload.
fn deep_check(line: &str, reference: &str) -> Result<(), String> {
    let doc = Json::parse(line).map_err(|e| format!("response JSON: {e}"))?;
    let hex = doc
        .get("pixels")
        .and_then(Json::as_str)
        .ok_or("response has no pixels")?
        .as_bytes();
    let nibble = |c: u8| (c as char).to_digit(16).map(|d| d as u8);
    let bytes: Option<Vec<u8>> = hex
        .chunks(2)
        .map(|p| Some(nibble(p[0])? << 4 | nibble(*p.get(1)?)?))
        .collect();
    let hash = format!("{:016x}", fnv1a64(&bytes.ok_or("pixels are not hex")?));
    if hash == reference {
        Ok(())
    } else {
        Err(format!("decoded pixels hash {hash} != serial {reference}"))
    }
}

impl Client {
    fn connect(server: &ServerHandle) -> Result<Client, String> {
        let stream = TcpStream::connect(server.addr).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Client {
            reader: BufReader::with_capacity(1 << 20, stream),
            writer,
            next_id: 1,
        })
    }

    /// One request line out, one response line in.
    fn exchange(&mut self, request: &str, response: &mut String) -> Result<(), String> {
        self.writer
            .write_all(request.as_bytes())
            .map_err(|e| format!("send: {e}"))?;
        response.clear();
        match self.reader.read_line(response) {
            Ok(0) => Err("server closed the connection".into()),
            Ok(_) => Ok(()),
            Err(e) => Err(format!("receive: {e}")),
        }
    }

    fn hello(&mut self, base: usize, seed: u64) -> Result<f64, String> {
        let line = format!(
            "{{\"op\":\"hello\",\"phantom\":\"mri\",\"base\":{base},\"seed\":{seed},\"threads\":1}}\n"
        );
        let mut response = String::new();
        let t = Instant::now();
        self.exchange(&line, &mut response)?;
        let ms = t.elapsed().as_secs_f64() * 1e3;
        if response.starts_with("{\"ok\":true,\"type\":\"hello\"") {
            Ok(ms)
        } else {
            Err(format!("hello refused: {}", response.trim_end()))
        }
    }
}

pub(super) fn render_line(id: u64, angle_y: f64, want_pixels: bool) -> String {
    format!(
        "{{\"op\":\"render\",\"id\":{id},\"angle_x\":{TILT_DEG},\"angle_y\":{angle_y},\"zoom\":1,\"frames\":1,\"want_pixels\":{want_pixels}}}\n"
    )
}

/// What one request produced, kept for verification after the lap.
struct Exchange {
    view: usize,
    head: Result<Head, String>,
    /// The whole response line (traced laps only).
    line: Option<String>,
}

pub struct Serve {
    /// `Some` until drop, which shuts the server down.
    server: Option<ServerHandle>,
    clients: Vec<Client>,
    base: usize,
    seed: u64,
    angles: Vec<f64>,
    offsets: Vec<usize>,
    hello_ms: Vec<f64>,
    enc: Option<EncodedVolume>,
    views: Vec<ViewSpec>,
    refs: Vec<FrameRef>,
}

impl Drop for Serve {
    fn drop(&mut self) {
        self.clients.clear();
        if let Some(server) = self.server.take() {
            if let Err(e) = server.shutdown() {
                eprintln!("swr-e2e: server shutdown: {e}");
            }
        }
    }
}

impl Serve {
    /// Both clients, concurrently and closed-loop, `per_client` requests
    /// each; verification after the clock stops.
    fn drive(&mut self, per_client: usize, want_pixels: bool, rec: &mut Recorder) -> LapOutcome {
        let (angles, offsets) = (&self.angles, &self.offsets);
        let keep_lines = rec.enabled() && want_pixels;
        let cpu0 = procfs::cpu_ms(&[]);
        let t_lap = Instant::now();
        let per_thread: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = self
                .clients
                .iter_mut()
                .zip(offsets)
                .map(|(client, &offset)| {
                    let mut rec = rec.fork();
                    s.spawn(move || {
                        let mut lat_ms = Vec::with_capacity(per_client);
                        let mut done = Vec::with_capacity(per_client);
                        let mut response = String::new();
                        for k in 0..per_client {
                            let view = (offset + k) % angles.len();
                            let id = client.next_id;
                            client.next_id += 1;
                            let request = render_line(id, angles[view], want_pixels);
                            let t = Instant::now();
                            let root = rec.enter("op", id);
                            let wire = rec.enter("serve.request", id);
                            let got = client.exchange(&request, &mut response);
                            rec.exit(wire);
                            let head = rec.time("serve.client_scan", id, || {
                                got.and_then(|()| scan_response(&response))
                            });
                            rec.exit(root);
                            lat_ms.push(t.elapsed().as_secs_f64() * 1e3);
                            done.push(Exchange {
                                view,
                                head,
                                line: keep_lines.then(|| response.clone()),
                            });
                        }
                        (lat_ms, done, rec)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("client thread panicked"))
                .collect()
        });
        let wall_s = t_lap.elapsed().as_secs_f64();
        let cpu_ms = procfs::cpu_ms(&[]) - cpu0;

        let mut lap = Lap {
            wall_s,
            cpu_ms,
            lat_ms: Vec::new(),
            streams: CLIENTS,
            coupled: false,
        };
        let mut check = Check::default();
        for (lat_ms, done, fork) in per_thread {
            rec.absorb(fork);
            lap.lat_ms.extend(lat_ms);
            for x in done {
                let reference = &self.refs[x.view].fnv;
                let verdict = x.head.and_then(|h| {
                    if h.hash != *reference {
                        return Err(format!("hash {} != serial {reference}", h.hash));
                    }
                    if want_pixels && h.pixels_len != Some(h.expected_pixels_len) {
                        return Err(format!("pixel payload length {:?}", h.pixels_len));
                    }
                    x.line.map_or(Ok(()), |l| deep_check(&l, reference))
                });
                match verdict {
                    Ok(()) => check.pass(),
                    Err(e) => check.fail(format!("serve view {}: {e}", x.view)),
                }
            }
        }
        LapOutcome {
            lap,
            check,
            notes: Vec::new(),
        }
    }
}

impl Workload for Serve {
    fn setup(args: &Args, rec: &mut Recorder) -> Result<Self, String> {
        let server = rec
            .time("serve.spawn", 0, || {
                serve::spawn(ServeConfig {
                    budget: CLIENTS,
                    max_threads_per_session: 1,
                    flight_dir: None,
                    ..ServeConfig::default()
                })
            })
            .map_err(|e| format!("spawn: {e}"))?;
        let base = BASE / args.shrink;
        let mut clients = Vec::new();
        let mut hello_ms = Vec::new();
        for _ in 0..CLIENTS {
            let mut c = Client::connect(&server)?;
            // The first hello builds the volume; the second finds it cached.
            hello_ms.push(rec.time("serve.hello", 0, || c.hello(base, PHANTOM_SEED))?);
            clients.push(c);
        }
        let angles = orbit_angles(args.seed);
        let offsets = client_offsets(args.seed, CLIENTS);
        let mut response = String::new();
        rec.time("serve.request", 0, || {
            clients[0].exchange(&render_line(0, angles[offsets[0]], true), &mut response)
        })?;
        scan_response(&response).map_err(|e| format!("first frame: {e}"))?;
        Ok(Serve {
            server: Some(server),
            clients,
            base,
            seed: args.seed,
            angles,
            offsets,
            hello_ms,
            enc: None,
            views: Vec::new(),
            refs: Vec::new(),
        })
    }

    fn reference(&mut self, rec: &mut Recorder) {
        // The server's volume is private; the same recipe gives the same
        // bits, which the hash comparison over the socket then proves.
        let enc = build_encoded(Phantom::MriBrain, self.base, PHANTOM_SEED, rec);
        self.views = orbit_views(self.seed, enc.dims(), 1.0);
        self.refs = reference_frames(VolumeSrc::Flat(&enc), &self.views);
        self.enc = Some(enc);
    }

    fn pass(&mut self, ops: usize, rec: &mut Recorder) -> LapOutcome {
        self.drive(ORBITS_PER_LAP * ops, true, rec)
    }

    fn scene(&self) -> Scene<'_> {
        Scene {
            enc: self.enc.as_ref().expect("reference() ran"),
            views: &self.views,
            refs: &self.refs,
            seed: self.seed,
            shrink: BASE / self.base,
        }
    }

    fn probe_local(&mut self, run: &TracedLaps, layers: &mut Layers, check: &mut Check) {
        layers.set("serve.hello_cold_ms", self.hello_ms[0]);
        layers.set("serve.hello_warm_ms", self.hello_ms[1]);

        // What is left of a request once the census's replay of the
        // server-side steps (parse, 1-thread render, serialise + hash) is
        // taken out: socket, queue and scheduling. A residual — slightly
        // negative when the replay over-estimates.
        let replayed = |name: &str| layers.get(name).expect("the census ran");
        let accounted = replayed("serve.parse_us") / 1e3
            + replayed("serve.render_ms")
            + replayed("serve.serialize_ms");
        let p50 = percentile(&run.untraced.lap.lat_ms, 0.5);
        layers.set("serve.wire_ms", p50 - accounted);

        // The bypass: the same lap without the pixel payload.
        let mut off = Recorder::new(false);
        let no_pixels = self.drive(run.untraced.lap.lat_ms.len() / CLIENTS, false, &mut off);
        layers.set("serve.nopixels_frames_per_s", no_pixels.lap.rate());
        check.merge(no_pixels.check);

        let metrics = self
            .server
            .as_ref()
            .expect("server runs until drop")
            .metrics();
        for name in ["serve.retries", "serve.shed", "serve.serial_fallbacks"] {
            layers.set(name, metrics.counter(name) as f64);
        }
    }
}
