//! Harness-side span recorder. Spans wrap the harness's *calls into* each
//! layer's public functions (spans inside the program are a later change):
//! name, start, end, parent and op id, kept in memory and written out when
//! the traced lap ends. A layer's self time is its span minus the part its
//! children cover; what an op's children do not cover is reported as
//! `unattributed`, so what outside timing cannot see is a number.

use shearwarp::telemetry::Json;
use std::time::Instant;

/// One recorded interval, in microseconds since the recorder was created.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub start_us: f64,
    pub end_us: f64,
    /// Index of the enclosing span, `None` for an op root.
    pub parent: Option<usize>,
    /// The op every span of one request shares.
    pub op: u64,
}

impl Span {
    pub fn dur_us(&self) -> f64 {
        self.end_us - self.start_us
    }
}

/// Handle returned by [`Recorder::enter`]; `None` when recording is off.
#[derive(Debug, Clone, Copy)]
#[must_use = "pass the handle back to Recorder::exit"]
pub struct Open(Option<usize>);

/// In-memory span log with an enter/exit stack. Disabled (the default for
/// every untraced run) it records nothing and costs one branch per call.
#[derive(Debug)]
pub struct Recorder {
    t0: Instant,
    enabled: bool,
    spans: Vec<Span>,
    stack: Vec<usize>,
}

impl Recorder {
    pub fn new(enabled: bool) -> Self {
        Recorder {
            t0: Instant::now(),
            enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    pub fn enabled(&self) -> bool {
        self.enabled
    }

    /// An empty recorder on the same clock, for another thread; merge it
    /// back with [`Recorder::absorb`].
    pub fn fork(&self) -> Recorder {
        Recorder {
            t0: self.t0,
            enabled: self.enabled,
            spans: Vec::new(),
            stack: Vec::new(),
        }
    }

    /// Appends a finished fork's spans, re-basing their parent indices.
    pub fn absorb(&mut self, fork: Recorder) {
        assert!(fork.stack.is_empty(), "absorbing a fork with open spans");
        let base = self.spans.len();
        self.spans.extend(fork.spans.into_iter().map(|mut s| {
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    fn now_us(&self) -> f64 {
        self.t0.elapsed().as_secs_f64() * 1e6
    }

    /// Opens a span under the innermost open span.
    pub fn enter(&mut self, name: &'static str, op: u64) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let id = self.spans.len();
        let now = self.now_us();
        self.spans.push(Span {
            name,
            start_us: now,
            end_us: now,
            parent: self.stack.last().copied(),
            op,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Closes a span; spans close innermost-first.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let top = self.stack.pop();
        assert_eq!(top, Some(id), "spans must close innermost-first");
        self.spans[id].end_us = self.now_us();
    }

    /// Times `f` as a span.
    pub fn time<R>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> R) -> R {
        let open = self.enter(name, op);
        let r = f();
        self.exit(open);
        r
    }

    pub fn into_log(self) -> SpanLog {
        assert!(self.stack.is_empty(), "unclosed spans at end of lap");
        SpanLog { spans: self.spans }
    }
}

/// A finished span forest.
#[derive(Debug, Clone, Default)]
pub struct SpanLog {
    pub spans: Vec<Span>,
}

impl SpanLog {
    /// Checks the tree shape: every child lies inside its parent, shares
    /// its op id, and siblings do not overlap.
    pub fn validate(&self) -> Result<(), String> {
        let mut last_child_end: Vec<f64> = self.spans.iter().map(|s| s.start_us).collect();
        for (i, s) in self.spans.iter().enumerate() {
            if s.end_us < s.start_us {
                return Err(format!("span {i} {:?} ends before it starts", s.name));
            }
            let Some(p) = s.parent else { continue };
            if p >= i {
                return Err(format!("span {i} names a later parent {p}"));
            }
            let parent = &self.spans[p];
            if s.start_us < parent.start_us || s.end_us > parent.end_us {
                return Err(format!(
                    "span {i} {:?} escapes its parent {:?}",
                    s.name, parent.name
                ));
            }
            if s.op != parent.op {
                return Err(format!("span {i} {:?} changes op id", s.name));
            }
            if s.start_us < last_child_end[p] {
                return Err(format!("span {i} {:?} overlaps a sibling", s.name));
            }
            last_child_end[p] = s.end_us;
        }
        Ok(())
    }

    /// Span duration minus the part direct children cover.
    pub fn self_us(&self, idx: usize) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent == Some(idx))
            .map(Span::dur_us)
            .sum();
        self.spans[idx].dur_us() - covered
    }

    /// Indices of op roots (spans without a parent).
    pub fn roots(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.spans.len()).filter(|&i| self.spans[i].parent.is_none())
    }

    /// Per op root: the op's latency not covered by any layer span — the
    /// root's own self time.
    pub fn unattributed_us(&self) -> Vec<f64> {
        self.roots().map(|r| self.self_us(r)).collect()
    }

    pub fn to_json(&self, workload: &str) -> Json {
        let spans = self
            .spans
            .iter()
            .enumerate()
            .map(|(i, s)| {
                Json::obj()
                    .with("id", Json::U64(i as u64))
                    .with("name", Json::Str(s.name.into()))
                    .with("start_us", Json::F64(s.start_us))
                    .with("end_us", Json::F64(s.end_us))
                    .with(
                        "parent",
                        s.parent.map_or(Json::Null, |p| Json::U64(p as u64)),
                    )
                    .with("op", Json::U64(s.op))
            })
            .collect();
        Json::obj()
            .with("schema", Json::Str("swr-e2e-spans/1".into()))
            .with("workload", Json::Str(workload.into()))
            .with("unit", Json::Str("us".into()))
            .with("spans", Json::Arr(spans))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn busy(us: u64) {
        let t = Instant::now();
        while t.elapsed().as_micros() < u128::from(us) {
            std::hint::spin_loop();
        }
    }

    fn sample_log() -> SpanLog {
        let mut rec = Recorder::new(true);
        for op in 0..5u64 {
            let root = rec.enter("op", op);
            rec.time("geom.factorize", op, || busy(50));
            let render = rec.enter("core.render", op);
            rec.time("render.composite", op, || busy(300));
            rec.time("render.warp", op, || busy(100));
            busy(40);
            rec.exit(render);
            busy(60);
            rec.exit(root);
        }
        rec.into_log()
    }

    #[test]
    fn every_child_lies_inside_its_parent() {
        let log = sample_log();
        log.validate().expect("well-formed tree");
        assert_eq!(log.spans.len(), 25);
        assert_eq!(log.roots().count(), 5);
    }

    #[test]
    fn self_times_plus_unattributed_sum_to_the_op() {
        let log = sample_log();
        let unattributed = log.unattributed_us();
        for (n, root) in log.roots().enumerate() {
            let op = log.spans[root].op;
            let attributed: f64 = (0..log.spans.len())
                .filter(|&i| log.spans[i].op == op && log.spans[i].parent.is_some())
                .map(|i| log.self_us(i))
                .sum();
            let total = log.spans[root].dur_us();
            let gap = (attributed + unattributed[n] - total).abs();
            assert!(gap <= 0.01 * total, "op {op}: {gap} us off {total} us");
            assert!(
                unattributed[n] >= 60.0,
                "the root's own work is unattributed"
            );
        }
    }

    #[test]
    fn validate_rejects_escaping_and_overlapping_children() {
        let span = |name, start_us, end_us, parent| Span {
            name,
            start_us,
            end_us,
            parent,
            op: 0,
        };
        let escaping = SpanLog {
            spans: vec![span("op", 0.0, 10.0, None), span("x", 5.0, 11.0, Some(0))],
        };
        assert!(escaping.validate().is_err());
        let overlapping = SpanLog {
            spans: vec![
                span("op", 0.0, 10.0, None),
                span("x", 1.0, 5.0, Some(0)),
                span("y", 4.0, 6.0, Some(0)),
            ],
        };
        assert!(overlapping.validate().is_err());
    }

    #[test]
    fn disabled_recorder_records_nothing() {
        let mut rec = Recorder::new(false);
        let o = rec.enter("op", 1);
        rec.time("x", 1, || ());
        rec.exit(o);
        assert!(rec.into_log().spans.is_empty());
    }

    #[test]
    fn forks_share_the_clock_and_keep_their_parents() {
        let mut rec = Recorder::new(true);
        let o = rec.enter("op", 0);
        rec.exit(o);
        let mut fork = rec.fork();
        let root = fork.enter("op", 1);
        fork.time("serve.request", 1, || busy(20));
        fork.exit(root);
        rec.absorb(fork);
        let log = rec.into_log();
        log.validate().expect("parents re-based");
        assert_eq!(log.spans[2].parent, Some(1));
        assert!(log.spans[1].start_us >= log.spans[0].end_us, "one clock");
    }

    #[test]
    fn json_round_trips_through_the_library_parser() {
        let log = sample_log();
        let text = log.to_json("unit").to_string();
        let doc = Json::parse(&text).expect("valid JSON");
        assert_eq!(
            doc.get("spans").and_then(Json::as_arr).map(<[Json]>::len),
            Some(25)
        );
    }
}
