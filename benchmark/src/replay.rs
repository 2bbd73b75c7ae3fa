//! The traced replay: the same frames, schedule and connection count as
//! the end-to-end window, run in-process through each layer's public
//! functions instead of a socket. Like `soc serve`, each simulated
//! connection handles one frame at a time, and solve jobs run on a
//! two-thread `soc_pool::Service`. Spans are recorded here, around the
//! calls into the crates, never inside them; they stay in memory until
//! the run ends.
//!
//! The solve path is `run_solve` of `soc-serve` split at its layer
//! boundary: `Projected(algo).solve(inst)` is exactly
//! `inst.reduced().solve_with(&algo, inst)`, so projection and the
//! solver are timed separately without changing the work.

use std::collections::HashMap;
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc, Mutex};
use std::time::Duration;

use soc_core::{default_clusters, SketchSolver, SocInstance};
use soc_data::{io, QueryLog, Tuple};
use soc_obs::MetricValue;
use soc_pool::Service;
use soc_serve::json::{self, Json};
use soc_serve::proto::{parse_frame, reply_frame};
use soc_serve::{Algo, Request, SessionStore, SolveParams};

use crate::client::{request_short_slice, Clock};
use crate::workload::{Pacing, Workload, HELLO};

/// Solver threads, as `soc serve --threads 2`.
pub const POOL_THREADS: usize = 2;

/// Request ids of the set-up frames. Window frame `i` runs as request
/// `i + 1`, so every id below `SETUP_HELLO` belongs to the window.
pub const SETUP_HELLO: u64 = 1 << 62;
pub const SETUP_LOAD: u64 = SETUP_HELLO + 1;
pub const SETUP_WARMUP: u64 = SETUP_HELLO + 2;

/// One timed call. `parent` is 0 for a frame's root span.
#[derive(Clone, Debug)]
pub struct Span {
    pub name: &'static str,
    pub id: u64,
    pub parent: u64,
    pub request: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

impl Span {
    pub fn json(&self) -> String {
        format!(
            "{{\"name\":\"{}\",\"id\":{},\"parent\":{},\"request\":{},\"start_ns\":{},\"dur_ns\":{}}}",
            self.name, self.id, self.parent, self.request, self.start_ns, self.dur_ns
        )
    }
}

/// In-memory span and sample store. Disabled, it runs the wrapped
/// calls and records nothing: the untraced replay that measures the
/// tracing overhead.
pub struct Recorder {
    on: bool,
    clock: Clock,
    next_id: AtomicU64,
    spans: Mutex<Vec<Span>>,
    samples: Mutex<Vec<(&'static str, f64)>>,
}

impl Recorder {
    fn new(on: bool, clock: Clock) -> Self {
        Self {
            on,
            clock,
            next_id: AtomicU64::new(1),
            spans: Mutex::new(Vec::new()),
            samples: Mutex::new(Vec::new()),
        }
    }

    /// Runs `f` (given its span id) inside span `name`.
    fn span<T>(
        &self,
        name: &'static str,
        parent: u64,
        request: u64,
        f: impl FnOnce(u64) -> T,
    ) -> T {
        if !self.on {
            return f(0);
        }
        let id = self.next_id.fetch_add(1, Ordering::Relaxed);
        let start_ns = self.clock.now();
        let out = f(id);
        let dur_ns = self.clock.now() - start_ns;
        self.spans.lock().expect("span store poisoned").push(Span {
            name,
            id,
            parent,
            request,
            start_ns,
            dur_ns,
        });
        out
    }

    /// Records one value of a window request (set-up requests are
    /// left out).
    fn sample(&self, request: u64, name: &'static str, value: f64) {
        if self.on && request < SETUP_HELLO {
            self.samples
                .lock()
                .expect("sample store poisoned")
                .push((name, value));
        }
    }
}

/// What one simulated connection observed.
#[derive(Default)]
struct ConnOut {
    solve_lat_ms: Vec<f64>,
    ingest_lat_ms: Vec<f64>,
    answers: Vec<(usize, usize, u64)>,
    failed: usize,
    last_ns: u64,
}

/// The replay's stand-in for the server: session table, solver pool
/// and the bookkeeping that finds the first solve on a new log.
struct Engine {
    store: SessionStore,
    service: Service,
    rec: Arc<Recorder>,
    /// Bumped by every load and ingest.
    generation: AtomicU64,
    /// The newest generation whose index a job has touched.
    indexed: Arc<Mutex<u64>>,
}

impl Engine {
    fn handle(&self, text: &str, op: Option<usize>, request: u64, due: u64, out: &mut ConnOut) {
        let rec = &*self.rec;
        let ok = rec.span("serve.frame", 0, request, |frame_id| {
            let frame = rec.span("serve.frame_parse", frame_id, request, |_| {
                parse_frame(text)
            });
            let id = frame.id.as_ref();
            let reply = |ty: &str, fields: Vec<(&'static str, Json)>| {
                black_box(rec.span("serve.reply", frame_id, request, |_| {
                    reply_frame(ty, id, fields)
                }));
            };
            // `load` and `ingest`. The parse inside the session call cannot
            // be wrapped from outside, so the same text is parsed once
            // more on its own, after the call; the session span minus
            // this one is the session layer's own cost.
            let mutate = |load: bool, session: String, data: String| {
                let info = if load {
                    rec.span("serve.session_load", frame_id, request, |_| {
                        self.store.load(&session, &data)
                    })
                } else {
                    rec.span("serve.session_ingest", frame_id, request, |_| {
                        self.store.ingest(&session, &data)
                    })
                };
                let _ = black_box(rec.span("data.log_parse", frame_id, request, |_| {
                    io::parse_query_log(&data)
                }));
                self.generation.fetch_add(1, Ordering::SeqCst);
                let Ok(info) = info else { return false };
                reply(
                    if load { "load_ok" } else { "ingest_ok" },
                    vec![
                        ("session", json::s(session.as_str())),
                        ("queries", json::nu(info.queries as u64)),
                        ("total_weight", json::nu(info.total_weight as u64)),
                        ("attrs", json::nu(info.attrs as u64)),
                    ],
                );
                true
            };
            match frame.body {
                Ok(Request::Hello { .. }) => {
                    reply(
                        "hello_ok",
                        vec![("version", json::nu(1)), ("server", json::s("soc-serve"))],
                    );
                    true
                }
                Ok(Request::Load { session, data }) => mutate(true, session, data),
                Ok(Request::Ingest { session, data }) => {
                    let ok = mutate(false, session, data);
                    if op.is_some() {
                        out.ingest_lat_ms
                            .push(rec.clock.now().saturating_sub(due) as f64 / 1e6);
                    }
                    ok
                }
                Ok(Request::Solve { params, tuple }) => self.solve_frame(
                    frame_id,
                    request,
                    id,
                    &params,
                    &[tuple],
                    false,
                    op,
                    due,
                    out,
                ),
                Ok(Request::SolveBatch { params, tuples }) => {
                    self.solve_frame(frame_id, request, id, &params, &tuples, true, op, due, out)
                }
                _ => false,
            }
        });
        if !ok {
            out.failed += 1;
        }
        out.last_ns = self.rec.clock.now();
    }

    #[allow(clippy::too_many_arguments)]
    fn solve_frame(
        &self,
        frame_id: u64,
        request: u64,
        id: Option<&Json>,
        params: &SolveParams,
        tuples: &[String],
        batch: bool,
        op: Option<usize>,
        due: u64,
        out: &mut ConnOut,
    ) -> bool {
        let rec = &self.rec;
        let Ok(log) = self.store.get(&params.session) else {
            return false;
        };
        let generation = self.generation.load(Ordering::SeqCst);
        let (tx, rx) = mpsc::channel();
        for (slot, bits) in tuples.iter().enumerate() {
            let Some(tuple) =
                Tuple::from_bitstring(bits).filter(|t| t.universe() == log.num_attrs())
            else {
                return false;
            };
            let (tx, log, rec, indexed, params) = (
                tx.clone(),
                Arc::clone(&log),
                Arc::clone(rec),
                Arc::clone(&self.indexed),
                params.clone(),
            );
            let submitted = rec.clock.now();
            let job = move || {
                rec.sample(
                    request,
                    "pool.queue_wait_us",
                    rec.clock.now().saturating_sub(submitted) as f64 / 1e3,
                );
                let solved = rec.span("pool.job", frame_id, request, |job_id| {
                    solve(
                        &rec, job_id, request, &log, &tuple, &params, generation, &indexed,
                    )
                });
                let _ = tx.send((slot, solved));
            };
            if self.service.submit(job).is_err() {
                return false;
            }
        }
        drop(tx);
        for _ in 0..tuples.len() {
            let Ok((slot, (retained, satisfied))) = rx.recv() else {
                return false;
            };
            let fields = if batch {
                vec![
                    ("index", json::nu(slot as u64)),
                    ("retained", json::s(retained)),
                    ("satisfied", json::nu(satisfied as u64)),
                ]
            } else {
                vec![
                    ("retained", json::s(retained)),
                    ("satisfied", json::nu(satisfied as u64)),
                    ("algo", json::s(params.algo.as_str())),
                    ("request", json::nu(request)),
                ]
            };
            let ty = if batch { "solve_result" } else { "solve_ok" };
            black_box(rec.span("serve.reply", frame_id, request, |_| {
                reply_frame(ty, id, fields)
            }));
            if let Some(op) = op {
                out.solve_lat_ms
                    .push(rec.clock.now().saturating_sub(due) as f64 / 1e6);
                out.answers.push((op, slot, satisfied as u64));
            }
        }
        if batch {
            let n = json::nu(tuples.len() as u64);
            let fields = vec![
                ("count", n.clone()),
                ("delivered", n),
                ("request", json::nu(request)),
            ];
            black_box(rec.span("serve.reply", frame_id, request, |_| {
                reply_frame("solve_batch_done", id, fields)
            }));
        }
        true
    }
}

/// The span name of a solver call.
fn solver_layer(algo: Algo) -> &'static str {
    match algo {
        Algo::Mfi | Algo::MfiDet => "core.mfi",
        Algo::Attr | Algo::Cumul | Algo::Queries => "core.greedy",
        _ => "core.solve",
    }
}

/// One solve job, as `run_solve` in `soc-serve` does it.
#[allow(clippy::too_many_arguments)]
fn solve(
    rec: &Recorder,
    parent: u64,
    request: u64,
    log: &QueryLog,
    tuple: &Tuple,
    params: &SolveParams,
    generation: u64,
    indexed: &Mutex<u64>,
) -> (String, usize) {
    let instance = SocInstance::new(log, tuple, params.m);
    let solution = match params.algo {
        Algo::Sketch => {
            let solver = SketchSolver::new(
                params
                    .clusters
                    .unwrap_or_else(|| default_clusters(log.len())),
            );
            let outcome = rec.span("core.sketch", parent, request, |_| {
                solver.solve_bracketed(&instance)
            });
            rec.sample(
                request,
                "core.sketch.refine_queries",
                outcome.refine_queries as f64,
            );
            outcome.solution
        }
        algo if params.project => {
            let reduced = rec.span("data.project", parent, request, |_| instance.reduced());
            rec.sample(
                request,
                "data.project_kept",
                reduced.log().total_weight() as f64,
            );
            rec.sample(request, "data.project_scanned", log.total_weight() as f64);
            rec.sample(
                request,
                "data.projected_width",
                reduced.log().num_attrs() as f64,
            );
            let solver = algo.build();
            rec.span(solver_layer(algo), parent, request, |_| {
                reduced.solve_with(&*solver, &instance)
            })
        }
        algo => {
            // The first full-width solve on a new log builds its index.
            let first = {
                let mut last = indexed.lock().expect("index tracker poisoned");
                let first = *last < generation;
                *last = (*last).max(generation);
                first
            };
            if first {
                rec.span("data.index_build", parent, request, |_| {
                    black_box(log.index());
                });
            }
            let solver = algo.build();
            rec.span(solver_layer(algo), parent, request, |_| {
                solver.solve(&instance)
            })
        }
    };
    (solution.retained.to_bitstring(), solution.satisfied)
}

/// Counter values and histogram/sketch sums of the metric registry.
fn registry_values() -> HashMap<String, f64> {
    soc_obs::registry()
        .snapshot()
        .rows
        .into_iter()
        .map(|row| {
            let v = match row.value {
                MetricValue::Counter(c) => c as f64,
                MetricValue::Gauge(g) => g as f64,
                MetricValue::Histogram(h) => h.sum as f64,
                MetricValue::Sketch(s) => s.sum as f64,
                MetricValue::Float(f) => f,
            };
            (row.name, v)
        })
        .collect()
}

/// Everything one replay observed.
pub struct Replay {
    pub setup_s: f64,
    pub solve_lat_ms: Vec<f64>,
    pub ingest_lat_ms: Vec<f64>,
    /// `(frame, slot, satisfied)` for every window answer.
    pub answers: Vec<(usize, usize, u64)>,
    pub failed: usize,
    /// From the first due time to the last finished frame.
    pub wall_s: f64,
    pub spans: Vec<Span>,
    pub samples: HashMap<&'static str, Vec<f64>>,
    /// Registry movement over the window (counters; sums for
    /// histograms and sketches).
    pub counters: HashMap<String, f64>,
}

pub fn replay(w: &Workload, seconds: f64, traced: bool) -> Replay {
    soc_obs::enable_metrics();
    let clock = Clock::new();
    let rec = Arc::new(Recorder::new(traced, clock));
    let engine = Engine {
        store: SessionStore::new(4),
        service: Service::new(POOL_THREADS),
        rec: Arc::clone(&rec),
        generation: AtomicU64::new(0),
        indexed: Arc::new(Mutex::new(0)),
    };

    let mut setup = ConnOut::default();
    let t0 = clock.now();
    engine.handle(HELLO, None, SETUP_HELLO, t0, &mut setup);
    engine.handle(&w.load_frame(), None, SETUP_LOAD, t0, &mut setup);
    engine.handle(&w.warmup_frame(), None, SETUP_WARMUP, t0, &mut setup);
    let setup_s = clock.now().saturating_sub(t0) as f64 / 1e9;

    let frames: Vec<String> = (0..w.open_frames()).map(|i| w.frame(i)).collect();
    let period_ns = w.period_s() * 1e9;
    let before = registry_values();
    let start = clock.now() + 2_000_000;
    let stop = start + (seconds * 1e9) as u64;
    let next = AtomicUsize::new(0);
    let outs: Vec<ConnOut> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..w.conns)
            .map(|c| {
                let (engine, frames, next) = (&engine, &frames, &next);
                s.spawn(move || {
                    // These threads also play the load generator, whose
                    // sends the e2e window makes punctual the same way.
                    request_short_slice();
                    let mut out = ConnOut::default();
                    match w.pacing {
                        Pacing::Open { .. } => {
                            for i in (c..frames.len()).step_by(w.conns) {
                                let due = start + (i as f64 * period_ns) as u64;
                                let now = clock.now();
                                if now < due {
                                    std::thread::sleep(Duration::from_nanos(due - now));
                                }
                                engine.handle(&frames[i], Some(i), i as u64 + 1, due, &mut out);
                            }
                        }
                        Pacing::Closed => {
                            while clock.now() < stop {
                                let i = next.fetch_add(1, Ordering::SeqCst);
                                let text = w.frame(i);
                                engine.handle(&text, Some(i), i as u64 + 1, clock.now(), &mut out);
                            }
                        }
                    }
                    out
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("replay connection thread panicked"))
            .collect()
    });
    let after = registry_values();
    drop(engine);

    let mut r = Replay {
        setup_s,
        solve_lat_ms: Vec::new(),
        ingest_lat_ms: Vec::new(),
        answers: Vec::new(),
        failed: setup.failed,
        wall_s: 0.0,
        spans: std::mem::take(&mut *rec.spans.lock().expect("span store poisoned")),
        samples: HashMap::new(),
        counters: after
            .iter()
            .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
            .collect(),
    };
    let mut last = start;
    for out in outs {
        r.solve_lat_ms.extend(out.solve_lat_ms);
        r.ingest_lat_ms.extend(out.ingest_lat_ms);
        r.answers.extend(out.answers);
        r.failed += out.failed;
        last = last.max(out.last_ns);
    }
    r.wall_s = last.saturating_sub(start) as f64 / 1e9;
    for (name, v) in std::mem::take(&mut *rec.samples.lock().expect("sample store poisoned")) {
        r.samples.entry(name).or_default().push(v);
    }
    r
}

/// Each span's self time: its duration minus the union of the
/// intervals its children cover (children on other threads overlap).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
    for s in spans {
        if s.parent != 0 {
            children
                .entry(s.parent)
                .or_default()
                .push((s.start_ns, s.start_ns + s.dur_ns));
        }
    }
    spans
        .iter()
        .map(|s| {
            let (lo, hi) = (s.start_ns, s.start_ns + s.dur_ns);
            let mut iv: Vec<(u64, u64)> = children
                .get(&s.id)
                .map(|c| {
                    c.iter()
                        .map(|&(a, b)| (a.max(lo), b.min(hi)))
                        .filter(|(a, b)| a < b)
                        .collect()
                })
                .unwrap_or_default();
            iv.sort_unstable();
            let (mut covered, mut cur): (u64, Option<(u64, u64)>) = (0, None);
            for (a, b) in iv {
                cur = match cur {
                    Some((ca, cb)) if a <= cb => Some((ca, cb.max(b))),
                    Some((ca, cb)) => {
                        covered += cb - ca;
                        Some((a, b))
                    }
                    None => Some((a, b)),
                };
            }
            if let Some((ca, cb)) = cur {
                covered += cb - ca;
            }
            s.dur_ns - covered
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_ns: u64, dur_ns: u64) -> Span {
        Span {
            name: "t",
            id,
            parent,
            request: 1,
            start_ns,
            dur_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_children() {
        // Parent 0..100; children 10..40 and 30..60 overlap (20..60 covered
        // once), a third child 80..120 is clipped to 80..100.
        let spans = [
            span(1, 0, 0, 100),
            span(2, 1, 10, 30),
            span(3, 1, 30, 30),
            span(4, 1, 80, 40),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 20, 30, 30, 40]);
    }
}
