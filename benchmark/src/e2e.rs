//! The end-to-end run against a real `soc serve` child process: five
//! cold starts (their medians are `setup_s` and `server_rss_mb`), one
//! timed window driven from a
//! single thread, then the server's own counters, its peak RSS and a
//! graceful shutdown — all outside the window.

use std::io;
use std::path::Path;
use std::time::{Duration, Instant};

use soc_serve::json::{self, Json};

use crate::client::{
    proc_status_mb, request_short_slice, roundtrip, wait, Clock, Conn, Pending, ServerProc,
};
use crate::workload::{Pacing, Workload, HELLO};

/// Cold starts per run; `setup_s` is their median.
const COLD_STARTS: usize = 5;

/// Server counters read by a `stats` frame after the window:
/// (reported name, registry name).
const SERVER_COUNTS: [(&str, &str); 6] = [
    ("server.mfi.walk_rounds", "mfi.walk_rounds"),
    ("server.mfi.support_calls", "mfi.support_calls"),
    ("server.pool.service.executed", "pool.service.executed"),
    ("server.pool.parks", "pool.parks"),
    ("server.index.kernel_calls", "index.kernel_calls"),
    ("server.sketch.refine_queries", "sketch.refine_queries"),
];

const SETUP_LIMIT: Duration = Duration::from_secs(60);

/// One solved tuple as the server answered it.
#[derive(Clone, Debug)]
pub struct Answer {
    pub op: usize,
    /// Position within the frame (`solve_batch` index; 0 for `solve`).
    pub slot: usize,
    pub retained: String,
    pub satisfied: u64,
}

/// What the timed window observed.
#[derive(Default)]
pub struct Window {
    pub answers: Vec<Answer>,
    /// Per answered tuple, from the frame's due time to its reply.
    pub solve_lat_ms: Vec<f64>,
    pub ingest_lat_ms: Vec<f64>,
    /// How late each open-loop send left after its due time.
    pub late_ms: Vec<f64>,
    /// Frames sent, in order.
    pub issued: Vec<usize>,
    /// Error frames (each counted once per tuple it carried).
    pub errors: usize,
    pub notes: Vec<String>,
    /// From the first due time to the last reply.
    pub wall_s: f64,
}

pub struct E2e {
    pub setup_s: Vec<f64>,
    /// Peak resident set (`VmHWM`) of each cold start once the log is
    /// loaded, in MiB.
    pub setup_rss_mb: Vec<f64>,
    pub win: Window,
    /// Peak resident set (`VmHWM`) after the window, in MiB.
    pub peak_rss_mb: f64,
    pub server_counts: Vec<(&'static str, f64)>,
    /// Whether the server shut down cleanly after the run.
    pub clean_exit: bool,
}

fn expect_type(line: &str, ty: &str) -> io::Result<Json> {
    let v = json::parse(line).map_err(|e| io::Error::other(format!("bad reply {line:?}: {e}")))?;
    if v.get("type").and_then(Json::as_str) == Some(ty) {
        Ok(v)
    } else {
        Err(io::Error::other(format!("expected {ty}, got {line}")))
    }
}

/// Spawns a server and takes it through `hello`, `load` and one warm-up
/// solve; returns it with the connection, the elapsed seconds and the
/// server's peak resident set once the log is loaded. That figure
/// depends only on input sizes; the warm-up solve's own peak varied
/// 7–20 MB with the seed on `wide_sketch`.
fn cold_start(soc: &Path, w: &Workload) -> io::Result<(ServerProc, Conn, f64, f64)> {
    let t0 = Instant::now();
    let server = ServerProc::spawn(soc)?;
    let mut conn = Conn::connect(server.addr)?;
    expect_type(&roundtrip(&mut conn, HELLO, SETUP_LIMIT)?, "hello_ok")?;
    expect_type(
        &roundtrip(&mut conn, &w.load_frame(), SETUP_LIMIT)?,
        "load_ok",
    )?;
    let rss = proc_status_mb(server.pid(), "VmHWM")?;
    expect_type(
        &roundtrip(&mut conn, &w.warmup_frame(), SETUP_LIMIT)?,
        "solve_ok",
    )?;
    Ok((server, conn, t0.elapsed().as_secs_f64(), rss))
}

fn shutdown(server: ServerProc, mut conn: Conn) -> io::Result<bool> {
    expect_type(
        &roundtrip(&mut conn, "{\"type\":\"shutdown\"}", SETUP_LIMIT)?,
        "shutdown_ok",
    )?;
    drop(conn);
    Ok(server.finish(Duration::from_secs(20)))
}

pub fn run(soc: &Path, w: &Workload, seconds: f64) -> io::Result<E2e> {
    let mut setup_s = Vec::with_capacity(COLD_STARTS);
    let mut setup_rss_mb = Vec::with_capacity(COLD_STARTS);
    let mut kept = None;
    for i in 0..COLD_STARTS {
        let (server, conn, s, rss) = cold_start(soc, w)?;
        setup_s.push(s);
        setup_rss_mb.push(rss);
        if i + 1 < COLD_STARTS {
            shutdown(server, conn)?;
        } else {
            kept = Some((server, conn));
        }
    }
    let (server, first) = kept.expect("at least one cold start");
    let mut conns = vec![first];
    while conns.len() < w.conns {
        let mut c = Conn::connect(server.addr)?;
        expect_type(&roundtrip(&mut c, HELLO, SETUP_LIMIT)?, "hello_ok")?;
        conns.push(c);
    }

    let win = window(&mut conns, w, seconds)?;

    let stats = expect_type(
        &roundtrip(&mut conns[0], "{\"type\":\"stats\"}", SETUP_LIMIT)?,
        "stats_ok",
    )?;
    let server_counts = SERVER_COUNTS
        .iter()
        .map(|&(name, key)| {
            let v = stats
                .get("metrics")
                .and_then(|m| m.get(key))
                .and_then(|v| match v {
                    Json::Num(n) => Some(*n),
                    _ => None,
                })
                .unwrap_or(0.0);
            (name, v)
        })
        .collect();
    let peak_rss_mb = proc_status_mb(server.pid(), "VmHWM")?;
    let first = conns.remove(0);
    drop(conns);
    let clean_exit = shutdown(server, first)?;
    Ok(E2e {
        setup_s,
        setup_rss_mb,
        win,
        peak_rss_mb,
        server_counts,
        clean_exit,
    })
}

/// Longest the window may overrun before the run is abandoned.
const OVERRUN_NS: u64 = 90_000_000_000;

/// Drives the timed window. Open loops send frame `i` at
/// `start + i·period` on connection `i mod conns`, whatever is
/// outstanding; closed loops send the next frame on a connection as
/// soon as its previous frame is fully answered, until `seconds` pass.
pub fn window(conns: &mut [Conn], w: &Workload, seconds: f64) -> io::Result<Window> {
    request_short_slice();
    let clock = Clock::new();
    let mut win = Window::default();
    let open: Vec<String> = (0..w.open_frames()).map(|i| w.frame(i)).collect();
    let period_ns = w.period_s() * 1e9;
    let start = clock.now() + 2_000_000;
    let stop = start + (seconds * 1e9) as u64;
    let due_of = |i: usize| start + (i as f64 * period_ns) as u64;
    let mut next = 0usize;
    let mut last_reply = start;

    loop {
        let now = clock.now();
        match w.pacing {
            Pacing::Open { .. } => {
                while next < open.len() && due_of(next) <= now {
                    let due = due_of(next);
                    let c = next % conns.len();
                    // Lateness is taken when the frame is handed to the
                    // kernel: on loopback the write itself can lose the
                    // CPU to the server threads it wakes, after the frame
                    // has already reached the server's socket.
                    win.late_ms
                        .push(clock.now().saturating_sub(due) as f64 / 1e6);
                    conns[c].send(&open[next], Pending { op: next, due })?;
                    win.issued.push(next);
                    next += 1;
                }
            }
            Pacing::Closed if now < stop => {
                for c in conns.iter_mut().filter(|c| c.pending.is_empty()) {
                    let text = w.frame(next);
                    c.send(
                        &text,
                        Pending {
                            op: next,
                            due: clock.now(),
                        },
                    )?;
                    win.issued.push(next);
                    next += 1;
                }
            }
            Pacing::Closed => {}
        }
        let issuing = match w.pacing {
            Pacing::Open { .. } => next < open.len(),
            Pacing::Closed => now < stop,
        };
        if !issuing && conns.iter().all(|c| c.pending.is_empty()) {
            break;
        }
        if now > stop + OVERRUN_NS {
            return Err(io::Error::new(
                io::ErrorKind::TimedOut,
                "window overran; server stalled",
            ));
        }
        // Sends may have taken a while; time the wait from now.
        let now = clock.now();
        let mut timeout = 50_000_000u64;
        if issuing {
            let until = match w.pacing {
                Pacing::Open { .. } => due_of(next),
                Pacing::Closed => stop,
            };
            timeout = timeout.min(until.saturating_sub(now));
        }
        let ready = wait(conns, timeout)?;
        let t = clock.now();
        for (c, conn) in conns.iter_mut().enumerate() {
            conn.flush()?;
            if !ready[c] {
                continue;
            }
            conn.fill()?;
            while let Some(line) = conn.next_line() {
                on_line(&mut win, conn, w, &line, t)?;
                last_reply = t;
            }
            conn.check_open()?;
        }
    }
    win.wall_s = last_reply.saturating_sub(start) as f64 / 1e9;
    Ok(win)
}

/// Books one reply line against the oldest unanswered frame of its
/// connection (the server answers each connection in order).
fn on_line(win: &mut Window, conn: &mut Conn, w: &Workload, line: &str, t: u64) -> io::Result<()> {
    let Some(front) = conn.pending.front().copied() else {
        return Err(io::Error::other(format!("unsolicited reply {line}")));
    };
    let v = json::parse(line).map_err(|e| io::Error::other(format!("bad reply {line:?}: {e}")))?;
    let latency_ms = t.saturating_sub(front.due) as f64 / 1e6;
    let field = |k: &str| v.get(k).and_then(Json::as_u64);
    let mut answer = |slot: usize| {
        let retained = v.get("retained").and_then(Json::as_str).unwrap_or_default();
        win.answers.push(Answer {
            op: front.op,
            slot,
            retained: retained.to_string(),
            satisfied: field("satisfied").unwrap_or(u64::MAX),
        });
        win.solve_lat_ms.push(latency_ms);
    };
    match v.get("type").and_then(Json::as_str).unwrap_or_default() {
        "solve_ok" => {
            answer(0);
            conn.pending.pop_front();
        }
        "solve_result" => {
            let slot = field("index").map_or(usize::MAX, |i| i as usize);
            answer(slot);
        }
        "solve_batch_done" => {
            let n = w.op_tuples(front.op).len() as u64;
            if field("count") != Some(n) || field("delivered") != Some(n) {
                win.errors += 1;
                win.notes
                    .push(format!("frame {}: short batch {line}", front.op));
            }
            conn.pending.pop_front();
        }
        "ingest_ok" => {
            win.ingest_lat_ms.push(latency_ms);
            conn.pending.pop_front();
        }
        _ => {
            win.errors += w.op_tuples(front.op).len().max(1);
            win.notes.push(format!("frame {}: {line}", front.op));
            conn.pending.pop_front();
        }
    }
    Ok(())
}
