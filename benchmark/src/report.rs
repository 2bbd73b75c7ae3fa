//! Turns one run's observations into named metrics: the end-to-end set
//! `BENCHMARK.json` guards, the end-to-end extras printed beside them,
//! and the per-layer set of the traced run.

use std::collections::BTreeMap;

use crate::e2e::E2e;
use crate::replay::{self_times, Replay, Span, POOL_THREADS, SETUP_HELLO, SETUP_LOAD};
use crate::stats::{mean, median, percentile_label, quantile, ratio, tail_q, Metric};
use crate::verify::Verdict;
use crate::workload::{Pacing, Workload};

/// The open-loop generator must send within this of each due time, or
/// the run is invalid.
pub const MAX_LATE_P99_MS: f64 = 2.0;

/// The guarded end-to-end metrics, identical on every workload.
pub fn e2e_metrics(e: &E2e, v: &Verdict) -> Vec<Metric> {
    let lat = &e.win.solve_lat_ms;
    let q = tail_q(lat.len());
    vec![
        Metric::new("setup_s", median(&e.setup_s), "s", e.setup_s.len())
            .note("median of cold starts"),
        Metric::new("solve_p50_ms", median(lat), "ms", lat.len()),
        Metric::new("solve_tail_ms", quantile(lat, q), "ms", lat.len()).note(percentile_label(q)),
        Metric::new(
            "tuples_per_s",
            ratio(v.answered as f64, e.win.wall_s),
            "1/s",
            v.answered,
        )
        .note(format!("over {:.2} s", e.win.wall_s)),
        Metric::new(
            "server_rss_mb",
            median(&e.setup_rss_mb),
            "MB",
            e.setup_rss_mb.len(),
        )
        .note("median VmHWM after load"),
    ]
}

/// End-to-end numbers printed but not guarded: they exist on only
/// some workloads, or are 0 on a healthy run.
pub fn e2e_extras(w: &Workload, e: &E2e, v: &Verdict) -> Vec<Metric> {
    let mut out = vec![
        Metric::new(
            "failed_ratio",
            ratio(v.failed as f64, v.attempted as f64),
            "ratio",
            v.attempted,
        )
        .note(format!("{} of {} attempted", v.failed, v.attempted)),
        Metric::new(
            "satisfied_total",
            v.satisfied_total as f64,
            "queries",
            v.answered,
        ),
        Metric::new("server_peak_rss_mb", e.peak_rss_mb, "MB", 1).note("VmHWM after the window"),
    ];
    if let Some(r) = v.optimality_ratio() {
        out.push(
            Metric::new("optimality_ratio", r, "ratio", v.answered)
                .note("vs Projected(BruteForce)"),
        );
    }
    if !e.win.ingest_lat_ms.is_empty() {
        let n = e.win.ingest_lat_ms.len();
        out.push(Metric::new(
            "ingest_p50_ms",
            median(&e.win.ingest_lat_ms),
            "ms",
            n,
        ));
    }
    if let Pacing::Open { .. } = w.pacing {
        out.push(late_metric(e));
    }
    out
}

fn late_metric(e: &E2e) -> Metric {
    let late = &e.win.late_ms;
    Metric::new(
        "bench.generator_late_p99_ms",
        quantile(late, 0.99),
        "ms",
        late.len(),
    )
    .note(format!(
        "p50 {:.3}, max {:.3}",
        median(late),
        quantile(late, 1.0)
    ))
}

/// Whether the run's load was delivered on schedule.
pub fn generator_on_time(e: &E2e) -> bool {
    quantile(&e.win.late_ms, 0.99) <= MAX_LATE_P99_MS
}

/// Window spans named `name`.
fn window_spans<'a>(r: &'a Replay, name: &'a str) -> impl Iterator<Item = &'a Span> + 'a {
    r.spans
        .iter()
        .filter(move |s| s.name == name && s.request < SETUP_HELLO)
}

/// Window span durations in microseconds.
fn durs_us(r: &Replay, name: &str) -> Vec<f64> {
    window_spans(r, name)
        .map(|s| s.dur_ns as f64 / 1e3)
        .collect()
}

/// Duration (ms) of the set-up span `name` of `request`.
fn setup_ms(r: &Replay, name: &str, request: u64) -> f64 {
    r.spans
        .iter()
        .filter(|s| s.name == name && s.request == request)
        .map(|s| s.dur_ns as f64 / 1e6)
        .sum()
}

fn counter(r: &Replay, name: &str) -> f64 {
    r.counters.get(name).copied().unwrap_or(0.0)
}

fn samples<'a>(r: &'a Replay, name: &str) -> &'a [f64] {
    r.samples.get(name).map_or(&[], Vec::as_slice)
}

/// The per-layer metrics of a traced run. `untraced` is the same replay
/// without spans, when the tracing overhead is measured.
pub fn layer_metrics(e: &E2e, r: &Replay, untraced: Option<&Replay>) -> Vec<Metric> {
    let solves = r.answers.len();
    let per_solve = |name: &str| ratio(counter(r, name), solves as f64);
    let parse = durs_us(r, "serve.frame_parse");
    let reply = durs_us(r, "serve.reply");
    let index = durs_us(r, "data.index_build");
    let project = durs_us(r, "data.project");
    let mfi = durs_us(r, "core.mfi");
    let greedy = durs_us(r, "core.greedy");
    let sketch = durs_us(r, "core.sketch");
    let sketch_us: f64 = sketch.iter().sum();
    let wait = samples(r, "pool.queue_wait_us");
    let job_us: f64 = durs_us(r, "pool.job").iter().sum();
    let widths = samples(r, "data.projected_width");
    let refine = samples(r, "core.sketch.refine_queries");

    // Session self time of each ingest: its span minus the separately
    // timed parse of the same rows.
    let mut ingest: BTreeMap<u64, f64> = BTreeMap::new();
    for s in window_spans(r, "serve.session_ingest") {
        *ingest.entry(s.request).or_default() += s.dur_ns as f64 / 1e6;
    }
    for s in window_spans(r, "data.log_parse") {
        if let Some(v) = ingest.get_mut(&s.request) {
            *v -= s.dur_ns as f64 / 1e6;
        }
    }
    let ingest: Vec<f64> = ingest.into_values().collect();

    let overhead = untraced.map_or(0.0, |u| {
        let (t, b) = (mean(&r.solve_lat_ms), mean(&u.solve_lat_ms));
        100.0 * ratio(t - b, b)
    });
    let log_parse_ms = setup_ms(r, "data.log_parse", SETUP_LOAD);
    // The replayed set-up includes that extra parse, which serve never
    // runs.
    let replay_setup_s = r.setup_s - log_parse_ms / 1e3;

    let mut out = vec![
        Metric::new(
            "serve.frame_parse_us.p50",
            median(&parse),
            "us",
            parse.len(),
        ),
        Metric::new("serve.reply_us.p50", median(&reply), "us", reply.len()),
        Metric::new(
            "serve.load_parse_ms",
            setup_ms(r, "serve.frame_parse", SETUP_LOAD),
            "ms",
            1,
        ),
        Metric::new(
            "serve.session_load_ms",
            setup_ms(r, "serve.session_load", SETUP_LOAD) - log_parse_ms,
            "ms",
            1,
        ),
        Metric::new(
            "serve.session_ingest_ms.p50",
            median(&ingest),
            "ms",
            ingest.len(),
        ),
        Metric::new(
            "serve.unattributed_ms.mean",
            mean(&e.win.solve_lat_ms) - mean(&r.solve_lat_ms),
            "ms",
            r.solve_lat_ms.len(),
        )
        .note("e2e mean minus replay mean"),
        Metric::new(
            "serve.unattributed_setup_s",
            median(&e.setup_s) - replay_setup_s,
            "s",
            1,
        )
        .note(format!("replay set-up {replay_setup_s:.4} s")),
        Metric::new("data.log_parse_ms", log_parse_ms, "ms", 1),
        Metric::new(
            "data.index_build_ms.p50",
            median(&index) / 1e3,
            "ms",
            index.len(),
        ),
        Metric::new(
            "data.index_builds",
            index.len() as f64,
            "count",
            index.len(),
        ),
        Metric::new("data.project_us.p50", median(&project), "us", project.len()),
        Metric::new(
            "data.project_us.p99",
            quantile(&project, 0.99),
            "us",
            project.len(),
        ),
        Metric::new(
            "data.project_keep_ratio",
            ratio(
                samples(r, "data.project_kept").iter().sum(),
                samples(r, "data.project_scanned").iter().sum(),
            ),
            "ratio",
            project.len(),
        ),
        Metric::new(
            "data.projected_width.p99",
            quantile(widths, 0.99),
            "attrs",
            widths.len(),
        ),
        Metric::new("core.mfi_us.p50", median(&mfi), "us", mfi.len()),
        Metric::new("core.mfi_us.p99", quantile(&mfi, 0.99), "us", mfi.len()),
        Metric::new(
            "itemsets.walk_rounds_per_solve",
            per_solve("mfi.walk_rounds"),
            "count",
            solves,
        ),
        Metric::new(
            "itemsets.support_calls_per_solve",
            per_solve("mfi.support_calls"),
            "count",
            solves,
        ),
        Metric::new(
            "itemsets.dedup_hit_ratio",
            ratio(counter(r, "mfi.dedup_hits"), counter(r, "mfi.walk_rounds")),
            "ratio",
            solves,
        ),
        Metric::new("core.greedy_us.p50", median(&greedy), "us", greedy.len()),
        Metric::new(
            "core.sketch_ms.p50",
            median(&sketch) / 1e3,
            "ms",
            sketch.len(),
        ),
        Metric::new(
            "core.sketch.cluster_share",
            ratio(counter(r, "sketch.cluster_us"), sketch_us),
            "ratio",
            sketch.len(),
        ),
        Metric::new(
            "core.sketch.refine_share",
            ratio(counter(r, "sketch.refine_us"), sketch_us),
            "ratio",
            sketch.len(),
        ),
        Metric::new(
            "core.sketch.refine_queries_per_solve",
            mean(refine),
            "queries",
            refine.len(),
        ),
        Metric::new("pool.queue_wait_us.p50", median(wait), "us", wait.len()),
        Metric::new(
            "pool.queue_wait_us.p99",
            quantile(wait, 0.99),
            "us",
            wait.len(),
        ),
        Metric::new(
            "pool.busy_ratio",
            ratio(job_us / 1e6, r.wall_s * POOL_THREADS as f64),
            "ratio",
            solves,
        ),
        Metric::new(
            "pool.parks_per_solve",
            per_solve("pool.parks"),
            "count",
            solves,
        ),
        late_metric(e),
        Metric::new(
            "bench.trace_overhead_pct",
            overhead,
            "%",
            r.solve_lat_ms.len(),
        )
        .note(if untraced.is_some() {
            "traced vs untraced replay"
        } else {
            "measured on ingest_mix only"
        }),
    ];
    for &(name, v) in &e.server_counts {
        out.push(Metric::new(name, v, "count", 1).note("server stats after the window"));
    }
    out
}

/// Per span name: count, mean duration and mean self time (µs) over
/// the window — the layer breakdown of one traced run.
pub fn print_breakdown(r: &Replay) {
    let selfs = self_times(&r.spans);
    let mut rows: BTreeMap<&str, (usize, f64, f64)> = BTreeMap::new();
    for (s, own) in r.spans.iter().zip(selfs) {
        if s.request < SETUP_HELLO {
            let row = rows.entry(s.name).or_default();
            row.0 += 1;
            row.1 += s.dur_ns as f64 / 1e3;
            row.2 += own as f64 / 1e3;
        }
    }
    println!(
        "layer  {:<24} {:>8} {:>14} {:>14}",
        "span", "n", "mean_us", "self_mean_us"
    );
    for (name, (n, dur, own)) in rows {
        println!(
            "layer  {name:<24} {n:>8} {:>14.2} {:>14.2}",
            dur / n as f64,
            own / n as f64
        );
    }
}
