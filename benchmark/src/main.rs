//! `socbench`: the end-to-end benchmark of `soc serve`.
//!
//! Each workload starts a fresh `soc serve --port 0 --threads 2`, drives
//! it over loopback from this one process (one load-generating thread,
//! at most two connections), checks every answer, and prints every
//! metric by name with its unit and sample count. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and the metrics — the end-to-end set, or with `--trace 1` the
//! per-layer set of a traced in-process replay of the same requests.
//!
//! ```text
//! socbench --soc PATH [--workload NAME] [--seed N] [--seconds S]
//!          [--trace [0|1]] [--repeat N] [--smoke] [--out DIR]
//! ```
//!
//! `benchmark/run.sh` builds `soc` and this binary and passes `--soc`
//! and `--out`.

mod client;
mod e2e;
mod replay;
mod report;
mod stats;
mod verify;
mod workload;

use std::collections::HashMap;
use std::io::Write as _;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use stats::{median, print_table, result_json, Metric};
use workload::{Sizes, Workload, FULL, NAMES, SMOKE};

/// Window length when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;
/// Window length of `--smoke`.
const SMOKE_SECONDS: f64 = 1.0;

struct Args {
    soc: PathBuf,
    out: PathBuf,
    workloads: Vec<&'static str>,
    seed: u64,
    seconds: f64,
    trace: bool,
    repeat: usize,
    sizes: Sizes,
}

fn parse_args() -> Result<Args, String> {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let mut soc = None;
    let mut out = PathBuf::from("target/benchmark");
    let mut workload = None;
    let mut seed = 1u64;
    let mut seconds = None;
    let mut trace = false;
    let mut repeat = 1usize;
    let mut smoke = false;
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        raw.get(*i)
            .cloned()
            .ok_or_else(|| format!("{flag} needs a value"))
    };
    while i < raw.len() {
        match raw[i].as_str() {
            "--soc" => soc = Some(PathBuf::from(value(&mut i, "--soc")?)),
            "--out" => out = PathBuf::from(value(&mut i, "--out")?),
            "--workload" => workload = Some(value(&mut i, "--workload")?),
            "--seed" => {
                seed = value(&mut i, "--seed")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let s: f64 = value(&mut i, "--seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            // `--trace` alone means on; `--trace 0|1` sets it.
            "--trace" => match raw.get(i + 1).map(String::as_str) {
                Some("0") => {
                    i += 1;
                    trace = false;
                }
                Some("1") => {
                    i += 1;
                    trace = true;
                }
                _ => trace = true,
            },
            "--repeat" => {
                repeat = value(&mut i, "--repeat")?
                    .parse()
                    .map_err(|e| format!("--repeat: {e}"))?;
                if repeat == 0 {
                    return Err("--repeat must be at least 1".into());
                }
            }
            "--smoke" => smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
        i += 1;
    }
    let soc = soc.ok_or("--soc PATH to the soc binary is required")?;
    let workloads = match workload {
        None => NAMES.to_vec(),
        Some(name) => vec![*NAMES
            .iter()
            .find(|&&n| n == name)
            .ok_or_else(|| format!("unknown workload {name:?}; expected one of {NAMES:?}"))?],
    };
    if trace && repeat > 1 {
        return Err("--repeat reruns the end-to-end set; it does not combine with --trace".into());
    }
    Ok(Args {
        soc,
        out,
        workloads,
        seed,
        seconds: seconds.unwrap_or(if smoke {
            SMOKE_SECONDS
        } else {
            DEFAULT_SECONDS
        }),
        trace: trace || smoke,
        repeat,
        sizes: if smoke { SMOKE } else { FULL },
    })
}

/// The outcome of one workload run.
struct Outcome {
    correct: bool,
    attempted: usize,
    failed: usize,
    /// The metrics the result line carries.
    metrics: Vec<Metric>,
}

fn run_workload(args: &Args, name: &str, seed: u64) -> Result<Outcome, String> {
    let w = Workload::build(name, seed, args.seconds, &args.sizes).expect("known workload");
    let pacing = match w.pacing {
        workload::Pacing::Open { per_s } => format!("open loop {per_s}/s"),
        workload::Pacing::Closed => "closed loop".to_string(),
    };
    println!(
        "== {name}: seed {seed}, {} s, {pacing} on {} conn(s), {} queries x {} attrs, algo {} m {}",
        args.seconds,
        w.conns,
        w.base.len(),
        w.base.num_attrs(),
        w.algo,
        w.m
    );
    let e = e2e::run(&args.soc, &w, args.seconds)
        .map_err(|err| format!("{name}: end-to-end run failed: {err}"))?;
    let v = verify::verify(&w, &e.win);
    let guarded = report::e2e_metrics(&e, &v);
    print_table("e2e", &guarded);
    print_table("e2e", &report::e2e_extras(&w, &e, &v));
    for note in &v.notes {
        println!("fail   {note}");
    }
    let on_time = report::generator_on_time(&e);
    if !on_time {
        println!(
            "fail   generator ran late: p99 beyond {} ms",
            report::MAX_LATE_P99_MS
        );
    }
    if !e.clean_exit {
        println!("fail   soc serve did not exit cleanly after shutdown");
    }
    let mut out = Outcome {
        correct: v.failed == 0 && on_time && e.clean_exit,
        attempted: v.attempted,
        failed: v.failed,
        metrics: guarded,
    };
    if !args.trace {
        return Ok(out);
    }

    // The overhead of span recording is measured on ingest_mix, the
    // workload whose frames are cheapest, so it shows most there.
    let untraced = (name == "ingest_mix").then(|| replay::replay(&w, args.seconds, false));
    let r = replay::replay(&w, args.seconds, true);
    let served: HashMap<(usize, usize), u64> = e
        .win
        .answers
        .iter()
        .map(|a| ((a.op, a.slot), a.satisfied))
        .collect();
    let mismatched = r
        .answers
        .iter()
        .filter(|(op, slot, sat)| served.get(&(*op, *slot)).is_some_and(|s| s != sat))
        .count();
    if mismatched > 0 {
        println!("fail   {mismatched} replay answers differ from the server's");
    }
    if r.failed > 0 {
        println!("fail   {} replay frames failed", r.failed);
    }
    let layers = report::layer_metrics(&e, &r, untraced.as_ref());
    print_table("layer", &layers);
    report::print_breakdown(&r);
    let path = write_spans(&args.out, name, &r.spans)
        .map_err(|err| format!("{name}: writing spans: {err}"))?;
    println!("trace  {} spans -> {}", r.spans.len(), path.display());
    out.correct &= mismatched == 0 && r.failed == 0;
    out.failed += mismatched + r.failed;
    out.metrics = layers;
    Ok(out)
}

fn write_spans(out: &Path, name: &str, spans: &[replay::Span]) -> std::io::Result<PathBuf> {
    let dir = out.join("trace");
    std::fs::create_dir_all(&dir)?;
    let path = dir.join(format!("{name}.jsonl"));
    let mut f = std::io::BufWriter::new(std::fs::File::create(&path)?);
    for s in spans {
        writeln!(f, "{}", s.json())?;
    }
    f.flush()?;
    Ok(path)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("socbench: {e}");
            return ExitCode::from(2);
        }
    };
    let mut correct = true;
    let (mut attempted, mut failed) = (0usize, 0usize);
    let mut metrics: Vec<Metric> = Vec::new();
    for &name in &args.workloads {
        let mut runs: Vec<Vec<Metric>> = Vec::new();
        for i in 0..args.repeat {
            match run_workload(&args, name, args.seed + i as u64) {
                Ok(o) => {
                    correct &= o.correct;
                    attempted += o.attempted;
                    failed += o.failed;
                    runs.push(o.metrics);
                }
                Err(e) => {
                    eprintln!("socbench: {e}");
                    return ExitCode::FAILURE;
                }
            }
        }
        let summary = if args.repeat == 1 {
            runs.pop().expect("one run")
        } else {
            summarize_repeats(name, &runs)
        };
        // One result line over several workloads prefixes each name.
        for mut m in summary {
            if args.workloads.len() > 1 {
                m.name = format!("{name}.{}", m.name);
            }
            metrics.push(m);
        }
    }
    println!(
        "{}",
        result_json(correct, attempted.max(1), failed, &metrics)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Prints each metric's median over the repeats and its
/// `(max - min) / median` spread; returns the medians.
fn summarize_repeats(name: &str, runs: &[Vec<Metric>]) -> Vec<Metric> {
    println!("== {name}: {} repeats (seeds advance by one)", runs.len());
    println!("repeat {:<36} {:>14} {:>10}", "metric", "median", "spread");
    runs[0]
        .iter()
        .enumerate()
        .map(|(k, first)| {
            let values: Vec<f64> = runs.iter().map(|r| r[k].value).collect();
            let med = median(&values);
            let max = values.iter().copied().fold(f64::MIN, f64::max);
            let min = values.iter().copied().fold(f64::MAX, f64::min);
            println!(
                "repeat {:<36} {med:>14.4} {:>9.2}%  {}",
                first.name,
                100.0 * stats::ratio(max - min, med),
                first.unit
            );
            Metric::new(first.name.clone(), med, first.unit, values.len())
        })
        .collect()
}
