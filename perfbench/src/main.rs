//! Layer-attributed benchmark of the EVM co-simulation runtime.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload fig6b --seed 1 --seconds 10 --trace 0
//! ```
//!
//! Prints a table of every metric with its unit and sample count, then,
//! as the last line, one JSON object: `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, measured without
//! spans; `--trace 1` reports the per-layer metrics from a traced run and
//! writes its spans as JSON lines under the cargo target directory.
//! `METRICS.md` records why each workload exists and which end-to-end
//! metric each layer metric should move.

mod layers;
mod spans;
mod stats;
mod workloads;

use std::fmt::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;

use spans::{Recorder, SpanSet};
use workloads::{guarded, OpWork, Prepared, Tally, Workload};

/// Untimed operations run before the measurement, in seconds.
const WARMUP_S: f64 = 1.0;
/// Engine runs or sweep cells in one repetition of the end-to-end
/// measurement. Every repetition does the same deterministic work, so
/// repetitions differ only in what else the host was doing; each timing
/// reports the best one. Short repetitions let the best one miss the
/// bursts in which other tenants of a shared host slow every operation,
/// and 30 still leaves ten run times beyond a repetition's median.
const REP_OPS: u64 = 30;

/// One reported metric.
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// How many samples the value rests on, in words.
    pub samples: String,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str, samples: String) -> Self {
        Metric {
            name,
            value,
            unit,
            samples,
        }
    }
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: Workload::Fig6b,
        seed: 1,
        seconds: 10.0,
        trace: false,
    };
    let mut workload = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} '{value}': {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::ALL
                        .into_iter()
                        .find(|w| w.name() == value)
                        .ok_or_else(|| bad(&"unknown workload"))?,
                );
            }
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(bad(&"must be in (0, 600]"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"must be 0 or 1")),
                }
            }
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    args.workload =
        workload.ok_or("--workload is required (fig6b, fleet_dense, vc_failover_sweep)")?;
    Ok(args)
}

/// Peak resident set of this process in MB (`VmHWM`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// The best of `f` over the repetitions that yield a value: the lowest
/// when lower is better, else the highest. NaN when none yields one.
fn best(reps: &[Tally], lower_is_better: bool, f: impl Fn(&Tally) -> Option<f64>) -> f64 {
    let values: Vec<f64> = reps.iter().filter_map(f).collect();
    stats::best(&values, lower_is_better).unwrap_or(f64::NAN)
}

/// The end-to-end metrics of an untraced measurement, each the best over
/// its repetitions.
fn end_to_end(reps: &[Tally]) -> Vec<Metric> {
    let runs: usize = reps.iter().map(|t| t.run_ms.len()).sum();
    let samples = || format!("best of {} reps, {runs} runs", reps.len());
    let rate = |work: fn(&OpWork) -> f64| best(reps, false, |t| t.rate(work));
    let p50 = best(reps, true, |t| stats::percentile(&t.run_ms, 0.5));
    let setup = best(reps, true, |t| {
        (!t.setup_s.is_empty()).then(|| stats::median(&t.setup_s))
    });
    vec![
        Metric::new("sim_s_per_s", rate(|o| o.sim_s), "s/s", samples()),
        Metric::new("slots_per_s", rate(|o| o.slots), "1/s", samples()),
        Metric::new("run_ms_p50", p50, "ms", samples()),
        Metric::new("cells_per_s", rate(|o| o.cells), "1/s", samples()),
        Metric::new("setup_s", setup, "s", samples()),
        Metric::new("peak_rss_mb", peak_rss_mb(), "MB", "1 process".into()),
    ]
}

/// Metrics printed for reading but kept out of the JSON line. The p90 run
/// time is pooled over every repetition; since every run repeats the same
/// deterministic work, its tail is set by other load on the host rather
/// than by the program. Failures are in the JSON as `failed`/`attempted`,
/// and the simulated outcomes are fixed by the seed.
fn table_only(reps: &[Tally], p: Option<&Prepared>, total: &Tally) -> Vec<Metric> {
    let mut v = Vec::new();
    if !reps.is_empty() {
        let all: Vec<f64> = reps.iter().flat_map(|t| t.run_ms.iter().copied()).collect();
        v.push(Metric::new(
            "run_ms_p90",
            stats::percentile(&all, 0.9).unwrap_or(f64::NAN),
            "ms",
            format!("{} runs", all.len()),
        ));
    }
    v.push(Metric::new(
        "failed_frac",
        total.failed as f64 / total.attempted.max(1) as f64,
        "frac",
        format!("{}/{} ops", total.failed, total.attempted),
    ));
    if let Some(e) = p.and_then(|p| p.timeline_err_s) {
        v.push(Metric::new(
            "fig6b_timeline_err_s",
            e,
            "sim_s",
            "reference run".into(),
        ));
    }
    if let Some(l) = p.and_then(|p| p.migration_latency_s) {
        v.push(Metric::new(
            "migration_latency_s",
            l,
            "sim_s",
            "reference migrations".into(),
        ));
    }
    v
}

/// Where the traced run writes its spans.
fn spans_path(args: &Args) -> PathBuf {
    let target = std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("perfbench/target"), PathBuf::from);
    target
        .join("perfbench-spans")
        .join(format!("{}-seed{}.jsonl", args.workload.name(), args.seed))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let (mut total, prepared) = workloads::prepare(args.workload, args.seed);
    let mut metrics = Vec::new();
    let mut reps = Vec::new();
    let mut spans = None;
    if let Some(p) = &prepared {
        // Warm up (allocator, caches, clock ramp) before anything is timed.
        for t in &workloads::measure(p, WARMUP_S, 1) {
            total.add_counts(t);
        }
        if args.trace {
            let rec = Recorder::new();
            let (untraced, traced) = workloads::measure_traced(p, args.seconds, &rec);
            total.add_counts(&untraced);
            total.add_counts(&traced);
            match guarded(|| layers::metrics(p, &rec, &traced, &untraced)).and_then(|m| m) {
                Ok(m) => metrics = m,
                Err(e) => {
                    total.attempted += 1;
                    total.fail(format!("layer replay: {e}"));
                }
            }
            spans = Some(SpanSet::new(rec.spans()));
        } else {
            reps = workloads::measure(p, args.seconds, REP_OPS);
            for t in &reps {
                total.add_counts(t);
            }
            metrics = end_to_end(&reps);
        }
    }
    for m in &metrics {
        if !m.value.is_finite() {
            total.fail(format!("{} has no value", m.name));
        }
    }
    let info = table_only(&reps, prepared.as_ref(), &total);
    for n in &total.notes {
        eprintln!("perfbench: check failed: {n}");
    }

    println!(
        "workload {} seed {} seconds {} trace {} threads {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        prepared.as_ref().map_or(0, |p| p.threads)
    );
    println!("{:<28} {:>16} {:<6} samples", "metric", "value", "unit");
    for m in metrics.iter().chain(&info) {
        println!(
            "{:<28} {:>16.6} {:<6} {}",
            m.name, m.value, m.unit, m.samples
        );
    }

    if let Some(set) = spans {
        let path = spans_path(&args);
        let written = path
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(&path, set.to_jsonl()));
        match written {
            Ok(()) => eprintln!("perfbench: spans written to {}", path.display()),
            Err(e) => eprintln!(
                "perfbench: could not write spans to {}: {e}",
                path.display()
            ),
        }
    }

    // A metric without a value was counted as a failure above and is
    // left out of the JSON.
    let mut json = String::new();
    for m in metrics.iter().filter(|m| m.value.is_finite()) {
        let sep = if json.is_empty() { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{json}}}}}",
        total.failed == 0,
        total.attempted.max(1),
        total.failed
    );
    ExitCode::SUCCESS
}
