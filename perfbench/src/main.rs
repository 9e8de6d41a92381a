//! The approxdd benchmark: one workload per process.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Untraced (`--trace 0`), it sets the workload up several times, runs
//! timed passes for about `--seconds`, checks the outputs against the
//! statevector oracle and the other checks of each workload, and prints
//! the end-to-end metrics. Traced (`--trace 1`), it runs one pass and
//! then replays every job with each layer call timed, printing the
//! per-layer metrics. The last line of standard output is one JSON
//! object: `{"correct", "attempted", "failed", "metrics"}`. The line
//! before it is a `detail` object with quartiles and per-job numbers.

mod batch;
mod inputs;
mod qsup;
mod replay;
mod run;
mod shor;

use std::process::ExitCode;
use std::time::Instant;

use approxdd_sim::json::Json;

use crate::run::{median, quartiles, secs, Config, Run};

/// The workloads, by command-line name.
const WORKLOADS: [&str; 4] = ["qsup-exact", "qsup-memory", "shor-factor", "batch-sample"];

const USAGE: &str =
    "usage: perfbench --workload <qsup-exact|qsup-memory|shor-factor|batch-sample> \
     [--seed N] [--seconds S] [--trace 0|1]";

fn parse_args() -> Result<(String, Config), String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut cfg = Config {
        seed: 0,
        seconds: 10.0,
        trace: false,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value for {flag}: {value}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => cfg.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => cfg.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => {
                cfg.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}"));
    }
    if !(cfg.seconds.is_finite() && cfg.seconds > 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok((workload, cfg))
}

fn main() -> ExitCode {
    let (workload, cfg) = match parse_args() {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let clock_cost = if cfg.trace { clock_cost() } else { 0.0 };
    let started = Instant::now();
    let run = match workload.as_str() {
        "qsup-exact" => qsup::run(&cfg, false),
        "qsup-memory" => qsup::run(&cfg, true),
        "shor-factor" => shor::run(&cfg),
        _ => batch::run(&cfg),
    };
    let run = match run {
        Ok(run) => run,
        Err(e) => {
            eprintln!("perfbench: {workload}: {e}");
            return ExitCode::FAILURE;
        }
    };
    let metrics = if cfg.trace {
        per_layer(&run, clock_cost)
    } else {
        end_to_end(&run)
    };
    let pass_s = secs(&run.passes);
    let [q1, med, q3] = quartiles(&pass_s);
    println!(
        "{}",
        Json::obj([
            ("workload", Json::str(workload.as_str())),
            ("seed", Json::Num(cfg.seed as f64)),
            ("trace", Json::Bool(cfg.trace)),
            ("passes", Json::int(pass_s.len())),
            ("wall_s_q1", Json::Num(q1)),
            ("wall_s_median", Json::Num(med)),
            ("wall_s_q3", Json::Num(q3)),
            (
                "pass_s",
                Json::Arr(pass_s.iter().copied().map(Json::Num).collect())
            ),
            ("setup_reps", Json::int(run.setup.len())),
            ("fidelity_gap_max", Json::Num(run.fidelity_gap_max)),
            ("run_seconds", Json::Num(started.elapsed().as_secs_f64())),
            ("jobs", Json::Arr(run.jobs.clone())),
        ])
    );
    let metrics = Json::Obj(
        metrics
            .into_iter()
            .map(|(name, value, unit)| {
                (
                    name.to_string(),
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(unit))]),
                )
            })
            .collect(),
    );
    println!(
        "{}",
        Json::obj([
            ("correct", Json::Bool(run.checks.failed == 0)),
            ("attempted", Json::Num(run.checks.attempted as f64)),
            ("failed", Json::Num(run.checks.failed as f64)),
            ("metrics", metrics),
        ])
    );
    ExitCode::SUCCESS
}

type Metric = (&'static str, f64, &'static str);

/// Layer metrics only some workloads produce; the others report 0.
const WORKLOAD_LAYERS: [(&str, &str); 8] = [
    ("exec.busy_s", "s"),
    ("exec.idle_s", "s"),
    ("exec.jobs", "count"),
    ("exec.retries", "count"),
    ("exec.max_queue_depth", "count"),
    ("exec.snapshot_hit_rate", "ratio"),
    ("shor.classical_s", "s"),
    ("shor.samples", "count"),
];

fn end_to_end(run: &Run) -> Vec<Metric> {
    let ok = 1.0 - run.checks.failed as f64 / run.checks.attempted.max(1) as f64;
    vec![
        ("setup_s", median(&secs(&run.setup)), "s"),
        ("wall_s", median(&secs(&run.passes)), "s"),
        ("peak_nodes", run.peak_nodes as f64, "count"),
        ("rss_peak_mb", run.rss_mb, "MiB"),
        ("fidelity_min", run.fidelity_min, "ratio"),
        ("fidelity_true_min", run.fidelity_true_min, "ratio"),
        ("ok_ratio", ok, "ratio"),
    ]
}

fn per_layer(run: &Run, clock_cost: f64) -> Vec<Metric> {
    let trace = run.trace.as_ref().expect("traced runs record a trace");
    let l = &trace.layers;
    let wall = l.loop_wall.as_secs_f64();
    let timed = l.loop_timed().as_secs_f64();
    let ratio = |num: f64, den: f64| if den > 0.0 { num / den } else { 0.0 };
    let mut metrics = vec![
        ("circuit.parse_s", median(&secs(&run.parse)), "s"),
        ("circuit.ops", run.ops as f64, "count"),
        ("dd.apply_s", l.apply.time.as_secs_f64(), "s"),
        ("dd.apply.calls", l.apply.calls as f64, "count"),
        (
            "dd.ct_hit_rate",
            ratio(l.ct_hits as f64, l.ct_lookups as f64),
            "ratio",
        ),
        ("dd.truncate_s", l.truncate.time.as_secs_f64(), "s"),
        ("dd.truncate.calls", l.truncate.calls as f64, "count"),
        ("dd.truncate.removed_nodes", l.removed_nodes as f64, "count"),
        ("dd.size_s", l.size.time.as_secs_f64(), "s"),
        ("dd.size.calls", l.size.calls as f64, "count"),
        ("dd.gc_s", l.gc.time.as_secs_f64(), "s"),
        ("dd.gc.calls", l.gc.calls as f64, "count"),
        ("dd.gc.freed_nodes", l.gc_freed as f64, "count"),
        (
            "dd.unique_occupancy",
            ratio(l.occupancy_sum, l.jobs as f64),
            "ratio",
        ),
        ("dd.gate_build_s", l.gate_build.time.as_secs_f64(), "s"),
        ("dd.gate_build.calls", l.gate_build.calls as f64, "count"),
        ("dd.sample_s", l.sample.time.as_secs_f64(), "s"),
        ("dd.sample.shots", l.shots as f64, "count"),
        ("core.decide_s", l.decide.time.as_secs_f64(), "s"),
        ("core.loop_other_s", (wall - timed).max(0.0), "s"),
    ];
    for (name, unit) in WORKLOAD_LAYERS {
        let value = trace
            .extra
            .iter()
            .find(|m| m.0 == name)
            .map_or(0.0, |m| m.1);
        metrics.push((name, value, unit));
    }
    metrics.extend([
        (
            "trace.overhead",
            ratio(l.timed_calls() as f64 * clock_cost, wall),
            "ratio",
        ),
        ("trace.coverage", ratio(timed, wall), "ratio"),
        (
            "trace.replay_ratio",
            ratio(wall, trace.reference_wall.as_secs_f64()),
            "ratio",
        ),
        ("verify.fidelity_gap_max", run.fidelity_gap_max, "ratio"),
        (
            "verify.fail_ratio",
            ratio(run.checks.failed as f64, run.checks.attempted as f64),
            "ratio",
        ),
    ]);
    metrics
}

/// Seconds one timed layer call spends reading the clock.
fn clock_cost() -> f64 {
    const CALLS: u32 = 100_000;
    let mut calls = replay::Tally::default();
    let start = Instant::now();
    for i in 0..CALLS {
        calls.time(|| std::hint::black_box(i));
    }
    start.elapsed().as_secs_f64() / f64::from(CALLS)
}
