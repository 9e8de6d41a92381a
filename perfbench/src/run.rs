//! What every workload records, and the loops they share: repeated
//! set-up, timed passes, and the tally of checked operations.

use std::time::{Duration, Instant};

use approxdd_circuit::{qasm, Circuit};
use approxdd_complex::Cplx;
use approxdd_sim::json::Json;

use crate::inputs::Input;
use crate::replay::Layers;

/// Set-ups per run, at least; `setup_s` reports their median.
const SETUP_MIN_REPS: usize = 9;
/// Cheap set-ups repeat until they have taken this long in total ...
const SETUP_MIN_TOTAL: Duration = Duration::from_millis(300);
/// ... or this many times.
const SETUP_MAX_REPS: usize = 301;

/// Command-line configuration of one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
}

/// Operations attempted and failed. An operation is one job executed
/// in a timed pass or replayed in the traced run; any check it misses
/// marks it failed.
#[derive(Debug, Default)]
pub struct Checks {
    pub attempted: u64,
    pub failed: u64,
}

impl Checks {
    /// Counts one operation, failed unless `ok`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what);
        }
    }

    /// Marks an already counted operation failed.
    pub fn fail(&mut self, what: impl FnOnce() -> String) {
        self.failed += 1;
        eprintln!("perfbench: check failed: {}", what());
    }
}

/// Everything one workload run measured.
#[derive(Debug, Default)]
pub struct Run {
    /// Duration of each set-up repetition.
    pub setup: Vec<Duration>,
    /// The circuit-parsing (or construction) share of each set-up.
    pub parse: Vec<Duration>,
    /// Operations in the workload's input circuits.
    pub ops: usize,
    /// Duration of each timed pass.
    pub passes: Vec<Duration>,
    pub peak_nodes: usize,
    pub fidelity_min: f64,
    pub fidelity_true_min: f64,
    pub fidelity_gap_max: f64,
    /// Peak resident memory after the timed passes, in MiB.
    pub rss_mb: f64,
    pub checks: Checks,
    /// Per-layer results of the traced run.
    pub trace: Option<Trace>,
    /// Per-job details for the report's detail line.
    pub jobs: Vec<Json>,
}

impl Run {
    pub fn new() -> Self {
        Self {
            fidelity_min: 1.0,
            fidelity_true_min: 1.0,
            ..Self::default()
        }
    }

    /// Folds one job's reported and true fidelity into the minima.
    pub fn fidelity(&mut self, reported: f64, truth: Option<f64>) {
        self.fidelity_min = self.fidelity_min.min(reported);
        if let Some(truth) = truth {
            self.fidelity_true_min = self.fidelity_true_min.min(truth);
            self.fidelity_gap_max = self.fidelity_gap_max.max((reported - truth).abs());
        }
    }
}

/// Per-layer results of the traced run.
#[derive(Debug, Default)]
pub struct Trace {
    pub layers: Layers,
    /// Summed `Simulator::run` wall time of the replayed jobs.
    pub reference_wall: Duration,
    /// Layer metrics only some workloads have (`exec.*`, `shor.*`).
    pub extra: Vec<(&'static str, f64)>,
}

/// Runs `setup` repeatedly (see [`SETUP_MIN_REPS`]), recording each
/// repetition's duration and the parse share it reports, and keeps the
/// last result.
pub fn repeat_setup<T>(
    run: &mut Run,
    mut setup: impl FnMut() -> Result<(T, Duration), String>,
) -> Result<T, String> {
    let mut kept = None;
    let mut total = Duration::ZERO;
    while run.setup.len() < SETUP_MIN_REPS
        || (total < SETUP_MIN_TOTAL && run.setup.len() < SETUP_MAX_REPS)
    {
        // The previous repetition's state is dropped before timing.
        drop(kept.take());
        let start = Instant::now();
        let (value, parse) = setup()?;
        let took = start.elapsed();
        total += took;
        run.setup.push(took);
        run.parse.push(parse);
        kept = Some(value);
    }
    Ok(kept.expect("set-up runs at least once"))
}

/// Runs timed passes until the next one would end past `seconds`
/// (always at least one; only one in the traced run). `pass` returns
/// the duration of its timed part.
pub fn repeat_passes(run: &mut Run, cfg: &Config, mut pass: impl FnMut(usize) -> Duration) {
    let start = Instant::now();
    loop {
        let index = run.passes.len();
        let timed = pass(index);
        run.passes.push(timed);
        let elapsed = start.elapsed().as_secs_f64();
        let per_pass = elapsed / run.passes.len() as f64;
        if cfg.trace || elapsed + per_pass > cfg.seconds {
            break;
        }
    }
}

/// Parses the inputs' OpenQASM texts, returning the circuits and the
/// parse time.
pub fn parse_all(inputs: &[Input]) -> Result<(Vec<Circuit>, Duration), String> {
    let start = Instant::now();
    let circuits = inputs
        .iter()
        .map(|i| qasm::from_qasm(&i.qasm).map_err(|e| format!("{}: {e}", i.name)))
        .collect::<Result<Vec<_>, _>>()?;
    Ok((circuits, start.elapsed()))
}

/// `|⟨a|b⟩|²` of two dense states.
pub fn overlap(a: &[Cplx], b: &[Cplx]) -> f64 {
    let mut ip = Cplx::ZERO;
    for (x, y) in a.iter().zip(b) {
        ip += x.conj() * *y;
    }
    ip.mag2()
}

/// Squared norm of a dense state.
pub fn norm2(a: &[Cplx]) -> f64 {
    a.iter().map(|x| x.mag2()).sum()
}

/// Amplitudes of `circuit`'s exact final state from the statevector
/// oracle.
pub fn oracle(circuit: &Circuit) -> Result<Vec<Cplx>, String> {
    approxdd_statevector::run_circuit(circuit)
        .map(approxdd_statevector::State::into_amplitudes)
        .map_err(|e| format!("oracle: {e}"))
}

/// Peak resident memory of this process (`VmHWM`), in MiB.
pub fn rss_peak_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// Median of a sample (mean of the middle two for even sizes).
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// First quartile, median and third quartile, interpolated between
/// neighbouring order statistics; a single value is all three.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        n => {
            let at = |p: f64| {
                let h = (n + 1) as f64 * p;
                let j = (h.floor() as usize).clamp(1, n - 1);
                let frac = (h - j as f64).clamp(0.0, 1.0);
                v[j - 1] + (v[j] - v[j - 1]) * frac
            };
            [at(0.25), at(0.5), at(0.75)]
        }
    }
}

/// Seconds of a list of durations.
pub fn secs(values: &[Duration]) -> Vec<f64> {
    values.iter().map(Duration::as_secs_f64).collect()
}
