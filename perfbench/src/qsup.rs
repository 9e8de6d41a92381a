//! `qsup-exact` and `qsup-memory`: supremacy circuits, one fresh
//! `Simulator` per job.

use std::time::{Duration, Instant};

use approxdd_circuit::Circuit;
use approxdd_complex::Cplx;
use approxdd_sim::json::Json;
use approxdd_sim::{SimOptions, Simulator, Strategy};

use crate::inputs;
use crate::replay::{self, RunShape, Tail};
use crate::run::{self, Config, Run, Trace};

/// Node threshold of the `qsup-memory` jobs (the `table1` default).
const MEMORY_THRESHOLD: usize = 1 << 12;

/// Round fidelities of the `qsup-memory` jobs.
const MEMORY_ROUND_FIDELITIES: [f64; 2] = [0.99, 0.95];

/// Fidelity an exact run must reach against the statevector oracle.
const EXACT_FIDELITY: f64 = 1.0 - 1e-9;

/// Strategies of one workload: exact only, or memory-driven at each
/// round fidelity.
fn strategies(memory: bool) -> Vec<Strategy> {
    if memory {
        MEMORY_ROUND_FIDELITIES
            .iter()
            .map(|&f| Strategy::memory_driven_table1(MEMORY_THRESHOLD, f))
            .collect()
    } else {
        vec![Strategy::Exact]
    }
}

/// What the first pass recorded about one job.
struct Record {
    shape: RunShape,
    fidelity: f64,
    runtime: Duration,
    times: Vec<f64>,
    amplitudes: Vec<Cplx>,
}

fn options(strategy: Strategy) -> SimOptions {
    SimOptions {
        strategy,
        ..SimOptions::default()
    }
}

/// Runs the workload: `3 circuits × strategies` jobs per pass.
pub fn run(cfg: &Config, memory: bool) -> Result<Run, String> {
    let strategies = strategies(memory);
    let inputs = inputs::qsup_inputs(cfg.seed);
    let jobs: Vec<(usize, Strategy)> = (0..inputs.len())
        .flat_map(|c| strategies.iter().map(move |&s| (c, s)))
        .collect();
    let fresh = || -> Vec<Simulator> {
        jobs.iter()
            .map(|&(_, s)| Simulator::new(options(s)))
            .collect()
    };

    let mut out = Run::new();
    let (circuits, mut sims) = run::repeat_setup(&mut out, || {
        let (circuits, parse) = run::parse_all(&inputs)?;
        Ok(((circuits, fresh()), parse))
    })?;
    out.ops = circuits.iter().map(|c| c.ops().len()).sum();

    let mut records: Vec<Option<Record>> = jobs.iter().map(|_| None).collect();
    let mut checks = std::mem::take(&mut out.checks);
    run::repeat_passes(&mut out, cfg, |pass| {
        if pass > 0 {
            sims = fresh();
        }
        let mut timed = Duration::ZERO;
        for (j, sim) in sims.iter_mut().enumerate() {
            let circuit = &circuits[jobs[j].0];
            let name = &inputs[jobs[j].0].name;
            let start = Instant::now();
            let result = sim.run(circuit);
            let took = start.elapsed();
            timed += took;
            let result = match result {
                Ok(r) => r,
                Err(e) => {
                    checks.record(false, || format!("{name} job {j}: {e}"));
                    continue;
                }
            };
            let shape = RunShape::of(&result.stats, sim.package().vsize(result.state()));
            match &mut records[j] {
                Some(first) => {
                    first.times.push(took.as_secs_f64());
                    checks.record(shape == first.shape, || {
                        format!("{name} job {j}: pass {pass} differs from pass 0")
                    });
                }
                None => match sim.amplitudes(&result) {
                    Ok(amplitudes) => {
                        checks.record(true, String::new);
                        records[j] = Some(Record {
                            shape,
                            fidelity: result.stats.fidelity,
                            runtime: result.stats.runtime,
                            times: vec![took.as_secs_f64()],
                            amplitudes,
                        });
                    }
                    Err(e) => checks.record(false, || format!("amplitudes: {e}")),
                },
            }
            sim.release(&result);
        }
        sims.clear();
        timed
    });
    out.checks = checks;
    out.rss_mb = run::rss_peak_mb();

    let names: Vec<&str> = inputs.iter().map(|i| i.name.as_str()).collect();
    verify(&mut out, &circuits, &names, &jobs, &mut records)?;
    if cfg.trace {
        out.trace = Some(trace(&mut out, &circuits, &names, &jobs, &records));
    }
    Ok(out)
}

/// Checks every job of the first pass against the statevector oracle.
fn verify(
    out: &mut Run,
    circuits: &[Circuit],
    names: &[&str],
    jobs: &[(usize, Strategy)],
    records: &mut [Option<Record>],
) -> Result<(), String> {
    for (c, circuit) in circuits.iter().enumerate() {
        let name = names[c];
        let exact = run::oracle(circuit)?;
        for (j, &(_, strategy)) in jobs.iter().enumerate().filter(|(_, job)| job.0 == c) {
            let Some(record) = records[j].as_mut() else {
                continue;
            };
            let truth = run::overlap(&exact, &record.amplitudes);
            let norm = run::norm2(&record.amplitudes);
            record.amplitudes = Vec::new();
            let ok = if strategy == Strategy::Exact {
                truth >= EXACT_FIDELITY
            } else {
                (norm - 1.0).abs() < 1e-6
            };
            if !ok {
                out.checks
                    .fail(|| format!("{name} job {j}: true fidelity {truth}, norm {norm}"));
            }
            out.fidelity(record.fidelity, Some(truth));
            out.peak_nodes = out.peak_nodes.max(record.shape.peak);
            out.jobs.push(Json::obj([
                ("circuit", Json::str(name)),
                ("strategy", Json::str(format!("{strategy:?}"))),
                ("peak_nodes", Json::int(record.shape.peak)),
                ("rounds", Json::int(record.shape.rounds)),
                ("fidelity", Json::Num(record.fidelity)),
                ("fidelity_true", Json::Num(truth)),
                ("run_s_median", Json::Num(run::median(&record.times))),
                (
                    "run_s",
                    Json::Arr(record.times.iter().copied().map(Json::Num).collect()),
                ),
            ]));
        }
    }
    Ok(())
}

/// Replays every job and gates the replay on the first pass's results.
fn trace(
    out: &mut Run,
    circuits: &[Circuit],
    names: &[&str],
    jobs: &[(usize, Strategy)],
    records: &[Option<Record>],
) -> Trace {
    let mut trace = Trace::default();
    for (j, &(c, strategy)) in jobs.iter().enumerate() {
        let Some(record) = &records[j] else { continue };
        let replayed = replay::replay(
            &options(strategy),
            &circuits[c],
            Tail::None,
            &mut trace.layers,
        );
        trace.reference_wall += record.runtime;
        let name = names[c];
        match replayed {
            Ok(r) => out.checks.record(r.shape == record.shape, || {
                format!(
                    "{name} job {j}: replay {:?} != run {:?}",
                    r.shape, record.shape
                )
            }),
            Err(e) => out
                .checks
                .record(false, || format!("{name} job {j}: replay: {e}")),
        }
    }
    trace
}
