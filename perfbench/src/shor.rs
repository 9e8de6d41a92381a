//! `shor-factor`: fidelity-driven Shor factoring with the base fixed.

use std::time::{Duration, Instant};

use approxdd_shor::{classical_order_check, factor, shor_circuit, FactorOptions, FactorOutcome};
use approxdd_sim::json::Json;
use approxdd_sim::{SimOptions, Simulator, Strategy};

use crate::inputs::{self, SHOR_INSTANCES};
use crate::replay::{self, RunShape, Tail};
use crate::run::{self, Config, Run, Trace};

/// Widest instance whose final state the statevector oracle checks
/// (shor_69_2, 21 qubits: 32 MiB of amplitudes).
const ORACLE_MAX_QUBITS: usize = 21;

fn factor_options(seed: u64, a: u64) -> FactorOptions {
    FactorOptions {
        strategy: Strategy::fidelity_driven(0.5, 0.9),
        base: Some(a),
        seed: inputs::shor_seed(seed),
        ..FactorOptions::default()
    }
}

/// The loop-level results a factoring run reports (no final size:
/// `factor` keeps its state to itself).
fn shape(stats: &approxdd_sim::SimStats) -> RunShape {
    RunShape::of(stats, 0)
}

/// Whether two factoring runs agree on everything but wall time.
fn same(a: &FactorOutcome, b: &FactorOutcome) -> bool {
    (a.factors, a.base, a.order) == (b.factors, b.base, b.order)
        && a.sim_stats.as_ref().map(shape) == b.sim_stats.as_ref().map(shape)
}

/// Runs the workload: one `factor(n)` per instance per pass.
pub fn run(cfg: &Config) -> Result<Run, String> {
    let mut out = Run::new();
    let circuits = run::repeat_setup(&mut out, || {
        let start = Instant::now();
        let circuits = SHOR_INSTANCES
            .iter()
            .map(|&(n, a)| shor_circuit(n, a).map_err(|e| format!("shor_circuit({n}, {a}): {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        Ok((circuits, start.elapsed()))
    })?;
    out.ops = circuits.iter().map(|c| c.ops().len()).sum();

    let mut first: Vec<Option<(FactorOutcome, Duration)>> = vec![None; SHOR_INSTANCES.len()];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); SHOR_INSTANCES.len()];
    let mut checks = std::mem::take(&mut out.checks);
    run::repeat_passes(&mut out, cfg, |pass| {
        let mut timed = Duration::ZERO;
        for (i, &(n, a)) in SHOR_INSTANCES.iter().enumerate() {
            let options = factor_options(cfg.seed, a);
            let start = Instant::now();
            let outcome = factor(n, &options);
            let took = start.elapsed();
            timed += took;
            times[i].push(took.as_secs_f64());
            match (outcome, &first[i]) {
                (Err(e), _) => checks.record(false, || format!("factor({n}): {e}")),
                (Ok(o), Some((f, _))) => checks.record(same(&o, f), || {
                    format!("factor({n}): pass {pass} differs from pass 0")
                }),
                (Ok(o), None) => {
                    checks.record(true, String::new);
                    first[i] = Some((o, took));
                }
            }
        }
        timed
    });
    out.checks = checks;
    out.rss_mb = run::rss_peak_mb();

    let mut classical = Duration::ZERO;
    for (i, &(n, a)) in SHOR_INSTANCES.iter().enumerate() {
        let Some((outcome, took)) = &first[i] else {
            continue;
        };
        let (p, q) = outcome.factors;
        let order_ok = outcome
            .order
            .is_some_and(|r| classical_order_check(n, outcome.base, r));
        let Some(stats) = &outcome.sim_stats else {
            out.checks.fail(|| format!("factor({n}): no quantum run"));
            continue;
        };
        if p * q != n || p <= 1 || q <= 1 || !order_ok || outcome.base != a {
            out.checks.fail(|| format!("factor({n}): {outcome:?}"));
        }
        classical += took.saturating_sub(stats.runtime);
        let truth = if circuits[i].n_qubits() <= ORACLE_MAX_QUBITS {
            Some(true_fidelity(&circuits[i], &mut out)?)
        } else {
            None
        };
        out.fidelity(stats.fidelity, truth);
        out.peak_nodes = out.peak_nodes.max(stats.max_dd_size);
        out.jobs.push(Json::obj([
            ("circuit", Json::str(circuits[i].name())),
            ("qubits", Json::int(circuits[i].n_qubits())),
            ("peak_nodes", Json::int(stats.max_dd_size)),
            ("rounds", Json::int(stats.approx_rounds)),
            ("fidelity", Json::Num(stats.fidelity)),
            ("fidelity_true", truth.map_or(Json::Null, Json::Num)),
            ("factors", Json::str(format!("{p}x{q}"))),
            ("run_s_median", Json::Num(run::median(&times[i]))),
            (
                "run_s",
                Json::Arr(times[i].iter().copied().map(Json::Num).collect()),
            ),
        ]));
    }
    if cfg.trace {
        out.trace = Some(trace(cfg, &mut out, &circuits, &first, classical));
    }
    Ok(out)
}

/// True fidelity of the approximate final state against the oracle.
fn true_fidelity(circuit: &approxdd_circuit::Circuit, out: &mut Run) -> Result<f64, String> {
    let mut sim = Simulator::new(SimOptions {
        strategy: Strategy::fidelity_driven(0.5, 0.9),
        ..SimOptions::default()
    });
    let result = sim.run(circuit).map_err(|e| e.to_string())?;
    let approx = sim.amplitudes(&result).map_err(|e| e.to_string())?;
    sim.release(&result);
    let norm = run::norm2(&approx);
    if (norm - 1.0).abs() >= 1e-6 {
        out.checks
            .fail(|| format!("{}: norm {norm}", circuit.name()));
    }
    Ok(run::overlap(&run::oracle(circuit)?, &approx))
}

/// Re-runs each instance through `Simulator::run` (the reference) and
/// the replay, gating the replay on both the reference and `factor`.
fn trace(
    cfg: &Config,
    out: &mut Run,
    circuits: &[approxdd_circuit::Circuit],
    first: &[Option<(FactorOutcome, Duration)>],
    classical: Duration,
) -> Trace {
    let mut trace = Trace::default();
    let mut samples = 0usize;
    for (i, &(n, a)) in SHOR_INSTANCES.iter().enumerate() {
        let Some((outcome, _)) = &first[i] else {
            continue;
        };
        let options = factor_options(cfg.seed, a);
        let sim_options = SimOptions {
            strategy: options.strategy,
            ..SimOptions::default()
        };
        let mut sim = Simulator::new(sim_options);
        let reference = match sim.run(&circuits[i]) {
            Ok(r) => r,
            Err(e) => {
                out.checks
                    .record(false, || format!("shor_{n}_{a} reference: {e}"));
                continue;
            }
        };
        let want = RunShape::of(&reference.stats, sim.package().vsize(reference.state()));
        trace.reference_wall += reference.stats.runtime;
        drop(sim);
        let tail = Tail::Order {
            n,
            a,
            shots: options.shots,
            seed: options.seed,
        };
        let replayed = replay::replay(&sim_options, &circuits[i], tail, &mut trace.layers);
        let factored = outcome.sim_stats.as_ref().map(shape);
        match replayed {
            Ok(r) => {
                let (order, drawn) = r.order.unwrap_or((None, 0));
                samples += drawn;
                let ok = r.shape == want
                    && factored
                        == Some(RunShape {
                            final_size: 0,
                            ..want
                        })
                    && order == outcome.order;
                out.checks.record(ok, || {
                    format!(
                        "shor_{n}_{a}: replay {:?} order {order:?} != run {want:?} order {:?}",
                        r.shape, outcome.order
                    )
                });
            }
            Err(e) => out
                .checks
                .record(false, || format!("shor_{n}_{a} replay: {e}")),
        }
    }
    trace.extra = vec![
        ("shor.classical_s", classical.as_secs_f64()),
        ("shor.samples", samples as f64),
    ];
    trace
}
