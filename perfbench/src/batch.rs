//! `batch-sample`: 64 sampled jobs on a two-worker `BackendPool` with
//! shared gate snapshots.

use std::time::{Duration, Instant};

use approxdd_circuit::Circuit;
use approxdd_exec::{BackendPool, PoolJob, PoolOutcome, SeedStream, DOMAIN_RUN};
use approxdd_sim::json::Json;
use approxdd_sim::{Simulator, SimulatorBuilder};

use crate::inputs::{self, BATCH_QSUP_CIRCUITS};
use crate::replay::{self, RunShape, Tail};
use crate::run::{self, Config, Run, Trace};

/// Pool workers.
const WORKERS: usize = 2;
/// Jobs per circuit kind: this many supremacy and this many QFT jobs.
const JOBS_PER_KIND: usize = 32;
/// Shots per job.
const SHOTS: usize = 8192;
/// Node threshold and round fidelity of the memory-driven jobs.
const THRESHOLD: usize = 2048;
const ROUND_FIDELITY: f64 = 0.97;
/// Fidelity an exact (QFT) run must reach against the oracle.
const EXACT_FIDELITY: f64 = 1.0 - 1e-9;

fn template(seed: u64) -> SimulatorBuilder {
    Simulator::builder()
        .workers(WORKERS)
        .seed(inputs::batch_root_seed(seed))
        .share_snapshot(true)
        .memory_driven_table1(THRESHOLD, ROUND_FIDELITY)
}

/// Circuit index of job `i`: supremacy and QFT jobs alternate, the
/// supremacy jobs cycling through the eight circuits.
fn circuit_of(job: usize) -> usize {
    if job.is_multiple_of(2) {
        (job / 2) % BATCH_QSUP_CIRCUITS as usize
    } else {
        BATCH_QSUP_CIRCUITS as usize
    }
}

fn shape(o: &PoolOutcome) -> RunShape {
    RunShape {
        gates_applied: o.stats.gates_applied,
        peak: o.stats.peak_size,
        rounds: o.stats.approx_rounds,
        fidelity_bits: o.stats.fidelity.to_bits(),
        nodes_removed: o.stats.nodes_removed,
        final_size: o.final_size,
    }
}

/// Runs the workload: one `run_jobs` call per pass.
pub fn run(cfg: &Config) -> Result<Run, String> {
    let inputs = inputs::batch_inputs(cfg.seed);
    let jobs_total = 2 * JOBS_PER_KIND;
    let mut out = Run::new();
    let (circuits, jobs, pool) = run::repeat_setup(&mut out, || {
        let (circuits, parse) = run::parse_all(&inputs)?;
        let jobs: Vec<PoolJob> = (0..jobs_total)
            .map(|i| PoolJob::new(circuits[circuit_of(i)].clone()).shots(SHOTS))
            .collect();
        let pool = BackendPool::new(template(cfg.seed));
        Ok(((circuits, jobs, pool), parse))
    })?;
    out.ops = circuits.iter().map(|c| c.ops().len()).sum();

    let mut first: Vec<PoolOutcome> = Vec::new();
    let mut fingerprints: Vec<u64> = Vec::new();
    let mut checks = std::mem::take(&mut out.checks);
    run::repeat_passes(&mut out, cfg, |pass| {
        let submitted = jobs.clone();
        let start = Instant::now();
        let results = pool.run_jobs(submitted);
        let timed = start.elapsed();
        for (i, result) in results.into_iter().enumerate() {
            match result {
                Err(e) => checks.record(false, || format!("job {i}: {e}")),
                Ok(o) if pass == 0 => {
                    checks.record(true, String::new);
                    fingerprints.push(o.fingerprint());
                    first.push(o);
                }
                Ok(o) => checks.record(fingerprints.get(i) == Some(&o.fingerprint()), || {
                    format!("job {i}: pass {pass} fingerprint differs from pass 0")
                }),
            }
        }
        timed
    });
    out.checks = checks;
    out.rss_mb = run::rss_peak_mb();
    if first.len() != jobs_total {
        return Err("the first pass lost jobs".into());
    }

    let names: Vec<&str> = inputs.iter().map(|i| i.name.as_str()).collect();
    verify(cfg, &mut out, &circuits, &names, &first)?;
    if cfg.trace {
        let wall = out.passes[0];
        out.trace = Some(trace(cfg, &mut out, &pool, &circuits, &first, wall));
    }
    Ok(out)
}

/// Reruns the first job of each distinct circuit on a serial
/// `Simulator` with the job's seed: its fingerprint must equal the
/// pooled one, and its state gives the true fidelity.
fn verify(
    cfg: &Config,
    out: &mut Run,
    circuits: &[Circuit],
    names: &[&str],
    first: &[PoolOutcome],
) -> Result<(), String> {
    let seeds = SeedStream::new(inputs::batch_root_seed(cfg.seed));
    for o in first {
        out.fidelity(o.stats.fidelity, None);
        out.peak_nodes = out.peak_nodes.max(o.stats.peak_size);
    }
    for (c, circuit) in circuits.iter().enumerate() {
        let Some(i) = (0..first.len()).find(|&i| circuit_of(i) == c) else {
            continue;
        };
        let mut sim = template(cfg.seed).build();
        let result = sim.run(circuit).map_err(|e| e.to_string())?;
        sim.reseed(seeds.seed(DOMAIN_RUN, i as u64));
        let serial = PoolOutcome {
            name: circuit.name().to_string(),
            n_qubits: circuit.n_qubits(),
            stats: result.stats.clone().into(),
            final_size: sim.package().vsize(result.state()),
            counts: Some(sim.draw_counts(&result, SHOTS)),
            expectation: None,
            trace: None,
            worker: 0,
            attempts: 1,
            degraded: false,
        };
        let approx = sim.amplitudes(&result).map_err(|e| e.to_string())?;
        sim.release(&result);
        let truth = run::overlap(&run::oracle(circuit)?, &approx);
        let exact = result.stats.approx_rounds == 0;
        if serial.fingerprint() != first[i].fingerprint() || (exact && truth < EXACT_FIDELITY) {
            out.checks.fail(|| {
                format!(
                    "job {i} ({}): serial rerun differs or true fidelity {truth}",
                    names[c]
                )
            });
        }
        out.fidelity(result.stats.fidelity, Some(truth));
        out.jobs.push(Json::obj([
            ("circuit", Json::str(names[c])),
            ("peak_nodes", Json::int(result.stats.max_dd_size)),
            ("rounds", Json::int(result.stats.approx_rounds)),
            ("fidelity", Json::Num(result.stats.fidelity)),
            ("fidelity_true", Json::Num(truth)),
        ]));
    }
    Ok(())
}

/// Pool-layer counters of the traced pass, then a serial replay of
/// every job gated on its pooled outcome.
fn trace(
    cfg: &Config,
    out: &mut Run,
    pool: &BackendPool,
    circuits: &[Circuit],
    first: &[PoolOutcome],
    wall: Duration,
) -> Trace {
    let stats = pool.stats();
    let busy = stats.total_busy().as_secs_f64();
    let capacity = wall.as_secs_f64() * stats.workers as f64;
    let gates: usize = (0..first.len())
        .map(|i| circuits[circuit_of(i)].gate_count())
        .sum();
    let mut trace = Trace {
        extra: vec![
            ("exec.busy_s", busy),
            ("exec.idle_s", (capacity - busy).max(0.0)),
            ("exec.jobs", stats.jobs_completed() as f64),
            ("exec.retries", stats.retries as f64),
            ("exec.max_queue_depth", stats.max_queue_depth as f64),
            (
                "exec.snapshot_hit_rate",
                stats.snapshot_gate_hits() as f64 / gates.max(1) as f64,
            ),
        ],
        ..Trace::default()
    };
    let options = *template(cfg.seed).options();
    let seeds = SeedStream::new(inputs::batch_root_seed(cfg.seed));
    for (i, o) in first.iter().enumerate() {
        let tail = Tail::Counts {
            shots: SHOTS,
            seed: seeds.seed(DOMAIN_RUN, i as u64),
        };
        let replayed = replay::replay(&options, &circuits[circuit_of(i)], tail, &mut trace.layers);
        trace.reference_wall += o.stats.runtime;
        match replayed {
            Ok(r) => out
                .checks
                .record(r.shape == shape(o) && r.counts == o.counts, || {
                    format!("job {i}: replay {:?} != pooled {:?}", r.shape, shape(o))
                }),
            Err(e) => out.checks.record(false, || format!("job {i} replay: {e}")),
        }
    }
    trace
}
