//! The traced run: re-drives `Simulator::run`'s loop through the `dd`
//! and `core` public functions, timing every call into a layer.
//!
//! The replay performs exactly the package operations `Simulator::run`
//! performs, in the same order, on the package of a freshly built
//! simulator. [`Outcome`] carries every deterministic result the real
//! loop reports, so the caller can prove the replay did the same work
//! (the replay gate) before trusting its layer times.

use std::collections::HashMap;
use std::time::{Duration, Instant};

use approxdd_circuit::{Circuit, Operation};
use approxdd_dd::{MEdge, RemovalStrategy};
use approxdd_sim::{ApproxPrimitive, PolicyAction, PolicyCtx, SimOptions, Simulator};
use rand::rngs::StdRng;
use rand::SeedableRng;

/// Calls into one layer: how many, and the time they took.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    pub calls: u64,
    pub time: Duration,
}

impl Tally {
    /// Runs `f`, adding one call and its duration.
    pub fn time<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let start = Instant::now();
        let out = f();
        self.time += start.elapsed();
        self.calls += 1;
        out
    }
}

/// Per-layer totals accumulated over every replayed job.
#[derive(Debug, Default)]
pub struct Layers {
    pub gate_build: Tally,
    pub apply: Tally,
    pub size: Tally,
    pub decide: Tally,
    pub truncate: Tally,
    pub gc: Tally,
    pub sample: Tally,
    pub removed_nodes: u64,
    pub gc_freed: u64,
    pub shots: u64,
    pub ct_hits: u64,
    pub ct_lookups: u64,
    pub occupancy_sum: f64,
    pub jobs: u64,
    /// Summed wall time of the replayed loops (gate build to last GC).
    pub loop_wall: Duration,
}

impl Layers {
    /// The timed calls inside the replayed loop (sampling runs after
    /// the loop and is not part of `loop_wall`).
    pub fn loop_timed(&self) -> Duration {
        self.gate_build.time
            + self.apply.time
            + self.size.time
            + self.decide.time
            + self.truncate.time
            + self.gc.time
    }

    /// Timed calls made so far, sampling included.
    pub fn timed_calls(&self) -> u64 {
        self.gate_build.calls
            + self.apply.calls
            + self.size.calls
            + self.decide.calls
            + self.truncate.calls
            + self.gc.calls
            + self.sample.calls
    }
}

/// The deterministic results of one run of the simulation loop — the
/// fields the replay gate compares against `Simulator::run`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunShape {
    pub gates_applied: usize,
    pub peak: usize,
    pub rounds: usize,
    pub fidelity_bits: u64,
    pub nodes_removed: usize,
    pub final_size: usize,
}

impl RunShape {
    /// The shape of a real `Simulator::run` result.
    pub fn of(stats: &approxdd_sim::SimStats, final_size: usize) -> Self {
        Self {
            gates_applied: stats.gates_applied,
            peak: stats.max_dd_size,
            rounds: stats.approx_rounds,
            fidelity_bits: stats.fidelity.to_bits(),
            nodes_removed: stats.nodes_removed,
            final_size,
        }
    }
}

/// What one replayed job produced.
#[derive(Debug)]
pub struct Outcome {
    pub shape: RunShape,
    pub counts: Option<HashMap<u64, usize>>,
    /// Shor order-finding tail: the verified order and the samples it
    /// took, when the job asked for it.
    pub order: Option<(Option<u64>, usize)>,
}

/// What to do with the final state after the loop.
#[derive(Debug, Clone, Copy)]
pub enum Tail {
    None,
    /// Draw `shots` outcomes into a histogram, as a pool job does.
    Counts {
        shots: usize,
        seed: u64,
    },
    /// Shor's order finding: draw one shot at a time, exactly as
    /// `approxdd_shor::find_order` does.
    Order {
        n: u64,
        a: u64,
        shots: usize,
        seed: u64,
    },
}

/// Gate-DD cache key: one entry per distinct operation, like the
/// simulator's own per-session cache.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
enum GateKey {
    Gate {
        name: &'static str,
        param_bits: u64,
        target: usize,
        controls: Vec<(usize, bool)>,
    },
    Table {
        ptr: usize,
        lo: usize,
        k: usize,
        controls: Vec<(usize, bool)>,
    },
}

fn gate_key(op: &Operation) -> GateKey {
    match op {
        Operation::Gate { gate, target, .. } => GateKey::Gate {
            name: gate.name(),
            param_bits: gate.parameter().map_or(0, f64::to_bits),
            target: *target,
            controls: op.control_pairs(),
        },
        Operation::Permutation { lo, k, perm, .. } => GateKey::Table {
            ptr: perm.as_ptr() as usize,
            lo: *lo,
            k: *k,
            controls: op.control_pairs(),
        },
        Operation::DenseBlock { lo, k, matrix, .. } => GateKey::Table {
            ptr: matrix.as_ptr() as usize,
            lo: *lo,
            k: *k,
            controls: op.control_pairs(),
        },
        Operation::ApproxPoint | Operation::Barrier => unreachable!("markers are not gates"),
    }
}

/// Replays `circuit` under `options` on a fresh simulator's package,
/// timing each layer call into `layers`.
///
/// # Errors
///
/// A description of the first failing call, or of a policy the replay
/// does not model.
pub fn replay(
    options: &SimOptions,
    circuit: &Circuit,
    tail: Tail,
    layers: &mut Layers,
) -> Result<Outcome, String> {
    if options.primitive != ApproxPrimitive::Nodes {
        return Err("the replay models node truncation only".into());
    }
    let mut sim = Simulator::new(*options);
    let mut policy = sim.policy_factory().build();
    policy.begin(circuit).map_err(|e| e.to_string())?;
    circuit.validate().map_err(|e| e.to_string())?;
    let n = circuit.n_qubits();
    let pkg = sim.package_mut();

    let mut state = pkg.zero_state(n);
    let loop_start = Instant::now();
    pkg.inc_ref(state);
    let mut gates: HashMap<GateKey, MEdge> = HashMap::new();
    let mut peak = layers.size.time(|| pkg.vsize(state));
    let mut live = peak;
    let (mut gates_applied, mut rounds, mut removed) = (0usize, 0usize, 0usize);
    let (mut fidelity, mut floor) = (1.0f64, 1.0f64);
    let total_ops = circuit.ops().len();
    for (i, op) in circuit.ops().iter().enumerate() {
        let applied_gate = op.is_gate();
        if applied_gate {
            let key = gate_key(op);
            let gate = match gates.get(&key) {
                Some(&edge) => edge,
                None => {
                    let built = layers.gate_build.time(|| match op {
                        Operation::Gate { gate, target, .. } => pkg.controlled_gate_polarized(
                            n,
                            &op.control_pairs(),
                            *target,
                            gate.matrix(),
                        ),
                        Operation::Permutation { lo, k, perm, .. } => {
                            pkg.permutation_gate(n, *lo, *k, perm, &op.control_pairs())
                        }
                        Operation::DenseBlock { lo, k, matrix, .. } => {
                            pkg.dense_block_gate(n, *lo, *k, matrix, &op.control_pairs())
                        }
                        Operation::ApproxPoint | Operation::Barrier => unreachable!(),
                    });
                    let edge = built.map_err(|e| e.to_string())?;
                    pkg.inc_ref_m(edge);
                    gates.insert(key, edge);
                    edge
                }
            };
            let next = layers.apply.time(|| pkg.apply(gate, state));
            pkg.inc_ref(next);
            pkg.dec_ref(state);
            state = next;
            gates_applied += 1;
            live = layers.size.time(|| pkg.vsize(state));
            peak = peak.max(live);
        }

        let ctx = PolicyCtx {
            op_index: i,
            total_ops,
            applied_gate,
            at_marker: matches!(op, Operation::ApproxPoint),
            gates_applied,
            live_nodes: live,
            peak_nodes: peak,
            rounds_taken: rounds,
            fidelity_lower_bound: floor,
            fidelity_estimate: fidelity,
        };
        let mut truncated = false;
        match layers.decide.time(|| policy.decide(&ctx)) {
            PolicyAction::Continue => {}
            PolicyAction::Truncate { round_fidelity } => {
                let budget = 1.0 - round_fidelity;
                let result = layers
                    .truncate
                    .time(|| pkg.truncate(state, RemovalStrategy::Budget(budget)))
                    .map_err(|e| e.to_string())?;
                rounds += 1;
                if result.removed_nodes > 0 {
                    pkg.inc_ref(result.edge);
                    pkg.dec_ref(state);
                    state = result.edge;
                    fidelity *= result.fidelity;
                    removed += result.removed_nodes;
                    floor *= round_fidelity;
                    layers.removed_nodes += result.removed_nodes as u64;
                }
                live = layers.size.time(|| pkg.vsize(state));
                truncated = true;
            }
            PolicyAction::Abort => return Err(format!("policy aborted at op {i}")),
            #[allow(unreachable_patterns)]
            _ => return Err("policy returned an action the replay does not model".into()),
        }
        if (applied_gate || truncated) && pkg.collectable_nodes() > options.gc_node_threshold {
            let freed = layers.gc.time(|| pkg.collect_garbage());
            layers.gc_freed += (freed.vnodes_freed + freed.mnodes_freed) as u64;
        }
    }
    layers.loop_wall += loop_start.elapsed();

    let stats = pkg.stats();
    layers.ct_hits += stats.ct_hits;
    layers.ct_lookups += stats.ct_hits + stats.ct_misses;
    layers.occupancy_sum += stats.unique_occupancy();
    layers.jobs += 1;

    let shape = RunShape {
        gates_applied,
        peak,
        rounds,
        fidelity_bits: fidelity.to_bits(),
        nodes_removed: removed,
        final_size: pkg.vsize(state),
    };
    let mut counts = None;
    let mut order = None;
    match tail {
        Tail::None => {}
        Tail::Counts { shots, seed } => {
            let mut rng = StdRng::seed_from_u64(seed);
            counts = Some(
                layers
                    .sample
                    .time(|| pkg.sample_counts(state, shots, &mut rng)),
            );
            layers.shots += shots as u64;
        }
        Tail::Order { n, a, shots, seed } => {
            order = Some(find_order_tail(pkg, state, n, a, shots, seed, layers));
        }
    }
    Ok(Outcome {
        shape,
        counts,
        order,
    })
}

/// `approxdd_shor::find_order`'s sampling loop over an already
/// simulated state: the same RNG seed, the same stopping rule.
fn find_order_tail(
    pkg: &approxdd_dd::Package,
    state: approxdd_dd::VEdge,
    n: u64,
    a: u64,
    shots: usize,
    seed: u64,
    layers: &mut Layers,
) -> (Option<u64>, usize) {
    use approxdd_shor::classical::{bit_length, modpow, order_candidates};
    let n_work = bit_length(n);
    let m = 2 * n_work as u32;
    let mut rng = StdRng::seed_from_u64(seed ^ a ^ n);
    let mut best: Option<u64> = None;
    let mut samples = 0usize;
    for _ in 0..shots {
        samples += 1;
        let outcome = layers.sample.time(|| pkg.sample(state, &mut rng));
        let y = outcome >> n_work;
        for r in order_candidates(y, m, n) {
            if modpow(a, r, n) == 1 {
                best = Some(best.map_or(r, |b| b.min(r)));
            }
        }
        if best.is_some() && samples >= 8 {
            break;
        }
    }
    layers.shots += samples as u64;
    (best, samples)
}
