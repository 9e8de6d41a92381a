//! A custom approximation policy defined **outside** `approxdd-core`,
//! proving the `ApproxPolicy` seam is public, object-safe, and
//! sufficient: no simulator internals are touched, yet the policy sees
//! every per-gate snapshot and its decisions are fully audited through
//! the `SimObserver` trace.
//!
//! The policy here is *adaptive*: it watches the DD's growth rate and
//! truncates only when the state doubled since the last round — harder
//! (lower round fidelity) the faster it grew — while refusing to spend
//! below a hard final-fidelity floor. It runs both through a plain
//! `SimulatorBuilder` and through a `BackendPool` (per-job policy
//! instantiation keeps pooled results worker-count-invariant).
//!
//! ```text
//! cargo run --release --example adaptive_policy
//! ```

use approxdd::circuit::generators;
use approxdd::exec::{BuildPool, PoolJob};
use approxdd::sim::{
    ApproxPolicy, BudgetPolicy, PolicyAction, PolicyCtx, SimError, Simulator, TraceEvent,
    TraceRecorder,
};

/// Truncate when the DD doubled since the last round, scaling the
/// round's aggressiveness with how hot the growth is, but never let
/// the floor on the reported fidelity estimate drop below `min_fidelity`.
#[derive(Debug, Clone)]
struct GrowthAdaptivePolicy {
    /// Node count at the last round (or the run start).
    last_round_nodes: usize,
    /// Never truncate below this floor on the reported fidelity.
    min_fidelity: f64,
}

impl GrowthAdaptivePolicy {
    fn new(min_fidelity: f64) -> Self {
        Self {
            last_round_nodes: 0,
            min_fidelity,
        }
    }
}

impl ApproxPolicy for GrowthAdaptivePolicy {
    fn name(&self) -> &str {
        "growth-adaptive"
    }

    fn begin(&mut self, _circuit: &approxdd::circuit::Circuit) -> Result<(), SimError> {
        if !(self.min_fidelity > 0.0 && self.min_fidelity < 1.0) {
            return Err(SimError::InvalidStrategy {
                reason: "growth-adaptive floor must lie in (0, 1)",
            });
        }
        self.last_round_nodes = 0;
        Ok(())
    }

    fn decide(&mut self, ctx: &PolicyCtx) -> PolicyAction {
        if !ctx.applied_gate {
            return PolicyAction::Continue;
        }
        if self.last_round_nodes == 0 {
            self.last_round_nodes = ctx.live_nodes.max(1);
            return PolicyAction::Continue;
        }
        if ctx.live_nodes < self.last_round_nodes * 2 || ctx.live_nodes < 64 {
            return PolicyAction::Continue;
        }
        // Doubled: truncate, harder the further past 2x we overshot —
        // but clamp so the fidelity floor stays above min_fidelity.
        let overshoot = ctx.live_nodes as f64 / self.last_round_nodes as f64;
        let round_fidelity = (1.0 - 0.01 * overshoot).clamp(0.9, 0.999);
        if ctx.fidelity_lower_bound * round_fidelity < self.min_fidelity {
            return PolicyAction::Continue; // budget exhausted: exact from here on
        }
        self.last_round_nodes = ctx.live_nodes;
        PolicyAction::Truncate { round_fidelity }
    }
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    let circuit = generators::supremacy(3, 3, 12, 1);

    // --- Single simulator: custom policy + trace observer. ----------
    let trace = TraceRecorder::shared();
    let mut sim = Simulator::builder()
        .policy(|| GrowthAdaptivePolicy::new(0.75))
        .observe(trace.clone())
        .seed(7)
        .build();
    let run = sim.run(&circuit)?;
    println!(
        "policy {:?}: {} gates, {} rounds, fidelity {:.4} (floor {:.4}), peak {} nodes",
        run.stats.policy,
        run.stats.gates_applied,
        run.stats.approx_rounds,
        run.stats.fidelity,
        run.stats.fidelity_lower_bound,
        run.stats.max_dd_size,
    );
    assert!(run.stats.fidelity_lower_bound >= 0.75 - 1e-9);

    // Audit every approximation decision from the trace.
    let events = trace.lock().unwrap().take();
    for event in &events {
        match event {
            TraceEvent::RoundStarted {
                op_index,
                round,
                target_fidelity,
                live_nodes,
            } => println!(
                "  round {round} after op {op_index}: {live_nodes} nodes, target {target_fidelity:.4}"
            ),
            TraceEvent::Truncated {
                nodes_before,
                nodes_after,
                removed_mass,
                ..
            } => println!(
                "    -> {nodes_before} to {nodes_after} nodes, removed mass {removed_mass:.5}"
            ),
            _ => {}
        }
    }
    let gate_events = events
        .iter()
        .filter(|e| matches!(e, TraceEvent::GateApplied { .. }))
        .count();
    assert_eq!(gate_events, run.stats.gates_applied);

    // --- Pooled: the same custom policy per job, plus the built-in
    // budget hybrid, running side by side on one pool. ---------------
    let pool = Simulator::builder().workers(2).seed(7).build_pool();
    let jobs = vec![
        PoolJob::new(circuit.clone())
            .policy(|| GrowthAdaptivePolicy::new(0.75))
            .trace(true),
        PoolJob::new(circuit.clone())
            .policy(|| BudgetPolicy::new(256, 0.97, 0.8))
            .trace(true),
    ];
    for result in pool.run_jobs(jobs) {
        let outcome = result?;
        let rounds_in_trace = outcome.trace.as_ref().map_or(0, |t| {
            t.iter()
                .filter(|e| matches!(e, TraceEvent::Truncated { .. }))
                .count()
        });
        println!(
            "pooled {} [{}]: {} rounds (trace agrees: {}), fidelity {:.4} >= floor {:.4}",
            outcome.name,
            outcome.stats.policy,
            outcome.stats.approx_rounds,
            rounds_in_trace == outcome.stats.approx_rounds,
            outcome.stats.fidelity,
            outcome.stats.fidelity_lower_bound,
        );
        assert_eq!(rounds_in_trace, outcome.stats.approx_rounds);
        assert!(outcome.stats.fidelity >= outcome.stats.fidelity_lower_bound - 1e-12);
    }
    Ok(())
}
