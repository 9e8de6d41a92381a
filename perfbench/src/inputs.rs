//! Workload inputs, generated from the workload seed.
//!
//! The program under test receives only what these functions return:
//! OpenQASM 2.0 text for the circuit workloads, `(n, a)` pairs for
//! Shor. Seed 0 reproduces the Table I instances of the repository's
//! `table1` harness (`qsup_4x4_12_{0,1,2}` and its Shor rows).

use approxdd_circuit::{generators, qasm, Circuit};
use approxdd_shor::FactorOptions;

/// Supremacy circuits per pass of the two `qsup-*` workloads.
pub const QSUP_CIRCUITS: u64 = 3;

/// Distinct supremacy circuits in the `batch-sample` job list.
pub const BATCH_QSUP_CIRCUITS: u64 = 8;

/// Shor instances `(n, a)` of `shor-factor`: the laptop-scale Table I
/// row shor_69_2 and shor_221_4, plus the paper-scale shor_323_8 and
/// shor_629_8 (27 and 30 qubits), whose exact runs time out.
pub const SHOR_INSTANCES: [(u64, u64); 4] = [(69, 2), (221, 4), (323, 8), (629, 8)];

/// Root seed of the `batch-sample` pool's seed stream at seed 0.
const BATCH_ROOT_SEED: u64 = 0xBA7C;

/// One circuit input: the OpenQASM text the program parses, and the
/// generator's name for it (OpenQASM carries no circuit name).
#[derive(Debug, Clone)]
pub struct Input {
    pub name: String,
    pub qasm: String,
}

/// `supremacy(4, 4, 12, s)` for the circuit seeds of workload seed
/// `seed`: `3·seed`, `3·seed + 1`, `3·seed + 2`.
pub fn qsup_inputs(seed: u64) -> Vec<Input> {
    (0..QSUP_CIRCUITS)
        .map(|k| {
            let circuit_seed = seed.wrapping_mul(QSUP_CIRCUITS).wrapping_add(k);
            input(&generators::supremacy(4, 4, 12, circuit_seed))
        })
        .collect()
}

/// The `batch-sample` circuits: `supremacy(4, 4, 8, s)` for the eight
/// circuit seeds `8·seed … 8·seed + 7`, then `qft(14)`.
pub fn batch_inputs(seed: u64) -> Vec<Input> {
    let mut inputs: Vec<Input> = (0..BATCH_QSUP_CIRCUITS)
        .map(|k| {
            let circuit_seed = seed.wrapping_mul(BATCH_QSUP_CIRCUITS).wrapping_add(k);
            input(&generators::supremacy(4, 4, 8, circuit_seed))
        })
        .collect();
    inputs.push(input(&generators::qft(14)));
    inputs
}

/// Seed of Shor's base-selection and sampling RNG: the default
/// `FactorOptions` seed at workload seed 0.
pub fn shor_seed(seed: u64) -> u64 {
    FactorOptions::default().seed ^ seed
}

/// Root seed of the `batch-sample` pool.
pub fn batch_root_seed(seed: u64) -> u64 {
    BATCH_ROOT_SEED ^ seed
}

fn input(circuit: &Circuit) -> Input {
    Input {
        name: circuit.name().to_string(),
        qasm: qasm::to_qasm(circuit).expect("generated circuits use only OpenQASM 2 gates"),
    }
}
