//! Property-based tests of the decision-diagram engine's invariants:
//! canonicity, linear-algebra laws against dense references, unitarity
//! of constructed gates, and the approximation guarantees.

use approxdd_complex::Cplx;
use approxdd_dd::{GateKind, MEdge, NodeId, Package, RemovalStrategy, TruncationResult, VEdge};
use proptest::prelude::*;

/// A random complex amplitude vector of dimension `2^n`, normalized.
fn unit_state(n: usize) -> impl Strategy<Value = Vec<Cplx>> {
    prop::collection::vec((-1.0f64..1.0, -1.0f64..1.0), 1 << n).prop_filter_map(
        "usable norm",
        |pairs| {
            let norm: f64 = pairs
                .iter()
                .map(|(re, im)| re * re + im * im)
                .sum::<f64>()
                .sqrt();
            if norm < 1e-3 {
                return None;
            }
            Some(
                pairs
                    .into_iter()
                    .map(|(re, im)| Cplx::new(re / norm, im / norm))
                    .collect(),
            )
        },
    )
}

/// SplitMix64: a stateless stream of test randomness from one seed.
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A unit state on `n` qubits drawn from `seed`, of one of three kinds:
/// continuous random amplitudes; amplitudes from {0, ±1, ±i} (many
/// equal contributions); or an equal superposition of a few basis
/// states (GHZ-like, down to a single basis state).
fn seeded_state(n: usize, kind: usize, seed: u64) -> Vec<Cplx> {
    let mut s = seed;
    let dim = 1usize << n;
    let mut amps: Vec<Cplx> = match kind {
        0 => (0..dim)
            .map(|_| {
                let re = (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                let im = (splitmix(&mut s) >> 11) as f64 / (1u64 << 53) as f64 - 0.5;
                Cplx::new(re, im)
            })
            .collect(),
        1 => (0..dim)
            .map(|_| [Cplx::ZERO, Cplx::ONE, -Cplx::ONE, Cplx::I][(splitmix(&mut s) % 4) as usize])
            .collect(),
        _ => {
            let mut v = vec![Cplx::ZERO; dim];
            for _ in 0..1 + splitmix(&mut s) % 4 {
                v[(splitmix(&mut s) % dim as u64) as usize] = Cplx::ONE;
            }
            v
        }
    };
    if amps.iter().all(|a| a.mag2() == 0.0) {
        amps[0] = Cplx::ONE;
    }
    let norm = amps.iter().map(|a| a.mag2()).sum::<f64>().sqrt();
    amps.into_iter().map(|a| a / norm).collect()
}

/// One truncation round of a given primitive, run identically on two
/// packages that hold the same state under the same node ids.
#[derive(Debug, Clone, Copy)]
enum Round {
    Budget(f64),
    Edges(f64),
    /// Remove each non-root node with probability 1/`one_in`, drawn
    /// from the seed.
    Nodes {
        seed: u64,
        one_in: u64,
    },
}

impl Round {
    fn run(self, p: &mut Package, root: VEdge) -> Result<TruncationResult, approxdd_dd::DdError> {
        match self {
            Round::Budget(b) => p.truncate(root, RemovalStrategy::Budget(b)),
            Round::Edges(b) => p.truncate_edges(root, b),
            Round::Nodes { mut seed, one_in } => {
                let cm = p.contributions(root);
                let victims: Vec<NodeId> = (0..cm.level_count())
                    .flat_map(|var| cm.level(var).to_vec())
                    .filter(|&id| id != root.node && splitmix(&mut seed).is_multiple_of(one_in))
                    .collect();
                p.truncate_nodes(root, &victims)
            }
        }
    }
}

/// A random single-qubit gate from the full alphabet.
fn random_gate() -> impl Strategy<Value = GateKind> {
    prop_oneof![
        Just(GateKind::X),
        Just(GateKind::Y),
        Just(GateKind::Z),
        Just(GateKind::H),
        Just(GateKind::S),
        Just(GateKind::T),
        Just(GateKind::SxGate),
        Just(GateKind::SyGate),
        (-3.0f64..3.0).prop_map(GateKind::Phase),
        (-3.0f64..3.0).prop_map(GateKind::Rx),
        (-3.0f64..3.0).prop_map(GateKind::Ry),
        (-3.0f64..3.0).prop_map(GateKind::Rz),
    ]
}

/// A gate on an `n`-qubit register with its dense reference semantics:
/// the body fires on basis states whose `(qubit, polarity)` controls are
/// all satisfied and acts as the identity elsewhere.
#[derive(Debug)]
struct RandomGate {
    controls: Vec<(usize, bool)>,
    body: GateBody,
}

#[derive(Debug)]
enum GateBody {
    Single {
        target: usize,
        u: [[Cplx; 2]; 2],
    },
    Perm {
        lo: usize,
        k: usize,
        perm: Vec<usize>,
    },
}

impl RandomGate {
    /// Draws an uncontrolled single-qubit gate, a controlled single-qubit
    /// gate (controls on random qubits above and below the target, random
    /// polarity), or a controlled permutation of a contiguous block. A
    /// target or block sits on the bottom qubit, the top qubit, or a
    /// random position with equal odds.
    fn draw(n: usize, s: &mut u64) -> Self {
        let mut pick = |m: usize| (splitmix(s) % m as u64) as usize;
        let kind = pick(3);
        let k = if kind == 2 { 1 + pick(n.min(3)) } else { 1 };
        let lo = match pick(3) {
            0 => 0,
            1 => n - k,
            _ => pick(n - k + 1),
        };
        let mut controls = Vec::new();
        if kind != 0 {
            for q in (0..n).filter(|q| !(lo..lo + k).contains(q)) {
                if pick(3) == 0 {
                    controls.push((q, pick(2) == 0));
                }
            }
        }
        let body = if kind == 2 {
            let mut perm: Vec<usize> = (0..1 << k).collect();
            for i in (1..perm.len()).rev() {
                perm.swap(i, pick(i + 1));
            }
            GateBody::Perm { lo, k, perm }
        } else {
            let theta = pick(6283) as f64 / 1000.0 - 3.0;
            let gate = [
                GateKind::X,
                GateKind::Y,
                GateKind::H,
                GateKind::T,
                GateKind::SxGate,
                GateKind::Phase(theta),
                GateKind::Rx(theta),
                GateKind::Ry(theta),
            ][pick(8)];
            GateBody::Single {
                target: lo,
                u: gate.matrix(),
            }
        };
        Self { controls, body }
    }

    fn build(&self, p: &mut Package, n: usize) -> MEdge {
        match &self.body {
            GateBody::Single { target, u } => {
                p.controlled_gate_polarized(n, &self.controls, *target, *u)
            }
            GateBody::Perm { lo, k, perm } => p.permutation_gate(n, *lo, *k, perm, &self.controls),
        }
        .unwrap()
    }

    fn apply_dense(&self, amps: &[Cplx]) -> Vec<Cplx> {
        let fires = |i: usize| {
            self.controls
                .iter()
                .all(|&(q, pol)| ((i >> q) & 1 == 1) == pol)
        };
        let mut out = amps.to_vec();
        match &self.body {
            GateBody::Single { target, u } => {
                let t = 1usize << target;
                for i in (0..amps.len()).filter(|&i| i & t == 0 && fires(i)) {
                    let (a0, a1) = (amps[i], amps[i | t]);
                    out[i] = u[0][0] * a0 + u[0][1] * a1;
                    out[i | t] = u[1][0] * a0 + u[1][1] * a1;
                }
            }
            GateBody::Perm { lo, k, perm } => {
                let mask = ((1usize << k) - 1) << lo;
                for i in (0..amps.len()).filter(|&i| fires(i)) {
                    let c = (i & mask) >> lo;
                    out[(i & !mask) | (perm[c] << lo)] = amps[i];
                }
            }
        }
        out
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn identity_application_returns_the_state_bit_for_bit(
        n in 1usize..11,
        kind in 0usize..3,
        seed in any::<u64>(),
        theta in -3.0f64..3.0
    ) {
        let mut p = Package::new();
        let v = p.from_amplitudes(&seeded_state(n, kind, seed)).unwrap();
        let id = p.identity(n);
        let before = p.stats().ct_mul_mv;
        prop_assert_eq!(p.apply(id, v), v);
        // A global phase on the operator lands on the edge weight only.
        let phase = Cplx::from_polar(1.0, theta);
        prop_assert_eq!(p.apply(id.scaled(phase), v), v.scaled(phase));
        // O(1): the identity never reaches the compute cache.
        prop_assert_eq!(p.stats().ct_mul_mv, before);
    }

    #[test]
    fn identity_is_neutral_in_mul_mm(n in 1usize..9, seed in any::<u64>()) {
        let mut s = seed;
        let mut p = Package::new();
        let g = RandomGate::draw(n, &mut s).build(&mut p, n);
        let id = p.identity(n);
        let before = p.stats().ct_mul_mm;
        prop_assert_eq!(p.mul_mm(id, g), g);
        prop_assert_eq!(p.mul_mm(g, id), g);
        prop_assert_eq!(p.stats().ct_mul_mm, before);
    }

    #[test]
    fn random_gates_match_the_dense_reference(
        n in 1usize..11,
        kind in 0usize..3,
        seed in any::<u64>()
    ) {
        let mut s = seed;
        let mut want = seeded_state(n, kind, seed);
        let mut p = Package::new();
        let mut state = p.from_amplitudes(&want).unwrap();
        for step in 0..6 {
            let gate = RandomGate::draw(n, &mut s);
            let dd = gate.build(&mut p, n);
            state = p.apply(dd, state);
            want = gate.apply_dense(&want);
            let got = p.to_amplitudes(state, n).unwrap();
            for (i, (a, b)) in got.iter().zip(&want).enumerate() {
                prop_assert!(
                    (*a - *b).mag() < 1e-10,
                    "step {step}, {gate:?}: amplitude {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn roundtrip_preserves_amplitudes(amps in unit_state(4)) {
        let mut p = Package::new();
        let e = p.from_amplitudes(&amps).unwrap();
        let back = p.to_amplitudes(e, 4).unwrap();
        for (a, b) in amps.iter().zip(&back) {
            prop_assert!((*a - *b).mag() < 1e-10);
        }
    }

    #[test]
    fn identical_states_share_the_root(amps in unit_state(3)) {
        // Canonicity: building the same vector twice yields the same
        // node, even through an unrelated interleaved construction.
        let mut p = Package::new();
        let e1 = p.from_amplitudes(&amps).unwrap();
        let _noise = p.basis_state(3, 5);
        let e2 = p.from_amplitudes(&amps).unwrap();
        prop_assert_eq!(e1.node, e2.node);
        prop_assert!((e1.w - e2.w).mag() < 1e-9);
    }

    #[test]
    fn global_phase_lands_on_the_edge(amps in unit_state(3), theta in -3.0f64..3.0) {
        // Canonicity is tolerance-grade: phase-rotated weights travel a
        // different float path, so node *identity* can occasionally miss
        // on a quantization-grid boundary. The guaranteed properties are
        // physical equality (fidelity 1) and equal compression.
        let mut p = Package::new();
        let phase = Cplx::from_polar(1.0, theta);
        let rotated: Vec<Cplx> = amps.iter().map(|a| *a * phase).collect();
        let e1 = p.from_amplitudes(&amps).unwrap();
        let e2 = p.from_amplitudes(&rotated).unwrap();
        let f = p.fidelity(e1, e2);
        prop_assert!((f - 1.0).abs() < 1e-9, "fidelity {f}");
        prop_assert_eq!(p.vsize(e1), p.vsize(e2));
    }

    #[test]
    fn addition_is_linear(a in unit_state(3), b in unit_state(3)) {
        let mut p = Package::new();
        let ea = p.from_amplitudes(&a).unwrap();
        let eb = p.from_amplitudes(&b).unwrap();
        let sum = p.add(ea, eb);
        let dense = p.to_amplitudes(sum, 3).unwrap();
        for i in 0..8 {
            prop_assert!((dense[i] - (a[i] + b[i])).mag() < 1e-9, "index {i}");
        }
    }

    #[test]
    fn gate_application_matches_dense_math(amps in unit_state(3),
                                           g in random_gate(),
                                           target in 0usize..3) {
        let mut p = Package::new();
        let e = p.from_amplitudes(&amps).unwrap();
        let dd_gate = p.single_gate(3, target, g.matrix()).unwrap();
        let r = p.apply(dd_gate, e);
        let got = p.to_amplitudes(r, 3).unwrap();

        // Dense reference.
        let m = g.matrix();
        let mut want = amps.clone();
        let tbit = 1usize << target;
        for i in 0..8 {
            if i & tbit == 0 {
                let (a0, a1) = (amps[i], amps[i | tbit]);
                want[i] = m[0][0] * a0 + m[0][1] * a1;
                want[i | tbit] = m[1][0] * a0 + m[1][1] * a1;
            }
        }
        for i in 0..8 {
            prop_assert!((got[i] - want[i]).mag() < 1e-9, "index {i}");
        }
    }

    #[test]
    fn controlled_gates_are_unitary(g in random_gate(),
                                    target in 0usize..4,
                                    control in 0usize..4,
                                    positive in any::<bool>()) {
        prop_assume!(target != control);
        let mut p = Package::new();
        let dd = p
            .controlled_gate_polarized(4, &[(control, positive)], target, g.matrix())
            .unwrap();
        let dag = p.conj_transpose(dd);
        let prod = p.mul_mm(dd, dag);
        let id = p.identity(4);
        prop_assert_eq!(prod.node, id.node, "U U† must be the identity node");
        prop_assert!((prod.w - id.w).mag() < 1e-9);
    }

    #[test]
    fn unitaries_preserve_norm(amps in unit_state(4), g in random_gate(),
                               target in 0usize..4) {
        let mut p = Package::new();
        let e = p.from_amplitudes(&amps).unwrap();
        let dd_gate = p.single_gate(4, target, g.matrix()).unwrap();
        let r = p.apply(dd_gate, e);
        prop_assert!((p.norm(r) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn truncation_bound_holds(amps in unit_state(5), budget in 0.0f64..0.6) {
        let mut p = Package::new();
        let e = p.from_amplitudes(&amps).unwrap();
        p.inc_ref(e);
        let r = p.truncate(e, RemovalStrategy::Budget(budget)).unwrap();
        prop_assert!(r.fidelity >= 1.0 - budget - 1e-9);
        prop_assert!(r.size_after <= r.size_before);
        let measured = p.fidelity(e, r.edge);
        prop_assert!((measured - r.fidelity).abs() < 1e-8);
    }

    #[test]
    fn permutation_gates_permute(perm_seed in 0u64..1000) {
        // Build a pseudo-random permutation of 8 elements and verify the
        // gate maps basis states accordingly.
        let mut p = Package::new();
        let mut perm: Vec<usize> = (0..8).collect();
        let mut s = perm_seed;
        for i in (1..8usize).rev() {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            let j = (s >> 33) as usize % (i + 1);
            perm.swap(i, j);
        }
        let g = p.permutation_gate(3, 0, 3, &perm, &[]).unwrap();
        for c in 0..8u64 {
            let v = p.basis_state(3, c);
            let r = p.apply(g, v);
            let prob = p.probability(r, perm[c as usize] as u64);
            prop_assert!((prob - 1.0).abs() < 1e-9, "|{c}> -> |{}>", perm[c as usize]);
        }
    }

    #[test]
    fn inner_product_is_cauchy_schwarz_bounded(a in unit_state(4), b in unit_state(4)) {
        let mut p = Package::new();
        let ea = p.from_amplitudes(&a).unwrap();
        let eb = p.from_amplitudes(&b).unwrap();
        let f = p.fidelity(ea, eb);
        prop_assert!((0.0..=1.0 + 1e-9).contains(&f));
    }

    #[test]
    fn kron_matches_dense_tensor(a in unit_state(2), b in unit_state(2)) {
        let mut p = Package::new();
        let ea = p.from_amplitudes(&a).unwrap();
        let eb = p.from_amplitudes(&b).unwrap();
        let joint = p.vkron(ea, eb);
        let dense = p.to_amplitudes(joint, 4).unwrap();
        for i in 0..4 {
            for j in 0..4 {
                let want = a[i] * b[j];
                let got = dense[(i << 2) | j];
                prop_assert!((got - want).mag() < 1e-9, "({i},{j})");
            }
        }
    }

    #[test]
    fn dirty_ancestor_rebuild_matches_reference_rebuild(
        n in 1usize..11,
        kind in 0usize..3,
        seed in any::<u64>(),
        primitive in 0usize..3,
        budget in 0.0f64..0.6
    ) {
        let amps = seeded_state(n, kind, seed);
        let round = match primitive {
            0 => Round::Budget(budget),
            1 => Round::Edges(budget),
            _ => Round::Nodes { seed, one_in: 2 + seed % 8 },
        };
        // Identical construction sequences give identical node ids, so
        // both packages select the same nodes and edges.
        let mut fast = Package::new();
        let mut reference = Package::new();
        reference.set_reference_rebuild(true);
        let root = fast.from_amplitudes(&amps).unwrap();
        let ref_root = reference.from_amplitudes(&amps).unwrap();
        prop_assert_eq!(root, ref_root);
        fast.inc_ref(root);
        reference.inc_ref(ref_root);

        let (got, want) = match (round.run(&mut fast, root), round.run(&mut reference, ref_root)) {
            (Ok(got), Ok(want)) => (got, want),
            (Err(a), Err(b)) => {
                prop_assert_eq!(a, b);
                return Ok(());
            }
            (a, b) => {
                return Err(TestCaseError::Fail(format!(
                    "{round:?}: fast {a:?} vs reference {b:?}"
                )));
            }
        };
        prop_assert_eq!(got.removed_nodes, want.removed_nodes);
        prop_assert_eq!(got.size_before, want.size_before);
        let got_amps = fast.to_amplitudes(got.edge, n).unwrap();
        let want_amps = reference.to_amplitudes(want.edge, n).unwrap();
        for (i, (a, b)) in got_amps.iter().zip(&want_amps).enumerate() {
            prop_assert!((*a - *b).mag() < 1e-12, "{round:?}: amplitude {i}: {a} vs {b}");
        }
        let measured = fast.fidelity(root, got.edge);
        prop_assert!(
            (measured - got.fidelity).abs() < 1e-10,
            "{round:?}: reported {} vs measured {measured}",
            got.fidelity
        );
        prop_assert_eq!(got.size_after, fast.vsize(got.edge));
        let norm2: f64 = got_amps.iter().map(|a| a.mag2()).sum();
        prop_assert!((norm2 - 1.0).abs() < 1e-10, "{round:?}: squared norm {norm2}");
    }

    #[test]
    fn chained_rounds_with_gc_match_fresh_packages(
        n in 6usize..11,
        seed in any::<u64>(),
        edges in any::<bool>()
    ) {
        // A package reuses its truncation scratch across rounds, and GC
        // recycles the ids of earlier rounds' diagrams. Each round must
        // still equal the same round on a fresh package holding the same
        // state (continuous random amplitudes: no contribution ties, so
        // both packages select the same mass).
        let round = if edges { Round::Edges(0.05) } else { Round::Budget(0.05) };
        let mut p = Package::new();
        let mut state = p.from_amplitudes(&seeded_state(n, 0, seed)).unwrap();
        p.inc_ref(state);
        for k in 0..5 {
            let amps = p.to_amplitudes(state, n).unwrap();
            let mut fresh = Package::new();
            let fresh_root = fresh.from_amplitudes(&amps).unwrap();
            let want = round.run(&mut fresh, fresh_root).unwrap();
            let want_amps = fresh.to_amplitudes(want.edge, n).unwrap();

            let got = round.run(&mut p, state).unwrap();
            prop_assert_eq!(got.removed_nodes, want.removed_nodes, "round {}", k);
            let got_amps = p.to_amplitudes(got.edge, n).unwrap();
            for (i, (a, b)) in got_amps.iter().zip(&want_amps).enumerate() {
                prop_assert!((*a - *b).mag() < 1e-10, "round {k}, amplitude {i}: {a} vs {b}");
            }
            p.inc_ref(got.edge);
            p.dec_ref(state);
            state = got.edge;
            p.collect_garbage();
        }
    }
}
