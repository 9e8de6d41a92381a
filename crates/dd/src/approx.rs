//! State truncation — Section IV-A of the paper, Equation (1).
//!
//! Truncation zeroes the amplitudes passing through a selected set of
//! nodes and rescales the state to unit norm:
//!
//! ```text
//! |ψ_I⟩ = P_I |ψ⟩ / ‖P_I |ψ⟩‖    with    P_I = Σ_{i ∈ I} |i⟩⟨i|
//! ```
//!
//! Node selection is driven by contributions (Definition 2): removing a
//! node loses exactly its contribution in fidelity, and removing a set
//! loses **at most** the sum of their contributions (paths may overlap),
//! so `F(ψ, ψ_I) ≥ 1 − Σ contribution(removed)` — the lower bound the
//! user controls. The *exact* resulting fidelity falls out of the
//! rebuild for free (the kept squared norm) and is reported in
//! [`TruncationResult::fidelity`].

use approxdd_complex::Cplx;

use crate::contribution::ContributionMap;
use crate::edge::{NodeId, VEdge};
use crate::error::DdError;
use crate::package::Package;
use crate::Result;

/// How to choose nodes for removal during a truncation round.
#[derive(Debug, Clone, Copy, PartialEq)]
#[non_exhaustive]
pub enum RemovalStrategy {
    /// Greedily remove lowest-contribution nodes while the running sum of
    /// removed contributions stays within the budget `1 − f_round`
    /// (i.e. `Budget(b)` guarantees a round fidelity of at least `1 − b`).
    Budget(f64),
    /// Remove every node whose contribution is below the threshold.
    /// The resulting fidelity is bounded below by
    /// `1 − threshold · node_count`, which is only useful for small
    /// thresholds; prefer [`RemovalStrategy::Budget`] for guarantees.
    Threshold(f64),
    /// Remove lowest-contribution nodes until at most this many nodes
    /// would remain (size-targeted, fidelity-unbounded — the dual of
    /// [`RemovalStrategy::Budget`]). The post-rebuild size can fall
    /// below the target because removing a node also drops its
    /// now-unreachable descendants. The root always survives.
    KeepNodes(usize),
}

/// Outcome of one truncation round.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TruncationResult {
    /// The truncated, re-normalized state.
    pub edge: VEdge,
    /// Exact fidelity `F(ψ, ψ_I)` between input and output (the kept
    /// squared norm). Always ≥ the strategy's guaranteed lower bound.
    pub fidelity: f64,
    /// Number of nodes selected for removal.
    pub removed_nodes: usize,
    /// Non-terminal node count of the input DD.
    pub size_before: usize,
    /// Non-terminal node count of the output DD.
    pub size_after: usize,
}

/// Round state bits per analysis position (`TruncationScratch::flags`).
const REMOVED: u8 = 1;
/// Edge `i` of the node is cut: `CUT << i`.
const CUT: u8 = 2;
/// A removed node or a cut edge lies at or below the node.
const DIRTY: u8 = 8;
/// `memo` holds the node's rebuilt edge.
const BUILT: u8 = 16;

/// Scratch of a truncation round, owned by the [`Package`] and reused
/// across rounds. The contribution map finds each node's position; the
/// other arrays are indexed by that position, so a round writes only
/// entries of its own diagram and costs O(DD size), not O(arena
/// capacity).
#[derive(Debug, Default)]
pub(crate) struct TruncationScratch {
    contribs: ContributionMap,
    flags: Vec<u8>,
    /// Rebuilt edge per position, valid where `flags` has `BUILT`.
    memo: Vec<VEdge>,
    /// Test-only reference mode: rebuild every node from scratch.
    full_rebuild: bool,
}

/// What a round removes.
enum Selection<'a> {
    Strategy(RemovalStrategy),
    Nodes(&'a [NodeId]),
    Edges(f64),
}

impl Package {
    /// Edge-level truncation: zeroes individual *edges* (rather than
    /// whole nodes) in ascending order of their contribution — the
    /// mass `upstream(parent) · |w|²` flowing through the edge — while
    /// the removed total stays within `budget`. Finer-grained than
    /// [`Package::truncate`]: a node's two edges can be kept/cut
    /// independently, which preserves more fidelity per removed DD
    /// path at the cost of (usually) smaller size reductions. One of
    /// the approximation schemes of Zulehner, Hillmich, Markov, Wille
    /// (ASP-DAC 2020), the primitive the reproduced paper builds on.
    /// [`TruncationResult::removed_nodes`] counts the cut edges.
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidParameter`] as for [`Package::truncate`].
    pub fn truncate_edges(&mut self, root: VEdge, budget: f64) -> Result<TruncationResult> {
        if !(0.0..1.0).contains(&budget) {
            return Err(DdError::InvalidParameter {
                reason: "truncation budget must lie in [0, 1)",
            });
        }
        self.truncate_round(root, Selection::Edges(budget))
    }

    /// Performs one truncation round on a unit-norm state.
    ///
    /// Computes contributions, selects nodes per `strategy`, rebuilds the
    /// DD with selected nodes replaced by the zero stub, and rescales to
    /// unit norm (Equation 1). If nothing is selected the input is
    /// returned unchanged with fidelity 1.
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidParameter`] if the budget/threshold is not in
    /// `[0, 1)`, or if the input is the zero edge.
    pub fn truncate(&mut self, root: VEdge, strategy: RemovalStrategy) -> Result<TruncationResult> {
        match strategy {
            RemovalStrategy::Budget(b) if !(0.0..1.0).contains(&b) => {
                return Err(DdError::InvalidParameter {
                    reason: "truncation budget must lie in [0, 1)",
                });
            }
            RemovalStrategy::Threshold(t) if !(0.0..1.0).contains(&t) => {
                return Err(DdError::InvalidParameter {
                    reason: "truncation threshold must lie in [0, 1)",
                });
            }
            RemovalStrategy::KeepNodes(0) => {
                return Err(DdError::InvalidParameter {
                    reason: "must keep at least one node",
                });
            }
            _ => {}
        }
        self.truncate_round(root, Selection::Strategy(strategy))
    }

    /// Performs one truncation round removing exactly the given node set
    /// (which must not contain the root). Exposed for custom selection
    /// policies and for the test-suite. Ids that are not nodes of the
    /// diagram are ignored.
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidParameter`] if the set contains the root or if
    /// removal would annihilate the entire state.
    pub fn truncate_nodes(&mut self, root: VEdge, nodes: &[NodeId]) -> Result<TruncationResult> {
        if nodes.contains(&root.node) {
            return Err(DdError::InvalidParameter {
                reason: "cannot remove the root node",
            });
        }
        self.truncate_round(root, Selection::Nodes(nodes))
    }

    /// Switches the package's truncation rounds to the from-scratch
    /// reference rebuild, which re-normalizes every kept node instead of
    /// only the ancestors of removed nodes and cut edges. For tests that
    /// compare the two rebuilds.
    #[doc(hidden)]
    pub fn set_reference_rebuild(&mut self, on: bool) {
        self.truncation.full_rebuild = on;
    }

    fn truncate_round(
        &mut self,
        root: VEdge,
        selection: Selection<'_>,
    ) -> Result<TruncationResult> {
        if root.is_zero(self.tolerance()) {
            return Err(DdError::InvalidParameter {
                reason: "cannot truncate the zero state",
            });
        }
        let mut scratch = std::mem::take(&mut self.truncation);
        let result = self.truncate_with(root, selection, &mut scratch);
        self.truncation = scratch;
        result
    }

    fn truncate_with(
        &mut self,
        root: VEdge,
        selection: Selection<'_>,
        s: &mut TruncationScratch,
    ) -> Result<TruncationResult> {
        s.contribs.fill(self, root);
        let size_before = s.contribs.node_count();
        s.flags.clear();
        s.flags.resize(size_before, 0);
        if s.memo.len() < size_before {
            s.memo.resize(size_before, VEdge::ZERO);
        }

        let removed = match selection {
            Selection::Strategy(strategy) => {
                select_nodes(&s.contribs, root.node, strategy, &mut s.flags)
            }
            Selection::Nodes(nodes) => {
                let mut count = 0;
                for pos in nodes.iter().filter_map(|&id| s.contribs.position(id)) {
                    if s.flags[pos] == 0 {
                        s.flags[pos] = REMOVED;
                        count += 1;
                    }
                }
                count
            }
            Selection::Edges(budget) => self.select_edges(&s.contribs, budget, &mut s.flags),
        };
        if removed == 0 {
            return Ok(TruncationResult {
                edge: root,
                fidelity: 1.0,
                removed_nodes: 0,
                size_before,
                size_after: size_before,
            });
        }

        // Bottom-up (children sit at higher positions than their
        // parents): a node is dirty if one of its edges is cut or leads
        // to a removed or dirty node. Clean nodes keep their (unit-norm,
        // unchanged) subtree and are reused as they are.
        for (pos, (id, _)) in s.contribs.iter().enumerate().rev() {
            let f = s.flags[pos];
            if f & REMOVED != 0 {
                continue;
            }
            let below_changed = self.vnode(id).edges.iter().any(|c| {
                !c.node.is_terminal()
                    && s.flags[position(&s.contribs, c.node)] & (REMOVED | DIRTY) != 0
            });
            if s.full_rebuild || below_changed || f & (CUT | CUT << 1) != 0 {
                s.flags[pos] = f | DIRTY;
            }
        }

        let rebuilt = self.rebuild(root.node, s);
        // Kept squared norm = |rebuilt.w|² (the input subtree had unit
        // norm); this *is* the exact round fidelity.
        let kept = rebuilt.w.mag2();
        if kept <= 0.0 || rebuilt.is_zero(self.tolerance()) {
            return Err(DdError::InvalidParameter {
                reason: "removal annihilates the entire state",
            });
        }
        // Rescale to unit norm, preserving the phase of the original root
        // weight (Equation 1 rescales by the positive real norm).
        let edge = VEdge {
            w: root.w * rebuilt.w / Cplx::real(kept.sqrt()),
            node: rebuilt.node,
        };
        Ok(TruncationResult {
            edge,
            fidelity: kept.min(1.0),
            removed_nodes: removed,
            size_before,
            size_after: self.vsize(edge),
        })
    }

    /// The subtree of `node` with removed nodes and cut edges zeroed,
    /// unnormalized: its weight's squared magnitude is the kept mass.
    fn rebuild(&mut self, node: NodeId, s: &mut TruncationScratch) -> VEdge {
        if node.is_terminal() {
            return VEdge::ONE;
        }
        let pos = position(&s.contribs, node);
        let f = s.flags[pos];
        if f & REMOVED != 0 {
            return VEdge::ZERO;
        }
        if f & DIRTY == 0 {
            return VEdge { w: Cplx::ONE, node };
        }
        if f & BUILT != 0 {
            return s.memo[pos];
        }
        let n = *self.vnode(node);
        let mut children = [VEdge::ZERO; 2];
        for (i, c) in n.edges.iter().enumerate() {
            if c.is_zero(self.tolerance()) || f & (CUT << i) != 0 {
                continue;
            }
            children[i] = self.rebuild(c.node, s).scaled(c.w);
        }
        let e = self.make_vnode(n.var, children[0], children[1]);
        s.memo[pos] = e;
        s.flags[pos] = f | BUILT;
        e
    }

    /// Marks the edges the greedy budget walk cuts; returns their count.
    /// The contribution of edge `(parent, i)` is `upstream(parent)·|wᵢ|²`
    /// (child subtrees have unit norm).
    fn select_edges(&self, contribs: &ContributionMap, budget: f64, flags: &mut [u8]) -> usize {
        let mut candidates = Vec::new();
        for (pos, (node, up)) in contribs.iter().enumerate() {
            for (i, e) in self.vnode(node).edges.iter().enumerate() {
                let c = up * e.w.mag2();
                if !e.is_zero(self.tolerance()) && c <= budget {
                    candidates.push((c, (node, i, pos)));
                }
            }
        }
        let mut count = 0;
        for (_, i, pos) in within_budget(candidates, budget) {
            flags[pos] |= CUT << i;
            count += 1;
        }
        count
    }
}

/// The position of a node of the analyzed diagram.
fn position(contribs: &ContributionMap, node: NodeId) -> usize {
    contribs
        .position(node)
        .expect("node belongs to the analyzed diagram")
}

/// The greedy walk of Section IV-A: items in ascending (contribution,
/// key) order, stopping at the first one that would overspend `budget`.
///
/// Contributions are non-negative, so an item above the budget can never
/// be taken (callers pass only items within it), and once the `m`
/// smallest items sum past the budget the walk stops among them. Only
/// that prefix is sorted; it is found by partial selection over growing
/// `m`. The sum's margin covers summation order (≤ m·ε relative), so the
/// taken set is exactly that of a walk over the fully sorted items.
fn within_budget<K: Ord + Copy>(mut items: Vec<(f64, K)>, budget: f64) -> impl Iterator<Item = K> {
    let order = |a: &(f64, K), b: &(f64, K)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
    let mut m = 1024;
    while m < items.len() {
        items.select_nth_unstable_by(m, order);
        if items[..m].iter().map(|item| item.0).sum::<f64>() > budget * (1.0 + 1e-6) {
            items.truncate(m);
            break;
        }
        m *= 4;
    }
    items.sort_unstable_by(order);
    let mut spent = 0.0;
    items.into_iter().map_while(move |(c, key)| {
        if spent + c > budget {
            return None;
        }
        spent += c;
        Some(key)
    })
}

/// Marks (per position) the nodes `strategy` removes; never the root.
/// Returns their count.
fn select_nodes(
    contribs: &ContributionMap,
    root: NodeId,
    strategy: RemovalStrategy,
    flags: &mut [u8],
) -> usize {
    let removed: Vec<usize> = match strategy {
        RemovalStrategy::Budget(budget) => {
            let candidates = contribs
                .iter()
                .enumerate()
                .filter(|&(_, (node, c))| node != root && c <= budget)
                .map(|(pos, (node, c))| (c, (node, pos)))
                .collect();
            within_budget(candidates, budget)
                .map(|(_, pos)| pos)
                .collect()
        }
        RemovalStrategy::Threshold(t) => contribs
            .iter()
            .enumerate()
            .filter(|&(_, (node, c))| node != root && c < t)
            .map(|(pos, _)| pos)
            .collect(),
        RemovalStrategy::KeepNodes(target) => {
            let surplus = contribs.node_count().saturating_sub(target);
            contribs
                .sorted_ascending()
                .into_iter()
                .filter(|&(node, _)| node != root)
                .take(surplus)
                .map(|(node, _)| position(contribs, node))
                .collect()
        }
    };
    for &pos in &removed {
        flags[pos] = REMOVED;
    }
    removed.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The Fig. 1a state of the paper.
    fn paper_state(p: &mut Package) -> VEdge {
        let s = 10f64.sqrt().recip();
        let amps = [s, 0.0, 0.0, -s, 0.0, 2.0 * s, 0.0, 2.0 * s].map(Cplx::real);
        p.from_amplitudes(&amps).unwrap()
    }

    #[test]
    fn paper_example8_removing_left_q1_node() {
        // Removing the q1 node with contribution 0.2 yields the Fig. 1c/d
        // state (|101> + |111>)/√2 with fidelity 0.8.
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let cm = p.contributions(root);
        let victim = cm
            .level(1)
            .iter()
            .copied()
            .find(|n| (cm.contribution(*n) - 0.2).abs() < 1e-9)
            .expect("left q1 node with contribution 0.2");
        let r = p.truncate_nodes(root, &[victim]).unwrap();
        assert!((r.fidelity - 0.8).abs() < 1e-12);
        let amps = p.to_amplitudes(r.edge, 3).unwrap();
        let inv_sqrt2 = std::f64::consts::FRAC_1_SQRT_2;
        assert!((amps[0b101].mag() - inv_sqrt2).abs() < 1e-12);
        assert!((amps[0b111].mag() - inv_sqrt2).abs() < 1e-12);
        for i in [0usize, 1, 2, 3, 4, 6] {
            assert!(amps[i].mag2() < 1e-12, "amp {i} should be zeroed");
        }
        assert!(r.size_after < r.size_before);
    }

    #[test]
    fn budget_guarantees_fidelity_lower_bound() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        for budget in [0.0, 0.05, 0.1, 0.25, 0.5] {
            let r = p.truncate(root, RemovalStrategy::Budget(budget)).unwrap();
            assert!(
                r.fidelity >= 1.0 - budget - 1e-12,
                "budget {budget}: fidelity {} below bound",
                r.fidelity
            );
            // The output is unit norm.
            assert!((r.edge.w.mag() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn truncated_state_fidelity_matches_inner_product() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        p.inc_ref(root);
        let r = p.truncate(root, RemovalStrategy::Budget(0.25)).unwrap();
        let measured = p.fidelity(root, r.edge);
        assert!(
            (measured - r.fidelity).abs() < 1e-10,
            "reported {} vs measured {}",
            r.fidelity,
            measured
        );
    }

    #[test]
    fn zero_budget_is_identity() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let r = p.truncate(root, RemovalStrategy::Budget(0.0)).unwrap();
        assert_eq!(r.edge, root);
        assert_eq!(r.fidelity, 1.0);
        assert_eq!(r.removed_nodes, 0);
    }

    #[test]
    fn threshold_removes_small_nodes() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        // Threshold 0.15 removes the 0.1-contribution q0 nodes and the
        // 0.2-node's children chain — fidelity drops to 0.8.
        let r = p.truncate(root, RemovalStrategy::Threshold(0.15)).unwrap();
        assert!(r.fidelity >= 0.5);
        assert!(r.removed_nodes >= 1);
    }

    #[test]
    fn invalid_parameters_are_rejected() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        assert!(p.truncate(root, RemovalStrategy::Budget(1.0)).is_err());
        assert!(p.truncate(root, RemovalStrategy::Budget(-0.1)).is_err());
        assert!(p.truncate(root, RemovalStrategy::KeepNodes(0)).is_err());
        assert!(p
            .truncate(VEdge::ZERO, RemovalStrategy::Budget(0.1))
            .is_err());
    }

    #[test]
    fn keep_nodes_hits_the_size_target() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let before = p.vsize(root);
        assert!(before > 3);
        let r = p.truncate(root, RemovalStrategy::KeepNodes(3)).unwrap();
        assert!(r.size_after <= 3, "kept {} nodes", r.size_after);
        assert!(r.fidelity > 0.0);
        assert!((r.edge.w.mag() - 1.0).abs() < 1e-10);
    }

    #[test]
    fn keep_nodes_is_identity_when_already_small() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let before = p.vsize(root);
        let r = p
            .truncate(root, RemovalStrategy::KeepNodes(before + 10))
            .unwrap();
        assert_eq!(r.edge, root);
        assert_eq!(r.fidelity, 1.0);
    }

    #[test]
    fn cannot_remove_root() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        assert!(p.truncate_nodes(root, &[root.node]).is_err());
    }

    #[test]
    fn edge_truncation_honors_budget_and_matches_measured_fidelity() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        p.inc_ref(root);
        for budget in [0.05, 0.1, 0.25] {
            let r = p.truncate_edges(root, budget).unwrap();
            assert!(
                r.fidelity >= 1.0 - budget - 1e-12,
                "budget {budget}: fidelity {}",
                r.fidelity
            );
            let measured = p.fidelity(root, r.edge);
            assert!((measured - r.fidelity).abs() < 1e-10);
            assert!((r.edge.w.mag() - 1.0).abs() < 1e-10);
        }
    }

    #[test]
    fn edge_truncation_is_finer_than_node_truncation() {
        // On the paper state with budget 0.1 the node strategy can only
        // remove 0.1-contribution *nodes* (zeroing both amplitudes of a
        // branch); the edge strategy can cut a single 0.1-mass edge.
        let mut p = Package::new();
        let root = paper_state(&mut p);
        p.inc_ref(root);
        // Budget slightly above 0.1: the smallest edge contribution is
        // 0.2 · 0.5 = 0.1 + float noise.
        let edge_r = p.truncate_edges(root, 0.11).unwrap();
        assert!(edge_r.removed_nodes >= 1, "at least one edge cut");
        assert!(edge_r.fidelity >= 0.89 - 1e-12);
    }

    #[test]
    fn edge_truncation_rejects_bad_budgets() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        assert!(p.truncate_edges(root, 1.0).is_err());
        assert!(p.truncate_edges(root, -0.5).is_err());
        assert!(p.truncate_edges(VEdge::ZERO, 0.1).is_err());
    }

    #[test]
    fn lemma1_multiplicativity_of_successive_truncations() {
        // Lemma 1 / Example 6 of the paper: for chained truncations,
        // F(ψ, ψ'') = F(ψ, ψ') · F(ψ', ψ'').
        let mut p = Package::new();
        // Eight amplitudes with distinct pair ratios, so every level-0
        // node is distinct and removable without annihilating the state.
        let raw = [0.1, 0.7, 0.5, 0.45, 0.9, 0.2, 0.3, 0.65];
        let norm: f64 = raw.iter().map(|x| x * x).sum::<f64>().sqrt();
        let amps: Vec<Cplx> = raw.iter().map(|x| Cplx::real(x / norm)).collect();
        let psi = p.from_amplitudes(&amps).unwrap();
        p.inc_ref(psi);

        // Round 1: remove the lowest-contribution level-0 node -> |ψ'>.
        let cm = p.contributions(psi);
        let victim = *cm
            .level(0)
            .iter()
            .min_by(|a, b| {
                cm.contribution(**a)
                    .partial_cmp(&cm.contribution(**b))
                    .unwrap()
            })
            .unwrap();
        let r1 = p.truncate_nodes(psi, &[victim]).unwrap();
        p.inc_ref(r1.edge);
        assert!(r1.fidelity < 1.0);

        // Round 2: remove the lowest-contribution level-0 node of |ψ'>.
        let cm2 = p.contributions(r1.edge);
        let victim2 = *cm2
            .level(0)
            .iter()
            .min_by(|a, b| {
                cm2.contribution(**a)
                    .partial_cmp(&cm2.contribution(**b))
                    .unwrap()
            })
            .unwrap();
        let r2 = p.truncate_nodes(r1.edge, &[victim2]).unwrap();
        assert!(r2.fidelity < 1.0);

        let f_total = p.fidelity(psi, r2.edge);
        let f_rounds = r1.fidelity * r2.fidelity;
        assert!(
            (f_total - f_rounds).abs() < 1e-10,
            "Lemma 1 violated: total {f_total} vs product {f_rounds}"
        );
    }

    /// The selected set of the Section IV-A greedy walk over the *full*
    /// ascending order, root skipped.
    fn full_sort_budget_walk(cm: &ContributionMap, root: NodeId, budget: f64) -> Vec<NodeId> {
        let mut spent = 0.0;
        let mut picked = Vec::new();
        for (node, c) in cm.sorted_ascending() {
            if node == root {
                continue;
            }
            if spent + c > budget {
                break;
            }
            spent += c;
            picked.push(node);
        }
        picked.sort_unstable();
        picked
    }

    #[test]
    fn budget_filtered_selection_matches_full_sort_walk() {
        // Random states, states with many equal contributions (amplitudes
        // from {0, ±1}) so ties are broken by node id, and GHZ-like
        // superpositions of a few basis states. The 11- and 12-qubit states
        // have more candidates than the first partial selection takes.
        let mut seed = 0x5EED_u64;
        let mut next = move || {
            seed = seed
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            seed >> 33
        };
        let mut p = Package::new();
        let mut states = Vec::new();
        for n in (1..=8usize).chain([11, 12]) {
            let dim = 1usize << n;
            let random: Vec<f64> = (0..dim).map(|_| next() as f64 + 1.0).collect();
            let ties: Vec<f64> = (0..dim)
                .map(|_| [0.0, 1.0, -1.0][next() as usize % 3])
                .collect();
            let mut ghz = vec![0.0; dim];
            ghz[0] = 1.0;
            ghz[dim - 1] = 1.0;
            ghz[next() as usize % dim] = 1.0;
            for raw in [random, ties, ghz] {
                let norm = raw.iter().map(|x| x * x).sum::<f64>().sqrt();
                if norm == 0.0 {
                    continue;
                }
                let amps: Vec<Cplx> = raw.iter().map(|x| Cplx::real(x / norm)).collect();
                states.push(p.from_amplitudes(&amps).unwrap());
            }
        }
        states.push(p.basis_state(6, 0b101_101));
        let mut nontrivial = 0;
        for root in states {
            let cm = p.contributions(root);
            for budget in [0.0, 1e-3, 0.01, 0.05, 0.1, 0.125, 0.25, 0.5, 0.75, 0.999] {
                let mut flags = vec![0u8; cm.node_count()];
                let count =
                    select_nodes(&cm, root.node, RemovalStrategy::Budget(budget), &mut flags);
                let mut picked: Vec<NodeId> = cm
                    .iter()
                    .zip(&flags)
                    .filter(|&(_, &f)| f == REMOVED)
                    .map(|((n, _), _)| n)
                    .collect();
                picked.sort_unstable();
                assert_eq!(count, picked.len());
                assert_eq!(
                    picked,
                    full_sort_budget_walk(&cm, root.node, budget),
                    "budget {budget}"
                );
                nontrivial += usize::from(count > 0);
            }
        }
        assert!(
            nontrivial > 50,
            "only {nontrivial} selections removed anything"
        );
    }
}
