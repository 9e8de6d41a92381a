//! Node contribution analysis — Definition 2 of the paper.
//!
//! The *contribution* of a node is the sum of squared magnitudes of all
//! amplitudes whose root-to-terminal paths pass through that node.
//! Because this crate normalizes vector nodes to unit subtree norm, the
//! contribution of a node equals the accumulated squared path weight
//! from the root — computable in one topological (level-by-level) pass.
//!
//! For a unit-norm state the contributions on each level sum to 1
//! (asserted by the paper after Definition 2 and property-tested here).

use crate::edge::{NodeId, VEdge};
use crate::package::Package;

/// The result of a contribution analysis: per-node contributions plus
/// the level structure of the analyzed DD.
///
/// Nodes and contributions live in dense arrays sized by the diagram,
/// found from an arena id through one array indexed by arena id (a
/// sparse set). Refilling the map for another diagram therefore touches
/// only that diagram's ids, and positions left over from earlier
/// analyses need no clearing. A package keeps one map as truncation
/// scratch and refills it every round.
///
/// Obtain via [`Package::contributions`].
#[derive(Debug, Clone, Default)]
pub struct ContributionMap {
    /// Position in `entries` per arena id: `id` belongs to the analyzed
    /// diagram iff `entries[slot[id]].0 == id`.
    slot: Vec<u32>,
    /// `(node, contribution)` for every node, level by level from the
    /// top (the root is position 0), each level sorted by id for
    /// determinism.
    entries: Vec<(NodeId, f64)>,
    /// The node column of `entries`, for [`ContributionMap::level`].
    ids: Vec<NodeId>,
    /// Position range of level `var` in `entries`.
    levels: Vec<(usize, usize)>,
}

impl ContributionMap {
    /// The position of `node` in the analysis, if it belongs to it.
    pub(crate) fn position(&self, node: NodeId) -> Option<usize> {
        let pos = *self.slot.get(node.0 as usize)? as usize;
        (self.entries.get(pos)?.0 == node).then_some(pos)
    }

    /// The contribution of `node`, or 0 if the node is not part of the
    /// analyzed diagram.
    #[must_use]
    pub fn contribution(&self, node: NodeId) -> f64 {
        self.position(node).map_or(0.0, |pos| self.entries[pos].1)
    }

    /// Number of distinct non-terminal nodes in the analyzed diagram.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.entries.len()
    }

    /// Nodes on level `var` (empty for out-of-range levels).
    #[must_use]
    pub fn level(&self, var: usize) -> &[NodeId] {
        self.levels
            .get(var)
            .map_or(&[], |&(start, end)| &self.ids[start..end])
    }

    /// Number of levels (the qubit count of the analyzed state).
    #[must_use]
    pub fn level_count(&self) -> usize {
        self.levels.len()
    }

    /// Sum of contributions on level `var`; equals the squared norm of
    /// the analyzed state (1 for a unit state) for every populated level.
    #[must_use]
    pub fn level_sum(&self, var: usize) -> f64 {
        self.levels.get(var).map_or(0.0, |&(start, end)| {
            self.entries[start..end].iter().map(|e| e.1).sum()
        })
    }

    /// All `(node, contribution)` pairs sorted ascending by contribution
    /// (ties by node id, for determinism). The greedy removal-budget
    /// selection of Section IV-A consumes this order.
    #[must_use]
    pub fn sorted_ascending(&self) -> Vec<(NodeId, f64)> {
        let mut v = self.entries.clone();
        v.sort_unstable_by(|a, b| a.1.total_cmp(&b.1).then(a.0.cmp(&b.0)));
        v
    }

    /// Iterates over `(node, contribution)` pairs, top level first; the
    /// index of a pair is the node's position.
    pub fn iter(&self) -> impl DoubleEndedIterator<Item = (NodeId, f64)> + ExactSizeIterator + '_ {
        self.entries.iter().copied()
    }

    /// Recomputes the map for the diagram under `root` in one top-down
    /// pass: a level is complete once the level above it has been
    /// processed (edges descend exactly one level), so discovery and the
    /// accumulation of squared path weights share the walk. Each node's
    /// subtree has unit norm (normalization invariant), so the
    /// accumulated upstream mass *is* the contribution.
    pub(crate) fn fill(&mut self, p: &Package, root: VEdge) {
        self.entries.clear();
        self.ids.clear();
        self.levels.clear();
        if root.node.is_terminal() {
            return;
        }
        let capacity = p.vnodes.capacity();
        if self.slot.len() < capacity {
            // Stored positions are never trusted, so growth copies
            // nothing, and fresh zeroed pages are committed only where
            // a node id touches them.
            self.slot = vec![0; capacity.next_power_of_two()];
        }
        let n_levels = p.vlevel(root);
        self.levels.resize(n_levels, (0, 0));
        self.slot[root.node.0 as usize] = 0;
        self.entries.push((root.node, root.w.mag2()));
        let mut start = 0;
        for var in (0..n_levels).rev() {
            let end = self.entries.len();
            self.entries[start..end].sort_unstable_by_key(|e| e.0);
            for (pos, &(id, _)) in self.entries.iter().enumerate().skip(start) {
                self.slot[id.0 as usize] = pos as u32;
                self.ids.push(id);
            }
            self.levels[var] = (start, end);
            for pos in start..end {
                let (id, up) = self.entries[pos];
                for child in p.vnode(id).edges {
                    if child.node.is_terminal() {
                        continue;
                    }
                    let child_pos = self.position(child.node).unwrap_or_else(|| {
                        self.slot[child.node.0 as usize] = self.entries.len() as u32;
                        self.entries.push((child.node, 0.0));
                        self.entries.len() - 1
                    });
                    self.entries[child_pos].1 += up * child.w.mag2();
                }
            }
            start = end;
        }
    }
}

impl Package {
    /// Computes the contribution (Definition 2) of every node reachable
    /// from `root`.
    ///
    /// The analysis assumes `root` represents a unit-norm state; for a
    /// general vector the "contributions" are scaled by the squared norm.
    #[must_use]
    pub fn contributions(&self, root: VEdge) -> ContributionMap {
        let mut map = ContributionMap::default();
        map.fill(self, root);
        map
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use approxdd_complex::Cplx;

    /// Builds the example state of Fig. 1a of the paper:
    /// [1/√10, 0, 0, −1/√10, 0, 2/√10, 0, 2/√10].
    fn paper_state(p: &mut Package) -> VEdge {
        let s = 10f64.sqrt().recip();
        let amps = [
            Cplx::real(s),
            Cplx::ZERO,
            Cplx::ZERO,
            Cplx::real(-s),
            Cplx::ZERO,
            Cplx::real(2.0 * s),
            Cplx::ZERO,
            Cplx::real(2.0 * s),
        ];
        p.from_amplitudes(&amps).unwrap()
    }

    #[test]
    fn paper_example7_contributions() {
        // Example 7: the root has contribution 1; the right-hand q1/q0
        // nodes contribute 0.8; the left-hand q1 node 0.2 and its two
        // q0 successors 0.1 each.
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let cm = p.contributions(root);

        assert!((cm.contribution(root.node) - 1.0).abs() < 1e-12);

        let mut level1: Vec<f64> = cm.level(1).iter().map(|n| cm.contribution(*n)).collect();
        level1.sort_by(|a, b| a.partial_cmp(b).unwrap());
        assert_eq!(level1.len(), 2);
        assert!((level1[0] - 0.2).abs() < 1e-12, "{level1:?}");
        assert!((level1[1] - 0.8).abs() < 1e-12, "{level1:?}");

        let mut level0: Vec<f64> = cm.level(0).iter().map(|n| cm.contribution(*n)).collect();
        level0.sort_by(|a, b| a.partial_cmp(b).unwrap());
        // 0.1 + 0.1 (shared node? the two 0.1-successors are the same node
        // |0>±... let's check total instead): level sums to 1.
        let total: f64 = level0.iter().sum();
        assert!((total - 1.0).abs() < 1e-12, "{level0:?}");
    }

    #[test]
    fn level_sums_equal_one_for_unit_states() {
        let mut p = Package::new();
        let amps: Vec<Cplx> = (0..16)
            .map(|i| Cplx::new((i as f64 * 0.37).sin(), (i as f64 * 0.91).cos()))
            .collect();
        let norm: f64 = amps.iter().map(|a| a.mag2()).sum::<f64>().sqrt();
        let amps: Vec<Cplx> = amps.into_iter().map(|a| a / norm).collect();
        let root = p.from_amplitudes(&amps).unwrap();
        let cm = p.contributions(root);
        for var in 0..cm.level_count() {
            assert!(
                (cm.level_sum(var) - 1.0).abs() < 1e-10,
                "level {var}: {}",
                cm.level_sum(var)
            );
        }
    }

    #[test]
    fn basis_state_contributions_are_all_one() {
        let mut p = Package::new();
        let root = p.basis_state(5, 21);
        let cm = p.contributions(root);
        assert_eq!(cm.node_count(), 5);
        for (_, c) in cm.iter() {
            assert!((c - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn sorted_ascending_is_monotone() {
        let mut p = Package::new();
        let root = paper_state(&mut p);
        let cm = p.contributions(root);
        let sorted = cm.sorted_ascending();
        for w in sorted.windows(2) {
            assert!(w[0].1 <= w[1].1);
        }
        assert_eq!(sorted.len(), cm.node_count());
    }

    #[test]
    fn terminal_root_yields_empty_map() {
        let p = Package::new();
        let cm = p.contributions(VEdge::ONE);
        assert_eq!(cm.node_count(), 0);
        assert_eq!(cm.level_count(), 0);
    }
}
