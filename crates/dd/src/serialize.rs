//! Textual serialization of state DDs — checkpointing simulated states
//! and interchange between processes.
//!
//! The format is line-based and explicitly versioned:
//!
//! ```text
//! approxdd-vdd 1
//! nodes <count>
//! n <local-id> <var> <w0.re> <w0.im> <child0> <w1.re> <w1.im> <child1>
//! ...
//! root <w.re> <w.im> <node>
//! ```
//!
//! Children reference earlier local ids or `T` for the terminal; zero
//! edges are written as `0 0 T`. Deserialization rebuilds every node
//! through the unique table, so the result is canonical in the target
//! package regardless of the source package's tolerance.

use std::fmt::Write as _;

use approxdd_complex::{Cplx, Tolerance};

use crate::edge::{MEdge, NodeId, VEdge};
use crate::error::DdError;
use crate::fasthash::FxHashMap;
use crate::package::Package;
use crate::Result;

const MAGIC: &str = "approxdd-vdd 1";
const MAGIC_M: &str = "approxdd-mdd 1";

/// A parsed edge reference: its weight and the local id of its child
/// (`None` for the terminal).
type EdgeRef = (Cplx, Option<usize>);

/// A parsed and validated DD text whose nodes have `K` children each
/// (2 for states, 4 for operators), in children-before-parents order.
struct ParsedDd<const K: usize> {
    nodes: Vec<(u8, [EdgeRef; K])>,
    root: EdgeRef,
}

/// Writes a DD with `K` children per node. `node_of` returns a node's
/// var and its child edges as `(weight, node)` pairs.
fn write_dd<const K: usize>(
    magic: &str,
    root: (Cplx, NodeId),
    node_of: impl Fn(NodeId) -> (u8, [(Cplx, NodeId); K]),
) -> String {
    // Topological order: children before parents (post-order DFS).
    let mut order: Vec<NodeId> = Vec::new();
    let mut seen: FxHashMap<NodeId, usize> = FxHashMap::default();
    postorder(root.1, &node_of, &mut order, &mut seen);

    let reference = |node: NodeId| {
        if node.is_terminal() {
            "T".to_string()
        } else {
            seen[&node].to_string()
        }
    };
    let mut out = String::new();
    let _ = writeln!(out, "{magic}");
    let _ = writeln!(out, "nodes {}", order.len());
    for (local, id) in order.iter().enumerate() {
        let (var, edges) = node_of(*id);
        let _ = write!(out, "n {local} {var}");
        for (w, child) in edges {
            let _ = write!(out, " {:.17e} {:.17e} {}", w.re, w.im, reference(child));
        }
        out.push('\n');
    }
    let (w, node) = root;
    let _ = writeln!(out, "root {:.17e} {:.17e} {}", w.re, w.im, reference(node));
    out
}

fn postorder<const K: usize>(
    node: NodeId,
    node_of: &impl Fn(NodeId) -> (u8, [(Cplx, NodeId); K]),
    order: &mut Vec<NodeId>,
    seen: &mut FxHashMap<NodeId, usize>,
) {
    if node.is_terminal() || seen.contains_key(&node) {
        return;
    }
    for (_, child) in node_of(node).1 {
        postorder(child, node_of, order, seen);
    }
    seen.insert(node, order.len());
    order.push(node);
}

/// Parses a DD text with `K` children per node and validates everything
/// that does not need the target package: dense ids, backward child
/// references, finite weights, and that every non-zero child sits one
/// level below its parent (a terminal child only below var 0).
fn parse_dd<const K: usize>(
    text: &str,
    magic: &str,
    tol: Tolerance,
    malformed: impl Fn(&'static str) -> DdError,
) -> Result<ParsedDd<K>> {
    let mut lines = text.lines().filter(|l| !l.trim().is_empty());
    if lines.next().map(str::trim) != Some(magic) {
        return Err(malformed("missing or unsupported format header"));
    }
    let count: usize = lines
        .next()
        .and_then(|l| l.trim().strip_prefix("nodes "))
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| malformed("missing node count"))?;

    // A reference to local node `i` has level `nodes[i].0 + 1` (its
    // declared var plus one); the terminal has level 0.
    let mut nodes: Vec<(u8, [EdgeRef; K])> = Vec::new();
    let edge_ref = |tok: &mut std::str::SplitWhitespace<'_>, nodes: &[(u8, [EdgeRef; K])]| {
        let mut component = || {
            tok.next()
                .and_then(|v| v.parse::<f64>().ok())
                .ok_or_else(|| malformed("bad weight"))
        };
        let w = Cplx::new(component()?, component()?);
        if !w.is_finite() {
            return Err(malformed("non-finite weight"));
        }
        let target = match tok.next().ok_or_else(|| malformed("missing child"))? {
            "T" => None,
            id => {
                let idx: usize = id.parse().map_err(|_| malformed("bad child id"))?;
                if idx >= nodes.len() {
                    return Err(malformed("forward child reference"));
                }
                Some(idx)
            }
        };
        let level = target.map_or(0, |i| usize::from(nodes[i].0) + 1);
        Ok(((w, target), level))
    };

    for _ in 0..count {
        let line = lines
            .next()
            .ok_or_else(|| malformed("truncated node list"))?;
        let mut tok = line.split_whitespace();
        if tok.next() != Some("n") {
            return Err(malformed("expected node line"));
        }
        let local: usize = tok
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| malformed("bad local id"))?;
        if local != nodes.len() {
            return Err(malformed("node ids must be dense and ascending"));
        }
        let var: u8 = tok
            .next()
            .and_then(|v| v.parse().ok())
            .ok_or_else(|| malformed("bad var"))?;
        let mut children = [(Cplx::ZERO, None); K];
        for child in &mut children {
            let (edge, level) = edge_ref(&mut tok, &nodes)?;
            if level != usize::from(var) && !tol.is_zero(edge.0) {
                return Err(malformed("child is not one level below its parent"));
            }
            *child = edge;
        }
        nodes.push((var, children));
    }

    let root_line = lines.next().ok_or_else(|| malformed("missing root line"))?;
    let mut tok = root_line.split_whitespace();
    if tok.next() != Some("root") {
        return Err(malformed("expected root line"));
    }
    let (root, _) = edge_ref(&mut tok, &nodes)?;
    Ok(ParsedDd { nodes, root })
}

impl Package {
    /// Serializes a state DD to the textual format.
    #[must_use]
    pub fn serialize_state(&self, root: VEdge) -> String {
        write_dd(MAGIC, (root.w, root.node), |id| {
            let n = self.vnode(id);
            (n.var, n.edges.map(|e| (e.w, e.node)))
        })
    }

    /// Deserializes a state DD, rebuilding nodes canonically in this
    /// package.
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidAmplitudes`] on malformed input, including
    /// non-finite weights and children that do not sit one level below
    /// their parent (the reason string describes the first offending
    /// construct).
    pub fn deserialize_state(&mut self, text: &str) -> Result<VEdge> {
        let malformed = |reason: &'static str| DdError::InvalidAmplitudes { reason };
        let parsed = parse_dd::<2>(text, MAGIC, self.tolerance(), malformed)?;
        let mut built: Vec<VEdge> = Vec::with_capacity(parsed.nodes.len());
        let resolve = |p: &Package, built: &[VEdge], (w, target): EdgeRef| {
            let edge = target.map_or(VEdge::terminal(w), |i| built[i].scaled(w));
            if !edge.w.is_finite() {
                Err(malformed("weight overflows"))
            } else if p.tolerance().is_zero(edge.w) {
                Ok(VEdge::ZERO)
            } else {
                Ok(edge)
            }
        };
        for (var, [c0, c1]) in parsed.nodes {
            let e0 = resolve(self, &built, c0)?;
            let e1 = resolve(self, &built, c1)?;
            let rebuilt = self.make_vnode(var, e0, e1);
            built.push(rebuilt);
        }
        resolve(self, &built, parsed.root)
    }

    /// Serializes an operation (matrix) DD to the textual format —
    /// persisting expensive gate constructions (e.g. Shor's modular
    /// multiplications) across processes.
    #[must_use]
    pub fn serialize_operator(&self, root: MEdge) -> String {
        write_dd(MAGIC_M, (root.w, root.node), |id| {
            let n = self.mnode(id);
            (n.var, n.edges.map(|e| (e.w, e.node)))
        })
    }

    /// Deserializes an operation DD (see [`Package::serialize_operator`]).
    ///
    /// # Errors
    ///
    /// [`DdError::InvalidMatrix`] on malformed input, including
    /// non-finite weights and children that do not sit one level below
    /// their parent.
    pub fn deserialize_operator(&mut self, text: &str) -> Result<MEdge> {
        let malformed = |reason: &'static str| DdError::InvalidMatrix { reason };
        let parsed = parse_dd::<4>(text, MAGIC_M, self.tolerance(), malformed)?;
        let mut built: Vec<MEdge> = Vec::with_capacity(parsed.nodes.len());
        let resolve = |p: &Package, built: &[MEdge], (w, target): EdgeRef| {
            let edge = target.map_or(MEdge::terminal(w), |i| built[i].scaled(w));
            if !edge.w.is_finite() {
                Err(malformed("weight overflows"))
            } else if p.tolerance().is_zero(edge.w) {
                Ok(MEdge::ZERO)
            } else {
                Ok(edge)
            }
        };
        for (var, children) in parsed.nodes {
            let mut edges = [MEdge::ZERO; 4];
            for (e, c) in edges.iter_mut().zip(children) {
                *e = resolve(self, &built, c)?;
            }
            let rebuilt = self.make_mnode(var, edges);
            built.push(rebuilt);
        }
        resolve(self, &built, parsed.root)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn roundtrip(p: &mut Package, e: VEdge, n: usize) {
        let text = p.serialize_state(e);
        let back = p.deserialize_state(&text).unwrap();
        let f = p.fidelity(e, back);
        assert!((f - 1.0).abs() < 1e-10, "fidelity {f}\n{text}");
        let a = p.to_amplitudes(e, n).unwrap();
        let b = p.to_amplitudes(back, n).unwrap();
        for (x, y) in a.iter().zip(&b) {
            assert!((*x - *y).mag() < 1e-10);
        }
    }

    #[test]
    fn basis_state_roundtrip() {
        let mut p = Package::new();
        let e = p.basis_state(5, 19);
        roundtrip(&mut p, e, 5);
    }

    #[test]
    fn structured_state_roundtrip() {
        let mut p = Package::new();
        let s = Cplx::FRAC_1_SQRT_2;
        let bell = p.from_amplitudes(&[s, Cplx::ZERO, Cplx::ZERO, s]).unwrap();
        roundtrip(&mut p, bell, 2);
    }

    #[test]
    fn complex_weights_roundtrip() {
        let mut p = Package::new();
        let amps: Vec<Cplx> = (0..16)
            .map(|i| Cplx::from_polar(((i % 5) as f64 + 1.0) / 8.0, i as f64 * 0.7))
            .collect();
        let norm: f64 = amps.iter().map(|a| a.mag2()).sum::<f64>().sqrt();
        let amps: Vec<Cplx> = amps.iter().map(|a| *a / norm).collect();
        let e = p.from_amplitudes(&amps).unwrap();
        roundtrip(&mut p, e, 4);
    }

    #[test]
    fn cross_package_transfer() {
        let mut src = Package::new();
        let e = src.basis_state(4, 7);
        let text = src.serialize_state(e);
        let mut dst = Package::new();
        let back = dst.deserialize_state(&text).unwrap();
        assert!((dst.probability(back, 7) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn zero_and_terminal_roots() {
        let mut p = Package::new();
        let text = p.serialize_state(VEdge::ONE);
        let back = p.deserialize_state(&text).unwrap();
        assert_eq!(back.node, NodeId::TERMINAL);

        let text = p.serialize_state(VEdge::ZERO);
        let back = p.deserialize_state(&text).unwrap();
        assert!(back.is_zero(p.tolerance()));
    }

    #[test]
    fn operator_roundtrip_preserves_action() {
        let mut p = Package::new();
        let perm: Vec<usize> = (0..16)
            .map(|x| if x < 15 { (7 * x) % 15 } else { x })
            .collect();
        let gate = p.permutation_gate(6, 0, 4, &perm, &[(5, true)]).unwrap();
        let text = p.serialize_operator(gate);
        let back = p.deserialize_operator(&text).unwrap();
        // Same action on a probe superposition.
        let probe_amps: Vec<Cplx> = (0..64)
            .map(|i| Cplx::from_polar(1.0 / 8.0, i as f64 * 0.3))
            .collect();
        let probe = p.from_amplitudes(&probe_amps).unwrap();
        let r1 = p.apply(gate, probe);
        let r2 = p.apply(back, probe);
        assert!((p.fidelity(r1, r2) - 1.0).abs() < 1e-10);
    }

    #[test]
    fn operator_cross_package_transfer() {
        let mut src = Package::new();
        let h = src
            .single_gate(3, 1, crate::gates::GateKind::H.matrix())
            .unwrap();
        let text = src.serialize_operator(h);
        let mut dst = Package::new();
        let back = dst.deserialize_operator(&text).unwrap();
        let v = dst.zero_state(3);
        let r = dst.apply(back, v);
        assert!((dst.probability(r, 0) - 0.5).abs() < 1e-10);
        assert!((dst.probability(r, 0b010) - 0.5).abs() < 1e-10);
    }

    #[test]
    fn operator_rejects_state_header() {
        let mut p = Package::new();
        let v = p.basis_state(2, 1);
        let state_text = p.serialize_state(v);
        assert!(p.deserialize_operator(&state_text).is_err());
    }

    #[test]
    fn malformed_inputs_error() {
        let mut p = Package::new();
        assert!(p.deserialize_state("").is_err());
        assert!(p.deserialize_state("approxdd-vdd 1\nnodes 1\n").is_err());
        assert!(p
            .deserialize_state("approxdd-vdd 2\nnodes 0\nroot 1 0 T\n")
            .is_err());
        assert!(p
            .deserialize_state("approxdd-vdd 1\nnodes 0\nroot 1 0 5\n")
            .is_err());
    }

    fn invalid_amplitudes(r: Result<VEdge>) -> bool {
        matches!(r, Err(DdError::InvalidAmplitudes { .. }))
    }

    #[test]
    fn state_rejects_non_finite_weights() {
        let mut p = Package::new();
        let nan_child = "approxdd-vdd 1\nnodes 1\nn 0 0 NaN 0 T 1 0 T\nroot 1 0 0\n";
        assert!(invalid_amplitudes(p.deserialize_state(nan_child)));
        let inf_root = "approxdd-vdd 1\nnodes 1\nn 0 0 1 0 T 0 0 T\nroot inf 0 0\n";
        assert!(invalid_amplitudes(p.deserialize_state(inf_root)));
        let inf_terminal_root = "approxdd-vdd 1\nnodes 0\nroot 0 -inf T\n";
        assert!(invalid_amplitudes(p.deserialize_state(inf_terminal_root)));
        // Finite weights whose product overflows are rejected too.
        let overflow = "approxdd-vdd 1\nnodes 1\nn 0 0 1e200 0 T 0 0 T\nroot 1e200 0 0\n";
        assert!(invalid_amplitudes(p.deserialize_state(overflow)));
    }

    #[test]
    fn state_rejects_children_at_the_wrong_level() {
        let mut p = Package::new();
        // Node 1 claims var 2 but its child (var 0) sits two levels down.
        let skip = "approxdd-vdd 1\nnodes 2\nn 0 0 1 0 T 0 0 T\nn 1 2 1 0 0 0 0 T\nroot 1 0 1\n";
        assert!(invalid_amplitudes(p.deserialize_state(skip)));
        // A non-zero terminal child is only allowed directly above the terminal.
        let high_terminal = "approxdd-vdd 1\nnodes 1\nn 0 3 1 0 T 0 0 T\nroot 1 0 0\n";
        assert!(invalid_amplitudes(p.deserialize_state(high_terminal)));
        // Zero stubs are level-agnostic.
        let zero_stub =
            "approxdd-vdd 1\nnodes 2\nn 0 0 1 0 T 0 0 T\nn 1 1 1 0 0 0 0 T\nroot 1 0 1\n";
        let e = p.deserialize_state(zero_stub).unwrap();
        assert!((p.probability(e, 0) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn operator_rejects_non_finite_weights_and_bad_levels() {
        let mut p = Package::new();
        let invalid = |r: Result<MEdge>| matches!(r, Err(DdError::InvalidMatrix { .. }));
        let nan = "approxdd-mdd 1\nnodes 1\nn 0 0 1 0 T 0 0 T 0 0 T nan 0 T\nroot 1 0 0\n";
        assert!(invalid(p.deserialize_operator(nan)));
        let inf_root = "approxdd-mdd 1\nnodes 1\nn 0 0 1 0 T 0 0 T 0 0 T 1 0 T\nroot 0 inf 0\n";
        assert!(invalid(p.deserialize_operator(inf_root)));
        let skip = "approxdd-mdd 1\nnodes 2\nn 0 0 1 0 T 0 0 T 0 0 T 1 0 T\n\
                    n 1 5 1 0 0 0 0 T 0 0 T 1 0 0\nroot 1 0 1\n";
        assert!(invalid(p.deserialize_operator(skip)));
        let ok = "approxdd-mdd 1\nnodes 2\nn 0 0 1 0 T 0 0 T 0 0 T 1 0 T\n\
                  n 1 1 1 0 0 0 0 T 0 0 T 1 0 0\nroot 1 0 1\n";
        let id = p.deserialize_operator(ok).unwrap();
        assert_eq!(id.node, p.identity(2).node);
    }
}
