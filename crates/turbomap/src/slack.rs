//! Slack-aware mapping planning.
//!
//! The label pairs give each node the *tightest* achievable `l^s`, but the
//! final mapping only needs tight cuts along critical paths. Choosing every
//! root's min-height cut absorbs (and duplicates) far more logic than
//! necessary; real mappers relax non-critical cuts. This module plans the
//! root set with **required bounds** (`rb`):
//!
//! * a PO driver needs `rb = Φ` (forward retiming; Corollary 1 caps every
//!   root at `l^s ≤ Φ`) or `Φ·(1 + w_PO)` (general retiming);
//! * a cut signal `(u, w)` of a root planned with height bound `hb` needs
//!   `rb(u) ≤ hb + Φ·w − 1` so the consumer's cut height stays valid.
//!
//! Bounds only decrease, so a worklist converges; they never drop below
//! the optimal labels `L^s` (a chosen cut's height bound guarantees
//! `ls(u) ≤ hb + Φ·w − 1` for its own signals), so a feasible cut always
//! exists. The retiming values are `Ɍ(v) = ⌈hb(v)/Φ⌉ − 1`, legal by the
//! same ceiling algebra as Theorem 6.

use crate::cutsearch::{find_cut, ExpCut};
use crate::expand::ExpandedCircuit;
use netlist::{Circuit, NodeId};
use std::collections::HashMap;

/// A planned mapping: roots with their cuts and retiming values.
#[derive(Debug, Clone)]
pub struct MappingPlan {
    /// Root → its K-cut.
    pub roots: HashMap<NodeId, ExpCut>,
    /// Root → `Ɍ(v)` (Leiserson–Saxe sign).
    pub rr: HashMap<NodeId, i64>,
    /// Root → its final required bound `rb(v)`; `rb(v) − l^s(v) ≥ 0` is
    /// the root's label slack (0 on the critical demand chain).
    pub rb: HashMap<NodeId, i64>,
}

fn ceil_div(a: i64, b: i64) -> i64 {
    a.div_euclid(b) + if a.rem_euclid(b) != 0 { 1 } else { 0 }
}

/// Plans roots and cuts with slack relaxation.
///
/// `ls` holds the converged labels (`l^s` for FRT, plain `l` for
/// general); `weight_cap` maps a gate to the maximal cone weight to try
/// (`frt(v)` for FRT, the horizon for general), which is also the bound
/// its `F_v` is built to, whole, when the planner first visits it;
/// `forward_only` caps all bounds at `Φ` so every `Ɍ ≤ 0`.
///
/// # Panics
///
/// Panics when no cut exists within the bounds (would contradict the
/// label computation's convergence).
pub fn plan_mapping(
    c: &Circuit,
    ls: &[i64],
    phi: u64,
    k: usize,
    weight_cap: impl Fn(NodeId) -> u64,
    forward_only: bool,
) -> MappingPlan {
    let phi_i = phi as i64;
    let hard_cap = |v: NodeId, base: i64| -> i64 {
        let _ = v;
        if forward_only {
            base.min(phi_i)
        } else {
            base
        }
    };
    let mut rb: HashMap<NodeId, i64> = HashMap::new();
    let mut worklist: Vec<NodeId> = Vec::new();
    for &po in c.outputs() {
        let e = c.node(po).fanin()[0];
        let edge = c.edge(e);
        let d = edge.from();
        if !c.node(d).is_gate() {
            continue;
        }
        let base = phi_i * (1 + edge.weight() as i64);
        let bound = hard_cap(d, base);
        match rb.get(&d) {
            Some(&old) if old <= bound => {}
            _ => {
                rb.insert(d, bound);
                worklist.push(d);
            }
        }
    }
    // chosen: root -> (height bound used, weight used, cut)
    let mut chosen: HashMap<NodeId, (i64, u64, ExpCut)> = HashMap::new();
    while let Some(v) = worklist.pop() {
        let bound = rb[&v];
        if let Some((hb_used, _, _)) = chosen.get(&v) {
            if *hb_used <= bound {
                continue; // still valid under the (possibly lowered) bound
            }
        }
        let cap = weight_cap(v);
        let exp = ExpandedCircuit::build(c, v, cap);
        let mut picked = None;
        for w in 0..=cap {
            let hb = if forward_only {
                bound.min(phi_i * (1 - w as i64))
            } else {
                bound
            };
            if let Some(cut) = find_cut(&exp, ls, phi_i, hb, w, k) {
                picked = Some((hb, w, cut));
                break;
            }
            if !forward_only {
                // General retiming: the bound does not depend on w, so a
                // single attempt at the full horizon settles existence.
                if let Some(cut) = find_cut(&exp, ls, phi_i, hb, cap, k) {
                    picked = Some((hb, cap, cut));
                }
                break;
            }
        }
        let (hb, w, cut) = picked.unwrap_or_else(|| {
            panic!(
                "no cut for `{}` within rb={} (labels converged, so this \
                 contradicts Corollary 1)",
                c.node(v).name(),
                bound
            )
        });
        // Propagate demands to the cut's gate signals.
        for s in &cut.signals {
            if !c.node(s.node).is_gate() {
                continue;
            }
            let demand = hard_cap(s.node, hb + phi_i * s.weight as i64 - 1);
            match rb.get(&s.node) {
                Some(&old) if old <= demand => {}
                _ => {
                    rb.insert(s.node, demand);
                    worklist.push(s.node);
                }
            }
        }
        chosen.insert(v, (hb, w, cut));
    }
    // Re-chosen roots may have left stale demands behind; keep only the
    // roots actually reachable from the PO drivers through final cuts.
    let mut keep: HashMap<NodeId, bool> = HashMap::new();
    let mut stack: Vec<NodeId> = c
        .outputs()
        .iter()
        .filter_map(|&po| {
            let d = c.edge(c.node(po).fanin()[0]).from();
            c.node(d).is_gate().then_some(d)
        })
        .collect();
    while let Some(v) = stack.pop() {
        if keep.insert(v, true).is_some() {
            continue;
        }
        if let Some((_, _, cut)) = chosen.get(&v) {
            for s in &cut.signals {
                if c.node(s.node).is_gate() && !keep.contains_key(&s.node) {
                    stack.push(s.node);
                }
            }
        }
    }
    let mut roots = HashMap::new();
    let mut rr = HashMap::new();
    let mut rb_out = HashMap::new();
    for (v, (hb, _w, cut)) in chosen {
        if !keep.contains_key(&v) {
            continue;
        }
        rr.insert(v, ceil_div(hb, phi_i) - 1);
        rb_out.insert(v, rb[&v]);
        roots.insert(v, cut);
    }
    MappingPlan {
        roots,
        rr,
        rb: rb_out,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::frtcheck::FrtContext;
    use netlist::{Bit, TruthTable};

    /// Chain with registers in front: slack planning should keep shallow
    /// gates in their own cheap LUTs instead of deep duplicated cones.
    fn sample() -> Circuit {
        let mut c = Circuit::new("s");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::or(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::xor(2)).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(i1, g1, vec![Bit::Zero]).unwrap();
        c.connect(i2, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(i2, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(i1, g3, vec![]).unwrap();
        c.connect(g3, o1, vec![]).unwrap();
        c.connect(g1, o2, vec![]).unwrap(); // g1 is visible: must be a root
        c
    }

    #[test]
    fn plan_covers_pos_and_respects_k() {
        let c = sample();
        let ctx = FrtContext::new(&c, 2, 8);
        let phi = (1..=8)
            .find(|&p| ctx.check(p).feasible)
            .expect("some period feasible");
        let res = ctx.check(phi);
        let plan = plan_mapping(&c, &res.labels.ls, phi, 2, |v| ctx.frt[v.index()], true);
        // Every PO driver is a root; every cut signal driver is a root.
        for &po in c.outputs() {
            let d = c.edge(c.node(po).fanin()[0]).from();
            assert!(plan.roots.contains_key(&d));
        }
        for cut in plan.roots.values() {
            assert!(cut.signals.len() <= 2);
            for s in &cut.signals {
                if c.node(s.node).is_gate() {
                    assert!(plan.roots.contains_key(&s.node));
                }
            }
        }
        // Forward-only: all retimings ≤ 0.
        assert!(plan.rr.values().all(|&r| r <= 0));
    }

    #[test]
    fn bounds_never_below_labels() {
        let c = sample();
        let ctx = FrtContext::new(&c, 2, 8);
        let phi = (1..=8).find(|&p| ctx.check(p).feasible).unwrap();
        let res = ctx.check(phi);
        let plan = plan_mapping(&c, &res.labels.ls, phi, 2, |v| ctx.frt[v.index()], true);
        let _ = plan;
        // (The planner panics internally if a bound drops below L^s.)
    }
}
