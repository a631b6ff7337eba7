//! Crate-level invariant tests for the TurboMap machinery, exercised on
//! randomized generated circuits.

use turbomap::{ExpandedCircuit, FrtContext, GeneralContext, Options};

fn circuits() -> Vec<netlist::Circuit> {
    let mut out = Vec::new();
    for seed in 0..6u64 {
        out.push(workloads::generate_fsm(&workloads::FsmSpec {
            name: format!("inv{seed}"),
            states: 3 + (seed as usize % 4),
            inputs: 1 + (seed as usize % 3),
            decoded: 2,
            outputs: 1 + (seed as usize % 2),
            encoding: if seed % 2 == 0 {
                workloads::Encoding::OneHot
            } else {
                workloads::Encoding::Binary
            },
            registered_inputs: seed % 3 == 0,
            seed,
        }));
    }
    out
}

/// Every expanded edge corresponds to an original edge whose register
/// count equals the weight difference (the defining property of §3.1:
/// every path from `u^w` to the root carries exactly `w` registers).
#[test]
fn expanded_path_weights_exact() {
    for c in circuits() {
        let prep = turbomap::prepare(&c, 4).unwrap();
        for v in prep.gate_ids().take(6) {
            let exp = ExpandedCircuit::build(&prep, v, 3);
            for i in 0..exp.len() {
                for &f in exp.fanins(i) {
                    let child = exp.node(f as usize);
                    let parent = exp.node(i);
                    let delta = child.weight - parent.weight;
                    let matches = prep.node(parent.node).fanin().iter().any(|&e| {
                        let edge = prep.edge(e);
                        edge.from() == child.node && edge.weight() as u64 == delta
                    });
                    assert!(matches, "expanded edge weight mismatch");
                }
            }
        }
    }
}

/// Labels weaken as Φ grows: a larger period can only loosen the bounds.
#[test]
fn frt_labels_weaken_with_phi() {
    for c in circuits() {
        let prep = turbomap::prepare(&c, 4).unwrap();
        let ctx = FrtContext::new(&prep, 4, 16);
        let mut phis = Vec::new();
        for phi in 1..=6u64 {
            let r = ctx.check(phi);
            if r.feasible {
                phis.push((phi, r.labels));
            }
        }
        for w in phis.windows(2) {
            let (_, a) = &w[0];
            let (_, b) = &w[1];
            for i in 0..a.ls.len() {
                assert!(b.ls[i] <= a.ls[i], "label grew when Φ increased (node {i})");
            }
        }
    }
}

/// Forward-only feasibility implies general feasibility (forward is a
/// restriction of general retiming).
#[test]
fn general_labels_bound_forward() {
    for c in circuits() {
        let prep = turbomap::prepare(&c, 4).unwrap();
        let fctx = FrtContext::new(&prep, 4, 16);
        let gctx = GeneralContext::new(&prep, 4, 16);
        for phi in 1..=5u64 {
            let f = fctx.check(phi);
            let g = gctx.check(phi);
            if f.feasible {
                assert!(g.feasible, "forward feasible but general not (Φ={phi})");
            }
        }
    }
}

/// Mapped networks are valid, K-bounded and sharing-consistent (forward
/// retiming cannot create register value conflicts).
#[test]
fn mapped_networks_k_bounded() {
    for c in circuits() {
        for k in [3usize, 5] {
            let r = turbomap::turbomap_frt(&c, Options::with_k(k)).unwrap();
            assert!(r.circuit.max_fanin() <= k);
            assert!(netlist::validate(&r.circuit).is_ok());
            assert!(r.circuit.sharing_consistent());
        }
    }
}
