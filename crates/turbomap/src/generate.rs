//! Mapping generation (Section 3.3).
//!
//! Given the final labels and one K-cut per LUT root, the mapping is
//! materialised in three steps, following the paper:
//!
//! 1. **Root selection** — a FIFO seeded with the PO drivers; every gate
//!    named by a chosen cut becomes a root itself.
//! 2. **Expanded network** — each root's cone is instantiated as real
//!    gates (node duplication), every edge carrying its original register
//!    chain and initial values; the whole network is then retimed with
//!    `Ɍ(v) = ⌈L^s(v)/Φ⌉ − 1` at roots and `Ɍ(u^w) = Ɍ(v) + w` inside
//!    cones (Theorem 6), computing initial states with the retiming
//!    engine's unit moves.
//! 3. **Collapse** — after retiming every intra-cone edge carries zero
//!    registers, so each cone folds into a single K-LUT (truth table by
//!    exhaustive cone simulation).
//!
//! For TurboMap-frt the retiming is pure forward and the initial state
//! computation cannot fail; the general TurboMap baseline reuses the same
//! machinery with mixed-direction retimings, where backward justification
//! *can* fail — reported to the caller (the paper's `⋆` rows).

use crate::cutsearch::ExpCut;
use crate::expand::ExpNode;
use flowmap::{build_lut_network, Cut, CutSignal};
use netlist::{Circuit, NodeId};
use retiming::{apply_retiming, MoveStats, Retiming, RetimingError};
use std::collections::{HashMap, VecDeque};

/// Errors from mapping generation.
#[derive(Debug)]
pub enum GenerateError {
    /// A cut referenced a gate with no cut of its own (internal error).
    MissingCut {
        /// The gate without a cut.
        node: String,
    },
    /// A cone reached a boundary not listed in its cut (internal error).
    InconsistentCone {
        /// The root whose cone broke.
        root: String,
    },
    /// Initial state computation failed (only possible for general
    /// retiming with backward moves — the paper's `⋆` case).
    InitialState(RetimingError),
    /// Other retiming error (illegal retiming — internal error).
    Retiming(RetimingError),
    /// Netlist construction error.
    Netlist(netlist::NetlistError),
    /// LUT collapse error.
    Collapse(flowmap::MapError),
}

impl std::fmt::Display for GenerateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            GenerateError::MissingCut { node } => write!(f, "no cut stored for `{node}`"),
            GenerateError::InconsistentCone { root } => {
                write!(f, "cone of `{root}` crossed an uncut boundary")
            }
            GenerateError::InitialState(e) => write!(f, "initial state: {e}"),
            GenerateError::Retiming(e) => write!(f, "retiming: {e}"),
            GenerateError::Netlist(e) => write!(f, "netlist: {e}"),
            GenerateError::Collapse(e) => write!(f, "collapse: {e}"),
        }
    }
}

impl std::error::Error for GenerateError {}

impl From<netlist::NetlistError> for GenerateError {
    fn from(e: netlist::NetlistError) -> Self {
        GenerateError::Netlist(e)
    }
}

impl From<flowmap::MapError> for GenerateError {
    fn from(e: flowmap::MapError) -> Self {
        GenerateError::Collapse(e)
    }
}

/// The generated mapping.
#[derive(Debug, Clone)]
pub struct GeneratedMapping {
    /// The final LUT network with registers and initial states.
    pub circuit: Circuit,
    /// Unit-move statistics of the retiming step.
    pub moves: MoveStats,
    /// True when the initial state had to be abandoned (values replaced by
    /// `X`) because backward justification failed — the `⋆` outcome.
    pub initial_state_lost: bool,
}

/// Selects the LUT roots: FIFO from the PO drivers, pulling in every gate
/// named by a root's cut (§3.3 step 1).
pub fn collect_roots(
    c: &Circuit,
    cuts: &[Option<ExpCut>],
) -> Result<HashMap<NodeId, ExpCut>, GenerateError> {
    collect_roots_with(c, |v| cuts[v.index()].clone())
}

/// [`collect_roots`] asking `cut_of` for each root's cut as the FIFO
/// reaches it, so only the instantiated roots ever get one.
pub(crate) fn collect_roots_with(
    c: &Circuit,
    mut cut_of: impl FnMut(NodeId) -> Option<ExpCut>,
) -> Result<HashMap<NodeId, ExpCut>, GenerateError> {
    let mut roots: HashMap<NodeId, ExpCut> = HashMap::new();
    let mut queue: VecDeque<NodeId> = VecDeque::new();
    for &po in c.outputs() {
        let driver = c.edge(c.node(po).fanin()[0]).from();
        if c.node(driver).is_gate() {
            queue.push_back(driver);
        }
    }
    while let Some(v) = queue.pop_front() {
        if roots.contains_key(&v) {
            continue;
        }
        let cut = cut_of(v).ok_or_else(|| GenerateError::MissingCut {
            node: c.node(v).name().to_string(),
        })?;
        for s in &cut.signals {
            if c.node(s.node).is_gate() && !roots.contains_key(&s.node) {
                queue.push_back(s.node);
            }
        }
        roots.insert(v, cut);
    }
    Ok(roots)
}

/// One root's cone, derived from its cut: the internal expanded nodes and,
/// per internal node, its fanin resolution.
struct Cone {
    /// Internal expanded nodes, root first.
    internal: Vec<ExpNode>,
    /// For each internal node (same order), its fanins: the original edge
    /// and the expanded target, plus whether the target is a boundary
    /// (cut) signal.
    fanins: Vec<Vec<(netlist::EdgeId, ExpNode, bool)>>,
}

fn derive_cone(c: &Circuit, root: NodeId, cut: &ExpCut) -> Result<Cone, GenerateError> {
    let cut_set: std::collections::HashSet<ExpNode> = cut.signals.iter().copied().collect();
    let mut index: HashMap<ExpNode, usize> = HashMap::new();
    let mut internal: Vec<ExpNode> = Vec::new();
    let mut fanins: Vec<Vec<(netlist::EdgeId, ExpNode, bool)>> = Vec::new();
    let start = ExpNode {
        node: root,
        weight: 0,
    };
    index.insert(start, 0);
    internal.push(start);
    fanins.push(Vec::new());
    let mut stack = vec![0usize];
    while let Some(xi) = stack.pop() {
        let x = internal[xi];
        let fanin_edges: Vec<netlist::EdgeId> = c.node(x.node).fanin().to_vec();
        for e in fanin_edges {
            let edge = c.edge(e);
            let target = ExpNode {
                node: edge.from(),
                weight: x.weight + edge.weight() as u64,
            };
            if cut_set.contains(&target) {
                fanins[xi].push((e, target, true));
                continue;
            }
            if !c.node(target.node).is_gate() {
                return Err(GenerateError::InconsistentCone {
                    root: c.node(root).name().to_string(),
                });
            }
            let ti = match index.get(&target) {
                Some(&ti) => ti,
                None => {
                    let ti = internal.len();
                    index.insert(target, ti);
                    internal.push(target);
                    fanins.push(Vec::new());
                    stack.push(ti);
                    ti
                }
            };
            fanins[xi].push((e, target, false));
            let _ = ti;
        }
    }
    Ok(Cone { internal, fanins })
}

/// Generates the final LUT network from roots, cuts and per-root retiming
/// values `rr(v) = Ɍ(v)` (Leiserson–Saxe sign: ≤ 0 pulls registers
/// forward).
///
/// When `allow_state_loss` is set and backward justification fails, the
/// generation retries with all initial values erased to `X` and flags the
/// result (`initial_state_lost`) instead of failing — this reproduces the
/// paper's `⋆` outcomes while still reporting structure and timing.
///
/// # Errors
///
/// See [`GenerateError`].
pub fn generate_mapping(
    c: &Circuit,
    roots: &HashMap<NodeId, ExpCut>,
    rr: &HashMap<NodeId, i64>,
    name: &str,
    allow_state_loss: bool,
) -> Result<GeneratedMapping, GenerateError> {
    // ---- Step 2a: build the expanded (node-duplicated) network H. ----
    let mut h = Circuit::new(format!("{name}_expanded"));
    let mut pi_map: HashMap<NodeId, NodeId> = HashMap::new();
    for &pi in c.inputs() {
        pi_map.insert(pi, h.add_input(c.node(pi).name().to_string())?);
    }
    let mut root_ids: Vec<NodeId> = roots.keys().copied().collect();
    root_ids.sort_unstable();

    // Instance nodes per (root, expanded node).
    let mut cones: HashMap<NodeId, Cone> = HashMap::new();
    let mut inst: HashMap<(NodeId, ExpNode), NodeId> = HashMap::new();
    let mut retime_values: Vec<(NodeId, i64)> = Vec::new();
    for &v in &root_ids {
        let cone = derive_cone(c, v, &roots[&v])?;
        let rv = *rr.get(&v).expect("retiming value for every root");
        for (pos, &en) in cone.internal.iter().enumerate() {
            let node_name = if pos == 0 {
                c.node(v).name().to_string()
            } else {
                format!(
                    "{}~x{}w{}",
                    c.node(v).name(),
                    c.node(en.node).name(),
                    en.weight
                )
            };
            let tt = c.node(en.node).function().expect("cone gates").clone();
            let id = h.add_gate(node_name, tt)?;
            inst.insert((v, en), id);
            retime_values.push((id, rv + en.weight as i64));
        }
        cones.insert(v, cone);
    }
    // Wire cone fanins; record boundary edges per root for the collapse.
    let mut boundary_edges: HashMap<NodeId, Vec<netlist::EdgeId>> = HashMap::new();
    for &v in &root_ids {
        let cone = &cones[&v];
        let mut blist = Vec::new();
        for (pos, &en) in cone.internal.iter().enumerate() {
            let consumer = inst[&(v, en)];
            for &(e, target, is_boundary) in &cone.fanins[pos] {
                let chain = c.edge(e).ffs().to_vec();
                let src = if is_boundary {
                    signal_driver(c, &pi_map, &inst, target, v)?
                } else {
                    inst[&(v, target)]
                };
                let new_edge = h.connect(src, consumer, chain)?;
                if is_boundary {
                    blist.push(new_edge);
                }
            }
        }
        boundary_edges.insert(v, blist);
    }
    // Primary outputs.
    for &po in c.outputs() {
        let new_po = h.add_output(c.node(po).name().to_string())?;
        let e = c.node(po).fanin()[0];
        let edge = c.edge(e);
        let d = edge.from();
        let src = if c.node(d).is_gate() {
            *inst
                .get(&(d, ExpNode { node: d, weight: 0 }))
                .ok_or_else(|| GenerateError::MissingCut {
                    node: c.node(d).name().to_string(),
                })?
        } else {
            pi_map[&d]
        };
        h.connect(src, new_po, edge.ffs().to_vec())?;
    }

    // ---- Step 2b: retime H, computing initial states. ----
    let mut retiming = Retiming::zero(&h);
    for &(id, r) in &retime_values {
        retiming.set(id, r);
    }
    let (h_retimed, moves, initial_state_lost) = match apply_retiming(&h, &retiming) {
        Ok((hr, mv)) => (hr, mv, false),
        Err(
            e @ (RetimingError::ConflictingFanoutValues { .. }
            | RetimingError::NotJustifiable { .. }),
        ) => {
            if !allow_state_loss {
                return Err(GenerateError::InitialState(e));
            }
            // Erase initial values and retime structurally.
            let mut hx = h.clone();
            for eid in hx.edge_ids().collect::<Vec<_>>() {
                for b in hx.ffs_mut(eid).iter_mut() {
                    *b = netlist::Bit::X;
                }
            }
            let (hr, mv) = apply_retiming(&hx, &retiming).map_err(GenerateError::Retiming)?;
            (hr, mv, true)
        }
        Err(e) => return Err(GenerateError::Retiming(e)),
    };

    // ---- Step 3: collapse cones into K-LUTs. ----
    // Boundary edges with the same (driver, weight) carry the *same
    // logical signal* and become one LUT input — the cut counted them
    // once, so K-feasibility depends on merging them. Their register
    // chains must agree; justified backward values can diverge, in which
    // case the positions are erased to X and the initial state is lost
    // for those registers (a `⋆` ingredient).
    let mut h_retimed = h_retimed;
    let mut initial_state_lost = initial_state_lost;
    let mut lut_roots: HashMap<NodeId, Cut> = HashMap::new();
    for &v in &root_ids {
        let root_inst = inst[&(v, ExpNode { node: v, weight: 0 })];
        // Merge chains per (driver, weight).
        let mut merged: Vec<((NodeId, usize), Vec<netlist::Bit>)> = Vec::new();
        for &be in &boundary_edges[&v] {
            let edge = h_retimed.edge(be);
            let key = (edge.from(), edge.weight());
            let chain = edge.ffs().to_vec();
            match merged.iter_mut().find(|(k, _)| *k == key) {
                Some((_, existing)) => {
                    for (slot, b) in existing.iter_mut().zip(chain) {
                        match slot.merge(b) {
                            Some(m) => *slot = m,
                            None => {
                                *slot = netlist::Bit::X;
                                initial_state_lost = true;
                            }
                        }
                    }
                }
                None => merged.push((key, chain)),
            }
        }
        // Write the merged chains back so the cone collapse sees exactly
        // the signatures listed in the cut.
        for &be in &boundary_edges[&v] {
            let key = (h_retimed.edge(be).from(), h_retimed.edge(be).weight());
            let chain = merged
                .iter()
                .find(|(k, _)| *k == key)
                .map(|(_, c)| c.clone())
                .expect("merged above");
            *h_retimed.ffs_mut(be) = chain;
        }
        let signals: Vec<CutSignal> = merged
            .into_iter()
            .map(|((node, weight), chain)| CutSignal {
                node,
                weight,
                chain,
            })
            .collect();
        lut_roots.insert(root_inst, Cut { signals });
    }
    let circuit = build_lut_network(&h_retimed, &lut_roots, name)?;
    Ok(GeneratedMapping {
        circuit,
        moves,
        initial_state_lost,
    })
}

/// Resolves the H-network driver of a boundary signal: the root instance
/// of a gate, or a PI.
fn signal_driver(
    c: &Circuit,
    pi_map: &HashMap<NodeId, NodeId>,
    inst: &HashMap<(NodeId, ExpNode), NodeId>,
    target: ExpNode,
    root: NodeId,
) -> Result<NodeId, GenerateError> {
    if c.node(target.node).is_gate() {
        inst.get(&(
            target.node,
            ExpNode {
                node: target.node,
                weight: 0,
            },
        ))
        .copied()
        .ok_or_else(|| GenerateError::InconsistentCone {
            root: c.node(root).name().to_string(),
        })
    } else {
        Ok(pi_map[&target.node])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{exhaustive_equiv, Bit, TruthTable};

    /// i1 -FF-> g1 -> g2 -> o with a side PI into g2.
    fn sample() -> Circuit {
        let mut c = Circuit::new("s");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![Bit::One]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(i2, g2, vec![]).unwrap();
        c.connect(g2, o, vec![]).unwrap();
        c
    }

    #[test]
    fn identity_cuts_reproduce_circuit() {
        let c = sample();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        let i1 = c.find("i1").unwrap();
        let i2 = c.find("i2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g1,
            ExpCut {
                signals: vec![ExpNode {
                    node: i1,
                    weight: 1,
                }],
            },
        );
        roots.insert(
            g2,
            ExpCut {
                signals: vec![
                    ExpNode {
                        node: g1,
                        weight: 0,
                    },
                    ExpNode {
                        node: i2,
                        weight: 0,
                    },
                ],
            },
        );
        let rr: HashMap<NodeId, i64> = [(g1, 0), (g2, 0)].into_iter().collect();
        let gen = generate_mapping(&c, &roots, &rr, "ident", false).unwrap();
        assert!(!gen.initial_state_lost);
        assert_eq!(gen.circuit.num_gates(), 2);
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn forward_retiming_with_cone_absorb() {
        // One LUT absorbing the register: cut {i1^1, i2^0}, Ɍ(g2) = -1
        // would be illegal (i2 has no register)... instead absorb g1 into
        // g2's LUT with the register staying on the cut signal i1^1:
        // Ɍ(g2) = 0.
        let c = sample();
        let g2 = c.find("g2").unwrap();
        let i1 = c.find("i1").unwrap();
        let i2 = c.find("i2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g2,
            ExpCut {
                signals: vec![
                    ExpNode {
                        node: i1,
                        weight: 1,
                    },
                    ExpNode {
                        node: i2,
                        weight: 0,
                    },
                ],
            },
        );
        let rr: HashMap<NodeId, i64> = [(g2, 0)].into_iter().collect();
        let gen = generate_mapping(&c, &roots, &rr, "absorb", false).unwrap();
        assert_eq!(gen.circuit.num_gates(), 1);
        assert_eq!(gen.circuit.ff_count_shared(), 1);
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn forward_retiming_pulls_register_through_lut() {
        // Root g1 with cut {i1^1} and Ɍ(g1) = -1: the register moves to
        // g1's output, initial value = NOT(1) = 0.
        let c = sample();
        let g1 = c.find("g1").unwrap();
        let g2 = c.find("g2").unwrap();
        let i1 = c.find("i1").unwrap();
        let i2 = c.find("i2").unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g1,
            ExpCut {
                signals: vec![ExpNode {
                    node: i1,
                    weight: 1,
                }],
            },
        );
        roots.insert(
            g2,
            ExpCut {
                signals: vec![
                    ExpNode {
                        node: g1,
                        weight: 0,
                    },
                    ExpNode {
                        node: i2,
                        weight: 0,
                    },
                ],
            },
        );
        // Ɍ(g1) = -1: register through g1; g2's cut signal (g1, 0)
        // becomes weight 0 + 0 - (-1) = 1 in the final network.
        let rr: HashMap<NodeId, i64> = [(g1, -1), (g2, 0)].into_iter().collect();
        let gen = generate_mapping(&c, &roots, &rr, "pull", false).unwrap();
        assert!(gen.moves.forward_moves > 0);
        let g1_new = gen.circuit.find("g1").unwrap();
        let out_edge = gen.circuit.node(g1_new).fanout()[0];
        assert_eq!(gen.circuit.edge(out_edge).ffs(), &[Bit::Zero]);
        assert!(exhaustive_equiv(&c, &gen.circuit, 5)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn duplicated_cone_instances() {
        // g1 feeds two roots; both absorb g1 → node duplication. The
        // mapping has 2 LUTs and remains equivalent.
        let mut c = Circuit::new("dup");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let p = c.add_gate("p", TruthTable::and(2)).unwrap();
        let q = c.add_gate("q", TruthTable::or(2)).unwrap();
        let o1 = c.add_output("o1").unwrap();
        let o2 = c.add_output("o2").unwrap();
        c.connect(i1, g1, vec![]).unwrap();
        c.connect(g1, p, vec![]).unwrap();
        c.connect(i2, p, vec![]).unwrap();
        c.connect(g1, q, vec![]).unwrap();
        c.connect(i2, q, vec![]).unwrap();
        c.connect(p, o1, vec![]).unwrap();
        c.connect(q, o2, vec![]).unwrap();
        let cut_for = |_root: NodeId| ExpCut {
            signals: vec![
                ExpNode {
                    node: i1,
                    weight: 0,
                },
                ExpNode {
                    node: i2,
                    weight: 0,
                },
            ],
        };
        let mut roots = HashMap::new();
        roots.insert(p, cut_for(p));
        roots.insert(q, cut_for(q));
        let rr: HashMap<NodeId, i64> = [(p, 0), (q, 0)].into_iter().collect();
        let gen = generate_mapping(&c, &roots, &rr, "dup", false).unwrap();
        assert_eq!(gen.circuit.num_gates(), 2);
        assert!(exhaustive_equiv(&c, &gen.circuit, 3)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn state_loss_flagged_for_general_retiming() {
        // Backward retiming over a constant-0 gate with a 1-valued
        // register is unjustifiable: with allow_state_loss the structure
        // is still produced, flagged.
        let mut c = Circuit::new("bk");
        let i1 = c.add_input("i1").unwrap();
        let g = c.add_gate("g", TruthTable::const_zero(1)).unwrap();
        let t = c.add_gate("t", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g, vec![]).unwrap();
        c.connect(g, t, vec![Bit::One]).unwrap();
        c.connect(t, o, vec![]).unwrap();
        let mut roots = HashMap::new();
        roots.insert(
            g,
            ExpCut {
                signals: vec![ExpNode {
                    node: i1,
                    weight: 0,
                }],
            },
        );
        roots.insert(
            t,
            ExpCut {
                signals: vec![ExpNode { node: g, weight: 1 }],
            },
        );
        // Ɍ(g) = +1: backward move, must justify 1 through const-0 → ⋆.
        let rr: HashMap<NodeId, i64> = [(g, 1), (t, 0)].into_iter().collect();
        assert!(matches!(
            generate_mapping(&c, &roots, &rr, "bk", false),
            Err(GenerateError::InitialState(_))
        ));
        let gen = generate_mapping(&c, &roots, &rr, "bk2", true).unwrap();
        assert!(gen.initial_state_lost);
        assert_eq!(gen.circuit.num_gates(), 2);
    }
}
