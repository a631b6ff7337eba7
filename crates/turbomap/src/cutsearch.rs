//! Height- and weight-bounded K-cut search on expanded circuits.
//!
//! The `LabelUpdate` step of FRTcheck asks: *does `F_v^w` contain a
//! K-feasible cut whose cut-height is at most `ℒ`?* where the height of a
//! cut is `max { l^s(u) − Φ·w + 1 }` over its cut-set nodes `u^w`
//! (Definition 5). This module answers that with one bounded max-flow per
//! query:
//!
//! * expanded nodes heavier than the weight bound are **leaves** (they may
//!   be cut — tapped as registered LUT inputs — but not absorbed into the
//!   LUT, since the cut-weight of Definition 4 ranges over the cone `X̄`);
//! * nodes whose value `l^s(u) − Φ·w + 1` exceeds the height bound are
//!   **uncuttable** (uncapacitated): they may sit strictly inside `X` or
//!   inside the cone, but never on the boundary;
//! * everything else has unit capacity; flow ≤ K ⟺ a K-cut exists.
//!
//! Label updates only need that answer, or the least weight bound that
//! gives it ([`min_cut_weight_with`]); only mapping generation extracts
//! the min-cut itself ([`find_cut_with`]).
//!
//! # The flow kernel
//!
//! The flow runs directly on an [`Expansion`] — a whole
//! [`ExpandedCircuit`], or a root's lazily grown ball — and no network is
//! built. Node `i` splits into `i_in → i_out`, a virtual source feeds
//! every leaf's `i_in`, and the sink is the root's `in` half. Augmenting
//! paths are found by BFS **from the sink**, walking residual arcs
//! backwards:
//!
//! * `f_out → i_in` for each fanin `f` of a non-leaf `i` (uncapacitated);
//! * `i_in → i_out` while it has residual capacity;
//! * the reverse of every arc that carries flow.
//!
//! A leaf's `in` half is one arc from the source, so a pass ends at the
//! first leaf it reaches, and a query only visits the nodes near the root
//! that its K + 1 augmentations need. On a ball, entering a node's `in`
//! half is what materialises its fanins ([`Expansion::grow`]), so the
//! ball holds exactly what the queries walked into.
//!
//! When the flow stays at most K, the last, failing pass has visited
//! exactly the split nodes that reach the sink in the residual graph.
//! That set is the same for every maximum flow, so the cut it induces
//! (`out` half visited, `in` half not, in expanded-index order) is the
//! unique minimum cut nearest the sink, whatever paths were augmented.
//!
//! Height violators stay uncapacitated rather than merged into the sink:
//! mid-sweep `l^s` values are lower bounds, not monotone along edges, so a
//! violator may legally sit strictly inside `X`.

use crate::expand::{ExpNode, ExpandedCircuit, Expansion};

/// A cut on an expanded circuit: the future LUT inputs, as expanded nodes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExpCut {
    /// Cut-set nodes `u^w`, each a signal `u` delayed by `w` registers.
    pub signals: Vec<ExpNode>,
}

/// List terminator and cancelled-unit marker.
const NIL: u32 = u32::MAX;

/// One unit of flow on an expanded edge, kept in its driver's list.
#[derive(Debug, Clone, Copy)]
struct FlowUnit {
    /// The consuming node, or [`NIL`] once the unit is cancelled.
    to: u32,
    /// Next unit on the same driver's out-edges.
    next: u32,
}

/// Reusable state for cut queries; one per thread (they are not shared).
///
/// Split node `2i` is `i_in` and `2i + 1` is `i_out`. Arrays grow to the
/// largest `F_v` or ball seen (a ball also mid-query, as it grows) and are
/// never cleared: BFS marks carry a pass stamp and per-node flow carries
/// a query stamp, so a query only touches the nodes it visits. A stamp
/// counter that wraps clears its array once.
#[derive(Debug, Clone, Default)]
pub struct CutScratch {
    /// BFS pass that last visited each split node.
    seen: Vec<u32>,
    /// Each visited split node's successor on its residual path to the
    /// sink.
    next: Vec<u32>,
    /// For an `in` half reached over a flow unit's reverse arc, that unit.
    slot: Vec<u32>,
    /// Current pass stamp.
    pass: u32,
    /// Query that last wrote each node's `through` and `head`; stale
    /// fields read as zero flow.
    flow_stamp: Vec<u32>,
    /// Units of flow on each node's `in → out` arc.
    through: Vec<u32>,
    /// First of each node's flow units, or [`NIL`].
    head: Vec<u32>,
    /// Current query stamp.
    query: u32,
    /// This query's flow units.
    units: Vec<FlowUnit>,
    /// BFS queue. After a failing pass it holds every split node that
    /// reaches the sink in the residual graph.
    queue: Vec<u32>,
}

impl CutScratch {
    /// An empty scratch; the first query sizes it.
    pub fn new() -> CutScratch {
        CutScratch::default()
    }

    /// Sizes the arrays for at least `n` expanded nodes. New entries read
    /// as unvisited and flow-free: stamps start at 1.
    #[inline]
    fn reserve(&mut self, n: usize) {
        if self.flow_stamp.len() < n {
            let n = n.max(2 * self.flow_stamp.len());
            self.seen.resize(2 * n, 0);
            self.next.resize(2 * n, 0);
            self.slot.resize(2 * n, 0);
            self.flow_stamp.resize(n, 0);
            self.through.resize(n, 0);
            self.head.resize(n, NIL);
        }
    }

    /// Sizes the arrays for `n` expanded nodes and starts a query.
    fn begin_query(&mut self, n: usize) {
        self.reserve(n);
        self.query = self.query.wrapping_add(1);
        if self.query == 0 {
            self.flow_stamp.fill(0);
            self.query = 1;
        }
        self.units.clear();
    }

    /// Starts a BFS pass from split node `t`.
    fn begin_pass(&mut self, t: usize) {
        self.pass = self.pass.wrapping_add(1);
        if self.pass == 0 {
            self.seen.fill(0);
            self.pass = 1;
        }
        self.queue.clear();
        self.seen[t] = self.pass;
        self.queue.push(t as u32);
    }

    #[inline]
    fn through(&self, i: usize) -> u32 {
        if self.flow_stamp[i] == self.query {
            self.through[i]
        } else {
            0
        }
    }

    #[inline]
    fn head(&self, i: usize) -> u32 {
        if self.flow_stamp[i] == self.query {
            self.head[i]
        } else {
            NIL
        }
    }

    /// Claims node `i`'s flow fields for this query.
    #[inline]
    fn touch(&mut self, i: usize) {
        if self.flow_stamp[i] != self.query {
            self.flow_stamp[i] = self.query;
            self.through[i] = 0;
            self.head[i] = NIL;
        }
    }

    /// Marks split node `x` reached from `y`; false when already seen.
    #[inline]
    fn visit(&mut self, x: usize, y: usize, slot: u32) -> bool {
        if self.seen[x] == self.pass {
            return false;
        }
        self.seen[x] = self.pass;
        self.next[x] = y as u32;
        self.slot[x] = slot;
        self.queue.push(x as u32);
        true
    }

    /// One BFS pass from the sink over reversed residual arcs. Returns the
    /// `in` half of the first leaf reached, or `None` once every split
    /// node that reaches the sink has been visited.
    fn search<G: Expansion>(&mut self, q: &mut Query<'_, G>) -> Option<usize> {
        let t = 0;
        self.begin_pass(t);
        let mut qi = 0;
        while qi < self.queue.len() {
            let y = self.queue[qi] as usize;
            qi += 1;
            let i = y / 2;
            if y.is_multiple_of(2) {
                // `i_in` of a non-leaf: its fanins' edges, and the reverse
                // of its own arc when that carries flow.
                q.exp.grow(i);
                self.reserve(q.exp.len());
                for &f in q.exp.fanins(i) {
                    self.visit(2 * f as usize + 1, y, NIL);
                }
                if self.through(i) > 0 {
                    self.visit(2 * i + 1, y, NIL);
                }
            } else {
                // `i_out`: its own arc while residual, and the reverse of
                // every flow unit on its out-edges.
                if (self.through(i) == 0 || !q.cuttable(i))
                    && self.visit(2 * i, y, NIL)
                    && q.leaf(i)
                {
                    return Some(2 * i);
                }
                let mut u = self.head(i);
                while u != NIL {
                    let unit = self.units[u as usize];
                    if unit.to != NIL {
                        // Flow only enters non-leaves, so this is no leaf.
                        self.visit(2 * unit.to as usize, y, u);
                    }
                    u = unit.next;
                }
            }
        }
        None
    }

    /// Pushes one unit along the path [`CutScratch::search`] found, from
    /// `x` (a leaf's `in` half) to the sink `t`.
    fn augment(&mut self, mut x: usize, t: usize) {
        while x != t {
            let y = self.next[x] as usize;
            let (a, b) = (x / 2, y / 2);
            match (x.is_multiple_of(2), a == b) {
                // a_in → a_out.
                (true, true) => {
                    self.touch(a);
                    self.through[a] += 1;
                }
                // a_out → a_in cancels flow through `a`.
                (false, true) => self.through[a] -= 1,
                // a_out → b_in: a new unit on edge a → b.
                (false, false) => {
                    self.touch(a);
                    let u = self.units.len() as u32;
                    self.units.push(FlowUnit {
                        to: b as u32,
                        next: self.head[a],
                    });
                    self.head[a] = u;
                }
                // a_in → b_out cancels a unit on edge b → a.
                (true, false) => self.units[self.slot[x] as usize].to = NIL,
            }
            x = y;
        }
    }
}

/// The parameters of one cut query.
struct Query<'a, G> {
    exp: G,
    ls: &'a [i64],
    phi: i64,
    height_bound: i64,
    weight_bound: u64,
}

impl<G: Expansion> Query<'_, G> {
    /// A declared leaf, or heavier than the weight bound: fed by the
    /// source.
    #[inline]
    fn leaf(&self, i: usize) -> bool {
        self.exp.is_leaf(i) || self.exp.weight(i) > self.weight_bound
    }

    /// Unit capacity: the node's value `l^s(u) − Φ·w + 1` is within the
    /// height bound, so it may sit on the cut.
    #[inline]
    fn cuttable(&self, i: usize) -> bool {
        self.ls[self.exp.node_id(i) as usize] - self.phi * (self.exp.weight(i) as i64)
            < self.height_bound
    }
}

/// Searches `F_v^{weight_bound}` (restricted from `exp`) for a K-feasible
/// cut with height ≤ `height_bound`.
///
/// `ls` holds the current `l^s` lower bound per **original** node id
/// (PIs 0). Returns the min-cut found, or `None` when no such cut exists.
///
/// # Panics
///
/// Panics if `exp` is rooted at a leaf (never constructed that way).
pub fn find_cut(
    exp: &ExpandedCircuit,
    ls: &[i64],
    phi: i64,
    height_bound: i64,
    weight_bound: u64,
    k: usize,
) -> Option<ExpCut> {
    find_cut_with(
        &mut CutScratch::new(),
        exp,
        ls,
        phi,
        height_bound,
        weight_bound,
        k,
    )
}

/// [`find_cut`] on any [`Expansion`] with a caller-provided scratch — the
/// form mapping generation uses, reusing one [`CutScratch`] across all
/// gates. The signals come in expanded-index order; the cut itself (as a
/// set) does not depend on the numbering.
pub fn find_cut_with<G: Expansion>(
    scratch: &mut CutScratch,
    mut exp: G,
    ls: &[i64],
    phi: i64,
    height_bound: i64,
    weight_bound: u64,
    k: usize,
) -> Option<ExpCut> {
    if !has_cut_with(scratch, &mut exp, ls, phi, height_bound, weight_bound, k) {
        return None;
    }
    let s = &*scratch;
    let mut cut: Vec<usize> = s
        .queue
        .iter()
        .map(|&x| x as usize)
        .filter(|&x| x % 2 == 1 && s.seen[x - 1] != s.pass)
        .map(|x| x / 2)
        .collect();
    cut.sort_unstable();
    let signals: Vec<ExpNode> = cut.into_iter().map(|i| exp.node(i)).collect();
    debug_assert!(!signals.is_empty() && signals.len() <= k);
    debug_assert!(signals
        .iter()
        .all(|s| { ls[s.node.index()] - phi * (s.weight as i64) < height_bound }));
    Some(ExpCut { signals })
}

/// Whether [`find_cut_with`] would find a cut, without extracting it:
/// one bounded max-flow, leaving the last pass's residual reach in
/// `scratch`. This is the question every label update asks.
pub(crate) fn has_cut_with<G: Expansion>(
    scratch: &mut CutScratch,
    exp: G,
    ls: &[i64],
    phi: i64,
    height_bound: i64,
    weight_bound: u64,
    k: usize,
) -> bool {
    debug_assert!(!exp.is_leaf(0));
    let _l = engine::layer::enter_with(
        engine::Layer::MinCut,
        [
            Some(("node", u64::from(exp.node_id(0)))),
            Some(("weight_bound", weight_bound)),
        ],
    );
    let t = 0;
    scratch.begin_query(exp.len());
    let mut q = Query {
        exp,
        ls,
        phi,
        height_bound,
        weight_bound,
    };
    let mut flow = 0usize;
    let mut visited = 0u64;
    let found = loop {
        if flow > k {
            break false;
        }
        let leaf = scratch.search(&mut q);
        visited += scratch.queue.len() as u64;
        let Some(leaf) = leaf else {
            // The flow is exact (not truncated at K + 1): a real per-cut
            // sample. Zero flow means no leaf reaches the root (an empty
            // cut), which counts as no cut.
            engine::telemetry::record(engine::hist::Metric::AugmentationsPerCut, flow as u64);
            if flow == 0 {
                break false;
            }
            // Unit node capacities: the min cut has exactly `flow` nodes.
            engine::telemetry::record(engine::hist::Metric::CutSize, flow as u64);
            engine::trace::event1("cut_found", "size", flow as u64);
            break true;
        };
        scratch.augment(leaf, t);
        flow += 1;
        engine::telemetry::count(engine::telemetry::Counter::FlowAugmentations, 1);
        engine::trace::event1("augment", "flow", flow as u64);
    };
    engine::telemetry::record(engine::hist::Metric::CutQueryNodes, visited);
    found
}

/// The minimum cut-weight `w ∈ [0, cap]` for which `F_v^w` has a
/// K-feasible cut of height ≤ `height_bound`, or `None` when no weight up
/// to `cap` admits one (§3.2).
///
/// Feasibility is monotone in the weight bound, so this is a binary
/// search over `[0, cap + 1]` with `cap + 1` as the "no cut" sentinel:
/// `⌈log2(cap + 2)⌉` flows, no separate existence flow, and no cut is
/// extracted — callers need only the weight.
pub fn min_cut_weight_with<G: Expansion>(
    scratch: &mut CutScratch,
    mut exp: G,
    ls: &[i64],
    phi: i64,
    height_bound: i64,
    cap: u64,
    k: usize,
) -> Option<u64> {
    let (mut lo, mut hi) = (0u64, cap.saturating_add(1));
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if has_cut_with(scratch, &mut exp, ls, phi, height_bound, mid, k) {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    (lo <= cap).then_some(lo)
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{Bit, Circuit, NodeId, TruthTable};

    /// i1 -> a -> b -FF-> c <- a (Figure 3-style).
    fn fig_circuit(extra_ff_on_i1: bool) -> (Circuit, NodeId) {
        let mut c = Circuit::new("fig");
        let i1 = c.add_input("i1").unwrap();
        let a = c.add_gate("a", TruthTable::not()).unwrap();
        let b = c.add_gate("b", TruthTable::not()).unwrap();
        let cc = c.add_gate("c", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        let i1_ffs = if extra_ff_on_i1 {
            vec![Bit::Zero]
        } else {
            vec![]
        };
        c.connect(i1, a, i1_ffs).unwrap();
        c.connect(a, b, vec![]).unwrap();
        c.connect(b, cc, vec![Bit::Zero]).unwrap();
        c.connect(a, cc, vec![]).unwrap();
        c.connect(cc, o, vec![]).unwrap();
        (c, cc)
    }

    fn zero_labels(c: &Circuit) -> Vec<i64> {
        vec![0; c.num_nodes()]
    }

    #[test]
    fn weight_zero_bound_blocks_lut_past_register() {
        // Figure 3: frt(c) = 0, so b^1 cannot be inside the LUT. With K=2
        // a cut {a^0, b^1} exists (both cuttable as signals).
        let (c, cc) = fig_circuit(false);
        let exp = ExpandedCircuit::build(&c, cc, 0);
        let ls = zero_labels(&c);
        let cut = find_cut(&exp, &ls, 10, 100, 0, 2).unwrap();
        assert_eq!(cut.signals.len(), 2);
        // With K=1 no cut exists at weight bound 0 (need both a and b).
        assert!(find_cut(&exp, &ls, 10, 100, 0, 1).is_none());
    }

    #[test]
    fn weight_one_bound_absorbs_register() {
        // Figure 4: with a FF on (i1, a), frt(c) = 1 and F_c^1 allows the
        // whole cone as one LUT with inputs {i1^1, i1^2}. Force the deep
        // cut by making a and b uncuttable (high labels).
        let (c, cc) = fig_circuit(true);
        let exp = ExpandedCircuit::build(&c, cc, 1);
        let mut ls = zero_labels(&c);
        ls[c.find("a").unwrap().index()] = 1_000;
        ls[c.find("b").unwrap().index()] = 1_000;
        let cut = find_cut(&exp, &ls, 10, 5, 1, 2).unwrap();
        let i1 = c.find("i1").unwrap();
        let mut weights: Vec<u64> = cut
            .signals
            .iter()
            .filter(|s| s.node == i1)
            .map(|s| s.weight)
            .collect();
        weights.sort_unstable();
        assert_eq!(weights, vec![1, 2]);
    }

    #[test]
    fn height_bound_excludes_high_labels() {
        // Give `a` a huge label: it cannot be a cut signal, so the cut
        // must go past it to i1 (possible only if K allows).
        let (c, cc) = fig_circuit(true);
        let exp = ExpandedCircuit::build(&c, cc, 1);
        let mut ls = zero_labels(&c);
        ls[c.find("a").unwrap().index()] = 1_000;
        let phi = 10;
        // Cut must avoid a^0/a^1 (uncuttable); {b^1, i1^1} or the deeper
        // {i1^1, i1^2} both qualify.
        let cut = find_cut(&exp, &ls, phi, 5, 1, 2).unwrap();
        assert!(cut.signals.iter().all(|s| s.node != c.find("a").unwrap()));
        assert!(cut.signals.iter().any(|s| s.node == c.find("i1").unwrap()));
    }

    #[test]
    fn impossible_height_returns_none() {
        let (c, cc) = fig_circuit(false);
        let exp = ExpandedCircuit::build(&c, cc, 0);
        let mut ls = zero_labels(&c);
        // Every potential cut signal too high.
        for v in c.node_ids() {
            ls[v.index()] = 100;
        }
        assert!(find_cut(&exp, &ls, 1, 0, 0, 3).is_none());
    }

    fn min_weight(
        exp: &ExpandedCircuit,
        ls: &[i64],
        phi: i64,
        height: i64,
        cap: u64,
        k: usize,
    ) -> Option<u64> {
        min_cut_weight_with(&mut CutScratch::new(), exp, ls, phi, height, cap, k)
    }

    #[test]
    fn min_weight_prefers_small() {
        // Figure 4 circuit: at K=3 a weight-0 cut {a^0, b^1} exists, so
        // the query must return weight 0 even though weight 1 also works.
        let (c, cc) = fig_circuit(true);
        let exp = ExpandedCircuit::build(&c, cc, 1);
        let ls = zero_labels(&c);
        assert_eq!(min_weight(&exp, &ls, 10, 100, 1, 3), Some(0));
        assert!(find_cut(&exp, &ls, 10, 100, 0, 3).unwrap().signals.len() <= 3);
    }

    #[test]
    fn min_weight_needs_one_when_k_too_small() {
        // Height bound excluding both `a` and `b` everywhere: the only
        // cut left is {i1^1, i1^2}, which must absorb b^1 → weight 1.
        let (c, cc) = fig_circuit(true);
        let exp = ExpandedCircuit::build(&c, cc, 1);
        let mut ls = zero_labels(&c);
        ls[c.find("a").unwrap().index()] = 1_000;
        ls[c.find("b").unwrap().index()] = 1_000;
        assert_eq!(min_weight(&exp, &ls, 10, 5, 1, 2), Some(1));
        // A cap below the minimal weight is the "no cut" answer.
        assert_eq!(min_weight(&exp, &ls, 10, 5, 0, 2), None);
        let cut = find_cut(&exp, &ls, 10, 5, 1, 2).unwrap();
        assert_eq!(cut.signals.len(), 2);
        let i1 = c.find("i1").unwrap();
        assert!(cut.signals.iter().all(|s| s.node == i1));
    }

    #[test]
    fn scratch_reuse_matches_fresh_queries() {
        // The arena must be invisible: mixed-size queries through one
        // reused scratch agree exactly with fresh-network queries.
        let (c1, cc1) = fig_circuit(false);
        let exp1 = ExpandedCircuit::build(&c1, cc1, 0);
        let (c2, cc2) = fig_circuit(true);
        let exp2 = ExpandedCircuit::build(&c2, cc2, 1);
        let ls1 = zero_labels(&c1);
        let mut ls2 = zero_labels(&c2);
        ls2[c2.find("a").unwrap().index()] = 1_000;
        ls2[c2.find("b").unwrap().index()] = 1_000;
        let mut scratch = CutScratch::new();
        for _ in 0..2 {
            // Bigger then smaller network through the same arena.
            assert_eq!(
                find_cut_with(&mut scratch, &exp2, &ls2, 10, 5, 1, 2),
                find_cut(&exp2, &ls2, 10, 5, 1, 2)
            );
            assert_eq!(
                find_cut_with(&mut scratch, &exp1, &ls1, 10, 100, 0, 2),
                find_cut(&exp1, &ls1, 10, 100, 0, 2)
            );
            assert_eq!(
                min_cut_weight_with(&mut scratch, &exp2, &ls2, 10, 5, 1, 3),
                min_weight(&exp2, &ls2, 10, 5, 1, 3)
            );
        }
    }

    #[test]
    fn trivial_fanin_cut_found() {
        let (c, cc) = fig_circuit(false);
        let exp = ExpandedCircuit::build(&c, cc, 0);
        let ls = zero_labels(&c);
        // Bound that admits only the fanin cut works at K=2.
        let cut = find_cut(&exp, &ls, 1, 1, 0, 2).unwrap();
        assert!(cut.signals.len() <= 2);
    }
}

#[cfg(test)]
mod validity_tests {
    use super::*;
    use crate::expand::ExpandedCircuit;
    use engine::Rng64;

    /// Checks that `cut` is a valid cut of `exp` under `weight_bound`:
    /// every path from an effective leaf to the root crosses a cut node,
    /// every cut node satisfies the height bound, and every cone-internal
    /// node respects the weight bound.
    fn assert_valid_cut(
        exp: &ExpandedCircuit,
        cut: &ExpCut,
        ls: &[i64],
        phi: i64,
        height_bound: i64,
        weight_bound: u64,
    ) {
        let cut_set: std::collections::HashSet<ExpNode> = cut.signals.iter().copied().collect();
        for s in &cut.signals {
            let h = ls[s.node.index()] - phi * s.weight as i64 + 1;
            assert!(h <= height_bound, "cut node violates height");
        }
        // Walk the cone from the root; it must terminate at cut nodes
        // without touching an effective leaf.
        let mut stack = vec![exp.root()];
        let mut seen = vec![false; exp.len()];
        seen[exp.root()] = true;
        while let Some(i) = stack.pop() {
            let en = exp.node(i);
            assert!(
                en.weight <= weight_bound || i == exp.root(),
                "cone node heavier than the bound"
            );
            assert!(
                !(exp.is_leaf(i) && i != exp.root()),
                "cone contains a leaf: the cut failed to separate"
            );
            for &f in exp.fanins(i) {
                let fi = f as usize;
                if cut_set.contains(&exp.node(fi)) || seen[fi] {
                    continue;
                }
                assert!(
                    !(exp.is_leaf(fi) || exp.weight(fi) > weight_bound),
                    "uncut boundary reached at {:?}",
                    exp.node(fi)
                );
                seen[fi] = true;
                stack.push(fi);
            }
        }
    }

    #[test]
    fn random_circuits_random_labels_cuts_valid() {
        let mut rng = Rng64::new(0xC07);
        for trial in 0..40 {
            let c = workloads::generate_fsm(&workloads::FsmSpec {
                name: format!("cv{trial}"),
                states: rng.range_usize(2, 7),
                inputs: rng.range_usize(1, 4),
                decoded: 2,
                outputs: 1,
                encoding: if rng.chance(0.5) {
                    workloads::Encoding::OneHot
                } else {
                    workloads::Encoding::Binary
                },
                registered_inputs: rng.chance(0.5),
                seed: trial,
            });
            let ls: Vec<i64> = (0..c.num_nodes()).map(|_| rng.range_i64(-4, 4)).collect();
            let phi = rng.range_i64(1, 4);
            let k = rng.range_usize(2, 6);
            let hb = rng.range_i64(-2, 6);
            let wb = rng.range_i64(0, 3) as u64;
            for v in c.gate_ids().take(8) {
                let exp = ExpandedCircuit::build(&c, v, wb);
                if let Some(cut) = find_cut(&exp, &ls, phi, hb, wb, k) {
                    assert!(cut.signals.len() <= k);
                    assert_valid_cut(&exp, &cut, &ls, phi, hb, wb);
                }
            }
        }
    }

    /// The sentinel binary search must agree with the definition: the
    /// smallest weight `w ≤ cap` at which [`find_cut_with`] finds a cut,
    /// by linear scan — including `cap = 0` and heights no weight meets.
    #[test]
    fn min_cut_weight_matches_linear_scan() {
        let mut rng = Rng64::new(0x3E16);
        let mut scratch = CutScratch::new();
        let (mut found, mut none, mut cap0) = (0, 0, 0);
        for trial in 0..40 {
            let c = workloads::generate_fsm(&workloads::FsmSpec {
                name: format!("mw{trial}"),
                states: rng.range_usize(2, 7),
                inputs: rng.range_usize(1, 4),
                decoded: 2,
                outputs: 1,
                encoding: if rng.chance(0.5) {
                    workloads::Encoding::OneHot
                } else {
                    workloads::Encoding::Binary
                },
                registered_inputs: rng.chance(0.5),
                seed: trial,
            });
            let ls: Vec<i64> = (0..c.num_nodes()).map(|_| rng.range_i64(-4, 4)).collect();
            let phi = rng.range_i64(1, 4);
            let k = rng.range_usize(2, 6);
            let hb = rng.range_i64(-2, 6);
            let horizon = 3u64;
            for v in c.gate_ids().take(8) {
                let exp = ExpandedCircuit::build(&c, v, horizon);
                for cap in 0..=horizon {
                    let scan = (0..=cap)
                        .find(|&w| find_cut_with(&mut scratch, &exp, &ls, phi, hb, w, k).is_some());
                    let got = min_cut_weight_with(&mut scratch, &exp, &ls, phi, hb, cap, k);
                    assert_eq!(got, scan, "trial {trial} gate {v:?} cap {cap}");
                    found += usize::from(got.is_some());
                    // No weight at all admits a cut.
                    none += usize::from(got.is_none() && cap == horizon);
                    cap0 += usize::from(cap == 0);
                }
            }
        }
        assert!(found > 0 && none > 0 && cap0 > 0, "{found} {none} {cap0}");
    }
}

#[cfg(test)]
mod oracle_tests {
    use super::*;
    use engine::hist::Metric;
    use engine::telemetry::{self, Counter, Telemetry};
    use engine::Rng64;
    use graphalgo::{MaxFlowResult, NodeCutNetwork};
    use netlist::{Bit, Circuit, NodeId, TruthTable};

    /// The reference construction: a [`NodeCutNetwork`] over the whole
    /// `F_v`, a source-side bounded max-flow, then the residual min cut
    /// nearest the sink — with the telemetry the kernel must reproduce.
    fn reference(
        exp: &ExpandedCircuit,
        ls: &[i64],
        phi: i64,
        height_bound: i64,
        weight_bound: u64,
        k: usize,
    ) -> (MaxFlowResult, Option<ExpCut>) {
        let n = exp.len();
        let (source, root) = (n, exp.root());
        let mut net = NodeCutNetwork::new(n + 1);
        for i in 0..n {
            if exp.is_leaf(i) || exp.weight(i) > weight_bound {
                net.add_edge(source, i);
            } else {
                for &f in exp.fanins(i) {
                    net.add_edge(f as usize, i);
                }
            }
            let en = exp.node(i);
            if i != root && ls[en.node.index()] - phi * en.weight as i64 + 1 > height_bound {
                net.set_uncapacitated(i);
            }
        }
        let result = net.max_flow(source, root, k as u32);
        if result.exceeded_limit || result.flow == 0 {
            return (result, None);
        }
        telemetry::record(Metric::CutSize, u64::from(result.flow));
        let cut = net.min_cut_near_sink(source);
        let signals = cut.cut_nodes.iter().map(|&i| exp.node(i)).collect();
        (result, Some(ExpCut { signals }))
    }

    fn reference_min_weight(
        exp: &ExpandedCircuit,
        ls: &[i64],
        phi: i64,
        height_bound: i64,
        cap: u64,
        k: usize,
    ) -> Option<u64> {
        (0..=cap).find(|&w| reference(exp, ls, phi, height_bound, w, k).1.is_some())
    }

    /// The telemetry both constructions record, compared field by field.
    fn flow_telemetry(t: &Telemetry) -> [u64; 5] {
        let (aug, size) = (t.hist(Metric::AugmentationsPerCut), t.hist(Metric::CutSize));
        [
            t.counter(Counter::FlowAugmentations),
            aug.count,
            aug.sum,
            size.count,
            size.sum,
        ]
    }

    /// A random FSM plus three hand-made roots: a gate fed only by a
    /// constant (zero flow), a gate with a duplicated fanin, and a gate
    /// mixing both behind a register.
    fn circuit(rng: &mut Rng64, trial: u64) -> (Circuit, Vec<NodeId>) {
        let mut c = workloads::generate_fsm(&workloads::FsmSpec {
            name: format!("or{trial}"),
            states: rng.range_usize(2, 7),
            inputs: rng.range_usize(1, 4),
            decoded: 2,
            outputs: 1,
            encoding: if rng.chance(0.5) {
                workloads::Encoding::OneHot
            } else {
                workloads::Encoding::Binary
            },
            registered_inputs: rng.chance(0.5),
            seed: trial,
        });
        let gates: Vec<NodeId> = c.gate_ids().collect();
        let x = gates[rng.range_usize(0, gates.len())];
        let k0 = c.add_gate("k0", TruthTable::const_zero(0)).unwrap();
        let zero = c.add_gate("zero", TruthTable::buf()).unwrap();
        c.connect(k0, zero, vec![]).unwrap();
        let dup = c.add_gate("dup", TruthTable::and(2)).unwrap();
        c.connect(x, dup, vec![]).unwrap();
        c.connect(x, dup, vec![]).unwrap();
        let mix = c.add_gate("mix", TruthTable::and(2)).unwrap();
        c.connect(dup, mix, vec![Bit::Zero]).unwrap();
        c.connect(k0, mix, vec![]).unwrap();
        let mut roots: Vec<NodeId> = gates.into_iter().take(8).collect();
        roots.extend([zero, dup, mix]);
        (c, roots)
    }

    fn has_duplicate_fanins(exp: &ExpandedCircuit) -> bool {
        (0..exp.len()).any(|i| {
            let f = exp.fanins(i);
            (1..f.len()).any(|j| f[..j].contains(&f[j]))
        })
    }

    /// The kernel against the reference on random expansions, labels,
    /// Φ, heights, weight bounds and K: same verdicts, same cuts, same
    /// minimum weights, same flow telemetry — through one scratch that
    /// sees `F_v` grow and shrink.
    #[test]
    fn kernel_matches_reference_network() {
        let mut rng = Rng64::new(0x51_4B);
        let mut scratch = CutScratch::new();
        let mut prev_len = 0;
        let (mut grew, mut shrank) = (0, 0);
        let (mut exceeded, mut zero, mut uncap_leaf, mut dup, mut found) = (0, 0, 0, 0, 0);
        for trial in 0..60 {
            let (c, roots) = circuit(&mut rng, trial);
            let ls: Vec<i64> = (0..c.num_nodes()).map(|_| rng.range_i64(-4, 4)).collect();
            let phi = rng.range_i64(1, 4);
            let k = rng.range_usize(1, 6);
            let horizon = rng.range_i64(0, 4) as u64;
            for v in roots {
                let exp = ExpandedCircuit::build(&c, v, horizon);
                grew += usize::from(exp.len() > prev_len);
                shrank += usize::from(exp.len() < prev_len);
                prev_len = exp.len();
                dup += usize::from(has_duplicate_fanins(&exp));
                let hb = rng.range_i64(-2, 6);
                let wb = rng.range_i64(0, horizon as i64 + 1) as u64;
                telemetry::reset();
                let got = find_cut_with(&mut scratch, &exp, &ls, phi, hb, wb, k);
                let got_tel = flow_telemetry(&telemetry::take());
                let (flow, want) = reference(&exp, &ls, phi, hb, wb, k);
                let want_tel = flow_telemetry(&telemetry::take());
                assert_eq!(got, want, "trial {trial} root {v:?} hb {hb} wb {wb} k {k}");
                assert_eq!(got_tel, want_tel, "telemetry, trial {trial} root {v:?}");
                assert_eq!(
                    has_cut_with(&mut scratch, &exp, &ls, phi, hb, wb, k),
                    want.is_some()
                );
                assert_eq!(
                    min_cut_weight_with(&mut scratch, &exp, &ls, phi, hb, horizon, k),
                    reference_min_weight(&exp, &ls, phi, hb, horizon, k),
                    "min weight, trial {trial} root {v:?}"
                );
                exceeded += usize::from(flow.exceeded_limit);
                zero += usize::from(flow.flow == 0);
                found += usize::from(want.is_some());
                uncap_leaf += usize::from((1..exp.len()).any(|i| {
                    let en = exp.node(i);
                    (exp.is_leaf(i) || en.weight > wb)
                        && ls[en.node.index()] - phi * en.weight as i64 + 1 > hb
                }));
            }
        }
        let cases = [exceeded, zero, uncap_leaf, dup, found, grew, shrank];
        assert!(cases.iter().all(|&n| n > 0), "{cases:?}");
    }

    /// Both stamp counters wrap: the pass counter mid-query, the query
    /// counter between queries. Answers must not see stale marks or flow.
    #[test]
    fn stamp_wraparound_resets_scratch() {
        let mut rng = Rng64::new(0xE90C);
        let mut checked = 0;
        for trial in 0..4 {
            let (c, _) = circuit(&mut rng, trial);
            let ls: Vec<i64> = (0..c.num_nodes()).map(|_| rng.range_i64(-2, 2)).collect();
            for v in c.gate_ids() {
                let exp = ExpandedCircuit::build(&c, v, 2);
                let want = find_cut(&exp, &ls, 1, 8, 2, 5);
                if want.is_none() {
                    continue;
                }
                // A cut means at least two passes, so every run wraps
                // both counters, and rewinding them again replays the
                // same stamps: without the resets, the second run would
                // take the first one's marks and flow for its own.
                let mut scratch = CutScratch::new();
                for _ in 0..2 {
                    scratch.pass = u32::MAX - 1;
                    scratch.query = u32::MAX;
                    let got = find_cut_with(&mut scratch, &exp, &ls, 1, 8, 2, 5);
                    assert_eq!(got, want, "trial {trial} root {v:?}");
                    assert!(scratch.query == 1 && scratch.pass < u32::MAX);
                }
                checked += 1;
            }
        }
        assert!(checked > 0);
    }

    /// A lazily grown ball against the whole `F_v`: on random circuits,
    /// label vectors, Φ, heights and K in 2–6, at every weight bound up to
    /// the root's expansion bound, the three queries agree — several
    /// label vectors through one ball, so later queries run on what
    /// earlier ones grew. The ball stays a subgraph of `F_v` with the same
    /// fanin lists, and usually a strict one.
    #[test]
    fn lazy_ball_matches_whole_expansion() {
        use crate::expand::Ball;
        let sorted = |cut: Option<ExpCut>| {
            cut.map(|c| {
                let mut s: Vec<(NodeId, u64)> =
                    c.signals.iter().map(|s| (s.node, s.weight)).collect();
                s.sort_unstable();
                s
            })
        };
        let mut rng = Rng64::new(0xBA11);
        let mut scratch = CutScratch::new();
        let (mut found, mut none, mut partial, mut regrown_queries) = (0, 0, 0, 0);
        for trial in 0..40 {
            let (c, roots) = circuit(&mut rng, trial);
            let frt = retiming::max_forward_retiming_values(&c);
            let phi = rng.range_i64(1, 4);
            let k = rng.range_usize(2, 7);
            for v in roots {
                let bound = frt[v.index()].min(5);
                let full = ExpandedCircuit::build(&c, v, bound);
                let mut ball = Ball::new(&c, v, bound);
                for _ in 0..3 {
                    let ls: Vec<i64> = (0..c.num_nodes()).map(|_| rng.range_i64(-4, 4)).collect();
                    let hb = rng.range_i64(-2, 6);
                    let before = ball.len();
                    for wb in 0..=bound {
                        let got = has_cut_with(&mut scratch, ball.grow(&c), &ls, phi, hb, wb, k);
                        let want = has_cut_with(&mut scratch, &full, &ls, phi, hb, wb, k);
                        assert_eq!(got, want, "trial {trial} root {v:?} wb {wb}");
                        let got = find_cut_with(&mut scratch, ball.grow(&c), &ls, phi, hb, wb, k);
                        let want = find_cut_with(&mut scratch, &full, &ls, phi, hb, wb, k);
                        found += usize::from(want.is_some());
                        none += usize::from(want.is_none());
                        assert_eq!(
                            sorted(got),
                            sorted(want),
                            "trial {trial} root {v:?} wb {wb}"
                        );
                    }
                    let got =
                        min_cut_weight_with(&mut scratch, ball.grow(&c), &ls, phi, hb, bound, k);
                    let want = min_cut_weight_with(&mut scratch, &full, &ls, phi, hb, bound, k);
                    assert_eq!(got, want, "min weight, trial {trial} root {v:?}");
                    regrown_queries += usize::from(before > 1);
                }
                let (len, grown): (usize, Vec<bool>) = (
                    ball.len(),
                    (0..ball.len()).map(|i| ball.is_grown(i)).collect(),
                );
                let view = ball.grow(&c);
                let index: std::collections::HashMap<ExpNode, usize> =
                    full.nodes().enumerate().map(|(i, en)| (en, i)).collect();
                for i in 0..len {
                    let j = index[&view.node(i)];
                    assert_eq!(view.is_leaf(i), full.is_leaf(j));
                    if grown[i] {
                        let mine: Vec<ExpNode> = view
                            .fanins(i)
                            .iter()
                            .map(|&f| view.node(f as usize))
                            .collect();
                        let theirs: Vec<ExpNode> = full
                            .fanins(j)
                            .iter()
                            .map(|&f| full.node(f as usize))
                            .collect();
                        assert_eq!(mine, theirs, "trial {trial} root {v:?} node {i}");
                    }
                }
                partial += usize::from(len < full.len());
            }
        }
        let cases = [found, none, partial, regrown_queries];
        assert!(cases.iter().all(|&n| n > 0), "{cases:?}");
    }
}
