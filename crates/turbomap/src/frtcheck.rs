//! FRTcheck: iterative label-pair computation (Figure 5 / Section 3.2).
//!
//! For a target clock period `Φ`, every node carries a lower-bound pair
//! `(l^s(v), r(v))` on its node label pair `(L^s(v), R(v))` (Definitions
//! 1–2): `l^s` is the l-value of the corresponding *simple* mapping
//! solution and `r` the number of registers pulled forward across the LUT.
//! Starting from `(0, 0)` at PIs and `(−∞, 0)` elsewhere, `LabelUpdate`
//! tightens the bounds monotonically via min-height-min-weight K-cuts on
//! the expanded circuits `F_v^{frt(v)}` until they converge to the label
//! pairs — or provably exceed the feasibility condition
//! `l^s(v) + Φ·r(v) ≤ Φ` (Corollary 1), in which case `Φ` is infeasible.
//!
//! Since lower bounds only grow and any node with `l^s(v) > Φ` already
//! violates Corollary 1 for every `r ≥ 0`, divergence is detected long
//! before the theoretical `|V|²` iteration cap.
//!
//! # Sweep structure: level-synchronized, two-phase
//!
//! Each sweep walks the topological levels of the combinational graph.
//! Per level, the dirty nodes' updates are **computed** against a frozen
//! label snapshot (serially, or fanned out over a [`crate::sweep::Board`]
//! crew), then **applied** in node order. Every computed pair is a pure
//! function of (snapshot, node), so the outcome — labels, sweep counts,
//! requeue counts — is byte-identical for every worker count. Register
//! edges may point within or across levels in either direction; that only
//! means an update can be computed against a slightly stale fanin bound,
//! and the dirty re-marking in the apply phase schedules the node again —
//! chaotic iteration of a monotone system converges to the same least
//! fixpoint under any fair order.
//!
//! # Warm starts
//!
//! [`FrtContext::check_opts`] can seed `l^s` from the labels of a
//! previously *feasible* check at a strictly larger Φ′. Since the final
//! `l^s` values are pointwise non-decreasing as Φ shrinks, that seed is
//! still below this probe's least fixpoint, and monotone ascent from any
//! point below the least fixpoint converges exactly to it (`r` restarts
//! at 0 and reconverges the same way) — so a warm probe returns the same
//! answer as a cold one, minus the sweeps spent re-deriving what the
//! previous probe already proved.
//!
//! # Two rules, one engine
//!
//! The same context, sweep loop and final-cut extraction also run the
//! label check of the **TurboMap** general-retiming baseline (see
//! [`crate::gencheck`]). A private rule picks the differences:
//!
//! | | FRTcheck | general |
//! |---|---|---|
//! | expansion bound per gate | `frt(v)` | `general_horizon` |
//! | gate update | min cut-weight under the Corollary-1 cap | cut exists at the horizon |
//! | early infeasible exit | any `l^s(v) > Φ` | a PO label `> Φ` |
//! | final test | Corollary 1 at every node | every PO label `≤ Φ` |
//! | dead gates (no path to a PO) | swept | skipped |
//!
//! Both are monotone ascents to a least fixpoint whose labels grow as Φ
//! shrinks, so level-synchronized sweeps, warm starts and the parallel
//! board serve both unchanged.

use crate::cutsearch::{find_cut_with, has_cut_with, min_cut_weight_with, CutScratch, ExpCut};
use crate::expand::ExpandedCircuit;
use crate::sweep::{Board, StopOnDrop};
use crate::witness::{WitnessOutcome, WitnessStep};
use netlist::{Circuit, NodeId};
use std::cell::Cell;
use std::sync::RwLock;

/// Practical ceiling on expanded-circuit size; `F_v^i` beyond this is
/// treated as cut-less at that bound (conservative; never triggered by the
/// benchmark suite — see DESIGN.md). Gates that hit it are counted in the
/// `expand_capped` telemetry counter and reported by a warning.
pub const MAX_EXPANDED_NODES: usize = 500_000;

/// Sentinel for `−∞` labels.
pub const LS_NEG_INF: i64 = i64::MIN / 4;

/// Smallest dirty-task count of a level worth waking the sweep crew for
/// (and the recording threshold of the `parallel_batch_size` histogram).
const PAR_THRESHOLD: usize = 4;

/// Per-node label pairs.
#[derive(Debug, Clone)]
pub struct LabelPairs {
    /// `l^s` lower bounds, per node id.
    pub ls: Vec<i64>,
    /// `r` lower bounds, per node id.
    pub r: Vec<u64>,
}

/// Outcome of one FRTcheck run.
#[derive(Debug, Clone)]
pub struct FrtCheck {
    /// True when a feasible FRT mapping solution exists for the period.
    pub feasible: bool,
    /// Final label pairs (meaningful when feasible).
    pub labels: LabelPairs,
    /// Sweeps executed (the paper reports 5–15 in practice).
    pub iterations: usize,
}

/// Which label system a context iterates (see the module docs).
#[derive(Debug, Clone, Copy)]
pub(crate) enum Rule {
    /// FRTcheck (Figure 5, Corollary 1).
    Frt,
    /// The TurboMap general-retiming baseline: single labels, cones
    /// expanded to a fixed register horizon, PO-only feasibility.
    General {
        /// Per-LUT register-crossing horizon.
        horizon: u64,
    },
}

/// How a sweep loop ended (internal).
enum SweepEnd {
    /// The installed cancel token tripped; partial labels, no records.
    Cancelled,
    /// Corollary 1 provably violated (or the iteration cap was hit).
    Infeasible,
    /// Labels converged; Corollary 1 decides feasibility.
    Converged,
}

/// Precomputed per-circuit state shared across the label checks of one
/// run (binary search on `Φ` re-uses it), under FRTcheck's rule or the
/// general-retiming one.
pub struct FrtContext<'a> {
    circuit: &'a Circuit,
    /// Capped `frt(v)` per node (empty under the general rule).
    pub frt: Vec<u64>,
    /// Gates whose true `frt(v)` exceeded the cap, so their expanded
    /// circuits are truncated and the mapping may be pessimal for them.
    pub frt_capped_gates: u64,
    /// Expanded circuit per gate, at [`FrtContext::bound`].
    expanded: Vec<Option<ExpandedCircuit>>,
    /// Topological levels over zero-weight edges: level `d` lists the
    /// swept (non-PI, and under the general rule live) nodes at
    /// combinational depth `d`, in topological order.
    /// Within a level no zero-weight edge connects two members, which is
    /// what makes the per-level fan-out safe and effective.
    levels: Levels,
    /// Inverted cone index as a CSR graph: the out-row of node `x` lists
    /// the gates whose expanded circuits contain `x` (whose labels
    /// therefore depend on `x`'s label through the cut heights).
    influenced: graphalgo::Csr,
    k: usize,
    rule: Rule,
}

/// Topological levels in flat form: the nodes of level `d` are
/// `nodes[off[d]..off[d + 1]]` — one arena for the whole partition
/// instead of a `Vec` per depth.
#[derive(Debug, Clone, Default)]
pub(crate) struct Levels {
    off: Vec<u32>,
    nodes: Vec<u32>,
}

impl Levels {
    /// Number of levels.
    pub(crate) fn len(&self) -> usize {
        self.off.len().saturating_sub(1)
    }

    /// The nodes of level `d`, in topological order.
    pub(crate) fn level(&self, d: usize) -> &[u32] {
        &self.nodes[self.off[d] as usize..self.off[d + 1] as usize]
    }

    /// Iterates the levels shallow-to-deep.
    pub(crate) fn iter(&self) -> impl Iterator<Item = &[u32]> {
        (0..self.len()).map(move |d| self.level(d))
    }

    /// Total node count across all levels.
    #[cfg(test)]
    pub(crate) fn total(&self) -> usize {
        self.nodes.len()
    }
}

impl<'a> FrtContext<'a> {
    /// Builds the context: `frt` values (Lemma 1, Dijkstra) and expanded
    /// circuits `F_v^{frt(v)}` for every gate — built **once** per run and
    /// shared read-only by every Φ probe of the binary search.
    ///
    /// `frt_cap` bounds the forward-retiming horizon (Definition 3 allows
    /// arbitrarily large values on register-heavy inputs; the cap trades
    /// optimality for memory and is far beyond anything the benchmarks
    /// need). Gates actually truncated by the cap are counted in
    /// [`FrtContext::frt_capped_gates`], the `frt_capped` telemetry
    /// counter, and a structured warning — truncation is no longer
    /// silent.
    ///
    /// # Panics
    ///
    /// Panics on combinational cycles (validate first).
    pub fn new(circuit: &'a Circuit, k: usize, frt_cap: u64) -> FrtContext<'a> {
        FrtContext::new_capped(circuit, k, frt_cap, MAX_EXPANDED_NODES)
    }

    /// [`FrtContext::new`] with an explicit expanded-circuit size cap.
    pub(crate) fn new_capped(
        circuit: &'a Circuit,
        k: usize,
        frt_cap: u64,
        max_nodes: usize,
    ) -> FrtContext<'a> {
        let raw_frt = retiming::max_forward_retiming_values(circuit);
        let mut frt_capped_gates = 0u64;
        for v in circuit.gate_ids() {
            if raw_frt[v.index()] > frt_cap {
                frt_capped_gates += 1;
            }
        }
        if frt_capped_gates > 0 {
            engine::telemetry::count(engine::telemetry::Counter::FrtCapped, frt_capped_gates);
            engine::log::warn(
                "turbomap::frtcheck",
                "weight horizon capped frt(v); mapping may be suboptimal for these gates",
                &[
                    ("gates", engine::JsonValue::UInt(frt_capped_gates)),
                    ("cap", engine::JsonValue::UInt(frt_cap)),
                ],
            );
        }
        let frt: Vec<u64> = raw_frt.into_iter().map(|f| f.min(frt_cap)).collect();
        FrtContext::build(circuit, k, frt, frt_capped_gates, Rule::Frt, max_nodes)
    }

    /// The context of the general-retiming label check: every gate that
    /// reaches a PO expanded to `horizon`, dead gates left out of the
    /// sweep (see DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics on combinational cycles.
    pub(crate) fn general(circuit: &'a Circuit, k: usize, horizon: u64) -> FrtContext<'a> {
        FrtContext::build(
            circuit,
            k,
            Vec::new(),
            0,
            Rule::General { horizon },
            MAX_EXPANDED_NODES,
        )
    }

    /// The shared builder: topological levels, the probe-invariant
    /// expansion cache at each gate's [`FrtContext::bound`] (expanded
    /// circuits above `max_nodes` are dropped, counted and reported), and
    /// the inverted cone index.
    fn build(
        circuit: &'a Circuit,
        k: usize,
        frt: Vec<u64>,
        frt_capped_gates: u64,
        rule: Rule,
        max_nodes: usize,
    ) -> FrtContext<'a> {
        let order = circuit
            .comb_topo_order()
            .expect("combinational cycles must be rejected before mapping");
        let live = match rule {
            Rule::Frt => None,
            Rule::General { .. } => Some(netlist::po_reachable(circuit)),
        };
        let is_live = |v: NodeId| live.as_ref().is_none_or(|l| l[v.index()]);
        let levels = comb_levels(circuit, &order, is_live);
        let mut ctx = FrtContext {
            circuit,
            frt,
            frt_capped_gates,
            expanded: vec![None; circuit.num_nodes()],
            levels,
            influenced: graphalgo::Csr::default(),
            k,
            rule,
        };
        let mut capped = 0u64;
        for v in circuit.gate_ids().filter(|&v| is_live(v)) {
            ctx.expanded[v.index()] = ExpandedCircuit::build(circuit, v, ctx.bound(v), max_nodes);
            capped += u64::from(ctx.expanded[v.index()].is_none());
        }
        if capped > 0 {
            engine::telemetry::count(engine::telemetry::Counter::ExpandCapped, capped);
            engine::log::warn(
                "turbomap::frtcheck",
                "expanded circuits hit the size cap; label updates on these gates find no cut",
                &[
                    ("gates", engine::JsonValue::UInt(capped)),
                    ("max_nodes", engine::JsonValue::UInt(max_nodes as u64)),
                ],
            );
        }
        // (node, dependent gate) pairs, counting-sorted into a CSR row per
        // node in two passes over the cache, never stored as a list. The
        // stamps keep one pair per (node, gate): gate ids are dense, so
        // `v + 1` is a unique generation tag.
        let n = circuit.num_nodes();
        let stamp = vec![Cell::new(0u32); n];
        let stamp = &stamp;
        ctx.influenced = graphalgo::Csr::from_edge_fn(n, || {
            stamp.iter().for_each(|s| s.set(0));
            ctx.expanded
                .iter()
                .enumerate()
                .filter_map(|(v, exp)| Some((v, exp.as_ref()?)))
                .flat_map(move |(v, exp)| {
                    let tag = v as u32 + 1;
                    exp.nodes().filter_map(move |en| {
                        let x = en.node.index();
                        (stamp[x].replace(tag) != tag).then_some((x, v))
                    })
                })
        });
        ctx
    }

    /// The expansion bound of gate `v`, which is also the cut-weight
    /// bound the general rule queries at.
    fn bound(&self, v: NodeId) -> u64 {
        match self.rule {
            Rule::Frt => self.frt[v.index()],
            Rule::General { horizon } => horizon,
        }
    }

    /// The expanded circuit of a gate (None when the size cap was hit).
    pub fn expanded(&self, v: NodeId) -> Option<&ExpandedCircuit> {
        self.expanded[v.index()].as_ref()
    }

    /// The LUT input bound `K` the context was built for.
    pub fn k(&self) -> usize {
        self.k
    }

    /// `ℒ^s(v) = max { l^s(u) − Φ·w(e) }` over fanin edges (§3.2).
    fn script_l(&self, ls: &[i64], v: NodeId, phi: i64) -> i64 {
        let mut best = LS_NEG_INF;
        for &e in self.circuit.node(v).fanin() {
            let edge = self.circuit.edge(e);
            let lu = ls[edge.from().index()];
            if lu > LS_NEG_INF {
                best = best.max(lu - phi * edge.weight() as i64);
            }
        }
        best
    }

    /// Runs the label check (FRTcheck, or the general rule) for one target
    /// period (serial, cold-started).
    pub fn check(&self, phi: u64) -> FrtCheck {
        self.check_opts(phi, None, 1)
    }

    /// Runs the label check with explicit reuse controls.
    ///
    /// * `warm` — label pairs of a previously **feasible** check of this
    ///   same context at a strictly larger Φ; their `l^s` seeds this run
    ///   (see the module docs for why that is sound). Pass `None` for a
    ///   cold start.
    /// * `workers` — total compute threads for the per-level cut queries
    ///   (1 = serial). The answer is byte-identical for every value;
    ///   helpers inherit the caller's cancel token and telemetry mirror
    ///   through [`engine::pool::scoped_workers`].
    pub fn check_opts(&self, phi: u64, warm: Option<&LabelPairs>, workers: usize) -> FrtCheck {
        let c = self.circuit;
        let n = c.num_nodes();
        let phi_i = phi as i64;
        let helpers = workers.max(1) - 1;
        let mut init = LabelPairs {
            ls: vec![LS_NEG_INF; n],
            r: vec![0; n],
        };
        for &pi in c.inputs() {
            init.ls[pi.index()] = 0;
        }
        if let Some(seed) = warm {
            debug_assert_eq!(seed.ls.len(), n);
            for v in c.node_ids() {
                if !c.node(v).is_input() {
                    init.ls[v.index()] = seed.ls[v.index()];
                }
            }
        }
        let labels = RwLock::new(init);
        let board: Board<Option<(i64, u64)>> = Board::new();
        let (end, iterations, cache_hits) = engine::pool::scoped_workers(
            helpers,
            |_| {
                let mut scratch = CutScratch::new();
                board.serve(|t| {
                    let guard = labels.read().expect("labels poisoned");
                    self.compute_node(&guard.ls, NodeId(t), phi_i, &mut scratch)
                });
            },
            || {
                let _stop = StopOnDrop(&board);
                self.sweep_loop(phi_i, &labels, &board, helpers)
            },
        );
        let labels = labels.into_inner().expect("labels poisoned");
        if !matches!(end, SweepEnd::Cancelled) {
            // Per-probe reuse metrics (cancelled runs record nothing).
            engine::telemetry::record(engine::hist::Metric::SweepsPerPhi, iterations as u64);
            engine::telemetry::record(engine::hist::Metric::CacheHitsPerProbe, cache_hits);
        }
        let feasible = matches!(end, SweepEnd::Converged)
            && match self.rule {
                // Converged: Corollary 1 must hold at every node.
                Rule::Frt => c.node_ids().all(|v| {
                    let i = v.index();
                    labels.ls[i] <= LS_NEG_INF || labels.ls[i] + phi_i * labels.r[i] as i64 <= phi_i
                }),
                // Pan & Liu: retimable to Φ iff every PO label is ≤ Φ.
                Rule::General { .. } => {
                    c.outputs().iter().all(|&po| labels.ls[po.index()] <= phi_i)
                }
            };
        FrtCheck {
            feasible,
            labels,
            iterations,
        }
    }

    /// The dirty-driven sweep loop: owner side of the two-phase scheme.
    /// Returns the end state, the sweep count, and the number of cut
    /// queries answered from the probe-invariant expansion cache.
    fn sweep_loop(
        &self,
        phi_i: i64,
        labels: &RwLock<LabelPairs>,
        board: &Board<Option<(i64, u64)>>,
        helpers: usize,
    ) -> (SweepEnd, usize, u64) {
        let c = self.circuit;
        let n = c.num_nodes();
        let cap = n.saturating_mul(n).max(4);
        let mut iterations = 0usize;
        let mut cache_hits = 0u64;
        // Dirty-driven sweeps: a node needs re-evaluation only when some
        // fanin label changed since its last update (the practical
        // speed-up behind the paper's "5–15 iterations per Φ").
        let mut dirty = vec![true; n];
        let mut tasks: Vec<u32> = Vec::new();
        let mut scratch = CutScratch::new();
        loop {
            // Sweep-granular cancellation: when the batch runner's deadline
            // (or an external cancel) trips the installed token, bail out
            // as "infeasible" — the driver re-checks the token and maps
            // the early exit to `TurboMapError::Cancelled`, never using
            // the partial labels. (The compute closures additionally
            // short-circuit per task, so a tripped token also drains an
            // in-flight parallel level at full speed.)
            if engine::cancel::cancelled() {
                return (SweepEnd::Cancelled, iterations, cache_hits);
            }
            iterations += 1;
            engine::telemetry::count(engine::telemetry::Counter::FrtSweeps, 1);
            let _l = engine::layer::enter_with(
                engine::Layer::FrtcheckSweep,
                [Some(("n", iterations as u64)), None],
            );
            let mut changed = false;
            for level in self.levels.iter() {
                // Phase 1: collect this level's dirty nodes. The flags
                // clear now; the apply phase below may re-mark them.
                tasks.clear();
                for &vi in level {
                    if dirty[vi as usize] {
                        dirty[vi as usize] = false;
                        tasks.push(vi);
                    }
                }
                if tasks.is_empty() {
                    continue;
                }
                cache_hits += tasks
                    .iter()
                    .filter(|&&vi| self.expanded[vi as usize].is_some())
                    .count() as u64;
                // Phase 2: compute every update against the frozen labels.
                // The batch-size histogram keys off the level size alone,
                // so its shape is identical for every worker count.
                let parallel = tasks.len() >= PAR_THRESHOLD;
                if parallel {
                    engine::telemetry::record(
                        engine::hist::Metric::ParallelBatchSize,
                        tasks.len() as u64,
                    );
                }
                let results: Vec<Option<(i64, u64)>> = if helpers > 0 && parallel {
                    board.run_level(tasks.clone(), helpers, |t| {
                        let guard = labels.read().expect("labels poisoned");
                        self.compute_node(&guard.ls, NodeId(t), phi_i, &mut scratch)
                    })
                } else {
                    let guard = labels.read().expect("labels poisoned");
                    tasks
                        .iter()
                        .map(|&t| self.compute_node(&guard.ls, NodeId(t), phi_i, &mut scratch))
                        .collect()
                };
                // Phase 3: apply in task order (what a serial sweep would
                // have done), re-marking dependents.
                let mut w = labels.write().expect("labels poisoned");
                for (slot, res) in results.into_iter().enumerate() {
                    let (new_ls, new_r) = match res {
                        Some(pair) => pair,
                        None => continue, // no information yet
                    };
                    let i = tasks[slot] as usize;
                    if new_ls > w.ls[i] || (new_ls == w.ls[i] && new_r > w.r[i]) {
                        w.ls[i] = new_ls;
                        w.r[i] = new_r;
                        changed = true;
                        // Direct fanouts see the change through ℒ^s; gates
                        // whose expanded circuits contain the node see it
                        // through their cut heights.
                        let node = c.node(NodeId(i as u32));
                        let fanouts = node.fanout().iter().map(|&e| c.edge(e).to().index());
                        let cones = self.influenced.out(i).iter().map(|&g| g as usize);
                        for t in fanouts.chain(cones) {
                            if !dirty[t] {
                                dirty[t] = true;
                                engine::telemetry::count(
                                    engine::telemetry::Counter::FrtRequeuedGates,
                                    1,
                                );
                            }
                        }
                        // FRT: the lower bound already violates Corollary 1
                        // for every r ≥ 0. General: internal labels may
                        // exceed Φ, a PO's may not.
                        let refuted = match self.rule {
                            Rule::Frt => new_ls > phi_i,
                            Rule::General { .. } => new_ls > phi_i && node.is_output(),
                        };
                        if refuted {
                            return (SweepEnd::Infeasible, iterations, cache_hits);
                        }
                    }
                }
            }
            if !changed {
                return (SweepEnd::Converged, iterations, cache_hits);
            }
            if iterations >= cap {
                return (SweepEnd::Infeasible, iterations, cache_hits);
            }
        }
    }

    /// One node's tightened pair against a frozen snapshot: `ℒ^s` plus
    /// `LabelUpdate` for gates, `ℒ^s` itself for POs, `None` when the
    /// fanins carry no information yet (or cancellation tripped — the
    /// sweep is about to be discarded, so stop burning max-flows).
    fn compute_node(
        &self,
        ls: &[i64],
        v: NodeId,
        phi: i64,
        scratch: &mut CutScratch,
    ) -> Option<(i64, u64)> {
        if engine::cancel::cancelled() {
            return None;
        }
        if self.circuit.node(v).is_output() {
            let script = self.script_l(ls, v, phi);
            if script <= LS_NEG_INF {
                return None;
            }
            return Some((script, 0));
        }
        self.label_update(ls, v, phi, scratch)
    }

    /// `LabelUpdate` (§3.2): the tightened pair for a gate, or `None` when
    /// the fanins carry no information yet.
    ///
    /// FRT asks only what Corollary 1 needs. `(ℒ^s, w)` survives only if
    /// `ℒ^s + Φ·w ≤ Φ`, so nothing survives when `ℒ^s > Φ` (no flow at
    /// all), and otherwise a minimal weight above
    /// `⌊(Φ − ℒ^s)/Φ⌋` would be bumped to `(ℒ^s + 1, 0)` just like a
    /// missing cut: capping the weight search there is exact. Φ = 0
    /// accepts any weight once `ℒ^s ≤ 0`, so it searches up to `frt(v)`.
    fn label_update(
        &self,
        ls: &[i64],
        v: NodeId,
        phi: i64,
        scratch: &mut CutScratch,
    ) -> Option<(i64, u64)> {
        let script = self.script_l(ls, v, phi);
        if script <= LS_NEG_INF {
            return None;
        }
        let bumped = Some((script + 1, 0));
        let exp = match self.expanded(v) {
            Some(exp) => exp,
            None => return bumped, // conservative on cap
        };
        match self.rule {
            Rule::Frt => {
                if script > phi {
                    return bumped;
                }
                let frt_v = self.frt[v.index()];
                let cap = if phi > 0 {
                    frt_v.min(((phi - script) / phi) as u64)
                } else {
                    frt_v
                };
                match min_cut_weight_with(scratch, exp, ls, phi, script, cap, self.k) {
                    Some(w_min) => Some((script, w_min)),
                    None => bumped,
                }
            }
            Rule::General { horizon } => {
                if has_cut_with(scratch, exp, ls, phi, script, horizon, self.k) {
                    Some((script, 0))
                } else {
                    bumped
                }
            }
        }
    }

    /// Extracts, for every gate, the K-cut consistent with the final
    /// labels: height ≤ `l^s(v)`, cone weight ≤ `r(v)`.
    ///
    /// # Panics
    ///
    /// Panics if a cut cannot be re-derived (would contradict
    /// convergence).
    pub fn final_cuts(&self, labels: &LabelPairs, phi: u64) -> Vec<Option<ExpCut>> {
        self.cuts(&labels.ls, &labels.r, phi)
    }

    /// [`FrtContext::final_cuts`] on bare label arrays. The cone-weight
    /// bound is `r(v)` under FRT and the horizon under the general rule
    /// (which leaves `r` unread, so it may be empty).
    pub(crate) fn cuts(&self, ls: &[i64], r: &[u64], phi: u64) -> Vec<Option<ExpCut>> {
        let mut cuts: Vec<Option<ExpCut>> = vec![None; self.circuit.num_nodes()];
        let mut scratch = CutScratch::new();
        for v in self.circuit.gate_ids() {
            let i = v.index();
            if ls[i] <= LS_NEG_INF {
                continue;
            }
            let weight = match self.rule {
                Rule::Frt => r[i],
                Rule::General { horizon } => horizon,
            };
            let exp = self.expanded(v).expect("expanded circuit exists");
            let cut = find_cut_with(&mut scratch, exp, ls, phi as i64, ls[i], weight, self.k)
                .expect("converged labels admit a cut");
            cuts[i] = Some(cut);
        }
        cuts
    }

    /// Re-runs the probe at `phi` serially, recording every label
    /// improvement as a replayable [`WitnessStep`] (see [`crate::witness`]
    /// for the certificate semantics). Intended for the `Φ_min − 1` probe:
    /// on a truly infeasible period the recorded log ends with a step whose
    /// `value` exceeds `phi`, and an independent checker can replay the
    /// arithmetic without trusting the mapper.
    ///
    /// The probe is always serial and cold-started, and applies each
    /// improvement immediately (no per-level snapshot), so a checker
    /// replaying the log in order sees exactly the labels each cut query
    /// ran against. The `l^s` recurrence is self-contained (the `r`
    /// components never feed back into it), so the probe iterates `l^s`
    /// alone; it reaches the same least fixpoint as [`FrtContext::check`]
    /// and therefore the same feasibility verdict.
    pub fn infeasibility_witness(&self, phi: u64) -> WitnessOutcome {
        debug_assert!(matches!(self.rule, Rule::Frt), "witnesses certify FRTcheck");
        if self.frt_capped_gates > 0 {
            // R2/R3 justifications quantify over cuts of the *true*
            // F_v^{frt(v)}; a capped horizon hides cuts, so the log could
            // assert "no cut" where one exists and would not verify.
            return WitnessOutcome::Capped;
        }
        let c = self.circuit;
        let n = c.num_nodes();
        let phi_i = phi as i64;
        let cap = n.saturating_mul(n).max(4);
        let mut ls = vec![LS_NEG_INF; n];
        for &pi in c.inputs() {
            ls[pi.index()] = 0;
        }
        let mut dirty = vec![true; n];
        let mut scratch = CutScratch::new();
        let mut steps: Vec<WitnessStep> = Vec::new();
        let mut sweeps = 0usize;
        loop {
            if engine::cancel::cancelled() {
                return WitnessOutcome::Cancelled;
            }
            sweeps += 1;
            let mut changed = false;
            for level in self.levels.iter() {
                for &vi in level {
                    let i = vi as usize;
                    if !dirty[i] {
                        continue;
                    }
                    dirty[i] = false;
                    let v = NodeId(vi);
                    // ℒ^s with its argmax edge (the R1 justification).
                    let mut script = LS_NEG_INF;
                    let mut arg: Option<(NodeId, u64)> = None;
                    for &e in c.node(v).fanin() {
                        let edge = c.edge(e);
                        let lu = ls[edge.from().index()];
                        if lu > LS_NEG_INF {
                            let cand = lu - phi_i * edge.weight() as i64;
                            if cand > script {
                                script = cand;
                                arg = Some((edge.from(), edge.weight() as u64));
                            }
                        }
                    }
                    if script <= LS_NEG_INF {
                        continue;
                    }
                    let (from, weight) = arg.expect("finite ℒ^s has an argmax edge");
                    let (new_ls, step) = if c.node(v).is_output() {
                        (
                            script,
                            WitnessStep::Fanin {
                                node: v,
                                from,
                                weight,
                                value: script,
                            },
                        )
                    } else {
                        let exp = match self.expanded(v) {
                            Some(exp) => exp,
                            None => return WitnessOutcome::Capped,
                        };
                        // R3 needs the exact w_min, so no Corollary-1 cap.
                        let frt_v = self.frt[v.index()];
                        match min_cut_weight_with(
                            &mut scratch,
                            exp,
                            &ls,
                            phi_i,
                            script,
                            frt_v,
                            self.k,
                        ) {
                            None => (
                                script + 1,
                                WitnessStep::NoCut {
                                    node: v,
                                    height: script,
                                    value: script + 1,
                                },
                            ),
                            Some(w_min) => {
                                if script + phi_i * w_min as i64 <= phi_i {
                                    (
                                        script,
                                        WitnessStep::Fanin {
                                            node: v,
                                            from,
                                            weight,
                                            value: script,
                                        },
                                    )
                                } else {
                                    (
                                        script + 1,
                                        WitnessStep::WeightBump {
                                            node: v,
                                            height: script,
                                            w_min,
                                            value: script + 1,
                                        },
                                    )
                                }
                            }
                        }
                    };
                    if new_ls > ls[i] {
                        ls[i] = new_ls;
                        steps.push(step);
                        changed = true;
                        if new_ls > phi_i {
                            return WitnessOutcome::Infeasible(steps);
                        }
                        for &e in c.node(v).fanout() {
                            dirty[c.edge(e).to().index()] = true;
                        }
                        for &g in self.influenced.out(i) {
                            dirty[g as usize] = true;
                        }
                    }
                }
            }
            if !changed {
                return WitnessOutcome::Feasible;
            }
            if sweeps >= cap {
                return WitnessOutcome::IterationCap;
            }
        }
    }
}

/// Groups the non-PI nodes that pass `keep` by combinational depth
/// (longest zero-weight path from any source), preserving topological
/// order within each level.
pub(crate) fn comb_levels(c: &Circuit, order: &[NodeId], keep: impl Fn(NodeId) -> bool) -> Levels {
    let n = c.num_nodes();
    let mut depth = vec![0u32; n];
    let mut max_depth = 0u32;
    for &v in order {
        let mut d = 0u32;
        for &e in c.node(v).fanin() {
            let edge = c.edge(e);
            if edge.weight() == 0 {
                d = d.max(depth[edge.from().index()] + 1);
            }
        }
        depth[v.index()] = d;
        max_depth = max_depth.max(d);
    }
    // Stable counting sort by depth over the topological scan: each
    // level's slice keeps topological order, packed into one flat arena.
    let num_levels = max_depth as usize + 1;
    let mut off = vec![0u32; num_levels + 1];
    let swept = |v: NodeId| !c.node(v).is_input() && keep(v);
    for &v in order {
        if swept(v) {
            off[depth[v.index()] as usize + 1] += 1;
        }
    }
    for d in 0..num_levels {
        off[d + 1] += off[d];
    }
    let mut nodes = vec![0u32; off[num_levels] as usize];
    let mut cursor = off[..num_levels].to_vec();
    for &v in order {
        if swept(v) {
            let d = depth[v.index()] as usize;
            nodes[cursor[d] as usize] = v.0;
            cursor[d] += 1;
        }
    }
    Levels { off, nodes }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{Bit, TruthTable};

    /// Figure 2(a) of the paper (our reconstruction): a 2-gate chain from
    /// i1 plus a register-carrying side path, K = 3. The paper's point:
    /// Φ = 2 has no *simple* FRT solution but does have a non-simple one.
    fn chainy() -> Circuit {
        let mut c = Circuit::new("t");
        let i1 = c.add_input("i1").unwrap();
        let g1 = c.add_gate("g1", TruthTable::not()).unwrap();
        let g2 = c.add_gate("g2", TruthTable::not()).unwrap();
        let g3 = c.add_gate("g3", TruthTable::not()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![Bit::Zero]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        c
    }

    #[test]
    fn pis_stay_zero() {
        let c = chainy();
        let ctx = FrtContext::new(&c, 2, 32);
        let res = ctx.check(3);
        assert!(res.feasible);
        for &pi in c.inputs() {
            assert_eq!(res.labels.ls[pi.index()], 0);
            assert_eq!(res.labels.r[pi.index()], 0);
        }
    }

    #[test]
    fn single_lut_when_k_large() {
        // Whole chain fits one LUT; with the register pulled forward
        // (r = 1), Φ = 1 becomes feasible... the cut {i1^1} has weight 1:
        // l^s = 0 - Φ·1 + ... cut height = l(i1) - Φ·1 + 1 = -Φ + 1 ≤ 0.
        let c = chainy();
        let ctx = FrtContext::new(&c, 3, 32);
        let res = ctx.check(1);
        assert!(res.feasible, "labels: {:?}", res.labels);
        let g3 = c.find("g3").unwrap();
        assert!(res.labels.ls[g3.index()] + res.labels.r[g3.index()] as i64 <= 1);
    }

    #[test]
    fn k1_collapses_inverter_chain() {
        // With K=1 the whole inverter chain is a single 1-input LUT, so
        // pulling the register forward gives Φ = 1.
        let c = chainy();
        let ctx = FrtContext::new(&c, 1, 32);
        assert!(ctx.check(1).feasible);
    }

    #[test]
    fn wide_chain_needs_period_two() {
        // Each gate mixes the chain with a fresh PI: at K=2 every gate is
        // its own LUT, and the single register can only split the 3-LUT
        // path as 1+2 → Φ=2 optimal, Φ=1 infeasible.
        let mut c = Circuit::new("w");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let i3 = c.add_input("i3").unwrap();
        let i4 = c.add_input("i4").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::or(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![Bit::Zero]).unwrap();
        c.connect(i2, g1, vec![Bit::Zero]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(i3, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(i4, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        let ctx = FrtContext::new(&c, 2, 32);
        assert!(!ctx.check(1).feasible);
        assert!(ctx.check(2).feasible);
    }

    #[test]
    fn iterations_reported_small() {
        let c = chainy();
        let ctx = FrtContext::new(&c, 2, 32);
        let res = ctx.check(2);
        assert!(res.feasible);
        assert!(res.iterations <= 10, "iterations = {}", res.iterations);
    }

    #[test]
    fn labels_monotone_under_phi() {
        // Feasibility is monotone in Φ.
        let c = chainy();
        for k in 1..=3 {
            let ctx = FrtContext::new(&c, k, 32);
            let mut prev = false;
            for phi in 1..=4 {
                let f = ctx.check(phi).feasible;
                assert!(!prev || f, "k={k} phi={phi}");
                prev = f;
            }
        }
    }

    #[test]
    fn final_cuts_respect_labels() {
        let c = chainy();
        let ctx = FrtContext::new(&c, 2, 32);
        let res = ctx.check(2);
        assert!(res.feasible);
        let cuts = ctx.final_cuts(&res.labels, 2);
        for v in c.gate_ids() {
            let cut = cuts[v.index()].as_ref().expect("gate cut");
            assert!(cut.signals.len() <= 2);
            for s in &cut.signals {
                let h = res.labels.ls[s.node.index()] - 2 * s.weight as i64 + 1;
                assert!(h <= res.labels.ls[v.index()]);
            }
        }
    }

    #[test]
    fn cycle_ratio_infeasibility_detected() {
        // 3-gate register loop, one register, and a fresh PI into every
        // loop gate: at K=2 no LUT can absorb two loop gates (3 distinct
        // inputs), so the loop stays 3 LUTs with 1 register → Φ ≥ 3.
        let mut c = Circuit::new("loop");
        let a1 = c.add_input("a1").unwrap();
        let a2 = c.add_input("a2").unwrap();
        let a3 = c.add_input("a3").unwrap();
        let g1 = c.add_gate("g1", TruthTable::xor(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::and(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::or(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a1, g1, vec![]).unwrap();
        c.connect(g3, g1, vec![Bit::Zero]).unwrap();
        c.connect(a2, g2, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(a3, g3, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        let ctx = FrtContext::new(&c, 2, 32);
        assert!(!ctx.check(2).feasible);
        assert!(ctx.check(3).feasible);
    }

    #[test]
    fn levels_partition_non_inputs_topologically() {
        let c = chainy();
        let order = c.comb_topo_order().unwrap();
        let levels = comb_levels(&c, &order, |_| true);
        let total = levels.total();
        let non_inputs = c.node_ids().filter(|&v| !c.node(v).is_input()).count();
        assert_eq!(total, non_inputs);
        // Zero-weight edges must never connect two nodes of one level.
        let mut level_of = vec![usize::MAX; c.num_nodes()];
        for (d, lvl) in levels.iter().enumerate() {
            for &vi in lvl {
                level_of[vi as usize] = d;
            }
        }
        for v in c.node_ids() {
            for &e in c.node(v).fanin() {
                let edge = c.edge(e);
                if edge.weight() == 0 && !c.node(edge.from()).is_input() {
                    assert!(level_of[edge.from().index()] < level_of[v.index()]);
                }
            }
        }
    }

    #[test]
    fn warm_start_reaches_the_same_fixpoint() {
        let c = chainy();
        for k in 1..=3 {
            let ctx = FrtContext::new(&c, k, 32);
            for upper in 2..=4u64 {
                let seed = ctx.check(upper);
                if !seed.feasible {
                    continue;
                }
                for phi in 1..upper {
                    let cold = ctx.check(phi);
                    let warm = ctx.check_opts(phi, Some(&seed.labels), 1);
                    assert_eq!(cold.feasible, warm.feasible, "k={k} phi={phi}");
                    if cold.feasible {
                        assert_eq!(cold.labels.ls, warm.labels.ls, "k={k} phi={phi}");
                        assert_eq!(cold.labels.r, warm.labels.r, "k={k} phi={phi}");
                    }
                    assert!(
                        warm.iterations <= cold.iterations,
                        "warm start must not add sweeps (k={k} phi={phi})"
                    );
                }
            }
        }
    }

    #[test]
    fn parallel_check_matches_serial_exactly() {
        let c = chainy();
        for k in 1..=3 {
            let ctx = FrtContext::new(&c, k, 32);
            for phi in 1..=4u64 {
                let serial = ctx.check_opts(phi, None, 1);
                for workers in [2usize, 4] {
                    let par = ctx.check_opts(phi, None, workers);
                    assert_eq!(serial.feasible, par.feasible, "k={k} phi={phi}");
                    assert_eq!(serial.iterations, par.iterations, "k={k} phi={phi}");
                    assert_eq!(serial.labels.ls, par.labels.ls, "k={k} phi={phi}");
                    assert_eq!(serial.labels.r, par.labels.r, "k={k} phi={phi}");
                }
            }
        }
    }

    /// Replays a witness log the way the independent checker does (same
    /// label array, rules accepted at face value) — here we only assert
    /// the structural invariants the checker relies on: steps in replay
    /// order never cite labels that have not been derived yet, and the
    /// terminal value exceeds the probed period.
    fn assert_witness_shape(c: &Circuit, phi: u64, steps: &[WitnessStep]) {
        let phi_i = phi as i64;
        let mut cur = vec![LS_NEG_INF; c.num_nodes()];
        for &pi in c.inputs() {
            cur[pi.index()] = 0;
        }
        for step in steps {
            if let WitnessStep::Fanin {
                node,
                from,
                weight,
                value,
            } = step
            {
                assert!(cur[from.index()] > LS_NEG_INF, "R1 cites underived label");
                assert_eq!(*value, cur[from.index()] - phi_i * *weight as i64);
                assert!(c.node(*node).fanin().iter().any(|&e| {
                    let edge = c.edge(e);
                    edge.from() == *from && edge.weight() as u64 == *weight
                }));
            }
            let v = step.node().index();
            assert!(step.value() > cur[v], "step does not improve its node");
            cur[v] = step.value();
        }
        let last = steps.last().expect("non-empty witness");
        assert!(last.value() > phi_i, "terminal value must exceed Φ");
    }

    /// Asserts that the witness probe (exact `w_min`, serial `l^s`-only
    /// replay) and `check` (Corollary-1-capped weight search, level
    /// sweeps) agree on feasibility at every `phi` in `phis`; returns how
    /// many periods were infeasible.
    fn assert_witness_agrees(c: &Circuit, k: usize, phis: std::ops::RangeInclusive<u64>) -> usize {
        let ctx = FrtContext::new(c, k, 32);
        let mut infeasible = 0;
        for phi in phis {
            let check = ctx.check(phi);
            match ctx.infeasibility_witness(phi) {
                WitnessOutcome::Infeasible(steps) => {
                    assert!(!check.feasible, "{} k={k} phi={phi}", c.name());
                    assert_witness_shape(c, phi, &steps);
                    infeasible += 1;
                }
                WitnessOutcome::Feasible => {
                    assert!(check.feasible, "{} k={k} phi={phi}", c.name());
                    assert_uncapped_fixpoint(&ctx, &check.labels, phi);
                }
                other => panic!(
                    "unexpected outcome {other:?} ({} k={k} phi={phi})",
                    c.name()
                ),
            }
        }
        infeasible
    }

    /// Converged labels are a fixpoint of Figure 5's update *without* the
    /// Corollary-1 cap: the full `[0, frt(v)]` weight search, then the
    /// Corollary-1 bump.
    fn assert_uncapped_fixpoint(ctx: &FrtContext, labels: &LabelPairs, phi: u64) {
        let phi_i = phi as i64;
        let mut scratch = CutScratch::new();
        for v in ctx.circuit.gate_ids() {
            let script = ctx.script_l(&labels.ls, v, phi_i);
            if script <= LS_NEG_INF {
                continue;
            }
            let exp = ctx.expanded(v).expect("uncapped expansion");
            let frt_v = ctx.frt[v.index()];
            let want = match min_cut_weight_with(
                &mut scratch,
                exp,
                &labels.ls,
                phi_i,
                script,
                frt_v,
                ctx.k,
            ) {
                Some(w) if script + phi_i * w as i64 <= phi_i => (script, w),
                _ => (script + 1, 0),
            };
            let got = (labels.ls[v.index()], labels.r[v.index()]);
            assert_eq!(got, want, "{v:?} at phi={phi}");
        }
    }

    #[test]
    fn witness_probe_matches_check_verdicts() {
        let c = chainy();
        for k in 1..=3 {
            assert_witness_agrees(&c, k, 1..=4);
        }
        // Generated FSMs, every period up to the FlowMap-frt bound: the
        // witness needs the exact w_min while `check` caps the weight
        // search by Corollary 1, so agreeing verdicts cross-check the cap.
        let mut infeasible = 0;
        for seed in 0..4u64 {
            let fsm = workloads::generate_fsm(&workloads::FsmSpec {
                name: format!("wit{seed}"),
                states: 3 + 2 * seed as usize,
                inputs: 1 + seed as usize % 3,
                decoded: 2,
                outputs: 1 + seed as usize % 2,
                encoding: if seed % 2 == 0 {
                    workloads::Encoding::OneHot
                } else {
                    workloads::Encoding::Binary
                },
                registered_inputs: seed % 2 == 1,
                seed,
            });
            for k in 3..=5 {
                let prep = crate::prepare(&fsm, k).unwrap();
                let upper = flowmap::flowmap_frt(&prep, k).unwrap().period;
                infeasible += assert_witness_agrees(&prep, k, 1..=upper);
            }
        }
        assert!(infeasible > 0, "no infeasible period exercised the cap");
    }

    #[test]
    fn witness_for_cycle_ratio_infeasibility() {
        // Same register-loop circuit as `cycle_ratio_infeasibility_detected`:
        // Φ = 2 infeasible at K = 2.
        let mut c = Circuit::new("loop");
        let a1 = c.add_input("a1").unwrap();
        let a2 = c.add_input("a2").unwrap();
        let a3 = c.add_input("a3").unwrap();
        let g1 = c.add_gate("g1", TruthTable::xor(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::and(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::or(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a1, g1, vec![]).unwrap();
        c.connect(g3, g1, vec![Bit::Zero]).unwrap();
        c.connect(a2, g2, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(a3, g3, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        let ctx = FrtContext::new(&c, 2, 32);
        match ctx.infeasibility_witness(2) {
            WitnessOutcome::Infeasible(steps) => assert_witness_shape(&c, 2, &steps),
            other => panic!("expected a witness, got {other:?}"),
        }
        assert_eq!(ctx.infeasibility_witness(3), WitnessOutcome::Feasible);
    }

    #[test]
    fn witness_probe_handles_phi_zero() {
        // Φ = 0 (the probe below Φ_min = 1): any gate fed by a PI refutes
        // it, giving the shortest possible derivation.
        let c = chainy();
        let ctx = FrtContext::new(&c, 3, 32);
        match ctx.infeasibility_witness(0) {
            WitnessOutcome::Infeasible(steps) => assert_witness_shape(&c, 0, &steps),
            other => panic!("expected a witness, got {other:?}"),
        }
    }

    #[test]
    fn witness_unavailable_when_frt_capped() {
        let mut c = Circuit::new("deep");
        let i = c.add_input("i").unwrap();
        let mut prev = i;
        for d in 0..6u64 {
            let g = c.add_gate(format!("g{d}"), TruthTable::not()).unwrap();
            c.connect(prev, g, vec![Bit::Zero]).unwrap();
            prev = g;
        }
        let o = c.add_output("o").unwrap();
        c.connect(prev, o, vec![]).unwrap();
        let ctx = FrtContext::new(&c, 2, 3);
        assert!(ctx.frt_capped_gates > 0);
        assert_eq!(ctx.infeasibility_witness(1), WitnessOutcome::Capped);
    }

    #[test]
    fn frt_cap_truncation_is_counted() {
        // A register chain deeper than the cap: every gate past the cap
        // has frt(v) above it.
        let mut c = Circuit::new("deep");
        let i = c.add_input("i").unwrap();
        let mut prev = i;
        let depth = 6u64;
        for d in 0..depth {
            let g = c.add_gate(format!("g{d}"), TruthTable::not()).unwrap();
            c.connect(prev, g, vec![Bit::Zero]).unwrap();
            prev = g;
        }
        let o = c.add_output("o").unwrap();
        c.connect(prev, o, vec![]).unwrap();
        // Cap below the chain depth: gates at register depth cap+1.. are
        // truncated. frt(g_d) = d+1 registers from the PI.
        let cap = 3u64;
        let ctx = FrtContext::new(&c, 2, cap);
        assert_eq!(ctx.frt_capped_gates, depth - cap);
        for d in 0..depth {
            let g = c.find(&format!("g{d}")).unwrap();
            assert!(ctx.frt[g.index()] <= cap);
        }
        // An ample cap reports nothing.
        let ctx2 = FrtContext::new(&c, 2, 64);
        assert_eq!(ctx2.frt_capped_gates, 0);
    }

    #[test]
    fn expansion_cap_is_counted_and_reported() {
        let c = chainy();
        engine::telemetry::reset();
        let full = FrtContext::new(&c, 3, 32);
        assert_eq!(
            engine::telemetry::take().counter(engine::telemetry::Counter::ExpandCapped),
            0
        );
        let gates = c.gate_ids().filter(|&v| full.expanded(v).is_some()).count() as u64;
        assert!(gates > 0);
        let sink = engine::log::MemorySink::new();
        engine::log::set_sink(Box::new(sink.clone()));
        // A one-node cap leaves no gate's expanded circuit standing.
        let capped = FrtContext::new_capped(&c, 3, 32, 1);
        engine::log::set_sink(Box::new(std::io::stderr()));
        assert!(c.gate_ids().all(|v| capped.expanded(v).is_none()));
        let t = engine::telemetry::take();
        assert_eq!(t.counter(engine::telemetry::Counter::ExpandCapped), gates);
        let logged = sink.contents();
        let warning = logged
            .lines()
            .find(|l| l.contains("expanded circuits hit the size cap"))
            .unwrap_or_else(|| panic!("no cap warning in {logged:?}"));
        assert!(warning.contains("\"level\":\"warn\""), "{warning}");
        assert!(warning.contains(&format!("\"gates\":{gates}")), "{warning}");
        assert!(warning.contains("\"max_nodes\":1"), "{warning}");
    }
}
