//! Label computation for TurboMap with **general** retiming (the ICCD'96
//! baseline the paper compares against).
//!
//! With unrestricted retiming the l-values are single labels: Pan & Liu's
//! condition says a mapping solution can be retimed to period ≤ `Φ` iff
//! `l(po) ≤ Φ` at every primary output. Internal labels may exceed `Φ`
//! (registers can be borrowed backward from downstream). The update rule
//! matches FRTcheck's but without the `(L^s, R)` pair logic, and LUT
//! cones may absorb registers up to the configured weight horizon instead
//! of `frt(v)` — nothing guarantees forward-only register motion, which is
//! exactly why this baseline's initial states need NP-hard justification.
//!
//! [`GeneralContext`] is the public face of that check. The iteration
//! itself is [`FrtContext`]'s, run under its general rule: the same
//! demand-grown balls, level-synchronized sweeps and final-cut extraction
//! (the module docs of [`crate::frtcheck`] list the five differences).

use crate::cutsearch::ExpCut;
use crate::frtcheck::FrtContext;
use netlist::Circuit;

/// Outcome of one general-label check.
#[derive(Debug, Clone)]
pub struct GeneralCheck {
    /// True when some mapping + general retiming meets the period.
    pub feasible: bool,
    /// Final labels (indexed by node id).
    pub labels: Vec<i64>,
    /// Sweeps executed.
    pub iterations: usize,
}

/// Precomputed state for general-retiming label runs.
pub struct GeneralContext<'a>(FrtContext<'a>);

impl<'a> GeneralContext<'a> {
    /// Prepares the label check of every gate that reaches a PO, whose
    /// cut queries grow `F_v` to the weight horizon (dead logic is
    /// skipped; see DESIGN.md).
    ///
    /// # Panics
    ///
    /// Panics on combinational cycles.
    pub fn new(circuit: &'a Circuit, k: usize, horizon: u64) -> GeneralContext<'a> {
        GeneralContext(FrtContext::general(circuit, k, horizon))
    }

    /// Runs the label iteration for one target period (serial,
    /// cold-started).
    pub fn check(&self, phi: u64) -> GeneralCheck {
        let res = self.0.check(phi);
        GeneralCheck {
            feasible: res.feasible,
            labels: res.labels.ls,
            iterations: res.iterations,
        }
    }

    /// Extracts a cut consistent with the final labels for every live
    /// gate.
    ///
    /// # Panics
    ///
    /// Panics if a converged label admits no cut (contradiction).
    pub fn final_cuts(&self, labels: &[i64], phi: u64) -> Vec<Option<ExpCut>> {
        self.0.cuts(labels, &[], phi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{Bit, TruthTable};

    /// FF *behind* a 3-gate chain: forward retiming can't improve the
    /// period, general retiming can.
    fn back_ff_chain() -> Circuit {
        let mut c = Circuit::new("t");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let i3 = c.add_input("i3").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::or(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::xor(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![]).unwrap();
        c.connect(i2, g1, vec![]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(i3, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(i1, g3, vec![]).unwrap();
        c.connect(g3, o, vec![Bit::One]).unwrap();
        c
    }

    #[test]
    fn general_beats_forward_with_back_register() {
        let c = back_ff_chain();
        let gctx = GeneralContext::new(&c, 2, 16);
        let fctx = crate::frtcheck::FrtContext::new(&c, 2, 16);
        // K=2: three LUT levels; the register behind g3 can move backward
        // only under general retiming: Φ=2 feasible generally, not
        // forward-only.
        assert!(gctx.check(2).feasible);
        assert!(!fctx.check(2).feasible);
        assert!(fctx.check(3).feasible);
    }

    #[test]
    fn po_labels_bound_feasibility() {
        let c = back_ff_chain();
        let ctx = GeneralContext::new(&c, 2, 16);
        let res = ctx.check(3);
        assert!(res.feasible);
        for &po in c.outputs() {
            assert!(res.labels[po.index()] <= 3);
        }
    }

    #[test]
    fn infeasible_when_no_registers() {
        // Pure combinational 3-level K=2 structure: Φ < 3 impossible.
        let mut c = back_ff_chain();
        // Remove the register by rebuilding: easier to zero the chain.
        let o = c.find("o").unwrap();
        let e = c.node(o).fanin()[0];
        c.ffs_mut(e).clear();
        let ctx = GeneralContext::new(&c, 2, 16);
        assert!(!ctx.check(2).feasible);
        assert!(ctx.check(3).feasible);
    }

    #[test]
    fn dead_logic_is_ignored() {
        let mut c = back_ff_chain();
        // Dead register cycle with ratio 5 (five gates, one register):
        // would force Φ ≥ 5 if counted, but it feeds no PO.
        let i1 = c.find("i1").unwrap();
        let dmix = c.add_gate("dmix", TruthTable::and(2)).unwrap();
        let mut prev = dmix;
        for i in 0..4 {
            let d = c.add_gate(format!("d{i}"), TruthTable::not()).unwrap();
            c.connect(prev, d, vec![]).unwrap();
            prev = d;
        }
        c.connect(i1, dmix, vec![]).unwrap();
        c.connect(prev, dmix, vec![Bit::Zero]).unwrap();
        let ctx = GeneralContext::new(&c, 2, 16);
        assert!(ctx.check(3).feasible);
        assert!(!netlist::po_reachable(&c)[dmix.index()]);
        // Never swept, so never queried: its label stays at −∞.
        let res = ctx.check(3);
        assert_eq!(res.labels[dmix.index()], crate::frtcheck::LS_NEG_INF);
    }

    #[test]
    fn iterations_stay_small() {
        let c = back_ff_chain();
        let ctx = GeneralContext::new(&c, 2, 16);
        let res = ctx.check(3);
        assert!(res.iterations <= 10);
    }
}
