//! The TurboMap-frt algorithm (Section 3) and the TurboMap general-
//! retiming baseline (Cong & Wu, ICCD'96), end to end.
//!
//! Both drivers run one search: binary search over the clock period
//! `Φ ∈ [1, Φ_upper]` — the upper bound coming from a quick FlowMap-frt
//! run (footnote 4 of the paper) — with their label rule as the
//! feasibility oracle, then mapping generation at `Φ_min`.

use crate::frtcheck::{FrtContext, LabelPairs};
use crate::generate::{generate_mapping, GenerateError};
use engine::layer::{self, Layer};
use netlist::Circuit;
use retiming::MoveStats;

/// Configuration shared by the TurboMap drivers.
#[derive(Debug, Clone, Copy)]
pub struct Options {
    /// LUT input bound K.
    pub k: usize,
    /// Cap on `frt(v)` — the expansion bound of TurboMap-frt (Theorem 2
    /// needs `F_v^{frt(v)}`; the cap only matters on register-heavy
    /// inputs; see DESIGN.md).
    pub weight_horizon: u64,
    /// Per-LUT register-crossing horizon for the **general** TurboMap
    /// baseline. Theory allows `K·n` (which admits loop-unrolled LUTs),
    /// but the ICCD'96 implementation's partial flow networks explore
    /// small windows in practice; 1 reproduces its reported behaviour
    /// (see DESIGN.md).
    pub general_horizon: u64,
    /// Intra-job parallelism of the label sweeps (TurboMap-frt and
    /// TurboMap alike): total compute threads per Φ probe. `1` (the
    /// default) runs serially; `0` resolves to the machine's available
    /// parallelism. Every setting produces byte-identical results — the
    /// sweeps are level-synchronized and apply updates in a fixed order
    /// (see DESIGN.md).
    pub sweep_workers: usize,
    /// Seed each Φ probe's labels from the best feasible probe so far, in
    /// both drivers (sound: under either rule the labels are pointwise
    /// non-decreasing as Φ shrinks, so they remain lower bounds). Skipped
    /// sweeps show up in the `sweeps_saved` counter. On by default; the
    /// switch exists as a kill switch and for A/B measurement.
    pub warm_start: bool,
}

impl Options {
    /// Default options for a given K.
    pub fn with_k(k: usize) -> Options {
        Options {
            k,
            weight_horizon: 32,
            general_horizon: 1,
            sweep_workers: 1,
            warm_start: true,
        }
    }

    /// The effective sweep worker count: `0` means auto-detect.
    pub fn resolved_sweep_workers(&self) -> usize {
        match self.sweep_workers {
            0 => std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
            w => w,
        }
    }
}

impl Default for Options {
    fn default() -> Options {
        Options::with_k(5)
    }
}

/// Result of a TurboMap-frt or TurboMap run.
#[derive(Debug, Clone)]
pub struct TurboMapResult {
    /// The mapped, retimed LUT network with initial state.
    pub circuit: Circuit,
    /// The minimum clock period found.
    pub period: u64,
    /// Number of K-LUTs.
    pub luts: usize,
    /// FF count (register sharing).
    pub ffs: usize,
    /// Label-computation sweeps per probed period (Φ, sweeps).
    pub iterations: Vec<(u64, usize)>,
    /// Unit-move statistics of the final retiming.
    pub moves: MoveStats,
    /// True when initial state computation failed and values were erased
    /// to `X` (never set by TurboMap-frt; the paper's `⋆` for TurboMap).
    pub initial_state_lost: bool,
    /// True when the computed initial values are *not* consistent under
    /// register sharing: the FF count assumes shared chains, but the
    /// justified values of duplicated registers disagree, so the shared
    /// implementation has no equivalent initial state. Together with
    /// `initial_state_lost` this is the reproduction's analogue of the
    /// paper's `⋆` outcomes.
    pub sharing_conflict: bool,
}

impl TurboMapResult {
    /// The paper's `⋆`: no usable equivalent initial state was computed
    /// for the (register-shared) mapping.
    pub fn star(&self) -> bool {
        self.initial_state_lost || self.sharing_conflict
    }
}

/// Errors from the TurboMap drivers.
#[derive(Debug)]
pub enum TurboMapError {
    /// The input circuit failed validation.
    Invalid(netlist::NetlistError),
    /// Even the upper-bound period was infeasible (internal error).
    NoFeasiblePeriod,
    /// Mapping generation failed.
    Generate(GenerateError),
    /// Baseline FlowMap-frt run failed.
    Baseline(flowmap::FlowMapError),
    /// The run was cancelled through the thread's installed
    /// [`engine::cancel`] token (batch deadline or external cancel).
    Cancelled,
}

impl std::fmt::Display for TurboMapError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TurboMapError::Invalid(e) => write!(f, "invalid circuit: {e}"),
            TurboMapError::NoFeasiblePeriod => write!(f, "no feasible clock period found"),
            TurboMapError::Generate(e) => write!(f, "generation: {e}"),
            TurboMapError::Baseline(e) => write!(f, "baseline: {e}"),
            TurboMapError::Cancelled => write!(f, "cancelled"),
        }
    }
}

impl std::error::Error for TurboMapError {}

impl From<GenerateError> for TurboMapError {
    fn from(e: GenerateError) -> Self {
        TurboMapError::Generate(e)
    }
}

fn ceil_div(a: i64, b: i64) -> i64 {
    a.div_euclid(b) + if a.rem_euclid(b) != 0 { 1 } else { 0 }
}

/// TurboMap-frt's core guarantee is that it only ever moves registers
/// **forward** (that is what makes initial states computable in linear
/// time); pin that invariant on both the move stats and the thread's
/// telemetry counter in debug builds.
#[cfg(debug_assertions)]
fn debug_assert_no_backward_moves(counter_before: u64, moves: &MoveStats) {
    assert_eq!(
        moves.backward_moves, 0,
        "turbomap_frt applied backward register moves"
    );
    let now = engine::telemetry::snapshot().counter(engine::telemetry::Counter::BackwardMoves);
    assert_eq!(
        now, counter_before,
        "turbomap_frt incremented the backward_moves counter"
    );
}

/// Errors out when the thread's installed cancellation token tripped
/// (the oracles bail out early in that state, so their answers must be
/// discarded rather than interpreted as infeasibility).
fn check_cancelled() -> Result<(), TurboMapError> {
    if engine::cancel::cancelled() {
        Err(TurboMapError::Cancelled)
    } else {
        Ok(())
    }
}

/// One debug log line per Φ probe of the binary search; a disabled
/// filter costs one atomic load.
fn log_probe(target: &str, phi: u64, feasible: bool, sweeps: usize) {
    engine::log::debug(
        target,
        "phi probe",
        &[
            ("phi", engine::JsonValue::UInt(phi)),
            ("feasible", engine::JsonValue::Bool(feasible)),
            ("sweeps", engine::JsonValue::UInt(sweeps as u64)),
        ],
    );
}

/// Prepares a circuit for mapping: validate and K-bound it.
///
/// # Errors
///
/// Returns the validation error if the circuit is malformed.
pub fn prepare(c: &Circuit, k: usize) -> Result<Circuit, TurboMapError> {
    netlist::validate(c).map_err(TurboMapError::Invalid)?;
    let live = netlist::prune_dead(c).map_err(TurboMapError::Invalid)?;
    let bounded = if live.max_fanin() > k {
        netlist::decompose_to_k(&live, 2).map_err(TurboMapError::Invalid)?
    } else {
        live
    };
    Ok(bounded)
}

/// TurboMap-frt (the paper's algorithm): optimal K-LUT mapping with
/// forward retiming, minimum clock period, guaranteed initial state.
///
/// # Errors
///
/// See [`TurboMapError`]; initial state computation cannot fail here.
pub fn turbomap_frt(c: &Circuit, opts: Options) -> Result<TurboMapResult, TurboMapError> {
    search_and_generate(c, opts, false)
}

/// TurboMap (general retiming baseline): optimal mapping with
/// unrestricted retiming; initial states need backward justification and
/// may be lost (`initial_state_lost` — the paper's `⋆`).
///
/// # Errors
///
/// See [`TurboMapError`].
pub fn turbomap_general(c: &Circuit, opts: Options) -> Result<TurboMapResult, TurboMapError> {
    search_and_generate(c, opts, true)
}

/// Both drivers: the Φ binary search under the FRT or the general label
/// rule, then generation at `Φ_min` (or the FlowMap-frt network when it
/// ties).
fn search_and_generate(
    c: &Circuit,
    opts: Options,
    general: bool,
) -> Result<TurboMapResult, TurboMapError> {
    #[cfg(debug_assertions)]
    let backward_before =
        engine::telemetry::snapshot().counter(engine::telemetry::Counter::BackwardMoves);
    let (target, name) = if general {
        ("turbomap::general", format!("{}_tm", c.name()))
    } else {
        ("turbomap::frt", format!("{}_tmfrt", c.name()))
    };
    let bounded = prepare(c, opts.k)?;
    // Upper bound: FlowMap-frt (cheap, feasible by construction).
    let baseline = flowmap::flowmap_frt(&bounded, opts.k).map_err(TurboMapError::Baseline)?;
    let upper = baseline.period.max(1);
    let ctx = {
        let _l = layer::enter(Layer::Search);
        if general {
            FrtContext::general(&bounded, opts.k, opts.general_horizon)
        } else {
            FrtContext::new(&bounded, opts.k, opts.weight_horizon)
        }
    };
    let workers = opts.resolved_sweep_workers();
    let mut iterations = Vec::new();
    let mut lo = 1u64;
    let mut hi = upper;
    let mut probe = |phi: u64, warm: Option<&LabelPairs>| {
        let res = {
            let _l = layer::enter_with(Layer::Label, [Some(("phi", phi)), None]);
            ctx.check_opts(phi, warm, workers)
        };
        check_cancelled()?;
        log_probe(target, phi, res.feasible, res.iterations);
        iterations.push((phi, res.iterations));
        Ok::<_, TurboMapError>(res)
    };
    // Confirm the upper bound under the label check itself (it must be
    // feasible; keep its labels as fallback).
    let top = probe(upper, None)?;
    if !top.feasible {
        return Err(TurboMapError::NoFeasiblePeriod);
    }
    // Best feasible probe so far: its period, labels (the mapping seed
    // and the warm-start donor) and sweep count (the warm-start savings
    // baseline).
    let mut best = (upper, top.labels, top.iterations);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        // Every remaining probe sits strictly below the best feasible Φ
        // (the search keeps `hi` at it), so its labels are a sound warm
        // seed for `mid`.
        let res = probe(mid, opts.warm_start.then_some(&best.1))?;
        if opts.warm_start {
            // Estimate: a cold probe re-derives at least what the seeding
            // probe needed; count the sweeps the warm seed let this probe
            // skip relative to that.
            engine::telemetry::count(
                engine::telemetry::Counter::SweepsSaved,
                best.2.saturating_sub(res.iterations) as u64,
            );
        }
        if res.feasible {
            best = (mid, res.labels, res.iterations);
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let (phi, labels, _) = best;
    debug_assert_eq!(phi, lo.min(upper));

    // At equal Φ the FlowMap-frt network is itself an optimal FRT mapping
    // solution with initial state by construction, and block-wise
    // generation wastes no area on duplication — take it (the paper's
    // near-identical LUT counts at equal Φ suggest the authors'
    // generation behaves the same way; a general-retiming run cannot
    // improve on it either).
    if phi == baseline.period {
        let mut circuit = baseline.circuit;
        circuit.set_name(name);
        #[cfg(debug_assertions)]
        debug_assert_no_backward_moves(backward_before, &baseline.moves);
        return Ok(TurboMapResult {
            period: phi,
            luts: circuit.num_gates(),
            ffs: circuit.ff_count_shared(),
            iterations,
            moves: baseline.moves,
            initial_state_lost: false,
            sharing_conflict: !circuit.sharing_consistent(),
            circuit,
        });
    }
    let _l = layer::enter(Layer::Generate);
    // Only the roots the FIFO instantiates get a cut.
    let roots =
        crate::generate::collect_roots_with(&bounded, ctx.cut_source(&labels.ls, &labels.r, phi))?;
    // The balls have served their last query: free them before the
    // network is built, so the two never peak together.
    drop(ctx);
    let rr: std::collections::HashMap<netlist::NodeId, i64> = roots
        .keys()
        .map(|&v| (v, ceil_div(labels.ls[v.index()], phi as i64) - 1))
        .collect();
    let gen = generate_mapping(&bounded, &roots, &rr, &name, general)?;
    if !general {
        debug_assert!(!gen.initial_state_lost);
        #[cfg(debug_assertions)]
        debug_assert_no_backward_moves(backward_before, &gen.moves);
    }
    let achieved = gen.circuit.clock_period().map_err(TurboMapError::Invalid)?;
    debug_assert!(achieved <= phi, "generated period {achieved} > Φ {phi}");
    let sharing_conflict = !gen.circuit.sharing_consistent();
    Ok(TurboMapResult {
        period: achieved.min(phi),
        luts: gen.circuit.num_gates(),
        ffs: gen.circuit.ff_count_shared(),
        iterations,
        moves: gen.moves,
        initial_state_lost: gen.initial_state_lost,
        sharing_conflict,
        circuit: gen.circuit,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use netlist::{exhaustive_equiv, Bit, TruthTable};

    fn pipeline_with_front_ff() -> Circuit {
        let mut c = Circuit::new("p");
        let i1 = c.add_input("i1").unwrap();
        let i2 = c.add_input("i2").unwrap();
        let g1 = c.add_gate("g1", TruthTable::and(2)).unwrap();
        let g2 = c.add_gate("g2", TruthTable::xor(2)).unwrap();
        let g3 = c.add_gate("g3", TruthTable::or(2)).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(i1, g1, vec![Bit::One]).unwrap();
        c.connect(i2, g1, vec![Bit::Zero]).unwrap();
        c.connect(g1, g2, vec![]).unwrap();
        c.connect(i2, g2, vec![]).unwrap();
        c.connect(g2, g3, vec![]).unwrap();
        c.connect(i1, g3, vec![]).unwrap();
        c.connect(g3, o, vec![]).unwrap();
        c
    }

    #[test]
    fn frt_result_is_equivalent_and_fast() {
        let c = pipeline_with_front_ff();
        let res = turbomap_frt(&c, Options::with_k(2)).unwrap();
        assert!(!res.initial_state_lost);
        assert!(res.period <= c.clock_period().unwrap());
        assert!(exhaustive_equiv(&c, &res.circuit, 6)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn frt_single_lut_at_k5() {
        let c = pipeline_with_front_ff();
        let res = turbomap_frt(&c, Options::with_k(5)).unwrap();
        // Only 2 PIs: with K=5 and registers pullable, one LUT + retiming
        // reaches Φ = 1.
        assert_eq!(res.period, 1);
        assert!(exhaustive_equiv(&c, &res.circuit, 6)
            .unwrap()
            .is_equivalent());
    }

    #[test]
    fn general_no_worse_than_frt() {
        let c = pipeline_with_front_ff();
        for k in 2..=5 {
            let frt = turbomap_frt(&c, Options::with_k(k)).unwrap();
            let gen = turbomap_general(&c, Options::with_k(k)).unwrap();
            assert!(gen.period <= frt.period, "k={k}");
        }
    }

    #[test]
    fn frt_no_worse_than_flowmap_frt() {
        let c = pipeline_with_front_ff();
        for k in 2..=5 {
            let base = flowmap::flowmap_frt(&c, k).unwrap();
            let frt = turbomap_frt(&c, Options::with_k(k)).unwrap();
            assert!(frt.period <= base.period, "k={k}");
        }
    }

    #[test]
    fn general_equivalent_when_state_kept() {
        let c = pipeline_with_front_ff();
        let res = turbomap_general(&c, Options::with_k(3)).unwrap();
        if !res.initial_state_lost {
            assert!(exhaustive_equiv(&c, &res.circuit, 6)
                .unwrap()
                .is_equivalent());
        }
    }

    #[test]
    fn wide_gates_are_decomposed() {
        let mut c = Circuit::new("wide");
        let ins: Vec<_> = (0..7)
            .map(|i| c.add_input(format!("i{i}")).unwrap())
            .collect();
        let g = c.add_gate("g", TruthTable::and(7)).unwrap();
        let o = c.add_output("o").unwrap();
        for &i in &ins {
            c.connect(i, g, vec![Bit::One]).unwrap();
        }
        c.connect(g, o, vec![]).unwrap();
        let res = turbomap_frt(&c, Options::with_k(4)).unwrap();
        assert!(res.circuit.max_fanin() <= 4);
        assert!(exhaustive_equiv(&c, &res.circuit, 2)
            .unwrap()
            .is_equivalent());
    }

    fn medium_fsm() -> Circuit {
        workloads::generate_fsm(&workloads::FsmSpec {
            name: "det".into(),
            states: 9,
            inputs: 4,
            decoded: 2,
            outputs: 2,
            encoding: workloads::Encoding::Binary,
            registered_inputs: true,
            seed: 11,
        })
    }

    type Driver = fn(&Circuit, Options) -> Result<TurboMapResult, TurboMapError>;

    /// Both drivers, by name.
    const DRIVERS: [(&str, Driver); 2] = [
        ("turbomap_frt", turbomap_frt),
        ("turbomap_general", turbomap_general),
    ];

    /// The correctness bar of the shared search: whatever the
    /// sweep-worker count and whether probes are warm-started, both
    /// drivers must produce the byte-identical mapped circuit — same Φ,
    /// LUTs, FFs, initial states, names. Only the per-probe sweep counts
    /// may differ (warm starts exist to shrink them).
    /// The bar holds as well when every ball is evicted at every level
    /// (the baseline keeps the real budget).
    #[test]
    fn results_identical_across_workers_and_warm_start() {
        use crate::frtcheck::test_budget;
        let c = medium_fsm();
        for (name, driver) in DRIVERS {
            let mut opts = Options::with_k(4);
            let baseline = driver(&c, opts).unwrap();
            let reference = netlist::write_blif(&baseline.circuit);
            for budget in [None, Some(0)] {
                for (workers, warm) in [(1, false), (3, true), (3, false), (0, true)] {
                    opts.sweep_workers = workers;
                    opts.warm_start = warm;
                    let res = match budget {
                        None => driver(&c, opts),
                        Some(b) => test_budget::with(b, || driver(&c, opts)),
                    }
                    .unwrap();
                    let tag = format!("{name} workers={workers} warm={warm} budget={budget:?}");
                    assert_eq!(res.period, baseline.period, "{tag}");
                    assert_eq!(res.luts, baseline.luts, "{tag}");
                    assert_eq!(res.ffs, baseline.ffs, "{tag}");
                    assert_eq!(res.star(), baseline.star(), "{tag}");
                    assert_eq!(netlist::write_blif(&res.circuit), reference, "{tag}");
                }
            }
        }
    }

    /// Evicting every ball at every level, or never evicting, gives the
    /// same Φ, per-probe sweeps and byte-identical mapped BLIF under both
    /// drivers, on FSMs that reach mapping generation.
    #[test]
    fn eviction_never_changes_the_mapping() {
        use crate::frtcheck::test_budget;
        let mut generated = 0;
        for seed in 0..6u64 {
            let c = workloads::generate_fsm(&workloads::FsmSpec {
                name: format!("evm{seed}"),
                states: 5 + seed as usize,
                inputs: 2 + seed as usize % 3,
                decoded: 2,
                outputs: 2,
                encoding: if seed % 2 == 0 {
                    workloads::Encoding::Binary
                } else {
                    workloads::Encoding::OneHot
                },
                registered_inputs: true,
                seed: 100 + seed,
            });
            for (name, driver) in DRIVERS {
                for k in [3, 4] {
                    let opts = Options::with_k(k);
                    let keep = test_budget::with(usize::MAX, || driver(&c, opts)).unwrap();
                    let churn = test_budget::with(0, || driver(&c, opts)).unwrap();
                    let tag = format!("{name} seed={seed} k={k}");
                    assert_eq!(keep.period, churn.period, "{tag}");
                    assert_eq!(keep.iterations, churn.iterations, "{tag}");
                    assert_eq!(
                        netlist::write_blif(&keep.circuit),
                        netlist::write_blif(&churn.circuit),
                        "{tag}"
                    );
                    let upper = flowmap::flowmap_frt(&crate::prepare(&c, k).unwrap(), k)
                        .unwrap()
                        .period;
                    generated += usize::from(keep.period < upper);
                }
            }
        }
        assert!(generated > 0, "no case reached mapping generation");
    }

    /// Warm starts must never probe *more* periods or spend more sweeps,
    /// and must report the same feasibility frontier (same probed Φ
    /// sequence), under either label rule.
    #[test]
    fn warm_start_probes_the_same_periods() {
        let c = medium_fsm();
        for (name, driver) in DRIVERS {
            let mut opts = Options::with_k(4);
            opts.warm_start = false;
            let cold = driver(&c, opts).unwrap();
            opts.warm_start = true;
            let warm = driver(&c, opts).unwrap();
            let phis =
                |r: &TurboMapResult| r.iterations.iter().map(|&(p, _)| p).collect::<Vec<_>>();
            assert_eq!(phis(&warm), phis(&cold), "{name}");
            assert!(
                phis(&cold).len() > 1,
                "{name}: the search must probe below Φ_upper"
            );
            let sweeps = |r: &TurboMapResult| r.iterations.iter().map(|&(_, s)| s).sum::<usize>();
            assert!(sweeps(&warm) <= sweeps(&cold), "{name}");
        }
    }

    /// A pre-tripped cancel token must stop a parallel run promptly with
    /// `Cancelled` — helpers parked on the sweep board may not deadlock
    /// the driver or leak past the scope.
    #[test]
    fn parallel_sweeps_respect_cancellation() {
        let c = medium_fsm();
        let token = engine::CancelToken::new();
        token.cancel();
        let _guard = engine::cancel::install(token);
        let mut opts = Options::with_k(4);
        opts.sweep_workers = 4;
        let start = std::time::Instant::now();
        let res = turbomap_frt(&c, opts);
        assert!(matches!(res, Err(TurboMapError::Cancelled)), "{res:?}");
        assert!(
            start.elapsed() < std::time::Duration::from_secs(30),
            "cancelled run took {:?} — sweep crew hung?",
            start.elapsed()
        );
    }

    #[test]
    fn invalid_circuit_rejected() {
        let mut c = Circuit::new("bad");
        c.add_input("a").unwrap();
        c.add_output("o").unwrap(); // unconnected PO
        assert!(matches!(
            turbomap_frt(&c, Options::default()),
            Err(TurboMapError::Invalid(_))
        ));
    }
}
