//! One pass of a workload: BLIF text in memory → `blifio` → mapper →
//! initial states → output checks.
//!
//! The untraced pass calls the public mapper entry points
//! (`turbomap_frt`, `turbomap_general`, `flowmap_frt`, `partition_map`)
//! and times them. The traced pass replays TurboMap-frt and the
//! partition pipeline as the sequence of public calls those entry points
//! make, with a [`Recorder`] span around each call; its mapped outputs
//! must match the untraced pass byte for byte.

use crate::designs::{Design, Workload};
use crate::spans::Recorder;
use engine::batch::{run_batch, BatchOptions, JobOutcome, JobSpec};
use netlist::{Circuit, EquivMode, NodeId};
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;
use std::time::Instant;
use turbomap::{FrtContext, Options, TurboMapResult};

/// LUT input bound of every flow.
pub const K: usize = 5;
/// Random vectors per sequential-equivalence check (the paper's count).
pub const VERIFY_VECTORS: usize = 3008;
/// Blocks `hier-partition` is cut into.
pub const HIER_BLOCKS: usize = 8;

/// The mapping flows a design can go through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algo {
    /// The FlowMap-frt baseline.
    FlowMapFrt,
    /// The paper's algorithm.
    TurboMapFrt,
    /// The general-retiming TurboMap baseline.
    TurboMapGeneral,
    /// Partition-and-conquer TurboMap-frt.
    Partitioned,
}

impl Algo {
    fn name(self) -> &'static str {
        match self {
            Algo::FlowMapFrt => "flowmap-frt",
            Algo::TurboMapFrt => "turbomap-frt",
            Algo::TurboMapGeneral => "turbomap",
            Algo::Partitioned => "partitioned",
        }
    }
}

/// A mapped design as the pass delivers it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Mapping {
    /// `<design>/<flow>`.
    pub label: String,
    /// Reported clock period Φ.
    pub phi: u64,
    /// LUTs.
    pub luts: usize,
    /// Shared-chain FFs.
    pub ffs: usize,
    /// The mapped circuit as BLIF text.
    pub blif: String,
}

/// Per-block timing of a partitioned mapping.
#[derive(Debug, Clone, Default)]
pub struct BlockStats {
    /// Wall of each block's mapper run, seconds.
    pub walls: Vec<f64>,
    /// Registers frozen on seams.
    pub cut_ffs: u64,
}

/// What one pass produced.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Wall of the whole pass, seconds.
    pub wall_s: f64,
    /// Summed wall of the mapper entry calls (untraced pass only).
    pub map_s: f64,
    /// Every mapping, in pass order.
    pub mappings: Vec<Mapping>,
    /// Mappings attempted.
    pub attempted: u64,
    /// Labels of the mappings that errored or failed a check.
    pub failed: BTreeSet<String>,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Block statistics of the partitioned design, if any.
    pub blocks: Option<BlockStats>,
}

impl Pass {
    fn fail(&mut self, label: &str, why: impl std::fmt::Display) {
        self.failed.insert(label.to_string());
        self.failures.push(format!("{label}: {why}"));
    }
}

/// Inputs of one pass.
#[derive(Debug, Clone)]
pub struct PassCtx<'a> {
    /// Which workload the designs belong to.
    pub workload: Workload,
    /// The designs, as set-up produced them.
    pub designs: &'a [Design],
    /// Run seed; also draws the verification vectors.
    pub seed: u64,
    /// Block-level worker threads of `hier-partition`.
    pub hier_workers: usize,
    /// Recorder of the traced pass; `None` for the untraced pass.
    pub rec: Option<Arc<Recorder>>,
}

/// A mapper result reduced to what the checks need.
struct Outcome {
    circuit: Circuit,
    phi: u64,
    luts: usize,
    ffs: usize,
    /// The paper's `⋆`: no usable equivalent initial state.
    star: bool,
}

impl From<TurboMapResult> for Outcome {
    fn from(r: TurboMapResult) -> Outcome {
        Outcome {
            star: r.star(),
            phi: r.period,
            luts: r.luts,
            ffs: r.ffs,
            circuit: r.circuit,
        }
    }
}

fn layer<T>(rec: Option<&Recorder>, name: &'static str, f: impl FnOnce() -> T) -> T {
    match rec {
        Some(r) => r.span(name, f),
        None => f(),
    }
}

/// Times `f` into `acc` (seconds).
fn timed<T>(acc: &mut f64, f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    *acc += t.elapsed().as_secs_f64();
    out
}

/// Runs one pass over every design of `ctx`.
pub fn run_pass(ctx: &PassCtx) -> Pass {
    let start = Instant::now();
    let rec = ctx.rec.as_deref();
    let mut pass = Pass::default();
    let opts = Options::with_k(K);
    for (i, design) in ctx.designs.iter().enumerate() {
        let vseed = ctx.seed ^ ((i as u64) << 8);
        let source =
            layer(rec, "blifio.parse", || blifio::parse_str(&design.blif)).and_then(|file| {
                layer(rec, "blifio.flatten", || {
                    blifio::flatten(&file, &blifio::LinkOptions::default())
                })
            });
        let source = match source {
            Ok(c) => c,
            Err(e) => {
                pass.attempted += 1;
                pass.fail(&design.name, format!("reading BLIF: {e}"));
                continue;
            }
        };
        let check = |pass: &mut Pass, flow: Algo, outcome: Result<Outcome, String>| {
            let seed = vseed ^ flow as u64;
            check_mapping(rec, pass, &design.name, flow, &source, outcome, seed)
        };
        match ctx.workload {
            Workload::IscasFrt => {
                let frt = map_frt(ctx, &source, opts, &mut pass.map_s);
                check(&mut pass, Algo::TurboMapFrt, frt);
            }
            Workload::FsmTable1 => {
                let fm = layer(rec, "turbomap.prepare", || turbomap::prepare(&source, K))
                    .map_err(|e| e.to_string())
                    .and_then(|bounded| {
                        layer(rec, "flowmap.frt", || {
                            timed(&mut pass.map_s, || flowmap::flowmap_frt(&bounded, K))
                        })
                        .map_err(|e| e.to_string())
                    })
                    .map(|r| Outcome {
                        star: !r.circuit.sharing_consistent(),
                        phi: r.period,
                        luts: r.luts,
                        ffs: r.ffs,
                        circuit: r.circuit,
                    });
                let fm = check(&mut pass, Algo::FlowMapFrt, fm);
                let frt = map_frt(ctx, &source, opts, &mut pass.map_s);
                let frt = check(&mut pass, Algo::TurboMapFrt, frt);
                let general = layer(rec, "turbomap.general", || {
                    timed(&mut pass.map_s, || {
                        turbomap::turbomap_general(&source, opts)
                    })
                })
                .map(Outcome::from)
                .map_err(|e| e.to_string());
                let general = check(&mut pass, Algo::TurboMapGeneral, general);
                if let (Some(fm), Some(frt), Some(general)) = (fm, frt, general) {
                    if !(general <= frt && frt <= fm) {
                        let label = format!("{}/{}", design.name, Algo::TurboMapFrt.name());
                        pass.fail(
                            &label,
                            format!(
                                "Φ order broken: general {general}, frt {frt}, FlowMap-frt {fm}"
                            ),
                        );
                    }
                }
            }
            Workload::HierPartition => {
                let part = map_partitioned(ctx, &source, &mut pass);
                check(&mut pass, Algo::Partitioned, part);
            }
        }
    }
    pass.wall_s = start.elapsed().as_secs_f64();
    pass
}

/// Checks one mapping against references other than the mapper, records
/// it, and returns its Φ when it passed.
fn check_mapping(
    rec: Option<&Recorder>,
    pass: &mut Pass,
    design: &str,
    flow: Algo,
    source: &Circuit,
    outcome: Result<Outcome, String>,
    vector_seed: u64,
) -> Option<u64> {
    let label = format!("{design}/{}", flow.name());
    pass.attempted += 1;
    let out = match outcome {
        Ok(o) => o,
        Err(e) => {
            pass.fail(&label, format!("mapper error: {e}"));
            return None;
        }
    };
    let failures_before = pass.failures.len();
    if let Err(e) = netlist::check_k_bounded(&out.circuit, K) {
        pass.fail(&label, e);
    }
    match out.circuit.clock_period() {
        Ok(p) if p == out.phi => {}
        Ok(p) => pass.fail(
            &label,
            format!("reported Φ {} but clock_period() is {p}", out.phi),
        ),
        Err(e) => pass.fail(&label, format!("clock_period(): {e}")),
    }
    if out.star && flow != Algo::TurboMapGeneral {
        pass.fail(&label, "no usable initial state (⋆)");
    }
    // Stitched seams and lost TurboMap states may carry pessimistic X
    // bits where the source is defined; everything else must conform.
    let mode = if flow == Algo::Partitioned || out.star {
        EquivMode::Compatibility
    } else {
        EquivMode::Conformance
    };
    let verdict = layer(rec, "netlist.verify", || {
        netlist::random_equiv_mode(source, &out.circuit, VERIFY_VECTORS, vector_seed, mode)
    });
    match verdict {
        Ok(r) if r.is_equivalent() => {}
        Ok(_) => pass.fail(&label, format!("not equivalent to its input ({mode:?})")),
        Err(e) => pass.fail(&label, format!("equivalence check: {e}")),
    }
    let blif = layer(rec, "blifio.write", || blifio::write_circuit(&out.circuit));
    pass.mappings.push(Mapping {
        label,
        phi: out.phi,
        luts: out.luts,
        ffs: out.ffs,
        blif,
    });
    (pass.failures.len() == failures_before).then_some(out.phi)
}

fn map_frt(ctx: &PassCtx, c: &Circuit, opts: Options, map_s: &mut f64) -> Result<Outcome, String> {
    let result = match &ctx.rec {
        Some(rec) => frt_traced(rec, c, opts),
        None => timed(map_s, || turbomap::turbomap_frt(c, opts)).map_err(|e| e.to_string()),
    };
    result.map(Outcome::from)
}

fn ceil_div(a: i64, b: i64) -> i64 {
    a.div_euclid(b) + i64::from(a.rem_euclid(b) != 0)
}

/// `turbomap_frt` as its sequence of public calls: prepare, the
/// FlowMap-frt upper bound, the expansion context, the Φ probes in the
/// search's binary-search order with warm starts, then generation (or
/// the FlowMap-frt network when Φ ties).
fn frt_traced(rec: &Recorder, c: &Circuit, opts: Options) -> Result<TurboMapResult, String> {
    let bounded = rec
        .span("turbomap.prepare", || turbomap::prepare(c, opts.k))
        .map_err(|e| e.to_string())?;
    let baseline = rec
        .span("flowmap.frt", || flowmap::flowmap_frt(&bounded, opts.k))
        .map_err(|e| format!("baseline: {e}"))?;
    let upper = baseline.period.max(1);
    let ctx = rec.span_peak("turbomap.expand", || {
        FrtContext::new(&bounded, opts.k, opts.weight_horizon)
    });
    let workers = opts.resolved_sweep_workers();
    let probe = |phi: u64, warm: Option<&turbomap::LabelPairs>| {
        rec.span_by(
            || ctx.check_opts(phi, warm, workers),
            |r| {
                if r.feasible {
                    "turbomap.probe_feasible"
                } else {
                    "turbomap.probe_infeasible"
                }
            },
        )
    };
    let top = probe(upper, None);
    let mut iterations = vec![(upper, top.iterations)];
    if !top.feasible {
        return Err("no feasible clock period found".into());
    }
    let mut best = (upper, top.labels);
    let (mut lo, mut hi) = (1u64, upper);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        let res = probe(mid, opts.warm_start.then_some(&best.1));
        iterations.push((mid, res.iterations));
        if res.feasible {
            best = (mid, res.labels);
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    let (phi, labels) = best;
    let name = format!("{}_tmfrt", c.name());
    if phi == baseline.period {
        let mut circuit = baseline.circuit;
        circuit.set_name(name);
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
    rec.span("turbomap.generate", || {
        let cuts = ctx.final_cuts(&labels, phi);
        let roots = turbomap::collect_roots(&bounded, &cuts).map_err(|e| e.to_string())?;
        let rr: HashMap<NodeId, i64> = roots
            .keys()
            .map(|&v| (v, ceil_div(labels.ls[v.index()], phi as i64) - 1))
            .collect();
        let gen = turbomap::generate_mapping(&bounded, &roots, &rr, &name, false)
            .map_err(|e| e.to_string())?;
        let achieved = gen.circuit.clock_period().map_err(|e| e.to_string())?;
        Ok(TurboMapResult {
            period: achieved.min(phi),
            luts: gen.circuit.num_gates(),
            ffs: gen.circuit.ff_count_shared(),
            iterations,
            moves: gen.moves,
            initial_state_lost: gen.initial_state_lost,
            sharing_conflict: !gen.circuit.sharing_consistent(),
            circuit: gen.circuit,
        })
    })
}

fn map_partitioned(ctx: &PassCtx, source: &Circuit, pass: &mut Pass) -> Result<Outcome, String> {
    let (outcome, blocks) = match &ctx.rec {
        Some(rec) => partition_traced(rec, source, ctx.hier_workers)?,
        None => {
            let mut popts = partition::PartitionOptions::new(K, HIER_BLOCKS);
            popts.jobs = ctx.hier_workers;
            let m = timed(&mut pass.map_s, || partition::partition_map(source, &popts))
                .map_err(|e| e.to_string())?;
            let r = &m.report;
            let blocks = BlockStats {
                walls: r
                    .block_outcomes
                    .iter()
                    .map(|b| b.wall.as_secs_f64())
                    .collect(),
                cut_ffs: r.cut_ffs,
            };
            let outcome = Outcome {
                phi: r.phi,
                luts: r.luts,
                ffs: r.ffs,
                star: false,
                circuit: m.circuit,
            };
            (outcome, blocks)
        }
    };
    pass.blocks = Some(blocks);
    Ok(outcome)
}

/// `partition_map` as its sequence of public calls: plan (cluster,
/// assign, contracts, extract), the per-block TurboMap-frt fan-out on
/// the engine pool, and stitch.
fn partition_traced(
    rec: &Arc<Recorder>,
    source: &Circuit,
    workers: usize,
) -> Result<(Outcome, BlockStats), String> {
    let popts = partition::PartitionOptions::new(K, HIER_BLOCKS);
    let (asg, mut ex) = rec.span("partition.plan", || {
        let cl = partition::cluster_circuit(source);
        let asg = partition::assign_blocks(source, &cl, popts.partitions, popts.balance);
        // `partition_map` budgets seam contracts for its report; the
        // mapping does not depend on them, but the plan's cost does.
        let _contracts = partition::contract::budget(source, &cl, &asg, popts.k);
        let ex = partition::extract_blocks(source, &asg).map_err(|e| e.to_string())?;
        Ok::<_, String>((asg, ex))
    })?;
    let specs: Vec<JobSpec<Circuit>> = std::mem::take(&mut ex.blocks)
        .into_iter()
        .enumerate()
        .map(|(b, circuit)| {
            let gates = ex.block_gates[b];
            let rec = Arc::clone(rec);
            let mut mopts = Options::with_k(popts.k);
            mopts.sweep_workers = popts.sweep_workers;
            JobSpec::new(circuit.name().to_string(), move || {
                if gates == 0 {
                    return Ok(circuit);
                }
                Ok(frt_traced(&rec, &circuit, mopts)?.circuit)
            })
        })
        .collect();
    let reports = rec.span("partition.blocks", || {
        run_batch(specs, &BatchOptions::with_jobs(workers))
    });
    let mut walls = Vec::with_capacity(reports.len());
    let mut mapped = Vec::with_capacity(reports.len());
    for r in reports {
        engine::telemetry::merge_local(&r.telemetry);
        walls.push(r.wall.as_secs_f64());
        match r.outcome {
            JobOutcome::Completed(c) => mapped.push(c),
            other => return Err(format!("block {} {}", r.name, other.status())),
        }
    }
    let (stitched, _) = rec
        .span("partition.stitch", || {
            partition::stitch_blocks(source, &ex, &mapped)
        })
        .map_err(|e| e.to_string())?;
    let blocks = BlockStats {
        walls,
        cut_ffs: asg.cut_ffs,
    };
    // Φ, LUTs and FFs as `partition_map` reports them.
    let outcome = Outcome {
        phi: stitched.clock_period().map_err(|e| e.to_string())?,
        luts: stitched.num_gates(),
        ffs: stitched.ff_count_shared(),
        star: false,
        circuit: stitched,
    };
    Ok((outcome, blocks))
}

/// A certificate's verdict from the independent checker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// The Φ−1 witness replayed cleanly.
    Verified,
    /// The report carries no witness, with the recorded reason.
    Unavailable(String),
}

/// Extracts the Φ-optimality certificate of `source` with
/// `report::explain` and replays it through the independent
/// `report::verify`; `expected_phi` is the untraced pass's TurboMap-frt Φ.
pub fn certify(source: &Circuit, expected_phi: u64) -> Result<Certificate, String> {
    let explained = report::explain(source, Options::with_k(K)).map_err(|e| e.to_string())?;
    if explained.result.period != expected_phi {
        return Err(format!(
            "explain mapped Φ {} but the pass mapped Φ {expected_phi}",
            explained.result.period
        ));
    }
    let doc = engine::JsonValue::parse(&explained.to_json().render_pretty())?;
    let summary = report::verify(&doc, source, &explained.result.circuit)?;
    Ok(match summary.witness {
        report::WitnessVerdict::Verified { .. } => Certificate::Verified,
        report::WitnessVerdict::Unavailable { reason } => Certificate::Unavailable(reason),
    })
}
