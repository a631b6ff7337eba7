//! One benchmark run: set-up, then passes for the run's time budget,
//! then the metrics.

use crate::designs::{self, Design, Workload};
use crate::pipeline::{self, Certificate, Pass, PassCtx};
use crate::spans::{self, Recorder};
use engine::hist::Metric;
use engine::telemetry::{self, Counter, Telemetry};
use engine::JsonValue;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Set-up repetitions; `setup_s` is their median.
const SETUP_REPS: usize = 9;

/// Block-level workers of `hier-partition` (the reference host has 2
/// cores).
pub const HIER_WORKERS: usize = 2;

/// What to run.
#[derive(Debug, Clone)]
pub struct Config {
    /// The workload.
    pub workload: Workload,
    /// Seed the designs and verification vectors are drawn from.
    pub seed: u64,
    /// Measuring budget; at least one pass (one pair when traced) runs.
    pub seconds: f64,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
    /// Block-level workers of `hier-partition`.
    pub hier_workers: usize,
}

/// One named metric value.
#[derive(Debug, Clone, PartialEq)]
pub struct Measure {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone)]
pub struct Report {
    /// Mapping checks (and certificates, when traced) attempted.
    pub attempted: u64,
    /// Of those, how many failed.
    pub failed: u64,
    /// One line per failed check.
    pub failures: Vec<String>,
    /// Informational lines (verdicts, pass counts).
    pub notes: Vec<String>,
    /// The metrics of this mode, in `BENCHMARK.json` order.
    pub metrics: Vec<Measure>,
    /// The spans of the last traced pass, as a Chrome trace.
    pub trace: Option<JsonValue>,
}

impl Report {
    /// The value of a metric, if this mode reports it.
    pub fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|m| m.name == name)
            .map(|m| m.value)
    }

    /// The one-line JSON result.
    pub fn to_json(&self) -> JsonValue {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let v = JsonValue::object(vec![
                    ("value", JsonValue::Float(m.value)),
                    ("unit", JsonValue::str(m.unit)),
                ]);
                (m.name.to_string(), v)
            })
            .collect();
        JsonValue::object(vec![
            ("correct", JsonValue::Bool(self.failed == 0)),
            ("attempted", JsonValue::UInt(self.attempted)),
            ("failed", JsonValue::UInt(self.failed)),
            ("metrics", JsonValue::Object(metrics)),
        ])
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    assert!(!xs.is_empty(), "median of no samples");
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

const MIB: f64 = 1024.0 * 1024.0;

/// Generates the designs `SETUP_REPS` times; returns them, the median
/// set-up seconds, and whether every repetition drew the same text.
fn setup(workload: Workload, seed: u64) -> (Vec<Design>, f64, bool) {
    let mut times = Vec::with_capacity(SETUP_REPS);
    let mut first: Option<Vec<Design>> = None;
    let mut repeatable = true;
    for _ in 0..SETUP_REPS {
        let t = Instant::now();
        let designs = designs::generate(workload, seed);
        times.push(t.elapsed().as_secs_f64());
        match &first {
            None => first = Some(designs),
            Some(f) => repeatable &= *f == designs,
        }
    }
    (first.expect("SETUP_REPS > 0"), median(times), repeatable)
}

/// Runs the benchmark once.
pub fn run(cfg: &Config) -> Report {
    let (designs, setup_s, repeatable) = setup(cfg.workload, cfg.seed);
    // The set-up repeatability check counts as one attempted operation.
    let mut attempted = 1;
    let mut failed = 0;
    let mut failures = Vec::new();
    if !repeatable {
        failed += 1;
        failures.push("set-up: the same seed drew different designs".to_string());
    }
    let mut ctx = PassCtx {
        workload: cfg.workload,
        designs: &designs,
        seed: cfg.seed,
        hier_workers: cfg.hier_workers,
        rec: None,
    };
    let budget = Duration::from_secs_f64(cfg.seconds);
    let start = Instant::now();
    let mut plain: Vec<Pass> = Vec::new();
    let mut traced: Vec<(Pass, TracedPass)> = Vec::new();
    let mut certs = None;
    loop {
        let round = Instant::now();
        // Alternate which pass goes first, so neither always runs cold.
        let traced_first = traced.len() % 2 == 1;
        if cfg.trace && traced_first {
            traced.push(traced_pass(&mut ctx));
        }
        plain.push(pipeline::run_pass(&ctx));
        if cfg.trace && !traced_first {
            traced.push(traced_pass(&mut ctx));
        }
        let round = round.elapsed();
        if cfg.trace && certs.is_none() {
            certs = Some(certificates(&ctx, &plain[0]));
        }
        // Start another round only if it fits in the budget.
        if start.elapsed() + round > budget {
            break;
        }
    }
    let peak_rss_kib = engine::mem::peak_rss_kib().unwrap_or(0);

    let reference = &plain[0];
    let labelled = plain.iter().map(|p| ("untraced", p));
    for (i, (kind, pass)) in labelled
        .chain(traced.iter().map(|(p, _)| ("traced", p)))
        .enumerate()
    {
        attempted += pass.attempted;
        failed += pass.failed.len() as u64;
        failures.extend(pass.failures.iter().cloned());
        if i > 0 && pass.mappings != reference.mappings {
            attempted += 1;
            failed += 1;
            failures.push(format!(
                "{kind} pass {i}: mapped output differs from the first pass"
            ));
        }
    }
    let walls: Vec<String> = plain.iter().map(|p| format!("{:.3}", p.wall_s)).collect();
    let mut notes = vec![
        format!(
            "passes: {} untraced, {} traced, {} designs, {} mappings each",
            plain.len(),
            traced.len(),
            designs.len(),
            reference.mappings.len()
        ),
        format!("untraced pass walls (s): {}", walls.join(" ")),
    ];
    let median_of = |f: fn(&Pass) -> f64| median(plain.iter().map(f).collect());
    let (metrics, trace) = match certs {
        Some(certs) => {
            attempted += certs.attempted;
            failed += certs.failed;
            failures.extend(certs.failures.iter().cloned());
            notes.extend(certs.notes.iter().cloned());
            let wall_plain = median_of(|p| p.wall_s);
            let metrics = layer_metrics(&traced, wall_plain, &certs, attempted, failed);
            (metrics, traced.last().map(|(_, t)| t.trace.clone()))
        }
        None => {
            let sum = |f: fn(&pipeline::Mapping) -> f64| reference.mappings.iter().map(f).sum();
            let metrics = vec![
                measure("wall_s", median_of(|p| p.wall_s), "s"),
                measure("map_s", median_of(|p| p.map_s), "s"),
                measure("peak_rss_mib", peak_rss_kib as f64 / 1024.0, "MiB"),
                measure("setup_s", setup_s, "s"),
                measure("phi_sum", sum(|x| x.phi as f64), "phi"),
                measure("luts", sum(|x| x.luts as f64), "count"),
                measure("ffs", sum(|x| x.ffs as f64), "count"),
            ];
            (metrics, None)
        }
    };
    Report {
        attempted,
        failed,
        failures,
        notes,
        metrics,
        trace,
    }
}

fn measure(name: &'static str, value: f64, unit: &'static str) -> Measure {
    Measure { name, value, unit }
}

/// Per-pass figures of a traced pass.
struct TracedPass {
    recorder: Arc<Recorder>,
    self_secs: std::collections::BTreeMap<String, f64>,
    telemetry: Telemetry,
    trace: JsonValue,
}

fn traced_pass(ctx: &mut PassCtx) -> (Pass, TracedPass) {
    let recorder = Arc::new(Recorder::new());
    ctx.rec = Some(Arc::clone(&recorder));
    engine::mem::set_enabled(true);
    let t0 = telemetry::snapshot();
    let pass = pipeline::run_pass(ctx);
    let telemetry = telemetry::snapshot().since(&t0);
    engine::mem::set_enabled(false);
    ctx.rec = None;
    let trace = recorder.chrome_trace();
    let self_secs = spans::self_secs(&trace);
    (
        pass,
        TracedPass {
            recorder,
            self_secs,
            telemetry,
            trace,
        },
    )
}

/// Certificate outcomes of one traced run.
struct Certs {
    secs: f64,
    verified: u64,
    unavailable: u64,
    attempted: u64,
    failed: u64,
    failures: Vec<String>,
    notes: Vec<String>,
}

/// Certifies every TurboMap-frt design of the run once (outside the
/// passes, so it does not count toward their walls).
fn certificates(ctx: &PassCtx, reference: &Pass) -> Certs {
    let mut c = Certs {
        secs: 0.0,
        verified: 0,
        unavailable: 0,
        attempted: 0,
        failed: 0,
        failures: Vec::new(),
        notes: Vec::new(),
    };
    if ctx.workload == Workload::HierPartition {
        return c;
    }
    let t = Instant::now();
    for design in ctx.designs {
        let label = format!("{}/turbomap-frt", design.name);
        let Some(mapped) = reference.mappings.iter().find(|m| m.label == label) else {
            continue;
        };
        c.attempted += 1;
        let verdict = blifio::read_circuit_str(&design.blif)
            .map_err(|e| e.to_string())
            .and_then(|source| pipeline::certify(&source, mapped.phi));
        match verdict {
            Ok(Certificate::Verified) => c.verified += 1,
            Ok(Certificate::Unavailable(reason)) => {
                c.unavailable += 1;
                c.notes
                    .push(format!("certificate {label}: unavailable ({reason})"));
            }
            Err(e) => {
                c.failed += 1;
                c.failures.push(format!("certificate {label}: FAILED: {e}"));
            }
        }
    }
    c.secs = t.elapsed().as_secs_f64();
    c.notes.push(format!(
        "certificates: {} verified, {} unavailable, {} failed",
        c.verified, c.unavailable, c.failed
    ));
    c
}

/// The per-layer metrics: self times are medians over the traced
/// passes; counts come from one pass (they repeat exactly).
fn layer_metrics(
    traced: &[(Pass, TracedPass)],
    wall_plain: f64,
    certs: &Certs,
    attempted: u64,
    failed: u64,
) -> Vec<Measure> {
    let secs = |name: &str| {
        median(
            traced
                .iter()
                .map(|(_, t)| t.self_secs.get(name).copied().unwrap_or(0.0))
                .collect(),
        )
    };
    let med = |f: &dyn Fn(&Pass, &TracedPass) -> f64| {
        median(traced.iter().map(|(p, t)| f(p, t)).collect())
    };
    let (pass, tp) = &traced[0];
    let rec = &tp.recorder;
    let probes = [
        rec.work("turbomap.probe_feasible"),
        rec.work("turbomap.probe_infeasible"),
    ];
    let probe_tel = {
        let mut t = probes[0].telemetry;
        t.merge(&probes[1].telemetry);
        t
    };
    let expand = rec.work("turbomap.expand");
    let cut_queries = probe_tel.hist(Metric::CacheHitsPerProbe).sum as f64;
    let cuts_found = probe_tel.hist(Metric::CutSize).count as f64;
    let blocks = |p: &Pass| p.blocks.clone().unwrap_or_default();
    let block_sum = |p: &Pass| blocks(p).walls.iter().fold(0.0, |a, w| a + w);
    let partition_wall = |t: &TracedPass| {
        ["partition.plan", "partition.blocks", "partition.stitch"]
            .iter()
            .map(|n| t.self_secs.get(*n).copied().unwrap_or(0.0))
            .fold(0.0, |a, s| a + s)
    };
    let wall_traced = med(&|p, _| p.wall_s);
    vec![
        measure("blifio.parse_s", secs("blifio.parse"), "s"),
        measure("blifio.flatten_s", secs("blifio.flatten"), "s"),
        measure("blifio.write_s", secs("blifio.write"), "s"),
        measure("turbomap.prepare_s", secs("turbomap.prepare"), "s"),
        measure("flowmap.frt_s", secs("flowmap.frt"), "s"),
        measure("turbomap.expand_s", secs("turbomap.expand"), "s"),
        measure(
            "turbomap.expand_nodes",
            expand.telemetry.counter(Counter::ExpandCacheMisses) as f64,
            "count",
        ),
        measure(
            "turbomap.expand_heap_mib",
            expand.peak_heap_bytes as f64 / MIB,
            "MiB",
        ),
        measure(
            "turbomap.probes",
            (probes[0].calls + probes[1].calls) as f64,
            "count",
        ),
        measure(
            "turbomap.probe_feasible_s",
            secs("turbomap.probe_feasible"),
            "s",
        ),
        measure(
            "turbomap.probe_infeasible_s",
            secs("turbomap.probe_infeasible"),
            "s",
        ),
        measure(
            "turbomap.probe_alloc_mib",
            (probes[0].alloc_bytes + probes[1].alloc_bytes) as f64 / MIB,
            "MiB",
        ),
        measure(
            "turbomap.sweeps",
            probe_tel.counter(Counter::FrtSweeps) as f64,
            "count",
        ),
        measure(
            "turbomap.requeued_gates",
            probe_tel.counter(Counter::FrtRequeuedGates) as f64,
            "count",
        ),
        measure("turbomap.cut_queries", cut_queries, "count"),
        measure(
            "turbomap.cut_found_ratio",
            if cut_queries > 0.0 {
                cuts_found / cut_queries
            } else {
                0.0
            },
            "ratio",
        ),
        measure(
            "graphalgo.maxflow_runs",
            tp.telemetry.hist(Metric::AugmentationsPerCut).count as f64,
            "count",
        ),
        measure(
            "graphalgo.augmentations",
            tp.telemetry.counter(Counter::FlowAugmentations) as f64,
            "count",
        ),
        measure("turbomap.generate_s", secs("turbomap.generate"), "s"),
        measure(
            "retiming.forward_moves",
            tp.telemetry.counter(Counter::ForwardMoves) as f64,
            "count",
        ),
        measure("turbomap.general_s", secs("turbomap.general"), "s"),
        measure("netlist.verify_s", secs("netlist.verify"), "s"),
        measure("partition.plan_s", secs("partition.plan"), "s"),
        measure("partition.blocks_s", secs("partition.blocks"), "s"),
        measure("partition.stitch_s", secs("partition.stitch"), "s"),
        measure("partition.block_s_sum", med(&|p, _| block_sum(p)), "s"),
        measure(
            "partition.block_s_max",
            med(&|p, _| blocks(p).walls.iter().copied().fold(0.0, f64::max)),
            "s",
        ),
        measure(
            "partition.speedup",
            med(&|p, t| match partition_wall(t) {
                w if w > 0.0 => block_sum(p) / w,
                _ => 0.0,
            }),
            "ratio",
        ),
        measure("partition.cut_ffs", blocks(pass).cut_ffs as f64, "count"),
        measure("report.certificate_s", certs.secs, "s"),
        measure(
            "report.certificates_verified",
            certs.verified as f64,
            "count",
        ),
        measure(
            "report.certificates_unavailable",
            certs.unavailable as f64,
            "count",
        ),
        measure("bench.trace_overhead_s", wall_traced - wall_plain, "s"),
        measure(
            "bench.unattributed_s",
            med(&|p, t| p.wall_s - t.recorder.attributed_secs()),
            "s",
        ),
        measure("bench.traced_wall_s", wall_traced, "s"),
        measure(
            "failed_frac",
            failed as f64 / attempted.max(1) as f64,
            "ratio",
        ),
    ]
}
