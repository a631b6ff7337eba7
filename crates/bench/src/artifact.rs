//! The versioned `BENCH_table1.json` artifact.
//!
//! Schema `turbomap-bench/table1/v4` — see DESIGN.md for the
//! field-by-field description. Objects render with insertion-ordered
//! keys via [`engine::JsonValue`], so the artifact is byte-deterministic
//! for a given suite result. The `canonical` flag zeroes every timing
//! field (wall seconds, cpu seconds, span-duration histograms) and keeps
//! only the call counts of the layer objects (timing and heap numbers
//! are scheduling- and allocator-dependent), along with the
//! deterministic algorithmic counters and value histograms; two runs
//! that differ only in scheduling (`--jobs 1` vs `--jobs 8`) — or in
//! whether tracing or memory accounting was enabled — produce
//! **byte-identical** canonical artifacts.
//!
//! `v4` replaced the `v3` per-algorithm `phases` / `mem_phases` and
//! per-circuit `job_phases` / `job_mem_phases` objects with one
//! `layers` object per algorithm and one `job_layers` object per
//! circuit, keyed by [`engine::Layer`] name.

use crate::{geomean, Measured, Row};
use engine::hist::{Histogram, Metric, HIST_NAMES, NUM_HISTS};
use engine::layer::Layer;
use engine::mem::MemStats;
use engine::telemetry::{Telemetry, COUNTER_NAMES, NUM_COUNTERS};
use engine::{JobOutcome, JobReport, JsonValue};

/// Artifact schema identifier (bump on breaking changes).
pub const SCHEMA: &str = "turbomap-bench/table1/v4";

/// Schema of the large-workload ingestion artifact (`v2` added the
/// optional `peak_rss_kib` field; `v3` added the vectorized verify
/// phase — `verify_lanes`/`verify_cycles` structural fields, the
/// `verify_secs`/`verify_scalar_secs` timings, and the `job_phases`
/// wall breakdown benchdiff attributes regressions to; `v4` adds the
/// optional partitioned-mapping fields of `--partitions` runs —
/// structural `partition_blocks`/`partition_cut_ffs`/`partition_phi`/
/// `partition_luts`, exact-gated by benchdiff, plus the `map_secs`/
/// `partition_block_secs` timings, the derived `partition_speedup`,
/// and a `map` entry in `job_phases`; all omitted on ingestion-only
/// rows, so `v3` consumers read `v4` artifacts unchanged).
pub const LARGE_SCHEMA: &str = "turbomap-bench/large/v4";

fn secs(value: f64, canonical: bool) -> JsonValue {
    JsonValue::Float(if canonical { 0.0 } else { value })
}

fn counters_json(t: &Telemetry) -> JsonValue {
    JsonValue::Object(
        (0..NUM_COUNTERS)
            .map(|i| (COUNTER_NAMES[i].to_string(), JsonValue::UInt(t.counters[i])))
            .collect(),
    )
}

/// The layers that ran, each with its calls and — unless canonical —
/// self and inclusive seconds and its own allocations and heap peak.
fn layers_json(t: &Telemetry, canonical: bool) -> JsonValue {
    JsonValue::Object(
        Layer::ALL
            .iter()
            .map(|&l| (l, t.layer(l)))
            .filter(|(_, s)| s.calls > 0)
            .map(|(l, s)| {
                let mut fields = vec![("calls", JsonValue::UInt(s.calls))];
                if !canonical {
                    fields.extend([
                        ("self_secs", JsonValue::Float(s.self_secs())),
                        ("inclusive_secs", JsonValue::Float(s.incl_secs())),
                        ("allocs", JsonValue::UInt(s.allocs)),
                        ("alloc_bytes", JsonValue::UInt(s.alloc_bytes)),
                        ("peak_heap_bytes", JsonValue::UInt(s.peak_bytes)),
                    ]);
                }
                (l.name().to_string(), JsonValue::object(fields))
            })
            .collect(),
    )
}

fn hist_json(h: &Histogram) -> JsonValue {
    JsonValue::object(vec![
        ("count", JsonValue::UInt(h.count)),
        ("sum", JsonValue::UInt(h.sum)),
        ("p50", JsonValue::UInt(h.quantile(0.5).unwrap_or(0))),
        ("p90", JsonValue::UInt(h.quantile(0.9).unwrap_or(0))),
        ("p99", JsonValue::UInt(h.quantile(0.99).unwrap_or(0))),
        (
            "buckets",
            JsonValue::Array(
                h.nonzero_buckets()
                    .into_iter()
                    .map(|(i, c)| {
                        JsonValue::Array(vec![JsonValue::UInt(i as u64), JsonValue::UInt(c)])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// The telemetry's non-empty histograms, or `None` when all are empty
/// (the `histograms` field is optional in the `v2` schema). Canonical
/// artifacts drop `span_nanos` — it is a timing distribution, recorded
/// only when tracing is on, and including it would break the
/// tracing-on/off byte-identity guarantee.
fn hists_json(t: &Telemetry, canonical: bool) -> Option<JsonValue> {
    let pairs: Vec<(String, JsonValue)> = (0..NUM_HISTS)
        .filter(|&i| !(canonical && i == Metric::SpanNanos as usize))
        .filter(|&i| !t.hists[i].is_empty())
        .map(|i| (HIST_NAMES[i].to_string(), hist_json(&t.hists[i])))
        .collect();
    if pairs.is_empty() {
        None
    } else {
        Some(JsonValue::Object(pairs))
    }
}

/// The job-level allocation ledger; `None` when canonical (heap numbers
/// are not scheduling-deterministic) or when accounting never recorded
/// (gate off → field omitted, keeping accounting-on/off artifacts
/// identical in canonical mode).
fn job_mem_json(mem: &MemStats, canonical: bool) -> Option<JsonValue> {
    if canonical || mem.is_empty() {
        return None;
    }
    Some(JsonValue::object(vec![
        ("peak_heap_bytes", JsonValue::UInt(mem.peak_bytes)),
        ("allocs", JsonValue::UInt(mem.allocs)),
        ("frees", JsonValue::UInt(mem.frees)),
        ("alloc_bytes", JsonValue::UInt(mem.alloc_bytes)),
        ("free_bytes", JsonValue::UInt(mem.free_bytes)),
    ]))
}

fn measured_json(m: &Measured, canonical: bool) -> JsonValue {
    let mut pairs = vec![
        ("phi", JsonValue::UInt(m.phi)),
        ("luts", JsonValue::UInt(m.luts as u64)),
        ("ffs", JsonValue::UInt(m.ffs as u64)),
        ("star", JsonValue::Bool(m.star)),
        ("verified", JsonValue::Bool(m.verified)),
        ("cpu_secs", secs(m.cpu, canonical)),
        ("layers", layers_json(&m.telemetry, canonical)),
        ("counters", counters_json(&m.telemetry)),
    ];
    if let Some(h) = hists_json(&m.telemetry, canonical) {
        pairs.push(("histograms", h));
    }
    JsonValue::object(pairs)
}

fn row_json(row: &Row, canonical: bool) -> Vec<(&'static str, JsonValue)> {
    vec![
        ("n", JsonValue::UInt(row.n as u64)),
        ("f", JsonValue::UInt(row.f as u64)),
        ("best_valid_phi", JsonValue::UInt(row.best_valid_phi())),
        ("flowmap_frt", measured_json(&row.flowmap_frt, canonical)),
        ("turbomap", measured_json(&row.turbomap, canonical)),
        ("turbomap_frt", measured_json(&row.turbomap_frt, canonical)),
        (
            "frt_iterations",
            JsonValue::Array(
                row.frt_iterations
                    .iter()
                    .map(|&(phi, sweeps)| {
                        JsonValue::object(vec![
                            ("phi", JsonValue::UInt(phi)),
                            ("sweeps", JsonValue::UInt(sweeps as u64)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ]
}

fn circuit_json(report: &JobReport<Row>, canonical: bool) -> JsonValue {
    let mut pairs = vec![
        ("name", JsonValue::str(report.name.clone())),
        ("status", JsonValue::str(report.outcome.status())),
    ];
    match &report.outcome {
        JobOutcome::Completed(row) => pairs.extend(row_json(row, canonical)),
        JobOutcome::Failed(e) => pairs.push(("error", JsonValue::str(e.clone()))),
        JobOutcome::Panicked(msg) => pairs.push(("error", JsonValue::str(msg.clone()))),
        JobOutcome::DeadlineExceeded { limit } => {
            pairs.push(("timeout_secs", JsonValue::Float(limit.as_secs_f64())))
        }
    }
    pairs.push(("wall_secs", secs(report.wall.as_secs_f64(), canonical)));
    pairs.push(("job_layers", layers_json(&report.telemetry, canonical)));
    pairs.push(("job_counters", counters_json(&report.telemetry)));
    if let Some(h) = hists_json(&report.telemetry, canonical) {
        pairs.push(("job_histograms", h));
    }
    if let Some(jm) = job_mem_json(&report.telemetry.mem, canonical) {
        pairs.push(("job_mem", jm));
    }
    JsonValue::object(pairs)
}

fn geomean_json(rows: &[&Row], canonical: bool) -> JsonValue {
    let gm = |f: &dyn Fn(&Row) -> f64| geomean(rows.iter().map(|r| f(r)));
    let alg = |m: &dyn Fn(&Row) -> Measured| {
        let phi = gm(&|r| m(r).phi as f64);
        let luts = gm(&|r| m(r).luts as f64);
        let ffs = gm(&|r| m(r).ffs as f64);
        let cpu = if canonical { 0.0 } else { gm(&|r| m(r).cpu) };
        JsonValue::object(vec![
            ("phi", JsonValue::Float(phi)),
            ("luts", JsonValue::Float(luts)),
            ("ffs", JsonValue::Float(ffs)),
            ("cpu_secs", JsonValue::Float(cpu)),
        ])
    };
    JsonValue::object(vec![
        ("flowmap_frt", alg(&|r| r.flowmap_frt)),
        ("turbomap", alg(&|r| r.turbomap)),
        ("turbomap_frt", alg(&|r| r.turbomap_frt)),
        (
            "best_valid_phi",
            JsonValue::Float(gm(&|r| r.best_valid_phi() as f64)),
        ),
    ])
}

/// Builds the full artifact for one suite run.
///
/// `canonical` zeroes every timing field so the rendering depends only
/// on the algorithmic results (the `--jobs`-independence guarantee).
pub fn table1_json(
    reports: &[JobReport<Row>],
    k: usize,
    verify_vectors: usize,
    canonical: bool,
) -> JsonValue {
    let completed: Vec<&Row> = reports
        .iter()
        .filter_map(|r| r.outcome.completed())
        .collect();
    let stars = completed.iter().filter(|r| r.turbomap.star).count();
    let failures: Vec<JsonValue> = reports
        .iter()
        .filter(|r| !r.outcome.is_completed())
        .map(|r| {
            JsonValue::object(vec![
                ("name", JsonValue::str(r.name.clone())),
                ("status", JsonValue::str(r.outcome.status())),
            ])
        })
        .collect();
    JsonValue::object(vec![
        ("schema", JsonValue::str(SCHEMA)),
        ("k", JsonValue::UInt(k as u64)),
        ("verify_vectors", JsonValue::UInt(verify_vectors as u64)),
        ("canonical", JsonValue::Bool(canonical)),
        (
            "circuits",
            JsonValue::Array(reports.iter().map(|r| circuit_json(r, canonical)).collect()),
        ),
        (
            "summary",
            JsonValue::object(vec![
                ("total", JsonValue::UInt(reports.len() as u64)),
                ("completed", JsonValue::UInt(completed.len() as u64)),
                ("turbomap_stars", JsonValue::UInt(stars as u64)),
                ("failures", JsonValue::Array(failures)),
                ("geomean", geomean_json(&completed, canonical)),
            ]),
        ),
    ])
}

/// Builds the [`LARGE_SCHEMA`] ingestion artifact.
///
/// The structural fields (`file_bytes`, `models`, `gates`, `ffs`,
/// `pis`, `pos`) are deterministic per preset; `benchdiff` compares
/// them exactly, so *any* drift gates. `canonical` zeroes the timing
/// fields (`parse_secs`, `wall_secs`) like the Table-1 artifact.
pub fn large_json(rows: &[crate::large::IngestRow], canonical: bool) -> JsonValue {
    JsonValue::object(vec![
        ("schema", JsonValue::str(LARGE_SCHEMA)),
        ("canonical", JsonValue::Bool(canonical)),
        (
            "circuits",
            JsonValue::Array(
                rows.iter()
                    .map(|r| {
                        let map_secs = r.partition.as_ref().map_or(0.0, |p| p.map_secs);
                        let mut phases = vec![
                            ("parse", secs(r.parse_secs, canonical)),
                            ("flatten", secs(r.total_secs - r.parse_secs, canonical)),
                            ("verify", secs(r.verify_secs, canonical)),
                        ];
                        if r.partition.is_some() {
                            phases.push(("map", secs(map_secs, canonical)));
                        }
                        let mut pairs = vec![
                            ("name", JsonValue::str(r.name.clone())),
                            ("status", JsonValue::str("ok")),
                            ("file_bytes", JsonValue::UInt(r.file_bytes)),
                            ("models", JsonValue::UInt(r.models as u64)),
                            ("gates", JsonValue::UInt(r.gates as u64)),
                            ("ffs", JsonValue::UInt(r.ffs as u64)),
                            ("pis", JsonValue::UInt(r.pis as u64)),
                            ("pos", JsonValue::UInt(r.pos as u64)),
                            ("verify_lanes", JsonValue::UInt(r.verify_lanes as u64)),
                            ("verify_cycles", JsonValue::UInt(r.verify_cycles as u64)),
                            ("parse_secs", secs(r.parse_secs, canonical)),
                            ("verify_secs", secs(r.verify_secs, canonical)),
                            ("verify_scalar_secs", secs(r.verify_scalar_secs, canonical)),
                            (
                                "wall_secs",
                                secs(r.total_secs + r.verify_secs + map_secs, canonical),
                            ),
                            ("job_phases", JsonValue::object(phases)),
                            (
                                "peak_rss_kib",
                                JsonValue::UInt(if canonical { 0 } else { r.peak_rss_kib }),
                            ),
                        ];
                        if let Some(p) = &r.partition {
                            pairs.extend([
                                ("partition_blocks", JsonValue::UInt(p.blocks as u64)),
                                ("partition_cut_ffs", JsonValue::UInt(p.cut_ffs)),
                                ("partition_phi", JsonValue::UInt(p.phi)),
                                ("partition_luts", JsonValue::UInt(p.luts as u64)),
                                ("map_secs", secs(p.map_secs, canonical)),
                                ("partition_block_secs", secs(p.block_secs, canonical)),
                                ("partition_speedup", secs(p.speedup(), canonical)),
                            ]);
                        }
                        JsonValue::object(pairs)
                    })
                    .collect(),
            ),
        ),
        (
            "summary",
            JsonValue::object(vec![
                ("total", JsonValue::UInt(rows.len() as u64)),
                (
                    "gates",
                    JsonValue::UInt(rows.iter().map(|r| r.gates as u64).sum()),
                ),
                (
                    "ffs",
                    JsonValue::UInt(rows.iter().map(|r| r.ffs as u64).sum()),
                ),
            ]),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use engine::telemetry::Telemetry;
    use std::time::Duration;

    fn fake_measured(phi: u64) -> Measured {
        let mut t = Telemetry::default();
        t.counters[0] = 42;
        t.layers[Layer::Label as usize] = engine::LayerStats {
            calls: 3,
            incl_nanos: 1_500_000_000,
            self_nanos: 800_000_000,
            ..Default::default()
        };
        for v in [2u64, 3, 3, 5] {
            t.hists[Metric::CutSize as usize].record(v);
        }
        // A timing histogram that canonical artifacts must drop.
        t.hists[Metric::SpanNanos as usize].record(1_500);
        // Memory accounting that canonical artifacts must omit.
        t.mem.allocs = 11;
        t.mem.alloc_bytes = 2_222;
        t.mem.peak_bytes = 1_111;
        t.layers[Layer::FrtcheckSweep as usize] = engine::LayerStats {
            calls: 2,
            incl_nanos: 700_000_000,
            self_nanos: 700_000_000,
            allocs: 9,
            alloc_bytes: 2_000,
            peak_bytes: 999,
        };
        Measured {
            phi,
            luts: 10,
            ffs: 4,
            cpu: 1.5,
            star: false,
            verified: true,
            telemetry: t,
        }
    }

    fn fake_report(name: &str) -> JobReport<Row> {
        let row = Row {
            name: name.into(),
            n: 20,
            f: 5,
            flowmap_frt: fake_measured(7),
            turbomap: fake_measured(5),
            turbomap_frt: fake_measured(6),
            frt_iterations: vec![(6, 3)],
        };
        JobReport {
            name: name.into(),
            outcome: JobOutcome::Completed(row),
            wall: Duration::from_millis(1234),
            telemetry: Telemetry::default(),
            trace: None,
        }
    }

    #[test]
    fn canonical_artifact_has_no_timing() {
        let reports = vec![fake_report("a")];
        let text = table1_json(&reports, 5, 3008, true).render_pretty();
        assert!(text.contains("\"schema\": \"turbomap-bench/table1/v4\""));
        assert!(text.contains("\"cpu_secs\": 0.0"));
        assert!(!text.contains("1.5"), "timing leaked: {text}");
        // Layers keep only their call counts.
        let compact = table1_json(&reports, 5, 3008, true).render();
        assert!(
            compact
                .contains("\"layers\":{\"label\":{\"calls\":3},\"frtcheck_sweep\":{\"calls\":2}}"),
            "{compact}"
        );
        assert!(!text.contains("self_secs"), "timing leaked: {text}");
        // Counters survive canonicalisation.
        assert!(text.contains("\"flow_augmentations\": 42"));
        // Value histograms survive; the span-duration histogram does not.
        assert!(text.contains("\"cut_size\""));
        assert!(!text.contains("\"span_nanos\""), "timing hist leaked");
        // Memory is omitted wholesale in canonical mode, so
        // accounting-on and accounting-off runs stay byte-identical.
        assert!(!text.contains("peak_heap_bytes"), "mem leaked: {text}");
        assert!(!text.contains("job_mem"), "mem leaked: {text}");
    }

    #[test]
    fn non_canonical_artifact_carries_layer_breakdowns() {
        let mut reports = vec![fake_report("a")];
        reports[0].telemetry = fake_measured(5).telemetry;
        let text = table1_json(&reports, 5, 3008, false).render();
        // Per-algorithm breakdown keyed by layer name, only layers that ran.
        assert!(
            text.contains(
                "\"layers\":{\"label\":{\"calls\":3,\"self_secs\":0.8,\"inclusive_secs\":1.5,\
             \"allocs\":0,\"alloc_bytes\":0,\"peak_heap_bytes\":0},\
             \"frtcheck_sweep\":{\"calls\":2,\"self_secs\":0.7,\"inclusive_secs\":0.7,\
             \"allocs\":9,\"alloc_bytes\":2000,\"peak_heap_bytes\":999}}"
            ),
            "{text}"
        );
        // Job-level breakdown plus the allocation ledger.
        assert!(text.contains("\"job_layers\":{\"label\""));
        assert!(text.contains(
            "\"job_mem\":{\"peak_heap_bytes\":1111,\"allocs\":11,\"frees\":0,\
             \"alloc_bytes\":2222,\"free_bytes\":0}"
        ));
    }

    #[test]
    fn histograms_render_quantiles_and_buckets() {
        let reports = vec![fake_report("a")];
        let text = table1_json(&reports, 5, 3008, false).render();
        // Samples 2,3,3,5 → count 4, sum 13; p50 in bucket [2,3], p99 in
        // bucket [4,7]; buckets: index 2 ×3, index 3 ×1.
        assert!(text.contains(
            "\"cut_size\":{\"count\":4,\"sum\":13,\"p50\":3,\"p90\":7,\"p99\":7,\
             \"buckets\":[[2,3],[3,1]]}"
        ));
        // Non-canonical artifacts keep the span-duration histogram.
        assert!(text.contains("\"span_nanos\""));
        // Job-level telemetry is all-empty → optional field omitted.
        assert!(!text.contains("job_histograms"));
    }

    #[test]
    fn failures_are_listed_and_rows_kept() {
        let mut reports = vec![fake_report("a"), fake_report("b")];
        reports[1].outcome = JobOutcome::Panicked("boom".into());
        let text = table1_json(&reports, 5, 3008, true).render();
        assert!(text.contains("\"status\":\"panicked\""));
        assert!(text.contains("\"error\":\"boom\""));
        assert!(text.contains("\"completed\":1"));
        assert!(text.contains("\"total\":2"));
    }

    #[test]
    fn large_artifact_carries_partition_fields() {
        let row = crate::large::IngestRow {
            name: "hier".into(),
            file_bytes: 10,
            models: 3,
            gates: 100,
            ffs: 20,
            pis: 4,
            pos: 4,
            parse_secs: 0.1,
            total_secs: 0.2,
            verify_lanes: 64,
            verify_cycles: 16,
            verify_secs: 0.05,
            verify_scalar_secs: 0.5,
            peak_rss_kib: 1000,
            partition: Some(crate::large::PartitionMeasurement {
                blocks: 4,
                cut_ffs: 12,
                phi: 9,
                luts: 50,
                map_secs: 2.0,
                block_secs: 6.0,
            }),
        };
        let text = large_json(std::slice::from_ref(&row), false).render();
        assert!(text.contains("\"schema\":\"turbomap-bench/large/v4\""));
        assert!(text.contains("\"partition_blocks\":4"));
        assert!(text.contains("\"partition_cut_ffs\":12"));
        assert!(text.contains("\"partition_speedup\":3.0"));
        assert!(text.contains("\"map\":2.0"), "{text}");
        // Canonical zeroes the partition timings, keeps the structure.
        let text = large_json(std::slice::from_ref(&row), true).render();
        assert!(text.contains("\"partition_phi\":9"));
        assert!(text.contains("\"partition_speedup\":0.0"));
        assert!(text.contains("\"map_secs\":0.0"));
        // Ingestion-only rows omit every partition field (v3 shape).
        let plain = crate::large::IngestRow {
            partition: None,
            ..row
        };
        let text = large_json(&[plain], false).render();
        assert!(!text.contains("partition_"), "{text}");
        assert!(!text.contains("\"map\""), "{text}");
    }

    #[test]
    fn artifact_is_deterministic() {
        let reports = vec![fake_report("a"), fake_report("b")];
        let one = table1_json(&reports, 5, 3008, false).render_pretty();
        let two = table1_json(&reports, 5, 3008, false).render_pretty();
        assert_eq!(one, two);
    }
}
