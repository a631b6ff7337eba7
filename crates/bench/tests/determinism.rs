//! `--jobs`-independence, sweep-worker independence, tracing-independence
//! and memory-accounting independence: a suite run's results (Φ / LUT /
//! FF per circuit, ordering, counters, layer call counts, value
//! histograms) must not depend on the worker count, on the label-sweep
//! parallelism, on whether span tracing was enabled, or on whether heap
//! accounting was enabled. The canonical artifact — timing fields
//! zeroed, layer objects reduced to call counts, memory omitted — must
//! therefore be **byte-identical** between a 1-worker and an 8-worker
//! run, between 1 and 4 sweep workers, between a traced and an untraced
//! run, and between accounting-on and accounting-off runs.

use bench::artifact::table1_json;
use bench::batch::{run_table1_suite, SuiteConfig};
use bench::VERIFY_VECTORS;
use engine::Layer;

/// The counting allocator, so the accounting-on run records real heap
/// activity per layer.
#[global_allocator]
static ALLOC: engine::mem::CountingAlloc = engine::mem::CountingAlloc::new();

#[test]
fn canonical_artifact_identical_for_jobs_1_and_8() {
    // A debug-build-sized subset of the Table 1 suite.
    let base = SuiteConfig {
        verify: false,
        max_gates: Some(60),
        ..SuiteConfig::default()
    };
    let one = run_table1_suite(&SuiteConfig { jobs: 1, ..base });
    let eight = run_table1_suite(&SuiteConfig { jobs: 8, ..base });
    assert!(one.len() >= 2, "subset too small to exercise parallelism");

    let a = table1_json(&one, base.k, VERIFY_VECTORS, true).render_pretty();
    let b = table1_json(&eight, base.k, VERIFY_VECTORS, true).render_pretty();
    assert_eq!(a, b, "--jobs 1 and --jobs 8 artifacts differ");

    // The artifact carries real algorithmic work, not just zeros.
    assert!(a.contains("\"schema\": \"turbomap-bench/table1/v4\""));
    assert!(a.contains("\"job_layers\": {"), "{a}");
    assert!(a.contains("\"min_cut\": {\n"), "{a}");
    assert!(!a.contains("self_secs"), "canonical layers carry timing");
    let sweeps_nonzero = one.iter().any(|r| {
        r.outcome
            .completed()
            .map(|row| {
                row.turbomap_frt
                    .telemetry
                    .counter(engine::telemetry::Counter::FrtSweeps)
                    > 0
            })
            .unwrap_or(false)
    });
    assert!(sweeps_nonzero, "no FRTcheck sweeps recorded");
}

#[test]
fn canonical_artifact_identical_for_sweep_workers_1_and_4() {
    let base = SuiteConfig {
        verify: false,
        jobs: 2,
        max_gates: Some(60),
        ..SuiteConfig::default()
    };
    let serial = run_table1_suite(&SuiteConfig {
        sweep_workers: 1,
        ..base
    });
    let parallel = run_table1_suite(&SuiteConfig {
        sweep_workers: 4,
        ..base
    });
    let a = table1_json(&serial, base.k, VERIFY_VECTORS, true).render_pretty();
    let b = table1_json(&parallel, base.k, VERIFY_VECTORS, true).render_pretty();
    assert_eq!(a, b, "--sweep-workers 1 and 4 artifacts differ");
}

#[test]
fn canonical_artifact_identical_with_tracing_on_and_off() {
    // Tracing must be observation-only: spans cost a little time (which
    // canonical artifacts zero anyway) but must never change an
    // algorithmic result, a counter, or a value histogram. The only
    // tracing-dependent histogram (`span_nanos`) is dropped from
    // canonical artifacts for exactly this reason.
    let cfg = SuiteConfig {
        verify: false,
        jobs: 2,
        max_gates: Some(40),
        ..SuiteConfig::default()
    };

    engine::trace::set_enabled(false);
    let off = run_table1_suite(&cfg);
    let off_text = table1_json(&off, cfg.k, VERIFY_VECTORS, true).render_pretty();

    engine::trace::set_enabled(true);
    let on = run_table1_suite(&cfg);
    engine::trace::set_enabled(false);
    let on_text = table1_json(&on, cfg.k, VERIFY_VECTORS, true).render_pretty();

    // The traced run actually captured spans, so the comparison is real.
    assert!(
        on.iter()
            .any(|r| r.trace.as_ref().is_some_and(|t| !t.events.is_empty())),
        "tracing was enabled but no events were captured"
    );
    assert_eq!(
        off_text, on_text,
        "canonical artifact differs with tracing enabled"
    );
}

#[test]
fn canonical_artifact_identical_with_mem_accounting_on_and_off() {
    // Heap accounting is observation-only, and heap numbers are
    // allocator- and scheduling-dependent besides — so canonical
    // artifacts *omit* the memory objects entirely rather than zeroing
    // them. Byte-identity across the accounting gate proves both points.
    let cfg = SuiteConfig {
        verify: false,
        jobs: 2,
        max_gates: Some(40),
        ..SuiteConfig::default()
    };

    engine::mem::set_enabled(false);
    let off = run_table1_suite(&cfg);
    let off_text = table1_json(&off, cfg.k, VERIFY_VECTORS, true).render_pretty();

    engine::mem::set_enabled(true);
    let on = run_table1_suite(&cfg);
    engine::mem::set_enabled(false);
    let on_text = table1_json(&on, cfg.k, VERIFY_VECTORS, true).render_pretty();

    // The accounting run actually attributed heap activity to layers
    // (expanded-circuit balls grow inside the cut queries), so the
    // comparison is real.
    assert!(
        on.iter().any(|r| {
            r.outcome
                .completed()
                .map(|row| row.turbomap_frt.telemetry.layer(Layer::MinCut).has_mem())
                .unwrap_or(false)
        }),
        "accounting was enabled but no layer memory was recorded"
    );
    assert_eq!(
        off_text, on_text,
        "canonical artifact differs with memory accounting enabled"
    );
    assert!(
        !on_text.contains("peak_heap_bytes") && !on_text.contains("job_mem"),
        "canonical artifact must omit memory breakdowns"
    );
}
