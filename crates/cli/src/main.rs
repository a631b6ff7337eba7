//! `tmfrt` — map BLIF/KISS2 circuits with the DAC'98 TurboMap-frt flows.
//!
//! Stream discipline: results (circuits) go to stdout, everything else —
//! progress reports, structured logs, errors — goes to stderr. Log lines
//! are JSON (see `engine::log`), filtered by `TMFRT_LOG` and `-q`.

use engine::log;
use engine::JsonValue;
use tmfrt_cli::batch::{run_batch_dir, BatchArgs};
use tmfrt_cli::fuzz::{run_fuzz, FuzzArgs};
use tmfrt_cli::profile::{run_profile, ProfileArgs};
use tmfrt_cli::serve::{run_serve, ServeArgs};
use tmfrt_cli::{load_circuit, run, run_explain, run_stats, Args, ExplainArgs, StatsArgs};

/// Heap accounting for `/metrics`, per-job live counters and the
/// artifact breakdowns. The wrapper always delegates to the system
/// allocator; counting is off until `engine::mem::set_enabled`.
#[global_allocator]
static ALLOC: engine::mem::CountingAlloc = engine::mem::CountingAlloc::new();

/// Usage errors go to stderr as plain text (they are the interactive
/// surface of the tool, not events), then exit 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("{msg}");
    std::process::exit(2);
}

fn fatal(context: &str, msg: &str) -> ! {
    log::error("tmfrt", context, &[("error", JsonValue::str(msg))]);
    std::process::exit(1);
}

fn main() {
    engine::mem::set_enabled(true);
    let raw: Vec<String> = std::env::args().skip(1).collect();
    match raw.first().map(String::as_str) {
        Some("batch") => {
            run_batch_main(&raw[1..]);
            return;
        }
        Some("serve") => {
            run_serve_main(&raw[1..]);
            return;
        }
        Some("fuzz") => {
            run_fuzz_main(&raw[1..]);
            return;
        }
        Some("stats") => {
            run_stats_main(&raw[1..]);
            return;
        }
        Some("explain") => {
            run_explain_main(&raw[1..]);
            return;
        }
        Some("profile") => {
            run_profile_main(&raw[1..]);
            return;
        }
        _ => {}
    }
    let args = match Args::parse(&raw) {
        Ok(a) => a,
        Err(msg) => usage_error(&msg),
    };
    log::init(args.quiet);
    let circuit = match load_circuit(&args) {
        Ok(c) => c,
        Err(msg) => fatal("loading circuit", &msg),
    };
    if args.trace_out.is_some() {
        engine::trace::set_enabled(true);
        engine::trace::job_start();
    }
    match run(&args, &circuit) {
        Ok(outcome) => {
            if let Some(path) = &args.trace_out {
                let buffer = engine::trace::take_thread();
                let doc = engine::trace::chrome_trace(&buffer, &args.input);
                if let Err(e) = std::fs::write(path, doc.render_pretty()) {
                    fatal("writing trace", &format!("`{path}`: {e}"));
                }
                log::info(
                    "tmfrt",
                    "wrote trace",
                    &[
                        ("path", JsonValue::str(path.clone())),
                        ("events", JsonValue::UInt(buffer.events.len() as u64)),
                        ("dropped", JsonValue::UInt(buffer.dropped as u64)),
                    ],
                );
            }
            if !args.quiet {
                eprint!("{}", outcome.report);
            }
            // Output format by extension: .v → Verilog, .dot → Graphviz,
            // anything else (and stdout) → BLIF.
            let render = |path: Option<&str>| match path {
                Some(p) if p.ends_with(".v") => netlist::to_verilog(&outcome.circuit),
                Some(p) if p.ends_with(".dot") => netlist::to_dot(&outcome.circuit),
                _ => netlist::write_blif(&outcome.circuit),
            };
            match &args.output {
                Some(path) => {
                    if let Err(e) = std::fs::write(path, render(Some(path))) {
                        fatal("writing output", &format!("`{path}`: {e}"));
                    }
                    log::info(
                        "tmfrt",
                        "wrote output",
                        &[("path", JsonValue::str(path.clone()))],
                    );
                }
                None => print!("{}", render(None)),
            }
            if outcome.star {
                std::process::exit(3); // distinct status for ⋆ results
            }
        }
        Err(msg) => fatal("run failed", &msg),
    }
}

/// The `tmfrt batch <dir>` subcommand: exits 2 on usage errors, 1 when
/// some circuit failed/panicked/hit its deadline (after reporting the
/// rest), 0 otherwise.
fn run_batch_main(raw: &[String]) {
    let args = match BatchArgs::parse(raw) {
        Ok(a) => a,
        Err(msg) => usage_error(&msg),
    };
    log::init(args.quiet);
    match run_batch_dir(&args) {
        Ok(summary) => {
            for report in &summary.reports {
                if args.quiet && report.outcome.is_completed() {
                    continue;
                }
                match &report.outcome {
                    engine::JobOutcome::Completed(res) => {
                        eprintln!(
                            "=== {} ({:.2}s){}",
                            report.name,
                            report.wall.as_secs_f64(),
                            if res.star { " ⋆" } else { "" }
                        );
                        eprint!("{}", res.report);
                    }
                    engine::JobOutcome::Failed(e) => {
                        log::error(
                            "tmfrt::batch",
                            "job failed",
                            &[
                                ("job", JsonValue::str(report.name.clone())),
                                ("error", JsonValue::str(e.clone())),
                            ],
                        );
                    }
                    engine::JobOutcome::Panicked(msg) => {
                        log::error(
                            "tmfrt::batch",
                            "job panicked",
                            &[
                                ("job", JsonValue::str(report.name.clone())),
                                ("error", JsonValue::str(msg.clone())),
                            ],
                        );
                    }
                    engine::JobOutcome::DeadlineExceeded { limit } => {
                        log::error(
                            "tmfrt::batch",
                            "job deadline exceeded",
                            &[
                                ("job", JsonValue::str(report.name.clone())),
                                ("limit_secs", JsonValue::UInt(limit.as_secs())),
                            ],
                        );
                    }
                }
            }
            if let Some(path) = &args.metrics_out {
                log::info(
                    "tmfrt::batch",
                    "wrote metrics",
                    &[("path", JsonValue::str(path.clone()))],
                );
            }
            let done = summary.reports.len() - summary.failures.len();
            if !args.quiet {
                eprintln!("batch: {done}/{} circuits completed", summary.reports.len());
            }
            if !summary.failures.is_empty() {
                let names: Vec<String> = summary
                    .failures
                    .iter()
                    .map(|(n, s)| format!("{n} ({s})"))
                    .collect();
                eprintln!("incomplete: {}", names.join(", "));
                std::process::exit(1);
            }
        }
        Err(msg) => fatal("batch failed", &msg),
    }
}

/// The `tmfrt fuzz` subcommand: exits 2 on usage errors, 1 when the
/// campaign found any oracle violation (or a job escaped the oracle's
/// panic guards), 0 otherwise — deadline-skipped cases alone do not fail
/// the run.
fn run_fuzz_main(raw: &[String]) {
    let args = match FuzzArgs::parse(raw) {
        Ok(a) => a,
        Err(msg) => usage_error(&msg),
    };
    log::init(args.quiet);
    let report = run_fuzz(&args);
    if !report.clean() {
        std::process::exit(1);
    }
}

/// The `tmfrt stats` subcommand: ingestion report to stdout.
fn run_stats_main(raw: &[String]) {
    let args = match StatsArgs::parse(raw) {
        Ok(a) => a,
        Err(msg) => usage_error(&msg),
    };
    log::init(false);
    match run_stats(&args) {
        Ok(report) => print!("{report}"),
        Err(msg) => fatal("stats failed", &msg),
    }
}

/// The `tmfrt explain` subcommand: Φ-optimality certificate and timing
/// attribution to stdout. Exits 2 on usage errors, 1 on mapping errors
/// or when `--check` fails to verify the certificate.
fn run_explain_main(raw: &[String]) {
    let args = match ExplainArgs::parse(raw) {
        Ok(a) => a,
        Err(msg) => usage_error(&msg),
    };
    log::init(false);
    match run_explain(&args) {
        Ok(report) => print!("{report}"),
        Err(msg) => fatal("explain failed", &msg),
    }
}

/// The `tmfrt profile` subcommand: trace analysis report to stdout,
/// diagnostics to stderr. Exits 2 on usage errors, 1 on unreadable or
/// malformed traces.
fn run_profile_main(raw: &[String]) {
    let args = match ProfileArgs::parse(raw) {
        Ok(a) => a,
        Err(msg) => usage_error(&msg),
    };
    log::init(args.quiet);
    match run_profile(&args) {
        Ok(report) => print!("{report}"),
        Err(msg) => fatal("profile failed", &msg),
    }
}

/// The `tmfrt serve` subcommand: runs until `POST /shutdown`.
fn run_serve_main(raw: &[String]) {
    let args = match ServeArgs::parse(raw) {
        Ok(a) => a,
        Err(msg) => usage_error(&msg),
    };
    log::init(args.quiet);
    if let Err(msg) = run_serve(&args) {
        fatal("serve failed", &msg);
    }
}
