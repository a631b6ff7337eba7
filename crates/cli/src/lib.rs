//! Library backing the `tmfrt` command-line tool: argument parsing and
//! the driver logic, separated from `main` so they can be unit-tested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod batch;
pub mod fuzz;
pub mod profile;
pub mod serve;

use netlist::Circuit;
use std::fmt::Write as _;

/// Which mapping flow to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Algorithm {
    /// Conventional: FlowMap per block + forward retiming.
    FlowMapFrt,
    /// The paper's algorithm: optimal mapping with forward retiming.
    TurboMapFrt,
    /// Optimal mapping with general retiming (initial state may be lost).
    TurboMap,
    /// No mapping: forward retiming only.
    RetimeForward,
    /// No mapping: general (Leiserson–Saxe) retiming only.
    RetimeGeneral,
}

impl std::str::FromStr for Algorithm {
    type Err = String;
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "flowmap-frt" => Ok(Algorithm::FlowMapFrt),
            "turbomap-frt" => Ok(Algorithm::TurboMapFrt),
            "turbomap" => Ok(Algorithm::TurboMap),
            "retime-forward" => Ok(Algorithm::RetimeForward),
            "retime-general" => Ok(Algorithm::RetimeGeneral),
            other => Err(format!(
                "unknown algorithm `{other}` (expected flowmap-frt, turbomap-frt, \
                 turbomap, retime-forward or retime-general)"
            )),
        }
    }
}

/// Parsed command line.
#[derive(Debug, Clone)]
pub struct Args {
    /// Input path (`.blif` or `.kiss2`), or `-` for stdin, or
    /// `gen:<preset>` for a generated Table-1 circuit.
    pub input: String,
    /// Output BLIF path (stdout when absent).
    pub output: Option<String>,
    /// Flow to run.
    pub algorithm: Algorithm,
    /// LUT input bound.
    pub k: usize,
    /// Run the Section-5 backward push preprocessing first.
    pub pushback: bool,
    /// Verify the result by random simulation (vector count).
    pub verify: Option<usize>,
    /// One-hot instead of binary encoding for KISS2 synthesis.
    pub onehot: bool,
    /// Run the LUT packing area post-pass on the mapped result.
    pub pack: bool,
    /// Run structural hashing on the mapped result.
    pub strash: bool,
    /// Intra-job sweep parallelism for turbomap-frt and turbomap
    /// (1 = serial, 0 = auto). Results are identical for every setting.
    pub sweep_workers: usize,
    /// Partition-and-conquer mapping: `None` off, `Some(0)` auto (one
    /// block per ~100k gates), `Some(n)` a fixed block count.
    /// turbomap-frt only.
    pub partitions: Option<usize>,
    /// Block-level worker threads for `--partitions` (0 → one worker).
    /// Results are byte-identical for every setting.
    pub jobs: usize,
    /// Disable warm-starting Φ probes from the previous feasible probe.
    pub no_warm_start: bool,
    /// Write a Chrome-trace JSON of the run's spans to this path.
    pub trace_out: Option<String>,
    /// Write a `turbomap-report/v1` JSON (Φ-optimality certificate +
    /// timing attribution) to this path. Only for `turbomap-frt`.
    pub report: Option<String>,
    /// Generate the report without writing a file and hand the JSON
    /// back in [`RunOutcome::report_json`]. Not a CLI flag — set
    /// programmatically (`tmfrt serve` uses it for `report=1` jobs).
    pub report_inline: bool,
    /// Suppress the progress report on stderr (results and errors still
    /// print: circuit on stdout, errors on stderr).
    pub quiet: bool,
}

impl Args {
    /// Parses raw arguments (without the program name).
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(raw: &[String]) -> Result<Args, String> {
        let mut args = Args {
            input: String::new(),
            output: None,
            algorithm: Algorithm::TurboMapFrt,
            k: 5,
            pushback: false,
            verify: None,
            onehot: false,
            pack: false,
            strash: false,
            sweep_workers: 1,
            partitions: None,
            jobs: 0,
            no_warm_start: false,
            trace_out: None,
            report: None,
            report_inline: false,
            quiet: false,
        };
        // `tmfrt map <input> …` is an explicit alias for the default
        // single-circuit mode (symmetric with `tmfrt batch …`).
        let raw = match raw.first().map(String::as_str) {
            Some("map") => &raw[1..],
            _ => raw,
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-o" | "--output" => {
                    args.output = Some(
                        it.next()
                            .ok_or_else(|| "--output needs a path".to_string())?
                            .clone(),
                    );
                }
                "-a" | "--algorithm" => {
                    args.algorithm = it
                        .next()
                        .ok_or_else(|| "--algorithm needs a name".to_string())?
                        .parse()?;
                }
                "-k" => {
                    args.k = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "-k needs a number ≥ 2".to_string())?;
                    if args.k < 2 {
                        return Err("-k must be at least 2".into());
                    }
                }
                "--pushback" => args.pushback = true,
                "--verify" => {
                    args.verify = Some(
                        it.next()
                            .and_then(|v| v.parse().ok())
                            .ok_or_else(|| "--verify needs a vector count".to_string())?,
                    );
                }
                "--onehot" => args.onehot = true,
                "--pack" => args.pack = true,
                "--strash" => args.strash = true,
                "--sweep-workers" => {
                    args.sweep_workers = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--sweep-workers needs a count (0 = auto)".to_string())?;
                }
                "--partitions" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--partitions needs a count or `auto`".to_string())?;
                    args.partitions = Some(parse_partitions(v)?);
                }
                "--jobs" => {
                    args.jobs = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--jobs needs a count (0 = one worker)".to_string())?;
                }
                "--no-warm-start" => args.no_warm_start = true,
                "--trace-out" => {
                    args.trace_out = Some(
                        it.next()
                            .ok_or_else(|| "--trace-out needs a path".to_string())?
                            .clone(),
                    );
                }
                "--report" => {
                    args.report = Some(
                        it.next()
                            .ok_or_else(|| "--report needs a path".to_string())?
                            .clone(),
                    );
                }
                "-q" | "--quiet" => args.quiet = true,
                "-h" | "--help" => return Err(USAGE.to_string()),
                other if args.input.is_empty() && !other.starts_with('-') => {
                    args.input = other.to_string();
                }
                other => return Err(format!("unexpected argument `{other}`\n{USAGE}")),
            }
        }
        if args.input.is_empty() {
            return Err(USAGE.to_string());
        }
        Ok(args)
    }
}

/// Parses a `--partitions` (or `partitions=`) value: `auto` → 0,
/// otherwise a block count ≥ 1.
pub(crate) fn parse_partitions(v: &str) -> Result<usize, String> {
    if v == "auto" {
        return Ok(0);
    }
    match v.parse::<usize>() {
        Ok(n) if n >= 1 => Ok(n),
        _ => Err("--partitions needs a count ≥ 1 or `auto`".into()),
    }
}

/// Usage text.
pub const USAGE: &str = "\
tmfrt — FPGA mapping with forward retiming (Cong & Wu, DAC'98 reproduction)

USAGE: tmfrt [map] <input> [-o out.blif] [-a ALGO] [-k K] [--pushback] [--verify N]
             [--partitions K|auto] [--jobs N] [--onehot] [--trace-out t.json]
             [--report r.json] [-q]
       tmfrt explain <input> [-k K] [--json] [--check] …  (see `tmfrt explain --help`)
       tmfrt batch <dir> [--jobs N] [--timeout-secs S] [-o OUTDIR] …  (see `tmfrt batch --help`)
       tmfrt fuzz [--seed A..=B] [--cases N] [--jobs N] …  (see `tmfrt fuzz --help`)
       tmfrt stats <input> [--onehot]  (see `tmfrt stats --help`)

  <input>      circuit: a .blif file (flat or hierarchical — multi-model
               files are flattened), a .kiss2 file, `-` (BLIF on stdin),
               or gen:<name> for a generated benchmark (a Table-1 preset
               like gen:sand, or a large ingest preset like gen:hier100k)
  -a ALGO      flowmap-frt | turbomap-frt (default) | turbomap |
               retime-forward | retime-general
  -k K         LUT input bound (default 5; ignored by retime-*)
  --pushback   push registers toward the PIs first (Section-5 methodology)
  --verify N   check sequential equivalence with N random vectors
  --onehot     one-hot state encoding for KISS2 inputs (default binary)
  --pack       LUT packing area post-pass on the result
  --strash     structural hashing (duplicate-logic sweep) on the result
  --sweep-workers N
               threads for the turbomap-frt and turbomap label sweeps
               (default 1, 0 = all cores); any N gives byte-identical
               results
  --partitions K|auto
               partition-and-conquer: split the design at FF boundaries
               into K blocks (auto = one per ~100k gates), map each with
               turbomap-frt, stitch the results (turbomap-frt only)
  --jobs N     block-level workers for --partitions (default 1); any N
               gives byte-identical results
  --no-warm-start
               cold-start every Φ probe (A/B switch; results unchanged)
  --trace-out  write a Chrome-trace JSON of the run's spans (open in
               Perfetto or chrome://tracing)
  --report     write a turbomap-report/v1 JSON (Φ-optimality certificate
               plus timing attribution; turbomap-frt only)
  -q, --quiet  suppress the progress report on stderr

Results go to stdout (or -o); progress and errors go to stderr.";

/// Loads a circuit from the CLI input specification.
///
/// # Errors
///
/// Returns a human-readable message on I/O, parse or synthesis errors.
pub fn load_circuit(args: &Args) -> Result<Circuit, String> {
    load_input(&args.input, args.onehot)
}

/// Loads a circuit from an input specification (path, `-`, or
/// `gen:<preset>`) — the shared front door of `map`, `explain` and
/// `stats`.
///
/// # Errors
///
/// Returns a human-readable message on I/O, parse or synthesis errors.
pub fn load_input(input: &str, onehot: bool) -> Result<Circuit, String> {
    if let Some(name) = input.strip_prefix("gen:") {
        if let Some(preset) = workloads::presets().into_iter().find(|p| p.name == name) {
            return Ok(workloads::build_preset(&preset));
        }
        if let Some(spec) = workloads::large_preset(name) {
            // Route the generated hierarchy through the streaming
            // front-end, so `gen:hier*` exercises the same ingest path
            // as a file on disk.
            return blifio::read_circuit_str(&workloads::hier_to_string(&spec))
                .map_err(|e| e.to_string());
        }
        return Err(format!(
            "unknown preset `{name}`; available: {}",
            workloads::presets()
                .iter()
                .map(|p| p.name)
                .map(String::from)
                .chain(workloads::large_presets().iter().map(|s| s.name.clone()))
                .collect::<Vec<_>>()
                .join(", ")
        ));
    }
    let enc = if onehot {
        workloads::Encoding::OneHot
    } else {
        workloads::Encoding::Binary
    };
    let link = blifio::LinkOptions {
        encoding: enc,
        ..blifio::LinkOptions::default()
    };
    // Stream straight from the file unless the extension or a 4 KiB
    // header probe says KISS2; hierarchical, multi-model and
    // yosys-extended BLIF all flatten here without the text ever being
    // held whole.
    if input != "-" && !looks_like_kiss(input, "") && !probe_kiss(input)? {
        return blifio::read_circuit_path_opts(input, &link).map_err(|e| e.to_string());
    }
    let text = if input == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        buf
    } else {
        std::fs::read_to_string(input).map_err(|e| format!("reading `{}`: {e}", input))?
    };
    if looks_like_kiss(input, &text) {
        let stg = workloads::parse_kiss2(&text).map_err(|e| e.to_string())?;
        workloads::synthesize_stg(&stg, enc, "kiss2").map_err(|e| e.to_string())
    } else {
        blifio::read_circuit_str_opts(&text, &link).map_err(|e| e.to_string())
    }
}

/// KISS2 detection: by extension, or by the `.i`/`.s`/`.r` header shape
/// when the content is available.
fn looks_like_kiss(path: &str, text: &str) -> bool {
    path.ends_with(".kiss2")
        || path.ends_with(".kiss")
        || text.contains("\n.s ")
        || text.starts_with(".i ") && text.contains(".r ")
}

/// Checks the first 4 KiB of a file for the KISS2 header shape without
/// reading the whole file (large BLIF inputs stay streamed).
fn probe_kiss(path: &str) -> Result<bool, String> {
    use std::io::Read;
    let mut f = std::fs::File::open(path).map_err(|e| format!("reading `{path}`: {e}"))?;
    let mut head = [0u8; 4096];
    let n = f
        .read(&mut head)
        .map_err(|e| format!("reading `{path}`: {e}"))?;
    let text = String::from_utf8_lossy(&head[..n]);
    Ok(looks_like_kiss("", &text))
}

/// Parsed `tmfrt stats` command line.
#[derive(Debug, Clone)]
pub struct StatsArgs {
    /// Input path, `-` for stdin, or `gen:<preset>`.
    pub input: String,
    /// One-hot encoding for embedded KISS FSMs.
    pub onehot: bool,
    /// Partition preview: `None` off, `Some(0)` auto, `Some(n)` a fixed
    /// block count. Plans the FF-boundary partition without mapping.
    pub partition_preview: Option<usize>,
    /// LUT input bound for the preview's Φ estimate.
    pub k: usize,
}

impl StatsArgs {
    /// Parses raw arguments (after the `stats` word).
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(raw: &[String]) -> Result<StatsArgs, String> {
        let mut args = StatsArgs {
            input: String::new(),
            onehot: false,
            partition_preview: None,
            k: 5,
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--onehot" => args.onehot = true,
                "--partition-preview" => {
                    let v = it
                        .next()
                        .ok_or_else(|| "--partition-preview needs a count or `auto`".to_string())?;
                    args.partition_preview = Some(
                        parse_partitions(v)
                            .map_err(|_| "--partition-preview needs a count ≥ 1 or `auto`")?,
                    );
                }
                "-k" => {
                    args.k = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "-k needs a number ≥ 2".to_string())?;
                    if args.k < 2 {
                        return Err("-k must be at least 2".into());
                    }
                }
                "-h" | "--help" => return Err(STATS_USAGE.to_string()),
                other if args.input.is_empty() && !other.starts_with('-') => {
                    args.input = other.to_string();
                }
                other => return Err(format!("unexpected argument `{other}`\n{STATS_USAGE}")),
            }
        }
        if args.input.is_empty() {
            return Err(STATS_USAGE.to_string());
        }
        Ok(args)
    }
}

/// Usage text for `tmfrt stats`.
pub const STATS_USAGE: &str = "\
tmfrt stats — ingestion report: per-model counts and post-flatten totals

USAGE: tmfrt stats <input> [--onehot] [--partition-preview K|auto] [-k K]

  <input>    a .blif file (flat or hierarchical), a .kiss2 file, `-`
             (BLIF on stdin), or gen:<preset>
  --onehot   one-hot state encoding for embedded KISS FSMs
  --partition-preview K|auto
             plan the FF-boundary partition without mapping: SCC and
             cluster counts, per-block gates, cut size, Φ estimate
  -k K       LUT bound for the preview's Φ estimate (default 5)";

/// Runs `tmfrt stats`: for BLIF inputs, a per-model table (PI/PO, gates,
/// latches, subckts, KISS blocks) followed by the flattened circuit's
/// totals; for KISS2 and generated inputs, just the circuit totals.
///
/// # Errors
///
/// Returns a human-readable message on I/O or parse errors.
pub fn run_stats(args: &StatsArgs) -> Result<String, String> {
    let enc = if args.onehot {
        workloads::Encoding::OneHot
    } else {
        workloads::Encoding::Binary
    };
    let link = blifio::LinkOptions {
        encoding: enc,
        ..blifio::LinkOptions::default()
    };
    let pv = args.partition_preview.map(|p| (p, args.k));
    let circuit_only = |c: &Circuit| -> Result<String, String> {
        let stats = netlist::CircuitStats::of(c).map_err(|e| e.to_string())?;
        let mut out = format!("flat:   {stats}\n");
        if let Some((p, k)) = pv {
            out.push_str(&render_partition_preview(c, p, k));
        }
        Ok(out)
    };
    if let Some(name) = args.input.strip_prefix("gen:") {
        if let Some(preset) = workloads::presets().into_iter().find(|p| p.name == name) {
            return circuit_only(&workloads::build_preset(&preset));
        }
        if let Some(spec) = workloads::large_preset(name) {
            let file =
                blifio::parse_str(&workloads::hier_to_string(&spec)).map_err(|e| e.to_string())?;
            return render_file_stats(&file, &link, pv);
        }
        return Err(format!("unknown preset `{name}`"));
    }
    if args.input != "-" && (looks_like_kiss(&args.input, "") || probe_kiss(&args.input)?) {
        let text = std::fs::read_to_string(&args.input)
            .map_err(|e| format!("reading `{}`: {e}", args.input))?;
        let stg = workloads::parse_kiss2(&text).map_err(|e| e.to_string())?;
        let c = workloads::synthesize_stg(&stg, enc, "kiss2").map_err(|e| e.to_string())?;
        return circuit_only(&c);
    }
    let file = if args.input == "-" {
        use std::io::Read;
        let mut buf = String::new();
        std::io::stdin()
            .read_to_string(&mut buf)
            .map_err(|e| format!("reading stdin: {e}"))?;
        blifio::parse_str(&buf).map_err(|e| e.to_string())?
    } else {
        blifio::parse_path(&args.input).map_err(|e| e.to_string())?
    };
    render_file_stats(&file, &link, pv)
}

/// Renders the `--partition-preview` block: the planned FF-boundary
/// partition of `c` into `requested` blocks (0 = auto) at LUT bound `k`,
/// without running the mapper.
fn render_partition_preview(c: &Circuit, requested: usize, k: usize) -> String {
    let blocks = if requested == 0 {
        partition::auto_blocks(c.num_gates())
    } else {
        requested
    };
    let pv = partition::preview(c, blocks, k);
    let mut out = String::new();
    writeln!(
        out,
        "partition preview ({} blocks requested{}):",
        pv.requested_blocks,
        if requested == 0 { ", auto" } else { "" }
    )
    .ok();
    writeln!(
        out,
        "  {} SCC components, {} FF-boundary clusters -> {} blocks",
        pv.components, pv.clusters, pv.blocks
    )
    .ok();
    writeln!(
        out,
        "  block gates: {:?} (imbalance {:.2})",
        pv.block_gates, pv.imbalance
    )
    .ok();
    writeln!(
        out,
        "  cut: {} edges, {} FFs; Φ_est {}, min slack {}, {} contracts",
        pv.cut_edges, pv.cut_ffs, pv.phi_estimate, pv.min_slack, pv.contracts
    )
    .ok();
    out
}

/// The per-model table plus post-flatten totals for a parsed BLIF file;
/// `preview` appends a `--partition-preview` block for the flat circuit.
fn render_file_stats(
    file: &blifio::BlifFile,
    link: &blifio::LinkOptions,
    preview: Option<(usize, usize)>,
) -> Result<String, String> {
    let mut out = netlist::stats::render_model_table(&file.model_counts());
    let flat = blifio::flatten(file, link).map_err(|e| e.to_string())?;
    let stats = netlist::CircuitStats::of(&flat).map_err(|e| e.to_string())?;
    write!(out, "\nflat:   {stats}\n").ok();
    if let Some((p, k)) = preview {
        out.push_str(&render_partition_preview(&flat, p, k));
    }
    Ok(out)
}

/// Parsed `tmfrt explain` command line.
#[derive(Debug, Clone)]
pub struct ExplainArgs {
    /// Input path, `-` for stdin, or `gen:<preset>`.
    pub input: String,
    /// LUT input bound.
    pub k: usize,
    /// One-hot encoding for KISS2 inputs.
    pub onehot: bool,
    /// Print the `turbomap-report/v1` JSON instead of the table.
    pub json: bool,
    /// Run the independent certificate checker on the rendered report
    /// and fail unless the Φ−1 witness verifies.
    pub check: bool,
    /// Also write the report JSON to this path.
    pub out: Option<String>,
    /// Sweep parallelism (1 = serial, 0 = auto); report bytes are
    /// identical for every setting.
    pub sweep_workers: usize,
}

impl ExplainArgs {
    /// Parses raw arguments (after the `explain` word).
    ///
    /// # Errors
    ///
    /// Returns a usage message on malformed input.
    pub fn parse(raw: &[String]) -> Result<ExplainArgs, String> {
        let mut args = ExplainArgs {
            input: String::new(),
            k: 5,
            onehot: false,
            json: false,
            check: false,
            out: None,
            sweep_workers: 1,
        };
        let mut it = raw.iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "-k" => {
                    args.k = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "-k needs a number ≥ 2".to_string())?;
                    if args.k < 2 {
                        return Err("-k must be at least 2".into());
                    }
                }
                "--onehot" => args.onehot = true,
                "--json" => args.json = true,
                "--check" => args.check = true,
                "-o" | "--output" => {
                    args.out = Some(
                        it.next()
                            .ok_or_else(|| "--output needs a path".to_string())?
                            .clone(),
                    );
                }
                "--sweep-workers" => {
                    args.sweep_workers = it
                        .next()
                        .and_then(|v| v.parse().ok())
                        .ok_or_else(|| "--sweep-workers needs a count (0 = auto)".to_string())?;
                }
                "-h" | "--help" => return Err(EXPLAIN_USAGE.to_string()),
                other if args.input.is_empty() && !other.starts_with('-') => {
                    args.input = other.to_string();
                }
                other => return Err(format!("unexpected argument `{other}`\n{EXPLAIN_USAGE}")),
            }
        }
        if args.input.is_empty() {
            return Err(EXPLAIN_USAGE.to_string());
        }
        Ok(args)
    }
}

/// Usage text for `tmfrt explain`.
pub const EXPLAIN_USAGE: &str = "\
tmfrt explain — why is Φ optimal? certificate + timing attribution

Maps the circuit with turbomap-frt, then reports (a) a replayable
derivation witness that period Φ−1 has no simple FRT mapping solution
and (b) per-LUT depth/slack, the critical path, label pairs and the
retiming summary.

USAGE: tmfrt explain <input> [-k K] [--json] [--check] [-o r.json]
                     [--onehot] [--sweep-workers N]

  <input>    a .blif file, a .kiss2 file, `-` (BLIF on stdin), or
             gen:<preset>
  -k K       LUT input bound (default 5)
  --json     print the turbomap-report/v1 JSON instead of the table
  --check    replay the rendered report through the independent checker
             (own frt/cone/max-flow arithmetic); exit non-zero unless
             the Φ−1 witness verifies
  -o PATH    also write the report JSON to PATH
  --onehot   one-hot state encoding for KISS2 inputs
  --sweep-workers N
             label-sweep threads (default 1, 0 = all cores); the report
             bytes are identical for every setting";

/// Runs `tmfrt explain`: maps, assembles the report, optionally verifies
/// it with the independent checker, and renders table or JSON.
///
/// # Errors
///
/// Returns a human-readable message on load/mapping errors, and a
/// `certificate check FAILED: …` message when `--check` does not verify.
pub fn run_explain(args: &ExplainArgs) -> Result<String, String> {
    let circuit = load_input(&args.input, args.onehot)?;
    let mut opts = turbomap::Options::with_k(args.k);
    opts.sweep_workers = args.sweep_workers;
    let explained = report::explain(&circuit, opts).map_err(|e| e.to_string())?;
    let json = explained.to_json().render_pretty();
    let mut check_line = None;
    if args.check {
        // Verify the *rendered* bytes: parse back, then replay with the
        // checker's own arithmetic, so the round trip is covered too.
        let parsed = engine::JsonValue::parse(&json)
            .map_err(|e| format!("certificate check FAILED: report does not re-parse: {e}"))?;
        let summary = report::verify(&parsed, &circuit, &explained.result.circuit)
            .map_err(|e| format!("certificate check FAILED: {e}"))?;
        match summary.witness {
            report::WitnessVerdict::Verified {
                steps,
                ref terminal_node,
                terminal_value,
            } => {
                check_line = Some(format!(
                    "checker: witness VERIFIED — {steps} steps replay; {terminal_node} \
                     reaches l^s = {terminal_value} > {}; {} node timings re-derived{}",
                    explained.report.witness.phi_tested,
                    summary.nodes_checked,
                    if summary.cycle_checked {
                        "; critical cycle re-verified"
                    } else {
                        ""
                    }
                ));
            }
            report::WitnessVerdict::Unavailable { reason } => {
                return Err(format!(
                    "certificate check FAILED: no verifiable witness ({reason})"
                ));
            }
        }
    }
    if let Some(path) = &args.out {
        std::fs::write(path, &json).map_err(|e| format!("writing `{path}`: {e}"))?;
    }
    if args.json {
        Ok(json)
    } else {
        let mut out = explained.report.render_table();
        if let Some(line) = check_line {
            out.push_str(&line);
            out.push('\n');
        }
        Ok(out)
    }
}

/// The result of one CLI run.
#[derive(Debug)]
pub struct RunOutcome {
    /// The produced circuit.
    pub circuit: Circuit,
    /// Human-readable summary lines.
    pub report: String,
    /// The rendered `turbomap-report/v1` document, when requested via
    /// [`Args::report`] or [`Args::report_inline`].
    pub report_json: Option<String>,
    /// True when the initial state was lost (general retiming only).
    pub star: bool,
}

/// Runs the selected flow.
///
/// # Errors
///
/// Returns a human-readable message on algorithm failures.
pub fn run(args: &Args, input: &Circuit) -> Result<RunOutcome, String> {
    if (args.report.is_some() || args.report_inline) && args.algorithm != Algorithm::TurboMapFrt {
        return Err("--report is only available with -a turbomap-frt".into());
    }
    if args.partitions.is_some() {
        if args.algorithm != Algorithm::TurboMapFrt {
            return Err("--partitions is only available with -a turbomap-frt".into());
        }
        if args.report.is_some() || args.report_inline {
            return Err(
                "--report is not available with --partitions (the Φ-optimality \
                        certificate is monolithic)"
                    .into(),
            );
        }
    }
    let mut report = String::new();
    let mut report_json: Option<String> = None;
    let stats = netlist::CircuitStats::of(input).map_err(|e| e.to_string())?;
    writeln!(report, "input:  {stats}").ok();

    let source = if args.pushback {
        let (pushed, _, pstats) = retiming::push_registers_backward(input, 32);
        writeln!(
            report,
            "pushback: {} backward moves ({} conflicts, {} unjustifiable)",
            pstats.moves, pstats.conflicts, pstats.unjustifiable
        )
        .ok();
        pushed
    } else {
        input.clone()
    };

    let (circuit, star) = match args.algorithm {
        Algorithm::FlowMapFrt => {
            let prep = turbomap::prepare(&source, args.k).map_err(|e| e.to_string())?;
            let r = flowmap::flowmap_frt(&prep, args.k).map_err(|e| e.to_string())?;
            writeln!(
                report,
                "flowmap-frt: Φ = {}, {} LUTs, {} FFs",
                r.period, r.luts, r.ffs
            )
            .ok();
            (r.circuit, false)
        }
        Algorithm::TurboMapFrt => {
            let mut opts = turbomap::Options::with_k(args.k);
            opts.sweep_workers = args.sweep_workers;
            opts.warm_start = !args.no_warm_start;
            if args.report.is_some() || args.report_inline {
                // The report pipeline wraps the same mapping run, so the
                // circuit comes out of `explain` rather than mapping twice.
                let explained = report::explain(&source, opts).map_err(|e| e.to_string())?;
                let doc = explained.to_json().render_pretty();
                if let Some(path) = &args.report {
                    std::fs::write(path, &doc).map_err(|e| format!("writing `{path}`: {e}"))?;
                    writeln!(report, "report: wrote {path}").ok();
                }
                report_json = Some(doc);
                let r = explained.result;
                writeln!(
                    report,
                    "turbomap-frt: Φ = {}, {} LUTs, {} FFs (initial state guaranteed)",
                    r.period, r.luts, r.ffs
                )
                .ok();
                (r.circuit, false)
            } else if let Some(p) = args.partitions {
                let blocks = if p == 0 {
                    partition::auto_blocks(source.num_gates())
                } else {
                    p
                };
                let mut popts = partition::PartitionOptions::new(args.k, blocks);
                popts.jobs = args.jobs;
                popts.sweep_workers = args.sweep_workers;
                let r = partition::partition_map(&source, &popts).map_err(|e| e.to_string())?;
                let pr = &r.report;
                writeln!(
                    report,
                    "partition: {} blocks (requested {}), {} clusters / {} components, \
                     cut {} edges / {} FFs",
                    pr.blocks,
                    pr.requested_blocks,
                    pr.clusters,
                    pr.components,
                    pr.cut_edges,
                    pr.cut_ffs
                )
                .ok();
                writeln!(
                    report,
                    "partition: Φ_est {}, min slack {}, {}/{} contract violations, \
                     imbalance {:.2}, {} seam FFs restored",
                    pr.phi_estimate,
                    pr.min_slack,
                    pr.contract_violations,
                    pr.contracts,
                    pr.imbalance,
                    pr.stitch.seam_ffs
                )
                .ok();
                for b in &pr.block_outcomes {
                    writeln!(
                        report,
                        "  block {}: {} gates, {} cut FFs -> Φ {}, {} LUTs ({:.1} ms){}",
                        b.name,
                        b.gates,
                        b.cut_ffs,
                        b.phi,
                        b.luts,
                        b.wall.as_secs_f64() * 1e3,
                        if b.passthrough { " [passthrough]" } else { "" }
                    )
                    .ok();
                }
                writeln!(
                    report,
                    "turbomap-frt[partitioned]: Φ = {}, {} LUTs, {} FFs \
                     (initial state guaranteed)",
                    pr.phi, pr.luts, pr.ffs
                )
                .ok();
                (r.circuit, false)
            } else {
                let r = turbomap::turbomap_frt(&source, opts).map_err(|e| e.to_string())?;
                writeln!(
                    report,
                    "turbomap-frt: Φ = {}, {} LUTs, {} FFs (initial state guaranteed)",
                    r.period, r.luts, r.ffs
                )
                .ok();
                (r.circuit, false)
            }
        }
        Algorithm::TurboMap => {
            let mut opts = turbomap::Options::with_k(args.k);
            opts.sweep_workers = args.sweep_workers;
            opts.warm_start = !args.no_warm_start;
            let r = turbomap::turbomap_general(&source, opts).map_err(|e| e.to_string())?;
            writeln!(
                report,
                "turbomap: Φ = {}, {} LUTs, {} FFs{}",
                r.period,
                r.luts,
                r.ffs,
                if r.star() {
                    " — ⋆ NO usable equivalent initial state"
                } else {
                    ""
                }
            )
            .ok();
            let star = r.star();
            (r.circuit, star)
        }
        Algorithm::RetimeForward => {
            let r = retiming::retime_min_period_forward(&source).map_err(|e| e.to_string())?;
            writeln!(report, "retime-forward: Φ = {}", r.period).ok();
            (r.circuit, false)
        }
        Algorithm::RetimeGeneral => match retiming::retime_min_period_general(&source) {
            Ok(r) => {
                writeln!(report, "retime-general: Φ = {}", r.period).ok();
                (r.circuit, false)
            }
            Err(e) => {
                return Err(format!(
                    "retime-general failed to compute an initial state: {e} \
                     (this is the NP-hard case the paper avoids)"
                ))
            }
        },
    };

    let circuit = if args.strash {
        let r = netlist::strash(&circuit).map_err(|e| e.to_string())?;
        writeln!(report, "strash: merged {} duplicate gates", r.merged).ok();
        r.circuit
    } else {
        circuit
    };
    let circuit = if args.pack {
        let r = flowmap::pack_luts(&circuit, args.k).map_err(|e| e.to_string())?;
        writeln!(report, "pack: removed {} LUTs", r.packed).ok();
        r.circuit
    } else {
        circuit
    };
    if let Some(n) = args.verify {
        let eq = netlist::random_equiv(input, &circuit, n, 0x7E57)
            .map_err(|e| e.to_string())?
            .is_equivalent();
        writeln!(
            report,
            "verify: {}",
            if eq {
                "equivalent".to_string()
            } else if star {
                "NOT equivalent (expected: the initial state was lost)".to_string()
            } else {
                return Err("verification FAILED on a non-starred result".into());
            }
        )
        .ok();
    }
    let out_stats = netlist::CircuitStats::of(&circuit).map_err(|e| e.to_string())?;
    writeln!(report, "output: {out_stats}").ok();
    Ok(RunOutcome {
        circuit,
        report,
        report_json,
        star,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_defaults() {
        let a = Args::parse(&argv("gen:sand")).unwrap();
        assert_eq!(a.algorithm, Algorithm::TurboMapFrt);
        assert_eq!(a.k, 5);
        assert!(!a.pushback);
    }

    #[test]
    fn parses_all_flags() {
        let a = Args::parse(&argv(
            "in.blif -o out.blif -a turbomap -k 4 --pushback --verify 100 --onehot",
        ))
        .unwrap();
        assert_eq!(a.algorithm, Algorithm::TurboMap);
        assert_eq!(a.k, 4);
        assert!(a.pushback);
        assert_eq!(a.verify, Some(100));
        assert!(a.onehot);
        assert_eq!(a.output.as_deref(), Some("out.blif"));
    }

    #[test]
    fn parses_reuse_knobs() {
        let a = Args::parse(&argv("gen:sand --sweep-workers 4 --no-warm-start")).unwrap();
        assert_eq!(a.sweep_workers, 4);
        assert!(a.no_warm_start);
        let b = Args::parse(&argv("gen:sand --sweep-workers 0")).unwrap();
        assert_eq!(b.sweep_workers, 0);
        assert!(Args::parse(&argv("gen:sand --sweep-workers")).is_err());
        // Defaults: serial sweeps, warm starts on.
        let d = Args::parse(&argv("gen:sand")).unwrap();
        assert_eq!(d.sweep_workers, 1);
        assert!(!d.no_warm_start);
    }

    #[test]
    fn parses_partition_flags() {
        let a = Args::parse(&argv("gen:sand --partitions 4 --jobs 2")).unwrap();
        assert_eq!(a.partitions, Some(4));
        assert_eq!(a.jobs, 2);
        let b = Args::parse(&argv("gen:sand --partitions auto")).unwrap();
        assert_eq!(b.partitions, Some(0));
        assert!(Args::parse(&argv("gen:sand --partitions 0")).is_err());
        assert!(Args::parse(&argv("gen:sand --partitions")).is_err());
        // Default: off, serial block fan-out.
        let d = Args::parse(&argv("gen:sand")).unwrap();
        assert_eq!(d.partitions, None);
        assert_eq!(d.jobs, 0);
    }

    #[test]
    fn partitions_require_turbomap_frt() {
        let args = Args::parse(&argv("gen:dk17 -a turbomap --partitions 2")).unwrap();
        let c = load_circuit(&args).unwrap();
        let e = run(&args, &c).unwrap_err();
        assert!(e.contains("--partitions"));
    }

    #[test]
    fn end_to_end_partitioned_preset() {
        let args = Args::parse(&argv("gen:dk17 --partitions 2 --jobs 2 --verify 256")).unwrap();
        let c = load_circuit(&args).unwrap();
        let out = run(&args, &c).unwrap();
        assert!(out.report.contains("partition:"));
        assert!(out.report.contains("turbomap-frt[partitioned]"));
        assert!(out.report.contains("verify: equivalent"));
    }

    #[test]
    fn stats_partition_preview() {
        let args = StatsArgs::parse(&argv("gen:dk17 --partition-preview 2")).unwrap();
        assert_eq!(args.partition_preview, Some(2));
        let out = run_stats(&args).unwrap();
        assert!(out.contains("partition preview"));
        assert!(out.contains("cut:"));
        let auto = StatsArgs::parse(&argv("gen:dk17 --partition-preview auto -k 4")).unwrap();
        assert_eq!(auto.partition_preview, Some(0));
        assert_eq!(auto.k, 4);
        assert!(run_stats(&auto).unwrap().contains("auto"));
        assert!(StatsArgs::parse(&argv("gen:dk17 --partition-preview -3")).is_err());
    }

    #[test]
    fn map_alias_and_observability_flags() {
        let a = Args::parse(&argv("map in.blif --trace-out t.json -q")).unwrap();
        assert_eq!(a.input, "in.blif");
        assert_eq!(a.trace_out.as_deref(), Some("t.json"));
        assert!(a.quiet);
        // `map` is only consumed in the leading position.
        let b = Args::parse(&argv("map --quiet")).unwrap_err();
        assert!(b.contains("USAGE"));
    }

    #[test]
    fn rejects_bad_input() {
        assert!(Args::parse(&argv("")).is_err());
        assert!(Args::parse(&argv("x.blif -k 1")).is_err());
        assert!(Args::parse(&argv("x.blif -a nosuch")).is_err());
        assert!(Args::parse(&argv("x.blif --bogus")).is_err());
    }

    #[test]
    fn end_to_end_on_preset() {
        let args = Args::parse(&argv("gen:dk17 --verify 256")).unwrap();
        let c = load_circuit(&args).unwrap();
        let out = run(&args, &c).unwrap();
        assert!(out.report.contains("turbomap-frt"));
        assert!(out.report.contains("verify: equivalent"));
        assert!(!out.star);
    }

    #[test]
    fn end_to_end_blif_text() {
        let blif = "\
.model t
.inputs a
.outputs z
.names a s z
10 1
01 1
.latch z s 0
.end
";
        let dir = std::env::temp_dir().join("tmfrt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.blif");
        std::fs::write(&path, blif).unwrap();
        let args = Args::parse(&argv(&format!(
            "{} -a flowmap-frt --verify 64",
            path.display()
        )))
        .unwrap();
        let c = load_circuit(&args).unwrap();
        let out = run(&args, &c).unwrap();
        assert!(out.report.contains("flowmap-frt"));
    }

    #[test]
    fn kiss2_input_detected() {
        let kiss = ".i 1\n.o 1\n.s 2\n.r A\n1 A B 1\n- B A 0\n.e\n";
        let dir = std::env::temp_dir().join("tmfrt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.kiss2");
        std::fs::write(&path, kiss).unwrap();
        let args = Args::parse(&argv(&format!("{} --verify 64", path.display()))).unwrap();
        let c = load_circuit(&args).unwrap();
        assert!(c.ff_count_shared() >= 1);
        let out = run(&args, &c).unwrap();
        assert!(out.report.contains("equivalent"));
    }

    #[test]
    fn pack_and_strash_flags() {
        let args = Args::parse(&argv("gen:dk17 --pack --strash --verify 128")).unwrap();
        assert!(args.pack && args.strash);
        let c = load_circuit(&args).unwrap();
        let out = run(&args, &c).unwrap();
        assert!(out.report.contains("pack: removed"));
        assert!(out.report.contains("strash: merged"));
        assert!(out.report.contains("verify: equivalent"));
    }

    const HIER: &str = "\
.model top
.inputs a b
.outputs z
.subckt and2m x=a y=b o=z
.end
.model and2m
.inputs x y
.outputs o
.names x y o
11 1
.end
";

    #[test]
    fn loads_hierarchical_blif() {
        let dir = std::env::temp_dir().join("tmfrt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hier.blif");
        std::fs::write(&path, HIER).unwrap();
        let args = Args::parse(&argv(&format!("{} --verify 32", path.display()))).unwrap();
        let c = load_circuit(&args).unwrap();
        assert_eq!(c.name(), "top");
        assert_eq!(c.num_gates(), 1);
        let out = run(&args, &c).unwrap();
        assert!(out.report.contains("verify: equivalent"));
    }

    #[test]
    fn stats_reports_models_and_flat_totals() {
        let dir = std::env::temp_dir().join("tmfrt_test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("hier_stats.blif");
        std::fs::write(&path, HIER).unwrap();
        let args = StatsArgs::parse(&argv(&path.display().to_string())).unwrap();
        let report = run_stats(&args).unwrap();
        assert!(report.contains("top"), "{report}");
        assert!(report.contains("and2m"), "{report}");
        assert!(report.contains("flat:"), "{report}");
    }

    #[test]
    fn stats_parses_flags() {
        let a = StatsArgs::parse(&argv("x.blif --onehot")).unwrap();
        assert!(a.onehot);
        assert!(StatsArgs::parse(&argv("")).is_err());
        assert!(StatsArgs::parse(&argv("x.blif --bogus")).is_err());
    }

    #[test]
    fn unknown_preset_lists_large_suite() {
        let args = Args::parse(&argv("gen:nosuch")).unwrap();
        let err = load_circuit(&args).unwrap_err();
        assert!(err.contains("hier100k"), "{err}");
        assert!(err.contains("sand"), "{err}");
    }

    #[test]
    fn pushback_flow_runs() {
        let args = Args::parse(&argv("gen:ex2 --pushback --verify 128")).unwrap();
        let c = load_circuit(&args).unwrap();
        let out = run(&args, &c).unwrap();
        assert!(out.report.contains("pushback"));
        assert!(out.report.contains("verify: equivalent"));
    }
}
