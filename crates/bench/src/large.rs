//! The large-workload ingestion suite: generate each `workloads::large`
//! preset to disk, time the streaming front-end parsing and flattening
//! it, then time a vectorized **verify phase** over the flattened
//! circuit.
//!
//! Unlike the Table-1 suite this measures the *front-end*, not the
//! mappers: the interesting numbers are file size, model/gate/FF
//! totals (deterministic for a preset — any drift is a generator or
//! linker regression) and the parse/flatten/verify wall times
//! (reported, and zeroed in canonical artifacts like every other
//! timing field).
//!
//! The verify phase drives [`VERIFY_LANES`] independent random input
//! sequences through the circuit on **both** simulation engines — the
//! 64-wide two-bitplane [`netlist::VecSimulator`] in one pass, and the
//! scalar [`netlist::Simulator`] one sequence at a time — and requires
//! their outputs to agree bit-for-bit. That makes every suite run a
//! full-scale differential test of the vector engine, and the two wall
//! times quantify the vectorization speedup on exactly the workload
//! the equivalence checkers see (`verify_scalar_secs / verify_secs`,
//! gated by `benchdiff --verify-speedup`).

use netlist::{Bit, Planes, Simulator, VecSimulator, LANES};
use std::time::Instant;

/// Independent sequences in the verify phase: one full `Planes` word.
pub const VERIFY_LANES: usize = LANES;

/// Scalar-engine work budget (gate evaluations) that picks the verify
/// sequence depth per preset, so the phase stays a few seconds even on
/// million-gate circuits.
const VERIFY_EVAL_BUDGET: usize = 150_000_000;

/// Sequence depth of the verify phase: budget-bounded, clamped to
/// `[2, 16]` cycles. Deterministic per gate count.
pub fn verify_cycles_for(gates: usize) -> usize {
    (VERIFY_EVAL_BUDGET / VERIFY_LANES.saturating_mul(gates.max(1))).clamp(2, 16)
}

/// One preset's ingestion measurement.
#[derive(Debug, Clone)]
pub struct IngestRow {
    /// Preset name (`hier100k`, …).
    pub name: String,
    /// Size of the generated BLIF file in bytes.
    pub file_bytes: u64,
    /// Models in the parsed file (top + tile kinds + blackbox).
    pub models: usize,
    /// Flattened gate count.
    pub gates: usize,
    /// Flattened FF count (total, per-edge).
    pub ffs: usize,
    /// Primary inputs of the flattened circuit.
    pub pis: usize,
    /// Primary outputs of the flattened circuit.
    pub pos: usize,
    /// Seconds to stream-parse the file into the AST.
    pub parse_secs: f64,
    /// Seconds for parse + hierarchy flattening.
    pub total_secs: f64,
    /// Independent input sequences in the verify phase ([`VERIFY_LANES`]).
    pub verify_lanes: usize,
    /// Cycles per verify sequence (budget-bounded, see [`verify_cycles_for`]).
    pub verify_cycles: usize,
    /// Seconds the vectorized engine took to simulate all verify
    /// sequences (one 64-lane pass).
    pub verify_secs: f64,
    /// Seconds the scalar engine took on the same sequences, one at a
    /// time — the pre-vectorization baseline; `verify_scalar_secs /
    /// verify_secs` is the measured vectorization speedup.
    pub verify_scalar_secs: f64,
    /// Process peak RSS (`VmHWM`) in KiB after the ingest, 0 when the
    /// probe is unavailable. Zeroed in canonical artifacts like every
    /// other environment-dependent measurement.
    pub peak_rss_kib: u64,
    /// Partition-and-conquer mapping measurement (`--partitions` runs
    /// only; `None` keeps the row ingestion-only).
    pub partition: Option<PartitionMeasurement>,
}

/// The partitioned-mapping leg of a large row: structural fields
/// (blocks, cut FFs, Φ, LUTs) are deterministic per preset + block
/// count and exact-gated by `benchdiff`; the wall times and the
/// derived speedup are environment measurements, zeroed in canonical
/// artifacts.
#[derive(Debug, Clone)]
pub struct PartitionMeasurement {
    /// Non-empty blocks actually mapped.
    pub blocks: usize,
    /// Registers frozen on seams between blocks.
    pub cut_ffs: u64,
    /// Φ of the stitched circuit.
    pub phi: u64,
    /// LUTs in the stitched circuit.
    pub luts: usize,
    /// Wall seconds of the whole partitioned mapping (plan + blocks +
    /// stitch) at the requested worker count.
    pub map_secs: f64,
    /// Sum of the per-block mapping walls — the serial cost of the
    /// block legs. `block_secs / map_secs` is the measured multi-block
    /// parallel speedup (> 1 when workers overlap blocks).
    pub block_secs: f64,
}

impl PartitionMeasurement {
    /// Measured multi-block parallel speedup: serial block cost over
    /// actual wall (0 when the run was too fast to time).
    pub fn speedup(&self) -> f64 {
        if self.map_secs > 0.0 {
            self.block_secs / self.map_secs
        } else {
            0.0
        }
    }
}

/// Generates `spec` into `dir` and ingests it through the streaming
/// front-end. The generated file is left in place (callers pass a temp
/// dir; CI reuses the file for `blifcheck`).
///
/// # Errors
///
/// Returns a message on I/O, parse or link failures, and when the
/// flattened totals disagree with the generator's closed-form counts
/// (which would mean the generator and linker drifted apart).
pub fn run_ingest_row(
    spec: &workloads::LargeSpec,
    dir: &std::path::Path,
) -> Result<IngestRow, String> {
    run_ingest_row_partitioned(spec, dir, None, 0, 5)
}

/// [`run_ingest_row`] plus an optional partition-and-conquer mapping
/// leg: `partitions` follows the usual convention (`None` off,
/// `Some(0)` auto, `Some(n)` fixed blocks), `jobs` is the block-level
/// worker count (0 → one worker; the mapped result is byte-identical
/// for every value) and `k` the LUT input bound.
///
/// # Errors
///
/// Same contract as [`run_ingest_row`]; mapping failures name the
/// preset and the partition stage.
pub fn run_ingest_row_partitioned(
    spec: &workloads::LargeSpec,
    dir: &std::path::Path,
    partitions: Option<usize>,
    jobs: usize,
    k: usize,
) -> Result<IngestRow, String> {
    std::fs::create_dir_all(dir).map_err(|e| format!("creating `{}`: {e}", dir.display()))?;
    let path = dir.join(format!("{}.blif", spec.name));
    let f =
        std::fs::File::create(&path).map_err(|e| format!("creating `{}`: {e}", path.display()))?;
    let mut w = std::io::BufWriter::new(f);
    workloads::write_hier(spec, &mut w)
        .map_err(|e| format!("writing `{}`: {e}", path.display()))?;
    std::io::Write::flush(&mut w).map_err(|e| format!("flushing `{}`: {e}", path.display()))?;
    drop(w);
    let file_bytes = std::fs::metadata(&path)
        .map_err(|e| format!("stat `{}`: {e}", path.display()))?
        .len();

    let start = Instant::now();
    let file = blifio::parse_path(&path).map_err(|e| format!("parsing {}: {e}", spec.name))?;
    let parse_secs = start.elapsed().as_secs_f64();
    let circuit = blifio::flatten(&file, &blifio::LinkOptions::default())
        .map_err(|e| format!("flattening {}: {e}", spec.name))?;
    let total_secs = start.elapsed().as_secs_f64();

    if circuit.num_gates() != spec.flat_gates() || circuit.ff_count_total() != spec.flat_ffs() {
        return Err(format!(
            "{}: flattened totals drifted from the generator: \
             {} gates / {} FFs, expected {} / {}",
            spec.name,
            circuit.num_gates(),
            circuit.ff_count_total(),
            spec.flat_gates(),
            spec.flat_ffs()
        ));
    }

    let verify = run_verify_phase(&circuit, spec.seed)
        .map_err(|e| format!("{}: verify phase: {e}", spec.name))?;

    let partition = match partitions {
        None => None,
        Some(p) => {
            let blocks = if p == 0 {
                partition::auto_blocks(circuit.num_gates())
            } else {
                p
            };
            let mut popts = partition::PartitionOptions::new(k, blocks);
            popts.jobs = jobs;
            let start = Instant::now();
            let mapped = partition::partition_map(&circuit, &popts)
                .map_err(|e| format!("{}: partition: {e}", spec.name))?;
            let map_secs = start.elapsed().as_secs_f64();
            let r = &mapped.report;
            Some(PartitionMeasurement {
                blocks: r.blocks,
                cut_ffs: r.cut_ffs,
                phi: r.phi,
                luts: r.luts,
                map_secs,
                block_secs: r.block_outcomes.iter().map(|b| b.wall.as_secs_f64()).sum(),
            })
        }
    };

    Ok(IngestRow {
        name: spec.name.clone(),
        file_bytes,
        models: file.models.len(),
        gates: circuit.num_gates(),
        ffs: circuit.ff_count_total(),
        pis: circuit.inputs().len(),
        pos: circuit.outputs().len(),
        parse_secs,
        total_secs,
        verify_lanes: VERIFY_LANES,
        verify_cycles: verify.cycles,
        verify_secs: verify.vector_secs,
        verify_scalar_secs: verify.scalar_secs,
        peak_rss_kib: engine::mem::peak_rss_kib().unwrap_or(0),
        partition,
    })
}

struct VerifyMeasurement {
    cycles: usize,
    vector_secs: f64,
    scalar_secs: f64,
}

/// Simulates [`VERIFY_LANES`] independent random sequences on both
/// engines and requires bit-for-bit agreement on every PO, lane and
/// cycle. Returns the two wall times.
fn run_verify_phase(circuit: &netlist::Circuit, seed: u64) -> Result<VerifyMeasurement, String> {
    let m = circuit.inputs().len();
    let cycles = verify_cycles_for(circuit.num_gates());
    // Stimulus: [cycle][lane * m + pi], defined bits with a 1-in-8
    // sprinkle of X so the third value exercises both engines.
    let mut rng = engine::Rng64::new(seed ^ 0x5EC5_1A7E);
    let stimulus: Vec<Vec<Bit>> = (0..cycles)
        .map(|_| {
            (0..VERIFY_LANES * m)
                .map(|_| {
                    let r = rng.next_u64();
                    if r & 7 == 7 {
                        Bit::X
                    } else {
                        Bit::from_bool(r & 1 == 1)
                    }
                })
                .collect()
        })
        .collect();

    // Vector pass: all lanes at once.
    let start = Instant::now();
    let mut vsim = VecSimulator::new(circuit).map_err(|e| e.to_string())?;
    // PO words of every cycle, cycle-major.
    let num_pos = circuit.outputs().len();
    let mut vector_out: Vec<Planes> = Vec::with_capacity(cycles * num_pos);
    let mut inputs = vec![Planes::splat(Bit::X); m];
    for bits in &stimulus {
        for (i, planes) in inputs.iter_mut().enumerate() {
            let (mut p0, mut p1) = (0u64, 0u64);
            for l in 0..VERIFY_LANES {
                match bits[l * m + i] {
                    Bit::Zero => p0 |= 1 << l,
                    Bit::One => p1 |= 1 << l,
                    Bit::X => {
                        p0 |= 1 << l;
                        p1 |= 1 << l;
                    }
                }
            }
            *planes = Planes { p0, p1 };
        }
        vector_out.extend_from_slice(vsim.step(&inputs).map_err(|e| e.to_string())?);
    }
    let vector_secs = start.elapsed().as_secs_f64();

    // Scalar pass: the same sequences one lane at a time — the
    // pre-vectorization equivalence-check protocol.
    let start = Instant::now();
    for l in 0..VERIFY_LANES {
        let mut sim = Simulator::new(circuit).map_err(|e| e.to_string())?;
        for (cycle, bits) in stimulus.iter().enumerate() {
            let lane_in = &bits[l * m..(l + 1) * m];
            let out = sim.step(lane_in).map_err(|e| e.to_string())?;
            for (po, &s) in out.iter().enumerate() {
                let v = vector_out[cycle * num_pos + po].get(l);
                if v != s {
                    return Err(format!(
                        "engines disagree: PO {po}, lane {l}, cycle {cycle}: \
                         scalar {s:?}, vector {v:?}"
                    ));
                }
            }
        }
    }
    let scalar_secs = start.elapsed().as_secs_f64();

    Ok(VerifyMeasurement {
        cycles,
        vector_secs,
        scalar_secs,
    })
}

/// Runs the whole large suite (presets with at most `max_gates` flat
/// gates when given), in preset order.
///
/// # Errors
///
/// Returns the first failing preset's message.
pub fn run_large_suite(
    max_gates: Option<usize>,
    dir: &std::path::Path,
) -> Result<Vec<IngestRow>, String> {
    run_large_suite_partitioned(max_gates, dir, None, 0, 5)
}

/// [`run_large_suite`] with the partitioned-mapping leg of
/// [`run_ingest_row_partitioned`] on every row.
///
/// # Errors
///
/// Returns the first failing preset's message.
pub fn run_large_suite_partitioned(
    max_gates: Option<usize>,
    dir: &std::path::Path,
    partitions: Option<usize>,
    jobs: usize,
    k: usize,
) -> Result<Vec<IngestRow>, String> {
    workloads::large_presets()
        .iter()
        .filter(|s| max_gates.is_none_or(|cap| s.flat_gates() <= cap))
        .map(|s| run_ingest_row_partitioned(s, dir, partitions, jobs, k))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_row_on_small_spec() {
        let spec = workloads::LargeSpec {
            name: "bench_small".into(),
            width: 4,
            kinds: 2,
            tiles: 3,
            tile_gates: 16,
            seed: 7,
        };
        let dir = std::env::temp_dir().join("tmfrt_bench_large");
        let row = run_ingest_row(&spec, &dir).unwrap();
        assert_eq!(row.gates, spec.flat_gates());
        assert_eq!(row.ffs, spec.flat_ffs());
        assert_eq!(row.models, 1 + spec.kinds + 1);
        assert_eq!(row.pis, spec.width);
        assert_eq!(row.pos, spec.width);
        assert!(row.file_bytes > 0);
        assert!(row.total_secs >= row.parse_secs);
        // The verify phase ran on both engines and agreed.
        assert_eq!(row.verify_lanes, VERIFY_LANES);
        assert_eq!(row.verify_cycles, verify_cycles_for(row.gates));
        assert!(row.verify_secs > 0.0);
        assert!(row.verify_scalar_secs > 0.0);
    }

    #[test]
    fn partitioned_ingest_row_on_small_spec() {
        let spec = workloads::LargeSpec {
            name: "bench_small_part".into(),
            width: 4,
            kinds: 2,
            tiles: 3,
            tile_gates: 16,
            seed: 7,
        };
        let dir = std::env::temp_dir().join("tmfrt_bench_large");
        let row = run_ingest_row_partitioned(&spec, &dir, Some(2), 2, 5).unwrap();
        let p = row.partition.expect("partition leg requested");
        assert!(p.blocks >= 1);
        assert!(p.phi > 0);
        assert!(p.luts > 0);
        assert!(p.map_secs > 0.0);
        assert!(p.block_secs > 0.0);
        // Ingestion-only rows carry no partition leg.
        let plain = run_ingest_row(&spec, &dir).unwrap();
        assert!(plain.partition.is_none());
    }

    #[test]
    fn verify_cycles_budget() {
        assert_eq!(verify_cycles_for(100), 16); // tiny: clamped up
        assert_eq!(verify_cycles_for(100_000), 16);
        assert_eq!(verify_cycles_for(300_000), 7);
        assert_eq!(verify_cycles_for(1_000_000), 2);
        assert_eq!(verify_cycles_for(usize::MAX / 2), 2); // clamped down
    }

    #[test]
    fn suite_respects_gate_cap() {
        let dir = std::env::temp_dir().join("tmfrt_bench_large");
        let rows = run_large_suite(Some(0), &dir).unwrap();
        assert!(rows.is_empty());
    }
}
