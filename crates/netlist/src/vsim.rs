//! Batched three-valued simulation: 64 vectors per machine word.
//!
//! [`VecSimulator`] is the vectorized counterpart of the scalar
//! [`Simulator`](crate::sim::Simulator). Every signal carries a
//! [`Planes`] word — two 64-bit bitplanes encoding 64 independent
//! three-valued lanes:
//!
//! | lane value | `p0` bit | `p1` bit |
//! |-----------:|:--------:|:--------:|
//! | `0`        | 1        | 0        |
//! | `1`        | 0        | 1        |
//! | `X`        | 1        | 1        |
//!
//! (`p0` = "could be 0", `p1` = "could be 1"; both clear never occurs.)
//! Gates evaluate all 64 lanes with the word-slice kernel behind
//! [`TruthTable::eval3_planes`] — Shannon expansion over the truth-table
//! rows — which reproduces the pessimistic [`eval3`](TruthTable::eval3)
//! semantics exactly, including controlling-value `X` masking. The
//! equivalence checkers in [`crate::equiv`] run on this engine; the
//! scalar simulator is retained as the differential oracle (see
//! `vector_matches_scalar_bit_for_bit` below).
//!
//! [`VecSimulator::new`] compiles the circuit into a flat gate program.
//! Every value lives in one `Vec<Planes>`: PIs, one slot per gate in
//! combinational topological order, then the FF-chain slots, so each pin
//! is a single `u32` slot index whatever its register count. Each gate's
//! truth-table words are copied into one contiguous pool; arity ≤ 6 takes
//! one word, wider gates take more words on the same code path. A PO is
//! a 1-input buffer; an unconnected PO is a slot that is never written
//! and stays `X`. A step is one linear walk over flat arrays with no
//! pointer into the circuit, and it allocates nothing: [`VecSimulator::step`]
//! returns the PO words from a reused buffer. Inlining the tables is the
//! point — reading each gate's table through its own heap `Vec` made a
//! 99k-gate step over 10× slower (see DESIGN.md).

use crate::bit::Bit;
use crate::circuit::Circuit;
use crate::error::NetlistError;
use crate::truth::{eval3_planes_words, TruthTable, MAX_INPUTS};

/// Number of simulation lanes packed into one [`Planes`] word.
pub const LANES: usize = 64;

/// A 64-lane three-valued signal value: two bitplanes, bit `l` of `p0`
/// set when lane `l` could be `0`, bit `l` of `p1` set when it could be
/// `1` (both = `X`, never neither).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Planes {
    /// "Could be 0" plane.
    pub p0: u64,
    /// "Could be 1" plane.
    pub p1: u64,
}

impl Planes {
    /// All 64 lanes set to `bit`.
    pub fn splat(bit: Bit) -> Planes {
        match bit {
            Bit::Zero => Planes { p0: !0, p1: 0 },
            Bit::One => Planes { p0: 0, p1: !0 },
            Bit::X => Planes { p0: !0, p1: !0 },
        }
    }

    /// The value of lane `l`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= LANES`.
    pub fn get(self, l: usize) -> Bit {
        assert!(l < LANES, "lane out of range");
        match ((self.p0 >> l) & 1, (self.p1 >> l) & 1) {
            (1, 0) => Bit::Zero,
            (0, 1) => Bit::One,
            _ => Bit::X,
        }
    }

    /// Sets lane `l` to `bit`.
    ///
    /// # Panics
    ///
    /// Panics if `l >= LANES`.
    pub fn set(&mut self, l: usize, bit: Bit) {
        assert!(l < LANES, "lane out of range");
        let mask = 1u64 << l;
        let (z, o) = match bit {
            Bit::Zero => (mask, 0),
            Bit::One => (0, mask),
            Bit::X => (mask, mask),
        };
        self.p0 = (self.p0 & !mask) | z;
        self.p1 = (self.p1 & !mask) | o;
    }

    /// Packs up to [`LANES`] scalar bits, one per lane (missing lanes
    /// default to `X`).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() > LANES`.
    pub fn pack(bits: &[Bit]) -> Planes {
        assert!(bits.len() <= LANES, "too many lanes");
        let mut planes = Planes::splat(Bit::X);
        for (l, &b) in bits.iter().enumerate() {
            planes.set(l, b);
        }
        planes
    }

    /// Unpacks the first `n` lanes.
    ///
    /// # Panics
    ///
    /// Panics if `n > LANES`.
    pub fn unpack(self, n: usize) -> Vec<Bit> {
        (0..n).map(|l| self.get(l)).collect()
    }
}

/// A cycle-accurate three-valued simulator evaluating 64 vectors per
/// step. Lanes are fully independent: each starts from the circuit's
/// initial state and sees its own input sequence.
///
/// [`VecSimulator::new`] compiles the circuit into a flat gate program
/// that owns everything a step reads; the circuit is not borrowed.
#[derive(Debug, Clone)]
pub struct VecSimulator {
    /// Every value the program reads or writes, one [`Planes`] per slot:
    /// PIs first, then one slot per instruction (program order), then
    /// unconnected POs (never written, so always `X`), then the FF-chain
    /// slots, edge-major and source→sink within a chain.
    values: Vec<Planes>,
    /// Pin CSR: the pins of instruction `j` are
    /// `pins[pin_off[j]..pin_off[j + 1]]`, its arity is their count.
    pin_off: Vec<u32>,
    /// Value slot read by each pin.
    pins: Vec<u32>,
    /// Offset of instruction `j`'s truth-table words in `tt_pool`.
    tt_off: Vec<u32>,
    /// Every instruction's on-set words, back to back.
    tt_pool: Vec<u64>,
    /// One entry per registered edge: `(driver slot, start, end)`, the
    /// chain's slot range in `values`.
    shifts: Vec<(u32, u32, u32)>,
    /// Number of primary inputs. They occupy slots `0..num_inputs`, and
    /// instruction `j` writes slot `num_inputs + j`.
    num_inputs: usize,
    /// Value slot of each primary output, PO order.
    outputs: Vec<u32>,
    /// PO values of the last step, returned by [`VecSimulator::step`].
    out: Vec<Planes>,
}

impl VecSimulator {
    /// Compiles `circuit` into a gate program and starts every lane from
    /// the circuit's initial state.
    ///
    /// Gates and connected POs become instructions in combinational
    /// topological order; a PO is a 1-input buffer.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::CombinationalCycle`] when the circuit
    /// cannot be evaluated and [`NetlistError::ArityMismatch`] when a
    /// gate has fewer fanins than its function has inputs.
    pub fn new(circuit: &Circuit) -> Result<VecSimulator, NetlistError> {
        let order = circuit.comb_topo_order()?;
        let num_inputs = circuit.inputs().len();
        let buf = TruthTable::buf();
        // Slot numbering: PIs, instructions, unconnected POs, chains.
        let mut slot = vec![u32::MAX; circuit.num_nodes()];
        for (i, &v) in circuit.inputs().iter().enumerate() {
            slot[v.index()] = i as u32;
        }
        let mut program = Vec::with_capacity(order.len());
        let mut dangling = Vec::new();
        for &v in &order {
            let node = circuit.node(v);
            if node.is_input() {
                continue;
            }
            let tt = match node.function() {
                Some(tt) => tt,
                None if node.fanin().is_empty() => {
                    dangling.push(v);
                    continue;
                }
                None => &buf,
            };
            if node.fanin().len() != tt.num_inputs() {
                return Err(NetlistError::ArityMismatch {
                    node: node.name().to_string(),
                    expected: tt.num_inputs(),
                    actual: node.fanin().len(),
                });
            }
            slot[v.index()] = (num_inputs + program.len()) as u32;
            program.push((v, tt));
        }
        for &v in &dangling {
            slot[v.index()] = (num_inputs + program.len()) as u32;
        }
        let mut values = vec![Planes::splat(Bit::X); num_inputs + program.len() + dangling.len()];

        // Flatten every FF chain into the value array, so a pin is one
        // slot index whatever its register count.
        let mut chain_start = vec![0u32; circuit.num_edges()];
        let mut shifts = Vec::new();
        for e in circuit.edge_ids() {
            let edge = circuit.edge(e);
            if edge.weight() > 0 {
                let start = values.len() as u32;
                chain_start[e.index()] = start;
                values.extend(edge.ffs().iter().map(|&b| Planes::splat(b)));
                shifts.push((slot[edge.from().index()], start, values.len() as u32));
            }
        }

        let mut pin_off = Vec::with_capacity(program.len() + 1);
        pin_off.push(0u32);
        let mut pins = Vec::new();
        let mut tt_off = Vec::with_capacity(program.len());
        let mut tt_pool = Vec::new();
        for &(v, tt) in &program {
            for &e in circuit.node(v).fanin() {
                let edge = circuit.edge(e);
                pins.push(match edge.weight() {
                    0 => slot[edge.from().index()],
                    w => chain_start[e.index()] + (w - 1) as u32,
                });
            }
            pin_off.push(pins.len() as u32);
            tt_off.push(tt_pool.len() as u32);
            tt_pool.extend_from_slice(tt.words());
        }
        Ok(VecSimulator {
            values,
            pin_off,
            pins,
            tt_off,
            tt_pool,
            shifts,
            num_inputs,
            outputs: circuit.outputs().iter().map(|v| slot[v.index()]).collect(),
            out: Vec::with_capacity(circuit.outputs().len()),
        })
    }

    /// Advances one clock cycle on all 64 lanes and returns the PO
    /// values (PO order, one [`Planes`] word per output). The slice is
    /// the simulator's own buffer, overwritten by the next step.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::PiVectorLength`] if `inputs.len()` differs
    /// from the number of PIs.
    pub fn step(&mut self, inputs: &[Planes]) -> Result<&[Planes], NetlistError> {
        if inputs.len() != self.num_inputs {
            return Err(NetlistError::PiVectorLength {
                expected: self.num_inputs,
                actual: inputs.len(),
            });
        }
        let _l = engine::layer::enter_with(
            engine::Layer::SimStep,
            [Some(("nodes", self.tt_off.len() as u64)), None],
        );
        self.values[..self.num_inputs].copy_from_slice(inputs);
        let mut gathered = [(0u64, 0u64); MAX_INPUTS];
        for (j, &tt) in self.tt_off.iter().enumerate() {
            let pins = &self.pins[self.pin_off[j] as usize..self.pin_off[j + 1] as usize];
            for (g, &p) in gathered.iter_mut().zip(pins) {
                let v = self.values[p as usize];
                *g = (v.p0, v.p1);
            }
            let (p0, p1) =
                eval3_planes_words(&self.tt_pool[tt as usize..], &gathered[..pins.len()]);
            self.values[self.num_inputs + j] = Planes { p0, p1 };
        }
        // Synchronous FF shift, one rotation per registered edge: the
        // sink-end slot falls off, the driver's new value enters at the
        // source end.
        for &(src, start, end) in &self.shifts {
            let (start, end) = (start as usize, end as usize);
            self.values.copy_within(start..end - 1, start + 1);
            self.values[start] = self.values[src as usize];
        }
        self.out.clear();
        self.out
            .extend(self.outputs.iter().map(|&po| self.values[po as usize]));
        Ok(&self.out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::equiv::random_sequence;
    use crate::sim::Simulator;
    use engine::rng::Rng64;

    fn bits(s: &str) -> Vec<Bit> {
        s.chars()
            .map(|ch| match ch {
                '0' => Bit::Zero,
                '1' => Bit::One,
                _ => Bit::X,
            })
            .collect()
    }

    #[test]
    fn planes_roundtrip_and_splat() {
        let mut p = Planes::splat(Bit::X);
        assert_eq!(p.get(0), Bit::X);
        assert_eq!(p.get(63), Bit::X);
        p.set(3, Bit::One);
        p.set(4, Bit::Zero);
        assert_eq!(p.get(3), Bit::One);
        assert_eq!(p.get(4), Bit::Zero);
        assert_eq!(p.get(5), Bit::X);
        let v = bits("01x10");
        assert_eq!(Planes::pack(&v).unpack(5), v);
        assert_eq!(Planes::splat(Bit::One).get(17), Bit::One);
        assert_eq!(Planes::splat(Bit::Zero).get(62), Bit::Zero);
    }

    #[test]
    fn eval3_planes_matches_eval3_exhaustively() {
        // Every truth table of arity ≤ 3, every 3-valued input combo,
        // packed into lanes — the bitplane path must agree with eval3.
        let all = [Bit::Zero, Bit::One, Bit::X];
        for k in 0..=3usize {
            for code in 0..(1u32 << (1 << k)) {
                let tt = TruthTable::from_fn(k, |r| (code >> r) & 1 == 1);
                let combos: Vec<Vec<Bit>> = (0..3usize.pow(k as u32))
                    .map(|mut c| {
                        (0..k)
                            .map(|_| {
                                let b = all[c % 3];
                                c /= 3;
                                b
                            })
                            .collect()
                    })
                    .collect();
                // Pack one combo per lane.
                let inputs: Vec<(u64, u64)> = (0..k)
                    .map(|i| {
                        let p = Planes::pack(&combos.iter().map(|c| c[i]).collect::<Vec<_>>());
                        (p.p0, p.p1)
                    })
                    .collect();
                let (p0, p1) = tt.eval3_planes(&inputs);
                let out = Planes { p0, p1 };
                for (l, combo) in combos.iter().enumerate() {
                    assert_eq!(out.get(l), tt.eval3(combo), "tt {tt} combo {combo:?}");
                }
            }
        }
    }

    /// A random sequential circuit: `pis` inputs, `gates` gates of
    /// arity 0–8 with random functions (constants, and multi-word truth
    /// tables at arity 7–8), random FF weights 0–2 with random (possibly
    /// `X`) initial values, and `pos` outputs of which the first is fed
    /// through an FF, followed by one unconnected output.
    fn random_circuit(seed: u64, pis: usize, gates: usize, pos: usize) -> Circuit {
        let mut rng = Rng64::new(seed);
        let mut c = Circuit::new(format!("rand{seed}"));
        let mut drivers = Vec::new();
        let random_ffs = |rng: &mut Rng64, w: usize| -> Vec<Bit> {
            (0..w)
                .map(|_| match rng.next_u64() % 3 {
                    0 => Bit::Zero,
                    1 => Bit::One,
                    _ => Bit::X,
                })
                .collect()
        };
        for i in 0..pis {
            drivers.push(c.add_input(format!("i{i}")).unwrap());
        }
        for g in 0..gates {
            let k = (rng.next_u64() % 9) as usize;
            let codes: Vec<u64> = (0..4).map(|_| rng.next_u64()).collect();
            let tt = TruthTable::from_fn(k, |r| (codes[r / 64] >> (r % 64)) & 1 == 1);
            let v = c.add_gate(format!("g{g}"), tt).unwrap();
            for _ in 0..k {
                let from = drivers[(rng.next_u64() as usize) % drivers.len()];
                let w = (rng.next_u64() % 3) as usize;
                let ffs = random_ffs(&mut rng, w);
                c.connect(from, v, ffs).unwrap();
            }
            drivers.push(v);
        }
        for p in 0..pos {
            let o = c.add_output(format!("o{p}")).unwrap();
            let from = drivers[(rng.next_u64() as usize) % drivers.len()];
            let ffs = random_ffs(&mut rng, usize::from(p == 0));
            c.connect(from, o, ffs).unwrap();
        }
        c.add_output("unconnected").unwrap();
        c
    }

    /// The satellite differential property: for random circuits with
    /// partial-`X` initial states driven by random (occasionally `X`)
    /// inputs, all 64 vector lanes must match 64 scalar simulations
    /// bit-for-bit, cycle by cycle.
    #[test]
    fn vector_matches_scalar_bit_for_bit() {
        for seed in 0..6u64 {
            let c = random_circuit(1000 + seed, 3, 12, 3);
            let cycles = 8;
            let mut rng = Rng64::new(77 ^ seed);
            // Lane-major input sequences, with a 1-in-8 chance of X to
            // exercise X-propagation from the PIs too.
            let seqs: Vec<Vec<Vec<Bit>>> = (0..LANES)
                .map(|_| {
                    (0..cycles)
                        .map(|_| {
                            (0..3)
                                .map(|_| {
                                    if rng.next_u64().is_multiple_of(8) {
                                        Bit::X
                                    } else {
                                        Bit::from_bool(rng.next_u64() & 1 == 1)
                                    }
                                })
                                .collect()
                        })
                        .collect()
                })
                .collect();
            let mut vsim = VecSimulator::new(&c).unwrap();
            let mut scalars: Vec<Simulator> =
                (0..LANES).map(|_| Simulator::new(&c).unwrap()).collect();
            for t in 0..cycles {
                let inputs: Vec<Planes> = (0..3)
                    .map(|i| Planes::pack(&seqs.iter().map(|s| s[t][i]).collect::<Vec<_>>()))
                    .collect();
                let vec_out = vsim.step(&inputs).unwrap();
                for (l, scalar) in scalars.iter_mut().enumerate() {
                    let scalar_out = scalar.step(&seqs[l][t]).unwrap();
                    for (po, &word) in vec_out.iter().enumerate() {
                        assert_eq!(
                            word.get(l),
                            scalar_out[po],
                            "seed {seed} cycle {t} lane {l} po {po}"
                        );
                    }
                }
            }
        }
    }

    /// X-propagation boundary from the scalar suite, replayed on one
    /// lane while the other lanes carry different vectors: AND(a, ff=X)
    /// masks the X exactly when a=0.
    #[test]
    fn partial_x_initial_state_masked_per_lane() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        let d = c.add_gate("d", TruthTable::buf()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(d, g, vec![Bit::X]).unwrap();
        c.connect(a, d, vec![]).unwrap();
        c.connect(g, o, vec![]).unwrap();
        let mut sim = VecSimulator::new(&c).unwrap();
        // Lane 0 drives a=0 (X masked), lane 1 drives a=1 (X exposed).
        let out = sim.step(&[Planes::pack(&bits("01"))]).unwrap();
        assert_eq!(out[0].get(0), Bit::Zero);
        assert_eq!(out[0].get(1), Bit::X);
    }

    #[test]
    fn ff_chains_shift_independently_per_lane() {
        // Chain [1, X, 0] source→sink delivers 0, X, 1, then inputs.
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::buf()).unwrap();
        let o = c.add_output("o").unwrap();
        c.connect(a, g, vec![]).unwrap();
        c.connect(g, o, vec![Bit::One, Bit::X, Bit::Zero]).unwrap();
        let mut sim = VecSimulator::new(&c).unwrap();
        let drive = [Planes::pack(&bits("10"))];
        let expect = [bits("00"), bits("xx"), bits("11"), bits("10")];
        for want in expect {
            let out = sim.step(&drive).unwrap();
            assert_eq!(out[0].unpack(2), want);
        }
    }

    #[test]
    fn wrong_pi_count_is_a_typed_error() {
        let c = random_circuit(5, 2, 4, 1);
        let mut sim = VecSimulator::new(&c).unwrap();
        assert_eq!(
            sim.step(&[Planes::splat(Bit::Zero)]),
            Err(NetlistError::PiVectorLength {
                expected: 2,
                actual: 1
            })
        );
    }

    #[test]
    fn underconnected_gate_is_a_typed_error() {
        let mut c = Circuit::new("t");
        let a = c.add_input("a").unwrap();
        let g = c.add_gate("g", TruthTable::and(2)).unwrap();
        c.connect(a, g, vec![]).unwrap();
        assert_eq!(
            VecSimulator::new(&c).unwrap_err(),
            NetlistError::ArityMismatch {
                node: "g".into(),
                expected: 2,
                actual: 1
            }
        );
    }

    /// Driving all lanes with the same `random_sequence` must reproduce
    /// the scalar simulator's trajectory on every lane.
    #[test]
    fn splat_sequence_matches_scalar_run() {
        let c = random_circuit(9, 4, 20, 4);
        let seq = random_sequence(4, 12, 3);
        let mut scalar = Simulator::new(&c).unwrap();
        let scalar_out = scalar.run(&seq).unwrap();
        let mut vsim = VecSimulator::new(&c).unwrap();
        for (t, inp) in seq.iter().enumerate() {
            let planes: Vec<Planes> = inp.iter().map(|&b| Planes::splat(b)).collect();
            let out = vsim.step(&planes).unwrap();
            for (po, &word) in out.iter().enumerate() {
                assert_eq!(word.get(0), scalar_out[t][po]);
                assert_eq!(word.get(63), scalar_out[t][po]);
            }
        }
    }
}
