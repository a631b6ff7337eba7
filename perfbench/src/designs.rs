//! Set-up: the workloads' designs, as BLIF text drawn from the seed.
//!
//! Every workload has a fixed set of design structures (the shapes named
//! in the README). The seed draws an isomorphic relabelling of each one:
//! the statements of the models are shuffled and every model-internal
//! net gets a fresh name. The mapper therefore sees different netlist
//! orders, node ids and names on every seed, while the work it does and
//! the Φ, LUT and FF counts it reaches stay those of the structure.
//! Drawing the structures themselves from the seed swings the cost of a
//! pass by more than the benchmark's bounds (see the README).

use blifio::{BlifFile, Command, Symbol};
use engine::Rng64;
use std::collections::{HashMap, HashSet};

/// The three workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// ISCAS'89-shaped register-dense designs, TurboMap-frt only.
    IscasFrt,
    /// The 14 Table-1 FSM shapes through all three flows.
    FsmTable1,
    /// One hierarchical hier100k-shaped design, partitioned.
    HierPartition,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [
        Workload::IscasFrt,
        Workload::FsmTable1,
        Workload::HierPartition,
    ];

    /// The workload's name in `BENCHMARK.json`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::IscasFrt => "iscas-frt",
            Workload::FsmTable1 => "fsm-table1",
            Workload::HierPartition => "hier-partition",
        }
    }

    /// Parses a workload name.
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }
}

/// One generated input design.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Design {
    /// Instance name.
    pub name: String,
    /// The BLIF text handed to the pipeline.
    pub blif: String,
}

/// Instances of each ISCAS shape per pass: enough that one pass does
/// several seconds of Φ search.
const ISCAS_INSTANCES: usize = 2;

/// The ISCAS shapes mapped by `iscas-frt`.
const ISCAS_SHAPES: [&str; 2] = ["s5378", "s9234.1"];

/// Builds a workload's designs for `seed`.
pub fn generate(workload: Workload, seed: u64) -> Vec<Design> {
    let mut rng = Rng64::new(seed ^ 0x7065_7266_6265_6e63);
    let mut out = Vec::new();
    match workload {
        Workload::IscasFrt => {
            for preset in workloads::presets()
                .into_iter()
                .filter(|p| ISCAS_SHAPES.contains(&p.name))
            {
                let circuit = workloads::build_preset(&preset);
                let text = netlist::write_blif(&circuit);
                for j in 0..ISCAS_INSTANCES {
                    let name = format!("{}#{j}", preset.name);
                    out.push(relabelled(name, &text, rng.next_u64(), true));
                }
            }
        }
        Workload::FsmTable1 => {
            for preset in workloads::presets().into_iter().filter(|p| !p.iscas) {
                let circuit = workloads::build_preset(&preset);
                let text = netlist::write_blif(&circuit);
                out.push(relabelled(
                    preset.name.to_string(),
                    &text,
                    rng.next_u64(),
                    true,
                ));
            }
        }
        Workload::HierPartition => {
            let spec = workloads::large_preset("hier100k").expect("hier100k is a committed preset");
            let text = workloads::hier_to_string(&spec);
            // The partitioner assigns blocks in netlist order, so a
            // shuffled top level would move the block cut with the seed
            // (measured: 4.2–5.2 s per map across seeds, LUTs ±1%); the
            // tiles below it are shuffled.
            out.push(relabelled(spec.name.clone(), &text, rng.next_u64(), false));
        }
    }
    out
}

fn relabelled(name: String, text: &str, seed: u64, shuffle_root: bool) -> Design {
    let mut file = blifio::parse_str(text).expect("generated BLIF parses");
    scramble(&mut file, seed, shuffle_root);
    Design {
        name,
        blif: blifio::write_file(&file),
    }
}

/// Shuffles the statements of every model (of the root model only when
/// `shuffle_root`) and renames every model's internal nets.
///
/// A yosys annotation (`.attr`, `.param`, `.cname`) stays behind the
/// statement it annotates. Ports keep their names, so `.subckt`
/// bindings stay valid.
fn scramble(file: &mut BlifFile, seed: u64, shuffle_root: bool) {
    let mut rng = Rng64::new(seed);
    let BlifFile { models, interner } = file;
    for (mi, model) in models.iter_mut().enumerate() {
        let ports: HashSet<Symbol> = model
            .inputs
            .iter()
            .chain(&model.outputs)
            .chain(&model.clocks)
            .copied()
            .collect();
        let mut groups: Vec<Vec<Command>> = Vec::new();
        for cmd in std::mem::take(&mut model.commands) {
            match (&cmd, groups.last_mut()) {
                (Command::Attr { .. }, Some(group)) => group.push(cmd),
                _ => groups.push(vec![cmd]),
            }
        }
        if mi > 0 || shuffle_root {
            rng.shuffle(&mut groups);
        }
        let mut renamed: HashMap<Symbol, Symbol> = HashMap::new();
        let mut net = |s: &mut Symbol| {
            if ports.contains(s) {
                return;
            }
            let next = renamed.len();
            *s = *renamed.entry(*s).or_insert_with(|| {
                let fresh = interner.intern(&format!("x{mi}_{next}"));
                assert!(
                    !ports.contains(&fresh),
                    "fresh net name collides with a port"
                );
                fresh
            });
        };
        for cmd in groups.iter_mut().flatten() {
            match cmd {
                Command::Names(n) => {
                    n.inputs.iter_mut().for_each(&mut net);
                    net(&mut n.output);
                }
                Command::Latch(l) => {
                    net(&mut l.input);
                    net(&mut l.output);
                    if let Some(c) = &mut l.control {
                        net(c);
                    }
                }
                Command::Subckt(s) => s.conns.iter_mut().for_each(|(_, a)| net(a)),
                Command::Gate(g) => g.conns.iter_mut().for_each(|(_, a)| net(a)),
                Command::Mlatch(m) => {
                    m.conns.iter_mut().for_each(|(_, a)| net(a));
                    if let Some(c) = &mut m.control {
                        net(c);
                    }
                }
                Command::Conn { from, to, .. } => {
                    net(from);
                    net(to);
                }
                Command::Kiss(_) | Command::Attr { .. } | Command::Directive { .. } => {}
            }
        }
        model.commands = groups.into_iter().flatten().collect();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A relabelled design is the same structure: TurboMap-frt reaches
    /// the same Φ, LUTs and FFs on it as on the generator's text, while
    /// the text itself differs from seed to seed.
    #[test]
    fn relabelling_keeps_the_structure() {
        let preset = workloads::presets()
            .into_iter()
            .find(|p| p.name == "dk16")
            .expect("dk16 is a Table-1 preset");
        let text = netlist::write_blif(&workloads::build_preset(&preset));
        let map = |blif: &str| {
            let c = blifio::read_circuit_str(blif).expect("relabelled BLIF reads");
            let r = turbomap::turbomap_frt(&c, turbomap::Options::with_k(5)).expect("maps");
            (c.num_gates(), c.ff_count_shared(), r.period, r.luts, r.ffs)
        };
        let original = map(&text);
        let a = relabelled("a".into(), &text, 1, true);
        let b = relabelled("b".into(), &text, 2, true);
        assert_ne!(a.blif, b.blif);
        assert_ne!(a.blif, text);
        assert_eq!(map(&a.blif), original);
        assert_eq!(map(&b.blif), original);
    }

    #[test]
    fn same_seed_same_designs() {
        let blifs = |seed| -> Vec<String> {
            generate(Workload::FsmTable1, seed)
                .into_iter()
                .map(|d| d.blif)
                .collect()
        };
        assert_eq!(blifs(3), blifs(3));
        assert_ne!(blifs(3), blifs(4));
    }
}
