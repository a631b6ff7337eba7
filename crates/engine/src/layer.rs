//! Instrumentation layers: one vocabulary for time, memory and traces.
//!
//! Every instrumented site in the pipeline opens exactly one
//! [`LayerGuard`] with [`enter`] (or [`enter_with`], which attaches
//! trace arguments). The guard is the only instrument a site needs:
//!
//! * it always records **calls**, **inclusive** nanoseconds and **self**
//!   nanoseconds (inclusive minus the inclusive time of the layers
//!   opened directly inside it) into the thread's
//!   [`Telemetry`](crate::telemetry::Telemetry), so per-layer numbers ride
//!   the usual snapshot/merge/since protocol and self times on one
//!   thread never overlap;
//! * when memory accounting is on ([`mem::set_enabled`]) it records the
//!   layer's own allocation events and bytes and its own heap high-water
//!   above the entry level, all exclusive of nested layers. The thread's
//!   peak watermark is saved on entry and restored on exit, so
//!   [`mem::job_mark`] / [`mem::thread_peak`] users outside any layer
//!   still see the true high-water mark;
//! * when tracing is on ([`trace::set_enabled`]) it emits a trace span
//!   named after the layer;
//! * when a [`LiveTelemetry`](crate::telemetry::LiveTelemetry) mirror is
//!   installed it adds the inclusive time live and publishes the
//!   outermost open layer.
//!
//! Layers nest through the guards themselves: each guard keeps the
//! enclosing layer's running child totals and restores them on drop, so
//! the per-thread layer stack costs no allocation.

use crate::mem;
use crate::telemetry;
use crate::trace::{self, Payload, SpanGuard};
use std::cell::Cell;
use std::time::Instant;

/// The pipeline's instrumented layers. The names are the JSON keys of
/// the artifacts, the Prometheus `layer` label values and the trace span
/// names.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Layer {
    /// Label computation: one Φ probe's FRTcheck / general check, or the
    /// FlowMap labels.
    Label = 0,
    /// Structure search: the expansion cache and the final cuts.
    Search = 1,
    /// Mapping generation, retiming and initial-state computation.
    Generate = 2,
    /// Equivalence verification of a mapped result.
    Verify = 3,
    /// One expanded-circuit construction (`F_v^bound`).
    Expand = 4,
    /// One min-cut query of a label update.
    MinCut = 5,
    /// One FRTcheck / general-check label sweep.
    FrtcheckSweep = 6,
    /// Applying a retiming: register moves and initial states.
    ApplyRetiming = 7,
    /// One simulation step of a sequential netlist.
    SimStep = 8,
    /// Partition planning or stitching (the per-block mapper runs are
    /// their own jobs).
    Partition = 9,
}

/// Number of [`Layer`] variants.
pub const NUM_LAYERS: usize = 10;

impl Layer {
    /// Every layer, indexed by `Layer as usize`.
    pub const ALL: [Layer; NUM_LAYERS] = [
        Layer::Label,
        Layer::Search,
        Layer::Generate,
        Layer::Verify,
        Layer::Expand,
        Layer::MinCut,
        Layer::FrtcheckSweep,
        Layer::ApplyRetiming,
        Layer::SimStep,
        Layer::Partition,
    ];

    /// The four coarse pipeline stages a job reports live
    /// (`tmfrt serve`'s `phase_micros`).
    pub const COARSE: [Layer; 4] = [Layer::Label, Layer::Search, Layer::Generate, Layer::Verify];

    /// The stable name of this layer.
    pub fn name(self) -> &'static str {
        [
            "label",
            "search",
            "generate",
            "verify",
            "expand",
            "min_cut",
            "frtcheck_sweep",
            "apply_retiming",
            "sim_step",
            "partition",
        ][self as usize]
    }
}

/// What the guards of one layer recorded, summed over their calls.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LayerStats {
    /// Guards entered and closed.
    pub calls: u64,
    /// Wall nanoseconds inside the layer, nested layers included.
    pub incl_nanos: u64,
    /// Wall nanoseconds inside the layer minus the inclusive time of
    /// the layers opened directly inside it.
    pub self_nanos: u64,
    /// Allocation events outside nested layers (memory accounting on).
    pub allocs: u64,
    /// Bytes allocated outside nested layers (memory accounting on).
    pub alloc_bytes: u64,
    /// Largest heap growth above the entry level seen by one call while
    /// no nested layer was open (memory accounting on).
    pub peak_bytes: u64,
}

impl LayerStats {
    /// A zeroed record (`const` form of `Default`).
    pub const fn zeroed() -> LayerStats {
        LayerStats {
            calls: 0,
            incl_nanos: 0,
            self_nanos: 0,
            allocs: 0,
            alloc_bytes: 0,
            peak_bytes: 0,
        }
    }

    /// Adds another record into this one (peaks take the max).
    pub fn merge(&mut self, other: &LayerStats) {
        self.calls = self.calls.wrapping_add(other.calls);
        self.incl_nanos = self.incl_nanos.wrapping_add(other.incl_nanos);
        self.self_nanos = self.self_nanos.wrapping_add(other.self_nanos);
        self.allocs = self.allocs.wrapping_add(other.allocs);
        self.alloc_bytes = self.alloc_bytes.wrapping_add(other.alloc_bytes);
        self.peak_bytes = self.peak_bytes.max(other.peak_bytes);
    }

    /// This record minus an earlier one (saturating). The peak is a
    /// running max, so the delta is the current peak when it grew during
    /// the interval and zero otherwise.
    pub fn since(&self, earlier: &LayerStats) -> LayerStats {
        LayerStats {
            calls: self.calls.saturating_sub(earlier.calls),
            incl_nanos: self.incl_nanos.saturating_sub(earlier.incl_nanos),
            self_nanos: self.self_nanos.saturating_sub(earlier.self_nanos),
            allocs: self.allocs.saturating_sub(earlier.allocs),
            alloc_bytes: self.alloc_bytes.saturating_sub(earlier.alloc_bytes),
            peak_bytes: if self.peak_bytes > earlier.peak_bytes {
                self.peak_bytes
            } else {
                0
            },
        }
    }

    /// Inclusive seconds.
    pub fn incl_secs(&self) -> f64 {
        self.incl_nanos as f64 / 1e9
    }

    /// Self seconds.
    pub fn self_secs(&self) -> f64 {
        self.self_nanos as f64 / 1e9
    }

    /// True when any memory field is nonzero.
    pub fn has_mem(&self) -> bool {
        self.allocs != 0 || self.alloc_bytes != 0 || self.peak_bytes != 0
    }
}

/// The innermost open layer of this thread and what its closed children
/// added up to so far: nanoseconds, and — with memory accounting on —
/// allocation events, bytes and the highest absolute live-bytes level.
struct Open {
    layer: Cell<Option<Layer>>,
    child_nanos: Cell<u64>,
    child_mem: Cell<(u64, u64, u64)>,
}

thread_local! {
    static OPEN: Open = const {
        Open {
            layer: Cell::new(None),
            child_nanos: Cell::new(0),
            child_mem: Cell::new((0, 0, 0)),
        }
    };
}

/// RAII guard from [`enter`]: closes the layer on drop.
#[derive(Debug)]
#[must_use = "a layer closes when its guard drops"]
pub struct LayerGuard {
    layer: Layer,
    start: Instant,
    /// The enclosing layer and its child time so far, restored on drop.
    outer: (Option<Layer>, u64),
    /// Set when memory accounting was on at entry: the ledger position
    /// and the enclosing layer's child memory totals.
    mem: Option<(mem::Watermark, (u64, u64, u64))>,
    /// True when this guard published its layer to the live mirror.
    published: bool,
    _span: SpanGuard,
}

/// Opens `layer` until the returned guard drops.
#[inline]
pub fn enter(layer: Layer) -> LayerGuard {
    enter_with(layer, [None, None])
}

/// [`enter`] with up to two key/value arguments for the trace span.
#[inline]
pub fn enter_with(layer: Layer, args: Payload) -> LayerGuard {
    let outer = OPEN.with(|o| (o.layer.replace(Some(layer)), o.child_nanos.replace(0)));
    let mem = mem::enabled().then(|| {
        (
            mem::watermark_open(),
            OPEN.with(|o| o.child_mem.replace((0, 0, 0))),
        )
    });
    LayerGuard {
        layer,
        outer,
        mem,
        published: telemetry::mirror_enter(layer),
        _span: trace::span_with(layer.name(), args),
        start: Instant::now(),
    }
}

impl Drop for LayerGuard {
    fn drop(&mut self) {
        let incl = self.start.elapsed().as_nanos() as u64;
        let (outer, outer_nanos) = self.outer;
        let child_nanos = OPEN.with(|o| {
            o.layer.set(outer);
            o.child_nanos.replace(outer_nanos.wrapping_add(incl))
        });
        let mut stats = LayerStats {
            calls: 1,
            incl_nanos: incl,
            self_nanos: incl.saturating_sub(child_nanos),
            ..LayerStats::zeroed()
        };
        let mut reached = None;
        if let Some((mark, (outer_allocs, outer_bytes, outer_peak))) = self.mem.take() {
            let (child_allocs, child_bytes, child_peak) = OPEN.with(|o| o.child_mem.get());
            let (delta, own_peak) = mem::watermark_close(&mark, |own, live| {
                // Inside another layer the watermark goes back to what the
                // enclosing layer saw itself; its children's high-water
                // travels in `child_mem`. Outside every layer the thread
                // peak must cover everything that happened.
                if outer.is_none() {
                    own.max(child_peak)
                } else {
                    live
                }
            });
            let top = own_peak.max(child_peak);
            OPEN.with(|o| {
                o.child_mem.set((
                    outer_allocs.wrapping_add(delta.allocs),
                    outer_bytes.wrapping_add(delta.alloc_bytes),
                    outer_peak.max(top),
                ))
            });
            stats.allocs = delta.allocs.saturating_sub(child_allocs);
            stats.alloc_bytes = delta.alloc_bytes.saturating_sub(child_bytes);
            stats.peak_bytes = own_peak.saturating_sub(mark.live);
            reached = Some(top);
        }
        telemetry::layer_exit(self.layer, &stats, self.published, reached);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::telemetry::{self, LiveTelemetry};
    use std::sync::Arc;
    use std::time::Duration;

    fn spin(d: Duration) {
        let t = Instant::now();
        while t.elapsed() < d {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn names_are_distinct_and_indexed() {
        let unique: std::collections::HashSet<&str> = Layer::ALL.iter().map(|l| l.name()).collect();
        assert_eq!(unique.len(), NUM_LAYERS);
        for (i, l) in Layer::ALL.iter().enumerate() {
            assert_eq!(*l as usize, i);
        }
        assert_eq!(Layer::FrtcheckSweep.name(), "frtcheck_sweep");
    }

    #[test]
    fn self_time_is_inclusive_minus_direct_children() {
        telemetry::reset();
        {
            let _label = enter(Layer::Label);
            spin(Duration::from_millis(1));
            for _ in 0..2 {
                let _sweep = enter(Layer::FrtcheckSweep);
                spin(Duration::from_millis(1));
                for _ in 0..3 {
                    let _cut = enter(Layer::MinCut);
                    spin(Duration::from_micros(200));
                }
                let _exp = enter(Layer::Expand);
                spin(Duration::from_micros(300));
            }
        }
        let t = telemetry::take();
        let label = t.layer(Layer::Label);
        let sweep = t.layer(Layer::FrtcheckSweep);
        let cut = t.layer(Layer::MinCut);
        let exp = t.layer(Layer::Expand);
        // Calls match guard entries.
        assert_eq!(
            (label.calls, sweep.calls, cut.calls, exp.calls),
            (1, 2, 6, 2)
        );
        // Exact: self = inclusive − direct children's inclusive.
        assert_eq!(label.self_nanos, label.incl_nanos - sweep.incl_nanos);
        assert_eq!(
            sweep.self_nanos,
            sweep.incl_nanos - cut.incl_nanos - exp.incl_nanos
        );
        assert_eq!(cut.self_nanos, cut.incl_nanos);
        assert_eq!(exp.self_nanos, exp.incl_nanos);
        // Self times on one thread tile the outermost layer exactly.
        let self_sum: u64 = t.layers.iter().map(|l| l.self_nanos).sum();
        assert_eq!(self_sum, label.incl_nanos);
        assert!(sweep.self_nanos >= 2_000_000);
        assert!(t.layer(Layer::Verify).calls == 0);
    }

    #[test]
    fn memory_is_attributed_to_the_innermost_layer() {
        let _g = mem::TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        mem::set_enabled(true);
        telemetry::reset();
        mem::job_mark();
        let live0 = mem::thread_live();
        {
            let _sweep = enter(Layer::FrtcheckSweep);
            mem::on_alloc(10_000);
            {
                let _cut = enter(Layer::MinCut);
                mem::on_alloc(100);
                mem::on_alloc(50);
                mem::on_dealloc(150);
            }
            mem::on_alloc(1);
            mem::on_dealloc(10_001);
        }
        mem::set_enabled(false);
        let t = telemetry::take();
        let sweep = t.layer(Layer::FrtcheckSweep);
        let cut = t.layer(Layer::MinCut);
        assert_eq!((sweep.allocs, sweep.alloc_bytes), (2, 10_001));
        assert_eq!((cut.allocs, cut.alloc_bytes), (2, 150));
        // The child's 150-byte bump is its own; the sweep's own peak is
        // its 10 001 bytes.
        assert_eq!(cut.peak_bytes, 150);
        assert_eq!(sweep.peak_bytes, 10_001);
        // Outside every layer the thread watermark covers both: 10 000
        // live when the child peaked at +150.
        assert_eq!(t.mem.peak_bytes, live0 + 10_150);
        assert_eq!(t.mem.allocs, 4);
    }

    #[test]
    fn gate_off_records_time_but_no_memory() {
        let _g = mem::TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        mem::set_enabled(false);
        telemetry::reset();
        {
            let _v = enter(Layer::Verify);
            let v: Vec<u64> = (0..64).collect();
            assert_eq!(v.len(), 64);
        }
        let t = telemetry::take();
        assert_eq!(t.layer(Layer::Verify).calls, 1);
        assert!(!t.layer(Layer::Verify).has_mem());
        assert!(t.mem.is_empty());
    }

    #[test]
    fn mirror_publishes_the_outermost_layer() {
        telemetry::reset();
        let live = Arc::new(LiveTelemetry::new());
        {
            let _m = telemetry::install_mirror(Arc::clone(&live));
            assert_eq!(live.current_layer(), None);
            {
                let _s = enter(Layer::Search);
                assert_eq!(live.current_layer(), Some(Layer::Search));
                {
                    let _e = enter(Layer::Expand);
                    assert_eq!(live.current_layer(), Some(Layer::Search));
                }
                assert_eq!(live.current_layer(), Some(Layer::Search));
            }
            assert_eq!(live.current_layer(), None);
        }
        let snap = live.snapshot();
        assert!(snap.layer(Layer::Search).incl_nanos > 0);
        assert!(snap.layer(Layer::Expand).incl_nanos > 0);
        telemetry::reset();
    }
}
