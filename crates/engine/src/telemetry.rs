//! Structured per-job telemetry: counters, histograms and layer totals.
//!
//! Hot paths increment plain thread-local [`Cell`]s — no locks, no
//! atomics — and the batch runner snapshots and resets them around each
//! job ([`take`]), merging the result into the job's report. A job runs
//! entirely on one worker thread, so thread-local accumulation is exact.
//!
//! Counters cover the algorithmic work the paper reports on: max-flow
//! augmentations (`turbomap::cutsearch`, `graphalgo::flow`), FRTcheck
//! sweeps and re-queued gates (`turbomap::frtcheck`), expanded-circuit
//! node-cache hits and misses (`turbomap::expand`), and unit register moves
//! (`retiming::moves`). Per-layer calls, times and memory come from the
//! [`crate::layer`] guards.

use crate::hist::{Histogram, Metric, NUM_HISTS};
use crate::layer::{Layer, LayerStats, NUM_LAYERS};
use crate::mem::{self, MemStats};
use std::cell::{Cell, RefCell};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

/// Algorithmic event counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum Counter {
    /// Augmenting paths found by the TurboMap cut kernel
    /// (`turbomap::cutsearch`) and `graphalgo::flow::NodeCutNetwork`.
    FlowAugmentations = 0,
    /// FRTcheck label sweeps executed (the paper's 5–15 per Φ).
    FrtSweeps = 1,
    /// Gates re-queued (marked dirty) during FRTcheck sweeps.
    FrtRequeuedGates = 2,
    /// Expanded-node lookups that found `(node, weight)` already present
    /// (ball growth and whole `F_v` builds alike).
    ExpandCacheHits = 3,
    /// Expanded nodes created (ball growth and whole `F_v` builds alike).
    ExpandCacheMisses = 4,
    /// Forward unit register moves applied by `retiming::moves`.
    ForwardMoves = 5,
    /// Backward unit register moves (each required justification).
    BackwardMoves = 6,
    /// Gates whose expansion window `F_v^{frt(v)}` was truncated by the
    /// `weight_horizon` cap — the mapped result may be suboptimal.
    FrtCapped = 7,
    /// Label sweeps skipped thanks to warm-started Φ probes (estimated as
    /// the previous feasible probe's sweep count minus this probe's).
    SweepsSaved = 8,
    /// Fuzz cases executed to completion by the differential oracle
    /// (`crates/fuzz`): generated, mapped by all three flows, and judged.
    CasesRun = 9,
    /// Individual oracle-check failures recorded by the fuzzer (one per
    /// violated invariant, so a single case can contribute several).
    OracleFailures = 10,
    /// Accepted shrinker reductions while minimizing failing fuzz cases.
    ShrinkSteps = 11,
    /// Mapping reports generated (`crates/report`): witness extraction
    /// plus timing attribution for one run.
    ReportsGenerated = 12,
}

/// Number of [`Counter`] variants.
pub const NUM_COUNTERS: usize = 13;

/// Stable snake_case names, indexed by `Counter as usize` (used as JSON
/// keys — part of the `BENCH_table1.json` schema).
pub const COUNTER_NAMES: [&str; NUM_COUNTERS] = [
    "flow_augmentations",
    "frt_sweeps",
    "frt_requeued_gates",
    "expand_cache_hits",
    "expand_cache_misses",
    "forward_moves",
    "backward_moves",
    "frt_capped",
    "sweeps_saved",
    "cases_run",
    "oracle_failures",
    "shrink_steps",
    "reports_generated",
];

/// A merged telemetry snapshot.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Telemetry {
    /// Counter values, indexed by `Counter as usize`.
    pub counters: [u64; NUM_COUNTERS],
    /// Per-layer totals, indexed by `Layer as usize`.
    pub layers: [LayerStats; NUM_LAYERS],
    /// Streaming distribution histograms, indexed by
    /// `hist::Metric as usize`.
    pub hists: [Histogram; NUM_HISTS],
    /// The job's allocation ledger. All zeros unless
    /// [`mem::set_enabled`] turned accounting on.
    pub mem: MemStats,
}

impl Telemetry {
    /// Value of one counter.
    pub fn counter(&self, c: Counter) -> u64 {
        self.counters[c as usize]
    }

    /// Totals of one layer.
    pub fn layer(&self, l: Layer) -> &LayerStats {
        &self.layers[l as usize]
    }

    /// One distribution histogram.
    pub fn hist(&self, m: Metric) -> &Histogram {
        &self.hists[m as usize]
    }

    /// Adds another snapshot into this one.
    pub fn merge(&mut self, other: &Telemetry) {
        for i in 0..NUM_COUNTERS {
            self.counters[i] += other.counters[i];
        }
        for i in 0..NUM_LAYERS {
            self.layers[i].merge(&other.layers[i]);
        }
        for i in 0..NUM_HISTS {
            self.hists[i].merge(&other.hists[i]);
        }
        self.mem.merge(&other.mem);
    }

    /// This snapshot minus an earlier one (saturating).
    pub fn since(&self, earlier: &Telemetry) -> Telemetry {
        let mut out = Telemetry::default();
        for i in 0..NUM_COUNTERS {
            out.counters[i] = self.counters[i].saturating_sub(earlier.counters[i]);
        }
        for i in 0..NUM_LAYERS {
            out.layers[i] = self.layers[i].since(&earlier.layers[i]);
        }
        for i in 0..NUM_HISTS {
            out.hists[i] = self.hists[i].since(&earlier.hists[i]);
        }
        out.mem = self.mem.since(&earlier.mem);
        out
    }
}

/// A cross-thread live view of one running job's telemetry.
///
/// The worker thread installs an `Arc<LiveTelemetry>` as a *mirror*
/// ([`install_mirror`]): every [`count`] and every closing layer guard
/// then also lands in these atomics, so another thread — the `tmfrt
/// serve` `/jobs/<id>` handler — can read a running job's
/// counters-so-far without touching the worker's thread-locals. Layers
/// mirror their inclusive time only; histograms are **not** mirrored (64
/// atomic buckets per sample would tax the hot paths). Both arrive with
/// the final [`Telemetry`] at job end. `current_layer` holds the
/// outermost open layer, feeding the serve monitor's phase-transition
/// events.
#[derive(Debug, Default)]
pub struct LiveTelemetry {
    counters: [AtomicU64; NUM_COUNTERS],
    layer_nanos: [AtomicU64; NUM_LAYERS],
    /// `Layer as usize`, or `NUM_LAYERS` when no layer is open.
    current_layer: AtomicUsize,
    /// Heap high-water so far (bytes), max-merged from closing layers
    /// on the mirrored threads.
    mem_peak_bytes: AtomicU64,
    /// Allocation events so far inside layers on the mirrored threads.
    mem_allocs: AtomicU64,
}

impl LiveTelemetry {
    /// A zeroed live view with no open layer.
    pub fn new() -> LiveTelemetry {
        let live = LiveTelemetry::default();
        live.current_layer.store(NUM_LAYERS, Ordering::Relaxed);
        live
    }

    /// A point-in-time copy of the mirrored counters and inclusive layer
    /// times (histogram slots stay empty — see the type docs).
    pub fn snapshot(&self) -> Telemetry {
        let mut t = Telemetry::default();
        for i in 0..NUM_COUNTERS {
            t.counters[i] = self.counters[i].load(Ordering::Relaxed);
        }
        for i in 0..NUM_LAYERS {
            t.layers[i].incl_nanos = self.layer_nanos[i].load(Ordering::Relaxed);
        }
        t.mem.peak_bytes = self.mem_peak_bytes.load(Ordering::Relaxed);
        t.mem.allocs = self.mem_allocs.load(Ordering::Relaxed);
        t
    }

    /// Heap high-water mark mirrored so far, in bytes (zero when memory
    /// accounting is off).
    pub fn mem_peak_bytes(&self) -> u64 {
        self.mem_peak_bytes.load(Ordering::Relaxed)
    }

    /// The outermost layer open on the mirrored job, if any.
    pub fn current_layer(&self) -> Option<Layer> {
        Layer::ALL
            .get(self.current_layer.load(Ordering::Relaxed))
            .copied()
    }
}

thread_local! {
    static COUNTERS: [Cell<u64>; NUM_COUNTERS] = const {
        [const { Cell::new(0) }; NUM_COUNTERS]
    };
    static LAYERS: RefCell<[LayerStats; NUM_LAYERS]> =
        const { RefCell::new([LayerStats::zeroed(); NUM_LAYERS]) };
    static HISTS: RefCell<[Histogram; NUM_HISTS]> =
        const { RefCell::new([Histogram::zeroed(); NUM_HISTS]) };
    static MIRROR: RefCell<Option<Arc<LiveTelemetry>>> = const { RefCell::new(None) };
    /// Memory telemetry folded in from worker snapshots by
    /// [`merge_local`]. This thread's own allocator ledger
    /// ([`mem::job_delta`]) is added at [`snapshot`] time, not here.
    static MEM_ACC: Cell<MemStats> = const { Cell::new(MemStats::new()) };
}

/// The `Arc<LiveTelemetry>` mirror currently installed on this thread, if
/// any — lets a parent thread hand its mirror to scoped workers so their
/// counts stay visible live (e.g. in `tmfrt serve`'s `/jobs/<id>`).
pub fn current_mirror() -> Option<Arc<LiveTelemetry>> {
    MIRROR.with(|m| m.borrow().clone())
}

/// Merges a snapshot into the current thread's **local** accumulators
/// only — the installed mirror (if any) is deliberately not updated,
/// because the usual source of `t` is a scoped worker that mirrored its
/// counts live while running; re-mirroring here would double-count them.
pub fn merge_local(t: &Telemetry) {
    COUNTERS.with(|cs| {
        for (i, cell) in cs.iter().enumerate() {
            cell.set(cell.get().wrapping_add(t.counters[i]));
        }
    });
    LAYERS.with(|ls| {
        let mut layers = ls.borrow_mut();
        for i in 0..NUM_LAYERS {
            layers[i].merge(&t.layers[i]);
        }
    });
    HISTS.with(|hs| {
        let mut hists = hs.borrow_mut();
        for i in 0..NUM_HISTS {
            hists[i].merge(&t.hists[i]);
        }
    });
    MEM_ACC.with(|m| {
        let mut acc = m.get();
        acc.merge(&t.mem);
        m.set(acc);
    });
}

/// Publishes `layer` as the mirror's current layer when a mirror is
/// installed and no layer is published yet; true when this call
/// published it (the closing guard then clears it).
pub(crate) fn mirror_enter(layer: Layer) -> bool {
    let mut published = false;
    with_mirror(|live| {
        published = live
            .current_layer
            .compare_exchange(
                NUM_LAYERS,
                layer as usize,
                Ordering::Relaxed,
                Ordering::Relaxed,
            )
            .is_ok();
    });
    published
}

/// Accumulates one closing layer guard's record into the current
/// thread's telemetry and the installed mirror. `reached` is the
/// absolute heap level the layer reached (memory accounting on).
pub(crate) fn layer_exit(layer: Layer, stats: &LayerStats, published: bool, reached: Option<u64>) {
    LAYERS.with(|ls| ls.borrow_mut()[layer as usize].merge(stats));
    with_mirror(|live| {
        live.layer_nanos[layer as usize].fetch_add(stats.incl_nanos, Ordering::Relaxed);
        if published {
            live.current_layer.store(NUM_LAYERS, Ordering::Relaxed);
        }
        if let Some(peak) = reached {
            live.mem_allocs.fetch_add(stats.allocs, Ordering::Relaxed);
            live.mem_peak_bytes.fetch_max(peak, Ordering::Relaxed);
        }
    });
}

/// Installs `live` as the current thread's telemetry mirror for the
/// lifetime of the returned guard (the previous mirror is restored on
/// drop). Counters and layer times recorded on this thread are
/// duplicated into the mirror's atomics.
pub fn install_mirror(live: Arc<LiveTelemetry>) -> MirrorGuard {
    let prev = MIRROR.with(|m| m.replace(Some(live)));
    MirrorGuard { prev }
}

/// RAII guard returned by [`install_mirror`].
#[derive(Debug)]
pub struct MirrorGuard {
    prev: Option<Arc<LiveTelemetry>>,
}

impl Drop for MirrorGuard {
    fn drop(&mut self) {
        let prev = self.prev.take();
        MIRROR.with(|m| *m.borrow_mut() = prev);
    }
}

#[inline]
fn with_mirror(f: impl FnOnce(&LiveTelemetry)) {
    MIRROR.with(|m| {
        if let Some(live) = m.borrow().as_ref() {
            f(live);
        }
    });
}

/// Adds `n` to a counter on the current thread. Lock-free: one
/// thread-local access and a `Cell` read-modify-write (plus one relaxed
/// atomic add when a [`LiveTelemetry`] mirror is installed).
#[inline]
pub fn count(c: Counter, n: u64) {
    COUNTERS.with(|cs| {
        let cell = &cs[c as usize];
        cell.set(cell.get().wrapping_add(n));
    });
    with_mirror(|live| {
        live.counters[c as usize].fetch_add(n, Ordering::Relaxed);
    });
}

/// Records one sample into a distribution histogram on the current
/// thread. Lock-free: one thread-local access, no allocation.
#[inline]
pub fn record(m: Metric, value: u64) {
    HISTS.with(|hs| hs.borrow_mut()[m as usize].record(value));
}

/// Snapshots the current thread's telemetry without resetting it.
pub fn snapshot() -> Telemetry {
    let mut t = Telemetry::default();
    COUNTERS.with(|cs| {
        for (i, cell) in cs.iter().enumerate() {
            t.counters[i] = cell.get();
        }
    });
    LAYERS.with(|ls| t.layers = *ls.borrow());
    HISTS.with(|hs| t.hists = *hs.borrow());
    t.mem = MEM_ACC.with(|m| m.get());
    // Fold in this thread's allocator ledger since the last job mark —
    // scoped workers contribute theirs through merge_local instead.
    let (delta, peak) = mem::job_delta();
    t.mem.allocs = t.mem.allocs.wrapping_add(delta.allocs);
    t.mem.frees = t.mem.frees.wrapping_add(delta.frees);
    t.mem.alloc_bytes = t.mem.alloc_bytes.wrapping_add(delta.alloc_bytes);
    t.mem.free_bytes = t.mem.free_bytes.wrapping_add(delta.free_bytes);
    t.mem.peak_bytes = t.mem.peak_bytes.max(peak);
    t
}

/// Snapshots **and resets** the current thread's telemetry (job boundary).
pub fn take() -> Telemetry {
    let t = snapshot();
    COUNTERS.with(|cs| cs.iter().for_each(|c| c.set(0)));
    LAYERS.with(|ls| *ls.borrow_mut() = [LayerStats::zeroed(); NUM_LAYERS]);
    HISTS.with(|hs| *hs.borrow_mut() = [Histogram::zeroed(); NUM_HISTS]);
    MEM_ACC.with(|m| m.set(MemStats::new()));
    mem::job_mark();
    t
}

/// Resets the current thread's telemetry to zero.
pub fn reset() {
    let _ = take();
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn count_take_roundtrip() {
        reset();
        count(Counter::FlowAugmentations, 3);
        count(Counter::FlowAugmentations, 2);
        count(Counter::FrtSweeps, 1);
        let t = take();
        assert_eq!(t.counter(Counter::FlowAugmentations), 5);
        assert_eq!(t.counter(Counter::FrtSweeps), 1);
        // take() reset everything.
        assert_eq!(take(), Telemetry::default());
    }

    #[test]
    fn merge_and_since() {
        let mut a = Telemetry::default();
        a.counters[0] = 2;
        a.layers[1].self_nanos = 10;
        let mut b = Telemetry::default();
        b.counters[0] = 3;
        b.layers[1].self_nanos = 5;
        a.merge(&b);
        assert_eq!(a.counters[0], 5);
        assert_eq!(a.layers[1].self_nanos, 15);
        let d = a.since(&b);
        assert_eq!(d.counters[0], 2);
        assert_eq!(d.layers[1].self_nanos, 10);
    }

    #[test]
    fn names_cover_variants() {
        assert_eq!(COUNTER_NAMES.len(), NUM_COUNTERS);
        assert_eq!(
            COUNTER_NAMES[Counter::BackwardMoves as usize],
            "backward_moves"
        );
        // Every counter (0..=12 = FlowAugmentations..ReportsGenerated) has
        // a distinct JSON key — a duplicate would silently shadow a column
        // in the artifact.
        let unique: std::collections::HashSet<&str> = COUNTER_NAMES.iter().copied().collect();
        assert_eq!(unique.len(), NUM_COUNTERS);
        assert_eq!(Counter::FlowAugmentations as usize, 0);
        assert_eq!(COUNTER_NAMES[Counter::FrtCapped as usize], "frt_capped");
        assert_eq!(COUNTER_NAMES[Counter::SweepsSaved as usize], "sweeps_saved");
        assert_eq!(COUNTER_NAMES[Counter::CasesRun as usize], "cases_run");
        assert_eq!(
            COUNTER_NAMES[Counter::OracleFailures as usize],
            "oracle_failures"
        );
        assert_eq!(COUNTER_NAMES[Counter::ShrinkSteps as usize], "shrink_steps");
        assert_eq!(
            COUNTER_NAMES[Counter::ReportsGenerated as usize],
            "reports_generated"
        );
        assert_eq!(Counter::ReportsGenerated as usize, NUM_COUNTERS - 1);
    }

    #[test]
    fn merge_local_accumulates_without_mirror() {
        reset();
        count(Counter::FrtSweeps, 2);
        record(Metric::CutSize, 4);
        let live = Arc::new(LiveTelemetry::new());
        let _g = install_mirror(Arc::clone(&live));
        let mut worker = Telemetry::default();
        worker.counters[Counter::FrtSweeps as usize] = 5;
        worker.hists[Metric::CutSize as usize].record(9);
        merge_local(&worker);
        // Thread-local view has both; the mirror saw nothing from the merge.
        assert_eq!(snapshot().counter(Counter::FrtSweeps), 7);
        assert_eq!(snapshot().hist(Metric::CutSize).count, 2);
        assert_eq!(live.snapshot().counter(Counter::FrtSweeps), 0);
        reset();
    }

    #[test]
    fn current_mirror_roundtrips() {
        assert!(current_mirror().is_none());
        let live = Arc::new(LiveTelemetry::new());
        {
            let _g = install_mirror(Arc::clone(&live));
            let seen = current_mirror().expect("mirror installed");
            assert!(Arc::ptr_eq(&seen, &live));
        }
        assert!(current_mirror().is_none());
    }

    #[test]
    fn histograms_ride_the_job_boundary() {
        reset();
        record(Metric::CutSize, 3);
        record(Metric::CutSize, 9);
        record(Metric::SweepsPerPhi, 7);
        let t = take();
        assert_eq!(t.hist(Metric::CutSize).count, 2);
        assert_eq!(t.hist(Metric::CutSize).sum, 12);
        assert_eq!(t.hist(Metric::SweepsPerPhi).count, 1);
        // take() reset the histograms too.
        assert!(take().hist(Metric::CutSize).is_empty());
    }

    #[test]
    fn mirror_sees_live_counts() {
        reset();
        let live = Arc::new(LiveTelemetry::new());
        {
            let _g = install_mirror(Arc::clone(&live));
            count(Counter::FlowAugmentations, 4);
        }
        // Mirror uninstalled: further counts stay local.
        count(Counter::FlowAugmentations, 10);
        assert_eq!(live.snapshot().counter(Counter::FlowAugmentations), 4);
        // The thread-local view kept everything.
        assert_eq!(take().counter(Counter::FlowAugmentations), 14);
    }

    #[test]
    fn telemetry_is_thread_local() {
        reset();
        count(Counter::FrtSweeps, 7);
        let handle = std::thread::spawn(take);
        let other = handle.join().unwrap();
        assert_eq!(other, Telemetry::default());
        assert_eq!(take().counter(Counter::FrtSweeps), 7);
    }
}
