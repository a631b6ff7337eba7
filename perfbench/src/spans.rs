//! Layer spans recorded from outside the program.
//!
//! The traced pass wraps every call into a layer's public function in a
//! [`Recorder`] span. Spans and their per-span telemetry deltas are kept
//! in memory; at the end of the pass they are exported as a Chrome trace
//! (readable by `tmfrt profile`) and folded through
//! [`engine::profile::Profile`] into per-layer self times.

use engine::mem;
use engine::profile::Profile;
use engine::telemetry::{self, Telemetry};
use engine::JsonValue;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Instant;

static NEXT_TID: AtomicU64 = AtomicU64::new(1);

thread_local! {
    static TID: u64 = NEXT_TID.fetch_add(1, Ordering::Relaxed);
}

fn tid() -> u64 {
    TID.with(|t| *t)
}

/// One finished span.
#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    tid: u64,
    start_ns: u64,
    end_ns: u64,
}

/// What the spans of one layer name did, summed over its calls.
#[derive(Debug, Clone, Default)]
pub struct LayerWork {
    /// Calls recorded.
    pub calls: u64,
    /// Telemetry delta of the calling thread across the calls.
    pub telemetry: Telemetry,
    /// Bytes allocated by the calling thread during the calls.
    pub alloc_bytes: u64,
    /// Largest heap growth above the entry level seen in one call
    /// (recorded only by [`Recorder::span_peak`]).
    pub peak_heap_bytes: u64,
}

/// An in-memory span recorder shared by the threads of one pass.
#[derive(Debug)]
pub struct Recorder {
    origin: Instant,
    main_tid: u64,
    spans: Mutex<Vec<Span>>,
    work: Mutex<BTreeMap<&'static str, LayerWork>>,
}

impl Recorder {
    /// A recorder whose driving thread is the calling thread.
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            main_tid: tid(),
            spans: Mutex::new(Vec::new()),
            work: Mutex::new(BTreeMap::new()),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn span<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(f, |_| name, false)
    }

    /// Runs `f` inside a span whose name is chosen from its result.
    pub fn span_by<T>(&self, f: impl FnOnce() -> T, name: impl FnOnce(&T) -> &'static str) -> T {
        self.record(f, name, false)
    }

    /// [`Recorder::span`] that also records the call's heap high-water
    /// mark. It restarts the thread's peak ledger, so it must not enclose
    /// another `span_peak`.
    pub fn span_peak<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> T {
        self.record(f, |_| name, true)
    }

    fn record<T>(
        &self,
        f: impl FnOnce() -> T,
        name: impl FnOnce(&T) -> &'static str,
        peak: bool,
    ) -> T {
        let live0 = mem::thread_live();
        if peak {
            mem::job_mark();
        }
        let alloc0 = mem::thread_totals().alloc_bytes;
        let tel0 = telemetry::snapshot();
        let start = self.origin.elapsed();
        let out = f();
        let end = self.origin.elapsed();
        let delta = telemetry::snapshot().since(&tel0);
        let alloc = mem::thread_totals().alloc_bytes.wrapping_sub(alloc0);
        let peak_heap = if peak {
            mem::thread_peak().saturating_sub(live0)
        } else {
            0
        };
        let name = name(&out);
        self.spans.lock().expect("span list poisoned").push(Span {
            name,
            tid: tid(),
            start_ns: start.as_nanos() as u64,
            end_ns: end.as_nanos() as u64,
        });
        let mut work = self.work.lock().expect("layer work poisoned");
        let w = work.entry(name).or_default();
        w.calls += 1;
        w.telemetry.merge(&delta);
        w.alloc_bytes += alloc;
        w.peak_heap_bytes = w.peak_heap_bytes.max(peak_heap);
        out
    }

    /// What the spans named `name` did (zero when none ran).
    pub fn work(&self, name: &str) -> LayerWork {
        self.work
            .lock()
            .expect("layer work poisoned")
            .get(name)
            .cloned()
            .unwrap_or_default()
    }

    /// Exports the spans as a Chrome trace: one `B`/`E` pair per span,
    /// nested per thread, timestamps in µs since the recorder started.
    pub fn chrome_trace(&self) -> JsonValue {
        let mut spans = self.spans.lock().expect("span list poisoned").clone();
        // Parents before children: by thread, start, then longest first.
        spans.sort_by_key(|s| (s.tid, s.start_ns, std::cmp::Reverse(s.end_ns)));
        let event = |name: &str, ph: &str, ns: u64, tid: u64| {
            JsonValue::object(vec![
                ("name", JsonValue::str(name)),
                ("cat", JsonValue::str("perfbench")),
                ("ph", JsonValue::str(ph)),
                ("ts", JsonValue::UInt(ns / 1_000)),
                ("pid", JsonValue::UInt(1)),
                ("tid", JsonValue::UInt(tid)),
            ])
        };
        let mut events = Vec::with_capacity(2 * spans.len());
        let mut open: Vec<Span> = Vec::new();
        let close_until = |open: &mut Vec<Span>, events: &mut Vec<JsonValue>, at: Option<&Span>| {
            while let Some(top) = open.last() {
                let still_open = at.is_some_and(|s| s.tid == top.tid && s.start_ns < top.end_ns);
                if still_open {
                    break;
                }
                events.push(event(top.name, "E", top.end_ns, top.tid));
                open.pop();
            }
        };
        for s in &spans {
            close_until(&mut open, &mut events, Some(s));
            events.push(event(s.name, "B", s.start_ns, s.tid));
            open.push(*s);
        }
        close_until(&mut open, &mut events, None);
        JsonValue::object(vec![("traceEvents", JsonValue::Array(events))])
    }

    /// Seconds the driving thread spent inside top-level spans: the part
    /// of the pass wall that some layer span covers.
    pub fn attributed_secs(&self) -> f64 {
        let mut spans: Vec<Span> = self
            .spans
            .lock()
            .expect("span list poisoned")
            .iter()
            .filter(|s| s.tid == self.main_tid)
            .copied()
            .collect();
        spans.sort_by_key(|s| (s.start_ns, std::cmp::Reverse(s.end_ns)));
        let mut covered_until = 0u64;
        let mut total = 0u64;
        for s in spans {
            if s.start_ns >= covered_until {
                total += s.end_ns - s.start_ns;
                covered_until = s.end_ns;
            }
        }
        total as f64 / 1e9
    }
}

/// Self seconds per layer name, folded from a Chrome trace document.
pub fn self_secs(doc: &JsonValue) -> BTreeMap<String, f64> {
    let mut profile = Profile::new();
    profile
        .add_trace(doc)
        .expect("the recorder exports balanced traces");
    profile
        .spans
        .into_iter()
        .map(|(name, agg)| (name, agg.self_us as f64 / 1e6))
        .collect()
}
