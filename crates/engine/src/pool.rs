//! A work-stealing thread pool built on the standard library.
//!
//! Each worker owns a deque protected by its own mutex; submissions are
//! distributed round-robin across the worker deques. A worker pops from
//! the **front** of its own deque, and when empty it *steals* from the
//! **back** of a sibling's deque (starting at the neighbour after
//! itself, so contention spreads). A shared condvar parks idle workers.
//!
//! Per-deque mutexes are uncontended in the common case (owner pops,
//! nobody steals), which is all the batch workloads here need; tasks are
//! coarse (whole mapping flows), so queue overhead is immaterial — the
//! stealing matters for *balance*, not throughput: circuit runtimes vary
//! by three orders of magnitude across the Table-1 suite.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;

type Task = Box<dyn FnOnce() + Send + 'static>;

struct Shared {
    /// Per-worker deques.
    queues: Vec<Mutex<VecDeque<Task>>>,
    /// Count of queued-but-unclaimed tasks, guarded with the condvar.
    pending: Mutex<usize>,
    wakeup: Condvar,
    shutdown: AtomicBool,
}

/// A fixed-size work-stealing thread pool.
///
/// Dropping the pool waits for all queued tasks to finish.
pub struct Pool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
    next: usize,
}

impl Pool {
    /// Spawns a pool with `workers` threads (at least one).
    pub fn new(workers: usize) -> Pool {
        let workers = workers.max(1);
        let shared = Arc::new(Shared {
            queues: (0..workers).map(|_| Mutex::new(VecDeque::new())).collect(),
            pending: Mutex::new(0),
            wakeup: Condvar::new(),
            shutdown: AtomicBool::new(false),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("engine-worker-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("spawn worker thread")
            })
            .collect();
        Pool {
            shared,
            workers: handles,
            next: 0,
        }
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Submits a task; it runs on some worker thread.
    pub fn spawn(&mut self, task: impl FnOnce() + Send + 'static) {
        let slot = self.next % self.shared.queues.len();
        self.next = self.next.wrapping_add(1);
        self.shared.queues[slot]
            .lock()
            .expect("queue poisoned")
            .push_back(Box::new(task));
        let mut pending = self.shared.pending.lock().expect("pending poisoned");
        *pending += 1;
        drop(pending);
        self.shared.wakeup.notify_one();
    }
}

/// Runs `main` on the calling thread while `workers` scoped helper threads
/// run `work(worker_index)` alongside it — the intra-job counterpart of
/// [`Pool`], used to parallelise *within* one job (e.g. the per-level cut
/// queries of a label sweep) without stealing threads from the job-level
/// pool.
///
/// Each helper thread inherits the caller's execution context:
///
/// * the caller's installed [`crate::cancel::CancelToken`] (so deadline
///   and shutdown trips reach the helpers),
/// * the caller's [`crate::telemetry::LiveTelemetry`] mirror (so counters
///   stay visible live while the job runs),
///
/// and when a helper returns, its thread-local telemetry (counters and
/// histograms it accumulated) is merged back into the caller via
/// [`crate::telemetry::merge_local`], keeping per-job totals exact and
/// independent of how work was divided.
///
/// **Contract:** `main` must cause every `work(i)` call to return (for
/// example by tripping a shared stop flag) — the calling thread joins the
/// helpers after `main` returns and will otherwise block forever. With
/// `workers == 0` no threads are spawned and `main` runs alone.
pub fn scoped_workers<R>(
    workers: usize,
    work: impl Fn(usize) + Sync,
    main: impl FnOnce() -> R,
) -> R {
    if workers == 0 {
        return main();
    }
    let token = crate::cancel::current();
    let mirror = crate::telemetry::current_mirror();
    let collected: Mutex<Vec<crate::telemetry::Telemetry>> = Mutex::new(Vec::new());
    let work = &work;
    let token = &token;
    let mirror = &mirror;
    let collected_ref = &collected;
    let result = std::thread::scope(|s| {
        for i in 0..workers {
            std::thread::Builder::new()
                .name(format!("engine-sweep-{i}"))
                .spawn_scoped(s, move || {
                    let _cancel_guard = token.clone().map(crate::cancel::install);
                    let _mirror_guard = mirror.clone().map(crate::telemetry::install_mirror);
                    work(i);
                    let t = crate::telemetry::take();
                    collected_ref
                        .lock()
                        .expect("telemetry collection poisoned")
                        .push(t);
                })
                .expect("spawn scoped worker");
        }
        main()
    });
    for t in collected
        .into_inner()
        .expect("telemetry collection poisoned")
    {
        crate::telemetry::merge_local(&t);
    }
    result
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        self.shared.wakeup.notify_all();
        for h in self.workers.drain(..) {
            let _ = h.join();
        }
    }
}

fn worker_loop(shared: &Shared, me: usize) {
    let n = shared.queues.len();
    loop {
        // Own deque first (front), then steal from siblings (back).
        let mut task = shared.queues[me]
            .lock()
            .expect("queue poisoned")
            .pop_front();
        if task.is_none() {
            for off in 1..n {
                let victim = (me + off) % n;
                task = shared.queues[victim]
                    .lock()
                    .expect("queue poisoned")
                    .pop_back();
                if task.is_some() {
                    break;
                }
            }
        }
        match task {
            Some(task) => {
                let mut pending = shared.pending.lock().expect("pending poisoned");
                *pending -= 1;
                drop(pending);
                task();
            }
            None => {
                let mut pending = shared.pending.lock().expect("pending poisoned");
                loop {
                    if *pending > 0 {
                        break;
                    }
                    if shared.shutdown.load(Ordering::Acquire) {
                        return;
                    }
                    pending = shared.wakeup.wait(pending).expect("pending poisoned");
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc;

    #[test]
    fn runs_all_tasks() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let mut pool = Pool::new(4);
            for _ in 0..100 {
                let c = Arc::clone(&counter);
                pool.spawn(move || {
                    c.fetch_add(1, Ordering::Relaxed);
                });
            }
        } // drop waits for completion
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn single_worker_is_fifo_for_own_queue() {
        let (tx, rx) = mpsc::channel();
        {
            let mut pool = Pool::new(1);
            for i in 0..10 {
                let tx = tx.clone();
                pool.spawn(move || tx.send(i).unwrap());
            }
        }
        let got: Vec<i32> = rx.try_iter().collect();
        assert_eq!(got, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn workers_clamped_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn scoped_workers_merge_telemetry_and_inherit_cancel() {
        use crate::telemetry::{self, Counter};
        telemetry::reset();
        let token = crate::cancel::CancelToken::new();
        let _g = crate::cancel::install(token.clone());
        let stop = AtomicBool::new(false);
        let result = scoped_workers(
            3,
            |i| {
                // Every helper sees the caller's (live) token...
                assert!(!crate::cancel::cancelled());
                // ...and its counts merge back into the caller afterwards.
                telemetry::count(Counter::FlowAugmentations, i as u64 + 1);
                while !stop.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            },
            || {
                stop.store(true, Ordering::Release);
                42
            },
        );
        assert_eq!(result, 42);
        // 1 + 2 + 3 from the three helpers.
        assert_eq!(
            telemetry::take().counter(Counter::FlowAugmentations),
            6,
            "helper telemetry must merge into the caller"
        );
    }

    #[test]
    fn scoped_workers_merge_memory_accounting() {
        use crate::layer::{self, Layer};
        use crate::mem;
        use crate::telemetry;
        // Workers attribute allocations to layers on their own threads;
        // after the scope, the caller's telemetry holds the exact sums
        // (and the max of the per-thread peaks).
        let _gate = mem::TEST_GATE.lock().unwrap_or_else(|e| e.into_inner());
        mem::set_enabled(true);
        telemetry::reset();
        let stop = AtomicBool::new(false);
        scoped_workers(
            2,
            |i| {
                let _s = layer::enter(Layer::FrtcheckSweep);
                // Worker 0 books 1000 bytes in 1 event, worker 1 books
                // 2000 in 2: distinct shapes so the merge is checkable.
                for _ in 0..=i {
                    mem::on_alloc(1000);
                }
                for _ in 0..=i {
                    mem::on_dealloc(1000);
                }
                while !stop.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            },
            || {
                stop.store(true, Ordering::Release);
            },
        );
        mem::set_enabled(false);
        let t = telemetry::take();
        let sweep = t.layer(Layer::FrtcheckSweep);
        assert_eq!(sweep.calls, 2);
        assert_eq!(sweep.allocs, 3, "1 + 2 events from the two workers");
        assert_eq!(sweep.alloc_bytes, 3000);
        // Peak merges as a max across threads: worker 1 held 2000 live.
        assert_eq!(sweep.peak_bytes, 2000);
        assert_eq!(t.mem.allocs, 3, "job ledger covers worker threads");
        assert_eq!(t.mem.peak_bytes, 2000);
    }

    #[test]
    fn scoped_workers_zero_runs_main_alone() {
        let r = scoped_workers(0, |_| panic!("no workers expected"), || 7);
        assert_eq!(r, 7);
    }

    #[test]
    fn scoped_workers_see_cancellation_trips() {
        let token = crate::cancel::CancelToken::new();
        let _g = crate::cancel::install(token.clone());
        let observed = AtomicBool::new(false);
        scoped_workers(
            1,
            |_| {
                while !crate::cancel::cancelled() {
                    std::thread::yield_now();
                }
                observed.store(true, Ordering::Release);
            },
            || token.cancel(),
        );
        assert!(observed.load(Ordering::Acquire));
    }

    #[test]
    fn stealing_balances_a_blocked_worker() {
        // Two workers; the first task parks worker A on a channel until
        // every other task (queued round-robin to BOTH deques) is done —
        // possible only if worker B steals A's share.
        let (release_tx, release_rx) = mpsc::channel::<()>();
        let done = Arc::new(AtomicUsize::new(0));
        {
            let mut pool = Pool::new(2);
            pool.spawn(move || {
                release_rx.recv().unwrap();
            });
            for _ in 0..20 {
                let d = Arc::clone(&done);
                pool.spawn(move || {
                    d.fetch_add(1, Ordering::Relaxed);
                });
            }
            // Busy-wait (bounded) for the stealing worker to drain all 20.
            let t0 = std::time::Instant::now();
            while done.load(Ordering::Relaxed) < 20 {
                assert!(
                    t0.elapsed() < std::time::Duration::from_secs(10),
                    "stealing failed: {} of 20 done",
                    done.load(Ordering::Relaxed)
                );
                std::thread::yield_now();
            }
            release_tx.send(()).unwrap();
        }
        assert_eq!(done.load(Ordering::Relaxed), 20);
    }
}
