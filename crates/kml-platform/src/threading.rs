//! Threading wrappers (`kml_create_thread`, `kml_stop_thread`, ...).
//!
//! KML's async training runs on a dedicated thread created through the dev
//! API so the same model code spawns a pthread in user space and a kthread in
//! the kernel. [`KmlThread`] reproduces the kthread lifecycle: a `should_stop`
//! flag the worker polls (`kthread_should_stop`), an explicit `stop()` that
//! joins, and named threads for debuggability.

use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

use crate::{Persona, PlatformError, Result};

/// Handle to a stoppable worker thread, mirroring the kernel kthread API.
///
/// # Example
///
/// ```
/// use kml_platform::{threading::KmlThread, Persona};
/// use std::sync::atomic::{AtomicU64, Ordering};
/// use std::sync::Arc;
///
/// let count = Arc::new(AtomicU64::new(0));
/// let c = count.clone();
/// let t = KmlThread::spawn(Persona::Kernel, "kml-train", move |ctl| {
///     while !ctl.should_stop() {
///         c.fetch_add(1, Ordering::Relaxed);
///         std::thread::yield_now();
///     }
/// }).unwrap();
/// while count.load(Ordering::Relaxed) == 0 {
///     std::thread::yield_now();
/// }
/// t.stop().unwrap();
/// assert!(count.load(Ordering::Relaxed) > 0);
/// ```
#[derive(Debug)]
pub struct KmlThread {
    name: String,
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<()>>,
}

/// Control block passed to the worker closure.
#[derive(Debug, Clone)]
pub struct ThreadCtl {
    stop: Arc<AtomicBool>,
}

impl ThreadCtl {
    /// Whether the owner has requested the thread to stop
    /// (`kthread_should_stop` analogue). Workers should poll this in their
    /// main loop and return promptly when it turns true.
    pub fn should_stop(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

impl KmlThread {
    /// Spawns a named worker thread (`kml_create_thread` analogue).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Thread`] if the OS refuses to spawn a thread.
    pub fn spawn<F>(persona: Persona, name: &str, work: F) -> Result<Self>
    where
        F: FnOnce(ThreadCtl) + Send + 'static,
    {
        let stop = Arc::new(AtomicBool::new(false));
        let ctl = ThreadCtl { stop: stop.clone() };
        let full_name = match persona {
            Persona::Kernel => format!("kthread/{name}"),
            Persona::User => name.to_owned(),
        };
        let handle = std::thread::Builder::new()
            .name(full_name.clone())
            .spawn(move || work(ctl))
            .map_err(|e| PlatformError::Thread(e.to_string()))?;
        Ok(KmlThread {
            name: full_name,
            stop,
            handle: Some(handle),
        })
    }

    /// The (persona-prefixed) thread name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Requests the worker to stop and joins it (`kml_stop_thread` analogue).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::Thread`] if the worker panicked.
    pub fn stop(mut self) -> Result<()> {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            handle
                .join()
                .map_err(|_| PlatformError::Thread(format!("{} panicked", self.name)))?;
        }
        Ok(())
    }

    /// Whether a stop has been requested (visible to the owner side).
    pub fn stop_requested(&self) -> bool {
        self.stop.load(Ordering::Acquire)
    }
}

impl Drop for KmlThread {
    fn drop(&mut self) {
        // Destructors never fail: request stop and detach-join best effort.
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.handle.take() {
            let _ = handle.join();
        }
    }
}

/// Environment variable that overrides the worker count used by
/// [`default_workers`] (and therefore by the experiment sweeps).
pub const WORKERS_ENV: &str = "KML_REPRO_THREADS";

/// Worker count for embarrassingly-parallel sweeps: the `KML_REPRO_THREADS`
/// environment variable when set to a positive integer, otherwise the
/// machine's available parallelism (1 if unknown).
pub fn default_workers() -> usize {
    if let Ok(v) = std::env::var(WORKERS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            if n > 0 {
                return n;
            }
        }
    }
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Environment variable that overrides the size of the process-global
/// [`WorkerPool`] (number of resident pool threads, caller not counted).
pub const POOL_THREADS_ENV: &str = "KML_POOL_THREADS";

/// Lifetime-erased reference to the closure being broadcast for one epoch.
///
/// Workers only dereference it while `finished < participants` for the
/// active epoch, and [`WorkerPool::broadcast`] blocks until
/// `finished == participants` before returning, so the pointee strictly
/// outlives every use.
#[derive(Clone, Copy)]
struct TaskRef(*const (dyn Fn(usize) + Sync));

// SAFETY: the pointee is `Sync` (shared access from many threads is fine)
// and `broadcast` keeps it alive for the duration of the epoch.
unsafe impl Send for TaskRef {}

struct PoolState {
    /// Bumped once per dispatch; workers compare against their last-seen
    /// epoch to detect new work.
    epoch: u64,
    /// Closure for the active epoch (`None` between dispatches).
    task: Option<TaskRef>,
    /// How many pool threads take part in the active epoch.
    participants: usize,
    /// How many participants have finished the active epoch.
    finished: usize,
    /// First panic payload captured from a participant this epoch.
    panic: Option<Box<dyn std::any::Any + Send>>,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    /// Signalled when a new epoch is published (or on shutdown).
    work_cv: Condvar,
    /// Signalled when the last participant of an epoch finishes.
    done_cv: Condvar,
}

/// A persistent worker pool: threads are spawned once and parked on a
/// condvar between dispatches, so repeated fan-outs (a fleet run issues
/// thousands) cost a wakeup instead of a `std::thread::spawn` each.
///
/// Dispatch model: [`broadcast`](Self::broadcast) publishes one closure per
/// *epoch*; every participating worker invokes it exactly once with its
/// **slot index** (pool thread `w` gets slot `w + 1`), and the calling
/// thread participates as slot 0. Slots let callers keep per-worker scratch
/// without allocation. [`run`](Self::run) and [`map`](Self::map) build the
/// familiar atomic-cursor/item-order-deterministic scheme on top: at any
/// worker count `map` returns exactly what the serial
/// `items.iter().enumerate().map(..)` returns.
///
/// Panic safety: a panicking task is caught in the worker, re-raised on the
/// dispatching thread after the epoch completes, and the pool remains
/// usable for subsequent dispatches — no wedging, no poisoning.
///
/// Re-entrancy: a dispatch issued while another is in flight (including
/// from inside a pool task) runs inline on the caller, so nested
/// parallelism degrades to sequential instead of deadlocking.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    /// Guards against concurrent/nested dispatch; see [`Self::broadcast`].
    dispatching: AtomicBool,
    threads: usize,
    handles: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("threads", &self.threads)
            .finish()
    }
}

impl WorkerPool {
    /// Spawns a pool with `threads` resident worker threads. The caller's
    /// thread always participates in dispatches as slot 0, so a pool with
    /// `threads == 0` is valid and simply runs everything inline.
    pub fn new(threads: usize) -> Self {
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                epoch: 0,
                task: None,
                participants: 0,
                finished: 0,
                panic: None,
                shutdown: false,
            }),
            work_cv: Condvar::new(),
            done_cv: Condvar::new(),
        });
        let handles = (0..threads)
            .map(|w| {
                let shared = shared.clone();
                std::thread::Builder::new()
                    .name(format!("kml-pool/{w}"))
                    .spawn(move || Self::worker_loop(&shared, w))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        WorkerPool {
            shared,
            dispatching: AtomicBool::new(false),
            threads,
            handles,
        }
    }

    /// Number of resident pool threads (excluding the dispatching caller).
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Highest slot index a task closure can observe (`threads`, because the
    /// caller is slot 0). Size per-slot scratch as `max_slot() + 1`.
    pub fn max_slot(&self) -> usize {
        self.threads
    }

    fn worker_loop(shared: &PoolShared, w: usize) {
        let mut seen = 0u64;
        loop {
            let task = {
                let mut st = shared.state.lock().expect("pool mutex poisoned");
                loop {
                    if st.shutdown {
                        return;
                    }
                    if st.epoch != seen {
                        seen = st.epoch;
                        if w < st.participants {
                            break st.task.expect("active epoch has a task");
                        }
                    }
                    st = shared.work_cv.wait(st).expect("pool mutex poisoned");
                }
            };
            // SAFETY: see `TaskRef` — valid until we bump `finished` below.
            let f = unsafe { &*task.0 };
            let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(w + 1)));
            let mut st = shared.state.lock().expect("pool mutex poisoned");
            if let Err(payload) = result {
                if st.panic.is_none() {
                    st.panic = Some(payload);
                }
            }
            st.finished += 1;
            if st.finished == st.participants {
                shared.done_cv.notify_all();
            }
        }
    }

    /// Invokes `f(slot)` once on the caller (slot 0) and once on each of up
    /// to `extra_workers` pool threads (slots 1..), returning after **all**
    /// invocations finish. With `extra_workers == 0`, or when another
    /// dispatch is already in flight (nested use), `f(0)` runs inline.
    ///
    /// Allocation-free on the dispatch path: the closure is passed by
    /// reference through a lifetime-erased pointer, not boxed.
    ///
    /// # Panics
    ///
    /// Re-raises the first panic from any participant after the epoch
    /// completes; the pool stays usable afterwards.
    pub fn broadcast<F>(&self, extra_workers: usize, f: F)
    where
        F: Fn(usize) + Sync,
    {
        let participants = extra_workers.min(self.threads);
        if participants == 0 {
            f(0);
            return;
        }
        if self
            .dispatching
            .compare_exchange(false, true, Ordering::Acquire, Ordering::Relaxed)
            .is_err()
        {
            // Pool busy (nested or concurrent dispatch): degrade to inline
            // execution instead of deadlocking on the epoch protocol.
            f(0);
            return;
        }
        struct DispatchGuard<'a>(&'a AtomicBool);
        impl Drop for DispatchGuard<'_> {
            fn drop(&mut self) {
                self.0.store(false, Ordering::Release);
            }
        }
        let guard = DispatchGuard(&self.dispatching);

        let erased: &(dyn Fn(usize) + Sync) = &f;
        // SAFETY: lifetime erasure only; `broadcast` blocks until every
        // participant finished, so `f` outlives all uses (see `TaskRef`).
        let task = TaskRef(unsafe {
            std::mem::transmute::<&(dyn Fn(usize) + Sync), &'static (dyn Fn(usize) + Sync)>(erased)
        });
        {
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            st.epoch = st.epoch.wrapping_add(1);
            st.task = Some(task);
            st.participants = participants;
            st.finished = 0;
            st.panic = None;
            self.shared.work_cv.notify_all();
        }
        // The caller participates as slot 0. Catch a local panic so we
        // still wait for the workers before unwinding (they hold a
        // pointer into our frame).
        let caller = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(0)));
        let worker_panic = {
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            while st.finished < st.participants {
                st = self.shared.done_cv.wait(st).expect("pool mutex poisoned");
            }
            st.task = None;
            st.panic.take()
        };
        drop(guard);
        if let Err(payload) = caller {
            std::panic::resume_unwind(payload);
        }
        if let Some(payload) = worker_panic {
            std::panic::resume_unwind(payload);
        }
    }

    /// Runs `task(slot, index)` for every `index in 0..tasks`, handing
    /// indices out through an atomic cursor across `workers` participants
    /// (caller included). Which slot runs which index is dynamic, but
    /// callers that key results/scratch by **index** (not slot) get
    /// byte-identical output at any worker count. With `workers <= 1` or
    /// fewer than two tasks everything runs inline as slot 0.
    ///
    /// Unlike [`map`](Self::map) this returns nothing and allocates
    /// nothing: tasks write results into caller-owned storage indexed by
    /// `index` (disjoint per task) or `slot` (exclusive per participant).
    pub fn run<F>(&self, workers: usize, tasks: usize, task: F)
    where
        F: Fn(usize, usize) + Sync,
    {
        let workers = workers.clamp(1, tasks.max(1));
        if workers <= 1 || tasks <= 1 {
            for i in 0..tasks {
                task(0, i);
            }
            return;
        }
        let cursor = AtomicUsize::new(0);
        self.broadcast(workers - 1, |slot| loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= tasks {
                break;
            }
            task(slot, i);
        });
    }

    /// Runs `work(i, &items[i])` for every item across `workers`
    /// participants and returns the results **in item order**, regardless
    /// of which participant ran which task or in what order tasks
    /// finished: callers that seed per-task RNGs from the task index get
    /// byte-identical results at any worker count (including 1, which
    /// runs inline on the caller, as do fewer than two items).
    pub fn map<T, R, F>(&self, items: &[T], workers: usize, work: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let workers = workers.clamp(1, items.len().max(1));
        if workers <= 1 || items.len() <= 1 {
            return items.iter().enumerate().map(|(i, t)| work(i, t)).collect();
        }
        let results: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
        self.run(workers, items.len(), |_slot, i| {
            let r = work(i, &items[i]);
            *results[i].lock().expect("result slot poisoned") = Some(r);
        });
        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("every task index was visited")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut st = self.shared.state.lock().expect("pool mutex poisoned");
            st.shutdown = true;
            self.shared.work_cv.notify_all();
        }
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

/// Pool-thread count for the process-global pool: `KML_POOL_THREADS` when
/// set to a positive integer, otherwise enough threads that the repro
/// byte-identity sweeps (`--threads 8`) schedule on real pool workers even
/// on small hosts — parked threads cost nothing.
fn global_pool_threads() -> usize {
    if let Ok(v) = std::env::var(POOL_THREADS_ENV) {
        if let Ok(n) = v.trim().parse::<usize>() {
            return n;
        }
    }
    let hw = std::thread::available_parallelism().map_or(1, |n| n.get());
    hw.max(9) - 1
}

/// The process-global [`WorkerPool`], created on first use and never torn
/// down. Every production fan-out (fleet rounds, batched serving, repro
/// sweeps, sharded training) dispatches here so the whole process performs
/// exactly one round of thread spawns.
pub fn global_pool() -> &'static WorkerPool {
    static POOL: OnceLock<WorkerPool> = OnceLock::new();
    POOL.get_or_init(|| WorkerPool::new(global_pool_threads()))
}

/// [`WorkerPool::map`] on the process-global persistent pool: item-order
/// determinism at any worker count, no per-call thread spawns.
pub fn pool_map<T, R, F>(items: &[T], workers: usize, work: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(usize, &T) -> R + Sync,
{
    global_pool().map(items, workers, work)
}

/// [`WorkerPool::run`] on the process-global pool — except that a call
/// which would run inline anyway (`workers <= 1` or fewer than two tasks)
/// never asks for the pool, so a single-threaded caller does not pay the
/// pool's one round of thread spawns.
pub fn pool_run<F>(workers: usize, tasks: usize, task: F)
where
    F: Fn(usize, usize) + Sync,
{
    if workers <= 1 || tasks <= 1 {
        (0..tasks).for_each(|i| task(0, i));
    } else {
        global_pool().run(workers, tasks, task);
    }
}

/// Yields the current thread (`kml_yield` analogue; `cond_resched` in-kernel).
pub fn kml_yield() {
    std::thread::yield_now();
}

/// Sleeps for the given duration (`kml_msleep` analogue).
pub fn kml_sleep(d: std::time::Duration) {
    std::thread::sleep(d);
}

/// Empty polls a waiting loop answers with [`kml_yield`] before it sleeps.
const IDLE_YIELDS: u32 = 16;
/// What a waiting loop sleeps between polls once its yields are spent:
/// long enough that an idle thread costs a few percent of a core, short
/// enough that nothing waiting on it notices.
const IDLE_SLEEP: std::time::Duration = std::time::Duration::from_micros(100);

/// One wait of a polling loop that found nothing to do. `idle_polls` counts
/// the loop's consecutive empty polls — the caller zeroes it on progress —
/// so a busy loop stays on the yield path and an idle one sleeps, as the
/// paper's training kthread does, instead of spinning a core.
pub fn kml_idle_wait(idle_polls: &mut u32) {
    if *idle_polls < IDLE_YIELDS {
        *idle_polls += 1;
        kml_yield();
    } else {
        kml_sleep(IDLE_SLEEP);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn worker_runs_and_stops() {
        let n = Arc::new(AtomicU64::new(0));
        let nn = n.clone();
        let t = KmlThread::spawn(Persona::User, "worker", move |ctl| {
            while !ctl.should_stop() {
                nn.fetch_add(1, Ordering::Relaxed);
            }
        })
        .unwrap();
        while n.load(Ordering::Relaxed) < 10 {
            kml_yield();
        }
        t.stop().unwrap();
        let after = n.load(Ordering::Relaxed);
        assert!(after >= 10);
    }

    #[test]
    fn kernel_persona_prefixes_name() {
        let t = KmlThread::spawn(Persona::Kernel, "train", |_| {}).unwrap();
        assert_eq!(t.name(), "kthread/train");
        t.stop().unwrap();
    }

    #[test]
    fn stop_reports_worker_panic() {
        let t = KmlThread::spawn(Persona::User, "panicky", |_| panic!("boom")).unwrap();
        // Give it a moment to panic, then join through stop().
        let err = t.stop().unwrap_err();
        assert!(matches!(err, PlatformError::Thread(_)));
    }

    #[test]
    fn pool_map_runs_on_many_threads() {
        use std::collections::HashSet;
        let pool = WorkerPool::new(3);
        let items: Vec<usize> = (0..256).collect();
        let ids = pool.map(&items, 4, |_, _| {
            // Slight stall so the pool actually interleaves.
            std::thread::sleep(std::time::Duration::from_micros(50));
            std::thread::current().id()
        });
        let distinct: HashSet<_> = ids.into_iter().collect();
        assert!(distinct.len() > 1, "expected work spread across workers");
    }

    #[test]
    fn default_workers_is_positive() {
        assert!(default_workers() >= 1);
    }

    #[test]
    fn pool_map_matches_the_serial_map() {
        let pool = WorkerPool::new(4);
        let items: Vec<usize> = (0..257).collect();
        let square = |i: usize, x: &usize| (i, x.wrapping_mul(*x));
        let serial: Vec<_> = items
            .iter()
            .enumerate()
            .map(|(i, x)| square(i, x))
            .collect();
        for workers in [1, 2, 3, 4, 9] {
            let pooled = pool.map(&items, workers, square);
            assert_eq!(serial, pooled, "workers={workers}");
        }
    }

    #[test]
    fn pool_handles_empty_and_single() {
        let pool = WorkerPool::new(2);
        let empty: Vec<u32> = Vec::new();
        assert!(pool.map(&empty, 4, |_, &x| x).is_empty());
        assert_eq!(pool.map(&[7u32], 4, |_, &x| x + 1), vec![8]);
    }

    #[test]
    fn pool_zero_threads_runs_inline() {
        let pool = WorkerPool::new(0);
        let items: Vec<usize> = (0..32).collect();
        assert_eq!(
            pool.map(&items, 8, |_, &x| x * 2),
            items.iter().map(|&x| x * 2).collect::<Vec<_>>()
        );
    }

    #[test]
    fn pool_is_reusable_across_many_dispatches() {
        let pool = WorkerPool::new(3);
        let items: Vec<u64> = (0..64).collect();
        for round in 0..50u64 {
            let out = pool.map(&items, 4, |_, &x| x + round);
            assert_eq!(out[63], 63 + round);
        }
    }

    #[test]
    fn pool_run_covers_every_index_once() {
        let pool = WorkerPool::new(4);
        let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
        pool.run(5, hits.len(), |_slot, i| {
            hits[i].fetch_add(1, Ordering::Relaxed);
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn global_pool_run_covers_every_index_once_and_stays_on_slot_0_at_one_worker() {
        for workers in [0, 1, 4] {
            let hits: Vec<AtomicU64> = (0..100).map(|_| AtomicU64::new(0)).collect();
            pool_run(workers, hits.len(), |slot, i| {
                assert!(workers > 1 || slot == 0, "slot {slot} at workers {workers}");
                hits[i].fetch_add(1, Ordering::Relaxed);
            });
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
        }
    }

    #[test]
    fn pool_run_slots_are_disjoint_participants() {
        let pool = WorkerPool::new(4);
        let max_slot = pool.max_slot();
        let seen: Vec<AtomicU64> = (0..=max_slot).map(|_| AtomicU64::new(0)).collect();
        pool.run(5, 512, |slot, _i| {
            assert!(slot <= max_slot, "slot {slot} out of range");
            seen[slot].fetch_add(1, Ordering::Relaxed);
            std::thread::sleep(std::time::Duration::from_micros(20));
        });
        let total: u64 = seen.iter().map(|s| s.load(Ordering::Relaxed)).sum();
        assert_eq!(total, 512);
    }

    #[test]
    fn pool_panic_propagates_and_does_not_wedge() {
        let pool = WorkerPool::new(3);
        let items: Vec<usize> = (0..64).collect();
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.map(&items, 4, |_, &x| {
                if x == 17 {
                    panic!("task 17 exploded");
                }
                x
            })
        }));
        assert!(result.is_err(), "panic must propagate to the dispatcher");
        // The pool must remain fully usable after a panicking epoch.
        for _ in 0..10 {
            let out = pool.map(&items, 4, |_, &x| x + 1);
            assert_eq!(out.len(), items.len());
            assert_eq!(out[17], 18);
        }
    }

    #[test]
    fn pool_caller_panic_still_joins_workers() {
        let pool = WorkerPool::new(2);
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            pool.broadcast(2, |slot| {
                if slot == 0 {
                    panic!("caller slot panics");
                }
                std::thread::sleep(std::time::Duration::from_millis(5));
            });
        }));
        assert!(result.is_err());
        // Subsequent dispatch works.
        let done = AtomicU64::new(0);
        pool.broadcast(2, |_| {
            done.fetch_add(1, Ordering::Relaxed);
        });
        assert_eq!(done.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn nested_dispatch_runs_inline_without_deadlock() {
        let pool = WorkerPool::new(2);
        let outer: Vec<usize> = (0..8).collect();
        let inner: Vec<usize> = (0..8).collect();
        let out = pool.map(&outer, 3, |_, &x| {
            // A nested map on the same pool must degrade to inline, not
            // deadlock on the single-dispatch protocol.
            let sums: usize = pool.map(&inner, 3, |_, &y| x + y).iter().sum();
            sums
        });
        let expected: Vec<usize> = outer.iter().map(|&x| 8 * x + 28).collect();
        assert_eq!(out, expected);
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = global_pool() as *const WorkerPool;
        let b = global_pool() as *const WorkerPool;
        assert_eq!(a, b);
        let items: Vec<usize> = (0..128).collect();
        let out = pool_map(&items, 8, |i, &x| (i, x));
        assert_eq!(out.len(), 128);
        assert_eq!(out[77], (77, 77));
    }

    #[test]
    fn drop_joins_without_hanging() {
        let t = KmlThread::spawn(Persona::User, "dropper", |ctl| {
            while !ctl.should_stop() {
                kml_yield();
            }
        })
        .unwrap();
        drop(t); // must not hang or panic
    }
}
