//! Memory-allocation wrappers (`kml_malloc`, `kml_calloc`, `kml_free`, ...).
//!
//! In the paper, KML wraps `malloc`/`kmalloc` so the same ML code links in
//! both personas, supports **memory reservation** so training keeps working
//! under memory pressure (§3.1), and caps total usage so the framework stays
//! within its configured footprint. This module reproduces those behaviours:
//!
//! - byte-accurate accounting of live and peak usage (the paper reports the
//!   readahead model's footprint — 3,916 B static + 676 B inference scratch —
//!   from exactly this kind of accounting);
//! - an optional reservation pool that allocations are charged against;
//! - deterministic allocation-failure injection for fault testing.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;

use crate::{Persona, PlatformError, Result};

thread_local! {
    // const-initialized so reading/updating the counters never allocates —
    // the counting hooks run *inside* the allocator.
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
    static THREAD_FREES: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES_ALLOCATED: Cell<u64> = const { Cell::new(0) };
    static THREAD_BYTES_FREED: Cell<u64> = const { Cell::new(0) };
}

// `try_with`: during thread teardown the TLS slot may already be destroyed,
// and the allocator must keep working (uncounted) rather than panic.
fn add(cell: &'static std::thread::LocalKey<Cell<u64>>, n: u64) {
    let _ = cell.try_with(|c| c.set(c.get() + n));
}

// Process-wide totals alongside the per-thread cells: steady-state tests for
// paths that fan work out across the persistent worker pool need to see
// allocations performed *on pool threads*, which the per-thread counters of
// the measuring thread cannot.
static PROCESS_ALLOCS: AtomicU64 = AtomicU64::new(0);
static PROCESS_FREES: AtomicU64 = AtomicU64::new(0);

/// A [`GlobalAlloc`] wrapper around the system allocator that counts every
/// heap allocation per thread. Install it as the `#[global_allocator]` of a
/// dedicated test binary to *prove* a code path is allocation-free — the
/// mechanism behind the zero-allocation steady-state inference regression
/// test (the paper's runtime is garbage-free in steady state, §3.1/§4):
///
/// ```ignore
/// use kml_platform::alloc::CountingSystemAlloc;
///
/// #[global_allocator]
/// static ALLOC: CountingSystemAlloc = CountingSystemAlloc;
///
/// let before = CountingSystemAlloc::thread_allocations();
/// hot_path();
/// assert_eq!(CountingSystemAlloc::thread_allocations(), before);
/// ```
///
/// Counters are per-thread, so concurrent test threads (the default libtest
/// harness) do not perturb each other's measurements.
#[derive(Debug, Default, Clone, Copy)]
pub struct CountingSystemAlloc;

impl CountingSystemAlloc {
    /// Heap allocations performed by the current thread (including
    /// reallocations) since it started.
    pub fn thread_allocations() -> u64 {
        THREAD_ALLOCS.try_with(Cell::get).unwrap_or(0)
    }

    /// Heap frees performed by the current thread since it started.
    pub fn thread_frees() -> u64 {
        THREAD_FREES.try_with(Cell::get).unwrap_or(0)
    }

    /// Bytes the current thread has asked the heap for since it started (a
    /// reallocation counts its whole new size). With
    /// [`Self::thread_bytes_freed`], tells a path that allocates a few
    /// small objects from one that builds a table.
    pub fn thread_bytes_allocated() -> u64 {
        THREAD_BYTES_ALLOCATED.try_with(Cell::get).unwrap_or(0)
    }

    /// Bytes the current thread has handed back to the heap since it
    /// started (a reallocation counts its whole old size).
    pub fn thread_bytes_freed() -> u64 {
        THREAD_BYTES_FREED.try_with(Cell::get).unwrap_or(0)
    }

    /// Heap allocations performed by **every** thread of the process since
    /// start. Use this (instead of [`Self::thread_allocations`]) to measure
    /// paths that dispatch onto the persistent worker pool, whose
    /// allocations land on pool threads. Note: in a multi-threaded test
    /// harness other concurrently-running tests perturb this counter —
    /// process-wide measurements belong in single-test binaries or
    /// `--test-threads=1` contexts.
    pub fn process_allocations() -> u64 {
        PROCESS_ALLOCS.load(Ordering::Relaxed)
    }

    /// Heap frees performed by every thread of the process since start.
    pub fn process_frees() -> u64 {
        PROCESS_FREES.load(Ordering::Relaxed)
    }
}

unsafe impl GlobalAlloc for CountingSystemAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        add(&THREAD_ALLOCS, 1);
        add(&THREAD_BYTES_ALLOCATED, layout.size() as u64);
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        add(&THREAD_ALLOCS, 1);
        add(&THREAD_BYTES_ALLOCATED, layout.size() as u64);
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        add(&THREAD_ALLOCS, 1);
        add(&THREAD_BYTES_ALLOCATED, new_size as u64);
        add(&THREAD_BYTES_FREED, layout.size() as u64);
        PROCESS_ALLOCS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        add(&THREAD_FREES, 1);
        add(&THREAD_BYTES_FREED, layout.size() as u64);
        PROCESS_FREES.fetch_add(1, Ordering::Relaxed);
        System.dealloc(ptr, layout)
    }
}

/// Accounting allocator used by every KML component.
///
/// Cloning an allocator yields a handle to the *same* accounting state, so a
/// model and its layers can share one budget.
///
/// # Example
///
/// ```
/// use kml_platform::{alloc::KmlAllocator, Persona};
///
/// let alloc = KmlAllocator::new(Persona::User);
/// let a = alloc.alloc_bytes(100).unwrap();
/// assert_eq!(alloc.live_bytes(), 100);
/// drop(a);
/// assert_eq!(alloc.live_bytes(), 0);
/// assert_eq!(alloc.peak_bytes(), 100);
/// ```
#[derive(Debug, Clone)]
pub struct KmlAllocator {
    inner: Arc<AllocState>,
}

#[derive(Debug)]
struct AllocState {
    persona: Persona,
    live: AtomicUsize,
    peak: AtomicUsize,
    total_allocs: AtomicU64,
    total_frees: AtomicU64,
    /// Remaining bytes of an active reservation; `usize::MAX` = no reservation.
    reserved_remaining: AtomicUsize,
    reservation_active: AtomicBool,
    /// Fail the next N allocations (fault injection).
    fail_next: AtomicUsize,
}

const NO_RESERVATION: usize = usize::MAX;

impl KmlAllocator {
    /// Creates an allocator for the given persona with no reservation.
    pub fn new(persona: Persona) -> Self {
        KmlAllocator {
            inner: Arc::new(AllocState {
                persona,
                live: AtomicUsize::new(0),
                peak: AtomicUsize::new(0),
                total_allocs: AtomicU64::new(0),
                total_frees: AtomicU64::new(0),
                reserved_remaining: AtomicUsize::new(NO_RESERVATION),
                reservation_active: AtomicBool::new(false),
                fail_next: AtomicUsize::new(0),
            }),
        }
    }

    /// The persona this allocator serves.
    pub fn persona(&self) -> Persona {
        self.inner.persona
    }

    /// Pre-reserves `bytes` so subsequent allocations are guaranteed to
    /// succeed up to that amount even "under memory pressure" (paper §3.1).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::ReservationActive`] if a reservation is
    /// already in place.
    pub fn reserve(&self, bytes: usize) -> Result<()> {
        if self.inner.reservation_active.swap(true, Ordering::AcqRel) {
            return Err(PlatformError::ReservationActive);
        }
        self.inner
            .reserved_remaining
            .store(bytes, Ordering::Release);
        Ok(())
    }

    /// Drops the active reservation (if any); future allocations are unbounded.
    pub fn release_reservation(&self) {
        self.inner
            .reserved_remaining
            .store(NO_RESERVATION, Ordering::Release);
        self.inner
            .reservation_active
            .store(false, Ordering::Release);
    }

    /// Bytes still available in the active reservation, or `None` if no
    /// reservation is active.
    pub fn reservation_remaining(&self) -> Option<usize> {
        let rem = self.inner.reserved_remaining.load(Ordering::Acquire);
        (rem != NO_RESERVATION).then_some(rem)
    }

    /// Injects `n` allocation failures: the next `n` calls to an `alloc_*`
    /// function return [`PlatformError::OutOfMemory`].
    pub fn inject_failures(&self, n: usize) {
        self.inner.fail_next.store(n, Ordering::Release);
    }

    /// Allocates a zeroed buffer of `len` bytes (the `kml_calloc` analogue).
    ///
    /// # Errors
    ///
    /// Returns [`PlatformError::OutOfMemory`] when a fault is injected or the
    /// active reservation cannot cover `len` bytes.
    pub fn alloc_bytes(&self, len: usize) -> Result<KmlBox<u8>> {
        self.charge(len)?;
        Ok(KmlBox {
            data: vec![0u8; len].into_boxed_slice(),
            alloc: self.clone(),
        })
    }

    /// Allocates a slice of `len` default-initialized `T` (the typed
    /// `kml_malloc` analogue).
    ///
    /// # Errors
    ///
    /// Same conditions as [`KmlAllocator::alloc_bytes`].
    pub fn alloc_slice<T: Default + Clone>(&self, len: usize) -> Result<KmlBox<T>> {
        let bytes = len * std::mem::size_of::<T>();
        self.charge(bytes)?;
        Ok(KmlBox {
            data: vec![T::default(); len].into_boxed_slice(),
            alloc: self.clone(),
        })
    }

    /// Bytes currently allocated and not yet freed.
    pub fn live_bytes(&self) -> usize {
        self.inner.live.load(Ordering::Acquire)
    }

    /// High-water mark of [`KmlAllocator::live_bytes`] since creation.
    pub fn peak_bytes(&self) -> usize {
        self.inner.peak.load(Ordering::Acquire)
    }

    /// Number of successful allocations performed.
    pub fn alloc_count(&self) -> u64 {
        self.inner.total_allocs.load(Ordering::Acquire)
    }

    /// Number of frees performed.
    pub fn free_count(&self) -> u64 {
        self.inner.total_frees.load(Ordering::Acquire)
    }

    /// Resets the peak-usage high-water mark to the current live usage,
    /// so a subsequent phase (e.g. one inference pass) can be measured alone.
    pub fn reset_peak(&self) {
        self.inner.peak.store(self.live_bytes(), Ordering::Release);
    }

    fn charge(&self, bytes: usize) -> Result<()> {
        // Fault injection first: decrement fail_next if it is non-zero.
        let mut failures = self.inner.fail_next.load(Ordering::Acquire);
        while failures > 0 {
            match self.inner.fail_next.compare_exchange_weak(
                failures,
                failures - 1,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => {
                    return Err(PlatformError::OutOfMemory {
                        requested: bytes,
                        available: self.reservation_remaining(),
                    })
                }
                Err(cur) => failures = cur,
            }
        }

        // Charge the reservation if one is active.
        let mut rem = self.inner.reserved_remaining.load(Ordering::Acquire);
        while rem != NO_RESERVATION {
            if rem < bytes {
                return Err(PlatformError::OutOfMemory {
                    requested: bytes,
                    available: Some(rem),
                });
            }
            match self.inner.reserved_remaining.compare_exchange_weak(
                rem,
                rem - bytes,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(cur) => rem = cur,
            }
        }

        let live = self.inner.live.fetch_add(bytes, Ordering::AcqRel) + bytes;
        self.inner.peak.fetch_max(live, Ordering::AcqRel);
        self.inner.total_allocs.fetch_add(1, Ordering::AcqRel);
        Ok(())
    }

    fn uncharge(&self, bytes: usize) {
        self.inner.live.fetch_sub(bytes, Ordering::AcqRel);
        self.inner.total_frees.fetch_add(1, Ordering::AcqRel);
        // A freed allocation returns its bytes to the reservation pool.
        let rem = self.inner.reserved_remaining.load(Ordering::Acquire);
        if rem != NO_RESERVATION {
            self.inner
                .reserved_remaining
                .fetch_add(bytes, Ordering::AcqRel);
        }
    }
}

impl Default for KmlAllocator {
    fn default() -> Self {
        KmlAllocator::new(Persona::User)
    }
}

/// An owned, accounted buffer returned by [`KmlAllocator`].
///
/// Dropping the box returns its bytes to the allocator's accounting (and to
/// the reservation pool if one is active) — the `kml_free` analogue.
#[derive(Debug)]
pub struct KmlBox<T> {
    data: Box<[T]>,
    alloc: KmlAllocator,
}

impl<T> KmlBox<T> {
    /// Length of the buffer in elements.
    pub fn len(&self) -> usize {
        self.data.len()
    }

    /// Whether the buffer has zero elements.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }
}

impl<T> std::ops::Deref for KmlBox<T> {
    type Target = [T];
    fn deref(&self) -> &[T] {
        &self.data
    }
}

impl<T> std::ops::DerefMut for KmlBox<T> {
    fn deref_mut(&mut self) -> &mut [T] {
        &mut self.data
    }
}

impl<T> Drop for KmlBox<T> {
    fn drop(&mut self) {
        self.alloc
            .uncharge(self.data.len() * std::mem::size_of::<T>());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accounting_tracks_live_and_peak() {
        let alloc = KmlAllocator::new(Persona::User);
        let a = alloc.alloc_bytes(100).unwrap();
        let b = alloc.alloc_bytes(50).unwrap();
        assert_eq!(alloc.live_bytes(), 150);
        assert_eq!(alloc.peak_bytes(), 150);
        drop(a);
        assert_eq!(alloc.live_bytes(), 50);
        assert_eq!(alloc.peak_bytes(), 150);
        drop(b);
        assert_eq!(alloc.live_bytes(), 0);
        assert_eq!(alloc.alloc_count(), 2);
        assert_eq!(alloc.free_count(), 2);
    }

    #[test]
    fn typed_allocations_charge_element_size() {
        let alloc = KmlAllocator::new(Persona::User);
        let v = alloc.alloc_slice::<f64>(10).unwrap();
        assert_eq!(alloc.live_bytes(), 80);
        assert_eq!(v.len(), 10);
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn reservation_caps_usage_and_refunds_on_free() {
        let alloc = KmlAllocator::new(Persona::Kernel);
        alloc.reserve(128).unwrap();
        let a = alloc.alloc_bytes(100).unwrap();
        assert_eq!(alloc.reservation_remaining(), Some(28));
        let err = alloc.alloc_bytes(64).unwrap_err();
        assert!(matches!(
            err,
            PlatformError::OutOfMemory {
                requested: 64,
                available: Some(28)
            }
        ));
        drop(a);
        assert_eq!(alloc.reservation_remaining(), Some(128));
        // Now the same allocation succeeds.
        let _b = alloc.alloc_bytes(64).unwrap();
    }

    #[test]
    fn double_reservation_rejected() {
        let alloc = KmlAllocator::new(Persona::Kernel);
        alloc.reserve(10).unwrap();
        assert_eq!(alloc.reserve(20), Err(PlatformError::ReservationActive));
        alloc.release_reservation();
        alloc.reserve(20).unwrap();
    }

    #[test]
    fn fault_injection_fails_exactly_n_allocations() {
        let alloc = KmlAllocator::new(Persona::User);
        alloc.inject_failures(2);
        assert!(alloc.alloc_bytes(8).is_err());
        assert!(alloc.alloc_bytes(8).is_err());
        assert!(alloc.alloc_bytes(8).is_ok());
    }

    #[test]
    fn reset_peak_rebaselines_to_live() {
        let alloc = KmlAllocator::new(Persona::User);
        let a = alloc.alloc_bytes(100).unwrap();
        drop(a);
        assert_eq!(alloc.peak_bytes(), 100);
        alloc.reset_peak();
        assert_eq!(alloc.peak_bytes(), 0);
        let _b = alloc.alloc_bytes(10).unwrap();
        assert_eq!(alloc.peak_bytes(), 10);
    }

    #[test]
    fn clones_share_accounting() {
        let alloc = KmlAllocator::new(Persona::User);
        let clone = alloc.clone();
        let _a = clone.alloc_bytes(64).unwrap();
        assert_eq!(alloc.live_bytes(), 64);
    }

    #[test]
    fn concurrent_allocation_accounting_is_exact() {
        let alloc = KmlAllocator::new(Persona::User);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let a = alloc.clone();
                s.spawn(move || {
                    for _ in 0..100 {
                        let b = a.alloc_bytes(16).unwrap();
                        drop(b);
                    }
                });
            }
        });
        assert_eq!(alloc.live_bytes(), 0);
        assert_eq!(alloc.alloc_count(), 800);
        assert_eq!(alloc.free_count(), 800);
    }
}
