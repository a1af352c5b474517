//! Reusable scratch buffers for the allocation-free inference/training path.
//!
//! The paper's runtime is garbage-free in steady state: the readahead model
//! uses a fixed 676 B of transient memory per inference (§4), carved out of
//! buffers sized once at initialization. [`ScratchArena`] is that discipline
//! in Rust: a set of indexed [`Matrix`] slots whose element buffers are
//! allocated the first time a shape is seen and then reused verbatim on
//! every subsequent forward/backward pass. The arena's high-water mark is
//! the *measured* analogue of the paper's scratch-bytes claim (in contrast
//! to [`crate::model::Model::inference_scratch_bytes`], which derives the
//! same quantity analytically from the topology).

use crate::matrix::Matrix;
use crate::scalar::Scalar;

/// An indexed pool of reusable matrix buffers.
///
/// Slots are addressed by stable indices (the computation graph assigns one
/// per node, plus a few for gradient staging). Acquiring a slot never
/// shrinks its underlying buffer, so after a warm-up pass with the largest
/// batch shape the arena performs **zero heap allocations**.
///
/// # Example
///
/// ```
/// use kml_core::scratch::ScratchArena;
///
/// let mut arena: ScratchArena<f32> = ScratchArena::new();
/// arena.ensure_slots(2);
/// arena.slot_mut(0).ensure_shape(1, 15);
/// arena.slot_mut(1).ensure_shape(1, 10);
/// assert_eq!(arena.refresh_high_water(), (15 + 10) * 4);
/// ```
#[derive(Debug, Default, Clone)]
pub struct ScratchArena<S: Scalar> {
    slots: Vec<Matrix<S>>,
    high_water_bytes: usize,
}

impl<S: Scalar> ScratchArena<S> {
    /// Creates an empty arena.
    pub fn new() -> Self {
        ScratchArena {
            slots: Vec::new(),
            high_water_bytes: 0,
        }
    }

    /// Grows the arena to at least `n` slots (new slots are 0×0 and own no
    /// element storage until first reshaped).
    pub fn ensure_slots(&mut self, n: usize) {
        while self.slots.len() < n {
            self.slots.push(Matrix::zeros(0, 0));
        }
    }

    /// Number of slots.
    pub fn len(&self) -> usize {
        self.slots.len()
    }

    /// Whether the arena has no slots.
    pub fn is_empty(&self) -> bool {
        self.slots.is_empty()
    }

    /// Shared view of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (call [`ScratchArena::ensure_slots`]).
    pub fn slot(&self, i: usize) -> &Matrix<S> {
        &self.slots[i]
    }

    /// Mutable view of slot `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i` is out of range (call [`ScratchArena::ensure_slots`]).
    pub fn slot_mut(&mut self, i: usize) -> &mut Matrix<S> {
        &mut self.slots[i]
    }

    /// Splits out `(&slots[src], &mut slots[dst])` for the forward pass,
    /// where a node reads its producer's activation and writes its own.
    ///
    /// # Panics
    ///
    /// Panics unless `src < dst < len`.
    pub fn read_write_pair(&mut self, src: usize, dst: usize) -> (&Matrix<S>, &mut Matrix<S>) {
        assert!(src < dst, "read slot must precede write slot");
        let (lo, hi) = self.slots.split_at_mut(dst);
        (&lo[src], &mut hi[0])
    }

    /// Splits out `(&mut slots[dst], &slots[src])` for the backward pass,
    /// where a node reads its own gradient and writes its producer's.
    ///
    /// # Panics
    ///
    /// Panics unless `dst < src < len`.
    pub fn write_read_pair(&mut self, dst: usize, src: usize) -> (&mut Matrix<S>, &Matrix<S>) {
        assert!(dst < src, "write slot must precede read slot");
        let (lo, hi) = self.slots.split_at_mut(src);
        (&mut lo[dst], &hi[0])
    }

    /// Bytes of element storage currently held across all slots.
    pub fn bytes(&self) -> usize {
        self.slots.iter().map(Matrix::storage_bytes).sum()
    }

    /// Folds the current footprint into the high-water mark and returns the
    /// updated mark. Call once per pass; the arithmetic is branch-light so
    /// it does not disturb the hot path it measures.
    pub fn refresh_high_water(&mut self) -> usize {
        let now = self.bytes();
        if now > self.high_water_bytes {
            self.high_water_bytes = now;
        }
        self.high_water_bytes
    }

    /// Largest total footprint ever observed by [`refresh_high_water`].
    ///
    /// [`refresh_high_water`]: ScratchArena::refresh_high_water
    pub fn high_water_bytes(&self) -> usize {
        self.high_water_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn slots_grow_monotonically() {
        let mut a: ScratchArena<f64> = ScratchArena::new();
        assert!(a.is_empty());
        a.ensure_slots(3);
        a.ensure_slots(1); // never shrinks
        assert_eq!(a.len(), 3);
        assert_eq!(a.slot(0).shape(), (0, 0));
    }

    #[test]
    fn high_water_tracks_peak_not_current() {
        let mut a: ScratchArena<f32> = ScratchArena::new();
        a.ensure_slots(1);
        a.slot_mut(0).ensure_shape(4, 4);
        assert_eq!(a.refresh_high_water(), 64);
        a.slot_mut(0).ensure_shape(1, 1);
        // Buffer logically shrank, but the peak stays.
        assert_eq!(a.refresh_high_water(), 64);
        assert_eq!(a.bytes(), 4);
        assert_eq!(a.high_water_bytes(), 64);
    }

    #[test]
    fn pair_accessors_split_disjoint_slots() {
        let mut a: ScratchArena<f32> = ScratchArena::new();
        a.ensure_slots(3);
        a.slot_mut(0).ensure_shape(1, 2);
        let (src, dst) = a.read_write_pair(0, 2);
        assert_eq!(src.shape(), (1, 2));
        dst.ensure_shape(1, 5);
        let (gdst, gsrc) = a.write_read_pair(0, 2);
        assert_eq!(gsrc.shape(), (1, 5));
        gdst.ensure_shape(2, 2);
        assert_eq!(a.slot(0).shape(), (2, 2));
    }

    #[test]
    #[should_panic(expected = "read slot must precede")]
    fn read_write_pair_rejects_bad_order() {
        let mut a: ScratchArena<f32> = ScratchArena::new();
        a.ensure_slots(2);
        let _ = a.read_write_pair(1, 1);
    }
}
