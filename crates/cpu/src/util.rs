//! Low-level parallel utilities: disjoint shared-slice writes and segment
//! splitting.

use skewjoin_common::Tuple;

/// A raw shared view of a mutable slice that multiple threads write
/// *disjoint* indices of — the classic contention-free radix scatter, where
/// the prefix-sum phase has assigned every thread its own output ranges.
///
/// # Safety contract
/// Callers must guarantee that no index is written by more than one thread
/// and that no reads occur until all writers have finished. The morsel
/// pipeline enforces the second half with its completion countdowns and
/// gates: a range is read only by tasks spawned after every task writing
/// it counted itself done.
#[derive(Clone, Copy)]
pub struct SharedTupleSlice {
    ptr: *mut Tuple,
    len: usize,
}

// SAFETY: the raw pointer is only dereferenced through `write`, whose
// disjointness contract callers uphold; Tuple is Copy + 'static.
unsafe impl Send for SharedTupleSlice {}
unsafe impl Sync for SharedTupleSlice {}

impl SharedTupleSlice {
    /// Wraps a mutable slice for disjoint parallel writes.
    pub fn new(slice: &mut [Tuple]) -> Self {
        Self {
            ptr: slice.as_mut_ptr(),
            len: slice.len(),
        }
    }

    /// Length of the underlying slice.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the underlying slice is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Writes `value` at `idx`.
    ///
    /// # Safety
    /// `idx` must be in bounds and written by exactly one thread while the
    /// view is shared (see type-level contract).
    #[inline(always)]
    pub unsafe fn write(&self, idx: usize, value: Tuple) {
        debug_assert!(idx < self.len, "index {idx} out of bounds ({})", self.len);
        // SAFETY: bounds guaranteed by caller; disjointness per contract.
        unsafe { self.ptr.add(idx).write(value) };
    }

    /// Materialises an immutable view of `range`.
    ///
    /// # Safety
    /// Every index in `range` must already be written, no thread may write
    /// any index of `range` for the lifetime of the returned slice, and
    /// `range` must be in bounds. The morsel pipeline upholds this by only
    /// reading ranges whose producing tasks have all completed (the
    /// completion countdowns give the necessary happens-before edges).
    #[inline]
    pub unsafe fn slice(&self, range: std::ops::Range<usize>) -> &[Tuple] {
        debug_assert!(range.start <= range.end && range.end <= self.len);
        // SAFETY: bounds, initialisation, and quiescence per the caller's
        // contract.
        unsafe { std::slice::from_raw_parts(self.ptr.add(range.start), range.len()) }
    }

    /// Copies `n` tuples from `src` into `idx..idx + n` in one bulk move —
    /// how a Refine task publishes a refined pass-0 partition.
    ///
    /// # Safety
    /// `idx + n` must be in bounds, `src..src + n` must be valid for reads
    /// and not overlap the destination, and the destination range must be
    /// written by exactly one thread while the view is shared.
    #[inline(always)]
    pub unsafe fn copy_from(&self, idx: usize, src: *const Tuple, n: usize) {
        debug_assert!(
            idx + n <= self.len,
            "range {idx}..{} out of bounds ({})",
            idx + n,
            self.len
        );
        // SAFETY: bounds and non-overlap guaranteed by caller; disjointness
        // per contract.
        unsafe { std::ptr::copy_nonoverlapping(src, self.ptr.add(idx), n) };
    }
}

/// Splits `0..len` into `workers` near-equal contiguous segments; the first
/// `len % workers` segments get one extra element. Returns the segment of
/// worker `w`.
#[inline]
pub fn segment(len: usize, workers: usize, w: usize) -> std::ops::Range<usize> {
    debug_assert!(w < workers);
    let base = len / workers;
    let extra = len % workers;
    let start = w * base + w.min(extra);
    let end = start + base + usize::from(w < extra);
    start..end
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn segments_cover_range_exactly() {
        for len in [0usize, 1, 7, 100, 101] {
            for workers in [1usize, 2, 3, 8] {
                let mut covered = 0;
                let mut prev_end = 0;
                for w in 0..workers {
                    let r = segment(len, workers, w);
                    assert_eq!(r.start, prev_end, "len={len} workers={workers} w={w}");
                    covered += r.len();
                    prev_end = r.end;
                }
                assert_eq!(covered, len);
                assert_eq!(prev_end, len);
            }
        }
    }

    #[test]
    fn segments_are_balanced() {
        for w in 0..4 {
            let r = segment(10, 4, w);
            assert!(r.len() == 2 || r.len() == 3);
        }
    }

    #[test]
    fn shared_slice_parallel_disjoint_writes() {
        let mut data = vec![Tuple::default(); 100];
        let shared = SharedTupleSlice::new(&mut data);
        std::thread::scope(|scope| {
            for w in 0..4 {
                scope.spawn(move || {
                    for i in segment(100, 4, w) {
                        // SAFETY: segments are disjoint.
                        unsafe { shared.write(i, Tuple::new(i as u32, w as u32)) };
                    }
                });
            }
        });
        for (i, t) in data.iter().enumerate() {
            assert_eq!(t.key, i as u32);
        }
    }
}
