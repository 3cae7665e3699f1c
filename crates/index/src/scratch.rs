//! Reusable per-query scratch space and the batched "scan block, update
//! kth-distance threshold" kernel.
//!
//! Every `getkNN` call needs the same transient structures: the MINDIST²
//! buffer of the block walk (one `(MINDIST², block id)` entry per admitted
//! block, popped lazily as a min-heap), the partition order of the
//! scatter-gather driver, a distance buffer for the batched block scan, and
//! the bounded candidate heap that tracks the current k-th distance.
//! Allocating them per query dominates the cost of small-`k` selects, so
//! [`ScratchSpace`] owns all of them and the `*_in` variants of
//! [`crate::get_knn`] reuse one scratch across any number of queries.
//!
//! ## Lifecycle
//!
//! Callers that hold a long-lived scratch (benchmarks, tight re-evaluation
//! loops) pass it explicitly to [`crate::get_knn_in`]. Everyone else goes
//! through the plain entry points, which borrow a **thread-local** scratch
//! via [`with_thread_scratch`]: a batch of queries executed on one worker
//! thread (the executor's `execute_batch` partitions, the continuous-query
//! maintainer's re-evaluation sweep) therefore shares a single set of
//! allocations automatically. Each buffer grows to the largest partition (or
//! block) the thread has walked and is kept; after the first query on a
//! thread, the select hot path allocates nothing but the returned
//! [`Neighborhood`].
//!
//! ## The kth-distance kernel
//!
//! [`KthHeap`] is a bounded max-heap over `(squared distance, point id)` —
//! the same total order [`Neighborhood::from_unsorted`] sorts by, so the
//! surviving k points are exactly the ones the row-oriented implementation
//! kept. [`KthHeap::scan_block`] processes a whole SoA block before touching
//! the heap: one vectorizable [`euclidean_sq_batch`] pass fills the distance
//! buffer, then a τ-gated fold offers the heap only the lanes with
//! `distance² ≤ τ²` (inclusive, so a lane at exactly τ can still win its id
//! tie-break). Once the heap is full, its root is the running k-th distance
//! τ; the block walk skips blocks whose MINDIST exceeds τ (strictly, so
//! distance ties keep resolving by id).

use std::cell::RefCell;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use twoknn_geometry::{euclidean_sq_batch, Point};

use crate::neighborhood::{Neighbor, Neighborhood};
use crate::ordering::OrderedF64;

/// An entry of the bounded candidate heap: a point and its squared distance
/// from the query. Max-heap order over `(distance, id)`, matching the sort
/// order of [`Neighborhood::from_unsorted`].
#[derive(Debug, Clone, Copy)]
struct KthEntry {
    key: OrderedF64,
    point: Point,
}

impl PartialEq for KthEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key && self.point.id == other.point.id
    }
}
impl Eq for KthEntry {}
impl PartialOrd for KthEntry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KthEntry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key
            .cmp(&other.key)
            .then_with(|| self.point.id.cmp(&other.point.id))
    }
}

/// A bounded max-heap tracking the `k` nearest points seen so far, keyed by
/// `(squared distance, point id)`.
///
/// Public so the `kernel_micro` bench can measure the heap-update kernel in
/// isolation; algorithm code reaches it through [`ScratchSpace`].
#[derive(Debug, Default)]
pub struct KthHeap {
    k: usize,
    heap: BinaryHeap<KthEntry>,
}

impl KthHeap {
    /// An empty heap bounded at `k` entries.
    pub fn new(k: usize) -> Self {
        let mut heap = Self::default();
        heap.reset(k);
        heap
    }

    /// Clears the heap and re-bounds it at `k`, retaining the allocation.
    pub fn reset(&mut self, k: usize) {
        self.k = k;
        self.heap.clear();
    }

    /// Number of candidates currently held (≤ `k`).
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Whether no candidate has been seen yet.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Whether the heap holds `k` candidates (the threshold is live).
    #[inline]
    pub fn is_full(&self) -> bool {
        self.heap.len() >= self.k
    }

    /// The squared k-th distance τ² — the pruning threshold. Infinite until
    /// the heap is full.
    #[inline]
    pub fn threshold_sq(&self) -> f64 {
        match self.heap.peek() {
            Some(top) if self.is_full() => top.key.0,
            _ => f64::INFINITY,
        }
    }

    /// Offers one candidate to the heap.
    #[inline]
    pub fn insert(&mut self, dist_sq: f64, point: Point) {
        if self.k == 0 {
            return;
        }
        if self.heap.len() < self.k {
            self.heap.push(KthEntry {
                key: OrderedF64(dist_sq),
                point,
            });
            return;
        }
        let mut top = self.heap.peek_mut().expect("heap is full and k >= 1");
        if (OrderedF64(dist_sq), point.id) < (top.key, top.point.id) {
            *top = KthEntry {
                key: OrderedF64(dist_sq),
                point,
            };
        }
    }

    /// The block-scan kernel: computes the squared distances from `q` to the
    /// whole SoA block in one batched column pass (into `dist`), then folds
    /// the buffer into the heap in a second tight loop.
    ///
    /// The fold is τ-gated: only lanes with `distance² ≤ τ²` reach
    /// [`KthHeap::insert`] — a lane beyond τ² could never displace the root.
    /// The gate is inclusive so a lane at exactly τ² with a smaller id still
    /// wins its tie-break, and τ² is re-read only after an insert (the only
    /// thing that can tighten it).
    pub fn scan_block(
        &mut self,
        q: &Point,
        block: crate::points::BlockPoints<'_>,
        dist: &mut Vec<f64>,
    ) {
        let n = block.len();
        if n == 0 {
            return;
        }
        dist.clear();
        dist.resize(n, 0.0);
        euclidean_sq_batch(q.x, q.y, block.xs(), block.ys(), dist);
        let (ids, xs, ys) = (block.ids(), block.xs(), block.ys());
        let mut tau_sq = self.threshold_sq();
        for i in 0..n {
            if dist[i] <= tau_sq {
                self.insert(dist[i], Point::new(ids[i], xs[i], ys[i]));
                tau_sq = self.threshold_sq();
            }
        }
    }

    /// The predicate-masked variant of [`KthHeap::scan_block`]: the batched
    /// distance pass runs over the whole block exactly as before, but only
    /// lanes whose `mask` bit is set (and that pass the same τ gate) are
    /// offered to the heap.
    ///
    /// Used by the filtered kNN kernel: τ then tracks the k-th *matching*
    /// distance, which is never smaller than the unfiltered one, so MINDIST
    /// pruning against it stays conservative (sound) under filtering.
    pub fn scan_block_masked(
        &mut self,
        q: &Point,
        block: crate::points::BlockPoints<'_>,
        mask: &[bool],
        dist: &mut Vec<f64>,
    ) {
        let n = block.len();
        debug_assert_eq!(mask.len(), n, "mask must cover the block");
        if n == 0 {
            return;
        }
        dist.clear();
        dist.resize(n, 0.0);
        euclidean_sq_batch(q.x, q.y, block.xs(), block.ys(), dist);
        let (ids, xs, ys) = (block.ids(), block.xs(), block.ys());
        let mut tau_sq = self.threshold_sq();
        for i in 0..n {
            if mask[i] && dist[i] <= tau_sq {
                self.insert(dist[i], Point::new(ids[i], xs[i], ys[i]));
                tau_sq = self.threshold_sq();
            }
        }
    }

    /// Drains the heap into a [`Neighborhood`] of the query point, sorted and
    /// truncated by the usual `(distance, id)` order.
    pub fn finish(&mut self, query: Point, k: usize) -> Neighborhood {
        let mut members = Vec::with_capacity(self.heap.len());
        members.extend(self.heap.drain().map(|e| Neighbor {
            point: e.point,
            distance: e.key.0.sqrt(),
        }));
        Neighborhood::from_unsorted(query, k, members)
    }
}

/// All the per-query transient state of the kNN hot path, reusable across
/// queries. See the module docs for the lifecycle.
#[derive(Debug, Default)]
pub struct ScratchSpace {
    /// Distance buffer of the batched block scan.
    pub(crate) dist: Vec<f64>,
    /// The bounded candidate heap.
    pub(crate) kth: KthHeap,
    /// Storage of the best-first search's priority queue.
    pub(crate) best_first: Vec<crate::knn::BestFirstEntry>,
    /// `(MINDIST², partition index)` order buffer of the scatter-gather
    /// driver over a sharded index's partitions.
    pub(crate) shard_order: Vec<(OrderedF64, u32)>,
    /// Reusable predicate mask of the filtered block kernel: one bool per
    /// lane of the block being scanned, refilled per block.
    pub(crate) mask: Vec<bool>,
    /// `(MINDIST², block id)` buffer of the block walk: refilled per
    /// partition with the blocks admitted to the walk, then popped lazily as
    /// a min-heap.
    pub(crate) block_walk: Vec<Reverse<(OrderedF64, u32)>>,
}

impl ScratchSpace {
    /// A fresh scratch space with no capacity reserved; buffers grow to the
    /// working-set size on first use and are retained afterwards.
    pub fn new() -> Self {
        Self::default()
    }
}

thread_local! {
    static THREAD_SCRATCH: RefCell<ScratchSpace> = RefCell::new(ScratchSpace::new());
}

/// Runs `f` with the calling thread's shared [`ScratchSpace`].
///
/// This is how the plain (non-`_in`) kNN entry points reuse allocations: all
/// queries executed on one thread — in particular a worker thread draining
/// its share of an `execute_batch` partition, or the continuous-query
/// maintainer re-evaluating subscriptions — share one scratch. Re-entrant
/// calls (an `f` that itself calls a kNN entry point) fall back to a fresh
/// scratch instead of panicking on the `RefCell`.
pub fn with_thread_scratch<R>(f: impl FnOnce(&mut ScratchSpace) -> R) -> R {
    THREAD_SCRATCH.with(|cell| match cell.try_borrow_mut() {
        Ok(mut scratch) => f(&mut scratch),
        Err(_) => f(&mut ScratchSpace::new()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::points::PointBlock;

    fn block(pts: &[(u64, f64, f64)]) -> PointBlock {
        pts.iter().map(|&(id, x, y)| Point::new(id, x, y)).collect()
    }

    #[test]
    fn kth_heap_keeps_the_k_smallest_by_distance_then_id() {
        let q = Point::anonymous(0.0, 0.0);
        let b = block(&[
            (9, 1.0, 0.0), // d²=1, ties with id 4 and 7
            (4, 0.0, 1.0),
            (7, -1.0, 0.0),
            (1, 5.0, 0.0),
        ]);
        let mut heap = KthHeap::new(2);
        let mut dist = Vec::new();
        heap.scan_block(&q, b.view(), &mut dist);
        let n = heap.finish(q, 2);
        // Same tie-break as Neighborhood::from_unsorted: smallest ids win.
        assert_eq!(n.ids(), vec![4, 7]);
        assert_eq!(n.radius(), 1.0);
    }

    #[test]
    fn threshold_goes_live_only_when_full() {
        let mut heap = KthHeap::new(3);
        assert!(heap.threshold_sq().is_infinite());
        heap.insert(4.0, Point::new(1, 2.0, 0.0));
        heap.insert(1.0, Point::new(2, 1.0, 0.0));
        assert!(!heap.is_full());
        assert!(heap.threshold_sq().is_infinite());
        heap.insert(9.0, Point::new(3, 3.0, 0.0));
        assert!(heap.is_full());
        assert_eq!(heap.threshold_sq(), 9.0);
        // A closer point replaces the current k-th and tightens τ².
        heap.insert(0.25, Point::new(4, 0.5, 0.0));
        assert_eq!(heap.threshold_sq(), 4.0);
        assert_eq!(heap.len(), 3);
    }

    #[test]
    fn reset_retains_capacity_and_rebounds_k() {
        let mut heap = KthHeap::new(4);
        for i in 0..4 {
            heap.insert(i as f64, Point::new(i, i as f64, 0.0));
        }
        heap.reset(1);
        assert!(heap.is_empty());
        heap.insert(1.0, Point::new(10, 1.0, 0.0));
        heap.insert(0.5, Point::new(11, 0.5, 0.0));
        assert_eq!(heap.finish(Point::anonymous(0.0, 0.0), 1).ids(), vec![11]);
    }

    #[test]
    fn k_zero_heap_accepts_nothing() {
        let mut heap = KthHeap::new(0);
        heap.insert(1.0, Point::new(1, 1.0, 0.0));
        assert!(heap.is_empty());
        assert!(heap.finish(Point::anonymous(0.0, 0.0), 0).is_empty());
    }

    #[test]
    fn thread_scratch_is_reentrancy_safe() {
        let outer = with_thread_scratch(|s| {
            s.dist.push(1.0);
            with_thread_scratch(|inner| inner.dist.len())
        });
        assert_eq!(outer, 0, "re-entrant borrow gets a fresh scratch");
    }
}
