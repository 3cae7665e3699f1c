//! MINDIST and MAXDIST orderings of index blocks.
//!
//! Section 2: "In the algorithms we present, we process the blocks in a
//! certain order according to their MINDIST (or MAXDIST) from a certain
//! point. An ordering of the blocks based on the MINDIST or MAXDIST from a
//! certain point is termed a MINDIST or MAXDIST ordering, respectively."
//!
//! The orderings are lazy: blocks are pushed into a binary heap keyed by the
//! (squared) distance and popped on demand, because most of the paper's scans
//! terminate early (e.g. Procedure 1 stops as soon as the accumulated count
//! exceeds `k⋈`).

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use twoknn_geometry::Point;

use crate::block::BlockMeta;

/// A totally-ordered wrapper around a non-NaN `f64`.
///
/// Distances produced by MINDIST/MAXDIST over finite coordinates are always
/// finite, so the total order is well-defined.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OrderedF64(pub f64);

impl Eq for OrderedF64 {}

impl PartialOrd for OrderedF64 {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrderedF64 {
    fn cmp(&self, other: &Self) -> Ordering {
        self.0
            .partial_cmp(&other.0)
            .expect("distance must not be NaN")
    }
}

/// Which distance metric a [`BlockOrder`] sorts by.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderMetric {
    /// Increasing minimum possible distance from the query point.
    MinDist,
    /// Increasing maximum possible distance from the query point.
    MaxDist,
}

/// An entry yielded by a [`BlockOrder`]: the block plus the (non-squared)
/// distance it was ordered by.
#[derive(Debug, Clone, Copy)]
pub struct OrderedBlock {
    /// The block.
    pub block: BlockMeta,
    /// The ordering distance (MINDIST or MAXDIST from the query point,
    /// depending on the ordering's metric).
    pub distance: f64,
}

#[derive(Debug)]
struct HeapEntry {
    key: OrderedF64,
    block: BlockMeta,
}

impl PartialEq for HeapEntry {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for HeapEntry {}
impl PartialOrd for HeapEntry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapEntry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reverse: BinaryHeap is a max-heap, we want the smallest key first.
        other.key.cmp(&self.key)
    }
}

/// A lazy MINDIST or MAXDIST ordering over a set of blocks.
///
/// Construction is `O(n)` (heapify); each call to [`BlockOrder::next`] is
/// `O(log n)`. Scans that stop early therefore do not pay for sorting the
/// whole block set.
#[derive(Debug)]
pub struct BlockOrder {
    heap: BinaryHeap<HeapEntry>,
    metric: OrderMetric,
}

impl BlockOrder {
    /// Builds an ordering of `blocks` by increasing distance from `origin`.
    pub fn new(blocks: &[BlockMeta], origin: &Point, metric: OrderMetric) -> Self {
        let entries: Vec<HeapEntry> = blocks
            .iter()
            .map(|b| {
                let d = match metric {
                    OrderMetric::MinDist => b.mindist_sq(origin),
                    OrderMetric::MaxDist => b.maxdist_sq(origin),
                };
                HeapEntry {
                    key: OrderedF64(d),
                    block: *b,
                }
            })
            .collect();
        Self {
            heap: BinaryHeap::from(entries),
            metric,
        }
    }

    /// Convenience constructor for a MINDIST ordering.
    pub fn mindist(blocks: &[BlockMeta], origin: &Point) -> Self {
        Self::new(blocks, origin, OrderMetric::MinDist)
    }

    /// Convenience constructor for a MAXDIST ordering.
    pub fn maxdist(blocks: &[BlockMeta], origin: &Point) -> Self {
        Self::new(blocks, origin, OrderMetric::MaxDist)
    }

    /// The metric this ordering sorts by.
    pub fn metric(&self) -> OrderMetric {
        self.metric
    }

    /// Number of blocks not yet yielded.
    pub fn remaining(&self) -> usize {
        self.heap.len()
    }

    /// Pops the next block in increasing distance order.
    #[allow(clippy::should_implement_trait)]
    pub fn next(&mut self) -> Option<OrderedBlock> {
        self.heap.pop().map(|e| OrderedBlock {
            block: e.block,
            distance: e.key.0.sqrt(),
        })
    }
}

impl Iterator for BlockOrder {
    type Item = OrderedBlock;

    fn next(&mut self) -> Option<Self::Item> {
        BlockOrder::next(self)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.heap.len(), Some(self.heap.len()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoknn_geometry::Rect;

    fn blocks() -> Vec<BlockMeta> {
        // Three unit blocks in a row along the x axis.
        (0..3)
            .map(|i| {
                BlockMeta::new(
                    i as u32,
                    Rect::new(i as f64, 0.0, i as f64 + 1.0, 1.0),
                    (i + 1) as usize,
                )
            })
            .collect()
    }

    #[test]
    fn ordered_f64_total_order() {
        let mut v = vec![OrderedF64(3.0), OrderedF64(1.0), OrderedF64(2.0)];
        v.sort();
        assert_eq!(v, vec![OrderedF64(1.0), OrderedF64(2.0), OrderedF64(3.0)]);
    }

    #[test]
    fn mindist_order_yields_nearest_block_first() {
        let blocks = blocks();
        let origin = Point::anonymous(-1.0, 0.5);
        let order: Vec<_> = BlockOrder::mindist(&blocks, &origin)
            .map(|ob| ob.block.id)
            .collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn maxdist_order_can_differ_from_mindist_order() {
        // A big far block vs a small near block: the near block has smaller
        // MINDIST, but MAXDIST ordering only looks at the far corner.
        let blocks = vec![
            BlockMeta::new(0, Rect::new(0.0, 0.0, 10.0, 10.0), 5),
            BlockMeta::new(1, Rect::new(11.0, 0.0, 12.0, 1.0), 5),
        ];
        let origin = Point::anonymous(0.0, 0.0);
        let min_first = BlockOrder::mindist(&blocks, &origin).next().unwrap();
        let max_first = BlockOrder::maxdist(&blocks, &origin).next().unwrap();
        assert_eq!(min_first.block.id, 0);
        assert_eq!(max_first.block.id, 1);
    }

    #[test]
    fn distances_are_non_decreasing() {
        let blocks = blocks();
        let origin = Point::anonymous(1.7, 0.3);
        for metric in [OrderMetric::MinDist, OrderMetric::MaxDist] {
            let mut prev = f64::NEG_INFINITY;
            for ob in BlockOrder::new(&blocks, &origin, metric) {
                assert!(ob.distance >= prev);
                prev = ob.distance;
            }
        }
    }

    #[test]
    fn remaining_counts_down() {
        let blocks = blocks();
        let mut order = BlockOrder::mindist(&blocks, &Point::anonymous(0.0, 0.0));
        assert_eq!(order.remaining(), 3);
        order.next();
        assert_eq!(order.remaining(), 2);
    }
}
