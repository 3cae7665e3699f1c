//! # twoknn-index
//!
//! Block-based in-memory spatial indexes and the neighborhood / locality
//! machinery required by *"Spatial Queries with Two kNN Predicates"* (Aly,
//! Aref, Ouzzani — VLDB 2012).
//!
//! The paper's algorithms are index-agnostic (Section 2): they only require a
//! space-partitioning index that exposes *blocks* with per-block point counts
//! and supports MINDIST/MAXDIST orderings of blocks around a query point.
//! This crate provides:
//!
//! * [`SpatialIndex`] — the trait capturing exactly those requirements;
//! * [`GridIndex`] — the simple grid used in the paper's evaluation (§6);
//! * [`QuadtreeIndex`] — a PR-quadtree;
//! * [`StrRTree`] — an STR bulk-loaded R-tree whose leaves act as blocks;
//! * [`PointBlock`] / [`BlockPoints`] — structure-of-arrays block storage
//!   (parallel `ids`/`xs`/`ys` columns) shared by every index, so per-block
//!   distance scans run over contiguous `&[f64]` slices;
//! * [`BlockOrder`] — lazy MINDIST/MAXDIST orderings;
//! * [`get_knn`] — `getkNN` as one MINDIST walk over the blocks (the paper
//!   allows "any algorithm" for the neighborhood), running the batched,
//!   τ-gated kth-distance kernel of [`KthHeap`];
//! * [`Locality`] — the paper's locality (Definition 2) built with the
//!   two-phase algorithm of Sankaranarayanan, Samet & Varshney, the basis of
//!   the scalar ablation baseline [`get_knn_scalar`];
//! * [`PartitionMeta`] — an optional coarse *shard* tier above blocks: an
//!   index that reports partitions ([`SpatialIndex::partitions`]) is queried
//!   scatter-gather style, visiting shards in MINDIST order against one
//!   shared kth-distance heap and skipping every shard whose MINDIST²
//!   exceeds the running τ² — the paper's block pruning lifted one level up
//!   (counted by `Metrics::shards_scanned` / `shards_pruned`);
//! * [`ScratchSpace`] — reusable per-query transient state (candidate heap,
//!   block-walk buffer, distance buffer); the plain kNN entry points borrow a
//!   thread-local one via [`with_thread_scratch`], the `*_in` variants
//!   ([`get_knn_in`] etc.) take one explicitly;
//! * [`Neighborhood`] — the k-nearest-neighbor set with the accessors the
//!   two-predicate algorithms need (nearest/farthest member, intersection);
//! * [`Metrics`] — machine-independent work counters used by the benchmark
//!   harness alongside wall-clock time.
//!
//! ## SoA layout
//!
//! Blocks store points as three parallel columns instead of `Vec<Point>`:
//! the distance kernels ([`twoknn_geometry::euclidean_sq_batch`]) then see a
//! contiguous 8-byte stride per column and auto-vectorize. [`BlockPoints`]
//! (what [`SpatialIndex::block_points`] returns) still iterates as `Point`s
//! by value, so row-oriented consumers are unaffected by the layout.
//!
//! ## Example
//!
//! ```
//! use twoknn_geometry::Point;
//! use twoknn_index::{get_knn, GridIndex, Metrics, SpatialIndex};
//!
//! let points: Vec<Point> = (0..1000)
//!     .map(|i| Point::new(i, (i % 37) as f64, (i % 53) as f64))
//!     .collect();
//! let index = GridIndex::build(points, 16).unwrap();
//! let mut metrics = Metrics::default();
//! let neighborhood = get_knn(&index, &Point::anonymous(10.0, 10.0), 5, &mut metrics);
//! assert_eq!(neighborhood.len(), 5);
//! assert!(index.num_blocks() > 0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

mod block;
mod grid;
mod knn;
mod locality;
mod metrics;
mod neighborhood;
mod ordering;
mod partition;
mod points;
mod quadtree;
mod rtree;
mod scratch;
mod traits;

pub use block::{BlockId, BlockMeta};
pub use grid::GridIndex;
pub use knn::{
    brute_force_knn, brute_force_knn_filtered, get_knn, get_knn_best_first, get_knn_best_first_in,
    get_knn_bounded, get_knn_bounded_in, get_knn_filtered, get_knn_filtered_in, get_knn_in,
    get_knn_scalar, neighborhood_from_locality,
};
pub use locality::Locality;
pub use metrics::Metrics;
pub use neighborhood::{Neighbor, Neighborhood};
pub use ordering::{BlockOrder, OrderMetric, OrderedBlock, OrderedF64};
pub use partition::PartitionMeta;
pub use points::{BlockPoints, BlockPointsIter, PointBlock};
pub use quadtree::{QuadtreeIndex, DEFAULT_MAX_DEPTH};
pub use rtree::StrRTree;
pub use scratch::{with_thread_scratch, KthHeap, ScratchSpace};
pub use traits::{check_index_invariants, SpatialIndex};

// The parallel executors in `twoknn-core` share index references across
// worker threads, so every index implementation must be `Send + Sync`. The
// structures are plain owned data without interior mutability, so the auto
// traits apply; these assertions turn an accidental regression (e.g. adding
// an `Rc` or `Cell` field) into a compile error instead of a downstream one.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<GridIndex>();
    assert_send_sync::<QuadtreeIndex>();
    assert_send_sync::<StrRTree>();
    assert_send_sync::<Metrics>();
    assert_send_sync::<Neighborhood>();
    assert_send_sync::<BlockMeta>();
    assert_send_sync::<PointBlock>();
    assert_send_sync::<ScratchSpace>();
};
