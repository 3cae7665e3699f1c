//! Workload construction shared by the experiment runners and the bench
//! targets.
//!
//! All datasets are produced by `twoknn-datagen` (the BerlinMOD substitute
//! and the clustered generator documented in `DESIGN.md`) and indexed into a
//! [`GridIndex`] sized so that the average occupied block holds roughly the
//! same number of points regardless of the dataset size — mirroring the
//! paper's fixed-granularity grid.

use twoknn_datagen::{berlinmod, clustered, uniform, BerlinModConfig, ClusterConfig};
use twoknn_geometry::{Point, Rect};
use twoknn_index::GridIndex;

use crate::Scale;

/// Target number of points per occupied grid block.
pub const TARGET_BLOCK_OCCUPANCY: usize = 64;

/// The default extent shared by every workload.
pub fn extent() -> Rect {
    twoknn_datagen::default_extent()
}

/// Builds a grid index over BerlinMOD-like data with `n` points.
pub fn berlin_relation(n: usize, seed: u64) -> GridIndex {
    let pts = berlinmod(&BerlinModConfig::with_points(n, seed));
    grid(pts)
}

/// Builds a grid index over uniformly distributed data with `n` points.
pub fn uniform_relation(n: usize, seed: u64) -> GridIndex {
    grid(uniform(n, extent(), seed))
}

/// Builds a grid index over clustered data: `num_clusters` non-overlapping
/// clusters of 4,000 points each (the paper's Figure 23 setup).
pub fn clustered_relation(num_clusters: usize, seed: u64) -> GridIndex {
    grid(clustered(&ClusterConfig::paper_default(num_clusters, seed)))
}

/// Builds a grid index over clustered data with an explicit cluster size.
pub fn clustered_relation_sized(
    num_clusters: usize,
    points_per_cluster: usize,
    seed: u64,
) -> GridIndex {
    grid(clustered(&ClusterConfig {
        num_clusters,
        points_per_cluster,
        cluster_radius: 2_000.0,
        extent: extent(),
        seed,
    }))
}

/// Builds a grid index over clustered data whose clusters are confined to a
/// specific region of the city (the paper's Figure 22 setup: "Points of A are
/// generated such that they are clustered inside a certain region").
///
/// The clusters are placed inside the north-east quarter of the extent, away
/// from the city center where the BerlinMOD-like relations concentrate.
pub fn clustered_relation_in_region(
    num_clusters: usize,
    points_per_cluster: usize,
    seed: u64,
) -> GridIndex {
    let e = extent();
    let region = Rect::new(
        e.min_x + 0.65 * e.width(),
        e.min_y + 0.65 * e.height(),
        e.min_x + 0.95 * e.width(),
        e.min_y + 0.95 * e.height(),
    );
    grid(clustered(&ClusterConfig {
        num_clusters,
        points_per_cluster,
        cluster_radius: 2_000.0,
        extent: region,
        seed,
    }))
}

fn grid(points: Vec<Point>) -> GridIndex {
    // Index over the shared extent so relations of different sizes are
    // comparable; clamp granularity to keep block occupancy near the target.
    let n = points.len().max(1);
    let cells = (((n as f64 / TARGET_BLOCK_OCCUPANCY as f64).sqrt().ceil()) as usize).clamp(8, 512);
    GridIndex::build_with_bounds(points, extent(), cells).expect("valid grid parameters")
}

/// Sizes of the outer relation for Figure 19 (conceptual vs Block-Marking).
pub fn fig19_outer_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![1_000, 2_000],
        Scale::Quick => vec![8_000, 16_000, 32_000, 64_000],
        Scale::Paper => vec![32_000, 160_000, 320_000, 640_000, 1_280_000, 2_560_000],
    }
}

/// Inner-relation size for Figure 19.
pub fn fig19_inner_size(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 4_000,
        Scale::Quick => 32_000,
        Scale::Paper => 320_000,
    }
}

/// Outer sizes for Figure 20 (low-density outer: Counting should win).
pub fn fig20_outer_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![500, 1_000],
        Scale::Quick => vec![1_000, 2_000, 4_000, 8_000],
        Scale::Paper => vec![32_000, 64_000, 128_000, 256_000],
    }
}

/// Outer sizes for Figure 21 (high-density outer: Block-Marking should win).
pub fn fig21_outer_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![4_000, 8_000],
        Scale::Quick => vec![32_000, 64_000, 128_000],
        Scale::Paper => vec![640_000, 1_280_000, 2_560_000],
    }
}

/// Inner-relation size for Figures 20 and 21.
pub fn fig20_21_inner_size(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 4_000,
        Scale::Quick => 32_000,
        Scale::Paper => 320_000,
    }
}

/// Sizes of relation `C` for Figure 22 (unchained joins, A clustered).
pub fn fig22_c_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![1_000, 2_000],
        Scale::Quick => vec![8_000, 16_000, 32_000, 64_000],
        Scale::Paper => vec![32_000, 160_000, 320_000, 640_000, 1_280_000],
    }
}

/// Size of relation `B` for Figures 22–25.
pub fn joins_b_size(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 4_000,
        Scale::Quick => 32_000,
        Scale::Paper => 320_000,
    }
}

/// Cluster-count differences for Figure 23 (A has `base + d` clusters, C has
/// `base` clusters, d = 1..=10).
pub fn fig23_cluster_diffs(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => (1..=2).collect(),
        Scale::Quick => (1..=5).collect(),
        Scale::Paper => (1..=10).collect(),
    }
}

/// Base number of clusters in relation `C` for Figure 23.
pub const FIG23_BASE_CLUSTERS: usize = 2;

/// Outer (`A`) sizes for Figure 24 (chained joins, cached vs uncached).
pub fn fig24_a_sizes(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![1_000, 2_000],
        Scale::Quick => vec![4_000, 8_000, 16_000, 32_000],
        Scale::Paper => vec![32_000, 64_000, 128_000, 256_000],
    }
}

/// Number-of-clusters sweep for relation `B` in Figure 25.
pub fn fig25_b_clusters(scale: Scale) -> Vec<usize> {
    match scale {
        Scale::Smoke => vec![1, 2],
        Scale::Quick => vec![1, 2, 3, 4, 5, 6],
        Scale::Paper => vec![1, 2, 3, 4, 5, 6, 7, 8],
    }
}

/// Relation size for Figure 26 (two kNN-selects).
pub fn fig26_relation_size(scale: Scale) -> usize {
    match scale {
        Scale::Smoke => 16_000,
        Scale::Quick => 128_000,
        Scale::Paper => 640_000,
    }
}

/// The `log2(k2/k1)` sweep of Figure 26 (k1 = 10 fixed).
pub fn fig26_k_ratios(scale: Scale) -> Vec<u32> {
    match scale {
        Scale::Smoke => (0..=3).collect(),
        Scale::Quick => (0..=8).collect(),
        Scale::Paper => (0..=8).collect(),
    }
}

/// Number of repetitions per measured point for the (sub-millisecond)
/// two-select experiment.
pub const FIG26_REPETITIONS: usize = 20;

/// Fixed `k1` for Figure 26.
pub const FIG26_K1: usize = 10;

/// The k value used by both predicates in the join experiments (the paper
/// uses small k, e.g. 2, in its examples; the evaluation section does not fix
/// a value, so the harness uses 8 for selects-with-joins and 2 for two-join
/// queries).
pub const SELECT_JOIN_K: usize = 8;
/// k value for two-join experiments.
pub const TWO_JOINS_K: usize = 2;

/// The focal point used by select predicates: a busy location near the city
/// center.
pub fn focal_point() -> Point {
    Point::anonymous(52_000.0, 49_000.0)
}

/// A second focal point (for two-select queries), a few kilometers away from
/// [`focal_point`].
pub fn second_focal_point() -> Point {
    Point::anonymous(48_500.0, 51_500.0)
}

/// The focal-point pair of the Figure 26 experiment: two locations on the
/// (sparse) city outskirts about 1.7 km apart — the house-hunting scenario
/// where work and school sit in the same neighbourhood. Around a sparse
/// location the conceptual QEP's locality for a large `k2` must cover a huge
/// area, while the 2-kNN-select's locality is bounded by the small distance
/// between the two focal points plus the k1-neighborhood radius.
pub fn fig26_focal_points() -> (Point, Point) {
    (
        Point::anonymous(30_000.0, 68_000.0),
        Point::anonymous(31_500.0, 68_800.0),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoknn_index::SpatialIndex;

    #[test]
    fn relations_are_built_over_the_shared_extent() {
        let r = berlin_relation(5_000, 1);
        assert_eq!(r.bounds(), extent());
        assert_eq!(r.num_points(), 5_000);
        let u = uniform_relation(3_000, 2);
        assert_eq!(u.num_points(), 3_000);
        let c = clustered_relation(2, 3);
        assert_eq!(c.num_points(), 8_000);
        let cs = clustered_relation_sized(3, 100, 4);
        assert_eq!(cs.num_points(), 300);
    }

    #[test]
    fn quick_scale_sweeps_are_smaller_than_paper_scale() {
        assert!(fig19_outer_sizes(Scale::Quick).last() < fig19_outer_sizes(Scale::Paper).last());
        assert!(fig26_relation_size(Scale::Quick) < fig26_relation_size(Scale::Paper));
        assert!(fig23_cluster_diffs(Scale::Quick).len() <= fig23_cluster_diffs(Scale::Paper).len());
    }

    #[test]
    fn focal_points_are_inside_the_extent() {
        assert!(extent().contains(&focal_point()));
        assert!(extent().contains(&second_focal_point()));
    }
}
