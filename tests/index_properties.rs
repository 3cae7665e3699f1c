//! Property-style tests of the index substrate: structural invariants of the
//! three index types, MINDIST/MAXDIST bounds, and correctness of the
//! locality-based kNN against a brute-force oracle (DESIGN.md §5, 6–9).
//! Inputs come from the workspace's deterministic RNG instead of `proptest`.

use two_knn::core::output::pair_id_set;
use two_knn::core::plan::Database;
use two_knn::core::select_join::{conceptual, counting, SelectInnerJoinQuery};
use two_knn::core::store::{OverlayConfig, ShardConfig, StoreConfig, WriteOp};
use two_knn::datagen::rng::StdRng;
use two_knn::geometry::{euclidean, maxdist, mindist};
use two_knn::index::{
    brute_force_knn, check_index_invariants, get_knn, get_knn_best_first, get_knn_bounded_in,
    get_knn_in, get_knn_scalar, KthHeap, Locality, Metrics, PointBlock, ScratchSpace,
};
use two_knn::{GridIndex, Point, QuadtreeIndex, Rect, SpatialIndex, StrRTree};

const CASES: u64 = 64;

fn points(rng: &mut StdRng, max_n: usize) -> Vec<Point> {
    let n = rng.gen_range(1..max_n + 1);
    (0..n)
        .map(|i| {
            Point::new(
                i as u64,
                rng.gen_range(0.0f64..1000.0),
                rng.gen_range(0.0f64..1000.0),
            )
        })
        .collect()
}

fn sorted_ids(n: &two_knn::Neighborhood) -> Vec<u64> {
    let mut ids = n.ids();
    ids.sort_unstable();
    ids
}

/// Distances from the query to the k-th neighbor must agree even when ties
/// make the chosen ids differ.
fn radii_equal(a: &two_knn::Neighborhood, b: &two_knn::Neighborhood) -> bool {
    (a.radius() - b.radius()).abs() < 1e-9 && a.len() == b.len()
}

/// MINDIST ≤ d(p, q) ≤ MAXDIST for every q inside the rectangle.
#[test]
fn mindist_and_maxdist_bound_point_distances() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(case);
        let p = Point::anonymous(
            rng.gen_range(-100.0f64..1100.0),
            rng.gen_range(-100.0f64..1100.0),
        );
        let x0 = rng.gen_range(0.0f64..500.0);
        let y0 = rng.gen_range(0.0f64..500.0);
        let w = rng.gen_range(0.1f64..400.0);
        let h = rng.gen_range(0.1f64..400.0);
        let r = Rect::new(x0, y0, x0 + w, y0 + h);
        let q = Point::anonymous(
            x0 + rng.gen_range(0.0f64..1.0) * w,
            y0 + rng.gen_range(0.0f64..1.0) * h,
        );
        let d = euclidean(&p, &q);
        assert!(mindist(&p, &r) <= d + 1e-9, "case {case}");
        assert!(d <= maxdist(&p, &r) + 1e-9, "case {case}");
        assert!(mindist(&p, &r) <= maxdist(&p, &r) + 1e-9, "case {case}");
    }
}

/// All three index structures satisfy the structural invariants and preserve
/// every input point.
#[test]
fn indexes_preserve_points_and_invariants() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(1_000 + case);
        let pts = points(&mut rng, 300);
        let n = pts.len();
        let grid = GridIndex::build(pts.clone(), 6).unwrap();
        let quad = QuadtreeIndex::build(pts.clone(), 16).unwrap();
        let rtree = StrRTree::build(pts, 16).unwrap();
        for index in [
            &grid as &dyn SpatialIndex,
            &quad as &dyn SpatialIndex,
            &rtree as &dyn SpatialIndex,
        ] {
            assert_eq!(index.num_points(), n, "case {case}");
            assert!(check_index_invariants(index).is_ok(), "case {case}");
        }
    }
}

/// The locality-based getkNN and the best-first getkNN both agree with a
/// brute-force oracle (up to distance ties), on every index type.
#[test]
fn knn_matches_brute_force_on_all_indexes() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(2_000 + case);
        let pts = points(&mut rng, 250);
        let q = Point::anonymous(
            rng.gen_range(-50.0f64..1050.0),
            rng.gen_range(-50.0f64..1050.0),
        );
        let k = rng.gen_range(1..20usize);
        let grid = GridIndex::build(pts.clone(), 5).unwrap();
        let quad = QuadtreeIndex::build(pts.clone(), 12).unwrap();
        let rtree = StrRTree::build(pts, 12).unwrap();
        let mut m = Metrics::default();
        for index in [
            &grid as &dyn SpatialIndex,
            &quad as &dyn SpatialIndex,
            &rtree as &dyn SpatialIndex,
        ] {
            let oracle = brute_force_knn(index, &q, k);
            let locality_based = get_knn(index, &q, k, &mut m);
            let best_first = get_knn_best_first(index, &q, k, &mut m);
            // Ties at the k-th distance can legitimately produce different id
            // choices, so compare ids when radii match strictly, and radii
            // always.
            assert!(radii_equal(&oracle, &locality_based), "case {case}");
            assert!(radii_equal(&oracle, &best_first), "case {case}");
            if oracle.len() == oracle.k() {
                // Every returned member must be at distance <= oracle radius.
                for nb in locality_based.members() {
                    assert!(nb.distance <= oracle.radius() + 1e-9, "case {case}");
                }
            } else {
                // Fewer than k points in the relation: all ids must match.
                assert_eq!(
                    sorted_ids(&locality_based),
                    sorted_ids(&oracle),
                    "case {case}"
                );
            }
        }
    }
}

/// The locality always covers the true k nearest neighbors, and the bounded
/// locality never contains a block farther than the threshold.
#[test]
fn locality_covers_knn_and_respects_threshold() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(3_000 + case);
        let pts = points(&mut rng, 300);
        let q = Point::anonymous(rng.gen_range(0.0f64..1000.0), rng.gen_range(0.0f64..1000.0));
        let k = rng.gen_range(1..15usize);
        let threshold = rng.gen_range(10.0f64..500.0);
        let grid = GridIndex::build(pts, 8).unwrap();
        let mut m = Metrics::default();

        let locality = Locality::build(&grid, &q, k, &mut m);
        let covered: std::collections::HashSet<u64> = locality
            .blocks()
            .iter()
            .flat_map(|b| grid.block_points(b.id))
            .map(|p| p.id)
            .collect();
        for nb in brute_force_knn(&grid, &q, k).members() {
            assert!(covered.contains(&nb.point.id), "case {case}");
        }

        let bounded = Locality::build_bounded(&grid, &q, k, threshold, &mut m);
        for b in bounded.blocks() {
            assert!(b.mindist(&q) <= threshold + 1e-9, "case {case}");
        }
    }
}

// ---------------------------------------------------------------------------
// SoA-vs-AoS equivalence (the columnar block layout and batched kernels)
// ---------------------------------------------------------------------------

/// The three index families as trait objects over one point set.
fn build_families(pts: &[Point]) -> [(&'static str, Box<dyn SpatialIndex>); 3] {
    [
        (
            "grid",
            Box::new(GridIndex::build(pts.to_vec(), 6).unwrap()) as Box<dyn SpatialIndex>,
        ),
        (
            "quadtree",
            Box::new(QuadtreeIndex::build(pts.to_vec(), 14).unwrap()),
        ),
        (
            "rtree",
            Box::new(StrRTree::build(pts.to_vec(), 14).unwrap()),
        ),
    ]
}

/// The SoA block columns must reassemble exactly the points the index was
/// built from: per block, the view's length matches the directory count and
/// its MBR bounds every reassembled row; globally, the multiset of rows is
/// the input point set, bit-for-bit.
#[test]
fn soa_blocks_reassemble_the_original_points() {
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(4_000 + case);
        let pts = points(&mut rng, 300);
        for (family, index) in build_families(&pts) {
            let mut rows: Vec<Point> = Vec::new();
            for b in index.blocks() {
                let view = index.block_points(b.id);
                assert_eq!(view.len(), b.count, "{family} case {case}");
                assert_eq!(view.ids().len(), view.xs().len(), "{family} case {case}");
                assert_eq!(view.ids().len(), view.ys().len(), "{family} case {case}");
                for (i, p) in view.iter().enumerate() {
                    // Column accessors and the by-value iterator agree.
                    assert_eq!(p, view.get(i), "{family} case {case}");
                    assert!(b.mbr.contains(&p), "{family} case {case}");
                    rows.push(p);
                }
            }
            let mut expected = pts.clone();
            expected.sort_by_key(|p| p.id);
            rows.sort_by_key(|p| p.id);
            assert_eq!(rows, expected, "{family} case {case}");
        }
    }
}

/// The batched SoA hot path (`get_knn_in`, τ-pruned, shared scratch) returns
/// *identical* neighborhoods to the retained AoS-style scalar baseline and
/// matches the brute-force oracle radius, on every index family — with one
/// `ScratchSpace` reused across all cases, families, and `k`s.
#[test]
fn batched_knn_equals_scalar_baseline_on_all_families() {
    let mut scratch = ScratchSpace::new();
    for case in 0..CASES {
        let mut rng = StdRng::seed_from_u64(5_000 + case);
        let pts = points(&mut rng, 280);
        let q = Point::anonymous(
            rng.gen_range(-50.0f64..1050.0),
            rng.gen_range(-50.0f64..1050.0),
        );
        let k = rng.gen_range(1..24usize);
        for (family, index) in build_families(&pts) {
            let mut m1 = Metrics::default();
            let mut m2 = Metrics::default();
            let batched = get_knn_in(index.as_ref(), &q, k, &mut m1, &mut scratch);
            let scalar = get_knn_scalar(index.as_ref(), &q, k, &mut m2);
            assert_eq!(batched, scalar, "{family} case {case}");
            let oracle = brute_force_knn(index.as_ref(), &q, k);
            assert!(radii_equal(&oracle, &batched), "{family} case {case}");
            // τ-pruning may only ever *reduce* the scanned work.
            assert!(
                m1.points_scanned <= m2.points_scanned,
                "{family} case {case}: batched scanned more points than scalar"
            );
        }
    }
}

/// Mixed write workload: upserts of new ids, upserts moving existing ids,
/// and removes of base ids.
fn mixed_batch(rng: &mut StdRng, generation: u64, base_n: u64) -> Vec<WriteOp> {
    let mut ops = Vec::new();
    for i in 0..40u64 {
        let roll = rng.gen_range(0..10usize);
        if roll < 5 {
            ops.push(WriteOp::Upsert(Point::new(
                10_000 + generation * 100 + i,
                rng.gen_range(0.0f64..1000.0),
                rng.gen_range(0.0f64..1000.0),
            )));
        } else if roll < 8 {
            ops.push(WriteOp::Upsert(Point::new(
                rng.gen_range(0..base_n as usize) as u64,
                rng.gen_range(0.0f64..1000.0),
                rng.gen_range(0.0f64..1000.0),
            )));
        } else {
            ops.push(WriteOp::Remove(rng.gen_range(0..base_n as usize) as u64));
        }
    }
    ops
}

/// SoA equivalence through the store: snapshots whose blocks are
/// tombstone-filtered base blocks plus overlay-grid cells must give the same
/// batched/scalar/brute-force answers, and never resurrect a removed id.
#[test]
fn soa_equivalence_holds_on_tombstone_filtered_overlay_blocks() {
    let mut scratch = ScratchSpace::new();
    for (family, build) in [("grid", 0usize), ("quadtree", 1usize), ("rtree", 2usize)] {
        let mut rng = StdRng::seed_from_u64(6_000 + build as u64);
        let base = points(&mut rng, 400);
        let base_n = base.len() as u64;
        // Huge threshold: nothing compacts, every read goes through the
        // delta overlay; tiny cells force a partitioned overlay.
        let mut db = Database::with_store_config(StoreConfig {
            compaction_threshold: usize::MAX,
            overlay: OverlayConfig {
                cell_target: 4,
                max_cells_per_axis: 8,
            },
            ..StoreConfig::default()
        });
        match build {
            0 => db.register("R", GridIndex::build(base.clone(), 6).unwrap()),
            1 => db.register("R", QuadtreeIndex::build(base.clone(), 16).unwrap()),
            _ => db.register("R", StrRTree::build(base.clone(), 16).unwrap()),
        };
        let ops = mixed_batch(&mut rng, 0, base_n);
        db.ingest("R", &ops).unwrap();
        let snap = db.relation("R").unwrap();
        assert!(snap.delta_len() > 0, "{family}: delta must be non-empty");

        let removed: std::collections::HashSet<u64> = ops
            .iter()
            .filter_map(|op| match op {
                WriteOp::Remove(id) if !snap.contains_id(*id) => Some(*id),
                _ => None,
            })
            .collect();
        // Tombstone-filtered base blocks never leak a removed id.
        for b in snap.blocks() {
            for p in snap.block_points(b.id) {
                assert!(!removed.contains(&p.id), "{family}: tombstone leaked");
            }
        }
        for case in 0..16u64 {
            let q = Point::anonymous(
                rng.gen_range(-50.0f64..1050.0),
                rng.gen_range(-50.0f64..1050.0),
            );
            let k = rng.gen_range(1..16usize);
            let mut m = Metrics::default();
            let batched = get_knn_in(&*snap, &q, k, &mut m, &mut scratch);
            let scalar = get_knn_scalar(&*snap, &q, k, &mut m);
            assert_eq!(batched, scalar, "{family} case {case}");
            let oracle = brute_force_knn(&*snap, &q, k);
            assert!(radii_equal(&oracle, &batched), "{family} case {case}");
            for nb in batched.members() {
                assert!(!removed.contains(&nb.point.id), "{family} case {case}");
            }
        }
    }
}

/// Drift test: across several mixed ingest batches (and a mid-stream
/// compaction) the batched kNN over the live snapshot stays identical to a
/// from-scratch index over the snapshot's merged points — the SoA overlay
/// and tombstone filtering introduce no generational drift.
#[test]
fn batched_knn_does_not_drift_across_mixed_ingest_batches() {
    let mut rng = StdRng::seed_from_u64(7_000);
    let base = points(&mut rng, 350);
    let base_n = base.len() as u64;
    let mut db = Database::with_store_config(StoreConfig {
        compaction_threshold: usize::MAX,
        overlay: OverlayConfig {
            cell_target: 4,
            max_cells_per_axis: 8,
        },
        ..StoreConfig::default()
    });
    db.register("R", GridIndex::build(base, 6).unwrap());
    let mut scratch = ScratchSpace::new();
    for generation in 0..6u64 {
        db.ingest("R", &mixed_batch(&mut rng, generation, base_n))
            .unwrap();
        if generation == 3 {
            // Fold the accumulated delta mid-stream: later generations run
            // against a rebuilt base plus a fresh overlay.
            db.compact_now("R").unwrap();
        }
        let snap = db.relation("R").unwrap();
        snap.check_overlay_invariants()
            .unwrap_or_else(|e| panic!("generation {generation}: {e}"));
        let reference = GridIndex::build_with_bounds(snap.merged_points(), snap.bounds(), 6)
            .expect("snapshot is non-empty");
        assert_eq!(snap.num_points(), reference.num_points());
        for case in 0..12u64 {
            let q = Point::anonymous(rng.gen_range(0.0f64..1000.0), rng.gen_range(0.0f64..1000.0));
            let k = rng.gen_range(1..12usize);
            let mut m = Metrics::default();
            let live = get_knn_in(&*snap, &q, k, &mut m, &mut scratch);
            let rebuilt = get_knn_in(&reference, &q, k, &mut m, &mut scratch);
            // The k smallest (distance², id) pairs are a unique selection
            // over the same logical point set, whatever the block layout —
            // the overlay/tombstone view and the rebuilt index must agree
            // exactly, members and all.
            assert_eq!(
                live, rebuilt,
                "generation {generation} case {case}: snapshot kNN drifted"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// The MINDIST walk: exact against brute force, ties at τ included
// ---------------------------------------------------------------------------

/// Points on a coarse even-integer lattice (every squared distance from a
/// lattice query is an exact integer, so distance ties are everywhere), with
/// about one in eight points an exact duplicate of an earlier point's
/// coordinates under a fresh id.
fn lattice_points(rng: &mut StdRng, n: usize, id_base: u64) -> Vec<Point> {
    let mut pts: Vec<Point> = Vec::with_capacity(n);
    for i in 0..n as u64 {
        let (x, y) = if !pts.is_empty() && rng.gen_range(0..8usize) == 0 {
            let twin = pts[rng.gen_range(0..pts.len())];
            (twin.x, twin.y)
        } else {
            (
                rng.gen_range(0..60usize) as f64 * 2.0,
                rng.gen_range(0..60usize) as f64 * 2.0,
            )
        };
        pts.push(Point::new(id_base + i, x, y));
    }
    pts
}

/// A relation of `shards_per_axis²` shards over lattice points whose reads
/// all go through a live overlay with tombstones: fresh upserts, moves of
/// base ids, and removes of base ids, never compacted.
fn live_relation(rng: &mut StdRng, shards_per_axis: usize) -> Database {
    let mut db = Database::with_store_config(StoreConfig {
        compaction_threshold: usize::MAX,
        overlay: OverlayConfig {
            cell_target: 4,
            max_cells_per_axis: 8,
        },
        sharding: ShardConfig::per_axis(shards_per_axis),
        ..StoreConfig::default()
    });
    let base = lattice_points(rng, 700, 0);
    db.register("R", GridIndex::build(base, 8).unwrap());
    let mut ops = Vec::new();
    for p in lattice_points(rng, 160, 50_000) {
        match rng.gen_range(0..4usize) {
            0 => ops.push(WriteOp::Remove(rng.gen_range(0..700usize) as u64)),
            1 => ops.push(WriteOp::Upsert(Point::new(
                rng.gen_range(0..700usize) as u64,
                p.x,
                p.y,
            ))),
            _ => ops.push(WriteOp::Upsert(p)),
        }
    }
    db.ingest("R", &ops).unwrap();
    db
}

/// The walk against the oracle on one index: `get_knn_in` equals brute
/// force exactly (members, order, tie choices); `get_knn_bounded_in` agrees
/// with it on every member within the threshold (and entirely when the
/// threshold covers the true k-th distance).
///
/// On an unsharded index (`bounded_by_scalar`) neither scans more points
/// than the locality-based scalar baseline: the walk reads blocks in MINDIST
/// order, and once it has read every block with MINDIST ≤ M (the locality's
/// MAXDIST bound) its heap holds k points within M, so it never reads a
/// block outside the locality. A sharded index is walked one partition at a
/// time and the nearest partition alone fills the heap; when that partition
/// holds few points near the query, its walk can read past the global M, so
/// the bound is not asserted there.
fn check_walk(
    label: &str,
    index: &dyn SpatialIndex,
    bounded_by_scalar: bool,
    rng: &mut StdRng,
    scratch: &mut ScratchSpace,
) {
    for case in 0..24 {
        // Half the queries sit on the lattice (ties at τ), half anywhere.
        let q = if case % 2 == 0 {
            Point::anonymous(
                rng.gen_range(0..60usize) as f64 * 2.0,
                rng.gen_range(0..60usize) as f64 * 2.0,
            )
        } else {
            Point::anonymous(
                rng.gen_range(-20.0f64..140.0),
                rng.gen_range(-20.0f64..140.0),
            )
        };
        for k in [1usize, 2, 8, 64] {
            let ctx = format!("{label} case {case} k={k} q=({}, {})", q.x, q.y);
            let oracle = brute_force_knn(index, &q, k);

            let (mut walk_m, mut scalar_m) = (Metrics::default(), Metrics::default());
            let walked = get_knn_in(index, &q, k, &mut walk_m, scratch);
            assert_eq!(walked, oracle, "{ctx}");
            assert_eq!(walked, get_knn_scalar(index, &q, k, &mut scalar_m), "{ctx}");
            assert!(
                !bounded_by_scalar || walk_m.points_scanned <= scalar_m.points_scanned,
                "{ctx}: walk scanned {} points, scalar {}",
                walk_m.points_scanned,
                scalar_m.points_scanned
            );

            // Thresholds below, at (an exact lattice distance) and above τ.
            let tau = oracle.radius();
            for threshold in [rng.gen_range(0.0f64..40.0), tau, tau + 1.0] {
                let mut m = Metrics::default();
                let bounded = get_knn_bounded_in(index, &q, k, threshold, &mut m, scratch);
                let within = |n: &two_knn::Neighborhood| -> Vec<u64> {
                    n.members()
                        .iter()
                        .filter(|nb| nb.distance <= threshold)
                        .map(|nb| nb.point.id)
                        .collect()
                };
                assert_eq!(within(&bounded), within(&oracle), "{ctx} t={threshold}");
                if threshold >= tau {
                    assert_eq!(bounded, oracle, "{ctx} t={threshold}");
                }
                assert!(
                    !bounded_by_scalar || m.points_scanned <= scalar_m.points_scanned,
                    "{ctx} t={threshold}"
                );
            }
        }
    }
}

#[test]
fn mindist_walk_matches_brute_force_with_ties_on_every_family() {
    let mut scratch = ScratchSpace::new();
    for seed in 0..4u64 {
        let mut rng = StdRng::seed_from_u64(8_000 + seed);
        let pts = lattice_points(&mut rng, 600, 0);
        for (family, index) in build_families(&pts) {
            check_walk(family, index.as_ref(), true, &mut rng, &mut scratch);
        }
    }
}

#[test]
fn mindist_walk_matches_brute_force_on_a_sharded_live_snapshot() {
    let mut scratch = ScratchSpace::new();
    for seed in 0..3u64 {
        let mut rng = StdRng::seed_from_u64(9_000 + seed);
        let db = live_relation(&mut rng, 4);
        let snap = db.relation("R").unwrap();
        assert!(snap.delta_len() > 0, "reads must go through the overlay");
        let populated = snap
            .partitions()
            .expect("a 4x4 relation exposes partitions")
            .iter()
            .filter(|p| !p.is_empty())
            .count();
        assert!(populated > 8, "lattice points must populate most shards");
        check_walk("sharded", &*snap, false, &mut rng, &mut scratch);

        // The same live overlay on one shard is a flat walk again.
        let db = live_relation(&mut rng, 1);
        check_walk(
            "single-shard",
            &*db.relation("R").unwrap(),
            true,
            &mut rng,
            &mut scratch,
        );
    }
}

/// The τ gate of the block-scan fold is inclusive: a lane at exactly τ²
/// whose id is smaller than the root's passes the gate and replaces the
/// root, exactly as an unconditional insert would.
#[test]
fn kth_heap_gate_admits_an_exact_tau_tie_with_a_smaller_id() {
    let q = Point::anonymous(0.0, 0.0);
    let mut heap = KthHeap::new(2);
    heap.insert(1.0, Point::new(5, 1.0, 0.0));
    heap.insert(4.0, Point::new(9, 2.0, 0.0));
    assert_eq!(heap.threshold_sq(), 4.0);

    // Lane 0 is beyond τ², lane 1 ties τ² with a smaller id, lane 2 ties
    // with a larger id.
    let block: PointBlock = [
        Point::new(1, 3.0, 0.0),
        Point::new(3, 0.0, 2.0),
        Point::new(12, 0.0, -2.0),
    ]
    .into_iter()
    .collect();
    let mut dist = Vec::new();
    heap.scan_block(&q, block.view(), &mut dist);
    assert_eq!(heap.threshold_sq(), 4.0);
    assert_eq!(heap.finish(q, 2).ids(), vec![5, 3]);
}

/// Counting against the conceptual plan on a 4×4-sharded inner relation
/// whose blocks are single points (R-tree leaves of capacity 1): a block's
/// MAXDIST is then exactly its point's distance, and on the lattice many
/// outer points have inner points at exactly the search threshold. The
/// `MAXDIST >= threshold` exclusion must keep those cases exact: counting
/// the tied blocks too would prune outer points whose neighborhood reaches
/// a select member at exactly the threshold.
#[test]
fn counting_matches_conceptual_on_a_sharded_inner_with_threshold_ties() {
    let mut rng = StdRng::seed_from_u64(10_000);
    let mut db = Database::with_store_config(StoreConfig {
        sharding: ShardConfig::per_axis(4),
        ..StoreConfig::default()
    });
    db.register(
        "Inner",
        StrRTree::build(lattice_points(&mut rng, 500, 0), 1).unwrap(),
    );
    db.register(
        "Outer",
        GridIndex::build(lattice_points(&mut rng, 150, 100_000), 6).unwrap(),
    );
    let inner = db.relation("Inner").unwrap();
    let outer = db.relation("Outer").unwrap();
    assert!(inner.partitions().is_some_and(|p| p.len() == 16));
    assert!(inner.blocks().iter().all(|b| b.count <= 1));
    let all_inner = inner.all_points();

    // Outer points in the answer that only the strict exclusion keeps:
    // more than k⋈ inner points lie at or within the search threshold.
    let mut saved_by_strictness = 0;
    let mut pruned = 0;
    for focal in 0..16 {
        let focal = Point::anonymous((focal % 4 * 36 + 6) as f64, (focal / 4 * 36 + 6) as f64);
        for (k_join, k_select) in [(1, 1), (2, 3), (3, 2), (4, 5), (8, 8)] {
            let query = SelectInnerJoinQuery::new(k_join, k_select, focal);
            let fast = counting(&*outer, &*inner, &query);
            let slow = conceptual(&*outer, &*inner, &query);
            let answer = pair_id_set(&slow.rows);
            assert_eq!(
                pair_id_set(&fast.rows),
                answer,
                "k_join={k_join} k_select={k_select} focal=({}, {})",
                focal.x,
                focal.y
            );
            pruned += fast.metrics.points_pruned;

            let nbr_f = brute_force_knn(&*inner, &focal, k_select);
            for e1 in outer.all_points() {
                let t = nbr_f.nearest_distance_from(&e1).unwrap();
                let at_or_within = all_inner.iter().filter(|i| e1.distance(i) <= t).count();
                if at_or_within > k_join && answer.iter().any(|&(o, _)| o == e1.id) {
                    saved_by_strictness += 1;
                }
            }
        }
    }
    assert!(
        saved_by_strictness > 0,
        "no answer hinged on a threshold tie"
    );
    assert!(pruned > 0, "the count test never pruned");
}
