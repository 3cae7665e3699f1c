//! End-to-end tests of the declarative query front-end: textual
//! `FIND … WHERE …` queries with residual filters around the kNN
//! predicates must return **exactly** the brute-force answer under the
//! placement semantics the rewriter chose — pre-kNN filters mean "the k
//! nearest *matching* points" (filter-then-kNN), post-kNN filters prune
//! the unfiltered neighborhood (kNN-then-filter) — across all three index
//! families, flat and sharded layouts, and a durable crash/reopen cycle.
//! Invalid placements (a pre-filter on a kNN-join inner relation) must be
//! refused, and `subscribe_query` must maintain the *filtered* result
//! under ingest.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use two_knn::core::plan::{Database, QueryFilters, QuerySpec};
use two_knn::core::select_join::SelectInnerJoinQuery;
use two_knn::core::store::{DurabilityConfig, ShardConfig, StoreConfig, WriteOp};
use two_knn::core::{QueryError, ResultDelta};
use two_knn::geometry::Predicate;
use two_knn::{GridIndex, Point, QuadtreeIndex, Rect, StrRTree};

/// Irregular, tie-free point cloud over roughly [0, 110]².
fn scattered(n: usize, id_base: u64, seed: u64) -> Vec<Point> {
    (0..n as u64)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(0x9E3779B97F4A7C15);
            let x = (h % 100_000) as f64 * 0.0011;
            let y = ((h / 100_000) % 100_000) as f64 * 0.0011;
            Point::new(id_base + i, x, y)
        })
        .collect()
}

fn id_rows(result: &two_knn::core::plan::QueryResult) -> Vec<Vec<u64>> {
    let mut ids: Vec<Vec<u64>> = result.rows().iter().map(|r| r.ids()).collect();
    ids.sort_unstable();
    ids
}

fn dist2(p: &Point, x: f64, y: f64) -> f64 {
    let dx = p.x - x;
    let dy = p.y - y;
    dx * dx + dy * dy
}

/// Independent oracle: the ids of the `k` nearest points to `(x, y)` among
/// those matching `keep` — plain sort, no index, no shared kernels.
fn brute_knn(
    points: &[Point],
    x: f64,
    y: f64,
    k: usize,
    keep: impl Fn(&Point) -> bool,
) -> Vec<u64> {
    let mut matching: Vec<&Point> = points.iter().filter(|p| keep(p)).collect();
    matching.sort_by(|a, b| dist2(a, x, y).total_cmp(&dist2(b, x, y)));
    matching.truncate(k);
    let mut ids: Vec<u64> = matching.iter().map(|p| p.id).collect();
    ids.sort_unstable();
    ids
}

fn sorted_singleton_rows(ids: &[u64]) -> Vec<Vec<u64>> {
    let mut rows: Vec<Vec<u64>> = ids.iter().map(|id| vec![*id]).collect();
    rows.sort_unstable();
    rows
}

fn install_family(db: &mut Database, family: &str, initial: &[Point]) {
    match family {
        "grid" => {
            db.register("Objects", GridIndex::build(initial.to_vec(), 8).unwrap());
        }
        "quadtree" => {
            db.register(
                "Objects",
                QuadtreeIndex::build(initial.to_vec(), 32).unwrap(),
            );
        }
        _ => {
            db.register("Objects", StrRTree::build(initial.to_vec(), 32).unwrap());
        }
    }
}

/// A process-unique scratch directory, removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir =
            std::env::temp_dir().join(format!("twoknn-querylang-{}-{tag}-{n}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

// ---------------------------------------------------------------------------
// Placement equivalence: parsed queries vs the brute-force oracle
// ---------------------------------------------------------------------------

/// Pre-filters compute the k nearest *matching* points; post-filters prune
/// the unfiltered neighborhood. Both placements, plus a query mixing them,
/// across every index family × flat/sharded layout.
#[test]
fn parsed_queries_match_brute_force_in_both_placements() {
    let points = scattered(500, 0, 3);
    let rect = Rect::new(10.0, 10.0, 80.0, 80.0);
    let in_rect = |p: &Point| rect.contains(p);

    let pre_expect = brute_knn(&points, 45.0, 45.0, 7, in_rect);
    let post_expect: Vec<u64> = brute_knn(&points, 45.0, 45.0, 9, |_| true)
        .into_iter()
        .filter(|id| *id <= 250)
        .collect();
    let mixed_expect: Vec<u64> = brute_knn(&points, 45.0, 45.0, 7, in_rect)
        .into_iter()
        .filter(|id| *id >= 50)
        .collect();
    assert!(
        pre_expect.len() == 7 && !post_expect.is_empty() && !mixed_expect.is_empty(),
        "the fixtures must exercise non-trivial results"
    );

    for family in ["grid", "quadtree", "rtree"] {
        for shards_per_axis in [1usize, 3] {
            let tag = format!("{family}/{shards_per_axis}x{shards_per_axis}");
            let mut db = Database::with_store_config(StoreConfig {
                sharding: ShardConfig::per_axis(shards_per_axis),
                ..StoreConfig::default()
            });
            install_family(&mut db, family, &points);

            let pre = db
                .query("FIND (Objects WHERE INSIDE(RECT(10, 10, 80, 80))) WHERE KNN(7, 45, 45)")
                .unwrap();
            assert_eq!(
                id_rows(&pre),
                sorted_singleton_rows(&pre_expect),
                "{tag}: pre"
            );

            let post = db
                .query("FIND Objects WHERE KNN(9, 45, 45) AND ID <= 250")
                .unwrap();
            assert_eq!(
                id_rows(&post),
                sorted_singleton_rows(&post_expect),
                "{tag}: post"
            );

            let mixed = db
                .query(
                    "FIND (Objects WHERE INSIDE(RECT(10, 10, 80, 80))) \
                     WHERE KNN(7, 45, 45) AND ID >= 50",
                )
                .unwrap();
            assert_eq!(
                id_rows(&mixed),
                sorted_singleton_rows(&mixed_expect),
                "{tag}: mixed"
            );
        }
    }
}

/// Two kNN predicates in one condition compile to the conceptual
/// intersection of two *filtered* selects; the answer must match the
/// intersected brute-force neighborhoods under the same pre-filter.
#[test]
fn two_knn_predicates_intersect_filtered_neighborhoods() {
    let points = scattered(400, 0, 17);
    let keep = |p: &Point| p.id % 3 != 0;

    let nbr1 = brute_knn(&points, 30.0, 30.0, 40, keep);
    let nbr2 = brute_knn(&points, 70.0, 70.0, 60, keep);
    let expected: Vec<u64> = nbr1
        .iter()
        .copied()
        .filter(|id| nbr2.contains(id))
        .collect();

    // `ID IN (...)` can't express "id % 3 != 0" compactly, so feed the
    // matching ids explicitly — the parser must handle a long list.
    let matching: Vec<String> = points
        .iter()
        .filter(|p| keep(p))
        .map(|p| p.id.to_string())
        .collect();
    let query = format!(
        "FIND (Objects WHERE ID IN ({})) WHERE KNN(40, 30, 30) AND KNN(60, 70, 70)",
        matching.join(", ")
    );

    for family in ["grid", "quadtree", "rtree"] {
        let mut db = Database::new();
        install_family(&mut db, family, &points);
        let got = db.query(&query).unwrap();
        assert_eq!(
            id_rows(&got),
            sorted_singleton_rows(&expected),
            "{family}: filtered two-selects intersection"
        );
    }
}

// ---------------------------------------------------------------------------
// Degenerate filters: zero matches and τ-neighborhood elimination
// ---------------------------------------------------------------------------

/// A pre-filter that matches nothing yields an empty result (not an
/// error); a post-`FALSE` likewise. A `NOT INSIDE(CIRCLE(...))` filter
/// centered on the focal point eliminates the entire *unfiltered*
/// τ-neighborhood, so a kernel that pruned against unfiltered distances
/// would return too few rows — the masked kernel must keep expanding.
#[test]
fn zero_match_and_tau_eliminating_filters() {
    let points = scattered(400, 0, 3);
    let outside = |p: &Point| dist2(p, 45.0, 45.0) > 30.0 * 30.0;
    let tau_expect = brute_knn(&points, 45.0, 45.0, 6, outside);
    assert_eq!(tau_expect.len(), 6, "enough points survive the ring filter");

    for family in ["grid", "quadtree", "rtree"] {
        let mut db = Database::new();
        install_family(&mut db, family, &points);

        let empty_pre = db
            .query("FIND (Objects WHERE FALSE) WHERE KNN(5, 45, 45)")
            .unwrap();
        assert!(empty_pre.rows().is_empty(), "{family}: FALSE pre-filter");

        let empty_post = db
            .query("FIND Objects WHERE KNN(5, 45, 45) AND FALSE")
            .unwrap();
        assert!(empty_post.rows().is_empty(), "{family}: FALSE post-filter");

        let ring = db
            .query("FIND (Objects WHERE NOT INSIDE(CIRCLE(45, 45, 30))) WHERE KNN(6, 45, 45)")
            .unwrap();
        assert_eq!(
            id_rows(&ring),
            sorted_singleton_rows(&tau_expect),
            "{family}: τ-eliminating ring filter"
        );
    }
}

// ---------------------------------------------------------------------------
// Durable reopen
// ---------------------------------------------------------------------------

/// Parsed queries answer identically before a crash and after recovery
/// from the WAL — and both match the brute-force oracle over the final
/// point set.
#[test]
fn parsed_queries_survive_durable_reopen() {
    let initial = scattered(300, 0, 3);
    let cfg = |durability| StoreConfig {
        compaction_threshold: usize::MAX,
        sharding: ShardConfig::per_axis(2),
        durability,
        ..StoreConfig::default()
    };
    let tmp = TempDir::new("reopen");
    let durable_cfg = cfg(DurabilityConfig::at(tmp.path()));

    let mut live: BTreeMap<u64, Point> = initial.iter().map(|p| (p.id, *p)).collect();
    let mut ops: Vec<WriteOp> = Vec::new();
    for p in scattered(40, 10_000, 77) {
        live.insert(p.id, p);
        ops.push(WriteOp::Upsert(p));
    }
    for id in (0..300u64).step_by(9) {
        live.remove(&id);
        ops.push(WriteOp::Remove(id));
    }

    let query =
        "FIND (Objects WHERE INSIDE(RECT(5, 5, 90, 90))) WHERE KNN(8, 40, 40) AND ID <= 10020";
    let final_points: Vec<Point> = live.values().copied().collect();
    let expected: Vec<u64> = brute_knn(&final_points, 40.0, 40.0, 8, |p| {
        Rect::new(5.0, 5.0, 90.0, 90.0).contains(p)
    })
    .into_iter()
    .filter(|id| *id <= 10_020)
    .collect();
    assert!(!expected.is_empty());

    let before = {
        // Scope the durable instance so it drops without a checkpoint —
        // recovery replays the WAL, not a graceful shutdown image.
        let mut db = Database::with_store_config(durable_cfg.clone());
        db.register("Objects", GridIndex::build(initial, 8).unwrap());
        db.ingest("Objects", &ops).unwrap();
        let result = db.query(query).unwrap();
        id_rows(&result)
    };
    assert_eq!(before, sorted_singleton_rows(&expected), "pre-crash");

    let reopened = Database::open(tmp.path(), durable_cfg).unwrap();
    let after = reopened.query(query).unwrap();
    assert_eq!(
        id_rows(&after),
        before,
        "recovery answers the same query identically"
    );
}

// ---------------------------------------------------------------------------
// Refused rewrites
// ---------------------------------------------------------------------------

/// A pre-filter on the inner relation of a kNN-join changes every
/// neighborhood (paper, Figure 2) — execute and subscribe must both refuse
/// it with `InvalidTransformation`, while the post placement of the same
/// predicate is accepted.
#[test]
fn pre_filter_on_a_join_inner_is_refused_end_to_end() {
    let mut db = Database::new();
    db.register(
        "Objects",
        GridIndex::build(scattered(200, 0, 3), 6).unwrap(),
    );
    db.register(
        "Sites",
        GridIndex::build(scattered(80, 50_000, 4), 5).unwrap(),
    );

    let join = QuerySpec::SelectInnerOfJoin {
        outer: "Sites".into(),
        inner: "Objects".into(),
        query: SelectInnerJoinQuery::new(2, 3, Point::anonymous(55.0, 55.0)),
    };
    let predicate = Predicate::InRect(Rect::new(0.0, 0.0, 60.0, 60.0));

    let invalid = join
        .clone()
        .with_filters(QueryFilters::none().pre("Objects", predicate.clone()));
    assert!(
        matches!(
            db.execute(&invalid),
            Err(QueryError::InvalidTransformation { .. })
        ),
        "execute must refuse a pre-filter on the join inner"
    );
    assert!(
        matches!(
            db.subscribe(&invalid, None),
            Err(QueryError::InvalidTransformation { .. })
        ),
        "subscribe must refuse it too"
    );

    // Same predicate as a *post*-filter is a valid plan.
    let valid = join.with_filters(QueryFilters::none().post("Objects", predicate));
    assert!(db.execute(&valid).is_ok(), "post placement stays legal");

    // Unknown relation names in filters surface as UnknownRelation.
    let unknown = QuerySpec::KnnSelect {
        relation: "Objects".into(),
        query: two_knn::core::select::KnnSelectQuery {
            k: 3,
            focal: Point::anonymous(10.0, 10.0),
        },
    }
    .with_filters(QueryFilters::none().pre("Nowhere", Predicate::True));
    // An all-True filter is dropped as a no-op before validation...
    assert!(db.execute(&unknown).is_ok());
    // ...but a real predicate on an unknown name is an error.
    let unknown = QuerySpec::KnnSelect {
        relation: "Objects".into(),
        query: two_knn::core::select::KnnSelectQuery {
            k: 3,
            focal: Point::anonymous(10.0, 10.0),
        },
    }
    .with_filters(QueryFilters::none().pre("Nowhere", Predicate::IdRange { lo: 0, hi: 5 }));
    assert!(matches!(
        db.execute(&unknown),
        Err(QueryError::UnknownRelation { .. })
    ));
}

// ---------------------------------------------------------------------------
// Standing textual queries
// ---------------------------------------------------------------------------

fn apply_deltas(acc: &mut BTreeMap<Vec<u64>, ()>, deltas: &[ResultDelta]) {
    for delta in deltas {
        for row in &delta.removed {
            assert!(
                acc.remove(&row.ids()).is_some(),
                "removed row {:?} was not in the accumulated result",
                row.ids()
            );
        }
        for row in &delta.added {
            assert!(
                acc.insert(row.ids(), ()).is_none(),
                "added row {:?} was already in the accumulated result",
                row.ids()
            );
        }
    }
}

/// A textual filtered standing query maintained across mixed ingest
/// batches must stay delta-equivalent to re-running the same text from
/// scratch at every version.
#[test]
fn subscribe_query_maintains_the_filtered_result_under_ingest() {
    let text = "FIND (Objects WHERE INSIDE(RECT(0, 0, 70, 70))) \
                WHERE KNN(5, 35, 35) AND ID BETWEEN 0 AND 60000";
    let mut db = Database::new();
    db.register(
        "Objects",
        GridIndex::build(scattered(300, 0, 3), 8).unwrap(),
    );

    let sub = db.subscribe_query(text).unwrap();
    let mut acc: BTreeMap<Vec<u64>, ()> = BTreeMap::new();
    apply_deltas(&mut acc, &db.poll(sub).unwrap());
    assert_eq!(
        acc.keys().cloned().collect::<Vec<_>>(),
        id_rows(&db.query(text).unwrap()),
        "initial delta reproduces the from-scratch result"
    );

    for round in 1..=6u64 {
        let mut ops: Vec<WriteOp> = Vec::new();
        for p in scattered(10, 50_000 + round * 100, 1_000 + round * 7) {
            ops.push(WriteOp::Upsert(p));
        }
        for (i, p) in scattered(5, 0, 2_000 + round * 13).into_iter().enumerate() {
            // Moves: reuse existing base ids with fresh positions.
            ops.push(WriteOp::Upsert(Point::new(
                (round * 37 + i as u64 * 13) % 300,
                p.x,
                p.y,
            )));
        }
        for i in 0..3u64 {
            ops.push(WriteOp::Remove((round * 91 + i * 29) % 300));
        }
        let (_, version) = db.ingest("Objects", &ops).unwrap();
        // Re-evaluations run detached: fence on the ingest's version.
        db.sync(sub, version, Duration::from_secs(60)).unwrap();

        apply_deltas(&mut acc, &db.poll(sub).unwrap());
        assert_eq!(
            acc.keys().cloned().collect::<Vec<_>>(),
            id_rows(&db.query(text).unwrap()),
            "round {round}: maintained filtered result diverged from re-execution"
        );
    }
    db.unsubscribe(sub).unwrap();
}

/// Parse errors carry the offending span and pretty-print with a caret
/// line; they surface through `Database::query` as `QueryError::Parse`.
#[test]
fn parse_errors_surface_with_spans() {
    let db = Database::new();
    let err = db.query("FIND Objects WHERE KNN(0, 1, 2)").unwrap_err();
    match err {
        QueryError::Parse(parse) => {
            let rendered = parse.to_string();
            assert!(rendered.contains('^'), "caret rendering: {rendered}");
            assert!(
                rendered.contains("KNN"),
                "mentions the bad atom: {rendered}"
            );
        }
        other => panic!("expected a parse error, got {other:?}"),
    }

    // A syntactically valid query over a missing relation is *not* a parse
    // error — the catalog lookup reports it.
    assert!(matches!(
        db.query("FIND Ghost WHERE KNN(2, 1, 1)"),
        Err(QueryError::UnknownRelation { .. })
    ));
}
