//! Integration tests of the continuous-query subsystem: standing queries
//! over every supported shape, maintained incrementally across randomized
//! mixed ingest batches, must stay delta-equivalent to from-scratch
//! execution at every published version — across all three index families.
//! Plus the guard-tightness regression: a write burst far from every focal
//! point must trigger **zero** re-evaluations.

use std::collections::BTreeMap;
use std::time::Duration;

use two_knn::core::exec::available_threads;
use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::plan::{Database, QuerySpec};
use two_knn::core::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::{StoreConfig, WriteOp};
use two_knn::core::{QueryError, ResultDelta, SubscriptionId, WorkerPool};
use two_knn::{GridIndex, Point, QuadtreeIndex, StrRTree};

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

/// The standing-query shapes under maintenance: select-in-join (both
/// directions), unchained join, chained join, and two selects — every
/// relation role the guard derivation distinguishes. "Objects" is the
/// relation the write stream mutates.
fn standing_queries() -> Vec<QuerySpec> {
    let focal = Point::anonymous(55.0, 55.0);
    vec![
        QuerySpec::TwoSelects {
            relation: "Objects".into(),
            query: TwoSelectsQuery::new(6, focal, 40, Point::anonymous(40.0, 60.0)),
        },
        QuerySpec::SelectInnerOfJoin {
            outer: "Sites".into(),
            inner: "Objects".into(),
            query: SelectInnerJoinQuery::new(2, 3, focal),
        },
        QuerySpec::SelectOuterOfJoin {
            outer: "Objects".into(),
            inner: "Sites".into(),
            query: SelectOuterJoinQuery::new(2, 4, focal),
        },
        QuerySpec::UnchainedJoins {
            a: "A".into(),
            b: "Objects".into(),
            c: "C".into(),
            query: UnchainedJoinQuery::new(2, 2),
        },
        QuerySpec::ChainedJoins {
            a: "A".into(),
            b: "Objects".into(),
            c: "C".into(),
            query: ChainedJoinQuery::new(2, 2),
        },
    ]
}

/// One randomized mixed batch: fresh inserts, moves of base objects, and
/// removes of base + previously inserted ids. Deterministic per round.
fn mixed_batch(round: u64) -> Vec<WriteOp> {
    let mut ops = Vec::new();
    for p in scattered(8, 50_000 + round * 100, 1_000 + round * 7) {
        ops.push(WriteOp::Upsert(p));
    }
    for (i, p) in scattered(6, 0, 2_000 + round * 13).into_iter().enumerate() {
        // Moves: reuse existing base ids with fresh positions.
        ops.push(WriteOp::Upsert(Point::new(
            (round * 37 + i as u64 * 13) % 600,
            p.x,
            p.y,
        )));
    }
    for i in 0..4u64 {
        ops.push(WriteOp::Remove((round * 91 + i * 29) % 600));
    }
    if round > 1 {
        // Remove one insert from the previous round.
        ops.push(WriteOp::Remove(50_000 + (round - 1) * 100));
    }
    ops
}

/// Folds a subscription's polled deltas into its accumulated result,
/// asserting the deltas are well-formed (no double-adds, no phantom
/// removes) and version-monotone.
fn apply_deltas(acc: &mut BTreeMap<Vec<u64>, ()>, last_version: &mut u64, deltas: &[ResultDelta]) {
    for delta in deltas {
        assert!(
            !delta.is_empty(),
            "the maintainer must not emit empty deltas"
        );
        assert!(
            delta.version >= *last_version,
            "delta versions must be monotone: {} after {last_version}",
            delta.version
        );
        *last_version = delta.version;
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

fn catalog(db: &mut Database, family: &str) {
    let objects = scattered(600, 0, 3);
    match family {
        "grid" => db.register("Objects", GridIndex::build(objects, 8).unwrap()),
        "quadtree" => db.register("Objects", QuadtreeIndex::build(objects, 32).unwrap()),
        _ => db.register("Objects", StrRTree::build(objects, 32).unwrap()),
    };
    db.register(
        "Sites",
        GridIndex::build(scattered(200, 50_000_000, 4), 5).unwrap(),
    );
    db.register(
        "A",
        GridIndex::build(scattered(120, 60_000_000, 5), 4).unwrap(),
    );
    db.register(
        "C",
        GridIndex::build(scattered(120, 70_000_000, 6), 4).unwrap(),
    );
}

#[test]
fn accumulated_deltas_reconstruct_from_scratch_results_at_every_version() {
    for family in ["grid", "quadtree", "rtree"] {
        // A small compaction threshold so background rebuilds interleave
        // with maintenance mid-stream; the pool honors TWOKNN_THREADS (the
        // CI matrix pins 1 and 2).
        let pool = WorkerPool::new(available_threads());
        let mut db = Database::with_pool_and_store_config(
            pool,
            StoreConfig {
                compaction_threshold: 48,
                ..StoreConfig::default()
            },
        );
        catalog(&mut db, family);
        let db = db;

        let specs = standing_queries();
        let mut subs: Vec<SubscriptionId> = Vec::new();
        let mut accs: Vec<BTreeMap<Vec<u64>, ()>> = Vec::new();
        let mut versions: Vec<u64> = Vec::new();
        for spec in &specs {
            let id = db.subscribe(spec, None).unwrap();
            subs.push(id);
            accs.push(BTreeMap::new());
            versions.push(0);
        }
        assert_eq!(db.subscription_count(), specs.len());

        for round in 1..=14u64 {
            db.ingest("Objects", &mixed_batch(round)).unwrap();
            // Deterministically await every maintenance re-evaluation and
            // background compaction scheduled by this batch.
            db.pool().wait_idle();

            for (i, spec) in specs.iter().enumerate() {
                let deltas = db.poll(subs[i]).unwrap();
                apply_deltas(&mut accs[i], &mut versions[i], &deltas);
                let expected = id_rows(&db.execute(spec).unwrap());
                let accumulated: Vec<Vec<u64>> = accs[i].keys().cloned().collect();
                assert_eq!(
                    accumulated, expected,
                    "{family}: round {round}, standing query {i} ({spec:?}) drifted \
                     from the from-scratch result"
                );
                // The engine's own maintained rows agree with the deltas.
                let (rows, _) = db.subscription_result(subs[i]).unwrap();
                let mut maintained: Vec<Vec<u64>> = rows.iter().map(|r| r.ids()).collect();
                maintained.sort_unstable();
                assert_eq!(maintained, accumulated, "{family}: round {round}");
            }
        }

        let metrics = db.store_metrics();
        assert!(
            metrics.compactions >= 1,
            "{family}: the stream must have forced background compactions ({metrics})"
        );
        assert!(
            metrics.cq_reevals >= 1,
            "{family}: writes at the focal region must have triggered re-evaluations"
        );
    }
}

#[test]
fn subscription_lifecycle_and_errors() {
    let mut db = Database::new();
    catalog(&mut db, "grid");
    let db = db;
    let spec = &standing_queries()[0];

    let id = db.subscribe(spec, None).unwrap();
    // The initial evaluation arrives as the first delta: all rows added.
    let deltas = db.poll(id).unwrap();
    assert_eq!(deltas.len(), 1);
    assert!(deltas[0].removed.is_empty());
    assert_eq!(
        deltas[0].added.len(),
        db.execute(spec).unwrap().num_rows(),
        "initial delta must carry the full first evaluation"
    );
    // Nothing changed since: poll drains to empty.
    assert!(db.poll(id).unwrap().is_empty());

    // An explicit strategy is honored; a mismatched one is rejected.
    let pinned = db
        .subscribe(
            spec,
            Some(two_knn::core::plan::Strategy::TwoSelects(
                two_knn::core::plan::TwoSelectsStrategy::Conceptual,
            )),
        )
        .unwrap();
    assert_ne!(pinned, id);
    assert!(matches!(
        db.subscribe(
            spec,
            Some(two_knn::core::plan::Strategy::Chained(
                two_knn::core::plan::ChainedStrategy::RightDeep
            )),
        ),
        Err(QueryError::UnsupportedPlanShape { .. })
    ));

    assert_eq!(db.subscription_count(), 2);
    db.unsubscribe(id).unwrap();
    assert_eq!(db.subscription_count(), 1);
    assert!(matches!(
        db.poll(id),
        Err(QueryError::UnknownSubscription { .. })
    ));
    assert!(matches!(
        db.unsubscribe(id),
        Err(QueryError::UnknownSubscription { .. })
    ));

    // Unknown relations surface at subscribe time.
    let missing = QuerySpec::TwoSelects {
        relation: "Nope".into(),
        query: TwoSelectsQuery::new(1, Point::anonymous(0.0, 0.0), 1, Point::anonymous(1.0, 1.0)),
    };
    assert!(matches!(
        db.subscribe(&missing, None),
        Err(QueryError::UnknownRelation { .. })
    ));
}

/// A wholesale relation replacement — including deregister-then-register,
/// which has no per-write positions to probe — must re-evaluate every
/// standing query on that name rather than leaving it stale behind guards
/// derived from the old data.
#[test]
fn reregistration_reevaluates_standing_queries() {
    let mut db = Database::new();
    catalog(&mut db, "grid");
    let spec = standing_queries()[0].clone(); // TwoSelects on Objects
    let sub = db.subscribe(&spec, None).unwrap();
    db.poll(sub).unwrap(); // drain the initial delta

    // Replace the relation with entirely fresh ids, via the deregister +
    // register path (register returns None — the gate must not be
    // `replaced.is_some()`).
    assert!(db.deregister("Objects").is_some());
    assert!(db
        .register(
            "Objects",
            GridIndex::build(scattered(600, 1_000_000, 9), 8).unwrap()
        )
        .is_none());
    db.pool().wait_idle();

    let deltas = db.poll(sub).unwrap();
    assert!(
        !deltas.is_empty(),
        "the replacement changed every row id — a delta must be emitted"
    );
    let (rows, _) = db.subscription_result(sub).unwrap();
    let mut maintained: Vec<Vec<u64>> = rows.iter().map(|r| r.ids()).collect();
    maintained.sort_unstable();
    assert_eq!(
        maintained,
        id_rows(&db.execute(&spec).unwrap()),
        "the standing query must track the re-registered relation"
    );
    assert!(maintained.iter().all(|ids| ids[0] >= 1_000_000));
}

/// Guard-tightness regression (satellite): a write burst far from every
/// focal point must be skipped by **every** subscription — `cq_skips`
/// advances by the full subscription count per batch, `cq_reevals` not at
/// all — pinning that guards stay tight under the partitioned overlay grid.
#[test]
fn far_write_burst_triggers_zero_reevaluations() {
    let pool = WorkerPool::new(available_threads());
    let mut db = Database::with_pool_and_store_config(
        pool,
        StoreConfig {
            // Compactions stay out of the picture: the burst lives in the
            // overlay grid, where PR 4's tight per-cell MBRs must keep the
            // guards' circle/expansion bounds effective.
            compaction_threshold: usize::MAX,
            ..StoreConfig::default()
        },
    );
    catalog(&mut db, "grid");
    let db = db;

    // Focal-bounded standing queries only (selects and a select-on-outer):
    // join shapes whose mutable relation is an outer side are legitimately
    // unbounded — any insert there creates rows.
    let mut specs = Vec::new();
    for i in 0..6u64 {
        let f = Point::anonymous(20.0 + i as f64 * 12.0, 25.0 + i as f64 * 11.0);
        specs.push(QuerySpec::TwoSelects {
            relation: "Objects".into(),
            query: TwoSelectsQuery::new(4, f, 16, Point::anonymous(f.y, f.x)),
        });
    }
    specs.push(QuerySpec::SelectOuterOfJoin {
        outer: "Objects".into(),
        inner: "Sites".into(),
        query: SelectOuterJoinQuery::new(2, 4, Point::anonymous(55.0, 55.0)),
    });
    let subs: Vec<SubscriptionId> = specs
        .iter()
        .map(|spec| db.subscribe(spec, None).unwrap())
        .collect();
    db.pool().wait_idle();
    for id in &subs {
        db.poll(*id).unwrap(); // drain the initial deltas
    }
    let before = db.store_metrics();

    // Three bursts far outside every guard circle: fresh inserts, moves
    // within the far region, and removes of far points.
    for round in 0..3u64 {
        let mut ops: Vec<WriteOp> = (0..200u64)
            .map(|i| {
                let h = (i + round * 1_000).wrapping_mul(0x9E3779B97F4A7C15);
                WriteOp::Upsert(Point::new(
                    900_000 + round * 1_000 + i,
                    700.0 + (h % 1_000) as f64 * 0.05,
                    700.0 + ((h / 1_000) % 1_000) as f64 * 0.05,
                ))
            })
            .collect();
        if round > 0 {
            ops.push(WriteOp::Remove(900_000 + (round - 1) * 1_000));
        }
        db.ingest("Objects", &ops).unwrap();
    }
    db.pool().wait_idle();

    let after = db.store_metrics();
    assert_eq!(
        after.cq_reevals - before.cq_reevals,
        0,
        "a far burst must not re-evaluate any standing query"
    );
    assert_eq!(
        after.cq_skips - before.cq_skips,
        3 * subs.len() as u64,
        "every batch must be guard-pruned for every subscription"
    );
    for id in &subs {
        assert!(
            db.poll(*id).unwrap().is_empty(),
            "no deltas may be emitted for unaffected subscriptions"
        );
    }

    // Sanity: a write **inside** a guard circle does re-evaluate — the
    // zero above is tightness, not a dead counter.
    db.ingest(
        "Objects",
        &[WriteOp::Upsert(Point::new(950_000, 20.0, 25.0))],
    )
    .unwrap();
    db.pool().wait_idle();
    let hit = db.store_metrics();
    assert!(
        hit.cq_reevals > after.cq_reevals,
        "a focal-region write must trigger at least one re-evaluation"
    );
}

/// The read-your-writes fence: once `sync` returns for the version an
/// ingest returned, every subscription's maintained result equals a fresh
/// execution — on any pool size, without `wait_idle`. A publish the guards
/// skip fences too; a version nobody publishes times out with a typed
/// error, and a dropped subscription is reported unknown.
#[test]
fn sync_fences_read_your_writes() {
    let pool = WorkerPool::new(available_threads());
    let mut db = Database::with_pool_and_store_config(
        pool,
        StoreConfig {
            compaction_threshold: 24,
            ..StoreConfig::default()
        },
    );
    catalog(&mut db, "grid");
    let db = db;
    let specs = standing_queries();
    let subs: Vec<SubscriptionId> = specs
        .iter()
        .map(|spec| db.subscribe(spec, None).unwrap())
        .collect();
    let timeout = Duration::from_secs(60);

    for round in 0..6u64 {
        let (_, version) = db.ingest("Objects", &mixed_batch(round)).unwrap();
        for (spec, id) in specs.iter().zip(&subs) {
            db.sync(*id, version, timeout).unwrap();
            let (rows, _) = db.subscription_result(*id).unwrap();
            let mut maintained: Vec<Vec<u64>> = rows.iter().map(|r| r.ids()).collect();
            maintained.sort_unstable();
            assert_eq!(
                maintained,
                id_rows(&db.execute(spec).unwrap()),
                "round {round}: {id} diverged after its fence"
            );
        }
    }

    // A far write the two-selects guard skips still fences.
    let (_, far) = db
        .ingest(
            "Objects",
            &[WriteOp::Upsert(Point::new(990_000, 700.0, 700.0))],
        )
        .unwrap();
    db.sync(subs[0], far, timeout).unwrap();

    assert!(matches!(
        db.sync(subs[0], far + 1_000, Duration::from_millis(20)),
        Err(QueryError::SyncTimeout { min_version, .. }) if min_version == far + 1_000
    ));
    db.unsubscribe(subs[0]).unwrap();
    assert!(matches!(
        db.sync(subs[0], far, timeout),
        Err(QueryError::UnknownSubscription { .. })
    ));
}
