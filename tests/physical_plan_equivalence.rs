//! Executor-level equivalence suite: every [`QuerySpec`] shape under every
//! [`Strategy`], on all three index types (grid, PR-quadtree, STR R-tree),
//! executed serially, over the shared persistent worker pool, and over an
//! explicit 4-thread pool — all combinations must return the identical
//! result set.
//! This is the contract the physical-operator layer must keep: the strategy
//! choice, the index structure and the execution mode are performance
//! knobs, never semantics knobs.
//!
//! With the `parallel` cargo feature enabled the pooled runs really fan out
//! over worker threads — the 4-thread leg partitions 4 ways whatever the
//! machine's core count; without it they fall back to serial, so the suite
//! passes in both configurations (trivially so in the second).

use std::collections::BTreeSet;

use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::plan::{
    ChainedStrategy, Database, QueryFilters, QueryResult, QuerySpec, RowSchema,
    SelectInnerStrategy, SelectOuterStrategy, SelectStrategy, Strategy, TwoSelectsStrategy,
    UnchainedStrategy,
};
use two_knn::core::select::KnnSelectQuery;
use two_knn::core::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::ExecutionMode;
use two_knn::datagen::{berlinmod, BerlinModConfig};
use two_knn::geometry::Predicate;
use two_knn::Rect;
use two_knn::{GridIndex, Point, QuadtreeIndex, StrRTree, WorkerPool};

/// The strategies available for each query shape.
fn strategies_for(spec: &QuerySpec) -> Vec<Strategy> {
    match spec {
        QuerySpec::SelectInnerOfJoin { .. } => vec![
            Strategy::SelectInner(SelectInnerStrategy::Conceptual),
            Strategy::SelectInner(SelectInnerStrategy::Counting),
            Strategy::SelectInner(SelectInnerStrategy::BlockMarking),
        ],
        QuerySpec::SelectOuterOfJoin { .. } => vec![
            Strategy::SelectOuter(SelectOuterStrategy::SelectAfterJoin),
            Strategy::SelectOuter(SelectOuterStrategy::Pushdown),
        ],
        QuerySpec::UnchainedJoins { .. } => vec![
            Strategy::Unchained(UnchainedStrategy::Conceptual),
            Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithA),
            Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithC),
        ],
        QuerySpec::ChainedJoins { .. } => vec![
            Strategy::Chained(ChainedStrategy::RightDeep),
            Strategy::Chained(ChainedStrategy::JoinIntersection),
            Strategy::Chained(ChainedStrategy::NestedJoin),
            Strategy::Chained(ChainedStrategy::NestedJoinCached),
        ],
        QuerySpec::TwoSelects { .. } => vec![
            Strategy::TwoSelects(TwoSelectsStrategy::Conceptual),
            Strategy::TwoSelects(TwoSelectsStrategy::TwoKnnSelect),
        ],
        QuerySpec::KnnSelect { .. } => vec![
            Strategy::Select(SelectStrategy::FilteredKernel),
            Strategy::Select(SelectStrategy::FilterThenScan),
        ],
        // A filtered wrapper compiles against the wrapped shape's strategy.
        QuerySpec::Filtered { spec, .. } => strategies_for(spec),
    }
}

/// Order-independent canonical form of a result.
fn id_set(result: &QueryResult) -> BTreeSet<Vec<u64>> {
    result.rows().iter().map(|r| r.ids()).collect()
}

fn points(n: usize, seed: u64) -> Vec<Point> {
    berlinmod(&BerlinModConfig::with_points(n, seed))
}

/// One catalog per index type, over the same three point sets.
fn databases() -> Vec<(&'static str, Database)> {
    let a = points(700, 41);
    let b = points(1_100, 42);
    let c = points(900, 43);

    let mut grid = Database::new();
    grid.register(
        "A",
        GridIndex::build_with_target_occupancy(a.clone(), 64).unwrap(),
    );
    grid.register(
        "B",
        GridIndex::build_with_target_occupancy(b.clone(), 64).unwrap(),
    );
    grid.register(
        "C",
        GridIndex::build_with_target_occupancy(c.clone(), 64).unwrap(),
    );

    let mut quad = Database::new();
    quad.register("A", QuadtreeIndex::build(a.clone(), 64).unwrap());
    quad.register("B", QuadtreeIndex::build(b.clone(), 64).unwrap());
    quad.register("C", QuadtreeIndex::build(c.clone(), 64).unwrap());

    let mut rtree = Database::new();
    rtree.register("A", StrRTree::build(a, 64).unwrap());
    rtree.register("B", StrRTree::build(b, 64).unwrap());
    rtree.register("C", StrRTree::build(c, 64).unwrap());

    vec![("grid", grid), ("quadtree", quad), ("str-rtree", rtree)]
}

fn specs() -> Vec<(QuerySpec, RowSchema)> {
    let focal = Point::anonymous(52_000.0, 49_000.0);
    vec![
        (
            QuerySpec::SelectInnerOfJoin {
                outer: "A".into(),
                inner: "B".into(),
                query: SelectInnerJoinQuery::new(3, 6, focal),
            },
            RowSchema::Pairs,
        ),
        (
            QuerySpec::SelectOuterOfJoin {
                outer: "A".into(),
                inner: "B".into(),
                query: SelectOuterJoinQuery::new(3, 5, focal),
            },
            RowSchema::Pairs,
        ),
        (
            QuerySpec::UnchainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: UnchainedJoinQuery::new(2, 3),
            },
            RowSchema::Triplets,
        ),
        (
            QuerySpec::ChainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: ChainedJoinQuery::new(2, 2),
            },
            RowSchema::Triplets,
        ),
        (
            QuerySpec::TwoSelects {
                relation: "B".into(),
                query: TwoSelectsQuery::new(8, focal, 64, Point::anonymous(48_500.0, 51_500.0)),
            },
            RowSchema::Points,
        ),
        (
            QuerySpec::KnnSelect {
                relation: "B".into(),
                query: KnnSelectQuery { k: 9, focal },
            },
            RowSchema::Points,
        ),
        // Filtered wrapper around a select: pre-filter (masked kernel or
        // filter-then-scan, both strategies above) plus a post residual.
        (
            QuerySpec::KnnSelect {
                relation: "B".into(),
                query: KnnSelectQuery { k: 12, focal },
            }
            .with_filters(
                QueryFilters::none()
                    .pre(
                        "B",
                        Predicate::InRect(Rect::new(45_000.0, 43_000.0, 57_000.0, 54_000.0)),
                    )
                    .post("B", Predicate::IdRange { lo: 0, hi: 800 }),
            ),
            RowSchema::Points,
        ),
        // Filtered wrapper around two selects: both TwoSelects strategies
        // route through the filtered conceptual intersection.
        (
            QuerySpec::TwoSelects {
                relation: "B".into(),
                query: TwoSelectsQuery::new(10, focal, 48, Point::anonymous(48_500.0, 51_500.0)),
            }
            .with_filters(QueryFilters::none().pre(
                "B",
                Predicate::InRect(Rect::new(45_000.0, 43_000.0, 57_000.0, 54_000.0)),
            )),
            RowSchema::Points,
        ),
    ]
}

/// The heart of the suite: for every index type, every query shape, every
/// strategy, serial and pooled execution (on the shared pool and on a
/// 4-thread pool) must all agree on the result set.
#[test]
fn every_strategy_and_mode_agrees_on_every_index() {
    let pools = [
        ("pooled on a 4-thread pool", WorkerPool::new(4)),
        ("pooled", WorkerPool::current()),
    ];
    for (index_name, db) in databases() {
        for (spec, schema) in specs() {
            let mut reference: Option<BTreeSet<Vec<u64>>> = None;
            for strategy in strategies_for(&spec) {
                let plan = db
                    .compile(&spec, strategy)
                    .unwrap_or_else(|e| panic!("{index_name}/{strategy}: {e}"));
                let serial = plan.execute(ExecutionMode::Serial);
                for (leg, pool) in &pools {
                    let par = pool.bind(|| plan.execute(ExecutionMode::Pooled));

                    // Serial and parallel agree exactly — rows and row order.
                    assert_eq!(
                        serial.rows(),
                        par.rows(),
                        "serial vs {leg} rows differ: {index_name}/{strategy}"
                    );
                }
                for row in serial.rows() {
                    assert_eq!(row.schema(), schema);
                }

                // Every strategy agrees with every other (order-independent).
                let ids = id_set(&serial);
                match &reference {
                    None => reference = Some(ids),
                    Some(expected) => assert_eq!(
                        &ids, expected,
                        "strategy disagreement: {index_name}/{strategy}"
                    ),
                }
            }
            assert!(
                reference.map(|r| !r.is_empty()).unwrap_or(false),
                "workload produced an empty result — the equivalence check would be vacuous \
                 ({index_name}/{spec:?})"
            );
        }
    }
}

/// Serial and pooled execution (on the shared pool and on a 4-thread pool)
/// must also report identical work counters for the schedule-independent
/// operators (all but the cached chained join, whose per-worker caches
/// legitimately change the hit pattern).
#[test]
fn parallel_metrics_merge_to_serial_totals() {
    let pools = [
        ("pooled on a 4-thread pool", WorkerPool::new(4)),
        ("pooled", WorkerPool::current()),
    ];
    let (_, db) = databases().remove(0);
    for (spec, _) in specs() {
        for strategy in strategies_for(&spec) {
            if strategy == Strategy::Chained(ChainedStrategy::NestedJoinCached) {
                continue;
            }
            let plan = db.compile(&spec, strategy).unwrap();
            let serial = plan.execute(ExecutionMode::Serial);
            for (leg, pool) in &pools {
                let par = pool.bind(|| plan.execute(ExecutionMode::Pooled));
                assert_eq!(
                    serial.metrics(),
                    par.metrics(),
                    "metrics diverge under {leg} execution: {strategy}"
                );
            }
        }
    }
}

/// `execute_batch` returns, in input order, exactly what per-query `execute`
/// returns.
#[test]
fn execute_batch_matches_individual_execution() {
    let (_, db) = databases().remove(0);
    let batch: Vec<QuerySpec> = specs().into_iter().map(|(s, _)| s).collect();
    let results = db.execute_batch(&batch);
    assert_eq!(results.len(), batch.len());
    for (spec, result) in batch.iter().zip(results) {
        let individual = db.execute(spec).unwrap();
        let batched = result.unwrap();
        assert_eq!(id_set(&batched), id_set(&individual), "{spec:?}");
        assert_eq!(batched.strategy(), individual.strategy());
    }
    // Errors surface per entry without failing the batch.
    let mixed = vec![
        batch[0].clone(),
        QuerySpec::TwoSelects {
            relation: "Missing".into(),
            query: TwoSelectsQuery::new(
                1,
                Point::anonymous(0.0, 0.0),
                1,
                Point::anonymous(1.0, 1.0),
            ),
        },
    ];
    let results = db.execute_batch(&mixed);
    assert!(results[0].is_ok());
    assert!(results[1].is_err());
}

/// Batch execution through an explicit tiny pool (parallelism 1 and 2) —
/// the degenerate thread budgets where nested batch-task → block-task
/// submission would deadlock or misbehave if pool scheduling were wrong —
/// must agree with per-query execution.
#[test]
fn execute_batch_agrees_on_tiny_explicit_pools() {
    use two_knn::WorkerPool;
    let a = points(700, 41);
    let b = points(1_100, 42);
    let c = points(900, 43);
    for parallelism in [1, 2] {
        let mut db = Database::with_pool(WorkerPool::new(parallelism));
        db.register(
            "A",
            GridIndex::build_with_target_occupancy(a.clone(), 64).unwrap(),
        );
        db.register(
            "B",
            GridIndex::build_with_target_occupancy(b.clone(), 64).unwrap(),
        );
        db.register(
            "C",
            GridIndex::build_with_target_occupancy(c.clone(), 64).unwrap(),
        );
        let batch: Vec<QuerySpec> = specs().into_iter().map(|(s, _)| s).collect();
        for (spec, result) in batch.iter().zip(db.execute_batch(&batch)) {
            let individual = db.execute(spec).unwrap();
            assert_eq!(
                id_set(&result.unwrap()),
                id_set(&individual),
                "pool parallelism {parallelism}: {spec:?}"
            );
        }
    }
}

/// The compile step exposes the plan without running it, and the explain
/// string names the operator.
#[test]
fn compiled_plans_expose_operator_metadata() {
    let (_, db) = databases().remove(0);
    for (spec, schema) in specs() {
        for strategy in strategies_for(&spec) {
            let plan = db.compile(&spec, strategy).unwrap();
            assert_eq!(plan.strategy(), strategy);
            assert_eq!(plan.schema(), schema);
            assert!(!plan.name().is_empty());
            assert!(plan.explain().contains(plan.name()));
        }
    }
}

/// Golden rendering of every compiled plan: for each `(spec, strategy)` pair
/// of [`specs`] × [`strategies_for`] (the 16 unfiltered strategies plus the
/// pre- and post-filtered specs), the operator name, detail string, row
/// schema and EXPLAIN line, verbatim. A refactor of the physical layer must
/// leave every one of them unchanged.
#[test]
fn compiled_plans_render_exactly_as_before() {
    const GOLDEN: &[(&str, &str, RowSchema, &str)] = &[
        (
            "select-inner-conceptual",
            "k_join=3 k_select=6 focal=(52000, 49000)",
            RowSchema::Pairs,
            "select-inner-conceptual [select-inner/Conceptual] -> Pairs",
        ),
        (
            "counting",
            "k_join=3 k_select=6 focal=(52000, 49000)",
            RowSchema::Pairs,
            "counting [select-inner/Counting] -> Pairs",
        ),
        (
            "block-marking",
            "k_join=3 k_select=6 focal=(52000, 49000)",
            RowSchema::Pairs,
            "block-marking [select-inner/BlockMarking] -> Pairs",
        ),
        (
            "outer-select-after-join",
            "k_join=3 k_select=5 focal=(52000, 49000)",
            RowSchema::Pairs,
            "outer-select-after-join [select-outer/SelectAfterJoin] -> Pairs",
        ),
        (
            "outer-pushdown",
            "k_join=3 k_select=5 focal=(52000, 49000)",
            RowSchema::Pairs,
            "outer-pushdown [select-outer/Pushdown] -> Pairs",
        ),
        (
            "unchained-conceptual",
            "k_ab=2 k_cb=3",
            RowSchema::Triplets,
            "unchained-conceptual [unchained/Conceptual] -> Triplets",
        ),
        (
            "unchained-block-marking(A⋈B first)",
            "k_ab=2 k_cb=3",
            RowSchema::Triplets,
            "unchained-block-marking(A⋈B first) [unchained/BlockMarkingStartWithA] -> Triplets",
        ),
        (
            "unchained-block-marking(C⋈B first)",
            "k_ab=2 k_cb=3",
            RowSchema::Triplets,
            "unchained-block-marking(C⋈B first) [unchained/BlockMarkingStartWithC] -> Triplets",
        ),
        (
            "chained-right-deep",
            "k_ab=2 k_bc=2",
            RowSchema::Triplets,
            "chained-right-deep [chained/RightDeep] -> Triplets",
        ),
        (
            "chained-join-intersection",
            "k_ab=2 k_bc=2",
            RowSchema::Triplets,
            "chained-join-intersection [chained/JoinIntersection] -> Triplets",
        ),
        (
            "chained-nested",
            "k_ab=2 k_bc=2",
            RowSchema::Triplets,
            "chained-nested [chained/NestedJoin] -> Triplets",
        ),
        (
            "chained-nested-cached",
            "k_ab=2 k_bc=2",
            RowSchema::Triplets,
            "chained-nested-cached [chained/NestedJoinCached] -> Triplets",
        ),
        (
            "two-selects-conceptual",
            "k1=8 f1=(52000, 49000) k2=64 f2=(48500, 51500)",
            RowSchema::Points,
            "two-selects-conceptual [two-selects/Conceptual] -> Points",
        ),
        (
            "2-knn-select",
            "k1=8 f1=(52000, 49000) k2=64 f2=(48500, 51500)",
            RowSchema::Points,
            "2-knn-select [two-selects/TwoKnnSelect] -> Points",
        ),
        (
            "knn-select",
            "k=9 focal=(52000, 49000)",
            RowSchema::Points,
            "knn-select [select/FilteredKernel] -> Points",
        ),
        (
            "knn-select-scan",
            "k=9 focal=(52000, 49000)",
            RowSchema::Points,
            "knn-select-scan [select/FilterThenScan] -> Points",
        ),
        (
            "residual-filter",
            "1 filtered roles",
            RowSchema::Points,
            "residual-filter(1 roles) <- knn-select [select/FilteredKernel] -> Points",
        ),
        (
            "residual-filter",
            "1 filtered roles",
            RowSchema::Points,
            "residual-filter(1 roles) <- knn-select-scan [select/FilterThenScan] -> Points",
        ),
        (
            "filtered-two-selects",
            "k1=10 f1=(52000, 49000) k2=48 f2=(48500, 51500) pre-filtered",
            RowSchema::Points,
            "filtered-two-selects [two-selects/Conceptual] -> Points",
        ),
        (
            "filtered-two-selects",
            "k1=10 f1=(52000, 49000) k2=48 f2=(48500, 51500) pre-filtered",
            RowSchema::Points,
            "filtered-two-selects [two-selects/TwoKnnSelect] -> Points",
        ),
    ];
    let (_, db) = databases().remove(0);
    let mut compiled = Vec::new();
    for (spec, _) in specs() {
        for strategy in strategies_for(&spec) {
            compiled.push(db.compile(&spec, strategy).unwrap());
        }
    }
    assert_eq!(compiled.len(), GOLDEN.len());
    for (plan, &(name, detail, schema, explain)) in compiled.iter().zip(GOLDEN) {
        assert_eq!(plan.name(), name);
        assert_eq!(plan.detail(), detail, "{name}");
        assert_eq!(plan.schema(), schema, "{name}");
        assert_eq!(plan.explain(), explain, "{name}");
    }
}
