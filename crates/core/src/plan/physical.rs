//! The physical layer: compiled, executable plans.
//!
//! The planning pipeline is
//!
//! ```text
//! QuerySpec ──(Optimizer)──► Strategy ──(compile)──► PhysicalPlan ──(execute)──► QueryResult
//! ```
//!
//! [`compile`] resolves a [`QuerySpec`]'s relation names against a pinned
//! [`DbSnapshot`] and pairs them with a [`Strategy`] into one
//! [`PhysicalPlan`]: an [`Op`] (one variant per query shape of the paper,
//! carrying that shape's own strategy enum) plus the post-kNN residual
//! filters. Each strategy runs one operator:
//!
//! | [`Op`] variant | Operators (one per strategy) | Paper |
//! |---|---|---|
//! | [`Op::SelectInner`] | `select-inner-conceptual`, `counting`, `block-marking` | Figure 1, Procedures 1–3 |
//! | [`Op::SelectOuter`] | `outer-select-after-join`, `outer-pushdown` | Figure 3 |
//! | [`Op::Unchained`] | `unchained-conceptual`, `unchained-block-marking(A⋈B first)`, `unchained-block-marking(C⋈B first)` | Section 4.1 |
//! | [`Op::Chained`] | `chained-right-deep`, `chained-join-intersection`, `chained-nested`, `chained-nested-cached` | Section 4.2 |
//! | [`Op::TwoSelects`] | `two-selects-conceptual`, `2-knn-select`; `filtered-two-selects` under a pre-filter | Section 5 |
//! | [`Op::Select`] | `knn-select`, `knn-select-scan` | — |
//!
//! A [`QuerySpec::Filtered`] spec compiles through [`compile`]'s filter
//! path: **pre**-kNN filters either become the select variants' predicate
//! (single select: the masked kernel; two selects: the filtered conceptual
//! intersection) or materialize a filtered copy of the relation the join
//! shape is compiled against (join outer roles). Pre-filters on a join's
//! *inner* role are rejected with [`QueryError::InvalidTransformation`] —
//! they change every neighborhood, the same Figure 2 argument that forbids
//! pushing a select below a join's inner relation. **Post**-kNN filters
//! land in [`PhysicalPlan::post`] and prune finished rows by component;
//! `EXPLAIN` and traces show them as a `residual-filter` node whose only
//! child is the operator.
//!
//! A plan knows its [`Strategy`], its output [`RowSchema`], and how to
//! [`PhysicalPlan::execute`] under a given [`ExecutionMode`] — serially or
//! partitioned over the shared persistent worker pool (`Pooled`, the
//! default). Plans hold their relations as [`Relation`] (shared-ownership
//! snapshot handles), so a compiled plan stays valid — and keeps observing
//! the exact version it was compiled against — no matter what ingest or
//! compaction publish afterwards. Adding an algorithm means adding a
//! strategy to its shape's enum and an arm to each `match` on [`Op`]; the
//! driver ([`Database::execute`](crate::plan::Database::execute)) never
//! changes.

use std::sync::Arc;
use std::time::Instant;

use twoknn_geometry::{Point, Predicate};
use twoknn_index::{brute_force_knn_filtered, GridIndex, Metrics, SpatialIndex};

use crate::error::QueryError;
use crate::exec::{run_partitioned, ExecutionMode};
use crate::joins2::{
    chained_join_intersection_with_mode, chained_nested_cached_with_mode, chained_nested_with_mode,
    chained_right_deep_with_mode, unchained_block_marking_with_mode,
    unchained_conceptual_with_mode, ChainedJoinQuery, UnchainedJoinQuery,
};
use crate::obs::OpTrace;
use crate::output::{Pair, QueryOutput, Triplet};
use crate::plan::executor::{QueryFilters, QueryResult, QuerySpec};
use crate::plan::strategy::{
    ChainedStrategy, SelectInnerStrategy, SelectOuterStrategy, SelectStrategy, Strategy,
    TwoSelectsStrategy, UnchainedStrategy,
};
use crate::select::{knn_select_filtered, knn_select_filtered_neighborhood, KnnSelectQuery};
use crate::select_join::{
    block_marking_with_mode, conceptual_with_mode, counting_with_mode,
    select_on_outer_after_join_with_mode, select_on_outer_pushdown, BlockMarkingConfig,
    SelectInnerJoinQuery, SelectOuterJoinQuery,
};
use crate::selects2::{
    intersect_output, two_knn_select, two_selects_conceptual_with_mode, TwoSelectsQuery,
};
use crate::store::DbSnapshot;

/// A shared handle to one pinned, immutable version of an indexed relation.
///
/// Plans hold `Relation`s rather than borrows so compiled plans own their
/// inputs: the snapshot a plan was compiled against stays alive (and
/// frozen) for as long as the plan does, independent of concurrent catalog
/// mutation, ingest, or compaction.
pub type Relation = Arc<dyn SpatialIndex + Send + Sync>;

/// The row type a physical plan produces.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowSchema {
    /// `(outer, inner)` pairs — select + join queries.
    Pairs,
    /// `(a, b, c)` triplets — two-join queries.
    Triplets,
    /// Single points — two-select queries.
    Points,
}

/// One output row of a physical plan, tagged by its type.
///
/// [`QueryResult::rows`] flattens any result into this shape so generic
/// drivers (servers, REPLs, test harnesses) can consume every query shape
/// through one type.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Row {
    /// A pair row.
    Pair(Pair),
    /// A triplet row.
    Triplet(Triplet),
    /// A point row.
    Point(Point),
}

impl Row {
    /// The schema this row belongs to.
    pub fn schema(&self) -> RowSchema {
        match self {
            Row::Pair(_) => RowSchema::Pairs,
            Row::Triplet(_) => RowSchema::Triplets,
            Row::Point(_) => RowSchema::Points,
        }
    }

    /// The ids of the row's components, in relation order.
    pub fn ids(&self) -> Vec<u64> {
        match self {
            Row::Pair(p) => vec![p.left.id, p.right.id],
            Row::Triplet(t) => vec![t.a.id, t.b.id, t.c.id],
            Row::Point(p) => vec![p.id],
        }
    }
}

/// One query shape bound to its pinned relations, its parameters and the
/// shape's own strategy — so a strategy that does not fit the shape cannot
/// be built.
pub enum Op {
    /// A kNN-select on the inner relation of a kNN-join (Section 3).
    SelectInner {
        /// The outer relation `E1`.
        outer: Relation,
        /// The inner relation `E2`.
        inner: Relation,
        /// Query parameters.
        query: SelectInnerJoinQuery,
        /// Conceptual QEP, Counting or Block-Marking.
        strategy: SelectInnerStrategy,
    },
    /// A kNN-select on the outer relation of a kNN-join (Figure 3).
    SelectOuter {
        /// The outer relation `E1`.
        outer: Relation,
        /// The inner relation `E2`.
        inner: Relation,
        /// Query parameters.
        query: SelectOuterJoinQuery,
        /// The valid pushdown, or the reference select-after-join plan.
        strategy: SelectOuterStrategy,
    },
    /// Two unchained kNN-joins `(A ⋈ B) ∩_B (C ⋈ B)` (Section 4.1).
    Unchained {
        /// Relation `A`.
        a: Relation,
        /// The shared inner relation `B`.
        b: Relation,
        /// Relation `C`.
        c: Relation,
        /// Query parameters.
        query: UnchainedJoinQuery,
        /// Which evaluation order / algorithm to run.
        strategy: UnchainedStrategy,
    },
    /// Two chained kNN-joins `A → B → C` (Section 4.2).
    Chained {
        /// Relation `A`.
        a: Relation,
        /// The middle relation `B`.
        b: Relation,
        /// Relation `C`.
        c: Relation,
        /// Query parameters.
        query: ChainedJoinQuery,
        /// Which of the equivalent QEPs to run.
        strategy: ChainedStrategy,
    },
    /// Two kNN-selects over one relation (Section 5).
    TwoSelects {
        /// The relation both selects run against.
        relation: Relation,
        /// Query parameters.
        query: TwoSelectsQuery,
        /// The pre-kNN filter both selects apply; [`Predicate::True`] when
        /// unfiltered. Any other predicate forces the filtered conceptual
        /// intersection (Procedure 5's bounded locality is not established
        /// under filtering), and `strategy` is then only reported.
        predicate: Predicate,
        /// Which of the two equivalent QEPs to run.
        strategy: TwoSelectsStrategy,
    },
    /// A single kNN-select `σ_{k,f}(E)`, optionally restricted to the
    /// points matching a pre-kNN predicate: "the k nearest *matching*
    /// points".
    Select {
        /// The relation the select runs against.
        relation: Relation,
        /// Query parameters.
        query: KnnSelectQuery,
        /// The pre-kNN filter; [`Predicate::True`] for the unfiltered select.
        predicate: Predicate,
        /// Masked kernel, or the scan-then-filter baseline.
        strategy: SelectStrategy,
    },
}

impl Op {
    /// Short operator name, e.g. `"block-marking"`.
    pub fn name(&self) -> &'static str {
        match self {
            Op::SelectInner { strategy, .. } => match strategy {
                SelectInnerStrategy::Conceptual => "select-inner-conceptual",
                SelectInnerStrategy::Counting => "counting",
                SelectInnerStrategy::BlockMarking => "block-marking",
            },
            Op::SelectOuter { strategy, .. } => match strategy {
                SelectOuterStrategy::Pushdown => "outer-pushdown",
                SelectOuterStrategy::SelectAfterJoin => "outer-select-after-join",
            },
            Op::Unchained { strategy, .. } => match strategy {
                UnchainedStrategy::Conceptual => "unchained-conceptual",
                UnchainedStrategy::BlockMarkingStartWithA => "unchained-block-marking(A⋈B first)",
                UnchainedStrategy::BlockMarkingStartWithC => "unchained-block-marking(C⋈B first)",
            },
            Op::Chained { strategy, .. } => match strategy {
                ChainedStrategy::RightDeep => "chained-right-deep",
                ChainedStrategy::JoinIntersection => "chained-join-intersection",
                ChainedStrategy::NestedJoin => "chained-nested",
                ChainedStrategy::NestedJoinCached => "chained-nested-cached",
            },
            Op::TwoSelects { predicate, .. } if !matches!(predicate, Predicate::True) => {
                "filtered-two-selects"
            }
            Op::TwoSelects { strategy, .. } => match strategy {
                TwoSelectsStrategy::Conceptual => "two-selects-conceptual",
                TwoSelectsStrategy::TwoKnnSelect => "2-knn-select",
            },
            Op::Select { strategy, .. } => match strategy {
                SelectStrategy::FilteredKernel => "knn-select",
                SelectStrategy::FilterThenScan => "knn-select-scan",
            },
        }
    }

    /// The strategy this operator implements.
    pub fn strategy(&self) -> Strategy {
        match self {
            Op::SelectInner { strategy, .. } => Strategy::SelectInner(*strategy),
            Op::SelectOuter { strategy, .. } => Strategy::SelectOuter(*strategy),
            Op::Unchained { strategy, .. } => Strategy::Unchained(*strategy),
            Op::Chained { strategy, .. } => Strategy::Chained(*strategy),
            Op::TwoSelects { strategy, .. } => Strategy::TwoSelects(*strategy),
            Op::Select { strategy, .. } => Strategy::Select(*strategy),
        }
    }

    /// The row type the operator produces.
    pub fn schema(&self) -> RowSchema {
        match self {
            Op::SelectInner { .. } | Op::SelectOuter { .. } => RowSchema::Pairs,
            Op::Unchained { .. } | Op::Chained { .. } => RowSchema::Triplets,
            Op::TwoSelects { .. } | Op::Select { .. } => RowSchema::Points,
        }
    }

    /// Operator-specific parameters for `EXPLAIN` output (`k=…`).
    pub fn detail(&self) -> String {
        let pre_filtered = |predicate: &Predicate| {
            if matches!(predicate, Predicate::True) {
                ""
            } else {
                " pre-filtered"
            }
        };
        match self {
            Op::SelectInner { query, .. } => format!(
                "k_join={} k_select={} focal=({}, {})",
                query.k_join, query.k_select, query.focal.x, query.focal.y
            ),
            Op::SelectOuter { query, .. } => format!(
                "k_join={} k_select={} focal=({}, {})",
                query.k_join, query.k_select, query.focal.x, query.focal.y
            ),
            Op::Unchained { query, .. } => format!("k_ab={} k_cb={}", query.k_ab, query.k_cb),
            Op::Chained { query, .. } => format!("k_ab={} k_bc={}", query.k_ab, query.k_bc),
            Op::TwoSelects {
                query, predicate, ..
            } => format!(
                "k1={} f1=({}, {}) k2={} f2=({}, {}){}",
                query.k1,
                query.f1.x,
                query.f1.y,
                query.k2,
                query.f2.x,
                query.f2.y,
                pre_filtered(predicate)
            ),
            Op::Select {
                query, predicate, ..
            } => format!(
                "k={} focal=({}, {}){}",
                query.k,
                query.focal.x,
                query.focal.y,
                pre_filtered(predicate)
            ),
        }
    }

    /// Runs the operator.
    pub fn execute(&self, mode: ExecutionMode) -> QueryResult {
        let strategy = self.strategy();
        match self {
            Op::SelectInner {
                outer,
                inner,
                query,
                strategy: s,
            } => {
                let (outer, inner) = (&**outer, &**inner);
                let output = match s {
                    SelectInnerStrategy::Conceptual => {
                        conceptual_with_mode(outer, inner, query, mode)
                    }
                    SelectInnerStrategy::Counting => counting_with_mode(outer, inner, query, mode),
                    SelectInnerStrategy::BlockMarking => block_marking_with_mode(
                        outer,
                        inner,
                        query,
                        &BlockMarkingConfig::default(),
                        mode,
                    ),
                };
                QueryResult::Pairs { output, strategy }
            }
            Op::SelectOuter {
                outer,
                inner,
                query,
                strategy: s,
            } => {
                let output = match s {
                    // The pushdown only ever joins the kσ selected points; it
                    // is already the cheap plan and runs serially.
                    SelectOuterStrategy::Pushdown => {
                        select_on_outer_pushdown(&**outer, &**inner, query)
                    }
                    SelectOuterStrategy::SelectAfterJoin => {
                        select_on_outer_after_join_with_mode(&**outer, &**inner, query, mode)
                    }
                };
                QueryResult::Pairs { output, strategy }
            }
            Op::Unchained {
                a,
                b,
                c,
                query,
                strategy: s,
            } => {
                let (a, b, c) = (&**a, &**b, &**c);
                let output = match s {
                    UnchainedStrategy::Conceptual => {
                        unchained_conceptual_with_mode(a, b, c, query, mode)
                    }
                    UnchainedStrategy::BlockMarkingStartWithA => {
                        unchained_block_marking_with_mode(a, b, c, query, mode)
                    }
                    UnchainedStrategy::BlockMarkingStartWithC => {
                        // Start with (C ⋈ B): swap the roles of A and C, then
                        // swap the components back in the emitted triplets.
                        let swapped = UnchainedJoinQuery::new(query.k_cb, query.k_ab);
                        let out = unchained_block_marking_with_mode(c, b, a, &swapped, mode);
                        QueryOutput::new(
                            out.rows
                                .into_iter()
                                .map(|t| Triplet::new(t.c, t.b, t.a))
                                .collect(),
                            out.metrics,
                        )
                    }
                };
                QueryResult::Triplets { output, strategy }
            }
            Op::Chained {
                a,
                b,
                c,
                query,
                strategy: s,
            } => {
                let (a, b, c) = (&**a, &**b, &**c);
                let output = match s {
                    ChainedStrategy::RightDeep => {
                        chained_right_deep_with_mode(a, b, c, query, mode)
                    }
                    ChainedStrategy::JoinIntersection => {
                        chained_join_intersection_with_mode(a, b, c, query, mode)
                    }
                    ChainedStrategy::NestedJoin => chained_nested_with_mode(a, b, c, query, mode),
                    ChainedStrategy::NestedJoinCached => {
                        chained_nested_cached_with_mode(a, b, c, query, mode)
                    }
                };
                QueryResult::Triplets { output, strategy }
            }
            Op::TwoSelects {
                relation,
                query,
                predicate,
                strategy: s,
            } => {
                let output = match s {
                    _ if !matches!(predicate, Predicate::True) => {
                        filtered_two_selects(&**relation, query, predicate, mode)
                    }
                    // The conceptual QEP's two selects are independent: under
                    // a parallel mode each runs as its own task.
                    TwoSelectsStrategy::Conceptual => {
                        two_selects_conceptual_with_mode(&**relation, query, mode)
                    }
                    // The 2-kNN-select algorithm is inherently sequential (the
                    // second locality is bounded by the first select's
                    // result); batch-level parallelism covers the many-query
                    // case.
                    TwoSelectsStrategy::TwoKnnSelect => two_knn_select(&**relation, query),
                };
                QueryResult::Points { output, strategy }
            }
            // A single select is one neighborhood computation — inherently
            // sequential; batch-level parallelism covers the many-query case.
            Op::Select {
                relation,
                query,
                predicate,
                strategy: s,
            } => {
                let output = match s {
                    SelectStrategy::FilteredKernel => {
                        knn_select_filtered(&**relation, &query.focal, query.k, predicate)
                    }
                    SelectStrategy::FilterThenScan => {
                        filter_then_scan(&**relation, query, predicate)
                    }
                };
                QueryResult::Points { output, strategy }
            }
        }
    }
}

/// Two kNN-selects under one **pre-kNN** filter: both filtered selects run
/// in full through the masked kernel and their results intersect — the
/// conceptual QEP of Figure 16 made filter-aware.
fn filtered_two_selects(
    relation: &(dyn SpatialIndex + Send + Sync),
    query: &TwoSelectsQuery,
    predicate: &Predicate,
    mode: ExecutionMode,
) -> QueryOutput<Point> {
    let mut metrics = Metrics::default();
    let predicates = [(query.k1, query.f1), (query.k2, query.f2)];
    let mut neighborhoods = run_partitioned(
        &predicates,
        mode,
        &mut metrics,
        |(k, focal), out, metrics| {
            out.push(knn_select_filtered_neighborhood(
                relation, focal, *k, predicate, metrics,
            ));
        },
    );
    let nbr2 = neighborhoods.pop().expect("two predicates evaluated");
    let nbr1 = neighborhoods.pop().expect("two predicates evaluated");
    intersect_output(&nbr1, &nbr2, metrics)
}

/// The scan-then-filter select baseline: reads and ranks every point, and
/// its counters reflect that, which is what `ablation_filter` compares.
fn filter_then_scan(
    relation: &(dyn SpatialIndex + Send + Sync),
    query: &KnnSelectQuery,
    predicate: &Predicate,
) -> QueryOutput<Point> {
    let mut metrics = Metrics::default();
    metrics.neighborhoods_computed += 1;
    let n = relation.num_points() as u64;
    metrics.points_scanned += n;
    metrics.distance_computations += n;
    let nbr = brute_force_knn_filtered(relation, &query.focal, query.k, predicate);
    let rows: Vec<Point> = nbr.points().copied().collect();
    metrics.tuples_emitted += rows.len() as u64;
    QueryOutput::new(rows, metrics)
}

/// An executable physical plan: one [`Op`] bound to its relations, plus
/// the post-kNN residual filters over its rows, ready to run under any
/// [`ExecutionMode`].
pub struct PhysicalPlan {
    /// The operator producing the rows.
    pub op: Op,
    /// Post-kNN residual filters as `(role index, predicate)` pairs,
    /// resolved against the row components in relation-role order (pair:
    /// `0 = outer`, `1 = inner`; triplet: `0 = a`, `1 = b`, `2 = c`; point:
    /// `0`). A row is kept when every filtered component matches. Empty for
    /// an unfiltered plan.
    pub post: Vec<(usize, Predicate)>,
}

/// The name of the node a non-empty [`PhysicalPlan::post`] adds above the
/// operator in `EXPLAIN` output and traces.
const RESIDUAL_FILTER: &str = "residual-filter";

impl PhysicalPlan {
    /// The root operator's name: `"residual-filter"` when the plan has
    /// post-kNN filters, the [`Op`]'s name otherwise.
    pub fn name(&self) -> &'static str {
        if self.post.is_empty() {
            self.op.name()
        } else {
            RESIDUAL_FILTER
        }
    }

    /// The strategy the plan implements.
    pub fn strategy(&self) -> Strategy {
        self.op.strategy()
    }

    /// The row type the plan produces.
    pub fn schema(&self) -> RowSchema {
        self.op.schema()
    }

    /// The root operator's parameters for `EXPLAIN` output.
    pub fn detail(&self) -> String {
        if self.post.is_empty() {
            self.op.detail()
        } else {
            format!("{} filtered roles", self.post.len())
        }
    }

    /// Runs the plan.
    pub fn execute(&self, mode: ExecutionMode) -> QueryResult {
        self.apply_post(self.op.execute(mode))
    }

    /// Runs the plan with a per-operator trace: wall time, rows emitted,
    /// and the [`Metrics`] delta of each operator, the residual filter (if
    /// any) above the operator. The root trace's `inclusive` equals
    /// `result.metrics()` exactly.
    pub fn execute_traced(&self, mode: ExecutionMode) -> (QueryResult, OpTrace) {
        let start = Instant::now();
        let result = self.op.execute(mode);
        let op = OpTrace {
            name: self.op.name(),
            strategy: self.strategy(),
            rows: result.num_rows(),
            wall: start.elapsed(),
            inclusive: result.metrics(),
            children: Vec::new(),
        };
        if self.post.is_empty() {
            return (result, op);
        }
        let result = self.apply_post(result);
        let trace = OpTrace {
            name: RESIDUAL_FILTER,
            strategy: self.strategy(),
            rows: result.num_rows(),
            wall: start.elapsed(),
            inclusive: result.metrics(),
            children: vec![op],
        };
        (result, trace)
    }

    /// A one-line, EXPLAIN-style description of the plan.
    pub fn explain(&self) -> String {
        let op = format!(
            "{} [{}] -> {:?}",
            self.op.name(),
            self.strategy(),
            self.schema()
        );
        if self.post.is_empty() {
            op
        } else {
            format!("{RESIDUAL_FILTER}({} roles) <- {op}", self.post.len())
        }
    }

    /// Keeps only the rows whose filtered components match the post-kNN
    /// filters, resetting `tuples_emitted` to the surviving row count. A
    /// plan without post filters returns its operator's result untouched.
    fn apply_post(&self, result: QueryResult) -> QueryResult {
        if self.post.is_empty() {
            return result;
        }
        let keep = |components: &[&Point]| {
            self.post
                .iter()
                .all(|(idx, predicate)| predicate.matches_point(components[*idx]))
        };
        match result {
            QueryResult::Pairs {
                mut output,
                strategy,
            } => {
                output.rows.retain(|p| keep(&[&p.left, &p.right]));
                output.metrics.tuples_emitted = output.rows.len() as u64;
                QueryResult::Pairs { output, strategy }
            }
            QueryResult::Triplets {
                mut output,
                strategy,
            } => {
                output.rows.retain(|t| keep(&[&t.a, &t.b, &t.c]));
                output.metrics.tuples_emitted = output.rows.len() as u64;
                QueryResult::Triplets { output, strategy }
            }
            QueryResult::Points {
                mut output,
                strategy,
            } => {
                output.rows.retain(|p| keep(&[p]));
                output.metrics.tuples_emitted = output.rows.len() as u64;
                QueryResult::Points { output, strategy }
            }
        }
    }
}

/// Compiles a `(spec, strategy)` pair into an executable plan, resolving
/// relation names against a pinned [`DbSnapshot`].
///
/// The returned plan holds shared handles to the snapshot's relation
/// versions, so it is `'static`: it outlives the `DbSnapshot` it was
/// resolved from and keeps observing exactly those versions even while
/// ingest and compaction publish newer ones.
///
/// # Errors
///
/// [`QueryError::UnknownRelation`] for unresolved names, and
/// [`QueryError::UnsupportedPlanShape`] when the strategy family does not
/// match the query shape.
pub fn compile(
    snapshot: &DbSnapshot,
    spec: &QuerySpec,
    strategy: Strategy,
) -> Result<PhysicalPlan, QueryError> {
    match spec {
        QuerySpec::Filtered { spec, filters } => {
            compile_filtered(snapshot, spec, filters, strategy)
        }
        _ => Ok(PhysicalPlan {
            op: compile_op(snapshot, spec, strategy, &QueryFilters::none())?,
            post: Vec::new(),
        }),
    }
}

/// Builds the [`Op`] of a filter-free shape, applying the **pre**-kNN
/// filters in `filters`: a select shape takes its relation's filter as its
/// predicate; a join shape is compiled against a filtered copy of each
/// pre-filtered (outer) relation.
fn compile_op(
    snapshot: &DbSnapshot,
    spec: &QuerySpec,
    strategy: Strategy,
    filters: &QueryFilters,
) -> Result<Op, QueryError> {
    let pre = |name: &str| filters.pre.get(name).cloned().unwrap_or(Predicate::True);
    let base = |name: &str| -> Result<Relation, QueryError> {
        Ok(Arc::clone(snapshot.snapshot(name)?) as Relation)
    };
    let pin = |name: &str| -> Result<Relation, QueryError> {
        match pre(name) {
            Predicate::True => base(name),
            predicate => materialize_filtered(&base(name)?, &predicate),
        }
    };
    Ok(match (spec, strategy) {
        (
            QuerySpec::SelectInnerOfJoin {
                outer,
                inner,
                query,
            },
            Strategy::SelectInner(strategy),
        ) => Op::SelectInner {
            outer: pin(outer)?,
            inner: pin(inner)?,
            query: *query,
            strategy,
        },
        (
            QuerySpec::SelectOuterOfJoin {
                outer,
                inner,
                query,
            },
            Strategy::SelectOuter(strategy),
        ) => Op::SelectOuter {
            outer: pin(outer)?,
            inner: pin(inner)?,
            query: *query,
            strategy,
        },
        (QuerySpec::UnchainedJoins { a, b, c, query }, Strategy::Unchained(strategy)) => {
            Op::Unchained {
                a: pin(a)?,
                b: pin(b)?,
                c: pin(c)?,
                query: *query,
                strategy,
            }
        }
        (QuerySpec::ChainedJoins { a, b, c, query }, Strategy::Chained(strategy)) => Op::Chained {
            a: pin(a)?,
            b: pin(b)?,
            c: pin(c)?,
            query: *query,
            strategy,
        },
        (QuerySpec::TwoSelects { relation, query }, Strategy::TwoSelects(strategy)) => {
            Op::TwoSelects {
                relation: base(relation)?,
                query: *query,
                predicate: pre(relation),
                strategy,
            }
        }
        (QuerySpec::KnnSelect { relation, query }, Strategy::Select(strategy)) => Op::Select {
            relation: base(relation)?,
            query: query.clone(),
            predicate: pre(relation),
            strategy,
        },
        (spec, strategy) => {
            return Err(QueryError::UnsupportedPlanShape {
                description: format!("strategy {strategy} does not match query {spec:?}"),
            })
        }
    })
}

/// Compiles a [`QuerySpec::Filtered`] query: validates filter placement,
/// threads pre-kNN filters into the wrapped shape's [`Op`], and resolves
/// post-kNN filters into [`PhysicalPlan::post`].
fn compile_filtered(
    snapshot: &DbSnapshot,
    inner: &QuerySpec,
    filters: &QueryFilters,
    strategy: Strategy,
) -> Result<PhysicalPlan, QueryError> {
    if matches!(inner, QuerySpec::Filtered { .. }) {
        return Err(QueryError::UnsupportedPlanShape {
            description: "nested Filtered query specs are not supported; merge the filters \
                          into one wrapper"
                .into(),
        });
    }
    validate_filter_placement(inner, filters)?;
    let op = compile_op(snapshot, inner, strategy, filters)?;
    // Post-filters resolve to role indices against the row components: a
    // relation playing several roles is filtered in every one of them.
    let roles = inner.relations();
    let mut post: Vec<(usize, Predicate)> = Vec::new();
    for (name, predicate) in &filters.post {
        if matches!(predicate, Predicate::True) {
            continue;
        }
        for (idx, role) in roles.iter().enumerate() {
            if role == name {
                post.push((idx, predicate.clone()));
            }
        }
    }
    Ok(PhysicalPlan { op, post })
}

/// Checks that every filtered relation name exists in the wrapped shape and
/// that no **pre**-kNN filter lands on a role where the pushdown would
/// change the query's answer — the inner relation of any kNN-join
/// (Section 3, Figure 2: filtering the inner side changes every outer
/// point's neighborhood, so rows the unfiltered query never produced would
/// appear). Post-filters are valid on every role.
fn validate_filter_placement(inner: &QuerySpec, filters: &QueryFilters) -> Result<(), QueryError> {
    let roles = inner.relations();
    for name in filters.pre.keys().chain(filters.post.keys()) {
        if !roles.iter().any(|role| role == name) {
            return Err(QueryError::UnknownRelation { name: name.clone() });
        }
    }
    // Role names playing a join-inner part, per shape. A name listed here
    // refuses pre-filters even if it also plays an outer role (same
    // relation joined against itself): the inner occurrence taints it.
    let join_inner_roles: Vec<&str> = match inner {
        QuerySpec::SelectInnerOfJoin { inner, .. } | QuerySpec::SelectOuterOfJoin { inner, .. } => {
            vec![inner]
        }
        QuerySpec::UnchainedJoins { b, .. } => vec![b],
        QuerySpec::ChainedJoins { b, c, .. } => vec![b, c],
        QuerySpec::TwoSelects { .. } | QuerySpec::KnnSelect { .. } => vec![],
        QuerySpec::Filtered { .. } => unreachable!("nesting rejected before validation"),
    };
    for (name, predicate) in &filters.pre {
        if matches!(predicate, Predicate::True) {
            continue;
        }
        if join_inner_roles.iter().any(|role| role == name) {
            return Err(QueryError::InvalidTransformation {
                reason: format!(
                    "cannot apply a pre-kNN filter to `{name}`: it is the inner relation of \
                     a kNN-join, and filtering it changes every outer point's neighborhood \
                     (Section 3 of the paper). Apply the filter to the join's output instead \
                     (post placement)."
                ),
            });
        }
    }
    Ok(())
}

/// Materializes the subset of `base` matching `predicate` as a fresh
/// [`GridIndex`] over the **base relation's bounds** (so MINDIST geometry
/// stays comparable), sized for ~64 points per occupied block. An empty
/// match is fine — the downstream operators already handle relations with
/// fewer points than `k`.
fn materialize_filtered(base: &Relation, predicate: &Predicate) -> Result<Relation, QueryError> {
    let points: Vec<Point> = base
        .all_points()
        .into_iter()
        .filter(|p| predicate.matches_point(p))
        .collect();
    let cells = ((points.len() as f64 / 64.0).sqrt().ceil() as usize).max(1);
    let index = GridIndex::build_with_bounds(points, base.bounds(), cells).map_err(|err| {
        QueryError::UnsupportedPlanShape {
            description: format!("cannot materialize filtered relation: {err}"),
        }
    })?;
    Ok(Arc::new(index) as Relation)
}

#[cfg(test)]
mod tests {
    use super::*;
    use twoknn_index::GridIndex;

    fn scattered(n: usize, seed: u64) -> Vec<Point> {
        (0..n)
            .map(|i| {
                let h = (i as u64).wrapping_mul(0x2545F4914F6CDD1D) ^ seed;
                Point::new(
                    i as u64,
                    (h % 499) as f64 * 0.2,
                    ((h / 499) % 499) as f64 * 0.2,
                )
            })
            .collect()
    }

    fn db() -> crate::plan::Database {
        let mut db = crate::plan::Database::new();
        db.register("A", GridIndex::build(scattered(120, 1), 8).unwrap());
        db.register("B", GridIndex::build(scattered(250, 2), 8).unwrap());
        db.register("C", GridIndex::build(scattered(140, 3), 8).unwrap());
        db
    }

    #[test]
    fn compile_produces_the_matching_operator() {
        let db = db();
        let spec = QuerySpec::SelectInnerOfJoin {
            outer: "A".into(),
            inner: "B".into(),
            query: SelectInnerJoinQuery::new(2, 3, Point::anonymous(30.0, 40.0)),
        };
        for (s, name) in [
            (SelectInnerStrategy::Counting, "counting"),
            (SelectInnerStrategy::BlockMarking, "block-marking"),
            (SelectInnerStrategy::Conceptual, "select-inner-conceptual"),
        ] {
            let plan = compile(&db.snapshot(), &spec, Strategy::SelectInner(s)).unwrap();
            assert_eq!(plan.name(), name);
            assert_eq!(plan.schema(), RowSchema::Pairs);
            assert_eq!(plan.strategy(), Strategy::SelectInner(s));
            assert!(plan.explain().contains(name));
        }
    }

    #[test]
    fn compile_rejects_mismatched_strategy_and_unknown_relation() {
        let db = db();
        let spec = QuerySpec::TwoSelects {
            relation: "A".into(),
            query: TwoSelectsQuery::new(
                2,
                Point::anonymous(0.0, 0.0),
                2,
                Point::anonymous(1.0, 1.0),
            ),
        };
        assert!(matches!(
            compile(
                &db.snapshot(),
                &spec,
                Strategy::Chained(ChainedStrategy::RightDeep)
            ),
            Err(QueryError::UnsupportedPlanShape { .. })
        ));
        let missing = QuerySpec::TwoSelects {
            relation: "Nope".into(),
            query: TwoSelectsQuery::new(
                2,
                Point::anonymous(0.0, 0.0),
                2,
                Point::anonymous(1.0, 1.0),
            ),
        };
        assert!(matches!(
            compile(
                &db.snapshot(),
                &missing,
                Strategy::TwoSelects(TwoSelectsStrategy::TwoKnnSelect)
            ),
            Err(QueryError::UnknownRelation { .. })
        ));
    }

    #[test]
    fn executing_a_compiled_plan_matches_database_execute() {
        let db = db();
        let spec = QuerySpec::UnchainedJoins {
            a: "A".into(),
            b: "B".into(),
            c: "C".into(),
            query: UnchainedJoinQuery::new(2, 2),
        };
        let strategy = Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithC);
        let plan = compile(&db.snapshot(), &spec, strategy).unwrap();
        let direct = plan.execute(ExecutionMode::Serial);
        let via_db = db.execute_with(&spec, strategy).unwrap();
        assert_eq!(direct.num_rows(), via_db.num_rows());
        assert_eq!(direct.strategy(), strategy);
    }

    #[test]
    fn knn_select_strategies_agree_and_match_brute_force() {
        let db = db();
        let spec = QuerySpec::KnnSelect {
            relation: "B".into(),
            query: KnnSelectQuery::new(7, Point::anonymous(40.0, 40.0)),
        };
        let snapshot = db.snapshot();
        let want = twoknn_index::brute_force_knn(
            &**snapshot.snapshot("B").unwrap(),
            &Point::anonymous(40.0, 40.0),
            7,
        )
        .ids();
        for s in [
            SelectStrategy::FilteredKernel,
            SelectStrategy::FilterThenScan,
        ] {
            let plan = compile(&snapshot, &spec, Strategy::Select(s)).unwrap();
            assert_eq!(plan.schema(), RowSchema::Points);
            let result = plan.execute(ExecutionMode::Serial);
            let got: Vec<u64> = result.rows().iter().flat_map(|r| r.ids()).collect();
            assert_eq!(got, want, "strategy {s:?}");
        }
    }

    #[test]
    fn pre_filter_flows_into_the_masked_select_kernel() {
        let db = db();
        let predicate = Predicate::IdRange { lo: 40, hi: 160 };
        let spec = QuerySpec::KnnSelect {
            relation: "B".into(),
            query: KnnSelectQuery::new(6, Point::anonymous(40.0, 40.0)),
        }
        .with_filters(QueryFilters::none().pre("B", predicate.clone()));
        let snapshot = db.snapshot();
        let want = brute_force_knn_filtered(
            &**snapshot.snapshot("B").unwrap(),
            &Point::anonymous(40.0, 40.0),
            6,
            &predicate,
        )
        .ids();
        let plan = compile(
            &snapshot,
            &spec,
            Strategy::Select(SelectStrategy::FilteredKernel),
        )
        .unwrap();
        assert_eq!(plan.name(), "knn-select");
        let got: Vec<u64> = plan
            .execute(ExecutionMode::Serial)
            .rows()
            .iter()
            .flat_map(|r| r.ids())
            .collect();
        assert_eq!(got, want);
    }

    #[test]
    fn pre_filter_on_a_join_inner_is_rejected() {
        let db = db();
        let filters = QueryFilters::none().pre("B", Predicate::IdRange { lo: 0, hi: 50 });
        for inner in [
            QuerySpec::SelectInnerOfJoin {
                outer: "A".into(),
                inner: "B".into(),
                query: SelectInnerJoinQuery::new(2, 3, Point::anonymous(30.0, 40.0)),
            },
            QuerySpec::UnchainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: UnchainedJoinQuery::new(2, 2),
            },
            QuerySpec::ChainedJoins {
                a: "A".into(),
                b: "B".into(),
                c: "C".into(),
                query: ChainedJoinQuery::new(2, 2),
            },
        ] {
            let strategy = db.plan(&inner).unwrap();
            let spec = inner.with_filters(filters.clone());
            let err = match compile(&db.snapshot(), &spec, strategy) {
                Err(err) => err,
                Ok(_) => panic!("expected an error for {spec:?}"),
            };
            assert!(
                matches!(err, QueryError::InvalidTransformation { .. }),
                "{spec:?}: {err}"
            );
            // The same filter in *post* placement is always accepted.
            let QuerySpec::Filtered { spec: inner, .. } = spec else {
                unreachable!()
            };
            let post = (*inner)
                .clone()
                .with_filters(QueryFilters::none().post("B", Predicate::IdRange { lo: 0, hi: 50 }));
            compile(&db.snapshot(), &post, strategy).unwrap();
        }
    }

    #[test]
    fn pre_filter_on_a_join_outer_equals_the_post_filtered_rows() {
        let db = db();
        let inner = QuerySpec::SelectInnerOfJoin {
            outer: "A".into(),
            inner: "B".into(),
            query: SelectInnerJoinQuery::new(2, 25, Point::anonymous(40.0, 40.0)),
        };
        let predicate = Predicate::InRect(twoknn_geometry::Rect::new(0.0, 0.0, 70.0, 70.0));
        // Filtering the *outer* side before the join only removes whole
        // rows (each outer point's neighborhood is independent), so the
        // pushdown must produce exactly the post-filtered rows.
        let pre = db
            .execute(
                &inner
                    .clone()
                    .with_filters(QueryFilters::none().pre("A", predicate.clone())),
            )
            .unwrap();
        let post = db
            .execute(&inner.with_filters(QueryFilters::none().post("A", predicate)))
            .unwrap();
        // Row order may differ (the materialized filtered index has its own
        // block layout), so compare as sorted id tuples.
        let ids = |r: &QueryResult| -> Vec<Vec<u64>> {
            let mut tuples: Vec<Vec<u64>> = r.rows().iter().map(|x| x.ids()).collect();
            tuples.sort_unstable();
            tuples
        };
        assert!(pre.num_rows() > 0, "filter should keep some rows");
        assert_eq!(ids(&pre), ids(&post));
    }

    #[test]
    fn residual_filter_prunes_rows_by_component() {
        let db = db();
        let inner = QuerySpec::TwoSelects {
            relation: "B".into(),
            query: TwoSelectsQuery::new(
                5,
                Point::anonymous(30.0, 30.0),
                50,
                Point::anonymous(35.0, 35.0),
            ),
        };
        let unfiltered = db.execute(&inner).unwrap();
        let keep: Vec<u64> = unfiltered
            .rows()
            .iter()
            .flat_map(|r| r.ids())
            .take(2)
            .collect();
        let filtered = db
            .execute(
                &inner.with_filters(QueryFilters::none().post("B", Predicate::id_in(keep.clone()))),
            )
            .unwrap();
        let got: Vec<u64> = filtered.rows().iter().flat_map(|r| r.ids()).collect();
        assert_eq!(got, keep);
        assert_eq!(filtered.metrics().tuples_emitted, keep.len() as u64);
    }

    #[test]
    fn bad_filter_shapes_are_rejected() {
        let db = db();
        let base = QuerySpec::KnnSelect {
            relation: "B".into(),
            query: KnnSelectQuery::new(3, Point::anonymous(0.0, 0.0)),
        };
        // Unknown relation name in the filter map.
        let spec = base
            .clone()
            .with_filters(QueryFilters::none().post("Nope", Predicate::False));
        assert!(matches!(
            db.execute(&spec),
            Err(QueryError::UnknownRelation { .. })
        ));
        // Nested Filtered wrappers.
        let nested = QuerySpec::Filtered {
            spec: Box::new(base.with_filters(QueryFilters::none().post("B", Predicate::False))),
            filters: QueryFilters::none().post("B", Predicate::True),
        };
        assert!(matches!(
            db.execute(&nested),
            Err(QueryError::UnsupportedPlanShape { .. })
        ));
    }

    #[test]
    fn rows_are_typed_and_tagged() {
        let db = db();
        let spec = QuerySpec::TwoSelects {
            relation: "B".into(),
            query: TwoSelectsQuery::new(
                5,
                Point::anonymous(30.0, 30.0),
                50,
                Point::anonymous(35.0, 35.0),
            ),
        };
        let result = db.execute(&spec).unwrap();
        let rows = result.rows();
        assert_eq!(rows.len(), result.num_rows());
        for row in &rows {
            assert_eq!(row.schema(), RowSchema::Points);
            assert_eq!(row.ids().len(), 1);
        }
    }
}
