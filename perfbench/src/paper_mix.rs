//! `paper_mix`: read-only batches of the paper's query shapes.
//!
//! One representative parameter point per figure 19–26 of the paper, plus
//! the select-on-outer shape, over compacted, 4×4-sharded, in-memory
//! relations. Every batch has the same shape mix; each select shape's focal
//! points get seeded jitter, and the optimizer picks every strategy. A run
//! cycles through [`VARIANTS`] jittered batches whose reference answers are
//! computed once in set-up with the conceptually correct QEPs.

use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::plan::{Database, QuerySpec};
use two_knn::core::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::{ShardConfig, StoreConfig};
use two_knn::core::WorkerPool;
use two_knn::datagen::rng::StdRng;
use two_knn::geometry::Point;
use two_knn::Metrics;

use crate::common::{
    berlin, clusters_at, grid, jitter, reference_rows, row_keys, timed, Answered, RowKey, Workload,
};
use crate::layers::ProbeSet;
use crate::trace::Tracer;

/// Spatial shards per axis of every relation.
const SHARDS_PER_AXIS: usize = 4;

/// Jittered batch variants per run; each has its reference answers.
pub const VARIANTS: usize = 4;

/// Relation sizes. `Cars` is above the optimizer's Counting limit (50k
/// outer points) so the select-inner shapes on it run Block-Marking, while
/// `Shops` is below it and runs Counting.
pub struct Sizes {
    /// Inner of the select-joins, `B` of the unchained joins, `C` of fig25.
    pub hotels: usize,
    /// Dense outer (Block-Marking regime) and the two-select relation.
    pub cars: usize,
    /// Sparse outer (Counting regime) and `A` of fig24.
    pub shops: usize,
    /// `C` of fig22 and fig24.
    pub stops: usize,
    /// `B` of fig24: smaller than `A`'s neighbor demand, so the cache pays.
    pub kiosks: usize,
    /// `A` of fig25.
    pub vans: usize,
    /// Points per cluster of the clustered relations.
    pub per_cluster: usize,
}

impl Sizes {
    /// The sizes the benchmark runs.
    pub const BENCH: Sizes = Sizes {
        hotels: 24_000,
        cars: 52_000,
        shops: 4_000,
        stops: 12_000,
        kiosks: 8_000,
        vans: 1_000,
        per_cluster: 1_500,
    };

    /// Small sizes for the benchmark's own tests.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        hotels: 3_000,
        cars: 4_000,
        shops: 600,
        stops: 1_500,
        kiosks: 800,
        vans: 300,
        per_cluster: 200,
    };
}

/// Generates, indexes and registers every relation.
pub fn build(seed: u64, sizes: &Sizes) -> Database {
    let s = seed.wrapping_mul(1_000);
    let pc = sizes.per_cluster;
    let mut db = Database::with_pool_and_store_config(
        std::sync::Arc::clone(WorkerPool::global()),
        StoreConfig {
            sharding: ShardConfig::per_axis(SHARDS_PER_AXIS),
            ..StoreConfig::default()
        },
    );
    let relations: [(&str, Vec<Point>); 10] = [
        ("Hotels", berlin(sizes.hotels, s + 1)),
        ("Cars", berlin(sizes.cars, s + 2)),
        ("Shops", berlin(sizes.shops, s + 3)),
        ("Stops", berlin(sizes.stops, s + 4)),
        ("Kiosks", berlin(sizes.kiosks, s + 5)),
        ("Vans", berlin(sizes.vans, s + 6)),
        // fig22: A clustered inside one region (the north-east) of the city.
        (
            "Depots",
            clusters_at(&[(75_000.0, 78_000.0), (88_000.0, 86_000.0)], pc, s + 7),
        ),
        // fig23: A and C both clustered near the dense city center, A with
        // more clusters, one pair of clusters 6 km apart.
        (
            "ClusterA",
            clusters_at(
                &[
                    (40_000.0, 42_000.0),
                    (58_000.0, 60_000.0),
                    (62_000.0, 38_000.0),
                ],
                pc,
                s + 10,
            ),
        ),
        (
            "ClusterC",
            clusters_at(&[(46_000.0, 42_000.0), (50_000.0, 66_000.0)], pc, s + 20),
        ),
        // fig25: a clustered B.
        (
            "ClusterB",
            clusters_at(
                &[
                    (30_000.0, 62_000.0),
                    (58_000.0, 42_000.0),
                    (72_000.0, 70_000.0),
                ],
                2 * pc,
                s + 30,
            ),
        ),
    ];
    for (name, points) in relations {
        db.register(name, grid(points, SHARDS_PER_AXIS));
    }
    db
}

/// The batch variants: the same ten shapes, focal points jittered.
pub fn variants(seed: u64) -> Vec<Vec<QuerySpec>> {
    let mut rng = StdRng::seed_from_u64(seed ^ 0x9A9E_4D1C);
    let center = Point::anonymous(52_000.0, 49_000.0);
    let second = Point::anonymous(48_500.0, 51_500.0);
    // fig26: two nearby focal points on the sparse outskirts.
    let (f1, f2) = (
        Point::anonymous(30_000.0, 68_000.0),
        Point::anonymous(31_500.0, 68_800.0),
    );
    let s = |x: &str| x.to_string();
    (0..VARIANTS)
        .map(|_| {
            vec![
                // fig19 / fig21: select on the join inner, dense outer.
                QuerySpec::SelectInnerOfJoin {
                    outer: s("Cars"),
                    inner: s("Hotels"),
                    query: SelectInnerJoinQuery::new(8, 8, jitter(&mut rng, center, 1_000.0)),
                },
                QuerySpec::SelectInnerOfJoin {
                    outer: s("Cars"),
                    inner: s("Hotels"),
                    query: SelectInnerJoinQuery::new(8, 32, jitter(&mut rng, second, 1_000.0)),
                },
                // fig20: sparse outer.
                QuerySpec::SelectInnerOfJoin {
                    outer: s("Shops"),
                    inner: s("Hotels"),
                    query: SelectInnerJoinQuery::new(8, 8, jitter(&mut rng, center, 1_000.0)),
                },
                // Select on the join outer: pushdown.
                QuerySpec::SelectOuterOfJoin {
                    outer: s("Cars"),
                    inner: s("Hotels"),
                    query: SelectOuterJoinQuery::new(8, 256, jitter(&mut rng, second, 1_000.0)),
                },
                // fig22 / fig23: unchained joins.
                QuerySpec::UnchainedJoins {
                    a: s("Depots"),
                    b: s("Hotels"),
                    c: s("Stops"),
                    query: UnchainedJoinQuery::new(2, 2),
                },
                QuerySpec::UnchainedJoins {
                    a: s("ClusterA"),
                    b: s("Hotels"),
                    c: s("ClusterC"),
                    query: UnchainedJoinQuery::new(2, 2),
                },
                // fig24 / fig25: chained joins.
                QuerySpec::ChainedJoins {
                    a: s("Shops"),
                    b: s("Kiosks"),
                    c: s("Stops"),
                    query: ChainedJoinQuery::new(2, 2),
                },
                QuerySpec::ChainedJoins {
                    a: s("Vans"),
                    b: s("ClusterB"),
                    c: s("Hotels"),
                    query: ChainedJoinQuery::new(2, 2),
                },
                // fig26: two kNN-selects, k2/k1 = 4 and 64.
                QuerySpec::TwoSelects {
                    relation: s("Cars"),
                    query: TwoSelectsQuery::new(
                        10,
                        jitter(&mut rng, f1, 500.0),
                        40,
                        jitter(&mut rng, f2, 500.0),
                    ),
                },
                QuerySpec::TwoSelects {
                    relation: s("Cars"),
                    query: TwoSelectsQuery::new(
                        10,
                        jitter(&mut rng, f1, 500.0),
                        640,
                        jitter(&mut rng, f2, 500.0),
                    ),
                },
            ]
        })
        .collect()
}

/// Reference answers for every query of every variant. The join shapes
/// have no focal point, so identical specs share one evaluation.
pub fn oracle(db: &Database, variants: &[Vec<QuerySpec>]) -> Result<Vec<Vec<Vec<RowKey>>>, String> {
    let mut done: Vec<(QuerySpec, Vec<RowKey>)> = Vec::new();
    variants
        .iter()
        .map(|batch| {
            batch
                .iter()
                .map(|spec| {
                    if let Some((_, rows)) = done.iter().find(|(s, _)| s == spec) {
                        return Ok(rows.clone());
                    }
                    let rows = reference_rows(db, spec)?;
                    done.push((spec.clone(), rows.clone()));
                    Ok(rows)
                })
                .collect()
        })
        .collect()
}

/// Counters that repeat exactly for a fixed batch, however the pool
/// interleaves its queries: every one. The chained join keeps one
/// neighborhood cache per chunk of `A`'s blocks and sizes the chunks by the
/// pool's worker count, so `cache_hits`, `cache_misses` and
/// `neighborhoods_computed` repeat at a fixed seed *and* `TWOKNN_THREADS`.
pub const EXACT_COUNTERS: &[&str] = &crate::common::ALL_COUNTERS;

/// The running workload.
pub struct PaperMix {
    /// The database under test.
    pub db: Database,
    /// The batch variants.
    pub variants: Vec<Vec<QuerySpec>>,
    /// Reference answers, `[variant][query]`.
    pub oracle: Vec<Vec<Vec<RowKey>>>,
    /// Engine work counters summed over every answered query.
    pub counters: Metrics,
    /// Shards scanned by the first request.
    pub first_shards_scanned: Option<u64>,
    /// Failed-answer descriptions (first few).
    pub problems: Vec<String>,
}

impl PaperMix {
    /// Builds the workload around a set-up database.
    pub fn new(db: Database, seed: u64) -> Result<Self, String> {
        let variants = variants(seed);
        let oracle = oracle(&db, &variants)?;
        Ok(Self {
            db,
            variants,
            oracle,
            counters: Metrics::default(),
            first_shards_scanned: None,
            problems: Vec::new(),
        })
    }

    /// Executes one variant's batch and returns its per-query counters
    /// and failures.
    #[cfg(test)]
    pub fn run_variant(&self, v: usize) -> (Vec<Metrics>, Vec<String>) {
        let results = self.db.execute_batch(&self.variants[v]);
        self.check(v, results)
    }

    fn check(
        &self,
        v: usize,
        results: Vec<Result<two_knn::core::plan::QueryResult, two_knn::QueryError>>,
    ) -> (Vec<Metrics>, Vec<String>) {
        let mut metrics = Vec::new();
        let mut problems = Vec::new();
        for (q, result) in results.into_iter().enumerate() {
            match result {
                Ok(r) => {
                    metrics.push(r.metrics());
                    if row_keys(&r.rows()) != self.oracle[v][q] {
                        problems.push(format!(
                            "variant {v} query {q} ({}): {} rows, reference {}",
                            r.strategy(),
                            r.num_rows(),
                            self.oracle[v][q].len()
                        ));
                    }
                }
                Err(e) => problems.push(format!("variant {v} query {q}: {e}")),
            }
        }
        (metrics, problems)
    }

    /// The probe parameters for the per-layer run.
    pub fn probe_set(&self) -> ProbeSet {
        let s = |x: &str| x.to_string();
        let batch = self.variants[0].clone();
        let mut knn = Vec::new();
        for spec in &batch {
            match spec {
                QuerySpec::SelectInnerOfJoin { inner, query, .. } => {
                    knn.push((inner.clone(), query.focal, query.k_select))
                }
                QuerySpec::SelectOuterOfJoin { outer, query, .. } => {
                    knn.push((outer.clone(), query.focal, query.k_select))
                }
                QuerySpec::TwoSelects { relation, query } => {
                    knn.push((relation.clone(), query.f1, query.k1));
                    knn.push((relation.clone(), query.f2, query.k2));
                }
                _ => {}
            }
        }
        let focal = |i: usize| match &batch[i] {
            QuerySpec::SelectInnerOfJoin { query, .. } => *query,
            _ => unreachable!("the first three shapes are select-inner joins"),
        };
        let (f, k) = (knn[0].1, knn[0].2);
        ProbeSet {
            main: s("Cars"),
            counting: (s("Shops"), s("Hotels"), focal(2)),
            block_marking: (s("Cars"), s("Hotels"), focal(0)),
            unchained: (
                [s("Depots"), s("Hotels"), s("Stops")],
                UnchainedJoinQuery::new(2, 2),
            ),
            chained: (
                [s("Shops"), s("Kiosks"), s("Stops")],
                ChainedJoinQuery::new(2, 2),
            ),
            two_select: match &batch[8] {
                QuerySpec::TwoSelects { relation, query } => (relation.clone(), *query),
                _ => unreachable!("the ninth shape is a two-select"),
            },
            texts: vec![
                format!("FIND Hotels WHERE KNN({k}, {}, {})", f.x, f.y),
                format!(
                    "FIND Cars WHERE KNN(10, {}, {}) AND KNN(40, {}, {})",
                    f.x,
                    f.y,
                    f.x + 1500.0,
                    f.y + 800.0
                ),
                format!(
                    "FIND (Hotels WHERE ID <= 16000) WHERE KNN({k}, {}, {})",
                    f.x, f.y
                ),
                format!(
                    "FIND Hotels WHERE KNN(32, {}, {}) AND INSIDE(CIRCLE({}, {}, 1500))",
                    f.x, f.y, f.x, f.y
                ),
            ],
            knn,
            batch,
            standing: Vec::new(),
            subscriptions: Vec::new(),
        }
    }
}

impl Workload for PaperMix {
    fn request(&mut self, tracer: &mut Tracer, id: u64) -> crate::common::Answered {
        let v = id as usize % VARIANTS;
        let (latency_ms, (results, work)) = tracer.span("request", id, |t| {
            timed(|| {
                t.span("exec.execute_batch", id, |t| {
                    let results = self.db.execute_batch(&self.variants[v]);
                    let mut work = Metrics::default();
                    for r in results.iter().flatten() {
                        work += r.metrics();
                    }
                    t.counters(work);
                    (results, work)
                })
            })
        });
        let answers = results.len() as u64;
        let (_, problems) = self.check(v, results);
        self.first_shards_scanned.get_or_insert(work.shards_scanned);
        self.counters += work;
        let failures = problems.len() as u64;
        if self.problems.len() < 8 {
            self.problems.extend(problems);
        }
        Answered {
            latency_ms,
            answers,
            failures,
        }
    }

    fn min_requests(&self) -> usize {
        crate::stats::min_samples_for(900)
    }
}

/// One run of the workload.
pub fn run(args: &crate::Args) -> crate::common::Report {
    use crate::common::{
        detail_timing, end_to_end, measure, repeated_setup, summarize_trace, Report, SETUPS_PER_RUN,
    };
    let mut report = Report {
        exact_counters: EXACT_COUNTERS,
        ..Report::default()
    };
    let sizes = Sizes::BENCH;
    let (setup_s, db) = repeated_setup(SETUPS_PER_RUN, |_| build(args.seed, &sizes));
    let mut w = match PaperMix::new(db, args.seed) {
        Ok(w) => w,
        Err(e) => {
            report.fail(format!("reference answers: {e}"));
            return report;
        }
    };
    report.note(
        "relations",
        format!(
            "Hotels={} Cars={} Shops={} Stops={} Kiosks={} Vans={} Depots=2x{pc} \
             ClusterA=3x{pc} ClusterC=2x{pc} ClusterB=3x{}",
            sizes.hotels,
            sizes.cars,
            sizes.shops,
            sizes.stops,
            sizes.kiosks,
            sizes.vans,
            2 * sizes.per_cluster,
            pc = sizes.per_cluster
        ),
    );
    report.note("sharding", "4x4");
    report.note("durability", "disabled (in-memory)");
    report.note("batch_queries", w.variants[0].len());
    report.note("batch_variants", VARIANTS);
    let strategies: Vec<String> = w.variants[0]
        .iter()
        .map(|spec| {
            w.db.plan(spec)
                .map_or_else(|e| e.to_string(), |s| s.to_string())
        })
        .collect();
    report.note("strategies", strategies.join(","));

    let mut tracer = Tracer::new(args.trace);
    let (stats, overhead) = measure(&mut w, args.seconds, &mut tracer);
    report.problems.append(&mut w.problems);
    report.counters = w.counters;
    end_to_end(&mut report, setup_s, &stats);
    detail_timing(&mut report, "batch", &stats.latencies_ms, 1.0, "ms", 900);

    if args.trace {
        summarize_trace(&mut report, &args.workload, args.seed, &tracer);
        let run = crate::layers::FromRun {
            first_answer_shards_scanned: w.first_shards_scanned.unwrap_or(0),
            live_points: w
                .db
                .relation_names()
                .iter()
                .filter_map(|n| w.db.relation(n).ok())
                .map(|r| two_knn::SpatialIndex::num_points(&*r))
                .sum(),
            trace_overhead_ratio: overhead,
            ..Default::default()
        };
        let set = w.probe_set();
        if let Err(e) = crate::layers::probe(
            &w.db,
            &set,
            &run,
            &mut report.per_layer,
            &mut report.details,
        ) {
            report.fail(format!("layer probes: {e}"));
        }
    }
    report
}

#[cfg(test)]
mod tests {
    use super::*;
    use two_knn::core::obs::counter_fields;

    fn exact(m: &Metrics) -> Vec<(&'static str, u64)> {
        counter_fields(m)
            .into_iter()
            .filter(|(name, _)| EXACT_COUNTERS.contains(name))
            .collect()
    }

    #[test]
    fn answers_match_the_reference_and_exact_counters_repeat() {
        // Two independent builds from one seed, each batch run twice.
        let a = PaperMix::new(build(5, &Sizes::TINY), 5).unwrap();
        let b = PaperMix::new(build(5, &Sizes::TINY), 5).unwrap();
        for v in 0..VARIANTS {
            let (ma, pa) = a.run_variant(v);
            let (ma2, pa2) = a.run_variant(v);
            let (mb, pb) = b.run_variant(v);
            assert!(pa.is_empty() && pa2.is_empty() && pb.is_empty(), "{pa:?}");
            for ((x, y), z) in ma.iter().zip(&ma2).zip(&mb) {
                assert_eq!(exact(x), exact(y));
                assert_eq!(exact(x), exact(z));
            }
        }
    }

    #[test]
    fn variants_are_seeded() {
        assert_eq!(variants(9), variants(9));
        assert_ne!(variants(9), variants(10));
        assert_eq!(variants(9).len(), VARIANTS);
    }
}
