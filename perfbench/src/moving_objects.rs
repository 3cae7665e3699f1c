//! `moving_objects`: ingest beside standing queries and textual reads.
//!
//! A durable, 4×4-sharded `Vehicles` relation (BerlinMOD-like) sits beside
//! a static `Sites` relation, with [`GEOFENCES`] geofence kNN-selects,
//! [`JOINS`] select-inner-of-join and [`TWO_SELECTS`] two-select standing
//! queries subscribed. Each tick, in order:
//!
//! 1. ingests one batch of [`BATCH`] moves (a seeded random walk of
//!    existing ids, a quarter of them jumping into the hot region);
//! 2. waits until every subscription reflects the new version: the pool
//!    goes idle, then every re-evaluated subscription must report the new
//!    version and every skipped one must be among the guard's skips;
//! 3. polls every subscription;
//! 4. issues four textual reads through `Database::query` — kNN, two-kNN,
//!    pre-filtered and post-filtered — against the live delta overlay.
//!
//! Every [`CHECK_EVERY`]th tick and at the end, outside the timed span,
//! each subscription's maintained result is compared with a fresh
//! `execute` of its spec, and that tick's reads with the reference QEPs.

use std::sync::Arc;
use std::time::Instant;

use two_knn::core::plan::{Database, QuerySpec};
use two_knn::core::select_join::SelectInnerJoinQuery;
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::{DurabilityConfig, ShardConfig, StoreConfig, SyncPolicy};
use two_knn::core::{SubscriptionId, WorkerPool};
use two_knn::datagen::rng::StdRng;
use two_knn::geometry::{Point, Rect};
use two_knn::{Metrics, SpatialIndex};

use crate::common::{
    berlin, grid, ms_since, reference_rows, row_keys, Answered, Mover, WorkDir, Workload,
};
use crate::layers::{FromRun, ProbeSet};
use crate::trace::Tracer;

/// Geofence kNN-select subscriptions (a quarter of them post-filtered).
pub const GEOFENCES: usize = 30;
/// Select-inner-of-join subscriptions (`Sites ⋈ Vehicles`, select on
/// `Vehicles`).
pub const JOINS: usize = 2;
/// Two-select subscriptions on `Vehicles`.
pub const TWO_SELECTS: usize = 4;
/// Moves per ingest batch.
pub const BATCH: usize = 64;
/// Ticks between full answer checks.
pub const CHECK_EVERY: u64 = 16;
/// Spatial shards per axis.
const SHARDS_PER_AXIS: usize = 4;

/// Relation sizes.
pub struct Sizes {
    /// Moving vehicles.
    pub vehicles: usize,
    /// Static sites.
    pub sites: usize,
}

impl Sizes {
    /// The sizes the benchmark runs.
    pub const BENCH: Sizes = Sizes {
        vehicles: 60_000,
        sites: 300,
    };
    /// Small sizes for the benchmark's own tests.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        vehicles: 4_000,
        sites: 100,
    };
}

/// The hot region: an 8 km square around the city center.
pub fn hot_region() -> Rect {
    Rect::new(46_000.0, 46_000.0, 54_000.0, 54_000.0)
}

/// The set-up database and its subscriptions.
pub struct MovingObjects {
    /// The database under test (dropped before its directory).
    pub db: Database,
    /// Subscriptions with the spec each one maintains.
    pub subs: Vec<(SubscriptionId, QuerySpec)>,
    mover: Mover,
    rng: StdRng,
    vehicles: usize,
    /// Per-phase samples, milliseconds.
    pub ingest_ms: Vec<f64>,
    /// Ingest start until every subscription reflects the version.
    pub settled_ms: Vec<f64>,
    /// One `Database::query` call each.
    pub read_ms: Vec<f64>,
    /// `detached_in_flight()` right after each ingest returned.
    pub backlog: Vec<f64>,
    /// Work counters of the reads.
    pub read_counters: Metrics,
    /// Shards scanned by the first tick's reads.
    pub first_shards_scanned: Option<u64>,
    /// Failed-check descriptions (first few).
    pub problems: Vec<String>,
    /// The durable directory (removed on drop, after `db`).
    pub dir: WorkDir,
}

/// Generates both relations, registers them durably, and subscribes every
/// standing query.
pub fn build(seed: u64, sizes: &Sizes, dir: WorkDir) -> Result<MovingObjects, String> {
    let err = |e: two_knn::QueryError| e.to_string();
    let config = StoreConfig {
        sharding: ShardConfig::per_axis(SHARDS_PER_AXIS),
        durability: DurabilityConfig::at(dir.path()).with_sync(SyncPolicy::Never),
        ..StoreConfig::default()
    };
    let mut db = Database::with_pool_and_store_config(Arc::clone(WorkerPool::global()), config);
    let s = seed.wrapping_mul(1_000) + 500;
    let vehicles = berlin(sizes.vehicles, s + 1);
    let sites = berlin(sizes.sites, s + 2);
    db.register("Vehicles", grid(vehicles.clone(), SHARDS_PER_AXIS));
    db.register("Sites", grid(sites.clone(), SHARDS_PER_AXIS));

    let mut rng = StdRng::seed_from_u64(s + 3);
    let hot = hot_region();
    let hot_sites: Vec<Point> = sites.iter().copied().filter(|p| hot.contains(p)).collect();
    let site = |rng: &mut StdRng, prefer_hot: bool| -> Point {
        let pool = if prefer_hot && !hot_sites.is_empty() {
            &hot_sites
        } else {
            &sites
        };
        let p = pool[rng.gen_range(0..pool.len())];
        Point::anonymous(p.x, p.y)
    };
    let mut subs = Vec::new();
    for i in 0..GEOFENCES {
        let f = site(&mut rng, i % 2 == 0);
        let k = if i % 3 == 0 { 16 } else { 8 };
        let text = if i % 4 == 3 {
            format!(
                "FIND Vehicles WHERE KNN({k}, {:.1}, {:.1}) AND INSIDE(CIRCLE({:.1}, {:.1}, 1500))",
                f.x, f.y, f.x, f.y
            )
        } else {
            format!("FIND Vehicles WHERE KNN({k}, {:.1}, {:.1})", f.x, f.y)
        };
        let spec = db.parse_query(&text).map_err(err)?;
        subs.push((db.subscribe_query(&text).map_err(err)?, spec));
    }
    for i in 0..JOINS {
        let spec = QuerySpec::SelectInnerOfJoin {
            outer: "Sites".into(),
            inner: "Vehicles".into(),
            query: SelectInnerJoinQuery::new(4, 32, site(&mut rng, i % 2 == 0)),
        };
        subs.push((db.subscribe(&spec, None).map_err(err)?, spec));
    }
    for i in 0..TWO_SELECTS {
        let f1 = site(&mut rng, i % 2 == 0);
        let f2 = Point::anonymous(f1.x + 1_200.0, f1.y + 600.0);
        let spec = QuerySpec::TwoSelects {
            relation: "Vehicles".into(),
            query: TwoSelectsQuery::new(8, f1, 64, f2),
        };
        subs.push((db.subscribe(&spec, None).map_err(err)?, spec));
    }
    db.pool().wait_idle();
    for (id, _) in &subs {
        db.poll(*id).map_err(err)?;
    }
    Ok(MovingObjects {
        db,
        subs,
        mover: Mover::new(vehicles, hot, s + 4),
        rng: StdRng::seed_from_u64(s + 5),
        vehicles: sizes.vehicles,
        ingest_ms: Vec::new(),
        settled_ms: Vec::new(),
        read_ms: Vec::new(),
        backlog: Vec::new(),
        read_counters: Metrics::default(),
        first_shards_scanned: None,
        problems: Vec::new(),
        dir,
    })
}

impl MovingObjects {
    /// The four textual reads around focal point `f`.
    fn reads(&self, f: Point) -> [String; 4] {
        let (x, y) = (f.x, f.y);
        [
            format!("FIND Vehicles WHERE KNN(16, {x:.1}, {y:.1})"),
            format!(
                "FIND Vehicles WHERE KNN(8, {x:.1}, {y:.1}) AND KNN(64, {:.1}, {:.1})",
                x + 1_000.0,
                y + 500.0
            ),
            format!(
                "FIND (Vehicles WHERE ID <= {}) WHERE KNN(16, {x:.1}, {y:.1})",
                self.vehicles / 2
            ),
            format!(
                "FIND Vehicles WHERE KNN(32, {x:.1}, {y:.1}) AND INSIDE(RECT({:.1}, {:.1}, {:.1}, {:.1}))",
                x - 1_000.0,
                y - 1_000.0,
                x + 1_000.0,
                y + 1_000.0
            ),
        ]
    }

    /// Compares every subscription's maintained result with a fresh
    /// `execute` of its spec (untimed); returns the mismatches.
    pub fn check_subscriptions(&self) -> Vec<String> {
        self.db.pool().wait_idle();
        let mut problems = Vec::new();
        for (id, spec) in &self.subs {
            let maintained = self
                .db
                .subscription_result(*id)
                .map(|(rows, _)| row_keys(&rows));
            let fresh = self.db.execute(spec).map(|r| row_keys(&r.rows()));
            match (maintained, fresh) {
                (Ok(m), Ok(f)) if m == f => {}
                (Ok(m), Ok(f)) => problems.push(format!(
                    "{id}: maintained {} rows, fresh execute {}",
                    m.len(),
                    f.len()
                )),
                (m, f) => problems.push(format!("{id}: {:?} / {:?}", m.err(), f.err())),
            }
        }
        problems
    }
}

impl Workload for MovingObjects {
    fn request(&mut self, tracer: &mut Tracer, id: u64) -> Answered {
        let ops = self.mover.batch(BATCH);
        let focal = if self.rng.gen_bool(0.5) {
            self.mover.sample_position()
        } else {
            crate::common::jitter(&mut self.rng, hot_region().center(), 4_000.0)
        };
        let texts = self.reads(focal);
        let db = &self.db;
        let before = db.store_metrics();
        let start = Instant::now();
        let mut failures = Vec::new();
        let mut read_rows = Vec::new();
        tracer.span("request", id, |t| {
            let version = t.span("store.ingest", id, |t| {
                let r = db.ingest("Vehicles", &ops);
                t.counters(db.store_metrics().diff(&before));
                r
            });
            self.ingest_ms.push(ms_since(start));
            self.backlog.push(db.pool().detached_in_flight() as f64);
            let version = match version {
                Ok((_, v)) => v,
                Err(e) => {
                    failures.push(format!("ingest: {e}"));
                    return;
                }
            };
            // Settle: every re-evaluation this publish scheduled has run, so
            // each re-evaluated subscription reflects `version`, and the
            // rest are exactly the guard's skips.
            let settled = t.span("cq.settle", id, |t| {
                t.span("exec.wait_idle", id, |_| db.pool().wait_idle());
                let delta = db.store_metrics().diff(&before);
                let mut advanced = 0u64;
                for (sub, _) in &self.subs {
                    match db.subscription_result(*sub) {
                        Ok((_, v)) if v >= version => advanced += 1,
                        Ok(_) => {}
                        Err(e) => failures.push(format!("{sub}: {e}")),
                    }
                }
                let lagging = self.subs.len() as u64 - advanced;
                (advanced, lagging, delta)
            });
            self.settled_ms.push(ms_since(start));
            let (advanced, lagging, delta) = settled;
            if advanced != delta.cq_reevals || lagging != delta.cq_skips {
                failures.push(format!(
                    "tick {id}: {advanced} subscriptions reflect v{version} after {} \
                     re-evaluations, {lagging} lag after {} skips",
                    delta.cq_reevals, delta.cq_skips
                ));
            }
            t.span("cq.poll", id, |_| {
                for (sub, _) in &self.subs {
                    if let Err(e) = db.poll(*sub) {
                        failures.push(format!("poll {sub}: {e}"));
                    }
                }
            });
            for text in &texts {
                let read_start = Instant::now();
                let r = t.span("plan.query", id, |t| {
                    let r = db.query(text);
                    if let Ok(r) = &r {
                        t.counters(r.metrics());
                    }
                    r
                });
                self.read_ms.push(ms_since(read_start));
                match r {
                    Ok(r) => {
                        self.read_counters += r.metrics();
                        read_rows.push((text, r));
                    }
                    Err(e) => failures.push(format!("{text}: {e}")),
                }
            }
        });
        let latency_ms = ms_since(start);
        let answers = read_rows.len() as u64;
        if self.first_shards_scanned.is_none() {
            let scanned = read_rows
                .iter()
                .map(|(_, r)| r.metrics().shards_scanned)
                .sum();
            self.first_shards_scanned = Some(scanned);
        }
        if id % CHECK_EVERY == 0 {
            for (text, r) in &read_rows {
                let reference = self
                    .db
                    .parse_query(text)
                    .map_err(|e| e.to_string())
                    .and_then(|spec| reference_rows(&self.db, &spec));
                match reference {
                    Ok(rows) if rows == row_keys(&r.rows()) => {}
                    Ok(rows) => failures.push(format!(
                        "{text}: {} rows, reference {}",
                        r.num_rows(),
                        rows.len()
                    )),
                    Err(e) => failures.push(format!("{text}: reference: {e}")),
                }
            }
            failures.extend(self.check_subscriptions());
        }
        let failed = failures.len() as u64;
        let room = 8usize.saturating_sub(self.problems.len());
        self.problems.extend(failures.into_iter().take(room));
        Answered {
            latency_ms,
            answers,
            failures: failed,
        }
    }

    fn min_requests(&self) -> usize {
        // The ingest and settle p99s need a thousand ticks.
        crate::stats::min_samples_for(990)
    }
}

/// Counters that repeat exactly over a fixed number of ticks at a fixed
/// seed. Re-evaluations race the background compactions their publish
/// triggered, so the block-level work of a re-evaluation (blocks, points,
/// localities, distances, shards) depends on whether the rebuilt shard was
/// published first.
pub const EXACT_COUNTERS: &[&str] = &[
    "tuples_emitted",
    "ingest_ops",
    "compactions",
    "shards_compacted",
    "cq_reevals",
    "cq_skips",
    "wal_appends",
    "wal_bytes",
    "checkpoints",
    "recoveries",
];

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
    let (setup_s, built) = repeated_setup(SETUPS_PER_RUN, |i| {
        build(
            args.seed,
            &sizes,
            WorkDir::new(&format!("moving_objects-{i}")),
        )
    });
    let mut w = match built {
        Ok(w) => w,
        Err(e) => {
            report.fail(format!("set-up: {e}"));
            return report;
        }
    };
    report.note(
        "relations",
        format!("Vehicles={} Sites={}", sizes.vehicles, sizes.sites),
    );
    report.note("sharding", "4x4");
    report.note("durability", "WAL + block files, SyncPolicy::Never");
    report.note(
        "subscriptions",
        format!("{GEOFENCES} geofence kNN-selects, {JOINS} select-inner-of-join, {TWO_SELECTS} two-selects"),
    );
    report.note("batch_ops", BATCH);
    report.note("hot_share", Mover::HOT_SHARE);
    report.note("reads_per_tick", 4);

    let mut tracer = Tracer::new(args.trace);
    let before = w.db.store_metrics();
    let (stats, overhead) = measure(&mut w, args.seconds, &mut tracer);
    let writes = w.db.store_metrics().diff(&before);
    report.counters = writes + w.read_counters;
    report.problems.append(&mut w.problems);
    for p in w.check_subscriptions() {
        report.fail(p);
    }
    end_to_end(&mut report, setup_s, &stats);
    let ticks = stats.latencies_ms.len() as f64;
    report.details.put(
        "ticks_per_s",
        crate::stats::ratio(ticks, stats.busy_s),
        "1/s",
    );
    let (ingest, settled, read) = (w.ingest_ms.clone(), w.settled_ms.clone(), w.read_ms.clone());
    detail_timing(&mut report, "ingest", &ingest, 1.0, "ms", 990);
    detail_timing(&mut report, "settled", &settled, 1.0, "ms", 990);
    detail_timing(&mut report, "read", &read, 1e3, "us", 990);

    if args.trace {
        summarize_trace(&mut report, &args.workload, args.seed, &tracer);
        let run = FromRun {
            write_counters: writes,
            cq_counters: writes,
            requests: w.ingest_ms.len() as u64,
            durable_dir: Some(w.dir.path().to_path_buf()),
            live_points: ["Vehicles", "Sites"]
                .iter()
                .filter_map(|n| w.db.relation(n).ok())
                .map(|r| r.num_points())
                .sum(),
            first_answer_shards_scanned: w.first_shards_scanned.unwrap_or(0),
            detached_backlog: crate::stats::median(&w.backlog),
            trace_overhead_ratio: overhead,
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
    w.db.pool().wait_idle();
    report
}

impl MovingObjects {
    /// The probe parameters for the per-layer run.
    pub fn probe_set(&self) -> ProbeSet {
        let s = |x: &str| x.to_string();
        let mut knn = Vec::new();
        let mut join = None;
        let mut two = None;
        for (_, spec) in &self.subs {
            match spec {
                QuerySpec::KnnSelect { relation, query } => {
                    knn.push((relation.clone(), query.focal, query.k))
                }
                QuerySpec::Filtered { spec, .. } => {
                    if let QuerySpec::KnnSelect { relation, query } = spec.as_ref() {
                        knn.push((relation.clone(), query.focal, query.k))
                    }
                }
                QuerySpec::SelectInnerOfJoin { query, .. } => {
                    join.get_or_insert(*query);
                }
                QuerySpec::TwoSelects { query, .. } => {
                    two.get_or_insert(*query);
                }
                _ => {}
            }
        }
        let join = join.expect("the workload subscribes select-inner joins");
        let focal = hot_region().center();
        let texts = self.reads(focal).to_vec();
        let batch = texts
            .iter()
            .filter_map(|t| self.db.parse_query(t).ok())
            .collect();
        ProbeSet {
            main: s("Vehicles"),
            knn,
            counting: (s("Sites"), s("Vehicles"), join),
            block_marking: (s("Sites"), s("Vehicles"), join),
            unchained: (
                [s("Sites"), s("Vehicles"), s("Sites")],
                two_knn::core::joins2::UnchainedJoinQuery::new(2, 2),
            ),
            chained: (
                [s("Sites"), s("Vehicles"), s("Sites")],
                two_knn::core::joins2::ChainedJoinQuery::new(2, 2),
            ),
            two_select: (
                s("Vehicles"),
                two.expect("the workload subscribes two-selects"),
            ),
            texts,
            batch,
            standing: self.subs.iter().map(|(_, spec)| spec.clone()).collect(),
            subscriptions: self.subs.iter().map(|(id, _)| *id).collect(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use two_knn::core::obs::counter_fields;

    fn ticks(seed: u64, n: u64) -> (Metrics, u64) {
        let mut w = build(
            seed,
            &Sizes::TINY,
            WorkDir::new(&format!("test-mo-{seed}-{n}")),
        )
        .unwrap();
        let before = w.db.store_metrics();
        let mut tracer = Tracer::new(false);
        let mut failures = 0;
        for id in 0..n {
            failures += w.request(&mut tracer, id).failures;
        }
        assert!(w.check_subscriptions().is_empty());
        assert!(w.problems.is_empty(), "{:?}", w.problems);
        let delta = w.db.store_metrics().diff(&before) + w.read_counters;
        (delta, failures)
    }

    #[test]
    fn ticks_settle_check_out_and_exact_counters_repeat() {
        let (a, fa) = ticks(3, 40);
        let (b, fb) = ticks(3, 40);
        assert_eq!((fa, fb), (0, 0));
        let exact = |m: &Metrics| -> Vec<(&str, u64)> {
            counter_fields(m)
                .into_iter()
                .filter(|(n, _)| EXACT_COUNTERS.contains(n))
                .collect()
        };
        assert_eq!(exact(&a), exact(&b));
        assert!(a.ingest_ops > 0 && a.wal_bytes > 0 && a.cq_reevals > 0);
    }
}
