//! `cold_open`: crash recovery followed by a first answer.
//!
//! Set-up builds a durable directory: a large 4×4-sharded `Vehicles` plus
//! `Sites` are registered and checkpointed into shard block files, then a
//! WAL tail of [`Sizes::tail_batches`] move batches is written and the
//! instance is dropped without a checkpoint — a crash. Each request opens
//! that directory (manifest, checksum-verified block files, WAL replay)
//! and answers a small fixed batch of kNN-selects around the hot region,
//! which touches only a few shards and decodes only their blocks' columns.
//!
//! `open` writes to the directory (it starts a fresh WAL segment), so
//! every request first restores the crashed directory from a pristine
//! copy, outside the timed span.

use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use two_knn::core::plan::{Database, QuerySpec};
use two_knn::core::select::KnnSelectQuery;
use two_knn::core::select_join::SelectInnerJoinQuery;
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::{DurabilityConfig, ShardConfig, StoreConfig, SyncPolicy};
use two_knn::core::WorkerPool;
use two_knn::datagen::rng::StdRng;
use two_knn::geometry::Point;
use two_knn::{Metrics, SpatialIndex};

use crate::common::{
    berlin, grid, jitter, ms_since, row_keys, Answered, Mover, RowKey, WorkDir, Workload,
};
use crate::layers::{FromRun, ProbeSet};
use crate::moving_objects::hot_region;
use crate::trace::Tracer;

/// Spatial shards per axis.
const SHARDS_PER_AXIS: usize = 4;
/// Moves per WAL-tail batch.
const BATCH: usize = 64;
/// kNN-selects in the first answer.
const FIRST_ANSWER: usize = 8;

/// Relation and WAL-tail sizes.
pub struct Sizes {
    /// Vehicles (the large relation).
    pub vehicles: usize,
    /// Sites.
    pub sites: usize,
    /// Un-checkpointed move batches in the WAL tail.
    pub tail_batches: usize,
}

impl Sizes {
    /// The sizes the benchmark runs.
    pub const BENCH: Sizes = Sizes {
        vehicles: 200_000,
        sites: 4_000,
        tail_batches: 200,
    };
    /// Small sizes for the benchmark's own tests.
    #[cfg(test)]
    pub const TINY: Sizes = Sizes {
        vehicles: 6_000,
        sites: 300,
        tail_batches: 20,
    };
}

fn store_config(dir: &std::path::Path) -> StoreConfig {
    StoreConfig {
        sharding: ShardConfig::per_axis(SHARDS_PER_AXIS),
        durability: DurabilityConfig::at(dir).with_sync(SyncPolicy::Never),
        ..StoreConfig::default()
    }
}

/// The crashed directory and what the crashed instance answered.
pub struct ColdOpen {
    /// The crashed store, never opened in place.
    pub pristine: WorkDir,
    /// Where each request restores and opens it.
    pub work: WorkDir,
    /// The first-answer batch.
    pub batch: Vec<QuerySpec>,
    /// Visible `(Vehicles, Sites)` points of the crashed instance.
    pub expected_points: (usize, usize),
    /// The crashed instance's answers to the batch.
    pub expected_rows: Vec<Vec<RowKey>>,
    /// The crashed instance's write counters (its WAL tail).
    pub writes: Metrics,
    /// Per-request open and first-answer times, milliseconds.
    pub open_ms: Vec<f64>,
    /// First-answer batch wall times, milliseconds.
    pub first_answer_ms: Vec<f64>,
    /// Counters of every open and first answer.
    pub counters: Metrics,
    /// Shards scanned by the first request's answer.
    pub first_shards_scanned: Option<u64>,
    /// Failed-check descriptions (first few).
    pub problems: Vec<String>,
}

/// Builds the crashed directory under `pristine`.
pub fn build(
    seed: u64,
    sizes: &Sizes,
    pristine: WorkDir,
    work: WorkDir,
) -> Result<ColdOpen, String> {
    let err = |e: two_knn::QueryError| e.to_string();
    let s = seed.wrapping_mul(1_000) + 700;
    let mut db = Database::with_pool_and_store_config(
        Arc::clone(WorkerPool::global()),
        store_config(pristine.path()),
    );
    let vehicles = berlin(sizes.vehicles, s + 1);
    db.register("Vehicles", grid(vehicles.clone(), SHARDS_PER_AXIS));
    db.register("Sites", grid(berlin(sizes.sites, s + 2), SHARDS_PER_AXIS));
    db.checkpoint();
    let mut mover = Mover::new(vehicles, hot_region(), s + 3);
    for _ in 0..sizes.tail_batches {
        db.ingest("Vehicles", &mover.batch(BATCH)).map_err(err)?;
        // One batch at a time, so which shards a background compaction
        // persisted is a function of the seed alone.
        db.pool().wait_idle();
    }
    let mut rng = StdRng::seed_from_u64(s + 4);
    let batch: Vec<QuerySpec> = (0..FIRST_ANSWER)
        .map(|i| QuerySpec::KnnSelect {
            relation: if i % 4 == 3 { "Sites" } else { "Vehicles" }.into(),
            query: KnnSelectQuery::new(16, jitter(&mut rng, hot_region().center(), 3_000.0)),
        })
        .collect();
    let expected_rows = answer(&db, &batch)?;
    let count = |name: &str| db.relation(name).map(|r| r.num_points()).map_err(err);
    let expected_points = (count("Vehicles")?, count("Sites")?);
    let writes = db.store_metrics();
    db.pool().wait_idle();
    drop(db); // a crash: no checkpoint since the WAL tail
    Ok(ColdOpen {
        pristine,
        work,
        batch,
        expected_points,
        expected_rows,
        writes,
        open_ms: Vec::new(),
        first_answer_ms: Vec::new(),
        counters: Metrics::default(),
        first_shards_scanned: None,
        problems: Vec::new(),
    })
}

/// Makes `work` hold the same files as `pristine`: extra files are removed,
/// missing or resized ones copied. Recurses into directories.
fn restore_tree(pristine: &Path, work: &Path) -> std::io::Result<()> {
    std::fs::create_dir_all(work)?;
    for entry in std::fs::read_dir(work)? {
        let entry = entry?;
        if !pristine.join(entry.file_name()).exists() {
            if entry.file_type()?.is_dir() {
                std::fs::remove_dir_all(entry.path())?;
            } else {
                std::fs::remove_file(entry.path())?;
            }
        }
    }
    for entry in std::fs::read_dir(pristine)? {
        let entry = entry?;
        let target = work.join(entry.file_name());
        if entry.file_type()?.is_dir() {
            restore_tree(&entry.path(), &target)?;
        } else if std::fs::metadata(&target).map(|m| m.len()).ok() != Some(entry.metadata()?.len())
        {
            std::fs::copy(entry.path(), &target)?;
        }
    }
    Ok(())
}

fn answer(db: &Database, batch: &[QuerySpec]) -> Result<Vec<Vec<RowKey>>, String> {
    db.execute_batch(batch)
        .into_iter()
        .map(|r| r.map(|r| row_keys(&r.rows())).map_err(|e| e.to_string()))
        .collect()
}

impl ColdOpen {
    /// Returns the work directory to the crashed state. `open` only adds
    /// a fresh WAL segment (and would truncate a torn tail), so files the
    /// crashed directory lacks are deleted and any file whose size changed
    /// is copied back; untouched block files are not rewritten.
    fn restore(&self) -> Result<(), String> {
        restore_tree(self.pristine.path(), self.work.path()).map_err(|e| format!("restore: {e}"))
    }

    /// Restores and opens the crashed directory (untimed), for the probes.
    pub fn open_restored(&self) -> Result<Database, String> {
        self.restore()?;
        Database::open_with_pool(
            self.work.path(),
            store_config(self.work.path()),
            Arc::clone(WorkerPool::global()),
        )
        .map_err(|e| e.to_string())
    }
}

impl Workload for ColdOpen {
    fn request(&mut self, tracer: &mut Tracer, id: u64) -> Answered {
        let mut failures = Vec::new();
        if let Err(e) = self.restore() {
            failures.push(e);
        }
        let dir = self.work.path().to_path_buf();
        let start = Instant::now();
        let (opened, results) = tracer.span("request", id, |t| {
            let opened = t.span("store.open", id, |t| {
                let db = Database::open_with_pool(
                    &dir,
                    store_config(&dir),
                    Arc::clone(WorkerPool::global()),
                );
                if let Ok(db) = &db {
                    t.counters(db.store_metrics());
                }
                db
            });
            self.open_ms.push(ms_since(start));
            let results = match &opened {
                Ok(db) => t.span("exec.execute_batch", id, |t| {
                    let results = db.execute_batch(&self.batch);
                    let mut work = Metrics::default();
                    for r in results.iter().flatten() {
                        work += r.metrics();
                    }
                    t.counters(work);
                    results
                }),
                Err(_) => Vec::new(),
            };
            (opened, results)
        });
        let latency_ms = ms_since(start);
        self.first_answer_ms
            .push(latency_ms - self.open_ms.last().copied().unwrap_or(0.0));
        let answers = results.len() as u64;
        match opened {
            Ok(db) => {
                self.counters += db.store_metrics();
                let mut scanned = 0;
                for (q, r) in results.into_iter().enumerate() {
                    match r {
                        Ok(r) => {
                            self.counters += r.metrics();
                            scanned += r.metrics().shards_scanned;
                            if row_keys(&r.rows()) != self.expected_rows[q] {
                                failures.push(format!("request {id} query {q}: rows differ"));
                            }
                        }
                        Err(e) => failures.push(format!("request {id} query {q}: {e}")),
                    }
                }
                self.first_shards_scanned.get_or_insert(scanned);
                let count = |name: &str| db.relation(name).map(|r| r.num_points()).ok();
                let points = (count("Vehicles"), count("Sites"));
                let (v, s) = self.expected_points;
                if points != (Some(v), Some(s)) {
                    failures.push(format!(
                        "request {id}: recovered {points:?} points, crashed instance had ({v}, {s})"
                    ));
                }
                db.pool().wait_idle();
            }
            Err(e) => failures.push(format!("request {id}: open: {e}")),
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
        crate::stats::min_samples_for(900)
    }
}

/// Every counter repeats: an open replays the same records into the same
/// block files, and the first answer runs on what that produced.
pub const EXACT_COUNTERS: &[&str] = &crate::common::ALL_COUNTERS;

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
            WorkDir::new(&format!("cold_open-pristine-{i}")),
            WorkDir::new(&format!("cold_open-open-{i}")),
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
        "wal_tail",
        format!("{} batches x {BATCH} moves", sizes.tail_batches),
    );
    report.note("first_answer", format!("{FIRST_ANSWER} kNN-selects, k=16"));

    let mut tracer = Tracer::new(args.trace);
    let (stats, overhead) = measure(&mut w, args.seconds, &mut tracer);
    report.counters = w.counters;
    report.problems.append(&mut w.problems);
    end_to_end(&mut report, setup_s, &stats);
    let (open, first) = (w.open_ms.clone(), w.first_answer_ms.clone());
    detail_timing(&mut report, "open", &open, 1.0, "ms", 900);
    detail_timing(&mut report, "first_answer", &first, 1.0, "ms", 900);

    if args.trace {
        summarize_trace(&mut report, &args.workload, args.seed, &tracer);
        let db = match w.open_restored() {
            Ok(db) => db,
            Err(e) => {
                report.fail(format!("open for the probes: {e}"));
                return report;
            }
        };
        let run = FromRun {
            write_counters: w.writes,
            durable_dir: Some(w.pristine.path().to_path_buf()),
            live_points: w.expected_points.0 + w.expected_points.1,
            first_answer_shards_scanned: w.first_shards_scanned.unwrap_or(0),
            trace_overhead_ratio: overhead,
            ..Default::default()
        };
        let set = w.probe_set();
        if let Err(e) =
            crate::layers::probe(&db, &set, &run, &mut report.per_layer, &mut report.details)
        {
            report.fail(format!("layer probes: {e}"));
        }
        db.pool().wait_idle();
    }
    report
}

impl ColdOpen {
    /// The probe parameters for the per-layer run.
    pub fn probe_set(&self) -> ProbeSet {
        let s = |x: &str| x.to_string();
        let knn: Vec<(String, Point, usize)> = self
            .batch
            .iter()
            .filter_map(|spec| match spec {
                QuerySpec::KnnSelect { relation, query } => {
                    Some((relation.clone(), query.focal, query.k))
                }
                _ => None,
            })
            .collect();
        let f = knn[0].1;
        let join = SelectInnerJoinQuery::new(4, 32, f);
        ProbeSet {
            main: s("Vehicles"),
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
                TwoSelectsQuery::new(8, f, 64, Point::anonymous(f.x + 1_200.0, f.y + 600.0)),
            ),
            texts: knn
                .iter()
                .map(|(r, f, k)| format!("FIND {r} WHERE KNN({k}, {:.1}, {:.1})", f.x, f.y))
                .collect(),
            knn,
            batch: self.batch.clone(),
            standing: Vec::new(),
            subscriptions: Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reopened_crash_answers_like_the_crashed_instance() {
        let mut w = build(
            4,
            &Sizes::TINY,
            WorkDir::new("test-cold-pristine"),
            WorkDir::new("test-cold-open"),
        )
        .unwrap();
        let mut tracer = Tracer::new(false);
        let first = w.request(&mut tracer, 0);
        let counters = w.counters;
        let second = w.request(&mut tracer, 1);
        assert_eq!(
            (first.failures, second.failures),
            (0, 0),
            "{:?}",
            w.problems
        );
        // Every counter repeats exactly from one open to the next.
        assert_eq!(w.counters.diff(&counters), counters);
        assert_eq!(counters.recoveries, 2);
    }
}
