//! The per-layer probes of the traced run.
//!
//! Each probe calls one layer's public functions directly, on the
//! workload's own pinned relation snapshots and query parameters, and
//! records time next to the engine's work counters. The same probe code
//! runs on every workload; a workload supplies its relations, its (focal,
//! k) set, its query shapes and what its measured loop counted. Probes
//! that write (compaction, overlay folding) run last.

use std::hint::black_box;
use std::path::PathBuf;
use std::time::Instant;

use two_knn::core::joins2::{
    chained_join_intersection, chained_nested, chained_nested_cached, chained_right_deep,
    unchained_block_marking, unchained_conceptual, ChainedJoinQuery, UnchainedJoinQuery,
};
use two_knn::core::plan::{ChainedStrategy, Database, QuerySpec, Strategy, UnchainedStrategy};
use two_knn::core::select_join::{block_marking, counting, SelectInnerJoinQuery};
use two_knn::core::selects2::{two_knn_select, TwoSelectsQuery};
use two_knn::core::{ExecutionMode, SubscriptionId};
use two_knn::geometry::{euclidean_sq_batch, mindist, Point};
use two_knn::index::{get_knn_in, ScratchSpace};
use two_knn::{Metrics, SpatialIndex};

use crate::common::{dir_bytes, ms_since, timed, MetricList, Mover, LIVE_BYTES_PER_POINT};
use crate::stats::{median, ratio};

/// The workload's relations and query parameters the probes run on.
pub struct ProbeSet {
    /// The relation the write probes ingest into and compact.
    pub main: String,
    /// `(relation, focal, k)`: the workload's kNN parameter set.
    pub knn: Vec<(String, Point, usize)>,
    /// `(outer, inner, query)` for the Counting algorithm.
    pub counting: (String, String, SelectInnerJoinQuery),
    /// `(outer, inner, query)` for the Block-Marking algorithm.
    pub block_marking: (String, String, SelectInnerJoinQuery),
    /// `[A, B, C]` of an unchained two-join and its parameters.
    pub unchained: ([String; 3], UnchainedJoinQuery),
    /// `[A, B, C]` of a chained two-join and its parameters.
    pub chained: ([String; 3], ChainedJoinQuery),
    /// A two-kNN-select.
    pub two_select: (String, TwoSelectsQuery),
    /// Textual queries for the parse → plan → compile → execute probes.
    pub texts: Vec<String>,
    /// A batch for the batch-scheduling probe.
    pub batch: Vec<QuerySpec>,
    /// Standing-query specs; one `execute` each is one re-evaluation's cost.
    pub standing: Vec<QuerySpec>,
    /// The workload's live subscriptions (polled by the poll probe).
    pub subscriptions: Vec<SubscriptionId>,
}

/// What the workload's own loop measured that per-layer metrics derive from.
#[derive(Debug, Default)]
pub struct FromRun {
    /// Counter delta of the workload's writes (ingest, WAL, compaction).
    pub write_counters: Metrics,
    /// Counter delta of the standing-query maintenance in the loop.
    pub cq_counters: Metrics,
    /// Requests (ticks) the cq counters cover.
    pub requests: u64,
    /// The durable directory a reopen would read, if any.
    pub durable_dir: Option<PathBuf>,
    /// Live points across every relation (the user data size).
    pub live_points: usize,
    /// Shards scanned by the first request after set-up (or open).
    pub first_answer_shards_scanned: u64,
    /// Median `detached_in_flight()` right after ingest, if the loop ingests.
    pub detached_backlog: Option<f64>,
    /// Median latency of the traced requests ÷ that of the untraced ones,
    /// interleaved in one loop.
    pub trace_overhead_ratio: f64,
}

/// Median per-call milliseconds of `f`: each sample repeats `f` until it
/// covers at least half a millisecond, so microsecond calls are not
/// dominated by timer resolution.
fn per_call_ms(samples: usize, mut f: impl FnMut()) -> f64 {
    let mut reps = 1usize;
    loop {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        if ms_since(start) >= 0.5 || reps >= 1 << 20 {
            break;
        }
        reps *= 2;
    }
    let mut per_call = Vec::with_capacity(samples);
    for _ in 0..samples {
        let start = Instant::now();
        for _ in 0..reps {
            f();
        }
        per_call.push(ms_since(start) / reps as f64);
    }
    median(&per_call).expect("at least one sample")
}

const SAMPLES: usize = 7;

/// Runs every probe and appends the per-layer metrics to `out`, plus the
/// bases of the ratio metrics to `details`.
pub fn probe(
    db: &Database,
    set: &ProbeSet,
    run: &FromRun,
    out: &mut MetricList,
    details: &mut MetricList,
) -> Result<(), String> {
    let err = |e: two_knn::QueryError| e.to_string();
    let main = db.relation(&set.main).map_err(err)?;

    // geometry: the batched distance pass and MINDIST over the main
    // relation's own block columns and MBRs.
    let blocks = main.blocks().to_vec();
    let queries: Vec<Point> = set.knn.iter().map(|(_, f, _)| *f).collect();
    let mut dist = vec![0.0; blocks.iter().map(|b| b.count).max().unwrap_or(0)];
    let mut scanned = 0usize;
    let dist_ms = per_call_ms(SAMPLES, || {
        scanned = 0;
        for q in &queries {
            for b in &blocks {
                let pts = main.block_points(b.id);
                let n = pts.len();
                euclidean_sq_batch(q.x, q.y, pts.xs(), pts.ys(), &mut dist[..n]);
                black_box(&dist);
                scanned += n;
            }
        }
    });
    out.put(
        "geometry.dist_points_per_us",
        ratio(scanned as f64, dist_ms * 1e3),
        "1/us",
    );
    let mindist_ms = per_call_ms(SAMPLES, || {
        for q in &queries {
            for b in &blocks {
                black_box(mindist(black_box(q), &b.mbr));
            }
        }
    });
    let calls = (queries.len() * blocks.len()) as f64;
    out.put(
        "geometry.mindist_per_us",
        ratio(calls, mindist_ms * 1e3),
        "1/us",
    );

    // index: getkNN on the pinned snapshots with the workload's (focal, k).
    let (knn_us, knn_work) = knn_probe(db, &set.knn)?;
    let n_knn = set.knn.len() as f64;
    out.put("index.getknn_us", knn_us, "us");
    out.put(
        "index.points_per_knn",
        ratio(
            knn_work.points_scanned as f64,
            knn_work.neighborhoods_computed as f64,
        ),
        "count",
    );
    out.put(
        "index.block_prune_ratio",
        ratio(
            knn_work.blocks_pruned as f64,
            (knn_work.blocks_scanned + knn_work.blocks_pruned) as f64,
        ),
        "ratio",
    );
    out.put(
        "store.shard_prune_ratio",
        ratio(
            knn_work.shards_pruned as f64,
            (knn_work.shards_scanned + knn_work.shards_pruned) as f64,
        ),
        "ratio",
    );
    details.put("index.getknn_probes", n_knn, "count");

    // select_join: both algorithms called directly.
    let (o, i, q) = &set.counting;
    let (outer, inner) = (db.relation(o).map_err(err)?, db.relation(i).map_err(err)?);
    let mut counting_calls = 0;
    let counting_ms = per_call_ms(SAMPLES, || {
        counting_calls = counting(&*outer, &*inner, q).metrics.neighborhoods_computed;
    });
    let (o, i, q) = &set.block_marking;
    let (outer, inner) = (db.relation(o).map_err(err)?, db.relation(i).map_err(err)?);
    let mut bm_calls = 0;
    let bm_ms = per_call_ms(SAMPLES, || {
        bm_calls = block_marking(&*outer, &*inner, q)
            .metrics
            .neighborhoods_computed;
    });
    out.put("select_join.counting_ms", counting_ms, "ms");
    out.put("select_join.block_marking_ms", bm_ms, "ms");
    out.put(
        "select_join.knn_calls",
        (counting_calls + bm_calls) as f64 / 2.0,
        "count",
    );

    // joins2: the algorithm the optimizer picks for each shape.
    let ([a, b, c], uq) = &set.unchained;
    let spec = QuerySpec::UnchainedJoins {
        a: a.clone(),
        b: b.clone(),
        c: c.clone(),
        query: *uq,
    };
    let strategy = db.plan(&spec).map_err(err)?;
    let (ra, rb, rc) = (
        db.relation(a).map_err(err)?,
        db.relation(b).map_err(err)?,
        db.relation(c).map_err(err)?,
    );
    let mut unchained_calls = 0;
    let unchained_ms = per_call_ms(SAMPLES, || {
        let out = match strategy {
            Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithA) => {
                unchained_block_marking(&*ra, &*rb, &*rc, uq)
            }
            Strategy::Unchained(UnchainedStrategy::BlockMarkingStartWithC) => {
                let swapped = UnchainedJoinQuery::new(uq.k_cb, uq.k_ab);
                unchained_block_marking(&*rc, &*rb, &*ra, &swapped)
            }
            _ => unchained_conceptual(&*ra, &*rb, &*rc, uq),
        };
        unchained_calls = out.metrics.neighborhoods_computed;
    });
    let ([a, b, c], cq) = &set.chained;
    let spec = QuerySpec::ChainedJoins {
        a: a.clone(),
        b: b.clone(),
        c: c.clone(),
        query: *cq,
    };
    let strategy = db.plan(&spec).map_err(err)?;
    let (ra, rb, rc) = (
        db.relation(a).map_err(err)?,
        db.relation(b).map_err(err)?,
        db.relation(c).map_err(err)?,
    );
    let mut chained_work = Metrics::default();
    let chained_ms = per_call_ms(SAMPLES, || {
        let out = match strategy {
            Strategy::Chained(ChainedStrategy::RightDeep) => {
                chained_right_deep(&*ra, &*rb, &*rc, cq)
            }
            Strategy::Chained(ChainedStrategy::JoinIntersection) => {
                chained_join_intersection(&*ra, &*rb, &*rc, cq)
            }
            Strategy::Chained(ChainedStrategy::NestedJoin) => chained_nested(&*ra, &*rb, &*rc, cq),
            _ => chained_nested_cached(&*ra, &*rb, &*rc, cq),
        };
        chained_work = out.metrics;
    });
    out.put("joins2.unchained_ms", unchained_ms, "ms");
    out.put("joins2.chained_ms", chained_ms, "ms");
    out.put(
        "joins2.knn_calls",
        (unchained_calls + chained_work.neighborhoods_computed) as f64 / 2.0,
        "count",
    );
    out.put(
        "joins2.chained_cache_hit_ratio",
        ratio(
            chained_work.cache_hits as f64,
            (chained_work.cache_hits + chained_work.cache_misses) as f64,
        ),
        "ratio",
    );

    // selects2.
    let (r, q) = &set.two_select;
    let rel = db.relation(r).map_err(err)?;
    let mut two_calls = 0;
    let two_ms = per_call_ms(SAMPLES, || {
        two_calls = two_knn_select(&*rel, q).metrics.neighborhoods_computed;
    });
    out.put("selects2.two_select_us", two_ms * 1e3, "us");
    out.put("selects2.knn_calls", two_calls as f64, "count");

    // plan: parse → plan → compile → execute, one call at a time.
    let (mut parse, mut plan, mut compile, mut execute) = (0.0, 0.0, 0.0, 0.0);
    for text in &set.texts {
        let spec = db.parse_query(text).map_err(err)?;
        parse += per_call_ms(SAMPLES, || {
            black_box(db.parse_query(black_box(text)).is_ok());
        });
        let plan_ms = per_call_ms(SAMPLES, || {
            black_box(db.plan(&spec).is_ok());
        });
        plan += plan_ms;
        let compile_ms = per_call_ms(SAMPLES, || {
            black_box(db.compile_planned(&spec).is_ok());
        });
        compile += (compile_ms - plan_ms).max(0.0);
        let physical = db.compile_planned(&spec).map_err(err)?;
        execute += per_call_ms(SAMPLES, || {
            black_box(physical.execute(ExecutionMode::default_mode()).num_rows());
        });
    }
    let texts = set.texts.len() as f64;
    out.put("plan.parse_us", parse * 1e3 / texts, "us");
    out.put("plan.plan_us", plan * 1e3 / texts, "us");
    out.put("plan.compile_us", compile * 1e3 / texts, "us");
    out.put("plan.execute_us", execute * 1e3 / texts, "us");

    // exec: serial per-query time summed, over the batch's wall time.
    let mut serial = Vec::new();
    let mut batched = Vec::new();
    for _ in 0..SAMPLES {
        let mut sum = 0.0;
        for spec in &set.batch {
            let (ms, r) = timed(|| db.execute_with_mode(spec, ExecutionMode::Serial));
            r.map_err(err)?;
            sum += ms;
        }
        serial.push(sum);
        let (ms, results) = timed(|| db.execute_batch(&set.batch));
        for r in results {
            r.map_err(err)?;
        }
        batched.push(ms);
    }
    let (serial_ms, batch_ms) = (
        median(&serial).unwrap_or(0.0),
        median(&batched).unwrap_or(0.0),
    );
    out.put("exec.batch_speedup", ratio(serial_ms, batch_ms), "ratio");
    details.put("exec.batch_speedup.serial_sum_ms", serial_ms, "ms");
    details.put("exec.batch_speedup.batch_wall_ms", batch_ms, "ms");
    details.put(
        "exec.batch_speedup.queries",
        set.batch.len() as f64,
        "count",
    );

    // store read path.
    let pin_ms = per_call_ms(SAMPLES, || {
        black_box(db.snapshot());
    });
    out.put("store.snapshot_pin_us", pin_ms * 1e3, "us");

    // cq: polling cost and one re-evaluation's execute.
    let mut subs = set.subscriptions.clone();
    if subs.is_empty() {
        // A workload without standing queries gets one probe subscription
        // over its first textual query, so the cq layer is still measured.
        subs.push(db.subscribe_query(&set.texts[0]).map_err(err)?);
    }
    for &sub in &subs {
        db.poll(sub).map_err(err)?;
    }
    let poll_ms = per_call_ms(SAMPLES, || {
        for &sub in &subs {
            black_box(db.poll(sub).map(|d| d.len()).unwrap_or(0));
        }
    }) / subs.len() as f64;
    out.put("cq.poll_us", poll_ms * 1e3, "us");
    let standing: Vec<QuerySpec> = if set.standing.is_empty() {
        vec![db.parse_query(&set.texts[0]).map_err(err)?]
    } else {
        set.standing.clone()
    };
    let exec_ms = per_call_ms(SAMPLES, || {
        for spec in &standing {
            black_box(db.execute(spec).map(|r| r.num_rows()).unwrap_or(0));
        }
    }) / standing.len() as f64;
    out.put("cq.standing_exec_ms", exec_ms, "ms");
    let cq = run.cq_counters;
    let ticks = run.requests as f64;
    out.put(
        "cq.reevals_per_tick",
        ratio(cq.cq_reevals as f64, ticks),
        "count",
    );
    out.put(
        "cq.skips_per_tick",
        ratio(cq.cq_skips as f64, ticks),
        "count",
    );
    out.put(
        "cq.reeval_ratio",
        ratio(cq.cq_reevals as f64, (cq.cq_reevals + cq.cq_skips) as f64),
        "ratio",
    );

    // store write path, from the workload's own writes.
    let w = run.write_counters;
    out.put(
        "store.wal_bytes_per_op",
        ratio(w.wal_bytes as f64, w.ingest_ops as f64),
        "B",
    );
    out.put(
        "store.compactions_per_kop",
        ratio(w.shards_compacted as f64 * 1000.0, w.ingest_ops as f64),
        "count",
    );
    details.put("store.write_ops", w.ingest_ops as f64, "count");
    let (disk, blockfiles) = match &run.durable_dir {
        Some(dir) => (
            dir_bytes(dir, &|_| true),
            dir_bytes(dir, &|name| name.ends_with(".blk")),
        ),
        None => (0, 0),
    };
    out.put(
        "store.disk_bytes_per_live_byte",
        ratio(disk as f64, run.live_points as f64 * LIVE_BYTES_PER_POINT),
        "ratio",
    );
    out.put("store.open_blockfile_bytes", blockfiles as f64, "B");
    out.put(
        "store.first_answer_shards_scanned",
        run.first_answer_shards_scanned as f64,
        "count",
    );
    out.put(
        "obs.trace_overhead_ratio",
        run.trace_overhead_ratio,
        "ratio",
    );

    // Writes from here on. Overlay cost: getkNN on the live snapshot over
    // getkNN after folding every overlay into its shard base.
    // Both sides are timed back to back, so machine drift between the
    // first probe and this one does not enter the ratio.
    db.pool().wait_idle();
    let (live_us, _) = knn_probe(db, &set.knn)?;
    db.compact_now(&set.main).map_err(err)?;
    let (compacted_us, _) = knn_probe(db, &set.knn)?;
    out.put(
        "store.overlay_read_ratio",
        ratio(live_us, compacted_us),
        "ratio",
    );

    // Compaction of a dirty relation, and the pool backlog an ingest
    // leaves behind.
    let mut positions = db.relation(&set.main).map_err(err)?.merged_points();
    positions.sort_unstable_by_key(|p| p.id);
    let contiguous = positions.iter().enumerate().all(|(i, p)| p.id == i as u64);
    if !contiguous {
        return Err(format!("`{}` ids are not 0..n", set.main));
    }
    let mut mover = Mover::new(positions, crate::common::extent(), 0x5EED);
    let mut compact = Vec::new();
    let mut backlog = Vec::new();
    for _ in 0..SAMPLES {
        db.pool().wait_idle();
        // Below the background threshold per shard, so compact_now has the
        // whole fold to do.
        db.ingest(&set.main, &mover.batch(256)).map_err(err)?;
        backlog.push(db.pool().detached_in_flight() as f64);
        db.pool().wait_idle();
        let (ms, r) = timed(|| db.compact_now(&set.main));
        r.map_err(err)?;
        compact.push(ms);
    }
    out.put("store.compact_ms", median(&compact).unwrap_or(0.0), "ms");
    out.put(
        "exec.detached_backlog",
        run.detached_backlog
            .unwrap_or_else(|| median(&backlog).unwrap_or(0.0)),
        "count",
    );
    db.pool().wait_idle();
    Ok(())
}

/// Median per-call getkNN microseconds over the set, with one pass's
/// counters.
fn knn_probe(db: &Database, set: &[(String, Point, usize)]) -> Result<(f64, Metrics), String> {
    let snaps = set
        .iter()
        .map(|(r, _, _)| db.relation(r).map_err(|e| e.to_string()))
        .collect::<Result<Vec<_>, _>>()?;
    let mut scratch = ScratchSpace::new();
    let mut work = Metrics::default();
    for (snap, (_, focal, k)) in snaps.iter().zip(set) {
        black_box(get_knn_in(&**snap, focal, *k, &mut work, &mut scratch));
    }
    let ms = per_call_ms(SAMPLES, || {
        let mut m = Metrics::default();
        for (snap, (_, focal, k)) in snaps.iter().zip(set) {
            black_box(get_knn_in(&**snap, focal, *k, &mut m, &mut scratch));
        }
    });
    Ok((ms * 1e3 / set.len() as f64, work))
}
