//! What the three workloads share: data generation, the move generator,
//! row comparison, the closed loop, the run report, and provenance.

use std::path::{Path, PathBuf};
use std::time::Instant;

use two_knn::core::obs::counter_fields;
use two_knn::core::plan::{
    ChainedStrategy, Database, QuerySpec, Row, SelectInnerStrategy, SelectOuterStrategy,
    SelectStrategy, Strategy, TwoSelectsStrategy, UnchainedStrategy,
};
use two_knn::core::store::WriteOp;
use two_knn::datagen::rng::StdRng;
use two_knn::datagen::{berlinmod, clustered, BerlinModConfig, ClusterConfig};
use two_knn::geometry::{Point, Rect};
use two_knn::{GridIndex, Metrics};

use crate::json::Obj;
use crate::trace::Tracer;

/// Target points per occupied grid block, as in the paper-figure benches.
const TARGET_BLOCK_OCCUPANCY: usize = 64;

/// The city extent every generator draws in (100 km × 100 km, meters).
pub fn extent() -> Rect {
    two_knn::datagen::default_extent()
}

/// A grid index over the shared extent for a relation split into
/// `shards_per_axis²` shards. Every shard is rebuilt with the registered
/// grid's cells per axis, so the grid is coarsened by the shard count to
/// keep occupied blocks near [`TARGET_BLOCK_OCCUPANCY`] points.
pub fn grid(points: Vec<Point>, shards_per_axis: usize) -> GridIndex {
    let n = points.len().max(1);
    let cells = (n as f64 / TARGET_BLOCK_OCCUPANCY as f64).sqrt() / shards_per_axis as f64;
    let cells = (cells.ceil() as usize).clamp(2, 512);
    GridIndex::build_with_bounds(points, extent(), cells).expect("valid grid parameters")
}

/// BerlinMOD-like points (ids `0..n`).
pub fn berlin(n: usize, seed: u64) -> Vec<Point> {
    berlinmod(&BerlinModConfig::with_points(n, seed))
}

/// `per_cluster` points around each of `centers` (meters), ids `0..n`.
/// The centers are fixed, so query costs that depend on where clusters sit
/// relative to the city and to each other (two overlapping clusters can
/// turn an empty join result into 10⁵ rows) do not change with the seed;
/// the seed moves each center by up to 500 m and draws the points.
pub fn clusters_at(centers: &[(f64, f64)], per_cluster: usize, seed: u64) -> Vec<Point> {
    let mut points = Vec::with_capacity(centers.len() * per_cluster);
    for (i, &(x, y)) in centers.iter().enumerate() {
        let around = Rect::new(x - 2_500.0, y - 2_500.0, x + 2_500.0, y + 2_500.0);
        let cluster = clustered(&ClusterConfig {
            num_clusters: 1,
            points_per_cluster: per_cluster,
            cluster_radius: 2_000.0,
            extent: around,
            seed: seed + i as u64,
        });
        for p in cluster {
            points.push(Point::new(points.len() as u64, p.x, p.y));
        }
    }
    points
}

/// A point jittered uniformly by up to `radius` on each axis, kept inside
/// the extent.
pub fn jitter(rng: &mut StdRng, base: Point, radius: f64) -> Point {
    let e = extent();
    Point::anonymous(
        (base.x + rng.gen_range(-radius..radius)).clamp(e.min_x, e.max_x),
        (base.y + rng.gen_range(-radius..radius)).clamp(e.min_y, e.max_y),
    )
}

/// The moving-objects write generator: a seeded random walk of existing
/// vehicle ids. A fixed share of the moves jumps into a hot region instead
/// of stepping, so writes concentrate where the standing queries watch.
/// The generator tracks positions itself; the engine only sees the ops.
pub struct Mover {
    rng: StdRng,
    positions: Vec<Point>,
    hot: Rect,
}

impl Mover {
    /// Share of moves aimed at the hot region.
    pub const HOT_SHARE: f64 = 0.25;
    /// Largest random-walk step per axis, in meters.
    pub const STEP: f64 = 150.0;

    /// A walker over `positions` (indexed by id), jumping into `hot`.
    pub fn new(positions: Vec<Point>, hot: Rect, seed: u64) -> Self {
        debug_assert!(positions.iter().enumerate().all(|(i, p)| p.id == i as u64));
        Self {
            rng: StdRng::seed_from_u64(seed),
            positions,
            hot,
        }
    }

    /// The next batch of `n` upserts; positions are updated in place.
    pub fn batch(&mut self, n: usize) -> Vec<WriteOp> {
        let e = extent();
        (0..n)
            .map(|_| {
                let id = self.rng.gen_range(0..self.positions.len());
                let p = self.positions[id];
                let (x, y) = if self.rng.gen_bool(Self::HOT_SHARE) {
                    (
                        self.rng.gen_range(self.hot.min_x..self.hot.max_x),
                        self.rng.gen_range(self.hot.min_y..self.hot.max_y),
                    )
                } else {
                    (
                        (p.x + self.rng.gen_range(-Self::STEP..Self::STEP)).clamp(e.min_x, e.max_x),
                        (p.y + self.rng.gen_range(-Self::STEP..Self::STEP)).clamp(e.min_y, e.max_y),
                    )
                };
                let moved = Point::new(id as u64, x, y);
                self.positions[id] = moved;
                WriteOp::Upsert(moved)
            })
            .collect()
    }

    /// A random current position (for focal points that follow the data).
    pub fn sample_position(&mut self) -> Point {
        let id = self.rng.gen_range(0..self.positions.len());
        let p = self.positions[id];
        Point::anonymous(p.x, p.y)
    }
}

/// A row's identity: its point ids, padded with `u64::MAX`.
pub type RowKey = [u64; 3];

/// The sorted id tuples of a result — what "the same answer" means. kNN
/// ties break by `(distance, id)` in every strategy, so equal answers have
/// equal id sets.
pub fn row_keys(rows: &[Row]) -> Vec<RowKey> {
    let mut keys: Vec<RowKey> = rows
        .iter()
        .map(|row| {
            let mut key = [u64::MAX; 3];
            for (slot, id) in key.iter_mut().zip(row.ids()) {
                *slot = id;
            }
            key
        })
        .collect();
    keys.sort_unstable();
    keys
}

/// Milliseconds since `start`.
pub fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f` and returns its wall time in milliseconds with its result.
pub fn timed<R>(f: impl FnOnce() -> R) -> (f64, R) {
    let start = Instant::now();
    let out = f();
    (ms_since(start), out)
}

/// Runs `setup` `times` times and returns the median wall time in seconds
/// with the last instance; earlier instances are dropped (and cleaned up
/// by their own `Drop`) before the next starts.
pub fn repeated_setup<S>(times: usize, mut setup: impl FnMut(usize) -> S) -> (f64, S) {
    let mut secs = Vec::with_capacity(times);
    let mut last = None;
    for i in 0..times {
        drop(last.take());
        let (ms, s) = timed(|| setup(i));
        secs.push(ms / 1e3);
        last = Some(s);
    }
    let median = crate::stats::median(&secs).expect("at least one setup");
    (median, last.expect("at least one setup"))
}

/// How many times each run repeats its set-up to report a median.
pub const SETUPS_PER_RUN: usize = 5;

/// One closed-loop request's outcome.
pub struct Answered {
    /// Wall time of the request's timed span (answer checks excluded).
    pub latency_ms: f64,
    /// Query answers returned to the client by this request.
    pub answers: u64,
    /// Answers that failed or did not match their check.
    pub failures: u64,
}

/// A workload the closed loop can run.
pub trait Workload {
    /// Issues request `id`: opens the `request` root span around its timed
    /// part, and checks its answers outside that span.
    fn request(&mut self, tracer: &mut Tracer, id: u64) -> Answered;

    /// The fewest requests a run needs so every reported tail percentile
    /// has ten samples beyond it.
    fn min_requests(&self) -> usize;
}

/// What one run of a closed loop measured.
#[derive(Debug, Default)]
pub struct LoopStats {
    /// Timed-span wall time of every request, in milliseconds.
    pub latencies_ms: Vec<f64>,
    /// Query answers returned.
    pub answers: u64,
    /// Failed or mismatched answers.
    pub failures: u64,
    /// Sum of the requests' timed spans, in seconds.
    pub busy_s: f64,
}

/// Drives a closed loop: each request starts only after the previous one
/// returned. Runs for `seconds`, and beyond that until the workload's
/// minimum request count is reached; `traced(id)` says whether request
/// `id` records spans.
pub fn drive(
    workload: &mut impl Workload,
    seconds: f64,
    tracer: &mut Tracer,
    traced: impl Fn(u64) -> bool,
) -> LoopStats {
    let mut stats = LoopStats::default();
    let start = Instant::now();
    let min = workload.min_requests();
    let mut id = 0u64;
    while stats.latencies_ms.len() < min || start.elapsed().as_secs_f64() < seconds {
        tracer.set_enabled(traced(id));
        let answered = workload.request(tracer, id);
        stats.latencies_ms.push(answered.latency_ms);
        stats.busy_s += answered.latency_ms / 1e3;
        stats.answers += answered.answers;
        stats.failures += answered.failures;
        id += 1;
    }
    tracer.set_enabled(false);
    stats
}

/// The closed loop of one run. Untraced: one loop of `seconds`. Traced:
/// the same loop with tracing on for every other request, so traced and
/// untraced requests interleave over the same stretch of time; returns the
/// stats of all requests and the traced requests' median latency over the
/// untraced ones' (the tracing overhead).
pub fn measure(
    workload: &mut impl Workload,
    seconds: f64,
    tracer: &mut Tracer,
) -> (LoopStats, f64) {
    if !tracer.enabled() {
        return (drive(workload, seconds, tracer, |_| false), 1.0);
    }
    let stats = drive(workload, seconds, tracer, |id| id % 2 == 1);
    let split = |traced: bool| -> Vec<f64> {
        stats
            .latencies_ms
            .iter()
            .enumerate()
            .filter(|(i, _)| (i % 2 == 1) == traced)
            .map(|(_, v)| *v)
            .collect()
    };
    let overhead = crate::stats::ratio(
        crate::stats::median(&split(true)).unwrap_or(0.0),
        crate::stats::median(&split(false)).unwrap_or(0.0),
    );
    (stats, overhead)
}

/// The conceptually correct strategy for a query shape — the paper's
/// reference QEPs the fast algorithms must agree with.
pub fn reference_strategy(spec: &QuerySpec) -> Strategy {
    match spec {
        QuerySpec::SelectInnerOfJoin { .. } => {
            Strategy::SelectInner(SelectInnerStrategy::Conceptual)
        }
        QuerySpec::SelectOuterOfJoin { .. } => {
            Strategy::SelectOuter(SelectOuterStrategy::SelectAfterJoin)
        }
        QuerySpec::UnchainedJoins { .. } => Strategy::Unchained(UnchainedStrategy::Conceptual),
        QuerySpec::ChainedJoins { .. } => Strategy::Chained(ChainedStrategy::JoinIntersection),
        QuerySpec::TwoSelects { .. } => Strategy::TwoSelects(TwoSelectsStrategy::Conceptual),
        QuerySpec::KnnSelect { .. } => Strategy::Select(SelectStrategy::FilterThenScan),
        QuerySpec::Filtered { spec, .. } => reference_strategy(spec),
    }
}

/// The reference answer of `spec` on the database's current snapshot.
pub fn reference_rows(db: &Database, spec: &QuerySpec) -> Result<Vec<RowKey>, String> {
    db.execute_with(spec, reference_strategy(spec))
        .map(|r| row_keys(&r.rows()))
        .map_err(|e| e.to_string())
}

/// A named metric value with its unit.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// A list of metrics under construction.
#[derive(Debug, Default)]
pub struct MetricList {
    /// The metrics, in insertion order.
    pub items: Vec<Metric>,
}

impl MetricList {
    /// Adds a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        debug_assert!(value.is_finite(), "{name} = {value}");
        self.items.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The metrics as a JSON object `{name: {value, unit}}`.
    pub fn to_json(&self) -> String {
        let mut o = Obj::new();
        for m in &self.items {
            o = o.raw(
                &m.name,
                &Obj::new()
                    .num("value", m.value)
                    .str("unit", m.unit)
                    .render(),
            );
        }
        o.render()
    }
}

/// Everything a run reports besides the final line's metrics.
#[derive(Debug, Default)]
pub struct Report {
    /// Requests attempted in the measured loop.
    pub attempted: u64,
    /// Requests (or checks) that failed.
    pub failed: u64,
    /// A description of each failed check, for the log.
    pub problems: Vec<String>,
    /// The contract's end-to-end metrics (untraced run).
    pub end_to_end: MetricList,
    /// The contract's per-layer metrics (traced run).
    pub per_layer: MetricList,
    /// Workload-specific figures beside the contract's metrics, with their
    /// sample counts.
    pub details: MetricList,
    /// Run parameters: sizes, policies, chosen strategies.
    pub provenance: Vec<(String, String)>,
    /// The engine's counter delta over the measured loop.
    pub counters: Metrics,
    /// Counters that repeat exactly at a fixed seed and request count.
    pub exact_counters: &'static [&'static str],
    /// Spans and per-layer self times (traced run only).
    pub trace_lines: String,
}

impl Report {
    /// Records a failed check.
    pub fn fail(&mut self, problem: String) {
        self.failed += 1;
        self.problems.push(problem);
    }

    /// Adds a provenance entry.
    pub fn note(&mut self, key: &str, value: impl ToString) {
        self.provenance.push((key.to_string(), value.to_string()));
    }

    /// The counters line: the full delta, split into exact and varying.
    pub fn counters_json(&self, workload: &str) -> String {
        let mut delta = Obj::new();
        let mut varying = Vec::new();
        for (name, value) in counter_fields(&self.counters) {
            delta = delta.int(name, value);
            if !self.exact_counters.contains(&name) {
                varying.push(name);
            }
        }
        Obj::new()
            .str("type", "counters")
            .str("workload", workload)
            .int("requests", self.attempted)
            .raw("delta", &delta.render())
            .strs("exact", self.exact_counters)
            .strs("varying", &varying)
            .render()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`). Each run is
/// its own process, so this is the workload's peak.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .unwrap_or(0.0)
}

/// The repository root (the benchmark package's parent directory).
pub fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark package sits inside the repository")
        .to_path_buf()
}

/// The commit the benchmark was built from, read from `.git/HEAD`, or
/// `unknown` outside a git checkout.
pub fn commit() -> String {
    let git = repo_root().join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(id) = std::fs::read_to_string(git.join(reference)) {
        return id.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed
                .lines()
                .find_map(|l| l.strip_suffix(reference).map(|id| id.trim().to_string()))
        })
        .unwrap_or_else(|| "unknown".into())
}

/// A per-run scratch directory under the benchmark package, removed when
/// dropped.
pub struct WorkDir {
    path: PathBuf,
}

impl WorkDir {
    /// Creates `perfbench/work/<tag>-<pid>`, emptying any leftover.
    pub fn new(tag: &str) -> Self {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("work")
            .join(format!("{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&path);
        std::fs::create_dir_all(&path).expect("create the benchmark's work directory");
        Self { path }
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.path
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
        // Remove the shared parent too once no other run is using it.
        if let Some(parent) = self.path.parent() {
            let _ = std::fs::remove_dir(parent);
        }
    }
}

/// Total size in bytes of the files under `dir` whose name satisfies
/// `keep`, recursively.
pub fn dir_bytes(dir: &Path, keep: &dyn Fn(&str) -> bool) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    let mut total = 0;
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            total += dir_bytes(&path, keep);
        } else if keep(&entry.file_name().to_string_lossy()) {
            total += entry.metadata().map(|m| m.len()).unwrap_or(0);
        }
    }
    total
}

/// Every counter name, in `counter_fields` order.
pub const ALL_COUNTERS: [&str; 21] = [
    "neighborhoods_computed",
    "blocks_scanned",
    "locality_blocks",
    "points_scanned",
    "distance_computations",
    "tuples_emitted",
    "cache_hits",
    "cache_misses",
    "blocks_pruned",
    "shards_scanned",
    "shards_pruned",
    "points_pruned",
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

/// Bytes of user data per live point: an id and two coordinates.
pub const LIVE_BYTES_PER_POINT: f64 = 24.0;

/// Fills the contract's end-to-end metrics from a measured loop, plus the
/// error rate and sample count beside them.
pub fn end_to_end(report: &mut Report, setup_s: f64, stats: &LoopStats) {
    let lat = &stats.latencies_ms;
    report.attempted = lat.len() as u64;
    report.failed += stats.failures;
    let m = &mut report.end_to_end;
    m.put("setup_s", setup_s, "s");
    m.put("peak_rss_mb", peak_rss_mb(), "MB");
    m.put(
        "queries_per_s",
        crate::stats::ratio(stats.answers as f64, stats.busy_s),
        "1/s",
    );
    m.put(
        "request_p50_ms",
        crate::stats::median(lat).unwrap_or(0.0),
        "ms",
    );
    m.put(
        "request_p90_ms",
        crate::stats::tail(lat, 900).unwrap_or(0.0),
        "ms",
    );
    let d = &mut report.details;
    d.put("requests", lat.len() as f64, "count");
    d.put("answers", stats.answers as f64, "count");
    d.put(
        "error_rate",
        crate::stats::ratio(report.failed as f64, lat.len() as f64),
        "ratio",
    );
}

/// Adds a median and the named tail of `samples` to the details, with the
/// sample count; a tail the sample count cannot support is left out.
pub fn detail_timing(
    report: &mut Report,
    prefix: &str,
    samples: &[f64],
    scale: f64,
    unit: &'static str,
    tail_per_mille: usize,
) {
    let d = &mut report.details;
    let scaled: Vec<f64> = samples.iter().map(|v| v * scale).collect();
    if let Some(p50) = crate::stats::median(&scaled) {
        d.put(&format!("{prefix}_p50_{unit}"), p50, unit);
    }
    if let Some(t) = crate::stats::tail(&scaled, tail_per_mille) {
        d.put(
            &format!("{prefix}_p{}_{unit}", tail_per_mille / 10),
            t,
            unit,
        );
    }
    d.put(&format!("{prefix}_samples"), samples.len() as f64, "count");
}

/// Summarises the traced loop's spans into per-layer self-time lines,
/// writes every span to `perfbench/out/`, and fails the run when any
/// request's layer self times exceed its root span.
pub fn summarize_trace(report: &mut Report, workload: &str, seed: u64, tracer: &Tracer) {
    let summary = crate::trace::LayerSummary::of(tracer.spans());
    report.trace_lines = summary.to_json_lines(workload);
    if summary.over_root > 0 {
        report.fail(format!(
            "{} of {} traced requests have layer self times beyond their root span",
            summary.over_root, summary.requests
        ));
    }
    let out = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let file = out.join(format!("{workload}-seed{seed}.spans.jsonl"));
    let written = std::fs::create_dir_all(&out)
        .and_then(|()| std::fs::write(&file, crate::trace::spans_to_json_lines(tracer.spans())));
    if let Err(e) = written {
        eprintln!("perfbench: could not write {}: {e}", file.display());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_counters_follow_counter_fields() {
        let names: Vec<&str> = counter_fields(&Metrics::default())
            .iter()
            .map(|(name, _)| *name)
            .collect();
        assert_eq!(names, ALL_COUNTERS);
    }

    #[test]
    fn row_keys_pad_and_sort() {
        use two_knn::{Pair, Point};
        let p = |id| Point::new(id, 0.0, 0.0);
        let rows = vec![
            Row::Pair(Pair::new(p(5), p(1))),
            Row::Point(p(2)),
            Row::Pair(Pair::new(p(3), p(9))),
        ];
        assert_eq!(
            row_keys(&rows),
            vec![[2, u64::MAX, u64::MAX], [3, 9, u64::MAX], [5, 1, u64::MAX]]
        );
    }
}
