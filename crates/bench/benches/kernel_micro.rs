//! Per-kernel micro-benchmarks pinning the throughput of the SoA hot loops,
//! each against its retained scalar/branchy ablation baseline:
//!
//! * **scan** — batched squared-distance pass over SoA columns
//!   ([`twoknn_geometry::euclidean_sq_batch`]) vs the per-point AoS loop
//!   ([`twoknn_geometry::baseline::euclidean_sq_scalar`]);
//! * **mindist** — branchless clamp-based [`twoknn_geometry::mindist_sq`]
//!   vs the branchy [`twoknn_geometry::baseline::mindist_sq_branchy`];
//! * **heap_update** — the "scan block, update kth-distance threshold"
//!   kernel ([`twoknn_index::KthHeap::scan_block`]) vs the gather-and-sort
//!   per-block baseline the batched path replaced;
//! * **get_knn** — the end-to-end select hot path:
//!   [`twoknn_index::get_knn_in`] (MINDIST walk, batched τ-gated scan,
//!   shared scratch) vs
//!   [`twoknn_index::get_knn_scalar`] (pre-SoA gather).
//!
//! Besides the usual min/median/max table, every kernel prints its
//! throughput in points/µs and the batched-over-scalar speedup. Batched and
//! scalar samples are interleaved (`BenchGroup::bench_pair`), so a slow
//! phase of the machine lands on both sides of a comparison.
//!
//! Usage: `cargo bench -p twoknn-bench --bench kernel_micro --
//! [--points N] [--smoke]`
//!
//! `--smoke` shrinks the workload for CI and **asserts** that no batched
//! kernel regresses behind its scalar baseline (with 25% slack for noisy
//! runners) — a cargo-bench-free perf smoke test; the process exits
//! non-zero on regression.

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_geometry::{baseline, euclidean_sq_batch, mindist_sq, Point, Rect};
use twoknn_index::{
    get_knn_in, get_knn_scalar, BlockPoints, KthHeap, Metrics, PointBlock, ScratchSpace,
    SpatialIndex,
};

/// Deterministic scatter over the workload extent.
fn scatter(n: usize, seed: u64) -> Vec<Point> {
    let extent = workloads::extent();
    (0..n)
        .map(|i| {
            let h = (i as u64).wrapping_mul(0x9E3779B97F4A7C15) ^ seed;
            Point::new(
                i as u64,
                extent.min_x + (h % 100_000) as f64 / 100_000.0 * extent.width(),
                extent.min_y + ((h >> 17) % 100_000) as f64 / 100_000.0 * extent.height(),
            )
        })
        .collect()
}

/// Query points spread over the extent (and a ring outside it, so MINDIST
/// sees both contained and distant configurations).
fn query_points(n: usize) -> Vec<Point> {
    let extent = workloads::extent();
    (0..n)
        .map(|i| {
            let t = i as f64 / n as f64;
            let off = if i % 3 == 0 { 1.2 } else { t };
            Point::anonymous(
                extent.min_x + off * extent.width(),
                extent.min_y + (1.0 - t) * extent.height(),
            )
        })
        .collect()
}

struct Kernel {
    label: &'static str,
    batched_median_ms: f64,
    scalar_median_ms: f64,
    /// Points processed per timed sample (for the throughput column).
    points_per_sample: f64,
}

impl Kernel {
    fn speedup(&self) -> f64 {
        self.scalar_median_ms / self.batched_median_ms
    }

    fn report(&self) {
        println!(
            "  {:<12} {:>9.1} points/us batched, {:>9.1} points/us scalar, speedup {:.2}x",
            self.label,
            self.points_per_sample / (self.batched_median_ms * 1e3),
            self.points_per_sample / (self.scalar_median_ms * 1e3),
            self.speedup(),
        );
    }
}

fn main() {
    let mut n_points = 200_000usize;
    let mut smoke = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--points" => {
                n_points = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--points takes a number");
            }
            "--smoke" => smoke = true,
            // `cargo bench` appends `--bench` to harness-less targets.
            "--bench" => {}
            other => {
                eprintln!("kernel_micro: unknown argument `{other}`");
                eprintln!("usage: kernel_micro [--points N] [--smoke]");
                std::process::exit(2);
            }
        }
    }
    if smoke {
        n_points = n_points.min(40_000);
    }

    let rows = scatter(n_points, 0xB10C);
    let block = PointBlock::from_points(&rows);
    let queries = query_points(16);
    // Every kernel is timed as an interleaved A/B pair (batched and scalar
    // alternate sample by sample), and the smoke run takes enough samples
    // that one bad scheduling window cannot move a median by itself.
    let mut group = BenchGroup::new("kernel_micro").sample_size(if smoke { 15 } else { 10 });
    let mut kernels: Vec<Kernel> = Vec::new();

    // --- scan: the distance pass at block granularity ----------------------
    // Index blocks hold a few hundred points and are cache-resident while
    // scanned, so the kernel is measured on a hot block — a full-dataset
    // sweep would measure DRAM bandwidth, not the loop. `reps` keeps the
    // total work equal to one pass over the whole dataset per query.
    const SCAN_BLOCK: usize = 512;
    let hot = PointBlock::from_points(&rows[..SCAN_BLOCK]);
    let hot_rows = &rows[..SCAN_BLOCK];
    let reps = n_points / SCAN_BLOCK;
    let mut dist = vec![0.0f64; SCAN_BLOCK];
    let mut scalar_dist = vec![0.0f64; SCAN_BLOCK];
    let (scan_batched, scan_scalar) = group.bench_pair(
        "scan/batched_soa",
        || {
            for q in &queries {
                for _ in 0..reps {
                    euclidean_sq_batch(q.x, q.y, hot.view().xs(), hot.view().ys(), &mut dist);
                    std::hint::black_box(dist[SCAN_BLOCK / 2]);
                }
            }
        },
        "scan/scalar_aos",
        || {
            for q in &queries {
                for _ in 0..reps {
                    baseline::euclidean_sq_scalar(q, hot_rows, &mut scalar_dist);
                    std::hint::black_box(scalar_dist[SCAN_BLOCK / 2]);
                }
            }
        },
    );
    kernels.push(Kernel {
        label: "scan",
        batched_median_ms: scan_batched.median_ms,
        scalar_median_ms: scan_scalar.median_ms,
        points_per_sample: (SCAN_BLOCK * reps * queries.len()) as f64,
    });

    // --- mindist: point-vs-rect lower bounds over a large block set --------
    let rects: Vec<Rect> = rows
        .chunks(16)
        .map(|c| Rect::bounding(c).expect("chunks are non-empty"))
        .collect();
    let (mindist_batched, mindist_scalar) = group.bench_pair(
        "mindist/branchless",
        || {
            let mut acc = 0.0f64;
            for q in &queries {
                for r in &rects {
                    acc += mindist_sq(q, r);
                }
            }
            std::hint::black_box(acc)
        },
        "mindist/branchy",
        || {
            let mut acc = 0.0f64;
            for q in &queries {
                for r in &rects {
                    acc += baseline::mindist_sq_branchy(q, r);
                }
            }
            std::hint::black_box(acc)
        },
    );
    kernels.push(Kernel {
        label: "mindist",
        batched_median_ms: mindist_batched.median_ms,
        scalar_median_ms: mindist_scalar.median_ms,
        points_per_sample: (rects.len() * queries.len()) as f64,
    });

    // --- heap_update: per-block kth-distance maintenance at k = 16 ---------
    // Blocks of 256 points, the granularity the indexes hand the kernel.
    const BLOCK: usize = 256;
    let k = 16;
    let view = block.view();
    let (ids, xs, ys) = (view.ids(), view.xs(), view.ys());
    let (heap_batched, heap_scalar) = group.bench_pair(
        "heap_update/kth_heap",
        || {
            let mut kth = KthHeap::new(k);
            let mut buf = Vec::new();
            for q in &queries {
                kth.reset(k);
                let mut at = 0;
                while at < n_points {
                    let end = (at + BLOCK).min(n_points);
                    let chunk =
                        BlockPoints::from_columns(&ids[at..end], &xs[at..end], &ys[at..end]);
                    kth.scan_block(q, chunk, &mut buf);
                    at = end;
                }
                std::hint::black_box(kth.threshold_sq());
            }
        },
        "heap_update/gather_sort",
        || {
            for q in &queries {
                // The pre-SoA shape: materialize every (distance, point)
                // pair, sort the lot, keep k.
                let mut all: Vec<(f64, Point)> =
                    rows.iter().map(|p| (q.distance_sq(p), *p)).collect();
                all.sort_by(|a, b| {
                    a.0.partial_cmp(&b.0)
                        .expect("finite distances")
                        .then(a.1.id.cmp(&b.1.id))
                });
                all.truncate(k);
                std::hint::black_box(all.last().map(|(d, _)| *d));
            }
        },
    );
    kernels.push(Kernel {
        label: "heap_update",
        batched_median_ms: heap_batched.median_ms,
        scalar_median_ms: heap_scalar.median_ms,
        points_per_sample: (n_points * queries.len()) as f64,
    });

    // --- get_knn: the end-to-end select hot path over a grid index ---------
    let index = workloads::berlin_relation(n_points.min(50_000), 4_242);
    let knn_queries = query_points(if smoke { 64 } else { 256 });
    let knn_k = 8;
    let mut scratch = ScratchSpace::new();
    let (knn_batched, knn_scalar) = group.bench_pair(
        "get_knn/batched",
        || {
            let mut metrics = Metrics::default();
            let mut acc = 0usize;
            for q in &knn_queries {
                acc += get_knn_in(&index, q, knn_k, &mut metrics, &mut scratch).len();
            }
            std::hint::black_box(acc)
        },
        "get_knn/scalar",
        || {
            let mut metrics = Metrics::default();
            let mut acc = 0usize;
            for q in &knn_queries {
                acc += get_knn_scalar(&index, q, knn_k, &mut metrics).len();
            }
            std::hint::black_box(acc)
        },
    );
    kernels.push(Kernel {
        label: "get_knn",
        batched_median_ms: knn_batched.median_ms,
        scalar_median_ms: knn_scalar.median_ms,
        points_per_sample: (index.num_points() * knn_queries.len()) as f64,
    });

    println!(
        "\n## kernel throughput ({n_points} points, {} queries)",
        queries.len()
    );
    for kernel in &kernels {
        kernel.report();
    }

    if smoke {
        // CI perf smoke: batched kernels must beat — or at the very least
        // not regress behind — their scalar baselines. 25% slack absorbs
        // noisy shared runners without letting a real regression through.
        let mut failed = false;
        for kernel in &kernels {
            if kernel.batched_median_ms > kernel.scalar_median_ms * 1.25 {
                eprintln!(
                    "SMOKE FAIL: {} batched path is {:.2}x SLOWER than the scalar baseline",
                    kernel.label,
                    1.0 / kernel.speedup(),
                );
                failed = true;
            }
        }
        if failed {
            std::process::exit(1);
        }
        println!("\nsmoke assertions passed: no batched kernel regresses vs its scalar baseline");
    }
}
