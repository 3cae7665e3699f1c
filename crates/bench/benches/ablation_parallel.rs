//! Ablation A3: serial vs multi-core execution of the hot paths.
//!
//! Compares [`ExecutionMode::Serial`] against [`ExecutionMode::Pooled`] on
//! a [`WorkerPool`] of `--threads` workers for Block-Marking
//! (select-inner-of-join) and the unchained two-join Block-Marking on a
//! 100k-point BerlinMOD-like workload, and prints the speedups together
//! with the core count — the parallel paths only pay off on multi-core
//! hardware (build with `--features parallel`; without the feature, pooled
//! mode falls back to serial and the speedup is ~1×).
//!
//! Usage: `cargo bench -p twoknn-bench --bench ablation_parallel --
//! [--points N] [--threads N]`

use twoknn_bench::micro::BenchGroup;
use twoknn_bench::workloads;
use twoknn_core::exec::{available_threads, ExecutionMode, WorkerPool};
use twoknn_core::joins2::{unchained_block_marking_with_mode, UnchainedJoinQuery};
use twoknn_core::select_join::{block_marking_with_mode, BlockMarkingConfig, SelectInnerJoinQuery};

fn main() {
    let mut points = 100_000usize;
    let mut threads = available_threads();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--points" => {
                i += 1;
                points = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(points);
            }
            "--threads" => {
                i += 1;
                threads = args.get(i).and_then(|v| v.parse().ok()).unwrap_or(threads);
            }
            // Ignore harness flags cargo bench forwards (e.g. --bench).
            _ => {}
        }
        i += 1;
    }
    let pool = WorkerPool::new(threads);
    println!(
        "ablation_parallel: {points} outer points, {threads} worker threads \
         ({} hardware threads, parallel feature {})",
        available_threads(),
        if cfg!(feature = "parallel") {
            "ON"
        } else {
            "OFF — pooled falls back to serial"
        },
    );

    // Block-Marking: select-inner-of-join on a 100k outer relation.
    {
        let outer = workloads::berlin_relation(points, 191);
        let inner = workloads::berlin_relation(32_000, 192);
        let query = SelectInnerJoinQuery::new(8, 8, workloads::focal_point());
        let cfg = BlockMarkingConfig::default();
        let mut group = BenchGroup::new("parallel_block_marking").sample_size(5);
        let serial = group.bench("serial", || {
            block_marking_with_mode(&outer, &inner, &query, &cfg, ExecutionMode::Serial)
        });
        let par = group.bench(&format!("parallel_{threads}_threads"), || {
            pool.bind(|| {
                block_marking_with_mode(&outer, &inner, &query, &cfg, ExecutionMode::Pooled)
            })
        });
        println!(
            "block-marking speedup: {:.2}x (serial {:.1} ms -> parallel {:.1} ms)",
            serial.median_ms / par.median_ms,
            serial.median_ms,
            par.median_ms
        );
    }

    // Unchained two-join Block-Marking: A clustered, B/C BerlinMOD-like.
    {
        let a = workloads::clustered_relation_sized(4, 4_000, 193);
        let b = workloads::berlin_relation(points / 2, 194);
        let c = workloads::berlin_relation(points, 195);
        let query = UnchainedJoinQuery::new(2, 2);
        let mut group = BenchGroup::new("parallel_unchained_joins").sample_size(5);
        let serial = group.bench("serial", || {
            unchained_block_marking_with_mode(&a, &b, &c, &query, ExecutionMode::Serial)
        });
        let par = group.bench(&format!("parallel_{threads}_threads"), || {
            pool.bind(|| {
                unchained_block_marking_with_mode(&a, &b, &c, &query, ExecutionMode::Pooled)
            })
        });
        println!(
            "unchained-join speedup: {:.2}x (serial {:.1} ms -> parallel {:.1} ms)",
            serial.median_ms / par.median_ms,
            serial.median_ms,
            par.median_ms
        );
    }
}
