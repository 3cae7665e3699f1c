//! # twoknn-perfbench
//!
//! The repository's benchmark: one std-only program that runs three named
//! workloads against the public `Database` API of the two-kNN engine,
//! checks every answer, and prints every metric by name and unit.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <paper_mix|moving_objects|cold_open> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object with the keys
//! `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
//! with `--trace 0`, the per-layer metrics with `--trace 1`. The lines
//! before it give provenance, the engine's counter delta over the measured
//! loop (marked exact or varying), workload-specific figures, and, when
//! traced, per-layer self times; the traced run also writes every span to
//! `perfbench/out/`. The process exits 1 when any answer check fails and 2
//! on bad arguments.
//!
//! ## Load shape
//!
//! Every workload is a closed loop from one client thread: each request is
//! issued only after the previous one returned. The engine is built with
//! its `parallel` feature and runs on one shared worker pool of
//! `TWOKNN_THREADS` workers (set to the machine's core count when unset).
//! All inputs derive from `--seed`; the engine receives only the generated
//! points, ops and queries.
//!
//! ## Workloads
//!
//! * `paper_mix` — read-only `execute_batch` batches of the paper's query
//!   shapes (one parameter point per figure 19–26 plus select-on-outer)
//!   over compacted, 4×4-sharded, in-memory relations; the optimizer picks
//!   every strategy. *Why:* the kernels, `getkNN`, the paper's algorithms
//!   and batch scheduling do nearly all the work; the store write path, the
//!   continuous-query engine and the WAL do none. Flush policy: none (no
//!   durability).
//! * `moving_objects` — writes beside reads: a durable, 4×4-sharded
//!   `Vehicles` relation beside a static `Sites` relation, with three dozen
//!   standing queries. Each tick ingests one batch of random-walk moves
//!   (a quarter aimed at a hot region), waits until every subscription has
//!   caught up, polls them all, and issues textual reads (kNN, two-kNN,
//!   pre- and post-filtered) against the live delta overlay. *Why:* store
//!   ingest, standing-query guard probes and re-evaluations, and the
//!   parse → plan → compile fixed costs dominate; the paper's join
//!   algorithms are nearly absent, and reads run over uncompacted overlays.
//!   Flush policy: `SyncPolicy::Never` — the full WAL serialize, checksum
//!   and write path without fsync, whose latency on a shared machine is too
//!   noisy for a 10% bound.
//! * `cold_open` — set-up builds a durable directory (a large `Vehicles`
//!   plus `Sites`, checkpointed into shard block files, then a WAL tail of
//!   a few hundred move batches) and drops the instance without a
//!   checkpoint, i.e. crashes. Each request restores the crashed directory
//!   (untimed: `open` writes a fresh WAL segment), opens it, and answers a
//!   small fixed batch of kNN-selects touching a few shards. *Why:* the
//!   only workload where recovery, block-file lazy column decode and WAL
//!   replay dominate. Flush policy: `SyncPolicy::Never`.

mod cold_open;
mod common;
mod json;
mod layers;
mod moving_objects;
mod paper_mix;
mod stats;
mod trace;

use std::process::ExitCode;

use common::Report;
use json::Obj;

/// Parsed command-line arguments.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Seconds the measured loop runs.
    pub seconds: f64,
    /// Whether this is the traced (per-layer) run.
    pub trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (1u64, 10.0f64, false);
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must lie in (0, 3600]".into());
                }
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            other => return Err(format!("unknown argument {other}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args {
        workload,
        seed,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <paper_mix|moving_objects|cold_open> \
                 --seed <n> --seconds <s> --trace <0|1>"
            );
            return ExitCode::from(2);
        }
    };
    // Pin the pool before anything touches it: one worker per core unless
    // the caller chose otherwise.
    if std::env::var("TWOKNN_THREADS").is_err() {
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        std::env::set_var("TWOKNN_THREADS", cores.to_string());
    }
    let report = match args.workload.as_str() {
        "paper_mix" => paper_mix::run(&args),
        "moving_objects" => moving_objects::run(&args),
        "cold_open" => cold_open::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other}");
            return ExitCode::from(2);
        }
    };
    emit(&args, &report)
}

/// Prints the report; the last line is the contract's result object.
fn emit(args: &Args, report: &Report) -> ExitCode {
    let mut prov = Obj::new()
        .str("type", "provenance")
        .str("workload", &args.workload)
        .int("seed", args.seed)
        .num("seconds", args.seconds)
        .bool("trace", args.trace)
        .str("commit", &common::commit())
        .int(
            "nproc",
            std::thread::available_parallelism().map_or(1, |n| n.get()) as u64,
        )
        .str(
            "twoknn_threads",
            &std::env::var("TWOKNN_THREADS").unwrap_or_default(),
        )
        .str(
            "malloc_arena_max",
            &std::env::var("MALLOC_ARENA_MAX").unwrap_or_default(),
        )
        .bool(
            "parallel",
            two_knn::ExecutionMode::default_mode() == two_knn::ExecutionMode::Pooled,
        );
    for (k, v) in &report.provenance {
        prov = prov.str(k, v);
    }
    println!("{}", prov.render());
    println!("{}", report.counters_json(&args.workload));
    for m in &report.details.items {
        println!(
            "{}",
            Obj::new()
                .str("type", "detail")
                .str("name", &m.name)
                .num("value", m.value)
                .str("unit", m.unit)
                .render()
        );
    }
    print!("{}", report.trace_lines);
    for p in &report.problems {
        eprintln!("perfbench: check failed: {p}");
    }
    let correct = report.failed == 0;
    let metrics = if args.trace {
        &report.per_layer
    } else {
        &report.end_to_end
    };
    println!(
        "{}",
        Obj::new()
            .bool("correct", correct)
            .int("attempted", report.attempted.max(1))
            .int("failed", report.failed)
            .raw("metrics", &metrics.to_json())
            .render()
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
