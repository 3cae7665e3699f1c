//! A minimal micro-benchmark harness for the `benches/` targets.
//!
//! The workspace builds without external dependencies, so the bench targets
//! are plain `harness = false` binaries using this module: per benchmark it
//! warms up once, runs a fixed number of samples, and prints min / median /
//! max wall-clock milliseconds. The output is a stable, grep-friendly table
//! — good enough for the relative comparisons these benches exist for
//! (algorithm A vs algorithm B on the same workload), though it does no
//! outlier analysis or confidence intervals.

use std::time::Instant;

/// A named group of related benchmarks, printed as one table.
pub struct BenchGroup {
    name: String,
    samples: usize,
}

/// The timing summary of one benchmark, in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    /// Fastest sample.
    pub min_ms: f64,
    /// Median sample.
    pub median_ms: f64,
    /// Slowest sample.
    pub max_ms: f64,
}

impl BenchGroup {
    /// Creates a group and prints its header.
    pub fn new(name: &str) -> Self {
        println!("\n## {name}");
        println!(
            "{:<44} {:>12} {:>12} {:>12}",
            "benchmark", "min ms", "median ms", "max ms"
        );
        Self {
            name: name.to_string(),
            samples: 10,
        }
    }

    /// Sets the number of measured samples (default 10).
    pub fn sample_size(mut self, samples: usize) -> Self {
        self.samples = samples.max(1);
        self
    }

    /// Runs one benchmark: a warm-up call, then `samples` timed calls.
    /// Returns the summary (also printed as a table row).
    pub fn bench<T>(&mut self, label: &str, mut f: impl FnMut() -> T) -> Summary {
        std::hint::black_box(f());
        let times: Vec<f64> = (0..self.samples).map(|_| time_ms(&mut f)).collect();
        self.report(label, times)
    }

    /// Runs two benchmarks as an A/B pair: one warm-up call each, then
    /// `samples` rounds that each time one call of both, alternating which
    /// goes first. A slow scheduling window or a bad placement phase then
    /// hits both sides of the comparison instead of all samples of one.
    /// Returns both summaries (also printed as two table rows).
    pub fn bench_pair<A, B>(
        &mut self,
        label_a: &str,
        mut a: impl FnMut() -> A,
        label_b: &str,
        mut b: impl FnMut() -> B,
    ) -> (Summary, Summary) {
        std::hint::black_box(a());
        std::hint::black_box(b());
        let (mut times_a, mut times_b) = (Vec::new(), Vec::new());
        for round in 0..self.samples {
            if round % 2 == 0 {
                times_a.push(time_ms(&mut a));
                times_b.push(time_ms(&mut b));
            } else {
                times_b.push(time_ms(&mut b));
                times_a.push(time_ms(&mut a));
            }
        }
        (self.report(label_a, times_a), self.report(label_b, times_b))
    }

    /// Summarizes and prints one benchmark's sample times.
    fn report(&self, label: &str, mut times: Vec<f64>) -> Summary {
        times.sort_by(|a, b| a.partial_cmp(b).expect("finite times"));
        let summary = Summary {
            min_ms: times[0],
            median_ms: times[times.len() / 2],
            max_ms: times[times.len() - 1],
        };
        println!(
            "{:<44} {:>12.3} {:>12.3} {:>12.3}",
            format!("{}/{}", self.name, label),
            summary.min_ms,
            summary.median_ms,
            summary.max_ms
        );
        summary
    }
}

/// Wall-clock milliseconds of one call of `f`.
fn time_ms<T>(f: &mut impl FnMut() -> T) -> f64 {
    let start = Instant::now();
    std::hint::black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_summary() {
        let mut group = BenchGroup::new("test_group").sample_size(5);
        let s = group.bench("noop", || 1 + 1);
        assert!(s.min_ms <= s.median_ms && s.median_ms <= s.max_ms);
    }

    #[test]
    fn bench_pair_runs_both_sides_once_per_round() {
        let (mut calls_a, mut calls_b) = (0, 0);
        let mut group = BenchGroup::new("test_pair").sample_size(7);
        let (a, b) = group.bench_pair("a", || calls_a += 1, "b", || calls_b += 1);
        // One warm-up call each, then one call each per round.
        assert_eq!((calls_a, calls_b), (8, 8));
        for s in [a, b] {
            assert!(s.min_ms <= s.median_ms && s.median_ms <= s.max_ms);
        }
    }
}
