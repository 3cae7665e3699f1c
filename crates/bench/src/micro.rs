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
        let mut times: Vec<f64> = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                start.elapsed().as_secs_f64() * 1e3
            })
            .collect();
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_reports_ordered_summary() {
        let mut group = BenchGroup::new("test_group").sample_size(5);
        let s = group.bench("noop", || 1 + 1);
        assert!(s.min_ms <= s.median_ms && s.median_ms <= s.max_ms);
    }
}
