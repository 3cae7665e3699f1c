//! Machine-independent execution metrics.
//!
//! The paper's evaluation reports wall-clock execution time. Wall time on a
//! different machine, language and index implementation is not directly
//! comparable, so in addition to timing (done by the bench harness) every
//! algorithm in this workspace counts the *work* it performs. The dominant
//! cost in all of the paper's algorithms is computing the neighborhood of a
//! point (`getkNN`), followed by block scans, so those are the headline
//! counters.

/// Counters describing the work performed by an algorithm invocation.
///
/// All counters are cumulative; use [`Metrics::default`] for a fresh set and
/// `+=` to merge the work of sub-operations.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Metrics {
    /// Number of neighborhood (`getkNN`) computations performed.
    pub neighborhoods_computed: u64,
    /// Number of blocks read. In `getkNN` (the MINDIST walk) a block whose
    /// points went through the distance kernel; in the Counting test a block
    /// whose count was summed; in the Block-Marking-style algorithms an
    /// outer block that was classified; in [`crate::Locality`] construction
    /// a block taken from its MAXDIST/MINDIST order.
    pub blocks_scanned: u64,
    /// Number of blocks admitted to a `getkNN` walk: non-empty blocks of a
    /// visited partition with MINDIST within τ (and the search threshold)
    /// when the partition's walk began. [`crate::Locality`] construction
    /// counts the blocks it adds to the locality.
    pub locality_blocks: u64,
    /// Number of individual points examined (distance computed or compared).
    pub points_scanned: u64,
    /// Number of point-to-point distance computations.
    pub distance_computations: u64,
    /// Number of output tuples (pairs or triplets) emitted.
    pub tuples_emitted: u64,
    /// Number of neighborhood-cache hits (chained-join cached QEP3).
    pub cache_hits: u64,
    /// Number of neighborhood-cache misses.
    pub cache_misses: u64,
    /// Number of blocks pruned without per-point processing: in `getkNN`,
    /// the non-empty blocks of a visited partition that the walk never read
    /// (refused admission, or left in the walk when it stopped past τ); in
    /// the paper's algorithms, Non-Contributing blocks in Block-Marking,
    /// contour cut-offs, ...
    pub blocks_pruned: u64,
    /// Number of spatial shards (relation partitions) whose blocks were
    /// actually visited by a scatter-gather kNN scan.
    pub shards_scanned: u64,
    /// Number of spatial shards skipped wholesale because their MINDIST²
    /// from the query exceeded the running k-th distance τ² (or the query's
    /// distance bound) — the paper's block pruning lifted one level up.
    pub shards_pruned: u64,
    /// Number of outer points skipped without a neighborhood computation
    /// (e.g. by the Counting algorithm's threshold test).
    pub points_pruned: u64,
    /// Number of write operations (inserts/removes/updates) applied to
    /// versioned relations.
    pub ingest_ops: u64,
    /// Number of background index rebuilds (compactions) published — each one
    /// advances a relation's snapshot epoch.
    pub compactions: u64,
    /// Number of individual shards rebuilt by compactions. With a single-shard
    /// relation this equals `compactions`; with a sharded relation it counts
    /// the dirty shards that were actually folded (clean shards are skipped).
    pub shards_compacted: u64,
    /// Number of standing-query re-evaluations scheduled by the
    /// continuous-query maintainer (a publish intersected the subscription's
    /// guard region, or the engine runs in re-evaluate-all mode).
    pub cq_reevals: u64,
    /// Number of standing-query re-evaluations *skipped* because the publish
    /// provably could not change the subscription's result (every write fell
    /// outside its guard region) — the guard's pruning power, observable.
    pub cq_skips: u64,
    /// Number of batch records appended to write-ahead logs.
    pub wal_appends: u64,
    /// Total bytes appended to write-ahead logs (record framing included).
    pub wal_bytes: u64,
    /// Number of store checkpoints taken (dirty shards spilled to block
    /// files, obsolete WAL segments trimmed).
    pub checkpoints: u64,
    /// Number of relations recovered from disk at open (block files loaded,
    /// WAL suffix replayed).
    pub recoveries: u64,
}

impl Metrics {
    /// A fresh, zeroed metrics record.
    pub fn new() -> Self {
        Self::default()
    }

    /// Total number of "expensive" operations: neighborhood computations plus
    /// block scans. A convenient single scalar for plotting experiment shapes.
    pub fn work(&self) -> u64 {
        self.neighborhoods_computed + self.blocks_scanned
    }

    /// Folds another record into this one, field by field.
    ///
    /// This is the merge step of parallel execution: every worker thread
    /// accumulates into its own `Metrics` and the driver merges them, so a
    /// parallel run reports the same totals as the equivalent serial run
    /// (the counters are sums of schedule-independent per-item work).
    pub fn merge(&mut self, other: &Metrics) {
        *self += *other;
    }

    /// The per-field delta `self − before`, saturating at zero.
    ///
    /// This is how an execution tracer attributes work to a span: snapshot
    /// the cumulative counters before and after, diff them. Saturation
    /// (rather than wrapping) keeps the result meaningful for the one
    /// non-monotone counter — `tuples_emitted` can be *reset downward* by a
    /// residual row filter — and for diffs taken across unrelated records.
    pub fn diff(&self, before: &Metrics) -> Metrics {
        Metrics {
            neighborhoods_computed: self
                .neighborhoods_computed
                .saturating_sub(before.neighborhoods_computed),
            blocks_scanned: self.blocks_scanned.saturating_sub(before.blocks_scanned),
            locality_blocks: self.locality_blocks.saturating_sub(before.locality_blocks),
            points_scanned: self.points_scanned.saturating_sub(before.points_scanned),
            distance_computations: self
                .distance_computations
                .saturating_sub(before.distance_computations),
            tuples_emitted: self.tuples_emitted.saturating_sub(before.tuples_emitted),
            cache_hits: self.cache_hits.saturating_sub(before.cache_hits),
            cache_misses: self.cache_misses.saturating_sub(before.cache_misses),
            blocks_pruned: self.blocks_pruned.saturating_sub(before.blocks_pruned),
            shards_scanned: self.shards_scanned.saturating_sub(before.shards_scanned),
            shards_pruned: self.shards_pruned.saturating_sub(before.shards_pruned),
            points_pruned: self.points_pruned.saturating_sub(before.points_pruned),
            ingest_ops: self.ingest_ops.saturating_sub(before.ingest_ops),
            compactions: self.compactions.saturating_sub(before.compactions),
            shards_compacted: self
                .shards_compacted
                .saturating_sub(before.shards_compacted),
            cq_reevals: self.cq_reevals.saturating_sub(before.cq_reevals),
            cq_skips: self.cq_skips.saturating_sub(before.cq_skips),
            wal_appends: self.wal_appends.saturating_sub(before.wal_appends),
            wal_bytes: self.wal_bytes.saturating_sub(before.wal_bytes),
            checkpoints: self.checkpoints.saturating_sub(before.checkpoints),
            recoveries: self.recoveries.saturating_sub(before.recoveries),
        }
    }
}

impl std::ops::AddAssign for Metrics {
    fn add_assign(&mut self, rhs: Self) {
        self.neighborhoods_computed += rhs.neighborhoods_computed;
        self.blocks_scanned += rhs.blocks_scanned;
        self.locality_blocks += rhs.locality_blocks;
        self.points_scanned += rhs.points_scanned;
        self.distance_computations += rhs.distance_computations;
        self.tuples_emitted += rhs.tuples_emitted;
        self.cache_hits += rhs.cache_hits;
        self.cache_misses += rhs.cache_misses;
        self.blocks_pruned += rhs.blocks_pruned;
        self.shards_scanned += rhs.shards_scanned;
        self.shards_pruned += rhs.shards_pruned;
        self.points_pruned += rhs.points_pruned;
        self.ingest_ops += rhs.ingest_ops;
        self.compactions += rhs.compactions;
        self.shards_compacted += rhs.shards_compacted;
        self.cq_reevals += rhs.cq_reevals;
        self.cq_skips += rhs.cq_skips;
        self.wal_appends += rhs.wal_appends;
        self.wal_bytes += rhs.wal_bytes;
        self.checkpoints += rhs.checkpoints;
        self.recoveries += rhs.recoveries;
    }
}

impl std::ops::Add for Metrics {
    type Output = Metrics;

    fn add(mut self, rhs: Self) -> Self::Output {
        self += rhs;
        self
    }
}

/// Appends `label=value` to `line`, space-separated, when `value` is nonzero.
fn push_field(line: &mut String, label: &str, value: u64) {
    if value > 0 {
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(label);
        line.push('=');
        line.push_str(&value.to_string());
    }
}

/// Appends `label=a/b` to `line` when the pair carries any count.
fn push_ratio(line: &mut String, label: &str, a: u64, b: u64) {
    if a + b > 0 {
        if !line.is_empty() {
            line.push(' ');
        }
        line.push_str(label);
        line.push('=');
        line.push_str(&a.to_string());
        line.push('/');
        line.push_str(&b.to_string());
    }
}

impl std::fmt::Display for Metrics {
    /// Grouped, zero-suppressed rendering: one line per subsystem section
    /// (read path / write path / durability / cq), fields with a zero count
    /// omitted, sections with no work omitted entirely. An all-zero record
    /// renders as `no work recorded` so the output is never empty.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let mut read = String::new();
        push_field(&mut read, "knn", self.neighborhoods_computed);
        push_field(&mut read, "blocks", self.blocks_scanned);
        push_field(&mut read, "blocks_pruned", self.blocks_pruned);
        push_field(&mut read, "locality_blocks", self.locality_blocks);
        push_field(&mut read, "pts", self.points_scanned);
        push_field(&mut read, "pts_pruned", self.points_pruned);
        push_field(&mut read, "dist", self.distance_computations);
        push_field(&mut read, "emitted", self.tuples_emitted);
        push_ratio(
            &mut read,
            "shards",
            self.shards_scanned,
            self.shards_scanned + self.shards_pruned,
        );
        push_ratio(
            &mut read,
            "cache",
            self.cache_hits,
            self.cache_hits + self.cache_misses,
        );

        let mut write_path = String::new();
        push_field(&mut write_path, "ingest", self.ingest_ops);
        push_field(&mut write_path, "compactions", self.compactions);
        push_field(&mut write_path, "shards_compacted", self.shards_compacted);

        let mut durability = String::new();
        push_field(&mut durability, "wal_appends", self.wal_appends);
        push_field(&mut durability, "wal_bytes", self.wal_bytes);
        push_field(&mut durability, "checkpoints", self.checkpoints);
        push_field(&mut durability, "recoveries", self.recoveries);

        let mut cq = String::new();
        push_ratio(
            &mut cq,
            "reevals",
            self.cq_reevals,
            self.cq_reevals + self.cq_skips,
        );

        let sections = [
            ("read path", read),
            ("write path", write_path),
            ("durability", durability),
            ("cq", cq),
        ];
        let mut any = false;
        for (title, body) in &sections {
            if body.is_empty() {
                continue;
            }
            if any {
                writeln!(f)?;
            }
            write!(f, "{title}: {body}")?;
            any = true;
        }
        if !any {
            write!(f, "no work recorded")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_assign_accumulates_every_field() {
        let mut a = Metrics {
            neighborhoods_computed: 1,
            blocks_scanned: 2,
            locality_blocks: 3,
            points_scanned: 4,
            distance_computations: 5,
            tuples_emitted: 6,
            cache_hits: 7,
            cache_misses: 8,
            blocks_pruned: 9,
            shards_scanned: 15,
            shards_pruned: 16,
            points_pruned: 10,
            ingest_ops: 11,
            compactions: 12,
            shards_compacted: 17,
            cq_reevals: 13,
            cq_skips: 14,
            wal_appends: 18,
            wal_bytes: 19,
            checkpoints: 20,
            recoveries: 21,
        };
        a += a;
        assert_eq!(a.neighborhoods_computed, 2);
        assert_eq!(a.points_pruned, 20);
        assert_eq!(a.ingest_ops, 22);
        assert_eq!(a.compactions, 24);
        assert_eq!(a.cq_reevals, 26);
        assert_eq!(a.cq_skips, 28);
        assert_eq!(a.shards_scanned, 30);
        assert_eq!(a.shards_pruned, 32);
        assert_eq!(a.shards_compacted, 34);
        assert_eq!(a.wal_appends, 36);
        assert_eq!(a.wal_bytes, 38);
        assert_eq!(a.checkpoints, 40);
        assert_eq!(a.recoveries, 42);
        assert_eq!(a.work(), 2 + 4);
    }

    #[test]
    fn merge_matches_add_assign() {
        let a = Metrics {
            neighborhoods_computed: 2,
            cache_hits: 5,
            ..Metrics::default()
        };
        let b = Metrics {
            neighborhoods_computed: 3,
            blocks_pruned: 7,
            ..Metrics::default()
        };
        let mut merged = a;
        merged.merge(&b);
        assert_eq!(merged, a + b);
    }

    #[test]
    fn add_is_consistent_with_add_assign() {
        let a = Metrics {
            neighborhoods_computed: 2,
            ..Metrics::default()
        };
        let b = Metrics {
            blocks_scanned: 3,
            ..Metrics::default()
        };
        let c = a + b;
        assert_eq!(c.neighborhoods_computed, 2);
        assert_eq!(c.blocks_scanned, 3);
        assert_eq!(c.work(), 5);
    }

    #[test]
    fn diff_subtracts_per_field_and_saturates() {
        let before = Metrics {
            neighborhoods_computed: 2,
            blocks_scanned: 10,
            tuples_emitted: 50,
            wal_bytes: 100,
            ..Metrics::default()
        };
        let after = Metrics {
            neighborhoods_computed: 7,
            blocks_scanned: 11,
            // A residual filter can reset `tuples_emitted` downward.
            tuples_emitted: 30,
            wal_bytes: 164,
            cq_reevals: 3,
            ..Metrics::default()
        };
        let d = after.diff(&before);
        assert_eq!(d.neighborhoods_computed, 5);
        assert_eq!(d.blocks_scanned, 1);
        assert_eq!(d.tuples_emitted, 0, "saturates instead of wrapping");
        assert_eq!(d.wal_bytes, 64);
        assert_eq!(d.cq_reevals, 3);
        // diff against self is all-zero, and (before + diff) recovers the
        // monotone fields.
        assert_eq!(after.diff(&after), Metrics::default());
        assert_eq!((before + d).wal_bytes, after.wal_bytes);
    }

    #[test]
    fn display_groups_sections_and_suppresses_zeroes() {
        assert_eq!(Metrics::default().to_string(), "no work recorded");

        let read_only = Metrics {
            neighborhoods_computed: 4,
            points_scanned: 90,
            ..Metrics::default()
        };
        let s = read_only.to_string();
        assert_eq!(s, "read path: knn=4 pts=90");
        assert!(!s.contains("wal"), "zero durability section is suppressed");

        let mixed = Metrics {
            neighborhoods_computed: 4,
            ingest_ops: 2,
            wal_appends: 2,
            wal_bytes: 128,
            cq_reevals: 1,
            cq_skips: 3,
            ..Metrics::default()
        };
        let s = mixed.to_string();
        let lines: Vec<&str> = s.lines().collect();
        assert_eq!(
            lines,
            vec![
                "read path: knn=4",
                "write path: ingest=2",
                "durability: wal_appends=2 wal_bytes=128",
                "cq: reevals=1/4",
            ]
        );
    }
}
