//! Crash-recovery equivalence for the durability subsystem: a database that
//! ingests through mixed workloads (with mid-stream compactions) and then
//! *crashes* — dropped without a checkpoint — must, after
//! [`Database::open`], answer **exactly** like an instance that never
//! crashed, for every query shape × index family × sharded/unsharded
//! layout. Plus the failure-injection suite: a torn WAL tail keeps every
//! fully written batch and drops the tail cleanly; a flipped byte in a
//! block file or manifest surfaces as [`RecoveryError`], never a panic; and
//! a batch — including a cross-shard move — replays atomically or not at
//! all.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

use two_knn::core::joins2::{ChainedJoinQuery, UnchainedJoinQuery};
use two_knn::core::plan::{Database, QuerySpec};
use two_knn::core::select_join::{SelectInnerJoinQuery, SelectOuterJoinQuery};
use two_knn::core::selects2::TwoSelectsQuery;
use two_knn::core::store::{DurabilityConfig, ShardConfig, StoreConfig, SyncPolicy, WriteOp};
use two_knn::core::{RecoveryError, WorkerPool};
use two_knn::{GridIndex, Point, QuadtreeIndex, SpatialIndex, StrRTree};

/// A process-unique scratch directory, removed on drop (best-effort — a
/// panicking test leaves it for the OS tmp reaper).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> Self {
        static COUNTER: AtomicU64 = AtomicU64::new(0);
        let n = COUNTER.fetch_add(1, Ordering::Relaxed);
        let dir = std::env::temp_dir().join(format!(
            "twoknn-durability-{}-{tag}-{n}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        TempDir(dir)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// The store lays a relation's state under `rel-<hex(name)>/`.
fn rel_dir(root: &Path, name: &str) -> PathBuf {
    let hex: String = name.bytes().map(|b| format!("{b:02x}")).collect();
    root.join(format!("rel-{hex}"))
}

/// The relation's WAL segment files, sorted by segment index.
fn wal_segments(rel: &Path) -> Vec<PathBuf> {
    let mut segs: Vec<PathBuf> = std::fs::read_dir(rel)
        .unwrap()
        .map(|e| e.unwrap().path())
        .filter(|p| {
            p.file_name()
                .is_some_and(|n| n.to_string_lossy().starts_with("wal-"))
        })
        .collect();
    segs.sort();
    segs
}

/// Byte ranges `(start, end)` of the complete records in a WAL segment,
/// parsed from the `[len][crc][payload]` framing.
fn record_ranges(buf: &[u8]) -> Vec<(usize, usize)> {
    let mut at = 0;
    let mut out = Vec::new();
    while at + 8 <= buf.len() {
        let len = u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 8 + len;
        if end > buf.len() {
            break;
        }
        out.push((at, end));
        at = end;
    }
    out
}

/// Irregular, tie-free point cloud over roughly [0, 110]².
fn scattered(n: usize, id_base: u64, seed: u64) -> Vec<Point> {
    (0..n as u64)
        .map(|i| {
            let h = (i ^ seed).wrapping_mul(0x9E3779B97F4A7C15);
            let x = (h % 100_000) as f64 * 0.0011;
            let y = ((h / 100_000) % 100_000) as f64 * 0.0011;
            Point::new(id_base + i, x, y)
        })
        .collect()
}

/// The visible point set of a relation, sorted by id — the ground truth two
/// instances are compared on.
fn visible_points(db: &Database, name: &str) -> Vec<Point> {
    let mut pts = db.relation(name).unwrap().all_points();
    pts.sort_unstable_by_key(|p| p.id);
    pts
}

fn id_rows(result: &two_knn::core::plan::QueryResult) -> Vec<Vec<u64>> {
    let mut ids: Vec<Vec<u64>> = result.rows().iter().map(|r| r.ids()).collect();
    ids.sort_unstable();
    ids
}

/// Every query shape the planner knows, all touching the mutable relation
/// ("Objects") in a different role.
fn all_query_shapes() -> Vec<QuerySpec> {
    let focal = Point::anonymous(55.0, 55.0);
    vec![
        QuerySpec::TwoSelects {
            relation: "Objects".into(),
            query: TwoSelectsQuery::new(6, focal, 40, Point::anonymous(40.0, 60.0)),
        },
        QuerySpec::SelectInnerOfJoin {
            outer: "Sites".into(),
            inner: "Objects".into(),
            query: SelectInnerJoinQuery::new(2, 3, focal),
        },
        QuerySpec::SelectOuterOfJoin {
            outer: "Objects".into(),
            inner: "Sites".into(),
            query: SelectOuterJoinQuery::new(2, 4, focal),
        },
        QuerySpec::UnchainedJoins {
            a: "Sites".into(),
            b: "Objects".into(),
            c: "Aux".into(),
            query: UnchainedJoinQuery::new(2, 2),
        },
        QuerySpec::ChainedJoins {
            a: "Aux".into(),
            b: "Objects".into(),
            c: "Sites".into(),
            query: ChainedJoinQuery::new(2, 2),
        },
    ]
}

/// Mixed write workload: inserts (some outside the original extent),
/// removes, and moves — including moves that cross shard boundaries.
fn write_stages() -> Vec<Vec<WriteOp>> {
    let mut stage1: Vec<WriteOp> = Vec::new();
    for (i, p) in scattered(30, 10_000, 77).into_iter().enumerate() {
        stage1.push(WriteOp::Upsert(p));
        if i % 3 == 0 {
            stage1.push(WriteOp::Remove(i as u64 * 7));
        }
    }
    let mut stage2: Vec<WriteOp> = Vec::new();
    for (i, p) in scattered(12, 100, 555).into_iter().enumerate() {
        stage2.push(WriteOp::Upsert(Point::new(
            p.id,
            109.0 - (i as f64) * 7.3,
            (i as f64) * 8.9,
        )));
    }
    stage2.push(WriteOp::Upsert(Point::new(20_000, 130.0, 130.0)));
    let mut stage3: Vec<WriteOp> = Vec::new();
    for p in scattered(20, 30_000, 991) {
        stage3.push(WriteOp::Upsert(p));
    }
    stage3.push(WriteOp::Remove(10_001));
    stage3.push(WriteOp::Remove(77));
    vec![stage1, stage2, stage3]
}

fn install_family(db: &mut Database, family: &str, initial: &[Point]) {
    match family {
        "grid" => {
            db.register("Objects", GridIndex::build(initial.to_vec(), 8).unwrap());
        }
        "quadtree" => {
            db.register(
                "Objects",
                QuadtreeIndex::build(initial.to_vec(), 32).unwrap(),
            );
        }
        _ => {
            db.register("Objects", StrRTree::build(initial.to_vec(), 32).unwrap());
        }
    }
}

fn store_config(shards_per_axis: usize, durability: DurabilityConfig) -> StoreConfig {
    StoreConfig {
        compaction_threshold: 48, // small: compactions interleave with ingest
        sharding: ShardConfig::per_axis(shards_per_axis),
        durability,
        ..StoreConfig::default()
    }
}

#[test]
fn crash_recovery_matches_a_never_crashed_instance() {
    let initial = scattered(900, 0, 3);
    let sites = GridIndex::build(scattered(250, 50_000, 4), 6).unwrap();
    let aux = GridIndex::build(scattered(120, 80_000, 9), 5).unwrap();

    for family in ["grid", "quadtree", "rtree"] {
        for shards_per_axis in [1, 3] {
            let tag = format!("{family}-{shards_per_axis}");
            let tmp = TempDir::new(&tag);
            let durable_cfg = store_config(shards_per_axis, DurabilityConfig::at(tmp.path()));

            let mut memory = Database::with_store_config(store_config(
                shards_per_axis,
                DurabilityConfig::Disabled,
            ));
            {
                // Scope the durable instance so it *drops* — no checkpoint,
                // no graceful shutdown: the on-disk state is whatever the
                // WAL and any finished shard spills left behind.
                let mut durable = Database::with_store_config(durable_cfg.clone());
                for db in [&mut durable, &mut memory] {
                    install_family(db, family, &initial);
                    db.register("Sites", sites.clone());
                    db.register("Aux", aux.clone());
                }
                for (stage, ops) in write_stages().iter().enumerate() {
                    durable.ingest("Objects", ops).unwrap();
                    memory.ingest("Objects", ops).unwrap();
                    if stage == 1 {
                        // Mid-stream: fold dirty shards (persisting block
                        // files on the durable side) so recovery exercises
                        // block files + a WAL suffix, not the WAL alone.
                        durable.compact_now("Objects").unwrap();
                        memory.compact_now("Objects").unwrap();
                    }
                }
                assert!(
                    durable.store_metrics().wal_appends >= 3,
                    "{tag}: every batch must be logged"
                );
            }

            let reopened = Database::open(tmp.path(), durable_cfg.clone()).unwrap();
            assert_eq!(
                reopened.store_metrics().recoveries,
                3,
                "{tag}: all three relations recover"
            );
            assert_eq!(
                reopened.relation_names(),
                vec!["Aux", "Objects", "Sites"],
                "{tag}"
            );
            assert_eq!(
                reopened.relation("Objects").unwrap().num_shards(),
                shards_per_axis * shards_per_axis,
                "{tag}: sharding layout comes back from the manifest"
            );
            for name in ["Objects", "Sites", "Aux"] {
                assert_eq!(
                    visible_points(&reopened, name),
                    visible_points(&memory, name),
                    "{tag}: visible set of {name} diverged after recovery"
                );
            }
            for (i, spec) in all_query_shapes().iter().enumerate() {
                assert_eq!(
                    id_rows(&reopened.execute(spec).unwrap()),
                    id_rows(&memory.execute(spec).unwrap()),
                    "{tag}: query shape #{i} diverged after recovery"
                );
            }

            // Life goes on after recovery: more ingest (compacting the
            // recovered block-file bases into the manifest'd index family)
            // must stay equivalent.
            let more: Vec<WriteOp> = scattered(40, 60_000, 1234)
                .into_iter()
                .map(WriteOp::Upsert)
                .chain([WriteOp::Remove(30_003), WriteOp::Remove(20_000)])
                .collect();
            reopened.ingest("Objects", &more).unwrap();
            memory.ingest("Objects", &more).unwrap();
            reopened.compact_now("Objects").unwrap();
            memory.compact_now("Objects").unwrap();
            assert_eq!(
                visible_points(&reopened, "Objects"),
                visible_points(&memory, "Objects"),
                "{tag}: post-recovery ingest diverged"
            );
            for (i, spec) in all_query_shapes().iter().enumerate() {
                assert_eq!(
                    id_rows(&reopened.execute(spec).unwrap()),
                    id_rows(&memory.execute(spec).unwrap()),
                    "{tag}: query shape #{i} diverged after post-recovery ingest"
                );
            }
        }
    }
}

#[test]
fn checkpoint_trims_wal_and_survives_reopen() {
    let tmp = TempDir::new("checkpoint");
    // Tiny segments so the workload rolls several of them.
    let durability = DurabilityConfig::Enabled {
        dir: tmp.path().to_path_buf(),
        sync: SyncPolicy::EveryN(4),
        segment_bytes: 512,
    };
    let cfg = store_config(2, durability);
    let expected;
    {
        let mut db = Database::with_store_config(cfg.clone());
        db.register(
            "Objects",
            GridIndex::build(scattered(300, 0, 5), 8).unwrap(),
        );
        for chunk in scattered(200, 5_000, 21).chunks(10) {
            let ops: Vec<WriteOp> = chunk.iter().copied().map(WriteOp::Upsert).collect();
            db.ingest("Objects", &ops).unwrap();
        }
        let rel = rel_dir(tmp.path(), "Objects");
        let before = wal_segments(&rel).len();
        assert!(before > 1, "the workload must roll WAL segments");
        db.checkpoint();
        let m = db.store_metrics();
        assert_eq!(m.checkpoints, 1);
        assert!(
            wal_segments(&rel).len() < before,
            "checkpoint must delete covered WAL segments ({before} before)"
        );
        // More writes after the checkpoint land in the surviving tail.
        db.ingest(
            "Objects",
            &[
                WriteOp::Upsert(Point::new(90_000, 3.25, 4.5)),
                WriteOp::Remove(5_001),
            ],
        )
        .unwrap();
        expected = visible_points(&db, "Objects");
    }
    let reopened = Database::open(tmp.path(), cfg).unwrap();
    assert_eq!(visible_points(&reopened, "Objects"), expected);
}

#[test]
fn torn_wal_tail_keeps_fully_written_batches() {
    let tmp = TempDir::new("torn");
    let cfg = store_config(1, DurabilityConfig::at(tmp.path()));
    {
        let mut db = Database::with_store_config(cfg.clone());
        db.register(
            "Objects",
            GridIndex::build(scattered(100, 0, 7), 6).unwrap(),
        );
        let batch1: Vec<WriteOp> = (0..10u64)
            .map(|i| WriteOp::Upsert(Point::new(1_000 + i, 1.0 + i as f64, 2.0)))
            .collect();
        let batch2: Vec<WriteOp> = (0..10u64)
            .map(|i| WriteOp::Upsert(Point::new(2_000 + i, 50.0 + i as f64, 60.0)))
            .collect();
        db.ingest("Objects", &batch1).unwrap();
        db.ingest("Objects", &batch2).unwrap();
    }
    let seg = wal_segments(&rel_dir(tmp.path(), "Objects"))
        .pop()
        .expect("one WAL segment");
    let buf = std::fs::read(&seg).unwrap();
    let ranges = record_ranges(&buf);
    assert_eq!(ranges.len(), 2, "one record per ingest batch");

    // Tear mid-way through the second record — a crash during the append.
    let (start2, end2) = ranges[1];
    let torn_at = start2 + (end2 - start2) / 2;
    std::fs::write(&seg, &buf[..torn_at]).unwrap();

    let db = Database::open(tmp.path(), cfg.clone()).unwrap();
    let pts = visible_points(&db, "Objects");
    assert!(
        (0..10u64).all(|i| pts.iter().any(|p| p.id == 1_000 + i)),
        "the fully written first batch survives"
    );
    assert!(
        pts.iter().all(|p| !(2_000..2_010).contains(&p.id)),
        "the torn second batch is dropped whole"
    );
    assert_eq!(pts.len(), 110);
    drop(db);

    // Now corrupt the *first* record: everything from the first bad record
    // on is untrusted, so only the registration-time base remains.
    std::fs::write(&seg, &buf).unwrap();
    let (start1, end1) = ranges[0];
    let mut flipped = buf.clone();
    flipped[start1 + (end1 - start1) / 2] ^= 0x40;
    std::fs::write(&seg, &flipped).unwrap();
    let db = Database::open(tmp.path(), cfg).unwrap();
    assert_eq!(
        visible_points(&db, "Objects").len(),
        100,
        "a bad record truncates the log from that point on"
    );
}

#[test]
fn corrupt_block_file_and_manifest_surface_recovery_errors() {
    let tmp = TempDir::new("corrupt");
    let cfg = store_config(1, DurabilityConfig::at(tmp.path()));
    {
        let mut db = Database::with_store_config(cfg.clone());
        db.register(
            "Objects",
            GridIndex::build(scattered(120, 0, 11), 6).unwrap(),
        );
    }
    let rel = rel_dir(tmp.path(), "Objects");
    let blk = std::fs::read_dir(&rel)
        .unwrap()
        .map(|e| e.unwrap().path())
        .find(|p| p.extension().is_some_and(|e| e == "blk"))
        .expect("registration persists a block file");

    // Flip one byte deep in the column payload.
    let mut bytes = std::fs::read(&blk).unwrap();
    let at = bytes.len() - 9;
    bytes[at] ^= 0x01;
    std::fs::write(&blk, &bytes).unwrap();
    match Database::open(tmp.path(), cfg.clone()) {
        Err(RecoveryError::Corrupt { path, .. }) => assert_eq!(path, blk),
        Err(other) => panic!("expected Corrupt for the block file, got {other}"),
        Ok(_) => panic!("a corrupt block file must fail recovery"),
    }

    // Restore the block file, corrupt the manifest instead.
    bytes[at] ^= 0x01;
    std::fs::write(&blk, &bytes).unwrap();
    assert!(Database::open(tmp.path(), cfg.clone()).is_ok());
    let manifest = rel.join("MANIFEST");
    let mut mbytes = std::fs::read(&manifest).unwrap();
    let mat = mbytes.len() / 2;
    mbytes[mat] ^= 0x10;
    std::fs::write(&manifest, &mbytes).unwrap();
    assert!(
        matches!(
            Database::open(tmp.path(), cfg),
            Err(RecoveryError::Corrupt { .. })
        ),
        "a corrupt manifest must be an error, not a panic"
    );
}

#[test]
fn cross_shard_move_replays_atomically() {
    let tmp = TempDir::new("atomic");
    let cfg = store_config(2, DurabilityConfig::at(tmp.path()));
    // Two far-apart points so a 2×2 shard map puts them in different shards.
    let initial = vec![
        Point::new(1, 5.0, 5.0),
        Point::new(2, 95.0, 95.0),
        Point::new(3, 5.0, 95.0),
        Point::new(4, 95.0, 5.0),
    ];
    {
        let mut db = Database::with_store_config(cfg.clone());
        db.register("Objects", GridIndex::build(initial.clone(), 4).unwrap());
        // `update` reports prior visibility through the same receipt that
        // feeds the WAL: a move of a known id is `true`, a fresh id `false`.
        assert!(!db.update("Objects", Point::new(9, 50.0, 50.0)).unwrap());
        // One batch: move id 1 across shards AND insert a fresh id. Must be
        // one WAL record — all or nothing at replay.
        db.ingest(
            "Objects",
            &[
                WriteOp::Upsert(Point::new(1, 94.0, 94.0)),
                WriteOp::Upsert(Point::new(77_777, 20.0, 20.0)),
            ],
        )
        .unwrap();
        assert!(db.update("Objects", Point::new(1, 93.0, 93.0)).unwrap());
    }
    let seg = wal_segments(&rel_dir(tmp.path(), "Objects")).pop().unwrap();
    let buf = std::fs::read(&seg).unwrap();
    let ranges = record_ranges(&buf);
    assert_eq!(
        ranges.len(),
        3,
        "one record per batch, even for multi-shard batches"
    );

    // Crash inside the *move* batch (record 2): replay must restore the
    // pre-batch state — id 1 still at (5, 5), id 77777 absent, never a
    // half-applied move (id 1 present twice or nowhere).
    let (start2, end2) = ranges[1];
    std::fs::write(&seg, &buf[..start2 + (end2 - start2) / 2]).unwrap();
    let db = Database::open(tmp.path(), cfg).unwrap();
    let pts = visible_points(&db, "Objects");
    let ones: Vec<&Point> = pts.iter().filter(|p| p.id == 1).collect();
    assert_eq!(ones.len(), 1, "id 1 exists exactly once");
    assert_eq!((ones[0].x, ones[0].y), (5.0, 5.0), "…at its pre-batch spot");
    assert!(pts.iter().any(|p| p.id == 9), "the earlier record replays");
    assert!(
        pts.iter().all(|p| p.id != 77_777),
        "nothing of the torn batch replays"
    );
}

/// Each shard's `covered_seq`, parsed from the relation's MANIFEST
/// (`TKMF [len][crc] name, index config, per_axis, bounds, shards`).
fn covered_seqs(rel: &Path) -> Vec<u64> {
    let buf = std::fs::read(rel.join("MANIFEST")).unwrap();
    let u32_at = |at: usize| u32::from_le_bytes(buf[at..at + 4].try_into().unwrap()) as usize;
    let u64_at = |at: usize| u64::from_le_bytes(buf[at..at + 8].try_into().unwrap());
    assert_eq!(&buf[..4], b"TKMF");
    let mut at = 12;
    at += 4 + u32_at(at); // name
    at += 17 + 8 + 32; // index config, per_axis, bounds
    let nshards = u32_at(at);
    at += 4;
    (0..nshards)
        .map(|_| {
            let seq = u64_at(at);
            at += 8;
            at += 4 + u32_at(at); // block file name
            seq
        })
        .collect()
}

/// The shard currently holding `id`, if it is visible.
fn shard_holding(db: &Database, id: u64) -> Option<usize> {
    db.relation("Objects")
        .unwrap()
        .shards()
        .iter()
        .position(|s| s.contains_id(id))
}

/// Recovery folds the whole WAL suffix into one replay batch. On a 4×4
/// relation whose shards persisted their bases at different WAL positions,
/// the suffix holds cross-shard moves there and back (one of them persisted
/// by its target shard only, so the base images hold the point twice), a
/// remove followed by a re-upsert of the same id (across records and within
/// one), and ids repeated within one record. The reopened relation must
/// equal a never-crashed twin, keep every shard invariant, publish exactly
/// once, and reopen again to the same points.
#[test]
fn folded_replay_matches_a_never_crashed_instance() {
    let tmp = TempDir::new("folded");
    // Threshold 4: a shard whose delta reaches four entries compacts — on
    // a one-thread pool, inline — and persists its base at the WAL head.
    let cfg = StoreConfig {
        compaction_threshold: 4,
        sharding: ShardConfig::per_axis(4),
        durability: DurabilityConfig::at(tmp.path()),
        ..StoreConfig::default()
    };
    // A 20×20 lattice over [2.5, 97.5]²: shard cells are 23.75 wide.
    let initial: Vec<Point> = (0..400u64)
        .map(|i| Point::new(i, 2.5 + (i % 20) as f64 * 5.0, 2.5 + (i / 20) as f64 * 5.0))
        .collect();
    // w at (87.5, 87.5), x at (12.5, 12.5), y at (12.5, 87.5), z at (7.5, 92.5).
    let (w, x, y, z) = (357, 42, 342, 361);
    let fresh = |base: u64, cx: f64, cy: f64| -> Vec<WriteOp> {
        (0..4)
            .map(|i| WriteOp::Upsert(Point::new(base + i, cx + i as f64, cy)))
            .collect()
    };
    let up = |id: u64, px: f64, py: f64| WriteOp::Upsert(Point::new(id, px, py));
    let records: Vec<Vec<WriteOp>> = vec![
        // w moves NE → SW for good; four fresh SW points then compact SW
        // only, so SW's base holds w while NE's (never compacted) still
        // holds it. SW is shard 0, so on replay the stale NE copy is a
        // holder the move itself does not retract.
        vec![up(w, 13.0, 13.0)],
        fresh(10_000, 8.0, 10.0),
        // x moves there and back, repeatedly, within one record.
        vec![
            up(x, 86.0, 86.0),
            up(x, 14.0, 14.0),
            up(x, 88.0, 88.0),
            up(x, 15.0, 15.0),
        ],
        // Remove + re-upsert: y within one record (landing in SE), z
        // across two records.
        vec![WriteOp::Remove(y), up(y, 87.0, 12.0)],
        vec![WriteOp::Remove(z)],
        vec![up(z, 8.0, 91.0)],
        // SE compacts at a later WAL position, persisting y…
        fresh(20_000, 80.0, 8.0),
        // …which then moves back to NW.
        vec![up(y, 10.0, 80.0)],
        // Repeated ids with a remove and re-upsert inside one record.
        vec![
            up(x, 85.0, 85.0),
            WriteOp::Remove(x),
            up(x, 80.0, 20.0),
            up(10_001, 60.0, 40.0),
            WriteOp::Remove(10_001),
        ],
    ];

    let mut memory = Database::with_store_config(StoreConfig {
        durability: DurabilityConfig::Disabled,
        ..cfg.clone()
    });
    memory.register("Objects", GridIndex::build(initial.clone(), 8).unwrap());
    {
        let mut durable = Database::with_pool_and_store_config(WorkerPool::new(1), cfg.clone());
        durable.register("Objects", GridIndex::build(initial.clone(), 8).unwrap());
        let ne = shard_holding(&durable, w).unwrap();
        for (i, ops) in records.iter().enumerate() {
            durable.ingest("Objects", ops).unwrap();
            memory.ingest("Objects", ops).unwrap();
            if i == 0 {
                assert_eq!(shard_holding(&durable, w), Some(0), "w moved into shard 0");
                assert_ne!(ne, 0);
            }
        }
        assert_eq!(durable.store_metrics().wal_appends, records.len() as u64);
        assert!(durable.store_metrics().shards_compacted >= 2);
        // Crash: dropped without a checkpoint.
    }
    let covered = covered_seqs(&rel_dir(tmp.path(), "Objects"));
    let distinct: std::collections::BTreeSet<u64> = covered.iter().copied().collect();
    assert!(
        distinct.len() >= 3 && distinct.contains(&0),
        "shards must persist at different WAL positions: {covered:?}"
    );

    let expected = visible_points(&memory, "Objects");
    for reopen in 1..=2 {
        let db = Database::open(tmp.path(), cfg.clone()).unwrap();
        let snap = db.relation("Objects").unwrap();
        snap.check_overlay_invariants()
            .unwrap_or_else(|e| panic!("reopen {reopen}: {e}"));
        assert_eq!(
            snap.version(),
            1,
            "reopen {reopen}: the suffix of {} records publishes once",
            records.len()
        );
        assert_eq!(
            visible_points(&db, "Objects"),
            expected,
            "reopen {reopen}: visible set diverged from the never-crashed twin"
        );
    }
}
