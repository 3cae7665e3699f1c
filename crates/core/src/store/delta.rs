//! The sorted insert/delete overlay a snapshot carries on top of its base
//! index.
//!
//! A [`Delta`] is always expressed **relative to one base index**: `inserts`
//! holds points that are visible but not stored in the base, `deletes` holds
//! ids of base points that are no longer visible. Both lists are kept sorted
//! (by point id) and duplicate-free, so membership tests are binary searches
//! and two deltas over the same base can be compared structurally.
//!
//! Alongside the id-sorted insert list, the delta maintains an
//! [`OverlayGrid`]: the same inserts bucketed by **position** into a small
//! grid of copy-on-write cells. The grid is what
//! [`RelationSnapshot`](super::RelationSnapshot) materializes as per-cell
//! overlay blocks with tight MBRs, keeping MINDIST pruning effective during
//! write bursts; the sorted list keeps id lookups O(log n).
//!
//! A delta is immutable once published; a write batch produces its
//! successor through [`Delta::apply_batch`], which updates both structures
//! together, so they can never drift apart. The batch apply is one
//! sort-merge: the ops are ordered by `(id, position)`, each id's ops are
//! folded once, and the new sorted vectors come from a single merge of the
//! old ones with the folded ids. Its cost is `O(b log b)` for a batch of
//! `b` ops plus one block copy of the old vectors (what cloning them
//! cost), instead of an `O(delta)` sorted-vector insert per op — which made
//! a shard taking thousands of replayed ops quadratic.

use twoknn_geometry::{Point, PointId};

use super::overlay::{OverlayConfig, OverlayGrid};

/// One ingest operation against a versioned relation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WriteOp {
    /// Insert a point, replacing any existing point with the same id (the
    /// moving-objects workload: an update is a position report for a known
    /// object id).
    Upsert(Point),
    /// Remove the point with this id, if present.
    Remove(PointId),
}

impl WriteOp {
    /// The id of the point the op writes.
    pub fn id(&self) -> PointId {
        match self {
            WriteOp::Upsert(p) => p.id,
            WriteOp::Remove(id) => *id,
        }
    }
}

/// A sorted insert/delete overlay relative to one base index.
#[derive(Debug, Clone)]
pub struct Delta {
    /// Points visible on top of the base, sorted by id, unique per id.
    inserts: Vec<Point>,
    /// Ids of base points that are tombstoned, sorted, unique. Only ids the
    /// base actually stores are ever recorded here.
    deletes: Vec<PointId>,
    /// The same inserts, bucketed by position into copy-on-write grid cells.
    grid: OverlayGrid,
}

impl Default for Delta {
    fn default() -> Self {
        Self::new()
    }
}

/// Logical equality: two deltas are equal when they describe the same
/// visible-set change, regardless of how the overlay grid happens to be
/// decomposed (the grid geometry depends on the op history, not just the
/// final contents).
impl PartialEq for Delta {
    fn eq(&self, other: &Self) -> bool {
        self.inserts == other.inserts && self.deletes == other.deletes
    }
}

impl Delta {
    /// An empty overlay with the default [`OverlayConfig`].
    pub fn new() -> Self {
        Self::with_config(OverlayConfig::default())
    }

    /// An empty overlay with explicit grid tuning.
    pub fn with_config(config: OverlayConfig) -> Self {
        Self {
            inserts: Vec::new(),
            deletes: Vec::new(),
            grid: OverlayGrid::new(config),
        }
    }

    /// The overlay's inserted points, sorted by id.
    pub fn inserts(&self) -> &[Point] {
        &self.inserts
    }

    /// The tombstoned base point ids, sorted.
    pub fn deletes(&self) -> &[PointId] {
        &self.deletes
    }

    /// The position-bucketed view of the inserts.
    pub(crate) fn grid(&self) -> &OverlayGrid {
        &self.grid
    }

    /// Number of overlay entries (inserts + deletes) — the quantity the
    /// compaction threshold is compared against.
    pub fn len(&self) -> usize {
        self.inserts.len() + self.deletes.len()
    }

    /// Whether the overlay is empty (the snapshot equals its base).
    pub fn is_empty(&self) -> bool {
        self.inserts.is_empty() && self.deletes.is_empty()
    }

    /// Whether `id` is tombstoned.
    pub fn is_deleted(&self, id: PointId) -> bool {
        self.deletes.binary_search(&id).is_ok()
    }

    /// The inserted point with `id`, if any.
    pub fn inserted(&self, id: PointId) -> Option<&Point> {
        self.inserts
            .binary_search_by_key(&id, |p| p.id)
            .ok()
            .map(|at| &self.inserts[at])
    }

    /// Applies one ingest batch, producing the successor delta — the
    /// batch's only write path. `base_has` must report whether the **base
    /// index** stores a point with a given id; the overlay uses it to decide
    /// between tombstoning a base point and editing its own inserts. It is
    /// asked at most once per distinct id of the batch.
    ///
    /// The result is exactly what applying the ops one at a time in order
    /// would give (the `cfg(test)` oracle [`Delta::apply`] does that), at a
    /// cost proportional to the batch rather than to the delta:
    ///
    /// * the ops are ordered by `(id, position)` and each id's ops are
    ///   folded once, which yields every op's `changed` flag;
    /// * the new sorted `inserts` and `deletes` are built in **one merge**
    ///   of the old vectors with the folded ids — runs of untouched entries
    ///   are block-copied, so the merge costs what a clone of the old
    ///   vectors cost, with no per-op `O(delta)` insert or removal;
    /// * the overlay grid gets the batch's insert edits at once
    ///   ([`OverlayGrid::edited`]): cells the batch does not touch stay
    ///   shared copy-on-write, and the decomposition is re-anchored at most
    ///   once per batch.
    pub(crate) fn apply_batch(
        &self,
        ops: &[WriteOp],
        base_has: impl Fn(PointId) -> bool,
    ) -> AppliedBatch {
        let mut order: Vec<(PointId, usize)> = ops
            .iter()
            .enumerate()
            .map(|(at, op)| (op.id(), at))
            .collect();
        order.sort_unstable();
        let mut changed = vec![false; ops.len()];
        let mut inserts = Vec::with_capacity(self.inserts.len() + ops.len());
        let mut deletes = Vec::with_capacity(self.deletes.len() + ops.len());
        let mut tombstoned = Vec::new();
        // Insert edits for the overlay grid: stored copies that leave, and
        // points that arrive.
        let (mut removed, mut added) = (Vec::new(), Vec::new());
        // Merge cursors into the old sorted vectors.
        let (mut ins_at, mut del_at) = (0, 0);
        let mut rest = &order[..];
        while let Some(&(id, _)) = rest.first() {
            let (group, tail) = rest.split_at(rest.partition_point(|&(of, _)| of == id));
            rest = tail;
            let end = ins_at + self.inserts[ins_at..].partition_point(|p| p.id < id);
            inserts.extend_from_slice(&self.inserts[ins_at..end]);
            let old_ins = self.inserts.get(end).filter(|p| p.id == id).copied();
            ins_at = end + usize::from(old_ins.is_some());
            let end = del_at + self.deletes[del_at..].partition_point(|&d| d < id);
            deletes.extend_from_slice(&self.deletes[del_at..end]);
            let old_del = self.deletes.get(end) == Some(&id);
            del_at = end + usize::from(old_del);

            // Only base ids are ever tombstoned, so a tombstone answers
            // `base_has` without asking.
            let base = old_del || base_has(id);
            let (mut ins, mut del) = (old_ins, old_del);
            for &(_, at) in group {
                changed[at] = match ops[at] {
                    WriteOp::Upsert(p) => {
                        ins = Some(p);
                        // The base copy (if any) is shadowed: tombstone it so
                        // block scans don't report the stale position.
                        del |= base;
                        true
                    }
                    WriteOp::Remove(_) => {
                        let dropped = ins.take().is_some();
                        let hidden = base && !del;
                        del |= base;
                        dropped || hidden
                    }
                };
            }
            if ins != old_ins {
                removed.extend(old_ins);
                added.extend(ins);
            }
            inserts.extend(ins);
            if del {
                deletes.push(id);
                if !old_del {
                    tombstoned.push(id);
                }
            }
        }
        inserts.extend_from_slice(&self.inserts[ins_at..]);
        deletes.extend_from_slice(&self.deletes[del_at..]);
        let grid = self.grid.edited(&removed, &added, &inserts);
        debug_assert_eq!(grid.len(), inserts.len());
        AppliedBatch {
            delta: Self {
                inserts,
                deletes,
                grid,
            },
            changed,
            tombstoned,
        }
    }

    /// Applies one write operation — the per-op fold that
    /// [`Delta::apply_batch`] must reproduce, kept as its test oracle.
    ///
    /// Returns `true` when the operation changed the visible point set
    /// (an upsert always does; a remove only if the id was visible).
    #[cfg(test)]
    pub(crate) fn apply(&mut self, op: &WriteOp, base_has: impl Fn(PointId) -> bool) -> bool {
        let changed = match op {
            WriteOp::Upsert(p) => {
                match self.inserts.binary_search_by_key(&p.id, |q| q.id) {
                    Ok(at) => {
                        let old = self.inserts[at];
                        self.inserts[at] = *p;
                        self.grid.remove(&old);
                        self.grid.add(*p);
                    }
                    Err(at) => {
                        self.inserts.insert(at, *p);
                        self.grid.add(*p);
                    }
                }
                // The base copy (if any) is shadowed: tombstone it so block
                // scans don't report the stale position.
                if base_has(p.id) {
                    if let Err(at) = self.deletes.binary_search(&p.id) {
                        self.deletes.insert(at, p.id);
                    }
                }
                true
            }
            WriteOp::Remove(id) => {
                let mut removed = false;
                if let Ok(at) = self.inserts.binary_search_by_key(id, |q| q.id) {
                    let old = self.inserts.remove(at);
                    self.grid.remove(&old);
                    removed = true;
                }
                if base_has(*id) {
                    match self.deletes.binary_search(id) {
                        // Already tombstoned: visibility unchanged by this op
                        // (unless we just dropped a shadowing insert).
                        Ok(_) => {}
                        Err(at) => {
                            self.deletes.insert(at, *id);
                            removed = true;
                        }
                    }
                }
                removed
            }
        };
        // Cheap O(1) staleness check; the actual re-bucket is geometric, so
        // the amortized cost per applied op stays O(1).
        self.grid.maybe_rebucket(&self.inserts);
        debug_assert_eq!(self.grid.len(), self.inserts.len());
        changed
    }
}

/// What [`Delta::apply_batch`] produced.
pub(crate) struct AppliedBatch {
    /// The successor delta.
    pub delta: Delta,
    /// Per op, in input order: whether it changed the visible point set.
    pub changed: Vec<bool>,
    /// The base ids this batch tombstoned that were not tombstoned before
    /// it, ascending — the only ids whose base blocks need a new filtered
    /// copy.
    pub tombstoned: Vec<PointId>,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn has(ids: &'static [PointId]) -> impl Fn(PointId) -> bool {
        move |id| ids.contains(&id)
    }

    #[test]
    fn upsert_insert_and_remove_roundtrip() {
        let mut d = Delta::new();
        assert!(d.apply(&WriteOp::Upsert(Point::new(5, 1.0, 2.0)), has(&[])));
        assert!(d.apply(&WriteOp::Upsert(Point::new(3, 0.0, 0.0)), has(&[])));
        assert_eq!(d.inserts().len(), 2);
        assert_eq!(d.inserts()[0].id, 3, "inserts stay sorted by id");
        assert!(d.deletes().is_empty());
        assert_eq!(d.len(), 2);

        assert!(d.apply(&WriteOp::Remove(5), has(&[])));
        assert_eq!(d.inserts().len(), 1);
        // Removing an id that is neither inserted nor in the base is a no-op.
        assert!(!d.apply(&WriteOp::Remove(99), has(&[])));
    }

    #[test]
    fn upsert_of_a_base_point_tombstones_the_stale_copy() {
        let mut d = Delta::new();
        assert!(d.apply(&WriteOp::Upsert(Point::new(7, 9.0, 9.0)), has(&[7])));
        assert!(d.is_deleted(7), "the base copy must be shadowed");
        assert_eq!(d.inserted(7).unwrap().x, 9.0);
        // A second upsert replaces in place without duplicating tombstones.
        assert!(d.apply(&WriteOp::Upsert(Point::new(7, 1.0, 1.0)), has(&[7])));
        assert_eq!(d.inserts().len(), 1);
        assert_eq!(d.deletes().len(), 1);
        assert_eq!(d.inserted(7).unwrap().x, 1.0);
    }

    #[test]
    fn remove_of_a_base_point_is_a_tombstone() {
        let mut d = Delta::new();
        assert!(d.apply(&WriteOp::Remove(2), has(&[2])));
        assert!(d.is_deleted(2));
        assert_eq!(d.len(), 1);
        // Removing it again changes nothing.
        assert!(!d.apply(&WriteOp::Remove(2), has(&[2])));
        assert_eq!(d.len(), 1);
    }

    #[test]
    fn remove_after_upsert_of_base_point_keeps_the_tombstone() {
        let mut d = Delta::new();
        d.apply(&WriteOp::Upsert(Point::new(4, 5.0, 5.0)), has(&[4]));
        assert!(d.apply(&WriteOp::Remove(4), has(&[4])));
        assert!(d.inserts().is_empty());
        assert!(d.is_deleted(4), "base copy must stay invisible");
    }

    #[test]
    fn grid_tracks_every_insert_edit() {
        let mut d = Delta::new();
        // A burst large enough to force a multi-cell grid.
        for i in 0..200u64 {
            let p = Point::new(i, (i % 20) as f64, (i / 20) as f64);
            d.apply(&WriteOp::Upsert(p), has(&[]));
        }
        assert!(d.grid().cells_per_axis() > 1);
        assert_eq!(d.grid().len(), d.inserts().len());
        // Moves and removes keep the two structures in lockstep.
        d.apply(&WriteOp::Upsert(Point::new(7, 500.0, 500.0)), has(&[]));
        d.apply(&WriteOp::Remove(8), has(&[]));
        assert_eq!(d.grid().len(), d.inserts().len());
        let moved = d.inserted(7).copied().unwrap();
        let cell = d.grid().find_at(&moved).expect("moved point re-bucketed");
        assert!(d.grid().cell_points(cell).iter().any(|q| q.id == 7));
        // Logical equality ignores grid geometry.
        let mut replay = Delta::new();
        for p in d.inserts() {
            replay.apply(&WriteOp::Upsert(*p), has(&[]));
        }
        assert_eq!(d, replay);
    }
}
