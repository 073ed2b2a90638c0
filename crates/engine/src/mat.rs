//! Incremental materialized view instances.
//!
//! Every hot path of the engine consults the view instance `π_X(R)` and
//! (through the translations `t ⋈ π_Y(R)`) the constant complement
//! `π_Y(R)`. Recomputing either from the full base is O(|base|) per
//! operation; [`ViewMat`] keeps both materialized and folds each
//! committed [`Translation`]'s base-row delta into them in
//! O(|Δ| log |Δ|), in the support-counting style of Incremental
//! Relational Lenses (Horn, Perera, Cheney, 2018).
//!
//! * The **view side** tracks, per view tuple, the number of *source*
//!   rows projecting onto it. For a view over the base the source is
//!   the base relation; for a view registered over another view (PR 6)
//!   it is the parent's materialized instance, so deltas propagate down
//!   the dependency DAG one edge at a time. The counts live in a
//!   `Vec<u64>` parallel to the columnar instance's row slots — the
//!   instance's own sorted-id index resolves a projection to its count
//!   slot, so no tuple-keyed hash map (and none of its key clones)
//!   remains. Selection views additionally keep the `σ_P` / `σ_¬P`
//!   split of the instance, which is the pair the §6(2) machinery
//!   checks against.
//! * The **complement side** keeps the distinct `π_Y(R)` tuples with
//!   their support counts in one array sorted by (`X∩Y` projection,
//!   full tuple): a translation's join `t ⋈ π_Y(R)` binary-searches the
//!   run start and [`gallop`]s to the run end instead of probing a
//!   bucket map. It is *always* fed from the base delta — `π_Y(R)` can
//!   change even when the parent's instance does not.
//!
//! Both sides fold a commit's delta **netted by key**: the rows are
//! projected and sorted, each key collapses to one signed count, and
//! only a key whose support crosses zero edits an array (obs
//! `engine.mat.instance_edits` / `engine.mat.complement_edits`). So a
//! translation's own complement, and every view tuple whose rows all
//! move together, cost no edit. Edits run as removals then insertions,
//! each in sorted order — the order the published chain replays the
//! delta in, so the writer's instance and split keep the published row
//! order exactly.
//!
//! Full recomputation ([`ViewMat::build`]) survives as the rebuild path
//! after Σ replacement, snapshot load, checkpoint-delta replay and an
//! abort — and, in debug builds, as the oracle
//! [`ViewMat::debug_assert_consistent`] checks after every commit.

use std::cmp::Ordering;

use relvu_core::Translation;
use relvu_relation::{gallop, ops, Attr, AttrSet, Pred, Relation, Tuple};

use crate::mvcc::ViewSnap;
use crate::view::ViewDef;
use crate::Result;

/// The materialized state of one registered view: its instance
/// `π_X(R)` with per-slot support counts, the optional `σ_P`/`σ_¬P`
/// split, and the sorted counted complement `π_Y(R)`.
pub(crate) struct ViewMat {
    x: AttrSet,
    y: AttrSet,
    pred: Option<Pred>,
    /// Attributes of the relation the view side is fed from: the
    /// universe for base-rooted views, the parent's (effective) view
    /// attributes for views over views. `x ⊆ src` always.
    src: AttrSet,
    /// Number of source rows projecting onto each view tuple, indexed
    /// by the tuple's storage slot in `instance` (kept parallel through
    /// the same append/swap-remove moves).
    support: Vec<u64>,
    /// `π_X(R)`, its columnar index doubling as the support key index.
    instance: Relation,
    /// `(σ_P(π_X(R)), σ_¬P(π_X(R)))` for selection views.
    split: Option<(Relation, Relation)>,
    /// Dense column positions of `X∩Y` within a complement tuple.
    shared_ranks: Vec<usize>,
    /// The attributes of `X∩Y` in ascending order, for probing with a
    /// view tuple over `x`.
    shared_attrs: Vec<Attr>,
    /// Distinct `π_Y(R)` tuples with base-row support counts, sorted by
    /// (`X∩Y` projection, full tuple). With `X∩Y = ∅` every probe's run
    /// is the whole array, which degrades to the Cartesian product
    /// exactly like the natural join does.
    y_entries: Vec<(Tuple, u64)>,
}

impl ViewMat {
    /// Materialize `def` over `base` by a full scan, the view side fed
    /// from `source` when given (the parent's materialized instance)
    /// and from `base` otherwise. O((|base| + |source|) log) via the
    /// bulk construction paths; used at view registration and as the
    /// rebuild path after `set_fds`, `Database::load`, checkpoint-delta
    /// replay and an abort. A rebuild that keeps the view's `published`
    /// instance (and split) over the same base adopts it, row order
    /// included, so later folds stay in the published row order.
    ///
    /// # Errors
    /// The same [`relvu_relation::RelationError::NotASubset`] a fresh
    /// projection would produce if the view's attribute sets reach
    /// outside its source's universe.
    pub(crate) fn build(
        base: &Relation,
        source: Option<&Relation>,
        def: &ViewDef,
        published: Option<&ViewSnap>,
    ) -> Result<Self> {
        let x = def.x();
        let y = def.y();
        let shared = x & y;
        let feed = source.unwrap_or(base);
        let instance = match published {
            Some(vs) => (*vs.inst.get()).clone(),
            None => ops::project(feed, x)?,
        };
        if !y.is_subset(&base.attrs()) {
            ops::project(base, y)?;
        }
        let src = feed.attrs();
        let mut support = vec![0u64; instance.len()];
        for row in feed.iter() {
            let slot = instance
                .slot_of(&row.project(&src, &x))
                .expect("every projection is in the bulk projection");
            support[slot] += 1;
        }
        let kept_split = published.and_then(|vs| vs.split.as_ref());
        let split = def.pred().map(|pred| match kept_split {
            Some((m, r)) => ((*m.get()).clone(), (*r.get()).clone()),
            None => (
                ops::select(&instance, |t| pred.eval(&x, t)),
                ops::select(&instance, |t| !pred.eval(&x, t)),
            ),
        });
        let shared_ranks: Vec<usize> = shared.iter().map(|a| y.rank(a).expect("X∩Y ⊆ Y")).collect();
        let shared_attrs: Vec<Attr> = shared.iter().collect();
        // Bulk complement: the whole base, netted by key.
        let from = base.attrs();
        let project = |r: &Tuple| r.project(&from, &y);
        let y_entries = net(&[], base.rows(), project, |a, b| cmp_y(&shared_ranks, a, b))
            .into_iter()
            .map(|(yt, n)| (yt, n as u64))
            .collect();
        relvu_obs::counter!("engine.mat.tuples").add(instance.len() as u64);
        relvu_obs::counter!("engine.mat.rebuilds").inc();
        Ok(ViewMat {
            x,
            y,
            pred: def.pred().cloned(),
            src,
            support,
            instance,
            split,
            shared_ranks,
            shared_attrs,
            y_entries,
        })
    }

    /// The materialized `π_X(R)`.
    pub(crate) fn instance(&self) -> &Relation {
        &self.instance
    }

    /// The materialized `(σ_P, σ_¬P)` split, for selection views.
    pub(crate) fn split(&self) -> Option<&(Relation, Relation)> {
        self.split.as_ref()
    }

    /// Retire this materialization's contribution to the
    /// `engine.mat.tuples` gauge (called when it is about to be
    /// replaced by a rebuild).
    pub(crate) fn retire(&self) {
        relvu_obs::counter!("engine.mat.tuples").sub(self.instance.len() as u64);
    }

    /// Compare a complement entry against probe tuple `t` (over `x`) on
    /// the `X∩Y` columns — the sort's major key.
    #[inline]
    fn cmp_entry_probe(&self, e: &Tuple, t: &Tuple) -> Ordering {
        for (&rank, &a) in self.shared_ranks.iter().zip(&self.shared_attrs) {
            match e.at(rank).cmp(&t.get(&self.x, a)) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// The base rows `{t} ⋈ π_Y(R)` — a translation's touched rows —
    /// answered from the sorted complement: binary search to the run's
    /// start, [`gallop`] to its end, O(log |π_Y(R)| + matches). No
    /// probe-key tuple is materialized.
    fn join_rows<'a>(&'a self, t: &'a Tuple) -> impl Iterator<Item = Tuple> + 'a {
        let lo = self
            .y_entries
            .partition_point(|(e, _)| self.cmp_entry_probe(e, t) == Ordering::Less);
        let run = gallop(&self.y_entries[lo..], |(e, _)| {
            self.cmp_entry_probe(e, t) == Ordering::Equal
        });
        self.y_entries[lo..lo + run]
            .iter()
            .map(move |(m, _)| t.joined(&self.x, m, &self.y))
    }

    /// The base-row delta a committed translation induces, relative to
    /// `base`: `(added, removed)` with `added ∩ base = ∅` and
    /// `removed ⊆ base`, both sorted by tuple value. Applying
    /// `base − removed ∪ added` equals [`Translation::apply`]'s result
    /// — the sort makes replay after crash recovery reproduce base row
    /// *order* too, not just set content, since row order is then a
    /// pure function of the starting order and the operation sequence.
    pub(crate) fn delta(&self, base: &Relation, tr: &Translation) -> (Vec<Tuple>, Vec<Tuple>) {
        let (mut added, mut removed) = match tr {
            Translation::Identity => (Vec::new(), Vec::new()),
            Translation::InsertJoin { t } => (
                self.join_rows(t).filter(|b| !base.contains(b)).collect(),
                Vec::new(),
            ),
            Translation::DeleteJoin { t } => (
                Vec::new(),
                self.join_rows(t).filter(|b| base.contains(b)).collect(),
            ),
            Translation::ReplaceJoin { t1, t2 } => {
                let add: Vec<Tuple> = self.join_rows(t2).collect();
                // `(base − del) ∪ add` re-adds rows in both sets, so a
                // row of `del ∩ add` is not removed at all.
                let removed = self
                    .join_rows(t1)
                    .filter(|b| base.contains(b) && !add.contains(b))
                    .collect();
                (
                    add.into_iter().filter(|b| !base.contains(b)).collect(),
                    removed,
                )
            }
        };
        added.sort();
        removed.sort();
        (added, removed)
    }

    /// Fold a committed *source*-row delta, netted by key, into the view
    /// side (support counts, instance, split), returning this view's own
    /// instance delta `(added, removed)` sorted by tuple value — the
    /// incoming delta for its children in the dependency DAG, and the
    /// order both lists were applied in here.
    pub(crate) fn fold_instance(
        &mut self,
        added: &[Tuple],
        removed: &[Tuple],
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        let project = |r: &Tuple| r.project(&self.src, &self.x);
        let keys = net(removed, added, project, Tuple::cmp);
        let mut fresh = Vec::new();
        let mut out_removed = Vec::new();
        for (xt, n) in keys {
            let Some(slot) = self.instance.slot_of(&xt) else {
                fresh.push((xt, n));
                continue;
            };
            let left = self.support[slot].checked_add_signed(n);
            self.support[slot] = left.expect("removed rows were folded in");
            if left == Some(0) {
                // The relation swap-removes storage slot `slot`; mirror
                // the move on the counts.
                self.instance.remove(&xt);
                self.support.swap_remove(slot);
                if let Some(part) = self.part_of(&xt) {
                    part.remove(&xt);
                }
                out_removed.push(xt);
            }
        }
        let out_added: Vec<Tuple> = fresh
            .into_iter()
            .map(|(xt, n)| {
                if let Some(part) = self.part_of(&xt) {
                    part.insert(xt.clone()).expect("projection of a source row");
                }
                // Appends at the slot `support.len()`, keeping the
                // vectors parallel.
                self.instance
                    .insert(xt.clone())
                    .expect("projection of a source row");
                self.support
                    .push(u64::try_from(n).expect("removed rows were folded in"));
                xt
            })
            .collect();
        let (ins, del) = (out_added.len() as u64, out_removed.len() as u64);
        relvu_obs::counter!("engine.mat.tuples").add(ins);
        relvu_obs::counter!("engine.mat.tuples").sub(del);
        relvu_obs::counter!("engine.mat.instance_edits").add(ins + del);
        (out_added, out_removed)
    }

    /// Fold a committed *base*-row delta into the complement side (the
    /// sorted `π_Y(R)` entries). Runs for every view on every commit —
    /// even when the view-side subtree is skipped — because the
    /// complement projects the base, not the parent. Netted by key, so
    /// a translation of this very view edits no entry at all.
    pub(crate) fn fold_complement(&mut self, from: &AttrSet, added: &[Tuple], removed: &[Tuple]) {
        let ranks = &self.shared_ranks;
        let project = |r: &Tuple| r.project(from, &self.y);
        let keys = net(removed, added, project, |a, b| cmp_y(ranks, a, b));
        let find =
            |es: &[(Tuple, u64)], yt: &Tuple| es.binary_search_by(|(e, _)| cmp_y(ranks, e, yt));
        let mut fresh = Vec::new();
        let mut edits = 0;
        for (yt, n) in keys {
            match find(&self.y_entries, &yt) {
                Err(_) => fresh.push((yt, n)),
                Ok(i) => match self.y_entries[i].1.checked_add_signed(n) {
                    Some(0) => {
                        self.y_entries.remove(i);
                        edits += 1;
                    }
                    left => self.y_entries[i].1 = left.expect("removed rows were folded in"),
                },
            }
        }
        edits += fresh.len() as u64;
        for (yt, n) in fresh {
            let i = find(&self.y_entries, &yt).expect_err("absent keys stay absent");
            let n = u64::try_from(n).expect("removed rows were folded in");
            self.y_entries.insert(i, (yt, n));
        }
        relvu_obs::counter!("engine.mat.complement_edits").add(edits);
    }

    /// The split part, `σ_P` or `σ_¬P`, that view tuple `xt` belongs to.
    fn part_of(&mut self, xt: &Tuple) -> Option<&mut Relation> {
        let (matching, rest) = self.split.as_mut()?;
        let pred = self.pred.as_ref().expect("split implies pred");
        let keep = pred.eval(&self.x, xt);
        Some(if keep { matching } else { rest })
    }

    /// Debug oracle: the incrementally maintained state must equal a
    /// fresh recomputation from `base`. For DAG views the view side's
    /// support counts are relative to the parent's instance, but the
    /// *sets* checked here are projections of the base either way
    /// (`x ⊆ parent x` makes `π_x(π_{parent x}(R)) = π_x(R)`). Only
    /// called (and only does anything) in debug builds.
    #[cfg_attr(not(debug_assertions), allow(dead_code))]
    pub(crate) fn debug_assert_consistent(&self, base: &Relation) {
        if cfg!(debug_assertions) {
            let fresh = ops::project(base, self.x).expect("x within the universe");
            assert_eq!(
                self.instance, fresh,
                "materialized instance diverged from π_X(R)"
            );
            assert_eq!(
                self.support.len(),
                self.instance.len(),
                "support counts parallel to instance slots"
            );
            assert!(
                self.support.iter().all(|&n| n > 0),
                "resident view tuples have positive support"
            );
            if let Some((matching, rest)) = &self.split {
                let pred = self.pred.as_ref().expect("split implies pred");
                assert_eq!(
                    *matching,
                    ops::select(&fresh, |t| pred.eval(&self.x, t)),
                    "materialized σ_P diverged"
                );
                assert_eq!(
                    *rest,
                    ops::select(&fresh, |t| !pred.eval(&self.x, t)),
                    "materialized σ_¬P diverged"
                );
            }
            let fresh_y = ops::project(base, self.y).expect("y within the universe");
            let held = |(t, n): &(Tuple, u64)| *n > 0 && fresh_y.contains(t);
            assert!(
                self.y_entries.len() == fresh_y.len() && self.y_entries.iter().all(held),
                "materialized complement diverged from π_Y(R)"
            );
            assert!(
                self.y_entries
                    .windows(2)
                    .all(|w| cmp_y(&self.shared_ranks, &w[0].0, &w[1].0) == Ordering::Less),
                "complement entries strictly sorted by (X∩Y, full tuple)"
            );
        }
    }
}

/// The complement sort order: the `X∩Y` columns (major key a probe
/// searches on), then the full tuple (making distinct entries strictly
/// ordered).
#[inline]
fn cmp_y(shared_ranks: &[usize], a: &Tuple, b: &Tuple) -> Ordering {
    for &rank in shared_ranks {
        match a.at(rank).cmp(&b.at(rank)) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.cmp(b)
}

/// Net a delta by key: project every removed row (−1) and added row
/// (+1), sort by `cmp`, and collapse each key to one signed count,
/// dropping the keys that net to zero. The result is strictly sorted.
fn net(
    removed: &[Tuple],
    added: &[Tuple],
    project: impl Fn(&Tuple) -> Tuple,
    cmp: impl Fn(&Tuple, &Tuple) -> Ordering,
) -> Vec<(Tuple, i64)> {
    let mut keys: Vec<(Tuple, i64)> = removed
        .iter()
        .map(|r| (project(r), -1))
        .chain(added.iter().map(|r| (project(r), 1)))
        .collect();
    keys.sort_unstable_by(|a, b| cmp(&a.0, &b.0));
    keys.dedup_by(|(k, n), (kept, total)| {
        let same = k == kept;
        if same {
            *total += *n;
        }
        same
    });
    keys.retain(|&(_, n)| n != 0);
    keys
}

#[cfg(test)]
mod tests;
