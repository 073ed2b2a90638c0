//! Incremental materialized view instances.
//!
//! Every hot path of the engine consults the view instance `π_X(R)` and
//! (through the translations `t ⋈ π_Y(R)`) the constant complement
//! `π_Y(R)`. Recomputing either from the full base is O(|base|) per
//! operation; [`ViewMat`] keeps both materialized and folds each
//! committed [`Translation`]'s base-row delta into them in O(|Δ|), in
//! the support-counting style of Incremental Relational Lenses (Horn,
//! Perera, Cheney, 2018).
//!
//! * The **view side** tracks, per view tuple, the number of *source*
//!   rows projecting onto it. For a view over the base the source is
//!   the base relation; for a view registered over another view (PR 6)
//!   it is the parent's materialized instance, so deltas propagate down
//!   the dependency DAG one edge at a time. A source-row insert bumps
//!   the count (creating the view tuple at 0→1); a source-row delete
//!   drops it (removing the view tuple only at 1→0, i.e. when its
//!   *last* supporting row goes). The counts live in a `Vec<u64>`
//!   parallel to the columnar instance's row slots — the instance's own
//!   sorted-id index resolves a projection to its count slot, so no
//!   tuple-keyed hash map (and none of its key clones) remains.
//!   Selection views additionally keep the `σ_P` / `σ_¬P` split of the
//!   instance, which is the pair the §6(2) machinery checks against.
//! * The **complement side** keeps the distinct `π_Y(R)` tuples with
//!   their support counts in one array sorted by (`X∩Y` projection,
//!   full tuple): a translation's join `t ⋈ π_Y(R)` binary-searches the
//!   run start and [`gallop`]s to the run end instead of probing a
//!   bucket map, and maintenance is a binary search per delta row. It
//!   is *always* fed from the base delta — `π_Y(R)` can change even
//!   when the parent's instance does not — which keeps commits through
//!   any DAG node O(|Δ| log |π_Y(R)|).
//!
//! Full recomputation ([`ViewMat::build`]) survives as the rebuild path
//! after Σ replacement, snapshot load, checkpoint-delta replay and an
//! abort — and, in
//! debug builds, as the oracle [`ViewMat::debug_assert_consistent`]
//! checks after every commit.

use std::cmp::Ordering;

use relvu_core::Translation;
use relvu_relation::{gallop, ops, Attr, AttrSet, Pred, Relation, Tuple};

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
    /// replay and an abort.
    ///
    /// # Errors
    /// The same [`relvu_relation::RelationError::NotASubset`] a fresh
    /// projection would produce if the view's attribute sets reach
    /// outside its source's universe.
    pub(crate) fn build(base: &Relation, source: Option<&Relation>, def: &ViewDef) -> Result<Self> {
        let x = def.x();
        let y = def.y();
        let shared = x & y;
        let feed = source.unwrap_or(base);
        let instance = ops::project(feed, x)?;
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
        let split = def.pred().map(|pred| {
            (
                ops::select(&instance, |t| pred.eval(&x, t)),
                ops::select(&instance, |t| !pred.eval(&x, t)),
            )
        });
        let shared_ranks: Vec<usize> = shared.iter().map(|a| y.rank(a).expect("X∩Y ⊆ Y")).collect();
        let shared_attrs: Vec<Attr> = shared.iter().collect();
        // Bulk complement: sort all projections once, collapse runs into
        // counted entries.
        let from = base.attrs();
        let mut ys: Vec<Tuple> = base.iter().map(|r| r.project(&from, &y)).collect();
        ys.sort_unstable_by(|a, b| cmp_y(&shared_ranks, a, b));
        let mut y_entries: Vec<(Tuple, u64)> = Vec::new();
        for yt in ys {
            match y_entries.last_mut() {
                Some((last, n)) if *last == yt => *n += 1,
                _ => y_entries.push((yt, 1)),
            }
        }
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
    /// pure function of the starting order and the operation sequence
    /// (it also hides the complement's sort order, so switching the
    /// bucket map to a sorted array changed no observable bytes).
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

    /// Fold a committed *source*-row delta into the view side (support
    /// counts, instance, split), returning this view's own instance
    /// delta `(added, removed)` sorted by tuple value — the incoming
    /// delta for its children in the dependency DAG. O(|added| +
    /// |removed|) membership work, independent of |base| and |V|.
    pub(crate) fn fold_instance(
        &mut self,
        added: &[Tuple],
        removed: &[Tuple],
    ) -> (Vec<Tuple>, Vec<Tuple>) {
        let mut out_added = Vec::new();
        let mut out_removed = Vec::new();
        for row in removed {
            if let Some(gone) = self.remove_source_row(row) {
                out_removed.push(gone);
            }
        }
        for row in added {
            if let Some(new) = self.add_source_row(row) {
                out_added.push(new);
            }
        }
        // A tuple in both lists left the instance and re-entered within
        // this commit (its support dipped to 0 before an addition
        // restored it): a net no-op. Cancel the pair — the delta is
        // set-level, so children see identical final support counts
        // either way — to keep subtrees below a net-quiet node skipped
        // instead of folding a vacuous remove/add.
        if !out_added.is_empty() && !out_removed.is_empty() {
            let in_both: std::collections::HashSet<Tuple> = {
                let rem: std::collections::HashSet<&Tuple> = out_removed.iter().collect();
                out_added
                    .iter()
                    .filter(|t| rem.contains(t))
                    .cloned()
                    .collect()
            };
            if !in_both.is_empty() {
                out_added.retain(|t| !in_both.contains(t));
                out_removed.retain(|t| !in_both.contains(t));
            }
        }
        out_added.sort();
        out_removed.sort();
        (out_added, out_removed)
    }

    /// Fold a committed *base*-row delta into the complement side (the
    /// sorted `π_Y(R)` entries). Runs for every view on every commit —
    /// even when the view-side subtree is skipped — because the
    /// complement projects the base, not the parent.
    /// O(|added| + |removed|) binary searches.
    pub(crate) fn fold_complement(&mut self, from: &AttrSet, added: &[Tuple], removed: &[Tuple]) {
        for row in removed {
            self.remove_complement_row(from, row);
        }
        for row in added {
            self.add_complement_row(from, row);
        }
    }

    /// Account one source row into the view side. Returns the view
    /// tuple if it is new to the instance (support 0→1).
    fn add_source_row(&mut self, row: &Tuple) -> Option<Tuple> {
        let xt = row.project(&self.src, &self.x);
        if let Some(slot) = self.instance.slot_of(&xt) {
            self.support[slot] += 1;
            return None;
        }
        if let Some((matching, rest)) = self.split.as_mut() {
            let pred = self.pred.as_ref().expect("split implies pred");
            if pred.eval(&self.x, &xt) {
                let _ = matching.insert(xt.clone());
            } else {
                let _ = rest.insert(xt.clone());
            }
        }
        // Appends at the slot `support.len()`, keeping the vectors
        // parallel.
        self.instance
            .insert(xt.clone())
            .expect("projection of a source row");
        self.support.push(1);
        relvu_obs::counter!("engine.mat.tuples").inc();
        Some(xt)
    }

    /// Account one source row out of the view side. Returns the view
    /// tuple if it left the instance (support 1→0).
    fn remove_source_row(&mut self, row: &Tuple) -> Option<Tuple> {
        let xt = row.project(&self.src, &self.x);
        let slot = self
            .instance
            .slot_of(&xt)
            .expect("removed row was folded in");
        self.support[slot] -= 1;
        if self.support[slot] == 0 {
            // The relation swap-removes storage slot `slot`; mirror the
            // move on the counts.
            self.instance.remove(&xt);
            self.support.swap_remove(slot);
            if let Some((matching, rest)) = self.split.as_mut() {
                matching.remove(&xt);
                rest.remove(&xt);
            }
            relvu_obs::counter!("engine.mat.tuples").sub(1);
            return Some(xt);
        }
        None
    }

    fn add_complement_row(&mut self, from: &AttrSet, row: &Tuple) {
        let yt = row.project(from, &self.y);
        match self
            .y_entries
            .binary_search_by(|(e, _)| cmp_y(&self.shared_ranks, e, &yt))
        {
            Ok(i) => self.y_entries[i].1 += 1,
            Err(i) => self.y_entries.insert(i, (yt, 1)),
        }
    }

    fn remove_complement_row(&mut self, from: &AttrSet, row: &Tuple) {
        let yt = row.project(from, &self.y);
        let i = self
            .y_entries
            .binary_search_by(|(e, _)| cmp_y(&self.shared_ranks, e, &yt))
            .expect("removed row was folded in");
        self.y_entries[i].1 -= 1;
        if self.y_entries[i].1 == 0 {
            self.y_entries.remove(i);
        }
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
            assert_eq!(
                self.y_entries.len(),
                fresh_y.len(),
                "materialized complement diverged from π_Y(R)"
            );
            assert!(
                self.y_entries
                    .iter()
                    .all(|(t, n)| *n > 0 && fresh_y.contains(t)),
                "materialized complement holds a tuple not in π_Y(R)"
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
