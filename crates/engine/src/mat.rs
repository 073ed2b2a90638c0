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
//! * The **complement side** keeps the distinct `π_Y(R)` tuples in one
//!   flat block of values (a [`RowBuf`], no allocation per entry),
//!   sorted by (`X∩Y` projection, full tuple), with their support
//!   counts in a parallel array (an entry whose count falls to zero
//!   stays in place, dead, until dead entries outnumber live ones, so a
//!   removal shifts nothing): a translation's join `t ⋈ π_Y(R)`
//!   binary-searches the run start and [`gallop`]s to the run end, both
//!   by entry index, instead of probing a bucket map. It is *always*
//!   fed from the base delta — `π_Y(R)` can change even when the
//!   parent's instance does not.
//!
//! A commit starts with one pass, [`ViewMat::apply`], that joins the
//! committing view's translation against its complement — writing each
//! joined row straight into a flat [`RowBuf`], already in sorted order,
//! with no per-row tuple — and edits the base in place from those
//! borrowed rows by [`Relation::apply_delta`]: the `i`-th removed row
//! and the `i`-th added row are rewritten as a pair in the removed
//! row's slot, then the leftovers are swap-removed or appended. A
//! case-2 replace (`t1[X∩Y] = t2[X∩Y]`) walks one complement run for
//! both joins, so every pair is one row with new `X − Y` columns and
//! the base edit moves no row. Before the first edit it checks the
//! joined rows' arity and that every relation the commit inserts into
//! has dictionary ids left for them, so a commit fails whole or not at
//! all.
//!
//! Both sides then fold the base delta **netted by key, in place**: a
//! pair whose two rows project equally is dropped before any sort,
//! adjacent rows with equal keys merge into one signed entry, the
//! entries are sorted (by reference) on their key columns (obs
//! `engine.mat.net_sorted_rows` counts them), each run of equal keys
//! collapses to one signed count, and only a key
//! whose count is non-zero is projected, into one flat buffer of keys.
//! Only a key whose support crosses zero edits an array (obs
//! `engine.mat.instance_edits` / `engine.mat.complement_edits`). So a
//! translation's own complement, and every view tuple whose rows all
//! move together, cost neither an edit nor an allocation. The instance
//! and split edits go through [`Relation::apply_delta`] too, the rule
//! the published chain replays the delta by, so the writer's instance
//! and split keep the published row order exactly (which is what lets
//! publish re-root a long chain on a clone of them; see
//! [`crate::mvcc`]).
//!
//! Full recomputation ([`ViewMat::build`]) is the path at view
//! registration and the rebuild path after Σ replacement, snapshot load
//! and an abort — and, in debug builds, the oracle
//! [`ViewMat::debug_assert_consistent`] checks after every commit. It
//! goes through no net: one counted projection
//! ([`ops::project_counted`]) of the feed gives the instance in
//! first-occurrence order with each tuple's support, slot for slot, and
//! one of the base gives the distinct complement entries with their
//! counts, which alone are then sorted into the join's order. Each is a
//! single sort of `u32` id keys, where netting sorted every source row
//! by value. Recovery registers the views only after the whole
//! checkpoint-delta chain has been applied to the base, so it builds
//! each view once.

use std::cmp::Ordering;

use relvu_core::Translation;
use relvu_relation::{gallop, ops, Attr, AttrSet, Pred, Relation, RowRef, SlotEdit, Tuple, Value};

use crate::commit::{Block, RowBuf};
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
    /// Dense positions of `x` within a row of the relation the view
    /// side is fed from: the base for base-rooted views, the parent's
    /// instance for views over views.
    x_pos: Vec<usize>,
    /// Dense positions of `y` within a base row.
    y_pos: Vec<usize>,
    /// Dense positions of `X∩Y` within a base row.
    shared_pos: Vec<usize>,
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
    /// Where each column of a joined row `t ⋈ e` (over `x ∪ y`) is read
    /// from: `(true, rank)` in the view tuple `t`, `(false, rank)` in the
    /// complement entry `e`.
    join_src: Vec<(bool, usize)>,
    /// Distinct `π_Y(R)` tuples in one flat block of values, sorted by
    /// (`X∩Y` projection, full tuple). With `X∩Y = ∅` every probe's run
    /// is the whole block, which degrades to the Cartesian product
    /// exactly like the natural join does.
    y_entries: RowBuf,
    /// The base-row support count of each entry of `y_entries`, index
    /// for index. An entry whose count falls to zero stays in place,
    /// dead, so removing one moves no other entry (the block is 40 B an
    /// entry for two columns, too much to shift on every departure);
    /// the same tuple coming back revives it, and the dead entries are
    /// dropped in one pass once they outnumber the live ones.
    y_counts: Vec<u64>,
    /// Dead entries (count zero) in `y_entries`.
    y_dead: usize,
}

impl ViewMat {
    /// Materialize `def` over `base` by a full scan, the view side fed
    /// from `source` when given (the parent's materialized instance)
    /// and from `base` otherwise; used at view registration (and so at
    /// `Database::load` and recovery) and as the rebuild path after
    /// `set_fds` and an abort. O((|base| + |source|) log) in two counted
    /// projections: the feed's onto `X` is the instance with its
    /// support, and the base's onto `Y` gives the complement entries and
    /// counts, sorted once over the distinct entries into (`X∩Y`, tuple)
    /// value order. A rebuild that keeps the view's `published`
    /// instance (and split) over the same base adopts it, row order
    /// included, so later folds stay in the published row order; only
    /// then is each count's slot looked up.
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
        let x_pos = positions(x, feed.attrs())?;
        let y_pos = positions(y, base.attrs())?;
        let shared_pos = positions(shared, base.attrs())?;
        // One counted projection gives the instance in first-occurrence
        // order with each tuple's support, slot for slot.
        let (fresh, counts) = ops::project_counted(feed, x)?;
        let (instance, support) = match published {
            None => (fresh, counts),
            // A published instance holds the same tuples in the order
            // the folds left them: look each count's slot up there.
            Some(vs) => {
                let instance = (*vs.inst.get()).clone();
                let mut support = vec![0u64; instance.len()];
                for (xt, n) in fresh.iter().zip(counts) {
                    let slot = instance
                        .slot_of(&xt)
                        .expect("the published instance is this base's projection");
                    support[slot] = n;
                }
                (instance, support)
            }
        };
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
        let join_src = (x | y)
            .iter()
            .map(|a| match x.rank(a) {
                Some(rank) => (true, rank),
                None => (false, y.rank(a).expect("a joined column is in x or y")),
            })
            .collect();
        // The complement: one counted projection of the base, its
        // distinct entries then sorted once into the join's order.
        let (entries, counts) = ops::project_counted(base, y)?;
        let order = entries.slots_in_value_order(shared);
        let mut y_entries = RowBuf::with_capacity(y.len(), order.len());
        let mut y_counts = Vec::with_capacity(order.len());
        for slot in order {
            let slot = slot as usize;
            y_entries.push(entries.row(slot).values());
            y_counts.push(counts[slot]);
        }
        relvu_obs::counter!("engine.mat.tuples").add(instance.len() as u64);
        relvu_obs::counter!("engine.mat.rebuilds").inc();
        Ok(ViewMat {
            x,
            y,
            pred: def.pred().cloned(),
            x_pos,
            y_pos,
            shared_pos,
            support,
            instance,
            split,
            shared_ranks,
            shared_attrs,
            join_src,
            y_entries,
            y_counts,
            y_dead: 0,
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
    fn cmp_entry_probe(&self, e: &[Value], t: &Tuple) -> Ordering {
        for (&rank, &a) in self.shared_ranks.iter().zip(&self.shared_attrs) {
            match e[rank].cmp(&t.get(&self.x, a)) {
                Ordering::Equal => continue,
                other => return other,
            }
        }
        Ordering::Equal
    }

    /// The base rows `{t} ⋈ π_Y(R)` — a translation's touched rows —
    /// answered from the sorted complement: binary search to the run's
    /// start, [`gallop`] to its end, O(log |π_Y(R)| + matches). Each
    /// joined row is written straight into one flat buffer. The rows come
    /// out sorted by value: within a run the entries agree on `X∩Y` and
    /// ascend as `Y` tuples, and the joined rows take their other
    /// columns from `t`.
    fn join_rows(&self, t: &Tuple) -> RowBuf {
        let entries = self.y_entries.block();
        let lo = entries.partition_point(|e| self.cmp_entry_probe(e, t) == Ordering::Less);
        let run = gallop(entries.len() - lo, |k| {
            self.cmp_entry_probe(entries.row(lo + k), t) == Ordering::Equal
        });
        let mut out = RowBuf::with_capacity(self.join_src.len(), run);
        for i in (lo..lo + run).filter(|&i| self.y_counts[i] > 0) {
            let e = entries.row(i);
            out.push(
                self.join_src
                    .iter()
                    .map(|&(in_t, rank)| if in_t { t.at(rank) } else { e[rank] }),
            );
        }
        out
    }

    /// Apply a committed translation to `base` in place and return the
    /// base-row delta it made, `(added, removed)`, both sorted by row
    /// value: the rows of `base − removed ∪ added` equal
    /// [`Translation::apply`]'s result. The edit is
    /// [`Relation::apply_delta`] on exactly these lists, so snapshot
    /// replay, CDC folds and checkpoint replay reproduce the base row
    /// *order* too, not just its set content. In Theorem 9's case 2
    /// (`t1[X∩Y] = t2[X∩Y]`) both joins walk the same complement run, so
    /// `removed[i] = t1 * e_i` pairs with `added[i] = t2 * e_i`: each
    /// moved row is rewritten in its own slot, changing only its `X − Y`
    /// columns.
    ///
    /// # Errors
    /// Before the first edit: an arity mismatch if the joined rows do
    /// not range over `base`'s attributes, and
    /// [`relvu_relation::RelationError::DictFull`] if `base` or one of
    /// the `views` the rows fold into might run out of dictionary ids.
    /// Either leaves `base` untouched.
    pub(crate) fn apply<'a>(
        &self,
        base: &mut Relation,
        tr: &Translation,
        views: impl IntoIterator<Item = &'a ViewMat>,
    ) -> Result<(RowBuf, RowBuf)> {
        let none = || RowBuf::with_capacity(self.join_src.len(), 0);
        let (added, removed) = match tr {
            Translation::Identity => (none(), none()),
            Translation::InsertJoin { t } => (self.join_rows(t), none()),
            Translation::DeleteJoin { t } => (none(), self.join_rows(t)),
            Translation::ReplaceJoin { t1, t2 } => (self.join_rows(t2), self.join_rows(t1)),
        };
        debug_assert!(
            [&added, &removed].iter().all(|b| b
                .block()
                .iter()
                .zip(b.block().iter().skip(1))
                .all(|(p, q)| p < q)),
            "joined rows come out strictly sorted"
        );
        // Verify before the first edit so the edit can never stop
        // half-applied. The checks guarantee x ∪ y = U, so joined rows
        // have base arity.
        let from = base.attrs();
        if !added.is_empty() && self.join_src.len() != from.len() {
            return Err(relvu_relation::RelationError::ArityMismatch {
                expected: from.len(),
                got: self.join_src.len(),
            }
            .into());
        }
        if !base.has_dict_room(added.len())
            || views.into_iter().any(|v| !v.has_dict_room(added.len()))
        {
            return Err(relvu_relation::RelationError::DictFull.into());
        }
        // The base satisfies the join dependency *[X, Y] (Y is a
        // complement), so `t ⋈ π_Y(R)` for a view tuple t holds only
        // base rows, and for a tuple outside the view only absent ones.
        base.apply_delta(removed.block().iter(), added.block().iter())
            .expect("a translation removes base rows and adds absent ones");
        Ok((added, removed))
    }

    /// Can every relation this view keeps (the instance and the σ_P
    /// split) take the projections of `rows` more base rows without a
    /// dictionary running out of ids? See [`Relation::has_dict_room`].
    fn has_dict_room(&self, rows: usize) -> bool {
        let parts = self.split.iter().flat_map(|(m, r)| [m, r]);
        std::iter::once(&self.instance)
            .chain(parts)
            .all(|rel| rel.has_dict_room(rows))
    }

    /// Fold a committed *source*-row delta, netted by key, into the view
    /// side (support counts, instance, split), returning this view's own
    /// instance delta `(added, removed)` sorted by row value — the
    /// incoming delta for its children in the dependency DAG, and the
    /// lists [`Relation::apply_delta`] applied here: to the instance
    /// whole, with the support counts following every slot edit, and to
    /// each σ_P split part as the rows of each list that fall in it.
    pub(crate) fn fold_instance(
        &mut self,
        added: Block<'_>,
        removed: Block<'_>,
    ) -> (RowBuf, RowBuf) {
        let (keys, counts) = net(removed.iter(), added.iter(), &[], &self.x_pos);
        let mut out_added = RowBuf::with_capacity(self.x.len(), 0);
        let mut out_removed = RowBuf::with_capacity(self.x.len(), 0);
        // The support of each row of `out_added`.
        let mut fresh = Vec::new();
        for (xt, &n) in keys.block().iter().zip(&counts) {
            let Some(slot) = self.instance.slot_of(xt) else {
                out_added.push(xt.iter().copied());
                fresh.push(u64::try_from(n).expect("removed rows were folded in"));
                continue;
            };
            let left = self.support[slot].checked_add_signed(n);
            self.support[slot] = left.expect("removed rows were folded in");
            if left == Some(0) {
                out_removed.push(xt.iter().copied());
            }
        }
        let support = &mut self.support;
        self.instance
            .apply_delta_tracked(
                out_removed.block().iter(),
                out_added.block().iter(),
                |edit| match edit {
                    SlotEdit::Rewrite { slot, added } => support[slot] = fresh[added],
                    SlotEdit::SwapRemove { slot } => {
                        support.swap_remove(slot);
                    }
                    SlotEdit::Append { added } => support.push(fresh[added]),
                },
            )
            .expect(NETTED);
        if let Some((matching, rest)) = self.split.as_mut() {
            let pred = self.pred.as_ref().expect("split implies pred");
            let x = &self.x;
            let (gone, new) = (out_removed.block(), out_added.block());
            for (part, keep) in [(matching, true), (rest, false)] {
                let side = |t: &&[Value]| pred.eval(x, *t) == keep;
                part.apply_delta(gone.iter().filter(side), new.iter().filter(side))
                    .expect(NETTED);
            }
        }
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
    pub(crate) fn fold_complement(&mut self, added: Block<'_>, removed: Block<'_>) {
        let (keys, counts) = net(removed.iter(), added.iter(), &self.shared_pos, &self.y_pos);
        let ranks = &self.shared_ranks;
        // Where `yt` is, or would go, among the sorted entries.
        let find = |es: Block<'_>, yt: &[Value]| {
            let i = es.partition_point(|e| cmp_y(ranks, e, yt) == Ordering::Less);
            if i < es.len() && es.row(i) == yt {
                Ok(i)
            } else {
                Err(i)
            }
        };
        let mut fresh = Vec::new();
        let mut edits = 0;
        for (yt, &n) in keys.block().iter().zip(&counts) {
            let Ok(i) = find(self.y_entries.block(), yt) else {
                fresh.push((yt, n));
                continue;
            };
            // A non-zero net count: a live entry dies or stays, a dead
            // one revives.
            let was = self.y_counts[i];
            let now = was.checked_add_signed(n);
            self.y_counts[i] = now.expect("removed rows were folded in");
            if was == 0 {
                self.y_dead -= 1;
                edits += 1;
            } else if now == Some(0) {
                self.y_dead += 1;
                edits += 1;
            }
        }
        edits += fresh.len() as u64;
        for (yt, n) in fresh {
            let i = find(self.y_entries.block(), yt).expect_err("absent keys stay absent");
            self.y_entries.insert(i, yt);
            self.y_counts
                .insert(i, u64::try_from(n).expect("removed rows were folded in"));
        }
        if self.y_dead * 2 > self.y_counts.len() {
            let mut live = RowBuf::with_capacity(self.y.len(), self.y_counts.len() - self.y_dead);
            for (e, &n) in self.y_entries.block().iter().zip(&self.y_counts) {
                if n > 0 {
                    live.push(e.iter().copied());
                }
            }
            self.y_entries = live;
            self.y_counts.retain(|&n| n > 0);
            self.y_dead = 0;
        }
        relvu_obs::counter!("engine.mat.complement_edits").add(edits);
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
            let entries = self.y_entries.block();
            let dead = self.y_counts.iter().filter(|&&n| n == 0).count();
            assert!(
                self.y_counts.len() == entries.len()
                    && dead == self.y_dead
                    && entries.len() - dead == fresh_y.len()
                    && entries
                        .iter()
                        .zip(&self.y_counts)
                        .all(|(e, &n)| n == 0 || fresh_y.contains(e)),
                "materialized complement diverged from π_Y(R)"
            );
            assert!(
                (1..entries.len()).all(|i| cmp_y(
                    &self.shared_ranks,
                    entries.row(i - 1),
                    entries.row(i)
                ) == Ordering::Less),
                "complement entries strictly sorted by (X∩Y, full tuple)"
            );
        }
    }
}

/// The complement sort order: the `X∩Y` columns (major key a probe
/// searches on), then the full row (making distinct entries strictly
/// ordered).
#[inline]
fn cmp_y(shared_ranks: &[usize], a: &[Value], b: &[Value]) -> Ordering {
    for &rank in shared_ranks {
        match a[rank].cmp(&b[rank]) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    a.cmp(b)
}

/// The panic message of a view-side edit: the netted lists remove only
/// resident keys and add only absent ones, and the commit's up-front
/// dictionary check (in [`ViewMat::apply`]) has cleared their ids.
const NETTED: &str = "netted keys edit resident rows, with dictionary room checked";

/// Dense positions of `of` within a row over `within`.
fn positions(of: AttrSet, within: AttrSet) -> Result<Vec<usize>> {
    of.iter()
        .map(|a| within.rank(a))
        .collect::<Option<_>>()
        .ok_or_else(|| relvu_relation::RelationError::NotASubset.into())
}

/// Compare two rows on the columns at `pos`, in order: the value order
/// of their projections onto those columns.
#[inline]
fn cmp_at(pos: &[usize], a: &impl RowRef, b: &impl RowRef) -> Ordering {
    for &p in pos {
        match a.at(p).cmp(&b.at(p)) {
            Ordering::Equal => continue,
            other => return other,
        }
    }
    Ordering::Equal
}

/// Net a delta by key, in place: drop each pair `(removed[i],
/// added[i])` of the [`Relation::apply_delta`] pairing whose two rows
/// project equally (a case-2 replace pairs every row with its own
/// successor, so a projection that misses `X − Y` cancels whole without
/// a sort), then merge each run of adjacent rows with equal keys into
/// one signed entry (the rows a translation joins to one view tuple
/// arrive together, so a net onto that view's columns sorts one entry
/// per list), then sort
/// the entries (by reference) on their `major` columns, then their `key`
/// columns, and collapse each run of equal keys to one signed count.
/// Only a key whose count is non-zero is projected onto `key`, into one
/// flat buffer, its count at the same index of the second result. The
/// keys are strictly sorted in that order: `major` empty gives the key
/// rows' value order (the instance's), `major` the `X∩Y` columns gives
/// [`cmp_y`] (the complement's).
fn net<R: RowRef>(
    removed: impl IntoIterator<Item = R>,
    added: impl IntoIterator<Item = R>,
    major: &[usize],
    key: &[usize],
) -> (RowBuf, Vec<i64>) {
    let cmp = |a: &R, b: &R| cmp_at(major, a, b).then_with(|| cmp_at(key, a, b));
    let (mut removed, mut added) = (removed.into_iter(), added.into_iter());
    let (n_removed, n_added) = (removed.size_hint().0, added.size_hint().0);
    let pairs = n_removed.min(n_added);
    let push = |entries: &mut Vec<(R, i64)>, row: R, n: i64| match entries.last_mut() {
        Some(last) if cmp(&last.0, &row) == Ordering::Equal => last.1 += n,
        _ => entries.push((row, n)),
    };
    // The added rows of the kept pairs wait in `paired` and go last, so
    // a replace's two key runs reach the sort as two runs. (Pairing is
    // only a shortcut: netting the rows unpaired gives the same keys.)
    let mut rows: Vec<(R, i64)> = Vec::with_capacity(n_removed + n_added);
    let mut paired: Vec<(R, i64)> = Vec::new();
    for (r, a) in removed.by_ref().take(pairs).zip(added.by_ref()) {
        if cmp(&r, &a) != Ordering::Equal {
            push(&mut rows, r, -1);
            push(&mut paired, a, 1);
        }
    }
    for r in removed {
        push(&mut rows, r, -1);
    }
    for a in added {
        push(&mut rows, a, 1);
    }
    for (a, n) in paired {
        push(&mut rows, a, n);
    }
    relvu_obs::counter!("engine.mat.net_sorted_rows").add(rows.len() as u64);
    rows.sort_unstable_by(|a, b| cmp(&a.0, &b.0));
    let mut keys = RowBuf::with_capacity(key.len(), 0);
    let mut counts = Vec::new();
    for run in rows.chunk_by(|a, b| cmp(&a.0, &b.0) == Ordering::Equal) {
        let n: i64 = run.iter().map(|&(_, n)| n).sum();
        if n != 0 {
            let row = &run[0].0;
            keys.push(key.iter().map(|&p| row.at(p)));
            counts.push(n);
        }
    }
    (keys, counts)
}

#[cfg(test)]
pub(crate) mod tests;
