//! The database: universal relation + Σ + registered views.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::Arc;

use parking_lot::{RwLock, RwLockWriteGuard};

use relvu_core::select_view::{SelectionReject, SelectionView};
use relvu_core::{
    are_complementary, minimal_complement, translate_delete, translate_insert, translate_replace,
    RejectReason, Test1, Test2, Translatability, Translation,
};
use relvu_deps::check::satisfies_fds;
use relvu_deps::{closure, FdSet};
use relvu_relation::{AttrSet, Pred, Relation, RelationError, Schema, Tuple};

use crate::commit::{Block, Commit, RowBuf, ViewDelta};
use crate::log::{LogEntry, UpdateOp, UpdateReport};
use crate::mat::ViewMat;
use crate::mvcc::{EngineSnapshot, History, LazyRel, SnapCell, SnapState, ViewSnap};
use crate::subscribe::{
    event_for, make_subscriber, SubscribeFrom, SubscribeOptions, Subscription, SubscriptionHub,
};
use crate::view::ViewDef;
use crate::{EngineError, Policy, Result};

/// Per-view update counters.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ViewStats {
    /// Updates translated and applied.
    pub accepted: u64,
    /// Updates rejected as untranslatable.
    pub rejected: u64,
    /// Rejections broken down by [`RejectReason::code`] (e.g.
    /// `"intersection_not_in_view"`); values sum to `rejected`.
    pub rejected_by_reason: BTreeMap<String, u64>,
}

/// The writer's state. The last published [`SnapState`] (`cur`) is the
/// engine's only committed state; everything else here is working state
/// derived from it plus the staged commits, which publish applies and an
/// abort ([`Database::reset_to_published`]) drops.
pub(crate) struct Inner {
    /// The working base: the published base with the staged commits
    /// applied in place.
    pub(crate) base: Relation,
    /// One materialization per registered view over the working base,
    /// maintained incrementally by [`Database::commit`] and rebuilt from
    /// scratch only on `set_fds`, checkpoint-delta replay and abort.
    pub(crate) mats: HashMap<String, ViewMat>,
    /// Per-view counters: the published ones plus the rejections
    /// recorded since — a rejection stands even when its batch aborts.
    /// Accepted counts move at publish.
    pub(crate) stats: HashMap<String, ViewStats>,
    /// The most recently published snapshot. Σ, the view definitions,
    /// the DAG, the history, the sequence number and the epoch are read
    /// from here; the next publish extends its delta chains.
    pub(crate) cur: Arc<SnapState>,
    /// Staged commits, in seq order. `apply_op` publishes its one commit
    /// at once; the batch paths stage one entry per commit and publish
    /// at batch end, so readers never observe a state an abort could
    /// retract. Empty whenever the write lock is free.
    pub(crate) pending: Vec<Arc<Commit>>,
}

/// The engine write lock, as every mutator holds it. If the holder
/// unwinds, `Drop` resets the writer to the published state before the
/// lock is released: a panic mid-commit leaves the next writer nothing
/// half-applied to build on (the `parking_lot` shim does not poison).
pub(crate) struct WriteGuard<'a>(RwLockWriteGuard<'a, Inner>);

impl Drop for WriteGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            Database::reset_to_published(&mut self.0);
        }
    }
}

impl Deref for WriteGuard<'_> {
    type Target = Inner;
    fn deref(&self) -> &Inner {
        &self.0
    }
}

impl DerefMut for WriteGuard<'_> {
    fn deref_mut(&mut self) -> &mut Inner {
        &mut self.0
    }
}

/// A thread-safe updatable-view database over a single universal relation.
pub struct Database {
    pub(crate) inner: RwLock<Inner>,
    /// The publish cell queries pin snapshots from, lock-free with
    /// respect to the engine write lock.
    pub(crate) cell: SnapCell,
    /// Live delta-stream subscribers; fed at the snapshot publish point
    /// so event order always equals snapshot (== WAL == ack) order.
    pub(crate) hub: SubscriptionHub,
}

/// Run the translatability check for `op` against view `def` over the
/// view instance `v`, without touching any database state.
///
/// Re-entrant: takes only shared references, so batch speculation (see
/// [`crate::batch`]) can run checks for disjoint requests concurrently
/// from scoped threads.
pub(crate) fn check_update(
    schema: &Schema,
    fds: &FdSet,
    def: &ViewDef,
    v: &Relation,
    split: Option<(&Relation, &Relation)>,
    op: &UpdateOp,
) -> Result<Translatability> {
    let _timer = relvu_obs::histogram!("engine.check_ns").timer();
    // Selection views translate through the σ_P machinery (§6(2)),
    // against the (σ_P, σ_¬P) split — materialized when the caller has
    // it, recomputed from `v` otherwise.
    if let Some(sel) = &def.sel {
        let computed;
        let (w, w_bar) = match split {
            Some(pair) => pair,
            None => {
                computed = (sel.instance(v), sel.anti_instance(v));
                (&computed.0, &computed.1)
            }
        };
        let verdict = match op {
            UpdateOp::Insert { t } => sel.translate_insert(schema, fds, w, w_bar, t)?,
            UpdateOp::Delete { t } => sel.translate_delete(schema, fds, w, w_bar, t)?,
            UpdateOp::Replace { t1, t2 } => sel.translate_replace(schema, fds, w, w_bar, t1, t2)?,
        };
        return Ok(match verdict {
            Ok(v) => v,
            Err(SelectionReject::Projective(reason)) => Translatability::Rejected(reason),
            Err(SelectionReject::PredicateMismatch) => {
                Translatability::Rejected(RejectReason::IntersectionNotInView)
            }
        });
    }
    Ok(match op {
        UpdateOp::Insert { t } => match def.policy() {
            Policy::Exact => translate_insert(schema, fds, def.x(), def.y(), v, t)?,
            Policy::Test1 => Test1.check(schema, fds, def.x(), def.y(), v, t)?,
            Policy::Test2 => def
                .test2
                .as_ref()
                .expect("prepared at creation")
                .check(schema, fds, v, t)?,
        },
        UpdateOp::Delete { t } => translate_delete(schema, fds, def.x(), def.y(), v, t)?,
        UpdateOp::Replace { t1, t2 } => {
            translate_replace(schema, fds, def.x(), def.y(), v, t1, t2)?
        }
    })
}

/// The view tuples an operation is about, in operation order — the input
/// to [`RejectReason::trace`].
fn op_tuples(op: &UpdateOp) -> Vec<&Tuple> {
    match op {
        UpdateOp::Insert { t } | UpdateOp::Delete { t } => vec![t],
        UpdateOp::Replace { t1, t2 } => vec![t1, t2],
    }
}

/// Record a rejection against the named view's stats (total and by reason
/// code, plus the global `engine.rejected` counter) and build the
/// [`EngineError::Rejected`] carrying the explain trace.
///
/// The trace derives only from the operation's tuples and the reason —
/// never from the current view or base — so the batch path's reused
/// speculative verdicts produce byte-identical errors to serial
/// revalidation.
pub(crate) fn record_rejection(
    inner: &mut Inner,
    name: &str,
    op: &UpdateOp,
    reason: RejectReason,
) -> EngineError {
    let stats = inner.stats.entry(name.to_string()).or_default();
    stats.rejected += 1;
    *stats
        .rejected_by_reason
        .entry(reason.code().to_string())
        .or_insert(0) += 1;
    relvu_obs::counter!("engine.rejected").inc();
    let trace = reason.trace(&op_tuples(op));
    EngineError::Rejected { reason, trace }
}

impl Database {
    /// Create a database from a schema, dependency set, and legal base
    /// instance.
    ///
    /// # Errors
    /// [`EngineError::IllegalBase`] if `base` violates Σ, is not over
    /// the full universe, or holds a labeled null (a legal base is
    /// concrete: no translation, log record or dump can carry one).
    pub fn new(schema: Schema, fds: FdSet, base: Relation) -> Result<Self> {
        if base.attrs() != schema.universe() || base.has_nulls() || !satisfies_fds(&base, &fds) {
            return Err(EngineError::IllegalBase);
        }
        let cur = Arc::new(SnapState {
            epoch: 0,
            seq: 0,
            schema: Arc::new(schema),
            fds: Arc::new(fds),
            views: Arc::default(),
            dag: Arc::default(),
            stats: Arc::default(),
            history: History::default(),
            base: Arc::new(LazyRel::ready(Arc::new(base.clone()))),
            insts: Arc::default(),
        });
        Ok(Database {
            cell: SnapCell::new(Arc::clone(&cur)),
            hub: SubscriptionHub::new(),
            inner: RwLock::new(Inner {
                base,
                mats: HashMap::new(),
                stats: HashMap::new(),
                cur,
                pending: Vec::new(),
            }),
        })
    }

    /// Take the engine write lock — the one way mutators take it.
    pub(crate) fn write(&self) -> WriteGuard<'_> {
        WriteGuard(self.inner.write())
    }

    /// Pin the current published snapshot: a single consistent epoch
    /// holding the base, every view instance, the log and Σ. This is the
    /// engine's one read surface — every query is a method on the
    /// returned [`EngineSnapshot`], so two reads off one pin can never
    /// straddle a commit. Never takes the engine lock.
    pub fn snapshot(&self) -> EngineSnapshot {
        EngineSnapshot {
            state: self.cell.load(),
        }
    }

    /// Publish the staged commits (and any stats movement) as the next
    /// epoch: each commit joins the history, its view's accepted count
    /// moves, and its subscribers get their events. O(|Δ|): unchanged
    /// relations are shared structurally with the previous snapshot,
    /// changed ones get an O(1) delta-chain extension referencing the
    /// commit's shared delta.
    pub(crate) fn publish(&self, inner: &mut Inner) {
        let _t = relvu_obs::histogram!("engine.snap.publish_ns").timer();
        let mut next = inner.cur.successor();
        let staged = std::mem::take(&mut inner.pending);
        for commit in &staged {
            // Fan out to subscribers exactly here — the same commit, in
            // the same order, that this publish makes visible to
            // snapshot readers. A batch publishes all its staged commits
            // at once, so its events land atomically too.
            self.hub.dispatch(commit);
            let view = commit.entry.view.clone();
            inner.stats.entry(view).or_default().accepted += 1;
            relvu_obs::counter!("engine.accepted").inc();
            next.seq = commit.seq();
            next.history.push(Arc::clone(commit));
            next.base = next.base.advance(&commit.base);
            for (name, delta) in commit.views.iter() {
                let Some(vs) = Arc::make_mut(&mut next.insts).get_mut(name) else {
                    continue;
                };
                if let Some((m, r)) = vs.split.as_ref() {
                    // The split parts advance by the commit's σ_P
                    // partition of the instance delta.
                    vs.split = Some((m.advance(&delta.side(true)), r.advance(&delta.side(false))));
                }
                vs.inst = vs.inst.advance(delta);
            }
        }
        // Re-root what this publish advanced once its chain has grown as
        // long as the relation. The writer's folds apply each delta in the
        // order the chain replays it, so its copies are the chains'
        // replays, row for row.
        if !staged.is_empty() {
            next.base = next.base.rerooted(&inner.base, "base");
        }
        for (name, _) in staged.iter().flat_map(|c| c.views.iter()) {
            let (Some(mat), Some(vs)) = (
                inner.mats.get(name),
                Arc::make_mut(&mut next.insts).get_mut(name),
            ) else {
                continue;
            };
            vs.inst = vs.inst.rerooted(mat.instance(), name);
            if let (Some((m, r)), Some((pm, pr))) = (mat.split(), vs.split.as_mut()) {
                *pm = pm.rerooted(m, name);
                *pr = pr.rerooted(r, name);
            }
        }
        self.install(inner, next);
    }

    /// Make `next` the published state, carrying the writer's counters.
    fn install(&self, inner: &mut Inner, mut next: SnapState) {
        next.stats = Arc::new(inner.stats.clone());
        let next = Arc::new(next);
        inner.cur = Arc::clone(&next);
        self.cell.store(next);
        relvu_obs::counter!("engine.snap.epoch").inc();
    }

    /// The one abort path: drop the staged commits and reset the working
    /// base and materializations to the published state. A failed
    /// transactional batch, a failed checkpoint-delta replay and an
    /// unwinding writer ([`WriteGuard`]) all end here. The published
    /// base replays the writer's exact edits, so the reset base has the
    /// same row order the writer had.
    pub(crate) fn reset_to_published(inner: &mut Inner) {
        inner.pending.clear();
        inner.base = (*inner.cur.base.get()).clone();
        let cur = Arc::clone(&inner.cur);
        Self::rebuild_mats(inner, &cur);
    }

    /// Register a view `X` with a declared complement (or, when `None`, a
    /// minimal complement derived per Corollary 2) and an insertion policy.
    ///
    /// # Errors
    /// [`EngineError::DuplicateView`] on a name clash,
    /// [`EngineError::NotComplementary`] if the declared pair fails
    /// Theorem 1's test.
    pub fn create_view(
        &self,
        name: &str,
        x: AttrSet,
        y: Option<AttrSet>,
        policy: Policy,
    ) -> Result<()> {
        self.register_view(name, None, x, y, policy, None)
    }

    /// Register a view over another view's instance: `π_x(parent)`.
    ///
    /// The composition collapses to a flat constant-complement view of
    /// the base — `π_x ∘ π_{x′} = π_{x∩x′}`, with the complement
    /// validated (or derived, when `y` is `None`) against Σ for the
    /// *collapsed* attribute set, and any ancestor predicate inherited
    /// by conjunction — so `check_update` and rejection traces work
    /// identically at any depth. The engine records the parent edge in
    /// its dependency DAG and propagates each commit's delta through it
    /// in topological order.
    ///
    /// # Errors
    /// As [`Database::create_view`], plus [`EngineError::UnknownView`]
    /// for a missing parent and [`EngineError::CompositionRejected`]
    /// when the collapsed projection is empty, an inherited predicate
    /// escapes it, or the policy is not supported for the composition.
    pub fn create_view_over(
        &self,
        name: &str,
        parent: &str,
        x: AttrSet,
        y: Option<AttrSet>,
        policy: Policy,
    ) -> Result<()> {
        self.register_view(name, Some(parent), x, y, policy, None)
    }

    /// Register a selection view over another view's instance:
    /// `σ_pred(π_x(parent))`. Predicates compose by conjunction — the
    /// effective predicate is every ancestor's conjoined with `pred` —
    /// and, as for [`Database::create_selection_view`], only the exact
    /// test is supported.
    ///
    /// # Errors
    /// As [`Database::create_view_over`], plus an input error if the
    /// predicate mentions attributes outside `x`.
    pub fn create_selection_view_over(
        &self,
        name: &str,
        parent: &str,
        x: AttrSet,
        y: Option<AttrSet>,
        pred: Pred,
    ) -> Result<()> {
        // Validate predicate geometry before taking the lock
        // (SelectionView::new checks it).
        let _probe = SelectionView::new(x, x, pred.clone())?;
        self.register_view(name, Some(parent), x, y, Policy::Exact, Some(pred))
    }

    /// Drop a registered view. Only leaves of the dependency DAG can be
    /// dropped — a view with registered dependents must keep existing
    /// for them to read.
    ///
    /// # Errors
    /// [`EngineError::UnknownView`] if absent;
    /// [`EngineError::HasDependents`] naming the transitive dependents
    /// when other views are registered over this one.
    pub fn drop_view(&self, name: &str) -> Result<()> {
        let mut inner = self.write();
        let mut next = inner.cur.successor();
        let Some(def) = Arc::make_mut(&mut next.views).remove(name) else {
            return Err(EngineError::UnknownView {
                name: name.to_string(),
            });
        };
        let dependents = next.dag.dependents(name);
        if !dependents.is_empty() {
            return Err(EngineError::HasDependents {
                name: name.to_string(),
                dependents,
            });
        }
        Arc::make_mut(&mut next.dag).remove(name, def.parent());
        Arc::make_mut(&mut next.insts).remove(name);
        if let Some(mat) = inner.mats.remove(name) {
            mat.retire();
        }
        inner.stats.remove(name);
        // Terminal-notify the dropped view's subscribers before the new
        // epoch publishes: their queued events stay deliverable, then
        // the stream ends with `SubEvent::Dropped`.
        self.hub.notify_dropped(name);
        self.install(&mut inner, next);
        Ok(())
    }

    /// Shared registration path for projective and selection views,
    /// base-rooted or over a parent view.
    ///
    /// Runs **entirely under one write lock**, performs every
    /// validation first and publishes the registered view as one new
    /// epoch — so other threads can never observe a half-registered view
    /// (e.g. a selection view without its predicate), and any error
    /// leaves the engine untouched.
    ///
    /// With a parent, the registration *collapses* the composition into
    /// an equivalent flat view of the base: the effective attributes are
    /// `x ∩ x_parent` (π_X ∘ π_X′ = π_{X∩X′}), the effective predicate
    /// is the parent's conjoined with `own_pred`, and the complement is
    /// validated or derived against Σ for the collapsed set. Rejected
    /// compositions are exactly those the constant-complement discipline
    /// cannot maintain: an empty collapse, a predicate mentioning
    /// attributes the collapse projects away (σ_P and π do not commute
    /// there), or a non-exact policy under an inherited predicate.
    fn register_view(
        &self,
        name: &str,
        parent: Option<&str>,
        x: AttrSet,
        y: Option<AttrSet>,
        policy: Policy,
        own_pred: Option<Pred>,
    ) -> Result<()> {
        let mut inner = self.write();
        let cur = Arc::clone(&inner.cur);
        if cur.views.contains_key(name) {
            return Err(EngineError::DuplicateView {
                name: name.to_string(),
            });
        }
        let composition = |reason: String| EngineError::CompositionRejected {
            name: name.to_string(),
            parent: parent.unwrap_or_default().to_string(),
            reason,
        };
        let (x, parent_pred) = match parent {
            None => (x, None),
            Some(p) => {
                let pdef = cur.views.get(p).ok_or_else(|| EngineError::UnknownView {
                    name: p.to_string(),
                })?;
                let collapsed = x & pdef.x();
                if collapsed.is_empty() {
                    return Err(composition(
                        "the collapsed projection π_{X∩X′} is empty".to_string(),
                    ));
                }
                (collapsed, pdef.pred().cloned())
            }
        };
        let pred = match (parent_pred, own_pred.clone()) {
            (None, None) => None,
            (None, Some(p)) => Some(p),
            (Some(q), None) => Some(q),
            (Some(q), Some(p)) => {
                let mut conj = q;
                for atom in p.atoms() {
                    conj = conj.and(atom.attr, atom.op, atom.value);
                }
                Some(conj)
            }
        };
        if let Some(pr) = &pred {
            if !pr.attrs().is_subset(&x) {
                return Err(composition(
                    "the composed predicate mentions attributes the collapsed \
                     projection removes (σ_P does not commute past π_{X∩X′})"
                        .to_string(),
                ));
            }
            if parent.is_some() && policy != Policy::Exact {
                return Err(composition(format!(
                    "a composed selection view supports only the exact policy, not {policy}"
                )));
            }
        }
        let auto = y.is_none();
        let y = match y {
            Some(y) => {
                if !are_complementary(&cur.schema, &cur.fds, x, y) {
                    return Err(EngineError::NotComplementary);
                }
                y
            }
            None => minimal_complement(&cur.schema, &cur.fds, x),
        };
        let test2 =
            matches!(policy, Policy::Test2).then(|| Test2::prepare(&cur.schema, &cur.fds, x, y));
        let fp = closure::fingerprint(&cur.fds);
        let mut def = ViewDef::new(name.to_string(), x, y, policy, test2, auto, fp);
        if let Some(pred) = pred {
            def = def.with_pred(pred);
        }
        if let Some(own) = own_pred {
            def = def.with_own_pred(own);
        }
        if let Some(p) = parent {
            def = def.with_parent(p.to_string());
        }
        // Materialize before registering so an error leaves no trace.
        // A child's view side is fed from the parent's instance, so its
        // support counts line up with the per-edge deltas `commit`
        // propagates later.
        let source = def.parent().map(|p| {
            inner
                .mats
                .get(p)
                .expect("parent was just looked up")
                .instance()
                .clone()
        });
        let mat = ViewMat::build(&inner.base, source.as_ref(), &def, None)?;
        let mut next = cur.successor();
        Arc::make_mut(&mut next.insts).insert(name.to_string(), ViewSnap::of(&mat));
        Arc::make_mut(&mut next.views).insert(name.to_string(), def);
        Arc::make_mut(&mut next.dag).register(name, parent);
        inner.mats.insert(name.to_string(), mat);
        self.install(&mut inner, next);
        Ok(())
    }

    /// Rebuild the materialization of every view of `state` from the
    /// working base by a full scan — the path after wholesale state
    /// changes (Σ replacement, checkpoint-delta replay, abort) where
    /// incremental maintenance has no delta to fold. A view instance
    /// `state` publishes must be one of the working base; the rebuild
    /// keeps its row order.
    fn rebuild_mats(inner: &mut Inner, state: &SnapState) {
        for mat in inner.mats.values() {
            mat.retire();
        }
        // Walk the DAG in topological order so each child's view side can
        // be fed from its parent's freshly rebuilt instance.
        let mut mats = HashMap::with_capacity(state.views.len());
        for name in state.dag.order() {
            let def = state.views.get(name).expect("dag tracks registered views");
            let source = def.parent().map(|p| {
                let parent: &ViewMat = mats.get(p).expect("parents precede children");
                parent.instance().clone()
            });
            let mat = ViewMat::build(&inner.base, source.as_ref(), def, state.insts.get(name))
                .expect("registered view attrs lie within the universe");
            mats.insert(name.clone(), mat);
        }
        inner.mats = mats;
    }

    /// Replace the dependency set Σ wholesale, revalidating the base and
    /// every registered view against the new dependencies.
    ///
    /// The per-view cached complement is invalidated: auto-derived
    /// complements are recomputed (Corollary 2), declared complements are
    /// revalidated via Theorem 1, prepared Test 2 state is rebuilt, and
    /// every view's materialization is rebuilt (a complement change
    /// moves the `π_Y(R)` side wholesale). The old Σ's entries are
    /// evicted from the closure memo cache *by fingerprint* — other
    /// databases in the process keep their memoized closures.
    ///
    /// # Errors
    /// [`EngineError::IllegalBase`] if the current base violates the new
    /// Σ; [`EngineError::NotComplementary`] if a declared complement is
    /// no longer one — wrapped in [`EngineError::SetFdsRejected`] naming
    /// the failing view's transitive dependents when other views are
    /// registered over it. On error the database is left unchanged.
    pub fn set_fds(&self, fds: FdSet) -> Result<()> {
        let mut inner = self.write();
        if !satisfies_fds(&inner.base, &fds) {
            return Err(EngineError::IllegalBase);
        }
        let fp = closure::fingerprint(&fds);
        let mut next = inner.cur.successor();
        let mut rebuilt = HashMap::with_capacity(next.views.len());
        // Revalidate in topological order so the first failure reported
        // is an ancestor, with its dependents as the blast radius.
        for name in next.dag.order() {
            let def = next.views.get(name).expect("dag tracks registered views");
            let x = def.x();
            let y = if def.auto_complement {
                minimal_complement(&next.schema, &fds, x)
            } else {
                if !are_complementary(&next.schema, &fds, x, def.y()) {
                    let dependents = next.dag.dependents(name);
                    return Err(if dependents.is_empty() {
                        EngineError::NotComplementary
                    } else {
                        EngineError::SetFdsRejected {
                            view: name.clone(),
                            dependents,
                            source: Box::new(EngineError::NotComplementary),
                        }
                    });
                }
                def.y()
            };
            let test2 = matches!(def.policy(), Policy::Test2)
                .then(|| Test2::prepare(&next.schema, &fds, x, y));
            let mut fresh = ViewDef::new(
                name.clone(),
                x,
                y,
                def.policy(),
                test2,
                def.auto_complement,
                fp,
            );
            if let Some(p) = def.pred() {
                fresh = fresh.with_pred(p.clone());
            }
            if let Some(p) = def.own_pred() {
                fresh = fresh.with_own_pred(p.clone());
            }
            if let Some(p) = def.parent() {
                fresh = fresh.with_parent(p.to_string());
            }
            rebuilt.insert(name.clone(), fresh);
        }
        let old_fp = closure::fingerprint(&next.fds);
        next.views = Arc::new(rebuilt);
        next.fds = Arc::new(fds);
        if old_fp != fp {
            closure::cache::evict_fingerprint(old_fp);
        }
        // Σ moves only the complement sides; the published instances
        // stay as they are.
        Self::rebuild_mats(&mut inner, &next);
        self.install(&mut inner, next);
        Ok(())
    }

    /// Register a selection view `σ_pred(π_x(R))` (§6(2)) whose constant
    /// complement is the pair `(σ_{¬pred}(π_x(R)), π_y(R))`. Only the
    /// exact test is supported for selection views.
    ///
    /// # Errors
    /// As for [`Database::create_view`], plus an input error if the
    /// predicate mentions attributes outside `x`.
    pub fn create_selection_view(
        &self,
        name: &str,
        x: AttrSet,
        y: Option<AttrSet>,
        pred: Pred,
    ) -> Result<()> {
        // Validate predicate geometry before taking the lock
        // (SelectionView::new checks it).
        let _probe = SelectionView::new(x, x, pred.clone())?;
        // Registration is atomic: one write lock covers validation and the
        // insert, and the predicate is attached before the definition ever
        // becomes visible. (A previous version registered the projective
        // view, released the lock, then re-acquired it to attach the
        // predicate — a concurrent writer in the window could commit an
        // update through the unrestricted view, bypassing σ_P.)
        self.register_view(name, None, x, y, Policy::Exact, Some(pred))
    }

    /// Apply a batch of updates atomically: either every update applies
    /// (in order), or the engine is left as it was and the first failure
    /// is returned together with its position. The commits are staged
    /// and published together at the end, so an abort only drops them:
    /// no reader, subscriber, log or commit-ring entry ever sees the
    /// aborted prefix. The failing update's own rejection is still
    /// counted.
    ///
    /// # Errors
    /// [`EngineError::BatchFailed`] wrapping the first failing update's
    /// error together with its zero-based position in the batch.
    pub fn apply_batch(&self, updates: Vec<(String, UpdateOp)>) -> Result<Vec<UpdateReport>> {
        // One write lock for the whole batch: concurrent writers cannot
        // interleave, so the abort is a true transaction abort.
        let mut inner = self.write();
        let _hold = relvu_obs::histogram!("engine.lock.write_hold_ns").timer();
        let mut reports = Vec::with_capacity(updates.len());
        for (index, (view, op)) in updates.into_iter().enumerate() {
            match self.apply_inner(&mut inner, &view, op) {
                Ok(r) => reports.push(r),
                Err(e) => {
                    // A failed update edits nothing, so with nothing
                    // staged the working state is still the published one.
                    if !inner.pending.is_empty() {
                        Self::reset_to_published(&mut inner);
                    }
                    // Publish once so the failing update's rejection
                    // stats become visible (the data state equals the
                    // pre-batch epoch).
                    self.publish(&mut inner);
                    return Err(EngineError::BatchFailed {
                        index,
                        source: Box::new(e),
                    });
                }
            }
        }
        // One publish for the whole transaction: atomic visibility.
        self.publish(&mut inner);
        Ok(reports)
    }

    /// Fast-forward the update sequence counter to `seq` without applying
    /// anything.
    ///
    /// This exists for recovery: a database reconstructed from a
    /// checkpoint starts counting at 0, but the updates replayed on top
    /// of it carry the sequence numbers they were assigned before the
    /// crash. Calling `resume_at(checkpoint_seq)` before replay makes the
    /// engine hand out matching numbers. Only forward jumps are allowed,
    /// so the log stays strictly monotone — and only over an *empty*
    /// history: jumping past commits already held would tear a hole in
    /// the contiguous history and mislabel every later range read.
    ///
    /// # Errors
    /// [`EngineError::SeqRegression`] if `seq` is below the current
    /// sequence number; [`EngineError::SeqJumpOverLog`] if `seq` is
    /// above it while the history holds a commit.
    pub fn resume_at(&self, seq: u64) -> Result<()> {
        let mut inner = self.write();
        let mut next = inner.cur.successor();
        Self::move_seq(&mut next, seq)?;
        self.install(&mut inner, next);
        Ok(())
    }

    /// Move `state`'s sequence counter to `seq` (never backward, and
    /// forward only over an empty history) and start the history after
    /// `seq`, so reads below it report a gap: the shared check of
    /// `resume_at` and `apply_checkpoint_deltas`.
    fn move_seq(state: &mut SnapState, seq: u64) -> Result<()> {
        if seq < state.seq {
            return Err(EngineError::SeqRegression {
                current: state.seq,
                requested: seq,
            });
        }
        if seq > state.seq && !state.history.is_empty() {
            return Err(EngineError::SeqJumpOverLog {
                current: state.seq,
                requested: seq,
            });
        }
        state.history.prune_below(seq);
        state.seq = seq;
        Ok(())
    }

    /// Insert `t` through the named view under its policy.
    ///
    /// # Errors
    /// [`EngineError::Rejected`] when untranslatable (or unprovable under
    /// Test 1/2); input errors otherwise.
    pub fn insert_via(&self, name: &str, t: Tuple) -> Result<UpdateReport> {
        self.apply(name, UpdateOp::Insert { t })
    }

    /// Delete `t` through the named view (Theorem 8).
    ///
    /// # Errors
    /// As for [`Database::insert_via`].
    pub fn delete_via(&self, name: &str, t: Tuple) -> Result<UpdateReport> {
        self.apply(name, UpdateOp::Delete { t })
    }

    /// Replace `t1` by `t2` through the named view (Theorem 9).
    ///
    /// # Errors
    /// As for [`Database::insert_via`].
    pub fn replace_via(&self, name: &str, t1: Tuple, t2: Tuple) -> Result<UpdateReport> {
        self.apply(name, UpdateOp::Replace { t1, t2 })
    }

    /// Apply an arbitrary [`UpdateOp`] through the named view — the
    /// operation-agnostic form of [`Database::insert_via`] /
    /// [`Database::delete_via`] / [`Database::replace_via`], used by
    /// log replay (`relvu-durability`) and request routers.
    ///
    /// # Errors
    /// As for [`Database::insert_via`].
    pub fn apply_op(&self, name: &str, op: UpdateOp) -> Result<UpdateReport> {
        self.apply(name, op)
    }

    fn apply(&self, name: &str, op: UpdateOp) -> Result<UpdateReport> {
        let mut inner = self.write();
        // Declared after the guard, so it drops (and records) first —
        // i.e. it measures time spent holding the write lock.
        let _hold = relvu_obs::histogram!("engine.lock.write_hold_ns").timer();
        let out = self.apply_inner(&mut inner, name, op);
        // Publish on rejection too: the stats moved, and readers of the
        // snapshot must see the same counters the writer does.
        self.publish(&mut inner);
        out
    }

    pub(crate) fn apply_inner(
        &self,
        inner: &mut Inner,
        name: &str,
        op: UpdateOp,
    ) -> Result<UpdateReport> {
        let cur = Arc::clone(&inner.cur);
        let def = cur
            .views
            .get(name)
            .ok_or_else(|| EngineError::UnknownView {
                name: name.to_string(),
            })?;
        // The check reads the materialized instance (and split) — no
        // O(|base|) re-projection per update.
        let verdict = {
            let mat = inner.mats.get(name).expect("registered views have mats");
            check_update(
                &cur.schema,
                &cur.fds,
                def,
                mat.instance(),
                mat.split().map(|p| (&p.0, &p.1)),
                &op,
            )?
        };
        match verdict {
            Translatability::Translatable(tr) => self.commit(inner, name, op, def.x(), def.y(), tr),
            Translatability::Rejected(reason) => Err(record_rejection(inner, name, &op, reason)),
        }
    }

    /// Apply a verified translation to the working base as a tuple
    /// delta, fold the delta into every view's materialization, and
    /// stage the commit for the next publish. The delta
    /// is derived from the committing view's sorted complement — the
    /// whole commit is O(|Δ| · views), independent of |base|. In debug
    /// builds the old full recomputation survives as an oracle: the
    /// delta-updated base must equal [`Translation::apply`]'s result
    /// and every materialization must equal a fresh projection.
    pub(crate) fn commit(
        &self,
        inner: &mut Inner,
        name: &str,
        op: UpdateOp,
        x: AttrSet,
        y: AttrSet,
        translation: Translation,
    ) -> Result<UpdateReport> {
        let rows_before = inner.base.len();
        #[cfg(debug_assertions)]
        let old_base = inner.base.clone();
        let delta_timer = relvu_obs::histogram!("engine.mat.delta_ns").timer();
        let (added, removed) = {
            let Inner { base, mats, .. } = &mut *inner;
            let mat = mats.get(name).expect("registered views have mats");
            mat.apply(base, &translation, mats.values())?
        };
        let seq = inner.pending.last().map_or(inner.cur.seq, |c| c.seq()) + 1;
        // Each touched view's instance delta `(name, removed, added,
        // σ_P partition)`, kept flat until the DAG fold ends: a child
        // folds its parent's rows as a plain block.
        let mut touched: Vec<(String, RowBuf, RowBuf, Option<Vec<bool>>)> = Vec::new();
        {
            // Topological delta propagation: every view's complement side
            // reads `π_Y(R)` off the base, so it folds the base delta
            // unconditionally; the view side of a root also folds the
            // base delta, while a child folds its *parent's instance
            // delta* — which the parent's fold just produced, since the
            // DAG order puts parents first. A node whose incoming view
            // delta is empty does zero fold work and emits an empty
            // delta, so an entire untouched subtree is skipped.
            let Inner { cur, mats, .. } = &mut *inner;
            // Where each touched view's part sits in `touched`.
            let mut at: HashMap<&str, usize> = HashMap::new();
            for node in cur.dag.order() {
                let mat = mats
                    .get_mut(node.as_str())
                    .expect("registered views have mats");
                mat.fold_complement(added.block(), removed.block());
                let def = cur.views.get(node.as_str()).expect("registered");
                let (in_add, in_rem) = match def.parent() {
                    None => (added.block(), removed.block()),
                    Some(p) => match at.get(p) {
                        Some(&i) => (touched[i].2.block(), touched[i].1.block()),
                        None => (Block::EMPTY, Block::EMPTY),
                    },
                };
                if in_add.is_empty() && in_rem.is_empty() {
                    relvu_obs::counter!("engine.dag.nodes_skipped").inc();
                    continue;
                }
                relvu_obs::counter!("engine.dag.nodes_folded").inc();
                let (out_add, out_rem) = mat.fold_instance(in_add, in_rem);
                if out_add.is_empty() && out_rem.is_empty() {
                    // Views with an empty out delta stay out of the
                    // commit so their published instances remain
                    // structurally shared.
                    continue;
                }
                let in_pred = def.pred().map(|p| {
                    let x = def.x();
                    out_rem
                        .block()
                        .iter()
                        .chain(out_add.block().iter())
                        .map(|t| p.eval(&x, t))
                        .collect()
                });
                at.insert(node.as_str(), touched.len());
                touched.push((node.clone(), out_rem, out_add, in_pred));
            }
        }
        // With obs disabled the timer is a unit no-op without Drop.
        #[allow(clippy::drop_non_drop)]
        drop(delta_timer);
        debug_assert!(
            satisfies_fds(&inner.base, &inner.cur.fds),
            "translated update must preserve legality"
        );
        #[cfg(debug_assertions)]
        {
            use relvu_relation::ops;
            assert_eq!(
                inner.base,
                translation
                    .apply(&old_base, x, y)
                    .expect("checked translation applies"),
                "delta commit must equal the full recomputation"
            );
            assert_eq!(
                ops::project(&inner.base, y).expect("complement within U"),
                ops::project(&old_base, y).expect("complement within U"),
                "complement must stay constant"
            );
            for mat in inner.mats.values() {
                mat.debug_assert_consistent(&inner.base);
            }
        }
        #[cfg(not(debug_assertions))]
        let _ = (x, y);
        // The one record of this update: the report and (in a durable
        // store) the WAL queue share its entry; the publish queue and
        // the published history share the whole commit.
        let entry = Arc::new(LogEntry {
            seq,
            view: name.to_string(),
            op,
            translation,
            rows_before,
            rows_after: inner.base.len(),
        });
        let commit = Arc::new(Commit {
            entry: Arc::clone(&entry),
            base: ViewDelta::whole(seq, removed, added, None),
            views: touched
                .into_iter()
                .map(|(name, removed, added, in_pred)| {
                    (name, ViewDelta::whole(seq, removed, added, in_pred))
                })
                .collect(),
        });
        inner.pending.push(commit);
        Ok(entry)
    }

    /// The parts `dump` serializes, read from one pinned snapshot:
    /// schema, Σ, base, and the view definitions in topological
    /// (registration) order, so loading them back in file order always
    /// finds each view's parent already registered.
    pub(crate) fn export_parts(
        snap: &EngineSnapshot,
    ) -> (Schema, FdSet, Arc<Relation>, Vec<ViewDef>) {
        (snap.schema(), snap.fds(), snap.base(), snap.ordered_defs())
    }

    /// A read-only handle over this database: the snapshot pin and the
    /// metrics, none of the mutators. `relvu-durability`'s
    /// `DurableDatabase` hands this out instead of `&Database` so
    /// WAL-bypassing mutation is a compile error rather than a
    /// silently-lost update.
    pub fn reader(&self) -> crate::reader::EngineReader<'_> {
        crate::reader::EngineReader::new(self)
    }

    /// Subscribe to a view's delta stream (see [`crate::subscribe`]).
    ///
    /// With [`SubscribeFrom::Snapshot`] the returned handle pins the
    /// view's current instance ([`Subscription::origin_rows`]) and
    /// streams every later commit that changes it. With
    /// [`SubscribeFrom::Seq`]`(s)` the deltas of `(s, now]` are replayed
    /// into the queue first — catch-up and the cut-over to live tailing
    /// are atomic: both happen under the engine write lock, so no commit
    /// can fall between them.
    ///
    /// For selection views the stream carries the visible `σ_P` side,
    /// matching [`EngineSnapshot::view_instance`]: folding the deltas
    /// into the origin instance reproduces `view_instance` at every
    /// event's seq byte-identically.
    ///
    /// # Errors
    /// [`EngineError::UnknownView`] if absent;
    /// [`EngineError::SubscriptionAhead`] when resuming past the
    /// engine's seq; [`EngineError::SubscriptionGap`] when the engine no
    /// longer holds deltas back to the requested seq (re-origin from a
    /// snapshot instead — the gap is reported, never silently skipped).
    pub fn subscribe(&self, view: &str, opts: SubscribeOptions) -> Result<Subscription> {
        self.subscribe_target(Some(view), opts)
    }

    /// Subscribe to the base relation's delta stream — every commit's
    /// exact base-row delta, in commit order. Semantics as
    /// [`Database::subscribe`].
    ///
    /// # Errors
    /// As [`Database::subscribe`], minus the unknown-view case.
    pub fn subscribe_base(&self, opts: SubscribeOptions) -> Result<Subscription> {
        self.subscribe_target(None, opts)
    }

    fn subscribe_target(
        &self,
        target: Option<&str>,
        opts: SubscribeOptions,
    ) -> Result<Subscription> {
        let inner = self.inner.write();
        // Every mutator publishes before releasing the write lock, so
        // under it there is nothing committed-but-undispatched: the
        // registration point is exactly the published seq.
        debug_assert!(inner.pending.is_empty(), "mutators publish before unlock");
        if let Some(name) = target {
            if !inner.cur.views.contains_key(name) {
                return Err(EngineError::UnknownView {
                    name: name.to_string(),
                });
            }
        }
        let current = inner.cur.seq;
        let (origin_seq, origin_rows, prefill) = match opts.from {
            SubscribeFrom::Snapshot => {
                // `inner.cur` is the published state and equals the
                // writer state here (pending is empty), so this pins the
                // same structurally-shared instance `view_instance`
                // serves at `current`.
                let rows = match target {
                    None => inner.cur.base.get(),
                    Some(name) => {
                        let vs = inner.cur.insts.get(name).expect("checked above");
                        match &vs.split {
                            Some((matching, _)) => matching.get(),
                            None => vs.inst.get(),
                        }
                    }
                };
                (current, Some(rows), VecDeque::new())
            }
            SubscribeFrom::Seq(s) => {
                if s > current {
                    return Err(EngineError::SubscriptionAhead {
                        requested: s,
                        current,
                    });
                }
                let history = &inner.cur.history;
                let gap = EngineError::SubscriptionGap {
                    requested: s,
                    oldest_resume: history.floor(),
                };
                let commits = history.since(s).ok_or(gap)?;
                // The same event construction as the live fan-out.
                (
                    s,
                    None,
                    commits.filter_map(|c| event_for(c, target)).collect(),
                )
            }
        };
        let sub = make_subscriber(target.map(str::to_string), opts.capacity, prefill);
        self.hub.register(Arc::clone(&sub));
        Ok(Subscription::new(sub, origin_seq, origin_rows))
    }

    /// Drop the history's commits at or below `seq` (at most the
    /// current seq), publishing an epoch whose history starts after
    /// them: called after a checkpoint at `seq` makes them redundant.
    /// Snapshots pinned earlier keep what they hold.
    pub fn prune_history_below(&self, seq: u64) {
        let mut inner = self.write();
        let seq = seq.min(inner.cur.seq);
        if seq <= inner.cur.history.floor() {
            return;
        }
        let mut next = inner.cur.successor();
        next.history.prune_below(seq);
        self.install(&mut inner, next);
    }

    /// Replay checkpoint-delta commits, each `(seq, removed, added)`, on
    /// top of the current state, finishing at `final_seq` — the loading
    /// side of an incremental checkpoint chain.
    ///
    /// Each commit's removed and added rows are applied by
    /// [`Relation::apply_delta`], the rule the live engine applied them
    /// by, reproducing its exact base-row order (so a subsequent dump is
    /// byte-identical). Σ is revalidated at the end of the call, so a
    /// corrupt or mismatched delta surfaces as an error rather than a
    /// silently-wrong state, and every registered view's
    /// materialization is rebuilt. On error the engine is left
    /// unchanged. A loader replaying a chain of several deltas calls
    /// this once per link on a [`crate::PendingLoad`], whose views are
    /// registered only after the last link: each link is still checked,
    /// and no view is rebuilt per link.
    ///
    /// # Errors
    /// [`EngineError::SeqRegression`] if `final_seq` is behind the
    /// engine; [`EngineError::SeqJumpOverLog`] if it is ahead while the
    /// log is non-empty; [`EngineError::Load`] when a commit is out of
    /// range or refers to rows the base does not hold;
    /// [`EngineError::IllegalBase`] when the replayed base violates Σ.
    pub fn apply_checkpoint_deltas<'a>(
        &self,
        commits: impl IntoIterator<Item = (u64, &'a [Tuple], &'a [Tuple])>,
        final_seq: u64,
    ) -> Result<()> {
        let mut inner = self.write();
        let mut next = inner.cur.successor();
        let mut prev = next.seq;
        // The replayed commits live in the checkpoint chain, not the
        // history: it starts after `final_seq`, as after `resume_at`.
        Self::move_seq(&mut next, final_seq)?;
        let replay = || -> Result<()> {
            for (seq, removed, added) in commits {
                if seq <= prev || seq > final_seq {
                    return Err(EngineError::Load {
                        reason: format!(
                            "delta commit seq {seq} out of order (after {prev}, final {final_seq})"
                        ),
                    });
                }
                prev = seq;
                inner
                    .base
                    .apply_delta(removed, added)
                    .map_err(|e| match e {
                        RelationError::AbsentRow { .. } => EngineError::Load {
                            reason: format!("delta commit {seq} removes an absent base row"),
                        },
                        RelationError::DuplicateRow { .. } => EngineError::Load {
                            reason: format!("delta commit {seq} inserts a duplicate base row"),
                        },
                        e => e.into(),
                    })?;
            }
            if !satisfies_fds(&inner.base, &next.fds) {
                return Err(EngineError::IllegalBase);
            }
            Ok(())
        };
        if let Err(e) = replay() {
            Self::reset_to_published(&mut inner);
            return Err(e);
        }
        // The published instances are those of the base before the
        // replay.
        next.insts = Arc::default();
        Self::rebuild_mats(&mut inner, &next);
        next.base = Arc::new(LazyRel::ready(Arc::new(inner.base.clone())));
        next.insts = Arc::new(
            inner
                .mats
                .iter()
                .map(|(name, mat)| (name.clone(), ViewSnap::of(mat)))
                .collect(),
        );
        self.install(&mut inner, next);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use relvu_core::RejectReason;
    use relvu_relation::{ops, tup, CmpOp};
    use relvu_workload::fixtures;

    fn edm_db() -> (fixtures::EdmFixture, Database) {
        let f = fixtures::edm();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        (f, db)
    }

    #[test]
    fn illegal_base_rejected() {
        let f = fixtures::edm();
        let mut bad = f.base.clone();
        // Same employee, second department: violates Emp -> Dept.
        bad.insert(Tuple::new([
            f.dict.sym("ada"),
            f.dict.sym("books"),
            f.dict.sym("hopper"),
        ]))
        .unwrap();
        let err = match Database::new(f.schema.clone(), f.fds.clone(), bad) {
            Err(e) => e,
            Ok(_) => panic!("illegal base accepted"),
        };
        assert_eq!(err, EngineError::IllegalBase);
    }

    #[test]
    fn create_view_with_auto_complement() {
        let (f, db) = edm_db();
        db.create_view("staff", f.x, None, Policy::Exact).unwrap();
        let snap = db.snapshot();
        let def = snap.view_def("staff").unwrap();
        assert!(are_complementary(&f.schema, &f.fds, f.x, def.y()));
        assert_eq!(snap.view_names(), vec!["staff".to_string()]);
    }

    #[test]
    fn bad_complement_rejected() {
        let (f, db) = edm_db();
        // Y = {Mgr} alone is not a complement.
        let y = f.schema.set(["Mgr"]).unwrap();
        assert_eq!(
            db.create_view("staff", f.x, Some(y), Policy::Exact)
                .unwrap_err(),
            EngineError::NotComplementary
        );
    }

    #[test]
    fn duplicate_view_rejected() {
        let (f, db) = edm_db();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        assert!(matches!(
            db.create_view("staff", f.x, Some(f.y), Policy::Exact),
            Err(EngineError::DuplicateView { .. })
        ));
    }

    #[test]
    fn insert_delete_replace_roundtrip() {
        let (f, db) = edm_db();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        let dan = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
        let rep = db.insert_via("staff", dan.clone()).unwrap();
        assert_eq!(rep.rows_after, 4);
        // Replace dan by eve in the same department.
        let eve = Tuple::new([f.dict.sym("eve"), f.dict.sym("toys")]);
        db.replace_via("staff", dan, eve.clone()).unwrap();
        // Delete eve (toys still has ada and bob).
        db.delete_via("staff", eve).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.base().len(), 3);
        assert_eq!(snap.log().len(), 3);
        assert_eq!(snap.log()[2].seq, 3);
    }

    #[test]
    fn log_range_slices_without_full_copies() {
        let (f, db) = edm_db();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        for i in 0..6u64 {
            let t = Tuple::new([f.dict.sym(&format!("w{i}")), f.dict.sym("toys")]);
            db.insert_via("staff", t).unwrap();
        }
        let snap = db.snapshot();
        assert_eq!(snap.seq(), 6);
        let mid = snap.log_range(3, 2);
        assert!(mid.is_complete());
        assert_eq!(
            mid.entries.iter().map(|e| e.seq).collect::<Vec<_>>(),
            vec![3, 4]
        );
        // from_seq 0 and 1 both mean "from the start" — no gap.
        assert_eq!(snap.log_range(0, usize::MAX).entries.len(), 6);
        assert_eq!(snap.log_range(1, usize::MAX).entries.len(), 6);
        // Past the end is empty but complete, not a gap.
        let past = snap.log_range(7, 10);
        assert!(past.is_complete() && past.entries.is_empty());
        assert_eq!(snap.log(), snap.log_range(0, usize::MAX).entries);
    }

    #[test]
    fn resume_at_only_moves_forward() {
        let (f, db) = edm_db();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        db.resume_at(41).unwrap();
        let t = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
        db.insert_via("staff", t).unwrap();
        let snap = db.snapshot();
        assert_eq!(snap.seq(), 42);
        assert_eq!(snap.log_range(42, 8).entries[0].seq, 42);
        assert_eq!(
            db.resume_at(7),
            Err(EngineError::SeqRegression {
                current: 42,
                requested: 7
            })
        );
        // A forward jump over held log entries would mislabel them.
        assert_eq!(
            db.resume_at(100),
            Err(EngineError::SeqJumpOverLog {
                current: 42,
                requested: 100
            })
        );
        // Below the resumed origin the missing prefix is a reported gap,
        // never a silent clamp onto the wrong entries.
        let below = db.snapshot().log_range(3, 8);
        assert_eq!(
            below.gap,
            Some(crate::log::LogGap {
                requested_from: 3,
                first_available: 42
            })
        );
        assert_eq!(below.entries[0].seq, 42);
    }

    #[test]
    fn untranslatable_insert_surfaces_reason() {
        let (f, db) = edm_db();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        // New department: complement would change.
        let t = Tuple::new([f.dict.sym("dan"), f.dict.sym("games")]);
        match db.insert_via("staff", t).unwrap_err() {
            EngineError::Rejected {
                reason: RejectReason::IntersectionNotInView,
                trace,
            } => {
                assert_eq!(trace.code, "intersection_not_in_view");
                assert!(trace.condition.contains("Theorem 3"));
            }
            other => panic!("unexpected: {other:?}"),
        }
        // Base untouched after a rejection.
        let snap = db.snapshot();
        assert_eq!(snap.base().len(), 3);
        assert!(snap.log().is_empty());
    }

    #[test]
    fn policies_agree_on_simple_cases() {
        let f = fixtures::edm();
        for policy in [Policy::Exact, Policy::Test1, Policy::Test2] {
            let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
            db.create_view("staff", f.x, Some(f.y), policy).unwrap();
            if policy == Policy::Test2 {
                assert_eq!(
                    db.snapshot()
                        .view_def("staff")
                        .unwrap()
                        .complement_is_good(),
                    Some(true)
                );
            }
            let dan = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
            assert!(db.insert_via("staff", dan).is_ok(), "policy {policy}");
        }
    }

    #[test]
    fn complement_constant_across_updates() {
        let (f, db) = edm_db();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        let before = ops::project(&db.snapshot().base(), f.y).unwrap();
        let dan = Tuple::new([f.dict.sym("dan"), f.dict.sym("books")]);
        db.insert_via("staff", dan).unwrap();
        let after = ops::project(&db.snapshot().base(), f.y).unwrap();
        assert_eq!(before, after);
    }

    #[test]
    fn unknown_view_errors() {
        let (_, db) = edm_db();
        assert!(matches!(
            db.snapshot().view_instance("nope"),
            Err(EngineError::UnknownView { .. })
        ));
        assert!(matches!(
            db.insert_via("nope", tup![1, 2]),
            Err(EngineError::UnknownView { .. })
        ));
    }

    #[test]
    fn supplier_fixture_updates() {
        let f = fixtures::supplier_part();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("orders", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        // New part order for supplier 1 (city on record): translatable.
        db.insert_via("orders", tup![1, 102, 7]).unwrap();
        assert_eq!(db.snapshot().base().len(), 4);
        // Unknown supplier 3: complement (its city) missing → rejected.
        assert!(matches!(
            db.insert_via("orders", tup![3, 100, 2]),
            Err(EngineError::Rejected { .. })
        ));
    }

    #[test]
    fn writer_rows_keep_the_published_order() {
        // `mgrs = π{D, M}` and `emp = π{E, D}` over E → D → M, two
        // employees in each of three departments.
        let s = Schema::new(["E", "D", "M"]).unwrap();
        let fds = FdSet::parse(&s, "E -> D; D -> M").unwrap();
        let rows = (0..6u64).map(|e| tup![e, e % 3, 100 + e % 3]);
        let base = Relation::from_rows(s.universe(), rows).unwrap();
        let db = Database::new(s.clone(), fds, base).unwrap();
        let mgrs = s.set(["D", "M"]).unwrap();
        db.create_view("mgrs", mgrs, None, Policy::Exact).unwrap();
        let emp = s.set(["E", "D"]).unwrap();
        db.create_view("emp", emp, Some(mgrs), Policy::Exact)
            .unwrap();
        let d = s.attr("D").unwrap();
        db.create_selection_view("emp_lo", emp, Some(mgrs), Pred::cmp(d, CmpOp::Lt, 2))
            .unwrap();
        // The manager change (Theorem 9's case 2) rewrites department
        // 0's rows in place, keeping their places in the index; the
        // rename (case 2 on `emp`) moves employee 3's row in the index;
        // the transfer (case 1) moves employee 4 out of σ_P; the
        // departure leaves a leftover removal.
        db.replace_via("mgrs", tup![0, 100], tup![0, 200]).unwrap();
        db.replace_via("emp", tup![3, 0], tup![9, 0]).unwrap();
        db.replace_via("emp", tup![4, 1], tup![4, 2]).unwrap();
        db.delete_via("emp", tup![5, 2]).unwrap();
        let snap = db.snapshot();
        let inner = db.inner.read();
        assert!(
            inner.cur.base.pending_rows() > 0,
            "the published base is a delta chain below the re-root threshold"
        );
        assert_eq!(inner.base.rows(), snap.base().rows(), "base");
        for name in ["mgrs", "emp", "emp_lo"] {
            let (inst, split) = snap.mat_parts(name).unwrap();
            let mat = &inner.mats[name];
            assert_eq!(
                mat.instance().rows(),
                inst.rows(),
                "`{name}`: the writer's rows in the published order"
            );
            if let (Some((m, r)), Some((pm, pr))) = (mat.split(), split) {
                assert_eq!(m.rows(), pm.rows(), "`{name}`: σ_P");
                assert_eq!(r.rows(), pr.rows(), "`{name}`: σ_¬P");
            }
        }
        assert!(snap.mat_parts("emp_lo").unwrap().1.is_some());
    }

    #[test]
    fn rebuilds_after_set_fds_and_an_abort_recount_in_the_published_order() {
        // The views of `writer_rows_keep_the_published_order`, moved out
        // of first-occurrence order by the same commits; `set_fds` and an
        // aborted batch then rebuild every materialization over the
        // published instances.
        let s = Schema::new(["E", "D", "M"]).unwrap();
        let fds = FdSet::parse(&s, "E -> D; D -> M").unwrap();
        let rows = (0..6u64).map(|e| tup![e, e % 3, 100 + e % 3]);
        let base = Relation::from_rows(s.universe(), rows).unwrap();
        let db = Database::new(s.clone(), fds.clone(), base).unwrap();
        let mgrs = s.set(["D", "M"]).unwrap();
        db.create_view("mgrs", mgrs, None, Policy::Exact).unwrap();
        let emp = s.set(["E", "D"]).unwrap();
        db.create_view("emp", emp, Some(mgrs), Policy::Exact)
            .unwrap();
        let d = s.attr("D").unwrap();
        db.create_selection_view("emp_lo", emp, Some(mgrs), Pred::cmp(d, CmpOp::Lt, 2))
            .unwrap();
        db.create_view_over("emp_e", "emp", s.set(["E"]).unwrap(), None, Policy::Exact)
            .unwrap();
        db.replace_via("mgrs", tup![0, 100], tup![0, 200]).unwrap();
        db.replace_via("emp", tup![3, 0], tup![9, 0]).unwrap();
        db.replace_via("emp", tup![4, 1], tup![4, 2]).unwrap();
        db.delete_via("emp", tup![5, 2]).unwrap();
        let check = |what: &str| {
            let inner = db.inner.read();
            for name in inner.cur.dag.order() {
                let def = &inner.cur.views[name];
                let mat = &inner.mats[name];
                let published = inner.cur.insts[name].inst.get();
                assert_eq!(mat.instance().rows(), published.rows(), "`{name}` {what}");
                let source = def.parent().map(|p| inner.mats[p].instance().clone());
                crate::mat::tests::assert_build_matches_folds(
                    mat,
                    &inner.base,
                    source.as_ref(),
                    def,
                    true,
                    &format!("`{name}` {what}"),
                );
            }
        };
        check("after the commits");
        db.set_fds(fds).unwrap();
        check("after set_fds");
        let aborted = db.apply_batch(vec![
            ("emp".into(), UpdateOp::Delete { t: tup![0, 0] }),
            ("emp".into(), UpdateOp::Insert { t: tup![7, 99] }),
        ]);
        assert!(matches!(
            aborted,
            Err(EngineError::BatchFailed { index: 1, .. })
        ));
        check("after an abort");
    }
}

#[cfg(test)]
mod selection_tests {
    use super::*;
    use relvu_relation::{ops, tup, CmpOp, Value};
    use relvu_workload::fixtures;

    fn orders_db() -> (fixtures::SupplierFixture, Database) {
        let f = fixtures::supplier_part();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        (f, db)
    }

    #[test]
    fn selection_view_shows_only_matching_rows() {
        let (f, db) = orders_db();
        let pred = Pred::cmp(f.schema.attr("S").unwrap(), CmpOp::Eq, 1);
        db.create_selection_view("s1_orders", f.x, Some(f.y), pred)
            .unwrap();
        let v = db.snapshot().view_instance("s1_orders").unwrap();
        assert_eq!(v.len(), 2);
        assert!(v
            .iter()
            .all(|t| t.get(&f.x, f.schema.attr("S").unwrap()) == Value::int(1)));
    }

    #[test]
    fn selection_insert_and_rejections() {
        let (f, db) = orders_db();
        let pred = Pred::cmp(f.schema.attr("S").unwrap(), CmpOp::Eq, 1);
        db.create_selection_view("s1_orders", f.x, Some(f.y), pred)
            .unwrap();
        // In-predicate insert for a known supplier: applies.
        db.insert_via("s1_orders", tup![1, 102, 7]).unwrap();
        assert_eq!(db.snapshot().base().len(), 4);
        // Out-of-predicate insert: rejected, base untouched.
        assert!(matches!(
            db.insert_via("s1_orders", tup![2, 103, 4]),
            Err(EngineError::Rejected { .. })
        ));
        let snap = db.snapshot();
        assert_eq!(snap.base().len(), 4);
        let stats = snap.stats("s1_orders").unwrap();
        assert_eq!(stats.accepted, 1);
        assert_eq!(stats.rejected, 1);
    }

    #[test]
    fn selection_anti_component_stays_constant() {
        let (f, db) = orders_db();
        let s_attr = f.schema.attr("S").unwrap();
        let pred = Pred::cmp(s_attr, CmpOp::Eq, 1);
        db.create_selection_view("s1_orders", f.x, Some(f.y), pred.clone())
            .unwrap();
        let before_full = ops::project(&db.snapshot().base(), f.x).unwrap();
        let before_anti = ops::select(&before_full, |t| !pred.eval(&f.x, t));
        db.insert_via("s1_orders", tup![1, 102, 7]).unwrap();
        db.replace_via("s1_orders", tup![1, 100, 5], tup![1, 100, 6])
            .unwrap();
        let after_full = ops::project(&db.snapshot().base(), f.x).unwrap();
        let after_anti = ops::select(&after_full, |t| !pred.eval(&f.x, t));
        assert_eq!(before_anti, after_anti, "σ_¬P component constant");
    }

    #[test]
    fn predicate_outside_projection_rejected() {
        let (f, db) = orders_db();
        let pred = Pred::cmp(f.schema.attr("City").unwrap(), CmpOp::Eq, 70);
        let x = f.schema.set(["S", "P"]).unwrap();
        assert!(db.create_selection_view("bad", x, None, pred).is_err());
    }
}

#[cfg(test)]
mod batch_tests {
    use super::*;
    use relvu_workload::fixtures;

    #[test]
    fn batch_applies_all_or_nothing() {
        let f = fixtures::edm();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        let t = |e: &str, d: &str| Tuple::new([f.dict.sym(e), f.dict.sym(d)]);

        // All-good batch.
        let reports = db
            .apply_batch(vec![
                (
                    "staff".into(),
                    UpdateOp::Insert {
                        t: t("dan", "toys"),
                    },
                ),
                (
                    "staff".into(),
                    UpdateOp::Insert {
                        t: t("eve", "books"),
                    },
                ),
            ])
            .unwrap();
        assert_eq!(reports.len(), 2);
        let snap = db.snapshot();
        assert_eq!(snap.base().len(), 5);
        assert_eq!(snap.stats("staff").unwrap().accepted, 2);

        // Failing batch rolls everything back.
        let err = db.apply_batch(vec![
            (
                "staff".into(),
                UpdateOp::Insert {
                    t: t("fay", "toys"),
                },
            ),
            (
                "staff".into(),
                UpdateOp::Insert {
                    t: t("gus", "games"),
                },
            ), // unknown dept
        ]);
        assert!(matches!(
            err,
            Err(EngineError::BatchFailed { index: 1, ref source })
                if matches!(**source, EngineError::Rejected { .. })
        ));
        let snap = db.snapshot();
        assert_eq!(snap.base().len(), 5, "rollback must undo the first insert");
        assert_eq!(snap.log().len(), 2, "log truncated to the snapshot");
        assert_eq!(snap.stats("staff").unwrap().accepted, 2, "stats restored");
    }

    #[test]
    fn batch_with_unknown_view_rolls_back() {
        let f = fixtures::edm();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        let t = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
        let err = db.apply_batch(vec![
            ("staff".into(), UpdateOp::Insert { t: t.clone() }),
            ("nope".into(), UpdateOp::Insert { t }),
        ]);
        assert!(matches!(
            err,
            Err(EngineError::BatchFailed { index: 1, ref source })
                if matches!(**source, EngineError::UnknownView { .. })
        ));
        assert_eq!(db.snapshot().base().len(), 3);
    }

    #[test]
    fn concurrent_readers_and_writers() {
        use std::sync::Arc;
        let f = fixtures::edm();
        let db = Arc::new(Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap());
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        let dict = Arc::new(f.dict);
        let mut handles = Vec::new();
        for i in 0..4 {
            let db = Arc::clone(&db);
            let dict = Arc::clone(&dict);
            handles.push(std::thread::spawn(move || {
                for j in 0..5 {
                    let name = format!("w{i}_{j}");
                    let t = Tuple::new([dict.sym(&name), dict.sym("toys")]);
                    db.insert_via("staff", t).unwrap();
                    let _ = db.snapshot().view_instance("staff").unwrap();
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = db.snapshot();
        assert_eq!(snap.base().len(), 3 + 20);
        assert_eq!(snap.stats("staff").unwrap().accepted, 20);
    }
}

#[cfg(test)]
impl Database {
    /// Sabotage for the panic tests: drop `view`'s prepared Test 2
    /// state in the writer's copy of the published state, so any check
    /// through the view panics.
    pub(crate) fn break_test2(&self, view: &str) {
        let mut inner = self.inner.write();
        let mut state = (*inner.cur).clone();
        Arc::make_mut(&mut state.views)
            .get_mut(view)
            .expect("registered")
            .test2 = None;
        inner.cur = Arc::new(state);
    }
}

#[cfg(test)]
mod panic_tests {
    use std::panic::{catch_unwind, AssertUnwindSafe};

    use super::*;
    use crate::batch::{BatchOptions, BatchRequest};
    use crate::subscribe::SubscribeOptions;
    use relvu_deps::Fd;
    use relvu_relation::tup;
    use relvu_workload::fixtures;

    /// Run `panicking` on `db`, which must panic, then check that the
    /// engine kept its published state and told no subscriber anything,
    /// and that it goes on exactly like `twin`, which never ran it: the
    /// `next` update gets the twin's seq and, after one more view
    /// registration (`ddl`), the dumps agree byte for byte.
    fn assert_panic_drops_staged(
        db: &Database,
        twin: &Database,
        watched: &str,
        panicking: impl FnOnce(&Database),
        next: (&str, UpdateOp),
        ddl: impl Fn(&Database),
    ) {
        let base_sub = db.subscribe_base(SubscribeOptions::snapshot()).unwrap();
        let view_sub = db.subscribe(watched, SubscribeOptions::snapshot()).unwrap();
        let before = db.snapshot();
        assert!(catch_unwind(AssertUnwindSafe(|| panicking(db))).is_err());

        let after = db.snapshot();
        assert_eq!(after.epoch(), before.epoch(), "nothing published");
        assert_eq!(after.seq(), before.seq());
        assert_eq!(after.dump(), before.dump());
        assert!(base_sub.try_recv().is_none(), "no base event");
        assert!(view_sub.try_recv().is_none(), "no view event");

        let (view, op) = next;
        let seq = db.apply_op(view, op.clone()).unwrap().seq;
        assert_eq!(seq, twin.apply_op(view, op).unwrap().seq);
        ddl(db);
        ddl(twin);
        assert_eq!(db.snapshot().dump(), twin.snapshot().dump());
    }

    fn edm_pair(second: Policy) -> (fixtures::EdmFixture, Database, Database) {
        let f = fixtures::edm();
        let make = || {
            let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
            db.create_view("staff", f.x, Some(f.y), Policy::Exact)
                .unwrap();
            db.create_view("staff2", f.x, Some(f.y), second).unwrap();
            db
        };
        let (db, twin) = (make(), make());
        (f, db, twin)
    }

    fn ins(f: &fixtures::EdmFixture, e: &str, d: &str) -> UpdateOp {
        UpdateOp::Insert {
            t: Tuple::new([f.dict.sym(e), f.dict.sym(d)]),
        }
    }

    #[test]
    fn panic_in_the_dag_fold_drops_the_base_edit() {
        let (f, db, twin) = edm_pair(Policy::Exact);
        // `staff2` folds after `staff`: without its materialization the
        // commit panics after editing the base and folding `staff`.
        db.inner.write().mats.remove("staff2").unwrap().retire();
        assert_panic_drops_staged(
            &db,
            &twin,
            "staff",
            |db| {
                let _ = db.apply_op("staff", ins(&f, "dan", "toys"));
            },
            ("staff", ins(&f, "eve", "books")),
            |db| db.create_view("staff3", f.x, None, Policy::Exact).unwrap(),
        );
    }

    #[test]
    fn panic_in_a_transactional_batch_drops_its_committed_prefix() {
        let (f, db, twin) = edm_pair(Policy::Test2);
        db.break_test2("staff2");
        assert_panic_drops_staged(
            &db,
            &twin,
            "staff",
            |db| {
                let _ = db.apply_batch(vec![
                    ("staff".into(), ins(&f, "dan", "toys")),
                    ("staff2".into(), ins(&f, "eve", "books")),
                ]);
            },
            ("staff", ins(&f, "fay", "toys")),
            |db| db.create_view("staff3", f.x, None, Policy::Exact).unwrap(),
        );
    }

    #[test]
    fn panic_in_a_revalidated_batch_request_drops_its_committed_prefix() {
        // An empty-LHS FD makes `apply_batch_parallel` revalidate every
        // request in its commit loop instead of speculating.
        let s = Schema::new(["A", "B"]).unwrap();
        let a = s.set(["A"]).unwrap();
        let fds = FdSet::new([Fd::new(AttrSet::EMPTY, s.set(["B"]).unwrap())]);
        let make = || {
            let base = Relation::from_rows(s.universe(), [tup![1, 9]]).unwrap();
            let db = Database::new(s.clone(), fds.clone(), base).unwrap();
            db.create_view("va", a, None, Policy::Exact).unwrap();
            db.create_view("vb", a, None, Policy::Test2).unwrap();
            db
        };
        let (db, twin) = (make(), make());
        db.break_test2("vb");
        assert_panic_drops_staged(
            &db,
            &twin,
            "va",
            |db| {
                db.apply_batch_parallel(
                    vec![
                        BatchRequest::new("va", UpdateOp::Insert { t: tup![2] }),
                        BatchRequest::new("vb", UpdateOp::Insert { t: tup![3] }),
                    ],
                    &BatchOptions { threads: Some(2) },
                );
            },
            ("va", UpdateOp::Insert { t: tup![4] }),
            |db| db.create_view("vc", a, None, Policy::Exact).unwrap(),
        );
    }
}
