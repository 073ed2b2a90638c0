//! Registered view definitions.

use relvu_core::{SelectionView, Test2};
use relvu_relation::{AttrSet, Pred};

use crate::Policy;

/// A registered view: projection attributes, its constant complement, and
/// the translatability policy for insertions.
///
/// The complement `y` doubles as a **cache**: deriving a minimal
/// complement (Corollary 2) and preparing Test 2 goodness analysis are
/// the expensive parts of view registration, so both are computed once
/// and stamped with the fingerprint of the Σ they were computed under.
/// [`crate::Database::set_fds`] invalidates and recomputes them when the
/// dependency set changes.
#[derive(Debug, Clone)]
pub struct ViewDef {
    name: String,
    x: AttrSet,
    y: AttrSet,
    policy: Policy,
    /// The selection view σ_P(π_X) with the *effective* predicate
    /// (§6(2)): for a view registered over another view, the conjunction
    /// of every ancestor's predicate with this view's own. `None` for
    /// plain projections. Built once at registration, like `test2`; this
    /// is what the translators check against.
    pub(crate) sel: Option<SelectionView>,
    /// The predicate given at *this* view's registration, before
    /// composing with the parent's — what dump/load serializes so the
    /// composition can be re-derived. `None` for plain projections.
    pub(crate) own_pred: Option<Pred>,
    /// The view this one was registered over, or `None` when it reads
    /// the base relation directly. `x`/`y`/`pred` above are already the
    /// *collapsed* effective sets (π_X ∘ π_X′ = π_{X∩X′}, predicates
    /// conjoined), so the translators never need to walk the chain.
    pub(crate) parent: Option<String>,
    /// Prepared Test 2 state (goodness analysis), present iff the policy
    /// is [`Policy::Test2`].
    pub(crate) test2: Option<Test2>,
    /// Was `y` auto-derived (Corollary 2) rather than declared? Decides
    /// whether a dependency change recomputes or revalidates it.
    pub(crate) auto_complement: bool,
    /// Fingerprint of the Σ that `y` (and `test2`) were computed under.
    pub(crate) fd_fingerprint: u64,
}

impl ViewDef {
    pub(crate) fn new(
        name: String,
        x: AttrSet,
        y: AttrSet,
        policy: Policy,
        test2: Option<Test2>,
        auto_complement: bool,
        fd_fingerprint: u64,
    ) -> Self {
        ViewDef {
            name,
            x,
            y,
            policy,
            sel: None,
            own_pred: None,
            parent: None,
            test2,
            auto_complement,
            fd_fingerprint,
        }
    }

    /// Attach the effective predicate. Registration has already checked
    /// that it lies within `x`.
    pub(crate) fn with_pred(mut self, pred: Pred) -> Self {
        self.sel = Some(SelectionView {
            x: self.x,
            y: self.y,
            pred,
        });
        self
    }

    pub(crate) fn with_own_pred(mut self, pred: Pred) -> Self {
        self.own_pred = Some(pred);
        self
    }

    pub(crate) fn with_parent(mut self, parent: String) -> Self {
        self.parent = Some(parent);
        self
    }

    /// The *effective* selection predicate, if this is a σ_P(π_X) view:
    /// for a view over another view, every ancestor predicate conjoined
    /// with this view's own.
    pub fn pred(&self) -> Option<&Pred> {
        self.sel.as_ref().map(|sel| &sel.pred)
    }

    /// The predicate given at this view's own registration (before
    /// composing with the parent's), if any.
    pub fn own_pred(&self) -> Option<&Pred> {
        self.own_pred.as_ref()
    }

    /// The view this one was registered over, or `None` when it reads
    /// the base relation directly.
    pub fn parent(&self) -> Option<&str> {
        self.parent.as_deref()
    }

    /// The view's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The view attributes `X`.
    pub fn x(&self) -> AttrSet {
        self.x
    }

    /// The constant complement `Y`.
    pub fn y(&self) -> AttrSet {
        self.y
    }

    /// The insertion policy.
    pub fn policy(&self) -> Policy {
        self.policy
    }

    /// Was the complement auto-derived (Corollary 2) rather than
    /// declared?
    pub fn auto_complement(&self) -> bool {
        self.auto_complement
    }

    /// Fingerprint of the Σ the cached complement (and any prepared
    /// Test 2 state) was computed under. Changes exactly when
    /// [`crate::Database::set_fds`] rebuilds the view.
    pub fn fd_fingerprint(&self) -> u64 {
        self.fd_fingerprint
    }

    /// For [`Policy::Test2`] views: is the declared complement good?
    pub fn complement_is_good(&self) -> Option<bool> {
        self.test2.as_ref().map(|t| t.goodness().is_good())
    }
}
