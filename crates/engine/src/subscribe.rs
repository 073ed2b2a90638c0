//! View-delta subscription streams: CDC over the audit log.
//!
//! A subscriber registers on a view (or the base relation) and receives
//! that relation's ordered stream of [`ViewDelta`] events — one per
//! commit that changed it, carrying the commit's sequence number and the
//! exact tuple delta the engine folded into its materialization. An
//! event is the commit's own delta for that relation, shared rather
//! than copied. Folding the stream into a starting instance reproduces
//! every subsequent instance **byte-identically** (row order included):
//! the deltas are the same vectors, applied in the same
//! removals-then-insertions order, that the writer applied in place.
//!
//! # Ordering and the publish point
//!
//! Events are dispatched at the *snapshot publish point* — the same
//! place `EngineSnapshot`s become visible, under the engine write lock —
//! so for every subscriber: event order == commit order == WAL order ==
//! ack order. A transactional batch dispatches its per-commit events
//! atomically at its single batch-end publish (rolled-back prefixes are
//! never dispatched), exactly mirroring what snapshot readers can
//! observe. Commits that did not change the subscribed relation emit
//! nothing, so consecutive event seqs may have holes; a hole always
//! means "no change", never "lost event" — loss is only ever signaled
//! explicitly via [`SubEvent::Lagged`].
//!
//! # Catch-up and cut-over
//!
//! Subscribing with [`SubscribeFrom::Seq`]`(s)` replays the per-commit
//! deltas of `(s, now]` from the engine's commit history into the queue and
//! registers for live tailing *in one step under the engine write lock*,
//! so the cut-over is atomic: no commit can land between catch-up and
//! live registration. When the history no longer covers `s`, subscription
//! fails with an explicit [`crate::EngineError::SubscriptionGap`] —
//! the gap is reported, never silently skipped. Subscribing with
//! [`SubscribeFrom::Snapshot`] pins the current instance as the origin
//! ([`Subscription::origin_rows`]) and streams everything after it.
//!
//! # Backpressure
//!
//! Each subscriber owns a bounded queue. When it overflows, the stream
//! stops enqueueing and — after the still-valid queued events drain —
//! delivers a terminal [`SubEvent::Lagged`] naming the first missed
//! sequence number. A lagged subscriber re-subscribes (typically
//! `SubscribeFrom::Seq(last folded seq)`, falling back to a snapshot
//! origin on [`crate::EngineError::SubscriptionGap`]).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, PoisonError};
use std::time::{Duration, Instant};

use relvu_relation::Relation;

use crate::commit::Commit;
pub use crate::commit::ViewDelta;

/// Default per-subscriber queue capacity.
pub const DEFAULT_QUEUE_CAPACITY: usize = 1024;

/// One received subscription event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubEvent {
    /// The next delta in the stream (shared, not copied, across the
    /// fan-out: every subscriber of the same relation receives the same
    /// allocation, which for a base or projective view is the commit's
    /// own delta).
    Delta(Arc<ViewDelta>),
    /// Terminal: the subscriber's queue overflowed and deltas from
    /// `missed_from_seq` on were not enqueued. Delivered only after the
    /// still-valid queued events — everything before the gap — have been
    /// consumed, and repeated on every receive thereafter. There is no
    /// silent drop: a subscriber either has the contiguous stream or
    /// holds this marker.
    Lagged {
        /// The first sequence number the subscriber missed.
        missed_from_seq: u64,
    },
    /// Terminal: the subscribed view was dropped (`drop_view`). Queued
    /// events before the drop are still delivered first; repeated on
    /// every receive thereafter.
    Dropped,
}

/// Where a new subscription starts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SubscribeFrom {
    /// Start at the engine's current state: the subscription carries the
    /// pinned instance ([`Subscription::origin_rows`]) and streams every
    /// later commit.
    Snapshot,
    /// Resume: the caller already holds the instance as of `seq` (from a
    /// previous subscription, a recovered checkpoint, …) and wants the
    /// deltas of `(seq, now]` replayed before live cut-over. Fails with
    /// [`crate::EngineError::SubscriptionGap`] when the engine no longer
    /// holds that history, or [`crate::EngineError::SubscriptionAhead`]
    /// when `seq` is in the future.
    Seq(u64),
}

/// Options for [`crate::Database::subscribe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubscribeOptions {
    /// Where the stream starts.
    pub from: SubscribeFrom,
    /// Live-queue capacity before the subscriber is marked lagged.
    /// Catch-up replay may transiently exceed it (those events exist and
    /// are delivered); only *live* enqueues against a full queue lag.
    pub capacity: usize,
}

impl Default for SubscribeOptions {
    fn default() -> Self {
        SubscribeOptions {
            from: SubscribeFrom::Snapshot,
            capacity: DEFAULT_QUEUE_CAPACITY,
        }
    }
}

impl SubscribeOptions {
    /// Start from the current snapshot (the default).
    pub fn snapshot() -> Self {
        SubscribeOptions::default()
    }

    /// Resume from `seq` (see [`SubscribeFrom::Seq`]).
    pub fn from_seq(seq: u64) -> Self {
        SubscribeOptions {
            from: SubscribeFrom::Seq(seq),
            ..SubscribeOptions::default()
        }
    }

    /// Override the live-queue capacity.
    pub fn with_capacity(mut self, capacity: usize) -> Self {
        self.capacity = capacity.max(1);
        self
    }
}

/// Mutable per-subscriber state, behind the subscriber's own mutex —
/// dispatch touches it for a push, the consumer for a pop; neither ever
/// holds it across another lock.
struct SubState {
    queue: VecDeque<Arc<ViewDelta>>,
    /// First missed seq, once the queue overflowed. Terminal: nothing is
    /// enqueued after it.
    lagged: Option<u64>,
    /// The subscribed view was dropped. Terminal.
    dropped: bool,
    /// The consumer side went away (`Subscription` dropped); dispatch
    /// prunes the entry.
    closed: bool,
}

pub(crate) struct SubInner {
    /// `None` subscribes to the base relation.
    target: Option<String>,
    capacity: usize,
    state: Mutex<SubState>,
    ready: Condvar,
}

impl SubInner {
    fn lock(&self) -> std::sync::MutexGuard<'_, SubState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Live-path enqueue: delta, or lag marker on overflow.
    fn push(&self, delta: &Arc<ViewDelta>) {
        let mut st = self.lock();
        if st.lagged.is_some() || st.dropped || st.closed {
            return;
        }
        if st.queue.len() >= self.capacity {
            st.lagged = Some(delta.seq);
            relvu_obs::counter!("engine.sub.lagged").inc();
        } else {
            st.queue.push_back(Arc::clone(delta));
            relvu_obs::counter!("engine.sub.events").inc();
            relvu_obs::histogram!("engine.sub.queue_depth").record(st.queue.len() as u64);
        }
        drop(st);
        self.ready.notify_all();
    }

    fn mark_dropped(&self) {
        let mut st = self.lock();
        st.dropped = true;
        drop(st);
        self.ready.notify_all();
    }
}

/// The registry of live subscribers, owned by the `Database`.
///
/// Lock order: the engine write lock → `subs` → one subscriber's
/// `state`. Consumers take only their own `state`, so receiving never
/// contends with the engine beyond that single queue mutex.
pub(crate) struct SubscriptionHub {
    subs: Mutex<Vec<Arc<SubInner>>>,
    count: AtomicU64,
}

impl SubscriptionHub {
    pub(crate) fn new() -> Self {
        SubscriptionHub {
            subs: Mutex::new(Vec::new()),
            count: AtomicU64::new(0),
        }
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Vec<Arc<SubInner>>> {
        self.subs.lock().unwrap_or_else(PoisonError::into_inner)
    }

    pub(crate) fn register(&self, sub: Arc<SubInner>) {
        let mut subs = self.lock();
        subs.push(sub);
        self.count.store(subs.len() as u64, Ordering::Relaxed);
    }

    /// Fan one published commit out to every live subscriber. Called at
    /// the snapshot publish point, under the engine write lock, once per
    /// pending commit in publish order — so every queue sees events in
    /// exactly commit (== WAL == ack) order.
    pub(crate) fn dispatch(&self, commit: &Arc<Commit>) {
        // Fast path: the count is only advisory (registration also runs
        // under the engine write lock, so it cannot race a dispatch).
        if self.count.load(Ordering::Relaxed) == 0 {
            return;
        }
        let mut subs = self.lock();
        let _t = relvu_obs::histogram!("engine.sub.fanout_ns").timer();
        subs.retain(|s| !s.lock().closed);
        self.count.store(subs.len() as u64, Ordering::Relaxed);
        // One shared event per distinct target: fan-out to N subscribers
        // of the same relation is N Arc clones of the commit's own
        // delta for it (a selection view's σ_P side wraps that delta).
        let mut cache: HashMap<Option<&str>, Option<Arc<ViewDelta>>> = HashMap::new();
        for sub in subs.iter() {
            let key = sub.target.as_deref();
            let delta = cache.entry(key).or_insert_with(|| event_for(commit, key));
            if let Some(d) = delta {
                sub.push(d);
            }
        }
    }

    /// Terminal-notify every subscriber of a dropped view. Runs under
    /// the engine write lock (inside `drop_view`).
    pub(crate) fn notify_dropped(&self, view: &str) {
        let subs = self.lock();
        for sub in subs.iter() {
            if sub.target.as_deref() == Some(view) {
                sub.mark_dropped();
            }
        }
    }
}

/// The event one commit produces for `target` (`None` = base), shared
/// by the live fan-out and catch-up replay: the relation's visible part
/// of the commit (a selection view's σ_P side), or `None` when the
/// commit left it unchanged.
pub(crate) fn event_for(commit: &Arc<Commit>, target: Option<&str>) -> Option<Arc<ViewDelta>> {
    let whole = match target {
        None => &commit.base,
        Some(name) => &commit.views.iter().find(|(n, _)| n == name)?.1,
    };
    let event = if whole.is_selection() {
        whole.side(true)
    } else {
        Arc::clone(whole)
    };
    (!event.is_empty()).then_some(event)
}

/// A live delta-stream subscription, created by
/// [`crate::Database::subscribe`] /
/// [`crate::Database::subscribe_base`].
///
/// Dropping it detaches from the hub; the next dispatch prunes the
/// queue. The handle is `Send`: create it anywhere, consume it on a
/// dedicated thread.
pub struct Subscription {
    inner: Arc<SubInner>,
    origin_seq: u64,
    origin_rows: Option<Arc<Relation>>,
}

impl Subscription {
    pub(crate) fn new(
        inner: Arc<SubInner>,
        origin_seq: u64,
        origin_rows: Option<Arc<Relation>>,
    ) -> Self {
        Subscription {
            inner,
            origin_seq,
            origin_rows,
        }
    }

    /// The subscribed view's name, or `None` for the base relation.
    pub fn target(&self) -> Option<&str> {
        self.inner.target.as_deref()
    }

    /// The sequence number the stream starts after: every delivered
    /// delta has `seq > origin_seq`, with no holes other than commits
    /// that did not change the subscribed relation.
    pub fn origin_seq(&self) -> u64 {
        self.origin_seq
    }

    /// For [`SubscribeFrom::Snapshot`] subscriptions: the subscribed
    /// relation's instance as of [`Subscription::origin_seq`] — the
    /// starting point folds build on. `None` for seq-resume
    /// subscriptions (the caller holds its own state by contract).
    pub fn origin_rows(&self) -> Option<&Arc<Relation>> {
        self.origin_rows.as_ref()
    }

    /// Number of events currently queued.
    pub fn queue_depth(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Non-blocking receive. `None` means "nothing queued right now" —
    /// the stream is still live. Terminal states ([`SubEvent::Lagged`],
    /// [`SubEvent::Dropped`]) are returned *after* the valid queued
    /// events drain, and then sticky-repeat on every later call.
    pub fn try_recv(&self) -> Option<SubEvent> {
        let mut st = self.inner.lock();
        Self::next_event(&mut st)
    }

    /// Blocking receive with a timeout. `None` means the timeout elapsed
    /// with the stream live but idle; terminal states behave as in
    /// [`Subscription::try_recv`].
    pub fn recv_timeout(&self, timeout: Duration) -> Option<SubEvent> {
        let deadline = Instant::now() + timeout;
        let mut st = self.inner.lock();
        loop {
            if let Some(ev) = Self::next_event(&mut st) {
                return Some(ev);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            let (guard, _) = self
                .inner
                .ready
                .wait_timeout(st, deadline - now)
                .unwrap_or_else(PoisonError::into_inner);
            st = guard;
        }
    }

    fn next_event(st: &mut SubState) -> Option<SubEvent> {
        if let Some(d) = st.queue.pop_front() {
            return Some(SubEvent::Delta(d));
        }
        if let Some(missed) = st.lagged {
            return Some(SubEvent::Lagged {
                missed_from_seq: missed,
            });
        }
        if st.dropped {
            return Some(SubEvent::Dropped);
        }
        None
    }
}

impl Drop for Subscription {
    fn drop(&mut self) {
        self.inner.lock().closed = true;
    }
}

/// Engine-side constructor: a subscriber with `prefill` (the catch-up
/// replay) already queued. Called under the engine write lock, so the
/// prefill and the hub registration are atomic with respect to commits.
pub(crate) fn make_subscriber(
    target: Option<String>,
    capacity: usize,
    prefill: VecDeque<Arc<ViewDelta>>,
) -> Arc<SubInner> {
    relvu_obs::counter!("engine.sub.events").add(prefill.len() as u64);
    Arc::new(SubInner {
        target,
        capacity: capacity.max(1),
        state: Mutex::new(SubState {
            queue: prefill,
            lagged: None,
            dropped: false,
            closed: false,
        }),
        ready: Condvar::new(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::commit::test_commit;
    use relvu_relation::{tup, Tuple};

    fn pd(seq: u64, views: Vec<(&str, Vec<Tuple>, Vec<Tuple>)>) -> Arc<Commit> {
        test_commit(seq, vec![tup![seq, 0]], vec![], views)
    }

    fn sub_on(hub: &SubscriptionHub, target: Option<&str>, capacity: usize) -> Subscription {
        let inner = make_subscriber(target.map(str::to_string), capacity, VecDeque::new());
        hub.register(Arc::clone(&inner));
        Subscription::new(inner, 0, None)
    }

    #[test]
    fn dispatch_routes_per_target_and_skips_untouched() {
        let hub = SubscriptionHub::new();
        let on_v = sub_on(&hub, Some("v"), 8);
        let on_w = sub_on(&hub, Some("w"), 8);
        let on_base = sub_on(&hub, None, 8);
        hub.dispatch(&pd(1, vec![("v", vec![tup![1, 1]], vec![])]));
        hub.dispatch(&pd(2, vec![("w", vec![], vec![tup![2, 2]])]));
        // v sees only seq 1, w only seq 2, base both.
        match on_v.try_recv() {
            Some(SubEvent::Delta(d)) => {
                assert_eq!((d.seq, d.inserts().count(), d.deletes().count()), (1, 1, 0));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(on_v.try_recv(), None);
        match on_w.try_recv() {
            Some(SubEvent::Delta(d)) => {
                assert_eq!((d.seq, d.deletes().count()), (2, 1));
            }
            other => panic!("unexpected: {other:?}"),
        }
        assert_eq!(on_base.queue_depth(), 2);
        // Subscribers of one target share the allocation.
        let on_v2 = sub_on(&hub, Some("v"), 8);
        hub.dispatch(&pd(3, vec![("v", vec![tup![3, 3]], vec![])]));
        let (a, b) = match (on_v.try_recv(), on_v2.try_recv()) {
            (Some(SubEvent::Delta(a)), Some(SubEvent::Delta(b))) => (a, b),
            other => panic!("unexpected: {other:?}"),
        };
        assert!(Arc::ptr_eq(&a, &b), "fan-out shares one event");
    }

    #[test]
    fn overflow_is_terminal_lag_after_valid_events_drain() {
        let hub = SubscriptionHub::new();
        let sub = sub_on(&hub, Some("v"), 2);
        for seq in 1..=5 {
            hub.dispatch(&pd(seq, vec![("v", vec![tup![seq, 1]], vec![])]));
        }
        // Seqs 1 and 2 queued; 3 overflowed and is the first missed.
        for want in [1u64, 2] {
            match sub.try_recv() {
                Some(SubEvent::Delta(d)) => assert_eq!(d.seq, want),
                other => panic!("unexpected: {other:?}"),
            }
        }
        assert_eq!(
            sub.try_recv(),
            Some(SubEvent::Lagged { missed_from_seq: 3 })
        );
        // Sticky: still lagged, and later dispatches stay out.
        hub.dispatch(&pd(6, vec![("v", vec![tup![6, 1]], vec![])]));
        assert_eq!(
            sub.recv_timeout(Duration::from_millis(1)),
            Some(SubEvent::Lagged { missed_from_seq: 3 })
        );
    }

    #[test]
    fn dropped_view_delivers_queued_events_then_dropped() {
        let hub = SubscriptionHub::new();
        let sub = sub_on(&hub, Some("v"), 8);
        hub.dispatch(&pd(1, vec![("v", vec![tup![1, 1]], vec![])]));
        hub.notify_dropped("v");
        assert!(matches!(sub.try_recv(), Some(SubEvent::Delta(_))));
        assert_eq!(sub.try_recv(), Some(SubEvent::Dropped));
        assert_eq!(sub.try_recv(), Some(SubEvent::Dropped), "sticky");
    }

    #[test]
    fn dropped_subscription_is_pruned_on_next_dispatch() {
        let hub = SubscriptionHub::new();
        let sub = sub_on(&hub, Some("v"), 8);
        drop(sub);
        hub.dispatch(&pd(1, vec![("v", vec![tup![1, 1]], vec![])]));
        assert_eq!(hub.lock().len(), 0, "closed subscriber pruned");
    }
}
