//! Parallel batched view updates.
//!
//! [`Database::apply_batch_parallel`] accepts a vector of view-update
//! requests and produces, for each, exactly the outcome a sequential fold
//! of [`Database::insert_via`]/[`Database::delete_via`]/
//! [`Database::replace_via`] in submission order would have produced —
//! same base relation, same log, same stats, same per-update results —
//! while running the expensive translatability checks (Theorem 3 /
//! Test 1 / Test 2) concurrently on scoped threads.
//!
//! # How observational identity is preserved
//!
//! Every request's check is **speculated** against the batch's starting
//! base `B₀`. The commit loop then walks the requests strictly in
//! submission order and asks, per request: *could any earlier applied
//! update have changed this request's verdict?* The answer is derived
//! from **value footprints**:
//!
//! * Base rows of `B₀` are partitioned into connected components under
//!   the "shares an `(attribute, value)` cell" relation. Any FD chase
//!   step requires agreement on the FD's left-hand-side constants, so a
//!   chase started from a request tuple can only ever involve rows
//!   *connected* to it — values outside the component can never unify
//!   with values inside it.
//! * A request's footprint is the cell set of its own tuples plus the
//!   cell sets of every component those tuples touch. Rows created or
//!   deleted by applying the request's translation (`t ⋈ π_Y(B)`) draw
//!   all their values from that footprint.
//! * Therefore: if a request's footprint is disjoint from the union of
//!   footprints of all earlier *applied* updates, its speculative
//!   verdict — computed against `B₀` — is still exact against the
//!   current base, and can be committed (or its rejection recorded)
//!   without re-checking. Otherwise the request is revalidated
//!   sequentially, which is always correct.
//!
//! One conservative guard: an FD with an **empty left-hand side**
//! (`∅ → A`) fires without any value agreement, so footprints cannot
//! localize its effects; when Σ's atomized form contains one, every
//! request is treated as conflicting (pure sequential revalidation).
//!
//! Commits are serialized in submission order through the single audit
//! log, so the log — including sequence numbers — is byte-identical
//! across thread counts.

use std::collections::{HashMap, HashSet};
use std::sync::Arc;

use relvu_core::Translatability;
use relvu_deps::closure;
use relvu_relation::{Attr, Relation, Value};

use crate::db::check_update;
use crate::log::UpdateOp;
use crate::view::ViewDef;
use crate::{Database, EngineError, Result, UpdateReport};

/// One view update in a batch.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BatchRequest {
    /// The view to update through.
    pub view: String,
    /// The update itself.
    pub op: UpdateOp,
}

impl BatchRequest {
    /// Convenience constructor.
    pub fn new(view: impl Into<String>, op: UpdateOp) -> Self {
        BatchRequest {
            view: view.into(),
            op,
        }
    }
}

/// Tuning knobs for [`Database::apply_batch_parallel`].
#[derive(Debug, Clone, Default)]
pub struct BatchOptions {
    /// Worker threads for speculative checking. `None` uses
    /// [`std::thread::available_parallelism`].
    pub threads: Option<usize>,
}

/// The result of one request: exactly what the corresponding sequential
/// [`Database::insert_via`]-style call would have returned.
pub type BatchOutcome = Result<UpdateReport>;

/// Execution counters for one batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BatchStats {
    /// Requests in the batch.
    pub requests: usize,
    /// Conflict-free groups the batch partitioned into (requests whose
    /// footprints are disjoint fall in different groups).
    pub groups: usize,
    /// Checks whose speculative verdict was committed directly.
    pub reused: usize,
    /// Checks re-run sequentially because an earlier applied update's
    /// footprint intersected theirs (or Σ forced serial mode).
    pub revalidated: usize,
    /// Worker threads used for speculation.
    pub threads: usize,
    /// Closure memo cache counters accumulated during this batch.
    pub closure_hits: u64,
    /// Closure memo cache misses accumulated during this batch.
    pub closure_misses: u64,
}

impl BatchStats {
    /// Closure-cache hit rate during the batch, in `[0, 1]`.
    pub fn closure_hit_rate(&self) -> f64 {
        let total = self.closure_hits + self.closure_misses;
        if total == 0 {
            0.0
        } else {
            self.closure_hits as f64 / total as f64
        }
    }
}

/// Everything a batch run reports back.
#[derive(Debug)]
pub struct BatchReport {
    /// Per-request outcomes, in submission order.
    pub outcomes: Vec<BatchOutcome>,
    /// Execution counters.
    pub stats: BatchStats,
}

/// A request's value footprint: the `(attribute, value)` cells its check
/// and its translation can possibly read or write.
type Footprint = HashSet<(Attr, Value)>;

/// Union-find over base-row indices.
struct Dsu {
    parent: Vec<usize>,
}

impl Dsu {
    fn new(n: usize) -> Self {
        Dsu {
            parent: (0..n).collect(),
        }
    }

    fn find(&mut self, mut i: usize) -> usize {
        while self.parent[i] != i {
            self.parent[i] = self.parent[self.parent[i]];
            i = self.parent[i];
        }
        i
    }

    fn union(&mut self, a: usize, b: usize) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            self.parent[ra] = rb;
        }
    }
}

/// Connected components of `base` rows under shared `(attr, value)`
/// cells, returned as `cell → component root` and `root → cell set`.
struct Components {
    cell_root: HashMap<(Attr, Value), usize>,
    root_cells: HashMap<usize, Footprint>,
}

impl Components {
    fn build(base: &Relation) -> Self {
        let attrs = base.attrs();
        let n = base.len();
        let mut dsu = Dsu::new(n);
        let mut first_row: HashMap<(Attr, Value), usize> = HashMap::new();
        for (i, row) in base.iter().enumerate() {
            for a in attrs.iter() {
                let cell = (a, row.get(&attrs, a));
                match first_row.get(&cell) {
                    Some(&j) => dsu.union(i, j),
                    None => {
                        first_row.insert(cell, i);
                    }
                }
            }
        }
        let mut cell_root = HashMap::with_capacity(first_row.len());
        let mut root_cells: HashMap<usize, Footprint> = HashMap::new();
        for (i, row) in base.iter().enumerate() {
            let root = dsu.find(i);
            let cells = root_cells.entry(root).or_default();
            for a in attrs.iter() {
                let cell = (a, row.get(&attrs, a));
                cells.insert(cell);
                cell_root.insert(cell, root);
            }
        }
        Components {
            cell_root,
            root_cells,
        }
    }

    /// The footprint of a request: its own tuples' cells plus the cells
    /// of every base component those tuples touch.
    fn footprint(&self, def: &ViewDef, op: &UpdateOp) -> Footprint {
        let x = def.x();
        let mut fp = Footprint::new();
        let mut roots: HashSet<usize> = HashSet::new();
        let tuples = match op {
            UpdateOp::Insert { t } | UpdateOp::Delete { t } => vec![t],
            UpdateOp::Replace { t1, t2 } => vec![t1, t2],
        };
        for t in tuples {
            // Malformed tuples (wrong arity) are caught by validation in
            // the check itself; footprint only needs the well-formed case.
            if t.arity() != x.len() {
                continue;
            }
            for a in x.iter() {
                let cell = (a, t.get(&x, a));
                if let Some(&r) = self.cell_root.get(&cell) {
                    roots.insert(r);
                }
                fp.insert(cell);
            }
        }
        for r in roots {
            fp.extend(self.root_cells[&r].iter().copied());
        }
        fp
    }
}

/// Number of disjoint request groups, for [`BatchStats::groups`]:
/// requests whose footprints intersect (transitively) share a group.
fn count_groups(footprints: &[Option<Footprint>]) -> usize {
    let n = footprints.len();
    let mut dsu = Dsu::new(n);
    let mut cell_owner: HashMap<(Attr, Value), usize> = HashMap::new();
    for (i, fp) in footprints.iter().enumerate() {
        let Some(fp) = fp else { continue };
        for cell in fp {
            match cell_owner.get(cell) {
                Some(&j) => dsu.union(i, j),
                None => {
                    cell_owner.insert(*cell, i);
                }
            }
        }
    }
    let mut roots = HashSet::new();
    for (i, fp) in footprints.iter().enumerate() {
        if fp.is_some() {
            roots.insert(dsu.find(i));
        }
    }
    roots.len()
}

impl Database {
    /// Apply a batch of view updates with parallel speculative checking.
    ///
    /// Unlike the transactional [`Database::apply_batch`], this is the
    /// *pipelined* batch API: each request succeeds or fails
    /// independently, and the vector of outcomes (plus the resulting
    /// base, log and stats) is **exactly** what folding the requests
    /// through the one-at-a-time API in submission order would produce —
    /// see the module docs for why. Thread count only affects wall-clock
    /// time, never results.
    pub fn apply_batch_parallel(
        &self,
        requests: Vec<BatchRequest>,
        options: &BatchOptions,
    ) -> BatchReport {
        let mut inner = self.write();
        let _hold = relvu_obs::histogram!("engine.lock.write_hold_ns").timer();
        let cache_before = closure::cache::stats();
        let n = requests.len();

        // Resolve each request's view once, and pin each distinct
        // view's starting instance π_X(B₀) (plus the σ_P/σ_¬P split for
        // selection views) from the published snapshot — every mutator
        // publishes before releasing the write lock, so the last
        // published epoch *is* B₀, and pinning it shares the relations
        // instead of cloning them. The pinned `Arc`s stay frozen while
        // the commit loop below mutates the materializations, which is
        // exactly the isolation speculation needs.
        let cur = Arc::clone(&inner.cur);
        type Ctx<'a> = (
            &'a ViewDef,
            Arc<Relation>,
            Option<(Arc<Relation>, Arc<Relation>)>,
        );
        let mut view_ctx: HashMap<String, Ctx> = HashMap::new();
        for req in &requests {
            if !view_ctx.contains_key(&req.view) {
                if let Some(def) = cur.views.get(&req.view) {
                    let vs = cur
                        .insts
                        .get(&req.view)
                        .expect("published snapshot tracks registered views");
                    let v = vs.inst.get();
                    let split = vs.split.as_ref().map(|(m, r)| (m.get(), r.get()));
                    view_ctx.insert(req.view.clone(), (def, v, split));
                }
            }
        }

        // An empty-LHS FD fires without value agreement, defeating
        // footprint locality: fall back to pure sequential revalidation.
        let serial_only = cur.fds.atomized().iter().any(|fd| fd.lhs().is_empty());

        let footprints: Vec<Option<Footprint>> = {
            let _t = relvu_obs::histogram!("engine.batch.partition_ns").timer();
            let components = Components::build(&inner.base);
            requests
                .iter()
                .map(|req| {
                    view_ctx
                        .get(&req.view)
                        .map(|(def, _, _)| components.footprint(def, &req.op))
                })
                .collect()
        };

        // Speculate every check against B₀ on scoped worker threads.
        let threads = options
            .threads
            .unwrap_or_else(|| {
                std::thread::available_parallelism()
                    .map(std::num::NonZeroUsize::get)
                    .unwrap_or(1)
            })
            .clamp(1, n.max(1));
        let mut specs: Vec<Option<Result<Translatability>>> = Vec::new();
        specs.resize_with(n, || None);
        if !serial_only && n > 0 {
            let _t = relvu_obs::histogram!("engine.batch.speculate_ns").timer();
            let chunk = n.div_ceil(threads);
            let view_ctx = &view_ctx;
            let requests = &requests;
            let cur = &cur;
            let panicked = std::thread::scope(|s| {
                let workers: Vec<_> = specs
                    .chunks_mut(chunk)
                    .enumerate()
                    .map(|(c, spec_chunk)| {
                        let start = c * chunk;
                        s.spawn(move || {
                            for (off, slot) in spec_chunk.iter_mut().enumerate() {
                                let req = &requests[start + off];
                                if let Some((def, v, split)) = view_ctx.get(&req.view) {
                                    *slot = Some(check_update(
                                        &cur.schema,
                                        &cur.fds,
                                        def,
                                        v,
                                        split.as_ref().map(|(m, r)| (m.as_ref(), r.as_ref())),
                                        &req.op,
                                    ));
                                }
                            }
                        })
                    })
                    .collect();
                // Join every worker, keeping the first panic's payload.
                let mut first = None;
                for w in workers {
                    if let Err(payload) = w.join() {
                        first.get_or_insert(payload);
                    }
                }
                first
            });
            // Re-raise the original panic (a buggy translator, a
            // sabotaged view definition) to the caller; the write guard
            // resets the engine on the way out.
            if let Some(payload) = panicked {
                std::panic::resume_unwind(payload);
            }
        }

        // Commit strictly in submission order. `dirty` is the union of
        // footprints of applied updates so far; a request whose
        // footprint misses it entirely can reuse its speculative
        // verdict, everything else re-runs against the current base.
        let commit_timer = relvu_obs::histogram!("engine.batch.commit_ns").timer();
        let mut dirty = Footprint::new();
        let mut outcomes = Vec::with_capacity(n);
        let mut reused = 0usize;
        let mut revalidated = 0usize;
        for (i, req) in requests.into_iter().enumerate() {
            let Some(fp) = &footprints[i] else {
                // Unknown view: same error the sequential call returns,
                // with no state change.
                outcomes.push(Err(EngineError::UnknownView {
                    name: req.view.clone(),
                }));
                continue;
            };
            let clean = !serial_only && dirty.is_disjoint(fp);
            let outcome = match (clean, specs[i].take()) {
                (true, Some(spec)) => {
                    reused += 1;
                    match spec {
                        Ok(Translatability::Translatable(tr)) => {
                            let (def, _, _) = &view_ctx[&req.view];
                            let (x, y) = (def.x(), def.y());
                            self.commit(&mut inner, &req.view, req.op, x, y, tr)
                        }
                        Ok(Translatability::Rejected(reason)) => Err(crate::db::record_rejection(
                            &mut inner, &req.view, &req.op, reason,
                        )),
                        Err(e) => Err(e),
                    }
                }
                _ => {
                    revalidated += 1;
                    self.apply_inner(&mut inner, &req.view, req.op)
                }
            };
            if outcome.is_ok() {
                dirty.extend(fp.iter().copied());
            }
            outcomes.push(outcome);
        }
        // With obs disabled the timer is a unit no-op without Drop.
        #[allow(clippy::drop_non_drop)]
        drop(commit_timer);

        // One publish for the whole batch, after the last in-order
        // commit: readers observe the batch atomically, and the publish
        // cost is O(total |Δ|) regardless of request count.
        self.publish(&mut inner);

        let cache_after = closure::cache::stats();
        let stats = BatchStats {
            requests: n,
            groups: if serial_only {
                usize::from(n > 0)
            } else {
                count_groups(&footprints)
            },
            reused,
            revalidated,
            threads,
            closure_hits: cache_after.hits.saturating_sub(cache_before.hits),
            closure_misses: cache_after.misses.saturating_sub(cache_before.misses),
        };
        relvu_obs::counter!("engine.batch.requests").add(stats.requests as u64);
        relvu_obs::counter!("engine.batch.groups").add(stats.groups as u64);
        relvu_obs::counter!("engine.batch.reused").add(stats.reused as u64);
        relvu_obs::counter!("engine.batch.revalidated").add(stats.revalidated as u64);
        BatchReport { outcomes, stats }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Policy;
    use relvu_relation::Tuple;
    use relvu_workload::fixtures;

    fn edm_db() -> (fixtures::EdmFixture, Database) {
        let f = fixtures::edm();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("staff", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        (f, db)
    }

    fn ins(f: &fixtures::EdmFixture, e: &str, d: &str) -> BatchRequest {
        BatchRequest::new(
            "staff",
            UpdateOp::Insert {
                t: Tuple::new([f.dict.sym(e), f.dict.sym(d)]),
            },
        )
    }

    #[test]
    fn batch_matches_sequential_fold() {
        let f = fixtures::edm();
        let reqs = |f: &fixtures::EdmFixture| {
            vec![
                ins(f, "dan", "toys"),
                ins(f, "eve", "books"),
                ins(f, "fay", "games"), // unknown dept: rejected
                ins(f, "gus", "toys"),
            ]
        };

        let (_, par_db) = edm_db();
        let report = par_db.apply_batch_parallel(reqs(&f), &BatchOptions::default());

        let (_, seq_db) = edm_db();
        let expected: Vec<BatchOutcome> = reqs(&f)
            .into_iter()
            .map(|r| {
                let UpdateOp::Insert { t } = r.op else {
                    unreachable!()
                };
                seq_db.insert_via(&r.view, t)
            })
            .collect();

        assert_eq!(report.outcomes, expected);
        let (par, seq) = (par_db.snapshot(), seq_db.snapshot());
        assert_eq!(par.base(), seq.base());
        assert_eq!(par.log(), seq.log());
        assert_eq!(par.stats("staff").unwrap(), seq.stats("staff").unwrap());
        assert_eq!(report.stats.requests, 4);
        assert_eq!(report.stats.reused + report.stats.revalidated, 4);
    }

    #[test]
    fn thread_count_does_not_change_results() {
        let f = fixtures::edm();
        let mut logs = Vec::new();
        for threads in [1, 2, 8] {
            let (_, db) = edm_db();
            let reqs = vec![
                ins(&f, "dan", "toys"),
                ins(&f, "eve", "books"),
                ins(&f, "fay", "toys"),
            ];
            let report = db.apply_batch_parallel(
                reqs,
                &BatchOptions {
                    threads: Some(threads),
                },
            );
            assert!(report.outcomes.iter().all(Result::is_ok));
            let snap = db.snapshot();
            logs.push((snap.base(), snap.log()));
        }
        assert_eq!(logs[0], logs[1]);
        assert_eq!(logs[1], logs[2]);
    }

    #[test]
    fn unknown_view_is_isolated() {
        let (f, db) = edm_db();
        let report = db.apply_batch_parallel(
            vec![
                BatchRequest::new(
                    "nope",
                    UpdateOp::Insert {
                        t: Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]),
                    },
                ),
                ins(&f, "eve", "toys"),
            ],
            &BatchOptions::default(),
        );
        assert!(matches!(
            report.outcomes[0],
            Err(EngineError::UnknownView { .. })
        ));
        assert!(report.outcomes[1].is_ok());
        assert_eq!(db.snapshot().base().len(), 4);
    }

    #[test]
    fn disjoint_requests_form_separate_groups() {
        use relvu_deps::FdSet;
        use relvu_relation::{tup, Schema};
        let s = Schema::new(["S", "P", "Qty", "City"]).unwrap();
        let fds = FdSet::parse(&s, "S P -> Qty; S -> City").unwrap();
        let x = s.set(["S", "P", "Qty"]).unwrap();
        let y = s.set(["S", "City"]).unwrap();
        // Supplier 1's rows and supplier 2's row share no cell at all, so
        // requests touching different suppliers are conflict-free.
        let base = Relation::from_rows(
            s.universe(),
            [
                tup![1, 100, 5, 70],
                tup![1, 101, 3, 70],
                tup![2, 200, 9, 71],
            ],
        )
        .unwrap();
        let db = Database::new(s, fds, base).unwrap();
        db.create_view("orders", x, Some(y), Policy::Exact).unwrap();
        let report = db.apply_batch_parallel(
            vec![
                BatchRequest::new("orders", UpdateOp::Insert { t: tup![1, 102, 7] }),
                BatchRequest::new("orders", UpdateOp::Insert { t: tup![2, 201, 4] }),
            ],
            &BatchOptions::default(),
        );
        assert!(report.outcomes.iter().all(Result::is_ok));
        assert_eq!(report.stats.groups, 2);
        assert_eq!(report.stats.reused, 2);
        assert_eq!(report.stats.revalidated, 0);
    }

    #[test]
    fn speculation_panic_releases_state_and_propagates_the_payload() {
        let f = fixtures::edm();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("staff", f.x, Some(f.y), Policy::Test2)
            .unwrap();
        // Sabotage the prepared Test 2 state: speculation for any insert
        // through `staff` now hits `.expect("prepared at creation")`.
        db.break_test2("staff");
        let before = db.snapshot();

        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            db.apply_batch_parallel(
                vec![ins(&f, "dan", "toys"), ins(&f, "eve", "books")],
                &BatchOptions { threads: Some(2) },
            )
        }));
        // The original payload propagates (not a generic scoped-thread
        // wrapper), so callers can still tell what went wrong.
        let payload = result.expect_err("sabotaged translator must panic");
        let msg = payload
            .downcast_ref::<&str>()
            .copied()
            .map(String::from)
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_default();
        assert!(
            msg.contains("prepared at creation"),
            "original panic payload must survive, got {msg:?}"
        );

        // Nothing committed, no lock left held: the engine is unchanged
        // and fully usable afterwards.
        let after = db.snapshot();
        assert_eq!(after.base(), before.base());
        assert_eq!(after.log(), before.log());
        db.create_view("staff2", f.x, Some(f.y), Policy::Exact)
            .unwrap();
        let report = db.apply_batch_parallel(
            vec![BatchRequest::new(
                "staff2",
                UpdateOp::Insert {
                    t: Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]),
                },
            )],
            &BatchOptions::default(),
        );
        assert!(report.outcomes[0].is_ok());
        assert_eq!(db.snapshot().base().len(), 4);
    }

    #[test]
    fn empty_lhs_fd_forces_serial_mode() {
        use relvu_deps::{Fd, FdSet};
        use relvu_relation::{AttrSet, Schema};
        let s = Schema::new(["A", "B"]).unwrap();
        let a = s.set(["A"]).unwrap();
        // ∅ → B: every row has the same B value.
        let fds = FdSet::new([Fd::new(AttrSet::EMPTY, s.set(["B"]).unwrap())]);
        let base = Relation::from_rows(s.universe(), [relvu_relation::tup![1, 9]]).unwrap();
        let db = Database::new(s.clone(), fds, base).unwrap();
        db.create_view("va", a, None, Policy::Exact).unwrap();
        let report = db.apply_batch_parallel(
            vec![BatchRequest::new(
                "va",
                UpdateOp::Insert {
                    t: relvu_relation::tup![2],
                },
            )],
            &BatchOptions::default(),
        );
        assert_eq!(report.stats.reused, 0);
        assert_eq!(report.stats.revalidated, 1);
        assert_eq!(report.stats.groups, 1);
    }
}
