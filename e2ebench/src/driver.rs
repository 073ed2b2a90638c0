//! Runs one workload against `DurableDatabase` and checks its outputs.
//!
//! A run sets the store up several times (timing each), then drives the
//! writers for the measured interval while one consumer thread drains
//! the subscriptions and reads snapshots. Afterwards it checks every
//! output, writes a fixed restart image (two full checkpoints each
//! followed by 128 ops, an incremental checkpoint, 128 more ops) and
//! recovers it several times.
//!
//! A traced run also records spans around each call into a layer, and
//! after the measured interval replays the acknowledged sequence, in
//! commit order, on an in-memory twin `Database`: before each op it
//! times the paper's translatability check on the twin's pinned
//! instance, then the twin's whole engine update. Replaying afterwards
//! keeps these probes out of the measured interval, where they would
//! compete with the writers and warm the caches the writers use.

use std::collections::{HashMap, HashSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use relvu::core::{
    translate_delete, translate_insert, translate_replace, SelectionView, Translatability,
};
use relvu::durability::{
    load_checkpoint, parse_checkpoint_name, parse_delta_checkpoint_name, scan, DurabilityError,
    DurableDatabase, MemVfs, Vfs, WalOptions,
};
use relvu::engine::{
    Database, EngineError, EngineSnapshot, Policy, SubEvent, SubscribeOptions, Subscription,
    UpdateOp, ViewDelta,
};
use relvu::obs;
use relvu::relation::{ops, AttrSet, CmpOp, Pred, Relation, Schema, Tuple, Value};

use crate::stats::{ms, ms_between, us};
use crate::trace::{Span, Tracer};
use crate::workload::{base_pairs, manager, Gen, Kind, Spec};
use crate::{calib, cpu};

/// Set-ups per run (`setup_s` is their median): at least the first
/// count, then more until the time is spent, at most the second count.
const SETUPS: (usize, Duration, usize) = (5, Duration::from_millis(1000), 400);
/// Recoveries of the final image per run (`restart_ms` is their median),
/// in the same form.
const RESTARTS: (usize, Duration, usize) = (5, Duration::from_millis(3000), 40);

/// Whether to repeat once more after `done` repetitions since `start`.
fn again((min, budget, max): (usize, Duration, usize), done: usize, start: Instant) -> bool {
    done < min || (done < max && start.elapsed() < budget)
}

/// Ops after the full checkpoint, and again after the incremental one,
/// that make up the restart image.
const TAIL_OPS: usize = 128;
/// The seed of the restart image's ops.
const RESTART_SEED: u64 = 0x7E57_A127;
/// How long the checkpointer thread sleeps between polls.
const POLL: Duration = Duration::from_millis(5);
/// The consumer checks one read in this many against a projection of
/// the pinned base.
const READ_CHECK_EVERY: u64 = 16;
/// Operation ids of reads, restarts and checkpoints, apart from the
/// writers' `writer << 48 | i`.
const READ_OP_BASE: u64 = 1 << 62;
const RESTART_OP_BASE: u64 = 1 << 61;
const CKPT_OP_BASE: u64 = 1 << 60;

/// Everything one run measured.
#[derive(Default)]
pub struct RunOut {
    pub setup_s: Vec<f64>,
    /// Latency (ms) of acknowledged outcomes by [`Kind`].
    pub lat_ms: [Vec<f64>; 4],
    /// Duration (µs) of every `DurableDatabase::apply` call.
    pub apply_us: Vec<f64>,
    pub attempted: u64,
    pub failed: u64,
    /// Acknowledged outcomes: accepted ops plus planned rejections.
    pub acked: u64,
    pub accepted: u64,
    pub wall_s: f64,
    pub cdc_ms: Vec<f64>,
    pub late_ms: Vec<f64>,
    /// CPU times (µs) of the reference job (see [`crate::calib`]): on
    /// writer 0 in the measured interval, and on the main thread between
    /// set-ups and between restarts, each scaling the times taken beside
    /// it.
    pub ref_us: Vec<f64>,
    pub setup_ref_us: Vec<f64>,
    pub restart_ref_us: Vec<f64>,
    pub restart_ms: Vec<f64>,
    pub records_replayed: u64,
    pub ckpt_bytes: u64,
    pub wal_bytes: u64,
    pub events: u64,
    pub queue_depth_max: usize,
    pub lagged: u64,
    /// Probed core checks that found the update translatable, and all.
    pub probe_accepts: u64,
    pub probes: u64,
    /// Registry before and after the measured interval.
    pub reg: (obs::Snapshot, obs::Snapshot),
    pub spans: Vec<Span>,
    /// Why ops or checks failed (the first few).
    pub notes: Vec<String>,
}

impl RunOut {
    fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 16 {
            self.notes.push(note);
        }
    }

    fn absorb(&mut self, p: Partial) {
        for (all, mine) in self.lat_ms.iter_mut().zip(p.lat_ms) {
            all.extend(mine);
        }
        self.apply_us.extend(p.apply_us);
        self.late_ms.extend(p.late_ms);
        self.ref_us.extend(p.ref_us);
        self.attempted += p.attempted;
        self.acked += p.acked;
        self.accepted += p.accepted;
        self.ckpt_bytes += p.ckpt.map_or(0, |c| c.bytes);
        self.events += p.events;
        self.queue_depth_max = self.queue_depth_max.max(p.queue_depth_max);
        self.lagged += p.lagged;
        self.spans.extend(p.tracer.spans);
        for n in p.notes {
            self.fail(n);
        }
    }
}

/// An acknowledged op of a traced run, kept for the twin replay.
struct Trail {
    /// Replay order: `(seq, 0)` for a commit; `(seq of this writer's
    /// previous commit, 1)` for a rejection, which reads no state.
    key: (u64, u8),
    op_id: u64,
    view: &'static str,
    op: UpdateOp,
    accepted: bool,
}

/// Runs `checkpoint_incremental` and counts the checkpoint files it
/// writes.
struct Checkpointer {
    seen: HashSet<String>,
    bytes: u64,
    /// Checkpoint once the last acknowledged seq reaches this.
    next_seq: u64,
}

impl Checkpointer {
    fn new(ctx: &Ctx<'_>) -> Self {
        let mut c = Checkpointer {
            seen: HashSet::new(),
            bytes: 0,
            next_seq: ctx.spec.ckpt_every,
        };
        c.new_bytes(ctx.vfs);
        c
    }

    /// Size of the checkpoint files not seen before.
    fn new_bytes(&mut self, vfs: &MemVfs) -> u64 {
        let mut bytes = 0;
        for name in vfs.list().expect("list the store") {
            let is_ckpt = parse_checkpoint_name(&name).is_some()
                || parse_delta_checkpoint_name(&name).is_some();
            if is_ckpt && self.seen.insert(name.clone()) {
                bytes += vfs.file_len(&name).expect("listed file exists");
            }
        }
        bytes
    }

    /// Checkpoint if `seq` commits are acknowledged and one is due.
    fn maybe_run(&mut self, ctx: &Ctx<'_>, seq: u64, tracer: &mut Tracer, notes: &mut Vec<String>) {
        if seq < self.next_seq {
            return;
        }
        self.next_seq = seq + ctx.spec.ckpt_every;
        let t0 = Instant::now();
        let res = ctx.ddb.checkpoint_incremental();
        tracer.record(
            "ckpt.incremental",
            None,
            CKPT_OP_BASE | seq,
            t0,
            Instant::now(),
        );
        match res {
            Ok(_) => self.bytes += self.new_bytes(ctx.vfs),
            Err(e) => notes.push(format!("checkpoint_incremental: {e}")),
        }
    }
}

/// What one thread gathered; merged into [`RunOut`].
struct Partial {
    lat_ms: [Vec<f64>; 4],
    apply_us: Vec<f64>,
    late_ms: Vec<f64>,
    /// Reference jobs (writer 0 only).
    ref_us: Vec<f64>,
    attempted: u64,
    acked: u64,
    accepted: u64,
    /// The thread's checkpointer, if it runs the checkpoints.
    ckpt: Option<Checkpointer>,
    events: u64,
    queue_depth_max: usize,
    lagged: u64,
    commits: Commits,
    /// Received deltas: `(subscription, delta, receive time)`.
    received: Vec<(usize, Arc<ViewDelta>, Instant)>,
    trail: Vec<Trail>,
    tracer: Tracer,
    notes: Vec<String>,
}

impl Partial {
    fn new(ctx: &Ctx<'_>) -> Self {
        Partial {
            lat_ms: Default::default(),
            apply_us: Vec::new(),
            late_ms: Vec::new(),
            ref_us: Vec::new(),
            attempted: 0,
            acked: 0,
            accepted: 0,
            ckpt: None,
            events: 0,
            queue_depth_max: 0,
            lagged: 0,
            commits: Vec::new(),
            received: Vec::new(),
            trail: Vec::new(),
            tracer: Tracer::new(ctx.origin, ctx.traced),
            notes: Vec::new(),
        }
    }
}

fn wal_options() -> WalOptions {
    // The shipped defaults (`SyncPolicy::Always`, incremental chains of
    // up to 8 deltas, two retained chains), but sequential replay: where
    // the hypervisor runs parallel replay threads on two shared vCPUs
    // changes the restart time from run to run by a third.
    WalOptions {
        replay_threads: 1,
        ..WalOptions::default()
    }
}

/// The schema, base instance and views of `spec`, in memory.
fn build_db(spec: &Spec, pairs: &[(u64, u64)]) -> Database {
    let mut names = vec!["E".to_string(), "D".to_string()];
    names.extend((0..spec.width).map(|i| format!("M{i}")));
    let schema = Schema::new(names).expect("distinct attribute names");
    let attr = |n: &str| schema.attr(n).expect("attribute in schema");
    let set = |ns: &[&str]| -> AttrSet { ns.iter().map(|n| attr(n)).collect() };
    let (e, d) = (attr("E"), attr("D"));
    let mut fds = relvu::deps::FdSet::new([relvu::deps::Fd::new([e], [d])]);
    for i in 0..spec.width {
        fds.push(relvu::deps::Fd::new([d], [attr(&format!("M{i}"))]));
    }
    let mut base = Relation::new(schema.universe());
    for &(emp, dept) in pairs {
        let mut row = vec![Value::int(emp), Value::int(dept)];
        row.extend((0..spec.width).map(|i| Value::int(manager(dept, i))));
        base.insert(Tuple::new(row))
            .expect("row has the schema's arity");
    }
    let db = Database::new(schema.clone(), fds, base).expect("the base is legal");
    for v in spec.views {
        let x = set(v.x);
        let y = v.y.map(set);
        match v.d_below {
            None => db.create_view(v.name, x, y, Policy::Exact),
            Some(n) => db.create_selection_view(v.name, x, y, Pred::cmp(d, CmpOp::Lt, n)),
        }
        .expect("the workload's views are complementary");
    }
    db
}

struct Store {
    ddb: DurableDatabase<MemVfs>,
    vfs: MemVfs,
    subs: Vec<Subscription>,
}

/// The timed set-up: base, `Database::new`, views, `DurableDatabase::create`
/// on a fresh `MemVfs`, and the subscriptions.
fn set_up(spec: &Spec, pairs: &[(u64, u64)]) -> Store {
    let db = build_db(spec, pairs);
    let vfs = MemVfs::new();
    let ddb = DurableDatabase::create(vfs.clone(), db, wal_options()).expect("fresh store");
    let subs = spec
        .subs
        .iter()
        .map(|target| match target {
            Some(view) => ddb.subscribe(view, SubscribeOptions::snapshot()),
            None => ddb.subscribe_base(SubscribeOptions::snapshot()),
        })
        .collect::<Result<_, _>>()
        .expect("subscribe at set-up");
    Store { ddb, vfs, subs }
}

/// The paper's check for `op` on `view`, as the engine makes it: the
/// translator (or the selection view's) on the pinned snapshot's
/// materialized instance (or split). Only the translator call runs
/// inside the `core.check` span. True when the update is translatable.
fn core_check(
    snap: &EngineSnapshot,
    view: &str,
    op: &UpdateOp,
    tracer: &mut Tracer,
    op_id: u64,
) -> Result<bool, String> {
    let def = snap.view_def(view).map_err(|e| e.to_string())?;
    let (schema, fds) = (snap.schema(), snap.fds());
    let (inst, split) = snap.mat_parts(view).map_err(|e| e.to_string())?;
    let (x, y) = (def.x(), def.y());
    let verdict = if let Some(pred) = def.pred() {
        let sel = SelectionView::new(x, y, pred.clone()).map_err(|e| e.to_string())?;
        let (w, w_bar) = split.ok_or("selection view without a split")?;
        let v = tracer.time("core.check", Some("op"), op_id, || match op {
            UpdateOp::Insert { t } => sel.translate_insert(&schema, &fds, &w, &w_bar, t),
            UpdateOp::Delete { t } => sel.translate_delete(&schema, &fds, &w, &w_bar, t),
            UpdateOp::Replace { t1, t2 } => {
                sel.translate_replace(&schema, &fds, &w, &w_bar, t1, t2)
            }
        });
        matches!(v, Ok(Ok(Translatability::Translatable(_))))
    } else {
        let v = tracer.time("core.check", Some("op"), op_id, || match op {
            UpdateOp::Insert { t } => translate_insert(&schema, &fds, x, y, &inst, t),
            UpdateOp::Delete { t } => translate_delete(&schema, &fds, x, y, &inst, t),
            UpdateOp::Replace { t1, t2 } => translate_replace(&schema, &fds, x, y, &inst, t1, t2),
        });
        matches!(v, Ok(Translatability::Translatable(_)))
    };
    Ok(verdict)
}

fn is_rejection(e: &DurabilityError) -> bool {
    matches!(e, DurabilityError::Engine(EngineError::Rejected { .. }))
}

/// Shared, read-only state of the measured interval.
struct Ctx<'a> {
    spec: &'a Spec,
    ddb: &'a DurableDatabase<MemVfs>,
    vfs: &'a MemVfs,
    traced: bool,
    /// The CPUs the threads are pinned to.
    cpus: Vec<usize>,
    origin: Instant,
    deadline: Instant,
}

/// Pin the calling thread: writer `w` to the `w`-th allowed CPU (mod
/// their number), the consumer and the checkpointer (`None`) to the last.
fn place(ctx: &Ctx<'_>, writer: Option<usize>) {
    let n = ctx.cpus.len();
    if n > 1 {
        let cpu = ctx.cpus[writer.map_or(n - 1, |w| w % n)];
        if !cpu::pin(cpu) {
            eprintln!("e2ebench: could not pin a thread to CPU {cpu}");
        }
    }
}

fn writer(ctx: &Ctx<'_>, w: usize, mut gen: Gen) -> (Partial, Gen) {
    place(ctx, Some(w));
    let mut out = Partial::new(ctx);
    let period = ctx.spec.rate.map(|r| Duration::from_secs_f64(1.0 / r));
    if w == 0 && !ctx.spec.ckpt_in_background {
        out.ckpt = Some(Checkpointer::new(ctx));
    }
    let mut free_at = Instant::now();
    let mut next_ref = free_at;
    let mut last_seq = 0u64;
    let mut i = 0u64;
    loop {
        // Open loop: op i is due at its slot. Closed loop: as soon as
        // the writer is free again.
        let due = match period {
            Some(p) => ctx.origin + p.mul_f64(i as f64),
            None => free_at,
        };
        if due >= ctx.deadline {
            break;
        }
        // Writer 0 times the reference job every `calib::EVERY`; an
        // open-loop writer only in slack that leaves room for it.
        let now = Instant::now();
        let slack = due.saturating_duration_since(now);
        if w == 0 && now >= next_ref && (period.is_none() || slack > 2 * calib::EVERY / 10) {
            out.ref_us.push(us(calib::reference_job()));
            next_ref = now + calib::EVERY;
            if period.is_none() {
                free_at = Instant::now();
                continue;
            }
        }
        // Spin until the op is due: a sleeping virtual CPU wakes late by
        // a varying amount, which an open loop would charge to the op.
        while Instant::now() < due {
            std::hint::spin_loop();
        }
        let p = gen.next_op();
        let op_id = ((w as u64) << 48) | i;
        let t0 = Instant::now();
        out.late_ms.push(ms_between(due, t0));
        let res = ctx.ddb.apply(p.view, p.op.clone());
        let t1 = Instant::now();
        out.tracer
            .record("durability.apply", Some("op"), op_id, t0, t1);
        out.apply_us.push(us(t1 - t0));
        out.attempted += 1;
        // Open loop: latency from the op's due time. Closed loop: from
        // the call.
        let from = if period.is_some() { due } else { t0 };
        let accepted = match res {
            Ok(report) if p.kind != Kind::Reject => {
                out.acked += 1;
                out.accepted += 1;
                out.lat_ms[p.kind.index()].push(ms_between(from, t1));
                out.commits.push((report.seq, from, p.view, p.op.clone()));
                last_seq = report.seq;
                Some(true)
            }
            Err(e) if is_rejection(&e) && p.kind == Kind::Reject => {
                out.acked += 1;
                out.lat_ms[p.kind.index()].push(ms_between(from, t1));
                Some(false)
            }
            Ok(_) => {
                out.notes.push(format!(
                    "{}: planned rejection accepted: {:?}",
                    p.view, p.op
                ));
                None
            }
            Err(e) => {
                out.notes.push(format!("{}: {:?}: {e}", p.view, p.op));
                None
            }
        };
        if let (Some(accepted), true) = (accepted, ctx.traced) {
            out.trail.push(Trail {
                key: (last_seq, u8::from(!accepted)),
                op_id,
                view: p.view,
                op: p.op,
                accepted,
            });
        }
        i += 1;
        if let Some(ckpt) = out.ckpt.as_mut() {
            let seq = ctx.ddb.reader().last_seq();
            ckpt.maybe_run(ctx, seq, &mut out.tracer, &mut out.notes);
        }
        if let Some(think) = gen.think() {
            thread::sleep(think);
        }
        free_at = Instant::now();
    }
    (out, gen)
}

/// Hash every value of a relation, so a read touches each row.
fn checksum(rel: &Relation) -> u64 {
    let mut h = 0u64;
    for t in rel.iter() {
        for v in t.values() {
            if let Value::Const(c) = v {
                h = h.rotate_left(5) ^ c;
            }
        }
    }
    h
}

/// Drain every subscription; after each round that brought a change to
/// the base, pin a snapshot and read the read view.
fn consumer(ctx: &Ctx<'_>, subs: &[Subscription], stop: &AtomicBool) -> Partial {
    place(ctx, None);
    let mut out = Partial::new(ctx);
    let reader = ctx.ddb.reader();
    let view = ctx.spec.read_view;
    let x = reader.view_def(view).expect("read view registered").x();
    let mut live = vec![true; subs.len()];
    let mut last_read_seq = 0u64;
    let mut reads = 0u64;
    let base = subs.len() - 1;
    loop {
        let stopping = stop.load(Ordering::SeqCst);
        // Poll the base subscription registered last: every commit
        // reaches it, after every other subscription. The consumer
        // polls rather than blocks: waking an idle virtual CPU takes the
        // hypervisor anywhere from microseconds to milliseconds, which
        // would swamp the delivery time.
        let mut first = if live[base] && !stopping {
            subs[base].try_recv()
        } else {
            None
        };
        if first.is_none() && !stopping {
            // Pause between polls, sparing the sibling hardware thread
            // and the subscription lock the writer's fan-out takes.
            for _ in 0..256 {
                std::hint::spin_loop();
            }
            thread::yield_now();
            continue;
        }
        let mut changed = false;
        for (i, sub) in subs.iter().enumerate() {
            if !live[i] {
                continue;
            }
            out.queue_depth_max = out.queue_depth_max.max(sub.queue_depth());
            loop {
                let ev = if i == base { first.take() } else { None };
                let Some(ev) = ev.or_else(|| sub.try_recv()) else {
                    break;
                };
                match ev {
                    SubEvent::Delta(d) => {
                        out.events += 1;
                        changed |= i == base;
                        out.received.push((i, d, Instant::now()));
                    }
                    SubEvent::Lagged { missed_from_seq } => {
                        out.lagged += 1;
                        live[i] = false;
                        out.notes.push(format!(
                            "subscription {i} lagged from seq {missed_from_seq}"
                        ));
                        break;
                    }
                    SubEvent::Dropped => {
                        live[i] = false;
                        out.notes.push(format!("subscription {i} dropped"));
                        break;
                    }
                }
            }
        }
        if stopping {
            break;
        }
        if !changed {
            continue;
        }
        reads += 1;
        let id = READ_OP_BASE | reads;
        let t0 = Instant::now();
        let snap = reader.snapshot();
        let t1 = Instant::now();
        let inst = snap.view_instance(view).expect("read view registered");
        black_box(checksum(&inst));
        let t2 = Instant::now();
        out.tracer.record("mvcc.pin", Some("read"), id, t0, t1);
        out.tracer.record("mvcc.read", Some("read"), id, t1, t2);
        out.tracer.record("read", None, id, t0, t2);
        if snap.seq() < last_read_seq {
            out.notes.push(format!(
                "snapshot seq went back: {} < {last_read_seq}",
                snap.seq()
            ));
        }
        last_read_seq = snap.seq();
        if reads.is_multiple_of(READ_CHECK_EVERY) {
            let fresh = ops::project(&snap.base(), x).expect("view within the schema");
            if !fresh.set_eq(&inst) {
                out.notes.push(format!(
                    "read at seq {} disagrees with its base",
                    snap.seq()
                ));
            }
        }
    }
    out
}

/// A checkpointer thread of its own: polls the acknowledged seq and
/// checkpoints every `ckpt_every` commits.
fn checkpointer(ctx: &Ctx<'_>, stop: &AtomicBool) -> Partial {
    place(ctx, None);
    let mut out = Partial::new(ctx);
    let mut ckpt = Checkpointer::new(ctx);
    while !stop.load(Ordering::SeqCst) {
        thread::sleep(POLL);
        let seq = ctx.ddb.reader().last_seq();
        ckpt.maybe_run(ctx, seq, &mut out.tracer, &mut out.notes);
    }
    out.ckpt = Some(ckpt);
    out
}

/// Fold each subscription's deltas into its origin instance and compare
/// with the final instance, rows in order.
fn check_folds(
    ddb: &DurableDatabase<MemVfs>,
    spec: &Spec,
    subs: &[Subscription],
    received: &[(usize, Arc<ViewDelta>, Instant)],
    out: &mut RunOut,
) {
    let snap = ddb.reader().snapshot();
    for (i, sub) in subs.iter().enumerate() {
        let mut rel = sub
            .origin_rows()
            .map(|r| (**r).clone())
            .expect("snapshot subscriptions carry their origin");
        let mut last = sub.origin_seq();
        for (_, d, _) in received.iter().filter(|(j, _, _)| *j == i) {
            if d.seq <= last {
                out.fail(format!("subscription {i}: seq {} after {last}", d.seq));
            }
            last = d.seq;
            d.fold_into(&mut rel);
        }
        let fin = match spec.subs[i] {
            Some(view) => snap.view_instance(view).expect("subscribed view"),
            None => snap.base(),
        };
        if rel.rows() != fin.rows() {
            out.fail(format!(
                "subscription {i} ({:?}): folded stream differs from the final instance",
                spec.subs[i]
            ));
        }
    }
}

/// A writer's accepted ops, `(seq, due, view, op)`, in ack order.
type Commits = Vec<(u64, Instant, &'static str, UpdateOp)>;

/// Each writer's accepted ops appear in the WAL scan, in ack order.
fn check_wal(vfs: &MemVfs, commits: &[&Commits], out: &mut RunOut) {
    let scanned = match scan(&vfs.crash_image()) {
        Ok(s) => s,
        Err(e) => return out.fail(format!("WAL scan: {e}")),
    };
    let first = scanned.records.first().map_or(u64::MAX, |r| r.entry.seq);
    let by_seq: HashMap<u64, _> = scanned
        .records
        .iter()
        .map(|r| (r.entry.seq, &r.entry))
        .collect();
    for (w, acks) in commits.iter().enumerate() {
        let mut prev = 0u64;
        for (seq, _, view, op) in acks.iter() {
            if *seq <= prev {
                out.fail(format!("writer {w}: ack order broken at seq {seq}"));
            }
            prev = *seq;
            if *seq < first {
                continue;
            }
            match by_seq.get(seq) {
                Some(e) if e.view == *view && e.op == *op => {}
                _ => out.fail(format!("writer {w}: seq {seq} missing from the WAL")),
            }
        }
    }
}

/// Replay the acknowledged sequence on a fresh twin, timing the core
/// check and the engine update of each op, for at most `budget`.
fn replay_on_twin(
    spec: &Spec,
    pairs: &[(u64, u64)],
    mut trail: Vec<Trail>,
    budget: Duration,
    tracer: &mut Tracer,
    out: &mut RunOut,
) {
    let twin = build_db(spec, pairs);
    trail.sort_by_key(|t| t.key);
    let stop_at = Instant::now() + budget;
    for t in trail {
        if Instant::now() >= stop_at {
            break;
        }
        let snap = twin.snapshot();
        let core = core_check(&snap, t.view, &t.op, tracer, t.op_id);
        drop(snap);
        let engine = tracer.time("engine.apply", Some("op"), t.op_id, || {
            twin.apply_op(t.view, t.op.clone())
        });
        out.probes += 1;
        match core {
            Ok(core) => {
                out.probe_accepts += u64::from(core);
                if core != t.accepted || engine.is_ok() != t.accepted {
                    out.fail(format!(
                        "verdicts differ on {:?}: core {core}, twin {}, durable {}",
                        t.op,
                        engine.is_ok(),
                        t.accepted
                    ));
                }
            }
            Err(e) => out.fail(format!("core check on {:?}: {e}", t.op)),
        }
    }
}

/// Apply `n` more ops from `gen`, outside the measurement.
fn tail(ddb: &DurableDatabase<MemVfs>, gen: &mut Gen, n: usize, out: &mut RunOut) {
    for _ in 0..n {
        let p = gen.next_op();
        let res = ddb.apply(p.view, p.op.clone());
        let ok = match &res {
            Ok(_) => p.kind != Kind::Reject,
            Err(e) => is_rejection(e) && p.kind == Kind::Reject,
        };
        if !ok {
            out.fail(format!("restart-image op {:?}: {:?}", p.op, res.err()));
        }
    }
}

/// Write the restart image and recover it repeatedly.
fn restart(store: &Store, gen: &mut Gen, tracer: &mut Tracer, out: &mut RunOut) {
    let ddb = &store.ddb;
    gen.reseed(RESTART_SEED);
    // Two full checkpoints: the store keeps two chains, so the second
    // prunes every chain and WAL segment of the measured interval, and
    // recovery scans the same log in every run.
    for _ in 0..2 {
        if let Err(e) = ddb.checkpoint() {
            return out.fail(format!("full checkpoint: {e}"));
        }
        tail(ddb, gen, TAIL_OPS, out);
    }
    if let Err(e) = ddb.checkpoint_incremental() {
        return out.fail(format!("incremental checkpoint: {e}"));
    }
    tail(ddb, gen, TAIL_OPS, out);
    let live = ddb.reader().dump();
    let start = Instant::now();
    let mut r = 0;
    while again(RESTARTS, r, start) {
        r += 1;
        let id = RESTART_OP_BASE | r as u64;
        for _ in 0..3 {
            out.restart_ref_us.push(us(calib::reference_job()));
        }
        let image = store.vfs.crash_image();
        let t0 = Instant::now();
        let recovered = DurableDatabase::recover(image, wal_options());
        let t1 = Instant::now();
        out.restart_ms.push(ms(t1 - t0));
        tracer.record("recover", Some("restart"), id, t0, t1);
        let (rdb, report) = match recovered {
            Ok(x) => x,
            Err(e) => return out.fail(format!("recover: {e}")),
        };
        out.records_replayed = report.records_replayed;
        if rdb.reader().dump() != live {
            out.fail("recovered dump differs from the live dump".to_string());
        }
        let t2 = Instant::now();
        let inv = rdb.check_invariants();
        tracer.record(
            "recover.invariants",
            Some("restart"),
            id,
            t2,
            Instant::now(),
        );
        if let Err(e) = inv {
            out.fail(format!("recovered invariants: {e}"));
        }
        drop(rdb);
        if tracer.on() {
            let image = store.vfs.crash_image();
            let t3 = Instant::now();
            let loaded = load_checkpoint(&image, &report.checkpoint_chain[0]);
            tracer.record("recover.load", Some("restart"), id, t3, Instant::now());
            let t4 = Instant::now();
            let scanned = scan(&image);
            tracer.record("recover.scan", Some("restart"), id, t4, Instant::now());
            if loaded.is_err() || scanned.is_err() {
                out.fail("checkpoint load or WAL scan of the image failed".to_string());
            }
        }
    }
}

/// Run `spec` for `seconds`, traced or not.
pub fn run(spec: &Spec, seed: u64, seconds: f64, traced: bool) -> RunOut {
    let mut out = RunOut::default();
    // The main thread (set-up, restarts, the twin replay) runs on the
    // first CPU, where writer 0 measures the CPU-speed factor.
    let cpus = cpu::allowed();
    if let Some(&first) = cpus.first() {
        cpu::pin(first);
    }
    let pairs = base_pairs(spec);
    let mut store = None;
    let start = Instant::now();
    while again(SETUPS, out.setup_s.len(), start) {
        drop(store.take());
        out.setup_ref_us.push(us(calib::reference_job()));
        let t = Instant::now();
        store = Some(set_up(spec, &pairs));
        out.setup_s.push(t.elapsed().as_secs_f64());
    }
    let store = store.expect("set up at least once");
    if !spec.sync_delay.is_zero() {
        store.vfs.set_sync_delay(spec.sync_delay);
    }
    let gens: Vec<Gen> = (0..spec.writers)
        .map(|w| Gen::new(spec, &pairs, w, seed))
        .collect();

    let reg_before = obs::snapshot();
    let origin = Instant::now();
    let ctx = Ctx {
        spec,
        ddb: &store.ddb,
        vfs: &store.vfs,
        traced,
        cpus,
        origin,
        deadline: origin + Duration::from_secs_f64(seconds),
    };
    let stop = AtomicBool::new(false);
    let (writers, cons, ckpt) = thread::scope(|s| {
        let cons = s.spawn(|| consumer(&ctx, &store.subs, &stop));
        let ckpt = spec
            .ckpt_in_background
            .then(|| s.spawn(|| checkpointer(&ctx, &stop)));
        let handles: Vec<_> = gens
            .into_iter()
            .enumerate()
            .map(|(w, g)| {
                let ctx = &ctx;
                s.spawn(move || writer(ctx, w, g))
            })
            .collect();
        let writers: Vec<(Partial, Gen)> = handles
            .into_iter()
            .map(|h| h.join().expect("writer thread panicked"))
            .collect();
        stop.store(true, Ordering::SeqCst);
        let ckpt = ckpt.map(|h| h.join().expect("checkpointer thread panicked"));
        (
            writers,
            cons.join().expect("consumer thread panicked"),
            ckpt,
        )
    });
    out.wall_s = origin.elapsed().as_secs_f64();
    let reg_after = obs::snapshot();
    out.wal_bytes =
        reg_after.counter("durability.wal.bytes") - reg_before.counter("durability.wal.bytes");
    out.reg = (reg_before, reg_after);

    // CDC latency runs from the commit's due time to the receipt.
    let due: HashMap<u64, Instant> = writers
        .iter()
        .flat_map(|(p, _)| p.commits.iter().map(|c| (c.0, c.1)))
        .collect();
    for (_, d, at) in &cons.received {
        match due.get(&d.seq) {
            Some(&t) => out.cdc_ms.push(ms_between(t, *at)),
            None => out.fail(format!("delta for seq {} matches no commit", d.seq)),
        }
    }
    check_folds(&store.ddb, spec, &store.subs, &cons.received, &mut out);
    let commits: Vec<&Commits> = writers.iter().map(|(p, _)| &p.commits).collect();
    check_wal(&store.vfs, &commits, &mut out);

    let mut gens = Vec::new();
    let mut trail = Vec::new();
    for (mut p, g) in writers {
        trail.append(&mut p.trail);
        out.absorb(p);
        gens.push(g);
    }
    out.absorb(cons);
    if let Some(c) = ckpt {
        out.absorb(c);
    }
    let mut tracer = Tracer::new(origin, traced);
    if traced {
        let budget = Duration::from_secs_f64(seconds);
        replay_on_twin(spec, &pairs, trail, budget, &mut tracer, &mut out);
    }
    restart(&store, &mut gens[0], &mut tracer, &mut out);
    out.spans.extend(tracer.spans);
    out
}
