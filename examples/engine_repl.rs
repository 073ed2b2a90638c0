//! A tiny interactive shell over the view-update engine — now with the
//! durability layer underneath: every accepted update is written to a
//! WAL (in-memory [`MemVfs`], so the demo needs no files on disk).
//!
//! ```sh
//! cargo run --example engine_repl
//! ```
//!
//! Commands (also runnable non-interactively: `echo "show" | cargo run
//! --example engine_repl`):
//!
//! ```text
//! show [view]          print a view (default `staff`)
//! base                 print the base relation
//! views                list registered views with their parent edges
//! derive <name> <A>…   register π_{A…} over `staff` (a view over a view)
//! insert <emp> <dept>  hire through the view
//! delete <emp> <dept>  remove through the view
//! move <emp> <d1> <d2> replace (emp,d1) by (emp,d2)
//! log                  show the audit log
//! \subscribe [view]    stream `view`'s deltas (default `staff`; `base`
//!                      for the base relation) — events print after
//!                      each subsequent command
//! \subs                list live subscriptions and their queue depths
//! \snapshot            pin an epoch and print its consistent row counts
//! \wal                 WAL status: next seq, segments, bytes
//! \checkpoint          write a full checkpoint (prunes covered WAL)
//! \ckpt-delta          write an incremental (delta) checkpoint
//! \bg on|off           start/stop the background checkpointer
//! \crash               simulate a crash + recovery from durable storage
//! \metrics             dump engine metrics (Prometheus text format)
//! quit
//! ```

use std::io::{self, BufRead, Write};

use relvu::durability::{
    BgCheckpoint, DurabilityError, DurableDatabase, MemVfs, RecoveryReport, Vfs, WalOptions,
};
use relvu::engine::{
    Database, DeltaRow, EngineError, Policy, SubEvent, SubscribeOptions, Subscription,
};
use relvu::relation::{AttrSet, RelationDisplay, Tuple};
use relvu::workload::fixtures;

fn fresh_engine(f: &fixtures::EdmFixture) -> Database {
    let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).expect("legal base");
    db.create_view("staff", f.x, Some(f.y), Policy::Exact)
        .expect("complementary");
    db
}

fn main() {
    let f = fixtures::edm();
    let mut vfs = MemVfs::new();
    // Small segments so `\wal` shows rotation after a handful of updates.
    let opts = WalOptions {
        segment_bytes: 1024,
        ..WalOptions::default()
    };
    let mut ddb =
        DurableDatabase::create(vfs.clone(), fresh_engine(&f), opts).expect("fresh store");

    println!("relvu engine shell — view `staff` over Emp/Dept, complement Dept/Mgr");
    println!("durability: WAL + checkpoints on an in-memory store");
    println!(
        "commands: show [view] | base | views | derive NAME ATTR.. | insert E D \
         | delete E D | move E D1 D2 | log | \\subscribe [view] | \\subs \
         | \\snapshot | \\wal | \\checkpoint | \\ckpt-delta | \\bg on|off \
         | \\crash | \\metrics | quit"
    );
    let mut subs: Vec<Subscription> = Vec::new();

    let stdin = io::stdin();
    let mut out = io::stdout();
    print!("> ");
    out.flush().ok();
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let words: Vec<&str> = line.split_whitespace().collect();
        // Every read a command makes comes off this one pinned epoch, so
        // its lines are mutually consistent whatever commits meanwhile.
        let snap = ddb.reader().snapshot();
        match words.as_slice() {
            [] => {}
            ["quit"] | ["exit"] => break,
            ["show"] | ["show", _] => {
                let name = words.get(1).copied().unwrap_or("staff");
                match snap.view_instance(name) {
                    Ok(v) => print!("{}", RelationDisplay::new(&v, &f.schema, Some(&f.dict))),
                    Err(e) => println!("error: {e}"),
                }
            }
            ["base"] => {
                let b = snap.base();
                print!("{}", RelationDisplay::new(&b, &f.schema, Some(&f.dict)));
            }
            ["views"] => {
                for name in snap.view_names() {
                    match snap.view_parent(&name).expect("registered") {
                        Some(parent) => println!("  {name}  (over {parent})"),
                        None => println!("  {name}  (over the base)"),
                    }
                }
            }
            ["derive", name, attrs @ ..] if !attrs.is_empty() => {
                let mut x = AttrSet::new();
                let mut bad = None;
                for a in attrs {
                    match f.schema.attr(a) {
                        Some(attr) => {
                            x.insert(attr);
                        }
                        None => bad = Some(*a),
                    }
                }
                if let Some(a) = bad {
                    println!("unknown attribute: {a}");
                } else {
                    match ddb.create_view_over(name, "staff", x, None, Policy::Exact) {
                        Ok(()) => println!("ok (durable): `{name}` derived over `staff`"),
                        Err(e) => println!("error: {e}"),
                    }
                }
            }
            ["insert", e, d] => {
                report(ddb.apply(
                    "staff",
                    relvu::engine::UpdateOp::Insert {
                        t: Tuple::new([f.dict.sym(e), f.dict.sym(d)]),
                    },
                ));
            }
            ["delete", e, d] => {
                report(ddb.apply(
                    "staff",
                    relvu::engine::UpdateOp::Delete {
                        t: Tuple::new([f.dict.sym(e), f.dict.sym(d)]),
                    },
                ));
            }
            ["move", e, d1, d2] => {
                report(ddb.apply(
                    "staff",
                    relvu::engine::UpdateOp::Replace {
                        t1: Tuple::new([f.dict.sym(e), f.dict.sym(d1)]),
                        t2: Tuple::new([f.dict.sym(e), f.dict.sym(d2)]),
                    },
                ));
            }
            ["log"] => {
                for entry in snap.log() {
                    println!(
                        "  #{} {:?} ({} → {} rows)",
                        entry.seq, entry.op, entry.rows_before, entry.rows_after
                    );
                }
            }
            ["\\wal"] | ["wal"] => {
                let st = ddb.wal_status();
                println!(
                    "  next seq {}, {} records appended this session, sync {:?}{}",
                    st.next_seq,
                    st.records_appended,
                    st.sync,
                    if st.poisoned { " [POISONED]" } else { "" }
                );
                match vfs.list() {
                    Ok(names) => {
                        for name in names {
                            let len = vfs.file_len(&name).unwrap_or(0);
                            println!("  {name}  {len} bytes");
                        }
                    }
                    Err(e) => println!("  storage error: {e}"),
                }
            }
            ["\\checkpoint"] | ["checkpoint"] => match ddb.checkpoint() {
                Ok(seq) => println!("full checkpoint at seq {seq}"),
                Err(e) => println!("checkpoint failed: {e}"),
            },
            ["\\ckpt-delta"] | ["ckpt-delta"] => match ddb.checkpoint_incremental() {
                Ok(seq) => {
                    let (tip, deltas) = ddb.checkpoint_chain();
                    println!(
                        "incremental checkpoint at seq {seq} (chain tip {tip}, {deltas} delta(s))"
                    );
                }
                Err(e) => println!("incremental checkpoint failed: {e}"),
            },
            ["\\bg", "on"] | ["bg", "on"] => {
                ddb.start_background_checkpointer(BgCheckpoint {
                    wal_bytes: 2048,
                    age_ms: 5_000,
                    poll_ms: 100,
                });
                println!("background checkpointer started (2 KiB WAL growth or 5 s age)");
            }
            ["\\bg", "off"] | ["bg", "off"] => {
                ddb.stop_background_checkpointer();
                println!("background checkpointer stopped");
            }
            ["\\crash"] | ["crash"] => {
                // What would a restarted process see? Exactly the fsynced
                // prefix of the store.
                let image = vfs.crash_image();
                match DurableDatabase::recover(image.clone(), opts) {
                    Ok((recovered, report)) => {
                        let lost = snap.seq() - report.last_seq;
                        print_recovery(&report);
                        if lost > 0 {
                            println!("  {lost} unsynced update(s) would be lost");
                        }
                        // The "restarted process" now lives on the image.
                        // Subscriptions are in-process state: they die
                        // with the old engine and must be re-created.
                        if !subs.is_empty() {
                            println!(
                                "  {} subscription(s) did not survive the restart — \\subscribe again",
                                subs.len()
                            );
                            subs.clear();
                        }
                        ddb = recovered;
                        vfs = image;
                    }
                    Err(e) => println!("recovery failed: {e}"),
                }
            }
            ["\\subscribe"] | ["subscribe"] | ["\\subscribe", _] | ["subscribe", _] => {
                let name = words.get(1).copied().unwrap_or("staff");
                let result = if name == "base" {
                    ddb.subscribe_base(SubscribeOptions::snapshot())
                } else {
                    ddb.subscribe(name, SubscribeOptions::snapshot())
                };
                match result {
                    Ok(sub) => {
                        println!(
                            "subscribed to `{name}` from seq {} ({} origin rows)",
                            sub.origin_seq(),
                            sub.origin_rows().map_or(0, |r| r.len()),
                        );
                        subs.push(sub);
                    }
                    Err(e) => println!("error: {e}"),
                }
            }
            ["\\subs"] | ["subs"] => {
                if subs.is_empty() {
                    println!("  no live subscriptions");
                }
                for sub in &subs {
                    println!(
                        "  `{}`  from seq {}, {} event(s) queued",
                        sub.target().unwrap_or("base"),
                        sub.origin_seq(),
                        sub.queue_depth(),
                    );
                }
            }
            ["\\snapshot"] | ["snapshot"] => {
                println!(
                    "  epoch {}, seq {}, base {} rows",
                    snap.epoch(),
                    snap.seq(),
                    snap.base().len()
                );
                for name in snap.view_names() {
                    let rows = snap.view_instance(&name).expect("listed view").len();
                    println!("  {name}  {rows} rows");
                }
            }
            ["\\metrics"] | ["metrics"] => {
                print!("{}", ddb.reader().metrics().render_prometheus());
            }
            other => println!("unknown command: {other:?}"),
        }
        drain_subscriptions(&mut subs, &f);
        print!("> ");
        out.flush().ok();
    }
    println!("bye");
}

/// Print every pending subscription event, and drop subscriptions whose
/// stream ended (`Dropped` after a `drop`ped view, or terminal lag).
fn drain_subscriptions(subs: &mut Vec<Subscription>, f: &fixtures::EdmFixture) {
    subs.retain(|sub| {
        let name = sub.target().unwrap_or("base").to_string();
        loop {
            match sub.try_recv() {
                Some(SubEvent::Delta(d)) => {
                    let show = |t: DeltaRow<'_>| {
                        let vals: Vec<String> = t.values().map(|v| f.dict.show(v)).collect();
                        format!("({})", vals.join(", "))
                    };
                    let mut parts = Vec::new();
                    parts.extend(d.deletes().map(|t| format!("-{}", show(t))));
                    parts.extend(d.inserts().map(|t| format!("+{}", show(t))));
                    println!("[sub {name}] #{} {}", d.seq, parts.join(" "));
                }
                Some(SubEvent::Lagged { missed_from_seq }) => {
                    println!(
                        "[sub {name}] LAGGED: events from seq {missed_from_seq} were missed — \
                         resubscribe to catch up"
                    );
                    break false;
                }
                Some(SubEvent::Dropped) => {
                    println!("[sub {name}] view dropped; stream ended");
                    break false;
                }
                None => break true,
            }
        }
    });
}

/// Print a [`RecoveryReport`] the way a production restart log would:
/// restore point, chain, replay volume/parallelism, and wall times.
fn print_recovery(report: &RecoveryReport) {
    println!(
        "recovered from `{}` (seq {}) + {} WAL records → seq {}",
        report.checkpoint, report.checkpoint_seq, report.records_replayed, report.last_seq
    );
    if report.checkpoint_chain.len() > 1 {
        println!(
            "  checkpoint chain: {} file(s): {}",
            report.checkpoint_chain.len(),
            report.checkpoint_chain.join(" → ")
        );
    }
    println!(
        "  replay: {} record(s) in {} group(s) on {} thread(s), {:.1} ms ({:.1} ms total recovery)",
        report.records_replayed,
        report.replay_groups,
        report.replay_threads,
        report.replay_wall.as_secs_f64() * 1e3,
        report.wall.as_secs_f64() * 1e3,
    );
    for (name, why) in &report.skipped_checkpoints {
        println!("  skipped `{name}`: {why}");
    }
    if report.possibly_lost_acknowledged_record() {
        println!("  WARNING: truncated tail may have been acknowledged");
    }
    if let Some(t) = &report.torn_truncated {
        println!("  truncated torn tail in `{}` at {}", t.segment, t.offset);
    }
}

fn report(result: Result<relvu::engine::UpdateReport, DurabilityError>) {
    match result {
        Ok(r) => println!(
            "ok (durable): base {} → {} rows",
            r.rows_before, r.rows_after
        ),
        Err(DurabilityError::Engine(EngineError::Rejected { trace, .. })) => {
            println!("rejected (untranslatable): {trace}");
        }
        Err(e) => println!("error: {e}"),
    }
}
