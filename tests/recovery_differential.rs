//! Recovery equivalence differential: whatever the restart strategy —
//! sequential or parallel replay, full-checkpoint-only or chained
//! incremental checkpoints — recovery must reconstruct the *same*
//! database, byte for byte.
//!
//! A randomized workload (regenerated each round against the live view
//! so the accept rate stays high as the instance drifts) is committed
//! into two stores: one that never checkpoints after creation (the
//! whole tail replays) and one that chains incremental checkpoints
//! mid-run (most of the tail is folded into deltas). Each store is then
//! recovered with 1, 2, and `ncpus` replay threads. All six recovered
//! dumps must equal the live dump exactly — parallel replay commits in
//! sequence order precisely so that base-row order (and hence the dump)
//! is byte-identical to the sequential fold.
//!
//! `RELVU_RECOVERY_TAIL` scales the accepted-update target (default
//! 400) so nightly CI can sweep much longer tails.

use relvu::durability::{DurableDatabase, MemVfs, SyncPolicy, Vfs, WalOptions};
use relvu::prelude::*;
use relvu_workload::instance_gen;
use relvu_workload::schema_gen::{self, BenchSchema};
use relvu_workload::update_gen::{self, BatchMix, ViewUpdate};

use rand::prelude::*;

const SEED: u64 = 0xD1FF_1983;

fn tail_target() -> usize {
    std::env::var("RELVU_RECOVERY_TAIL")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(400)
}

/// Generate a deterministic script with at least `target` accepted
/// updates by replaying candidates against a scratch engine and
/// regenerating each round from the drifted view instance.
fn build_script(target: usize) -> (BenchSchema, Relation, Vec<UpdateOp>) {
    let mut rng = StdRng::seed_from_u64(SEED);
    let bench = schema_gen::edm_family(2);
    let base = instance_gen::edm_instance(&mut rng, &bench.schema, 60, 8);
    let db = Database::new(bench.schema.clone(), bench.fds.clone(), base.clone()).unwrap();
    db.create_view("staff", bench.x, Some(bench.y), Policy::Exact)
        .unwrap();
    let shared = bench.x & bench.y;
    let mix = BatchMix {
        insert: 8,
        delete: 2,
        replace: 2,
        reject: 1,
    };
    let mut script = Vec::new();
    let mut accepted = 0usize;
    while accepted < target {
        let v = db.reader().snapshot().view_instance("staff").unwrap();
        let batch = update_gen::update_batch(&mut rng, bench.x, shared, &v, 64, mix, 1 << 40);
        for u in batch {
            let op = match u {
                ViewUpdate::Insert(t) => UpdateOp::Insert { t },
                ViewUpdate::Delete(t) => UpdateOp::Delete { t },
                ViewUpdate::Replace(t1, t2) => UpdateOp::Replace { t1, t2 },
            };
            if db.apply_op("staff", op.clone()).is_ok() {
                accepted += 1;
            }
            script.push(op);
            if accepted >= target {
                break;
            }
        }
    }
    (bench, base, script)
}

fn fresh_db(bench: &BenchSchema, base: &Relation) -> Database {
    let db = Database::new(bench.schema.clone(), bench.fds.clone(), base.clone()).unwrap();
    db.create_view("staff", bench.x, Some(bench.y), Policy::Exact)
        .unwrap();
    db
}

/// Commit the script into a fresh store. `incr_every = Some(n)` chains
/// an incremental checkpoint every `n` accepted updates; `None` leaves
/// the creation-time full checkpoint as the only one, so recovery
/// replays the entire tail.
fn committed_store(
    bench: &BenchSchema,
    base: &Relation,
    script: &[UpdateOp],
    opts: WalOptions,
    incr_every: Option<usize>,
) -> (MemVfs, String, u64, usize) {
    let vfs = MemVfs::new();
    let ddb = DurableDatabase::create(vfs.clone(), fresh_db(bench, base), opts).unwrap();
    let mut accepted = 0usize;
    for op in script {
        match ddb.apply("staff", op.clone()) {
            Ok(_) => accepted += 1,
            Err(relvu::durability::DurabilityError::Engine(_)) => continue,
            Err(e) => panic!("durable apply failed: {e}"),
        }
        if let Some(n) = incr_every {
            if accepted % n == 0 {
                ddb.checkpoint_incremental().unwrap();
            }
        }
    }
    let snap = ddb.reader().snapshot();
    (vfs, snap.dump(), snap.seq(), accepted)
}

fn opts_with(threads: usize, max_delta_chain: usize) -> WalOptions {
    WalOptions {
        sync: SyncPolicy::Always,
        segment_bytes: 16 * 1024,
        retain_checkpoints: 2,
        max_delta_chain,
        replay_threads: threads,
        replay_chunk: 64,
        ..WalOptions::default()
    }
}

#[test]
fn all_recovery_strategies_agree_byte_for_byte() {
    let target = tail_target();
    let (bench, base, script) = build_script(target);
    let ncpus = std::thread::available_parallelism().map_or(2, |n| n.get());

    // Store A: full checkpoint at creation only — the whole accepted
    // tail replays at recovery.
    let (vfs_full, dump_full, seq_full, accepted) =
        committed_store(&bench, &base, &script, opts_with(1, 0), None);
    assert!(accepted >= target);

    // Store B: incremental checkpoints chained mid-run.
    let (vfs_incr, dump_incr, seq_incr, _) =
        committed_store(&bench, &base, &script, opts_with(1, 4), Some(25));

    // Identical workload, identical engine: the two live states agree.
    assert_eq!(dump_full, dump_incr);
    assert_eq!(seq_full, seq_incr);

    let mut recovered_chain_used = false;
    for threads in [1, 2, ncpus] {
        for (label, vfs, max_chain) in [("full-only", &vfs_full, 0), ("chained", &vfs_incr, 4)] {
            let (rec, report) =
                DurableDatabase::recover(vfs.crash_image(), opts_with(threads, max_chain))
                    .unwrap_or_else(|e| panic!("{label}/{threads} threads: {e}"));
            let snap = rec.reader().snapshot();
            assert_eq!(
                snap.dump(),
                dump_full,
                "{label} with {threads} replay threads diverged"
            );
            assert_eq!(snap.seq(), seq_full);
            assert_eq!(report.last_seq, seq_full);
            assert_eq!(report.replay_threads, threads);
            rec.check_invariants().unwrap();
            match label {
                // The whole tail replays: every accepted update.
                "full-only" => {
                    assert_eq!(report.records_replayed, accepted as u64);
                    assert!(report.checkpoint_chain.len() == 1);
                }
                // Deltas folded most of the tail into the chain.
                _ => {
                    assert!(
                        report.records_replayed < accepted as u64,
                        "chained store replayed the whole tail"
                    );
                    if report.checkpoint_chain.len() > 1 {
                        recovered_chain_used = true;
                    }
                }
            }
        }
    }
    assert!(
        recovered_chain_used,
        "the chained store never recovered through a delta chain"
    );
}

/// Parallel replay must also agree on the *report*: the same records
/// replayed regardless of thread count, with grouping only affecting
/// scheduling, never outcomes.
#[test]
fn parallel_replay_reports_match_sequential() {
    let (bench, base, script) = build_script(120);
    let (vfs, dump, _, accepted) = committed_store(&bench, &base, &script, opts_with(1, 0), None);

    let (rec_seq, rep_seq) = DurableDatabase::recover(vfs.crash_image(), opts_with(1, 0)).unwrap();
    let (rec_par, rep_par) = DurableDatabase::recover(vfs.crash_image(), opts_with(4, 0)).unwrap();

    assert_eq!(rep_seq.records_replayed, accepted as u64);
    assert_eq!(rep_par.records_replayed, accepted as u64);
    // Sequential: one group per record. Parallel: footprint-disjoint
    // groups, never more than records.
    assert_eq!(rep_seq.replay_groups, accepted as u64);
    assert!(rep_par.replay_groups <= accepted as u64);
    assert!(rep_par.replay_groups > 0);
    assert_eq!(rec_seq.reader().dump(), dump);
    assert_eq!(rec_par.reader().dump(), dump);
}

/// Commit `ops` into a fresh store that takes an incremental checkpoint
/// after every `every` accepted updates, `links` times, then keeps going
/// without checkpointing: its newest restore point is a full checkpoint
/// chained to `links` deltas, and a WAL tail follows it.
fn chained_store(
    bench: &BenchSchema,
    base: &Relation,
    script: &[UpdateOp],
    links: usize,
    every: usize,
) -> (MemVfs, String) {
    let vfs = MemVfs::new();
    let ddb = DurableDatabase::create(vfs.clone(), fresh_db(bench, base), opts_with(1, 8)).unwrap();
    let (mut accepted, mut written) = (0usize, 0usize);
    for op in script {
        if ddb.apply("staff", op.clone()).is_err() {
            continue;
        }
        accepted += 1;
        if written < links && accepted % every == 0 {
            ddb.checkpoint_incremental().unwrap();
            written += 1;
        }
    }
    assert_eq!(
        written, links,
        "the script ran out before {links} checkpoints"
    );
    let dump = ddb.reader().snapshot().dump();
    (vfs, dump)
}

#[test]
fn delta_chains_of_every_length_recover_byte_for_byte() {
    let (bench, base, script) = build_script(120);
    for links in 1..=8 {
        let (vfs, live) = chained_store(&bench, &base, &script, links, 6);
        let (rec, report) = DurableDatabase::recover(vfs.crash_image(), opts_with(1, 8))
            .unwrap_or_else(|e| panic!("{links} links: {e}"));
        assert_eq!(
            report.checkpoint_chain.len(),
            links + 1,
            "{links} links: recovered through {:?}",
            report.checkpoint_chain
        );
        assert!(report.skipped_checkpoints.is_empty(), "{links} links");
        assert_eq!(
            rec.reader().snapshot().dump(),
            live,
            "{links} links diverged"
        );
        rec.check_invariants().unwrap();
    }
}

/// FNV-1a 64, the checkpoint body checksum.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Replace checkpoint `name` in `vfs` by `edit` applied to its body,
/// with the header's `crc` — and, given `parentcrc`, its parent pin —
/// set to match. Returns the new body's crc.
fn rewrite_checkpoint(
    vfs: &MemVfs,
    name: &str,
    parentcrc: Option<u64>,
    edit: impl FnOnce(&str) -> String,
) -> u64 {
    let text = String::from_utf8(vfs.read(name).unwrap()).unwrap();
    let (header, body) = text.split_once('\n').unwrap();
    let body = edit(body);
    let crc = fnv1a(body.as_bytes());
    let mut fields: Vec<String> = header.split(' ').map(str::to_string).collect();
    for i in 0..fields.len() - 1 {
        match (fields[i].as_str(), parentcrc) {
            ("crc", _) => fields[i + 1] = format!("{crc:016x}"),
            ("parentcrc", Some(p)) => fields[i + 1] = format!("{p:016x}"),
            _ => {}
        }
    }
    vfs.remove(name).unwrap();
    vfs.create(name, format!("{}\n{body}", fields.join(" ")).as_bytes())
        .unwrap();
    vfs.sync(name).unwrap();
    crc
}

#[test]
fn a_chain_whose_middle_link_violates_sigma_is_refused() {
    // Three links. The middle one also adds one employee in two
    // departments (violating E → D), and the last one removes both rows
    // again, so the chain's end state satisfies Σ: only a check at each
    // link's end sees the violation.
    let (bench, base, script) = build_script(120);
    let (vfs, live) = chained_store(&bench, &base, &script, 3, 6);
    let image = vfs.crash_image();
    let (_, clean) = DurableDatabase::recover(vfs.crash_image(), opts_with(1, 8)).unwrap();
    assert!(clean.skipped_checkpoints.is_empty());
    let chain = clean.checkpoint_chain.clone();
    assert_eq!(chain.len(), 4, "{chain:?}");
    let (middle, last) = (&chain[2], &chain[3]);
    // One fresh employee in two fresh departments: a violation whatever
    // else the base holds.
    let arity = bench.schema.arity();
    let fresh = |d: u64| {
        let mut vals = vec![1u64 << 41, d];
        vals.resize(arity, 7);
        vals.iter()
            .map(u64::to_string)
            .collect::<Vec<_>>()
            .join(" ")
    };
    let bad = [fresh(1 << 41), fresh((1 << 41) + 1)];
    let add_bad = |body: &str| {
        // Leftover additions of the link's last commit.
        let body = body
            .strip_suffix("end\n")
            .expect("a delta body ends with `end`");
        format!("{body}add {}\nadd {}\nend\n", bad[0], bad[1])
    };
    let del_bad = |body: &str| {
        // Removals of the link's first commit, after its own.
        let mut lines: Vec<String> = body.lines().map(str::to_string).collect();
        let at = 1 + lines[1..]
            .iter()
            .take_while(|l| l.starts_with("del "))
            .count();
        for row in bad.iter().rev() {
            lines.insert(at, format!("del {row}"));
        }
        lines.join("\n") + "\n"
    };
    let crc = rewrite_checkpoint(&image, middle, None, add_bad);
    rewrite_checkpoint(&image, last, Some(crc), del_bad);
    let (rec, report) = DurableDatabase::recover(image, opts_with(1, 8)).unwrap();
    let skipped: Vec<&str> = report
        .skipped_checkpoints
        .iter()
        .map(|(f, _)| f.as_str())
        .collect();
    assert_eq!(skipped, [last.as_str(), middle.as_str()], "{report:?}");
    assert!(
        report
            .skipped_checkpoints
            .iter()
            .all(|(_, why)| why.contains("violates")),
        "{:?}",
        report.skipped_checkpoints
    );
    assert_eq!(report.checkpoint_chain, chain[..2]);
    assert_eq!(rec.reader().snapshot().dump(), live);
}
