//! Byte guard for incremental checkpoints.
//!
//! A translated manager change rewrites every base row of its
//! department (Theorem 9), so a delta checkpoint holding 128 of them
//! records each moved row twice per commit and outgrows a full snapshot
//! of the base many times over. `checkpoint_incremental` encodes each
//! delta against the byte length of its chain's full root and writes a
//! full snapshot instead once the delta reaches it, so no checkpoint
//! file is larger than the root plus the one commit that crossed the
//! budget. Byte counts do not depend on the machine.

use relvu::durability::{
    delta_checkpoint_name, parse_checkpoint_name, parse_delta_checkpoint_name,
    write_delta_checkpoint, DurableDatabase, MemVfs, Vfs, WalOptions,
};
use relvu::engine::{Database, Policy, UpdateOp};
use relvu::prelude::*;
use relvu::relation::tup;

const DEPTS: u64 = 16;
const ROWS_PER_DEPT: u64 = 32;
/// Commits between two incremental checkpoints.
const CKPT_EVERY: u64 = 128;
const COMMITS: u64 = 512;

/// `E → D → M` with 32 employees in each of 16 departments and the
/// manager view `mgrs = π{D, M}` (auto complement `{E, D}`).
fn store() -> (DurableDatabase<MemVfs>, MemVfs) {
    let schema = Schema::new(["E", "D", "M"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
    let base = Relation::from_rows(
        schema.universe(),
        (0..DEPTS * ROWS_PER_DEPT).map(|e| tup![e, e % DEPTS, 1_000_000 + e % DEPTS]),
    )
    .unwrap();
    let mgrs = schema.set(["D", "M"]).unwrap();
    let db = Database::new(schema, fds, base).unwrap();
    db.create_view("mgrs", mgrs, None, Policy::Exact).unwrap();
    let vfs = MemVfs::new();
    let ddb = DurableDatabase::create(vfs.clone(), db, WalOptions::default()).unwrap();
    (ddb, vfs)
}

/// Checkpoint files in the store, as `(name, length)`.
fn checkpoint_files(vfs: &MemVfs) -> Vec<(String, u64)> {
    let mut names = vfs.list().unwrap();
    names.sort();
    names
        .into_iter()
        .filter(|n| parse_checkpoint_name(n).is_some() || parse_delta_checkpoint_name(n).is_some())
        .map(|n| {
            let len = vfs.read(&n).unwrap().len() as u64;
            (n, len)
        })
        .collect()
}

#[test]
fn no_checkpoint_file_outgrows_its_root_by_more_than_one_commit() {
    let (ddb, vfs) = store();
    let mut managers: Vec<u64> = (0..DEPTS).map(|d| 1_000_000 + d).collect();
    let full_by_size = || relvu::obs::snapshot().counter("durability.ckpt.full_by_size");
    let counted_before = full_by_size();
    let mut root = checkpoint_files(&vfs)[0].1;
    let mut one_commit = 0;
    let mut seen: Vec<String> = checkpoint_files(&vfs).into_iter().map(|(n, _)| n).collect();
    for i in 0..COMMITS {
        let d = i % DEPTS;
        let fresh = 2_000_000 + i;
        ddb.apply(
            "mgrs",
            UpdateOp::Replace {
                t1: tup![d, managers[d as usize]],
                t2: tup![d, fresh],
            },
        )
        .unwrap();
        managers[d as usize] = fresh;
        if i == 0 {
            // One commit's lines: a one-commit delta file, header and
            // `end` line included, written to a separate store.
            let snap = ddb.reader().snapshot();
            let side = MemVfs::new();
            let commits = snap.base_deltas_since(0).unwrap();
            write_delta_checkpoint(&side, 1, &commits, (0, 0), 2).unwrap();
            one_commit = side.read(&delta_checkpoint_name(1)).unwrap().len() as u64;
        }
        if (i + 1) % CKPT_EVERY != 0 {
            continue;
        }
        ddb.checkpoint_incremental().unwrap();
        for (name, len) in checkpoint_files(&vfs) {
            if seen.contains(&name) {
                continue;
            }
            println!("{name}: {len} B (root {root} B, one commit {one_commit} B)");
            assert!(
                len <= root + one_commit,
                "{name} is {len} B: more than the root's {root} B plus one commit's {one_commit} B"
            );
            if parse_checkpoint_name(&name).is_some() {
                root = len;
            }
            seen.push(name);
        }
    }
    assert_eq!(seen.len() as u64, 1 + COMMITS / CKPT_EVERY);
    if relvu::obs::enabled() {
        assert!(
            full_by_size() > counted_before,
            "durability.ckpt.full_by_size never moved"
        );
        assert!(ddb
            .reader()
            .metrics()
            .render_prometheus()
            .contains("relvu_durability_ckpt_full_by_size_total"));
    }
    let (rec, _) = DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
    assert_eq!(rec.reader().dump(), ddb.reader().dump());
}
