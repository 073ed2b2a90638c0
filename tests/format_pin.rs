//! Golden-bytes pins for every on-disk format: WAL frames, checkpoint
//! files (full and delta) and the `dump()` text.
//!
//! The round-trip suites only prove that decode ∘ encode is the
//! identity, so a format change made symmetrically on both sides passes
//! them while silently orphaning every store written before it. These
//! tests compare the exact bytes a fixed workload leaves on disk with
//! literals: any change to them is a format change and must be made on
//! purpose, with a migration story.

use relvu::durability::{DurableDatabase, MemVfs, Vfs, WalOptions};
use relvu::engine::{Database, Policy, UpdateOp};
use relvu::prelude::*;
use relvu::relation::{tup, CmpOp, Pred};

/// `E → D → M` over integer constants, a projective view `staff =
/// π_{E,D}` with complement `{D, M}` and a selection view `lo` over it.
fn store() -> (MemVfs, DurableDatabase<MemVfs>) {
    let schema = Schema::new(["E", "D", "M"]).unwrap();
    let fds = FdSet::parse(&schema, "E -> D; D -> M").unwrap();
    let base = Relation::from_rows(
        schema.universe(),
        [tup![1, 10, 100], tup![2, 10, 100], tup![3, 20, 200]],
    )
    .unwrap();
    let x = schema.set(["E", "D"]).unwrap();
    let y = schema.set(["D", "M"]).unwrap();
    let d = schema.attr("D").unwrap();
    let db = Database::new(schema, fds, base).unwrap();
    let vfs = MemVfs::new();
    let ddb = DurableDatabase::create(vfs.clone(), db, WalOptions::default()).unwrap();
    ddb.create_view("staff", x, Some(y), Policy::Exact).unwrap();
    ddb.create_selection_view("lo", x, Some(y), Pred::cmp(d, CmpOp::Lt, 15))
        .unwrap();
    (vfs, ddb)
}

/// One op of each kind, with one translation of each kind: an insert
/// joined onto the complement, an insert of a tuple already in the view
/// (the identity translation), a replace and a delete.
fn run_ops(ddb: &DurableDatabase<MemVfs>) {
    let ops = [
        UpdateOp::Insert { t: tup![4, 10] },
        UpdateOp::Insert { t: tup![4, 10] },
        UpdateOp::Replace {
            t1: tup![4, 10],
            t2: tup![5, 20],
        },
        UpdateOp::Delete { t: tup![1, 10] },
    ];
    for op in ops {
        ddb.apply("staff", op).unwrap();
    }
}

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

/// Render a WAL segment one frame per line: the 20 header bytes in hex,
/// then the payload text. Walks the frame lengths itself (not the
/// decoder under test) and insists they cover the file exactly.
fn render_segment(bytes: &[u8]) -> String {
    let mut out = String::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let end = at + 20 + len;
        let payload = std::str::from_utf8(&bytes[at + 20..end]).unwrap();
        out.push_str(&format!("{} {payload}\n", hex(&bytes[at..at + 20])));
        at = end;
    }
    assert_eq!(at, bytes.len(), "frames cover the segment exactly");
    out
}

fn file(vfs: &MemVfs, name: &str) -> Vec<u8> {
    vfs.read(name).unwrap()
}

#[test]
fn wal_frames_are_pinned() {
    let (vfs, ddb) = store();
    run_ops(&ddb);
    let mut names = vfs.list().unwrap();
    names.sort();
    let segs: Vec<&String> = names.iter().filter(|n| n.starts_with("wal-")).collect();
    assert_eq!(segs, ["wal-00000000000000000001.seg"]);
    assert_eq!(
        render_segment(&file(&vfs, segs[0])),
        WAL_GOLDEN,
        "WAL frame bytes changed"
    );
}

#[test]
fn delta_checkpoint_is_pinned() {
    let (vfs, ddb) = store();
    run_ops(&ddb);
    let seq = ddb.checkpoint_incremental().unwrap();
    assert_eq!(seq, 4);
    let bytes = file(&vfs, "ckpt-delta-00000000000000000004.db");
    assert_eq!(
        String::from_utf8(bytes).unwrap(),
        DELTA_GOLDEN,
        "delta checkpoint bytes changed"
    );
}

#[test]
fn full_checkpoint_and_dump_are_pinned() {
    let (vfs, ddb) = store();
    run_ops(&ddb);
    assert_eq!(ddb.reader().dump(), DUMP_GOLDEN, "dump text changed");
    assert_eq!(ddb.checkpoint().unwrap(), 4);
    let bytes = file(&vfs, "ckpt-00000000000000000004.db");
    let text = String::from_utf8(bytes).unwrap();
    let (header, body) = text.split_once('\n').unwrap();
    assert_eq!(header, FULL_HEADER_GOLDEN, "full checkpoint header changed");
    assert_eq!(body, DUMP_GOLDEN, "a full checkpoint's body is the dump");
}

const WAL_GOLDEN: &str = "\
35000000010000000000000073e0cd83dfaecad6 view staff op insert 2 4 10 tr insert 2 4 10 rows 3 4
3000000002000000000000003c69440ddd00b2bd view staff op insert 2 4 10 tr identity rows 4 4
4100000003000000000000006c3636399ab6efba view staff op replace 2 4 10 5 20 tr replace 2 4 10 5 20 rows 4 4
3500000004000000000000001aebb12f80291c08 view staff op delete 2 1 10 tr delete 2 1 10 rows 4 3
";
const DELTA_GOLDEN: &str = "\
relvu-ckpt-delta v1 seq 4 parent 0 parentcrc fbebd1da9ad1588e crc 441197096be683b5
commit 1
add 4 10 100
commit 3
del 4 10 100
add 5 20 200
commit 4
del 1 10 100
end
";
const DUMP_GOLDEN: &str = "\
relvu-dump v1
schema E D M
fd E -> D
fd D -> M
row 5 20 200
row 2 10 100
row 3 20 200
view staff exact x E D y D M
sview lo exact x E D y D M pred D < 15
end
";
const FULL_HEADER_GOLDEN: &str = "relvu-ckpt v1 seq 4 crc e780098b9415a8b0";
