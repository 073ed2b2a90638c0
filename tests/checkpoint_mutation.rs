//! Recovery never panics on a mutated checkpoint file.
//!
//! A checkpoint's checksum catches media corruption, but not a file
//! that is well-formed at the byte level and wrong in its content: a
//! bug in a writer, or a file edited by hand. These properties take the
//! `format_pin` fixture's full and delta checkpoints, mutate them token
//! by token — tags, sequence numbers, row widths, huge integers, lines
//! dropped (the `end` marker among them) or repeated — recompute the
//! header's crc so the mutation reaches the parsers, and require
//! `DurableDatabase::recover` to return `Ok` or `Err`: never to panic,
//! and never to abort the process.

use std::panic::{catch_unwind, AssertUnwindSafe};

use proptest::prelude::*;
use relvu::durability::{
    checkpoint_name, delta_checkpoint_name, DurableDatabase, MemVfs, Vfs, WalOptions,
};
use relvu::engine::{Database, Policy, UpdateOp};
use relvu::prelude::*;
use relvu::relation::{tup, CmpOp, Pred};

/// The `format_pin` store: `E → D → M` over integer constants, a
/// projective view `staff = π_{E,D}` and a selection view `lo` over it,
/// one op of each kind, then an incremental checkpoint. It leaves the
/// full checkpoint at seq 0, a delta at seq 4 and a WAL of four records.
fn store() -> MemVfs {
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
    assert_eq!(ddb.checkpoint_incremental().unwrap(), 4);
    vfs
}

/// Numbers a mutated token may become: seqs next to the real ones,
/// `u64::MAX`, one past it, and far past it.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "3",
    "4",
    "5",
    "-1",
    "4294967296",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
];

/// Words a mutated token may become: every tag of both formats, view
/// keywords, attribute names known and unknown, and nothing at all.
const WORDS: &[&str] = &[
    "commit",
    "del",
    "add",
    "end",
    "relvu-dump",
    "v1",
    "v2",
    "schema",
    "fd",
    "row",
    "view",
    "sview",
    "from",
    "auto",
    "exact",
    "test1",
    "x",
    "y",
    "pred",
    "->",
    "<",
    "E",
    "Z",
    "",
];

/// One mutation: `(kind, line, token, value)`, the indices taken modulo
/// what the file holds.
type Mutation = (usize, usize, usize, usize);

fn mutate(text: &str, mutations: &[Mutation]) -> String {
    let mut lines: Vec<Vec<String>> = text
        .lines()
        .map(|l| l.split(' ').map(str::to_string).collect())
        .collect();
    for &(kind, line, token, value) in mutations {
        if lines.is_empty() {
            break;
        }
        let l = line % lines.len();
        let t = token % lines[l].len().max(1);
        match kind {
            0 => {
                if let Some(tok) = lines[l].get_mut(t) {
                    *tok = NUMBERS[value % NUMBERS.len()].to_string();
                }
            }
            1 => {
                if let Some(tok) = lines[l].get_mut(t) {
                    *tok = WORDS[value % WORDS.len()].to_string();
                }
            }
            // Row widths: one value fewer or one more.
            2 if !lines[l].is_empty() => {
                lines[l].remove(t);
            }
            3 if !lines[l].is_empty() => {
                let tok = lines[l][t].clone();
                lines[l].insert(t, tok);
            }
            4 => {
                lines.remove(l);
            }
            5 => {
                let copy = lines[l].clone();
                lines.insert(l, copy);
            }
            // Drop the `end` marker.
            _ => lines.retain(|tokens| tokens.as_slice() != ["end"]),
        }
    }
    let mut out = String::new();
    for tokens in lines {
        out.push_str(&tokens.join(" "));
        out.push('\n');
    }
    out
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

/// Rewrite the header's trailing `crc` field to the body's checksum, so
/// the mutated content gets past the checksum to the parsers.
fn reseal(text: &str) -> String {
    let Some((header, body)) = text.split_once('\n') else {
        return text.to_string();
    };
    let mut fields: Vec<String> = header.split(' ').map(str::to_string).collect();
    let n = fields.len();
    if n >= 2 && fields[n - 2] == "crc" {
        fields[n - 1] = format!("{:016x}", fnv1a(body.as_bytes()));
    }
    format!("{}\n{body}", fields.join(" "))
}

/// Recover `vfs` with `file` replaced by its mutated, resealed form.
fn recover_mutated(vfs: &MemVfs, file: &str, mutations: &[Mutation]) -> Result<(), String> {
    let image = vfs.crash_image();
    let text = String::from_utf8(image.read(file).unwrap()).unwrap();
    let mutated = reseal(&mutate(&text, mutations));
    image.remove(file).unwrap();
    image.create(file, mutated.as_bytes()).unwrap();
    image.sync(file).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        DurableDatabase::recover(image, WalOptions::default()).map(|_| ())
    }));
    match outcome {
        Ok(_) => Ok(()),
        Err(_) => Err(format!(
            "recovery panicked on {file} mutated to:\n{mutated}"
        )),
    }
}

fn mutations() -> impl Strategy<Value = Vec<Mutation>> {
    proptest::collection::vec((0..7usize, 0..64usize, 0..16usize, 0..64usize), 1..4)
}

proptest! {
    #[test]
    fn mutated_full_checkpoint_never_panics_recovery(m in mutations()) {
        let vfs = store();
        let res = recover_mutated(&vfs, &checkpoint_name(0), &m);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }

    #[test]
    fn mutated_delta_checkpoint_never_panics_recovery(m in mutations()) {
        let vfs = store();
        let res = recover_mutated(&vfs, &delta_checkpoint_name(4), &m);
        prop_assert!(res.is_ok(), "{}", res.unwrap_err());
    }
}

#[test]
fn unmutated_store_recovers_through_the_delta() {
    let vfs = store();
    let (_, report) = DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
    assert_eq!(
        report.checkpoint_chain,
        [checkpoint_name(0), delta_checkpoint_name(4)]
    );
    // Resealing an untouched file changes nothing.
    let text = String::from_utf8(vfs.read(&delta_checkpoint_name(4)).unwrap()).unwrap();
    assert_eq!(reseal(&mutate(&text, &[])), text);
}
