//! Recovery never panics on a mutated WAL segment.
//!
//! A frame's checksum catches media corruption, but not a frame that is
//! well-formed at the byte level and wrong in its content: a bug in a
//! writer, or a segment edited by hand. This test takes the `format_pin`
//! fixture's WAL segment (four frames over a full checkpoint at seq 0),
//! mutates it — payload tokens replaced by huge numbers (`u64::MAX`,
//! 2^64, arities far past any row) or by other keywords, tokens dropped
//! or repeated, whole frames dropped or repeated, header seqs rewritten
//! — then rewrites each frame's length and checksum so the mutation
//! reaches the decoder and replay, and requires
//! `DurableDatabase::recover` to return `Ok` or `Err`: never to panic,
//! and never to abort the process.
//!
//! It runs a fixed 2,000 seeded cases, or `PROPTEST_CASES` if that is
//! larger. A last test renames the segment itself, to the highest seq a
//! name can carry.

use std::panic::{catch_unwind, AssertUnwindSafe};

use rand::prelude::*;
use relvu::durability::{DurableDatabase, MemVfs, Vfs, WalOptions};
use relvu::engine::{Database, Policy, UpdateOp};
use relvu::prelude::*;
use relvu::relation::{tup, CmpOp, Pred};

/// Cases run at the least.
const CASES: u64 = 2_000;

/// The `format_pin` store: `E → D → M` over integer constants, a
/// projective view `staff = π_{E,D}` and a selection view `lo` over it,
/// and one op of each kind. It leaves the full checkpoint at seq 0 and a
/// WAL segment of four frames. Returns the store and the segment's name.
fn store() -> (MemVfs, String) {
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
    let mut segs: Vec<String> = vfs
        .list()
        .unwrap()
        .into_iter()
        .filter(|n| n.starts_with("wal-"))
        .collect();
    assert_eq!(segs.len(), 1, "the fixture writes one segment");
    (vfs, segs.remove(0))
}

/// Numbers a mutated token may become: seqs and counts next to the real
/// ones, `u32::MAX + 1`, an arity far past any row, `u64::MAX`, 2^64, and
/// far past it.
const NUMBERS: &[&str] = &[
    "0",
    "1",
    "2",
    "3",
    "4",
    "5",
    "-1",
    "4294967296",
    "99999999999999999",
    "18446744073709551615",
    "18446744073709551616",
    "340282366920938463463374607431768211456",
];

/// Words a mutated token may become: every keyword of the payload, the
/// view names known and unknown, and nothing at all.
const WORDS: &[&str] = &[
    "view", "op", "tr", "rows", "insert", "delete", "replace", "identity", "staff", "lo", "nosuch",
    "",
];

/// Header seqs a mutated frame may carry.
const SEQS: &[u64] = &[0, 1, 2, 3, 4, 5, 1 << 32, u64::MAX - 1, u64::MAX];

/// One decoded frame: its header seq and its payload's tokens.
type Frame = (u64, Vec<String>);

/// Split a segment into frames by walking the length fields (not the
/// decoder under test).
fn frames(bytes: &[u8]) -> Vec<Frame> {
    let mut out = Vec::new();
    let mut at = 0;
    while at < bytes.len() {
        let len = u32::from_le_bytes(bytes[at..at + 4].try_into().unwrap()) as usize;
        let seq = u64::from_le_bytes(bytes[at + 4..at + 12].try_into().unwrap());
        let payload = std::str::from_utf8(&bytes[at + 20..at + 20 + len]).unwrap();
        out.push((seq, payload.split(' ').map(str::to_string).collect()));
        at += 20 + len;
    }
    assert_eq!(at, bytes.len(), "frames cover the segment exactly");
    out
}

/// FNV-1a 64, the frame checksum.
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Encode frames with fresh length fields and resealed checksums, so
/// every mutation gets past the framing to the payload decoder.
fn seal(frames: &[Frame]) -> Vec<u8> {
    let mut out = Vec::new();
    for (seq, tokens) in frames {
        let payload = tokens.join(" ");
        let mut header = Vec::with_capacity(20);
        header.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        header.extend_from_slice(&seq.to_le_bytes());
        let crc = fnv1a(fnv1a(0xcbf2_9ce4_8422_2325, &header), payload.as_bytes());
        header.extend_from_slice(&crc.to_le_bytes());
        out.extend_from_slice(&header);
        out.extend_from_slice(payload.as_bytes());
    }
    out
}

/// Apply one to three random mutations.
fn mutate(rng: &mut StdRng, mut frames: Vec<Frame>) -> Vec<Frame> {
    for _ in 0..rng.gen_range(1..4) {
        if frames.is_empty() {
            break;
        }
        let f = rng.gen_range(0..frames.len());
        let tokens = &mut frames[f].1;
        let t = rng.gen_range(0..tokens.len().max(1));
        match rng.gen_range(0..7) {
            0 if !tokens.is_empty() => {
                tokens[t] = NUMBERS[rng.gen_range(0..NUMBERS.len())].to_string();
            }
            1 if !tokens.is_empty() => {
                tokens[t] = WORDS[rng.gen_range(0..WORDS.len())].to_string();
            }
            2 if !tokens.is_empty() => {
                tokens.remove(t);
            }
            3 if !tokens.is_empty() => {
                let tok = tokens[t].clone();
                tokens.insert(t, tok);
            }
            4 => {
                frames.remove(f);
            }
            5 => {
                let copy = frames[f].clone();
                frames.insert(f, copy);
            }
            _ => frames[f].0 = SEQS[rng.gen_range(0..SEQS.len())],
        }
    }
    frames
}

#[test]
fn unmutated_segment_recovers_and_reseals_to_itself() {
    let (vfs, seg) = store();
    let bytes = vfs.read(&seg).unwrap();
    assert_eq!(seal(&frames(&bytes)), bytes, "resealing changes nothing");
    let (_, report) = DurableDatabase::recover(vfs.crash_image(), WalOptions::default()).unwrap();
    assert_eq!(report.last_seq, 4);
}

#[test]
fn mutated_wal_never_panics_recovery() {
    let cases = std::env::var("PROPTEST_CASES")
        .ok()
        .and_then(|v| v.parse().ok())
        .map_or(CASES, |n: u64| n.max(CASES));
    let (vfs, seg) = store();
    let original = frames(&vfs.read(&seg).unwrap());
    let (mut recovered, mut refused) = (0u64, 0u64);
    for seed in 0..cases {
        let mut rng = StdRng::seed_from_u64(seed);
        let mutated = seal(&mutate(&mut rng, original.clone()));
        let image = vfs.crash_image();
        image.remove(&seg).unwrap();
        image.create(&seg, &mutated).unwrap();
        image.sync(&seg).unwrap();
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            DurableDatabase::recover(image, WalOptions::default()).map(|_| ())
        }));
        match outcome {
            Ok(Ok(())) => recovered += 1,
            Ok(Err(_)) => refused += 1,
            Err(_) => panic!(
                "recovery panicked on seed {seed}, segment mutated to:\n{}",
                String::from_utf8_lossy(&mutated)
            ),
        }
    }
    println!("{cases} mutated segments: {recovered} recovered, {refused} refused");
    assert!(
        refused > 0 && recovered > 0,
        "the mutations reach both outcomes"
    );
}

/// A segment named at `u64::MAX` whose one frame carries that seq: the
/// scan used to compute the next expected seq as `seq + 1`, which
/// overflows, and debug builds panicked.
#[test]
fn segment_at_the_last_seq_is_refused() {
    let (vfs, seg) = store();
    let mut last = frames(&vfs.read(&seg).unwrap());
    last.truncate(1);
    last[0].0 = u64::MAX;
    let image = vfs.crash_image();
    image.remove(&seg).unwrap();
    let name = format!("wal-{:020}.seg", u64::MAX);
    image.create(&name, &seal(&last)).unwrap();
    image.sync(&name).unwrap();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        DurableDatabase::recover(image, WalOptions::default()).map(|_| ())
    }));
    assert!(
        matches!(outcome, Ok(Err(_))),
        "recovery must refuse the segment, not panic or accept it"
    );
}
