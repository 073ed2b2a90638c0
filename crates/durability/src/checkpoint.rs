//! Atomic checkpoints — full snapshots and incremental deltas — written
//! via the classic temp-file / fsync / rename dance.
//!
//! A **full** checkpoint `ckpt-<seq>.db` holds:
//!
//! ```text
//! relvu-ckpt v1 seq <N> crc <16-hex-digit fnv64>
//! <relvu-dump snapshot, verbatim>
//! ```
//!
//! An **incremental** checkpoint `ckpt-delta-<seq>.db` holds only the
//! per-commit base deltas since its parent checkpoint:
//!
//! ```text
//! relvu-ckpt-delta v1 seq <T> parent <S> parentcrc <fnv64> crc <fnv64>
//! commit <seq>
//! del <v> <v> ...
//! add <v> <v> ...
//! ...
//! end
//! ```
//!
//! where the parent is the checkpoint (full or delta) at sequence `S`
//! whose body hashed to `parentcrc` — each delta pins its exact parent,
//! so a chain is only loaded when every link validates; any broken link
//! makes recovery fall back to the next older restore point. Replaying
//! a chain applies each commit's `del` and `add` rows by the engine's
//! one edit rule (`Relation::apply_delta`: pairs rewritten in place,
//! then leftover removals swap-removed and leftover additions appended),
//! reproducing the live engine's base **byte-for-byte** (the dump
//! format emits rows in relation iteration order, so net set-deltas
//! would not round-trip).
//!
//! *Compatibility.* Engines before the pair rule applied the same `del`
//! and `add` lists as all removals, then all insertions, and the header
//! did not change with the rule (it is still `v1`). A chain written by
//! such an engine therefore replays to the same set of rows but, after
//! any commit with rows on both lines, in a different row order than
//! the engine that wrote it held, so its dumps are not byte-identical
//! across the upgrade. Telling the two rules apart would take a new
//! header version.
//!
//! **When a delta is written.** Because deltas are not netted, a chain
//! of commits that rewrite the same rows can record far more bytes than
//! a full snapshot of the state they lead to — a constant-complement
//! replace rewrites every base row joined to the complement tuple. The
//! incremental path therefore encodes each delta body against a byte
//! budget, the length of the chain's full root file: if the body
//! reaches it, the delta is dropped unwritten and a full snapshot of
//! the same pinned epoch starts a new chain instead. The choice is made
//! per file, so it never adds bytes: a full is written only when the
//! delta would be at least the root's size, and the full is at most the
//! root plus that delta. A full is also written when the chain holds
//! [`crate::WalOptions::max_delta_chain`] deltas, when the engine's
//! commit history no longer reaches back to the tip, and on every DDL
//! change or explicit `checkpoint()`.
//!
//! Writers build each file — header and body — in one buffer: the
//! header's trailing `crc` field is a placeholder until the body after
//! it has been hashed.
//!
//! Writing always goes temp → sync → rename, so a crash at any point
//! leaves either the old checkpoint set or the old set plus one complete
//! new file — never a half-written `ckpt-*.db`.

use std::collections::HashMap;
use std::fmt::Write as _;
use std::sync::Arc;

use relvu_engine::{Commit, Database, EngineSnapshot};
use relvu_relation::{Tuple, Value};

use crate::error::DurabilityError;
use crate::record::{fnv1a, parse_tuple, push_tuple, FNV_OFFSET};
use crate::vfs::Vfs;
use crate::wal::list_segments;

const TMP_NAME: &str = "ckpt.tmp";
/// Default number of checkpoint chains to retain — see
/// [`crate::WalOptions::retain_checkpoints`].
pub const DEFAULT_RETAIN: usize = 2;
/// Chain-walk bound: a valid chain's parent seqs strictly decrease, so
/// any walk longer than this is a corrupt store, not a real chain.
const MAX_CHAIN_WALK: usize = 10_000;

/// `ckpt-<seq>.db`, zero-padded to 20 digits.
pub fn checkpoint_name(seq: u64) -> String {
    format!("ckpt-{seq:020}.db")
}

/// Parse a full-checkpoint file name back into its sequence number.
pub fn parse_checkpoint_name(name: &str) -> Option<u64> {
    parse_padded(name, "ckpt-")
}

/// `ckpt-delta-<seq>.db`, zero-padded to 20 digits.
pub fn delta_checkpoint_name(seq: u64) -> String {
    format!("ckpt-delta-{seq:020}.db")
}

/// Parse an incremental-checkpoint file name back into its sequence
/// number.
pub fn parse_delta_checkpoint_name(name: &str) -> Option<u64> {
    parse_padded(name, "ckpt-delta-")
}

fn parse_padded(name: &str, prefix: &str) -> Option<u64> {
    let digits = name.strip_prefix(prefix)?.strip_suffix(".db")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// Whether a checkpoint file is a full snapshot or an incremental delta.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CkptKind {
    /// A complete `relvu-dump` snapshot.
    Full,
    /// Per-commit base deltas chained onto a parent checkpoint.
    Delta,
}

/// The checkpoint files present in a store, sorted ascending by
/// sequence number with a full checkpoint ordered *after* a delta at the
/// same seq (a DDL checkpoint can share a seq with an older delta — DDL
/// does not bump the engine counter — and the full one is newer state).
/// Iterating in reverse therefore visits restore points newest-first.
pub(crate) fn list_checkpoints<V: Vfs>(
    vfs: &V,
) -> Result<Vec<(String, u64, CkptKind)>, DurabilityError> {
    let mut ckpts: Vec<(String, u64, CkptKind)> = vfs
        .list()?
        .into_iter()
        .filter_map(|n| {
            if let Some(s) = parse_delta_checkpoint_name(&n) {
                Some((n, s, CkptKind::Delta))
            } else {
                parse_checkpoint_name(&n).map(|s| (n, s, CkptKind::Full))
            }
        })
        .collect();
    ckpts.sort_by_key(|(_, s, k)| (*s, matches!(k, CkptKind::Full)));
    Ok(ckpts)
}

fn body_crc(body: &str) -> u64 {
    fnv1a(FNV_OFFSET, body.as_bytes())
}

/// A parsed checkpoint header.
#[derive(Debug, Clone, Copy)]
pub(crate) struct CkptHeader {
    pub(crate) seq: u64,
    pub(crate) crc: u64,
    /// `(seq, crc)` of the parent checkpoint — `None` for a full one.
    pub(crate) parent: Option<(u64, u64)>,
    /// Byte length of the whole file, header line included.
    pub(crate) len: u64,
}

/// Parse a checkpoint file's header line and return it with the body.
fn parse_header<'a>(name: &str, text: &'a str) -> Result<(CkptHeader, &'a str), DurabilityError> {
    let corrupt = |detail: String| DurabilityError::CorruptCheckpoint {
        name: name.to_string(),
        detail,
    };
    let (header, body) = text
        .split_once('\n')
        .ok_or_else(|| corrupt("missing header line".to_string()))?;
    let fields: Vec<&str> = header.split_whitespace().collect();
    let parse_seq = |s: &str| {
        s.parse::<u64>()
            .map_err(|_| corrupt(format!("bad seq field `{s}`")))
    };
    let parse_crc =
        |s: &str| u64::from_str_radix(s, 16).map_err(|_| corrupt(format!("bad crc field `{s}`")));
    let parsed = match fields.as_slice() {
        ["relvu-ckpt", "v1", "seq", seq, "crc", crc] => CkptHeader {
            seq: parse_seq(seq)?,
            crc: parse_crc(crc)?,
            parent: None,
            len: text.len() as u64,
        },
        ["relvu-ckpt-delta", "v1", "seq", seq, "parent", parent, "parentcrc", pcrc, "crc", crc] => {
            CkptHeader {
                seq: parse_seq(seq)?,
                crc: parse_crc(crc)?,
                parent: Some((parse_seq(parent)?, parse_crc(pcrc)?)),
                len: text.len() as u64,
            }
        }
        _ => return Err(corrupt(format!("unrecognized header `{header}`"))),
    };
    Ok((parsed, body))
}

/// Read `name`, validate its header against the file name and its body
/// against the header checksum, and return header + body.
fn read_validated<V: Vfs>(vfs: &V, name: &str) -> Result<(CkptHeader, String), DurabilityError> {
    let corrupt = |detail: String| DurabilityError::CorruptCheckpoint {
        name: name.to_string(),
        detail,
    };
    let bytes = vfs.read(name)?;
    let text = String::from_utf8(bytes).map_err(|_| corrupt("not valid UTF-8".to_string()))?;
    let (header, body) = parse_header(name, &text)?;
    let named = match header.parent {
        None => parse_checkpoint_name(name),
        Some(_) => parse_delta_checkpoint_name(name),
    };
    if named != Some(header.seq) {
        return Err(corrupt(format!(
            "header seq {} does not match the file name",
            header.seq
        )));
    }
    let actual = body_crc(body);
    if actual != header.crc {
        return Err(corrupt(format!(
            "checksum mismatch: header says {:016x}, body hashes to {actual:016x}",
            header.crc
        )));
    }
    Ok((header, body.to_string()))
}

/// Commit the bytes in `TMP_NAME` fashion: temp → sync → rename.
fn commit_file<V: Vfs>(vfs: &V, name: &str, bytes: &[u8]) -> Result<(), DurabilityError> {
    vfs.create(TMP_NAME, bytes)?;
    vfs.sync(TMP_NAME)?;
    vfs.rename(TMP_NAME, name)?;
    Ok(())
}

/// The tip of a checkpoint chain: what the next incremental checkpoint
/// builds on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ChainTip {
    /// The sequence number the tip covers.
    pub(crate) seq: u64,
    /// The tip file's body crc — the `parentcrc` a further delta must
    /// name.
    pub(crate) crc: u64,
    /// How many deltas the chain carries past its full root.
    pub(crate) deltas: usize,
    /// Byte length of the chain's full root file: the budget of every
    /// delta body chained onto it (see [`write_delta_within`]).
    pub(crate) root_len: u64,
}

/// The 16 hex digits a header's trailing `crc` field holds until the
/// body after it has been hashed.
const CRC_PLACEHOLDER: &str = "0000000000000000";

/// Hash the body of a checkpoint file built in `buf` — everything from
/// `body_at`, just past the header line — and write its crc over the
/// header's trailing [`CRC_PLACEHOLDER`]. Returns the file bytes and the
/// crc.
fn seal(buf: String, body_at: usize) -> (Vec<u8>, u64) {
    let mut bytes = buf.into_bytes();
    let crc = fnv1a(FNV_OFFSET, &bytes[body_at..]);
    let mut slot = &mut bytes[body_at - 1 - CRC_PLACEHOLDER.len()..body_at - 1];
    std::io::Write::write_fmt(&mut slot, format_args!("{crc:016x}"))
        .expect("16 hex digits fill the placeholder");
    (bytes, crc)
}

/// Serialize `db` and write it as a full checkpoint with the default
/// retention. Returns the sequence number the checkpoint covers.
///
/// # Errors
/// [`DurabilityError::Vfs`] on any storage failure.
pub fn write_checkpoint<V: Vfs>(vfs: &V, db: &Database) -> Result<u64, DurabilityError> {
    write_full_checkpoint(vfs, &db.snapshot(), DEFAULT_RETAIN).map(|(seq, _)| seq)
}

/// Write a full checkpoint from a pinned snapshot, then prune to
/// `retain` chains. Returns `(seq, body crc)` — the crc is what a child
/// delta must name as `parentcrc`.
///
/// The snapshot is pinned by the caller so the off-commit-path
/// background checkpointer serializes exactly the epoch it decided on,
/// without ever holding the engine lock.
///
/// # Errors
/// [`DurabilityError::Vfs`] on any storage failure.
pub fn write_full_checkpoint<V: Vfs>(
    vfs: &V,
    snap: &EngineSnapshot,
    retain: usize,
) -> Result<(u64, u64), DurabilityError> {
    write_full(vfs, snap, retain).map(|tip| (tip.seq, tip.crc))
}

/// [`write_full_checkpoint`], returning the new chain's tip: no deltas
/// yet, and the file's length as the budget for the deltas to come. The
/// header and the dump are built in one buffer.
pub(crate) fn write_full<V: Vfs>(
    vfs: &V,
    snap: &EngineSnapshot,
    retain: usize,
) -> Result<ChainTip, DurabilityError> {
    let _timer = relvu_obs::histogram!("durability.checkpoint_ns").timer();
    let seq = snap.seq();
    let mut buf = format!("relvu-ckpt v1 seq {seq} crc {CRC_PLACEHOLDER}\n");
    let body_at = buf.len();
    snap.dump_into(&mut buf);
    let (bytes, crc) = seal(buf, body_at);
    commit_file(vfs, &checkpoint_name(seq), &bytes)?;
    relvu_obs::counter!("durability.checkpoints").inc();
    prune(vfs, retain)?;
    Ok(ChainTip {
        seq,
        crc,
        deltas: 0,
        root_len: bytes.len() as u64,
    })
}

fn push_tuple_line(
    out: &mut String,
    tag: &str,
    t: impl IntoIterator<Item = Value>,
) -> Result<(), DurabilityError> {
    out.push_str(tag);
    push_tuple(out, t)?;
    out.push('\n');
    Ok(())
}

/// Append the delta body of `commits` to `out`, giving up once the body
/// reaches `budget` bytes. Returns whether the whole body, `end` line
/// included, stayed under the budget. The check runs before each
/// commit, so a body given up on overshoots the budget by at most one
/// commit's lines.
///
/// # Errors
/// [`DurabilityError::Encode`] on a row holding a labeled null.
fn encode_delta_body(
    out: &mut String,
    commits: &[Arc<Commit>],
    budget: usize,
) -> Result<bool, DurabilityError> {
    let start = out.len();
    for c in commits {
        if out.len() - start >= budget {
            return Ok(false);
        }
        let _ = writeln!(out, "commit {}", c.seq());
        for t in c.removed() {
            push_tuple_line(out, "del", t.values())?;
        }
        for t in c.added() {
            push_tuple_line(out, "add", t.values())?;
        }
    }
    out.push_str("end\n");
    Ok(out.len() - start < budget)
}

/// Write an incremental checkpoint at `seq` holding the base deltas of
/// `commits` (the commits in `(parent.0, seq]`), chained onto the
/// checkpoint identified by `parent = (seq, crc)`. Returns the new
/// file's body crc (the `parentcrc` for the *next* delta in the chain).
///
/// # Errors
/// [`DurabilityError::Encode`] on a row holding a labeled null;
/// [`DurabilityError::Vfs`] on any storage failure.
pub fn write_delta_checkpoint<V: Vfs>(
    vfs: &V,
    seq: u64,
    commits: &[Arc<Commit>],
    parent: (u64, u64),
    retain: usize,
) -> Result<u64, DurabilityError> {
    write_delta_within(vfs, seq, commits, parent, retain, u64::MAX)
        .map(|crc| crc.expect("an unbounded budget always fits"))
}

/// [`write_delta_checkpoint`] against a byte budget: if the delta body
/// reaches `budget` bytes, nothing is written and `Ok(None)` is
/// returned — the caller writes a full snapshot instead, which is then
/// no larger than the root plus the delta. With the chain root's length
/// as the budget, a delta is written only while it is smaller than the
/// state it describes. The header and body are built in one buffer.
///
/// # Errors
/// As [`write_delta_checkpoint`].
pub(crate) fn write_delta_within<V: Vfs>(
    vfs: &V,
    seq: u64,
    commits: &[Arc<Commit>],
    parent: (u64, u64),
    retain: usize,
    budget: u64,
) -> Result<Option<u64>, DurabilityError> {
    let _timer = relvu_obs::histogram!("durability.checkpoint_ns").timer();
    let mut buf = format!(
        "relvu-ckpt-delta v1 seq {seq} parent {} parentcrc {:016x} crc {CRC_PLACEHOLDER}\n",
        parent.0, parent.1
    );
    let body_at = buf.len();
    let budget = usize::try_from(budget).unwrap_or(usize::MAX);
    if !encode_delta_body(&mut buf, commits, budget)? {
        return Ok(None);
    }
    let (bytes, crc) = seal(buf, body_at);
    commit_file(vfs, &delta_checkpoint_name(seq), &bytes)?;
    relvu_obs::counter!("durability.checkpoints").inc();
    relvu_obs::histogram!("durability.ckpt.delta_bytes").record(bytes.len() as u64);
    prune(vfs, retain)?;
    Ok(Some(crc))
}

/// One delta-checkpoint commit: `(seq, removed, added)`.
type DeltaCommit = (u64, Vec<Tuple>, Vec<Tuple>);

/// Parse a delta checkpoint's body back into its per-commit deltas.
fn parse_delta_body(name: &str, body: &str) -> Result<Vec<DeltaCommit>, DurabilityError> {
    let corrupt = |detail: String| DurabilityError::CorruptCheckpoint {
        name: name.to_string(),
        detail,
    };
    let mut commits: Vec<DeltaCommit> = Vec::new();
    let mut ended = false;
    for line in body.lines() {
        if ended {
            return Err(corrupt("content after `end`".to_string()));
        }
        let (tag, rest) = line.split_once(' ').unwrap_or((line, ""));
        match tag {
            "commit" => {
                let seq: u64 = rest
                    .parse()
                    .map_err(|_| corrupt(format!("bad commit line `{line}`")))?;
                commits.push((seq, Vec::new(), Vec::new()));
            }
            "del" | "add" => {
                let arity = rest.split_whitespace().count();
                let t = parse_tuple(&mut rest.split_whitespace(), arity)
                    .map_err(|_| corrupt(format!("bad tuple line `{line}`")))?;
                let cur = commits
                    .last_mut()
                    .ok_or_else(|| corrupt(format!("`{tag}` before any commit")))?;
                if tag == "del" {
                    cur.1.push(t);
                } else {
                    cur.2.push(t);
                }
            }
            "end" => ended = true,
            _ => return Err(corrupt(format!("unrecognized line `{line}`"))),
        }
    }
    if !ended {
        return Err(corrupt("missing `end` marker".to_string()));
    }
    Ok(commits)
}

/// A fully validated and loaded checkpoint chain.
pub(crate) struct LoadedChain {
    /// The full checkpoint at the chain's root.
    pub(crate) base: String,
    /// Every file loaded, base first.
    pub(crate) chain: Vec<String>,
    /// The chain tip (its seq is the restore point), with the base
    /// file's length.
    pub(crate) tip: ChainTip,
    /// The reconstructed database, resumed at the tip's seq.
    pub(crate) db: Database,
}

/// Validate and load the checkpoint chain ending at `name`: walk parent
/// links back to a full checkpoint (every link must name an existing
/// file whose body crc matches), load the base with its views deferred
/// ([`Database::load_deferred`]), replay each delta's commits onto the
/// base oldest-first, and only then register the views, so each view is
/// built once per recovery whatever the chain's length. Each link is
/// still checked as
/// [`Database::apply_checkpoint_deltas`] checks it — seqs in order,
/// removed rows present, added rows absent, Σ satisfied at the link's
/// end — and a link that fails rejects the whole chain.
///
/// # Errors
/// [`DurabilityError::CorruptCheckpoint`] if any link is missing,
/// mismatched, or fails validation — the caller falls back to the next
/// older restore point; [`DurabilityError::Vfs`] on I/O failure.
pub(crate) fn load_chain<V: Vfs>(vfs: &V, name: &str) -> Result<LoadedChain, DurabilityError> {
    // Walk tip → root, validating each file as we go.
    let mut links: Vec<(String, CkptHeader, String)> = Vec::new();
    let (mut header, mut body) = read_validated(vfs, name)?;
    let mut file = name.to_string();
    loop {
        if links.len() >= MAX_CHAIN_WALK {
            return Err(DurabilityError::CorruptCheckpoint {
                name: file,
                detail: format!("chain exceeds {MAX_CHAIN_WALK} links"),
            });
        }
        links.push((file.clone(), header, body));
        let Some((pseq, pcrc)) = header.parent else {
            break; // reached the full checkpoint at the root
        };
        if pseq > header.seq {
            return Err(DurabilityError::CorruptCheckpoint {
                name: file,
                detail: format!("parent seq {pseq} is ahead of the delta ({})", header.seq),
            });
        }
        // The parent may be a full or a delta checkpoint at `pseq`; the
        // crc pins which one this delta was actually built on.
        let mut found = None;
        for candidate in [checkpoint_name(pseq), delta_checkpoint_name(pseq)] {
            match read_validated(vfs, &candidate) {
                Ok((h, b)) if h.crc == pcrc => {
                    found = Some((candidate, h, b));
                    break;
                }
                // A missing or mismatched candidate just isn't the
                // parent; a corrupt one cannot be it either (its crc is
                // unverifiable). Vfs I/O errors other than not-found
                // are real.
                Ok(_) | Err(DurabilityError::CorruptCheckpoint { .. }) => {}
                Err(DurabilityError::Vfs(crate::error::VfsError::NotFound { .. })) => {}
                Err(e) => return Err(e),
            }
        }
        let Some((pname, ph, pb)) = found else {
            return Err(DurabilityError::CorruptCheckpoint {
                name: file,
                detail: format!("broken chain: no checkpoint at seq {pseq} with crc {pcrc:016x}"),
            });
        };
        file = pname;
        header = ph;
        body = pb;
    }
    // Load base, replay deltas oldest-first.
    links.reverse();
    let (base_name, base_header, base_body) = &links[0];
    let base_corrupt = |e| DurabilityError::CorruptCheckpoint {
        name: base_name.clone(),
        detail: format!("snapshot does not load: {e}"),
    };
    // The views are registered only after the last delta, so each is
    // built once over the final base rather than at load and again
    // after every link.
    let pending = Database::load_deferred(base_body).map_err(base_corrupt)?;
    pending.db().resume_at(base_header.seq)?;
    for (delta_name, delta_header, delta_body) in &links[1..] {
        let commits = parse_delta_body(delta_name, delta_body)?;
        let commits = commits.iter().map(|(s, r, a)| (*s, &r[..], &a[..]));
        pending
            .db()
            .apply_checkpoint_deltas(commits, delta_header.seq)
            .map_err(|e| DurabilityError::CorruptCheckpoint {
                name: delta_name.clone(),
                detail: format!("delta does not apply: {e}"),
            })?;
    }
    let db = pending.finish().map_err(base_corrupt)?;
    let tip = links.last().expect("chain is nonempty");
    relvu_obs::histogram!("durability.ckpt.chain_len").record((links.len() - 1) as u64);
    Ok(LoadedChain {
        base: links[0].0.clone(),
        chain: links.iter().map(|(n, _, _)| n.clone()).collect(),
        tip: ChainTip {
            seq: tip.1.seq,
            crc: tip.1.crc,
            deltas: links.len() - 1,
            root_len: base_header.len,
        },
        db,
    })
}

/// Remove checkpoint chains beyond the retention window, orphaned
/// deltas, and WAL segments wholly below the **oldest retained chain's
/// root**.
///
/// Retention counts *chains*, not files: a full checkpoint and the
/// deltas chained onto it live and die together, because a delta is
/// useless without every ancestor down to its base. The WAL bound is
/// the oldest retained **root** (not tip): recovery falling back past a
/// torn delta restarts replay from an ancestor's seq, so every record
/// above the oldest retained root must stay replayable.
///
/// Files whose headers do not parse are left in place (never delete
/// what we cannot identify) but contribute their name-seq to the WAL
/// bound. If the store holds no full checkpoint at all, pruning is
/// skipped entirely rather than deleting every fallback.
pub(crate) fn prune<V: Vfs>(vfs: &V, retain: usize) -> Result<(), DurabilityError> {
    let retain = retain.max(1);
    let ckpts = list_checkpoints(vfs)?;
    // Read every header once; map (seq, crc) → chain root seq.
    struct Info {
        name: String,
        seq: u64,
        header: Option<CkptHeader>,
    }
    let mut infos = Vec::with_capacity(ckpts.len());
    for (name, seq, _) in &ckpts {
        let header = match vfs.read(name) {
            Ok(bytes) => String::from_utf8(bytes)
                .ok()
                .and_then(|text| parse_header(name, &text).ok().map(|(h, _)| h)),
            Err(crate::error::VfsError::NotFound { .. }) => None,
            Err(e) => return Err(e.into()),
        };
        infos.push(Info {
            name: name.clone(),
            seq: *seq,
            header,
        });
    }
    if !infos
        .iter()
        .any(|i| matches!(i.header, Some(CkptHeader { parent: None, .. })))
    {
        return Ok(()); // no full checkpoint: nothing is safely prunable
    }
    // Resolve each file to its chain root. `infos` is ascending by seq
    // (deltas before a same-seq full), so a delta's parent — strictly
    // older — is already resolved when we reach it.
    let mut root_of: HashMap<(u64, u64), u64> = HashMap::new();
    let mut roots: Vec<u64> = Vec::new();
    let mut member_root: Vec<Option<u64>> = Vec::with_capacity(infos.len());
    for info in &infos {
        let assigned = match info.header {
            Some(h @ CkptHeader { parent: None, .. }) => {
                roots.push(h.seq);
                root_of.insert((h.seq, h.crc), h.seq);
                Some(h.seq)
            }
            Some(h) => {
                let root = h.parent.and_then(|p| root_of.get(&p).copied());
                if let Some(r) = root {
                    root_of.insert((h.seq, h.crc), r);
                }
                root // None → orphan (parent missing/unresolved)
            }
            None => None, // unreadable header: kept, but not a chain
        };
        member_root.push(assigned);
    }
    roots.sort_unstable();
    roots.dedup();
    let retained: &[u64] = &roots[roots.len().saturating_sub(retain)..];
    let oldest_root = retained[0];
    for (info, root) in infos.iter().zip(&member_root) {
        let keep = match (root, &info.header) {
            (Some(r), _) => retained.contains(r),
            // Unreadable header: keep (never delete the unidentified).
            (None, None) => true,
            // Readable but orphaned (parent pruned by an earlier crash
            // mid-prune, or its crc no longer matches): unusable, drop.
            (None, Some(_)) => false,
        };
        if !keep {
            vfs.remove(&info.name)?;
        }
    }
    // A segment is removable iff every record in it has seq <= the
    // bound, i.e. the next segment starts at or below bound + 1
    // (segment names carry their first record's seq). Unreadable files
    // conservatively drag the bound down to their name-seq.
    let bound = infos
        .iter()
        .filter(|i| i.header.is_none())
        .map(|i| i.seq)
        .chain(std::iter::once(oldest_root))
        .min()
        .expect("at least oldest_root");
    let segments = list_segments(vfs)?;
    for window in segments.windows(2) {
        let (ref name, _) = window[0];
        let (_, next_first) = window[1];
        if next_first <= bound + 1 {
            vfs.remove(name)?;
        }
    }
    Ok(())
}

/// A checkpoint successfully read back.
pub struct LoadedCheckpoint {
    /// The file it came from.
    pub name: String,
    /// The sequence number the snapshot reflects.
    pub seq: u64,
    /// The reconstructed database.
    pub db: Database,
}

/// Validate and load the single **full** checkpoint in `name`.
///
/// # Errors
/// [`DurabilityError::CorruptCheckpoint`] if the header, checksum, or
/// snapshot body is bad; [`DurabilityError::Vfs`] on I/O failure.
pub fn load_checkpoint<V: Vfs>(vfs: &V, name: &str) -> Result<LoadedCheckpoint, DurabilityError> {
    let corrupt = |detail: String| DurabilityError::CorruptCheckpoint {
        name: name.to_string(),
        detail,
    };
    let (header, body) = read_validated(vfs, name)?;
    if header.parent.is_some() {
        return Err(corrupt("not a full checkpoint".to_string()));
    }
    let db = Database::load(&body).map_err(|e| corrupt(format!("snapshot does not load: {e}")))?;
    db.resume_at(header.seq)?;
    Ok(LoadedCheckpoint {
        name: name.to_string(),
        seq: header.seq,
        db,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use relvu_engine::Policy;
    use relvu_relation::Tuple;
    use relvu_workload::fixtures;

    fn seeded_db() -> (fixtures::EdmFixture, Database) {
        let f = fixtures::edm();
        let db = Database::new(f.schema.clone(), f.fds.clone(), f.base.clone()).unwrap();
        db.create_view("xy", f.x, Some(f.y), Policy::Exact).unwrap();
        (f, db)
    }

    #[test]
    fn checkpoint_roundtrip_preserves_dump_and_seq() {
        let vfs = MemVfs::new();
        let (_, db) = seeded_db();
        let seq = write_checkpoint(&vfs, &db).unwrap();
        let live = db.snapshot();
        assert_eq!(seq, live.seq());
        let loaded = load_checkpoint(&vfs, &checkpoint_name(seq)).unwrap();
        assert_eq!(loaded.seq, seq);
        let snap = loaded.db.snapshot();
        assert_eq!(snap.dump(), live.dump());
        assert_eq!(snap.seq(), seq);
    }

    #[test]
    fn flipped_body_bit_is_detected() {
        let vfs = MemVfs::new();
        let (_, db) = seeded_db();
        let seq = write_checkpoint(&vfs, &db).unwrap();
        let name = checkpoint_name(seq);
        let len = vfs.read(&name).unwrap().len();
        vfs.flip_bits(&name, len - 3, 0x04);
        match load_checkpoint(&vfs, &name) {
            Err(DurabilityError::CorruptCheckpoint { detail, .. }) => {
                assert!(detail.contains("checksum mismatch"), "got: {detail}");
            }
            Err(other) => panic!("expected CorruptCheckpoint, got {other:?}"),
            Ok(_) => panic!("corrupt checkpoint loaded successfully"),
        }
    }

    #[test]
    fn retention_keeps_only_newest_chains() {
        let vfs = MemVfs::new();
        let (_, db) = seeded_db();
        for _ in 0..4 {
            // Same seq each time would collide; nudge seq forward to get
            // distinct checkpoint files.
            let next = db.snapshot().seq() + 1;
            db.resume_at(next).unwrap();
            write_checkpoint(&vfs, &db).unwrap();
        }
        let ckpts = list_checkpoints(&vfs).unwrap();
        assert_eq!(ckpts.len(), DEFAULT_RETAIN);
        let seqs: Vec<u64> = ckpts.iter().map(|(_, s, _)| *s).collect();
        let now = db.snapshot().seq();
        assert_eq!(seqs, vec![now - 1, now]);
        // The temp file never lingers.
        assert!(!vfs.list().unwrap().contains(&TMP_NAME.to_string()));
    }

    /// Build a chain: full at the current seq, then one delta per
    /// subsequent accepted update. Returns the tip (seq, crc).
    fn grow_chain(
        vfs: &MemVfs,
        f: &fixtures::EdmFixture,
        db: &Database,
        names: &[&str],
        retain: usize,
    ) -> (u64, u64) {
        let (seq, crc) = write_full_checkpoint(vfs, &db.snapshot(), retain).unwrap();
        let mut tip = (seq, crc);
        for n in names {
            let t = Tuple::new([f.dict.sym(n), f.dict.sym("toys")]);
            db.insert_via("xy", t).unwrap();
            let snap = db.snapshot();
            let now = snap.seq();
            let commits = snap.base_deltas_since(tip.0).unwrap();
            let crc = write_delta_checkpoint(vfs, now, &commits, tip, retain).unwrap();
            tip = (now, crc);
        }
        tip
    }

    #[test]
    fn delta_chain_roundtrips_byte_identical() {
        let vfs = MemVfs::new();
        let (f, db) = seeded_db();
        let (tip_seq, _) = grow_chain(&vfs, &f, &db, &["dan", "eve", "fay"], 4);
        // Mix in a removal so swap-remove ordering is exercised.
        let t = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
        db.delete_via("xy", t).unwrap();
        let snap = db.snapshot();
        let now = snap.seq();
        let commits = snap.base_deltas_since(tip_seq).unwrap();
        let tip = (
            tip_seq,
            read_validated(&vfs, &delta_checkpoint_name(tip_seq))
                .unwrap()
                .0
                .crc,
        );
        write_delta_checkpoint(&vfs, now, &commits, tip, 4).unwrap();
        let loaded = load_chain(&vfs, &delta_checkpoint_name(now)).unwrap();
        assert_eq!(loaded.tip.seq, now);
        assert_eq!(loaded.tip.deltas, 4);
        assert_eq!(
            loaded.db.snapshot().dump(),
            db.snapshot().dump(),
            "chain must round-trip byte-identical"
        );
    }

    #[test]
    fn broken_chain_link_is_detected() {
        let vfs = MemVfs::new();
        let (f, db) = seeded_db();
        let (tip_seq, _) = grow_chain(&vfs, &f, &db, &["dan", "eve"], 4);
        // Corrupt the middle delta: the tip's parent crc no longer
        // verifies, so loading the tip must fail (and recovery falls
        // back), not silently skip the link.
        let mid = delta_checkpoint_name(tip_seq - 1);
        let len = vfs.read(&mid).unwrap().len();
        vfs.flip_bits(&mid, len - 2, 0x08);
        match load_chain(&vfs, &delta_checkpoint_name(tip_seq)) {
            Err(DurabilityError::CorruptCheckpoint { detail, .. }) => {
                assert!(detail.contains("broken chain"), "got: {detail}");
            }
            other => panic!("expected broken chain, got {:?}", other.map(|c| c.tip.seq)),
        }
    }

    #[test]
    fn prune_never_orphans_a_retained_chain() {
        // Regression for the chain-orphaning case: with retain = 1 the
        // newest *chain* includes a full checkpoint that is NOT the
        // newest file by seq — naive newest-N-files pruning would
        // delete the base out from under its deltas.
        let vfs = MemVfs::new();
        let (f, db) = seeded_db();
        grow_chain(&vfs, &f, &db, &["dan", "eve"], 1);
        let names: Vec<String> = list_checkpoints(&vfs)
            .unwrap()
            .into_iter()
            .map(|(n, _, _)| n)
            .collect();
        assert!(
            names.iter().any(|n| parse_checkpoint_name(n).is_some()),
            "the chain's base full checkpoint must survive pruning: {names:?}"
        );
        assert_eq!(names.len(), 3, "base + two deltas all retained");
        // The whole chain still loads.
        let tip = names.last().unwrap();
        assert_eq!(
            load_chain(&vfs, tip).unwrap().db.snapshot().dump(),
            db.snapshot().dump()
        );
    }

    #[test]
    fn orphaned_deltas_are_pruned_once_unreachable() {
        let vfs = MemVfs::new();
        let (f, db) = seeded_db();
        grow_chain(&vfs, &f, &db, &["dan"], 8);
        // A fresh full checkpoint starts a new chain; with retain = 1
        // the old chain (full + delta) goes away entirely. Advance the
        // seq with a real commit (a forward `resume_at` jump over a
        // non-empty log is refused — it would mislabel the held
        // entries).
        let t = Tuple::new([f.dict.sym("eve"), f.dict.sym("toys")]);
        db.insert_via("xy", t).unwrap();
        let next = db.snapshot().seq();
        write_full_checkpoint(&vfs, &db.snapshot(), 1).unwrap();
        let ckpts = list_checkpoints(&vfs).unwrap();
        assert_eq!(ckpts.len(), 1);
        assert_eq!(ckpts[0].2, CkptKind::Full);
        assert_eq!(ckpts[0].1, next);
    }
}
