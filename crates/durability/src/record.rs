//! WAL record framing and the `LogEntry` payload codec.
//!
//! Each record is a length-prefixed, checksummed frame:
//!
//! ```text
//! offset  size  field
//! 0       4     payload length (u32 LE)
//! 4       8     sequence number (u64 LE)
//! 12      8     FNV-1a 64 checksum over the first 12 header bytes
//!               followed by the payload (u64 LE)
//! 20      n     payload
//! ```
//!
//! The payload is a single line of space-separated tokens serializing
//! the entry's view, operation, recorded translation, and row counts:
//!
//! ```text
//! view staff op insert 2 5 17 tr insert 2 5 17 rows 3 4
//! view staff op replace 2 5 17 5 18 tr identity rows 4 4
//! ```
//!
//! Values are the engine's raw `u64` constant ids. Labeled nulls never
//! appear in committed updates, so the codec rejects them, as it rejects
//! view names containing whitespace (the dump format shares both
//! restrictions). [`push_tuple`] and [`parse_tuple`] are the one tuple
//! token codec: delta-checkpoint bodies write and read their rows with
//! them too.

use std::fmt::Write as _;

use relvu_core::Translation;
use relvu_engine::{LogEntry, UpdateOp};
use relvu_relation::{Tuple, Value};

use crate::error::DurabilityError;

/// Bytes in a frame header (length + seq + checksum).
pub const FRAME_HEADER: usize = 20;

/// FNV-1a 64-bit over a byte slice, continuing from `state`. Start from
/// [`FNV_OFFSET`].
pub(crate) fn fnv1a(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(0x0000_0100_0000_01B3);
    }
    state
}

/// The FNV-1a 64 offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn err(detail: impl Into<String>) -> DurabilityError {
    DurabilityError::Encode {
        detail: detail.into(),
    }
}

/// Append ` v1 v2 …` — one space-prefixed decimal token per value.
///
/// # Errors
/// [`DurabilityError::Encode`] on a labeled null.
pub(crate) fn push_tuple(
    out: &mut String,
    t: impl IntoIterator<Item = Value>,
) -> Result<(), DurabilityError> {
    for v in t {
        match v {
            Value::Const(c) => {
                let _ = write!(out, " {c}");
            }
            Value::Null(_) => {
                return Err(err("labeled null in a committed update tuple"));
            }
        }
    }
    Ok(())
}

fn encode_payload(entry: &LogEntry) -> Result<String, DurabilityError> {
    if entry.view.is_empty() || entry.view.chars().any(char::is_whitespace) {
        return Err(err(format!(
            "view name `{}` is empty or contains whitespace",
            entry.view
        )));
    }
    let mut out = format!("view {} op", entry.view);
    match &entry.op {
        UpdateOp::Insert { t } => push_kind(&mut out, "insert", &[t])?,
        UpdateOp::Delete { t } => push_kind(&mut out, "delete", &[t])?,
        UpdateOp::Replace { t1, t2 } => push_kind(&mut out, "replace", &[t1, t2])?,
    }
    out.push_str(" tr");
    match &entry.translation {
        Translation::Identity => push_kind(&mut out, "identity", &[])?,
        Translation::InsertJoin { t } => push_kind(&mut out, "insert", &[t])?,
        Translation::DeleteJoin { t } => push_kind(&mut out, "delete", &[t])?,
        Translation::ReplaceJoin { t1, t2 } => push_kind(&mut out, "replace", &[t1, t2])?,
    }
    out.push_str(&format!(" rows {} {}", entry.rows_before, entry.rows_after));
    Ok(out)
}

/// Append ` <kind>`, then — unless there are no tuples — ` <arity>` and
/// the tuples' values; the tuples share the one arity token.
fn push_kind(out: &mut String, kind: &str, tuples: &[&Tuple]) -> Result<(), DurabilityError> {
    out.push(' ');
    out.push_str(kind);
    let Some(arity) = tuples.first().map(|t| t.arity()) else {
        return Ok(());
    };
    if tuples.iter().any(|t| t.arity() != arity) {
        return Err(err(format!("{kind} tuples with different arities")));
    }
    out.push_str(&format!(" {arity}"));
    tuples.iter().try_for_each(|t| push_tuple(out, t.values()))
}

/// Serialize a [`LogEntry`] into a complete frame (header + payload).
///
/// # Errors
/// [`DurabilityError::Encode`] on unserializable entries (whitespace view
/// names, labeled nulls).
pub fn encode(entry: &LogEntry) -> Result<Vec<u8>, DurabilityError> {
    let payload = encode_payload(entry)?;
    let payload = payload.as_bytes();
    let len: u32 = payload
        .len()
        .try_into()
        .map_err(|_| err("payload exceeds u32::MAX bytes"))?;
    let mut frame = Vec::with_capacity(FRAME_HEADER + payload.len());
    frame.extend_from_slice(&len.to_le_bytes());
    frame.extend_from_slice(&entry.seq.to_le_bytes());
    let checksum = fnv1a(fnv1a(FNV_OFFSET, &frame[..12]), payload);
    frame.extend_from_slice(&checksum.to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// One decoding step over a byte buffer.
#[derive(Debug)]
pub enum FrameOutcome {
    /// A structurally complete frame. `checksum_ok` still needs checking.
    Complete {
        /// The sequence number from the header.
        seq: u64,
        /// Payload byte range within the buffer.
        payload: std::ops::Range<usize>,
        /// Offset just past the frame (start of the next one).
        end: usize,
        /// Did the stored checksum match the recomputed one?
        checksum_ok: bool,
    },
    /// The buffer ends before the frame does (torn tail candidate).
    Incomplete,
}

/// Try to decode one frame starting at `offset`.
pub fn decode_frame(buf: &[u8], offset: usize) -> FrameOutcome {
    let rest = &buf[offset..];
    if rest.len() < FRAME_HEADER {
        return FrameOutcome::Incomplete;
    }
    let len = u32::from_le_bytes(rest[0..4].try_into().expect("4 bytes")) as usize;
    let seq = u64::from_le_bytes(rest[4..12].try_into().expect("8 bytes"));
    let stored = u64::from_le_bytes(rest[12..20].try_into().expect("8 bytes"));
    let Some(frame_end) = FRAME_HEADER.checked_add(len) else {
        return FrameOutcome::Incomplete;
    };
    if rest.len() < frame_end {
        return FrameOutcome::Incomplete;
    }
    let payload = &rest[FRAME_HEADER..frame_end];
    let computed = fnv1a(fnv1a(FNV_OFFSET, &rest[..12]), payload);
    FrameOutcome::Complete {
        seq,
        payload: offset + FRAME_HEADER..offset + frame_end,
        end: offset + frame_end,
        checksum_ok: computed == stored,
    }
}

/// Read `arity` value tokens written by [`push_tuple`]. The arity is
/// decoded input, so the values grow with the tokens actually read
/// rather than being allocated up front.
pub(crate) fn parse_tuple<'a>(
    toks: &mut impl Iterator<Item = &'a str>,
    arity: usize,
) -> Result<Tuple, String> {
    let vals: Vec<Value> = toks
        .take(arity)
        .map(|tok| match tok.parse() {
            Ok(v) => Ok(Value::Const(v)),
            Err(_) => Err(format!("bad value `{tok}`")),
        })
        .collect::<Result<_, _>>()?;
    if vals.len() < arity {
        return Err("truncated tuple".to_string());
    }
    Ok(Tuple::new(vals))
}

fn parse_arity<'a>(toks: &mut impl Iterator<Item = &'a str>) -> Result<usize, String> {
    let tok = toks.next().ok_or("missing arity")?;
    tok.parse().map_err(|_| format!("bad arity `{tok}`"))
}

/// Read what [`push_kind`] wrote: the kind token and its tuples (none
/// for `identity`, two for `replace`, one otherwise).
fn parse_kind<'a>(
    toks: &mut impl Iterator<Item = &'a str>,
    what: &str,
) -> Result<(&'a str, std::vec::IntoIter<Tuple>), String> {
    let kind = toks.next().ok_or(format!("missing {what} kind"))?;
    let count = match kind {
        "identity" => 0,
        "insert" | "delete" => 1,
        "replace" => 2,
        other => return Err(format!("unknown {what} kind `{other}`")),
    };
    let mut tuples = Vec::with_capacity(count);
    if count > 0 {
        let n = parse_arity(toks)?;
        for _ in 0..count {
            tuples.push(parse_tuple(toks, n)?);
        }
    }
    Ok((kind, tuples.into_iter()))
}

/// Decode a frame payload back into the entry body. The sequence number
/// comes from the frame header.
///
/// # Errors
/// A human-readable description of the malformation (the caller wraps it
/// into [`DurabilityError::CorruptRecord`] with the record's offset).
pub fn decode_payload(seq: u64, payload: &[u8]) -> Result<LogEntry, String> {
    let text = std::str::from_utf8(payload).map_err(|_| "payload is not UTF-8".to_string())?;
    let mut toks = text.split_whitespace();
    let expect = |toks: &mut std::str::SplitWhitespace<'_>, what: &str| -> Result<(), String> {
        match toks.next() {
            Some(t) if t == what => Ok(()),
            other => Err(format!("expected `{what}`, found {other:?}")),
        }
    };
    expect(&mut toks, "view")?;
    let view = toks.next().ok_or("missing view name")?.to_string();
    expect(&mut toks, "op")?;
    let (kind, mut ts) = parse_kind(&mut toks, "op")?;
    let mut next = || ts.next().ok_or("op kind without its tuple");
    let op = match kind {
        "insert" => UpdateOp::Insert { t: next()? },
        "delete" => UpdateOp::Delete { t: next()? },
        "replace" => UpdateOp::Replace {
            t1: next()?,
            t2: next()?,
        },
        other => return Err(format!("unknown op kind `{other}`")),
    };
    expect(&mut toks, "tr")?;
    let (kind, mut ts) = parse_kind(&mut toks, "translation")?;
    let mut next = || ts.next().ok_or("translation kind without its tuple");
    let translation = match kind {
        "insert" => Translation::InsertJoin { t: next()? },
        "delete" => Translation::DeleteJoin { t: next()? },
        "replace" => Translation::ReplaceJoin {
            t1: next()?,
            t2: next()?,
        },
        // `identity`, the one other kind `parse_kind` accepts.
        _ => Translation::Identity,
    };
    expect(&mut toks, "rows")?;
    let rows_before = parse_arity(&mut toks)?;
    let rows_after = parse_arity(&mut toks)?;
    if toks.next().is_some() {
        return Err("trailing tokens after `rows`".to_string());
    }
    Ok(LogEntry {
        seq,
        view,
        op,
        translation,
        rows_before,
        rows_after,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use relvu_relation::tup;

    fn entry(seq: u64, op: UpdateOp, tr: Translation) -> LogEntry {
        LogEntry {
            seq,
            view: "staff".to_string(),
            op,
            translation: tr,
            rows_before: 3,
            rows_after: 4,
        }
    }

    #[test]
    fn roundtrip_all_shapes() {
        let cases = [
            entry(
                1,
                UpdateOp::Insert { t: tup![5, 17] },
                Translation::InsertJoin { t: tup![5, 17] },
            ),
            entry(
                2,
                UpdateOp::Delete { t: tup![5, 17] },
                Translation::DeleteJoin { t: tup![5, 17] },
            ),
            entry(
                3,
                UpdateOp::Replace {
                    t1: tup![5, 17],
                    t2: tup![5, 18],
                },
                Translation::ReplaceJoin {
                    t1: tup![5, 17],
                    t2: tup![5, 18],
                },
            ),
            entry(
                u64::MAX,
                UpdateOp::Insert { t: tup![5, 17] },
                Translation::Identity,
            ),
        ];
        for e in cases {
            let frame = encode(&e).unwrap();
            match decode_frame(&frame, 0) {
                FrameOutcome::Complete {
                    seq,
                    payload,
                    end,
                    checksum_ok,
                } => {
                    assert!(checksum_ok);
                    assert_eq!(end, frame.len());
                    let back = decode_payload(seq, &frame[payload]).unwrap();
                    assert_eq!(back, e);
                }
                FrameOutcome::Incomplete => panic!("complete frame reported incomplete"),
            }
        }
    }

    #[test]
    fn truncated_frames_are_incomplete() {
        let e = entry(7, UpdateOp::Insert { t: tup![1, 2] }, Translation::Identity);
        let frame = encode(&e).unwrap();
        for cut in 0..frame.len() {
            assert!(
                matches!(decode_frame(&frame[..cut], 0), FrameOutcome::Incomplete),
                "cut at {cut} must be incomplete"
            );
        }
    }

    #[test]
    fn every_single_bit_flip_is_caught() {
        let e = entry(
            9,
            UpdateOp::Replace {
                t1: tup![1, 2],
                t2: tup![1, 3],
            },
            Translation::ReplaceJoin {
                t1: tup![1, 2],
                t2: tup![1, 3],
            },
        );
        let frame = encode(&e).unwrap();
        for byte in 0..frame.len() {
            for bit in 0..8 {
                let mut bad = frame.clone();
                bad[byte] ^= 1 << bit;
                let caught = match decode_frame(&bad, 0) {
                    // Flips in the length field can make the frame run
                    // past the buffer — also detected, as incompleteness.
                    FrameOutcome::Incomplete => true,
                    FrameOutcome::Complete { checksum_ok, .. } => !checksum_ok,
                };
                assert!(caught, "flip at byte {byte} bit {bit} went unnoticed");
            }
        }
    }

    #[test]
    fn unencodable_entries_are_rejected() {
        let mut e = entry(1, UpdateOp::Insert { t: tup![1, 2] }, Translation::Identity);
        e.view = "has space".to_string();
        assert!(matches!(encode(&e), Err(DurabilityError::Encode { .. })));
        let null_entry = LogEntry {
            seq: 1,
            view: "v".to_string(),
            op: UpdateOp::Insert {
                t: Tuple::new([Value::Null(3), Value::Const(1)]),
            },
            translation: Translation::Identity,
            rows_before: 0,
            rows_after: 0,
        };
        assert!(matches!(
            encode(&null_entry),
            Err(DurabilityError::Encode { .. })
        ));
    }

    #[test]
    fn garbled_payloads_report_reasons() {
        assert!(decode_payload(1, b"\xff\xfe").is_err());
        assert!(decode_payload(1, b"view v op insert 2 1").is_err());
        assert!(decode_payload(1, b"view v op insert 1 1 tr identity rows 0 1 extra").is_err());
    }

    #[test]
    fn a_huge_decoded_arity_is_an_error_not_an_allocation() {
        // A payload can pass its checksum and still carry any arity.
        let huge = b"view v op insert 99999999999999999 1 tr identity rows 1 1";
        assert!(decode_payload(1, huge).is_err());
        let huge_tr = b"view v op insert 1 1 tr delete 99999999999999999 1 rows 1 1";
        assert!(decode_payload(1, huge_tr).is_err());
    }
}
