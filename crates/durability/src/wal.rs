//! The append-only write-ahead log: segment files of framed records.
//!
//! Segments are named `wal-<first-seq>.seg` (zero-padded so
//! lexicographic order is sequence order). A segment holds a contiguous
//! run of records starting at the sequence number in its name; rotation
//! starts a new segment once the current one exceeds
//! [`WalOptions::segment_bytes`]. Records are never rewritten — the only
//! mutations are appends, a one-time truncation of a torn tail during
//! recovery, and whole-segment removal below a checkpoint.

use relvu_engine::LogEntry;

use crate::error::{DurabilityError, VfsError};
use crate::record::{self, FrameOutcome};
use crate::vfs::Vfs;

/// When `append` flushes to durable storage.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SyncPolicy {
    /// fsync after every record — an acknowledged update is durable.
    Always,
    /// fsync once the writer has accumulated `n` unsynced records (and
    /// on [`Wal::sync`]); up to `n − 1` acknowledged updates can be
    /// lost to a crash. `EveryN(0)` makes no sense (there is no such
    /// thing as syncing more often than every record) and is normalized
    /// to `EveryN(1)` by [`WalOptions::normalized`], which every
    /// construction path applies.
    EveryN(u64),
    /// Never fsync implicitly; durability only at checkpoints and
    /// explicit [`Wal::sync`] calls.
    Never,
}

/// WAL and restart tuning knobs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct WalOptions {
    /// The sync policy for appended records.
    pub sync: SyncPolicy,
    /// Rotate to a fresh segment once the current one reaches this size.
    pub segment_bytes: u64,
    /// How many checkpoint *chains* (a full checkpoint plus the
    /// incremental deltas built on it) to keep. Pruning removes older
    /// chains whole — never a base a retained delta depends on — and
    /// WAL segments below the oldest retained chain's root. Clamped to
    /// at least 1 by [`WalOptions::normalized`].
    pub retain_checkpoints: usize,
    /// How many incremental deltas may chain onto one full checkpoint
    /// before the next checkpoint is forced full. `0` disables
    /// incremental checkpoints entirely (every checkpoint is full).
    /// Independently of this cap, an incremental checkpoint whose delta
    /// body would reach the byte length of its chain's full root is
    /// written as a full snapshot instead (see
    /// [`crate::DurableDatabase::checkpoint_incremental`]).
    pub max_delta_chain: usize,
    /// Threads for parallel WAL replay during recovery. `0` means use
    /// the machine's available parallelism; `1` forces the sequential
    /// path.
    pub replay_threads: usize,
    /// How many tail records each parallel-replay batch covers. Clamped
    /// to at least 1 by [`WalOptions::normalized`].
    pub replay_chunk: usize,
    /// Log replay progress to stderr every this many records during
    /// recovery (`0` disables), so a long replay is observable.
    pub progress_every: u64,
}

impl WalOptions {
    /// The canonical form of these options: the degenerate
    /// `SyncPolicy::EveryN(0)` is clamped to `EveryN(1)`, zero
    /// checkpoint retention to 1, and a zero replay chunk to 1.
    /// Everything that constructs a writer (or reports options back to
    /// the user) goes through this, so the stored policy, `wal_status`,
    /// and the sync behavior always agree — there is no append-time
    /// patch-up.
    #[must_use]
    pub fn normalized(self) -> Self {
        WalOptions {
            sync: match self.sync {
                SyncPolicy::EveryN(0) => SyncPolicy::EveryN(1),
                other => other,
            },
            retain_checkpoints: self.retain_checkpoints.max(1),
            replay_chunk: self.replay_chunk.max(1),
            ..self
        }
    }
}

impl Default for WalOptions {
    fn default() -> Self {
        WalOptions {
            sync: SyncPolicy::Always,
            segment_bytes: 64 * 1024,
            retain_checkpoints: 2,
            max_delta_chain: 8,
            replay_threads: 0,
            replay_chunk: 512,
            progress_every: 100_000,
        }
    }
}

/// `wal-<seq>.seg`, zero-padded to 20 digits.
pub fn segment_name(first_seq: u64) -> String {
    format!("wal-{first_seq:020}.seg")
}

/// Parse a segment file name back into its first sequence number.
pub fn parse_segment_name(name: &str) -> Option<u64> {
    let digits = name.strip_prefix("wal-")?.strip_suffix(".seg")?;
    if digits.len() != 20 || !digits.bytes().all(|b| b.is_ascii_digit()) {
        return None;
    }
    digits.parse().ok()
}

/// The sorted segment files present in a store.
pub(crate) fn list_segments<V: Vfs>(vfs: &V) -> Result<Vec<(String, u64)>, VfsError> {
    let mut segs: Vec<(String, u64)> = vfs
        .list()?
        .into_iter()
        .filter_map(|n| parse_segment_name(&n).map(|s| (n, s)))
        .collect();
    segs.sort_by_key(|(_, s)| *s);
    Ok(segs)
}

/// The append half of the WAL. One writer exists per durable database;
/// the caller serializes access (see `DurableDatabase`).
pub struct Wal<V: Vfs> {
    vfs: V,
    opts: WalOptions,
    /// Current segment file and its length, if one is open.
    current: Option<(String, u64)>,
    next_seq: u64,
    appends_since_sync: u64,
    records_appended: u64,
    bytes_appended: u64,
    poisoned: bool,
}

impl<V: Vfs> Wal<V> {
    /// A writer that will hand out `next_seq` for its first record,
    /// resuming `current` (segment name and valid length) if given.
    pub(crate) fn new(
        vfs: V,
        opts: WalOptions,
        next_seq: u64,
        current: Option<(String, u64)>,
    ) -> Self {
        Wal {
            vfs,
            opts: opts.normalized(),
            current,
            next_seq,
            appends_since_sync: 0,
            records_appended: 0,
            bytes_appended: 0,
            poisoned: false,
        }
    }

    /// The sequence number the next appended record must carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Records appended through this writer (not counting replayed ones).
    pub fn records_appended(&self) -> u64 {
        self.records_appended
    }

    /// Bytes appended through this writer — the background
    /// checkpointer's size trigger reads this.
    pub fn bytes_appended(&self) -> u64 {
        self.bytes_appended
    }

    /// The current segment file name and length, if a segment is open.
    pub fn current_segment(&self) -> Option<(&str, u64)> {
        self.current.as_ref().map(|(n, l)| (n.as_str(), *l))
    }

    /// The (normalized) options this writer runs under.
    pub fn options(&self) -> WalOptions {
        self.opts
    }

    /// Whether an earlier failure has poisoned this writer.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Poison the writer explicitly. Used when a failure *outside* the
    /// WAL — e.g. a failed post-DDL checkpoint — leaves the in-memory
    /// engine ahead of durable state, so no further appends may be
    /// acknowledged until recovery rebuilds memory from storage.
    pub(crate) fn poison(&mut self) {
        self.poisoned = true;
    }

    /// Append one committed update's log entry.
    ///
    /// The entry's `seq` must be exactly [`Wal::next_seq`]; the WAL is
    /// the serialization point for commit order. On *any* failure —
    /// I/O, a sequence mismatch, or an unencodable entry — the writer
    /// poisons itself: the caller commits to memory before appending, so
    /// every failure here means the in-memory engine may be ahead of the
    /// durable log, and only a fresh recovery can re-establish the
    /// correspondence.
    ///
    /// # Errors
    /// [`DurabilityError::Poisoned`] after any earlier failure;
    /// [`DurabilityError::Encode`] / [`DurabilityError::Vfs`] otherwise.
    pub fn append(&mut self, entry: &LogEntry) -> Result<(), DurabilityError> {
        self.append_group(std::iter::once(entry))
    }

    /// Append a whole commit group's entries, paying the sync policy
    /// **once** at the end instead of per record — the storage half of
    /// group commit. For a single entry this is exactly [`Wal::append`].
    ///
    /// The entries must be contiguous in `seq`, starting at
    /// [`Wal::next_seq`]. Under [`SyncPolicy::Always`] the group is
    /// covered by one fsync before this returns; under
    /// [`SyncPolicy::EveryN`] the fsync debt is settled at the group
    /// boundary whenever it has reached `n`, so at most `n − 1`
    /// records are ever unsynced after a return (the same bound a
    /// per-record check gives at ack time). Rotation still seals the
    /// outgoing segment mid-group, so cross-segment groups never leave
    /// an older segment with unpaid debt.
    ///
    /// # Errors
    /// As [`Wal::append`]; any failure poisons the writer (some of the
    /// group's records may already be in the log — memory is ahead of
    /// durable storage either way).
    pub fn append_group<'a, I>(&mut self, entries: I) -> Result<(), DurabilityError>
    where
        I: IntoIterator<Item = &'a LogEntry>,
    {
        if self.poisoned {
            return Err(DurabilityError::Poisoned);
        }
        for entry in entries {
            self.append_one(entry)?;
        }
        if self.sync_due() {
            if let Err(e) = self.sync_current() {
                self.poisoned = true;
                return Err(e);
            }
        }
        Ok(())
    }

    /// Frame and append a single entry with no policy sync (the caller
    /// settles sync debt at the group boundary).
    fn append_one(&mut self, entry: &LogEntry) -> Result<(), DurabilityError> {
        if entry.seq != self.next_seq {
            // Memory is already off the rails (the engine was mutated
            // outside the durable path); freeze the divergence rather
            // than letting later appends drift it further.
            self.poisoned = true;
            return Err(DurabilityError::Encode {
                detail: format!(
                    "entry seq {} does not follow the WAL (next is {})",
                    entry.seq, self.next_seq
                ),
            });
        }
        let frame = match record::encode(entry) {
            Ok(frame) => frame,
            Err(e) => {
                // The engine has logged the update but the WAL cannot
                // persist it — same divergence, same remedy.
                self.poisoned = true;
                return Err(e);
            }
        };
        let _timer = relvu_obs::histogram!("durability.wal.append_ns").timer();
        // Rotate before the record that would overflow the segment, so a
        // segment's name always matches its first record's seq.
        let rotate = matches!(&self.current, Some((_, len)) if *len >= self.opts.segment_bytes);
        if rotate {
            // Seal the outgoing segment: whatever sync debt it carries is
            // paid now, so recovery can treat older segments as complete.
            if let Err(e) = self.sync_current() {
                self.poisoned = true;
                return Err(e);
            }
            relvu_obs::counter!("durability.wal.rotations").inc();
            self.current = None;
        }
        let (name, len) = match &mut self.current {
            Some(cur) => cur,
            None => {
                self.current = Some((segment_name(entry.seq), 0));
                self.current.as_mut().expect("just set")
            }
        };
        if let Err(e) = self.vfs.append(name, &frame) {
            self.poisoned = true;
            return Err(e.into());
        }
        *len += frame.len() as u64;
        self.bytes_appended += frame.len() as u64;
        relvu_obs::counter!("durability.wal.appends").inc();
        relvu_obs::counter!("durability.wal.bytes").add(frame.len() as u64);
        self.next_seq += 1;
        self.records_appended += 1;
        self.appends_since_sync += 1;
        Ok(())
    }

    /// Whether the accumulated sync debt must be paid at the next group
    /// boundary. `EveryN(0)` cannot occur here: every construction path
    /// normalizes it to `EveryN(1)` (see [`WalOptions::normalized`]).
    fn sync_due(&self) -> bool {
        match self.opts.sync {
            SyncPolicy::Always => self.appends_since_sync > 0,
            SyncPolicy::EveryN(n) => self.appends_since_sync >= n,
            SyncPolicy::Never => false,
        }
    }

    /// Explicitly fsync the current segment (a durability barrier for
    /// the `EveryN` / `Never` policies).
    ///
    /// # Errors
    /// [`DurabilityError::Vfs`] on I/O failure (the writer poisons).
    pub fn sync(&mut self) -> Result<(), DurabilityError> {
        if self.poisoned {
            return Err(DurabilityError::Poisoned);
        }
        if let Err(e) = self.sync_current() {
            self.poisoned = true;
            return Err(e);
        }
        Ok(())
    }

    fn sync_current(&mut self) -> Result<(), DurabilityError> {
        if self.appends_since_sync == 0 {
            return Ok(());
        }
        if let Some((name, _)) = &self.current {
            let _timer = relvu_obs::histogram!("durability.wal.fsync_ns").timer();
            self.vfs.sync(name)?;
            relvu_obs::counter!("durability.wal.fsyncs").inc();
        }
        self.appends_since_sync = 0;
        Ok(())
    }
}

/// A record found by [`scan`], with its location for diagnostics.
#[derive(Debug, Clone)]
pub struct ScannedRecord {
    /// The decoded entry.
    pub entry: LogEntry,
    /// The segment file it lives in.
    pub segment: String,
    /// Its byte offset within the segment.
    pub offset: u64,
}

/// What shape the torn tail has — recovery treats the two differently.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TornKind {
    /// The final frame is incomplete: the buffer ends before the frame
    /// does. This is the signature of an in-flight append at crash time
    /// — the record was never acknowledged, truncating it is safe.
    Incomplete,
    /// The final frame is structurally complete but fails its checksum.
    /// A record this shape *may* have been acknowledged (it reached its
    /// full length) and then rotted; under [`SyncPolicy::Always`]
    /// recovery refuses to truncate it, and under the weaker policies
    /// the truncation is surfaced as potentially-acknowledged loss.
    ChecksumFailed,
}

/// A detected torn tail: a partial (or checksum-failing) final record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TornTail {
    /// The final segment.
    pub segment: String,
    /// Offset of the first torn byte — the segment's valid length.
    pub offset: u64,
    /// Whether the tail is a partial frame or a checksum failure.
    pub kind: TornKind,
}

/// Everything a scan of the log found.
#[derive(Debug)]
pub struct WalScan {
    /// All structurally valid records, in sequence order.
    pub records: Vec<ScannedRecord>,
    /// The torn tail, if the final segment ends mid-record.
    pub torn: Option<TornTail>,
    /// The last segment (name, valid length), if any segments exist —
    /// where an appender should resume.
    pub last_segment: Option<(String, u64)>,
}

/// Read and validate every WAL segment.
///
/// Distinguishes the failure shapes the way recovery needs them
/// distinguished:
///
/// * a **torn tail** — the *final* record of the *final* segment is
///   incomplete or fails its checksum: reported in [`WalScan::torn`]
///   with its [`TornKind`], so recovery can truncate a definite
///   in-flight append but treat a complete-yet-checksum-failed record
///   according to the sync policy (it may have been acknowledged);
/// * **mid-log corruption** — any earlier record is malformed: a hard
///   [`DurabilityError::CorruptRecord`] naming segment and offset,
///   because records after it were acknowledged and must not be
///   silently dropped.
///
/// Sequence numbers must be contiguous within and across segments, and
/// each segment's first record must match the name's sequence number.
///
/// # Errors
/// [`DurabilityError::CorruptRecord`] / [`DurabilityError::SeqGap`] as
/// described; [`DurabilityError::Vfs`] on I/O failure.
pub fn scan<V: Vfs>(vfs: &V) -> Result<WalScan, DurabilityError> {
    let segments = list_segments(vfs)?;
    let mut records = Vec::new();
    let mut torn = None;
    let mut last_segment = None;
    let mut expected_seq: Option<u64> = None;
    let n_segments = segments.len();
    for (seg_index, (name, first_seq)) in segments.into_iter().enumerate() {
        let is_last = seg_index + 1 == n_segments;
        let buf = vfs.read(&name)?;
        let mut offset = 0usize;
        let mut first_in_segment = true;
        while offset < buf.len() {
            let outcome = record::decode_frame(&buf, offset);
            let (seq, payload, end, checksum_ok) = match outcome {
                FrameOutcome::Incomplete => {
                    if is_last {
                        torn = Some(TornTail {
                            segment: name.clone(),
                            offset: offset as u64,
                            kind: TornKind::Incomplete,
                        });
                        break;
                    }
                    return Err(DurabilityError::CorruptRecord {
                        segment: name.clone(),
                        offset: offset as u64,
                        detail: "incomplete record in a non-final segment".to_string(),
                    });
                }
                FrameOutcome::Complete {
                    seq,
                    payload,
                    end,
                    checksum_ok,
                } => (seq, payload, end, checksum_ok),
            };
            if !checksum_ok {
                if is_last && end == buf.len() {
                    // Checksum failure on the very last record of the
                    // final segment. Unlike a partial frame this is NOT
                    // a definite in-flight append: the record reached
                    // its full length, so it may have been acknowledged
                    // and then rotted. Report the distinct kind and let
                    // recovery decide by sync policy.
                    torn = Some(TornTail {
                        segment: name.clone(),
                        offset: offset as u64,
                        kind: TornKind::ChecksumFailed,
                    });
                    break;
                }
                return Err(DurabilityError::CorruptRecord {
                    segment: name.clone(),
                    offset: offset as u64,
                    detail: "checksum mismatch".to_string(),
                });
            }
            if first_in_segment && seq != first_seq {
                return Err(DurabilityError::CorruptRecord {
                    segment: name.clone(),
                    offset: offset as u64,
                    detail: format!(
                        "first record seq {seq} does not match the segment name ({first_seq})"
                    ),
                });
            }
            if let Some(expected) = expected_seq {
                if seq != expected {
                    return Err(DurabilityError::SeqGap {
                        expected,
                        found: seq,
                        segment: name.clone(),
                        offset: offset as u64,
                    });
                }
            }
            // The writer always hands out a successor, so no record
            // holds the last seq; one that does came from elsewhere.
            let Some(next_seq) = seq.checked_add(1) else {
                return Err(DurabilityError::CorruptRecord {
                    segment: name.clone(),
                    offset: offset as u64,
                    detail: format!("record seq {seq} leaves no successor"),
                });
            };
            let entry = record::decode_payload(seq, &buf[payload]).map_err(|detail| {
                DurabilityError::CorruptRecord {
                    segment: name.clone(),
                    offset: offset as u64,
                    detail,
                }
            })?;
            records.push(ScannedRecord {
                entry,
                segment: name.clone(),
                offset: offset as u64,
            });
            expected_seq = Some(next_seq);
            first_in_segment = false;
            offset = end;
        }
        let valid_len = torn.as_ref().map_or(offset as u64, |t| t.offset);
        last_segment = Some((name, valid_len));
    }
    Ok(WalScan {
        records,
        torn,
        last_segment,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vfs::MemVfs;
    use relvu_core::Translation;
    use relvu_engine::UpdateOp;
    use relvu_relation::tup;

    fn entry(seq: u64) -> LogEntry {
        LogEntry {
            seq,
            view: "v".to_string(),
            op: UpdateOp::Insert { t: tup![seq, 1] },
            translation: Translation::InsertJoin { t: tup![seq, 1] },
            rows_before: seq as usize,
            rows_after: seq as usize + 1,
        }
    }

    fn wal_with(vfs: &MemVfs, opts: WalOptions, n: u64) -> Wal<MemVfs> {
        let mut wal = Wal::new(vfs.clone(), opts, 1, None);
        for seq in 1..=n {
            wal.append(&entry(seq)).unwrap();
        }
        wal
    }

    #[test]
    fn append_scan_roundtrip_across_rotations() {
        let vfs = MemVfs::new();
        let opts = WalOptions {
            segment_bytes: 120, // force frequent rotation
            ..WalOptions::default()
        };
        wal_with(&vfs, opts, 10);
        let segs = list_segments(&vfs).unwrap();
        assert!(segs.len() > 1, "rotation must have produced segments");
        let scan = scan(&vfs).unwrap();
        assert_eq!(scan.records.len(), 10);
        assert!(scan.torn.is_none());
        for (i, r) in scan.records.iter().enumerate() {
            assert_eq!(r.entry, entry(i as u64 + 1));
        }
        // Each segment's name matches its first record.
        for (name, first) in segs {
            let first_rec = scan
                .records
                .iter()
                .find(|r| r.segment == name)
                .expect("segment nonempty");
            assert_eq!(first_rec.entry.seq, first);
        }
    }

    #[test]
    fn out_of_order_appends_are_refused_and_poison() {
        let vfs = MemVfs::new();
        let mut wal = wal_with(&vfs, WalOptions::default(), 2);
        assert!(matches!(
            wal.append(&entry(7)),
            Err(DurabilityError::Encode { .. })
        ));
        // The caller's memory is ahead of the log; the writer must
        // freeze rather than let correct-looking appends resume.
        assert!(wal.is_poisoned());
        assert!(matches!(
            wal.append(&entry(3)),
            Err(DurabilityError::Poisoned)
        ));
    }

    #[test]
    fn unencodable_entries_poison_the_writer() {
        let vfs = MemVfs::new();
        let mut wal = wal_with(&vfs, WalOptions::default(), 1);
        let mut bad = entry(2);
        bad.view = "has space".to_string();
        assert!(matches!(
            wal.append(&bad),
            Err(DurabilityError::Encode { .. })
        ));
        assert!(wal.is_poisoned());
    }

    #[test]
    fn torn_tail_is_reported_not_fatal() {
        let vfs = MemVfs::new();
        wal_with(&vfs, WalOptions::default(), 3);
        // Append garbage that looks like the start of a record.
        let (name, _) = list_segments(&vfs).unwrap().pop().unwrap();
        vfs.append(&name, &[0xAB, 0xCD, 0xEF]).unwrap();
        vfs.sync(&name).unwrap();
        let scan = scan(&vfs).unwrap();
        assert_eq!(scan.records.len(), 3);
        let torn = scan.torn.expect("torn tail detected");
        assert_eq!(torn.segment, name);
        assert_eq!(torn.kind, TornKind::Incomplete);
        let (last, valid_len) = scan.last_segment.unwrap();
        assert_eq!(last, torn.segment);
        assert_eq!(valid_len, torn.offset);
    }

    #[test]
    fn checksum_failed_final_record_reports_its_own_kind() {
        let vfs = MemVfs::new();
        wal_with(&vfs, WalOptions::default(), 3);
        let (name, _) = list_segments(&vfs).unwrap().pop().unwrap();
        // Rot the last payload byte: the frame stays complete, so this
        // is NOT an in-flight append and must not look like one.
        let len = vfs.read(&name).unwrap().len();
        vfs.flip_bits(&name, len - 1, 0x01);
        let scan = scan(&vfs).unwrap();
        assert_eq!(scan.records.len(), 2);
        let torn = scan.torn.expect("bad tail detected");
        assert_eq!(torn.kind, TornKind::ChecksumFailed);
    }

    #[test]
    fn mid_log_corruption_is_fatal_with_offset() {
        let vfs = MemVfs::new();
        wal_with(&vfs, WalOptions::default(), 3);
        let (name, _) = &list_segments(&vfs).unwrap()[0];
        // Records 1..3 live in one segment; flip a payload bit of the
        // SECOND record so a valid record follows the corrupt one.
        let buf = vfs.read(name).unwrap();
        let first = match record::decode_frame(&buf, 0) {
            FrameOutcome::Complete { end, .. } => end,
            _ => panic!("first record complete"),
        };
        vfs.flip_bits(name, first + crate::record::FRAME_HEADER + 2, 0x10);
        match scan(&vfs) {
            Err(DurabilityError::CorruptRecord {
                segment, offset, ..
            }) => {
                assert_eq!(&segment, name);
                assert_eq!(offset, first as u64);
            }
            other => panic!("expected CorruptRecord, got {other:?}"),
        }
    }

    #[test]
    fn every_n_zero_is_normalized_at_construction() {
        let raw = WalOptions {
            sync: SyncPolicy::EveryN(0),
            ..WalOptions::default()
        };
        assert_eq!(raw.normalized().sync, SyncPolicy::EveryN(1));
        // Nonzero values and the other policies pass through untouched.
        assert_eq!(
            WalOptions {
                sync: SyncPolicy::EveryN(3),
                ..WalOptions::default()
            }
            .normalized()
            .sync,
            SyncPolicy::EveryN(3)
        );
        assert_eq!(WalOptions::default().normalized(), WalOptions::default());
        // A writer built from the raw options stores — and behaves as —
        // the normalized form: every record is durable at return.
        let vfs = MemVfs::new();
        let mut wal = Wal::new(vfs.clone(), raw, 1, None);
        assert_eq!(wal.options().sync, SyncPolicy::EveryN(1));
        wal.append(&entry(1)).unwrap();
        assert_eq!(scan(&vfs.crash_image()).unwrap().records.len(), 1);
    }

    #[test]
    fn append_group_syncs_once_and_matches_per_record_appends() {
        let vfs = MemVfs::new();
        let mut wal = Wal::new(vfs.clone(), WalOptions::default(), 1, None);
        let entries: Vec<LogEntry> = (1..=5).map(entry).collect();
        wal.append_group(entries.iter()).unwrap();
        // One fsync covered the whole group: everything is durable...
        assert_eq!(scan(&vfs.crash_image()).unwrap().records.len(), 5);
        // ...and the bytes are identical to five per-record appends.
        let per_record = MemVfs::new();
        wal_with(&per_record, WalOptions::default(), 5);
        let name = list_segments(&vfs).unwrap()[0].0.clone();
        assert_eq!(vfs.read(&name).unwrap(), per_record.read(&name).unwrap());
        // Only the group's tail-end fsync ran (1 sync op for 5 appends):
        // 5 appends + 1 sync vs 5 appends + 5 syncs.
        assert_eq!(vfs.write_ops() + 4, per_record.write_ops());
    }

    #[test]
    fn append_group_seals_rotated_segments_mid_group() {
        let vfs = MemVfs::new();
        let opts = WalOptions {
            sync: SyncPolicy::Never,
            segment_bytes: 120,
            ..WalOptions::default()
        };
        let mut wal = Wal::new(vfs.clone(), opts, 1, None);
        let entries: Vec<LogEntry> = (1..=10).map(entry).collect();
        wal.append_group(entries.iter()).unwrap();
        let segs = list_segments(&vfs).unwrap();
        assert!(segs.len() > 1, "rotation must have produced segments");
        // Under Never no group-boundary sync runs, but every segment
        // except the open one was sealed (synced) at rotation: the crash
        // image holds all full segments and none of the open tail.
        let image = vfs.crash_image();
        let durable = scan(&image).unwrap();
        let (open_seg, _) = wal.current_segment().unwrap();
        let first_open_seq = parse_segment_name(open_seg).unwrap();
        assert_eq!(durable.records.len() as u64 + 1, first_open_seq);
    }

    #[test]
    fn every_n_policy_leaves_sync_debt() {
        let vfs = MemVfs::new();
        let opts = WalOptions {
            sync: SyncPolicy::EveryN(4),
            ..WalOptions::default()
        };
        let mut wal = Wal::new(vfs.clone(), opts, 1, None);
        for seq in 1..=6 {
            wal.append(&entry(seq)).unwrap();
        }
        // Records 1–4 were synced by the policy, 5–6 are cache-only.
        let image = vfs.crash_image();
        let scan_durable = scan(&image).unwrap();
        assert_eq!(scan_durable.records.len(), 4);
        // An explicit barrier pays the debt.
        wal.sync().unwrap();
        assert_eq!(scan(&vfs.crash_image()).unwrap().records.len(), 6);
    }
}
