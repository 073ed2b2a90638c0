//! Durability for the view-update engine: write-ahead logging, atomic
//! checkpoints, and crash recovery — with a deterministic
//! fault-injection harness to prove them.
//!
//! The paper's engine ([`relvu_engine`]) translates view updates into
//! base updates under a constant complement and applies them in memory.
//! This crate makes those accepted updates survive process crashes:
//!
//! * [`Vfs`] — a small storage trait with two backends: [`StdVfs`]
//!   (real files, fsync, atomic rename) and [`MemVfs`] (in-memory, with
//!   a scripted [`FaultPlan`] of crash points, short writes, and bit
//!   flips, plus a [`MemVfs::crash_image`] that models exactly what an
//!   OS page cache would have persisted);
//! * the WAL ([`Wal`], [`scan`]) — an append-only log of the engine's
//!   accepted-update [`relvu_engine::LogEntry`] records, length-prefixed
//!   and FNV-checksummed, rotated across segments, synced per
//!   [`SyncPolicy`];
//! * checkpoints ([`write_checkpoint`], [`load_checkpoint`]) — full
//!   `relvu-dump v1` snapshots committed by the temp/fsync/rename
//!   protocol, plus **incremental** checkpoints
//!   ([`write_delta_checkpoint`]): delta files holding only the
//!   per-commit base changes since the previous checkpoint, chained by
//!   `(parent seq, parent crc)` back to a full root. Retention is
//!   counted in *chains* ([`WalOptions::retain_checkpoints`]) and WAL
//!   segments are pruned only below the oldest retained chain's root,
//!   so every retained fallback keeps a complete replay tail. A
//!   background checkpointer
//!   ([`DurableDatabase::start_background_checkpointer`]) writes
//!   deltas off the commit path from a pinned MVCC snapshot, triggered
//!   by WAL growth or checkpoint age;
//! * group commit (the `group` module, driven by
//!   [`DurableDatabase::apply`] / [`DurableDatabase::apply_batch`]) —
//!   concurrent committers stage validated updates into a commit queue;
//!   a leader drains it, appends every frame, and pays the sync policy
//!   **once** for the whole group, so fsyncs/record drops below 1 under
//!   concurrency while an ack still means exactly what the policy
//!   promises;
//! * recovery ([`DurableDatabase::recover`]) — latest valid checkpoint
//!   *chain* (a broken delta link falls back to the next older restore
//!   point) plus WAL replay *through the live translators* (each
//!   replayed record must reproduce the translation recorded at commit
//!   time). Replay is parallel when [`WalOptions::replay_threads`]
//!   allows: the tail is partitioned into footprint-disjoint groups,
//!   verified concurrently, and committed in sequence order, so the
//!   recovered state is byte-identical to sequential replay. Torn
//!   tails truncated, mid-log corruption refused with an offset,
//!   and the paper's invariants re-checked on the result
//!   ([`check_invariants`]). A complete final record that fails its
//!   checksum is *not* treated as torn under [`SyncPolicy::Always`]
//!   (it was fsynced before acknowledgement, so that shape is media
//!   corruption and is refused); under the weaker policies it is
//!   truncated but surfaced via
//!   [`RecoveryReport::possibly_lost_acknowledged_record`].
//!
//! The crash-matrix acceptance test (in the workspace `tests/`
//! directory) runs a scripted workload once per possible crash point
//! and asserts recovery yields exactly the durable prefix — the
//! durability contract, checked exhaustively.
//!
//! ```
//! use relvu_durability::{DurableDatabase, MemVfs, WalOptions};
//! use relvu_engine::{Database, Policy, UpdateOp};
//! use relvu_relation::Tuple;
//! use relvu_workload::fixtures;
//!
//! let f = fixtures::edm();
//! let db = Database::new(f.schema, f.fds, f.base).unwrap();
//! db.create_view("staff", f.x, Some(f.y), Policy::Exact).unwrap();
//!
//! let vfs = MemVfs::new();
//! let ddb = DurableDatabase::create(vfs.clone(), db, WalOptions::default()).unwrap();
//! let t = Tuple::new([f.dict.sym("dan"), f.dict.sym("toys")]);
//! ddb.apply("staff", UpdateOp::Insert { t }).unwrap();
//!
//! // A crash now loses nothing: recover from the durable image.
//! let image = vfs.crash_image();
//! let (recovered, report) = DurableDatabase::recover(image, WalOptions::default()).unwrap();
//! assert_eq!(report.records_replayed, 1);
//! // Queries pin one snapshot through the read-only reader; mutation
//! // must go through the durable wrappers.
//! let (got, want) = (recovered.reader().snapshot(), ddb.reader().snapshot());
//! assert_eq!(got.dump(), want.dump());
//! assert_eq!(got.seq(), 1);
//! ```

#![warn(missing_docs)]

mod checkpoint;
mod durable;
mod error;
mod group;
mod record;
mod recover;
mod vfs;
mod wal;

pub use checkpoint::{
    checkpoint_name, delta_checkpoint_name, load_checkpoint, parse_checkpoint_name,
    parse_delta_checkpoint_name, write_checkpoint, write_delta_checkpoint, write_full_checkpoint,
    CkptKind, LoadedCheckpoint, DEFAULT_RETAIN,
};
pub use durable::{BgCheckpoint, DurableDatabase, WalStatus};
pub use error::{DurabilityError, VfsError};
pub use record::{decode_frame, decode_payload, encode, FrameOutcome, FRAME_HEADER};
pub use recover::{check_invariants, RecoveryReport};
pub use vfs::{FaultPlan, MemVfs, PartialSync, ShortWrite, StdVfs, Vfs, VfsResult};
pub use wal::{
    parse_segment_name, scan, segment_name, ScannedRecord, SyncPolicy, TornKind, TornTail, Wal,
    WalOptions, WalScan,
};
