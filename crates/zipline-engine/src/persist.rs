//! Durable shard store + journaled frame log: the engine's crash-recovery
//! layer.
//!
//! A [`ShardedDictionary`] is long-lived shared state — the whole point of
//! GD is that the `identifier → basis` table amortizes over hours of
//! traffic — yet before this module it lived only in memory: any engine
//! restart forced a cold-start snapshot resync, and an interrupted stream
//! was unrecoverable mid-flight. [`EngineStore`] makes the host path
//! restartable by journaling both sides of the engine to disk:
//!
//! * **shard store** (`shards.zsl`) — an append-only log of the
//!   [`DictionaryUpdate`] events every batch produces (the same journal
//!   every stream batch drains via `take_delta`), interleaved with
//!   compacted **checkpoints** carrying a full [`DictionaryState`];
//! * **frame log** (`frames.zfl`) — every compressed batch the stream
//!   emitted (its payloads and the control updates interleaved with them,
//!   one record per batch), each followed by a batch-boundary **commit
//!   marker**.
//!
//! # On-disk format
//!
//! Both files are sequences of the self-checking `len · kind · body · crc`
//! records of [`crate::frame`] (CRC-32 over kind + body, so a torn,
//! truncated or bit-flipped tail never parses as a valid record); the body
//! encodings — integers, bit vectors, updates, the batch body — are that
//! module's too.
//!
//! | file         | kinds                                                   |
//! |--------------|---------------------------------------------------------|
//! | `shards.zsl` | `0x01` header (`"ZLSS"`, version, shard shape) · `0x02` delta (batch, updates) · `0x03` checkpoint (batch, full state) |
//! | `frames.zfl` | `0x11` header (`"ZLFL"`, version) · `0x16` batch (one [`Batch`] body) · `0x14` commit (batch, cumulative bytes in / frames) |
//!
//! A batch record carries its codec byte (`0` = the stream's fixed backend,
//! otherwise the per-batch [`CodecId`] of a self-describing multi-codec
//! stream), so a replay goes through the right decoder after restart. An
//! unknown codec id fails loudly as [`PersistError::Corrupt`].
//!
//! Three more frame-log kinds are **read, never written**: stores written
//! before the batch record framed every payload on its own — `0x12` frame
//! (packet type, bytes), `0x15` tagged frame (codec id, packet type, bytes)
//! and `0x13` control (one update). A crashed stream's journal from that
//! era opens and replays unchanged; new commits append batch records after
//! it.
//!
//! # Commit protocol
//!
//! [`EngineStore::commit_batch`] makes one batch durable in write order:
//! batch record → shard delta (and checkpoint when the cadence is due) →
//! shard flush → commit marker → frame flush; three `write`s in all. The
//! commit marker is the *only* thing that makes a batch count: everything
//! after the last valid commit is, by definition, an interrupted batch and
//! is truncated away on open. A delta record is written for **every** batch
//! (even an empty one), so recovery can prove coverage of each committed
//! batch.
//!
//! # Recovery invariants
//!
//! [`EngineStore::open`] scans both logs, stops each scan at the first
//! record that fails its length or CRC check (the torn tail), and then:
//!
//! 1. the last valid commit marker defines the durable boundary `C`;
//!    journal records after it are truncated (the interrupted batch
//!    re-runs on resume);
//! 2. the dictionary is rebuilt from the newest checkpoint with
//!    `batch <= C`, then the deltas for `checkpoint+1 ..= C` are folded in
//!    via [`ShardedDictionary::apply_update`]; when the checkpoint *is*
//!    batch `C` (a finished, compacted stream, or a caller that
//!    checkpointed that commit) the restored dictionary's future behaviour
//!    is bit-identical (recency order included); a folded restore — a
//!    stream killed mid-flight — is *consistent* (the
//!    `identifier → basis` mapping is exact, recency is approximated) —
//!    [`WarmStart::exact`] reports which one you got;
//! 3. anything structurally impossible fails **loudly** as
//!    [`PersistError::Corrupt`] instead of silently misrestoring:
//!    non-contiguous batch numbers (a duplicated or reordered tail
//!    segment), a shard log that cannot cover a committed batch (a
//!    mid-log bit flip upstream of valid commits), a shard log more than
//!    one batch ahead of the frame log (a frame log that lost commits
//!    mid-file), or a checkpoint whose state fails the dictionary's own
//!    structural validation.
//!
//! # Compaction
//!
//! [`EngineStore::compact`] retires both logs at a quiescent point (e.g.
//! stream finish): the frame log is rewritten as its header plus one
//! **baseline** commit carrying the cumulative counters (its journal
//! entries are already durable downstream, so replaying them on restart
//! would duplicate wire frames), and the shard log as its header plus one
//! checkpoint of the final state. Each rewrite is a temp-file-plus-rename;
//! the frame log goes first, and recovery accepts a first commit with
//! `batch > 1` as a baseline only when no journal records precede it, so
//! a crash between the two renames still restores correctly from the old
//! shard log.
//!
//! Durability defaults to process-crash granularity: records reach the OS
//! in commit order, so killing the writer at any byte offset leaves a
//! recoverable prefix. Opting into [`SyncPolicy::Data`] (via
//! [`StoreOptions::sync`] or `EngineBuilder::sync_policy`) adds `fdatasync`
//! at the two flush points — power-loss durability with no format change.

use std::fs::{File, OpenOptions};
use std::io::{Seek as _, SeekFrom, Write as _};
use std::path::{Path, PathBuf};

use crate::frame::{
    put_bitvec, put_u16, put_u32, put_u64, put_update, record_crc, scan_record, write_record,
    Batch, BatchEvent, BodyReader, FrameError, Scanned,
};
use crate::registry::CodecId;
use crate::shard::{DictionaryState, DictionaryUpdate, ShardState, ShardStats, ShardedDictionary};
use zipline_gd::dictionary::{BasisDictionaryState, DictionaryEntryState};
use zipline_gd::packet::PacketType;
use zipline_gd::CrcEngine;

/// File name of the dictionary event log + checkpoints.
const SHARD_LOG: &str = "shards.zsl";
/// File name of the wire frame journal.
const FRAME_LOG: &str = "frames.zfl";
const SHARD_MAGIC: &[u8; 4] = b"ZLSS";
const FRAME_MAGIC: &[u8; 4] = b"ZLFL";
const FORMAT_VERSION: u16 = 1;
/// Upper bound on one record's payload; anything larger is treated as a
/// torn length field.
const MAX_RECORD_BYTES: usize = 1 << 28;

const KIND_SHARD_HEADER: u8 = 0x01;
const KIND_DELTA: u8 = 0x02;
const KIND_CHECKPOINT: u8 = 0x03;
const KIND_FRAME_HEADER: u8 = 0x11;
// zipline-lint: allow(L002): read-only since the batch record replaced it; a journal written before that still carries it
const KIND_FRAME: u8 = 0x12;
// zipline-lint: allow(L002): read-only since the batch record replaced it; a journal written before that still carries it
const KIND_CONTROL: u8 = 0x13;
const KIND_COMMIT: u8 = 0x14;
// zipline-lint: allow(L002): read-only since the batch record replaced it; a journal written before that still carries it
const KIND_FRAME_TAGGED: u8 = 0x15;
const KIND_BATCH: u8 = 0x16;

/// A durability-layer failure.
#[derive(Debug)]
#[non_exhaustive]
pub enum PersistError {
    /// An OS-level I/O failure, with the operation that hit it.
    Io {
        /// What the store was doing.
        context: String,
        /// The underlying error.
        source: std::io::Error,
    },
    /// The on-disk state is structurally impossible — recovery refuses to
    /// guess rather than silently misrestore.
    Corrupt(String),
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io { context, source } => write!(f, "{context}: {source}"),
            PersistError::Corrupt(msg) => write!(f, "corrupt store: {msg}"),
        }
    }
}

impl std::error::Error for PersistError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PersistError::Io { source, .. } => Some(source),
            PersistError::Corrupt(_) => None,
        }
    }
}

impl From<FrameError> for PersistError {
    /// A CRC-valid record whose body does not parse is corruption.
    fn from(e: FrameError) -> Self {
        PersistError::Corrupt(e.to_string())
    }
}

/// Persistence result alias.
pub type PersistResult<T> = std::result::Result<T, PersistError>;

fn io_err(context: impl Into<String>) -> impl FnOnce(std::io::Error) -> PersistError {
    let context = context.into();
    move |source| PersistError::Io { context, source }
}

fn corrupt(msg: impl Into<String>) -> PersistError {
    PersistError::Corrupt(msg.into())
}

// ---------------------------------------------------------------------------
// Body serialization
// ---------------------------------------------------------------------------

fn put_state(buf: &mut Vec<u8>, state: &DictionaryState) {
    put_u32(buf, state.shard_count as u32);
    put_u32(buf, state.shard_capacity as u32);
    put_u64(buf, state.delta_seq);
    for shard in &state.shards {
        put_u64(buf, shard.clock);
        put_u64(buf, shard.stats.lookups);
        put_u64(buf, shard.stats.hits);
        put_u64(buf, shard.stats.learned);
        put_u64(buf, shard.stats.evictions);
        put_u64(buf, shard.dict.next_fresh);
        put_u64(buf, shard.dict.evictions);
        put_u64(buf, shard.dict.expirations);
        put_u32(buf, shard.dict.released.len() as u32);
        for &id in &shard.dict.released {
            put_u64(buf, id);
        }
        put_u32(buf, shard.dict.entries.len() as u32);
        for entry in &shard.dict.entries {
            put_u64(buf, entry.id);
            put_u64(buf, entry.last_used);
            put_u64(buf, entry.inserted_at);
            put_bitvec(buf, &entry.basis);
        }
    }
}

fn read_state(r: &mut BodyReader<'_>) -> PersistResult<DictionaryState> {
    let shard_count = r.u32()? as usize;
    let shard_capacity = r.u32()? as usize;
    let delta_seq = r.u64()?;
    let mut shards = Vec::with_capacity(shard_count.min(1 << 16));
    for _ in 0..shard_count {
        let clock = r.u64()?;
        let stats = ShardStats {
            lookups: r.u64()?,
            hits: r.u64()?,
            learned: r.u64()?,
            evictions: r.u64()?,
        };
        let next_fresh = r.u64()?;
        let evictions = r.u64()?;
        let expirations = r.u64()?;
        let released_len = r.u32()? as usize;
        let mut released = Vec::with_capacity(released_len.min(1 << 20));
        for _ in 0..released_len {
            released.push(r.u64()?);
        }
        let entry_len = r.u32()? as usize;
        let mut entries = Vec::with_capacity(entry_len.min(1 << 20));
        for _ in 0..entry_len {
            entries.push(DictionaryEntryState {
                id: r.u64()?,
                last_used: r.u64()?,
                inserted_at: r.u64()?,
                basis: r.bitvec()?,
            });
        }
        shards.push(ShardState {
            clock,
            stats,
            dict: BasisDictionaryState {
                entries,
                next_fresh,
                released,
                evictions,
                expirations,
            },
        });
    }
    Ok(DictionaryState {
        shard_count,
        shard_capacity,
        delta_seq,
        shards,
    })
}

/// The body both log headers start with: magic, then the format version.
fn read_log_header(r: &mut BodyReader<'_>, magic: &[u8; 4], log: &str) -> PersistResult<()> {
    if r.take(4)? != magic {
        return Err(corrupt(format!("{log} log magic mismatch")));
    }
    let version = r.u16()?;
    if version != FORMAT_VERSION {
        return Err(corrupt(format!(
            "{log} log format version {version} unsupported"
        )));
    }
    Ok(())
}

// ---------------------------------------------------------------------------
// Record framing
// ---------------------------------------------------------------------------

/// One CRC-validated record located in a scanned log.
struct RawRecord<'a> {
    kind: u8,
    body: &'a [u8],
    /// Byte offset one past the record's trailing CRC.
    end: usize,
}

/// Scans a log, returning every CRC-valid record up to the first invalid
/// one (the torn-tail truncation point).
fn scan_log<'a>(data: &'a [u8], crc: &CrcEngine) -> Vec<RawRecord<'a>> {
    let mut records = Vec::new();
    let mut offset = 0usize;
    while let Some(Scanned::Record { kind, body, len }) = data
        .get(offset..)
        .map(|rest| scan_record(crc, rest, MAX_RECORD_BYTES))
    {
        offset += len;
        records.push(RawRecord {
            kind,
            body,
            end: offset,
        });
    }
    records
}

/// Seals one record into `buf` (recycled) and appends it to `file`.
fn append_record(
    file: &mut File,
    crc: &CrcEngine,
    buf: &mut Vec<u8>,
    kind: u8,
    context: &str,
    body: impl FnOnce(&mut Vec<u8>),
) -> PersistResult<()> {
    buf.clear();
    write_record(crc, buf, kind, body);
    file.write_all(buf).map_err(io_err(context))
}

fn put_shard_header(body: &mut Vec<u8>, shard_count: usize, shard_capacity: usize) {
    body.extend_from_slice(SHARD_MAGIC);
    put_u16(body, FORMAT_VERSION);
    put_u32(body, shard_count as u32);
    put_u32(body, shard_capacity as u32);
}

fn put_frame_header(body: &mut Vec<u8>) {
    body.extend_from_slice(FRAME_MAGIC);
    put_u16(body, FORMAT_VERSION);
}

fn put_checkpoint(body: &mut Vec<u8>, batch: u64, state: &DictionaryState) {
    put_u64(body, batch);
    put_state(body, state);
}

fn put_commit(body: &mut Vec<u8>, batch: u64, bytes_in: u64, frames: u64) {
    put_u64(body, batch);
    put_u64(body, bytes_in);
    put_u64(body, frames);
}

// ---------------------------------------------------------------------------
// The store
// ---------------------------------------------------------------------------

/// How far a commit's durability reaches before [`EngineStore::commit_batch`]
/// returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SyncPolicy {
    /// Flush to the OS at the two commit flush points (the default):
    /// records reach the kernel in commit order, so durability covers
    /// **process crash** — a kill at any byte offset leaves a recoverable
    /// prefix — but not power loss.
    #[default]
    Flush,
    /// Additionally `fdatasync` at the same two flush points (and on
    /// checkpoint/compaction writes, with a directory sync after each
    /// compaction rename): durability covers **power loss**. The on-disk
    /// format is unchanged; this is purely a write-barrier upgrade.
    Data,
}

/// Tuning knobs of an [`EngineStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StoreOptions {
    /// The cadence [`EngineStore::checkpoint_due`] answers by: a full-state
    /// checkpoint every `checkpoint_cadence` committed batches. A checkpoint
    /// makes its commit exactly recoverable (bit-identical future
    /// behaviour); between checkpoints recovery folds the deltas
    /// (*consistent*). Only a caller that drives
    /// [`EngineStore::commit_batch`] itself consults it: a
    /// [`PipelinedStream`](crate::PipelinedStream) commits every batch
    /// without a checkpoint and compacts to one at `finish`, whatever the
    /// cadence.
    pub checkpoint_cadence: u64,
    /// Crash-durability reach of each commit; see [`SyncPolicy`].
    pub sync: SyncPolicy,
}

impl Default for StoreOptions {
    fn default() -> Self {
        Self {
            checkpoint_cadence: 1,
            sync: SyncPolicy::Flush,
        }
    }
}

/// One replayable entry of the durable frame journal, in emission order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CommittedEntry {
    /// A wire payload the stream emitted.
    Frame {
        /// The payload's packet type.
        packet_type: PacketType,
        /// The per-batch codec tag for self-describing streams; `None`
        /// for a fixed-backend stream's untagged frames.
        codec: Option<CodecId>,
        /// The payload bytes.
        bytes: Vec<u8>,
    },
    /// An interleaved control-plane dictionary update.
    Control(DictionaryUpdate),
}

/// Everything [`EngineStore::open`] recovered: the rehydrated dictionary
/// state, the durable position, and the committed wire journal for replay.
#[derive(Debug)]
pub struct WarmStart {
    /// Full dictionary state as of batch [`Self::batches`].
    pub dictionary: DictionaryState,
    /// Number of durably committed batches.
    pub batches: u64,
    /// Cumulative input bytes consumed by those batches — the resume
    /// offset into the original input.
    pub bytes_in: u64,
    /// Cumulative wire frames committed.
    pub frames: u64,
    /// Every committed frame and control update, in emission order (batch
    /// records expanded). A resumed run's output appended to this list is
    /// the uninterrupted stream.
    pub committed: Vec<CommittedEntry>,
    /// True when the dictionary was restored from a checkpoint taken at
    /// exactly the commit boundary (bit-identical future behaviour);
    /// false when deltas were folded in (`identifier → basis` mapping
    /// exact, recency approximated — lossless under live sync, but wire
    /// bytes may diverge from an uninterrupted run after resume).
    pub exact: bool,
}

/// The file-backed durability layer: an append-only shard store
/// (`shards.zsl`) plus a journaled frame log (`frames.zfl`) under one
/// directory. See the module docs for the format and recovery invariants.
#[derive(Debug)]
pub struct EngineStore {
    dir: PathBuf,
    shard_log: File,
    frame_log: File,
    shard_count: usize,
    shard_capacity: usize,
    options: StoreOptions,
    batches: u64,
    bytes_in: u64,
    frames: u64,
    /// Recycled framed-record buffer.
    record: Vec<u8>,
    crc: CrcEngine,
}

impl EngineStore {
    /// Creates a fresh store under `dir` (created if missing), truncating
    /// any previous logs there.
    pub fn create(
        dir: impl AsRef<Path>,
        shard_count: usize,
        shard_capacity: usize,
    ) -> PersistResult<Self> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir).map_err(io_err(format!(
            "creating store directory {}",
            dir.display()
        )))?;
        let crc = record_crc();
        let mut record = Vec::new();

        let mut shard_log = open_log(&dir.join(SHARD_LOG), true)?;
        append_record(
            &mut shard_log,
            &crc,
            &mut record,
            KIND_SHARD_HEADER,
            "writing shard log header",
            |body| put_shard_header(body, shard_count, shard_capacity),
        )?;
        let mut frame_log = open_log(&dir.join(FRAME_LOG), true)?;
        append_record(
            &mut frame_log,
            &crc,
            &mut record,
            KIND_FRAME_HEADER,
            "writing frame log header",
            put_frame_header,
        )?;

        Ok(Self {
            dir,
            shard_log,
            frame_log,
            shard_count,
            shard_capacity,
            options: StoreOptions::default(),
            batches: 0,
            bytes_in: 0,
            frames: 0,
            record,
            crc,
        })
    }

    /// True when `dir` holds a store's log files.
    pub fn exists(dir: impl AsRef<Path>) -> bool {
        let dir = dir.as_ref();
        dir.join(SHARD_LOG).is_file() && dir.join(FRAME_LOG).is_file()
    }

    /// Opens an existing store, recovering to the last durable batch
    /// boundary: torn tails are truncated, the dictionary is rehydrated
    /// from the newest covered checkpoint plus delta fold, and anything
    /// structurally impossible fails loudly ([`PersistError::Corrupt`])
    /// rather than silently misrestoring. Returns `None` for the warm
    /// start when the store has never committed anything.
    pub fn open(dir: impl AsRef<Path>) -> PersistResult<(Self, Option<WarmStart>)> {
        let dir = dir.as_ref().to_path_buf();
        let crc = record_crc();

        let frame_path = dir.join(FRAME_LOG);
        let shard_path = dir.join(SHARD_LOG);
        let frame_bytes = std::fs::read(&frame_path)
            .map_err(io_err(format!("reading {}", frame_path.display())))?;
        let shard_bytes = std::fs::read(&shard_path)
            .map_err(io_err(format!("reading {}", shard_path.display())))?;

        // ---- frame log: find the durable boundary C ----
        let frame_records = scan_log(&frame_bytes, &crc);
        let Some((header, journal)) = frame_records
            .split_first()
            .filter(|(first, _)| first.kind == KIND_FRAME_HEADER)
        else {
            return Err(corrupt("frame log header missing or torn"));
        };
        {
            let mut r = BodyReader::new(header.body, "frame log header");
            read_log_header(&mut r, FRAME_MAGIC, "frame")?;
            r.finish()?;
        }
        let mut committed: Vec<CommittedEntry> = Vec::new();
        let mut pending: Vec<CommittedEntry> = Vec::new();
        let mut pending_frames = 0u64;
        let mut commit_batch = 0u64;
        let mut bytes_in = 0u64;
        let mut frames = 0u64;
        let mut have_commit = false;
        let mut frame_keep_end = header.end;
        for rec in journal {
            match rec.kind {
                KIND_BATCH => {
                    let batch = Batch::decode(BodyReader::new(rec.body, "batch record"))?;
                    let codec = batch.codec();
                    pending.extend(batch.events().map(|event| match event {
                        BatchEvent::Update(update) => CommittedEntry::Control(update.clone()),
                        BatchEvent::Payload(packet_type, bytes) => CommittedEntry::Frame {
                            packet_type,
                            codec,
                            bytes: bytes.to_vec(),
                        },
                    }));
                    pending_frames += batch.payload_count();
                }
                KIND_FRAME | KIND_FRAME_TAGGED => {
                    let mut r = BodyReader::new(rec.body, "frame record");
                    let codec = if rec.kind == KIND_FRAME_TAGGED {
                        r.codec()?
                    } else {
                        None
                    };
                    let packet_type = r.packet_type()?;
                    let len = r.u32()? as usize;
                    let bytes = r.take(len)?.to_vec();
                    r.finish()?;
                    pending.push(CommittedEntry::Frame {
                        packet_type,
                        codec,
                        bytes,
                    });
                    pending_frames += 1;
                }
                KIND_CONTROL => {
                    let mut r = BodyReader::new(rec.body, "control record");
                    let update = r.update()?;
                    r.finish()?;
                    pending.push(CommittedEntry::Control(update));
                }
                KIND_COMMIT => {
                    let mut r = BodyReader::new(rec.body, "commit record");
                    let batch = r.u64()?;
                    let cum_bytes = r.u64()?;
                    let cum_frames = r.u64()?;
                    r.finish()?;
                    if !have_commit && batch != 1 {
                        // A compaction baseline: the journal was retired
                        // down to its header plus one commit carrying the
                        // pre-compaction counters verbatim. Valid only as
                        // the log's very first record — journal entries in
                        // front of it mean the file was spliced.
                        if !pending.is_empty() {
                            return Err(corrupt(format!(
                                "frame log baseline commit for batch {batch} preceded by \
                                 journal records — duplicated or reordered tail segment"
                            )));
                        }
                    } else {
                        if batch != commit_batch + 1 {
                            return Err(corrupt(format!(
                                "frame log commit for batch {batch} follows batch {commit_batch} \
                                 — duplicated or reordered tail segment"
                            )));
                        }
                        if cum_bytes < bytes_in || cum_frames != frames + pending_frames {
                            return Err(corrupt(format!(
                                "frame log commit for batch {batch} disagrees with the journal \
                                 ({cum_frames} frames claimed, {} recorded)",
                                frames + pending_frames
                            )));
                        }
                    }
                    have_commit = true;
                    commit_batch = batch;
                    bytes_in = cum_bytes;
                    frames = cum_frames;
                    committed.append(&mut pending);
                    pending_frames = 0;
                    frame_keep_end = rec.end;
                }
                other => {
                    return Err(corrupt(format!(
                        "unexpected record kind {other:#x} in frame log"
                    )));
                }
            }
        }
        // Entries in `pending` belong to the interrupted batch and are
        // dropped with the truncation below.

        // ---- shard log: rebuild the dictionary up to C ----
        let shard_records = scan_log(&shard_bytes, &crc);
        let Some((header, journal)) = shard_records
            .split_first()
            .filter(|(first, _)| first.kind == KIND_SHARD_HEADER)
        else {
            return Err(corrupt("shard log header missing or torn"));
        };
        let (shard_count, shard_capacity) = {
            let mut r = BodyReader::new(header.body, "shard log header");
            read_log_header(&mut r, SHARD_MAGIC, "shard")?;
            let counts = (r.u32()? as usize, r.u32()? as usize);
            r.finish()?;
            counts
        };
        let mut last_batch: Option<u64> = None;
        let mut checkpoint: Option<(u64, DictionaryState)> = None;
        let mut deltas: Vec<(u64, Vec<DictionaryUpdate>)> = Vec::new();
        let mut shard_keep_end = header.end;
        for rec in journal {
            match rec.kind {
                KIND_DELTA => {
                    let mut r = BodyReader::new(rec.body, "delta record");
                    let batch = r.u64()?;
                    let count = r.u32()? as usize;
                    let mut updates = Vec::with_capacity(count.min(1 << 20));
                    for _ in 0..count {
                        updates.push(r.update()?);
                    }
                    r.finish()?;
                    let expected = last_batch.map_or(1, |b| b + 1);
                    if batch != expected {
                        return Err(corrupt(format!(
                            "shard log delta for batch {batch} where batch {expected} was \
                             expected — duplicated or reordered tail segment"
                        )));
                    }
                    last_batch = Some(batch);
                    if batch <= commit_batch {
                        deltas.push((batch, updates));
                        shard_keep_end = rec.end;
                    }
                }
                KIND_CHECKPOINT => {
                    let mut r = BodyReader::new(rec.body, "checkpoint record");
                    let batch = r.u64()?;
                    let state = read_state(&mut r)?;
                    r.finish()?;
                    match last_batch {
                        None => last_batch = Some(batch),
                        Some(b) if b == batch => {}
                        Some(b) => {
                            return Err(corrupt(format!(
                                "checkpoint for batch {batch} interleaved at batch {b} — \
                                 duplicated or reordered tail segment"
                            )));
                        }
                    }
                    if batch <= commit_batch {
                        checkpoint = Some((batch, state));
                        shard_keep_end = rec.end;
                    }
                }
                other => {
                    return Err(corrupt(format!(
                        "unexpected record kind {other:#x} in shard log"
                    )));
                }
            }
        }
        // A shard log more than one batch ahead of the last commit means
        // the frame log lost commit markers mid-file (a valid delta can
        // only outrun the commit by the one interrupted batch).
        if let Some(b) = last_batch {
            if b > commit_batch + 1 {
                return Err(corrupt(format!(
                    "shard log covers batch {b} but the frame log's last commit is batch \
                     {commit_batch} — the frame log lost committed records"
                )));
            }
        }

        // ---- rehydrate ----
        let (start_batch, mut dict, mut exact) = match &checkpoint {
            Some((batch, state)) => {
                if state.shard_count != shard_count || state.shard_capacity != shard_capacity {
                    return Err(corrupt(format!(
                        "checkpoint shape {}x{} disagrees with the store header {}x{}",
                        state.shard_count, state.shard_capacity, shard_count, shard_capacity
                    )));
                }
                let dict = ShardedDictionary::from_state(state)
                    .map_err(|e| corrupt(format!("checkpoint state rejected: {e}")))?;
                (*batch, dict, true)
            }
            None => {
                let dict = ShardedDictionary::new(shard_count * shard_capacity, shard_count)
                    .map_err(|e| corrupt(format!("store header shape rejected: {e}")))?;
                (0, dict, true)
            }
        };
        for wanted in start_batch + 1..=commit_batch {
            let Some((_, updates)) = deltas.iter().find(|(b, _)| *b == wanted) else {
                return Err(corrupt(format!(
                    "shard store cannot cover committed batch {wanted}: no delta record \
                     survives for it"
                )));
            };
            for update in updates {
                dict.apply_update(update)
                    .map_err(|e| corrupt(format!("folding batch {wanted}: {e}")))?;
            }
            exact = false;
        }

        // ---- truncate both logs to the recovered boundary ----
        let mut shard_log = open_log(&shard_path, false)?;
        shard_log
            .set_len(shard_keep_end as u64)
            .map_err(io_err("truncating shard log tail"))?;
        shard_log
            .seek(SeekFrom::End(0))
            .map_err(io_err("seeking shard log end"))?;
        let mut frame_log = open_log(&frame_path, false)?;
        frame_log
            .set_len(frame_keep_end as u64)
            .map_err(io_err("truncating frame log tail"))?;
        frame_log
            .seek(SeekFrom::End(0))
            .map_err(io_err("seeking frame log end"))?;

        let warm = if commit_batch == 0 && checkpoint.is_none() {
            None
        } else {
            Some(WarmStart {
                dictionary: dict.export_state(),
                batches: commit_batch,
                bytes_in,
                frames,
                committed,
                exact,
            })
        };
        Ok((
            Self {
                dir,
                shard_log,
                frame_log,
                shard_count,
                shard_capacity,
                options: StoreOptions::default(),
                batches: commit_batch,
                bytes_in,
                frames,
                record: Vec::new(),
                crc,
            },
            warm,
        ))
    }

    /// [`Self::open`] when the store exists, [`Self::create`] otherwise.
    pub fn open_or_create(
        dir: impl AsRef<Path>,
        shard_count: usize,
        shard_capacity: usize,
    ) -> PersistResult<(Self, Option<WarmStart>)> {
        if Self::exists(&dir) {
            Self::open(dir)
        } else {
            Ok((Self::create(dir, shard_count, shard_capacity)?, None))
        }
    }

    /// The store directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Shard count recorded in the store header.
    pub fn shard_count(&self) -> usize {
        self.shard_count
    }

    /// Per-shard identifier capacity recorded in the store header.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Number of durably committed batches.
    pub fn batches_committed(&self) -> u64 {
        self.batches
    }

    /// Cumulative input bytes across committed batches.
    pub fn bytes_in_committed(&self) -> u64 {
        self.bytes_in
    }

    /// Cumulative wire frames across committed batches.
    pub fn frames_committed(&self) -> u64 {
        self.frames
    }

    /// The tuning knobs.
    pub fn options(&self) -> StoreOptions {
        self.options
    }

    /// Replaces the tuning knobs.
    pub fn set_options(&mut self, options: StoreOptions) {
        self.options = options;
    }

    /// True when the *next* [`Self::commit_batch`] should carry a
    /// full-state checkpoint under the configured cadence.
    pub fn checkpoint_due(&self) -> bool {
        let cadence = self.options.checkpoint_cadence.max(1);
        (self.batches + 1).is_multiple_of(cadence)
    }

    /// Makes one batch durable: `batch` is its wire form (payloads in
    /// emission order, the interleaved dictionary updates, the codec tag of
    /// a self-describing multi-codec stream), `state` the full dictionary
    /// state *after* the batch when a checkpoint is due (see
    /// [`Self::checkpoint_due`]), and `input_len` the input bytes the batch
    /// consumed. Write order — batch record, shard delta (+ checkpoint),
    /// shard flush, commit marker, frame flush — guarantees a crash at any
    /// point leaves a recoverable prefix ending at a batch boundary.
    pub fn commit_batch(
        &mut self,
        batch: &Batch,
        state: Option<&DictionaryState>,
        input_len: u64,
    ) -> PersistResult<()> {
        let number = self.batches + 1;
        let bytes_in = self.bytes_in + input_len;
        let frames = self.frames + batch.payload_count();

        append_record(
            &mut self.frame_log,
            &self.crc,
            &mut self.record,
            KIND_BATCH,
            "writing batch record",
            |body| batch.encode_into(body),
        )?;

        // Shard store: the batch's delta (always, even when empty, so
        // recovery can prove coverage), then the checkpoint when due — one
        // write for both.
        self.record.clear();
        write_record(&self.crc, &mut self.record, KIND_DELTA, |body| {
            put_u64(body, number);
            put_u32(body, batch.updates().len() as u32);
            for update in batch.updates() {
                put_update(body, update);
            }
        });
        if let Some(state) = state {
            write_record(&self.crc, &mut self.record, KIND_CHECKPOINT, |body| {
                put_checkpoint(body, number, state)
            });
        }
        self.shard_log
            .write_all(&self.record)
            .map_err(io_err("writing delta record"))?;
        self.shard_log
            .flush()
            .map_err(io_err("flushing shard log"))?;
        sync_file(self.options.sync, &self.shard_log, "syncing shard log")?;

        // The commit marker makes the batch count.
        append_record(
            &mut self.frame_log,
            &self.crc,
            &mut self.record,
            KIND_COMMIT,
            "writing commit record",
            |body| put_commit(body, number, bytes_in, frames),
        )?;
        self.frame_log
            .flush()
            .map_err(io_err("flushing frame log"))?;
        sync_file(self.options.sync, &self.frame_log, "syncing frame log")?;

        self.batches = number;
        self.bytes_in = bytes_in;
        self.frames = frames;
        Ok(())
    }

    /// Appends a full-state checkpoint at the current batch boundary
    /// (outside the commit path — e.g. at stream finish).
    pub fn checkpoint(&mut self, state: &DictionaryState) -> PersistResult<()> {
        let batches = self.batches;
        append_record(
            &mut self.shard_log,
            &self.crc,
            &mut self.record,
            KIND_CHECKPOINT,
            "writing checkpoint record",
            |body| put_checkpoint(body, batches, state),
        )?;
        self.shard_log
            .flush()
            .map_err(io_err("flushing shard log"))?;
        sync_file(self.options.sync, &self.shard_log, "syncing shard log")
    }

    /// Compacts the store: atomically rewrites `frames.zfl` as its header
    /// plus one *baseline* commit carrying the current counters (the
    /// replayable journal is retired — everything before the baseline is
    /// already durable downstream), then rewrites `shards.zsl` as its
    /// header plus one checkpoint of `state` at the current batch
    /// boundary. Each rewrite goes through a temp file and rename; the
    /// frame log goes first so a crash between the two renames leaves a
    /// baseline commit plus the old shard log, which recovery handles (the
    /// checkpoint and deltas at or below the baseline batch still cover
    /// it). Call after a checkpoint-worthy quiescent point (e.g. stream
    /// finish) to bound log growth.
    pub fn compact(&mut self, state: &DictionaryState) -> PersistResult<()> {
        let (batches, bytes_in, frames) = (self.batches, self.bytes_in, self.frames);
        self.record.clear();
        write_record(
            &self.crc,
            &mut self.record,
            KIND_FRAME_HEADER,
            put_frame_header,
        );
        write_record(&self.crc, &mut self.record, KIND_COMMIT, |body| {
            put_commit(body, batches, bytes_in, frames)
        });
        self.frame_log = self.replace_log(FRAME_LOG, "frame")?;

        let (shard_count, shard_capacity) = (self.shard_count, self.shard_capacity);
        self.record.clear();
        write_record(&self.crc, &mut self.record, KIND_SHARD_HEADER, |body| {
            put_shard_header(body, shard_count, shard_capacity)
        });
        write_record(&self.crc, &mut self.record, KIND_CHECKPOINT, |body| {
            put_checkpoint(body, batches, state)
        });
        self.shard_log = self.replace_log(SHARD_LOG, "shard")?;
        Ok(())
    }

    /// Atomically replaces log `name` with the records staged in
    /// `self.record` (temp file, sync, rename, directory sync) and returns
    /// the new file, positioned for appending.
    fn replace_log(&self, name: &str, log: &str) -> PersistResult<File> {
        let tmp_path = self.dir.join(format!("{name}.tmp"));
        let mut tmp = open_log(&tmp_path, true)?;
        tmp.write_all(&self.record)
            .map_err(io_err(format!("writing compacted {log} log")))?;
        tmp.flush()
            .map_err(io_err(format!("flushing compacted {log} log")))?;
        sync_file(self.options.sync, &tmp, "syncing compacted log")?;
        drop(tmp);
        let path = self.dir.join(name);
        std::fs::rename(&tmp_path, &path)
            .map_err(io_err(format!("renaming compacted {log} log into place")))?;
        sync_dir(self.options.sync, &self.dir)?;
        let mut file = open_log(&path, false)?;
        file.seek(SeekFrom::End(0))
            .map_err(io_err(format!("seeking compacted {log} log end")))?;
        Ok(file)
    }
}

/// Applies the store's [`SyncPolicy`] to one file: a no-op under `Flush`
/// (the caller already flushed to the OS), an `fdatasync` under `Data`.
fn sync_file(policy: SyncPolicy, file: &File, context: &'static str) -> PersistResult<()> {
    match policy {
        SyncPolicy::Flush => Ok(()),
        SyncPolicy::Data => file.sync_data().map_err(io_err(context)),
    }
}

/// Under [`SyncPolicy::Data`], syncs the directory so a rename performed
/// inside it is itself power-loss durable; no-op under `Flush`.
fn sync_dir(policy: SyncPolicy, dir: &Path) -> PersistResult<()> {
    match policy {
        SyncPolicy::Flush => Ok(()),
        SyncPolicy::Data => File::open(dir)
            .and_then(|d| d.sync_all())
            .map_err(io_err("syncing store directory")),
    }
}

/// Opens a log file for appending; `truncate` starts it fresh.
fn open_log(path: &Path, truncate: bool) -> PersistResult<File> {
    OpenOptions::new()
        .read(true)
        .write(true)
        .create(true)
        .truncate(truncate)
        .open(path)
        .map_err(io_err(format!("opening {}", path.display())))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CODEC_DEFLATE;
    use zipline_gd::BitVec;

    fn temp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("zipline-persist-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn basis(seed: u8) -> BitVec {
        BitVec::from_bytes(&[seed; 4])
    }

    /// A batch of `payloads` with `updates` placed among them by `at`.
    fn batch_of(
        payloads: &[(PacketType, &[u8])],
        codec: Option<CodecId>,
        updates: &[DictionaryUpdate],
    ) -> Batch {
        let mut batch = Batch::default();
        batch.set_codec(codec);
        for (packet_type, bytes) in payloads {
            batch.push_payload(*packet_type, bytes);
        }
        batch.place_updates(updates.to_vec());
        batch
    }

    /// What [`EngineStore::open`] must expand `batch` into.
    fn entries_of(batch: &Batch) -> Vec<CommittedEntry> {
        batch
            .events()
            .map(|event| match event {
                BatchEvent::Update(update) => CommittedEntry::Control(update.clone()),
                BatchEvent::Payload(packet_type, bytes) => CommittedEntry::Frame {
                    packet_type,
                    codec: batch.codec(),
                    bytes: bytes.to_vec(),
                },
            })
            .collect()
    }

    /// A 2x4 dictionary driven through some churn, exported.
    fn churned_state() -> DictionaryState {
        let mut dict = ShardedDictionary::new(8, 2).unwrap();
        dict.set_journal(true);
        for i in 0..20u8 {
            let b = basis(i);
            let hash = b.hash_words();
            let shard = dict.shard_of_hash(hash);
            dict.classify_at(shard, &b, hash, i as u64).unwrap();
        }
        let _ = dict.take_delta();
        dict.export_state()
    }

    /// Classifies `bases` into `dict` at positions 0.., returning the delta.
    fn learn(
        dict: &mut ShardedDictionary,
        bases: impl Iterator<Item = u8>,
    ) -> Vec<DictionaryUpdate> {
        for (at, seed) in bases.enumerate() {
            let b = basis(seed);
            let hash = b.hash_words();
            let shard = dict.shard_of_hash(hash);
            dict.classify_at(shard, &b, hash, at as u64).unwrap();
        }
        dict.take_delta().updates
    }

    #[test]
    fn state_serialization_roundtrips() {
        let state = churned_state();
        let mut buf = Vec::new();
        put_state(&mut buf, &state);
        let mut r = BodyReader::new(&buf, "test state");
        let back = read_state(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, state);
    }

    /// Exhaustiveness companion to the workspace lint's L002 rule: two
    /// committed batches carrying a delta, a checkpoint, payloads and
    /// control updates must leave every kind the store writes on disk —
    /// and none of the three it only reads. A kind added to the format
    /// without flowing through `commit_batch` (or without coverage here)
    /// fails this test or the lint.
    #[test]
    fn every_written_kind_appears_on_disk_after_a_full_commit() {
        let dir = temp_dir("kinds");
        let mut store = EngineStore::create(&dir, 2, 4).unwrap();
        let mut dict = ShardedDictionary::new(8, 2).unwrap();
        dict.set_journal(true);
        let updates = learn(&mut dict, 0..4);
        assert!(!updates.is_empty());
        let state = dict.export_state();
        let payloads: [(PacketType, &[u8]); 4] = [(PacketType::Uncompressed, &[7; 3]); 4];
        store
            .commit_batch(&batch_of(&payloads, None, &updates), Some(&state), 64)
            .unwrap();
        store
            .commit_batch(
                &batch_of(&payloads[..1], Some(CODEC_DEFLATE), &[]),
                Some(&state),
                64,
            )
            .unwrap();
        drop(store);

        let crc = record_crc();
        let mut kinds = std::collections::BTreeSet::new();
        for log in [SHARD_LOG, FRAME_LOG] {
            let data = std::fs::read(dir.join(log)).unwrap();
            let raw = scan_log(&data, &crc);
            assert_eq!(
                raw.last().map(|r| r.end),
                Some(data.len()),
                "{log} has a torn tail"
            );
            kinds.extend(raw.iter().map(|r| r.kind));
        }
        assert_eq!(
            kinds.into_iter().collect::<Vec<_>>(),
            [
                KIND_SHARD_HEADER,
                KIND_DELTA,
                KIND_CHECKPOINT,
                KIND_FRAME_HEADER,
                KIND_COMMIT,
                KIND_BATCH,
            ]
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn create_commit_reopen_recovers_everything() {
        let dir = temp_dir("roundtrip");
        let mut store = EngineStore::create(&dir, 2, 4).unwrap();
        assert!(store.checkpoint_due());

        let mut dict = ShardedDictionary::new(8, 2).unwrap();
        dict.set_journal(true);
        let mut expected = Vec::new();
        for round in 0..3u8 {
            let updates = learn(&mut dict, round * 4..round * 4 + 4);
            let codec = (round == 1).then_some(CODEC_DEFLATE);
            let batch = batch_of(
                &[
                    (PacketType::Uncompressed, &[round; 3]),
                    (PacketType::Compressed, &[round; 2]),
                    (PacketType::Compressed, &[round + 1; 2]),
                    (PacketType::Raw, &[round; 1]),
                ],
                codec,
                &updates,
            );
            let state = dict.export_state();
            store.commit_batch(&batch, Some(&state), 128).unwrap();
            expected.extend(entries_of(&batch));
        }
        assert_eq!(store.batches_committed(), 3);
        assert_eq!(store.bytes_in_committed(), 384);
        assert_eq!(store.frames_committed(), 12);
        let final_state = dict.export_state();
        drop(store);

        let (store, warm) = EngineStore::open(&dir).unwrap();
        let warm = warm.expect("committed batches imply a warm start");
        assert_eq!(store.batches_committed(), 3);
        assert_eq!(warm.batches, 3);
        assert_eq!(warm.bytes_in, 384);
        assert_eq!(warm.frames, 12);
        assert!(warm.exact, "cadence-1 checkpoints restore exactly");
        assert_eq!(warm.dictionary, final_state);
        // Payloads and control updates come back expanded, in emission
        // order: every update ahead of the payload at its position, the
        // middle batch's payloads under its codec tag.
        assert_eq!(warm.committed, expected);
        assert!(matches!(
            warm.committed.first(),
            Some(CommittedEntry::Control(_))
        ));
        assert!(warm.committed.iter().any(|e| matches!(
            e,
            CommittedEntry::Frame { codec: Some(id), .. } if *id == CODEC_DEFLATE
        )));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Stores written before the batch record framed every payload and
    /// update on its own. Such a journal — here written record by record,
    /// as `commit_batch` used to — still opens, expands to the same
    /// entries, and takes batch records after it.
    #[test]
    fn journals_of_per_payload_records_still_open_and_grow() {
        let dir = temp_dir("legacy");
        drop(EngineStore::create(&dir, 1, 8).unwrap());
        let crc = record_crc();
        let mut buf = Vec::new();
        let mut dict = ShardedDictionary::new(8, 1).unwrap();
        dict.set_journal(true);
        let updates = learn(&mut dict, 0..2);
        let old = [
            batch_of(
                &[
                    (PacketType::Uncompressed, &[1; 6]),
                    (PacketType::Uncompressed, &[2; 6]),
                ],
                None,
                &updates,
            ),
            batch_of(&[(PacketType::Raw, &[3; 9])], Some(CODEC_DEFLATE), &[]),
        ];
        let mut frame_log = open_log(&dir.join(FRAME_LOG), false).unwrap();
        frame_log.seek(SeekFrom::End(0)).unwrap();
        let mut shard_log = open_log(&dir.join(SHARD_LOG), false).unwrap();
        shard_log.seek(SeekFrom::End(0)).unwrap();
        let mut frames = 0u64;
        for (number, batch) in (1u64..).zip(&old) {
            for entry in entries_of(batch) {
                match entry {
                    CommittedEntry::Control(update) => append_record(
                        &mut frame_log,
                        &crc,
                        &mut buf,
                        KIND_CONTROL,
                        "legacy control",
                        |body| put_update(body, &update),
                    ),
                    CommittedEntry::Frame {
                        packet_type,
                        codec,
                        bytes,
                    } => append_record(
                        &mut frame_log,
                        &crc,
                        &mut buf,
                        if codec.is_some() {
                            KIND_FRAME_TAGGED
                        } else {
                            KIND_FRAME
                        },
                        "legacy frame",
                        |body| {
                            body.extend(codec.map(CodecId::as_u8));
                            body.push(packet_type.number());
                            put_u32(body, bytes.len() as u32);
                            body.extend_from_slice(&bytes);
                        },
                    ),
                }
                .unwrap();
            }
            append_record(
                &mut shard_log,
                &crc,
                &mut buf,
                KIND_DELTA,
                "legacy delta",
                |body| {
                    put_u64(body, number);
                    put_u32(body, batch.updates().len() as u32);
                    batch.updates().for_each(|update| put_update(body, update));
                },
            )
            .unwrap();
            frames += batch.payload_count();
            append_record(
                &mut frame_log,
                &crc,
                &mut buf,
                KIND_COMMIT,
                "legacy commit",
                |body| put_commit(body, number, number * 64, frames),
            )
            .unwrap();
        }
        drop((frame_log, shard_log));

        let mut expected: Vec<_> = old.iter().flat_map(entries_of).collect();
        let (mut store, warm) = EngineStore::open(&dir).unwrap();
        let warm = warm.expect("two committed batches");
        assert_eq!((warm.batches, warm.frames, warm.bytes_in), (2, 3, 128));
        assert_eq!(warm.committed, expected);
        let restored = ShardedDictionary::from_state(&warm.dictionary).unwrap();
        assert_eq!(restored.snapshot().entries, dict.snapshot().entries);

        let next = batch_of(&[(PacketType::Compressed, &[4; 2])], None, &[]);
        store.commit_batch(&next, None, 32).unwrap();
        drop(store);
        expected.extend(entries_of(&next));
        let (_, warm) = EngineStore::open(&dir).unwrap();
        let warm = warm.unwrap();
        assert_eq!((warm.batches, warm.frames, warm.bytes_in), (3, 4, 160));
        assert_eq!(warm.committed, expected);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_tails_truncate_to_the_last_commit() {
        let dir = temp_dir("torn");
        let mut store = EngineStore::create(&dir, 1, 8).unwrap();
        let mut dict = ShardedDictionary::new(8, 1).unwrap();
        dict.set_journal(true);
        let mut batches = Vec::new();
        for round in 0..2u8 {
            let updates = learn(&mut dict, round * 2..round * 2 + 2);
            let batch = batch_of(
                &[
                    (PacketType::Uncompressed, &[round; 5]),
                    (PacketType::Uncompressed, &[round + 7; 5]),
                    (PacketType::Raw, &[round; 4]),
                ],
                None,
                &updates,
            );
            store
                .commit_batch(&batch, Some(&dict.export_state()), 4)
                .unwrap();
            batches.push(batch);
        }
        drop(store);

        let frame_path = dir.join(FRAME_LOG);
        let shard_path = dir.join(SHARD_LOG);
        let full = std::fs::read(&frame_path).unwrap();
        let shard_full = std::fs::read(&shard_path).unwrap();
        // header, batch 1, commit 1, batch 2, commit 2.
        let ends: Vec<usize> = scan_log(&full, &record_crc())
            .iter()
            .map(|r| r.end)
            .collect();
        assert_eq!(ends.len(), 5);
        assert!(ends[3] - ends[2] > 60, "batch 2 is a record of some size");

        // Chop bytes off the frame log at every offset. A cut anywhere
        // inside batch 2's record or its commit marker (a crash mid-batch-2)
        // recovers to exactly batch 1; deeper cuts destroy records the
        // shard log proves were committed, which must be loud — never a
        // silent rollback.
        for cut in (0..=full.len()).rev() {
            std::fs::write(&frame_path, &full[..cut]).unwrap();
            match EngineStore::open(&dir) {
                Ok((store, warm)) => {
                    let survivors = if cut == full.len() { 2 } else { 1 };
                    assert!(cut >= ends[2], "cut {cut} reached into committed batch 1");
                    assert_eq!(store.batches_committed(), survivors, "cut {cut}");
                    let expected: Vec<_> = batches[..survivors as usize]
                        .iter()
                        .flat_map(entries_of)
                        .collect();
                    assert_eq!(warm.unwrap().committed, expected, "cut {cut}");
                    assert_eq!(
                        std::fs::metadata(&frame_path).unwrap().len() as usize,
                        ends[2 * survivors as usize],
                        "cut {cut}: the torn tail is truncated away"
                    );
                }
                Err(PersistError::Corrupt(_)) => {
                    assert!(
                        cut < ends[2],
                        "cut {cut} only tore the interrupted batch and must recover"
                    );
                }
                Err(e) => panic!("unexpected error: {e}"),
            }
            // Restore for the next iteration (open() itself truncates).
            std::fs::write(&shard_path, &shard_full).unwrap();
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A batch record whose CRC holds but whose body does not parse was
    /// written wrong, not torn: loud, typed, and bounded by the record's
    /// own length whatever its counts claim.
    #[test]
    fn a_committed_batch_record_that_does_not_parse_is_corrupt() {
        let hostile: [(&str, Vec<u8>); 4] = [
            // codec 0, no updates, one run: type 3, len 0, count 2^63.
            (
                "empty payload run",
                vec![
                    0, 0, 1, 3, 0, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01,
                ],
            ),
            ("unknown codec id 238", vec![0xEE, 0, 0]),
            ("unknown packet type 9", vec![0, 0, 1, 9, 1, 1, 0]),
            ("payload bytes", vec![0, 0, 1, 3, 1, 1, 0, 0]),
        ];
        for (needle, body) in hostile {
            let dir = temp_dir("hostile");
            let mut store = EngineStore::create(&dir, 1, 8).unwrap();
            store.commit_batch(&Batch::default(), None, 0).unwrap();
            drop(store);
            let mut log = open_log(&dir.join(FRAME_LOG), false).unwrap();
            log.seek(SeekFrom::End(0)).unwrap();
            let mut buf = Vec::new();
            append_record(
                &mut log,
                &record_crc(),
                &mut buf,
                KIND_BATCH,
                "hostile",
                |b| b.extend_from_slice(&body),
            )
            .unwrap();
            drop(log);
            match EngineStore::open(&dir) {
                Err(PersistError::Corrupt(msg)) => {
                    assert!(msg.contains(needle), "expected {needle:?} in: {msg}")
                }
                other => panic!("expected corruption naming {needle:?}, got {other:?}"),
            }
            let _ = std::fs::remove_dir_all(&dir);
        }
    }

    #[test]
    fn corrupted_shard_record_under_valid_commits_fails_loudly() {
        let dir = temp_dir("corrupt");
        let mut store = EngineStore::create(&dir, 1, 8).unwrap();
        let mut dict = ShardedDictionary::new(8, 1).unwrap();
        dict.set_journal(true);
        for round in 0..2u8 {
            let updates = learn(&mut dict, round..round + 1);
            // No checkpoint: recovery must lean on the delta records.
            store
                .commit_batch(
                    &batch_of(&[(PacketType::Raw, &[round])], None, &updates),
                    None,
                    1,
                )
                .unwrap();
        }
        drop(store);

        // Flip one byte inside the first delta record's body. The scan
        // stops there, the frame log still claims two commits, and open()
        // must refuse rather than misrestore.
        let shard_path = dir.join(SHARD_LOG);
        let mut bytes = std::fs::read(&shard_path).unwrap();
        let (header_end, delta_end) = {
            let records = scan_log(&bytes, &record_crc());
            assert_eq!(records[1].kind, KIND_DELTA);
            (records[0].end, records[1].end)
        };
        bytes[(header_end + delta_end) / 2] ^= 0xFF;
        std::fs::write(&shard_path, &bytes).unwrap();
        match EngineStore::open(&dir) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("cannot cover committed batch"), "got: {msg}");
            }
            other => panic!("expected loud corruption error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn duplicated_tail_segment_fails_loudly() {
        let dir = temp_dir("dup");
        let mut store = EngineStore::create(&dir, 1, 8).unwrap();
        store
            .commit_batch(&batch_of(&[(PacketType::Raw, &[9, 9])], None, &[]), None, 2)
            .unwrap();
        drop(store);

        // Duplicate the frame log's tail (the last commit record): the
        // repeated batch number is structurally impossible.
        let frame_path = dir.join(FRAME_LOG);
        let mut bytes = std::fs::read(&frame_path).unwrap();
        let start = {
            let records = scan_log(&bytes, &record_crc());
            assert_eq!(records.last().unwrap().kind, KIND_COMMIT);
            records[records.len() - 2].end
        };
        let tail = bytes[start..].to_vec();
        bytes.extend_from_slice(&tail);
        std::fs::write(&frame_path, &bytes).unwrap();
        match EngineStore::open(&dir) {
            Err(PersistError::Corrupt(msg)) => {
                assert!(msg.contains("duplicated or reordered"), "got: {msg}");
            }
            other => panic!("expected loud corruption error, got {other:?}"),
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn stale_checkpoint_plus_newer_deltas_folds_consistently() {
        let dir = temp_dir("fold");
        let mut store = EngineStore::create(&dir, 2, 4).unwrap();
        store.set_options(StoreOptions {
            checkpoint_cadence: 2,
            ..StoreOptions::default()
        });
        let mut dict = ShardedDictionary::new(8, 2).unwrap();
        dict.set_journal(true);
        for round in 0..3u8 {
            let updates = learn(&mut dict, round..round + 1);
            let state = store.checkpoint_due().then(|| dict.export_state());
            store
                .commit_batch(
                    &batch_of(&[(PacketType::Raw, &[round])], None, &updates),
                    state.as_ref(),
                    1,
                )
                .unwrap();
        }
        drop(store);

        let (_, warm) = EngineStore::open(&dir).unwrap();
        let warm = warm.unwrap();
        assert_eq!(warm.batches, 3);
        assert!(
            !warm.exact,
            "batch 3 has no checkpoint; the delta was folded"
        );
        // The id → basis mapping must match the original exactly.
        let restored = ShardedDictionary::from_state(&warm.dictionary).unwrap();
        assert_eq!(restored.snapshot().entries, dict.snapshot().entries);
        assert_eq!(warm.dictionary.delta_seq, dict.delta_seq());
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn compaction_preserves_recovery() {
        let dir = temp_dir("compact");
        let mut store = EngineStore::create(&dir, 1, 8).unwrap();
        let mut dict = ShardedDictionary::new(8, 1).unwrap();
        dict.set_journal(true);
        for round in 0..2u8 {
            let updates = learn(&mut dict, round..round + 1);
            let state = dict.export_state();
            store
                .commit_batch(
                    &batch_of(&[(PacketType::Raw, &[round])], None, &updates),
                    Some(&state),
                    1,
                )
                .unwrap();
        }
        let final_state = dict.export_state();
        store.compact(&final_state).unwrap();
        let compacted_len = std::fs::metadata(dir.join(SHARD_LOG)).unwrap().len();
        drop(store);

        let (store, warm) = EngineStore::open(&dir).unwrap();
        let warm = warm.unwrap();
        assert_eq!(warm.batches, 2);
        assert!(warm.exact);
        assert_eq!(warm.dictionary, final_state);
        assert!(warm.committed.is_empty(), "the journal was retired");
        assert_eq!(
            std::fs::metadata(dir.join(SHARD_LOG)).unwrap().len(),
            compacted_len,
            "open() keeps the compacted log intact"
        );
        drop(store);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn data_sync_policy_commits_checkpoints_and_compacts_identically() {
        let flush_dir = temp_dir("sync-flush");
        let data_dir = temp_dir("sync-data");
        let mut warms = Vec::new();
        for (dir, sync) in [
            (&flush_dir, SyncPolicy::Flush),
            (&data_dir, SyncPolicy::Data),
        ] {
            let mut store = EngineStore::create(dir, 1, 8).unwrap();
            store.set_options(StoreOptions {
                sync,
                ..StoreOptions::default()
            });
            assert_eq!(store.options().sync, sync);
            let mut dict = ShardedDictionary::new(8, 1).unwrap();
            dict.set_journal(true);
            for round in 0..3u8 {
                let updates = learn(&mut dict, round..round + 1);
                let state = dict.export_state();
                store
                    .commit_batch(
                        &batch_of(&[(PacketType::Raw, &[round])], None, &updates),
                        Some(&state),
                        1,
                    )
                    .unwrap();
            }
            let final_state = dict.export_state();
            store.checkpoint(&final_state).unwrap();
            store.compact(&final_state).unwrap();
            drop(store);
            let (_store, warm) = EngineStore::open(dir).unwrap();
            warms.push(warm.expect("committed batches imply a warm start"));
        }
        let data = warms.pop().unwrap();
        let flush = warms.pop().unwrap();
        assert_eq!(flush.batches, data.batches);
        assert_eq!(flush.bytes_in, data.bytes_in);
        assert_eq!(flush.dictionary, data.dictionary);
        assert_eq!(flush.committed.len(), data.committed.len());
        assert!(data.exact, "SyncPolicy::Data must not change recovery");
        let _ = std::fs::remove_dir_all(&flush_dir);
        let _ = std::fs::remove_dir_all(&data_dir);
    }
}
