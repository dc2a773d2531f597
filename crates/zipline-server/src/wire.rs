//! Framed wire protocol for the ZipLine ingest server (wire **v5**).
//!
//! The framing is the record discipline of `zipline_engine::frame`, the
//! one the durable store's logs use: every record on the socket is
//!
//! ```text
//! record  := len:u32le payload crc:u32le
//! payload := kind:u8 body
//! ```
//!
//! where `len` counts the payload bytes (kind byte included) and `crc` is a
//! CRC-32 (polynomial `0x04C1_1DB7`) over the payload. A reader therefore
//! needs no protocol state to reframe a byte stream: it reads `len`, takes
//! that many payload bytes, and verifies the trailing CRC. Anything that does
//! not parse — a zero or oversized length, a short read, a CRC mismatch, an
//! unknown kind — is a loud [`WireError`]; the codec never panics on foreign
//! bytes and never silently accepts a damaged frame.
//!
//! # Record kinds
//!
//! One record family: a connection carries flows, and every flow-scoped
//! record names its flow with a [`FlowKey`] directly after the kind byte —
//! tenant then flow, each an unsigned LEB128 varint of at most ten bytes,
//! so the small ids real sessions use (a classic stream is tenant 0) cost
//! two bytes per record, not sixteen.
//!
//! Client → server:
//!
//! | kind   | record                                                        |
//! |--------|---------------------------------------------------------------|
//! | `0x41` | [`ClientHello`] — magic `ZLRQ`, version, codec set            |
//! | `0x42` | `Open` — key + replay cursor; opens (or resumes) one flow     |
//! | `0x43` | `Data` — key + raw input record bytes for the flow's engine   |
//! | `0x44` | `EndFlow` — key; clean end of one flow (drain + commit)       |
//! | `0x45` | `End` — clean end of the session (finishes every open flow)   |
//!
//! Server → client:
//!
//! | kind   | record                                                        |
//! |--------|---------------------------------------------------------------|
//! | `0x51` | [`ServerHello`] — magic `ZLRS`, version, codec set            |
//! | `0x52` | `Opened` — key + [`ResumeSummary`] (answers `Open`)           |
//! | `0x53` | `Payload` — key + one compressed [`Batch`]: codec byte, dictionary updates, payload runs, payload bytes |
//! | `0x55` | `Error` — typed failure, connection closes after              |
//! | `0x56` | `Reseed` — key + synthesized install for a compacted journal (advisory; not part of the replay cursor) |
//! | `0x57` | `FlowDone` — key + [`DoneSummary`]; closes the flow's journal epoch |
//! | `0x58` | `Done` — session totals; last record of a clean session       |
//!
//! The batch is the record: a `Payload` carries everything one engine
//! batch emitted — the body layout is `zipline_engine::frame`'s, byte for
//! byte what the store journals — under one CRC. Its dictionary updates
//! ride inside it, each placed strictly before the payload that needs it,
//! so there is no separate control record; a receiver expands the batch
//! ([`Batch::events`]) into the per-payload, per-update sequence. The
//! batch's codec byte is the [`CodecId`] that
//! compressed it (stamped by a routing backend such as `AutoBackend`), or
//! `0` — the container format's "untagged" sentinel — meaning *the flow's
//! fixed backend*. A non-zero byte no registry entry covers is the typed
//! [`WireError::UnknownCodec`].
//!
//! There is exactly one version. A hello of any other version fails to
//! decode with [`WireError::UnsupportedVersion`], which the server answers
//! with a typed `ERROR` record naming the version it speaks.

use std::fmt;
use std::io::{self, Read};

use zipline_engine::frame::{
    put_u16, put_u64, put_update, put_varint, record_crc, scan_record, write_record, BodyReader,
    FrameError, Scanned,
};
use zipline_engine::{Batch, CodecId, DictionaryUpdate, FlowKey};
use zipline_gd::CrcEngine;

/// The one wire protocol version this crate speaks.
pub const WIRE_VERSION: u16 = 5;

/// Upper bound on a single record's payload bytes; anything larger is
/// rejected before buffering (a 4-byte length field must not become a
/// memory-exhaustion lever).
pub const MAX_WIRE_RECORD_BYTES: usize = 1 << 24;

/// The flow un-keyed sends address: tenant 0's stream 0, where a caller with
/// a single unnamed stream lives.
pub(crate) const UNNAMED_FLOW: FlowKey = FlowKey { tenant: 0, flow: 0 };

/// Magic prefix of a [`ClientHello`] body.
pub const REQUEST_MAGIC: [u8; 4] = *b"ZLRQ";
/// Magic prefix of a [`ServerHello`] body.
pub const RESPONSE_MAGIC: [u8; 4] = *b"ZLRS";

const KIND_CLIENT_HELLO: u8 = 0x41;
const KIND_OPEN: u8 = 0x42;
const KIND_DATA: u8 = 0x43;
const KIND_END_FLOW: u8 = 0x44;
const KIND_END: u8 = 0x45;
const KIND_SERVER_HELLO: u8 = 0x51;
const KIND_OPENED: u8 = 0x52;
const KIND_PAYLOAD: u8 = 0x53;
const KIND_ERROR: u8 = 0x55;
const KIND_RESEED: u8 = 0x56;
const KIND_FLOW_DONE: u8 = 0x57;
const KIND_DONE: u8 = 0x58;

/// Decoding failure; every variant is terminal for the connection.
#[derive(Debug)]
#[non_exhaustive]
pub enum WireError {
    /// Underlying socket/file error while reading.
    Io(io::Error),
    /// The stream ended inside a record (after at least one framing byte).
    Truncated,
    /// Declared payload length is zero or exceeds [`MAX_WIRE_RECORD_BYTES`].
    OversizedRecord(usize),
    /// Trailing CRC does not match the payload.
    BadCrc,
    /// A hello record carried the wrong magic.
    BadMagic,
    /// A hello record spoke a protocol version other than [`WIRE_VERSION`].
    UnsupportedVersion(u16),
    /// Correctly framed record with a kind byte we do not know.
    UnknownKind(u8),
    /// A payload named a codec id no registry entry covers.
    UnknownCodec(u8),
    /// The body of a known kind did not parse.
    Malformed(String),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Io(e) => write!(f, "wire i/o error: {e}"),
            WireError::Truncated => write!(f, "stream truncated inside a record"),
            WireError::OversizedRecord(len) => write!(
                f,
                "record payload of {len} bytes outside (0, {MAX_WIRE_RECORD_BYTES}]"
            ),
            WireError::BadCrc => write!(f, "record CRC mismatch"),
            WireError::BadMagic => write!(f, "hello record carries the wrong magic"),
            WireError::UnsupportedVersion(v) => write!(
                f,
                "unsupported wire version {v}; only version {WIRE_VERSION} is spoken"
            ),
            WireError::UnknownKind(k) => write!(f, "unknown record kind {k:#04x}"),
            WireError::UnknownCodec(id) => write!(f, "payload names unknown codec id {id}"),
            WireError::Malformed(what) => write!(f, "malformed record body: {what}"),
        }
    }
}

impl std::error::Error for WireError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            WireError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<FrameError> for WireError {
    fn from(e: FrameError) -> Self {
        match e {
            FrameError::UnknownCodec(id) => WireError::UnknownCodec(id),
            FrameError::Malformed(what) => WireError::Malformed(what),
            other => WireError::Malformed(other.to_string()),
        }
    }
}

/// First record on every connection, client → server.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ClientHello {
    /// Codec ids the client can decode. Empty means "unstated" (the client
    /// accepts anything its registry covers); a non-empty set lets the
    /// server refuse a session whose backend would emit payloads the
    /// client cannot decode.
    pub codecs: Vec<CodecId>,
}

/// First record on every connection, server → client.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ServerHello {
    /// Codec ids the serving backend may stamp on this session's payloads.
    pub codecs: Vec<CodecId>,
}

/// The resume plan of one opened flow, as announced on the wire: the
/// counts of what follows the `Opened` record and where input resumes.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResumeSummary {
    /// Input byte offset the client must resume feeding from after the
    /// replayed records (always a commit-boundary, i.e. a batch multiple).
    pub resume_bytes_in: u64,
    /// Committed journal entries (payloads + control updates) about to be
    /// replayed, however many records carry them.
    pub replay_entries: u64,
    /// Synthesized `Reseed` installs about to follow (compacted journal).
    pub reseed_entries: u64,
    /// Whether the flow restored warm state from a durable store.
    pub warm: bool,
}

/// Totals of one finished flow (`FlowDone`) or one whole session (`Done`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DoneSummary {
    /// Record bytes the engine consumed.
    pub bytes_in: u64,
    /// Wire payloads emitted.
    pub payloads_emitted: u64,
    /// Total wire bytes emitted.
    pub wire_bytes: u64,
    /// Payloads emitted in compressed (type 3) form.
    pub compressed_payloads: u64,
    /// Dictionary updates streamed to the client.
    pub control_updates: u64,
    /// True when the server (graceful shutdown, or a session `End` with
    /// the flow still open) rather than the client's own end record
    /// finished it.
    pub server_initiated: bool,
}

/// One wire record, either direction.
#[derive(Debug, Clone, PartialEq)]
pub enum Record {
    /// `0x41`: connection opener, client → server.
    ClientHello(ClientHello),
    /// `0x42`: opens one flow; `entries_held` is the flow's replay cursor —
    /// payloads + control updates the client already holds from the flow's
    /// current journal epoch.
    Open {
        /// The flow being opened.
        key: FlowKey,
        /// The flow's replay cursor.
        entries_held: u64,
    },
    /// `0x43`: raw input record bytes for one flow.
    Data {
        /// The owning flow.
        key: FlowKey,
        /// The record bytes.
        bytes: Vec<u8>,
    },
    /// `0x44`: clean end of one flow (drain + commit, `FlowDone` follows).
    EndFlow {
        /// The flow being ended.
        key: FlowKey,
    },
    /// `0x45`: clean end of the session.
    End,
    /// `0x51`: connection opener, server → client.
    ServerHello(ServerHello),
    /// `0x52`: one flow's resume plan; answers `Open`.
    Opened {
        /// The opened flow.
        key: FlowKey,
        /// What follows and where input resumes.
        resume: ResumeSummary,
    },
    /// `0x53`: one compressed batch of one flow — its payloads, the
    /// dictionary updates interleaved with them, its codec tag.
    Payload {
        /// The owning flow.
        key: FlowKey,
        /// The batch, exactly as the flow's engine emitted it.
        batch: Batch,
    },
    /// `0x56`: synthesized install of one flow (compacted journal).
    Reseed {
        /// The owning flow.
        key: FlowKey,
        /// The synthesized update.
        update: DictionaryUpdate,
    },
    /// `0x57`: one flow's summary; closes the flow's journal epoch.
    FlowDone {
        /// The finished flow.
        key: FlowKey,
        /// The flow's stream totals.
        summary: DoneSummary,
    },
    /// `0x58`: session totals across every finished flow.
    Done(DoneSummary),
    /// `0x55`: typed failure; the connection closes after this record.
    Error(String),
}

impl Record {
    /// Short human tag for protocol errors.
    pub fn kind_name(&self) -> &'static str {
        match self {
            Record::ClientHello(_) => "CLIENT_HELLO",
            Record::Open { .. } => "OPEN",
            Record::Data { .. } => "DATA",
            Record::EndFlow { .. } => "END_FLOW",
            Record::End => "END",
            Record::ServerHello(_) => "SERVER_HELLO",
            Record::Opened { .. } => "OPENED",
            Record::Payload { .. } => "PAYLOAD",
            Record::Reseed { .. } => "RESEED",
            Record::FlowDone { .. } => "FLOW_DONE",
            Record::Done(_) => "DONE",
            Record::Error(_) => "ERROR",
        }
    }
}

fn put_key(buf: &mut Vec<u8>, key: FlowKey) {
    put_varint(buf, key.tenant);
    put_varint(buf, key.flow);
}

/// A whole hello body: magic, version, then the codec set.
fn put_hello(buf: &mut Vec<u8>, magic: [u8; 4], codecs: &[CodecId]) {
    debug_assert!(codecs.len() <= u8::MAX as usize, "codec set too large");
    buf.extend_from_slice(&magic);
    put_u16(buf, WIRE_VERSION);
    buf.push(codecs.len() as u8);
    buf.extend(codecs.iter().map(|id| id.as_u8()));
}

fn put_done(buf: &mut Vec<u8>, done: &DoneSummary) {
    put_u64(buf, done.bytes_in);
    put_u64(buf, done.payloads_emitted);
    put_u64(buf, done.wire_bytes);
    put_u64(buf, done.compressed_payloads);
    put_u64(buf, done.control_updates);
    buf.push(u8::from(done.server_initiated));
}

fn read_flow_key(r: &mut BodyReader<'_>) -> Result<FlowKey, WireError> {
    Ok(FlowKey {
        tenant: r.varint()?,
        flow: r.varint()?,
    })
}

/// Parses a hello body after the kind byte: magic, the one supported
/// version, then the codec set. Advertised ids are carried verbatim — an
/// id this build does not know is fine in an *advertisement* (the set check
/// handles it); only a payload *tag* must resolve through the registry.
fn read_hello(body: &[u8], what: &'static str, magic: [u8; 4]) -> Result<Vec<CodecId>, WireError> {
    let mut r = BodyReader::new(body, what);
    if r.take(4)? != magic {
        return Err(WireError::BadMagic);
    }
    let version = r.u16()?;
    if version != WIRE_VERSION {
        // Other versions shape the rest of the body differently; refuse
        // before parsing any of it.
        return Err(WireError::UnsupportedVersion(version));
    }
    let n = r.u8()? as usize;
    let mut codecs = Vec::with_capacity(n);
    for _ in 0..n {
        codecs.push(CodecId(r.u8()?));
    }
    r.finish()?;
    Ok(codecs)
}

fn read_done(r: &mut BodyReader<'_>) -> Result<DoneSummary, WireError> {
    Ok(DoneSummary {
        bytes_in: r.u64()?,
        payloads_emitted: r.u64()?,
        wire_bytes: r.u64()?,
        compressed_payloads: r.u64()?,
        control_updates: r.u64()?,
        server_initiated: r.u8()? != 0,
    })
}

/// Stateless encoder/decoder for wire [`Record`]s.
pub struct WireCodec {
    crc: CrcEngine,
}

impl Default for WireCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl WireCodec {
    /// Creates a codec (CRC-32, polynomial `0x04C1_1DB7`).
    pub fn new() -> Self {
        Self { crc: record_crc() }
    }

    /// Appends one sealed record whose body starts with `key`.
    fn keyed(&self, out: &mut Vec<u8>, kind: u8, key: FlowKey, rest: impl FnOnce(&mut Vec<u8>)) {
        write_record(&self.crc, out, kind, |body| {
            put_key(body, key);
            rest(body);
        });
    }

    /// Appends the framed encoding of `record` to `out`.
    pub fn encode_into(&mut self, record: &Record, out: &mut Vec<u8>) {
        let crc = &self.crc;
        match record {
            Record::ClientHello(h) => write_record(crc, out, KIND_CLIENT_HELLO, |body| {
                put_hello(body, REQUEST_MAGIC, &h.codecs)
            }),
            Record::Open { key, entries_held } => {
                self.keyed(out, KIND_OPEN, *key, |body| put_u64(body, *entries_held))
            }
            Record::Data { key, bytes } => self.encode_flow_data_into(*key, bytes, out),
            Record::EndFlow { key } => self.keyed(out, KIND_END_FLOW, *key, |_| {}),
            Record::End => write_record(crc, out, KIND_END, |_| {}),
            Record::ServerHello(h) => write_record(crc, out, KIND_SERVER_HELLO, |body| {
                put_hello(body, RESPONSE_MAGIC, &h.codecs)
            }),
            Record::Opened { key, resume } => self.keyed(out, KIND_OPENED, *key, |body| {
                put_u64(body, resume.resume_bytes_in);
                put_u64(body, resume.replay_entries);
                put_u64(body, resume.reseed_entries);
                body.push(u8::from(resume.warm));
            }),
            Record::Payload { key, batch } => self.encode_payload_into(*key, batch, out),
            Record::Reseed { key, update } => {
                self.keyed(out, KIND_RESEED, *key, |body| put_update(body, update))
            }
            Record::FlowDone { key, summary } => {
                self.keyed(out, KIND_FLOW_DONE, *key, |body| put_done(body, summary))
            }
            Record::Done(done) => write_record(crc, out, KIND_DONE, |body| put_done(body, done)),
            Record::Error(message) => write_record(crc, out, KIND_ERROR, |body| {
                body.extend_from_slice(message.as_bytes())
            }),
        }
    }

    /// Frames `record` into a fresh buffer.
    pub fn encode(&mut self, record: &Record) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(record, &mut out);
        out
    }

    /// Appends a framed `Payload` record straight from a borrowed batch
    /// (the server's hot path: one call, one CRC, per engine batch).
    pub fn encode_payload_into(&self, key: FlowKey, batch: &Batch, out: &mut Vec<u8>) {
        self.keyed(out, KIND_PAYLOAD, key, |body| batch.encode_into(body));
    }

    fn encode_flow_data_into(&self, key: FlowKey, bytes: &[u8], out: &mut Vec<u8>) {
        self.keyed(out, KIND_DATA, key, |body| body.extend_from_slice(bytes));
    }

    /// Frames a `Data` record for `key` straight from a borrowed byte slice
    /// (the client's hot path).
    pub fn encode_flow_data(&mut self, key: FlowKey, bytes: &[u8]) -> Vec<u8> {
        let mut out = Vec::with_capacity(bytes.len() + 32);
        self.encode_flow_data_into(key, bytes, &mut out);
        out
    }

    /// [`Self::encode_flow_data`] for the unnamed flow `(0, 0)`.
    pub fn encode_data(&mut self, bytes: &[u8]) -> Vec<u8> {
        self.encode_flow_data(UNNAMED_FLOW, bytes)
    }

    /// Attempts to decode one record from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only a prefix of a record (more
    /// bytes needed), `Ok(Some((record, consumed)))` on success, and a
    /// [`WireError`] for anything that can never become a valid record no
    /// matter how many bytes follow.
    pub fn decode(&self, buf: &[u8]) -> Result<Option<(Record, usize)>, WireError> {
        match scan_record(&self.crc, buf, MAX_WIRE_RECORD_BYTES) {
            Scanned::Incomplete => Ok(None),
            Scanned::BadLength(len) => Err(WireError::OversizedRecord(len)),
            Scanned::BadCrc => Err(WireError::BadCrc),
            Scanned::Record { kind, body, len } => Ok(Some((Self::parse(kind, body)?, len))),
        }
    }

    fn parse(kind: u8, body: &[u8]) -> Result<Record, WireError> {
        match kind {
            KIND_CLIENT_HELLO => Ok(Record::ClientHello(ClientHello {
                codecs: read_hello(body, "CLIENT_HELLO", REQUEST_MAGIC)?,
            })),
            KIND_OPEN => {
                let mut r = BodyReader::new(body, "OPEN");
                let key = read_flow_key(&mut r)?;
                let entries_held = r.u64()?;
                r.finish()?;
                Ok(Record::Open { key, entries_held })
            }
            KIND_DATA => {
                let mut r = BodyReader::new(body, "DATA");
                let key = read_flow_key(&mut r)?;
                let bytes = r.rest().to_vec();
                Ok(Record::Data { key, bytes })
            }
            KIND_END_FLOW => {
                let mut r = BodyReader::new(body, "END_FLOW");
                let key = read_flow_key(&mut r)?;
                r.finish()?;
                Ok(Record::EndFlow { key })
            }
            KIND_END => {
                BodyReader::new(body, "END").finish()?;
                Ok(Record::End)
            }
            KIND_SERVER_HELLO => Ok(Record::ServerHello(ServerHello {
                codecs: read_hello(body, "SERVER_HELLO", RESPONSE_MAGIC)?,
            })),
            KIND_OPENED => {
                let mut r = BodyReader::new(body, "OPENED");
                let key = read_flow_key(&mut r)?;
                let resume = ResumeSummary {
                    resume_bytes_in: r.u64()?,
                    replay_entries: r.u64()?,
                    reseed_entries: r.u64()?,
                    warm: r.u8()? != 0,
                };
                r.finish()?;
                Ok(Record::Opened { key, resume })
            }
            KIND_PAYLOAD => {
                let mut r = BodyReader::new(body, "PAYLOAD");
                let key = read_flow_key(&mut r)?;
                let batch = Batch::decode(r)?;
                Ok(Record::Payload { key, batch })
            }
            KIND_RESEED => {
                let mut r = BodyReader::new(body, "RESEED");
                let key = read_flow_key(&mut r)?;
                let update = r.update()?;
                r.finish()?;
                Ok(Record::Reseed { key, update })
            }
            KIND_FLOW_DONE => {
                let mut r = BodyReader::new(body, "FLOW_DONE");
                let key = read_flow_key(&mut r)?;
                let summary = read_done(&mut r)?;
                r.finish()?;
                Ok(Record::FlowDone { key, summary })
            }
            KIND_DONE => {
                let mut r = BodyReader::new(body, "DONE");
                let done = read_done(&mut r)?;
                r.finish()?;
                Ok(Record::Done(done))
            }
            KIND_ERROR => {
                let message = String::from_utf8(body.to_vec())
                    .map_err(|_| WireError::Malformed("ERROR: message is not UTF-8".into()))?;
                Ok(Record::Error(message))
            }
            other => Err(WireError::UnknownKind(other)),
        }
    }
}

/// Incremental record reader over any [`Read`] source (a socket, usually).
///
/// Buffers internally and reframes; `read_record` returns `Ok(None)` only on
/// a clean EOF at a record boundary. EOF inside a record is
/// [`WireError::Truncated`] — a torn tail is never silently dropped.
pub struct RecordReader<R> {
    inner: R,
    codec: WireCodec,
    buf: Vec<u8>,
    start: usize,
    /// Landing area of one `read` call, kept across calls: at one small
    /// record per read, zeroing a fresh one each time costs more than the
    /// read.
    chunk: Vec<u8>,
}

impl<R: Read> RecordReader<R> {
    /// Wraps `inner`; no bytes are read until the first `read_record`.
    pub fn new(inner: R) -> Self {
        Self {
            inner,
            codec: WireCodec::new(),
            buf: Vec::with_capacity(16 * 1024),
            start: 0,
            chunk: vec![0u8; 16 * 1024],
        }
    }

    /// Reads the next record, blocking on the source as needed.
    pub fn read_record(&mut self) -> Result<Option<Record>, WireError> {
        loop {
            if let Some((record, used)) = self.codec.decode(&self.buf[self.start..])? {
                self.start += used;
                if self.start == self.buf.len() {
                    self.buf.clear();
                    self.start = 0;
                }
                return Ok(Some(record));
            }
            if self.start > 0 {
                self.buf.drain(..self.start);
                self.start = 0;
            }
            match self.inner.read(&mut self.chunk) {
                Ok(0) => {
                    return if self.buf.is_empty() {
                        Ok(None)
                    } else {
                        Err(WireError::Truncated)
                    };
                }
                Ok(n) => self.buf.extend_from_slice(&self.chunk[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(e) => return Err(WireError::Io(e)),
            }
        }
    }

    /// Consumes the reader, returning the wrapped source.
    pub fn into_inner(self) -> R {
        self.inner
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zipline_engine::UpdateOp;
    use zipline_gd::packet::PacketType;
    use zipline_gd::BitVec;

    fn install(seq: u64, at: u64) -> DictionaryUpdate {
        DictionaryUpdate {
            seq,
            at,
            op: UpdateOp::Install {
                id: seq % 7,
                basis: BitVec::from_bytes(&[seq as u8; 8]),
            },
        }
    }

    /// A batch of `payloads` payloads in a few shapes, an update ahead of
    /// every 16th.
    fn sample_batch(codec: Option<CodecId>, payloads: usize) -> Batch {
        let mut batch = Batch::default();
        batch.set_codec(codec);
        for i in 0..payloads {
            let fill = [i as u8; 35];
            match i % 5 {
                0 => batch.push_payload(PacketType::Uncompressed, &fill),
                _ => batch.push_payload(PacketType::Compressed, &fill[..4]),
            }
        }
        batch.place_updates(
            (0..payloads)
                .step_by(16)
                .map(|at| install(at as u64, at as u64))
                .collect(),
        );
        batch
    }

    fn sample_key() -> FlowKey {
        FlowKey {
            tenant: 0xA1,
            flow: 0xF700_0001,
        }
    }

    fn sample_records() -> Vec<Record> {
        vec![
            Record::ClientHello(ClientHello {
                codecs: vec![zipline_engine::CODEC_GD, zipline_engine::CODEC_DEFLATE],
            }),
            Record::Open {
                key: sample_key(),
                entries_held: 11,
            },
            Record::Data {
                key: sample_key(),
                bytes: vec![5u8; 48],
            },
            Record::Data {
                key: FlowKey::new(0, 0),
                bytes: (0..=255u8).collect(),
            },
            Record::EndFlow { key: sample_key() },
            Record::End,
            Record::ServerHello(ServerHello {
                codecs: vec![zipline_engine::CODEC_GD],
            }),
            Record::Opened {
                key: sample_key(),
                resume: ResumeSummary {
                    resume_bytes_in: 4096,
                    replay_entries: 2,
                    reseed_entries: 1,
                    warm: true,
                },
            },
            Record::Payload {
                key: sample_key(),
                batch: sample_batch(None, 3),
            },
            // A multi-KiB record: the reframing tests carry it across many
            // reads.
            Record::Payload {
                key: sample_key(),
                batch: sample_batch(Some(zipline_engine::CODEC_DEFLATE), 700),
            },
            Record::Reseed {
                key: sample_key(),
                update: DictionaryUpdate {
                    seq: 1,
                    at: 0,
                    op: UpdateOp::Remove { id: 9 },
                },
            },
            Record::FlowDone {
                key: sample_key(),
                summary: DoneSummary {
                    bytes_in: 10,
                    payloads_emitted: 20,
                    wire_bytes: 30,
                    compressed_payloads: 40,
                    control_updates: 50,
                    server_initiated: false,
                },
            },
            Record::Done(DoneSummary {
                bytes_in: 1,
                payloads_emitted: 2,
                wire_bytes: 3,
                compressed_payloads: 4,
                control_updates: 5,
                server_initiated: true,
            }),
            Record::Error("engine exploded".into()),
        ]
    }

    /// Replaces `frame`'s trailing CRC with the one its (patched) body
    /// now needs, so a test frame fails on the patch, not the checksum.
    fn reseal(frame: &mut [u8]) {
        let body_end = frame.len() - 4;
        let crc = WireCodec::new().crc.compute_bytes(&frame[4..body_end]) as u32;
        frame[body_end..].copy_from_slice(&crc.to_le_bytes());
    }

    /// Exhaustiveness companion to `sample_records`: every declared
    /// `KIND_*` byte must be produced by the encoder for some sample, so
    /// a kind added to the protocol without a sample fails here (and the
    /// workspace lint's L002 rule fails on the missing test reference).
    #[test]
    fn every_declared_kind_byte_is_encoded_by_a_sample_record() {
        let declared = [
            KIND_CLIENT_HELLO,
            KIND_OPEN,
            KIND_DATA,
            KIND_END_FLOW,
            KIND_END,
            KIND_SERVER_HELLO,
            KIND_OPENED,
            KIND_PAYLOAD,
            KIND_ERROR,
            KIND_RESEED,
            KIND_FLOW_DONE,
            KIND_DONE,
        ];
        let mut codec = WireCodec::new();
        // The kind byte sits directly after the 4-byte length prefix.
        let seen: Vec<u8> = sample_records()
            .iter()
            .map(|record| codec.encode(record)[4])
            .collect();
        for kind in declared {
            assert!(
                seen.contains(&kind),
                "declared kind {kind:#04x} is not produced by any sample record"
            );
        }
    }

    #[test]
    fn every_kind_roundtrips_through_the_slice_decoder() {
        let mut codec = WireCodec::new();
        let mut wire = Vec::new();
        for record in sample_records() {
            codec.encode_into(&record, &mut wire);
        }
        let mut offset = 0;
        let mut decoded = Vec::new();
        while let Some((record, used)) = codec.decode(&wire[offset..]).expect("valid frames") {
            decoded.push(record);
            offset += used;
        }
        assert_eq!(offset, wire.len());
        assert_eq!(decoded, sample_records());
    }

    #[test]
    fn record_reader_reframes_across_arbitrary_chunking() {
        struct DribbleReader {
            data: Vec<u8>,
            pos: usize,
            step: usize,
        }
        impl Read for DribbleReader {
            fn read(&mut self, out: &mut [u8]) -> io::Result<usize> {
                let n = self
                    .step
                    .min(out.len())
                    .min(self.data.len() - self.pos)
                    .min(1 + self.pos % 3);
                out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
                self.pos += n;
                Ok(n)
            }
        }

        let mut codec = WireCodec::new();
        let mut wire = Vec::new();
        for record in sample_records() {
            codec.encode_into(&record, &mut wire);
        }
        let mut reader = RecordReader::new(DribbleReader {
            data: wire,
            pos: 0,
            step: 7,
        });
        let mut decoded = Vec::new();
        while let Some(record) = reader.read_record().expect("valid frames") {
            decoded.push(record);
        }
        assert_eq!(decoded, sample_records());
    }

    #[test]
    fn borrowed_encoders_match_the_record_encoder() {
        let mut codec = WireCodec::new();
        for tag in [None, Some(zipline_engine::CODEC_DEFLATE)] {
            let batch = sample_batch(tag, 40);
            let mut framed = Vec::new();
            codec.encode_payload_into(sample_key(), &batch, &mut framed);
            assert_eq!(
                framed,
                codec.encode(&Record::Payload {
                    key: sample_key(),
                    batch,
                })
            );
        }
        assert_eq!(
            codec.encode_flow_data(sample_key(), &[6]),
            codec.encode(&Record::Data {
                key: sample_key(),
                bytes: vec![6],
            })
        );
        assert_eq!(
            codec.encode_data(&[1, 2, 3]),
            codec.encode(&Record::Data {
                key: FlowKey::new(0, 0),
                bytes: vec![1, 2, 3],
            })
        );
    }

    /// There is one version: a hello of any other — older or newer, client
    /// or server — decodes to `UnsupportedVersion`, whatever follows the
    /// version field. The server answers with a typed `ERROR` record
    /// (covered end-to-end by the `flow_mux` suite).
    #[test]
    fn hellos_of_any_other_version_are_rejected() {
        let mut codec = WireCodec::new();
        let hellos = [
            codec.encode(&Record::ClientHello(ClientHello::default())),
            codec.encode(&Record::ServerHello(ServerHello::default())),
        ];
        for hello in hellos {
            for version in [1u16, 2, 3, 4, 6] {
                let mut frame = hello.clone();
                // len(4) kind(1) magic(4), then the version field.
                frame[9..11].copy_from_slice(&version.to_le_bytes());
                reseal(&mut frame);
                assert!(
                    matches!(codec.decode(&frame), Err(WireError::UnsupportedVersion(v)) if v == version),
                    "version {version} must be refused"
                );
            }
        }
        let refusal = WireError::UnsupportedVersion(3).to_string();
        assert!(
            refusal.contains(&format!("version {WIRE_VERSION}")),
            "the refusal names the supported version: {refusal}"
        );
    }

    /// A payload naming a codec id outside the registry's range is a typed
    /// error, not a panic or a silent mis-decode.
    #[test]
    fn unknown_codec_tags_are_rejected_with_a_typed_error() {
        let mut codec = WireCodec::new();
        let mut payload = |tag| {
            codec.encode(&Record::Payload {
                key: sample_key(),
                batch: sample_batch(tag, 2),
            })
        };
        // The codec byte is where a tagged and an untagged frame first
        // differ.
        let mut frame = payload(Some(zipline_engine::CODEC_GD));
        let untagged = payload(None);
        let at = (0..frame.len())
            .find(|&i| frame[i] != untagged[i])
            .expect("the tag is on the wire");
        assert_eq!(frame[at], zipline_engine::CODEC_GD.as_u8());
        frame[at] = 0xEE;
        reseal(&mut frame);
        assert!(matches!(
            codec.decode(&frame),
            Err(WireError::UnknownCodec(0xEE))
        ));
    }

    /// A `PAYLOAD` whose batch body lies about itself is a typed
    /// `Malformed`, reached without expanding anything: the frame module
    /// bounds the work by the body's length (its own tests walk the cases;
    /// this pins the mapping and that the key is parsed first).
    #[test]
    fn hostile_batch_bodies_are_malformed_not_panics() {
        let codec = WireCodec::new();
        let framed = |body: &[u8]| {
            let mut frame = Vec::new();
            codec.keyed(&mut frame, KIND_PAYLOAD, sample_key(), |b| {
                b.extend_from_slice(body)
            });
            frame
        };
        let huge = [0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01];
        let cases: [(&str, Vec<u8>); 6] = [
            // One run of type 3, length 0, count 2^63.
            ("empty payload run", [&[0, 0, 1, 3, 0][..], &huge].concat()),
            // Length 2^63 × count 2^63 overflows.
            ("overrun", [&[0, 0, 1, 3][..], &huge, &huge, &[1]].concat()),
            // Runs account for 2 bytes, 3 follow; then 2 accounted, 1 there.
            ("3 payload bytes", vec![0, 0, 1, 3, 2, 1, 9, 9, 9]),
            ("overrun", vec![0, 0, 1, 3, 2, 1, 9]),
            ("unknown packet type 0", vec![0, 0, 1, 0, 1, 1, 9]),
            // An update placed before payload 5 of a 1-payload batch.
            (
                "before payload 5 of 1",
                [&[0, 1, 5][..], &[0; 16], &[1], &[0; 8], &[1, 3, 1, 1, 9]].concat(),
            ),
        ];
        for (needle, body) in cases {
            match codec.decode(&framed(&body)) {
                Err(WireError::Malformed(message)) => assert!(
                    message.starts_with("PAYLOAD") && message.contains(needle),
                    "expected a PAYLOAD error naming {needle:?}, got: {message}"
                ),
                other => panic!("expected Malformed naming {needle:?}, got {other:?}"),
            }
        }
        // The smallest honest body parses: codec 0, no updates, no runs.
        assert!(matches!(
            codec.decode(&framed(&[0, 0, 0])),
            Ok(Some((Record::Payload { batch, .. }, _))) if batch.is_empty()
        ));
    }

    /// Flow keys are bounded varints: every `u64` roundtrips in at most
    /// ten bytes, small ids in one, and an encoding that runs past 64 bits
    /// is a typed error rather than a wrapped key.
    #[test]
    fn flow_keys_are_bounded_varints() {
        let codec = WireCodec::new();
        let end_flow = |tenant, flow| {
            WireCodec::new().encode(&Record::EndFlow {
                key: FlowKey::new(tenant, flow),
            })
        };
        // len(4) kind(1) key crc(4).
        assert_eq!(end_flow(0, 0x7F).len(), 4 + 1 + 2 + 4);
        assert_eq!(end_flow(0x80, 0).len(), 4 + 1 + 3 + 4);
        let widest = end_flow(u64::MAX, u64::MAX);
        assert_eq!(widest.len(), 4 + 1 + 20 + 4);
        for (tenant, flow) in [
            (0, 0),
            (0x7F, 0x80),
            (1 << 62, 1 << 63),
            (u64::MAX, u64::MAX),
        ] {
            let frame = end_flow(tenant, flow);
            let (record, _) = codec.decode(&frame).expect("valid").expect("whole");
            assert_eq!(
                record,
                Record::EndFlow {
                    key: FlowKey::new(tenant, flow)
                }
            );
        }

        // The tenant's tenth byte carries more than the one bit left.
        let mut overflowing = widest.clone();
        overflowing[14] = 0x02;
        reseal(&mut overflowing);
        // An eleventh continuation byte.
        let mut endless = widest;
        endless[14] = 0x81;
        reseal(&mut endless);
        for frame in [overflowing, endless] {
            assert!(matches!(
                codec.decode(&frame),
                Err(WireError::Malformed(message)) if message.contains("varint")
            ));
        }
    }

    #[test]
    fn zero_and_oversized_lengths_are_rejected() {
        let codec = WireCodec::new();
        let mut zero = vec![0u8; 8];
        zero[4] = KIND_END;
        assert!(matches!(
            codec.decode(&zero),
            Err(WireError::OversizedRecord(0))
        ));

        let huge = ((MAX_WIRE_RECORD_BYTES + 1) as u32).to_le_bytes().to_vec();
        assert!(matches!(
            codec.decode(&huge),
            Err(WireError::OversizedRecord(_))
        ));
    }
}
