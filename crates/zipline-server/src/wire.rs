//! Framed wire protocol for the ZipLine ingest server (wire **v4**).
//!
//! The framing reuses the record discipline of the durable store
//! (`zipline-engine`'s `persist.rs`): every record on the socket is
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
//! | `0x53` | `Payload` — key, codec byte, packet type, payload bytes       |
//! | `0x54` | `Control` — key + one committed dictionary update (live sync) |
//! | `0x55` | `Error` — typed failure, connection closes after              |
//! | `0x56` | `Reseed` — key + synthesized install for a compacted journal (advisory; not part of the replay cursor) |
//! | `0x57` | `FlowDone` — key + [`DoneSummary`]; closes the flow's journal epoch |
//! | `0x58` | `Done` — session totals; last record of a clean session       |
//!
//! Per flow, controls reach the socket strictly before the payloads that
//! need them. A payload's codec byte is the [`CodecId`] that compressed its
//! batch (stamped by a routing backend such as `AutoBackend`), or `0` —
//! the container format's "untagged" sentinel — meaning *the flow's fixed
//! backend*. A non-zero byte no registry entry covers is the typed
//! [`WireError::UnknownCodec`].
//!
//! There is exactly one version. A hello of any other version fails to
//! decode with [`WireError::UnsupportedVersion`], which the server answers
//! with a typed `ERROR` record naming the version it speaks.
//!
//! The body encodings for dictionary updates mirror the store's
//! `put_update`/`read_update` byte-for-byte so a journal replay is a straight
//! re-framing of [`zipline_engine::CommittedEntry`] values, no re-encoding.

use std::fmt;
use std::io::{self, Read};

use zipline_engine::{codec_from_u8, CodecId, DictionaryUpdate, FlowKey, UpdateOp};
use zipline_gd::packet::PacketType;
use zipline_gd::{BitVec, CrcEngine, CrcSpec};

/// The one wire protocol version this crate speaks.
pub const WIRE_VERSION: u16 = 4;

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
const KIND_CONTROL: u8 = 0x54;
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
    /// Committed records about to be replayed from the journal.
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
    /// payload + control records the client already holds from the flow's
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
    /// `0x53`: one compressed/uncompressed/raw wire payload of one flow.
    Payload {
        /// The owning flow.
        key: FlowKey,
        /// ZipLine packet type of the payload.
        packet_type: PacketType,
        /// Per-batch codec tag; `None` (wire byte 0) means the flow's
        /// fixed backend.
        codec: Option<CodecId>,
        /// Payload bytes exactly as the backend emitted them.
        bytes: Vec<u8>,
    },
    /// `0x54`: one committed dictionary update of one flow (live sync).
    Control {
        /// The owning flow.
        key: FlowKey,
        /// The update.
        update: DictionaryUpdate,
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
            Record::Control { .. } => "CONTROL",
            Record::Reseed { .. } => "RESEED",
            Record::FlowDone { .. } => "FLOW_DONE",
            Record::Done(_) => "DONE",
            Record::Error(_) => "ERROR",
        }
    }
}

fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

fn put_bitvec(buf: &mut Vec<u8>, bits: &BitVec) {
    put_u32(buf, bits.len() as u32);
    buf.extend_from_slice(&bits.to_bytes());
}

/// Unsigned LEB128: seven value bits per byte, low group first, the high
/// bit set on every byte but the last.
fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Starts a flow-scoped body: the kind byte, then the key.
fn put_keyed(buf: &mut Vec<u8>, kind: u8, key: FlowKey) {
    buf.push(kind);
    put_varint(buf, key.tenant);
    put_varint(buf, key.flow);
}

/// A whole hello body: kind, magic, version, then the codec set.
fn put_hello(buf: &mut Vec<u8>, kind: u8, magic: [u8; 4], codecs: &[CodecId]) {
    debug_assert!(codecs.len() <= u8::MAX as usize, "codec set too large");
    buf.push(kind);
    buf.extend_from_slice(&magic);
    put_u16(buf, WIRE_VERSION);
    buf.push(codecs.len() as u8);
    buf.extend(codecs.iter().map(|id| id.as_u8()));
}

fn put_payload(
    buf: &mut Vec<u8>,
    key: FlowKey,
    codec: Option<CodecId>,
    packet_type: PacketType,
    bytes: &[u8],
) {
    put_keyed(buf, KIND_PAYLOAD, key);
    buf.push(codec.map_or(0, CodecId::as_u8));
    buf.push(packet_type.number());
    put_u32(buf, bytes.len() as u32);
    buf.extend_from_slice(bytes);
}

fn put_done(buf: &mut Vec<u8>, done: &DoneSummary) {
    put_u64(buf, done.bytes_in);
    put_u64(buf, done.payloads_emitted);
    put_u64(buf, done.wire_bytes);
    put_u64(buf, done.compressed_payloads);
    put_u64(buf, done.control_updates);
    buf.push(u8::from(done.server_initiated));
}

/// Serializes a dictionary update exactly like the store's `put_update`.
pub(crate) fn put_update(buf: &mut Vec<u8>, update: &DictionaryUpdate) {
    put_u64(buf, update.seq);
    put_u64(buf, update.at);
    match &update.op {
        UpdateOp::Install { id, basis } => {
            buf.push(0);
            put_u64(buf, *id);
            put_bitvec(buf, basis);
        }
        UpdateOp::Remove { id } => {
            buf.push(1);
            put_u64(buf, *id);
        }
    }
}

/// Bounded reader over one record body; every shortfall is a loud
/// [`WireError::Malformed`] naming the record being parsed.
struct BodyReader<'a> {
    data: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> BodyReader<'a> {
    fn new(data: &'a [u8], what: &'static str) -> Self {
        Self { data, pos: 0, what }
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.data.len());
        let Some(end) = end else {
            return Err(WireError::Malformed(format!(
                "{}: body shorter than declared",
                self.what
            )));
        };
        let slice = &self.data[self.pos..end];
        self.pos = end;
        Ok(slice)
    }

    /// Takes exactly `N` bytes as a fixed-size array. The length always
    /// matches because `take` returned exactly `N` bytes, so the slice
    /// pattern is irrefutable — no fallible conversion anywhere.
    fn array<const N: usize>(&mut self) -> Result<[u8; N], WireError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        let [b] = self.array()?;
        Ok(b)
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Unsigned LEB128, bounded: at most ten bytes, and the tenth may only
    /// carry the one bit a `u64` has left.
    fn varint(&mut self) -> Result<u64, WireError> {
        let mut value = 0u64;
        for shift in (0..64).step_by(7) {
            let byte = self.u8()?;
            let group = u64::from(byte & 0x7F);
            if shift == 63 && group > 1 {
                break;
            }
            value |= group << shift;
            if byte & 0x80 == 0 {
                return Ok(value);
            }
        }
        Err(WireError::Malformed(format!(
            "{}: varint overflows 64 bits",
            self.what
        )))
    }

    fn bitvec(&mut self) -> Result<BitVec, WireError> {
        let bit_len = self.u32()? as usize;
        let bytes = self.take(bit_len.div_ceil(8))?;
        let mut bits = BitVec::from_bytes(bytes);
        bits.truncate(bit_len);
        Ok(bits)
    }

    fn rest(&mut self) -> &'a [u8] {
        let slice = &self.data[self.pos..];
        self.pos = self.data.len();
        slice
    }

    fn finish(self) -> Result<(), WireError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(WireError::Malformed(format!(
                "{}: trailing bytes in body",
                self.what
            )))
        }
    }
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

/// The shared body of `Control` and `Reseed`: key, then one update.
fn read_keyed_update(
    body: &[u8],
    what: &'static str,
) -> Result<(FlowKey, DictionaryUpdate), WireError> {
    let mut r = BodyReader::new(body, what);
    let key = read_flow_key(&mut r)?;
    let update = read_update(&mut r)?;
    r.finish()?;
    Ok((key, update))
}

fn read_update(r: &mut BodyReader<'_>) -> Result<DictionaryUpdate, WireError> {
    let seq = r.u64()?;
    let at = r.u64()?;
    let op = match r.u8()? {
        0 => UpdateOp::Install {
            id: r.u64()?,
            basis: r.bitvec()?,
        },
        1 => UpdateOp::Remove { id: r.u64()? },
        other => {
            return Err(WireError::Malformed(format!(
                "{}: unknown update op {other}",
                r.what
            )))
        }
    };
    Ok(DictionaryUpdate { seq, at, op })
}

/// Little-endian `u32` starting at byte `at`; `None` when `buf` is too
/// short — length checks and extraction in one step, no indexing.
fn read_le_u32(buf: &[u8], at: usize) -> Option<u32> {
    let end = at.checked_add(4)?;
    let bytes: [u8; 4] = buf.get(at..end)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

fn packet_type_from(code: u8) -> Result<PacketType, WireError> {
    match code {
        1 => Ok(PacketType::Raw),
        2 => Ok(PacketType::Uncompressed),
        3 => Ok(PacketType::Compressed),
        other => Err(WireError::Malformed(format!("unknown packet type {other}"))),
    }
}

/// Stateless encoder/decoder for wire [`Record`]s.
///
/// Holds the CRC engine and a scratch buffer so framing does not allocate
/// per record beyond the payload itself.
pub struct WireCodec {
    crc: CrcEngine,
    scratch: Vec<u8>,
}

impl Default for WireCodec {
    fn default() -> Self {
        Self::new()
    }
}

impl WireCodec {
    /// Creates a codec (CRC-32, polynomial `0x04C1_1DB7`).
    pub fn new() -> Self {
        Self {
            // zipline-lint: allow(L001): CRC-32 spec parameters are compile-time constants; construction cannot fail
            crc: CrcEngine::new(CrcSpec::new(32, 0x04C1_1DB7).expect("CRC-32 spec is valid")),
            scratch: Vec::new(),
        }
    }

    /// Appends the framed encoding of `record` to `out`.
    pub fn encode_into(&mut self, record: &Record, out: &mut Vec<u8>) {
        self.scratch.clear();
        let body = &mut self.scratch;
        match record {
            Record::ClientHello(h) => put_hello(body, KIND_CLIENT_HELLO, REQUEST_MAGIC, &h.codecs),
            Record::Open { key, entries_held } => {
                put_keyed(body, KIND_OPEN, *key);
                put_u64(body, *entries_held);
            }
            Record::Data { key, bytes } => {
                put_keyed(body, KIND_DATA, *key);
                body.extend_from_slice(bytes);
            }
            Record::EndFlow { key } => put_keyed(body, KIND_END_FLOW, *key),
            Record::End => body.push(KIND_END),
            Record::ServerHello(h) => put_hello(body, KIND_SERVER_HELLO, RESPONSE_MAGIC, &h.codecs),
            Record::Opened { key, resume } => {
                put_keyed(body, KIND_OPENED, *key);
                put_u64(body, resume.resume_bytes_in);
                put_u64(body, resume.replay_entries);
                put_u64(body, resume.reseed_entries);
                body.push(u8::from(resume.warm));
            }
            Record::Payload {
                key,
                packet_type,
                codec,
                bytes,
            } => put_payload(body, *key, *codec, *packet_type, bytes),
            Record::Control { key, update } => {
                put_keyed(body, KIND_CONTROL, *key);
                put_update(body, update);
            }
            Record::Reseed { key, update } => {
                put_keyed(body, KIND_RESEED, *key);
                put_update(body, update);
            }
            Record::FlowDone { key, summary } => {
                put_keyed(body, KIND_FLOW_DONE, *key);
                put_done(body, summary);
            }
            Record::Done(done) => {
                body.push(KIND_DONE);
                put_done(body, done);
            }
            Record::Error(message) => {
                body.push(KIND_ERROR);
                body.extend_from_slice(message.as_bytes());
            }
        }
        self.seal_into(out);
    }

    /// Frames `record` into a fresh buffer.
    pub fn encode(&mut self, record: &Record) -> Vec<u8> {
        let mut out = Vec::with_capacity(64);
        self.encode_into(record, &mut out);
        out
    }

    /// Appends a framed `Payload` record straight from a borrowed byte slice
    /// (the server's hot path — no intermediate `Record::Payload` copy).
    pub fn encode_payload_into(
        &mut self,
        key: FlowKey,
        codec: Option<CodecId>,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) {
        self.scratch.clear();
        put_payload(&mut self.scratch, key, codec, packet_type, bytes);
        self.seal_into(out);
    }

    /// Appends a framed `Control` record straight from a borrowed update.
    pub fn encode_control_into(
        &mut self,
        key: FlowKey,
        update: &DictionaryUpdate,
        out: &mut Vec<u8>,
    ) {
        self.scratch.clear();
        put_keyed(&mut self.scratch, KIND_CONTROL, key);
        put_update(&mut self.scratch, update);
        self.seal_into(out);
    }

    /// Frames a `Data` record for `key` straight from a borrowed byte slice
    /// (the client's hot path).
    pub fn encode_flow_data(&mut self, key: FlowKey, bytes: &[u8]) -> Vec<u8> {
        self.scratch.clear();
        put_keyed(&mut self.scratch, KIND_DATA, key);
        self.scratch.extend_from_slice(bytes);
        self.seal()
    }

    /// [`Self::encode_flow_data`] for the unnamed flow `(0, 0)`.
    pub fn encode_data(&mut self, bytes: &[u8]) -> Vec<u8> {
        self.encode_flow_data(UNNAMED_FLOW, bytes)
    }

    /// Frames whatever `scratch` currently holds as one record.
    fn seal(&mut self) -> Vec<u8> {
        let mut out = Vec::with_capacity(self.scratch.len() + 8);
        self.seal_into(&mut out);
        out
    }

    fn seal_into(&self, out: &mut Vec<u8>) {
        let body = &self.scratch;
        debug_assert!(!body.is_empty() && body.len() <= MAX_WIRE_RECORD_BYTES);
        out.extend_from_slice(&(body.len() as u32).to_le_bytes());
        out.extend_from_slice(body);
        let crc = self.crc.compute_bytes(body) as u32;
        out.extend_from_slice(&crc.to_le_bytes());
    }

    /// Attempts to decode one record from the front of `buf`.
    ///
    /// Returns `Ok(None)` when `buf` holds only a prefix of a record (more
    /// bytes needed), `Ok(Some((record, consumed)))` on success, and a
    /// [`WireError`] for anything that can never become a valid record no
    /// matter how many bytes follow.
    pub fn decode(&self, buf: &[u8]) -> Result<Option<(Record, usize)>, WireError> {
        let Some(len) = read_le_u32(buf, 0) else {
            return Ok(None);
        };
        let len = len as usize;
        if len == 0 || len > MAX_WIRE_RECORD_BYTES {
            return Err(WireError::OversizedRecord(len));
        }
        let total = 4 + len + 4;
        if buf.len() < total {
            return Ok(None);
        }
        let payload = &buf[4..4 + len];
        let Some(stored) = read_le_u32(buf, 4 + len) else {
            return Ok(None);
        };
        let computed = self.crc.compute_bytes(payload) as u32;
        if stored != computed {
            return Err(WireError::BadCrc);
        }
        let record = Self::parse_payload(payload)?;
        Ok(Some((record, total)))
    }

    fn parse_payload(payload: &[u8]) -> Result<Record, WireError> {
        let Some((&kind, body)) = payload.split_first() else {
            return Err(WireError::Malformed("empty payload".to_string()));
        };
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
                let codec = match r.u8()? {
                    0 => None,
                    raw => Some(codec_from_u8(raw).ok_or(WireError::UnknownCodec(raw))?),
                };
                let packet_type = packet_type_from(r.u8()?)?;
                let len = r.u32()? as usize;
                let bytes = r.take(len)?.to_vec();
                r.finish()?;
                Ok(Record::Payload {
                    key,
                    packet_type,
                    codec,
                    bytes,
                })
            }
            KIND_CONTROL => {
                let (key, update) = read_keyed_update(body, "CONTROL")?;
                Ok(Record::Control { key, update })
            }
            KIND_RESEED => {
                let (key, update) = read_keyed_update(body, "RESEED")?;
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
                packet_type: PacketType::Uncompressed,
                codec: None,
                bytes: vec![6, 7, 8],
            },
            Record::Payload {
                key: sample_key(),
                packet_type: PacketType::Compressed,
                codec: Some(zipline_engine::CODEC_DEFLATE),
                bytes: vec![11, 12, 13],
            },
            Record::Control {
                key: sample_key(),
                update: DictionaryUpdate {
                    seq: 13,
                    at: 2,
                    op: UpdateOp::Install {
                        id: 5,
                        basis: BitVec::from_bytes(&[0x0F, 0xF0]),
                    },
                },
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
            KIND_CONTROL,
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
        let update = DictionaryUpdate {
            seq: 4,
            at: 17,
            op: UpdateOp::Install {
                id: 2,
                basis: BitVec::from_bytes(&[0x55; 8]),
            },
        };
        for tag in [None, Some(zipline_engine::CODEC_DEFLATE)] {
            let mut framed = Vec::new();
            codec.encode_payload_into(
                sample_key(),
                tag,
                PacketType::Compressed,
                &[9, 8, 7],
                &mut framed,
            );
            assert_eq!(
                framed,
                codec.encode(&Record::Payload {
                    key: sample_key(),
                    packet_type: PacketType::Compressed,
                    codec: tag,
                    bytes: vec![9, 8, 7],
                })
            );
        }
        let mut framed = Vec::new();
        codec.encode_control_into(sample_key(), &update, &mut framed);
        assert_eq!(
            framed,
            codec.encode(&Record::Control {
                key: sample_key(),
                update,
            })
        );
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
            for version in [1u16, 2, 3, 5] {
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
                packet_type: PacketType::Compressed,
                codec: tag,
                bytes: vec![1, 2],
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
