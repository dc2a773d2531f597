//! The one record discipline and body codec of the workspace's byte
//! containers: the server's socket protocol (`zipline-server`'s `wire.rs`)
//! and the durable journals ([`crate::persist`]) both frame and parse
//! through this module.
//!
//! # Records
//!
//! ```text
//! record  := len:u32le payload crc:u32le
//! payload := kind:u8 body
//! ```
//!
//! `len` counts the payload bytes (kind byte included) and `crc` is CRC-32
//! (polynomial `0x04C1_1DB7`, the [`CrcEngine`] convention) over the
//! payload. [`write_record`] seals one, [`scan_record`] finds the next one
//! in a byte buffer; a record that fails its length or CRC check is never
//! handed to a body parser.
//!
//! # Bodies
//!
//! All integers are little-endian; a `varint` is an unsigned LEB128 of at
//! most ten bytes; a bit vector is `bit_len:u32le` plus its byte-padded
//! bits. [`BodyReader`] is the bounded reader over one body: every
//! shortfall is a typed [`FrameError`], never a panic, and nothing is
//! allocated from a length the body does not actually hold.
//!
//! ```text
//! update := seq:u64le at:u64le (0 id:u64le basis:bitvec | 1 id:u64le)
//! ```
//!
//! # The batch body
//!
//! A compressed batch — the engine's commit unit, codec-tag unit and
//! live-sync delta unit — is one [`Batch`], and one body:
//!
//! ```text
//! batch := codec:u8
//!          updates:varint (before:varint update)*
//!          runs:varint    (packet_type:u8 len:varint count:varint)*
//!          payload bytes, back to back
//! ```
//!
//! `codec` is the [`CodecId`] that compressed the batch, or `0` for "the
//! stream's fixed backend". The payloads are run-length coded by
//! `(packet type, length)` — GD emits two or three distinct shapes per
//! batch — and their bytes follow untouched. Each dictionary update names
//! the payload it goes `before` (positions never decrease; `before ==`
//! payload count means after the last payload), so expanding a batch
//! ([`Batch::events`]) yields every update strictly ahead of the payload
//! that needs it — the order the per-payload records of earlier formats
//! carried structurally. On the socket the body follows a flow key in the
//! `PAYLOAD` record; in `frames.zfl` it is the `BATCH` record.

use std::fmt;

use crate::registry::{codec_from_u8, CodecId};
use crate::shard::{DictionaryUpdate, UpdateOp};
use zipline_gd::packet::PacketType;
use zipline_gd::{BitVec, CrcEngine, CrcSpec};

/// A body that does not parse. Callers map it into their own error type
/// (`WireError`, [`crate::PersistError`]).
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum FrameError {
    /// The body of a known kind did not parse.
    Malformed(String),
    /// A batch named a codec id no registry entry covers.
    UnknownCodec(u8),
}

impl fmt::Display for FrameError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FrameError::Malformed(what) => write!(f, "malformed record body: {what}"),
            FrameError::UnknownCodec(id) => write!(f, "batch names unknown codec id {id}"),
        }
    }
}

impl std::error::Error for FrameError {}

/// The record CRC: CRC-32 in the crate's `B(x) mod g(x)` convention.
pub fn record_crc() -> CrcEngine {
    // zipline-lint: allow(L001): CRC-32 spec parameters are compile-time constants; construction cannot fail
    CrcEngine::new(CrcSpec::new(32, 0x04C1_1DB7).expect("CRC-32 spec is valid"))
}

/// Appends one sealed record to `out`: the length prefix, `kind`, whatever
/// `body` writes, and the CRC over kind + body.
pub fn write_record(crc: &CrcEngine, out: &mut Vec<u8>, kind: u8, body: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    out.extend_from_slice(&[0; 4]);
    out.push(kind);
    body(out);
    let payload = start + 4;
    let len = (out.len() - payload) as u32;
    out[start..payload].copy_from_slice(&len.to_le_bytes());
    let sum = crc.compute_bytes(&out[payload..]) as u32;
    out.extend_from_slice(&sum.to_le_bytes());
}

/// What sits at the front of a byte buffer.
#[derive(Debug, PartialEq, Eq)]
pub enum Scanned<'a> {
    /// A prefix of a record: more bytes are needed (or, at the end of a
    /// file, the tail is torn).
    Incomplete,
    /// The length field is zero or above the caller's bound.
    BadLength(usize),
    /// The payload does not match its trailing CRC.
    BadCrc,
    /// One whole, CRC-valid record.
    Record {
        /// The kind byte.
        kind: u8,
        /// The body after the kind byte.
        body: &'a [u8],
        /// Bytes the record occupies, framing included.
        len: usize,
    },
}

/// Little-endian `u32` starting at byte `at`; `None` when `buf` is too
/// short.
fn read_le_u32(buf: &[u8], at: usize) -> Option<u32> {
    let bytes: [u8; 4] = buf.get(at..at.checked_add(4)?)?.try_into().ok()?;
    Some(u32::from_le_bytes(bytes))
}

/// Examines the record at the front of `buf`, accepting payloads of at most
/// `max_payload` bytes.
pub fn scan_record<'a>(crc: &CrcEngine, buf: &'a [u8], max_payload: usize) -> Scanned<'a> {
    let Some(len) = read_le_u32(buf, 0) else {
        return Scanned::Incomplete;
    };
    let len = len as usize;
    if len == 0 || len > max_payload {
        return Scanned::BadLength(len);
    }
    let (Some(payload), Some(stored)) = (buf.get(4..4 + len), read_le_u32(buf, 4 + len)) else {
        return Scanned::Incomplete;
    };
    if crc.compute_bytes(payload) as u32 != stored {
        return Scanned::BadCrc;
    }
    match payload.split_first() {
        Some((&kind, body)) => Scanned::Record {
            kind,
            body,
            len: 4 + len + 4,
        },
        None => Scanned::BadLength(len),
    }
}

/// Appends a little-endian `u16`.
pub fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u32`.
pub fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends a little-endian `u64`.
pub fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Appends an unsigned LEB128: seven value bits per byte, low group first,
/// the high bit set on every byte but the last.
pub fn put_varint(buf: &mut Vec<u8>, mut v: u64) {
    while v >= 0x80 {
        buf.push(v as u8 | 0x80);
        v >>= 7;
    }
    buf.push(v as u8);
}

/// Appends a bit vector: its bit length, then its byte-padded bits.
pub fn put_bitvec(buf: &mut Vec<u8>, bits: &BitVec) {
    put_u32(buf, bits.len() as u32);
    buf.extend_from_slice(&bits.to_bytes());
}

/// Appends one dictionary update.
pub fn put_update(buf: &mut Vec<u8>, update: &DictionaryUpdate) {
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

/// Bounded reader over one record body; every shortfall is a
/// [`FrameError::Malformed`] naming the record being parsed.
#[derive(Debug)]
pub struct BodyReader<'a> {
    data: &'a [u8],
    pos: usize,
    what: &'static str,
}

impl<'a> BodyReader<'a> {
    /// A reader over `data`, the body of a `what` record.
    pub fn new(data: &'a [u8], what: &'static str) -> Self {
        Self { data, pos: 0, what }
    }

    /// A [`FrameError::Malformed`] naming this record and `problem`.
    pub fn malformed(&self, problem: impl fmt::Display) -> FrameError {
        FrameError::Malformed(format!("{}: {problem}", self.what))
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The next `n` bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], FrameError> {
        let end = self.pos.checked_add(n);
        let Some(slice) = end.and_then(|end| self.data.get(self.pos..end)) else {
            return Err(self.malformed("body shorter than declared"));
        };
        self.pos += n;
        Ok(slice)
    }

    fn array<const N: usize>(&mut self) -> Result<[u8; N], FrameError> {
        let mut out = [0u8; N];
        out.copy_from_slice(self.take(N)?);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> Result<u8, FrameError> {
        let [b] = self.array()?;
        Ok(b)
    }

    /// A little-endian `u16`.
    pub fn u16(&mut self) -> Result<u16, FrameError> {
        Ok(u16::from_le_bytes(self.array()?))
    }

    /// A little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, FrameError> {
        Ok(u32::from_le_bytes(self.array()?))
    }

    /// A little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, FrameError> {
        Ok(u64::from_le_bytes(self.array()?))
    }

    /// Unsigned LEB128, bounded: at most ten bytes, and the tenth may only
    /// carry the one bit a `u64` has left.
    pub fn varint(&mut self) -> Result<u64, FrameError> {
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
        Err(self.malformed("varint overflows 64 bits"))
    }

    /// A bit vector written by [`put_bitvec`].
    pub fn bitvec(&mut self) -> Result<BitVec, FrameError> {
        let bit_len = self.u32()? as usize;
        let bytes = self.take(bit_len.div_ceil(8))?;
        let mut bits = BitVec::from_bytes(bytes);
        bits.truncate(bit_len);
        Ok(bits)
    }

    /// A dictionary update written by [`put_update`].
    pub fn update(&mut self) -> Result<DictionaryUpdate, FrameError> {
        let seq = self.u64()?;
        let at = self.u64()?;
        let op = match self.u8()? {
            0 => UpdateOp::Install {
                id: self.u64()?,
                basis: self.bitvec()?,
            },
            1 => UpdateOp::Remove { id: self.u64()? },
            other => return Err(self.malformed(format_args!("unknown update op {other}"))),
        };
        Ok(DictionaryUpdate { seq, at, op })
    }

    /// A packet-type byte.
    pub fn packet_type(&mut self) -> Result<PacketType, FrameError> {
        match self.u8()? {
            1 => Ok(PacketType::Raw),
            2 => Ok(PacketType::Uncompressed),
            3 => Ok(PacketType::Compressed),
            other => Err(self.malformed(format_args!("unknown packet type {other}"))),
        }
    }

    /// A codec byte: `0` is the untagged sentinel, anything else must
    /// resolve in the registry.
    pub fn codec(&mut self) -> Result<Option<CodecId>, FrameError> {
        match self.u8()? {
            0 => Ok(None),
            raw => codec_from_u8(raw)
                .map(Some)
                .ok_or(FrameError::UnknownCodec(raw)),
        }
    }

    /// Everything not yet consumed.
    pub fn rest(&mut self) -> &'a [u8] {
        let slice = self.data.get(self.pos..).unwrap_or_default();
        self.pos = self.data.len();
        slice
    }

    /// Succeeds only when the whole body was consumed.
    pub fn finish(self) -> Result<(), FrameError> {
        if self.pos == self.data.len() {
            Ok(())
        } else {
            Err(self.malformed("trailing bytes in body"))
        }
    }
}

/// `count` consecutive payloads of one packet type and one length.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PayloadRun {
    packet_type: PacketType,
    len: u32,
    count: u32,
}

/// One compressed batch: its codec tag, its payloads (run-length coded
/// shapes over one contiguous byte buffer) and the dictionary updates
/// interleaved with them. See the module docs for the encoded body.
///
/// A `Batch` is built payload by payload ([`Self::push_payload`],
/// [`Self::push_update`], [`Self::place_updates`]) or parsed
/// ([`Self::decode`]); either way its runs always account for exactly its
/// bytes and no update sits past its last payload.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Batch {
    codec: Option<CodecId>,
    /// `(before, update)`: the update precedes payload number `before`.
    updates: Vec<(u64, DictionaryUpdate)>,
    runs: Vec<PayloadRun>,
    bytes: Vec<u8>,
    payloads: u64,
}

/// One step of a batch's expansion, in wire order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BatchEvent<'a> {
    /// A dictionary update, ahead of the payload that needs it.
    Update(&'a DictionaryUpdate),
    /// One wire payload.
    Payload(PacketType, &'a [u8]),
}

impl Batch {
    /// Empties the batch, keeping its buffers.
    pub fn clear(&mut self) {
        self.codec = None;
        self.updates.clear();
        self.runs.clear();
        self.bytes.clear();
        self.payloads = 0;
    }

    /// The codec that compressed the batch; `None` means the stream's
    /// fixed backend.
    pub fn codec(&self) -> Option<CodecId> {
        self.codec
    }

    /// Tags the batch.
    pub fn set_codec(&mut self, codec: Option<CodecId>) {
        self.codec = codec;
    }

    /// Appends one payload.
    pub fn push_payload(&mut self, packet_type: PacketType, bytes: &[u8]) {
        debug_assert!(!bytes.is_empty(), "backends never emit an empty payload");
        let len = bytes.len() as u32;
        match self.runs.last_mut() {
            Some(run) if run.packet_type == packet_type && run.len == len => run.count += 1,
            _ => self.runs.push(PayloadRun {
                packet_type,
                len,
                count: 1,
            }),
        }
        self.bytes.extend_from_slice(bytes);
        self.payloads += 1;
    }

    /// Appends one update ahead of the next payload pushed.
    pub fn push_update(&mut self, update: DictionaryUpdate) {
        self.updates.push((self.payloads, update));
    }

    /// Places a finished batch's dictionary delta among its payloads: each
    /// update goes before the payload at its `at` position, and never ahead
    /// of the update before it.
    pub fn place_updates(&mut self, updates: Vec<DictionaryUpdate>) {
        let mut floor = 0;
        self.updates.clear();
        self.updates.extend(updates.into_iter().map(|update| {
            floor = update.at.clamp(floor, self.payloads);
            (floor, update)
        }));
    }

    /// Drops the updates (a stream nobody syncs a decoder from).
    pub fn clear_updates(&mut self) {
        self.updates.clear();
    }

    /// Number of payloads.
    pub fn payload_count(&self) -> u64 {
        self.payloads
    }

    /// Number of payloads in compressed (type 3) form.
    pub fn compressed_payloads(&self) -> u64 {
        self.runs
            .iter()
            .filter(|run| run.packet_type == PacketType::Compressed)
            .map(|run| u64::from(run.count))
            .sum()
    }

    /// Total payload bytes.
    pub fn wire_bytes(&self) -> usize {
        self.bytes.len()
    }

    /// The dictionary updates, in wire order.
    pub fn updates(&self) -> impl ExactSizeIterator<Item = &DictionaryUpdate> {
        self.updates.iter().map(|(_, update)| update)
    }

    /// True when the batch carries neither payloads nor updates.
    pub fn is_empty(&self) -> bool {
        self.payloads == 0 && self.updates.is_empty()
    }

    /// Expands the batch: every update strictly before the payload it
    /// precedes, payloads in input order.
    pub fn events(&self) -> BatchEvents<'_> {
        BatchEvents {
            batch: self,
            update: 0,
            run: 0,
            in_run: 0,
            offset: 0,
            payload: 0,
        }
    }

    /// Appends the batch body.
    pub fn encode_into(&self, out: &mut Vec<u8>) {
        out.push(self.codec.map_or(0, CodecId::as_u8));
        put_varint(out, self.updates.len() as u64);
        for (before, update) in &self.updates {
            put_varint(out, *before);
            put_update(out, update);
        }
        put_varint(out, self.runs.len() as u64);
        for run in &self.runs {
            out.push(run.packet_type.number());
            put_varint(out, u64::from(run.len));
            put_varint(out, u64::from(run.count));
        }
        out.extend_from_slice(&self.bytes);
    }

    /// Parses a batch body — the rest of `r`. Work and allocation are
    /// bounded by the body's own length whatever its counts claim.
    pub fn decode(mut r: BodyReader<'_>) -> Result<Self, FrameError> {
        let codec = r.codec()?;
        // Every announced update or run costs at least one body byte, so a
        // hostile count runs out of body long before it runs out of loop.
        let mut updates = Vec::new();
        let mut floor = 0u64;
        for _ in 0..r.varint()? {
            let before = r.varint()?;
            if before < floor {
                return Err(r.malformed("update positions run backwards"));
            }
            floor = before;
            updates.push((before, r.update()?));
        }
        let mut runs = Vec::new();
        let mut payloads = 0u64;
        let mut total = 0usize;
        for _ in 0..r.varint()? {
            let packet_type = r.packet_type()?;
            let (len, count) = (r.varint()?, r.varint()?);
            if len == 0 || count == 0 {
                return Err(r.malformed("empty payload run"));
            }
            // `len × count` may not exceed what is left of the body, which
            // also bounds both factors.
            let fits = len
                .checked_mul(count)
                .and_then(|bytes| usize::try_from(bytes).ok())
                .and_then(|bytes| total.checked_add(bytes))
                .filter(|&sum| sum <= r.remaining());
            let (Some(sum), Ok(len), Ok(count)) = (fits, u32::try_from(len), u32::try_from(count))
            else {
                return Err(r.malformed("payload runs overrun the body"));
            };
            total = sum;
            payloads += u64::from(count);
            runs.push(PayloadRun {
                packet_type,
                len,
                count,
            });
        }
        let bytes = r.rest();
        if bytes.len() != total {
            return Err(r.malformed(format_args!(
                "{} payload bytes where the runs account for {total}",
                bytes.len()
            )));
        }
        if floor > payloads {
            return Err(r.malformed(format_args!(
                "update placed before payload {floor} of {payloads}"
            )));
        }
        Ok(Self {
            codec,
            updates,
            runs,
            bytes: bytes.to_vec(),
            payloads,
        })
    }
}

/// Iterator behind [`Batch::events`].
#[derive(Debug, Clone)]
pub struct BatchEvents<'a> {
    batch: &'a Batch,
    /// Next update.
    update: usize,
    /// Current run, and payloads already taken from it.
    run: usize,
    in_run: u32,
    /// Byte offset of the next payload.
    offset: usize,
    /// Number of the next payload.
    payload: u64,
}

impl<'a> Iterator for BatchEvents<'a> {
    type Item = BatchEvent<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        if let Some((before, update)) = self.batch.updates.get(self.update) {
            if *before <= self.payload {
                self.update += 1;
                return Some(BatchEvent::Update(update));
            }
        }
        let run = self.batch.runs.get(self.run)?;
        let end = self.offset + run.len as usize;
        let bytes = self.batch.bytes.get(self.offset..end)?;
        self.offset = end;
        self.payload += 1;
        self.in_run += 1;
        if self.in_run == run.count {
            self.run += 1;
            self.in_run = 0;
        }
        Some(BatchEvent::Payload(run.packet_type, bytes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::CODEC_DEFLATE;

    fn install(seq: u64, at: u64, id: u64) -> DictionaryUpdate {
        DictionaryUpdate {
            seq,
            at,
            op: UpdateOp::Install {
                id,
                basis: BitVec::from_bytes(&[id as u8; 5]),
            },
        }
    }

    fn remove(seq: u64, at: u64, id: u64) -> DictionaryUpdate {
        DictionaryUpdate {
            seq,
            at,
            op: UpdateOp::Remove { id },
        }
    }

    /// Three runs, updates at the front, in the middle and doubled up.
    fn sample() -> Batch {
        let mut batch = Batch::default();
        batch.set_codec(Some(CODEC_DEFLATE));
        for i in 0..5u8 {
            batch.push_payload(PacketType::Compressed, &[i, i, i]);
        }
        batch.push_payload(PacketType::Uncompressed, &[9; 7]);
        batch.push_payload(PacketType::Compressed, &[5, 5, 5]);
        batch.push_payload(PacketType::Raw, &[1]);
        batch.place_updates(vec![
            install(10, 0, 1),
            remove(11, 5, 1),
            install(12, 5, 2),
            install(13, 7, 3),
        ]);
        batch
    }

    fn encoded(batch: &Batch) -> Vec<u8> {
        let mut body = Vec::new();
        batch.encode_into(&mut body);
        body
    }

    fn decode(body: &[u8]) -> Result<Batch, FrameError> {
        Batch::decode(BodyReader::new(body, "BATCH"))
    }

    fn assert_malformed(body: &[u8], needle: &str) {
        match decode(body) {
            Err(FrameError::Malformed(message)) => assert!(
                message.contains(needle),
                "expected a message naming {needle:?}, got: {message}"
            ),
            other => panic!("expected Malformed naming {needle:?}, got {other:?}"),
        }
    }

    #[test]
    fn batches_roundtrip_and_expand_in_wire_order() {
        let batch = sample();
        assert_eq!(batch.payload_count(), 8);
        assert_eq!(batch.compressed_payloads(), 6);
        assert_eq!(batch.wire_bytes(), 5 * 3 + 7 + 3 + 1);
        assert_eq!(batch.runs.len(), 4, "equal neighbours share a run");
        let back = decode(&encoded(&batch)).expect("own encoding parses");
        assert_eq!(back, batch);

        let order: Vec<String> = back
            .events()
            .map(|event| match event {
                BatchEvent::Update(update) => format!("u{}", update.seq),
                BatchEvent::Payload(_, bytes) => format!("p{}", bytes.len()),
            })
            .collect();
        assert_eq!(
            order,
            ["u10", "p3", "p3", "p3", "p3", "p3", "u11", "u12", "p7", "p3", "u13", "p1"]
        );

        assert!(Batch::default().is_empty());
        assert_eq!(decode(&encoded(&Batch::default())), Ok(Batch::default()));
    }

    #[test]
    fn updates_pushed_in_emission_order_keep_their_place_whatever_their_at() {
        // A replayed tail: positions come from where the entries sat, not
        // from `at`, which still names the original batch.
        let mut batch = Batch::default();
        batch.push_update(install(4, 200, 1));
        batch.push_payload(PacketType::Compressed, &[1, 2]);
        batch.push_update(remove(5, 201, 1));
        let back = decode(&encoded(&batch)).expect("parses");
        let events: Vec<_> = back.events().collect();
        assert!(matches!(
            events.as_slice(),
            [
                BatchEvent::Update(DictionaryUpdate {
                    seq: 4,
                    at: 200,
                    ..
                }),
                BatchEvent::Payload(PacketType::Compressed, [1, 2]),
                BatchEvent::Update(DictionaryUpdate {
                    seq: 5,
                    at: 201,
                    ..
                }),
            ]
        ));
    }

    #[test]
    fn place_updates_never_reorders_and_never_overshoots() {
        let mut batch = Batch::default();
        batch.push_payload(PacketType::Raw, &[1]);
        batch.push_payload(PacketType::Raw, &[2]);
        // Out of order and past the end: positions are a running maximum,
        // clamped to the payload count.
        batch.place_updates(vec![remove(0, 1, 7), remove(1, 0, 8), remove(2, 9, 9)]);
        let seqs: Vec<_> = batch
            .events()
            .map(|event| match event {
                BatchEvent::Update(update) => update.seq as i64,
                BatchEvent::Payload(..) => -1,
            })
            .collect();
        assert_eq!(seqs, [-1, 0, 1, -1, 2]);
        assert_eq!(decode(&encoded(&batch)), Ok(batch));
    }

    /// A body with the given codec byte, no updates and the given runs.
    fn body_of(runs: &[(u8, u64, u64)], bytes: &[u8]) -> Vec<u8> {
        let mut body = vec![0, 0];
        put_varint(&mut body, runs.len() as u64);
        for &(packet_type, len, count) in runs {
            body.push(packet_type);
            put_varint(&mut body, len);
            put_varint(&mut body, count);
        }
        body.extend_from_slice(bytes);
        body
    }

    #[test]
    fn hostile_bodies_are_typed_errors_bounded_by_their_length() {
        // A zero-length run with a huge count would expand without end.
        assert_malformed(&body_of(&[(3, 0, u64::MAX)], &[]), "empty payload run");
        assert_malformed(&body_of(&[(3, 4, 0)], &[]), "empty payload run");
        // len × count overflows, or merely exceeds the body.
        assert_malformed(&body_of(&[(3, 1 << 40, 1 << 40)], &[1]), "overrun");
        assert_malformed(&body_of(&[(3, u64::MAX, 1)], &[1]), "overrun");
        assert_malformed(&body_of(&[(3, 2, 3)], &[0; 5]), "overrun");
        assert_malformed(&body_of(&[(3, 2, 1), (2, 2, 1)], &[0; 3]), "overrun");
        // Runs that stop short of the body: trailing garbage.
        assert_malformed(&body_of(&[(3, 2, 2)], &[0; 5]), "5 payload bytes");
        assert_malformed(&body_of(&[], &[0]), "1 payload bytes");
        // Unknown packet type, unknown codec.
        assert_malformed(&body_of(&[(4, 1, 1)], &[0]), "unknown packet type 4");
        let mut body = encoded(&sample());
        body[0] = 0xEE;
        assert_eq!(decode(&body), Err(FrameError::UnknownCodec(0xEE)));
        // Counts that promise more than the body holds.
        let mut body = vec![0];
        put_varint(&mut body, u64::MAX);
        assert_malformed(&body, "shorter than declared");
        let mut body = vec![0, 0];
        put_varint(&mut body, u64::MAX);
        assert_malformed(&body, "shorter than declared");
        assert_malformed(&[], "shorter than declared");
    }

    #[test]
    fn update_positions_are_checked() {
        let mut one = Batch::default();
        one.push_payload(PacketType::Raw, &[1]);
        one.push_update(remove(0, 0, 1));
        let good = encoded(&one);
        assert_eq!(decode(&good), Ok(one));
        // codec, update count, then the position varint.
        let mut past = good.clone();
        past[2] = 2;
        assert_malformed(&past, "before payload 2 of 1");

        let mut two = Batch::default();
        two.push_payload(PacketType::Raw, &[1]);
        two.push_update(remove(0, 0, 1));
        two.push_update(remove(1, 0, 2));
        let mut backwards = encoded(&two);
        assert_eq!(backwards[2], 1);
        backwards[2] = 3;
        assert_malformed(&backwards, "run backwards");

        let mut op = good;
        // position(1) + seq(8) + at(8), then the op byte.
        op[2 + 1 + 16] = 7;
        assert_malformed(&op, "unknown update op 7");
    }

    #[test]
    fn every_truncation_of_a_batch_body_is_a_typed_error() {
        let body = encoded(&sample());
        for cut in 0..body.len() {
            assert!(
                matches!(decode(&body[..cut]), Err(FrameError::Malformed(_))),
                "a body cut at {cut} must not parse"
            );
        }
    }

    #[test]
    fn records_seal_and_scan() {
        let crc = record_crc();
        let mut log = Vec::new();
        write_record(&crc, &mut log, 0x21, |body| body.extend_from_slice(b"abc"));
        write_record(&crc, &mut log, 0x22, |_| {});
        let first = 4 + 1 + 3 + 4;
        assert_eq!(
            scan_record(&crc, &log, 64),
            Scanned::Record {
                kind: 0x21,
                body: b"abc",
                len: first
            }
        );
        assert_eq!(
            scan_record(&crc, &log[first..], 64),
            Scanned::Record {
                kind: 0x22,
                body: b"",
                len: 9
            }
        );
        for cut in 0..first {
            assert_eq!(scan_record(&crc, &log[..cut], 64), Scanned::Incomplete);
        }
        assert_eq!(scan_record(&crc, &log, 3), Scanned::BadLength(4));
        assert_eq!(scan_record(&crc, &[0; 8], 64), Scanned::BadLength(0));
        let mut flipped = log.clone();
        flipped[6] ^= 1;
        assert_eq!(scan_record(&crc, &flipped, 64), Scanned::BadCrc);
    }

    #[test]
    fn varints_are_bounded() {
        for value in [0, 0x7F, 0x80, 1 << 62, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, value);
            let mut r = BodyReader::new(&buf, "test");
            assert_eq!(r.varint(), Ok(value));
            r.finish().expect("consumed");
        }
        let mut endless = vec![0xFF; 10];
        assert!(BodyReader::new(&endless, "test").varint().is_err());
        endless[9] = 0x02;
        assert!(BodyReader::new(&endless, "test").varint().is_err());
    }
}
