//! Property-test suite for the wire codec (PR 7 acceptance):
//!
//! * arbitrary record sequences roundtrip bit-exactly through
//!   `encode → RecordReader`, under arbitrary read chunking;
//! * truncating the byte stream anywhere yields the decodable prefix and
//!   then [`WireError::Truncated`] — or a clean `Ok(None)` exactly when the
//!   cut lands on a record boundary;
//! * flipping any single byte is always detected: the reader returns a
//!   strict prefix of the original records and then an error — never a
//!   panic, never a silently corrupted record;
//! * arbitrary garbage bytes never panic the decoder.

use std::io::{Cursor, Read};

use proptest::prelude::*;
use zipline_engine::{codec_from_u8, Batch, CodecId, DictionaryUpdate, UpdateOp};
use zipline_gd::packet::PacketType;
use zipline_gd::BitVec;
use zipline_server::{
    ClientHello, DoneSummary, FlowKey, Record, RecordReader, ResumeSummary, ServerHello, WireCodec,
    WireError,
};

/// Splits one random word into a tenant-scoped flow key.
fn key_from(seed: u64) -> FlowKey {
    FlowKey::new(seed & 0xFF, seed >> 8)
}

/// A hello codec advertisement. Advertised ids roundtrip verbatim (even
/// unregistered ones — peers skip unknown ids).
fn advertised_from(seed: u64) -> Vec<CodecId> {
    (0..(seed >> 24) % 4)
        .map(|i| CodecId(1 + ((seed >> (8 + 3 * i)) as u8 % 9)))
        .collect()
}

/// An optional *payload* codec tag. Unlike hello advertisements, payload
/// tags must decode through the registry, so only registered ids appear
/// (`None` is wire byte 0, the flow's fixed backend).
fn payload_codec_from(seed: u64) -> Option<CodecId> {
    if seed & 8 == 8 {
        codec_from_u8(1 + (seed >> 13) as u8 % 4)
    } else {
        None
    }
}

/// Splits one random word into a dictionary update (install or remove,
/// basis length 1–9 bytes with a ragged bit tail).
fn update_from(seed: u64) -> DictionaryUpdate {
    let seq = seed & 0xFFFF;
    let at = (seed >> 16) & 0xFFFF;
    let id = (seed >> 32) & 0xFF;
    let op = if seed & 1 == 0 {
        let byte_count = 1 + (seed >> 33) % 9;
        let bytes: Vec<u8> = (0..byte_count).map(|i| (seed >> (i % 8)) as u8).collect();
        let mut basis = BitVec::from_bytes(&bytes);
        let bit_len = basis.len() - (seed >> 40) as usize % 8;
        basis.truncate(bit_len);
        UpdateOp::Install { id, basis }
    } else {
        UpdateOp::Remove { id }
    };
    DictionaryUpdate { seq, at, op }
}

/// One random word out of a byte draw (FNV-1a), so byte-carrying records
/// get varied keys and tags from a single strategy.
fn seed_of(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Cuts a byte draw into one batch: runs of short equal-shaped payloads
/// broken by the odd long one, an update ahead of every eleventh payload
/// and sometimes one after the last.
fn batch_from(bytes: &[u8]) -> Batch {
    let seed = seed_of(bytes);
    let mut batch = Batch::default();
    batch.set_codec(payload_codec_from(seed.rotate_right(7)));
    let mut rest = bytes;
    for i in 0u64.. {
        if rest.is_empty() {
            break;
        }
        if i % 11 == 0 {
            batch.push_update(update_from(seed.rotate_left(i as u32 % 64) ^ i));
        }
        let len = if i % 9 == 8 {
            33
        } else {
            3 + seed as usize % 2
        };
        let (payload, tail) = rest.split_at(len.min(rest.len()));
        let packet_type = match (i / 4 + seed) % 3 {
            0 => PacketType::Raw,
            1 => PacketType::Uncompressed,
            _ => PacketType::Compressed,
        };
        batch.push_payload(packet_type, payload);
        rest = tail;
    }
    if seed & 1 == 1 {
        batch.push_update(update_from(seed.rotate_right(11)));
    }
    batch
}

fn done_from(seed: u64) -> DoneSummary {
    DoneSummary {
        bytes_in: seed >> 2,
        payloads_emitted: seed >> 5,
        wire_bytes: seed >> 9,
        compressed_payloads: seed % 11,
        control_updates: seed % 3,
        server_initiated: seed & 1 == 1,
    }
}

fn record_strategy() -> BoxedStrategy<Record> {
    prop_oneof![
        any::<u64>().prop_map(|seed| Record::ClientHello(ClientHello {
            codecs: advertised_from(seed),
        })),
        any::<u64>().prop_map(|seed| Record::Open {
            key: key_from(seed),
            entries_held: seed.rotate_left(29) & 0xFFFF,
        }),
        proptest::collection::vec(any::<u8>(), 0..200).prop_map(|bytes| Record::Data {
            key: key_from(seed_of(&bytes)),
            bytes,
        }),
        any::<u64>().prop_map(|seed| Record::EndFlow {
            key: key_from(seed)
        }),
        Just(Record::End),
        any::<u64>().prop_map(|seed| Record::ServerHello(ServerHello {
            codecs: advertised_from(seed.rotate_left(9)),
        })),
        any::<u64>().prop_map(|seed| Record::Opened {
            key: key_from(seed),
            resume: ResumeSummary {
                resume_bytes_in: seed >> 8,
                replay_entries: seed & 0x7F,
                reseed_entries: (seed >> 32) & 0x7F,
                warm: seed & 1 == 1,
            },
        }),
        // From an empty batch to a multi-KiB one spanning many reads.
        proptest::collection::vec(any::<u8>(), 0..6000).prop_map(|bytes| Record::Payload {
            key: key_from(seed_of(&bytes)),
            batch: batch_from(&bytes),
        }),
        any::<u64>().prop_map(|seed| Record::Reseed {
            key: key_from(seed),
            update: update_from(seed.rotate_right(23)),
        }),
        any::<u64>().prop_map(|seed| Record::FlowDone {
            key: key_from(seed),
            summary: done_from(seed),
        }),
        any::<u64>().prop_map(|seed| Record::Done(done_from(seed.rotate_left(3)))),
        proptest::collection::vec(0x20u8..0x7F, 0..60)
            .prop_map(|bytes| Record::Error(String::from_utf8(bytes).expect("ascii"))),
    ]
    .boxed()
}

/// Encodes `records` back to back, returning the stream and the byte offset
/// of each record boundary (0 and the total length included).
fn encode_all(records: &[Record]) -> (Vec<u8>, Vec<usize>) {
    let mut codec = WireCodec::new();
    let mut wire = Vec::new();
    let mut boundaries = vec![0usize];
    for record in records {
        codec.encode_into(record, &mut wire);
        boundaries.push(wire.len());
    }
    (wire, boundaries)
}

/// Reads records until EOF or error, returning both.
fn drain(bytes: &[u8]) -> (Vec<Record>, Option<WireError>) {
    let mut reader = RecordReader::new(Cursor::new(bytes));
    let mut decoded = Vec::new();
    loop {
        match reader.read_record() {
            Ok(Some(record)) => decoded.push(record),
            Ok(None) => return (decoded, None),
            Err(e) => return (decoded, Some(e)),
        }
    }
}

/// A reader that serves at most `step` bytes per call (exercises reframing).
struct Chunked<'a> {
    data: &'a [u8],
    pos: usize,
    step: usize,
}

impl Read for Chunked<'_> {
    fn read(&mut self, out: &mut [u8]) -> std::io::Result<usize> {
        let n = self.step.min(out.len()).min(self.data.len() - self.pos);
        out[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.pos += n;
        Ok(n)
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any record sequence roundtrips bit-exactly, whatever the read
    /// chunking of the underlying stream.
    #[test]
    fn arbitrary_sequences_roundtrip_under_arbitrary_chunking(
        records in proptest::collection::vec(record_strategy(), 0..12),
        step in 1usize..64,
    ) {
        let (wire, _) = encode_all(&records);
        let mut reader = RecordReader::new(Chunked { data: &wire, pos: 0, step });
        let mut decoded = Vec::new();
        while let Some(record) = reader.read_record().expect("valid frames decode") {
            decoded.push(record);
        }
        prop_assert_eq!(decoded, records);
    }

    /// Cutting the stream at any byte offset yields exactly the records
    /// whose frames lie fully before the cut, then `Truncated` — or a clean
    /// EOF when the cut lands on a record boundary.
    #[test]
    fn truncation_at_any_offset_is_loud(
        records in proptest::collection::vec(record_strategy(), 1..8),
        cut_selector in any::<u64>(),
    ) {
        let (wire, boundaries) = encode_all(&records);
        let cut = (cut_selector % (wire.len() as u64 + 1)) as usize;
        let whole = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
        let (decoded, error) = drain(&wire[..cut]);
        prop_assert_eq!(&decoded[..], &records[..whole]);
        if boundaries.contains(&cut) {
            prop_assert!(error.is_none(), "boundary cut must be a clean EOF");
        } else {
            prop_assert!(
                matches!(error, Some(WireError::Truncated)),
                "mid-record cut must be Truncated, got {:?}",
                error
            );
        }
    }

    /// Flipping any single byte is detected: the reader hands back a strict
    /// prefix of the original records, then errors — and never panics.
    #[test]
    fn single_byte_flips_never_pass_and_never_panic(
        records in proptest::collection::vec(record_strategy(), 1..8),
        position_selector in any::<u64>(),
        flip in 1u8..=255,
    ) {
        let (mut wire, _) = encode_all(&records);
        let position = (position_selector % wire.len() as u64) as usize;
        wire[position] ^= flip;
        let (decoded, error) = drain(&wire);
        prop_assert!(
            error.is_some(),
            "a flipped byte must surface as an error (CRC, framing or parse)"
        );
        prop_assert!(decoded.len() < records.len(), "corruption loses a record");
        prop_assert_eq!(&decoded[..], &records[..decoded.len()]);
    }

    /// Foreign garbage never panics the decoder; it decodes nothing valid
    /// or errors, but stays total.
    #[test]
    fn arbitrary_garbage_never_panics(
        garbage in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        let (_decoded, _error) = drain(&garbage);
    }
}
