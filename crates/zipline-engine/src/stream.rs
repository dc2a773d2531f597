//! What a stream hands its output to, and how it accounts for it.
//!
//! [`PipelinedStream`](crate::PipelinedStream) produces its output a whole
//! [`Batch`] at a time — committed first, on a durable engine — through
//! `stage_batch` and `deliver`. A [`BatchSink`] decides what a batch
//! becomes: [`PayloadSinks`] expands it into per-payload and per-update
//! calls, the flow router queues it as it is. [`StreamSummary`] totals what
//! was delivered.
//!
//! Every batch carries the dictionary updates that make its payloads
//! decodable, each placed strictly before the payload at whose position it
//! happened. A control plane that forwards them on the same in-order
//! channel as the payloads keeps a remote decoder's `identifier → basis`
//! table exact even when the dictionary churns past capacity and recycles
//! identifiers. Delta-less backends (deflate, passthrough) never produce
//! updates.

use crate::backend::CompressionBackend;
use crate::frame::{Batch, BatchEvent};
use crate::registry::CodecCursor;
use crate::shard::DictionaryUpdate;
use zipline_gd::packet::PacketType;

/// Where a stream hands its finished batches; see the module docs.
pub trait BatchSink {
    /// Whether the sink consumes the batches' dictionary updates. When
    /// false a batch's updates are dropped before it is handed over.
    fn wants_updates(&self) -> bool;

    /// Takes one finished batch, in stream order. The sink may move the
    /// batch's buffers out; whatever it leaves is recycled.
    fn batch(&mut self, batch: &mut Batch);
}

/// The per-payload face of a [`BatchSink`]: expands each batch into
/// `sink(packet type, bytes)` calls in input order, with every dictionary
/// update handed to `control_sink` strictly before the payload at whose
/// position it happened, and publishes the batch's codec tag through an
/// attached [`CodecCursor`] first.
pub struct PayloadSinks<F, G> {
    sink: F,
    control_sink: Option<G>,
    codec_cursor: Option<CodecCursor>,
}

impl<F, G> BatchSink for PayloadSinks<F, G>
where
    F: FnMut(PacketType, &[u8]),
    G: FnMut(&DictionaryUpdate),
{
    fn wants_updates(&self) -> bool {
        self.control_sink.is_some()
    }

    fn batch(&mut self, batch: &mut Batch) {
        if let Some(cursor) = &self.codec_cursor {
            cursor.set(batch.codec());
        }
        for event in batch.events() {
            match event {
                BatchEvent::Update(update) => {
                    if let Some(control_sink) = &mut self.control_sink {
                        control_sink(update);
                    }
                }
                BatchEvent::Payload(packet_type, bytes) => (self.sink)(packet_type, bytes),
            }
        }
    }
}

impl<F, G> PayloadSinks<F, G> {
    pub(crate) fn new(sink: F, control_sink: Option<G>) -> Self {
        Self {
            sink,
            control_sink,
            codec_cursor: None,
        }
    }

    pub(crate) fn set_codec_cursor(&mut self, cursor: CodecCursor) {
        self.codec_cursor = Some(cursor);
    }
}

/// Hands one finished (and, when durable, committed) batch to `sink`,
/// accumulating the [`StreamSummary`].
pub(crate) fn deliver(batch: &mut Batch, sink: &mut impl BatchSink, summary: &mut StreamSummary) {
    if !sink.wants_updates() {
        batch.clear_updates();
    }
    summary.payloads_emitted += batch.payload_count();
    summary.wire_bytes += batch.wire_bytes() as u64;
    summary.compressed_payloads += batch.compressed_payloads();
    summary.control_updates += batch.updates().len() as u64;
    sink.batch(batch);
}

/// Totals accumulated by a [`PipelinedStream`](crate::PipelinedStream),
/// returned by its `finish`.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct StreamSummary {
    /// Record bytes pushed into the stream.
    pub bytes_in: u64,
    /// Wire payloads emitted to the sink.
    pub payloads_emitted: u64,
    /// Total wire bytes emitted to the sink.
    pub wire_bytes: u64,
    /// Payloads emitted in compressed (type 3) form.
    pub compressed_payloads: u64,
    /// Dictionary updates handed to the sink (0 when it wants none).
    pub control_updates: u64,
}

/// Serializes one compressed batch into `staged` (recycled): its codec
/// tag, its payloads in input order, and the backend's drained dictionary
/// delta placed among them. The journal is drained even when nothing
/// consumes it, so stale events never leak into a later batch's delta.
pub(crate) fn stage_batch<B: CompressionBackend>(
    backend: &mut B,
    batch: B::Batch,
    staged: &mut Batch,
) -> zipline_gd::error::Result<()> {
    staged.clear();
    let updates = backend.take_delta().updates;
    // Resolve the tag before emit_batch consumes the batch by value.
    staged.set_codec(
        backend
            .tags_batches()
            .then(|| backend.batch_codec_id(&batch)),
    );
    backend.emit_batch(batch, &mut |packet_type, bytes| {
        staged.push_payload(packet_type, bytes)
    })?;
    staged.place_updates(updates);
    Ok(())
}

#[cfg(test)]
mod tests {
    use crate::backend::{DeflateBackend, PassthroughBackend};
    use crate::builder::EngineBuilder;
    use crate::engine::SpawnPolicy;
    use crate::pipelined::PipelinedStream;
    use crate::shard::DictionaryUpdate;
    use zipline_gd::packet::PacketType;

    fn test_builder() -> EngineBuilder {
        EngineBuilder::new()
            .shards(4)
            .workers(2)
            .spawn(SpawnPolicy::Inline)
    }

    #[test]
    fn stream_emits_payloads_that_restore_to_the_input() {
        let mut dec = test_builder().build_decompressor().unwrap();
        let engine = test_builder().build().unwrap();
        let mut emitted: Vec<(PacketType, Vec<u8>)> = Vec::new();
        let mut stream = PipelinedStream::new(engine, 16, |pt, bytes: &[u8]| {
            emitted.push((pt, bytes.to_vec()));
        })
        .unwrap();

        let mut input = Vec::new();
        for i in 0..150u32 {
            let mut record = [0u8; 32];
            record[0] = (i % 4) as u8;
            record[20] = 0xBE;
            stream.push_record(&record).unwrap();
            input.extend_from_slice(&record);
        }
        // A ragged final record exercises the verbatim tail.
        stream.push_record(&[1, 2, 3]).unwrap();
        input.extend_from_slice(&[1, 2, 3]);
        let (_, summary) = stream.finish().unwrap();

        assert_eq!(summary.bytes_in, input.len() as u64);
        assert_eq!(summary.payloads_emitted, emitted.len() as u64);
        assert_eq!(
            summary.wire_bytes,
            emitted.iter().map(|(_, b)| b.len() as u64).sum::<u64>()
        );
        assert!(summary.compressed_payloads > 140, "most chunks deduplicate");

        let mut restored = Vec::new();
        for (pt, bytes) in &emitted {
            dec.restore_payload_into(*pt, bytes, &mut restored).unwrap();
        }
        assert_eq!(restored, input);
    }

    #[test]
    fn plain_stream_on_a_journaling_engine_drains_stale_updates() {
        let engine = test_builder().build().unwrap();
        // A stream without a control sink must not leave the journal to leak
        // into a later stream's delta.
        let mut stream = PipelinedStream::new(engine, 4, |_, _| {}).unwrap();
        stream.push_record(&[7u8; 32 * 6]).unwrap();
        let (engine, summary) = stream.finish().unwrap();
        assert_eq!(summary.control_updates, 0);

        let mut updates = Vec::new();
        let mut stream = PipelinedStream::with_control_sink(
            engine,
            4,
            |_, _| {},
            Some(|u: &DictionaryUpdate| updates.push(u.clone())),
        )
        .unwrap();
        // The same basis again: known, so the stream journals nothing new —
        // stale events from the first stream must be gone.
        stream.push_record(&[7u8; 32 * 2]).unwrap();
        stream.finish().unwrap();
        assert!(updates.is_empty(), "no stale updates leak across streams");
    }

    #[test]
    fn small_batches_and_large_records_flush_incrementally() {
        let engine = test_builder().build().unwrap();
        let mut count = 0usize;
        let mut stream = PipelinedStream::new(engine, 1, |_, _| count += 1).unwrap();
        // One push covering many chunks flushes as many batches as needed.
        stream.push_record(&[0u8; 32 * 10]).unwrap();
        let (engine, _) = stream.finish().unwrap();
        assert_eq!(count, 10);
        // The engine keeps its dictionary across streams.
        assert_eq!(engine.stats().bases_learned, 1);
    }

    #[test]
    fn deflate_stream_batches_by_bytes_and_roundtrips() {
        let engine = EngineBuilder::new()
            .backend(DeflateBackend::default())
            .build()
            .unwrap();
        let mut members: Vec<Vec<u8>> = Vec::new();
        // unit_bytes == 1, so batch_units is a byte count: 4 KiB members.
        let mut stream = PipelinedStream::new(engine, 4096, |pt, bytes: &[u8]| {
            assert_eq!(pt, PacketType::Raw);
            members.push(bytes.to_vec());
        })
        .unwrap();
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 19) as u8).collect();
        stream.push_record(&data).unwrap();
        let (engine, summary) = stream.finish().unwrap();
        assert_eq!(summary.bytes_in, data.len() as u64);
        assert_eq!(members.len(), 3, "10000 B split into 4096-byte batches");
        assert!(summary.wire_bytes < data.len() as u64, "gzip compresses");

        let mut dec = engine.decompressor().unwrap();
        let mut restored = Vec::new();
        for member in &members {
            dec.restore_payload_into(PacketType::Raw, member, &mut restored)
                .unwrap();
        }
        assert_eq!(restored, data);
    }

    #[test]
    fn passthrough_stream_is_the_wire_floor() {
        let engine = EngineBuilder::new()
            .backend(PassthroughBackend::new())
            .build()
            .unwrap();
        let mut wire = Vec::new();
        let mut stream = PipelinedStream::new(engine, 512, |_, bytes: &[u8]| {
            wire.extend_from_slice(bytes);
        })
        .unwrap();
        let data = vec![0xA5u8; 2000];
        stream.push_record(&data).unwrap();
        let (_, summary) = stream.finish().unwrap();
        assert_eq!(wire, data, "passthrough is the identity on the wire");
        assert_eq!(summary.wire_bytes, summary.bytes_in, "ratio floor is 1.0");
        assert_eq!(summary.compressed_payloads, 0);
    }
}
