//! The streaming pipeline API: records in, wire-ready payloads out.
//!
//! [`EngineStream`] adapts the batch-oriented [`CompressionEngine`] to
//! record-at-a-time producers such as the `zipline-traces` workload
//! iterators, for **any** [`CompressionBackend`]: records are buffered until
//! a batch's worth of backend units is available
//! ([`CompressionBackend::unit_bytes`] — GD chunks, or single bytes for the
//! deflate and passthrough backends), the batch fans out through the
//! backend, and every resulting record is serialized as a wire-ready payload
//! through the backend's recycled scratch
//! ([`CompressionBackend::emit_batch`]) before being handed to the caller's
//! sink. The shape follows the `CompressedStream`/`compress_chunk` idiom of
//! the atsc/brro-compressor exemplar: push records, then `finish()` to flush
//! the remainder (including a verbatim GD tail) and collect the summary.
//!
//! The emitted payload sequence decodes through
//! [`EngineDecompressor::restore_payload_into`](crate::EngineDecompressor::restore_payload_into)
//! for the same backend (configured with the same shard count, for GD) back
//! to the exact input bytes.
//!
//! # Live decoder sync
//!
//! [`EngineStream::control`] (or the [`EngineStream::with_control_sink`]
//! constructor) additionally streams the backend's
//! [`DictionaryUpdate`] events, *interleaved* with the data payloads: at
//! every batch boundary the backend's journal is drained into a
//! [`DictionaryDelta`](crate::DictionaryDelta) and each update is handed to
//! the control sink immediately before the record at whose position it
//! happened. A control plane that serializes each update onto the same
//! in-order channel as the payloads therefore guarantees that every
//! compressed payload is preceded on the wire by the install traffic that
//! makes it decodable — even when the dictionary churns past capacity and
//! recycles identifiers (the regime a one-shot post-hoc snapshot cannot
//! express). Delta-less backends (deflate, passthrough) never produce
//! updates, so an attached control sink simply stays idle.
//!
//! # Durability (commit-then-emit)
//!
//! On an engine built with [`EngineBuilder::durable`](crate::EngineBuilder::durable)
//! the stream journals every batch through the attached
//! [`EngineStore`](crate::EngineStore) **before** the caller's sinks see
//! it: the batch — payloads and interleaved updates — is staged, committed
//! (batch record + shard delta + checkpoint when due + commit marker), and
//! only then emitted. Sinks therefore only ever observe committed batches — a crash
//! at any point either loses an uncommitted batch (whose input re-runs on
//! resume) or leaves a committed batch replayable from the store's
//! [`WarmStart`](crate::WarmStart) journal, never a half-emitted one.
//! [`EngineStream::finish`] compacts the shard store at the final batch
//! boundary.

use crate::backend::CompressionBackend;
use crate::engine::{CompressionEngine, GdBackend};
use crate::error::Result;
use crate::frame::{Batch, BatchEvent};
use crate::registry::CodecCursor;
use crate::shard::DictionaryUpdate;
use zipline_gd::packet::PacketType;
use zipline_traces::ChunkWorkload;

/// Where a stream hands its finished batches. [`EngineStream`] and
/// [`PipelinedStream`](crate::PipelinedStream) produce output a whole
/// [`Batch`] at a time — committed first, on a durable engine — and a sink
/// decides what a batch becomes: [`PayloadSinks`] expands it into
/// per-payload and per-update calls, the flow router queues it as it is.
pub trait BatchSink {
    /// Whether the sink consumes the batches' dictionary updates. When
    /// true the stream turns the backend's journal on; when false a
    /// batch's updates are dropped before it is handed over.
    fn wants_updates(&self) -> bool;

    /// Takes one finished batch, in stream order. The sink may move the
    /// batch's buffers out; whatever it leaves is recycled.
    fn batch(&mut self, batch: &mut Batch);
}

/// The per-payload face of a [`BatchSink`]: expands each batch into
/// `sink(packet type, bytes)` calls in input order, with every dictionary
/// update handed to `control_sink` strictly before the payload at whose
/// position it happened, and publishes the batch's codec tag through an
/// attached [`CodecCursor`] first. Both streams expand through this one
/// type, which is what keeps them bit-identical to each other.
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
/// with the [`StreamSummary`] accounting both streams share.
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

/// Totals accumulated by an [`EngineStream`], returned by
/// [`EngineStream::finish`].
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
    /// Dictionary updates handed to the control sink (0 without live sync).
    pub control_updates: u64,
}

/// Streaming front-end over a [`CompressionEngine`]; see the module docs.
pub struct EngineStream<'e, F, G = fn(&DictionaryUpdate), B = GdBackend>
where
    F: FnMut(PacketType, &[u8]),
    G: FnMut(&DictionaryUpdate),
    B: CompressionBackend,
{
    engine: &'e mut CompressionEngine<B>,
    sinks: PayloadSinks<F, G>,
    /// Bytes pushed but not yet compressed (always shorter than a batch).
    buffer: Vec<u8>,
    /// Flush threshold in bytes (a whole number of backend units).
    batch_bytes: usize,
    summary: StreamSummary,
    /// The batch being emitted, recycled: staged whole so a durable engine
    /// commits it before any sink sees it.
    staged: Batch,
}

impl<'e, F: FnMut(PacketType, &[u8]), B: CompressionBackend>
    EngineStream<'e, F, fn(&DictionaryUpdate), B>
{
    /// Creates a stream that flushes through `engine` every `batch_units`
    /// backend units ([`CompressionBackend::unit_bytes`] each — chunks for
    /// GD, bytes for deflate/passthrough), emitting each wire payload to
    /// `sink` as `(packet type, payload bytes)`.
    pub fn new(engine: &'e mut CompressionEngine<B>, batch_units: usize, sink: F) -> Self {
        Self::with_control_sink(engine, batch_units, sink, None)
    }
}

impl<'e, F, G, B> EngineStream<'e, F, G, B>
where
    F: FnMut(PacketType, &[u8]),
    G: FnMut(&DictionaryUpdate),
    B: CompressionBackend,
{
    /// Creates a stream with an optional live-sync control sink. When
    /// `control_sink` is `Some`, journaling is enabled on the backend and
    /// every install/evict event is handed to the sink interleaved with the
    /// payloads, in the order a decoder must apply them (each update
    /// strictly before the payload at whose position it happened).
    pub fn with_control_sink(
        engine: &'e mut CompressionEngine<B>,
        batch_units: usize,
        sink: F,
        control_sink: Option<G>,
    ) -> Self {
        let unit_bytes = engine.backend().unit_bytes().max(1);
        if control_sink.is_some() {
            engine.set_live_sync(true);
        }
        Self {
            engine,
            sinks: PayloadSinks::new(sink, control_sink),
            buffer: Vec::new(),
            batch_bytes: batch_units.max(1) * unit_bytes,
            summary: StreamSummary::default(),
            staged: Batch::default(),
        }
    }

    /// Attaches a [`CodecCursor`] the stream publishes each batch's codec
    /// tag through. For a tagging backend ([`CompressionBackend::tags_batches`])
    /// the cursor reads `Some(id)` while that batch's payloads flow to the
    /// sink; for a fixed backend it always reads `None` (untagged).
    pub fn set_codec_cursor(&mut self, cursor: CodecCursor) {
        self.sinks.set_codec_cursor(cursor);
    }

    /// Attaches a live-sync control sink, builder style (enables journaling
    /// on the backend): `EngineStream::new(..).control(sink)`.
    pub fn control<G2: FnMut(&DictionaryUpdate)>(
        self,
        control_sink: G2,
    ) -> EngineStream<'e, F, G2, B> {
        self.engine.set_live_sync(true);
        EngineStream {
            engine: self.engine,
            sinks: PayloadSinks {
                sink: self.sinks.sink,
                control_sink: Some(control_sink),
                codec_cursor: self.sinks.codec_cursor,
            },
            buffer: self.buffer,
            batch_bytes: self.batch_bytes,
            summary: self.summary,
            staged: self.staged,
        }
    }

    /// Appends one record (any number of bytes) to the stream, flushing a
    /// batch through the engine whenever enough units have accumulated.
    pub fn push_record(&mut self, bytes: &[u8]) -> Result<()> {
        self.summary.bytes_in += bytes.len() as u64;
        // Fill the buffer up to one batch at a time, so a record larger than
        // the batch streams through batch-sized engine calls instead of
        // being fully buffered and compressed in one go — peak memory stays
        // proportional to the batch size, not the record size.
        let mut rest = bytes;
        while !rest.is_empty() {
            let room = self.batch_bytes - self.buffer.len();
            let take = room.min(rest.len());
            self.buffer.extend_from_slice(&rest[..take]);
            rest = &rest[take..];
            if self.buffer.len() >= self.batch_bytes {
                self.flush_whole_units()?;
            }
        }
        Ok(())
    }

    /// Feeds every chunk of a workload generator through the stream.
    pub fn consume_workload(&mut self, workload: &dyn ChunkWorkload) -> Result<()> {
        for chunk in workload.chunks() {
            self.push_record(&chunk)?;
        }
        Ok(())
    }

    /// Compresses and emits every whole buffered unit, keeping the
    /// remainder buffered.
    fn flush_whole_units(&mut self) -> Result<()> {
        let unit_bytes = self.engine.backend().unit_bytes().max(1);
        let whole = (self.buffer.len() / unit_bytes) * unit_bytes;
        if whole == 0 {
            return Ok(());
        }
        let batch = self.engine.compress_batch(&self.buffer[..whole])?;
        self.emit_batch(batch, whole as u64)?;
        self.buffer.drain(..whole);
        Ok(())
    }

    /// Emits one compressed batch: stages its wire form with the backend's
    /// dictionary delta (when live sync is on) placed among the payloads,
    /// commits it to the store on a durable engine — sinks only ever see
    /// committed output — and hands it to the sinks.
    fn emit_batch(&mut self, batch: B::Batch, input_len: u64) -> Result<()> {
        let Self {
            engine,
            sinks,
            summary,
            staged,
            ..
        } = self;
        let (backend, store) = engine.backend_and_store_mut();
        stage_batch(backend, batch, staged)?;
        if let Some(store) = store {
            let state = store
                .checkpoint_due()
                .then(|| backend.export_dictionary_state())
                .flatten();
            store.commit_batch(staged, state.as_ref(), input_len)?;
        }
        deliver(staged, sinks, summary);
        Ok(())
    }

    /// Flushes everything still buffered (for GD, a trailing partial chunk
    /// is emitted verbatim as a type 1 payload) and returns the stream
    /// totals. On a durable engine the shard store is compacted at this
    /// final batch boundary (header + one checkpoint), bounding log growth
    /// across restarts.
    pub fn finish(mut self) -> Result<StreamSummary> {
        if !self.buffer.is_empty() {
            let len = self.buffer.len() as u64;
            let batch = self
                .engine
                .compress_batch(&std::mem::take(&mut self.buffer))?;
            self.emit_batch(batch, len)?;
        }
        let (backend, store) = self.engine.backend_and_store_mut();
        if let Some(store) = store {
            if let Some(state) = backend.export_dictionary_state() {
                store.compact(&state)?;
            }
        }
        Ok(self.summary)
    }
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
    let updates = if backend.live_sync_enabled() {
        backend.take_delta().updates
    } else {
        Vec::new()
    };
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
    use super::*;
    use crate::backend::{DeflateBackend, PassthroughBackend};
    use crate::builder::EngineBuilder;
    use crate::engine::SpawnPolicy;

    fn test_builder() -> EngineBuilder {
        EngineBuilder::new()
            .shards(4)
            .workers(2)
            .spawn(SpawnPolicy::Inline)
    }

    #[test]
    fn stream_emits_payloads_that_restore_to_the_input() {
        let mut dec = test_builder().build_decompressor().unwrap();
        let mut engine = test_builder().build().unwrap();
        let mut emitted: Vec<(PacketType, Vec<u8>)> = Vec::new();
        let mut stream = EngineStream::new(&mut engine, 16, |pt, bytes| {
            emitted.push((pt, bytes.to_vec()));
        });

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
        let summary = stream.finish().unwrap();

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
        let mut engine = test_builder().live_sync(true).build().unwrap();
        // A stream without a control sink must not leave the journal to leak
        // into a later live-synced stream's delta.
        {
            let mut stream = EngineStream::new(&mut engine, 4, |_, _| {});
            stream.push_record(&[7u8; 32 * 6]).unwrap();
            let summary = stream.finish().unwrap();
            assert_eq!(summary.control_updates, 0);
        }
        let mut updates = Vec::new();
        {
            let mut stream = EngineStream::new(&mut engine, 4, |_, _| {})
                .control(|u: &DictionaryUpdate| updates.push(u.clone()));
            // The same basis again: known, so the live stream journals
            // nothing new — stale events from the first stream must be gone.
            stream.push_record(&[7u8; 32 * 2]).unwrap();
            stream.finish().unwrap();
        }
        assert!(updates.is_empty(), "no stale updates leak across streams");
    }

    #[test]
    fn small_batches_and_large_records_flush_incrementally() {
        let mut engine = test_builder().build().unwrap();
        let mut count = 0usize;
        {
            let mut stream = EngineStream::new(&mut engine, 1, |_, _| count += 1);
            // One push covering many chunks flushes as many batches as needed.
            stream.push_record(&[0u8; 32 * 10]).unwrap();
            stream.finish().unwrap();
        }
        assert_eq!(count, 10);
        // The engine keeps its dictionary across streams.
        assert_eq!(engine.stats().bases_learned, 1);
    }

    #[test]
    fn deflate_stream_batches_by_bytes_and_roundtrips() {
        let mut engine = EngineBuilder::new()
            .backend(DeflateBackend::default())
            .build()
            .unwrap();
        let mut members: Vec<Vec<u8>> = Vec::new();
        // unit_bytes == 1, so batch_units is a byte count: 4 KiB members.
        let mut stream = EngineStream::new(&mut engine, 4096, |pt, bytes| {
            assert_eq!(pt, PacketType::Raw);
            members.push(bytes.to_vec());
        });
        let data: Vec<u8> = (0..10_000u32).map(|i| (i % 19) as u8).collect();
        stream.push_record(&data).unwrap();
        let summary = stream.finish().unwrap();
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
        let mut engine = EngineBuilder::new()
            .backend(PassthroughBackend::new())
            .build()
            .unwrap();
        let mut wire = Vec::new();
        let mut stream = EngineStream::new(&mut engine, 512, |_, bytes| {
            wire.extend_from_slice(bytes);
        });
        let data = vec![0xA5u8; 2000];
        stream.push_record(&data).unwrap();
        let summary = stream.finish().unwrap();
        assert_eq!(wire, data, "passthrough is the identity on the wire");
        assert_eq!(summary.wire_bytes, summary.bytes_in, "ratio floor is 1.0");
        assert_eq!(summary.compressed_payloads, 0);
    }
}
