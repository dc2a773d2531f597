//! The layer ladder of the traced run: the same bytes through each
//! successive layer's public entry point, timed from outside. Every rung
//! reports ns per input byte and its tax — the ratio to the rung below.

use std::cell::RefCell;
use std::hint::black_box;
use std::io::Cursor;
use std::path::Path;
use std::time::Instant;

use zipline::decoder::{DecoderConfig, ZipLineDecodeProgram};
use zipline::encoder::{EncoderConfig, ZipLineEncodeProgram};
use zipline::host::EngineHostPath;
use zipline_deflate::{gzip_compress_into, gzip_decompress_into, Level};
use zipline_engine::tenant::{FlowKey, FlowRouter, FlowRouterConfig};
use zipline_engine::{
    AutoBackend, AutoConfig, CodecCursor, CompressionBackend, DictionaryUpdate, EngineBuilder,
    GdBackend, PipelinedStream, SpawnPolicy, SyncPolicy,
};
use zipline_gd::codec::{
    ChunkCodec, CompressedStream, EncodeScratch, GdCompressor, GdDecompressor,
};
use zipline_gd::packet::PacketType;
use zipline_gd::{BitVec, HammingTransform};
use zipline_net::ethernet::{EthernetFrame, ETHERTYPE_IPV4};
use zipline_net::mac::MacAddress;
use zipline_net::time::SimTime;
use zipline_server::{BackendChoice, RecordReader, ServerHandle, WireCodec};
use zipline_switch::packet_ctx::PacketContext;
use zipline_switch::program::{L2ForwardingProgram, PipelineProgram};
use zipline_traces::ChunkWorkload;

use crate::affinity::{pin_current_thread, sut_cpu, GENERATOR_CPU};
use crate::capture::{restore, Capture};
use crate::client::Driver;
use crate::inputs::{Trace, Window};
use crate::spans::Tracer;
use crate::spec::{
    engine_config, host_config, Workload, BATCH_BYTES, BATCH_CHUNKS, CHUNK_BYTES, LADDER_PASSES,
    PIPELINE_DEPTH,
};
use crate::sut::{out_dir, server_config};

/// Frames the switch programs process per pass.
const SWITCH_PACKETS: usize = 1 << 16;

/// The rungs of the ladder, bottom to top; each one's tax is against the
/// one before it.
pub const RUNGS: [&str; 10] = [
    "gd.crc",
    "gd.transform",
    "gd.codec",
    "gd.compress_batch",
    "engine.compress_batch",
    "engine.pipelined",
    "engine.tenant",
    "engine.persist",
    "server.wire",
    "server.session",
];

/// Named per-layer values in the order they were measured.
pub type Metrics = Vec<(String, f64)>;

/// Runs `pass` [`LADDER_PASSES`] times; each call sets up fresh state and
/// returns the instants its timed part started and ended. The fastest pass,
/// in nanoseconds, is the result.
fn fastest(
    tracer: &mut Tracer,
    name: &'static str,
    mut pass: impl FnMut() -> Result<(Instant, Instant), String>,
) -> Result<f64, String> {
    let mut best = f64::INFINITY;
    for _ in 0..LADDER_PASSES {
        let (start, end) = pass()?;
        tracer.span(name, start, end);
        best = best.min(end.duration_since(start).as_nanos() as f64);
    }
    Ok(best)
}

/// The ladder's bytes as a chunk workload, for the host path's entry point.
struct Chunks<'a>(&'a [u8]);

impl ChunkWorkload for Chunks<'_> {
    fn chunk_len(&self) -> usize {
        CHUNK_BYTES
    }

    fn total_chunks(&self) -> usize {
        self.0.len() / CHUNK_BYTES
    }

    fn chunks(&self) -> Box<dyn Iterator<Item = Vec<u8>> + '_> {
        Box::new(self.0.chunks_exact(CHUNK_BYTES).map(<[u8]>::to_vec))
    }
}

/// A pipelined stream over `builder`'s engine (its worker placed as the SUT,
/// see [`crate::affinity`]) fed `data` in `record_bytes` pieces; returns the timed span, the capture and the control updates.
/// `before_finish` runs (off the clock) once everything is pushed.
fn pipelined_pass<B: CompressionBackend + Send + 'static>(
    builder: EngineBuilder<B>,
    data: &[u8],
    record_bytes: usize,
    mut before_finish: impl FnMut(&Capture),
) -> Result<((Instant, Instant), Capture, u64, B), String> {
    let engine = builder
        .pipelined(PIPELINE_DEPTH)
        .build()
        .map_err(crate::err)?;
    let batch_units = BATCH_BYTES / engine.backend().unit_bytes();
    let capture = RefCell::new(Capture::default());
    let cursor = CodecCursor::new();
    pin_current_thread(sut_cpu());
    let stream = PipelinedStream::with_control_sink(
        engine,
        batch_units,
        |packet_type: PacketType, bytes: &[u8]| {
            capture
                .borrow_mut()
                .payload(0, cursor.get(), packet_type, bytes)
        },
        Some(|update: &DictionaryUpdate| capture.borrow_mut().control(0, update.clone())),
    )
    .map_err(crate::err);
    pin_current_thread(GENERATOR_CPU);
    let mut stream = stream?;
    stream.set_codec_cursor(cursor.clone());
    let start = Instant::now();
    for record in data.chunks(record_bytes) {
        stream.push_record(record).map_err(crate::err)?;
    }
    let pushed = Instant::now();
    before_finish(&capture.borrow());
    let resumed = Instant::now();
    let (engine, summary) = stream.finish().map_err(crate::err)?;
    // The pause for `before_finish` is taken out of the timed span.
    let end = Instant::now() - resumed.duration_since(pushed);
    Ok((
        (start, end),
        capture.into_inner(),
        summary.control_updates,
        engine.into_backend(),
    ))
}

fn dir_census(dir: &Path) -> (u64, u64) {
    let mut files = 0;
    let mut journal_bytes = 0;
    if let Ok(entries) = std::fs::read_dir(dir) {
        for entry in entries.flatten() {
            files += 1;
            let name = entry.file_name();
            if name == "shards.zsl" || name == "frames.zfl" {
                journal_bytes += entry.metadata().map_or(0, |m| m.len());
            }
        }
    }
    (files, journal_bytes)
}

/// Runs every rung over the first [`crate::spec::LADDER_BYTES`] of the
/// workload's saturation window and returns the per-layer metrics.
pub fn run(
    workload: &Workload,
    trace: &Trace,
    window: Window,
    tracer: &mut Tracer,
) -> Result<Metrics, String> {
    let mut data = Vec::with_capacity(window.records * trace.record_bytes);
    for index in window.start..window.start + window.records {
        data.extend_from_slice(trace.record(index).1);
    }
    let bytes = data.len() as f64;
    let mib = bytes / (1u64 << 20) as f64;
    let config = engine_config(SpawnPolicy::Threads);
    let gd = config.gd;
    let mut metrics = Metrics::new();
    let mut ladder_ns = Vec::new();
    tracer.begin("ladder");

    // gd.crc and gd.transform work on the n-bit Hamming block of a chunk.
    let transform = HammingTransform::new(gd.m).map_err(crate::err)?;
    let blocks: Vec<BitVec> = data
        .chunks_exact(CHUNK_BYTES)
        .map(|chunk| BitVec::from_bytes(chunk).slice(0..transform.chunk_bits()))
        .collect();
    ladder_ns.push(fastest(tracer, "gd.crc", || {
        let crc = transform.code().crc();
        let start = Instant::now();
        let mut acc = 0u64;
        for block in &blocks {
            acc ^= crc.checksum_words(black_box(block.words()), block.len());
        }
        black_box(acc);
        Ok((start, Instant::now()))
    })?);
    ladder_ns.push(fastest(tracer, "gd.transform", || {
        let start = Instant::now();
        for block in &blocks {
            black_box(
                transform
                    .deconstruct(black_box(block))
                    .map_err(crate::err)?,
            );
        }
        Ok((start, Instant::now()))
    })?);
    drop(blocks);

    ladder_ns.push(fastest(tracer, "gd.codec", || {
        let codec = ChunkCodec::new(&gd).map_err(crate::err)?;
        let mut scratch = EncodeScratch::new();
        let mut encoded = Vec::new();
        let start = Instant::now();
        for batch in data.chunks(BATCH_BYTES) {
            codec
                .encode_chunks_into(black_box(batch), &mut scratch, &mut encoded)
                .map_err(crate::err)?;
            black_box(&encoded);
        }
        Ok((start, Instant::now()))
    })?);

    let mut streams: Vec<CompressedStream> = Vec::new();
    ladder_ns.push(fastest(tracer, "gd.compress_batch", || {
        let mut compressor = GdCompressor::new(&gd).map_err(crate::err)?;
        streams.clear();
        let start = Instant::now();
        for batch in data.chunks(BATCH_BYTES) {
            streams.push(
                compressor
                    .compress_batch(black_box(batch))
                    .map_err(crate::err)?,
            );
        }
        Ok((start, Instant::now()))
    })?);
    let gd_decompress = fastest(tracer, "gd.decompress_batch", || {
        let mut decompressor = GdDecompressor::new(&gd).map_err(crate::err)?;
        let start = Instant::now();
        for stream in &streams {
            black_box(decompressor.decompress_batch(stream).map_err(crate::err)?);
        }
        Ok((start, Instant::now()))
    })?;
    drop(streams);

    let mut shard_stats = Vec::new();
    ladder_ns.push(fastest(tracer, "engine.compress_batch", || {
        let mut engine = EngineBuilder::new()
            .config(config)
            .build()
            .map_err(crate::err)?;
        let mut wire = 0usize;
        let start = Instant::now();
        for batch in data.chunks(BATCH_BYTES) {
            let compressed = engine
                .compress_batch(black_box(batch))
                .map_err(crate::err)?;
            engine
                .backend_mut()
                .emit_batch(compressed, &mut |_, bytes| wire += bytes.len())
                .map_err(crate::err)?;
        }
        black_box(wire);
        let end = Instant::now();
        shard_stats = engine.shard_stats();
        Ok((start, end))
    })?);

    let mut pipelined_capture = Capture::default();
    let mut control_updates = 0;
    ladder_ns.push(fastest(tracer, "engine.pipelined", || {
        let (span, capture, controls, _) = pipelined_pass(
            EngineBuilder::new().config(config),
            &data,
            workload.record_bytes,
            |_| {},
        )?;
        pipelined_capture = capture;
        control_updates = controls;
        Ok(span)
    })?);
    let gd_stream = Workload {
        multiplexed: false,
        backend: BackendChoice::Gd,
        ..*workload
    };
    let engine_decompress = fastest(tracer, "engine.decompress", || {
        let start = Instant::now();
        let restored = restore(
            &gd_stream,
            &[FlowKey::new(0, 0)],
            &pipelined_capture,
            &mut Tracer::off(),
        )?;
        // Only the time inside the decoder counts, as in the restore phase.
        Ok((
            start,
            start + std::time::Duration::from_secs_f64(restored.seconds()),
        ))
    })?;
    drop(pipelined_capture);

    // engine.tenant: the records routed to their flows through a FlowRouter.
    let keys: Vec<FlowKey> = trace
        .keys
        .iter()
        .map(|&(t, f)| FlowKey::new(t, f))
        .collect();
    let mut open_flow_us = 0.0;
    ladder_ns.push(fastest(tracer, "engine.tenant", || {
        let mut router_config = FlowRouterConfig::new(config);
        router_config.batch_units = BATCH_CHUNKS;
        router_config.pipeline_depth = PIPELINE_DEPTH;
        let mut router: FlowRouter<GdBackend> =
            FlowRouter::new(router_config).map_err(crate::err)?;
        pin_current_thread(sut_cpu());
        let opening = Instant::now();
        let opened = keys
            .iter()
            .try_for_each(|&key| router.open_flow(key, 0).map(drop));
        open_flow_us = opening.elapsed().as_secs_f64() * 1e6 / keys.len() as f64;
        pin_current_thread(GENERATOR_CPU);
        opened.map_err(crate::err)?;
        let mut events = 0usize;
        let start = Instant::now();
        for index in window.start..window.start + window.records {
            let (flow, record) = trace.record(index);
            router.push(keys[flow], record).map_err(crate::err)?;
            events += router.drain_events().len();
        }
        router.finish_all().map_err(crate::err)?;
        events += router.drain_events().len();
        black_box(events);
        Ok((start, Instant::now()))
    })?);

    // engine.persist: the engine.pipelined rung over a durable engine.
    let store = out_dir().join(format!("ladder-{}.store", std::process::id()));
    let mut journal_bytes_per_wire_byte = 0.0;
    let mut files_per_flow = 0.0;
    ladder_ns.push(fastest(tracer, "engine.persist", || {
        let builder = EngineBuilder::new()
            .config(config)
            .durable(&store)
            .sync_policy(SyncPolicy::Flush)
            .checkpoint_cadence(1);
        let pass = pipelined_pass(builder, &data, workload.record_bytes, |capture| {
            // Before `finish` compacts the journal away.
            let (files, journal) = dir_census(&store);
            files_per_flow = files as f64;
            journal_bytes_per_wire_byte = journal as f64 / capture.wire_bytes().max(1) as f64;
        });
        std::fs::remove_dir_all(&store).map_err(|e| format!("removing the ladder store: {e}"))?;
        Ok(pass?.0)
    })?);

    ladder_ns.push(fastest(tracer, "server.wire", || {
        let mut codec = WireCodec::new();
        let mut framed = Vec::with_capacity(data.len() + data.len() / workload.record_bytes * 16);
        let start = Instant::now();
        for record in data.chunks(workload.record_bytes) {
            framed.extend_from_slice(&codec.encode_data(black_box(record)));
        }
        let mut reader = RecordReader::new(Cursor::new(&framed));
        while let Some(record) = reader.read_record().map_err(crate::err)? {
            black_box(record);
        }
        Ok((start, Instant::now()))
    })?);

    // server.session: an in-process server on a Unix socket, one classic
    // stream, the workload's record size.
    let socket = out_dir().join(format!("ladder-{}.sock", std::process::id()));
    let mut socket_bytes_per_wire_byte = 0.0;
    ladder_ns.push(fastest(tracer, "server.session", || {
        pin_current_thread(sut_cpu());
        let handle = ServerHandle::bind_uds(&socket, server_config(BackendChoice::Gd, None)?);
        pin_current_thread(GENERATOR_CPU);
        let handle = handle.map_err(crate::err)?;
        let mut session = Driver::open(handle.endpoint(), false, &[(0, 0)], 1)?;
        let start = Instant::now();
        session.ingest(&mut Tracer::off(), trace, window)?;
        let done = session.finish(&mut Tracer::off())?;
        let end = Instant::now();
        drop(session);
        socket_bytes_per_wire_byte = handle.stats().bytes_out as f64 / done.wire_bytes as f64;
        let report = handle.shutdown();
        if !report.errors.is_empty() {
            return Err(format!("ladder server: {:?}", report.errors));
        }
        Ok((start, end))
    })?);

    for (i, name) in RUNGS.iter().enumerate() {
        metrics.push((format!("{name}.ns_per_byte"), ladder_ns[i] / bytes));
        // The bottom rung has nothing below it to be taxed against.
        if i > 0 {
            metrics.push((format!("{name}.tax"), ladder_ns[i] / ladder_ns[i - 1]));
        }
    }
    metrics.push((
        "gd.decompress_batch.ns_per_byte".into(),
        gd_decompress / bytes,
    ));
    metrics.push((
        "engine.decompress.ns_per_byte".into(),
        engine_decompress / bytes,
    ));

    // Beside the ladder: deflate, the registry router, the host frame path
    // and the switch programs.
    let mut members: Vec<Vec<u8>> = Vec::new();
    let deflate_compress = fastest(tracer, "deflate.compress", || {
        members.clear();
        let start = Instant::now();
        for batch in data.chunks(BATCH_BYTES) {
            let mut member = Vec::new();
            gzip_compress_into(black_box(batch), Level::Default, &mut member);
            members.push(member);
        }
        Ok((start, Instant::now()))
    })?;
    let deflate_inflate = fastest(tracer, "deflate.inflate", || {
        let mut out = Vec::with_capacity(BATCH_BYTES);
        let start = Instant::now();
        for member in &members {
            out.clear();
            gzip_decompress_into(black_box(member), &mut out).map_err(crate::err)?;
            black_box(&out);
        }
        Ok((start, Instant::now()))
    })?;
    drop(members);
    metrics.push((
        "deflate.compress.ns_per_byte".into(),
        deflate_compress / bytes,
    ));
    metrics.push((
        "deflate.inflate.ns_per_byte".into(),
        deflate_inflate / bytes,
    ));

    let mut codec_switches = 0.0;
    let mut deflate_batch_share = 0.0;
    let registry = fastest(tracer, "engine.registry", || {
        let auto = AutoBackend::new(config, AutoConfig::default()).map_err(crate::err)?;
        let builder = EngineBuilder::new().config(config).backend(auto);
        let (span, capture, _, backend) =
            pipelined_pass(builder, &data, workload.record_bytes, |_| {})?;
        codec_switches = backend.switches() as f64;
        deflate_batch_share =
            capture.container_payloads() as f64 / data.len().div_ceil(BATCH_BYTES) as f64;
        Ok(span)
    })?;
    metrics.push(("engine.registry.ns_per_byte".into(), registry / bytes));

    let host_frames = fastest(tracer, "host.frames", || {
        let mut path: EngineHostPath = EngineHostPath::new(host_config()).map_err(crate::err)?;
        let start = Instant::now();
        let (frames, _) = path
            .compress_workload_to_frames_pipelined(&Chunks(&data))
            .map_err(crate::err)?;
        black_box(frames.len());
        Ok((start, Instant::now()))
    })?;
    metrics.push(("host.frames.ns_per_byte".into(), host_frames / bytes));

    let frames: Vec<EthernetFrame> = data
        .chunks_exact(CHUNK_BYTES)
        .take(SWITCH_PACKETS)
        .map(|chunk| {
            EthernetFrame::new(
                MacAddress::local(1),
                MacAddress::local(2),
                ETHERTYPE_IPV4,
                chunk.to_vec(),
            )
        })
        .collect();
    let packets = frames.len() as f64;
    let noop = fastest(tracer, "switch.noop", || {
        let mut program = L2ForwardingProgram::two_port_wire();
        let start = Instant::now();
        for frame in &frames {
            let mut ctx = PacketContext::new(0, frame.clone());
            program.ingress(&mut ctx, SimTime::ZERO);
            black_box(ctx.egress_port);
        }
        Ok((start, Instant::now()))
    })?;
    let mut encoded: Vec<EthernetFrame> = Vec::new();
    let mut decoder_seed: Vec<(u64, Vec<u8>)> = Vec::new();
    let encode = fastest(tracer, "switch.encode", || {
        let mut program =
            ZipLineEncodeProgram::new(EncoderConfig::paper_default()).map_err(crate::err)?;
        program
            .preload_static_table(frames.iter().map(|f| f.payload.clone()))
            .map_err(crate::err)?;
        encoded.clear();
        let start = Instant::now();
        for frame in &frames {
            let mut ctx = PacketContext::new(0, frame.clone());
            program.ingress(&mut ctx, SimTime::ZERO);
            encoded.push(ctx.take_frame());
        }
        let end = Instant::now();
        decoder_seed = program
            .control_plane()
            .dictionary()
            .iter()
            .map(|(id, basis)| (id, basis.to_bytes()))
            .collect();
        Ok((start, end))
    })?;
    let decode = fastest(tracer, "switch.decode", || {
        let mut program =
            ZipLineDecodeProgram::new(DecoderConfig::paper_default()).map_err(crate::err)?;
        for (id, basis) in &decoder_seed {
            program
                .install_mapping(*id, basis.clone(), SimTime::ZERO)
                .map_err(crate::err)?;
        }
        let start = Instant::now();
        for frame in &encoded {
            let mut ctx = PacketContext::new(0, frame.clone());
            program.ingress(&mut ctx, SimTime::ZERO);
            black_box(ctx.frame.payload.len());
        }
        Ok((start, Instant::now()))
    })?;
    metrics.push(("switch.noop.ns_per_packet".into(), noop / packets));
    metrics.push(("switch.encode.ns_per_packet".into(), encode / packets));
    metrics.push(("switch.decode.ns_per_packet".into(), decode / packets));

    // Counts read from public statistics; they repeat for a seed.
    let lookups: u64 = shard_stats.iter().map(|s| s.lookups).sum();
    let hits: u64 = shard_stats.iter().map(|s| s.hits).sum();
    let evictions: u64 = shard_stats.iter().map(|s| s.evictions).sum();
    metrics.push((
        "gd.dict_hit_share".into(),
        hits as f64 / lookups.max(1) as f64,
    ));
    metrics.push(("gd.evictions_per_mib".into(), evictions as f64 / mib));
    metrics.push((
        "engine.control_updates_per_mib".into(),
        control_updates as f64 / mib,
    ));
    metrics.push(("engine.registry.codec_switches".into(), codec_switches));
    metrics.push((
        "engine.registry.deflate_batch_share".into(),
        deflate_batch_share,
    ));
    metrics.push(("engine.tenant.open_flow_us".into(), open_flow_us));
    metrics.push((
        "engine.persist.journal_bytes_per_wire_byte".into(),
        journal_bytes_per_wire_byte,
    ));
    metrics.push(("engine.persist.files_per_flow".into(), files_per_flow));
    metrics.push((
        "server.socket_bytes_per_wire_byte".into(),
        socket_bytes_per_wire_byte,
    ));
    tracer.end();
    Ok(metrics)
}
