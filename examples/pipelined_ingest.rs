//! # Pipelined async ingest: overlapping record production with compression
//!
//! On an engine without a pipeline depth, [`PipelinedStream`] compresses
//! each batch on the calling thread — ingest stalls while a batch
//! compresses. Opted in, it overlaps the two through a bounded,
//! backpressured channel feeding a dedicated engine worker thread (std
//! `mpsc` only, no async runtime), with batch buffers double-buffered and
//! recycled. This example walks the whole surface:
//!
//! 1. build an engine opted in to pipelining via
//!    [`EngineBuilder::pipelined`];
//! 2. stream a sensor workload through it and through an engine without
//!    the opt-in, and verify the wire output is **bit-identical** — the
//!    pipeline is a latency/throughput knob, never a format change;
//! 3. do the same through the host path
//!    ([`EngineHostPath::compress_workload_to_frames`] with and without
//!    [`HostPathConfig::pipeline_depth`]), where decoder-sync control
//!    frames stay interleaved in the exact positions the decoder needs;
//! 4. time both paths (on a single-core host the pipelined stream degrades
//!    to inline execution and the two are expected to tie — the overlap
//!    pays on multi-core hosts).
//!
//! Run with:
//! ```sh
//! cargo run --release --example pipelined_ingest
//! ```
//!
//! [`PipelinedStream`]: zipline_repro::zipline_engine::PipelinedStream
//! [`EngineBuilder::pipelined`]: zipline_repro::zipline_engine::EngineBuilder::pipelined
//! [`EngineHostPath::compress_workload_to_frames`]: zipline_repro::zipline::host::EngineHostPath::compress_workload_to_frames
//! [`HostPathConfig::pipeline_depth`]: zipline_repro::zipline::host::HostPathConfig::pipeline_depth

use std::time::Instant;

use zipline_repro::zipline::host::{EngineHostPath, HostPathConfig};
use zipline_repro::zipline_engine::{EngineBuilder, PipelinedStream, SpawnPolicy};
use zipline_repro::zipline_traces::sensor::{SensorWorkload, SensorWorkloadConfig};

fn main() {
    // ------------------------------------------------------------------
    // 1. Two engines with the same shape; one opted in to pipelining.
    //    SpawnPolicy::Auto spawns the ingest worker only on multi-core
    //    hosts — on one core both paths run inline and stay comparable.
    // ------------------------------------------------------------------
    let builder = || {
        EngineBuilder::new()
            .shards(8)
            .workers(4)
            .spawn(SpawnPolicy::Auto)
    };
    let workload = SensorWorkload::new(SensorWorkloadConfig {
        chunks: 40_000,
        ..SensorWorkloadConfig::small()
    });

    // ------------------------------------------------------------------
    // 2. Bit-identity: the pipelined stream emits exactly the payload
    //    sequence of the stream on the calling thread.
    // ------------------------------------------------------------------
    let sync_engine = builder().build().expect("valid engine config");
    let mut sync_wire: Vec<u8> = Vec::new();
    let sync_started = Instant::now();
    let mut sync_stream = PipelinedStream::new(sync_engine, 256, |_, bytes: &[u8]| {
        sync_wire.extend_from_slice(bytes);
    })
    .expect("valid stream");
    sync_stream
        .consume_workload(&workload)
        .expect("stream accepts the workload");
    let (_, sync_summary) = sync_stream.finish().expect("stream finishes");
    let sync_elapsed = sync_started.elapsed();

    let piped_engine = builder().pipelined(2).build().expect("valid engine config");
    let mut piped_wire: Vec<u8> = Vec::new();
    let piped_started = Instant::now();
    let mut piped_stream = PipelinedStream::new(piped_engine, 256, |_, bytes: &[u8]| {
        piped_wire.extend_from_slice(bytes);
    })
    .expect("engine is pipelined");
    let threaded = piped_stream.is_threaded();
    piped_stream
        .consume_workload(&workload)
        .expect("stream accepts the workload");
    let (_engine, piped_summary) = piped_stream.finish().expect("stream finishes");
    let piped_elapsed = piped_started.elapsed();

    assert_eq!(piped_wire, sync_wire, "pipelined output is bit-identical");
    assert_eq!(piped_summary, sync_summary);
    println!(
        "engine stream: {} bytes in -> {} wire bytes ({} payloads), ratio {:.3}",
        sync_summary.bytes_in,
        sync_summary.wire_bytes,
        sync_summary.payloads_emitted,
        sync_summary.wire_bytes as f64 / sync_summary.bytes_in as f64,
    );
    println!(
        "synchronous {:>8.2?}   pipelined {:>8.2?}   (worker thread: {}) -- identical bytes",
        sync_elapsed,
        piped_elapsed,
        if threaded { "yes" } else { "inline fallback" },
    );

    // ------------------------------------------------------------------
    // 3. The host path: same opt-in, now with Ethernet framing and decoder
    //    sync interleaved. Frame sequences must also match.
    // ------------------------------------------------------------------
    let mut sync_host =
        EngineHostPath::new(HostPathConfig::paper_default()).expect("valid host config");
    let (sync_frames, _) = sync_host
        .compress_workload_to_frames(&workload)
        .expect("host path compresses");
    let mut piped_host = EngineHostPath::new(HostPathConfig::pipelined(2)).expect("valid config");
    let (piped_frames, summary) = piped_host
        .compress_workload_to_frames(&workload)
        .expect("pipelined host path compresses");
    assert_eq!(piped_frames, sync_frames, "frame sequences are identical");
    println!(
        "host path: {} frames ({} control updates) -- pipelined == synchronous",
        piped_frames.len(),
        summary.control_updates,
    );
    println!("pipelined ingest walkthrough: OK");
}
