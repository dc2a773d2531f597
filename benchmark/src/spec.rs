//! The fixed shape of the benchmark: engine settings of the system under
//! test, the four workloads, and how `--seconds` becomes byte budgets.

use std::time::Duration;

use zipline::host::HostPathConfig;
use zipline_engine::{EngineConfig, SpawnPolicy};
use zipline_gd::GdConfig;
use zipline_server::BackendChoice;

/// Engine chunk size (the paper's 256-bit chunk).
pub const CHUNK_BYTES: usize = 32;
/// Chunks per engine batch.
pub const BATCH_CHUNKS: usize = 256;
/// One engine batch of input.
pub const BATCH_BYTES: usize = CHUNK_BYTES * BATCH_CHUNKS;
/// In-flight batch bound of the pipelined stream.
pub const PIPELINE_DEPTH: usize = 2;
/// Closed-loop window of unacknowledged input per flow, in engine batches.
///
/// A pipelined stream releases a finished batch only when a later batch is
/// dispatched, and can hold `PIPELINE_DEPTH + 2` batches without releasing
/// any (one compressing, `depth` queued, one blocked in the hand-off). A
/// smaller window can therefore stall with the client waiting for output
/// the server will not emit; eight batches leaves room for one 16 KiB
/// record beyond that.
pub const WINDOW_BATCHES: usize = 8;
/// Repetitions per run, each against a fresh system under test; every
/// metric is the median over them.
pub const REPS: usize = 5;
/// Open-loop schedule of the paced phase: one engine batch per interval
/// (4 MB/s, a fraction of saturation on every workload).
pub const BURST_INTERVAL: Duration = Duration::from_millis(2);
/// A burst sent later than this after it was due counts as late.
pub const LATE_AFTER: Duration = Duration::from_millis(1);
/// Bytes each per-layer rung processes per pass.
pub const LADDER_BYTES: usize = 8 << 20;
/// Passes per rung; the fastest is reported.
pub const LADDER_PASSES: usize = 3;

/// Engine shape of the system under test: the paper's GD parameters, eight
/// dictionary shards, one batch worker — so the thread count of the SUT is
/// fixed and small on the two-core box.
///
/// The server child is confined to one processor, where
/// [`SpawnPolicy::Auto`] — what `zipline-serverd` runs with — makes every
/// pipelined stream run inline, as on any one-processor host. The
/// in-process workload and ladder rungs span both processors (generator on
/// one, stream worker on the other) and ask for [`SpawnPolicy::Threads`]:
/// `Auto` counts the processors of the thread that *creates* the stream,
/// which the placement has just narrowed to one. With one batch worker
/// `Threads` spawns nothing per batch.
pub fn engine_config(spawn: SpawnPolicy) -> EngineConfig {
    EngineConfig {
        gd: GdConfig::paper_default(),
        shards: 8,
        workers: 1,
        spawn,
    }
}

/// Host-path shape every server-side stream engine is built from.
pub fn host_config() -> HostPathConfig {
    HostPathConfig {
        engine: engine_config(SpawnPolicy::Auto),
        batch_chunks: BATCH_CHUNKS,
        pipeline_depth: Some(PIPELINE_DEPTH),
        ..HostPathConfig::paper_default()
    }
}

/// How a workload reaches the system under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// A `PipelinedStream` inside the benchmark process; no socket.
    InProcess,
    /// TCP loopback to a child process.
    Tcp,
    /// Unix-domain socket to a child process.
    Uds,
}

/// Where a workload's bytes come from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Source {
    /// Paper-scale synthetic sensor dataset.
    Sensor,
    /// Paper-scale campus-DNS trace.
    Dns,
    /// Four tenants of two flows each, Zipf-skewed, one third churning.
    ManyFlows,
    /// Alternating 8 KiB segments of sensor data and text-like bytes.
    Mixed,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub why: &'static str,
    pub source: Source,
    pub transport: Transport,
    pub backend: BackendChoice,
    /// Many flows over one multiplexed session.
    pub multiplexed: bool,
    /// Journal every batch under a store root.
    pub durable: bool,
    /// Input record size the generator sends.
    pub record_bytes: usize,
    /// Cold slice ingested, restored and verified inside `setup_s`.
    pub warm_bytes: usize,
    /// Ingest speed at the commit that defined the benchmark; it sizes the
    /// saturation phase in bytes so parent and change do identical work.
    pub nominal_mbps: f64,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "engine_inproc",
        why: "sensor trace through an in-process PipelinedStream: only zipline-gd and the engine run, the floor every layer tax is measured against",
        source: Source::Sensor,
        transport: Transport::InProcess,
        backend: BackendChoice::Gd,
        multiplexed: false,
        durable: false,
        record_bytes: CHUNK_BYTES,
        warm_bytes: 32 << 20,
        nominal_mbps: 150.0,
    },
    Workload {
        name: "tcp_small_gd",
        why: "DNS trace as 32 B DATA records over one TCP session: the smallest message, so per-record client, wire and server cost dominates",
        source: Source::Dns,
        transport: Transport::Tcp,
        backend: BackendChoice::Gd,
        multiplexed: false,
        durable: false,
        record_bytes: CHUNK_BYTES,
        warm_bytes: 8 << 20,
        nominal_mbps: 21.0,
    },
    Workload {
        name: "uds_mux_durable",
        why: "8 Zipf-skewed flows of 4 tenants multiplexed on one Unix socket, every batch journaled to a per-flow store: only here do tenant.rs and persist.rs do the work",
        source: Source::ManyFlows,
        transport: Transport::Uds,
        backend: BackendChoice::Gd,
        multiplexed: true,
        durable: true,
        record_bytes: 1024,
        warm_bytes: 8 << 20,
        nominal_mbps: 19.5,
    },
    Workload {
        name: "tcp_large_auto",
        why: "mixed sensor/text bytes as 16 KiB DATA records through the auto router over TCP: registry routing and deflate dominate, large tagged payloads",
        source: Source::Mixed,
        transport: Transport::Tcp,
        backend: BackendChoice::Auto,
        multiplexed: false,
        durable: false,
        record_bytes: 16 << 10,
        warm_bytes: 8 << 20,
        nominal_mbps: 39.0,
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// Byte and burst budgets of one repetition.
#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub reps: usize,
    pub warm_bytes: usize,
    pub saturation_bytes: usize,
    pub paced_bursts: usize,
}

impl Plan {
    /// `seconds` is the measured time of a whole run: half of it goes to
    /// the saturation phases of the repetitions and half to the paced
    /// phases. Phases are sized in bytes and bursts, never by the clock, so
    /// two commits do identical work for the same `--seconds`.
    pub fn new(workload: &Workload, seconds: u64, quick: bool) -> Self {
        let reps = if quick { 1 } else { REPS };
        let shrink = if quick { 10.0 } else { 1.0 };
        let phase_seconds = seconds as f64 / (2.0 * REPS as f64) / shrink;
        // Whole windows, so every flow's share ends on a batch boundary.
        let granule = BATCH_BYTES.max(workload.record_bytes);
        let whole = |bytes: f64| ((bytes as usize) / granule).max(WINDOW_BATCHES) * granule;
        Self {
            reps,
            warm_bytes: whole(workload.warm_bytes as f64 / shrink),
            saturation_bytes: whole(workload.nominal_mbps * 1e6 * phase_seconds),
            paced_bursts: ((phase_seconds / BURST_INTERVAL.as_secs_f64()) as usize).max(16),
        }
    }
}
