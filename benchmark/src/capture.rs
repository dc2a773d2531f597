//! What comes back from the system under test: per-flow acknowledgement
//! accounting, the captured wire stream, and its decoding through the
//! public decoders (the receive side of the codec).

use std::collections::VecDeque;
use std::time::Instant;

use zipline_engine::tenant::{FlowDecoderPool, FlowKey};
use zipline_engine::{
    CodecId, DictionaryUpdate, EngineBuilder, EngineDecompressor, GdBackend, RegistryDecompressor,
    SpawnPolicy, CODEC_GD, CODEC_PASSTHROUGH,
};
use zipline_gd::packet::PacketType;
use zipline_server::BackendChoice;

use crate::spans::Tracer;
use crate::spec::{engine_config, Workload, BATCH_BYTES, CHUNK_BYTES};
use crate::stats::Hash64;

/// Restored bytes are hashed, off the clock, each time this many are pending.
pub const RESTORE_SEGMENT_BYTES: usize = 1 << 20;

/// Input bytes one payload acknowledges: a container payload (a gzip
/// member) restores a whole engine batch, a raw payload carries its own
/// bytes, every other payload restores one chunk.
pub fn payload_credit(codec: Option<CodecId>, packet_type: PacketType, len: usize) -> u64 {
    let container = codec.is_some_and(|id| id != CODEC_GD && id != CODEC_PASSTHROUGH);
    if container {
        BATCH_BYTES as u64
    } else if packet_type == PacketType::Raw {
        len as u64
    } else {
        CHUNK_BYTES as u64
    }
}

/// Sent and acknowledged input of one flow, plus its bursts still in flight.
#[derive(Debug, Default)]
pub struct FlowAcct {
    pub sent: u64,
    pub acked: u64,
    /// `(cumulative bytes sent once the burst was out, instant it was due)`.
    bursts: VecDeque<(u64, Instant)>,
}

impl FlowAcct {
    pub fn burst_sent(&mut self, due: Instant) {
        self.bursts.push_back((self.sent, due));
    }

    /// Credits `bytes` of restored input. Every burst this completes is
    /// timed from the instant it was due and, if `sampled`, recorded.
    pub fn credit(&mut self, bytes: u64, sampled: bool, latencies_ns: &mut Vec<u64>) {
        self.acked += bytes;
        while let Some(&(cumulative, due)) = self.bursts.front() {
            if cumulative > self.acked {
                break;
            }
            self.bursts.pop_front();
            if sampled {
                latencies_ns.push(due.elapsed().as_nanos() as u64);
            }
        }
    }
}

/// Clock readings taken each time another [`RATE_WINDOW_BYTES`] of input
/// has been acknowledged. The rate of a phase is the median over these
/// windows, so a stall of the sandbox costs one window, not the phase.
#[derive(Debug)]
pub struct RateMarks {
    next: u64,
    stamps: Vec<Instant>,
}

/// Acknowledged input between two clock readings of [`RateMarks`].
pub const RATE_WINDOW_BYTES: u64 = 512 << 10;

impl RateMarks {
    /// Starts the first window now, at `acked` bytes acknowledged.
    pub fn start(acked: u64) -> Self {
        Self {
            next: acked + RATE_WINDOW_BYTES,
            stamps: vec![Instant::now()],
        }
    }

    #[inline]
    pub fn advance(&mut self, acked: u64) {
        if acked >= self.next {
            self.stamps.push(Instant::now());
            self.next += RATE_WINDOW_BYTES;
        }
    }

    /// Median rate over the windows in MB/s, and the instant the last
    /// window closed.
    pub fn median_mbps(&self) -> Option<(f64, Instant)> {
        let rates: Vec<f64> = self
            .stamps
            .windows(2)
            .map(|pair| {
                RATE_WINDOW_BYTES as f64 / 1e6 / pair[1].duration_since(pair[0]).as_secs_f64()
            })
            .collect();
        (!rates.is_empty()).then(|| {
            (
                crate::stats::median(&rates),
                *self.stamps.last().expect("two stamps"),
            )
        })
    }
}

#[derive(Debug, Clone, Copy)]
struct PayloadRef {
    flow: u16,
    /// Codec tag byte; 0 is the untagged sentinel of the container format.
    codec: u8,
    packet_type: PacketType,
    len: u32,
}

/// The wire stream of one session in arrival order: payload bytes back to
/// back with an index beside them, and the control updates with the
/// position each arrived at.
#[derive(Default)]
pub struct Capture {
    wire: Vec<u8>,
    payloads: Vec<PayloadRef>,
    /// `(payloads received before it, flow, update)`.
    controls: Vec<(u32, u16, DictionaryUpdate)>,
}

impl Capture {
    pub fn payload(
        &mut self,
        flow: usize,
        codec: Option<CodecId>,
        packet_type: PacketType,
        bytes: &[u8],
    ) {
        self.wire.extend_from_slice(bytes);
        self.payloads.push(PayloadRef {
            flow: flow as u16,
            codec: codec.map_or(0, CodecId::as_u8),
            packet_type,
            len: bytes.len() as u32,
        });
    }

    pub fn control(&mut self, flow: usize, update: DictionaryUpdate) {
        self.controls
            .push((self.payloads.len() as u32, flow as u16, update));
    }

    pub fn wire_bytes(&self) -> u64 {
        self.wire.len() as u64
    }

    pub fn payloads(&self) -> u64 {
        self.payloads.len() as u64
    }

    pub fn controls(&self) -> u64 {
        self.controls.len() as u64
    }

    /// Payloads that are gzip members (tagged with a codec other than GD).
    pub fn container_payloads(&self) -> usize {
        self.payloads
            .iter()
            .filter(|p| p.codec != 0 && p.codec != CODEC_GD.as_u8())
            .count()
    }
}

/// The public decoder a workload's receive side uses.
enum Restorer {
    /// Fixed GD stream: `EngineDecompressor` plus in-band `apply_update`.
    Gd(Box<EngineDecompressor<GdBackend>>),
    /// Per-batch codec tags: the registry's dynamic decode path.
    Tagged(Box<RegistryDecompressor>),
    /// Interleaved tenant flows: one decoder per flow.
    Pool(FlowDecoderPool, Vec<FlowKey>),
}

impl Restorer {
    fn new(workload: &Workload, keys: &[FlowKey]) -> Result<Self, String> {
        // Decoding needs the GD parameters and the shard count only.
        let config = engine_config(SpawnPolicy::Auto);
        if workload.multiplexed {
            let mut pool = FlowDecoderPool::new(config);
            for &key in keys {
                pool.open(key).map_err(crate::err)?;
            }
            Ok(Self::Pool(pool, keys.to_vec()))
        } else if workload.backend == BackendChoice::Gd {
            let decoder = EngineBuilder::new()
                .config(config)
                .build_decompressor()
                .map_err(crate::err)?;
            Ok(Self::Gd(Box::new(decoder)))
        } else {
            let decoder = RegistryDecompressor::new(config, CODEC_GD).map_err(crate::err)?;
            Ok(Self::Tagged(Box::new(decoder)))
        }
    }

    fn control(&mut self, flow: usize, update: &DictionaryUpdate) -> Result<(), String> {
        match self {
            Self::Gd(decoder) => decoder
                .backend_mut()
                .apply_update(update)
                .map_err(crate::err),
            Self::Tagged(decoder) => decoder.apply_update(update).map_err(crate::err),
            Self::Pool(pool, keys) => pool.observe_control(keys[flow], update).map_err(crate::err),
        }
    }

    fn payload(
        &mut self,
        payload: PayloadRef,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), String> {
        let codec = zipline_engine::codec_from_u8(payload.codec);
        let packet_type = payload.packet_type;
        match self {
            Self::Gd(decoder) => decoder
                .restore_payload_into(packet_type, bytes, out)
                .map_err(crate::err),
            Self::Tagged(decoder) => decoder
                .restore_payload_tagged(codec, packet_type, bytes, out)
                .map_err(crate::err),
            Self::Pool(pool, keys) => pool
                .decode_payload(keys[payload.flow as usize], codec, packet_type, bytes, out)
                .map_err(crate::err),
        }
    }
}

/// Outcome of decoding one captured stream.
pub struct Restored {
    /// `(bytes restored, seconds inside the decoders)` of every segment of
    /// about [`RESTORE_SEGMENT_BYTES`].
    pub segments: Vec<(u64, f64)>,
    /// Per flow, `(length, hash)` of the restored bytes.
    pub flows: Vec<(u64, u64)>,
}

impl Restored {
    pub fn seconds(&self) -> f64 {
        self.segments.iter().map(|(_, seconds)| seconds).sum()
    }
}

/// Decodes `capture` through the workload's public decoder. The clock runs
/// only while decoding; hashing the output for the check is off it.
pub fn restore(
    workload: &Workload,
    keys: &[FlowKey],
    capture: &Capture,
    tracer: &mut Tracer,
) -> Result<Restored, String> {
    let mut restorer = Restorer::new(workload, keys)?;
    let mut outs: Vec<Vec<u8>> = vec![Vec::new(); keys.len()];
    let mut hashes = vec![Hash64::default(); keys.len()];
    let mut controls = capture.controls.iter().peekable();
    let mut at = 0usize;
    let mut pending = 0usize;
    let mut segments = Vec::new();
    let mut span = tracer.start();
    let mut clock = Instant::now();
    for (index, &payload) in capture.payloads.iter().enumerate() {
        while let Some((_, flow, update)) =
            controls.next_if(|(before, ..)| *before as usize <= index)
        {
            restorer.control(*flow as usize, update)?;
        }
        let end = at + payload.len as usize;
        let out = &mut outs[payload.flow as usize];
        let before = out.len();
        restorer.payload(payload, &capture.wire[at..end], out)?;
        pending += out.len() - before;
        at = end;
        if pending >= RESTORE_SEGMENT_BYTES || index + 1 == capture.payloads.len() {
            segments.push((pending as u64, clock.elapsed().as_secs_f64()));
            tracer.leaf("restore.decode", span);
            for (out, hash) in outs.iter_mut().zip(&mut hashes) {
                hash.update(out);
                out.clear();
            }
            pending = 0;
            span = tracer.start();
            clock = Instant::now();
        }
    }
    Ok(Restored {
        segments,
        flows: hashes.iter().map(Hash64::finish).collect(),
    })
}
