//! Workload inputs: every byte the system under test will receive is
//! generated from `--seed` and held in memory before any clock starts.

use zipline_traces::{
    ChunkWorkload, DnsWorkload, DnsWorkloadConfig, ManyFlowsConfig, ManyFlowsWorkload,
    SensorWorkload, SensorWorkloadConfig,
};

use crate::spec::{Source, Workload, BATCH_BYTES, CHUNK_BYTES};
use crate::stats::Hash64;

/// Tenants and flows of the multiplexed workload.
pub const TENANTS: usize = 4;
pub const FLOWS: usize = 8;
/// Upper bound of a generated multiplexed or mixed trace; longer phases wrap.
const MAX_SYNTHETIC_BYTES: usize = 32 << 20;

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// Input records back to back, in the order the generator sends them.
pub struct Trace {
    pub bytes: Vec<u8>,
    pub record_bytes: usize,
    /// `(tenant, flow)` of every flow; one entry for single-stream traces.
    pub keys: Vec<(u64, u64)>,
    /// Flow index of every record; empty when there is one flow.
    flow_of: Vec<u8>,
    /// Record indices of every flow, in send order.
    pub records_of_flow: Vec<Vec<u32>>,
}

/// A run of consecutive records of a trace; indices wrap at its end.
#[derive(Debug, Clone, Copy)]
pub struct Window {
    pub start: usize,
    pub records: usize,
}

impl Trace {
    fn single(bytes: Vec<u8>, record_bytes: usize) -> Self {
        let records = bytes.len() / record_bytes;
        Self {
            bytes,
            record_bytes,
            keys: vec![(0, 0)],
            flow_of: Vec::new(),
            records_of_flow: vec![(0..records as u32).collect()],
        }
    }

    pub fn records(&self) -> usize {
        self.bytes.len() / self.record_bytes
    }

    pub fn flows(&self) -> usize {
        self.keys.len()
    }

    /// Flow index and bytes of record `index` (wrapping).
    pub fn record(&self, index: usize) -> (usize, &[u8]) {
        let index = index % self.records();
        let flow = self.flow_of.get(index).map_or(0, |&f| f as usize);
        let at = index * self.record_bytes;
        (flow, &self.bytes[at..at + self.record_bytes])
    }

    /// The window of `bytes` input bytes that starts at record `start`.
    pub fn window(&self, start: usize, bytes: usize) -> Window {
        Window {
            start,
            records: bytes / self.record_bytes,
        }
    }

    /// Per flow, `(length, hash)` of the bytes a window carries — what the
    /// restored output of that flow must equal.
    pub fn expected(&self, window: Window) -> Vec<(u64, u64)> {
        let mut hashes = vec![Hash64::default(); self.flows()];
        for index in window.start..window.start + window.records {
            let (flow, bytes) = self.record(index);
            hashes[flow].update(bytes);
        }
        hashes.iter().map(Hash64::finish).collect()
    }
}

fn flatten(workload: &dyn ChunkWorkload) -> Vec<u8> {
    let mut bytes = Vec::with_capacity(workload.total_chunks() * workload.chunk_len());
    for chunk in workload.chunks() {
        bytes.extend_from_slice(&chunk);
    }
    bytes
}

fn sensor_bytes(seed: u64, chunks: usize) -> Vec<u8> {
    let paper = SensorWorkloadConfig::paper_scale();
    flatten(&SensorWorkload::new(SensorWorkloadConfig {
        chunks: chunks.min(paper.chunks),
        seed,
        ..paper
    }))
}

fn dns_bytes(seed: u64, chunks: usize) -> Vec<u8> {
    let paper = DnsWorkloadConfig::paper_scale();
    flatten(&DnsWorkload::new(DnsWorkloadConfig {
        queries: chunks.min(paper.queries),
        seed,
        ..paper
    }))
}

/// Alternating batch-sized segments of sensor data (GD wins) and seeded
/// low-entropy text (deflate wins), so the auto router has to keep choosing.
fn mixed_bytes(seed: u64, bytes: usize) -> Vec<u8> {
    // An even count, so the trace is whole 16 KiB records.
    let segments = (bytes.min(MAX_SYNTHETIC_BYTES) / BATCH_BYTES).max(2) & !1;
    let sensor = sensor_bytes(seed, segments.div_ceil(2) * BATCH_BYTES / CHUNK_BYTES);
    let mut out = Vec::with_capacity(segments * BATCH_BYTES);
    for segment in 0..segments {
        if segment % 2 == 0 {
            let at = segment / 2 * BATCH_BYTES;
            out.extend_from_slice(&sensor[at..at + BATCH_BYTES]);
        } else {
            let base = splitmix64(seed ^ segment as u64) as usize % 1024;
            out.extend((0..BATCH_BYTES).map(|i| {
                let (chunk, byte) = (i / CHUNK_BYTES, i % CHUNK_BYTES);
                ((base + chunk * 17 + byte * 7) % 9) as u8 + b'a'
            }));
        }
    }
    out
}

/// The many-flows event stream with each flow's chunks coalesced into
/// records of `record_bytes`, in the order the records fill up.
fn many_flows_trace(seed: u64, bytes: usize, record_bytes: usize) -> Trace {
    let mix = ManyFlowsWorkload::new(ManyFlowsConfig {
        tenants: TENANTS,
        flows: FLOWS,
        chunks: bytes.min(MAX_SYNTHETIC_BYTES) / CHUNK_BYTES,
        chunk_len: CHUNK_BYTES,
        zipf_exponent: 1.0,
        drift_every: 64,
        seed,
    });
    let keys = mix.keys();
    let mut filling: Vec<Vec<u8>> = vec![Vec::with_capacity(record_bytes); keys.len()];
    let mut trace = Trace {
        bytes: Vec::with_capacity(bytes.min(MAX_SYNTHETIC_BYTES)),
        record_bytes,
        keys: keys.clone(),
        flow_of: Vec::new(),
        records_of_flow: vec![Vec::new(); keys.len()],
    };
    for event in mix.events() {
        let flow = keys
            .iter()
            .position(|&key| key == (event.tenant, event.flow))
            .expect("event of a listed flow");
        filling[flow].extend_from_slice(&event.bytes);
        if filling[flow].len() == record_bytes {
            trace.records_of_flow[flow].push(trace.flow_of.len() as u32);
            trace.flow_of.push(flow as u8);
            trace.bytes.append(&mut filling[flow]);
        }
    }
    trace
}

/// Generates the trace of `workload` for `seed`, at least `bytes` long
/// unless the source's full scale is shorter (phases then wrap around it).
pub fn generate(workload: &Workload, seed: u64, bytes: usize) -> Trace {
    // Each workload draws from its own stream of the seed.
    let seed = workload
        .name
        .bytes()
        .fold(seed, |seed, byte| splitmix64(seed ^ u64::from(byte)));
    let chunks = bytes.div_ceil(CHUNK_BYTES);
    match workload.source {
        Source::Sensor => Trace::single(sensor_bytes(seed, chunks), workload.record_bytes),
        Source::Dns => Trace::single(dns_bytes(seed, chunks), workload.record_bytes),
        Source::Mixed => Trace::single(mixed_bytes(seed, bytes), workload.record_bytes),
        Source::ManyFlows => many_flows_trace(seed, bytes, workload.record_bytes),
    }
}
