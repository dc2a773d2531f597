//! Ready-made simulated ZipLine deployments.
//!
//! The canonical topology mirrors the paper's testbed plus the decompression
//! side it implies: a sender, an encoder switch, a decoder switch and a
//! receiver, all connected by 100 Gbit/s links, with a separate out-of-band
//! control channel between the two switches' control planes:
//!
//! ```text
//!  sender ──► encoder switch ──► decoder switch ──► receiver
//!                   │  control channel  │
//!                   └──────────────────┘
//! ```
//!
//! [`ZipLineDeployment`] builds this topology in the discrete-event network,
//! replays traffic through it and reports end-to-end statistics. The
//! experiment drivers (`crate::experiment`) build on top of it.
//!
//! The same switch programs carry every engine backend
//! (`crate::host::EngineHostPath<B>`): GD frames travel pre-processed
//! (types 2/3) with their in-band control traffic, while deflate/gzip and
//! passthrough streams travel as raw frames that the encoder may process
//! and the decoder restores byte-exactly — the receiving host then feeds
//! the restored payloads to the mirrored backend decompressor (see the
//! backend tests in `crate::host`).

use crate::controller::ControlPlaneStats;
use crate::decoder::{DecoderConfig, ZipLineDecodeProgram};
use crate::encoder::{EncoderConfig, ZipLineEncodeProgram};
use crate::error::{Result, ZipLineError};
use zipline_gd::config::GdConfig;
use zipline_gd::stats::CompressionStats;
use zipline_net::ethernet::EthernetFrame;
use zipline_net::host::{CaptureSink, GeneratorConfig, TrafficGenerator};
use zipline_net::link::LinkParams;
use zipline_net::mac::MacAddress;
use zipline_net::sim::Network;
use zipline_net::time::{DataRate, SimDuration, SimTime};
use zipline_switch::node::{SwitchConfig, SwitchNode, SwitchStats};

/// Configuration of a two-switch deployment.
#[derive(Debug, Clone)]
pub struct DeploymentConfig {
    /// GD parameters shared by both switches.
    pub gd: GdConfig,
    /// Payload bytes preceding the chunk, carried verbatim.
    pub chunk_offset: usize,
    /// Parameters of the three data links (sender–encoder, encoder–decoder,
    /// decoder–receiver).
    pub data_link: LinkParams,
    /// Parameters of the out-of-band control link between the switches.
    pub control_link: LinkParams,
    /// Fixed pipeline latency of each switch.
    pub pipeline_latency: SimDuration,
    /// Control-plane latency of each switch (digest service time and control
    /// packet handling). Three control-plane hops make up the learning
    /// delay, so a third of the paper's 1.77 ms is a natural default.
    pub control_plane_latency: SimDuration,
    /// NIC line rate of the sender.
    pub nic_rate: DataRate,
    /// Optional software packet-rate cap of the sender (the paper's
    /// generator tops out around 7 Mpkt/s).
    pub max_packets_per_second: Option<f64>,
    /// Whether the switches actually compress/decompress (`false` gives the
    /// "No op" baseline).
    pub compression_enabled: bool,
    /// Record every payload arriving at the receiver (disable for very large
    /// runs where only counters are needed).
    pub record_received_payloads: bool,
}

impl DeploymentConfig {
    /// Testbed-like defaults: 100 Gbit/s links, sub-microsecond pipeline,
    /// control-plane latency calibrated so a full learning round trip takes
    /// about 1.77 ms.
    pub fn paper_default() -> Self {
        Self {
            gd: GdConfig::paper_default(),
            chunk_offset: 0,
            data_link: LinkParams::line_rate_100g(),
            control_link: LinkParams::line_rate_100g(),
            pipeline_latency: SimDuration::from_nanos(600),
            control_plane_latency: SimDuration::from_micros(590),
            nic_rate: DataRate::LINE_RATE_100G,
            max_packets_per_second: Some(7_000_000.0),
            compression_enabled: true,
            record_received_payloads: true,
        }
    }

    /// Ideal links and tiny latencies: useful for unit tests where wall-clock
    /// time per simulated packet matters more than realism. The sender is
    /// paced at 100 kpkt/s so that the (20 µs-scale) learning round trip
    /// completes within a few packets.
    pub fn fast_test() -> Self {
        Self {
            gd: GdConfig::paper_default(),
            chunk_offset: 0,
            data_link: LinkParams::ideal(),
            control_link: LinkParams::ideal(),
            pipeline_latency: SimDuration::from_nanos(100),
            control_plane_latency: SimDuration::from_micros(10),
            nic_rate: DataRate::from_gbps(100.0),
            max_packets_per_second: Some(100_000.0),
            compression_enabled: true,
            record_received_payloads: true,
        }
    }
}

/// Outcome of one deployment run.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Payloads received in order (empty when recording is disabled).
    pub received_payloads: Vec<Vec<u8>>,
    /// Number of frames received.
    pub frames_received: u64,
    /// Sum of *payload* bytes entering the encoder switch from the sender.
    pub payload_bytes_in: u64,
    /// Sum of *payload* bytes leaving the encoder towards the decoder —
    /// the quantity Figure 3 reports.
    pub payload_bytes_between_switches: u64,
    /// Encoder program statistics.
    pub encoder_stats: CompressionStats,
    /// Decoder program statistics.
    pub decoder_stats: CompressionStats,
    /// Encoder control-plane statistics.
    pub control_plane_stats: ControlPlaneStats,
    /// Encoder switch node counters.
    pub encoder_switch_stats: SwitchStats,
    /// Decoder switch node counters.
    pub decoder_switch_stats: SwitchStats,
    /// Simulated time at which the last frame reached the receiver.
    pub finished_at: SimTime,
}

impl RunOutcome {
    /// Compression ratio measured between the switches (output payload bytes
    /// over input payload bytes).
    pub fn compression_ratio(&self) -> Option<f64> {
        if self.payload_bytes_in == 0 {
            None
        } else {
            Some(self.payload_bytes_between_switches as f64 / self.payload_bytes_in as f64)
        }
    }
}

/// A sender → encoder → decoder → receiver deployment.
pub struct ZipLineDeployment {
    config: DeploymentConfig,
    /// Bases to pre-install before the run (static-table scenario).
    static_chunks: Vec<Vec<u8>>,
}

impl ZipLineDeployment {
    /// Creates a deployment description. The simulated network is built
    /// afresh for every run so runs are independent.
    pub fn new(config: DeploymentConfig) -> Result<Self> {
        config.gd.validate()?;
        Ok(Self {
            config,
            static_chunks: Vec::new(),
        })
    }

    /// Pre-installs the bases of the given chunks in both switches before
    /// the next run (the "static table" scenario of Figure 3).
    pub fn preload_static_table(&mut self, chunks: Vec<Vec<u8>>) {
        self.static_chunks = chunks;
    }

    /// The deployment configuration.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// Convenience: wraps raw payloads into Ethernet frames and runs them
    /// through the deployment, returning the payloads seen by the receiver.
    pub fn run_payloads(&mut self, payloads: &[Vec<u8>]) -> Result<Vec<Vec<u8>>> {
        let frames: Vec<EthernetFrame> = payloads
            .iter()
            .map(|p| {
                EthernetFrame::new(
                    MacAddress::local(2),
                    MacAddress::local(1),
                    zipline_net::ethernet::ETHERTYPE_IPV4,
                    p.clone(),
                )
            })
            .collect();
        Ok(self.run_frames(frames)?.received_payloads)
    }

    /// Replays the given frames through the deployment and collects the
    /// outcome. Frames compressed host-side (`crate::host`) carry their
    /// decoder sync in-band: the encoder switch forwards
    /// `ETHERTYPE_ZIPLINE_CONTROL` frames unmodified along the data path,
    /// the decoder switch consumes them in arrival order (installing and
    /// removing mappings before the data frames that depend on them) and
    /// returns its acknowledgements over the out-of-band control link.
    pub fn run_frames(&mut self, frames: Vec<EthernetFrame>) -> Result<RunOutcome> {
        let cfg = &self.config;
        let frame_count = frames.len() as u64;
        let mut net = Network::new();

        // --- nodes -------------------------------------------------------
        let generator_config = GeneratorConfig {
            frames,
            count: frame_count,
            nic_rate: cfg.nic_rate,
            max_packets_per_second: cfg.max_packets_per_second,
            port: 0,
            start: SimTime::ZERO,
        };
        let sender = net.add_node(Box::new(TrafficGenerator::new(generator_config)));

        let encoder_config = EncoderConfig {
            gd: cfg.gd,
            chunk_offset: cfg.chunk_offset,
            data_egress_port: 1,
            control_port: 2,
            control_src: MacAddress::local(0xE0),
            control_dst: MacAddress::local(0xD0),
            compression_enabled: cfg.compression_enabled,
        };
        let mut encoder_program = ZipLineEncodeProgram::new(encoder_config)?;

        let decoder_config = DecoderConfig {
            gd: cfg.gd,
            chunk_offset: cfg.chunk_offset,
            data_egress_port: 1,
            control_port: 2,
            control_src: MacAddress::local(0xD0),
            control_dst: MacAddress::local(0xE0),
            restored_ethertype: zipline_net::ethernet::ETHERTYPE_IPV4,
            unknown_id_policy: crate::decoder::UnknownIdPolicy::Forward,
            decompression_enabled: cfg.compression_enabled,
        };
        let mut decoder_program = ZipLineDecodeProgram::new(decoder_config)?;

        // Static-table preload: compute each distinct basis once, install the
        // forward mapping in the encoder and the reverse mapping in the
        // decoder (what the paper does before starting the static runs).
        if !self.static_chunks.is_empty() {
            let padded: Vec<Vec<u8>> = self.static_chunks.clone();
            let installed = encoder_program.preload_static_table(padded.into_iter())?;
            for (id, basis_bytes) in installed {
                decoder_program.install_mapping(id, basis_bytes, SimTime::ZERO)?;
            }
        }

        let switch_config = SwitchConfig {
            ports: 3,
            pipeline_latency: cfg.pipeline_latency,
            control_plane_latency: cfg.control_plane_latency,
            cpu_ports: vec![2],
            digest_queue_capacity: 4096,
        };
        let encoder_switch = net.add_node(Box::new(SwitchNode::new(
            switch_config.clone(),
            encoder_program,
        )?));
        let decoder_switch =
            net.add_node(Box::new(SwitchNode::new(switch_config, decoder_program)?));

        let receiver = net.add_node(Box::new(if cfg.record_received_payloads {
            CaptureSink::keeping_frames(usize::MAX)
        } else {
            CaptureSink::recording_arrivals()
        }));

        // --- links -------------------------------------------------------
        net.connect((sender, 0), (encoder_switch, 0), cfg.data_link)?;
        net.connect((encoder_switch, 1), (decoder_switch, 0), cfg.data_link)?;
        net.connect((decoder_switch, 1), (receiver, 0), cfg.data_link)?;
        net.connect((encoder_switch, 2), (decoder_switch, 2), cfg.control_link)?;

        // --- run ---------------------------------------------------------
        net.schedule_timer(SimTime::ZERO, sender, 0);
        // Generous cap: a handful of events per frame plus control traffic.
        let max_events = frame_count.saturating_mul(16).max(10_000);
        net.run(max_events);

        // --- collect -----------------------------------------------------
        let receiver_node = net
            .node_as::<CaptureSink>(receiver)
            .ok_or_else(|| ZipLineError::InvalidConfig("receiver node type".into()))?;
        let received_payloads: Vec<Vec<u8>> = receiver_node
            .frames()
            .iter()
            .map(|(_, frame)| frame.payload.clone())
            .collect();
        let frames_received = receiver_node.stats().frames_received;
        let finished_at = receiver_node.stats().last_arrival.unwrap_or(net.now());

        let encoder_node = net
            .node_as::<SwitchNode<ZipLineEncodeProgram>>(encoder_switch)
            .ok_or_else(|| ZipLineError::InvalidConfig("encoder node type".into()))?;
        let decoder_node = net
            .node_as::<SwitchNode<ZipLineDecodeProgram>>(decoder_switch)
            .ok_or_else(|| ZipLineError::InvalidConfig("decoder node type".into()))?;

        let encoder_stats = *encoder_node.program().stats();
        let decoder_stats = *decoder_node.program().stats();
        let control_plane_stats = encoder_node.program().control_plane().stats();

        Ok(RunOutcome {
            received_payloads,
            frames_received,
            payload_bytes_in: encoder_stats.bytes_in,
            payload_bytes_between_switches: encoder_stats.bytes_out,
            encoder_stats,
            decoder_stats,
            control_plane_stats,
            encoder_switch_stats: encoder_node.stats(),
            decoder_switch_stats: decoder_node.stats(),
            finished_at,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_payloads_roundtrip_and_eventually_compress() {
        let mut deployment = ZipLineDeployment::new(DeploymentConfig::fast_test()).unwrap();
        let payload = vec![0xABu8; 32];
        let payloads = vec![payload.clone(); 200];
        let frames: Vec<EthernetFrame> = payloads
            .iter()
            .map(|p| {
                EthernetFrame::new(
                    MacAddress::local(2),
                    MacAddress::local(1),
                    zipline_net::ethernet::ETHERTYPE_IPV4,
                    p.clone(),
                )
            })
            .collect();
        let outcome = deployment.run_frames(frames).unwrap();

        assert_eq!(outcome.frames_received, 200);
        assert_eq!(outcome.received_payloads.len(), 200);
        assert!(outcome.received_payloads.iter().all(|p| p == &payload));
        // Only one basis exists, so almost all packets travel compressed.
        assert_eq!(
            outcome.encoder_stats.emitted_compressed + outcome.encoder_stats.emitted_uncompressed,
            200
        );
        assert!(
            outcome.encoder_stats.emitted_compressed > 150,
            "stats: {:?}",
            outcome.encoder_stats
        );
        assert_eq!(outcome.control_plane_stats.mappings_activated, 1);
        assert!(outcome.compression_ratio().unwrap() < 0.5);
        assert!(outcome.decoder_stats.decode_failures == 0);
    }

    #[test]
    fn mixed_payloads_are_restored_byte_exactly() {
        let mut deployment = ZipLineDeployment::new(DeploymentConfig::fast_test()).unwrap();
        let payloads: Vec<Vec<u8>> = (0..50u8)
            .map(|i| {
                (0..32u8)
                    .map(|j| i.wrapping_mul(3).wrapping_add(j % 4))
                    .collect()
            })
            .collect();
        let received = deployment.run_payloads(&payloads).unwrap();
        assert_eq!(received, payloads);
    }

    #[test]
    fn short_payloads_pass_through_unmodified() {
        let mut deployment = ZipLineDeployment::new(DeploymentConfig::fast_test()).unwrap();
        let payloads = vec![vec![1u8, 2, 3], vec![9u8; 10]];
        let received = deployment.run_payloads(&payloads).unwrap();
        assert_eq!(received, payloads);
    }

    #[test]
    fn static_table_compresses_from_the_first_packet() {
        let mut deployment = ZipLineDeployment::new(DeploymentConfig::fast_test()).unwrap();
        let payload = vec![0x17u8; 32];
        deployment.preload_static_table(vec![payload.clone()]);
        let frames: Vec<EthernetFrame> = (0..10)
            .map(|_| {
                EthernetFrame::new(
                    MacAddress::local(2),
                    MacAddress::local(1),
                    zipline_net::ethernet::ETHERTYPE_IPV4,
                    payload.clone(),
                )
            })
            .collect();
        let outcome = deployment.run_frames(frames).unwrap();
        assert_eq!(outcome.encoder_stats.emitted_compressed, 10);
        assert_eq!(outcome.encoder_stats.emitted_uncompressed, 0);
        assert!(outcome.received_payloads.iter().all(|p| p == &payload));
        // 10 × 3 B out of 10 × 32 B in.
        assert!((outcome.compression_ratio().unwrap() - 3.0 / 32.0).abs() < 0.01);
    }

    #[test]
    fn disabled_compression_is_a_transparent_wire() {
        let config = DeploymentConfig {
            compression_enabled: false,
            ..DeploymentConfig::fast_test()
        };
        let mut deployment = ZipLineDeployment::new(config).unwrap();
        let payloads = vec![vec![0x55u8; 32]; 20];
        let outcome = deployment
            .run_frames(
                payloads
                    .iter()
                    .map(|p| {
                        EthernetFrame::new(
                            MacAddress::local(2),
                            MacAddress::local(1),
                            zipline_net::ethernet::ETHERTYPE_IPV4,
                            p.clone(),
                        )
                    })
                    .collect(),
            )
            .unwrap();
        assert_eq!(outcome.encoder_stats.emitted_raw, 20);
        assert_eq!(outcome.compression_ratio().unwrap(), 1.0);
        assert_eq!(outcome.received_payloads, payloads);
    }

    #[test]
    fn learning_delay_keeps_early_packets_uncompressed() {
        // With a deliberately long control-plane latency and fast sending,
        // many packets of the same basis go out uncompressed before the
        // mapping becomes active.
        let config = DeploymentConfig {
            control_plane_latency: SimDuration::from_millis(1),
            max_packets_per_second: Some(1_000_000.0),
            ..DeploymentConfig::fast_test()
        };
        let mut deployment = ZipLineDeployment::new(config).unwrap();
        let payload = vec![0x42u8; 32];
        let frames: Vec<EthernetFrame> = (0..5000)
            .map(|_| {
                EthernetFrame::new(
                    MacAddress::local(2),
                    MacAddress::local(1),
                    zipline_net::ethernet::ETHERTYPE_IPV4,
                    payload.clone(),
                )
            })
            .collect();
        let outcome = deployment.run_frames(frames).unwrap();
        // Learning takes ~3 control-plane hops = ~3 ms; at 1 Mpkt/s that is
        // about 3000 uncompressed packets, then compression kicks in.
        assert!(
            outcome.encoder_stats.emitted_uncompressed > 1000,
            "uncompressed: {}",
            outcome.encoder_stats.emitted_uncompressed
        );
        assert!(
            outcome.encoder_stats.emitted_compressed > 500,
            "compressed: {}",
            outcome.encoder_stats.emitted_compressed
        );
        assert_eq!(outcome.decoder_stats.decode_failures, 0);
        assert_eq!(outcome.frames_received, 5000);
    }

    #[test]
    fn invalid_gd_config_is_rejected() {
        let mut config = DeploymentConfig::fast_test();
        config.gd.chunk_bytes = 4;
        assert!(ZipLineDeployment::new(config).is_err());
    }
}
