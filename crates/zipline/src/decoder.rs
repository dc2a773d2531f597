//! The ZipLine *decode* switch program (Figure 2).
//!
//! Data-plane steps:
//!
//! 1. a compressed packet arrives carrying `identifier + syndrome` (➊); the
//!    identifier is looked up in the known-IDs table to recover the basis
//!    (➋). Uncompressed (type 2) packets skip this step — they carry the
//!    basis themselves (➌);
//! 2. the basis is zero-padded and fed through the same CRC extern as the
//!    encoder, regenerating the parity bits the encoder truncated (➍);
//! 3. the syndrome selects the single-bit mask from the same constant-entries
//!    table as the encoder (➎) and the mask is XORed over the reassembled
//!    codeword (➏), restoring the original chunk `B` bit-exactly (➐).
//!
//! The control-plane half answers install requests from the encoder's control
//! plane: it writes the `identifier → basis` mapping into the data-plane
//! table *first* and only then acknowledges, which is what lets the encoder
//! guarantee that every compressed packet is decompressible.

use crate::control::{ControlMessage, ETHERTYPE_ZIPLINE_CONTROL};
use crate::error::Result;
use crate::mask_table::SyndromeMaskTable;
use std::collections::HashMap;
use zipline_gd::bits::BitVec;
use zipline_gd::config::GdConfig;
use zipline_gd::hamming::HammingCode;
use zipline_gd::packet::{PacketType, ZipLinePayload};
use zipline_gd::stats::CompressionStats;
use zipline_net::ethernet::EthernetFrame;
use zipline_net::mac::MacAddress;
use zipline_net::sim::PortId;
use zipline_net::time::SimTime;
use zipline_switch::crc_extern::CrcExtern;
use zipline_switch::packet_ctx::PacketContext;
use zipline_switch::program::PipelineProgram;
use zipline_switch::table::ExactMatchTable;

/// What the decoder does with a compressed packet whose identifier is not in
/// its table (cannot happen under the two-phase install protocol, but the
/// program must behave sensibly under fault injection).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum UnknownIdPolicy {
    /// Forward the packet unchanged (still compressed) and count the failure.
    #[default]
    Forward,
    /// Drop the packet and count the failure.
    Drop,
}

/// Configuration of the decode program.
#[derive(Debug, Clone)]
pub struct DecoderConfig {
    /// GD parameters; must match the encoder's.
    pub gd: GdConfig,
    /// Number of payload bytes preceding the chunk that are carried verbatim.
    pub chunk_offset: usize,
    /// Port on which restored data packets leave towards the receiver.
    pub data_egress_port: PortId,
    /// Port of the out-of-band control channel towards the encoder's control
    /// plane.
    pub control_port: PortId,
    /// Source MAC used on control frames (acks).
    pub control_src: MacAddress,
    /// Destination MAC used on control frames.
    pub control_dst: MacAddress,
    /// EtherType written onto restored packets.
    pub restored_ethertype: u16,
    /// Behaviour on unknown identifiers.
    pub unknown_id_policy: UnknownIdPolicy,
    /// When false, the program forwards every packet untouched (the "No op"
    /// baseline of Figure 4).
    pub decompression_enabled: bool,
}

impl DecoderConfig {
    /// A two-port decoder with the paper's GD parameters: data ingress on
    /// port 0, data egress on port 1, control channel on port 2.
    pub fn paper_default() -> Self {
        Self {
            gd: GdConfig::paper_default(),
            chunk_offset: 0,
            data_egress_port: 1,
            control_port: 2,
            control_src: MacAddress::local(0xD0),
            control_dst: MacAddress::local(0xE0),
            restored_ethertype: zipline_net::ethernet::ETHERTYPE_IPV4,
            unknown_id_policy: UnknownIdPolicy::default(),
            decompression_enabled: true,
        }
    }
}

/// The ZipLine decode program.
pub struct ZipLineDecodeProgram {
    config: DecoderConfig,
    code: HammingCode,
    crc: CrcExtern,
    mask_table: SyndromeMaskTable,
    /// Known-IDs table: identifier → serialized basis.
    id_table: ExactMatchTable<u64, Vec<u8>>,
    /// Install sequence number of the live mapping per identifier, recorded
    /// from [`ControlMessage::InstallMapping`]. A remove only takes effect
    /// when it echoes this nonce, so a delayed remove for a recycled
    /// identifier cannot retire the newer install (mappings installed
    /// directly — snapshot or static preload — carry no nonce and accept any
    /// remove).
    install_nonces: HashMap<u64, u32>,
    counters: zipline_switch::counter::CounterArray,
    stats: CompressionStats,
    /// Recycled restored-payload buffer: each rewritten packet hands its new
    /// payload to the frame and takes the old frame's allocation back as the
    /// next scratch, so the output side of restoration allocates nothing in
    /// steady state. (The parse and codeword-reconstruction steps still
    /// build small owned `BitVec`s per packet.)
    payload_scratch: Vec<u8>,
    /// Reused bit buffer for reassembling `extra + body`.
    bits_scratch: BitVec,
}

/// Per-packet-type counter indices for the decoder.
pub mod counter_index {
    /// Packets forwarded unprocessed.
    pub const RAW: usize = 0;
    /// Type 2 packets restored to raw form.
    pub const RESTORED_FROM_UNCOMPRESSED: usize = 1;
    /// Type 3 packets restored to raw form.
    pub const RESTORED_FROM_COMPRESSED: usize = 2;
    /// Compressed packets whose identifier was unknown.
    pub const UNKNOWN_ID: usize = 3;
    /// In-band control frames consumed by the data-plane ingress.
    pub const CONTROL: usize = 4;
}

impl ZipLineDecodeProgram {
    /// Builds the program.
    pub fn new(config: DecoderConfig) -> Result<Self> {
        config.gd.validate()?;
        let code = HammingCode::new(config.gd.m)?;
        let crc_param = code.crc().spec().poly_low;
        let crc = CrcExtern::new("parity", config.gd.m, crc_param)?;
        let mask_table = SyndromeMaskTable::precompute(&code)?;
        let id_table = ExactMatchTable::new("id-to-basis", config.gd.dictionary_capacity())?;
        let counters = zipline_switch::counter::CounterArray::new("packet-types", 5)?;
        Ok(Self {
            config,
            code,
            crc,
            mask_table,
            id_table,
            install_nonces: HashMap::new(),
            counters,
            stats: CompressionStats::new(),
            payload_scratch: Vec::new(),
            bits_scratch: BitVec::new(),
        })
    }

    /// The program configuration.
    pub fn config(&self) -> &DecoderConfig {
        &self.config
    }

    /// Statistics accumulated so far.
    pub fn stats(&self) -> &CompressionStats {
        &self.stats
    }

    /// Per-packet-type counters (see [`counter_index`]).
    pub fn counters(&self) -> &zipline_switch::counter::CounterArray {
        &self.counters
    }

    /// Number of identifier → basis mappings currently installed.
    pub fn installed_mappings(&self) -> usize {
        self.id_table.len()
    }

    /// Installs an `identifier → basis` mapping directly (used for the
    /// static-table scenario and by tests; the dynamic path goes through the
    /// control channel).
    pub fn install_mapping(&mut self, id: u64, basis_bytes: Vec<u8>, now: SimTime) -> Result<()> {
        if self.id_table.peek(&id).is_some() {
            self.id_table.modify(&id, basis_bytes)?;
        } else {
            self.id_table.insert(id, basis_bytes, now)?;
        }
        // Direct installs are un-nonced; drop any stale sequence record.
        self.install_nonces.remove(&id);
        Ok(())
    }

    /// Applies one control message to the data-plane state, returning the
    /// acknowledgement to send back (if any). Shared by the out-of-band CPU
    /// port ([`Self::handle_control_packet`]) and the in-band path
    /// ([`Self::ingress`] on [`ETHERTYPE_ZIPLINE_CONTROL`] frames).
    fn apply_control(&mut self, message: ControlMessage, now: SimTime) -> Option<ControlMessage> {
        match message {
            ControlMessage::InstallMapping { id, nonce, basis } => {
                // Install first, acknowledge second: the encoder only starts
                // using the identifier once the ack arrives (out-of-band
                // two-phase), or — in-band — only emits the install ahead of
                // the frames that use it, so compressed packets always find
                // their mapping here.
                self.install_mapping(id, basis, now).ok()?;
                self.install_nonces.insert(id, nonce);
                Some(ControlMessage::MappingInstalled { id, nonce })
            }
            ControlMessage::RemoveMapping { id, nonce } => {
                // Install-sequence guard: a remove that does not echo the
                // live install's nonce is a delayed remove for an older
                // install of a since-recycled identifier — dropping it is
                // what keeps the newer mapping alive.
                let live = self.install_nonces.get(&id).copied();
                if live.is_none_or(|n| n == nonce) {
                    let _ = self.id_table.remove(&id);
                    self.install_nonces.remove(&id);
                }
                None
            }
            ControlMessage::MappingInstalled { .. } => None,
        }
    }

    /// Rebuilds the original chunk from a basis and deviation using the
    /// data-plane primitives (CRC extern + constant mask table).
    ///
    /// Word-parallel: the parity regeneration hashes the basis words
    /// directly and appends the `m` zero bits algebraically (no padded copy
    /// of the basis), and the ➎/➏ mask XOR collapses to a single-word bit
    /// flip via the table's position form.
    fn reconstruct(&mut self, basis: &BitVec, deviation: u64) -> Result<BitVec> {
        // ➍ regenerate the parity bits of the zero-padded basis.
        let reg = self.crc.hash_words(basis.words(), basis.len());
        let parity = self
            .crc
            .engine()
            .checksum_append_zeros(reg, self.code.m() as usize);
        // ➏ reassemble the codeword.
        let mut codeword = BitVec::with_capacity(self.code.n());
        codeword.push_bits(parity, self.code.m() as usize);
        codeword.extend_from_bitvec(basis);
        // ➎/➏ flip the bit selected by the deviation.
        let flip = self
            .mask_table
            .lookup_flip(deviation)
            .ok_or(zipline_gd::GdError::Malformed(format!(
                "deviation {deviation} out of range"
            )))?;
        if let Some(position) = flip {
            codeword.flip(position);
        }
        Ok(codeword)
    }

    /// Assembles the restored raw payload from its pieces into `out`,
    /// reusing the program's bit scratch — the decode-side sibling of
    /// [`zipline_gd::ZipLinePayload::encode_into`]. `out` is cleared first.
    fn restored_payload_into(
        &mut self,
        extra: &BitVec,
        body: &BitVec,
        zl_bytes: usize,
        payload: &[u8],
        out: &mut Vec<u8>,
    ) {
        let bits = &mut self.bits_scratch;
        bits.clear();
        bits.extend_from_bitvec(extra);
        bits.extend_from_bitvec(body);
        let rest = &payload[zl_bytes..];
        let prefix = &rest[..self.config.chunk_offset.min(rest.len())];
        let suffix = &rest[self.config.chunk_offset.min(rest.len())..];
        out.clear();
        out.reserve(prefix.len() + bits.len().div_ceil(8) + suffix.len());
        out.extend_from_slice(prefix);
        bits.append_bytes_to(out);
        out.extend_from_slice(suffix);
    }

    fn forward_raw(&mut self, ctx: &mut PacketContext) {
        self.counters
            .count(counter_index::RAW, ctx.frame.payload.len())
            .expect("counter index in range");
        self.stats.emitted_raw += 1;
        self.stats.bytes_in += ctx.frame.payload.len() as u64;
        self.stats.bytes_out += ctx.frame.payload.len() as u64;
        ctx.forward_to(self.config.data_egress_port);
    }
}

impl PipelineProgram for ZipLineDecodeProgram {
    fn name(&self) -> String {
        "zipline-decode".to_string()
    }

    fn ingress(&mut self, ctx: &mut PacketContext, now: SimTime) {
        // In-band control frames (the engine host path's live sync travels on
        // the data channel so installs stay ordered with the frames that need
        // them): apply, then turn the frame into its ack towards the control
        // port, or consume it. Handled even with decompression disabled — the
        // control plane is not part of the "No op" data-plane baseline.
        if ctx.frame.ethertype == ETHERTYPE_ZIPLINE_CONTROL {
            self.counters
                .count(counter_index::CONTROL, ctx.frame.payload.len())
                .expect("counter index in range");
            let Ok(message) = ControlMessage::from_frame(&ctx.frame) else {
                ctx.drop_packet();
                return;
            };
            match self.apply_control(message, now) {
                Some(ack) => {
                    ctx.frame = ack.to_frame(self.config.control_src, self.config.control_dst);
                    ctx.forward_to(self.config.control_port);
                }
                None => ctx.drop_packet(),
            }
            return;
        }
        if !self.config.decompression_enabled {
            self.forward_raw(ctx);
            return;
        }
        let packet_type = PacketType::from_ethertype(ctx.frame.ethertype);
        match packet_type {
            PacketType::Raw => {
                self.forward_raw(ctx);
            }
            PacketType::Uncompressed => {
                // No payload clone: the parse borrows the frame's payload and
                // produces owned fields, so the frame is only replaced after
                // all borrows end.
                let zl_bytes = self.config.gd.uncompressed_payload_bytes();
                let parsed =
                    ZipLinePayload::decode(&self.config.gd, packet_type, &ctx.frame.payload);
                let Ok(ZipLinePayload::Uncompressed {
                    deviation,
                    extra,
                    basis,
                }) = parsed
                else {
                    self.stats.decode_failures += 1;
                    self.forward_raw(ctx);
                    return;
                };
                self.stats.bytes_in += ctx.frame.payload.len() as u64;
                let Ok(body) = self.reconstruct(&basis, deviation) else {
                    self.stats.decode_failures += 1;
                    self.forward_raw(ctx);
                    return;
                };
                let mut restored = std::mem::take(&mut self.payload_scratch);
                self.restored_payload_into(
                    &extra,
                    &body,
                    zl_bytes,
                    &ctx.frame.payload,
                    &mut restored,
                );
                self.counters
                    .count(counter_index::RESTORED_FROM_UNCOMPRESSED, restored.len())
                    .expect("counter index in range");
                self.stats.chunks_decoded += 1;
                self.stats.emitted_raw += 1;
                self.stats.bytes_out += restored.len() as u64;
                // Recycle the replaced frame's payload as the next scratch.
                let new_frame = ctx
                    .frame
                    .with_payload(self.config.restored_ethertype, restored);
                self.payload_scratch = std::mem::replace(&mut ctx.frame, new_frame).payload;
                ctx.forward_to(self.config.data_egress_port);
            }
            PacketType::Compressed => {
                let zl_bytes = self.config.gd.compressed_payload_bytes();
                let parsed =
                    ZipLinePayload::decode(&self.config.gd, packet_type, &ctx.frame.payload);
                let Ok(ZipLinePayload::Compressed {
                    deviation,
                    extra,
                    id,
                }) = parsed
                else {
                    self.stats.decode_failures += 1;
                    self.forward_raw(ctx);
                    return;
                };
                self.stats.bytes_in += ctx.frame.payload.len() as u64;
                // ➋ identifier → basis lookup.
                let Some(basis_bytes) = self.id_table.lookup(&id, now) else {
                    self.stats.decode_failures += 1;
                    self.counters
                        .count(counter_index::UNKNOWN_ID, ctx.frame.payload.len())
                        .expect("counter index in range");
                    match self.config.unknown_id_policy {
                        UnknownIdPolicy::Forward => {
                            self.stats.bytes_out += ctx.frame.payload.len() as u64;
                            ctx.forward_to(self.config.data_egress_port);
                        }
                        UnknownIdPolicy::Drop => ctx.drop_packet(),
                    }
                    return;
                };
                let mut basis = BitVec::from_bytes(&basis_bytes);
                basis.truncate(self.config.gd.k());
                let Ok(body) = self.reconstruct(&basis, deviation) else {
                    self.stats.decode_failures += 1;
                    self.forward_raw(ctx);
                    return;
                };
                let mut restored = std::mem::take(&mut self.payload_scratch);
                self.restored_payload_into(
                    &extra,
                    &body,
                    zl_bytes,
                    &ctx.frame.payload,
                    &mut restored,
                );
                self.counters
                    .count(counter_index::RESTORED_FROM_COMPRESSED, restored.len())
                    .expect("counter index in range");
                self.stats.chunks_decoded += 1;
                self.stats.emitted_raw += 1;
                self.stats.bytes_out += restored.len() as u64;
                let new_frame = ctx
                    .frame
                    .with_payload(self.config.restored_ethertype, restored);
                self.payload_scratch = std::mem::replace(&mut ctx.frame, new_frame).payload;
                ctx.forward_to(self.config.data_egress_port);
            }
        }
    }

    fn handle_control_packet(
        &mut self,
        frame: EthernetFrame,
        now: SimTime,
    ) -> Vec<(PortId, EthernetFrame)> {
        let Ok(message) = ControlMessage::from_frame(&frame) else {
            return Vec::new();
        };
        match self.apply_control(message, now) {
            Some(ack) => vec![(
                self.config.control_port,
                ack.to_frame(self.config.control_src, self.config.control_dst),
            )],
            None => Vec::new(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::encoder::{EncoderConfig, ZipLineEncodeProgram};
    use zipline_gd::packet::{ETHERTYPE_ZIPLINE_COMPRESSED, ETHERTYPE_ZIPLINE_UNCOMPRESSED};
    use zipline_net::ethernet::ETHERTYPE_IPV4;

    fn frame_with(ethertype: u16, payload: Vec<u8>) -> EthernetFrame {
        EthernetFrame::new(
            MacAddress::local(2),
            MacAddress::local(1),
            ethertype,
            payload,
        )
    }

    /// Runs a payload through the encoder program and returns the resulting
    /// frame (and any digest it emitted).
    fn encode_one(
        encoder: &mut ZipLineEncodeProgram,
        payload: Vec<u8>,
        now: SimTime,
    ) -> (EthernetFrame, Vec<zipline_switch::packet_ctx::Digest>) {
        let mut ctx = PacketContext::new(0, frame_with(ETHERTYPE_IPV4, payload));
        encoder.ingress(&mut ctx, now);
        (ctx.frame.clone(), ctx.digests)
    }

    #[test]
    fn type2_packets_are_restored_byte_exactly() {
        let mut encoder = ZipLineEncodeProgram::new(EncoderConfig::paper_default()).unwrap();
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        for seed in 0..20u8 {
            let payload: Vec<u8> = (0..32u8)
                .map(|i| i.wrapping_mul(7).wrapping_add(seed))
                .collect();
            let (encoded, _) = encode_one(&mut encoder, payload.clone(), SimTime::ZERO);
            assert_eq!(encoded.ethertype, ETHERTYPE_ZIPLINE_UNCOMPRESSED);
            let mut ctx = PacketContext::new(0, encoded);
            decoder.ingress(&mut ctx, SimTime::ZERO);
            assert_eq!(ctx.frame.ethertype, ETHERTYPE_IPV4);
            assert_eq!(ctx.frame.payload, payload, "seed {seed}");
            assert_eq!(ctx.egress_port, Some(1));
        }
        assert_eq!(decoder.stats().chunks_decoded, 20);
        assert_eq!(decoder.stats().decode_failures, 0);
    }

    #[test]
    fn type3_packets_are_restored_after_mapping_install() {
        let mut encoder = ZipLineEncodeProgram::new(EncoderConfig::paper_default()).unwrap();
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        let payload = vec![0x3Cu8; 32];

        // Learn the basis through the full control-channel exchange.
        let (_, digests) = encode_one(&mut encoder, payload.clone(), SimTime::ZERO);
        let installs = encoder.handle_digest(digests[0].clone(), SimTime::from_micros(900));
        let (_, install_frame) = &installs[0];
        let acks = decoder.handle_control_packet(install_frame.clone(), SimTime::from_micros(1800));
        assert_eq!(acks.len(), 1);
        assert_eq!(decoder.installed_mappings(), 1);
        encoder.handle_control_packet(acks[0].1.clone(), SimTime::from_micros(2700));

        // Now the encoder compresses and the decoder restores byte-exactly.
        let (encoded, _) = encode_one(&mut encoder, payload.clone(), SimTime::from_millis(3));
        assert_eq!(encoded.ethertype, ETHERTYPE_ZIPLINE_COMPRESSED);
        assert_eq!(encoded.payload.len(), 3);
        let mut ctx = PacketContext::new(0, encoded);
        decoder.ingress(&mut ctx, SimTime::from_millis(3));
        assert_eq!(ctx.frame.payload, payload);
        assert_eq!(
            decoder
                .counters()
                .read(counter_index::RESTORED_FROM_COMPRESSED)
                .unwrap()
                .packets,
            1
        );
    }

    #[test]
    fn unknown_identifier_follows_the_configured_policy() {
        // Forward policy (default).
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        let bogus = frame_with(ETHERTYPE_ZIPLINE_COMPRESSED, vec![0x00, 0x00, 0x07]);
        let mut ctx = PacketContext::new(0, bogus.clone());
        decoder.ingress(&mut ctx, SimTime::ZERO);
        assert_eq!(
            ctx.frame.ethertype, ETHERTYPE_ZIPLINE_COMPRESSED,
            "forwarded unchanged"
        );
        assert_eq!(decoder.stats().decode_failures, 1);

        // Drop policy.
        let config = DecoderConfig {
            unknown_id_policy: UnknownIdPolicy::Drop,
            ..DecoderConfig::paper_default()
        };
        let mut decoder = ZipLineDecodeProgram::new(config).unwrap();
        let mut ctx = PacketContext::new(0, bogus);
        decoder.ingress(&mut ctx, SimTime::ZERO);
        assert!(ctx.dropped);
        assert_eq!(
            decoder
                .counters()
                .read(counter_index::UNKNOWN_ID)
                .unwrap()
                .packets,
            1
        );
    }

    #[test]
    fn malformed_processed_packets_fail_gracefully() {
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        // A type 2 frame far too short to carry a basis.
        let frame = frame_with(ETHERTYPE_ZIPLINE_UNCOMPRESSED, vec![1, 2, 3]);
        let mut ctx = PacketContext::new(0, frame);
        decoder.ingress(&mut ctx, SimTime::ZERO);
        assert_eq!(decoder.stats().decode_failures, 1);
        assert!(ctx.has_verdict());
    }

    #[test]
    fn raw_packets_pass_through() {
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        let frame = frame_with(ETHERTYPE_IPV4, vec![9; 64]);
        let mut ctx = PacketContext::new(0, frame.clone());
        decoder.ingress(&mut ctx, SimTime::ZERO);
        assert_eq!(ctx.frame, frame);
        assert_eq!(
            decoder.counters().read(counter_index::RAW).unwrap().packets,
            1
        );
    }

    #[test]
    fn disabled_decompression_forwards_everything() {
        let config = DecoderConfig {
            decompression_enabled: false,
            ..DecoderConfig::paper_default()
        };
        let mut decoder = ZipLineDecodeProgram::new(config).unwrap();
        let frame = frame_with(ETHERTYPE_ZIPLINE_UNCOMPRESSED, vec![0; 33]);
        let mut ctx = PacketContext::new(0, frame.clone());
        decoder.ingress(&mut ctx, SimTime::ZERO);
        assert_eq!(ctx.frame, frame);
    }

    #[test]
    fn chunk_offset_round_trips_prefix_and_suffix() {
        let enc_config = EncoderConfig {
            chunk_offset: 2,
            ..EncoderConfig::paper_default()
        };
        let dec_config = DecoderConfig {
            chunk_offset: 2,
            ..DecoderConfig::paper_default()
        };
        let mut encoder = ZipLineEncodeProgram::new(enc_config).unwrap();
        let mut decoder = ZipLineDecodeProgram::new(dec_config).unwrap();

        let mut payload = vec![0xAA, 0xBB];
        payload.extend_from_slice(&[0x77; 32]);
        payload.extend_from_slice(&[1, 2, 3, 4]);

        let (encoded, _) = encode_one(&mut encoder, payload.clone(), SimTime::ZERO);
        let mut ctx = PacketContext::new(0, encoded);
        decoder.ingress(&mut ctx, SimTime::ZERO);
        assert_eq!(ctx.frame.payload, payload);
    }

    #[test]
    fn remove_mapping_control_message_uninstalls() {
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        decoder
            .install_mapping(5, vec![0xAB; 31], SimTime::ZERO)
            .unwrap();
        assert_eq!(decoder.installed_mappings(), 1);
        // Direct installs carry no nonce, so any remove retires them.
        let remove = ControlMessage::RemoveMapping { id: 5, nonce: 9 }
            .to_frame(MacAddress::local(1), MacAddress::local(2));
        decoder.handle_control_packet(remove, SimTime::ZERO);
        assert_eq!(decoder.installed_mappings(), 0);
        // Installing twice overwrites rather than erroring.
        decoder
            .install_mapping(6, vec![1; 31], SimTime::ZERO)
            .unwrap();
        decoder
            .install_mapping(6, vec![2; 31], SimTime::ZERO)
            .unwrap();
        assert_eq!(decoder.installed_mappings(), 1);
    }

    #[test]
    fn delayed_remove_cannot_retire_a_recycled_identifier() {
        // The stale-remove race: install(id, n0) … remove(id, n0) delayed …
        // install(id, n1) recycles the identifier; the late remove must not
        // take down the newer mapping.
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        let src = MacAddress::local(1);
        let dst = MacAddress::local(2);
        let install = |nonce: u32, fill: u8| {
            ControlMessage::InstallMapping {
                id: 5,
                nonce,
                basis: vec![fill; 31],
            }
            .to_frame(src, dst)
        };
        decoder.handle_control_packet(install(0, 0xAA), SimTime::ZERO);
        decoder.handle_control_packet(install(1, 0xBB), SimTime::ZERO);
        // The remove for the first install arrives reordered, after the
        // recycling install — ignored.
        let stale = ControlMessage::RemoveMapping { id: 5, nonce: 0 }.to_frame(src, dst);
        decoder.handle_control_packet(stale, SimTime::ZERO);
        assert_eq!(decoder.installed_mappings(), 1, "newer install survives");
        // The remove echoing the live nonce does retire it.
        let live = ControlMessage::RemoveMapping { id: 5, nonce: 1 }.to_frame(src, dst);
        decoder.handle_control_packet(live, SimTime::ZERO);
        assert_eq!(decoder.installed_mappings(), 0);
    }

    #[test]
    fn in_band_control_frames_install_and_ack_through_ingress() {
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        let install = ControlMessage::InstallMapping {
            id: 11,
            nonce: 4,
            basis: vec![0x5A; 31],
        }
        .to_frame(MacAddress::local(1), MacAddress::local(2));
        let mut ctx = PacketContext::new(0, install);
        decoder.ingress(&mut ctx, SimTime::ZERO);
        assert_eq!(decoder.installed_mappings(), 1);
        // The frame was turned into the ack and sent towards the control
        // port, not the data egress.
        assert_eq!(ctx.egress_port, Some(decoder.config().control_port));
        assert_eq!(
            ControlMessage::from_frame(&ctx.frame).unwrap(),
            ControlMessage::MappingInstalled { id: 11, nonce: 4 }
        );
        // An in-band remove is consumed without output.
        let remove = ControlMessage::RemoveMapping { id: 11, nonce: 4 }
            .to_frame(MacAddress::local(1), MacAddress::local(2));
        let mut ctx = PacketContext::new(0, remove);
        decoder.ingress(&mut ctx, SimTime::ZERO);
        assert!(ctx.dropped);
        assert_eq!(decoder.installed_mappings(), 0);
        assert_eq!(
            decoder
                .counters()
                .read(counter_index::CONTROL)
                .unwrap()
                .packets,
            2
        );
    }

    #[test]
    fn non_control_frames_on_control_path_are_ignored() {
        let mut decoder = ZipLineDecodeProgram::new(DecoderConfig::paper_default()).unwrap();
        let frame = frame_with(ETHERTYPE_IPV4, vec![1, 2, 3]);
        assert!(decoder
            .handle_control_packet(frame, SimTime::ZERO)
            .is_empty());
    }
}
