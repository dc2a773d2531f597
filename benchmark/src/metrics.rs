//! The metric tables: what the benchmark reports, in which unit, which way
//! is better, and — for end-to-end metrics — by what share of the parent's
//! median a change may worsen them. `BENCHMARK.json` is generated from
//! these tables (`manifest` subcommand), so the two cannot drift apart.

use crate::ladder::RUNGS;

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: &'static str,
    /// Regression bound, from the noise table in `README.md`: at least
    /// twice the widest quartile spread seen on any workload in any set of
    /// ten runs, at most the contract's 0.25.
    pub bound: f64,
}

pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "ingest_mbps",
        unit: "MB/s",
        better: "higher",
        bound: 0.25,
    },
    EndToEnd {
        name: "restore_mbps",
        unit: "MB/s",
        better: "higher",
        bound: 0.20,
    },
    EndToEnd {
        name: "burst_p50_us",
        unit: "us",
        better: "lower",
        bound: 0.25,
    },
    EndToEnd {
        name: "wire_ratio",
        unit: "x",
        better: "higher",
        bound: 0.005,
    },
    EndToEnd {
        name: "sut_cpu_ms_per_mib",
        unit: "ms/MiB",
        better: "lower",
        bound: 0.20,
    },
    EndToEnd {
        name: "sut_peak_rss_mib",
        unit: "MiB",
        better: "lower",
        bound: 0.15,
    },
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: "lower",
        bound: 0.25,
    },
];

pub struct PerLayer {
    pub name: String,
    pub unit: &'static str,
    pub better: &'static str,
}

/// Every per-layer metric of the traced run, in report order.
pub fn per_layer() -> Vec<PerLayer> {
    let entry = |name: &str, unit: &'static str, better: &'static str| PerLayer {
        name: name.to_string(),
        unit,
        better,
    };
    let mut table = Vec::new();
    for (i, rung) in RUNGS.iter().enumerate() {
        table.push(entry(&format!("{rung}.ns_per_byte"), "ns/B", "lower"));
        if i > 0 {
            table.push(entry(&format!("{rung}.tax"), "x", "lower"));
        }
    }
    for name in [
        "gd.decompress_batch",
        "engine.decompress",
        "deflate.compress",
        "deflate.inflate",
        "engine.registry",
        "host.frames",
    ] {
        table.push(entry(&format!("{name}.ns_per_byte"), "ns/B", "lower"));
    }
    for name in ["switch.noop", "switch.encode", "switch.decode"] {
        table.push(entry(&format!("{name}.ns_per_packet"), "ns/pkt", "lower"));
    }
    table.extend([
        entry("gd.dict_hit_share", "share", "higher"),
        entry("gd.evictions_per_mib", "1/MiB", "lower"),
        entry("engine.control_updates_per_mib", "1/MiB", "lower"),
        entry("engine.registry.codec_switches", "count", "lower"),
        entry("engine.registry.deflate_batch_share", "share", "lower"),
        entry("engine.tenant.open_flow_us", "us", "lower"),
        entry("engine.persist.journal_bytes_per_wire_byte", "B/B", "lower"),
        entry("engine.persist.files_per_flow", "count", "lower"),
        entry("server.socket_bytes_per_wire_byte", "B/B", "lower"),
        entry("server.ctx_switches_per_mib", "1/MiB", "lower"),
        entry("server.threads", "count", "lower"),
        entry("client.send.ns_per_record", "ns", "lower"),
        entry("client.wait_share", "share", "lower"),
        entry("client.events_per_record", "count", "lower"),
        entry("paced.p90_us", "us", "lower"),
        entry("paced.p99_us", "us", "lower"),
        entry("paced.late_share", "share", "lower"),
        entry("trace.overhead_share", "share", "lower"),
    ]);
    table
}
