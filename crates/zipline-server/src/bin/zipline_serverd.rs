//! `zipline-serverd` — the standalone ingest server.
//!
//! Binds the configured endpoint, serves until standard input closes (EOF,
//! `Ctrl-D`, or the supervisor closing the pipe), then shuts down
//! gracefully: in-flight streams drain, commit and receive `DONE` before
//! the process exits. Final counters go to standard error.
//!
//! ```text
//! zipline-serverd [--listen tcp://127.0.0.1:7641 | unix://PATH]
//!                 [--backend gd|deflate|hybrid|auto]
//!                 [--durable DIR] [--sync data]
//!                 [--batch-chunks N] [--pipeline-depth N]
//!                 [--writer-depth N] [--checkpoint-cadence N]
//! ```
//!
//! `--checkpoint-cadence` is accepted and stored, but no stream consults
//! it: each batch commits without a checkpoint and a finished flow compacts
//! its store to one.

use std::io::Read;
use std::process::ExitCode;

use zipline::host::HostPathConfig;
use zipline_engine::SyncPolicy;
use zipline_server::{BackendChoice, Endpoint, ServerConfig, ServerConfigBuilder, ServerHandle};

fn usage() -> ! {
    eprintln!(
        "usage: zipline-serverd [--listen ENDPOINT] [--backend gd|deflate|hybrid|auto]\n\
         \x20                      [--durable DIR] [--sync data|flush]\n\
         \x20                      [--batch-chunks N] [--pipeline-depth N]\n\
         \x20                      [--writer-depth N] [--checkpoint-cadence N]\n\
         ENDPOINT is tcp://host:port, unix://path or a bare host:port.\n\
         --checkpoint-cadence is accepted but no stream consults it: batches\n\
         commit without checkpoints and a finished flow compacts to one.\n\
         Serves until standard input closes, then shuts down gracefully."
    );
    std::process::exit(2);
}

struct Args {
    listen: String,
    config: ServerConfig,
}

fn parse_args() -> Args {
    let mut listen = "tcp://127.0.0.1:7641".to_string();
    let mut host = HostPathConfig::paper_default();
    let mut writer_depth = 256usize;
    let mut backend = BackendChoice::Gd;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let mut value = |flag: &str| args.next().unwrap_or_else(|| usage_for(flag));
        match flag.as_str() {
            "--listen" => listen = value("--listen"),
            "--backend" => {
                let name = value("--backend");
                backend = BackendChoice::parse_name(&name).unwrap_or_else(|| {
                    eprintln!("unknown backend {name:?} (expected gd, deflate, hybrid or auto)");
                    usage();
                })
            }
            "--durable" => host.durable = Some(value("--durable").into()),
            "--sync" => {
                host.sync = match value("--sync").as_str() {
                    "data" => SyncPolicy::Data,
                    "flush" => SyncPolicy::Flush,
                    other => {
                        eprintln!("unknown sync policy {other:?} (expected data or flush)");
                        usage();
                    }
                }
            }
            "--batch-chunks" => host.batch_chunks = numeric(&value("--batch-chunks")),
            "--pipeline-depth" => host.pipeline_depth = Some(numeric(&value("--pipeline-depth"))),
            "--checkpoint-cadence" => {
                host.checkpoint_cadence = numeric::<u64>(&value("--checkpoint-cadence"))
            }
            "--writer-depth" => writer_depth = numeric(&value("--writer-depth")),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other:?}");
                usage();
            }
        }
    }
    let config = ServerConfigBuilder::new()
        .host(host)
        .writer_depth(writer_depth)
        .backend(backend)
        .build()
        .unwrap_or_else(|e| {
            eprintln!("zipline-serverd: {e}");
            std::process::exit(2);
        });
    Args { listen, config }
}

fn usage_for(flag: &str) -> String {
    eprintln!("{flag} needs a value");
    usage();
}

fn numeric<T: std::str::FromStr>(s: &str) -> T {
    s.parse().unwrap_or_else(|_| {
        eprintln!("{s:?} is not a valid number");
        usage();
    })
}

fn main() -> ExitCode {
    let args = parse_args();
    let endpoint = match Endpoint::parse(&args.listen) {
        Ok(endpoint) => endpoint,
        Err(e) => {
            eprintln!("zipline-serverd: {e}");
            return ExitCode::from(2);
        }
    };
    let handle = match endpoint {
        Endpoint::Tcp(addr) => ServerHandle::bind_tcp(addr, args.config),
        #[cfg(unix)]
        Endpoint::Unix(path) => ServerHandle::bind_uds(path, args.config),
    };
    let handle = match handle {
        Ok(handle) => handle,
        Err(e) => {
            eprintln!("zipline-serverd: {e}");
            return ExitCode::FAILURE;
        }
    };
    eprintln!("zipline-serverd: listening on {}", handle.endpoint());

    // Serve until standard input closes — the no-dependency stand-in for
    // signal handling that works identically under a supervisor, a test
    // harness and an interactive shell.
    let mut sink = [0u8; 256];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}

    eprintln!("zipline-serverd: stdin closed, shutting down gracefully");
    let report = handle.shutdown();
    let stats = report.stats;
    eprintln!(
        "zipline-serverd: {} connections, {} streams completed, {} failed",
        stats.connections, stats.streams_completed, stats.failed_streams
    );
    eprintln!(
        "zipline-serverd: {} records / {} bytes in, {} payloads / {} controls / {} bytes out, {} replayed",
        stats.records_in,
        stats.bytes_in,
        stats.payloads_out,
        stats.controls_out,
        stats.bytes_out,
        stats.replayed_entries
    );
    for error in &report.errors {
        eprintln!("zipline-serverd: stream error: {error}");
    }
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
