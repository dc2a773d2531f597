//! The system under test as a child process: this executable re-run in
//! `serve` mode, which does only what `zipline-serverd` does — build a
//! `ServerConfig`, bind, serve until standard input closes, shut down.

use std::io::{BufRead, BufReader, Read, Write};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, ExitCode, Stdio};

use zipline_engine::SyncPolicy;
use zipline_server::{BackendChoice, Endpoint, ServerConfig, ServerConfigBuilder, ServerHandle};

use crate::spec::{host_config, Transport, Workload};

/// Directory the benchmark writes into: sockets, journals, trace files.
pub fn out_dir() -> PathBuf {
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    // A path relative to the working directory keeps Unix socket paths
    // under the 108-byte limit however deep the checkout sits.
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

/// Server configuration of the system under test: fixed engine shape (see
/// [`crate::spec`]), and for the durable workload a journal per flow with a
/// checkpoint cadence of one. Commits are flushed to the page cache
/// ([`SyncPolicy::Flush`]): the store must live inside the checkout, and
/// with `fdatasync` the sandbox's virtual disk, not `persist.rs`, set the
/// figure (it varied twofold between runs).
pub fn server_config(
    backend: BackendChoice,
    store_root: Option<&Path>,
) -> Result<ServerConfig, String> {
    let mut builder = ServerConfigBuilder::new()
        .host(host_config())
        .backend(backend);
    if let Some(root) = store_root {
        builder = builder
            .store_root(root)
            .sync(SyncPolicy::Flush)
            .checkpoint_cadence(1);
    }
    builder.build().map_err(crate::err)
}

/// `serve --listen ENDPOINT --backend NAME [--durable DIR]`: the child side.
pub fn serve(args: &[String]) -> ExitCode {
    let mut listen = None;
    let mut backend = BackendChoice::Gd;
    let mut durable: Option<PathBuf> = None;
    let mut args = args.iter();
    while let Some(flag) = args.next() {
        let value = args.next().map(String::as_str);
        match (flag.as_str(), value) {
            ("--listen", Some(v)) => listen = Some(v.to_string()),
            ("--backend", Some(v)) => match BackendChoice::parse_name(v) {
                Some(choice) => backend = choice,
                None => return fail(&format!("unknown backend {v:?}")),
            },
            ("--durable", Some(v)) => durable = Some(v.into()),
            _ => return fail(&format!("bad serve argument {flag:?}")),
        }
    }
    let Some(listen) = listen else {
        return fail("serve needs --listen");
    };
    // Before any thread exists, so every thread of the server inherits it.
    crate::affinity::pin_current_thread(crate::affinity::sut_cpu());
    let bound = Endpoint::parse(&listen)
        .map_err(crate::err)
        .and_then(|endpoint| {
            let config = server_config(backend, durable.as_deref())?;
            match endpoint {
                Endpoint::Tcp(addr) => ServerHandle::bind_tcp(addr, config),
                Endpoint::Unix(path) => ServerHandle::bind_uds(path, config),
            }
            .map_err(crate::err)
        });
    let handle = match bound {
        Ok(handle) => handle,
        Err(e) => return fail(&e),
    };
    println!("listening {}", handle.endpoint());
    if std::io::stdout().flush().is_err() {
        return ExitCode::FAILURE;
    }

    let mut sink = [0u8; 64];
    let mut stdin = std::io::stdin().lock();
    while matches!(stdin.read(&mut sink), Ok(n) if n > 0) {}

    let report = handle.shutdown();
    for error in &report.errors {
        eprintln!("sut: stream error: {error}");
    }
    println!(
        "failures {}",
        report.errors.len() as u64 + report.stats.failed_streams
    );
    if report.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn fail(message: &str) -> ExitCode {
    eprintln!("sut: {message}");
    ExitCode::FAILURE
}

/// A running child system under test.
pub struct Sut {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub endpoint: Endpoint,
}

impl Sut {
    /// Spawns the child for `workload` and waits until it listens. `tag`
    /// makes the socket and store paths of concurrent runs distinct.
    pub fn spawn(workload: &Workload, tag: &str) -> Result<Self, String> {
        let out = out_dir();
        let listen = match workload.transport {
            Transport::Tcp => "tcp://127.0.0.1:0".to_string(),
            Transport::Uds => format!("unix://{}", out.join(format!("{tag}.sock")).display()),
            Transport::InProcess => return Err("in-process workload has no child".into()),
        };
        let exe = std::env::current_exe().map_err(|e| format!("locating own executable: {e}"))?;
        let mut command = Command::new(exe);
        command
            .args([
                "serve",
                "--listen",
                &listen,
                "--backend",
                workload.backend.name(),
            ])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped());
        if workload.durable {
            command.arg("--durable").arg(store_root(tag));
        }
        let mut child = command
            .spawn()
            .map_err(|e| format!("spawning the SUT: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut line = String::new();
        let endpoint = stdout
            .read_line(&mut line)
            .map_err(crate::err)
            .and_then(|_| {
                let spec = line
                    .trim()
                    .strip_prefix("listening ")
                    .ok_or_else(|| format!("SUT did not start (said {line:?})"))?;
                Endpoint::parse(spec).map_err(crate::err)
            });
        match endpoint {
            Ok(endpoint) => Ok(Self {
                child,
                stdout,
                endpoint,
            }),
            Err(e) => {
                drop(child.kill());
                drop(child.wait());
                Err(e)
            }
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// Closes the child's standard input (its signal to shut down
    /// gracefully) and waits for it to end. Returns how many streams the
    /// server reported as failed, plus one for an unclean exit.
    pub fn stop(mut self) -> Result<u64, String> {
        drop(self.child.stdin.take());
        let mut line = String::new();
        let read = self.stdout.read_line(&mut line);
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the SUT: {e}"))?;
        read.map_err(|e| format!("reading the SUT's failure count: {e}"))?;
        let failures: u64 = line
            .trim()
            .strip_prefix("failures ")
            .and_then(|count| count.parse().ok())
            .ok_or_else(|| {
                format!("SUT ended ({status}) without a failure count (said {line:?})")
            })?;
        Ok(failures + u64::from(!status.success()))
    }
}

impl Drop for Sut {
    /// A child still alive here was abandoned on an error path: make sure
    /// no process outlives the benchmark.
    fn drop(&mut self) {
        if matches!(self.child.try_wait(), Ok(None)) {
            drop(self.child.kill());
            drop(self.child.wait());
        }
    }
}

/// Store root of a durable system under test.
pub fn store_root(tag: &str) -> PathBuf {
    out_dir().join(format!("{tag}.store"))
}
