//! The ingest server: accept loop, the per-connection shell around a
//! [`Session`], the ordered response writer, and graceful shutdown.
//!
//! # Connection lifecycle
//!
//! Every accepted connection is served the same way: a handler thread reads
//! wire records off the socket and feeds them, one at a time, to a
//! sans-I/O [`Session`] — the protocol state machine, documented in
//! [`crate::session`] — and hands the frames it answers with to the
//! **ordered writer** (below). A session carries any number of
//! tenant-scoped flows; a classic single-stream client is simply a session
//! with one flow, tenant 0's `(0, stream_id)`. Flow keys live in one
//! server-wide active set, so a flow is served by at most one connection
//! at a time.
//!
//! # Ordered writer and backpressure
//!
//! Each connection owns one writer thread fed by a bounded
//! [`sync_channel`](std::sync::mpsc::sync_channel) of response bursts — the
//! frames one input record provoked, back to back in one buffer
//! ([`ServerConfig::writer_depth`] bursts deep). Bursts enter the channel in
//! emission order from a single producer (the session runs on the handler
//! thread), so responses are **totally ordered** — a control update
//! always reaches the socket before the payload that depends on it. When
//! the client stops reading, the channel fills and sends block, which in
//! turn blocks the reader loop: backpressure propagates to the client's
//! sender instead of buffering unboundedly. A dead client (write failure)
//! trips the writer's failure flag; the handler notices after the next
//! record and abandons the session instead of compressing into the void.
//!
//! # Shutdown semantics
//!
//! [`ServerHandle::shutdown`] is **graceful**: the listener stops accepting,
//! each connection's read half closes, and every in-flight session finishes
//! exactly as if the client had sent `END` — in-flight batches drain,
//! the tails commit, every open flow gets its `FLOW_DONE` and the session
//! its `DONE` (with `server_initiated = true`). [`ServerHandle::abort`] is
//! a **crash**: sockets close both ways and sessions drop without finishing
//! — durable state cuts at the last commit boundary, which is precisely the
//! state a killed process leaves behind, so tests use it to exercise warm
//! restarts.

use std::io::Write;
use std::net::ToSocketAddrs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TryRecvError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

use zipline::host::HostPathConfig;
use zipline_engine::tenant::{flow_dir, FlowKey};
use zipline_engine::{
    AutoBackend, CompressionBackend, DeflateBackend, GdBackend, HybridGdDeflateBackend, SyncPolicy,
};

use crate::error::{ServerError, ServerResult};
use crate::net::{Conn, Endpoint, Listener};
use crate::session::{lock_unpoisoned, Session, SessionRegistry, StatsSnapshot};
use crate::wire::{Record, RecordReader, WireCodec, WireError};

/// Which compression backend the server builds for every stream, selected
/// by name from the codec registry (plus the `auto` router, which has no
/// registry id of its own — it routes each batch to a registered codec).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum BackendChoice {
    /// Generalized deduplication (the paper's engine); registry id 1.
    #[default]
    Gd,
    /// Plain DEFLATE/gzip batches; registry id 2.
    Deflate,
    /// GD first, gzip the residue — one container per batch; registry id 4.
    Hybrid,
    /// Per-batch sampling router over GD and deflate; every payload carries
    /// the codec id that compressed its batch.
    Auto,
}

impl BackendChoice {
    /// Parses a backend name as accepted by `--backend` (`gd`, `deflate`,
    /// `hybrid`, `auto`).
    pub fn parse_name(name: &str) -> Option<Self> {
        match name {
            "gd" => Some(Self::Gd),
            "deflate" => Some(Self::Deflate),
            "hybrid" => Some(Self::Hybrid),
            "auto" => Some(Self::Auto),
            _ => None,
        }
    }

    /// The canonical name (`parse_name`'s inverse).
    pub fn name(self) -> &'static str {
        match self {
            Self::Gd => "gd",
            Self::Deflate => "deflate",
            Self::Hybrid => "hybrid",
            Self::Auto => "auto",
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Server configuration: the host-path shape every stream engine is built
/// from, the backend choice, and the response writer's depth.
///
/// Build one with [`ServerConfigBuilder`] (validated) or the
/// [`Self::paper_default`]/[`Self::durable`] shorthands.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Engine/host configuration applied to every flow. When
    /// [`HostPathConfig::durable`] is set it names the *root* directory;
    /// each flow journals under `tenant-<id16>/stream-<id16>` below it. A `None`
    /// [`HostPathConfig::pipeline_depth`] is promoted to `Some(2)` — the
    /// server path is pipelined by construction.
    pub host: HostPathConfig,
    /// Bound of the per-connection ordered writer, in response bursts (the
    /// frames one input record provoked).
    pub writer_depth: usize,
    /// Backend every stream engine is built over.
    pub backend: BackendChoice,
}

impl ServerConfig {
    /// Paper-default host path, pipelined at depth 2, 256-record writer,
    /// GD backend.
    pub fn paper_default() -> Self {
        // Defaults are valid by construction — no need for the fallible
        // `build` (which exists to catch caller-supplied zeroes).
        ServerConfigBuilder::new().finish_unchecked()
    }

    /// Paper defaults with a durable store rooted at `dir`.
    pub fn durable(dir: impl Into<PathBuf>) -> Self {
        ServerConfigBuilder::new()
            .store_root(dir)
            .finish_unchecked()
    }
}

/// Validated builder for [`ServerConfig`], mirroring the engine's builder
/// idiom: every knob is named, and `build` rejects nonsensical values with
/// a typed error instead of letting them fail deep inside a handler.
#[derive(Debug, Clone)]
pub struct ServerConfigBuilder {
    host: HostPathConfig,
    writer_depth: usize,
    backend: BackendChoice,
}

impl Default for ServerConfigBuilder {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerConfigBuilder {
    /// Paper-default host path, 256-record writer, GD backend.
    pub fn new() -> Self {
        Self {
            host: HostPathConfig::paper_default(),
            writer_depth: 256,
            backend: BackendChoice::Gd,
        }
    }

    /// Replaces the whole host configuration (the other host knobs below
    /// then mutate this value).
    pub fn host(mut self, host: HostPathConfig) -> Self {
        self.host = host;
        self
    }

    /// Roots a durable store at `dir`; each stream journals below it.
    pub fn store_root(mut self, dir: impl Into<PathBuf>) -> Self {
        self.host.durable = Some(dir.into());
        self
    }

    /// Chunks per compression batch.
    pub fn batch_chunks(mut self, chunks: usize) -> Self {
        self.host.batch_chunks = chunks;
        self
    }

    /// In-flight batch bound of each stream's pipeline.
    pub fn pipeline_depth(mut self, depth: usize) -> Self {
        self.host.pipeline_depth = Some(depth);
        self
    }

    /// Sets [`HostPathConfig::checkpoint_cadence`]. No stream consults it:
    /// each batch commits without a checkpoint and a finished flow compacts
    /// its store to one.
    pub fn checkpoint_cadence(mut self, cadence: u64) -> Self {
        self.host.checkpoint_cadence = cadence;
        self
    }

    /// Durability barrier of the store's commits.
    pub fn sync(mut self, sync: SyncPolicy) -> Self {
        self.host.sync = sync;
        self
    }

    /// Bound of the per-connection ordered writer, in response bursts.
    pub fn writer_depth(mut self, depth: usize) -> Self {
        self.writer_depth = depth;
        self
    }

    /// Backend every stream engine is built over.
    pub fn backend(mut self, backend: BackendChoice) -> Self {
        self.backend = backend;
        self
    }

    /// Validates and produces the configuration.
    pub fn build(self) -> ServerResult<ServerConfig> {
        if self.writer_depth == 0 {
            return Err(ServerError::Config(
                "writer_depth must be at least 1".into(),
            ));
        }
        if self.host.batch_chunks == 0 {
            return Err(ServerError::Config(
                "batch_chunks must be at least 1".into(),
            ));
        }
        if self.host.pipeline_depth == Some(0) {
            return Err(ServerError::Config(
                "pipeline_depth must be at least 1".into(),
            ));
        }
        Ok(self.finish_unchecked())
    }

    fn finish_unchecked(mut self) -> ServerConfig {
        if self.host.pipeline_depth.is_none() {
            self.host.pipeline_depth = Some(2);
        }
        ServerConfig {
            host: self.host,
            writer_depth: self.writer_depth,
            backend: self.backend,
        }
    }
}

/// Durable directory of the classic stream `stream_id` under the configured
/// root: tenant 0's flow of that id in the tenant-scoped layout.
pub fn stream_dir(root: &Path, stream_id: u64) -> PathBuf {
    flow_dir(root, FlowKey::new(0, stream_id))
}

/// State shared between the accept loop, the handlers and the handle.
struct Shared {
    config: ServerConfig,
    stop: AtomicBool,
    abort: AtomicBool,
    registry: Arc<SessionRegistry>,
    conns: Mutex<Vec<(Conn, JoinHandle<()>)>>,
    errors: Mutex<Vec<String>>,
}

/// What [`ServerHandle::shutdown`]/[`ServerHandle::abort`] hand back.
#[derive(Debug)]
pub struct ServerReport {
    /// Final counter values.
    pub stats: StatsSnapshot,
    /// Human-readable per-session failures (empty on a clean run).
    pub errors: Vec<String>,
}

/// A running ingest server; dropping the handle **aborts** it.
pub struct ServerHandle {
    shared: Arc<Shared>,
    endpoint: Endpoint,
    accept: Option<JoinHandle<()>>,
}

impl ServerHandle {
    /// Binds a TCP listener and starts serving over the configured
    /// [`BackendChoice`].
    pub fn bind_tcp(addr: impl ToSocketAddrs, config: ServerConfig) -> ServerResult<Self> {
        Self::start(Listener::bind_tcp(addr)?, config)
    }

    /// Binds a Unix-domain listener and starts serving over the configured
    /// [`BackendChoice`].
    #[cfg(unix)]
    pub fn bind_uds(path: impl Into<PathBuf>, config: ServerConfig) -> ServerResult<Self> {
        Self::start(Listener::bind_unix(path)?, config)
    }

    fn start(listener: Listener, config: ServerConfig) -> ServerResult<Self> {
        let endpoint = listener.endpoint()?;
        listener.set_nonblocking(true)?;
        // The one place the backend name becomes a type.
        let handler: fn(Arc<Shared>, Conn) = match config.backend {
            BackendChoice::Gd => handle_connection::<GdBackend>,
            BackendChoice::Deflate => handle_connection::<DeflateBackend>,
            BackendChoice::Hybrid => handle_connection::<HybridGdDeflateBackend>,
            BackendChoice::Auto => handle_connection::<AutoBackend>,
        };
        let shared = Arc::new(Shared {
            config,
            stop: AtomicBool::new(false),
            abort: AtomicBool::new(false),
            registry: Arc::new(SessionRegistry::default()),
            conns: Mutex::new(Vec::new()),
            errors: Mutex::new(Vec::new()),
        });
        let accept_shared = Arc::clone(&shared);
        let accept = thread::Builder::new()
            .name("zipline-accept".into())
            .spawn(move || accept_loop(accept_shared, listener, handler))
            .map_err(|e| ServerError::io("spawning accept thread", e))?;
        Ok(Self {
            shared,
            endpoint,
            accept: Some(accept),
        })
    }

    /// Where the server listens (with the ephemeral port resolved).
    pub fn endpoint(&self) -> &Endpoint {
        &self.endpoint
    }

    /// Snapshot of the server counters.
    pub fn stats(&self) -> StatsSnapshot {
        self.shared.registry.stats()
    }

    /// Graceful shutdown: stop accepting, end every in-flight session as if
    /// the client had sent `END` (drain, commit, `DONE`), join everything.
    pub fn shutdown(mut self) -> ServerReport {
        self.close(false)
    }

    /// Hard abort: close every socket both ways and drop in-flight sessions
    /// without finishing — durable state cuts at the last commit boundary,
    /// exactly like a process kill.
    pub fn abort(mut self) -> ServerReport {
        self.close(true)
    }

    fn close(&mut self, abort: bool) -> ServerReport {
        self.shared.stop.store(true, Ordering::SeqCst);
        if abort {
            self.shared.abort.store(true, Ordering::SeqCst);
        }
        if let Some(handle) = self.accept.take() {
            drop(handle.join());
        }
        // Accept loop has exited, so the registry is complete. Unblock every
        // handler: half-close for graceful (reader sees EOF, session
        // finishes), full close for abort.
        let conns = {
            let mut guard = lock_unpoisoned(&self.shared.conns);
            std::mem::take(&mut *guard)
        };
        let how = if abort {
            std::net::Shutdown::Both
        } else {
            std::net::Shutdown::Read
        };
        for (conn, _) in &conns {
            conn.shutdown(how);
        }
        for (_, handle) in conns {
            drop(handle.join());
        }
        ServerReport {
            stats: self.shared.registry.stats(),
            errors: std::mem::take(&mut *lock_unpoisoned(&self.shared.errors)),
        }
    }
}

impl Drop for ServerHandle {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.close(true);
        }
    }
}

fn accept_loop(shared: Arc<Shared>, listener: Listener, handler: fn(Arc<Shared>, Conn)) {
    while !shared.stop.load(Ordering::SeqCst) {
        match listener.accept() {
            Ok(Some(conn)) => {
                shared.registry.connections.fetch_add(1, Ordering::Relaxed);
                let registered = match conn.try_clone() {
                    Ok(clone) => clone,
                    Err(_) => continue,
                };
                let handler_shared = Arc::clone(&shared);
                let spawned = thread::Builder::new()
                    .name("zipline-conn".into())
                    .spawn(move || handler(handler_shared, conn));
                match spawned {
                    Ok(handle) => {
                        let mut conns = lock_unpoisoned(&shared.conns);
                        // Joining finished handlers is instant; prune so a
                        // long-lived server's registry stays bounded.
                        conns.retain(|(_, h)| !h.is_finished());
                        conns.push((registered, handle));
                    }
                    Err(e) => {
                        let mut errors = lock_unpoisoned(&shared.errors);
                        errors.push(format!("spawning connection handler: {e}"));
                    }
                }
            }
            Ok(None) => thread::sleep(Duration::from_millis(2)),
            Err(_) if shared.stop.load(Ordering::SeqCst) => break,
            Err(_) => thread::sleep(Duration::from_millis(2)),
        }
    }
}

fn handle_connection<B>(shared: Arc<Shared>, conn: Conn)
where
    B: CompressionBackend + Send + 'static,
{
    if let Err(e) = serve::<B>(&shared, &conn) {
        // A deliberate abort is a staged crash, not a failure to report.
        if !shared.abort.load(Ordering::SeqCst) {
            report_failure(&shared, &conn, &e);
        }
    }
}

/// Counts the failure and best-effort sends a typed `ERROR` record before
/// the connection drops.
fn report_failure(shared: &Shared, conn: &Conn, error: &ServerError) {
    shared
        .registry
        .failed_streams
        .fetch_add(1, Ordering::Relaxed);
    lock_unpoisoned(&shared.errors).push(error.to_string());
    if let Ok(mut writer) = conn.try_clone() {
        let frame = WireCodec::new().encode(&Record::Error(error.to_string()));
        drop(writer.write_all(&frame));
        drop(writer.flush());
    }
    conn.shutdown(std::net::Shutdown::Both);
}

/// The shell around one [`Session`]: the socket read loop in front of it
/// and the ordered writer (a bounded channel of framed bytes drained by a
/// dedicated thread; see the module docs) behind it.
fn serve<B>(shared: &Shared, conn: &Conn) -> ServerResult<()>
where
    B: CompressionBackend + Send + 'static,
{
    let mut reader = RecordReader::new(conn.try_clone()?);
    let mut session = Session::<B>::new(&shared.config.host, Arc::clone(&shared.registry))?;

    let (tx, rx) = mpsc::sync_channel::<Vec<u8>>(shared.config.writer_depth.max(1));
    let writer_failed = Arc::new(AtomicBool::new(false));
    let writer_conn = conn.try_clone()?;
    let writer = {
        let failed = Arc::clone(&writer_failed);
        thread::Builder::new()
            .name("zipline-writer".into())
            .spawn(move || run_writer(writer_conn, rx, failed))
            .map_err(|e| ServerError::io("spawning writer thread", e))?
    };

    let result = pump(shared, &mut reader, &mut session, &tx, &writer_failed);
    // On an error this abandons every open flow without emitting or
    // committing anything further — crash semantics for the stores.
    drop(session);
    // Close the channel and let the writer drain what was queued.
    drop(tx);
    drop(writer.join());
    result
}

/// Records in, frames out, until the session ends or fails.
fn pump<B>(
    shared: &Shared,
    reader: &mut RecordReader<Conn>,
    session: &mut Session<B>,
    tx: &SyncSender<Vec<u8>>,
    writer_failed: &AtomicBool,
) -> ServerResult<()>
where
    B: CompressionBackend + Send + 'static,
{
    let mut frames = Vec::new();
    loop {
        let record = match reader.read_record() {
            Ok(record) => record,
            // Shutdown cut the client mid-record; the torn record was never
            // handled, everything before it is whole.
            Err(WireError::Truncated) if shared.stop.load(Ordering::SeqCst) => None,
            Err(e) => return Err(e.into()),
        };
        let step = match record {
            Some(record) => session.handle(record, &mut frames),
            None if shared.abort.load(Ordering::SeqCst) => Err(ServerError::Disconnected),
            // EOF at a record boundary: the client hung up without END, or
            // our graceful shutdown half-closed the socket. Either way the
            // data is whole; finish and commit it.
            None => session.stop(&mut frames),
        };
        // Whatever a failed step emitted before failing is still owed.
        if !frames.is_empty() {
            // Queue an exact-size copy and keep the grown buffer. A send
            // only fails once the writer is gone, which the failure flag
            // below reports.
            drop(tx.send(frames.clone()));
            frames.clear();
        }
        step?;
        if session.is_ended() {
            return Ok(());
        }
        if writer_failed.load(Ordering::Relaxed) {
            return Err(ServerError::Disconnected);
        }
    }
}

/// The ordered writer: drains framed bytes to the socket, batching
/// bursts through a buffered writer and flushing whenever the queue runs
/// empty (so closed-loop clients are never left waiting on a full buffer).
fn run_writer(conn: Conn, rx: Receiver<Vec<u8>>, failed: Arc<AtomicBool>) {
    let mut writer = std::io::BufWriter::with_capacity(64 * 1024, conn);
    loop {
        let frame = match rx.try_recv() {
            Ok(frame) => frame,
            Err(TryRecvError::Empty) => {
                if writer.flush().is_err() {
                    break;
                }
                match rx.recv() {
                    Ok(frame) => frame,
                    Err(_) => return void_flush(writer),
                }
            }
            Err(TryRecvError::Disconnected) => return void_flush(writer),
        };
        if writer.write_all(&frame).is_err() {
            break;
        }
    }
    // Write half is dead: mark it and drain so producers never block on a
    // full channel into a dead pipe.
    failed.store(true, Ordering::Relaxed);
    for _ in rx.iter() {}
}

fn void_flush(mut writer: std::io::BufWriter<Conn>) {
    drop(writer.flush());
}
