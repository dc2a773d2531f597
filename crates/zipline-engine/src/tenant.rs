//! Multi-tenant flow routing in front of [`CompressionEngine`].
//!
//! One engine serves one logical stream; production means **many
//! concurrent flows** from many tenants sharing one process. This module
//! adds that layer without touching the engine itself, riding the
//! [`EngineBuilder`]/[`CompressionBackend`] seams:
//!
//! - [`FlowKey`] names a flow as `(tenant, flow)`; [`flow_placement`]
//!   hashes it onto a slot in the tenant's partition pool.
//! - [`FlowRouter`] owns a pool of per-tenant engine partitions. Every
//!   flow is backed by its **own** [`PipelinedStream`] over its own
//!   engine, so tenants (and flows) never share basis entries — the
//!   dictionary namespace is partitioned by construction, and one flow's
//!   churn cannot evict another tenant's bases.
//! - Per-tenant capacity fairness is a **budgeted slab share**: a tenant
//!   may hold at most `partitions_per_tenant` concurrent flows, i.e. at
//!   most `partitions_per_tenant × dictionary_capacity` slab entries.
//!   Opening a flow past the budget fails with
//!   [`FlowError::TenantSaturated`] instead of degrading neighbours.
//!   [`TenantStats`] surfaces per-tenant install/evict/ratio counters the
//!   way per-shard stats do for a single engine.
//! - The control plane is **tenant-tagged**: every emission is a
//!   [`FlowBatch`] — one flow's finished [`Batch`], whole, under its
//!   [`FlowKey`] — and a batch carries its dictionary updates placed
//!   strictly before the payloads that need them (exactly the
//!   single-stream live-sync invariant, preserved per flow because each
//!   flow's batches are queued on the calling thread in wire order).
//! - [`FlowDecoderPool`] is the receive side: one decoder per flow keyed
//!   the same way, so a single pool tracks many interleaved streams and
//!   one flow's state transitions never perturb another's.
//!
//! # Placement invariants
//!
//! Placement is deterministic: `flow_placement(key, n)` is a pure
//! function of the key, and collisions probe linearly over the tenant's
//! pool, so a flow's home slot depends only on the set of flows currently
//! active — never on wall-clock or iteration order. Routing never changes
//! bytes: a flow routed through the router emits **bit-identical** output
//! to the same data pushed through an isolated single-tenant engine
//! (pinned by the `flow_router` proptest suite).
//!
//! # Durable layout
//!
//! With a durable root, flow state lives under a tenant-scoped tree:
//! `tenant-<tenant:016x>/stream-<flow:016x>` (see [`flow_dir`]). Resume
//! follows the single-stream discipline per flow: [`plan_resume`] turns
//! the journal's warm start plus the client's replay cursor into a
//! [`FlowResume`] (replay tail, or a reseed of live mappings after
//! compaction, plus the exact input byte offset to resume from).

use std::cell::RefCell;
use std::collections::{BTreeMap, VecDeque};
use std::fmt;
use std::path::{Path, PathBuf};
use std::rc::Rc;

use crate::backend::CompressionBackend;
use crate::builder::EngineBuilder;
use crate::engine::{CompressionEngine, EngineConfig, GdBackend};
use crate::error::EngineError;
use crate::frame::{Batch, BatchEvent};
use crate::persist::{CommittedEntry, SyncPolicy};
use crate::pipelined::PipelinedStream;
use crate::registry::{CodecId, RegistryDecompressor, CODEC_GD};
use crate::shard::{DictionaryUpdate, UpdateOp};
use crate::stream::{BatchSink, StreamSummary};
use zipline_gd::error::GdError;
use zipline_gd::packet::PacketType;
use zipline_gd::stats::CompressionStats;

/// Identifies one flow: a tenant id plus a per-tenant flow id.
///
/// Ordering is `(tenant, flow)` lexicographic, so iterating a sorted
/// collection of keys groups flows by tenant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowKey {
    /// The owning tenant.
    pub tenant: u64,
    /// The flow id, unique within the tenant.
    pub flow: u64,
}

impl FlowKey {
    /// Convenience constructor.
    pub fn new(tenant: u64, flow: u64) -> Self {
        Self { tenant, flow }
    }
}

impl fmt::Display for FlowKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "tenant {:#x} flow {:#x}", self.tenant, self.flow)
    }
}

/// Deterministic placement: hashes `key` onto `0..slots` (FNV-1a over the
/// key's sixteen little-endian bytes). A pure function of the key, so
/// placement is stable across restarts and independent of open order;
/// collisions are resolved by the router's linear probe over the tenant
/// pool.
pub fn flow_placement(key: FlowKey, slots: usize) -> usize {
    debug_assert!(slots > 0, "placement over an empty pool");
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in key
        .tenant
        .to_le_bytes()
        .into_iter()
        .chain(key.flow.to_le_bytes())
    {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    (hash % slots.max(1) as u64) as usize
}

/// The durable directory of one tenant: `<root>/tenant-<tenant:016x>`.
pub fn tenant_dir(root: &Path, tenant: u64) -> PathBuf {
    root.join(format!("tenant-{tenant:016x}"))
}

/// The durable directory of one flow:
/// `<root>/tenant-<tenant:016x>/stream-<flow:016x>`.
pub fn flow_dir(root: &Path, key: FlowKey) -> PathBuf {
    tenant_dir(root, key.tenant).join(format!("stream-{:016x}", key.flow))
}

/// Configuration of a [`FlowRouter`]: the per-flow engine shape plus the
/// routing policy knobs.
#[derive(Debug, Clone)]
pub struct FlowRouterConfig {
    /// Engine configuration applied to every flow partition.
    pub engine: EngineConfig,
    /// Batch size in backend units (chunks for GD) per flow.
    pub batch_units: usize,
    /// Pipeline depth handed to [`EngineBuilder::pipelined`] per flow.
    pub pipeline_depth: usize,
    /// The tenant budget: maximum concurrent flows (engine partitions,
    /// hence dictionary slabs) one tenant may hold. The fairness knob.
    pub partitions_per_tenant: usize,
    /// Durable root; when set every flow journals under
    /// [`flow_dir`]`(root, key)`.
    pub durable_root: Option<PathBuf>,
    /// [`StoreOptions::checkpoint_cadence`](crate::StoreOptions::checkpoint_cadence)
    /// of durable flows. No flow stream consults it: each batch commits
    /// without a checkpoint and a finished flow compacts to one.
    pub checkpoint_cadence: u64,
    /// Sync policy for durable flows.
    pub sync: SyncPolicy,
}

impl FlowRouterConfig {
    /// A router over `engine`-shaped partitions with 64-unit batches, depth-2 pipelines, a 64-flow tenant budget and no
    /// durability.
    pub fn new(engine: EngineConfig) -> Self {
        Self {
            engine,
            batch_units: 64,
            pipeline_depth: 2,
            partitions_per_tenant: 64,
            durable_root: None,
            checkpoint_cadence: 8,
            sync: SyncPolicy::Flush,
        }
    }
}

/// One tagged emission from the router: a finished batch of `key`'s
/// stream, exactly as the flow's engine produced it. Per flow, batches are
/// queued in wire order, and within a batch every dictionary update sits
/// strictly before the payloads that reference the installed bases (the
/// live-sync interleaving invariant, preserved per flow).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FlowBatch {
    /// The owning flow.
    pub key: FlowKey,
    /// The batch: codec tag, payloads, interleaved updates.
    pub batch: Batch,
}

/// The resume plan of one (re)opened flow, mirroring the single-stream
/// server hello: how far the journal got, what to replay past the
/// client's cursor, and the reseed set when the journal was compacted.
#[derive(Debug, Default)]
pub struct FlowResume {
    /// Exact input byte offset the client should resume from (a batch
    /// boundary; 0 on a cold open).
    pub resume_bytes_in: u64,
    /// Journal tail past the client's replay cursor, in commit order.
    pub replay: Vec<CommittedEntry>,
    /// Synthesized installs for every live mapping when the journal was
    /// compacted (clean finish, then cold reconnect); advisory `seq`/`at`.
    pub reseed: Vec<DictionaryUpdate>,
    /// Whether durable state existed for the flow.
    pub warm: bool,
}

/// End-of-flow report: the stream totals plus the engine statistics of
/// the flow's partition.
#[derive(Debug)]
pub struct FlowSummary {
    /// The finished flow.
    pub key: FlowKey,
    /// The pool slot the flow occupied.
    pub slot: usize,
    /// Stream totals (bytes in, payloads, wire bytes, control updates).
    pub summary: StreamSummary,
    /// Engine statistics (installs, evictions, per-type emission counts).
    pub stats: CompressionStats,
}

/// Per-tenant counters, surfaced like per-shard stats: the fairness
/// ledger of one tenant's slab share.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct TenantStats {
    /// The tenant.
    pub tenant: u64,
    /// Flows ever opened.
    pub flows_opened: u64,
    /// Flows currently active (occupied partitions).
    pub flows_active: u64,
    /// Flows finished cleanly.
    pub flows_finished: u64,
    /// Opens rejected by the tenant budget.
    pub flows_rejected: u64,
    /// Input bytes across finished flows.
    pub bytes_in: u64,
    /// Wire bytes across finished flows.
    pub wire_bytes: u64,
    /// Payloads emitted across finished flows.
    pub payloads: u64,
    /// Compressed (type 3) payloads across finished flows.
    pub compressed_payloads: u64,
    /// Control updates emitted across finished flows.
    pub control_updates: u64,
    /// Bases installed across finished flows.
    pub bases_learned: u64,
    /// Bases evicted across finished flows.
    pub evictions: u64,
}

impl TenantStats {
    /// Wire bytes over input bytes across the tenant's finished flows
    /// (1.0 when nothing finished yet).
    pub fn ratio(&self) -> f64 {
        if self.bytes_in == 0 {
            1.0
        } else {
            self.wire_bytes as f64 / self.bytes_in as f64
        }
    }

    fn absorb(&mut self, summary: &StreamSummary, stats: &CompressionStats) {
        self.flows_finished += 1;
        self.bytes_in += summary.bytes_in;
        self.wire_bytes += summary.wire_bytes;
        self.payloads += summary.payloads_emitted;
        self.compressed_payloads += summary.compressed_payloads;
        self.control_updates += summary.control_updates;
        self.bases_learned += stats.bases_learned;
        self.evictions += stats.evictions;
    }
}

/// Routing-layer errors.
#[derive(Debug)]
#[non_exhaustive]
pub enum FlowError {
    /// The tenant's partition budget is exhausted.
    TenantSaturated {
        /// The saturated tenant.
        tenant: u64,
        /// Its partition budget.
        budget: usize,
    },
    /// The flow is already active (duplicate open).
    FlowActive(FlowKey),
    /// The flow is not active (push/end without open).
    UnknownFlow(FlowKey),
    /// The client claims replayed entries but the flow has no durable
    /// state.
    ColdCursor {
        /// Entries the client claims to hold.
        held: u64,
    },
    /// The client's replay cursor runs past the journal.
    ResumeCursor {
        /// Entries the client claims to hold.
        held: u64,
        /// Entries the journal actually carries.
        committed: usize,
    },
    /// A flow's control updates arrived out of order (tag mixup or a
    /// missing update — decoding past it would corrupt the flow).
    ControlOutOfOrder {
        /// The flow.
        key: FlowKey,
        /// The sequence number that arrived.
        seq: u64,
        /// The lowest acceptable sequence number.
        expected: u64,
    },
    /// An engine-layer failure on the flow's partition.
    Engine(EngineError),
    /// A codec-layer failure on the flow's partition.
    Gd(GdError),
}

impl fmt::Display for FlowError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FlowError::TenantSaturated { tenant, budget } => write!(
                f,
                "tenant {tenant:#x} is saturated: budget of {budget} concurrent flows reached"
            ),
            FlowError::FlowActive(key) => write!(f, "{key} is already active"),
            FlowError::UnknownFlow(key) => write!(f, "{key} is not active"),
            FlowError::ColdCursor { held } => write!(
                f,
                "client holds {held} entries but the stream has no durable state"
            ),
            FlowError::ResumeCursor { held, committed } => write!(
                f,
                "client holds {held} entries but the journal carries only {committed}"
            ),
            FlowError::ControlOutOfOrder { key, seq, expected } => write!(
                f,
                "{key}: control update seq {seq} arrived below the flow cursor {expected}"
            ),
            FlowError::Engine(e) => write!(f, "engine failure: {e}"),
            FlowError::Gd(e) => write!(f, "codec failure: {e}"),
        }
    }
}

impl std::error::Error for FlowError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            FlowError::Engine(e) => Some(e),
            FlowError::Gd(e) => Some(e),
            _ => None,
        }
    }
}

impl From<EngineError> for FlowError {
    fn from(e: EngineError) -> Self {
        FlowError::Engine(e)
    }
}

impl From<GdError> for FlowError {
    fn from(e: GdError) -> Self {
        FlowError::Gd(e)
    }
}

/// Derives a flow's [`FlowResume`] from its freshly built engine and the
/// client's replay cursor — the same discipline as the single-stream
/// server hello (which delegates here). Call once, immediately after
/// `build()`: it consumes the engine's warm start.
pub fn plan_resume<B: CompressionBackend>(
    engine: &mut CompressionEngine<B>,
    entries_held: u64,
) -> Result<FlowResume, FlowError> {
    let held = entries_held as usize;
    match engine.take_warm_start() {
        None => {
            if held != 0 {
                return Err(FlowError::ColdCursor { held: entries_held });
            }
            Ok(FlowResume::default())
        }
        Some(warm) => {
            if held > warm.committed.len() {
                return Err(FlowError::ResumeCursor {
                    held: entries_held,
                    committed: warm.committed.len(),
                });
            }
            let replay: Vec<CommittedEntry> = warm.committed.into_iter().skip(held).collect();
            // A compacted journal (clean finish, then reconnect from zero)
            // carries no entries; the dictionary still exists, so a fresh
            // client is synced by synthesized installs instead of replay.
            let reseed = if held == 0 && replay.is_empty() {
                reseed_updates(engine)
            } else {
                Vec::new()
            };
            Ok(FlowResume {
                resume_bytes_in: warm.bytes_in,
                replay,
                reseed,
                warm: true,
            })
        }
    }
}

/// Regroups a journal tail into batches for replay: consecutive entries
/// share a batch until the codec tag changes or the batch holds 64 KiB of
/// payload. The entries need not start or stop at
/// the boundaries of the batches that were committed — a client that went
/// away mid-batch holds a cursor inside one — because a [`Batch`] records
/// where each update sits, so expanding the result yields `entries` again,
/// in order, whatever their `at` fields say.
pub fn replay_batches(entries: &[CommittedEntry]) -> Vec<Batch> {
    let mut batches = Vec::new();
    let mut open = Batch::default();
    for entry in entries {
        match entry {
            CommittedEntry::Control(update) => open.push_update(update.clone()),
            CommittedEntry::Frame {
                packet_type,
                codec,
                bytes,
            } => {
                let holds_payloads = open.payload_count() > 0;
                if holds_payloads
                    && (open.codec() != *codec || open.wire_bytes() >= REPLAY_BATCH_BYTES)
                {
                    batches.push(std::mem::take(&mut open));
                }
                open.set_codec(*codec);
                open.push_payload(*packet_type, bytes);
            }
        }
    }
    if !open.is_empty() {
        batches.push(open);
    }
    batches
}

/// Payload bytes after which [`replay_batches`] starts another batch: a few
/// engine batches' worth, far below any record size bound.
const REPLAY_BATCH_BYTES: usize = 64 * 1024;

/// Synthesizes `Install` updates for every live mapping, ordered by
/// identifier. `seq`/`at` are advisory (the journal they summarize was
/// compacted away); reseed framing marks them as such.
pub fn reseed_updates<B: CompressionBackend>(
    engine: &CompressionEngine<B>,
) -> Vec<DictionaryUpdate> {
    let Some(snapshot) = engine.backend().snapshot() else {
        return Vec::new();
    };
    let mut entries = snapshot.entries;
    entries.sort_by_key(|(id, _)| *id);
    entries
        .into_iter()
        .enumerate()
        .map(|(i, (id, basis))| DictionaryUpdate {
            seq: i as u64,
            at: 0,
            op: UpdateOp::Install { id, basis },
        })
        .collect()
}

/// The router's shared queue of tagged emissions.
type FlowQueue = Rc<RefCell<VecDeque<FlowBatch>>>;

/// One flow's batch sink: moves each finished batch, buffers and all —
/// dictionary updates included — into the router's queue under the flow's
/// key.
struct QueueSink {
    key: FlowKey,
    queue: FlowQueue,
}

impl BatchSink for QueueSink {
    fn wants_updates(&self) -> bool {
        true
    }

    fn batch(&mut self, batch: &mut Batch) {
        self.queue.borrow_mut().push_back(FlowBatch {
            key: self.key,
            batch: std::mem::take(batch),
        });
    }
}

struct ActiveFlow<B: CompressionBackend + Send + 'static> {
    stream: PipelinedStream<QueueSink, B>,
}

/// One tenant's partition pool: a fixed open-addressed slot table (the
/// budget) plus the fairness ledger.
struct TenantState<B: CompressionBackend + Send + 'static> {
    slots: Vec<Option<ActiveFlow<B>>>,
    /// flow id → occupied slot.
    index: BTreeMap<u64, usize>,
    stats: TenantStats,
}

impl<B: CompressionBackend + Send + 'static> TenantState<B> {
    fn new(tenant: u64, budget: usize) -> Self {
        let mut slots = Vec::with_capacity(budget);
        slots.resize_with(budget, || None);
        Self {
            slots,
            index: BTreeMap::new(),
            stats: TenantStats {
                tenant,
                ..TenantStats::default()
            },
        }
    }

    /// Home slot or the next free one by linear probe; `None` when full
    /// (callers check the budget first, so this is defensive).
    fn place(&self, key: FlowKey) -> Option<usize> {
        let n = self.slots.len();
        let home = flow_placement(key, n);
        (0..n)
            .map(|i| (home + i) % n)
            .find(|&slot| self.slots[slot].is_none())
    }

    fn stats_now(&self) -> TenantStats {
        let mut stats = self.stats.clone();
        stats.flows_active = self.index.len() as u64;
        stats
    }
}

/// The multi-tenant routing layer: flow-keyed placement onto per-tenant
/// engine partitions, tagged emission, budgeted fairness. See the module
/// docs for the invariants.
pub struct FlowRouter<B: CompressionBackend + Send + 'static = GdBackend> {
    config: FlowRouterConfig,
    tenants: BTreeMap<u64, TenantState<B>>,
    /// Tagged emissions of every flow, in emission order; per flow the
    /// order is exactly the flow's wire order.
    events: FlowQueue,
}

impl<B: CompressionBackend + Send + 'static> FlowRouter<B> {
    /// Creates an empty router. Fails on a zero budget or zero batch
    /// size.
    pub fn new(config: FlowRouterConfig) -> Result<Self, FlowError> {
        if config.partitions_per_tenant == 0 {
            return Err(FlowError::Gd(GdError::InvalidConfig(
                "partitions_per_tenant must be at least 1".into(),
            )));
        }
        if config.batch_units == 0 {
            return Err(FlowError::Gd(GdError::InvalidConfig(
                "batch_units must be at least 1".into(),
            )));
        }
        Ok(Self {
            config,
            tenants: BTreeMap::new(),
            events: Rc::new(RefCell::new(VecDeque::new())),
        })
    }

    /// The router's configuration.
    pub fn config(&self) -> &FlowRouterConfig {
        &self.config
    }

    /// Opens (or, durably, reopens) a flow: places it onto the tenant's
    /// pool, builds its engine partition and returns the resume plan.
    /// `entries_held` is the client's replay cursor (0 on a cold open).
    pub fn open_flow(&mut self, key: FlowKey, entries_held: u64) -> Result<FlowResume, FlowError> {
        let budget = self.config.partitions_per_tenant;
        let tenant = self
            .tenants
            .entry(key.tenant)
            .or_insert_with(|| TenantState::new(key.tenant, budget));
        if tenant.index.contains_key(&key.flow) {
            return Err(FlowError::FlowActive(key));
        }
        if tenant.index.len() >= budget {
            tenant.stats.flows_rejected += 1;
            return Err(FlowError::TenantSaturated {
                tenant: key.tenant,
                budget,
            });
        }

        let backend = B::from_engine_config(&self.config.engine)?;
        let mut builder = EngineBuilder::new()
            .config(self.config.engine)
            .backend(backend)
            .pipelined(self.config.pipeline_depth);
        if let Some(root) = &self.config.durable_root {
            builder = builder
                .durable(flow_dir(root, key))
                .checkpoint_cadence(self.config.checkpoint_cadence)
                .sync_policy(self.config.sync);
        }
        let mut engine = builder.build()?;
        let resume = plan_resume(&mut engine, entries_held)?;

        let sink = QueueSink {
            key,
            queue: Rc::clone(&self.events),
        };
        let stream = PipelinedStream::with_batch_sink(engine, self.config.batch_units, sink)?;

        let slot = tenant.place(key).ok_or(FlowError::TenantSaturated {
            tenant: key.tenant,
            budget,
        })?;
        tenant.slots[slot] = Some(ActiveFlow { stream });
        tenant.index.insert(key.flow, slot);
        tenant.stats.flows_opened += 1;
        Ok(resume)
    }

    fn flow_mut(&mut self, key: FlowKey) -> Result<&mut ActiveFlow<B>, FlowError> {
        let tenant = self
            .tenants
            .get_mut(&key.tenant)
            .ok_or(FlowError::UnknownFlow(key))?;
        let slot = *tenant
            .index
            .get(&key.flow)
            .ok_or(FlowError::UnknownFlow(key))?;
        tenant.slots[slot]
            .as_mut()
            .ok_or(FlowError::UnknownFlow(key))
    }

    /// Appends one record to `key`'s stream. Emissions (for any flow that
    /// crossed a batch boundary) land in the event queue; drain with
    /// [`drain_events`](Self::drain_events).
    pub fn push(&mut self, key: FlowKey, bytes: &[u8]) -> Result<(), FlowError> {
        let flow = self.flow_mut(key)?;
        flow.stream.push_record(bytes)?;
        Ok(())
    }

    /// Takes every tagged emission queued since the last drain, in
    /// emission order (per flow: wire order, controls strictly before the
    /// payloads that need them).
    pub fn drain_events(&mut self) -> Vec<FlowBatch> {
        self.events.borrow_mut().drain(..).collect()
    }

    /// Finishes `key`'s stream: flushes the trailing partial batch (its
    /// events land in the queue), frees the slot and folds the flow into
    /// the tenant ledger.
    pub fn end_flow(&mut self, key: FlowKey) -> Result<FlowSummary, FlowError> {
        let tenant = self
            .tenants
            .get_mut(&key.tenant)
            .ok_or(FlowError::UnknownFlow(key))?;
        let slot = tenant
            .index
            .remove(&key.flow)
            .ok_or(FlowError::UnknownFlow(key))?;
        let Some(flow) = tenant.slots[slot].take() else {
            return Err(FlowError::UnknownFlow(key));
        };
        let (engine, summary) = flow.stream.finish()?;
        let stats = engine.stats();
        tenant.stats.absorb(&summary, &stats);
        Ok(FlowSummary {
            key,
            slot,
            summary,
            stats,
        })
    }

    /// Drops `key`'s stream without flushing — crash semantics: buffered
    /// input and in-flight batches are abandoned, a durable flow resumes
    /// from its last commit.
    pub fn abandon_flow(&mut self, key: FlowKey) -> Result<(), FlowError> {
        let tenant = self
            .tenants
            .get_mut(&key.tenant)
            .ok_or(FlowError::UnknownFlow(key))?;
        let slot = tenant
            .index
            .remove(&key.flow)
            .ok_or(FlowError::UnknownFlow(key))?;
        drop(tenant.slots[slot].take());
        Ok(())
    }

    /// Abandons every active flow (crash semantics; see
    /// [`abandon_flow`](Self::abandon_flow)).
    pub fn abandon_all(&mut self) {
        for tenant in self.tenants.values_mut() {
            tenant.index.clear();
            for slot in &mut tenant.slots {
                drop(slot.take());
            }
        }
    }

    /// Finishes every active flow in sorted `(tenant, flow)` order,
    /// returning one summary per flow. Stops at the first failure.
    pub fn finish_all(&mut self) -> Result<Vec<FlowSummary>, FlowError> {
        let keys: Vec<FlowKey> = self
            .tenants
            .iter()
            .flat_map(|(&tenant, state)| {
                state
                    .index
                    .keys()
                    .map(move |&flow| FlowKey { tenant, flow })
            })
            .collect();
        let mut summaries = Vec::with_capacity(keys.len());
        for key in keys {
            summaries.push(self.end_flow(key)?);
        }
        Ok(summaries)
    }

    /// Number of active flows across all tenants.
    pub fn active_flows(&self) -> usize {
        self.tenants.values().map(|t| t.index.len()).sum()
    }

    /// Whether `key` is currently active.
    pub fn is_active(&self, key: FlowKey) -> bool {
        self.tenants
            .get(&key.tenant)
            .is_some_and(|t| t.index.contains_key(&key.flow))
    }

    /// The active flows, in sorted `(tenant, flow)` order.
    pub fn active_keys(&self) -> Vec<FlowKey> {
        self.tenants
            .iter()
            .flat_map(|(&tenant, state)| {
                state
                    .index
                    .keys()
                    .map(move |&flow| FlowKey { tenant, flow })
            })
            .collect()
    }

    /// One tenant's ledger (with `flows_active` refreshed), if the tenant
    /// has ever opened a flow.
    pub fn tenant_stats(&self, tenant: u64) -> Option<TenantStats> {
        self.tenants.get(&tenant).map(TenantState::stats_now)
    }

    /// Every tenant's ledger, in tenant order.
    pub fn all_tenant_stats(&self) -> Vec<TenantStats> {
        self.tenants.values().map(TenantState::stats_now).collect()
    }
}

/// One flow's decoder: the registry mirror plus the flow's control cursor.
struct FlowDecoder {
    dec: RegistryDecompressor,
    /// Lowest acceptable control `seq`: updates must arrive in
    /// nondecreasing order per flow (the tagged interleaving invariant).
    next_control_seq: u64,
}

/// The receive side of the routing layer: one [`RegistryDecompressor`]
/// per flow, keyed like the router, so a single pool tracks many
/// interleaved streams — and, per flow, dispatches each payload's codec
/// tag to the right registered decoder (untagged payloads go to the GD
/// default). Decoding state is fully partitioned — one flow's
/// installs/evictions never touch another flow's dictionary — and each
/// flow's control cursor enforces the per-flow tag ordering.
///
/// Payload decoding is in-band (type 2 payloads teach the dictionary
/// exactly as the compressor learned, mirroring hash/shard/clock), so the
/// pool stays lossless under churn even when control events are only
/// observed, not applied; [`apply_reseed`](Self::apply_reseed) bootstraps
/// a warm flow's dictionary from reseed frames.
pub struct FlowDecoderPool {
    config: EngineConfig,
    flows: BTreeMap<FlowKey, FlowDecoder>,
}

impl FlowDecoderPool {
    /// An empty pool; every flow decoder mirrors `config` (only `gd` and
    /// `shards` matter for decoding).
    pub fn new(config: EngineConfig) -> Self {
        Self {
            config,
            flows: BTreeMap::new(),
        }
    }

    /// Opens a decoder for `key`. Duplicate opens are an error.
    pub fn open(&mut self, key: FlowKey) -> Result<(), FlowError> {
        if self.flows.contains_key(&key) {
            return Err(FlowError::FlowActive(key));
        }
        let dec = RegistryDecompressor::new(self.config, CODEC_GD)?;
        self.flows.insert(
            key,
            FlowDecoder {
                dec,
                next_control_seq: 0,
            },
        );
        Ok(())
    }

    fn flow_mut(&mut self, key: FlowKey) -> Result<&mut FlowDecoder, FlowError> {
        self.flows.get_mut(&key).ok_or(FlowError::UnknownFlow(key))
    }

    /// Observes one tagged control update: enforces the per-flow
    /// nondecreasing `seq` cursor. State itself is learned in-band from
    /// the payloads.
    pub fn observe_control(
        &mut self,
        key: FlowKey,
        update: &DictionaryUpdate,
    ) -> Result<(), FlowError> {
        let flow = self.flow_mut(key)?;
        if update.seq < flow.next_control_seq {
            return Err(FlowError::ControlOutOfOrder {
                key,
                seq: update.seq,
                expected: flow.next_control_seq,
            });
        }
        flow.next_control_seq = update.seq + 1;
        Ok(())
    }

    /// Applies one reseed install to `key`'s dictionary (warm-restart
    /// bootstrap: the journal was compacted, so live mappings arrive as
    /// synthesized installs instead of replayed payloads).
    pub fn apply_reseed(
        &mut self,
        key: FlowKey,
        update: &DictionaryUpdate,
    ) -> Result<(), FlowError> {
        let flow = self.flow_mut(key)?;
        flow.dec.apply_update(update)?;
        flow.next_control_seq = flow.next_control_seq.max(update.seq + 1);
        Ok(())
    }

    /// Decodes one tagged payload, appending the restored bytes to `out`.
    /// `codec` is the payload's per-batch codec tag; `None` (untagged)
    /// decodes through the flow's default (GD) decoder, and an unknown id
    /// fails as [`GdError::UnknownCodec`].
    pub fn decode_payload(
        &mut self,
        key: FlowKey,
        codec: Option<CodecId>,
        packet_type: PacketType,
        bytes: &[u8],
        out: &mut Vec<u8>,
    ) -> Result<(), FlowError> {
        let flow = self.flow_mut(key)?;
        flow.dec
            .restore_payload_tagged(codec, packet_type, bytes, out)?;
        Ok(())
    }

    /// Decodes one [`FlowBatch`] in wire order (payloads append to `out`;
    /// controls are observed for ordering).
    pub fn decode_batch(&mut self, flow: &FlowBatch, out: &mut Vec<u8>) -> Result<(), FlowError> {
        let FlowBatch { key, batch } = flow;
        for event in batch.events() {
            match event {
                BatchEvent::Update(update) => self.observe_control(*key, update)?,
                BatchEvent::Payload(packet_type, bytes) => {
                    self.decode_payload(*key, batch.codec(), packet_type, bytes, out)?
                }
            }
        }
        Ok(())
    }

    /// Closes `key`'s decoder, returning its statistics (merged across
    /// every codec the flow's payloads dispatched to).
    pub fn close(&mut self, key: FlowKey) -> Result<CompressionStats, FlowError> {
        let flow = self.flows.remove(&key).ok_or(FlowError::UnknownFlow(key))?;
        Ok(flow.dec.stats())
    }

    /// Number of open flow decoders.
    pub fn flows(&self) -> usize {
        self.flows.len()
    }

    /// Whether `key` has an open decoder.
    pub fn is_open(&self, key: FlowKey) -> bool {
        self.flows.contains_key(&key)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::SpawnPolicy;
    use zipline_gd::config::GdConfig;

    fn small_config() -> EngineConfig {
        EngineConfig {
            gd: GdConfig::for_parameters(8, 6).unwrap(),
            shards: 4,
            workers: 2,
            spawn: SpawnPolicy::Inline,
        }
    }

    fn small_router() -> FlowRouter {
        let mut config = FlowRouterConfig::new(small_config());
        config.batch_units = 8;
        config.partitions_per_tenant = 4;
        FlowRouter::new(config).unwrap()
    }

    fn chunk(tenant: u64, flow: u64, i: usize) -> Vec<u8> {
        let mut bytes = vec![0u8; 32];
        bytes[0] = tenant as u8;
        bytes[4] = flow as u8;
        bytes[8] = (i % 3) as u8;
        bytes
    }

    #[test]
    fn placement_is_deterministic_and_in_range() {
        for slots in [1usize, 2, 7, 64] {
            for tenant in 0..8u64 {
                for flow in 0..8u64 {
                    let key = FlowKey::new(tenant, flow);
                    let a = flow_placement(key, slots);
                    assert_eq!(a, flow_placement(key, slots));
                    assert!(a < slots);
                }
            }
        }
    }

    #[test]
    fn flow_dirs_are_tenant_scoped() {
        let root = Path::new("/tmp/zl");
        let dir = flow_dir(root, FlowKey::new(0xA, 0xB));
        assert_eq!(
            dir,
            root.join("tenant-000000000000000a")
                .join("stream-000000000000000b")
        );
    }

    #[test]
    fn tenant_budget_rejects_and_counts() {
        let mut router = small_router();
        for flow in 0..4u64 {
            router.open_flow(FlowKey::new(1, flow), 0).unwrap();
        }
        let err = router.open_flow(FlowKey::new(1, 99), 0).unwrap_err();
        assert!(matches!(
            err,
            FlowError::TenantSaturated {
                tenant: 1,
                budget: 4
            }
        ));
        // Another tenant is unaffected by the saturated neighbour.
        router.open_flow(FlowKey::new(2, 0), 0).unwrap();
        let stats = router.tenant_stats(1).unwrap();
        assert_eq!(stats.flows_rejected, 1);
        assert_eq!(stats.flows_active, 4);
        // Ending a flow frees the slot.
        router.end_flow(FlowKey::new(1, 0)).unwrap();
        router.open_flow(FlowKey::new(1, 99), 0).unwrap();
    }

    #[test]
    fn duplicate_and_unknown_flows_are_typed_errors() {
        let mut router = small_router();
        let key = FlowKey::new(7, 7);
        router.open_flow(key, 0).unwrap();
        assert!(matches!(
            router.open_flow(key, 0).unwrap_err(),
            FlowError::FlowActive(k) if k == key
        ));
        let ghost = FlowKey::new(7, 8);
        assert!(matches!(
            router.push(ghost, &[0u8; 32]).unwrap_err(),
            FlowError::UnknownFlow(k) if k == ghost
        ));
        assert!(matches!(
            router.end_flow(ghost).unwrap_err(),
            FlowError::UnknownFlow(k) if k == ghost
        ));
    }

    #[test]
    fn interleaved_flows_decode_independently() {
        let mut router = small_router();
        let keys = [FlowKey::new(1, 1), FlowKey::new(2, 1), FlowKey::new(2, 2)];
        let mut pool = FlowDecoderPool::new(small_config());
        for &key in &keys {
            router.open_flow(key, 0).unwrap();
            pool.open(key).unwrap();
        }
        let mut fed: BTreeMap<FlowKey, Vec<u8>> = BTreeMap::new();
        for i in 0..64 {
            for &key in &keys {
                let bytes = chunk(key.tenant, key.flow, i);
                fed.entry(key).or_default().extend_from_slice(&bytes);
                router.push(key, &bytes).unwrap();
            }
        }
        let summaries = router.finish_all().unwrap();
        assert_eq!(summaries.len(), keys.len());
        let mut decoded: BTreeMap<FlowKey, Vec<u8>> = BTreeMap::new();
        for flow in router.drain_events() {
            let out = decoded.entry(flow.key).or_default();
            pool.decode_batch(&flow, out).unwrap();
        }
        for &key in &keys {
            assert_eq!(decoded[&key], fed[&key], "{key} mismatch");
        }
    }

    #[test]
    fn control_cursor_rejects_reordered_updates() {
        let mut pool = FlowDecoderPool::new(small_config());
        let key = FlowKey::new(3, 3);
        pool.open(key).unwrap();
        let update = |seq: u64| DictionaryUpdate {
            seq,
            at: 0,
            op: UpdateOp::Remove { id: 0 },
        };
        pool.observe_control(key, &update(0)).unwrap();
        pool.observe_control(key, &update(5)).unwrap();
        assert!(matches!(
            pool.observe_control(key, &update(2)).unwrap_err(),
            FlowError::ControlOutOfOrder {
                seq: 2,
                expected: 6,
                ..
            }
        ));
    }
}
