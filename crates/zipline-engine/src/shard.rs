//! The hash-sharded basis dictionary.
//!
//! Chunks are independent until the dictionary step, so the dictionary is
//! the only serialization point of batch compression. [`ShardedDictionary`]
//! removes it: the identifier space (`2^id_bits`) is split into `S` equal
//! slices, each backed by an independent [`BasisDictionary`], and a basis is
//! routed to shard `hash_words(basis) mod S`. Because a basis always lands
//! in the same shard, per-shard state evolves deterministically in input
//! order — the compressed output depends only on the shard count, never on
//! how many worker threads processed the batch (the property-test suite
//! enforces this).
//!
//! Identifier layout: shard `s` owns the *global* identifiers
//! `[s * shard_capacity, (s + 1) * shard_capacity)`; within the shard the
//! backing dictionary allocates *local* identifiers from `0`. A decoder can
//! therefore route a `Ref` record to its shard with one division, and a
//! `NewBasis` record with the same basis hash the compressor used. With
//! `S = 1` the layout degenerates to the unsharded dictionary, which is what
//! makes the 1-shard engine bit-identical to [`zipline_gd::GdCompressor`].
//!
//! [`DictionarySnapshot`] is the merged, shard-transparent view: global
//! `(identifier, basis)` pairs plus per-shard occupancy and counters. A
//! warm restart re-announces the live mappings from it; it cannot sync a
//! decoder on its own, because a post-hoc snapshot aliases identifiers the
//! dictionary recycled.
//!
//! Decoder sync — exact even once the dictionary churns past its capacity
//! and identifiers are recycled — runs on each shard's **update
//! journal**: [`enable_journal`](ShardedDictionary::enable_journal)
//! makes [`classify_at`](ShardedDictionary::classify_at) record an
//! [`UpdateOp::Remove`] for each evicted mapping and an [`UpdateOp::Install`]
//! for each learned basis, tagged with the caller's record position and a
//! per-shard monotonic sequence number.
//! [`take_delta`](ShardedDictionary::take_delta) drains the journals into a
//! [`DictionaryDelta`] whose ordering is deterministic for a given
//! `(data, shard count)` — see the [`DictionaryDelta`] docs for the exact
//! guarantees.

use zipline_gd::bits::BitVec;
use zipline_gd::config::GdConfig;
use zipline_gd::dictionary::{BasisDictionary, BasisDictionaryState, EvictionPolicy};
use zipline_gd::error::{GdError, Result};

/// Per-shard dictionary counters.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct ShardStats {
    /// Basis lookups routed to this shard.
    pub lookups: u64,
    /// Lookups that found their basis (emitted as `Ref` records).
    pub hits: u64,
    /// Bases learned (emitted as `NewBasis` records).
    pub learned: u64,
    /// Mappings evicted by the shard's LRU policy.
    pub evictions: u64,
}

/// One dictionary mutation, as recorded by a shard's update journal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateOp {
    /// `id → basis` was (re)assigned; a decoder must install the mapping
    /// before the first `Ref` record that uses it.
    Install {
        /// Global identifier assigned.
        id: u64,
        /// The basis now living at `id`.
        basis: BitVec,
    },
    /// The mapping at `id` was evicted to make room; the retired basis must
    /// stop being decodable under this identifier.
    Remove {
        /// Global identifier being recycled.
        id: u64,
    },
}

impl UpdateOp {
    /// Global identifier the operation applies to.
    pub fn id(&self) -> u64 {
        match self {
            UpdateOp::Install { id, .. } | UpdateOp::Remove { id } => *id,
        }
    }
}

/// One journaled dictionary mutation with its ordering metadata.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictionaryUpdate {
    /// Globally monotonic sequence number, assigned when journals are merged
    /// into a [`DictionaryDelta`]; strictly increasing across the lifetime of
    /// the dictionary (and therefore across batches).
    pub seq: u64,
    /// Caller-supplied record position (input-order index within the batch)
    /// at which the mutation happened. A decoder that applies every update
    /// with `at <= i` before decoding record `i` always resolves `Ref`
    /// records against the basis the compressor referenced.
    pub at: u64,
    /// The mutation itself.
    pub op: UpdateOp,
}

/// Ordered batch of dictionary mutations, merged from every shard's journal.
///
/// # Ordering guarantees
///
/// * Updates are sorted by `(at, shard, per-shard order)` and `seq` is
///   strictly increasing in that order, so per-identifier causality is
///   preserved (identifiers are partitioned by shard and each shard journals
///   in input order).
/// * An eviction always journals its `Remove` immediately before the
///   `Install` that recycles the identifier, at the same `at`.
/// * The delta is a pure function of `(data, shard count)`: worker count and
///   spawn policy never change it (enforced by the engine property tests).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DictionaryDelta {
    /// The mutations, in the order a decoder must apply them.
    pub updates: Vec<DictionaryUpdate>,
}

impl DictionaryDelta {
    /// Number of updates in the delta.
    pub fn len(&self) -> usize {
        self.updates.len()
    }

    /// True when the delta carries no update.
    pub fn is_empty(&self) -> bool {
        self.updates.is_empty()
    }
}

/// One journal entry before merging: per-shard sequence, record position and
/// the operation.
#[derive(Debug, Clone)]
struct JournalEntry {
    seq: u64,
    at: u64,
    op: UpdateOp,
}

/// One shard: an independent dictionary slice with its own logical clock.
#[derive(Debug, Clone)]
struct Shard {
    dict: BasisDictionary,
    /// Logical clock, ticked once per record routed to this shard. Keeping
    /// the clock per shard (rather than global) is what makes shard state
    /// independent of how records interleave across shards.
    clock: u64,
    stats: ShardStats,
    /// First global identifier owned by this shard.
    base: u64,
    /// Update journal (empty unless journaling is enabled).
    journal: Vec<JournalEntry>,
    /// Per-shard monotonic journal sequence.
    journal_seq: u64,
    /// Whether classify records install/evict events.
    journal_enabled: bool,
}

/// Outcome of routing one encoded chunk through its shard.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardOutcome {
    /// The basis was already known; emit a `Ref` to this global identifier.
    Known {
        /// Global identifier of the basis.
        id: u64,
    },
    /// The basis was learned; emit a `NewBasis` record.
    Learned {
        /// Global identifier assigned (implicit on the wire).
        id: u64,
        /// True when learning evicted an older mapping.
        evicted: bool,
    },
}

impl ShardOutcome {
    /// The global identifier the basis is known or was learned under.
    pub fn id(&self) -> u64 {
        match self {
            ShardOutcome::Known { id } | ShardOutcome::Learned { id, .. } => *id,
        }
    }
}

/// Shared per-shard classification logic (single-threaded and handle forms).
/// `at` is the caller's record position, recorded in the journal when
/// journaling is enabled.
fn classify_in(shard: &mut Shard, basis: &BitVec, hash: u64, at: u64) -> Result<ShardOutcome> {
    shard.clock += 1;
    shard.stats.lookups += 1;
    if let Some(local) = shard
        .dict
        .lookup_basis_hashed(basis, hash, shard.clock, true)
    {
        shard.stats.hits += 1;
        return Ok(ShardOutcome::Known {
            id: shard.base + local,
        });
    }
    let outcome = shard.dict.insert_hashed(basis.clone(), hash, shard.clock)?;
    shard.stats.learned += 1;
    let evicted = outcome.evicted.is_some();
    if evicted {
        shard.stats.evictions += 1;
    }
    if shard.journal_enabled {
        // Retire the victim first, then install the new mapping — the same
        // order the control plane must replay them in.
        if let Some((victim, _)) = &outcome.evicted {
            let seq = shard.journal_seq;
            shard.journal_seq += 1;
            shard.journal.push(JournalEntry {
                seq,
                at,
                op: UpdateOp::Remove {
                    id: shard.base + victim,
                },
            });
        }
        let seq = shard.journal_seq;
        shard.journal_seq += 1;
        shard.journal.push(JournalEntry {
            seq,
            at,
            op: UpdateOp::Install {
                id: shard.base + outcome.id,
                basis: basis.clone(),
            },
        });
    }
    Ok(ShardOutcome::Learned {
        id: shard.base + outcome.id,
        evicted,
    })
}

/// `N` independent [`BasisDictionary`] shards selected by basis hash.
#[derive(Debug, Clone)]
pub struct ShardedDictionary {
    shards: Vec<Shard>,
    shard_capacity: usize,
    /// Global sequence counter for merged deltas (see [`Self::take_delta`]).
    delta_seq: u64,
}

impl ShardedDictionary {
    /// Creates a dictionary of `capacity` total identifiers split across
    /// `shards` shards. The shard count must be a power of two that divides
    /// the capacity (so every shard owns an equal identifier slice).
    pub fn new(capacity: usize, shards: usize) -> Result<Self> {
        if shards == 0 || !shards.is_power_of_two() {
            return Err(GdError::InvalidConfig(format!(
                "shard count {shards} must be a non-zero power of two"
            )));
        }
        if shards > capacity || !capacity.is_multiple_of(shards) {
            return Err(GdError::InvalidConfig(format!(
                "cannot split {capacity} identifiers across {shards} shards evenly"
            )));
        }
        let shard_capacity = capacity / shards;
        Ok(Self {
            shards: (0..shards)
                .map(|s| Shard {
                    dict: BasisDictionary::new(shard_capacity),
                    clock: 0,
                    stats: ShardStats::default(),
                    base: (s * shard_capacity) as u64,
                    journal: Vec::new(),
                    journal_seq: 0,
                    journal_enabled: false,
                })
                .collect(),
            shard_capacity,
            delta_seq: 0,
        })
    }

    /// Creates a dictionary sized for a GD configuration
    /// (`2^id_bits` identifiers).
    pub fn for_config(config: &GdConfig, shards: usize) -> Result<Self> {
        Self::new(config.dictionary_capacity(), shards)
    }

    /// Number of shards.
    pub fn num_shards(&self) -> usize {
        self.shards.len()
    }

    /// Identifiers owned by each shard.
    pub fn shard_capacity(&self) -> usize {
        self.shard_capacity
    }

    /// Total identifier capacity across all shards.
    pub fn capacity(&self) -> usize {
        self.shard_capacity * self.shards.len()
    }

    /// Total number of mappings across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.dict.len()).sum()
    }

    /// True when no shard holds a mapping.
    pub fn is_empty(&self) -> bool {
        self.shards.iter().all(|s| s.dict.is_empty())
    }

    /// Shard that a basis with the given [`BitVec::hash_words`] value is
    /// routed to.
    pub fn shard_of_hash(&self, hash: u64) -> usize {
        (hash % self.shards.len() as u64) as usize
    }

    /// Shard that owns a global identifier.
    pub fn shard_of_id(&self, id: u64) -> usize {
        (id / self.shard_capacity as u64) as usize
    }

    /// A global identifier as `(owning shard, identifier local to it)`.
    pub fn split_id(&self, id: u64) -> (usize, u64) {
        let shard = self.shard_of_id(id);
        (shard, id - (shard * self.shard_capacity) as u64)
    }

    /// Per-shard counters, indexed by shard.
    pub fn shard_stats(&self) -> Vec<ShardStats> {
        self.shards.iter().map(|s| s.stats).collect()
    }

    /// Per-shard occupancy, indexed by shard.
    pub fn shard_lens(&self) -> Vec<usize> {
        self.shards.iter().map(|s| s.dict.len()).collect()
    }

    /// Routes one encoded chunk through its shard: ticks the shard clock,
    /// looks the basis up (touching recency) and learns it on a miss —
    /// exactly the dictionary step of [`zipline_gd::GdCompressor`], per
    /// shard. On a journaling dictionary use [`Self::classify_at`] instead:
    /// events journaled without a real record position would sort before the
    /// whole batch and re-introduce the aliasing this machinery exists to
    /// prevent (debug-asserted).
    pub fn classify(&mut self, shard: usize, basis: &BitVec, hash: u64) -> Result<ShardOutcome> {
        debug_assert!(
            !self.shards[shard].journal_enabled,
            "journaling dictionaries must classify with an explicit position (classify_at)"
        );
        self.classify_at(shard, basis, hash, 0)
    }

    /// [`Self::classify`] with an explicit record position `at`, recorded on
    /// any install/evict event the classification journals.
    pub fn classify_at(
        &mut self,
        shard: usize,
        basis: &BitVec,
        hash: u64,
        at: u64,
    ) -> Result<ShardOutcome> {
        classify_in(&mut self.shards[shard], basis, hash, at)
    }

    /// Turns update journaling on or off. While on, every learned basis
    /// records an [`UpdateOp::Install`] (preceded by an [`UpdateOp::Remove`]
    /// when it evicts) for [`Self::take_delta`] to collect. Off by default —
    /// a decode-side dictionary must not accumulate a journal nobody drains;
    /// turning it off discards any undrained events, restoring the zero-cost
    /// default (the global sequence counter is preserved, so re-enabling
    /// continues monotonically).
    pub fn set_journal(&mut self, enabled: bool) {
        for shard in &mut self.shards {
            shard.journal_enabled = enabled;
            if !enabled {
                shard.journal.clear();
            }
        }
    }

    /// [`Self::set_journal`]`(true)`.
    pub fn enable_journal(&mut self) {
        self.set_journal(true);
    }

    /// True when update journaling is enabled.
    pub fn journal_enabled(&self) -> bool {
        self.shards.iter().any(|s| s.journal_enabled)
    }

    /// [`Self::set_journal`]`(false)`.
    pub fn disable_journal(&mut self) {
        self.set_journal(false);
    }

    /// Drains every shard's journal into one ordered [`DictionaryDelta`]:
    /// entries are merged by `(at, shard, per-shard sequence)` and stamped
    /// with globally monotonic sequence numbers. Deterministic for a given
    /// `(data, shard count)` regardless of worker threading.
    pub fn take_delta(&mut self) -> DictionaryDelta {
        let mut entries: Vec<(usize, JournalEntry)> = Vec::new();
        for (index, shard) in self.shards.iter_mut().enumerate() {
            entries.extend(shard.journal.drain(..).map(|e| (index, e)));
        }
        entries.sort_unstable_by_key(|(shard, e)| (e.at, *shard, e.seq));
        let updates = entries
            .into_iter()
            .map(|(_, e)| {
                let seq = self.delta_seq;
                self.delta_seq += 1;
                DictionaryUpdate {
                    seq,
                    at: e.at,
                    op: e.op,
                }
            })
            .collect();
        DictionaryDelta { updates }
    }

    /// Decode-side mirror of the learning half of [`Self::classify`]: ticks
    /// the shard clock and inserts the basis. Used when replaying `NewBasis`
    /// records. [`ShardOutcome::Known`] means the basis already sat under
    /// that identifier (an `Install` announced it ahead of its payload) and
    /// was only refreshed, so whatever the caller derived from the
    /// identifier's basis still holds.
    pub fn learn(&mut self, shard: usize, basis: BitVec, hash: u64) -> Result<ShardOutcome> {
        let s = &mut self.shards[shard];
        s.clock += 1;
        s.stats.lookups += 1;
        let outcome = s.dict.insert_hashed(basis, hash, s.clock)?;
        let id = s.base + outcome.id;
        if outcome.already_known {
            s.stats.hits += 1;
            return Ok(ShardOutcome::Known { id });
        }
        s.stats.learned += 1;
        let evicted = outcome.evicted.is_some();
        if evicted {
            s.stats.evictions += 1;
        }
        Ok(ShardOutcome::Learned { id, evicted })
    }

    /// Decode-side lookup of a global identifier: ticks the owning shard's
    /// clock, touches the entry and returns a reference to its basis.
    pub fn lookup_id_ref(&mut self, id: u64, touch: bool) -> Option<&BitVec> {
        self.locate_id(id, touch).map(|(_, _, basis)| basis)
    }

    /// [`Self::lookup_id_ref`] that also says where the identifier lives:
    /// `(owning shard, identifier local to it, basis)`.
    pub fn locate_id(&mut self, id: u64, touch: bool) -> Option<(usize, u64, &BitVec)> {
        let shard = self.shard_of_id(id);
        let s = self.shards.get_mut(shard)?;
        s.clock += 1;
        let local = id - s.base;
        let basis = s.dict.lookup_id_ref(local, s.clock, touch)?;
        Some((shard, local, basis))
    }

    /// Disjoint mutable handles to every shard, for fan-out across worker
    /// threads. Handle `i` operates on shard `i`; distributing handles
    /// round-robin over threads keeps each shard owned by exactly one
    /// thread, which is all the synchronization the engine needs.
    pub fn shard_handles(&mut self) -> Vec<ShardHandle<'_>> {
        self.shards
            .iter_mut()
            .enumerate()
            .map(|(index, shard)| ShardHandle { shard, index })
            .collect()
    }

    /// Next sequence number [`Self::take_delta`] will stamp. The persistence
    /// layer records it in checkpoints so a restored dictionary continues
    /// the global update ordering where the crashed one stopped.
    pub fn delta_seq(&self) -> u64 {
        self.delta_seq
    }

    /// Exports the complete behavioural state: every shard's dictionary
    /// ([`zipline_gd::BasisDictionaryState`]), clock and counters, plus the
    /// global delta sequence. Undrained journal entries are *not* part of
    /// the state — the persistence layer always drains ([`Self::take_delta`])
    /// before checkpointing. Restoring via [`Self::from_state`] yields a
    /// dictionary whose future outputs are bit-identical to the original's.
    pub fn export_state(&self) -> DictionaryState {
        DictionaryState {
            shard_count: self.shards.len(),
            shard_capacity: self.shard_capacity,
            delta_seq: self.delta_seq,
            shards: self
                .shards
                .iter()
                .map(|s| ShardState {
                    clock: s.clock,
                    stats: s.stats,
                    dict: s.dict.export_state(),
                })
                .collect(),
        }
    }

    /// Rebuilds a dictionary from an exported state (journaling off; the
    /// caller re-enables it for live sync). Structural inconsistencies fail
    /// loudly rather than silently misrestore.
    pub fn from_state(state: &DictionaryState) -> Result<Self> {
        if state.shards.len() != state.shard_count {
            return Err(GdError::InvalidConfig(format!(
                "dictionary state declares {} shards but carries {}",
                state.shard_count,
                state.shards.len()
            )));
        }
        let mut d = Self::new(state.shard_capacity * state.shard_count, state.shard_count)?;
        for (shard, restored) in d.shards.iter_mut().zip(&state.shards) {
            shard.dict = BasisDictionary::from_state(
                state.shard_capacity,
                EvictionPolicy::Lru,
                None,
                &restored.dict,
            )?;
            shard.clock = restored.clock;
            shard.stats = restored.stats;
        }
        d.delta_seq = state.delta_seq;
        Ok(d)
    }

    /// Replays one journaled update against the dictionary — the delta-fold
    /// primitive behind crash recovery when the newest checkpoint predates
    /// the last committed batch. The resulting `identifier → basis` mapping
    /// is exactly what the original dictionary held after journaling the
    /// update; recency metadata is approximated (one clock tick per applied
    /// update), so delta-fold recovery is *consistent* rather than bit-exact
    /// — see the persist module docs. Updates must arrive in `seq` order; a
    /// stale or repeated sequence number (a duplicated log tail) fails
    /// loudly.
    pub fn apply_update(&mut self, update: &DictionaryUpdate) -> Result<()> {
        if update.seq < self.delta_seq {
            return Err(GdError::InvalidConfig(format!(
                "replayed update seq {} is stale (dictionary is at {}) — \
                 duplicated or reordered event stream",
                update.seq, self.delta_seq
            )));
        }
        let id = update.op.id();
        let shard_index = self.shard_of_id(id);
        let Some(s) = self.shards.get_mut(shard_index) else {
            return Err(GdError::InvalidConfig(format!(
                "replayed update for id {id} maps to shard {shard_index} \
                 of {}",
                self.shards.len()
            )));
        };
        let local = id - s.base;
        match &update.op {
            UpdateOp::Install { basis, .. } => {
                s.clock += 1;
                let now = s.clock;
                s.dict.install_at(local, basis.clone(), now)?;
            }
            UpdateOp::Remove { .. } => {
                if s.dict.remove_id(local).is_none() {
                    return Err(GdError::InvalidConfig(format!(
                        "replayed remove for id {id} with no live mapping"
                    )));
                }
            }
        }
        self.delta_seq = update.seq + 1;
        Ok(())
    }

    /// Merged, shard-transparent view of the dictionary.
    pub fn snapshot(&self) -> DictionarySnapshot {
        let mut entries: Vec<(u64, BitVec)> = self
            .shards
            .iter()
            .flat_map(|s| {
                s.dict
                    .iter()
                    .map(move |(local, basis)| (s.base + local, basis.clone()))
            })
            .collect();
        entries.sort_unstable_by_key(|(id, _)| *id);
        DictionarySnapshot {
            shard_count: self.shards.len(),
            shard_capacity: self.shard_capacity,
            entries,
            shard_stats: self.shard_stats(),
            shard_lens: self.shard_lens(),
        }
    }
}

/// Exclusive access to one shard, handed to a worker thread.
#[derive(Debug)]
pub struct ShardHandle<'a> {
    shard: &'a mut Shard,
    index: usize,
}

impl ShardHandle<'_> {
    /// Index of the shard this handle owns.
    pub fn index(&self) -> usize {
        self.index
    }

    /// See [`ShardedDictionary::classify`] (same journaling caveat: use
    /// [`Self::classify_at`] on a journaling dictionary).
    pub fn classify(&mut self, basis: &BitVec, hash: u64) -> Result<ShardOutcome> {
        debug_assert!(
            !self.shard.journal_enabled,
            "journaling dictionaries must classify with an explicit position (classify_at)"
        );
        classify_in(self.shard, basis, hash, 0)
    }

    /// See [`ShardedDictionary::classify_at`].
    pub fn classify_at(&mut self, basis: &BitVec, hash: u64, at: u64) -> Result<ShardOutcome> {
        classify_in(self.shard, basis, hash, at)
    }
}

/// Per-shard slice of a [`DictionaryState`] export.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardState {
    /// The shard's logical clock.
    pub clock: u64,
    /// The shard's counters.
    pub stats: ShardStats,
    /// Full behavioural state of the backing dictionary.
    pub dict: BasisDictionaryState,
}

/// The complete behavioural state of a [`ShardedDictionary`] — what the
/// persistence layer's checkpoint records serialize. Unlike the sync-oriented
/// [`DictionarySnapshot`] (live mappings only), this captures recency order,
/// identifier pools, clocks and counters, so a restored dictionary evolves
/// bit-identically to the original.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictionaryState {
    /// Number of shards.
    pub shard_count: usize,
    /// Identifiers owned by each shard.
    pub shard_capacity: usize,
    /// Next global delta sequence number.
    pub delta_seq: u64,
    /// Per-shard state, indexed by shard.
    pub shards: Vec<ShardState>,
}

/// Merged view of a [`ShardedDictionary`] at a point in time: every
/// `(global identifier, basis)` mapping plus per-shard statistics. This is
/// what the control plane ships to a decoder to sync its deviation table
/// (identifier → basis) with an engine-compressed stream.
#[derive(Debug, Clone)]
pub struct DictionarySnapshot {
    /// Number of shards the dictionary was split into.
    pub shard_count: usize,
    /// Identifiers owned by each shard.
    pub shard_capacity: usize,
    /// All mappings, sorted by global identifier.
    pub entries: Vec<(u64, BitVec)>,
    /// Per-shard counters, indexed by shard.
    pub shard_stats: Vec<ShardStats>,
    /// Per-shard occupancy, indexed by shard.
    pub shard_lens: Vec<usize>,
}

impl DictionarySnapshot {
    /// Number of mappings in the snapshot.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when the snapshot holds no mapping.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn basis(v: u64) -> BitVec {
        BitVec::from_u64(v, 16)
    }

    #[test]
    fn shard_counts_must_divide_capacity() {
        assert!(ShardedDictionary::new(16, 1).is_ok());
        assert!(ShardedDictionary::new(16, 4).is_ok());
        assert!(ShardedDictionary::new(16, 16).is_ok());
        assert!(ShardedDictionary::new(16, 0).is_err());
        assert!(ShardedDictionary::new(16, 3).is_err());
        assert!(ShardedDictionary::new(16, 32).is_err());
    }

    #[test]
    fn global_identifiers_partition_by_shard() {
        let mut d = ShardedDictionary::new(64, 4).unwrap();
        assert_eq!(d.shard_capacity(), 16);
        for v in 0..12u64 {
            let b = basis(v);
            let h = b.hash_words();
            let shard = d.shard_of_hash(h);
            match d.classify(shard, &b, h).unwrap() {
                ShardOutcome::Learned { id, .. } => {
                    assert_eq!(d.shard_of_id(id), shard, "id {id} maps back to its shard");
                }
                ShardOutcome::Known { .. } => panic!("fresh basis cannot be known"),
            }
        }
        assert_eq!(d.len(), 12);
    }

    #[test]
    fn known_bases_resolve_to_the_same_identifier() {
        let mut d = ShardedDictionary::new(8, 2).unwrap();
        let b = basis(7);
        let h = b.hash_words();
        let shard = d.shard_of_hash(h);
        let first = d.classify(shard, &b, h).unwrap();
        let second = d.classify(shard, &b, h).unwrap();
        let ShardOutcome::Learned { id: learned, .. } = first else {
            panic!("first sighting learns");
        };
        assert_eq!(second, ShardOutcome::Known { id: learned });
        let stats = d.shard_stats()[shard];
        assert_eq!(stats.lookups, 2);
        assert_eq!(stats.hits, 1);
        assert_eq!(stats.learned, 1);
    }

    #[test]
    fn one_shard_matches_plain_dictionary_ids() {
        let mut sharded = ShardedDictionary::new(8, 1).unwrap();
        let mut plain = BasisDictionary::new(8);
        let mut clock = 0u64;
        for v in [3u64, 9, 3, 12, 9, 20, 3] {
            let b = basis(v);
            let h = b.hash_words();
            clock += 1;
            let plain_id = match plain.lookup_basis_hashed(&b, h, clock, true) {
                Some(id) => id,
                None => plain.insert_hashed(b.clone(), h, clock).unwrap().id,
            };
            let sharded_id = match sharded.classify(0, &b, h).unwrap() {
                ShardOutcome::Known { id } | ShardOutcome::Learned { id, .. } => id,
            };
            assert_eq!(plain_id, sharded_id, "value {v}");
        }
    }

    #[test]
    fn learn_and_lookup_mirror_classify() {
        // Compressor side.
        let mut comp = ShardedDictionary::new(8, 2).unwrap();
        // Decoder side, driven only by what the records would carry.
        let mut dec = ShardedDictionary::new(8, 2).unwrap();
        for v in [1u64, 2, 1, 3, 2, 1, 4, 4, 1] {
            let b = basis(v);
            let h = b.hash_words();
            let shard = comp.shard_of_hash(h);
            match comp.classify(shard, &b, h).unwrap() {
                ShardOutcome::Learned { id, evicted } => {
                    let learned = dec.learn(dec.shard_of_hash(h), b.clone(), h).unwrap();
                    assert_eq!(
                        learned,
                        ShardOutcome::Learned { id, evicted },
                        "decoder assigns the same id"
                    );
                    assert_eq!(
                        dec.learn(dec.shard_of_hash(h), b.clone(), h).unwrap(),
                        ShardOutcome::Known { id },
                        "a basis announced twice is refreshed, not reassigned"
                    );
                    comp.classify(shard, &b, h).unwrap();
                }
                ShardOutcome::Known { id } => {
                    assert_eq!(
                        dec.lookup_id_ref(id, true),
                        Some(&b),
                        "decoder resolves id {id}"
                    );
                }
            }
        }
    }

    #[test]
    fn journaling_is_off_by_default_and_records_when_enabled() {
        let mut d = ShardedDictionary::new(4, 2).unwrap();
        assert!(!d.journal_enabled());
        let b = basis(1);
        let h = b.hash_words();
        d.classify_at(d.shard_of_hash(h), &b, h, 0).unwrap();
        assert!(d.take_delta().is_empty(), "nothing journaled while off");

        d.enable_journal();
        assert!(d.journal_enabled());
        // Fill one shard past its 2-identifier slice to force an eviction.
        let mut at = 0u64;
        let mut learned = Vec::new();
        for v in 0..64u64 {
            let b = basis(v);
            let h = b.hash_words();
            let shard = d.shard_of_hash(h);
            at += 1;
            if let ShardOutcome::Learned { id, .. } = d.classify_at(shard, &b, h, at).unwrap() {
                learned.push((at, id));
            }
        }
        let delta = d.take_delta();
        assert!(!delta.is_empty());
        // Sorted by position, seq strictly increasing from zero.
        assert!(delta
            .updates
            .windows(2)
            .all(|w| w[0].at <= w[1].at && w[0].seq < w[1].seq));
        assert_eq!(delta.updates[0].seq, 0);
        // Every learned basis has its install at the position it happened.
        let installs: Vec<(u64, u64)> = delta
            .updates
            .iter()
            .filter_map(|u| match &u.op {
                UpdateOp::Install { id, .. } => Some((u.at, *id)),
                UpdateOp::Remove { .. } => None,
            })
            .collect();
        assert_eq!(installs, learned);
        // A second drain yields nothing, but keeps the global sequence.
        assert!(d.take_delta().is_empty());
        let b = basis(1000);
        let h = b.hash_words();
        d.classify_at(d.shard_of_hash(h), &b, h, 0).unwrap();
        let next = d.take_delta();
        assert_eq!(next.updates[0].seq, delta.updates.last().unwrap().seq + 1);

        // Disabling restores the zero-cost default (and positionless
        // classify becomes legal again).
        d.disable_journal();
        assert!(!d.journal_enabled());
        let b = basis(2000);
        let h = b.hash_words();
        d.classify(d.shard_of_hash(h), &b, h).unwrap();
        assert!(d.take_delta().is_empty());
    }

    /// Churns a journaling dictionary through `values` distinct bases,
    /// returning the drained delta.
    fn churn(d: &mut ShardedDictionary, values: std::ops::Range<u64>) -> DictionaryDelta {
        for (at, v) in values.enumerate() {
            let b = basis(v);
            let h = b.hash_words();
            let shard = d.shard_of_hash(h);
            d.classify_at(shard, &b, h, at as u64).unwrap();
        }
        d.take_delta()
    }

    #[test]
    fn export_then_restore_yields_bit_identical_future_deltas() {
        let mut original = ShardedDictionary::new(8, 2).unwrap();
        original.enable_journal();
        churn(&mut original, 0..40);

        let state = original.export_state();
        let mut restored = ShardedDictionary::from_state(&state).unwrap();
        assert!(!restored.journal_enabled(), "restore leaves journaling off");
        assert_eq!(restored.export_state(), state, "export is a fixed point");
        restored.enable_journal();

        // Same tail of work produces the same classifications AND the same
        // delta (ids, order, global sequence numbers).
        let delta_a = churn(&mut original, 40..90);
        let delta_b = churn(&mut restored, 40..90);
        assert_eq!(delta_a, delta_b);
        assert_eq!(original.shard_stats(), restored.shard_stats());
        assert_eq!(original.delta_seq(), restored.delta_seq());
    }

    #[test]
    fn from_state_rejects_inconsistent_shape() {
        let d = ShardedDictionary::new(8, 2).unwrap();
        let mut state = d.export_state();
        state.shards.pop();
        assert!(ShardedDictionary::from_state(&state).is_err());
    }

    #[test]
    fn apply_update_folds_a_delta_to_the_same_mapping() {
        let mut original = ShardedDictionary::new(8, 2).unwrap();
        original.enable_journal();
        let delta = churn(&mut original, 0..50);
        assert!(
            original.shard_stats().iter().any(|s| s.evictions > 0),
            "the workload must churn"
        );

        let mut replayed = ShardedDictionary::new(8, 2).unwrap();
        for update in &delta.updates {
            replayed.apply_update(update).unwrap();
        }
        let a = original.snapshot();
        let b = replayed.snapshot();
        assert_eq!(a.entries, b.entries, "identical id → basis mapping");
        assert_eq!(replayed.delta_seq(), original.delta_seq());
    }

    #[test]
    fn apply_update_rejects_stale_and_out_of_range_events() {
        let mut d = ShardedDictionary::new(8, 2).unwrap();
        let install = DictionaryUpdate {
            seq: 0,
            at: 0,
            op: UpdateOp::Install {
                id: 0,
                basis: basis(1),
            },
        };
        d.apply_update(&install).unwrap();
        // Replaying the same seq again = duplicated log tail.
        assert!(d.apply_update(&install).is_err());
        // Identifier outside every shard's slice.
        assert!(d
            .apply_update(&DictionaryUpdate {
                seq: 5,
                at: 0,
                op: UpdateOp::Remove { id: 99 },
            })
            .is_err());
        // Remove of a never-installed mapping.
        assert!(d
            .apply_update(&DictionaryUpdate {
                seq: 6,
                at: 0,
                op: UpdateOp::Remove { id: 5 },
            })
            .is_err());
    }

    #[test]
    fn snapshot_merges_all_shards_sorted() {
        let mut d = ShardedDictionary::new(16, 4).unwrap();
        for v in 0..10u64 {
            let b = basis(v);
            let h = b.hash_words();
            let shard = d.shard_of_hash(h);
            d.classify(shard, &b, h).unwrap();
        }
        let snap = d.snapshot();
        assert_eq!(snap.len(), 10);
        assert_eq!(snap.shard_count, 4);
        assert_eq!(snap.shard_lens.iter().sum::<usize>(), 10);
        assert!(snap.entries.windows(2).all(|w| w[0].0 < w[1].0));
        for (id, basis) in &snap.entries {
            assert_eq!(
                d.lookup_id_ref(*id, false),
                Some(basis),
                "snapshot id {id} resolves"
            );
        }
    }
}
