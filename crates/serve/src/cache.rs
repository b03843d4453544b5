//! The memoized characterization cache: characterize once per view
//! `(backend label, topology hash, fault-view hash, host shard)`, then
//! answer from memory until drift or a fault-view change invalidates that
//! one view.
//!
//! This is the §V discipline made long-running: the paper characterizes a
//! host once and reuses the model for every placement/prediction decision;
//! Bergstrom's STREAM study and bandwidth-aware placement work assume the
//! same memoize-don't-remeasure contract. The view key deliberately
//! captures everything a characterization depends on — which backend
//! measured it, what machine shape it saw, and which fault view was
//! applied — so invalidation can be *targeted*: arming a fault plan evicts
//! exactly the stale view, never the whole cache.
//!
//! Every lookup addresses one **slot** of a view through a [`ModelKey`]:
//! either one `(device, target, mode)` model or the assembled full
//! [`Atlas`]. Models are characterized lazily: a `classify` against node
//! 7's write model characterizes exactly that model, nothing else. This is
//! what lets the service run over a partial replay fixture (e.g. the
//! shipped `dl585.jsonl`, which records only the write direction against
//! node 7) — a request the fixture covers is answered and cached; one it
//! doesn't is a typed error, not a panic.
//!
//! There are two lookups. [`CharacterizationCache::peek`] is the warm
//! probe: one shared-lock read, no span, no event, hits counted.
//! [`CharacterizationCache::get`] is the traced path that characterizes on
//! a miss.

use crate::error::ServeError;
use crate::fast_hash::FxHashMap;
use numa_faults::{degraded_backend, FaultKind};
use numa_obs::{Counter, Obs};
use numa_par::json;
use numa_par::rng::{fnv1a64, FNV1A64_INIT};
use numa_topology::{NodeId, Topology};
use numio_core::{
    characterize_storage, recharacterize_and_diff, Atlas, DeviceSelector, IoModeler, IoPerfModel,
    Platform, TransferMode,
};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock};

/// Stable hash of a topology: FNV-1a of its canonical JSON serialization.
/// Not `DefaultHasher`: cache keys show up in obs events and fixtures, so
/// they must be reproducible across processes and Rust versions.
pub fn topology_hash(topo: &Topology) -> u64 {
    fnv1a64(FNV1A64_INIT, json::to_string(topo).as_bytes())
}

/// Stable hash of a fault view. The view is canonicalized (sorted by wire
/// name, deduplicated) first, so `[LinkDown, IrqStorm]` and
/// `[IrqStorm, LinkDown, IrqStorm]` key identically.
pub fn fault_view_hash(faults: &[FaultKind]) -> u64 {
    let mut names: Vec<String> = faults.iter().map(json::to_string).collect();
    names.sort();
    names.dedup();
    fnv1a64(FNV1A64_INIT, names.join(",").as_bytes())
}

/// What one cached characterization view is keyed by.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// `Platform::label()` of the backend that measured (or would measure).
    /// Shared, so building a [`ModelKey`] per request copies no string.
    pub backend: Arc<str>,
    /// [`topology_hash`] of the machine shape, or a node-count fallback
    /// for topology-less backends.
    pub topology_hash: u64,
    /// [`fault_view_hash`] of the applied fault view.
    pub fault_hash: u64,
    /// Host shard the view belongs to. Shard 0 is the service's own
    /// backend; fleet lookups key each generated host under its own
    /// shard so hit/miss accounting and invalidation stay per-host.
    pub host: u64,
}

impl CacheKey {
    /// The view a `(platform, fault view)` pair caches under in shard
    /// `host`: 0 for the service's own backend, `i + 1` for generated
    /// fleet host `i`. Backends without a topology key on their node
    /// count, so they still cache — the characterization itself will fail
    /// with a typed `NoTopology` error if the modeler needs one.
    pub fn new<P: Platform>(platform: &P, faults: &[FaultKind], host: u64) -> Self {
        let topology_hash = match platform.topology() {
            Some(t) => topology_hash(t),
            None => fnv1a64(
                FNV1A64_INIT,
                format!("nodes:{}", platform.num_nodes()).as_bytes(),
            ),
        };
        CacheKey {
            backend: platform.label().into(),
            topology_hash,
            fault_hash: fault_view_hash(faults),
            host,
        }
    }
}

/// Which slot of a view a lookup addresses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum Slot {
    /// One model: the probe path or a storage operating point, against
    /// one target in one direction.
    Model {
        /// The device view the model describes.
        device: DeviceSelector,
        /// Device node; always 0 under a storage selector.
        target: u16,
        /// Transfer direction.
        mode: TransferMode,
    },
    /// The assembled full-host probe atlas.
    Atlas,
}

/// One lookup: a view plus the slot within it. Built only through
/// [`ModelKey::model`] and [`ModelKey::atlas`], so a storage slot is always
/// keyed target-free.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct ModelKey {
    view: CacheKey,
    slot: Slot,
}

impl ModelKey {
    /// The `(device, target, mode)` model under `view`. A storage selector
    /// ignores `target` — the SSDs' attach node is the target by
    /// construction — so every target addresses the same storage slot.
    pub fn model(
        view: CacheKey,
        device: DeviceSelector,
        target: NodeId,
        mode: TransferMode,
    ) -> Self {
        let target = match device {
            DeviceSelector::Probe => target.0,
            DeviceSelector::Ssd(_) => 0,
        };
        ModelKey {
            view,
            slot: Slot::Model {
                device,
                target,
                mode,
            },
        }
    }

    /// The assembled full-host atlas under `view`.
    pub fn atlas(view: CacheKey) -> Self {
        ModelKey {
            view,
            slot: Slot::Atlas,
        }
    }
}

/// What a slot holds, handed out shared: a [`ModelKey::model`] slot holds
/// a model, the [`ModelKey::atlas`] slot the atlas.
#[derive(Debug, Clone)]
pub enum Cached {
    /// One characterized model.
    Model(Arc<IoPerfModel>),
    /// The assembled full-host atlas.
    Atlas(Arc<Atlas>),
}

/// Monotonic cache counters (mirrored as obs metrics).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups answered from memory.
    pub hits: u64,
    /// Lookups that paid a characterization.
    pub misses: u64,
    /// View keys evicted by drift or fault-view changes.
    pub invalidations: u64,
    /// View keys currently cached.
    pub entries: usize,
}

numa_par::json_struct! {
    /// Monotonic counters for one host shard of the cache. Shard 0 covers
    /// the service's own backend; fleet lookups land each generated host in
    /// its own shard (see [`CacheKey::host`]).
    #[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
    pub struct HostShardStats {
        /// The shard id ([`CacheKey::host`]).
        pub host: u64,
        /// Lookups answered from memory for this shard.
        pub hits: u64,
        /// Lookups that paid a characterization for this shard.
        pub misses: u64,
        /// View keys of this shard evicted so far.
        pub invalidations: u64,
    }
}

/// Per-shard counter cells. Atomics so the shared-lock fast path can
/// count without upgrading to a write lock.
#[derive(Default)]
struct ShardCounters {
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
}

/// Outcome of a drift re-check against the live backend.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DriftOutcome {
    /// Nothing cached under the key; nothing to re-check.
    NotCached,
    /// Re-measured model within tolerance; entry kept.
    Stable {
        /// Largest relative per-node delta observed.
        max_rel_delta: f64,
    },
    /// Re-measured model drifted past the threshold; entry evicted.
    Invalidated {
        /// Largest relative per-node delta observed.
        max_rel_delta: f64,
    },
}

/// Everything cached under one view key, by slot.
type ViewEntry = FxHashMap<Slot, Cached>;

/// Thread-safe memoization of characterizations.
///
/// Reads take a shared lock; the cold path characterizes while holding the
/// write lock, so concurrent first requests for one slot pay exactly one
/// characterization and the miss counter increments exactly once.
///
/// Both maps (views and the slots within a view) use the crate's Fx hash:
/// keys are server-derived, never attacker-controlled, and every request
/// hashes them at least once, so SipHash overhead is pure hot-path tax.
/// The `numio_serve_cache_*` counter handles are resolved once (registry
/// lookup is a lock + hash) and reused from then on.
pub struct CharacterizationCache {
    entries: RwLock<FxHashMap<CacheKey, ViewEntry>>,
    shards: RwLock<FxHashMap<u64, ShardCounters>>,
    hits: AtomicU64,
    misses: AtomicU64,
    invalidations: AtomicU64,
    obs: Obs,
    hits_counter: Counter,
    misses_counter: Counter,
    invalidations_counter: Counter,
}

impl CharacterizationCache {
    /// Empty cache with a private obs handle.
    pub fn new() -> Self {
        let obs = Obs::new();
        let hits_counter = obs.counter("numio_serve_cache_hits_total", &[]);
        let misses_counter = obs.counter("numio_serve_cache_misses_total", &[]);
        let invalidations_counter = obs.counter("numio_serve_cache_invalidations_total", &[]);
        CharacterizationCache {
            entries: RwLock::new(FxHashMap::default()),
            shards: RwLock::new(FxHashMap::default()),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            invalidations: AtomicU64::new(0),
            obs,
            hits_counter,
            misses_counter,
            invalidations_counter,
        }
    }

    /// Share an obs pipeline (events + `numio_serve_cache_*` counters).
    pub fn with_obs(mut self, obs: &Obs) -> Self {
        self.obs = obs.clone();
        self.hits_counter = self.obs.counter("numio_serve_cache_hits_total", &[]);
        self.misses_counter = self.obs.counter("numio_serve_cache_misses_total", &[]);
        self.invalidations_counter = self
            .obs
            .counter("numio_serve_cache_invalidations_total", &[]);
        self
    }

    /// The warm-path lookup: the slot's value, or `None` without counting
    /// anything.
    ///
    /// This is what the request loop tries first: one shared-lock
    /// acquisition, two Fx-hash map probes, no key derivation (the caller
    /// holds a precomputed view), no event and no stage span. A hit still
    /// counts in the `hits` atomic, the `numio_serve_cache_hits_total`
    /// counter and its shard, so stats and Prometheus series stay
    /// consistent with [`Self::get`]; on `None` the caller falls back to
    /// [`Self::get`], which does its own accounting.
    pub fn peek(&self, key: &ModelKey) -> Option<Cached> {
        let found = self.read_entries().get(&key.view)?.get(&key.slot)?.clone();
        self.tally_hit(key.view.host);
        Some(found)
    }

    /// The traced lookup: serve the slot from memory, or characterize it on
    /// the cold miss. `faults` must be the fault view `key.view` was built
    /// from: a non-empty view characterizes the degraded what-if backend
    /// ([`degraded_backend`]), whose fabric carries the derates — so a
    /// `device_stall` shows up in cached storage tables exactly as it does
    /// in the dynamic injection path.
    ///
    /// A model slot needs only its own probes, so partial backends (a
    /// replay fixture recorded for one target and direction) serve the
    /// requests they cover and fail the rest with a typed error. The atlas
    /// slot characterizes every probe model the view hasn't cached yet,
    /// reusing those it has, and counts as one lookup.
    pub fn get<P: Platform>(
        &self,
        key: &ModelKey,
        platform: &P,
        modeler: &IoModeler,
        faults: &[FaultKind],
    ) -> Result<Cached, ServeError> {
        let _stage = self.obs.stage_span("cache");
        let warm = self
            .read_entries()
            .get(&key.view)
            .and_then(|e| e.get(&key.slot))
            .cloned();
        if let Some(found) = warm {
            self.count_hit(&key.view);
            return Ok(found);
        }
        let mut entries = self.write_entries();
        // Double-checked: another worker may have filled the slot while we
        // waited for the write lock — that is a hit, not a second miss.
        if let Some(found) = entries.get(&key.view).and_then(|e| e.get(&key.slot)) {
            let found = found.clone();
            self.count_hit(&key.view);
            return Ok(found);
        }
        self.count_miss(&key.view);
        let _span = self.obs.stage_span("characterize");
        let entry = entries.entry(key.view.clone()).or_default();
        let found = if faults.is_empty() {
            fill(entry, key.slot, platform, modeler)
        } else {
            degraded_backend(platform, faults)
                .map_err(ServeError::from)
                .and_then(|degraded| fill(entry, key.slot, &degraded, modeler))
        };
        // A view whose first characterization failed is not cached.
        if entry.is_empty() {
            entries.remove(&key.view);
        }
        found
    }

    /// Evict one view key (all its slots). Returns whether an entry was
    /// actually removed (and only then counts an invalidation).
    pub fn invalidate(&self, key: &CacheKey) -> bool {
        let removed = self.write_entries().remove(key).is_some();
        if removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            self.invalidations_counter.inc();
            self.bump_shard(key.host, |s| &s.invalidations);
            self.emit("cache_invalidate", key);
        }
        removed
    }

    /// Evict every view key cached under one host shard (all fault views
    /// of that host). Returns how many keys were removed; each counts as
    /// one invalidation, globally and in the shard. This is the fleet
    /// analogue of [`Self::invalidate`]: regenerating or degrading one
    /// host never flushes its neighbours.
    pub fn invalidate_host(&self, host: u64) -> usize {
        let removed: Vec<CacheKey> = {
            let mut entries = self.write_entries();
            let keys: Vec<CacheKey> = entries.keys().filter(|k| k.host == host).cloned().collect();
            for key in &keys {
                entries.remove(key);
            }
            keys
        };
        for key in &removed {
            self.invalidations.fetch_add(1, Ordering::Relaxed);
            self.invalidations_counter.inc();
            self.bump_shard(host, |s| &s.invalidations);
            self.emit("cache_invalidate", key);
        }
        removed.len()
    }

    /// Re-measure one representative cached probe model — one against an
    /// I/O node (`Platform::io_nodes`), write first, else the lowest cached
    /// slot — against the live backend and evict the shard-0 view if the
    /// drift exceeds `threshold` (relative delta, e.g. `0.1` = 10%). Deterministic backends (sim, replay) are always
    /// stable; this is the hook a host deployment runs periodically.
    pub fn check_drift<P: Platform>(
        &self,
        platform: &P,
        modeler: &IoModeler,
        faults: &[FaultKind],
        threshold: f64,
    ) -> Result<DriftOutcome, ServeError> {
        let _stage = self.obs.stage_span("cache");
        let view = CacheKey::new(platform, faults, 0);
        let old = self
            .read_entries()
            .get(&view)
            .and_then(|e| drift_representative(e, &platform.io_nodes()));
        let Some(old) = old else {
            return Ok(DriftOutcome::NotCached);
        };
        let diff = if faults.is_empty() {
            recharacterize_and_diff(&old, platform, modeler)?
        } else {
            let degraded = degraded_backend(platform, faults)?;
            recharacterize_and_diff(&old, &degraded, modeler)?
        };
        let max_rel_delta = diff.max_rel_delta;
        if diff.is_stable(threshold) {
            Ok(DriftOutcome::Stable { max_rel_delta })
        } else {
            self.invalidate(&view);
            Ok(DriftOutcome::Invalidated { max_rel_delta })
        }
    }

    /// Monotonic counters + current size.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            entries: self.read_entries().len(),
        }
    }

    /// Per-host-shard counters, sorted by shard id. Empty until the first
    /// lookup; shard 0 (the service's own backend) appears alongside any
    /// fleet host shards once it has traffic.
    pub fn shard_stats(&self) -> Vec<HostShardStats> {
        let shards = self.read_shards();
        let mut out: Vec<HostShardStats> = shards
            .iter()
            .map(|(host, s)| HostShardStats {
                host: *host,
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                invalidations: s.invalidations.load(Ordering::Relaxed),
            })
            .collect();
        out.sort_by_key(|s| s.host);
        out
    }

    /// Number of cached view keys.
    pub fn len(&self) -> usize {
        self.read_entries().len()
    }

    /// No cached views yet?
    pub fn is_empty(&self) -> bool {
        self.read_entries().is_empty()
    }

    /// Is this view key currently cached?
    pub fn contains(&self, key: &CacheKey) -> bool {
        self.read_entries().contains_key(key)
    }

    /// Number of model slots (probe and storage) cached under `key`.
    pub fn models_cached(&self, key: &CacheKey) -> usize {
        self.read_entries().get(key).map_or(0, |e| {
            e.keys().filter(|s| matches!(s, Slot::Model { .. })).count()
        })
    }

    fn tally_hit(&self, host: u64) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        self.hits_counter.inc();
        self.bump_shard(host, |s| &s.hits);
    }

    fn count_hit(&self, key: &CacheKey) {
        self.tally_hit(key.host);
        self.emit("cache_hit", key);
    }

    fn count_miss(&self, key: &CacheKey) {
        self.misses.fetch_add(1, Ordering::Relaxed);
        self.misses_counter.inc();
        self.bump_shard(key.host, |s| &s.misses);
        self.emit("cache_miss", key);
    }

    /// Increment one counter cell of a shard, creating the shard on its
    /// first touch. The common case is a shared-lock read + atomic add.
    fn bump_shard(&self, host: u64, cell: impl Fn(&ShardCounters) -> &AtomicU64) {
        {
            let shards = self.read_shards();
            if let Some(s) = shards.get(&host) {
                cell(s).fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        let mut shards = self.shards.write().unwrap_or_else(|e| e.into_inner());
        cell(shards.entry(host).or_default()).fetch_add(1, Ordering::Relaxed);
    }

    fn emit(&self, name: &str, key: &CacheKey) {
        let seq = self.hits.load(Ordering::Relaxed) + self.misses.load(Ordering::Relaxed);
        self.obs.event(
            name,
            seq as f64,
            &[
                ("backend", (&*key.backend).into()),
                ("topology_hash", numa_obs::Value::U64(key.topology_hash)),
                ("fault_hash", numa_obs::Value::U64(key.fault_hash)),
                ("host", numa_obs::Value::U64(key.host)),
            ],
        );
    }

    fn read_entries(&self) -> std::sync::RwLockReadGuard<'_, FxHashMap<CacheKey, ViewEntry>> {
        self.entries.read().unwrap_or_else(|e| e.into_inner())
    }

    fn read_shards(&self) -> std::sync::RwLockReadGuard<'_, FxHashMap<u64, ShardCounters>> {
        self.shards.read().unwrap_or_else(|e| e.into_inner())
    }

    fn write_entries(&self) -> std::sync::RwLockWriteGuard<'_, FxHashMap<CacheKey, ViewEntry>> {
        self.entries.write().unwrap_or_else(|e| e.into_inner())
    }
}

impl Default for CharacterizationCache {
    fn default() -> Self {
        Self::new()
    }
}

/// Characterize `slot` on `platform` (the base backend or its degraded
/// what-if view) and memoize it, plus every probe model an atlas had to
/// characterize on the way, into `entry`.
fn fill<Q: Platform>(
    entry: &mut ViewEntry,
    slot: Slot,
    platform: &Q,
    modeler: &IoModeler,
) -> Result<Cached, ServeError> {
    let found = match slot {
        Slot::Model {
            device,
            target,
            mode,
        } => Cached::Model(Arc::new(match device {
            DeviceSelector::Probe => modeler.try_characterize(platform, NodeId(target), mode)?,
            DeviceSelector::Ssd(cfg) => characterize_storage(modeler, platform, cfg, mode)?,
        })),
        Slot::Atlas => {
            // Same slot order as `characterize_full_host`: targets
            // ascending, write before read — the assembled atlas is
            // bit-stable.
            let mut models = Vec::with_capacity(2 * platform.num_nodes());
            for k in 0..2 * platform.num_nodes() {
                let (target, mode) = (NodeId::new(k / 2), TransferMode::ALL[k % 2]);
                let probe = Slot::Model {
                    device: DeviceSelector::Probe,
                    target: target.0,
                    mode,
                };
                let model = match entry.get(&probe) {
                    Some(Cached::Model(m)) => Arc::clone(m),
                    _ => {
                        let fresh = Arc::new(modeler.try_characterize(platform, target, mode)?);
                        entry.insert(probe, Cached::Model(Arc::clone(&fresh)));
                        fresh
                    }
                };
                models.push((*model).clone());
            }
            Cached::Atlas(Arc::new(Atlas::new(models)?))
        }
    };
    entry.insert(slot, found.clone());
    Ok(found)
}

/// The probe model a drift check re-measures: a cached model whose target
/// is one of the backend's I/O nodes, preferring write, else the lowest
/// cached probe slot. Models against the I/O node are the ones Tables
/// IV/V describe and the ones a degraded link into that node shows up in;
/// a model against another target can measure identically on a changed
/// fabric.
fn drift_representative(entry: &ViewEntry, io_nodes: &[NodeId]) -> Option<Arc<IoPerfModel>> {
    let probes = || {
        entry
            .iter()
            .filter_map(|(slot, found)| match (slot, found) {
                (
                    Slot::Model {
                        device: DeviceSelector::Probe,
                        target,
                        mode,
                    },
                    Cached::Model(m),
                ) => Some((*target, *mode == TransferMode::Read, m)),
                _ => None,
            })
    };
    probes()
        .filter(|(target, ..)| io_nodes.contains(&NodeId(*target)))
        .min_by_key(|&(target, read, _)| (read, target))
        .or_else(|| probes().min_by_key(|&(target, read, _)| (target, read)))
        .map(|(.., m)| Arc::clone(m))
}

#[cfg(test)]
mod tests {
    use super::*;
    use numio_core::{SimPlatform, StorageConfig};

    const W: TransferMode = TransferMode::Write;
    const R: TransferMode = TransferMode::Read;

    fn modeler() -> IoModeler {
        IoModeler::new().reps(3)
    }

    /// The healthy shard-0 view of `p`.
    fn view(p: &SimPlatform) -> CacheKey {
        CacheKey::new(p, &[], 0)
    }

    fn probe(view: CacheKey, target: u16, mode: TransferMode) -> ModelKey {
        ModelKey::model(view, DeviceSelector::Probe, NodeId(target), mode)
    }

    fn storage(view: CacheKey, cfg: StorageConfig, mode: TransferMode) -> ModelKey {
        ModelKey::model(view, DeviceSelector::Ssd(cfg), NodeId(7), mode)
    }

    /// A traced lookup that must succeed.
    fn get<P: Platform>(
        cache: &CharacterizationCache,
        p: &P,
        key: &ModelKey,
        faults: &[FaultKind],
    ) -> Cached {
        cache.get(key, p, &modeler(), faults).unwrap()
    }

    fn model(found: Cached) -> Arc<IoPerfModel> {
        match found {
            Cached::Model(m) => m,
            other => panic!("expected a model, got {other:?}"),
        }
    }

    fn atlas(found: Cached) -> Arc<Atlas> {
        match found {
            Cached::Atlas(a) => a,
            other => panic!("expected an atlas, got {other:?}"),
        }
    }

    /// `(hits, misses)` so far.
    fn counts(cache: &CharacterizationCache) -> (u64, u64) {
        let s = cache.stats();
        (s.hits, s.misses)
    }

    #[test]
    fn cold_miss_then_hits_share_one_atlas() {
        let (cache, p) = (CharacterizationCache::new(), SimPlatform::dl585());
        let key = ModelKey::atlas(view(&p));
        let first = atlas(get(&cache, &p, &key, &[]));
        assert_eq!(counts(&cache), (0, 1));
        let second = atlas(get(&cache, &p, &key, &[]));
        assert_eq!(counts(&cache), (1, 1));
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(cache.stats().entries, 1);
    }

    #[test]
    fn single_model_lookups_characterize_only_that_model() {
        let (cache, p) = (CharacterizationCache::new(), SimPlatform::dl585());
        let write = probe(view(&p), 7, W);
        let first = model(get(&cache, &p, &write, &[]));
        assert_eq!(counts(&cache), (0, 1));
        assert_eq!(
            cache.models_cached(&write.view),
            1,
            "nothing else characterized"
        );
        let second = model(get(&cache, &p, &write, &[]));
        assert_eq!(counts(&cache), (1, 1));
        assert!(Arc::ptr_eq(&first, &second));
        // A different direction is its own slot under the same view key.
        get(&cache, &p, &probe(view(&p), 7, R), &[]);
        assert_eq!(counts(&cache), (1, 2));
        assert_eq!(cache.models_cached(&write.view), 2);
        assert_eq!(cache.len(), 1, "slots share one view key");
    }

    #[test]
    fn atlas_reuses_models_cached_by_single_lookups() {
        let (cache, p) = (CharacterizationCache::new(), SimPlatform::dl585());
        let single = model(get(&cache, &p, &probe(view(&p), 7, W), &[]));
        let full = atlas(get(&cache, &p, &ModelKey::atlas(view(&p)), &[]));
        assert_eq!(counts(&cache), (0, 2), "the full atlas was not cached yet");
        assert_eq!(
            full.model(NodeId(7), W).unwrap(),
            &*single,
            "the atlas reuses the already-characterized model bit-for-bit"
        );
        // And the filled slots now serve single lookups as hits.
        get(&cache, &p, &probe(view(&p), 3, R), &[]);
        assert_eq!(counts(&cache), (1, 2));
    }

    #[test]
    fn storage_models_slot_under_the_device_dimension() {
        let (cache, p) = (CharacterizationCache::new(), SimPlatform::dl585());
        let key = storage(view(&p), StorageConfig::paper(), W);
        assert!(cache.peek(&key).is_none());
        let cold = model(get(&cache, &p, &key, &[]));
        assert_eq!(counts(&cache), (0, 1));
        let warm = model(get(&cache, &p, &key, &[]));
        assert_eq!(counts(&cache), (1, 1));
        assert!(Arc::ptr_eq(&cold, &warm));
        assert!(Arc::ptr_eq(&model(cache.peek(&key).unwrap()), &cold));
        // A different operating point is its own slot under the same view,
        // and the probe slot stays empty.
        let sync = StorageConfig::parse("sync-buffered").unwrap();
        get(&cache, &p, &storage(view(&p), sync, W), &[]);
        assert_eq!(counts(&cache), (2, 2));
        assert_eq!(cache.models_cached(&key.view), 2);
        assert!(cache.peek(&probe(view(&p), 7, W)).is_none());
        assert_eq!(cache.len(), 1, "storage slots share the probe view key");
        // Table IV partition, straight off the cached storage model.
        let classes: Vec<Vec<u16>> = cold
            .classes()
            .iter()
            .map(|c| c.nodes.iter().map(|n| n.0).collect())
            .collect();
        assert_eq!(classes, vec![vec![6, 7], vec![0, 1, 4, 5], vec![2, 3]]);
    }

    #[test]
    fn storage_selectors_ignore_the_target_and_shards_key_separately() {
        let (cache, p) = (CharacterizationCache::new(), SimPlatform::dl585());
        let ssd = DeviceSelector::Ssd(StorageConfig::paper());
        // Every target addresses the one storage slot; probe slots don't
        // collapse.
        assert_eq!(
            ModelKey::model(view(&p), ssd, NodeId(7), W),
            ModelKey::model(view(&p), ssd, NodeId(3), W)
        );
        assert_ne!(probe(view(&p), 7, W), probe(view(&p), 3, W));
        // A fleet host shard over the same platform is a view of its own.
        let host1 = probe(CacheKey::new(&p, &[], 1), 7, W);
        assert_ne!(probe(view(&p), 7, W), host1);
        get(&cache, &p, &probe(view(&p), 7, W), &[]);
        get(&cache, &p, &host1, &[]);
        assert_eq!(counts(&cache), (0, 2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn device_stall_views_derate_cached_storage_models() {
        let (cache, p) = (CharacterizationCache::new(), SimPlatform::dl585());
        let cfg = StorageConfig::paper();
        let base = storage(view(&p), cfg, W);
        let stall = [FaultKind::DeviceStall {
            device: 1,
            factor: 0.5,
        }];
        let faulted = storage(CacheKey::new(&p, &stall, 0), cfg, W);
        assert_ne!(base.view, faulted.view, "fault views key separately");
        let base = model(get(&cache, &p, &base, &[]));
        let faulted = model(get(&cache, &p, &faulted, &stall));
        // One of two cards at 50%: the aggregate keeps 75%.
        let ratio = faulted.node_gbps(NodeId(7)) / base.node_gbps(NodeId(7));
        assert!((ratio - 0.75).abs() < 1e-9, "{ratio}");
    }

    #[test]
    fn fault_view_changes_the_key_not_the_base_entry() {
        let (cache, p) = (CharacterizationCache::new(), SimPlatform::dl585());
        let down = [FaultKind::LinkDown { from: 6, to: 7 }];
        let base = ModelKey::atlas(view(&p));
        let faulted = ModelKey::atlas(CacheKey::new(&p, &down, 0));
        get(&cache, &p, &base, &[]);
        get(&cache, &p, &faulted, &down);
        assert_ne!(base.view, faulted.view);
        assert_eq!(counts(&cache), (0, 2));
        assert_eq!(cache.len(), 2);
        // Evicting the faulted view leaves the base entry hot.
        assert!(cache.invalidate(&faulted.view));
        assert!(cache.contains(&base.view));
        get(&cache, &p, &base, &[]);
        assert_eq!(counts(&cache), (1, 2));
    }

    #[test]
    fn fault_view_hash_is_canonical() {
        let down = FaultKind::LinkDown { from: 6, to: 7 };
        let storm = FaultKind::IrqStorm {
            node: 7,
            intensity: 0.5,
        };
        let a = fault_view_hash(&[down, storm]);
        let b = fault_view_hash(&[storm, down, storm]);
        assert_eq!(a, b);
        let c = fault_view_hash(&[]);
        assert_ne!(a, c);
    }

    #[test]
    fn invalidating_an_uncached_key_counts_nothing() {
        let cache = CharacterizationCache::new();
        let key = CacheKey {
            backend: "x".into(),
            topology_hash: 1,
            fault_hash: 2,
            host: 0,
        };
        assert!(!cache.invalidate(&key));
        assert_eq!(cache.stats().invalidations, 0);
    }

    #[test]
    fn deterministic_backend_never_drifts() {
        let (cache, p) = (CharacterizationCache::new(), SimPlatform::dl585());
        assert_eq!(
            cache.check_drift(&p, &modeler(), &[], 0.1).unwrap(),
            DriftOutcome::NotCached
        );
        get(&cache, &p, &ModelKey::atlas(view(&p)), &[]);
        match cache.check_drift(&p, &modeler(), &[], 0.1).unwrap() {
            DriftOutcome::Stable { max_rel_delta } => assert!(max_rel_delta < 1e-12),
            other => panic!("expected stable, got {other:?}"),
        }
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn drift_past_threshold_evicts_exactly_the_stale_key() {
        let (cache, dl585) = (CharacterizationCache::new(), SimPlatform::dl585());
        // Characterize the dl585 with its 6→7 link degraded, then plant
        // that view under the healthy key: a re-check against the healthy
        // dl585 shows real drift on the I/O node's models (node 7), while
        // the models against node 0 measure the same on both fabrics.
        let degrade = [FaultKind::LinkDegrade {
            from: 6,
            to: 7,
            factor: 0.5,
        }];
        let degraded = ModelKey::atlas(CacheKey::new(&dl585, &degrade, 0));
        get(&cache, &dl585, &degraded, &degrade);
        let planted = cache.read_entries()[&degraded.view].clone();
        cache.write_entries().insert(view(&dl585), planted);
        match cache.check_drift(&dl585, &modeler(), &[], 1e-6).unwrap() {
            DriftOutcome::Invalidated { max_rel_delta } => assert!(max_rel_delta > 1e-6),
            other => panic!("expected invalidation, got {other:?}"),
        }
        assert!(!cache.contains(&view(&dl585)));
        // The unrelated entry is untouched.
        assert!(cache.contains(&degraded.view));
        assert_eq!(cache.stats().invalidations, 1);
    }

    #[test]
    fn partial_replay_fixture_serves_what_it_covers() {
        use numio_core::backend::{RecordingPlatform, ReplayPlatform};
        // Record only node 7's write-direction probes — the shape of the
        // shipped results/fixtures/dl585.jsonl.
        let rec = RecordingPlatform::new(SimPlatform::dl585());
        let live = modeler().characterize(&rec, NodeId(7), W);
        let replay = ReplayPlatform::from_jsonl(&rec.fixture().to_jsonl()).unwrap();
        let view = CacheKey::new(&replay, &[], 0);
        let write = probe(view.clone(), 7, W);

        let cache = CharacterizationCache::new();
        // An uncovered model is a typed error. It pays its miss, but a view
        // whose first characterization failed is not cached.
        let read = probe(view.clone(), 7, R);
        assert!(cache.get(&read, &replay, &modeler(), &[]).is_err());
        assert_eq!((counts(&cache), cache.len()), ((0, 1), 0));
        // The covered model serves, caches, and matches the live run.
        assert_eq!(*model(get(&cache, &replay, &write, &[])), live);
        // The uncovered model — and the full atlas — stay typed errors, and
        // the covered model stays served from cache afterwards.
        assert!(cache.get(&read, &replay, &modeler(), &[]).is_err());
        let full = ModelKey::atlas(view);
        assert!(cache.get(&full, &replay, &modeler(), &[]).is_err());
        let before = counts(&cache);
        get(&cache, &replay, &write, &[]);
        assert_eq!(counts(&cache), (before.0 + 1, before.1));
    }

    #[test]
    fn peek_serves_warm_models_without_rekeying_and_counts_hits() {
        let obs = Obs::new();
        let (cache, p) = (
            CharacterizationCache::new().with_obs(&obs),
            SimPlatform::dl585(),
        );
        let key = probe(view(&p), 7, W);
        // Cold: nothing cached — peek counts neither a hit nor a miss.
        assert!(cache.peek(&key).is_none());
        assert_eq!(counts(&cache), (0, 0));

        let cold = model(get(&cache, &p, &key, &[]));
        let warm = model(cache.peek(&key).unwrap());
        assert!(Arc::ptr_eq(&cold, &warm));
        // A different slot under the same key is still cold to peek.
        assert!(cache.peek(&probe(view(&p), 7, R)).is_none());
        assert_eq!(counts(&cache), (1, 1));
        assert_eq!(obs.counter("numio_serve_cache_hits_total", &[]).get(), 1);
    }

    #[test]
    fn shard_counters_split_per_host_and_invalidate_independently() {
        let (cache, p) = (CharacterizationCache::new(), SimPlatform::dl585());
        let key = |host| probe(CacheKey::new(&p, &[], host), 7, W);
        // Shard 0 (the service's own view) and two fleet host shards.
        get(&cache, &p, &key(0), &[]);
        for host in [1u64, 2] {
            get(&cache, &p, &key(host), &[]);
            // Warm repeat: a hit charged to the same shard.
            get(&cache, &p, &key(host), &[]);
        }
        assert_eq!(cache.len(), 3, "one view key per shard");
        let shards = cache.shard_stats();
        assert_eq!(
            shards.iter().map(|s| s.host).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
        assert_eq!((shards[0].hits, shards[0].misses), (0, 1));
        assert_eq!((shards[1].hits, shards[1].misses), (1, 1));
        assert_eq!((shards[2].hits, shards[2].misses), (1, 1));
        // Shard totals reconcile with the global counters.
        let s = cache.stats();
        assert_eq!(s.hits, shards.iter().map(|x| x.hits).sum::<u64>());
        assert_eq!(s.misses, shards.iter().map(|x| x.misses).sum::<u64>());

        // Evicting host 1 leaves shard 0 and host 2 cached and hot.
        assert_eq!(cache.invalidate_host(1), 1);
        assert_eq!(cache.len(), 2);
        let shards = cache.shard_stats();
        assert_eq!(shards[1].invalidations, 1);
        assert_eq!(shards[2].invalidations, 0);
        assert_eq!(cache.stats().invalidations, 1);
        get(&cache, &p, &key(2), &[]);
        get(&cache, &p, &key(1), &[]);
        let shards = cache.shard_stats();
        assert_eq!((shards[2].hits, shards[2].misses), (2, 1));
        assert_eq!((shards[1].hits, shards[1].misses), (1, 2));
    }

    #[test]
    fn obs_counters_mirror_the_stats() {
        let obs = Obs::new();
        let (cache, p) = (
            CharacterizationCache::new().with_obs(&obs),
            SimPlatform::dl585(),
        );
        let key = ModelKey::atlas(view(&p));
        get(&cache, &p, &key, &[]);
        get(&cache, &p, &key, &[]);
        assert_eq!(obs.counter("numio_serve_cache_hits_total", &[]).get(), 1);
        assert_eq!(obs.counter("numio_serve_cache_misses_total", &[]).get(), 1);
    }
}
