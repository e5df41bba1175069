//! Zero-downtime snapshot hot-swap: replace the serving index while
//! queries are in flight, without dropping, blocking or mis-answering a
//! single one.
//!
//! ## Flip protocol
//!
//! The live [`BatchIndex`] sits behind a `Mutex<Arc<BatchIndex>>`: a
//! request clones the `Arc` under the lock once (a reference-count bump,
//! nothing else inside), and a reload publishes its replacement by
//! overwriting that pointer under the same lock. The full reload sequence
//! is:
//!
//! 1. **Load off-thread** — read and fully validate the new artifact
//!    (monolithic snapshot or shard manifest, budget-truncated or not)
//!    while the old index keeps serving. Every corruption path surfaces
//!    as a typed [`SnapshotError`] and leaves the old index untouched.
//!    The load streams straight into the matrices the new index will
//!    serve from, so a reload peaks at the live generation + the new
//!    generation + one k-means sample (step 2), never a copy more.
//! 2. **Build** — construct the [`AlignmentIndex`] (plus its IVF
//!    partition when configured) and wrap it in a fresh [`BatchIndex`]
//!    with an *empty* answer cache.
//! 3. **Warm** — replay the old index's most-recently-used cache keys
//!    against the new index, so the flip does not land a popular-query
//!    cold-start on live traffic.
//! 4. **Flip** — replace the pointer under the lock. The critical section
//!    is one pointer store, so a reader waits at most that long; the flip
//!    is measured with a nanosecond clock and exported as `last_flip_us`.
//! 5. **Retire** — the old index drains: requests that took it before the
//!    flip finish on it, and the last of them to drop its `Arc` frees it.
//!    The swap keeps only a `Weak` to it, so `/stats` can report how many
//!    generations are still draining without keeping any alive.
//!
//! ## Why answers can never alias across a flip
//!
//! Each [`BatchIndex`] owns its cache, and the cache key carries the
//! snapshot generation ([`CacheKey`](crate::index::CacheKey)): an answer
//! computed under generation *g* is only ever handed to a query routed to
//! the index of generation *g*. A budget-truncated shard load has a
//! different generation than the full snapshot by construction, so even a
//! partial reload of the *same* manifest cannot alias.

use crate::index::{AlignmentIndex, BatchIndex, Probe};
use crate::shard::ShardManifest;
use crate::snapshot::{Snapshot, SnapshotError};
use openea_align::AnnConfig;
use openea_runtime::timer::Monotonic;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, Weak};
use std::time::Duration;

/// A fully validated artifact load: the assembled snapshot plus how much
/// of the manifest it covers (for `.snap` files the artifact is always
/// complete).
pub struct LoadedArtifact {
    pub snapshot: Snapshot,
    pub coverage: LoadCoverage,
}

/// How much of an artifact a (possibly budgeted) load actually covered.
#[derive(Clone, Copy, Debug)]
pub struct LoadCoverage {
    /// Target entities loaded (`snapshot.num_targets()`).
    pub loaded_entities: usize,
    /// Target entities the *full* artifact holds.
    pub total_entities: usize,
    /// Shards assembled (1 for a monolithic `.snap`).
    pub shards_loaded: usize,
    /// Shards the manifest names (1 for a monolithic `.snap`).
    pub shards_total: usize,
}

impl LoadCoverage {
    /// A whole monolithic snapshot of `targets` target entities.
    fn complete(targets: usize) -> Self {
        Self {
            loaded_entities: targets,
            total_entities: targets,
            shards_loaded: 1,
            shards_total: 1,
        }
    }

    /// True when a memory budget truncated the load to a shard prefix.
    pub fn partial(&self) -> bool {
        self.loaded_entities < self.total_entities
    }
}

/// Loads `path` as a shard manifest (`.manifest` extension) or a
/// monolithic snapshot (anything else), applying `budget_bytes` to the
/// target-side matrix on manifest loads (`u64::MAX` = unlimited).
pub fn load_artifact(path: &Path, budget_bytes: u64) -> Result<LoadedArtifact, SnapshotError> {
    if path.extension().is_some_and(|e| e == "manifest") {
        let manifest = ShardManifest::read_from(path)?;
        let (shards_total, total_entities) = (manifest.shards.len(), manifest.n2);
        let (snapshot, shards_loaded) = manifest.load_budgeted(path, budget_bytes)?;
        let coverage = LoadCoverage {
            loaded_entities: snapshot.num_targets(),
            total_entities,
            shards_loaded,
            shards_total,
        };
        Ok(LoadedArtifact { snapshot, coverage })
    } else {
        let snapshot = Snapshot::read_from(path)?;
        let coverage = LoadCoverage::complete(snapshot.num_targets());
        Ok(LoadedArtifact { snapshot, coverage })
    }
}

/// How a reload builds its [`BatchIndex`] — the same knobs the CLI
/// exposes, captured once so every subsequent reload (admin-triggered or
/// watcher-triggered) constructs an equivalently configured index.
#[derive(Clone, Copy, Debug)]
pub struct IndexOptions {
    /// Kernel threads per batch sweep.
    pub threads: usize,
    /// LRU answer-cache capacity (0 disables).
    pub cache_cap: usize,
    /// IVF partitions (0 = exact-only index).
    pub nlist: usize,
    /// Default probe width override (0 = the index's own default).
    pub nprobe: usize,
    /// Byte budget for the target-side matrix on manifest loads.
    pub mem_budget_bytes: u64,
    /// How many recently-used cache keys to replay against the new index
    /// before flipping (0 disables warming).
    pub warm_keys: usize,
}

impl Default for IndexOptions {
    fn default() -> Self {
        Self {
            threads: 2,
            cache_cap: 4096,
            nlist: 0,
            nprobe: 0,
            mem_budget_bytes: u64::MAX,
            warm_keys: 256,
        }
    }
}

impl IndexOptions {
    /// Builds a serving index over `snap` under these options.
    pub fn build(&self, snap: Snapshot) -> Arc<BatchIndex> {
        let raw = if self.nlist > 0 {
            let cfg = AnnConfig {
                nlist: self.nlist,
                ..Default::default()
            };
            AlignmentIndex::with_ann(snap, &cfg, self.threads)
        } else {
            AlignmentIndex::new(snap)
        };
        let mut index = BatchIndex::new(raw, self.threads, self.cache_cap);
        if self.nprobe > 0 {
            index = index.with_default_probe(Probe::Nprobe(self.nprobe as u32));
        }
        Arc::new(index)
    }
}

/// The result of one successful reload, as reported by `/admin/reload`.
#[derive(Clone, Debug)]
pub struct ReloadOutcome {
    /// Generation of the index now serving.
    pub generation: u64,
    /// How much of the artifact the new index serves.
    pub coverage: LoadCoverage,
    /// Time the pointer flip held the live-index lock.
    pub flip_ns: u64,
    /// Cache keys replayed against the new index before the flip.
    pub warmed: usize,
}

/// Swap-related counters exported through `/stats`.
#[derive(Clone, Debug)]
pub struct SwapStats {
    pub reloads: u64,
    pub reload_failures: u64,
    /// Time the most recent flip held the live-index lock, nanoseconds.
    pub last_flip_ns: u64,
    /// Retired indices some in-flight request still holds.
    pub draining_generations: usize,
    /// Nanoseconds since the live snapshot was flipped in (or since the
    /// index was opened, before the first flip) — the serving side of the
    /// train-to-serve freshness story, exported as `snapshot_age_ms`.
    pub snapshot_age_ns: u64,
    /// How much of its artifact the live index serves.
    pub coverage: LoadCoverage,
    pub last_error: Option<String>,
}

/// On-disk identity of the artifact the watcher polls: (mtime, length,
/// trailing checksum bytes) of the manifest/snapshot file. The trailer is
/// the container framing's FNV-1a of the payload, so it changes with the
/// content even when the length does not and the filesystem's mtime
/// granularity is too coarse to tell two writes apart. Shard files are
/// written *before* the manifest
/// ([`write_sharded`](crate::shard::write_sharded)), and both writers
/// rename atomically, so a changed manifest fingerprint is the commit
/// point of a complete new artifact.
type Fingerprint = (std::time::SystemTime, u64, u64);

fn fingerprint(path: &Path) -> Option<Fingerprint> {
    use std::io::{Read, Seek, SeekFrom};
    let meta = std::fs::metadata(path).ok()?;
    let len = meta.len();
    let mut tail = [0u8; 8];
    if len >= 8 {
        let mut f = std::fs::File::open(path).ok()?;
        f.seek(SeekFrom::End(-8)).ok()?;
        f.read_exact(&mut tail).ok()?;
    }
    Some((meta.modified().ok()?, len, u64::from_le_bytes(tail)))
}

struct SwapState {
    /// Artifact the live index was loaded from; `None` for in-memory
    /// indices ([`HotSwapIndex::fixed_with`]), which cannot reload without an
    /// explicit path.
    artifact: Option<PathBuf>,
    /// Retired indices, observed without being kept alive: the last
    /// request holding one frees it.
    retired: Vec<Weak<BatchIndex>>,
    reloads: u64,
    failures: u64,
    last_flip_ns: u64,
    /// Monotonic-clock timestamp of the last flip (0 = construction, the
    /// clock's epoch), from which `snapshot_age_ns` is derived.
    flipped_at_ns: u64,
    coverage: LoadCoverage,
    last_error: Option<String>,
    /// Fingerprint of the artifact the live index was built from; the
    /// watcher skips reloads while it is unchanged.
    loaded_fingerprint: Option<Fingerprint>,
}

/// The hot-swappable serving index: what the HTTP server actually holds.
/// `current()` is the per-request entry point; `reload*` republishes.
pub struct HotSwapIndex {
    /// The index serving right now. Held for a pointer clone or a pointer
    /// store and nothing else.
    live: Mutex<Arc<BatchIndex>>,
    opts: IndexOptions,
    /// Serializes reloads end to end (load → build → warm → flip) without
    /// ever blocking readers. It guards no data, and a reload that panics
    /// has flipped nothing, so a poisoned guard is as good as a clean one.
    reload_lock: Mutex<()>,
    state: Mutex<SwapState>,
    clock: Monotonic,
}

impl HotSwapIndex {
    /// Wraps an index already built under `opts`, with no backing artifact:
    /// serving and `swap_in` work, path-less `reload()` reports an error.
    /// Later `swap_in` calls build their replacements under the same `opts`
    /// (same partition shape, cache size, threading). This is how tests and
    /// benches drive the server from in-memory snapshots.
    pub fn fixed_with(index: Arc<BatchIndex>, opts: IndexOptions) -> Arc<Self> {
        let coverage = LoadCoverage::complete(index.index().num_targets());
        Self::with_state(index, opts, None, coverage, None)
    }

    /// Loads `path` under `opts` and returns the serving handle plus the
    /// initial load's coverage (so the caller can warn on a partial load).
    pub fn open(
        path: &Path,
        opts: IndexOptions,
    ) -> Result<(Arc<Self>, LoadCoverage), SnapshotError> {
        let fp = fingerprint(path);
        let art = load_artifact(path, opts.mem_budget_bytes)?;
        let index = opts.build(art.snapshot);
        let this = Self::with_state(index, opts, Some(path.to_path_buf()), art.coverage, fp);
        Ok((this, art.coverage))
    }

    /// The one constructor behind [`HotSwapIndex::fixed_with`] and
    /// [`HotSwapIndex::open`]: `index` serving, nothing reloaded yet.
    fn with_state(
        index: Arc<BatchIndex>,
        opts: IndexOptions,
        artifact: Option<PathBuf>,
        coverage: LoadCoverage,
        loaded_fingerprint: Option<Fingerprint>,
    ) -> Arc<Self> {
        Arc::new(Self {
            live: Mutex::new(index),
            opts,
            reload_lock: Mutex::new(()),
            state: Mutex::new(SwapState {
                artifact,
                retired: Vec::new(),
                reloads: 0,
                failures: 0,
                last_flip_ns: 0,
                flipped_at_ns: 0,
                coverage,
                last_error: None,
                loaded_fingerprint,
            }),
            clock: Monotonic::start(),
        })
    }

    /// The index serving right now: an `Arc` clone under the live lock.
    /// Hold the returned `Arc` for the duration of one request so every
    /// read in it sees one coherent generation.
    pub fn current(&self) -> Arc<BatchIndex> {
        Arc::clone(&self.live.lock().unwrap_or_else(PoisonError::into_inner))
    }

    /// The swap counters. Neither this lock nor the live one is held across
    /// anything that can panic, so a poisoned guard is as good as a clean one.
    fn state(&self) -> MutexGuard<'_, SwapState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The options every reload builds its index with.
    pub fn options(&self) -> IndexOptions {
        self.opts
    }

    /// Reloads from the remembered artifact path.
    pub fn reload(&self) -> Result<ReloadOutcome, SnapshotError> {
        let artifact = self.state().artifact.clone();
        let Some(path) = artifact else {
            let e = SnapshotError::Malformed(
                "no artifact path to reload from (in-memory index)".into(),
            );
            let mut st = self.state();
            st.failures += 1;
            st.last_error = Some(e.to_string());
            return Err(e);
        };
        self.reload_from(&path)
    }

    /// Reloads from an explicit path, which becomes the remembered path on
    /// success (so the watcher follows the newest artifact).
    pub fn reload_from(&self, path: &Path) -> Result<ReloadOutcome, SnapshotError> {
        let _serialize = self
            .reload_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let fp = fingerprint(path);
        let art = match load_artifact(path, self.opts.mem_budget_bytes) {
            Ok(a) => a,
            Err(e) => {
                let mut st = self.state();
                st.failures += 1;
                st.last_error = Some(e.to_string());
                return Err(e);
            }
        };
        let outcome = self.swap_in_loaded(art, fp);
        self.state().artifact = Some(path.to_path_buf());
        Ok(outcome)
    }

    /// Publishes an already-assembled snapshot (no disk involved): the
    /// build → warm → flip → retire tail of a reload. Benches use this to
    /// flip between in-memory generations.
    pub fn swap_in(&self, snapshot: Snapshot) -> ReloadOutcome {
        let _serialize = self
            .reload_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let coverage = LoadCoverage::complete(snapshot.num_targets());
        self.swap_in_loaded(LoadedArtifact { snapshot, coverage }, None)
    }

    /// Build → warm → flip → retire. Caller holds `reload_lock`.
    fn swap_in_loaded(&self, art: LoadedArtifact, fp: Option<Fingerprint>) -> ReloadOutcome {
        let coverage = art.coverage;
        let new = self.opts.build(art.snapshot);
        let old = self.current();

        // Warm the new index's cache with the old one's hottest keys, so
        // popular queries do not all miss at once after the flip. Probe
        // and k are replayed exactly, hottest first, as one batch (one
        // sweep per probe); entities past the new index's range (a smaller
        // partial load) are skipped.
        let replay: Vec<(u32, usize, Option<Probe>)> = old
            .recent_cache_keys(self.opts.warm_keys)
            .into_iter()
            .filter(|key| (key.entity as usize) < new.index().num_queries())
            .map(|key| {
                (
                    key.entity,
                    key.k as usize,
                    Some(Probe::from_code(key.probe)),
                )
            })
            .collect();
        let warmed = new
            .query_batch(&replay)
            .iter()
            .filter(|r| r.is_ok())
            .count();

        let generation = new.index().generation();
        let t0 = self.clock.nanos();
        *self.live.lock().unwrap_or_else(PoisonError::into_inner) = new;
        let flip_ns = self.clock.nanos().saturating_sub(t0);

        // From here on the last in-flight request holding `old` frees it.
        let retired = Arc::downgrade(&old);
        drop(old);
        let mut st = self.state();
        st.retired.push(retired);
        st.retired.retain(|ix| ix.strong_count() > 0);
        st.reloads += 1;
        st.last_flip_ns = flip_ns;
        st.flipped_at_ns = self.clock.nanos();
        st.coverage = coverage;
        st.last_error = None;
        st.loaded_fingerprint = fp;
        ReloadOutcome {
            generation,
            coverage,
            flip_ns,
            warmed,
        }
    }

    /// Swap counters for `/stats`.
    pub fn stats(&self) -> SwapStats {
        let st = self.state();
        SwapStats {
            reloads: st.reloads,
            reload_failures: st.failures,
            last_flip_ns: st.last_flip_ns,
            draining_generations: st.retired.iter().filter(|ix| ix.strong_count() > 0).count(),
            snapshot_age_ns: self.clock.nanos().saturating_sub(st.flipped_at_ns),
            coverage: st.coverage,
            last_error: st.last_error.clone(),
        }
    }

    /// Starts a polling watcher: every `interval` it fingerprints the
    /// artifact path and reloads once the fingerprint both *changed* and
    /// *held still* for one further tick (debounce against writers caught
    /// mid-publish; the atomic-rename protocol makes one tick enough for
    /// well-behaved writers). Reload failures are recorded in
    /// [`SwapStats`] and serving continues on the live index.
    pub fn spawn_watcher(self: &Arc<Self>, interval: Duration) -> WatcherHandle {
        let stop = Arc::new(AtomicBool::new(false));
        let me = Arc::clone(self);
        let flag = Arc::clone(&stop);
        let handle = std::thread::Builder::new()
            .name("serve-snapshot-watcher".into())
            .spawn(move || {
                let mut pending: Option<Fingerprint> = None;
                while !flag.load(Ordering::SeqCst) {
                    std::thread::sleep(interval);
                    let Some(path) = me.state().artifact.clone() else {
                        continue;
                    };
                    let Some(fp) = fingerprint(&path) else {
                        continue;
                    };
                    if me.state().loaded_fingerprint == Some(fp) {
                        pending = None;
                        continue;
                    }
                    if pending != Some(fp) {
                        // Changed but not yet stable: wait one more tick.
                        pending = Some(fp);
                        continue;
                    }
                    pending = None;
                    let _ = me.reload_from(&path);
                }
            })
            .expect("spawn snapshot watcher");
        WatcherHandle {
            stop,
            handle: Some(handle),
        }
    }
}

/// Stops its watcher thread on [`WatcherHandle::stop`] or drop.
pub struct WatcherHandle {
    stop: Arc<AtomicBool>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl WatcherHandle {
    pub fn stop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(h) = self.handle.take() {
            let _ = h.join();
        }
    }
}

impl Drop for WatcherHandle {
    fn drop(&mut self) {
        self.stop();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::tiny_snapshot;

    fn tmpdir(tag: &str) -> PathBuf {
        let d = std::env::temp_dir().join(format!("openea-swap-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn fixed_index_serves_and_reports_no_artifact() {
        let snap = tiny_snapshot();
        let opts = IndexOptions::default();
        let hot = HotSwapIndex::fixed_with(opts.build(snap), opts);
        assert!(hot.current().query(0, 1).is_ok());
        let err = hot.reload().unwrap_err();
        assert!(err.to_string().contains("no artifact path"), "{err}");
        let st = hot.stats();
        assert_eq!(st.reload_failures, 1);
        assert!(st.last_error.is_some());
    }

    #[test]
    fn swap_in_flips_generation_and_answers_diverge() {
        let snap = tiny_snapshot();
        let gen_a = snap.generation();
        let mut snap_b = tiny_snapshot();
        for v in &mut snap_b.emb2 {
            *v = -*v;
        }
        let gen_b = snap_b.generation();
        assert_ne!(gen_a, gen_b);

        let opts = IndexOptions::default();
        let hot = HotSwapIndex::fixed_with(opts.build(snap), opts);
        let before = hot.current();
        let ans_a = before.query(0, 2).unwrap();
        let outcome = hot.swap_in(snap_b);
        assert_eq!(outcome.generation, gen_b);
        let after = hot.current();
        assert_eq!(after.index().generation(), gen_b);
        // The pre-flip handle still answers from its own generation.
        assert_eq!(before.index().generation(), gen_a);
        assert_eq!(before.query(0, 2).unwrap(), ans_a);
        assert_eq!(hot.stats().reloads, 1);
    }

    #[test]
    fn an_in_memory_index_keeps_its_options_across_swap_in() {
        // Eight targets, so four partitions are not clamped away.
        let snap = |shift: f32| Snapshot {
            emb1: (0..16).map(|i| i as f32 + shift).collect(),
            emb2: (0..16).map(|i| (i * 7 % 16) as f32).collect(),
            names1: Vec::new(),
            names2: Vec::new(),
            ..tiny_snapshot()
        };
        let opts = IndexOptions {
            nlist: 4,
            cache_cap: 7,
            ..IndexOptions::default()
        };
        let hot = HotSwapIndex::fixed_with(opts.build(snap(0.0)), opts);
        hot.swap_in(snap(0.5));
        let live = hot.current();
        assert_eq!(live.index().generation(), snap(0.5).generation());
        assert_eq!(live.index().ann().map(|ivf| ivf.nlist()), Some(4));
        for entity in 0..8 {
            live.query(entity, 1).unwrap();
        }
        assert_eq!(
            live.recent_cache_keys(usize::MAX).len(),
            7,
            "cache capacity"
        );
    }

    #[test]
    fn a_retired_generation_is_freed_by_its_last_holder() {
        let opts = IndexOptions::default();
        let hot = HotSwapIndex::fixed_with(opts.build(tiny_snapshot()), opts);
        let held = hot.current();
        let weak = Arc::downgrade(&held);
        hot.swap_in({
            let mut s = tiny_snapshot();
            s.emb2[0] += 0.5;
            s
        });
        assert_eq!(hot.stats().draining_generations, 1);
        drop(held);
        assert!(weak.upgrade().is_none(), "the last holder frees it");
        assert_eq!(hot.stats().draining_generations, 0);
    }

    #[test]
    fn open_and_reload_from_disk() {
        let dir = tmpdir("reload");
        let path = dir.join("live.snap");
        let snap = tiny_snapshot();
        snap.write_to(&path).unwrap();
        let (hot, info) = HotSwapIndex::open(&path, IndexOptions::default()).unwrap();
        assert!(!info.partial());
        assert_eq!(hot.current().index().generation(), snap.generation());

        let mut snap_b = tiny_snapshot();
        snap_b.emb1[0] += 1.0;
        snap_b.write_to(&path).unwrap();
        let outcome = hot.reload().unwrap();
        assert_eq!(outcome.generation, snap_b.generation());
        assert_eq!(hot.current().index().generation(), snap_b.generation());
    }

    #[test]
    fn failed_reload_keeps_serving_and_types_the_error() {
        let dir = tmpdir("failkeep");
        let path = dir.join("live.snap");
        let snap = tiny_snapshot();
        snap.write_to(&path).unwrap();
        let (hot, _) = HotSwapIndex::open(&path, IndexOptions::default()).unwrap();
        let ans = hot.current().query(0, 2).unwrap();

        // Corrupt the artifact: reload must fail typed, serving unchanged.
        let pristine = std::fs::read(&path).unwrap();
        std::fs::write(&path, &pristine[..pristine.len() - 3]).unwrap();
        match hot.reload() {
            Err(SnapshotError::Truncated { .. }) | Err(SnapshotError::ChecksumMismatch { .. }) => {}
            other => panic!("expected a typed corruption error, got {other:?}"),
        }
        assert_eq!(hot.current().index().generation(), snap.generation());
        assert_eq!(hot.current().query(0, 2).unwrap(), ans);
        let st = hot.stats();
        assert_eq!(st.reload_failures, 1);
        assert_eq!(st.reloads, 0);
        assert!(st.last_error.is_some());
    }

    #[test]
    fn a_reload_that_panicked_does_not_block_the_next() {
        let dir = tmpdir("poisoned");
        let path = dir.join("live.snap");
        tiny_snapshot().write_to(&path).unwrap();
        let (hot, _) = HotSwapIndex::open(&path, IndexOptions::default()).unwrap();
        let panicking = Arc::clone(&hot);
        std::thread::spawn(move || {
            let _serialize = panicking.reload_lock.lock();
            panic!("a reload panics while it holds the reload lock");
        })
        .join()
        .unwrap_err();
        assert!(hot.reload_lock.is_poisoned());

        let mut snap_b = tiny_snapshot();
        snap_b.emb1[0] += 1.0;
        snap_b.write_to(&path).unwrap();
        let outcome = hot.reload_from(&path).unwrap();
        assert_eq!(outcome.generation, snap_b.generation());
        let mut snap_c = tiny_snapshot();
        snap_c.emb2[0] += 0.5;
        let generation = snap_c.generation();
        assert_eq!(hot.swap_in(snap_c).generation, generation);
        assert_eq!(hot.current().index().generation(), generation);
        assert_eq!(hot.stats().reloads, 2);
    }

    #[test]
    fn warming_replays_recent_keys_into_the_new_cache() {
        let snap = tiny_snapshot();
        let opts = IndexOptions::default();
        let hot = HotSwapIndex::fixed_with(opts.build(snap), opts);
        hot.current().query(0, 2).unwrap();
        hot.current().query(1, 1).unwrap();
        let outcome = hot.swap_in({
            let mut s = tiny_snapshot();
            s.emb2[0] += 0.5;
            s
        });
        assert_eq!(outcome.warmed, 2);
        // Warmed answers are cache hits on the new index.
        let new = hot.current();
        let before = new.stats();
        new.query(0, 2).unwrap();
        new.query(1, 1).unwrap();
        let after = new.stats();
        assert_eq!(after.cache_hits - before.cache_hits, 2);
    }
}
