//! The in-memory alignment index: top-k retrieval over a loaded snapshot,
//! one kernel sweep per submitted batch, with an LRU answer cache in front.
//!
//! ## Answer semantics
//!
//! A query `(entity, k)` answers with the `k` most similar KG2 targets of
//! KG1 entity `entity` under the snapshot's metric, computed by the same
//! tiled [`TopKMatrix`] kernels the offline evaluation uses — so a served
//! answer is **bit-identical** to a stable argsort of the dense
//! `compute_naive` row under the shared tie rule (descending score, lowest
//! target index wins, NaN last). Because every row's ranking is a total
//! order, the top-`k` list is a prefix of the top-`k'` list for `k ≤ k'`:
//! sweeping queries with different `k`s together at the batch-max `k` and
//! truncating per query cannot change any answer.
//!
//! ## The caller's batch is the sweep
//!
//! [`BatchIndex::query_batch`] is the one entry point: it resolves
//! validation errors and cache hits under one cache lock, groups the
//! remaining misses by probe, and runs one [`TopKMatrix::compute`] (or one
//! IVF pass) per group on the calling thread, immediately — no queue, no
//! wait window, no hand-off between callers. The batch is whatever the
//! caller formed: the reactor submits each connection's pipelined run
//! (≤ [`MAX_PIPELINE`](crate::conn::MAX_PIPELINE) requests), a hot-swap
//! submits its warm keys, and [`BatchIndex::query`] is the one-element
//! case. Concurrent callers run their sweeps side by side and meet only at
//! the cache lock.
//!
//! ## Two-stage (approximate) answering
//!
//! An index built with [`AlignmentIndex::with_ann`] carries an
//! [`IvfPartition`] over the target side and answers through the two-stage
//! path when a query selects [`Probe::Nprobe`]: stage one scans the
//! partition centroids and picks the `nprobe` best lists, stage two scores
//! their members from int8 codes and re-ranks *exactly*, from the
//! snapshot's own `emb2` rows, every member that could still be in the top
//! `k`. The partition holds no copy of `emb2`. [`Probe::Exact`] — and any
//! probe on an index without a partition — falls back to the exact sweep,
//! and `nprobe ≥ nlist` is bit-identical to it by the ANN exactness
//! contract. `/stats` counts the members scanned and re-ranked.
//!
//! ## Caching
//!
//! Answers are memoized in a fixed-capacity [`LruCache`] keyed by
//! `(entity, k, metric, probe, generation)`. The metric lives in the key
//! so an index reloaded with a different metric can never serve a score
//! list computed under another similarity; the probe lives there so an
//! approximate answer can never surface for an exact query (or vice
//! versa, or across different probe widths); and the snapshot
//! *generation* lives there so answers computed against one snapshot can
//! never outlive a reload — including a budget-truncated shard load,
//! whose generation differs from the full snapshot's by construction.

use crate::snapshot::Snapshot;
use openea_align::{AnnConfig, IvfIndex, IvfPartition, Metric, SearchCounts, TopKMatrix};
use openea_runtime::pool::{balanced_chunk_len, parallel_chunks};
use std::collections::HashMap;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Mutex, MutexGuard};

/// One served answer: `(target entity id, similarity score)`, best first.
pub type Answer = Vec<(u32, f32)>;

/// Why a query was refused.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum QueryError {
    /// The query entity id is outside KG1 (`entity >= n1`).
    EntityOutOfRange { entity: u32, n1: usize },
    /// `k` must be at least 1.
    ZeroK,
}

impl fmt::Display for QueryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            QueryError::EntityOutOfRange { entity, n1 } => {
                write!(f, "entity {entity} out of range (KG1 has {n1} entities)")
            }
            QueryError::ZeroK => write!(f, "k must be >= 1"),
        }
    }
}

impl std::error::Error for QueryError {}

/// How a query's candidate set is formed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Probe {
    /// Dense exact sweep over every target.
    Exact,
    /// Two-stage: probe the `n` best partitions, re-rank exactly. Clamped
    /// to `[1, nlist]`; on an index without a partition this falls back to
    /// the exact sweep.
    Nprobe(u32),
}

impl Probe {
    /// The cache-key encoding: 0 for exact, the (≥ 1) probe width
    /// otherwise — injective because `Nprobe(0)` is clamped to 1.
    pub(crate) fn code(self) -> u32 {
        match self {
            Probe::Exact => 0,
            Probe::Nprobe(n) => n.max(1),
        }
    }

    /// Inverse of the cache-key encoding (0 for exact, else the width): reconstructs the probe an answer (or a
    /// cache key) was computed under. Used by hot-swap warming to replay a
    /// retiring index's hottest keys with their exact probes.
    pub fn from_code(code: u32) -> Self {
        match code {
            0 => Probe::Exact,
            n => Probe::Nprobe(n),
        }
    }

    pub fn label(self) -> String {
        match self {
            Probe::Exact => "exact".into(),
            Probe::Nprobe(n) => format!("nprobe={}", n.max(1)),
        }
    }
}

/// The raw (unbatched, uncached) index: a snapshot plus the kernel calls,
/// optionally with an IVF partition for two-stage answering.
pub struct AlignmentIndex {
    snap: Snapshot,
    generation: u64,
    ann: Option<IvfPartition>,
}

impl AlignmentIndex {
    /// An exact-only index (no partition; every probe answers exactly).
    pub fn new(snap: Snapshot) -> Self {
        let generation = snap.generation();
        Self {
            snap,
            generation,
            ann: None,
        }
    }

    /// An index with an IVF partition built over the target side, enabling
    /// the two-stage path. Build time is one k-means over `emb2`; `threads`
    /// parallelizes it without changing the (deterministic) partition.
    pub fn with_ann(snap: Snapshot, cfg: &AnnConfig, threads: usize) -> Self {
        let generation = snap.generation();
        let ann = IvfPartition::build(&snap.emb2, snap.dim, snap.metric, cfg, threads);
        Self {
            snap,
            generation,
            ann: Some(ann),
        }
    }

    pub fn snapshot(&self) -> &Snapshot {
        &self.snap
    }

    /// The loaded snapshot's [`Snapshot::generation`].
    pub fn generation(&self) -> u64 {
        self.generation
    }

    /// The IVF partition bound to the snapshot's `emb2`, when this index
    /// was built with one.
    pub fn ann(&self) -> Option<IvfIndex<'_>> {
        self.ann.as_ref().map(|part| part.over(&self.snap.emb2))
    }

    /// The probe a query gets when it does not choose one: the partition's
    /// default width when a partition exists, otherwise the exact sweep.
    pub fn default_probe(&self) -> Probe {
        match &self.ann {
            Some(part) => Probe::Nprobe(part.default_nprobe() as u32),
            None => Probe::Exact,
        }
    }

    pub fn metric(&self) -> Metric {
        self.snap.metric
    }

    /// Number of KG1 (query-side) entities.
    pub fn num_queries(&self) -> usize {
        self.snap.num_queries()
    }

    /// Number of KG2 (target-side) entities.
    pub fn num_targets(&self) -> usize {
        self.snap.num_targets()
    }

    /// Name of KG2 entity `id`, when the snapshot carries a name map.
    pub fn target_name(&self, id: u32) -> Option<&str> {
        self.snap.names2.get(id as usize).map(|s| s.as_str())
    }

    /// Answers a batch of `(entity, k)` queries with one tiled kernel sweep
    /// at the batch-max `k`, truncating each answer to its requested `k`.
    /// Callers must have validated entity ranges; `k` is clamped to the
    /// target count.
    pub fn answer_batch(&self, queries: &[(u32, usize)], threads: usize) -> Vec<Answer> {
        if queries.is_empty() {
            return Vec::new();
        }
        let dim = self.snap.dim;
        let kmax = queries.iter().map(|&(_, k)| k).max().unwrap_or(1);
        let mut rows = Vec::with_capacity(queries.len() * dim);
        for &(e, _) in queries {
            let e = e as usize;
            rows.extend_from_slice(&self.snap.emb1[e * dim..(e + 1) * dim]);
        }
        let topk = TopKMatrix::compute(&rows, &self.snap.emb2, dim, self.metric(), kmax, threads);
        topk.iter_rows()
            .zip(queries)
            .map(|(row, &(_, k))| row[..k.min(row.len())].to_vec())
            .collect()
    }

    /// [`AlignmentIndex::answer_batch`] behind the probe knob: `Exact` (or
    /// any probe on a partition-less index) runs the dense sweep;
    /// `Nprobe(n)` answers each query through the two-stage path,
    /// parallelized across the batch's queries, and also returns the
    /// members its queries scanned and re-ranked (zero for a dense sweep).
    /// Answers and counts are independent of `threads` and of which queries
    /// shared the batch.
    pub fn answer_batch_probed(
        &self,
        queries: &[(u32, usize)],
        probe: Probe,
        threads: usize,
    ) -> (Vec<Answer>, SearchCounts) {
        let (n, ivf) = match (probe, self.ann()) {
            (Probe::Nprobe(n), Some(ivf)) => (n.max(1) as usize, ivf),
            _ => return (self.answer_batch(queries, threads), SearchCounts::default()),
        };
        if queries.is_empty() {
            return (Vec::new(), SearchCounts::default());
        }
        let dim = self.snap.dim;
        let mut slots = vec![(Vec::new(), SearchCounts::default()); queries.len()];
        let threads = threads.clamp(1, queries.len());
        let chunk = balanced_chunk_len(queries.len(), threads, 4);
        parallel_chunks(&mut slots, chunk, threads, |chunk_idx, out| {
            let base = chunk_idx * chunk;
            for (local, slot) in out.iter_mut().enumerate() {
                let (e, k) = queries[base + local];
                let e = e as usize;
                *slot = ivf.search_stats(&self.snap.emb1[e * dim..(e + 1) * dim], k, n);
            }
        });
        let mut total = SearchCounts::default();
        let answers = slots
            .into_iter()
            .map(|(answer, counts)| {
                total.scanned += counts.scanned;
                total.reranked += counts.reranked;
                answer
            })
            .collect();
        (answers, total)
    }
}

/// Cache key: the full identity of an answer. `metric` is part of the key
/// so a cache can never hand back scores computed under another
/// similarity; `probe` (0 = exact, else the width) so
/// approximate and exact answers never alias; `generation` so answers
/// never survive a snapshot reload.
#[derive(Clone, Copy, Debug, Hash, PartialEq, Eq)]
pub struct CacheKey {
    pub entity: u32,
    pub k: u32,
    pub metric: Metric,
    /// Cache-key encoding of the probe that produced the answer (see
    /// [`Probe::from_code`]).
    pub probe: u32,
    /// [`Snapshot::generation`] of the snapshot that produced the answer.
    pub generation: u64,
}

const NIL: usize = usize::MAX;

struct CacheSlot {
    key: CacheKey,
    value: Answer,
    prev: usize,
    next: usize,
}

/// A fixed-capacity LRU map from [`CacheKey`] to answers: O(1) get/insert
/// via a hash map into an intrusive doubly-linked recency list. Capacity 0
/// disables caching entirely.
pub struct LruCache {
    cap: usize,
    map: HashMap<CacheKey, usize>,
    slots: Vec<CacheSlot>,
    /// Most recently used slot, `NIL` when empty.
    head: usize,
    /// Least recently used slot, `NIL` when empty.
    tail: usize,
}

impl LruCache {
    pub fn new(cap: usize) -> Self {
        Self {
            cap,
            map: HashMap::new(),
            slots: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    pub fn capacity(&self) -> usize {
        self.cap
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slots[i].prev, self.slots[i].next);
        if prev == NIL {
            self.head = next;
        } else {
            self.slots[prev].next = next;
        }
        if next == NIL {
            self.tail = prev;
        } else {
            self.slots[next].prev = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slots[i].prev = NIL;
        self.slots[i].next = self.head;
        if self.head != NIL {
            self.slots[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    /// Looks up `key`, marking it most recently used on a hit.
    pub fn get(&mut self, key: &CacheKey) -> Option<&Answer> {
        let i = *self.map.get(key)?;
        if i != self.head {
            self.unlink(i);
            self.push_front(i);
        }
        Some(&self.slots[i].value)
    }

    /// Inserts (or refreshes) `key`, evicting the least recently used entry
    /// when at capacity.
    pub fn insert(&mut self, key: CacheKey, value: Answer) {
        if self.cap == 0 {
            return;
        }
        if let Some(&i) = self.map.get(&key) {
            self.slots[i].value = value;
            if i != self.head {
                self.unlink(i);
                self.push_front(i);
            }
            return;
        }
        let i = if self.map.len() == self.cap {
            // Reuse the evicted LRU slot.
            let lru = self.tail;
            self.unlink(lru);
            self.map.remove(&self.slots[lru].key);
            self.slots[lru].key = key;
            self.slots[lru].value = value;
            lru
        } else {
            self.slots.push(CacheSlot {
                key,
                value,
                prev: NIL,
                next: NIL,
            });
            self.slots.len() - 1
        };
        self.map.insert(key, i);
        self.push_front(i);
    }

    /// Up to `limit` keys in recency order, hottest first. Does not touch
    /// recency — this is a read for cache warming, not a use.
    pub fn recent_keys(&self, limit: usize) -> Vec<CacheKey> {
        let mut out = Vec::with_capacity(limit.min(self.map.len()));
        let mut i = self.head;
        while i != NIL && out.len() < limit {
            out.push(self.slots[i].key);
            i = self.slots[i].next;
        }
        out
    }
}

/// Counters exported through `/stats`.
#[derive(Clone, Copy, Debug, Default)]
pub struct IndexStats {
    pub cache_hits: u64,
    pub cache_misses: u64,
    /// Kernel sweeps executed.
    pub batches: u64,
    /// Queries answered by those sweeps (`batched_queries / batches` is the
    /// mean batch occupancy).
    pub batched_queries: u64,
    /// Members of the probed IVF lists, scored from their int8 codes.
    pub ivf_rows_scanned: u64,
    /// Of those, the members re-ranked exactly from their f32 rows.
    pub ivf_rows_reranked: u64,
}

impl IndexStats {
    pub fn hit_rate(&self) -> f64 {
        let total = self.cache_hits + self.cache_misses;
        if total == 0 {
            0.0
        } else {
            self.cache_hits as f64 / total as f64
        }
    }

    pub fn mean_batch_occupancy(&self) -> f64 {
        if self.batches == 0 {
            0.0
        } else {
            self.batched_queries as f64 / self.batches as f64
        }
    }
}

/// The cache misses of one `query_batch` call that share a probe: one
/// kernel sweep.
struct ProbeGroup {
    probe: Probe,
    /// Position of each member in the call's query list.
    slots: Vec<usize>,
    /// `(entity, clamped k)` per member, the sweep's input.
    members: Vec<(u32, usize)>,
}

/// The serving facade: [`AlignmentIndex`] + LRU cache + sweep counters.
/// Shared across server workers behind an `Arc`; every public method takes
/// `&self`.
pub struct BatchIndex {
    index: AlignmentIndex,
    default_probe: Probe,
    threads: usize,
    cache: Mutex<LruCache>,
    hits: AtomicU64,
    misses: AtomicU64,
    batches: AtomicU64,
    batched_queries: AtomicU64,
    ivf_rows_scanned: AtomicU64,
    ivf_rows_reranked: AtomicU64,
}

impl BatchIndex {
    /// `threads` kernel threads per sweep; `cache_cap` answers are
    /// memoized (0 disables).
    pub fn new(index: AlignmentIndex, threads: usize, cache_cap: usize) -> Self {
        let default_probe = index.default_probe();
        Self {
            index,
            default_probe,
            threads: threads.max(1),
            cache: Mutex::new(LruCache::new(cache_cap)),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            batches: AtomicU64::new(0),
            batched_queries: AtomicU64::new(0),
            ivf_rows_scanned: AtomicU64::new(0),
            ivf_rows_reranked: AtomicU64::new(0),
        }
    }

    pub fn index(&self) -> &AlignmentIndex {
        &self.index
    }

    /// The probe applied when a query does not choose one. Defaults to
    /// [`AlignmentIndex::default_probe`].
    pub fn default_probe(&self) -> Probe {
        self.default_probe
    }

    /// Overrides the default probe (builder style).
    pub fn with_default_probe(mut self, probe: Probe) -> Self {
        self.default_probe = probe;
        self
    }

    pub fn stats(&self) -> IndexStats {
        IndexStats {
            cache_hits: self.hits.load(Ordering::Relaxed),
            cache_misses: self.misses.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            batched_queries: self.batched_queries.load(Ordering::Relaxed),
            ivf_rows_scanned: self.ivf_rows_scanned.load(Ordering::Relaxed),
            ivf_rows_reranked: self.ivf_rows_reranked.load(Ordering::Relaxed),
        }
    }

    /// The answer cache's hottest `limit` keys, most recently used first —
    /// what a hot-swap replays against a replacement index before flipping.
    pub fn recent_cache_keys(&self, limit: usize) -> Vec<CacheKey> {
        self.cache().recent_keys(limit)
    }

    /// The answer cache's lock. The cache only memoises, so a guard
    /// poisoned by a panic under it is recovered by starting the cache over,
    /// empty at the same capacity: every answer stays exact, only the
    /// cache's warmth is lost.
    fn cache(&self) -> MutexGuard<'_, LruCache> {
        self.cache.lock().unwrap_or_else(|poisoned| {
            let mut cache = poisoned.into_inner();
            *cache = LruCache::new(cache.capacity());
            self.cache.clear_poison();
            cache
        })
    }

    fn validate(&self, entity: u32, k: usize) -> Result<usize, QueryError> {
        let n1 = self.index.num_queries();
        if (entity as usize) >= n1 {
            return Err(QueryError::EntityOutOfRange { entity, n1 });
        }
        if k == 0 {
            return Err(QueryError::ZeroK);
        }
        Ok(k.min(self.index.num_targets()))
    }

    fn cache_key(&self, entity: u32, k: usize, probe: Probe) -> CacheKey {
        CacheKey {
            entity,
            k: k as u32,
            metric: self.index.metric(),
            probe: probe.code(),
            generation: self.index.generation(),
        }
    }

    /// Answers one query under the default probe: the one-element case of
    /// [`BatchIndex::query_batch`]. Safe to call from any number of
    /// threads.
    pub fn query(&self, entity: u32, k: usize) -> Result<Answer, QueryError> {
        self.query_probed(entity, k, None)
    }

    /// [`BatchIndex::query`] with an explicit probe (`None` applies the
    /// default).
    pub fn query_probed(
        &self,
        entity: u32,
        k: usize,
        probe: Option<Probe>,
    ) -> Result<Answer, QueryError> {
        self.query_batch(&[(entity, k, probe)])
            .pop()
            .expect("one result per query")
    }

    /// Answers a group of queries submitted together — a pipelined run
    /// from one connection, or a hot-swap's warm keys. Validation errors
    /// and cache hits resolve under one cache lock; the misses are grouped
    /// by probe and each group runs as one kernel sweep on the calling
    /// thread, immediately. Answers are the same bits whatever else shares
    /// the call (batching is unobservable); per-query validation errors
    /// are returned in place without disturbing the rest of the group.
    pub fn query_batch(
        &self,
        queries: &[(u32, usize, Option<Probe>)],
    ) -> Vec<Result<Answer, QueryError>> {
        let mut results: Vec<Option<Result<Answer, QueryError>>> = vec![None; queries.len()];
        // The batch-max-k truncation trick is only sound within one probe
        // (answers under different probes are not prefixes of each other),
        // so each probe's misses get their own sweep. In the common case
        // every query uses the default probe and there is one group.
        let mut groups: Vec<ProbeGroup> = Vec::new();
        {
            let mut cache = self.cache();
            for (i, &(entity, k, probe)) in queries.iter().enumerate() {
                let k = match self.validate(entity, k) {
                    Ok(k) => k,
                    Err(e) => {
                        results[i] = Some(Err(e));
                        continue;
                    }
                };
                let probe = probe.unwrap_or(self.default_probe);
                if let Some(hit) = cache.get(&self.cache_key(entity, k, probe)) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    results[i] = Some(Ok(hit.clone()));
                    continue;
                }
                self.misses.fetch_add(1, Ordering::Relaxed);
                match groups.iter_mut().find(|g| g.probe == probe) {
                    Some(g) => {
                        g.slots.push(i);
                        g.members.push((entity, k));
                    }
                    None => groups.push(ProbeGroup {
                        probe,
                        slots: vec![i],
                        members: vec![(entity, k)],
                    }),
                }
            }
        }
        for g in groups {
            let (answers, counts) =
                self.index
                    .answer_batch_probed(&g.members, g.probe, self.threads);
            self.batches.fetch_add(1, Ordering::Relaxed);
            self.batched_queries
                .fetch_add(g.members.len() as u64, Ordering::Relaxed);
            self.ivf_rows_scanned
                .fetch_add(counts.scanned as u64, Ordering::Relaxed);
            self.ivf_rows_reranked
                .fetch_add(counts.reranked as u64, Ordering::Relaxed);
            let mut cache = self.cache();
            for ((i, (entity, k)), answer) in g.slots.into_iter().zip(g.members).zip(answers) {
                cache.insert(self.cache_key(entity, k, g.probe), answer.clone());
                results[i] = Some(Ok(answer));
            }
        }
        results
            .into_iter()
            .map(|r| r.expect("every query resolved"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::snapshot::tests::tiny_snapshot;

    fn bits(results: &[Result<Answer, QueryError>]) -> Vec<Vec<(u32, u32)>> {
        results
            .iter()
            .map(|r| {
                let answer = r.as_ref().expect("a valid query");
                answer.iter().map(|&(t, s)| (t, s.to_bits())).collect()
            })
            .collect()
    }

    #[test]
    fn a_panic_under_the_cache_lock_costs_the_cache_and_no_answer() {
        let index = BatchIndex::new(AlignmentIndex::new(tiny_snapshot()), 1, 8);
        let queries = [(0, 2, None), (1, 1, None), (2, 2, None)];
        let before = bits(&index.query_batch(&queries));
        let keys = index.recent_cache_keys(8);
        assert_eq!(keys.len(), queries.len());

        std::thread::scope(|s| {
            let holder = s.spawn(|| {
                let _guard = index.cache.lock();
                panic!("a job panics while it holds the cache lock");
            });
            assert!(holder.join().is_err());
        });
        assert!(index.cache.is_poisoned());

        // The cache started over, and the lock is clean again.
        assert!(index.recent_cache_keys(8).is_empty());
        assert!(!index.cache.is_poisoned());
        assert_eq!(index.cache().capacity(), 8);
        let misses = index.stats().cache_misses;
        assert_eq!(bits(&index.query_batch(&queries)), before);
        assert_eq!(index.stats().cache_misses, misses + queries.len() as u64);
        assert_eq!(index.recent_cache_keys(8), keys);
    }
}
