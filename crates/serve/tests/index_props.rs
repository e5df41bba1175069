//! Property suite for the serving layer's LRU answer cache and batched
//! query path, on the `props!` harness.
//!
//! Two contracts are pinned here:
//!
//! * **Cache correctness** — the LRU cache behaves exactly like a reference
//!   model (a linear-scan LRU): a hit can only return the value most
//!   recently inserted for that *full* key, so an answer computed for one
//!   `(entity, k, metric)` can never surface for a different `k` or a
//!   different metric, and occupancy never exceeds capacity.
//! * **Batching is unobservable** — however the queries are grouped into
//!   `query_batch` calls, at whatever thread count and interleaving, every
//!   query's answer is bit-identical to the dense `compute_naive` reference
//!   under the shared tie rule (descending score, lowest target index
//!   wins) — and each call costs exactly one sweep per probe, and counts
//!   the same IVF rows scanned and re-ranked at any thread count.

use openea_align::{AnnConfig, Metric, SimilarityMatrix};
use openea_runtime::rng::{Rng, SeedableRng, SmallRng};
use openea_runtime::testkit::prelude::*;
use openea_serve::{AlignmentIndex, Answer, BatchIndex, CacheKey, LruCache, Probe, Snapshot};
use std::sync::Arc;

/// The value an entry for `key` must carry — derived from the *full* key
/// (probe and generation included) so any stale or cross-key answer is
/// detectable.
fn answer_for(key: &CacheKey) -> Answer {
    let tag = match key.metric {
        Metric::Cosine => 0,
        Metric::Inner => 1,
        Metric::Euclidean => 2,
        Metric::Manhattan => 3,
    };
    vec![(
        key.entity * 100 + key.k + key.probe * 1_000 + (key.generation as u32) * 10_000,
        (key.k * 10 + tag) as f32,
    )]
}

/// Reference LRU: a Vec ordered most-recent-first, linear scans everywhere.
struct ModelLru {
    cap: usize,
    entries: Vec<(CacheKey, Answer)>,
}

impl ModelLru {
    fn get(&mut self, key: &CacheKey) -> Option<Answer> {
        let i = self.entries.iter().position(|(k, _)| k == key)?;
        let e = self.entries.remove(i);
        let v = e.1.clone();
        self.entries.insert(0, e);
        Some(v)
    }

    fn insert(&mut self, key: CacheKey, value: Answer) {
        if self.cap == 0 {
            return;
        }
        if let Some(i) = self.entries.iter().position(|(k, _)| *k == key) {
            self.entries.remove(i);
        } else if self.entries.len() == self.cap {
            self.entries.pop();
        }
        self.entries.insert(0, (key, value));
    }
}

fn key_from(entity: u32, k: u32, metric_tag: u8) -> CacheKey {
    key_full(entity, k, metric_tag, 0, 0)
}

fn key_full(entity: u32, k: u32, metric_tag: u8, probe: u32, generation: u64) -> CacheKey {
    CacheKey {
        entity,
        k,
        metric: match metric_tag {
            0 => Metric::Cosine,
            1 => Metric::Inner,
            2 => Metric::Euclidean,
            _ => Metric::Manhattan,
        },
        probe,
        generation,
    }
}

props! {
    #![cases = 192]

    /// The intrusive-list LRU agrees with the reference model on every
    /// hit/miss decision and every returned value, across interleaved
    /// inserts and lookups over a deliberately colliding key space
    /// (few entities × few ks × all four metrics).
    #[test]
    fn lru_agrees_with_reference_model(
        cap in 0usize..5,
        ops in vec_of((any_bool(), 0u32..4, 1u32..4, 0u8..4), 0..48),
    ) {
        let mut lru = LruCache::new(cap);
        let mut model = ModelLru { cap, entries: Vec::new() };
        for (is_insert, entity, k, metric_tag) in ops {
            let key = key_from(entity, k, metric_tag);
            if is_insert {
                lru.insert(key, answer_for(&key));
                model.insert(key, answer_for(&key));
            } else {
                let got = lru.get(&key).cloned();
                let want = model.get(&key);
                prop_assert_eq!(&got, &want, "get({key:?}): lru {got:?} vs model {want:?}");
                if let Some(v) = got {
                    // A hit is never stale: the value always matches the
                    // full key it was inserted under (k and metric included).
                    prop_assert_eq!(v, answer_for(&key));
                }
            }
            prop_assert!(lru.len() <= cap, "occupancy {} exceeds capacity {cap}", lru.len());
            prop_assert_eq!(lru.len(), model.entries.len());
        }
    }

    /// Keys that differ only in `k` or only in metric are distinct cache
    /// entries — each lookup returns its own answer, never a neighbour's.
    #[test]
    fn lru_never_crosses_k_or_metric(
        entity in 0u32..8,
        k in 1u32..6,
    ) {
        let mut lru = LruCache::new(64);
        let keys: Vec<CacheKey> = (0u8..4)
            .flat_map(|m| [key_from(entity, k, m), key_from(entity, k + 1, m)])
            .collect();
        for key in &keys {
            lru.insert(*key, answer_for(key));
        }
        for key in &keys {
            prop_assert_eq!(
                lru.get(key).cloned(),
                Some(answer_for(key)),
                "{key:?} must hit with its own answer"
            );
        }
    }

    /// Regression for the cache-aliasing fix: keys that differ only in the
    /// probe (exact vs any nprobe width, or two widths) or only in the
    /// snapshot generation are distinct entries — an approximate answer can
    /// never surface for an exact query, and no answer survives a reload.
    #[test]
    fn lru_never_crosses_probe_or_generation(
        entity in 0u32..8,
        k in 1u32..6,
        metric_tag in 0u8..4,
    ) {
        let mut lru = LruCache::new(64);
        let keys: Vec<CacheKey> = [(0u32, 1u64), (1, 1), (4, 1), (0, 2), (1, 2)]
            .iter()
            .map(|&(probe, generation)| key_full(entity, k, metric_tag, probe, generation))
            .collect();
        for key in &keys {
            lru.insert(*key, answer_for(key));
        }
        for key in &keys {
            prop_assert_eq!(
                lru.get(key).cloned(),
                Some(answer_for(key)),
                "{key:?} must hit with its own answer"
            );
        }
    }
}

/// Random row-major embeddings in [-1, 1].
fn embeddings(n: usize, dim: usize, rng: &mut SmallRng) -> Vec<f32> {
    (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
}

/// Dense reference answer: `compute_naive` row + stable argsort under the
/// shared tie rule (descending score, lowest index wins), truncated to `k`.
fn dense_answers(snap: &Snapshot, queries: &[(u32, usize)]) -> Vec<Answer> {
    let sim = SimilarityMatrix::compute_naive(&snap.emb1, &snap.emb2, snap.dim, snap.metric, 1);
    queries
        .iter()
        .map(|&(e, k)| {
            let row = sim.row(e as usize);
            let mut idx: Vec<u32> = (0..row.len() as u32).collect();
            idx.sort_by(|&a, &b| {
                row[b as usize]
                    .partial_cmp(&row[a as usize])
                    .expect("finite scores")
                    .then(a.cmp(&b))
            });
            idx.into_iter()
                .take(k.min(row.len()))
                .map(|j| (j, row[j as usize]))
                .collect()
        })
        .collect()
}

fn bit_equal(a: &Answer, b: &Answer) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(&(i, s), &(j, t))| i == j && s.to_bits() == t.to_bits())
}

props! {
    #![cases = 24]

    /// Per-query answers are bit-identical to the dense reference however
    /// the query list is cut into `query_batch` calls (issued from
    /// concurrent threads), at any kernel thread count and cache capacity
    /// — and asking again (a guaranteed cache hit on the second pass when
    /// the cache is ample) changes nothing.
    #[test]
    fn batched_answers_equal_dense_reference(
        seed in 0u64..10_000,
        dim in 2usize..5,
        n1 in 1usize..10,
        n2 in 1usize..10,
        raw_queries in vec_of((0u32..10, 1usize..12), 1..24),
        metric_tag in 0u8..4,
    ) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let snap = Snapshot {
            dim,
            metric: match metric_tag {
                0 => Metric::Cosine,
                1 => Metric::Inner,
                2 => Metric::Euclidean,
                _ => Metric::Manhattan,
            },
            emb1: embeddings(n1, dim, &mut rng),
            emb2: embeddings(n2, dim, &mut rng),
            names1: Vec::new(),
            names2: Vec::new(),
            trace: Default::default(),
            lineage: None,
        };
        let queries: Vec<(u32, usize, Option<Probe>)> =
            raw_queries.iter().map(|&(e, k)| (e % n1 as u32, k.min(n2), None)).collect();
        let plain: Vec<(u32, usize)> = queries.iter().map(|&(e, k, _)| (e, k)).collect();
        let expected = dense_answers(&snap, &plain);

        for &grouping in &[1usize, 7, 64] {
            for &threads in &[1usize, 2, 8] {
                let index = Arc::new(BatchIndex::new(
                    AlignmentIndex::new(snap.clone()),
                    threads,
                    // Exercise cache-off, tiny (evicting) and ample caches.
                    [0, 2, 64][(seed % 3) as usize],
                ));
                for pass in 0..2 {
                    let answers: Vec<Answer> = std::thread::scope(|s| {
                        let handles: Vec<_> = queries
                            .chunks(grouping)
                            .map(|group| {
                                let ix = Arc::clone(&index);
                                s.spawn(move || ix.query_batch(group))
                            })
                            .collect();
                        handles
                            .into_iter()
                            .flat_map(|h| h.join().expect("no panic"))
                            .map(|r| r.expect("validated query"))
                            .collect()
                    });
                    for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
                        prop_assert!(
                            bit_equal(got, want),
                            "pass {pass} grouping {grouping} threads {threads} query {i} \
                             {:?}: got {got:?}, want {want:?}",
                            queries[i]
                        );
                    }
                }
                let stats = index.stats();
                prop_assert_eq!(
                    stats.cache_hits + stats.cache_misses,
                    2 * queries.len() as u64,
                    "every query passes through the cache counters"
                );
            }
        }
    }

    /// Validation errors are typed and never panic: out-of-range entities
    /// and k == 0 are rejected, in-range queries succeed with k clamped to
    /// the target count.
    #[test]
    fn query_validation_is_typed(
        n1 in 1usize..6,
        n2 in 1usize..6,
        entity in 0u32..12,
        k in 0usize..9,
    ) {
        let snap = Snapshot {
            dim: 2,
            metric: Metric::Cosine,
            emb1: vec![0.5; n1 * 2],
            emb2: vec![0.25; n2 * 2],
            names1: Vec::new(),
            names2: Vec::new(),
            trace: Default::default(),
            lineage: None,
        };
        let index = BatchIndex::new(AlignmentIndex::new(snap), 1, 8);
        let res = index.query(entity, k);
        if entity as usize >= n1 || k == 0 {
            prop_assert!(res.is_err(), "expected a typed rejection, got {res:?}");
        } else {
            let ans = res.expect("valid query answers");
            prop_assert_eq!(ans.len(), k.min(n2));
        }
    }

    /// Mixed-probe batches: every query's answer equals its own
    /// single-query reference — `Exact` the dense sweep, `Nprobe(n)` the
    /// [`IvfIndex::search`] of that width — regardless of thread count or
    /// which probes shared the call. The first pass submits the whole mixed
    /// list as one `query_batch` (pinning its group-by-probe sweeps: the
    /// batch-max-k truncation trick is only sound within one probe group);
    /// the second asks again one query per concurrent caller, against the
    /// cache entries the first pass keyed by probe.
    #[test]
    fn mixed_probe_batches_answer_per_probe_references(
        seed in 0u64..10_000,
        n2 in 8usize..40,
        raw_queries in vec_of((0u32..6, 1usize..12, 0u8..4), 1..16),
        metric_tag in 0u8..4,
    ) {
        let dim = 4;
        let n1 = 6;
        let mut rng = SmallRng::seed_from_u64(seed);
        let snap = Snapshot {
            dim,
            metric: match metric_tag {
                0 => Metric::Cosine,
                1 => Metric::Inner,
                2 => Metric::Euclidean,
                _ => Metric::Manhattan,
            },
            emb1: embeddings(n1, dim, &mut rng),
            emb2: embeddings(n2, dim, &mut rng),
            names1: Vec::new(),
            names2: Vec::new(),
            trace: Default::default(),
            lineage: None,
        };
        let cfg = AnnConfig { nlist: 4, ..Default::default() };
        let queries: Vec<(u32, usize, Option<Probe>)> = raw_queries
            .iter()
            .map(|&(e, k, p)| {
                let probe = match p {
                    0 => None,
                    1 => Some(Probe::Exact),
                    2 => Some(Probe::Nprobe(1)),
                    _ => Some(Probe::Nprobe(2)),
                };
                (e % n1 as u32, k.min(n2), probe)
            })
            .collect();

        for &threads in &[1usize, 4] {
            let index = Arc::new(BatchIndex::new(
                AlignmentIndex::with_ann(snap.clone(), &cfg, threads),
                threads,
                64,
            ));
            let ivf = index.index().ann().expect("built with ann");
            let default_probe = index.default_probe();
            let expected: Vec<Answer> = queries
                .iter()
                .map(|&(e, k, probe)| match probe.unwrap_or(default_probe) {
                    Probe::Exact => dense_answers(&snap, &[(e, k)]).remove(0),
                    Probe::Nprobe(n) => {
                        let q = &snap.emb1[e as usize * dim..(e as usize + 1) * dim];
                        ivf.search(q, k, n as usize)
                    }
                })
                .collect();
            let together: Vec<Answer> =
                index.query_batch(&queries).into_iter().map(|r| r.expect("valid")).collect();
            let apart: Vec<Answer> = std::thread::scope(|s| {
                let handles: Vec<_> = queries
                    .iter()
                    .map(|&(e, k, probe)| {
                        let ix = Arc::clone(&index);
                        s.spawn(move || ix.query_probed(e, k, probe).expect("valid"))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("no panic")).collect()
            });
            for (pass, answers) in [together, apart].iter().enumerate() {
                for (i, (got, want)) in answers.iter().zip(&expected).enumerate() {
                    prop_assert!(
                        bit_equal(got, want),
                        "pass {pass} threads {threads} query {i} {:?}: got {got:?}, want {want:?}",
                        queries[i]
                    );
                }
            }
        }
    }
}

/// Regression for the cache-aliasing fix (the LRU used to key on
/// `(entity, k, metric)` only): an exact answer and an `nprobe`-limited
/// answer for the same `(entity, k)` are distinct cache entries. With two
/// well-separated target clusters, `nlist = 2` and `k = n2`, the probed
/// answer is a strict subset of the exact one — under the old key the
/// second query would have returned whichever answer was cached first.
#[test]
fn exact_and_probed_answers_never_alias_in_the_cache() {
    let dim = 2;
    let n2 = 8;
    // Two tight clusters around (±1, 0); queries sit near (+1, 0).
    let mut emb2 = Vec::new();
    for i in 0..n2 {
        let sign = if i % 2 == 0 { 1.0 } else { -1.0 };
        emb2.extend_from_slice(&[sign * (1.0 + 0.01 * i as f32), 0.02 * i as f32]);
    }
    let snap = Snapshot {
        dim,
        metric: Metric::Euclidean,
        emb1: vec![1.0, 0.0, 0.9, 0.1],
        emb2,
        names1: Vec::new(),
        names2: Vec::new(),
        trace: Default::default(),
        lineage: None,
    };
    let cfg = AnnConfig {
        nlist: 2,
        ..Default::default()
    };
    let index = BatchIndex::new(AlignmentIndex::with_ann(snap.clone(), &cfg, 1), 1, 64);
    let exact_want = dense_answers(&snap, &[(0, n2)]).remove(0);
    let probed_want = index
        .index()
        .ann()
        .expect("built with ann")
        .search(&snap.emb1[..dim], n2, 1);
    // The partition must actually separate the clusters for this test to
    // have teeth: the probed answer sees only one cluster.
    assert_eq!(
        probed_want.len(),
        n2 / 2,
        "k-means failed to split the clusters"
    );

    // Interleave both probes twice; the second pass hits the cache.
    for pass in 0..2 {
        let exact = index.query_probed(0, n2, Some(Probe::Exact)).unwrap();
        let probed = index.query_probed(0, n2, Some(Probe::Nprobe(1))).unwrap();
        assert!(
            bit_equal(&exact, &exact_want),
            "pass {pass}: exact answer drifted"
        );
        assert!(
            bit_equal(&probed, &probed_want),
            "pass {pass}: probed answer drifted"
        );
    }
    let stats = index.stats();
    assert_eq!(stats.cache_misses, 2, "each probe computed exactly once");
    assert_eq!(
        stats.cache_hits, 2,
        "each probe hit its own entry on pass 2"
    );
}

/// The caller's batch is the sweep: each `query_batch` call runs its misses
/// as exactly one kernel sweep per probe, whatever its size — nothing caps
/// a run at a batch limit or merges it with another call's.
#[test]
fn each_call_is_one_sweep_per_probe() {
    let (n1, n2, dim) = (256, 16, 2);
    let mut rng = SmallRng::seed_from_u64(5);
    let snap = Snapshot {
        dim,
        metric: Metric::Inner,
        emb1: embeddings(n1, dim, &mut rng),
        emb2: embeddings(n2, dim, &mut rng),
        names1: Vec::new(),
        names2: Vec::new(),
        trace: Default::default(),
        lineage: None,
    };
    let calls = 3u64;
    for m in [1usize, 64, 256] {
        let index = BatchIndex::new(AlignmentIndex::new(snap.clone()), 1, 0);
        let run: Vec<(u32, usize, Option<Probe>)> = (0..m as u32).map(|e| (e, 3, None)).collect();
        for _ in 0..calls {
            assert!(index.query_batch(&run).iter().all(Result::is_ok));
        }
        let stats = index.stats();
        assert_eq!(stats.batches, calls, "m = {m}: one sweep per call");
        assert_eq!(stats.batched_queries, calls * m as u64, "m = {m}");
    }

    let cfg = AnnConfig {
        nlist: 4,
        ..Default::default()
    };
    let index = BatchIndex::new(AlignmentIndex::with_ann(snap, &cfg, 1), 1, 0);
    let probes = [Probe::Exact, Probe::Nprobe(1), Probe::Nprobe(2)];
    let mixed: Vec<(u32, usize, Option<Probe>)> = (0..30u32)
        .map(|e| (e, 3, Some(probes[e as usize % probes.len()])))
        .collect();
    assert!(index.query_batch(&mixed).iter().all(Result::is_ok));
    let stats = index.stats();
    assert_eq!(stats.batches, probes.len() as u64, "one sweep per probe");
    assert_eq!(stats.batched_queries, mixed.len() as u64);
}

/// `/stats`' IVF counters are sums of per-query [`IvfIndex::search_stats`]:
/// the members the probed lists hold and the members re-ranked exactly. The
/// same queries count the same rows at kernel threads {1, 2, 8}, whichever
/// thread answered which query, and a dense sweep counts none.
#[test]
fn ivf_row_counters_repeat_exactly_across_thread_counts() {
    let (n1, n2, dim) = (64, 3_000, 8);
    let mut rng = SmallRng::seed_from_u64(17);
    let snap = Snapshot {
        dim,
        metric: Metric::Cosine,
        emb1: embeddings(n1, dim, &mut rng),
        emb2: embeddings(n2, dim, &mut rng),
        names1: Vec::new(),
        names2: Vec::new(),
        trace: Default::default(),
        lineage: None,
    };
    let cfg = AnnConfig::default();
    let queries: Vec<(u32, usize, Option<Probe>)> = (0..n1 as u32)
        .map(|e| (e, 1 + e as usize % 12, None))
        .collect();
    let mut seen = Vec::new();
    for threads in [1usize, 2, 8] {
        let index = BatchIndex::new(
            AlignmentIndex::with_ann(snap.clone(), &cfg, threads),
            threads,
            0,
        );
        assert!(index.query_batch(&queries).iter().all(Result::is_ok));
        let ivf = index.index().ann().expect("built with ann");
        let Probe::Nprobe(nprobe) = index.default_probe() else {
            panic!("an index with a partition probes it by default");
        };
        let (mut scanned, mut reranked) = (0u64, 0u64);
        for &(e, k, _) in &queries {
            let q = &snap.emb1[e as usize * dim..(e as usize + 1) * dim];
            let (_, counts) = ivf.search_stats(q, k, nprobe as usize);
            scanned += counts.scanned as u64;
            reranked += counts.reranked as u64;
        }
        let stats = index.stats();
        assert_eq!(
            (stats.ivf_rows_scanned, stats.ivf_rows_reranked),
            (scanned, reranked),
            "threads {threads}"
        );
        assert!(
            0 < reranked && reranked < scanned,
            "{reranked} of {scanned}"
        );
        seen.push((scanned, reranked));

        let exact: Vec<(u32, usize, Option<Probe>)> = queries
            .iter()
            .map(|&(e, k, _)| (e, k, Some(Probe::Exact)))
            .collect();
        assert!(index.query_batch(&exact).iter().all(Result::is_ok));
        let after = index.stats();
        assert_eq!(
            (after.ivf_rows_scanned, after.ivf_rows_reranked),
            (scanned, reranked),
            "a dense sweep scans no list"
        );
    }
    assert!(seen.iter().all(|&c| c == seen[0]), "{seen:?}");
}
