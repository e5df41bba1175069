//! Two-stage approximate nearest-neighbour search: an IVF (inverted-file)
//! partition over the target embeddings cuts each query to a few candidate
//! lists, then the exact block kernels re-rank those candidates.
//!
//! ## Why IVF
//!
//! The paper (§8) names scalability past ~100K entities as the open gap:
//! a dense sweep touches every target per query, so serving a 1M-entity KG
//! costs 1M × dim FLOPs per lookup. The two-stage path spends a tiny
//! centroid scan (`nlist` rows) to pick the `nprobe` most promising
//! partitions and only re-ranks the targets inside them — typically a few
//! percent of the corpus for >0.95 recall@10 on clustered embeddings.
//!
//! ## Exactness contract
//!
//! The second stage is *exact* on whatever candidates stage one admits:
//! per-pair scores come from the same block kernels as the dense sweep
//! (bit-identical accumulation order), and the accumulator implements the
//! shared tie rule (descending score, lowest target index wins, NaN last).
//! Therefore with `nprobe = nlist` every target is a candidate and the
//! result is **bit-identical** to the dense exact sweep — approximation
//! error comes only from partitions not probed, never from re-scoring.
//! `tests/ann_equivalence.rs` pins this.
//!
//! ## Determinism
//!
//! The k-means build samples and initializes from a seeded [`SmallRng`] and
//! assigns points via [`TopKMatrix`] (thread- and tile-invariant), so the
//! partition — and hence every approximate answer — is a pure function of
//! `(targets, dim, metric, config)`, regardless of build thread count.
//! Queries are sequential per call; batching parallelism lives upstream.
//!
//! ## Build memory
//!
//! A build's peak is the index it returns plus one k-means sample: the
//! sample and the Lloyd accumulators live only inside centroid training,
//! the assignment table is dropped once the CSR ids exist, and the
//! list-contiguous transposed copy of the rows is filled in place, one
//! [`DEFAULT_TILE`]-row block at a time (gather by id → norms → transpose),
//! so no row-major gathered copy of the corpus ever exists beside it.
//! `tests/publish_memory.rs` gates this on allocated bytes.

use crate::metric::Metric;
use crate::simmat::DEFAULT_TILE;
use crate::topk::{push_topk_any, score_desc, TopKMatrix};
use openea_math::vecops;
use openea_runtime::rng::{SeedableRng, SliceRandom, SmallRng};

/// Build-time knobs for the IVF partition.
#[derive(Clone, Copy, Debug)]
pub struct AnnConfig {
    /// Number of k-means partitions; `0` picks `≈ √n` automatically.
    pub nlist: usize,
    /// Lloyd iterations.
    pub iters: usize,
    /// Seed for sampling and centroid initialization.
    pub seed: u64,
}

impl Default for AnnConfig {
    fn default() -> Self {
        Self {
            nlist: 0,
            iters: 8,
            seed: 0x0A11,
        }
    }
}

/// Upper bound on the rows used to *train* the centroids (the final
/// assignment always covers every target). Stride-sampled for coverage.
pub const TRAIN_SAMPLE: usize = 65_536;

/// An inverted-file index over one side's embeddings: `nlist` centroids,
/// CSR member lists (ids ascending within each list) and a list-contiguous,
/// tile-transposed copy of the member rows so re-ranking sweeps dense
/// dimension-major memory with the register microkernels — no per-query
/// transpose.
#[derive(Clone, Debug)]
pub struct IvfIndex {
    dim: usize,
    metric: Metric,
    nlist: usize,
    /// The `nlist × dim` centroids as one dimension-major tile
    /// ([`vecops::transpose_tile`] layout) so probe ordering runs the
    /// transposed register kernels directly.
    centroids_t: Vec<f32>,
    /// Norms of `centroids` under `metric` (empty unless the metric needs
    /// them) — probe ordering scores centroids with the *index* metric.
    centroid_norms: Vec<f32>,
    /// CSR offsets into `ids`/`gathered_t`, length `nlist + 1`.
    offsets: Vec<usize>,
    /// Target indices, ascending within each list.
    ids: Vec<u32>,
    /// The member rows gathered list-contiguously and pre-transposed at
    /// build time into the exact [`DEFAULT_TILE`]-wide dimension-major
    /// blocks the re-rank sweep consumes: within each list, rows
    /// `[g, g1)` (stepping `DEFAULT_TILE` from the list's start) occupy
    /// `gathered_t[g*dim..g1*dim]` in [`vecops::transpose_tile`] layout.
    /// Queries then skip the per-tile transpose entirely.
    gathered_t: Vec<f32>,
    /// Norms of the gathered rows under `metric` (empty unless needed),
    /// indexed by gathered position `g`.
    gathered_norms: Vec<f32>,
}

/// The metric used to *cluster* (assignment + probe training): raw inner
/// product has no meaningful mean-centroid geometry, so it clusters by
/// cosine; every other metric clusters as itself. Probe *ordering* at query
/// time always uses the index metric, so ranking semantics never change.
fn cluster_metric(metric: Metric) -> Metric {
    match metric {
        Metric::Inner => Metric::Cosine,
        m => m,
    }
}

/// K-means centroids (`nlist × dim`, row-major) trained on a stride sample
/// of `targets`. The sample and the Lloyd accumulators live only inside
/// this call.
fn train_centroids(
    targets: &[f32],
    dim: usize,
    cmetric: Metric,
    nlist: usize,
    cfg: &AnnConfig,
    threads: usize,
) -> Vec<f32> {
    let n = targets.len() / dim;
    // Stride-sample the training set so it covers the whole corpus, then
    // shuffle a copy to seed the initial centroids.
    let take = TRAIN_SAMPLE.max(nlist).min(n);
    let stride = n / take;
    let train_ids: Vec<usize> = (0..take).map(|t| t * stride).collect();
    let mut train = Vec::with_capacity(take * dim);
    for &i in &train_ids {
        train.extend_from_slice(&targets[i * dim..(i + 1) * dim]);
    }
    let mut rng = SmallRng::seed_from_u64(cfg.seed);
    let mut init = train_ids;
    init.shuffle(&mut rng);
    let mut centroids = Vec::with_capacity(nlist * dim);
    for &i in init.iter().take(nlist) {
        centroids.extend_from_slice(&targets[i * dim..(i + 1) * dim]);
    }

    // Lloyd iterations over the training sample. Mean updates accumulate
    // in f64 over ascending row order — deterministic by construction.
    let mut sums = vec![0f64; nlist * dim];
    let mut counts = vec![0usize; nlist];
    for _ in 0..cfg.iters {
        let assign = TopKMatrix::compute(&train, &centroids, dim, cmetric, 1, threads);
        sums.iter_mut().for_each(|s| *s = 0.0);
        counts.iter_mut().for_each(|c| *c = 0);
        for (t, row) in assign.iter_rows().enumerate() {
            let c = row[0].0 as usize;
            counts[c] += 1;
            let src = &train[t * dim..(t + 1) * dim];
            let dst = &mut sums[c * dim..(c + 1) * dim];
            for (d, &v) in dst.iter_mut().zip(src) {
                *d += v as f64;
            }
        }
        for c in 0..nlist {
            if counts[c] == 0 {
                continue; // empty cluster keeps its previous centroid
            }
            let inv = 1.0 / counts[c] as f64;
            for d in 0..dim {
                centroids[c * dim + d] = (sums[c * dim + d] * inv) as f32;
            }
        }
    }
    centroids
}

impl IvfIndex {
    /// Builds the partition over row-major `targets` (`n × dim`).
    ///
    /// Deterministic in `(targets, dim, metric, cfg)`; `threads` only
    /// parallelizes the k-means assignment sweeps and never changes the
    /// result (the assignment kernel is thread-invariant).
    pub fn build(
        targets: &[f32],
        dim: usize,
        metric: Metric,
        cfg: &AnnConfig,
        threads: usize,
    ) -> Self {
        assert!(dim > 0, "dim must be positive");
        assert_eq!(targets.len() % dim, 0);
        let n = targets.len() / dim;
        let nlist = if n == 0 {
            0
        } else if cfg.nlist == 0 {
            ((n as f64).sqrt().round() as usize).clamp(1, n)
        } else {
            cfg.nlist.clamp(1, n)
        };
        if nlist == 0 {
            return Self {
                dim,
                metric,
                nlist: 0,
                centroids_t: Vec::new(),
                centroid_norms: Vec::new(),
                offsets: vec![0],
                ids: Vec::new(),
                gathered_t: Vec::new(),
                gathered_norms: Vec::new(),
            };
        }
        let cmetric = cluster_metric(metric);

        let centroids = train_centroids(targets, dim, cmetric, nlist, cfg, threads);

        // Final assignment of *every* target, then CSR layout. Iterating
        // targets in ascending order keeps each list's ids ascending. The
        // assignment table is dropped as soon as the ids exist.
        let mut offsets = vec![0usize; nlist + 1];
        let mut ids = vec![0u32; n];
        {
            let assign = TopKMatrix::compute(targets, &centroids, dim, cmetric, 1, threads);
            for row in assign.iter_rows() {
                offsets[row[0].0 as usize + 1] += 1;
            }
            for c in 0..nlist {
                offsets[c + 1] += offsets[c];
            }
            let mut cursor = offsets.clone();
            for (i, row) in assign.iter_rows().enumerate() {
                let c = row[0].0 as usize;
                ids[cursor[c]] = i as u32;
                cursor[c] += 1;
            }
        }
        let centroid_norms = metric.row_norms(&centroids, dim);

        // Gather, norm and pre-transpose one re-rank tile at a time,
        // straight into place: no list-ordered row-major copy of the
        // corpus ever exists. Blocks step `DEFAULT_TILE` from each *list's*
        // start (not the global origin) so the query sweep can slice
        // `gathered_t` with the same `[g, g1)` bounds it probes with.
        let mut gathered_t = vec![0.0f32; n * dim];
        let mut gathered_norms = Vec::with_capacity(if metric.needs_norms() { n } else { 0 });
        let mut tile = Vec::with_capacity(DEFAULT_TILE.min(n) * dim);
        let mut scratch = Vec::new();
        for c in 0..nlist {
            let (lo, hi) = (offsets[c], offsets[c + 1]);
            let mut g = lo;
            while g < hi {
                let g1 = (g + DEFAULT_TILE).min(hi);
                tile.clear();
                for &i in &ids[g..g1] {
                    let i = i as usize;
                    tile.extend_from_slice(&targets[i * dim..(i + 1) * dim]);
                }
                gathered_norms.extend(metric.row_norms(&tile, dim));
                vecops::transpose_tile(&tile, dim, &mut scratch);
                gathered_t[g * dim..g1 * dim].copy_from_slice(&scratch);
                g = g1;
            }
        }
        let mut centroids_t = Vec::new();
        vecops::transpose_tile(&centroids, dim, &mut centroids_t);
        Self {
            dim,
            metric,
            nlist,
            centroids_t,
            centroid_norms,
            offsets,
            ids,
            gathered_t,
            gathered_norms,
        }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Number of partitions (0 for an index over zero targets).
    pub fn nlist(&self) -> usize {
        self.nlist
    }

    /// Total indexed targets.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// The default probe width: an eighth of the partitions (≥ 1). On
    /// k-means partitions of clustered embeddings this lands ≥ 0.95
    /// recall@10 (pinned by the recall regression gate) at roughly an
    /// order of magnitude fewer scored targets.
    pub fn default_nprobe(&self) -> usize {
        (self.nlist / 8).max(1)
    }

    /// Member target ids of partition `c` (ascending).
    pub fn list_ids(&self, c: usize) -> &[u32] {
        &self.ids[self.offsets[c]..self.offsets[c + 1]]
    }

    /// Partitions in probe order for `query`: descending centroid score
    /// under the index metric, ties toward the lower partition index.
    pub fn probe_order(&self, query: &[f32]) -> Vec<u32> {
        self.best_partitions(query, self.query_norm(query), self.nlist)
    }

    /// The query's norm under the index metric (0 when it needs none):
    /// taken once per query, shared by probe ordering and re-rank.
    fn query_norm(&self, query: &[f32]) -> f32 {
        if self.metric.needs_norms() {
            vecops::norm2(query)
        } else {
            0.0
        }
    }

    /// The first `nprobe ≤ nlist` entries of [`IvfIndex::probe_order`]. The
    /// comparator is a total order, so selecting the prefix and sorting only
    /// it gives exactly what sorting every partition would.
    fn best_partitions(&self, query: &[f32], q_norm: f32, nprobe: usize) -> Vec<u32> {
        assert_eq!(query.len(), self.dim);
        if self.nlist == 0 {
            return Vec::new();
        }
        let mut scores = vec![0.0f32; self.nlist];
        self.metric.similarity_tile(
            query,
            &[q_norm],
            self.dim,
            &self.centroids_t,
            &self.centroid_norms,
            &mut scores,
            self.nlist,
        );
        let by_score =
            |a: &u32, b: &u32| score_desc(scores[*a as usize], scores[*b as usize]).then(a.cmp(b));
        let mut order: Vec<u32> = (0..self.nlist as u32).collect();
        if nprobe < self.nlist {
            order.select_nth_unstable_by(nprobe, by_score);
            order.truncate(nprobe);
        }
        order.sort_unstable_by(by_score);
        order
    }

    /// Two-stage top-`k` for one query: probe the `nprobe` best partitions
    /// (clamped to `[1, nlist]`), exactly re-rank their members. Answers are
    /// sorted by the shared tie rule; with `nprobe ≥ nlist` the result is
    /// bit-identical to the dense exact sweep.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u32, f32)> {
        self.search_counted(query, k, nprobe).0
    }

    /// [`IvfIndex::search`] also reporting how many targets were scored —
    /// the bench derives its candidate-fraction curve from this.
    pub fn search_counted(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> (Vec<(u32, f32)>, usize) {
        assert_eq!(query.len(), self.dim);
        if self.nlist == 0 || k == 0 {
            return (Vec::new(), 0);
        }
        let nprobe = nprobe.clamp(1, self.nlist);
        let q_norm = [self.query_norm(query)];
        let order = self.best_partitions(query, q_norm[0], nprobe);
        let mut acc: Vec<(u32, f32)> = Vec::with_capacity(k.min(self.ids.len()));
        let mut scores = vec![0.0f32; DEFAULT_TILE];
        let mut scanned = 0usize;
        for &c in &order {
            let (lo, hi) = (self.offsets[c as usize], self.offsets[c as usize + 1]);
            scanned += hi - lo;
            let mut g = lo;
            while g < hi {
                let g1 = (g + DEFAULT_TILE).min(hi);
                let tile_t = &self.gathered_t[g * self.dim..g1 * self.dim];
                let tn: &[f32] = if self.gathered_norms.is_empty() {
                    &[]
                } else {
                    &self.gathered_norms[g..g1]
                };
                let block = &mut scores[..g1 - g];
                self.metric
                    .similarity_tile(query, &q_norm, self.dim, tile_t, tn, block, g1 - g);
                for (off, &s) in block.iter().enumerate() {
                    push_topk_any(&mut acc, k, self.ids[g + off], s);
                }
                g = g1;
            }
        }
        (acc, scanned)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::rng::Rng;

    fn embeddings(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = SmallRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    fn dense_topk(src: &[f32], dst: &[f32], dim: usize, m: Metric, k: usize) -> Vec<(u32, f32)> {
        let t = TopKMatrix::compute(src, dst, dim, m, k, 1);
        t.row(0).to_vec()
    }

    #[test]
    fn all_probes_match_dense_sweep_bitwise() {
        let dst = embeddings(137, 6, 11);
        let queries = embeddings(5, 6, 12);
        for metric in Metric::ALL {
            let ix = IvfIndex::build(&dst, 6, metric, &AnnConfig::default(), 2);
            for q in 0..5 {
                let query = &queries[q * 6..(q + 1) * 6];
                let got = ix.search(query, 9, ix.nlist());
                let want = dense_topk(query, &dst, 6, metric, 9);
                assert_eq!(got.len(), want.len(), "{}", metric.label());
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.0, b.0, "{}", metric.label());
                    assert_eq!(a.1.to_bits(), b.1.to_bits(), "{}", metric.label());
                }
            }
        }
    }

    #[test]
    fn partitions_cover_every_target_exactly_once() {
        let dst = embeddings(200, 4, 3);
        let ix = IvfIndex::build(&dst, 4, Metric::Cosine, &AnnConfig::default(), 1);
        let mut seen: Vec<u32> = (0..ix.nlist())
            .flat_map(|c| ix.list_ids(c).to_vec())
            .collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..200u32).collect::<Vec<_>>());
        // Within every list the ids ascend.
        for c in 0..ix.nlist() {
            let l = ix.list_ids(c);
            assert!(l.windows(2).all(|w| w[0] < w[1]), "list {c} not ascending");
        }
    }

    #[test]
    fn build_is_thread_invariant() {
        let dst = embeddings(150, 5, 7);
        let a = IvfIndex::build(&dst, 5, Metric::Euclidean, &AnnConfig::default(), 1);
        let b = IvfIndex::build(&dst, 5, Metric::Euclidean, &AnnConfig::default(), 8);
        assert_eq!(a.offsets, b.offsets);
        assert_eq!(a.ids, b.ids);
        assert_eq!(a.centroids_t, b.centroids_t);
    }

    #[test]
    fn empty_and_degenerate_shapes() {
        let ix = IvfIndex::build(&[], 3, Metric::Cosine, &AnnConfig::default(), 1);
        assert_eq!(ix.nlist(), 0);
        assert!(ix.search(&[0.0, 0.0, 0.0], 5, 4).is_empty());
        assert!(ix.probe_order(&[0.0, 0.0, 0.0]).is_empty());

        let one = embeddings(1, 3, 9);
        let ix = IvfIndex::build(&one, 3, Metric::Inner, &AnnConfig::default(), 1);
        assert_eq!(ix.nlist(), 1);
        let ans = ix.search(&[1.0, 0.0, -1.0], 4, 99);
        assert_eq!(ans.len(), 1);
        assert_eq!(ans[0].0, 0);
    }

    #[test]
    fn fewer_probes_scan_fewer_targets() {
        let dst = embeddings(500, 4, 21);
        let ix = IvfIndex::build(
            &dst,
            4,
            Metric::Cosine,
            &AnnConfig {
                nlist: 16,
                ..Default::default()
            },
            1,
        );
        let q = &dst[..4];
        let (_, all) = ix.search_counted(q, 10, ix.nlist());
        let (_, few) = ix.search_counted(q, 10, 2);
        assert_eq!(all, 500);
        assert!(few < all, "{few} vs {all}");
        assert!(few > 0);
    }

    #[test]
    fn probed_subset_is_consistent_with_probe_order() {
        // An nprobe-limited answer only contains ids from the probed lists,
        // and equals the dense top-k restricted to that candidate set.
        let dst = embeddings(300, 4, 33);
        let ix = IvfIndex::build(
            &dst,
            4,
            Metric::Manhattan,
            &AnnConfig {
                nlist: 8,
                ..Default::default()
            },
            1,
        );
        let q = embeddings(1, 4, 34);
        let nprobe = 3;
        let order = ix.probe_order(&q);
        let mut allowed: Vec<u32> = order[..nprobe]
            .iter()
            .flat_map(|&c| ix.list_ids(c as usize).to_vec())
            .collect();
        allowed.sort_unstable();
        let got = ix.search(&q, 7, nprobe);
        for &(id, _) in &got {
            assert!(allowed.binary_search(&id).is_ok(), "id {id} not probed");
        }
        // Reference: exact scores on the allowed subset, shared tie rule.
        let mut reference: Vec<(u32, f32)> = allowed
            .iter()
            .map(|&j| {
                let row = &dst[j as usize * 4..(j as usize + 1) * 4];
                (j, Metric::Manhattan.similarity(&q, row))
            })
            .collect();
        reference.sort_by(|a, b| score_desc(a.1, b.1).then(a.0.cmp(&b.0)));
        reference.truncate(7);
        assert_eq!(got, reference);
    }

    #[test]
    fn probed_partitions_are_the_prefix_of_the_full_order() {
        let dst = embeddings(240, 4, 51);
        let cfg = AnnConfig {
            nlist: 12,
            ..Default::default()
        };
        // The zero query ties every centroid score, so only the
        // partition-id tie-break orders its probes.
        let mut queries = embeddings(6, 4, 52);
        queries.extend([0.0; 4]);
        for metric in Metric::ALL {
            let ix = IvfIndex::build(&dst, 4, metric, &cfg, 1);
            for q in queries.chunks(4) {
                let full = ix.probe_order(q);
                for nprobe in [1, 3, ix.nlist()] {
                    let got = ix.best_partitions(q, ix.query_norm(q), nprobe);
                    assert_eq!(got, full[..nprobe]);
                }
            }
        }
    }

    #[test]
    fn nlist_clamps_to_target_count() {
        let dst = embeddings(3, 2, 40);
        let ix = IvfIndex::build(
            &dst,
            2,
            Metric::Cosine,
            &AnnConfig {
                nlist: 64,
                ..Default::default()
            },
            1,
        );
        assert_eq!(ix.nlist(), 3);
        assert!(ix.default_nprobe() >= 1);
    }
}
