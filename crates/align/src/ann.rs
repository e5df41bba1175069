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
//! ## Storage: int8 lists, f32 rows borrowed
//!
//! An [`IvfPartition`] owns no target rows. Each member row is stored as
//! `dim` int8 codes with one symmetric f32 scale (its largest coordinate
//! maps to ±127), list-contiguous and pre-transposed into the
//! [`DEFAULT_TILE`]-wide dimension-major blocks the scan consumes, plus an
//! f32 upper bound on its quantization error `‖x − x̃‖₂` (computed in `f64`,
//! rounded up) and, for cosine, its exact norm. That is `dim + 8` bytes
//! per row (`dim + 12` under cosine) beside the ids, against `4·dim` for an
//! f32 copy. The exact rows stay where they already are — the caller's
//! row-major targets — and [`IvfPartition::over`] binds the two into an
//! [`IvfIndex`] that searches.
//!
//! ## Exactness contract
//!
//! Stage two dequantizes one tile of codes into f32 scratch and scores it
//! with the same [`Metric::similarity_tile`] as the dense sweep: an
//! approximate score `ã` per member. Each metric turns the stored error `e`
//! into a bound `b ≥ s − ã` on the member's exact score `s` — `e/‖x‖` for
//! cosine, `‖q‖·e` for inner, `e` for euclidean, `√dim·e` for manhattan
//! (each distance is 1-Lipschitz in the row under its norm) — plus the
//! `γ_dim`-style rounding slack of both kernel evaluations. A member is
//! re-ranked exactly unless `ã + b < T`, `T` being the exact `k`-th best
//! score accepted so far: its row is gathered from the targets by id,
//! transposed, scored by `similarity_tile` and folded through
//! `push_topk_any` under the shared tie rule (descending score, lowest
//! target index wins, NaN last). A skipped member's exact score is strictly
//! below `k` accepted ones, so it cannot be in the top `k`, and the answer
//! is the exact top `k` of every probed member, scores and all. With
//! `nprobe = nlist` that is **bit-identical** to the dense exact sweep —
//! approximation error comes only from partitions not probed, never from
//! the codes. The test is NaN-safe: a NaN anywhere makes it false. A row
//! that is non-finite or whose norm lies outside `[2⁻⁵⁰, 2⁵⁰]` (zero
//! included) has `e = +∞`, and a query whose norm lies outside that range
//! prunes nothing, so those are always re-ranked. `tests/ann_equivalence.rs`
//! pins all of this.
//!
//! ## Determinism
//!
//! The k-means build samples and initializes from a seeded [`SmallRng`] and
//! assigns points via [`TopKMatrix`] (thread- and tile-invariant), so the
//! partition — and hence every approximate answer — is a pure function of
//! `(targets, dim, metric, config)`, regardless of build thread count.
//! Queries are sequential per call; batching parallelism lives upstream.
//! How many members a query re-ranks ([`SearchCounts`]) is a function of the
//! same inputs and the query.
//!
//! ## Build memory
//!
//! A build's peak is the partition it returns plus one k-means sample: the
//! sample and the Lloyd accumulators live only inside centroid training,
//! the assignment table is dropped once the CSR ids exist, and the codes
//! are filled in place, one [`DEFAULT_TILE`]-row block at a time (gather by
//! id → norms → quantize and bound → transpose), so no f32 copy of the
//! corpus ever exists beside them. `tests/publish_memory.rs` gates this on
//! allocated bytes.

use crate::metric::Metric;
use crate::simmat::DEFAULT_TILE;
use crate::topk::{push_topk_any, score_desc, TopKMatrix};
use openea_math::vecops;
use openea_runtime::rng::{SeedableRng, SliceRandom, SmallRng};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Deref;

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

/// The code a row's largest coordinate maps to: codes span `[-127, 127]`.
const LEVELS: f32 = 127.0;

/// Row and query norms the error bounds hold for: inside this range no
/// kernel sum can overflow and underflow costs at most an absolute
/// `2⁻⁵⁸`. Anything outside (zero, non-finite) is always re-ranked.
const MIN_NORM: f64 = 1.0 / (1u64 << 50) as f64;
const MAX_NORM: f64 = (1u64 << 50) as f64;

/// An inverted-file partition over one side's embeddings: `nlist`
/// centroids, CSR member lists (ids ascending within each list) and the
/// members' int8 codes, list-contiguous and tile-transposed so the scan
/// sweeps dense dimension-major memory with the register microkernels. It
/// holds no target rows: [`IvfPartition::over`] binds it to the rows it was
/// built over.
#[derive(Clone, Debug)]
pub struct IvfPartition {
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
    /// CSR offsets into `ids` (and every per-member table), length
    /// `nlist + 1`.
    offsets: Vec<usize>,
    /// Target indices, ascending within each list.
    ids: Vec<u32>,
    /// The members' codes in list order, pre-transposed at build time into
    /// the exact [`DEFAULT_TILE`]-wide dimension-major blocks the scan
    /// consumes: within each list, rows `[g, g1)` (stepping `DEFAULT_TILE`
    /// from the list's start) occupy `codes[g*dim..g1*dim]` in
    /// [`vecops::transpose_tile`] layout. Member `g` dequantizes to
    /// `code as f32 * scales[g]`.
    codes: Vec<i8>,
    /// One symmetric scale per member, by position `g` (0 for a member
    /// that is always re-ranked).
    scales: Vec<f32>,
    /// `‖x − x̃‖₂` per member, rounded up; `+∞` for a member that is always
    /// re-ranked.
    errors: Vec<f32>,
    /// Exact norms of the members under `metric` (empty unless it needs
    /// them), by position `g`: the approximate and the exact score share
    /// them.
    norms: Vec<f32>,
}

/// An [`IvfPartition`] bound to the row-major targets it was built over:
/// the searchable index. [`IvfIndex::build`] owns its partition;
/// [`IvfPartition::over`] borrows one.
#[derive(Clone, Debug)]
pub struct IvfIndex<'a> {
    part: Cow<'a, IvfPartition>,
    targets: &'a [f32],
}

/// What one search touched.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SearchCounts {
    /// Members of the probed lists, each scored from its codes.
    pub scanned: usize,
    /// Members whose exact row was gathered and scored.
    pub reranked: usize,
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

/// Quantizes row `x` into `codes`, one per coordinate: returns the row's
/// scale and an upper bound on `‖x − x̃‖₂`, with `x̃[d] = codes[d] as f32 *
/// scale` exactly as the scan dequantizes. A row whose norm is outside
/// `[MIN_NORM, MAX_NORM]` (zero and non-finite rows included) gets zero
/// codes, scale 0 and error `+∞`: it is always re-ranked.
fn quantize(x: &[f32], codes: &mut [i8]) -> (f32, f32) {
    let norm = x
        .iter()
        .map(|&v| f64::from(v) * f64::from(v))
        .sum::<f64>()
        .sqrt();
    if !(MIN_NORM..=MAX_NORM).contains(&norm) {
        codes.fill(0);
        return (0.0, f32::INFINITY);
    }
    let amax = x.iter().fold(0.0f32, |m, v| m.max(v.abs()));
    let (scale, inv) = (amax / LEVELS, LEVELS / amax);
    for (c, &v) in codes.iter_mut().zip(x) {
        // Any code is sound (the error below is measured, not assumed);
        // round half away from zero without a libm call.
        let y = v * inv;
        *c = ((y + 0.5f32.copysign(y)) as i32).clamp(-127, 127) as i8;
    }
    let err: f64 = codes
        .iter()
        .zip(x)
        .map(|(&c, &v)| (f64::from(v) - f64::from(f32::from(c) * scale)).powi(2))
        .sum();
    (scale, round_up(err.sqrt()))
}

/// `e`, an `f64` result whose relative error is far below `2⁻³⁰`, as the
/// nearest `f32` that is not below the exact value.
fn round_up(e: f64) -> f32 {
    let e = e * (1.0 + 1.0 / (1u64 << 30) as f64);
    let f = e as f32;
    if f64::from(f) < e {
        f.next_up()
    } else {
        f
    }
}

/// Absolute slack for underflow in a kernel sum over rows and queries whose
/// norms are at least [`MIN_NORM`]: far above `dim · 2⁻¹⁴⁸`.
const TINY: f32 = 1.0 / (1u64 << 58) as f32;

/// A query's side of the per-member bound `b ≥ s − ã` (module docs): the
/// exact score `s` of a member is at most its approximate score `ã` plus
/// [`Slack::bound`].
struct Slack {
    metric: Metric,
    /// `2·(dim + 8)·ε`: four times the `γ_dim` of one kernel fold, so one
    /// term covers the folds of both scores, the f32 norms they divide by
    /// and the few roundings of the bound itself.
    gamma: f32,
    /// `‖q‖₂` (inner: `|q·(x − x̃)| ≤ ‖q‖₂·e`).
    q2: f32,
    /// `127·‖q‖₁` (inner): times a member's scale it bounds `Σ|q_d y_d|`
    /// for `y` the row or its codes, which the fold's rounding scales with.
    q1_levels: f32,
    /// `√dim` (manhattan: `‖v‖₁ ≤ √dim·‖v‖₂`).
    root_dim: f32,
}

impl Slack {
    /// `None` when the query's norm is outside `[MIN_NORM, MAX_NORM]` (or
    /// the dimension is too large for the first-order slack): then every
    /// probed member is re-ranked.
    fn new(metric: Metric, query: &[f32]) -> Option<Self> {
        let norm = query
            .iter()
            .map(|&v| f64::from(v) * f64::from(v))
            .sum::<f64>()
            .sqrt();
        let gamma = 2.0 * (query.len() as f32 + 8.0) * f32::EPSILON;
        if !(MIN_NORM..=MAX_NORM).contains(&norm) || gamma > 1.0 / 64.0 {
            return None;
        }
        Some(Self {
            metric,
            gamma,
            q2: vecops::norm2(query),
            q1_levels: vecops::norm1(query) * LEVELS,
            root_dim: (query.len() as f32).sqrt(),
        })
    }

    /// The bound for member `g` of `part` whose approximate score is
    /// `approx`. `+∞` or NaN for a member that is always re-ranked.
    #[inline]
    fn bound(&self, part: &IvfPartition, g: usize, approx: f32) -> f32 {
        let (e, grow) = (part.errors[g], 1.0 + self.gamma);
        match self.metric {
            Metric::Cosine => e / part.norms[g] * (1.0 + 4.0 * self.gamma) + 4.0 * self.gamma,
            Metric::Inner => {
                (self.q2 * e + self.gamma * self.q1_levels * part.scales[g]) * grow + TINY
            }
            Metric::Euclidean => (e + self.gamma * approx.abs()) * grow + TINY,
            Metric::Manhattan => (self.root_dim * e + self.gamma * approx.abs()) * grow + TINY,
        }
    }
}

/// Whether a member whose exact score is at most `upper` may still enter
/// a top `k` whose `k`-th exact score is `t`: anything but a proven `upper <
/// t`, so a NaN on either side keeps it. Rounding is monotone, so the f32
/// sum `ã + b` below `t` proves the exact `ã + b` is.
fn may_enter(upper: f32, t: f32) -> bool {
    upper.partial_cmp(&t) != Some(Ordering::Less)
}

/// Scratch of the exact re-rank: gathered rows, their transpose, their
/// norms and their scores.
#[derive(Default)]
struct Rerank {
    rows: Vec<f32>,
    rows_t: Vec<f32>,
    norms: Vec<f32>,
    scores: Vec<f32>,
}

impl IvfPartition {
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
                codes: Vec::new(),
                scales: Vec::new(),
                errors: Vec::new(),
                norms: Vec::new(),
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

        // Gather, norm, quantize and pre-transpose one scan tile at a time,
        // straight into place: no f32 copy of the corpus ever exists.
        // Blocks step `DEFAULT_TILE` from each *list's* start (not the
        // global origin) so the scan can slice `codes` with the same
        // `[g, g1)` bounds it probes with.
        let mut codes = vec![0i8; n * dim];
        let mut scales = Vec::with_capacity(n);
        let mut errors = Vec::with_capacity(n);
        let mut norms = Vec::with_capacity(if metric.needs_norms() { n } else { 0 });
        let mut tile = Vec::with_capacity(DEFAULT_TILE.min(n) * dim);
        let mut row_codes = vec![0i8; dim];
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
                norms.extend(metric.row_norms(&tile, dim));
                let rows = g1 - g;
                let block = &mut codes[g * dim..g1 * dim];
                for (j, x) in tile.chunks_exact(dim).enumerate() {
                    let (scale, err) = quantize(x, &mut row_codes);
                    scales.push(scale);
                    errors.push(err);
                    for (d, &q) in row_codes.iter().enumerate() {
                        block[d * rows + j] = q;
                    }
                }
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
            codes,
            scales,
            errors,
            norms,
        }
    }

    /// Binds the partition to the row-major targets it was built over.
    ///
    /// # Panics
    ///
    /// When `targets` does not hold [`IvfPartition::len`] rows of
    /// [`IvfPartition::dim`] values.
    pub fn over<'a>(&'a self, targets: &'a [f32]) -> IvfIndex<'a> {
        assert_eq!(
            targets.len(),
            self.ids.len() * self.dim,
            "an IVF partition searches the rows it was built over"
        );
        IvfIndex {
            part: Cow::Borrowed(self),
            targets,
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
    /// taken once per query, shared by probe ordering and both scores.
    fn query_norm(&self, query: &[f32]) -> f32 {
        if self.metric.needs_norms() {
            vecops::norm2(query)
        } else {
            0.0
        }
    }

    /// The first `nprobe ≤ nlist` entries of [`IvfPartition::probe_order`].
    /// The comparator is a total order, so selecting the prefix and sorting
    /// only it gives exactly what sorting every partition would.
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

    /// Dequantizes members `[g, g1)` — one scan tile — into `out`, in the
    /// dimension-major layout of their codes.
    fn dequantize(&self, g: usize, g1: usize, out: &mut [f32]) {
        let rows = g1 - g;
        let scales = &self.scales[g..g1];
        let codes = &self.codes[g * self.dim..g1 * self.dim];
        for (dst, src) in out.chunks_exact_mut(rows).zip(codes.chunks_exact(rows)) {
            for ((o, &c), &s) in dst.iter_mut().zip(src).zip(scales) {
                *o = f32::from(c) * s;
            }
        }
    }

    /// The exact norms of members `[g, g1)` (empty unless the metric needs
    /// them).
    fn norms_of(&self, g: usize, g1: usize) -> &[f32] {
        if self.norms.is_empty() {
            &[]
        } else {
            &self.norms[g..g1]
        }
    }
}

impl<'a> IvfIndex<'a> {
    /// Builds a partition over row-major `targets` (`n × dim`) and binds it
    /// to them: [`IvfPartition::build`], then [`IvfPartition::over`].
    pub fn build(
        targets: &'a [f32],
        dim: usize,
        metric: Metric,
        cfg: &AnnConfig,
        threads: usize,
    ) -> Self {
        Self {
            part: Cow::Owned(IvfPartition::build(targets, dim, metric, cfg, threads)),
            targets,
        }
    }

    /// Two-stage top-`k` for one query: probe the `nprobe` best partitions
    /// (clamped to `[1, nlist]`), return the exact top `k` of their members.
    /// Answers are sorted by the shared tie rule; with `nprobe ≥ nlist` the
    /// result is bit-identical to the dense exact sweep.
    pub fn search(&self, query: &[f32], k: usize, nprobe: usize) -> Vec<(u32, f32)> {
        self.search_stats(query, k, nprobe).0
    }

    /// [`IvfIndex::search`] also reporting how many members the probed
    /// lists hold — the bench derives its candidate-fraction curve from
    /// this.
    pub fn search_counted(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> (Vec<(u32, f32)>, usize) {
        let (answer, counts) = self.search_stats(query, k, nprobe);
        (answer, counts.scanned)
    }

    /// [`IvfIndex::search`] with the members it scanned and re-ranked.
    pub fn search_stats(
        &self,
        query: &[f32],
        k: usize,
        nprobe: usize,
    ) -> (Vec<(u32, f32)>, SearchCounts) {
        let part = &*self.part;
        let dim = part.dim;
        assert_eq!(query.len(), dim);
        let mut counts = SearchCounts::default();
        if part.nlist == 0 || k == 0 {
            return (Vec::new(), counts);
        }
        let q_norm = [part.query_norm(query)];
        let order = part.best_partitions(query, q_norm[0], nprobe.clamp(1, part.nlist));
        let slack = Slack::new(part.metric, query);
        let mut acc: Vec<(u32, f32)> = Vec::with_capacity(k.min(part.len()));
        let mut tile = vec![0.0f32; DEFAULT_TILE * dim];
        let mut approx = vec![0.0f32; DEFAULT_TILE];
        let (mut first, mut picked) = (Vec::new(), Vec::new());
        let mut scratch = Rerank::default();
        for &c in &order {
            let (lo, hi) = (part.offsets[c as usize], part.offsets[c as usize + 1]);
            counts.scanned += hi - lo;
            let mut g = lo;
            while g < hi {
                let g1 = (g + DEFAULT_TILE).min(hi);
                let rows = g1 - g;
                let (tile, approx) = (&mut tile[..rows * dim], &mut approx[..rows]);
                part.dequantize(g, g1, tile);
                let tn = part.norms_of(g, g1);
                part.metric
                    .similarity_tile(query, &q_norm, dim, tile, tn, approx, rows);
                let need = k - acc.len();
                let Some(slack) = slack.as_ref().filter(|_| need < rows) else {
                    // No threshold can prune this tile: re-rank all of it.
                    picked.clear();
                    picked.extend(g..g1);
                    self.rerank(query, &q_norm, &picked, &mut acc, k, &mut scratch);
                    counts.reranked += rows;
                    g = g1;
                    continue;
                };
                // Fewer than `k` accepted: the tile's `need` best by
                // approximate score set the threshold first.
                first.clear();
                if need > 0 {
                    first.extend(g..g1);
                    first.select_nth_unstable_by(need, |&a, &b| {
                        score_desc(approx[a - g], approx[b - g]).then(a.cmp(&b))
                    });
                    first.truncate(need);
                    first.sort_unstable();
                    self.rerank(query, &q_norm, &first, &mut acc, k, &mut scratch);
                }
                let t = acc[k - 1].1;
                picked.clear();
                picked.extend((g..g1).filter(|&m| {
                    let a = approx[m - g];
                    may_enter(a + slack.bound(part, m, a), t) && first.binary_search(&m).is_err()
                }));
                self.rerank(query, &q_norm, &picked, &mut acc, k, &mut scratch);
                counts.reranked += first.len() + picked.len();
                g = g1;
            }
        }
        (acc, counts)
    }

    /// Scores `members` (positions in list order) exactly from their target
    /// rows and folds them into `acc`.
    fn rerank(
        &self,
        query: &[f32],
        q_norm: &[f32; 1],
        members: &[usize],
        acc: &mut Vec<(u32, f32)>,
        k: usize,
        s: &mut Rerank,
    ) {
        if members.is_empty() {
            return;
        }
        let part = &*self.part;
        let dim = part.dim;
        s.rows.clear();
        s.norms.clear();
        for &m in members {
            let i = part.ids[m] as usize;
            s.rows
                .extend_from_slice(&self.targets[i * dim..(i + 1) * dim]);
            if !part.norms.is_empty() {
                s.norms.push(part.norms[m]);
            }
        }
        vecops::transpose_tile(&s.rows, dim, &mut s.rows_t);
        s.scores.clear();
        s.scores.resize(members.len(), 0.0);
        part.metric.similarity_tile(
            query,
            q_norm,
            dim,
            &s.rows_t,
            &s.norms,
            &mut s.scores,
            members.len(),
        );
        for (&m, &score) in members.iter().zip(&s.scores) {
            push_topk_any(acc, k, part.ids[m], score);
        }
    }
}

impl Deref for IvfIndex<'_> {
    type Target = IvfPartition;

    fn deref(&self) -> &IvfPartition {
        &self.part
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
