//! Exploratory: **large-scale entity alignment** via blocking (paper
//! Sect. 7.2, third future direction).
//!
//! Computing all pairwise similarities grows quadratically ("the cost would
//! grow polynomially along with the growing number of entities"); the paper
//! points at locality-sensitive hashing to narrow the candidate space. This
//! module implements random-hyperplane LSH (signed random projections,
//! which approximate angular/cosine distance): entities hash into buckets
//! across several tables, and only bucket collisions become candidates.

use crate::metric::Metric;
use crate::simmat::DEFAULT_TILE;
use crate::topk::score_desc;
use openea_runtime::rng::Rng;
use std::cmp::Ordering;

/// Random-hyperplane LSH index over row-major embeddings.
pub struct LshIndex {
    dim: usize,
    /// `tables × bits` hyperplane normals, row-major over `dim`.
    planes: Vec<Vec<f32>>,
    bits: usize,
    tables: usize,
    /// Per table: bucket key → target indices.
    buckets: Vec<std::collections::HashMap<u64, Vec<u32>>>,
}

impl LshIndex {
    /// Builds an index over the `targets` embeddings (`n × dim`).
    pub fn build<R: Rng>(
        targets: &[f32],
        dim: usize,
        bits: usize,
        tables: usize,
        rng: &mut R,
    ) -> Self {
        assert!(dim > 0 && bits > 0 && bits <= 64 && tables > 0);
        assert_eq!(targets.len() % dim, 0);
        let n = targets.len() / dim;
        let planes: Vec<Vec<f32>> = (0..tables * bits)
            .map(|_| (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect())
            .collect();
        let mut index = Self {
            dim,
            planes,
            bits,
            tables,
            buckets: vec![std::collections::HashMap::new(); tables],
        };
        for i in 0..n {
            let v = &targets[i * dim..(i + 1) * dim];
            for t in 0..tables {
                let key = index.hash(t, v);
                index.buckets[t].entry(key).or_default().push(i as u32);
            }
        }
        index
    }

    fn hash(&self, table: usize, v: &[f32]) -> u64 {
        let mut key = 0u64;
        for b in 0..self.bits {
            let plane = &self.planes[table * self.bits + b];
            let dot: f32 = plane.iter().zip(v).map(|(p, x)| p * x).sum();
            if dot >= 0.0 {
                key |= 1 << b;
            }
        }
        key
    }

    /// Candidate target indices for a query vector: the union of its bucket
    /// in every table (deduplicated).
    pub fn candidates(&self, query: &[f32]) -> Vec<u32> {
        assert_eq!(query.len(), self.dim);
        let mut out = Vec::new();
        let mut seen = std::collections::HashSet::new();
        for t in 0..self.tables {
            let key = self.hash(t, query);
            if let Some(bucket) = self.buckets[t].get(&key) {
                for &i in bucket {
                    if seen.insert(i) {
                        out.push(i);
                    }
                }
            }
        }
        out
    }
}

/// Result of a blocked greedy match.
#[derive(Clone, Debug)]
pub struct BlockedMatch {
    /// Per source: the best candidate target, if any bucket collided.
    pub matches: Vec<Option<u32>>,
    /// Total candidate comparisons performed (vs. `sources × targets` exact).
    pub comparisons: usize,
}

/// Greedy nearest-neighbour search restricted to LSH candidates.
///
/// Candidates are gathered into contiguous tiles and scored with the same
/// block kernel as the dense matrix (bit-identical scores); score ties
/// resolve toward the candidate appearing first in the (deterministic)
/// bucket-union order.
pub fn blocked_greedy_match(
    sources: &[f32],
    targets: &[f32],
    dim: usize,
    metric: Metric,
    index: &LshIndex,
) -> BlockedMatch {
    assert_eq!(sources.len() % dim, 0);
    assert_eq!(targets.len() % dim, 0);
    let src_norms = metric.row_norms(sources, dim);
    let dst_norms = metric.row_norms(targets, dim);
    let mut matches = Vec::with_capacity(sources.len() / dim);
    let mut comparisons = 0usize;
    // Gather buffers, reused across queries: each batch of candidates is
    // gathered straight into the dimension-major layout the kernel sweeps.
    let mut tile_t = vec![0.0f32; DEFAULT_TILE * dim];
    let mut tile_norms = vec![0.0f32; DEFAULT_TILE];
    let mut scores = vec![0.0f32; DEFAULT_TILE];
    for (i, q) in sources.chunks_exact(dim).enumerate() {
        let q_norm = [src_norms.get(i).copied().unwrap_or(0.0)];
        let cands = index.candidates(q);
        comparisons += cands.len();
        let mut best: Option<(u32, f32)> = None;
        for batch in cands.chunks(DEFAULT_TILE) {
            let width = batch.len();
            for (slot, &j) in batch.iter().enumerate() {
                let j = j as usize;
                for (d, &v) in targets[j * dim..(j + 1) * dim].iter().enumerate() {
                    tile_t[d * width + slot] = v;
                }
                if !dst_norms.is_empty() {
                    tile_norms[slot] = dst_norms[j];
                }
            }
            let out = &mut scores[..width];
            metric.similarity_tile(
                q,
                &q_norm,
                dim,
                &tile_t[..width * dim],
                &tile_norms[..width],
                out,
                width,
            );
            for (slot, &s) in out.iter().enumerate() {
                match best {
                    Some((_, bs)) if score_desc(s, bs) != Ordering::Less => {}
                    _ => best = Some((batch[slot], s)),
                }
            }
        }
        matches.push(best.map(|(j, _)| j));
    }
    BlockedMatch {
        matches,
        comparisons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simmat::SimilarityMatrix;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    /// Paired embeddings: target i = source i + small noise.
    fn paired(n: usize, dim: usize, noise: f32, seed: u64) -> (Vec<f32>, Vec<f32>) {
        let mut rng = SmallRng::seed_from_u64(seed);
        let mut src = Vec::with_capacity(n * dim);
        let mut dst = Vec::with_capacity(n * dim);
        for _ in 0..n {
            let v: Vec<f32> = (0..dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
            src.extend(v.iter());
            dst.extend(v.iter().map(|x| x + rng.gen_range(-noise..=noise)));
        }
        (src, dst)
    }

    #[test]
    fn blocking_approximates_exact_greedy() {
        let (src, dst) = paired(300, 16, 0.05, 1);
        let mut rng = SmallRng::seed_from_u64(2);
        let index = LshIndex::build(&dst, 16, 10, 8, &mut rng);
        let blocked = blocked_greedy_match(&src, &dst, 16, Metric::Cosine, &index);
        // Exact matching for reference.
        let exact = SimilarityMatrix::compute(&src, &dst, 16, Metric::Cosine, 2);
        let mut agree = 0;
        for i in 0..300 {
            if blocked.matches[i].map(|j| j as usize) == exact.argmax_row(i) {
                agree += 1;
            }
        }
        assert!(agree > 240, "only {agree}/300 agree with exact search");
        // And it must actually *block*: far fewer comparisons than 300².
        assert!(
            blocked.comparisons < 300 * 300 / 2,
            "comparisons {} not sublinear",
            blocked.comparisons
        );
    }

    #[test]
    fn match_is_the_first_best_candidate_under_every_metric() {
        // Two bits per table: buckets of ~50 targets, so the union over
        // four tables passes one gathered tile and ends in a short one.
        let (src, dst) = paired(200, 6, 0.3, 7);
        let mut rng = SmallRng::seed_from_u64(8);
        let index = LshIndex::build(&dst, 6, 2, 4, &mut rng);
        for metric in Metric::ALL {
            let blocked = blocked_greedy_match(&src, &dst, 6, metric, &index);
            let (mut comparisons, mut widest) = (0, 0);
            for (i, q) in src.chunks_exact(6).enumerate() {
                let cands = index.candidates(q);
                comparisons += cands.len();
                widest = widest.max(cands.len());
                let mut best: Option<(u32, f32)> = None;
                for &j in &cands {
                    let s = metric.similarity(q, &dst[j as usize * 6..(j as usize + 1) * 6]);
                    if best.is_none_or(|(_, bs)| score_desc(s, bs) == Ordering::Less) {
                        best = Some((j, s));
                    }
                }
                assert_eq!(
                    blocked.matches[i],
                    best.map(|(j, _)| j),
                    "{} source {i} of {} candidates",
                    metric.label(),
                    cands.len()
                );
            }
            assert_eq!(blocked.comparisons, comparisons, "{}", metric.label());
            assert!(widest > DEFAULT_TILE && widest % DEFAULT_TILE != 0);
        }
    }

    #[test]
    fn candidates_contain_near_duplicates() {
        let (src, dst) = paired(100, 8, 0.01, 3);
        let mut rng = SmallRng::seed_from_u64(4);
        let index = LshIndex::build(&dst, 8, 8, 10, &mut rng);
        let mut hit = 0;
        for i in 0..100 {
            let q = &src[i * 8..(i + 1) * 8];
            if index.candidates(q).contains(&(i as u32)) {
                hit += 1;
            }
        }
        assert!(hit > 90, "true counterpart found for only {hit}/100");
    }

    #[test]
    fn empty_buckets_yield_no_match() {
        let mut rng = SmallRng::seed_from_u64(5);
        // One far-away target; query in the opposite orthant may miss.
        let dst = vec![1.0f32; 8];
        let index = LshIndex::build(&dst, 8, 12, 1, &mut rng);
        let src: Vec<f32> = (0..8).map(|_| -1.0f32).collect();
        let blocked = blocked_greedy_match(&src, &dst, 8, Metric::Cosine, &index);
        // Either it found the lone target (collision) or nothing — no panic.
        assert_eq!(blocked.matches.len(), 1);
    }
}
