//! Shared semi-supervised machinery: proposing new aligned pairs from the
//! current embeddings (self-training), with or without BootEA's conflict
//! editing. A round reads its candidates' rows where they live — the trained
//! table, a feature view — and copies nothing else.

use crate::common::UnifiedSpace;
use openea_align::{greedy_collective, Metric, SimilarityMatrix, TopKMatrix};
use openea_core::{EntityId, KgPair};
use openea_math::EmbeddingTable;
use std::collections::HashSet;

/// Candidates for augmentation: entities not yet in the (augmented) seed set.
pub fn unaligned_entities(total: usize, taken: &HashSet<EntityId>) -> Vec<EntityId> {
    (0..total)
        .map(EntityId::from_idx)
        .filter(|e| !taken.contains(e))
        .collect()
}

/// One editing round's candidates: KG1 `sources` and KG2 `targets` with
/// their rows, row-major and in the same order (`src` row `i` is
/// `sources[i]`'s), compared under `metric`.
pub(crate) struct Candidates {
    pub(crate) sources: Vec<EntityId>,
    pub(crate) targets: Vec<EntityId>,
    pub(crate) src: Vec<f32>,
    pub(crate) dst: Vec<f32>,
    pub(crate) dim: usize,
    pub(crate) metric: Metric,
}

impl Candidates {
    /// The entities outside `taken1` / `taken2` of a pair trained in one
    /// unified space, their rows read in place from the trained `table`.
    /// Compared by cosine whatever the approach's output metric: a Euclidean
    /// similarity is a negative distance and cannot carry a positive cutoff.
    pub(crate) fn unified(
        pair: &KgPair,
        space: &UnifiedSpace,
        table: &EmbeddingTable,
        taken1: &HashSet<EntityId>,
        taken2: &HashSet<EntityId>,
    ) -> Self {
        let sources = unaligned_entities(pair.kg1.num_entities(), taken1);
        let targets = unaligned_entities(pair.kg2.num_entities(), taken2);
        let (src, dst) = space.gather(table, &sources, &targets);
        Self {
            sources,
            targets,
            src,
            dst,
            dim: table.dim(),
            metric: Metric::Cosine,
        }
    }

    fn is_empty(&self) -> bool {
        self.sources.is_empty() || self.targets.is_empty()
    }
}

/// Candidate rows gathered at a time, per side, by [`propose_nearest`].
const PROPOSAL_BLOCK: usize = 1024;

/// IPTransE-style proposals: every KG1 source's nearest KG2 target by
/// cosine, kept when it scores at least `threshold` — conflicts and errors
/// accumulate. The rows are read from the trained unified `table`
/// [`PROPOSAL_BLOCK`] at a time per side, and each source's best is carried
/// across target blocks by [`TopKMatrix::fold_into`] at k = 1, so the round
/// holds two blocks of rows, not every candidate's.
pub(crate) fn propose_nearest(
    space: &UnifiedSpace,
    table: &EmbeddingTable,
    sources: &[EntityId],
    targets: &[EntityId],
    threshold: f32,
    threads: usize,
) -> Vec<(EntityId, EntityId)> {
    nearest_in_blocks(
        space,
        table,
        sources,
        targets,
        threshold,
        threads,
        PROPOSAL_BLOCK,
    )
}

fn nearest_in_blocks(
    space: &UnifiedSpace,
    table: &EmbeddingTable,
    sources: &[EntityId],
    targets: &[EntityId],
    threshold: f32,
    threads: usize,
    block: usize,
) -> Vec<(EntityId, EntityId)> {
    let mut found = Vec::new();
    let (mut src, mut dst) = (Vec::new(), Vec::new());
    // Room for the one kept entry and the one `push_topk_any` inserts
    // before it trims, so a better score never reallocates.
    let mut best: Vec<Vec<(u32, f32)>> = (0..block.min(sources.len()))
        .map(|_| Vec::with_capacity(2))
        .collect();
    for source_block in sources.chunks(block) {
        space.rows1_into(table, source_block, &mut src);
        let best = &mut best[..source_block.len()];
        best.iter_mut().for_each(Vec::clear);
        for (b, target_block) in targets.chunks(block).enumerate() {
            space.rows2_into(table, target_block, &mut dst);
            let nearest = TopKMatrix::compute(&src, &dst, table.dim(), Metric::Cosine, 1, threads);
            nearest.fold_into(b * block, 1, best);
        }
        for (&a, kept) in source_block.iter().zip(best.iter()) {
            if let Some(&(j, s)) = kept.first() {
                if s >= threshold {
                    found.push((a, targets[j as usize]));
                }
            }
        }
    }
    found
}

/// BootEA-style proposals: the pairs above `threshold` of a 1-to-1 greedy
/// collective matching, which is the paper's "heuristic editing method to
/// remove wrong alignment".
pub(crate) fn propose_edited(
    c: &Candidates,
    threshold: f32,
    threads: usize,
) -> Vec<(EntityId, EntityId)> {
    if c.is_empty() {
        return Vec::new();
    }
    let sim = SimilarityMatrix::compute(&c.src, &c.dst, c.dim, c.metric, threads);
    greedy_collective(&sim)
        .into_iter()
        .enumerate()
        .filter_map(|(i, j)| {
            let j = j?;
            (sim.get(i, j) >= threshold).then_some((c.sources[i], c.targets[j]))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::common::proptests::random_pair;
    use crate::common::Combination;

    /// A space over as many unconnected entities per KG as `src` and `dst`
    /// have two-float rows, trained to exactly those rows, and its
    /// candidates: every entity of both KGs.
    fn trained(src: &[f32], dst: &[f32]) -> (UnifiedSpace, EmbeddingTable, Candidates) {
        let n = src.len() / 2;
        assert_eq!(dst.len(), 2 * n);
        let pair = random_pair(&[], &[], n as u8);
        let space = UnifiedSpace::build(&pair, &[], Combination::Calibration);
        let mut table = EmbeddingTable::zeros(space.num_entities, 2);
        for (e, row) in src.chunks(2).enumerate() {
            table
                .row_mut(space.uid1(EntityId::from_idx(e)) as usize)
                .copy_from_slice(row);
        }
        for (e, row) in dst.chunks(2).enumerate() {
            table
                .row_mut(space.uid2(EntityId::from_idx(e)) as usize)
                .copy_from_slice(row);
        }
        let none = HashSet::new();
        let c = Candidates::unified(&pair, &space, &table, &none, &none);
        (space, table, c)
    }

    #[test]
    fn editing_enforces_one_to_one() {
        // Both sources point at target 0.
        let (space, table, c) = trained(&[1.0, 0.0, 0.9, 0.1], &[1.0, 0.0, 0.0, 1.0]);
        let naive = propose_nearest(&space, &table, &c.sources, &c.targets, 0.0, 1);
        let targets: Vec<_> = naive.iter().map(|&(_, b)| b).collect();
        assert_eq!(targets, vec![EntityId(0), EntityId(0)]); // conflict kept
        let edited = propose_edited(&c, 0.0, 1);
        let tset: HashSet<_> = edited.iter().map(|&(_, b)| b).collect();
        assert_eq!(tset.len(), edited.len()); // 1-to-1
    }

    #[test]
    fn threshold_filters_weak_matches() {
        let (space, table, c) = trained(&[1.0, 0.0], &[0.0, 1.0]); // orthogonal: sim 0
        let propose =
            |threshold| propose_nearest(&space, &table, &c.sources, &c.targets, threshold, 1);
        assert!(propose(0.5).is_empty());
        assert_eq!(propose(-1.0).len(), 1);
    }

    #[test]
    fn unaligned_excludes_taken() {
        let taken: HashSet<EntityId> = [EntityId(1)].into();
        assert_eq!(
            unaligned_entities(3, &taken),
            vec![EntityId(0), EntityId(2)]
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use crate::common::proptests::random_pair;
    use crate::common::{ApproachOutput, Combination};
    use openea_core::AlignedPair;
    use openea_runtime::testkit::prelude::*;

    /// The proposal path as it was before rounds read rows in place: the
    /// whole output extracted, then every candidate's rows gathered out of
    /// it at once.
    fn reference(
        out: &ApproachOutput,
        cand1: &[EntityId],
        cand2: &[EntityId],
        threshold: f32,
        editing: bool,
        threads: usize,
    ) -> Vec<(EntityId, EntityId)> {
        if cand1.is_empty() || cand2.is_empty() {
            return Vec::new();
        }
        if editing {
            let sim = out.similarity(cand1, cand2, threads);
            greedy_collective(&sim)
                .into_iter()
                .enumerate()
                .filter_map(|(i, j)| {
                    let j = j?;
                    (sim.get(i, j) >= threshold).then_some((cand1[i], cand2[j]))
                })
                .collect()
        } else {
            let topk = out.topk(cand1, cand2, 1, threads);
            (0..cand1.len())
                .filter_map(|i| {
                    let (j, s) = topk.best(i)?;
                    (s >= threshold).then_some((cand1[i], cand2[j]))
                })
                .collect()
        }
    }

    props! {
        #![cases = 48]

        /// Both proposal rules, fed rows from the trained table, propose
        /// exactly what the extracting path proposed — under every
        /// combination mode, with seed-shared rows, already-taken entities,
        /// a coarse value grid that makes scores tie and a zero row. Nearest
        /// proposals also at blocks of one to four rows, which candidate
        /// counts of zero to seven mostly do not divide.
        #[test]
        fn proposals_match_the_extracting_reference(
            edges in vec_of((0u8..7, 0u8..4, 0u8..7), 1..24),
            num_seeds in 0usize..4,
            taken in vec_of(any_bool(), 14),
            grid in vec_of(-2i8..=2, 1..40),
            threshold in -1.0f32..1.0,
            (zero_row, threads) in (0usize..14, 1usize..4),
        ) {
            let pair = random_pair(&edges, &edges, 7);
            let seeds: Vec<AlignedPair> = pair.alignment.iter().copied().take(num_seeds).collect();
            let taken1: HashSet<EntityId> =
                (0..7).filter(|&i| taken[i]).map(EntityId::from_idx).collect();
            let taken2: HashSet<EntityId> =
                (0..7).filter(|&i| taken[7 + i]).map(EntityId::from_idx).collect();
            let dim = 3;
            for mode in [Combination::Calibration, Combination::Sharing, Combination::Swapping] {
                let space = UnifiedSpace::build(&pair, &seeds, mode);
                let mut table = EmbeddingTable::zeros(space.num_entities, dim);
                for (k, x) in table.data_mut().iter_mut().enumerate() {
                    *x = grid[k % grid.len()] as f32;
                }
                table.row_mut(zero_row % space.num_entities).fill(0.0);
                let (emb1, emb2) = space.extract(&table);
                let out = ApproachOutput::new(dim, Metric::Cosine, emb1, emb2);
                let c = Candidates::unified(&pair, &space, &table, &taken1, &taken2);
                let nearest = reference(&out, &c.sources, &c.targets, threshold, false, threads);
                prop_assert_eq!(
                    &propose_nearest(&space, &table, &c.sources, &c.targets, threshold, threads),
                    &nearest
                );
                for block in 1..5 {
                    prop_assert_eq!(
                        &nearest_in_blocks(
                            &space, &table, &c.sources, &c.targets, threshold, threads, block
                        ),
                        &nearest
                    );
                }
                prop_assert_eq!(
                    propose_edited(&c, threshold, threads),
                    reference(&out, &c.sources, &c.targets, threshold, true, threads)
                );
            }
        }
    }
}
