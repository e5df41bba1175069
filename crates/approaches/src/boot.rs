//! Shared semi-supervised machinery: the self-training `Ledger` every
//! semi-supervised driver keeps its rounds in, and proposing new aligned
//! pairs from the current embeddings, with or without BootEA's conflict
//! editing. A round reads its candidates' rows where they live — the trained
//! table, a feature view — and copies nothing else.

use crate::common::{calibrate, UnifiedSpace};
use openea_align::{precision_recall_f1, stable_marriage_topk, Metric, PrfScores, TopKMatrix};
use openea_core::{AlignedPair, EntityId, KgPair};
use openea_math::EmbeddingTable;
use std::collections::HashSet;

/// Candidates for augmentation: entities not yet in the (augmented) seed set.
fn unaligned_entities(total: usize, taken: &HashSet<EntityId>) -> Vec<EntityId> {
    (0..total)
        .map(EntityId::from_idx)
        .filter(|e| !taken.contains(e))
        .collect()
}

/// The bookkeeping of one self-training run (IPTransE, BootEA, KDCoE, the
/// unsupervised pipeline): the entities taken on each side, seeded from the
/// run's seed pairs, the proposals in force, and — when the run is scored —
/// the Figure-7 curve of those proposals against the gold alignment. A
/// round proposes, then commits under one of three rules: [`Ledger::extend`],
/// [`Ledger::accept`] or [`Ledger::replace`].
pub(crate) struct Ledger {
    n1: usize,
    n2: usize,
    taken1: HashSet<EntityId>,
    taken2: HashSet<EntityId>,
    /// The proposals in force, in the order they were committed.
    pub(crate) proposed: Vec<AlignedPair>,
    /// The pair's alignment outside the seeds, as raw ids; `None` when the
    /// gold alignment must not be read.
    gold: Option<HashSet<(u32, u32)>>,
    /// Precision, recall and F1 of `proposed` after each commit (Figure 7).
    pub(crate) curve: Vec<PrfScores>,
}

impl Ledger {
    /// An unscored ledger over `pair` with `seeds` taken.
    pub(crate) fn new(pair: &KgPair, seeds: &[AlignedPair]) -> Self {
        Self {
            n1: pair.kg1.num_entities(),
            n2: pair.kg2.num_entities(),
            taken1: seeds.iter().map(|&(a, _)| a).collect(),
            taken2: seeds.iter().map(|&(_, b)| b).collect(),
            proposed: Vec::new(),
            gold: None,
            curve: Vec::new(),
        }
    }

    /// A ledger scoring every commit against `pair`'s alignment outside
    /// `seeds` (the training pairs).
    pub(crate) fn scored(pair: &KgPair, seeds: &[AlignedPair]) -> Self {
        let seeds_set: HashSet<AlignedPair> = seeds.iter().copied().collect();
        let gold = pair
            .alignment
            .iter()
            .filter(|p| !seeds_set.contains(p))
            .map(|&(a, b)| (a.0, b.0))
            .collect();
        Self {
            gold: Some(gold),
            ..Self::new(pair, seeds)
        }
    }

    /// The KG1 and KG2 entities not taken yet, in id order.
    pub(crate) fn unaligned(&self) -> (Vec<EntityId>, Vec<EntityId>) {
        (
            unaligned_entities(self.n1, &self.taken1),
            unaligned_entities(self.n2, &self.taken2),
        )
    }

    /// The untaken entities of a pair trained in one unified space, their
    /// rows read in place from the trained `table`. Compared by cosine
    /// whatever the approach's output metric: a Euclidean similarity is a
    /// negative distance and cannot carry a positive cutoff.
    pub(crate) fn candidates(&self, space: &UnifiedSpace, table: &EmbeddingTable) -> Candidates {
        let (sources, targets) = self.unaligned();
        let (src, dst) = space.gather(table, &sources, &targets);
        Candidates {
            sources,
            targets,
            src,
            dst,
            dim: table.dim(),
            metric: Metric::Cosine,
        }
    }

    /// One calibration step pulling each proposed pair's unified rows
    /// together.
    pub(crate) fn calibrate(&self, space: &UnifiedSpace, table: &mut EmbeddingTable, lr: f32) {
        let uids: Vec<(u32, u32)> = self
            .proposed
            .iter()
            .map(|&(a, b)| (space.uid1(a), space.uid2(b)))
            .collect();
        calibrate(table, &uids, lr);
    }

    /// IPTransE's rule: every proposal is taken and kept, so conflicts and
    /// errors accumulate.
    pub(crate) fn extend(&mut self, pairs: Vec<AlignedPair>) {
        for &(a, b) in &pairs {
            self.taken1.insert(a);
            self.taken2.insert(b);
        }
        self.proposed.extend(pairs);
        self.score();
    }

    /// KDCoE's and the unsupervised pipeline's rule: a proposal is taken
    /// only when neither of its entities is, checked in order, so of two
    /// views proposing into one round the first wins a conflict.
    pub(crate) fn accept(&mut self, pairs: Vec<AlignedPair>) {
        for (a, b) in pairs {
            if !self.taken1.contains(&a) && !self.taken2.contains(&b) {
                self.taken1.insert(a);
                self.taken2.insert(b);
                self.proposed.push((a, b));
            }
        }
        self.score();
    }

    /// BootEA's rule: each round's proposals replace the last round's, and
    /// only the seeds stay taken.
    pub(crate) fn replace(&mut self, pairs: Vec<AlignedPair>) {
        self.proposed = pairs;
        self.score();
    }

    fn score(&mut self) {
        if let Some(gold) = &self.gold {
            let pred: Vec<(u32, u32)> = self.proposed.iter().map(|&(a, b)| (a.0, b.0)).collect();
            self.curve.push(precision_recall_f1(&pred, gold));
        }
    }
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
/// remove wrong alignment". Greedy collective is stable marriage over every
/// candidate's full list, streamed at 8 B per candidate pair.
pub(crate) fn propose_edited(
    c: &Candidates,
    threshold: f32,
    threads: usize,
) -> Vec<(EntityId, EntityId)> {
    if c.is_empty() {
        return Vec::new();
    }
    let lists = TopKMatrix::compute(&c.src, &c.dst, c.dim, c.metric, c.targets.len(), threads);
    stable_marriage_topk(&lists)
        .into_iter()
        .zip(lists.iter_rows())
        .zip(&c.sources)
        .filter_map(|((j, row), &a)| {
            let j = j?;
            let &(_, s) = row.iter().find(|&&(t, _)| t as usize == j)?;
            (s >= threshold).then_some((a, c.targets[j]))
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
        let c = Ledger::new(&pair, &[]).candidates(&space, &table);
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
            let lists = out.topk(cand1, cand2, cand2.len(), threads);
            stable_marriage_topk(&lists)
                .into_iter()
                .enumerate()
                .filter_map(|(i, j)| {
                    let j = j?;
                    let s = lists.row(i).iter().find(|&&(t, _)| t as usize == j)?.1;
                    (s >= threshold).then_some((cand1[i], cand2[j]))
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
            let ledger = Ledger {
                taken1: (0..7).filter(|&i| taken[i]).map(EntityId::from_idx).collect(),
                taken2: (0..7).filter(|&i| taken[7 + i]).map(EntityId::from_idx).collect(),
                ..Ledger::new(&pair, &[])
            };
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
                let c = ledger.candidates(&space, &table);
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

    /// Figure-7 quality as the drivers scored a round before the ledger:
    /// the gold pairs rebuilt into a raw-id set every round.
    fn augmentation_quality(
        proposed: &[(EntityId, EntityId)],
        gold: &HashSet<(EntityId, EntityId)>,
    ) -> PrfScores {
        let pred: Vec<(u32, u32)> = proposed.iter().map(|&(a, b)| (a.0, b.0)).collect();
        let gold_raw: HashSet<(u32, u32)> = gold.iter().map(|&(a, b)| (a.0, b.0)).collect();
        precision_recall_f1(&pred, &gold_raw)
    }

    /// One driver's self-training state as it kept it before the ledger.
    struct Driver {
        taken1: HashSet<EntityId>,
        taken2: HashSet<EntityId>,
        proposed: Vec<AlignedPair>,
        /// KDCoE's training seeds, grown by every accepted pair.
        seeds: Vec<AlignedPair>,
        gold: HashSet<(EntityId, EntityId)>,
        augmentation: Vec<PrfScores>,
    }

    impl Driver {
        fn new(pair: &KgPair, train: &[AlignedPair]) -> Self {
            Self {
                taken1: train.iter().map(|&(a, _)| a).collect(),
                taken2: train.iter().map(|&(_, b)| b).collect(),
                proposed: Vec::new(),
                seeds: train.to_vec(),
                // The slow gold set: a scan of `train` per alignment pair.
                gold: pair
                    .alignment
                    .iter()
                    .copied()
                    .filter(|p| !train.contains(p))
                    .collect(),
                augmentation: Vec::new(),
            }
        }

        /// IPTransE's round.
        fn iptranse(&mut self, new_pairs: Vec<AlignedPair>) {
            for &(a, b) in &new_pairs {
                self.taken1.insert(a);
                self.taken2.insert(b);
            }
            self.proposed.extend(new_pairs);
            self.augmentation
                .push(augmentation_quality(&self.proposed, &self.gold));
        }

        /// KDCoE's round, both views' proposals in one list.
        fn kdcoe(&mut self, new_pairs: Vec<AlignedPair>) {
            for &(a, b) in &new_pairs {
                if !self.taken1.contains(&a) && !self.taken2.contains(&b) {
                    self.taken1.insert(a);
                    self.taken2.insert(b);
                    self.seeds.push((a, b));
                    self.proposed.push((a, b));
                }
            }
            self.augmentation
                .push(augmentation_quality(&self.proposed, &self.gold));
        }

        /// BootEA's round.
        fn bootea(&mut self, new_pairs: Vec<AlignedPair>) {
            self.proposed = new_pairs;
            self.augmentation
                .push(augmentation_quality(&self.proposed, &self.gold));
        }

        /// The unsupervised pipeline's round: taken without a check, which
        /// is sound because its proposals are edited 1-to-1 among the
        /// untaken entities.
        fn unsupervised(&mut self, new_pairs: Vec<AlignedPair>) {
            for &(a, b) in &new_pairs {
                self.taken1.insert(a);
                self.taken2.insert(b);
            }
            self.proposed.extend(new_pairs);
        }

        fn unaligned(&self, n: usize) -> (Vec<EntityId>, Vec<EntityId>) {
            (
                unaligned_entities(n, &self.taken1),
                unaligned_entities(n, &self.taken2),
            )
        }
    }

    fn bits(curve: &[PrfScores]) -> Vec<[u64; 3]> {
        curve
            .iter()
            .map(|s| [s.precision.to_bits(), s.recall.to_bits(), s.f1.to_bits()])
            .collect()
    }

    fn ids(raw: &[(u8, u8)]) -> Vec<AlignedPair> {
        raw.iter()
            .map(|&(a, b)| (EntityId(a as u32), EntityId(b as u32)))
            .collect()
    }

    props! {
        #![cases = 64]

        /// Every commit rule, and the curve it scores, equals the driver
        /// loop it replaced, round after round: proposals that repeat a
        /// source or a target, touch seed entities or pairs outside the
        /// alignment, rounds with nothing proposed, and two views proposing
        /// into one round. The unsupervised rounds are first edited the way
        /// `propose_edited` leaves them: 1-to-1 among the untaken entities.
        #[test]
        fn ledger_commits_match_the_driver_loops(
            train_mask in vec_of(any_bool(), 6),
            rounds in vec_of(
                (vec_of((0u8..6, 0u8..6), 0..5), vec_of((0u8..6, 0u8..6), 0..5)),
                0..5,
            ),
        ) {
            let n = 6;
            let pair = random_pair(&[], &[], n as u8);
            let train: Vec<AlignedPair> = pair
                .alignment
                .iter()
                .zip(&train_mask)
                .filter_map(|(&p, &keep)| keep.then_some(p))
                .collect();
            let (mut ip, mut ip_ref) = (Ledger::scored(&pair, &train), Driver::new(&pair, &train));
            let (mut kd, mut kd_ref) = (Ledger::scored(&pair, &train), Driver::new(&pair, &train));
            let (mut boot, mut boot_ref) = (Ledger::scored(&pair, &train), Driver::new(&pair, &train));
            let (mut un, mut un_ref) = (Ledger::new(&pair, &train), Driver::new(&pair, &train));
            for (view1, view2) in &rounds {
                let (first, second) = (ids(view1), ids(view2));
                let both: Vec<AlignedPair> = first.iter().chain(&second).copied().collect();

                ip.extend(first.clone());
                ip_ref.iptranse(first.clone());
                kd.accept(both.clone());
                kd_ref.kdcoe(both);
                boot.replace(second.clone());
                boot_ref.bootea(second);

                let (free1, free2) = un_ref.unaligned(n);
                let (mut used1, mut used2) = (HashSet::new(), HashSet::new());
                let edited: Vec<AlignedPair> = first
                    .into_iter()
                    .filter(|(a, b)| free1.contains(a) && free2.contains(b))
                    .filter(|&(a, b)| used1.insert(a) & used2.insert(b))
                    .collect();
                un.accept(edited.clone());
                un_ref.unsupervised(edited);

                for (ledger, driver) in [(&ip, &ip_ref), (&kd, &kd_ref), (&boot, &boot_ref), (&un, &un_ref)] {
                    prop_assert_eq!(&ledger.proposed, &driver.proposed);
                    prop_assert_eq!(ledger.unaligned(), driver.unaligned(n));
                }
                let seeds: Vec<AlignedPair> = train.iter().chain(&kd.proposed).copied().collect();
                prop_assert_eq!(&seeds, &kd_ref.seeds);
            }
            prop_assert_eq!(bits(&ip.curve), bits(&ip_ref.augmentation));
            prop_assert_eq!(bits(&kd.curve), bits(&kd_ref.augmentation));
            prop_assert_eq!(bits(&boot.curve), bits(&boot_ref.augmentation));
            prop_assert!(un.curve.is_empty());
            prop_assert_eq!(ip.curve.len(), rounds.len());
        }
    }
}
