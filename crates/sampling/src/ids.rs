//! Iterative degree-based sampling (IDS) — Algorithm 1 of the paper.
//!
//! IDS shrinks two KGs simultaneously to `N` aligned entities while keeping
//! each sample's degree distribution close (in Jensen–Shannon divergence) to
//! its source KG. Each round it plans, per degree value `x`, a deletion
//! budget `dsize(x, μ) = μ·(1 + P(x) − Q(x))` — deleting more aggressively
//! where the current proportion `P(x)` overshoots the source proportion
//! `Q(x)` — and picks victims with probability inversely related to their
//! PageRank, protecting structurally important entities.

use openea_core::{DegreeDistribution, EntityId, KgPair};
use openea_graph::pagerank;
use openea_runtime::rng::Rng;
use std::collections::HashSet;

/// Parameters of [`ids_sample`].
#[derive(Clone, Copy, Debug)]
pub struct IdsConfig {
    /// Target number of aligned entities per KG.
    pub target: usize,
    /// Base deletion step size μ (paper: 100 for 15K, 500 for 100K).
    pub mu: usize,
}

impl Default for IdsConfig {
    fn default() -> Self {
        Self {
            target: 1000,
            mu: 20,
        }
    }
}

/// JS-divergence acceptance threshold ε (paper: 5%).
const EPSILON: f64 = 0.05;

/// Maximum number of restarts when the JS check fails.
const MAX_RESTARTS: usize = 4;

/// Result of an IDS run.
#[derive(Clone, Debug)]
pub struct IdsOutcome {
    pub pair: KgPair,
    /// JS divergence of each sampled KG to its source.
    pub js1: f64,
    pub js2: f64,
    /// Whether both divergences met ε.
    pub converged: bool,
    /// Number of restarts consumed.
    pub restarts: usize,
}

/// Runs IDS on `source`, producing a pair with exactly `cfg.target` aligned
/// entities (or the filtered source if it is already small enough).
pub fn ids_sample<R: Rng>(source: &KgPair, cfg: IdsConfig, rng: &mut R) -> IdsOutcome {
    // Line 1: only retain entities in the reference alignment.
    let filtered = source.filter_to_alignment();
    // Line 2: source degree distributions (of the filtered source, which is
    // what the sample can at best approximate).
    let q1 = DegreeDistribution::of(&filtered.kg1);
    let q2 = DegreeDistribution::of(&filtered.kg2);

    if filtered.num_aligned() <= cfg.target {
        return IdsOutcome {
            pair: filtered,
            js1: 0.0,
            js2: 0.0,
            converged: true,
            restarts: 0,
        };
    }

    let mut best: Option<IdsOutcome> = None;
    for restart in 0..=MAX_RESTARTS {
        let pair = ids_one_run(&filtered, &q1, &q2, cfg, rng);
        let js1 = DegreeDistribution::of(&pair.kg1).js_divergence(&q1);
        let js2 = DegreeDistribution::of(&pair.kg2).js_divergence(&q2);
        let converged = js1 <= EPSILON && js2 <= EPSILON;
        let outcome = IdsOutcome {
            pair,
            js1,
            js2,
            converged,
            restarts: restart,
        };
        if converged {
            return outcome;
        }
        match &best {
            Some(b) if b.js1 + b.js2 <= js1 + js2 => {}
            _ => best = Some(outcome),
        }
    }
    best.expect("at least one IDS run")
}

/// One inner run (lines 4–11): iterative deletion until the target size.
fn ids_one_run<R: Rng>(
    filtered: &KgPair,
    q1: &DegreeDistribution,
    q2: &DegreeDistribution,
    cfg: IdsConfig,
    rng: &mut R,
) -> KgPair {
    let mut ds = filtered.clone();
    while ds.num_aligned() > cfg.target {
        let over = ds.num_aligned() - cfg.target;

        // Plan per-KG victim sets (entity ids in the *current* pair).
        let victims1 = plan_deletions(&ds, 0, q1, cfg.mu, rng);
        let victims2 = plan_deletions(&ds, 1, q2, cfg.mu, rng);

        // Translate victims into alignment pairs to delete; a pair dies if
        // either side was picked. Cap the number of deleted pairs at `over`
        // so we land exactly on the target.
        let set1: HashSet<EntityId> = victims1.into_iter().collect();
        let set2: HashSet<EntityId> = victims2.into_iter().collect();
        let mut doomed: Vec<usize> = ds
            .alignment
            .iter()
            .enumerate()
            .filter(|(_, &(a, b))| set1.contains(&a) || set2.contains(&b))
            .map(|(i, _)| i)
            .collect();
        if doomed.is_empty() {
            // Degenerate plan (tiny graphs): fall back to a random pair.
            doomed.push(rng.gen_range(0..ds.num_aligned()));
        }
        if doomed.len() > over {
            // Keep a random subset of exactly `over` pairs to delete.
            partial_shuffle(&mut doomed, over, rng);
            doomed.truncate(over);
        }
        let doomed: HashSet<usize> = doomed.into_iter().collect();
        let keep1: HashSet<EntityId> = ds
            .alignment
            .iter()
            .enumerate()
            .filter(|(i, _)| !doomed.contains(i))
            .map(|(_, &(a, _))| a)
            .collect();
        let keep2: HashSet<EntityId> = ds
            .alignment
            .iter()
            .enumerate()
            .filter(|(i, _)| !doomed.contains(i))
            .map(|(_, &(_, b))| b)
            .collect();
        // Line 10: filter by (the surviving) reference alignment.
        ds = ds.restrict(&keep1, &keep2);
    }
    ds
}

/// Lines 7–9 for one KG: per-degree deletion budgets, PageRank-weighted
/// victim selection.
fn plan_deletions<R: Rng>(
    ds: &KgPair,
    side: u8,
    q: &DegreeDistribution,
    mu: usize,
    rng: &mut R,
) -> Vec<EntityId> {
    let kg = if side == 0 { &ds.kg1 } else { &ds.kg2 };
    let degrees = kg.degrees();
    let p = DegreeDistribution::from_degrees(&degrees);
    let pr = pagerank(kg);

    // Group entities by degree.
    let max_deg = degrees.iter().copied().max().unwrap_or(0);
    let mut groups: Vec<Vec<EntityId>> = vec![Vec::new(); max_deg + 1];
    for (i, &d) in degrees.iter().enumerate() {
        groups[d].push(EntityId::from_idx(i));
    }

    let mut victims = Vec::new();
    // The paper's dsize(x, μ) = μ·(1 + P(x) − Q(x)) assumes degree classes
    // far larger than μ (DBpedia-scale); at library scale a flat per-class
    // budget annihilates the small high-degree classes in one round. We keep
    // the algorithm's intent — delete ~μ entities per round, concentrated on
    // degrees whose proportion P(x) overshoots the source proportion Q(x),
    // choosing victims by inverse PageRank — but compute each class budget
    // from its *excess* over the post-round target count, which is the
    // strongly self-correcting form of the same term. Deleting an entity
    // also lowers its neighbours' degrees, repopulating the low-degree
    // classes; this rule therefore keeps shaving the (over-represented) low
    // end while hubs are only ever demoted gradually, preserving both the
    // degree distribution and connectivity.
    let n = degrees.len();
    let n_next = n.saturating_sub(mu).max(1) as f64;
    let excess: Vec<f64> = groups
        .iter()
        .enumerate()
        .map(|(x, g)| (g.len() as f64 - q.proportion(x) * n_next).max(0.0))
        .collect();
    let total_excess: f64 = excess.iter().sum();
    if total_excess <= 0.0 {
        return victims;
    }
    let _ = p; // P(x) enters through the excess (c(x) = P(x)·n).
    for (x, group) in groups.iter().enumerate() {
        if group.is_empty() || excess[x] == 0.0 {
            continue;
        }
        let budget_f = mu as f64 * excess[x] / total_excess;
        let mut budget = budget_f.floor() as usize;
        if rng.gen_bool((budget_f - budget as f64).clamp(0.0, 1.0)) {
            budget += 1;
        }
        let budget = budget.min(group.len());
        if budget == 0 {
            continue;
        }
        // Deletion probability decreases with PageRank: weight 1/(pr+δ).
        let weights: Vec<f64> = group.iter().map(|e| 1.0 / (pr[e.idx()] + 1e-9)).collect();
        victims.extend(weighted_sample_without_replacement(
            group, &weights, budget, rng,
        ));
    }
    victims
}

/// Weighted sampling without replacement via exponential-sort keys
/// (Efraimidis–Spirakis): take the `k` items with the largest `u^(1/w)`.
fn weighted_sample_without_replacement<R: Rng>(
    items: &[EntityId],
    weights: &[f64],
    k: usize,
    rng: &mut R,
) -> Vec<EntityId> {
    let mut keyed: Vec<(f64, EntityId)> = items
        .iter()
        .zip(weights)
        .map(|(&e, &w)| {
            let u: f64 = rng.gen_range(1e-12..1.0);
            (u.powf(1.0 / w.max(1e-12)), e)
        })
        .collect();
    keyed.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("keys are finite"));
    keyed.into_iter().take(k).map(|(_, e)| e).collect()
}

/// Fisher–Yates over the first `k` positions only.
fn partial_shuffle<R: Rng, T>(v: &mut [T], k: usize, rng: &mut R) {
    let n = v.len();
    for i in 0..k.min(n.saturating_sub(1)) {
        let j = rng.gen_range(i..n);
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;
    use openea_synth::{DatasetFamily, PresetConfig};

    fn source() -> KgPair {
        PresetConfig::new(DatasetFamily::EnFr, 1200, false, 11).generate()
    }

    #[test]
    fn ids_hits_target_size_exactly() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(0);
        let out = ids_sample(
            &src,
            IdsConfig {
                target: 300,
                mu: 15,
            },
            &mut rng,
        );
        assert_eq!(out.pair.num_aligned(), 300);
        assert_eq!(out.pair.kg1.num_entities(), 300);
        assert_eq!(out.pair.kg2.num_entities(), 300);
    }

    #[test]
    fn ids_keeps_degree_distribution_close() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(1);
        let out = ids_sample(
            &src,
            IdsConfig {
                target: 400,
                mu: 15,
            },
            &mut rng,
        );
        // The headline property of the algorithm.
        assert!(out.js1 < 0.08, "js1 = {}", out.js1);
        assert!(out.js2 < 0.08, "js2 = {}", out.js2);
    }

    #[test]
    fn ids_sample_average_degree_tracks_source() {
        let src = source();
        let filtered = src.filter_to_alignment();
        let mut rng = SmallRng::seed_from_u64(2);
        let out = ids_sample(
            &src,
            IdsConfig {
                target: 400,
                mu: 15,
            },
            &mut rng,
        );
        let src_deg = filtered.kg1.avg_degree();
        let smp_deg = out.pair.kg1.avg_degree();
        assert!(
            (smp_deg - src_deg).abs() / src_deg < 0.45,
            "source {src_deg:.2} vs sample {smp_deg:.2}"
        );
    }

    #[test]
    fn small_source_returns_filtered_pair() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(3);
        let out = ids_sample(
            &src,
            IdsConfig {
                target: 10_000,
                ..IdsConfig::default()
            },
            &mut rng,
        );
        assert!(out.converged);
        assert_eq!(
            out.pair.num_aligned(),
            src.filter_to_alignment().num_aligned()
        );
    }

    #[test]
    fn sampled_pair_alignment_is_consistent() {
        let src = source();
        let mut rng = SmallRng::seed_from_u64(4);
        let out = ids_sample(
            &src,
            IdsConfig {
                target: 250,
                mu: 20,
            },
            &mut rng,
        );
        // Every entity in the sample is aligned (filtering invariant).
        assert_eq!(out.pair.kg1.num_entities(), out.pair.num_aligned());
        assert_eq!(out.pair.kg2.num_entities(), out.pair.num_aligned());
    }

    #[test]
    fn weighted_sampling_prefers_heavy_items() {
        let mut rng = SmallRng::seed_from_u64(5);
        let items: Vec<EntityId> = (0..100).map(EntityId).collect();
        // Item 0 has overwhelming weight.
        let mut weights = vec![0.001; 100];
        weights[0] = 1000.0;
        let mut hits = 0;
        for _ in 0..50 {
            let picked = weighted_sample_without_replacement(&items, &weights, 1, &mut rng);
            if picked[0] == EntityId(0) {
                hits += 1;
            }
        }
        assert!(hits > 45, "hits = {hits}");
    }

    #[test]
    fn weighted_sampling_without_replacement_is_distinct() {
        let mut rng = SmallRng::seed_from_u64(6);
        let items: Vec<EntityId> = (0..20).map(EntityId).collect();
        let weights = vec![1.0; 20];
        let picked = weighted_sample_without_replacement(&items, &weights, 20, &mut rng);
        let set: HashSet<_> = picked.iter().collect();
        assert_eq!(set.len(), 20);
    }
}
