//! Negative sampling for triple-based training (paper Sect. 2.2.1):
//! uniform corruption and BootEA's truncated ε-sampling, which restricts
//! corruptions to the σ nearest neighbours of the replaced entity so that
//! negatives stay hard.

use openea_runtime::rng::Rng;

/// A raw relation triple over dense `u32` ids (head, relation, tail).
pub type RawTriple = (u32, u32, u32);

/// Strategy for corrupting a positive triple into a negative one.
pub trait NegSampler {
    /// Produces a corrupted triple by replacing the head or the tail.
    fn corrupt<R: Rng>(&self, triple: RawTriple, rng: &mut R) -> RawTriple;
}

/// Uniform corruption: replace head or tail (50/50) by a uniformly random
/// entity.
#[derive(Clone, Copy, Debug)]
pub struct UniformSampler {
    pub num_entities: u32,
}

impl NegSampler for UniformSampler {
    fn corrupt<R: Rng>(&self, (h, r, t): RawTriple, rng: &mut R) -> RawTriple {
        debug_assert!(self.num_entities > 0);
        let e = rng.gen_range(0..self.num_entities);
        if rng.gen_bool(0.5) {
            (e, r, t)
        } else {
            (h, r, e)
        }
    }
}

/// Truncated ε-sampling: each entity has a precomputed candidate list (its
/// nearest neighbours in the current embedding space); corruptions are drawn
/// from that list. Falls back to uniform when a list is empty.
#[derive(Clone, Debug)]
pub struct TruncatedSampler {
    /// `candidates[e]` = hard negative candidates for entity `e`.
    candidates: Vec<Vec<u32>>,
    num_entities: u32,
}

impl TruncatedSampler {
    /// Builds the sampler from per-entity candidate lists. `candidates.len()`
    /// must equal the entity count.
    pub fn new(candidates: Vec<Vec<u32>>) -> Self {
        let num_entities = u32::try_from(candidates.len()).expect("entity count overflows u32");
        Self {
            candidates,
            num_entities,
        }
    }

    /// The truncation size used by BootEA: `⌈(1 − ε) · n⌉` candidates out of
    /// `n` entities, with ε typically 0.9 (keep the hardest 10%).
    pub fn truncation_size(num_entities: usize, epsilon: f64) -> usize {
        // Subtract a tiny epsilon before ceiling so that exact products
        // (e.g. 0.02 × 100) are not pushed up by float error.
        ((((1.0 - epsilon) * num_entities as f64) - 1e-9).ceil() as usize)
            .clamp(1, num_entities.max(1))
    }

    fn draw<R: Rng>(&self, e: u32, rng: &mut R) -> u32 {
        let list = &self.candidates[e as usize];
        if list.is_empty() {
            rng.gen_range(0..self.num_entities)
        } else {
            list[rng.gen_range(0..list.len())]
        }
    }
}

impl NegSampler for TruncatedSampler {
    fn corrupt<R: Rng>(&self, (h, r, t): RawTriple, rng: &mut R) -> RawTriple {
        if rng.gen_bool(0.5) {
            (self.draw(h, rng), r, t)
        } else {
            (h, r, self.draw(t, rng))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use openea_runtime::rng::SeedableRng;
    use openea_runtime::rng::SmallRng;

    #[test]
    fn uniform_changes_exactly_one_side() {
        let s = UniformSampler { num_entities: 100 };
        let mut rng = SmallRng::seed_from_u64(0);
        for _ in 0..200 {
            let (h, r, t) = s.corrupt((5, 1, 9), &mut rng);
            assert_eq!(r, 1);
            assert!(h == 5 || t == 9, "only one side may change");
            assert!(h < 100 && t < 100);
        }
    }

    #[test]
    fn uniform_eventually_corrupts_both_sides() {
        let s = UniformSampler { num_entities: 50 };
        let mut rng = SmallRng::seed_from_u64(1);
        let mut head_changed = false;
        let mut tail_changed = false;
        for _ in 0..500 {
            let (h, _, t) = s.corrupt((5, 1, 9), &mut rng);
            head_changed |= h != 5;
            tail_changed |= t != 9;
        }
        assert!(head_changed && tail_changed);
    }

    #[test]
    fn truncated_draws_from_candidates() {
        let candidates = vec![vec![7, 8], vec![], vec![0]];
        let s = TruncatedSampler::new(candidates);
        let mut rng = SmallRng::seed_from_u64(2);
        for _ in 0..100 {
            let (h, _, t) = s.corrupt((0, 3, 2), &mut rng);
            if h != 0 {
                assert!(h == 7 || h == 8);
            }
            if t != 2 {
                assert_eq!(t, 0);
            }
        }
    }

    #[test]
    fn truncated_falls_back_to_uniform_on_empty_list() {
        let s = TruncatedSampler::new(vec![vec![], vec![], vec![]]);
        let mut rng = SmallRng::seed_from_u64(3);
        for _ in 0..50 {
            let (h, _, t) = s.corrupt((1, 0, 1), &mut rng);
            assert!(h < 3 && t < 3);
        }
    }

    #[test]
    fn truncation_size_formula() {
        assert_eq!(TruncatedSampler::truncation_size(100, 0.9), 10);
        assert_eq!(TruncatedSampler::truncation_size(100, 0.98), 2);
        assert_eq!(TruncatedSampler::truncation_size(3, 0.999), 1);
        assert_eq!(TruncatedSampler::truncation_size(0, 0.9), 1);
    }
}
