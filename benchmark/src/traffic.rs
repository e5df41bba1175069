//! Seeded query traffic. The generator is the benchmark's own, so that the
//! inputs of a run depend on `--seed` alone and never on the code under
//! measurement.

/// splitmix64: small, fast and good enough to pick query entities.
#[derive(Clone, Debug)]
pub struct Rng64(u64);

impl Rng64 {
    /// A stream that depends on the run seed and on what the stream is for.
    /// Seed and stream each go through the output mix first: states that
    /// differ by a multiple of the increment would give the same sequence,
    /// shifted.
    pub fn new(seed: u64, stream: u64) -> Self {
        let a = Rng64(seed).next_u64();
        let b = Rng64(!stream).next_u64();
        Rng64(a ^ b.rotate_left(32))
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in `[0, n)`; `n` must be positive.
    pub fn below(&mut self, n: u32) -> u32 {
        (((self.next_u64() >> 32) * u64::from(n)) >> 32) as u32
    }
}

/// How query entities are drawn.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Traffic {
    /// Every entity equally likely: with more entities than cache entries
    /// almost every query misses the answer cache.
    Uniform,
    /// Entity of rank `r` (0-based) with weight `1 / (r + 1)^s`: a few hot
    /// entities, so most queries hit the answer cache.
    Zipf(f64),
}

pub struct Sampler {
    n: u32,
    /// Cumulative weights for Zipf traffic; empty for uniform traffic.
    cdf: Vec<f64>,
}

impl Sampler {
    pub fn new(traffic: Traffic, n: usize) -> Self {
        let n = u32::try_from(n).expect("entity count fits u32");
        assert!(n > 0, "traffic needs at least one entity");
        let cdf = match traffic {
            Traffic::Uniform => Vec::new(),
            Traffic::Zipf(s) => {
                let mut acc = 0.0;
                (0..n)
                    .map(|r| {
                        acc += 1.0 / f64::from(r + 1).powf(s);
                        acc
                    })
                    .collect()
            }
        };
        Self { n, cdf }
    }

    pub fn sample(&self, rng: &mut Rng64) -> u32 {
        match self.cdf.last() {
            None => rng.below(self.n),
            Some(&total) => {
                let u = rng.next_f64() * total;
                (self.cdf.partition_point(|&c| c <= u) as u32).min(self.n - 1)
            }
        }
    }

    pub fn draw(&self, rng: &mut Rng64, count: usize) -> Vec<u32> {
        (0..count).map(|_| self.sample(rng)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_same_seed_gives_the_same_traffic() {
        let s = Sampler::new(Traffic::Zipf(1.1), 1000);
        let a = s.draw(&mut Rng64::new(7, 3), 500);
        let b = s.draw(&mut Rng64::new(7, 3), 500);
        let c = s.draw(&mut Rng64::new(8, 3), 500);
        let d = s.draw(&mut Rng64::new(7, 4), 500);
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_ne!(a, d);
    }

    #[test]
    fn neighbouring_streams_do_not_repeat_each_other() {
        let s = Sampler::new(Traffic::Uniform, 1_000_000);
        for stream in 0..20u64 {
            let a = s.draw(&mut Rng64::new(1, stream), 512);
            let b: std::collections::HashSet<u32> = s
                .draw(&mut Rng64::new(1, stream + 1), 512)
                .into_iter()
                .collect();
            let shared = a.iter().filter(|e| b.contains(e)).count();
            assert!(
                shared < 8,
                "streams {stream} and {} share {shared} draws",
                stream + 1
            );
        }
    }

    #[test]
    fn samples_stay_in_range_and_zipf_is_skewed() {
        let mut rng = Rng64::new(1, 1);
        let uniform = Sampler::new(Traffic::Uniform, 10);
        let mut seen = [0usize; 10];
        for e in uniform.draw(&mut rng, 10_000) {
            seen[e as usize] += 1;
        }
        assert!(seen.iter().all(|&c| c > 800 && c < 1200), "{seen:?}");

        let zipf = Sampler::new(Traffic::Zipf(1.1), 1000);
        let draws = zipf.draw(&mut rng, 20_000);
        assert!(draws.iter().all(|&e| e < 1000));
        let head = draws.iter().filter(|&&e| e < 10).count();
        assert!(head > 20_000 / 3, "head share {head}");
    }
}
