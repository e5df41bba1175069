//! Zipf-replay concurrency driver: the load half of the hot-swap torture
//! suite (`tests/swap_torture.rs`).
//!
//! The driver spawns `clients` threads, each sampling query entities from
//! a [`Zipf`] distribution (web-like popularity skew) on its own seeded
//! RNG stream, and hands every query to a caller-supplied closure that
//! actually issues it (directly against an index, or over HTTP — the
//! driver does not care). The closure classifies each answer as one of
//! the [`ReplayOutcome`]s the hot-swap contract names:
//!
//! * **dropped** — the query got no well-formed answer (connection error,
//!   non-200 status, unparseable body);
//! * **stale** — the answer carried a generation that is unknown or moved
//!   *backwards* on that client's connection (generations must be
//!   monotone per client: once a flip is observed, the old artifact may
//!   never answer again);
//! * **incorrect** — the answer's bits diverge from the dense reference
//!   for the generation it claims.
//!
//! The [`ReplayReport`] aggregates counts, client-observed latency and
//! the first few failure messages; a torture test asserts the three
//! counters are all zero across every flip.

use crate::rng::{Rng, SeedableRng, SmallRng};
use crate::timer::{MicrosHistogram, Monotonic};

/// Inverse-CDF Zipf sampler over `n` ranks: rank `r` gets weight
/// `1/(r+1)^s`. Deterministic given the caller's RNG.
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    pub fn new(n: usize, s: f64) -> Self {
        assert!(n > 0, "Zipf needs at least one rank");
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0f64;
        for r in 0..n {
            acc += 1.0 / ((r + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for v in &mut cdf {
            *v /= total;
        }
        Self { cdf }
    }

    pub fn sample(&self, rng: &mut SmallRng) -> usize {
        let u = rng.gen_range(0.0f64..1.0);
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// How one replayed query went. `Ok` carries nothing; the three failure
/// kinds carry a diagnostic message (only the first few are retained).
#[derive(Clone, Debug)]
pub enum ReplayOutcome {
    Ok,
    Dropped(String),
    Stale(String),
    Incorrect(String),
}

/// Replay shape: client count, per-client query count, skew and seed.
#[derive(Clone, Copy, Debug)]
pub struct ReplayOptions {
    pub clients: usize,
    pub queries_per_client: usize,
    /// Zipf exponent; 0.0 degenerates toward uniform.
    pub zipf_s: f64,
    pub seed: u64,
}

/// Aggregated result of one replay.
#[derive(Clone, Debug, Default)]
pub struct ReplayReport {
    pub total: usize,
    pub ok: usize,
    pub dropped: usize,
    pub stale: usize,
    pub incorrect: usize,
    /// Client-observed per-query latency.
    pub latency: MicrosHistogram,
    /// First few failure diagnostics, prefixed by their kind.
    pub failures: Vec<String>,
}

impl ReplayReport {
    /// True iff every query came back on time, fresh and bit-correct.
    pub fn clean(&self) -> bool {
        self.dropped == 0 && self.stale == 0 && self.incorrect == 0
    }

    fn absorb(&mut self, outcome: ReplayOutcome, us: u64) {
        self.total += 1;
        self.latency.record(us);
        let (slot, msg) = match outcome {
            ReplayOutcome::Ok => {
                self.ok += 1;
                return;
            }
            ReplayOutcome::Dropped(m) => (&mut self.dropped, format!("dropped: {m}")),
            ReplayOutcome::Stale(m) => (&mut self.stale, format!("stale: {m}")),
            ReplayOutcome::Incorrect(m) => (&mut self.incorrect, format!("incorrect: {m}")),
        };
        *slot += 1;
        if self.failures.len() < 8 {
            self.failures.push(msg);
        }
    }

    fn merge(&mut self, other: ReplayReport) {
        self.total += other.total;
        self.ok += other.ok;
        self.dropped += other.dropped;
        self.stale += other.stale;
        self.incorrect += other.incorrect;
        self.latency.merge(&other.latency);
        for f in other.failures {
            if self.failures.len() < 8 {
                self.failures.push(f);
            }
        }
    }
}

/// Runs the replay: `clients` threads each issue `queries_per_client`
/// Zipf-sampled queries over `n_entities`. `client_factory(c)` builds the
/// per-client issuer (own its connection state there); the issuer maps an
/// entity id to a [`ReplayOutcome`]. Latency is measured around each
/// issuer call and merged across clients.
pub fn replay<C, F>(n_entities: usize, opts: &ReplayOptions, client_factory: C) -> ReplayReport
where
    C: Fn(usize) -> F + Sync,
    F: FnMut(usize) -> ReplayOutcome,
{
    assert!(n_entities > 0, "replay needs at least one entity");
    let zipf = Zipf::new(n_entities, opts.zipf_s);
    std::thread::scope(|s| {
        let handles: Vec<_> = (0..opts.clients.max(1))
            .map(|c| {
                let zipf = &zipf;
                let factory = &client_factory;
                s.spawn(move || {
                    let mut issue = factory(c);
                    let mut rng = SmallRng::seed_from_u64(opts.seed ^ ((c as u64) << 32));
                    let mut report = ReplayReport::default();
                    let clock = Monotonic::start();
                    for _ in 0..opts.queries_per_client {
                        let entity = zipf.sample(&mut rng);
                        let t0 = clock.micros();
                        let outcome = issue(entity);
                        report.absorb(outcome, clock.micros().saturating_sub(t0));
                    }
                    report
                })
            })
            .collect();
        let mut merged = ReplayReport::default();
        for h in handles {
            merged.merge(h.join().expect("replay client must not panic"));
        }
        merged
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let zipf = Zipf::new(100, 1.1);
        let mut rng = SmallRng::seed_from_u64(9);
        let mut counts = [0usize; 100];
        for _ in 0..5_000 {
            counts[zipf.sample(&mut rng)] += 1;
        }
        // Rank 0 dominates any deep rank under a power law.
        assert!(
            counts[0] > counts[50] * 5,
            "head {} tail {}",
            counts[0],
            counts[50]
        );
        assert_eq!(counts.iter().sum::<usize>(), 5_000);
    }

    #[test]
    fn replay_aggregates_outcomes_across_clients() {
        let issued = AtomicUsize::new(0);
        let opts = ReplayOptions {
            clients: 3,
            queries_per_client: 40,
            zipf_s: 1.1,
            seed: 7,
        };
        let report = replay(25, &opts, |client| {
            let issued = &issued;
            let mut i = 0usize;
            move |entity| {
                assert!(entity < 25);
                issued.fetch_add(1, Ordering::Relaxed);
                i += 1;
                match (client, i) {
                    (1, 5) => ReplayOutcome::Dropped("boom".into()),
                    (2, 9) => ReplayOutcome::Stale("old gen".into()),
                    (2, 10) => ReplayOutcome::Incorrect("bits".into()),
                    _ => ReplayOutcome::Ok,
                }
            }
        });
        assert_eq!(report.total, 120);
        assert_eq!(issued.load(Ordering::Relaxed), 120);
        assert_eq!(report.dropped, 1);
        assert_eq!(report.stale, 1);
        assert_eq!(report.incorrect, 1);
        assert_eq!(report.ok, 117);
        assert!(!report.clean());
        assert_eq!(report.latency.count(), 120);
        assert_eq!(report.failures.len(), 3);
    }

    #[test]
    fn clean_replay_reports_clean() {
        let opts = ReplayOptions {
            clients: 2,
            queries_per_client: 10,
            zipf_s: 1.0,
            seed: 1,
        };
        let report = replay(5, &opts, |_| |_| ReplayOutcome::Ok);
        assert!(report.clean());
        assert_eq!(report.ok, 20);
    }

    #[test]
    fn replay_is_deterministic_in_its_sampled_entities() {
        let opts = ReplayOptions {
            clients: 2,
            queries_per_client: 30,
            zipf_s: 1.1,
            seed: 42,
        };
        let collect = || {
            let seen = std::sync::Mutex::new(vec![Vec::new(), Vec::new()]);
            replay(50, &opts, |c| {
                let seen = &seen;
                move |entity| {
                    seen.lock().unwrap()[c].push(entity);
                    ReplayOutcome::Ok
                }
            });
            seen.into_inner().unwrap()
        };
        assert_eq!(collect(), collect());
    }
}
