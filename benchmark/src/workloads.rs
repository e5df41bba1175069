//! The three workloads and every size, repetition count and loop count of a
//! run. These are constants: identical on every commit, so that two commits
//! are measured on the same work. (`BENCHMARK.json` admits no keys beyond
//! the driver's, so they live here and in README.md.)

use crate::schedule::RoundShape;
use crate::traffic::Traffic;

/// The `run_seconds` of `BENCHMARK.json`: a run of this many seconds is
/// `Spec::rounds` rounds. Other `--seconds` scale the round count.
pub const NOMINAL_SECONDS: f64 = 24.0;

/// Requests per pipelined burst on one connection. Equal to
/// `IndexOptions::default().max_batch`, so a burst of misses fills a
/// micro-batch and never sits out the batcher's timed wait.
pub const BURST: usize = 32;

/// `k` of every `/align` query, and of `recall_at_10`.
pub const TOP_K: usize = 10;

/// Rows of the placeholder generation the server starts on, and the distinct
/// keys queried on it before round 0, so that the first measured publish
/// finds as many keys to warm as every later one.
pub const PRIME_ROWS: usize = 1024;
pub const PRIME_REQUESTS: usize = 512;

/// What a round's input generation and training are.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Data {
    /// A synthetic D-Y KG pair, 5-fold split, one registry approach trained
    /// on fold 0 for a fixed number of epochs with validation on.
    Trained {
        entities: usize,
        approach: &'static str,
        dim: usize,
        epochs: usize,
    },
    /// `generate_embedded_pair`: two aligned embedding matrices, no training;
    /// the generation is the sharded write and the reload.
    Embedded {
        entities: usize,
        dim: usize,
        shards: usize,
    },
}

/// What the offline inference step of a round runs.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Eval {
    /// What `evaluate_output` computes, for the first `rows` test queries:
    /// `rank_eval_streaming` of each against every test target.
    RankRows { rows: usize },
    /// `evaluate_output`, `csls_topk` and `stable_marriage_topk` over the
    /// test pairs.
    RankCslsMarriage,
    /// `rank_eval_streaming` of this many evenly spaced queries against all
    /// targets.
    Streaming { queries: usize },
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Spec {
    pub name: &'static str,
    pub data: Data,
    /// IVF partitions of the served index; 0 serves exactly.
    pub nlist: usize,
    /// Answer-cache entries; `None` keeps the library default.
    pub cache_cap: Option<usize>,
    pub traffic: Traffic,
    /// Rounds of a run of `NOMINAL_SECONDS`.
    pub rounds: usize,
    pub windows_per_round: usize,
    pub window_requests: usize,
    /// Untimed requests between a publish and the round's first window.
    pub warmup_requests: usize,
    /// Repetitions of the set-up and eval units per round. Where a unit is
    /// short, a round holds several, each timed on its own: on this host
    /// many short repetitions are steadier than few long ones.
    pub setups_per_round: usize,
    pub evals_per_round: usize,
    pub eval: Eval,
    /// Sampled queries checked against the dense reference.
    pub reference_queries: usize,
    /// Requests of the traced run's one-at-a-time latency measurement.
    pub depth1_requests: usize,
    /// Hits@1 of seed 1 at full size, pinned: a change that moves it has
    /// changed what training computes, not how fast.
    pub hits1_seed1: Option<f64>,
}

pub const WORKLOADS: [Spec; 3] = [
    Spec {
        name: "iptranse_15k_exact_zipf",
        data: Data::Trained {
            entities: 15_000,
            approach: "IPTransE",
            dim: 64,
            epochs: 20,
        },
        nlist: 0,
        cache_cap: None,
        traffic: Traffic::Zipf(1.1),
        rounds: 5,
        windows_per_round: 6,
        window_requests: 1024,
        warmup_requests: 4096,
        setups_per_round: 2,
        evals_per_round: 2,
        eval: Eval::RankRows { rows: 1024 },
        reference_queries: 1000,
        depth1_requests: 4000,
        hits1_seed1: Some(0.111_865_802_202_325_82),
    },
    Spec {
        name: "gcnalign_3k_exact_uniform",
        data: Data::Trained {
            entities: 3000,
            approach: "GCNAlign",
            dim: 32,
            epochs: 30,
        },
        nlist: 0,
        cache_cap: Some(0),
        traffic: Traffic::Uniform,
        rounds: 4,
        windows_per_round: 10,
        window_requests: 1024,
        warmup_requests: 256,
        setups_per_round: 5,
        evals_per_round: 3,
        eval: Eval::RankCslsMarriage,
        reference_queries: 1000,
        depth1_requests: 1000,
        hits1_seed1: Some(0.071_686_436_307_374_94),
    },
    Spec {
        name: "scale_200k_ivf_uniform",
        data: Data::Embedded {
            entities: 200_000,
            dim: 32,
            shards: 4,
        },
        nlist: 447,
        cache_cap: None,
        traffic: Traffic::Uniform,
        rounds: 5,
        windows_per_round: 8,
        window_requests: 256,
        warmup_requests: 256,
        setups_per_round: 1,
        evals_per_round: 1,
        eval: Eval::Streaming { queries: 250 },
        reference_queries: 256,
        depth1_requests: 1000,
        hits1_seed1: Some(1.0),
    },
];

pub fn by_name(name: &str) -> Option<Spec> {
    WORKLOADS.iter().copied().find(|w| w.name == name)
}

impl Spec {
    /// The same pipeline at a size that runs in seconds, for `check.sh`:
    /// every code path of the full run, none of its numbers.
    pub fn reduced(mut self) -> Self {
        self.data = match self.data {
            Data::Trained {
                entities,
                approach,
                dim,
                ..
            } => Data::Trained {
                entities: entities / 10,
                approach,
                dim,
                epochs: 10,
            },
            Data::Embedded {
                entities,
                dim,
                shards,
            } => Data::Embedded {
                entities: entities / 10,
                dim,
                shards,
            },
        };
        self.nlist = (self.nlist as f64 / 10f64.sqrt()).round() as usize;
        self.rounds = 1;
        self.windows_per_round = 2;
        self.window_requests = 256;
        self.warmup_requests = self.warmup_requests.min(512);
        self.setups_per_round = 2;
        self.evals_per_round = self.evals_per_round.min(2);
        match &mut self.eval {
            Eval::Streaming { queries } => *queries = 100,
            Eval::RankRows { rows } => *rows = 256,
            Eval::RankCslsMarriage => {}
        }
        self.reference_queries = 100;
        self.depth1_requests = 200;
        self.hits1_seed1 = None;
        self
    }

    pub fn dim(&self) -> usize {
        match self.data {
            Data::Trained { dim, .. } | Data::Embedded { dim, .. } => dim,
        }
    }

    pub fn round_shape(&self) -> RoundShape {
        RoundShape {
            setups: self.setups_per_round,
            evals: self.evals_per_round,
            windows: self.windows_per_round,
        }
    }

    /// Rounds of a run of `seconds`: proportional to the nominal run, never
    /// fewer than one.
    pub fn rounds_for(&self, seconds: f64) -> usize {
        ((self.rounds as f64 * seconds / NOMINAL_SECONDS).round() as usize).max(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_resolvable() {
        for w in WORKLOADS {
            assert_eq!(by_name(w.name), Some(w));
        }
        assert_eq!(by_name("nope"), None);
    }

    #[test]
    fn every_workload_has_at_least_twenty_windows_at_the_nominal_length() {
        for w in WORKLOADS {
            assert!(w.rounds_for(NOMINAL_SECONDS) * w.windows_per_round >= 20);
            assert_eq!(w.window_requests % BURST, 0, "{}", w.name);
            assert_eq!(w.warmup_requests % BURST, 0, "{}", w.name);
        }
    }

    #[test]
    fn rounds_scale_with_seconds() {
        let w = WORKLOADS[0];
        assert_eq!(w.rounds_for(NOMINAL_SECONDS), w.rounds);
        assert_eq!(w.rounds_for(2.0 * NOMINAL_SECONDS), 2 * w.rounds);
        assert_eq!(w.rounds_for(1.0), 1);
    }
}
