//! The order in which a run executes its units of work.
//!
//! Repetitions of every timed unit are spread round-robin over the whole
//! run: a slow episode of the host then hits a fraction of every metric's
//! samples and never all the samples of one metric.

/// A unit of work of one round. `Setup`, `Generation`, `Eval` and `Window`
/// are timed and feed one end-to-end metric each; `Warmup` is untimed
/// traffic that brings the answer cache of a fresh generation to its steady
/// state, so that all windows of a round do the same work.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    Setup,
    Generation,
    Eval,
    Warmup,
    Window,
}

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Step {
    pub round: usize,
    pub unit: Unit,
    /// Index of this repetition among the round's repetitions of `unit`.
    pub rep: usize,
}

/// How many repetitions of each unit one round holds. Generation and
/// warm-up run once per round.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RoundShape {
    pub setups: usize,
    pub evals: usize,
    pub windows: usize,
}

/// `rounds` rounds of: set-ups, generation, evals, cache warm-up, windows.
pub fn round_robin(rounds: usize, shape: RoundShape) -> Vec<Step> {
    let mut steps = Vec::new();
    for round in 0..rounds {
        for (unit, reps) in [
            (Unit::Setup, shape.setups),
            (Unit::Generation, 1),
            (Unit::Eval, shape.evals),
            (Unit::Warmup, 1),
            (Unit::Window, shape.windows),
        ] {
            steps.extend((0..reps).map(|rep| Step { round, unit, rep }));
        }
    }
    steps
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHAPE: RoundShape = RoundShape {
        setups: 2,
        evals: 1,
        windows: 2,
    };

    #[test]
    fn every_round_runs_every_unit_in_pipeline_order() {
        let steps = round_robin(3, SHAPE);
        assert_eq!(steps.len(), 3 * 7);
        for (r, round) in steps.chunks(7).enumerate() {
            let units: Vec<(Unit, usize)> = round.iter().map(|s| (s.unit, s.rep)).collect();
            assert_eq!(
                units,
                [
                    (Unit::Setup, 0),
                    (Unit::Setup, 1),
                    (Unit::Generation, 0),
                    (Unit::Eval, 0),
                    (Unit::Warmup, 0),
                    (Unit::Window, 0),
                    (Unit::Window, 1),
                ]
            );
            assert!(round.iter().all(|s| s.round == r));
        }
    }

    #[test]
    fn repetitions_of_one_unit_are_spread_over_the_run() {
        let steps = round_robin(4, SHAPE);
        let generations: Vec<usize> = steps
            .iter()
            .enumerate()
            .filter(|(_, s)| s.unit == Unit::Generation)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(generations.len(), 4);
        assert!(generations.windows(2).all(|w| w[1] - w[0] == 7));
    }

    #[test]
    fn zero_rounds_is_an_empty_schedule() {
        assert!(round_robin(0, SHAPE).is_empty());
    }
}
