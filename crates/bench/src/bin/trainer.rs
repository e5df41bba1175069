//! `openea-trainer` — drive the live alignment pipeline from the command
//! line: train a base generation on an evolution trace, then fine-tune
//! one generation per delta step, publishing each artifact over the live
//! snapshot path. Point a watching server at that path
//! (`openea-serve <dir>/live.snap --watch`) and every generation flips in
//! with zero downtime. `USAGE` below lists the options.

use openea::prelude::*;
use openea::synth::EvolutionConfig;
use openea_runtime::cli::{die, Args};
use openea_runtime::rng::{SeedableRng, SmallRng};
use openea_runtime::timer::Monotonic;
use openea_serve::{Snapshot, SnapshotWriter};
use std::path::{Path, PathBuf};

const USAGE: &str = "openea-trainer — warm-start delta-training over an evolution trace

usage: openea-trainer --out DIR [--seed N] [--entities N] [--steps N]
                      [--epochs N] [--threads N] [--delta] [--emit-generations]

  --delta             warm-start each step from the previous generation
                      (<= 25% of the full epoch budget); default is a
                      full cold retrain per step
  --emit-generations  additionally keep every generation as
                      DIR/gen-<k>.snap next to the live artifact";

/// The registry approach the pipeline trains. Its snapshot dimension
/// equals `RunConfig::dim`, so the warm-start dimension guard accepts.
const APPROACH: &str = "MTransE";

struct Options {
    out: PathBuf,
    seed: u64,
    entities: usize,
    steps: usize,
    epochs: usize,
    threads: usize,
    delta: bool,
    emit_generations: bool,
}

impl Options {
    fn from_env() -> Self {
        let mut args = Args::from_env(USAGE, &["delta", "emit-generations"]);
        let opts = Options {
            out: args.value_or("out", PathBuf::from("live-out")),
            seed: args.value_or("seed", 7),
            entities: args.value_or("entities", 300),
            steps: args.value_or("steps", 3),
            epochs: args.value_or("epochs", 20),
            threads: args.value_or("threads", openea_runtime::pool::num_threads()),
            delta: args.flag("delta"),
            emit_generations: args.flag("emit-generations"),
        };
        args.finish();
        if opts.epochs == 0 || opts.steps == 0 {
            die("--epochs and --steps must be positive");
        }
        opts
    }
}
/// One trained generation: the reloaded artifact (the exact bytes a
/// watching server will flip in) plus its training cost and test quality.
struct TrainedGen {
    snap: Snapshot,
    /// Epochs actually trained this generation (early stopping included).
    epochs: usize,
    /// Hits@1 on the step's test split.
    hits1: f64,
    train_s: f64,
}

/// Trains one generation on `pair` — cold when `parent` is `None`,
/// warm-started delta-training capped at a quarter of `--epochs` otherwise
/// — through the real engine → snapshot-writer → reload path.
fn train_generation(
    pair: &KgPair,
    opts: &Options,
    parent: Option<&Snapshot>,
    work_dir: &Path,
) -> TrainedGen {
    let mut rng = SmallRng::seed_from_u64(opts.seed);
    let folds = k_fold_splits(&pair.alignment, 3, &mut rng);
    let rc = RunConfig {
        dim: 16,
        max_epochs: opts.epochs,
        threads: opts.threads,
        seed: opts.seed,
        ..RunConfig::default()
    };
    std::fs::create_dir_all(work_dir)
        .unwrap_or_else(|e| die(format_args!("cannot create train dir: {e}")));
    let writer = SnapshotWriter::new(work_dir, Vec::new(), Vec::new());
    let approach = approach_by_name(APPROACH).expect("registry approach");
    let warm = parent.map(Snapshot::warm_start);
    let mut ctx = RunContext::new(&rc)
        .for_valid(&folds[0].valid)
        .with_artifacts(&writer);
    if let Some(w) = warm.as_ref() {
        ctx = ctx
            .resume_from(w)
            .with_budget(Budget::epochs((opts.epochs / 4).max(1)));
    }
    let clock = Monotonic::start();
    let out = approach.run_with(pair, &folds[0], &rc, &ctx);
    let train_s = clock.seconds();
    if let Some(e) = writer.take_error() {
        die(format_args!("snapshot write error: {e}"));
    }
    let snap = Snapshot::read_from(&writer.final_path(APPROACH))
        .unwrap_or_else(|e| die(format_args!("cannot reload emitted snapshot: {e}")));
    if snap.to_output().content_hash() != out.content_hash() {
        die("snapshot roundtrip changed the embeddings");
    }
    if snap.lineage != out.lineage {
        die("snapshot roundtrip changed the lineage");
    }
    TrainedGen {
        snap,
        epochs: out.trace.epochs.len(),
        hits1: evaluate_output(&out, &folds[0].test, opts.threads).hits1,
        train_s,
    }
}

fn main() {
    let opts = Options::from_env();
    std::fs::create_dir_all(&opts.out)
        .unwrap_or_else(|e| die(format_args!("cannot create out: {e}")));
    let live = opts.out.join("live.snap");
    let train_dir = opts.out.join(".train");

    println!(
        "trace: {} final entities/KG, {} delta steps; mode: {}",
        opts.entities,
        opts.steps,
        if opts.delta {
            "delta (warm-start fine-tune)"
        } else {
            "full retrain per step"
        }
    );
    let trace = EvolutionConfig::new(DatasetFamily::DY, opts.entities, opts.steps, opts.seed)
        .with_base_fraction(0.6)
        .with_threads(opts.threads)
        .generate();

    for (k, step) in trace.steps.iter().enumerate() {
        let parent = if k > 0 && opts.delta {
            let snap = Snapshot::read_from(&live)
                .unwrap_or_else(|e| die(format_args!("cannot read parent artifact: {e}")));
            Some(snap)
        } else {
            None
        };
        let gen = train_generation(&step.pair, &opts, parent.as_ref(), &train_dir);
        // `write_to` stages beside `live`, fsyncs and renames: a watching
        // server sees the old generation or the new one, never a torn file.
        gen.snap
            .write_to(&live)
            .unwrap_or_else(|e| die(format_args!("cannot publish generation artifact: {e}")));
        if opts.emit_generations {
            let keep = opts.out.join(format!("gen-{k}.snap"));
            gen.snap
                .write_to(&keep)
                .unwrap_or_else(|e| die(format_args!("cannot write {}: {e}", keep.display())));
        }
        let lineage = match gen.snap.lineage {
            Some(l) => format!(
                "parent {:#018x}, {} cumulative epochs",
                l.parent_generation, l.trained_epochs
            ),
            None => "cold".into(),
        };
        println!(
            "gen {k}: {:#018x} ({} entities, {} epochs, Hits@1 {:.3}, {:.1}s) — {}",
            gen.snap.generation(),
            step.pair.kg1.num_entities(),
            gen.epochs,
            gen.hits1,
            gen.train_s,
            lineage
        );
    }
    let _ = std::fs::remove_dir_all(&train_dir);
    println!("live artifact: {}", live.display());
}
