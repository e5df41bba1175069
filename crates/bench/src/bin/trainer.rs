//! `openea-trainer` — drive the live alignment pipeline from the command
//! line: train a base generation on an evolution trace, then fine-tune
//! one generation per delta step, publishing each artifact over the live
//! snapshot path. Point a watching server at that path
//! (`openea-serve <dir>/live.snap --watch`) and every generation flips in
//! with zero downtime.
//!
//! ```text
//! openea-trainer --out DIR [--seed N] [--entities N] [--steps N]
//!                [--epochs N] [--threads N] [--delta] [--emit-generations]
//!
//!   --delta             warm-start each step from the previous generation
//!                       (<= 25% of the full epoch budget); default is a
//!                       full cold retrain per step
//!   --emit-generations  additionally keep every generation as
//!                       DIR/gen-<k>.snap next to the live artifact
//! ```

use openea::prelude::*;
use openea::synth::EvolutionConfig;
use openea_runtime::rng::{SeedableRng, SmallRng};
use openea_runtime::timer::Monotonic;
use openea_serve::{Snapshot, SnapshotWriter};
use std::path::{Path, PathBuf};

/// The registry approach the pipeline trains. Its snapshot dimension
/// equals `RunConfig::dim`, so the warm-start dimension guard accepts.
const APPROACH: &str = "MTransE";

struct Args {
    out: PathBuf,
    seed: u64,
    entities: usize,
    steps: usize,
    epochs: usize,
    threads: usize,
    delta: bool,
    emit_generations: bool,
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}\nrun openea-trainer --help for usage");
    std::process::exit(2);
}

fn parse_args() -> Args {
    let mut args = Args {
        out: PathBuf::from("live-out"),
        seed: 7,
        entities: 300,
        steps: 3,
        epochs: 20,
        threads: std::thread::available_parallelism()
            .map(|n| n.get())
            .unwrap_or(4)
            .min(16),
        delta: false,
        emit_generations: false,
    };
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < argv.len() {
        let arg = argv[i].clone();
        let mut value = |name: &str| -> String {
            i += 1;
            argv.get(i)
                .unwrap_or_else(|| die(&format!("{name} needs a value")))
                .clone()
        };
        match arg.as_str() {
            "--out" => args.out = PathBuf::from(value("--out")),
            "--seed" => {
                args.seed = value("--seed")
                    .parse()
                    .unwrap_or_else(|_| die("bad --seed"))
            }
            "--entities" => {
                args.entities = value("--entities")
                    .parse()
                    .unwrap_or_else(|_| die("bad --entities"))
            }
            "--steps" => {
                args.steps = value("--steps")
                    .parse()
                    .unwrap_or_else(|_| die("bad --steps"))
            }
            "--epochs" => {
                args.epochs = value("--epochs")
                    .parse()
                    .unwrap_or_else(|_| die("bad --epochs"))
            }
            "--threads" => {
                args.threads = value("--threads")
                    .parse()
                    .unwrap_or_else(|_| die("bad --threads"))
            }
            "--delta" => args.delta = true,
            "--emit-generations" => args.emit_generations = true,
            "--help" | "-h" => {
                println!(
                    "openea-trainer — warm-start delta-training over an evolution trace\n\n\
                     usage: openea-trainer --out DIR [--seed N] [--entities N] [--steps N]\n\
                            [--epochs N] [--threads N] [--delta] [--emit-generations]"
                );
                std::process::exit(0);
            }
            other => die(&format!("unknown option {other}")),
        }
        i += 1;
    }
    if args.epochs == 0 || args.steps == 0 {
        die("--epochs and --steps must be positive");
    }
    args
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
    args: &Args,
    parent: Option<&Snapshot>,
    work_dir: &Path,
) -> TrainedGen {
    let mut rng = SmallRng::seed_from_u64(args.seed);
    let folds = k_fold_splits(&pair.alignment, 3, &mut rng);
    let rc = RunConfig {
        dim: 16,
        max_epochs: args.epochs,
        threads: args.threads,
        seed: args.seed,
        ..RunConfig::default()
    };
    std::fs::create_dir_all(work_dir)
        .unwrap_or_else(|e| die(&format!("cannot create train dir: {e}")));
    let writer = SnapshotWriter::new(work_dir, Vec::new(), Vec::new());
    let approach = approach_by_name(APPROACH).expect("registry approach");
    let warm = parent.map(Snapshot::warm_start);
    let mut ctx = RunContext::new(&rc)
        .for_valid(&folds[0].valid)
        .with_artifacts(&writer);
    if let Some(w) = warm.as_ref() {
        ctx = ctx
            .resume_from(w)
            .with_budget(Budget::epochs((args.epochs / 4).max(1)));
    }
    let clock = Monotonic::start();
    let out = approach.run_with(pair, &folds[0], &rc, &ctx);
    let train_s = clock.seconds();
    if let Some(e) = writer.take_error() {
        die(&format!("snapshot write error: {e}"));
    }
    let snap = Snapshot::read_from(&writer.final_path(APPROACH))
        .unwrap_or_else(|e| die(&format!("cannot reload emitted snapshot: {e}")));
    if snap.to_output().content_hash() != out.content_hash() {
        die("snapshot roundtrip changed the embeddings");
    }
    if snap.lineage != out.lineage {
        die("snapshot roundtrip changed the lineage");
    }
    TrainedGen {
        snap,
        epochs: out.trace.epochs.len(),
        hits1: evaluate_output(&out, &folds[0].test, args.threads).hits1,
        train_s,
    }
}

fn main() {
    let args = parse_args();
    std::fs::create_dir_all(&args.out).unwrap_or_else(|e| die(&format!("cannot create out: {e}")));
    let live = args.out.join("live.snap");
    let train_dir = args.out.join(".train");

    println!(
        "trace: {} final entities/KG, {} delta steps; mode: {}",
        args.entities,
        args.steps,
        if args.delta {
            "delta (warm-start fine-tune)"
        } else {
            "full retrain per step"
        }
    );
    let trace = EvolutionConfig::new(DatasetFamily::DY, args.entities, args.steps, args.seed)
        .with_base_fraction(0.6)
        .with_threads(args.threads)
        .generate();

    for (k, step) in trace.steps.iter().enumerate() {
        let parent = if k > 0 && args.delta {
            let snap = Snapshot::read_from(&live)
                .unwrap_or_else(|e| die(&format!("cannot read parent artifact: {e}")));
            Some(snap)
        } else {
            None
        };
        let gen = train_generation(&step.pair, &args, parent.as_ref(), &train_dir);
        // `write_to` stages beside `live`, fsyncs and renames: a watching
        // server sees the old generation or the new one, never a torn file.
        gen.snap
            .write_to(&live)
            .unwrap_or_else(|e| die(&format!("cannot publish generation artifact: {e}")));
        if args.emit_generations {
            let keep = args.out.join(format!("gen-{k}.snap"));
            gen.snap
                .write_to(&keep)
                .unwrap_or_else(|e| die(&format!("cannot write {}: {e}", keep.display())));
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
