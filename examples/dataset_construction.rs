//! Dataset construction with iterative degree-based sampling (IDS,
//! Algorithm 1 of the paper), compared against the two baseline samplers
//! RAS and PRS on the Table-3 quality metrics, then written to disk in the
//! OpenEA format.
//!
//! ```sh
//! cargo run --release -p openea --example dataset_construction
//! ```

use openea::prelude::*;
use openea::sampling::IdsOutcome;
use openea_runtime::rng::SeedableRng;
use openea_runtime::rng::SmallRng;

fn main() {
    // A "source KG" pair several times larger than the target sample,
    // standing in for full DBpedia/Wikidata.
    let source = PresetConfig::new(DatasetFamily::EnFr, 600, false, 11).generate_source(4);
    println!(
        "source: |E1|={} |E2|={} aligned={}",
        source.kg1.num_entities(),
        source.kg2.num_entities(),
        source.num_aligned()
    );

    let target = 600;
    let mut rng = SmallRng::seed_from_u64(2);

    let ras = ras_sample(&source, target, &mut rng);
    let prs = prs_sample(&source, target, &mut rng);
    let IdsOutcome {
        pair: ids,
        js1,
        js2,
        converged,
        restarts,
    } = ids_sample(&source, IdsConfig { target, mu: 25 }, &mut rng);
    println!("IDS: js=({js1:.3}, {js2:.3}) converged={converged} restarts={restarts}");

    println!(
        "\n{:8} {:>6} {:>8} {:>8} {:>10} {:>12}",
        "Sampler", "KG", "Deg.", "JS", "Isolates", "Cluster coef."
    );
    for (name, sample) in [("RAS", &ras), ("PRS", &prs), ("IDS", &ids)] {
        let (q1, q2) = sample_quality(&source, sample);
        for q in [q1, q2] {
            println!(
                "{:8} {:>6} {:>8.2} {:>7.1}% {:>9.1}% {:>12.3}",
                name,
                q.kg_name,
                q.avg_degree,
                q.js_to_source * 100.0,
                q.isolated_fraction * 100.0,
                q.clustering_coefficient
            );
        }
    }

    // Write the IDS dataset plus 5-fold splits in the OpenEA disk layout.
    let dir = std::env::temp_dir().join("openea_rs_dataset");
    let folds = k_fold_splits(&ids.alignment, 5, &mut rng);
    openea::core::io::write_pair(&dir, &ids).expect("write dataset");
    openea::core::io::write_folds(&dir, &ids, &folds).expect("write folds");
    println!("\ndataset written to {}", dir.display());

    // Round-trip to prove the format.
    let back = openea::core::io::read_pair(&dir).expect("read dataset");
    assert_eq!(back.num_aligned(), ids.num_aligned());
    println!("round-trip OK: {} aligned pairs", back.num_aligned());
}
