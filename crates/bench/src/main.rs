//! `openea-bench`: regenerate the paper's tables and figures.
//!
//! ```text
//! openea-bench <experiment> [--scale small|medium|large] [--seed N]
//!              [--out DIR | --no-out] [--include-large] [--deadline SECS]
//!
//! experiments:
//!   table2 table3 table4 table5 table6 table7 table8 table9
//!   fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
//!   ablation unsupervised blocking alinet seeds orthogonal
//!   all        (everything; fig8 reuses table5's timings)
//! ```

use openea_bench::{figures, tables, HarnessConfig, Scale};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.is_empty() || args[0] == "--help" || args[0] == "-h" {
        print_usage();
        return;
    }
    let experiment = args[0].clone();
    let mut cfg = HarnessConfig::default();
    let mut include_large = false;
    let mut i = 1;
    while i < args.len() {
        match args[i].as_str() {
            "--scale" => {
                i += 1;
                cfg.scale = args
                    .get(i)
                    .and_then(|s| Scale::parse(s))
                    .unwrap_or_else(|| die("--scale needs small|medium|large"));
            }
            "--seed" => {
                i += 1;
                cfg.seed = args
                    .get(i)
                    .and_then(|s| s.parse().ok())
                    .unwrap_or_else(|| die("--seed needs a number"));
            }
            "--out" => {
                i += 1;
                cfg.out_dir = Some(
                    args.get(i)
                        .unwrap_or_else(|| die("--out needs a path"))
                        .into(),
                );
            }
            "--no-out" => cfg.out_dir = None,
            "--include-large" => include_large = true,
            "--deadline" => {
                i += 1;
                cfg.deadline_s = Some(
                    args.get(i)
                        .and_then(|s| s.parse().ok())
                        .unwrap_or_else(|| die("--deadline needs seconds")),
                );
            }
            other => die(&format!("unknown option {other}")),
        }
        i += 1;
    }

    println!(
        "openea-bench: experiment={experiment} scale={:?} seed={} (see EXPERIMENTS.md for expected shapes)\n",
        cfg.scale, cfg.seed
    );
    let t0 = std::time::Instant::now();
    match experiment.as_str() {
        "table2" => tables::table2(&cfg, include_large),
        "table3" => tables::table3(&cfg),
        "table4" => tables::table4(&cfg),
        "table5" => {
            tables::table5(&cfg, include_large);
        }
        "table6" => tables::table6(&cfg),
        "table7" => tables::table7(&cfg),
        "table8" => tables::table8(&cfg),
        "table9" => tables::table9(&cfg),
        "fig3" => figures::fig3(&cfg),
        "fig5" => figures::fig5(&cfg),
        "fig6" => figures::fig6(&cfg),
        "fig7" => figures::fig7(&cfg),
        "fig8" => figures::fig8(&cfg, None),
        "fig9" | "fig10" | "fig9_10" => figures::fig9_10(&cfg),
        "fig11" => figures::fig11(&cfg),
        "fig12" => figures::fig12(&cfg),
        "ablation" => figures::ablation(&cfg),
        "unsupervised" => figures::unsupervised(&cfg),
        "blocking" => figures::blocking(&cfg),
        "alinet" => figures::alinet(&cfg),
        "seeds" => figures::seeds(&cfg),
        "orthogonal" => figures::orthogonal(&cfg),
        "all" => {
            tables::table2(&cfg, include_large);
            tables::table3(&cfg);
            figures::fig3(&cfg);
            let t5 = tables::table5(&cfg, include_large);
            figures::fig8(&cfg, Some(&t5));
            tables::table6(&cfg);
            tables::table7(&cfg);
            tables::table8(&cfg);
            tables::table9(&cfg);
            figures::fig5(&cfg);
            figures::fig6(&cfg);
            figures::fig7(&cfg);
            figures::fig9_10(&cfg);
            figures::fig11(&cfg);
            figures::fig12(&cfg);
            figures::ablation(&cfg);
            figures::unsupervised(&cfg);
            figures::blocking(&cfg);
            figures::alinet(&cfg);
        }
        other => die(&format!("unknown experiment {other}")),
    }
    println!(
        "\n[{experiment} done in {:.1}s]",
        t0.elapsed().as_secs_f64()
    );
}

fn print_usage() {
    println!(
        "openea-bench — regenerate the OpenEA paper's tables and figures\n\n\
         usage: openea-bench <experiment> [--scale small|medium|large] [--seed N]\n\
                [--out DIR | --no-out] [--include-large] [--deadline SECS]\n\n\
         experiments: table2 table3 table4 table5 table6 table7 table8 table9\n\
                      fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12\n\
                      ablation unsupervised blocking alinet seeds orthogonal all"
    );
}

fn die(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2);
}
