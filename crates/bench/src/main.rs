//! `openea-bench`: regenerate the paper's tables and figures, one
//! experiment per run (`USAGE` below). `all` runs every one; `fig8` then
//! reuses `table5`'s timings.

use openea_bench::{figures, tables, HarnessConfig};
use openea_runtime::cli::{die, Args};
use openea_runtime::outln;

const USAGE: &str = "openea-bench — regenerate the OpenEA paper's tables and figures

usage: openea-bench <experiment> [--scale small|medium|large] [--seed N]
                    [--out DIR | --no-out] [--include-large] [--deadline SECS]

experiments: table2 table3 table4 table5 table6 table7 table8 table9
             fig3 fig5 fig6 fig7 fig8 fig9 fig10 fig11 fig12
             ablation unsupervised blocking alinet seeds orthogonal all";

fn main() {
    let mut args = Args::from_env(USAGE, &["no-out", "include-large"]);
    if args.is_empty() {
        outln!("{USAGE}");
        return;
    }
    let experiment: String = args.positional("experiment");
    let defaults = HarnessConfig::default();
    let out_dir = args.value("out").or(defaults.out_dir);
    let cfg = HarnessConfig {
        scale: args.value_or("scale", defaults.scale),
        seed: args.value_or("seed", defaults.seed),
        out_dir: if args.flag("no-out") { None } else { out_dir },
        deadline_s: args.value("deadline"),
        ..defaults
    };
    let include_large = args.flag("include-large");
    args.finish();

    outln!(
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
        other => die(format_args!("unknown experiment {other}")),
    }
    outln!(
        "\n[{experiment} done in {:.1}s]",
        t0.elapsed().as_secs_f64()
    );
}
