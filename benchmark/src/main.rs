//! The repository benchmark. See `README.md` in this directory for what it
//! measures and why; `../BENCHMARK.json` for how the driver runs it.
//!
//! ```text
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> [--seed N] [--seconds S] [--trace 0|1] [--out DIR]
//!     [--check] [--reduced]
//! cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --host-noise
//! ```

mod estimator;
mod hostnoise;
mod http;
mod layers;
mod pipeline;
mod schedule;
mod summary;
mod trace;
mod traffic;
mod workloads;

use pipeline::Options;
use std::path::PathBuf;
use std::process::ExitCode;

const USAGE: &str = "usage: openea-benchmark --workload <name> [--seed N] [--seconds S] \
[--trace 0|1] [--out DIR] [--check] [--reduced]\n       openea-benchmark --host-noise";

/// The run the command line asks for; `None` for `--host-noise`.
fn parse_args(args: &[String]) -> Result<Option<Options>, String> {
    let mut workload: Option<String> = None;
    let (mut seed, mut seconds, mut trace) = (1u64, workloads::NOMINAL_SECONDS, false);
    let mut out = PathBuf::from("benchmark/out");
    let (mut check, mut reduced, mut host_noise) = (false, false, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?.clone()),
            "--seed" => {
                seed = value()?
                    .parse()
                    .map_err(|_| "--seed takes a whole number")?
            }
            "--seconds" => {
                seconds = value()?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0)
                    .ok_or("--seconds takes a positive number")?
            }
            "--trace" => {
                trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                }
            }
            "--out" => out = PathBuf::from(value()?),
            "--check" => check = true,
            "--reduced" => reduced = true,
            "--host-noise" => host_noise = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if host_noise {
        return Ok(None);
    }
    let name = workload.ok_or("--workload is required")?;
    let spec = workloads::by_name(&name).ok_or_else(|| {
        let known: Vec<&str> = workloads::WORKLOADS.iter().map(|w| w.name).collect();
        format!("unknown workload {name}; known: {}", known.join(", "))
    })?;
    // A check is one round: every correctness gate of a run, no estimator.
    if check {
        seconds = workloads::NOMINAL_SECONDS / spec.rounds as f64;
    }
    Ok(Some(Options {
        spec: if reduced { spec.reduced() } else { spec },
        seed,
        seconds,
        trace,
        out,
        check,
    }))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let opts = match parse_args(&args) {
        Ok(Some(opts)) => opts,
        Ok(None) => {
            hostnoise::report();
            return ExitCode::SUCCESS;
        }
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    let report = pipeline::run(&opts);
    println!(
        "workload {} seed {} trace {}",
        opts.spec.name,
        opts.seed,
        u8::from(opts.trace)
    );
    print!("{}", summary::listing("end-to-end", &report.end_to_end));
    print!("{}", summary::listing("per-layer", &report.per_layer));
    println!("attempted {} failed {}", report.attempted, report.failed);
    for note in &report.notes {
        println!("failed: {note}");
    }
    if opts.check {
        println!("check {}", if report.correct() { "PASS" } else { "FAIL" });
    }
    println!("{}", summary::summary_line(&report, opts.trace));
    if opts.check && !report.correct() {
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Vec<String> {
        s.split_whitespace().map(str::to_string).collect()
    }

    #[test]
    fn the_drivers_command_line_parses() {
        let cmd = parse_args(&args(
            "--workload scale_200k_ivf_uniform --seed 9 --seconds 24 --trace 1",
        ));
        let Ok(Some(opts)) = cmd else {
            panic!("expected a run");
        };
        assert_eq!(opts.spec.name, "scale_200k_ivf_uniform");
        assert_eq!(
            (opts.seed, opts.seconds, opts.trace, opts.check),
            (9, 24.0, true, false)
        );
    }

    #[test]
    fn bad_command_lines_are_refused() {
        for bad in [
            "",
            "--workload nope",
            "--workload",
            "--workload iptranse_15k_exact_zipf --trace 2",
            "--workload iptranse_15k_exact_zipf --seconds 0",
            "--workload iptranse_15k_exact_zipf --frobnicate",
        ] {
            assert!(parse_args(&args(bad)).is_err(), "{bad:?}");
        }
        assert!(matches!(parse_args(&args("--host-noise")), Ok(None)));
    }

    #[test]
    fn a_check_is_one_round() {
        let Ok(Some(opts)) = parse_args(&args(
            "--workload gcnalign_3k_exact_uniform --check --reduced",
        )) else {
            panic!("expected a run");
        };
        assert!(opts.check);
        assert_eq!(opts.spec.rounds_for(opts.seconds), 1);
    }
}
