//! `openea-cli` as built: its usage, and that it refuses an option a command
//! does not read, an option without its value and a number that does not
//! parse — a misspelt `--epoch` once trained silently at the default epochs.

#[path = "support/binary.rs"]
mod binary;

use binary::{assert_help, assert_refused, run};

const CLI: &str = env!("CARGO_BIN_EXE_openea-cli");

#[test]
fn help_and_no_arguments_print_the_usage() {
    let usage = assert_help(CLI);
    for command in ["generate", "sample", "stats", "run", "conventional"] {
        assert!(usage.contains(command), "{usage}");
    }
    for args in [&[][..], &["help"]] {
        let out = run(CLI, args);
        assert_eq!(out.status.code(), Some(0));
        assert_eq!(String::from_utf8_lossy(&out.stdout), usage);
    }
}

#[test]
fn malformed_command_lines_are_refused_by_name() {
    for (args, what) in [
        (
            &["generate", "--entities", "9", "--out", "x", "--bogus", "1"][..],
            "--bogus",
        ),
        (
            &["generate", "--family", "D-Y", "--entities", "9", "--out"],
            "--out",
        ),
        (
            &[
                "generate",
                "--entities",
                "many",
                "--family",
                "D-Y",
                "--out",
                "x",
            ],
            "--entities",
        ),
        (&["stats", "--dataset", "x", "--csls"], "--csls"),
        (&["stats"], "--dataset"),
        (&["bogus"], "bogus"),
    ] {
        assert_refused(CLI, args, what);
    }
}

#[test]
fn a_misspelt_run_option_is_refused_not_defaulted() {
    let dir = std::env::temp_dir().join(format!("openea-cli-{}", std::process::id()));
    let d = dir.to_str().expect("UTF-8 temp dir");
    let gen = run(
        CLI,
        &[
            "generate",
            "--family",
            "D-Y",
            "--entities",
            "150",
            "--out",
            d,
        ],
    );
    assert_eq!(gen.status.code(), Some(0), "{gen:?}");
    let run = ["run", "--dataset", d, "--approach", "MTransE"];
    assert_refused(CLI, &[&run[..], &["--epoch", "5"]].concat(), "--epoch");
    assert_refused(CLI, &[&run[..], &["--epochs", "5x"]].concat(), "--epochs");
    let ok = binary::run(CLI, &[&run[..], &["--epochs", "2"]].concat());
    std::fs::remove_dir_all(&dir).ok();
    assert_eq!(ok.status.code(), Some(0), "{ok:?}");
}
