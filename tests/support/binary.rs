//! Runs a built binary of the workspace and checks how it answers a command
//! line: `--help` and `-h` print one usage text and exit 0, and a refusal
//! exits 2 with an `error:` line naming what it refused.

use std::process::{Command, Output};

pub fn run(bin: &str, args: &[&str]) -> Output {
    Command::new(bin)
        .args(args)
        .output()
        .expect("the binary starts")
}

/// The usage text, after checking `--help` and `-h` both print it and exit 0.
pub fn assert_help(bin: &str) -> String {
    let (long, short) = (run(bin, &["--help"]), run(bin, &["-h"]));
    assert_eq!(long.status.code(), Some(0), "{bin} --help");
    assert_eq!(short.status.code(), Some(0), "{bin} -h");
    assert_eq!(long.stdout, short.stdout, "{bin}: --help and -h differ");
    let usage = String::from_utf8(long.stdout).expect("UTF-8 usage");
    assert!(!usage.trim().is_empty(), "{bin}: empty usage");
    usage
}

/// The stderr of `bin args`, after checking it exits 2 with a first line
/// `error: …` that names `what`.
pub fn assert_refused(bin: &str, args: &[&str], what: &str) -> String {
    let out = run(bin, args);
    let stderr = String::from_utf8_lossy(&out.stderr).into_owned();
    assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
    let first = stderr.lines().next().unwrap_or_default();
    assert!(
        first.starts_with("error: ") && first.contains(what),
        "{args:?} should be refused naming {what}: {stderr}"
    );
    stderr
}
