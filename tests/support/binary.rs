//! Runs a built binary of the workspace and checks how it answers a command
//! line: `--help` and `-h` print one usage text and exit 0, a refusal exits
//! 2 with an `error:` line naming what it refused, and a stdout whose reader
//! has gone ends it quietly.

use std::process::{Command, Output, Stdio};

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

/// Runs `bin args` with stdout a pipe whose reader is already closed, so
/// its first write fails with `BrokenPipe`, and checks it exits 0 without a
/// panic.
pub fn assert_quiet_on_closed_stdout(bin: &str, args: &[&str]) {
    let (reader, writer) = std::io::pipe().expect("a pipe");
    drop(reader);
    let out = Command::new(bin)
        .args(args)
        .stdout(writer)
        .stderr(Stdio::piped())
        .output()
        .expect("the binary starts");
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!stderr.contains("panicked"), "{bin}: {stderr}");
    assert_eq!(out.status.code(), Some(0), "{bin}: {stderr}");
}
