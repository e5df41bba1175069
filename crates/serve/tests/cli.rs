//! `openea-serve` as built: its usage, and that it refuses an unknown option,
//! an option without its value and a number that does not parse, naming the
//! option and printing the usage after the error.

#[path = "../../../tests/support/binary.rs"]
mod binary;

use binary::{assert_help, assert_quiet_on_closed_stdout, assert_refused};

const SERVE: &str = env!("CARGO_BIN_EXE_openea-serve");

#[test]
fn openea_serve_reads_its_command_line_or_refuses_it() {
    let usage = assert_help(SERVE);
    for (args, what) in [
        (&["x.snap", "--frob", "1"][..], "--frob"),
        (&["x.snap", "--workers"], "--workers"),
        (&["x.snap", "--workers", "z"], "--workers"),
        (&["x.snap", "--addr", "nowhere"], "--addr"),
        (&["x.snap", "y.snap"], "y.snap"),
        (&[], "snapshot path"),
    ] {
        let stderr = assert_refused(SERVE, args, what);
        assert!(stderr.contains(usage.trim_end()), "{args:?}: {stderr}");
    }
}

#[test]
fn a_closed_stdout_ends_quietly() {
    assert_quiet_on_closed_stdout(SERVE, &["--help"]);
}
