//! `openea-bench` and `openea-trainer` as built: their usage, and that each
//! refuses an unknown option, an option without its value and a number that
//! does not parse, naming the option.

#[path = "../../../tests/support/binary.rs"]
mod binary;

use binary::{assert_help, assert_quiet_on_closed_stdout, assert_refused};

const BENCH: &str = env!("CARGO_BIN_EXE_openea-bench");
const TRAINER: &str = env!("CARGO_BIN_EXE_openea-trainer");

#[test]
fn openea_bench_reads_its_command_line_or_refuses_it() {
    assert!(assert_help(BENCH).contains("experiments:"));
    assert_refused(BENCH, &["table9", "--no-out", "--bogus"], "--bogus");
    assert_refused(BENCH, &["table9", "--no-out", "--seed"], "--seed");
    assert_refused(BENCH, &["table9", "--no-out", "--seed", "x"], "--seed");
    assert_refused(BENCH, &["table9", "--no-out", "--scale", "huge"], "--scale");
    assert_refused(BENCH, &["table9", "--no-out", "extra"], "extra");
}

#[test]
fn openea_trainer_reads_its_command_line_or_refuses_it() {
    assert!(assert_help(TRAINER).contains("--emit-generations"));
    assert_refused(TRAINER, &["--bogus"], "--bogus");
    assert_refused(TRAINER, &["--steps"], "--steps");
    assert_refused(TRAINER, &["--steps", "x"], "--steps");
    assert_refused(TRAINER, &["--steps", "0"], "--steps");
}

#[test]
fn a_closed_stdout_ends_quietly() {
    assert_quiet_on_closed_stdout(BENCH, &["--help"]);
    assert_quiet_on_closed_stdout(TRAINER, &["--help"]);
    // An experiment's table, printed from the library, ends the same way.
    assert_quiet_on_closed_stdout(BENCH, &["table9", "--no-out"]);
}
