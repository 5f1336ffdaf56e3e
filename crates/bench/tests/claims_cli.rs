//! `claims` refuses any argument but `--quick`, `--out PATH` and
//! `--check PATH` with exit status 2, and so does `--check` on a file of
//! the other mode, before it runs a single instance.

use std::process::Command;

#[test]
fn an_unknown_argument_exits_2() {
    for args in [
        &["--seed", "1"][..],
        &["--verbose"],
        &["--out"],
        &["--check"],
    ] {
        let status = Command::new(env!("CARGO_BIN_EXE_claims"))
            .args(args)
            .status()
            .expect("claims starts");
        assert_eq!(status.code(), Some(2), "claims {args:?}");
    }
}

#[test]
fn a_check_against_a_run_of_the_other_mode_exits_2() {
    let committed = concat!(env!("CARGO_MANIFEST_DIR"), "/../../BENCH_claims.json");
    let status = Command::new(env!("CARGO_BIN_EXE_claims"))
        .args(["--quick", "--check", committed])
        .status()
        .expect("claims starts");
    assert_eq!(status.code(), Some(2), "the committed file is a full run");
}
