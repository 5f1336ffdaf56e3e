//! `claims` refuses any argument but `--quick` and `--out PATH` with exit
//! status 2, before it runs a single instance.

use std::process::Command;

#[test]
fn an_unknown_argument_exits_2() {
    for args in [&["--seed", "1"][..], &["--verbose"], &["--out"]] {
        let status = Command::new(env!("CARGO_BIN_EXE_claims"))
            .args(args)
            .status()
            .expect("claims starts");
        assert_eq!(status.code(), Some(2), "claims {args:?}");
    }
}
