//! `ht_loadgen` refuses out-of-range arguments with its usage text and
//! exit status 2 — the same path as an unparsable value — before they can
//! reach the `assert!`s in `WakeServer::new` or `run_load`.

use std::process::Command;

/// Runs the binary with `args` and returns its exit code and stderr.
fn loadgen(args: &[&str]) -> (Option<i32>, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_ht_loadgen"))
        .args(args)
        .output()
        .expect("spawn ht_loadgen");
    (
        out.status.code(),
        String::from_utf8_lossy(&out.stderr).into(),
    )
}

#[test]
fn out_of_range_arguments_exit_2_with_usage() {
    for args in [
        &["--shards", "0"][..],
        &["--chunk-min", "900", "--chunk-max", "100"][..],
        &["--captures", "392"][..],
    ] {
        let (code, stderr) = loadgen(args);
        assert_eq!(code, Some(2), "{args:?}: exit status\n{stderr}");
        assert!(!stderr.contains("panicked"), "{args:?} panicked:\n{stderr}");
        assert!(stderr.contains("usage: ht_loadgen"), "{args:?}:\n{stderr}");
    }
}
