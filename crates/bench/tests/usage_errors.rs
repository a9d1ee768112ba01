//! The `experiments` binary's usage-error exit: a malformed invocation
//! exits with status 2 before any figure runs, printing `error: …` on
//! stderr and the usage on stdout.

use std::process::Command;

#[test]
fn malformed_invocations_exit_with_status_2_and_the_usage() {
    for args in [
        &["--jobs"][..],
        &["--bench-json"],
        &["--out"],
        &["--out", "DIR"],
        &["--all"],
        &["nosuchfig"],
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(args)
            .output()
            .expect("run the experiments binary");
        let stdout = String::from_utf8_lossy(&output.stdout);
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(stderr.starts_with("error: "), "{args:?}: {stderr}");
        assert!(
            stdout
                .lines()
                .any(|line| line.starts_with("usage: experiments")),
            "{args:?}: {stdout}"
        );
    }
}
