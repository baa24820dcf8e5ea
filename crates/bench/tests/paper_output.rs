//! The paper replay is pinned by a test: `reproduce --scale paper` at the
//! default seed prints `reproduce_paper_output.txt` byte for byte, with every
//! timing on stderr, and the command line rejects what it does not know —
//! the retired `--bench`, `--serve` and `--serve-load` included.

use std::process::{Command, Output};

fn reproduce(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_reproduce")).args(args).output().expect("running reproduce")
}

#[test]
fn paper_scale_stdout_is_the_committed_file() {
    let pinned = concat!(env!("CARGO_MANIFEST_DIR"), "/../../reproduce_paper_output.txt");
    let want = std::fs::read(pinned).expect("reading reproduce_paper_output.txt");
    let out = reproduce(&["--scale", "paper"]);
    assert!(out.status.success(), "reproduce failed: {}", String::from_utf8_lossy(&out.stderr));
    assert!(
        out.stdout == want,
        "`reproduce --scale paper` stdout differs from reproduce_paper_output.txt \
         ({} vs {} bytes); regenerate the file only if the pipeline's output was meant to change",
        out.stdout.len(),
        want.len()
    );
    // Timings are real but not deterministic: stderr has them, stdout none.
    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    for timing in ["Total wall time", "debugger audit:"] {
        assert!(stderr.contains(timing), "{timing:?} missing from stderr");
        assert!(!stdout.contains(timing), "{timing:?} reached stdout");
    }
}

#[test]
fn unknown_and_retired_flags_exit_2() {
    for flag in ["--no-such-flag", "--bench", "--serve", "--serve-load"] {
        let out = reproduce(&[flag]);
        assert_eq!(out.status.code(), Some(2), "{flag} must be rejected");
        assert!(out.stdout.is_empty(), "{flag} printed a report");
        assert!(
            String::from_utf8_lossy(&out.stderr).contains("unknown argument"),
            "{flag}: stderr does not name the unknown argument"
        );
    }
}
