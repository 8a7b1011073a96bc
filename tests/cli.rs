//! The `pts` binary end to end: engine selection on `run` and `sweep`.

use std::process::{Command, Output};

fn pts(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_pts"))
        .args(args)
        .output()
        .expect("spawn pts")
}

/// A two-point TSW sweep on the paper's smallest circuit.
const SWEEP: [&str; 11] = [
    "sweep",
    "--what",
    "tsw",
    "--max",
    "2",
    "--circuit",
    "highway",
    "--global",
    "2",
    "--local",
    "3",
];

#[test]
fn sweep_rejects_unknown_engines_with_the_typed_error() {
    for engine in ["bogus", "sim"] {
        let out = pts(&[&SWEEP[..], &["--engine", engine]].concat());
        assert!(!out.status.success(), "--engine {engine} must fail");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert!(
            stderr.contains(&format!(
                "error: --engine must be 'vt', 'threads', 'async', or 'proc', got '{engine}'"
            )),
            "{stderr}"
        );
    }
}

#[test]
fn default_engine_sweeps_print_identical_output() {
    let a = pts(&SWEEP);
    let b = pts(&SWEEP);
    assert!(a.status.success(), "{}", String::from_utf8_lossy(&a.stderr));
    assert!(String::from_utf8_lossy(&a.stdout).contains("speedup to reach"));
    assert_eq!(
        a.stdout, b.stdout,
        "the virtual clock must replay the sweep"
    );
}

#[test]
fn run_defaults_to_the_vt_engine() {
    let out = pts(&[
        "run",
        "--circuit",
        "highway",
        "--tsw",
        "2",
        "--global",
        "2",
        "--local",
        "3",
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("engine       : vt —"), "{stdout}");
    assert!(stdout.contains("(virtual)"), "{stdout}");
}
