//! Smoke coverage for the doc-facing examples.
//!
//! `cargo test` compiles every target in `examples/`, so a broken example
//! already fails the build; this suite additionally *runs* each example
//! binary to completion so the narrated output paths (the quickstart walk,
//! the Table 1 digest, the adversary gallery, the SMR KV demo) can't rot
//! while still compiling. The two examples that print the paper's
//! results — the Table 1 reproduction and the lower-bound gallery — are
//! also compared byte-for-byte against their committed output in
//! `tests/golden/`, so a measured cell cannot move unnoticed. After a
//! deliberate change, regenerate with
//! `cargo run -q --example <name> > tests/golden/<name>.txt`.
//!
//! The binaries are located relative to the test executable
//! (`target/<profile>/deps/<test>` → `target/<profile>/examples/<name>`),
//! which works for both debug and release profiles without invoking a
//! nested `cargo` (the outer `cargo test` holds the target-dir lock).

use std::path::PathBuf;
use std::process::Command;

fn example_path(name: &str) -> PathBuf {
    let mut dir = std::env::current_exe().expect("test binary path");
    dir.pop(); // <test file>
    if dir.ends_with("deps") {
        dir.pop(); // deps -> profile dir
    }
    dir.join("examples").join(name)
}

/// Runs an example to a zero exit and returns its stdout.
fn run_example(name: &str) -> String {
    let path = example_path(name);
    assert!(
        path.exists(),
        "example binary {} not built (expected at {}); `cargo test` builds \
         all examples, so this indicates a target misconfiguration",
        name,
        path.display()
    );
    let output = Command::new(&path)
        .output()
        .unwrap_or_else(|e| panic!("failed to spawn {}: {e}", path.display()));
    assert!(
        output.status.success(),
        "example {name} exited with {:?}\n--- stdout ---\n{}\n--- stderr ---\n{}",
        output.status.code(),
        String::from_utf8_lossy(&output.stdout),
        String::from_utf8_lossy(&output.stderr)
    );
    String::from_utf8(output.stdout).expect("utf-8 stdout")
}

#[test]
fn quickstart_runs_to_completion() {
    run_example("quickstart");
}

#[test]
fn latency_categorization_runs_to_completion() {
    assert_eq!(
        run_example("latency_categorization"),
        include_str!("golden/latency_categorization.txt")
    );
}

#[test]
fn adversary_gallery_runs_to_completion() {
    assert_eq!(
        run_example("adversary_gallery"),
        include_str!("golden/adversary_gallery.txt")
    );
}

#[test]
fn smr_kv_runs_to_completion() {
    run_example("smr_kv");
}

#[test]
fn scenario_sweep_runs_to_completion() {
    run_example("scenario_sweep");
}

#[test]
fn net_backend_runs_to_completion() {
    run_example("net_backend");
}
