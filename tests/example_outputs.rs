//! Golden stdout of the root examples that drive SAIM and the penalty
//! baseline end to end (`quickstart`, `penalty_vs_saim`).
//!
//! Each example's stdout is a pure function of its fixed seeds, so it is
//! pinned byte for byte against `tests/golden/<example>.txt`. The test runs
//! the example binaries that `cargo test` builds beside its own executable
//! (`target/<profile>/examples/`); when running this file alone with
//! `--test example_outputs`, build them first with `cargo build --examples`
//! (same profile). Regenerate a golden file only on a deliberate output
//! change:
//!
//! ```text
//! cargo run --release -q --example quickstart > tests/golden/quickstart.txt
//! ```

use std::path::{Path, PathBuf};
use std::process::Command;

/// The example binary `name` of this test's build profile.
fn example(name: &str) -> PathBuf {
    let exe = std::env::current_exe().expect("test executable path");
    let profile = exe
        .parent()
        .and_then(Path::parent)
        .expect("test executables live in target/<profile>/deps");
    let path = profile
        .join("examples")
        .join(format!("{name}{}", std::env::consts::EXE_SUFFIX));
    assert!(
        path.is_file(),
        "{} is missing: `cargo test` builds it, `cargo test --test example_outputs` does not \
         (run `cargo build --examples` first)",
        path.display()
    );
    path
}

fn assert_golden(name: &str) {
    let out = Command::new(example(name))
        .output()
        .expect("example starts");
    assert!(
        out.status.success(),
        "{name} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let golden = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{name}.txt"));
    let expected = std::fs::read_to_string(&golden).expect("golden file exists");
    let actual = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert_eq!(
        actual,
        expected,
        "{name} stdout moved from {}",
        golden.display()
    );
}

#[test]
fn quickstart_stdout_is_pinned() {
    assert_golden("quickstart");
}

#[test]
fn penalty_vs_saim_stdout_is_pinned() {
    assert_golden("penalty_vs_saim");
}
