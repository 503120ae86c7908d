//! Golden stdout of the ablation bins at `--scale 0.01`.
//!
//! Each bin's stdout is a pure function of its arguments (solver results
//! are thread-count invariant and the branch-and-bound references run to a
//! node budget), so it is pinned byte for byte against
//! `tests/golden/<bin>.txt`. Regenerate a golden file only on a deliberate
//! output change:
//!
//! ```text
//! cargo run --release -q -p saim-bench --bin ablation_eta -- --scale 0.01 \
//!     > crates/bench/tests/golden/ablation_eta.txt
//! ```
//!
//! A debug build runs the references about ten times slower, so the tests
//! run in release only: `cargo test --release -p saim-bench --test golden_outputs`.

use std::path::Path;
use std::process::Command;

fn assert_golden(exe: &str, bin: &str) {
    let out = Command::new(exe)
        .args(["--scale", "0.01"])
        .output()
        .expect("the bin starts");
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(format!("{bin}.txt"));
    let golden = std::fs::read_to_string(&path).expect("golden file is committed");
    let stdout = String::from_utf8(out.stdout).expect("stdout is UTF-8");
    if let Some((line, (got, want))) = stdout
        .lines()
        .zip(golden.lines())
        .enumerate()
        .find(|(_, (got, want))| got != want)
    {
        panic!(
            "{bin} stdout differs from {} at line {}:\n  got:  {got}\n  want: {want}",
            path.display(),
            line + 1
        );
    }
    assert_eq!(
        stdout,
        golden,
        "{bin} stdout differs from {}",
        path.display()
    );
}

macro_rules! golden {
    ($($bin:ident),* $(,)?) => {$(
        #[test]
        #[cfg_attr(debug_assertions, ignore = "slow in debug; run with --release")]
        fn $bin() {
            assert_golden(env!(concat!("CARGO_BIN_EXE_", stringify!($bin))), stringify!($bin));
        }
    )*};
}

golden!(
    ablation_eta,
    ablation_schedule,
    ablation_encoding,
    ablation_budget_split,
    ablation_penalty,
    ablation_capacity_shrink,
);
