//! Golden stdout of the table, figure and ablation bins at `--scale 0.01`.
//!
//! Each bin's stdout is a pure function of its arguments (solver results
//! are thread-count invariant and the branch-and-bound references run to a
//! node budget), so it is pinned byte for byte against
//! `tests/golden/<bin>.txt`. The one measured figure, `table5_mkp`'s
//! "B&B time (s)" column, is masked on both sides before the comparison.
//! Regenerate a golden file only on a deliberate output change:
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

/// Overwrites the cells of the right-aligned table column headed `header`
/// with `#`, in every row from the header to the first blank line, so a
/// measured column compares equal whatever it measured.
fn mask_column(text: &str, header: &str) -> String {
    let mut span = None;
    let mut out = String::with_capacity(text.len());
    for line in text.split_inclusive('\n') {
        if span.is_none() {
            if let Some(at) = line.find(header) {
                span = Some(at..at + header.len());
            }
            out.push_str(line);
            continue;
        }
        let cols = span.clone().expect("set above");
        if line.trim().is_empty() {
            span = None;
            out.push_str(line);
            continue;
        }
        let masked: String = line
            .char_indices()
            .map(|(at, c)| if cols.contains(&at) { '#' } else { c })
            .collect();
        out.push_str(&masked);
    }
    out
}

/// The measured column each bin prints, if any.
fn masked(bin: &str, text: &str) -> String {
    match bin {
        "table5_mkp" => mask_column(text, "B&B time (s)"),
        _ => text.to_string(),
    }
}

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
    let golden = masked(
        bin,
        &std::fs::read_to_string(&path).expect("golden file is committed"),
    );
    let stdout = masked(
        bin,
        &String::from_utf8(out.stdout).expect("stdout is UTF-8"),
    );
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
    table1_params,
    table2_penalty_vs_saim,
    table3_qkp200,
    table4_qkp300,
    table5_mkp,
    fig2_toy_gap,
    fig3_qkp_trace,
    fig4_accuracy_quartiles,
    fig5_mkp_trace,
    ablation_eta,
    ablation_schedule,
    ablation_encoding,
    ablation_budget_split,
    ablation_penalty,
    ablation_capacity_shrink,
);

#[test]
fn mask_column_hides_only_the_measured_cells() {
    let run = |secs: &str| {
        format!(
            "Instance  B&B time (s)  ref\n--------------------------\n  40-5-1  {secs:>12}  OPT\n\nB&B 1.00\n"
        )
    };
    let (a, b) = (run("3.49"), run("5.92"));
    assert_eq!(
        mask_column(&a, "B&B time (s)"),
        mask_column(&b, "B&B time (s)")
    );
    let masked = mask_column(&a, "B&B time (s)");
    assert!(masked.contains("  40-5-1  ############  OPT\n"), "{masked}");
    assert!(masked.ends_with("\nB&B 1.00\n"), "{masked}");
    assert_ne!(
        mask_column(&run("3.49").replace("OPT", "best"), "B&B time (s)"),
        masked
    );
}
