//! Shared row-building logic for the QKP comparison tables (III and IV).

use crate::args::HarnessArgs;
use crate::experiments::{self, MethodResult};
use crate::report::Table;
use crate::stats;
use saim_core::presets;
use saim_knapsack::generate;
use saim_machine::derive_seed;
use saim_machine::parallel::parallel_map_indexed;

/// Per-instance outcome of the three-way QKP comparison.
#[derive(Debug, Clone)]
pub struct QkpComparisonRow {
    /// Instance label `N-d-i`.
    pub label: String,
    /// SAIM digest.
    pub saim: MethodResult,
    /// Tuned-penalty SA digest (the paper's "best SA" stand-in).
    pub best_sa: MethodResult,
    /// Parallel-tempering digest (the PT-DA stand-in).
    pub pt: MethodResult,
    /// Accuracy denominator (certified optimum or best known).
    pub reference: u64,
    /// Whether the reference is a certified optimum.
    pub certified: bool,
}

/// Runs the Table III/IV comparison for one problem size over the given
/// densities, returning one row per instance.
pub fn qkp_comparison(
    n: usize,
    densities: &[f64],
    instances_per_density: usize,
    args: HarnessArgs,
) -> Vec<QkpComparisonRow> {
    let preset = presets::qkp();
    // every instance is seeded independently, so the comparison grid fans
    // out over an ordered map and rows come back in grid order. Solver
    // digests are thread-count invariant, and so is the B&B reference,
    // whose node budget makes the OPT/best-known labels a function of the
    // instance alone.
    let count = densities.len() * instances_per_density;
    parallel_map_indexed(count, 0, |cell| {
        let di = cell / instances_per_density;
        let idx = cell % instances_per_density;
        let density = densities[di];
        let inst_seed = derive_seed(args.seed, (di * 1000 + idx) as u64);
        let instance = generate::qkp(n, density, inst_seed).expect("valid parameters");
        let enc = instance.encode().expect("instance encodes");

        let (saim, _) = experiments::saim_qkp(&enc, preset, args.scale, inst_seed);
        let (best_sa, alpha) = experiments::penalty_tuned(&enc, preset, args.scale, inst_seed);
        // PT runs at the tuned penalty and gets 2x SAIM's budget here
        // (PT-DA had 7500x; see EXPERIMENTS.md)
        let pt = experiments::pt_baseline(&enc, preset, args.scale, inst_seed, 2.0, alpha);

        let (reference, certified) = experiments::qkp_reference(&instance, 3.0);
        let reference = experiments::best_known(reference, &[&saim, &best_sa, &pt]);

        QkpComparisonRow {
            label: format!("{n}-{}-{}", (density * 100.0) as u32, idx + 1),
            saim,
            best_sa,
            pt,
            reference,
            certified,
        }
    })
}

/// Renders rows in the paper's Table III/IV layout and prints the summary.
pub fn print_qkp_comparison(title: &str, rows: &[QkpComparisonRow], csv: bool) {
    let mut table = Table::new(&[
        "Instance",
        "Optimality (%)",
        "SAIM avg (feas)",
        "SAIM best",
        "best SA",
        "PT",
        "ref",
    ]);
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |a| format!("{a:.1}"));
    let mut saim_avg = Vec::new();
    let mut sa_best = Vec::new();
    let mut pt_best = Vec::new();
    for row in rows {
        if let Some(a) = row.saim.mean_accuracy(row.reference) {
            saim_avg.push(a);
        }
        if let Some(a) = row.best_sa.best_accuracy(row.reference) {
            sa_best.push(a);
        }
        if let Some(a) = row.pt.best_accuracy(row.reference) {
            pt_best.push(a);
        }
        table.row_owned(vec![
            row.label.clone(),
            format!("{:.1}", 100.0 * row.saim.optimality(row.reference)),
            format!(
                "{} ({:.0})",
                fmt(row.saim.mean_accuracy(row.reference)),
                100.0 * row.saim.feasibility
            ),
            fmt(row.saim.best_accuracy(row.reference)),
            fmt(row.best_sa.best_accuracy(row.reference)),
            fmt(row.pt.best_accuracy(row.reference)),
            if row.certified {
                "OPT".into()
            } else {
                "best-known".into()
            },
        ]);
    }
    println!("{title}\n");
    print!("{}", table.render());
    let summary = |name: &str, v: &[f64]| {
        if let Some(s) = stats::summarize(v) {
            println!("{name}: mean {:.1}%, median {:.1}%", s.mean, s.median);
        }
    };
    println!();
    summary("SAIM avg accuracy", &saim_avg);
    summary("best-SA best accuracy", &sa_best);
    summary("PT best accuracy", &pt_best);
    if csv {
        print!("{}", table.to_csv());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn comparison_produces_expected_row_count() {
        let args = HarnessArgs {
            scale: 0.005,
            seed: 1,
            csv: false,
        };
        let rows = qkp_comparison(12, &[0.5], 2, args);
        assert_eq!(rows.len(), 2);
        for row in &rows {
            assert!(row.reference > 0);
            // digests are self-consistent
            if let Some(best) = row.saim.best_profit {
                assert!(best <= row.reference);
            }
        }
    }
}
