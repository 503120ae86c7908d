//! Table V — MKP results: B&B time, SAIM optimality/best/avg, GA baseline.
//!
//! Three instance classes as in the paper (N-M): 100-5, 100-10, 250-5 at
//! full scale; proportionally smaller by default. Expected shape (paper
//! averages): SAIM best 99.7 / avg 98.4 with low feasibility (~5%), GA
//! ≥ 99.1 — comparable solution quality although the GA is MKP-tailored,
//! with SAIM feasibility much lower than on QKP because several constraints
//! must hold at once.
//!
//! ```text
//! cargo run -p saim-bench --release --bin table5_mkp
//! cargo run -p saim-bench --release --bin table5_mkp -- --full
//! ```

use saim_bench::args::HarnessArgs;
use saim_bench::experiments::{self, format_mean_of};
use saim_bench::report::Table;
use saim_core::presets;
use saim_knapsack::generate;
use saim_machine::derive_seed;
use saim_machine::parallel::parallel_map_indexed;

fn main() {
    let args = HarnessArgs::parse(0.3, std::env::args().skip(1));
    // (N, M, instances) per class; at laptop scale the weight range shrinks
    // to 1..=100 so the binary slack blocks stay small (see generate docs)
    let full = args.scale >= 1.0;
    let classes: Vec<(usize, usize, usize)> = if full {
        vec![(100, 5, 10), (100, 10, 10), (250, 5, 10)]
    } else {
        vec![(20, 5, 2), (20, 10, 2), (40, 5, 2)]
    };
    let max_weight = if full { 1000 } else { 100 };
    let preset = presets::mkp();

    println!("Table V: MKP results (accuracy %; paper full-scale: SAIM best 99.7 / avg 98.4 (5.1), GA >= 99.1)");
    println!(
        "budget: {} runs x {} MCS (scale {})\n",
        args.scaled(preset.runs, 20),
        preset.mcs_per_run,
        args.scale
    );

    let mut table = Table::new(&[
        "Instance",
        "B&B time (s)",
        "Optimality (%)",
        "SAIM best",
        "SAIM avg (feas)",
        "GA",
        "ref",
    ]);
    let fmt = |v: Option<f64>| v.map_or("-".to_string(), |a| format!("{a:.1}"));
    let mut saim_best = Vec::new();
    let mut saim_avg = Vec::new();
    let mut saim_feas = Vec::new();
    let mut ga_acc = Vec::new();

    // flatten the (class, instance) grid and fan it out over an ordered map;
    // rows come back in grid order (solver digests and the node-budgeted
    // B&B reference are thread-count invariant; only the B&B time column
    // is a measurement)
    let grid: Vec<(usize, usize)> = classes
        .iter()
        .enumerate()
        .flat_map(|(ci, (_, _, count))| (0..*count).map(move |idx| (ci, idx)))
        .collect();
    let cells = parallel_map_indexed(grid.len(), 0, |cell| {
        let (ci, idx) = grid[cell];
        let (n, m, _) = classes[ci];
        let inst_seed = derive_seed(args.seed, (ci * 1000 + idx) as u64);
        let instance = generate::mkp_with_max_weight(n, m, 0.5, max_weight, inst_seed)
            .expect("valid parameters");
        let enc = instance.encode().expect("instance encodes");

        let (saim, _) = experiments::saim_mkp(&enc, preset, args.scale, inst_seed);
        let ga = experiments::ga_mkp(&instance, args.scale, inst_seed);
        let bb_seconds = 5.0_f64.max(30.0 * args.scale);
        let (reference, certified, elapsed) = experiments::mkp_reference(&instance, bb_seconds);
        let reference = experiments::best_known(reference, &[&saim, &ga]);
        let label = format!("{n}-{m}-{}", idx + 1);
        (label, saim, ga, reference, certified, elapsed)
    });
    for (label, saim, ga, reference, certified, elapsed) in cells {
        if let Some(a) = saim.best_accuracy(reference) {
            saim_best.push(a);
        }
        if let Some(a) = saim.mean_accuracy(reference) {
            saim_avg.push(a);
        }
        saim_feas.push(100.0 * saim.feasibility);
        if let Some(a) = ga.best_accuracy(reference) {
            ga_acc.push(a);
        }

        table.row_owned(vec![
            label,
            format!("{:.2}", elapsed.as_secs_f64()),
            format!("{:.1}", 100.0 * saim.optimality(reference)),
            fmt(saim.best_accuracy(reference)),
            format!(
                "{} ({:.1})",
                fmt(saim.mean_accuracy(reference)),
                100.0 * saim.feasibility
            ),
            fmt(ga.best_accuracy(reference)),
            if certified {
                "OPT".into()
            } else {
                "best-known".into()
            },
        ]);
    }

    print!("{}", table.render());
    let instances = grid.len();
    println!(
        "\nAverages % (of the instances with a value): SAIM best {}, SAIM avg {}, SAIM feasibility {}, GA {}",
        format_mean_of(&saim_best, instances),
        format_mean_of(&saim_avg, instances),
        format_mean_of(&saim_feas, instances),
        format_mean_of(&ga_acc, instances)
    );
    println!("Note: SAIM feasibility on MKP is expected to be far below the ~50% QKP level —");
    println!("multiple simultaneous constraints are harder to satisfy (paper section IV-B).");
    if args.csv {
        print!("{}", table.to_csv());
    }
}
