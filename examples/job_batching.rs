//! Co-scheduling synergistic jobs on a shared accelerator — a quadratic
//! knapsack in disguise, solved three ways (SAIM, exact, greedy).
//!
//! ```text
//! cargo run --release --example job_batching
//! ```
//!
//! Each job has a standalone speedup value and a memory footprint; pairs of
//! jobs that share model weights gain *extra* value when batched together
//! (the quadratic term). The accelerator has fixed memory — a capacity
//! constraint. This is exactly QKP (paper eq. 12) with a systems story.

use saim_core::{ConstrainedProblem, SaimConfig, SaimRunner};
use saim_exact::bb::{self, BbLimits};
use saim_heuristics::{greedy, local};
use saim_knapsack::QkpInstance;
use saim_machine::{BetaSchedule, SimulatedAnnealing};
use std::error::Error;

fn main() -> Result<(), Box<dyn Error>> {
    let jobs = [
        "resnet-infer",
        "bert-embed",
        "bert-rank",
        "whisper-small",
        "llm-draft",
        "llm-verify",
        "ocr-batch",
        "rec-retrieval",
        "rec-rank",
        "tts-stream",
        "vision-detect",
        "vision-track",
        "asr-align",
        "翻译-batch",
    ];
    // standalone value (throughput gain) and memory footprint (GB)
    let value = vec![40, 55, 50, 35, 90, 85, 20, 60, 58, 25, 45, 42, 18, 30];
    let memory = vec![8, 6, 6, 5, 24, 20, 3, 10, 9, 4, 7, 7, 3, 5];
    // weight-sharing synergies: batching both members reuses cached weights
    let synergy = vec![
        (1, 2, 35),   // the two BERT stages share an encoder
        (4, 5, 60),   // draft+verify share the base LLM
        (7, 8, 40),   // retrieval+rank share embeddings
        (10, 11, 30), // detect+track share a backbone
        (3, 12, 15),  // whisper + alignment share audio features
        (1, 7, 12),   // embeddings reused by retrieval
    ];
    let vram = 64; // GB

    let instance = QkpInstance::new(value.clone(), synergy, memory.clone(), vram)?
        .with_label("job-batching-14");
    let encoded = instance.encode()?;

    // SAIM with the paper's QKP preset
    let config = SaimConfig {
        penalty: encoded.penalty_for_alpha(2.0),
        eta: 20.0,
        iterations: 200,
        seed: 5,
    };
    let solver = SimulatedAnnealing::new(BetaSchedule::linear(10.0), 1000, 5);
    let outcome = SaimRunner::new(config).run(&encoded, solver);
    let best = outcome.best.as_ref().ok_or("no feasible batch found")?;
    let batch = encoded.decode(&best.state);

    println!("accelerator batch (VRAM {} GB):", vram);
    for (i, name) in jobs.iter().enumerate() {
        if batch[i] == 1 {
            println!("  + {name} (value {}, {} GB)", value[i], memory[i]);
        }
    }
    println!(
        "SAIM batch value {} using {}/{} GB",
        -best.cost,
        instance.weight(&batch),
        vram
    );

    // exact reference and greedy baseline
    let exact = bb::solve_qkp(&instance, BbLimits::default());
    let mut greedy_sel = greedy::qkp(&instance);
    local::improve_qkp(&instance, &mut greedy_sel);
    println!(
        "\nexact optimum: {} ({})",
        exact.profit,
        if exact.proven_optimal {
            "certified"
        } else {
            "incumbent"
        }
    );
    println!("greedy + local search: {}", instance.profit(&greedy_sel));
    println!(
        "SAIM reached {:.1}% of optimal; synergy pairs captured make the difference\n\
         between this and the linear-greedy answer.",
        100.0 * (-best.cost) / exact.profit as f64
    );
    Ok(())
}
