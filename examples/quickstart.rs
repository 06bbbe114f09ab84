//! Quickstart: one poisoning game from data to equilibrium defense.
//!
//! Generates the synthetic Spambase stand-in, estimates the game
//! curves `E(p)` / `Γ(p)`, runs the paper's Algorithm 1, and prints the
//! defender's mixed strategy plus its predicted accuracy.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use poisongame::core::ne::diagnose;
use poisongame::core::{Algorithm1, Algorithm1Config};
use poisongame::sim::estimate::{default_placements, default_strengths};
use poisongame::sim::pipeline::ExperimentConfig;
use poisongame::sim::EvalEngine;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // The paper's protocol at reduced scale so this runs in seconds;
    // swap `.quick()` out for the full 4601-row, 5000-epoch setup.
    let config = ExperimentConfig::paper().quick();
    println!("== poisoning game quickstart ==");
    println!("dataset: synthetic Spambase stand-in, budget 20%, SVM victim\n");

    println!("estimating E(p) and Γ(p) from attack/filter sweeps...");
    let curves =
        EvalEngine::new().estimate_curves(&config, &default_placements(), &default_strengths())?;
    println!(
        "  baseline accuracy (no attack, no filter): {:.4}",
        curves.baseline_accuracy
    );
    println!("  poison budget N = {}", curves.n_poison);
    for &(p, e) in &curves.effect_samples {
        println!("  E({:>4.0}%) = {:+.3e} per point", p * 100.0, e);
    }
    for &(p, g) in &curves.cost_samples {
        println!("  Γ({:>4.0}%) = {:+.4}", p * 100.0, g);
    }

    let game = curves.game()?;
    println!("\nrunning Algorithm 1 (n = 3 filter radii)...");
    let result = Algorithm1::new(Algorithm1Config {
        n_radii: 3,
        ..Default::default()
    })
    .solve(&game)?;

    println!("  defender NE strategy: {}", result.strategy);
    println!(
        "  converged: {} after {} iterations",
        result.converged, result.iterations
    );
    println!(
        "  attacker's per-point equilibrium gain: {:.3e}",
        result.attacker_gain
    );
    println!("  defender loss: {:.4}", result.defender_loss);
    println!(
        "  predicted accuracy under optimal attack: {:.4}",
        curves.baseline_accuracy - result.defender_loss
    );

    let diag = diagnose(&result.strategy, game.effect(), 1e-6);
    println!(
        "\nNE conditions (§4.2): ≥2 support points: {}, equalized E·cdf products: {} (spread {:.2e})",
        diag.mixes_two_or_more, diag.products_equalized, diag.product_spread
    );
    Ok(())
}
