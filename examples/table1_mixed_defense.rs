//! Regenerate **Table 1**: the mixed-strategy defense under optimal
//! attack, for `n = 2` and `n = 3` filter radii.
//!
//! Estimates the game curves, runs Algorithm 1 for each support size,
//! and evaluates the resulting mixed defense empirically against a
//! best-responding attacker — then compares with the best pure
//! strategy from the Figure 1 sweep (the paper's headline claim is
//! that the mixed accuracy is strictly higher).
//!
//! ```sh
//! cargo run --release --example table1_mixed_defense            # quick
//! cargo run --release --example table1_mixed_defense -- --full  # paper scale
//! ```

use poisongame::core::paper::{paper_game, PAPER_BASELINE_ACCURACY};
use poisongame::core::{Algorithm1, DefenderMixedStrategy};
use poisongame::sim::estimate::{default_placements, default_strengths};
use poisongame::sim::fig1::Fig1Config;
use poisongame::sim::pipeline::ExperimentConfig;
use poisongame::sim::report::table1_table;
use poisongame::sim::EvalEngine;

/// Part 1 — the faithful model-level reproduction: Algorithm 1 on
/// curves inverted from the paper's own published Table 1 numbers.
fn paper_calibrated_reproduction() -> Result<(), Box<dyn std::error::Error>> {
    println!("== Table 1, model level (paper-calibrated curves) ==\n");
    let game = paper_game()?;
    // The best pure strategy under the same curves.
    let mut best_pure = (0.0f64, f64::INFINITY);
    for k in 0..=49 {
        let theta = 0.01 * k as f64;
        let pure = DefenderMixedStrategy::pure(theta)?;
        let loss = pure.defender_loss(game.effect(), game.cost(), game.n_points());
        if loss < best_pure.1 {
            best_pure = (theta, loss);
        }
    }
    println!(
        "best pure strategy: θ = {:.1}% → accuracy {:.4}",
        best_pure.0 * 100.0,
        PAPER_BASELINE_ACCURACY - best_pure.1
    );
    println!("paper's published rows: n=2 → {{5.8%, 15.7%}} @ {{51.2%, 48.8%}}, acc 85.6%");
    println!("                        n=3 → {{5.8%, 9.4%, 16.3%}} @ ~uniform, acc 86.1%\n");
    for n in [2usize, 3] {
        let r = Algorithm1::with_support_size(n).solve(&game)?;
        println!(
            "ours, n = {n}: {} → accuracy {:.4} (strictly above best pure: {})",
            r.strategy,
            PAPER_BASELINE_ACCURACY - r.defender_loss,
            r.defender_loss < best_pure.1
        );
    }
    println!();
    Ok(())
}

fn main() -> Result<(), Box<dyn std::error::Error>> {
    paper_calibrated_reproduction()?;

    println!("== Table 1, end-to-end (synthetic Spambase pipeline) ==\n");
    let full = std::env::args().any(|a| a == "--full");
    let config = if full {
        ExperimentConfig::paper()
    } else {
        ExperimentConfig::paper().quick()
    };

    // One engine: the three stages share one dataset preparation.
    let engine = EvalEngine::new();
    eprintln!("running Figure 1 sweep for the pure-strategy baseline...");
    let fig1 = engine.run_fig1(&config, &Fig1Config::default())?;
    let best_pure = fig1.best_pure().accuracy_under_attack;

    eprintln!("estimating E(p) / Γ(p)...");
    let curves = engine.estimate_curves(&config, &default_placements(), &default_strengths())?;

    eprintln!("running Algorithm 1 for n = 2, 3 and evaluating empirically...");
    let table1 = engine.run_table1(&config, &curves, &[2, 3], best_pure)?;
    println!("{}", table1_table(&table1));

    for row in &table1.rows {
        let verdict = if row.empirical_accuracy >= table1.best_pure_accuracy {
            "≥ best pure — matches the paper's claim"
        } else {
            "below best pure — compare the paper-calibrated table above (core::paper)"
        };
        println!(
            "n = {}: mixed {:.4} vs best pure {:.4}  [{verdict}]",
            row.n_radii, row.empirical_accuracy, table1.best_pure_accuracy
        );
    }
    Ok(())
}
