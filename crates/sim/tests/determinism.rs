//! Determinism regression: the parallel engine at 1, 2 and 8 threads
//! produces byte-identical serialized reports for the same master
//! seed. This is the contract that makes fan-out safe to enable by
//! default — the schedule may only change wall-clock time, never
//! results.

use poisongame_core::ne::equalizing_strategy;
use poisongame_core::{CostCurve, EffectCurve, PoisonGame, SolverKind};
use poisongame_data::ContentHash;
use poisongame_defense::CentroidEstimator;
use poisongame_sim::engine::EvalEngine;
use poisongame_sim::error::SimError;
use poisongame_sim::estimate::{default_placements, default_strengths, CurveEstimate};
use poisongame_sim::exec::ExecPolicy;
use poisongame_sim::fig1::{run_fig1_prepared, Fig1Config};
use poisongame_sim::pipeline::{prepare, DataSource, ExperimentConfig};
use poisongame_sim::report::{fig1_csv, fig1_table, matrix_csv, table1_table};
use poisongame_sim::scenario::{run_matrix_prepared, Scenario, ScenarioMatrix};

const THREAD_COUNTS: [usize; 3] = [1, 2, 8];

fn tiny_config() -> ExperimentConfig {
    ExperimentConfig {
        seed: 0xD37E_2214,
        source: DataSource::SyntheticSpambase { rows: 400 },
        test_fraction: 0.3,
        budget_fraction: 0.2,
        epochs: 25,
        centroid: CentroidEstimator::CoordinateMedian,
        solver: SolverKind::Auto,
        warm_start: false,
        fit_kernel: poisongame_ml::FitKernel::RowSgd,
        scenario: Scenario::default(),
    }
}

#[test]
fn fig1_reports_are_byte_identical_across_thread_counts() {
    let config = tiny_config();
    let sweep = Fig1Config {
        strengths: vec![0.0, 0.08, 0.20],
        placement_slack: 0.01,
    };
    let reports: Vec<(String, String)> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let r = EvalEngine::with_policy(ExecPolicy::with_threads(threads))
                .run_fig1(&config, &sweep)
                .expect("sweep runs");
            (fig1_csv(&r), fig1_table(&r))
        })
        .collect();
    for (threads, (csv, table)) in THREAD_COUNTS.iter().zip(&reports).skip(1) {
        assert_eq!(
            csv.as_bytes(),
            reports[0].0.as_bytes(),
            "fig1 CSV diverged at {threads} threads"
        );
        assert_eq!(
            table.as_bytes(),
            reports[0].1.as_bytes(),
            "fig1 table diverged at {threads} threads"
        );
    }
}

#[test]
fn table1_reports_are_byte_identical_across_thread_counts() {
    let config = tiny_config();
    let curves = EvalEngine::new()
        .estimate_curves(&config, &[0.02, 0.20], &[0.0, 0.15])
        .expect("curves estimate");
    let reports: Vec<String> = THREAD_COUNTS
        .iter()
        .map(|&threads| {
            let t = EvalEngine::with_policy(ExecPolicy::with_threads(threads))
                .run_table1(&config, &curves, &[2], 0.8)
                .expect("table1 runs");
            table1_table(&t)
        })
        .collect();
    for (threads, report) in THREAD_COUNTS.iter().zip(&reports).skip(1) {
        assert_eq!(
            report.as_bytes(),
            reports[0].as_bytes(),
            "table1 report diverged at {threads} threads"
        );
    }
}

/// The cached engine must be a pure wall-clock optimization: for the
/// same seed, the warm (cache-hitting) run's serialized report is
/// byte-identical to the cold per-cell evaluation, at every thread
/// count — caching removes redundant identical computation only.
#[test]
fn cached_engine_is_byte_identical_to_cold_evaluation() {
    let config = tiny_config();
    let matrix = ScenarioMatrix {
        attacks: vec![
            poisongame_sim::scenario::AttackSpec::Boundary,
            poisongame_sim::scenario::AttackSpec::LabelFlip,
        ],
        defenses: vec![
            poisongame_sim::scenario::DefenseSpec::Radius,
            poisongame_sim::scenario::DefenseSpec::Slab,
        ],
        learners: vec![poisongame_sim::scenario::LearnerSpec::Svm],
        strength: 0.15,
        placement_slack: 0.01,
    };
    let sweep = Fig1Config {
        strengths: vec![0.0, 0.08, 0.20],
        placement_slack: 0.01,
    };

    // Cold references (no engine, an uncached sequential preparation).
    let prepared = prepare(&config).unwrap();
    let sequential = ExecPolicy::sequential();
    let cold_matrix = run_matrix_prepared(&prepared, &config, &matrix, &sequential).unwrap();
    let cold_fig1 = run_fig1_prepared(&prepared, &config, &sweep, &sequential).unwrap();

    for &threads in &THREAD_COUNTS {
        let engine = EvalEngine::with_policy(ExecPolicy::with_threads(threads));
        // Warm the store, then measure the hitting run.
        let first = engine.run_matrix(&config, &matrix).unwrap();
        let second = engine.run_matrix(&config, &matrix).unwrap();
        assert!(engine.cache_stats().hits >= 1, "second run must hit");
        assert_eq!(
            matrix_csv(&second).as_bytes(),
            matrix_csv(&cold_matrix).as_bytes(),
            "cached matrix diverged from cold at {threads} threads"
        );
        assert_eq!(first, second);

        let cached_fig1 = engine.run_fig1(&config, &sweep).unwrap();
        assert_eq!(
            fig1_csv(&cached_fig1).as_bytes(),
            fig1_csv(&cold_fig1).as_bytes(),
            "cached fig1 diverged from cold at {threads} threads"
        );
    }
}

/// FNV-1a digest of an online trace: every checkpoint and both
/// averaged strategies, each float by exact bit pattern.
fn online_digest(trace: &poisongame_online::OnlineTrace) -> u64 {
    let mut h = ContentHash::new()
        .u64(trace.rounds as u64)
        .str(&trace.attacker)
        .str(&trace.defender)
        .str(trace.feedback.name())
        .u64(trace.seed)
        .f64(trace.ne_value);
    for p in &trace.points {
        h = h
            .u64(p.round as u64)
            .f64(p.attacker_regret)
            .f64(p.defender_regret)
            .f64(p.exploitability)
            .f64(p.average_value)
            .f64(p.ne_gap);
    }
    for &x in trace.attacker_average.iter().chain(&trace.defender_average) {
        h = h.f64(x);
    }
    h.finish()
}

/// Online play is a sequential loop over a payoff grid materialized
/// in parallel: the trace (regrets, exploitability, averaged
/// strategies — all floats) is the same bits at any worker count, and
/// those bits are pinned. The constant was computed before the lazy
/// per-cell route was deleted, when both routes agreed on it.
#[test]
fn online_traces_are_byte_identical_across_worker_counts() {
    use poisongame_online::{run_online, LearnerKind, OnlineSpec};

    let config = tiny_config();
    let spec = OnlineSpec {
        rounds: 500,
        attacker: LearnerKind::Hedge,
        defender: LearnerKind::RegretMatching,
        placements: vec![0.02, 0.15, 0.30],
        strengths: vec![0.0, 0.10, 0.25],
        ..OnlineSpec::default()
    };

    for &threads in &THREAD_COUNTS {
        let engine = EvalEngine::new();
        let outcome = run_online(&engine, &config, &spec, &ExecPolicy::with_threads(threads))
            .expect("online run");
        assert_eq!(
            online_digest(&outcome.trace),
            0x3860_3d4c_59ce_aca2,
            "online trace diverged at {threads} threads"
        );
    }
}

/// The Monte-Carlo indifference check fans its replicates out on the
/// engine's pool and merges them in replicate order: the same bits at
/// any thread count, and those bits are pinned.
#[test]
fn monte_carlo_results_are_byte_identical_across_thread_counts() {
    let effect = EffectCurve::from_samples(&[
        (0.0, 2.0e-4),
        (0.10, 9.0e-5),
        (0.20, 4.0e-5),
        (0.40, 2.0e-6),
    ])
    .unwrap();
    let cost = CostCurve::from_samples(&[(0.0, 0.0), (0.20, 0.022), (0.40, 0.065)]).unwrap();
    let game = PoisonGame::new(effect, cost, 644).unwrap();
    let strategy = equalizing_strategy(&[0.05, 0.15, 0.30], game.effect()).unwrap();

    for &threads in &THREAD_COUNTS {
        let mc = EvalEngine::with_policy(ExecPolicy::with_threads(threads))
            .simulate_repeated_game(&game, &strategy, 10_000, 16, 0xCAFE)
            .expect("simulation runs");
        let mut h = ContentHash::new()
            .u64(mc.rounds as u64)
            .f64(mc.payoff_spread)
            .f64(mc.mean_defender_loss);
        for &(p, v) in &mc.candidate_payoffs {
            h = h.f64(p).f64(v);
        }
        assert_eq!(
            h.finish(),
            0xcd03_8c0c_3107_0de4,
            "monte carlo diverged at {threads} threads"
        );
    }
}

/// FNV-1a digest over every float an estimate carries, by exact bit
/// pattern (the fitted curves are a deterministic function of the
/// samples).
fn estimate_digest(est: &CurveEstimate) -> u64 {
    let mut h = ContentHash::new()
        .u64(est.n_poison as u64)
        .f64(est.baseline_accuracy);
    for &(x, y) in est.effect_samples.iter().chain(&est.cost_samples) {
        h = h.f64(x).f64(y);
    }
    h.finish()
}

/// The estimate's baseline, attacked and clean cells run as one grid
/// on the pool; the result is the same bits at any thread count, and
/// those bits are pinned.
#[test]
fn estimate_is_bit_identical_across_thread_counts() {
    let config = tiny_config();
    for &threads in &THREAD_COUNTS {
        let est = EvalEngine::with_policy(ExecPolicy::with_threads(threads))
            .estimate_curves(&config, &default_placements(), &default_strengths())
            .expect("estimate runs");
        assert_eq!(
            estimate_digest(&est),
            0x7a6e_2651_e116_c013,
            "estimate diverged at {threads} threads"
        );
    }
}

/// A grid with a bad placement *and* a bad strength reports the
/// placement, as the sequential loop met it first, at any fan-out.
#[test]
fn estimate_reports_the_first_bad_grid_value() {
    let config = tiny_config();
    for policy in [ExecPolicy::sequential(), ExecPolicy::with_threads(8)] {
        let err = EvalEngine::with_policy(policy)
            .estimate_curves(&config, &[0.05, 1.5], &[0.0, -0.1])
            .expect_err("bad grids rejected");
        assert!(
            matches!(
                err,
                SimError::BadParameter {
                    what: "placement",
                    value
                } if value == 1.5
            ),
            "{policy:?}: {err:?}"
        );
    }
}

/// FNV-1a digest of a Figure 1 sweep and a Table 1 run, every float by
/// exact bit pattern.
fn fig1_table1_digest(
    fig1: &poisongame_sim::fig1::Fig1Results,
    table1: &poisongame_sim::table1::Table1Results,
) -> u64 {
    let mut h = ContentHash::new()
        .u64(fig1.n_poison as u64)
        .f64(fig1.baseline_accuracy);
    for row in &fig1.rows {
        h = h
            .f64(row.removed_fraction)
            .f64(row.accuracy_under_attack)
            .f64(row.accuracy_clean)
            .f64(row.poison_recall);
    }
    h = h
        .f64(table1.best_pure_accuracy)
        .f64(table1.baseline_accuracy);
    for row in &table1.rows {
        h = h.u64(row.n_radii as u64);
        for &x in row.support.iter().chain(&row.probabilities) {
            h = h.f64(x);
        }
        h = h
            .f64(row.predicted_accuracy)
            .f64(row.empirical_accuracy)
            .f64(row.attacker_placement);
    }
    h.finish()
}

/// Figure 1 (whose θ = 0 clean cell is the baseline) and the cold
/// Table 1 (whose cells run as one flat batch) keep the bits they had
/// when each ran its cells row by row; the constant was computed
/// before either changed.
#[test]
fn fig1_and_table1_bits_are_pinned() {
    let config = tiny_config();
    let curves = EvalEngine::new()
        .estimate_curves(&config, &[0.02, 0.1, 0.25], &[0.0, 0.05, 0.15, 0.3])
        .expect("curves estimate");
    for &threads in &[1, 8] {
        let engine = EvalEngine::with_policy(ExecPolicy::with_threads(threads));
        let fig1 = engine
            .run_fig1(&config, &Fig1Config::default())
            .expect("fig1 runs");
        let table1 = engine
            .run_table1(&config, &curves, &[2, 3, 4], 0.8)
            .expect("table1 runs");
        let digest = fig1_table1_digest(&fig1, &table1);
        assert_eq!(
            digest, 0xebe9_0f74_4ad3_2914,
            "fig1/table1 diverged at {threads} threads"
        );
    }
}
