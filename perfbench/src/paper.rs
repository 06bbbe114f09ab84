//! `paper_sweep`: the paper's own job, offline, through one
//! `EvalEngine` at `bench_experiment_config()` scale.
//!
//! One sweep is: the Fig 1 strength sweep; curve estimation;
//! Algorithm 1 for n = 2, 3, 4 with the Table 1 empirical evaluation;
//! one discretized solve with more than 128 actions per side (so
//! `SolverKind::Auto` takes the multiplicative-weights path); and a
//! fixed-round online self-play on a discretized game. A run sweeps
//! eight data sets in turn; set-up fills the prep cache with all eight,
//! so every sweep hits it.
//!
//! The traced run rebuilds the same sweep from the public per-layer
//! calls (attack generate, defense split, learner fit, batched eval,
//! Algorithm 1, the discretized solve, online play) with a span around
//! each, and aborts unless its results are bit-identical to the engine
//! path and to `pipeline::run_cell`.

use crate::measure::{self, median, Report};
use crate::replay::{err, CellReplay, Counts};
use crate::Ctx;
use poisongame::core::bridge::{discretized_game, solve_discretized_with, DiscretizedSolution};
use poisongame::core::{Algorithm1, CostCurve, EffectCurve, SolverKind};
use poisongame::data::ContentHash;
use poisongame::exec::WorkerPool;
use poisongame::online::payoff::MatrixPayoff;
use poisongame::online::play::{play, PlayConfig};
use poisongame::online::{LearnerKind, OnlineTrace};
use poisongame::sim::estimate::{default_placements, default_strengths, CurveEstimate};
use poisongame::sim::exec::try_parallel_map;
use poisongame::sim::fig1::{Fig1Config, Fig1Results, Fig1Row};
use poisongame::sim::jsonio::Json;
use poisongame::sim::pipeline::{hugging_placement, EvalOutcome, ExperimentConfig, Prepared};
use poisongame::sim::table1::{Table1Results, Table1Row};
use poisongame::sim::{DataSource, EvalEngine, ExecPolicy};
use poisongame_bench::bench_experiment_config;
use std::time::{Duration, Instant};

const SUPPORT_SIZES: [usize; 3] = [2, 3, 4];
/// 151 grid points per side: above `AUTO_EXACT_LIMIT` (128), so the
/// `Auto` solver resolves to multiplicative weights.
const MW_RESOLUTION: usize = 150;
const ONLINE_RESOLUTION: usize = 40;
const ONLINE_ROUNDS: usize = 20_000;
/// Table 1's attacker placement slack (as in `run_table1_prepared`).
const TABLE1_SLACK: f64 = 0.01;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 31;
/// Data sets per run. A sweep's cost depends on its data (the MW
/// solve's iterations, Table 1's support sizes): up to 1.6× between
/// data sets. Sweeps take the data sets in turn and a run ends on a
/// whole rotation, so every data set weighs the same in its figures.
const DATA_SETS: usize = 8;

/// The workload configs: bench scale, seeds drawn from the workload
/// seed so every seed gives different data sets.
fn configs(seed: u64) -> Vec<ExperimentConfig> {
    let mut rng = poisongame::linalg::rng::SplitMix64::new(seed ^ 0x9a9e_5eed);
    (0..DATA_SETS)
        .map(|_| ExperimentConfig {
            seed: rng.next(),
            ..bench_experiment_config()
        })
        .collect()
}

fn play_config(config: &ExperimentConfig) -> PlayConfig {
    PlayConfig {
        rounds: ONLINE_ROUNDS,
        attacker: LearnerKind::RegretMatching,
        defender: LearnerKind::RegretMatching,
        seed: config.seed,
        ..PlayConfig::default()
    }
}

/// Everything one sweep produces.
#[derive(Debug, PartialEq)]
struct Sweep {
    fig1: Fig1Results,
    curves: CurveEstimate,
    table1: Table1Results,
    discrete: DiscretizedSolution,
    online: OnlineTrace,
}

/// The untraced sweep: the engine's own entry points.
fn engine_sweep(engine: &EvalEngine, config: &ExperimentConfig) -> Result<Sweep, String> {
    let fig1 = engine
        .run_fig1(config, &Fig1Config::default())
        .map_err(err)?;
    let curves = engine
        .estimate_curves(config, &default_placements(), &default_strengths())
        .map_err(err)?;
    let table1 = engine
        .run_table1(
            config,
            &curves,
            &SUPPORT_SIZES,
            fig1.best_pure().accuracy_under_attack,
        )
        .map_err(err)?;
    let game = curves.game().map_err(err)?;
    let discrete = solve_discretized_with(&game, MW_RESOLUTION, SolverKind::Auto).map_err(err)?;
    let (_, matrix) = discretized_game(&game, ONLINE_RESOLUTION);
    let online = play(&mut MatrixPayoff::new(matrix), &play_config(config)).map_err(err)?;
    Ok(Sweep {
        fig1,
        curves,
        table1,
        discrete,
        online,
    })
}

/// `to_bits` digest of the paper's artifacts: Fig 1 rows, the
/// estimated curves, Table 1 rows (Algorithm 1's strategies and both
/// accuracies), the discretized NE value and strategy, and the online
/// trace's end point.
fn digest(s: &Sweep) -> u64 {
    let mut h = ContentHash::new();
    for r in &s.fig1.rows {
        h = h
            .f64(r.removed_fraction)
            .f64(r.accuracy_under_attack)
            .f64(r.accuracy_clean)
            .f64(r.poison_recall);
    }
    h = h.f64(s.fig1.baseline_accuracy).u64(s.fig1.n_poison as u64);
    for (x, y) in s.curves.effect_samples.iter().chain(&s.curves.cost_samples) {
        h = h.f64(*x).f64(*y);
    }
    h = h.f64(s.curves.baseline_accuracy);
    for r in &s.table1.rows {
        h = h.u64(r.n_radii as u64);
        for v in r.support.iter().chain(&r.probabilities) {
            h = h.f64(*v);
        }
        h = h
            .f64(r.predicted_accuracy)
            .f64(r.empirical_accuracy)
            .f64(r.attacker_placement);
    }
    h = h.f64(s.discrete.value);
    for v in s
        .discrete
        .defender_strategy
        .support()
        .iter()
        .chain(s.discrete.defender_strategy.probabilities())
    {
        h = h.f64(*v);
    }
    let last = s.online.last();
    h.f64(last.average_value).f64(last.ne_gap).finish()
}

/// The traced replay: the engine sweep rebuilt from public layer calls,
/// with the same seeds and the same parallel structure.
struct Replay<'a> {
    ctx: &'a Ctx,
    config: &'a ExperimentConfig,
    prepared: &'a Prepared,
    cells: CellReplay<'a>,
}

impl Replay<'_> {
    fn clean_cell(&self, parent: Option<u64>, theta: f64) -> Result<EvalOutcome, String> {
        self.cells.clean(parent, &self.config.scenario, theta)
    }

    fn attacked_cell(
        &self,
        parent: Option<u64>,
        placement: f64,
        theta: f64,
        rng_seed: u64,
    ) -> Result<EvalOutcome, String> {
        self.cells
            .attacked(parent, &self.config.scenario, placement, theta, rng_seed)
    }

    fn fig1(&self, root: Option<u64>) -> Result<Fig1Results, String> {
        let sweep = Fig1Config::default();
        let baseline = self.clean_cell(root, 0.0)?;
        let rows = try_parallel_map(
            &ExecPolicy::default(),
            &sweep.strengths,
            |_, &theta| -> Result<Fig1Row, String> {
                let placement = hugging_placement(self.prepared, theta, sweep.placement_slack);
                // `fig1::point_rng`: the master seed folded with θ.
                let seed = self.config.seed ^ theta.to_bits().rotate_left(17);
                let attacked = self.attacked_cell(root, placement, theta, seed)?;
                let clean = self.clean_cell(root, theta)?;
                Ok(Fig1Row {
                    removed_fraction: theta,
                    accuracy_under_attack: attacked.accuracy,
                    accuracy_clean: clean.accuracy,
                    poison_recall: attacked.accounting.poison_recall(),
                })
            },
        )?;
        Ok(Fig1Results {
            rows,
            baseline_accuracy: baseline.accuracy,
            n_poison: self.prepared.n_poison,
        })
    }

    fn estimate(&self, root: Option<u64>) -> Result<CurveEstimate, String> {
        let baseline = self.clean_cell(root, 0.0)?;
        let n_poison = self.prepared.n_poison;
        let mut effect_samples = Vec::new();
        for p in default_placements() {
            let seed = self.config.seed ^ p.to_bits().rotate_left(29);
            let attacked = self.attacked_cell(root, p, 0.0, seed)?;
            effect_samples.push((p, (baseline.accuracy - attacked.accuracy) / n_poison as f64));
        }
        let mut cost_samples = Vec::new();
        for s in default_strengths() {
            let clean = self.clean_cell(root, s)?;
            cost_samples.push((s, (baseline.accuracy - clean.accuracy).max(0.0)));
        }
        let (effect, cost) = self.ctx.tracer.span("core.estimate", root, None, |_| {
            Ok::<_, String>((
                EffectCurve::from_samples(&effect_samples).map_err(err)?,
                CostCurve::from_samples(&cost_samples).map_err(err)?,
            ))
        })?;
        Ok(CurveEstimate {
            effect,
            cost,
            effect_samples,
            cost_samples,
            baseline_accuracy: baseline.accuracy,
            n_poison,
        })
    }

    fn table1(
        &self,
        root: Option<u64>,
        curves: &CurveEstimate,
        best_pure: f64,
    ) -> Result<Table1Results, String> {
        let tr = &self.ctx.tracer;
        let game = curves.game().map_err(err)?;
        let rows = try_parallel_map(
            &ExecPolicy::default(),
            &SUPPORT_SIZES,
            |_, &n| -> Result<Table1Row, String> {
                let result = tr
                    .span("core.algorithm1", root, None, |_| {
                        Algorithm1::new(self.config.algorithm1_config(n)).solve(&game)
                    })
                    .map_err(err)?;
                let strategy = &result.strategy;
                // The attacker best-responds over the support
                // (`table1::evaluate_mixed_defense_opts`).
                let mut worst = (f64::INFINITY, 0.0);
                for &candidate in strategy.support() {
                    let placement = hugging_placement(self.prepared, candidate, TABLE1_SLACK);
                    let mut expected = 0.0;
                    for (&theta, &q) in strategy.support().iter().zip(strategy.probabilities()) {
                        if q == 0.0 {
                            continue;
                        }
                        let seed = self.config.seed
                            ^ candidate.to_bits()
                            ^ theta.to_bits().rotate_left(13);
                        expected += q * self.attacked_cell(root, placement, theta, seed)?.accuracy;
                    }
                    if expected < worst.0 {
                        worst = (expected, candidate);
                    }
                }
                Ok(Table1Row {
                    n_radii: n,
                    support: strategy.support().to_vec(),
                    probabilities: strategy.probabilities().to_vec(),
                    predicted_accuracy: (curves.baseline_accuracy - result.defender_loss)
                        .clamp(0.0, 1.0),
                    empirical_accuracy: worst.0,
                    attacker_placement: worst.1,
                })
            },
        )?;
        Ok(Table1Results {
            rows,
            best_pure_accuracy: best_pure,
            baseline_accuracy: curves.baseline_accuracy,
        })
    }

    fn sweep(&self, engine: &EvalEngine) -> Result<(Sweep, Duration), String> {
        let tr = &self.ctx.tracer;
        let started = Instant::now();
        let sweep = tr.span("bench.sweep", None, None, |root| {
            // The cache-hit preparation every engine call starts with.
            let prepared = tr
                .span("sim.prep", root, None, |_| engine.prepare(self.config))
                .map_err(err)?;
            if prepared != *self.prepared {
                return Err("prep cache returned a different preparation".to_string());
            }
            let fig1 = self.fig1(root)?;
            let curves = self.estimate(root)?;
            let table1 = self.table1(root, &curves, fig1.best_pure().accuracy_under_attack)?;
            let game = curves.game().map_err(err)?;
            let discrete = tr
                .span("game.solve_mw", root, None, |_| {
                    solve_discretized_with(&game, MW_RESOLUTION, SolverKind::Auto)
                })
                .map_err(err)?;
            let (_, matrix) = discretized_game(&game, ONLINE_RESOLUTION);
            let online = tr
                .span("online.play", root, None, |_| {
                    play(&mut MatrixPayoff::new(matrix), &play_config(self.config))
                })
                .map_err(err)?;
            Ok(Sweep {
                fig1,
                curves,
                table1,
                discrete,
                online,
            })
        })?;
        Ok((sweep, started.elapsed()))
    }
}

/// Checks every sweep must pass, beyond digest stability.
fn sanity(report: &mut Report, data_set: usize, s: &Sweep) {
    let unit = |v: f64| (0.0..=1.0).contains(&v);
    let fig1_ok = s.fig1.rows.len() == Fig1Config::default().strengths.len()
        && s.fig1
            .rows
            .iter()
            .all(|r| unit(r.accuracy_under_attack) && unit(r.accuracy_clean));
    report.check(
        "fig1_rows_valid",
        fig1_ok,
        format!("data set {data_set}: {} rows", s.fig1.rows.len()),
    );
    let table1_ok = s.table1.rows.len() == SUPPORT_SIZES.len()
        && s.table1.rows.iter().all(|r| {
            r.support.len() == r.n_radii
                && (r.probabilities.iter().sum::<f64>() - 1.0).abs() < 1e-9
                && unit(r.empirical_accuracy)
        });
    report.check(
        "table1_rows_valid",
        table1_ok,
        format!("data set {data_set}: {} rows", s.table1.rows.len()),
    );
    report.check(
        "discretized_solve_took_mw_path",
        s.discrete.solver == "multiplicative_weights",
        format!("data set {data_set}: solver `{}`", s.discrete.solver),
    );
    report.check(
        "online_trace_complete",
        s.online.last().round == ONLINE_ROUNDS,
        format!("data set {data_set}: last round {}", s.online.last().round),
    );
}

/// Compare this run's digest with the one an earlier run of the same
/// seed left in the working directory (written on first sight).
fn cross_run_digest(ctx: &Ctx, report: &mut Report, digest: u64) -> Result<(), String> {
    let dir = ctx.out_dir.join("digests");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    let path = dir.join(format!("paper_sweep-seed{}-sets{DATA_SETS}.txt", ctx.seed));
    match std::fs::read_to_string(&path) {
        Ok(previous) => report.check(
            "digest_repeats_across_runs",
            previous.trim() == format!("{digest:016x}"),
            format!("this run {digest:016x}, earlier run {}", previous.trim()),
        ),
        Err(_) => std::fs::write(&path, format!("{digest:016x}\n"))
            .map_err(|e| format!("writing {}: {e}", path.display()))?,
    }
    Ok(())
}

pub fn run(ctx: &Ctx) -> Result<Report, String> {
    let configs = configs(ctx.seed);
    let mut report = Report::default();

    // Set-up: a fresh engine and the preparations that fill its cache.
    // The first one counts from process start.
    let mut setups = Vec::with_capacity(SETUPS);
    let mut engine = EvalEngine::new();
    for i in 0..SETUPS {
        let t0 = if i == 0 { ctx.started } else { Instant::now() };
        engine = EvalEngine::new();
        for config in &configs {
            engine.prepare(config).map_err(err)?;
        }
        setups.push(t0.elapsed().as_secs_f64());
    }
    report.metrics.set("setup_s", median(&setups));
    report.detail("setup_seconds", Json::nums(&setups));

    // Timed phase: back-to-back sweeps, the data sets in turn, in whole
    // rotations, the last one ending as near the run length as it can
    // (within half a rotation, taking each as long as the one before).
    let pool_before = WorkerPool::global().stats();
    let timing_before = poisongame::sim::timing::snapshot();
    let cache_before = engine.cache_stats();
    let window = if ctx.tracer.is_on() {
        ctx.seconds / 2
    } else {
        ctx.seconds
    };
    let phase = Instant::now();
    let mut rotation_started = phase;
    let mut times = Vec::new();
    let mut digests: Vec<Option<u64>> = vec![None; DATA_SETS];
    // At least one rotation, however short the run.
    for attempt in 0.. {
        let data_set = attempt % DATA_SETS;
        if data_set == 0 && attempt > 0 {
            if phase.elapsed() + rotation_started.elapsed() / 2 > window {
                break;
            }
            rotation_started = Instant::now();
        }
        let t0 = Instant::now();
        let result = engine_sweep(&engine, &configs[data_set]);
        let took = t0.elapsed().as_secs_f64();
        report.attempted += 1;
        match result {
            Ok(sweep) => {
                times.push((data_set, took));
                let d = digest(&sweep);
                match digests[data_set] {
                    None => {
                        digests[data_set] = Some(d);
                        sanity(&mut report, data_set, &sweep);
                    }
                    Some(first) if first != d => {
                        report.failed += 1;
                        eprintln!(
                            "perfbench: data set {data_set}: sweep digest {d:016x} != first {first:016x}"
                        );
                    }
                    Some(_) => {}
                }
            }
            Err(e) => {
                report.failed += 1;
                eprintln!("perfbench: data set {data_set}: sweep failed: {e}");
            }
        }
    }
    let wall = phase.elapsed().as_secs_f64();
    let digests = digests
        .into_iter()
        .enumerate()
        .map(|(i, d)| d.ok_or(format!("no sweep of data set {i} completed")))
        .collect::<Result<Vec<u64>, String>>()?;
    let run_digest = digests
        .iter()
        .fold(ContentHash::new(), |h, d| h.u64(*d))
        .finish();
    cross_run_digest(ctx, &mut report, run_digest)?;

    let secs: Vec<f64> = times.iter().map(|(_, t)| *t).collect();
    let sweeps = secs.len() as f64;
    let sorted = measure::sorted(secs.iter().map(|t| t * 1e3).collect());
    report.metrics.set("sweep_s", median(&secs));
    report.metrics.set("latency_p50_ms", median(&sorted));
    report
        .metrics
        .set("latency_p99_ms", measure::supported_tail(&sorted));
    report.metrics.set("max_rate_rps", sweeps / wall);
    let rows = match configs[0].source {
        DataSource::SyntheticSpambase { rows } => rows as f64,
        _ => unreachable!("bench config is synthetic Spambase"),
    };
    report.metrics.set("rows_per_s", rows * sweeps / wall);
    report.detail("sweep_seconds", Json::nums(&secs));
    report.detail(
        "digests",
        Json::Arr(
            digests
                .iter()
                .map(|d| Json::str(&format!("{d:016x}")))
                .collect(),
        ),
    );

    // Per-sweep counters the program already keeps (exec pool, sim
    // phase timers, prep cache), over the untraced sweeps.
    let pool = WorkerPool::global().stats().since(&pool_before);
    let timing = poisongame::sim::timing::snapshot();
    let cache = engine.cache_stats();
    let m = &mut report.metrics;
    m.set("exec.batches", pool.batches as f64 / sweeps);
    m.set("exec.steals", pool.steals as f64 / sweeps);
    m.set("exec.parks", pool.parks as f64 / sweeps);
    m.set(
        "exec.inline_share",
        pool.inline as f64 / (pool.inline + pool.tasks).max(1) as f64,
    );
    m.set(
        "sim.fit_ms",
        (timing.fit_micros - timing_before.fit_micros) as f64 / 1e3 / sweeps,
    );
    m.set(
        "sim.eval_ms",
        (timing.eval_micros - timing_before.eval_micros) as f64 / 1e3 / sweeps,
    );
    let hits = cache.hits - cache_before.hits;
    let misses = cache.misses - cache_before.misses;
    m.set("dataset.cache_hits", hits as f64 / sweeps);
    m.set("dataset.cache_misses", misses as f64 / sweeps);
    m.set(
        "dataset.cache_evictions",
        (cache.evictions - cache_before.evictions) as f64 / sweeps,
    );
    m.set(
        "dataset.cache_hit_ratio",
        hits as f64 / (hits + misses).max(1) as f64,
    );

    if ctx.tracer.is_on() {
        // The traced sweep replays data set 0.
        let untraced: Vec<f64> = times
            .iter()
            .filter(|(d, _)| *d == 0)
            .map(|(_, t)| *t)
            .collect();
        traced(
            ctx,
            &configs[0],
            &engine,
            digests[0],
            median(&untraced),
            &mut report,
        )?;
    }
    Ok(report)
}

/// The traced replay: one sweep from public layer calls, checked
/// bit-for-bit against the engine path and `run_cell`.
fn traced(
    ctx: &Ctx,
    config: &ExperimentConfig,
    engine: &EvalEngine,
    engine_digest: u64,
    untraced_sweep_s: f64,
    report: &mut Report,
) -> Result<(), String> {
    let prepared = engine.prepare(config).map_err(err)?;
    let counts = Counts::default();
    let replay = Replay {
        ctx,
        config,
        prepared: &prepared,
        cells: CellReplay::new(&ctx.tracer, &counts, config, &prepared),
    };
    let (sweep, took) = replay.sweep(engine)?;
    let replay_digest = digest(&sweep);
    if replay_digest != engine_digest {
        return Err(format!(
            "traced replay diverged from the engine path: digest {replay_digest:016x} != {engine_digest:016x}"
        ));
    }
    let verified = replay.cells.verify()?;
    report.check(
        "traced_replay_bit_identical",
        true,
        format!("digest {replay_digest:016x}; {verified} attacked cells match run_cell"),
    );

    let self_ms = ctx.tracer.self_ms();
    let get = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
    let m = &mut report.metrics;
    counts.set_metrics(&ctx.tracer, m);
    m.set(
        "bench.trace_overhead_ratio",
        took.as_secs_f64() / untraced_sweep_s,
    );
    m.set("sim.prep_ms", get("sim.prep"));
    m.set("core.estimate_ms", get("core.estimate"));
    m.set("core.algorithm1_ms", get("core.algorithm1"));
    m.set("game.solve_mw_ms", get("game.solve_mw"));
    let play_ms = get("online.play");
    m.set("online.play_ms", play_ms);
    m.set(
        "online.rounds_per_s",
        ONLINE_ROUNDS as f64 / (play_ms / 1e3),
    );
    report.detail("traced_sweep_s", Json::Num(took.as_secs_f64()));
    Ok(())
}
