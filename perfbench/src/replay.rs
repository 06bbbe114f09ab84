//! Experiment cells rebuilt from the public per-layer calls, for
//! traced runs: attack `generate`, defense `split`, learner `fit`,
//! `batched_accuracy` — each inside a span. This is the sequence
//! `pipeline::run_cell` performs; [`CellReplay::verify`] re-runs every
//! attacked cell through `run_cell` and refuses any bit of difference,
//! because a traced number from a different program measures nothing.

use crate::measure::Metrics;
use crate::trace::Tracer;
use poisongame::attack::AttackStrategy;
use poisongame::data::{DataView, PoisonedView};
use poisongame::defense::{Filter, FilterStrength};
use poisongame::linalg::Xoshiro256StarStar;
use poisongame::ml::batch::batched_accuracy;
use poisongame::ml::Classifier;
use poisongame::sim::pipeline::{run_cell, EvalOutcome, ExperimentConfig, Prepared};
use poisongame::sim::scenario::Scenario;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

pub fn err<E: std::fmt::Display>(e: E) -> String {
    e.to_string()
}

/// Data-level counts accumulated across threads and cells.
#[derive(Default)]
pub struct Counts {
    cells: AtomicU64,
    poison_points: AtomicU64,
    poison_removed: AtomicU64,
    genuine: AtomicU64,
    genuine_removed: AtomicU64,
    fit_row_updates: AtomicU64,
}

/// One attacked cell, kept for the `run_cell` cross-check.
struct Attacked {
    scenario: Scenario,
    placement: f64,
    theta: f64,
    rng_seed: u64,
    outcome: EvalOutcome,
}

pub struct CellReplay<'a> {
    tracer: &'a Tracer,
    counts: &'a Counts,
    config: &'a ExperimentConfig,
    prepared: &'a Prepared,
    attacked: Mutex<Vec<Attacked>>,
}

impl<'a> CellReplay<'a> {
    pub fn new(
        tracer: &'a Tracer,
        counts: &'a Counts,
        config: &'a ExperimentConfig,
        prepared: &'a Prepared,
    ) -> CellReplay<'a> {
        CellReplay {
            tracer,
            counts,
            config,
            prepared,
            attacked: Mutex::new(Vec::new()),
        }
    }

    /// Filter, fit and evaluate one (possibly poisoned) training set —
    /// `pipeline::filter_train_warm` followed by
    /// `TrainedCell::into_outcome`.
    fn filter_fit_eval(
        &self,
        parent: Option<u64>,
        scenario: &Scenario,
        train: &dyn DataView,
        injected: &[usize],
        theta: f64,
    ) -> Result<EvalOutcome, String> {
        let tr = self.tracer;
        let test = self.prepared.test();
        let filter: Box<dyn Filter> = scenario
            .defense
            .build(FilterStrength::RemoveFraction(theta), self.config.centroid)
            .map_err(err)?;
        let (outcome, kept) = tr.span("defense.split", parent, None, |_| {
            filter
                .split(train)
                .map(|outcome| {
                    let kept = outcome.kept_dataset(train);
                    (outcome, kept)
                })
                .map_err(err)
        })?;
        let mut model: Box<dyn Classifier> = scenario.learner.build(self.config.train_config());
        tr.span("ml.fit", parent, None, |_| model.fit(&kept))
            .map_err(err)?;
        let state = model
            .linear_state()
            .ok_or("every bundled learner exposes a linear state")?;
        let accuracy = tr
            .span("ml.eval", parent, None, |_| {
                batched_accuracy(test.features(), test.labels(), std::slice::from_ref(&state))
            })
            .map_err(err)?[0];
        let accounting = outcome.account(injected);
        let add = |counter: &AtomicU64, n: usize| {
            counter.fetch_add(n as u64, Ordering::Relaxed);
        };
        let c = self.counts;
        add(&c.cells, 1);
        add(&c.poison_points, injected.len());
        add(&c.poison_removed, accounting.poison_removed);
        add(
            &c.genuine,
            accounting.genuine_removed + accounting.genuine_kept,
        );
        add(&c.genuine_removed, accounting.genuine_removed);
        add(&c.fit_row_updates, kept.len() * self.config.epochs);
        Ok(EvalOutcome {
            accuracy,
            accounting,
            removed_fraction: outcome.removed_fraction(train),
        })
    }

    /// An unpoisoned cell at filter strength `theta`.
    pub fn clean(
        &self,
        parent: Option<u64>,
        scenario: &Scenario,
        theta: f64,
    ) -> Result<EvalOutcome, String> {
        self.tracer.span("bench.cell", parent, None, |cell| {
            self.filter_fit_eval(cell, scenario, self.prepared.train(), &[], theta)
        })
    }

    /// A poisoned cell: the attack at `placement` with its rng seeded
    /// from `rng_seed`, then filter at `theta`, fit and evaluate.
    pub fn attacked(
        &self,
        parent: Option<u64>,
        scenario: &Scenario,
        placement: f64,
        theta: f64,
        rng_seed: u64,
    ) -> Result<EvalOutcome, String> {
        let tr = self.tracer;
        let outcome = tr.span("bench.cell", parent, None, |cell| {
            let n_poison = self.prepared.n_poison;
            let attack: Box<dyn AttackStrategy> =
                scenario.attack.build(placement, n_poison).map_err(err)?;
            let mut rng = Xoshiro256StarStar::seed_from_u64(rng_seed);
            let poison = tr
                .span("attack.generate", cell, None, |_| {
                    attack.generate(self.prepared.train(), n_poison, &mut rng)
                })
                .map_err(err)?;
            let poisoned = PoisonedView::new(self.prepared.train(), poison).map_err(err)?;
            let injected: Vec<usize> = poisoned.appended_indices().collect();
            self.filter_fit_eval(cell, scenario, &poisoned, &injected, theta)
        })?;
        self.attacked
            .lock()
            .expect("cell list poisoned")
            .push(Attacked {
                scenario: scenario.clone(),
                placement,
                theta,
                rng_seed,
                outcome: outcome.clone(),
            });
        Ok(outcome)
    }

    /// Re-run every attacked cell through `pipeline::run_cell` and
    /// demand bit-identical outcomes. Returns the number checked.
    pub fn verify(&self) -> Result<usize, String> {
        let cells = self.attacked.lock().expect("cell list poisoned");
        for cell in cells.iter() {
            let mut rng = Xoshiro256StarStar::seed_from_u64(cell.rng_seed);
            let direct = run_cell(
                self.prepared,
                &cell.scenario,
                cell.placement,
                FilterStrength::RemoveFraction(cell.theta),
                self.config,
                &mut rng,
            )
            .map_err(err)?;
            if !same_bits(&direct, &cell.outcome) {
                return Err(format!(
                    "traced cell (placement {}, strength {}) diverged from run_cell: {:?} vs {:?}",
                    cell.placement, cell.theta, cell.outcome, direct
                ));
            }
        }
        Ok(cells.len())
    }
}

impl Counts {
    /// Attack, defense and ml metrics from the spans and counts.
    pub fn set_metrics(&self, tracer: &Tracer, m: &mut Metrics) {
        let self_ms = tracer.self_ms();
        let get = |name: &str| self_ms.get(name).copied().unwrap_or(0.0);
        let load = |a: &AtomicU64| a.load(Ordering::Relaxed) as f64;
        m.set("bench.cells", load(&self.cells));
        m.set("attack.generate_ms", get("attack.generate"));
        m.set("attack.poison_points", load(&self.poison_points));
        m.set("defense.split_ms", get("defense.split"));
        m.set(
            "defense.poison_caught_ratio",
            load(&self.poison_removed) / load(&self.poison_points).max(1.0),
        );
        m.set(
            "defense.clean_removed_ratio",
            load(&self.genuine_removed) / load(&self.genuine).max(1.0),
        );
        m.set("ml.fit_ms", get("ml.fit"));
        m.set("ml.fit_row_updates", load(&self.fit_row_updates));
        m.set("ml.eval_ms", get("ml.eval"));
    }
}

/// Bit-level equality of two outcomes.
pub fn same_bits(a: &EvalOutcome, b: &EvalOutcome) -> bool {
    a.accuracy.to_bits() == b.accuracy.to_bits()
        && a.removed_fraction.to_bits() == b.removed_fraction.to_bits()
        && a.accounting == b.accounting
}
