//! Multiplicative weights (Hedge) self-play.
//!
//! Both players run the exponential-weights no-regret algorithm against
//! each other; the *average* strategy profile converges to a Nash
//! equilibrium of the zero-sum game at rate `O(√(ln k / T))`. Faster in
//! practice than fictitious play — included both as an ablation point
//! (bench `solver_comparison`) and as the solver `SolverKind::Auto`
//! picks for large discretizations.
//!
//! # One round, and who plays it
//!
//! A round is: each player turns its log-weights into a strategy
//! (softmax) and adds it to its running average; each player then
//! scores its actions against the opponent's strategy (the row player
//! earns `A·y`, the column player pays `xᵀA`) and steps its
//! log-weights. A player's step reads nothing of the opponent but its
//! strategy, so the two halves of a round run independently once the
//! strategies are swapped. Both payoff vectors come from one blocked
//! kernel, [`gemm::accumulate_rows`] — over `A` for the column player
//! and over `Aᵀ` (built once per solve) for the row player — into
//! preallocated buffers, so a round allocates nothing.
//!
//! Games with at least `AUTO_EXACT_LIMIT²` (128²) payoffs, on a host
//! with two or more hardware threads, play the two players on two
//! threads. The solve submits a 2-index batch to
//! [`WorkerPool::global`]; whoever claims first leads and starts
//! playing both players alone. When a second participant arrives, the
//! lead hands it the column player at the next round boundary; from
//! then on each thread plays one player, and once per round they swap
//! strategies through double-buffered atomic slots, waiting for each
//! other with a spin-then-yield barrier. If nobody arrives (a busy or
//! one-worker pool), the lead plays every round itself and the late
//! claimer returns at once, so the solve never waits on the pool. Each
//! player's arithmetic is the same whichever thread runs it, so the
//! result bits depend neither on the pool nor on the round the handoff
//! happened at.

use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::error::GameError;
use crate::matrix_game::MatrixGame;
use crate::solver::AUTO_EXACT_LIMIT;
use crate::strategy::{MixedStrategy, Solution};
use poisongame_exec::{hardware_threads, WorkerPool};
use poisongame_linalg::{gemm, vector, Matrix};

/// Payoff-matrix size (`m·n`) from which a solve plays its two players
/// on two threads. Below it a round is too short to pay for the
/// per-round strategy swap.
const SPLIT_MIN_ENTRIES: usize = AUTO_EXACT_LIMIT * AUTO_EXACT_LIMIT;

/// Busy-wait iterations before a waiting player starts yielding its
/// core. A balanced round leaves the partner a few hundred nanoseconds
/// behind, well inside the spin.
const SPIN_LIMIT: u32 = 1 << 12;

/// Configuration for [`solve_multiplicative_weights`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultiplicativeWeightsConfig {
    /// Number of self-play rounds.
    pub iterations: usize,
    /// Step size; when `None` the theory-optimal
    /// `√(8 ln k / T) / range` is used.
    pub eta: Option<f64>,
}

impl Default for MultiplicativeWeightsConfig {
    fn default() -> Self {
        Self {
            iterations: 20_000,
            eta: None,
        }
    }
}

/// Run Hedge vs Hedge and return the averaged strategies.
///
/// Large games (`AUTO_EXACT_LIMIT²` payoffs or more) play their two
/// players on two threads when the shared worker pool can spare one
/// (see the module docs); the result is bit-identical either way.
///
/// # Errors
///
/// Returns [`GameError::InvalidPayoffs`] for a constant game with zero
/// payoff range only if weight normalization fails (cannot happen for
/// finite inputs); propagates strategy-construction errors otherwise.
///
/// # Example
///
/// ```
/// use poisongame_theory::{solve_multiplicative_weights, MultiplicativeWeightsConfig, MatrixGame};
///
/// let pennies = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
/// let sol = solve_multiplicative_weights(&pennies, &MultiplicativeWeightsConfig::default()).unwrap();
/// assert!(sol.value.abs() < 0.02);
/// ```
pub fn solve_multiplicative_weights(
    game: &MatrixGame,
    config: &MultiplicativeWeightsConfig,
) -> Result<Solution, GameError> {
    solve_on(game, config, WorkerPool::global())
}

/// [`solve_multiplicative_weights`] drawing its second thread from
/// `pool`.
fn solve_on(
    game: &MatrixGame,
    config: &MultiplicativeWeightsConfig,
    pool: &WorkerPool,
) -> Result<Solution, GameError> {
    let hedge = Hedge::new(game, config);
    let (m, n) = game.shape();
    let (row, col) = if m * n >= SPLIT_MIN_ENTRIES && hardware_threads() >= 2 {
        let split = Split::new(&hedge, None);
        pool.run(2, 2, &|_| split.participate());
        split.into_players()
    } else {
        hedge.play_alone()
    };
    hedge.finish(game, row, col)
}

/// What every round of one solve reads.
struct Hedge<'a> {
    /// `A`: the column player's payoff rows (one per row action).
    payoffs: &'a Matrix,
    /// `Aᵀ`: the row player's payoff rows (one per column action).
    transposed: Matrix,
    eta: f64,
    rounds: usize,
}

impl<'a> Hedge<'a> {
    fn new(game: &'a MatrixGame, config: &MultiplicativeWeightsConfig) -> Self {
        let (m, n) = game.shape();
        let rounds = config.iterations.max(1);
        let range = (game.max_payoff() - game.min_payoff()).max(1e-12);
        let eta = config.eta.unwrap_or_else(|| {
            let k = m.max(n) as f64;
            (8.0 * k.ln().max(1.0) / rounds as f64).sqrt() / range
        });
        Self {
            payoffs: game.payoffs(),
            transposed: game.payoffs().transpose(),
            eta,
            rounds,
        }
    }

    /// Every round with both players on the calling thread.
    fn play_alone(&self) -> (Player, Player) {
        let (m, n) = self.payoffs.shape();
        let (mut row, mut col) = (Player::new(m, true), Player::new(n, false));
        for _ in 0..self.rounds {
            self.round(&mut row, &mut col);
        }
        (row, col)
    }

    /// One round with both players on the calling thread.
    fn round(&self, row: &mut Player, col: &mut Player) {
        row.play();
        col.play();
        row.learn(&self.transposed, &col.strategy, self.eta);
        col.learn(self.payoffs, &row.strategy, self.eta);
    }

    fn finish(&self, game: &MatrixGame, row: Player, col: Player) -> Result<Solution, GameError> {
        let row_strategy = MixedStrategy::from_weights(row.avg)?;
        let column_strategy = MixedStrategy::from_weights(col.avg)?;
        let value = game.expected_payoff(&row_strategy, &column_strategy)?;
        Ok(Solution {
            row_strategy,
            column_strategy,
            value,
            iterations: self.rounds,
        })
    }
}

/// One Hedge learner. `strategy` and `payoffs` are per-round scratch,
/// allocated once per solve.
struct Player {
    /// Log-space weights, for numerical stability.
    log: Vec<f64>,
    /// Sum of the strategies played so far.
    avg: Vec<f64>,
    /// This round's strategy.
    strategy: Vec<f64>,
    /// This round's payoff per action.
    payoffs: Vec<f64>,
    /// The row player maximizes its payoff, the column player
    /// minimizes it.
    maximizes: bool,
}

impl Player {
    fn new(actions: usize, maximizes: bool) -> Self {
        Self {
            log: vec![0.0; actions],
            avg: vec![0.0; actions],
            strategy: vec![0.0; actions],
            payoffs: vec![0.0; actions],
            maximizes,
        }
    }

    /// Pick this round's strategy and add it to the average.
    fn play(&mut self) {
        softmax_into(&self.log, &mut self.strategy);
        vector::axpy(1.0, &self.strategy, &mut self.avg);
    }

    /// Score every action against `opponent` — `payoff_rows` holds one
    /// row of this player's payoffs per opponent action — and take the
    /// multiplicative step.
    fn learn(&mut self, payoff_rows: &Matrix, opponent: &[f64], eta: f64) {
        self.payoffs.fill(0.0);
        gemm::accumulate_rows(opponent, payoff_rows, &mut self.payoffs)
            .expect("player and payoff shapes are fixed per solve");
        if self.maximizes {
            for (log, payoff) in self.log.iter_mut().zip(&self.payoffs) {
                *log += eta * payoff;
            }
        } else {
            for (log, payoff) in self.log.iter_mut().zip(&self.payoffs) {
                *log -= eta * payoff;
            }
        }
        // Keep log-weights bounded.
        if vector::norm_inf(&self.log) > 500.0 {
            let shift = self.log.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            for v in &mut self.log {
                *v -= shift;
            }
        }
    }
}

/// `Split::handoff` before the lead has handed anything over.
const PENDING: usize = usize::MAX;
/// `Split::handoff` once the lead has played every round alone.
const FINISHED: usize = usize::MAX - 1;

/// One player's outbox: its strategy of round `t` in buffer `t % 2`,
/// and the number of rounds it has posted. Two buffers suffice because
/// a player posts round `t + 2` only after fetching the opponent's
/// round `t + 1`, which the opponent posts only after it has read
/// round `t`.
struct Outbox {
    slots: Vec<AtomicU64>,
    posted: AtomicUsize,
}

impl Outbox {
    fn new(actions: usize) -> Self {
        Self {
            slots: (0..2 * actions).map(|_| AtomicU64::new(0)).collect(),
            posted: AtomicUsize::new(0),
        }
    }

    fn buffer(&self, round: usize) -> &[AtomicU64] {
        let width = self.slots.len() / 2;
        let start = (round % 2) * width;
        &self.slots[start..start + width]
    }

    fn post(&self, round: usize, strategy: &[f64]) {
        for (slot, v) in self.buffer(round).iter().zip(strategy) {
            slot.store(v.to_bits(), Ordering::Relaxed);
        }
        // Release: the slot stores above are visible to whoever
        // acquires this count.
        self.posted.store(round + 1, Ordering::Release);
    }

    /// Copy the strategy of `round` into `out` once it is posted;
    /// `false` if the partner abandoned the solve first.
    fn fetch(&self, round: usize, out: &mut [f64], abandoned: &AtomicBool) -> bool {
        if !await_partner(abandoned, || self.posted.load(Ordering::Acquire) > round) {
            return false;
        }
        for (v, slot) in out.iter_mut().zip(self.buffer(round)) {
            *v = f64::from_bits(slot.load(Ordering::Relaxed));
        }
        true
    }
}

/// Spin, then yield, until `ready()` holds. `false` if the partner
/// abandoned the solve first.
fn await_partner(abandoned: &AtomicBool, mut ready: impl FnMut() -> bool) -> bool {
    let mut spins = 0;
    while !ready() {
        if abandoned.load(Ordering::Acquire) {
            return false;
        }
        if spins < SPIN_LIMIT {
            spins += 1;
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }
    true
}

/// Marks the solve abandoned if its holder unwinds, so a partner
/// waiting on it returns instead of spinning forever.
struct AbandonOnPanic<'a>(&'a AtomicBool);

impl Drop for AbandonOnPanic<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.0.store(true, Ordering::Release);
        }
    }
}

/// Shared state of one solve whose players may split across two
/// threads.
struct Split<'h, 'g> {
    hedge: &'h Hedge<'g>,
    /// `None`: hand the column player over as soon as a helper waits.
    /// `Some(h)`: hand it over exactly at round `h`, waiting for the
    /// helper there (tests pin the handoff round with this).
    handoff_at: Option<usize>,
    /// Participants so far; the first leads.
    arrivals: AtomicUsize,
    /// A helper is waiting for the column player.
    helper_waiting: AtomicBool,
    /// [`PENDING`], [`FINISHED`], or the round the column player was
    /// handed over at. Stored with Release after the lead has put the
    /// column player back in its slot; the helper loads it with
    /// Acquire.
    handoff: AtomicUsize,
    /// Set when either participant panics.
    abandoned: AtomicBool,
    /// The players between turns: both before the lead takes them,
    /// the column player during the handoff, both again at the end.
    row: Mutex<Option<Player>>,
    col: Mutex<Option<Player>>,
    /// Row strategies, posted by whoever plays the row player.
    row_out: Outbox,
    /// Column strategies, posted by whoever plays the column player.
    col_out: Outbox,
}

impl<'h, 'g> Split<'h, 'g> {
    fn new(hedge: &'h Hedge<'g>, handoff_at: Option<usize>) -> Self {
        let (m, n) = hedge.payoffs.shape();
        Self {
            hedge,
            handoff_at,
            arrivals: AtomicUsize::new(0),
            helper_waiting: AtomicBool::new(false),
            handoff: AtomicUsize::new(PENDING),
            abandoned: AtomicBool::new(false),
            row: Mutex::new(Some(Player::new(m, true))),
            col: Mutex::new(Some(Player::new(n, false))),
            row_out: Outbox::new(m),
            col_out: Outbox::new(n),
        }
    }

    /// The body of both batch indices: the first caller leads, the
    /// second helps.
    fn participate(&self) {
        let _guard = AbandonOnPanic(&self.abandoned);
        match self.arrivals.fetch_add(1, Ordering::AcqRel) {
            0 => self.lead(),
            _ => self.help(),
        }
    }

    fn lead(&self) {
        let mut row = take(&self.row);
        let mut col = take(&self.col);
        let mut t = 0;
        while t < self.hedge.rounds && !self.hand_over_at(t) {
            self.hedge.round(&mut row, &mut col);
            t += 1;
        }
        put(&self.col, col);
        if t == self.hedge.rounds {
            self.handoff.store(FINISHED, Ordering::Release);
        } else {
            self.handoff.store(t, Ordering::Release);
            let rows = &self.hedge.transposed;
            if !self.play_from(t, &mut row, rows, &self.row_out, &self.col_out) {
                return;
            }
        }
        put(&self.row, row);
    }

    /// Whether the lead hands the column player over before round `t`.
    fn hand_over_at(&self, t: usize) -> bool {
        match self.handoff_at {
            None => self.helper_waiting.load(Ordering::Acquire),
            Some(h) => {
                t == h
                    && await_partner(&self.abandoned, || {
                        self.helper_waiting.load(Ordering::Acquire)
                    })
            }
        }
    }

    fn help(&self) {
        self.helper_waiting.store(true, Ordering::Release);
        let mut handoff = PENDING;
        let ready = || {
            handoff = self.handoff.load(Ordering::Acquire);
            handoff != PENDING
        };
        if !await_partner(&self.abandoned, ready) || handoff == FINISHED {
            return;
        }
        let mut col = take(&self.col);
        let rows = self.hedge.payoffs;
        if self.play_from(handoff, &mut col, rows, &self.col_out, &self.row_out) {
            put(&self.col, col);
        }
    }

    /// Play `me` from round `start` to the end, swapping strategies
    /// with the other thread every round. `false` if the partner
    /// abandoned the solve.
    fn play_from(
        &self,
        start: usize,
        me: &mut Player,
        payoff_rows: &Matrix,
        mine: &Outbox,
        theirs: &Outbox,
    ) -> bool {
        let mut opponent = vec![0.0; payoff_rows.rows()];
        for t in start..self.hedge.rounds {
            me.play();
            mine.post(t, &me.strategy);
            if !theirs.fetch(t, &mut opponent, &self.abandoned) {
                return false;
            }
            me.learn(payoff_rows, &opponent, self.hedge.eta);
        }
        true
    }

    fn into_players(self) -> (Player, Player) {
        (take(&self.row), take(&self.col))
    }
}

fn take(slot: &Mutex<Option<Player>>) -> Player {
    slot.lock()
        .expect("player slot poisoned")
        .take()
        .expect("player is in its slot")
}

fn put(slot: &Mutex<Option<Player>>, player: Player) {
    *slot.lock().expect("player slot poisoned") = Some(player);
}

/// Numerically stable softmax: the probability distribution
/// proportional to `exp(log_weights)`. Used by the online Hedge
/// learner in `poisongame-online`; the batch solver above writes the
/// same values into its own buffers.
pub fn softmax(log_weights: &[f64]) -> Vec<f64> {
    let mut out = vec![0.0; log_weights.len()];
    softmax_into(log_weights, &mut out);
    out
}

/// [`softmax`] into a caller-owned buffer, bit-identical to it.
///
/// # Panics
///
/// Panics if `out.len() != log_weights.len()`.
pub(crate) fn softmax_into(log_weights: &[f64], out: &mut [f64]) {
    assert_eq!(
        log_weights.len(),
        out.len(),
        "softmax_into: dimension mismatch"
    );
    let max = log_weights
        .iter()
        .copied()
        .fold(f64::NEG_INFINITY, f64::max);
    for (e, &w) in out.iter_mut().zip(log_weights) {
        *e = (w - max).exp();
    }
    let sum: f64 = out.iter().sum();
    for e in out.iter_mut() {
        *e /= sum;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex::solve_lp;
    use poisongame_linalg::Xoshiro256StarStar;
    use rand::SeedableRng;

    fn random_game(seed: u64, m: usize, n: usize) -> MatrixGame {
        let mut rng = Xoshiro256StarStar::seed_from_u64(seed);
        MatrixGame::from_fn(m, n, |_, _| rng.next_f64() * 4.0 - 2.0)
    }

    fn bits(solution: &Solution) -> (Vec<u64>, Vec<u64>, u64) {
        let words = |s: &MixedStrategy| s.probabilities().iter().map(|p| p.to_bits()).collect();
        (
            words(&solution.row_strategy),
            words(&solution.column_strategy),
            solution.value.to_bits(),
        )
    }

    fn sequential(game: &MatrixGame, config: &MultiplicativeWeightsConfig) -> Solution {
        let hedge = Hedge::new(game, config);
        let (row, col) = hedge.play_alone();
        hedge.finish(game, row, col).unwrap()
    }

    /// Two threads, the column player handed over exactly at round
    /// `handoff` (never, if that is past the last round).
    fn split_at(
        game: &MatrixGame,
        config: &MultiplicativeWeightsConfig,
        handoff: usize,
    ) -> Solution {
        let hedge = Hedge::new(game, config);
        let split = Split::new(&hedge, Some(handoff));
        std::thread::scope(|s| {
            s.spawn(|| split.participate());
            split.participate();
        });
        let (row, col) = split.into_players();
        hedge.finish(game, row, col).unwrap()
    }

    /// A large game, and the same game with a step so large that many
    /// strategy entries underflow to zero or go subnormal.
    fn split_cases() -> Vec<(MatrixGame, MultiplicativeWeightsConfig)> {
        let game = random_game(0x5B11, 151, 150);
        vec![
            (
                game.clone(),
                MultiplicativeWeightsConfig {
                    iterations: 120,
                    eta: None,
                },
            ),
            (
                game,
                MultiplicativeWeightsConfig {
                    iterations: 120,
                    eta: Some(40.0),
                },
            ),
        ]
    }

    #[test]
    fn split_play_is_bit_identical_at_every_handoff_round() {
        for (game, config) in split_cases() {
            let reference = bits(&sequential(&game, &config));
            let rounds = config.iterations;
            for handoff in [0, 1, rounds / 2, rounds - 1, rounds] {
                let split = bits(&split_at(&game, &config, handoff));
                assert!(split == reference, "handoff at round {handoff} of {rounds}");
            }
        }
    }

    #[test]
    fn pool_split_is_bit_identical_to_sequential_play() {
        let pool = WorkerPool::new(2);
        for (game, config) in split_cases() {
            let pooled = solve_on(&game, &config, &pool).unwrap();
            assert!(bits(&pooled) == bits(&sequential(&game, &config)));
        }
        pool.shutdown();
    }

    #[test]
    fn solve_completes_inside_a_task_while_every_worker_is_busy() {
        let pool = WorkerPool::new(1);
        let (game, config) = split_cases().swap_remove(0);
        let done = AtomicBool::new(false);
        let solved = Mutex::new(None);
        // Index 0 solves; index 1 keeps its thread (the pool's only
        // worker, or the submitter) busy until the solve is done.
        pool.run(2, 2, &|i| {
            if i == 0 {
                *solved.lock().unwrap() = Some(solve_on(&game, &config, &pool).unwrap());
                done.store(true, Ordering::Release);
            } else {
                while !done.load(Ordering::Acquire) {
                    std::thread::yield_now();
                }
            }
        });
        let solved = solved.into_inner().unwrap().expect("solve ran");
        assert!(bits(&solved) == bits(&sequential(&game, &config)));
        pool.shutdown();
    }

    #[test]
    fn only_large_games_submit_a_pool_batch() {
        let pool = WorkerPool::new(2);
        let small = random_game(0x5A11, 24, 17);
        let config = MultiplicativeWeightsConfig {
            iterations: 50,
            eta: None,
        };
        solve_on(&small, &config, &pool).unwrap();
        assert_eq!(pool.stats().batches, 0, "below the threshold");
        let (large, config) = split_cases().swap_remove(0);
        solve_on(&large, &config, &pool).unwrap();
        let expected = u64::from(hardware_threads() >= 2);
        assert_eq!(pool.stats().batches, expected, "above the threshold");
        pool.shutdown();
    }

    #[test]
    fn a_panicking_partner_releases_the_waiting_one() {
        let abandoned = AtomicBool::new(false);
        std::thread::scope(|s| {
            let partner = s.spawn(|| {
                let _guard = AbandonOnPanic(&abandoned);
                panic!("partner failed mid-round");
            });
            // Never ready: only the guard can end this wait.
            assert!(!await_partner(&abandoned, || false));
            assert!(partner.join().is_err());
        });
        // A guard dropped without a panic leaves the solve alone.
        let fine = AtomicBool::new(false);
        drop(AbandonOnPanic(&fine));
        assert!(!fine.load(Ordering::Acquire));
    }

    #[test]
    fn softmax_into_matches_softmax() {
        let mut rng = Xoshiro256StarStar::seed_from_u64(0x50F7);
        for len in [1, 2, 7, 151] {
            let log: Vec<f64> = (0..len).map(|_| rng.next_f64() * 1500.0 - 750.0).collect();
            let mut out = vec![f64::NAN; len];
            softmax_into(&log, &mut out);
            // The allocating formula: exps, their sum, then divide.
            let max = log.iter().copied().fold(f64::NEG_INFINITY, f64::max);
            let exps: Vec<f64> = log.iter().map(|&w| (w - max).exp()).collect();
            let sum: f64 = exps.iter().sum();
            let expected: Vec<u64> = exps.iter().map(|e| (e / sum).to_bits()).collect();
            let got: Vec<u64> = out.iter().map(|p| p.to_bits()).collect();
            assert_eq!(got, expected, "length {len}");
            let wrapped: Vec<u64> = softmax(&log).iter().map(|p| p.to_bits()).collect();
            assert_eq!(wrapped, expected, "length {len}");
        }
    }

    #[test]
    fn softmax_is_a_distribution() {
        let p = softmax(&[0.0, 1.0, -1.0]);
        let sum: f64 = p.iter().sum();
        assert!((sum - 1.0).abs() < 1e-12);
        assert!(p[1] > p[0] && p[0] > p[2]);
        // Stable under huge inputs.
        let p = softmax(&[1e8, 1e8 + 1.0]);
        assert!(p.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn pennies_value_near_zero() {
        let g = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let sol =
            solve_multiplicative_weights(&g, &MultiplicativeWeightsConfig::default()).unwrap();
        assert!(sol.value.abs() < 0.02, "value {}", sol.value);
        let expl = g
            .exploitability(&sol.row_strategy, &sol.column_strategy)
            .unwrap();
        assert!(expl < 0.1, "exploitability {expl}");
    }

    #[test]
    fn rps_close_to_uniform() {
        let g = MatrixGame::from_rows(&[
            vec![0.0, -1.0, 1.0],
            vec![1.0, 0.0, -1.0],
            vec![-1.0, 1.0, 0.0],
        ])
        .unwrap();
        let sol =
            solve_multiplicative_weights(&g, &MultiplicativeWeightsConfig::default()).unwrap();
        for p in sol.row_strategy.probabilities() {
            assert!((p - 1.0 / 3.0).abs() < 0.05, "prob {p}");
        }
    }

    #[test]
    fn value_matches_lp_on_random_game() {
        use poisongame_linalg::Xoshiro256StarStar;
        use rand::SeedableRng;
        let mut rng = Xoshiro256StarStar::seed_from_u64(101);
        let g = MatrixGame::from_fn(5, 6, |_, _| rng.next_f64() * 4.0 - 2.0);
        let lp = solve_lp(&g).unwrap();
        let mw = solve_multiplicative_weights(&g, &MultiplicativeWeightsConfig::default()).unwrap();
        assert!(
            (lp.value - mw.value).abs() < 0.05,
            "lp {} mw {}",
            lp.value,
            mw.value
        );
    }

    #[test]
    fn saddle_game_concentrates_on_the_saddle() {
        // Row 1 dominates row 0 and column 0 dominates column 1, so
        // the unique equilibrium is the pure saddle (1, 0), value 2.
        let g = MatrixGame::from_rows(&[vec![1.0, 3.0], vec![2.0, 4.0]]).unwrap();
        let sol =
            solve_multiplicative_weights(&g, &MultiplicativeWeightsConfig::default()).unwrap();
        assert!((sol.value - 2.0).abs() < 0.02, "value {}", sol.value);
        assert!(sol.row_strategy.prob(1) > 0.98);
        assert!(sol.column_strategy.prob(0) > 0.98);
    }

    #[test]
    fn custom_eta_still_converges() {
        let g = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
        let cfg = MultiplicativeWeightsConfig {
            iterations: 30_000,
            eta: Some(0.05),
        };
        let sol = solve_multiplicative_weights(&g, &cfg).unwrap();
        assert!(sol.value.abs() < 0.05);
    }

    #[test]
    fn single_action_game() {
        let g = MatrixGame::from_rows(&[vec![3.0]]).unwrap();
        let sol = solve_multiplicative_weights(
            &g,
            &MultiplicativeWeightsConfig {
                iterations: 10,
                eta: None,
            },
        )
        .unwrap();
        assert!((sol.value - 3.0).abs() < 1e-12);
        assert!(sol.row_strategy.is_pure());
    }
}
