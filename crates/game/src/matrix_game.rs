//! Finite zero-sum games in payoff-matrix form.

use crate::error::GameError;
use crate::strategy::MixedStrategy;
use poisongame_linalg::{vector, Matrix};

/// A finite two-player zero-sum game.
///
/// Entry `(i, j)` is the payoff to the **row player (maximizer)** when
/// the row player plays `i` and the column player (minimizer) plays `j`.
///
/// # Example
///
/// ```
/// use poisongame_theory::MatrixGame;
///
/// // Matching pennies.
/// let g = MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap();
/// assert_eq!(g.shape(), (2, 2));
/// assert!(g.saddle_point().is_none()); // no pure equilibrium
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct MatrixGame {
    payoffs: Matrix,
}

impl MatrixGame {
    /// Build from a payoff matrix.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::InvalidPayoffs`] for an empty matrix or
    /// non-finite entries.
    pub fn new(payoffs: Matrix) -> Result<Self, GameError> {
        if payoffs.rows() == 0 || payoffs.cols() == 0 {
            return Err(GameError::InvalidPayoffs {
                message: "empty payoff matrix".into(),
            });
        }
        if !vector::all_finite(payoffs.as_slice()) {
            return Err(GameError::InvalidPayoffs {
                message: "non-finite payoff entry".into(),
            });
        }
        Ok(Self { payoffs })
    }

    /// Build from row vectors.
    ///
    /// # Errors
    ///
    /// Same as [`MatrixGame::new`], plus an error for ragged rows.
    pub fn from_rows(rows: &[Vec<f64>]) -> Result<Self, GameError> {
        let payoffs = Matrix::from_rows(rows).map_err(|e| GameError::InvalidPayoffs {
            message: e.to_string(),
        })?;
        Self::new(payoffs)
    }

    /// Build an `m × n` game from a payoff function.
    ///
    /// # Panics
    ///
    /// Panics if `m == 0` or `n == 0`, or if `f` returns a non-finite
    /// payoff.
    pub fn from_fn<F>(m: usize, n: usize, mut f: F) -> Self
    where
        F: FnMut(usize, usize) -> f64,
    {
        assert!(m > 0 && n > 0, "game must have actions for both players");
        let mut payoffs = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let v = f(i, j);
                assert!(v.is_finite(), "payoff ({i},{j}) is not finite");
                payoffs.set(i, j, v);
            }
        }
        Self { payoffs }
    }

    /// `(rows, cols)` — actions for row and column player.
    pub fn shape(&self) -> (usize, usize) {
        self.payoffs.shape()
    }

    /// Number of row-player actions.
    pub fn rows(&self) -> usize {
        self.payoffs.rows()
    }

    /// Number of column-player actions.
    pub fn cols(&self) -> usize {
        self.payoffs.cols()
    }

    /// Payoff entry `(i, j)`.
    ///
    /// # Panics
    ///
    /// Panics if out of bounds.
    pub fn payoff(&self, i: usize, j: usize) -> f64 {
        self.payoffs.get(i, j)
    }

    /// Borrow the payoff matrix.
    pub fn payoffs(&self) -> &Matrix {
        &self.payoffs
    }

    /// Expected payoff when row plays `x` and column plays `y`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::DimensionMismatch`] on size mismatch.
    pub fn expected_payoff(&self, x: &MixedStrategy, y: &MixedStrategy) -> Result<f64, GameError> {
        self.check_row(x)?;
        self.check_col(y)?;
        let mut total = 0.0;
        for i in 0..self.rows() {
            let xi = x.prob(i);
            if xi == 0.0 {
                continue;
            }
            total += xi * vector::dot(self.payoffs.row(i), y.probabilities());
        }
        Ok(total)
    }

    /// Expected payoff of each row action against column strategy `y`
    /// (the row player's response values).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::DimensionMismatch`] on size mismatch.
    pub fn row_values(&self, y: &MixedStrategy) -> Result<Vec<f64>, GameError> {
        self.check_col(y)?;
        Ok(self.payoffs.mul_vec(y.probabilities()))
    }

    /// Expected payoff of each column action against row strategy `x`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::DimensionMismatch`] on size mismatch.
    pub fn column_values(&self, x: &MixedStrategy) -> Result<Vec<f64>, GameError> {
        self.check_row(x)?;
        let mut out = vec![0.0; self.cols()];
        for i in 0..self.rows() {
            let xi = x.prob(i);
            if xi == 0.0 {
                continue;
            }
            vector::axpy(xi, self.payoffs.row(i), &mut out);
        }
        Ok(out)
    }

    /// [`MatrixGame::row_values`] against a plain probability slice —
    /// no [`MixedStrategy`] construction or renormalization. The
    /// per-round hot path of repeated-game simulation, where the
    /// opponent's strategy is already a validated learner state.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::DimensionMismatch`] on size mismatch.
    pub fn row_values_slice(&self, y: &[f64]) -> Result<Vec<f64>, GameError> {
        if y.len() != self.cols() {
            return Err(GameError::DimensionMismatch {
                expected: self.cols(),
                found: y.len(),
            });
        }
        Ok(self.payoffs.mul_vec(y))
    }

    /// [`MatrixGame::column_values`] against a plain probability slice
    /// (see [`MatrixGame::row_values_slice`]).
    ///
    /// # Errors
    ///
    /// Returns [`GameError::DimensionMismatch`] on size mismatch.
    pub fn column_values_slice(&self, x: &[f64]) -> Result<Vec<f64>, GameError> {
        if x.len() != self.rows() {
            return Err(GameError::DimensionMismatch {
                expected: self.rows(),
                found: x.len(),
            });
        }
        let mut out = vec![0.0; self.cols()];
        for (i, &xi) in x.iter().enumerate() {
            if xi == 0.0 {
                continue;
            }
            vector::axpy(xi, self.payoffs.row(i), &mut out);
        }
        Ok(out)
    }

    /// The row player's best pure response to `y`: `(action, value)`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::DimensionMismatch`] on size mismatch.
    pub fn best_row_response(&self, y: &MixedStrategy) -> Result<(usize, f64), GameError> {
        let values = self.row_values(y)?;
        let idx = vector::argmax(&values).expect("non-empty game");
        Ok((idx, values[idx]))
    }

    /// The column player's best pure response to `x`: `(action, value)`.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::DimensionMismatch`] on size mismatch.
    pub fn best_column_response(&self, x: &MixedStrategy) -> Result<(usize, f64), GameError> {
        let values = self.column_values(x)?;
        let idx = vector::argmin(&values).expect("non-empty game");
        Ok((idx, values[idx]))
    }

    /// The maximin value over pure strategies (row player's guaranteed
    /// payoff without mixing).
    pub fn pure_maximin(&self) -> f64 {
        (0..self.rows())
            .map(|i| {
                self.payoffs
                    .row(i)
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min)
            })
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// The minimax value over pure strategies (column player's
    /// guaranteed cap without mixing).
    pub fn pure_minimax(&self) -> f64 {
        (0..self.cols())
            .map(|j| {
                (0..self.rows())
                    .map(|i| self.payoff(i, j))
                    .fold(f64::NEG_INFINITY, f64::max)
            })
            .fold(f64::INFINITY, f64::min)
    }

    /// A pure-strategy Nash equilibrium (saddle point), if one exists:
    /// an entry that is simultaneously a row maximum of its column and
    /// a column minimum of its row.
    ///
    /// The paper's Proposition 1 asserts exactly the *absence* of such
    /// a point in the poisoning game; this method is the programmatic
    /// check used by the reproduction.
    pub fn saddle_point(&self) -> Option<(usize, usize)> {
        let tol = 1e-12;
        for i in 0..self.rows() {
            for j in 0..self.cols() {
                let v = self.payoff(i, j);
                let row_min = self
                    .payoffs
                    .row(i)
                    .iter()
                    .copied()
                    .fold(f64::INFINITY, f64::min);
                if v > row_min + tol {
                    continue;
                }
                let col_max = (0..self.rows())
                    .map(|r| self.payoff(r, j))
                    .fold(f64::NEG_INFINITY, f64::max);
                if v < col_max - tol {
                    continue;
                }
                return Some((i, j));
            }
        }
        None
    }

    /// Exploitability of a strategy pair: how much each side could gain
    /// by best-responding. Zero exactly at a Nash equilibrium; always
    /// non-negative.
    ///
    /// # Errors
    ///
    /// Returns [`GameError::DimensionMismatch`] on size mismatch.
    pub fn exploitability(&self, x: &MixedStrategy, y: &MixedStrategy) -> Result<f64, GameError> {
        let (_, row_br) = self.best_row_response(y)?;
        let (_, col_br) = self.best_column_response(x)?;
        // row_br >= value >= col_br at any pair; gap is the total gain
        // available to the two players.
        Ok(row_br - col_br)
    }

    /// Shift every payoff by a constant (does not change equilibria,
    /// shifts the value).
    pub fn shifted(&self, delta: f64) -> MatrixGame {
        let mut payoffs = self.payoffs.clone();
        for i in 0..payoffs.rows() {
            for v in payoffs.row_mut(i) {
                *v += delta;
            }
        }
        MatrixGame { payoffs }
    }

    /// Smallest payoff entry.
    pub fn min_payoff(&self) -> f64 {
        self.payoffs
            .as_slice()
            .iter()
            .copied()
            .fold(f64::INFINITY, f64::min)
    }

    /// Largest payoff entry.
    pub fn max_payoff(&self) -> f64 {
        self.payoffs
            .as_slice()
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max)
    }

    fn check_row(&self, x: &MixedStrategy) -> Result<(), GameError> {
        if x.len() != self.rows() {
            return Err(GameError::DimensionMismatch {
                expected: self.rows(),
                found: x.len(),
            });
        }
        Ok(())
    }

    fn check_col(&self, y: &MixedStrategy) -> Result<(), GameError> {
        if y.len() != self.cols() {
            return Err(GameError::DimensionMismatch {
                expected: self.cols(),
                found: y.len(),
            });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matching_pennies() -> MatrixGame {
        MatrixGame::from_rows(&[vec![1.0, -1.0], vec![-1.0, 1.0]]).unwrap()
    }

    fn with_saddle() -> MatrixGame {
        // Row 1 dominates; column 0 dominates. Saddle at (1, 0) = 2.
        MatrixGame::from_rows(&[vec![1.0, 3.0], vec![2.0, 4.0]]).unwrap()
    }

    #[test]
    fn construction_validates() {
        assert!(MatrixGame::new(Matrix::zeros(0, 2)).is_err());
        assert!(MatrixGame::from_rows(&[vec![f64::NAN]]).is_err());
        assert!(MatrixGame::from_rows(&[vec![1.0], vec![1.0, 2.0]]).is_err());
    }

    #[test]
    fn from_fn_builds_entries() {
        let g = MatrixGame::from_fn(2, 3, |i, j| (i * 10 + j) as f64);
        assert_eq!(g.payoff(1, 2), 12.0);
        assert_eq!(g.shape(), (2, 3));
    }

    #[test]
    fn expected_payoff_uniform_pennies_is_zero() {
        let g = matching_pennies();
        let u = MixedStrategy::uniform(2);
        assert!((g.expected_payoff(&u, &u).unwrap()).abs() < 1e-15);
    }

    #[test]
    fn expected_payoff_pure_matches_entry() {
        let g = with_saddle();
        let x = MixedStrategy::pure(1, 2);
        let y = MixedStrategy::pure(0, 2);
        assert_eq!(g.expected_payoff(&x, &y).unwrap(), 2.0);
    }

    #[test]
    fn dimension_checks() {
        let g = matching_pennies();
        let bad = MixedStrategy::uniform(3);
        assert!(g.expected_payoff(&bad, &MixedStrategy::uniform(2)).is_err());
        assert!(g.row_values(&bad).is_err());
        assert!(g.column_values(&bad).is_err());
    }

    #[test]
    fn best_responses() {
        let g = with_saddle();
        let y = MixedStrategy::uniform(2);
        let (i, v) = g.best_row_response(&y).unwrap();
        assert_eq!(i, 1);
        assert_eq!(v, 3.0);
        let x = MixedStrategy::uniform(2);
        let (j, w) = g.best_column_response(&x).unwrap();
        assert_eq!(j, 0);
        assert_eq!(w, 1.5);
    }

    #[test]
    fn slice_values_match_strategy_values() {
        let g = with_saddle();
        let y = MixedStrategy::new(vec![0.3, 0.7]).unwrap();
        let x = MixedStrategy::new(vec![0.6, 0.4]).unwrap();
        assert_eq!(
            g.row_values_slice(y.probabilities()).unwrap(),
            g.row_values(&y).unwrap()
        );
        assert_eq!(
            g.column_values_slice(x.probabilities()).unwrap(),
            g.column_values(&x).unwrap()
        );
        assert!(g.row_values_slice(&[1.0]).is_err());
        assert!(g.column_values_slice(&[1.0, 0.0, 0.0]).is_err());
    }

    #[test]
    fn saddle_point_found_when_it_exists() {
        assert_eq!(with_saddle().saddle_point(), Some((1, 0)));
        assert_eq!(matching_pennies().saddle_point(), None);
        assert_eq!(with_saddle().pure_maximin(), 2.0);
        assert_eq!(with_saddle().pure_minimax(), 2.0);
    }

    #[test]
    fn pure_bounds_straddle_for_pennies() {
        let g = matching_pennies();
        assert_eq!(g.pure_maximin(), -1.0);
        assert_eq!(g.pure_minimax(), 1.0);
        assert!(g.pure_maximin() <= g.pure_minimax());
    }

    #[test]
    fn exploitability_zero_at_equilibrium() {
        let g = matching_pennies();
        let u = MixedStrategy::uniform(2);
        assert!(g.exploitability(&u, &u).unwrap().abs() < 1e-12);
        // Pure vs pure in pennies is fully exploitable.
        let p = MixedStrategy::pure(0, 2);
        assert_eq!(g.exploitability(&p, &p).unwrap(), 2.0);
    }

    #[test]
    fn shift_preserves_equilibrium_structure() {
        let g = matching_pennies().shifted(5.0);
        let u = MixedStrategy::uniform(2);
        assert!((g.expected_payoff(&u, &u).unwrap() - 5.0).abs() < 1e-12);
        assert!(g.exploitability(&u, &u).unwrap().abs() < 1e-12);
        assert_eq!(g.min_payoff(), 4.0);
        assert_eq!(g.max_payoff(), 6.0);
    }
}
