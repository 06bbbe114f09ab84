//! Learning-rate schedules for stochastic gradient descent.

/// Learning-rate schedule evaluated at the (1-based) update counter.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Schedule {
    /// Fixed rate `eta0`.
    Constant {
        /// The fixed learning rate.
        eta0: f64,
    },
    /// `eta0 / t^power` — the classic Robbins–Monro family.
    InverseScaling {
        /// Initial learning rate.
        eta0: f64,
        /// Decay exponent (0.5–1.0 typical).
        power: f64,
    },
    /// `1 / (lambda · t)` — the Pegasos schedule, tied to the L2
    /// regularization strength.
    Pegasos {
        /// L2 regularization strength the schedule is coupled to.
        lambda: f64,
    },
}

impl Schedule {
    /// Learning rate at update `t` (1-based).
    ///
    /// # Panics
    ///
    /// Panics if `t == 0`.
    pub fn rate(&self, t: u64) -> f64 {
        assert!(t > 0, "update counter is 1-based");
        match *self {
            Schedule::Constant { eta0 } => eta0,
            Schedule::InverseScaling { eta0, power } => eta0 / (t as f64).powf(power),
            Schedule::Pegasos { lambda } => 1.0 / (lambda * t as f64),
        }
    }

    /// Whether every parameter of the schedule is positive and finite.
    pub fn is_valid(&self) -> bool {
        match *self {
            Schedule::Constant { eta0 } => eta0 > 0.0 && eta0.is_finite(),
            Schedule::InverseScaling { eta0, power } => {
                eta0 > 0.0 && eta0.is_finite() && power >= 0.0 && power.is_finite()
            }
            Schedule::Pegasos { lambda } => lambda > 0.0 && lambda.is_finite(),
        }
    }
}

impl Default for Schedule {
    /// Inverse scaling `0.5 / t^0.6` — stable across the workloads in
    /// this workspace. The Pegasos schedule is available for the
    /// textbook-faithful pairing with its regularizer, but with the
    /// small `lambda` used here it decays too slowly to converge in a
    /// few thousand epochs.
    fn default() -> Self {
        Schedule::InverseScaling {
            eta0: 0.5,
            power: 0.6,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_never_decays() {
        let s = Schedule::Constant { eta0: 0.1 };
        assert_eq!(s.rate(1), 0.1);
        assert_eq!(s.rate(1_000_000), 0.1);
    }

    #[test]
    fn inverse_scaling_decays() {
        let s = Schedule::InverseScaling {
            eta0: 1.0,
            power: 0.5,
        };
        assert_eq!(s.rate(1), 1.0);
        assert!((s.rate(4) - 0.5).abs() < 1e-12);
        assert!(s.rate(100) < s.rate(10));
    }

    #[test]
    fn pegasos_matches_formula() {
        let s = Schedule::Pegasos { lambda: 0.01 };
        assert!((s.rate(1) - 100.0).abs() < 1e-9);
        assert!((s.rate(10) - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "1-based")]
    fn zero_t_panics() {
        Schedule::Constant { eta0: 0.1 }.rate(0);
    }

    #[test]
    fn validity_checks() {
        assert!(Schedule::default().is_valid());
        assert!(!Schedule::Constant { eta0: 0.0 }.is_valid());
        assert!(!Schedule::Pegasos { lambda: -1.0 }.is_valid());
        assert!(!Schedule::InverseScaling {
            eta0: 1.0,
            power: f64::NAN
        }
        .is_valid());
    }
}
