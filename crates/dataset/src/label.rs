//! Binary class labels.

use std::fmt;

/// Binary label for the spam-classification task.
///
/// `Positive` is the attacked class of interest (spam in Spambase);
/// `Negative` is the benign class (ham). Conversion to the `±1` signed
/// encoding used by hinge-loss learners is provided by
/// [`Label::to_signed`].
///
/// # Example
///
/// ```
/// use poisongame_data::Label;
///
/// assert_eq!(Label::Positive.to_signed(), 1.0);
/// assert_eq!(Label::Negative.to_signed(), -1.0);
/// assert_eq!(Label::Positive.flipped(), Label::Negative);
/// assert_eq!(Label::from_signed(-3.0), Label::Negative);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Label {
    /// The benign class (ham).
    #[default]
    Negative,
    /// The attacked class (spam).
    Positive,
}

impl Label {
    /// `+1.0` for positive, `-1.0` for negative.
    pub fn to_signed(self) -> f64 {
        match self {
            Label::Positive => 1.0,
            Label::Negative => -1.0,
        }
    }

    /// Positive iff the value is strictly greater than zero.
    pub fn from_signed(value: f64) -> Label {
        if value > 0.0 {
            Label::Positive
        } else {
            Label::Negative
        }
    }

    /// `1` / `0` encoding used in the Spambase CSV.
    pub fn to_bit(self) -> u8 {
        match self {
            Label::Positive => 1,
            Label::Negative => 0,
        }
    }

    /// Parse the `1` / `0` CSV encoding. Any non-zero is positive.
    pub fn from_bit(bit: u8) -> Label {
        if bit == 0 {
            Label::Negative
        } else {
            Label::Positive
        }
    }

    /// The other label.
    pub fn flipped(self) -> Label {
        match self {
            Label::Positive => Label::Negative,
            Label::Negative => Label::Positive,
        }
    }

    /// Both labels, in `[Negative, Positive]` order.
    pub fn both() -> [Label; 2] {
        [Label::Negative, Label::Positive]
    }
}

impl fmt::Display for Label {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Label::Positive => write!(f, "positive"),
            Label::Negative => write!(f, "negative"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn signed_round_trip() {
        for l in Label::both() {
            assert_eq!(Label::from_signed(l.to_signed()), l);
        }
        assert_eq!(Label::from_signed(0.0), Label::Negative);
        assert_eq!(Label::from_signed(0.5), Label::Positive);
    }

    #[test]
    fn bit_round_trip() {
        for l in Label::both() {
            assert_eq!(Label::from_bit(l.to_bit()), l);
        }
        assert_eq!(Label::from_bit(7), Label::Positive);
    }

    #[test]
    fn flip_is_involutive() {
        for l in Label::both() {
            assert_eq!(l.flipped().flipped(), l);
            assert_ne!(l.flipped(), l);
        }
    }

    #[test]
    fn display_and_default() {
        assert_eq!(Label::Positive.to_string(), "positive");
        assert_eq!(Label::default(), Label::Negative);
    }
}
