//! Dataset abstractions for the poisoning-game reproduction.
//!
//! Provides the [`Dataset`] container (dense features + binary labels),
//! CSV output in the UCI Spambase layout, seeded train/test
//! splitting, feature scaling, and — because the UCI file cannot be
//! downloaded in the build environment — a synthetic generator that
//! reproduces the Spambase schema and its statistical regime (see
//! `DESIGN.md`, substitution table).
//!
//! # Example
//!
//! ```
//! use poisongame_data::synth::{spambase_like, SpambaseConfig};
//! use poisongame_data::split::train_test_split;
//! use poisongame_linalg::Xoshiro256StarStar;
//! use rand::SeedableRng;
//!
//! let mut rng = Xoshiro256StarStar::seed_from_u64(7);
//! let data = spambase_like(&SpambaseConfig::default(), &mut rng);
//! assert_eq!(data.len(), 4601);
//! assert_eq!(data.dim(), 57);
//! let (train, test) = train_test_split(&data, 0.3, &mut rng).unwrap();
//! assert_eq!(train.len() + test.len(), 4601);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod cache;
pub mod csv;
pub mod dataset;
pub mod error;
pub mod label;
pub mod scale;
pub mod split;
pub mod synth;
pub mod view;

pub use cache::{CacheStats, ContentHash, PrepCache};
pub use dataset::Dataset;
pub use error::DataError;
pub use label::Label;
pub use view::{DataView, PoisonedView};
