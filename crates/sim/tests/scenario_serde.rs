//! Round-trip coverage for the scenario-spec surface: every spec
//! variant survives JSON → struct → JSON through the workspace's own
//! `jsonio` wire format, and a config that never mentions a scenario
//! (or any other defaulted field) parses to the paper defaults.

use poisongame_core::SolverKind;
use poisongame_defense::CentroidEstimator;
use poisongame_ml::FitKernel;
use poisongame_sim::jsonio::Json;
use poisongame_sim::pipeline::{DataSource, ExperimentConfig};
use poisongame_sim::scenario::{AttackSpec, DefenseSpec, LearnerSpec, Scenario, ScenarioMatrix};

fn all_attacks() -> Vec<AttackSpec> {
    vec![
        AttackSpec::Boundary,
        AttackSpec::MixedRadius {
            offsets: vec![0.0, 0.1, 0.25],
            weights: vec![0.5, 0.3, 0.2],
        },
        AttackSpec::LabelFlip,
        AttackSpec::RandomNoise,
    ]
}

fn all_defenses() -> Vec<DefenseSpec> {
    vec![
        DefenseSpec::Radius,
        DefenseSpec::Knn { k: 7 },
        DefenseSpec::Slab,
    ]
}

fn all_learners() -> Vec<LearnerSpec> {
    vec![
        LearnerSpec::Svm,
        LearnerSpec::Perceptron,
        LearnerSpec::LogReg,
    ]
}

#[test]
fn every_scenario_triple_round_trips() {
    for attack in all_attacks() {
        for defense in all_defenses() {
            for learner in all_learners() {
                let scenario = Scenario {
                    attack: attack.clone(),
                    defense,
                    learner,
                };
                let json = scenario.to_json_string();
                let back = Scenario::from_json_str(&json).unwrap_or_else(|e| panic!("{json}: {e}"));
                assert_eq!(back, scenario, "{json}");
                // And the rendered form itself is stable (struct →
                // JSON → struct → JSON).
                assert_eq!(back.to_json_string(), json);
            }
        }
    }
}

#[test]
fn scenario_fields_default_to_the_paper_triple() {
    assert_eq!(Scenario::from_json_str("{}").unwrap(), Scenario::paper());
    let partial = Scenario::from_json_str(r#"{"learner": {"type": "logreg"}}"#).unwrap();
    assert_eq!(partial.attack, AttackSpec::Boundary);
    assert_eq!(partial.defense, DefenseSpec::Radius);
    assert_eq!(partial.learner, LearnerSpec::LogReg);
}

#[test]
fn scenario_rejects_malformed_specs() {
    for bad in [
        "[]",
        r#"{"atack": {"type": "label_flip"}}"#,
        r#"{"attack": {"type": "zero_day"}}"#,
        r#"{"attack": {}}"#,
        r#"{"defense": {"type": "knn"}}"#,
        r#"{"defense": {"type": "knn", "k": 2.5}}"#,
        r#"{"learner": {"type": "transformer"}}"#,
        r#"{"attack": {"type": "mixed_radius", "offsets": [0.1]}}"#,
        r#"{"attack": {"type": "mixed_radius", "offsets": [0.1], "weights": ["x"]}}"#,
        "{not json",
        // Unknown keys inside a spec are dropped parameters, not noise:
        // boundary would silently ignore the mixture the author wrote.
        r#"{"attack": {"type": "boundary", "offsets": [0.3], "weights": [1.0]}}"#,
        r#"{"defense": {"type": "knn", "k": 3, "kk": 5}}"#,
        r#"{"learner": {"type": "svm", "epochs": 100}}"#,
    ] {
        assert!(Scenario::from_json_str(bad).is_err(), "accepted: {bad}");
    }
}

#[test]
fn matrix_round_trips_and_defaults_cell_parameters() {
    let matrix = ScenarioMatrix {
        attacks: all_attacks(),
        defenses: all_defenses(),
        learners: all_learners(),
        strength: 0.2,
        placement_slack: 0.02,
    };
    let json = matrix.to_json_string();
    assert_eq!(ScenarioMatrix::from_json_str(&json).unwrap(), matrix);

    // strength / placement_slack are optional.
    let sparse = ScenarioMatrix::from_json_str(
        r#"{"attacks": [{"type": "boundary"}],
            "defenses": [{"type": "radius"}],
            "learners": [{"type": "svm"}]}"#,
    )
    .unwrap();
    assert_eq!(sparse.strength, 0.15);
    assert_eq!(sparse.placement_slack, 0.01);
    assert_eq!(sparse.len(), 1);

    // The axes are not.
    assert!(ScenarioMatrix::from_json_str(r#"{"attacks": []}"#).is_err());

    // Typo'd or wrongly-typed keys are errors, never silent defaults.
    let axes = r#""attacks": [{"type": "boundary"}],
                   "defenses": [{"type": "radius"}],
                   "learners": [{"type": "svm"}]"#;
    for bad in [
        format!(r#"{{{axes}, "strenght": 0.3}}"#),
        format!(r#"{{{axes}, "strength": "0.3"}}"#),
        format!(r#"{{{axes}, "placement_slack": true}}"#),
    ] {
        assert!(
            ScenarioMatrix::from_json_str(&bad).is_err(),
            "accepted: {bad}"
        );
    }
}

#[test]
fn config_seed_beyond_2_53_round_trips_exactly() {
    // A JSON f64 number cannot carry a full u64 seed; the string form
    // must round-trip it bit-exactly.
    let config = ExperimentConfig {
        seed: 0x9E37_79B9_7F4A_7C15,
        ..ExperimentConfig::paper()
    };
    let json = config.to_json_string();
    assert!(json.contains("\"11400714819323198485\""), "{json}");
    let back = ExperimentConfig::from_json_str(&json).unwrap();
    assert_eq!(back.seed, config.seed);
    assert_eq!(back, config);
    // The string form is also accepted for small seeds.
    assert_eq!(
        ExperimentConfig::from_json_str(r#"{"seed": "42"}"#)
            .unwrap()
            .seed,
        42
    );
}

#[test]
fn config_round_trips_with_every_field() {
    let config = ExperimentConfig {
        seed: 987_654_321,
        source: DataSource::Blobs {
            per_class: 120,
            dim: 4,
            offset: 3.0,
            sigma: 0.6,
        },
        test_fraction: 0.25,
        budget_fraction: 0.15,
        epochs: 123,
        centroid: CentroidEstimator::TrimmedMean { trim: 0.1 },
        solver: SolverKind::FictitiousPlay,
        warm_start: true,
        fit_kernel: FitKernel::Minibatch { batch: 64 },
        scenario: Scenario {
            attack: AttackSpec::LabelFlip,
            defense: DefenseSpec::Knn { k: 5 },
            learner: LearnerSpec::Perceptron,
        },
    };
    let json = config.to_json_string();
    assert_eq!(ExperimentConfig::from_json_str(&json).unwrap(), config);

    // CSV text payloads (embedded newlines) survive the string escaping.
    let csv = ExperimentConfig {
        source: DataSource::CsvText {
            text: "1.0,2.0,1\n0.1,0.2,0\n".into(),
        },
        ..ExperimentConfig::paper()
    };
    let back = ExperimentConfig::from_json_str(&csv.to_json_string()).unwrap();
    assert_eq!(back, csv);
}

#[test]
fn config_without_scenario_field_is_the_paper_triple() {
    // A pre-redesign config (no `scenario` key) must keep
    // deserializing, and must land on the paper's triple.
    let legacy = r#"{
        "seed": 4242,
        "source": {"type": "synthetic_spambase", "rows": 600},
        "test_fraction": 0.3,
        "budget_fraction": 0.2,
        "epochs": 40,
        "centroid": "coordinate_median",
        "solver": "auto",
        "warm_start": false
    }"#;
    let config = ExperimentConfig::from_json_str(legacy).unwrap();
    assert_eq!(config.scenario, Scenario::paper());
    assert_eq!(config.seed, 4242);
    assert_eq!(config.source, DataSource::SyntheticSpambase { rows: 600 });

    // The empty document is the full paper setup.
    assert_eq!(
        ExperimentConfig::from_json_str("{}").unwrap(),
        ExperimentConfig::paper()
    );
}

#[test]
fn config_rejects_unknown_keys_and_bad_types() {
    assert!(ExperimentConfig::from_json_str(r#"{"sede": 1}"#).is_err());
    assert!(ExperimentConfig::from_json_str(r#"{"seed": -1}"#).is_err());
    assert!(ExperimentConfig::from_json_str(r#"{"seed": "abc"}"#).is_err());
    assert!(ExperimentConfig::from_json_str(r#"{"epochs": 1.5}"#).is_err());
    assert!(ExperimentConfig::from_json_str(r#"{"solver": "quantum"}"#).is_err());
    assert!(ExperimentConfig::from_json_str(r#"{"warm_start": 1}"#).is_err());
    assert!(ExperimentConfig::from_json_str(r#"{"source": {"type": "oracle"}}"#).is_err());
    assert!(ExperimentConfig::from_json_str(r#"{"centroid": "centroid_of_mass"}"#).is_err());
    // Misspelled parameters inside nested objects are rejected too.
    assert!(ExperimentConfig::from_json_str(
        r#"{"source": {"type": "synthetic_spambase", "rows": 100, "rosw": 5}}"#
    )
    .is_err());
    assert!(ExperimentConfig::from_json_str(
        r#"{"centroid": {"type": "trimmed_mean", "trim": 0.1, "tirm": 0.2}}"#
    )
    .is_err());
}

#[test]
fn rendered_json_is_parseable_generic_json() {
    // The emitted documents are plain JSON — the generic parser (not
    // just the typed readers) must accept them.
    let matrix = ScenarioMatrix::default();
    assert!(Json::parse(&matrix.to_json_string()).is_ok());
    assert!(Json::parse(&ExperimentConfig::paper().to_json_string()).is_ok());
}
