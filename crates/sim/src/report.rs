//! Result rendering: ASCII tables (for terminals and reports) and CSV
//! (for plotting).

use crate::fig1::Fig1Results;
use crate::scaling::ScalingResults;
use crate::scenario::MatrixResults;
use crate::table1::Table1Results;

/// Render a generic ASCII table with a header row.
///
/// # Panics
///
/// Panics if any row's width differs from the header's.
pub fn render_table(headers: &[&str], rows: &[Vec<String>]) -> String {
    for row in rows {
        assert_eq!(row.len(), headers.len(), "ragged table row");
    }
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (w, cell) in widths.iter_mut().zip(row) {
            *w = (*w).max(cell.len());
        }
    }
    let sep: String = widths
        .iter()
        .map(|w| format!("+{}", "-".repeat(w + 2)))
        .collect::<String>()
        + "+\n";
    let mut out = String::new();
    out.push_str(&sep);
    out.push('|');
    for (h, w) in headers.iter().zip(&widths) {
        out.push_str(&format!(" {h:<w$} |"));
    }
    out.push('\n');
    out.push_str(&sep);
    for row in rows {
        out.push('|');
        for (cell, w) in row.iter().zip(&widths) {
            out.push_str(&format!(" {cell:<w$} |"));
        }
        out.push('\n');
    }
    out.push_str(&sep);
    out
}

/// Quote a CSV field per RFC 4180 when it contains a separator, a
/// quote or a line break; plain fields (every numeric cell, today's
/// spec labels) pass through untouched. Without this, a future spec
/// name like `trimmed(frac=0.1, k=3)` would silently shear the
/// scenario-label columns of [`matrix_csv`] apart.
fn csv_field(cell: &str) -> String {
    if cell.contains([',', '"', '\n', '\r']) {
        format!("\"{}\"", cell.replace('"', "\"\""))
    } else {
        cell.to_string()
    }
}

/// Render rows as CSV with a header line. Fields containing
/// separators, quotes or line breaks are RFC 4180-quoted; all other
/// cells (every numeric cell) render byte-identically to the
/// historical unquoted output.
pub fn render_csv(headers: &[&str], rows: &[Vec<String>]) -> String {
    let mut out = headers
        .iter()
        .map(|h| csv_field(h))
        .collect::<Vec<_>>()
        .join(",");
    out.push('\n');
    for row in rows {
        out.push_str(
            &row.iter()
                .map(|cell| csv_field(cell))
                .collect::<Vec<_>>()
                .join(","),
        );
        out.push('\n');
    }
    out
}

/// Figure 1 as an ASCII table.
pub fn fig1_table(results: &Fig1Results) -> String {
    let rows: Vec<Vec<String>> = results
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{:.1}%", r.removed_fraction * 100.0),
                format!("{:.4}", r.accuracy_under_attack),
                format!("{:.4}", r.accuracy_clean),
                format!("{:.0}%", r.poison_recall * 100.0),
            ]
        })
        .collect();
    let mut out = format!(
        "Figure 1 — pure strategy defense under optimal attack\n\
         (baseline accuracy {:.4}, N = {} poison points)\n",
        results.baseline_accuracy, results.n_poison
    );
    out.push_str(&render_table(
        &["removed", "acc (attacked)", "acc (clean)", "poison caught"],
        &rows,
    ));
    out
}

/// Figure 1 as CSV.
pub fn fig1_csv(results: &Fig1Results) -> String {
    let rows: Vec<Vec<String>> = results
        .rows
        .iter()
        .map(|r| {
            vec![
                format!("{}", r.removed_fraction),
                format!("{}", r.accuracy_under_attack),
                format!("{}", r.accuracy_clean),
                format!("{}", r.poison_recall),
            ]
        })
        .collect();
    render_csv(
        &[
            "removed_fraction",
            "accuracy_under_attack",
            "accuracy_clean",
            "poison_recall",
        ],
        &rows,
    )
}

/// Table 1 in the paper's layout (one column block per support size).
pub fn table1_table(results: &Table1Results) -> String {
    let mut out = String::from("Table 1 — mixed strategy defense under optimal attack\n");
    for row in &results.rows {
        out.push_str(&format!("\n# radius = {}\n", row.n_radii));
        let radii: Vec<String> = row
            .support
            .iter()
            .map(|p| format!("{:.1}%", p * 100.0))
            .collect();
        let probs: Vec<String> = row
            .probabilities
            .iter()
            .map(|q| format!("{:.1}%", q * 100.0))
            .collect();
        out.push_str(&render_table(
            &["Radius", "Probability"],
            &radii
                .iter()
                .zip(&probs)
                .map(|(r, p)| vec![r.clone(), p.clone()])
                .collect::<Vec<_>>(),
        ));
        out.push_str(&format!(
            "accuracy: {:.4} empirical / {:.4} predicted (attacker at {:.1}%)\n",
            row.empirical_accuracy,
            row.predicted_accuracy,
            row.attacker_placement * 100.0
        ));
    }
    out.push_str(&format!(
        "\nbest pure accuracy under attack: {:.4} | clean baseline: {:.4}\n",
        results.best_pure_accuracy, results.baseline_accuracy
    ));
    out
}

/// A scenario matrix as a ranked ASCII table: one row per
/// attack × defense × learner cell, best accuracy first.
pub fn matrix_table(results: &MatrixResults) -> String {
    let rows: Vec<Vec<String>> = results
        .ranked()
        .iter()
        .enumerate()
        .map(|(rank, cell)| {
            vec![
                (rank + 1).to_string(),
                cell.scenario.attack.name().to_string(),
                cell.scenario.defense.label(),
                cell.scenario.learner.name().to_string(),
                format!("{:.4}", cell.outcome.accuracy),
                format!("{:.0}%", cell.outcome.accounting.poison_recall() * 100.0),
                format!("{:.1}%", cell.outcome.removed_fraction * 100.0),
            ]
        })
        .collect();
    let mut out = format!(
        "Scenario matrix — {} cells at {:.0}% filter strength\n\
         (clean baseline {:.4}, N = {} poison points)\n",
        results.cells.len(),
        results.strength * 100.0,
        results.baseline_accuracy,
        results.n_poison
    );
    if let Some(stats) = &results.engine {
        out.push_str(&format!(
            "engine: prep cache {} hit{} / {} miss{} | {:.1} cells/s ({:.1} ms total)\n",
            stats.prep_hits,
            if stats.prep_hits == 1 { "" } else { "s" },
            stats.prep_misses,
            if stats.prep_misses == 1 { "" } else { "es" },
            stats.cells_per_sec(),
            stats.elapsed_micros as f64 / 1000.0
        ));
    }
    out.push_str(&render_table(
        &[
            "#",
            "attack",
            "defense",
            "learner",
            "accuracy",
            "poison caught",
            "removed",
        ],
        &rows,
    ));
    out
}

/// A scenario matrix as long-format CSV in grid order (one row per
/// cell, including the cell seed for isolated reproduction).
pub fn matrix_csv(results: &MatrixResults) -> String {
    let rows: Vec<Vec<String>> = results
        .cells
        .iter()
        .map(|cell| {
            vec![
                cell.scenario.attack.name().to_string(),
                cell.scenario.defense.label(),
                cell.scenario.learner.name().to_string(),
                format!("{}", results.strength),
                format!("{}", cell.outcome.accuracy),
                format!("{}", cell.outcome.accounting.poison_recall()),
                format!("{}", cell.outcome.removed_fraction),
                cell.cell_seed.to_string(),
            ]
        })
        .collect();
    render_csv(
        &[
            "attack",
            "defense",
            "learner",
            "strength",
            "accuracy",
            "poison_recall",
            "removed_fraction",
            "cell_seed",
        ],
        &rows,
    )
}

/// Scaling results as an ASCII table.
pub fn scaling_table(results: &ScalingResults) -> String {
    let rows: Vec<Vec<String>> = results
        .rows
        .iter()
        .map(|r| {
            vec![
                r.n_radii.to_string(),
                format!("{:.6}", r.defender_loss),
                format!("{:.4}", r.predicted_accuracy),
                r.iterations.to_string(),
                format!("{:.1} ms", r.solve_micros as f64 / 1000.0),
            ]
        })
        .collect();
    let mut out = String::from("Scaling — Algorithm 1 vs support size n\n");
    out.push_str(&render_table(
        &[
            "n",
            "defender loss",
            "predicted acc",
            "iterations",
            "solve time",
        ],
        &rows,
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fig1::Fig1Row;
    use crate::scaling::ScalingRow;
    use crate::table1::Table1Row;

    fn fig1() -> Fig1Results {
        Fig1Results {
            rows: vec![Fig1Row {
                removed_fraction: 0.1,
                accuracy_under_attack: 0.85,
                accuracy_clean: 0.91,
                poison_recall: 0.7,
            }],
            baseline_accuracy: 0.92,
            n_poison: 644,
        }
    }

    #[test]
    fn generic_table_aligns_columns() {
        let out = render_table(
            &["a", "long header"],
            &[
                vec!["x".into(), "y".into()],
                vec!["wide cell".into(), "z".into()],
            ],
        );
        assert!(out.contains("| a         | long header |"));
        assert!(out.lines().count() >= 6);
    }

    #[test]
    #[should_panic(expected = "ragged")]
    fn ragged_rows_panic() {
        render_table(&["a"], &[vec!["x".into(), "y".into()]]);
    }

    #[test]
    fn csv_has_header_and_rows() {
        let out = render_csv(&["a", "b"], &[vec!["1".into(), "2".into()]]);
        assert_eq!(out, "a,b\n1,2\n");
    }

    #[test]
    fn csv_quotes_separators_quotes_and_newlines() {
        let out = render_csv(
            &["label", "x"],
            &[
                vec!["knn(k=5, frac=0.1)".into(), "1".into()],
                vec!["say \"hi\"".into(), "2".into()],
                vec!["two\nlines".into(), "3".into()],
            ],
        );
        let mut lines = out.lines();
        assert_eq!(lines.next(), Some("label,x"));
        // Comma-bearing label is quoted, so the row still has 2 fields.
        assert_eq!(lines.next(), Some("\"knn(k=5, frac=0.1)\",1"));
        // Embedded quotes are doubled per RFC 4180.
        assert_eq!(lines.next(), Some("\"say \"\"hi\"\"\",2"));
        // Embedded newline stays inside one quoted field.
        assert!(out.contains("\"two\nlines\",3\n"));
        // Plain cells are byte-identical to the historical output.
        assert_eq!(render_csv(&["a"], &[vec!["0.5".into()]]), "a\n0.5\n");
    }

    #[test]
    fn fig1_renderings_contain_data() {
        let t = fig1_table(&fig1());
        assert!(t.contains("10.0%"));
        assert!(t.contains("0.8500"));
        let c = fig1_csv(&fig1());
        assert!(c.starts_with("removed_fraction"));
        assert!(c.contains("0.85"));
    }

    #[test]
    fn table1_rendering_matches_paper_layout() {
        let t = table1_table(&Table1Results {
            rows: vec![Table1Row {
                n_radii: 2,
                support: vec![0.058, 0.157],
                probabilities: vec![0.512, 0.488],
                predicted_accuracy: 0.856,
                empirical_accuracy: 0.859,
                attacker_placement: 0.058,
            }],
            best_pure_accuracy: 0.84,
            baseline_accuracy: 0.92,
        });
        assert!(t.contains("# radius = 2"));
        assert!(t.contains("5.8%"));
        assert!(t.contains("51.2%"));
    }

    #[test]
    fn matrix_renderings_rank_and_list_cells() {
        use crate::pipeline::EvalOutcome;
        use crate::scenario::{AttackSpec, DefenseSpec, LearnerSpec, MatrixCell, Scenario};
        use poisongame_defense::FilterAccounting;

        let cell = |attack, accuracy| MatrixCell {
            scenario: Scenario {
                attack,
                defense: DefenseSpec::Knn { k: 5 },
                learner: LearnerSpec::LogReg,
            },
            cell_seed: 42,
            outcome: EvalOutcome {
                accuracy,
                accounting: FilterAccounting {
                    poison_removed: 3,
                    poison_kept: 1,
                    genuine_removed: 2,
                    genuine_kept: 10,
                },
                removed_fraction: 0.3125,
            },
        };
        let results = MatrixResults {
            cells: vec![
                cell(AttackSpec::LabelFlip, 0.71),
                cell(AttackSpec::Boundary, 0.88),
            ],
            baseline_accuracy: 0.92,
            n_poison: 64,
            strength: 0.15,
            engine: None,
        };
        let t = matrix_table(&results);
        assert!(!t.contains("engine:"), "no engine line without stats");
        // Ranked: boundary (0.88) first despite grid order.
        let boundary_at = t.find("boundary").unwrap();
        let flip_at = t.find("label_flip").unwrap();
        assert!(boundary_at < flip_at, "{t}");
        assert!(t.contains("knn(k=5)"));
        assert!(t.contains("0.8800"));
        let c = matrix_csv(&results);
        assert!(c.starts_with("attack,defense,learner"));
        // CSV keeps grid order.
        let flip_line = c.lines().nth(1).unwrap();
        assert!(flip_line.starts_with("label_flip"));
        assert!(flip_line.ends_with(",42"));

        // With engine stats attached, the cache/throughput line shows.
        let mut with_stats = results.clone();
        with_stats.engine = Some(crate::scenario::EngineStats {
            prep_hits: 1,
            prep_misses: 1,
            cells: 2,
            elapsed_micros: 2_000_000,
        });
        let t = matrix_table(&with_stats);
        assert!(t.contains("engine: prep cache 1 hit / 1 miss"), "{t}");
        assert!(t.contains("1.0 cells/s"), "{t}");
    }

    #[test]
    fn scaling_rendering_includes_time() {
        let t = scaling_table(&ScalingResults {
            rows: vec![ScalingRow {
                n_radii: 3,
                defender_loss: 0.05,
                predicted_accuracy: 0.87,
                iterations: 42,
                solve_micros: 1500,
            }],
        });
        assert!(t.contains("1.5 ms"));
        assert!(t.contains("42"));
    }
}
