//! CSV output in the UCI Spambase layout.
//!
//! Each record is `f_1,…,f_d,label` where `label` is `1` (spam) or `0`
//! (ham). No header. This is exactly the format of `spambase.data`,
//! so written fixtures read back through `poisongame-io`'s strict
//! chunked reader — the workspace's one CSV parser — like the real
//! UCI file.

use crate::dataset::Dataset;

/// Serialize a dataset into Spambase-format CSV, one newline-terminated
/// record per row. Floats keep 17 significant digits, so reading the
/// text back is bit-exact.
///
/// # Example
///
/// ```
/// use poisongame_data::csv::to_csv;
/// use poisongame_data::{Dataset, Label};
///
/// let d = Dataset::from_rows(
///     vec![vec![0.5, 1.0], vec![2.0, 3.0]],
///     vec![Label::Positive, Label::Negative],
/// )
/// .unwrap();
/// assert_eq!(to_csv(&d), "5.00000000000000000e-1,1,1\n2,3,0\n");
/// ```
pub fn to_csv(data: &Dataset) -> String {
    let mut out = String::new();
    for (x, y) in data.iter() {
        let fields: Vec<String> = x.iter().map(|v| format_float(*v)).collect();
        out.push_str(&fields.join(","));
        out.push(',');
        out.push_str(&y.to_bit().to_string());
        out.push('\n');
    }
    out
}

/// Format a float compactly but losslessly enough for round-tripping
/// experiment artifacts (17 significant digits covers f64).
fn format_float(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{}", v as i64)
    } else {
        format!("{v:.17e}")
    }
}
