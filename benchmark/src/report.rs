//! What the benchmark prints: the result line the driver reads, the human
//! tables, `--list` and the `--repeat` comparison.

use crate::metrics::{Better, Value, END_TO_END, PER_LAYER};
use crate::stats::{iqr_share, median};
use crate::workloads;
use nt_obs::json::{Json, JsonObj};

/// Full-precision JSON number (`null` for NaN or infinity).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// The last line of standard output: exactly `correct`, `attempted`,
/// `failed`, `metrics` — plus `"pinned": false` after `--no-pin`, which
/// makes the line unfit for comparison on purpose.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &[Value],
    pinned: bool,
) -> String {
    let mut metrics = JsonObj::new();
    for v in values {
        let mut m = JsonObj::new();
        m.raw("value", num(v.value)).str("unit", v.unit);
        metrics.raw(v.name, m.build());
    }
    let mut o = JsonObj::new();
    o.bool("correct", correct)
        .num("attempted", attempted.max(1))
        .num("failed", failed)
        .raw("metrics", metrics.build());
    if !pinned {
        o.bool("pinned", false);
    }
    o.build()
}

/// A result line, parsed back (the parent of a child run reads these).
#[derive(Clone, Debug)]
pub struct Parsed {
    /// `correct`.
    pub correct: bool,
    /// `attempted`.
    pub attempted: u64,
    /// `failed`.
    pub failed: u64,
    /// `(name, value, unit)` in the line's order of names.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parse a result line.
pub fn parse_result_line(line: &str) -> Result<Parsed, String> {
    let doc = Json::parse(line.trim())?;
    let count = |k: &str| doc.get(k).and_then(Json::as_num).ok_or(format!("no {k}"));
    let Some(Json::Obj(metrics)) = doc.get("metrics") else {
        return Err("no metrics object".to_string());
    };
    Ok(Parsed {
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        attempted: count("attempted")? as u64,
        failed: count("failed")? as u64,
        metrics: metrics
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("value").and_then(Json::as_num).unwrap_or(f64::NAN),
                    m.get("unit")
                        .and_then(Json::as_str)
                        .unwrap_or("")
                        .to_string(),
                )
            })
            .collect(),
    })
}

/// Human table of one run's values.
pub fn table(values: &[Value]) -> String {
    let width = values.iter().map(|v| v.name.len()).max().unwrap_or(0);
    values
        .iter()
        .map(|v| format!("  {:<width$}  {:>14.4} {}\n", v.name, v.value, v.unit))
        .collect()
}

/// `--list`: every metric with unit, direction, bound and definition.
pub fn list() -> String {
    let mut out = String::from("workloads\n");
    for w in workloads::all() {
        out.push_str(&format!("  {:<8} {}\n", w.name, w.why));
    }
    out.push_str("\nend_to_end (tracing off; lower is better unless said)\n");
    for d in END_TO_END {
        out.push_str(&format!(
            "  {:<20} {:<6} {:<6} bound {:>4.0}%  {}\n",
            d.name,
            d.unit,
            d.better.word(),
            d.bound * 100.0,
            d.what
        ));
    }
    out.push_str("\nper_layer (traced run; informational, no bound)\n");
    for d in PER_LAYER {
        out.push_str(&format!(
            "  {:<32} {:<6} {:<6} {}  [moves: {}]\n",
            d.name,
            d.unit,
            d.better.word(),
            d.what,
            d.moves
        ));
    }
    out
}

/// One workload's end-to-end values over the runs of one set.
pub type SetValues = Vec<(String, Vec<f64>)>;

/// How far `second` is worse than `first`, as a share of `first`
/// (negative: better).
pub fn worse_by(first: f64, second: f64, better: Better) -> f64 {
    match better {
        Better::Lower => (second - first) / first,
        Better::Higher => (first - second) / first,
    }
}

/// The `--repeat` table for one workload; returns the rows and whether
/// every metric stayed within its bound.
pub fn repeat_rows(workload: &str, set1: &SetValues, set2: &SetValues) -> (String, bool) {
    let mut out = String::new();
    let mut all_ok = true;
    for d in END_TO_END {
        let of = |set: &SetValues| {
            set.iter()
                .find(|(n, _)| n == d.name)
                .map(|(_, v)| v.clone())
                .unwrap_or_default()
        };
        let (a, b) = (of(set1), of(set2));
        let (ma, mb) = (median(&a), median(&b));
        let diff = worse_by(ma, mb, d.better);
        // Same code on both sides: a difference either way is noise, and
        // noise beyond the bound means the benchmark cannot resolve it.
        let ok = diff.abs() <= d.bound;
        all_ok &= ok;
        out.push_str(&format!(
            "{:<8} | {:<18} | {:>12.4} ({:>4.1}%) | {:>12.4} ({:>4.1}%) | {:>+6.1}% | {:>4.0}% | {}\n",
            workload,
            d.name,
            ma,
            100.0 * iqr_share(&a),
            mb,
            100.0 * iqr_share(&b),
            100.0 * diff,
            100.0 * d.bound,
            if ok { "ok" } else { "DIFFERS" }
        ));
    }
    (out, all_ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_round_trips_with_exactly_four_keys() {
        let values = vec![
            Value {
                name: "top_cost_x",
                value: 22.583_312_345_678,
                unit: "x",
            },
            Value {
                name: "setup_s",
                value: 0.2239,
                unit: "s",
            },
        ];
        let line = result_line(true, 60_000, 0, &values, true);
        let Json::Obj(top) = Json::parse(&line).unwrap() else {
            panic!("not an object")
        };
        let keys: Vec<&str> = top.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let parsed = parse_result_line(&line).unwrap();
        assert!(parsed.correct);
        assert_eq!((parsed.attempted, parsed.failed), (60_000, 0));
        let cost = parsed.metrics.iter().find(|m| m.0 == "top_cost_x").unwrap();
        assert_eq!(cost.1, 22.583_312_345_678);
        assert_eq!(cost.2, "x");
        // An unpinned run is marked, so it cannot pass for a result.
        assert!(result_line(true, 1, 0, &values, false).contains("\"pinned\":false"));
        // `attempted` is never 0.
        assert_eq!(
            parse_result_line(&result_line(true, 0, 0, &values, true))
                .unwrap()
                .attempted,
            1
        );
    }

    #[test]
    fn repeat_verdict_uses_the_metric_bound() {
        let set = |cost: f64| -> SetValues {
            END_TO_END
                .iter()
                .map(|d| {
                    let v = if d.name == "top_cost_x" { cost } else { 1.0 };
                    (d.name.to_string(), vec![v, v * 1.01, v * 0.99])
                })
                .collect()
        };
        let (_, ok) = repeat_rows("w", &set(10.0), &set(10.5));
        assert!(ok);
        let (rows, ok) = repeat_rows("w", &set(10.0), &set(12.0));
        assert!(!ok);
        assert!(rows.contains("DIFFERS"));
        assert_eq!(worse_by(10.0, 11.0, Better::Lower), 0.1);
        assert_eq!(worse_by(10.0, 11.0, Better::Higher), -0.1);
    }
}
