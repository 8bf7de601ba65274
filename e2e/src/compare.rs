//! `e2e --compare <a.json> <b.json>`: applies the bounds of
//! `BENCHMARK.json` cell by cell (workload × end-to-end metric) to two
//! result files written by `e2e` (one run, or the medians of `--runs`),
//! `a` being the parent. A cell regresses when `b` is worse than `a` by
//! more than the metric's bound; a higher share of failed operations
//! regresses whatever the timings say.

use crate::json::{self, Value};

/// One workload × metric comparison.
#[derive(Debug, PartialEq)]
pub struct Cell {
    pub workload: String,
    pub metric: String,
    pub a: f64,
    pub b: f64,
    /// By how much of `a` the metric got worse (negative = better).
    pub worse_by: f64,
    pub bound: f64,
    pub regressed: bool,
}

/// How much worse `b` is than `a`, as a share of `a`.
fn worse_by(better: &str, a: f64, b: f64) -> f64 {
    if better == "higher" {
        (a - b) / a
    } else {
        (b - a) / a
    }
}

fn fail_share(workload: &Value) -> Option<f64> {
    let failed = workload.get("failed")?.as_f64()?;
    let attempted = workload.get("attempted")?.as_f64()?;
    (attempted > 0.0).then_some(failed / attempted)
}

/// Compares two result documents under `benchmark` (the parsed
/// `BENCHMARK.json`). A workload or metric present in the benchmark but
/// missing from either file is an error, not a pass.
pub fn compare(benchmark: &Value, a: &Value, b: &Value) -> Result<Vec<Cell>, String> {
    let list = |doc: &Value, key: &str| {
        doc.get(key)
            .and_then(Value::as_arr)
            .map(<[Value]>::to_vec)
            .ok_or_else(|| format!("BENCHMARK.json has no {key} list"))
    };
    let text = |v: &Value, key: &str| {
        v.get(key)
            .and_then(Value::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json entry without {key}"))
    };
    let mut cells = Vec::new();
    for workload in list(benchmark, "workloads")? {
        let name = text(&workload, "name")?;
        let side = |doc: &Value, which: &str| {
            doc.get("workloads")
                .and_then(|w| w.get(&name))
                .cloned()
                .ok_or_else(|| format!("file {which} has no workload {name}"))
        };
        let (wa, wb) = (side(a, "a")?, side(b, "b")?);
        let metrics = |w: &Value| w.get("metrics").map(json::number_map).unwrap_or_default();
        let (ma, mb) = (metrics(&wa), metrics(&wb));
        for metric in list(benchmark, "end_to_end")? {
            let metric_name = text(&metric, "name")?;
            let bound = metric
                .get("bound")
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("{metric_name} has no bound"))?;
            let cell = |m: &std::collections::BTreeMap<String, f64>, which: &str| {
                m.get(&metric_name)
                    .copied()
                    .ok_or_else(|| format!("file {which}: {name} has no {metric_name}"))
            };
            let (va, vb) = (cell(&ma, "a")?, cell(&mb, "b")?);
            let worse = worse_by(&text(&metric, "better")?, va, vb);
            cells.push(Cell {
                workload: name.clone(),
                metric: metric_name,
                a: va,
                b: vb,
                worse_by: worse,
                bound,
                regressed: worse > bound,
            });
        }
        let share = |w: &Value, which: &str| {
            fail_share(w).ok_or_else(|| format!("file {which}: {name} has no failed/attempted"))
        };
        let (fa, fb) = (share(&wa, "a")?, share(&wb, "b")?);
        cells.push(Cell {
            workload: name,
            metric: "fail_share".to_string(),
            a: fa,
            b: fb,
            worse_by: fb - fa,
            bound: 0.0,
            regressed: fb > fa,
        });
    }
    Ok(cells)
}

/// Prints the table; returns whether any cell regressed.
pub fn print(cells: &[Cell]) -> bool {
    println!(
        "{:<14} {:<14} {:>14} {:>14} {:>9} {:>7}",
        "workload", "metric", "a", "b", "worse by", "bound"
    );
    for c in cells {
        println!(
            "{:<14} {:<14} {:>14.4} {:>14.4} {:>8.2}% {:>6.0}% {}",
            c.workload,
            c.metric,
            c.a,
            c.b,
            100.0 * c.worse_by,
            100.0 * c.bound,
            if c.regressed { "REGRESSED" } else { "" }
        );
    }
    cells.iter().any(|c| c.regressed)
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCH: &str = r#"{
        "workloads": [{"name": "w1", "why": "x"}, {"name": "w2", "why": "y"}],
        "end_to_end": [
            {"name": "op_ms_p50", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "ops_per_s", "unit": "1/s", "better": "higher", "bound": 0.1}
        ]
    }"#;

    fn file(op1: f64, rate1: f64, failed1: u64) -> Value {
        json::parse(&format!(
            r#"{{"workloads": {{
                "w1": {{"attempted": 100, "failed": {failed1},
                        "metrics": {{"op_ms_p50": {{"value": {op1}, "unit": "ms"}},
                                     "ops_per_s": {{"value": {rate1}, "unit": "1/s"}}}}}},
                "w2": {{"attempted": 50, "failed": 0,
                        "metrics": {{"op_ms_p50": {{"value": 2.0, "unit": "ms"}},
                                     "ops_per_s": {{"value": 500.0, "unit": "1/s"}}}}}}
            }}}}"#
        ))
        .unwrap()
    }

    fn regressed(cells: &[Cell]) -> Vec<(String, String)> {
        cells
            .iter()
            .filter(|c| c.regressed)
            .map(|c| (c.workload.clone(), c.metric.clone()))
            .collect()
    }

    #[test]
    fn within_bounds_passes_in_both_directions() {
        let bench = json::parse(BENCH).unwrap();
        // 9 % slower, 9 % less throughput: inside the 10 % bounds.
        let cells = compare(&bench, &file(10.0, 100.0, 0), &file(10.9, 91.0, 0)).unwrap();
        assert_eq!(cells.len(), 6, "2 workloads × (2 metrics + fail_share)");
        assert!(regressed(&cells).is_empty());
        // Getting better is never a regression.
        let cells = compare(&bench, &file(10.0, 100.0, 0), &file(5.0, 200.0, 0)).unwrap();
        assert!(regressed(&cells).is_empty());
    }

    #[test]
    fn a_cell_beyond_its_bound_regresses_alone() {
        let bench = json::parse(BENCH).unwrap();
        let cells = compare(&bench, &file(10.0, 100.0, 0), &file(11.5, 100.0, 0)).unwrap();
        assert_eq!(
            regressed(&cells),
            [("w1".to_string(), "op_ms_p50".to_string())]
        );
        // "higher is better" is judged the other way round.
        let cells = compare(&bench, &file(10.0, 100.0, 0), &file(10.0, 85.0, 0)).unwrap();
        assert_eq!(
            regressed(&cells),
            [("w1".to_string(), "ops_per_s".to_string())]
        );
    }

    #[test]
    fn any_rise_in_failures_regresses() {
        let bench = json::parse(BENCH).unwrap();
        let cells = compare(&bench, &file(10.0, 100.0, 0), &file(10.0, 100.0, 1)).unwrap();
        assert_eq!(
            regressed(&cells),
            [("w1".to_string(), "fail_share".to_string())]
        );
        let cells = compare(&bench, &file(10.0, 100.0, 2), &file(10.0, 100.0, 1)).unwrap();
        assert!(regressed(&cells).is_empty());
    }

    #[test]
    fn missing_cells_are_errors() {
        let bench = json::parse(BENCH).unwrap();
        let empty = json::parse(r#"{"workloads": {}}"#).unwrap();
        assert!(compare(&bench, &file(1.0, 1.0, 0), &empty).is_err());
        let partial = json::parse(
            r#"{"workloads": {"w1": {"attempted": 1, "failed": 0, "metrics": {}},
                              "w2": {"attempted": 1, "failed": 0, "metrics": {}}}}"#,
        )
        .unwrap();
        assert!(compare(&bench, &partial, &file(1.0, 1.0, 0)).is_err());
    }
}
