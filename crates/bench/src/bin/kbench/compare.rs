//! `kbench compare <a.json> <b.json>`: applies the regression bounds of
//! `BENCHMARK.json` to two result sets written by `kbench run --workload all
//! --out`, `a` being the parent and `b` the change.
//!
//! One row per workload and end-to-end metric: both medians, how much worse
//! `b` is as a share of `a`, the bound, and a verdict —
//!
//! * `ok`: not worse than the bound allows;
//! * `regressed`: worse by more than the bound;
//! * `unresolved`: a side is missing or zero, or `a`'s own run-to-run spread
//!   (quartile distance over median, with at least two runs) is wider than
//!   the bound, so "no regression" cannot be told from noise — unless every
//!   run of `b` reads better than every run of `a`.
//!
//! Exits 1 when any row regressed or `b` failed its output check.

use std::process::ExitCode;

use crate::json::{self, Json};
use crate::spec::{self, Better};
use crate::stats::{median, quartile_spread};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Regressed,
    Unresolved,
}

impl Verdict {
    fn name(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    pub workload: String,
    pub metric: String,
    pub unit: String,
    pub a: Option<f64>,
    pub b: Option<f64>,
    /// How much worse `b`'s median is, as a share of `a`'s (negative when
    /// better).
    pub worse_by: Option<f64>,
    pub bound: f64,
    pub verdict: Verdict,
}

/// Judges one metric from each side's per-run values.
pub fn judge(a: &[f64], b: &[f64], better: Better, bound: f64) -> (Option<f64>, Verdict) {
    if a.is_empty() || b.is_empty() {
        return (None, Verdict::Unresolved);
    }
    let (median_a, median_b) = (median(a), median(b));
    if median_a == 0.0 {
        return (None, Verdict::Unresolved);
    }
    let sign = match better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = sign * (median_b - median_a) / median_a.abs();
    if worse_by > bound {
        return (Some(worse_by), Verdict::Regressed);
    }
    let noisy = quartile_spread(a).is_some_and(|spread| spread > bound);
    let strictly_better = b
        .iter()
        .all(|&vb| a.iter().all(|&va| sign * (vb - va) < 0.0));
    if noisy && !strictly_better {
        return (Some(worse_by), Verdict::Unresolved);
    }
    (Some(worse_by), Verdict::Ok)
}

/// Per-run values of `metric` for `workload` in a result set.
fn values(set: &Json, workload: &str, metric: &str) -> Vec<f64> {
    runs(set, workload)
        .iter()
        .filter_map(|run| run.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

fn runs<'a>(set: &'a Json, workload: &str) -> &'a [Json] {
    set.get("workloads")
        .and_then(|w| w.get(workload))
        .and_then(Json::as_arr)
        .unwrap_or(&[])
}

/// One end-to-end entry of `BENCHMARK.json`.
struct Bounded {
    name: String,
    unit: String,
    better: Better,
    bound: f64,
}

/// What `compare` needs of `BENCHMARK.json`.
pub struct Spec {
    workloads: Vec<String>,
    metrics: Vec<Bounded>,
}

pub fn read_spec(spec: &Json) -> Result<Spec, String> {
    let field = |entry: &Json, key: &str| {
        entry
            .get(key)
            .and_then(Json::as_str)
            .map(str::to_owned)
            .ok_or_else(|| format!("BENCHMARK.json: an entry lacks \"{key}\""))
    };
    let list = |key: &str| {
        spec.get(key)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json lacks \"{key}\""))
    };
    let workloads = list("workloads")?
        .iter()
        .map(|w| field(w, "name"))
        .collect::<Result<_, _>>()?;
    let metrics = list("end_to_end")?
        .iter()
        .map(|m| {
            Ok(Bounded {
                name: field(m, "name")?,
                unit: field(m, "unit")?,
                better: Better::parse(&field(m, "better")?)
                    .ok_or("BENCHMARK.json: \"better\" must be higher or lower")?,
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("BENCHMARK.json: an end-to-end metric lacks \"bound\"")?,
            })
        })
        .collect::<Result<_, String>>()?;
    Ok(Spec { workloads, metrics })
}

pub fn rows(spec: &Spec, a: &Json, b: &Json) -> Vec<Row> {
    let mut rows = Vec::new();
    for workload in &spec.workloads {
        for metric in &spec.metrics {
            let va = values(a, workload, &metric.name);
            let vb = values(b, workload, &metric.name);
            let (worse_by, verdict) = judge(&va, &vb, metric.better, metric.bound);
            rows.push(Row {
                workload: workload.clone(),
                metric: metric.name.clone(),
                unit: metric.unit.clone(),
                a: (!va.is_empty()).then(|| median(&va)),
                b: (!vb.is_empty()).then(|| median(&vb)),
                worse_by,
                bound: metric.bound,
                verdict,
            });
        }
    }
    rows
}

/// Workloads of `b` with a failed output check, and workloads whose stream
/// digest differs between the sets (informational: an arithmetic-order
/// change is legal but must be visible).  Digests are compared only when
/// both sets ran the same seed.
fn failures_and_digests(spec: &Spec, a: &Json, b: &Json) -> (Vec<String>, Vec<String>) {
    let same_seed = a.get("seed").is_some() && a.get("seed") == b.get("seed");
    let digest = |set: &Json, workload: &str| {
        runs(set, workload)
            .first()
            .and_then(|run| run.get("digest")?.as_str().map(str::to_owned))
    };
    let mut failed = Vec::new();
    let mut changed = Vec::new();
    for workload in &spec.workloads {
        let any_failed = runs(b, workload)
            .iter()
            .any(|run| run.get("failed").and_then(Json::as_f64) != Some(0.0));
        if any_failed {
            failed.push(workload.clone());
        }
        if same_seed {
            if let (Some(da), Some(db)) = (digest(a, workload), digest(b, workload)) {
                if da != db {
                    changed.push(workload.clone());
                }
            }
        }
    }
    (failed, changed)
}

pub fn run(files: &[String], spec_path: Option<&str>) -> Result<ExitCode, String> {
    let [a_path, b_path] = files else {
        return Err("compare needs exactly two result files".into());
    };
    let read = |path: &str| -> Result<Json, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("cannot read {path}: {e}"))?;
        json::parse(&text).map_err(|e| format!("{path}: {e}"))
    };
    let spec_path = match spec_path {
        Some(path) => path.into(),
        None => {
            spec::find_benchmark_json().ok_or("no BENCHMARK.json here or above; pass --spec")?
        }
    };
    let spec = read_spec(&read(&spec_path.to_string_lossy())?)?;
    let (a, b) = (read(a_path)?, read(b_path)?);
    let rows = rows(&spec, &a, &b);
    println!(
        "{:<16} {:<20} {:>14} {:>14} {:<6} {:>9} {:>7}  verdict",
        "workload", "metric", "a (median)", "b (median)", "unit", "worse by", "bound"
    );
    let show = |v: Option<f64>| v.map_or("-".to_owned(), |v| format!("{v:.4}"));
    for row in &rows {
        println!(
            "{:<16} {:<20} {:>14} {:>14} {:<6} {:>9} {:>7}  {}",
            row.workload,
            row.metric,
            show(row.a),
            show(row.b),
            row.unit,
            row.worse_by
                .map_or("-".to_owned(), |w| format!("{:+.2}%", w * 100.0)),
            format!("{:.0}%", row.bound * 100.0),
            row.verdict.name()
        );
    }
    let (failed, digest_changed) = failures_and_digests(&spec, &a, &b);
    for workload in &digest_changed {
        println!("digest_changed: {workload} produced different token streams for the same seed");
    }
    for workload in &failed {
        println!("failed: {workload} did not pass its output check in {b_path}");
    }
    let count = |verdict| rows.iter().filter(|r| r.verdict == verdict).count();
    println!(
        "{} ok, {} regressed, {} unresolved",
        count(Verdict::Ok),
        count(Verdict::Regressed),
        count(Verdict::Unresolved)
    );
    Ok(if count(Verdict::Regressed) > 0 || !failed.is_empty() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_metric_within_its_bound_is_ok_in_either_direction() {
        let (worse, verdict) = judge(&[100.0], &[109.0], Better::Lower, 0.10);
        assert_eq!(verdict, Verdict::Ok);
        assert!((worse.unwrap() - 0.09).abs() < 1e-12);
        let (worse, verdict) = judge(&[100.0], &[92.0], Better::Higher, 0.10);
        assert_eq!(verdict, Verdict::Ok);
        assert!((worse.unwrap() - 0.08).abs() < 1e-12);
        // Better than the parent is never a regression.
        assert_eq!(judge(&[100.0], &[50.0], Better::Lower, 0.10).1, Verdict::Ok);
    }

    #[test]
    fn a_metric_beyond_its_bound_regressed() {
        assert_eq!(
            judge(&[100.0], &[111.0], Better::Lower, 0.10).1,
            Verdict::Regressed
        );
        assert_eq!(
            judge(&[100.0], &[89.0], Better::Higher, 0.10).1,
            Verdict::Regressed
        );
    }

    #[test]
    fn missing_zero_or_noisy_sides_are_unresolved() {
        assert_eq!(
            judge(&[], &[1.0], Better::Lower, 0.1).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[1.0], &[], Better::Lower, 0.1).1,
            Verdict::Unresolved
        );
        assert_eq!(
            judge(&[0.0], &[1.0], Better::Lower, 0.1).1,
            Verdict::Unresolved
        );
        // The parent's own runs spread far wider than the bound.
        let noisy = [80.0, 100.0, 120.0, 140.0];
        assert_eq!(
            judge(&noisy, &[105.0, 112.0], Better::Lower, 0.05).1,
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the parent.
        assert_eq!(
            judge(&noisy, &[70.0, 75.0], Better::Lower, 0.05).1,
            Verdict::Ok
        );
    }

    fn set(seed: u64, latency: f64, digest: &str, failed: u64) -> Json {
        let run = Json::obj([
            ("failed", Json::UInt(failed)),
            ("digest", Json::str(digest)),
            (
                "metrics",
                Json::obj([(
                    "latency_ms",
                    Json::obj([("value", Json::Num(latency)), ("unit", Json::str("ms"))]),
                )]),
            ),
        ]);
        Json::obj([
            ("seed", Json::UInt(seed)),
            ("workloads", Json::obj([("w", Json::Arr(vec![run]))])),
        ])
    }

    fn tiny_spec() -> Spec {
        let spec = json::parse(
            r#"{"workloads": [{"name": "w", "why": "test"}, {"name": "absent", "why": "test"}],
                "end_to_end": [{"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        read_spec(&spec).unwrap()
    }

    #[test]
    fn rows_cover_every_workload_and_metric_of_the_spec() {
        let spec = tiny_spec();
        let rows = rows(&spec, &set(7, 10.0, "aa", 0), &set(7, 12.0, "bb", 1));
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].verdict, Verdict::Regressed);
        assert_eq!((rows[0].a, rows[0].b), (Some(10.0), Some(12.0)));
        assert_eq!(rows[1].workload, "absent");
        assert_eq!(rows[1].verdict, Verdict::Unresolved);
    }

    #[test]
    fn failures_and_digest_changes_are_reported() {
        let spec = tiny_spec();
        let (failed, changed) =
            failures_and_digests(&spec, &set(7, 10.0, "aa", 0), &set(7, 10.0, "bb", 1));
        assert_eq!(failed, vec!["w"]);
        assert_eq!(changed, vec!["w"]);
        // Different seeds legitimately produce different streams.
        let (failed, changed) =
            failures_and_digests(&spec, &set(7, 10.0, "aa", 0), &set(13, 10.0, "bb", 0));
        assert!(failed.is_empty() && changed.is_empty());
    }

    #[test]
    fn malformed_specs_are_refused() {
        assert!(read_spec(&Json::obj::<&str>([])).is_err());
        let bad = json::parse(
            r#"{"workloads": [], "end_to_end": [{"name": "m", "unit": "s", "better": "sideways", "bound": 0.1}]}"#,
        )
        .unwrap();
        assert!(read_spec(&bad).is_err());
    }
}
