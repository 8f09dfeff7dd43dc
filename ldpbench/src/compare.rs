//! `ldpbench compare <a.json> <b.json>`: holds two result files of this
//! benchmark to the bounds `BENCHMARK.json` fixes. `a` is the baseline.

use crate::json::Json;

/// One end-to-end metric of `BENCHMARK.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct Bound {
    pub name: String,
    pub higher_is_better: bool,
    /// Share of the baseline by which the metric may get worse.
    pub bound: f64,
}

pub fn bounds(benchmark: &Json) -> Result<Vec<Bound>, String> {
    let list = benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    list.iter()
        .map(|m| {
            let text = |key: &str| {
                m.get(key)
                    .and_then(Json::as_str)
                    .ok_or(format!("end_to_end entry lacks {key}"))
            };
            Ok(Bound {
                name: text("name")?.to_string(),
                higher_is_better: text("better")? == "higher",
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("end_to_end entry lacks bound")?,
            })
        })
        .collect()
}

/// One line per metric and workload, and whether `b` is acceptable: no
/// end-to-end metric worse than `a` by more than its bound, and no
/// larger share of failed operations.
pub fn compare(a: &Json, b: &Json, bounds: &[Bound]) -> Result<(Vec<String>, bool), String> {
    let workloads = |file: &Json| {
        file.get("workloads")
            .map(|w| w.entries().to_vec())
            .ok_or("result file has no workloads")
    };
    let (in_a, in_b) = (workloads(a)?, workloads(b)?);
    let mut lines = Vec::new();
    let mut ok = true;
    let mut shared = 0;
    for (name, run_a) in &in_a {
        let Some((_, run_b)) = in_b.iter().find(|(n, _)| n == name) else {
            continue;
        };
        shared += 1;
        for bound in bounds {
            let value = |run: &Json| run.get("metrics")?.get(&bound.name)?.get("value")?.as_f64();
            let (Some(va), Some(vb)) = (value(run_a), value(run_b)) else {
                lines.push(format!("{name} {} missing FAIL", bound.name));
                ok = false;
                continue;
            };
            // Positive = worse, as a share of the baseline.
            let worse = if bound.higher_is_better {
                (va - vb) / va
            } else {
                (vb - va) / va
            };
            let pass = worse <= bound.bound;
            ok &= pass;
            lines.push(format!(
                "{name} {} {va} -> {vb} ({:+.2}% worse, bound {:.0}%) {}",
                bound.name,
                100.0 * worse,
                100.0 * bound.bound,
                if pass { "ok" } else { "FAIL" }
            ));
        }
        let failed_share = |run: &Json| {
            let n = |key: &str| run.get(key).and_then(Json::as_f64).unwrap_or(0.0);
            n("failed") / n("attempted").max(1.0)
        };
        let (fa, fb) = (failed_share(run_a), failed_share(run_b));
        if fb > fa {
            ok = false;
            lines.push(format!("{name} ops_failed share {fa} -> {fb} FAIL"));
        }
    }
    if shared == 0 {
        return Err("the two files share no workload".into());
    }
    Ok((lines, ok))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(rate: f64, latency: f64, failed: f64) -> Json {
        Json::parse(&format!(
            r#"{{"workloads": {{"w": {{"attempted": 100, "failed": {failed}, "metrics": {{
                "ingest_reports_per_s": {{"value": {rate}, "unit": "1/s"}},
                "ack_p50_us": {{"value": {latency}, "unit": "us"}}}}}}}}}}"#
        ))
        .unwrap()
    }

    fn contract() -> Vec<Bound> {
        let benchmark = Json::parse(
            r#"{"end_to_end": [
                {"name": "ingest_reports_per_s", "unit": "1/s", "better": "higher", "bound": 0.1},
                {"name": "ack_p50_us", "unit": "us", "better": "lower", "bound": 0.1}]}"#,
        )
        .unwrap();
        bounds(&benchmark).unwrap()
    }

    #[test]
    fn direction_and_bound_decide() {
        let base = result(1000.0, 50.0, 0.0);
        let check = |b: &Json| compare(&base, b, &contract()).unwrap().1;
        assert!(check(&result(950.0, 54.0, 0.0)), "within both bounds");
        assert!(
            check(&result(2000.0, 10.0, 0.0)),
            "better is never a failure"
        );
        assert!(!check(&result(890.0, 50.0, 0.0)), "rate fell 11 %");
        assert!(!check(&result(1000.0, 56.0, 0.0)), "latency rose 12 %");
        assert!(!check(&result(1000.0, 50.0, 1.0)), "failures grew");
    }

    #[test]
    fn a_missing_metric_or_workload_is_not_a_pass() {
        let base = result(1000.0, 50.0, 0.0);
        let empty = Json::parse(r#"{"workloads": {"w": {"metrics": {}}}}"#).unwrap();
        assert!(!compare(&base, &empty, &contract()).unwrap().1);
        let other = Json::parse(r#"{"workloads": {"x": {"metrics": {}}}}"#).unwrap();
        assert!(compare(&base, &other, &contract()).is_err());
    }
}
