//! Machine-readable benchmark metrics and the CI regression gate.
//!
//! The benchmark binaries historically printed human tables only, so the
//! repo recorded no performance trajectory at all — speedups and
//! regressions alike were invisible to CI. This module gives them a
//! second output: a flat JSON object mapping metric names to numbers,
//! written to the path in `LDP_BENCH_JSON` (merging with whatever an
//! earlier binary already wrote there, so several binaries can share one
//! `BENCH_results.json`). `net_concurrency` is the one binary emitting
//! through it today; ingest, recovery and replication throughput are
//! measured by the `ldpbench` crate at the repository root.
//!
//! The gate ([`gate`], driven by the `bench_gate` binary) compares a
//! fresh results file against a committed baseline. Metric direction is
//! encoded in the name, so the baseline file alone decides what is
//! gated:
//!
//! * `*_per_sec` — throughput, higher is better: fail when
//!   `fresh < baseline · (1 − tolerance)`.
//! * `*_sessions` — capacity (concurrent sessions held), higher is
//!   better, same rule as throughput.
//! * `*_ns` / `*_us` — cost (latency in nanoseconds or microseconds),
//!   lower is better: fail when `fresh > baseline · (1 + tolerance)`.
//! * anything else — context (shard counts, epoch counts): never gated.
//!
//! The default tolerance is deliberately loose (30%) because CI runners
//! are noisy; the gate exists to catch *step* regressions (an accidental
//! `O(K)` rotation, a lost parallel path), not single-digit drift.
//!
//! The environment bakes in no JSON dependency, so the format is kept to
//! exactly what a ten-line parser handles: one flat object, string keys,
//! finite numeric values.

use std::collections::BTreeMap;

/// Environment variable naming the JSON file benchmarks write to.
pub const BENCH_JSON_ENV: &str = "LDP_BENCH_JSON";
/// Environment variable overriding the gate's relative tolerance.
pub const TOLERANCE_ENV: &str = "LDP_BENCH_TOLERANCE";
/// Default relative tolerance: a metric may regress by up to 30% before
/// the gate fails (noisy-runner headroom).
pub const DEFAULT_TOLERANCE: f64 = 0.30;

/// An ordered collection of named benchmark measurements.
#[derive(Debug, Default, Clone)]
pub struct BenchMetrics {
    values: BTreeMap<String, f64>,
}

impl BenchMetrics {
    /// An empty collection.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Records one measurement (overwriting a previous value of the same
    /// name). Non-finite values are recorded as `0` — JSON has no `NaN`,
    /// and the gate treats a zero throughput *or* a zero cost as a broken
    /// measurement, failing loudly instead of silently.
    pub fn record(&mut self, name: &str, value: f64) {
        let v = if value.is_finite() { value } else { 0.0 };
        self.values.insert(name.to_string(), v);
    }

    /// The recorded values, ordered by name.
    #[must_use]
    pub fn values(&self) -> &BTreeMap<String, f64> {
        &self.values
    }

    /// Serializes as a flat, sorted, pretty-printed JSON object.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut out = String::from("{\n");
        for (i, (k, v)) in self.values.iter().enumerate() {
            let sep = if i + 1 == self.values.len() { "" } else { "," };
            // `{v:?}` prints f64 with enough digits to round-trip.
            out.push_str(&format!("  \"{k}\": {v:?}{sep}\n"));
        }
        out.push('}');
        out.push('\n');
        out
    }

    /// Writes (merging) to the file named by [`BENCH_JSON_ENV`], if set.
    /// Existing entries under other names survive, so several benchmark
    /// binaries can contribute to one results file.
    ///
    /// # Errors
    ///
    /// Propagates file-system and parse failures.
    pub fn write_to_env_path(&self) -> Result<Option<String>, String> {
        let Ok(path) = std::env::var(BENCH_JSON_ENV) else {
            return Ok(None);
        };
        let mut merged = match std::fs::read_to_string(&path) {
            Ok(existing) => parse_flat_json(&existing)
                .map_err(|e| format!("existing {path} is not a metrics file: {e}"))?,
            Err(_) => BTreeMap::new(),
        };
        merged.extend(self.values.clone());
        let all = Self { values: merged };
        std::fs::write(&path, all.to_json()).map_err(|e| format!("writing {path}: {e}"))?;
        Ok(Some(path))
    }
}

/// Parses the flat `{"name": number, ...}` object [`BenchMetrics`]
/// writes. Tolerates arbitrary whitespace; rejects anything nested,
/// non-numeric, or trailing.
///
/// # Errors
///
/// Returns a human-readable description of the first structural problem.
pub fn parse_flat_json(text: &str) -> Result<BTreeMap<String, f64>, String> {
    let mut values = BTreeMap::new();
    let body = text.trim();
    let body = body
        .strip_prefix('{')
        .and_then(|b| b.strip_suffix('}'))
        .ok_or("expected one {...} object")?
        .trim();
    if body.is_empty() {
        return Ok(values);
    }
    for (i, entry) in body.split(',').enumerate() {
        let entry = entry.trim();
        let (key, value) = entry
            .split_once(':')
            .ok_or_else(|| format!("entry {i}: expected \"name\": value, got {entry:?}"))?;
        let key = key
            .trim()
            .strip_prefix('"')
            .and_then(|k| k.strip_suffix('"'))
            .ok_or_else(|| format!("entry {i}: key is not a quoted string"))?;
        if key.is_empty() || key.contains(['"', '\\']) {
            return Err(format!("entry {i}: unsupported key {key:?}"));
        }
        let value: f64 = value
            .trim()
            .parse()
            .map_err(|_| format!("entry {i} ({key}): value is not a plain number"))?;
        if !value.is_finite() {
            return Err(format!("entry {i} ({key}): value is not finite"));
        }
        if values.insert(key.to_string(), value).is_some() {
            return Err(format!("entry {i}: duplicate key {key:?}"));
        }
    }
    Ok(values)
}

/// How the gate judged one metric.
#[derive(Debug, Clone, PartialEq)]
pub enum Verdict {
    /// Within tolerance (or improved).
    Ok,
    /// Regressed beyond tolerance; carries the violation message.
    Regressed(String),
    /// Present in the baseline, absent from the fresh results — a
    /// benchmark stopped reporting, which the gate must not ignore.
    Missing,
    /// Not a gated metric (no direction suffix); context only.
    Ungated,
}

/// One gate comparison row.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Metric name.
    pub name: String,
    /// Baseline value.
    pub baseline: f64,
    /// Fresh value, if reported.
    pub fresh: Option<f64>,
    /// Judgement.
    pub verdict: Verdict,
}

/// Compares fresh results against a baseline at the given relative
/// tolerance, returning one row per baseline metric. The run regresses
/// iff any row's verdict is [`Verdict::Regressed`] or
/// [`Verdict::Missing`].
#[must_use]
pub fn gate(
    baseline: &BTreeMap<String, f64>,
    fresh: &BTreeMap<String, f64>,
    tolerance: f64,
) -> Vec<Comparison> {
    baseline
        .iter()
        .map(|(name, &base)| {
            let higher_is_better = name.ends_with("_per_sec") || name.ends_with("_sessions");
            let lower_is_better = name.ends_with("_ns") || name.ends_with("_us");
            let current = fresh.get(name).copied();
            let verdict = match current {
                _ if !higher_is_better && !lower_is_better => Verdict::Ungated,
                None => Verdict::Missing,
                // A cost metric at (or below) zero is a broken
                // measurement, not an infinitely fast one — without this
                // a NaN timing recorded as 0 would sail through the
                // lower-is-better check.
                Some(now) if lower_is_better && now <= 0.0 => Verdict::Regressed(format!(
                    "{name}: cost reported as {now:.1} — measurement is broken, not free"
                )),
                Some(now) => {
                    let failed = if higher_is_better {
                        now < base * (1.0 - tolerance)
                    } else {
                        now > base * (1.0 + tolerance)
                    };
                    if failed {
                        let direction = if higher_is_better { "below" } else { "above" };
                        Verdict::Regressed(format!(
                            "{name}: {now:.1} is {direction} the {:.0}%-tolerance band around \
                             baseline {base:.1}",
                            tolerance * 100.0
                        ))
                    } else {
                        Verdict::Ok
                    }
                }
            };
            Comparison {
                name: name.clone(),
                baseline: base,
                fresh: current,
                verdict,
            }
        })
        .collect()
}

/// The gate tolerance: [`TOLERANCE_ENV`] or [`DEFAULT_TOLERANCE`].
#[must_use]
pub fn tolerance_from_env() -> f64 {
    std::env::var(TOLERANCE_ENV)
        .ok()
        .and_then(|v| v.parse().ok())
        .filter(|t: &f64| (0.0..1.0).contains(t))
        .unwrap_or(DEFAULT_TOLERANCE)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(pairs: &[(&str, f64)]) -> BTreeMap<String, f64> {
        pairs.iter().map(|(k, v)| (k.to_string(), *v)).collect()
    }

    #[test]
    fn json_roundtrips() {
        let mut m = BenchMetrics::new();
        m.record("window_ingest_reports_per_sec", 123_456.75);
        m.record("window_seal_mean_ns", 8_900.0);
        m.record("window_shards", 4.0);
        m.record("nan_guard", f64::NAN);
        let text = m.to_json();
        let parsed = parse_flat_json(&text).unwrap();
        assert_eq!(parsed, {
            let mut want = metrics(&[
                ("window_ingest_reports_per_sec", 123_456.75),
                ("window_seal_mean_ns", 8_900.0),
                ("window_shards", 4.0),
            ]);
            want.insert("nan_guard".into(), 0.0);
            want
        });
        // Empty object parses too.
        assert!(parse_flat_json("{}").unwrap().is_empty());
        assert!(parse_flat_json("{ }\n").unwrap().is_empty());
    }

    #[test]
    fn malformed_json_is_rejected() {
        for bad in [
            "",
            "[1, 2]",
            "{\"a\": }",
            "{\"a\": \"str\"}",
            "{\"a\": {\"nested\": 1}}",
            "{a: 1}",
            "{\"a\": 1, \"a\": 2}",
            "{\"a\": inf}",
        ] {
            assert!(parse_flat_json(bad).is_err(), "accepted {bad:?}");
        }
    }

    #[test]
    fn gate_passes_identical_and_improved_runs() {
        let base = metrics(&[
            ("t_reports_per_sec", 100_000.0),
            ("seal_mean_ns", 5_000.0),
            ("shards", 4.0),
        ]);
        let mut fresh = base.clone();
        let rows = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Ok | Verdict::Ungated)));

        // Faster throughput and cheaper rotation both pass.
        fresh.insert("t_reports_per_sec".into(), 250_000.0);
        fresh.insert("seal_mean_ns".into(), 1_000.0);
        let rows = gate(&base, &fresh, DEFAULT_TOLERANCE);
        assert!(rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Ok | Verdict::Ungated)));
    }

    #[test]
    fn gate_fails_doctored_baseline() {
        // The acceptance check: feed the gate a baseline doctored to
        // twice the measured throughput — it must fail.
        let fresh = metrics(&[("service_1shard_reports_per_sec", 100_000.0)]);
        let doctored = metrics(&[("service_1shard_reports_per_sec", 200_000.0)]);
        let rows = gate(&doctored, &fresh, DEFAULT_TOLERANCE);
        assert!(
            rows.iter()
                .any(|r| matches!(r.verdict, Verdict::Regressed(_))),
            "doctored baseline passed the gate"
        );

        // A cost metric doctored to half the measured rotation time
        // fails symmetrically.
        let fresh = metrics(&[("rotation_ns", 10_000.0)]);
        let doctored = metrics(&[("rotation_ns", 5_000.0)]);
        let rows = gate(&doctored, &fresh, DEFAULT_TOLERANCE);
        assert!(rows
            .iter()
            .any(|r| matches!(r.verdict, Verdict::Regressed(_))));
    }

    #[test]
    fn gate_rejects_zero_cost_as_broken_measurement() {
        // A NaN timing is recorded as 0; for a lower-is-better metric
        // that must fail, not read as infinitely fast.
        let base = metrics(&[("seal_mean_ns", 5_000.0)]);
        let rows = gate(&base, &metrics(&[("seal_mean_ns", 0.0)]), 0.30);
        assert!(matches!(rows[0].verdict, Verdict::Regressed(_)));
    }

    #[test]
    fn gate_directions_cover_all_four_suffixes() {
        let base = metrics(&[
            ("net_concurrent_sessions", 10_000.0),
            ("net_concurrent_p99_reply_us", 2_000.0),
        ]);
        // Holding fewer sessions or replying slower both fail.
        let rows = gate(
            &base,
            &metrics(&[
                ("net_concurrent_sessions", 5_000.0),
                ("net_concurrent_p99_reply_us", 9_000.0),
            ]),
            DEFAULT_TOLERANCE,
        );
        assert!(rows
            .iter()
            .all(|r| matches!(r.verdict, Verdict::Regressed(_))));
        // More sessions and faster replies both pass.
        let rows = gate(
            &base,
            &metrics(&[
                ("net_concurrent_sessions", 20_000.0),
                ("net_concurrent_p99_reply_us", 500.0),
            ]),
            DEFAULT_TOLERANCE,
        );
        assert!(rows.iter().all(|r| matches!(r.verdict, Verdict::Ok)));
        // A zero p99 is a broken measurement, same as a zero `_ns` cost.
        let rows = gate(
            &base,
            &metrics(&[
                ("net_concurrent_sessions", 10_000.0),
                ("net_concurrent_p99_reply_us", 0.0),
            ]),
            DEFAULT_TOLERANCE,
        );
        assert!(rows
            .iter()
            .any(|r| matches!(r.verdict, Verdict::Regressed(_))));
    }

    #[test]
    fn gate_respects_tolerance_band() {
        let base = metrics(&[("x_per_sec", 100.0)]);
        // 25% down: inside the 30% band.
        let rows = gate(&base, &metrics(&[("x_per_sec", 75.0)]), 0.30);
        assert!(matches!(rows[0].verdict, Verdict::Ok));
        // 35% down: outside.
        let rows = gate(&base, &metrics(&[("x_per_sec", 65.0)]), 0.30);
        assert!(matches!(rows[0].verdict, Verdict::Regressed(_)));
    }

    #[test]
    fn gate_flags_missing_metrics_and_skips_context() {
        let base = metrics(&[("gone_per_sec", 10.0), ("shards", 4.0)]);
        let rows = gate(&base, &BTreeMap::new(), DEFAULT_TOLERANCE);
        let by_name: BTreeMap<_, _> = rows.iter().map(|r| (r.name.as_str(), &r.verdict)).collect();
        assert!(matches!(by_name["gone_per_sec"], Verdict::Missing));
        assert!(matches!(by_name["shards"], Verdict::Ungated));
    }
}
