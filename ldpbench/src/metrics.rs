//! Metric names, units and the per-run collector. The names are the
//! contract `BENCHMARK.json` and every later comparison rely on.

use crate::json::Json;
use crate::sut::ORACLES;

/// A metric name with its unit.
pub type Named = (String, &'static str);

/// End-to-end metrics: what a relay or an analyst of the service sees.
/// Every workload reports every one of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("ingest_reports_per_s", "1/s"),
    ("ack_p50_us", "us"),
    ("query_fresh_p50_us", "us"),
    ("query_cached_p50_us", "us"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of the traced run (layer = module name; `*_self_*`
/// = a rung minus the rung below it). The oracle table is appended by
/// [`per_layer`].
const PER_LAYER: [(&str, &str); 45] = [
    // Ingest ladder, one thread, the workload's own frames and batch size.
    ("workloads.sample_ns_per_value", "ns"),
    ("core.client_encode_ns_per_report", "ns"),
    ("wire.encode_ns_per_frame", "ns"),
    ("wire.frame_bytes_mean", "B"),
    ("wire.decode_ns_per_frame", "ns"),
    ("core.absorb_ns_per_report", "ns"),
    ("service.submit_ns_per_report", "ns"),
    ("service.stage_self_ns_per_report", "ns"),
    ("storage.ingest_ns_per_report", "ns"),
    ("storage.wal_self_ns_per_report", "ns"),
    ("storage.wal_bytes_per_report", "B"),
    ("net.ingest_ns_per_report", "ns"),
    ("net.ingest_self_ns_per_report", "ns"),
    ("net.bytes_per_report", "B"),
    ("ladder.ingest_sum_over_e2e", "ratio"),
    // Query ladder, per call at the workload's domain size.
    ("transforms.fwht_ns", "ns"),
    ("transforms.haar_inverse_ns", "ns"),
    ("core.enforce_consistency_ns", "ns"),
    ("core.estimate_ns", "ns"),
    ("snapshot.freeze_ns", "ns"),
    ("snapshot.freeze_self_ns", "ns"),
    ("service.refresh_dirty_ns", "ns"),
    ("service.refresh_clean_ns", "ns"),
    ("service.merge_self_ns", "ns"),
    ("snapshot.range_ns", "ns"),
    ("snapshot.quantile_ns", "ns"),
    ("net.query_fresh_ns", "ns"),
    ("net.query_self_ns", "ns"),
    ("ladder.query_sum_over_e2e", "ratio"),
    // Recovery, checkpoint, window, replication, accuracy, tails.
    ("storage.recover_ns_per_report", "ns"),
    ("storage.checkpoint_ns", "ns"),
    ("storage.checkpoint_bytes", "B"),
    ("window.seal_ns", "ns"),
    ("window.window_snapshot_ns", "ns"),
    ("net.seal_self_ns", "ns"),
    ("repl.catchup_ns_per_record", "ns"),
    ("repl.records", "count"),
    ("core.range_mse", "ratio"),
    ("core.quantile_abs_err_mean", "count"),
    ("net.ack_p99_us", "us"),
    ("net.ack_p99_9_us", "us"),
    ("net.query_fresh_p99_us", "us"),
    ("net.query_cached_p99_us", "us"),
    ("trace.overhead_pct", "%"),
    ("trace.harness_self_pct", "%"),
];

pub fn end_to_end() -> Vec<Named> {
    END_TO_END
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect()
}

/// Every per-layer metric name with its unit, oracle table included.
pub fn per_layer() -> Vec<Named> {
    let mut all: Vec<Named> = PER_LAYER
        .iter()
        .map(|&(name, unit)| (name.to_string(), unit))
        .collect();
    for side in ["absorb", "estimate"] {
        for oracle in ORACLES {
            all.push((format!("freq_oracle.{oracle}_{side}_ns"), "ns"));
        }
    }
    all
}

/// Letters, digits, `_`, `.` and `-`; starts with a letter or digit; at
/// most 64 characters.
pub fn valid_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    (1..=64).contains(&name.len())
        && name.chars().all(ok)
        && name.starts_with(|c: char| c.is_ascii_alphanumeric())
}

/// Values measured in one run, in the order they were taken.
#[derive(Debug, Default, Clone)]
pub struct Metrics(Vec<(String, f64)>);

impl Metrics {
    pub fn set(&mut self, name: &str, value: f64) {
        debug_assert!(valid_name(name), "{name}");
        match self.0.iter_mut().find(|(n, _)| n == name) {
            Some(slot) => slot.1 = value,
            None => self.0.push((name.to_string(), value)),
        }
    }

    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// The `{"name": {"value": v, "unit": u}}` object for exactly the
    /// metrics in `names`, or the first name that was never measured.
    pub fn to_json(&self, names: &[Named]) -> Result<Json, String> {
        let mut pairs = Vec::with_capacity(names.len());
        for (name, unit) in names {
            let value = self
                .get(name)
                .ok_or_else(|| format!("metric {name} was not measured"))?;
            pairs.push((
                name.to_string(),
                Json::obj([
                    ("value", Json::Num(value)),
                    ("unit", Json::Str((*unit).into())),
                ]),
            ));
        }
        Ok(Json::Obj(pairs))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_metric_name_and_unit_is_in_the_contract_charset() {
        let unit_ok = |u: &str| {
            (1..=16).contains(&u.len())
                && u.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
        };
        let mut seen = std::collections::HashSet::new();
        for (name, unit) in end_to_end().into_iter().chain(per_layer()) {
            assert!(valid_name(&name), "{name}");
            assert!(unit_ok(unit), "{name}: unit {unit}");
            assert!(seen.insert(name.clone()), "{name} listed twice");
        }
        assert!(seen.len() - END_TO_END.len() <= 128);
        for bad in ["", ".x", "a b", "µs", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad:?}");
        }
    }

    #[test]
    fn to_json_names_the_missing_metric() {
        let mut m = Metrics::default();
        m.set("setup_s", 1.25);
        m.set("setup_s", 1.5);
        assert_eq!(m.get("setup_s"), Some(1.5));
        let err = m.to_json(&end_to_end()).unwrap_err();
        assert!(err.contains("ingest_reports_per_s"), "{err}");
        let one = m.to_json(&[("setup_s".to_string(), "s")]).unwrap();
        assert_eq!(
            one.to_string(),
            r#"{"setup_s": {"value": 1.5, "unit": "s"}}"#
        );
    }
}
