//! Exposition: frozen registry snapshots, their exact merge/subtract
//! algebra, and their one rendering — the Prometheus text of
//! `GET /metrics` ([`RegistrySnapshot::render_prom`]).

use crate::obs::registry::{Histo, HistoSnapshot, ObsError};

/// A frozen metric value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MetricValue {
    /// A counter total.
    Counter(u64),
    /// A gauge level.
    Gauge(u64),
    /// A frozen histogram (boxed: its fixed bucket array dwarfs the
    /// scalar kinds).
    Histo(Box<HistoSnapshot>),
}

/// One named metric in a snapshot.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricEntry {
    /// The registry name (dotted, `tier.metric`).
    pub name: String,
    /// The frozen value.
    pub value: MetricValue,
}

/// A frozen view of a whole [`crate::obs::MetricsRegistry`]: what
/// `GET /metrics` renders.
///
/// Snapshots obey the same exact algebra as the mechanism servers:
/// [`RegistrySnapshot::merge`] folds counters by addition, gauges by max,
/// and histograms by exact bucket addition, and
/// [`RegistrySnapshot::subtract`] is merge's exact inverse — so per-shard
/// or per-process snapshots fan in losslessly, just like
/// `MergeableServer` state.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct RegistrySnapshot {
    entries: Vec<MetricEntry>,
}

impl RegistrySnapshot {
    /// Builds a snapshot from entries, sorting by name; of duplicate
    /// names the first (in sorted input order) wins, so the entry list is
    /// always strictly ascending — the canonical form lookups and the
    /// merge/subtract algebra binary-search.
    #[must_use]
    pub fn from_entries(mut entries: Vec<MetricEntry>) -> Self {
        entries.sort_by(|a, b| a.name.cmp(&b.name));
        entries.dedup_by(|b, a| a.name == b.name);
        Self { entries }
    }

    /// The entries, sorted by name.
    #[must_use]
    pub fn entries(&self) -> &[MetricEntry] {
        &self.entries
    }

    /// Number of metrics.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the snapshot is empty.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up a metric by name.
    #[must_use]
    pub fn get(&self, name: &str) -> Option<&MetricValue> {
        self.entries
            .binary_search_by(|e| e.name.as_str().cmp(name))
            .ok()
            .map(|i| &self.entries[i].value)
    }

    /// The counter `name`, if present with that kind.
    #[must_use]
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Counter(v) => Some(*v),
            _ => None,
        }
    }

    /// The gauge `name`, if present with that kind.
    #[must_use]
    pub fn gauge(&self, name: &str) -> Option<u64> {
        match self.get(name)? {
            MetricValue::Gauge(v) => Some(*v),
            _ => None,
        }
    }

    /// The histogram `name`, if present with that kind.
    #[must_use]
    pub fn histo(&self, name: &str) -> Option<&HistoSnapshot> {
        match self.get(name)? {
            MetricValue::Histo(h) => Some(h),
            _ => None,
        }
    }

    /// Merges `other` in by name union: counters add, gauges take the
    /// max, histograms merge exactly ([`HistoSnapshot::merge`]); metrics
    /// only in `other` are copied in. **All-or-nothing**: on any error
    /// this snapshot is unchanged.
    ///
    /// # Errors
    ///
    /// [`ObsError::KindMismatch`] if a shared name holds different kinds;
    /// [`ObsError::Overflow`] if a count would overflow.
    pub fn merge(&mut self, other: &Self) -> Result<(), ObsError> {
        let mut staged = self.entries.clone();
        for theirs in &other.entries {
            match staged.binary_search_by(|e| e.name.cmp(&theirs.name)) {
                Err(at) => staged.insert(at, theirs.clone()),
                Ok(at) => match (&mut staged[at].value, &theirs.value) {
                    (MetricValue::Counter(mine), MetricValue::Counter(v)) => {
                        *mine = mine.checked_add(*v).ok_or(ObsError::Overflow)?;
                    }
                    (MetricValue::Gauge(mine), MetricValue::Gauge(v)) => {
                        *mine = (*mine).max(*v);
                    }
                    (MetricValue::Histo(mine), MetricValue::Histo(h)) => {
                        mine.merge(h)?;
                    }
                    _ => return Err(ObsError::KindMismatch),
                },
            }
        }
        self.entries = staged;
        Ok(())
    }

    /// The exact inverse of [`RegistrySnapshot::merge`] for the additive
    /// kinds: counters and histograms in `other` are subtracted exactly;
    /// gauges are levels, not totals, so they are left unchanged. Every
    /// name in `other` must exist here with the same kind.
    /// **All-or-nothing**: on any error this snapshot is unchanged.
    ///
    /// # Errors
    ///
    /// [`ObsError::Underflow`] if a metric in `other` is missing here or
    /// its counts were never merged in; [`ObsError::KindMismatch`] if a
    /// shared name holds different kinds.
    pub fn subtract(&mut self, other: &Self) -> Result<(), ObsError> {
        let mut staged = self.entries.clone();
        for theirs in &other.entries {
            let at = staged
                .binary_search_by(|e| e.name.cmp(&theirs.name))
                .map_err(|_| ObsError::Underflow)?;
            match (&mut staged[at].value, &theirs.value) {
                (MetricValue::Counter(mine), MetricValue::Counter(v)) => {
                    *mine = mine.checked_sub(*v).ok_or(ObsError::Underflow)?;
                }
                (MetricValue::Gauge(_), MetricValue::Gauge(_)) => {}
                (MetricValue::Histo(mine), MetricValue::Histo(h)) => {
                    mine.subtract(h)?;
                }
                _ => return Err(ObsError::KindMismatch),
            }
        }
        self.entries = staged;
        Ok(())
    }

    // --- renderers ------------------------------------------------------

    /// Prometheus text exposition (format version 0.0.4), the body of
    /// the ops endpoint's `GET /metrics`: dotted names sanitized to
    /// `[a-zA-Z0-9_]`, one `# TYPE` line per metric, histograms rendered
    /// **cumulatively** as `name_bucket{le="…"}` / `name_sum` /
    /// `name_count`, with the log-histogram bucket upper bounds
    /// ([`Histo::bucket_bounds`]) as the `le` edges. Only buckets that
    /// hold samples emit a line (plus the mandatory `+Inf` edge), so the
    /// output stays proportional to the data, and the cumulative counts
    /// are monotone by construction — the format-validity test parses
    /// this output back and checks both properties.
    #[must_use]
    pub fn render_prom(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for entry in &self.entries {
            let name = prom_name(&entry.name);
            match &entry.value {
                MetricValue::Counter(v) => {
                    let _ = writeln!(out, "# TYPE {name} counter");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Gauge(v) => {
                    let _ = writeln!(out, "# TYPE {name} gauge");
                    let _ = writeln!(out, "{name} {v}");
                }
                MetricValue::Histo(h) => {
                    let _ = writeln!(out, "# TYPE {name} histogram");
                    let mut cumulative = 0u64;
                    for (i, &c) in h.buckets().iter().enumerate() {
                        if c == 0 {
                            continue;
                        }
                        cumulative += c;
                        let hi = Histo::bucket_bounds(i).1;
                        if hi == u64::MAX {
                            // The top bucket's upper edge is infinity;
                            // the explicit +Inf line below carries it.
                            continue;
                        }
                        let _ = writeln!(out, "{name}_bucket{{le=\"{hi}\"}} {cumulative}");
                    }
                    let _ = writeln!(out, "{name}_bucket{{le=\"+Inf\"}} {}", h.count());
                    let _ = writeln!(out, "{name}_sum {}", h.sum());
                    let _ = writeln!(out, "{name}_count {}", h.count());
                }
            }
        }
        out
    }
}

/// Maps a dotted registry name onto the Prometheus name charset: every
/// character outside `[a-zA-Z0-9_]` becomes `_`, and a leading digit is
/// prefixed with `_` (metric names must not start with a digit).
fn prom_name(name: &str) -> String {
    let mut out = String::with_capacity(name.len() + 1);
    for (i, ch) in name.chars().enumerate() {
        if i == 0 && ch.is_ascii_digit() {
            out.push('_');
        }
        if ch.is_ascii_alphanumeric() || ch == '_' {
            out.push(ch);
        } else {
            out.push('_');
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> RegistrySnapshot {
        let h = Histo::new();
        for v in [0u64, 1, 5, 5, 900, 70_000] {
            h.record(v);
        }
        RegistrySnapshot::from_entries(vec![
            MetricEntry {
                name: "a.counter".into(),
                value: MetricValue::Counter(42),
            },
            MetricEntry {
                name: "b.gauge".into(),
                value: MetricValue::Gauge(7),
            },
            MetricEntry {
                name: "c.histo".into(),
                value: MetricValue::Histo(Box::new(h.snapshot())),
            },
        ])
    }

    /// Entry order and duplicates never change a snapshot: any
    /// permutation of the same entries builds an equal snapshot (first of
    /// a duplicate name wins) and renders byte-identical Prometheus text.
    #[test]
    fn roundtrip_is_canonical() {
        let s = sample();
        let mut shuffled = s.entries().to_vec();
        shuffled.reverse();
        shuffled.push(MetricEntry {
            name: "a.counter".into(),
            value: MetricValue::Counter(0),
        });
        let rebuilt = RegistrySnapshot::from_entries(shuffled);
        assert_eq!(rebuilt, s);
        assert_eq!(rebuilt.render_prom(), s.render_prom());
        assert!(s.entries().windows(2).all(|w| w[0].name < w[1].name));
    }

    #[test]
    fn merge_then_subtract_roundtrips_bit_identically() {
        let mut a = sample();
        let before = a.clone();
        let b = sample();
        a.merge(&b).unwrap();
        assert_eq!(a.counter("a.counter"), Some(84));
        a.subtract(&b).unwrap();
        assert_eq!(a, before);
        // Subtracting something never merged is rejected, state unchanged.
        let mut tiny = RegistrySnapshot::from_entries(vec![MetricEntry {
            name: "a.counter".into(),
            value: MetricValue::Counter(1),
        }]);
        let saved = tiny.clone();
        assert_eq!(tiny.subtract(&b), Err(ObsError::Underflow));
        assert_eq!(tiny, saved);
    }

    #[test]
    fn prometheus_rendering_is_cumulative_and_sanitized() {
        let s = sample();
        let prom = s.render_prom();
        assert!(prom.contains("# TYPE a_counter counter\na_counter 42\n"));
        assert!(prom.contains("# TYPE b_gauge gauge\nb_gauge 7\n"));
        assert!(prom.contains("# TYPE c_histo histogram\n"));
        // 6 samples: the +Inf edge and the _count line agree exactly.
        assert!(prom.contains("c_histo_bucket{le=\"+Inf\"} 6\n"));
        assert!(prom.contains("c_histo_count 6\n"));
        // Cumulative counts are monotone across the bucket lines.
        let mut last = 0u64;
        for line in prom.lines().filter(|l| l.starts_with("c_histo_bucket")) {
            let v: u64 = line.rsplit(' ').next().unwrap().parse().unwrap();
            assert!(v >= last, "non-monotone cumulative bucket: {line}");
            last = v;
        }
        assert_eq!(prom_name("9weird.na-me"), "_9weird_na_me");
    }

    #[test]
    fn renderers_cover_every_kind() {
        let s = sample();
        let prom = s.render_prom();
        for family in ["a_counter counter", "b_gauge gauge", "c_histo histogram"] {
            assert!(prom.contains(&format!("# TYPE {family}\n")), "{family}");
        }
    }

    /// The delta between two snapshots of one live registry is exact for
    /// counters, and gauges are levels: subtract leaves the newer value.
    #[test]
    fn deltas_are_exact_and_gauges_stay_levels() {
        let registry = crate::obs::MetricsRegistry::new();
        let mut older = registry.snapshot();
        for i in 1..4u64 {
            registry.counter("t.frames").add(i * 10);
            registry.gauge("t.level").set(i * 7);
            let newer = registry.snapshot();
            let mut delta = newer.clone();
            delta.subtract(&older).unwrap();
            assert_eq!(delta.counter("t.frames"), Some(i * 10));
            assert_eq!(delta.gauge("t.level"), Some(i * 7));
            older = newer;
        }
    }
}
