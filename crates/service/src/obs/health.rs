//! The component health model: a pure function from a frozen
//! [`RegistrySnapshot`] to per-component verdicts and one node verdict.
//!
//! Health is *derived*, never stored: every signal it reads — the
//! [`names::STORAGE_WEDGED`] gauge, the WAL append-latency percentiles,
//! the open-session count, the replication lag gauge — already lives in
//! the registry, so the ops endpoint's `GET /health` and an in-process
//! [`evaluate`] over `LdpServer::registry()` are the same computation
//! over the same snapshot. A component only appears in the report when its tier's
//! signals are present in the snapshot (a plain in-memory server has no
//! storage component), so the report's shape tracks the node's actual
//! composition.

use crate::obs::expose::RegistrySnapshot;
use crate::obs::instruments::names;

/// A component's (or the node's) health verdict, worst-wins ordered:
/// `Healthy < Degraded < Unhealthy`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum HealthState {
    /// All signals inside their thresholds.
    Healthy,
    /// Operable but outside a threshold (latency, sessions, lag).
    Degraded,
    /// Not operable (the store wedged fail-stop, lag past the hard
    /// threshold).
    Unhealthy,
}

impl HealthState {
    /// The state's canonical name (`Healthy` / `Degraded` / `Unhealthy`).
    #[must_use]
    pub fn as_str(self) -> &'static str {
        match self {
            Self::Healthy => "Healthy",
            Self::Degraded => "Degraded",
            Self::Unhealthy => "Unhealthy",
        }
    }
}

/// The thresholds [`evaluate`] judges a snapshot against. Every field
/// has a production-shaped default; tests inject tighter ones to flip
/// verdicts deterministically.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HealthThresholds {
    /// Degraded when the WAL append (group-commit incl. fsync) p99
    /// bucket bound exceeds this many nanoseconds.
    pub wal_append_p99_ns: u64,
    /// Degraded when this many sessions are open simultaneously.
    pub sessions_open: u64,
    /// Degraded when replication lag reaches this many records.
    pub follower_lag_degraded: u64,
    /// Unhealthy when replication lag reaches this many records.
    pub follower_lag_unhealthy: u64,
}

impl Default for HealthThresholds {
    fn default() -> Self {
        Self {
            // One WAL group commit slower than 250ms at p99 means the
            // disk is in trouble, not just busy.
            wal_append_p99_ns: 250_000_000,
            // Far above the tested 10k-session concurrency gate.
            sessions_open: 50_000,
            follower_lag_degraded: 4_096,
            follower_lag_unhealthy: 262_144,
        }
    }
}

/// One component's verdict with a human-readable reason.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ComponentHealth {
    /// The component (`storage`, `net`, `repl`).
    pub component: String,
    /// The verdict.
    pub state: HealthState,
    /// Why — the signal and threshold that produced the state.
    pub detail: String,
}

/// The node's health: per-component verdicts rolled into one
/// worst-wins node verdict.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct HealthReport {
    /// The components present in the judged snapshot, in evaluation
    /// order (`storage`, `net`, `repl`).
    pub components: Vec<ComponentHealth>,
}

impl HealthReport {
    /// The node verdict: the worst component state (Healthy when no
    /// component reported — an empty registry has nothing wrong).
    #[must_use]
    pub fn verdict(&self) -> HealthState {
        self.components
            .iter()
            .map(|c| c.state)
            .max()
            .unwrap_or(HealthState::Healthy)
    }

    /// The state of `component`, if it was evaluated.
    #[must_use]
    pub fn component(&self, name: &str) -> Option<&ComponentHealth> {
        self.components.iter().find(|c| c.component == name)
    }

    /// The `GET /health` body: the verdict and each component as JSON.
    #[must_use]
    pub fn render_json(&self) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = write!(
            out,
            "{{\n  \"verdict\": \"{}\",\n  \"components\": [",
            self.verdict().as_str()
        );
        for (i, c) in self.components.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            let _ = write!(
                out,
                "\n    {{\"component\": \"{}\", \"state\": \"{}\", \"detail\": \"{}\"}}",
                json_escape(&c.component),
                c.state.as_str(),
                json_escape(&c.detail)
            );
        }
        out.push_str("\n  ]\n}\n");
        out
    }
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push(' '),
            c => out.push(c),
        }
    }
    out
}

/// Judges `snapshot` against `thresholds`. Components appear only when
/// their tier's signals are present in the snapshot:
///
/// * `storage` — [`names::STORAGE_WEDGED`] set ⇒ Unhealthy (fail-stop);
///   WAL append p99 past [`HealthThresholds::wal_append_p99_ns`] ⇒
///   Degraded.
/// * `net` — open sessions past [`HealthThresholds::sessions_open`] ⇒
///   Degraded.
/// * `repl` — [`names::REPL_FOLLOWER_LAG_RECORDS`] past the degraded /
///   unhealthy lag thresholds ⇒ Degraded / Unhealthy (on a leader the
///   gauge tracks its slowest follower; on a follower, its own lag
///   behind the leader's announced tail).
#[must_use]
pub fn evaluate(snapshot: &RegistrySnapshot, thresholds: &HealthThresholds) -> HealthReport {
    let mut components = Vec::new();

    if let Some(wedged) = snapshot.gauge(names::STORAGE_WEDGED) {
        let (state, detail) = if wedged != 0 {
            (
                HealthState::Unhealthy,
                "store wedged fail-stop: a WAL append or fsync failed; \
                 ingest is refused until restart"
                    .to_string(),
            )
        } else {
            let p99 = snapshot
                .histo(names::WAL_APPEND_NS)
                .filter(|h| h.count() > 0)
                .map_or(0, |h| h.quantile_bound(0.99));
            if p99 > thresholds.wal_append_p99_ns {
                (
                    HealthState::Degraded,
                    format!(
                        "WAL append p99 ≤ {p99}ns exceeds the {}ns threshold",
                        thresholds.wal_append_p99_ns
                    ),
                )
            } else {
                (
                    HealthState::Healthy,
                    format!("not wedged; WAL append p99 ≤ {p99}ns"),
                )
            }
        };
        components.push(ComponentHealth {
            component: "storage".to_string(),
            state,
            detail,
        });
    }

    if let Some(open) = snapshot.gauge(names::NET_SESSIONS_OPEN) {
        let (state, detail) = if open >= thresholds.sessions_open {
            (
                HealthState::Degraded,
                format!(
                    "{open} open sessions at/above the {} threshold",
                    thresholds.sessions_open
                ),
            )
        } else {
            (HealthState::Healthy, format!("{open} open sessions"))
        };
        components.push(ComponentHealth {
            component: "net".to_string(),
            state,
            detail,
        });
    }

    if let Some(lag) = snapshot.gauge(names::REPL_FOLLOWER_LAG_RECORDS) {
        let (state, detail) = if lag >= thresholds.follower_lag_unhealthy {
            (
                HealthState::Unhealthy,
                format!(
                    "replication lag {lag} records at/above the {} hard threshold",
                    thresholds.follower_lag_unhealthy
                ),
            )
        } else if lag >= thresholds.follower_lag_degraded {
            (
                HealthState::Degraded,
                format!(
                    "replication lag {lag} records at/above the {} threshold",
                    thresholds.follower_lag_degraded
                ),
            )
        } else {
            (
                HealthState::Healthy,
                format!("replication lag {lag} records"),
            )
        };
        components.push(ComponentHealth {
            component: "repl".to_string(),
            state,
            detail,
        });
    }

    HealthReport { components }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::MetricsRegistry;

    fn snapshot_with(build: impl FnOnce(&MetricsRegistry)) -> RegistrySnapshot {
        let registry = MetricsRegistry::new();
        build(&registry);
        registry.snapshot()
    }

    #[test]
    fn empty_snapshot_is_healthy_with_no_components() {
        let report = evaluate(&RegistrySnapshot::default(), &HealthThresholds::default());
        assert_eq!(report.verdict(), HealthState::Healthy);
        assert!(report.components.is_empty());
    }

    #[test]
    fn wedged_store_is_unhealthy_and_wins_the_verdict() {
        let snapshot = snapshot_with(|r| {
            r.gauge(names::STORAGE_WEDGED).set(1);
            r.gauge(names::NET_SESSIONS_OPEN).set(1);
        });
        let report = evaluate(&snapshot, &HealthThresholds::default());
        assert_eq!(report.verdict(), HealthState::Unhealthy);
        assert_eq!(
            report.component("storage").unwrap().state,
            HealthState::Unhealthy
        );
        assert_eq!(report.component("net").unwrap().state, HealthState::Healthy);
    }

    #[test]
    fn follower_lag_flips_degraded_then_unhealthy() {
        let thresholds = HealthThresholds {
            follower_lag_degraded: 10,
            follower_lag_unhealthy: 100,
            ..HealthThresholds::default()
        };
        for (lag, want) in [
            (0, HealthState::Healthy),
            (9, HealthState::Healthy),
            (10, HealthState::Degraded),
            (99, HealthState::Degraded),
            (100, HealthState::Unhealthy),
        ] {
            let snapshot = snapshot_with(|r| r.gauge(names::REPL_FOLLOWER_LAG_RECORDS).set(lag));
            let report = evaluate(&snapshot, &thresholds);
            assert_eq!(report.verdict(), want, "lag {lag}");
        }
    }

    #[test]
    fn slow_wal_and_many_sessions_degrade_without_unhealthy() {
        let thresholds = HealthThresholds {
            wal_append_p99_ns: 1_000,
            sessions_open: 3,
            ..HealthThresholds::default()
        };
        let snapshot = snapshot_with(|r| {
            r.gauge(names::STORAGE_WEDGED).set(0);
            for _ in 0..100 {
                r.histo(names::WAL_APPEND_NS).record(1_000_000);
            }
            r.gauge(names::NET_SESSIONS_OPEN).set(3);
        });
        let report = evaluate(&snapshot, &thresholds);
        assert_eq!(report.verdict(), HealthState::Degraded);
        assert_eq!(
            report.component("storage").unwrap().state,
            HealthState::Degraded
        );
        assert_eq!(
            report.component("net").unwrap().state,
            HealthState::Degraded
        );
    }

    #[test]
    fn json_rendering_names_the_verdict() {
        let snapshot = snapshot_with(|r| r.gauge(names::REPL_FOLLOWER_LAG_RECORDS).set(0));
        let report = evaluate(&snapshot, &HealthThresholds::default());
        let json = report.render_json();
        assert!(json.contains("\"verdict\": \"Healthy\""));
        assert!(json.contains("\"component\": \"repl\""));
    }
}
