//! Error type for oracle construction and use.

use std::fmt;

/// Errors raised when configuring or feeding a frequency oracle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OracleError {
    /// The domain must contain at least one item.
    EmptyDomain,
    /// HRR requires a power-of-two domain (the Hadamard matrix is only
    /// defined for `D = 2^k`).
    DomainNotPowerOfTwo(usize),
    /// A reported or encoded value lies outside the configured domain.
    ValueOutOfDomain {
        /// The offending value.
        value: usize,
        /// The configured domain size.
        domain: usize,
    },
    /// A report was built for a different domain size than the server's.
    ReportDomainMismatch {
        /// Domain the report was encoded for.
        report: usize,
        /// Domain the server expects.
        server: usize,
    },
    /// Merged or subtracted state was built under a different privacy
    /// budget than this accumulator. The shapes agree — ε does not change
    /// a report's shape — but the unbiasing constants derive from ε, so
    /// combining the two would bias every estimate. Both budgets are
    /// carried as `f64::to_bits`, which keeps the error `Eq`.
    EpsilonMismatch {
        /// ε of the state being merged or subtracted, as `f64` bits.
        other: u64,
        /// ε of this accumulator, as `f64` bits.
        server: u64,
    },
    /// A subtraction would drive an accumulator negative — the subtrahend
    /// was never merged into this state, so removing it is meaningless.
    SubtractUnderflow,
    /// Persisted accumulator state failed validation on load: wrong
    /// statistic length, or counts no sequence of absorbed reports could
    /// have produced (a per-item count above the report total).
    InvalidState(&'static str),
    /// The statistics are too large for exact 64-bit prefix tables: some
    /// prefix of the per-item statistic could leave `i64`. Reachable only
    /// from a restored state near the integer limits, never from ingest
    /// at any realistic volume.
    StatisticOverflow,
}

impl fmt::Display for OracleError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::EmptyDomain => write!(f, "domain must contain at least one item"),
            Self::DomainNotPowerOfTwo(d) => {
                write!(f, "HRR requires a power-of-two domain, got {d}")
            }
            Self::ValueOutOfDomain { value, domain } => {
                write!(f, "value {value} outside domain of size {domain}")
            }
            Self::ReportDomainMismatch { report, server } => {
                write!(
                    f,
                    "report encoded for domain {report}, server expects {server}"
                )
            }
            Self::EpsilonMismatch { other, server } => write!(
                f,
                "state built for epsilon {}, accumulator holds epsilon {}",
                f64::from_bits(*other),
                f64::from_bits(*server)
            ),
            Self::SubtractUnderflow => {
                write!(f, "subtrahend state was never merged into this accumulator")
            }
            Self::InvalidState(what) => write!(f, "invalid persisted state: {what}"),
            Self::StatisticOverflow => {
                write!(f, "statistics too large for exact 64-bit prefix tables")
            }
        }
    }
}

impl std::error::Error for OracleError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert!(OracleError::EmptyDomain
            .to_string()
            .contains("at least one"));
        assert!(OracleError::DomainNotPowerOfTwo(6)
            .to_string()
            .contains('6'));
        let e = OracleError::ValueOutOfDomain {
            value: 9,
            domain: 8,
        };
        assert!(e.to_string().contains("9"));
        let e = OracleError::ReportDomainMismatch {
            report: 4,
            server: 8,
        };
        assert!(e.to_string().contains("4"));
        let e = OracleError::EpsilonMismatch {
            other: 2.5f64.to_bits(),
            server: 1.25f64.to_bits(),
        };
        assert!(e.to_string().contains("epsilon 2.5"));
        assert!(e.to_string().contains("epsilon 1.25"));
        assert!(OracleError::SubtractUnderflow
            .to_string()
            .contains("never merged"));
        assert!(OracleError::InvalidState("count above report total")
            .to_string()
            .contains("persisted state"));
        assert!(OracleError::StatisticOverflow
            .to_string()
            .contains("64-bit"));
    }
}
