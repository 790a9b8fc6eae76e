//! Error types shared across the workspace.

use std::error::Error;
use std::fmt;

/// Invalid `(n, f)` configuration.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ConfigError {
    /// Fewer than two parties.
    TooFewParties {
        /// The offending party count.
        n: usize,
    },
    /// `f >= n`.
    TooManyFaults {
        /// Party count.
        n: usize,
        /// Offending fault budget.
        f: usize,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::TooFewParties { n } => {
                write!(f, "at least 2 parties required, got {n}")
            }
            ConfigError::TooManyFaults { n, f: faults } => {
                write!(f, "fault budget {faults} must be below n = {n}")
            }
        }
    }
}

impl Error for ConfigError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn config_error_messages() {
        assert_eq!(
            ConfigError::TooFewParties { n: 1 }.to_string(),
            "at least 2 parties required, got 1"
        );
        assert!(ConfigError::TooManyFaults { n: 3, f: 3 }
            .to_string()
            .contains("below n = 3"));
    }

    #[test]
    fn errors_are_std_errors() {
        fn assert_err<E: Error + Send + Sync + 'static>() {}
        assert_err::<ConfigError>();
    }
}
