//! Resilience configuration `(n, f)`.

use crate::error::ConfigError;
use crate::PartyId;
use std::fmt;

/// System size `n` and fault budget `f`.
///
/// # Examples
///
/// ```
/// use gcl_types::Config;
/// let cfg = Config::new(9, 2)?;
/// assert_eq!(cfg.quorum(), 7);
/// assert!(cfg.supports_brb()); // 9 >= 3*2 + 1
/// assert!(cfg.supports_two_round_psync()); // 9 >= 5*2 - 1
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Config {
    n: usize,
    f: usize,
}

impl Config {
    /// Creates a configuration.
    ///
    /// # Errors
    ///
    /// Returns [`ConfigError`] when `n < 2`, or `f >= n`.
    pub fn new(n: usize, f: usize) -> Result<Self, ConfigError> {
        if n < 2 {
            return Err(ConfigError::TooFewParties { n });
        }
        if f >= n {
            return Err(ConfigError::TooManyFaults { n, f });
        }
        Ok(Config { n, f })
    }

    /// Number of parties.
    pub const fn n(&self) -> usize {
        self.n
    }

    /// Maximum number of Byzantine parties tolerated.
    pub const fn f(&self) -> usize {
        self.f
    }

    /// The standard quorum size `n − f`.
    pub const fn quorum(&self) -> usize {
        self.n - self.f
    }

    /// `f + 1`, the smallest set guaranteed to contain an honest party.
    pub const fn honest_witness(&self) -> usize {
        self.f + 1
    }

    /// Iterator over all party ids.
    pub fn parties(&self) -> impl Iterator<Item = PartyId> + '_ {
        (0..self.n as u32).map(PartyId::new)
    }

    /// True iff `n ≥ 3f + 1` (BRB / psync-BB solvable).
    pub const fn supports_brb(&self) -> bool {
        self.n > 3 * self.f
    }

    /// True iff `n ≥ 5f − 1` — the paper's surprising tight threshold for
    /// 2-round good-case partially synchronous Byzantine broadcast
    /// (Theorem 2).
    pub const fn supports_two_round_psync(&self) -> bool {
        self.n + 1 >= 5 * self.f
    }

    /// `⌊n/(n−f)⌋ − 1`, the dishonest-majority lower-bound factor
    /// (Theorem 19), in units of Δ.
    pub const fn majority_lower_bound_factor(&self) -> usize {
        self.n / (self.n - self.f) - 1
    }
}

impl fmt::Display for Config {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(n={}, f={})", self.n, self.f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rejects_bad_configs() {
        assert!(matches!(
            Config::new(1, 0),
            Err(ConfigError::TooFewParties { .. })
        ));
        assert!(matches!(
            Config::new(3, 3),
            Err(ConfigError::TooManyFaults { .. })
        ));
    }

    #[test]
    fn two_round_psync_threshold_is_5f_minus_1() {
        // f = 1: n = 4 = 5f-1 supports 2 rounds (the paper's highlighted case).
        assert!(Config::new(4, 1).unwrap().supports_two_round_psync());
        // f = 2: n = 9 = 5f-1 yes, n = 8 = 5f-2 no.
        assert!(Config::new(9, 2).unwrap().supports_two_round_psync());
        assert!(!Config::new(8, 2).unwrap().supports_two_round_psync());
        // f = 3: threshold at 14.
        assert!(Config::new(14, 3).unwrap().supports_two_round_psync());
        assert!(!Config::new(13, 3).unwrap().supports_two_round_psync());
    }

    #[test]
    fn quorums() {
        let c = Config::new(9, 2).unwrap();
        assert_eq!(c.quorum(), 7);
        assert_eq!(c.honest_witness(), 3);
        assert_eq!(c.parties().count(), 9);
    }

    #[test]
    fn majority_factor() {
        // n=10, f=8: floor(10/2)-1 = 4.
        assert_eq!(Config::new(10, 8).unwrap().majority_lower_bound_factor(), 4);
        // n=4, f=2: floor(4/2)-1 = 1.
        assert_eq!(Config::new(4, 2).unwrap().majority_lower_bound_factor(), 1);
    }

    #[test]
    fn display() {
        assert_eq!(Config::new(4, 1).unwrap().to_string(), "(n=4, f=1)");
    }
}
