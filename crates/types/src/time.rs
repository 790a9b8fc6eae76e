//! Simulated-clock newtypes.
//!
//! The paper (Section 2) distinguishes the *actual* per-execution delay bound
//! `δ` from the *conservative* model bound `Δ`, and distinguishes each
//! party's *local* clock (which starts at 0 when the party starts the
//! protocol, possibly skewed) from the *global* clock of the execution.
//! Mixing those up is the classic source of off-by-σ bugs, so local and
//! global instants are separate types here and only convert through an
//! explicit start offset.
//!
//! All quantities are integer **microseconds**.

use std::fmt;
use std::ops::{Add, AddAssign, Div, Mul, Sub};

/// A span of simulated time, in microseconds.
///
/// # Examples
///
/// ```
/// use gcl_types::Duration;
/// let delta = Duration::from_micros(1_000);
/// assert_eq!((delta * 3) / 2, Duration::from_micros(1_500));
/// assert_eq!(delta.halved(), Duration::from_micros(500));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Duration(u64);

impl Duration {
    /// The zero duration.
    pub const ZERO: Duration = Duration(0);

    /// Creates a duration from microseconds.
    pub const fn from_micros(micros: u64) -> Self {
        Duration(micros)
    }

    /// Creates a duration from milliseconds.
    pub const fn from_millis(millis: u64) -> Self {
        Duration(millis * 1_000)
    }

    /// Returns the duration in microseconds.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Half of this duration, rounding down.
    ///
    /// The `(Δ+1.5δ)`-BB protocol (Figure 9) manipulates `0.5 d` terms;
    /// scenarios should pick even parameters so halving is exact.
    #[must_use]
    pub const fn halved(self) -> Duration {
        Duration(self.0 / 2)
    }

    /// Saturating subtraction.
    #[must_use]
    pub const fn saturating_sub(self, rhs: Duration) -> Duration {
        Duration(self.0.saturating_sub(rhs.0))
    }

    /// Checked division by an integer, used to build discretization grids.
    #[must_use]
    pub const fn div_ceil(self, rhs: u64) -> Duration {
        Duration(self.0.div_ceil(rhs))
    }
}

impl fmt::Display for Duration {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}us", self.0)
    }
}

impl Add for Duration {
    type Output = Duration;
    fn add(self, rhs: Duration) -> Duration {
        Duration(self.0 + rhs.0)
    }
}

impl AddAssign for Duration {
    fn add_assign(&mut self, rhs: Duration) {
        self.0 += rhs.0;
    }
}

impl Sub for Duration {
    type Output = Duration;
    fn sub(self, rhs: Duration) -> Duration {
        Duration(self.0 - rhs.0)
    }
}

impl Mul<u64> for Duration {
    type Output = Duration;
    fn mul(self, rhs: u64) -> Duration {
        Duration(self.0 * rhs)
    }
}

impl Div<u64> for Duration {
    type Output = Duration;
    fn div(self, rhs: u64) -> Duration {
        Duration(self.0 / rhs)
    }
}

/// An instant on the *global* (execution) clock.
///
/// Global time 0 is the instant the earliest party starts the protocol.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct GlobalTime(u64);

impl GlobalTime {
    /// The execution origin.
    pub const ZERO: GlobalTime = GlobalTime(0);

    /// Creates a global instant from microseconds since origin.
    pub const fn from_micros(micros: u64) -> Self {
        GlobalTime(micros)
    }

    /// Microseconds since the execution origin.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Elapsed global time since `earlier`; saturates at zero.
    #[must_use]
    pub const fn since(self, earlier: GlobalTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Converts to the local clock of a party that started at `start`.
    ///
    /// Returns `None` if this instant is before the party started.
    pub fn to_local(self, start: GlobalTime) -> Option<LocalTime> {
        self.0.checked_sub(start.0).map(LocalTime)
    }
}

impl fmt::Display for GlobalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "g+{}us", self.0)
    }
}

impl Add<Duration> for GlobalTime {
    type Output = GlobalTime;
    fn add(self, rhs: Duration) -> GlobalTime {
        GlobalTime(self.0 + rhs.0)
    }
}

/// An instant on one party's *local* clock (0 = that party's protocol start).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct LocalTime(u64);

impl LocalTime {
    /// The party's protocol start.
    pub const ZERO: LocalTime = LocalTime(0);

    /// Creates a local instant from microseconds since the party's start.
    pub const fn from_micros(micros: u64) -> Self {
        LocalTime(micros)
    }

    /// Microseconds since the party's start.
    pub const fn as_micros(self) -> u64 {
        self.0
    }

    /// Elapsed local time since `earlier`; saturates at zero.
    #[must_use]
    pub const fn since(self, earlier: LocalTime) -> Duration {
        Duration(self.0.saturating_sub(earlier.0))
    }

    /// Converts to global time for a party that started at `start`.
    pub fn to_global(self, start: GlobalTime) -> GlobalTime {
        GlobalTime(start.0 + self.0)
    }
}

impl fmt::Display for LocalTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "l+{}us", self.0)
    }
}

impl Add<Duration> for LocalTime {
    type Output = LocalTime;
    fn add(self, rhs: Duration) -> LocalTime {
        LocalTime(self.0 + rhs.0)
    }
}

/// Per-party protocol start offsets — the clock-skew model of Section 2.
///
/// In the *synchronized start* model every offset is zero; in the
/// *unsynchronized start* model offsets are bounded by the skew `σ`.
///
/// # Examples
///
/// ```
/// use gcl_types::{Duration, GlobalTime, PartyId, SkewSchedule};
/// let sched = SkewSchedule::synchronized(4);
/// assert_eq!(sched.start_of(PartyId::new(2)), GlobalTime::ZERO);
/// assert_eq!(sched.max_skew(), Duration::ZERO);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SkewSchedule {
    starts: Vec<GlobalTime>,
}

impl SkewSchedule {
    /// All `n` parties start at global time 0 (σ = 0).
    pub fn synchronized(n: usize) -> Self {
        SkewSchedule {
            starts: vec![GlobalTime::ZERO; n],
        }
    }

    /// Explicit start instants, one per party.
    ///
    /// # Panics
    ///
    /// Panics if `starts` is empty.
    pub fn from_starts(starts: Vec<GlobalTime>) -> Self {
        assert!(!starts.is_empty(), "at least one party required");
        SkewSchedule { starts }
    }

    /// Every party starts at 0 except those listed, which start late.
    pub fn with_late_parties(n: usize, late: &[(PartyId, Duration)]) -> Self {
        let mut starts = vec![GlobalTime::ZERO; n];
        for (p, d) in late {
            starts[p.as_usize()] = GlobalTime::ZERO + *d;
        }
        SkewSchedule { starts }
    }

    /// Number of parties covered.
    pub fn len(&self) -> usize {
        self.starts.len()
    }

    /// True when no party is covered (never constructible via public API).
    pub fn is_empty(&self) -> bool {
        self.starts.is_empty()
    }

    /// The global instant at which `party` starts its protocol and clock.
    pub fn start_of(&self, party: PartyId) -> GlobalTime {
        self.starts[party.as_usize()]
    }

    /// The realized skew σ = max start − min start.
    pub fn max_skew(&self) -> Duration {
        let max = self
            .starts
            .iter()
            .max()
            .copied()
            .unwrap_or(GlobalTime::ZERO);
        let min = self
            .starts
            .iter()
            .min()
            .copied()
            .unwrap_or(GlobalTime::ZERO);
        max.since(min)
    }
}

use crate::PartyId;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn duration_arithmetic() {
        let d = Duration::from_millis(1);
        assert_eq!(d.as_micros(), 1_000);
        assert_eq!(d + d, Duration::from_micros(2_000));
        assert_eq!(d - Duration::from_micros(400), Duration::from_micros(600));
        assert_eq!(d * 2, Duration::from_micros(2_000));
        assert_eq!(d / 4, Duration::from_micros(250));
        assert_eq!(d.halved(), Duration::from_micros(500));
    }

    #[test]
    fn duration_saturating() {
        assert_eq!(
            Duration::from_micros(3).saturating_sub(Duration::from_micros(5)),
            Duration::ZERO
        );
    }

    #[test]
    fn local_global_conversion() {
        let start = GlobalTime::from_micros(100);
        let l = LocalTime::from_micros(50);
        let g = l.to_global(start);
        assert_eq!(g, GlobalTime::from_micros(150));
        assert_eq!(g.to_local(start), Some(l));
        assert_eq!(GlobalTime::from_micros(50).to_local(start), None);
    }

    #[test]
    fn since_saturates() {
        let a = GlobalTime::from_micros(10);
        let b = GlobalTime::from_micros(30);
        assert_eq!(b.since(a), Duration::from_micros(20));
        assert_eq!(a.since(b), Duration::ZERO);
    }

    #[test]
    fn skew_schedule_synchronized() {
        let s = SkewSchedule::synchronized(3);
        assert_eq!(s.len(), 3);
        assert!(!s.is_empty());
        assert_eq!(s.max_skew(), Duration::ZERO);
    }

    #[test]
    fn skew_schedule_late_parties() {
        let s =
            SkewSchedule::with_late_parties(3, &[(PartyId::new(2), Duration::from_micros(500))]);
        assert_eq!(s.start_of(PartyId::new(0)), GlobalTime::ZERO);
        assert_eq!(s.start_of(PartyId::new(2)), GlobalTime::from_micros(500));
        assert_eq!(s.max_skew(), Duration::from_micros(500));
    }

    #[test]
    fn display_impls() {
        assert_eq!(Duration::from_micros(5).to_string(), "5us");
        assert_eq!(GlobalTime::from_micros(5).to_string(), "g+5us");
        assert_eq!(LocalTime::from_micros(5).to_string(), "l+5us");
    }
}
