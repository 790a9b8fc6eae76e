//! Trust tracking and flooding for the dishonest-majority protocol.
//!
//! Wan et al. \[34\] build their expected-constant-round BB for `f ≥ n/2` on
//! a *trust graph* plus a *TrustCast* primitive: every signed unit is
//! flooded (forwarded once by everyone), and a party that fails to deliver
//! its expected unit by a deadline proportional to `n/(n−f)` is removed
//! from the local trust set; transferable misbehavior proofs (equivocation,
//! double votes) also remove trust and are themselves flooded.
//!
//! We reproduce the per-party trust set, the flood-with-dedup machinery and
//! the deadline arithmetic. The full Wan-et-al graph-diameter maintenance
//! and randomized leader election only affect *expected worst-case* rounds,
//! which Table 1 does not cover, so they are substituted: the trust graph is
//! a plain set (distrust removes a party, not an edge), and epoch leaders
//! rotate round-robin instead of being elected at random.

use gcl_types::{Config, Duration, PartyId};
use std::collections::BTreeSet;

/// A party's local view of whom it still trusts.
///
/// Honest parties never lose each other's trust: every honest unit is
/// flooded and arrives well inside the deadline, and honest parties never
/// produce misbehavior proofs against each other.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct TrustGraph {
    trusted: BTreeSet<PartyId>,
}

impl TrustGraph {
    /// Everyone starts trusted.
    pub(crate) fn new(config: Config) -> Self {
        TrustGraph {
            trusted: config.parties().collect(),
        }
    }

    /// Removes `p`; returns `true` if it was still trusted.
    pub(crate) fn distrust(&mut self, p: PartyId) -> bool {
        self.trusted.remove(&p)
    }

    /// Iterates over the trusted parties in id order.
    pub(crate) fn iter(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.trusted.iter().copied()
    }

    /// Whether `voters` covers the trusted set.
    pub(crate) fn covered_by(&self, voters: &BTreeSet<PartyId>) -> bool {
        self.trusted.is_subset(voters)
    }
}

/// TrustCast deadline: `(⌊n/(n−f)⌋ + 1) · Δ` — the flood time through a
/// trust graph whose diameter Wan et al. bound by `n/(n−f)`.
pub(crate) fn trustcast_deadline(config: Config, big_delta: Duration) -> Duration {
    let k = config.n() / (config.n() - config.f());
    big_delta * (k as u64 + 1)
}

/// Flood-with-dedup bookkeeping: remembers which units were already
/// forwarded so each is relayed at most once.
#[derive(Debug, Clone, Default)]
pub(crate) struct TrustCast {
    seen: BTreeSet<u64>,
}

/// Units floodable by [`TrustCast`]: anything with a stable dedup key.
pub(crate) trait TrustCastMsg {
    /// A collision-resistant identity for dedup (e.g. the first 8 bytes of
    /// the unit's digest).
    fn dedup_key(&self) -> u64;
}

impl TrustCast {
    /// Fresh flood state.
    pub(crate) fn new() -> Self {
        TrustCast::default()
    }

    /// Returns `true` exactly once per unit: the caller should forward it.
    pub(crate) fn first_sighting(&mut self, unit: &impl TrustCastMsg) -> bool {
        self.seen.insert(unit.dedup_key())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Unit(u64);
    impl TrustCastMsg for Unit {
        fn dedup_key(&self) -> u64 {
            self.0
        }
    }

    #[test]
    fn trust_starts_complete() {
        let cfg = Config::new(6, 4).unwrap();
        let t = TrustGraph::new(cfg);
        assert!(t.iter().eq(cfg.parties()));
    }

    #[test]
    fn distrust_is_idempotent() {
        let cfg = Config::new(4, 2).unwrap();
        let mut t = TrustGraph::new(cfg);
        assert!(t.distrust(PartyId::new(1)));
        assert!(!t.distrust(PartyId::new(1)));
        assert_eq!(t.iter().count(), 3);
    }

    #[test]
    fn coverage_check() {
        let cfg = Config::new(4, 2).unwrap();
        let mut t = TrustGraph::new(cfg);
        t.distrust(PartyId::new(3));
        let voters: BTreeSet<PartyId> = (0..3).map(PartyId::new).collect();
        assert!(t.covered_by(&voters));
        let fewer: BTreeSet<PartyId> = (0..2).map(PartyId::new).collect();
        assert!(!t.covered_by(&fewer));
    }

    #[test]
    fn deadline_scales_with_resilience_ratio() {
        let d = Duration::from_micros(100);
        // n = 4, f = 2: k = 2, deadline 3Δ.
        assert_eq!(
            trustcast_deadline(Config::new(4, 2).unwrap(), d),
            Duration::from_micros(300)
        );
        // n = 10, f = 8: k = 5, deadline 6Δ.
        assert_eq!(
            trustcast_deadline(Config::new(10, 8).unwrap(), d),
            Duration::from_micros(600)
        );
        // n = 4, f = 1: k = 1, deadline 2Δ.
        assert_eq!(
            trustcast_deadline(Config::new(4, 1).unwrap(), d),
            Duration::from_micros(200)
        );
    }

    #[test]
    fn flood_dedup() {
        let mut tc = TrustCast::new();
        assert!(tc.first_sighting(&Unit(5)));
        assert!(!tc.first_sighting(&Unit(5)));
        assert!(tc.first_sighting(&Unit(6)));
    }
}
