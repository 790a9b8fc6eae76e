//! Timing models and adversarial delay control.
//!
//! The adversary of the paper chooses every message's delay, subject to the
//! timing model's constraints. Here the adversary is a [`DelayOracle`]; the
//! runner asks it for each message and then **clamps** the answer so that no
//! oracle — however adversarial — can step outside the model:
//!
//! * *Synchrony* (actual bound δ, conservative bound Δ ≥ δ): honest↔honest
//!   delays are clamped into `[0, δ]`.
//! * *Partial synchrony* (GST, Δ): honest↔honest deliveries are clamped to
//!   happen by `max(GST, sent_at) + Δ`.
//! * *Asynchrony*: honest↔honest delays are finite (a `Never` answer is
//!   clamped to the eventual-delivery fallback) but unbounded.
//!
//! Links with a Byzantine endpoint are never clamped: the paper notes a
//! Byzantine party can simulate any delay, including ∞, by postponing
//! sending or reading.

use gcl_types::{Duration, GlobalTime, PartyId};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The network timing model of a run (paper Section 2).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimingModel {
    /// Synchrony: per-execution actual bound `delta` (δ, unknown to the
    /// protocol) and conservative known bound `big_delta` (Δ), δ ≤ Δ.
    Synchrony {
        /// Actual delay bound δ for this execution.
        delta: Duration,
        /// Conservative protocol-known bound Δ.
        big_delta: Duration,
    },
    /// Partial synchrony: arbitrary delays before `gst`, ≤ `big_delta` after.
    PartialSynchrony {
        /// Global stabilization time.
        gst: GlobalTime,
        /// Post-GST delay bound Δ.
        big_delta: Duration,
    },
    /// Asynchrony: arbitrary finite delays.
    Asynchrony,
}

impl TimingModel {
    /// Synchrony with δ = Δ (the classical model without the δ/Δ split).
    pub fn lockstep(delta: Duration) -> TimingModel {
        TimingModel::Synchrony {
            delta,
            big_delta: delta,
        }
    }
}

/// An oracle's answer for one message.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LinkDelay {
    /// Deliver after this delay (subject to model clamping).
    Finite(Duration),
    /// Drop / delay indefinitely (only honored on Byzantine links or, under
    /// partial synchrony, clamped to the post-GST bound).
    Never,
}

/// Everything the oracle may condition a delay decision on.
#[derive(Debug)]
pub struct MsgEnvelope<'a, M> {
    /// Sender.
    pub(crate) from: PartyId,
    /// Recipient.
    pub(crate) to: PartyId,
    /// The message content.
    pub(crate) msg: &'a M,
    /// Whether the sender slot is honest.
    pub(crate) from_honest: bool,
    /// Whether the recipient slot is honest.
    pub(crate) to_honest: bool,
}

impl<M> MsgEnvelope<'_, M> {
    /// True iff both endpoints are honest (the only links the model bounds).
    pub(crate) fn honest_link(&self) -> bool {
        self.from_honest && self.to_honest
    }
}

/// The adversary's delay-choosing interface.
pub trait DelayOracle<M>: Send {
    /// Chooses the delay for one message. The runner clamps the result to
    /// the timing model's constraints on honest links.
    fn delay(&mut self, env: &MsgEnvelope<'_, M>) -> LinkDelay;
}

/// Every message takes exactly the same delay.
///
/// Under `TimingModel::Synchrony { delta, .. }` with `FixedDelay::new(delta)`
/// this is the canonical "good network" used to measure good-case latency.
#[derive(Debug, Clone, Copy)]
pub struct FixedDelay(Duration);

impl FixedDelay {
    /// All messages delayed by exactly `d`.
    pub fn new(d: Duration) -> Self {
        FixedDelay(d)
    }
}

impl<M> DelayOracle<M> for FixedDelay {
    fn delay(&mut self, _env: &MsgEnvelope<'_, M>) -> LinkDelay {
        LinkDelay::Finite(self.0)
    }
}

/// Uniformly random delays in `[lo, hi]`, deterministic per seed.
#[derive(Debug)]
pub struct RandomDelay {
    lo: u64,
    hi: u64,
    rng: StdRng,
}

impl RandomDelay {
    /// Delays drawn uniformly from `[lo, hi]` with the given RNG seed.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(lo: Duration, hi: Duration, seed: u64) -> Self {
        assert!(lo <= hi, "lo must not exceed hi");
        RandomDelay {
            lo: lo.as_micros(),
            hi: hi.as_micros(),
            rng: StdRng::seed_from_u64(seed),
        }
    }
}

impl<M> DelayOracle<M> for RandomDelay {
    fn delay(&mut self, _env: &MsgEnvelope<'_, M>) -> LinkDelay {
        LinkDelay::Finite(Duration::from_micros(self.rng.gen_range(self.lo..=self.hi)))
    }
}

/// A set of parties for delay-rule matching.
#[derive(Debug, Clone)]
pub enum PartySet {
    /// Matches every party.
    Any,
    /// Matches exactly one party.
    One(PartyId),
    /// Matches the listed parties.
    In(Vec<PartyId>),
}

impl PartySet {
    /// Whether `p` is in the set.
    pub(crate) fn contains(&self, p: PartyId) -> bool {
        match self {
            PartySet::Any => true,
            PartySet::One(q) => *q == p,
            PartySet::In(v) => v.contains(&p),
        }
    }
}

/// A boxed message-content predicate, as used by [`DelayRule::when`].
pub(crate) type MsgPredicate<M> = Box<dyn Fn(&M) -> bool + Send>;

/// One scheduling rule: if `(from, to, when)` match, apply `delay`.
pub struct DelayRule<M> {
    /// Sender filter.
    pub(crate) from: PartySet,
    /// Recipient filter.
    pub(crate) to: PartySet,
    /// Optional message-content filter.
    pub(crate) when: Option<MsgPredicate<M>>,
    /// The delay to apply when the rule matches.
    pub(crate) delay: LinkDelay,
}

impl<M> DelayRule<M> {
    /// Rule matching all messages from `from` to `to`.
    pub fn link(from: PartySet, to: PartySet, delay: LinkDelay) -> Self {
        DelayRule {
            from,
            to,
            when: None,
            delay,
        }
    }

    /// Adds a message-content predicate to this rule.
    #[must_use]
    pub fn when(mut self, pred: impl Fn(&M) -> bool + Send + 'static) -> Self {
        self.when = Some(Box::new(pred));
        self
    }

    fn matches(&self, env: &MsgEnvelope<'_, M>) -> bool {
        self.from.contains(env.from)
            && self.to.contains(env.to)
            && self.when.as_ref().is_none_or(|p| p(env.msg))
    }
}

impl<M> std::fmt::Debug for DelayRule<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DelayRule")
            .field("from", &self.from)
            .field("to", &self.to)
            .field("when", &self.when.as_ref().map(|_| "<pred>"))
            .field("delay", &self.delay)
            .finish()
    }
}

/// A first-match-wins rule table with a default — the workhorse for the
/// scripted lower-bound executions (Figures 4, 7/11, 12 of the paper).
///
/// # Examples
///
/// ```
/// use gcl_sim::{DelayRule, LinkDelay, PartySet, ScheduleOracle};
/// use gcl_types::{Duration, PartyId};
///
/// let oracle: ScheduleOracle<u8> = ScheduleOracle::new(Duration::from_micros(10))
///     .rule(DelayRule::link(
///         PartySet::One(PartyId::new(2)),
///         PartySet::Any,
///         LinkDelay::Finite(Duration::from_micros(100)),
///     ));
/// # let _ = oracle;
/// ```
pub struct ScheduleOracle<M> {
    rules: Vec<DelayRule<M>>,
    default: Duration,
}

impl<M> ScheduleOracle<M> {
    /// A table whose default (no rule matches) is `default`.
    pub fn new(default: Duration) -> Self {
        ScheduleOracle {
            rules: Vec::new(),
            default,
        }
    }

    /// Appends a rule (earlier rules win).
    #[must_use]
    pub fn rule(mut self, rule: DelayRule<M>) -> Self {
        self.rules.push(rule);
        self
    }
}

impl<M: Send> DelayOracle<M> for ScheduleOracle<M> {
    fn delay(&mut self, env: &MsgEnvelope<'_, M>) -> LinkDelay {
        for rule in &self.rules {
            if rule.matches(env) {
                return rule.delay;
            }
        }
        LinkDelay::Finite(self.default)
    }
}

impl<M> std::fmt::Debug for ScheduleOracle<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ScheduleOracle")
            .field("rules", &self.rules.len())
            .field("default", &self.default)
            .finish()
    }
}

/// Clamps an oracle's answer to the timing model, for an honest link.
///
/// Returns the **delivery instant**. `fallback` is the eventual-delivery
/// horizon used when an unbounded model receives `Never` on an honest link.
pub(crate) fn clamp_delivery(
    model: TimingModel,
    sent_at: GlobalTime,
    choice: LinkDelay,
    honest_link: bool,
    fallback: Duration,
) -> Option<GlobalTime> {
    match choice {
        LinkDelay::Never if !honest_link => None,
        LinkDelay::Never => match model {
            TimingModel::Synchrony { delta, .. } => Some(sent_at + delta),
            TimingModel::PartialSynchrony { gst, big_delta } => {
                Some(latest_psync(sent_at, gst, big_delta))
            }
            TimingModel::Asynchrony => Some(sent_at + fallback),
        },
        LinkDelay::Finite(d) => {
            let requested = sent_at + d;
            if !honest_link {
                return Some(requested);
            }
            match model {
                TimingModel::Synchrony { delta, .. } => Some(if d > delta {
                    sent_at + delta
                } else {
                    requested
                }),
                TimingModel::PartialSynchrony { gst, big_delta } => {
                    let bound = latest_psync(sent_at, gst, big_delta);
                    Some(if requested > bound { bound } else { requested })
                }
                TimingModel::Asynchrony => Some(requested),
            }
        }
    }
}

fn latest_psync(sent_at: GlobalTime, gst: GlobalTime, big_delta: Duration) -> GlobalTime {
    let base = if sent_at > gst { sent_at } else { gst };
    base + big_delta
}

#[cfg(test)]
mod tests {
    use super::*;

    const D10: Duration = Duration::from_micros(10);
    const D100: Duration = Duration::from_micros(100);

    fn env(msg: &u8, honest: bool) -> MsgEnvelope<'_, u8> {
        MsgEnvelope {
            from: PartyId::new(0),
            to: PartyId::new(1),
            msg,
            from_honest: honest,
            to_honest: honest,
        }
    }

    #[test]
    fn fixed_delay_constant() {
        let mut o = FixedDelay::new(D10);
        assert_eq!(
            DelayOracle::<u8>::delay(&mut o, &env(&0, true)),
            LinkDelay::Finite(D10)
        );
    }

    #[test]
    fn random_delay_in_range_and_deterministic() {
        let mut a = RandomDelay::new(D10, D100, 7);
        let mut b = RandomDelay::new(D10, D100, 7);
        for _ in 0..50 {
            let da = DelayOracle::<u8>::delay(&mut a, &env(&0, true));
            let db = DelayOracle::<u8>::delay(&mut b, &env(&0, true));
            assert_eq!(da, db);
            match da {
                LinkDelay::Finite(d) => assert!(d >= D10 && d <= D100),
                LinkDelay::Never => panic!("random oracle never drops"),
            }
        }
    }

    #[test]
    fn schedule_oracle_first_match_wins() {
        let mut o: ScheduleOracle<u8> = ScheduleOracle::new(D10)
            .rule(DelayRule::link(
                PartySet::One(PartyId::new(0)),
                PartySet::Any,
                LinkDelay::Finite(D100),
            ))
            .rule(DelayRule::link(
                PartySet::Any,
                PartySet::Any,
                LinkDelay::Never,
            ));
        assert_eq!(o.delay(&env(&0, true)), LinkDelay::Finite(D100));
        let other = MsgEnvelope {
            from: PartyId::new(3),
            ..env(&0, true)
        };
        assert_eq!(o.delay(&other), LinkDelay::Never);
    }

    #[test]
    fn schedule_oracle_content_predicate() {
        let mut o: ScheduleOracle<u8> = ScheduleOracle::new(D10).rule(
            DelayRule::link(PartySet::Any, PartySet::Any, LinkDelay::Finite(D100))
                .when(|m: &u8| *m == 9),
        );
        assert_eq!(o.delay(&env(&9, true)), LinkDelay::Finite(D100));
        assert_eq!(o.delay(&env(&1, true)), LinkDelay::Finite(D10));
    }

    #[test]
    fn schedule_oracle_default() {
        let mut o: ScheduleOracle<u8> = ScheduleOracle::new(D10);
        assert_eq!(o.delay(&env(&0, true)), LinkDelay::Finite(D10));
    }

    #[test]
    fn party_set_membership() {
        assert!(PartySet::Any.contains(PartyId::new(9)));
        assert!(PartySet::One(PartyId::new(1)).contains(PartyId::new(1)));
        assert!(!PartySet::One(PartyId::new(1)).contains(PartyId::new(2)));
        let s = PartySet::In(vec![PartyId::new(1), PartyId::new(3)]);
        assert!(s.contains(PartyId::new(3)));
        assert!(!s.contains(PartyId::new(2)));
    }

    #[test]
    fn clamp_synchrony_honest_bounded_by_delta() {
        let m = TimingModel::Synchrony {
            delta: D10,
            big_delta: D100,
        };
        // Over-δ request clamps to δ.
        assert_eq!(
            clamp_delivery(m, GlobalTime::ZERO, LinkDelay::Finite(D100), true, D100),
            Some(GlobalTime::from_micros(10))
        );
        // Never on honest link clamps to δ.
        assert_eq!(
            clamp_delivery(m, GlobalTime::ZERO, LinkDelay::Never, true, D100),
            Some(GlobalTime::from_micros(10))
        );
        // Byzantine link is unconstrained.
        assert_eq!(
            clamp_delivery(m, GlobalTime::ZERO, LinkDelay::Never, false, D100),
            None
        );
        assert_eq!(
            clamp_delivery(m, GlobalTime::ZERO, LinkDelay::Finite(D100), false, D100),
            Some(GlobalTime::from_micros(100))
        );
    }

    #[test]
    fn clamp_partial_synchrony_post_gst() {
        let gst = GlobalTime::from_micros(50);
        let m = TimingModel::PartialSynchrony {
            gst,
            big_delta: D10,
        };
        // Sent before GST: may be delayed until GST + Δ but no later.
        assert_eq!(
            clamp_delivery(m, GlobalTime::ZERO, LinkDelay::Never, true, D100),
            Some(GlobalTime::from_micros(60))
        );
        // Sent after GST: bounded by sent + Δ.
        assert_eq!(
            clamp_delivery(
                m,
                GlobalTime::from_micros(70),
                LinkDelay::Finite(D100),
                true,
                D100
            ),
            Some(GlobalTime::from_micros(80))
        );
        // Within bound: honored exactly.
        assert_eq!(
            clamp_delivery(
                m,
                GlobalTime::from_micros(70),
                LinkDelay::Finite(Duration::from_micros(4)),
                true,
                D100
            ),
            Some(GlobalTime::from_micros(74))
        );
    }

    #[test]
    fn clamp_asynchrony_eventual() {
        let m = TimingModel::Asynchrony;
        assert_eq!(
            clamp_delivery(m, GlobalTime::ZERO, LinkDelay::Never, true, D100),
            Some(GlobalTime::from_micros(100))
        );
        assert_eq!(
            clamp_delivery(m, GlobalTime::ZERO, LinkDelay::Finite(D100), true, D10),
            Some(GlobalTime::from_micros(100))
        );
    }

    #[test]
    fn lockstep_constructor() {
        assert_eq!(
            TimingModel::lockstep(D10),
            TimingModel::Synchrony {
                delta: D10,
                big_delta: D10
            }
        );
    }
}
