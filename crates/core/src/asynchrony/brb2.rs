//! Figure 1: the 2-round Byzantine reliable broadcast, `n ≥ 3f + 1`.
//!
//! ```text
//! (1) Propose. The broadcaster L with input v sends ⟨propose, v⟩ to all.
//! (2) Vote.    On the first proposal ⟨propose, v⟩ from the broadcaster,
//!              send ⟨vote, v⟩_i to all parties.
//! (3) Commit.  On n−f signed votes for v, forward them to all other
//!              parties, commit v and terminate.
//! ```
//!
//! Good-case latency is exactly 2 asynchronous rounds (propose → vote →
//! commit), which Theorem 4 shows is optimal: no BRB can commit in 1 round.

use crate::{SignedValue, Tally};
use gcl_crypto::{Digest, Signer, Verifier, Verify};
use gcl_sim::{Context, Protocol, Strategy};
use gcl_types::{Config, PartyId, Value};

/// Wire messages of the 2-round BRB.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Brb2Msg {
    /// Step 1: the broadcaster's proposal.
    Propose(Value),
    /// Step 2: a vote `⟨vote, v⟩_i` (domain `TwoRoundBrb::VOTE`).
    Vote(SignedValue),
    /// Step 3: the forwarded quorum of votes that justified a commit.
    Forward(Vec<SignedValue>),
}

gcl_types::wire_enum!(Brb2Msg {
    1 => Propose(value),
    2 => Vote(vote),
    3 => Forward(votes),
});

/// The Figure-1 protocol for one party.
///
/// # Examples
///
/// Run the good case on `n = 4, f = 1` and observe the 2-round commit:
///
/// ```
/// use gcl_core::asynchrony::TwoRoundBrb;
/// use gcl_crypto::Keychain;
/// use gcl_sim::{FixedDelay, Simulation, TimingModel};
/// use gcl_types::{Config, Duration, PartyId, Value};
///
/// let cfg = Config::new(4, 1)?;
/// let chain = Keychain::generate(4, 1);
/// let outcome = Simulation::build(cfg)
///     .timing(TimingModel::Asynchrony)
///     .oracle(FixedDelay::new(Duration::from_micros(50)))
///     .spawn_honest(|p| {
///         TwoRoundBrb::new(
///             cfg,
///             chain.signer(p),
///             chain.pki(),
///             PartyId::new(0),
///             (p == PartyId::new(0)).then_some(Value::new(42)),
///         )
///     })
///     .run();
/// assert!(outcome.validity_holds(Value::new(42)));
/// assert_eq!(outcome.good_case_rounds(), Some(2));
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct TwoRoundBrb {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    broadcaster: PartyId,
    /// `Some` iff this party is the broadcaster.
    input: Option<Value>,
    voted: bool,
    committed: bool,
    votes: Tally<Value, SignedValue>,
    /// The vote digest of the last value checked: while votes name one
    /// value, checking a vote costs a comparison, not a SHA-256.
    digest: Option<(Value, Digest)>,
}

impl TwoRoundBrb {
    /// The domain a vote is signed under.
    pub(crate) const VOTE: &'static str = "brb2-vote";

    /// Creates the party-side state.
    ///
    /// `input` must be `Some` exactly when `signer.id() == broadcaster`.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3f + 1` (the protocol's resilience requirement), or if
    /// `input` presence disagrees with the broadcaster role.
    pub fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        broadcaster: PartyId,
        input: Option<Value>,
    ) -> Self {
        assert!(config.supports_brb(), "2-round BRB requires n >= 3f + 1");
        assert_eq!(
            input.is_some(),
            signer.id() == broadcaster,
            "exactly the broadcaster provides an input"
        );
        TwoRoundBrb {
            config,
            signer,
            verifier: verifier.into(),
            broadcaster,
            input,
            voted: false,
            committed: false,
            votes: Tally::new(),
            digest: None,
        }
    }

    fn vote_digest(&mut self, value: Value) -> Digest {
        match self.digest {
            Some((memo, digest)) if memo == value => digest,
            _ => {
                self.digest
                    .insert((value, SignedValue::digest(Self::VOTE, value)))
                    .1
            }
        }
    }

    /// Commits `value` once `recorded` votes for it (the tally's count)
    /// reach the quorum.
    fn try_commit(&mut self, value: Value, recorded: usize, ctx: &mut dyn Context<Brb2Msg>) {
        if self.committed || recorded < self.config.quorum() {
            return;
        }
        self.committed = true;
        ctx.multicast_except(Brb2Msg::Forward(self.votes.bundle(&value)), ctx.me());
        ctx.commit(value);
        ctx.terminate();
    }
}

impl Protocol for TwoRoundBrb {
    type Msg = Brb2Msg;

    fn start(&mut self, ctx: &mut dyn Context<Brb2Msg>) {
        if let Some(v) = self.input {
            ctx.multicast(Brb2Msg::Propose(v));
        }
    }

    fn on_message(&mut self, from: PartyId, msg: Brb2Msg, ctx: &mut dyn Context<Brb2Msg>) {
        match msg {
            Brb2Msg::Propose(v) => {
                // Step 2: vote for the first proposal from the broadcaster.
                if from == self.broadcaster && !self.voted {
                    self.voted = true;
                    let vote = SignedValue::new(Self::VOTE, &self.signer, v);
                    ctx.multicast(Brb2Msg::Vote(vote));
                }
            }
            Brb2Msg::Vote(vote) => {
                let digest = self.vote_digest(vote.value);
                if !self.verifier.verify_embedded(digest, &vote.sig) {
                    return;
                }
                if let Ok(recorded) = self.votes.insert(vote.value, vote.signer(), vote) {
                    self.try_commit(vote.value, recorded, ctx);
                }
            }
            Brb2Msg::Forward(bundle) => {
                // A committed party's quorum: adopt every vote. Votes we
                // already recorded are skipped *before* any MAC work:
                // byte-equality with the recorded (verified) vote carries
                // its verdict, and a *differing* signature for the same
                // (voter, value) cannot be valid — MACs are deterministic,
                // so exactly one valid signature exists per pair — which
                // rejects the bundle exactly as full verification would.
                let Some(first) = bundle.first() else { return };
                let value = first.value;
                let digest = self.vote_digest(value);
                for v in &bundle {
                    if v.value != value {
                        return;
                    }
                    match self.votes.get(&value, v.signer()) {
                        Some(recorded) if recorded == v => {}
                        Some(_) => return,
                        None => {
                            if !self.verifier.verify_embedded(digest, &v.sig) {
                                return;
                            }
                        }
                    }
                }
                for vote in bundle {
                    let _ = self.votes.insert(value, vote.signer(), vote);
                }
                self.try_commit(value, self.votes.count(&value), ctx);
            }
        }
    }
}

/// Byzantine broadcaster that proposes `value_a` to the listed parties and
/// `value_b` to everyone else — the Theorem 4 adversary.
#[derive(Debug)]
pub struct EquivocatingBroadcaster {
    /// Parties receiving `value_a`.
    pub group_a: Vec<PartyId>,
    /// Proposal for `group_a`.
    pub value_a: Value,
    /// Proposal for everyone else.
    pub value_b: Value,
}

impl Strategy<Brb2Msg> for EquivocatingBroadcaster {
    fn start(&mut self, ctx: &mut dyn Context<Brb2Msg>) {
        for p in ctx.config().parties().collect::<Vec<_>>() {
            let v = if self.group_a.contains(&p) {
                self.value_a
            } else {
                self.value_b
            };
            ctx.send(p, Brb2Msg::Propose(v));
        }
    }
    fn on_message(&mut self, _from: PartyId, _msg: Brb2Msg, _ctx: &mut dyn Context<Brb2Msg>) {}
    fn on_timer(&mut self, _tag: u64, _ctx: &mut dyn Context<Brb2Msg>) {}
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_crypto::Keychain;
    use gcl_sim::{FixedDelay, Outcome, Silent, Simulation, TimingModel};
    use gcl_types::Duration;

    const DELAY: Duration = Duration::from_micros(100);

    fn good_case(n: usize, f: usize) -> Outcome {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 7);
        Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(DELAY))
            .spawn_honest(|p| {
                TwoRoundBrb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(9)),
                )
            })
            .run()
    }

    #[test]
    fn good_case_commits_in_two_rounds() {
        for (n, f) in [(4, 1), (7, 2), (10, 3), (13, 4)] {
            let o = good_case(n, f);
            assert!(o.validity_holds(Value::new(9)), "n={n}");
            assert!(o.all_honest_terminated());
            assert_eq!(o.good_case_rounds(), Some(2), "n={n} must be 2 rounds");
        }
    }

    #[test]
    fn good_case_latency_is_two_deltas() {
        let o = good_case(4, 1);
        assert_eq!(o.good_case_latency(), Some(DELAY * 2));
    }

    #[test]
    fn equivocating_broadcaster_cannot_split() {
        // n = 4, f = 1: the broadcaster equivocates 0 / 1. Neither value can
        // gather n − f = 3 honest votes (only 3 honest voters split 2/1 or
        // 1/2), so no honest party commits — agreement trivially holds,
        // which is all BRB requires with a Byzantine broadcaster.
        let n = 4;
        let cfg = Config::new(n, 1).unwrap();
        let chain = Keychain::generate(n, 8);
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(DELAY))
            .byzantine(
                PartyId::new(0),
                EquivocatingBroadcaster {
                    group_a: vec![PartyId::new(1)],
                    value_a: Value::ZERO,
                    value_b: Value::ONE,
                },
            )
            .spawn_honest(|p| {
                TwoRoundBrb::new(cfg, chain.signer(p), chain.pki(), PartyId::new(0), None)
            })
            .run();
        o.assert_agreement();
        assert!(o.honest_commits().next().is_none());
    }

    #[test]
    fn equivocation_with_larger_n_still_safe() {
        // n = 7, f = 2: broadcaster + one double-voting slot silent; honest
        // majority may commit one side, never both.
        let n = 7;
        let cfg = Config::new(n, 2).unwrap();
        let chain = Keychain::generate(n, 9);
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(DELAY))
            .byzantine(
                PartyId::new(0),
                EquivocatingBroadcaster {
                    group_a: vec![PartyId::new(1), PartyId::new(2)],
                    value_a: Value::ZERO,
                    value_b: Value::ONE,
                },
            )
            .byzantine(PartyId::new(6), Silent::new())
            .spawn_honest(|p| {
                TwoRoundBrb::new(cfg, chain.signer(p), chain.pki(), PartyId::new(0), None)
            })
            .run();
        o.assert_agreement();
    }

    #[test]
    fn silent_broadcaster_no_commit_is_fine() {
        // BRB termination is conditional; with a silent broadcaster nobody
        // commits and nobody violates anything.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 10);
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(DELAY))
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(|p| {
                TwoRoundBrb::new(cfg, chain.signer(p), chain.pki(), PartyId::new(0), None)
            })
            .run();
        assert!(o.honest_commits().next().is_none());
    }

    #[test]
    fn forward_skips_recorded_votes_before_verifying() {
        // Delay votes from parties 2 and 3 toward party 1, so party 1 holds
        // two recorded votes (its own and party 0's) when the first Forward
        // bundle arrives. The recorded entries must be skipped by byte
        // equality *before* any verifier work: the probe sees at most one
        // MAC per distinct voter and zero cache hits — bundled duplicates
        // never reach the verifier at all.
        use gcl_crypto::{Verifier, VerifyProbe};
        use gcl_sim::{DelayRule, LinkDelay, PartySet, ScheduleOracle};
        use std::sync::Arc;
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 12);
        let probe = Arc::new(VerifyProbe::new());
        let oracle: ScheduleOracle<Brb2Msg> = ScheduleOracle::new(DELAY).rule(
            DelayRule::link(
                PartySet::In(vec![PartyId::new(2), PartyId::new(3)]),
                PartySet::One(PartyId::new(1)),
                LinkDelay::Finite(Duration::from_millis(900)),
            )
            .when(|m: &Brb2Msg| matches!(m, Brb2Msg::Vote(_))),
        );
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(oracle)
            .spawn_honest(|p| {
                let mut verifier = Verifier::new(chain.pki());
                if p == PartyId::new(1) {
                    verifier = verifier.with_probe(Arc::clone(&probe));
                }
                TwoRoundBrb::new(
                    cfg,
                    chain.signer(p),
                    verifier,
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(5)),
                )
            })
            .run();
        assert!(o.validity_holds(Value::new(5)));
        // Byte-equal recorded votes are skipped before any verifier work, so
        // party 1 queries the verifier at most once per distinct voter —
        // whether that query recomputes (macs) or lands in the Pki-wide
        // shared cache another party already filled (hits) depends only on
        // scheduling, so bound their sum.
        assert!(
            probe.macs() + probe.hits() <= 4,
            "one verifier query per voter, got macs={} hits={}",
            probe.macs(),
            probe.hits()
        );
    }

    #[test]
    fn brb_termination_via_forwarded_bundle() {
        // Drop all votes toward party 3; it can still commit from the
        // Forward bundle of a committed party (the termination property).
        use gcl_sim::{DelayRule, LinkDelay, PartySet, ScheduleOracle};
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 11);
        let oracle: ScheduleOracle<Brb2Msg> = ScheduleOracle::new(DELAY).rule(
            DelayRule::link(
                PartySet::Any,
                PartySet::One(PartyId::new(3)),
                LinkDelay::Finite(Duration::from_millis(900)),
            )
            .when(|m: &Brb2Msg| matches!(m, Brb2Msg::Vote(_))),
        );
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(oracle)
            .spawn_honest(|p| {
                TwoRoundBrb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(5)),
                )
            })
            .run();
        assert!(o.validity_holds(Value::new(5)));
        // Party 3 commits strictly later than the others but still commits.
        let c3 = o.commit_of(PartyId::new(3)).unwrap();
        let c1 = o.commit_of(PartyId::new(1)).unwrap();
        assert!(c3.global > c1.global);
    }

    #[test]
    fn forged_votes_rejected() {
        // Votes signed under a different key universe are ignored: nobody
        // commits off them.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 12);
        let rogue = Keychain::generate(4, 999);
        let mut bundle = Vec::new();
        for i in 0..3 {
            bundle.push(SignedValue::new(
                TwoRoundBrb::VOTE,
                &rogue.signer(PartyId::new(i)),
                Value::new(3),
            ));
        }
        let script = gcl_sim::Scripted::multicast_at(
            gcl_types::LocalTime::ZERO,
            &[PartyId::new(1), PartyId::new(2), PartyId::new(3)],
            Brb2Msg::Forward(bundle),
        );
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(DELAY))
            .byzantine(PartyId::new(0), script)
            .spawn_honest(|p| {
                TwoRoundBrb::new(cfg, chain.signer(p), chain.pki(), PartyId::new(0), None)
            })
            .run();
        assert!(o.honest_commits().next().is_none(), "forged bundle ignored");
    }

    #[test]
    fn mixed_value_bundle_rejected() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 13);
        let bundle = vec![
            SignedValue::new(
                TwoRoundBrb::VOTE,
                &chain.signer(PartyId::new(0)),
                Value::ZERO,
            ),
            SignedValue::new(
                TwoRoundBrb::VOTE,
                &chain.signer(PartyId::new(0)),
                Value::ONE,
            ),
        ];
        let script = gcl_sim::Scripted::multicast_at(
            gcl_types::LocalTime::ZERO,
            &[PartyId::new(1)],
            Brb2Msg::Forward(bundle),
        );
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(DELAY))
            .byzantine(PartyId::new(0), script)
            .spawn_honest(|p| {
                TwoRoundBrb::new(cfg, chain.signer(p), chain.pki(), PartyId::new(0), None)
            })
            .run();
        assert!(o.honest_commits().next().is_none());
    }

    #[test]
    #[should_panic(expected = "n >= 3f + 1")]
    fn rejects_insufficient_resilience() {
        let cfg = Config::new(3, 1).unwrap();
        let chain = Keychain::generate(3, 1);
        let _ = TwoRoundBrb::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            PartyId::new(0),
            Some(Value::ZERO),
        );
    }

    #[test]
    #[should_panic(expected = "broadcaster provides an input")]
    fn rejects_input_mismatch() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 1);
        let _ = TwoRoundBrb::new(
            cfg,
            chain.signer(PartyId::new(1)),
            chain.pki(),
            PartyId::new(0),
            Some(Value::ZERO),
        );
    }

    #[test]
    fn vote_roundtrip() {
        let chain = Keychain::generate(2, 4);
        let v = SignedValue::new(
            TwoRoundBrb::VOTE,
            &chain.signer(PartyId::new(1)),
            Value::new(6),
        );
        assert!(v.verify_embedded(TwoRoundBrb::VOTE, &chain.pki()));
        assert_eq!(v.signer(), PartyId::new(1));
        let mut w = v;
        w.value = Value::new(7);
        assert!(
            !w.verify_embedded(TwoRoundBrb::VOTE, &chain.pki()),
            "tampered value fails"
        );
    }
}
