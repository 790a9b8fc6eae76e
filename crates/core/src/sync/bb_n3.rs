//! Figure 5: the `(Δ+δ)-n/3`-BB protocol — `f ≤ n/3`, unsynchronized
//! start, optimal good-case latency `Δ + δ` (Theorems 9 and 17).
//!
//! Votes carry the broadcaster-signed proposal, so any party that receives
//! votes for two values holds *proof* the broadcaster equivocated. The fast
//! path waits a `Δ` window after voting (equivocation detection), then
//! commits on an `n − f` quorum received by local time `2Δ + σ`. The
//! remarkable step-4 rule: when two conflicting `n − f` quorums exist at
//! `f = n/3`, their intersection is ≥ `n − 2f = f` parties who double-voted
//! — i.e. **all** Byzantine parties identified at once — so a `commit`
//! message from anyone outside the intersection is known-honest and can be
//! adopted.

use super::ba::{BaMsg, LockstepBa, BOT};
use crate::{SignedValue, Tally};
use gcl_crypto::{Signature, Signer, Verifier, Verify};
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, Duration, LocalTime, PartyId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Vote `⟨vote, ⟨propose, v⟩_L⟩_i` — embeds the signed proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig5Vote {
    /// The embedded, broadcaster-signed proposal.
    pub prop: SignedValue,
    /// Voter signature over `("fig5-vote", value)`.
    pub sig: Signature,
}

impl Fig5Vote {
    /// Signs a vote for `prop`.
    pub(crate) fn new(signer: &Signer, prop: SignedValue) -> Self {
        Fig5Vote {
            prop,
            sig: SignedValue::new(ThirdBb::VOTE, signer, prop.value).sig,
        }
    }

    fn verify(&self, broadcaster: PartyId, v: &impl Verify) -> bool {
        self.prop.verify(ThirdBb::PROPOSE, broadcaster, v)
            && v.verify_embedded(
                SignedValue::digest(ThirdBb::VOTE, self.prop.value),
                &self.sig,
            )
    }

    /// The voter.
    pub(crate) fn voter(&self) -> PartyId {
        self.sig.signer()
    }
}

/// Wire messages of the `(Δ+δ)-n/3`-BB protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ThirdMsg {
    /// Step 1 (domain `ThirdBb::PROPOSE`).
    Propose(SignedValue),
    /// Step 2.
    Vote(Fig5Vote),
    /// Step 3: forwarded quorum.
    VoteBundle(Vec<Fig5Vote>),
    /// Step 3: commit announcement (domain `ThirdBb::COMMIT`).
    Commit(SignedValue),
    /// Step 4: embedded BA traffic.
    Ba(BaMsg),
}

gcl_types::wire_struct!(Fig5Vote { prop, sig });

gcl_types::wire_enum!(ThirdMsg {
    1 => Propose(prop),
    2 => Vote(vote),
    3 => VoteBundle(votes),
    4 => Commit(commit),
    5 => Ba(msg),
});

const TAG_VOTE_TIMER: u64 = 1;
const TAG_STEP4: u64 = 2;

/// One party of the `(Δ+δ)-n/3`-BB protocol (Figure 5).
///
/// # Examples
///
/// ```
/// use gcl_core::sync::ThirdBb;
/// use gcl_crypto::Keychain;
/// use gcl_sim::{FixedDelay, Simulation, TimingModel};
/// use gcl_types::{Config, Duration, PartyId, Value};
///
/// let cfg = Config::new(3, 1)?; // f = n/3 exactly
/// let chain = Keychain::generate(3, 6);
/// let (delta, big_delta) = (Duration::from_micros(100), Duration::from_micros(1_000));
/// let outcome = Simulation::build(cfg)
///     .timing(TimingModel::Synchrony { delta, big_delta })
///     .oracle(FixedDelay::new(delta))
///     .spawn_honest(|p| {
///         ThirdBb::new(cfg, chain.signer(p), chain.pki(), big_delta, PartyId::new(0),
///                      (p == PartyId::new(0)).then_some(Value::new(3)))
///     })
///     .run();
/// assert_eq!(outcome.good_case_latency(), Some(big_delta + delta)); // Δ + δ
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct ThirdBb {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    big_delta: Duration,
    broadcaster: PartyId,
    input: Option<Value>,
    lock: Value,
    voted: bool,
    vote_timer_expired: bool,
    committed: bool,
    forwarded: BTreeSet<Value>,
    /// Distinct proposal values provably signed by the broadcaster.
    proposals_seen: BTreeSet<Value>,
    votes: Tally<Value, Fig5Vote>,
    /// When each value's quorum was first completed (local clock).
    quorum_at: BTreeMap<Value, LocalTime>,
    commits_received: BTreeMap<PartyId, Value>,
    ba: LockstepBa,
}

impl ThirdBb {
    /// The domain the broadcaster's proposal is signed under.
    pub(crate) const PROPOSE: &'static str = "fig5-prop";
    /// The domain a vote is signed under.
    pub(crate) const VOTE: &'static str = "fig5-vote";
    /// The domain a commit announcement is signed under.
    pub(crate) const COMMIT: &'static str = "fig5-commit";

    /// Creates the party-side state (internal σ := Δ).
    ///
    /// # Panics
    ///
    /// Panics if `f > n/3` or the input/broadcaster roles disagree.
    pub fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        big_delta: Duration,
        broadcaster: PartyId,
        input: Option<Value>,
    ) -> Self {
        assert!(
            3 * config.f() <= config.n(),
            "(Δ+δ)-n/3-BB requires f <= n/3"
        );
        assert_eq!(input.is_some(), signer.id() == broadcaster);
        let verifier = verifier.into();
        let ba = LockstepBa::new(
            config,
            signer.clone(),
            Arc::clone(verifier.pki()),
            big_delta,
        );
        ThirdBb {
            config,
            signer,
            verifier,
            big_delta,
            broadcaster,
            input,
            lock: BOT,
            voted: false,
            vote_timer_expired: false,
            committed: false,
            forwarded: BTreeSet::new(),
            proposals_seen: BTreeSet::new(),
            votes: Tally::new(),
            quorum_at: BTreeMap::new(),
            commits_received: BTreeMap::new(),
            ba,
        }
    }

    fn equivocation_detected(&self) -> bool {
        self.proposals_seen.len() >= 2
    }

    /// Fast-path commit deadline `2Δ + σ`, σ := Δ.
    fn commit_deadline(&self) -> Duration {
        self.big_delta * 3
    }

    /// Step-4 time `3Δ + 2σ`, σ := Δ.
    fn step4_time(&self) -> Duration {
        self.big_delta * 5
    }

    fn record_vote(&mut self, vote: Fig5Vote, now: LocalTime) {
        let value = vote.prop.value;
        self.proposals_seen.insert(value);
        let _ = self.votes.insert(value, vote.voter(), vote);
        if self.votes.count(&value) >= self.config.quorum() {
            self.quorum_at.entry(value).or_insert(now);
        }
    }

    /// Step 3: after the vote-timer, commit on a timely untainted quorum.
    fn try_fast_commit(&mut self, ctx: &mut dyn Context<ThirdMsg>) {
        if !self.vote_timer_expired || self.equivocation_detected() {
            return;
        }
        let ready: Vec<Value> = self.votes.reached(self.config.quorum()).copied().collect();
        for v in ready {
            if self.forwarded.insert(v) {
                let bundle = self.votes.bundle(&v);
                ctx.multicast_except(ThirdMsg::VoteBundle(bundle), self.signer.id());
            }
            let timely = self.quorum_at[&v].as_micros() <= self.commit_deadline().as_micros();
            if timely && !self.committed {
                self.committed = true;
                self.lock = v;
                ctx.commit(v);
                let commit = SignedValue::new(Self::COMMIT, &self.signer, v);
                ctx.multicast(ThirdMsg::Commit(commit));
            }
        }
    }

    /// Step 4 at `3Δ + 2σ`: lock, Byzantine identification, BA.
    fn step4(&mut self, ctx: &mut dyn Context<ThirdMsg>) {
        let quorum_values: Vec<Value> = self.votes.reached(self.config.quorum()).copied().collect();
        match quorum_values.as_slice() {
            [v] => {
                if !self.committed {
                    self.lock = *v;
                }
            }
            [a, b, ..] => {
                // Two conflicting quorums: the intersection double-voted,
                // hence is entirely Byzantine; with f = n/3 that is *all*
                // Byzantine parties, so a commit message from outside it is
                // from an honest party.
                let double_voted =
                    |p: PartyId| self.votes.get(a, p).is_some() && self.votes.get(b, p).is_some();
                if let Some((_, v)) = self
                    .commits_received
                    .iter()
                    .find(|(p, _)| !double_voted(**p))
                {
                    self.lock = *v;
                    if !self.committed {
                        self.committed = true;
                        ctx.commit(*v);
                    }
                }
            }
            [] => {}
        }
        let lock = self.lock;
        self.ba.invoke(lock, ctx, ThirdMsg::Ba);
    }
}

impl Protocol for ThirdBb {
    type Msg = ThirdMsg;

    fn start(&mut self, ctx: &mut dyn Context<ThirdMsg>) {
        ctx.set_timer(self.step4_time(), TAG_STEP4);
        if let Some(v) = self.input {
            let prop = SignedValue::new(Self::PROPOSE, &self.signer, v);
            ctx.multicast(ThirdMsg::Propose(prop));
        }
    }

    fn on_message(&mut self, from: PartyId, msg: ThirdMsg, ctx: &mut dyn Context<ThirdMsg>) {
        match msg {
            ThirdMsg::Propose(prop) => {
                if !prop.verify(Self::PROPOSE, self.broadcaster, &self.verifier) {
                    return;
                }
                self.proposals_seen.insert(prop.value);
                if from == self.broadcaster && !self.voted {
                    self.voted = true;
                    ctx.multicast(ThirdMsg::Vote(Fig5Vote::new(&self.signer, prop)));
                    ctx.set_timer(self.big_delta, TAG_VOTE_TIMER);
                }
                self.try_fast_commit(ctx);
            }
            ThirdMsg::Vote(vote) => {
                if vote.verify(self.broadcaster, &self.verifier) {
                    self.record_vote(vote, ctx.now());
                    self.try_fast_commit(ctx);
                }
            }
            ThirdMsg::VoteBundle(votes) => {
                let now = ctx.now();
                for vote in votes {
                    if vote.verify(self.broadcaster, &self.verifier) {
                        self.record_vote(vote, now);
                    }
                }
                self.try_fast_commit(ctx);
            }
            ThirdMsg::Commit(c) => {
                if c.verify_embedded(Self::COMMIT, &self.verifier) {
                    self.commits_received.insert(c.signer(), c.value);
                }
            }
            ThirdMsg::Ba(m) => {
                self.ba.note_now(ctx.now());
                self.ba.on_message(m);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<ThirdMsg>) {
        match tag {
            TAG_VOTE_TIMER => {
                self.vote_timer_expired = true;
                self.try_fast_commit(ctx);
            }
            TAG_STEP4 => self.step4(ctx),
            _ => {
                if let Some(out) = self.ba.on_timer(tag, ctx, ThirdMsg::Ba) {
                    if !self.committed {
                        self.committed = true;
                        ctx.commit(out);
                    }
                    ctx.terminate();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_crypto::Keychain;
    use gcl_sim::{FixedDelay, Outcome, Scripted, ScriptedAction, Silent, Simulation, TimingModel};
    use gcl_types::SkewSchedule;

    const DELTA: Duration = Duration::from_micros(100);
    const BIG_DELTA: Duration = Duration::from_micros(1_000);

    fn sync_model() -> TimingModel {
        TimingModel::Synchrony {
            delta: DELTA,
            big_delta: BIG_DELTA,
        }
    }

    fn good_case(n: usize, f: usize, skewed: bool) -> Outcome {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 70);
        let mut b = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA));
        if skewed {
            b = b.skew(SkewSchedule::with_late_parties(
                n,
                &[(PartyId::new(1), DELTA.halved())],
            ));
        }
        b.spawn_honest(|p| {
            ThirdBb::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                BIG_DELTA,
                PartyId::new(0),
                (p == PartyId::new(0)).then_some(Value::new(5)),
            )
        })
        .run()
    }

    #[test]
    fn good_case_latency_is_big_delta_plus_delta() {
        // f = n/3 exactly: n = 3f.
        for (n, f) in [(3, 1), (6, 2), (12, 4)] {
            let o = good_case(n, f, false);
            assert!(o.validity_holds(Value::new(5)), "n={n}");
            assert_eq!(
                o.good_case_latency(),
                Some(BIG_DELTA + DELTA),
                "n={n}: Δ + δ"
            );
        }
    }

    #[test]
    fn good_case_with_skew_still_fast() {
        let o = good_case(3, 1, true);
        assert!(o.validity_holds(Value::new(5)));
        // Within Δ + δ + skew slack.
        assert!(o.good_case_latency().unwrap() <= BIG_DELTA + DELTA * 2);
    }

    #[test]
    fn latency_tracks_delta_term() {
        // Doubling δ adds δ, not Δ: the δ/Δ separation at work.
        let cfg = Config::new(3, 1).unwrap();
        let chain = Keychain::generate(3, 71);
        let d2 = DELTA * 2;
        let o = Simulation::build(cfg)
            .timing(TimingModel::Synchrony {
                delta: d2,
                big_delta: BIG_DELTA,
            })
            .oracle(FixedDelay::new(d2))
            .spawn_honest(|p| {
                ThirdBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    BIG_DELTA,
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(5)),
                )
            })
            .run();
        assert_eq!(o.good_case_latency(), Some(BIG_DELTA + d2));
    }

    #[test]
    fn silent_broadcaster_ba_fallback() {
        let cfg = Config::new(3, 1).unwrap();
        let chain = Keychain::generate(3, 72);
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(|p| {
                ThirdBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    BIG_DELTA,
                    PartyId::new(0),
                    None,
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(BOT));
    }

    #[test]
    fn equivocating_broadcaster_no_fast_commit_still_agrees() {
        // Broadcaster signs 0 and 1, sends 0 to P1, 1 to P2 (n = 3, f = 1).
        // Votes cross within the Δ window → both detect equivocation → no
        // fast commit; BA resolves.
        let cfg = Config::new(3, 1).unwrap();
        let chain = Keychain::generate(3, 73);
        let s0 = chain.signer(PartyId::new(0));
        let p0 = SignedValue::new(ThirdBb::PROPOSE, &s0, Value::ZERO);
        let p1 = SignedValue::new(ThirdBb::PROPOSE, &s0, Value::ONE);
        let actions = vec![
            ScriptedAction {
                at: gcl_types::LocalTime::ZERO,
                to: PartyId::new(1),
                msg: ThirdMsg::Propose(p0),
            },
            ScriptedAction {
                at: gcl_types::LocalTime::ZERO,
                to: PartyId::new(2),
                msg: ThirdMsg::Propose(p1),
            },
        ];
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Scripted::new(actions))
            .spawn_honest(|p| {
                ThirdBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    BIG_DELTA,
                    PartyId::new(0),
                    None,
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        // Nobody fast-committed: equivocation was detected in the window.
        for c in o.honest_commits() {
            assert!(c.local.as_micros() > (BIG_DELTA * 5).as_micros());
        }
    }

    #[test]
    fn double_voting_identified_in_step4() {
        // n = 6, f = 2: Byzantine broadcaster equivocates; two Byzantine
        // voters double-vote to complete two quorums of n−f = 4.
        // Step 4's intersection rule must keep agreement intact.
        let cfg = Config::new(6, 2).unwrap();
        let chain = Keychain::generate(6, 74);
        let s0 = chain.signer(PartyId::new(0));
        let s5 = chain.signer(PartyId::new(5));
        let p0 = SignedValue::new(ThirdBb::PROPOSE, &s0, Value::ZERO);
        let p1 = SignedValue::new(ThirdBb::PROPOSE, &s0, Value::ONE);
        // Broadcaster: 0 to P1,P2; 1 to P3,P4. P5 (Byz) votes for both.
        let bcast_script = vec![
            ScriptedAction {
                at: gcl_types::LocalTime::ZERO,
                to: PartyId::new(1),
                msg: ThirdMsg::Propose(p0),
            },
            ScriptedAction {
                at: gcl_types::LocalTime::ZERO,
                to: PartyId::new(2),
                msg: ThirdMsg::Propose(p0),
            },
            ScriptedAction {
                at: gcl_types::LocalTime::ZERO,
                to: PartyId::new(3),
                msg: ThirdMsg::Propose(p1),
            },
            ScriptedAction {
                at: gcl_types::LocalTime::ZERO,
                to: PartyId::new(4),
                msg: ThirdMsg::Propose(p1),
            },
        ];
        // P5 and P0 double-vote both values to everyone.
        let mut dv = Vec::new();
        for target in 1..=4u32 {
            for (signer, prop) in [(&s5, p0), (&s5, p1), (&s0, p0), (&s0, p1)] {
                dv.push(ScriptedAction {
                    at: gcl_types::LocalTime::from_micros(10),
                    to: PartyId::new(target),
                    msg: ThirdMsg::Vote(Fig5Vote::new(signer, prop)),
                });
            }
        }
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Scripted::new(bcast_script))
            .byzantine(PartyId::new(5), Scripted::new(dv))
            .spawn_honest(|p| {
                ThirdBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    BIG_DELTA,
                    PartyId::new(0),
                    None,
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
    }

    #[test]
    #[should_panic(expected = "f <= n/3")]
    fn resilience_check() {
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 1);
        let _ = ThirdBb::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            BIG_DELTA,
            PartyId::new(0),
            Some(Value::ZERO),
        );
    }
}
