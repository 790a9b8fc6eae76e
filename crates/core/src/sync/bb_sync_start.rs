//! Figure 6: the `(Δ+δ)`-BB protocol — `n/3 < f < n/2`, **synchronized
//! start**, optimal good-case latency `Δ + δ` (Theorems 9 and 18).
//!
//! With a dishonest third, `n − f` quorums are unreachable; commits rest on
//! `f + 1` votes instead, made safe by *timed* votes: each vote carries the
//! local time `d` at which the voter received the proposal, commits require
//! all `f + 1` votes to have `d ≤ t` together with silence (no detected
//! equivocation) up to `t + Δ`, and locks are ranked by `t` — a smaller `t`
//! outranks. Synchronized clocks make the `d` values comparable across
//! parties; drop that assumption and the bound degrades to `Δ + 1.5δ`
//! ([`super::UnsyncBb`]).

use super::ba::{BaMsg, LockstepBa, BOT};
use crate::{SignedValue, Tally};
use gcl_crypto::{Digest, Signature, Signer, Verifier, Verify};
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, Duration, LocalTime, PartyId, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Timed vote `⟨vote, d, ⟨propose, v⟩_L⟩_i`: Figure 6's vote (`d` = the
/// local time the voter received the proposal) and Figure 9's early vote
/// (`d` = its guess of δ), each under its own pair of domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Fig6Vote {
    /// The timestamp or δ-guess.
    pub d: Duration,
    /// The embedded signed proposal.
    pub prop: SignedValue,
    /// Voter signature over `(domain, d, value)`.
    pub sig: Signature,
}

impl Fig6Vote {
    /// Signs a vote for `prop` with parameter `d` under `domain`.
    pub(crate) fn new(domain: &str, signer: &Signer, d: Duration, prop: SignedValue) -> Self {
        Fig6Vote {
            d,
            prop,
            sig: signer.sign(Digest::of(&(domain, d, prop.value))),
        }
    }

    /// Verifies the embedded proposal (signed by `broadcaster` under
    /// `propose`) and the vote (under `vote`).
    pub(crate) fn verify(
        &self,
        propose: &str,
        vote: &str,
        broadcaster: PartyId,
        v: &impl Verify,
    ) -> bool {
        self.prop.verify(propose, broadcaster, v)
            && v.verify_embedded(Digest::of(&(vote, self.d, self.prop.value)), &self.sig)
    }

    /// The voter.
    pub fn voter(&self) -> PartyId {
        self.sig.signer()
    }
}

/// Wire messages of the synchronized-start `(Δ+δ)`-BB protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SyncStartMsg {
    /// Step 1 (domain `SyncStartBb::PROPOSE`).
    Propose(SignedValue),
    /// Step 2.
    Vote(Fig6Vote),
    /// Step 3: forwarded `f + 1` votes backing a commit.
    VoteBundle(Vec<Fig6Vote>),
    /// Step 4: embedded BA traffic.
    Ba(BaMsg),
}

gcl_types::wire_struct!(Fig6Vote { d, prop, sig });

gcl_types::wire_enum!(SyncStartMsg {
    1 => Propose(prop),
    2 => Vote(vote),
    3 => VoteBundle(votes),
    4 => Ba(msg),
});

const TAG_BA_START: u64 = 1;
const TAG_CHECK_BASE: u64 = 100;

/// One party of the Figure 6 protocol.
///
/// # Examples
///
/// ```
/// use gcl_core::sync::SyncStartBb;
/// use gcl_crypto::Keychain;
/// use gcl_sim::{FixedDelay, Simulation, TimingModel};
/// use gcl_types::{Config, Duration, PartyId, Value};
///
/// let cfg = Config::new(5, 2)?; // n/3 < f < n/2
/// let chain = Keychain::generate(5, 7);
/// let (delta, big_delta) = (Duration::from_micros(100), Duration::from_micros(1_000));
/// let outcome = Simulation::build(cfg)
///     .timing(TimingModel::Synchrony { delta, big_delta })
///     .oracle(FixedDelay::new(delta))
///     .spawn_honest(|p| {
///         SyncStartBb::new(cfg, chain.signer(p), chain.pki(), big_delta, PartyId::new(0),
///                          (p == PartyId::new(0)).then_some(Value::new(3)))
///     })
///     .run();
/// assert_eq!(outcome.good_case_latency(), Some(big_delta + delta)); // Δ + δ
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct SyncStartBb {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    big_delta: Duration,
    broadcaster: PartyId,
    input: Option<Value>,
    lock: Value,
    /// Current lock rank (smaller = stronger); sentinel Δ+1 initially.
    rank: Duration,
    voted: bool,
    committed: bool,
    proposals_seen: BTreeSet<Value>,
    /// First local time at which equivocation became detectable.
    equivocation_at: Option<LocalTime>,
    /// A voter's later vote for a value replaces its earlier one.
    votes: Tally<Value, Fig6Vote>,
    /// Scheduled commit checks: tag index → (value, t).
    pending: Vec<(Value, Duration)>,
    forwarded: BTreeSet<Value>,
    ba: LockstepBa,
}

impl SyncStartBb {
    /// The domain the broadcaster's proposal is signed under.
    pub(crate) const PROPOSE: &'static str = "fig6-prop";
    /// The domain a timed vote is signed under.
    pub(crate) const VOTE: &'static str = "fig6-vote";

    /// Creates the party-side state.
    ///
    /// # Panics
    ///
    /// Panics if `f ≥ n/2` or the input/broadcaster roles disagree.
    pub fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        big_delta: Duration,
        broadcaster: PartyId,
        input: Option<Value>,
    ) -> Self {
        assert!(2 * config.f() < config.n(), "(Δ+δ)-BB requires f < n/2");
        assert_eq!(input.is_some(), signer.id() == broadcaster);
        let verifier = verifier.into();
        let ba = LockstepBa::new(
            config,
            signer.clone(),
            Arc::clone(verifier.pki()),
            big_delta,
        );
        SyncStartBb {
            config,
            signer,
            verifier,
            big_delta,
            broadcaster,
            input,
            lock: BOT,
            rank: big_delta + Duration::from_micros(1),
            voted: false,
            committed: false,
            proposals_seen: BTreeSet::new(),
            equivocation_at: None,
            votes: Tally::new(),
            pending: Vec::new(),
            forwarded: BTreeSet::new(),
            ba,
        }
    }

    fn note_proposal(&mut self, value: Value, now: LocalTime) {
        self.proposals_seen.insert(value);
        if self.proposals_seen.len() >= 2 && self.equivocation_at.is_none() {
            self.equivocation_at = Some(now);
        }
    }

    /// "No equivocation within time `deadline`".
    fn quiet_until(&self, deadline: LocalTime) -> bool {
        self.equivocation_at.is_none_or(|e| e > deadline)
    }

    /// Records a valid vote with `d ≤ Δ`; whether it was.
    fn record_vote(&mut self, vote: Fig6Vote, now: LocalTime) -> bool {
        let valid = vote.verify(Self::PROPOSE, Self::VOTE, self.broadcaster, &self.verifier)
            && vote.d <= self.big_delta;
        if valid {
            self.note_proposal(vote.prop.value, now);
            self.votes.replace(vote.prop.value, vote.voter(), vote);
        }
        valid
    }

    /// `t` = the (f+1)-th smallest vote timestamp for `value`, if ≥ f+1
    /// votes exist.
    fn witness_t(&self, value: Value) -> Option<Duration> {
        let need = self.config.honest_witness();
        if self.votes.count(&value) < need {
            return None;
        }
        let mut ds: Vec<Duration> = self.votes.votes(&value).map(|(_, v)| v.d).collect();
        ds.sort_unstable();
        Some(ds[need - 1])
    }

    fn commit_now(&mut self, value: Value, ctx: &mut dyn Context<SyncStartMsg>) {
        if self.committed {
            return;
        }
        self.committed = true;
        if self.forwarded.insert(value) {
            let need = self.config.honest_witness();
            let mut votes = self.votes.bundle(&value);
            votes.sort_unstable_by_key(|v| v.d);
            votes.truncate(need);
            ctx.multicast_except(SyncStartMsg::VoteBundle(votes), self.signer.id());
        }
        ctx.commit(value);
    }

    fn on_new_votes(&mut self, value: Value, ctx: &mut dyn Context<SyncStartMsg>) {
        let Some(t) = self.witness_t(value) else {
            return;
        };
        let now = ctx.now();
        if t > self.big_delta {
            return; // votes must attest d ≤ Δ collectively
        }
        // Lock rule: within 2Δ + t, with strictly better rank.
        if now.as_micros() <= (self.big_delta * 2 + t).as_micros() && t < self.rank {
            self.lock = value;
            self.rank = t;
        }
        // Commit rule: quiet until t + Δ, checked now or at t + Δ.
        let deadline = LocalTime::from_micros((t + self.big_delta).as_micros());
        if self.committed {
            return;
        }
        if now >= deadline {
            if self.quiet_until(deadline) {
                self.commit_now(value, ctx);
            }
        } else {
            let idx = self.pending.len() as u64;
            self.pending.push((value, t));
            ctx.set_timer(deadline.since(now), TAG_CHECK_BASE + idx);
        }
    }
}

impl Protocol for SyncStartBb {
    type Msg = SyncStartMsg;

    fn start(&mut self, ctx: &mut dyn Context<SyncStartMsg>) {
        ctx.set_timer(self.big_delta * 4, TAG_BA_START);
        if let Some(v) = self.input {
            let prop = SignedValue::new(Self::PROPOSE, &self.signer, v);
            ctx.multicast(SyncStartMsg::Propose(prop));
        }
    }

    fn on_message(
        &mut self,
        from: PartyId,
        msg: SyncStartMsg,
        ctx: &mut dyn Context<SyncStartMsg>,
    ) {
        match msg {
            SyncStartMsg::Propose(prop) => {
                if !prop.verify(Self::PROPOSE, self.broadcaster, &self.verifier) {
                    return;
                }
                let now = ctx.now();
                self.note_proposal(prop.value, now);
                if from == self.broadcaster
                    && !self.voted
                    && now.as_micros() <= self.big_delta.as_micros()
                {
                    self.voted = true;
                    let d = Duration::from_micros(now.as_micros());
                    let vote = Fig6Vote::new(Self::VOTE, &self.signer, d, prop);
                    ctx.multicast(SyncStartMsg::Vote(vote));
                }
            }
            SyncStartMsg::Vote(vote) => {
                if self.record_vote(vote, ctx.now()) {
                    self.on_new_votes(vote.prop.value, ctx);
                }
            }
            SyncStartMsg::VoteBundle(votes) => {
                let mut touched = BTreeSet::new();
                for vote in votes {
                    if self.record_vote(vote, ctx.now()) {
                        touched.insert(vote.prop.value);
                    }
                }
                for value in touched {
                    self.on_new_votes(value, ctx);
                }
            }
            SyncStartMsg::Ba(m) => {
                self.ba.note_now(ctx.now());
                self.ba.on_message(m);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<SyncStartMsg>) {
        if tag == TAG_BA_START {
            let lock = self.lock;
            self.ba.invoke(lock, ctx, SyncStartMsg::Ba);
        } else if tag >= LockstepBa::TAG_BASE {
            if let Some(out) = self.ba.on_timer(tag, ctx, SyncStartMsg::Ba) {
                if !self.committed {
                    self.committed = true;
                    ctx.commit(out);
                }
                ctx.terminate();
            }
        } else if tag >= TAG_CHECK_BASE {
            let idx = (tag - TAG_CHECK_BASE) as usize;
            if let Some(&(value, t)) = self.pending.get(idx) {
                let deadline = LocalTime::from_micros((t + self.big_delta).as_micros());
                if !self.committed
                    && self.quiet_until(deadline)
                    && self.witness_t(value).is_some_and(|w| w <= t)
                {
                    self.commit_now(value, ctx);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_hand::Rec;
    use gcl_crypto::Keychain;
    use gcl_sim::{FixedDelay, Outcome, Scripted, ScriptedAction, Silent, Simulation, TimingModel};
    use gcl_types::LocalTime;

    const DELTA: Duration = Duration::from_micros(100);
    const BIG_DELTA: Duration = Duration::from_micros(1_000);

    fn sync_model() -> TimingModel {
        TimingModel::Synchrony {
            delta: DELTA,
            big_delta: BIG_DELTA,
        }
    }

    fn good_case(n: usize, f: usize) -> Outcome {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 80);
        Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .spawn_honest(|p| {
                SyncStartBb::new(
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
    fn good_case_latency_delta_plus_delta() {
        // n/3 < f < n/2: the band this protocol exists for.
        for (n, f) in [(5, 2), (7, 3), (9, 4)] {
            let o = good_case(n, f);
            assert!(o.validity_holds(Value::new(5)), "n={n} f={f}");
            assert_eq!(
                o.good_case_latency(),
                Some(BIG_DELTA + DELTA),
                "n={n} f={f}: Δ + δ with synchronized start"
            );
        }
    }

    #[test]
    fn silent_broadcaster_ba_fallback() {
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 81);
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(|p| {
                SyncStartBb::new(
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
    fn equivocation_blocks_fast_commit() {
        // Byzantine broadcaster splits 0/1 between two honest halves; the
        // crossing votes (carrying embedded proposals) reveal equivocation
        // within every t + Δ window, so nobody fast-commits, and BA decides.
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 82);
        let s0 = chain.signer(PartyId::new(0));
        let p0 = SignedValue::new(SyncStartBb::PROPOSE, &s0, Value::ZERO);
        let p1 = SignedValue::new(SyncStartBb::PROPOSE, &s0, Value::ONE);
        let actions = vec![
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(1),
                msg: SyncStartMsg::Propose(p0),
            },
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(2),
                msg: SyncStartMsg::Propose(p0),
            },
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(3),
                msg: SyncStartMsg::Propose(p1),
            },
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(4),
                msg: SyncStartMsg::Propose(p1),
            },
        ];
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Scripted::new(actions))
            .spawn_honest(|p| {
                SyncStartBb::new(
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
        for c in o.honest_commits() {
            assert!(
                c.local.as_micros() >= (BIG_DELTA * 4).as_micros(),
                "commit only via BA"
            );
        }
    }

    #[test]
    fn double_voting_cannot_fake_rank() {
        // f = 2 Byzantine double-voters forge low-d votes for value 9, but
        // only 2 of them exist (< f+1 = 3), so no commit and no lock beats
        // the honest one.
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 83);
        let s0 = chain.signer(PartyId::new(0));
        let p9 = SignedValue::new(SyncStartBb::PROPOSE, &s0, Value::new(9));
        let p5 = SignedValue::new(SyncStartBb::PROPOSE, &s0, Value::new(5));
        let mut fake = Vec::new();
        for (signer_id, to) in [(0u32, 1u32), (0, 2), (4, 1), (4, 2)] {
            fake.push(ScriptedAction {
                at: LocalTime::from_micros(1),
                to: PartyId::new(to),
                msg: SyncStartMsg::Vote(Fig6Vote::new(
                    SyncStartBb::VOTE,
                    &chain.signer(PartyId::new(signer_id)),
                    Duration::ZERO,
                    p9,
                )),
            });
        }
        // Broadcaster also behaves honestly toward everyone with value 5.
        let mut honest_props = Vec::new();
        for to in 1..=4u32 {
            honest_props.push(ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(to),
                msg: SyncStartMsg::Propose(p5),
            });
        }
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .byzantine(
                PartyId::new(0),
                Scripted::new([honest_props, fake.clone()].concat()),
            )
            .byzantine(PartyId::new(4), Scripted::new(vec![]))
            .spawn_honest(|p| {
                SyncStartBb::new(
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
        // The committed value is never the forged 9: equivocation (5 vs 9
        // both signed by broadcaster) suppresses fast commits of 9, and
        // only 2 < f+1 votes exist for it anyway.
        if let Some(v) = o.committed_value() {
            assert_ne!(v, Value::new(9));
        }
    }

    #[test]
    fn vote_with_large_d_rejected() {
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 84);
        let s0 = chain.signer(PartyId::new(0));
        let prop = SignedValue::new(SyncStartBb::PROPOSE, &s0, Value::new(5));
        let vote = Fig6Vote::new(
            SyncStartBb::VOTE,
            &chain.signer(PartyId::new(1)),
            BIG_DELTA + Duration::from_micros(1),
            prop,
        );
        assert!(
            vote.verify(
                SyncStartBb::PROPOSE,
                SyncStartBb::VOTE,
                PartyId::new(0),
                &chain.pki()
            ),
            "sig itself fine"
        );
        // Protocol-level rejection is exercised in the protocol: a d > Δ
        // never counts toward witness_t.
        let mut bb = SyncStartBb::new(
            cfg,
            chain.signer(PartyId::new(2)),
            chain.pki(),
            BIG_DELTA,
            PartyId::new(0),
            None,
        );
        bb.votes.replace(Value::new(5), vote.voter(), vote);
        assert_eq!(bb.witness_t(Value::new(5)), None, "below f+1 anyway");
    }

    #[test]
    #[should_panic(expected = "f < n/2")]
    fn resilience_check() {
        let cfg = Config::new(4, 2).unwrap();
        let chain = Keychain::generate(4, 1);
        let _ = SyncStartBb::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            BIG_DELTA,
            PartyId::new(0),
            Some(Value::ZERO),
        );
    }

    /// `voter`'s timed vote `⟨vote, d, ⟨propose, 5⟩_P0⟩`, put together from
    /// its wire bytes and signatures.
    fn timed_vote(chain: &Keychain, voter: u32, d: u64) -> Fig6Vote {
        use gcl_crypto::Digest;
        use gcl_types::{Decode, Encode};
        let (v, d) = (Value::new(5), Duration::from_micros(d));
        let prop_sig = chain
            .signer(PartyId::new(0))
            .sign(Digest::of(&("fig6-prop", v)));
        let vote_sig = chain
            .signer(PartyId::new(voter))
            .sign(Digest::of(&("fig6-vote", d, v)));
        let mut bytes = Vec::new();
        d.encode(&mut bytes);
        v.encode(&mut bytes);
        prop_sig.encode(&mut bytes);
        vote_sig.encode(&mut bytes);
        Fig6Vote::from_wire(&bytes).unwrap()
    }

    #[test]
    fn a_voters_later_timed_vote_replaces_its_earlier_one() {
        // P2 votes for 5 with d = 700, then with d = 200. Once P0 (d = 100)
        // and P3 (d = 300) have voted too, P1 holds f + 1 = 3 votes and,
        // past t + Δ, commits and forwards them: the bundle carries P2's
        // later vote, so t = 300, not 700.
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 85);
        let mut p = SyncStartBb::new(
            cfg,
            chain.signer(PartyId::new(1)),
            chain.pki(),
            BIG_DELTA,
            PartyId::new(0),
            None,
        );
        let mut ctx = Rec::new(cfg, 1);
        ctx.now = LocalTime::from_micros(2_000);
        for (voter, d) in [(2, 700), (2, 200), (0, 100), (3, 300)] {
            let vote = SyncStartMsg::Vote(timed_vote(&chain, voter, d));
            Protocol::on_message(&mut p, PartyId::new(voter), vote, &mut ctx);
        }
        let forwarded = [(0, 100), (2, 200), (3, 300)].map(|(i, d)| timed_vote(&chain, i, d));
        assert_eq!(ctx.sent, [SyncStartMsg::VoteBundle(forwarded.to_vec())]);
    }
}
