//! Figure 10: the `2δ`-BB protocol — `0 < f < n/3`, unsynchronized start,
//! optimal good-case latency `2δ` (Theorems 8 and 16).
//!
//! ```text
//! Init:     lock = ⊥, σ := Δ (actual skew ≤ δ, unknown).
//! Propose:  L sends ⟨propose, v⟩_L to all.
//! Vote:     on the first valid proposal, multicast ⟨vote, v⟩_i.
//! Commit:   on n−f votes for v at local time t: forward them, lock = v;
//!           if t ≤ 2Δ + σ, commit v.
//! BA:       at local 3Δ + 2σ, run BA(lock); commit its output if needed.
//! ```
//!
//! The fast path needs only quorum intersection (`f < n/3`): two values
//! can never both gather `n − f` votes, so `lock` is unique across honest
//! parties whenever anyone commits, and BA validity finishes the job.

use super::ba::{BaMsg, LockstepBa, BOT};
use crate::{SignedValue, Tally};
use gcl_crypto::{Signer, Verifier};
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, Duration, PartyId, Value};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Wire messages of the `2δ`-BB protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TwoDeltaMsg {
    /// Step 1: `⟨propose, v⟩_L` (domain `TwoDeltaBb::PROPOSE`).
    Propose(SignedValue),
    /// Step 2: `⟨vote, v⟩_i` (domain `TwoDeltaBb::VOTE`).
    Vote(SignedValue),
    /// Step 3: forwarded quorum.
    VoteBundle(Vec<SignedValue>),
    /// Step 4: embedded Byzantine agreement traffic.
    Ba(BaMsg),
}

gcl_types::wire_enum!(TwoDeltaMsg {
    1 => Propose(prop),
    2 => Vote(vote),
    3 => VoteBundle(votes),
    4 => Ba(msg),
});

const TAG_BA_START: u64 = 1;

/// One party of the `2δ`-BB protocol (Figure 10).
///
/// # Examples
///
/// With actual delay δ = 100µs and conservative Δ = 1000µs the protocol
/// commits at `2δ = 200µs` — latency tracks the *actual* network, not the
/// pessimistic bound:
///
/// ```
/// use gcl_core::sync::TwoDeltaBb;
/// use gcl_crypto::Keychain;
/// use gcl_sim::{FixedDelay, Simulation, TimingModel};
/// use gcl_types::{Config, Duration, PartyId, Value};
///
/// let cfg = Config::new(4, 1)?;
/// let chain = Keychain::generate(4, 5);
/// let (delta, big_delta) = (Duration::from_micros(100), Duration::from_micros(1_000));
/// let outcome = Simulation::build(cfg)
///     .timing(TimingModel::Synchrony { delta, big_delta })
///     .oracle(FixedDelay::new(delta))
///     .spawn_honest(|p| {
///         TwoDeltaBb::new(cfg, chain.signer(p), chain.pki(), big_delta, PartyId::new(0),
///                         (p == PartyId::new(0)).then_some(Value::new(3)))
///     })
///     .run();
/// assert_eq!(outcome.good_case_latency(), Some(delta * 2));
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct TwoDeltaBb {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    big_delta: Duration,
    broadcaster: PartyId,
    input: Option<Value>,
    lock: Value,
    voted: bool,
    committed: bool,
    forwarded: bool,
    votes: Tally<Value, SignedValue>,
    ba: LockstepBa,
}

impl TwoDeltaBb {
    /// The domain the broadcaster's proposal is signed under.
    pub(crate) const PROPOSE: &'static str = "fig10-prop";
    /// The domain a vote is signed under.
    pub(crate) const VOTE: &'static str = "fig10-vote";

    /// Creates the party-side state. The protocol sets its internal skew
    /// parameter σ := Δ, as the paper prescribes when δ is unknown.
    ///
    /// # Panics
    ///
    /// Panics if `f ≥ n/3` or the input/broadcaster roles disagree.
    pub fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        big_delta: Duration,
        broadcaster: PartyId,
        input: Option<Value>,
    ) -> Self {
        assert!(3 * config.f() < config.n(), "2δ-BB requires f < n/3");
        assert_eq!(input.is_some(), signer.id() == broadcaster);
        let verifier = verifier.into();
        let ba = LockstepBa::new(
            config,
            signer.clone(),
            Arc::clone(verifier.pki()),
            big_delta,
        );
        TwoDeltaBb {
            config,
            signer,
            verifier,
            big_delta,
            broadcaster,
            input,
            lock: BOT,
            voted: false,
            committed: false,
            forwarded: false,
            votes: Tally::new(),
            ba,
        }
    }

    /// Local commit deadline `2Δ + σ` with σ := Δ.
    fn commit_deadline(&self) -> Duration {
        self.big_delta * 3
    }

    /// BA invocation time `3Δ + 2σ` with σ := Δ.
    fn ba_time(&self) -> Duration {
        self.big_delta * 5
    }

    fn on_vote(&mut self, vote: SignedValue, ctx: &mut dyn Context<TwoDeltaMsg>) {
        if !vote.verify_embedded(Self::VOTE, &self.verifier) {
            return;
        }
        let _ = self.votes.insert(vote.value, vote.signer(), vote);
        if self.votes.count(&vote.value) >= self.config.quorum() && !self.forwarded {
            self.forwarded = true;
            let bundle = self.votes.bundle(&vote.value);
            self.lock = vote.value;
            ctx.multicast_except(TwoDeltaMsg::VoteBundle(bundle), self.signer.id());
            if !self.committed && ctx.now().as_micros() <= self.commit_deadline().as_micros() {
                self.committed = true;
                ctx.commit(vote.value);
            }
        }
    }
}

impl Protocol for TwoDeltaBb {
    type Msg = TwoDeltaMsg;

    fn start(&mut self, ctx: &mut dyn Context<TwoDeltaMsg>) {
        ctx.set_timer(self.ba_time(), TAG_BA_START);
        if let Some(v) = self.input {
            let prop = SignedValue::new(Self::PROPOSE, &self.signer, v);
            ctx.multicast(TwoDeltaMsg::Propose(prop));
        }
    }

    fn on_message(&mut self, from: PartyId, msg: TwoDeltaMsg, ctx: &mut dyn Context<TwoDeltaMsg>) {
        match msg {
            TwoDeltaMsg::Propose(prop) => {
                if from == self.broadcaster
                    && !self.voted
                    && prop.verify(Self::PROPOSE, self.broadcaster, &self.verifier)
                {
                    self.voted = true;
                    let vote = SignedValue::new(Self::VOTE, &self.signer, prop.value);
                    ctx.multicast(TwoDeltaMsg::Vote(vote));
                }
            }
            TwoDeltaMsg::Vote(vote) => self.on_vote(vote, ctx),
            TwoDeltaMsg::VoteBundle(votes) => {
                // Adopt each valid vote; dedup happens in the maps. The
                // distinct-voter quorum check runs per value as usual.
                let distinct: BTreeSet<PartyId> = votes.iter().map(SignedValue::signer).collect();
                if distinct.len() != votes.len() {
                    return;
                }
                for vote in votes {
                    self.on_vote(vote, ctx);
                }
            }
            TwoDeltaMsg::Ba(m) => {
                self.ba.note_now(ctx.now());
                self.ba.on_message(m);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<TwoDeltaMsg>) {
        if tag == TAG_BA_START {
            let lock = self.lock;
            self.ba.invoke(lock, ctx, TwoDeltaMsg::Ba);
        } else if let Some(out) = self.ba.on_timer(tag, ctx, TwoDeltaMsg::Ba) {
            if !self.committed {
                self.committed = true;
                ctx.commit(out);
            }
            ctx.terminate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_crypto::Keychain;
    use gcl_sim::{
        FixedDelay, LinkDelay, Outcome, PartySet, ScheduleOracle, Scripted, ScriptedAction, Silent,
        Simulation, TimingModel,
    };
    use gcl_types::{LocalTime, SkewSchedule};

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
        let chain = Keychain::generate(n, 60);
        let mut b = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA));
        if skewed {
            // Unsynchronized start: skews up to δ (clock sync guarantees).
            let late: Vec<(PartyId, Duration)> = (1..n as u32)
                .map(|i| {
                    (
                        PartyId::new(i),
                        Duration::from_micros(u64::from(i) % 2 * 50),
                    )
                })
                .collect();
            b = b.skew(SkewSchedule::with_late_parties(n, &late));
        }
        b.spawn_honest(|p| {
            TwoDeltaBb::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                BIG_DELTA,
                PartyId::new(0),
                (p == PartyId::new(0)).then_some(Value::new(7)),
            )
        })
        .run()
    }

    #[test]
    fn good_case_latency_2_delta_small() {
        for (n, f) in [(4, 1), (7, 2), (10, 3)] {
            let o = good_case(n, f, false);
            assert!(o.validity_holds(Value::new(7)), "n={n}");
            assert_eq!(
                o.first_commit_latency(),
                Some(DELTA * 2),
                "commit at 2δ, not 2Δ"
            );
            assert_eq!(o.good_case_latency(), Some(DELTA * 2));
        }
    }

    #[test]
    fn good_case_with_unsynchronized_start() {
        let o = good_case(4, 1, true);
        assert!(o.validity_holds(Value::new(7)));
        // Commits within 2δ of the broadcaster's start plus skew slack.
        assert!(o.good_case_latency().unwrap() <= DELTA * 2 + Duration::from_micros(50));
    }

    #[test]
    fn latency_tracks_delta_not_big_delta() {
        // Halve δ: latency halves; Δ stays fixed.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 61);
        let small = Duration::from_micros(50);
        let o = Simulation::build(cfg)
            .timing(TimingModel::Synchrony {
                delta: small,
                big_delta: BIG_DELTA,
            })
            .oracle(FixedDelay::new(small))
            .spawn_honest(|p| {
                TwoDeltaBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    BIG_DELTA,
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(7)),
                )
            })
            .run();
        assert_eq!(o.good_case_latency(), Some(small * 2));
    }

    #[test]
    fn silent_broadcaster_falls_back_to_ba() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 62);
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(|p| {
                TwoDeltaBb::new(
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
        assert!(o.all_honest_committed(), "BB termination is unconditional");
        assert_eq!(o.committed_value(), Some(BOT), "agreed default");
    }

    #[test]
    fn equivocating_broadcaster_safe() {
        // Proposer sends 0 to P1, 1 to P2 and P3: neither reaches the n−f=3
        // vote quorum among honest, BA on ⊥ locks resolves it.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 63);
        let s0 = chain.signer(PartyId::new(0));
        let p0 = SignedValue::new(TwoDeltaBb::PROPOSE, &s0, Value::ZERO);
        let p1 = SignedValue::new(TwoDeltaBb::PROPOSE, &s0, Value::ONE);
        let actions = vec![
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(1),
                msg: TwoDeltaMsg::Propose(p0),
            },
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(2),
                msg: TwoDeltaMsg::Propose(p1),
            },
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(3),
                msg: TwoDeltaMsg::Propose(p1),
            },
        ];
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Scripted::new(actions))
            .spawn_honest(|p| {
                TwoDeltaBb::new(
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
    fn slow_votes_commit_via_ba_with_same_value() {
        // Votes crawl at Δ (not δ): quorum lands after the 3Δ fast-path
        // window at some parties — but agreement + termination still hold
        // and the committed value is the broadcaster's (BA validity).
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 64);
        let oracle: ScheduleOracle<TwoDeltaMsg> = ScheduleOracle::new(DELTA).rule(
            gcl_sim::DelayRule::link(PartySet::Any, PartySet::Any, LinkDelay::Finite(BIG_DELTA))
                .when(|m: &TwoDeltaMsg| {
                    matches!(m, TwoDeltaMsg::Vote(_) | TwoDeltaMsg::VoteBundle(_))
                }),
        );
        let o = Simulation::build(cfg)
            .timing(TimingModel::Synchrony {
                delta: BIG_DELTA,
                big_delta: BIG_DELTA,
            })
            .oracle(oracle)
            .spawn_honest(|p| {
                TwoDeltaBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    BIG_DELTA,
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(7)),
                )
            })
            .run();
        assert!(o.validity_holds(Value::new(7)));
    }

    #[test]
    #[should_panic(expected = "f < n/3")]
    fn resilience_check() {
        let cfg = Config::new(3, 1).unwrap();
        let chain = Keychain::generate(3, 1);
        let _ = TwoDeltaBb::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            BIG_DELTA,
            PartyId::new(0),
            Some(Value::ZERO),
        );
    }
}
