//! Figure 9: the `(Δ+1.5δ)`-BB protocol — `n/3 < f < n/2`,
//! **unsynchronized start**, optimal good-case latency `Δ + 1.5δ`
//! (Theorems 10 and 11).
//!
//! The paper's most surprising protocol: the tight bound is *not an integer
//! multiple of the message delay*. Parties "early-vote" with a parameter
//! `d` that guesses δ — a vote with parameter `d` is sent `Δ − 0.5d` after
//! the proposal arrived, and a commit on `f + 1` matching `(d, v)` votes
//! additionally requires quiet (no equivocation) until `t_prop + Δ + 0.5d`
//! and a direct copy of the proposal from the broadcaster. Certificates are
//! ranked by `d` (smaller wins), which breaks the tie that would otherwise
//! make early voting unsafe (Lemma 1).
//!
//! The pure protocol votes for *every* `d ∈ [0, Δ]` (unbounded messages —
//! the paper's own footnote). As the paper prescribes under "Tradeoff
//! between communication complexity and good-case latency", we discretize
//! to `m + 1` grid values `d_k = kΔ/m`, giving good-case latency
//! `(1 + 1/2m)Δ + 1.5δ` with `O(mn²)` messages; the Figure 8 bench sweeps
//! `m`.

use super::ba::{BaMsg, LockstepBa, BOT};
use super::bb_sync_start::Fig6Vote;
use crate::{SignedValue, Tally};
use gcl_crypto::{Signer, Verifier};
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, Duration, LocalTime, PartyId, Value};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Wire messages of the `(Δ+1.5δ)`-BB protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UnsyncMsg {
    /// Step 1–2: original or forwarded proposal (domain `UnsyncBb::PROPOSE`).
    Propose(SignedValue),
    /// Step 3: an early vote, Figure 6's timed vote under the domains
    /// `UnsyncBb::{PROPOSE, VOTE}`.
    Vote(Fig6Vote),
    /// Step 4: forwarded `f + 1` votes of one `(d, v)`.
    VoteBundle(Vec<Fig6Vote>),
    /// Step 5: embedded BA traffic.
    Ba(BaMsg),
}

gcl_types::wire_enum!(UnsyncMsg {
    1 => Propose(prop),
    2 => Vote(vote),
    3 => VoteBundle(votes),
    4 => Ba(msg),
});

const TAG_BA_START: u64 = 1;
const TAG_VOTE_BASE: u64 = 100;
const TAG_CHECK_BASE: u64 = 10_000;

/// One party of the Figure 9 protocol, with an `m`-point discretized vote
/// grid.
///
/// # Examples
///
/// With δ on the grid (here m = 10, δ = Δ/10), the good case commits at
/// exactly `Δ + 1.5δ`:
///
/// ```
/// use gcl_core::sync::UnsyncBb;
/// use gcl_crypto::Keychain;
/// use gcl_sim::{FixedDelay, Simulation, TimingModel};
/// use gcl_types::{Config, Duration, PartyId, SkewSchedule, Value};
///
/// let cfg = Config::new(5, 2)?;
/// let chain = Keychain::generate(5, 8);
/// let (delta, big_delta) = (Duration::from_micros(100), Duration::from_micros(1_000));
/// let outcome = Simulation::build(cfg)
///     .timing(TimingModel::Synchrony { delta, big_delta })
///     .oracle(FixedDelay::new(delta))
///     .skew(SkewSchedule::with_late_parties(5, &[(PartyId::new(1), Duration::from_micros(50))]))
///     .spawn_honest(|p| {
///         UnsyncBb::new(cfg, chain.signer(p), chain.pki(), big_delta, 10, PartyId::new(0),
///                       (p == PartyId::new(0)).then_some(Value::new(3)))
///     })
///     .run();
/// // Δ + 1.5δ = 1000 + 150, plus the laggard's 50µs start offset at most.
/// assert!(outcome.good_case_latency().unwrap()
///         <= Duration::from_micros(1_150 + 50));
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct UnsyncBb {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    big_delta: Duration,
    grid: Vec<Duration>,
    broadcaster: PartyId,
    input: Option<Value>,
    lock: Value,
    rank: Duration,
    direct_rcv: bool,
    t_prop: Option<LocalTime>,
    prop: Option<SignedValue>,
    proposals_seen: BTreeSet<Value>,
    equivocation_at: Option<LocalTime>,
    committed: bool,
    votes: Tally<(Duration, Value), Fig6Vote>,
    /// First completion time of each `(d, v)` quorum.
    quorum_at: BTreeMap<(Duration, Value), LocalTime>,
    /// Scheduled commit checks: index → (d, value).
    pending: Vec<(Duration, Value)>,
    ba: LockstepBa,
}

impl UnsyncBb {
    /// The domain the broadcaster's proposal is signed under.
    pub(crate) const PROPOSE: &'static str = "fig9-prop";
    /// The domain an early vote is signed under.
    pub(crate) const VOTE: &'static str = "fig9-vote";

    /// Creates the party-side state with an `m`-point grid (σ := Δ
    /// internally, as the paper prescribes).
    ///
    /// # Panics
    ///
    /// Panics if `f ≥ n/2`, `m == 0`, or the input/roles disagree.
    pub fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        big_delta: Duration,
        m: u64,
        broadcaster: PartyId,
        input: Option<Value>,
    ) -> Self {
        assert!(2 * config.f() < config.n(), "(Δ+1.5δ)-BB requires f < n/2");
        assert!(m >= 1, "grid needs at least one step");
        assert_eq!(input.is_some(), signer.id() == broadcaster);
        let grid: Vec<Duration> = (0..=m).map(|k| big_delta * k / m).collect();
        let verifier = verifier.into();
        let ba = LockstepBa::new(
            config,
            signer.clone(),
            Arc::clone(verifier.pki()),
            big_delta,
        );
        UnsyncBb {
            config,
            signer,
            verifier,
            big_delta,
            grid,
            broadcaster,
            input,
            lock: BOT,
            rank: big_delta + Duration::from_micros(1),
            direct_rcv: false,
            t_prop: None,
            prop: None,
            proposals_seen: BTreeSet::new(),
            equivocation_at: None,
            committed: false,
            votes: Tally::new(),
            quorum_at: BTreeMap::new(),
            pending: Vec::new(),
            ba,
        }
    }

    /// BA invocation time `6.5Δ + 2σ` with σ := Δ → `8.5Δ`.
    fn ba_time(&self) -> Duration {
        self.big_delta * 17 / 2
    }

    fn note_proposal(&mut self, value: Value, now: LocalTime) {
        self.proposals_seen.insert(value);
        if self.proposals_seen.len() >= 2 && self.equivocation_at.is_none() {
            self.equivocation_at = Some(now);
        }
    }

    fn quiet_until(&self, deadline: LocalTime) -> bool {
        self.equivocation_at.is_none_or(|e| e > deadline)
    }

    /// Step 2: first valid proposal — forward, set `direct-rcv`, arm the
    /// per-`d` vote timers.
    fn adopt_proposal(
        &mut self,
        from: PartyId,
        prop: SignedValue,
        ctx: &mut dyn Context<UnsyncMsg>,
    ) {
        self.note_proposal(prop.value, ctx.now());
        if self.t_prop.is_some() {
            return;
        }
        let now = ctx.now();
        self.t_prop = Some(now);
        self.prop = Some(prop);
        ctx.multicast_except(UnsyncMsg::Propose(prop), self.signer.id());
        // direct-rcv: straight from the broadcaster, within Δ + σ = 2Δ.
        if from == self.broadcaster && now.as_micros() <= (self.big_delta * 2).as_micros() {
            self.direct_rcv = true;
        }
        for (k, d) in self.grid.clone().into_iter().enumerate() {
            let wait = self.big_delta - d.halved(); // Δ − 0.5d
            ctx.set_timer(wait, TAG_VOTE_BASE + k as u64);
        }
    }

    fn on_new_quorum(&mut self, key: (Duration, Value), ctx: &mut dyn Context<UnsyncMsg>) {
        let (d, value) = key;
        let Some(t_prop) = self.t_prop else { return };
        let now = ctx.now();
        let t_votes = self.quorum_at[&key];
        let bundle = self.votes.bundle(&key);
        ctx.multicast_except(UnsyncMsg::VoteBundle(bundle), self.signer.id());
        // Step 4b: lock if t_votes − t_prop ≤ 4.5Δ and rank improves.
        if t_votes.since(t_prop).as_micros() <= (self.big_delta * 9 / 2).as_micros()
            && d < self.rank
        {
            self.lock = value;
            self.rank = d;
        }
        // Step 4a: commit path.
        if self.committed
            || !self.direct_rcv
            || t_votes.since(t_prop).as_micros() > (self.big_delta + d + d.halved()).as_micros()
        {
            return; // Δ + 1.5d window missed (or already committed)
        }
        let deadline = t_prop + (self.big_delta + d.halved()); // t_prop + Δ + 0.5d
        if now >= deadline {
            if self.quiet_until(deadline) {
                self.committed = true;
                ctx.commit(value);
            }
        } else {
            let idx = self.pending.len() as u64;
            self.pending.push(key);
            ctx.set_timer(deadline.since(now), TAG_CHECK_BASE + idx);
        }
    }

    fn record_vote(&mut self, vote: Fig6Vote, ctx: &mut dyn Context<UnsyncMsg>) {
        if !vote.verify(Self::PROPOSE, Self::VOTE, self.broadcaster, &self.verifier)
            || vote.d > self.big_delta
        {
            return;
        }
        // A vote embeds the proposal, so it doubles as a forwarded proposal.
        self.adopt_proposal(vote.voter(), vote.prop, ctx);
        self.note_proposal(vote.prop.value, ctx.now());
        let key = (vote.d, vote.prop.value);
        // Each (d, v) quorum completes, and is forwarded, exactly once.
        if self.votes.insert(key, vote.voter(), vote) == Ok(self.config.honest_witness()) {
            self.quorum_at.insert(key, ctx.now());
            self.on_new_quorum(key, ctx);
        }
    }
}

impl Protocol for UnsyncBb {
    type Msg = UnsyncMsg;

    fn start(&mut self, ctx: &mut dyn Context<UnsyncMsg>) {
        ctx.set_timer(self.ba_time(), TAG_BA_START);
        if let Some(v) = self.input {
            let prop = SignedValue::new(Self::PROPOSE, &self.signer, v);
            ctx.multicast(UnsyncMsg::Propose(prop));
        }
    }

    fn on_message(&mut self, from: PartyId, msg: UnsyncMsg, ctx: &mut dyn Context<UnsyncMsg>) {
        match msg {
            UnsyncMsg::Propose(prop) => {
                if prop.verify(Self::PROPOSE, self.broadcaster, &self.verifier) {
                    self.adopt_proposal(from, prop, ctx);
                }
            }
            UnsyncMsg::Vote(vote) => self.record_vote(vote, ctx),
            UnsyncMsg::VoteBundle(votes) => {
                for vote in votes {
                    self.record_vote(vote, ctx);
                }
            }
            UnsyncMsg::Ba(m) => {
                self.ba.note_now(ctx.now());
                self.ba.on_message(m);
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<UnsyncMsg>) {
        if tag == TAG_BA_START {
            let lock = self.lock;
            self.ba.invoke(lock, ctx, UnsyncMsg::Ba);
        } else if tag >= LockstepBa::TAG_BASE {
            if let Some(out) = self.ba.on_timer(tag, ctx, UnsyncMsg::Ba) {
                if !self.committed {
                    self.committed = true;
                    ctx.commit(out);
                }
                ctx.terminate();
            }
        } else if tag >= TAG_CHECK_BASE {
            // Deferred commit check at t_prop + Δ + 0.5d.
            let idx = (tag - TAG_CHECK_BASE) as usize;
            let Some(&(d, value)) = self.pending.get(idx) else {
                return;
            };
            let Some(t_prop) = self.t_prop else { return };
            let deadline = t_prop + (self.big_delta + d.halved());
            if !self.committed && self.direct_rcv && self.quiet_until(deadline) {
                self.committed = true;
                ctx.commit(value);
            }
        } else if tag >= TAG_VOTE_BASE {
            // Step 3: early vote with grid parameter d_k.
            let k = (tag - TAG_VOTE_BASE) as usize;
            let (Some(prop), Some(d)) = (self.prop, self.grid.get(k).copied()) else {
                return;
            };
            if self.equivocation_at.is_none() {
                let vote = Fig6Vote::new(Self::VOTE, &self.signer, d, prop);
                // Votes count as messages "containing different values
                // signed by the broadcaster" for receivers, and our own
                // vote reaches us immediately via multicast.
                ctx.multicast(UnsyncMsg::Vote(vote));
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
    const M: u64 = 10; // δ = Δ/10 sits exactly on the grid

    fn sync_model() -> TimingModel {
        TimingModel::Synchrony {
            delta: DELTA,
            big_delta: BIG_DELTA,
        }
    }

    fn good_case(n: usize, f: usize, skew: Option<SkewSchedule>) -> Outcome {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 90);
        let mut b = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA));
        if let Some(s) = skew {
            b = b.skew(s);
        }
        b.spawn_honest(|p| {
            UnsyncBb::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                BIG_DELTA,
                M,
                PartyId::new(0),
                (p == PartyId::new(0)).then_some(Value::new(5)),
            )
        })
        .run()
    }

    #[test]
    fn good_case_latency_delta_plus_1_5_delta() {
        // δ on the grid ⇒ exactly Δ + 1.5δ with synchronized start.
        for (n, f) in [(5, 2), (7, 3)] {
            let o = good_case(n, f, None);
            assert!(o.validity_holds(Value::new(5)), "n={n} f={f}");
            assert_eq!(
                o.good_case_latency(),
                Some(BIG_DELTA + DELTA + DELTA.halved()),
                "n={n} f={f}: Δ + 1.5δ"
            );
        }
    }

    #[test]
    fn good_case_with_clock_skew() {
        // Unsynchronized start with skew 0.5δ (the model's lower bound on
        // achievable skew): still ≈ Δ + 1.5δ from the broadcaster's start.
        let skew = SkewSchedule::with_late_parties(
            5,
            &[
                (PartyId::new(1), DELTA.halved()),
                (PartyId::new(3), DELTA.halved()),
            ],
        );
        let o = good_case(5, 2, Some(skew));
        assert!(o.validity_holds(Value::new(5)));
        let bound = BIG_DELTA + DELTA + DELTA.halved() + DELTA.halved();
        assert!(
            o.good_case_latency().unwrap() <= bound,
            "latency {} exceeds Δ + 1.5δ + σ",
            o.good_case_latency().unwrap()
        );
    }

    #[test]
    fn coarser_grid_adds_half_step() {
        // m = 1: grid {0, Δ}; δ rounds up to d = Δ, so the commit waits
        // until t_prop + Δ + 0.5Δ — latency (1 + 1/2m)Δ + ... per paper.
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 91);
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .spawn_honest(|p| {
                UnsyncBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    BIG_DELTA,
                    1,
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(5)),
                )
            })
            .run();
        assert!(o.validity_holds(Value::new(5)));
        // d = Δ: committed at δ + Δ + 0.5Δ = 1600µs.
        assert_eq!(
            o.good_case_latency(),
            Some(DELTA + BIG_DELTA + BIG_DELTA.halved())
        );
    }

    #[test]
    fn finer_grid_converges_to_optimum() {
        // Latency is non-increasing in m and approaches Δ + 1.5δ.
        let mut last = Duration::from_micros(u64::MAX);
        for m in [1, 2, 5, 10] {
            let cfg = Config::new(5, 2).unwrap();
            let chain = Keychain::generate(5, 92);
            let o = Simulation::build(cfg)
                .timing(sync_model())
                .oracle(FixedDelay::new(DELTA))
                .spawn_honest(|p| {
                    UnsyncBb::new(
                        cfg,
                        chain.signer(p),
                        chain.pki(),
                        BIG_DELTA,
                        m,
                        PartyId::new(0),
                        (p == PartyId::new(0)).then_some(Value::new(5)),
                    )
                })
                .run();
            let lat = o.good_case_latency().unwrap();
            assert!(lat <= last, "m={m}: {lat} > previous {last}");
            last = lat;
        }
        assert_eq!(last, BIG_DELTA + DELTA + DELTA.halved());
    }

    #[test]
    fn silent_broadcaster_ba_fallback() {
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 93);
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(|p| {
                UnsyncBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    BIG_DELTA,
                    M,
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
    fn equivocation_blocks_fast_commit_and_agreement_holds() {
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 94);
        let s0 = chain.signer(PartyId::new(0));
        let p0 = SignedValue::new(UnsyncBb::PROPOSE, &s0, Value::ZERO);
        let p1 = SignedValue::new(UnsyncBb::PROPOSE, &s0, Value::ONE);
        let actions = vec![
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(1),
                msg: UnsyncMsg::Propose(p0),
            },
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(2),
                msg: UnsyncMsg::Propose(p0),
            },
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(3),
                msg: UnsyncMsg::Propose(p1),
            },
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(4),
                msg: UnsyncMsg::Propose(p1),
            },
        ];
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Scripted::new(actions))
            .spawn_honest(|p| {
                UnsyncBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    BIG_DELTA,
                    M,
                    PartyId::new(0),
                    None,
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        // Forwarded proposals cross well within every Δ − 0.5d window, so
        // no votes are cast at all and everything resolves in the BA.
        for c in o.honest_commits() {
            assert!(c.local.as_micros() >= (BIG_DELTA * 17 / 2).as_micros());
        }
    }

    #[test]
    fn no_direct_receipt_no_fast_commit() {
        // Proposal reaches P4 only via forwarding (broadcaster's direct
        // copy to P4 is dropped): P4 must not fast-commit (direct-rcv
        // gate), but everyone still agrees.
        use gcl_sim::{DelayRule, LinkDelay, PartySet, ScheduleOracle};
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 95);
        let oracle: ScheduleOracle<UnsyncMsg> = ScheduleOracle::new(DELTA).rule(DelayRule::link(
            PartySet::One(PartyId::new(0)),
            PartySet::One(PartyId::new(4)),
            LinkDelay::Never,
        ));
        // Broadcaster slot is Byzantine (it selectively omits), but runs
        // the honest protocol code.
        let o = Simulation::build(cfg)
            .timing(sync_model())
            .oracle(oracle)
            .byzantine(
                PartyId::new(0),
                UnsyncBb::new(
                    cfg,
                    chain.signer(PartyId::new(0)),
                    chain.pki(),
                    BIG_DELTA,
                    M,
                    PartyId::new(0),
                    Some(Value::new(5)),
                ),
            )
            .spawn_honest(|p| {
                UnsyncBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    BIG_DELTA,
                    M,
                    PartyId::new(0),
                    None,
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(Value::new(5)));
        // P4 committed late (via lock + BA), the others fast.
        let c4 = o.commit_of(PartyId::new(4)).unwrap();
        assert!(c4.local.as_micros() >= (BIG_DELTA * 17 / 2).as_micros());
    }

    #[test]
    #[should_panic(expected = "f < n/2")]
    fn resilience_check() {
        let cfg = Config::new(4, 2).unwrap();
        let chain = Keychain::generate(4, 1);
        let _ = UnsyncBb::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            BIG_DELTA,
            M,
            PartyId::new(0),
            Some(Value::ZERO),
        );
    }

    #[test]
    #[should_panic(expected = "at least one step")]
    fn zero_grid_rejected() {
        let cfg = Config::new(5, 2).unwrap();
        let chain = Keychain::generate(5, 1);
        let _ = UnsyncBb::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            BIG_DELTA,
            0,
            PartyId::new(0),
            Some(Value::ZERO),
        );
    }

    use gcl_types::LocalTime;
}
