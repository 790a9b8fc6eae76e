//! Dishonest-majority Byzantine broadcast (`n/2 ≤ f < n`), after Wan et
//! al. [34] with the paper's fast path (Section C.5).
//!
//! Structure per epoch `e` (leader `L_e`, `L_1` = broadcaster):
//!
//! 1. **Propose** (1 round, the fast path): `L_e` multicasts a signed
//!    proposal directly instead of TrustCasting it.
//! 2. **Vote** (one TrustCast, deadline `(⌊n/(n−f)⌋ + 1)Δ`): every party
//!    floods a signed vote for the first valid proposal — or for its lock,
//!    if it holds one.
//! 3. **Commit**: at the vote deadline, a party that has votes for one
//!    value `v` from **every party it still trusts** (and no leader
//!    equivocation proof) commits `v`, floods the vote set as a commit
//!    certificate, and keeps voting `v` in later epochs until everyone is
//!    done. Parties that missed the deadline get distrusted; transferable
//!    misbehavior (leader equivocation, double votes) distrusts too.
//! 4. A commit certificate covering the *receiver's* trust set makes the
//!    receiver lock and commit as well.
//!
//! Good-case latency ≈ `Δ + (⌊n/(n−f)⌋ + 1)Δ = Θ(n/(n−f))·Δ`, matching the
//! paper's upper bound row (`O(n/(n−f))Δ` vs the `(⌊n/(n−f)⌋ − 1)Δ` lower
//! bound of Theorem 19).
//!
//! **Scope note**: safety rests on the unanimity-of-trusted-voters rule —
//! honest parties never distrust each other, an honest committer keeps
//! voting its value, so no conflicting value can ever assemble a
//! fully-trusted vote set. Worst-case *liveness* against adaptive
//! vote-splitting adversaries needs the full Wan et al. machinery
//! (randomized leader election, graph-diameter maintenance; `trustcast`
//! substitutes round-robin epoch leaders and a plain trust set) and is out
//! of scope; Table 1 only needs the good case, crash faults and
//! equivocation, which the tests below exercise.

use super::trustcast::{trustcast_deadline, TrustCast, TrustCastMsg, TrustGraph};
use crate::Tally;
use gcl_crypto::{Digest, Signature, Signer, Verifier, Verify};
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, Duration, PartyId, Value};
use std::collections::{BTreeMap, BTreeSet};

/// Leader-signed proposal for one epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajProposal {
    /// Proposed value.
    pub value: Value,
    /// Epoch number (1-based).
    pub epoch: u64,
    /// Leader signature over `("maj-prop", value, epoch)`.
    pub sig: Signature,
}

impl MajProposal {
    fn digest(value: Value, epoch: u64) -> Digest {
        Digest::of(&("maj-prop", value, epoch))
    }

    fn new(signer: &Signer, value: Value, epoch: u64) -> Self {
        MajProposal {
            value,
            epoch,
            sig: signer.sign(Self::digest(value, epoch)),
        }
    }

    fn verify(&self, leader: PartyId, v: &impl Verify) -> bool {
        self.sig.signer() == leader
            && v.verify(leader, Self::digest(self.value, self.epoch), &self.sig)
    }
}

/// A flooded, signed vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MajVote {
    /// Voted value.
    pub value: Value,
    /// Epoch.
    pub epoch: u64,
    /// Voter signature over `("maj-vote", value, epoch)`.
    pub sig: Signature,
}

impl MajVote {
    fn digest(value: Value, epoch: u64) -> Digest {
        Digest::of(&("maj-vote", value, epoch))
    }

    fn new(signer: &Signer, value: Value, epoch: u64) -> Self {
        MajVote {
            value,
            epoch,
            sig: signer.sign(Self::digest(value, epoch)),
        }
    }

    fn verify(&self, v: &impl Verify) -> bool {
        v.verify_embedded(Self::digest(self.value, self.epoch), &self.sig)
    }

    /// The voter.
    pub(crate) fn voter(&self) -> PartyId {
        self.sig.signer()
    }
}

impl TrustCastMsg for MajVote {
    fn dedup_key(&self) -> u64 {
        let d = Digest::of(&("maj-vote-k", self.value, self.epoch, self.voter()));
        u64::from_le_bytes(d.as_bytes()[..8].try_into().expect("8 bytes"))
    }
}

/// Wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum MajorityMsg {
    /// Fast-path direct proposal.
    Propose(MajProposal),
    /// Flooded proposal copy (also the equivocation-evidence carrier).
    ForwardProp(MajProposal),
    /// Flooded vote.
    Vote(MajVote),
    /// Commit certificate: the committed vote set.
    CommitCert(Vec<MajVote>),
    /// Done marker: sender has committed and may be released.
    Done(MajVote),
}

gcl_types::wire_struct!(MajProposal { value, epoch, sig });
gcl_types::wire_struct!(MajVote { value, epoch, sig });

gcl_types::wire_enum!(MajorityMsg {
    1 => Propose(prop),
    2 => ForwardProp(prop),
    3 => Vote(vote),
    4 => CommitCert(votes),
    5 => Done(vote),
});

const TAG_EPOCH_BASE: u64 = 1;

/// One party of the dishonest-majority BB.
///
/// # Examples
///
/// `n = 4, f = 2` (half Byzantine — here simply silent): commit arrives at
/// the vote deadline, `Δ + 3Δ`:
///
/// ```
/// use gcl_core::dishonest::BbMajority;
/// use gcl_crypto::Keychain;
/// use gcl_sim::{FixedDelay, Silent, Simulation, TimingModel};
/// use gcl_types::{Config, Duration, PartyId, Value};
///
/// let cfg = Config::new(4, 2)?;
/// let chain = Keychain::generate(4, 9);
/// let delta = Duration::from_micros(100);
/// let outcome = Simulation::build(cfg)
///     .timing(TimingModel::lockstep(delta))
///     .oracle(FixedDelay::new(delta))
///     .byzantine(PartyId::new(2), Silent::new())
///     .byzantine(PartyId::new(3), Silent::new())
///     .spawn_honest(|p| {
///         BbMajority::new(cfg, chain.signer(p), chain.pki(), delta, PartyId::new(0),
///                         (p == PartyId::new(0)).then_some(Value::new(3)))
///     })
///     .run();
/// assert!(outcome.validity_holds(Value::new(3)));
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct BbMajority {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    big_delta: Duration,
    broadcaster: PartyId,
    input: Option<Value>,
    fallback: Value,
    epoch: u64,
    trust: TrustGraph,
    flood: TrustCast,
    /// Proposals seen per epoch (first + any equivocation evidence).
    proposals: BTreeMap<u64, BTreeMap<Value, MajProposal>>,
    /// A voter's first vote per epoch; a second, different one distrusts it.
    votes: Tally<u64, MajVote>,
    voted: BTreeSet<u64>,
    lock: Option<(Value, u64)>,
    committed: Option<Value>,
    done_from: BTreeSet<PartyId>,
    max_epochs: u64,
}

impl BbMajority {
    /// Vote-flood deadline for this configuration.
    pub(crate) fn vote_deadline(config: Config, big_delta: Duration) -> Duration {
        trustcast_deadline(config, big_delta)
    }

    /// Epoch duration: 1 proposal round + the vote flood deadline + slack.
    pub(crate) fn epoch_duration(config: Config, big_delta: Duration) -> Duration {
        big_delta + Self::vote_deadline(config, big_delta) + big_delta
    }

    /// Creates the party-side state.
    ///
    /// # Panics
    ///
    /// Panics if the input/broadcaster roles disagree.
    pub fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        big_delta: Duration,
        broadcaster: PartyId,
        input: Option<Value>,
    ) -> Self {
        assert_eq!(input.is_some(), signer.id() == broadcaster);
        let fallback = Value::new(3_000_000 + u64::from(signer.id().index()));
        BbMajority {
            config,
            signer,
            verifier: verifier.into(),
            big_delta,
            broadcaster,
            input,
            fallback,
            epoch: 1,
            trust: TrustGraph::new(config),
            flood: TrustCast::new(),
            proposals: BTreeMap::new(),
            votes: Tally::new(),
            voted: BTreeSet::new(),
            lock: None,
            committed: None,
            done_from: BTreeSet::new(),
            max_epochs: 3 * config.n() as u64,
        }
    }

    fn me(&self) -> PartyId {
        self.signer.id()
    }

    fn leader(&self, epoch: u64) -> PartyId {
        if epoch == 1 {
            self.broadcaster
        } else {
            PartyId::new(((epoch - 1) % self.config.n() as u64) as u32)
        }
    }

    fn note_proposal(&mut self, prop: MajProposal) {
        let bucket = self.proposals.entry(prop.epoch).or_default();
        bucket.entry(prop.value).or_insert(prop);
        if bucket.len() >= 2 {
            // Transferable equivocation proof: distrust the epoch leader.
            let leader = self.leader(prop.epoch);
            self.trust.distrust(leader);
        }
    }

    fn cast_vote(&mut self, epoch: u64, value: Value, ctx: &mut dyn Context<MajorityMsg>) {
        if !self.voted.insert(epoch) {
            return;
        }
        let vote = MajVote::new(&self.signer, value, epoch);
        let me = self.me();
        self.flood.first_sighting(&vote);
        let _ = self.votes.insert(epoch, me, vote);
        ctx.multicast_except(MajorityMsg::Vote(vote), self.me());
    }

    fn record_vote(&mut self, vote: MajVote, ctx: &mut dyn Context<MajorityMsg>) {
        if !vote.verify(&self.verifier) {
            return;
        }
        // Flood exactly once.
        if self.flood.first_sighting(&vote) {
            ctx.multicast_except(MajorityMsg::Vote(vote), self.me());
        }
        if let Err(prev) = self.votes.insert(vote.epoch, vote.voter(), vote) {
            if prev.value != vote.value {
                // Transferable double-vote proof.
                self.trust.distrust(vote.voter());
            }
        }
    }

    /// Commit rule: one value voted by every still-trusted party, and no
    /// equivocation proof against the epoch leader.
    fn try_commit(&mut self, epoch: u64, ctx: &mut dyn Context<MajorityMsg>) {
        let leader_equivocated = self
            .proposals
            .get(&epoch)
            .is_some_and(|props| props.len() >= 2);
        if self.committed.is_some() || leader_equivocated {
            return;
        }
        let unanimous = {
            let mut voted = self
                .trust
                .iter()
                .map(|p| self.votes.get(&epoch, p).map(|v| v.value));
            let first = voted.next().flatten();
            first.filter(|&value| voted.all(|v| v == Some(value)))
        };
        let Some(value) = unanimous else {
            return;
        };
        self.committed = Some(value);
        self.lock = Some((value, epoch));
        let cert: Vec<MajVote> = self
            .votes
            .votes(&epoch)
            .filter(|(_, v)| v.value == value)
            .map(|(_, v)| *v)
            .collect();
        ctx.multicast_except(MajorityMsg::CommitCert(cert), self.me());
        ctx.commit(value);
        // Stay alive: keep voting `value` so no conflicting unanimity can
        // ever form; release peers with Done.
        let done = MajVote::new(&self.signer, value, u64::MAX);
        ctx.multicast_except(MajorityMsg::Done(done), self.me());
        self.maybe_halt(ctx);
    }

    fn on_commit_cert(&mut self, cert: Vec<MajVote>, ctx: &mut dyn Context<MajorityMsg>) {
        if self.committed.is_some() || cert.is_empty() {
            return;
        }
        let value = cert[0].value;
        let epoch = cert[0].epoch;
        if !cert
            .iter()
            .all(|v| v.value == value && v.epoch == epoch && v.verify(&self.verifier))
        {
            return;
        }
        let voters: BTreeSet<PartyId> = cert.iter().map(MajVote::voter).collect();
        // Accept only if it covers *our* trust set: then the same unanimity
        // argument applies locally.
        if self.trust.covered_by(&voters) {
            self.committed = Some(value);
            self.lock = Some((value, epoch));
            ctx.multicast_except(MajorityMsg::CommitCert(cert), self.me());
            ctx.commit(value);
            let done = MajVote::new(&self.signer, value, u64::MAX);
            ctx.multicast_except(MajorityMsg::Done(done), self.me());
            self.maybe_halt(ctx);
        }
    }

    /// Terminate once every trusted party reported Done.
    fn maybe_halt(&mut self, ctx: &mut dyn Context<MajorityMsg>) {
        if self.committed.is_none() {
            return;
        }
        let mut done = self.done_from.clone();
        done.insert(self.me());
        if self.trust.covered_by(&done) {
            ctx.terminate();
        }
    }

    fn begin_epoch(&mut self, epoch: u64, ctx: &mut dyn Context<MajorityMsg>) {
        self.epoch = epoch;
        if epoch > self.max_epochs {
            // Bounded-run safeguard for simulations (documented scope).
            if let Some(v) = self.committed {
                ctx.commit(v);
            }
            ctx.terminate();
            return;
        }
        let dur = Self::epoch_duration(self.config, self.big_delta);
        // Vote deadline for this epoch, then next epoch.
        ctx.set_timer(
            dur * (epoch - 1) + self.big_delta + Self::vote_deadline(self.config, self.big_delta)
                - ctx.now().since(gcl_types::LocalTime::ZERO),
            TAG_EPOCH_BASE + epoch * 2,
        );
        ctx.set_timer(
            dur * epoch - ctx.now().since(gcl_types::LocalTime::ZERO),
            TAG_EPOCH_BASE + epoch * 2 + 1,
        );
        if self.leader(epoch) == self.me() {
            let value = self
                .committed
                .or(self.lock.map(|(v, _)| v))
                .or(self.input)
                .unwrap_or(self.fallback);
            let prop = MajProposal::new(&self.signer, value, epoch);
            self.note_proposal(prop);
            ctx.multicast(MajorityMsg::Propose(prop));
        }
        // Committed parties re-assert their value each epoch.
        if let Some(v) = self.committed {
            self.cast_vote(epoch, v, ctx);
        }
    }

    fn handle_proposal(&mut self, prop: MajProposal, ctx: &mut dyn Context<MajorityMsg>) {
        if !prop.verify(self.leader(prop.epoch), &self.verifier) {
            return;
        }
        let first_of_value = self
            .proposals
            .get(&prop.epoch)
            .is_none_or(|b| !b.contains_key(&prop.value));
        self.note_proposal(prop);
        if first_of_value {
            // Flood (carries equivocation evidence to everyone).
            ctx.multicast_except(MajorityMsg::ForwardProp(prop), self.me());
        }
        if prop.epoch == self.epoch && !self.voted.contains(&prop.epoch) {
            // Vote the lock if held, else the leader's value.
            let value = match (self.committed, self.lock) {
                (Some(v), _) => v,
                (None, Some((v, _))) => v,
                (None, None) => prop.value,
            };
            self.cast_vote(prop.epoch, value, ctx);
        }
    }
}

impl Protocol for BbMajority {
    type Msg = MajorityMsg;

    fn start(&mut self, ctx: &mut dyn Context<MajorityMsg>) {
        self.begin_epoch(1, ctx);
    }

    fn on_message(&mut self, _from: PartyId, msg: MajorityMsg, ctx: &mut dyn Context<MajorityMsg>) {
        match msg {
            MajorityMsg::Propose(p) | MajorityMsg::ForwardProp(p) => {
                self.handle_proposal(p, ctx);
            }
            MajorityMsg::Vote(v) => {
                let epoch = v.epoch;
                self.record_vote(v, ctx);
                // Unanimity may already be reachable before the deadline
                // when every party (trusted so far) has voted.
                self.try_commit(epoch, ctx);
            }
            MajorityMsg::CommitCert(cert) => self.on_commit_cert(cert, ctx),
            MajorityMsg::Done(d) => {
                if d.epoch == u64::MAX && d.verify(&self.verifier) {
                    self.done_from.insert(d.voter());
                    self.maybe_halt(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<MajorityMsg>) {
        let idx = tag - TAG_EPOCH_BASE;
        let epoch = idx / 2;
        if idx.is_multiple_of(2) {
            // Vote deadline: distrust non-voters, then try to commit.
            if epoch == self.epoch && self.committed.is_none() {
                let missing: Vec<PartyId> = self
                    .trust
                    .iter()
                    .filter(|&p| self.votes.get(&epoch, p).is_none())
                    .collect();
                for p in missing {
                    self.trust.distrust(p);
                }
                self.try_commit(epoch, ctx);
            }
        } else if epoch == self.epoch && self.committed.is_none() {
            self.begin_epoch(epoch + 1, ctx);
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

    fn good_case(n: usize, f: usize, silent: &[u32]) -> Outcome {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 100);
        let mut b = Simulation::build(cfg)
            .timing(TimingModel::lockstep(DELTA))
            .oracle(FixedDelay::new(DELTA));
        for &s in silent {
            b = b.byzantine(PartyId::new(s), Silent::new());
        }
        b.spawn_honest(|p| {
            BbMajority::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                DELTA,
                PartyId::new(0),
                (p == PartyId::new(0)).then_some(Value::new(6)),
            )
        })
        .run()
    }

    #[test]
    fn all_honest_commit_fast() {
        // With zero actual faults unanimity completes as soon as all votes
        // arrive (2δ), well before the deadline.
        let o = good_case(4, 2, &[]);
        assert!(o.validity_holds(Value::new(6)));
        assert!(o.good_case_latency().unwrap() <= DELTA * 2);
    }

    #[test]
    fn good_case_with_silent_byzantines_hits_deadline() {
        // f = 2 silent of n = 4: the deadline (Δ + 3Δ) gates the commit —
        // the Θ(n/(n−f))Δ shape of Table 1.
        let o = good_case(4, 2, &[2, 3]);
        assert!(o.validity_holds(Value::new(6)));
        let expect = DELTA + BbMajority::vote_deadline(Config::new(4, 2).unwrap(), DELTA);
        assert_eq!(o.good_case_latency(), Some(expect));
    }

    #[test]
    fn latency_scales_with_resilience_ratio() {
        // (n, f) with increasing n/(n−f): 2, 3, 5.
        let mut last = Duration::ZERO;
        for (n, f) in [(4, 2), (6, 4), (10, 8)] {
            let silent: Vec<u32> = ((n - f) as u32..n as u32).collect();
            let o = good_case(n, f, &silent);
            assert!(o.validity_holds(Value::new(6)), "n={n} f={f}");
            let lat = o.good_case_latency().unwrap();
            assert!(lat > last, "latency grows with n/(n−f)");
            last = lat;
        }
    }

    #[test]
    fn crash_mid_protocol_still_commits() {
        let cfg = Config::new(4, 2).unwrap();
        let chain = Keychain::generate(4, 101);
        let honest3 = BbMajority::new(
            cfg,
            chain.signer(PartyId::new(3)),
            chain.pki(),
            DELTA,
            PartyId::new(0),
            None,
        );
        let o = Simulation::build(cfg)
            .timing(TimingModel::lockstep(DELTA))
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(2), Silent::new())
            .byzantine(PartyId::new(3), gcl_sim::Crashing::new(honest3, 2))
            .spawn_honest(|p| {
                BbMajority::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    DELTA,
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(6)),
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(Value::new(6)));
    }

    #[test]
    fn equivocating_leader_blocks_epoch_one_commit() {
        // Leader signs 0 and 1 (epoch 1). The flooded proposals are a
        // transferable equivocation proof: nobody commits in epoch 1; a
        // later honest leader drives agreement.
        let cfg = Config::new(4, 2).unwrap();
        let chain = Keychain::generate(4, 102);
        let s0 = chain.signer(PartyId::new(0));
        let p0 = MajProposal::new(&s0, Value::ZERO, 1);
        let p1 = MajProposal::new(&s0, Value::ONE, 1);
        let actions = vec![
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(1),
                msg: MajorityMsg::Propose(p0),
            },
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(2),
                msg: MajorityMsg::Propose(p1),
            },
            ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(3),
                msg: MajorityMsg::Propose(p1),
            },
        ];
        let o = Simulation::build(cfg)
            .timing(TimingModel::lockstep(DELTA))
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Scripted::new(actions))
            .spawn_honest(|p| {
                BbMajority::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    DELTA,
                    PartyId::new(0),
                    None,
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed(), "later epochs recover");
        // Committed in an epoch ≥ 2.
        let dur = BbMajority::epoch_duration(cfg, DELTA);
        for c in o.honest_commits() {
            assert!(c.local.as_micros() >= dur.as_micros());
        }
    }

    #[test]
    fn double_voter_distrusted_and_harmless() {
        // P3 votes both 0-proposal value and a fake; its double vote is
        // transferable evidence, so it is dropped from trust sets and the
        // rest commit.
        let cfg = Config::new(4, 2).unwrap();
        let chain = Keychain::generate(4, 103);
        let s3 = chain.signer(PartyId::new(3));
        let dv = vec![
            ScriptedAction {
                at: LocalTime::from_micros(150),
                to: PartyId::new(1),
                msg: MajorityMsg::Vote(MajVote::new(&s3, Value::new(6), 1)),
            },
            ScriptedAction {
                at: LocalTime::from_micros(150),
                to: PartyId::new(1),
                msg: MajorityMsg::Vote(MajVote::new(&s3, Value::new(99), 1)),
            },
        ];
        let o = Simulation::build(cfg)
            .timing(TimingModel::lockstep(DELTA))
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(3), Scripted::new(dv))
            .byzantine(PartyId::new(2), Silent::new())
            .spawn_honest(|p| {
                BbMajority::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    DELTA,
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(6)),
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(Value::new(6)));
    }

    #[test]
    fn dishonest_majority_tolerated() {
        // f = 3 of n = 4: a single honest party + the honest broadcaster
        // path. The honest party commits the broadcaster's value alone.
        let o = good_case(4, 3, &[1, 2, 3]);
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(Value::new(6)));
    }

    #[test]
    fn a_voters_first_vote_stands_and_a_second_one_distrusts_it() {
        // P1 holds votes for 6 from P0 and itself. P3 votes 99, P2 votes 6,
        // then P3 votes 6 as well: its first vote stands, the second is
        // proof it voted twice, so P1 distrusts P3 and commits 6 on the
        // three trusted votes — its certificate carries no vote from P3.
        let cfg = Config::new(4, 2).unwrap();
        let chain = Keychain::generate(4, 104);
        let signer = |i: u32| chain.signer(PartyId::new(i));
        let vote = |i: u32, v: u64| MajorityMsg::Vote(MajVote::new(&signer(i), Value::new(v), 1));
        let mut p = BbMajority::new(cfg, signer(1), chain.pki(), DELTA, PartyId::new(0), None);
        let mut ctx = Rec::new(cfg, 1);
        Protocol::start(&mut p, &mut ctx);
        let propose = MajorityMsg::Propose(MajProposal::new(&signer(0), Value::new(6), 1));
        for (from, msg) in [
            (0, propose),
            (0, vote(0, 6)),
            (3, vote(3, 99)),
            (2, vote(2, 6)),
        ] {
            Protocol::on_message(&mut p, PartyId::new(from), msg, &mut ctx);
        }
        assert!(ctx.committed.is_empty(), "P3's 99 blocks unanimity");
        Protocol::on_message(&mut p, PartyId::new(3), vote(3, 6), &mut ctx);
        assert_eq!(ctx.committed, [Value::new(6)]);
        let cert = [0, 1, 2].map(|i| MajVote::new(&signer(i), Value::new(6), 1));
        assert!(ctx.sent.contains(&MajorityMsg::CommitCert(cert.to_vec())));
    }
}
