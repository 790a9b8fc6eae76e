//! The FaB-style 2-round psync strawman broken by Theorem 7 at
//! `n ≤ 5f − 2`.
//!
//! Identical fast path to the `(5f−1)`-psync-VBB (propose, vote, commit on
//! `n − f` votes) but with FaB's *plain-majority* view change: the next
//! leader re-proposes the majority value among the `n − f` view-change
//! messages. The paper shows this tie-break is exactly what fails below
//! `n = 5f − 1`: with `n = 5f − 2`, the adversary can commit `v` at one
//! honest party and then steer the view-change majority to `v'`.
//!
//! Only two views are modeled — enough to realize the Figure 4 violation.

use crate::signed::PhaseVote;
use crate::Tally;
use gcl_crypto::{Digest, Signature, Signer, Verifier, Verify};
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, Duration, PartyId, Value, View};
use std::collections::{BTreeMap, BTreeSet};

/// Leader-signed proposal.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FabProposal {
    /// Proposed value.
    pub value: Value,
    /// View.
    pub view: View,
    /// Leader signature (domain `FabTwoRound::PROPOSE`).
    pub sig: Signature,
    /// View ≥ 2: the view-change quorum justifying the value.
    pub proof: Vec<FabViewChange>,
}

impl FabProposal {
    /// Signs a proposal.
    pub(crate) fn new(
        signer: &Signer,
        value: Value,
        view: View,
        proof: Vec<FabViewChange>,
    ) -> Self {
        FabProposal {
            value,
            view,
            sig: signer.sign(PhaseVote::digest(FabTwoRound::PROPOSE, value, view)),
            proof,
        }
    }
}

/// View-change message: what (if anything) the sender voted in view 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FabViewChange {
    /// The abandoned view.
    pub view: View,
    /// The value the sender voted, if any.
    pub voted: Option<Value>,
    /// Sender signature.
    pub sig: Signature,
}

impl FabViewChange {
    fn digest(view: View, voted: Option<Value>) -> Digest {
        Digest::of(&("fab-vc", view, voted))
    }

    /// Signs a view change.
    pub(crate) fn new(signer: &Signer, view: View, voted: Option<Value>) -> Self {
        FabViewChange {
            view,
            voted,
            sig: signer.sign(Self::digest(view, voted)),
        }
    }

    fn verify(&self, v: &impl Verify) -> bool {
        v.verify_embedded(Self::digest(self.view, self.voted), &self.sig)
    }

    /// The sender.
    pub(crate) fn sender(&self) -> PartyId {
        self.sig.signer()
    }
}

/// Wire messages.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FabMsg {
    /// Leader proposal (view 1 or 2).
    Propose(FabProposal),
    /// Vote (domain `FabTwoRound::VOTE`).
    Vote(PhaseVote),
    /// View change (sent on timeout of view 1).
    ViewChange(FabViewChange),
}

gcl_types::wire_struct!(FabProposal {
    value,
    view,
    sig,
    proof
});
gcl_types::wire_struct!(FabViewChange { view, voted, sig });

gcl_types::wire_enum!(FabMsg {
    1 => Propose(prop),
    2 => Vote(vote),
    3 => ViewChange(vc),
});

const TAG_TIMEOUT: u64 = 1;

/// One party of the FaB-style strawman.
#[derive(Debug)]
pub(crate) struct FabTwoRound {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    big_delta: Duration,
    input: Option<Value>,
    view: View,
    voted_v1: Option<Value>,
    voted_v2: bool,
    committed: bool,
    proposed_v2: bool,
    votes: Tally<(View, Value), ()>,
    vcs: BTreeMap<PartyId, FabViewChange>,
}

impl FabTwoRound {
    /// The domain a proposal is signed under.
    pub(crate) const PROPOSE: &'static str = "fab-prop";
    /// The domain a vote is signed under.
    pub(crate) const VOTE: &'static str = "fab-vote";

    /// Creates the party-side state; `input` only at the view-1 leader
    /// (party 0). View 2's leader is party 1.
    pub(crate) fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        big_delta: Duration,
        input: Option<Value>,
    ) -> Self {
        assert_eq!(input.is_some(), signer.id() == PartyId::new(0));
        FabTwoRound {
            config,
            signer,
            verifier: verifier.into(),
            big_delta,
            input,
            view: View::FIRST,
            voted_v1: None,
            voted_v2: false,
            committed: false,
            proposed_v2: false,
            votes: Tally::new(),
            vcs: BTreeMap::new(),
        }
    }

    fn q(&self) -> usize {
        self.config.quorum()
    }

    /// FaB's rule: the majority `voted` value among the quorum (ties and
    /// all-`None` fall back to the leader's discretion — here `None`).
    pub(crate) fn majority_of(vcs: &[FabViewChange]) -> Option<Value> {
        let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
        for vc in vcs {
            if let Some(v) = vc.voted {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then(vb.cmp(va)))
            .map(|(v, _)| v)
    }

    fn record_vote(&mut self, vote: PhaseVote, ctx: &mut dyn Context<FabMsg>) {
        if !vote.verify_embedded(Self::VOTE, &self.verifier) {
            return;
        }
        let key = (vote.view, vote.value);
        let Ok(count) = self.votes.insert(key, vote.voter(), ()) else {
            return;
        };
        if count >= self.q() && !self.committed {
            self.committed = true;
            ctx.commit(vote.value);
            ctx.terminate();
        }
    }

    fn try_propose_v2(&mut self, ctx: &mut dyn Context<FabMsg>) {
        if self.proposed_v2 || self.signer.id() != PartyId::new(1) || self.vcs.len() < self.q() {
            return;
        }
        self.proposed_v2 = true;
        let proof: Vec<FabViewChange> = self.vcs.values().copied().collect();
        let value = Self::majority_of(&proof).unwrap_or(Value::new(4_000_000));
        let prop = FabProposal::new(&self.signer, value, View::new(2), proof);
        ctx.multicast(FabMsg::Propose(prop));
    }
}

impl Protocol for FabTwoRound {
    type Msg = FabMsg;

    fn start(&mut self, ctx: &mut dyn Context<FabMsg>) {
        ctx.set_timer(self.big_delta * 4, TAG_TIMEOUT);
        if let Some(v) = self.input {
            let prop = FabProposal::new(&self.signer, v, View::FIRST, Vec::new());
            ctx.multicast(FabMsg::Propose(prop));
        }
    }

    fn on_message(&mut self, from: PartyId, msg: FabMsg, ctx: &mut dyn Context<FabMsg>) {
        if self.committed {
            return;
        }
        match msg {
            FabMsg::Propose(prop) => match prop.view {
                View::FIRST => {
                    if from == PartyId::new(0)
                        && self.voted_v1.is_none()
                        && self.view == View::FIRST
                    {
                        self.voted_v1 = Some(prop.value);
                        let vote =
                            PhaseVote::new(Self::VOTE, &self.signer, prop.value, View::FIRST);
                        ctx.multicast(FabMsg::Vote(vote));
                    }
                }
                _ => {
                    // View 2: accept if the proof is a quorum of valid view-1
                    // VCs, one per sender, and the value matches its plain
                    // majority.
                    if from != PartyId::new(1) || self.voted_v2 {
                        return;
                    }
                    let senders: BTreeSet<PartyId> =
                        prop.proof.iter().map(FabViewChange::sender).collect();
                    if senders.len() < self.q()
                        || senders.len() != prop.proof.len()
                        || !prop
                            .proof
                            .iter()
                            .all(|vc| vc.view == View::FIRST && vc.verify(&self.verifier))
                    {
                        return;
                    }
                    if Self::majority_of(&prop.proof).is_some_and(|m| m != prop.value) {
                        return;
                    }
                    self.voted_v2 = true;
                    let vote = PhaseVote::new(Self::VOTE, &self.signer, prop.value, View::new(2));
                    ctx.multicast(FabMsg::Vote(vote));
                }
            },
            FabMsg::Vote(vote) => self.record_vote(vote, ctx),
            FabMsg::ViewChange(vc) => {
                if vc.verify(&self.verifier) && vc.view == View::FIRST {
                    self.vcs.insert(vc.sender(), vc);
                    self.try_propose_v2(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<FabMsg>) {
        if tag == TAG_TIMEOUT && !self.committed && self.view == View::FIRST {
            self.view = View::new(2);
            let vc = FabViewChange::new(&self.signer, View::FIRST, self.voted_v1);
            self.vcs.insert(self.signer.id(), vc);
            ctx.multicast(FabMsg::ViewChange(vc));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_crypto::Keychain;
    use gcl_sim::{FixedDelay, Simulation, TimingModel};

    #[test]
    fn good_case_two_rounds_like_fab() {
        // With an honest leader the strawman genuinely does 2 rounds — the
        // overclaim is only visible under the Theorem 7 schedule (see
        // `lower_bounds::theorem7`).
        let cfg = Config::new(8, 2).unwrap(); // n = 5f − 2
        let chain = Keychain::generate(8, 110);
        let d = Duration::from_micros(100);
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(d))
            .spawn_honest(|p| {
                FabTwoRound::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    d,
                    (p == PartyId::new(0)).then_some(Value::new(9)),
                )
            })
            .run();
        assert!(o.validity_holds(Value::new(9)));
        assert_eq!(o.good_case_rounds(), Some(2));
    }

    #[test]
    fn view_two_proof_counts_each_sender_once() {
        // n = 9 = 5f − 1. Honest P0 proposes 9; view-1 votes reach only P2,
        // which commits 9. P1 (the view-2 leader) and P8 are Byzantine: P1
        // justifies 5 with the six honest "voted 9" view changes plus P8's
        // "voted 5" seven times — seven distinct senders, but a plain
        // majority of entries for 5. Counted once per sender the proof is
        // not a quorum, so nobody votes 5 and agreement holds.
        use gcl_sim::{DelayRule, LinkDelay, PartySet, ScheduleOracle, Scripted, ScriptedAction};
        use gcl_types::LocalTime;
        let cfg = Config::new(9, 2).unwrap();
        let chain = Keychain::generate(9, 113);
        let signer = |i: u32| chain.signer(PartyId::new(i));
        let big_delta = Duration::from_micros(100);
        let vc = |i: u32, v: u64| FabViewChange::new(&signer(i), View::FIRST, Some(Value::new(v)));
        let mut proof: Vec<FabViewChange> = [0, 3, 4, 5, 6, 7].map(|i| vc(i, 9)).to_vec();
        proof.extend([vc(8, 5); 7]);
        let prop = FabProposal::new(&signer(1), Value::new(5), View::new(2), proof);
        let stuffed = (0..9).filter(|&i| i != 1).map(|i| ScriptedAction {
            at: LocalTime::from_micros(450),
            to: PartyId::new(i),
            msg: FabMsg::Propose(prop.clone()),
        });
        let oracle: ScheduleOracle<FabMsg> = ScheduleOracle::new(Duration::from_micros(10)).rule(
            DelayRule::link(
                PartySet::Any,
                PartySet::In([0, 1, 3, 4, 5, 6, 7, 8].map(PartyId::new).to_vec()),
                LinkDelay::Never,
            )
            .when(|m: &FabMsg| matches!(m, FabMsg::Vote(v) if v.view == View::FIRST)),
        );
        let party = |i: u32| {
            let input = (i == 0).then_some(Value::new(9));
            FabTwoRound::new(cfg, signer(i), chain.pki(), big_delta, input)
        };
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(oracle)
            .byzantine(PartyId::new(1), Scripted::new(stuffed.collect()))
            .byzantine(PartyId::new(8), party(8))
            .spawn_honest(|p| party(p.index()))
            .run();
        assert_eq!(
            o.commit_of(PartyId::new(2)).map(|c| c.value),
            Some(Value::new(9))
        );
        o.assert_agreement();
    }

    #[test]
    fn majority_rule() {
        let chain = Keychain::generate(4, 111);
        let mk = |i: u32, v: Option<Value>| {
            FabViewChange::new(&chain.signer(PartyId::new(i)), View::FIRST, v)
        };
        let vcs = vec![
            mk(0, Some(Value::ONE)),
            mk(1, Some(Value::ONE)),
            mk(2, Some(Value::ZERO)),
            mk(3, None),
        ];
        assert_eq!(FabTwoRound::majority_of(&vcs), Some(Value::ONE));
        assert_eq!(FabTwoRound::majority_of(&[mk(0, None)]), None);
    }
}
