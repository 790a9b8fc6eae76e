//! PBFT-style psync-VBB baseline: 3-round good case, `n ≥ 3f + 1`.
//!
//! This is the protocol the paper positions its `(5f−1)` result against:
//! propose → prepare → commit, with the classical prepared-certificate view
//! change. By Theorem 7, 3 rounds are *optimal* in the resilience band
//! `3f + 1 ≤ n ≤ 5f − 2`; by Theorem 2 it is one round slower than
//! necessary whenever `n ≥ 5f − 1` (including the famous `n = 4, f = 1`).

use crate::signed::PhaseVote;
use crate::Tally;
use gcl_crypto::{Digest, MemoTag, Signature, Signer, Verifier, Verify};
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, Duration, Encode, ExternalValidity, PartyId, Value, View};
use std::collections::{BTreeMap, BTreeSet};

/// Proof that `n − f` parties prepared `(value, view)` — the object carried
/// through view changes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PreparedCert {
    /// Prepared value.
    pub value: Value,
    /// Prepared view.
    pub view: View,
    /// The `n − f` prepare votes.
    pub prepares: Vec<PhaseVote>,
}

impl PreparedCert {
    /// Full verification: quorum size, distinct voters, signatures.
    ///
    /// The verdict is memoized on the verifier (tagged
    /// [`MemoTag::Prepared`]): a certificate carried by every view-change
    /// message of a quorum costs `n − f` MAC checks once, then one lookup
    /// per re-appearance.
    pub(crate) fn verify(&self, config: Config, v: &impl Verify) -> bool {
        let mut key = MemoTag::Prepared.key(56 + 52 * self.prepares.len());
        key.extend_from_slice(&(config.n() as u64).to_le_bytes());
        key.extend_from_slice(&(config.f() as u64).to_le_bytes());
        self.encode(&mut key);
        v.memoized(key, || {
            let voters: BTreeSet<PartyId> = self.prepares.iter().map(PhaseVote::voter).collect();
            voters.len() >= config.quorum()
                && voters.len() == self.prepares.len()
                && self.prepares.iter().all(|p| {
                    p.value == self.value
                        && p.view == self.view
                        && p.verify_embedded(PbftPsyncVbb::PREPARE, v)
                })
        })
    }
}

/// A view-change message: the view being abandoned plus the sender's
/// highest prepared certificate (if any).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ViewChangeMsg {
    /// The view being left.
    pub view: View,
    /// Highest prepared certificate the sender holds.
    pub prepared: Option<PreparedCert>,
    /// Sender signature.
    pub sig: Signature,
}

impl ViewChangeMsg {
    fn digest(view: View, prepared: &Option<PreparedCert>) -> Digest {
        const DOMAIN: &str = "pbft-vc";
        match prepared {
            None => Digest::of(&(DOMAIN, view)),
            Some(p) => Digest::of(&(DOMAIN, view, p.value, p.view)),
        }
    }

    /// Creates a signed view-change message.
    pub fn new(signer: &Signer, view: View, prepared: Option<PreparedCert>) -> Self {
        let sig = signer.sign(Self::digest(view, &prepared));
        ViewChangeMsg {
            view,
            prepared,
            sig,
        }
    }

    /// The sender.
    pub(crate) fn sender(&self) -> PartyId {
        self.sig.signer()
    }

    /// Verifies signature and embedded certificate.
    ///
    /// Memoized whole (tagged [`MemoTag::ViewChange`]), so a message seen
    /// both directly and inside a forwarded [`PbftMsg::ViewChangeBundle`]
    /// or a proposal proof is re-checked in O(1).
    pub(crate) fn verify(&self, config: Config, v: &impl Verify) -> bool {
        let mut key = MemoTag::ViewChange.key(64);
        key.extend_from_slice(&(config.n() as u64).to_le_bytes());
        key.extend_from_slice(&(config.f() as u64).to_le_bytes());
        self.encode(&mut key);
        v.memoized(key, || {
            if !v.verify_embedded(Self::digest(self.view, &self.prepared), &self.sig) {
                return false;
            }
            match &self.prepared {
                None => true,
                Some(pc) => pc.view <= self.view && pc.verify(config, v),
            }
        })
    }
}

/// Wire messages of the PBFT baseline.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PbftMsg {
    /// Leader proposal (domain `PbftPsyncVbb::PROPOSE`); `proof` is empty
    /// for view 1, else `n − f` view-change messages of the previous view.
    Propose {
        /// Leader-signed proposal.
        prop: PhaseVote,
        /// View-change justification (empty for view 1).
        proof: Vec<ViewChangeMsg>,
    },
    /// Phase-1 vote (domain `PbftPsyncVbb::PREPARE`).
    Prepare(PhaseVote),
    /// Phase-2 vote (domain `PbftPsyncVbb::COMMIT`).
    Commit(PhaseVote),
    /// Forwarded commit quorum (termination helper).
    CommitBundle(Vec<PhaseVote>),
    /// View change.
    ViewChange(ViewChangeMsg),
    /// Forwarded view-change quorum (laggard catch-up).
    ViewChangeBundle(Vec<ViewChangeMsg>),
}

gcl_types::wire_struct!(PreparedCert {
    value,
    view,
    prepares
});
gcl_types::wire_struct!(ViewChangeMsg {
    view,
    prepared,
    sig
});

gcl_types::wire_enum!(PbftMsg {
    1 => Propose { prop, proof },
    2 => Prepare(vote),
    3 => Commit(vote),
    4 => CommitBundle(votes),
    5 => ViewChange(vc),
    6 => ViewChangeBundle(vcs),
});

/// One party of the PBFT-style 3-round psync-VBB.
///
/// # Examples
///
/// ```
/// use gcl_core::psync::PbftPsyncVbb;
/// use gcl_crypto::Keychain;
/// use gcl_sim::{FixedDelay, Simulation, TimingModel};
/// use gcl_types::{accept_all, Config, Duration, GlobalTime, PartyId, Value};
///
/// let cfg = Config::new(4, 1)?;
/// let chain = Keychain::generate(4, 3);
/// let delta = Duration::from_micros(100);
/// let outcome = Simulation::build(cfg)
///     .timing(TimingModel::PartialSynchrony { gst: GlobalTime::ZERO, big_delta: delta })
///     .oracle(FixedDelay::new(delta))
///     .spawn_honest(|p| {
///         PbftPsyncVbb::new(cfg, chain.signer(p), chain.pki(), accept_all(), delta,
///                           (p == PartyId::new(0)).then_some(Value::new(7)))
///     })
///     .run();
/// assert!(outcome.validity_holds(Value::new(7)));
/// assert_eq!(outcome.good_case_rounds(), Some(3)); // one more than (5f−1)-VBB
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct PbftPsyncVbb {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    validity: ExternalValidity,
    big_delta: Duration,
    input: Option<Value>,
    fallback: Value,
    view: View,
    prepared: Option<PreparedCert>,
    sent_prepare: Option<View>,
    sent_commit: Option<View>,
    sent_vc: BTreeSet<View>,
    committed: bool,
    proposed: bool,
    prepares: Tally<(View, Value), PhaseVote>,
    commits: Tally<(View, Value), PhaseVote>,
    view_changes: Tally<View, ViewChangeMsg>,
    pending: BTreeMap<View, (PhaseVote, Vec<ViewChangeMsg>)>,
}

impl PbftPsyncVbb {
    /// The domain a leader's proposal is signed under.
    pub(crate) const PROPOSE: &'static str = "pbft-prop";
    /// The domain a prepare vote is signed under.
    pub(crate) const PREPARE: &'static str = "pbft-prepare";
    /// The domain a commit vote is signed under.
    pub(crate) const COMMIT: &'static str = "pbft-commit";

    /// Creates the party-side state; `input` is `Some` only at the view-1
    /// leader (party 0).
    ///
    /// # Panics
    ///
    /// Panics if `n < 3f + 1` or the input/role assignment is inconsistent.
    pub fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        validity: ExternalValidity,
        big_delta: Duration,
        input: Option<Value>,
    ) -> Self {
        assert!(config.supports_brb(), "PBFT requires n >= 3f + 1");
        let is_first_leader = signer.id() == View::FIRST.leader(config.n());
        assert_eq!(input.is_some(), is_first_leader);
        let fallback = Value::new(2_000_000 + u64::from(signer.id().index()));
        PbftPsyncVbb {
            config,
            signer,
            verifier: verifier.into(),
            validity,
            big_delta,
            input,
            fallback,
            view: View::FIRST,
            prepared: None,
            sent_prepare: None,
            sent_commit: None,
            sent_vc: BTreeSet::new(),
            committed: false,
            proposed: false,
            prepares: Tally::new(),
            commits: Tally::new(),
            view_changes: Tally::new(),
            pending: BTreeMap::new(),
        }
    }

    fn me(&self) -> PartyId {
        self.signer.id()
    }

    fn q(&self) -> usize {
        self.config.quorum()
    }

    fn leader(&self, view: View) -> PartyId {
        view.leader(self.config.n())
    }

    fn proof_justifies(&self, prop: &PhaseVote, proof: &[ViewChangeMsg]) -> bool {
        if prop.view == View::FIRST {
            return proof.is_empty();
        }
        let prev = prop.view.prev();
        let senders: BTreeSet<PartyId> = proof.iter().map(ViewChangeMsg::sender).collect();
        if senders.len() < self.q() || senders.len() != proof.len() {
            return false;
        }
        if !proof
            .iter()
            .all(|vc| vc.view == prev && vc.verify(self.config, &self.verifier))
        {
            return false;
        }
        let highest = proof
            .iter()
            .filter_map(|vc| vc.prepared.as_ref())
            .max_by_key(|pc| pc.view);
        match highest {
            Some(pc) => pc.value == prop.value,
            None => true, // nothing prepared: any externally valid value
        }
    }

    fn maybe_prepare(
        &mut self,
        prop: PhaseVote,
        proof: Vec<ViewChangeMsg>,
        ctx: &mut dyn Context<PbftMsg>,
    ) {
        if self.committed
            || prop.view != self.view
            || self.sent_prepare == Some(prop.view)
            || self.sent_vc.contains(&prop.view)
        {
            return;
        }
        if !self.proof_justifies(&prop, &proof) {
            return;
        }
        self.sent_prepare = Some(prop.view);
        let prepare = PhaseVote::new(Self::PREPARE, &self.signer, prop.value, prop.view);
        ctx.multicast(PbftMsg::Prepare(prepare));
    }

    fn on_prepare(&mut self, vote: PhaseVote, ctx: &mut dyn Context<PbftMsg>) {
        let key = (vote.view, vote.value);
        let valid = |v: &PhaseVote| {
            v.verify_embedded(Self::PREPARE, &self.verifier) && self.validity.check(v.value)
        };
        let Some(count) = self.prepares.admit(key, vote.voter(), vote, valid) else {
            return;
        };
        if count >= self.q() && self.sent_commit != Some(vote.view) && !self.committed {
            self.sent_commit = Some(vote.view);
            let pc = PreparedCert {
                value: vote.value,
                view: vote.view,
                prepares: self.prepares.bundle(&key),
            };
            if self.prepared.as_ref().is_none_or(|old| old.view < pc.view) {
                self.prepared = Some(pc);
            }
            let commit = PhaseVote::new(Self::COMMIT, &self.signer, vote.value, vote.view);
            ctx.multicast(PbftMsg::Commit(commit));
        }
    }

    fn on_commit(&mut self, vote: PhaseVote, ctx: &mut dyn Context<PbftMsg>) {
        let key = (vote.view, vote.value);
        let valid = |v: &PhaseVote| {
            v.verify_embedded(Self::COMMIT, &self.verifier) && self.validity.check(v.value)
        };
        let Some(count) = self.commits.admit(key, vote.voter(), vote, valid) else {
            return;
        };
        if count >= self.q() && !self.committed {
            self.committed = true;
            ctx.multicast_except(PbftMsg::CommitBundle(self.commits.bundle(&key)), self.me());
            ctx.commit(vote.value);
            ctx.terminate();
        }
    }

    /// Records a view change for the current or a later view (a sender's
    /// later one for a view replaces its earlier one); whether it was.
    fn record_view_change(&mut self, vc: ViewChangeMsg) -> bool {
        let valid = |m: &ViewChangeMsg| m.verify(self.config, &self.verifier);
        vc.view >= self.view
            && self
                .view_changes
                .admit(vc.view, vc.sender(), vc, valid)
                .is_some()
    }

    fn send_own_vc(&mut self, view: View, ctx: &mut dyn Context<PbftMsg>) {
        if !self.sent_vc.insert(view) {
            return;
        }
        ctx.multicast(PbftMsg::ViewChange(ViewChangeMsg::new(
            &self.signer,
            view,
            self.prepared.clone(),
        )));
    }

    fn try_advance(&mut self, ctx: &mut dyn Context<PbftMsg>) {
        loop {
            if self.committed {
                return;
            }
            let w = self.view;
            if self.view_changes.count(&w) < self.q() {
                return;
            }
            let bundle = self.view_changes.bundle(&w);
            ctx.multicast_except(PbftMsg::ViewChangeBundle(bundle.clone()), self.me());
            self.send_own_vc(w, ctx);
            let new_view = w.next();
            self.view = new_view;
            self.proposed = false;
            ctx.set_timer(self.big_delta * 4, new_view.number());
            if self.leader(new_view) == self.me() {
                self.propose_with(bundle, ctx);
            }
            if let Some((prop, proof)) = self.pending.remove(&new_view) {
                self.maybe_prepare(prop, proof, ctx);
            }
        }
    }

    fn propose_with(&mut self, proof: Vec<ViewChangeMsg>, ctx: &mut dyn Context<PbftMsg>) {
        if self.committed || self.proposed {
            return;
        }
        let w = self.view;
        let value = proof
            .iter()
            .filter_map(|vc| vc.prepared.as_ref())
            .max_by_key(|pc| pc.view)
            .map_or(self.fallback, |pc| pc.value);
        let prop = PhaseVote::new(Self::PROPOSE, &self.signer, value, w);
        self.proposed = true;
        ctx.multicast(PbftMsg::Propose { prop, proof });
    }
}

impl Protocol for PbftPsyncVbb {
    type Msg = PbftMsg;

    fn start(&mut self, ctx: &mut dyn Context<PbftMsg>) {
        ctx.set_timer(self.big_delta * 4, View::FIRST.number());
        if self.leader(View::FIRST) == self.me() {
            let v = self.input.expect("view-1 leader has an input");
            let prop = PhaseVote::new(Self::PROPOSE, &self.signer, v, View::FIRST);
            self.proposed = true;
            ctx.multicast(PbftMsg::Propose {
                prop,
                proof: Vec::new(),
            });
        }
    }

    fn on_message(&mut self, from: PartyId, msg: PbftMsg, ctx: &mut dyn Context<PbftMsg>) {
        if self.committed {
            return;
        }
        match msg {
            PbftMsg::Propose { prop, proof } => {
                let leader = self.leader(prop.view);
                if from != leader
                    || !prop.verify(Self::PROPOSE, leader, &self.verifier)
                    || !self.validity.check(prop.value)
                {
                    return;
                }
                if prop.view > self.view {
                    self.pending.entry(prop.view).or_insert((prop, proof));
                } else {
                    self.maybe_prepare(prop, proof, ctx);
                }
            }
            PbftMsg::Prepare(v) => self.on_prepare(v, ctx),
            PbftMsg::Commit(v) => self.on_commit(v, ctx),
            PbftMsg::CommitBundle(votes) => {
                for v in votes {
                    self.on_commit(v, ctx);
                    if self.committed {
                        break;
                    }
                }
            }
            PbftMsg::ViewChange(vc) => {
                if self.record_view_change(vc) {
                    self.try_advance(ctx);
                }
            }
            PbftMsg::ViewChangeBundle(vcs) => {
                let mut touched = false;
                for vc in vcs {
                    touched |= self.record_view_change(vc);
                }
                if touched {
                    self.try_advance(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<PbftMsg>) {
        if self.committed {
            return;
        }
        let view = View::new(tag);
        if view == self.view {
            self.send_own_vc(view, ctx);
            self.try_advance(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_hand::Rec;
    use gcl_crypto::Keychain;
    use gcl_sim::{FixedDelay, Outcome, Silent, Simulation, TimingModel};
    use gcl_types::{accept_all, GlobalTime};

    const DELTA: Duration = Duration::from_micros(100);

    fn psync_gst0() -> TimingModel {
        TimingModel::PartialSynchrony {
            gst: GlobalTime::ZERO,
            big_delta: DELTA,
        }
    }

    fn good_case(n: usize, f: usize) -> Outcome {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 30);
        Simulation::build(cfg)
            .timing(psync_gst0())
            .oracle(FixedDelay::new(DELTA))
            .spawn_honest(|p| {
                PbftPsyncVbb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    accept_all(),
                    DELTA,
                    (p == PartyId::new(0)).then_some(Value::new(8)),
                )
            })
            .run()
    }

    #[test]
    fn good_case_three_rounds() {
        // Includes the band 3f+1 <= n <= 5f-2 where 3 rounds are OPTIMAL
        // (n = 8, f = 2 and n = 11, f = 3).
        for (n, f) in [(4, 1), (8, 2), (11, 3), (10, 3)] {
            let o = good_case(n, f);
            assert!(o.validity_holds(Value::new(8)), "n={n} f={f}");
            assert_eq!(o.good_case_rounds(), Some(3), "n={n} f={f}");
        }
    }

    #[test]
    fn good_case_latency_three_deltas() {
        let o = good_case(4, 1);
        assert_eq!(o.good_case_latency(), Some(DELTA * 3));
    }

    #[test]
    fn one_round_slower_than_vbb_at_n4() {
        // The Liskov question, answered: at n = 4, f = 1, PBFT's 3 rounds
        // are not optimal — (5f−1)-VBB does 2.
        use crate::psync::VbbFiveFMinusOne;
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 31);
        let vbb = Simulation::build(cfg)
            .timing(psync_gst0())
            .oracle(FixedDelay::new(DELTA))
            .spawn_honest(|p| {
                VbbFiveFMinusOne::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    accept_all(),
                    DELTA,
                    (p == PartyId::new(0)).then_some(Value::new(8)),
                )
            })
            .run();
        let pbft = good_case(4, 1);
        assert_eq!(vbb.good_case_rounds(), Some(2));
        assert_eq!(pbft.good_case_rounds(), Some(3));
    }

    #[test]
    fn silent_leader_view_change() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 32);
        let o = Simulation::build(cfg)
            .timing(psync_gst0())
            .oracle(FixedDelay::new(Duration::from_micros(10)))
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(|p| {
                PbftPsyncVbb::new(cfg, chain.signer(p), chain.pki(), accept_all(), DELTA, None)
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(Value::new(2_000_001)));
    }

    #[test]
    fn prepared_value_survives_view_change() {
        // Hold commit-phase messages from reaching anyone but P1 so only P1
        // commits in view 1; the rest must re-commit the SAME value in
        // view 2 via the prepared certificate.
        use gcl_sim::{DelayRule, LinkDelay, PartySet, ScheduleOracle};
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 33);
        let gst = GlobalTime::from_micros(50_000);
        let far = Duration::from_micros(100_000);
        let oracle: ScheduleOracle<PbftMsg> = ScheduleOracle::new(Duration::from_micros(10))
            .rule(
                DelayRule::link(
                    PartySet::Any,
                    PartySet::In(vec![PartyId::new(0), PartyId::new(2), PartyId::new(3)]),
                    LinkDelay::Finite(far),
                )
                .when(|m: &PbftMsg| matches!(m, PbftMsg::Commit(_))),
            )
            .rule(DelayRule::link(
                PartySet::One(PartyId::new(1)),
                PartySet::Any,
                LinkDelay::Finite(far),
            ));
        let o = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst,
                big_delta: DELTA,
            })
            .oracle(oracle)
            .spawn_honest(|p| {
                PbftPsyncVbb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    accept_all(),
                    DELTA,
                    (p == PartyId::new(0)).then_some(Value::new(8)),
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(Value::new(8)));
    }

    #[test]
    fn proposal_against_prepared_lock_rejected() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 34);
        let p = PbftPsyncVbb::new(
            cfg,
            chain.signer(PartyId::new(1)),
            chain.pki(),
            accept_all(),
            DELTA,
            None,
        );
        // Build a proof whose highest prepared cert locks value 5; a
        // proposal for 6 must not be justified.
        let prepares: Vec<PhaseVote> = (0..3)
            .map(|i| {
                PhaseVote::new(
                    PbftPsyncVbb::PREPARE,
                    &chain.signer(PartyId::new(i)),
                    Value::new(5),
                    View::FIRST,
                )
            })
            .collect();
        let pc = PreparedCert {
            value: Value::new(5),
            view: View::FIRST,
            prepares,
        };
        let proof: Vec<ViewChangeMsg> = (0..3)
            .map(|i| {
                ViewChangeMsg::new(
                    &chain.signer(PartyId::new(i)),
                    View::FIRST,
                    Some(pc.clone()),
                )
            })
            .collect();
        let propose = |v: u64| {
            let s1 = chain.signer(PartyId::new(1));
            PhaseVote::new(PbftPsyncVbb::PROPOSE, &s1, Value::new(v), View::new(2))
        };
        let (good, bad) = (propose(5), propose(6));
        assert!(p.proof_justifies(&good, &proof));
        assert!(!p.proof_justifies(&bad, &proof));
    }

    #[test]
    fn forged_prepared_cert_rejected() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 35);
        let rogue = Keychain::generate(4, 999);
        let prepares: Vec<PhaseVote> = (0..3)
            .map(|i| {
                PhaseVote::new(
                    PbftPsyncVbb::PREPARE,
                    &rogue.signer(PartyId::new(i)),
                    Value::new(5),
                    View::FIRST,
                )
            })
            .collect();
        let pc = PreparedCert {
            value: Value::new(5),
            view: View::FIRST,
            prepares,
        };
        assert!(!pc.verify(cfg, &chain.pki()));
    }

    #[test]
    fn a_later_view_change_replaces_the_senders_earlier_one() {
        // P3 sends two view-changes for view 1 to P1, the view-2 leader: one
        // without and one with a certificate that 5 was prepared. The later
        // one is what P1 forwards and justifies its proposal with, so it
        // decides what P1 proposes.
        use gcl_crypto::Digest;
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 37);
        let signer = |i: u32| chain.signer(PartyId::new(i));
        let (value, view) = (Value::new(5), View::FIRST);
        let prepares = (0..3)
            .map(|q| PhaseVote {
                value,
                view,
                sig: signer(q).sign(Digest::of(&("pbft-prepare", value, view))),
            })
            .collect();
        let prepared = PreparedCert {
            value,
            view,
            prepares,
        };
        let vc = |q: u32, pc: Option<PreparedCert>| ViewChangeMsg::new(&signer(q), view, pc);
        let plain = vc(3, None);
        let locked = vc(3, Some(prepared));
        for (earlier, later, proposed) in [
            (plain.clone(), locked.clone(), value),
            (locked, plain, Value::new(2_000_001)),
        ] {
            let mut p = PbftPsyncVbb::new(cfg, signer(1), chain.pki(), accept_all(), DELTA, None);
            let mut ctx = Rec::new(cfg, 1);
            Protocol::start(&mut p, &mut ctx);
            for (from, m) in [
                (3, earlier),
                (3, later.clone()),
                (0, vc(0, None)),
                (2, vc(2, None)),
            ] {
                Protocol::on_message(&mut p, PartyId::new(from), PbftMsg::ViewChange(m), &mut ctx);
            }
            let quorum = vec![vc(0, None), vc(2, None), later];
            assert!(ctx
                .sent
                .contains(&PbftMsg::ViewChangeBundle(quorum.clone())));
            let proposal = ctx.multicast.iter().find_map(|m| match m {
                PbftMsg::Propose { prop, proof } => Some((prop.value, prop.view, proof.clone())),
                _ => None,
            });
            assert_eq!(proposal, Some((proposed, View::new(2), quorum)));
        }
    }

    #[test]
    fn view_change_msg_verify() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 36);
        let vc = ViewChangeMsg::new(&chain.signer(PartyId::new(2)), View::FIRST, None);
        assert!(vc.verify(cfg, &chain.pki()));
        assert_eq!(vc.sender(), PartyId::new(2));
    }

    #[test]
    #[should_panic(expected = "n >= 3f + 1")]
    fn resilience_check() {
        let cfg = Config::new(3, 1).unwrap();
        let chain = Keychain::generate(3, 1);
        let _ = PbftPsyncVbb::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            accept_all(),
            DELTA,
            Some(Value::ZERO),
        );
    }
}
