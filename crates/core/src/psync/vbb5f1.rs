//! Figure 3: the `(5f−1)`-psync-VBB protocol — 2-round good-case partially
//! synchronous validated Byzantine broadcast with optimal resilience
//! `n ≥ 5f − 1`.
//!
//! The good case is 1 round of proposing + 1 round of voting (PBFT minus a
//! phase, FaB with `2f + 2` fewer parties). The resilience gain over FaB
//! comes from the view change exploiting *detectable leader equivocation*:
//! a party that has seen two values signed by the leader waits for one more
//! timeout message, from parties other than the leader, which shifts the
//! quorum arithmetic by exactly the amount needed (see the paper's
//! Section 4.1 "Intuition").
//!
//! Protocol flow per view `w` (leader `L_w`; `L_1` is the broadcaster):
//!
//! 1. **Propose** — `L_w` multicasts `⟨propose, ⟨v,w⟩_{L_w}, S⟩`.
//! 2. **Vote** — on a first valid proposal, multicast a counter-signed vote.
//! 3. **Commit** — on `4f−1` votes for the same `v`, forward them, commit.
//! 4. **Timeout** — if not committed `4Δ` after entering `w`, multicast a
//!    timeout carrying the vote (or `⊥`).
//! 5. **New view** — on `4f−1` timeouts with a single leader-signed value,
//!    or `4f−1` timeouts from parties other than `L_{w-1}`: forward them,
//!    update the lock certificate, enter `w`, send a status to `L_w`.
//! 6. **Status** — `L_w` assembles its proposal and proof from `4f−1`
//!    statuses (or the certificate itself).

use super::cert::{Certificate, LeaderSigned, Lock, TimeoutMsg, VoteMsg};
use crate::Tally;
use gcl_crypto::{Digest, MemoTag, Signature, Signer, Verifier, Verify};
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, Duration, Encode, ExternalValidity, PartyId, Value, View};
use std::collections::{BTreeMap, BTreeSet};

/// A status message `⟨status, w−1, C⟩_i` (Figure 3, step 5).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StatusMsg {
    /// The view this status reports on (the view just left, `w − 1`).
    pub view: View,
    /// The sender's highest certificate.
    pub cert: Certificate,
    /// The sender's signature.
    pub sig: Signature,
}

impl StatusMsg {
    fn digest(view: View, cert: &Certificate) -> Digest {
        Digest::of(&("psync-status", view, Digest::of(cert)))
    }

    /// Creates a signed status.
    pub(crate) fn new(signer: &Signer, view: View, cert: Certificate) -> Self {
        let sig = signer.sign(Self::digest(view, &cert));
        StatusMsg { view, cert, sig }
    }

    /// The sending party.
    pub(crate) fn sender(&self) -> PartyId {
        self.sig.signer()
    }

    /// Verifies the signature and the embedded certificate.
    ///
    /// The whole verdict is memoized on the verifier (tagged
    /// [`MemoTag::Status`]): a status re-delivered inside a
    /// [`Proof::Statuses`] bundle after arriving directly costs one cache
    /// lookup instead of a signature check plus a certificate re-walk —
    /// and in particular skips re-absorbing the certificate into
    /// [`Digest::of`]. Sound because every input to the verdict (config,
    /// validity predicate identity, and the full wire encoding of the
    /// status) is part of the key, and the verdict is a pure function of
    /// those inputs.
    pub(crate) fn verify(
        &self,
        config: Config,
        v: &impl Verify,
        validity: &ExternalValidity,
    ) -> bool {
        let name = validity.name().as_bytes();
        let mut key = MemoTag::Status.key(64 + name.len());
        key.extend_from_slice(&(config.n() as u64).to_le_bytes());
        key.extend_from_slice(&(config.f() as u64).to_le_bytes());
        key.extend_from_slice(&(name.len() as u64).to_le_bytes());
        key.extend_from_slice(name);
        self.encode(&mut key);
        v.memoized(key, || {
            v.verify_embedded(Self::digest(self.view, &self.cert), &self.sig)
                && self.cert.view() <= self.view
                && self.cert.is_valid(config, v, validity)
                && self.cert.lock(config).is_some()
        })
    }
}

/// The proposal's justification `S`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Proof {
    /// View 1: the broadcaster proposes its input, no proof needed.
    Bootstrap,
    /// A valid certificate of view `w − 1` locking the proposed value.
    Cert(Certificate),
    /// `4f−1` status messages of view `w − 1`; the highest certificate
    /// among them locks the proposed value.
    Statuses(Vec<StatusMsg>),
}

/// Wire messages of the `(5f−1)`-psync-VBB protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VbbMsg {
    /// Step 1.
    Propose {
        /// The leader-signed value-view pair.
        ls: LeaderSigned,
        /// The justification.
        proof: Proof,
    },
    /// Step 2.
    Vote(VoteMsg),
    /// Step 3: forwarded commit quorum.
    VoteBundle(Vec<VoteMsg>),
    /// Step 4.
    Timeout(TimeoutMsg),
    /// Step 5: forwarded view-change quorum.
    TimeoutBundle(Vec<TimeoutMsg>),
    /// Step 5 → 6.
    Status(StatusMsg),
}

gcl_types::wire_struct!(StatusMsg { view, cert, sig });

gcl_types::wire_enum!(Proof {
    1 => Bootstrap,
    2 => Cert(cert),
    3 => Statuses(statuses),
});
gcl_types::wire_enum!(VbbMsg {
    1 => Propose { ls, proof },
    2 => Vote(vote),
    3 => VoteBundle(votes),
    4 => Timeout(timeout),
    5 => TimeoutBundle(timeouts),
    6 => Status(status),
});

/// Timer tag = view number (one timer armed per view entry).
const fn view_tag(view: View) -> u64 {
    view.number()
}

/// One party of the `(5f−1)`-psync-VBB protocol.
///
/// # Examples
///
/// The paper's highlighted special case `f = 1, n = 4`: PBFT needs 3 rounds,
/// this protocol commits in 2.
///
/// ```
/// use gcl_core::psync::VbbFiveFMinusOne;
/// use gcl_crypto::Keychain;
/// use gcl_sim::{FixedDelay, Simulation, TimingModel};
/// use gcl_types::{accept_all, Config, Duration, GlobalTime, PartyId, Value};
///
/// let cfg = Config::new(4, 1)?;
/// let chain = Keychain::generate(4, 2);
/// let delta = Duration::from_micros(100);
/// let outcome = Simulation::build(cfg)
///     .timing(TimingModel::PartialSynchrony { gst: GlobalTime::ZERO, big_delta: delta })
///     .oracle(FixedDelay::new(delta))
///     .spawn_honest(|p| {
///         VbbFiveFMinusOne::new(
///             cfg, chain.signer(p), chain.pki(), accept_all(), delta,
///             (p == PartyId::new(0)).then_some(Value::new(7)),
///         )
///     })
///     .run();
/// assert!(outcome.validity_holds(Value::new(7)));
/// assert_eq!(outcome.good_case_rounds(), Some(2));
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
pub struct VbbFiveFMinusOne {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    validity: ExternalValidity,
    big_delta: Duration,
    /// Broadcaster's input (`Some` iff this party leads view 1).
    input: Option<Value>,
    /// Proposed when leading a later view with only genesis locks around.
    fallback: Value,
    /// Late-bound alternative to [`fallback`](Self::fallback): consulted at
    /// the moment this party proposes as a late-view leader with nothing
    /// locked, so an embedding layer (e.g. an SMR slot engine rotating
    /// proposal rights) can substitute a *fresh* value — drained from its
    /// mempool — instead of a constant chosen at construction time.
    fallback_source: Option<Box<dyn FnMut(View) -> Value + Send>>,
    view: View,
    cert: Certificate,
    voted: Option<LeaderSigned>,
    timed_out: BTreeSet<View>,
    committed: bool,
    proposed: bool,
    votes: Tally<(View, Value), VoteMsg>,
    timeouts: Tally<View, TimeoutMsg>,
    statuses: Tally<View, StatusMsg>,
    pending: BTreeMap<View, (LeaderSigned, Proof)>,
}

impl VbbFiveFMinusOne {
    /// Creates the party-side state.
    ///
    /// `input` must be `Some` exactly at the designated broadcaster (the
    /// leader of view 1, i.e. party 0 under round-robin).
    ///
    /// # Panics
    ///
    /// Panics if `n < 5f − 1` or `n < 3f + 1`, or if the input/role
    /// assignment is inconsistent, or if the broadcaster input fails the
    /// external validity predicate.
    pub fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        validity: ExternalValidity,
        big_delta: Duration,
        input: Option<Value>,
    ) -> Self {
        assert!(
            config.supports_two_round_psync(),
            "(5f-1)-psync-VBB requires n >= 5f - 1"
        );
        assert!(config.supports_brb(), "psync-BB requires n >= 3f + 1");
        let is_first_leader = signer.id() == View::FIRST.leader(config.n());
        assert_eq!(
            input.is_some(),
            is_first_leader,
            "exactly the view-1 leader provides an input"
        );
        if let Some(v) = input {
            assert!(
                validity.check(v),
                "broadcaster input must be externally valid"
            );
        }
        let fallback = Value::new(1_000_000 + u64::from(signer.id().index()));
        VbbFiveFMinusOne {
            config,
            signer,
            verifier: verifier.into(),
            validity,
            big_delta,
            input,
            fallback,
            fallback_source: None,
            view: View::FIRST,
            cert: Certificate::Genesis,
            voted: None,
            timed_out: BTreeSet::new(),
            committed: false,
            proposed: false,
            votes: Tally::new(),
            timeouts: Tally::new(),
            statuses: Tally::new(),
            pending: BTreeMap::new(),
        }
    }

    /// Overrides the value this party proposes as a late-view leader when
    /// nothing is locked (must be externally valid for progress).
    #[must_use]
    pub fn with_fallback(mut self, v: Value) -> Self {
        self.fallback = v;
        self
    }

    /// Installs a dynamic fallback: when this party proposes as a late-view
    /// leader and no value is locked, `source(view)` supplies the proposal
    /// instead of the static [`with_fallback`](Self::with_fallback) value.
    /// Every value the source returns must be externally valid.
    ///
    /// The source is consulted at most once per view led by this party, and
    /// only on the no-lock path — a locked value always wins, preserving
    /// the protocol's safety argument unchanged.
    #[must_use]
    pub fn with_fallback_source(
        mut self,
        source: impl FnMut(View) -> Value + Send + 'static,
    ) -> Self {
        self.fallback_source = Some(Box::new(source));
        self
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

    // ----- Step 2: vote ---------------------------------------------------

    fn proof_justifies(&self, ls: &LeaderSigned, proof: &Proof) -> bool {
        match proof {
            Proof::Bootstrap => ls.view == View::FIRST,
            Proof::Cert(c) => {
                c.view() == ls.view.prev()
                    && c.is_valid(self.config, &self.verifier, &self.validity)
                    && c.lock(self.config).is_some_and(|l| l.permits(ls.value))
            }
            Proof::Statuses(statuses) => {
                let prev = ls.view.prev();
                let senders: BTreeSet<PartyId> = statuses.iter().map(StatusMsg::sender).collect();
                if senders.len() < self.q() || senders.len() != statuses.len() {
                    return false;
                }
                if !statuses.iter().all(|s| {
                    s.view == prev && s.verify(self.config, &self.verifier, &self.validity)
                }) {
                    return false;
                }
                let highest = statuses
                    .iter()
                    .map(|s| &s.cert)
                    .max_by_key(|c| c.view())
                    .expect("non-empty by quorum check");
                highest
                    .lock(self.config)
                    .is_some_and(|l| l.permits(ls.value))
            }
        }
    }

    fn maybe_vote(&mut self, ls: LeaderSigned, proof: Proof, ctx: &mut dyn Context<VbbMsg>) {
        if self.committed
            || ls.view != self.view
            || self.voted.is_some()
            || self.timed_out.contains(&ls.view)
        {
            return;
        }
        if !self.proof_justifies(&ls, &proof) {
            return;
        }
        self.voted = Some(ls);
        let vote = VoteMsg::new(&self.signer, ls);
        ctx.multicast(VbbMsg::Vote(vote));
    }

    // ----- Step 3: commit -------------------------------------------------

    fn on_vote(&mut self, vote: VoteMsg, ctx: &mut dyn Context<VbbMsg>) {
        let key = (vote.ls.view, vote.ls.value);
        let valid =
            |v: &VoteMsg| v.verify(self.config, &self.verifier) && self.validity.check(v.ls.value);
        let Some(count) = self.votes.admit(key, vote.voter(), vote, valid) else {
            return;
        };
        if !self.committed && count >= self.q() {
            self.committed = true;
            ctx.multicast_except(VbbMsg::VoteBundle(self.votes.bundle(&key)), self.me());
            ctx.commit(key.1);
            ctx.terminate();
        }
    }

    // ----- Step 4: timeout ------------------------------------------------

    fn send_own_timeout(&mut self, view: View, ctx: &mut dyn Context<VbbMsg>) {
        if !self.timed_out.insert(view) {
            return;
        }
        let tm = match self.voted {
            Some(ls) if ls.view == view => TimeoutMsg::val(&self.signer, ls),
            _ => TimeoutMsg::bot(&self.signer, view),
        };
        ctx.multicast(VbbMsg::Timeout(tm));
    }

    /// Abstains from `view` ahead of time: multicasts this party's `⊥`
    /// timeout for a view it has not entered yet and never votes there.
    /// Always safe — a timeout only ever *withholds* a vote, and a party
    /// that has not entered `view` has not voted in it — so an embedding
    /// layer that already knows `view`'s leader to be dead can cross it
    /// without waiting `4Δ` there. A no-op for the current and past views
    /// (those time out through [`Protocol::on_timer`]), for a view this
    /// party leads (its proposal there is a vote), after commit, and when
    /// repeated.
    pub fn forfeit(&mut self, view: View, ctx: &mut dyn Context<VbbMsg>) {
        if !self.committed && view > self.view && self.leader(view) != self.me() {
            self.send_own_timeout(view, ctx);
        }
    }

    /// The view whose vote quorum this party committed on (`None` before
    /// it commits). Handlers stop at the commit, so exactly one key ever
    /// holds a quorum.
    pub fn commit_view(&self) -> Option<View> {
        self.votes.reached(self.q()).next().map(|&(view, _)| view)
    }

    // ----- Step 5: new view -----------------------------------------------

    /// Records a timeout for the current or a later view (a sender's later
    /// timeout for a view replaces its earlier one); whether it was.
    fn record_timeout(&mut self, tm: TimeoutMsg) -> bool {
        let valid = |t: &TimeoutMsg| t.verify(self.config, &self.verifier, &self.validity);
        tm.view() >= self.view
            && self
                .timeouts
                .admit(tm.view(), tm.sender(), tm, valid)
                .is_some()
    }

    fn try_advance(&mut self, ctx: &mut dyn Context<VbbMsg>) {
        loop {
            if self.committed {
                return;
            }
            let w = self.view;
            let leader = self.leader(w);
            let pool = || self.timeouts.votes(&w);
            let values: BTreeSet<Value> = pool().filter_map(|(_, t)| t.value()).collect();
            // With leader equivocation visible (two values), wait for a
            // full quorum from parties other than the leader.
            let chosen: Vec<TimeoutMsg> = pool()
                .filter(|&(p, _)| values.len() <= 1 || p != leader)
                .map(|(_, t)| *t)
                .collect();
            if chosen.len() < self.q() {
                return;
            }

            // Forward the quorum so laggards advance too.
            ctx.multicast_except(VbbMsg::TimeoutBundle(chosen.clone()), self.me());

            // Update the lock certificate if these timeouts lock a value.
            let cert = Certificate::assemble(w, chosen);
            if cert.is_valid(self.config, &self.verifier, &self.validity)
                && matches!(cert.lock(self.config), Some(Lock::Exactly(_)))
                && cert.ranks_above(&self.cert)
            {
                self.cert = cert;
            }

            // Timeout the old view if we haven't, then enter the new one.
            self.send_own_timeout(w, ctx);
            let new_view = w.next();
            self.view = new_view;
            self.voted = None;
            self.proposed = false;
            ctx.set_timer(self.big_delta * 4, view_tag(new_view));

            let status = StatusMsg::new(&self.signer, w, self.cert.clone());
            ctx.send(self.leader(new_view), VbbMsg::Status(status));

            if let Some((ls, proof)) = self.pending.remove(&new_view) {
                self.maybe_vote(ls, proof, ctx);
            }
            if self.leader(new_view) == self.me() {
                self.try_propose(ctx);
            }
            // Maybe timeouts for the new view already suffice — loop.
        }
    }

    // ----- Step 6: status / propose ----------------------------------------

    fn try_propose(&mut self, ctx: &mut dyn Context<VbbMsg>) {
        if self.committed || self.proposed || self.leader(self.view) != self.me() {
            return;
        }
        let w = self.view;
        let prev = w.prev();
        let (value, proof) = if w == View::FIRST {
            let v = self.input.expect("view-1 leader has an input");
            (v, Proof::Bootstrap)
        } else if self.statuses.count(&prev) < self.q() {
            return;
        } else if self.cert.view() == prev {
            let v = match self.cert.lock(self.config) {
                Some(Lock::Exactly(v)) => v,
                _ => unreachable!("assembled certs are stored only when they lock"),
            };
            (v, Proof::Cert(self.cert.clone()))
        } else {
            let statuses = self.statuses.bundle(&prev);
            let highest = statuses
                .iter()
                .map(|s| &s.cert)
                .max_by_key(|c| c.view())
                .expect("quorum checked");
            let v = match highest.lock(self.config) {
                Some(Lock::Exactly(v)) => v,
                _ => match self.fallback_source.as_mut() {
                    Some(source) => source(w),
                    None => self.fallback,
                },
            };
            (v, Proof::Statuses(statuses))
        };
        let ls = LeaderSigned::new(&self.signer, value, w);
        self.proposed = true;
        self.voted = Some(ls);
        let vote = VoteMsg::new(&self.signer, ls);
        ctx.multicast(VbbMsg::Propose { ls, proof });
        ctx.multicast(VbbMsg::Vote(vote));
    }
}

// Manual impl: the optional fallback-source closure is not `Debug`.
impl std::fmt::Debug for VbbFiveFMinusOne {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VbbFiveFMinusOne")
            .field("me", &self.signer.id())
            .field("view", &self.view)
            .field("committed", &self.committed)
            .field("proposed", &self.proposed)
            .field("fallback", &self.fallback)
            .field("dynamic_fallback", &self.fallback_source.is_some())
            .finish_non_exhaustive()
    }
}

impl Protocol for VbbFiveFMinusOne {
    type Msg = VbbMsg;

    fn start(&mut self, ctx: &mut dyn Context<VbbMsg>) {
        ctx.set_timer(self.big_delta * 4, view_tag(View::FIRST));
        if self.leader(View::FIRST) == self.me() {
            self.try_propose(ctx);
        }
    }

    fn on_message(&mut self, from: PartyId, msg: VbbMsg, ctx: &mut dyn Context<VbbMsg>) {
        if self.committed {
            return;
        }
        match msg {
            VbbMsg::Propose { ls, proof } => {
                if from != self.leader(ls.view)
                    || !ls.verify(self.config, &self.verifier)
                    || !self.validity.check(ls.value)
                {
                    return;
                }
                if ls.view > self.view {
                    self.pending.entry(ls.view).or_insert((ls, proof));
                } else {
                    self.maybe_vote(ls, proof, ctx);
                }
            }
            VbbMsg::Vote(vote) => self.on_vote(vote, ctx),
            VbbMsg::VoteBundle(votes) => {
                for vote in votes {
                    self.on_vote(vote, ctx);
                    if self.committed {
                        break;
                    }
                }
            }
            VbbMsg::Timeout(tm) => {
                if self.record_timeout(tm) {
                    self.try_advance(ctx);
                }
            }
            VbbMsg::TimeoutBundle(tms) => {
                let mut touched = false;
                for tm in tms {
                    touched |= self.record_timeout(tm);
                }
                if touched {
                    self.try_advance(ctx);
                }
            }
            VbbMsg::Status(st) => {
                let valid = |s: &StatusMsg| s.verify(self.config, &self.verifier, &self.validity);
                if self
                    .statuses
                    .admit(st.view, st.sender(), st, valid)
                    .is_some()
                {
                    self.try_propose(ctx);
                }
            }
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<VbbMsg>) {
        if self.committed {
            return;
        }
        let view = View::new(tag);
        if view == self.view {
            self.send_own_timeout(view, ctx);
            self.try_advance(ctx);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_hand::Rec;
    use gcl_crypto::Keychain;
    use gcl_sim::{
        DelayRule, FixedDelay, LinkDelay, Outcome, PartySet, ScheduleOracle, Silent, Simulation,
        Strategy, TimingModel,
    };
    use gcl_types::{accept_all, GlobalTime};
    use std::sync::Arc;

    const DELTA: Duration = Duration::from_micros(100);

    fn psync_gst0() -> TimingModel {
        TimingModel::PartialSynchrony {
            gst: GlobalTime::ZERO,
            big_delta: DELTA,
        }
    }

    fn good_case(n: usize, f: usize) -> Outcome {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 20);
        Simulation::build(cfg)
            .timing(psync_gst0())
            .oracle(FixedDelay::new(DELTA))
            .spawn_honest(|p| {
                VbbFiveFMinusOne::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    accept_all(),
                    DELTA,
                    (p == PartyId::new(0)).then_some(Value::new(11)),
                )
            })
            .run()
    }

    #[test]
    fn good_case_two_rounds_at_5f_minus_1() {
        for (n, f) in [(4, 1), (9, 2), (14, 3), (24, 5)] {
            let o = good_case(n, f);
            assert!(o.validity_holds(Value::new(11)), "n={n} f={f}");
            assert!(o.all_honest_terminated());
            assert_eq!(o.good_case_rounds(), Some(2), "n={n} f={f}: 2 rounds");
        }
    }

    #[test]
    fn good_case_latency_two_message_delays() {
        let o = good_case(4, 1);
        assert_eq!(o.good_case_latency(), Some(DELTA * 2));
    }

    #[test]
    fn silent_leader_view_change_converges() {
        let n = 9;
        let cfg = Config::new(n, 2).unwrap();
        let chain = Keychain::generate(n, 21);
        let o = Simulation::build(cfg)
            .timing(psync_gst0())
            .oracle(FixedDelay::new(Duration::from_micros(10)))
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(|p| {
                VbbFiveFMinusOne::new(cfg, chain.signer(p), chain.pki(), accept_all(), DELTA, None)
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed(), "termination after GST");
        // The view-2 leader (P1) proposed its fallback.
        assert_eq!(o.committed_value(), Some(Value::new(1_000_001)));
    }

    #[test]
    fn fallback_source_supplies_the_late_view_proposal() {
        // Same silent-leader schedule, but the view-2 leader carries a
        // dynamic fallback source: the converged value must come from the
        // source (stamped with the view it was asked for), and parties
        // without a source must be unaffected.
        let n = 9;
        let cfg = Config::new(n, 2).unwrap();
        let chain = Keychain::generate(n, 23);
        let asked: Arc<std::sync::Mutex<Vec<View>>> = Arc::default();
        let log = Arc::clone(&asked);
        let o = Simulation::build(cfg)
            .timing(psync_gst0())
            .oracle(FixedDelay::new(Duration::from_micros(10)))
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(move |p| {
                let vbb = VbbFiveFMinusOne::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    accept_all(),
                    DELTA,
                    None,
                );
                if p == PartyId::new(1) {
                    let log = Arc::clone(&log);
                    vbb.with_fallback_source(move |view| {
                        log.lock().unwrap().push(view);
                        Value::new(7_000 + view.number())
                    })
                } else {
                    vbb
                }
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(Value::new(7_002)));
        assert_eq!(
            asked.lock().unwrap().as_slice(),
            &[View::new(2)],
            "the source is consulted exactly once, for the view being led"
        );
    }

    /// Byzantine view-1 leader that equivocates: proposes `value_a` (with a
    /// valid bootstrap proof) to `group_a` and `value_b` to everyone else,
    /// then goes silent — the canonical psync adversary.
    #[derive(Debug)]
    struct EquivocatingLeader {
        signer: Signer,
        group_a: Vec<PartyId>,
        value_a: Value,
        value_b: Value,
    }

    impl Strategy<VbbMsg> for EquivocatingLeader {
        fn start(&mut self, ctx: &mut dyn Context<VbbMsg>) {
            let w = View::FIRST;
            let ls_a = LeaderSigned::new(&self.signer, self.value_a, w);
            let ls_b = LeaderSigned::new(&self.signer, self.value_b, w);
            for p in ctx.config().parties().collect::<Vec<_>>() {
                if p == self.signer.id() {
                    continue;
                }
                let ls = if self.group_a.contains(&p) {
                    ls_a
                } else {
                    ls_b
                };
                ctx.send(
                    p,
                    VbbMsg::Propose {
                        ls,
                        proof: Proof::Bootstrap,
                    },
                );
            }
        }
        fn on_message(&mut self, _from: PartyId, _msg: VbbMsg, _ctx: &mut dyn Context<VbbMsg>) {}
        fn on_timer(&mut self, _tag: u64, _ctx: &mut dyn Context<VbbMsg>) {}
    }

    #[test]
    fn equivocating_leader_safe_and_live() {
        let n = 9;
        let cfg = Config::new(n, 2).unwrap();
        let chain = Keychain::generate(n, 22);
        let group_a: Vec<PartyId> = (1..=4).map(PartyId::new).collect();
        let o = Simulation::build(cfg)
            .timing(psync_gst0())
            .oracle(FixedDelay::new(Duration::from_micros(10)))
            .byzantine(
                PartyId::new(0),
                EquivocatingLeader {
                    signer: chain.signer(PartyId::new(0)),
                    group_a,
                    value_a: Value::ZERO,
                    value_b: Value::ONE,
                },
            )
            .byzantine(PartyId::new(8), Silent::new())
            .spawn_honest(|p| {
                VbbFiveFMinusOne::new(cfg, chain.signer(p), chain.pki(), accept_all(), DELTA, None)
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
    }

    #[test]
    fn lone_committer_protected_across_view_change() {
        // Pre-GST scheduling: all votes reach only P1, which commits v in
        // view 1; everyone else times out into view 2. The view-change lock
        // must force the view-2 leader to re-propose v.
        let n = 9;
        let cfg = Config::new(n, 2).unwrap();
        let chain = Keychain::generate(n, 23);
        let gst = GlobalTime::from_micros(100_000);
        let far = Duration::from_micros(200_000);
        let oracle: ScheduleOracle<VbbMsg> = ScheduleOracle::new(Duration::from_micros(10))
            // Votes to anyone but P1 are held until GST.
            .rule(
                DelayRule::link(
                    PartySet::Any,
                    PartySet::In((2..9).map(PartyId::new).collect()),
                    LinkDelay::Finite(far),
                )
                .when(|m: &VbbMsg| matches!(m, VbbMsg::Vote(_))),
            )
            // P1's own outbound messages (inc. its commit VoteBundle) are
            // held too, so nobody else commits via view 1.
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
                VbbFiveFMinusOne::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    accept_all(),
                    DELTA,
                    (p == PartyId::new(0)).then_some(Value::new(11)),
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        assert_eq!(
            o.committed_value(),
            Some(Value::new(11)),
            "lock carried the committed value through the view change"
        );
        // P1 committed in view 1 (fast), others later.
        let c1 = o.commit_of(PartyId::new(1)).unwrap();
        assert!(c1.global < gst);
    }

    #[test]
    fn external_validity_filters_proposals() {
        // Broadcaster proposes an invalid value (only possible for a
        // Byzantine one — simulate by predicate that rejects it): honest
        // parties never vote for it; view change; the next leader's
        // fallback must satisfy the predicate, and then gets committed.
        let n = 4;
        let cfg = Config::new(n, 1).unwrap();
        let chain = Keychain::generate(n, 24);
        let validity = ExternalValidity::new("under-1000", |v: Value| v.as_u64() < 1_000);
        let signer0 = chain.signer(PartyId::new(0));
        let bad = LeaderSigned::new(&signer0, Value::new(5_000), View::FIRST);
        let script = gcl_sim::Scripted::multicast_at(
            gcl_types::LocalTime::ZERO,
            &[PartyId::new(1), PartyId::new(2), PartyId::new(3)],
            VbbMsg::Propose {
                ls: bad,
                proof: Proof::Bootstrap,
            },
        );
        let o = Simulation::build(cfg)
            .timing(psync_gst0())
            .oracle(FixedDelay::new(Duration::from_micros(10)))
            .byzantine(PartyId::new(0), script)
            .spawn_honest(|p| {
                VbbFiveFMinusOne::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    validity.clone(),
                    DELTA,
                    None,
                )
                .with_fallback(Value::new(42))
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(Value::new(42)));
    }

    #[test]
    fn late_gst_still_terminates() {
        // Fully adversarial delays before GST (everything held), honest
        // leader: parties churn through timeouts but must commit after GST.
        let n = 4;
        let cfg = Config::new(n, 1).unwrap();
        let chain = Keychain::generate(n, 25);
        let gst = GlobalTime::from_micros(2_000);
        let oracle: ScheduleOracle<VbbMsg> =
            ScheduleOracle::new(Duration::ZERO).rule(DelayRule::link(
                PartySet::Any,
                PartySet::Any,
                LinkDelay::Never, // pre-GST: held until the clamp (GST + Δ)
            ));
        let o = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst,
                big_delta: DELTA,
            })
            .oracle(oracle)
            .spawn_honest(|p| {
                VbbFiveFMinusOne::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    accept_all(),
                    DELTA,
                    (p == PartyId::new(0)).then_some(Value::new(3)),
                )
            })
            .run();
        o.assert_agreement();
        assert!(o.all_honest_committed(), "termination after GST");
    }

    #[test]
    fn forfeit_abstains_from_a_future_view_exactly_once() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 27);
        let signer = |i: u32| chain.signer(PartyId::new(i));
        let two = View::new(2); // party 2 leads view 3
                                // Party 2 up to the moment view 2's leader proposes, with or
                                // without having forfeited view 2 first.
        let run = |forfeit: bool| {
            let mut p =
                VbbFiveFMinusOne::new(cfg, signer(2), chain.pki(), accept_all(), DELTA, None);
            let mut ctx = Rec::new(cfg, 2);
            Protocol::start(&mut p, &mut ctx);
            if forfeit {
                p.forfeit(two, &mut ctx);
                p.forfeit(two, &mut ctx); // idempotent
                p.forfeit(View::FIRST, &mut ctx); // the current view: not its job
                p.forfeit(View::new(3), &mut ctx); // its own view: never
                assert_eq!(
                    ctx.multicast,
                    [VbbMsg::Timeout(TimeoutMsg::bot(&signer(2), two))],
                    "exactly one ⊥ timeout, for the forfeited view"
                );
            }
            for q in [0, 1, 3] {
                let tm = TimeoutMsg::bot(&signer(q), View::FIRST);
                Protocol::on_message(&mut p, PartyId::new(q), VbbMsg::Timeout(tm), &mut ctx);
            }
            assert_eq!(p.view, two, "a quorum of view-1 timeouts enters view 2");
            let statuses = [0, 1, 3]
                .map(|q| StatusMsg::new(&signer(q), View::FIRST, Certificate::Genesis))
                .to_vec();
            let propose = VbbMsg::Propose {
                ls: LeaderSigned::new(&signer(1), Value::new(5), two),
                proof: Proof::Statuses(statuses),
            };
            Protocol::on_message(&mut p, PartyId::new(1), propose, &mut ctx);
            let voted = ctx
                .multicast
                .iter()
                .any(|m| matches!(m, VbbMsg::Vote(v) if v.ls.view == two));
            (p, ctx, voted)
        };
        assert!(run(false).2, "control: the proposal is one it votes for");
        let (mut p, mut ctx, voted) = run(true);
        assert!(!voted, "a forfeited view is never voted in");
        // Nothing is forfeited after the commit.
        assert_eq!(p.commit_view(), None);
        let ls = LeaderSigned::new(&signer(0), Value::new(9), View::FIRST);
        let votes = [0, 1, 3].map(|q| VoteMsg::new(&signer(q), ls)).to_vec();
        Protocol::on_message(&mut p, PartyId::new(0), VbbMsg::VoteBundle(votes), &mut ctx);
        assert_eq!(ctx.committed, [Value::new(9)]);
        assert_eq!(p.commit_view(), Some(View::FIRST));
        let sent = ctx.multicast.len();
        p.forfeit(View::new(8), &mut ctx);
        assert_eq!(ctx.multicast.len(), sent, "a no-op after commit");
    }

    /// Party `me` of (4, 1), started by hand.
    fn started(chain: &Keychain, me: u32) -> (VbbFiveFMinusOne, Rec<VbbMsg>) {
        let cfg = Config::new(4, 1).unwrap();
        let signer = chain.signer(PartyId::new(me));
        let mut p = VbbFiveFMinusOne::new(cfg, signer, chain.pki(), accept_all(), DELTA, None);
        let mut ctx = Rec::new(cfg, me);
        Protocol::start(&mut p, &mut ctx);
        (p, ctx)
    }

    #[test]
    fn a_later_timeout_replaces_the_senders_earlier_one() {
        // P3 sends a ⊥ and a value timeout for view 1, in both orders. The
        // one that arrived last is what P2's view-1 quorum forwards and what
        // its certificate (hence its status to the view-2 leader) is made of.
        let chain = Keychain::generate(4, 28);
        let signer = |i: u32| chain.signer(PartyId::new(i));
        let ls = LeaderSigned::new(&signer(0), Value::new(5), View::FIRST);
        let bot = TimeoutMsg::bot(&signer(3), View::FIRST);
        let val = TimeoutMsg::val(&signer(3), ls);
        for (earlier, later) in [(bot, val), (val, bot)] {
            let (mut p, mut ctx) = started(&chain, 2);
            let quorum = [(3, earlier), (3, later)]
                .into_iter()
                .chain([0, 1].map(|q| (q, TimeoutMsg::bot(&signer(q), View::FIRST))));
            for (from, tm) in quorum {
                Protocol::on_message(&mut p, PartyId::new(from), VbbMsg::Timeout(tm), &mut ctx);
            }
            let entries = vec![
                TimeoutMsg::bot(&signer(0), View::FIRST),
                TimeoutMsg::bot(&signer(1), View::FIRST),
                later,
            ];
            let cert = if later == val {
                Certificate::assemble(View::FIRST, entries.clone())
            } else {
                Certificate::Genesis // an all-⊥ quorum locks nothing
            };
            let status = StatusMsg::new(&signer(2), View::FIRST, cert);
            assert_eq!(
                ctx.sent,
                [VbbMsg::TimeoutBundle(entries), VbbMsg::Status(status)]
            );
        }
    }

    #[test]
    fn a_later_status_replaces_the_senders_earlier_one() {
        // P3 sends two statuses for view 1 to P1, the view-2 leader: one
        // with the genesis certificate, one with a certificate locking 5.
        // The later one is what P1's proposal proof carries, so it decides
        // what P1 proposes.
        let chain = Keychain::generate(4, 29);
        let signer = |i: u32| chain.signer(PartyId::new(i));
        let ls = LeaderSigned::new(&signer(0), Value::new(5), View::FIRST);
        let locking = Certificate::assemble(
            View::FIRST,
            vec![
                TimeoutMsg::bot(&signer(0), View::FIRST),
                TimeoutMsg::bot(&signer(1), View::FIRST),
                TimeoutMsg::val(&signer(3), ls),
            ],
        );
        let status =
            |q: u32, cert: &Certificate| StatusMsg::new(&signer(q), View::FIRST, cert.clone());
        let plain = status(3, &Certificate::Genesis);
        let locked = status(3, &locking);
        for (earlier, later, proposed) in [
            (plain.clone(), locked.clone(), Value::new(5)),
            (locked.clone(), plain.clone(), Value::new(1_000_001)),
        ] {
            let (mut p, mut ctx) = started(&chain, 1);
            for (from, st) in [
                (3, earlier),
                (3, later.clone()),
                (0, status(0, &Certificate::Genesis)),
                (2, status(2, &Certificate::Genesis)),
            ] {
                Protocol::on_message(&mut p, PartyId::new(from), VbbMsg::Status(st), &mut ctx);
            }
            for q in [0, 2, 3] {
                let tm = TimeoutMsg::bot(&signer(q), View::FIRST);
                Protocol::on_message(&mut p, PartyId::new(q), VbbMsg::Timeout(tm), &mut ctx);
            }
            let proof = Proof::Statuses(vec![
                status(0, &Certificate::Genesis),
                status(2, &Certificate::Genesis),
                later,
            ]);
            let propose = VbbMsg::Propose {
                ls: LeaderSigned::new(&signer(1), proposed, View::new(2)),
                proof,
            };
            assert!(ctx.multicast.contains(&propose), "{:?}", ctx.multicast);
        }
    }

    #[test]
    #[should_panic(expected = "n >= 5f - 1")]
    fn resilience_boundary_rejected() {
        // n = 8 = 5f − 2 with f = 2 must be rejected: Theorem 7 says no
        // 2-round protocol exists there.
        let cfg = Config::new(8, 2).unwrap();
        let chain = Keychain::generate(8, 1);
        let _ = VbbFiveFMinusOne::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            accept_all(),
            DELTA,
            Some(Value::ZERO),
        );
    }

    #[test]
    fn status_msg_verify() {
        let cfg = Config::new(9, 2).unwrap();
        let chain = Keychain::generate(9, 26);
        let st = StatusMsg::new(
            &chain.signer(PartyId::new(3)),
            View::FIRST,
            Certificate::Genesis,
        );
        assert!(st.verify(cfg, &chain.pki(), &accept_all()));
        assert_eq!(st.sender(), PartyId::new(3));
        // Cert with view above the status view is rejected.
        let bad = StatusMsg::new(
            &chain.signer(PartyId::new(3)),
            View::ZERO,
            Certificate::assemble(View::new(5), vec![]),
        );
        assert!(!bad.verify(cfg, &chain.pki(), &accept_all()));
    }
}
