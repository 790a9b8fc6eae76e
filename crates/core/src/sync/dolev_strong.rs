//! Dolev–Strong authenticated broadcast (1983): worst-case-optimal `f + 1`
//! rounds, tolerating any `f < n`.
//!
//! The paper cites it as the classical worst-case baseline (its `f + 1`
//! round complexity is exactly what motivates studying *good-case* latency
//! instead). We use its signature-chain core twice: stand-alone as
//! [`DolevStrongBb`] and, one instance per party, inside the lock-step
//! Byzantine agreement primitive ([`super::ba::LockstepBa`]).
//!
//! ## Lock-step timing
//!
//! Rounds have duration `3Δ`: with clock skew ≤ Δ and message delay ≤ Δ, a
//! message sent at a sender's round-`r` boundary arrives strictly before
//! any receiver's round-`r+1` boundary. A chain of `c` signatures is
//! accepted in local round `r` (1-based) iff `c ≥ r` and `c ≤ f + 1`;
//! accepted values with `c ≤ f` are re-signed and relayed at the next
//! boundary. After round `f + 1`, a party outputs the unique extracted
//! value, or the default `⊥` encoding if it extracted zero or ≥ 2 values.

use gcl_crypto::{Digest, Signature, Signer, Verifier, Verify};
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, Duration, LocalTime, PartyId, Value};
use std::collections::BTreeSet;

/// The `⊥` encoding used when broadcast/agreement extracts no unique value.
pub(crate) const BOT_SENTINEL: Value = Value::new(u64::MAX);

/// A value with its signature chain for one Dolev–Strong instance.
///
/// `instance` identifies the designated sender whose broadcast this chain
/// belongs to (the BA primitive runs `n` instances in parallel).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsRelay {
    /// The designated sender of this instance.
    pub instance: PartyId,
    /// The relayed value.
    pub value: Value,
    /// Distinct signatures over `(domain, instance, value)`; must include
    /// the instance sender's.
    pub chain: Vec<Signature>,
}

impl DsRelay {
    /// The digest every signer in a chain signs.
    pub(crate) fn digest(domain: &'static str, instance: PartyId, value: Value) -> Digest {
        Digest::of(&(domain, instance, value))
    }

    /// Starts a chain as the instance sender.
    pub(crate) fn originate(domain: &'static str, signer: &Signer, value: Value) -> Self {
        DsRelay {
            instance: signer.id(),
            value,
            chain: vec![signer.sign(Self::digest(domain, signer.id(), value))],
        }
    }

    /// Extends the chain with `signer`'s signature (no-op if present).
    #[must_use]
    pub(crate) fn extend(&self, domain: &'static str, signer: &Signer) -> Self {
        let mut next = self.clone();
        if !next.chain.iter().any(|s| s.signer() == signer.id()) {
            next.chain
                .push(signer.sign(Self::digest(domain, self.instance, self.value)));
        }
        next
    }

    /// Chain validity: all signatures distinct, valid, and the instance
    /// sender's signature present.
    ///
    /// Every signature is checked on every delivery. With an amortizing
    /// [`Verifier`], the signatures a relay inherits from its prefix were
    /// already MAC'd by some party, so each one costs a shared-cache lookup
    /// and only the newly appended signature pays a MAC.
    pub(crate) fn verify(&self, domain: &'static str, v: &impl Verify) -> bool {
        let digest = Self::digest(domain, self.instance, self.value);
        let signers: BTreeSet<PartyId> = self.chain.iter().map(Signature::signer).collect();
        signers.len() == self.chain.len()
            && signers.contains(&self.instance)
            && self.chain.iter().all(|s| v.verify_embedded(digest, s))
    }

    /// Number of distinct signatures.
    pub(crate) fn len(&self) -> usize {
        self.chain.len()
    }
}

/// Per-instance Dolev–Strong extraction state, shared by [`DolevStrongBb`]
/// and the BA primitive.
#[derive(Debug, Clone, Default)]
pub(crate) struct DsInstance {
    /// Extracted values (tracking stops at 2 — enough to know "not unique").
    pub(crate) extracted: BTreeSet<Value>,
}

impl DsInstance {
    /// The signature-independent half of the accept rule: would a chain of
    /// this length carrying this value matter in local round `round`?
    ///
    /// Checked *before* chain verification — when it is `false`,
    /// [`DsInstance::accept`] would reject without mutating state, so
    /// skipping verification is observationally identical and saves the
    /// dominant re-delivery cost (relays for already-extracted values).
    pub(crate) fn considers(&self, relay: &DsRelay, round: usize, f: usize) -> bool {
        relay.len() >= round
            && relay.len() <= f + 1
            && self.extracted.len() < 2
            && !self.extracted.contains(&relay.value)
    }

    /// Accepts a verified chain in local round `round` (1-based).
    /// Returns `true` if the value is newly extracted and should be relayed
    /// (i.e. the chain can still grow: `len ≤ f`).
    pub(crate) fn accept(&mut self, relay: &DsRelay, round: usize, f: usize) -> bool {
        if relay.len() < round || relay.len() > f + 1 {
            return false;
        }
        if self.extracted.len() >= 2 || self.extracted.contains(&relay.value) {
            return false;
        }
        self.extracted.insert(relay.value);
        relay.len() <= f
    }

    /// The decision after round `f + 1`: the unique extracted value or ⊥.
    pub(crate) fn decide(&self) -> Value {
        if self.extracted.len() == 1 {
            *self.extracted.iter().next().expect("len checked")
        } else {
            BOT_SENTINEL
        }
    }
}

gcl_types::wire_struct!(DsRelay {
    instance,
    value,
    chain
});

/// Wire message of stand-alone Dolev–Strong broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsMsg(pub DsRelay);

gcl_types::wire_newtype!(DsMsg);

const DS_DOMAIN: &str = "ds-bb";

/// Stand-alone Dolev–Strong Byzantine broadcast: tolerates any `f < n`,
/// commits after `f + 1` lock-step rounds (worst case = good case — the
/// contrast the paper draws with good-case-optimized protocols).
///
/// # Examples
///
/// ```
/// use gcl_core::sync::DolevStrongBb;
/// use gcl_crypto::Keychain;
/// use gcl_sim::{FixedDelay, Simulation, TimingModel};
/// use gcl_types::{Config, Duration, PartyId, Value};
///
/// let cfg = Config::new(4, 1)?;
/// let chain = Keychain::generate(4, 4);
/// let delta = Duration::from_micros(100);
/// let outcome = Simulation::build(cfg)
///     .timing(TimingModel::lockstep(delta))
///     .oracle(FixedDelay::new(delta))
///     .spawn_honest(|p| {
///         DolevStrongBb::new(cfg, chain.signer(p), chain.pki(), delta, PartyId::new(0),
///                            (p == PartyId::new(0)).then_some(Value::new(5)))
///     })
///     .run();
/// assert!(outcome.validity_holds(Value::new(5)));
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct DolevStrongBb {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    big_delta: Duration,
    broadcaster: PartyId,
    input: Option<Value>,
    instance: DsInstance,
    outbox: Vec<DsRelay>,
    decided: bool,
}

impl DolevStrongBb {
    /// Round duration: `3Δ` absorbs skew ≤ Δ plus delay ≤ Δ with margin.
    pub(crate) fn round_duration(big_delta: Duration) -> Duration {
        big_delta * 3
    }

    /// Creates the party-side state.
    ///
    /// # Panics
    ///
    /// Panics when the input/broadcaster roles disagree.
    pub fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        big_delta: Duration,
        broadcaster: PartyId,
        input: Option<Value>,
    ) -> Self {
        assert_eq!(input.is_some(), signer.id() == broadcaster);
        DolevStrongBb {
            config,
            signer,
            verifier: verifier.into(),
            big_delta,
            broadcaster,
            input,
            instance: DsInstance::default(),
            outbox: Vec::new(),
            decided: false,
        }
    }

    fn round_of(&self, now: LocalTime) -> usize {
        (now.as_micros() / Self::round_duration(self.big_delta).as_micros()) as usize + 1
    }
}

impl Protocol for DolevStrongBb {
    type Msg = DsMsg;

    fn start(&mut self, ctx: &mut dyn Context<DsMsg>) {
        let r = Self::round_duration(self.big_delta);
        // Boundary timers for rounds 1..=f+1 plus the decision boundary.
        for k in 1..=(self.config.f() + 1) {
            ctx.set_timer(r * k as u64, k as u64);
        }
        if let Some(v) = self.input {
            let relay = DsRelay::originate(DS_DOMAIN, &self.signer, v);
            // Originator extracts its own value immediately.
            self.instance.accept(&relay, 1, self.config.f());
            ctx.multicast_except(DsMsg(relay), self.signer.id());
        }
    }

    fn on_message(&mut self, _from: PartyId, msg: DsMsg, ctx: &mut dyn Context<DsMsg>) {
        let relay = msg.0;
        if self.decided || relay.instance != self.broadcaster {
            return;
        }
        let round = self.round_of(ctx.now());
        // Sig-independent accept predicate first: relays that would be
        // rejected anyway (chiefly re-deliveries of an already-extracted
        // value) skip chain verification entirely.
        if !self.instance.considers(&relay, round, self.config.f())
            || !relay.verify(DS_DOMAIN, &self.verifier)
        {
            return;
        }
        if self.instance.accept(&relay, round, self.config.f()) {
            self.outbox.push(relay.extend(DS_DOMAIN, &self.signer));
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<DsMsg>) {
        if self.decided {
            return;
        }
        // Boundary k: flush relays, decide at the final boundary.
        for relay in std::mem::take(&mut self.outbox) {
            ctx.multicast_except(DsMsg(relay), self.signer.id());
        }
        if tag as usize == self.config.f() + 1 {
            self.decided = true;
            ctx.commit(self.instance.decide());
            ctx.terminate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::by_hand::verify_cost;
    use gcl_crypto::Keychain;
    use gcl_sim::{FixedDelay, Outcome, Scripted, ScriptedAction, Silent, Simulation, TimingModel};
    use gcl_types::SkewSchedule;

    const DELTA: Duration = Duration::from_micros(100);

    fn run(n: usize, f: usize, skew: Option<SkewSchedule>) -> Outcome {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 40);
        let mut b = Simulation::build(cfg)
            .timing(TimingModel::lockstep(DELTA))
            .oracle(FixedDelay::new(DELTA));
        if let Some(s) = skew {
            b = b.skew(s);
        }
        b.spawn_honest(|p| {
            DolevStrongBb::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                DELTA,
                PartyId::new(0),
                (p == PartyId::new(0)).then_some(Value::new(7)),
            )
        })
        .run()
    }

    #[test]
    fn honest_broadcaster_all_commit() {
        for (n, f) in [(4, 1), (4, 2), (4, 3), (7, 3), (6, 4)] {
            let o = run(n, f, None);
            assert!(o.validity_holds(Value::new(7)), "n={n} f={f}");
        }
    }

    #[test]
    fn latency_is_f_plus_1_rounds() {
        let o = run(4, 2, None);
        // Decision at boundary f+1 = 3 rounds of 3Δ.
        assert_eq!(
            o.good_case_latency(),
            Some(DolevStrongBb::round_duration(DELTA) * 3)
        );
    }

    #[test]
    fn tolerates_clock_skew_up_to_delta() {
        let skew = SkewSchedule::with_late_parties(
            4,
            &[(PartyId::new(2), DELTA), (PartyId::new(3), DELTA.halved())],
        );
        let o = run(4, 1, Some(skew));
        assert!(o.validity_holds(Value::new(7)));
    }

    #[test]
    fn silent_broadcaster_commits_bot_everywhere() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 41);
        let o = Simulation::build(cfg)
            .timing(TimingModel::lockstep(DELTA))
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(|p| {
                DolevStrongBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    DELTA,
                    PartyId::new(0),
                    None,
                )
            })
            .run();
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(BOT_SENTINEL));
    }

    #[test]
    fn equivocating_broadcaster_agreed_output() {
        // Broadcaster signs both 0 and 1 and sends one to each half: the
        // relays cross-pollinate, everyone extracts both, decides ⊥ — the
        // classical DS guarantee even though the broadcaster is Byzantine.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 42);
        let s0 = chain.signer(PartyId::new(0));
        let r0 = DsRelay::originate(DS_DOMAIN, &s0, Value::ZERO);
        let r1 = DsRelay::originate(DS_DOMAIN, &s0, Value::ONE);
        let mut actions = Vec::new();
        for p in [1, 2] {
            actions.push(ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(p),
                msg: DsMsg(r0.clone()),
            });
        }
        actions.push(ScriptedAction {
            at: LocalTime::ZERO,
            to: PartyId::new(3),
            msg: DsMsg(r1.clone()),
        });
        let o = Simulation::build(cfg)
            .timing(TimingModel::lockstep(DELTA))
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Scripted::new(actions))
            .spawn_honest(|p| {
                DolevStrongBb::new(
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
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(BOT_SENTINEL));
    }

    #[test]
    fn chain_verification() {
        let chain = Keychain::generate(3, 43);
        let s0 = chain.signer(PartyId::new(0));
        let s1 = chain.signer(PartyId::new(1));
        let r = DsRelay::originate("d", &s0, Value::new(3));
        assert!(r.verify("d", &chain.pki()));
        assert_eq!(r.len(), 1);
        let r2 = r.extend("d", &s1);
        assert_eq!(r2.len(), 2);
        assert!(r2.verify("d", &chain.pki()));
        // Extending twice with the same signer is a no-op.
        assert_eq!(r2.extend("d", &s1).len(), 2);
        // Wrong domain fails.
        assert!(!r2.verify("other", &chain.pki()));
        // Chain without the originator's signature fails.
        let forged = DsRelay {
            instance: PartyId::new(2),
            value: Value::new(3),
            chain: r2.chain.clone(),
        };
        assert!(!forged.verify("d", &chain.pki()));
    }

    #[test]
    fn re_verifying_a_chain_costs_no_mac() {
        // A relay is re-checked in full on every delivery; the shared MAC
        // cache answers each of its signatures the second time.
        let chain = Keychain::generate(4, 47);
        let relay = (1..4).fold(
            DsRelay::originate("d", &chain.signer(PartyId::new(0)), Value::new(3)),
            |r, i| r.extend("d", &chain.signer(PartyId::new(i))),
        );
        let pki = chain.pki();
        let check = |v: &Verifier| relay.verify("d", v);
        assert_eq!(verify_cost(&pki, check), (4, 0));
        assert_eq!(verify_cost(&pki, check), (0, 4));
    }

    #[test]
    fn instance_accept_rules() {
        let chain = Keychain::generate(5, 44);
        let s0 = chain.signer(PartyId::new(0));
        let f = 2;
        let mut inst = DsInstance::default();
        let r = DsRelay::originate("d", &s0, Value::new(1));
        // Round 2 demands ≥ 2 signatures: a 1-chain is rejected.
        assert!(!inst.accept(&r, 2, f));
        assert!(inst.extracted.is_empty());
        // Round 1 accepts and requests relay (1 ≤ f).
        assert!(inst.accept(&r, 1, f));
        // Duplicate value: no relay again.
        assert!(!inst.accept(&r, 1, f));
        // Second value accepted (cap 2), third ignored.
        let r2 = DsRelay::originate("d", &s0, Value::new(2));
        assert!(inst.accept(&r2, 1, f));
        let r3 = DsRelay::originate("d", &s0, Value::new(3));
        assert!(!inst.accept(&r3, 1, f));
        assert_eq!(inst.decide(), BOT_SENTINEL);
    }

    #[test]
    fn instance_decides_unique() {
        let chain = Keychain::generate(2, 45);
        let mut inst = DsInstance::default();
        let r = DsRelay::originate("d", &chain.signer(PartyId::new(0)), Value::new(9));
        inst.accept(&r, 1, 1);
        assert_eq!(inst.decide(), Value::new(9));
    }

    #[test]
    fn full_length_chain_not_relayed() {
        let chain = Keychain::generate(5, 46);
        let f = 1;
        let mut inst = DsInstance::default();
        let r = DsRelay::originate("d", &chain.signer(PartyId::new(0)), Value::new(1))
            .extend("d", &chain.signer(PartyId::new(1)));
        // len = 2 = f+1: accepted (round 2) but no relay needed.
        assert!(!inst.accept(&r, 2, f));
        assert_eq!(inst.decide(), Value::new(1));
    }

    use gcl_types::LocalTime;
}
