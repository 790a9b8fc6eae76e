//! The Byzantine agreement primitive used by every synchronous BB protocol.
//!
//! The paper (Section 2, "Byzantine broadcast variants") requires a BA with
//! *validity* — if all honest parties input `v`, all commit `v` — that
//! tolerates clock skew σ, implemented by "any synchronous lock-step BA
//! [...] setting each round duration [long enough] to enforce the
//! abstraction of lock-step rounds".
//!
//! We instantiate it as `n` parallel Dolev–Strong broadcasts (one per
//! party's input) followed by a plurality vote over the broadcast vector:
//!
//! * **Agreement** for any `f < n`: DS makes every honest party extract the
//!   same per-instance output vector.
//! * **Validity** for `f < n/2`: if all honest input `v`, the ≥ `n − f`
//!   honest instances output `v` and at most `f < n − f` Byzantine
//!   instances can output anything else, so `v` wins the plurality.
//!
//! [`LockstepBa`] is a *component*, not a [`gcl_sim::Protocol`]: the parent
//! protocol embeds [`BaMsg`] in its own message enum, forwards timer tags in
//! the reserved range (≥ [`LockstepBa::TAG_BASE`]), and invokes the BA at
//! the local time its figure prescribes.

use super::dolev_strong::{DsInstance, DsRelay, BOT_SENTINEL};
use gcl_crypto::{Signer, Verifier};
use gcl_sim::Context;
use gcl_types::{Config, Duration, LocalTime, Value};
use std::collections::BTreeMap;

/// Re-export: the `⊥` value committed when agreement yields no real value.
pub(crate) use super::dolev_strong::BOT_SENTINEL as BOT;

const BA_DOMAIN: &str = "ba-ds";

/// Wire message of the BA primitive (a Dolev–Strong relay for one of the
/// `n` parallel instances).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BaMsg(pub DsRelay);

gcl_types::wire_newtype!(BaMsg);

/// The lock-step Byzantine agreement component.
///
/// Lifecycle: construct with the protocol; call [`LockstepBa::invoke`] at
/// the parent's BA time with the party's input; route incoming [`BaMsg`]
/// and reserved-range timers; [`LockstepBa::on_timer`] returns
/// `Some(decision)` at the final round boundary.
#[derive(Debug)]
pub(crate) struct LockstepBa {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    big_delta: Duration,
    start: Option<LocalTime>,
    current_round: usize,
    instances: Vec<DsInstance>,
    outbox: Vec<DsRelay>,
    decided: Option<Value>,
}

impl LockstepBa {
    /// Timer tags at or above this value belong to the BA component;
    /// parents must route them to [`LockstepBa::on_timer`].
    pub(crate) const TAG_BASE: u64 = 1_000_000;

    /// Round duration `3Δ`: absorbs skew ≤ Δ + delay ≤ Δ with margin.
    pub(crate) fn round_duration(big_delta: Duration) -> Duration {
        big_delta * 3
    }

    /// Creates an idle BA component.
    pub(crate) fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        big_delta: Duration,
    ) -> Self {
        let n = config.n();
        LockstepBa {
            config,
            signer,
            verifier: verifier.into(),
            big_delta,
            start: None,
            current_round: 1,
            instances: vec![DsInstance::default(); n],
            outbox: Vec::new(),
            decided: None,
        }
    }

    /// Starts the agreement with this party's `input`, scheduling the
    /// lock-step boundaries. Call exactly once.
    ///
    /// # Panics
    ///
    /// Panics on double invocation.
    pub(crate) fn invoke<M>(
        &mut self,
        input: Value,
        ctx: &mut dyn Context<M>,
        wrap: impl Fn(BaMsg) -> M,
    ) where
        M: Clone,
    {
        assert!(self.start.is_none(), "BA invoked twice");
        self.start = Some(ctx.now());
        let r = Self::round_duration(self.big_delta);
        for k in 1..=(self.config.f() + 1) {
            ctx.set_timer(r * k as u64, Self::TAG_BASE + k as u64);
        }
        let relay = DsRelay::originate(BA_DOMAIN, &self.signer, input);
        self.instances[self.signer.id().as_usize()].accept(&relay, 1, self.config.f());
        let msg = wrap(BaMsg(relay));
        ctx.multicast_except(msg, self.signer.id());
    }

    fn round_of(&self, now: LocalTime) -> usize {
        let start = self.start.expect("round_of only after invoke");
        let elapsed = now.since(start);
        (elapsed.as_micros() / Self::round_duration(self.big_delta).as_micros()) as usize + 1
    }

    /// Handles an incoming relay. No-op before invocation (early messages
    /// from fast peers are tolerated by buffering them into round 1 — the
    /// 3Δ round absorbs the skew).
    pub(crate) fn on_message(&mut self, msg: BaMsg) {
        let relay = msg.0;
        if self.decided.is_some() {
            return;
        }
        // Before our own invocation we are logically in round 1.
        let round = if self.start.is_some() {
            self.round_of_now()
        } else {
            1
        };
        // Out-of-range instance ids were previously rejected by chain
        // verification (no valid signer exists); the bounds check keeps
        // that rejection while letting the sig-independent accept
        // predicate run first — most re-deliveries skip crypto entirely.
        let Some(inst) = self.instances.get(relay.instance.as_usize()) else {
            return;
        };
        if !inst.considers(&relay, round, self.config.f())
            || !relay.verify(BA_DOMAIN, &self.verifier)
        {
            return;
        }
        let inst = &mut self.instances[relay.instance.as_usize()];
        if inst.accept(&relay, round, self.config.f()) {
            self.outbox.push(relay.extend(BA_DOMAIN, &self.signer));
        }
    }

    /// Current-round bookkeeping for [`on_message`](Self::on_message):
    /// parents pass the context time via [`note_now`](Self::note_now)
    /// before dispatching, or rely on timer-driven rounds.
    fn round_of_now(&self) -> usize {
        self.current_round
    }

    /// Records the local time just before dispatching a message to
    /// [`on_message`](Self::on_message).
    pub(crate) fn note_now(&mut self, now: LocalTime) {
        if self.start.is_some() {
            self.current_round = self.round_of(now);
        }
    }

    /// Handles a reserved-range timer; returns the decision at the final
    /// boundary.
    pub(crate) fn on_timer<M>(
        &mut self,
        tag: u64,
        ctx: &mut dyn Context<M>,
        wrap: impl Fn(BaMsg) -> M,
    ) -> Option<Value>
    where
        M: Clone,
    {
        if tag < Self::TAG_BASE || self.decided.is_some() {
            return None;
        }
        let k = (tag - Self::TAG_BASE) as usize;
        self.current_round = k + 1;
        for relay in std::mem::take(&mut self.outbox) {
            ctx.multicast_except(wrap(BaMsg(relay)), self.signer.id());
        }
        if k == self.config.f() + 1 {
            let decision = self.tally();
            self.decided = Some(decision);
            return Some(decision);
        }
        None
    }

    /// Plurality over the per-instance DS outputs (⊥ outputs excluded);
    /// ties break to the smaller value; all-⊥ yields [`BOT`].
    fn tally(&self) -> Value {
        let mut counts: BTreeMap<Value, usize> = BTreeMap::new();
        for inst in &self.instances {
            let v = inst.decide();
            if v != BOT_SENTINEL {
                *counts.entry(v).or_insert(0) += 1;
            }
        }
        counts
            .into_iter()
            .max_by(|(va, ca), (vb, cb)| ca.cmp(cb).then(vb.cmp(va)))
            .map_or(BOT_SENTINEL, |(v, _)| v)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_crypto::Keychain;
    use gcl_sim::{FixedDelay, Outcome, Protocol, Silent, Simulation, TimingModel};
    use gcl_types::{PartyId, SkewSchedule};

    const DELTA: Duration = Duration::from_micros(100);

    /// Minimal protocol hosting a bare BA for testing.
    struct BaHost {
        ba: LockstepBa,
        input: Value,
    }

    impl Protocol for BaHost {
        type Msg = BaMsg;
        fn start(&mut self, ctx: &mut dyn Context<BaMsg>) {
            let input = self.input;
            self.ba.invoke(input, ctx, |m| m);
        }
        fn on_message(&mut self, _from: PartyId, msg: BaMsg, ctx: &mut dyn Context<BaMsg>) {
            self.ba.note_now(ctx.now());
            self.ba.on_message(msg);
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<BaMsg>) {
            if let Some(v) = self.ba.on_timer(tag, ctx, |m| m) {
                ctx.commit(v);
                ctx.terminate();
            }
        }
    }

    fn run_ba(n: usize, f: usize, inputs: impl Fn(PartyId) -> Value, skewed: bool) -> Outcome {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 50);
        let mut b = Simulation::build(cfg)
            .timing(TimingModel::lockstep(DELTA))
            .oracle(FixedDelay::new(DELTA));
        if skewed {
            b = b.skew(SkewSchedule::with_late_parties(
                n,
                &[(PartyId::new(1), DELTA.halved()), (PartyId::new(2), DELTA)],
            ));
        }
        b.spawn_honest(|p| BaHost {
            ba: LockstepBa::new(cfg, chain.signer(p), chain.pki(), DELTA),
            input: inputs(p),
        })
        .run()
    }

    #[test]
    fn validity_unanimous_input() {
        for (n, f) in [(4, 1), (5, 2), (7, 3)] {
            let o = run_ba(n, f, |_| Value::new(6), false);
            assert!(o.validity_holds(Value::new(6)), "n={n} f={f}");
        }
    }

    #[test]
    fn agreement_with_split_inputs() {
        // Majority inputs 1, minority 0 — everyone agrees on one of them.
        let o = run_ba(5, 2, |p| Value::new(u64::from(p.index() >= 2)), false);
        o.assert_agreement();
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(Value::ONE), "3 of 5 said 1");
    }

    #[test]
    fn tolerates_skew() {
        let o = run_ba(4, 1, |_| Value::new(9), true);
        assert!(o.validity_holds(Value::new(9)));
    }

    #[test]
    fn byzantine_silent_party_cannot_block() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 51);
        let o = Simulation::build(cfg)
            .timing(TimingModel::lockstep(DELTA))
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(3), Silent::new())
            .spawn_honest(|p| BaHost {
                ba: LockstepBa::new(cfg, chain.signer(p), chain.pki(), DELTA),
                input: Value::new(4),
            })
            .run();
        assert!(o.validity_holds(Value::new(4)));
    }

    #[test]
    fn all_bot_inputs_agree_on_bot() {
        let o = run_ba(4, 1, |_| BOT, false);
        o.assert_agreement();
        assert_eq!(o.committed_value(), Some(BOT));
    }

    #[test]
    #[should_panic(expected = "invoked twice")]
    fn double_invoke_panics() {
        struct DoubleHost {
            ba: LockstepBa,
        }
        impl Protocol for DoubleHost {
            type Msg = BaMsg;
            fn start(&mut self, ctx: &mut dyn Context<BaMsg>) {
                self.ba.invoke(Value::ZERO, ctx, |m| m);
                self.ba.invoke(Value::ZERO, ctx, |m| m);
            }
            fn on_message(&mut self, _: PartyId, _: BaMsg, _: &mut dyn Context<BaMsg>) {}
        }
        let cfg = Config::new(2, 1).unwrap();
        let chain = Keychain::generate(2, 52);
        let _ = Simulation::build(cfg)
            .spawn_honest(|p| DoubleHost {
                ba: LockstepBa::new(cfg, chain.signer(p), chain.pki(), DELTA),
            })
            .run();
    }
}
