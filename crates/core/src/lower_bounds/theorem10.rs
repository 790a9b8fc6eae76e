//! Theorem 10 / Figures 7 & 11: with unsynchronized start and `f > n/3`,
//! good-case latency below `Δ + 1.5δ` is impossible — and Figure 9's
//! protocol meets the bound exactly.
//!
//! The proof's executions E1–E4 revolve around two ingredients we replay
//! here: clock skew `σ = 0.5δ` (the provably unavoidable skew) and
//! asymmetric delays `Δ` vs `δ` on the links toward the would-be-fast
//! committers `g` and `h`. [`tightness_execution`] is E1: an honest
//! broadcaster, groups starting 0.5δ late, everyone commits by `Δ + 1.5δ`
//! (+σ). [`adversarial_execution`] is the E2/E3 shape: an equivocating
//! broadcaster with the proof's delay pattern — the real protocol must
//! *not* split (it won't: it waits exactly long enough, which is the whole
//! point of the bound being tight).
//!
//! **Sim-only** (`thm10/adversarial-unsync` in [`super::SIM_ONLY_SCHEDULES`]): the
//! schedule pins scripted actions and per-link delivery instants that
//! only the deterministic simulator can honor; see the
//! [module docs](super) for why wall-clock backends reject it.

use crate::sync::{UnsyncBb, UnsyncMsg};
use crate::SignedValue;
use gcl_crypto::Keychain;
use gcl_sim::{
    DelayRule, FixedDelay, LinkDelay, Outcome, PartySet, ScheduleOracle, Scripted, ScriptedAction,
    Simulation, TimingModel,
};
use gcl_types::{Config, Duration, LocalTime, PartyId, SkewSchedule, Value};

const DELTA: Duration = Duration::from_micros(100); // δ
const BIG_DELTA: Duration = Duration::from_micros(1_000); // Δ
const M: u64 = 10;

fn model() -> TimingModel {
    TimingModel::Synchrony {
        delta: DELTA,
        big_delta: BIG_DELTA,
    }
}

/// E1: honest broadcaster, skew `σ = 0.5δ` on some parties, all delays δ.
/// Returns the outcome; the good-case latency is ≤ `Δ + 1.5δ + σ` measured
/// from the broadcaster's start.
pub fn tightness_execution(n: usize, f: usize) -> Outcome {
    let cfg = Config::new(n, f).expect("valid config");
    let chain = Keychain::generate(n, 124);
    let late: Vec<(PartyId, Duration)> = (1..n as u32)
        .filter(|i| i % 2 == 0)
        .map(|i| (PartyId::new(i), DELTA.halved()))
        .collect();
    Simulation::build(cfg)
        .timing(model())
        .oracle(FixedDelay::new(DELTA))
        .skew(SkewSchedule::with_late_parties(n, &late))
        .spawn_honest(|p| {
            UnsyncBb::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                BIG_DELTA,
                M,
                PartyId::new(0),
                (p == PartyId::new(0)).then_some(Value::new(7)),
            )
        })
        .run()
}

/// E2/E3 shape at `n = 5, f = 2`: Byzantine broadcaster (P0) sends 0 to
/// `{P1 (g), P2 (A)}` and 1 to `{P3 (C)}`, stays silent toward `P4 (h)`;
/// `C` starts `0.5δ` late; `C → g` traffic crawls at Δ. The real protocol
/// must keep agreement.
pub fn adversarial_execution() -> Outcome {
    let cfg = Config::new(5, 2).expect("valid config");
    let chain = Keychain::generate(5, 125);
    let s = chain.signer(PartyId::new(0));
    let actions = [(1, Value::ZERO), (2, Value::ZERO), (3, Value::ONE)].map(|(to, v)| {
        let prop = SignedValue::new(UnsyncBb::PROPOSE, &s, v);
        ScriptedAction {
            at: LocalTime::ZERO,
            to: PartyId::new(to),
            msg: UnsyncMsg::Propose(prop),
        }
    });
    let oracle: ScheduleOracle<UnsyncMsg> = ScheduleOracle::new(DELTA).rule(DelayRule::link(
        PartySet::One(PartyId::new(3)),
        PartySet::One(PartyId::new(1)),
        LinkDelay::Finite(BIG_DELTA),
    ));
    Simulation::build(cfg)
        .timing(model())
        .oracle(oracle)
        .skew(SkewSchedule::with_late_parties(
            5,
            &[(PartyId::new(3), DELTA.halved())],
        ))
        .byzantine(PartyId::new(0), Scripted::new(actions.into()))
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
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tightness_within_bound() {
        let o = tightness_execution(5, 2);
        assert!(o.validity_holds(Value::new(7)));
        let bound = BIG_DELTA + DELTA + DELTA.halved() + DELTA.halved(); // Δ + 1.5δ + σ
        assert!(
            o.good_case_latency().unwrap() <= bound,
            "measured {} > bound {bound}",
            o.good_case_latency().unwrap()
        );
    }

    #[test]
    fn tightness_not_faster_than_bound() {
        // No honest party commits before Δ + 1.5δ measured on its own
        // clock — the matching half of "tight".
        let o = tightness_execution(5, 2);
        let floor = BIG_DELTA + DELTA; // conservative: Δ + δ < Δ + 1.5δ
        for c in o.honest_commits() {
            assert!(c.local.as_micros() >= floor.as_micros());
        }
    }

    #[test]
    fn adversarial_execution_keeps_agreement() {
        let o = adversarial_execution();
        o.assert_agreement();
        assert!(o.all_honest_committed(), "BA fallback terminates everyone");
    }
}
