//! Theorem 9: under synchrony with `f ≥ n/3`, no BRB commits before
//! `Δ + δ`.
//!
//! Execution 3 of the proof at `n = 3, f = 1`: the Byzantine broadcaster
//! proposes 0 to one honest party and 1 to the other and double-votes both
//! ways. A protocol that commits on `n − f` votes *without* waiting the Δ
//! equivocation window splits within `2δ < Δ + δ`; Figure 5's protocol
//! ([`crate::sync::ThirdBb`]) survives because the conflicting forwarded
//! proposals land inside every honest party's window.
//!
//! **Sim-only** (`thm9/split-early-commit` in [`super::SIM_ONLY_SCHEDULES`]): the
//! schedule pins scripted actions and per-link delivery instants that
//! only the deterministic simulator can honor; see the
//! [module docs](super) for why wall-clock backends reject it.

use crate::strawman::{EarlyCommitBb, EarlyMsg};
use crate::sync::{Fig5Vote, ThirdBb, ThirdMsg};
use crate::SignedValue;
use gcl_crypto::Keychain;
use gcl_sim::{FixedDelay, Outcome, Scripted, ScriptedAction, Simulation, TimingModel};
use gcl_types::{Config, Duration, LocalTime, PartyId, Value};

const DELTA: Duration = Duration::from_micros(100);
const BIG_DELTA: Duration = Duration::from_micros(1_000);

fn model() -> TimingModel {
    TimingModel::Synchrony {
        delta: DELTA,
        big_delta: BIG_DELTA,
    }
}

/// The Byzantine broadcaster's script: at time zero it proposes and
/// votes 0 toward P1 and 1 toward P2.
fn equivocate<M>(propose: impl Fn(Value) -> M, vote: impl Fn(Value) -> M) -> Scripted<M> {
    let send = |to, msg| ScriptedAction {
        at: LocalTime::ZERO,
        to: PartyId::new(to),
        msg,
    };
    Scripted::new(vec![
        send(1, propose(Value::ZERO)),
        send(2, propose(Value::ONE)),
        send(1, vote(Value::ZERO)),
        send(2, vote(Value::ONE)),
    ])
}

/// Runs the equivocate-and-double-vote schedule against the early-commit
/// strawman (`n = 3, f = 1`). Agreement is violated below `Δ + δ`.
pub fn split_early_commit() -> Outcome {
    let cfg = Config::new(3, 1).expect("valid config");
    let chain = Keychain::generate(3, 122);
    let s = chain.signer(PartyId::new(0));
    let vote = |v| EarlyMsg::Vote(SignedValue::new(EarlyCommitBb::VOTE, &s, v));
    Simulation::build(cfg)
        .timing(model())
        .oracle(FixedDelay::new(DELTA))
        .byzantine(PartyId::new(0), equivocate(EarlyMsg::Propose, vote))
        .spawn_honest(|p| {
            EarlyCommitBb::new(cfg, chain.signer(p), chain.pki(), PartyId::new(0), None)
        })
        .run()
}

/// The same adversary against Figure 5's protocol: the Δ window catches
/// the equivocation and agreement survives.
pub fn same_adversary_against_fig5() -> Outcome {
    let cfg = Config::new(3, 1).expect("valid config");
    let chain = Keychain::generate(3, 123);
    let s = chain.signer(PartyId::new(0));
    let prop = |v| SignedValue::new(ThirdBb::PROPOSE, &s, v);
    let vote = |v| ThirdMsg::Vote(Fig5Vote::new(&s, prop(v)));
    Simulation::build(cfg)
        .timing(model())
        .oracle(FixedDelay::new(DELTA))
        .byzantine(
            PartyId::new(0),
            equivocate(|v| ThirdMsg::Propose(prop(v)), vote),
        )
        .spawn_honest(|p| {
            ThirdBb::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                BIG_DELTA,
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
    fn early_commit_splits_below_delta_plus_delta() {
        let o = split_early_commit();
        assert!(!o.agreement_holds(), "Theorem 9 violation materializes");
        // Both commits happened strictly before Δ + δ.
        for c in o.honest_commits() {
            assert!(
                c.local.as_micros() < (BIG_DELTA + DELTA).as_micros(),
                "the overclaimed commit is below the bound"
            );
        }
    }

    #[test]
    fn fig5_survives_same_adversary() {
        let o = same_adversary_against_fig5();
        o.assert_agreement();
        assert!(o.all_honest_committed(), "BA fallback terminates");
    }
}
