//! Theorem 7 / Figure 4: 2-round good-case psync-BB needs `n ≥ 5f − 1`.
//!
//! At `n = 5f − 2` the adversary lets one honest party commit `v` on the
//! fast path with the help of Byzantine votes, then feeds the view change a
//! quorum whose *plain majority* points to `v'` — the tie FaB's rule cannot
//! break below `5f − 1`. Concretely (`f = 2`, `n = 8`, quorum `6`):
//!
//! * `s = P0` (broadcaster) and `x = P7` are Byzantine.
//! * `s` proposes 0 to `P1..P4` and 1 to `P5, P6`.
//! * View-1 votes are delivered only to `P4`; with `s` and `x` voting 0
//!   toward it, `P4` assembles 6 votes and commits 0.
//! * Everyone else times out. `s` and `x` claim in their view-change
//!   messages to have voted 1, so the view-2 leader `P1` sees majority 1,
//!   re-proposes 1, and the remaining honest parties commit 1.
//!
//! The `(5f−1)`-psync-VBB protocol survives the analogous attack at its own
//! boundary `n = 5f − 1` because its certificate rule counts `2f − 1` /
//! `2f` leader-aware entries instead of a plain majority (Figure 2).
//!
//! **Sim-only** (`thm7/split-fab-at-5f-2` in [`super::SIM_ONLY_SCHEDULES`]): the
//! schedule pins scripted actions and per-link delivery instants that
//! only the deterministic simulator can honor; see the
//! [module docs](super) for why wall-clock backends reject it.

use crate::signed::PhaseVote;
use crate::strawman::{FabMsg, FabProposal, FabTwoRound, FabViewChange};
use gcl_crypto::Keychain;
use gcl_sim::{
    DelayRule, LinkDelay, Outcome, PartySet, ScheduleOracle, Scripted, ScriptedAction, Simulation,
    TimingModel,
};
use gcl_types::{Config, Duration, LocalTime, PartyId, Value, View};

/// Runs the Figure 4 style schedule against the FaB strawman at
/// `n = 5f − 2 = 8`, `f = 2`. Agreement is violated in the returned
/// outcome.
pub fn split_fab_at_5f_minus_2() -> Outcome {
    let f = 2;
    let n = 5 * f - 2; // 8
    let cfg = Config::new(n, f).expect("valid config");
    let chain = Keychain::generate(n, 121);
    let big_delta = Duration::from_micros(100);
    let fast = Duration::from_micros(10);
    let s = chain.signer(PartyId::new(0));
    let x = chain.signer(PartyId::new(7));

    let propose = |v| FabMsg::Propose(FabProposal::new(&s, v, View::FIRST, Vec::new()));
    let vote = |by, v, w| FabMsg::Vote(PhaseVote::new(FabTwoRound::VOTE, by, v, w));
    let lie = |by| FabMsg::ViewChange(FabViewChange::new(by, View::FIRST, Some(Value::ONE)));
    let at = |micros, to, msg| ScriptedAction {
        at: LocalTime::from_micros(micros),
        to: PartyId::new(to),
        msg,
    };

    // Byzantine broadcaster s = P0: proposes 0 to P1..P4 and 1 to P5, P6,
    // votes 0 toward P4 only (completing its quorum), then lies "voted 1"
    // in the view change, and helps complete the view-2 quorum.
    let mut s_actions: Vec<_> = (1..=4)
        .map(|p| at(0, p, propose(Value::ZERO)))
        .chain((5..=6).map(|p| at(0, p, propose(Value::ONE))))
        .collect();
    s_actions.push(at(20, 4, vote(&s, Value::ZERO, View::FIRST)));
    for p in 1..=6 {
        s_actions.push(at(450, p, lie(&s)));
        s_actions.push(at(700, p, vote(&s, Value::ONE, View::new(2))));
    }

    // Byzantine x = P7: same vote toward P4, same view-change lie.
    let mut x_actions = vec![at(20, 4, vote(&x, Value::ZERO, View::FIRST))];
    x_actions.extend((1..=6).map(|p| at(450, p, lie(&x))));

    // Pre-GST scheduling: view-1 votes reach only P4, and P2's "voted 0"
    // view-change message crawls toward the view-2 leader so the leader's
    // quorum is exactly the proof's {P1:0, P3:0, P5:1, P6:1, s:1, x:1} —
    // majority 1, as in the Figure 4 construction.
    let oracle: ScheduleOracle<FabMsg> = ScheduleOracle::new(fast)
        .rule(
            DelayRule::link(
                PartySet::Any,
                PartySet::In((1..=3).chain(5..=6).map(PartyId::new).collect()),
                LinkDelay::Never,
            )
            .when(|m: &FabMsg| matches!(m, FabMsg::Vote(v) if v.view == View::FIRST)),
        )
        .rule(
            DelayRule::link(
                PartySet::One(PartyId::new(2)),
                PartySet::One(PartyId::new(1)),
                LinkDelay::Finite(Duration::from_micros(2_000_000)),
            )
            .when(|m: &FabMsg| matches!(m, FabMsg::ViewChange(_))),
        );

    Simulation::build(cfg)
        .timing(TimingModel::Asynchrony)
        .oracle(oracle)
        .byzantine(PartyId::new(0), Scripted::new(s_actions))
        .byzantine(PartyId::new(7), Scripted::new(x_actions))
        .spawn_honest(|p| FabTwoRound::new(cfg, chain.signer(p), chain.pki(), big_delta, None))
        .run()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fab_strawman_splits_at_5f_minus_2() {
        let o = split_fab_at_5f_minus_2();
        assert!(
            !o.agreement_holds(),
            "Theorem 7: plain-majority view change is unsafe at n = 5f − 2"
        );
        // The lone fast-path committer holds 0, the post-view-change
        // majority holds 1.
        assert_eq!(
            o.commit_of(PartyId::new(4)).map(|c| c.value),
            Some(Value::ZERO)
        );
        assert_eq!(
            o.commit_of(PartyId::new(1)).map(|c| c.value),
            Some(Value::ONE)
        );
    }
}
