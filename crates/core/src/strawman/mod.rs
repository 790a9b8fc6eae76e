//! Deliberately latency-overclaiming protocols.
//!
//! Every lower bound in the paper says "no protocol can commit faster than
//! X". The way to *run* such a theorem is to build the protocol that tries
//! — commit one round/δ earlier than the bound allows — and let the paper's
//! adversarial execution break it. These strawmen are that: correct-looking
//! protocols whose only flaw is claiming a latency below the tight bound.
//!
//! * `OneRoundBrb` — commits on the proposal alone (Theorem 4/6: 1 round
//!   is impossible; the equivocating broadcaster splits it).
//! * `FabTwoRound` — FaB-style 2-round commit with the *plain-majority*
//!   view change, run at `n = 5f − 2` (Theorem 7: below `5f − 1`, 2 rounds
//!   are impossible; the Figure 4 style schedule splits it across a view
//!   change).
//! * `EarlyCommitBb` — synchronous BB that skips the Δ equivocation
//!   window at `f = n/3` (Theorem 9: commits before `Δ + δ` are unsafe).
//!
//! The matching executions live in [`crate::lower_bounds`].

mod early_commit_bb;
mod fab2;
mod one_round_brb;

pub(crate) use early_commit_bb::EarlyCommitBb;
pub use early_commit_bb::EarlyMsg;
pub(crate) use fab2::FabTwoRound;
pub use fab2::{FabMsg, FabProposal, FabViewChange};
pub(crate) use one_round_brb::OneRoundBrb;
pub use one_round_brb::OneRoundMsg;

use gcl_crypto::Keychain;
use gcl_sim::{Admission, ScenarioRegistry, ScenarioSpec, ValidityMode};

/// Registers this module's scenario families (`one_round_brb`, `fab2`,
/// `early_commit_bb`).
///
/// The strawmen overclaim *latency*, not crash tolerance: under the
/// crash/silent adversary mixes a [`ScenarioSpec`] can express they stay
/// safe — only the scripted lower-bound executions (equivocation,
/// double votes) in [`crate::lower_bounds`] split them.
pub(crate) fn register(reg: &mut ScenarioRegistry) {
    reg.register_fn(
        "one_round_brb",
        "1-round BRB strawman — below the Theorem 4 bound",
        Admission::Brb,
        ValidityMode::Broadcast,
        ScenarioSpec::asynchronous("one_round_brb", 4, 1),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            spec.run_protocol_on(backend, |p| {
                OneRoundBrb::new(cfg, p, spec.broadcaster, spec.input_for(p))
            })
        },
    );
    reg.register_fn(
        "fab2",
        "FaB-style 2-round commit with plain-majority view change",
        Admission::Brb,
        ValidityMode::Broadcast,
        ScenarioSpec::psync("fab2", 8, 2).with_seed(212),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                FabTwoRound::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    spec.big_delta,
                    spec.input_for(p),
                )
            })
        },
    );
    reg.register_fn(
        "early_commit_bb",
        "early-commit BB strawman — skips the Delta equivocation window",
        Admission::ExactThird,
        ValidityMode::Broadcast,
        ScenarioSpec::synchronous("early_commit_bb", 3, 1).with_seed(213),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                EarlyCommitBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    spec.broadcaster,
                    spec.input_for(p),
                )
            })
        },
    );
}
