//! Partially synchronous Byzantine broadcast (paper Section 4).
//!
//! The paper's headline result: in the authenticated setting, 2-round
//! good-case partially synchronous Byzantine broadcast is possible **iff
//! `n ≥ 5f − 1`** — beating FaB's long-standing `5f + 1` and showing PBFT's
//! 3 rounds are not optimal at `n = 4, f = 1`.
//!
//! * [`Certificate`], [`TimeoutMsg`] — the Figure 2 certificate check.
//! * [`VbbFiveFMinusOne`] — the Figure 3 `(5f−1)`-psync-VBB protocol with
//!   2-round good case and full view change.
//! * [`PbftPsyncVbb`] — the PBFT-style 3-round baseline, `n ≥ 3f + 1`
//!   (tight for `3f + 1 ≤ n ≤ 5f − 2` by Theorem 7).

mod cert;
mod pbft3;
mod vbb5f1;

pub use crate::signed::PhaseVote;
pub use cert::{Certificate, TimeoutMsg, VoteMsg};
pub use pbft3::{PbftMsg, PbftPsyncVbb, PreparedCert, ViewChangeMsg};
pub use vbb5f1::{Proof, StatusMsg, VbbFiveFMinusOne, VbbMsg};

use gcl_crypto::Keychain;
use gcl_sim::{Admission, ScenarioRegistry, ScenarioSpec, ValidityMode};
use gcl_types::accept_all;

/// Registers this module's scenario families (`vbb5f1`, `pbft3`).
pub(crate) fn register(reg: &mut ScenarioRegistry) {
    reg.register_fn(
        "vbb5f1",
        "(5f-1)-psync-VBB (Fig 3) — 2-round good case",
        Admission::TwoRoundPsync,
        ValidityMode::Broadcast,
        ScenarioSpec::psync("vbb5f1", 4, 1).with_seed(201),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                VbbFiveFMinusOne::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    accept_all(),
                    spec.big_delta,
                    spec.input_for(p),
                )
            })
        },
    );
    reg.register_fn(
        "pbft3",
        "PBFT-style 3-round psync-VBB baseline",
        Admission::Brb,
        ValidityMode::Broadcast,
        ScenarioSpec::psync("pbft3", 4, 1).with_seed(202),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                PbftPsyncVbb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    accept_all(),
                    spec.big_delta,
                    spec.input_for(p),
                )
            })
        },
    );
}
