//! Asynchronous Byzantine reliable broadcast (paper Section 3).
//!
//! The tight good-case latency for asynchronous BRB is **2 rounds** with
//! `n ≥ 3f + 1` (Theorems 4–5):
//!
//! * [`TwoRoundBrb`] — the paper's Figure 1 protocol, committing in 2
//!   asynchronous rounds when the broadcaster is honest.
//! * [`BrachaBrb`] — Bracha's classical unauthenticated reliable broadcast,
//!   the 3-round baseline the paper compares against (its good case is one
//!   round slower; the paper's conclusion notes the open 2-vs-3 gap in the
//!   *unauthenticated* setting which Bracha upper-bounds).

mod bracha;
mod brb2;

pub use bracha::{BrachaBrb, BrachaMsg};
pub use brb2::{Brb2Msg, EquivocatingBroadcaster, TwoRoundBrb};

use gcl_crypto::Keychain;
use gcl_sim::{Admission, ScenarioRegistry, ScenarioSpec, ValidityMode};

/// Registers this module's scenario families (`brb2`, `bracha`).
pub(crate) fn register(reg: &mut ScenarioRegistry) {
    reg.register_fn(
        "brb2",
        "2-round BRB (Fig 1) — tight asynchronous good case",
        Admission::Brb,
        ValidityMode::Broadcast,
        ScenarioSpec::asynchronous("brb2", 4, 1).with_seed(200),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                TwoRoundBrb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    spec.broadcaster,
                    spec.input_for(p),
                )
            })
        },
    );
    reg.register_fn(
        "bracha",
        "Bracha'87 BRB — 3-round unauthenticated baseline",
        Admission::Brb,
        ValidityMode::Broadcast,
        ScenarioSpec::asynchronous("bracha", 4, 1),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            spec.run_protocol_on(backend, |p| {
                BrachaBrb::new(cfg, p, spec.broadcaster, spec.input_for(p))
            })
        },
    );
}
