//! Synchronous Byzantine broadcast (paper Section 5).
//!
//! The complete categorization under synchrony, with the δ/Δ separation
//! (actual vs conservative delay bound) and the synchronized- vs
//! unsynchronized-start distinction:
//!
//! | Resilience | Start | Tight bound | Protocol |
//! |---|---|---|---|
//! | `0 < f < n/3` | unsync | `2δ` | [`TwoDeltaBb`] (Fig 10) |
//! | `f = n/3` | unsync | `Δ + δ` | [`ThirdBb`] (Fig 5) |
//! | `n/3 < f < n/2` | sync | `Δ + δ` | [`SyncStartBb`] (Fig 6) |
//! | `n/3 < f < n/2` | unsync | `Δ + 1.5δ` | [`UnsyncBb`] (Fig 9) |
//!
//! All four commit fast on a good day and fall back to a Byzantine
//! agreement on `lock` values otherwise; [`LockstepBa`] is that primitive
//! (Dolev–Strong over every party's input + plurality, lock-step rounds of
//! `3Δ` to tolerate clock skew ≤ Δ). [`DolevStrongBb`] is also exposed
//! stand-alone as the classical `f + 1`-round worst-case-optimal baseline.

mod ba;
mod bb_2delta;
mod bb_n3;
mod bb_sync_start;
mod bb_unsync;
mod dolev_strong;

pub use ba::{BaMsg, LockstepBa, BOT};
pub use bb_2delta::{TwoDeltaBb, TwoDeltaMsg};
pub use bb_n3::{Fig5Vote, ThirdBb, ThirdMsg};
pub use bb_sync_start::{Fig6Vote, SyncStartBb, SyncStartMsg};
pub use bb_unsync::{UnsyncBb, UnsyncMsg};
pub use dolev_strong::{DolevStrongBb, DsMsg, DsRelay};

use gcl_crypto::Keychain;
use gcl_sim::{Admission, ScenarioRegistry, ScenarioSpec, SkewChoice, ValidityMode};
use gcl_types::{Duration, Value};

/// Registers this module's scenario families (`bb_2delta`, `bb_third`,
/// `bb_sync_start`, `bb_unsync`, `dolev_strong`).
pub(crate) fn register(reg: &mut ScenarioRegistry) {
    reg.register_fn(
        "bb_2delta",
        "2delta-BB (Fig 10) — 0 < f < n/3, unsynchronized start",
        Admission::UnderThird,
        ValidityMode::Broadcast,
        ScenarioSpec::synchronous("bb_2delta", 4, 1).with_seed(203),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                TwoDeltaBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    spec.big_delta,
                    spec.broadcaster,
                    spec.input_for(p),
                )
            })
        },
    );
    reg.register_fn(
        "bb_third",
        "(Delta+delta)-n/3-BB (Fig 5) — f = n/3, unsynchronized start",
        Admission::ExactThird,
        ValidityMode::Broadcast,
        ScenarioSpec::synchronous("bb_third", 3, 1).with_seed(204),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                ThirdBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    spec.big_delta,
                    spec.broadcaster,
                    spec.input_for(p),
                )
            })
        },
    );
    reg.register_fn(
        "bb_sync_start",
        "(Delta+delta)-BB (Fig 6) — n/3 < f < n/2, synchronized start",
        Admission::ThirdToHalf,
        ValidityMode::Broadcast,
        ScenarioSpec::synchronous("bb_sync_start", 5, 2).with_seed(205),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                SyncStartBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    spec.big_delta,
                    spec.broadcaster,
                    spec.input_for(p),
                )
            })
        },
    );
    reg.register_fn(
        "bb_unsync",
        "(Delta+1.5delta)-BB (Fig 9) — n/3 < f < n/2, unsynchronized start",
        Admission::ThirdToHalf,
        ValidityMode::Broadcast,
        ScenarioSpec::synchronous("bb_unsync", 5, 2)
            .with_seed(206)
            .with_skew(SkewChoice::OddHalfDelta),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                UnsyncBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    spec.big_delta,
                    spec.params.m,
                    spec.broadcaster,
                    spec.input_for(p),
                )
            })
        },
    );
    reg.register_fn(
        "dolev_strong",
        "Dolev-Strong BB — f + 1 lock-step rounds, worst-case optimal",
        Admission::Any,
        ValidityMode::Broadcast,
        ScenarioSpec::lockstep("dolev_strong", 16, 5, Duration::from_micros(100))
            .with_seed(220)
            .with_input(Value::new(7)),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                DolevStrongBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    spec.big_delta,
                    spec.broadcaster,
                    spec.input_for(p),
                )
            })
        },
    );
}
