//! Dishonest-majority Byzantine broadcast (paper Section 5.5).
//!
//! For `n/2 ≤ f < n` the paper proves a `(⌊n/(n−f)⌋ − 1)Δ` lower bound
//! (Theorem 19) and cites Wan et al. \[34\] for an `O(n/(n−f))Δ` upper bound
//! (with the Section C.5 fast path giving ≈ `2n/(n−f)·Δ`). [`BbMajority`]
//! implements that fast-path protocol on top of `TrustGraph` /
//! `TrustCast`.

mod bb_majority;
mod trustcast;

pub use bb_majority::{BbMajority, MajProposal, MajVote, MajorityMsg};

use gcl_crypto::Keychain;
use gcl_sim::{Admission, AdversaryMix, ScenarioRegistry, ScenarioSpec, ValidityMode};
use gcl_types::Duration;

/// Registers this module's scenario family (`bb_majority`).
pub(crate) fn register(reg: &mut ScenarioRegistry) {
    reg.register_fn(
        "bb_majority",
        "TrustCast fast-path BB (Wan et al.) — n/2 <= f < n",
        Admission::Majority,
        ValidityMode::Broadcast,
        ScenarioSpec::lockstep("bb_majority", 4, 2, Duration::from_micros(1_000))
            .with_seed(207)
            .with_adversary(AdversaryMix::TrailingSilent { count: u32::MAX }),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = Keychain::generate(spec.n, spec.seed);
            spec.run_protocol_on(backend, |p| {
                BbMajority::new(
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
