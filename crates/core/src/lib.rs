//! The broadcast protocols of *"Good-case Latency of Byzantine Broadcast:
//! A Complete Categorization"* (Abraham, Nayak, Ren, Xiang — PODC 2021),
//! plus the baselines and strawmen needed to reproduce every bound.
//!
//! # Layout
//!
//! | Module | Contents | Paper reference |
//! |---|---|---|
//! | [`asynchrony`] | 2-round BRB; Bracha's BRB baseline | Fig 1, Thm 4–5 |
//! | [`psync`] | (5f−1)-psync-VBB (2-round); PBFT-style 3-round baseline | Fig 2–3, Thm 6–7 |
//! | [`sync`] | 2δ-BB, (Δ+δ)-n/3-BB, (Δ+δ)-BB, (Δ+1.5δ)-BB, Dolev–Strong, lock-step BA | Fig 5–6, 9–10, Thm 8–11, 16–18 |
//! | [`dishonest`] | trust-graph TrustCast BB for n/2 ≤ f < n | §5.5, Thm 19 |
//! | [`strawman`] | deliberately latency-overclaiming protocols the lower bounds break | Thm 4, 7, 9 |
//! | [`lower_bounds`] | the paper's adversarial executions as runnable schedules | Fig 4, 7/11, 12 |
//!
//! All protocols implement [`gcl_sim::Protocol`] and run unmodified on the
//! discrete-event simulator (`gcl-sim`) and on `gcl-net`'s `AsyncBackend`
//! readiness loop. They share one vote layer: every quorum is counted in a
//! [`Tally`], and most value-plus-signature messages are a [`SignedValue`]
//! (or, with a view, a [`psync::PhaseVote`]) under a protocol-named domain.

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub mod asynchrony;
pub mod dishonest;
pub mod lower_bounds;
pub mod psync;
mod signed;
pub mod strawman;
pub mod sync;
mod tally;

pub use signed::SignedValue;
pub use tally::Tally;

use gcl_sim::ScenarioRegistry;

/// A fresh registry holding every family of this crate — one `register`
/// call per module, one registration per family. Adding a protocol variant
/// is one `register_fn` in its module; every registry consumer (tables,
/// sweeps, property suites, examples) picks it up automatically.
///
/// # Examples
///
/// ```
/// let reg = gcl_core::registry();
/// let spec = reg.spec("brb2").unwrap();
/// let outcome = reg.run(&spec).unwrap();
/// assert!(outcome.agreement_holds());
/// assert_eq!(outcome.good_case_rounds(), Some(2));
/// ```
pub fn registry() -> ScenarioRegistry {
    let mut reg = ScenarioRegistry::new();
    asynchrony::register(&mut reg);
    psync::register(&mut reg);
    sync::register(&mut reg);
    dishonest::register(&mut reg);
    strawman::register(&mut reg);
    reg
}

#[cfg(test)]
mod registry_tests {
    #[test]
    fn all_families_registered_and_canonical_specs_run() {
        let reg = super::registry();
        let expected = [
            "bb_2delta",
            "bb_majority",
            "bb_sync_start",
            "bb_third",
            "bb_unsync",
            "bracha",
            "brb2",
            "dolev_strong",
            "early_commit_bb",
            "fab2",
            "one_round_brb",
            "pbft3",
            "vbb5f1",
        ];
        assert_eq!(reg.keys().collect::<Vec<_>>(), expected);
        for key in reg.keys() {
            let family = reg.family(key).unwrap();
            let spec = family.canonical();
            assert_eq!(spec.family, key, "canonical spec key matches");
            assert!(
                family.admission().admits(spec.n, spec.f),
                "{key}: canonical shape in band"
            );
            let o = reg.run(&spec).unwrap_or_else(|e| panic!("{key}: {e}"));
            assert!(o.agreement_holds(), "{key}: agreement on canonical run");
            assert!(
                family.upholds_validity(&spec, &o),
                "{key}: validity on canonical run"
            );
            assert!(
                o.all_honest_committed(),
                "{key}: canonical good case commits"
            );
        }
    }
}

/// Drives one party by hand in unit tests.
#[cfg(test)]
pub(crate) mod by_hand {
    use gcl_sim::Context;
    use gcl_types::{Config, Duration, LocalTime, PartyId, Value};

    /// A party's context at a settable local time that records what the
    /// party does: its multicasts, its other sends (unicasts and
    /// forwarded bundles) and its commits.
    pub(crate) struct Rec<M> {
        pub(crate) me: PartyId,
        pub(crate) cfg: Config,
        pub(crate) now: LocalTime,
        pub(crate) multicast: Vec<M>,
        pub(crate) sent: Vec<M>,
        pub(crate) committed: Vec<Value>,
    }

    impl<M> Rec<M> {
        /// Party `me`'s context at local time zero.
        pub(crate) fn new(cfg: Config, me: u32) -> Self {
            Rec {
                me: PartyId::new(me),
                cfg,
                now: LocalTime::ZERO,
                multicast: Vec::new(),
                sent: Vec::new(),
                committed: Vec::new(),
            }
        }
    }

    impl<M> Context<M> for Rec<M> {
        fn me(&self) -> PartyId {
            self.me
        }
        fn config(&self) -> Config {
            self.cfg
        }
        fn now(&self) -> LocalTime {
            self.now
        }
        fn send(&mut self, _to: PartyId, msg: M) {
            self.sent.push(msg);
        }
        fn multicast(&mut self, msg: M) {
            self.multicast.push(msg);
        }
        fn multicast_except(&mut self, msg: M, _skip: PartyId) {
            self.sent.push(msg);
        }
        fn set_timer(&mut self, _delay: Duration, _tag: u64) {}
        fn commit(&mut self, value: Value) {
            self.committed.push(value);
        }
        fn terminate(&mut self) {}
    }
}
