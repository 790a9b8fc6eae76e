//! The paper's lower-bound constructions as runnable adversarial
//! executions.
//!
//! Each theorem's proof builds a handful of executions that are
//! indistinguishable to some honest party; run against a protocol that
//! *overclaims* latency (the [`crate::strawman`] module) they produce the
//! very agreement violation the proof derives, and run against the paper's
//! matching protocols they leave safety intact. Each module returns
//! [`gcl_sim::Outcome`]s so tests, examples and the bench harness can all
//! replay them.
//!
//! | Module | Paper | Breaks | Spares |
//! |---|---|---|---|
//! | [`theorem4`] | Thm 4 (1-round BRB impossible) | `OneRoundBrb` | `TwoRoundBrb` |
//! | [`theorem7`] | Thm 7 / Fig 4 (2-round psync needs `n ≥ 5f−1`) | `FabTwoRound` at `n = 5f−2` | `VbbFiveFMinusOne` at `n = 5f−1` |
//! | [`theorem9`] | Thm 9 (sync commit < Δ+δ unsafe at `f = n/3`) | `EarlyCommitBb` | `ThirdBb` |
//! | [`theorem10`] | Thm 10 / Fig 7+11 (Δ+1.5δ with unsync start) | — (tightness + safety) | `UnsyncBb` |
//! | [`theorem19`] | Thm 19 / Fig 12 (`(⌊n/(n−f)⌋−1)Δ` majority LB) | — (bound check) | `BbMajority` |
//!
//! # Simulator-only, by design
//!
//! Every schedule here scripts the adversary at exact local instants
//! (`gcl_sim::Scripted`) and, for theorems 7/9/10/19, pins per-link
//! delivery times through a `gcl_sim::ScheduleOracle` — execution 3 of a
//! proof *is* its delivery schedule. The wall engine (`gcl_net`'s
//! `AsyncBackend`) cannot honor "this vote arrives at exactly
//! `2δ` and that one at `Δ`" — scheduler jitter would silently turn the
//! proof's indistinguishability argument into a race, and a "replayed"
//! violation that only sometimes materializes is worse than none. The
//! schedules are therefore deliberately **not** registered as scenario
//! families: [`SIM_ONLY_SCHEDULES`] names them, and
//! `tests/lower_bound_gallery.rs` asserts that asking any execution
//! backend's registry path to run one is *cleanly rejected* as an unknown
//! family rather than silently diverging. The registered families the
//! schedules attack (`one_round_brb`, `fab2`, `early_commit_bb`, …) stay
//! wall-runnable — only the scripted adversaries are sim-bound.

pub mod theorem10;
pub mod theorem19;
pub mod theorem4;
pub mod theorem7;
pub mod theorem9;

/// The scripted lower-bound schedules, as stable keys. These are **not**
/// scenario-registry families and can never be: each one requires exact
/// delivery control that only the deterministic simulator provides (see
/// the [module docs](self)). The keys exist so tooling (and the gallery
/// test) can assert the rejection instead of discovering it by accident.
pub const SIM_ONLY_SCHEDULES: &[&str] = &[
    "thm4/split-one-round-brb",
    "thm7/split-fab-at-5f-2",
    "thm9/split-early-commit",
    "thm10/adversarial-unsync",
    "thm19/majority-bound",
];
