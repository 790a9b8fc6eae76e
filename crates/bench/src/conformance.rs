//! Sim ↔ wall conformance: every registered scenario family, one spec,
//! two execution targets, the same committed value.
//!
//! The paper's claims are about *real* good-case latency, so the workspace
//! keeps its execution targets honest against each other:
//!
//! * the deterministic **simulator** (exact δ/Δ, the source of every
//!   measured number), and
//! * `gcl_net`'s **wall engine** (`AsyncBackend` — wall clocks, every
//!   message encoded to bytes, carried across a Unix-domain socket and
//!   decoded on the far side, every party a state machine behind a
//!   nonblocking socket, all n multiplexed over a fixed readiness-loop
//!   worker pool).
//!
//! This module builds, for each registered family, a **wall-safe** variant
//! of its canonical spec — millisecond-scale bounds so protocol timeouts
//! (≥ 4Δ) dwarf scheduler noise, reshaped to `(4, 1)` where the family's
//! band admits it — and runs it on both. On an honest-broadcaster good
//! case the executions must agree: same committed value, agreement and
//! full honest commitment on the wall. The wall column is the codec's
//! end-to-end gate — a family whose message type does not survive
//! `gcl_types::wire` serialization cannot pass it — and the readiness
//! loop's: partial reads, timers in the dispatcher heap, and worker-pool
//! scheduling must be invisible to the protocols.
//!
//! The suite doubles as the regression gate for the wall engine's early
//! termination: ~15 families against multi-second deadlines complete in a
//! few seconds *only* because honest termination exits each run early
//! (`crates/bench/tests/net_conformance.rs` enforces a hard wall ceiling,
//! and CI's `net-smoke` job runs it in release).

use crate::registry;
use gcl_net::AsyncBackend;
use gcl_sim::{Backend, Outcome, ScenarioRegistry, ScenarioSpec};
use gcl_types::{Duration as SimDuration, Value};
use std::time::{Duration, Instant};

/// Wall-clock δ for conformance runs: 2 ms injected link latency —
/// comfortably above channel/scheduler overhead, far below any timeout.
pub(crate) const WALL_DELTA: SimDuration = SimDuration::from_millis(2);

/// Wall-clock Δ floor. Every family's Δ is scaled 20× from canonical and
/// raised to at least this, so view-change and round timers (≥ 4Δ on the
/// tightest family, i.e. ≥ 80 ms here) cannot fire spuriously even when a
/// noisy machine stalls a worker thread for tens of milliseconds. Timers
/// never fire on the good-case path, so the floor costs no wall time.
pub(crate) const WALL_BIG_DELTA_FLOOR: SimDuration = SimDuration::from_millis(20);

/// The wall-safe conformance spec of one registered family: the family's
/// canonical spec (its seed, skew, adversary mix and input are kept, so
/// e.g. `bb_majority` still runs its trailing-silent population), reshaped
/// to `(4, 1)` when the resilience band admits it, with millisecond-scale
/// bounds and a trimmed SMR workload.
///
/// # Panics
///
/// Panics if `key` is not registered.
pub fn wall_spec(reg: &ScenarioRegistry, key: &str) -> ScenarioSpec {
    let family = reg
        .family(key)
        .unwrap_or_else(|| panic!("family {key:?} not registered"));
    let mut spec = family.canonical();
    if family.admission().admits(4, 1) {
        spec = spec.with_shape(4, 1);
    }
    let big = SimDuration::from_micros(
        (spec.big_delta.as_micros() * 20).max(WALL_BIG_DELTA_FLOOR.as_micros()),
    );
    spec = spec.with_bounds(WALL_DELTA, big);
    if key == "smr" {
        // 12 commands keep the multi-slot pipeline honest without turning
        // the cell into the slowest run of the suite; batch 4 exercises
        // multi-command batches without collapsing the log to one slot.
        spec = spec.with_workload(12, 4).with_batch(4);
    }
    spec
}

/// One family's sim-vs-wall comparison.
#[derive(Debug)]
pub struct ConformanceCell {
    /// Registered family key.
    pub family: &'static str,
    /// The simulator's committed value — the oracle the wall run must hit.
    pub sim_value: Option<Value>,
    /// The wall backend's stable name (`"async"`).
    pub(crate) backend: &'static str,
    /// The wall run's outcome.
    pub(crate) wall: Outcome,
    /// How long the wall run took.
    pub(crate) elapsed: Duration,
}

impl ConformanceCell {
    /// The conformance criterion: the wall run upholds agreement, commits
    /// everywhere honest, and lands on exactly the simulator's value.
    pub fn holds(&self) -> bool {
        let o = &self.wall;
        o.agreement_holds() && o.all_honest_committed() && o.committed_value() == self.sim_value
    }

    /// One-line human rendering (used in assertion messages and the
    /// example).
    pub fn describe(&self) -> String {
        let o = &self.wall;
        format!(
            "{} (n={}, f={}): sim={:?} | {}={:?} agreement={} all_committed={} wall={:?}",
            self.family,
            o.config().n(),
            o.config().f(),
            self.sim_value,
            self.backend,
            o.committed_value(),
            o.agreement_holds(),
            o.all_honest_committed(),
            self.elapsed
        )
    }
}

/// The wall engine the conformance suite compares against the simulator,
/// with the given per-run deadline.
pub(crate) fn wall_backend(deadline: Duration) -> AsyncBackend {
    AsyncBackend::new().deadline(deadline)
}

/// Runs every registered family on the simulator and on the wall engine
/// (each wall run bounded by `deadline`) and reports the comparisons in
/// registry key order.
pub fn conformance_cells(deadline: Duration) -> Vec<ConformanceCell> {
    let reg = registry();
    let backend = wall_backend(deadline);
    reg.keys()
        .map(|key| {
            let spec = wall_spec(reg, key);
            let sim = reg
                .run(&spec)
                .unwrap_or_else(|e| panic!("{key}: sim run rejected: {e}"));
            let started = Instant::now();
            let wall = reg
                .run_on(&spec, &backend)
                .unwrap_or_else(|e| panic!("{key}: {} run rejected: {e}", backend.name()));
            ConformanceCell {
                family: key,
                sim_value: sim.committed_value(),
                backend: backend.name(),
                wall,
                elapsed: started.elapsed(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn wall_specs_are_admissible_and_wall_safe() {
        let reg = registry();
        for key in reg.keys() {
            let spec = wall_spec(reg, key);
            assert!(reg.validate(&spec).is_ok(), "{key}: wall spec in band");
            assert_eq!(spec.delta, WALL_DELTA, "{key}");
            assert!(spec.big_delta >= WALL_BIG_DELTA_FLOOR, "{key}");
            if reg.family(key).unwrap().admission().admits(4, 1) {
                assert_eq!((spec.n, spec.f), (4, 1), "{key}: reshaped to (4, 1)");
            }
        }
    }

    #[test]
    fn wall_specs_keep_canonical_identity() {
        let reg = registry();
        let canonical = reg.spec("bb_majority").unwrap();
        let spec = wall_spec(reg, "bb_majority");
        assert_eq!(spec.adversary, canonical.adversary, "adversary mix kept");
        assert_eq!(spec.seed, canonical.seed, "keychain seed kept");
        assert_eq!(spec.input, canonical.input, "input kept");
    }
}
