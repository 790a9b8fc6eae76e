//! The sim ↔ wall conformance gate (CI job `net-smoke`).
//!
//! Every registered scenario family runs on the deterministic simulator
//! AND on `gcl_net`'s wall engine, from the same wall-safe spec, and must
//! commit the same value on both. The wall column is the wire codec's
//! end-to-end gate: its messages really cross Unix-domain sockets as
//! bytes, so a family whose message type does not round-trip through
//! `gcl_types::wire` cannot pass. It also gates the worker-pool
//! scheduler: partial reads, timers in the dispatcher heap, and
//! n-parties-over-few-threads multiplexing must be invisible to the
//! protocols.
//!
//! The suite's hard wall ceiling is the regression gate for the wall
//! engine's early-termination protocol: each cell runs against a 2 s
//! deadline, so ~15 families only fit under the ceiling if honest
//! termination exits every run early (sleeping each run's full budget
//! would need 30 s).

use gcl_bench::conformance::conformance_cells;
use std::time::{Duration, Instant};

#[test]
fn every_family_commits_the_same_value_on_all_backends() {
    let started = Instant::now();
    let cells = conformance_cells(Duration::from_secs(2));
    assert!(
        cells.len() >= 15,
        "expected the full family catalog, got {}",
        cells.len()
    );
    for cell in &cells {
        assert!(
            cell.sim_value.is_some(),
            "{}: the honest good case must commit on the simulator",
            cell.family
        );
        assert!(cell.holds(), "backend divergence: {}", cell.describe());
    }
    let wall = started.elapsed();
    assert!(
        wall < Duration::from_secs(15),
        "conformance took {wall:?}; with early termination working, \
         ~15 good-case wall runs must finish far below the 15 s ceiling \
         (sleep-to-deadline would need 30 s on its own)"
    );
}
