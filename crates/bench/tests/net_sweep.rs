//! Wall-clock sweep smoke (CI job `net-smoke`): `Sweep` drives a small
//! thread-budgeted grid over the wall engine.
//!
//! The per-family conformance cells run one wall run at a time; this
//! suite is the concurrency stress — several multiplexed runs in flight
//! at once, each with its own scheduler thread and worker pool, driven by
//! work-stealing sweep workers. Assertions are deliberately loose on time
//! (wall latency is machine noise) and strict on safety: no agreement or
//! validity violation, every good-case cell committed.

use gcl_bench::conformance::wall_spec;
use gcl_bench::registry;
use gcl_net::AsyncBackend;
use gcl_sim::{ScenarioSpec, Sweep};
use std::time::{Duration, Instant};

/// A 12-cell grid over fast families: 3 seeds each, wall-safe bounds.
fn grid() -> Vec<ScenarioSpec> {
    let reg = registry();
    let mut cells = Vec::new();
    for key in ["brb2", "bracha", "flood", "vbb5f1"] {
        for seed in 0..3u64 {
            cells.push(wall_spec(reg, key).with_seed(seed));
        }
    }
    cells
}

#[test]
fn sweep_over_async_backend_upholds_safety() {
    let started = Instant::now();
    let backend = AsyncBackend::new()
        .deadline(Duration::from_secs(2))
        .workers(2);
    // threads(2): two wall runs in flight, each with its own scheduler
    // thread and two workers — a real but bounded thread budget.
    let report = Sweep::new(registry())
        .backend(&backend)
        .cells(grid())
        .threads(2)
        .run();
    assert_eq!(report.cells.len(), 12);
    assert_eq!(report.cells_run(), 12, "wall specs all admissible");
    assert_eq!(report.safety_violations().count(), 0);
    assert_eq!(report.validity_violations().count(), 0);
    assert_eq!(report.commit_rate(), 1.0, "good-case cells all commit");
    assert!(report.total_messages() > 0);
    let wall = started.elapsed();
    assert!(
        wall < Duration::from_secs(25),
        "12 good-case wall cells took {wall:?}; early termination must \
         keep the grid far under the deadline budget"
    );
}
