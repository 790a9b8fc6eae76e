//! Measurement harness: every row of the paper's Table 1 and every
//! figure-derived series, regenerated from the implementations — all of
//! it driven by the scenario registry ([`registry`]): protocol families
//! register once in `gcl_core` (plus the bench-owned `flood`/`smr`
//! here), and tables, figures, throughput rows, sweeps and property
//! suites build [`gcl_sim::ScenarioSpec`] values against that registry.
//!
//! Binaries (`cargo run -p gcl_bench --release --bin <name>`):
//!
//! * `fig8` — the Figure 8 latency/communication tradeoff sweep over the
//!   early-vote grid resolution `m`.
//! * `throughput` — simulator events/sec on the fixed [`throughput`]
//!   scenarios; writes the repo-root `BENCH_sim.json` trajectory point and
//!   backs the CI `bench-smoke` regression gate (`--quick --check`).
//! * `net_latency`, `smr_load` — the wall trajectories (`BENCH_net.json`,
//!   `BENCH_smr.json`), same flags, same gate.
//! * `sweep` — the multi-threaded scenario grid: every registered family ×
//!   shapes × adversary mixes × seeds, audited for safety/validity and
//!   emitted as a `gcl-bench/sweep/v1` report (CI `sweep-smoke` gate).
//!
//! The four report bins share one command line ([`trajectory::Args`]).
//! Each trajectory file is described once, by the `SCHEMA` table next to
//! the code that measures it; [`trajectory`] renders, checks and diffs
//! every one of them from that table, in the one layout [`json`] defines.
//! Table 1 and the lower-bound executions are printed by the
//! `latency_categorization` and `adversary_gallery` examples.
//!
//! [`conformance`] runs every registered family on both execution
//! targets — the simulator and `gcl_net`'s wall engine — and compares
//! committed values (the CI `net-smoke` gate).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod conformance;
pub mod json;
pub mod netlat;
pub mod scenarios;
pub mod smrload;
pub mod sweep;
pub mod throughput;
pub mod trajectory;

use gcl_sim::ScenarioRegistry;
use std::sync::OnceLock;

/// The workspace-wide scenario registry: every `gcl_core` protocol family
/// plus the bench-owned `flood` and `smr` families. Built once per
/// process; all bench consumers share it.
pub fn registry() -> &'static ScenarioRegistry {
    static REG: OnceLock<ScenarioRegistry> = OnceLock::new();
    REG.get_or_init(|| {
        let mut reg = gcl_core::registry();
        throughput::register(&mut reg);
        reg
    })
}

pub use conformance::{conformance_cells, wall_backend, wall_spec, ConformanceCell};
pub use netlat::{net_latency_rows, NetLatencyRow};
pub use scenarios::{
    canonical, fig8_rows, majority_rows, run, table1_rows, Fig8Row, MajorityRow, Table1Row,
};
pub use sweep::{default_grid, grid, render_report, validate_report, GridOptions, ReportSummary};
pub use throughput::{throughput_rows, ThroughputRow};
