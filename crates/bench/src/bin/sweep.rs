//! The multi-threaded scenario-grid sweep: every registered protocol
//! family × admitted shapes × adversary mixes × delays × seeds, audited
//! for safety and validity.
//!
//! ```text
//! sweep [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--out PATH` — where to write the `gcl-bench/sweep/v1` report
//!   (default `BENCH_sweep.json` in the current directory, the committed
//!   baseline when run from the repo root).
//! * `--check BASELINE` — also diff the report against an earlier one:
//!   the same grid cells on both sides, every outcome column equal.
//!
//! The 648-cell grid runs on at least 4 worker threads (so the smoke job
//! exercises real concurrency) from base seed 1; per-cell seeds derive
//! from it, and the report does not depend on the thread count.
//! Exit is nonzero on any agreement (safety) or validity violation, on a
//! malformed report (the binary reads its own output back through the
//! strict validator before declaring success), and under `--check` on
//! any cell that moved — exactly what the CI `sweep-smoke` job gates on.

use gcl_bench::sweep::{render_report, run_grid, validate_report, SCHEMA};
use gcl_bench::trajectory::{emit, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse("sweep", "BENCH_sweep.json", false);
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get().max(4));
    eprintln!("sweeping the scenario grid ({threads} threads)...");
    let report = run_grid(threads);
    eprintln!(
        "  {} cells ({} run, {} skipped), commit rate {:.1}%, p50 latency {:?}us, \
         {:.0} events/sec aggregate, {} safety / {} validity violations",
        report.cells.len(),
        report.cells_run(),
        report.cells_skipped(),
        report.commit_rate() * 100.0,
        report.latency_percentile(0.5),
        report.events_per_sec(),
        report.safety_violations().count(),
        report.validity_violations().count(),
    );
    let doc = render_report(&report);
    let mut failed = false;
    for cell in report.safety_violations() {
        eprintln!("SAFETY VIOLATION: {}", cell.label);
        failed = true;
    }
    for cell in report.validity_violations() {
        eprintln!("VALIDITY VIOLATION: {}", cell.label);
        failed = true;
    }
    if let Err(e) = validate_report(&doc) {
        eprintln!("error: emitted report is malformed: {e}");
        failed = true;
    }
    let written = emit(&SCHEMA, &doc, &args);
    if failed {
        return ExitCode::FAILURE;
    }
    written
}
