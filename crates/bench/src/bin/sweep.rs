//! The multi-threaded scenario-grid sweep: every registered protocol
//! family × admitted shapes × adversary mixes × seeds, audited for
//! safety and validity.
//!
//! ```text
//! sweep [--quick] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--quick` — the CI smoke grid (2 shapes/family, 1 seed) instead of
//!   the full grid (4 shapes/family, jittered delays, 2 seeds).
//! * `--out PATH` — where to write the `gcl-bench/sweep/v1` report
//!   (default `BENCH_sweep.json` in the current directory).
//! * `--check BASELINE` — also diff the report against an earlier one:
//!   the same grid cells on both sides.
//!
//! The grid runs on at least 4 worker threads (so the smoke job exercises
//! real concurrency) from base seed 1; per-cell seeds derive from it.
//! Exit is nonzero on any agreement (safety) or validity violation, and
//! on a malformed report (the binary reads its own output back through
//! the strict validator before declaring success) — exactly what the CI
//! `sweep-smoke` job gates on.

use gcl_bench::sweep::{render_report, run_default, validate_report, SCHEMA};
use gcl_bench::trajectory::{emit, Args};
use std::process::ExitCode;

/// Base seed of every sweep; per-cell seeds derive from it.
const SEED: u64 = 1;

fn main() -> ExitCode {
    let args = Args::parse("sweep", "BENCH_sweep.json", true);
    let mode = if args.quick { "quick" } else { "full" };
    let threads = std::thread::available_parallelism().map_or(4, |n| n.get().max(4));
    eprintln!("sweeping the scenario grid ({mode} mode, {threads} threads, base seed {SEED})...");
    let report = run_default(args.quick, threads, SEED);
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
    let doc = render_report(&report, mode, SEED);
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
