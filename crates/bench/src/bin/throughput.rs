//! Simulator-throughput measurement: emits the `BENCH_sim.json` trajectory
//! point and (optionally) enforces the CI regression gate.
//!
//! ```text
//! throughput [--quick] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--quick` — one repetition per scenario (CI smoke mode; default is
//!   best-of-three).
//! * `--out PATH` — where to write the JSON document (default
//!   `BENCH_sim.json` in the current directory).
//! * `--check BASELINE` — after measuring, exit nonzero unless `BASELINE`
//!   passes the schema check and the fresh document holds every gate of
//!   [`gcl_bench::throughput::SCHEMA`] against it.

use gcl_bench::throughput::{render_json, throughput_rows, SCHEMA};
use gcl_bench::trajectory::{emit, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse("throughput", "BENCH_sim.json", true);
    let mode = if args.quick { "quick" } else { "full" };
    eprintln!("measuring simulator throughput ({mode} mode)...");
    let rows = throughput_rows(args.quick);
    emit(&SCHEMA, &render_json(&rows, mode), &args)
}
