//! Wall-clock latency trajectory: emits the repo-root `BENCH_net.json`
//! and (optionally) enforces the CI gate.
//!
//! ```text
//! net_latency [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--out PATH` — where to write the JSON document (default
//!   `BENCH_net.json` in the current directory).
//! * `--check BASELINE` — after measuring, exit nonzero unless `BASELINE`
//!   passes the schema check (full catalog, every scale row, every row
//!   committed with agreement) and the fresh document joins it row for
//!   row with no latency more than 25× the baseline's. Anything tighter
//!   would gate machine noise across CI runners.

use gcl_bench::netlat::{net_latency_rows, render_json, SCHEMA};
use gcl_bench::trajectory::{emit, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse("net_latency", "BENCH_net.json", false);
    eprintln!("measuring wall-clock good-case latencies, then the scale rows...");
    emit(&SCHEMA, &render_json(&net_latency_rows()), &args)
}
