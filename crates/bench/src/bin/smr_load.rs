//! Open-loop SMR serving trajectory: emits the repo-root `BENCH_smr.json`
//! and (optionally) enforces the CI gate.
//!
//! ```text
//! smr_load [--quick] [--out PATH] [--check BASELINE]
//! ```
//!
//! * `--quick` — CI smoke shape (fewer requests per configuration).
//! * `--out PATH` — where to write the JSON document (default
//!   `BENCH_smr.json` in the current directory).
//! * `--check BASELINE` — after measuring, exit nonzero unless `BASELINE`
//!   passes the schema check (three configurations, a leader-failover
//!   row, a scale row, every row live, safe and exactly-once) and the
//!   fresh document joins it row for row with no commit rate or ack
//!   median more than 25× worse. Anything tighter would gate machine
//!   noise across CI runners.

use gcl_bench::smrload::{render_json, smr_load_rows, SCHEMA};
use gcl_bench::trajectory::{emit, Args};
use std::process::ExitCode;

fn main() -> ExitCode {
    let args = Args::parse("smr_load", "BENCH_smr.json", true);
    eprintln!("open-loop SMR load over the wall engine...");
    let rows = smr_load_rows(args.quick);
    emit(&SCHEMA, &render_json(&rows), &args)
}
