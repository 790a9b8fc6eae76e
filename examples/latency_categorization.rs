//! The complete categorization, live: every row of the paper's Table 1
//! measured against its tight bound — every measurement a registry
//! [`gcl::sim::ScenarioSpec`], no per-protocol wiring.
//!
//! ```sh
//! cargo run --release --example latency_categorization
//! ```
//!
//! Adding a protocol variant to this output takes **one** registration in
//! its `gcl_core` module (`register_fn(key, description, band, validity,
//! canonical_spec, runner)`); the catalog printed below, the tables, the
//! sweep grid and the property suites all pick it up from the registry.
//! Exits nonzero if any row misses its bound.

use gcl::core::registry;
use gcl_bench::table1_rows;
use std::process::ExitCode;

fn main() -> ExitCode {
    let reg = registry();

    println!("Registered protocol families ({}):", reg.len());
    for key in reg.keys() {
        let fam = reg.family(key).expect("listed");
        println!(
            "  {key:<16} [{:<14}] {}",
            fam.admission().describe(),
            fam.describe()
        );
    }

    println!("\nTable 1 reproduction (delta = 100us actual, Delta = 1000us conservative)\n");
    println!(
        "| {:<38} | {:<20} | {:<34} | n,f   | paper bound          | measured   | rounds | ok |",
        "problem", "resilience", "protocol"
    );
    println!(
        "|{}|{}|{}|-------|----------------------|------------|--------|----|",
        "-".repeat(40),
        "-".repeat(22),
        "-".repeat(36)
    );
    let mut all_ok = true;
    for row in table1_rows() {
        all_ok &= row.matches();
        println!(
            "| {:<38} | {:<20} | {:<34} | {:>2},{:<2} | {:<20} | {:>7}us | {:<6} | {}  |",
            row.problem,
            row.resilience,
            row.protocol,
            row.n,
            row.f,
            row.paper,
            row.measured_us,
            row.rounds.map_or("-".to_string(), |r| r.to_string()),
            if row.matches() { "y" } else { "N" },
        );
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("a measured latency exceeds its bound (rows marked N)");
        ExitCode::FAILURE
    }
}
