//! Open-loop SMR serving trajectory: emits the repo-root `BENCH_smr.json`
//! and (optionally) enforces the CI structure gate.
//!
//! ```text
//! smr_load [--out PATH] [--check BASELINE] [--quick] [--deadline-ms N]
//! ```
//!
//! * `--out PATH` — where to write the JSON document (default
//!   `BENCH_smr.json` in the current directory).
//! * `--check BASELINE` — after measuring, parse `BASELINE` and exit
//!   nonzero if it is malformed, misses the three-configuration floor,
//!   the leader-failover row or the scale row, or any row records a
//!   safety/liveness or exactly-once failure. Deliberately no rate or
//!   latency comparison: wall numbers are machine noise across CI runners.
//! * `--quick` — CI smoke shape (fewer requests per configuration).
//! * `--deadline-ms N` — per-run wall deadline override (quiesce exits
//!   early, so a healthy run never waits it out).

use gcl_bench::smrload::{check_doc, render_json, smr_load_rows, LoadOptions};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut out = String::from("BENCH_smr.json");
    let mut check: Option<String> = None;
    let mut opts = LoadOptions::full();

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => match args.next() {
                Some(p) => out = p,
                None => return usage("--out needs a path"),
            },
            "--check" => match args.next() {
                Some(p) => check = Some(p),
                None => return usage("--check needs a path"),
            },
            "--quick" => {
                let deadline = opts.deadline;
                opts = LoadOptions::quick();
                // An explicit --deadline-ms before --quick still wins.
                if deadline != LoadOptions::full().deadline {
                    opts.deadline = deadline;
                }
            }
            "--deadline-ms" => match args.next().and_then(|x| x.parse().ok()) {
                Some(ms) => opts.deadline = Duration::from_millis(ms),
                None => return usage("--deadline-ms needs a number"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    eprintln!(
        "open-loop SMR load over the wall engine: {} requests per config, {:?} gap...",
        opts.requests, opts.gap
    );
    let rows = smr_load_rows(opts);
    for r in &rows {
        eprintln!(
            "  {:<7} n={:<3} batch={:<3} pipeline={:<2} crashes={} acked={:<4}/{:<4} \
             committed={:<4} rate={:>8.1}/s p50={} p99={} retries={} audit={}",
            r.backend,
            r.n,
            r.batch,
            r.pipeline,
            r.crashes,
            r.acked,
            r.requests,
            r.committed,
            r.commits_per_sec,
            r.p50_us.map_or_else(|| "-".into(), |us| format!("{us}us")),
            r.p99_us.map_or_else(|| "-".into(), |us| format!("{us}us")),
            r.retries,
            if r.exactly_once && r.acked_applied {
                "ok"
            } else {
                "FAIL"
            },
        );
    }

    let doc = render_json(&rows);
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");

    // The freshly measured document must pass its own structural check —
    // this is the liveness/safety gate for the serving pipeline.
    if let Err(e) = check_doc(&doc) {
        eprintln!("error: fresh measurement fails the structure check: {e}");
        return ExitCode::FAILURE;
    }

    if let Some(baseline_path) = check {
        let text = match std::fs::read_to_string(&baseline_path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("error: cannot read baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check_doc(&text) {
            Ok(rows) => eprintln!("baseline {baseline_path} well-formed ({rows} rows)"),
            Err(e) => {
                eprintln!("error: baseline {baseline_path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    eprintln!("error: {err}");
    eprintln!("usage: smr_load [--out PATH] [--check BASELINE] [--quick] [--deadline-ms N]");
    ExitCode::FAILURE
}
