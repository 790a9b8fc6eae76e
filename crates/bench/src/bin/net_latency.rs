//! Wall-clock latency trajectory: emits the repo-root `BENCH_net.json`
//! and (optionally) enforces the CI structure gate.
//!
//! ```text
//! net_latency [--out PATH] [--check BASELINE] [--deadline-ms N]
//!             [--scale-deadline-ms N]
//! ```
//!
//! * `--out PATH` — where to write the JSON document (default
//!   `BENCH_net.json` in the current directory).
//! * `--check BASELINE` — after measuring, parse `BASELINE` and exit
//!   nonzero if it is malformed, misses a family row or a scale row, or
//!   any row records a safety/liveness failure.
//!   Deliberately no latency comparison: wall numbers are machine noise
//!   across CI runners.
//! * `--deadline-ms N` — per-run wall deadline for the catalog rows
//!   (default 2000; honest termination exits early, so the good case
//!   never waits it out).
//! * `--scale-deadline-ms N` — per-run deadline for the large-n scale
//!   rows (default 120000: the n = 1024 rows move ~2 M real frames, so
//!   the ceiling is generous — a healthy run exits in seconds).

use gcl_bench::netlat::{check_doc, net_latency_rows, render_json, scale_rows};
use std::process::ExitCode;
use std::time::Duration;

fn main() -> ExitCode {
    let mut out = String::from("BENCH_net.json");
    let mut check: Option<String> = None;
    let mut deadline = Duration::from_millis(2_000);
    let mut scale_deadline = Duration::from_millis(120_000);

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
            "--deadline-ms" => match args.next().and_then(|x| x.parse().ok()) {
                Some(ms) => deadline = Duration::from_millis(ms),
                None => return usage("--deadline-ms needs a number"),
            },
            "--scale-deadline-ms" => match args.next().and_then(|x| x.parse().ok()) {
                Some(ms) => scale_deadline = Duration::from_millis(ms),
                None => return usage("--scale-deadline-ms needs a number"),
            },
            other => return usage(&format!("unknown argument {other:?}")),
        }
    }

    eprintln!("measuring wall-clock good-case latencies (deadline {deadline:?} per run)...");
    let mut rows = net_latency_rows(deadline);
    eprintln!("measuring scale rows (deadline {scale_deadline:?} per run)...");
    rows.extend(scale_rows(scale_deadline));
    for r in &rows {
        eprintln!(
            "  {:<16} {:<7} n={:<4} f={:<2} messages={:<8} latency={}{}",
            r.family,
            r.backend,
            r.n,
            r.f,
            r.messages,
            r.latency_us
                .map_or_else(|| "-".into(), |us| format!("{us}us")),
            r.sched.map_or_else(String::new, |s| format!(
                " workers={} wakeups={} peak_out={}B",
                s.workers, s.wakeups, s.peak_outbound_bytes
            )),
        );
    }

    let doc = render_json(&rows);
    if let Err(e) = std::fs::write(&out, &doc) {
        eprintln!("error: cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    eprintln!("wrote {out}");

    // The freshly measured document must pass its own structural check —
    // this is the liveness/safety gate for the wall engine.
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
    eprintln!(
        "usage: net_latency [--out PATH] [--check BASELINE] [--deadline-ms N] \
         [--scale-deadline-ms N]"
    );
    ExitCode::FAILURE
}
