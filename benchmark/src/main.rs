//! One benchmark for the whole stack. See `README.md` beside this file.
//!
//! ```text
//! benchmark [run] [--workload W] [--seed S] [--seconds X | --quick] [--trace 0|1] [--out DIR]
//! benchmark compare A_DIR B_DIR [--benchmark-json PATH]
//! ```
//!
//! `run` measures one workload for `--seconds` seconds (all six, one
//! child process each, when `--workload` is absent), prints every metric
//! by name with its unit, checks the program's outputs, and prints as its
//! last line one JSON object `{correct, attempted, failed, metrics}`.
//! With `--trace 0` (the default) the metrics are the end-to-end ones;
//! `--trace 1` is the separate traced run that yields the per-layer ones.

mod compare;
mod grid;
mod host;
mod json;
mod layers;
mod service;
mod stats;
mod trace;
mod workloads;

use json::Json;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Instant;
use trace::Tracer;
use workloads::{Measurement, Workload};

/// `schema` of every result file `--out` writes.
pub const RESULT_SCHEMA: &str = "gcl-benchmark/result/v1";

/// `(name, unit, better)` of the end-to-end metrics, reported by every
/// workload. `BENCHMARK.json` adds the regression bound of each.
pub const END_TO_END: [(&str, &str, &str); 4] = [
    ("setup_s", "s", "lower"),
    ("work_per_s", "1/s", "higher"),
    ("op_ms", "ms", "lower"),
    ("op_tail_ms", "ms", "lower"),
];

/// `--seed` when none is given.
const DEFAULT_SEED: u64 = 1;
/// `--seconds` when none is given (`run_seconds` of `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 15.0;
/// Set-ups timed per run; `setup_s` is their median.
const SETUP_REPS: usize = 5;
/// A run is marked invalid when the generator ran more than 1 ms late:
/// past that, the numbers describe the generator's schedule slips, not
/// the service. Lateness is read at the highest percentile that leaves
/// ten samples beyond it, the rule every reported tail follows: p99 from
/// 1 000 requests (`smr_failover_n9`'s 1 200), p95 for `smr_serve_n24`'s
/// 750, where p99 would be the eighth-worst request — and p75 for the 75
/// of a `--quick` run, whose p99 is its single worst. `client.late_p99_us`
/// is reported either way.
const MAX_LATE_US: f64 = 1_000.0;

#[derive(Debug, Clone, PartialEq)]
struct RunArgs {
    workload: Option<Workload>,
    seed: u64,
    /// Length of the measured window; `--quick` is a tenth of the default.
    seconds: f64,
    trace: bool,
    out: Option<PathBuf>,
}

impl RunArgs {
    /// A run shorter than the benchmark's own window is tagged quick.
    fn quick(&self) -> bool {
        self.seconds < DEFAULT_SECONDS
    }
}

fn parse_run_args(args: &[String]) -> Result<RunArgs, String> {
    let mut parsed = RunArgs {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        out: None,
    };
    let mut window_flags = 0;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}"))
        };
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                parsed.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload {name:?}"))?,
                );
            }
            "--seed" => {
                parsed.seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number".to_string())?;
            }
            "--seconds" => {
                window_flags += 1;
                parsed.seconds = value("a number")?
                    .parse()
                    .ok()
                    .filter(|s: &f64| s.is_finite() && *s > 0.0 && *s <= 600.0)
                    .ok_or("--seconds needs a number in (0, 600]")?;
            }
            "--quick" => {
                window_flags += 1;
                parsed.seconds = DEFAULT_SECONDS / 10.0;
            }
            "--trace" => {
                parsed.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace needs 0 or 1".into()),
                };
            }
            "--out" => parsed.out = Some(PathBuf::from(value("a directory")?)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if window_flags > 1 {
        return Err("--quick and --seconds both set the window: give one".into());
    }
    Ok(parsed)
}

fn metric(value: f64, unit: &str) -> Json {
    Json::obj([
        ("value", Json::Num(value)),
        ("unit", Json::Str(unit.into())),
    ])
}

/// The one line the driver reads: exactly these four keys.
fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &BTreeMap<String, Json>,
) -> String {
    Json::obj([
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("metrics", Json::Obj(metrics.clone())),
    ])
    .render()
}

/// What one run of one workload found, ready to print and to write.
struct RunReport {
    correct: bool,
    valid: bool,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
    metrics: BTreeMap<String, Json>,
    exact: BTreeMap<&'static str, u64>,
    /// Human-readable notes per metric (sample counts, units of work).
    notes: BTreeMap<String, String>,
    tracer: Option<Tracer>,
}

/// The untraced run: set-up several times, then the measured window.
fn run_end_to_end(w: Workload, seed: u64, seconds: f64, process_start: Instant) -> RunReport {
    // The first set-up is the one a user waits for: it also pays for what
    // the process did before it (argument parsing, registry start-up).
    let before = process_start.elapsed().as_secs_f64();
    let setups: Vec<f64> = (0..SETUP_REPS)
        .map(|k| w.setup(seed).as_secs_f64() + if k == 0 { before } else { 0.0 })
        .collect();
    let m = w.measure(seed, seconds, None);
    let mut report = report_of(w, &m, m.attempted, m.failed, m.violations.clone());
    let tails = if m.tail_ms.is_empty() {
        &m.op_ms
    } else {
        &m.tail_ms
    };
    let (op_ms, tail_ms) = if m.op_ms.is_empty() {
        report.correct = false;
        report.violations.push("no operation completed".into());
        (0.0, 0.0)
    } else {
        (
            stats::percentile_of(&m.op_ms, stats::LOWER_QUARTILE),
            stats::percentile_of(tails, stats::LOWER_QUARTILE),
        )
    };
    let values = [stats::median(&setups), m.work_per_s, op_ms, tail_ms];
    for ((name, unit, _), value) in END_TO_END.into_iter().zip(values) {
        report.metrics.insert(name.to_string(), metric(value, unit));
    }
    let units = if w.is_service() {
        format!("median of {} {}", m.unit_samples, w.unit())
    } else {
        format!("lower quartile over {} {}", m.op_ms.len(), w.unit())
    };
    report.notes.extend([
        (
            "setup_s".to_string(),
            format!("median of {SETUP_REPS} set-ups"),
        ),
        ("work_per_s".to_string(), w.work_unit().to_string()),
        ("op_ms".to_string(), units.clone()),
        (
            "op_tail_ms".to_string(),
            if w.is_service() {
                format!(
                    "p95 of {} {}: {} beyond (the sample supports p{})",
                    m.unit_samples,
                    w.unit(),
                    stats::beyond(m.unit_samples, 95),
                    stats::highest_percentile(m.unit_samples)
                )
            } else {
                units
            },
        ),
    ]);
    report
}

/// The traced run, then the layer microbenchmarks. The run-at-a-time
/// workloads record spans on every other repetition of one window; a
/// service run stamps its requests whether traced or not (its spans are
/// assembled afterwards), so it is run twice for half the window each.
/// Either way the traced half over the untraced half is the overhead.
fn run_traced(w: Workload, seed: u64, seconds: f64) -> RunReport {
    let _ = w.setup(seed);
    let mut tracer = Tracer::new();
    let untraced = w.is_service().then(|| w.measure(seed, seconds / 2.0, None));
    let window = if untraced.is_some() {
        seconds / 2.0
    } else {
        seconds
    };
    let traced = w.measure(seed, window, Some(&mut tracer));
    let recorded = |on: bool| -> Vec<f64> {
        let ops = traced.op_ms.iter().zip(&traced.op_traced);
        ops.filter(|(_, t)| **t == on).map(|(ms, _)| *ms).collect()
    };
    let (untraced_ms, traced_ms) = match &untraced {
        Some(u) => (u.op_ms.clone(), traced.op_ms.clone()),
        None => (recorded(false), recorded(true)),
    };
    let (mut attempted, mut failed, mut violations) = untraced.map_or((0, 0, Vec::new()), |u| {
        (u.attempted, u.failed, u.violations)
    });
    attempted += traced.attempted;
    failed += traced.failed;
    violations.extend(traced.violations.iter().cloned());
    let micro = layers::microbenchmarks(seed);
    let mut report = report_of(w, &traced, attempted, failed, violations);
    let mut values: BTreeMap<String, f64> = layers::PER_LAYER
        .iter()
        .map(|(name, _, _)| (name.to_string(), 0.0))
        .collect();
    values.extend(micro.iter().cloned());
    values.extend(traced.layer.iter().map(|(k, v)| (k.to_string(), *v)));
    values.extend(traced.exact.iter().map(|(k, v)| (k.to_string(), *v as f64)));
    let typical = |ms: &[f64]| stats::percentile_of(ms, stats::LOWER_QUARTILE);
    if !untraced_ms.is_empty() && !traced_ms.is_empty() {
        values.extend(layers::share_model(
            &traced,
            &micro,
            typical(&traced_ms) * 1e6,
        ));
        values.insert(
            "trace_overhead_frac".into(),
            typical(&traced_ms) / typical(&untraced_ms) - 1.0,
        );
    }
    // Spans the benchmark opens around its own work are harness time;
    // spans around calls into the program (and the stages of a request
    // inside it) are program time. The root span's own time is neither:
    // in an alternating run it holds the repetitions left untraced.
    let (mut harness, mut program) = (0.0, 0.0);
    for (name, secs) in tracer.self_times() {
        match name {
            "workload" => {}
            "rep" | "request" | "submit_fan" => harness += secs,
            _ => program += secs,
        }
        report
            .notes
            .insert(format!("trace.self_s[{name}]"), format!("{secs:.6} s"));
    }
    values.insert(
        "host.peak_rss_mb".into(),
        host::peak_rss_mb().unwrap_or(0.0),
    );
    values.insert("trace.self_s.harness".into(), harness);
    values.insert("trace.self_s.program".into(), program);
    for (name, unit, _) in layers::PER_LAYER {
        report
            .metrics
            .insert(name.to_string(), metric(values[*name], unit));
    }
    report.tracer = Some(tracer);
    report
}

fn report_of(
    w: Workload,
    m: &Measurement,
    attempted: u64,
    failed: u64,
    violations: Vec<String>,
) -> RunReport {
    let (percentile, late) = m.late_us.unwrap_or((99, 0.0));
    let mut notes = BTreeMap::new();
    if late > MAX_LATE_US {
        notes.insert(
            "INVALID".to_string(),
            format!(
                "{}: the generator ran {late:.0} us late at p{percentile} (allowed {MAX_LATE_US:.0})",
                w.name()
            ),
        );
    }
    RunReport {
        correct: violations.is_empty() && failed == 0 && attempted > 0,
        valid: late <= MAX_LATE_US,
        attempted,
        failed,
        violations,
        metrics: BTreeMap::new(),
        exact: m.exact.clone(),
        notes,
        tracer: None,
    }
}

/// Writes the result file (and `trace.json` for a traced run) into `dir`
/// under the first unused run index.
fn write_results(
    dir: &Path,
    args: &RunArgs,
    w: Workload,
    report: &RunReport,
) -> std::io::Result<()> {
    std::fs::create_dir_all(dir)?;
    let stem = |k: usize| {
        format!(
            "{}.trace{}.seed{}.{k}",
            w.name(),
            u8::from(args.trace),
            args.seed
        )
    };
    let k = (0..)
        .find(|&k| !dir.join(format!("{}.json", stem(k))).exists())
        .expect("an unused index exists");
    let doc = Json::obj([
        ("schema", Json::Str(RESULT_SCHEMA.into())),
        ("workload", Json::Str(w.name().into())),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("trace", Json::Bool(args.trace)),
        ("quick", Json::Bool(args.quick())),
        ("nproc", Json::Num(host::nproc() as f64)),
        ("correct", Json::Bool(report.correct)),
        ("valid", Json::Bool(report.valid)),
        ("attempted", Json::Num(report.attempted as f64)),
        ("failed", Json::Num(report.failed as f64)),
        (
            "violations",
            Json::Arr(report.violations.iter().cloned().map(Json::Str).collect()),
        ),
        ("metrics", Json::Obj(report.metrics.clone())),
        (
            "exact",
            Json::obj(report.exact.iter().map(|(k, v)| (*k, Json::Num(*v as f64)))),
        ),
        (
            "notes",
            Json::obj(
                report
                    .notes
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::Str(v.clone()))),
            ),
        ),
    ]);
    std::fs::write(dir.join(format!("{}.json", stem(k))), doc.render() + "\n")?;
    if let Some(tracer) = &report.tracer {
        std::fs::write(
            dir.join(format!("{}.spans.json", stem(k))),
            tracer.to_json().render() + "\n",
        )?;
    }
    Ok(())
}

fn run_one(w: Workload, args: &RunArgs, process_start: Instant) -> ExitCode {
    println!(
        "workload {}  seed {}  seconds {}  trace {}  nproc {}{}",
        w.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        host::nproc(),
        if args.quick() { "  quick" } else { "" },
    );
    let report = if args.trace {
        run_traced(w, args.seed, args.seconds)
    } else {
        run_end_to_end(w, args.seed, args.seconds, process_start)
    };
    for (name, m) in &report.metrics {
        let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        let note = report.notes.get(name).map_or("", String::as_str);
        println!("  {name:<40} {value:>18.6} {unit:<6} {note}");
    }
    for (name, note) in report
        .notes
        .iter()
        .filter(|(k, _)| !report.metrics.contains_key(*k))
    {
        println!("  {name:<40} {note}");
    }
    for (name, value) in &report.exact {
        println!("  exact {name:<34} {value:>18}");
    }
    println!(
        "  failed {} of {} attempted  (failed_frac {:.6})",
        report.failed,
        report.attempted,
        report.failed as f64 / report.attempted.max(1) as f64
    );
    for v in &report.violations {
        println!("  VIOLATION {v}");
    }
    if let Some(dir) = &args.out {
        if let Err(e) = write_results(dir, args, w, &report) {
            eprintln!("error: cannot write results to {}: {e}", dir.display());
            return ExitCode::from(2);
        }
    }
    println!(
        "{}",
        result_line(
            report.correct,
            report.attempted,
            report.failed,
            &report.metrics
        )
    );
    if report.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// All six workloads, one child process each (so `peak_rss_mb` and the
/// process-global verify counters belong to one workload).
fn run_all(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("error: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut all_ok = true;
    for w in workloads::ALL {
        let status = Command::new(&exe)
            .arg("run")
            .args(args)
            .args(["--workload", w.name()])
            .status();
        match status {
            Ok(s) if s.success() => {}
            Ok(s) => {
                eprintln!("{}: exited with {s}", w.name());
                all_ok = false;
            }
            Err(e) => {
                eprintln!("{}: cannot start: {e}", w.name());
                all_ok = false;
            }
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let process_start = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let rest = match args.first().map(String::as_str) {
        Some("compare") => return ExitCode::from(compare::main(&args[1..])),
        Some("run") => &args[1..],
        _ => &args[..],
    };
    match parse_run_args(rest) {
        Ok(parsed) => match parsed.workload {
            Some(w) => run_one(w, &parsed, process_start),
            None => run_all(rest),
        },
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!(
                "usage: benchmark [run] [--workload W] [--seed S] [--seconds X | --quick] \
                 [--trace 0|1] [--out DIR]\n       benchmark compare A_DIR B_DIR [--benchmark-json PATH]\n\
                 workloads: {}",
                workloads::ALL.map(Workload::name).join(", ")
            );
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Vec<String> {
        list.iter().map(|s| s.to_string()).collect()
    }

    #[test]
    fn the_driver_invocation_parses() {
        let parsed = parse_run_args(&args(&[
            "--workload",
            "smr_serve_n24",
            "--seed",
            "17",
            "--seconds",
            "15",
            "--trace",
            "0",
        ]))
        .unwrap();
        assert_eq!(parsed.workload, Some(Workload::SmrServe));
        assert_eq!(
            (parsed.seed, parsed.seconds, parsed.trace),
            (17, 15.0, false)
        );
        assert!(!parsed.quick());
        let traced = parse_run_args(&args(&["--trace", "1", "--quick"])).unwrap();
        assert!(traced.trace && traced.quick() && traced.workload.is_none());
        assert_eq!(traced.seconds, DEFAULT_SECONDS / 10.0);
        // The tag follows the window, whichever flag set it.
        assert!(parse_run_args(&args(&["--seconds", "1.5"]))
            .unwrap()
            .quick());
        for bad in [
            &["--workload", "nope"][..],
            &["--seconds", "0"],
            &["--seed", "x"],
            &["--frobnicate"],
            &["--out"],
            &["--trace"],
            &["--trace", "--out", "d"],
            &["--quick", "--seconds", "150"],
        ] {
            assert!(parse_run_args(&args(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn a_late_generator_invalidates_the_run_but_not_its_correctness() {
        let run = |late_us| {
            let m = Measurement {
                late_us,
                ..Measurement::default()
            };
            report_of(Workload::SmrServe, &m, 10, 0, Vec::new())
        };
        assert!(run(None).valid && run(Some((95, 999.0))).valid);
        let late = run(Some((95, 1_001.0)));
        assert!(!late.valid && late.correct);
        assert!(late.notes["INVALID"].contains("late at p95"));
    }

    #[test]
    fn the_result_line_has_exactly_the_contract_keys() {
        let metrics = BTreeMap::from([("setup_s".to_string(), metric(0.8127, "s"))]);
        let line = result_line(true, 1000, 0, &metrics);
        assert!(!line.contains('\n'));
        let doc = Json::parse(&line).unwrap();
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").unwrap().as_f64(), Some(0.8127));
        assert_eq!(m.get("unit").unwrap().as_str(), Some("s"));
    }

    #[test]
    fn benchmark_json_matches_the_program() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let keys: Vec<&String> = doc.as_obj().unwrap().keys().collect();
        assert_eq!(
            keys,
            [
                "command",
                "end_to_end",
                "paths",
                "per_layer",
                "run_seconds",
                "workloads"
            ]
        );
        let listed: Vec<(&str, &str, &str)> = doc
            .get("end_to_end")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect("string field");
                let bound = m.get("bound").and_then(Json::as_f64).expect("bound");
                assert!(bound > 0.0 && bound <= 0.25, "bound {bound}");
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        assert_eq!(listed, END_TO_END);
        let names: Vec<&str> = doc
            .get("workloads")
            .and_then(Json::as_arr)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap())
            .collect();
        assert_eq!(names, workloads::ALL.map(Workload::name));
        assert_eq!(
            doc.get("run_seconds").and_then(Json::as_f64),
            Some(DEFAULT_SECONDS)
        );
    }
}
