//! `benchmark compare A_DIR B_DIR`: reads two sets of result files and
//! says, per (workload, metric), whether B is the same as, worse than or
//! better than A by the bound `BENCHMARK.json` fixes for the metric or the
//! workload's own, whichever is tighter — or unresolved, when the runs of
//! either side spread wider than that bound. Counts that must repeat
//! exactly are compared for equality, never by ratio.

use crate::json::Json;
use crate::workloads::Workload;
use crate::{stats, RESULT_SCHEMA};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Same,
    Worse,
    Better,
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Better => "better",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judges B's runs against A's for one metric. `bound` is the share of
/// A's median by which the metric may worsen. When either side's
/// inter-quartile spread exceeds the bound the pair is unresolved —
/// unless every run of B reads better than every run of A.
pub fn judge(a: &[f64], b: &[f64], higher_is_better: bool, bound: f64) -> Verdict {
    let (med_a, med_b) = (stats::median(a), stats::median(b));
    let better_than = |x: f64, y: f64| if higher_is_better { x > y } else { x < y };
    if stats::spread(a) > bound || stats::spread(b) > bound {
        let clean_win = b.iter().all(|&y| a.iter().all(|&x| better_than(y, x)));
        return if clean_win {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if med_a == 0.0 {
        return if med_b == 0.0 {
            Verdict::Same
        } else {
            Verdict::Unresolved
        };
    }
    let worsening = if higher_is_better {
        (med_a - med_b) / med_a.abs()
    } else {
        (med_b - med_a) / med_a.abs()
    };
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// One parsed result file.
#[derive(Debug, Clone)]
struct RunResult {
    file: String,
    workload: String,
    seed: f64,
    trace: bool,
    /// Length of the measured window (`--quick` runs have a shorter one).
    seconds: f64,
    valid: bool,
    attempted: f64,
    failed: f64,
    metrics: BTreeMap<String, (f64, String)>,
    exact: BTreeMap<String, f64>,
}

fn parse_result(file: &str, text: &str) -> Result<Option<RunResult>, String> {
    let doc = Json::parse(text).map_err(|e| format!("{file}: {e}"))?;
    if doc.get("schema").and_then(Json::as_str) != Some(RESULT_SCHEMA) {
        return Ok(None); // some other JSON file (e.g. trace.json)
    }
    let field = |k: &str| doc.get(k).ok_or_else(|| format!("{file}: missing {k:?}"));
    let num = |k: &str| {
        field(k)?
            .as_f64()
            .ok_or_else(|| format!("{file}: {k:?} is not a number"))
    };
    let flag = |k: &str| {
        field(k)?
            .as_bool()
            .ok_or_else(|| format!("{file}: {k:?} is not a boolean"))
    };
    let mut metrics = BTreeMap::new();
    for (name, m) in field("metrics")?
        .as_obj()
        .ok_or_else(|| format!("{file}: metrics is not an object"))?
    {
        let value = m
            .get("value")
            .and_then(Json::as_f64)
            .ok_or_else(|| format!("{file}: metric {name:?} has no value"))?;
        let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
        metrics.insert(name.clone(), (value, unit.to_string()));
    }
    let exact = field("exact")?
        .as_obj()
        .ok_or_else(|| format!("{file}: exact is not an object"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.as_f64()?)))
        .collect();
    Ok(Some(RunResult {
        file: file.to_string(),
        workload: field("workload")?
            .as_str()
            .ok_or_else(|| format!("{file}: workload is not a string"))?
            .to_string(),
        seed: num("seed")?,
        trace: flag("trace")?,
        seconds: num("seconds")?,
        valid: flag("valid")?,
        attempted: num("attempted")?,
        failed: num("failed")?,
        metrics,
        exact,
    }))
}

fn load_dir(dir: &Path) -> Result<Vec<RunResult>, String> {
    let mut names: Vec<_> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|entry| entry.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    names.sort();
    let mut runs = Vec::new();
    for path in names {
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        if let Some(run) = parse_result(&path.display().to_string(), &text)? {
            runs.push(run);
        }
    }
    if runs.is_empty() {
        return Err(format!("{}: no result files", dir.display()));
    }
    Ok(runs)
}

/// `name → (higher_is_better, bound)` from `BENCHMARK.json`; per-layer
/// metrics carry no bound.
fn load_contract(text: &str) -> Result<BTreeMap<String, (bool, Option<f64>)>, String> {
    let doc = Json::parse(text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let mut out = BTreeMap::new();
    for section in ["end_to_end", "per_layer"] {
        for m in doc
            .get(section)
            .and_then(Json::as_arr)
            .ok_or_else(|| format!("BENCHMARK.json: missing {section}"))?
        {
            let name = m
                .get("name")
                .and_then(Json::as_str)
                .ok_or("BENCHMARK.json: metric without a name")?;
            let higher = m.get("better").and_then(Json::as_str) == Some("higher");
            out.insert(
                name.to_string(),
                (higher, m.get("bound").and_then(Json::as_f64)),
            );
        }
    }
    Ok(out)
}

/// The comparison report and whether it found a regression.
pub struct Report {
    pub text: String,
    pub regressed: bool,
}

fn compare_sets<'a>(
    a: &'a [RunResult],
    b: &'a [RunResult],
    contract: &BTreeMap<String, (bool, Option<f64>)>,
) -> Result<Report, String> {
    for run in a.iter().chain(b) {
        if !run.valid {
            return Err(format!(
                "{}: run is marked invalid (the load generator ran late); measure again",
                run.file
            ));
        }
    }
    let windows: BTreeSet<u64> = a.iter().chain(b).map(|r| r.seconds.to_bits()).collect();
    if windows.len() > 1 {
        return Err(
            "refusing to compare runs of different lengths (--quick against full runs?)".into(),
        );
    }
    let mut text = String::new();
    let mut regressed = false;
    let groups: BTreeSet<(String, bool)> = a
        .iter()
        .chain(b)
        .map(|r| (r.workload.clone(), r.trace))
        .collect();
    for (workload, trace) in groups {
        let pick = |set: &'a [RunResult]| -> Vec<&'a RunResult> {
            set.iter()
                .filter(|r| r.workload == workload && r.trace == trace)
                .collect()
        };
        let (ra, rb) = (pick(a), pick(b));
        let kind = if trace { "per-layer" } else { "end-to-end" };
        if ra.is_empty() || rb.is_empty() {
            let _ = writeln!(
                text,
                "{workload} ({kind}): only one side has runs — nothing to compare"
            );
            continue;
        }
        let _ = writeln!(
            text,
            "{workload} ({kind}): {} runs of A, {} runs of B",
            ra.len(),
            rb.len()
        );
        let frac = |rs: &[&RunResult]| {
            rs.iter().map(|r| r.failed).sum::<f64>()
                / rs.iter().map(|r| r.attempted).sum::<f64>().max(1.0)
        };
        let (fa, fb) = (frac(&ra), frac(&rb));
        let _ = writeln!(text, "  failed_frac        A {fa:.6}  B {fb:.6}");
        if fb > fa {
            let _ = writeln!(text, "  failed_frac is higher on B: regression");
            regressed = true;
        }
        let names: BTreeSet<&String> = ra
            .iter()
            .chain(&rb)
            .flat_map(|r| r.metrics.keys())
            .collect();
        for name in names {
            if crate::layers::EXACT.contains(&name.as_str()) {
                continue; // compared for equality below
            }
            let values = |rs: &[&RunResult]| -> Vec<f64> {
                rs.iter()
                    .filter_map(|r| r.metrics.get(name).map(|m| m.0))
                    .collect()
            };
            let (va, vb) = (values(&ra), values(&rb));
            if va.is_empty() || vb.is_empty() {
                continue;
            }
            let unit = ra
                .iter()
                .chain(&rb)
                .find_map(|r| r.metrics.get(name))
                .map_or("", |m| m.1.as_str());
            let (a1, a2, a3) = stats::quartiles(&va);
            let (b1, b2, b3) = stats::quartiles(&vb);
            let ratio = if a2 == 0.0 { f64::NAN } else { b2 / a2 };
            let (higher, bound) = contract.get(name).copied().unwrap_or((false, None));
            // `BENCHMARK.json` holds one bound per metric name, sized for
            // the noisiest workload that reports it; a quieter workload's
            // timings are judged by its own, tighter bound.
            let own = Workload::parse(&workload)
                .filter(|_| name != "setup_s")
                .map(Workload::compare_bound);
            let bound = bound.map(|b| own.map_or(b, |own| b.min(own)));
            let verdict = match bound {
                Some(bound) => {
                    let v = judge(&va, &vb, higher, bound);
                    regressed |= v == Verdict::Worse;
                    format!("bound {bound}  {}", v.label())
                }
                None => "layer, no bound".to_string(),
            };
            let _ = writeln!(
                text,
                "  {name:<40} A {a2:.6} [{a1:.6}, {a3:.6}]  B {b2:.6} [{b1:.6}, {b3:.6}] {unit}  \
                 B/A {ratio:.4} (base A = {a2:.6})  {verdict}"
            );
        }
        // Exact counts are functions of (commit, seed): every run of
        // either side that shares a seed must report the same value. A
        // workload's own counts sit under `exact`; the traced run's
        // microbenchmarks report theirs among the metrics.
        let mut seen: BTreeMap<(&String, u64), BTreeSet<u64>> = BTreeMap::new();
        for r in ra.iter().chain(&rb) {
            let among_metrics = r
                .metrics
                .iter()
                .filter(|(name, _)| crate::layers::EXACT.contains(&name.as_str()))
                .map(|(name, m)| (name, m.0));
            for (name, value) in r.exact.iter().map(|(k, v)| (k, *v)).chain(among_metrics) {
                seen.entry((name, r.seed.to_bits()))
                    .or_default()
                    .insert(value.to_bits());
            }
        }
        let moved: BTreeSet<&String> = seen
            .iter()
            .filter(|(_, values)| values.len() > 1)
            .map(|((name, _), _)| *name)
            .collect();
        for name in &moved {
            let _ = writeln!(
                text,
                "  {name:<40} exact count differs between runs of one seed: regression"
            );
        }
        if moved.is_empty() {
            let _ = writeln!(text, "  exact counts: identical for every seed");
        }
        regressed |= !moved.is_empty();
    }
    Ok(Report { text, regressed })
}

/// Entry point of the `compare` subcommand. Exit code 0: no regression;
/// 1: some metric is worse, more operations failed, or an exact count
/// moved; 2: the comparison was refused.
pub fn main(args: &[String]) -> u8 {
    let mut dirs = Vec::new();
    let mut contract_path = "BENCHMARK.json".to_string();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark-json" => match it.next() {
                Some(p) => contract_path = p.clone(),
                None => {
                    eprintln!("error: --benchmark-json needs a path");
                    return 2;
                }
            },
            other => dirs.push(other.to_string()),
        }
    }
    let [a_dir, b_dir] = dirs.as_slice() else {
        eprintln!("usage: benchmark compare A_DIR B_DIR [--benchmark-json PATH]");
        return 2;
    };
    let run = || -> Result<Report, String> {
        let contract = load_contract(
            &std::fs::read_to_string(&contract_path)
                .map_err(|e| format!("{contract_path}: {e}"))?,
        )?;
        let a = load_dir(Path::new(a_dir))?;
        let b = load_dir(Path::new(b_dir))?;
        compare_sets(&a, &b, &contract)
    };
    match run() {
        Ok(report) => {
            print!("{}", report.text);
            if report.regressed {
                println!("RESULT: B is worse than A");
                1
            } else {
                println!("RESULT: no regression");
                0
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verdicts_follow_the_bound_and_the_spread() {
        let a = [100.0, 101.0, 99.0, 100.5, 99.5];
        // Within the bound either way: same.
        assert_eq!(
            judge(&a, &[102.0, 103.0, 101.0, 102.0, 102.5], false, 0.05),
            Verdict::Same
        );
        // 10 % slower on a lower-is-better metric with a 5 % bound: worse.
        assert_eq!(
            judge(&a, &[110.0, 111.0, 109.0, 110.0, 110.5], false, 0.05),
            Verdict::Worse
        );
        // The same numbers on a higher-is-better metric: better.
        assert_eq!(
            judge(&a, &[110.0, 111.0, 109.0, 110.0, 110.5], true, 0.05),
            Verdict::Better
        );
        // B spreads wider than the bound and overlaps A: unresolved…
        let noisy = [80.0, 120.0, 95.0, 130.0, 70.0];
        assert_eq!(judge(&a, &noisy, false, 0.05), Verdict::Unresolved);
        // …unless every run of B beats every run of A.
        let fast_noisy = [50.0, 80.0, 60.0, 90.0, 40.0];
        assert_eq!(judge(&a, &fast_noisy, false, 0.05), Verdict::Better);
        assert_eq!(judge(&a, &fast_noisy, true, 0.05), Verdict::Unresolved);
    }

    fn result(workload: &str, seconds: f64, op_ms: f64, events: f64, failed: f64) -> RunResult {
        RunResult {
            file: "test".into(),
            workload: workload.into(),
            seed: 1.0,
            trace: false,
            seconds,
            valid: true,
            attempted: 100.0,
            failed,
            metrics: BTreeMap::from([("op_ms".to_string(), (op_ms, "ms".to_string()))]),
            exact: BTreeMap::from([("sim.events".to_string(), events)]),
        }
    }

    fn contract() -> BTreeMap<String, (bool, Option<f64>)> {
        BTreeMap::from([("op_ms".to_string(), (false, Some(0.05)))])
    }

    #[test]
    fn a_slowdown_an_exact_mismatch_or_more_failures_is_a_regression() {
        let a: Vec<_> = (0..5)
            .map(|i| result("w", 15.0, 100.0 + f64::from(i) * 0.1, 7.0, 0.0))
            .collect();
        let same = compare_sets(&a, &a, &contract()).unwrap();
        assert!(!same.regressed, "{}", same.text);
        assert!(same.text.contains("same"));

        let slow: Vec<_> = (0..5)
            .map(|i| result("w", 15.0, 120.0 + f64::from(i) * 0.1, 7.0, 0.0))
            .collect();
        let r = compare_sets(&a, &slow, &contract()).unwrap();
        assert!(r.regressed && r.text.contains("worse"), "{}", r.text);

        let moved: Vec<_> = (0..5).map(|_| result("w", 15.0, 100.0, 8.0, 0.0)).collect();
        let r = compare_sets(&a, &moved, &contract()).unwrap();
        assert!(
            r.regressed && r.text.contains("exact count differs"),
            "{}",
            r.text
        );

        let failing: Vec<_> = (0..5).map(|_| result("w", 15.0, 100.0, 7.0, 1.0)).collect();
        let r = compare_sets(&a, &failing, &contract()).unwrap();
        assert!(
            r.regressed && r.text.contains("failed_frac is higher"),
            "{}",
            r.text
        );
    }

    #[test]
    fn an_exact_value_reported_only_among_the_metrics_is_still_compared() {
        // The traced run's microbenchmarks report the simulated good-case
        // latencies as metrics, not under `exact`.
        let name = "sim.good_case_latency_us.brb2";
        let traced = |latency_us: f64| -> Vec<RunResult> {
            let mut r = result("w", 15.0, 100.0, 7.0, 0.0);
            r.trace = true;
            r.metrics
                .insert(name.to_string(), (latency_us, "us".to_string()));
            vec![r]
        };
        let same = compare_sets(&traced(200.0), &traced(200.0), &contract()).unwrap();
        assert!(!same.regressed, "{}", same.text);
        let r = compare_sets(&traced(200.0), &traced(300.0), &contract()).unwrap();
        assert!(r.regressed, "{}", r.text);
        assert!(
            r.text.contains(&format!("{name:<40} exact count differs")),
            "{}",
            r.text
        );
    }

    #[test]
    fn a_quiet_workload_is_judged_by_its_own_tighter_bound() {
        // 8 % slower: inside the 25 % every workload shares, outside the
        // 3 % the timer-bound failover workload repeats within.
        let runs = |workload: &str, ms: f64| -> Vec<RunResult> {
            (0..5)
                .map(|i| result(workload, 15.0, ms + f64::from(i) * 0.01, 7.0, 0.0))
                .collect()
        };
        let loose = BTreeMap::from([("op_ms".to_string(), (false, Some(0.25)))]);
        let name = Workload::SmrFailover.name();
        let r = compare_sets(&runs(name, 100.0), &runs(name, 108.0), &loose).unwrap();
        assert!(r.regressed && r.text.contains("bound 0.03"), "{}", r.text);
        let r = compare_sets(&runs("w", 100.0), &runs("w", 108.0), &loose).unwrap();
        assert!(!r.regressed && r.text.contains("bound 0.25"), "{}", r.text);
    }

    #[test]
    fn runs_of_different_lengths_are_refused() {
        let full = [result("w", 15.0, 100.0, 7.0, 0.0)];
        let quick = [result("w", 1.5, 100.0, 7.0, 0.0)];
        let err = compare_sets(&full, &quick, &contract()).err().unwrap();
        assert!(err.contains("--quick"), "{err}");
        assert!(compare_sets(&quick, &quick, &contract()).is_ok());
    }

    #[test]
    fn result_files_round_trip_through_the_parser() {
        let text = r#"{"schema": "gcl-benchmark/result/v1", "workload": "w", "seed": 3, "trace": false,
            "seconds": 15, "quick": false, "valid": true, "attempted": 10, "failed": 0,
            "metrics": {"op_ms": {"value": 1.5, "unit": "ms"}}, "exact": {"sim.events": 272}}"#;
        let run = parse_result("f", text).unwrap().unwrap();
        assert_eq!(run.metrics["op_ms"], (1.5, "ms".to_string()));
        assert_eq!(run.exact["sim.events"], 272.0);
        assert!(parse_result("f", r#"{"schema": "other"}"#)
            .unwrap()
            .is_none());
        assert!(parse_result("f", r#"{"schema": "gcl-benchmark/result/v1"}"#).is_err());
    }
}
