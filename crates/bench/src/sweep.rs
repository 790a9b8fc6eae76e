//! The scenario-grid sweep: a declarative cross product of every
//! registered family × admitted shapes × adversary mixes × delay choices
//! × seeds, fanned across worker threads by [`gcl_sim::Sweep`] and
//! rendered as a `gcl-bench/sweep/v1` report ([`SCHEMA`]).
//!
//! The grid is where the paper's *complete categorization* claim gets
//! exercised in bulk: every timing model × resilience band, not one
//! hand-picked point per table row. A cell that violates agreement or
//! (conditional) validity is a red build — the `sweep` binary and the CI
//! `sweep-smoke` job both fail on it.
//!
//! There is one grid and one base seed, so the report is a pure function
//! of the code: it is committed as `BENCH_sweep.json`, and every per-cell
//! outcome column gates exactly against it. A change that moves behaviour
//! shows up in `git diff BENCH_sweep.json` as the cells it moved.

use crate::json::{JVal, Row, Value};
use crate::registry;
use crate::trajectory::{col, Gate, Need, Schema};
use gcl_sim::{AdversaryMix, DelayChoice, ScenarioSpec, Sweep, SweepReport};
use gcl_types::Duration;

/// Candidate `(n, f)` shapes; each family keeps the ones its resilience
/// band admits. Ordered small-to-large so [`grid`] keeps the cheap cells.
const SHAPE_POOL: &[(usize, usize)] = &[
    (3, 1),
    (4, 1),
    (4, 2),
    (4, 3),
    (5, 2),
    (6, 2),
    (6, 4),
    (7, 2),
    (7, 3),
    (8, 2),
    (8, 3),
    (9, 2),
    (9, 3),
    (10, 3),
    (10, 8),
    (14, 3),
];

/// Base seed of every sweep; per-cell seeds derive from it.
pub(crate) const SEED: u64 = 1;

/// Builds the declarative grid: every registered family crossed with its
/// four smallest admitted shapes, three adversary mixes, fixed and
/// jittered delays, and two seed slots — 648 cells. Per-cell seeds are
/// later derived from the grid position by [`gcl_sim::Sweep::seed`]; a
/// seed slot only doubles the cell.
pub(crate) fn grid() -> Vec<ScenarioSpec> {
    let reg = registry();
    let mixes = [
        AdversaryMix::None,
        AdversaryMix::RandomSilent { count: u32::MAX },
        AdversaryMix::RandomCrashing {
            count: u32::MAX,
            max_handled: 6,
        },
    ];
    let delays = [
        DelayChoice::Fixed,
        DelayChoice::Uniform {
            lo: Duration::ZERO,
            hi: Duration::from_micros(200),
        },
    ];
    let mut cells = Vec::new();
    for key in reg.keys() {
        let family = reg.family(key).expect("listed key");
        let shapes = SHAPE_POOL
            .iter()
            .filter(|&&(n, f)| family.admission().admits(n, f))
            .take(4);
        for &(n, f) in shapes {
            for mix in mixes {
                for delay in delays {
                    let cell = family
                        .canonical()
                        .clone()
                        .with_shape(n, f)
                        .with_adversary(mix)
                        .with_delays(delay);
                    cells.extend(std::iter::repeat_n(cell, 2));
                }
            }
        }
    }
    cells
}

/// Runs the grid from base seed 1 on `threads` workers.
pub fn run_grid(threads: usize) -> SweepReport {
    Sweep::new(registry())
        .cells(grid())
        .threads(threads)
        .seed(SEED)
        .run()
}

/// The `BENCH_sweep.json` table: one row per grid cell, keyed by its label
/// (which carries the derived per-cell seed). Every outcome column is a
/// pure function of (grid, base seed) and gates exactly; `agreement` and
/// `validity` are gated, not needed — a violation is the bin's red build,
/// and [`validate_report`] holds the header to the same count. `skipped`
/// is `null` on every cell that ran, so all rows have one column set.
pub static SCHEMA: Schema = Schema {
    tag: "gcl-bench/sweep/v1",
    columns: &[
        col("cell").key(),
        col("family"),
        col("n"),
        col("f"),
        col("seed"),
        col("committed").gate(Gate::Exact),
        col("latency_us").need(Need::Any).gate(Gate::Exact),
        col("rounds").need(Need::Any).gate(Gate::Exact),
        col("events").gate(Gate::Exact),
        col("messages").gate(Gate::Exact),
        col("peak_queue").gate(Gate::Exact),
        col("agreement").gate(Gate::Exact),
        col("validity").gate(Gate::Exact),
        col("skipped").need(Need::Any),
    ],
    coverage: |rows| match rows {
        [] => Err("empty sweep: no cells".to_string()),
        _ => Ok(()),
    },
};

/// Renders a sweep report as the `gcl-bench/sweep/v1` document. Every
/// member is deterministic: the thread count and wall time stay out, so
/// regenerating at an unchanged commit rewrites the same bytes.
pub fn render_report(report: &SweepReport) -> String {
    let top = vec![
        ("base_seed", JVal::U64(SEED)),
        ("cells", JVal::U64(report.cells.len() as u64)),
        ("cells_run", JVal::U64(report.cells_run() as u64)),
        ("cells_skipped", JVal::U64(report.cells_skipped() as u64)),
        ("commit_rate_pct", JVal::F1(report.commit_rate() * 100.0)),
        (
            "safety_violations",
            JVal::U64(report.safety_violations().count() as u64),
        ),
        (
            "validity_violations",
            JVal::U64(report.validity_violations().count() as u64),
        ),
        (
            "p50_latency_us",
            JVal::opt_u64(report.latency_percentile(0.5)),
        ),
        (
            "p90_latency_us",
            JVal::opt_u64(report.latency_percentile(0.9)),
        ),
        (
            "max_latency_us",
            JVal::opt_u64(report.latency_percentile(1.0)),
        ),
        ("total_events", JVal::U64(report.total_events())),
        ("total_messages", JVal::U64(report.total_messages())),
        ("max_peak_queue", JVal::U64(report.max_peak_queue())),
    ];
    SCHEMA.render(
        top,
        report.cells.iter().map(|cell| {
            vec![
                JVal::Str(cell.label.clone()),
                JVal::Str(cell.spec.family.to_string()),
                JVal::U64(cell.spec.n as u64),
                JVal::U64(cell.spec.f as u64),
                JVal::U64(cell.spec.seed),
                JVal::Bool(cell.committed),
                JVal::opt_u64(cell.latency_us),
                JVal::opt_u64(cell.rounds.map(u64::from)),
                JVal::U64(cell.events),
                JVal::U64(cell.messages),
                JVal::U64(cell.peak_queue),
                JVal::Bool(cell.agreement),
                JVal::Bool(cell.validity),
                cell.error.clone().map_or(JVal::Null, JVal::Str),
            ]
        }),
    )
}

/// What [`validate_report`] extracts from a well-formed report.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReportSummary {
    /// Total grid cells.
    pub(crate) cells: usize,
    /// Cells that ran.
    pub(crate) cells_run: usize,
    /// Cells where agreement was violated.
    pub(crate) safety_violations: usize,
    /// Cells where the validity audit failed.
    pub(crate) validity_violations: usize,
}

/// Checks a `gcl-bench/sweep/v1` document against [`SCHEMA`] and its
/// header counters against its rows.
///
/// # Errors
///
/// A human-readable description of the first structural problem.
pub fn validate_report(text: &str) -> Result<ReportSummary, String> {
    let (head, rows, ids) = SCHEMA.audit(text)?;
    let count = |pred: fn(&Row) -> bool| rows.iter().filter(|r| pred(r)).count();
    let summary = ReportSummary {
        cells: ids.len(),
        cells_run: count(|r| r.get("skipped") == Some(&Value::Null)),
        safety_violations: count(|r| r.get("agreement") != Some(&Value::Bool(true))),
        validity_violations: count(|r| r.get("validity") != Some(&Value::Bool(true))),
    };
    let header = |k: &str| -> Result<usize, String> {
        head.u64(k)
            .map(|x| x as usize)
            .ok_or_else(|| format!("missing numeric header field {k:?}"))
    };
    if header("cells")? != summary.cells
        || header("cells_run")? != summary.cells_run
        || header("safety_violations")? != summary.safety_violations
        || header("validity_violations")? != summary.validity_violations
    {
        return Err("header counters disagree with rows".into());
    }
    Ok(summary)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A sweep of `cells` from [`SEED`], as the bin runs it.
    fn sweep(cells: Vec<ScenarioSpec>, threads: usize) -> SweepReport {
        Sweep::new(registry())
            .cells(cells)
            .threads(threads)
            .seed(SEED)
            .run()
    }

    /// The one grid is small enough to run everywhere, so it alone must
    /// reach every registered family.
    #[test]
    fn quick_grid_covers_every_family() {
        let cells = grid();
        let reg = registry();
        for key in reg.keys() {
            assert!(
                cells.iter().any(|c| c.family == key),
                "family {key} missing from the grid"
            );
        }
        assert!(
            cells.iter().all(|c| reg.validate(c).is_ok()),
            "generated cells are all admissible by construction"
        );
    }

    #[test]
    fn full_grid_reaches_sweep_scale() {
        assert_eq!(grid().len(), 648);
    }

    #[test]
    fn grid_matches_committed_report_at_any_thread_count() {
        // Scheduling must not leak into any audited number, and the grid at
        // this commit must reproduce every exact column of the committed
        // baseline; `git diff BENCH_sweep.json` after regenerating names
        // the cells a change moved.
        let four = run_grid(4);
        let eight = run_grid(8);
        assert_eq!(four.threads, 4);
        assert!(
            four.deterministic_eq(&eight),
            "sweep report depends on thread count / scheduling"
        );
        assert_eq!(four.safety_violations().count(), 0);
        assert_eq!(four.validity_violations().count(), 0);
        let committed = include_str!("../../../BENCH_sweep.json");
        let summary = SCHEMA
            .diff(committed, &render_report(&four))
            .unwrap_or_else(|e| panic!("BENCH_sweep.json: {e}"));
        assert_eq!(summary, "648 rows matched");
    }

    #[test]
    fn report_renders_and_validates() {
        let report = sweep(grid().into_iter().step_by(12).collect(), 2);
        assert_eq!(report.safety_violations().count(), 0, "sweep must be safe");
        assert_eq!(report.validity_violations().count(), 0);
        let text = render_report(&report);
        let summary = validate_report(&text).expect("well-formed report");
        assert_eq!(summary.cells, report.cells.len());
        assert_eq!(summary.cells_run, report.cells_run());
        assert_eq!(summary.safety_violations, 0);
        let lied = text.replace("\"safety_violations\": 0", "\"safety_violations\": 1");
        let err = validate_report(&lied).unwrap_err();
        assert!(err.contains("disagree"), "{err}");
    }

    #[test]
    fn validate_rejects_malformed_and_inconsistent() {
        // Every case is a rendered report with one edit, so each fails for
        // the reason it names and not for its layout.
        let render = |cells| render_report(&sweep(cells, 1));
        let err = validate_report("{").unwrap_err();
        assert!(err.starts_with("malformed JSON: line 1: "), "{err}");
        let empty = render(Vec::new());
        let err = validate_report(&empty).unwrap_err();
        assert_eq!(err, "empty sweep: no cells");
        let err = validate_report(&empty.replace("gcl-bench/sweep/v1", "nope")).unwrap_err();
        assert!(err.starts_with("schema is Some(\"nope\")"), "{err}");
        // A row missing its audit flags is malformed.
        let one = render(grid().into_iter().take(1).collect());
        assert_eq!(validate_report(&one).map(|s| s.cells), Ok(1));
        let err = validate_report(&one.replace("\"committed\": true, ", "")).unwrap_err();
        assert_eq!(err, "row 0: missing column \"committed\"");
    }
}
