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

use crate::json::{JVal, Row, Value};
use crate::registry;
use crate::trajectory::{col, Need, Schema};
use gcl_sim::{AdversaryMix, DelayChoice, ScenarioSpec, Sweep, SweepReport};
use gcl_types::Duration;

/// Candidate `(n, f)` shapes; each family keeps the ones its resilience
/// band admits. Ordered small-to-large so shape caps keep the cheap cells.
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

/// Knobs controlling how large the generated grid is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridOptions {
    /// Max admitted shapes per family (smallest first).
    pub shapes_per_family: usize,
    /// Seeds per (family, shape, mix, delay) combination.
    pub seeds: u64,
    /// Also run every combination under seeded uniform delay jitter.
    pub jitter: bool,
    /// Also run a seeded random-crash adversary mix.
    pub crashes: bool,
    /// Drop shapes with more than this many parties (debug-build test
    /// grids cap this; the release-mode `sweep` bin takes everything).
    pub max_parties: usize,
}

impl GridOptions {
    /// The CI smoke grid: small but still touching every family and both
    /// canonical adversary mixes.
    pub fn quick() -> Self {
        GridOptions {
            shapes_per_family: 2,
            seeds: 1,
            jitter: false,
            crashes: true,
            max_parties: usize::MAX,
        }
    }

    /// The full default grid.
    pub fn full() -> Self {
        GridOptions {
            shapes_per_family: 4,
            seeds: 2,
            jitter: true,
            crashes: true,
            max_parties: usize::MAX,
        }
    }
}

/// Builds the declarative grid: every registered family crossed with its
/// admitted shapes, the adversary mixes, the delay choices and `seeds`
/// seed indices. Per-cell seeds are later derived by
/// [`gcl_sim::Sweep::seed`]; the seed index here only multiplies cells.
pub fn grid(opts: GridOptions) -> Vec<ScenarioSpec> {
    let reg = registry();
    let mut mixes = vec![
        AdversaryMix::None,
        AdversaryMix::RandomSilent { count: u32::MAX },
    ];
    if opts.crashes {
        mixes.push(AdversaryMix::RandomCrashing {
            count: u32::MAX,
            max_handled: 6,
        });
    }
    let mut delays = vec![DelayChoice::Fixed];
    if opts.jitter {
        delays.push(DelayChoice::Uniform {
            lo: Duration::ZERO,
            hi: Duration::from_micros(200),
        });
    }
    let mut cells = Vec::new();
    for key in reg.keys() {
        let family = reg.family(key).expect("listed key");
        let base = family.canonical();
        let shapes: Vec<(usize, usize)> = SHAPE_POOL
            .iter()
            .copied()
            .filter(|&(n, f)| n <= opts.max_parties && family.admission().admits(n, f))
            .take(opts.shapes_per_family.max(1))
            .collect();
        for (n, f) in shapes {
            for &mix in &mixes {
                for &delay in &delays {
                    for _ in 0..opts.seeds.max(1) {
                        cells.push(
                            base.clone()
                                .with_shape(n, f)
                                .with_adversary(mix)
                                .with_delays(delay),
                        );
                    }
                }
            }
        }
    }
    cells
}

/// The default grid for one mode (`quick` = the CI smoke grid).
pub fn default_grid(quick: bool) -> Vec<ScenarioSpec> {
    grid(if quick {
        GridOptions::quick()
    } else {
        GridOptions::full()
    })
}

/// Runs the default grid with derived per-cell seeds.
pub fn run_default(quick: bool, threads: usize, base_seed: u64) -> SweepReport {
    Sweep::new(registry())
        .cells(default_grid(quick))
        .threads(threads)
        .seed(base_seed)
        .run()
}

/// The sweep report's rows: one per grid cell, keyed by its label (which
/// carries the derived per-cell seed). `agreement` and `validity` are
/// counted, not needed — a violation is the bin's red build, and
/// [`validate_report`] holds the header to the same count. `skipped` is
/// `null` on every cell that ran, so all rows have one column set.
pub static SCHEMA: Schema = Schema {
    tag: "gcl-bench/sweep/v1",
    columns: &[
        col("cell").key(),
        col("family"),
        col("n"),
        col("f"),
        col("seed"),
        col("committed"),
        col("latency_us").need(Need::Any),
        col("rounds").need(Need::Any),
        col("events"),
        col("messages"),
        col("peak_queue"),
        col("agreement"),
        col("validity"),
        col("skipped").need(Need::Any),
    ],
    coverage: |rows| match rows {
        [] => Err("empty sweep: no cells".to_string()),
        _ => Ok(()),
    },
};

/// Renders a sweep report as the `gcl-bench/sweep/v1` document.
pub fn render_report(report: &SweepReport, mode: &str, base_seed: u64) -> String {
    let top = vec![
        ("mode", JVal::Str(mode.to_string())),
        ("base_seed", JVal::U64(base_seed)),
        ("threads", JVal::U64(report.threads as u64)),
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
        ("wall_ns", JVal::U64(report.wall_ns)),
        ("events_per_sec", JVal::F1(report.events_per_sec())),
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
    pub cells: usize,
    /// Cells that ran.
    pub cells_run: usize,
    /// Cells where agreement was violated.
    pub safety_violations: usize,
    /// Cells where the validity audit failed.
    pub validity_violations: usize,
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

    #[test]
    fn quick_grid_covers_every_family() {
        let cells = default_grid(true);
        let reg = registry();
        for key in reg.keys() {
            assert!(
                cells.iter().any(|c| c.family == key),
                "family {key} missing from quick grid"
            );
        }
        assert!(
            cells.iter().all(|c| reg.validate(c).is_ok()),
            "generated cells are all admissible by construction"
        );
    }

    #[test]
    fn full_grid_reaches_sweep_scale() {
        let cells = default_grid(false);
        assert!(cells.len() >= 200, "only {} cells", cells.len());
    }

    #[test]
    fn report_renders_and_validates() {
        let report = Sweep::new(registry())
            .cells(grid(GridOptions {
                shapes_per_family: 1,
                seeds: 1,
                jitter: false,
                crashes: false,
                max_parties: usize::MAX,
            }))
            .threads(2)
            .seed(7)
            .run();
        assert_eq!(report.safety_violations().count(), 0, "sweep must be safe");
        assert_eq!(report.validity_violations().count(), 0);
        let text = render_report(&report, "test", 7);
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
        let render = |cells: Vec<ScenarioSpec>| {
            let report = Sweep::new(registry()).cells(cells).seed(7).run();
            render_report(&report, "test", 7)
        };
        let err = validate_report("{").unwrap_err();
        assert!(err.starts_with("malformed JSON: line 1: "), "{err}");
        let empty = render(Vec::new());
        let err = validate_report(&empty).unwrap_err();
        assert_eq!(err, "empty sweep: no cells");
        let err = validate_report(&empty.replace("gcl-bench/sweep/v1", "nope")).unwrap_err();
        assert!(err.starts_with("schema is Some(\"nope\")"), "{err}");
        // A row missing its audit flags is malformed.
        let one = render(default_grid(true).into_iter().take(1).collect());
        assert_eq!(validate_report(&one).map(|s| s.cells), Ok(1));
        let err = validate_report(&one.replace("\"committed\": true, ", "")).unwrap_err();
        assert_eq!(err, "row 0: missing column \"committed\"");
    }
}
