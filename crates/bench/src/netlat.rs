//! The wall-clock latency trajectory: per-family good-case latencies on
//! the wall engine, rendered as the repo-root `BENCH_net.json`.
//!
//! `BENCH_sim.json` tracks simulator *throughput* per PR; this module
//! tracks wall-clock *runtime overhead* the same way. For every registered
//! family it takes the wall run of its conformance cell
//! ([`crate::conformance::conformance_cells`]) and records the good-case
//! wall latency next to the spec's injected ideal — δ' per hop, so a 2-round
//! protocol's floor is `2δ'`. The gap between the measured column and the
//! floor is scheduler, codec and syscall overhead; watching it per PR is
//! how a runtime regression (a lost fast path, an accidental sleep) shows
//! up before anyone reads a profile.
//!
//! The **scale rows** are `SCALE_FAMILIES` × `SCALE_NS`: the readiness
//! loop multiplexes n = 1024 over a handful of workers. Every row carries
//! the engine's [`SchedCounters`]: worker-pool size, readiness wakeups,
//! and the peak outbound-queue depth, so a backpressure regression is
//! visible in the trajectory diff. Row identity is `(family, backend, n)`;
//! `backend` is `"async"` on every row (the `net` and `socket` columns
//! were retired with their engines).
//!
//! Wall numbers are machine-dependent, so [`SCHEMA`] gates *shape*, not
//! speed: every registered family present, every scale row present, every
//! row committed with agreement — and `latency_us` only against a 25×
//! cliff (an early-exit path regressing to sleep-to-deadline), never
//! against machine noise. Regeneration:
//!
//! ```text
//! cargo run --release -p gcl_bench --bin net_latency -- --out BENCH_net.json
//! ```

use crate::conformance::{conformance_cells, wall_backend, wall_spec, WALL_DELTA};
use crate::json::JVal;
use crate::registry;
use crate::trajectory::{col, Gate, Need, Schema};
use gcl_sim::{Backend, Outcome, ScenarioSpec, SchedCounters};
use gcl_types::Duration as SimDuration;
use std::time::Duration;

/// The `BENCH_net.json` table. v2: row identity is `(family, backend, n)`
/// (the same family is measured at several scales), rows carry scheduler
/// counters. A `null` latency is a liveness failure, `agreement: false` a
/// safety failure — on any row, catalog or extra.
pub static SCHEMA: Schema = Schema {
    tag: "gcl-bench/net-latency/v2",
    columns: &[
        col("family").key(),
        col("backend").key().need(Need::Is("async")),
        col("n").key(),
        col("f"),
        col("delta_us"),
        col("latency_us").gate(Gate::Lower(25.0)),
        col("agreement").need(Need::True),
        col("messages"),
        col("workers").need(Need::Positive),
        col("wakeups"),
        col("peak_out_bytes"),
    ],
    coverage: |rows| {
        let has = |key: &str, n: Option<usize>| {
            rows.iter().any(|r| {
                r.str("family") == Some(key) && n.is_none_or(|n| r.u64("n") == Some(n as u64))
            })
        };
        if let Some(key) = registry().keys().find(|key| !has(key, None)) {
            return Err(format!("no row for family {key:?}"));
        }
        for key in SCALE_FAMILIES {
            if let Some(n) = SCALE_NS.into_iter().find(|&n| !has(key, Some(n))) {
                return Err(format!("no scale row for family {key:?} at n = {n}"));
            }
        }
        Ok(())
    },
};

/// Per-run wall deadline of the catalog rows (honest termination exits
/// early, so the good case never waits it out).
const CATALOG_DEADLINE: Duration = Duration::from_secs(2);

/// Per-run wall deadline of the scale rows: the n = 1024 rows move ~2 M
/// real frames, so the ceiling is generous — a healthy run exits in
/// seconds.
const SCALE_DEADLINE: Duration = Duration::from_secs(120);

/// Families measured at scale: the pure event-loop
/// stress (`flood`, `O(n²)` trivial messages) and the crypto-bearing
/// 2-round broadcast (`brb2`, `O(n²)` signed votes).
pub(crate) const SCALE_FAMILIES: [&str; 2] = ["flood", "brb2"];

/// Party counts of the scale rows — up to the simulator's own largest
/// measured shape (`BENCH_sim.json` stops at n = 1024 too).
pub(crate) const SCALE_NS: [usize; 3] = [256, 512, 1024];

/// One family × shape wall-clock measurement.
#[derive(Debug, Clone)]
pub struct NetLatencyRow {
    /// Registered family key.
    pub(crate) family: &'static str,
    /// Wall backend that produced the row (`"async"`).
    pub(crate) backend: &'static str,
    /// Parties in the measured spec.
    pub(crate) n: usize,
    /// Fault budget.
    pub(crate) f: usize,
    /// Injected per-hop link latency in µs (the spec's δ').
    pub(crate) delta_us: u64,
    /// Measured good-case wall latency in µs (`None`: not every honest
    /// party committed — a liveness failure the check rejects).
    pub(crate) latency_us: Option<u64>,
    /// Whether agreement held.
    pub(crate) agreement: bool,
    /// Point-to-point messages delivered.
    pub(crate) messages: u64,
    /// Worker-pool scheduler counters.
    pub(crate) sched: Option<SchedCounters>,
}

impl NetLatencyRow {
    /// The row of one wall run of `family` on `backend`.
    fn of(family: &'static str, backend: &'static str, o: &Outcome) -> Self {
        NetLatencyRow {
            family,
            backend,
            n: o.config().n(),
            f: o.config().f(),
            delta_us: WALL_DELTA.as_micros(),
            latency_us: o.good_case_latency().map(|d| d.as_micros()),
            agreement: o.agreement_holds(),
            messages: o.messages_sent(),
            sched: o.sched_counters(),
        }
    }
}

/// Every `BENCH_net.json` row: one per registered family, taken from its
/// conformance cell's wall run, then the `SCALE_FAMILIES` ×
/// `SCALE_NS` grid (the worker pool at its default `min(cores, 8)`).
pub fn net_latency_rows() -> Vec<NetLatencyRow> {
    let cells = conformance_cells(CATALOG_DEADLINE).into_iter();
    let mut rows: Vec<_> = cells
        .map(|c| NetLatencyRow::of(c.family, c.backend, &c.wall))
        .collect();
    let backend = wall_backend(SCALE_DEADLINE);
    for key in SCALE_FAMILIES {
        for n in SCALE_NS {
            let o = registry().run_on(&scale_spec(key, n), &backend);
            let o = o.unwrap_or_else(|e| panic!("{key} n={n}: wall run rejected: {e}"));
            rows.push(NetLatencyRow::of(key, backend.name(), &o));
        }
    }
    rows
}

/// The wall-safe spec of one scale row: the family's conformance spec
/// reshaped to `(n, 1)`, with Δ' raised to seconds — at n = 1024 a single
/// good-case round is ~10⁶ frames of real socket I/O, so the conformance
/// Δ' (tens of ms) would let view timers fire spuriously mid-round.
/// Timers never fire on the good-case path, so the huge Δ' costs no wall
/// time.
pub(crate) fn scale_spec(key: &str, n: usize) -> ScenarioSpec {
    wall_spec(registry(), key)
        .with_shape(n, 1)
        .with_bounds(WALL_DELTA, SimDuration::from_millis(5_000))
}

/// Renders rows as the `BENCH_net.json` document.
pub fn render_json(rows: &[NetLatencyRow]) -> String {
    SCHEMA.render(
        vec![("delta_us", JVal::U64(WALL_DELTA.as_micros()))],
        rows.iter().map(|r| {
            vec![
                JVal::Str(r.family.into()),
                JVal::Str(r.backend.into()),
                JVal::U64(r.n as u64),
                JVal::U64(r.f as u64),
                JVal::U64(r.delta_us),
                JVal::opt_u64(r.latency_us),
                JVal::Bool(r.agreement),
                JVal::U64(r.messages),
                JVal::opt_u64(r.sched.map(|s| s.workers as u64)),
                JVal::opt_u64(r.sched.map(|s| s.wakeups)),
                JVal::opt_u64(r.sched.map(|s| s.peak_outbound_bytes as u64)),
            ]
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    type Edit = fn(&mut NetLatencyRow);

    #[test]
    fn rendered_rows_pass_their_own_check() {
        // Two fast families keep the unit test cheap; the full-catalog
        // document is exercised by the net_latency bin and its CI job.
        let (reg, backend) = (registry(), wall_backend(Duration::from_secs(2)));
        let rows = ["brb2", "one_round_brb"].map(|key| {
            let o = reg.run_on(&wall_spec(reg, key), &backend).unwrap();
            NetLatencyRow::of(key, backend.name(), &o)
        });
        // Both rows pass every cell; the partial document then fails
        // coverage (families are missing), which is what coverage is for.
        let err = SCHEMA.check(&render_json(&rows)).unwrap_err();
        assert!(err.contains("no row for family"), "{err}");
        // Each measured row carries a latency at or above the single-hop
        // floor, and the engine's scheduler counters.
        for r in &rows {
            assert_eq!(r.backend, "async");
            assert!(r.agreement, "{}", r.family);
            let lat = r.latency_us.expect("good case commits");
            assert!(
                lat >= r.delta_us,
                "{}: {lat}µs under the single-hop floor",
                r.family
            );
            assert!(r.sched.is_some(), "{}: sched counters", r.family);
        }
    }

    #[test]
    fn a_scale_row_measures_flood_beyond_the_conformance_shape() {
        // A miniature of the real grid (n = 48 instead of 256+ keeps the
        // unit test cheap): the wall engine must commit flood well past
        // the conformance (4, 1) shape and report its pool counters.
        let reg = registry();
        let spec = scale_spec("flood", 48);
        let o = reg
            .run_on(&spec, &wall_backend(Duration::from_secs(20)))
            .unwrap();
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed());
        assert_eq!(o.messages_sent(), 48 * 48);
        let sched = o.sched_counters().expect("async reports its pool");
        assert!(sched.workers >= 1);
        assert!(sched.wakeups > 0);
    }

    /// A committed-looking row without running anything.
    fn row(family: &'static str, n: usize) -> NetLatencyRow {
        NetLatencyRow {
            family,
            backend: "async",
            n,
            f: 1,
            delta_us: WALL_DELTA.as_micros(),
            latency_us: Some(5_000),
            agreement: true,
            messages: 16,
            sched: Some(SchedCounters {
                workers: 1,
                wakeups: 9,
                peak_outbound_bytes: 64,
            }),
        }
    }

    fn catalog() -> Vec<NetLatencyRow> {
        registry().keys().map(|key| row(key, 4)).collect()
    }

    /// Every row coverage asks for: the catalog, then the scale grid.
    fn full_grid() -> Vec<NetLatencyRow> {
        let scale = SCALE_FAMILIES
            .into_iter()
            .flat_map(|key| SCALE_NS.into_iter().map(move |n| row(key, n)));
        catalog().into_iter().chain(scale).collect()
    }

    /// `check` on the full grid with `edit` applied to its last row.
    fn check_with(edit: Edit) -> Result<usize, String> {
        let mut rows = full_grid();
        edit(rows.last_mut().unwrap());
        SCHEMA.check(&render_json(&rows))
    }

    #[test]
    fn check_requires_scale_rows_and_async_counters() {
        let err = SCHEMA.check(&render_json(&catalog())).unwrap_err();
        assert!(err.contains("scale row"), "{err}");
        assert_eq!(check_with(|_| {}), Ok(full_grid().len()));
        // A scale row that lost its counters fails the observability need.
        let err = check_with(|r| r.sched = None).unwrap_err();
        assert!(err.contains("workers is null"), "{err}");
        // A row from a retired engine is structural drift, not an extra.
        let mut rows = full_grid();
        rows.push(NetLatencyRow {
            backend: "socket",
            ..row("brb2", 4)
        });
        let err = SCHEMA.check(&render_json(&rows)).unwrap_err();
        assert!(err.contains("need Is(\"async\")"), "{err}");
    }

    #[test]
    fn every_row_is_audited_not_only_the_first_of_its_family() {
        // The catalog row of brb2 is healthy; a further brb2 row that
        // lost agreement or never committed must still fail the gate.
        let broken: [(&str, Edit); 2] = [
            ("agreement is false", |r| r.agreement = false),
            ("latency_us is null", |r| r.latency_us = None),
        ];
        for (what, edit) in broken {
            let mut rows = full_grid();
            let mut extra = row("brb2", 7);
            edit(&mut extra);
            rows.push(extra);
            let err = SCHEMA.check(&render_json(&rows)).unwrap_err();
            assert!(err.contains("family=brb2 backend=async n=7"), "{err}");
            assert!(err.contains(what), "{err}");
        }
        // Two rows with one identity: which one would a diff join?
        let mut rows = full_grid();
        rows.push(row("brb2", 4));
        let err = SCHEMA.check(&render_json(&rows)).unwrap_err();
        assert!(err.contains("duplicate"), "{err}");
    }

    #[test]
    fn latency_is_held_to_a_25x_cliff_and_nothing_finer() {
        let base = render_json(&full_grid());
        let diff_with = |edit: Edit| {
            let mut rows = full_grid();
            edit(rows.last_mut().unwrap());
            SCHEMA.diff(&base, &render_json(&rows))
        };
        diff_with(|r| r.latency_us = Some(60_000)).expect("12x is another machine");
        let err = diff_with(|r| r.latency_us = Some(2_000_000)).unwrap_err();
        assert!(
            err.contains("n=1024] latency_us went 5000 -> 2000000"),
            "{err}"
        );
        // Message and scheduler counters depend on timing; never judged.
        diff_with(|r| (r.messages, r.sched.as_mut().unwrap().wakeups) = (9, 1))
            .expect("unjudged columns");
    }

    #[test]
    fn check_rejects_malformed_documents() {
        assert!(SCHEMA.check("not json").is_err());
        let good = render_json(&full_grid());
        let err = SCHEMA
            .check(&good.replace("net-latency/v2", "net-latency/v1"))
            .unwrap_err();
        assert!(err.contains("schema is"), "v1 fails the v2 gate: {err}");
        let err = SCHEMA.check(&render_json(&[])).unwrap_err();
        assert!(err.contains("no row for family"), "{err}");
        // One broken field at a time, on an otherwise complete grid (a
        // lost agreement or latency: `every_row_is_audited_…` above).
        let err = check_with(|r| r.sched.as_mut().unwrap().workers = 0).unwrap_err();
        assert!(err.contains("workers is 0"), "{err}");
        let err = SCHEMA
            .check(&good.replace("\"wakeups\"", "\"wake_ups\""))
            .unwrap_err();
        assert!(err.contains("missing column \"wakeups\""), "{err}");
    }
}
