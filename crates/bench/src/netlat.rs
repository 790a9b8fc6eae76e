//! The wall-clock latency trajectory: per-family good-case latencies on
//! the wall engine, rendered as the repo-root `BENCH_net.json`.
//!
//! `BENCH_sim.json` tracks simulator *throughput* per PR; this module
//! tracks wall-clock *runtime overhead* the same way. For every registered
//! family it runs the wall-safe conformance spec on the wall engine
//! ([`crate::conformance::wall_backend`]) and records the good-case wall
//! latency next to the spec's injected ideal — δ' per hop, so a 2-round
//! protocol's floor is `2δ'`. The gap between the measured column and the
//! floor is scheduler, codec and syscall overhead; watching it per PR is
//! how a runtime regression (a lost fast path, an accidental sleep) shows
//! up before anyone reads a profile.
//!
//! The **scale rows** are [`SCALE_FAMILIES`] × [`SCALE_NS`]: the readiness
//! loop multiplexes n = 1024 over a handful of workers. Every row carries
//! the engine's [`SchedCounters`]: worker-pool size, readiness wakeups,
//! and the peak outbound-queue depth, so a backpressure regression is
//! visible in the trajectory diff. Row identity is `(family, backend, n)`;
//! `backend` is `"async"` on every row (the `net` and `socket` columns
//! were retired with their engines).
//!
//! Wall numbers are machine-dependent, so unlike the throughput gate this
//! file's CI check ([`check_doc`]) validates *shape*, not speed: same
//! schema, every registered family present, every scale row present,
//! every row committed with agreement. Regeneration:
//!
//! ```text
//! cargo run --release -p gcl_bench --bin net_latency -- --out BENCH_net.json
//! ```

use crate::conformance::{wall_backend, wall_spec, WALL_DELTA};
use crate::json::{parse, JVal, RowsDoc, Value as JsonValue};
use crate::registry;
use gcl_sim::{Backend, ScenarioSpec, SchedCounters};
use gcl_types::Duration as SimDuration;
use std::time::Duration;

/// The `schema` field of every `BENCH_net.json` document. v2: row
/// identity is `(family, backend, n)` (the same family is measured at
/// several scales), rows carry scheduler counters.
pub const NET_SCHEMA: &str = "gcl-bench/net-latency/v2";

/// Families measured at scale: the pure event-loop
/// stress (`flood`, `O(n²)` trivial messages) and the crypto-bearing
/// 2-round broadcast (`brb2`, `O(n²)` signed votes).
pub const SCALE_FAMILIES: [&str; 2] = ["flood", "brb2"];

/// Party counts of the scale rows — up to the simulator's own largest
/// measured shape (`BENCH_sim.json` stops at n = 1024 too).
pub const SCALE_NS: [usize; 3] = [256, 512, 1024];

/// One family × shape wall-clock measurement.
#[derive(Debug, Clone)]
pub struct NetLatencyRow {
    /// Registered family key.
    pub family: &'static str,
    /// Wall backend that produced the row (`"async"`).
    pub backend: &'static str,
    /// Parties in the measured spec.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Injected per-hop link latency in µs (the spec's δ').
    pub delta_us: u64,
    /// Measured good-case wall latency in µs (`None`: not every honest
    /// party committed — a liveness failure the check rejects).
    pub latency_us: Option<u64>,
    /// Whether agreement held.
    pub agreement: bool,
    /// Point-to-point messages delivered.
    pub messages: u64,
    /// Worker-pool scheduler counters.
    pub sched: Option<SchedCounters>,
}

/// Measures one spec of family `key` on the wall engine.
fn measure(key: &'static str, spec: &ScenarioSpec, deadline: Duration) -> NetLatencyRow {
    let backend = wall_backend(deadline);
    let o = registry()
        .run_on(spec, &backend)
        .unwrap_or_else(|e| panic!("{key} n={}: wall run rejected: {e}", spec.n));
    NetLatencyRow {
        family: key,
        backend: backend.name(),
        n: spec.n,
        f: spec.f,
        delta_us: WALL_DELTA.as_micros(),
        latency_us: o.good_case_latency().map(|d| d.as_micros()),
        agreement: o.agreement_holds(),
        messages: o.messages_sent(),
        sched: o.sched_counters(),
    }
}

/// Runs every registered family's wall-safe spec on the wall engine (each
/// run bounded by `deadline`) and reports rows in family order.
pub fn net_latency_rows(deadline: Duration) -> Vec<NetLatencyRow> {
    let reg = registry();
    reg.keys()
        .map(|key| measure(key, &wall_spec(reg, key), deadline))
        .collect()
}

/// The wall-safe spec of one scale row: the family's conformance spec
/// reshaped to `(n, 1)`, with Δ' raised to seconds — at n = 1024 a single
/// good-case round is ~10⁶ frames of real socket I/O, so the conformance
/// Δ' (tens of ms) would let view timers fire spuriously mid-round.
/// Timers never fire on the good-case path, so the huge Δ' costs no wall
/// time.
pub fn scale_spec(key: &str, n: usize) -> ScenarioSpec {
    wall_spec(registry(), key)
        .with_shape(n, 1)
        .with_bounds(WALL_DELTA, SimDuration::from_millis(5_000))
}

/// Measures the [`SCALE_FAMILIES`] × [`SCALE_NS`] grid (the worker pool
/// at its default `min(cores, 8)`), each run bounded by `deadline` — pass
/// a generous one: the n = 1024 rows move ~2 M real frames.
pub fn scale_rows(deadline: Duration) -> Vec<NetLatencyRow> {
    SCALE_FAMILIES
        .iter()
        .flat_map(|&key| {
            SCALE_NS
                .iter()
                .map(move |&n| measure(key, &scale_spec(key, n), deadline))
        })
        .collect()
}

/// Renders rows as the `BENCH_net.json` document ([`RowsDoc`] format, the
/// same schema-plus-rows shape as every other trajectory file).
pub fn render_json(rows: &[NetLatencyRow]) -> String {
    let mut doc = RowsDoc::new(NET_SCHEMA);
    doc.top("delta_us", JVal::U64(WALL_DELTA.as_micros()));
    for r in rows {
        doc.row(vec![
            ("family", JVal::Str(r.family.into())),
            ("backend", JVal::Str(r.backend.into())),
            ("n", JVal::U64(r.n as u64)),
            ("f", JVal::U64(r.f as u64)),
            ("delta_us", JVal::U64(r.delta_us)),
            ("latency_us", r.latency_us.map_or(JVal::Null, JVal::U64)),
            ("agreement", JVal::Bool(r.agreement)),
            ("messages", JVal::U64(r.messages)),
            (
                "workers",
                r.sched.map_or(JVal::Null, |s| JVal::U64(s.workers as u64)),
            ),
            (
                "wakeups",
                r.sched.map_or(JVal::Null, |s| JVal::U64(s.wakeups)),
            ),
            (
                "peak_out_bytes",
                r.sched
                    .map_or(JVal::Null, |s| JVal::U64(s.peak_outbound_bytes as u64)),
            ),
        ]);
    }
    doc.render()
}

/// Structural CI check of a `BENCH_net.json` document: parseable, right
/// schema, one committed-with-agreement `"async"` row per registered
/// family, every [`SCALE_FAMILIES`] × [`SCALE_NS`] scale row present and
/// committed, and every row carrying scheduler counters. Deliberately **no** latency-regression gate — wall latency
/// is machine noise across CI runners; the trajectory file exists so
/// humans (and future tooling pinned to one machine) can diff the
/// overhead per PR.
///
/// # Errors
///
/// A human-readable description of the first structural violation.
pub fn check_doc(text: &str) -> Result<usize, String> {
    let doc = parse(text).map_err(|e| format!("malformed JSON: {e}"))?;
    check_parsed(&doc)
}

fn check_parsed(doc: &JsonValue) -> Result<usize, String> {
    if doc.field_str("schema") != Some(NET_SCHEMA) {
        return Err(format!(
            "schema is {:?}, expected {NET_SCHEMA:?}",
            doc.field_str("schema")
        ));
    }
    let rows = doc
        .field("rows")
        .and_then(JsonValue::as_array)
        .ok_or("missing rows array")?;
    // Every row is the wall engine's and must carry its worker-pool
    // observability columns.
    for row in rows {
        let label = row.field_str("family").unwrap_or("?");
        if row.field_str("backend") != Some("async") {
            return Err(format!(
                "{label}: backend is {:?}, expected \"async\"",
                row.field_str("backend")
            ));
        }
        match row.field_u64("workers") {
            Some(w) if w >= 1 => {}
            _ => return Err(format!("{label}/async: missing worker-pool size")),
        }
        if row.field_u64("wakeups").is_none() {
            return Err(format!("{label}/async: missing readiness-wakeup count"));
        }
    }
    for key in registry().keys() {
        let row = rows
            .iter()
            .find(|r| r.field_str("family") == Some(key))
            .ok_or_else(|| format!("no row for family {key:?}"))?;
        row_committed(row, key)?;
    }
    // The scale rows: every (family × n).
    for key in SCALE_FAMILIES {
        for n in SCALE_NS {
            let row = rows
                .iter()
                .find(|r| r.field_str("family") == Some(key) && r.field_u64("n") == Some(n as u64))
                .ok_or_else(|| format!("no scale row for family {key:?} at n = {n}"))?;
            row_committed(row, key)?;
        }
    }
    Ok(rows.len())
}

fn row_committed(row: &JsonValue, key: &str) -> Result<(), String> {
    if row.field_bool("agreement") != Some(true) {
        return Err(format!("{key}/async: agreement violated"));
    }
    if row.field_u64("latency_us").is_none() {
        return Err(format!(
            "{key}/async: no good-case latency (liveness failure)"
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rendered_rows_pass_their_own_check() {
        // Two fast families keep the unit test cheap; the full-catalog
        // document is exercised by the net_latency bin and its CI job.
        let reg = registry();
        let rows: Vec<NetLatencyRow> = ["brb2", "one_round_brb"]
            .iter()
            .map(|key| {
                let key = reg.family(key).unwrap().key();
                measure(key, &wall_spec(reg, key), Duration::from_secs(2))
            })
            .collect();
        let doc = render_json(&rows);
        let parsed = parse(&doc).expect("well-formed");
        assert_eq!(parsed.field_str("schema"), Some(NET_SCHEMA));
        // The partial document fails the full-catalog check (families are
        // missing), which is exactly what the check is for.
        assert!(check_doc(&doc).is_err(), "partial catalog must be rejected");
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

    #[test]
    fn check_requires_scale_rows_and_async_counters() {
        // Synthesize a full catalog without running anything: every
        // family row present and committed, but no scale rows — the gate
        // must reject it.
        let reg = registry();
        let catalog_row = |key: &str, backend: &str, sched: bool| {
            vec![
                ("family", JVal::Str(key.into())),
                ("backend", JVal::Str(backend.into())),
                ("n", JVal::U64(4)),
                ("f", JVal::U64(1)),
                ("latency_us", JVal::U64(5_000)),
                ("agreement", JVal::Bool(true)),
                ("workers", if sched { JVal::U64(1) } else { JVal::Null }),
                ("wakeups", if sched { JVal::U64(9) } else { JVal::Null }),
            ]
        };
        let catalog = |doc: &mut RowsDoc| {
            for key in reg.keys() {
                doc.row(catalog_row(key, "async", true));
            }
        };
        let mut doc = RowsDoc::new(NET_SCHEMA);
        catalog(&mut doc);
        let err = check_doc(&doc.render()).unwrap_err();
        assert!(err.contains("scale row"), "{err}");

        // With the scale rows present but one missing its counters, the
        // observability gate fires.
        let scale = |doc: &mut RowsDoc, counters_at_512: bool| {
            for key in SCALE_FAMILIES {
                for n in SCALE_NS {
                    let mut row = catalog_row(key, "async", n != 512 || counters_at_512);
                    row[2] = ("n", JVal::U64(n as u64));
                    doc.row(row);
                }
            }
        };
        let mut doc = RowsDoc::new(NET_SCHEMA);
        catalog(&mut doc);
        scale(&mut doc, false);
        let err = check_doc(&doc.render()).unwrap_err();
        assert!(err.contains("worker-pool size"), "{err}");

        // A row from a retired engine is structural drift, not an extra.
        let mut doc = RowsDoc::new(NET_SCHEMA);
        catalog(&mut doc);
        scale(&mut doc, true);
        assert!(
            check_doc(&doc.render()).is_ok(),
            "the full async grid passes"
        );
        doc.row(catalog_row("brb2", "socket", false));
        let err = check_doc(&doc.render()).unwrap_err();
        assert!(err.contains("expected \"async\""), "{err}");
    }

    #[test]
    fn check_rejects_malformed_documents() {
        assert!(check_doc("not json").is_err());
        assert!(check_doc("{\"schema\": \"other/v9\", \"rows\": []}").is_err());
        assert!(
            check_doc("{\"schema\": \"gcl-bench/net-latency/v1\", \"rows\": []}").is_err(),
            "v1 documents no longer pass the v2 gate"
        );
        let empty = format!("{{\"schema\": \"{NET_SCHEMA}\", \"rows\": []}}");
        let err = check_doc(&empty).unwrap_err();
        assert!(err.contains("no row for family"), "{err}");
    }
}
