//! Wall-trajectory diffing: a fresh `BENCH_net.json` / `BENCH_smr.json`
//! measurement against the committed baseline.
//!
//! The per-document structure checks ([`netlat`], [`smrload`]) validate
//! one document in isolation; they deliberately say nothing about how a
//! fresh measurement *relates* to the committed one, so a PR could
//! silently drop a scenario row, rename a column, or make the serving
//! pipeline 100× slower and the gates would still pass. This module
//! closes that hole: [`diff_docs`] joins the two documents row-by-row and
//! fails on
//!
//! * **structural drift** — schema mismatch, a baseline row with no
//!   fresh counterpart (a scenario disappeared), a fresh row with no
//!   baseline counterpart (the committed file is stale), or matched rows
//!   whose column sets differ;
//! * **gross regression** — a matched metric worse than the baseline by
//!   more than `factor` (default [`DEFAULT_FACTOR`]×).
//!
//! The regression factor is deliberately enormous: wall numbers bounce
//! around across CI runners, so a tight gate would be flake, not signal.
//! What a 25× bound *does* catch is categorical breakage — an early-exit
//! path regressing to sleep-to-deadline, a serving path that only
//! commits on retransmission — while letting ordinary machine noise
//! through. Tighter judgement stays with humans reading the committed
//! trajectory diff in review.
//!
//! Rows are keyed by their identity columns, not their position:
//! `(family, backend, n)` for the net-latency trajectory (the async
//! backend measures the same family at several scales),
//! `(backend, batch, pipeline, n, f, crashes)` for the SMR serving
//! trajectory, and `scenario` for the simulator-throughput trajectory, so
//! reordering rows is not drift but re-shaping a scenario is.
//!
//! [`netlat`]: crate::netlat
//! [`smrload`]: crate::smrload

use crate::json::{parse, Value};
use crate::netlat::NET_SCHEMA;
use crate::smrload::SMR_SCHEMA;
use crate::throughput::SIM_SCHEMA;

/// Default gross-regression bound: a metric may be up to this many times
/// worse than the committed baseline before the diff fails.
pub const DEFAULT_FACTOR: f64 = 25.0;

/// Which direction of change is a regression for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Better {
    /// Smaller is better (latencies).
    Lower,
    /// Larger is better (rates).
    Higher,
}

/// A gated metric column of one trajectory schema.
struct Metric {
    field: &'static str,
    better: Better,
}

/// The identity and metric columns of one known trajectory schema.
struct Shape {
    /// Columns whose values form a row's identity.
    key: &'static [&'static str],
    /// Columns gated against gross regression.
    metrics: &'static [Metric],
}

fn shape_of(schema: &str) -> Option<Shape> {
    match schema {
        s if s == NET_SCHEMA => Some(Shape {
            key: &["family", "backend", "n"],
            metrics: &[Metric {
                field: "latency_us",
                better: Better::Lower,
            }],
        }),
        s if s == SMR_SCHEMA => Some(Shape {
            key: &["backend", "batch", "pipeline", "n", "f", "crashes"],
            metrics: &[
                Metric {
                    field: "commits_per_sec",
                    better: Better::Higher,
                },
                Metric {
                    field: "p50_us",
                    better: Better::Lower,
                },
            ],
        }),
        s if s == SIM_SCHEMA => Some(Shape {
            key: &["scenario"],
            metrics: &[
                Metric {
                    field: "events_per_sec",
                    better: Better::Higher,
                },
                // Deterministic, not noisy: a jump in MACs actually
                // computed means a verify cache stopped amortizing.
                Metric {
                    field: "verify_macs",
                    better: Better::Lower,
                },
                // Retained event-queue memory: a jump means the slab or
                // the calendar directories stopped recycling.
                Metric {
                    field: "queue_bytes",
                    better: Better::Lower,
                },
                // Deterministic like verify_macs: a jump means parties
                // are flooding dead recipients harder — protocol-level
                // termination drift, not measurement noise. (All-zero
                // scenarios are skipped by the positive-value guard.)
                Metric {
                    field: "drops_at_enqueue",
                    better: Better::Lower,
                },
            ],
        }),
        _ => None,
    }
}

/// Renders a row's identity columns as a stable display/join key.
fn row_key(row: &Value, key: &[&str], i: usize) -> Result<String, String> {
    let mut parts = Vec::with_capacity(key.len());
    for col in key {
        let part = match row.field(col) {
            Some(Value::String(s)) => s.clone(),
            Some(Value::Number(x)) => format!("{x}"),
            _ => return Err(format!("row {i}: missing identity column {col:?}")),
        };
        parts.push(format!("{col}={part}"));
    }
    Ok(parts.join(" "))
}

/// Indexes a parsed document's rows by identity key.
fn index_rows<'doc>(
    doc: &'doc Value,
    shape: &Shape,
    which: &str,
) -> Result<Vec<(String, &'doc Value)>, String> {
    let rows = doc
        .field("rows")
        .and_then(Value::as_array)
        .ok_or_else(|| format!("{which}: missing rows array"))?;
    let mut indexed = Vec::with_capacity(rows.len());
    for (i, row) in rows.iter().enumerate() {
        let key = row_key(row, shape.key, i).map_err(|e| format!("{which}: {e}"))?;
        if indexed.iter().any(|(k, _)| *k == key) {
            return Err(format!("{which}: duplicate row [{key}]"));
        }
        indexed.push((key, row));
    }
    Ok(indexed)
}

/// Diffs a fresh trajectory document against the committed baseline.
///
/// Both texts must parse, share a known schema, and join row-for-row on
/// the schema's identity columns with identical column sets; every gated
/// metric must stay within `factor`× of the baseline. Returns a short
/// human-readable summary of the worst observed ratio.
///
/// # Errors
///
/// A description of the first structural drift or gross regression.
pub fn diff_docs(baseline: &str, fresh: &str, factor: f64) -> Result<String, String> {
    let baseline = parse(baseline).map_err(|e| format!("baseline: malformed JSON: {e}"))?;
    let fresh = parse(fresh).map_err(|e| format!("fresh: malformed JSON: {e}"))?;

    let schema = baseline
        .field_str("schema")
        .ok_or("baseline: missing schema")?;
    let fresh_schema = fresh.field_str("schema").ok_or("fresh: missing schema")?;
    if schema != fresh_schema {
        return Err(format!(
            "schema drift: baseline {schema:?} vs fresh {fresh_schema:?}"
        ));
    }
    let shape = shape_of(schema).ok_or_else(|| format!("unknown trajectory schema {schema:?}"))?;

    let base_rows = index_rows(&baseline, &shape, "baseline")?;
    let fresh_rows = index_rows(&fresh, &shape, "fresh")?;
    for (key, _) in &base_rows {
        if !fresh_rows.iter().any(|(k, _)| k == key) {
            return Err(format!(
                "structural drift: baseline row [{key}] has no fresh counterpart \
                 (scenario disappeared from the harness?)"
            ));
        }
    }
    for (key, _) in &fresh_rows {
        if !base_rows.iter().any(|(k, _)| k == key) {
            return Err(format!(
                "structural drift: fresh row [{key}] is not in the baseline \
                 (regenerate the committed trajectory file)"
            ));
        }
    }

    let mut worst: Option<(f64, String)> = None;
    for (key, base_row) in &base_rows {
        let fresh_row = fresh_rows
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, r)| *r)
            .expect("join checked above");
        let base_cols: Vec<&String> = base_row
            .as_object()
            .ok_or_else(|| format!("baseline row [{key}] is not an object"))?
            .keys()
            .collect();
        let fresh_cols: Vec<&String> = fresh_row
            .as_object()
            .ok_or_else(|| format!("fresh row [{key}] is not an object"))?
            .keys()
            .collect();
        if base_cols != fresh_cols {
            return Err(format!(
                "structural drift: row [{key}] columns differ \
                 (baseline {base_cols:?} vs fresh {fresh_cols:?})"
            ));
        }
        for m in shape.metrics {
            let (Some(b), Some(f)) = (base_row.field_f64(m.field), fresh_row.field_f64(m.field))
            else {
                // A null metric (e.g. no measured latency) is caught by
                // the per-document structure checks; the diff only gates
                // values both documents actually measured.
                continue;
            };
            if b <= 0.0 || f <= 0.0 {
                continue;
            }
            let ratio = match m.better {
                Better::Lower => f / b,
                Better::Higher => b / f,
            };
            if ratio > factor {
                return Err(format!(
                    "gross regression: row [{key}] {} went {b:.1} -> {f:.1} \
                     ({ratio:.1}x worse; bound {factor}x)",
                    m.field
                ));
            }
            if worst.as_ref().is_none_or(|(w, _)| ratio > *w) {
                worst = Some((ratio, format!("[{key}] {}", m.field)));
            }
        }
    }

    Ok(match worst {
        Some((ratio, label)) => format!(
            "{} rows matched; worst metric ratio {ratio:.2}x ({label}; bound {factor}x)",
            base_rows.len()
        ),
        None => format!("{} rows matched; no comparable metrics", base_rows.len()),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn net_doc(rows: &[(&str, &str, u64, u64)]) -> String {
        let body: Vec<String> = rows
            .iter()
            .map(|(fam, be, n, lat)| {
                format!(
                    "{{\"family\": \"{fam}\", \"backend\": \"{be}\", \"n\": {n}, \
                     \"latency_us\": {lat}, \"agreement\": true}}"
                )
            })
            .collect();
        format!(
            "{{\"schema\": \"{NET_SCHEMA}\", \"rows\": [{}]}}",
            body.join(", ")
        )
    }

    #[test]
    fn identical_documents_pass() {
        let doc = net_doc(&[("flood", "async", 4, 2000), ("bracha", "async", 4, 2500)]);
        let summary = diff_docs(&doc, &doc, DEFAULT_FACTOR).expect("identity diff passes");
        assert!(summary.contains("2 rows matched"), "{summary}");
    }

    #[test]
    fn scale_rows_are_distinct_by_n() {
        // The wall engine measures the same family at several shapes;
        // the n column keeps those rows distinct identities.
        let base = net_doc(&[
            ("flood", "async", 4, 2300),
            ("flood", "async", 256, 90_000),
            ("flood", "async", 1024, 900_000),
        ]);
        let summary = diff_docs(&base, &base, DEFAULT_FACTOR).expect("per-n rows join");
        assert!(summary.contains("3 rows matched"), "{summary}");
        // Dropping one scale point is structural drift, not noise.
        let shrunk = net_doc(&[("flood", "async", 4, 2300), ("flood", "async", 256, 90_000)]);
        let err = diff_docs(&base, &shrunk, DEFAULT_FACTOR).unwrap_err();
        assert!(err.contains("no fresh counterpart"), "{err}");
    }

    #[test]
    fn noise_within_factor_passes_and_gross_regression_fails() {
        let base = net_doc(&[("flood", "async", 4, 2000)]);
        let noisy = net_doc(&[("flood", "async", 4, 9000)]);
        diff_docs(&base, &noisy, DEFAULT_FACTOR).expect("4.5x is machine noise");
        // An improvement is never a regression, however large.
        diff_docs(
            &base,
            &net_doc(&[("flood", "async", 4, 10)]),
            DEFAULT_FACTOR,
        )
        .expect("fast is fine");
        let broken = net_doc(&[("flood", "async", 4, 2_000_000)]);
        let err = diff_docs(&base, &broken, DEFAULT_FACTOR).unwrap_err();
        assert!(err.contains("gross regression"), "{err}");
        assert!(err.contains("latency_us"), "{err}");
    }

    #[test]
    fn missing_and_extra_rows_are_structural_drift() {
        let base = net_doc(&[("flood", "async", 4, 2000), ("bracha", "async", 4, 6000)]);
        let missing = net_doc(&[("flood", "async", 4, 2000)]);
        let err = diff_docs(&base, &missing, DEFAULT_FACTOR).unwrap_err();
        assert!(err.contains("no fresh counterpart"), "{err}");
        let extra = net_doc(&[
            ("flood", "async", 4, 2000),
            ("bracha", "async", 4, 6000),
            ("pbft3", "async", 4, 7000),
        ]);
        let err = diff_docs(&base, &extra, DEFAULT_FACTOR).unwrap_err();
        assert!(err.contains("not in the baseline"), "{err}");
        // Reordering rows is NOT drift: the join is by identity columns.
        let reordered = net_doc(&[("bracha", "async", 4, 6000), ("flood", "async", 4, 2000)]);
        diff_docs(&base, &reordered, DEFAULT_FACTOR).expect("order is irrelevant");
    }

    #[test]
    fn column_drift_and_schema_drift_fail() {
        let base = net_doc(&[("flood", "async", 4, 2000)]);
        let renamed = format!(
            "{{\"schema\": \"{NET_SCHEMA}\", \"rows\": [{{\"family\": \"flood\", \
             \"backend\": \"async\", \"n\": 4, \"lat_us\": 2000, \"agreement\": true}}]}}"
        );
        let err = diff_docs(&base, &renamed, DEFAULT_FACTOR).unwrap_err();
        assert!(err.contains("columns differ"), "{err}");
        let other_schema = base.replace(NET_SCHEMA, "gcl-bench/net-latency/v9");
        let err = diff_docs(&base, &other_schema, DEFAULT_FACTOR).unwrap_err();
        assert!(err.contains("schema drift"), "{err}");
        let err = diff_docs(&other_schema, &other_schema, DEFAULT_FACTOR).unwrap_err();
        assert!(err.contains("unknown trajectory schema"), "{err}");
        assert!(diff_docs("nope", &base, DEFAULT_FACTOR).is_err());
    }

    #[test]
    fn smr_rows_gate_rate_and_ack_latency() {
        let row = |rate: f64, p50: u64| {
            format!(
                "{{\"backend\": \"async\", \"batch\": 4, \"pipeline\": 4, \"n\": 4, \
                 \"f\": 1, \"crashes\": 0, \
                 \"commits_per_sec\": {rate}, \"p50_us\": {p50}}}"
            )
        };
        let doc = |rate: f64, p50: u64| {
            format!(
                "{{\"schema\": \"{SMR_SCHEMA}\", \"rows\": [{}]}}",
                row(rate, p50)
            )
        };
        diff_docs(&doc(1000.0, 8000), &doc(400.0, 30000), DEFAULT_FACTOR)
            .expect("ordinary noise passes");
        // A serving pipeline that slowed 100x is categorical breakage.
        let err = diff_docs(&doc(1000.0, 8000), &doc(9.0, 8000), DEFAULT_FACTOR).unwrap_err();
        assert!(err.contains("commits_per_sec"), "{err}");
        let err = diff_docs(&doc(1000.0, 8000), &doc(1000.0, 900_000), DEFAULT_FACTOR).unwrap_err();
        assert!(err.contains("p50_us"), "{err}");
    }

    #[test]
    fn sim_rows_gate_throughput_and_verifier_work() {
        let doc = |eps: f64, macs: u64| {
            format!(
                "{{\"schema\": \"{SIM_SCHEMA}\", \"rows\": [{{\"scenario\": \"brb2_n256_f85\", \
                 \"events_per_sec\": {eps}, \"verify_macs\": {macs}}}]}}"
            )
        };
        diff_docs(&doc(50_000.0, 1000), &doc(20_000.0, 1000), DEFAULT_FACTOR)
            .expect("ordinary noise passes");
        let err = diff_docs(&doc(50_000.0, 1000), &doc(100.0, 1000), DEFAULT_FACTOR).unwrap_err();
        assert!(err.contains("events_per_sec"), "{err}");
        // A verify cache that stopped amortizing shows up as a
        // deterministic explosion in MACs computed.
        let err = diff_docs(
            &doc(50_000.0, 1000),
            &doc(50_000.0, 700_000),
            DEFAULT_FACTOR,
        )
        .unwrap_err();
        assert!(err.contains("verify_macs"), "{err}");
    }

    #[test]
    fn sim_rows_gate_queue_memory_and_enqueue_drops() {
        let doc = |bytes: u64, drops: u64| {
            format!(
                "{{\"schema\": \"{SIM_SCHEMA}\", \"rows\": [{{\"scenario\": \"brb2_n1024_f341\", \
                 \"events_per_sec\": 1000000.0, \"queue_bytes\": {bytes}, \
                 \"drops_at_enqueue\": {drops}}}]}}"
            )
        };
        diff_docs(
            &doc(500_000, 1_400_000),
            &doc(600_000, 1_400_000),
            DEFAULT_FACTOR,
        )
        .expect("small retained-memory drift passes");
        // A slab or directory that stopped recycling is a deterministic
        // memory blow-up, not noise.
        let err = diff_docs(
            &doc(500_000, 1_400_000),
            &doc(500_000_000, 1_400_000),
            DEFAULT_FACTOR,
        )
        .unwrap_err();
        assert!(err.contains("queue_bytes"), "{err}");
        // Drop counts are exact per scenario; a 30x jump means parties
        // now flood dead recipients that used to be live.
        let err = diff_docs(
            &doc(500_000, 40_000),
            &doc(500_000, 1_400_000),
            DEFAULT_FACTOR,
        )
        .unwrap_err();
        assert!(err.contains("drops_at_enqueue"), "{err}");
        // Zero-drop scenarios (all-honest floods) are skipped, never
        // divided by.
        diff_docs(&doc(500_000, 0), &doc(500_000, 0), DEFAULT_FACTOR).expect("zeros skipped");
    }

    #[test]
    fn committed_baselines_diff_cleanly_against_themselves() {
        // The repo-root trajectory files must be valid diff inputs — this
        // is what CI runs (against a fresh measurement) on every push.
        for path in [
            "../../BENCH_net.json",
            "../../BENCH_smr.json",
            "../../BENCH_sim.json",
        ] {
            let text = std::fs::read_to_string(path).expect(path);
            let summary = diff_docs(&text, &text, DEFAULT_FACTOR).expect(path);
            assert!(summary.contains("rows matched"), "{summary}");
        }
    }
}
