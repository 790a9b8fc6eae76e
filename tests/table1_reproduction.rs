//! End-to-end check that the measurement harness reproduces Table 1:
//! every row's measured good-case latency sits at (or under) the paper's
//! tight bound, and the round-counted rows are *exact*.

use gcl_bench::scenarios::BIG_DELTA;
use gcl_bench::{canonical, fig8_rows, majority_rows, run, table1_rows};
use gcl_types::Duration;

#[test]
fn every_row_of_table1_reproduces() {
    let rows = table1_rows();
    assert!(rows.len() >= 18, "all resilience bands covered");
    for row in &rows {
        assert!(
            row.matches(),
            "{} / {} (n={}, f={}): measured {}us exceeds bound {}us",
            row.problem,
            row.protocol,
            row.n,
            row.f,
            row.measured_us,
            row.bound_us
        );
    }
}

#[test]
fn round_counted_rows_are_exact() {
    for row in table1_rows() {
        let expected = match row.protocol {
            "2-round-BRB (Fig 1)" | "(5f-1)-psync-VBB (Fig 3)" => Some(2),
            "Bracha'87" | "PBFT-style (3 rounds)" => Some(3),
            _ => None,
        };
        if expected.is_some() {
            assert_eq!(row.rounds, expected, "protocol {}", row.protocol);
        }
    }
}

#[test]
fn sync_rows_hit_bounds_exactly_not_just_under() {
    // The sync-model measurements should *equal* the bound (the protocols
    // are tight, and the canonical schedule has no skew except the Fig 9
    // row which carries explicit 0.5δ skew slack).
    for row in table1_rows() {
        match row.protocol {
            "2delta-BB (Fig 10)" => assert_eq!(row.measured_us, 200, "2δ"),
            "(Delta+delta)-n/3-BB (Fig 5)" | "(Delta+delta)-BB (Fig 6)" => {
                assert_eq!(row.measured_us, 1_100, "Δ+δ")
            }
            "(Delta+1.5delta)-BB (Fig 9)" => {
                assert_eq!(
                    row.measured_us, 1_150,
                    "Δ+1.5δ — not an integer multiple of δ!"
                )
            }
            _ => {}
        }
    }
}

#[test]
fn two_delta_bb_tracks_the_actual_delta_not_the_conservative_bound() {
    // The δ/Δ separation the paper's synchronous rows rest on: with Δ
    // pinned at 1000µs, the 2δ-BB's good-case latency is 2δ for every
    // actual δ — it never waits out the conservative bound.
    for delta_us in [25u64, 50, 100, 200, 400] {
        let spec = canonical("bb_2delta", 4, 1)
            .with_seed(209)
            .with_bounds(Duration::from_micros(delta_us), BIG_DELTA);
        assert_eq!(
            run(&spec).good_case_latency(),
            Some(Duration::from_micros(2 * delta_us)),
            "delta = {delta_us}us, Delta = {BIG_DELTA}"
        );
    }
}

#[test]
fn fig8_series_matches_prediction_pointwise() {
    for row in fig8_rows(&[1, 2, 4, 5, 10, 20]) {
        assert_eq!(
            row.measured_us, row.predicted_us,
            "m = {}: measured vs (1 + 1/2m)Δ + 1.5δ",
            row.m
        );
    }
}

#[test]
fn fig8_communication_grows_linearly_in_m() {
    let rows = fig8_rows(&[5, 10, 20]);
    // O(mn²): doubling m should roughly double vote traffic; allow generous
    // slack for the non-vote messages.
    let m5 = rows[0].messages as f64;
    let m10 = rows[1].messages as f64;
    let m20 = rows[2].messages as f64;
    assert!(m10 / m5 > 1.5 && m10 / m5 < 2.5, "{m5} -> {m10}");
    assert!(m20 / m10 > 1.5 && m20 / m10 < 2.5, "{m10} -> {m20}");
}

#[test]
fn majority_latency_is_sandwiched_and_monotone() {
    let rows = majority_rows(&[(4, 2), (6, 4), (8, 6), (10, 8)]);
    let mut last = 0;
    for r in &rows {
        assert!(r.lower_bound_us <= r.measured_us, "n={}", r.n);
        assert!(r.measured_us <= r.upper_bound_us, "n={}", r.n);
        assert!(r.measured_us > last, "grows with n/(n−f)");
        last = r.measured_us;
    }
}
