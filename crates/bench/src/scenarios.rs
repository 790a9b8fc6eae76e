//! The measured scenarios behind every table/figure row — all built from
//! registry [`ScenarioSpec`]s.
//!
//! Until PR 3 this module hand-wired one `run_*` function per protocol
//! (534 lines of builder glue, duplicated again in `throughput.rs`, four
//! criterion benches, the examples and the integration suites). Every
//! consumer now goes through [`crate::registry`]: a row is a spec plus
//! presentation metadata, and adding a protocol variant is **one**
//! `register_fn` in its `gcl_core` module.

use crate::registry;
use gcl_core::lower_bounds::theorem19;
use gcl_sim::{Outcome, ScenarioSpec, SkewChoice};
use gcl_types::{Config, Duration};

/// Canonical δ for all scenarios: 100µs.
pub(crate) const DELTA: Duration = Duration::from_micros(100);
/// Canonical conservative Δ: 1000µs (δ ≪ Δ, as in practice).
pub const BIG_DELTA: Duration = Duration::from_micros(1_000);

/// The registered family's canonical spec at shape `(n, f)` — keychain
/// seed, timing model, δ/Δ, skew and adversary mix all come from the
/// family's registration.
///
/// # Panics
///
/// Panics if `family` is not registered.
pub fn canonical(family: &str, n: usize, f: usize) -> ScenarioSpec {
    registry()
        .spec(family)
        .unwrap_or_else(|e| panic!("{e}"))
        .with_shape(n, f)
}

/// Runs one spec through the registry.
///
/// # Panics
///
/// Panics (with the offending label) if the spec's family is unknown or
/// the shape is outside the family's resilience band — the canonical
/// tables are all statically in-band.
pub fn run(spec: &ScenarioSpec) -> Outcome {
    registry()
        .run(spec)
        .unwrap_or_else(|e| panic!("{}: {e}", spec.label()))
}

/// One measured row of the Table 1 reproduction.
#[derive(Debug, Clone)]
pub struct Table1Row {
    /// Table row label (problem + timing model).
    pub problem: &'static str,
    /// Resilience band.
    pub resilience: &'static str,
    /// Protocol under test.
    pub protocol: &'static str,
    /// `(n, f)` used.
    pub n: usize,
    /// `(n, f)` used.
    pub f: usize,
    /// The paper's tight bound, rendered.
    pub paper: String,
    /// Measured good-case latency in µs.
    pub measured_us: u64,
    /// Measured commit round (causal depth), where meaningful.
    pub rounds: Option<u32>,
    /// The bound evaluated at the canonical δ/Δ, in µs.
    pub bound_us: u64,
}

impl Table1Row {
    /// Whether the measurement matches the paper's bound exactly (for
    /// round-measured rows) or within one δ (time-measured rows with
    /// skewed starts).
    pub fn matches(&self) -> bool {
        self.measured_us <= self.bound_us
    }
}

/// Presentation metadata + the paper bound for one Table 1 band; the
/// measurements come from the family's registry spec.
struct Table1Def {
    family: &'static str,
    problem: &'static str,
    resilience: &'static str,
    protocol: &'static str,
    shapes: &'static [(usize, usize)],
    paper: fn(Config) -> String,
    /// The bound at the canonical δ/Δ; `rounds` flags round-counted rows.
    bound_us: fn(Config) -> u64,
    rounds_counted: bool,
}

/// The declarative Table 1: every band, its family key, and its bound.
fn table1_defs() -> Vec<Table1Def> {
    const D: u64 = DELTA.as_micros();
    const BIG: u64 = BIG_DELTA.as_micros();
    vec![
        Table1Def {
            family: "brb2",
            problem: "BRB / asynchrony",
            resilience: "n >= 3f+1",
            protocol: "2-round-BRB (Fig 1)",
            shapes: &[(4, 1), (7, 2), (10, 3)],
            paper: |_| "2 rounds".into(),
            bound_us: |_| 2 * D,
            rounds_counted: true,
        },
        Table1Def {
            family: "bracha",
            problem: "BRB / asynchrony (baseline)",
            resilience: "n >= 3f+1",
            protocol: "Bracha'87",
            shapes: &[(4, 1)],
            paper: |_| "3 rounds (unauth UB)".into(),
            bound_us: |_| 3 * D,
            rounds_counted: true,
        },
        Table1Def {
            family: "vbb5f1",
            problem: "psync-BB / partial synchrony",
            resilience: "n >= 5f-1",
            protocol: "(5f-1)-psync-VBB (Fig 3)",
            shapes: &[(4, 1), (9, 2), (14, 3)],
            paper: |_| "2 rounds".into(),
            bound_us: |_| 2 * D,
            rounds_counted: true,
        },
        Table1Def {
            family: "pbft3",
            problem: "psync-BB / partial synchrony",
            resilience: "3f+1 <= n <= 5f-2",
            protocol: "PBFT-style (3 rounds)",
            shapes: &[(8, 2), (11, 3)],
            paper: |_| "3 rounds".into(),
            bound_us: |_| 3 * D,
            rounds_counted: true,
        },
        Table1Def {
            family: "bb_2delta",
            problem: "BB / synchrony",
            resilience: "0 < f < n/3",
            protocol: "2delta-BB (Fig 10)",
            shapes: &[(4, 1), (10, 3)],
            paper: |_| "2*delta".into(),
            bound_us: |_| 2 * D,
            rounds_counted: false,
        },
        Table1Def {
            family: "bb_third",
            problem: "BB / synchrony",
            resilience: "f = n/3",
            protocol: "(Delta+delta)-n/3-BB (Fig 5)",
            shapes: &[(3, 1), (6, 2)],
            paper: |_| "Delta + delta".into(),
            bound_us: |_| BIG + D,
            rounds_counted: false,
        },
        Table1Def {
            family: "bb_sync_start",
            problem: "BB / synchrony (sync start)",
            resilience: "n/3 < f < n/2",
            protocol: "(Delta+delta)-BB (Fig 6)",
            shapes: &[(5, 2), (7, 3)],
            paper: |_| "Delta + delta".into(),
            bound_us: |_| BIG + D,
            rounds_counted: false,
        },
        Table1Def {
            family: "bb_unsync",
            problem: "BB / synchrony (unsync start)",
            resilience: "n/3 < f < n/2",
            protocol: "(Delta+1.5delta)-BB (Fig 9)",
            shapes: &[(5, 2), (7, 3)],
            paper: |_| "Delta + 1.5*delta".into(),
            // + σ = 0.5δ slack for the skewed laggards.
            bound_us: |_| BIG + D + D / 2 + D / 2,
            rounds_counted: false,
        },
        Table1Def {
            family: "bb_majority",
            problem: "BB / synchrony (dishonest majority)",
            resilience: "n/2 <= f < n",
            protocol: "TrustCast fast-path (Wan et al.)",
            shapes: &[(4, 2), (6, 4), (10, 8)],
            paper: |cfg| {
                format!(
                    "[{}Delta, O(n/(n-f))Delta]",
                    cfg.majority_lower_bound_factor()
                )
            },
            bound_us: |cfg| theorem19::upper_bound(cfg, BIG_DELTA).as_micros(),
            rounds_counted: false,
        },
    ]
}

fn lat(o: &Outcome) -> u64 {
    o.good_case_latency()
        .expect("good case must commit")
        .as_micros()
}

/// Every row of Table 1, measured from registry specs.
pub fn table1_rows() -> Vec<Table1Row> {
    let mut rows = Vec::new();
    for def in table1_defs() {
        for &(n, f) in def.shapes {
            let cfg = Config::new(n, f).expect("config");
            let o = run(&canonical(def.family, n, f));
            rows.push(Table1Row {
                problem: def.problem,
                resilience: def.resilience,
                protocol: def.protocol,
                n,
                f,
                paper: (def.paper)(cfg),
                measured_us: lat(&o),
                rounds: def.rounds_counted.then(|| o.good_case_rounds()).flatten(),
                bound_us: (def.bound_us)(cfg),
            });
        }
    }
    rows
}

/// One point of the Figure 8 tradeoff sweep.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Grid resolution.
    pub m: u64,
    /// Measured good-case latency (µs).
    pub measured_us: u64,
    /// The paper's predicted `(1 + 1/2m)Δ + 1.5δ` (µs).
    pub predicted_us: u64,
    /// Point-to-point messages sent.
    pub messages: u64,
}

/// The spec behind one Figure 8 point: the `bb_unsync` family at
/// `(5, 2)`, synchronized start (so the measurement is exact), grid `m`.
pub(crate) fn fig8_spec(m: u64) -> ScenarioSpec {
    canonical("bb_unsync", 5, 2)
        .with_seed(208)
        .with_skew(SkewChoice::Synchronized)
        .with_m(m)
}

/// The Figure 8 sweep: latency and message cost vs grid resolution `m`.
pub fn fig8_rows(ms: &[u64]) -> Vec<Fig8Row> {
    ms.iter()
        .map(|&m| {
            let o = run(&fig8_spec(m));
            // Predicted: commit at δ + Δ + 0.5·d* with d* = δ rounded up to
            // the grid = min over grid points ≥ δ; the paper's summary form
            // is (1 + 1/2m)Δ + 1.5δ.
            let grid_step = BIG_DELTA.as_micros() / m;
            let d_star = DELTA.as_micros().div_ceil(grid_step) * grid_step;
            let predicted = DELTA.as_micros() + BIG_DELTA.as_micros() + d_star / 2;
            Fig8Row {
                m,
                measured_us: o.good_case_latency().expect("commits").as_micros(),
                predicted_us: predicted,
                messages: o.messages_sent(),
            }
        })
        .collect()
}

/// One point of the dishonest-majority scaling series.
#[derive(Debug, Clone)]
pub struct MajorityRow {
    /// Parties.
    pub n: usize,
    /// `⌊n/(n−f)⌋ − 1` lower-bound factor.
    pub lower_bound_us: u64,
    /// Measured (µs).
    pub measured_us: u64,
    /// Implementation upper bound (µs).
    pub upper_bound_us: u64,
}

/// The Theorem 19 / Section 5.5 scaling series (the `bb_majority` family
/// with its canonical all-`f`-silent adversary mix).
pub fn majority_rows(pairs: &[(usize, usize)]) -> Vec<MajorityRow> {
    pairs
        .iter()
        .map(|&(n, f)| {
            let cfg = Config::new(n, f).expect("config");
            let o = run(&canonical("bb_majority", n, f));
            MajorityRow {
                n,
                lower_bound_us: theorem19::lower_bound(cfg, BIG_DELTA).as_micros(),
                measured_us: o.good_case_latency().expect("commits").as_micros(),
                upper_bound_us: theorem19::upper_bound(cfg, BIG_DELTA).as_micros(),
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_shapes_all_inside_registered_bands() {
        let reg = crate::registry();
        for def in table1_defs() {
            let family = reg
                .family(def.family)
                .unwrap_or_else(|| panic!("table references unregistered family {:?}", def.family));
            for &(n, f) in def.shapes {
                assert!(
                    family.admission().admits(n, f),
                    "{}: ({n}, {f}) outside {}",
                    def.family,
                    family.admission().describe()
                );
            }
        }
    }

    #[test]
    fn fig8_monotone_latency_and_messages() {
        let rows = fig8_rows(&[1, 2, 5, 10]);
        for w in rows.windows(2) {
            assert!(w[1].measured_us <= w[0].measured_us, "latency shrinks");
            assert!(w[1].messages >= w[0].messages, "messages grow");
        }
        for r in &rows {
            assert_eq!(r.measured_us, r.predicted_us, "m={}", r.m);
        }
    }
}
