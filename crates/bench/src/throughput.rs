//! Simulator-throughput scenarios: the perf trajectory's point 0.
//!
//! Every number the workspace produces flows through the event loop in
//! `gcl_sim`, so events/second on these fixed scenarios is the ceiling on
//! how many executions (and how large an `n`) the repo can explore. The
//! `throughput` binary measures them and emits `BENCH_sim.json` at the repo
//! root; CI re-measures in `--quick` mode and judges the fresh document
//! against the committed baseline by [`SCHEMA`]: every deterministic
//! counter must be equal, events/sec may not fall by more than 3x.
//!
//! The measured scenarios are registry specs like everything else
//! (see `rows_under_measure`); this module also registers the two
//! bench-owned families:
//!
//! * `flood` — all-to-all flood: every party multicasts once, commits
//!   after hearing from everyone. Pure hot-loop stress (`O(n²)` messages,
//!   trivial per-message protocol work).
//! * `smr` — the SMR engine committing a counter workload: long-running
//!   pipelined slots (family params pick the workload/pipeline shape).

use crate::json::JVal;
use crate::scenarios::canonical;
use crate::trajectory::{col, Gate, Need, Schema};
use gcl_sim::{Admission, Context, Protocol, ScenarioRegistry, ScenarioSpec, ValidityMode};
use gcl_smr::{Counter, SlotEngine, SmrParams};
use gcl_types::{Duration, PartyId, Value};
use parking_lot::Mutex;
use std::sync::Arc;
use std::time::Instant;

/// All-to-all flood: every party multicasts its id at start and commits
/// `commit_value` once it has heard from all `n` parties. `O(n²)` messages
/// with trivial handlers — the purest stress test of the event loop
/// itself.
#[derive(Debug)]
pub(crate) struct AllToAllFlood {
    heard: u64,
    n: u64,
    commit_value: Value,
}

impl AllToAllFlood {
    /// A fresh flood participant for an `n`-party run.
    pub(crate) fn new(n: usize, commit_value: Value) -> Self {
        AllToAllFlood {
            heard: 0,
            n: n as u64,
            commit_value,
        }
    }
}

impl Protocol for AllToAllFlood {
    type Msg = Value;

    fn start(&mut self, ctx: &mut dyn Context<Value>) {
        ctx.multicast(Value::new(u64::from(ctx.me().index())));
    }

    fn on_message(&mut self, _from: PartyId, _msg: Value, ctx: &mut dyn Context<Value>) {
        self.heard += 1;
        if self.heard == self.n {
            ctx.commit(self.commit_value);
            ctx.terminate();
        }
    }
}

/// Registers the bench-owned scenario families (`flood`, `smr`).
pub(crate) fn register(reg: &mut ScenarioRegistry) {
    reg.register_fn(
        "flood",
        "all-to-all flood — pure event-loop stress, O(n^2) messages",
        Admission::Any,
        ValidityMode::Broadcast,
        ScenarioSpec::lockstep("flood", 16, 5, Duration::from_micros(10)),
        |spec, backend| spec.run_protocol_on(backend, |_| AllToAllFlood::new(spec.n, spec.input)),
    );
    reg.register_fn(
        "smr",
        "SMR slot engine on a counter log — pipelined 2-round commits",
        Admission::TwoRoundPsync,
        // Commit values are workload slots, not the broadcast input.
        ValidityMode::AgreementOnly,
        ScenarioSpec::psync("smr", 4, 1).with_seed(221),
        |spec, backend| {
            let cfg = spec.config().expect("validated");
            let chain = gcl_crypto::Keychain::generate(spec.n, spec.seed);
            let workload: Vec<Value> = (1..=spec.params.commands).map(Value::new).collect();
            let params = SmrParams {
                batch: spec.params.batch,
                pipeline: spec.params.pipeline,
                ..SmrParams::default()
            };
            spec.run_protocol_on(backend, |p| {
                SlotEngine::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    spec.big_delta,
                    params,
                    Arc::new(Mutex::new(Counter::default())),
                )
                .with_workload(workload.clone())
            })
        },
    );
}

/// One measured scenario of the throughput trajectory.
#[derive(Debug, Clone, PartialEq)]
pub struct ThroughputRow {
    /// Stable scenario key (the regression check joins on it).
    pub(crate) scenario: String,
    /// Parties.
    pub(crate) n: usize,
    /// Fault budget.
    pub(crate) f: usize,
    /// Events the runner processed in one run.
    pub(crate) events: u64,
    /// Point-to-point messages sent in one run.
    pub(crate) messages: u64,
    /// Peak event-queue depth in one run.
    pub(crate) peak_queue: u64,
    /// Bytes the event queue retained at end of run (slab chunks plus
    /// calendar directories) — the memory the engine holds to avoid
    /// per-event allocation.
    pub(crate) queue_bytes: u64,
    /// Deliveries discarded at enqueue because the recipient had already
    /// terminated — queue traffic the run never paid for. Deterministic:
    /// exact per scenario, like `events`.
    pub(crate) drops_at_enqueue: u64,
    /// Wall time of the best repetition, nanoseconds.
    pub(crate) wall_ns: u64,
    /// `events / wall` of the best repetition.
    pub(crate) events_per_sec: f64,
    /// MAC compressions actually computed in one run (the
    /// [`gcl_crypto::VerifyProbe`] delta): the crypto work the shared
    /// MAC cache could not avoid.
    pub(crate) verify_macs: u64,
    /// Shared MAC-cache hits in one run: signature verifications answered
    /// without recomputing a MAC.
    pub(crate) verify_hits: u64,
    /// Repetitions actually measured (best wins; fast scenarios repeat
    /// until a cumulative wall-time floor so one noisy sample can't
    /// dominate).
    pub(crate) reps: u32,
}

/// The `BENCH_sim.json` table. Everything the simulator counts is a pure
/// function of the spec, so those columns gate exactly — one more MAC
/// computed means a verify cache stopped amortizing, one more retained
/// byte means the slab stopped recycling. Only the clock is judged by a
/// factor, and generously: CI runners are slower and noisier than the
/// baseline machine, but a 3x cliff means someone broke the hot path.
pub static SCHEMA: Schema = Schema {
    tag: "gcl-bench/sim-throughput/v2",
    columns: &[
        col("scenario").key(),
        col("n").gate(Gate::Exact),
        col("f").gate(Gate::Exact),
        col("events").gate(Gate::Exact),
        col("messages").gate(Gate::Exact),
        col("peak_queue").gate(Gate::Exact),
        col("queue_bytes").gate(Gate::Exact),
        col("drops_at_enqueue").gate(Gate::Exact),
        col("wall_ns").need(Need::Positive),
        col("events_per_sec")
            .need(Need::Positive)
            .gate(Gate::Higher(3.0)),
        col("verify_macs").gate(Gate::Exact),
        col("verify_hits").gate(Gate::Exact),
        col("reps").need(Need::Positive),
    ],
    coverage: |rows| {
        let missing = rows_under_measure()
            .into_iter()
            .map(|(key, _)| key)
            .find(|key| rows.iter().all(|r| r.str("scenario") != Some(key)));
        missing.map_or(Ok(()), |key| Err(format!("no row for scenario {key:?}")))
    },
};

/// Minimum cumulative measured wall time per scenario: microsecond-scale
/// runs repeat until this floor so a single scheduler hiccup on a noisy CI
/// runner can't masquerade as a 3x regression.
const MIN_TOTAL_NS: u64 = 5_000_000;
/// Hard cap on repetitions (keeps the floor from ballooning tiny runs).
const MAX_REPS: u32 = 64;

/// The fixed trajectory scenarios: stable key → registry spec.
///
/// The crypto-heavy rows (`dolev_strong`, `brb2`, `vbb5f1`, `pbft3`) are
/// the ones the amortized-verification layer targets; the `n = 1024`
/// sweep points exist to expose the *next* bottleneck once signature
/// re-verification stops dominating.
pub(crate) fn rows_under_measure() -> Vec<(&'static str, ScenarioSpec)> {
    vec![
        ("flood_n16", canonical("flood", 16, 5)),
        ("flood_n64", canonical("flood", 64, 21)),
        ("flood_n256", canonical("flood", 256, 85)),
        ("flood_n1024", canonical("flood", 1024, 341)),
        ("dolev_strong_n64_f21", canonical("dolev_strong", 64, 21)),
        ("brb2_n256_f85", canonical("brb2", 256, 85)),
        ("brb2_n1024_f341", canonical("brb2", 1024, 341)),
        ("vbb5f1_n64_f13", canonical("vbb5f1", 64, 13)),
        ("pbft3_n64_f21", canonical("pbft3", 64, 21)),
        ("smr_1k", canonical("smr", 4, 1).with_workload(1_000, 8)),
    ]
}

/// Measures one spec under a stable scenario key: best-of-`min_reps`
/// wall time (repeating up to the cumulative floor), with the row's
/// `(n, f)` taken from the spec itself.
pub(crate) fn measure(scenario: &str, spec: &ScenarioSpec, min_reps: u32) -> ThroughputRow {
    let probe = gcl_crypto::VerifyProbe::global();
    let mut best_ns = u64::MAX;
    let mut total_ns: u64 = 0;
    let mut reps = 0;
    let mut events = 0;
    let mut messages = 0;
    let mut peak_queue = 0;
    let mut queue_bytes = 0;
    let mut drops_at_enqueue = 0;
    let mut verify_macs = 0;
    let mut verify_hits = 0;
    while reps < min_reps || (total_ns < MIN_TOTAL_NS && reps < MAX_REPS) {
        // Verifiers flush their counters to the global probe when the
        // run's protocol instances drop, i.e. before `run` returns; the
        // per-rep delta is the run's crypto work. (Deltas are only exact
        // when runs are sequential, which the bench binary guarantees.)
        let macs0 = probe.macs();
        let hits0 = probe.hits();
        let start = Instant::now();
        let o = crate::scenarios::run(spec);
        let ns = start.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64;
        events = o.events_processed();
        messages = o.messages_sent();
        peak_queue = o.peak_queue_depth() as u64;
        queue_bytes = o.queue_bytes();
        drops_at_enqueue = o.drops_at_enqueue();
        verify_macs = probe.macs().saturating_sub(macs0);
        verify_hits = probe.hits().saturating_sub(hits0);
        best_ns = best_ns.min(ns.max(1));
        total_ns = total_ns.saturating_add(ns);
        reps += 1;
    }
    ThroughputRow {
        scenario: scenario.to_string(),
        n: spec.n,
        f: spec.f,
        events,
        messages,
        peak_queue,
        queue_bytes,
        drops_at_enqueue,
        wall_ns: best_ns,
        events_per_sec: events as f64 * 1e9 / best_ns as f64,
        verify_macs,
        verify_hits,
        reps,
    }
}

/// Measures every scenario. `quick` (the CI smoke mode) requires one
/// repetition per scenario; the full mode at least three. Either way,
/// sub-millisecond scenarios repeat up to the cumulative wall-time floor.
pub fn throughput_rows(quick: bool) -> Vec<ThroughputRow> {
    let reps = if quick { 1 } else { 3 };
    rows_under_measure()
        .iter()
        .map(|(key, spec)| measure(key, spec, reps))
        .collect()
}

/// Renders rows as the `BENCH_sim.json` document.
pub fn render_json(rows: &[ThroughputRow], mode: &str) -> String {
    SCHEMA.render(
        vec![("mode", JVal::Str(mode.to_string()))],
        rows.iter().map(|r| {
            vec![
                JVal::Str(r.scenario.clone()),
                JVal::U64(r.n as u64),
                JVal::U64(r.f as u64),
                JVal::U64(r.events),
                JVal::U64(r.messages),
                JVal::U64(r.peak_queue),
                JVal::U64(r.queue_bytes),
                JVal::U64(r.drops_at_enqueue),
                JVal::U64(r.wall_ns),
                JVal::F1(r.events_per_sec),
                JVal::U64(r.verify_macs),
                JVal::U64(r.verify_hits),
                JVal::U64(u64::from(r.reps)),
            ]
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_sim::{AdversaryMix, DelayChoice};
    use gcl_smr::StateMachine;
    use gcl_types::SlotId;

    type Edit = fn(&mut ThroughputRow);

    #[test]
    fn flood_commits_and_counts_n_squared_messages() {
        let o = crate::scenarios::run(&canonical("flood", 8, 2));
        assert!(o.all_honest_committed());
        assert_eq!(o.messages_sent(), 64, "n^2 point-to-point messages");
        assert_eq!(o.committed_value(), Some(Value::new(42)), "commits input");
    }

    #[test]
    fn crypto_rows_report_verifier_work() {
        // The probe deltas are only exact in a sequential process; under a
        // parallel test runner other tests can only ADD to the global
        // counters, so `> 0` assertions stay sound.
        let row = measure("ds_n8_f2", &canonical("dolev_strong", 8, 2), 1);
        assert!(row.verify_macs > 0, "Dolev-Strong verifies signatures");
        let flood = measure("flood_n8", &canonical("flood", 8, 2), 1);
        assert_eq!(
            flood.scenario, "flood_n8",
            "flood has no signatures; its macs column only picks up \
             whatever parallel tests flushed, so no exact assertion"
        );
    }

    /// A full-coverage row set without measuring anything.
    fn synthetic_rows() -> Vec<ThroughputRow> {
        rows_under_measure()
            .into_iter()
            .map(|(key, spec)| ThroughputRow {
                scenario: key.to_string(),
                n: spec.n,
                f: spec.f,
                events: 100,
                messages: 100,
                peak_queue: 10,
                queue_bytes: 4096,
                drops_at_enqueue: 0,
                wall_ns: 1000,
                events_per_sec: 3000.0,
                verify_macs: 7,
                verify_hits: 9,
                reps: 1,
            })
            .collect()
    }

    /// The synthetic document with `edit` applied to scenario `key`.
    fn doc_with(key: &str, edit: Edit) -> String {
        let mut rows = synthetic_rows();
        edit(rows.iter_mut().find(|r| r.scenario == key).expect(key));
        render_json(&rows, "test")
    }

    #[test]
    fn deterministic_columns_gate_exactly_and_the_clock_by_3x() {
        let base = render_json(&synthetic_rows(), "test");
        assert_eq!(SCHEMA.check(&base), Ok(10));
        SCHEMA.diff(&base, &base).expect("identity");
        // The clock: noise and improvements pass, a 3x cliff does not.
        SCHEMA
            .diff(&base, &doc_with("flood_n64", |r| r.events_per_sec = 1001.0))
            .expect("just inside 3x");
        SCHEMA
            .diff(&base, &doc_with("flood_n64", |r| r.events_per_sec = 9e9))
            .expect("faster is fine");
        let err = SCHEMA
            .diff(&base, &doc_with("flood_n64", |r| r.events_per_sec = 900.0))
            .unwrap_err();
        assert!(
            err.contains("scenario=flood_n64") && err.contains("events_per_sec"),
            "{err}"
        );
        // Every counter the simulator computes is exact: off by one fails
        // in either direction (the old gate let verify_macs rise 25x).
        let edits: [(&str, Edit); 9] = [
            ("n", |r| r.n += 1),
            ("f", |r| r.f += 1),
            ("events", |r| r.events -= 1),
            ("messages", |r| r.messages += 1),
            ("peak_queue", |r| r.peak_queue += 1),
            ("queue_bytes", |r| r.queue_bytes += 1),
            ("drops_at_enqueue", |r| r.drops_at_enqueue += 1),
            ("verify_macs", |r| r.verify_macs += 1),
            ("verify_hits", |r| r.verify_hits -= 1),
        ];
        for (column, edit) in edits {
            let err = SCHEMA
                .diff(&base, &doc_with("brb2_n256_f85", edit))
                .unwrap_err();
            assert!(
                err.contains(column) && err.contains("exact column"),
                "{column}: {err}"
            );
        }
        // wall_ns and reps differ between any two runs and are not judged.
        let unjudged = doc_with("smr_1k", |r| {
            r.wall_ns = 999_999;
            r.reps = 64;
        });
        SCHEMA.diff(&base, &unjudged).expect("unjudged columns");
    }

    #[test]
    fn malformed_json_rejected() {
        // Any layout but the writer's is malformed, whatever it says.
        for bad in [
            "{",
            "{\"schema\": \"gcl-bench/sim-throughput/v2\", \"rows\": []}",
        ] {
            assert!(SCHEMA.check(bad).unwrap_err().starts_with("malformed JSON"));
        }
        // v1 documents (no queue_bytes / drops_at_enqueue) are rejected
        // by the schema tag, not by a field-level error.
        let v1 = render_json(&synthetic_rows(), "test").replace("throughput/v2", "throughput/v1");
        assert!(SCHEMA.check(&v1).unwrap_err().contains("schema is"));
        // A scenario dropped from the harness is a coverage gap.
        let mut rows = synthetic_rows();
        rows.pop();
        assert_eq!(
            SCHEMA.check(&render_json(&rows, "test")),
            Err("no row for scenario \"smr_1k\"".to_string())
        );
    }

    #[test]
    fn a_finite_workload_is_applied_in_full() {
        // Seeds at which a log that ended on an end-of-log seal stopped two
        // commands short: every honest replica committed the digest of 48
        // commands (total 1,176). Stopping once the workload is applied
        // commits all 50 everywhere.
        let mut full = Counter::default();
        for cmd in 1..=50 {
            full.apply(SlotId::new(cmd), Value::new(cmd));
        }
        assert_eq!((full.total(), full.applied()), (1_275, 50));
        let full = Value::new(full.state_digest());
        for seed in [22, 55, 108, 109, 145] {
            let spec = canonical("smr", 4, 1)
                .with_adversary(AdversaryMix::RandomSilent { count: u32::MAX })
                .with_delays(DelayChoice::Uniform {
                    lo: Duration::ZERO,
                    hi: Duration::from_micros(200),
                })
                .with_seed(seed);
            let o = crate::scenarios::run(&spec);
            assert!(o.validity_holds(full), "{}", spec.label());
        }
    }

    #[test]
    fn trajectory_specs_are_admissible() {
        let reg = crate::registry();
        for (key, spec) in rows_under_measure() {
            assert!(reg.validate(&spec).is_ok(), "{key} must be runnable");
        }
    }
}
