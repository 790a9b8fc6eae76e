//! Open-loop SMR load generation: client request streams through the
//! wall engine, rendered as the repo-root `BENCH_smr.json`.
//!
//! The other trajectories measure the substrate (`BENCH_sim.json`:
//! simulator throughput) and the runtimes (`BENCH_net.json`: per-family
//! wall latency). This one measures the *service*: a [`SlotEngine`]
//! replica group in serving mode — no pre-baked workload, no known log
//! length — fed by an **open-loop** client that submits requests on a
//! fixed schedule regardless of how fast the replicas keep up. Open loop
//! is the honest methodology for a replicated service: a closed-loop
//! client (next request only after the last commit) hides queueing delay
//! exactly when the system saturates, which is when latency matters.
//!
//! Each measured configuration is a `(batch, pipeline)` point: requests
//! fan out to every replica's mempool as [`SmrMsg::Submit`] frames over a
//! real Unix-domain socket, leaders drain them into batched proposals,
//! and every replica applies committed batches in slot order. When the
//! stream stops the log quiesces (trailing no-op slots), so the run
//! terminates without anyone knowing the workload length in advance.
//!
//! Since the serving layer grew client acknowledgements, per-request
//! latency is **acknowledged end-to-end time**: first submit to first
//! [`SmrMsg::Ack`] received back over the client channel — not
//! follower-observed applies. The client retries unacknowledged requests
//! on a budget, so the measured tail includes retransmission cost, and a
//! **failover row** crashes the first two rotation leaders mid-run
//! ([`AdversaryMix::LeaderCascade`]) to measure commits/sec and ack
//! latency *through* leader failover. Every row carries an exactly-once
//! audit (no command applied twice, every acked command applied) and the
//! probed replica's mempool counters.
//!
//! Every row runs on [`gcl_net::AsyncBackend`]'s `execute_with_client`
//! path and says so in its **backend** column (`"async"`; the `socket`
//! rows were retired with their engine). The readiness loop multiplexes
//! all replicas over a fixed worker pool, which is what serves the
//! `(24, 5)` scale rows; those run with leader rotation intact, including
//! a failover row that kills the initial leader mid-stream.
//!
//! Wall numbers are machine-dependent, so [`SCHEMA`] gates *structure*,
//! not speed: at least three distinct `(batch, pipeline)` configurations,
//! a failover row, a scale row, and every row committed with agreement, a
//! measured p50 and a passing exactly-once audit — with `commits_per_sec`
//! and `p50_us` held only to a 25× cliff (a serving path that commits
//! only on retransmission), never to machine noise. Regeneration:
//!
//! ```text
//! cargo run --release -p gcl_bench --bin smr_load -- --out BENCH_smr.json
//! ```

use crate::conformance::{wall_backend, wall_spec, WALL_DELTA};
use crate::json::JVal;
use crate::registry;
use crate::trajectory::{col, Gate, Need, Schema};
use gcl_crypto::Keychain;
use gcl_net::ClientHandle;
use gcl_sim::{AdversaryMix, AdversaryRole, Backend, MsgCodec, ScenarioSpec};
use gcl_smr::{MempoolStats, SlotEngine, SmrMsg, SmrParams, StateMachine};
use gcl_types::{Decode, Encode, PartyId, SlotId, Value};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// The `BENCH_smr.json` table. v3: every row names its serving backend,
/// and the `(24, 5)` scale rows (with a leader-crash failover variant)
/// join the grid. A row that never committed or acknowledged is a
/// liveness failure, not a shape variation.
pub static SCHEMA: Schema = Schema {
    tag: "gcl-bench/smr-load/v3",
    columns: &[
        col("backend").key().need(Need::Is("async")),
        col("batch").key(),
        col("pipeline").key(),
        col("n").key(),
        col("f").key(),
        col("crashes").key(),
        col("requests"),
        col("acked").need(Need::Positive),
        col("retries"),
        col("client_rejects"),
        col("committed").need(Need::Positive),
        col("agreement").need(Need::True),
        col("exactly_once").need(Need::True),
        col("acked_applied").need(Need::True),
        col("elapsed_us"),
        col("commits_per_sec").gate(Gate::Higher(25.0)),
        col("p50_us").gate(Gate::Lower(25.0)),
        col("p95_us"),
        col("p99_us"),
        col("mp_occupancy"),
        col("mp_admitted"),
        col("mp_rejected"),
        col("mp_requeued"),
        col("mp_committed"),
    ],
    coverage: |rows| {
        let mut configs: Vec<_> = rows
            .iter()
            .map(|r| (r.u64("batch"), r.u64("pipeline")))
            .collect();
        configs.sort_unstable();
        configs.dedup();
        if configs.len() < 3 {
            return Err(format!(
                "only {} distinct (batch, pipeline) configurations; need >= 3",
                configs.len()
            ));
        }
        let any = |col: &str, at_least: u64| {
            rows.iter()
                .any(|r| r.u64(col).is_some_and(|x| x >= at_least))
        };
        if !any("crashes", 1) {
            return Err("no leader-failover row (crashes >= 1)".to_string());
        }
        if !any("n", 16) {
            return Err("no serving row at scale (n >= 16)".to_string());
        }
        Ok(())
    },
};

/// A shared `(command, apply-instant)` side log one replica's
/// [`RecordingMachine`] appends to.
pub type ApplyLog = Arc<Mutex<Vec<(Value, Instant)>>>;

/// The measured `(batch, pipeline)` grid: serial baseline, the moderate
/// default, and a deep/wide point that exercises coalescing under burst.
pub const LOAD_CONFIGS: [(usize, usize); 3] = [(1, 4), (4, 4), (32, 8)];

/// Retries the client may spend per unacknowledged request.
const RETRY_BUDGET: u32 = 3;
/// How long the client keeps waiting after the last acknowledgement made
/// progress before it gives up on the stragglers.
const ACK_PATIENCE: Duration = Duration::from_secs(3);

/// Per-run wall deadline: a healthy run quiesces long before this.
const RUN_DEADLINE: Duration = Duration::from_secs(30);

/// Inter-arrival gap of the open-loop schedule.
const GAP: Duration = Duration::from_millis(1);

/// Requests per configuration in the CI smoke shape: enough traffic to
/// span several slots without dominating the job's wall time.
const QUICK_REQUESTS: u64 = 48;

/// Requests per configuration in the committed-baseline shape.
const FULL_REQUESTS: u64 = 300;

/// One `(shape, batch, pipeline)` configuration's measured row.
#[derive(Debug, Clone)]
pub struct SmrLoadRow {
    /// Serving backend that produced the row (`"async"`).
    pub backend: &'static str,
    /// Proposal batch cap.
    pub batch: usize,
    /// Pipeline depth.
    pub pipeline: usize,
    /// Parties.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Leaders crashed by the run's kill schedule.
    pub crashes: u64,
    /// Requests the client submitted.
    pub requests: u64,
    /// Requests acknowledged back to the client.
    pub acked: u64,
    /// Retransmissions the client spent.
    pub retries: u64,
    /// Back-pressure rejects the client observed.
    pub client_rejects: u64,
    /// Requests observed applied at the probe replica.
    pub committed: u64,
    /// Whether replica log digests agreed at termination.
    pub agreement: bool,
    /// Exactly-once audit: no command applied twice at the probe replica.
    pub exactly_once: bool,
    /// Liveness audit: every acknowledged command is in the probe log.
    pub acked_applied: bool,
    /// First-submit-to-last-apply wall time, µs.
    pub elapsed_us: u64,
    /// Sustained commit rate over `elapsed_us`.
    pub commits_per_sec: f64,
    /// Median submit-to-ack latency, µs.
    pub p50_us: Option<u64>,
    /// 95th-percentile submit-to-ack latency, µs.
    pub p95_us: Option<u64>,
    /// 99th-percentile submit-to-ack latency, µs.
    pub p99_us: Option<u64>,
    /// The probe replica's mempool counters at the end of the run.
    pub mempool: MempoolStats,
}

/// A [`Counter`]-equivalent state machine that also timestamps every
/// applied command into a shared side log, so the harness can join
/// applies against the client's submit schedule.
///
/// The digest is command-content only (no timestamps), so replicas still
/// agree byte-for-byte with each other.
///
/// [`Counter`]: gcl_smr::Counter
#[derive(Debug)]
pub struct RecordingMachine {
    total: u64,
    applied: u64,
    log: ApplyLog,
}

impl RecordingMachine {
    /// A fresh machine appending `(command, apply-instant)` to `log`.
    pub fn new(log: ApplyLog) -> Self {
        RecordingMachine {
            total: 0,
            applied: 0,
            log,
        }
    }
}

impl StateMachine for RecordingMachine {
    fn apply(&mut self, _slot: SlotId, value: Value) {
        self.total = self.total.wrapping_add(value.as_u64());
        self.applied += 1;
        self.log.lock().push((value, Instant::now()));
    }

    fn state_digest(&self) -> u64 {
        self.total ^ (self.applied << 48)
    }
}

/// The wall-safe serving-mode spec the load runs use: the `smr` family's
/// conformance bounds (2 ms links, ≥ 20 ms Δ so view timers cannot fire
/// spuriously between back-to-back requests).
pub fn load_spec() -> ScenarioSpec {
    wall_spec(registry(), "smr")
}

/// The failover scenario: `(9, 2)` — the smallest shape whose fault
/// budget admits two dead leaders under `n ≥ 5f − 1` — with a
/// [`AdversaryMix::LeaderCascade`] killing the view-1 leader early in the
/// stream and its first rotation successor shortly after it takes over.
pub fn failover_spec() -> ScenarioSpec {
    load_spec()
        .with_shape(9, 2)
        .with_adversary(AdversaryMix::LeaderCascade {
            count: 2,
            first_handled: 40,
            stagger: 120,
        })
}

/// The scale spec: the load spec reshaped to `(24, 5)` — the smallest
/// shape saturating `n = 5f − 1` at `f = 5`. Δ' is raised so view
/// timers (leader rotation stays armed throughout) cannot fire spuriously
/// while one worker drains 24 replicas' traffic.
pub fn scale_spec() -> ScenarioSpec {
    let spec = load_spec().with_shape(24, 5);
    let big = gcl_types::Duration::from_micros(spec.big_delta.as_micros().max(200_000));
    let delta = spec.delta;
    spec.with_bounds(delta, big)
}

/// The scale failover scenario: the `(24, 5)` scale shape with a
/// [`AdversaryMix::LeaderCascade`] killing the initial leader mid-stream,
/// so the row measures serving *through* a rotation on the readiness
/// loop.
pub fn scale_failover_spec() -> ScenarioSpec {
    scale_spec().with_adversary(AdversaryMix::LeaderCascade {
        count: 1,
        first_handled: 40,
        stagger: 120,
    })
}

fn percentile(sorted_us: &[u64], p: f64) -> Option<u64> {
    if sorted_us.is_empty() {
        return None;
    }
    let idx = ((sorted_us.len() - 1) as f64 * p).round() as usize;
    Some(sorted_us[idx.min(sorted_us.len() - 1)])
}

/// What the open-loop client measured: per-request first-submit and
/// first-ack instants, plus retry/reject counters.
#[derive(Debug, Default)]
struct ClientReport {
    sends: Vec<Instant>,
    acks: Vec<Option<Instant>>,
    retries: u64,
    rejects: u64,
}

/// What one client-addressed delivery told the client.
enum Delivery {
    /// The first acknowledgement of a request.
    FreshAck,
    /// Request `.0` (an index into the report) was refused admission.
    Reject(usize),
    /// A repeated ack, or nothing the client tracks.
    Other,
}

/// Decodes one client-addressed delivery, recording a fresh ack or
/// counting a reject.
fn note_delivery(bytes: &[u8], report: &mut ClientReport) -> Delivery {
    let tracked = report.acks.len();
    let index = |cmd: Value| {
        let idx = cmd.as_u64().checked_sub(1)? as usize;
        (idx < tracked).then_some(idx)
    };
    match SmrMsg::from_wire(bytes) {
        Ok(SmrMsg::Ack { cmd, .. }) => match index(cmd) {
            Some(idx) if report.acks[idx].is_none() => {
                report.acks[idx] = Some(Instant::now());
                Delivery::FreshAck
            }
            _ => Delivery::Other,
        },
        Ok(SmrMsg::Reject { cmd }) => {
            report.rejects += 1;
            index(cmd).map_or(Delivery::Other, Delivery::Reject)
        }
        _ => Delivery::Other,
    }
}

/// The open-loop client: submits `requests` commands on the fixed [`GAP`]
/// schedule, fanning each out to every replica (all serving replicas
/// admit, so a failover leader holds the command), drains
/// acknowledgements, and retries unacked requests on a budget.
///
/// `retry_after` is as long as the service may legitimately take: every
/// replica holds the request, so one caught by leader failures is
/// acknowledged without any help one view-timeout chain per dead leader
/// later, and a retransmission sooner than that only adds duplicates for
/// every pool to refuse. Each further attempt waits twice as long; a
/// request a replica *refused* (`Reject`) has no in-flight copy to wait
/// for and is retried at once.
fn drive_open_loop(
    client: &ClientHandle,
    n: usize,
    requests: u64,
    retry_after: Duration,
    round_trip: Duration,
) -> ClientReport {
    let submit_fan = |client: &ClientHandle, i: u64| -> bool {
        let frame = SmrMsg::Submit {
            cmd: Value::new(i + 1),
        }
        .to_wire();
        let mut live = true;
        for p in 0..n as u32 {
            live &= client.submit(PartyId::new(p), frame.clone());
        }
        live
    };

    let mut report = ClientReport {
        sends: Vec::with_capacity(requests as usize),
        acks: vec![None; requests as usize],
        retries: 0,
        rejects: 0,
    };
    let mut last_attempt: Vec<Instant> = Vec::with_capacity(requests as usize);
    let mut budget = vec![RETRY_BUDGET; requests as usize];
    let mut refused = vec![false; requests as usize];
    let mut live = true;

    // Submission phase: request i goes out at `start + i·GAP` no matter
    // how far behind the replicas are; acks drain between submits.
    let start = Instant::now();
    for i in 0..requests {
        let due = start + GAP * (i as u32);
        if let Some(wait) = due.checked_duration_since(Instant::now()) {
            thread::sleep(wait);
        }
        report.sends.push(Instant::now());
        last_attempt.push(Instant::now());
        if !submit_fan(client, i) {
            live = false; // run already over (deadline) — stop submitting
            break;
        }
        while let Some(bytes) = client.try_recv() {
            note_delivery(&bytes, &mut report);
        }
    }

    // Drain-and-retry phase: wait for the stragglers, retransmitting any
    // request refused, or unacked past its (doubling) wait, while its
    // budget lasts. Gives up once nothing has been acknowledged for
    // ACK_PATIENCE.
    let mut last_progress = Instant::now();
    while live
        && last_progress.elapsed() < ACK_PATIENCE
        && report.acks[..report.sends.len()]
            .iter()
            .any(Option::is_none)
    {
        let delivery = client
            .recv_timeout(Duration::from_millis(20))
            .map(|bytes| note_delivery(&bytes, &mut report));
        let now = Instant::now();
        match delivery {
            Some(Delivery::FreshAck) => last_progress = now,
            // Every replica refuses an attempt separately: only a reject
            // that can answer the *latest* attempt (a round trip old)
            // earns another.
            Some(Delivery::Reject(i)) => {
                refused[i] |= now.duration_since(last_attempt[i]) >= round_trip;
            }
            Some(Delivery::Other) | None => {}
        }
        for i in 0..report.sends.len() {
            let wait = retry_after * (1 << (RETRY_BUDGET - budget[i]));
            if report.acks[i].is_none()
                && budget[i] > 0
                && (refused[i] || now.duration_since(last_attempt[i]) >= wait)
            {
                budget[i] -= 1;
                refused[i] = false;
                last_attempt[i] = now;
                report.retries += 1;
                if !submit_fan(client, i as u64) {
                    live = false;
                    break;
                }
            }
        }
    }
    report
}

/// Runs one open-loop load experiment over the wall engine.
///
/// The client thread fans `requests` commands (`Value::new(1)`,
/// `Value::new(2)`, …) out to every replica on a fixed 1 ms
/// schedule and measures first-submit-to-first-ack latency; the run ends
/// when the idle log quiesces. Applies and mempool counters are probed at
/// the highest-indexed honest replica (a follower — its applies ride the
/// full commit path, and it survives every kill schedule).
///
/// # Panics
///
/// Panics if `spec` is not a valid shape for the engine.
pub fn run_load(spec: &ScenarioSpec, batch: usize, pipeline: usize, requests: u64) -> SmrLoadRow {
    let cfg = spec.config().expect("validated shape");
    let chain = Keychain::generate(spec.n, spec.seed);
    let params = SmrParams {
        batch,
        pipeline,
        ..SmrParams::default()
    };
    let byzantine: BTreeSet<usize> = spec
        .adversary_slots()
        .iter()
        .map(|(p, _)| p.as_usize())
        .collect();
    let crashes = spec
        .adversary_slots()
        .iter()
        .filter(|(_, r)| matches!(r, AdversaryRole::Crash { .. }))
        .count() as u64;
    let probe_id = (0..spec.n)
        .rev()
        .find(|i| !byzantine.contains(i))
        .expect("at least one honest replica");
    let logs: Vec<ApplyLog> = (0..spec.n)
        .map(|_| Arc::new(Mutex::new(Vec::new())))
        .collect();
    let stats: Vec<Arc<Mutex<MempoolStats>>> = (0..spec.n)
        .map(|_| Arc::new(Mutex::new(MempoolStats::default())))
        .collect();
    let engine_logs = logs.clone();
    let engine_stats = stats.clone();
    let slots = spec.erased_slots(|p| {
        SlotEngine::new(
            cfg,
            chain.signer(p),
            chain.pki(),
            spec.big_delta,
            params,
            Arc::new(Mutex::new(RecordingMachine::new(
                engine_logs[p.as_usize()].clone(),
            ))),
        )
        .with_stats_probe(engine_stats[p.as_usize()].clone())
    });

    let report: Arc<Mutex<ClientReport>> = Arc::new(Mutex::new(ClientReport::default()));
    let client_report = Arc::clone(&report);
    let n = spec.n;
    // One view-timeout chain (4Δ′ + 2δ′) for each of the `f` leaders the
    // shape lets fail in a row, and one more for the queue behind them.
    let wall = |d: gcl_types::Duration| Duration::from_micros(d.as_micros());
    let round_trip = wall(spec.delta * 2);
    let retry_after = wall((spec.big_delta * 4 + spec.delta * 2) * (spec.f as u64 + 1));
    let driver = move |client: ClientHandle| {
        *client_report.lock() = drive_open_loop(&client, n, requests, retry_after, round_trip);
    };
    let backend = wall_backend(RUN_DEADLINE);
    let o = backend.execute_with_client(spec, slots, MsgCodec::of::<SmrMsg>(), driver);

    let report = report.lock();
    // Ack-based latency: first submit to first acknowledgement.
    let mut lats_us: Vec<u64> = report
        .sends
        .iter()
        .zip(&report.acks)
        .filter_map(|(sent, acked)| acked.map(|at| at.duration_since(*sent).as_micros() as u64))
        .collect();
    lats_us.sort_unstable();
    let acked = report.acks.iter().flatten().count() as u64;

    // Exactly-once + liveness audit at the probe replica: no command may
    // appear twice in its apply log, and every acknowledged command must
    // have been applied there.
    let probe = logs[probe_id].lock();
    let mut applied_set: BTreeSet<Value> = BTreeSet::new();
    let exactly_once = probe.iter().all(|(v, _)| applied_set.insert(*v));
    let acked_applied = report
        .acks
        .iter()
        .enumerate()
        .filter(|(_, a)| a.is_some())
        .all(|(i, _)| applied_set.contains(&Value::new(i as u64 + 1)));

    let committed = probe.len() as u64;
    let elapsed_us = match (report.sends.first(), probe.last()) {
        (Some(first), Some((_, last))) => last.duration_since(*first).as_micros() as u64,
        _ => 0,
    };
    let commits_per_sec = if elapsed_us > 0 {
        committed as f64 * 1e6 / elapsed_us as f64
    } else {
        0.0
    };
    let mempool = *stats[probe_id].lock();
    SmrLoadRow {
        backend: backend.name(),
        batch,
        pipeline,
        n: spec.n,
        f: spec.f,
        crashes,
        requests,
        acked,
        retries: report.retries,
        client_rejects: report.rejects,
        committed,
        agreement: o.agreement_holds(),
        exactly_once,
        acked_applied,
        elapsed_us,
        commits_per_sec,
        p50_us: percentile(&lats_us, 0.50),
        p95_us: percentile(&lats_us, 0.95),
        p99_us: percentile(&lats_us, 0.99),
        mempool,
    }
}

/// Measures every [`LOAD_CONFIGS`] point plus the leader-failover
/// scenario at the load shape, then the `(24, 5)` scale rows (clean and
/// leader-crash). `quick` is the CI smoke shape: fewer requests per row.
pub fn smr_load_rows(quick: bool) -> Vec<SmrLoadRow> {
    let requests = if quick { QUICK_REQUESTS } else { FULL_REQUESTS };
    let spec = load_spec();
    let mut rows: Vec<SmrLoadRow> = LOAD_CONFIGS
        .iter()
        .map(|&(batch, pipeline)| run_load(&spec, batch, pipeline, requests))
        .collect();
    rows.push(run_load(&failover_spec(), 4, 4, requests));
    rows.push(run_load(&scale_spec(), 4, 4, requests));
    rows.push(run_load(&scale_failover_spec(), 4, 4, requests));
    rows
}

/// Renders rows as the `BENCH_smr.json` document.
pub fn render_json(rows: &[SmrLoadRow]) -> String {
    SCHEMA.render(
        vec![("delta_us", JVal::U64(WALL_DELTA.as_micros()))],
        rows.iter().map(|r| {
            vec![
                JVal::Str(r.backend.into()),
                JVal::U64(r.batch as u64),
                JVal::U64(r.pipeline as u64),
                JVal::U64(r.n as u64),
                JVal::U64(r.f as u64),
                JVal::U64(r.crashes),
                JVal::U64(r.requests),
                JVal::U64(r.acked),
                JVal::U64(r.retries),
                JVal::U64(r.client_rejects),
                JVal::U64(r.committed),
                JVal::Bool(r.agreement),
                JVal::Bool(r.exactly_once),
                JVal::Bool(r.acked_applied),
                JVal::U64(r.elapsed_us),
                JVal::F1(r.commits_per_sec),
                JVal::opt_u64(r.p50_us),
                JVal::opt_u64(r.p95_us),
                JVal::opt_u64(r.p99_us),
                JVal::U64(r.mempool.occupancy as u64),
                JVal::U64(r.mempool.admitted),
                JVal::U64(r.mempool.rejected),
                JVal::U64(r.mempool.requeued),
                JVal::U64(r.mempool.committed),
            ]
        }),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    type Edit = fn(&mut SmrLoadRow);
    use gcl_sim::AdversaryMix;

    #[test]
    fn open_loop_socket_load_commits_and_passes_check() {
        // Three tiny configurations plus a follower-crash failover row
        // keep the unit test cheap while still producing a full-shape
        // document the structural gate accepts (which since v3 also
        // requires a scale row).
        let spec = load_spec();
        let mut rows: Vec<SmrLoadRow> = [(1, 4), (4, 4), (8, 8)]
            .iter()
            .map(|&(b, p)| run_load(&spec, b, p, 24))
            .collect();
        rows.push(run_load(
            &spec.with_adversary(AdversaryMix::CrashAt {
                party: PartyId::new(0),
                handled: 30,
            }),
            4,
            4,
            24,
        ));
        rows.push(run_load(&scale_spec(), 4, 4, 16));
        for r in &rows {
            assert!(r.agreement, "batch {} pipeline {}", r.batch, r.pipeline);
            assert!(
                r.committed > 0,
                "batch {} pipeline {}: no traffic committed",
                r.batch,
                r.pipeline
            );
            assert!(r.exactly_once, "a command applied twice");
            assert!(r.acked_applied, "an acked command was lost");
            let p50 = r.p50_us.expect("median measured");
            // Two injected 2 ms hops bound the commit path from below
            // (the ack adds at least one more, but two is the floor).
            assert!(
                p50 >= 2 * WALL_DELTA.as_micros(),
                "batch {} pipeline {}: p50 {p50}µs under the 2-hop floor",
                r.batch,
                r.pipeline
            );
            assert!(r.p95_us.unwrap() >= p50);
            assert!(r.p99_us.unwrap() >= r.p95_us.unwrap());
            assert!(r.mempool.admitted > 0, "probe admitted no commands");
        }
        assert_eq!(SCHEMA.check(&render_json(&rows)), Ok(5));
    }

    #[test]
    fn load_survives_f_crashed_replicas() {
        // Satellite coverage: the full client path with f replicas down.
        // Replica 3 crashes almost immediately; the three live replicas
        // must keep serving the stream and land on identical logs.
        let spec = load_spec().with_adversary(AdversaryMix::CrashAt {
            party: PartyId::new(3),
            handled: 3,
        });
        let row = run_load(&spec, 4, 4, 24);
        assert!(row.agreement, "live replicas must agree with f crashed");
        assert!(
            row.committed > 0,
            "a crashed follower must not stop the service"
        );
        assert!(row.exactly_once && row.acked_applied);
    }

    #[test]
    fn async_leader_cascade_keeps_serving_exactly_once() {
        // Satellite fault-injection coverage for the readiness loop: the
        // initial leader of a (24, 5) replica group — all 24 multiplexed
        // over a small worker pool — dies mid-stream. Rotation must keep
        // the service live, every acknowledged command must land exactly
        // once, and the survivors must agree.
        let row = run_load(&scale_failover_spec(), 4, 4, 16);
        assert_eq!(row.backend, "async");
        assert_eq!((row.n, row.f), (24, 5), "the scale shape");
        assert_eq!(row.crashes, 1, "the initial leader dies");
        assert!(row.agreement, "survivors agree through failover");
        assert!(row.acked > 0, "service stays live across the rotation");
        assert!(row.exactly_once, "failover double-applied a command");
        assert!(row.acked_applied, "an acked command was lost in failover");
    }

    /// A healthy-looking row without running anything.
    fn row(batch: usize, n: usize, crashes: u64) -> SmrLoadRow {
        SmrLoadRow {
            backend: "async",
            batch,
            pipeline: 4,
            n,
            f: 1,
            crashes,
            requests: 5,
            acked: 5,
            retries: 0,
            client_rejects: 0,
            committed: 5,
            agreement: true,
            exactly_once: true,
            acked_applied: true,
            elapsed_us: 20_000,
            commits_per_sec: 250.0,
            p50_us: Some(9_000),
            p95_us: Some(9_500),
            p99_us: Some(9_900),
            mempool: MempoolStats::default(),
        }
    }

    /// Three configurations, a failover row and a scale row.
    fn full_grid() -> Vec<SmrLoadRow> {
        vec![row(1, 4, 0), row(4, 4, 1), row(8, 4, 0), row(4, 24, 0)]
    }

    /// `check` on the full grid with `edit` applied to its first row.
    fn check_with(edit: Edit) -> Result<usize, String> {
        let mut rows = full_grid();
        edit(&mut rows[0]);
        SCHEMA.check(&render_json(&rows))
    }

    #[test]
    fn smr_rows_gate_rate_and_ack_latency() {
        let base = render_json(&full_grid());
        let diff_with = |edit: Edit| {
            let mut rows = full_grid();
            edit(&mut rows[0]);
            SCHEMA.diff(&base, &render_json(&rows))
        };
        diff_with(|r| (r.commits_per_sec, r.p50_us) = (100.0, Some(30_000)))
            .expect("ordinary noise passes");
        // A serving pipeline that slowed 100x is categorical breakage.
        let err = diff_with(|r| r.commits_per_sec = 2.5).unwrap_err();
        assert!(err.contains("commits_per_sec went 250 -> 2.5"), "{err}");
        let err = diff_with(|r| r.p50_us = Some(900_000)).unwrap_err();
        assert!(err.contains("p50_us went 9000 -> 900000"), "{err}");
        // The tail percentiles and counters are reported, not judged.
        diff_with(|r| (r.p99_us, r.retries, r.elapsed_us) = (Some(9_000_000), 700, 1))
            .expect("unjudged columns");
    }

    #[test]
    fn check_rejects_malformed_documents() {
        assert!(SCHEMA.check("not json").is_err());
        assert_eq!(check_with(|_| {}), Ok(4));
        let good = render_json(&full_grid());
        let err = SCHEMA
            .check(&good.replace("smr-load/v3", "smr-load/v2"))
            .unwrap_err();
        assert!(err.contains("schema is"), "v2 fails the v3 gate: {err}");
        let err = SCHEMA.check(&render_json(&[])).unwrap_err();
        assert!(err.contains("configurations"), "{err}");
        // One broken field at a time. A row that never committed is a
        // liveness failure, not a shape variation.
        let broken: [(&str, Edit); 8] = [
            ("committed is 0", |r| r.committed = 0),
            ("acked is 0", |r| r.acked = 0),
            ("agreement is false", |r| r.agreement = false),
            ("exactly_once is false", |r| r.exactly_once = false),
            ("acked_applied is false", |r| r.acked_applied = false),
            ("p50_us is null", |r| r.p50_us = None),
            // A row from the retired socket engine is structural drift.
            ("need Is(\"async\")", |r| r.backend = "socket"),
            // Same identity as the failover row.
            ("duplicate", |r| (r.batch, r.crashes) = (4, 1)),
        ];
        for (what, edit) in broken {
            let err = check_with(edit).unwrap_err();
            assert!(err.contains(what), "{what}: {err}");
        }
        // A v2-shaped row (no backend column) is structural drift.
        let err = SCHEMA
            .check(&good.replace("\"backend\": \"async\", ", ""))
            .unwrap_err();
        assert!(err.contains("missing column \"backend\""), "{err}");
        // Coverage: small shapes only, then no failover row.
        let err = SCHEMA.check(&render_json(&full_grid()[..3])).unwrap_err();
        assert!(err.contains("serving row at scale"), "{err}");
        let mut rows = full_grid();
        rows.remove(1);
        let err = SCHEMA.check(&render_json(&rows)).unwrap_err();
        assert!(err.contains("leader-failover"), "{err}");
    }
}
