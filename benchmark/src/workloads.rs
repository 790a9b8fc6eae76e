//! The six workloads. Each has a `setup` (everything up to and including
//! one untimed warm-up operation) and a `measure` that repeats its
//! operation — a simulator run, a sweep pass, a wall run, or a stream of
//! client requests — for the requested number of seconds, checking every
//! output. Shapes are fixed; only how many operations fit in the window
//! depends on the machine.

use crate::service::{
    drive_closed, drive_open, run_service, trace_phase, PhaseLog, ServiceRun, ServiceSpec,
    WALL_DELTA,
};
use crate::trace::{self, SpanId, Tracer};
use crate::{grid, host, stats};
use gcl_crypto::VerifyProbe;
use gcl_net::AsyncBackend;
use gcl_sim::{AdversaryMix, Outcome, ScenarioSpec, Sweep, SweepReport};
use gcl_smr::SmrParams;
use gcl_types::{Duration as SimDuration, Value};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// One of the six named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    SimFlood,
    SimBrb2,
    SimSweep,
    WallFlood,
    SmrServe,
    SmrFailover,
}

pub const ALL: [Workload; 6] = [
    Workload::SimFlood,
    Workload::SimBrb2,
    Workload::SimSweep,
    Workload::WallFlood,
    Workload::SmrServe,
    Workload::SmrFailover,
];

/// What one measured window produced.
#[derive(Debug, Default)]
pub struct Measurement {
    /// Operation latency, ms: the time of each whole run (one entry per
    /// repetition), or one entry, the median latency of the measured
    /// requests of a service workload.
    pub op_ms: Vec<f64>,
    /// The p95 latency of the measured requests, one entry; empty for
    /// whole runs, whose tail is their `op_ms`.
    pub tail_ms: Vec<f64>,
    /// Samples behind each entry (1 for a whole run).
    pub unit_samples: usize,
    /// Work completed per second, in the workload's own unit.
    pub work_per_s: f64,
    pub attempted: u64,
    pub failed: u64,
    /// Output checks that did not hold; empty means correct.
    pub violations: Vec<String>,
    /// Counts that must repeat bit for bit for a fixed seed.
    pub exact: BTreeMap<&'static str, u64>,
    /// Per-layer observations from this workload's own runs.
    pub layer: BTreeMap<&'static str, f64>,
    /// How late the load generator ran, µs, at the highest percentile its
    /// request count supports (`(percentile, lateness)`); `None` for
    /// workloads without a generator.
    pub late_us: Option<(u32, f64)>,
    /// In a traced run of a run-at-a-time workload: whether spans were
    /// recorded for the operation behind each `op_ms` entry.
    pub op_traced: Vec<bool>,
}

/// SplitMix64 finalizer: the benchmark's own seed derivation, so request
/// ids and sweep base seeds (`mix(seed, pass)`) are a pure function of
/// `--seed`.
pub fn mix(seed: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(index.wrapping_mul(0x9e37_79b9_7f4a_7c15))
        .wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The first request id of `phase` in a service run keyed by `seed`. Ids
/// stay below 2^53 so they survive a JSON number.
fn first_id(seed: u64, phase: u64) -> u64 {
    ((mix(seed, 0) & 0xf_ffff) << 28) + (phase << 24) + 1
}

/// The broadcast input of the flood/brb2 runs: never the reserved values.
fn input_for(seed: u64) -> Value {
    Value::new(1 + mix(seed, 1) % 1_000_000)
}

fn canonical(family: &str, n: usize, f: usize, seed: u64) -> ScenarioSpec {
    gcl_bench::registry()
        .spec(family)
        .expect("family is registered")
        .with_shape(n, f)
        .with_seed(seed)
        .with_input(input_for(seed))
}

/// `flood` reshaped for a wall run: δ′ = 2 ms per hop, Δ′ = 5 s so no
/// timer can fire while a million frames cross real sockets.
fn wall_flood_spec(n: usize, seed: u64) -> ScenarioSpec {
    canonical("flood", n, 1, seed).with_bounds(WALL_DELTA, SimDuration::from_millis(5_000))
}

fn wall_backend() -> AsyncBackend {
    AsyncBackend::new().deadline(Duration::from_secs(60))
}

const SERVE: ServiceSpec = ServiceSpec {
    n: 24,
    f: 5,
    big_delta: SimDuration::from_millis(200),
    params: SmrParams {
        batch: 32,
        pipeline: 8,
        quiesce_after: 4,
        mempool_capacity: 1 << 16,
    },
    adversary: AdversaryMix::None,
};
/// Offered rate of the serve workload's open-loop phase. The leader
/// proposes as soon as the pipeline has room, so up to the knee every
/// request gets a slot of its own and CPU use grows with the request rate:
/// swept on the sizing host (2 vCPUs), 50 / 100 / 250 req/s keep 0.26 /
/// 0.45 / 0.97 cores busy at p50 8.0 / 7.7 / 10.3 ms, and from 500 req/s
/// up the service is saturated (1.55–1.6 cores, p50 18–25 ms, generator
/// p99 lateness 3–4 ms). The knee lies between 250 and 500 req/s; at 100
/// the generator's p99 lateness is 0.2–0.85 ms on a quiet host (README,
/// "The offered rate of `smr_serve_n24`").
const SERVE_RATE: f64 = 100.0;
const SERVE_WINDOW: usize = 1_024;

const FAILOVER: ServiceSpec = ServiceSpec {
    n: 9,
    f: 2,
    big_delta: SimDuration::from_millis(20),
    params: SmrParams {
        batch: 4,
        pipeline: 4,
        quiesce_after: 4,
        mempool_capacity: 1 << 16,
    },
    adversary: AdversaryMix::LeaderCascade {
        count: 2,
        first_handled: 40,
        stagger: 120,
    },
};
const FAILOVER_RATE: f64 = 1_000.0;
/// Requests offered per second of run length. The service drains ~90/s
/// while every slot re-burns the dead leaders' view timers, so 80 per
/// second keeps the drain inside the window; a faster failover just ends
/// the run sooner.
const FAILOVER_REQUESTS_PER_SECOND: f64 = 80.0;

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::SimFlood => "sim_flood_n1024",
            Workload::SimBrb2 => "sim_brb2_n1024",
            Workload::SimSweep => "sim_sweep_grid",
            Workload::WallFlood => "wall_flood_n1024",
            Workload::SmrServe => "smr_serve_n24",
            Workload::SmrFailover => "smr_failover_n9",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    /// Whether the workload is a stream of client requests to the SMR
    /// service (as opposed to whole runs repeated one at a time).
    pub fn is_service(self) -> bool {
        matches!(self, Workload::SmrServe | Workload::SmrFailover)
    }

    /// What `work_per_s` counts on this workload.
    pub fn work_unit(self) -> &'static str {
        match self {
            Workload::SimFlood | Workload::SimBrb2 => "simulator events",
            Workload::SimSweep => "sweep cells",
            Workload::WallFlood => "framed messages",
            Workload::SmrServe => "acked commands (closed loop)",
            Workload::SmrFailover => "acked commands",
        }
    }

    /// What `op_ms` and `op_tail_ms` are taken over.
    pub fn unit(self) -> &'static str {
        match self {
            Workload::SimFlood | Workload::SimBrb2 => "simulator runs",
            Workload::SimSweep => "sweep passes",
            Workload::WallFlood => "wall runs incl. drain",
            Workload::SmrServe | Workload::SmrFailover => "requests, due to first ack",
        }
    }

    /// The share by which this workload's timings may worsen before
    /// `compare` calls it a regression: max(3 %, twice the widest ten-run
    /// inter-quartile spread seen on the sizing host), never above 10 %
    /// (README, "Spread and bounds"). Only the timer-bound failover
    /// workload repeats well enough (≤ 0.012) to earn less than the cap.
    /// Where a workload spreads wider than its bound, `compare` reports
    /// `unresolved`, not `same`.
    pub fn compare_bound(self) -> f64 {
        match self {
            Workload::SmrFailover => 0.03,
            _ => 0.10,
        }
    }

    /// Everything up to the first timed operation: specs, keys, sockets,
    /// and one warm-up operation. Returns the set-up time it measured.
    pub fn setup(self, seed: u64) -> Duration {
        let started = Instant::now();
        let reg = gcl_bench::registry();
        match self {
            Workload::SimFlood => {
                let _ = reg.run(&canonical("flood", 1024, 341, seed));
            }
            Workload::SimBrb2 => {
                let _ = reg.run(&canonical("brb2", 1024, 341, seed));
            }
            Workload::SimSweep => {
                let _ = sweep_pass(grid::cells(reg), mix(seed, u64::MAX));
            }
            Workload::WallFlood => {
                let _ = reg.run_on(&wall_flood_spec(1024, seed), &wall_backend());
            }
            Workload::SmrServe => return service_setup(&SERVE, seed, started),
            Workload::SmrFailover => return service_setup(&FAILOVER, seed, started),
        }
        started.elapsed()
    }

    /// Repeats the workload's operation for `seconds`, checking outputs.
    pub fn measure(self, seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Measurement {
        match self {
            Workload::SimFlood => sim_reps(&canonical("flood", 1024, 341, seed), seconds, tracer),
            Workload::SimBrb2 => sim_reps(&canonical("brb2", 1024, 341, seed), seconds, tracer),
            Workload::SimSweep => sweep_passes(seed, seconds, tracer),
            Workload::WallFlood => wall_reps(&wall_flood_spec(1024, seed), seconds, tracer),
            Workload::SmrServe => serve(seed, seconds, tracer),
            Workload::SmrFailover => failover(seed, seconds, tracer),
        }
    }
}

/// Agreement, validity and all-honest-commit of one broadcast run.
fn check_broadcast(o: &Outcome, spec: &ScenarioSpec) -> Option<String> {
    if !o.agreement_holds() {
        Some("agreement violated".into())
    } else if o.committed_value() != Some(spec.input) {
        Some(format!(
            "committed {:?}, input was {:?}",
            o.committed_value(),
            spec.input
        ))
    } else if !o.all_honest_committed() {
        Some("an honest party did not commit".into())
    } else {
        None
    }
}

/// Records `value` under `key`; a later repetition that disagrees is a
/// violation (these counts are functions of the spec alone).
fn pin_exact(m: &mut Measurement, key: &'static str, value: u64) {
    match m.exact.get(key) {
        Some(&first) if first != value => {
            m.violations.push(format!(
                "{key} changed between repetitions: {first} then {value}"
            ));
        }
        Some(_) => {}
        None => {
            m.exact.insert(key, value);
        }
    }
}

/// The repetition loop of the run-at-a-time workloads: repeat until the
/// window closes (at least once), timing each call into the program. A
/// traced run records spans on every other repetition only, so the two
/// halves of one window — same machine state, interleaved — give the
/// tracing overhead.
struct Reps<'a> {
    tracer: Option<&'a mut Tracer>,
    root: Option<SpanId>,
    rep: Option<SpanId>,
    window: Instant,
    seconds: f64,
    done: u64,
}

impl<'a> Reps<'a> {
    fn new(mut tracer: Option<&'a mut Tracer>, seconds: f64) -> Self {
        let root = trace::begin(&mut tracer, "workload", None);
        Reps {
            tracer,
            root,
            rep: None,
            window: Instant::now(),
            seconds,
            done: 0,
        }
    }

    /// Opens the next repetition if one still fits in the window.
    fn begin(&mut self) -> bool {
        if self.done > 0 && self.window.elapsed().as_secs_f64() >= self.seconds {
            return false;
        }
        if self.done % 2 == 1 {
            self.rep = trace::begin(&mut self.tracer, "rep", self.root);
        }
        true
    }

    /// Times `f`, one call across a layer boundary.
    fn call<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> (T, Duration) {
        let span = self
            .rep
            .and_then(|rep| trace::begin(&mut self.tracer, name, Some(rep)));
        let started = Instant::now();
        let out = f();
        let wall = started.elapsed();
        trace::end(&mut self.tracer, span);
        (out, wall)
    }

    /// Closes the repetition, filing its latency.
    fn end(&mut self, m: &mut Measurement, wall: Duration) {
        m.op_ms.push(wall.as_secs_f64() * 1e3);
        m.unit_samples = 1;
        if self.tracer.is_some() {
            m.op_traced.push(self.rep.is_some());
        }
        trace::end(&mut self.tracer, self.rep.take());
        self.done += 1;
    }

    /// Closes the window. `work_per_op` units of work per operation, over
    /// the lower-quartile operation time ([`stats::LOWER_QUARTILE`]), is
    /// the workload's rate.
    fn finish(mut self, m: &mut Measurement, work_per_op: u64) {
        trace::end(&mut self.tracer, self.root);
        let fast_ms = stats::percentile_of(&m.op_ms, stats::LOWER_QUARTILE);
        m.work_per_s = work_per_op as f64 * 1e3 / fast_ms;
    }
}

fn sim_reps(spec: &ScenarioSpec, seconds: f64, tracer: Option<&mut Tracer>) -> Measurement {
    let reg = gcl_bench::registry();
    let probe = VerifyProbe::global();
    let mut m = Measurement::default();
    let mut events = 0;
    let mut reps = Reps::new(tracer, seconds);
    while reps.begin() {
        // Verifiers flush into the global probe when the run's parties
        // drop, i.e. before `run` returns; runs here are sequential, so
        // the delta is this run's crypto work.
        let (macs, hits) = (probe.macs(), probe.hits());
        let (o, wall) = reps.call("registry.run", || {
            reg.run(spec).expect("pinned spec is admissible")
        });
        m.attempted += 1;
        if let Some(why) = check_broadcast(&o, spec) {
            m.failed += 1;
            m.violations.push(format!("{}: {why}", spec.label()));
        }
        pin_exact(&mut m, "sim.events", o.events_processed());
        pin_exact(&mut m, "sim.messages", o.messages_sent());
        pin_exact(&mut m, "sim.drops_at_enqueue", o.drops_at_enqueue());
        pin_exact(&mut m, "sim.peak_queue_depth", o.peak_queue_depth() as u64);
        pin_exact(&mut m, "sim.queue_bytes", o.queue_bytes());
        pin_exact(&mut m, "crypto.verify_macs", probe.macs() - macs);
        pin_exact(&mut m, "crypto.verify_hits", probe.hits() - hits);
        events = o.events_processed();
        reps.end(&mut m, wall);
    }
    reps.finish(&mut m, events);
    m.layer.insert("sim.run_ns_per_event", 1e9 / m.work_per_s);
    m
}

/// One pass over the grid, on one thread. The workload exists for the
/// per-cell set-up cost, which one thread measures as well as two; how
/// the sweep scales across cores is the per-layer `sim.sweep_par_eff`. On
/// the sizing host the second vCPU comes and goes (that ratio read 0.49 to
/// 0.98 within one hour), and a pass that needs both tracked it: +25–60 %
/// for minutes at a time, in three of four ten-run passes.
fn sweep_pass(cells: Vec<ScenarioSpec>, base_seed: u64) -> SweepReport {
    Sweep::new(gcl_bench::registry())
        .cells(cells)
        .threads(1)
        .seed(base_seed)
        .run()
}

/// A checksum of every simulated statistic of a pass: a host-speed change
/// must leave it identical.
fn sweep_checksum(report: &SweepReport) -> u64 {
    let mut sum = 0u64;
    for c in &report.cells {
        for x in [
            c.spec.seed,
            c.latency_us.unwrap_or(u64::MAX),
            c.rounds.map_or(u64::MAX, u64::from),
            c.events,
            c.messages,
            c.peak_queue,
            u64::from(c.committed),
        ] {
            sum = mix(sum, x);
        }
    }
    sum >> 16 // 48 bits: exact in a JSON number
}

fn sweep_passes(seed: u64, seconds: f64, tracer: Option<&mut Tracer>) -> Measurement {
    let cells = grid::cells(gcl_bench::registry());
    let mut m = Measurement::default();
    let mut reps = Reps::new(tracer, seconds);
    while reps.begin() {
        let pass = reps.done;
        let grid = cells.clone();
        let (report, wall) = reps.call("sweep.run", || sweep_pass(grid, mix(seed, pass)));
        let bad = report.cells.iter().filter(|c| c.violating()).count() + report.cells_skipped();
        m.attempted += report.cells.len() as u64;
        m.failed += bad as u64;
        if bad > 0 {
            m.violations.push(format!(
                "pass {pass}: {bad} cells violated safety or validity, or were skipped"
            ));
        }
        if pass == 0 {
            m.exact.insert("sim.events", report.total_events());
            m.exact.insert("sim.messages", report.total_messages());
            m.exact
                .insert("sim.peak_queue_depth", report.max_peak_queue());
            m.exact.insert("sim.grid_checksum", sweep_checksum(&report));
        }
        reps.end(&mut m, wall);
    }
    reps.finish(&mut m, cells.len() as u64);
    m.layer.insert("sim.sweep_us_per_cell", 1e6 / m.work_per_s);
    m
}

fn wall_reps(spec: &ScenarioSpec, seconds: f64, tracer: Option<&mut Tracer>) -> Measurement {
    let reg = gcl_bench::registry();
    let backend = wall_backend();
    let mut m = Measurement::default();
    let (mut messages, mut after_commit_ms) = (0, Vec::new());
    let (mut wakeups, mut peak_out, mut workers) = (Vec::new(), Vec::new(), 0.0);
    let cpu = host::cpu_seconds();
    let mut reps = Reps::new(tracer, seconds);
    while reps.begin() {
        let (o, wall) = reps.call("registry.run_on", || {
            reg.run_on(spec, &backend)
                .expect("pinned spec is admissible")
        });
        m.attempted += 1;
        if let Some(why) = check_broadcast(&o, spec) {
            m.failed += 1;
            m.violations.push(format!("{}: {why}", spec.label()));
        }
        pin_exact(&mut m, "net.messages", o.messages_sent());
        messages = o.messages_sent();
        if let Some(commit) = o.good_case_latency() {
            after_commit_ms.push(wall.as_secs_f64() * 1e3 - commit.as_micros() as f64 / 1e3);
        }
        if let Some(s) = o.sched_counters() {
            wakeups.push(s.wakeups as f64);
            peak_out.push(s.peak_outbound_bytes as f64);
            workers = s.workers as f64;
        }
        reps.end(&mut m, wall);
    }
    reps.finish(&mut m, messages);
    m.layer.insert("net.ns_per_msg", 1e9 / m.work_per_s);
    if !after_commit_ms.is_empty() {
        m.layer
            .insert("net.run_minus_commit_ms", stats::median(&after_commit_ms));
    }
    if !wakeups.is_empty() {
        m.layer.insert("net.wakeups", stats::median(&wakeups));
        m.layer
            .insert("net.peak_outbound_bytes", stats::median(&peak_out));
        m.layer.insert("net.workers", workers);
    }
    note_cpu(&mut m, cpu);
    m
}

/// Files the median and p95 latency of a phase's acknowledged requests
/// from index `skip` on. Both loads sit far below saturation (the serve
/// rate by choice, the failover run because it is timer-bound), so the
/// whole phase is one sample set.
fn note_latency(m: &mut Measurement, phase: &PhaseLog, skip: usize) {
    let mut ms = phase.ack_ms(skip);
    if ms.is_empty() {
        return;
    }
    stats::sort(&mut ms);
    m.op_ms = vec![stats::percentile(&ms, 50.0)];
    m.tail_ms = vec![stats::percentile(&ms, 95.0)];
    m.unit_samples = ms.len();
}

/// CPU seconds used since `before`, split user/system.
fn note_cpu(m: &mut Measurement, before: Option<(f64, f64)>) {
    if let (Some((u0, s0)), Some((u1, s1))) = (before, host::cpu_seconds()) {
        m.layer.insert("net.user_cpu_s", u1 - u0);
        m.layer.insert("net.sys_cpu_s", s1 - s0);
    }
}

/// Set-up of a service workload: a fault-free instance of the same shape
/// brought up to its first acknowledgement (keys, engines, socket pairs,
/// worker pool, one command through the whole commit path). The instance
/// then quiesces, which is not part of set-up.
fn service_setup(svc: &ServiceSpec, seed: u64, started: Instant) -> Duration {
    let clean = ServiceSpec {
        adversary: AdversaryMix::None,
        ..*svc
    };
    // Id ranges 14 and 15 are the side runs' (clean reference, set-up), so
    // a straggling ack can never name a measured request.
    let id = first_id(seed, 15);
    let run = run_service(&clean, seed, Duration::from_secs(15), move |t| {
        let give_up = Instant::now() + Duration::from_secs(10);
        vec![drive_open(t, id, 1_000.0, 1, give_up)]
    });
    run.phases
        .first()
        .and_then(|p| p.acked.first().copied().flatten())
        .map_or_else(|| started.elapsed(), |acked| acked.duration_since(started))
}

/// Folds a finished service run into a measurement: counts, audit, the
/// client's and the probe replica's per-layer observations, and the
/// request spans of `traced` phases.
fn fold_service(
    run: &ServiceRun,
    load: &PhaseLog,
    m: &mut Measurement,
    tracer: &mut Option<&mut Tracer>,
    call: Option<SpanId>,
) {
    for p in &run.phases {
        m.attempted += p.attempted();
        m.failed += p.failed();
    }
    if !run.violations.is_empty() {
        // A failed audit fails every request of the run.
        m.failed = m.attempted;
        m.violations.extend(run.violations.iter().cloned());
    }
    let mut late = load.late_us();
    stats::sort(&mut late);
    let mut acks = load.ack_ms(0);
    stats::sort(&mut acks);
    if !late.is_empty() {
        m.layer
            .insert("client.late_p99_us", stats::percentile(&late, 99.0));
        let supported = stats::highest_percentile(late.len());
        m.late_us = Some((supported, stats::percentile(&late, f64::from(supported))));
    }
    if !acks.is_empty() {
        m.layer
            .insert("client.ack_p99_ms", stats::percentile(&acks, 99.0));
        m.layer
            .insert("client.ack_max_ms", stats::percentile(&acks, 100.0));
    }
    let sending = load
        .sent
        .last()
        .zip(load.due.first())
        .map_or(0.0, |((_, done), first)| {
            done.saturating_duration_since(*first).as_secs_f64()
        });
    if sending > 0.0 {
        m.layer
            .insert("client.submits_per_s", load.attempted() as f64 / sending);
    }
    m.layer
        .insert("client.unavailable_ms", load.unavailable_ms());

    // The probe replica's view: slots used, and where a request's time
    // went on either side of its apply.
    let slots: std::collections::BTreeSet<u64> = run.applied.iter().map(|a| a.slot).collect();
    if let (Some(&lo), Some(&hi)) = (slots.first(), slots.last()) {
        m.layer.insert(
            "smr.cmds_per_slot",
            run.applied.len() as f64 / slots.len() as f64,
        );
        m.layer
            .insert("smr.noop_slots", (hi - lo + 1 - slots.len() as u64) as f64);
    }
    let applied_at: BTreeMap<u64, Instant> = run.applied.iter().map(|a| (a.id, a.at)).collect();
    let (mut to_apply, mut to_ack) = (Vec::new(), Vec::new());
    for (i, (&(sent, _), acked)) in load.sent.iter().zip(&load.acked).enumerate() {
        let (Some(acked), Some(&at)) = (acked, applied_at.get(&(load.first_id + i as u64))) else {
            continue;
        };
        to_apply.push(at.saturating_duration_since(sent).as_secs_f64() * 1e3);
        to_ack.push(acked.saturating_duration_since(at).as_secs_f64() * 1e3);
    }
    if !to_apply.is_empty() {
        m.layer
            .insert("smr.submit_to_apply_ms", stats::median(&to_apply));
        m.layer
            .insert("smr.apply_to_ack_ms", stats::median(&to_ack));
    }
    m.layer
        .insert("smr.mp_rejected", run.mempool.rejected as f64);
    m.layer
        .insert("smr.mp_requeued", run.mempool.requeued as f64);
    if let Some(s) = run.sched {
        m.layer.insert("net.wakeups", s.wakeups as f64);
        m.layer
            .insert("net.peak_outbound_bytes", s.peak_outbound_bytes as f64);
        m.layer.insert("net.workers", s.workers as f64);
    }
    if run.messages > 0 {
        m.layer.insert(
            "net.ns_per_msg",
            run.wall.as_nanos() as f64 / run.messages as f64,
        );
    }
    if let (Some(t), Some(call)) = (tracer.as_mut(), call) {
        trace_phase(t, call, load, &run.applied);
    }
}

fn serve(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Measurement {
    let open_s = 0.5 * seconds;
    let closed = Duration::from_secs_f64(0.4 * seconds);
    let count = (SERVE_RATE * open_s) as u64;
    let cpu = host::cpu_seconds();
    let root = trace::begin(&mut tracer, "workload", None);
    let call = trace::begin(&mut tracer, "execute_with_client", root);
    let deadline = Duration::from_secs_f64(3.0 * seconds + 30.0);
    let patience = Duration::from_secs_f64(seconds + 10.0);
    let run = run_service(&SERVE, seed, deadline, move |t| {
        // Phase 0 fills caches and the pipeline and is not reported;
        // phase 1 is the open loop the latency metrics come from; phase 2
        // is the closed loop that gives capacity without retry timers.
        let warm = drive_closed(
            t,
            first_id(seed, 0),
            64,
            Duration::from_millis(200),
            Instant::now() + patience,
        );
        let open = drive_open(
            t,
            first_id(seed, 1),
            SERVE_RATE,
            count,
            Instant::now() + patience,
        );
        let capacity = drive_closed(
            t,
            first_id(seed, 2),
            SERVE_WINDOW,
            closed,
            Instant::now() + patience,
        );
        vec![warm, open, capacity]
    });
    trace::end(&mut tracer, call);
    let mut m = Measurement::default();
    let (open, capacity) = (&run.phases[1], &run.phases[2]);
    fold_service(&run, open, &mut m, &mut tracer, call);
    trace::end(&mut tracer, root);
    // The first tenth of the open loop is ramp-up, not steady state.
    note_latency(&mut m, open, open.due.len() / 10);
    // Capacity by the rule whole runs follow: the best quartile over the
    // closed loop's full seconds (the whole phase when it is too short to
    // have any).
    let per_second = capacity.acked_in_each_second();
    m.work_per_s = if per_second.is_empty() {
        capacity.acked_per_s()
    } else {
        stats::percentile_of(&per_second, 100.0 - stats::LOWER_QUARTILE)
    };
    note_cpu(&mut m, cpu);
    m
}

fn failover(seed: u64, seconds: f64, mut tracer: Option<&mut Tracer>) -> Measurement {
    let count = (FAILOVER_REQUESTS_PER_SECOND * seconds).max(1.0) as u64;
    let cpu = host::cpu_seconds();
    let root = trace::begin(&mut tracer, "workload", None);
    let call = trace::begin(&mut tracer, "execute_with_client", root);
    let deadline = Duration::from_secs_f64(3.0 * seconds + 30.0);
    let patience = Duration::from_secs_f64(1.5 * seconds + 5.0);
    let run = run_service(&FAILOVER, seed, deadline, move |t| {
        vec![drive_open(
            t,
            first_id(seed, 0),
            FAILOVER_RATE,
            count,
            Instant::now() + patience,
        )]
    });
    trace::end(&mut tracer, call);
    let mut m = Measurement::default();
    let load = &run.phases[0];
    fold_service(&run, load, &mut m, &mut tracer, call);
    trace::end(&mut tracer, root);
    note_latency(&mut m, load, 0);
    m.work_per_s = load.acked_per_s();
    note_cpu(&mut m, cpu);
    m
}

/// A fault-free service of the failover workload's (9,2) shape under a
/// closed loop: the commands-per-second denominator for "failover within
/// 2× of clean".
pub fn clean_reference_cmds_per_s(seed: u64, seconds: f64) -> f64 {
    let clean = ServiceSpec {
        adversary: AdversaryMix::None,
        ..FAILOVER
    };
    let window = Duration::from_secs_f64(seconds);
    let id = first_id(seed, 14);
    let run = run_service(&clean, seed, Duration::from_secs(60), move |t| {
        let give_up = Instant::now() + window + Duration::from_secs(10);
        vec![drive_closed(t, id, 256, window, give_up)]
    });
    if run.violations.is_empty() {
        run.phases[0].acked_per_s()
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_round_trip_and_are_unique() {
        for w in ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }

    #[test]
    fn a_full_window_leaves_ten_samples_beyond_p95() {
        // Serve: half the window at SERVE_RATE, minus the first tenth.
        let serve = (SERVE_RATE * 0.5 * crate::DEFAULT_SECONDS * 0.9) as usize;
        assert!(stats::beyond(serve, 95) >= 10, "{serve} samples");
        let failover = (FAILOVER_REQUESTS_PER_SECOND * crate::DEFAULT_SECONDS) as usize;
        assert!(stats::beyond(failover, 95) >= 10, "{failover} samples");
    }

    #[test]
    fn the_rate_of_whole_runs_comes_from_their_lower_quartile() {
        let mut m = Measurement {
            // One disturbed run in three must not move the rate.
            op_ms: vec![10.0, 10.0, 10.0, 10.0, 30.0, 40.0],
            ..Measurement::default()
        };
        Reps::new(None, 0.0).finish(&mut m, 1_000);
        assert_eq!(m.work_per_s, 100_000.0);
    }

    #[test]
    fn same_seed_same_exact_counts() {
        // The sim workloads at a shape small enough for a debug build.
        for family in ["flood", "brb2"] {
            let a = sim_reps(&canonical(family, 16, 5, 11), 0.0, None);
            let b = sim_reps(&canonical(family, 16, 5, 11), 0.0, None);
            assert!(a.violations.is_empty(), "{:?}", a.violations);
            assert_eq!(a.failed, 0);
            // The verify counters are process-global deltas, exact only
            // when nothing else runs — not under a parallel test runner.
            let sim_only = |m: &Measurement| -> Vec<(&str, u64)> {
                m.exact
                    .iter()
                    .filter(|(k, _)| k.starts_with("sim."))
                    .map(|(k, v)| (*k, *v))
                    .collect()
            };
            assert_eq!(sim_only(&a), sim_only(&b), "{family}");
            assert_eq!(sim_only(&a).len(), 5);
        }
    }

    #[test]
    fn the_seed_drives_inputs_ids_and_sweep_cell_seeds() {
        assert_ne!(input_for(1), input_for(2));
        assert_eq!(input_for(7), input_for(7));
        assert_ne!(first_id(1, 0), first_id(2, 0));
        assert!(first_id(u64::MAX, 15) < 1 << 53);
        assert_ne!(mix(1, 0), mix(1, 1));

        let some_cells = || -> Vec<ScenarioSpec> {
            grid::cells(gcl_bench::registry())
                .into_iter()
                .step_by(54)
                .collect()
        };
        let seeds = |seed: u64| -> Vec<u64> {
            sweep_pass(some_cells(), mix(seed, 0))
                .cells
                .iter()
                .map(|c| c.spec.seed)
                .collect()
        };
        let (a, again, other) = (seeds(3), seeds(3), seeds(4));
        assert_eq!(a, again, "same seed, same cell seeds");
        assert!(
            a.iter().zip(&other).all(|(x, y)| x != y),
            "another seed moves every cell seed"
        );
        let report = sweep_pass(some_cells(), mix(3, 0));
        assert_eq!(
            sweep_checksum(&report),
            sweep_checksum(&sweep_pass(some_cells(), mix(3, 0)))
        );
    }
}
