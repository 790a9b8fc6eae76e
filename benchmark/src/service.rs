//! The benchmark's load generator for the SMR service: a `SlotEngine`
//! replica group on `AsyncBackend`, driven by one client thread that
//! submits on a schedule (open loop) or against a window of outstanding
//! requests (closed loop), with no retransmission — every serving replica
//! admits every `Submit`, so a request still unacknowledged when the run
//! gives up is a failure, not a retry.
//!
//! Latency is timed from the instant a request was **due**, not from when
//! the generator got round to sending it, so a stall of the generator or
//! of the service is inherited by every request queued behind it.

use crate::trace::{SpanId, Tracer};
use gcl_crypto::Keychain;
use gcl_net::{AsyncBackend, ClientHandle};
use gcl_sim::{AdversaryMix, MsgCodec, ScenarioSpec, SchedCounters};
use gcl_smr::{MempoolStats, SlotEngine, SmrMsg, SmrParams, StateMachine};
use gcl_types::{Decode, Duration as SimDuration, Encode, PartyId, SlotId, Value};
use parking_lot::Mutex;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Link latency injected on every hop of every wall workload: δ′ = 2 ms.
pub const WALL_DELTA: SimDuration = SimDuration::from_millis(2);

/// The shape of one service under test.
#[derive(Debug, Clone, Copy)]
pub struct ServiceSpec {
    pub n: usize,
    pub f: usize,
    /// Δ′; view timers are 4Δ′.
    pub big_delta: SimDuration,
    pub params: SmrParams,
    pub adversary: AdversaryMix,
}

impl ServiceSpec {
    /// The registry's `smr` spec reshaped to this service, keyed by `seed`.
    pub fn scenario(&self, seed: u64) -> ScenarioSpec {
        gcl_bench::registry()
            .spec("smr")
            .expect("smr family is registered")
            .with_shape(self.n, self.f)
            .with_bounds(WALL_DELTA, self.big_delta)
            .with_adversary(self.adversary)
            .with_seed(seed)
    }
}

/// What the service said about one request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reply {
    Ack(u64),
    Reject(u64),
    /// A delivery that is neither (never produced by an honest replica).
    Other,
}

/// The generator's view of the service. The real one wraps a
/// [`ClientHandle`]; tests substitute a fake to inject stalls and losses.
/// Shared between the sending and the receiving thread of an open loop.
pub trait Transport: Sync {
    /// Sends request `id` to every replica; `false` once the service is gone.
    fn submit(&self, id: u64) -> bool;
    /// The next reply, waiting up to `wait` for one.
    fn poll(&self, wait: Duration) -> Option<Reply>;
}

struct ClientTransport {
    handle: ClientHandle,
    n: usize,
}

impl Transport for ClientTransport {
    fn submit(&self, id: u64) -> bool {
        let frame = SmrMsg::Submit {
            cmd: Value::new(id),
        }
        .to_wire();
        (0..self.n as u32).all(|p| self.handle.submit(PartyId::new(p), frame.clone()))
    }

    fn poll(&self, wait: Duration) -> Option<Reply> {
        let bytes = if wait.is_zero() {
            self.handle.try_recv()
        } else {
            self.handle.recv_timeout(wait)
        }?;
        Some(match SmrMsg::from_wire(&bytes) {
            Ok(SmrMsg::Ack { cmd, .. }) => Reply::Ack(cmd.as_u64()),
            Ok(SmrMsg::Reject { cmd }) => Reply::Reject(cmd.as_u64()),
            _ => Reply::Other,
        })
    }
}

/// Everything the generator stamped for one phase of load. Index `i` is
/// the request with id `first_id + i`.
#[derive(Debug, Clone)]
pub struct PhaseLog {
    pub first_id: u64,
    /// When each request was due (closed loop: when it was sent).
    pub due: Vec<Instant>,
    /// When the generator started and finished fanning it out.
    pub sent: Vec<(Instant, Instant)>,
    /// First acknowledgement, if one arrived before the phase gave up.
    pub acked: Vec<Option<Instant>>,
    pub rejected: Vec<bool>,
    /// When the phase stopped observing.
    pub end: Instant,
}

impl PhaseLog {
    fn new(first_id: u64) -> Self {
        PhaseLog {
            first_id,
            due: Vec::new(),
            sent: Vec::new(),
            acked: Vec::new(),
            rejected: Vec::new(),
            end: Instant::now(),
        }
    }

    /// Sends the next request, stamping it; `false` once the service is gone.
    fn send(&mut self, t: &dyn Transport, due: Instant) -> bool {
        let id = self.first_id + self.due.len() as u64;
        let started = Instant::now();
        let live = t.submit(id);
        self.due.push(due);
        self.sent.push((started, Instant::now()));
        self.acked.push(None);
        self.rejected.push(false);
        live
    }

    /// Notes a reply; `true` when it is the first acknowledgement of one
    /// of this phase's requests (every replica acknowledges; later ones
    /// and other phases' stragglers are ignored).
    fn note(&mut self, reply: Reply) -> bool {
        let index = |id: u64| usize::try_from(id.checked_sub(self.first_id)?).ok();
        match reply {
            Reply::Ack(id) => match index(id).and_then(|i| self.acked.get_mut(i)) {
                Some(slot @ None) => {
                    *slot = Some(Instant::now());
                    true
                }
                _ => false,
            },
            Reply::Reject(id) => {
                if let Some(r) = index(id).and_then(|i| self.rejected.get_mut(i)) {
                    *r = true;
                }
                false
            }
            Reply::Other => false,
        }
    }

    pub fn attempted(&self) -> u64 {
        self.due.len() as u64
    }

    /// Requests that were never acknowledged, or were refused.
    pub fn failed(&self) -> u64 {
        self.acked
            .iter()
            .zip(&self.rejected)
            .filter(|(a, r)| a.is_none() || **r)
            .count() as u64
    }

    /// Due-to-first-ack latency in ms of every acknowledged request from
    /// index `skip` on (the warm-up exclusion), unsorted.
    pub fn ack_ms(&self, skip: usize) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.acked)
            .skip(skip)
            .filter_map(|(d, a)| a.map(|a| a.saturating_duration_since(*d).as_secs_f64() * 1e3))
            .collect()
    }

    /// How late each request left the generator (send start − due), µs.
    pub fn late_us(&self) -> Vec<f64> {
        self.due
            .iter()
            .zip(&self.sent)
            .map(|(d, (s, _))| s.saturating_duration_since(*d).as_secs_f64() * 1e6)
            .collect()
    }

    /// Acknowledged requests per second from the first due instant to the
    /// last acknowledgement.
    pub fn acked_per_s(&self) -> f64 {
        let acked = self.acked.iter().flatten().count();
        match (self.due.first(), self.acked.iter().flatten().max()) {
            (Some(first), Some(last)) if last > first => {
                acked as f64 / last.duration_since(*first).as_secs_f64()
            }
            _ => 0.0,
        }
    }

    /// First acknowledgements counted in each full second after the first
    /// due instant (the ramp-up second and the partial last one dropped).
    pub fn acked_in_each_second(&self) -> Vec<f64> {
        let Some(&t0) = self.due.first() else {
            return Vec::new();
        };
        let mut counts: Vec<f64> = Vec::new();
        for acked in self.acked.iter().flatten() {
            let second = acked.saturating_duration_since(t0).as_secs() as usize;
            if counts.len() <= second {
                counts.resize(second + 1, 0.0);
            }
            counts[second] += 1.0;
        }
        counts.pop();
        counts.into_iter().skip(1).collect()
    }

    /// The longest interval with requests due and no acknowledgement
    /// arriving, ms.
    pub fn unavailable_ms(&self) -> f64 {
        let Some(&t0) = self.due.first() else {
            return 0.0;
        };
        let ms = |at: Instant| at.saturating_duration_since(t0).as_secs_f64() * 1e3;
        let due: Vec<f64> = self.due.iter().map(|&d| ms(d)).collect();
        let acked: Vec<Option<f64>> = self.acked.iter().map(|a| a.map(ms)).collect();
        crate::stats::longest_gap(&due, &acked, ms(self.end))
    }
}

/// Open loop: request `i` is due at `start + i / rate`, whatever the
/// service is doing. A sender thread does nothing but sleep until the
/// next due instant and fan the request out — it stays cheap, so the
/// scheduler runs it promptly even when every core is busy — while the
/// calling thread receives acknowledgements. After the last send the
/// phase waits for stragglers until `give_up`.
pub fn drive_open(
    t: &dyn Transport,
    first_id: u64,
    rate_per_s: f64,
    count: u64,
    give_up: Instant,
) -> PhaseLog {
    let gap = Duration::from_secs_f64(1.0 / rate_per_s);
    let start = Instant::now();
    let sent = AtomicU64::new(0);
    let sender_done = AtomicBool::new(false);
    // The receiver owns the acknowledgement columns, pre-sized: an ack can
    // only name a request the sender has already submitted.
    let mut log = PhaseLog::new(first_id);
    log.acked = vec![None; count as usize];
    log.rejected = vec![false; count as usize];
    let sends = std::thread::scope(|scope| {
        let sender = scope.spawn(|| {
            let mut sends = Vec::with_capacity(count as usize);
            for i in 0..count {
                let due = start + gap.mul_f64(i as f64);
                let now = Instant::now();
                if now >= give_up {
                    break;
                }
                if due > now {
                    std::thread::sleep(due - now);
                }
                let started = Instant::now();
                let live = t.submit(first_id + i);
                sends.push((due, started, Instant::now()));
                // Release: the receiver's count of submitted requests must
                // not run ahead of the submissions themselves.
                sent.store(i + 1, Ordering::Release);
                if !live {
                    break;
                }
            }
            sender_done.store(true, Ordering::Release);
            sends
        });
        let mut acked = 0u64;
        loop {
            // `done` is read before `sent`, so a finished sender's final
            // count is the one compared against.
            let done = sender_done.load(Ordering::Acquire);
            if (done && acked == sent.load(Ordering::Acquire)) || Instant::now() >= give_up {
                break;
            }
            if let Some(reply) = t.poll(Duration::from_millis(20)) {
                acked += u64::from(log.note(reply));
            }
        }
        sender.join().expect("the sender thread does not panic")
    });
    log.acked.truncate(sends.len());
    log.rejected.truncate(sends.len());
    for (due, started, finished) in sends {
        log.due.push(due);
        log.sent.push((started, finished));
    }
    log.end = Instant::now();
    log
}

/// Closed loop: `outstanding` requests in flight; each first
/// acknowledgement releases the next send until `duration` has passed,
/// then the window drains (until `give_up`).
pub fn drive_closed(
    t: &dyn Transport,
    first_id: u64,
    outstanding: usize,
    duration: Duration,
    give_up: Instant,
) -> PhaseLog {
    let mut log = PhaseLog::new(first_id);
    let stop_sending = Instant::now() + duration;
    let mut in_flight = 0usize;
    let mut live = true;
    loop {
        let now = Instant::now();
        let sending = live && now < stop_sending;
        if sending && in_flight < outstanding {
            live = log.send(t, now);
            in_flight += 1;
            continue;
        }
        if (!sending && in_flight == 0) || now >= give_up {
            break;
        }
        if let Some(reply) = t.poll(Duration::from_millis(20)) {
            in_flight -= usize::from(log.note(reply));
        }
    }
    log.end = Instant::now();
    log
}

/// One applied command as the probe replica's state machine saw it.
#[derive(Debug, Clone, Copy)]
pub struct Applied {
    pub id: u64,
    pub slot: u64,
    pub at: Instant,
}

/// A counter state machine; the probe replica's also logs every apply
/// (the others carry no log, so the harness adds no work to them). The
/// digest covers command content only, so replicas agree byte for byte.
#[derive(Debug)]
struct RecordingMachine {
    total: u64,
    applied: u64,
    log: Option<Arc<Mutex<Vec<Applied>>>>,
}

impl StateMachine for RecordingMachine {
    fn apply(&mut self, slot: SlotId, value: Value) {
        self.total = self.total.wrapping_add(value.as_u64());
        self.applied += 1;
        if let Some(log) = &self.log {
            log.lock().push(Applied {
                id: value.as_u64(),
                slot: slot.index(),
                at: Instant::now(),
            });
        }
    }

    fn state_digest(&self) -> u64 {
        self.total ^ (self.applied << 48)
    }
}

/// The result of one service run: the generator's phase logs plus what
/// the replicas and the probe replica's state machine reported.
#[derive(Debug)]
pub struct ServiceRun {
    pub phases: Vec<PhaseLog>,
    /// The probe replica's apply log, in apply order.
    pub applied: Vec<Applied>,
    pub mempool: MempoolStats,
    pub sched: Option<SchedCounters>,
    pub messages: u64,
    /// `execute_with_client` wall time (start-up, load, quiesce).
    pub wall: Duration,
    /// Output violations found by the audit; empty means correct.
    pub violations: Vec<String>,
}

/// Starts the service, runs `script` on the client thread, lets the idle
/// log quiesce, and audits the outcome: replica digests agree, every
/// honest replica finished, no command applied twice at the probe
/// replica, every acknowledged command applied there.
pub fn run_service(
    svc: &ServiceSpec,
    seed: u64,
    deadline: Duration,
    script: impl FnOnce(&dyn Transport) -> Vec<PhaseLog> + Send + 'static,
) -> ServiceRun {
    let spec = svc.scenario(seed);
    let cfg = spec.config().expect("service shape is a valid config");
    let chain = Keychain::generate(spec.n, spec.seed);
    let byzantine: BTreeSet<usize> = spec
        .adversary_slots()
        .iter()
        .map(|(p, _)| p.as_usize())
        .collect();
    // The highest honest replica: a follower (its applies ride the whole
    // commit path) that no kill schedule touches.
    let probe = (0..spec.n)
        .rev()
        .find(|i| !byzantine.contains(i))
        .expect("an honest replica");
    let log: Arc<Mutex<Vec<Applied>>> = Arc::default();
    let stats: Arc<Mutex<MempoolStats>> = Arc::default();
    let slots = spec.erased_slots(|p| {
        let machine = Arc::new(Mutex::new(RecordingMachine {
            total: 0,
            applied: 0,
            log: (p.as_usize() == probe).then(|| Arc::clone(&log)),
        }));
        let engine = SlotEngine::new(
            cfg,
            chain.signer(p),
            chain.pki(),
            spec.big_delta,
            svc.params,
            machine,
        );
        if p.as_usize() == probe {
            engine.with_stats_probe(Arc::clone(&stats))
        } else {
            engine
        }
    });

    let phases: Arc<Mutex<Vec<PhaseLog>>> = Arc::default();
    let phases_out = Arc::clone(&phases);
    let n = spec.n;
    let started = Instant::now();
    let outcome = AsyncBackend::new().deadline(deadline).execute_with_client(
        &spec,
        slots,
        MsgCodec::of::<SmrMsg>(),
        move |handle: ClientHandle| {
            let transport = ClientTransport { handle, n };
            *phases_out.lock() = script(&transport);
        },
    );
    let wall = started.elapsed();

    let phases = std::mem::take(&mut *phases.lock());
    let applied = std::mem::take(&mut *log.lock());
    let mut violations = Vec::new();
    if !outcome.agreement_holds() {
        violations.push("replica state digests disagree".to_string());
    }
    if !outcome.all_honest_committed() {
        violations.push("an honest replica never finished its log".to_string());
    }
    let mut seen = BTreeSet::new();
    if !applied.iter().all(|a| seen.insert(a.id)) {
        violations.push("a command was applied twice at the probe replica".to_string());
    }
    let acked_unapplied = phases
        .iter()
        .flat_map(|p| {
            p.acked
                .iter()
                .enumerate()
                .filter(|(_, a)| a.is_some())
                .map(move |(i, _)| p.first_id + i as u64)
        })
        .filter(|id| !seen.contains(id))
        .count();
    if acked_unapplied > 0 {
        violations.push(format!(
            "{acked_unapplied} acknowledged commands never applied at the probe replica"
        ));
    }
    let mempool = *stats.lock();
    ServiceRun {
        phases,
        applied,
        mempool,
        sched: outcome.sched_counters(),
        messages: outcome.messages_sent(),
        wall,
        violations,
    }
}

/// Folds one phase's request stages into the trace: per request a
/// `request` span (due → first ack) with `submit_fan`, `apply` (fan-out
/// done → applied at the probe replica) and `ack_recv` (applied → ack
/// seen by the client) children, all sharing the command id.
pub fn trace_phase(tracer: &mut Tracer, parent: SpanId, phase: &PhaseLog, applied: &[Applied]) {
    let applied_at: std::collections::BTreeMap<u64, Instant> =
        applied.iter().map(|a| (a.id, a.at)).collect();
    for (i, (&due, &(s0, s1))) in phase.due.iter().zip(&phase.sent).enumerate() {
        let Some(acked) = phase.acked[i] else {
            continue;
        };
        let id = phase.first_id + i as u64;
        let req = tracer.record("request", due, acked, Some(parent), id);
        tracer.record("submit_fan", s0, s1, Some(req), id);
        if let Some(&at) = applied_at.get(&id) {
            let at = at.min(acked);
            tracer.record("apply", s1, at, Some(req), id);
            tracer.record("ack_recv", at, acked, Some(req), id);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::VecDeque;

    /// A service that acknowledges instantly, except that it can stall the
    /// generator inside one `submit` and lose or refuse chosen requests.
    #[derive(Default)]
    struct Fake {
        replies: Mutex<VecDeque<Reply>>,
        stall_on: Option<(u64, Duration)>,
        drop_ids: Vec<u64>,
        reject_ids: Vec<u64>,
    }

    impl Transport for Fake {
        fn submit(&self, id: u64) -> bool {
            if let Some((_, stall)) = self.stall_on.filter(|(at, _)| *at == id) {
                std::thread::sleep(stall);
            }
            let mut replies = self.replies.lock();
            if self.reject_ids.contains(&id) {
                replies.push_back(Reply::Reject(id));
            } else if !self.drop_ids.contains(&id) {
                // Every replica acknowledges: duplicates must be ignored.
                replies.push_back(Reply::Ack(id));
                replies.push_back(Reply::Ack(id));
            }
            true
        }

        fn poll(&self, wait: Duration) -> Option<Reply> {
            let reply = self.replies.lock().pop_front();
            if reply.is_none() && !wait.is_zero() {
                std::thread::sleep(wait.min(Duration::from_millis(1)));
            }
            reply
        }
    }

    #[test]
    fn a_generator_stall_is_inherited_by_the_requests_behind_it() {
        // 1 000 req/s; submitting request 20 blocks the generator for
        // 50 ms, so requests 21..70 leave late. Timed from their actual
        // send they would look instant; timed from when they were due,
        // request 21 waited ~49 ms, request 45 ~25 ms.
        let fake = Fake {
            stall_on: Some((120, Duration::from_millis(50))),
            ..Fake::default()
        };
        let give_up = Instant::now() + Duration::from_secs(10);
        let log = drive_open(&fake, 100, 1000.0, 100, give_up);
        assert_eq!(log.attempted(), 100);
        assert_eq!(log.failed(), 0);
        let ms = log.ack_ms(0);
        assert_eq!(ms.len(), 100);
        assert!(ms[21] >= 45.0, "request behind the stall: {} ms", ms[21]);
        assert!(ms[45] >= 20.0, "still queued: {} ms", ms[45]);
        assert!(ms[5] < 20.0, "before the stall: {} ms", ms[5]);
        let late = log.late_us();
        assert!(late[21] >= 45_000.0, "lateness is reported: {}", late[21]);
        // Due instants stay on the schedule whatever the generator did.
        let spacing = log.due[99].duration_since(log.due[0]);
        assert_eq!(spacing, Duration::from_millis(1).mul_f64(99.0));
        assert!(log.unavailable_ms() >= 45.0);
    }

    #[test]
    fn unacked_and_rejected_requests_count_as_failed() {
        let fake = Fake {
            drop_ids: vec![3, 4],
            reject_ids: vec![7],
            ..Fake::default()
        };
        let give_up = Instant::now() + Duration::from_millis(100);
        let log = drive_open(&fake, 0, 2000.0, 10, give_up);
        assert_eq!(log.attempted(), 10);
        assert_eq!(log.failed(), 3, "two lost, one refused");
        assert_eq!(log.ack_ms(0).len(), 7, "a failed request has no latency");
        assert!(log.end >= give_up, "the phase waited for the stragglers");
        // The lost requests stay outstanding to the end of observation.
        assert!(log.unavailable_ms() >= 90.0);
    }

    #[test]
    fn acks_are_counted_per_full_second() {
        let t0 = Instant::now();
        let mut log = PhaseLog::new(0);
        // 10 acks in second 0, 20 in second 1, 30 in second 2, 5 in second 3.
        for (second, n) in [(0u64, 10), (1, 20), (2, 30), (3, 5)] {
            for k in 0..n {
                log.due.push(t0);
                log.acked
                    .push(Some(t0 + Duration::from_millis(second * 1000 + k)));
            }
        }
        assert_eq!(log.acked_in_each_second(), [20.0, 30.0]);
    }

    #[test]
    fn closed_loop_keeps_the_window_full_and_drains() {
        let fake = Fake::default();
        let give_up = Instant::now() + Duration::from_secs(10);
        let log = drive_closed(&fake, 0, 8, Duration::from_millis(30), give_up);
        assert!(log.attempted() > 8, "acks released further sends");
        assert_eq!(log.failed(), 0, "the window drained");
        assert!(log.acked_per_s() > 0.0);
    }

    #[test]
    fn a_small_service_run_passes_its_audit() {
        let svc = ServiceSpec {
            n: 4,
            f: 1,
            big_delta: SimDuration::from_millis(20),
            params: SmrParams::default(),
            adversary: AdversaryMix::None,
        };
        let run = run_service(&svc, 7, Duration::from_secs(20), |t| {
            let give_up = Instant::now() + Duration::from_secs(10);
            vec![drive_open(t, 1000, 500.0, 40, give_up)]
        });
        assert!(run.violations.is_empty(), "{:?}", run.violations);
        assert_eq!(run.phases[0].failed(), 0);
        assert_eq!(run.applied.len(), 40);
        let mut tracer = Tracer::new();
        let root = tracer.begin("workload", None);
        trace_phase(&mut tracer, root, &run.phases[0], &run.applied);
        tracer.end(root);
        assert_eq!(
            tracer.spans.iter().filter(|s| s.name == "request").count(),
            40
        );
        assert!(tracer
            .spans
            .iter()
            .filter(|s| s.name == "apply")
            .all(|s| (1000..1040).contains(&s.request_id)));
    }
}
