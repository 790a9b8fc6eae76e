//! The simulation loop.
//!
//! The hot path is allocation-free at steady state: the per-event effect
//! buffers (sends, timers, commits) are scratch vectors owned by `run()`
//! and drained after every handler invocation, and multicast payloads are
//! enqueued once behind a shared reference-counted pointer and shared by
//! all `n` in-flight deliveries (see [`Context::multicast`]).

use crate::context::{Context, Protocol, Strategy};
use crate::event::{EventKind, EventQueue, Payload, Shared, TraceEntry};
use crate::network::{clamp_delivery, DelayOracle, FixedDelay, MsgEnvelope, TimingModel};
use crate::outcome::{CommitRecord, Outcome};
use gcl_types::{Config, Duration, GlobalTime, LocalTime, PartyId, SkewSchedule, Value};
use std::fmt;

/// Entry point: `Simulation::build(config)` returns a [`SimulationBuilder`].
#[derive(Debug)]
pub struct Simulation;

impl Simulation {
    /// Starts building a simulation for `config`.
    pub fn build<M: Clone + fmt::Debug + Send + 'static>(config: Config) -> SimulationBuilder<M> {
        SimulationBuilder::new(config)
    }
}

/// One party slot: the code the party runs and whether it counts as honest
/// for [`Outcome`] audits. A [`ScenarioSpec`](crate::ScenarioSpec) builds
/// all `n` of a run; a [`Backend`](crate::Backend) receives them
/// type-erased, as [`ErasedSlot`](crate::ErasedSlot)s.
pub struct Slot<M> {
    /// The party's code.
    pub strategy: Box<dyn Strategy<M>>,
    /// Whether the slot is honest.
    pub honest: bool,
}

impl<M> Slot<M> {
    /// A slot running `strategy`, honest or not.
    pub(crate) fn new(strategy: impl Strategy<M>, honest: bool) -> Self {
        Slot {
            strategy: Box::new(strategy),
            honest,
        }
    }
}

impl<M> fmt::Debug for Slot<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Slot")
            .field("honest", &self.honest)
            .finish_non_exhaustive()
    }
}

/// Horizon after which a run stops: 600 simulated seconds.
const MAX_TIME: GlobalTime = GlobalTime::from_micros(600_000_000);

/// Event budget after which a run stops. A truncated run still yields a
/// well-formed [`Outcome`]; metrics that need every honest party to commit
/// (e.g. [`Outcome::good_case_latency`]) come back `None`.
const MAX_EVENTS: u64 = 20_000_000;

/// Delivery fallback for `Never` on honest links under asynchrony.
const ASYNC_FALLBACK: Duration = Duration::from_millis(1_000);

/// Configures and runs one execution.
///
/// Slots left unfilled by [`SimulationBuilder::byzantine`] are populated
/// by [`SimulationBuilder::spawn_honest`].
pub struct SimulationBuilder<M> {
    config: Config,
    timing: TimingModel,
    oracle: Box<dyn DelayOracle<M>>,
    skew: SkewSchedule,
    /// `None` until filled.
    slots: Vec<Option<Slot<M>>>,
    broadcaster: PartyId,
    record_trace: bool,
    queue_delta: Duration,
    drop_dead_sends: bool,
}

impl<M: Clone + fmt::Debug + Send + 'static> SimulationBuilder<M> {
    fn new(config: Config) -> Self {
        let n = config.n();
        SimulationBuilder {
            config,
            timing: TimingModel::Asynchrony,
            oracle: Box::new(FixedDelay::new(Duration::from_micros(1))),
            skew: SkewSchedule::synchronized(n),
            slots: (0..n).map(|_| None).collect(),
            broadcaster: PartyId::new(0),
            record_trace: false,
            queue_delta: Duration::from_micros(1),
            drop_dead_sends: true,
        }
    }

    /// Sets the timing model (default: asynchrony).
    #[must_use]
    pub fn timing(mut self, timing: TimingModel) -> Self {
        self.timing = timing;
        self
    }

    /// Sets the adversarial delay oracle (default: every message 1µs).
    #[must_use]
    pub fn oracle(mut self, oracle: impl DelayOracle<M> + 'static) -> Self {
        self.oracle = Box::new(oracle);
        self
    }

    /// Sets per-party start times (default: synchronized start, σ = 0).
    ///
    /// # Panics
    ///
    /// Panics if the schedule covers a different number of parties.
    #[must_use]
    pub fn skew(mut self, skew: SkewSchedule) -> Self {
        assert_eq!(skew.n(), self.config.n(), "skew schedule size mismatch");
        self.skew = skew;
        self
    }

    /// Declares which party is the designated broadcaster (default: party 0).
    /// Only affects latency accounting, not behavior.
    #[must_use]
    pub(crate) fn broadcaster(mut self, p: PartyId) -> Self {
        self.broadcaster = p;
        self
    }

    /// Enables trace recording (off by default; traces can be large).
    #[must_use]
    pub fn record_trace(mut self, yes: bool) -> Self {
        self.record_trace = yes;
        self
    }

    /// Hints the event queue's calendar bucket width: the characteristic
    /// message delay δ of the run (default 1µs, matching the default
    /// oracle). The scenario layer plumbs its spec's δ through here so a
    /// fixed-delay n-way multicast lands in one time slot.
    #[must_use]
    pub(crate) fn queue_delta(mut self, delta: Duration) -> Self {
        self.queue_delta = delta;
        self
    }

    /// Whether sends to already-terminated recipients are discarded at
    /// enqueue time instead of being parked, popped and filtered (default:
    /// on). Either way the message is *sent* — it counts toward
    /// [`Outcome::messages_sent`] and the round-boundary bookkeeping — but
    /// with drops on it never touches the queue, and the discard is
    /// reported in [`Outcome::drops_at_enqueue`]. Off exists for A/B
    /// semantics tests; commits and audits are identical either way.
    #[cfg(test)]
    #[must_use]
    fn drop_dead_sends(mut self, yes: bool) -> Self {
        self.drop_dead_sends = yes;
        self
    }

    /// Installs a Byzantine strategy at slot `p`.
    #[must_use]
    pub fn byzantine(mut self, p: PartyId, strategy: impl Strategy<M>) -> Self {
        self.slots[p.as_usize()] = Some(Slot::new(strategy, false));
        self
    }

    /// Fills the slots in party-id order from `slots` — the population a
    /// [`ScenarioSpec`](crate::ScenarioSpec) builds. Filled in place as the
    /// iterator yields, so party objects land on the heap as
    /// [`SimulationBuilder::spawn_honest`] places them; collecting them into
    /// an intermediate vector first measurably slowed the n = 1024 flood.
    #[must_use]
    pub(crate) fn slots(mut self, slots: impl IntoIterator<Item = Slot<M>>) -> Self {
        for (dst, slot) in self.slots.iter_mut().zip(slots) {
            *dst = Some(slot);
        }
        self
    }

    /// Fills every remaining slot with `make(party)` as honest code.
    #[must_use]
    pub fn spawn_honest<P: Protocol<Msg = M>>(
        mut self,
        mut make: impl FnMut(PartyId) -> P,
    ) -> Self {
        for i in 0..self.config.n() {
            if self.slots[i].is_none() {
                let p = PartyId::new(i as u32);
                self.slots[i] = Some(Slot::new(make(p), true));
            }
        }
        self
    }

    /// Runs the execution to completion and returns the [`Outcome`].
    ///
    /// # Panics
    ///
    /// Panics if any slot is still unfilled.
    pub fn run(self) -> Outcome {
        let SimulationBuilder {
            config,
            timing,
            oracle,
            skew,
            slots,
            broadcaster,
            record_trace,
            queue_delta,
            drop_dead_sends,
        } = self;

        let n = config.n();
        let mut strategies: Vec<Box<dyn Strategy<M>>> = Vec::with_capacity(n);
        let mut honest = Vec::with_capacity(n);
        for (i, slot) in slots.into_iter().enumerate() {
            let slot = slot.unwrap_or_else(|| panic!("slot {i} was never filled"));
            strategies.push(slot.strategy);
            honest.push(slot.honest);
        }

        let mut net = Router {
            queue: EventQueue::with_delta(queue_delta),
            oracle,
            last_delivery_of_round: Vec::new(),
            messages_sent: 0,
            drops_at_enqueue: 0,
            timing,
            n,
            honest,
            // Termination lives with the router so `route` can discard
            // sends to dead recipients at enqueue time.
            terminated: vec![false; n],
            drop_dead_sends,
        };
        for p in config.parties() {
            net.queue.push(skew.start_of(p), EventKind::Start(p));
        }

        let mut started = vec![false; n];
        let mut committed: Vec<Option<CommitRecord>> = vec![None; n];
        // None = nothing delivered yet; Some(r) = max round tag delivered.
        let mut max_round: Vec<Option<u32>> = vec![None; n];
        let mut trace = Vec::new();
        // Honest parties still running — O(1) replacement for an O(n)
        // "is everyone done" scan per event.
        let mut honest_live = net.honest.iter().filter(|&&h| h).count();

        // Scratch buffers for handler effects, drained after every event —
        // the steady-state loop reuses their capacity instead of
        // allocating fresh vectors per event.
        let mut sends: Vec<SendOp<M>> = Vec::new();
        let mut timers: Vec<(Duration, u64)> = Vec::new();
        let mut commits: Vec<Value> = Vec::new();

        let mut events_processed: u64 = 0;
        let mut now = GlobalTime::ZERO;

        while let Some(ev) = net.queue.pop() {
            if ev.at > MAX_TIME || events_processed >= MAX_EVENTS {
                break;
            }
            now = ev.at;
            events_processed += 1;

            // All honest parties done => nothing left to observe.
            if honest_live == 0 {
                break;
            }

            let (party, action) = match ev.kind {
                EventKind::Start(p) => {
                    started[p.as_usize()] = true;
                    if record_trace {
                        trace.push(TraceEntry::Started { at: now, party: p });
                    }
                    (p, Action::Start)
                }
                EventKind::Deliver {
                    to,
                    from,
                    msg,
                    round,
                } => {
                    if !started[to.as_usize()] && !net.terminated[to.as_usize()] {
                        // Delivered before the recipient's protocol start:
                        // buffer by rescheduling at its start instant.
                        net.queue.push(
                            skew.start_of(to),
                            EventKind::Deliver {
                                to,
                                from,
                                msg,
                                round,
                            },
                        );
                        continue;
                    }
                    if net.terminated[to.as_usize()] {
                        // Parked before the recipient terminated (or drops
                        // are off): discarded at pop, as always.
                        continue;
                    }
                    let slot = to.as_usize();
                    max_round[slot] = Some(max_round[slot].map_or(round, |r| r.max(round)));
                    if record_trace {
                        trace.push(TraceEntry::Delivered {
                            at: now,
                            from,
                            to,
                            round,
                            msg: format!("{msg:?}"),
                        });
                    }
                    (to, Action::Message(from, msg))
                }
                EventKind::Timer { party, tag } => {
                    if net.terminated[party.as_usize()] {
                        continue;
                    }
                    if record_trace {
                        trace.push(TraceEntry::TimerFired {
                            at: now,
                            party,
                            tag,
                        });
                    }
                    (party, Action::Timer(tag))
                }
            };

            let slot = party.as_usize();
            let start = skew.start_of(party);
            let local = now
                .to_local(start)
                .expect("event before party start should have been rescheduled");

            let mut ctx = CtxImpl {
                me: party,
                config,
                now_local: local,
                sends: &mut sends,
                timers: &mut timers,
                commits: &mut commits,
                terminate: false,
            };

            match action {
                Action::Start => strategies[slot].start(&mut ctx),
                Action::Message(from, msg) => {
                    // Hand the payload to the party by value: inline
                    // payloads move, the last in-flight copy of a
                    // multicast unwraps for free, earlier ones clone
                    // lazily — a dropped message is never cloned at all.
                    strategies[slot].on_message(from, msg.into_msg(), &mut ctx)
                }
                Action::Timer(tag) => strategies[slot].on_timer(tag, &mut ctx),
            }
            let halted = ctx.terminate;

            // Effects: commits first (they logically precede sends in the
            // same handler for metric purposes — same instant regardless).
            for value in commits.drain(..) {
                if committed[slot].is_none() {
                    let round = max_round[slot].map_or(0, |r| r + 1);
                    committed[slot] = Some(CommitRecord {
                        party,
                        value,
                        global: now,
                        local,
                        round,
                        step: events_processed,
                    });
                    if record_trace {
                        trace.push(TraceEntry::Committed {
                            at: now,
                            party,
                            value,
                        });
                    }
                }
            }

            let out_round = max_round[slot].map_or(0, |r| r + 1);
            for op in sends.drain(..) {
                match op {
                    SendOp::One(to, m) => {
                        net.route(party, to, Payload::Owned(Box::new(m)), now, out_round)
                    }
                    SendOp::All { except, msg } => {
                        // Multicast fast path: one shared payload, n
                        // pointer bumps, destinations in id order (exactly
                        // the default `Context::multicast` order).
                        let skip = except.map_or(u32::MAX, |p| p.index());
                        for i in 0..n as u32 {
                            if i == skip {
                                continue;
                            }
                            let to = PartyId::new(i);
                            net.route(
                                party,
                                to,
                                Payload::Multicast(Shared::clone(&msg)),
                                now,
                                out_round,
                            );
                        }
                    }
                }
            }

            for (delay, tag) in timers.drain(..) {
                net.queue.push(now + delay, EventKind::Timer { party, tag });
            }

            if halted && !net.terminated[slot] {
                net.terminated[slot] = true;
                if net.honest[slot] {
                    honest_live -= 1;
                }
            }
        }

        Outcome {
            config,
            honest: net.honest,
            commits: committed.into_iter().flatten().collect(),
            terminated: net.terminated,
            broadcaster_start: skew.start_of(broadcaster),
            end_time: now,
            events_processed,
            messages_sent: net.messages_sent,
            peak_queue_depth: net.queue.peak(),
            drops_at_enqueue: net.drops_at_enqueue,
            queue_bytes: net.queue.retained_bytes() as u64,
            sched: None,
            last_delivery_of_round: net.last_delivery_of_round,
            trace,
        }
    }
}

/// Routing state for every point-to-point message of the run: the event
/// queue and the adversary's oracle.
struct Router<M> {
    queue: EventQueue<M>,
    oracle: Box<dyn DelayOracle<M>>,
    last_delivery_of_round: Vec<GlobalTime>,
    messages_sent: u64,
    /// Sends discarded at enqueue because the recipient had terminated.
    drops_at_enqueue: u64,
    timing: TimingModel,
    n: usize,
    honest: Vec<bool>,
    /// Per-slot termination flags — owned here so `route` can check the
    /// recipient at enqueue time (the run loop writes them on halt).
    terminated: Vec<bool>,
    drop_dead_sends: bool,
}

impl<M> Router<M> {
    fn note_delivery(&mut self, round: u32, at: GlobalTime) {
        let table = &mut self.last_delivery_of_round;
        if table.len() <= round as usize {
            table.resize(round as usize + 1, GlobalTime::ZERO);
        }
        table[round as usize] = table[round as usize].max(at);
    }

    /// Asks the oracle for a delay, clamps it to the timing model, and
    /// enqueues the delivery (or drops it, on an unconstrained link).
    fn route(&mut self, from: PartyId, to: PartyId, msg: Payload<M>, now: GlobalTime, round: u32) {
        if to.as_usize() >= self.n {
            // Out-of-band addresses (the reserved client id): the
            // simulator has no client endpoint, so such sends are dropped
            // before they touch the message counter — simulated runs stay
            // message-identical whether or not a protocol acknowledges an
            // (absent) client.
            return;
        }
        self.messages_sent += 1;
        if to == from {
            // Self-delivery: immediate, not adversary-controlled.
            self.note_delivery(round, now);
            self.queue.push(
                now,
                EventKind::Deliver {
                    to,
                    from,
                    msg,
                    round,
                },
            );
            return;
        }
        let env = MsgEnvelope {
            from,
            to,
            msg: msg.get(),
            from_honest: self.honest[from.as_usize()],
            to_honest: self.honest[to.as_usize()],
        };
        let choice = self.oracle.delay(&env);
        let honest_link = env.honest_link();
        if let Some(at) = clamp_delivery(self.timing, now, choice, honest_link, ASYNC_FALLBACK) {
            // Round-boundary bookkeeping sees every scheduled delivery,
            // dropped or not — latency/round metrics are identical with
            // drops on and off; only queue traffic changes.
            self.note_delivery(round, at);
            if self.drop_dead_sends && self.terminated[to.as_usize()] {
                // Dead recipient: a pop would only be filtered later.
                // Discard now — no envelope, no parking, no pop.
                self.drops_at_enqueue += 1;
                return;
            }
            self.queue.push(
                at,
                EventKind::Deliver {
                    to,
                    from,
                    msg,
                    round,
                },
            );
        }
    }
}

impl<M> fmt::Debug for SimulationBuilder<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimulationBuilder")
            .field("config", &self.config)
            .field("timing", &self.timing)
            .field("broadcaster", &self.broadcaster)
            .finish()
    }
}

enum Action<M> {
    Start,
    Message(PartyId, Payload<M>),
    Timer(u64),
}

/// One buffered send effect. Multicasts stay *one* entry carrying a shared
/// payload; they are fanned out at drain time by the router.
enum SendOp<M> {
    One(PartyId, M),
    All {
        except: Option<PartyId>,
        msg: Shared<M>,
    },
}

/// The runner-side [`Context`]: handler effects land in scratch buffers
/// borrowed from (and drained by) the event loop, so steady-state events
/// allocate nothing.
struct CtxImpl<'a, M> {
    me: PartyId,
    config: Config,
    now_local: LocalTime,
    sends: &'a mut Vec<SendOp<M>>,
    timers: &'a mut Vec<(Duration, u64)>,
    commits: &'a mut Vec<Value>,
    terminate: bool,
}

impl<M> Context<M> for CtxImpl<'_, M> {
    fn me(&self) -> PartyId {
        self.me
    }
    fn config(&self) -> Config {
        self.config
    }
    fn now(&self) -> LocalTime {
        self.now_local
    }
    fn send(&mut self, to: PartyId, msg: M) {
        self.sends.push(SendOp::One(to, msg));
    }
    fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.timers.push((delay, tag));
    }
    fn commit(&mut self, value: Value) {
        self.commits.push(value);
    }
    fn terminate(&mut self) {
        self.terminate = true;
    }
    fn multicast(&mut self, msg: M)
    where
        M: Clone,
    {
        self.sends.push(SendOp::All {
            except: None,
            msg: Shared::new(msg),
        });
    }
    fn multicast_except(&mut self, msg: M, skip: PartyId)
    where
        M: Clone,
    {
        self.sends.push(SendOp::All {
            except: Some(skip),
            msg: Shared::new(msg),
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::{DelayRule, LinkDelay, PartySet, ScheduleOracle};
    use crate::strategies::Crashing;

    /// Broadcaster multicasts its value; everyone commits on first receipt.
    struct Flood {
        input: Option<Value>,
    }

    impl Protocol for Flood {
        type Msg = Value;
        fn start(&mut self, ctx: &mut dyn Context<Value>) {
            if let Some(v) = self.input {
                ctx.multicast(v);
            }
        }
        fn on_message(&mut self, _from: PartyId, v: Value, ctx: &mut dyn Context<Value>) {
            ctx.commit(v);
            ctx.terminate();
        }
    }

    fn flood_sim(delta_us: u64) -> Outcome {
        let cfg = Config::new(4, 1).unwrap();
        Simulation::build(cfg)
            .timing(TimingModel::lockstep(Duration::from_micros(delta_us)))
            .oracle(FixedDelay::new(Duration::from_micros(delta_us)))
            .spawn_honest(|p| Flood {
                input: (p == PartyId::new(0)).then_some(Value::new(3)),
            })
            .run()
    }

    #[test]
    fn flood_commits_everywhere() {
        let o = flood_sim(10);
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed());
        assert!(o.all_honest_terminated());
        assert_eq!(o.committed_value(), Some(Value::new(3)));
        assert_eq!(o.good_case_latency(), Some(Duration::from_micros(10)));
        assert_eq!(o.good_case_rounds(), Some(1));
    }

    #[test]
    fn latency_scales_with_delta() {
        assert_eq!(
            flood_sim(250).good_case_latency(),
            Some(Duration::from_micros(250))
        );
    }

    #[test]
    fn synchrony_clamps_oracle_excess() {
        let cfg = Config::new(3, 1).unwrap();
        let o = Simulation::build(cfg)
            .timing(TimingModel::Synchrony {
                delta: Duration::from_micros(5),
                big_delta: Duration::from_micros(100),
            })
            // Oracle asks for 1000µs but honest links clamp to δ = 5µs.
            .oracle(FixedDelay::new(Duration::from_micros(1_000)))
            .spawn_honest(|p| Flood {
                input: (p == PartyId::new(0)).then_some(Value::new(1)),
            })
            .run();
        assert_eq!(o.good_case_latency(), Some(Duration::from_micros(5)));
    }

    #[test]
    fn byzantine_link_can_drop() {
        let cfg = Config::new(3, 1).unwrap();
        // Party 2 is "Byzantine" (runs the honest code, but its links are
        // unconstrained); drop everything it would receive.
        let oracle: ScheduleOracle<Value> =
            ScheduleOracle::new(Duration::from_micros(5)).rule(DelayRule::link(
                PartySet::Any,
                PartySet::One(PartyId::new(2)),
                LinkDelay::Never,
            ));
        let o = Simulation::build(cfg)
            .timing(TimingModel::lockstep(Duration::from_micros(5)))
            .oracle(oracle)
            .byzantine(PartyId::new(2), Flood { input: None })
            .spawn_honest(|p| Flood {
                input: (p == PartyId::new(0)).then_some(Value::new(2)),
            })
            .run();
        assert!(o.all_honest_committed());
        assert!(o.commit_of(PartyId::new(2)).is_none());
    }

    #[test]
    fn unsynchronized_start_buffers_early_messages() {
        let cfg = Config::new(3, 1).unwrap();
        // Party 2 starts 50µs late; the flood arrives at 10µs and must be
        // buffered until its start, then delivered at local time 0.
        let o = Simulation::build(cfg)
            .timing(TimingModel::lockstep(Duration::from_micros(10)))
            .oracle(FixedDelay::new(Duration::from_micros(10)))
            .skew(SkewSchedule::with_late_parties(
                3,
                &[(PartyId::new(2), Duration::from_micros(50))],
            ))
            .spawn_honest(|p| Flood {
                input: (p == PartyId::new(0)).then_some(Value::new(4)),
            })
            .run();
        let c2 = o.commit_of(PartyId::new(2)).unwrap();
        assert_eq!(c2.local, LocalTime::ZERO, "delivered at its start");
        assert_eq!(c2.global, GlobalTime::from_micros(50));
        // Good-case latency measured from broadcaster start (0).
        assert_eq!(o.good_case_latency(), Some(Duration::from_micros(50)));
    }

    #[test]
    fn round_accounting_counts_causal_depth() {
        /// Two-hop relay: P0 -> P1 -> P2, commit at P2.
        struct Relay;
        impl Protocol for Relay {
            type Msg = Value;
            fn start(&mut self, ctx: &mut dyn Context<Value>) {
                if ctx.me() == PartyId::new(0) {
                    ctx.send(PartyId::new(1), Value::new(9));
                }
            }
            fn on_message(&mut self, _from: PartyId, v: Value, ctx: &mut dyn Context<Value>) {
                match ctx.me().index() {
                    1 => ctx.send(PartyId::new(2), v),
                    2 => {
                        ctx.commit(v);
                        ctx.terminate();
                    }
                    _ => {}
                }
            }
        }
        let cfg = Config::new(3, 1).unwrap();
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(Duration::from_micros(1)))
            .spawn_honest(|_| Relay)
            .run();
        let c = o.commit_of(PartyId::new(2)).unwrap();
        assert_eq!(
            c.round, 2,
            "P0's msg is round 0, relayed msg round 1, commit in round 2"
        );
    }

    #[test]
    fn timer_fires_at_local_time() {
        struct TimerProto;
        impl Protocol for TimerProto {
            type Msg = Value;
            fn start(&mut self, ctx: &mut dyn Context<Value>) {
                ctx.set_timer(Duration::from_micros(30), 7);
            }
            fn on_message(&mut self, _: PartyId, _: Value, _: &mut dyn Context<Value>) {}
            fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<Value>) {
                assert_eq!(tag, 7);
                assert_eq!(ctx.now(), LocalTime::from_micros(30));
                ctx.commit(Value::new(1));
                ctx.terminate();
            }
        }
        let cfg = Config::new(2, 1).unwrap();
        let o = Simulation::build(cfg)
            .skew(SkewSchedule::with_late_parties(
                2,
                &[(PartyId::new(1), Duration::from_micros(11))],
            ))
            .spawn_honest(|_| TimerProto)
            .run();
        assert!(o.all_honest_committed());
        assert_eq!(
            o.commit_of(PartyId::new(1)).unwrap().global,
            GlobalTime::from_micros(41)
        );
    }

    #[test]
    fn first_commit_wins_double_commit_ignored() {
        struct DoubleCommitter;
        impl Protocol for DoubleCommitter {
            type Msg = Value;
            fn start(&mut self, ctx: &mut dyn Context<Value>) {
                ctx.commit(Value::new(1));
                ctx.commit(Value::new(2));
                ctx.terminate();
            }
            fn on_message(&mut self, _: PartyId, _: Value, _: &mut dyn Context<Value>) {}
        }
        let cfg = Config::new(2, 1).unwrap();
        let o = Simulation::build(cfg)
            .spawn_honest(|_| DoubleCommitter)
            .run();
        for c in o.honest_commits() {
            assert_eq!(c.value, Value::new(1));
        }
    }

    #[test]
    fn trace_records_lifecycle() {
        let cfg = Config::new(2, 1).unwrap();
        let o = Simulation::build(cfg)
            .record_trace(true)
            .oracle(FixedDelay::new(Duration::from_micros(1)))
            .spawn_honest(|p| Flood {
                input: (p == PartyId::new(0)).then_some(Value::new(5)),
            })
            .run();
        assert!(o
            .trace()
            .iter()
            .any(|t| matches!(t, TraceEntry::Started { .. })));
        assert!(o
            .trace()
            .iter()
            .any(|t| matches!(t, TraceEntry::Delivered { .. })));
        assert!(o
            .trace()
            .iter()
            .any(|t| matches!(t, TraceEntry::Committed { .. })));
    }

    #[test]
    #[should_panic(expected = "slot 1 was never filled")]
    fn unfilled_slot_panics() {
        let cfg = Config::new(2, 1).unwrap();
        let _ = Simulation::build(cfg)
            .byzantine(PartyId::new(0), Flood { input: None })
            .run();
    }

    #[test]
    fn peak_queue_depth_reported() {
        // Four start events are enqueued up front, so the high-water mark
        // is at least n even before any message traffic.
        let o = flood_sim(10);
        assert!(
            o.peak_queue_depth() >= 4,
            "peak {} should cover the start events",
            o.peak_queue_depth()
        );
    }

    #[test]
    fn determinism_same_build_same_outcome() {
        let a = flood_sim(10);
        let b = flood_sim(10);
        assert_eq!(a.events_processed(), b.events_processed());
        assert_eq!(a.messages_sent(), b.messages_sent());
        assert_eq!(a.good_case_latency(), b.good_case_latency());
    }

    /// Gossips for a fixed number of timer rounds, commits on first
    /// receipt, and never terminates — so the run ends only when the
    /// queue drains, which makes the drop accounting below exact.
    struct Gossip {
        rounds_left: u32,
        committed: bool,
    }

    impl Protocol for Gossip {
        type Msg = Value;
        fn start(&mut self, ctx: &mut dyn Context<Value>) {
            ctx.multicast(Value::new(1));
            ctx.set_timer(Duration::from_micros(7), 0);
        }
        fn on_message(&mut self, _from: PartyId, v: Value, ctx: &mut dyn Context<Value>) {
            if !self.committed {
                self.committed = true;
                ctx.commit(v);
            }
        }
        fn on_timer(&mut self, _tag: u64, ctx: &mut dyn Context<Value>) {
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                ctx.multicast(Value::new(1));
                ctx.set_timer(Duration::from_micros(7), 0);
            }
        }
    }

    fn gossip_with_crash(drop_dead_sends: bool) -> Outcome {
        let cfg = Config::new(4, 1).unwrap();
        // Party 3 handles its start plus one delivery, then crashes
        // (terminates); the three honest gossipers keep multicasting to
        // it for many more rounds.
        Simulation::build(cfg)
            .timing(TimingModel::lockstep(Duration::from_micros(10)))
            .oracle(FixedDelay::new(Duration::from_micros(3)))
            .drop_dead_sends(drop_dead_sends)
            .byzantine(
                PartyId::new(3),
                Crashing::new(
                    Gossip {
                        rounds_left: 0,
                        committed: false,
                    },
                    2,
                ),
            )
            .spawn_honest(|_| Gossip {
                rounds_left: 8,
                committed: false,
            })
            .run()
    }

    #[test]
    fn enqueue_drops_change_traffic_but_not_the_outcome() {
        let on = gossip_with_crash(true);
        let off = gossip_with_crash(false);

        // The protocol-visible outcome is identical: same commits at the
        // same instants, same latency and round metrics, same send count
        // (dropped sends still count — only the envelope is elided).
        assert_eq!(on.commits().len(), off.commits().len());
        for (a, b) in on.commits().iter().zip(off.commits()) {
            assert_eq!((a.party, a.value, a.global), (b.party, b.value, b.global));
        }
        assert_eq!(on.good_case_latency(), off.good_case_latency());
        assert_eq!(on.good_case_rounds(), off.good_case_rounds());
        assert_eq!(on.messages_sent(), off.messages_sent());

        // With drops off every dead-recipient delivery is parked, popped,
        // and discarded; with drops on it never enters the queue. Both
        // runs drain the queue, so the event counts differ by exactly the
        // drop count.
        assert_eq!(off.drops_at_enqueue(), 0);
        assert!(on.drops_at_enqueue() > 0, "crashed party must shed traffic");
        assert_eq!(
            off.events_processed() - on.events_processed(),
            on.drops_at_enqueue()
        );
    }
}
