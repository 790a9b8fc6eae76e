//! The wall engine: every party a state machine behind a nonblocking
//! socket, thousands of them multiplexed over a fixed worker pool.
//!
//! [`AsyncBackend`] runs scenario specs over a byte transport — every
//! protocol message encoded, framed, carried across a socket pair and
//! decoded on the far side, with no pointer fast path across the party
//! boundary — and drives each party by readiness events instead of giving
//! it threads of its own:
//!
//! ```text
//!            submissions (frames)            deliveries (frames)
//! worker 0 ──▶ [nonblocking socket] ──▶ scheduler ──▶ [nonblocking socket] ──▶ worker k
//!   parties i ≡ 0 (mod W)       heap: one entry per multicast      parties i ≡ k (mod W)
//!                               or timer; frames rendered
//!                               in place, ≤ OUT_HWM per pass
//! ```
//!
//! * **One scheduler thread** owns the dispatcher side of every party
//!   socket plus a wake pipe, polled through one `mio`-style readiness
//!   loop (the in-tree `shims/mio`; swap the workspace dependency back to
//!   the real `mio` crate off-line and nothing here changes). It parses
//!   submission frames out of the reassembly buffers as borrowed slices,
//!   stamps them through the [`DeliveryHeap`] and its `(due, seq)` tie
//!   discipline — a multicast is one heap entry walking its sender's
//!   recipients in that order, not n entries, and a protocol timer is one
//!   entry due at its arrival plus its full delay, so timers in the
//!   dispatcher heap never fire early — and drains due deliveries in
//!   passes: one clock reading per pass, every frame rendered straight
//!   into its party's contiguous outbound buffer, the pass cut off once
//!   [`OUT_HWM`] bytes sit unflushed so the sockets — and the workers
//!   behind them — take the first megabytes while the rest of the backlog
//!   is still being rendered.
//! * **W worker threads** (default `min(cores, 8)`) each own the party
//!   side of an `i mod W` shard: per-party frame-reassembly buffers
//!   ([`FrameBuffer`], partial-read safe at arbitrary byte boundaries),
//!   per-party outbound queues ([`OutBuf`], `WouldBlock`-aware), and the
//!   [`PartyCore`] bookkeeping. A party whose skew offset has not elapsed
//!   buffers inbound bytes without handling them, as a late party's inbox
//!   does in the simulator.
//! * **Backpressure**: outbound bytes queued in the scheduler above a
//!   high-water mark pause *party* reads (level-triggered interest
//!   dropped, kernel buffers absorb, writers' queues grow) and the
//!   rendering of further deliveries (they wait in the heap) until the
//!   backlog drains below half the mark; the wake pipe and the client
//!   channel stay live so shutdown can always get through. A length
//!   prefix above `MAX_FRAME` is a garbled peer on either side, never a
//!   buffer to fill.
//!
//! Total thread count is **O(workers)**, not O(n) — asserted by a test at
//! n = 512 — which is what makes the n ∈ {256, 512, 1024} wall-clock
//! rows in `BENCH_net.json` runnable at all. The shutdown choreography:
//! honest-done early exit, a `Shutdown` submission plus a wake byte,
//! `STOP` frames to every party with a bounded grace flush, and worker EOF
//! as the fallback; every join stays finite.
//!
//! Scheduler observability (worker count, readiness wakeups, peak
//! outbound-queue depth) is reported through
//! [`Outcome::sched_counters`] and lands in the benchmark rows.

use crate::engine::{
    await_honest_done, engine_plan, micros, parse_delivery, parse_submission, ClientHandle,
    Delivery, DeliveryFrame, DeliveryHeap, EnginePlan, FrameBuffer, FrameTooLarge, OutBuf,
    PartyCore, Step, Stream, Submission, SubmissionKind, IDLE_POLL, KIND_MULTICAST, KIND_STOP,
    KIND_TIMER, KIND_UNICAST,
};
use gcl_sim::{
    Backend, CommitRecord, ErasedMsg, ErasedSlot, MsgCodec, Outcome, ScenarioSpec, SchedCounters,
    Strategy,
};
use gcl_types::{Encode, GlobalTime, PartyId};
use mio::{Events, Interest, Poll, Registry, Token};
use parking_lot::Mutex;
use std::io::{self, Read, Write};
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

/// Scheduler-side backpressure: once this many bytes sit unflushed across
/// the per-party outbound queues, the scheduler stops rendering due
/// deliveries (they wait in the heap, one entry per multicast) and party
/// reads pause, until the backlog drains below half the mark.
const OUT_HWM: usize = 4 << 20;

/// How long the scheduler keeps flushing `STOP` frames after shutdown
/// before abandoning undeliverable peers (worker EOF is the fallback).
const STOP_GRACE: Duration = Duration::from_millis(500);

// ---------------------------------------------------------------------
// Scheduler side: one readiness loop over all n dispatcher socket ends.
// ---------------------------------------------------------------------

/// The scheduler's view of one party's socket.
struct Peer {
    stream: Stream,
    fb: FrameBuffer,
    out: OutBuf,
    /// Still parsing this peer's submissions (false after EOF or a
    /// garbled frame — the party is crashed from the dispatcher's view).
    reading: bool,
    /// Write half still usable (false after a write error).
    open: bool,
    /// Interest currently registered with the poll, `None` when
    /// deregistered.
    registered: Option<Interest>,
}

impl Peer {
    fn new(stream: Stream) -> Self {
        Peer {
            stream,
            fb: FrameBuffer::new(),
            out: OutBuf::new(),
            reading: true,
            open: true,
            registered: None,
        }
    }

    /// Drains as much outbound as the socket accepts; a write error marks
    /// the peer dead (its worker will see EOF).
    fn flush(&mut self) {
        if self.out.flush(&mut self.stream).is_err() {
            self.open = false;
            self.reading = false;
        }
    }

    /// Reads what the socket has and hands `sink` every complete
    /// submission of party `from`. EOF, a read error, a garbled frame or
    /// an oversized length prefix ends the reading: the party is crashed
    /// from the dispatcher's view, and the run stays live.
    fn read_submissions(
        &mut self,
        from: PartyId,
        chunk: Option<usize>,
        mut sink: impl FnMut(Submission),
    ) {
        let Ok(eof) = self.fb.fill(&mut self.stream, chunk) else {
            self.reading = false;
            return;
        };
        loop {
            let sub = match self.fb.next_frame() {
                Ok(Some(body)) => parse_submission(from, body),
                Ok(None) => break,
                Err(FrameTooLarge) => None,
            };
            match sub {
                Some(sub) => sink(sub),
                None => {
                    self.reading = false;
                    break;
                }
            }
        }
        if eof {
            self.reading = false;
        }
    }

    /// The interest this peer wants: readable while parsing (and not
    /// paused), writable while output is pending.
    fn interest(&self, paused: bool) -> Option<Interest> {
        let readable = self.reading && !paused;
        let writable = self.open && !self.out.is_empty();
        match (readable, writable) {
            (true, true) => Some(Interest::READABLE | Interest::WRITABLE),
            (true, false) => Some(Interest::READABLE),
            (false, true) => Some(Interest::WRITABLE),
            (false, false) => None,
        }
    }
}

/// Brings a socket's registered interest (`registered`, `None` when
/// deregistered) in line with `want` — level-triggered, so stale interest
/// means busy wakeups and missing interest means a stall.
fn sync_interest(
    registry: &Registry,
    stream: &mut Stream,
    registered: &mut Option<Interest>,
    token: Token,
    want: Option<Interest>,
) {
    if want == *registered {
        return;
    }
    match want {
        Some(interest) => {
            let applied = if registered.is_some() {
                registry.reregister(stream, token, interest)
            } else {
                registry.register(stream, token, interest)
            };
            if applied.is_ok() {
                *registered = Some(interest);
            }
        }
        None => {
            if registered.take().is_some() {
                let _ = registry.deregister(stream);
            }
        }
    }
}

/// The scheduler thread: routes submissions, protocol timers included,
/// through the delivery heap, flushes due deliveries, and runs the STOP
/// choreography on shutdown. Returns `(messages, peak_heap, wakeups,
/// peak_outbound_bytes)`.
fn scheduler_loop(
    mut peers: Vec<Peer>,
    mut wake: Stream,
    sub_rx: Receiver<Submission>,
    client_tx: Sender<Vec<u8>>,
    links: Vec<Duration>,
    chunk: Option<usize>,
) -> (u64, usize, u64, usize) {
    let n = peers.len();
    let mut poll = Poll::new().expect("readiness poll");
    poll.registry()
        .register(&mut wake, Token(n), Interest::READABLE)
        .expect("register wake pipe");
    let mut events = Events::with_capacity((n + 1).clamp(8, 1024));
    let mut dh = DeliveryHeap::new(n);
    let mut wakeups: u64 = 0;
    let mut paused = false;
    // Unflushed bytes across the open peers, as of the last flush sweep.
    let mut total_out = 0;
    let mut stopping = false;
    let mut grace: Option<Instant> = None;

    loop {
        // 1. Client submissions and the engine's shutdown marker.
        loop {
            match sub_rx.try_recv() {
                Ok(Submission {
                    kind: SubmissionKind::Shutdown,
                    ..
                }) => stopping = true,
                Ok(sub) => dh.route(sub, &links, Instant::now()),
                Err(TryRecvError::Empty) => break,
                Err(TryRecvError::Disconnected) => {
                    stopping = true;
                    break;
                }
            }
        }

        // 2. Shutdown entry: queue one STOP per live peer, stop reading
        //    and delivering, start the grace clock.
        if stopping && grace.is_none() {
            for peer in &mut peers {
                peer.reading = false;
                if peer.open {
                    peer.out.push_frame(&[KIND_STOP]);
                }
            }
            grace = Some(Instant::now() + STOP_GRACE);
        }

        // 3. Due deliveries rendered into per-party queues (dropped once
        //    stopping: the run is past its horizon). The pass ends when
        //    the unflushed bytes reach the high-water mark, so the flush
        //    below — and the workers — overlap the rest of the backlog
        //    instead of waiting behind all of it.
        if !stopping && !paused {
            let mut unflushed = total_out;
            dh.drain_due(Instant::now(), &links, |to, delivery| {
                match peers.get_mut(to.as_usize()) {
                    Some(peer) => {
                        if peer.open {
                            unflushed += peer.out.push_delivery(&delivery);
                        }
                    }
                    None => {
                        if let Delivery::Msg { bytes, .. } = delivery {
                            let _ = client_tx.send(bytes.to_vec());
                        }
                    }
                }
                unflushed < OUT_HWM
            });
        }

        // 4. Flush, recompute the backpressure valve, sync interests.
        total_out = 0;
        for peer in &mut peers {
            if peer.open && !peer.out.is_empty() {
                peer.flush();
            }
            if peer.open {
                total_out += peer.out.len();
            }
        }
        paused = if paused {
            total_out > OUT_HWM / 2
        } else {
            total_out >= OUT_HWM
        };
        let registry = poll.registry();
        for (i, peer) in peers.iter_mut().enumerate() {
            let want = peer.interest(paused);
            sync_interest(
                registry,
                &mut peer.stream,
                &mut peer.registered,
                Token(i),
                want,
            );
        }

        // 5. Shutdown exit: everything flushed, or the grace expired.
        if let Some(g) = grace {
            let all_flushed = peers.iter().all(|p| !p.open || p.out.is_empty());
            if all_flushed || Instant::now() >= g {
                break;
            }
        }

        // 6. Sleep until the next deadline: heap due — a delivery or a
        //    timer — unless the valve is shut (then a peer turning
        //    writable is what reopens it), grace, or the idle-poll
        //    granularity; a readiness event or a wake byte interrupts any
        //    of them.
        let mut timeout = if paused {
            IDLE_POLL
        } else {
            dh.next_timeout().min(IDLE_POLL)
        };
        if let Some(g) = grace {
            timeout = timeout.min(g.saturating_duration_since(Instant::now()));
        }
        match poll.poll(&mut events, Some(timeout)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        wakeups += 1;

        // 7. Readiness: drain the wake pipe, parse submissions, flush
        //    writable peers.
        for ev in &events {
            let t = ev.token().0;
            if t == n {
                let mut buf = [0u8; 64];
                loop {
                    match wake.read(&mut buf) {
                        Ok(0) => break,
                        Ok(_) => {}
                        Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                        Err(_) => break,
                    }
                }
                continue;
            }
            let peer = &mut peers[t];
            if ev.is_writable() && peer.open && !peer.out.is_empty() {
                peer.flush();
            }
            if ev.is_readable() && peer.reading {
                // No wire kind maps to Shutdown; a party cannot stop the
                // run.
                peer.read_submissions(PartyId::new(t as u32), chunk, |sub| {
                    dh.route(sub, &links, Instant::now());
                });
            }
        }
    }
    let peak_out = peers.iter().map(|p| p.out.peak).max().unwrap_or(0);
    (dh.messages, dh.peak, wakeups, peak_out)
}

// ---------------------------------------------------------------------
// Worker side: one readiness loop per worker over its party shard.
// ---------------------------------------------------------------------

/// One party as a state machine owned by a worker.
struct WorkerParty {
    /// Index into the run's party vector (`PartyCore` holds the id).
    global: usize,
    core: PartyCore,
    strategy: Box<dyn Strategy<ErasedMsg>>,
    honest: bool,
    stream: Stream,
    fb: FrameBuffer,
    out: OutBuf,
    /// When the skew offset elapses and `start` fires. Frames arriving
    /// earlier buffer in `fb` unhandled — the pre-start inbox.
    start_at: Instant,
    started: bool,
    /// The protocol called `terminate`: stop handling, keep draining and
    /// flushing until STOP/EOF so the scheduler never wedges on us.
    terminated: bool,
    /// Saw STOP, EOF or a dead stream — out of the readiness set.
    finished: bool,
    /// Write half still usable.
    open: bool,
    registered: Option<Interest>,
}

impl WorkerParty {
    /// The interest a live party wants: always readable (pre-start bytes
    /// buffer, post-terminate bytes drain), writable while output is
    /// pending.
    fn interest(&self) -> Option<Interest> {
        if self.finished {
            None
        } else if self.open && !self.out.is_empty() {
            Some(Interest::READABLE | Interest::WRITABLE)
        } else {
            Some(Interest::READABLE)
        }
    }

    fn flush(&mut self) {
        if self.open && self.out.flush(&mut self.stream).is_err() {
            self.open = false;
        }
    }

    /// Runs one event through the party core and encodes the effects as
    /// submission frames.
    fn step(
        &mut self,
        step: Step<ErasedMsg>,
        commits: &Mutex<Vec<CommitRecord>>,
        done: &Sender<()>,
    ) {
        if self.terminated {
            return;
        }
        let ctx = self.core.handle(self.strategy.as_mut(), step, commits);
        let out_round = self.core.out_round();
        for (to, msg) in ctx.sends {
            self.out.push_frame_with(|body| {
                body.push(KIND_UNICAST);
                to.encode(body);
                out_round.encode(body);
                msg.encode(body);
            });
        }
        for (skip, msg) in ctx.mcasts {
            self.out.push_frame_with(|body| {
                body.push(KIND_MULTICAST);
                skip.encode(body);
                out_round.encode(body);
                msg.encode(body);
            });
        }
        for (delay, tag) in ctx.timers {
            self.out.push_frame_with(|body| {
                body.push(KIND_TIMER);
                delay.as_micros().encode(body);
                tag.encode(body);
            });
        }
        if ctx.terminate {
            self.terminated = true;
            if self.honest {
                let _ = done.send(());
            }
        }
        self.flush();
    }

    /// Pops and handles every complete frame in the reassembly buffer.
    /// Only called once started; a terminated party discards instead of
    /// handling (the draining state).
    fn drain(&mut self, codec: &MsgCodec, commits: &Mutex<Vec<CommitRecord>>, done: &Sender<()>) {
        loop {
            // An oversized prefix is a garbled stream, like a corrupt
            // frame header below.
            let frame = match self.fb.next_frame() {
                Ok(Some(body)) => parse_delivery(body),
                Ok(None) => return,
                Err(FrameTooLarge) => None,
            };
            match frame {
                Some(DeliveryFrame::Msg {
                    from,
                    round,
                    payload,
                }) => {
                    if self.terminated {
                        continue;
                    }
                    // The decode half of the wire round trip; a payload
                    // that does not decode came from a garbled peer — drop
                    // the frame, keep this party live.
                    match codec.decode(payload) {
                        Ok(msg) => self.step(Step::Msg { from, round, msg }, commits, done),
                        Err(_) => continue,
                    }
                }
                Some(DeliveryFrame::Timer(tag)) => {
                    if !self.terminated {
                        self.step(Step::Timer(tag), commits, done);
                    }
                }
                Some(DeliveryFrame::Stop) | None => {
                    self.finished = true;
                    return;
                }
            }
        }
    }
}

/// One worker thread: drives its shard of party state machines off a
/// single readiness loop. Returns per-party `(global index, terminated,
/// handled)` plus `(wakeups, peak_outbound_bytes)`.
fn worker_loop(
    mut parties: Vec<WorkerParty>,
    codec: MsgCodec,
    commits: Arc<Mutex<Vec<CommitRecord>>>,
    done: Sender<()>,
    chunk: Option<usize>,
) -> (Vec<(usize, bool, u64)>, u64, usize) {
    let mut poll = Poll::new().expect("readiness poll");
    let mut events = Events::with_capacity(parties.len().clamp(8, 1024));
    let mut wakeups: u64 = 0;
    let mut live = parties.len();

    while live > 0 {
        let now = Instant::now();
        // Skew offsets falling due: fire `start`, then the pre-start
        // inbox in arrival order.
        for party in &mut parties {
            if !party.started && !party.finished && party.start_at <= now {
                party.started = true;
                party.step(Step::Start, &commits, &done);
                party.drain(&codec, &commits, &done);
            }
        }
        let registry = poll.registry();
        for (local, party) in parties.iter_mut().enumerate() {
            let want = party.interest();
            sync_interest(
                registry,
                &mut party.stream,
                &mut party.registered,
                Token(local),
                want,
            );
        }
        live = parties.iter().filter(|p| !p.finished).count();
        if live == 0 {
            break;
        }

        let mut timeout = IDLE_POLL;
        for party in &parties {
            if !party.started && !party.finished {
                timeout = timeout.min(party.start_at.saturating_duration_since(now));
            }
        }
        match poll.poll(&mut events, Some(timeout)) {
            Ok(()) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(_) => break,
        }
        wakeups += 1;

        for ev in &events {
            let party = &mut parties[ev.token().0];
            if party.finished {
                continue;
            }
            if ev.is_writable() {
                party.flush();
            }
            if ev.is_readable() {
                match party.fb.fill(&mut party.stream, chunk) {
                    Ok(eof) => {
                        if party.started {
                            party.drain(&codec, &commits, &done);
                        }
                        if eof && !party.finished {
                            party.finished = true;
                        }
                    }
                    Err(_) => party.finished = true,
                }
            }
        }
    }

    let peak_out = parties.iter().map(|p| p.out.peak).max().unwrap_or(0);
    let results = parties
        .into_iter()
        .map(|p| (p.global, p.terminated, p.core.handled))
        .collect();
    (results, wakeups, peak_out)
}

// ---------------------------------------------------------------------
// The run: scheduler + W workers + the engine thread's shutdown.
// ---------------------------------------------------------------------

/// Runs one spec's slots: `workers` party shards behind one scheduler. Thread count is `workers + 1` (plus the
/// optional driver), independent of n.
pub(crate) fn run_async_slots(
    plan: EnginePlan,
    slots: Vec<ErasedSlot>,
    codec: MsgCodec,
    workers: usize,
    driver: Option<Box<dyn FnOnce(ClientHandle) + Send>>,
) -> Outcome {
    let n = plan.config.n();
    assert_eq!(slots.len(), n, "one slot per party");
    assert_eq!(plan.links.len(), n * n, "full link matrix");
    assert_eq!(plan.starts.len(), n, "one start offset per party");
    let honest: Vec<bool> = slots.iter().map(|s| s.honest).collect();
    let epoch = Instant::now();
    let commits: Arc<Mutex<Vec<CommitRecord>>> = Arc::new(Mutex::new(Vec::new()));
    let w = workers.clamp(1, n.max(1));
    let chunk = plan.read_chunk;

    // One nonblocking socket pair per party, plus the wake pipe that
    // interrupts the scheduler's poll for channel-borne events (client
    // submissions, shutdown).
    let mut sched_ends = Vec::with_capacity(n);
    let mut party_ends = Vec::with_capacity(n);
    for _ in 0..n {
        let (s, p) = Stream::pair().expect("socket pair");
        s.set_nonblocking(true).expect("nonblocking");
        p.set_nonblocking(true).expect("nonblocking");
        sched_ends.push(s);
        party_ends.push(p);
    }
    let (wake_r, wake_w) = Stream::pair().expect("wake pipe");
    wake_r.set_nonblocking(true).expect("nonblocking");
    wake_w.set_nonblocking(true).expect("nonblocking");
    let wake_w = Arc::new(wake_w);

    let (sub_tx, sub_rx) = channel::<Submission>();
    let (done_tx, done_rx) = channel::<()>();
    let (client_tx, client_rx) = channel::<Vec<u8>>();
    let shutdown_tx = sub_tx.clone();
    let driver_handle = driver.map(|driver| {
        let handle = ClientHandle::new(sub_tx.clone(), client_rx, Arc::clone(&wake_w));
        thread::spawn(move || driver(handle))
    });
    drop(sub_tx);

    let links = plan.links;
    let scheduler = thread::spawn(move || {
        let peers = sched_ends.into_iter().map(Peer::new).collect();
        scheduler_loop(peers, wake_r, sub_rx, client_tx, links, chunk)
    });

    // Static round-robin shards: party i lives on worker i mod W.
    let mut shards: Vec<Vec<WorkerParty>> = (0..w).map(|_| Vec::new()).collect();
    for (i, (slot, stream)) in slots.into_iter().zip(party_ends).enumerate() {
        let me = PartyId::new(i as u32);
        let start_at = epoch + plan.starts[i];
        shards[i % w].push(WorkerParty {
            global: i,
            core: PartyCore::new(me, plan.config, epoch, start_at),
            strategy: slot.strategy,
            honest: slot.honest,
            stream,
            fb: FrameBuffer::new(),
            out: OutBuf::new(),
            start_at,
            started: false,
            terminated: false,
            finished: false,
            open: true,
            registered: None,
        });
    }
    let worker_handles: Vec<_> = shards
        .into_iter()
        .map(|shard| {
            let commits = Arc::clone(&commits);
            let done = done_tx.clone();
            thread::spawn(move || worker_loop(shard, codec, commits, done, chunk))
        })
        .collect();
    drop(done_tx);

    // Early-exit protocol.
    await_honest_done(&done_rx, &honest, epoch + plan.deadline);

    // Shutdown: a Shutdown submission plus one wake byte; the scheduler
    // flushes STOP frames under its grace clock, workers finish on STOP
    // or — once the scheduler drops its socket ends — on EOF.
    let _ = shutdown_tx.send(Submission {
        from: PartyId::new(0),
        kind: SubmissionKind::Shutdown,
    });
    let _ = (&*wake_w).write(&[1]);
    drop(shutdown_tx);

    let mut terminated = vec![false; n];
    let mut events_handled: u64 = 0;
    let mut wakeups: u64 = 0;
    let mut peak_out: usize = 0;
    for h in worker_handles {
        match h.join() {
            Ok((results, worker_wakeups, worker_peak)) => {
                wakeups += worker_wakeups;
                peak_out = peak_out.max(worker_peak);
                for (idx, t, handled) in results {
                    terminated[idx] = t;
                    events_handled += handled;
                }
            }
            Err(panic) => std::panic::resume_unwind(panic),
        }
    }
    let (messages_sent, peak_queue, sched_wakeups, sched_peak) = match scheduler.join() {
        Ok(r) => r,
        Err(panic) => std::panic::resume_unwind(panic),
    };
    wakeups += sched_wakeups;
    peak_out = peak_out.max(sched_peak);
    // The driver sees its submits fail once the scheduler is gone, so
    // this join is finite for any driver that stops on a failed submit.
    if let Some(h) = driver_handle {
        if let Err(panic) = h.join() {
            std::panic::resume_unwind(panic);
        }
    }

    let mut commits = std::mem::take(&mut *commits.lock());
    commits.sort_by_key(|c| c.global);
    Outcome::from_wall_run(
        plan.config,
        GlobalTime::from_micros(micros(plan.starts[plan.broadcaster.as_usize()])),
        honest,
        terminated,
        commits,
        GlobalTime::from_micros(micros(epoch.elapsed())),
        events_handled,
        messages_sent,
        peak_queue,
        SchedCounters {
            workers: w,
            wakeups,
            peak_outbound_bytes: peak_out,
        },
    )
}

/// Runs registry scenarios on the wall engine: every party a state
/// machine behind a nonblocking socket, all n multiplexed over a fixed
/// worker pool of `min(cores, 8)` threads. See the [crate docs](crate)
/// for how a spec's δ/jitter, skew and adversary mix map onto a wall run
/// (the architecture is in `async_backend.rs`'s module docs).
///
/// # Examples
///
/// ```
/// use gcl_net::AsyncBackend;
/// use gcl_types::Duration;
///
/// let reg = gcl_core::registry();
/// let spec = reg
///     .spec("brb2")
///     .unwrap()
///     .with_bounds(Duration::from_millis(2), Duration::from_millis(20));
/// let outcome = reg.run_on(&spec, &AsyncBackend::new()).unwrap();
/// assert!(outcome.agreement_holds());
/// assert_eq!(outcome.committed_value(), Some(spec.input));
/// assert!(outcome.sched_counters().is_some(), "worker-pool observability");
/// ```
#[derive(Debug, Clone, Copy)]
pub struct AsyncBackend {
    deadline: Duration,
    workers: Option<usize>,
}

impl AsyncBackend {
    /// A backend with the default 2-second per-run deadline and a worker
    /// pool of `min(cores, 8)`.
    pub const fn new() -> Self {
        AsyncBackend {
            deadline: Duration::from_secs(2),
            workers: None,
        }
    }

    /// Replaces the per-run wall-clock deadline. Honest termination exits
    /// earlier; the deadline only caps runs where some honest party never
    /// terminates.
    #[must_use]
    pub const fn deadline(mut self, deadline: Duration) -> Self {
        self.deadline = deadline;
        self
    }

    /// Pins the worker-pool size (clamped to ≥ 1 and ≤ n at run time).
    /// Default: `min(cores, 8)`.
    #[must_use]
    pub const fn workers(mut self, workers: usize) -> Self {
        self.workers = Some(if workers == 0 { 1 } else { workers });
        self
    }

    fn pool_size(&self) -> usize {
        self.workers.unwrap_or_else(|| {
            thread::available_parallelism()
                .map(|c| c.get())
                .unwrap_or(1)
                .min(8)
        })
    }

    /// Like [`Backend::execute`], but with an external client: `driver`
    /// runs on its own thread for the duration of the run, injecting
    /// encoded messages through its [`ClientHandle`] — the open-loop
    /// serving path. The driver must stop once [`ClientHandle::submit`]
    /// returns `false`.
    pub fn execute_with_client(
        &self,
        spec: &ScenarioSpec,
        slots: Vec<ErasedSlot>,
        codec: MsgCodec,
        driver: impl FnOnce(ClientHandle) + Send + 'static,
    ) -> Outcome {
        run_async_slots(
            engine_plan(spec, self.deadline),
            slots,
            codec,
            self.pool_size(),
            Some(Box::new(driver)),
        )
    }
}

impl Default for AsyncBackend {
    fn default() -> Self {
        AsyncBackend::new()
    }
}

impl Backend for AsyncBackend {
    fn name(&self) -> &'static str {
        "async"
    }

    fn execute(&self, spec: &ScenarioSpec, slots: Vec<ErasedSlot>, codec: MsgCodec) -> Outcome {
        run_async_slots(
            engine_plan(spec, self.deadline),
            slots,
            codec,
            self.pool_size(),
            None,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_sim::{AdversaryMix, Context, DelayChoice, ScenarioError, SkewChoice};
    use gcl_types::{Duration as SimDuration, LocalTime, Value};

    /// Wall-safe bounds: δ' = 2 ms links, Δ' = 20 ms timers — protocol
    /// timeouts (≥ 4Δ) then dwarf thread-scheduling noise.
    fn brb_spec() -> ScenarioSpec {
        gcl_core::registry()
            .spec("brb2")
            .unwrap()
            .with_bounds(SimDuration::from_millis(2), SimDuration::from_millis(20))
    }

    /// The honest two-round BRB parties of `spec`, as erased slots.
    fn brb_slots(spec: &ScenarioSpec) -> Vec<ErasedSlot> {
        use gcl_core::asynchrony::TwoRoundBrb;
        use gcl_crypto::Keychain;
        let cfg = spec.config().expect("valid shape");
        let chain = Keychain::generate(spec.n, spec.seed);
        spec.erased_slots(|p| {
            TwoRoundBrb::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                spec.broadcaster,
                spec.input_for(p),
            )
        })
    }

    #[test]
    fn brb_family_runs_on_async_backend() {
        let reg = gcl_core::registry();
        let spec = brb_spec();
        let o = reg.run_on(&spec, &AsyncBackend::new()).unwrap();
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed());
        assert!(o.all_honest_terminated());
        assert_eq!(o.committed_value(), Some(spec.input));
        assert!(o.messages_sent() > 0);
        let lat = o.good_case_latency().expect("all committed");
        assert!(lat >= SimDuration::from_millis(4), "latency {lat}");
        assert_eq!(o.good_case_rounds(), Some(2), "causal tags survive bytes");
        let sched = o.sched_counters().expect("readiness engine reports");
        assert!(sched.workers >= 1);
        assert!(sched.wakeups > 0, "the loop polled at least once");
        assert!(sched.peak_outbound_bytes > 0, "frames queued somewhere");
    }

    #[test]
    fn async_backend_honors_adversary_skew_and_jitter() {
        let reg = gcl_core::registry();
        let spec = brb_spec()
            .with_adversary(AdversaryMix::TrailingSilent { count: 1 })
            .with_skew(SkewChoice::OddHalfDelta)
            .with_delays(DelayChoice::Uniform {
                lo: SimDuration::from_millis(1),
                hi: SimDuration::from_millis(2),
            })
            .with_seed(5);
        let o = reg.run_on(&spec, &AsyncBackend::new()).unwrap();
        assert!(!o.is_honest(PartyId::new(3)), "trailing slot is Byzantine");
        assert!(
            o.commit_of(PartyId::new(3)).is_none(),
            "silent never commits"
        );
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed(), "f = 1 silence is tolerated");
        assert_eq!(o.committed_value(), Some(spec.input));
    }

    #[test]
    fn inadmissible_spec_rejected_before_spawning_threads() {
        let reg = gcl_core::registry();
        let spec = brb_spec().with_shape(4, 2);
        assert!(reg.run_on(&spec, &AsyncBackend::new()).is_err());
    }

    #[test]
    fn out_of_range_broadcaster_rejected_before_spawning_threads() {
        let reg = gcl_core::registry();
        let mut spec = brb_spec();
        spec.broadcaster = PartyId::new(4);
        let started = Instant::now();
        let backend = AsyncBackend::new().deadline(Duration::from_secs(5));
        let err = reg.run_on(&spec, &backend).unwrap_err();
        assert!(
            matches!(err, ScenarioError::PartyOutOfRange { n: 4, .. }),
            "{err}"
        );
        assert!(started.elapsed() < Duration::from_secs(1), "no run started");
    }

    #[test]
    fn async_run_exits_early() {
        let reg = gcl_core::registry();
        let started = Instant::now();
        let backend = AsyncBackend::new().deadline(Duration::from_secs(10));
        let o = reg.run_on(&brb_spec(), &backend).unwrap();
        assert!(o.all_honest_committed());
        let wall = started.elapsed();
        assert!(
            wall < Duration::from_millis(500),
            "early exit regressed: run took {wall:?} against a 10 s deadline"
        );
    }

    #[test]
    fn deadline_caps_a_run_that_cannot_terminate() {
        let reg = gcl_core::registry();
        let spec = brb_spec().with_adversary(AdversaryMix::CrashAt {
            party: PartyId::new(0),
            handled: 0,
        });
        let started = Instant::now();
        let backend = AsyncBackend::new().deadline(Duration::from_millis(200));
        let o = reg.run_on(&spec, &backend).unwrap();
        assert!(o.commits().is_empty());
        assert!(!o.all_honest_terminated());
        let wall = started.elapsed();
        assert!(
            wall >= Duration::from_millis(200),
            "waited out the deadline"
        );
        assert!(wall < Duration::from_secs(5), "but not much longer");
    }

    #[test]
    fn one_byte_reads_commit_identically() {
        // The short-read fuzz gate on the readiness path: every fill capped
        // at ONE byte, so each frame reassembles across dozens of readiness
        // events. Commits, termination and causal rounds must match the
        // unthrottled run.
        use gcl_core::asynchrony::Brb2Msg;
        let spec = brb_spec();
        let run_with = |chunk: Option<usize>| {
            let slots = brb_slots(&spec);
            let mut plan = engine_plan(&spec, Duration::from_secs(10));
            plan.read_chunk = chunk;
            run_async_slots(plan, slots, MsgCodec::of::<Brb2Msg>(), 2, None)
        };
        let chunked = run_with(Some(1));
        let normal = run_with(None);
        assert!(chunked.agreement_holds());
        assert!(
            chunked.all_honest_committed(),
            "1-byte reads must not stall"
        );
        assert!(chunked.all_honest_terminated());
        assert_eq!(chunked.committed_value(), normal.committed_value());
        assert_eq!(chunked.committed_value(), Some(spec.input));
        assert_eq!(
            chunked.good_case_rounds(),
            normal.good_case_rounds(),
            "causal structure survives byte-at-a-time delivery"
        );
    }

    #[test]
    fn garbled_client_frames_leave_the_run_live() {
        // The client path end to end — wake pipe, channel drain, heap
        // routing — under a client that floods undecodable frames.
        use gcl_core::asynchrony::Brb2Msg;
        let spec = brb_spec();
        let n = spec.n;
        let o = AsyncBackend::new().execute_with_client(
            &spec,
            brb_slots(&spec),
            MsgCodec::of::<Brb2Msg>(),
            move |client: ClientHandle| {
                for round in 0..20u64 {
                    for p in 0..n as u32 {
                        let garbage = vec![255, round as u8, 0xde, 0xad, 0xbe, 0xef];
                        if !client.submit(PartyId::new(p), garbage) {
                            return;
                        }
                    }
                    thread::sleep(Duration::from_millis(1));
                }
            },
        );
        assert!(o.agreement_holds());
        assert!(
            o.all_honest_committed(),
            "garbage frames must not stop the protocol"
        );
        assert_eq!(o.committed_value(), Some(spec.input));
    }

    #[test]
    fn client_submits_to_unknown_parties_leave_the_run_live() {
        // A submit names its recipient as the sender; one outside the run
        // must reach nobody — not index the link matrix out of bounds and
        // panic the scheduler thread, which the run would re-raise.
        use gcl_core::asynchrony::Brb2Msg;
        let spec = brb_spec();
        let n = spec.n as u32;
        let o = AsyncBackend::new().execute_with_client(
            &spec,
            brb_slots(&spec),
            MsgCodec::of::<Brb2Msg>(),
            move |client: ClientHandle| {
                for to in [PartyId::new(n), PartyId::CLIENT] {
                    client.submit(to, vec![1, 2, 3]);
                }
            },
        );
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed(), "the run outlives the bad submits");
        assert_eq!(o.committed_value(), Some(spec.input));
    }

    /// Arms [`AUDITED_TIMERS`] timers of 3.000–24.603 ms at start; every
    /// firing compares the party's own clock against the arming instant,
    /// and once all have fired the party commits how many fired early.
    #[derive(Default)]
    struct TimerAudit {
        armed: LocalTime,
        fired: u64,
        early: u64,
    }

    const AUDITED_TIMERS: u64 = 20;

    fn audited_delay(tag: u64) -> SimDuration {
        SimDuration::from_micros(3_000 + 1_137 * tag)
    }

    impl Strategy<ErasedMsg> for TimerAudit {
        fn start(&mut self, ctx: &mut dyn Context<ErasedMsg>) {
            self.armed = ctx.now();
            for tag in 0..AUDITED_TIMERS {
                ctx.set_timer(audited_delay(tag), tag);
            }
        }
        fn on_message(&mut self, _: PartyId, _: ErasedMsg, _: &mut dyn Context<ErasedMsg>) {}
        fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<ErasedMsg>) {
            if ctx.now().since(self.armed) < audited_delay(tag) {
                self.early += 1;
            }
            self.fired += 1;
            if self.fired == AUDITED_TIMERS {
                ctx.commit(Value::new(self.early));
                ctx.terminate();
            }
        }
    }

    #[test]
    fn wall_timers_never_fire_early() {
        // 5 runs × 4 parties × 20 timers: every firing waited its full
        // delay on the party's own clock, because the dispatcher counts
        // each delay from the instant it read the arming frame — never
        // from an earlier clock reading, never rounded to a coarser tick.
        use gcl_types::Config;
        let n = 4;
        for run in 0..5 {
            let plan = EnginePlan {
                config: Config::new(n, 1).expect("valid shape"),
                broadcaster: PartyId::new(0),
                links: vec![Duration::ZERO; n * n],
                starts: vec![Duration::ZERO; n],
                deadline: Duration::from_secs(10),
                read_chunk: None,
            };
            let slots = (0..n)
                .map(|_| ErasedSlot {
                    strategy: Box::new(TimerAudit::default()),
                    honest: true,
                })
                .collect();
            let o = run_async_slots(plan, slots, MsgCodec::of::<u64>(), 2, None);
            assert!(o.all_honest_terminated(), "run {run}: every timer fired");
            let early: Vec<u64> = o.commits().iter().map(|c| c.value.as_u64()).collect();
            assert_eq!(early, vec![0; n], "run {run}: early firings per party");
        }
    }

    #[test]
    fn oversized_prefix_crashes_the_peer_for_the_scheduler() {
        // A party announces a 4 GiB frame behind one honest multicast,
        // then sends another well-formed one. The scheduler must neither
        // buffer for the giant frame nor parse anything behind it: the
        // party is crashed from its view.
        let (sched_end, mut party_end) = Stream::pair().expect("socket pair");
        sched_end.set_nonblocking(true).expect("nonblocking");
        let mut out = OutBuf::new();
        for payload in [42u8, 66] {
            out.push_frame_with(|body| {
                body.push(KIND_MULTICAST);
                Option::<PartyId>::None.encode(body);
                0u32.encode(body);
                body.push(payload);
            });
        }
        let mut wire = Vec::new();
        assert!(out.flush(&mut wire).expect("a Vec accepts every byte"));
        let (honest, behind) = wire.split_at(wire.len() / 2);
        let hostile = [honest, &u32::MAX.to_le_bytes(), behind].concat();
        party_end.write_all(&hostile).expect("fits the socket");

        let mut peer = Peer::new(sched_end);
        let mut payloads = Vec::new();
        peer.read_submissions(PartyId::new(3), None, |sub| match sub.kind {
            SubmissionKind::Multicast { bytes, .. } => payloads.push((sub.from, bytes)),
            _ => panic!("only multicasts were sent"),
        });
        assert_eq!(payloads, vec![(PartyId::new(3), vec![42])]);
        assert!(!peer.reading, "crashed from the dispatcher's view");
        assert!(peer.open, "it still gets its deliveries and its STOP");
    }

    #[test]
    fn oversized_prefix_finishes_the_party_not_the_worker() {
        // The same hostile prefix on the delivery side: the party stops
        // consuming its stream (like a corrupt frame header) instead of
        // waiting for 4 GiB, and the worker loop ends with it.
        let (mut sched_end, party_end) = Stream::pair().expect("socket pair");
        party_end.set_nonblocking(true).expect("nonblocking");
        let me = PartyId::new(0);
        let now = Instant::now();
        let party = WorkerParty {
            global: 0,
            core: PartyCore::new(me, gcl_types::Config::new(4, 1).expect("shape"), now, now),
            strategy: Box::new(TimerThenCommit),
            honest: true,
            stream: party_end,
            fb: FrameBuffer::new(),
            out: OutBuf::new(),
            start_at: now,
            started: false,
            terminated: false,
            finished: false,
            open: true,
            registered: None,
        };
        let (done_tx, _done_rx) = channel::<()>();
        let (result_tx, result_rx) = channel();
        let worker = thread::spawn(move || {
            let commits = Arc::new(Mutex::new(Vec::new()));
            let codec = MsgCodec::of::<u64>();
            let _ = result_tx.send(worker_loop(vec![party], codec, commits, done_tx, None));
        });
        sched_end
            .write_all(&u32::MAX.to_le_bytes())
            .expect("hostile prefix");
        let (results, ..) = result_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("the worker must not wait for the announced body");
        assert_eq!(results, vec![(0, false, 1)], "start handled, then finished");
        worker.join().expect("worker exits");
    }

    /// A party that arms one timer at start and commits when it fires —
    /// the cheapest possible protocol, for scale tests where the subject
    /// is the engine, not a protocol.
    struct TimerThenCommit;

    impl Strategy<ErasedMsg> for TimerThenCommit {
        fn start(&mut self, ctx: &mut dyn Context<ErasedMsg>) {
            ctx.set_timer(SimDuration::from_millis(150), 0);
        }
        fn on_message(&mut self, _: PartyId, _: ErasedMsg, _: &mut dyn Context<ErasedMsg>) {}
        fn on_timer(&mut self, _: u64, ctx: &mut dyn Context<ErasedMsg>) {
            ctx.commit(Value::new(7));
            ctx.terminate();
        }
    }

    #[cfg(target_os = "linux")]
    fn live_threads() -> usize {
        std::fs::read_dir("/proc/self/task")
            .expect("procfs")
            .count()
    }

    #[test]
    #[cfg(target_os = "linux")]
    fn thread_count_stays_o_workers_at_n_512() {
        // The scaling claim, asserted: 512 parties on a 4-worker pool must
        // cost ~6 threads (scheduler + workers + the run's own thread) —
        // not one per party.
        use gcl_types::Config;
        let n = 512;
        let plan = EnginePlan {
            config: Config::new(n, 1).expect("valid shape"),
            broadcaster: PartyId::new(0),
            links: vec![Duration::ZERO; n * n],
            starts: vec![Duration::ZERO; n],
            deadline: Duration::from_secs(30),
            read_chunk: None,
        };
        let slots: Vec<ErasedSlot> = (0..n)
            .map(|_| ErasedSlot {
                strategy: Box::new(TimerThenCommit),
                honest: true,
            })
            .collect();
        let before = live_threads();
        let run =
            thread::spawn(move || run_async_slots(plan, slots, MsgCodec::of::<u64>(), 4, None));
        // Sample mid-run: parties are armed and waiting on their timers.
        thread::sleep(Duration::from_millis(60));
        let during = live_threads();
        let o = run.join().expect("run completes");
        let delta = during.saturating_sub(before);
        assert!(
            delta < 64,
            "expected O(workers) threads at n = 512, saw {delta} extra"
        );
        assert!(o.all_honest_terminated(), "every party terminated");
        assert_eq!(o.commits().len(), n, "every party committed");
        assert_eq!(o.sched_counters().map(|s| s.workers), Some(4));
    }
}
