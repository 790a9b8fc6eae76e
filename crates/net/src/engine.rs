//! The wall engine's layers below the scheduler and worker loops.
//!
//! [`AsyncBackend`](crate::AsyncBackend) executes scenario specs on real
//! clocks and real sockets; `async_backend.rs` holds its threads and
//! readiness loops, and this module holds everything those loops are built
//! from:
//!
//! * the **spec mapping** ([`engine_plan`]): δ/jitter → the injected
//!   per-link latency matrix, skew → per-party start offsets, plus the
//!   caller's deadline;
//! * the **party state machine** ([`PartyCore`] + [`NetCtx`]): one
//!   handler invocation per event, effects buffered and drained by the
//!   transport, commits recorded with wall/local clocks, round tags and
//!   step counts exactly as the simulator defines them;
//! * the **dispatcher discipline** ([`Scheduled`], [`DeliveryHeap`]): a
//!   min-heap ordered by `(due, seq)` with a dispatcher-global sequence
//!   stamp, so delivery ties pop in arrival order;
//! * the **frame protocol** (`KIND_*`, [`OutBuf`], [`FrameBuffer`],
//!   [`parse_submission`], [`parse_delivery`], [`delivery_frame`]):
//!   `u32`-length-prefixed frames carrying encoded submissions (party →
//!   dispatcher) and deliveries (dispatcher → party), with a `STOP` frame
//!   closing the run — the shutdown choreography that keeps every join
//!   finite;
//! * the **audit fold** ([`outcome_from_raw`]): first-commit-per-party
//!   into the simulator-comparable [`Outcome`].
//!
//! Frame reads are robust to short reads at *arbitrary* byte boundaries
//! and to `EINTR`/`WouldBlock`: [`FrameBuffer`] accumulates whatever
//! bytes the nonblocking socket has and yields only complete frames. It
//! is fuzzed one byte at a time in the tests below.

use crossbeam::channel::{Receiver, RecvTimeoutError, Sender};
use gcl_sim::{
    CommitRecord, Context, Outcome, OutcomeParts, ScenarioSpec, SchedCounters, Strategy,
};
use gcl_types::{
    Config, Decode, Duration as SimDuration, Encode, GlobalTime, LocalTime, PartyId, Value,
};
use parking_lot::Mutex;
use std::collections::{BinaryHeap, VecDeque};
use std::io::{self, Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) use std::os::unix::net::UnixStream as Stream;

/// A connected Unix-domain stream socket pair (one per party, plus the
/// scheduler's wake pipe).
pub(crate) fn stream_pair() -> io::Result<(Stream, Stream)> {
    Stream::pair()
}

/// How long an engine thread sleeps when it has nothing scheduled — pure
/// wake-up granularity; a submission, a readiness event or a stop
/// interrupts it immediately.
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(50);

/// Everything the engine needs to know about the environment of one run.
pub(crate) struct EnginePlan {
    pub config: Config,
    /// Injected wall latency per `(from, to)` link, `from * n + to`
    /// indexing, zero on the diagonal.
    pub links: Vec<Duration>,
    /// Per-party protocol start offsets (wall-clock skew schedule).
    pub starts: Vec<Duration>,
    /// Hard wall-clock budget; honest termination exits earlier.
    pub deadline: Duration,
    /// Test knob: cap every socket read at this many bytes, forcing frame
    /// reassembly through arbitrary short-read boundaries. `None` (the
    /// default everywhere outside tests) reads full buffers.
    pub read_chunk: Option<usize>,
}

/// One commit as recorded by the engine (all commits, not just firsts).
pub(crate) struct RawCommit {
    pub party: PartyId,
    pub value: Value,
    /// Since engine start.
    pub elapsed: Duration,
    /// Since the party's own start.
    pub local: Duration,
    /// Causal round tag at the commit (1 + max delivered round).
    pub round: u32,
    /// The party's handled-event count at the commit.
    pub step: u64,
    /// Whether this is the party's first commit.
    pub first: bool,
}

/// Raw observations of one engine run.
pub(crate) struct RawRun {
    pub commits: Vec<RawCommit>,
    pub terminated: Vec<bool>,
    pub honest: Vec<bool>,
    /// Handler invocations summed over all parties.
    pub events_handled: u64,
    /// Point-to-point messages scheduled (multicast counts `n`).
    pub messages_sent: u64,
    /// High-water mark of the dispatcher heap.
    pub peak_queue: usize,
    /// Wall time from engine start to shutdown.
    pub elapsed: Duration,
    /// Worker-pool counters.
    pub sched: SchedCounters,
}

/// Converts a simulated duration (integer µs) to a wall-clock one.
pub(crate) fn wall(d: SimDuration) -> Duration {
    Duration::from_micros(d.as_micros())
}

/// Truncates a wall-clock duration back to integer microseconds.
pub(crate) fn micros(d: Duration) -> u64 {
    u64::try_from(d.as_micros()).unwrap_or(u64::MAX)
}

/// The spec-to-environment mapping: δ/jitter → the injected link matrix,
/// skew → party start offsets, plus the caller's deadline.
pub(crate) fn engine_plan(spec: &ScenarioSpec, deadline: Duration) -> EnginePlan {
    let config = spec.config().expect("validated by the registry");
    let n = config.n();
    let skew = spec.skew_schedule();
    EnginePlan {
        config,
        links: spec.link_delays().into_iter().map(wall).collect(),
        starts: (0..n)
            .map(|i| {
                wall(
                    skew.start_of(PartyId::new(i as u32))
                        .since(GlobalTime::ZERO),
                )
            })
            .collect(),
        deadline,
        read_chunk: None,
    }
}

/// Folds a raw engine run into the simulator-comparable [`Outcome`]: each
/// party's first commit (the simulator's contract), plus the engine-level
/// counters. The raw multi-commit stream stays an engine observation.
pub(crate) fn outcome_from_raw(spec: &ScenarioSpec, raw: RawRun) -> Outcome {
    let config = spec.config().expect("validated by the registry");
    let skew = spec.skew_schedule();
    let commits = raw
        .commits
        .iter()
        .filter(|c| c.first)
        .map(|c| CommitRecord {
            party: c.party,
            value: c.value,
            global: GlobalTime::from_micros(micros(c.elapsed)),
            local: LocalTime::from_micros(micros(c.local)),
            round: c.round,
            step: c.step,
        })
        .collect();
    Outcome::from(OutcomeParts {
        config,
        honest: raw.honest,
        commits,
        terminated: raw.terminated,
        broadcaster: spec.broadcaster,
        broadcaster_start: skew.start_of(spec.broadcaster),
        end_time: GlobalTime::from_micros(micros(raw.elapsed)),
        events_processed: raw.events_handled,
        messages_sent: raw.messages_sent,
        peak_queue_depth: raw.peak_queue,
        // Simulator-only metrics: the wall engine delivers over real
        // sockets, so there is no enqueue-drop path or retained queue.
        drops_at_enqueue: 0,
        queue_bytes: 0,
        sched: Some(raw.sched),
    })
}

/// The party-side [`Context`] of the wall engine. Effects buffer here and
/// the worker drains them after the handler returns; `multicast` stays one
/// entry (not `n` sends) so the payload is encoded once and the dispatcher
/// fans the one byte buffer out.
pub(crate) struct NetCtx<M> {
    pub(crate) me: PartyId,
    pub(crate) config: Config,
    pub(crate) now: LocalTime,
    pub(crate) sends: Vec<(PartyId, M)>,
    pub(crate) mcasts: Vec<(Option<PartyId>, M)>,
    pub(crate) timers: Vec<(SimDuration, u64)>,
    pub(crate) commit_values: Vec<Value>,
    pub(crate) terminate: bool,
}

impl<M> NetCtx<M> {
    /// An empty effect buffer for one handler invocation at local `now`.
    pub(crate) fn new(me: PartyId, config: Config, now: LocalTime) -> Self {
        NetCtx {
            me,
            config,
            now,
            sends: Vec::new(),
            mcasts: Vec::new(),
            timers: Vec::new(),
            commit_values: Vec::new(),
            terminate: false,
        }
    }
}

impl<M> Context<M> for NetCtx<M> {
    fn me(&self) -> PartyId {
        self.me
    }
    fn config(&self) -> Config {
        self.config
    }
    fn now(&self) -> LocalTime {
        self.now
    }
    fn send(&mut self, to: PartyId, msg: M) {
        self.sends.push((to, msg));
    }
    fn set_timer(&mut self, delay: SimDuration, tag: u64) {
        self.timers.push((delay, tag));
    }
    fn commit(&mut self, value: Value) {
        self.commit_values.push(value);
    }
    fn terminate(&mut self) {
        self.terminate = true;
    }
    fn multicast(&mut self, msg: M)
    where
        M: Clone,
    {
        self.mcasts.push((None, msg));
    }
    fn multicast_except(&mut self, msg: M, skip: PartyId)
    where
        M: Clone,
    {
        self.mcasts.push((Some(skip), msg));
    }
}

/// One event a party handles.
pub(crate) enum Step<M> {
    /// The protocol's `start` hook (fires once, after the skew offset).
    Start,
    /// A delivered message.
    Msg { from: PartyId, round: u32, msg: M },
    /// An expired timer.
    Timer(u64),
}

/// The per-party bookkeeping around a handler call:
/// the handled-event count, the causal round tag, and first-commit
/// detection. [`PartyCore::handle`] runs one event through the strategy
/// and records any commits; the caller encodes the returned [`NetCtx`]'s
/// sends/multicasts/timers as submission frames and reads `terminate` off
/// it.
pub(crate) struct PartyCore {
    pub me: PartyId,
    pub config: Config,
    /// Engine start (shared by all parties; commit `elapsed` is measured
    /// from here).
    epoch: Instant,
    /// This party's own clock zero (set when its skew offset elapses).
    pub local_start: Instant,
    max_round: Option<u32>,
    pub handled: u64,
    committed: bool,
}

impl PartyCore {
    pub(crate) fn new(me: PartyId, config: Config, epoch: Instant, local_start: Instant) -> Self {
        PartyCore {
            me,
            config,
            epoch,
            local_start,
            max_round: None,
            handled: 0,
            committed: false,
        }
    }

    /// The causal round tag outgoing messages carry (1 + max delivered
    /// round).
    pub(crate) fn out_round(&self) -> u32 {
        self.max_round.map_or(0, |r| r + 1)
    }

    /// Runs one event through `strategy`, records commits into the shared
    /// log, and returns the effect buffer for the caller to drain.
    pub(crate) fn handle<M: 'static>(
        &mut self,
        strategy: &mut dyn Strategy<M>,
        step: Step<M>,
        commits: &Mutex<Vec<RawCommit>>,
    ) -> NetCtx<M> {
        self.handled += 1;
        let mut ctx = NetCtx::new(
            self.me,
            self.config,
            LocalTime::from_micros(self.local_start.elapsed().as_micros() as u64),
        );
        match step {
            Step::Start => strategy.start(&mut ctx),
            Step::Msg { from, round, msg } => {
                self.max_round = Some(self.max_round.map_or(round, |r| r.max(round)));
                strategy.on_message(from, msg, &mut ctx);
            }
            Step::Timer(tag) => strategy.on_timer(tag, &mut ctx),
        }
        if !ctx.commit_values.is_empty() {
            let out_round = self.out_round();
            let elapsed = self.epoch.elapsed();
            let local = self.local_start.elapsed();
            let mut log = commits.lock();
            for value in ctx.commit_values.drain(..) {
                log.push(RawCommit {
                    party: self.me,
                    value,
                    elapsed,
                    local,
                    round: out_round,
                    step: self.handled,
                    first: !self.committed,
                });
                self.committed = true;
            }
        }
        ctx
    }
}

/// A heap entry: min-order on `(due, seq)` with `seq` dispatcher-global,
/// so ties at one instant pop in arrival order (stable replay under zero
/// injected latency).
pub(crate) struct Scheduled {
    pub due: Instant,
    pub seq: u64,
    pub to: PartyId,
    pub what: Delivery,
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for Scheduled {}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.due.cmp(&self.due).then(other.seq.cmp(&self.seq))
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Blocks until every honest party has reported termination on `done_rx`
/// or `deadline_at` passes — the early-exit protocol (the deadline is only
/// the fallback horizon for runs where some honest party never
/// terminates).
pub(crate) fn await_honest_done(done_rx: &Receiver<()>, honest: &[bool], deadline_at: Instant) {
    let mut remaining = honest.iter().filter(|h| **h).count();
    while remaining > 0 {
        let left = deadline_at.saturating_duration_since(Instant::now());
        if left.is_zero() {
            break;
        }
        match done_rx.recv_timeout(left) {
            Ok(()) => remaining -= 1,
            Err(RecvTimeoutError::Timeout) | Err(RecvTimeoutError::Disconnected) => break,
        }
    }
}

// ---------------------------------------------------------------------
// The frame protocol.
// ---------------------------------------------------------------------

// Frame kind tags. Submissions travel party → dispatcher, deliveries
// dispatcher → party; `STOP` only ever travels dispatcher → party.
pub(crate) const KIND_UNICAST: u8 = 1;
pub(crate) const KIND_MULTICAST: u8 = 2;
pub(crate) const KIND_TIMER: u8 = 3;
pub(crate) const KIND_STOP: u8 = 4;

/// Incremental frame reassembly for nonblocking sockets: [`fill`] drains
/// whatever bytes the socket has right now, [`next_frame`] yields only
/// complete frames — a partial length prefix or body simply waits for the
/// next readiness event.
///
/// [`fill`]: FrameBuffer::fill
/// [`next_frame`]: FrameBuffer::next_frame
pub(crate) struct FrameBuffer {
    buf: Vec<u8>,
    pos: usize,
}

impl FrameBuffer {
    pub(crate) fn new() -> Self {
        FrameBuffer {
            buf: Vec::new(),
            pos: 0,
        }
    }

    /// Reads from the (nonblocking) stream until it would block or hits
    /// EOF, appending to the reassembly buffer. `Ok(true)` means EOF.
    /// `chunk` caps the per-syscall read size (test knob; `None` = full
    /// buffers).
    pub(crate) fn fill(&mut self, r: &mut impl Read, chunk: Option<usize>) -> io::Result<bool> {
        let mut tmp = [0u8; 16 * 1024];
        let cap = chunk.unwrap_or(tmp.len()).clamp(1, tmp.len());
        loop {
            match r.read(&mut tmp[..cap]) {
                Ok(0) => return Ok(true),
                Ok(n) => self.buf.extend_from_slice(&tmp[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }

    /// Appends raw bytes (tests drive reassembly without a socket).
    #[cfg(test)]
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Pops the next complete frame, if the buffer holds one.
    pub(crate) fn next_frame(&mut self) -> Option<Vec<u8>> {
        let avail = self.buf.len() - self.pos;
        if avail < 4 {
            self.compact();
            return None;
        }
        let len = u32::from_le_bytes(
            self.buf[self.pos..self.pos + 4]
                .try_into()
                .expect("4 bytes"),
        ) as usize;
        if avail < 4 + len {
            self.compact();
            return None;
        }
        let frame = self.buf[self.pos + 4..self.pos + 4 + len].to_vec();
        self.pos += 4 + len;
        if self.pos == self.buf.len() {
            self.buf.clear();
            self.pos = 0;
        }
        Some(frame)
    }

    /// Drops the consumed prefix so the buffer doesn't grow with the
    /// stream's lifetime.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.drain(..self.pos);
            self.pos = 0;
        }
    }
}

/// A nonblocking outbound frame queue: frames append fully, the socket
/// drains as much as it accepts per [`flush`], and the high-water mark is
/// the backpressure observability metric.
///
/// [`flush`]: OutBuf::flush
pub(crate) struct OutBuf {
    buf: VecDeque<u8>,
    /// High-water mark of pending bytes over the queue's lifetime.
    pub peak: usize,
}

impl OutBuf {
    pub(crate) fn new() -> Self {
        OutBuf {
            buf: VecDeque::new(),
            peak: 0,
        }
    }

    /// Appends one length-prefixed frame (never blocks; backpressure is
    /// the *caller's* job, watching [`OutBuf::len`]).
    pub(crate) fn push_frame(&mut self, body: &[u8]) {
        let len = u32::try_from(body.len()).expect("frames stay far below 4 GiB");
        self.buf.extend(len.to_le_bytes());
        self.buf.extend(body.iter().copied());
        self.peak = self.peak.max(self.buf.len());
    }

    /// Writes as much as the socket accepts right now. `Ok(true)` means
    /// the queue drained empty; `Ok(false)` means the socket would block
    /// and write-readiness should be watched.
    pub(crate) fn flush(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while !self.buf.is_empty() {
            let (front, _) = self.buf.as_slices();
            match w.write(front) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => {
                    self.buf.drain(..n);
                }
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
        Ok(true)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Pending (unflushed) bytes.
    pub(crate) fn len(&self) -> usize {
        self.buf.len()
    }
}

/// A submission as parsed off a party's socket by the dispatcher.
pub(crate) struct Submission {
    pub from: PartyId,
    pub kind: SubmissionKind,
}

pub(crate) enum SubmissionKind {
    Unicast {
        to: PartyId,
        round: u32,
        bytes: Vec<u8>,
    },
    Multicast {
        skip: Option<PartyId>,
        round: u32,
        bytes: Arc<Vec<u8>>,
    },
    Timer {
        delay: Duration,
        tag: u64,
    },
    /// Engine-internal: the run is over, flush stop frames and exit.
    Shutdown,
}

/// What the dispatcher delivers to a party.
pub(crate) enum Delivery {
    Msg {
        from: PartyId,
        round: u32,
        bytes: Arc<Vec<u8>>,
    },
    Timer(u64),
}

/// Renders a delivery as a frame body.
pub(crate) fn delivery_frame(delivery: &Delivery) -> Vec<u8> {
    let mut body = Vec::new();
    match delivery {
        Delivery::Msg { from, round, bytes } => {
            body.push(KIND_UNICAST);
            from.encode(&mut body);
            round.encode(&mut body);
            body.extend_from_slice(bytes);
        }
        Delivery::Timer(tag) => {
            body.push(KIND_TIMER);
            tag.encode(&mut body);
        }
    }
    body
}

/// Parses a submission frame body. Total: a malformed frame (unknown kind,
/// truncated header) yields `None`, and the dispatcher treats the sending
/// party as crashed — one garbled peer must never abort the whole run.
pub(crate) fn parse_submission(from: PartyId, body: Vec<u8>) -> Option<Submission> {
    let mut r = &body[..];
    let kind = match u8::decode(&mut r).ok()? {
        KIND_UNICAST => {
            let to = PartyId::decode(&mut r).ok()?;
            let round = u32::decode(&mut r).ok()?;
            SubmissionKind::Unicast {
                to,
                round,
                bytes: r.to_vec(),
            }
        }
        KIND_MULTICAST => {
            let skip = Option::<PartyId>::decode(&mut r).ok()?;
            let round = u32::decode(&mut r).ok()?;
            SubmissionKind::Multicast {
                skip,
                round,
                bytes: Arc::new(r.to_vec()),
            }
        }
        KIND_TIMER => {
            let delay = u64::decode(&mut r).ok()?;
            let tag = u64::decode(&mut r).ok()?;
            SubmissionKind::Timer {
                delay: Duration::from_micros(delay),
                tag,
            }
        }
        _ => return None,
    };
    Some(Submission { from, kind })
}

/// A delivery frame as seen by the party side, payload still encoded.
pub(crate) enum DeliveryFrame<'a> {
    Msg {
        from: PartyId,
        round: u32,
        payload: &'a [u8],
    },
    Timer(u64),
    Stop,
}

/// Parses a delivery frame body. `None` means the frame header itself is
/// corrupt — the stream is garbled beyond one frame and the reader should
/// stop consuming it. (An undecodable *payload* is the codec's verdict,
/// taken per frame by the caller.)
pub(crate) fn parse_delivery(body: &[u8]) -> Option<DeliveryFrame<'_>> {
    let mut r = body;
    match u8::decode(&mut r).ok()? {
        KIND_UNICAST => {
            let from = PartyId::decode(&mut r).ok()?;
            let round = u32::decode(&mut r).ok()?;
            Some(DeliveryFrame::Msg {
                from,
                round,
                payload: r,
            })
        }
        KIND_TIMER => u64::decode(&mut r).ok().map(DeliveryFrame::Timer),
        KIND_STOP => Some(DeliveryFrame::Stop),
        _ => None,
    }
}

/// What [`DeliveryHeap::route`] decided about one submission.
pub(crate) enum Routed {
    /// Scheduled (or fanned out) into the heap.
    Queued,
    /// The engine's shutdown marker: flush stop frames and exit.
    Shutdown,
}

/// The dispatcher's clock-ordered delivery heap plus its routing rules:
/// unicasts cross their link,
/// multicasts fan out sharing one encoded payload, timers return to their
/// owner, and client-addressed frames (the reserved out-of-band id) cross
/// the sender's worst link — the external client is at least as far away
/// as the farthest party.
pub(crate) struct DeliveryHeap {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    n: usize,
    /// Point-to-point messages scheduled (multicast counts `n`).
    pub messages: u64,
    /// High-water mark of the heap.
    pub peak: usize,
}

impl DeliveryHeap {
    pub(crate) fn new(n: usize) -> Self {
        DeliveryHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
            n,
            messages: 0,
            peak: 0,
        }
    }

    fn push(&mut self, due: Instant, to: PartyId, what: Delivery) {
        self.heap.push(Scheduled {
            due,
            seq: self.next_seq,
            to,
            what,
        });
        self.next_seq += 1;
    }

    /// Stamps and schedules one submission. `links` is the full n×n link
    /// matrix of the plan.
    pub(crate) fn route(&mut self, sub: Submission, links: &[Duration], now: Instant) -> Routed {
        let n = self.n;
        let row = sub.from.as_usize() * n;
        match sub.kind {
            SubmissionKind::Shutdown => return Routed::Shutdown,
            SubmissionKind::Unicast { to, round, bytes } => {
                self.messages += 1;
                let delay = if to.as_usize() >= n {
                    links[row..row + n]
                        .iter()
                        .copied()
                        .max()
                        .unwrap_or_default()
                } else {
                    links[row + to.as_usize()]
                };
                self.push(
                    now + delay,
                    to,
                    Delivery::Msg {
                        from: sub.from,
                        round,
                        bytes: Arc::new(bytes),
                    },
                );
            }
            SubmissionKind::Multicast { skip, round, bytes } => {
                // One encoded payload, n scheduled frames. Every recipient
                // still decodes its own copy.
                for t in 0..n as u32 {
                    let to = PartyId::new(t);
                    if Some(to) == skip {
                        continue;
                    }
                    self.messages += 1;
                    self.push(
                        now + links[row + to.as_usize()],
                        to,
                        Delivery::Msg {
                            from: sub.from,
                            round,
                            bytes: Arc::clone(&bytes),
                        },
                    );
                }
            }
            SubmissionKind::Timer { delay, tag } => {
                self.push(now + delay, sub.from, Delivery::Timer(tag));
            }
        }
        self.peak = self.peak.max(self.heap.len());
        Routed::Queued
    }

    /// How long the dispatcher may sleep before the next entry falls due
    /// (the idle-poll granularity when the heap is empty).
    pub(crate) fn next_timeout(&self) -> Duration {
        self.heap
            .peek()
            .map(|s| s.due.saturating_duration_since(Instant::now()))
            .unwrap_or(IDLE_POLL)
    }

    /// Pops the next entry if it has fallen due.
    pub(crate) fn pop_due(&mut self) -> Option<Scheduled> {
        if self.heap.peek().is_some_and(|s| s.due <= Instant::now()) {
            return Some(self.heap.pop().expect("peeked"));
        }
        None
    }
}

/// A client's way into a wall run: injects encoded messages
/// that are scheduled and delivered exactly like party traffic (self-link
/// delay, real bytes across the recipient's socket) — and receives the
/// frames replicas address to the reserved [`PartyId::CLIENT`] (serving
/// acknowledgements and back-pressure).
///
/// Handed to the driver closure of
/// [`AsyncBackend::execute_with_client`](crate::AsyncBackend::execute_with_client);
/// cloneable so a driver may fan out over threads (receives are
/// serialized behind a mutex — one clone draining the delivery channel is
/// the intended shape).
#[derive(Clone)]
pub struct ClientHandle {
    sub_tx: Sender<Submission>,
    delivery_rx: Arc<Mutex<Receiver<Vec<u8>>>>,
    /// The scheduler blocks in its readiness poll, not on `sub_tx`'s
    /// channel; a byte on this pipe wakes it.
    waker: Arc<Stream>,
}

impl ClientHandle {
    pub(crate) fn new(
        sub_tx: Sender<Submission>,
        delivery_rx: Receiver<Vec<u8>>,
        waker: Arc<Stream>,
    ) -> Self {
        ClientHandle {
            sub_tx,
            delivery_rx: Arc::new(Mutex::new(delivery_rx)),
            waker,
        }
    }

    /// Injects one encoded message for `to` (delivered as if `to` had sent
    /// it to itself, i.e. after the zero self-link delay). Returns `false`
    /// once the run has shut down — drivers should stop submitting then.
    pub fn submit(&self, to: PartyId, bytes: Vec<u8>) -> bool {
        let ok = self
            .sub_tx
            .send(Submission {
                from: to,
                kind: SubmissionKind::Unicast {
                    to,
                    round: 0,
                    bytes,
                },
            })
            .is_ok();
        if ok {
            // One byte on the wake pipe; a full pipe means the scheduler
            // is already awake, so WouldBlock is success.
            let _ = (&*self.waker).write(&[1]);
        }
        ok
    }

    /// Receives the next client-addressed delivery (the encoded bytes of a
    /// message a replica sent to [`PartyId::CLIENT`]), waiting up to
    /// `timeout`. `None` on timeout or once the run has shut down.
    pub fn recv_timeout(&self, timeout: Duration) -> Option<Vec<u8>> {
        self.delivery_rx.lock().recv_timeout(timeout).ok()
    }

    /// Non-blocking receive of the next client-addressed delivery.
    pub fn try_recv(&self) -> Option<Vec<u8>> {
        self.delivery_rx.lock().try_recv().ok()
    }
}

impl std::fmt::Debug for ClientHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("ClientHandle")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Frames as the production writer puts them on the wire: queued in
    /// an [`OutBuf`], flushed into a byte vector.
    fn wire_bytes(frames: &[Vec<u8>]) -> Vec<u8> {
        let mut out = OutBuf::new();
        for f in frames {
            out.push_frame(f);
        }
        let mut wire = Vec::new();
        assert!(out.flush(&mut wire).unwrap(), "a Vec accepts every byte");
        wire
    }

    #[test]
    fn frame_buffer_reassembles_one_byte_at_a_time() {
        // The fuzz-style 1-byte delivery test: feed a multi-frame stream
        // byte by byte; complete frames must pop out exactly at their
        // boundaries, identical to a bulk parse.
        let frames: Vec<Vec<u8>> = vec![b"abc".to_vec(), Vec::new(), vec![0xFF; 300]];
        let wire = wire_bytes(&frames);
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        for (i, byte) in wire.iter().enumerate() {
            fb.push_bytes(&[*byte]);
            while let Some(frame) = fb.next_frame() {
                got.push((i, frame));
            }
        }
        let bodies: Vec<Vec<u8>> = got.iter().map(|(_, f)| f.clone()).collect();
        assert_eq!(bodies, frames);
        // Each frame completes exactly when its last byte lands.
        let mut boundary = 0;
        for ((at, _), f) in got.iter().zip(&frames) {
            boundary += 4 + f.len();
            assert_eq!(*at, boundary - 1, "frame complete at its final byte");
        }
    }

    #[test]
    fn frame_buffer_reassembles_under_lcg_chunking() {
        // Same stream, sliced at LCG-random boundaries (including zero-
        // length slices): reassembly must be byte-exact regardless of how
        // the kernel fragments reads.
        let frames: Vec<Vec<u8>> = (0..40u8).map(|i| vec![i; i as usize * 7]).collect();
        let wire = wire_bytes(&frames);
        let mut state: u64 = 0x9e3779b97f4a7c15;
        let mut fb = FrameBuffer::new();
        let mut got = Vec::new();
        let mut pos = 0;
        while pos < wire.len() {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let take = ((state >> 33) as usize % 23).min(wire.len() - pos);
            fb.push_bytes(&wire[pos..pos + take]);
            pos += take;
            while let Some(frame) = fb.next_frame() {
                got.push(frame);
            }
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn frame_buffer_fills_from_nonblocking_socket() {
        let (mut a, mut b) = stream_pair().expect("pair");
        b.set_nonblocking(true).expect("nonblocking");
        let mut out = OutBuf::new();
        out.push_frame(b"over the wire");
        assert!(
            out.flush(&mut a).unwrap(),
            "one small frame fits the socket"
        );
        let mut fb = FrameBuffer::new();
        // Data may take an instant to appear in the receive buffer.
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            let eof = fb.fill(&mut b, Some(1)).unwrap();
            assert!(!eof, "peer still open");
            if let Some(frame) = fb.next_frame() {
                assert_eq!(frame, b"over the wire");
                break;
            }
            assert!(Instant::now() < deadline, "frame never arrived");
        }
        drop(a);
        let deadline = Instant::now() + Duration::from_secs(2);
        loop {
            if fb.fill(&mut b, None).unwrap() {
                break; // EOF observed
            }
            assert!(Instant::now() < deadline, "EOF never arrived");
        }
    }

    #[test]
    fn out_buf_flushes_across_would_block() {
        /// A writer that accepts at most 3 bytes per call and every other
        /// call would block.
        struct Dribble {
            sink: Vec<u8>,
            block_next: bool,
        }
        impl Write for Dribble {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.block_next {
                    self.block_next = false;
                    return Err(io::ErrorKind::WouldBlock.into());
                }
                self.block_next = true;
                let take = buf.len().min(3);
                self.sink.extend_from_slice(&buf[..take]);
                Ok(take)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }

        let mut out = OutBuf::new();
        out.push_frame(b"first frame");
        out.push_frame(&[7; 40]);
        let expect_len = (4 + 11) + (4 + 40);
        assert_eq!(out.len(), expect_len);
        assert_eq!(out.peak, expect_len);

        let mut w = Dribble {
            sink: Vec::new(),
            block_next: false,
        };
        let mut rounds = 0;
        while !out.flush(&mut w).unwrap() {
            rounds += 1;
            assert!(rounds < 1000, "flush must make progress");
        }
        assert!(out.is_empty());
        // The dribbled bytes reassemble into the original frames.
        let mut fb = FrameBuffer::new();
        fb.push_bytes(&w.sink);
        assert_eq!(fb.next_frame().unwrap(), b"first frame");
        assert_eq!(fb.next_frame().unwrap(), vec![7; 40]);
        assert!(fb.next_frame().is_none());
    }

    #[test]
    fn delivery_frames_round_trip_through_parse() {
        let msg = Delivery::Msg {
            from: PartyId::new(3),
            round: 9,
            bytes: Arc::new(vec![1, 2, 3]),
        };
        match parse_delivery(&delivery_frame(&msg)) {
            Some(DeliveryFrame::Msg {
                from,
                round,
                payload,
            }) => {
                assert_eq!(from, PartyId::new(3));
                assert_eq!(round, 9);
                assert_eq!(payload, &[1, 2, 3]);
            }
            _ => panic!("unicast frame must parse as Msg"),
        }
        match parse_delivery(&delivery_frame(&Delivery::Timer(77))) {
            Some(DeliveryFrame::Timer(77)) => {}
            _ => panic!("timer frame must parse as Timer(77)"),
        }
        assert!(matches!(
            parse_delivery(&[KIND_STOP]),
            Some(DeliveryFrame::Stop)
        ));
        assert!(parse_delivery(&[]).is_none(), "empty frame is corrupt");
        assert!(parse_delivery(&[99]).is_none(), "unknown kind is corrupt");
        assert!(
            parse_delivery(&[KIND_TIMER, 1]).is_none(),
            "truncated timer tag is corrupt"
        );
    }

    #[test]
    fn malformed_submission_frames_are_rejected_not_fatal() {
        // Fuzz-style sweep over the submission parser: truncations of every
        // valid frame shape, unknown kinds, and LCG-generated garbage all
        // come back as `None` (sender treated as crashed) — the pre-fix
        // parser panicked the dispatcher reader on every one of these.
        let from = PartyId::new(1);
        let mut unicast = vec![KIND_UNICAST];
        PartyId::new(2).encode(&mut unicast);
        7u32.encode(&mut unicast);
        unicast.extend_from_slice(b"payload");
        let mut multicast = vec![KIND_MULTICAST];
        Option::<PartyId>::None.encode(&mut multicast);
        7u32.encode(&mut multicast);
        let mut timer = vec![KIND_TIMER];
        5u64.encode(&mut timer);
        9u64.encode(&mut timer);
        // Pair each frame with its header length: everything after the
        // header is payload bytes, and a truncated *payload* is the codec's
        // problem, not the framing's. Only the unicast frame above carries
        // payload bytes (7 of them).
        for (valid, header_len) in [
            (&unicast, unicast.len() - 7),
            (&multicast, multicast.len()),
            (&timer, timer.len()),
        ] {
            assert!(parse_submission(from, valid.clone()).is_some());
            // Every strict prefix of the header is truncated garbage.
            for cut in 0..header_len {
                assert!(
                    parse_submission(from, valid[..cut].to_vec()).is_none(),
                    "truncation at {cut} must be rejected"
                );
            }
        }
        assert!(parse_submission(from, vec![]).is_none(), "empty frame");
        for kind in [0u8, KIND_STOP, 5, 99, 255] {
            assert!(
                parse_submission(from, vec![kind, 0, 0, 0, 0]).is_none(),
                "kind {kind} is not a submission"
            );
        }
        let mut state: u64 = 0x6b6f;
        for len in 0..64usize {
            let body: Vec<u8> = (0..len)
                .map(|_| {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    (state >> 33) as u8
                })
                .collect();
            let _ = parse_submission(from, body); // must not panic
        }
    }

    #[test]
    fn dispatcher_seq_breaks_ties_in_arrival_order() {
        // Equal `due` instants must pop in stamp order — the
        // dispatcher-global sequence, not per-party counters.
        let due = Instant::now();
        let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
        for seq in [3u64, 0, 2, 1] {
            heap.push(Scheduled {
                due,
                seq,
                to: PartyId::new(0),
                what: Delivery::Timer(seq),
            });
        }
        let order: Vec<u64> = std::iter::from_fn(|| heap.pop().map(|s| s.seq)).collect();
        assert_eq!(order, vec![0, 1, 2, 3], "FIFO at equal due");

        // An earlier due instant still wins regardless of stamp order.
        let mut heap: BinaryHeap<Scheduled> = BinaryHeap::new();
        heap.push(Scheduled {
            due: due + Duration::from_millis(5),
            seq: 0,
            to: PartyId::new(0),
            what: Delivery::Timer(0),
        });
        heap.push(Scheduled {
            due,
            seq: 1,
            to: PartyId::new(0),
            what: Delivery::Timer(1),
        });
        assert_eq!(heap.pop().unwrap().seq, 1, "time beats stamp order");
    }

    #[test]
    fn delivery_heap_routes_client_frames_across_worst_link() {
        // 2-party plan with asymmetric links: party 0's worst link is 9 ms.
        let links = vec![
            Duration::ZERO,
            Duration::from_millis(9),
            Duration::from_millis(4),
            Duration::ZERO,
        ];
        let mut dh = DeliveryHeap::new(2);
        let now = Instant::now();
        let sub = Submission {
            from: PartyId::new(0),
            kind: SubmissionKind::Unicast {
                to: PartyId::CLIENT,
                round: 0,
                bytes: vec![1],
            },
        };
        assert!(matches!(dh.route(sub, &links, now), Routed::Queued));
        let entry = dh.heap.pop().expect("scheduled");
        assert_eq!(entry.to, PartyId::CLIENT);
        assert_eq!(entry.due, now + Duration::from_millis(9), "worst link");
        assert_eq!(dh.messages, 1);
    }

    #[test]
    fn delivery_heap_multicast_shares_one_payload() {
        let links = vec![Duration::ZERO; 9];
        let mut dh = DeliveryHeap::new(3);
        let sub = Submission {
            from: PartyId::new(1),
            kind: SubmissionKind::Multicast {
                skip: Some(PartyId::new(1)),
                round: 2,
                bytes: Arc::new(vec![5, 6]),
            },
        };
        assert!(matches!(
            dh.route(sub, &links, Instant::now()),
            Routed::Queued
        ));
        assert_eq!(dh.messages, 2, "skip excluded");
        assert_eq!(dh.peak, 2);
        let mut recipients = Vec::new();
        while let Some(s) = dh.heap.pop() {
            match s.what {
                Delivery::Msg { bytes, .. } => {
                    assert_eq!(*bytes, vec![5, 6]);
                    recipients.push(s.to);
                }
                Delivery::Timer(_) => panic!("not a timer"),
            }
        }
        recipients.sort();
        assert_eq!(recipients, vec![PartyId::new(0), PartyId::new(2)]);
    }
}
