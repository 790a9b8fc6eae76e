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
//! * the **dispatcher discipline** ([`DeliveryHeap`]): deliveries leave
//!   in `(due, seq)` order with a dispatcher-global sequence stamp, so
//!   ties pop in arrival order. A multicast is *one* heap entry that walks
//!   its sender's recipients — sorted once per sender by `(link delay,
//!   id)`, recipient `t` stamped `base_seq + t` — and is re-keyed to its
//!   next recipient as it goes, so the heap holds one slot per in-flight
//!   multicast, not one per recipient; [`DeliveryHeap::drain_due`] hands
//!   out everything due in one pass against one clock reading;
//! * the **frame protocol** (`KIND_*`, [`OutBuf`], [`FrameBuffer`],
//!   [`parse_submission`], [`parse_delivery`]): `u32`-length-prefixed
//!   frames (capped at [`MAX_FRAME`]) carrying encoded submissions (party
//!   → dispatcher) and deliveries (dispatcher → party), rendered in place
//!   into the contiguous outbound buffer and parsed as borrowed slices of
//!   the reassembly buffer, with a `STOP` frame closing the run — the
//!   shutdown choreography that keeps every join finite;
//! * the **audit record**: [`PartyCore::handle`] logs each party's first
//!   commit as a `gcl_sim::CommitRecord`, the simulator's contract, which
//!   the run hands to `Outcome::from_wall_run`.
//!
//! Frame reads are robust to short reads at *arbitrary* byte boundaries
//! and to `EINTR`/`WouldBlock`: [`FrameBuffer`] accumulates whatever
//! bytes the nonblocking socket has and yields only complete frames. It
//! is fuzzed one byte at a time in the tests below. A length prefix above
//! [`MAX_FRAME`] marks the peer as garbled instead of being buffered for.

use gcl_sim::{CommitRecord, Context, ScenarioSpec, Strategy};
use gcl_types::{
    Config, Decode, Duration as SimDuration, Encode, GlobalTime, LocalTime, PartyId, Value,
};
use parking_lot::Mutex;
use std::collections::{binary_heap::PeekMut, BinaryHeap};
use std::io::{self, Read, Write};
use std::sync::mpsc::{Receiver, RecvTimeoutError, Sender};
use std::sync::Arc;
use std::time::{Duration, Instant};

pub(crate) use std::os::unix::net::UnixStream as Stream;

/// How long an engine thread sleeps when it has nothing scheduled — pure
/// wake-up granularity; a submission, a readiness event or a stop
/// interrupts it immediately.
pub(crate) const IDLE_POLL: Duration = Duration::from_millis(50);

/// Everything the engine needs to know about the environment of one run.
pub(crate) struct EnginePlan {
    pub(crate) config: Config,
    pub(crate) broadcaster: PartyId,
    /// Injected wall latency per `(from, to)` link, `from * n + to`
    /// indexing, zero on the diagonal.
    pub(crate) links: Vec<Duration>,
    /// Per-party protocol start offsets (wall-clock skew schedule).
    pub(crate) starts: Vec<Duration>,
    /// Hard wall-clock budget; honest termination exits earlier.
    pub(crate) deadline: Duration,
    /// Test knob: cap every socket read at this many bytes, forcing frame
    /// reassembly through arbitrary short-read boundaries. `None` (the
    /// default everywhere outside tests) reads full buffers.
    pub(crate) read_chunk: Option<usize>,
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
        broadcaster: spec.broadcaster,
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

/// The party-side [`Context`] of the wall engine. Effects buffer here and
/// the worker drains them after the handler returns; `multicast` stays one
/// entry (not `n` sends) so the payload is encoded once and the dispatcher
/// walks the one byte buffer across its recipients.
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
/// and records the party's first commit; the caller encodes the returned
/// [`NetCtx`]'s sends/multicasts/timers as submission frames and reads
/// `terminate` off it.
pub(crate) struct PartyCore {
    pub(crate) me: PartyId,
    pub(crate) config: Config,
    /// Engine start (shared by all parties; commit `elapsed` is measured
    /// from here).
    epoch: Instant,
    /// This party's own clock zero (set when its skew offset elapses).
    pub(crate) local_start: Instant,
    max_round: Option<u32>,
    pub(crate) handled: u64,
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

    /// Runs one event through `strategy`, records the party's first commit
    /// into the shared log, and returns the effect buffer for the caller
    /// to drain.
    pub(crate) fn handle<M: 'static>(
        &mut self,
        strategy: &mut dyn Strategy<M>,
        step: Step<M>,
        commits: &Mutex<Vec<CommitRecord>>,
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
        if let (false, Some(&value)) = (self.committed, ctx.commit_values.first()) {
            self.committed = true;
            commits.lock().push(CommitRecord {
                party: self.me,
                value,
                global: GlobalTime::from_micros(micros(self.epoch.elapsed())),
                local: LocalTime::from_micros(micros(self.local_start.elapsed())),
                round: self.out_round(),
                step: self.handled,
            });
        }
        ctx
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

/// The largest frame body a reader accepts. A `u32` prefix can announce
/// 4 GiB; without a cap one hostile prefix makes [`FrameBuffer`] buffer
/// without bound, so a larger announcement marks the peer as garbled. The
/// largest frames any registered family emits are the quadratic
/// view-change proofs (`n − f` view changes, each carrying an `n − f`-vote
/// certificate): 24.3 MB at n = 1024, asserted below half the cap in the
/// tests.
pub(crate) const MAX_FRAME: usize = 64 << 20;

/// A length prefix announced more than [`MAX_FRAME`] bytes: the stream is
/// garbled (or hostile) and the reader should stop consuming it.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct FrameTooLarge;

/// Bytes asked of the socket per read.
const READ_CHUNK: usize = 16 * 1024;

/// Incremental frame reassembly for nonblocking sockets: [`fill`] drains
/// whatever bytes the socket has right now, [`next_frame`] yields only
/// complete frames — a partial length prefix or body simply waits for the
/// next readiness event.
///
/// [`fill`]: FrameBuffer::fill
/// [`next_frame`]: FrameBuffer::next_frame
pub(crate) struct FrameBuffer {
    /// Backing store, initialised out to `buf.len()`: reads land straight
    /// in the spare room past `end`, and it is zeroed only when it grows.
    buf: Vec<u8>,
    /// `buf[pos..end]` are the received bytes not yet handed out.
    pos: usize,
    end: usize,
}

impl FrameBuffer {
    pub(crate) fn new() -> Self {
        FrameBuffer {
            buf: Vec::new(),
            pos: 0,
            end: 0,
        }
    }

    /// Makes room for `want` more bytes past `end`: reclaims the consumed
    /// prefix first, grows (doubling) only if that is not enough.
    fn reserve(&mut self, want: usize) {
        if self.buf.len() - self.end < want {
            self.compact();
        }
        if self.buf.len() - self.end < want {
            let grown = (self.end + want).max(self.buf.len() * 2);
            self.buf.resize(grown, 0);
        }
    }

    /// Reads from the (nonblocking) stream until it would block or hits
    /// EOF, appending to the reassembly buffer. `Ok(true)` means EOF.
    /// `chunk` caps the per-syscall read size (test knob; `None` = full
    /// buffers).
    pub(crate) fn fill(&mut self, r: &mut impl Read, chunk: Option<usize>) -> io::Result<bool> {
        let cap = chunk.unwrap_or(READ_CHUNK).clamp(1, READ_CHUNK);
        loop {
            self.reserve(cap);
            match r.read(&mut self.buf[self.end..self.end + cap]) {
                Ok(0) => return Ok(true),
                Ok(n) => self.end += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return Ok(false),
                Err(e) => return Err(e),
            }
        }
    }

    /// Appends raw bytes (tests drive reassembly without a socket).
    #[cfg(test)]
    pub(crate) fn push_bytes(&mut self, bytes: &[u8]) {
        self.reserve(bytes.len());
        self.buf[self.end..self.end + bytes.len()].copy_from_slice(bytes);
        self.end += bytes.len();
    }

    /// Pops the next complete frame body, if the buffer holds one, as a
    /// slice of the buffer itself (valid until the next call).
    pub(crate) fn next_frame(&mut self) -> Result<Option<&[u8]>, FrameTooLarge> {
        let Some(prefix) = self.buf[self.pos..self.end].first_chunk::<4>() else {
            self.compact();
            return Ok(None);
        };
        let len = u32::from_le_bytes(*prefix) as usize;
        if len > MAX_FRAME {
            return Err(FrameTooLarge);
        }
        let body = self.pos + 4;
        if self.end - body < len {
            self.compact();
            return Ok(None);
        }
        self.pos = body + len;
        if self.pos == self.end {
            self.pos = 0;
            self.end = 0;
        }
        Ok(Some(&self.buf[body..body + len]))
    }

    /// Moves the unread bytes to the front so the buffer doesn't grow with
    /// the stream's lifetime.
    fn compact(&mut self) {
        if self.pos > 0 {
            self.buf.copy_within(self.pos..self.end, 0);
            self.end -= self.pos;
            self.pos = 0;
        }
    }
}

/// What the dispatcher delivers to a party, payload borrowed from the
/// pending heap entry.
pub(crate) enum Delivery<'a> {
    Msg {
        from: PartyId,
        round: u32,
        bytes: &'a [u8],
    },
    Timer(u64),
}

/// A nonblocking outbound frame queue: one contiguous byte buffer that
/// frames are rendered straight into, the socket drains as much as it
/// accepts per [`flush`], and the high-water mark is the backpressure
/// observability metric.
///
/// [`flush`]: OutBuf::flush
pub(crate) struct OutBuf {
    buf: Vec<u8>,
    /// `buf[..head]` is already written to the socket.
    head: usize,
    /// High-water mark of pending bytes over the queue's lifetime.
    pub(crate) peak: usize,
}

impl OutBuf {
    pub(crate) fn new() -> Self {
        OutBuf {
            buf: Vec::new(),
            head: 0,
            peak: 0,
        }
    }

    /// Appends one length-prefixed frame whose body `render` writes in
    /// place, and returns its size on the wire (never blocks;
    /// backpressure is the *caller's* job, watching [`OutBuf::len`]).
    pub(crate) fn push_frame_with(&mut self, render: impl FnOnce(&mut Vec<u8>)) -> usize {
        let start = self.buf.len();
        self.buf.extend_from_slice(&[0; 4]);
        render(&mut self.buf);
        let len = u32::try_from(self.buf.len() - start - 4).expect("frames stay far below 4 GiB");
        self.buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        self.peak = self.peak.max(self.len());
        self.buf.len() - start
    }

    /// Appends one length-prefixed frame with the given body.
    pub(crate) fn push_frame(&mut self, body: &[u8]) -> usize {
        self.push_frame_with(|buf| buf.extend_from_slice(body))
    }

    /// Appends one delivery frame (the inverse of [`parse_delivery`]).
    pub(crate) fn push_delivery(&mut self, delivery: &Delivery<'_>) -> usize {
        self.push_frame_with(|buf| match *delivery {
            Delivery::Msg { from, round, bytes } => {
                buf.push(KIND_UNICAST);
                from.encode(buf);
                round.encode(buf);
                buf.extend_from_slice(bytes);
            }
            Delivery::Timer(tag) => {
                buf.push(KIND_TIMER);
                tag.encode(buf);
            }
        })
    }

    /// Writes as much as the socket accepts right now. `Ok(true)` means
    /// the queue drained empty; `Ok(false)` means the socket would block
    /// and write-readiness should be watched.
    pub(crate) fn flush(&mut self, w: &mut impl Write) -> io::Result<bool> {
        while self.head < self.buf.len() {
            match w.write(&self.buf[self.head..]) {
                Ok(0) => return Err(io::ErrorKind::WriteZero.into()),
                Ok(n) => self.head += n,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                    // Reclaim the written prefix once it outweighs what
                    // is left: each byte moves at most once per byte
                    // written, so a slow socket cannot pin dead space.
                    if self.head >= self.len() {
                        self.buf.drain(..self.head);
                        self.head = 0;
                    }
                    return Ok(false);
                }
                Err(e) => return Err(e),
            }
        }
        self.buf.clear();
        self.head = 0;
        Ok(true)
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.head == self.buf.len()
    }

    /// Pending (unflushed) bytes.
    pub(crate) fn len(&self) -> usize {
        self.buf.len() - self.head
    }
}

/// A submission as parsed off a party's socket by the dispatcher.
pub(crate) struct Submission {
    pub(crate) from: PartyId,
    pub(crate) kind: SubmissionKind,
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
        bytes: Vec<u8>,
    },
    Timer {
        delay: Duration,
        tag: u64,
    },
    /// Engine-internal: the run is over, flush stop frames and exit.
    Shutdown,
}

/// Parses a submission frame body. Total: a malformed frame (unknown kind,
/// truncated header) yields `None`, and the dispatcher treats the sending
/// party as crashed — one garbled peer must never abort the whole run.
pub(crate) fn parse_submission(from: PartyId, body: &[u8]) -> Option<Submission> {
    let mut r = body;
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
                bytes: r.to_vec(),
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

/// A heap entry: min-order on `(due, seq)` with `seq` dispatcher-global,
/// so ties at one instant pop in arrival order (stable replay under zero
/// injected latency). A multicast entry is keyed by the earliest
/// recipient it still owes.
struct Scheduled {
    due: Instant,
    seq: u64,
    what: Pending,
}

enum Pending {
    /// A unicast (`to` may be the out-of-band client id).
    Msg {
        to: PartyId,
        from: PartyId,
        round: u32,
        bytes: Vec<u8>,
    },
    Timer {
        to: PartyId,
        tag: u64,
    },
    Multicast(Fan),
}

/// One multicast on its way through its sender's recipient order.
/// Recipient `t` is due at `sent + links[from][t]` and stamped `base_seq +
/// t` — the keys `n` separate entries pushed in id order would carry.
struct Fan {
    from: PartyId,
    skip: Option<PartyId>,
    round: u32,
    bytes: Vec<u8>,
    sent: Instant,
    base_seq: u64,
    /// Index into the sender's recipient order of the next one to serve.
    next: usize,
}

impl Fan {
    /// The `(due, seq)` key and id of the next recipient (stepping over
    /// `skip`), or `None` once every recipient is served. `order` and
    /// `row` are the sender's recipient order and link row.
    fn head(&mut self, order: &[u32], row: &[Duration]) -> Option<((Instant, u64), PartyId)> {
        let skipped = |t: &u32| Some(PartyId::new(*t)) == self.skip;
        if order.get(self.next).is_some_and(skipped) {
            self.next += 1;
        }
        let t = *order.get(self.next)?;
        let key = (self.sent + row[t as usize], self.base_seq + u64::from(t));
        Some((key, PartyId::new(t)))
    }
}

impl Scheduled {
    fn key(&self) -> (Instant, u64) {
        (self.due, self.seq)
    }
}

impl PartialEq for Scheduled {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
    }
}
impl Eq for Scheduled {}
impl Ord for Scheduled {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want earliest-first.
        other.key().cmp(&self.key())
    }
}
impl PartialOrd for Scheduled {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// The dispatcher's clock-ordered delivery heap plus its routing rules:
/// unicasts cross their link, a multicast crosses each recipient's link
/// out of one entry and one encoded payload, timers return to their
/// owner, and client-addressed frames (the reserved out-of-band id) cross
/// the sender's worst link — the external client is at least as far away
/// as the farthest party.
pub(crate) struct DeliveryHeap {
    heap: BinaryHeap<Scheduled>,
    next_seq: u64,
    n: usize,
    /// Per sender, every party id sorted by `(link delay, id)` — the order
    /// a multicast falls due in. Built on the sender's first multicast
    /// (empty until then).
    order: Vec<Vec<u32>>,
    /// Deliveries routed and not yet handed out.
    pending: usize,
    /// Point-to-point messages scheduled (multicast counts `n`).
    pub(crate) messages: u64,
    /// High-water mark of pending deliveries.
    pub(crate) peak: usize,
}

impl DeliveryHeap {
    pub(crate) fn new(n: usize) -> Self {
        DeliveryHeap {
            heap: BinaryHeap::new(),
            next_seq: 0,
            n,
            order: vec![Vec::new(); n],
            pending: 0,
            messages: 0,
            peak: 0,
        }
    }

    fn push(&mut self, due: Instant, what: Pending) {
        self.heap.push(Scheduled {
            due,
            seq: self.next_seq,
            what,
        });
        self.next_seq += 1;
        self.pending += 1;
    }

    /// Stamps and schedules one submission: a message or a timer falls
    /// due `now` plus its link or timer delay. `links` is the full n×n
    /// link matrix of the plan. A sender outside the run — a client
    /// submit names its recipient as the sender — schedules nothing, and
    /// so does the engine's shutdown marker (the scheduler consumes it
    /// before routing).
    pub(crate) fn route(&mut self, sub: Submission, links: &[Duration], now: Instant) {
        let n = self.n;
        let from = sub.from;
        if from.as_usize() >= n {
            return;
        }
        let row = &links[from.as_usize() * n..][..n];
        match sub.kind {
            SubmissionKind::Shutdown => {}
            SubmissionKind::Unicast { to, round, bytes } => {
                self.messages += 1;
                let delay = match row.get(to.as_usize()) {
                    Some(link) => *link,
                    None => row.iter().copied().max().unwrap_or_default(),
                };
                let what = Pending::Msg {
                    to,
                    from,
                    round,
                    bytes,
                };
                self.push(now + delay, what);
            }
            SubmissionKind::Multicast { skip, round, bytes } => {
                let order = &mut self.order[from.as_usize()];
                if order.is_empty() {
                    order.extend(0..n as u32);
                    order.sort_by_key(|t| row[*t as usize]);
                }
                let mut fan = Fan {
                    from,
                    skip,
                    round,
                    bytes,
                    sent: now,
                    base_seq: self.next_seq,
                    next: 0,
                };
                self.next_seq += n as u64;
                // A multicast with nobody to reach schedules nothing.
                if let Some(((due, seq), _)) = fan.head(order, row) {
                    let reach = n - usize::from(skip.is_some_and(|s| s.as_usize() < n));
                    self.messages += reach as u64;
                    self.pending += reach;
                    let what = Pending::Multicast(fan);
                    self.heap.push(Scheduled { due, seq, what });
                }
            }
            SubmissionKind::Timer { delay, tag } => {
                self.push(now + delay, Pending::Timer { to: from, tag });
            }
        }
        self.peak = self.peak.max(self.pending);
    }

    /// How long the dispatcher may sleep before the next entry falls due
    /// (the idle-poll granularity when the heap is empty).
    pub(crate) fn next_timeout(&self) -> Duration {
        self.heap
            .peek()
            .map(|s| s.due.saturating_duration_since(Instant::now()))
            .unwrap_or(IDLE_POLL)
    }

    /// Hands every delivery due at `now` to `deliver`, in `(due, seq)`
    /// order, until `deliver` returns `false` (the caller's outbound
    /// budget is spent; the rest stays pending for the next pass). A
    /// multicast stays out of the heap while its next recipient is still
    /// the earliest pending delivery, so a run of recipients costs one pop
    /// and at most one push.
    pub(crate) fn drain_due(
        &mut self,
        now: Instant,
        links: &[Duration],
        mut deliver: impl FnMut(PartyId, Delivery<'_>) -> bool,
    ) {
        let n = self.n;
        let mut more = true;
        while more {
            let Some(top) = self.heap.peek_mut().filter(|s| s.due <= now) else {
                break;
            };
            match PeekMut::pop(top).what {
                Pending::Msg {
                    to,
                    from,
                    round,
                    bytes,
                } => {
                    self.pending -= 1;
                    let bytes = &bytes[..];
                    more = deliver(to, Delivery::Msg { from, round, bytes });
                }
                Pending::Timer { to, tag } => {
                    self.pending -= 1;
                    more = deliver(to, Delivery::Timer(tag));
                }
                Pending::Multicast(mut fan) => {
                    let order = &self.order[fan.from.as_usize()];
                    let row = &links[fan.from.as_usize() * n..][..n];
                    let mut head = fan.head(order, row);
                    // The popped key was due and the earliest; keep going
                    // while the re-keyed entry still is both.
                    while let Some((key, to)) = head {
                        let first = self.heap.peek().is_none_or(|top| key < top.key());
                        if !(more && first && key.0 <= now) {
                            let (due, seq) = key;
                            let what = Pending::Multicast(fan);
                            self.heap.push(Scheduled { due, seq, what });
                            break;
                        }
                        self.pending -= 1;
                        let (from, round, bytes) = (fan.from, fan.round, &fan.bytes[..]);
                        more = deliver(to, Delivery::Msg { from, round, bytes });
                        fan.next += 1;
                        head = fan.head(order, row);
                    }
                }
            }
        }
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

    /// Every complete frame the buffer holds right now, as owned bodies.
    fn pop_frames(fb: &mut FrameBuffer) -> Vec<Vec<u8>> {
        let mut got = Vec::new();
        while let Some(frame) = fb.next_frame().expect("frames below the cap") {
            got.push(frame.to_vec());
        }
        got
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
            got.extend(pop_frames(&mut fb).into_iter().map(|frame| (i, frame)));
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
            got.extend(pop_frames(&mut fb));
        }
        assert_eq!(got, frames);
    }

    #[test]
    fn frame_buffer_fills_from_nonblocking_socket() {
        let (mut a, mut b) = Stream::pair().expect("pair");
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
            if let Some(frame) = fb.next_frame().unwrap() {
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
    fn frame_buffer_rejects_an_oversized_prefix() {
        // A frame announcing more than MAX_FRAME is refused at its prefix:
        // the reader never waits (or buffers) for a body that large.
        let mut fb = FrameBuffer::new();
        fb.push_bytes(b"\x02\x00\x00\x00ok");
        fb.push_bytes(&(MAX_FRAME as u32 + 1).to_le_bytes());
        assert_eq!(fb.next_frame(), Ok(Some(&b"ok"[..])), "good frames first");
        assert_eq!(fb.next_frame(), Err(FrameTooLarge));
        assert_eq!(fb.next_frame(), Err(FrameTooLarge), "and it stays refused");
        assert!(fb.buf.len() < READ_CHUNK, "nothing was reserved for it");

        // The cap itself is still a legal (merely incomplete) frame.
        let mut fb = FrameBuffer::new();
        fb.push_bytes(&(MAX_FRAME as u32).to_le_bytes());
        assert_eq!(fb.next_frame(), Ok(None));
        fb.push_bytes(&u32::MAX.to_le_bytes()[..3]);
        assert_eq!(fb.next_frame(), Ok(None), "a partial prefix just waits");
    }

    #[test]
    fn max_frame_clears_the_largest_frame_a_family_emits_at_n_1024() {
        // The quadratic shape: a PBFT proposal justified by n − f view
        // changes, each carrying a prepared certificate of n − f votes
        // (psync-VBB status bundles have the same structure), inside the
        // unicast delivery header.
        use gcl_core::psync::{PbftMsg, PhaseVote, PreparedCert, ViewChangeMsg};
        use gcl_crypto::{Digest, Keychain};
        use gcl_types::View;
        let (n, f) = (1024, 341);
        let chain = Keychain::generate(n, 1);
        let signer = chain.signer(PartyId::new(0));
        let (value, view) = (Value::new(u64::MAX), View::new(u64::MAX));
        let vote = PhaseVote {
            value,
            view,
            sig: signer.sign(Digest::of(&value)),
        };
        let prepared = PreparedCert {
            value,
            view,
            prepares: vec![vote; n - f],
        };
        let change = ViewChangeMsg::new(&signer, view, Some(prepared));
        let msg = PbftMsg::Propose {
            prop: vote,
            proof: vec![change; n - f],
        };
        let mut out = OutBuf::new();
        let wire = out.push_delivery(&Delivery::Msg {
            from: PartyId::new(n as u32 - 1),
            round: u32::MAX,
            bytes: &msg.to_wire(),
        });
        assert!(wire > 16 << 20, "the shape really is quadratic: {wire}");
        assert!(
            wire - 4 <= MAX_FRAME / 2,
            "2x headroom under the cap: {wire}"
        );
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

        let frames = [b"first frame".to_vec(), vec![7; 40], vec![9; 25]];
        let mut out = OutBuf::new();
        assert!(out.is_empty());
        assert_eq!(out.push_frame(&frames[0]), 4 + 11, "size on the wire");
        out.push_frame(&frames[1]);
        let mut pushed = (4 + 11) + (4 + 40);
        assert_eq!(out.len(), pushed);
        assert_eq!(out.peak, pushed);

        let mut w = Dribble {
            sink: Vec::new(),
            block_next: false,
        };
        let (mut rounds, mut compactions, mut peak) = (0, 0, pushed);
        while !out.flush(&mut w).unwrap() {
            rounds += 1;
            assert!(rounds < 1000, "flush must make progress");
            // Every partial write and every WouldBlock leaves the
            // accounting exact.
            assert_eq!(out.len(), pushed - w.sink.len());
            assert!(!out.is_empty());
            if out.head == 0 {
                compactions += 1; // the written prefix was reclaimed
            }
            if rounds == 12 {
                // A frame rendered behind a half-flushed, once-compacted
                // queue lands after the bytes still pending.
                assert!(compactions > 0, "compacted before the late frame");
                out.push_frame(&frames[2]);
                pushed += 4 + 25;
                peak = peak.max(out.len());
            }
            assert_eq!(out.peak, peak, "peak counts pending bytes, not capacity");
        }
        assert!(compactions >= 2, "compacts again as the queue halves");
        assert!(out.is_empty());
        assert_eq!(out.len(), 0);
        assert_eq!(out.peak, peak);
        assert_eq!(w.sink, wire_bytes(&frames), "byte-exact, in order");
        // The dribbled bytes reassemble into the original frames.
        let mut fb = FrameBuffer::new();
        fb.push_bytes(&w.sink);
        assert_eq!(pop_frames(&mut fb), frames);
        // A drained queue starts over at the front of its buffer.
        out.push_frame(b"again");
        assert_eq!((out.head, out.len()), (0, 4 + 5));
    }

    #[test]
    fn delivery_frames_round_trip_through_parse() {
        let mut out = OutBuf::new();
        out.push_delivery(&Delivery::Msg {
            from: PartyId::new(3),
            round: 9,
            bytes: &[1, 2, 3],
        });
        out.push_delivery(&Delivery::Timer(77));
        let mut fb = FrameBuffer::new();
        let mut wire = Vec::new();
        assert!(out.flush(&mut wire).unwrap());
        fb.push_bytes(&wire);
        match parse_delivery(fb.next_frame().unwrap().expect("first frame")) {
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
        match parse_delivery(fb.next_frame().unwrap().expect("second frame")) {
            Some(DeliveryFrame::Timer(77)) => {}
            _ => panic!("timer frame must parse as Timer(77)"),
        }
        assert_eq!(fb.next_frame(), Ok(None));
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
            assert!(parse_submission(from, valid).is_some());
            // Every strict prefix of the header is truncated garbage.
            for cut in 0..header_len {
                assert!(
                    parse_submission(from, &valid[..cut]).is_none(),
                    "truncation at {cut} must be rejected"
                );
            }
        }
        assert!(parse_submission(from, &[]).is_none(), "empty frame");
        for kind in [0u8, KIND_STOP, 5, 99, 255] {
            assert!(
                parse_submission(from, &[kind, 0, 0, 0, 0]).is_none(),
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
            let _ = parse_submission(from, &body); // must not panic
        }
    }

    /// One delivery as `drain_due` hands it out, owned: `(to, from, round,
    /// payload)` for a message, `(to, to, u32::MAX, tag)` for a timer.
    pub(super) type Seen = (PartyId, PartyId, u32, Vec<u8>);

    pub(super) fn seen(to: PartyId, delivery: Delivery<'_>) -> Seen {
        match delivery {
            Delivery::Msg { from, round, bytes } => (to, from, round, bytes.to_vec()),
            Delivery::Timer(tag) => (to, to, u32::MAX, tag.to_le_bytes().to_vec()),
        }
    }

    /// Everything due at `now`, in hand-out order.
    fn drain_all(dh: &mut DeliveryHeap, now: Instant, links: &[Duration]) -> Vec<Seen> {
        let mut got = Vec::new();
        dh.drain_due(now, links, |to, delivery| {
            got.push(seen(to, delivery));
            true
        });
        got
    }

    fn timer(from: u32, delay: Duration, tag: u64) -> Submission {
        Submission {
            from: PartyId::new(from),
            kind: SubmissionKind::Timer { delay, tag },
        }
    }

    fn multicast(from: u32, skip: Option<PartyId>, round: u32, bytes: Vec<u8>) -> Submission {
        Submission {
            from: PartyId::new(from),
            kind: SubmissionKind::Multicast { skip, round, bytes },
        }
    }

    #[test]
    fn dispatcher_seq_breaks_ties_in_arrival_order() {
        // Equal `due` instants must pop in stamp order — the
        // dispatcher-global sequence, not per-party counters.
        let links = vec![Duration::ZERO; 4];
        let now = Instant::now();
        let mut dh = DeliveryHeap::new(2);
        for (party, tag) in [(1, 30u64), (0, 10), (1, 20), (0, 40)] {
            dh.route(timer(party, Duration::ZERO, tag), &links, now);
        }
        let tags: Vec<Vec<u8>> = drain_all(&mut dh, now, &links)
            .into_iter()
            .map(|s| s.3)
            .collect();
        let expect: Vec<Vec<u8>> = [30u64, 10, 20, 40]
            .iter()
            .map(|t| t.to_le_bytes().to_vec())
            .collect();
        assert_eq!(tags, expect, "FIFO at equal due");

        // An earlier due instant still wins regardless of stamp order.
        dh.route(timer(0, Duration::from_millis(5), 1), &links, now);
        dh.route(timer(0, Duration::ZERO, 2), &links, now);
        let later = now + Duration::from_millis(5);
        let tags: Vec<u8> = drain_all(&mut dh, later, &links)
            .iter()
            .map(|s| s.3[0])
            .collect();
        assert_eq!(tags, vec![2, 1], "time beats stamp order");
    }

    /// The tags of the timers among `seen`, in hand-out order.
    fn tags(seen: &[Seen]) -> Vec<u64> {
        seen.iter()
            .filter(|s| s.2 == u32::MAX)
            .map(|s| u64::from_le_bytes(s.3[..].try_into().expect("timer tag")))
            .collect()
    }

    #[test]
    fn timers_fall_due_at_their_delay_never_before() {
        // Due is the routing instant plus the exact delay: no rounding to
        // a coarser tick in either direction.
        let links = vec![Duration::ZERO; 4];
        let now = Instant::now();
        let mut dh = DeliveryHeap::new(2);
        dh.route(timer(1, Duration::from_micros(1_500), 1), &links, now);
        dh.route(timer(0, Duration::ZERO, 2), &links, now);
        assert_eq!(dh.messages, 0, "timers are not messages");
        assert_eq!(
            tags(&drain_all(&mut dh, now, &links)),
            vec![2],
            "zero is now"
        );
        let just_before = now + Duration::from_micros(1_499);
        assert!(drain_all(&mut dh, just_before, &links).is_empty());
        let due = drain_all(&mut dh, now + Duration::from_micros(1_500), &links);
        assert_eq!(due, vec![seen(PartyId::new(1), Delivery::Timer(1))]);
    }

    #[test]
    fn timer_and_message_due_together_leave_in_routing_order() {
        // One (due, seq) order for both kinds: a 5 ms link and a 5 ms
        // timer routed at the same instant tie, and the stamp decides.
        let ms5 = Duration::from_millis(5);
        let links = vec![Duration::ZERO, ms5, ms5, Duration::ZERO];
        let now = Instant::now();
        let mut dh = DeliveryHeap::new(2);
        let unicast = |from: u32, to: u32, body: u8| Submission {
            from: PartyId::new(from),
            kind: SubmissionKind::Unicast {
                to: PartyId::new(to),
                round: 0,
                bytes: vec![body],
            },
        };
        dh.route(timer(1, ms5, 10), &links, now);
        dh.route(unicast(0, 1, 20), &links, now);
        dh.route(timer(0, ms5, 30), &links, now);
        dh.route(unicast(1, 0, 40), &links, now);
        let got: Vec<u8> = drain_all(&mut dh, now + ms5, &links)
            .iter()
            .map(|s| s.3[0])
            .collect();
        assert_eq!(got, vec![10, 20, 30, 40]);
    }

    #[test]
    fn one_drain_yields_due_order_across_instants() {
        // Armed out of due order, drained once long after all are due.
        let links = vec![Duration::ZERO];
        let now = Instant::now();
        let mut dh = DeliveryHeap::new(1);
        for (ms, tag) in [(30, 30), (10, 10), (20, 20), (10, 11)] {
            dh.route(timer(0, Duration::from_millis(ms), tag), &links, now);
        }
        let later = now + Duration::from_millis(100);
        assert_eq!(
            tags(&drain_all(&mut dh, later, &links)),
            vec![10, 11, 20, 30]
        );
    }

    #[test]
    fn next_timeout_tracks_a_lone_timer() {
        let links = vec![Duration::ZERO];
        let mut dh = DeliveryHeap::new(1);
        assert_eq!(dh.next_timeout(), IDLE_POLL, "nothing pending");
        let delay = Duration::from_secs(30);
        let now = Instant::now();
        dh.route(timer(0, delay, 1), &links, now);
        let wait = dh.next_timeout();
        assert!(
            wait <= delay && wait > delay - Duration::from_secs(5),
            "{wait:?}"
        );
        assert_eq!(tags(&drain_all(&mut dh, now + delay, &links)), vec![1]);
        assert_eq!(dh.next_timeout(), IDLE_POLL, "drained");
        dh.route(timer(0, Duration::ZERO, 2), &links, now);
        assert_eq!(dh.next_timeout(), Duration::ZERO, "overdue is zero");
    }

    #[test]
    fn route_drops_a_sender_outside_the_run() {
        // A client submit names its recipient as the sender; one outside
        // 0..n must not index the link matrix, and reaches nobody.
        let links = vec![Duration::ZERO; 4];
        let now = Instant::now();
        let mut dh = DeliveryHeap::new(2);
        for from in [PartyId::new(2), PartyId::CLIENT] {
            let bytes = vec![1];
            let kind = SubmissionKind::Unicast {
                to: from,
                round: 0,
                bytes,
            };
            dh.route(Submission { from, kind }, &links, now);
            dh.route(multicast(from.index(), None, 0, vec![2]), &links, now);
            let kind = SubmissionKind::Timer {
                delay: Duration::ZERO,
                tag: 3,
            };
            dh.route(Submission { from, kind }, &links, now);
        }
        assert_eq!(
            (dh.messages, dh.pending, dh.peak, dh.heap.len()),
            (0, 0, 0, 0)
        );
        assert!(drain_all(&mut dh, now + Duration::from_secs(1), &links).is_empty());
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
        dh.route(sub, &links, now);
        assert_eq!(dh.messages, 1);
        let just_before = now + Duration::from_micros(8_999);
        assert!(drain_all(&mut dh, just_before, &links).is_empty());
        assert_eq!(
            drain_all(&mut dh, now + Duration::from_millis(9), &links),
            vec![(PartyId::CLIENT, PartyId::new(0), 0, vec![1])],
            "worst link"
        );
    }

    #[test]
    fn delivery_heap_multicast_shares_one_payload() {
        let links = vec![Duration::ZERO; 9];
        let mut dh = DeliveryHeap::new(3);
        let now = Instant::now();
        let sub = multicast(1, Some(PartyId::new(1)), 2, vec![5, 6]);
        dh.route(sub, &links, now);
        assert_eq!(dh.messages, 2, "skip excluded");
        assert_eq!(dh.peak, 2);
        assert_eq!(dh.heap.len(), 1, "one entry, one payload");
        let from = PartyId::new(1);
        assert_eq!(
            drain_all(&mut dh, now, &links),
            vec![
                (PartyId::new(0), from, 2, vec![5, 6]),
                (PartyId::new(2), from, 2, vec![5, 6]),
            ]
        );
        // Skipping the only party there is reaches nobody.
        let mut solo = DeliveryHeap::new(1);
        let sub = multicast(0, Some(PartyId::new(0)), 0, vec![1]);
        solo.route(sub, &[Duration::ZERO], now);
        assert_eq!((solo.messages, solo.peak, solo.heap.len()), (0, 0, 0));
    }

    #[test]
    fn multicast_at_n_1024_costs_one_heap_entry() {
        // The structural half of the dispatcher claim: fan-out lives in
        // the entry's cursor, not in the heap — while `messages` and
        // `peak` still count point-to-point deliveries.
        let n = 1024;
        let delta = Duration::from_millis(2);
        let links: Vec<Duration> = (0..n * n)
            .map(|i| {
                if i / n == i % n {
                    Duration::ZERO
                } else {
                    delta
                }
            })
            .collect();
        let mut dh = DeliveryHeap::new(n);
        let now = Instant::now();
        dh.route(multicast(7, None, 1, vec![0xAB; 8]), &links, now);
        assert_eq!(dh.heap.len(), 1);
        assert_eq!((dh.messages, dh.peak, dh.pending), (1024, 1024, 1024));

        // Only the zero-delay self link is due at the send instant; the
        // entry goes back re-keyed to the next recipient.
        let at_send = drain_all(&mut dh, now, &links);
        assert_eq!(at_send.len(), 1);
        assert_eq!(at_send[0].0, PartyId::new(7));
        assert_eq!((dh.heap.len(), dh.pending), (1, 1023));

        // A second multicast one tick later interleaves by (due, seq):
        // everyone hears party 7 before anyone hears party 9, bar 9's own
        // zero-delay copy.
        let tick = Duration::from_micros(1);
        dh.route(multicast(9, None, 1, vec![0xCD; 8]), &links, now + tick);
        assert_eq!((dh.heap.len(), dh.peak), (2, 2047));
        let rest = drain_all(&mut dh, now + delta + tick, &links);
        assert_eq!(rest.len(), 2047);
        assert_eq!((rest[0].0, rest[0].1), (PartyId::new(9), PartyId::new(9)));
        let others = |skip: u32| (0..n as u32).filter(move |t| *t != skip).map(PartyId::new);
        let expect: Vec<(PartyId, PartyId)> = others(7)
            .map(|t| (t, PartyId::new(7)))
            .chain(others(9).map(|t| (t, PartyId::new(9))))
            .collect();
        let got: Vec<(PartyId, PartyId)> = rest[1..].iter().map(|s| (s.0, s.1)).collect();
        assert_eq!(got, expect);
        assert_eq!((dh.heap.len(), dh.pending, dh.peak), (0, 0, 2047));
    }
}

#[cfg(test)]
mod model_tests {
    //! [`DeliveryHeap`] fuzzed against a reference model: a
    //! `BinaryHeap` holding one `(due, seq)` entry *per recipient* —
    //! multicasts fanned out in id order, exactly what the dispatcher did
    //! before a multicast became one walking entry — is trivially correct
    //! for "(due, arrival-order) priority". Interleaved multicasts (with
    //! and without `skip`), unicasts, client-addressed frames and timers,
    //! drained at partial `now` cut-offs and under a spent outbound
    //! budget, must come out of both in the same order.

    use super::tests::{seen, Seen};
    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;

    /// `(due, seq, to, from, round, payload)`; the derived order is `(due,
    /// seq)` because `seq` is unique.
    type RefEntry = (Instant, u64, PartyId, PartyId, u32, Vec<u8>);

    #[derive(Default)]
    struct Reference {
        heap: BinaryHeap<Reverse<RefEntry>>,
        seq: u64,
        messages: u64,
        peak: usize,
    }

    impl Reference {
        fn push(&mut self, due: Instant, to: PartyId, from: PartyId, round: u32, body: Vec<u8>) {
            self.heap
                .push(Reverse((due, self.seq, to, from, round, body)));
            self.seq += 1;
        }

        fn route(&mut self, sub: &Submission, n: usize, links: &[Duration], now: Instant) {
            let from = sub.from;
            let row = from.as_usize() * n;
            match &sub.kind {
                SubmissionKind::Shutdown => {}
                SubmissionKind::Unicast { to, round, bytes } => {
                    self.messages += 1;
                    let delay = if to.as_usize() >= n {
                        *links[row..row + n].iter().max().expect("n >= 1")
                    } else {
                        links[row + to.as_usize()]
                    };
                    self.push(now + delay, *to, from, *round, bytes.clone());
                }
                SubmissionKind::Multicast { skip, round, bytes } => {
                    for t in (0..n as u32).map(PartyId::new) {
                        if Some(t) != *skip {
                            self.messages += 1;
                            let due = now + links[row + t.as_usize()];
                            self.push(due, t, from, *round, bytes.clone());
                        }
                    }
                }
                SubmissionKind::Timer { delay, tag } => {
                    let tag = tag.to_le_bytes().to_vec();
                    self.push(now + *delay, from, from, u32::MAX, tag);
                }
            }
            self.peak = self.peak.max(self.heap.len());
        }

        /// Up to `budget` deliveries due at `now`, in pop order.
        fn drain(&mut self, now: Instant, budget: usize) -> Vec<Seen> {
            let mut got = Vec::new();
            while got.len() < budget && self.heap.peek().is_some_and(|e| e.0 .0 <= now) {
                let Reverse((_, _, to, from, round, body)) = self.heap.pop().expect("peeked");
                got.push((to, from, round, body));
            }
            got
        }
    }

    /// Link matrices by kind: uniform δ off the diagonal, jittered over a
    /// handful of values (so ties and inversions both occur), all links
    /// tied (the diagonal included).
    fn links(kind: u8, n: usize, seed: u64) -> Vec<Duration> {
        let mut state = seed | 1;
        (0..n * n)
            .map(|i| match kind {
                0 if i / n == i % n => Duration::ZERO,
                0 => Duration::from_micros(2_000),
                1 => {
                    state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                    Duration::from_micros(500 * ((state >> 33) % 5))
                }
                _ => Duration::from_micros(1_000),
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn drain_due_matches_per_recipient_reference(
            words: Vec<u64>,
            n in 1usize..9,
            kind in 0u8..3,
            seed: u64,
        ) {
            let links = links(kind, n, seed);
            let mut dh = DeliveryHeap::new(n);
            let mut model = Reference::default();
            let epoch = Instant::now();
            let mut now = epoch;
            for (i, w) in words.iter().enumerate() {
                let from = ((w >> 8) % n as u64) as u32;
                // Any id at all: a party, the sender itself, or one past
                // the end (which no recipient matches).
                let other = PartyId::new(((w >> 16) % (n as u64 + 1)) as u32);
                let round = (w >> 24) as u32 % 7;
                let body = (i as u64).to_le_bytes().to_vec();
                let kind = match w % 8 {
                    0 | 1 => SubmissionKind::Multicast { skip: None, round, bytes: body },
                    2 => SubmissionKind::Multicast { skip: Some(other), round, bytes: body },
                    3 => SubmissionKind::Unicast { to: other, round, bytes: body },
                    4 => SubmissionKind::Unicast { to: PartyId::CLIENT, round, bytes: body },
                    5 => SubmissionKind::Timer {
                        delay: Duration::from_micros(250 * ((w >> 16) % 9)),
                        tag: i as u64,
                    },
                    _ => {
                        // A drain pass: the clock moves 0–1.5 ms (often
                        // not at all, often short of the next due
                        // instant), and one pass in four runs out of
                        // outbound budget part-way.
                        now += Duration::from_micros(250 * ((w >> 8) % 7));
                        let budget = if w % 8 == 7 && (w >> 11) % 2 == 0 {
                            1 + (w >> 16) as usize % (2 * n)
                        } else {
                            usize::MAX
                        };
                        let expect = model.drain(now, budget);
                        let mut got = Vec::new();
                        dh.drain_due(now, &links, |to, delivery| {
                            got.push(seen(to, delivery));
                            got.len() < budget
                        });
                        prop_assert_eq!(got, expect, "drain at op {}", i);
                        prop_assert_eq!(dh.pending, model.heap.len());
                        continue;
                    }
                };
                let sub = Submission { from: PartyId::new(from), kind };
                model.route(&sub, n, &links, now);
                dh.route(sub, &links, now);
                prop_assert_eq!(dh.pending, model.heap.len());
                prop_assert_eq!(dh.messages, model.messages);
                prop_assert_eq!(dh.peak, model.peak);
                prop_assert!(dh.heap.len() <= i + 1, "one slot per submission at most");
            }
            // Full drain: tails must agree too.
            let end = now + Duration::from_secs(1);
            let expect = model.drain(end, usize::MAX);
            let mut got = Vec::new();
            dh.drain_due(end, &links, |to, delivery| {
                got.push(seen(to, delivery));
                true
            });
            prop_assert_eq!(got, expect);
            prop_assert_eq!((dh.pending, dh.heap.len()), (0, 0));
        }
    }
}
