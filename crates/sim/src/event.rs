//! The event queue: a two-tier calendar queue over global time.
//!
//! The old implementation bucketed events in a `BTreeMap<GlobalTime,
//! VecDeque>`; at n = 1024 a flood parks ~1M deliveries and the tree's
//! node churn and pointer chasing — not push arithmetic — dominated the
//! hot loop. This rewrite makes the queue's memory traffic the designed
//! quantity:
//!
//! * **Near tier — a ring of time slots.** 1024 slots of power-of-two
//!   width `2^shift` µs, `shift` derived from the scenario's δ (see
//!   [`EventQueue::with_delta`]), so an n-way multicast under a fixed
//!   delay lands in one slot. A cursor walks the ring monotonically; an
//!   occupancy bitmap finds the next non-empty slot in a few word scans.
//! * **Far tier — a sorted overflow spill.** Events beyond the ring's
//!   horizon (cursor + 1024 slots) go to a `BTreeMap` keyed by raw
//!   microseconds and are bulk-promoted into the ring as the cursor
//!   advances. The invariant "overflow holds only instants at or beyond
//!   the horizon" is restored on every cursor advance, which is what
//!   keeps FIFO-per-instant order intact across the boundary: everything
//!   parked for an instant is promoted *before* any later push for the
//!   same instant can land in the ring.
//! * **A recycling slab with an intrusive free list.** Event envelopes
//!   live in fixed 4096-node chunks (`Vec<Box<[Node]>>`, so growth never
//!   memcpys live events); each bucket entry is a `(time, chain)` pair
//!   whose FIFO chain threads through the nodes' `next` indices. Freed
//!   nodes go on a free list and are reused — the steady state allocates
//!   nothing, and unlike the old spare-`VecDeque` pool the retained
//!   capacity is bounded (drained bucket directories are clamped, see
//!   [`BUCKET_SPARE_ENTRIES`]) and measured ([`EventQueue::retained_bytes`],
//!   surfaced as `Outcome::queue_bytes`).
//!
//! Message payloads are stored as `Rc<M>`: an n-way multicast enqueues one
//! allocation plus `n` reference bumps instead of `n` deep clones, and the
//! payload is shared — not duplicated — while it sits in flight.

use gcl_types::{Duration, GlobalTime, PartyId, Value};
use std::collections::BTreeMap;
use std::rc::Rc;

/// The shared-payload pointer of the delivery path. The event loop is
/// strictly single-threaded (handlers run inline, one at a time), so a
/// non-atomic `Rc` shares a multicast payload without paying three atomic
/// RMWs per delivered message; swap for `Arc` if the loop is ever sharded
/// across threads.
pub(crate) type Shared<M> = Rc<M>;

/// A delivery payload. Multicasts share one reference-counted allocation
/// across all `n` in-flight copies; unicasts and self-deliveries pay one
/// boxing allocation. Both variants are pointer-sized, which keeps queue
/// entries small: an n-way multicast under load parks tens of thousands of
/// events at once, and entry size — not push arithmetic — dominates the
/// queue's cache traffic.
pub(crate) enum Payload<M> {
    /// The sole in-flight copy (unicast / self-delivery).
    Owned(Box<M>),
    /// One of the in-flight copies of a multicast.
    Multicast(Shared<M>),
}

impl<M> Payload<M> {
    /// Borrows the message (for the oracle's [`crate::MsgEnvelope`] and
    /// trace rendering).
    pub(crate) fn get(&self) -> &M {
        match self {
            Payload::Owned(m) => m,
            Payload::Multicast(rc) => rc,
        }
    }
}

impl<M: Clone> Payload<M> {
    /// By-value extraction for dispatch: inline payloads move out, the
    /// last in-flight copy of a multicast unwraps for free, earlier ones
    /// clone lazily — a dropped or clamped-away message is never cloned.
    pub(crate) fn into_msg(self) -> M {
        match self {
            Payload::Owned(m) => *m,
            Payload::Multicast(rc) => Shared::try_unwrap(rc).unwrap_or_else(|s| (*s).clone()),
        }
    }
}

// Renders as the message itself (no `Owned`/`Multicast` wrapper), so trace
// entries are independent of how the payload happened to be routed.
impl<M: std::fmt::Debug> std::fmt::Debug for Payload<M> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        self.get().fmt(f)
    }
}

#[derive(Debug)]
pub(crate) enum EventKind<M> {
    /// Party starts its protocol (local clock begins).
    Start(PartyId),
    /// Message delivery. See [`Payload`] for the sharing contract.
    Deliver {
        to: PartyId,
        from: PartyId,
        msg: Payload<M>,
        /// Asynchronous-round tag (causal depth) of the message.
        round: u32,
    },
    /// Timer expiry.
    Timer { party: PartyId, tag: u64 },
}

#[derive(Debug)]
pub(crate) struct Event<M> {
    pub(crate) at: GlobalTime,
    pub(crate) kind: EventKind<M>,
}

/// Ring size: the near tier covers `NUM_SLOTS × 2^shift` µs ahead of the
/// cursor. Power of two so slot→index is a mask, and large enough that a
/// scenario's in-flight horizon (delays, a few protocol timers) fits —
/// only genuinely far-future work (e.g. the asynchrony fallback) spills.
const NUM_SLOTS: usize = 1024;
/// Occupancy-bitmap words (64 slots per word).
const SLOT_WORDS: usize = NUM_SLOTS / 64;
/// Slab chunk size, as a shift: 4096 nodes per chunk. Chunks are never
/// reallocated, so growing the slab never copies parked events.
const CHUNK_SHIFT: u32 = 12;
const CHUNK: usize = 1 << CHUNK_SHIFT;
/// Null slab index (end of chain / empty free list).
const NIL: u32 = u32::MAX;
/// Retained-capacity clamp for a drained slot's bucket directory: a burst
/// that spread events over many distinct instants of one slot would
/// otherwise leave its high-water `Vec` capacity parked forever.
const BUCKET_SPARE_ENTRIES: usize = 8;
/// Widest allowed bucket: 2^20 µs ≈ 1 s per slot.
const MAX_WIDTH_SHIFT: u32 = 20;

/// One slab cell. `kind` is `None` while the node sits on the free list
/// (the `Option` also drops payloads eagerly on release); `next` threads
/// both the per-instant FIFO chains and the free list.
struct Node<M> {
    kind: Option<EventKind<M>>,
    next: u32,
}

/// A FIFO of events at one instant: slab indices of the first and last
/// node, linked through `Node::next`.
#[derive(Clone, Copy)]
struct Chain {
    head: u32,
    tail: u32,
}

/// One ring slot's directory: the instants parked in this slot, ascending,
/// each with its FIFO chain. Under a fixed delay this holds one entry.
type Bucket = Vec<(u64, Chain)>;

/// Deterministic event queue: pops in `(time, push order)` order.
pub(crate) struct EventQueue<M> {
    /// The envelope slab. Indices are `chunk << CHUNK_SHIFT | offset`; the
    /// fixed-size chunk type lets the offset index (`i & (CHUNK - 1)`,
    /// provably in range) compile without a bounds check.
    chunks: Vec<Box<[Node<M>; CHUNK]>>,
    /// Nodes handed out at least once; the tail of the last chunk beyond
    /// this watermark is still virgin.
    spawned: u32,
    /// Intrusive free list of released nodes (LIFO — freshly popped nodes
    /// are reused first, while their lines are still warm).
    free_head: u32,
    /// The near-future ring.
    slots: Vec<Bucket>,
    /// One bit per ring slot: does its bucket hold anything?
    occupied: [u64; SLOT_WORDS],
    /// Bucket width is `2^shift` µs.
    shift: u32,
    /// Logical slot index (`time >> shift`) the pop side is draining.
    /// Monotone: the simulator never pushes before the last popped
    /// instant, and a defensive earlier push lands in the cursor slot.
    cursor: u64,
    /// Far-future spill, keyed by raw microseconds. Invariant (restored on
    /// every cursor advance): holds only instants at or beyond the ring
    /// horizon `(cursor + NUM_SLOTS) << shift`.
    overflow: BTreeMap<u64, Chain>,
    len: usize,
    peak: usize,
}

impl<M> EventQueue<M> {
    /// A queue with the default 1 µs bucket width (the builder's default
    /// delay; [`EventQueue::with_delta`] is the tuned constructor).
    #[allow(dead_code)] // exercised by tests; production code tunes via δ
    pub(crate) fn new() -> Self {
        Self::with_delta(Duration::from_micros(1))
    }

    /// A queue whose bucket width is the smallest power of two ≥ δ, so
    /// one fixed-delay multicast — and typically one whole protocol round
    /// — lands in a single slot, and the ring horizon (`1024` buckets)
    /// covers hundreds of rounds before anything spills to the far tier.
    pub(crate) fn with_delta(delta: Duration) -> Self {
        let us = delta.as_micros().max(1);
        let shift = if us <= 1 {
            0
        } else {
            (64 - (us - 1).leading_zeros()).min(MAX_WIDTH_SHIFT)
        };
        EventQueue {
            chunks: Vec::new(),
            spawned: 0,
            free_head: NIL,
            slots: (0..NUM_SLOTS).map(|_| Bucket::new()).collect(),
            occupied: [0; SLOT_WORDS],
            shift,
            cursor: 0,
            overflow: BTreeMap::new(),
            len: 0,
            peak: 0,
        }
    }

    #[inline]
    fn node_mut(&mut self, i: u32) -> &mut Node<M> {
        &mut self.chunks[(i >> CHUNK_SHIFT) as usize][(i & (CHUNK as u32 - 1)) as usize]
    }

    /// Takes a node off the free list (or spawns one from the chunk tail)
    /// and fills it. Steady state never reaches the spawn path.
    fn alloc(&mut self, kind: EventKind<M>) -> u32 {
        let i = if self.free_head != NIL {
            let i = self.free_head;
            self.free_head = self.node_mut(i).next;
            i
        } else {
            let i = self.spawned;
            if i as usize == self.chunks.len() * CHUNK {
                let chunk: Box<[Node<M>]> = (0..CHUNK)
                    .map(|_| Node {
                        kind: None,
                        next: NIL,
                    })
                    .collect();
                let chunk: Box<[Node<M>; CHUNK]> =
                    chunk.try_into().unwrap_or_else(|_| unreachable!());
                self.chunks.push(chunk);
            }
            self.spawned = i + 1;
            i
        };
        let node = self.node_mut(i);
        node.kind = Some(kind);
        node.next = NIL;
        i
    }

    pub(crate) fn push(&mut self, at: GlobalTime, kind: EventKind<M>) {
        let t = at.as_micros();
        let i = self.alloc(kind);
        let slot = t >> self.shift;
        if slot >= self.cursor + NUM_SLOTS as u64 {
            // Far tier: beyond the ring horizon.
            match self.overflow.get(&t).copied() {
                Some(chain) => {
                    self.node_mut(chain.tail).next = i;
                    self.overflow.insert(
                        t,
                        Chain {
                            head: chain.head,
                            tail: i,
                        },
                    );
                }
                None => {
                    self.overflow.insert(t, Chain { head: i, tail: i });
                }
            }
        } else {
            // Near tier. A push before the cursor (the simulator never
            // does this; defensive for direct users) lands in the cursor
            // slot — its exact instant still sorts it to the front.
            let logical = slot.max(self.cursor);
            let p = (logical & (NUM_SLOTS as u64 - 1)) as usize;
            self.bucket_insert(p, t, i);
            self.occupied[p >> 6] |= 1 << (p & 63);
        }
        self.len += 1;
        if self.len > self.peak {
            self.peak = self.len;
        }
    }

    /// Appends node `i` (instant `t`) to slot `p`'s directory, keeping the
    /// directory time-sorted. The hot path — everything in the slot at one
    /// instant, pushes in nondecreasing time — is the first two arms.
    fn bucket_insert(&mut self, p: usize, t: u64, i: u32) {
        match self.slots[p].last().copied() {
            Some((bt, chain)) if bt == t => {
                self.node_mut(chain.tail).next = i;
                self.slots[p].last_mut().expect("non-empty").1.tail = i;
            }
            Some((bt, _)) if bt < t => self.slots[p].push((t, Chain { head: i, tail: i })),
            None => self.slots[p].push((t, Chain { head: i, tail: i })),
            Some(_) => {
                // Out-of-order instant within the slot: sorted insert.
                match self.slots[p].binary_search_by_key(&t, |&(bt, _)| bt) {
                    Ok(k) => {
                        let chain = self.slots[p][k].1;
                        self.node_mut(chain.tail).next = i;
                        self.slots[p][k].1.tail = i;
                    }
                    Err(k) => self.slots[p].insert(k, (t, Chain { head: i, tail: i })),
                }
            }
        }
    }

    pub(crate) fn pop(&mut self) -> Option<Event<M>> {
        if self.len == 0 {
            return None;
        }
        loop {
            let p = (self.cursor & (NUM_SLOTS as u64 - 1)) as usize;
            if let Some(&(t, chain)) = self.slots[p].first() {
                let head = chain.head;
                // One borrow drains the node AND returns it to the free
                // list: read the chain link, take the payload, relink.
                let free = self.free_head;
                let node = self.node_mut(head);
                let next = node.next;
                let kind = node.kind.take().expect("chain node is live");
                node.next = free;
                self.free_head = head;
                if head == chain.tail {
                    // Chain drained: retire this instant's directory entry.
                    self.slots[p].remove(0);
                    if self.slots[p].is_empty() {
                        self.occupied[p >> 6] &= !(1 << (p & 63));
                        if self.slots[p].capacity() > BUCKET_SPARE_ENTRIES {
                            // Bound what a drained burst leaves parked.
                            self.slots[p].shrink_to(BUCKET_SPARE_ENTRIES);
                        }
                    }
                } else {
                    self.slots[p][0].1.head = next;
                }
                self.len -= 1;
                return Some(Event {
                    at: GlobalTime::from_micros(t),
                    kind,
                });
            }
            self.advance();
        }
    }

    /// Moves the cursor to the next slot holding work — the next occupied
    /// ring slot, or (ring empty) the first overflow instant's slot — and
    /// re-establishes the overflow invariant for the new horizon.
    fn advance(&mut self) {
        let logical = match self.next_occupied_slot() {
            Some(s) => s,
            None => {
                let (&t, _) = self
                    .overflow
                    .iter()
                    .next()
                    .expect("len > 0 with empty ring implies overflow work");
                t >> self.shift
            }
        };
        self.cursor = logical;
        self.promote();
    }

    /// The logical index of the nearest occupied slot strictly after the
    /// cursor, scanning the bitmap circularly. The window is exactly
    /// `NUM_SLOTS` wide, so every set bit is unambiguous.
    fn next_occupied_slot(&self) -> Option<u64> {
        let p = (self.cursor & (NUM_SLOTS as u64 - 1)) as usize;
        let start_word = p >> 6;
        let rem = (p & 63) as u32;
        // Bits strictly above the cursor's position in its own word.
        let above = if rem == 63 {
            0
        } else {
            self.occupied[start_word] & (!0u64 << (rem + 1))
        };
        if above != 0 {
            let q = (start_word << 6) + above.trailing_zeros() as usize;
            return Some(self.cursor + (q - p) as u64);
        }
        for step in 1..=SLOT_WORDS {
            let idx = (start_word + step) % SLOT_WORDS;
            let word = self.occupied[idx];
            if word != 0 {
                let q = (idx << 6) + word.trailing_zeros() as usize;
                let d = (q + NUM_SLOTS - p) % NUM_SLOTS;
                debug_assert!(d != 0, "cursor slot was checked empty");
                return Some(self.cursor + d as u64);
            }
        }
        None
    }

    /// Bulk-promotes every overflow instant now inside the ring horizon.
    /// Their target buckets are necessarily empty (the previous window's
    /// occupant of each physical slot was drained before the cursor moved
    /// past it), and `BTreeMap` iteration yields ascending instants, so
    /// appending keeps each directory sorted — and every promoted chain
    /// precedes any *later* ring push for the same instant, preserving
    /// global FIFO-per-instant order.
    fn promote(&mut self) {
        let width = 1u64 << self.shift;
        let horizon_t = (self.cursor + NUM_SLOTS as u64).saturating_mul(width);
        while let Some((&t, _)) = self.overflow.iter().next() {
            if t >= horizon_t {
                break;
            }
            let chain = self.overflow.remove(&t).expect("just observed");
            let p = ((t >> self.shift) & (NUM_SLOTS as u64 - 1)) as usize;
            debug_assert!(
                self.slots[p].last().is_none_or(|&(bt, _)| bt < t),
                "promotion target must stay sorted"
            );
            self.slots[p].push((t, chain));
            self.occupied[p >> 6] |= 1 << (p & 63);
        }
    }

    #[allow(dead_code)] // exercised by tests; the runner tracks its own count
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// High-water mark of [`EventQueue::len`] over the queue's lifetime —
    /// the capacity-planning metric surfaced as
    /// [`Outcome::peak_queue_depth`](crate::Outcome::peak_queue_depth).
    pub(crate) fn peak(&self) -> usize {
        self.peak
    }

    /// Bytes of capacity the queue currently retains: slab chunks, the
    /// ring's bucket directories, the occupancy bitmap, and an estimate
    /// for parked overflow entries. This is the queue's cache/memory
    /// footprint — the quantity the calendar layout optimizes — surfaced
    /// as `Outcome::queue_bytes` and benched per scenario.
    pub(crate) fn retained_bytes(&self) -> usize {
        use std::mem::size_of;
        let slab = self.chunks.len() * CHUNK * size_of::<Node<M>>();
        let directories: usize = self
            .slots
            .iter()
            .map(|b| b.capacity() * size_of::<(u64, Chain)>())
            .sum();
        let ring = directories + NUM_SLOTS * size_of::<Bucket>();
        let bitmap = SLOT_WORDS * size_of::<u64>();
        // BTreeMap internals are not observable without allocator hooks;
        // three words of tree overhead per parked instant is a fair bound.
        let overflow = self.overflow.len() * (size_of::<(u64, Chain)>() + 3 * size_of::<u64>());
        slab + ring + bitmap + overflow
    }
}

/// Drives one deterministic mixed near/far push/pop workload through the
/// queue and returns a checksum of the popped instants. This is the
/// `event_queue` microbench's entry point — a measurement hook, not API
/// (hence hidden); it lives here so the bench exercises the real
/// (crate-private) queue instead of a copy.
#[doc(hidden)]
pub fn queue_stress(events: usize, delta_us: u64) -> u64 {
    let delta_us = delta_us.max(1);
    let mut q: EventQueue<u64> = EventQueue::with_delta(Duration::from_micros(delta_us));
    // SplitMix-style generator: deterministic, no external entropy.
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut step = move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    };
    let ring_span = delta_us * NUM_SLOTS as u64;
    let mut now = 0u64;
    let mut pushed = 0usize;
    let mut popped = 0usize;
    let mut sum = 0u64;
    while popped < events {
        // Two pushes per pop while budget lasts, then drain: the queue
        // both grows (multicast burst shape) and cycles its free list.
        if pushed < events && (pushed < 2 * (popped + 1) || popped == pushed) {
            let r = step();
            let delay = if r % 16 == 0 {
                // Far-future: past the ring horizon, exercising the
                // overflow spill and its bulk promotion.
                ring_span + (r >> 8) % (8 * ring_span)
            } else {
                (r >> 8) % (4 * delta_us)
            };
            q.push(
                GlobalTime::from_micros(now + delay),
                EventKind::Timer {
                    party: PartyId::new(0),
                    tag: pushed as u64,
                },
            );
            pushed += 1;
        } else {
            let ev = q.pop().expect("pushed >= popped");
            now = ev.at.as_micros();
            sum = sum.wrapping_mul(31).wrapping_add(now);
            popped += 1;
        }
    }
    sum
}

/// One entry of an execution trace (enabled via
/// [`SimulationBuilder::record_trace`](crate::SimulationBuilder::record_trace)).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEntry {
    /// A party started.
    Started {
        /// When (global clock).
        at: GlobalTime,
        /// Which party.
        party: PartyId,
    },
    /// A message was delivered.
    Delivered {
        /// When (global clock).
        at: GlobalTime,
        /// Sender.
        from: PartyId,
        /// Recipient.
        to: PartyId,
        /// Async-round tag of the message.
        round: u32,
        /// `Debug` rendering of the message.
        msg: String,
    },
    /// A timer fired.
    TimerFired {
        /// When (global clock).
        at: GlobalTime,
        /// Whose timer.
        party: PartyId,
        /// The tag it was set with.
        tag: u64,
    },
    /// A party committed.
    Committed {
        /// When (global clock).
        at: GlobalTime,
        /// Which party.
        party: PartyId,
        /// Committed value.
        value: Value,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q: EventQueue<u8> = EventQueue::new();
        q.push(
            GlobalTime::from_micros(30),
            EventKind::Start(PartyId::new(0)),
        );
        q.push(
            GlobalTime::from_micros(10),
            EventKind::Start(PartyId::new(1)),
        );
        q.push(
            GlobalTime::from_micros(20),
            EventKind::Start(PartyId::new(2)),
        );
        let order: Vec<u64> = std::iter::from_fn(|| q.pop().map(|e| e.at.as_micros())).collect();
        assert_eq!(order, vec![10, 20, 30]);
    }

    #[test]
    fn fifo_at_equal_time() {
        let mut q: EventQueue<u8> = EventQueue::new();
        let t = GlobalTime::from_micros(5);
        for i in 0..4 {
            q.push(t, EventKind::Start(PartyId::new(i)));
        }
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|e| match e.kind {
                EventKind::Start(p) => p.index(),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(order, vec![0, 1, 2, 3], "ties break in push order");
    }

    #[test]
    fn interleaved_push_pop_preserves_order() {
        // Refill a partially drained bucket and race it against an earlier
        // instant: pops must still come back in (time, push order). The
        // push at 3µs lands *behind* the advanced cursor (5µs was already
        // popped), exercising the defensive cursor-slot fallback.
        let mut q: EventQueue<u8> = EventQueue::new();
        let t5 = GlobalTime::from_micros(5);
        q.push(t5, EventKind::Start(PartyId::new(0)));
        q.push(t5, EventKind::Start(PartyId::new(1)));
        assert!(matches!(
            q.pop().unwrap().kind,
            EventKind::Start(p) if p == PartyId::new(0)
        ));
        q.push(
            GlobalTime::from_micros(3),
            EventKind::Start(PartyId::new(2)),
        );
        q.push(t5, EventKind::Start(PartyId::new(3)));
        let order: Vec<u32> = std::iter::from_fn(|| {
            q.pop().map(|e| match e.kind {
                EventKind::Start(p) => p.index(),
                _ => unreachable!(),
            })
        })
        .collect();
        assert_eq!(order, vec![2, 1, 3]);
    }

    #[test]
    fn len_tracks_pushes() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.len(), 0);
        q.push(GlobalTime::ZERO, EventKind::Start(PartyId::new(0)));
        assert_eq!(q.len(), 1);
        q.pop();
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn peak_is_high_water_mark() {
        let mut q: EventQueue<u8> = EventQueue::new();
        assert_eq!(q.peak(), 0);
        for i in 0..3 {
            q.push(
                GlobalTime::from_micros(i),
                EventKind::Start(PartyId::new(0)),
            );
        }
        q.pop();
        q.pop();
        assert_eq!(q.len(), 1);
        assert_eq!(q.peak(), 3, "peak survives pops");
        q.push(GlobalTime::ZERO, EventKind::Start(PartyId::new(1)));
        assert_eq!(q.peak(), 3, "re-pushing below the peak leaves it");
    }

    #[test]
    fn multicast_payload_is_shared() {
        let mut q: EventQueue<String> = EventQueue::new();
        let payload = Shared::new("big".to_string());
        for i in 0..3 {
            q.push(
                GlobalTime::ZERO,
                EventKind::Deliver {
                    to: PartyId::new(i),
                    from: PartyId::new(9),
                    msg: Payload::Multicast(Shared::clone(&payload)),
                    round: 0,
                },
            );
        }
        assert_eq!(Shared::strong_count(&payload), 4, "one payload, n pointers");
    }

    #[test]
    fn payload_unwraps_or_clones() {
        let owned: Payload<String> = Payload::Owned(Box::new("inline".into()));
        assert_eq!(owned.into_msg(), "inline");
        let rc = Shared::new("shared".to_string());
        let (a, b) = (
            Payload::Multicast(Shared::clone(&rc)),
            Payload::Multicast(Shared::clone(&rc)),
        );
        drop(rc);
        assert_eq!(a.into_msg(), "shared", "clones while still shared");
        assert_eq!(b.into_msg(), "shared", "last copy unwraps");
        let solo: Payload<u8> = Payload::Multicast(Shared::new(7));
        assert_eq!(format!("{solo:?}"), "7", "debug renders the message");
    }

    /// Pops every (time, tag) pair; `tag` carries push order in the tests
    /// below.
    fn drain_tags(q: &mut EventQueue<u64>) -> Vec<(u64, u64)> {
        std::iter::from_fn(|| {
            q.pop().map(|e| match e.kind {
                EventKind::Timer { tag, .. } => (e.at.as_micros(), tag),
                _ => unreachable!(),
            })
        })
        .collect()
    }

    fn timer(tag: u64) -> EventKind<u64> {
        EventKind::Timer {
            party: PartyId::new(0),
            tag,
        }
    }

    #[test]
    fn far_future_spills_and_promotes_in_order() {
        // δ = 1µs → 1µs buckets, horizon 1024µs. Park work far past the
        // horizon (overflow), some at the same instant from both tiers.
        let mut q: EventQueue<u64> = EventQueue::with_delta(Duration::from_micros(1));
        q.push(GlobalTime::from_micros(5_000), timer(0)); // overflow
        q.push(GlobalTime::from_micros(3), timer(1)); // ring
        q.push(GlobalTime::from_micros(9_000), timer(2)); // overflow
        q.push(GlobalTime::from_micros(5_000), timer(3)); // overflow, same t
        assert_eq!(q.pop().unwrap().at.as_micros(), 3);
        // Cursor is now at slot 3; 5_000 is still past the horizon until
        // the ring drains and the cursor jumps to the overflow's slot.
        q.push(GlobalTime::from_micros(900), timer(4));
        let rest = drain_tags(&mut q);
        assert_eq!(
            rest,
            vec![(900, 4), (5_000, 0), (5_000, 3), (9_000, 2)],
            "promotion preserves (time, push-order)"
        );
        assert!(q.overflow.is_empty());
    }

    #[test]
    fn ring_boundary_fifo_across_tiers() {
        // An instant first parked in overflow, then — after the cursor
        // advances enough to promote it — pushed again via the ring: the
        // overflow copy was pushed earlier and must pop first.
        let mut q: EventQueue<u64> = EventQueue::with_delta(Duration::from_micros(1));
        let t = 2_000u64;
        q.push(GlobalTime::from_micros(t), timer(0)); // overflow (horizon 1024)
        q.push(GlobalTime::from_micros(1_500), timer(1)); // also overflow
        q.push(GlobalTime::from_micros(10), timer(2)); // ring
        assert_eq!(q.pop().unwrap().at.as_micros(), 10);
        // Drain to 1_500: cursor jumps there, promoting 2_000 (now within
        // the new horizon 1_500 + 1024) into the ring.
        assert_eq!(q.pop().unwrap().at.as_micros(), 1_500);
        q.push(GlobalTime::from_micros(t), timer(3)); // ring, same instant
        assert_eq!(drain_tags(&mut q), vec![(t, 0), (t, 3)]);
    }

    #[test]
    fn slab_recycles_instead_of_growing() {
        let mut q: EventQueue<u64> = EventQueue::with_delta(Duration::from_micros(10));
        // Warm up: park `CHUNK` events, drain them.
        for i in 0..CHUNK as u64 {
            q.push(GlobalTime::from_micros(10 + i % 7), timer(i));
        }
        while q.pop().is_some() {}
        let mut now = 100u64;
        let mut cycle = |q: &mut EventQueue<u64>| {
            // Push-one-pop-one at a 5µs stride: sweeps the whole ring
            // (touching every slot's directory) many times over.
            for i in 0..10 * CHUNK as u64 {
                q.push(GlobalTime::from_micros(now + 5), timer(i));
                now = q.pop().unwrap().at.as_micros();
            }
        };
        cycle(&mut q);
        let chunks = q.chunks.len();
        let bytes = q.retained_bytes();
        cycle(&mut q);
        assert_eq!(q.chunks.len(), chunks, "steady state spawns no chunks");
        assert_eq!(q.retained_bytes(), bytes, "and retains no extra bytes");
    }

    #[test]
    fn drained_bucket_directory_capacity_is_clamped() {
        // δ = 1024µs → one slot spans 1024 distinct instants. Park a burst
        // across many instants of one slot, drain it, and the directory's
        // high-water capacity must be clamped on recycle.
        let mut q: EventQueue<u64> = EventQueue::with_delta(Duration::from_micros(1024));
        let burst = 10 * BUCKET_SPARE_ENTRIES as u64;
        for i in 0..burst {
            q.push(GlobalTime::from_micros(i), timer(i));
        }
        assert!(
            q.slots[0].capacity() >= burst as usize,
            "burst grows one slot's directory"
        );
        let popped = drain_tags(&mut q);
        assert_eq!(popped.len(), burst as usize);
        assert!(
            q.slots[0].capacity() <= BUCKET_SPARE_ENTRIES,
            "drained directory keeps at most {} entries of capacity, has {}",
            BUCKET_SPARE_ENTRIES,
            q.slots[0].capacity()
        );
    }

    #[test]
    fn retained_bytes_accounts_slab_and_overflow() {
        let mut q: EventQueue<u64> = EventQueue::with_delta(Duration::from_micros(1));
        let empty = q.retained_bytes();
        assert!(empty > 0, "ring directory itself is accounted");
        q.push(GlobalTime::from_micros(1 << 20), timer(0));
        let parked = q.retained_bytes();
        assert!(
            parked > empty + CHUNK * std::mem::size_of::<Node<u64>>() - 1,
            "first push spawns a slab chunk"
        );
        q.pop();
        assert!(
            q.retained_bytes() >= empty + CHUNK * std::mem::size_of::<Node<u64>>(),
            "slab capacity is retained after the drain"
        );
        assert!(q.overflow.is_empty(), "the overflow entry is gone");
    }

    #[test]
    fn width_derivation_clamps() {
        let q: EventQueue<u64> = EventQueue::with_delta(Duration::ZERO);
        assert_eq!(q.shift, 0);
        let q: EventQueue<u64> = EventQueue::with_delta(Duration::from_micros(100));
        assert_eq!(q.shift, 7, "128µs buckets for δ = 100µs");
        let q: EventQueue<u64> = EventQueue::with_delta(Duration::from_micros(u64::MAX));
        assert_eq!(q.shift, MAX_WIDTH_SHIFT);
    }

    #[test]
    fn queue_stress_is_deterministic() {
        let a = queue_stress(10_000, 10);
        let b = queue_stress(10_000, 10);
        assert_eq!(a, b);
        assert_ne!(a, 0);
    }
}

#[cfg(test)]
mod model_tests {
    //! The calendar queue fuzzed against a reference model: a
    //! `BinaryHeap<Reverse<(time, seq)>>` is trivially correct for
    //! "(time, push-order) priority", so interleaved push/pop streams —
    //! including far-future spills that cross the ring boundary and
    //! equal-instant bursts — must pop identically from both.

    use super::*;
    use proptest::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// One decoded step of the fuzzed workload.
    enum Op {
        Pop,
        /// Push at `last popped instant + delay`.
        Push {
            delay: u64,
        },
    }

    /// Decodes raw words into ops: ~1/3 pops; pushes cluster near the
    /// cursor (repeating small delays → equal-instant FIFO collisions)
    /// with a deliberate far-future tail that overshoots the ring horizon.
    fn decode(words: &[u64], ring_span: u64) -> Vec<Op> {
        words
            .iter()
            .map(|&w| match w % 6 {
                0 | 1 => Op::Pop,
                2 => Op::Push { delay: 0 },
                3 => Op::Push {
                    delay: (w >> 8) % 4,
                },
                4 => Op::Push {
                    delay: (w >> 8) % (2 * ring_span),
                },
                _ => Op::Push {
                    delay: ring_span + (w >> 8) % (16 * ring_span),
                },
            })
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn matches_reference_heap(words: Vec<u64>, delta_pow in 0u32..12) {
            let delta_us = 1u64 << delta_pow;
            let ring_span = delta_us * NUM_SLOTS as u64;
            let mut q: EventQueue<u64> =
                EventQueue::with_delta(Duration::from_micros(delta_us));
            let mut model: BinaryHeap<Reverse<(u64, u64)>> = BinaryHeap::new();
            let mut seq = 0u64;
            let mut now = 0u64;
            for op in decode(&words, ring_span) {
                match op {
                    Op::Pop => {
                        let expect = model.pop().map(|Reverse(pair)| pair);
                        let got = q.pop().map(|e| match e.kind {
                            EventKind::Timer { tag, .. } => (e.at.as_micros(), tag),
                            _ => unreachable!("only timers pushed"),
                        });
                        prop_assert_eq!(got, expect, "pop mismatch at seq {}", seq);
                        if let Some((t, _)) = got {
                            now = t; // pushes never precede the last pop
                        }
                    }
                    Op::Push { delay } => {
                        let t = now.saturating_add(delay);
                        model.push(Reverse((t, seq)));
                        q.push(
                            GlobalTime::from_micros(t),
                            EventKind::Timer { party: PartyId::new(0), tag: seq },
                        );
                        seq += 1;
                    }
                }
                prop_assert_eq!(q.len(), model.len());
            }
            // Full drain: tails must agree too.
            while let Some(Reverse(pair)) = model.pop() {
                let got = q.pop().map(|e| match e.kind {
                    EventKind::Timer { tag, .. } => (e.at.as_micros(), tag),
                    _ => unreachable!(),
                });
                prop_assert_eq!(got, Some(pair));
            }
            prop_assert_eq!(q.pop().map(|e| e.at), None);
        }
    }
}
