//! Client command admission, batching, and exactly-once bookkeeping.
//!
//! The mempool is the boundary between clients and consensus: commands are
//! admitted (or rejected) here, queued in arrival order, and drained in
//! leader-chosen batches. Admission enforces the reserved-value rule —
//! [`Value::NO_OP`] is the protocol's filler decision and can never enter
//! the log as a client command — and a capacity bound so an open-loop
//! client cannot grow the queue without limit.
//!
//! Since leader rotation, the pool is also the engine's **exactly-once
//! filter**: every replica admits every client command (so a failover
//! leader has something to propose), commands are deduplicated against
//! both the pending queue and a bounded record of recently *committed*
//! commands, and a view-changed in-flight batch can be idempotently
//! re-admitted ([`Mempool::readmit`]) without ever risking a double
//! commit. The committed record is bounded FIFO-by-commit-order, which is
//! a deterministic function of the applied log prefix — replicas that
//! agree on the log hold identical filters.

use gcl_types::{Batch, SlotId, Value};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::fmt;

/// Why [`Mempool::submit`] refused a command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdmissionError {
    /// The command is the reserved [`Value::NO_OP`] encoding.
    Reserved,
    /// The pool is at capacity; the client must back off and retry.
    Full,
    /// The command is already queued awaiting proposal — a duplicate
    /// submission (e.g. a client retry racing the original).
    Pending,
    /// The command already committed at this slot — the submission is a
    /// retry of something the log holds; re-acknowledge, never re-queue.
    Committed(SlotId),
}

impl fmt::Display for AdmissionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AdmissionError::Reserved => write!(f, "reserved no-op encoding"),
            AdmissionError::Full => write!(f, "mempool at capacity"),
            AdmissionError::Pending => write!(f, "already pending"),
            AdmissionError::Committed(slot) => {
                write!(f, "already committed at slot {}", slot.index())
            }
        }
    }
}

/// Counters and gauges of one pool, snapshotted for observability (the
/// load harness reports them per `BENCH_smr.json` row).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MempoolStats {
    /// Commands currently queued awaiting proposal.
    pub occupancy: usize,
    /// Commands admitted over the pool's lifetime.
    pub admitted: u64,
    /// Submissions rejected (reserved, at capacity, or duplicate).
    pub rejected: u64,
    /// Commands re-admitted from view-changed in-flight batches.
    pub requeued: u64,
    /// Commands recorded as committed.
    pub committed: u64,
}

/// Multiple of capacity the committed-command filter retains before
/// evicting its oldest entries (in commit order, so eviction is
/// deterministic across replicas that agree on the log).
const COMMITTED_RETENTION_FACTOR: usize = 4;

/// A bounded FIFO of admitted-but-uncommitted client commands, with an
/// exactly-once filter over recently committed ones.
#[derive(Debug, Clone)]
pub struct Mempool {
    /// Arrival order. Entries whose command has left `pending` (committed
    /// while queued here) are stale and skipped lazily on drain.
    queue: VecDeque<Value>,
    /// The authoritative pending set (deduplicates admission).
    pending: BTreeSet<Value>,
    /// Recently committed commands and the slot each landed in, bounded by
    /// `committed_order` FIFO eviction.
    committed: BTreeMap<Value, SlotId>,
    /// Commit-order eviction queue for `committed`.
    committed_order: VecDeque<Value>,
    capacity: usize,
    admitted: u64,
    rejected: u64,
    requeued: u64,
    committed_total: u64,
}

impl Mempool {
    /// An empty pool holding at most `capacity` pending commands.
    pub fn new(capacity: usize) -> Self {
        Mempool {
            queue: VecDeque::new(),
            pending: BTreeSet::new(),
            committed: BTreeMap::new(),
            committed_order: VecDeque::new(),
            capacity: capacity.max(1),
            admitted: 0,
            rejected: 0,
            requeued: 0,
            committed_total: 0,
        }
    }

    /// Admits one client command at the back of the queue.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Reserved`] for the [`Value::NO_OP`] encoding,
    /// [`AdmissionError::Full`] when the pool is at capacity,
    /// [`AdmissionError::Pending`] for a command already queued, and
    /// [`AdmissionError::Committed`] for a command the log already holds
    /// (so the caller can re-acknowledge it with its slot). Rejected
    /// commands are counted but never queued.
    pub fn submit(&mut self, cmd: Value) -> Result<(), AdmissionError> {
        let verdict = if cmd.is_no_op() {
            Err(AdmissionError::Reserved)
        } else if let Some(&slot) = self.committed.get(&cmd) {
            Err(AdmissionError::Committed(slot))
        } else if self.pending.contains(&cmd) {
            Err(AdmissionError::Pending)
        } else if self.pending.len() >= self.capacity {
            Err(AdmissionError::Full)
        } else {
            self.queue.push_back(cmd);
            self.pending.insert(cmd);
            self.admitted += 1;
            Ok(())
        };
        if verdict.is_err() {
            self.rejected += 1;
        }
        verdict
    }

    /// Idempotently re-admits a command drained into a batch whose slot
    /// decided some other value (a view-changed in-flight proposal).
    /// Returns whether the command re-entered the queue: already-pending
    /// and already-committed commands are refused — that refusal is what
    /// makes arbitrary proposal/retry interleavings exactly-once — and
    /// the capacity bound is deliberately waived (the command was already
    /// admitted once; dropping it here would lose an acknowledged-side
    /// submission).
    pub(crate) fn readmit(&mut self, cmd: Value) -> bool {
        if cmd.is_no_op() || self.committed.contains_key(&cmd) || self.pending.contains(&cmd) {
            return false;
        }
        self.queue.push_back(cmd);
        self.pending.insert(cmd);
        self.requeued += 1;
        true
    }

    /// Records `cmd` as committed at `slot`, removing it from the pending
    /// set. Returns `true` iff the command was *not* already recorded —
    /// i.e. whether this commit is fresh and the caller should apply it.
    /// The committed record is bounded: the oldest entries (commit order)
    /// are evicted past `COMMITTED_RETENTION_FACTOR × capacity`.
    pub fn mark_committed(&mut self, cmd: Value, slot: SlotId) -> bool {
        if cmd.is_no_op() || self.committed.contains_key(&cmd) {
            return false;
        }
        self.pending.remove(&cmd);
        self.committed.insert(cmd, slot);
        self.committed_order.push_back(cmd);
        self.committed_total += 1;
        let cap = self.capacity.saturating_mul(COMMITTED_RETENTION_FACTOR);
        while self.committed_order.len() > cap {
            if let Some(old) = self.committed_order.pop_front() {
                self.committed.remove(&old);
            }
        }
        true
    }

    /// Drains up to `max` commands (arrival order) into a proposal batch,
    /// or `None` when the pool is empty. Queue entries whose command
    /// committed while waiting (another replica proposed it first) are
    /// skipped. `max == 0` is treated as 1 so a misconfigured batch size
    /// cannot stall the log.
    pub fn take_batch(&mut self, max: usize) -> Option<Batch> {
        let max = max.max(1);
        let mut cmds = Vec::new();
        while cmds.len() < max {
            let Some(cmd) = self.queue.pop_front() else {
                break;
            };
            // Stale entry: committed (and removed from pending) while
            // queued — drop it rather than proposing a duplicate.
            if self.pending.remove(&cmd) {
                cmds.push(cmd);
            }
        }
        if cmds.is_empty() {
            None
        } else {
            Some(Batch::Commands(cmds))
        }
    }

    /// Commands currently queued (pending proposal).
    pub(crate) fn pending(&self) -> usize {
        self.pending.len()
    }

    /// The capacity bound.
    pub(crate) fn capacity(&self) -> usize {
        self.capacity
    }

    /// A snapshot of the pool's counters and gauges.
    pub(crate) fn stats(&self) -> MempoolStats {
        MempoolStats {
            occupancy: self.pending(),
            admitted: self.admitted,
            rejected: self.rejected,
            requeued: self.requeued,
            committed: self.committed_total,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A tiny deterministic LCG so the property-style tests need no
    /// external randomness source.
    struct Lcg(u64);
    impl Lcg {
        fn next(&mut self) -> u64 {
            self.0 = self
                .0
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            self.0 >> 11
        }
    }

    #[test]
    fn reserved_no_op_rejected_at_admission() {
        let mut pool = Mempool::new(16);
        assert_eq!(
            pool.submit(Value::NO_OP),
            Err(AdmissionError::Reserved),
            "the protocol filler value must never enter the pool"
        );
        assert_eq!(pool.pending(), 0);
        assert_eq!(pool.stats().rejected, 1);
    }

    #[test]
    fn old_magic_filler_is_now_a_legal_command() {
        // Pre-batch engines used `u64::MAX - 1` as an in-band no-op filler;
        // it is an ordinary command under the reserved-encoding rule.
        let mut pool = Mempool::new(16);
        let old_magic = Value::new(u64::MAX - 1);
        assert_eq!(pool.submit(old_magic), Ok(()));
        assert_eq!(pool.take_batch(8), Some(Batch::Commands(vec![old_magic])));
    }

    #[test]
    fn capacity_bound_holds() {
        let mut pool = Mempool::new(3);
        for i in 0..3 {
            assert_eq!(pool.submit(Value::new(i)), Ok(()));
        }
        assert_eq!(pool.submit(Value::new(9)), Err(AdmissionError::Full));
        assert_eq!(pool.pending(), 3);
        pool.take_batch(1);
        assert_eq!(pool.submit(Value::new(9)), Ok(()), "drain frees a slot");
    }

    #[test]
    fn duplicate_submissions_deduplicated() {
        let mut pool = Mempool::new(8);
        assert_eq!(pool.submit(Value::new(7)), Ok(()));
        assert_eq!(pool.submit(Value::new(7)), Err(AdmissionError::Pending));
        assert_eq!(pool.pending(), 1, "a retry never queues twice");
        assert!(pool.mark_committed(Value::new(7), SlotId::new(3)));
        assert_eq!(
            pool.submit(Value::new(7)),
            Err(AdmissionError::Committed(SlotId::new(3))),
            "a post-commit retry reports the slot for re-acknowledgement"
        );
        assert_eq!(pool.stats().rejected, 2);
    }

    #[test]
    fn mark_committed_is_fresh_exactly_once() {
        let mut pool = Mempool::new(8);
        pool.submit(Value::new(5)).unwrap();
        assert!(pool.mark_committed(Value::new(5), SlotId::new(0)));
        assert!(
            !pool.mark_committed(Value::new(5), SlotId::new(1)),
            "a second slot deciding the same command is not fresh"
        );
        assert_eq!(
            pool.submit(Value::new(5)),
            Err(AdmissionError::Committed(SlotId::new(0)))
        );
        assert_eq!(pool.pending(), 0, "committing removes the pending entry");
        assert!(!pool.mark_committed(Value::NO_OP, SlotId::new(2)));
    }

    #[test]
    fn readmit_refuses_pending_and_committed() {
        let mut pool = Mempool::new(2);
        pool.submit(Value::new(1)).unwrap();
        pool.submit(Value::new(2)).unwrap();
        // Drain both into an in-flight batch, then pretend cmd 1 committed
        // elsewhere while cmd 2's batch view-changed.
        let batch = pool.take_batch(4).unwrap();
        assert_eq!(batch.len(), 2);
        assert!(pool.mark_committed(Value::new(1), SlotId::new(0)));
        assert!(!pool.readmit(Value::new(1)), "committed: refuse");
        assert!(pool.readmit(Value::new(2)), "lost in view change: re-queue");
        assert!(!pool.readmit(Value::new(2)), "idempotent");
        assert!(!pool.readmit(Value::NO_OP));
        assert_eq!(pool.stats().requeued, 1);
        // Capacity is waived for re-admission even at a full pool.
        pool.submit(Value::new(3)).unwrap();
        assert_eq!(pool.submit(Value::new(4)), Err(AdmissionError::Full));
        let drained = pool.take_batch(1).unwrap();
        assert_eq!(drained, Batch::Commands(vec![Value::new(2)]));
    }

    #[test]
    fn stale_queue_entries_skipped_on_drain() {
        // A command that commits while queued (another replica proposed it
        // first) must not ride a later batch out of this pool.
        let mut pool = Mempool::new(8);
        pool.submit(Value::new(1)).unwrap();
        pool.submit(Value::new(2)).unwrap();
        pool.submit(Value::new(3)).unwrap();
        assert!(pool.mark_committed(Value::new(2), SlotId::new(0)));
        assert_eq!(
            pool.take_batch(8),
            Some(Batch::Commands(vec![Value::new(1), Value::new(3)]))
        );
        assert_eq!(pool.pending(), 0);
    }

    #[test]
    fn committed_filter_is_bounded_fifo() {
        let mut pool = Mempool::new(2); // retention = 8
        for i in 0..20u64 {
            let cmd = Value::new(100 + i);
            pool.submit(cmd).unwrap();
            pool.take_batch(1);
            assert!(pool.mark_committed(cmd, SlotId::new(i)));
        }
        assert_eq!(pool.stats().committed, 20);
        assert_eq!(
            pool.submit(Value::new(100)),
            Ok(()),
            "oldest entries evicted in commit order"
        );
        assert_eq!(
            pool.submit(Value::new(119)),
            Err(AdmissionError::Committed(SlotId::new(19))),
            "recent entries retained"
        );
    }

    #[test]
    fn batches_partition_the_admitted_sequence_in_order() {
        // Property: for distinct random submissions and random batch
        // sizes, the concatenation of drained batches equals the admitted
        // sequence — no loss, no duplication, no reordering. (Colliding
        // submissions are rejected at admission since the dedup filter, so
        // the draw is made collision-free.)
        let mut rng = Lcg(0x5eed);
        for _ in 0..50 {
            let mut pool = Mempool::new(1 << 12);
            let count = (rng.next() % 200) as usize;
            let mut submitted = Vec::new();
            for k in 0..count {
                let cmd = Value::new((rng.next() % 1_000_000) * 1_000 + k as u64);
                pool.submit(cmd).unwrap();
                submitted.push(cmd);
            }
            let mut drained = Vec::new();
            while let Some(batch) = pool.take_batch((rng.next() % 17) as usize) {
                assert!(!batch.is_empty(), "take_batch never yields empty batches");
                drained.extend_from_slice(batch.commands());
            }
            assert_eq!(drained, submitted);
            assert_eq!(pool.pending(), 0);
            assert_eq!(pool.stats().admitted, count as u64);
        }
    }

    #[test]
    fn zero_batch_size_still_drains() {
        let mut pool = Mempool::new(8);
        pool.submit(Value::ONE).unwrap();
        assert_eq!(pool.take_batch(0), Some(Batch::Commands(vec![Value::ONE])));
    }
}
