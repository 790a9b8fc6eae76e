//! The slot multiplexer: batched proposals over per-slot `(5f−1)`-VBB.
//!
//! Each slot of the log decides one [`Batch`] of client commands. The
//! consensus value of a slot is the batch's 63-bit digest (or the reserved
//! [`Value::NO_OP`] for the empty batch), and the batch bytes travel
//! alongside consensus as [`SmrMsg::Payload`] messages — a replica that
//! learns a digest before its bytes recovers them with
//! [`SmrMsg::PayloadPull`].
//!
//! # Termination
//!
//! The log has no end-of-log marker. A replica terminates by **quiesce**:
//! `quiesce_after` consecutive no-op slots at the applied frontier, the
//! trace of a genuinely idle service (a timed-out slot first hands
//! proposal rights to the next view's rotation leader, and only decides
//! [`Value::NO_OP`] when that leader and its successors have nothing
//! queued either), snapshot the state digest as the replica's commit. A
//! finite workload ([`SlotEngine::with_workload`]) is the same service
//! with its commands pre-admitted; such a replica also stops, with the
//! same snapshot, as soon as it has applied every one of them — a local
//! observation that sends nothing and spends no slot. Both stopping points
//! are functions of the applied log prefix, so replicas that agree on the
//! log stop at the same digest.
//!
//! # Windowing and pruning
//!
//! All per-slot state is bounded relative to the applied frontier: slot
//! instances are only *created* for indices in
//! `[applied, applied + PAYLOAD_WINDOW]` (messages naming slots outside the
//! window are dropped — a Byzantine peer cannot allocate unbounded
//! instances by naming far-future slots), and instances, commit records,
//! skipped-view records and payloads more than [`PAYLOAD_RETENTION`] slots
//! *behind* the frontier are pruned (the failover suspect set — see
//! [`SlotEngine`] — holds at most one entry per party). Payloads are also
//! counted per sender within a slot, so one peer cannot crowd out the
//! batch the slot commits (see [`PAYLOAD_WINDOW`]). A replica that
//! misses a payload re-requests it with [`SmrMsg::PayloadPull`], re-armed
//! on a timer until the bytes arrive.

use crate::machine::StateMachine;
use crate::mempool::{AdmissionError, Mempool, MempoolStats};
use gcl_core::psync::{VbbFiveFMinusOne, VbbMsg};
use gcl_crypto::{Digest, Pki, Signer, Verifier};
use gcl_sim::{Context, Protocol};
use gcl_types::{
    accept_all, Batch, Config, Duration, Encode, LocalTime, PartyId, SlotId, Value, View,
};
use parking_lot::Mutex;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Wire messages of the SMR layer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SmrMsg {
    /// A psync-VBB message tagged with its slot.
    Slot {
        /// The slot this message belongs to.
        slot: SlotId,
        /// The inner broadcast message.
        inner: VbbMsg,
    },
    /// The bytes behind a proposed batch digest (leader disseminates these
    /// just before proposing; peers re-serve them on request).
    Payload {
        /// The slot the batch was proposed at.
        slot: SlotId,
        /// The proposed batch.
        batch: Batch,
    },
    /// "I committed a digest for `slot` but never saw its batch" — any
    /// peer holding the payload answers with [`SmrMsg::Payload`].
    PayloadPull {
        /// The slot whose payload is missing.
        slot: SlotId,
    },
    /// A client command submitted for replication (the open-loop serving
    /// path). Every serving replica admits it to its own pool, so a
    /// failover leader has the command available to re-propose.
    Submit {
        /// The command.
        cmd: Value,
    },
    /// Serving acknowledgement, addressed to [`PartyId::CLIENT`]: the
    /// command committed at `slot` and has been applied. A retried
    /// submission of an already-committed command is re-acknowledged with
    /// its recorded slot.
    Ack {
        /// The acknowledged command.
        cmd: Value,
        /// The slot the command committed at.
        slot: SlotId,
    },
    /// Serving back-pressure, addressed to [`PartyId::CLIENT`]: the
    /// command was refused admission (pool at capacity, or an
    /// inadmissible encoding) and the client should back off and retry.
    Reject {
        /// The refused command.
        cmd: Value,
    },
}

gcl_types::wire_enum!(SmrMsg {
    1 => Slot { slot, inner },
    2 => Payload { slot, batch },
    3 => PayloadPull { slot },
    4 => Submit { cmd },
    5 => Ack { cmd, slot },
    6 => Reject { cmd },
});

/// Timer-tag multiplexing: the slot index is packed above the inner tag.
/// The inner protocol owns the low `SLOT_TAG_BITS`; slots own the rest.
const SLOT_TAG_BITS: u32 = 40;
/// First inner tag that no longer fits below the slot bits.
const MAX_INNER_TAG: u64 = 1 << SLOT_TAG_BITS;
/// First slot index that no longer fits above the inner bits.
const MAX_SLOT_INDEX: u64 = 1 << (64 - SLOT_TAG_BITS);

/// Packs a slot index and an inner timer tag into one timer tag, or `None`
/// when either coordinate is out of range (the pair would alias another
/// slot's timers if packed unchecked).
fn pack_slot_tag(slot: SlotId, inner: u64) -> Option<u64> {
    if inner >= MAX_INNER_TAG || slot.index() >= MAX_SLOT_INDEX {
        return None;
    }
    Some((slot.index() << SLOT_TAG_BITS) | inner)
}

/// Inverse of [`pack_slot_tag`].
fn unpack_slot_tag(tag: u64) -> (SlotId, u64) {
    (SlotId::new(tag >> SLOT_TAG_BITS), tag & (MAX_INNER_TAG - 1))
}

/// Inner tag reserved for the engine's own per-slot payload-pull retry
/// timer. [`SubCtx::set_timer`] refuses to pack it for the inner protocol,
/// so a slot instance can never collide with it (VBB tags are view
/// numbers, nowhere near 2^40 − 1 in any real execution).
const PULL_RETRY_TAG: u64 = MAX_INNER_TAG - 1;

/// Slots this far behind the applied frontier have their payloads pruned
/// (retained so lagging peers can still pull recently applied batches).
const PAYLOAD_RETENTION: u64 = 128;
/// Slots this far ahead of the applied frontier refuse payload storage.
///
/// Memory bound: each slot in the window holds at most
/// [`MAX_PAYLOADS_PER_SLOT`] batches stored from each of the `n` parties,
/// plus the batch the slot committed and the batches this replica proposed
/// there itself (one per view it led).
const PAYLOAD_WINDOW: u64 = 1024;
/// Batches stored per slot from any one sender. An equivocating leader can
/// author at most a handful before the view changes, and counting them per
/// sender keeps one peer's flood from taking the other peers' entries.
const MAX_PAYLOADS_PER_SLOT: usize = 4;

/// The consensus value standing in for a batch: the reserved
/// [`Value::NO_OP`] for the empty batch, otherwise the first 63 bits of
/// the batch encoding's digest (the top bit is cleared so a digest can
/// never alias `NO_OP`, whose encoding has it set).
fn batch_value(batch: &Batch) -> Value {
    if batch.is_no_op() {
        return Value::NO_OP;
    }
    let bytes = batch.to_wire();
    let digest = Digest::of(bytes.as_slice());
    let mut le = [0u8; 8];
    le.copy_from_slice(&digest.as_bytes()[..8]);
    Value::new(u64::from_le_bytes(le) & (u64::MAX >> 1))
}

/// Tuning knobs of a [`SlotEngine`] replica.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SmrParams {
    /// Max commands per proposed batch.
    pub batch: usize,
    /// Slots kept in flight past the applied frontier.
    pub pipeline: usize,
    /// Consecutive trailing no-op slots after which the replica concludes
    /// the log has gone quiet and terminates.
    pub quiesce_after: u64,
    /// Mempool capacity (pending client commands).
    pub mempool_capacity: usize,
}

impl Default for SmrParams {
    fn default() -> Self {
        SmrParams {
            batch: 4,
            pipeline: 4,
            quiesce_after: 4,
            mempool_capacity: 1 << 16,
        }
    }
}

/// A replica: one `(5f−1)`-psync-VBB instance per slot, committed batches
/// applied in slot order to the shared [`StateMachine`].
///
/// The stable primary (party 0) leads view 1 of every slot, draining its
/// [`Mempool`] into batched proposals and keeping up to `pipeline` slots
/// in flight. Followers arm a view timer for every slot within `pipeline`
/// of their applied frontier, so a leader that goes quiet on *any* slot is
/// timed out — and **leader rotation** hands proposal rights to the next
/// view's round-robin leader. When its status quorum locks nothing, its
/// slot instance asks for a proposal
/// ([`VbbFiveFMinusOne::wants_proposal`]) and the engine, which owns the
/// pool, answers with a batch from it (the no-op if it is empty).
/// Commands from a view-changed in-flight batch are re-admitted
/// idempotently, and applies are deduplicated against the pool's committed
/// filter, so every admitted command applies exactly once whatever the
/// crash schedule. The state
/// machine sits behind an `Arc<Mutex<…>>` so tests and applications can
/// observe it after (or during) the run.
///
/// # Failover
///
/// Every slot's instance starts at view 1 under party 0, so a dead primary
/// would cost each slot its `4Δ` view timer — and `k` dead leaders `k` of
/// them — forever. The slots cannot simply *start* in a later view: two
/// honest replicas may commit the same slot in different views, so "the
/// view the last slot committed in" is not a function of the agreed log,
/// and replicas that disagree on a slot's leader schedule reject each
/// other's leader-signed timeouts. What a replica may always change
/// without asking anyone is how long *it* waits: VBB's safety never
/// depends on a timer's length. So each replica keeps a private set of
/// **suspects** — never encoded, never sent, not configurable — and pays
/// for a dead leader once, not once per slot:
///
/// 1. **Learn.** A slot that commits a real (non-no-op) batch in view `w`
///    got there over timeout certificates for views `1..w`: their leaders
///    become suspects. Views this replica itself skipped (rule 2) prove
///    nothing twice and are excluded; so are timed-out no-op slots — an
///    idle leader is not a dead one — and this replica itself.
/// 2. **Skip.** When a slot instance asks for the view timer of a
///    suspect, the timer is not armed: it fires right after the
///    interaction, and the suspects leading the views directly behind it
///    are abstained from in the same step
///    ([`VbbFiveFMinusOne::forfeit`]). Once a quorum suspects the same
///    `k` consecutive leaders, a slot crosses all `k` views in **one**
///    message delay. Safe: firing early is a fast local clock, and
///    forfeiting only ever withholds a vote. A fired timer that makes this
///    replica a rotation leader has its proposal answered before the
///    forfeits go out, as it would after a timer that fired in full.
/// 3. **Stay live.** Only in the slot's first round-robin cycle, views
///    `1..=n`. From view `n + 1` on every leader gets its full `4Δ`, so a
///    slot is the unmodified protocol once every party has been tried,
///    whatever the suspect sets say.
/// 4. **Forgive.** A slot message from a suspect for a slot opened at
///    least `pipeline` slots after the one that convicted it shows it
///    outlived that slot, and clears it; so does a commit in a view it
///    leads. A wrongly suspected live primary leads again within about
///    `2 · pipeline` slots.
///
/// With no suspects — every fault-free run — the engine sends and arms
/// exactly what it did without them.
pub struct SlotEngine<S> {
    config: Config,
    signer: Signer,
    pki: Arc<Pki>,
    big_delta: Duration,
    params: SmrParams,
    machine: Arc<Mutex<S>>,
    mempool: Mempool,
    /// Batches this replica proposed, in view 1 or as a rotation leader,
    /// per slot: when the slot decides something else, their commands are
    /// re-queued.
    my_proposals: BTreeMap<SlotId, Vec<Batch>>,
    /// Observability probe: when installed, the pool's counters are
    /// snapshotted here on every pump.
    stats_probe: Option<Arc<Mutex<MempoolStats>>>,
    slots: BTreeMap<SlotId, VbbFiveFMinusOne>,
    committed: BTreeMap<SlotId, Value>,
    /// Per slot, the batches held by digest, each with the peer it was
    /// stored from (see [`PAYLOAD_WINDOW`] for the bound).
    payloads: BTreeMap<SlotId, BTreeMap<Value, (PartyId, Batch)>>,
    pulled: BTreeSet<SlotId>,
    /// Leaders this replica has watched fail, each with the latest slot
    /// that convicted it (see "Failover" in the type docs). Local
    /// knowledge only: never encoded, never sent, at most `n − 1` entries.
    suspects: BTreeMap<PartyId, SlotId>,
    /// `(slot, view)` pairs whose view timer this replica fired at once
    /// instead of arming it — views that say nothing new about their
    /// leader when the slot commits past them.
    skipped: BTreeSet<(SlotId, u64)>,
    /// Leader-side proposal cursor: the next slot index this leader will
    /// try to propose at. Advanced only by the leader itself (proposing,
    /// or skipping a slot that other parties' view change already opened)
    /// — never by incoming messages, so a peer naming a far-future slot
    /// cannot push the cursor past the frontier window.
    next_propose: u64,
    /// Applied frontier: all slots below are applied.
    applied: u64,
    /// Commands applied so far, each counted once (duplicates filtered
    /// out by the exactly-once check are not).
    commands_applied: u64,
    /// Consecutive no-op slots at the applied frontier.
    trailing_noops: u64,
    terminated: bool,
}

impl<S: StateMachine> SlotEngine<S> {
    /// Creates a replica: the log is open-ended, the leader proposes
    /// whatever clients [`SmrMsg::Submit`], and the run ends by quiesce.
    ///
    /// # Panics
    ///
    /// Panics if `params.pipeline == 0`, or `n < 5f − 1` (engine
    /// requirement).
    pub fn new(
        config: Config,
        signer: Signer,
        pki: Arc<Pki>,
        big_delta: Duration,
        params: SmrParams,
        machine: Arc<Mutex<S>>,
    ) -> Self {
        assert!(params.pipeline >= 1, "pipeline depth must be at least 1");
        assert!(
            config.supports_two_round_psync(),
            "SMR engine requires n >= 5f - 1"
        );
        SlotEngine {
            config,
            signer,
            pki,
            big_delta,
            params,
            machine,
            mempool: Mempool::new(params.mempool_capacity),
            my_proposals: BTreeMap::new(),
            stats_probe: None,
            slots: BTreeMap::new(),
            committed: BTreeMap::new(),
            payloads: BTreeMap::new(),
            pulled: BTreeSet::new(),
            suspects: BTreeMap::new(),
            skipped: BTreeSet::new(),
            next_propose: 0,
            applied: 0,
            commands_applied: 0,
            trailing_noops: 0,
            terminated: false,
        }
    }

    /// Pre-admits a finite client workload: the replica serves it like
    /// any other traffic and stops once it has applied all of it (or
    /// earlier, by quiesce).
    ///
    /// # Panics
    ///
    /// Panics if a workload command is not admissible (the reserved
    /// [`Value::NO_OP`] encoding, or a command listed twice).
    #[must_use]
    pub fn with_workload(self, workload: Vec<Value>) -> impl Protocol<Msg = SmrMsg> {
        Finite::new(self, workload)
    }

    /// Installs an observability probe: the pool's counters are
    /// snapshotted into `probe` on every pump, so an external harness can
    /// report occupancy / admitted / rejected / re-queued without sharing
    /// the engine itself.
    #[must_use]
    pub fn with_stats_probe(mut self, probe: Arc<Mutex<MempoolStats>>) -> Self {
        self.stats_probe = Some(probe);
        self
    }

    fn me(&self) -> PartyId {
        self.signer.id()
    }

    fn is_leader(&self) -> bool {
        self.me() == PartyId::new(0)
    }

    /// The one place a slot instance is touched: creates (and starts) it
    /// if absent, routes `f` into it, crosses the views of suspected
    /// leaders, and records the commit — and what it says about the
    /// leaders ([`Self::judge`]) — if one results.
    ///
    /// After `f` and after each fired suspect timer, a rotation leader's
    /// request for a proposal is answered from the pool, and the batch is
    /// published ([`Self::publish`]) after its Propose and Vote; the view-1
    /// primary publishes before its instance starts ([`Self::propose`]).
    ///
    /// `proposal` is the view-1 input a *new* instance gets on the stable
    /// primary: the batch digest on the propose path, the explicit empty
    /// proposal when the slot is being opened by other parties' view
    /// change (the primary has nothing queued for it). Followers' new
    /// instances are inputless watchers with the view timer armed.
    fn drive(
        &mut self,
        slot: SlotId,
        ctx: &mut dyn Context<SmrMsg>,
        proposal: Value,
        f: impl FnOnce(&mut VbbFiveFMinusOne, &mut SubCtx<'_>),
    ) {
        if slot.index() >= MAX_SLOT_INDEX {
            return; // timers for this slot could not be packed
        }
        let created = !self.slots.contains_key(&slot);
        if created {
            // Creation window (mirrors store_payload): slots below the
            // applied frontier are already decided (their instances, if
            // any, have been pruned), and a far-future index would let a
            // single Byzantine message allocate instances without bound.
            // Messages to existing in-retention instances still route.
            if slot.index() < self.applied || slot.index() > self.applied + PAYLOAD_WINDOW {
                return;
            }
            // Each slot instance gets its own `Verifier`: vote bundles,
            // timeout bundles, and re-proposed certificates inside one slot
            // amortize to cache hits without any cross-slot sharing.
            let inst = VbbFiveFMinusOne::new(
                self.config,
                self.signer.clone(),
                Verifier::new(Arc::clone(&self.pki)),
                accept_all(),
                self.big_delta,
                self.is_leader().then_some(proposal),
            )
            .with_caller_fallback();
            self.slots.insert(slot, inst);
        }
        let Some(inst) = self.slots.get_mut(&slot) else {
            return;
        };
        let mut sub = SubCtx {
            outer: ctx,
            slot,
            commits: Vec::new(),
            suspects: &self.suspects,
            unarmed: Vec::new(),
        };
        // Rotation: an unlocked view's leader gets a batch from the pool,
        // or the no-op; the batches are published after the interaction.
        let mut drained = Vec::new();
        let (mempool, batch_cap) = (&mut self.mempool, self.params.batch);
        let mut answer = |inst: &mut VbbFiveFMinusOne, sub: &mut SubCtx<'_>| {
            while inst.wants_proposal() {
                let batch = mempool.take_batch(batch_cap);
                inst.propose_unlocked(batch.as_ref().map_or(Value::NO_OP, batch_value), sub);
                drained.extend(batch);
            }
        };
        if created {
            Protocol::start(inst, &mut sub);
        }
        f(inst, &mut sub);
        answer(inst, &mut sub);
        // Rule 2 (skip): every view timer the interaction would have armed
        // for a suspected leader fires now instead, and the suspected
        // views directly behind it are forfeited in the same breath, so a
        // run of dead leaders costs one message delay. Firing may enter
        // (and skip) further views; a stale tag is a no-op in the instance.
        let mut fired = 0;
        while let Some(&tag) = sub.unarmed.get(fired) {
            fired += 1;
            self.skipped.insert((slot, tag));
            Protocol::on_timer(inst, tag, &mut sub);
            answer(inst, &mut sub);
            let mut next = View::new(tag).next();
            while sub.suspects_leader_of(next.number()) {
                self.skipped.insert((slot, next.number()));
                inst.forfeit(next, &mut sub);
                next = next.next();
            }
        }
        let decided = sub
            .commits
            .first()
            .map(|&value| (value, inst.commit_view()));
        if let Some((value, Some(view))) = decided {
            if let Entry::Vacant(first) = self.committed.entry(slot) {
                first.insert(value);
                self.judge(slot, value, view);
            }
        }
        for batch in drained {
            self.publish(slot, batch, ctx);
        }
        debug_assert!(self.slots.values().all(|inst| !inst.wants_proposal()));
    }

    /// What `slot` committing `value` on view `view`'s quorum says about
    /// the leaders (rules 4 and 1 of "Failover").
    fn judge(&mut self, slot: SlotId, value: Value, view: View) {
        let n = self.config.n();
        // Forgive: the leader of the committing view works.
        self.suspects.remove(&view.leader(n));
        // Learn: a real batch committed only after the views before it
        // were timed out — on timers this replica armed in full, so a view
        // it skipped is not evidence against its leader a second time, and
        // the leaders repeat after `n` views.
        if value.is_no_op() {
            return;
        }
        for past in 1..view.number().min(n as u64 + 1) {
            let leader = View::new(past).leader(n);
            if leader != self.me() && !self.skipped.contains(&(slot, past)) {
                let convicted = self.suspects.entry(leader).or_insert(slot);
                *convicted = (*convicted).max(slot);
            }
        }
    }

    /// Applies every batch decided at the frontier, in slot order. Stalls
    /// (and pulls) when a decided digest's payload is missing, and
    /// terminates by quiesce. Returns whether the frontier advanced.
    fn apply_ready(&mut self, ctx: &mut dyn Context<SmrMsg>) -> bool {
        let mut progressed = false;
        while !self.terminated {
            let slot = SlotId::new(self.applied);
            let Some(&decided) = self.committed.get(&slot) else {
                break;
            };
            let batch = if decided.is_no_op() {
                Batch::no_op()
            } else if let Some((_, b)) = self.payloads.get(&slot).and_then(|m| m.get(&decided)) {
                b.clone()
            } else {
                // Decided but the bytes never arrived: ask the peers, and
                // keep asking on a timer until they answer (a single pull
                // can race every holder's pruning horizon and be lost).
                if self.pulled.insert(slot) {
                    self.send_pull(slot, ctx);
                }
                break;
            };
            progressed = true;
            self.applied += 1;
            self.pulled.remove(&slot);
            let mine = self.my_proposals.remove(&slot).unwrap_or_default();
            // Prune everything behind the retention horizon — payloads,
            // the (committed, now inert) slot instances, and the decided
            // values — so long-running serving replicas stay bounded.
            let keep = SlotId::new(self.applied.saturating_sub(PAYLOAD_RETENTION));
            self.payloads = self.payloads.split_off(&keep);
            self.slots = self.slots.split_off(&keep);
            self.committed = self.committed.split_off(&keep);
            self.my_proposals = self.my_proposals.split_off(&keep);
            self.skipped = self.skipped.split_off(&(keep, 0));
            // Apply the decided batch through the exactly-once filter
            // (a command that already committed at an earlier slot — a
            // duplicate proposal from a crashed leader's era — must not
            // apply twice), then re-queue the commands of any proposal of
            // ours this slot's decision beat. Both steps are deterministic
            // functions of the applied log prefix.
            let mut acks: Vec<Value> = Vec::new();
            {
                let mut machine = self.machine.lock();
                for &cmd in batch.commands() {
                    if self.mempool.mark_committed(cmd, slot) {
                        machine.apply(slot, cmd);
                        acks.push(cmd);
                    }
                }
            }
            for beaten in mine {
                if batch_value(&beaten) != decided {
                    for &cmd in beaten.commands() {
                        self.mempool.readmit(cmd);
                    }
                }
            }
            self.commands_applied += acks.len() as u64;
            for cmd in acks {
                ctx.send(PartyId::CLIENT, SmrMsg::Ack { cmd, slot });
            }
            if batch.is_no_op() {
                self.trailing_noops += 1;
                if self.trailing_noops >= self.params.quiesce_after {
                    self.finish(ctx);
                }
            } else {
                self.trailing_noops = 0;
            }
        }
        progressed
    }

    /// Multicasts a [`SmrMsg::PayloadPull`] for `slot` and arms the retry
    /// timer that keeps re-asking until the payload shows up.
    fn send_pull(&mut self, slot: SlotId, ctx: &mut dyn Context<SmrMsg>) {
        ctx.multicast_except(SmrMsg::PayloadPull { slot }, self.me());
        if let Some(tag) = pack_slot_tag(slot, PULL_RETRY_TAG) {
            ctx.set_timer(self.big_delta * 4, tag);
        }
    }

    /// Pull-retry timer fired: if the slot is still stuck at (or past) the
    /// frontier with its payload missing, ask again; otherwise let the
    /// retry chain die.
    fn retry_pull(&mut self, slot: SlotId, ctx: &mut dyn Context<SmrMsg>) {
        if slot.index() < self.applied || !self.pulled.contains(&slot) {
            return; // applied in the meantime
        }
        let resolved = match self.committed.get(&slot) {
            Some(v) if v.is_no_op() => true,
            Some(v) => self.payloads.get(&slot).is_some_and(|m| m.contains_key(v)),
            None => true, // cannot happen: pulls are only sent for decided slots
        };
        if resolved {
            // The bytes arrived but an earlier slot is holding the
            // frontier back — nothing left to pull here.
            self.pulled.remove(&slot);
            return;
        }
        self.send_pull(slot, ctx);
    }

    /// Reports the log digest as this replica's commit (for Outcome-level
    /// agreement checking) and halts.
    fn finish(&mut self, ctx: &mut dyn Context<SmrMsg>) {
        if self.terminated {
            return;
        }
        self.terminated = true;
        ctx.commit(Value::new(self.machine.lock().state_digest()));
        ctx.terminate();
    }

    /// Keeps `pipeline` slots in flight past the applied frontier: the
    /// leader proposes drained batches; followers open watcher instances,
    /// arming their view timers — this is what closes the old "timers only
    /// for the first `pipeline` slots" liveness hole. Returns whether
    /// anything was proposed or armed.
    ///
    /// Followers arm per-slot, straight off the applied frontier: every
    /// slot in `[applied, applied + pipeline)` without an instance gets a
    /// watcher. There is deliberately no shared high-water mark — an
    /// out-of-window instance creation (or any remote message) cannot
    /// inflate a counter past the window and silence the arming loop.
    fn extend_frontier(&mut self, ctx: &mut dyn Context<SmrMsg>) -> bool {
        let mut progressed = false;
        let limit = (self.applied + self.params.pipeline as u64).min(MAX_SLOT_INDEX);
        if self.is_leader() {
            self.next_propose = self.next_propose.max(self.applied);
            while self.next_propose < limit && !self.terminated {
                let slot = SlotId::new(self.next_propose);
                if self.slots.contains_key(&slot) {
                    // Other parties' view change already opened this slot
                    // (our input there was the no-op): skip past it.
                    self.next_propose += 1;
                    continue;
                }
                let proposal = self.mempool.take_batch(self.params.batch);
                let Some(batch) = proposal else { break };
                self.propose(slot, batch, ctx);
                progressed = true;
            }
        } else {
            for index in self.applied..limit {
                let slot = SlotId::new(index);
                if !self.slots.contains_key(&slot) {
                    // Watcher instance: no input, view timer armed at start.
                    self.drive(slot, ctx, Value::NO_OP, |_, _| {});
                    progressed = true;
                }
            }
        }
        progressed
    }

    /// Leader: publish the batch, then start the slot's VBB instance with
    /// the batch digest as its input. The payload multicast goes out first
    /// so (under FIFO links) every replica holds the bytes before the
    /// digest can commit.
    fn propose(&mut self, slot: SlotId, batch: Batch, ctx: &mut dyn Context<SmrMsg>) {
        debug_assert!(
            !self.slots.contains_key(&slot),
            "proposing into an already-open slot would clobber its instance"
        );
        let value = self.publish(slot, batch, ctx);
        self.next_propose = self.next_propose.max(slot.index() + 1);
        self.drive(slot, ctx, value, |_, _| {});
    }

    /// Publishes `batch`, a non-empty batch this replica proposes at
    /// `slot`: stores it (its own batch is never refused), multicasts its
    /// bytes, and records it in `my_proposals` so that its commands are
    /// re-queued if the slot decides something else. Returns its value.
    fn publish(&mut self, slot: SlotId, batch: Batch, ctx: &mut dyn Context<SmrMsg>) -> Value {
        let (me, value) = (self.me(), batch_value(&batch));
        let held = self.payloads.entry(slot).or_default();
        held.insert(value, (me, batch.clone()));
        self.my_proposals
            .entry(slot)
            .or_default()
            .push(batch.clone());
        ctx.multicast(SmrMsg::Payload { slot, batch });
        value
    }

    /// The drive loop: apply decided batches, extend the in-flight window,
    /// repeat until neither makes progress (or the replica terminates).
    fn pump(&mut self, ctx: &mut dyn Context<SmrMsg>) {
        while !self.terminated {
            let applied_some = self.apply_ready(ctx);
            if self.terminated {
                break;
            }
            let extended = self.extend_frontier(ctx);
            if !applied_some && !extended {
                break;
            }
        }
        if let Some(probe) = &self.stats_probe {
            *probe.lock() = self.mempool.stats();
        }
    }

    /// Stores a batch `from` sent for `slot`, unless `from` already holds
    /// [`MAX_PAYLOADS_PER_SLOT`] of the slot's entries. The batch the slot
    /// committed is stored whoever sends it, so no peer can crowd it out.
    fn store_payload(&mut self, slot: SlotId, from: PartyId, batch: Batch) {
        if batch.is_no_op() || batch_is_outside_window(slot, self.applied) {
            return;
        }
        let value = batch_value(&batch);
        let decided = self.committed.get(&slot) == Some(&value);
        let held = self.payloads.entry(slot).or_default();
        let from_sender = held.values().filter(|(by, _)| *by == from).count();
        if decided || from_sender < MAX_PAYLOADS_PER_SLOT {
            held.entry(value).or_insert((from, batch));
        }
    }
}

/// Whether a payload for `slot` is too far outside the applied-frontier
/// window to be worth storing.
fn batch_is_outside_window(slot: SlotId, applied: u64) -> bool {
    slot.index() + PAYLOAD_RETENTION < applied || slot.index() > applied + PAYLOAD_WINDOW
}

/// A replica serving a finite workload, pre-admitted into the engine's own
/// pool: after every handled event, stops the engine once all `commands`
/// have been applied. Reads one counter; takes no lock.
struct Finite<S> {
    engine: SlotEngine<S>,
    commands: u64,
}

impl<S: StateMachine> Finite<S> {
    fn new(mut engine: SlotEngine<S>, workload: Vec<Value>) -> Self {
        let commands = workload.len() as u64;
        if workload.len() > engine.mempool.capacity() {
            engine.mempool = Mempool::new(workload.len());
        }
        for cmd in workload {
            // A fresh pool sized to the workload is never `Full` and has
            // nothing `Committed`: only a caller's own mistake — the
            // reserved encoding, a repeated command — can fail here.
            engine
                .mempool
                .submit(cmd)
                .expect("workload commands must be admissible");
        }
        Finite { engine, commands }
    }

    fn stop_when_applied(&mut self, ctx: &mut dyn Context<SmrMsg>) {
        if self.engine.commands_applied >= self.commands {
            self.engine.finish(ctx);
        }
    }
}

impl<S: StateMachine> Protocol for Finite<S> {
    type Msg = SmrMsg;

    fn start(&mut self, ctx: &mut dyn Context<SmrMsg>) {
        self.engine.start(ctx);
        self.stop_when_applied(ctx);
    }

    fn on_message(&mut self, from: PartyId, msg: SmrMsg, ctx: &mut dyn Context<SmrMsg>) {
        self.engine.on_message(from, msg, ctx);
        self.stop_when_applied(ctx);
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<SmrMsg>) {
        self.engine.on_timer(tag, ctx);
        self.stop_when_applied(ctx);
    }
}

impl<S: StateMachine> Protocol for SlotEngine<S> {
    type Msg = SmrMsg;

    fn start(&mut self, ctx: &mut dyn Context<SmrMsg>) {
        self.pump(ctx);
    }

    fn on_message(&mut self, from: PartyId, msg: SmrMsg, ctx: &mut dyn Context<SmrMsg>) {
        if self.terminated {
            return;
        }
        match msg {
            SmrMsg::Slot { slot, inner } => {
                // Rule 4 (forgive): a suspect speaking in a slot that opened
                // a full window after its conviction outlived that slot.
                if let Some(convicted) = self.suspects.get(&from) {
                    if slot.index() >= convicted.index() + self.params.pipeline as u64 {
                        self.suspects.remove(&from);
                    }
                }
                self.drive(slot, ctx, Value::NO_OP, |inst, sub| {
                    Protocol::on_message(inst, from, inner, sub);
                });
                self.pump(ctx);
            }
            SmrMsg::Payload { slot, batch } => {
                self.store_payload(slot, from, batch);
                self.pump(ctx);
            }
            SmrMsg::PayloadPull { slot } => {
                // The puller committed the slot. A replica that has too
                // sends that batch only; one that has not cannot tell which
                // batch it is and sends what it holds, at most
                // `MAX_PAYLOADS_PER_SLOT` of them, so no answer grows with n.
                let decided = self.committed.get(&slot);
                let answer: Vec<Batch> = (self.payloads.get(&slot).into_iter().flatten())
                    .filter(|(value, _)| decided.is_none_or(|d| d == *value))
                    .take(MAX_PAYLOADS_PER_SLOT)
                    .map(|(_, (_, batch))| batch.clone())
                    .collect();
                for batch in answer {
                    ctx.send(from, SmrMsg::Payload { slot, batch });
                }
            }
            SmrMsg::Submit { cmd } => {
                // Every replica admits client traffic (not just the view-1
                // leader): a failover leader must hold the command in its
                // own pool to re-propose it.
                match self.mempool.submit(cmd) {
                    // Committed by the original submission: re-acknowledge
                    // with the recorded slot so a client whose ack was
                    // lost can still retire the command.
                    Err(AdmissionError::Committed(slot)) => {
                        ctx.send(PartyId::CLIENT, SmrMsg::Ack { cmd, slot });
                    }
                    // Back-pressure: tell the client to retry later.
                    Err(AdmissionError::Full | AdmissionError::Reserved) => {
                        ctx.send(PartyId::CLIENT, SmrMsg::Reject { cmd });
                    }
                    // Pending duplicate: the in-flight copy will ack.
                    Err(AdmissionError::Pending) | Ok(()) => {}
                }
                self.pump(ctx);
            }
            // Acks and rejects are client-addressed; a replica receiving
            // one (only a Byzantine peer would send it here) ignores it.
            SmrMsg::Ack { .. } | SmrMsg::Reject { .. } => {}
        }
    }

    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<SmrMsg>) {
        if self.terminated {
            return;
        }
        let (slot, inner_tag) = unpack_slot_tag(tag);
        if inner_tag == PULL_RETRY_TAG {
            self.retry_pull(slot, ctx);
            return;
        }
        self.drive(slot, ctx, Value::NO_OP, |inst, sub| {
            Protocol::on_timer(inst, inner_tag, sub);
        });
        self.pump(ctx);
    }
}

impl<S> std::fmt::Debug for SlotEngine<S> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SlotEngine")
            .field("me", &self.signer.id())
            .field("slots", &self.slots.len())
            .field("applied", &self.applied)
            .field("pending", &self.mempool.pending())
            .finish()
    }
}

/// Context adapter: wraps/unwraps slot tags around the inner protocol's
/// view of the world.
struct SubCtx<'a> {
    outer: &'a mut dyn Context<SmrMsg>,
    slot: SlotId,
    commits: Vec<Value>,
    /// The replica's suspected leaders (see [`SlotEngine`], "Failover").
    suspects: &'a BTreeMap<PartyId, SlotId>,
    /// View timers the instance asked for and did not get, in order:
    /// [`SlotEngine::drive`] fires them right after the interaction.
    unarmed: Vec<u64>,
}

impl SubCtx<'_> {
    /// Rule 3 (stay live): whether `view`'s timer is skipped — its leader
    /// is suspected *and* the slot is still in its first round-robin cycle.
    /// From view `n + 1` on every leader gets its full timer again.
    fn suspects_leader_of(&self, view: u64) -> bool {
        let n = self.outer.config().n();
        view <= n as u64 && self.suspects.contains_key(&View::new(view).leader(n))
    }
}

impl Context<VbbMsg> for SubCtx<'_> {
    fn me(&self) -> PartyId {
        self.outer.me()
    }
    fn config(&self) -> Config {
        self.outer.config()
    }
    fn now(&self) -> LocalTime {
        self.outer.now()
    }
    fn send(&mut self, to: PartyId, msg: VbbMsg) {
        self.outer.send(
            to,
            SmrMsg::Slot {
                slot: self.slot,
                inner: msg,
            },
        );
    }
    // Forward multicasts as multicasts (not n sends) so slot-tagged
    // signature messages ride the runtime's shared-payload fast path.
    fn multicast(&mut self, msg: VbbMsg) {
        self.outer.multicast(SmrMsg::Slot {
            slot: self.slot,
            inner: msg,
        });
    }
    fn multicast_except(&mut self, msg: VbbMsg, skip: PartyId) {
        self.outer.multicast_except(
            SmrMsg::Slot {
                slot: self.slot,
                inner: msg,
            },
            skip,
        );
    }
    fn set_timer(&mut self, delay: Duration, tag: u64) {
        // The instance's timer tags are view numbers.
        if self.suspects_leader_of(tag) {
            self.unarmed.push(tag);
            return;
        }
        // Checked packing: an out-of-range pair would alias another slot's
        // timers — and the top inner tag is reserved for the engine's own
        // pull-retry timer — so both are rejected (debug builds flag it
        // loudly; release builds drop the timer, which at worst delays a
        // view change).
        match pack_slot_tag(self.slot, tag) {
            Some(packed) if tag != PULL_RETRY_TAG => self.outer.set_timer(delay, packed),
            _ => debug_assert!(
                false,
                "unpackable timer tag: slot {} inner {tag}",
                self.slot.index()
            ),
        }
    }
    fn commit(&mut self, value: Value) {
        self.commits.push(value);
    }
    fn terminate(&mut self) {
        // A slot instance terminating does not terminate the replica.
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::{Counter, KvStore};
    use gcl_core::psync::TimeoutMsg;
    use gcl_crypto::Keychain;
    use gcl_sim::{
        Crashing, DelayRule, FixedDelay, LinkDelay, Outcome, PartySet, ScheduleOracle, Scripted,
        ScriptedAction, Simulation, TimingModel,
    };
    use gcl_types::{Decode, GlobalTime, WireError};

    const DELTA: Duration = Duration::from_micros(100);

    fn params(batch: usize, pipeline: usize) -> SmrParams {
        SmrParams {
            batch,
            pipeline,
            ..SmrParams::default()
        }
    }

    fn run_counter(
        n: usize,
        f: usize,
        commands: u64,
        p: SmrParams,
    ) -> (Outcome, Vec<Arc<Mutex<Counter>>>) {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 130);
        let workload: Vec<Value> = (1..=commands).map(Value::new).collect();
        let machines: Vec<Arc<Mutex<Counter>>> = (0..n)
            .map(|_| Arc::new(Mutex::new(Counter::default())))
            .collect();
        let ms = machines.clone();
        let o = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst: GlobalTime::ZERO,
                big_delta: DELTA,
            })
            .oracle(FixedDelay::new(DELTA))
            .spawn_honest(move |q| {
                SlotEngine::new(
                    cfg,
                    chain.signer(q),
                    chain.pki(),
                    DELTA,
                    p,
                    ms[q.as_usize()].clone(),
                )
                .with_workload(workload.clone())
            })
            .run();
        (o, machines)
    }

    #[test]
    fn replicates_a_counter_log() {
        let (o, machines) = run_counter(4, 1, 10, params(2, 3));
        assert!(o.agreement_holds(), "log digests agree");
        assert!(o.all_honest_committed());
        for m in &machines {
            assert_eq!(m.lock().total(), (1..=10).sum::<u64>());
            assert_eq!(m.lock().applied(), 10);
        }
    }

    #[test]
    fn batching_amortizes_slots() {
        let (unbatched, _) = run_counter(4, 1, 32, params(1, 4));
        let (batched, m) = run_counter(4, 1, 32, params(8, 4));
        assert!(
            batched.end_time() < unbatched.end_time(),
            "batch 8 ({}) should beat batch 1 ({})",
            batched.end_time(),
            unbatched.end_time()
        );
        assert_eq!(m[0].lock().applied(), 32, "batching loses no commands");
    }

    #[test]
    fn pipelining_reduces_wall_time() {
        let (serial, _) = run_counter(4, 1, 8, params(1, 1));
        let (piped, _) = run_counter(4, 1, 8, params(1, 4));
        assert!(
            piped.end_time() < serial.end_time(),
            "pipeline 4 ({}) should beat pipeline 1 ({})",
            piped.end_time(),
            serial.end_time()
        );
    }

    #[test]
    fn per_slot_latency_is_two_rounds() {
        // Serial slots, one command each: every decision is one good-case
        // broadcast (2Δ), and the replica stops once the last one applies.
        let slots = 8u64;
        let (o, _) = run_counter(4, 1, slots, params(1, 1));
        assert!(o.all_honest_committed());
        let bound = DELTA * 2 * (slots + 1);
        assert!(
            o.end_time().since(GlobalTime::ZERO) <= bound,
            "{} exceeds ~2 rounds per slot ({bound})",
            o.end_time()
        );
    }

    #[test]
    fn old_magic_filler_replicates_as_a_command() {
        // `u64::MAX - 1` was the old in-band no-op filler; it must now be
        // an ordinary command that survives replication.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 134);
        let workload = vec![Value::new(u64::MAX - 1)];
        let machines: Vec<Arc<Mutex<Counter>>> = (0..4)
            .map(|_| Arc::new(Mutex::new(Counter::default())))
            .collect();
        let ms = machines.clone();
        let o = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst: GlobalTime::ZERO,
                big_delta: DELTA,
            })
            .oracle(FixedDelay::new(DELTA))
            .spawn_honest(move |p| {
                SlotEngine::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    DELTA,
                    params(4, 2),
                    ms[p.as_usize()].clone(),
                )
                .with_workload(workload.clone())
            })
            .run();
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed());
        for m in &machines {
            assert_eq!(m.lock().applied(), 1);
            assert_eq!(m.lock().total(), u64::MAX - 1);
        }
    }

    #[test]
    #[should_panic(expected = "admissible")]
    fn reserved_no_op_workload_rejected() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 1);
        let _ = SlotEngine::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            DELTA,
            SmrParams::default(),
            Arc::new(Mutex::new(Counter::default())),
        )
        .with_workload(vec![Value::NO_OP]);
    }

    #[test]
    fn leader_crash_mid_log_followers_quiesce_and_agree() {
        // The follower timer-arming regression: the leader proposes the
        // head of the log honestly, then crashes. Followers must keep
        // arming view timers past the first `pipeline` slots, fill the
        // leader's silence with no-ops, and terminate by quiesce — on the
        // pre-fix engine they wait forever and never commit.
        let n = 4;
        let cfg = Config::new(n, 1).unwrap();
        let chain = Keychain::generate(n, 132);
        let workload: Vec<Value> = (1..=20).map(Value::new).collect();
        let machines: Vec<Arc<Mutex<Counter>>> = (0..n)
            .map(|_| Arc::new(Mutex::new(Counter::default())))
            .collect();
        let p = params(1, 2);
        let leader = SlotEngine::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            DELTA,
            p,
            machines[0].clone(),
        )
        .with_workload(workload.clone());
        let ms = machines.clone();
        let o = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst: GlobalTime::ZERO,
                big_delta: DELTA,
            })
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(0), Crashing::new(leader, 12))
            .spawn_honest(move |q| {
                SlotEngine::new(
                    cfg,
                    chain.signer(q),
                    chain.pki(),
                    DELTA,
                    p,
                    ms[q.as_usize()].clone(),
                )
            })
            .run();
        assert!(o.agreement_holds(), "followers agree on the log digest");
        assert!(
            o.all_honest_committed(),
            "every follower must terminate via quiesce despite the dead leader"
        );
        assert!(o.all_honest_terminated());
        let applied = machines[1].lock().applied();
        assert!(applied >= 1, "the pre-crash head of the log must survive");
        for m in &machines[2..] {
            assert_eq!(m.lock().applied(), applied);
            assert_eq!(
                m.lock().state_digest(),
                machines[1].lock().state_digest(),
                "followers applied identical prefixes"
            );
        }
    }

    #[test]
    fn idle_open_log_quiesces() {
        // No workload and zero traffic: followers time the leader out
        // slot after slot until the quiesce rule stops everyone, with
        // identical (empty) logs.
        let n = 4;
        let cfg = Config::new(n, 1).unwrap();
        let chain = Keychain::generate(n, 135);
        let o = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst: GlobalTime::ZERO,
                big_delta: DELTA,
            })
            .oracle(FixedDelay::new(DELTA))
            .spawn_honest(move |p| {
                SlotEngine::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    DELTA,
                    SmrParams::default(),
                    Arc::new(Mutex::new(Counter::default())),
                )
            })
            .run();
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed());
        assert!(o.all_honest_terminated());
    }

    #[test]
    fn kv_replicas_converge() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 131);
        let workload: Vec<Value> = (0..6).map(|i| KvStore::set(i % 3, 100 + i)).collect();
        let machines: Vec<Arc<Mutex<KvStore>>> = (0..4)
            .map(|_| Arc::new(Mutex::new(KvStore::default())))
            .collect();
        let ms = machines.clone();
        let o = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst: GlobalTime::ZERO,
                big_delta: DELTA,
            })
            .oracle(FixedDelay::new(DELTA))
            .spawn_honest(move |p| {
                SlotEngine::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    DELTA,
                    params(2, 2),
                    ms[p.as_usize()].clone(),
                )
                .with_workload(workload.clone())
            })
            .run();
        assert!(o.agreement_holds());
        let d0 = machines[0].lock().state_digest();
        for m in &machines[1..] {
            assert_eq!(m.lock().state_digest(), d0);
        }
        assert_eq!(machines[0].lock().get(0), Some(103));
        assert_eq!(machines[0].lock().get(1), Some(104));
        assert_eq!(machines[0].lock().get(2), Some(105));
    }

    #[test]
    fn empty_workload_stops_immediately() {
        let (o, machines) = run_counter(4, 1, 0, params(4, 2));
        assert!(o.all_honest_committed());
        assert!(o.all_honest_terminated());
        assert_eq!(machines[0].lock().applied(), 0);
    }

    #[test]
    #[should_panic(expected = "pipeline depth")]
    fn zero_pipeline_rejected() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 1);
        let _ = SlotEngine::new(
            cfg,
            chain.signer(PartyId::new(0)),
            chain.pki(),
            DELTA,
            params(4, 0),
            Arc::new(Mutex::new(Counter::default())),
        );
    }

    #[test]
    fn slot_tag_packing_boundaries() {
        // In-range pairs round-trip; the documented aliasing boundaries
        // (inner tag ≥ 2^40, slot index ≥ 2^24) are rejected instead of
        // silently colliding with another slot's timers.
        let slot = SlotId::new(77);
        let tag = pack_slot_tag(slot, MAX_INNER_TAG - 1).unwrap();
        assert_eq!(unpack_slot_tag(tag), (slot, MAX_INNER_TAG - 1));
        let top_slot = SlotId::new(MAX_SLOT_INDEX - 1);
        let tag = pack_slot_tag(top_slot, 3).unwrap();
        assert_eq!(unpack_slot_tag(tag), (top_slot, 3));
        assert_eq!(pack_slot_tag(slot, MAX_INNER_TAG), None);
        assert_eq!(pack_slot_tag(SlotId::new(MAX_SLOT_INDEX), 0), None);
        assert_eq!(
            pack_slot_tag(SlotId::new(MAX_SLOT_INDEX), MAX_INNER_TAG),
            None
        );
        // The old unchecked packing aliased this pair onto (slot+1, 0):
        let aliased = SlotId::new(1);
        assert_ne!(
            pack_slot_tag(aliased, MAX_INNER_TAG - 1).unwrap(),
            pack_slot_tag(SlotId::new(2), 0).unwrap()
        );
    }

    #[test]
    fn batch_values_never_alias_no_op() {
        assert_eq!(batch_value(&Batch::no_op()), Value::NO_OP);
        let cases = [
            Batch::Commands(vec![Value::new(u64::MAX - 1)]),
            Batch::Commands((0..64).map(Value::new).collect()),
        ];
        for b in cases {
            let v = batch_value(&b);
            assert!(!v.is_no_op(), "{b} digests to the reserved no-op");
        }
    }

    /// A bare-bones recording context for driving handlers directly.
    struct RecordingCtx {
        me: PartyId,
        config: Config,
        sent: Vec<(PartyId, SmrMsg)>,
        multicast: Vec<SmrMsg>,
        timers: Vec<(Duration, u64)>,
        committed: Vec<Value>,
        terminated: bool,
    }

    impl RecordingCtx {
        fn new(me: PartyId, config: Config) -> Self {
            RecordingCtx {
                me,
                config,
                sent: Vec::new(),
                multicast: Vec::new(),
                timers: Vec::new(),
                committed: Vec::new(),
                terminated: false,
            }
        }

        fn pulls_for(&self, slot: SlotId) -> usize {
            self.multicast
                .iter()
                .filter(|m| matches!(m, SmrMsg::PayloadPull { slot: s } if *s == slot))
                .count()
        }
    }

    impl Context<SmrMsg> for RecordingCtx {
        fn me(&self) -> PartyId {
            self.me
        }
        fn config(&self) -> Config {
            self.config
        }
        fn now(&self) -> LocalTime {
            LocalTime::ZERO
        }
        fn send(&mut self, to: PartyId, msg: SmrMsg) {
            self.sent.push((to, msg));
        }
        fn multicast(&mut self, msg: SmrMsg) {
            self.multicast.push(msg);
        }
        fn multicast_except(&mut self, msg: SmrMsg, _skip: PartyId) {
            self.multicast.push(msg);
        }
        fn set_timer(&mut self, delay: Duration, tag: u64) {
            self.timers.push((delay, tag));
        }
        fn commit(&mut self, value: Value) {
            self.committed.push(value);
        }
        fn terminate(&mut self) {
            self.terminated = true;
        }
    }

    #[test]
    fn missing_payload_is_pulled_then_applied() {
        // A replica that learns a slot's decision before its bytes must
        // stall, pull, and resume once a peer serves the payload.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 133);
        let machine = Arc::new(Mutex::new(Counter::default()));
        let mut eng = SlotEngine::new(
            cfg,
            chain.signer(PartyId::new(1)),
            chain.pki(),
            DELTA,
            SmrParams::default(),
            machine.clone(),
        );
        let batch = Batch::Commands(vec![Value::new(7), Value::new(9)]);
        eng.committed.insert(SlotId::FIRST, batch_value(&batch));
        let mut ctx = RecordingCtx::new(PartyId::new(1), cfg);
        eng.pump(&mut ctx);
        assert_eq!(eng.applied, 0, "cannot apply without the payload");
        assert!(
            ctx.multicast
                .iter()
                .any(|m| matches!(m, SmrMsg::PayloadPull { slot } if *slot == SlotId::FIRST)),
            "a pull must go out for the missing payload"
        );
        Protocol::on_message(
            &mut eng,
            PartyId::new(2),
            SmrMsg::Payload {
                slot: SlotId::FIRST,
                batch,
            },
            &mut ctx,
        );
        assert_eq!(eng.applied, 1, "payload arrival unblocks the frontier");
        assert_eq!(machine.lock().applied(), 2);
        assert_eq!(machine.lock().total(), 16);
    }

    #[test]
    fn payload_pull_retries_until_answered() {
        // A single pull can be lost (or arrive after every holder pruned
        // the slot); the pull must re-arm on a timer, not fire once.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 140);
        let mut eng = SlotEngine::new(
            cfg,
            chain.signer(PartyId::new(1)),
            chain.pki(),
            DELTA,
            SmrParams::default(),
            Arc::new(Mutex::new(Counter::default())),
        );
        let batch = Batch::Commands(vec![Value::new(3)]);
        eng.committed.insert(SlotId::FIRST, batch_value(&batch));
        let mut ctx = RecordingCtx::new(PartyId::new(1), cfg);
        eng.pump(&mut ctx);
        let retry_tag = pack_slot_tag(SlotId::FIRST, PULL_RETRY_TAG).unwrap();
        assert_eq!(ctx.pulls_for(SlotId::FIRST), 1);
        assert!(
            ctx.timers.iter().any(|(_, t)| *t == retry_tag),
            "the first pull must arm a retry timer"
        );
        // Still missing when the timer fires: pull again, re-arm.
        Protocol::on_timer(&mut eng, retry_tag, &mut ctx);
        assert_eq!(ctx.pulls_for(SlotId::FIRST), 2, "unanswered pull retries");
        assert_eq!(
            ctx.timers.iter().filter(|(_, t)| *t == retry_tag).count(),
            2,
            "the retry re-arms itself"
        );
        // Payload arrives, the slot applies; a stale retry firing later
        // must not pull again.
        Protocol::on_message(
            &mut eng,
            PartyId::new(2),
            SmrMsg::Payload {
                slot: SlotId::FIRST,
                batch,
            },
            &mut ctx,
        );
        assert_eq!(eng.applied, 1);
        Protocol::on_timer(&mut eng, retry_tag, &mut ctx);
        assert_eq!(ctx.pulls_for(SlotId::FIRST), 2, "stale retry is a no-op");
    }

    #[test]
    fn blocked_but_resolved_pull_stops_retrying() {
        // Slot 1's payload arrived while slot 0 still blocks the frontier:
        // the retry chain for slot 1 must die instead of re-pulling bytes
        // the replica already holds.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 141);
        let mut eng = SlotEngine::new(
            cfg,
            chain.signer(PartyId::new(1)),
            chain.pki(),
            DELTA,
            SmrParams::default(),
            Arc::new(Mutex::new(Counter::default())),
        );
        let batch = Batch::Commands(vec![Value::new(8)]);
        let slot = SlotId::new(1);
        eng.committed.insert(slot, batch_value(&batch));
        eng.pulled.insert(slot);
        eng.store_payload(slot, PartyId::new(2), batch);
        let mut ctx = RecordingCtx::new(PartyId::new(1), cfg);
        let retry_tag = pack_slot_tag(slot, PULL_RETRY_TAG).unwrap();
        Protocol::on_timer(&mut eng, retry_tag, &mut ctx);
        assert_eq!(ctx.pulls_for(slot), 0, "resolved pull must not re-fire");
        assert!(!eng.pulled.contains(&slot));
    }

    #[test]
    fn out_of_window_slot_messages_create_no_instances() {
        // One Byzantine message naming a far-future slot used to bump the
        // shared `opened` high-water mark past applied + pipeline, killing
        // follower timer arming and leader proposing forever (and letting
        // the attacker allocate instances without bound).
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 142);
        let mut eng = SlotEngine::new(
            cfg,
            chain.signer(PartyId::new(1)),
            chain.pki(),
            DELTA,
            SmrParams::default(),
            Arc::new(Mutex::new(Counter::default())),
        );
        let mut ctx = RecordingCtx::new(PartyId::new(1), cfg);
        Protocol::start(&mut eng, &mut ctx);
        let baseline = eng.slots.len();
        assert_eq!(
            baseline,
            SmrParams::default().pipeline,
            "follower watchers cover the frontier window at start"
        );
        let attack = |index: u64| SmrMsg::Slot {
            slot: SlotId::new(index),
            inner: VbbMsg::Timeout(TimeoutMsg::bot(&chain.signer(PartyId::new(3)), View::FIRST)),
        };
        Protocol::on_message(
            &mut eng,
            PartyId::new(3),
            attack(PAYLOAD_WINDOW + 1),
            &mut ctx,
        );
        Protocol::on_message(
            &mut eng,
            PartyId::new(3),
            attack(MAX_SLOT_INDEX - 1),
            &mut ctx,
        );
        assert_eq!(eng.slots.len(), baseline, "out-of-window slots rejected");
        // In-window slots still accept remote-driven instance creation.
        Protocol::on_message(&mut eng, PartyId::new(3), attack(PAYLOAD_WINDOW), &mut ctx);
        assert_eq!(eng.slots.len(), baseline + 1);
        // The frontier watchers survive: every slot within pipeline of the
        // applied frontier keeps an armed instance.
        for i in 0..SmrParams::default().pipeline as u64 {
            assert!(eng.slots.contains_key(&SlotId::new(i)));
        }
    }

    #[test]
    fn far_future_slot_attack_does_not_stall_the_log() {
        // End-to-end regression for the frontier-stall attack: a Byzantine
        // party names slot 500 000 early in the run. Pre-fix, every honest
        // replica inflates `opened` past applied + pipeline, the leader
        // stops proposing, followers stop arming view timers, and the log
        // freezes with nothing committed. Post-fix the message is dropped
        // and the full workload replicates.
        let n = 4;
        let cfg = Config::new(n, 1).unwrap();
        let chain = Keychain::generate(n, 143);
        let workload: Vec<Value> = (1..=20).map(Value::new).collect();
        let machines: Vec<Arc<Mutex<Counter>>> = (0..n)
            .map(|_| Arc::new(Mutex::new(Counter::default())))
            .collect();
        let p = params(2, 2);
        let attack = SmrMsg::Slot {
            slot: SlotId::new(500_000),
            inner: VbbMsg::Timeout(TimeoutMsg::bot(&chain.signer(PartyId::new(3)), View::FIRST)),
        };
        let honest: Vec<PartyId> = (0..3).map(PartyId::new).collect();
        let script = Scripted::multicast_at(LocalTime::from_micros(1), &honest, attack);
        let ms = machines.clone();
        let o = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst: GlobalTime::ZERO,
                big_delta: DELTA,
            })
            .oracle(FixedDelay::new(DELTA))
            .byzantine(PartyId::new(3), script)
            .spawn_honest(move |q| {
                SlotEngine::new(
                    cfg,
                    chain.signer(q),
                    chain.pki(),
                    DELTA,
                    p,
                    ms[q.as_usize()].clone(),
                )
                .with_workload(workload.clone())
            })
            .run();
        assert!(o.agreement_holds());
        assert!(
            o.all_honest_committed(),
            "a far-future slot name must not freeze the applied frontier"
        );
        assert!(o.all_honest_terminated());
        for m in &machines[..3] {
            assert_eq!(m.lock().applied(), 20, "the whole workload replicates");
            assert_eq!(m.lock().total(), (1..=20).sum::<u64>());
        }
    }

    #[test]
    fn state_is_pruned_behind_the_retention_horizon() {
        // Serving replicas run indefinitely: instances, decided values and
        // payloads behind the retention horizon must be dropped, not kept
        // for the lifetime of the log.
        let total = PAYLOAD_RETENTION * 3;
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 144);
        let p = SmrParams {
            quiesce_after: total + 1,
            ..SmrParams::default()
        };
        let mut eng = SlotEngine::new(
            cfg,
            chain.signer(PartyId::new(1)),
            chain.pki(),
            DELTA,
            p,
            Arc::new(Mutex::new(Counter::default())),
        );
        let mut ctx = RecordingCtx::new(PartyId::new(1), cfg);
        // A suspected primary, so every slot also leaves a skipped-view record.
        eng.suspects.insert(PartyId::new(0), SlotId::FIRST);
        for i in 0..total {
            let slot = SlotId::new(i);
            eng.drive(slot, &mut ctx, Value::NO_OP, |_, _| {});
            eng.committed.insert(slot, Value::NO_OP);
        }
        assert_eq!(eng.slots.len() as u64, total);
        assert_eq!(eng.skipped.len() as u64, total);
        eng.pump(&mut ctx);
        assert_eq!(eng.applied, total);
        assert!(!eng.terminated, "quiesce_after is above the no-op run");
        let bound = (PAYLOAD_RETENTION as usize) + p.pipeline;
        assert!(
            eng.slots.len() <= bound,
            "instances must be pruned: {} > {bound}",
            eng.slots.len()
        );
        assert!(
            eng.committed.len() <= bound,
            "decided values must be pruned: {} > {bound}",
            eng.committed.len()
        );
        assert!(eng.payloads.len() <= bound);
        assert!(
            eng.skipped.len() <= bound,
            "skipped-view records must be pruned: {} > {bound}",
            eng.skipped.len()
        );
    }

    #[test]
    fn payload_pull_is_served_from_storage() {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 136);
        let mut eng = SlotEngine::new(
            cfg,
            chain.signer(PartyId::new(2)),
            chain.pki(),
            DELTA,
            SmrParams::default(),
            Arc::new(Mutex::new(Counter::default())),
        );
        let mut ctx = RecordingCtx::new(PartyId::new(2), cfg);
        let batch = Batch::Commands(vec![Value::new(5)]);
        Protocol::on_message(
            &mut eng,
            PartyId::new(0),
            SmrMsg::Payload {
                slot: SlotId::new(1),
                batch: batch.clone(),
            },
            &mut ctx,
        );
        Protocol::on_message(
            &mut eng,
            PartyId::new(3),
            SmrMsg::PayloadPull {
                slot: SlotId::new(1),
            },
            &mut ctx,
        );
        assert!(
            ctx.sent.iter().any(|(to, m)| *to == PartyId::new(3)
                && matches!(m, SmrMsg::Payload { slot, batch: b } if slot.index() == 1 && *b == batch)),
            "stored payloads are re-served to the puller"
        );
    }

    #[test]
    fn smr_msg_round_trips() {
        let msgs = [
            SmrMsg::Payload {
                slot: SlotId::new(3),
                batch: Batch::Commands(vec![Value::new(1), Value::new(2)]),
            },
            SmrMsg::PayloadPull {
                slot: SlotId::new(9),
            },
            SmrMsg::Submit {
                cmd: Value::new(42),
            },
            SmrMsg::Ack {
                cmd: Value::new(42),
                slot: SlotId::new(17),
            },
            SmrMsg::Reject {
                cmd: Value::new(43),
            },
        ];
        for m in msgs {
            let bytes = m.to_wire();
            assert_eq!(SmrMsg::from_wire(&bytes).unwrap(), m);
        }
        assert!(matches!(
            SmrMsg::from_wire(&[99]),
            Err(WireError::BadTag { ty: "SmrMsg", .. })
        ));
    }

    /// Runs a closed counter workload where every party holds the full
    /// command queue (the registered closed-family shape) and the given
    /// crash schedule is applied; returns the outcome and machines.
    fn run_with_crashes(
        n: usize,
        f: usize,
        commands: u64,
        p: SmrParams,
        seed: u64,
        crashes: &[(u32, usize)], // (party, handled events before crash)
    ) -> (Outcome, Vec<Arc<Mutex<Counter>>>) {
        run_with_crashes_over(DELTA, n, f, commands, p, seed, crashes)
    }

    /// [`run_with_crashes`] over links of delay `hop` (Δ stays [`DELTA`]).
    fn run_with_crashes_over(
        hop: Duration,
        n: usize,
        f: usize,
        commands: u64,
        p: SmrParams,
        seed: u64,
        crashes: &[(u32, usize)],
    ) -> (Outcome, Vec<Arc<Mutex<Counter>>>) {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, seed);
        let workload: Vec<Value> = (1..=commands).map(Value::new).collect();
        let machines: Vec<Arc<Mutex<Counter>>> = (0..n)
            .map(|_| Arc::new(Mutex::new(Counter::default())))
            .collect();
        let ms = machines.clone();
        let mut build = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst: GlobalTime::ZERO,
                big_delta: DELTA,
            })
            .oracle(FixedDelay::new(hop));
        for &(party, handled) in crashes {
            let replica = SlotEngine::new(
                cfg,
                chain.signer(PartyId::new(party)),
                chain.pki(),
                DELTA,
                p,
                machines[party as usize].clone(),
            )
            .with_workload(workload.clone());
            build = build.byzantine(PartyId::new(party), Crashing::new(replica, handled));
        }
        let chain2 = chain.clone();
        let wl = workload.clone();
        let o = build
            .spawn_honest(move |q| {
                SlotEngine::new(
                    cfg,
                    chain2.signer(q),
                    chain2.pki(),
                    DELTA,
                    p,
                    ms[q.as_usize()].clone(),
                )
                .with_workload(wl.clone())
            })
            .run();
        (o, machines)
    }

    #[test]
    fn rotation_completes_the_workload_after_leader_crash() {
        // The robustness tentpole, end to end: the view-1 leader proposes
        // the head of the log and crashes. Pre-rotation, every remaining
        // slot fell back to a no-op and the tail of the workload was lost
        // to quiesce; with rotation the next view's leader re-proposes
        // from its own pool and the FULL workload replicates exactly once.
        let commands = 20;
        let (o, machines) = run_with_crashes(4, 1, commands, params(2, 2), 150, &[(0, 12)]);
        assert!(o.agreement_holds(), "honest replicas agree on the digest");
        assert!(
            o.all_honest_committed(),
            "the log must terminate despite the dead leader"
        );
        for m in &machines[1..] {
            assert_eq!(
                m.lock().applied(),
                commands,
                "rotation must recover the crashed leader's tail"
            );
            assert_eq!(m.lock().total(), (1..=commands).sum::<u64>());
        }
    }

    #[test]
    fn admitted_commands_apply_exactly_once_across_arbitrary_crashes() {
        // Property: whatever the leader-crash schedule (including two
        // successive leaders at n = 9, f = 2), every admitted command
        // applies exactly once, in some order — the counter state machine
        // records per-command apply counts, so a duplicate apply or a
        // lost command both show up as a wrong (total, applied) pair.
        let mut rng = 0x00dd_5eed_u64;
        let mut next = move || {
            rng = rng
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            rng >> 33
        };
        for case in 0..24u64 {
            let commands = 8 + next() % 10;
            let two_crashes = case % 2 == 1;
            let (n, f) = if two_crashes { (9, 2) } else { (4, 1) };
            let crashes: Vec<(u32, usize)> = if two_crashes {
                vec![
                    (0, (6 + next() % 30) as usize),
                    (1, (30 + next() % 60) as usize),
                ]
            } else {
                vec![(0, (6 + next() % 40) as usize)]
            };
            let p = params(1 + (next() % 4) as usize, 1 + (next() % 3) as usize);
            let (o, machines) = run_with_crashes(n, f, commands, p, 160 + case, &crashes);
            assert!(o.agreement_holds(), "case {case}: digests agree");
            assert!(o.all_honest_committed(), "case {case}: run terminates");
            let expected_total = (1..=commands).sum::<u64>();
            for (q, m) in machines.iter().enumerate().skip(crashes.len()) {
                let m = m.lock();
                assert_eq!(
                    m.applied(),
                    commands,
                    "case {case}: replica {q} lost or duplicated a command"
                );
                assert_eq!(
                    m.total(),
                    expected_total,
                    "case {case}: replica {q} applied a command twice"
                );
            }
        }
    }
    #[test]
    fn second_leader_crashing_at_the_hand_off_loses_nothing() {
        // Every crash budget of the second leader in a contiguous range
        // around the first view change. With the primary dead after 8
        // events, party 1 is handed view 2 of slot 2 in its 48th handled
        // event and of slot 3 in its 55th, so the range kills it just
        // before a hand-off, in the very event after one, and between its
        // status quorum, its proposal and the votes for it.
        let commands = 12;
        for budget in 40..=64 {
            let crashes = [(0, 8), (1, budget)];
            let (o, machines) = run_with_crashes(9, 2, commands, params(2, 2), 180, &crashes);
            assert!(o.agreement_holds(), "budget {budget}: digests agree");
            assert!(o.all_honest_committed(), "budget {budget}: run terminates");
            for m in &machines[2..] {
                let m = m.lock();
                assert_eq!(
                    (m.applied(), m.total()),
                    (commands, (1..=commands).sum()),
                    "budget {budget}: a command was lost or applied twice"
                );
            }
        }
    }

    /// Link delay of the failover tests: Δ/10, so a `4Δ` view timer and a
    /// message hop are an order of magnitude apart.
    const HOP: Duration = Duration::from_micros(10);

    #[test]
    fn leader_cascade_pays_each_dead_leader_once() {
        // (9, 2), the first two rotation leaders die one after the other
        // mid-log. Each costs the slots then in flight one 4Δ timer; every
        // later slot crosses both dead views in one hop (timeouts, statuses,
        // proposal, votes + slack: 5 hops). Before suspects every window of
        // `pipeline` slots re-burnt both timers: ≥ slots/pipeline × 8Δ.
        let (commands, batch, pipeline) = (48u64, 2usize, 2usize);
        for (first, second) in [(20, 60), (40, 300), (10, 400)] {
            let (o, machines) = run_with_crashes_over(
                HOP,
                9,
                2,
                commands,
                params(batch, pipeline),
                170,
                &[(0, first), (1, second)],
            );
            assert!(o.agreement_holds() && o.all_honest_committed());
            let slots = commands / batch as u64;
            let bound = DELTA * 4 * 2 + HOP * 5 * slots;
            assert!(
                o.end_time().since(GlobalTime::ZERO) <= bound,
                "crashes at {first}/{second}: {} exceeds two timers + 5 hops a slot ({bound})",
                o.end_time()
            );
            for m in &machines[2..] {
                let m = m.lock();
                assert_eq!(
                    (m.applied(), m.total()),
                    (commands, (1..=commands).sum()),
                    "every command applies exactly once"
                );
            }
        }
    }

    /// What an [`Observed`] replica has decided and whom it has suspected.
    #[derive(Debug, Default)]
    struct Observation {
        /// Per slot: the decided value and the view of the committing quorum.
        decided: BTreeMap<SlotId, (Value, View)>,
        /// Every party that was ever in the suspect set.
        ever_suspected: BTreeSet<PartyId>,
        /// The suspect set after the last handled event.
        suspects: BTreeSet<PartyId>,
    }

    /// A replica that publishes its failover state after every event.
    struct Observed {
        inner: Finite<Counter>,
        seen: Arc<Mutex<Observation>>,
    }

    impl Observed {
        fn publish(&mut self) {
            let mut seen = self.seen.lock();
            let engine = &self.inner.engine;
            for (slot, inst) in &engine.slots {
                if let (Some(value), Some(view)) = (engine.committed.get(slot), inst.commit_view())
                {
                    seen.decided.insert(*slot, (*value, view));
                }
            }
            seen.suspects = engine.suspects.keys().copied().collect();
            let now = seen.suspects.clone();
            seen.ever_suspected.extend(now);
        }
    }

    impl Protocol for Observed {
        type Msg = SmrMsg;
        fn start(&mut self, ctx: &mut dyn Context<SmrMsg>) {
            Protocol::start(&mut self.inner, ctx);
            self.publish();
        }
        fn on_message(&mut self, from: PartyId, msg: SmrMsg, ctx: &mut dyn Context<SmrMsg>) {
            Protocol::on_message(&mut self.inner, from, msg, ctx);
            self.publish();
        }
        fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<SmrMsg>) {
            Protocol::on_timer(&mut self.inner, tag, ctx);
            self.publish();
        }
    }

    #[test]
    fn slow_primary_is_suspected_then_forgiven_within_two_windows() {
        // A live primary whose messages for one window of slots are held
        // past 4Δ (before GST, so the model allows it): the followers time
        // those slots out, convict it, route the next slots around it — and
        // its own traffic for a slot a full window later clears it, so it
        // is back to 2-round view-1 commits within 2·pipeline + 1 slots.
        let (n, commands, pipeline) = (4, 40u64, 2usize);
        let held = 6..6 + pipeline as u64; // one window of slots
        let cfg = Config::new(n, 1).unwrap();
        let chain = Keychain::generate(n, 171);
        let workload: Vec<Value> = (1..=commands).map(Value::new).collect();
        let held_slots = held.clone();
        let oracle: ScheduleOracle<SmrMsg> = ScheduleOracle::new(HOP).rule(
            DelayRule::link(
                PartySet::One(PartyId::new(0)),
                PartySet::Any,
                LinkDelay::Finite(DELTA * 6),
            )
            .when(move |m: &SmrMsg| match m {
                SmrMsg::Slot { slot, .. } | SmrMsg::Payload { slot, .. } => {
                    held_slots.contains(&slot.index())
                }
                _ => false,
            }),
        );
        let seen: Vec<Arc<Mutex<Observation>>> = (0..n).map(|_| Arc::default()).collect();
        let probes = seen.clone();
        let o = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst: GlobalTime::from_micros(1_000_000),
                big_delta: DELTA,
            })
            .oracle(oracle)
            .spawn_honest(move |q| Observed {
                inner: Finite::new(
                    SlotEngine::new(
                        cfg,
                        chain.signer(q),
                        chain.pki(),
                        DELTA,
                        params(1, pipeline),
                        Arc::new(Mutex::new(Counter::default())),
                    ),
                    workload.clone(),
                ),
                seen: probes[q.as_usize()].clone(),
            })
            .run();
        assert!(o.agreement_holds() && o.all_honest_committed());
        for (q, seen) in seen.iter().enumerate().skip(1) {
            let seen = seen.lock();
            assert!(
                seen.ever_suspected.contains(&PartyId::new(0)),
                "replica {q} never suspected the slow primary"
            );
            assert!(seen.suspects.is_empty(), "replica {q} never forgave it");
            for slot in held.clone() {
                let (_, view) = seen.decided[&SlotId::new(slot)];
                assert!(view > View::FIRST, "slot {slot} cannot commit in view 1");
            }
            let back = held.end + 2 * pipeline as u64 + 1;
            for (slot, (_, view)) in seen.decided.range(SlotId::new(back)..) {
                assert_eq!(
                    *view,
                    View::FIRST,
                    "replica {q}: slot {slot} still routed around the live primary"
                );
            }
            assert!(seen.decided.contains_key(&SlotId::new(back)));
        }
    }

    #[test]
    fn idle_gap_convicts_nobody() {
        // No workload, no traffic: the first window of slots times the idle
        // primary out and decides no-ops in view 2. An idle leader is not a
        // dead one — when a command then arrives (party 3 plays the client)
        // nobody is suspected and the primary commits it in view 1.
        let n = 4;
        let cfg = Config::new(n, 1).unwrap();
        let chain = Keychain::generate(n, 172);
        let replicas: Vec<PartyId> = (0..3).map(PartyId::new).collect();
        let submit = SmrMsg::Submit {
            cmd: Value::new(77),
        };
        let arrives = LocalTime::from_micros(DELTA.as_micros() * 6);
        let client = Scripted::multicast_at(arrives, &replicas, submit);
        let seen: Vec<Arc<Mutex<Observation>>> = (0..n).map(|_| Arc::default()).collect();
        let probes = seen.clone();
        let o = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst: GlobalTime::ZERO,
                big_delta: DELTA,
            })
            .oracle(FixedDelay::new(HOP))
            .byzantine(PartyId::new(3), client)
            .spawn_honest(move |q| Observed {
                // No workload: a count nothing reaches, so only quiesce stops.
                inner: Finite {
                    engine: SlotEngine::new(
                        cfg,
                        chain.signer(q),
                        chain.pki(),
                        DELTA,
                        SmrParams {
                            quiesce_after: 6,
                            ..SmrParams::default()
                        },
                        Arc::new(Mutex::new(Counter::default())),
                    ),
                    commands: u64::MAX,
                },
                seen: probes[q.as_usize()].clone(),
            })
            .run();
        assert!(o.agreement_holds() && o.all_honest_committed());
        for seen in &seen[..3] {
            let seen = seen.lock();
            assert_eq!(seen.ever_suspected, BTreeSet::new(), "idle is not dead");
            let timed_out_idle = seen
                .decided
                .values()
                .filter(|(value, view)| value.is_no_op() && *view > View::FIRST)
                .count();
            assert!(timed_out_idle >= 4, "the idle window timed out first");
            let busy: Vec<_> = seen
                .decided
                .iter()
                .filter(|(_, (value, _))| !value.is_no_op())
                .collect();
            assert_eq!(busy.len(), 1, "one command, one busy slot");
            assert_eq!(busy[0].1 .1, View::FIRST, "committed under the primary");
        }
    }

    #[test]
    fn suspects_are_skipped_in_the_first_cycle_only() {
        // Party 3 of 4 suspects everybody else. Opening a slot fires view 1
        // and forfeits views 2 and 3 in the same step — three ⊥ timeouts,
        // no view timer — and once timeout quorums carry the slot past
        // them, its own view 4 and party 0's *second* turn (view n + 1)
        // both get the full 4Δ.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 173);
        let me = PartyId::new(3);
        let mut eng = SlotEngine::new(
            cfg,
            chain.signer(me),
            chain.pki(),
            DELTA,
            params(4, 1),
            Arc::new(Mutex::new(Counter::default())),
        );
        for q in 0..3 {
            eng.suspects.insert(PartyId::new(q), SlotId::FIRST);
        }
        let mut ctx = RecordingCtx::new(me, cfg);
        Protocol::start(&mut eng, &mut ctx);
        let bot = |view: u64| SmrMsg::Slot {
            slot: SlotId::FIRST,
            inner: VbbMsg::Timeout(TimeoutMsg::bot(&chain.signer(me), View::new(view))),
        };
        assert_eq!(ctx.multicast, [bot(1), bot(2), bot(3)]);
        assert_eq!(ctx.timers, [], "no timer is armed for a suspect");
        for view in 1..=4 {
            for q in 0..3 {
                let sender = chain.signer(PartyId::new(q));
                let inner = VbbMsg::Timeout(TimeoutMsg::bot(&sender, View::new(view)));
                let msg = SmrMsg::Slot {
                    slot: SlotId::FIRST,
                    inner,
                };
                Protocol::on_message(&mut eng, PartyId::new(q), msg, &mut ctx);
            }
        }
        let armed = |view| (DELTA * 4, pack_slot_tag(SlotId::FIRST, view).unwrap());
        assert_eq!(ctx.timers, [armed(4), armed(5)]);
    }

    /// Parties 1–3 of (4, 1), run by hand with the primary silent until
    /// nothing is left to deliver: slot 0's view 1 times out everywhere,
    /// and party 1, holding `pool` in its pool, leads view 2. Returns the
    /// three replicas and everything party 1 multicast, in order. Timers
    /// are recorded, not fired, so the run ends once slot 0 is decided.
    fn rotation_by_hand(pool: &[u64]) -> (Vec<SlotEngine<Counter>>, Vec<SmrMsg>) {
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 137);
        let mut parties: Vec<(SlotEngine<Counter>, RecordingCtx)> = (1..4)
            .map(|q| {
                let me = PartyId::new(q);
                let machine = Arc::new(Mutex::new(Counter::default()));
                let eng = SlotEngine::new(
                    cfg,
                    chain.signer(me),
                    chain.pki(),
                    DELTA,
                    params(4, 1),
                    machine,
                );
                (eng, RecordingCtx::new(me, cfg))
            })
            .collect();
        for &cmd in pool {
            parties[0].0.mempool.submit(Value::new(cmd)).unwrap();
        }
        let view_one = pack_slot_tag(SlotId::FIRST, 1).unwrap();
        for (eng, ctx) in &mut parties {
            Protocol::start(eng, ctx);
            Protocol::on_timer(eng, view_one, ctx);
        }
        let mut log = Vec::new();
        loop {
            let mut in_flight = Vec::new();
            for (_, ctx) in &mut parties {
                let from = ctx.me;
                if from == PartyId::new(1) {
                    log.extend(ctx.multicast.iter().cloned());
                }
                for msg in ctx.multicast.drain(..) {
                    in_flight.extend((1..4).map(|to| (from, PartyId::new(to), msg.clone())));
                }
                in_flight.extend(ctx.sent.drain(..).map(|(to, msg)| (from, to, msg)));
            }
            if in_flight.is_empty() {
                break;
            }
            for (from, to, msg) in in_flight {
                // Party 0 is silent, and acks to the client are dropped.
                let index = to.as_usize().checked_sub(1);
                if let Some((eng, ctx)) = index.and_then(|i| parties.get_mut(i)) {
                    Protocol::on_message(eng, from, msg, ctx);
                }
            }
        }
        (parties.into_iter().map(|(eng, _)| eng).collect(), log)
    }

    /// The value of the Propose party 1 multicast for slot 0, and its
    /// position in `log`.
    fn rotation_proposal(log: &[SmrMsg]) -> (usize, Value) {
        log.iter()
            .enumerate()
            .find_map(|(i, m)| match m {
                SmrMsg::Slot {
                    slot: SlotId::FIRST,
                    inner: VbbMsg::Propose { ls, .. },
                } => Some((i, ls.value)),
                _ => None,
            })
            .expect("party 1 proposed in view 2")
    }

    #[test]
    fn a_rotation_leader_with_an_empty_pool_proposes_the_no_op() {
        // Nothing to drain: the answer is the no-op, with no payload.
        let (replicas, log) = rotation_by_hand(&[]);
        let (_, value) = rotation_proposal(&log);
        assert_eq!(value, Value::NO_OP);
        assert!(
            !log.iter().any(|m| matches!(m, SmrMsg::Payload { .. })),
            "no payload for the empty batch: {log:?}"
        );
        for eng in &replicas {
            assert_eq!(eng.committed.get(&SlotId::FIRST), Some(&Value::NO_OP));
            assert!(eng.my_proposals.is_empty());
        }
    }

    #[test]
    fn a_rotation_leader_publishes_its_batch_after_its_propose_and_vote() {
        // The drained batch's bytes go out once the interaction is over,
        // right behind the Propose and the Vote, and every replica applies
        // the batch.
        let (replicas, log) = rotation_by_hand(&[5, 6]);
        let batch = Batch::Commands(vec![Value::new(5), Value::new(6)]);
        let (at, value) = rotation_proposal(&log);
        assert_eq!(value, batch_value(&batch));
        assert!(
            matches!(
                &log[at + 1],
                SmrMsg::Slot { slot: SlotId::FIRST, inner: VbbMsg::Vote(v) } if v.ls.value == value
            ),
            "the Vote follows the Propose: {log:?}"
        );
        assert_eq!(
            log[at + 2],
            SmrMsg::Payload {
                slot: SlotId::FIRST,
                batch
            },
            "the Payload follows the Vote"
        );
        for eng in &replicas {
            assert_eq!(eng.committed.get(&SlotId::FIRST), Some(&value));
            assert_eq!(eng.commands_applied, 2, "every replica holds the bytes");
        }
    }

    /// A closed counter workload at `(n, f)` with party `n − 1` flooding:
    /// at 1 µs it sends every other party [`MAX_PAYLOADS_PER_SLOT`] bogus
    /// payloads for each of `flooded` slots. `crash` optionally crashes the
    /// primary after that many handled events.
    fn run_flooded(
        n: usize,
        f: usize,
        commands: u64,
        flooded: u64,
        crash: Option<usize>,
    ) -> (Outcome, Vec<Arc<Mutex<Counter>>>) {
        let cfg = Config::new(n, f).unwrap();
        let chain = Keychain::generate(n, 190);
        let p = params(2, 2);
        let workload: Vec<Value> = (1..=commands).map(Value::new).collect();
        let machines: Vec<Arc<Mutex<Counter>>> = (0..n)
            .map(|_| Arc::new(Mutex::new(Counter::default())))
            .collect();
        let flooder = PartyId::new(n as u32 - 1);
        let mut flood = Vec::new();
        for slot in 0..flooded {
            for k in 0..MAX_PAYLOADS_PER_SLOT as u64 {
                let batch = Batch::Commands(vec![Value::new(1_000_000 + 10 * slot + k)]);
                let msg = SmrMsg::Payload {
                    slot: SlotId::new(slot),
                    batch,
                };
                flood.extend((0..n as u32 - 1).map(|to| ScriptedAction {
                    at: LocalTime::from_micros(1),
                    to: PartyId::new(to),
                    msg: msg.clone(),
                }));
            }
        }
        let mut build = Simulation::build(cfg)
            .timing(TimingModel::PartialSynchrony {
                gst: GlobalTime::ZERO,
                big_delta: DELTA,
            })
            .oracle(FixedDelay::new(DELTA))
            .byzantine(flooder, Scripted::new(flood));
        if let Some(handled) = crash {
            let primary = SlotEngine::new(
                cfg,
                chain.signer(PartyId::new(0)),
                chain.pki(),
                DELTA,
                p,
                machines[0].clone(),
            )
            .with_workload(workload.clone());
            build = build.byzantine(PartyId::new(0), Crashing::new(primary, handled));
        }
        let ms = machines.clone();
        let o = build
            .spawn_honest(move |q| {
                SlotEngine::new(
                    cfg,
                    chain.signer(q),
                    chain.pki(),
                    DELTA,
                    p,
                    ms[q.as_usize()].clone(),
                )
                .with_workload(workload.clone())
            })
            .run();
        (o, machines)
    }

    #[test]
    fn a_payload_flood_does_not_stall_the_followers() {
        // Party 3 sends every follower a full cap of bogus batches for each
        // slot before the primary's batches for slots 2 and up arrive. A cap
        // shared by all senders would refuse the primary's batches, and the
        // followers would commit digests whose bytes nobody else serves: the
        // primary stops once it has applied the workload.
        let commands = 20;
        let (o, machines) = run_flooded(4, 1, commands, 12, None);
        assert!(o.agreement_holds() && o.all_honest_committed());
        for m in &machines[..3] {
            let m = m.lock();
            assert_eq!((m.applied(), m.total()), (commands, (1..=commands).sum()));
        }
    }

    #[test]
    fn a_payload_flood_does_not_hide_a_crashed_primarys_batch() {
        // (9, 2): party 8 floods and the primary crashes mid-log, after its
        // payloads went out. Only the followers can hold the batches the
        // primary's last slots commit, so each of them must have stored
        // them despite the flood.
        let commands = 24;
        let (o, machines) = run_flooded(9, 2, commands, 16, Some(40));
        assert!(o.agreement_holds() && o.all_honest_committed());
        for m in &machines[1..8] {
            let m = m.lock();
            assert_eq!((m.applied(), m.total()), (commands, (1..=commands).sum()));
        }
    }
}
