//! Execution outcomes and the latency metrics of the paper.

use crate::event::TraceEntry;
use gcl_types::{Config, Duration, GlobalTime, LocalTime, PartyId, Value};

/// One party's (first) commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CommitRecord {
    /// The committing party.
    pub party: PartyId,
    /// The committed value.
    pub value: Value,
    /// Global instant of the commit.
    pub global: GlobalTime,
    /// The party's local clock at the commit.
    pub local: LocalTime,
    /// Causal message depth at the commit (1 + max round tag delivered to
    /// this party) — an upper bound on the commit's asynchronous round.
    pub round: u32,
    /// The runner's step index of the commit (for the Definition-10 round
    /// computation in [`Outcome::good_case_rounds`]).
    pub step: u64,
}

/// Execution-scheduler counters reported by the wall engine, which
/// multiplexes many parties over a fixed pool of OS threads. The
/// simulator, which has no scheduler at all, reports `None`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct SchedCounters {
    /// Size of the worker pool the run's parties were multiplexed over.
    pub workers: usize,
    /// Readiness-poll wakeups summed over the scheduler and all workers.
    pub wakeups: u64,
    /// High-water mark, in bytes, of any single outbound frame queue —
    /// the backpressure metric (a queue that keeps growing means a peer
    /// reads slower than the run writes).
    pub peak_outbound_bytes: usize,
}

/// Everything observable after a simulation run.
#[derive(Debug)]
pub struct Outcome {
    pub(crate) config: Config,
    pub(crate) honest: Vec<bool>,
    pub(crate) commits: Vec<CommitRecord>,
    pub(crate) terminated: Vec<bool>,
    pub(crate) broadcaster: PartyId,
    pub(crate) broadcaster_start: GlobalTime,
    pub(crate) end_time: GlobalTime,
    pub(crate) events_processed: u64,
    pub(crate) messages_sent: u64,
    pub(crate) peak_queue_depth: usize,
    pub(crate) drops_at_enqueue: u64,
    pub(crate) queue_bytes: u64,
    pub(crate) sched: Option<SchedCounters>,
    /// `last_delivery_of_round[k]` = the latest instant at which a message
    /// tagged round `k` is (scheduled to be) delivered — Definition 10's
    /// `l_{k+1}` boundary.
    pub(crate) last_delivery_of_round: Vec<GlobalTime>,
    pub(crate) trace: Vec<TraceEntry>,
}

impl Outcome {
    /// The outcome of a run the wall engine measured on real clocks (the
    /// simulator fills its outcomes in directly). `commits` holds each
    /// party's first commit, at most one record per slot. What only the
    /// simulator observes starts empty: no trace, no enqueue drops or
    /// retained queue bytes (dead peers' sockets absorb traffic on the
    /// wire instead), and no round-boundary table, so
    /// [`Outcome::round_of_commit`] falls back to each commit's causal tag.
    #[allow(clippy::too_many_arguments)] // one caller, one value per observation
    pub fn from_wall_run(
        config: Config,
        broadcaster: PartyId,
        broadcaster_start: GlobalTime,
        honest: Vec<bool>,
        terminated: Vec<bool>,
        commits: Vec<CommitRecord>,
        end_time: GlobalTime,
        events_processed: u64,
        messages_sent: u64,
        peak_queue_depth: usize,
        sched: SchedCounters,
    ) -> Outcome {
        Outcome {
            config,
            honest,
            commits,
            terminated,
            broadcaster,
            broadcaster_start,
            end_time,
            events_processed,
            messages_sent,
            peak_queue_depth,
            drops_at_enqueue: 0,
            queue_bytes: 0,
            sched: Some(sched),
            last_delivery_of_round: Vec::new(),
            trace: Vec::new(),
        }
    }

    /// The run's `(n, f)` configuration.
    pub fn config(&self) -> Config {
        self.config
    }

    /// Whether slot `p` ran honest code.
    pub fn is_honest(&self, p: PartyId) -> bool {
        self.honest[p.as_usize()]
    }

    /// All recorded commits (honest and Byzantine slots).
    pub fn commits(&self) -> &[CommitRecord] {
        &self.commits
    }

    /// Commits by honest parties only — the subject of every property in
    /// the paper.
    pub fn honest_commits(&self) -> impl Iterator<Item = &CommitRecord> + '_ {
        self.commits
            .iter()
            .filter(move |c| self.honest[c.party.as_usize()])
    }

    /// The commit record of one party, if it committed.
    pub fn commit_of(&self, p: PartyId) -> Option<&CommitRecord> {
        self.commits.iter().find(|c| c.party == p)
    }

    /// **Agreement** (Definition 2): no two honest parties committed
    /// different values.
    pub fn agreement_holds(&self) -> bool {
        let mut first: Option<Value> = None;
        for c in self.honest_commits() {
            match first {
                None => first = Some(c.value),
                Some(v) if v != c.value => return false,
                Some(_) => {}
            }
        }
        true
    }

    /// The common honest committed value, if agreement holds and at least
    /// one honest party committed.
    pub fn committed_value(&self) -> Option<Value> {
        if !self.agreement_holds() {
            return None;
        }
        self.honest_commits().next().map(|c| c.value)
    }

    /// Whether every honest party committed.
    pub fn all_honest_committed(&self) -> bool {
        self.config
            .parties()
            .filter(|p| self.honest[p.as_usize()])
            .all(|p| self.commit_of(p).is_some())
    }

    /// Whether every honest party terminated.
    pub fn all_honest_terminated(&self) -> bool {
        self.config
            .parties()
            .filter(|p| self.honest[p.as_usize()])
            .all(|p| self.terminated[p.as_usize()])
    }

    /// **Validity** check: every honest party committed exactly `expected`.
    pub fn validity_holds(&self, expected: Value) -> bool {
        self.all_honest_committed() && self.honest_commits().all(|c| c.value == expected)
    }

    /// **Good-case latency** (Definition 6): time from the broadcaster's
    /// protocol start until the *last* honest commit. `None` if some honest
    /// party never committed.
    pub fn good_case_latency(&self) -> Option<Duration> {
        if !self.all_honest_committed() {
            return None;
        }
        self.honest_commits()
            .map(|c| c.global.since(self.broadcaster_start))
            .max()
    }

    /// Latency until the *first* honest commit (for diagnostics).
    pub fn first_commit_latency(&self) -> Option<Duration> {
        self.honest_commits()
            .map(|c| c.global.since(self.broadcaster_start))
            .min()
    }

    /// The asynchronous round (Definition 10) of one commit: rounds are
    /// delimited by `l_r`, the latest delivery of a round-`(r−1)`-tagged
    /// message; a commit at instant `t` is in the smallest round `r` with
    /// `t ≤ l_r` (monotone closure of the `l_r` sequence).
    ///
    /// Messages are tagged with their causal depth, which equals the
    /// sending step's Definition-10 round whenever deliveries complete in
    /// tag order — true for every canonical (uniform-delay) benchmark
    /// schedule, where this metric is exact. Under adversarially reordered
    /// schedules the causal tag can exceed the official round, making this
    /// an upper-bound approximation.
    pub fn round_of_commit(&self, c: &CommitRecord) -> u32 {
        let mut horizon = GlobalTime::ZERO;
        for (k, &l) in self.last_delivery_of_round.iter().enumerate() {
            horizon = horizon.max(l);
            if c.global <= horizon {
                return k as u32 + 1;
            }
        }
        if self.last_delivery_of_round.is_empty() {
            // No round-boundary table: either a simulated run with no
            // traffic at all (the commit's causal tag is 0 there too), or
            // an outcome assembled by a non-simulator backend — fall back
            // to the causal round tag recorded at the commit, so round
            // metrics stay meaningful (as an upper bound) across backends.
            c.round
        } else {
            // Committed after every delivery (e.g. on a pure timer tail).
            self.last_delivery_of_round.len() as u32
        }
    }

    /// **Good-case round latency** (Definitions 8 and 10): the largest
    /// asynchronous round in which an honest party committed.
    pub fn good_case_rounds(&self) -> Option<u32> {
        if !self.all_honest_committed() {
            return None;
        }
        self.honest_commits().map(|c| self.round_of_commit(c)).max()
    }

    /// The designated broadcaster of the run.
    pub fn broadcaster(&self) -> PartyId {
        self.broadcaster
    }

    /// Global instant at which the last event was processed.
    pub fn end_time(&self) -> GlobalTime {
        self.end_time
    }

    /// Number of events the runner processed.
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Number of point-to-point messages sent (multicast counts `n`).
    pub fn messages_sent(&self) -> u64 {
        self.messages_sent
    }

    /// High-water mark of the event queue over the run — how many events
    /// were simultaneously in flight at the worst instant (a capacity-
    /// planning metric: queue memory scales with this, not with
    /// [`Outcome::events_processed`]).
    pub fn peak_queue_depth(&self) -> usize {
        self.peak_queue_depth
    }

    /// Point-to-point sends discarded at enqueue time because the
    /// recipient had already terminated. These messages *were* sent (they
    /// count in [`Outcome::messages_sent`] and in the round-boundary
    /// bookkeeping) but never touched the event queue — with drops off
    /// (see `SimulationBuilder::drop_dead_sends`) each would have been
    /// parked, and those popped before the run's end counted as events.
    pub fn drops_at_enqueue(&self) -> u64 {
        self.drops_at_enqueue
    }

    /// Bytes of event-queue capacity retained at the end of the run —
    /// slab chunks, calendar-slot directories and the far-future spill.
    /// The queue's actual memory footprint, as opposed to
    /// [`Outcome::peak_queue_depth`]'s entry count. Simulator-only; wall
    /// backends report 0.
    pub fn queue_bytes(&self) -> u64 {
        self.queue_bytes
    }

    /// Worker-pool scheduler counters — `Some` on the wall engine, `None`
    /// on the simulator (see [`SchedCounters`]).
    pub fn sched_counters(&self) -> Option<SchedCounters> {
        self.sched
    }

    /// The recorded trace (empty unless tracing was enabled).
    pub fn trace(&self) -> &[TraceEntry] {
        &self.trace
    }

    /// Asserts agreement with a readable panic message (test helper).
    ///
    /// # Panics
    ///
    /// Panics when two honest parties committed different values.
    pub fn assert_agreement(&self) {
        if !self.agreement_holds() {
            let commits: Vec<String> = self
                .honest_commits()
                .map(|c| format!("{} -> {}", c.party, c.value))
                .collect();
            panic!("agreement violated: {}", commits.join(", "));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome_with(commits: Vec<CommitRecord>, honest: Vec<bool>) -> Outcome {
        let n = honest.len();
        Outcome {
            config: Config::new(n, 1).unwrap(),
            honest,
            commits,
            terminated: vec![true; n],
            broadcaster: PartyId::new(0),
            broadcaster_start: GlobalTime::ZERO,
            end_time: GlobalTime::from_micros(100),
            events_processed: 1,
            messages_sent: 0,
            peak_queue_depth: 0,
            drops_at_enqueue: 0,
            queue_bytes: 0,
            sched: None,
            last_delivery_of_round: vec![GlobalTime::from_micros(10), GlobalTime::from_micros(100)],
            trace: Vec::new(),
        }
    }

    fn commit(p: u32, v: u64, at: u64, round: u32) -> CommitRecord {
        CommitRecord {
            party: PartyId::new(p),
            value: Value::new(v),
            global: GlobalTime::from_micros(at),
            local: LocalTime::from_micros(at),
            round,
            step: u64::from(round) + 1,
        }
    }

    #[test]
    fn agreement_on_matching_values() {
        let o = outcome_with(
            vec![
                commit(0, 5, 10, 2),
                commit(1, 5, 12, 2),
                commit(2, 5, 11, 2),
            ],
            vec![true; 3],
        );
        assert!(o.agreement_holds());
        assert_eq!(o.committed_value(), Some(Value::new(5)));
        o.assert_agreement();
    }

    #[test]
    fn agreement_violation_detected() {
        let o = outcome_with(
            vec![commit(0, 5, 10, 2), commit(1, 6, 12, 2)],
            vec![true, true, true],
        );
        assert!(!o.agreement_holds());
        assert_eq!(o.committed_value(), None);
    }

    #[test]
    fn byzantine_commits_ignored() {
        let o = outcome_with(
            vec![commit(0, 5, 10, 2), commit(1, 9, 12, 2)],
            vec![true, false, true],
        );
        assert!(
            o.agreement_holds(),
            "Byzantine slot's commit is not counted"
        );
        assert!(!o.all_honest_committed(), "party 2 never committed");
        assert!(!o.validity_holds(Value::new(5)));
    }

    #[test]
    fn latency_is_max_honest_commit() {
        let o = outcome_with(
            vec![
                commit(0, 5, 10, 1),
                commit(1, 5, 30, 2),
                commit(2, 5, 20, 2),
            ],
            vec![true; 3],
        );
        assert_eq!(o.good_case_latency(), Some(Duration::from_micros(30)));
        assert_eq!(o.first_commit_latency(), Some(Duration::from_micros(10)));
        assert_eq!(o.good_case_rounds(), Some(2));
    }

    #[test]
    fn latency_none_when_incomplete() {
        let o = outcome_with(vec![commit(0, 5, 10, 1)], vec![true; 3]);
        assert_eq!(o.good_case_latency(), None);
        assert_eq!(o.good_case_rounds(), None);
    }

    #[test]
    #[should_panic(expected = "agreement violated")]
    fn assert_agreement_panics() {
        let o = outcome_with(
            vec![commit(0, 5, 10, 2), commit(1, 6, 12, 2)],
            vec![true, true, true],
        );
        o.assert_agreement();
    }

    #[test]
    fn accessors() {
        let o = outcome_with(vec![commit(1, 5, 10, 2)], vec![true; 3]);
        assert_eq!(o.broadcaster(), PartyId::new(0));
        assert!(o.is_honest(PartyId::new(1)));
        assert_eq!(o.commit_of(PartyId::new(1)).unwrap().value, Value::new(5));
        assert!(o.commit_of(PartyId::new(2)).is_none());
        assert_eq!(o.end_time(), GlobalTime::from_micros(100));
        assert_eq!(o.events_processed(), 1);
        assert_eq!(o.messages_sent(), 0);
        assert_eq!(o.peak_queue_depth(), 0);
        assert!(o.trace().is_empty());
        assert!(o.all_honest_terminated());
        assert_eq!(o.commits().len(), 1);
        assert_eq!(o.config().n(), 3);
    }
}
