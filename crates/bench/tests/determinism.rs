//! Outcome pins for the specs the scenario grid cannot express.
//!
//! Every grid cell's events, messages, latency and rounds are gated
//! exactly by the committed `BENCH_sweep.json` (`gcl_bench::sweep`), so a
//! canonical spec at a grid shape needs no pin here. What remains is what
//! the grid does not hold: `bb_majority`'s canonical trailing-silent mix
//! (the grid runs only none / random-silent / random-crashing mixes), the
//! n = 16 `flood` and `dolev_strong` shapes (outside the grid's shape
//! pool), the `CrashAt` and `LeaderCascade` SMR schedules (not grid
//! mixes), and run-to-run bit-identity of one spec. Any divergence — a
//! reordered delivery, a dropped clone, a changed tie-break — is a hard
//! failure.

use gcl_bench::{canonical, registry, run};
use gcl_sim::{Outcome, ScenarioSpec};

/// `(label, events_processed, messages_sent, good_case_latency_us,
/// good_case_rounds)` — the pinned `Outcome` fields.
type Reference = (&'static str, u64, u64, Option<u64>, Option<u32>);

fn check(reference: Reference, spec: &ScenarioSpec) {
    let (label, events, messages, latency_us, rounds) = reference;
    let outcome: Outcome = run(spec);
    assert_eq!(
        outcome.events_processed(),
        events,
        "{label}: events_processed drifted"
    );
    assert_eq!(
        outcome.messages_sent(),
        messages,
        "{label}: messages_sent drifted"
    );
    assert_eq!(
        outcome.good_case_latency().map(|d| d.as_micros()),
        latency_us,
        "{label}: good_case_latency drifted"
    );
    assert_eq!(
        outcome.good_case_rounds(),
        rounds,
        "{label}: good_case_rounds drifted"
    );
}

#[test]
fn majority_matches_pre_refactor_runner() {
    // Not a grid row: the canonical spec carries the all-`f`-silent
    // trailing mix; the grid reaches these numbers only on `silent-rand`.
    check(
        ("majority_4_2", 38, 31, Some(4000), Some(4)),
        &canonical("bb_majority", 4, 2),
    );
    check(
        ("majority_6_4", 58, 51, Some(5000), Some(4)),
        &canonical("bb_majority", 6, 4),
    );
}

#[test]
fn throughput_scenarios_match_pre_refactor_runner() {
    // Not a grid row: n = 16 is outside the grid's shape pool (`flood_n16`
    // is a `BENCH_sim.json` row, gated in CI rather than in `cargo test`).
    check(
        ("throughput_flood_16", 272, 256, Some(10), Some(1)),
        &canonical("flood", 16, 5),
    );
    check(
        ("throughput_ds_16_5", 352, 240, Some(1800), Some(2)),
        &canonical("dolev_strong", 16, 5),
    );
}

#[test]
fn leader_crash_smr_rotation_is_deterministic_and_pinned() {
    // Leader rotation must be a pure function of (spec, seed): the view-1
    // leader of the crashed slots hands off on the deterministic view
    // timetable, so the whole failover trace — events, messages, commit
    // round — pins exactly, and a sweep over crash cells reports the
    // same numbers at any thread count. Not a grid row: `CrashAt` and
    // `LeaderCascade` are not grid mixes.
    use gcl_sim::{AdversaryMix, Sweep};
    use gcl_types::PartyId;
    let spec = canonical("smr", 4, 1)
        .with_workload(50, 4)
        .with_adversary(AdversaryMix::CrashAt {
            party: PartyId::new(0),
            handled: 12,
        });
    // events re-pinned 793 -> 619 for the enqueue-time dead-recipient
    // drop: the 174 deliveries addressed to the crashed leader after it
    // terminated are now discarded at enqueue instead of being popped
    // and filtered; messages, latency, and rounds are byte-identical.
    // Re-pinned 619 / 742 / 2600 µs / r17 -> 595 / 754 / 1800 µs / r15 when
    // replicas began to remember the leaders they watched fail: slots
    // opened after the first view-2 commit no longer arm the dead
    // primary's 4Δ timer but time view 1 out as they open, so the log
    // ends 800 µs — two 4Δ chains — sooner, for 12 more messages.
    check(
        ("smr_50_leader_crash", 595, 754, Some(1800), Some(15)),
        &spec,
    );
    let cascade =
        canonical("smr", 9, 2)
            .with_workload(50, 4)
            .with_adversary(AdversaryMix::LeaderCascade {
                count: 2,
                first_handled: 40,
                stagger: 120,
            });
    // Two dead leaders, (9, 2). Pinned with the suspects in place; the
    // engine before them read 3599 / 4257 / 3000 µs / r25 here.
    check(
        ("smr_50_leader_cascade", 3642, 4635, Some(2100), Some(19)),
        &cascade,
    );
    let cells: Vec<ScenarioSpec> = (0..4)
        .flat_map(|i| [&spec, &cascade].map(|s| s.clone().with_seed(100 + i)))
        .collect();
    let one = Sweep::new(registry())
        .cells(cells.clone())
        .threads(1)
        .seed(7)
        .run();
    let four = Sweep::new(registry()).cells(cells).threads(4).seed(7).run();
    assert!(
        one.deterministic_eq(&four),
        "leader-crash SMR cells depend on sweep thread count"
    );
    assert_eq!(one.safety_violations().count(), 0);
}

#[test]
fn repeated_runs_are_bit_identical() {
    // Same spec, same seed, same everything: the registry path has no
    // hidden nondeterminism (hash maps, pointer ordering, wall clocks).
    // Kept beside the grid, which compares each run against a file: this
    // compares two runs in one process, so state one run leaves behind
    // for the next fails here.
    let spec = canonical("bb_unsync", 5, 2);
    let (a, b) = (run(&spec), run(&spec));
    assert_eq!(a.events_processed(), b.events_processed());
    assert_eq!(a.messages_sent(), b.messages_sent());
    assert_eq!(a.peak_queue_depth(), b.peak_queue_depth());
    assert_eq!(a.good_case_latency(), b.good_case_latency());
    assert_eq!(a.good_case_rounds(), b.good_case_rounds());
}
