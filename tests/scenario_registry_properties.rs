//! Registry-wide safety properties: **every** registered scenario family
//! upholds agreement and (conditional broadcast) validity under seeded
//! random Byzantine subsets of size ≤ f — silent or crashing, with and
//! without in-model delay jitter.
//!
//! This is the scenario layer paying for itself: one loop over
//! `registry().keys()` covers every protocol the workspace knows about,
//! and a newly registered family is property-tested with zero new code
//! here. (Strawman families are included deliberately: they overclaim
//! *latency*, not crash tolerance — only the scripted equivocation
//! schedules in `gcl_core::lower_bounds` may split them.)

use gcl_sim::{AdversaryMix, DelayChoice};
use gcl_smr::{Counter, StateMachine};
use gcl_types::{Duration, SlotId, Value};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn every_family_is_safe_under_random_byzantine_subsets(
        seed: u64,
        crash: bool,
        jitter: bool,
    ) {
        let reg = gcl_bench::registry();
        prop_assert!(reg.len() >= 15, "expected the full family catalog");
        for key in reg.keys() {
            let family = reg.family(key).expect("listed key");
            let mut spec = family.canonical().with_seed(seed);
            // A seeded Byzantine subset of size ≤ f (placement is drawn
            // from the spec seed inside the scenario layer).
            let count = (seed % (spec.f as u64 + 1)) as u32;
            spec = spec.with_adversary(if crash {
                AdversaryMix::RandomCrashing {
                    count,
                    max_handled: 8,
                }
            } else {
                AdversaryMix::RandomSilent { count }
            });
            if jitter {
                let hi = spec.delta * 2;
                spec = spec.with_delays(DelayChoice::Uniform {
                    lo: Duration::ZERO,
                    hi,
                });
            }
            let o = reg
                .run(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            prop_assert!(
                o.agreement_holds(),
                "{}: agreement violated",
                spec.label()
            );
            prop_assert!(
                family.upholds_validity(&spec, &o),
                "{}: validity violated (committed {:?}, input {:?})",
                spec.label(),
                o.committed_value(),
                spec.input
            );
            if key == "smr" {
                // A finite workload is applied in full before a replica stops.
                let mut full = Counter::default();
                for cmd in 1..=spec.params.commands {
                    full.apply(SlotId::new(cmd), Value::new(cmd));
                }
                let full = Value::new(full.state_digest());
                prop_assert!(
                    o.honest_commits().all(|c| c.value == full),
                    "{}: a workload command never applied",
                    spec.label()
                );
            }
        }
    }

    #[test]
    fn honest_good_case_always_commits_everywhere(seed: u64) {
        // With no adversary and fixed in-model delays, every family's
        // canonical shape must terminate with all honest parties
        // committed — the good case of the paper's tables.
        let reg = gcl_bench::registry();
        for key in reg.keys() {
            let spec = reg.family(key).expect("listed key").canonical().with_seed(seed);
            let o = reg
                .run(&spec)
                .unwrap_or_else(|e| panic!("{}: {e}", spec.label()));
            prop_assert!(
                o.all_honest_committed(),
                "{}: good case failed to commit",
                spec.label()
            );
        }
    }
}
