//! The lower-bound executions as integration tests: each theorem's
//! schedule splits the overclaiming strawman and spares the tight
//! protocol.

use gcl::core::lower_bounds::{theorem10, theorem19, theorem4, theorem7, theorem9};
use gcl::types::{Config, Duration};

#[test]
fn theorem4_one_round_is_impossible() {
    for (n, f, split) in [(4, 1, 1), (4, 1, 2), (7, 2, 3)] {
        let strawman = theorem4::split_one_round_brb(n, f, split);
        assert!(!strawman.agreement_holds(), "n={n}: 1-round BRB must split");
        let real = theorem4::split_two_round_brb(n, f, split);
        assert!(real.agreement_holds(), "n={n}: Fig 1 must survive");
    }
}

#[test]
fn theorem7_two_rounds_need_5f_minus_1() {
    let o = theorem7::split_fab_at_5f_minus_2();
    assert!(
        !o.agreement_holds(),
        "FaB-style 2-round at n = 5f − 2 must split"
    );
}

#[test]
fn theorem9_commit_below_delta_plus_delta_is_unsafe() {
    let strawman = theorem9::split_early_commit();
    assert!(!strawman.agreement_holds());
    // Both conflicting commits landed below Δ + δ — that is the theorem.
    for c in strawman.honest_commits() {
        assert!(c.local.as_micros() < 1_100);
    }
    let real = theorem9::same_adversary_against_fig5();
    assert!(real.agreement_holds());
    assert!(real.all_honest_committed());
}

#[test]
fn theorem10_bound_is_achieved_and_safe() {
    let e1 = theorem10::tightness_execution(5, 2);
    assert!(e1.all_honest_committed());
    // Δ + 1.5δ + σ with δ = 100µs, Δ = 1000µs, σ = 50µs.
    assert!(e1.good_case_latency().unwrap() <= Duration::from_micros(1_200));
    let adv = theorem10::adversarial_execution();
    assert!(adv.agreement_holds());
}

#[test]
fn theorem19_factor_tracks_resilience_ratio() {
    let d = Duration::from_micros(1_000);
    let mut last = Duration::ZERO;
    for (n, f) in [(4, 2), (6, 4), (8, 6), (10, 8)] {
        let cfg = Config::new(n, f).unwrap();
        let bound = theorem19::lower_bound(cfg, d);
        assert!(bound >= last, "lower bound grows with n/(n−f)");
        last = bound;
        let o = theorem19::good_case(n, f, d);
        let measured = o.good_case_latency().unwrap();
        assert!(measured >= bound);
        assert!(measured <= theorem19::upper_bound(cfg, d));
    }
}

#[test]
fn scripted_schedules_are_cleanly_rejected_off_the_simulator() {
    // The scripted equivocation schedules need exact delivery control, so
    // they are deliberately not registered as scenario families. Asking
    // either execution target's registry path to run one must be a clean
    // UnknownFamily rejection — never a silently diverging wall run.
    use gcl::core::lower_bounds::SIM_ONLY_SCHEDULES;
    use gcl::sim::{ScenarioError, ScenarioSpec};
    use gcl_net::AsyncBackend;

    let reg = gcl::core::registry();
    assert_eq!(SIM_ONLY_SCHEDULES.len(), 5, "one key per theorem module");
    for &key in SIM_ONLY_SCHEDULES {
        assert!(
            reg.family(key).is_none(),
            "{key}: sim-only schedules must stay out of the registry"
        );
        let spec = ScenarioSpec::asynchronous(key, 4, 1);
        for outcome in [reg.run_on(&spec, &AsyncBackend::new()), reg.run(&spec)] {
            match outcome {
                Err(ScenarioError::UnknownFamily(k)) => assert_eq!(k, key),
                other => panic!("{key}: expected clean rejection, got {other:?}"),
            }
        }
    }
}
