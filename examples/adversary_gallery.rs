//! Replay the paper's lower-bound executions: strawman protocols that
//! overclaim latency get split; the paper's protocols survive the same
//! adversaries.
//!
//! ```sh
//! cargo run --example adversary_gallery
//! ```
//!
//! Exits nonzero when any verdict is not the one the theorem predicts.

use gcl::core::lower_bounds::{theorem10, theorem19, theorem4, theorem7, theorem9};
use gcl::types::{Config, Duration};
use std::process::ExitCode;

/// Prints one execution's verdict; returns whether it is the expected one.
fn report(name: &str, claim: &str, violated: bool, expected_violation: bool) -> bool {
    let status = match (violated, expected_violation) {
        (true, true) => "SPLIT — exactly as the theorem predicts",
        (false, false) => "safe — the tight protocol absorbs the attack",
        (true, false) => "UNEXPECTED VIOLATION (bug!)",
        (false, true) => "unexpected survival (schedule too weak?)",
    };
    println!("{name:<46} {claim:<34} {status}");
    violated == expected_violation
}

fn main() -> ExitCode {
    println!("Adversary gallery — the lower bounds, executed\n");
    let mut ok = true;

    let o = theorem4::split_one_round_brb(4, 1, 1);
    ok &= report(
        "Thm 4: equivocating broadcaster",
        "vs 1-round BRB strawman",
        !o.agreement_holds(),
        true,
    );
    let o = theorem4::split_two_round_brb(4, 1, 1);
    ok &= report(
        "Thm 4: equivocating broadcaster",
        "vs 2-round BRB (Fig 1)",
        !o.agreement_holds(),
        false,
    );

    let o = theorem7::split_fab_at_5f_minus_2();
    ok &= report(
        "Thm 7 / Fig 4: commit-then-steer view change",
        "vs FaB-style 2-round @ n=5f-2",
        !o.agreement_holds(),
        true,
    );

    let o = theorem9::split_early_commit();
    ok &= report(
        "Thm 9: equivocate + double-vote",
        "vs early-commit BB strawman",
        !o.agreement_holds(),
        true,
    );
    let o = theorem9::same_adversary_against_fig5();
    ok &= report(
        "Thm 9: equivocate + double-vote",
        "vs (Δ+δ)-n/3-BB (Fig 5)",
        !o.agreement_holds(),
        false,
    );

    let o = theorem10::adversarial_execution();
    ok &= report(
        "Thm 10 / Fig 7: skewed-start equivocation",
        "vs (Δ+1.5δ)-BB (Fig 9)",
        !o.agreement_holds(),
        false,
    );

    let o = theorem10::tightness_execution(5, 2);
    println!(
        "\nThm 10 tightness: (Δ+1.5δ)-BB committed at {} with skew 0.5δ — the bound is achieved.",
        o.good_case_latency().expect("commits")
    );

    println!("\nThm 19 dishonest-majority band: (⌊n/(n−f)⌋−1)Δ ≤ measured ≤ O(n/(n−f))Δ");
    let big_delta = Duration::from_micros(1_000);
    for (n, f) in [(4usize, 2usize), (6, 4), (8, 6), (10, 8)] {
        let cfg = Config::new(n, f).expect("config");
        let measured = theorem19::good_case(n, f, big_delta)
            .good_case_latency()
            .expect("commits");
        let (lower, upper) = (
            theorem19::lower_bound(cfg, big_delta),
            theorem19::upper_bound(cfg, big_delta),
        );
        let inside = lower <= measured && measured <= upper;
        ok &= inside;
        println!(
            "  n={n:>2} f={f:>2}: lower {lower:>6}  measured {measured:>6}  upper {upper:>6}  {}",
            if inside { "inside" } else { "OUTSIDE THE BAND" }
        );
    }

    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("a verdict differs from the theorem's prediction");
        ExitCode::FAILURE
    }
}
