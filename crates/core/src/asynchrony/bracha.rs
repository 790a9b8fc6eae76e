//! Bracha's reliable broadcast (1987) — the classical unauthenticated
//! baseline, good-case latency **3 rounds**.
//!
//! The paper's conclusion notes the asynchronous unauthenticated gap: the
//! 2-round lower bound vs the 3-round upper bound implied by this protocol.
//! We implement it to measure that 3-round good case next to the 2-round
//! authenticated protocol of Figure 1.
//!
//! Echo on the first proposal; ready on `n−f` echoes or `f+1` readies;
//! deliver (commit) on `n−f` readies. `n ≥ 3f + 1`.

use crate::Tally;
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, PartyId, Value};

/// Wire messages of Bracha's broadcast. Unauthenticated: no signatures;
/// identity comes from the (authenticated-channel) sender id.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BrachaMsg {
    /// The broadcaster's proposal.
    Send(Value),
    /// First-phase echo.
    Echo(Value),
    /// Second-phase ready.
    Ready(Value),
}

gcl_types::wire_enum!(BrachaMsg {
    1 => Send(value),
    2 => Echo(value),
    3 => Ready(value),
});

/// One party of Bracha's reliable broadcast.
///
/// # Examples
///
/// ```
/// use gcl_core::asynchrony::BrachaBrb;
/// use gcl_sim::{FixedDelay, Simulation, TimingModel};
/// use gcl_types::{Config, Duration, PartyId, Value};
///
/// let cfg = Config::new(4, 1)?;
/// let outcome = Simulation::build(cfg)
///     .timing(TimingModel::Asynchrony)
///     .oracle(FixedDelay::new(Duration::from_micros(50)))
///     .spawn_honest(|p| {
///         BrachaBrb::new(cfg, p, PartyId::new(0),
///                        (p == PartyId::new(0)).then_some(Value::new(1)))
///     })
///     .run();
/// assert!(outcome.validity_holds(Value::new(1)));
/// assert_eq!(outcome.good_case_rounds(), Some(3)); // one slower than Fig 1
/// # Ok::<(), gcl_types::ConfigError>(())
/// ```
#[derive(Debug)]
pub struct BrachaBrb {
    config: Config,
    broadcaster: PartyId,
    input: Option<Value>,
    echoed: bool,
    readied: bool,
    committed: bool,
    echoes: Tally<Value, ()>,
    readies: Tally<Value, ()>,
}

impl BrachaBrb {
    /// Creates the party-side state; `input` is `Some` only at the
    /// broadcaster.
    ///
    /// # Panics
    ///
    /// Panics if `n < 3f + 1` or the input/broadcaster roles disagree.
    pub fn new(config: Config, me: PartyId, broadcaster: PartyId, input: Option<Value>) -> Self {
        assert!(config.supports_brb(), "Bracha requires n >= 3f + 1");
        assert_eq!(input.is_some(), me == broadcaster);
        BrachaBrb {
            config,
            broadcaster,
            input,
            echoed: false,
            readied: false,
            committed: false,
            echoes: Tally::new(),
            readies: Tally::new(),
        }
    }

    fn send_ready(&mut self, v: Value, ctx: &mut dyn Context<BrachaMsg>) {
        if !self.readied {
            self.readied = true;
            ctx.multicast(BrachaMsg::Ready(v));
        }
    }

    fn check_progress(&mut self, v: Value, ctx: &mut dyn Context<BrachaMsg>) {
        let n = self.config.n();
        let f = self.config.f();
        let echo_quorum = n - f;
        let ready_amplify = f + 1;
        let deliver_quorum = n - f;

        if self.echoes.count(&v) >= echo_quorum {
            self.send_ready(v, ctx);
        }
        let readies = self.readies.count(&v);
        if readies >= ready_amplify {
            self.send_ready(v, ctx);
        }
        if readies >= deliver_quorum && !self.committed {
            self.committed = true;
            ctx.commit(v);
            ctx.terminate();
        }
    }
}

impl Protocol for BrachaBrb {
    type Msg = BrachaMsg;

    fn start(&mut self, ctx: &mut dyn Context<BrachaMsg>) {
        if let Some(v) = self.input {
            ctx.multicast(BrachaMsg::Send(v));
        }
    }

    fn on_message(&mut self, from: PartyId, msg: BrachaMsg, ctx: &mut dyn Context<BrachaMsg>) {
        match msg {
            BrachaMsg::Send(v) => {
                if from == self.broadcaster && !self.echoed {
                    self.echoed = true;
                    ctx.multicast(BrachaMsg::Echo(v));
                }
            }
            BrachaMsg::Echo(v) => {
                let _ = self.echoes.insert(v, from, ());
                self.check_progress(v, ctx);
            }
            BrachaMsg::Ready(v) => {
                let _ = self.readies.insert(v, from, ());
                self.check_progress(v, ctx);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_sim::{FixedDelay, Outcome, Scripted, Silent, Simulation, TimingModel};
    use gcl_types::{Duration, LocalTime};

    const DELAY: Duration = Duration::from_micros(100);

    fn good_case(n: usize, f: usize) -> Outcome {
        let cfg = Config::new(n, f).unwrap();
        Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(DELAY))
            .spawn_honest(|p| {
                BrachaBrb::new(
                    cfg,
                    p,
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(2)),
                )
            })
            .run()
    }

    #[test]
    fn good_case_three_rounds() {
        for (n, f) in [(4, 1), (7, 2), (10, 3)] {
            let o = good_case(n, f);
            assert!(o.validity_holds(Value::new(2)), "n={n}");
            assert_eq!(o.good_case_rounds(), Some(3), "n={n}: Bracha is 3 rounds");
        }
    }

    #[test]
    fn one_round_slower_than_authenticated() {
        // The headline asynchronous comparison: Fig 1 = 2 rounds,
        // Bracha = 3 rounds (same n, f, delays).
        use crate::asynchrony::TwoRoundBrb;
        use gcl_crypto::Keychain;
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 3);
        let auth = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(DELAY))
            .spawn_honest(|p| {
                TwoRoundBrb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(2)),
                )
            })
            .run();
        let unauth = good_case(4, 1);
        assert_eq!(auth.good_case_rounds(), Some(2));
        assert_eq!(unauth.good_case_rounds(), Some(3));
        assert!(auth.good_case_latency().unwrap() < unauth.good_case_latency().unwrap());
    }

    #[test]
    fn equivocation_cannot_split() {
        // Byzantine broadcaster sends 0 to one party and 1 to the rest:
        // neither side reaches the n−f echo quorum both ways.
        let cfg = Config::new(4, 1).unwrap();
        let script = Scripted::new(vec![
            gcl_sim::ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(1),
                msg: BrachaMsg::Send(Value::ZERO),
            },
            gcl_sim::ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(2),
                msg: BrachaMsg::Send(Value::ONE),
            },
            gcl_sim::ScriptedAction {
                at: LocalTime::ZERO,
                to: PartyId::new(3),
                msg: BrachaMsg::Send(Value::ONE),
            },
        ]);
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(DELAY))
            .byzantine(PartyId::new(0), script)
            .spawn_honest(|p| BrachaBrb::new(cfg, p, PartyId::new(0), None))
            .run();
        o.assert_agreement();
    }

    #[test]
    fn totality_all_or_none() {
        // If any honest party delivers, all honest parties deliver (ready
        // amplification). Crash the broadcaster right after its sends reach
        // only a quorum: either everyone commits or no one does.
        let cfg = Config::new(4, 1).unwrap();
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(DELAY))
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(|p| BrachaBrb::new(cfg, p, PartyId::new(0), None))
            .run();
        let committed = o.honest_commits().count();
        assert!(committed == 0 || committed == 3);
    }

    #[test]
    #[should_panic(expected = "n >= 3f + 1")]
    fn resilience_check() {
        let cfg = Config::new(3, 1).unwrap();
        let _ = BrachaBrb::new(cfg, PartyId::new(0), PartyId::new(0), Some(Value::ZERO));
    }
}
