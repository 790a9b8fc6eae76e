//! The 1-round BRB strawman broken by Theorem 4.
//!
//! Commit on the broadcaster's proposal, before hearing from anyone else.
//! Validity and 1-round latency hold when the broadcaster is honest — and
//! agreement dies the moment it equivocates, exactly as the theorem's
//! three-execution argument predicts.

use gcl_sim::{Context, Protocol};
use gcl_types::{Config, PartyId, Value};

/// Wire message: just the proposal.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OneRoundMsg(pub Value);

gcl_types::wire_newtype!(OneRoundMsg);

/// One party of the (unsafe) 1-round BRB.
#[derive(Debug)]
pub(crate) struct OneRoundBrb {
    broadcaster: PartyId,
    input: Option<Value>,
    committed: bool,
}

impl OneRoundBrb {
    /// Creates the party; `input` is `Some` only at the broadcaster.
    pub(crate) fn new(
        _config: Config,
        me: PartyId,
        broadcaster: PartyId,
        input: Option<Value>,
    ) -> Self {
        assert_eq!(input.is_some(), me == broadcaster);
        OneRoundBrb {
            broadcaster,
            input,
            committed: false,
        }
    }
}

impl Protocol for OneRoundBrb {
    type Msg = OneRoundMsg;

    fn start(&mut self, ctx: &mut dyn Context<OneRoundMsg>) {
        if let Some(v) = self.input {
            ctx.multicast(OneRoundMsg(v));
        }
    }

    fn on_message(&mut self, from: PartyId, msg: OneRoundMsg, ctx: &mut dyn Context<OneRoundMsg>) {
        if from == self.broadcaster && !self.committed {
            self.committed = true;
            ctx.commit(msg.0);
            ctx.terminate();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_sim::{FixedDelay, Simulation, TimingModel};
    use gcl_types::Duration;

    #[test]
    fn honest_broadcaster_one_round() {
        let cfg = Config::new(4, 1).unwrap();
        let o = Simulation::build(cfg)
            .timing(TimingModel::Asynchrony)
            .oracle(FixedDelay::new(Duration::from_micros(10)))
            .spawn_honest(|p| {
                OneRoundBrb::new(
                    cfg,
                    p,
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(4)),
                )
            })
            .run();
        assert!(o.validity_holds(Value::new(4)));
        assert_eq!(o.good_case_rounds(), Some(1), "that is the overclaim");
    }
}
