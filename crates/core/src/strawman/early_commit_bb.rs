//! The early-commit synchronous BB strawman broken by Theorem 9.
//!
//! At `f = n/3` it commits on `n − f` votes the moment they arrive —
//! skipping Figure 5's Δ equivocation-detection window. Its good case is
//! a tempting `2δ < Δ + δ`; the Theorem 9 execution (equivocating
//! broadcaster + double-voting accomplices) makes two honest parties
//! commit different values before any cross-traffic can warn them.

use crate::{SignedValue, Tally};
use gcl_crypto::{Signer, Verifier};
use gcl_sim::{Context, Protocol};
use gcl_types::{Config, PartyId, Value};

/// Wire messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EarlyMsg {
    /// Proposal (unsigned — the strawman's voters trust the sender id).
    Propose(Value),
    /// Signed vote (domain `EarlyCommitBb::VOTE`; Figure 5's shape without
    /// the embedded proposal).
    Vote(SignedValue),
}

gcl_types::wire_enum!(EarlyMsg {
    1 => Propose(value),
    2 => Vote(vote),
});

/// One party of the early-commit strawman.
#[derive(Debug)]
pub struct EarlyCommitBb {
    config: Config,
    signer: Signer,
    verifier: Verifier,
    broadcaster: PartyId,
    input: Option<Value>,
    voted: bool,
    committed: bool,
    votes: Tally<Value, ()>,
}

impl EarlyCommitBb {
    /// The domain a vote is signed under.
    pub(crate) const VOTE: &'static str = "early-vote";

    /// Creates the party-side state.
    pub fn new(
        config: Config,
        signer: Signer,
        verifier: impl Into<Verifier>,
        broadcaster: PartyId,
        input: Option<Value>,
    ) -> Self {
        assert_eq!(input.is_some(), signer.id() == broadcaster);
        EarlyCommitBb {
            config,
            signer,
            verifier: verifier.into(),
            broadcaster,
            input,
            voted: false,
            committed: false,
            votes: Tally::new(),
        }
    }
}

impl Protocol for EarlyCommitBb {
    type Msg = EarlyMsg;

    fn start(&mut self, ctx: &mut dyn Context<EarlyMsg>) {
        if let Some(v) = self.input {
            ctx.multicast(EarlyMsg::Propose(v));
        }
    }

    fn on_message(&mut self, from: PartyId, msg: EarlyMsg, ctx: &mut dyn Context<EarlyMsg>) {
        match msg {
            EarlyMsg::Propose(v) => {
                if from == self.broadcaster && !self.voted {
                    self.voted = true;
                    let vote = SignedValue::new(Self::VOTE, &self.signer, v);
                    ctx.multicast(EarlyMsg::Vote(vote));
                }
            }
            EarlyMsg::Vote(vote) => {
                if !vote.verify_embedded(Self::VOTE, &self.verifier) {
                    return;
                }
                let Ok(count) = self.votes.insert(vote.value, vote.signer(), ()) else {
                    return;
                };
                if count >= self.config.quorum() && !self.committed {
                    self.committed = true;
                    ctx.commit(vote.value); // no Δ wait: the flaw
                    ctx.terminate();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_crypto::Keychain;
    use gcl_sim::{FixedDelay, Simulation, TimingModel};
    use gcl_types::Duration;

    #[test]
    fn good_case_two_delta_thats_the_overclaim() {
        let cfg = Config::new(3, 1).unwrap();
        let chain = Keychain::generate(3, 112);
        let d = Duration::from_micros(100);
        let o = Simulation::build(cfg)
            .timing(TimingModel::Synchrony {
                delta: d,
                big_delta: Duration::from_micros(1_000),
            })
            .oracle(FixedDelay::new(d))
            .spawn_honest(|p| {
                EarlyCommitBb::new(
                    cfg,
                    chain.signer(p),
                    chain.pki(),
                    PartyId::new(0),
                    (p == PartyId::new(0)).then_some(Value::new(2)),
                )
            })
            .run();
        assert!(o.validity_holds(Value::new(2)));
        // 2δ < Δ + δ — below the Theorem 9 bound for f = n/3.
        assert_eq!(o.good_case_latency(), Some(d * 2));
    }
}
