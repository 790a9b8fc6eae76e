//! Generic, protocol-agnostic Byzantine strategies.
//!
//! Protocol-*specific* attacks (equivocating broadcasters, double voters …)
//! live next to each protocol in `gcl-core`; the strategies here apply to
//! any message type.

use crate::context::{Context, Strategy};
use gcl_types::{LocalTime, PartyId};
use std::fmt;

/// Sends nothing, ever — a crash-from-start / mute party.
///
/// # Examples
///
/// ```
/// use gcl_sim::Silent;
/// let s: Silent<u64> = Silent::new();
/// # let _ = s;
/// ```
pub struct Silent<M> {
    _marker: std::marker::PhantomData<fn() -> M>,
}

impl<M> Silent<M> {
    /// A fresh silent party.
    pub fn new() -> Self {
        Silent {
            _marker: std::marker::PhantomData,
        }
    }
}

impl<M> Default for Silent<M> {
    fn default() -> Self {
        Self::new()
    }
}

impl<M> fmt::Debug for Silent<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Silent")
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> Strategy<M> for Silent<M> {
    fn start(&mut self, _ctx: &mut dyn Context<M>) {}
    fn on_message(&mut self, _from: PartyId, _msg: M, _ctx: &mut dyn Context<M>) {}
    fn on_timer(&mut self, _tag: u64, _ctx: &mut dyn Context<M>) {}
}

/// Runs the inner strategy honestly, then crashes after handling
/// `crash_after` events — failure injection at every protocol step.
///
/// The crash is real: on the first event past the budget the wrapper
/// terminates its slot (instead of merely going silent), so the runtime
/// stops delivering to it and — on the simulator — discards further sends
/// to it at enqueue time (`Outcome::drops_at_enqueue`).
pub struct Crashing<S> {
    inner: S,
    crash_after: usize,
    handled: usize,
}

impl<S> Crashing<S> {
    /// Crash after `crash_after` handled events (0 = never acts at all).
    pub fn new(inner: S, crash_after: usize) -> Self {
        Crashing {
            inner,
            crash_after,
            handled: 0,
        }
    }

    fn alive(&mut self) -> bool {
        if self.handled >= self.crash_after {
            return false;
        }
        self.handled += 1;
        true
    }
}

impl<S: fmt::Debug> fmt::Debug for Crashing<S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Crashing")
            .field("inner", &self.inner)
            .field("crash_after", &self.crash_after)
            .field("handled", &self.handled)
            .finish()
    }
}

impl<M, S: Strategy<M>> Strategy<M> for Crashing<S>
where
    M: Clone + fmt::Debug + Send + 'static,
{
    fn start(&mut self, ctx: &mut dyn Context<M>) {
        if self.alive() {
            self.inner.start(ctx);
        } else {
            ctx.terminate();
        }
    }
    fn on_message(&mut self, from: PartyId, msg: M, ctx: &mut dyn Context<M>) {
        if self.alive() {
            self.inner.on_message(from, msg, ctx);
        } else {
            ctx.terminate();
        }
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<M>) {
        if self.alive() {
            self.inner.on_timer(tag, ctx);
        } else {
            ctx.terminate();
        }
    }
}

/// One scripted action: at a local time, send a message to a party.
#[derive(Debug, Clone)]
pub struct ScriptedAction<M> {
    /// Local time at which to act.
    pub at: LocalTime,
    /// Recipient.
    pub to: PartyId,
    /// Message to send.
    pub msg: M,
}

/// Plays back an exact script of sends — the building block for the paper's
/// lower-bound executions, where the adversary's behavior is specified
/// message by message.
///
/// Incoming messages and protocol logic are ignored entirely.
pub struct Scripted<M> {
    actions: Vec<ScriptedAction<M>>,
}

impl<M> Scripted<M> {
    /// A strategy that performs exactly `actions` (in `at` order or not —
    /// each is scheduled independently).
    pub fn new(actions: Vec<ScriptedAction<M>>) -> Self {
        Scripted { actions }
    }

    /// Convenience: send `msg` to each listed party at `at`.
    pub fn multicast_at(at: LocalTime, recipients: &[PartyId], msg: M) -> Self
    where
        M: Clone,
    {
        Scripted {
            actions: recipients
                .iter()
                .map(|&to| ScriptedAction {
                    at,
                    to,
                    msg: msg.clone(),
                })
                .collect(),
        }
    }
}

impl<M: fmt::Debug> fmt::Debug for Scripted<M> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scripted")
            .field("actions", &self.actions.len())
            .finish()
    }
}

impl<M: Clone + fmt::Debug + Send + 'static> Strategy<M> for Scripted<M> {
    fn start(&mut self, ctx: &mut dyn Context<M>) {
        for (i, a) in self.actions.iter().enumerate() {
            ctx.set_timer(a.at.since(LocalTime::ZERO), i as u64);
        }
    }
    fn on_message(&mut self, _from: PartyId, _msg: M, _ctx: &mut dyn Context<M>) {}
    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<M>) {
        if let Some(a) = self.actions.get(tag as usize) {
            ctx.send(a.to, a.msg.clone());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::network::FixedDelay;
    use crate::runner::Simulation;
    use crate::Protocol;
    use gcl_types::{Config, Duration, GlobalTime, Value};

    struct Sink;
    impl Protocol for Sink {
        type Msg = Value;
        fn start(&mut self, _ctx: &mut dyn Context<Value>) {}
        fn on_message(&mut self, _from: PartyId, v: Value, ctx: &mut dyn Context<Value>) {
            ctx.commit(v);
            ctx.terminate();
        }
    }

    #[test]
    fn scripted_sends_at_exact_times() {
        let cfg = Config::new(2, 1).unwrap();
        let script = Scripted::new(vec![ScriptedAction {
            at: LocalTime::from_micros(40),
            to: PartyId::new(1),
            msg: Value::new(8),
        }]);
        let o = Simulation::build(cfg)
            .oracle(FixedDelay::new(Duration::from_micros(5)))
            .byzantine(PartyId::new(0), script)
            .spawn_honest(|_| Sink)
            .run();
        let c = o.commit_of(PartyId::new(1)).unwrap();
        assert_eq!(c.global, GlobalTime::from_micros(45));
        assert_eq!(c.value, Value::new(8));
    }

    #[test]
    fn silent_party_never_sends() {
        let cfg = Config::new(2, 1).unwrap();
        let o = Simulation::build(cfg)
            .byzantine(PartyId::new(0), Silent::new())
            .spawn_honest(|_| Sink)
            .run();
        assert!(o.commits().is_empty());
    }

    #[test]
    fn crashing_stops_after_budget() {
        struct Chatty;
        impl Protocol for Chatty {
            type Msg = Value;
            fn start(&mut self, ctx: &mut dyn Context<Value>) {
                ctx.set_timer(Duration::from_micros(1), 0);
            }
            fn on_message(&mut self, _: PartyId, _: Value, _: &mut dyn Context<Value>) {}
            fn on_timer(&mut self, _tag: u64, ctx: &mut dyn Context<Value>) {
                ctx.send(PartyId::new(1), Value::new(1));
                ctx.set_timer(Duration::from_micros(1), 0);
            }
        }
        let cfg = Config::new(2, 1).unwrap();
        // Budget 3: start + two timer firings => exactly one send reaches P1
        // (second timer handler sends, then it crashes on the next).
        let o = Simulation::build(cfg)
            .oracle(FixedDelay::new(Duration::from_micros(1)))
            .byzantine(PartyId::new(0), Crashing::new(Chatty, 3))
            .spawn_honest(|_| Sink)
            .run();
        assert!(o.commit_of(PartyId::new(1)).is_some());
    }

    #[test]
    fn crashing_with_zero_budget_is_silent() {
        let cfg = Config::new(2, 1).unwrap();
        let o = Simulation::build(cfg)
            .byzantine(PartyId::new(0), Crashing::new(Silent::<Value>::new(), 0))
            .spawn_honest(|_| Sink)
            .run();
        assert!(o.commits().is_empty());
    }

    #[test]
    fn debug_impls() {
        assert_eq!(format!("{:?}", Silent::<Value>::new()), "Silent");
        let c = Crashing::new(Silent::<Value>::new(), 2);
        assert!(format!("{c:?}").contains("crash_after: 2"));
        let s = Scripted::<Value>::new(vec![]);
        assert!(format!("{s:?}").contains("actions: 0"));
    }
}
