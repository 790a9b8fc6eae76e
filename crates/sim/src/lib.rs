//! Deterministic discrete-event execution substrate.
//!
//! This crate is the paper's execution model (Section 2) made runnable:
//!
//! * **Parties** implement [`Protocol`] (honest code) or [`Strategy`]
//!   (arbitrary, possibly Byzantine code — every `Protocol` is also a
//!   `Strategy`). Parties interact with the world only through a
//!   [`Context`]: local clock, sends, timers, commit/terminate.
//! * **The adversary** controls message delays through a [`DelayOracle`],
//!   constrained by the run's [`TimingModel`] exactly as the paper
//!   prescribes: delays between honest parties are clamped to `[0, δ]`
//!   under synchrony and to "≤ Δ after GST" under partial synchrony, while
//!   links touching a Byzantine party are unconstrained (a Byzantine party
//!   "postponing sending or reading" simulates any delay, including ∞).
//! * **Clocks** may be skewed: each party starts at its own global instant
//!   per a [`gcl_types::SkewSchedule`] (σ = 0 is the synchronized-start
//!   model); all protocol-visible time is the party's *local* clock.
//! * **Latency** is recorded both in microseconds (synchronous good-case
//!   latency, Definition 6) and in *asynchronous rounds* (Definitions 9–10:
//!   causal message depth), so every row of Table 1 is measurable.
//!
//! # Examples
//!
//! Run a trivial one-round "echo" protocol on four parties:
//!
//! ```
//! use gcl_sim::{Context, FixedDelay, Protocol, Simulation, TimingModel};
//! use gcl_types::{Config, Duration, PartyId, Value};
//!
//! struct Echo;
//! impl Protocol for Echo {
//!     type Msg = Value;
//!     fn start(&mut self, ctx: &mut dyn Context<Value>) {
//!         if ctx.me() == PartyId::new(0) {
//!             ctx.multicast(Value::new(7));
//!         }
//!     }
//!     fn on_message(&mut self, _from: PartyId, v: Value, ctx: &mut dyn Context<Value>) {
//!         ctx.commit(v);
//!         ctx.terminate();
//!     }
//! }
//!
//! let cfg = Config::new(4, 1)?;
//! let outcome = Simulation::build(cfg)
//!     .timing(TimingModel::Asynchrony)
//!     .oracle(FixedDelay::new(Duration::from_micros(10)))
//!     .spawn_honest(|_| Echo)
//!     .run();
//! assert!(outcome.agreement_holds());
//! assert_eq!(outcome.committed_value(), Some(Value::new(7)));
//! # Ok::<(), gcl_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod backend;
mod context;
mod event;
mod network;
mod outcome;
mod runner;
mod scenario;
mod strategies;
mod sweep;

pub use backend::{Backend, ErasedMsg, ErasedSlot, MsgCodec};
pub use context::{Context, Protocol, Strategy};
#[doc(hidden)]
pub use event::{queue_stress, TraceEntry};
pub use network::{
    DelayOracle, DelayRule, FixedDelay, LinkDelay, MsgEnvelope, PartySet, RandomDelay,
    ScheduleOracle, TimingModel,
};
pub use outcome::{CommitRecord, Outcome, SchedCounters};
pub use runner::{Simulation, SimulationBuilder};
pub use scenario::{
    Admission, AdversaryMix, AdversaryRole, DelayChoice, FamilyParams, ScenarioError,
    ScenarioFamily, ScenarioRegistry, ScenarioSpec, SkewChoice, ValidityMode,
};
pub use strategies::{Crashing, Scripted, ScriptedAction, Silent};
pub use sweep::{CellReport, Sweep, SweepReport};
