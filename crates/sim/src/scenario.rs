//! The scenario layer: one declarative [`ScenarioSpec`] drives every
//! protocol family.
//!
//! Before this layer existed, every consumer of a protocol (benches,
//! examples, integration suites) hand-wired its own `Simulation::build`
//! glue: timing model, oracle, skew schedule, Byzantine slots, keychain,
//! constructor call. Adding a protocol variant meant editing six call
//! sites. Now a protocol family registers **once** (a key, a resilience
//! band, and a spec-driven constructor) in a [`ScenarioRegistry`], and
//! every consumer — tables, figures, throughput rows, property tests, the
//! parallel [`crate::Sweep`] grid — builds [`ScenarioSpec`] values and asks
//! the registry to run them.
//!
//! The spec is fully declarative and deterministic: the same spec always
//! produces the same [`Outcome`], including its seeded adversary mixes
//! (random Byzantine subsets, crash schedules), seeded in-model delay
//! oracles and seeded clock skews.
//!
//! # Examples
//!
//! Registering and running a family:
//!
//! ```
//! use gcl_sim::{
//!     Admission, Context, Protocol, ScenarioRegistry, ScenarioSpec, ValidityMode,
//! };
//! use gcl_types::{PartyId, Value};
//!
//! struct Echo {
//!     input: Option<Value>,
//! }
//! impl Protocol for Echo {
//!     type Msg = Value;
//!     fn start(&mut self, ctx: &mut dyn Context<Value>) {
//!         if let Some(v) = self.input {
//!             ctx.multicast(v);
//!         }
//!     }
//!     fn on_message(&mut self, _from: PartyId, v: Value, ctx: &mut dyn Context<Value>) {
//!         ctx.commit(v);
//!         ctx.terminate();
//!     }
//! }
//!
//! let mut reg = ScenarioRegistry::new();
//! reg.register_fn(
//!     "echo",
//!     "one-round flood baseline",
//!     Admission::Any,
//!     ValidityMode::Broadcast,
//!     ScenarioSpec::asynchronous("echo", 4, 1),
//!     |spec, backend| {
//!         spec.run_protocol_on(backend, |p| Echo { input: spec.input_for(p) })
//!     },
//! );
//! let outcome = reg.run(&reg.spec("echo").unwrap()).unwrap();
//! assert!(outcome.agreement_holds());
//! ```
//!
//! The `backend` parameter is what makes a registration execution-target
//! agnostic: [`ScenarioRegistry::run`] passes the inline simulator, while
//! [`ScenarioRegistry::run_on`] can pass any other [`Backend`] (e.g.
//! `gcl_net`'s `AsyncBackend`) and the same one-line registration runs
//! there too.

use crate::backend::{Backend, Erase, ErasedMsg, ErasedSlot, MsgCodec, SimBackend};
use crate::context::Protocol;
use crate::network::{FixedDelay, RandomDelay, TimingModel};
use crate::outcome::Outcome;
use crate::runner::{Simulation, SimulationBuilder};
use crate::strategies::{Crashing, Silent};
use gcl_types::{Config, ConfigError, Duration, GlobalTime, PartyId, SkewSchedule, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::fmt;
use std::fmt::Debug;

/// Seed salt for the adversary-placement RNG (kept distinct from the
/// delay and skew streams so the three draws are independent).
const ADVERSARY_SALT: u64 = 0xad5e_ea17_0000_0001;
/// Seed salt for the delay-oracle RNG.
const DELAY_SALT: u64 = 0xde1a_ea17_0000_0002;
/// Seed salt for the skew-schedule RNG.
const SKEW_SALT: u64 = 0x5cec_ea17_0000_0003;

/// SplitMix64 step — the canonical way to derive independent sub-seeds.
fn mix_seed(seed: u64) -> u64 {
    let mut z = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The timing-model shape of a scenario; [`ScenarioSpec::delta`] /
/// [`ScenarioSpec::big_delta`] supply the bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum TimingKind {
    /// Arbitrary finite delays.
    Asynchrony,
    /// GST = 0, post-GST bound `big_delta`.
    PartialSynchrony,
    /// Actual bound `delta`, conservative bound `big_delta`. With
    /// `delta == big_delta` this is the classical lock-step model.
    Synchrony,
}

/// How the delay oracle behaves within the timing model.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DelayChoice {
    /// Every message takes exactly [`ScenarioSpec::delta`] — the canonical
    /// good-case schedule behind every measured table row.
    Fixed,
    /// Per-message delays drawn uniformly from `[lo, hi]`, seeded from the
    /// spec (the runner still clamps to the timing model on honest links).
    Uniform {
        /// Lower bound of the draw.
        lo: Duration,
        /// Upper bound of the draw.
        hi: Duration,
    },
}

/// Per-party protocol start skew.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SkewChoice {
    /// Synchronized start (σ = 0).
    Synchronized,
    /// Odd-indexed parties start `δ/2` late — the canonical worst-ish-case
    /// schedule of the Figure 9 unsynchronized-start measurements.
    OddHalfDelta,
    /// Every non-broadcaster party starts late by a seeded uniform draw
    /// from `[0, max]`.
    Random {
        /// Largest admissible lateness.
        max: Duration,
    },
}

/// The Byzantine population of a scenario. All placements and crash
/// budgets derive deterministically from [`ScenarioSpec::seed`]; subset
/// sizes are always clamped to the spec's fault budget `f` — except
/// [`AdversaryMix::CrashAt`], which is deliberate failure injection and
/// may target any party (even beyond the budget, e.g. at `f = 0`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryMix {
    /// All parties honest.
    None,
    /// The trailing `min(count, f)` slots (highest ids) run [`Silent`] —
    /// the canonical dishonest-majority schedule.
    TrailingSilent {
        /// Requested subset size (clamped to `f`; `u32::MAX` = "all `f`").
        count: u32,
    },
    /// A seeded random subset of `min(count, f)` parties runs [`Silent`].
    RandomSilent {
        /// Requested subset size (clamped to `f`).
        count: u32,
    },
    /// A seeded random subset of `min(count, f)` parties runs the honest
    /// code wrapped in [`Crashing`], each with a seeded crash budget drawn
    /// from `[0, max_handled]` handled events.
    RandomCrashing {
        /// Requested subset size (clamped to `f`).
        count: u32,
        /// Largest crash budget any chosen party may draw.
        max_handled: u32,
    },
    /// One specific party runs the honest code wrapped in [`Crashing`]
    /// with an exact crash budget — deterministic failure injection,
    /// exempt from the `≤ f` clamp. The registry rejects a party id
    /// outside `0..n` at validation time.
    CrashAt {
        /// The crashing party.
        party: PartyId,
        /// Events it handles before going silent.
        handled: u32,
    },
    /// A kill schedule for leader-rotation fault injection: the first
    /// `min(count, f)` parties — the round-robin leaders of views
    /// 1, 2, … — run the honest code wrapped in [`Crashing`], with party
    /// `i` crashing after `first_handled + i × stagger` handled events.
    /// The result is `k ≤ f` *successive* leaders dying mid-run, each a
    /// little later than its predecessor, so every crash lands on the
    /// party currently holding proposal rights.
    LeaderCascade {
        /// Requested cascade length (clamped to `f`).
        count: u32,
        /// Crash budget of the first leader (party 0).
        first_handled: u32,
        /// Additional handled events each successive leader survives.
        stagger: u32,
    },
}

/// Family-specific tuning knobs that do not warrant their own family key.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FamilyParams {
    /// Early-vote grid resolution (the Figure 8/9 `m`).
    pub m: u64,
    /// Workload length for log-replication families.
    pub commands: u64,
    /// Pipeline depth for log-replication families.
    pub pipeline: usize,
    /// Max commands per proposed batch for log-replication families.
    pub batch: usize,
}

impl Default for FamilyParams {
    fn default() -> Self {
        FamilyParams {
            m: 10,
            commands: 50,
            pipeline: 4,
            batch: 4,
        }
    }
}

/// A resilience band: which `(n, f)` shapes a family admits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// `n ≥ 3f + 1`, `f ≥ 1` (BRB / psync-BB solvable).
    Brb,
    /// `n ≥ 5f − 1`, `f ≥ 1` (2-round psync-BB solvable).
    TwoRoundPsync,
    /// `0 < f < n/3`.
    UnderThird,
    /// `f = n/3` exactly.
    ExactThird,
    /// `n/3 < f < n/2`.
    ThirdToHalf,
    /// `n/2 ≤ f < n`.
    Majority,
    /// Any valid [`Config`] (including `f = 0`).
    Any,
}

impl Admission {
    /// Whether the band admits `(n, f)`.
    pub fn admits(&self, n: usize, f: usize) -> bool {
        let Ok(cfg) = Config::new(n, f) else {
            return false;
        };
        match self {
            Admission::Brb | Admission::UnderThird => f >= 1 && cfg.supports_brb(),
            Admission::TwoRoundPsync => f >= 1 && cfg.supports_two_round_psync(),
            Admission::ExactThird => f >= 1 && 3 * f == n,
            Admission::ThirdToHalf => 3 * f > n && 2 * f < n,
            Admission::Majority => 2 * f >= n,
            Admission::Any => true,
        }
    }

    /// The band rendered the way Table 1 renders it.
    pub fn describe(&self) -> &'static str {
        match self {
            Admission::Brb => "n >= 3f+1",
            Admission::TwoRoundPsync => "n >= 5f-1",
            Admission::UnderThird => "0 < f < n/3",
            Admission::ExactThird => "f = n/3",
            Admission::ThirdToHalf => "n/3 < f < n/2",
            Admission::Majority => "n/2 <= f < n",
            Admission::Any => "any f < n",
        }
    }
}

/// What "validity" means when auditing a family's [`Outcome`] (used by the
/// sweep engine and the property suites).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ValidityMode {
    /// Broadcast validity: while the broadcaster slot is honest, every
    /// honest commit must equal [`ScenarioSpec::input`].
    Broadcast,
    /// Only agreement is audited (multi-shot families whose commit values
    /// are workload-derived, not the broadcast input).
    AgreementOnly,
}

/// One fully-described executable scenario cell.
///
/// Everything the run needs is in here: the protocol family key, the
/// system shape, the timing model and its bounds, the adversary mix, the
/// delay and skew choices, the broadcaster, the input, the RNG seed (which
/// also seeds the family's keychain) and family-specific params. Specs are
/// plain data — clone them, mutate fields, put them in grids.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioSpec {
    /// Registered family key.
    pub family: &'static str,
    /// Number of parties.
    pub n: usize,
    /// Fault budget.
    pub f: usize,
    /// Timing-model shape.
    pub(crate) timing: TimingKind,
    /// Actual delay bound δ (also the fixed-oracle delay).
    pub delta: Duration,
    /// Conservative bound Δ handed to protocols that take one.
    pub big_delta: Duration,
    /// Delay-oracle behavior.
    pub(crate) delays: DelayChoice,
    /// Byzantine population.
    pub adversary: AdversaryMix,
    /// Start-time skew.
    pub(crate) skew: SkewChoice,
    /// Designated broadcaster.
    pub broadcaster: PartyId,
    /// The broadcast input value.
    pub input: Value,
    /// Master seed: keychain generation, adversary placement, crash
    /// budgets, random delays and random skews all derive from it.
    pub seed: u64,
    /// Family-specific knobs.
    pub params: FamilyParams,
}

impl ScenarioSpec {
    /// A spec with the canonical δ = 100µs / Δ = 1000µs split and every
    /// other field at its default (fixed delays, no adversary, no skew,
    /// broadcaster 0, input 42, seed 0).
    pub(crate) fn new(family: &'static str, timing: TimingKind, n: usize, f: usize) -> Self {
        ScenarioSpec {
            family,
            n,
            f,
            timing,
            delta: Duration::from_micros(100),
            big_delta: Duration::from_micros(1_000),
            delays: DelayChoice::Fixed,
            adversary: AdversaryMix::None,
            skew: SkewChoice::Synchronized,
            broadcaster: PartyId::new(0),
            input: Value::new(42),
            seed: 0,
            params: FamilyParams::default(),
        }
    }

    /// An asynchronous spec (δ = 100µs fixed-delay oracle).
    pub fn asynchronous(family: &'static str, n: usize, f: usize) -> Self {
        ScenarioSpec::new(family, TimingKind::Asynchrony, n, f)
    }

    /// A partially synchronous spec with Δ = δ = 100µs (the canonical
    /// good-case psync measurement: the known bound matches the network).
    pub fn psync(family: &'static str, n: usize, f: usize) -> Self {
        ScenarioSpec::new(family, TimingKind::PartialSynchrony, n, f)
            .with_bounds(Duration::from_micros(100), Duration::from_micros(100))
    }

    /// A synchronous spec with the canonical δ = 100µs ≪ Δ = 1000µs split.
    pub fn synchronous(family: &'static str, n: usize, f: usize) -> Self {
        ScenarioSpec::new(family, TimingKind::Synchrony, n, f)
    }

    /// A lock-step synchronous spec (δ = Δ = `step`).
    pub fn lockstep(family: &'static str, n: usize, f: usize, step: Duration) -> Self {
        ScenarioSpec::new(family, TimingKind::Synchrony, n, f).with_bounds(step, step)
    }

    /// Replaces the `(n, f)` shape.
    #[must_use]
    pub fn with_shape(mut self, n: usize, f: usize) -> Self {
        self.n = n;
        self.f = f;
        self
    }

    /// Replaces δ and Δ.
    #[must_use]
    pub fn with_bounds(mut self, delta: Duration, big_delta: Duration) -> Self {
        self.delta = delta;
        self.big_delta = big_delta;
        self
    }

    /// Replaces the master seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Replaces the adversary mix.
    #[must_use]
    pub fn with_adversary(mut self, adversary: AdversaryMix) -> Self {
        self.adversary = adversary;
        self
    }

    /// Replaces the delay choice.
    #[must_use]
    pub fn with_delays(mut self, delays: DelayChoice) -> Self {
        self.delays = delays;
        self
    }

    /// Replaces the skew choice.
    #[must_use]
    pub fn with_skew(mut self, skew: SkewChoice) -> Self {
        self.skew = skew;
        self
    }

    /// Replaces the broadcast input.
    #[must_use]
    pub fn with_input(mut self, input: Value) -> Self {
        self.input = input;
        self
    }

    /// Replaces the grid resolution `m`.
    #[must_use]
    pub fn with_m(mut self, m: u64) -> Self {
        self.params.m = m;
        self
    }

    /// Replaces the log-replication workload shape.
    #[must_use]
    pub fn with_workload(mut self, commands: u64, pipeline: usize) -> Self {
        self.params.commands = commands;
        self.params.pipeline = pipeline;
        self
    }

    /// Replaces the log-replication proposal batch size.
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> Self {
        self.params.batch = batch;
        self
    }

    /// The `(n, f)` configuration.
    ///
    /// # Errors
    ///
    /// Propagates [`ConfigError`] for nonsensical shapes.
    pub fn config(&self) -> Result<Config, ConfigError> {
        Config::new(self.n, self.f)
    }

    /// The spec's input if `p` is the broadcaster (the shape every
    /// protocol constructor takes).
    pub fn input_for(&self, p: PartyId) -> Option<Value> {
        (p == self.broadcaster).then_some(self.input)
    }

    /// The concrete [`TimingModel`].
    pub(crate) fn timing_model(&self) -> TimingModel {
        match self.timing {
            TimingKind::Asynchrony => TimingModel::Asynchrony,
            TimingKind::PartialSynchrony => TimingModel::PartialSynchrony {
                gst: GlobalTime::ZERO,
                big_delta: self.big_delta,
            },
            TimingKind::Synchrony => TimingModel::Synchrony {
                delta: self.delta,
                big_delta: self.big_delta,
            },
        }
    }

    /// The concrete [`SkewSchedule`].
    pub fn skew_schedule(&self) -> SkewSchedule {
        match self.skew {
            SkewChoice::Synchronized => SkewSchedule::synchronized(self.n),
            SkewChoice::OddHalfDelta => {
                let late: Vec<(PartyId, Duration)> = (1..self.n as u32)
                    .filter(|i| i % 2 == 1)
                    .map(|i| (PartyId::new(i), self.delta.halved()))
                    .collect();
                SkewSchedule::with_late_parties(self.n, &late)
            }
            SkewChoice::Random { max } => {
                let mut rng = StdRng::seed_from_u64(self.seed ^ SKEW_SALT);
                let late: Vec<(PartyId, Duration)> = (0..self.n as u32)
                    .map(PartyId::new)
                    .filter(|&p| p != self.broadcaster)
                    .map(|p| {
                        let us = rng.gen_range(0..=max.as_micros());
                        (p, Duration::from_micros(us))
                    })
                    .collect();
                SkewSchedule::with_late_parties(self.n, &late)
            }
        }
    }

    /// The Byzantine slots of this spec, ascending, with each slot's role.
    /// Deterministic in the seed; subset sizes are clamped to `f`.
    pub fn adversary_slots(&self) -> Vec<(PartyId, AdversaryRole)> {
        let clamp = |count: u32| (count as usize).min(self.f);
        match self.adversary {
            AdversaryMix::None => Vec::new(),
            AdversaryMix::TrailingSilent { count } => {
                let k = clamp(count);
                (self.n - k..self.n)
                    .map(|i| (PartyId::new(i as u32), AdversaryRole::Silent))
                    .collect()
            }
            AdversaryMix::RandomSilent { count } => {
                let mut rng = StdRng::seed_from_u64(self.seed ^ ADVERSARY_SALT);
                sample_distinct(&mut rng, self.n, clamp(count))
                    .into_iter()
                    .map(|i| (PartyId::new(i), AdversaryRole::Silent))
                    .collect()
            }
            AdversaryMix::RandomCrashing { count, max_handled } => {
                let mut rng = StdRng::seed_from_u64(self.seed ^ ADVERSARY_SALT);
                let slots = sample_distinct(&mut rng, self.n, clamp(count));
                // Budgets are drawn after placement, in slot order, so the
                // stream is stable under subset-size changes.
                slots
                    .into_iter()
                    .map(|i| {
                        let handled = rng.gen_range(0..=max_handled);
                        (PartyId::new(i), AdversaryRole::Crash { handled })
                    })
                    .collect()
            }
            AdversaryMix::CrashAt { party, handled } => {
                vec![(party, AdversaryRole::Crash { handled })]
            }
            AdversaryMix::LeaderCascade {
                count,
                first_handled,
                stagger,
            } => (0..clamp(count) as u32)
                .map(|i| {
                    (
                        PartyId::new(i),
                        AdversaryRole::Crash {
                            handled: first_handled + i * stagger,
                        },
                    )
                })
                .collect(),
        }
    }

    /// The simulation builder this spec describes: timing model, delay
    /// oracle, skew schedule and broadcaster installed, slots still empty.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not a valid [`Config`] (the registry's
    /// [`ScenarioRegistry::run`] validates shapes before getting here).
    pub(crate) fn sim_builder<M: Clone + Debug + Send + 'static>(&self) -> SimulationBuilder<M> {
        let cfg = self.config().expect("spec shape must be a valid Config");
        let b = Simulation::build::<M>(cfg)
            .timing(self.timing_model())
            .skew(self.skew_schedule())
            .broadcaster(self.broadcaster)
            // The spec's δ sizes the calendar queue's buckets, so one
            // fixed-delay multicast lands in a single time slot.
            .queue_delta(self.delta);
        match self.delays {
            DelayChoice::Fixed => b.oracle(FixedDelay::new(self.delta)),
            DelayChoice::Uniform { lo, hi } => {
                b.oracle(RandomDelay::new(lo, hi, self.seed ^ DELAY_SALT))
            }
        }
    }

    /// Assembles and runs the simulation this spec describes around the
    /// family's honest protocol constructor. This is the one place where a
    /// family's message-type generic meets the type-erased spec: timing
    /// model, delay oracle, skew, Byzantine slots (silent or crashing
    /// wrappers around `make`) and honest spawning all come from the spec.
    ///
    /// # Panics
    ///
    /// Panics if the shape is not a valid [`Config`] (the registry's
    /// [`ScenarioRegistry::run`] validates shapes before getting here).
    pub(crate) fn run_protocol<P: Protocol>(&self, mut make: impl FnMut(PartyId) -> P) -> Outcome {
        let mut b = self.sim_builder::<P::Msg>();
        for (p, role) in self.adversary_slots() {
            b = match role {
                AdversaryRole::Silent => b.byzantine(p, Silent::<P::Msg>::new()),
                AdversaryRole::Crash { handled } => {
                    b.byzantine(p, Crashing::new(make(p), handled as usize))
                }
            };
        }
        b.spawn_honest(make).run()
    }

    /// Runs this spec on an arbitrary [`Backend`] — the execution-target-
    /// agnostic form of `ScenarioSpec::run_protocol` that registered
    /// family closures call. The native simulator backend takes the
    /// erasure-free hot loop; every other backend receives the spec's
    /// party slots type-erased via [`ScenarioSpec::erased_slots`] plus the
    /// [`MsgCodec`] that round-trips the family's message type through
    /// bytes (this is the one place that still sees the `P::Msg` generic,
    /// so it is where the codec gets monomorphized).
    ///
    /// # Panics
    ///
    /// Panics if the shape is not a valid [`Config`].
    pub fn run_protocol_on<P: Protocol>(
        &self,
        backend: &dyn Backend,
        make: impl FnMut(PartyId) -> P,
    ) -> Outcome {
        if backend.native_sim() {
            self.run_protocol(make)
        } else {
            backend.execute(self, self.erased_slots(make), MsgCodec::of::<P::Msg>())
        }
    }

    /// The spec's `n` party slots, type-erased for a [`Backend`]: honest
    /// slots wrap `make(p)`, Byzantine slots per
    /// [`ScenarioSpec::adversary_slots`] get [`Silent`] or a [`Crashing`]
    /// wrapper around the honest code — exactly the population
    /// `ScenarioSpec::run_protocol` spawns inline.
    pub fn erased_slots<P: Protocol>(&self, mut make: impl FnMut(PartyId) -> P) -> Vec<ErasedSlot> {
        let mut roles: Vec<Option<AdversaryRole>> = vec![None; self.n];
        for (p, role) in self.adversary_slots() {
            roles[p.as_usize()] = Some(role);
        }
        roles
            .into_iter()
            .enumerate()
            .map(|(i, role)| {
                let p = PartyId::new(i as u32);
                match role {
                    None => ErasedSlot {
                        strategy: Box::new(Erase::<P::Msg, P>::new(make(p))),
                        honest: true,
                    },
                    Some(AdversaryRole::Silent) => ErasedSlot {
                        strategy: Box::new(Silent::<ErasedMsg>::new()),
                        honest: false,
                    },
                    Some(AdversaryRole::Crash { handled }) => ErasedSlot {
                        strategy: Box::new(Erase::<P::Msg, _>::new(Crashing::new(
                            make(p),
                            handled as usize,
                        ))),
                        honest: false,
                    },
                }
            })
            .collect()
    }

    /// The per-link delivery delays (`from * n + to` indexing, self-links
    /// zero) a wall-clock backend should inject for this spec — the
    /// deterministic analogue of the simulator's per-message oracle:
    /// [`DelayChoice::Fixed`] puts δ on every inter-party link, while
    /// [`DelayChoice::Uniform`] draws one seeded delay per link from
    /// `[lo, hi]`. Either way the draw is clamped to the timing model's
    /// honest bound (δ under synchrony, Δ under partial synchrony), so a
    /// jittered wall-clock run stays inside the model the protocol was
    /// promised.
    pub fn link_delays(&self) -> Vec<Duration> {
        let n = self.n;
        let cap = match self.timing {
            TimingKind::Synchrony => Some(self.delta),
            TimingKind::PartialSynchrony => Some(self.big_delta),
            TimingKind::Asynchrony => None,
        };
        let mut rng = StdRng::seed_from_u64(self.seed ^ DELAY_SALT);
        let mut links = vec![Duration::ZERO; n * n];
        for from in 0..n {
            for to in 0..n {
                if from == to {
                    continue;
                }
                let d = match self.delays {
                    DelayChoice::Fixed => self.delta,
                    DelayChoice::Uniform { lo, hi } => {
                        Duration::from_micros(rng.gen_range(lo.as_micros()..=hi.as_micros()))
                    }
                };
                links[from * n + to] = cap.map_or(d, |c| d.min(c));
            }
        }
        links
    }

    /// A compact stable label (`family/n..f../s..`) for reports and logs.
    pub fn label(&self) -> String {
        let mut s = format!("{}/n{}f{}/s{}", self.family, self.n, self.f, self.seed);
        match self.adversary {
            AdversaryMix::None => {}
            AdversaryMix::TrailingSilent { .. } => s.push_str("/silent-trail"),
            AdversaryMix::RandomSilent { .. } => s.push_str("/silent-rand"),
            AdversaryMix::RandomCrashing { .. } => s.push_str("/crash-rand"),
            AdversaryMix::CrashAt { .. } => s.push_str("/crash-at"),
            AdversaryMix::LeaderCascade { .. } => s.push_str("/crash-cascade"),
        }
        if self.delays != DelayChoice::Fixed {
            s.push_str("/jitter");
        }
        if self.skew != SkewChoice::Synchronized {
            s.push_str("/skew");
        }
        s
    }
}

/// What a Byzantine slot chosen by [`ScenarioSpec::adversary_slots`] runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AdversaryRole {
    /// [`Silent`] from the start.
    Silent,
    /// Honest code wrapped in [`Crashing`] with this handled-event budget.
    Crash {
        /// Events handled before the crash.
        handled: u32,
    },
}

/// Draws `count` distinct indices from `0..n`, ascending (partial
/// Fisher–Yates, then sorted so installation order is stable).
fn sample_distinct(rng: &mut StdRng, n: usize, count: usize) -> Vec<u32> {
    let mut ids: Vec<u32> = (0..n as u32).collect();
    let count = count.min(n);
    for i in 0..count {
        let j = rng.gen_range(i..ids.len());
        ids.swap(i, j);
    }
    ids.truncate(count);
    ids.sort_unstable();
    ids
}

/// The spec-driven runner a family registers: it erases the family's
/// message-type generic behind one call.
type FamilyRunner = Box<dyn Fn(&ScenarioSpec, &dyn Backend) -> Outcome + Send + Sync>;

/// A registered protocol family: a key, a resilience band, and the
/// spec-driven runner that erases the family's message-type generic.
pub struct ScenarioFamily {
    key: &'static str,
    describe: &'static str,
    admission: Admission,
    validity: ValidityMode,
    canonical: ScenarioSpec,
    run: FamilyRunner,
}

impl fmt::Debug for ScenarioFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioFamily")
            .field("key", &self.key)
            .field("admission", &self.admission)
            .finish()
    }
}

impl ScenarioFamily {
    /// The registry key.
    pub(crate) fn key(&self) -> &'static str {
        self.key
    }

    /// One-line human description (protocol + paper reference).
    pub fn describe(&self) -> &'static str {
        self.describe
    }

    /// The `(n, f)` shapes this family admits.
    pub fn admission(&self) -> Admission {
        self.admission
    }

    /// The family's canonical spec (its smallest interesting shape with
    /// the family's historical keychain seed).
    pub fn canonical(&self) -> ScenarioSpec {
        self.canonical.clone()
    }

    /// Runs `spec` (shape already validated by the registry) on the given
    /// execution backend.
    pub(crate) fn run_on(&self, spec: &ScenarioSpec, backend: &dyn Backend) -> Outcome {
        (self.run)(spec, backend)
    }

    /// Audits broadcast validity per the family's [`ValidityMode`]: while the
    /// broadcaster slot is honest, every honest commit equals the input.
    pub fn upholds_validity(&self, spec: &ScenarioSpec, outcome: &Outcome) -> bool {
        match self.validity {
            ValidityMode::AgreementOnly => true,
            ValidityMode::Broadcast => {
                !outcome.is_honest(spec.broadcaster)
                    || outcome.honest_commits().all(|c| c.value == spec.input)
            }
        }
    }
}

/// Why a spec could not be run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScenarioError {
    /// No family registered under the key.
    UnknownFamily(String),
    /// The broadcaster or an [`AdversaryMix::CrashAt`] party is outside
    /// `0..n`.
    PartyOutOfRange {
        /// The family key.
        family: &'static str,
        /// The offending party id.
        party: PartyId,
        /// Parties in the spec.
        n: usize,
    },
    /// The `(n, f)` shape is outside the family's resilience band.
    Inadmissible {
        /// The family key.
        family: &'static str,
        /// Requested parties.
        n: usize,
        /// Requested fault budget.
        f: usize,
        /// The band that rejected the shape.
        band: &'static str,
    },
    /// The shape is not a valid [`Config`] at all.
    Config(ConfigError),
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, out: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::UnknownFamily(k) => write!(out, "no scenario family {k:?} registered"),
            ScenarioError::PartyOutOfRange { family, party, n } => {
                write!(out, "{family}: party {party} outside 0..{n}")
            }
            ScenarioError::Inadmissible { family, n, f, band } => {
                write!(
                    out,
                    "{family}: (n={n}, f={f}) outside resilience band {band}"
                )
            }
            ScenarioError::Config(e) => write!(out, "invalid shape: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

/// The scenario registry: family key → [`ScenarioFamily`].
///
/// Keys iterate in sorted order so every registry-driven enumeration
/// (tables, sweeps, property suites) is deterministic.
#[derive(Default)]
pub struct ScenarioRegistry {
    families: BTreeMap<&'static str, ScenarioFamily>,
}

impl fmt::Debug for ScenarioRegistry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScenarioRegistry")
            .field("families", &self.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl ScenarioRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ScenarioRegistry::default()
    }

    /// Registers a family from its parts.
    ///
    /// # Panics
    ///
    /// Panics on a duplicate key — two crates claiming one key is a wiring
    /// bug worth failing loudly on.
    pub fn register_fn<F>(
        &mut self,
        key: &'static str,
        describe: &'static str,
        admission: Admission,
        validity: ValidityMode,
        canonical: ScenarioSpec,
        run: F,
    ) where
        F: Fn(&ScenarioSpec, &dyn Backend) -> Outcome + Send + Sync + 'static,
    {
        let family = ScenarioFamily {
            key,
            describe,
            admission,
            validity,
            canonical,
            run: Box::new(run),
        };
        assert!(
            self.families.insert(key, family).is_none(),
            "scenario family {key:?} registered twice"
        );
    }

    /// The family registered under `key`.
    pub fn family(&self, key: &str) -> Option<&ScenarioFamily> {
        self.families.get(key)
    }

    /// All registered keys, sorted.
    pub fn keys(&self) -> impl Iterator<Item = &'static str> + '_ {
        self.families.keys().copied()
    }

    /// Number of registered families.
    pub fn len(&self) -> usize {
        self.families.len()
    }

    /// Whether the registry is empty.
    pub fn is_empty(&self) -> bool {
        self.families.is_empty()
    }

    /// The canonical spec of the family registered under `key`.
    ///
    /// # Errors
    ///
    /// [`ScenarioError::UnknownFamily`] if nothing is registered.
    pub fn spec(&self, key: &str) -> Result<ScenarioSpec, ScenarioError> {
        self.family(key)
            .map(ScenarioFamily::canonical)
            .ok_or_else(|| ScenarioError::UnknownFamily(key.to_string()))
    }

    /// Validates `spec` against its family's band without running it.
    ///
    /// # Errors
    ///
    /// Unknown family, invalid config, or out-of-band shape.
    pub fn validate(&self, spec: &ScenarioSpec) -> Result<&ScenarioFamily, ScenarioError> {
        let family = self
            .family(spec.family)
            .ok_or_else(|| ScenarioError::UnknownFamily(spec.family.to_string()))?;
        spec.config().map_err(ScenarioError::Config)?;
        let crash_at = match spec.adversary {
            AdversaryMix::CrashAt { party, .. } => Some(party),
            _ => None,
        };
        for party in std::iter::once(spec.broadcaster).chain(crash_at) {
            if party.as_usize() >= spec.n {
                return Err(ScenarioError::PartyOutOfRange {
                    family: family.key(),
                    party,
                    n: spec.n,
                });
            }
        }
        if !family.admission().admits(spec.n, spec.f) {
            return Err(ScenarioError::Inadmissible {
                family: family.key(),
                n: spec.n,
                f: spec.f,
                band: family.admission().describe(),
            });
        }
        Ok(family)
    }

    /// Runs one spec end to end on the inline simulator.
    ///
    /// # Errors
    ///
    /// Everything [`ScenarioRegistry::validate`] rejects.
    pub fn run(&self, spec: &ScenarioSpec) -> Result<Outcome, ScenarioError> {
        Ok(self.validate(spec)?.run_on(spec, &SimBackend::new()))
    }

    /// Runs one spec end to end on an arbitrary execution [`Backend`] —
    /// the same validation, the same family registration, a different
    /// execution target (e.g. `gcl_net`'s `AsyncBackend`).
    ///
    /// # Errors
    ///
    /// Everything [`ScenarioRegistry::validate`] rejects.
    pub fn run_on(
        &self,
        spec: &ScenarioSpec,
        backend: &dyn Backend,
    ) -> Result<Outcome, ScenarioError> {
        Ok(self.validate(spec)?.run_on(spec, backend))
    }
}

/// Derives the seed for grid cell `index` from a sweep-level base seed
/// (SplitMix64 of the pair, so neighboring cells get unrelated streams).
pub(crate) fn derive_cell_seed(base: u64, index: u64) -> u64 {
    mix_seed(base ^ mix_seed(index))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Context;

    struct Flood {
        input: Option<Value>,
    }
    impl Protocol for Flood {
        type Msg = Value;
        fn start(&mut self, ctx: &mut dyn Context<Value>) {
            if let Some(v) = self.input {
                ctx.multicast(v);
            }
        }
        fn on_message(&mut self, _from: PartyId, v: Value, ctx: &mut dyn Context<Value>) {
            ctx.commit(v);
            ctx.terminate();
        }
    }

    fn test_registry() -> ScenarioRegistry {
        let mut reg = ScenarioRegistry::new();
        reg.register_fn(
            "flood",
            "one-round flood",
            Admission::Any,
            ValidityMode::Broadcast,
            ScenarioSpec::lockstep("flood", 4, 1, Duration::from_micros(10)),
            |spec, backend| {
                spec.run_protocol_on(backend, |p| Flood {
                    input: spec.input_for(p),
                })
            },
        );
        reg
    }

    #[test]
    fn registry_runs_canonical_spec() {
        let reg = test_registry();
        let spec = reg.spec("flood").unwrap();
        let o = reg.run(&spec).unwrap();
        assert!(o.all_honest_committed());
        assert_eq!(o.committed_value(), Some(Value::new(42)));
        assert!(reg.family("flood").unwrap().upholds_validity(&spec, &o));
    }

    #[test]
    fn unknown_family_and_bad_shapes_reported() {
        let reg = test_registry();
        assert!(matches!(
            reg.run(&ScenarioSpec::asynchronous("nope", 4, 1)),
            Err(ScenarioError::UnknownFamily(_))
        ));
        let bad = reg.spec("flood").unwrap().with_shape(1, 0);
        assert!(matches!(reg.run(&bad), Err(ScenarioError::Config(_))));
    }

    #[test]
    fn admission_bands() {
        assert!(Admission::Brb.admits(4, 1));
        assert!(!Admission::Brb.admits(4, 2));
        assert!(Admission::TwoRoundPsync.admits(4, 1));
        assert!(Admission::TwoRoundPsync.admits(9, 2));
        assert!(!Admission::TwoRoundPsync.admits(7, 2));
        assert!(Admission::ExactThird.admits(6, 2));
        assert!(!Admission::ExactThird.admits(7, 2));
        assert!(Admission::ThirdToHalf.admits(5, 2));
        assert!(!Admission::ThirdToHalf.admits(6, 3));
        assert!(Admission::Majority.admits(6, 3));
        assert!(Admission::Majority.admits(10, 8));
        assert!(!Admission::Majority.admits(10, 10), "f < n always");
        assert!(Admission::Any.admits(2, 0));
    }

    #[test]
    fn inadmissible_shape_rejected_with_band() {
        let mut reg = ScenarioRegistry::new();
        reg.register_fn(
            "brbish",
            "",
            Admission::Brb,
            ValidityMode::Broadcast,
            ScenarioSpec::asynchronous("brbish", 4, 1),
            |spec, backend| {
                spec.run_protocol_on(backend, |p| Flood {
                    input: spec.input_for(p),
                })
            },
        );
        let err = reg
            .run(&ScenarioSpec::asynchronous("brbish", 4, 2))
            .unwrap_err();
        assert!(err.to_string().contains("n >= 3f+1"), "{err}");
    }

    #[test]
    #[should_panic(expected = "registered twice")]
    fn duplicate_key_panics() {
        let mut reg = test_registry();
        reg.register_fn(
            "flood",
            "",
            Admission::Any,
            ValidityMode::Broadcast,
            ScenarioSpec::asynchronous("flood", 4, 1),
            |spec, backend| {
                spec.run_protocol_on(backend, |p| Flood {
                    input: spec.input_for(p),
                })
            },
        );
    }

    #[test]
    fn adversary_subsets_deterministic_and_clamped() {
        let spec = ScenarioSpec::asynchronous("x", 10, 3)
            .with_adversary(AdversaryMix::RandomSilent { count: 99 })
            .with_seed(7);
        let a = spec.adversary_slots();
        let b = spec.adversary_slots();
        assert_eq!(a, b, "same seed, same subset");
        assert_eq!(a.len(), 3, "clamped to f");
        let mut ids: Vec<u32> = a.iter().map(|(p, _)| p.index()).collect();
        let sorted = ids.clone();
        ids.sort_unstable();
        assert_eq!(ids, sorted, "ascending installation order");
        let other = spec.with_seed(8).adversary_slots();
        assert_ne!(a, other, "different seed moves the subset");
    }

    #[test]
    fn leader_cascade_crashes_successive_leaders_staggered() {
        let spec =
            ScenarioSpec::asynchronous("x", 9, 2).with_adversary(AdversaryMix::LeaderCascade {
                count: 5,
                first_handled: 10,
                stagger: 20,
            });
        let slots = spec.adversary_slots();
        assert_eq!(slots.len(), 2, "cascade length is clamped to f");
        assert_eq!(
            slots[0],
            (PartyId::new(0), AdversaryRole::Crash { handled: 10 })
        );
        assert_eq!(
            slots[1],
            (PartyId::new(1), AdversaryRole::Crash { handled: 30 }),
            "each successive leader survives `stagger` more events"
        );
        assert!(spec.label().ends_with("/crash-cascade"), "{}", spec.label());
    }

    #[test]
    fn trailing_silent_matches_legacy_layout() {
        let spec = ScenarioSpec::lockstep("x", 6, 4, Duration::from_micros(1_000))
            .with_adversary(AdversaryMix::TrailingSilent { count: u32::MAX });
        let slots = spec.adversary_slots();
        let ids: Vec<u32> = slots.iter().map(|(p, _)| p.index()).collect();
        assert_eq!(ids, vec![2, 3, 4, 5]);
        assert!(slots.iter().all(|(_, r)| *r == AdversaryRole::Silent));
    }

    #[test]
    fn crashing_mix_draws_budgets() {
        let spec = ScenarioSpec::asynchronous("x", 7, 2)
            .with_adversary(AdversaryMix::RandomCrashing {
                count: 2,
                max_handled: 9,
            })
            .with_seed(3);
        for (_, role) in spec.adversary_slots() {
            match role {
                AdversaryRole::Crash { handled } => assert!(handled <= 9),
                AdversaryRole::Silent => panic!("crash mix produced silent role"),
            }
        }
    }

    #[test]
    fn random_skew_spares_broadcaster_and_respects_max() {
        let spec = ScenarioSpec::synchronous("x", 6, 1)
            .with_skew(SkewChoice::Random {
                max: Duration::from_micros(40),
            })
            .with_seed(11);
        let sched = spec.skew_schedule();
        assert_eq!(sched.start_of(PartyId::new(0)), GlobalTime::ZERO);
        assert!(sched.max_skew() <= Duration::from_micros(40));
        let again = spec.skew_schedule();
        for i in 0..6 {
            assert_eq!(
                sched.start_of(PartyId::new(i)),
                again.start_of(PartyId::new(i))
            );
        }
    }

    #[test]
    fn run_protocol_installs_crash_at() {
        let reg = test_registry();
        let spec = reg
            .spec("flood")
            .unwrap()
            .with_adversary(AdversaryMix::CrashAt {
                party: PartyId::new(0),
                handled: 0,
            });
        let o = reg.run(&spec).unwrap();
        // Broadcaster crashed before sending: nobody commits, slot 0 is
        // marked Byzantine.
        assert!(!o.is_honest(PartyId::new(0)));
        assert!(o.commits().is_empty());
        assert!(reg.family("flood").unwrap().upholds_validity(&spec, &o));
    }

    #[test]
    fn crash_at_out_of_range_party_rejected_not_panicking() {
        let reg = test_registry();
        let spec = reg
            .spec("flood")
            .unwrap()
            .with_adversary(AdversaryMix::CrashAt {
                party: PartyId::new(10),
                handled: 0,
            });
        let err = reg.run(&spec).unwrap_err();
        assert!(
            matches!(err, ScenarioError::PartyOutOfRange { n: 4, .. }),
            "{err}"
        );
        assert!(err.to_string().contains("outside 0..4"), "{err}");
    }

    #[test]
    fn broadcaster_out_of_range_rejected_not_panicking() {
        let reg = test_registry();
        let mut spec = reg.spec("flood").unwrap();
        spec.broadcaster = PartyId::new(4);
        let err = reg.run(&spec).unwrap_err();
        assert!(
            matches!(err, ScenarioError::PartyOutOfRange { n: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn labels_are_stable_and_informative() {
        let spec = ScenarioSpec::synchronous("bb", 5, 2)
            .with_seed(9)
            .with_adversary(AdversaryMix::RandomSilent { count: 1 })
            .with_skew(SkewChoice::OddHalfDelta);
        assert_eq!(spec.label(), "bb/n5f2/s9/silent-rand/skew");
    }

    #[test]
    fn link_delays_fixed_puts_delta_off_diagonal() {
        let spec = ScenarioSpec::synchronous("x", 3, 1);
        let links = spec.link_delays();
        assert_eq!(links.len(), 9);
        for from in 0..3 {
            for to in 0..3 {
                let expect = if from == to {
                    Duration::ZERO
                } else {
                    spec.delta
                };
                assert_eq!(links[from * 3 + to], expect, "({from}, {to})");
            }
        }
    }

    #[test]
    fn link_delays_uniform_seeded_and_clamped() {
        let spec = ScenarioSpec::synchronous("x", 4, 1)
            .with_delays(DelayChoice::Uniform {
                lo: Duration::ZERO,
                hi: Duration::from_micros(10_000),
            })
            .with_seed(5);
        let a = spec.link_delays();
        let b = spec.link_delays();
        assert_eq!(a, b, "same seed, same matrix");
        assert!(
            a.iter().all(|d| *d <= spec.delta),
            "synchrony clamps honest links to delta"
        );
        // Under asynchrony the draw is unclamped and seed-sensitive.
        let wide = ScenarioSpec::asynchronous("x", 4, 1).with_delays(DelayChoice::Uniform {
            lo: Duration::from_micros(5_000),
            hi: Duration::from_micros(10_000),
        });
        let unclamped = wide.link_delays();
        assert!(unclamped
            .iter()
            .enumerate()
            .all(|(i, d)| (i % 5 == 0) || *d >= Duration::from_micros(5_000)));
        assert_ne!(
            unclamped,
            wide.with_seed(6).link_delays(),
            "different seed moves the draws"
        );
    }

    #[test]
    fn erased_slots_mirror_adversary_placement() {
        let spec = ScenarioSpec::asynchronous("x", 5, 2)
            .with_adversary(AdversaryMix::TrailingSilent { count: 2 });
        let slots = spec.erased_slots(|p| Flood {
            input: spec.input_for(p),
        });
        assert_eq!(slots.len(), 5);
        let honesty: Vec<bool> = slots.iter().map(|s| s.honest).collect();
        assert_eq!(honesty, vec![true, true, true, false, false]);
    }

    #[test]
    fn derived_cell_seeds_spread() {
        let a = derive_cell_seed(1, 0);
        let b = derive_cell_seed(1, 1);
        let c = derive_cell_seed(2, 0);
        assert_ne!(a, b);
        assert_ne!(a, c);
        assert_eq!(a, derive_cell_seed(1, 0));
    }
}
