//! Execution backends: run a registered scenario family somewhere other
//! than the inline simulator.
//!
//! A family's protocol constructor is generic over its wire message type;
//! an execution backend is necessarily type-erased (the registry stores
//! one boxed runner per family). The bridge is [`ErasedMsg`] — a boxed, clonable,
//! debuggable message — plus an adapter that re-types a
//! `Context<ErasedMsg>` as the protocol's native `Context<M>`. A family
//! registers **once** (its runner closure calls
//! [`ScenarioSpec::run_protocol_on`]) and runs wherever that call points:
//! `None` is the inline simulator, `Some(backend)` any [`Backend`], such as
//! `gcl_net`'s `AsyncBackend`.
//!
//! The inline simulator is not a backend. It installs the spec's party
//! [`Slot`]s as they are on its monomorphic hot loop (no per-message
//! boxing on the measured path); a backend receives the same slots, each
//! wrapped for erasure, as [`ErasedSlot`]s. A unit test runs both forms
//! of every adversary mix on the simulator and requires equal outcomes,
//! which is how the erasure layer itself is verified.

use crate::context::{Context, Strategy};
use crate::outcome::Outcome;
use crate::runner::Slot;
use crate::scenario::ScenarioSpec;
use gcl_types::{Config, Duration, LocalTime, PartyId, Value, WireError, WireMsg};
use std::any::Any;
use std::fmt;
use std::marker::PhantomData;

/// Object-safe payload contract behind [`ErasedMsg`].
trait AnyMsg: Send + Sync {
    fn clone_box(&self) -> Box<dyn AnyMsg>;
    fn debug_fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result;
    fn into_any(self: Box<Self>) -> Box<dyn Any>;
    fn encode_wire(&self, buf: &mut Vec<u8>);
}

impl<T: WireMsg> AnyMsg for T {
    fn clone_box(&self) -> Box<dyn AnyMsg> {
        Box::new(self.clone())
    }
    fn debug_fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
    fn into_any(self: Box<Self>) -> Box<dyn Any> {
        self
    }
    fn encode_wire(&self, buf: &mut Vec<u8>) {
        gcl_types::Encode::encode(self, buf);
    }
}

/// A type-erased wire message: any [`WireMsg`] payload behind one pointer.
/// This is the message type every [`Backend`] runs — each run still
/// carries exactly one concrete type inside; `ErasedMsg::downcast`
/// recovers it at the protocol boundary, and [`ErasedMsg::encode`] /
/// [`MsgCodec::decode`] carry it across a byte transport without either
/// side naming the concrete type.
pub struct ErasedMsg(Box<dyn AnyMsg>);

impl ErasedMsg {
    /// Wraps a concrete message.
    pub(crate) fn new<M: WireMsg>(msg: M) -> Self {
        ErasedMsg(Box::new(msg))
    }

    /// Recovers the concrete message.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not an `M` — within one run every slot
    /// speaks the same family's message type, so a mismatch is a backend
    /// wiring bug worth failing loudly on.
    pub(crate) fn downcast<M: 'static>(self) -> M {
        *self
            .0
            .into_any()
            .downcast::<M>()
            .unwrap_or_else(|_| panic!("ErasedMsg holds a different message type"))
    }

    /// Appends the inner message's wire encoding to `buf` — the encode
    /// half of the byte bridge, dispatched through the erased vtable.
    pub fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode_wire(buf);
    }
}

/// The decode half of the byte bridge: re-types wire bytes as the run's
/// concrete message, re-erased. [`ScenarioSpec::run_protocol_on`] builds
/// one per run (it is the only place that still sees the family's message
/// generic), and byte-transport backends call [`MsgCodec::decode`] on
/// every frame they deliver.
#[derive(Clone, Copy)]
pub struct MsgCodec {
    type_name: &'static str,
    decode: fn(&[u8]) -> Result<ErasedMsg, WireError>,
}

impl MsgCodec {
    /// The codec for message type `M`.
    pub fn of<M: WireMsg>() -> Self {
        MsgCodec {
            type_name: std::any::type_name::<M>(),
            decode: |bytes| gcl_types::Decode::from_wire(bytes).map(ErasedMsg::new::<M>),
        }
    }

    /// Decodes one complete message frame (trailing bytes are an error).
    ///
    /// # Errors
    ///
    /// Any [`WireError`] the bytes provoke.
    pub fn decode(&self, bytes: &[u8]) -> Result<ErasedMsg, WireError> {
        (self.decode)(bytes)
    }
}

impl fmt::Debug for MsgCodec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "MsgCodec<{}>", self.type_name)
    }
}

impl Clone for ErasedMsg {
    fn clone(&self) -> Self {
        ErasedMsg(self.0.clone_box())
    }
}

// Renders as the inner message, so traces are identical to unerased runs.
impl fmt::Debug for ErasedMsg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.0.debug_fmt(f)
    }
}

/// Re-types a `Context<ErasedMsg>` as the protocol's native `Context<M>`.
/// Multicasts forward as multicasts (not `n` sends) so erased runs keep
/// the runtime's shared-payload fast path.
struct Reify<'a, M> {
    ctx: &'a mut dyn Context<ErasedMsg>,
    _marker: PhantomData<M>,
}

impl<M: WireMsg> Context<M> for Reify<'_, M> {
    fn me(&self) -> PartyId {
        self.ctx.me()
    }
    fn config(&self) -> Config {
        self.ctx.config()
    }
    fn now(&self) -> LocalTime {
        self.ctx.now()
    }
    fn send(&mut self, to: PartyId, msg: M) {
        self.ctx.send(to, ErasedMsg::new(msg));
    }
    fn set_timer(&mut self, delay: Duration, tag: u64) {
        self.ctx.set_timer(delay, tag);
    }
    fn commit(&mut self, value: Value) {
        self.ctx.commit(value);
    }
    fn terminate(&mut self) {
        self.ctx.terminate();
    }
    fn multicast(&mut self, msg: M) {
        self.ctx.multicast(ErasedMsg::new(msg));
    }
    fn multicast_except(&mut self, msg: M, skip: PartyId) {
        self.ctx.multicast_except(ErasedMsg::new(msg), skip);
    }
}

/// Wraps a `Strategy<M>` as a `Strategy<ErasedMsg>`: incoming payloads
/// downcast to `M`, outgoing effects re-erase through [`Reify`].
struct Erase<M> {
    inner: Box<dyn Strategy<M>>,
}

impl<M: WireMsg> Strategy<ErasedMsg> for Erase<M> {
    fn start(&mut self, ctx: &mut dyn Context<ErasedMsg>) {
        self.inner.start(&mut Reify {
            ctx,
            _marker: PhantomData::<M>,
        });
    }
    fn on_message(&mut self, from: PartyId, msg: ErasedMsg, ctx: &mut dyn Context<ErasedMsg>) {
        self.inner.on_message(
            from,
            msg.downcast::<M>(),
            &mut Reify {
                ctx,
                _marker: PhantomData::<M>,
            },
        );
    }
    fn on_timer(&mut self, tag: u64, ctx: &mut dyn Context<ErasedMsg>) {
        self.inner.on_timer(
            tag,
            &mut Reify {
                ctx,
                _marker: PhantomData::<M>,
            },
        );
    }
}

/// One pre-built party slot handed to a [`Backend`]: a [`Slot`] whose
/// code speaks [`ErasedMsg`].
pub type ErasedSlot = Slot<ErasedMsg>;

impl<M: WireMsg> Slot<M> {
    /// The same slot with its message type erased.
    pub(crate) fn erase(self) -> ErasedSlot {
        Slot::new(
            Erase {
                inner: self.strategy,
            },
            self.honest,
        )
    }
}

/// An execution backend: anything other than the inline simulator that
/// can run a validated [`ScenarioSpec`] over type-erased party slots and
/// report a simulator-comparable [`Outcome`].
///
/// The slots arrive fully assembled (adversary wrappers already applied
/// per [`ScenarioSpec::adversary_slots`]); the backend supplies the
/// *environment* — delivery delays per [`ScenarioSpec::link_delays`],
/// start skew per [`ScenarioSpec::skew_schedule`], clocks, and transport.
/// A backend's transport carries bytes: it encodes every in-flight
/// message via [`ErasedMsg::encode`] and re-types delivered frames with
/// the supplied [`MsgCodec`].
pub trait Backend {
    /// Short stable name for reports and labels (`"async"`, …).
    fn name(&self) -> &'static str;

    /// Runs `spec` (shape already validated) over the pre-built slots.
    /// `codec` re-types the run's message bytes.
    fn execute(&self, spec: &ScenarioSpec, slots: Vec<ErasedSlot>, codec: MsgCodec) -> Outcome;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Protocol;
    use crate::scenario::{Admission, AdversaryMix, DelayChoice, ScenarioRegistry, ValidityMode};
    use gcl_types::Encode;

    #[derive(Debug, Clone, PartialEq)]
    struct WordMsg(String);
    gcl_types::wire_newtype!(WordMsg);

    /// Broadcaster multicasts a word; every party echoes the first word it
    /// hears and commits its length once `n − f` copies are in, so crash
    /// budgets cut runs mid-protocol.
    struct WordEcho {
        input: Option<Value>,
        heard: usize,
    }
    impl Protocol for WordEcho {
        type Msg = WordMsg;
        fn start(&mut self, ctx: &mut dyn Context<WordMsg>) {
            if let Some(v) = self.input {
                ctx.multicast(WordMsg("x".repeat(v.as_u64() as usize)));
            }
        }
        fn on_message(&mut self, _from: PartyId, m: WordMsg, ctx: &mut dyn Context<WordMsg>) {
            self.heard += 1;
            if self.heard == 1 {
                ctx.multicast(m.clone());
            }
            if self.heard == ctx.config().quorum() {
                ctx.commit(Value::new(m.0.len() as u64));
                ctx.terminate();
            }
        }
    }

    fn echo(spec: &ScenarioSpec, p: PartyId) -> WordEcho {
        WordEcho {
            input: spec.input_for(p),
            heard: 0,
        }
    }

    /// Events, messages, latency, rounds, honesty vector and commits.
    fn observed(o: &Outcome) -> impl PartialEq + fmt::Debug + '_ {
        let metrics = (o.events_processed(), o.messages_sent());
        let good_case = (o.good_case_latency(), o.good_case_rounds());
        (metrics, good_case, &o.honest, o.commits())
    }

    /// `(native, erased, spec)` for one spec per adversary mix: its registry
    /// run, and its erased slots run on the simulator.
    fn erased_and_native_runs() -> [(Outcome, Outcome, ScenarioSpec); 6] {
        let canonical = ScenarioSpec::lockstep("wordecho", 7, 2, Duration::from_micros(10))
            .with_input(Value::new(6))
            .with_delays(DelayChoice::Uniform {
                lo: Duration::from_micros(1),
                hi: Duration::from_micros(10),
            })
            .with_seed(1);
        let mut reg = ScenarioRegistry::new();
        reg.register_fn(
            "wordecho",
            "echo flood",
            Admission::Any,
            ValidityMode::Broadcast,
            canonical.clone(),
            |spec, backend| spec.run_protocol_on(backend, |p| echo(spec, p)),
        );
        [
            AdversaryMix::None,
            AdversaryMix::TrailingSilent { count: 2 },
            AdversaryMix::RandomSilent { count: 2 },
            AdversaryMix::RandomCrashing {
                count: 2,
                max_handled: 4,
            },
            AdversaryMix::CrashAt {
                party: PartyId::new(0),
                handled: 1,
            },
            AdversaryMix::LeaderCascade {
                count: 2,
                first_handled: 1,
                stagger: 2,
            },
        ]
        .map(|mix| {
            let spec = canonical.clone().with_adversary(mix);
            let erased = spec
                .sim_builder::<ErasedMsg>()
                .slots(spec.erased_slots(|p| echo(&spec, p)))
                .run();
            (reg.run(&spec).unwrap(), erased, spec)
        })
    }

    /// The erasure layer's exact reference: for every adversary mix, erased
    /// slots on the simulator run exactly like the registry's native run.
    #[test]
    fn erased_run_matches_native_run() {
        for (native, erased, spec) in erased_and_native_runs() {
            assert_eq!(observed(&erased), observed(&native), "{}", spec.label());
        }
    }

    /// The erased slots put a Byzantine party exactly where
    /// [`ScenarioSpec::adversary_slots`] names one, and leave the rest honest.
    #[test]
    fn erased_run_installs_adversary_slots() {
        for (_, erased, spec) in erased_and_native_runs() {
            let (label, byzantine) = (spec.label(), spec.adversary_slots());
            let dishonest = erased.honest.iter().filter(|h| !**h).count();
            assert!(byzantine.iter().all(|s| !erased.is_honest(s.0)), "{label}");
            assert_eq!(dishonest, byzantine.len(), "{label}");
            assert_eq!(dishonest == 0, spec.adversary == AdversaryMix::None);
            assert!(!erased.commits().is_empty(), "{label}: the run got going");
            assert!(erased.agreement_holds(), "{label}");
        }
    }

    #[test]
    fn erased_msg_round_trips_and_renders() {
        let m = ErasedMsg::new(WordMsg("hi".into()));
        assert_eq!(format!("{m:?}"), "WordMsg(\"hi\")");
        let c = m.clone();
        assert_eq!(c.downcast::<WordMsg>(), WordMsg("hi".into()));
    }

    #[test]
    #[should_panic(expected = "different message type")]
    fn downcast_mismatch_panics() {
        ErasedMsg::new(7u64).downcast::<WordMsg>();
    }

    fn wire(m: &ErasedMsg) -> Vec<u8> {
        let mut buf = Vec::new();
        m.encode(&mut buf);
        buf
    }

    #[test]
    fn erased_msg_round_trips_through_bytes() {
        let m = ErasedMsg::new(WordMsg("over the wire".into()));
        let bytes = wire(&m);
        assert_eq!(bytes, WordMsg("over the wire".into()).to_wire());
        let codec = MsgCodec::of::<WordMsg>();
        assert!(format!("{codec:?}").contains("WordMsg"), "{codec:?}");
        let back = codec.decode(&bytes).expect("well-formed frame");
        assert_eq!(back.downcast::<WordMsg>(), WordMsg("over the wire".into()));
    }

    #[test]
    fn codec_rejects_garbage_frames() {
        let codec = MsgCodec::of::<WordMsg>();
        assert!(codec.decode(&[1, 2]).is_err(), "truncated frame");
        let mut long = wire(&ErasedMsg::new(WordMsg("x".into())));
        long.push(0);
        assert!(codec.decode(&long).is_err(), "trailing bytes rejected");
    }
}
