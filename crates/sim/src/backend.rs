//! Execution backends: run a registered scenario family somewhere other
//! than the inline simulator.
//!
//! A family's protocol constructor is generic over its wire message type;
//! an execution backend is necessarily type-erased (the registry stores
//! `dyn` families). The bridge is [`ErasedMsg`] — a boxed, clonable,
//! debuggable message — plus an adapter that re-types a
//! `Context<ErasedMsg>` as the protocol's native `Context<M>`. A family
//! registers **once** (its runner closure calls
//! [`ScenarioSpec::run_protocol_on`]) and every [`Backend`] can execute
//! it: the inline simulator, `gcl_net`'s wall-clock thread runtime, or any
//! future process/socket runtime.
//!
//! The inline simulator stays erasure-free: [`SimBackend`] reports
//! [`Backend::native_sim`], so `run_protocol_on` routes it through the
//! monomorphic hot loop (no per-message boxing on the measured path). The
//! erased path is still a real, tested simulator configuration
//! ([`SimBackend::forced_erased`]), which is how the erasure layer itself
//! is verified to preserve outcomes.

use crate::context::{Context, Strategy};
use crate::outcome::Outcome;
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
/// carries exactly one concrete type inside; [`ErasedMsg::downcast`]
/// recovers it at the protocol boundary, and [`ErasedMsg::encode`] /
/// [`MsgCodec::decode`] carry it across a byte transport without either
/// side naming the concrete type.
pub struct ErasedMsg(Box<dyn AnyMsg>);

impl ErasedMsg {
    /// Wraps a concrete message.
    pub fn new<M: WireMsg>(msg: M) -> Self {
        ErasedMsg(Box::new(msg))
    }

    /// Recovers the concrete message.
    ///
    /// # Panics
    ///
    /// Panics if the payload is not an `M` — within one run every slot
    /// speaks the same family's message type, so a mismatch is a backend
    /// wiring bug worth failing loudly on.
    pub fn downcast<M: 'static>(self) -> M {
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

    /// The inner message's wire encoding as a fresh byte vector.
    pub fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
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

    /// The concrete message type this codec round-trips (diagnostics).
    pub fn type_name(&self) -> &'static str {
        self.type_name
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

/// Wraps any `Strategy<M>` as a `Strategy<ErasedMsg>`: incoming payloads
/// downcast to `M`, outgoing effects re-erase through [`Reify`].
pub struct Erase<M, S> {
    inner: S,
    _marker: PhantomData<fn() -> M>,
}

impl<M, S> Erase<M, S> {
    /// Erases `inner`'s message type.
    pub fn new(inner: S) -> Self {
        Erase {
            inner,
            _marker: PhantomData,
        }
    }
}

impl<M, S> fmt::Debug for Erase<M, S> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("Erase")
    }
}

impl<M, S> Strategy<ErasedMsg> for Erase<M, S>
where
    M: WireMsg,
    S: Strategy<M>,
{
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

/// One pre-built party slot handed to a [`Backend`]: the code to run
/// (honest protocol, or the spec's silent/crashing adversary wrapper) and
/// whether the slot counts as honest for [`Outcome`] audits.
pub struct ErasedSlot {
    /// The party's code.
    pub strategy: Box<dyn Strategy<ErasedMsg>>,
    /// Whether the slot is honest.
    pub honest: bool,
}

impl fmt::Debug for ErasedSlot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ErasedSlot")
            .field("honest", &self.honest)
            .finish()
    }
}

/// An execution backend: anything that can run a validated
/// [`ScenarioSpec`] over type-erased party slots and report a simulator-
/// comparable [`Outcome`].
///
/// The slots arrive fully assembled (adversary wrappers already applied
/// per [`ScenarioSpec::adversary_slots`]); the backend supplies the
/// *environment* — delivery delays per [`ScenarioSpec::link_delays`],
/// start skew per [`ScenarioSpec::skew_schedule`], clocks, and transport.
/// Backends whose transport is bytes (sockets, processes) encode every
/// in-flight message via [`ErasedMsg::encode`] and re-type delivered
/// frames with the supplied [`MsgCodec`]; in-memory backends may ignore
/// the codec and move the erased payloads directly.
pub trait Backend {
    /// Short stable name for reports and labels (`"sim"`, `"async"`, …).
    fn name(&self) -> &'static str;

    /// True only for the inline simulator, which runs families
    /// generically: [`ScenarioSpec::run_protocol_on`] then skips erasure
    /// and takes the monomorphic hot loop.
    fn native_sim(&self) -> bool {
        false
    }

    /// Runs `spec` (shape already validated) over the pre-built slots.
    /// `codec` round-trips the run's message type through bytes for
    /// transports that need it.
    fn execute(&self, spec: &ScenarioSpec, slots: Vec<ErasedSlot>, codec: MsgCodec) -> Outcome;
}

/// The in-process deterministic simulator as a [`Backend`].
///
/// [`SimBackend::new`] is the default used by
/// [`ScenarioFamily::run`](crate::ScenarioFamily::run): it reports
/// [`Backend::native_sim`], so registered families run without erasure.
/// [`SimBackend::forced_erased`] disables that shortcut and pushes the run
/// through the same type-erased slot path every other backend uses —
/// outcomes must be identical, which is the erasure layer's conformance
/// test.
#[derive(Debug, Clone, Copy, Default)]
pub struct SimBackend {
    erased: bool,
}

impl SimBackend {
    /// The native (erasure-free) simulator backend.
    pub const fn new() -> Self {
        SimBackend { erased: false }
    }

    /// A simulator backend that refuses the native shortcut and runs the
    /// type-erased slot path (for testing the erasure layer).
    pub const fn forced_erased() -> Self {
        SimBackend { erased: true }
    }
}

impl Backend for SimBackend {
    fn name(&self) -> &'static str {
        "sim"
    }

    fn native_sim(&self) -> bool {
        !self.erased
    }

    fn execute(&self, spec: &ScenarioSpec, slots: Vec<ErasedSlot>, _codec: MsgCodec) -> Outcome {
        let mut b = spec.sim_builder::<ErasedMsg>();
        for (i, slot) in slots.into_iter().enumerate() {
            b = b.slot_boxed(PartyId::new(i as u32), slot.strategy, slot.honest);
        }
        b.run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::Protocol;
    use crate::scenario::{AdversaryMix, ScenarioSpec};
    use gcl_types::Encode;

    #[derive(Debug, Clone, PartialEq)]
    struct WordMsg(String);
    gcl_types::wire_newtype!(WordMsg);

    /// Broadcaster multicasts a string; everyone commits its length.
    struct WordFlood {
        input: Option<Value>,
    }
    impl Protocol for WordFlood {
        type Msg = WordMsg;
        fn start(&mut self, ctx: &mut dyn Context<WordMsg>) {
            if let Some(v) = self.input {
                ctx.multicast(WordMsg("x".repeat(v.as_u64() as usize)));
            }
        }
        fn on_message(&mut self, _from: PartyId, m: WordMsg, ctx: &mut dyn Context<WordMsg>) {
            ctx.commit(Value::new(m.0.len() as u64));
            ctx.terminate();
        }
    }

    fn spec() -> ScenarioSpec {
        ScenarioSpec::lockstep("wordflood", 4, 1, Duration::from_micros(10))
            .with_input(Value::new(6))
    }

    fn run_on(backend: &dyn Backend) -> Outcome {
        spec().run_protocol_on(backend, |p| WordFlood {
            input: spec().input_for(p),
        })
    }

    #[test]
    fn erased_run_matches_native_run() {
        let native = run_on(&SimBackend::new());
        let erased = run_on(&SimBackend::forced_erased());
        assert_eq!(native.committed_value(), Some(Value::new(6)));
        assert_eq!(erased.committed_value(), native.committed_value());
        assert_eq!(erased.events_processed(), native.events_processed());
        assert_eq!(erased.messages_sent(), native.messages_sent());
        assert_eq!(erased.good_case_latency(), native.good_case_latency());
        assert_eq!(erased.good_case_rounds(), native.good_case_rounds());
    }

    #[test]
    fn erased_run_installs_adversary_slots() {
        let spec = spec().with_adversary(AdversaryMix::TrailingSilent { count: 1 });
        let o = spec.run_protocol_on(&SimBackend::forced_erased(), |p| WordFlood {
            input: spec.input_for(p),
        });
        assert!(!o.is_honest(PartyId::new(3)), "trailing slot is Byzantine");
        assert!(o.agreement_holds());
        assert!(o.all_honest_committed());
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

    #[test]
    fn erased_msg_round_trips_through_bytes() {
        let m = ErasedMsg::new(WordMsg("over the wire".into()));
        let bytes = m.to_wire();
        assert_eq!(bytes, WordMsg("over the wire".into()).to_wire());
        let codec = MsgCodec::of::<WordMsg>();
        assert!(codec.type_name().contains("WordMsg"), "{codec:?}");
        let back = codec.decode(&bytes).expect("well-formed frame");
        assert_eq!(back.downcast::<WordMsg>(), WordMsg("over the wire".into()));
    }

    #[test]
    fn codec_rejects_garbage_frames() {
        let codec = MsgCodec::of::<WordMsg>();
        assert!(codec.decode(&[1, 2]).is_err(), "truncated frame");
        let mut long = ErasedMsg::new(WordMsg("x".into())).to_wire();
        long.push(0);
        assert!(codec.decode(&long).is_err(), "trailing bytes rejected");
    }
}
