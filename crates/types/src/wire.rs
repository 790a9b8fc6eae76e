//! The wire codec: [`Encode`] / [`Decode`] for every protocol message.
//!
//! In the simulator every "message" is an in-memory clone, so nothing
//! there proves the message types survive serialization. The wall engine
//! (`gcl_net::AsyncBackend`) moves real bytes through real sockets, which
//! forces a codec onto every message type; this module is that codec.
//!
//! The format is deliberately minimal and deterministic — no schema
//! evolution, no varints, no self-description — because both endpoints of
//! every link are the same binary running the same protocol family:
//!
//! * fixed-width little-endian integers (`u8`/`u16`/`u32`/`u64`);
//! * `bool` and `Option` as one tag byte (any value other than 0/1 is a
//!   decode error, so a flipped bit never aliases);
//! * sequences (`Vec`, `String`) as a `u32` length followed by the
//!   elements;
//! * structs as their fields in declaration order (the
//!   [`wire_struct!`](crate::wire_struct) macro writes those impls);
//! * enums as a one-byte variant tag followed by the variant's fields
//!   (the [`wire_enum!`](crate::wire_enum) macro writes those impls from
//!   an explicit `tag => Variant` table, so every message enum in the
//!   workspace shares one decoder shape).
//!
//! Decoding is strict: unknown tags, truncated input and trailing bytes
//! are all [`WireError`]s, never panics — the wall engine feeds sockets
//! straight into [`Decode::from_wire`]. No codec is written by hand
//! outside this module.
//!
//! # Examples
//!
//! ```
//! use gcl_types::{Decode, Encode, PartyId, Value};
//!
//! let v = (Value::new(7), Some(PartyId::new(2)));
//! let bytes = v.to_wire();
//! assert_eq!(<(Value, Option<PartyId>)>::from_wire(&bytes).unwrap(), v);
//! ```

use crate::id::{PartyId, View};
use crate::time::{Duration, GlobalTime, LocalTime};
use crate::value::{SlotId, Value};
use std::fmt;

/// Why a byte string failed to decode.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WireError {
    /// The input ended before the value did.
    Truncated,
    /// The value ended before the input did (strict framing: a message
    /// occupies its frame exactly).
    Trailing(usize),
    /// An enum tag byte no variant claims.
    BadTag {
        /// The type being decoded.
        ty: &'static str,
        /// The offending tag.
        tag: u8,
    },
    /// A payload that violates its type's invariant (non-0/1 bool,
    /// invalid UTF-8, …).
    Invalid(&'static str),
}

impl fmt::Display for WireError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire input truncated"),
            WireError::Trailing(n) => write!(f, "{n} trailing bytes after value"),
            WireError::BadTag { ty, tag } => write!(f, "unknown {ty} variant tag {tag}"),
            WireError::Invalid(what) => write!(f, "invalid wire payload: {what}"),
        }
    }
}

impl std::error::Error for WireError {}

/// Serializes a value into the workspace wire format.
pub trait Encode {
    /// Appends this value's encoding to `buf`.
    fn encode(&self, buf: &mut Vec<u8>);

    /// This value's encoding as a fresh byte vector.
    fn to_wire(&self) -> Vec<u8> {
        let mut buf = Vec::new();
        self.encode(&mut buf);
        buf
    }
}

/// Deserializes a value from the workspace wire format.
pub trait Decode: Sized {
    /// Reads one value from the front of `input`, advancing it past the
    /// bytes consumed.
    ///
    /// # Errors
    ///
    /// Any [`WireError`] the input provokes; on error the cursor position
    /// is unspecified.
    fn decode(input: &mut &[u8]) -> Result<Self, WireError>;

    /// Decodes a value that must occupy `bytes` exactly.
    ///
    /// # Errors
    ///
    /// [`WireError::Trailing`] when bytes remain after the value, plus
    /// everything [`Decode::decode`] reports.
    fn from_wire(mut bytes: &[u8]) -> Result<Self, WireError> {
        let v = Self::decode(&mut bytes)?;
        if !bytes.is_empty() {
            return Err(WireError::Trailing(bytes.len()));
        }
        Ok(v)
    }
}

/// The full bound a wall-clock execution backend needs from a protocol
/// message: plain data (`Clone + Debug`), shareable across party threads
/// (`Send + Sync`), and codec-capable (`Encode + Decode`). This is the
/// bound `gcl_sim::Protocol::Msg` carries; the blanket impl makes any
/// qualifying type a `WireMsg` automatically.
pub trait WireMsg: Clone + fmt::Debug + Send + Sync + Encode + Decode + 'static {}

impl<T: Clone + fmt::Debug + Send + Sync + Encode + Decode + 'static> WireMsg for T {}

/// Takes `n` bytes off the front of `input`.
fn take<'a>(input: &mut &'a [u8], n: usize) -> Result<&'a [u8], WireError> {
    if input.len() < n {
        return Err(WireError::Truncated);
    }
    let (head, rest) = input.split_at(n);
    *input = rest;
    Ok(head)
}

macro_rules! wire_uint {
    ($($t:ty),*) => {$(
        impl Encode for $t {
            fn encode(&self, buf: &mut Vec<u8>) {
                buf.extend_from_slice(&self.to_le_bytes());
            }
        }
        impl Decode for $t {
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                let bytes = take(input, std::mem::size_of::<$t>())?;
                Ok(<$t>::from_le_bytes(bytes.try_into().expect("exact take")))
            }
        }
    )*};
}

wire_uint!(u8, u16, u32, u64);

impl Encode for usize {
    fn encode(&self, buf: &mut Vec<u8>) {
        (*self as u64).encode(buf);
    }
}

impl Decode for usize {
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        usize::try_from(u64::decode(input)?).map_err(|_| WireError::Invalid("usize overflow"))
    }
}

impl Encode for bool {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.push(u8::from(*self));
    }
}

impl Decode for bool {
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(false),
            1 => Ok(true),
            _ => Err(WireError::Invalid("bool byte not 0/1")),
        }
    }
}

impl<const N: usize> Encode for [u8; N] {
    fn encode(&self, buf: &mut Vec<u8>) {
        buf.extend_from_slice(self);
    }
}

impl<const N: usize> Decode for [u8; N] {
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let bytes = take(input, N)?;
        Ok(bytes.try_into().expect("exact take"))
    }
}

impl<T: Encode> Encode for Option<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        match self {
            None => buf.push(0),
            Some(v) => {
                buf.push(1);
                v.encode(buf);
            }
        }
    }
}

impl<T: Decode> Decode for Option<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        match u8::decode(input)? {
            0 => Ok(None),
            1 => Ok(Some(T::decode(input)?)),
            _ => Err(WireError::Invalid("Option tag not 0/1")),
        }
    }
}

/// Writes a sequence length (`u32`, the format's only length width).
fn encode_len(len: usize, buf: &mut Vec<u8>) {
    u32::try_from(len)
        .expect("wire sequences are bounded far below u32::MAX")
        .encode(buf);
}

/// Reads a sequence length. The cap on pre-allocation lives at the use
/// sites: decoders push element by element, so a lying length fails with
/// [`WireError::Truncated`] instead of a huge allocation.
fn decode_len(input: &mut &[u8]) -> Result<usize, WireError> {
    Ok(u32::decode(input)? as usize)
}

impl<T: Encode> Encode for Vec<T> {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_len(self.len(), buf);
        for item in self {
            item.encode(buf);
        }
    }
}

impl<T: Decode> Decode for Vec<T> {
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = decode_len(input)?;
        let mut out = Vec::with_capacity(len.min(1024));
        for _ in 0..len {
            out.push(T::decode(input)?);
        }
        Ok(out)
    }
}

impl Encode for String {
    fn encode(&self, buf: &mut Vec<u8>) {
        encode_len(self.len(), buf);
        buf.extend_from_slice(self.as_bytes());
    }
}

impl Decode for String {
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        let len = decode_len(input)?;
        let bytes = take(input, len)?;
        String::from_utf8(bytes.to_vec()).map_err(|_| WireError::Invalid("string not UTF-8"))
    }
}

impl<A: Encode, B: Encode> Encode for (A, B) {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.0.encode(buf);
        self.1.encode(buf);
    }
}

impl<A: Decode, B: Decode> Decode for (A, B) {
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok((A::decode(input)?, B::decode(input)?))
    }
}

/// Implements [`Encode`]/[`Decode`] for a struct with named fields: the
/// fields in declaration order, no tags. Works through public accessors —
/// the listed fields must be visible at the macro call site.
///
/// # Examples
///
/// ```
/// use gcl_types::{wire_struct, Decode, Encode, PartyId, Value};
///
/// #[derive(Debug, Clone, PartialEq)]
/// pub struct Ballot {
///     pub voter: PartyId,
///     pub value: Value,
/// }
/// wire_struct!(Ballot { voter, value });
///
/// let b = Ballot { voter: PartyId::new(3), value: Value::new(9) };
/// assert_eq!(Ballot::from_wire(&b.to_wire()).unwrap(), b);
/// ```
#[macro_export]
macro_rules! wire_struct {
    ($ty:ident { $($field:ident),+ $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                $( $crate::Encode::encode(&self.$field, buf); )+
            }
        }
        impl $crate::Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::WireError> {
                Ok($ty { $( $field: $crate::Decode::decode(input)? ),+ })
            }
        }
    };
}

/// Implements [`Encode`]/[`Decode`] for a single-field tuple struct
/// (`struct Wrapper(pub Inner);`) as the transparent encoding of its
/// payload.
#[macro_export]
macro_rules! wire_newtype {
    ($ty:ident) => {
        impl $crate::Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                $crate::Encode::encode(&self.0, buf);
            }
        }
        impl $crate::Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::WireError> {
                Ok($ty($crate::Decode::decode(input)?))
            }
        }
    };
}

/// Implements [`Encode`]/[`Decode`] for an enum from an explicit
/// `tag => Variant` table: one tag byte, then the variant's fields in the
/// order listed. Unit, tuple (`Variant(a, b)`) and named-field
/// (`Variant { a, b }`) variants are supported; the names inside a tuple
/// variant are just binders. A tag byte no row claims decodes to
/// [`WireError::BadTag`] naming the enum; a tag claimed twice is an
/// unreachable-pattern lint.
///
/// # Examples
///
/// ```
/// use gcl_types::{wire_enum, Decode, Encode, Value, WireError};
///
/// #[derive(Debug, Clone, PartialEq)]
/// pub enum Step {
///     Propose(Value),
///     Vote { value: Value, round: u32 },
///     Abort,
/// }
/// wire_enum!(Step {
///     1 => Propose(value),
///     2 => Vote { value, round },
///     3 => Abort,
/// });
///
/// let vote = Step::Vote { value: Value::new(9), round: 2 };
/// assert_eq!(Step::from_wire(&vote.to_wire()).unwrap(), vote);
/// assert_eq!(Step::Abort.to_wire(), [3]);
/// assert_eq!(Step::from_wire(&[4]), Err(WireError::BadTag { ty: "Step", tag: 4 }));
/// ```
#[macro_export]
macro_rules! wire_enum {
    ($ty:ident { $(
        $tag:literal => $variant:ident $( ( $($elem:ident),+ ) )? $( { $($field:ident),+ } )?
    ),+ $(,)? }) => {
        impl $crate::Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                match self {$(
                    $ty::$variant $( ( $($elem),+ ) )? $( { $($field),+ } )? => {
                        buf.push($tag);
                        $( $( $crate::Encode::encode($elem, buf); )+ )?
                        $( $( $crate::Encode::encode($field, buf); )+ )?
                    }
                )+}
            }
        }
        impl $crate::Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, $crate::WireError> {
                match <u8 as $crate::Decode>::decode(input)? {
                    $( $tag => {
                        $( $( let $elem = $crate::Decode::decode(input)?; )+ )?
                        $( $( let $field = $crate::Decode::decode(input)?; )+ )?
                        Ok($ty::$variant $( ( $($elem),+ ) )? $( { $($field),+ } )?)
                    } )+
                    tag => Err($crate::WireError::BadTag { ty: stringify!($ty), tag }),
                }
            }
        }
    };
}

macro_rules! wire_via_u64 {
    ($($ty:ident: $get:ident / $make:ident),* $(,)?) => {$(
        impl Encode for $ty {
            fn encode(&self, buf: &mut Vec<u8>) {
                self.$get().encode(buf);
            }
        }
        impl Decode for $ty {
            fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
                Ok($ty::$make(u64::decode(input)?))
            }
        }
    )*};
}

wire_via_u64!(
    Value: as_u64 / new,
    SlotId: index / new,
    View: number / new,
    Duration: as_micros / from_micros,
    GlobalTime: as_micros / from_micros,
    LocalTime: as_micros / from_micros,
);

impl Encode for PartyId {
    fn encode(&self, buf: &mut Vec<u8>) {
        self.index().encode(buf);
    }
}

impl Decode for PartyId {
    fn decode(input: &mut &[u8]) -> Result<Self, WireError> {
        Ok(PartyId::new(u32::decode(input)?))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip<T: Encode + Decode + PartialEq + fmt::Debug>(v: T) {
        let bytes = v.to_wire();
        assert_eq!(T::from_wire(&bytes).unwrap(), v, "round trip");
    }

    #[test]
    fn primitives_round_trip() {
        round_trip(0u8);
        round_trip(u8::MAX);
        round_trip(0xbeefu16);
        round_trip(0xdead_beefu32);
        round_trip(u64::MAX);
        round_trip(usize::MAX);
        round_trip(true);
        round_trip(false);
        round_trip([7u8; 32]);
        round_trip(String::from("δ ≤ Δ"));
        round_trip(Option::<u64>::None);
        round_trip(Some(9u32));
        round_trip(vec![1u64, 2, 3]);
        round_trip(Vec::<u8>::new());
        round_trip((3u8, vec![String::from("x")]));
    }

    #[test]
    fn vocabulary_types_round_trip() {
        round_trip(Value::new(42));
        round_trip(SlotId::new(7));
        round_trip(View::new(3));
        round_trip(PartyId::new(11));
        round_trip(Duration::from_micros(100));
        round_trip(GlobalTime::from_micros(5));
        round_trip(LocalTime::from_micros(6));
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let bytes = 0xdead_beef_u64.to_wire();
        assert_eq!(u64::from_wire(&bytes[..7]), Err(WireError::Truncated));
        assert_eq!(
            Vec::<u64>::from_wire(&5u32.to_wire()),
            Err(WireError::Truncated),
            "length prefix promises more elements than the input holds"
        );
    }

    #[test]
    fn trailing_bytes_rejected() {
        let mut bytes = 1u8.to_wire();
        bytes.push(0);
        assert_eq!(u8::from_wire(&bytes), Err(WireError::Trailing(1)));
    }

    #[test]
    fn bad_tags_rejected() {
        assert_eq!(
            bool::from_wire(&[2]),
            Err(WireError::Invalid("bool byte not 0/1"))
        );
        assert_eq!(
            Option::<u8>::from_wire(&[9, 0]),
            Err(WireError::Invalid("Option tag not 0/1"))
        );
        let mut s = 1u32.to_wire();
        s.push(0xff);
        assert!(String::from_wire(&s).is_err(), "invalid UTF-8 rejected");
    }

    #[test]
    fn errors_render() {
        assert!(WireError::Truncated.to_string().contains("truncated"));
        assert!(WireError::Trailing(3).to_string().contains("3 trailing"));
        let tag = WireError::BadTag { ty: "Msg", tag: 9 };
        assert!(tag.to_string().contains("Msg"), "{tag}");
    }

    #[test]
    fn macro_struct_and_newtype_round_trip() {
        #[derive(Debug, Clone, PartialEq)]
        struct Pair {
            a: u32,
            b: Option<Value>,
        }
        wire_struct!(Pair { a, b });
        round_trip(Pair {
            a: 5,
            b: Some(Value::new(6)),
        });

        #[derive(Debug, Clone, PartialEq)]
        struct Wrapped(Vec<u16>);
        wire_newtype!(Wrapped);
        round_trip(Wrapped(vec![1, 2, 3]));
    }

    #[test]
    fn macro_enum_covers_every_variant_shape() {
        #[derive(Debug, Clone, PartialEq)]
        enum Shape {
            Unit,
            Tuple(u16, Option<Value>),
            Named { a: u32, b: Vec<u8> },
        }
        wire_enum!(Shape {
            0 => Unit,
            1 => Tuple(x, y),
            7 => Named { a, b },
        });
        assert_eq!(Shape::Unit.to_wire(), [0], "tag 0 is an ordinary tag");
        assert_eq!(Shape::Tuple(0x0201, None).to_wire(), [1, 1, 2, 0]);
        let named = Shape::Named {
            a: 5,
            b: vec![8, 9],
        };
        assert_eq!(named.to_wire(), [7, 5, 0, 0, 0, 2, 0, 0, 0, 8, 9]);
        round_trip(Shape::Unit);
        round_trip(Shape::Tuple(3, Some(Value::new(4))));
        round_trip(named);
        // Hostile bytes: unclaimed tag (between and past the claimed ones),
        // empty input, a truncated payload, a trailing byte.
        for tag in [2, 6, 8, u8::MAX] {
            let err = WireError::BadTag { ty: "Shape", tag };
            assert_eq!(Shape::from_wire(&[tag, 0, 0]), Err(err));
        }
        assert_eq!(Shape::from_wire(&[]), Err(WireError::Truncated));
        assert_eq!(Shape::from_wire(&[1, 1]), Err(WireError::Truncated));
        assert_eq!(Shape::from_wire(&[0, 0]), Err(WireError::Trailing(1)));
    }
}
