//! Canonical payload hashing without a serialization framework.
//!
//! Protocol messages stay plain Rust values; anything that must be signed
//! implements [`Digestible`], which feeds a canonical byte encoding into
//! SHA-256. Encodings are length-prefixed where variable-sized, so distinct
//! structures can never collide by concatenation ambiguity.

use crate::sha256::Sha256;
use gcl_types::{Duration, LocalTime, PartyId, SlotId, Value, View};
use std::fmt;

/// A 32-byte SHA-256 digest of a [`Digestible`] payload.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Digest([u8; 32]);

impl Digest {
    /// Hashes a payload.
    ///
    /// # Examples
    ///
    /// ```
    /// use gcl_crypto::Digest;
    /// let a = Digest::of(&("vote", 1u64));
    /// let b = Digest::of(&("vote", 2u64));
    /// assert_ne!(a, b);
    /// ```
    pub fn of<T: Digestible + ?Sized>(payload: &T) -> Digest {
        let mut h = Sha256::new();
        payload.absorb(&mut h);
        Digest(h.finalize())
    }

    /// Raw digest bytes.
    pub const fn as_bytes(&self) -> &[u8; 32] {
        &self.0
    }

    /// Constructs a digest from raw bytes (e.g. a stored hash).
    pub const fn from_bytes(bytes: [u8; 32]) -> Digest {
        Digest(bytes)
    }
}

// Wire format: the raw 32 bytes.
gcl_types::wire_newtype!(Digest);

impl fmt::Debug for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Digest({:02x}{:02x}{:02x}{:02x}..)",
            self.0[0], self.0[1], self.0[2], self.0[3]
        )
    }
}

impl fmt::Display for Digest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for b in &self.0[..8] {
            write!(f, "{b:02x}")?;
        }
        Ok(())
    }
}

/// Types with a canonical byte encoding for hashing and signing.
///
/// Implementations must be *injective within a protocol's payload domain*:
/// two payloads an honest party distinguishes must absorb different byte
/// streams. The provided combinators (length prefixes, type tags via
/// `absorb_tag`) make that easy.
pub trait Digestible {
    /// Feeds the canonical encoding of `self` into the hasher.
    fn absorb(&self, h: &mut Sha256);
}

/// Helper: absorb a domain-separation / variant tag.
pub(crate) fn absorb_tag(h: &mut Sha256, tag: &str) {
    h.update(&(tag.len() as u32).to_le_bytes());
    h.update(tag.as_bytes());
}

impl Digestible for u8 {
    fn absorb(&self, h: &mut Sha256) {
        h.update(&[*self]);
    }
}

impl Digestible for u32 {
    fn absorb(&self, h: &mut Sha256) {
        h.update(&self.to_le_bytes());
    }
}

impl Digestible for u64 {
    fn absorb(&self, h: &mut Sha256) {
        h.update(&self.to_le_bytes());
    }
}

impl Digestible for bool {
    fn absorb(&self, h: &mut Sha256) {
        h.update(&[u8::from(*self)]);
    }
}

impl Digestible for str {
    fn absorb(&self, h: &mut Sha256) {
        h.update(&(self.len() as u64).to_le_bytes());
        h.update(self.as_bytes());
    }
}

impl Digestible for String {
    fn absorb(&self, h: &mut Sha256) {
        self.as_str().absorb(h);
    }
}

impl Digestible for [u8] {
    fn absorb(&self, h: &mut Sha256) {
        h.update(&(self.len() as u64).to_le_bytes());
        h.update(self);
    }
}

impl<T: Digestible> Digestible for Vec<T> {
    fn absorb(&self, h: &mut Sha256) {
        h.update(&(self.len() as u64).to_le_bytes());
        for item in self {
            item.absorb(h);
        }
    }
}

impl<T: Digestible> Digestible for Option<T> {
    fn absorb(&self, h: &mut Sha256) {
        match self {
            None => h.update(&[0]),
            Some(v) => {
                h.update(&[1]);
                v.absorb(h);
            }
        }
    }
}

impl<T: Digestible + ?Sized> Digestible for &T {
    fn absorb(&self, h: &mut Sha256) {
        (**self).absorb(h);
    }
}

macro_rules! tuple_digestible {
    ($($name:ident : $idx:tt),+) => {
        impl<$($name: Digestible),+> Digestible for ($($name,)+) {
            fn absorb(&self, h: &mut Sha256) {
                $( self.$idx.absorb(h); )+
            }
        }
    };
}

tuple_digestible!(A: 0);
tuple_digestible!(A: 0, B: 1);
tuple_digestible!(A: 0, B: 1, C: 2);
tuple_digestible!(A: 0, B: 1, C: 2, D: 3);
tuple_digestible!(A: 0, B: 1, C: 2, D: 3, E: 4);

impl Digestible for Value {
    fn absorb(&self, h: &mut Sha256) {
        absorb_tag(h, "value");
        h.update(&self.to_le_bytes());
    }
}

impl Digestible for PartyId {
    fn absorb(&self, h: &mut Sha256) {
        absorb_tag(h, "party");
        h.update(&self.index().to_le_bytes());
    }
}

impl Digestible for View {
    fn absorb(&self, h: &mut Sha256) {
        absorb_tag(h, "view");
        h.update(&self.number().to_le_bytes());
    }
}

impl Digestible for SlotId {
    fn absorb(&self, h: &mut Sha256) {
        absorb_tag(h, "slot");
        h.update(&self.index().to_le_bytes());
    }
}

impl Digestible for Duration {
    fn absorb(&self, h: &mut Sha256) {
        absorb_tag(h, "dur");
        h.update(&self.as_micros().to_le_bytes());
    }
}

impl Digestible for LocalTime {
    fn absorb(&self, h: &mut Sha256) {
        absorb_tag(h, "ltime");
        h.update(&self.as_micros().to_le_bytes());
    }
}

impl Digestible for Digest {
    fn absorb(&self, h: &mut Sha256) {
        absorb_tag(h, "digest");
        h.update(&self.0);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn digests_are_deterministic() {
        assert_eq!(Digest::of(&42u64), Digest::of(&42u64));
    }

    #[test]
    fn type_tags_separate_domains() {
        // A Value and a View with the same raw number must not collide.
        assert_ne!(Digest::of(&Value::new(5)), Digest::of(&View::new(5)));
        assert_ne!(Digest::of(&PartyId::new(5)), Digest::of(&Value::new(5)));
    }

    #[test]
    fn length_prefix_prevents_concat_ambiguity() {
        assert_ne!(
            Digest::of(&("ab".to_string(), "c".to_string())),
            Digest::of(&("a".to_string(), "bc".to_string()))
        );
        let v1: Vec<u64> = vec![1, 2];
        let v2: Vec<u64> = vec![1, 2, 0];
        assert_ne!(Digest::of(&v1), Digest::of(&v2));
    }

    #[test]
    fn option_encoding() {
        assert_ne!(Digest::of(&Option::<u64>::None), Digest::of(&Some(0u64)));
    }

    #[test]
    fn tuple_ordering_matters() {
        assert_ne!(Digest::of(&(1u64, 2u64)), Digest::of(&(2u64, 1u64)));
    }

    #[test]
    fn display_and_debug() {
        let d = Digest::of(&1u64);
        assert_eq!(d.to_string().len(), 16);
        assert!(format!("{d:?}").starts_with("Digest("));
    }

    #[test]
    fn from_bytes_roundtrip() {
        let d = Digest::of(&9u64);
        assert_eq!(Digest::from_bytes(*d.as_bytes()), d);
    }
}
