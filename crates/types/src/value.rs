//! Broadcast values and SMR slot identifiers.

use std::fmt;

/// A value being broadcast.
///
/// The paper treats values abstractly; a 64-bit payload is enough to express
/// every scenario (including the canonical `0` vs `1` equivocation pairs of
/// the lower-bound constructions) while keeping messages `Copy`.
///
/// # Examples
///
/// ```
/// use gcl_types::Value;
/// let v = Value::new(7);
/// assert_ne!(v, Value::ZERO);
/// assert_eq!(format!("{v}"), "v7");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Value(u64);

impl Value {
    /// The canonical value "0" used by the lower-bound executions.
    pub const ZERO: Value = Value(0);
    /// The canonical value "1" used by the lower-bound executions.
    pub const ONE: Value = Value(1);
    /// The reserved "no operation" value.
    ///
    /// SMR slots that time out with nothing locked decide `NO_OP` and apply
    /// nothing. The encoding is explicit and reserved: client commands equal
    /// to `NO_OP` are rejected at mempool admission, so no legitimate input
    /// can alias the protocol's filler decision. (Every other `u64` payload —
    /// including the former magic filler `u64::MAX - 1` — is a legal
    /// command.)
    pub const NO_OP: Value = Value(u64::MAX);

    /// Whether this is the reserved [`Value::NO_OP`] encoding.
    pub const fn is_no_op(self) -> bool {
        self.0 == u64::MAX
    }

    /// Creates a value from its payload.
    pub const fn new(payload: u64) -> Self {
        Value(payload)
    }

    /// Returns the payload.
    pub const fn as_u64(self) -> u64 {
        self.0
    }

    /// Returns the payload as little-endian bytes (for signing).
    pub const fn to_le_bytes(self) -> [u8; 8] {
        self.0.to_le_bytes()
    }
}

impl fmt::Display for Value {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v{}", self.0)
    }
}

impl From<u64> for Value {
    fn from(payload: u64) -> Self {
        Value(payload)
    }
}

/// Index of a slot (consensus instance) in the SMR log.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct SlotId(u64);

impl SlotId {
    /// The first slot.
    pub const FIRST: SlotId = SlotId(0);

    /// Creates a slot id.
    pub const fn new(index: u64) -> Self {
        SlotId(index)
    }

    /// Returns the raw index.
    pub const fn index(self) -> u64 {
        self.0
    }
}

impl fmt::Display for SlotId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "slot {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn value_basics() {
        assert_eq!(Value::new(0), Value::ZERO);
        assert_eq!(Value::from(1u64), Value::ONE);
        assert_eq!(Value::new(9).as_u64(), 9);
        assert_eq!(Value::new(1).to_le_bytes()[0], 1);
    }

    #[test]
    fn slot_sequence() {
        assert_eq!(SlotId::FIRST.index(), 0);
        assert_eq!(SlotId::new(1).to_string(), "slot 1");
    }
}
