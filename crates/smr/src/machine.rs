//! Replicated state machines.

use gcl_types::{SlotId, Value};
use std::collections::BTreeMap;

/// A deterministic state machine fed the committed log in slot order.
pub trait StateMachine: Send + 'static {
    /// Applies the value committed in `slot` (called in strictly
    /// increasing slot order, exactly once per slot).
    fn apply(&mut self, slot: SlotId, value: Value);

    /// A digest of the current state, for cross-replica comparison.
    fn state_digest(&self) -> u64;
}

/// Adds every committed value into an accumulator.
///
/// # Examples
///
/// ```
/// use gcl_smr::{Counter, StateMachine};
/// use gcl_types::{SlotId, Value};
/// let mut c = Counter::default();
/// c.apply(SlotId::new(0), Value::new(4));
/// c.apply(SlotId::new(1), Value::new(2));
/// assert_eq!(c.total(), 6);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct Counter {
    total: u64,
    applied: u64,
}

impl Counter {
    /// Sum of all applied values.
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of applied slots.
    pub fn applied(&self) -> u64 {
        self.applied
    }
}

impl StateMachine for Counter {
    fn apply(&mut self, _slot: SlotId, value: Value) {
        self.total = self.total.wrapping_add(value.as_u64());
        self.applied += 1;
    }

    fn state_digest(&self) -> u64 {
        self.total ^ (self.applied << 48)
    }
}

/// A tiny replicated key-value store. Commands pack a 32-bit key and a
/// 32-bit value into one [`Value`]: `cmd = key << 32 | val`.
///
/// # Examples
///
/// ```
/// use gcl_smr::{KvStore, StateMachine};
/// use gcl_types::{SlotId, Value};
/// let mut kv = KvStore::default();
/// kv.apply(SlotId::new(0), KvStore::set(7, 99));
/// assert_eq!(kv.get(7), Some(99));
/// assert_eq!(kv.get(8), None);
/// ```
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct KvStore {
    map: BTreeMap<u32, u32>,
}

impl KvStore {
    /// Encodes a `set key := val` command.
    pub fn set(key: u32, val: u32) -> Value {
        Value::new((u64::from(key) << 32) | u64::from(val))
    }

    /// Reads a key.
    pub fn get(&self, key: u32) -> Option<u32> {
        self.map.get(&key).copied()
    }
}

impl StateMachine for KvStore {
    fn apply(&mut self, _slot: SlotId, value: Value) {
        let key = (value.as_u64() >> 32) as u32;
        let val = (value.as_u64() & 0xffff_ffff) as u32;
        self.map.insert(key, val);
    }

    fn state_digest(&self) -> u64 {
        let mut acc: u64 = 0xcbf2_9ce4_8422_2325;
        for (k, v) in &self.map {
            acc = acc
                .wrapping_mul(0x1000_0000_01b3)
                .wrapping_add(u64::from(*k) << 32 | u64::from(*v));
        }
        acc
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_accumulates() {
        let mut c = Counter::default();
        c.apply(SlotId::new(0), Value::new(10));
        c.apply(SlotId::new(1), Value::new(5));
        assert_eq!(c.total(), 15);
        assert_eq!(c.applied(), 2);
        assert_ne!(c.state_digest(), Counter::default().state_digest());
    }

    #[test]
    fn kv_roundtrip() {
        let mut kv = KvStore::default();
        assert_eq!(kv.get(1), None);
        kv.apply(SlotId::new(0), KvStore::set(1, 2));
        kv.apply(SlotId::new(1), KvStore::set(1, 3)); // overwrite
        kv.apply(SlotId::new(2), KvStore::set(9, 9));
        assert_eq!(kv.get(1), Some(3));
        assert_eq!(kv.get(9), Some(9));
    }

    #[test]
    fn kv_digest_order_independent_of_apply_order_for_same_final_map() {
        let mut a = KvStore::default();
        a.apply(SlotId::new(0), KvStore::set(1, 1));
        a.apply(SlotId::new(1), KvStore::set(2, 2));
        let mut b = KvStore::default();
        b.apply(SlotId::new(0), KvStore::set(2, 2));
        b.apply(SlotId::new(1), KvStore::set(1, 1));
        assert_eq!(a.state_digest(), b.state_digest());
    }
}
