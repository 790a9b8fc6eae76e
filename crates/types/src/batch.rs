//! Batched SMR proposals.
//!
//! One slot of the SMR log decides one [`Batch`], not one command: the
//! 2-round good case of the `(5f-1)` engine is amortized across every
//! command the leader pulled from its mempool. The batch also carries the
//! log's termination marker — a [`Batch::Seal`] closes the log, replacing
//! the old "replicas know `workload.len()` in advance" rule.

use crate::value::Value;
use std::fmt;

/// What one SMR slot decides.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Batch {
    /// An ordered run of client commands (possibly empty — a no-op filler).
    Commands(Vec<Value>),
    /// The explicit end-of-log marker: replicas that apply a seal snapshot
    /// their state digest and terminate.
    Seal,
}

impl Batch {
    /// An empty command batch — the filler a slot decides when its leader
    /// had nothing to propose.
    pub const fn no_op() -> Self {
        Batch::Commands(Vec::new())
    }

    /// Whether this batch carries zero commands (and is not a seal).
    pub fn is_no_op(&self) -> bool {
        matches!(self, Batch::Commands(cmds) if cmds.is_empty())
    }

    /// Whether this is the end-of-log seal.
    pub const fn is_seal(&self) -> bool {
        matches!(self, Batch::Seal)
    }

    /// The commands carried (empty for no-ops and seals).
    pub fn commands(&self) -> &[Value] {
        match self {
            Batch::Commands(cmds) => cmds,
            Batch::Seal => &[],
        }
    }

    /// Number of commands carried.
    pub fn len(&self) -> usize {
        self.commands().len()
    }

    /// Whether the batch carries no commands.
    pub fn is_empty(&self) -> bool {
        self.commands().is_empty()
    }
}

crate::wire_enum!(Batch {
    0 => Commands(cmds),
    1 => Seal,
});

impl fmt::Display for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Batch::Seal => write!(f, "seal"),
            Batch::Commands(cmds) if cmds.is_empty() => write!(f, "no-op"),
            Batch::Commands(cmds) => write!(f, "batch[{}]", cmds.len()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wire::{Decode, Encode, WireError};

    #[test]
    fn batch_round_trips() {
        let cases = [
            Batch::no_op(),
            Batch::Commands(vec![Value::new(1)]),
            Batch::Commands((0..300).map(Value::new).collect()),
            Batch::Commands(vec![Value::new(u64::MAX - 1), Value::ZERO]),
            Batch::Seal,
        ];
        for b in cases {
            let bytes = b.to_wire();
            assert_eq!(Batch::from_wire(&bytes).unwrap(), b);
        }
    }

    #[test]
    fn seal_and_noop_encodings_differ() {
        assert_ne!(Batch::Seal.to_wire(), Batch::no_op().to_wire());
        assert!(Batch::Seal.is_seal() && !Batch::Seal.is_no_op());
        assert!(Batch::no_op().is_no_op() && !Batch::no_op().is_seal());
        assert!(Batch::Seal.commands().is_empty());
    }

    #[test]
    fn bad_tag_and_truncation_rejected() {
        assert!(matches!(
            Batch::from_wire(&[9]),
            Err(WireError::BadTag { ty: "Batch", .. })
        ));
        assert!(Batch::from_wire(&[]).is_err());
        let mut bytes = Batch::Commands(vec![Value::ONE]).to_wire();
        bytes.truncate(bytes.len() - 1);
        assert!(Batch::from_wire(&bytes).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Batch::Seal.to_string(), "seal");
        assert_eq!(Batch::no_op().to_string(), "no-op");
        assert_eq!(Batch::Commands(vec![Value::ONE]).to_string(), "batch[1]");
    }
}
