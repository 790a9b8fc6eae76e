//! Batched SMR proposals.
//!
//! One slot of the SMR log decides one [`Batch`], not one command: the
//! 2-round good case of the `(5f-1)` engine is amortized across every
//! command the leader pulled from its mempool. A batch is only ever
//! commands: the log has no end-of-log marker, so a replica stops on what
//! it has applied (see `gcl_smr`), never on what a slot decided.

use crate::value::Value;
use std::fmt;

/// What one SMR slot decides.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Batch {
    /// An ordered run of client commands (possibly empty — a no-op filler).
    Commands(Vec<Value>),
}

impl Batch {
    /// An empty command batch — the filler a slot decides when its leader
    /// had nothing to propose.
    pub const fn no_op() -> Self {
        Batch::Commands(Vec::new())
    }

    /// Whether this batch carries zero commands.
    pub fn is_no_op(&self) -> bool {
        self.is_empty()
    }

    /// The commands carried (empty for a no-op).
    pub fn commands(&self) -> &[Value] {
        let Batch::Commands(cmds) = self;
        cmds
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

// Tag 1 is unassigned: it was the end-of-log marker, and decoding it
// now fails with `BadTag`.
crate::wire_enum!(Batch {
    0 => Commands(cmds),
});

impl fmt::Display for Batch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.len() {
            0 => write!(f, "no-op"),
            len => write!(f, "batch[{len}]"),
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
        ];
        for b in cases {
            let bytes = b.to_wire();
            assert_eq!(Batch::from_wire(&bytes).unwrap(), b);
        }
    }

    #[test]
    fn bad_tag_and_truncation_rejected() {
        assert!(matches!(
            Batch::from_wire(&[9]),
            Err(WireError::BadTag { ty: "Batch", .. })
        ));
        // The retired end-of-log tag: a replayed old frame is refused.
        assert_eq!(
            Batch::from_wire(&[1]),
            Err(WireError::BadTag {
                ty: "Batch",
                tag: 1
            })
        );
        assert!(Batch::from_wire(&[]).is_err());
        let mut bytes = Batch::Commands(vec![Value::ONE]).to_wire();
        bytes.truncate(bytes.len() - 1);
        assert!(Batch::from_wire(&bytes).is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(Batch::no_op().to_string(), "no-op");
        assert_eq!(Batch::Commands(vec![Value::ONE]).to_string(), "batch[1]");
    }
}
