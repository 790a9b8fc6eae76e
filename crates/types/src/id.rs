//! Party and view identifiers.

use std::fmt;

/// Identifier of one of the `n` parties, in `0..n`.
///
/// The designated broadcaster is, by convention throughout this workspace,
/// party `0` unless a scenario says otherwise.
///
/// # Examples
///
/// ```
/// use gcl_types::PartyId;
/// let p = PartyId::new(3);
/// assert_eq!(p.index(), 3);
/// assert_eq!(format!("{p}"), "P3");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct PartyId(u32);

impl PartyId {
    /// The reserved out-of-band client address: never one of the `n`
    /// parties. Serving protocols (the SMR engine) address acknowledgements
    /// here; backends either route such sends to their external client
    /// channel (the wall engine) or drop them (the simulator, which has no
    /// client endpoint).
    pub const CLIENT: PartyId = PartyId(u32::MAX);

    /// Creates a party id from its index.
    pub const fn new(index: u32) -> Self {
        PartyId(index)
    }

    /// Returns the index in `0..n`.
    pub const fn index(self) -> u32 {
        self.0
    }

    /// Returns the index as a `usize`, convenient for vector indexing.
    pub const fn as_usize(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for PartyId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "P{}", self.0)
    }
}

impl From<u32> for PartyId {
    fn from(index: u32) -> Self {
        PartyId(index)
    }
}

/// A view number of a view-based (partially synchronous) protocol.
///
/// Views start at 1; view 0 is the "initial" pseudo-view used only by the
/// empty bootstrap certificate of the `(5f-1)`-psync-VBB protocol (Figure 2
/// of the paper).
///
/// # Examples
///
/// ```
/// use gcl_types::View;
/// let w = View::FIRST;
/// assert_eq!(w.number(), 1);
/// assert_eq!(w.prev().number(), 0);
/// assert_eq!(w.next().number(), 2);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct View(u64);

impl View {
    /// The initial pseudo-view (only valid for bootstrap certificates).
    pub const ZERO: View = View(0);
    /// The first real view; its leader is the designated broadcaster.
    pub const FIRST: View = View(1);

    /// Creates a view from a raw number.
    pub const fn new(number: u64) -> Self {
        View(number)
    }

    /// Returns the raw view number.
    pub const fn number(self) -> u64 {
        self.0
    }

    /// Returns the next view.
    #[must_use]
    pub const fn next(self) -> View {
        View(self.0 + 1)
    }

    /// Returns the previous view.
    ///
    /// # Panics
    ///
    /// Panics if called on [`View::ZERO`].
    #[must_use]
    pub const fn prev(self) -> View {
        assert!(self.0 > 0, "view 0 has no predecessor");
        View(self.0 - 1)
    }

    /// Round-robin leader for this view among `n` parties, with the
    /// designated broadcaster (party 0) leading view 1.
    pub fn leader(self, n: usize) -> PartyId {
        debug_assert!(self.0 >= 1, "leader is defined for views >= 1");
        PartyId::new(((self.0 - 1) % n as u64) as u32)
    }
}

impl fmt::Display for View {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "view {}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn party_id_roundtrip() {
        let p = PartyId::new(7);
        assert_eq!(p.index(), 7);
        assert_eq!(p.as_usize(), 7);
        assert_eq!(PartyId::from(7u32), p);
    }

    #[test]
    fn party_id_display() {
        assert_eq!(PartyId::new(0).to_string(), "P0");
    }

    #[test]
    fn client_address_is_reserved() {
        // No realistic party count collides with the client address.
        assert_eq!(PartyId::CLIENT.index(), u32::MAX);
    }

    #[test]
    fn party_id_ordering() {
        assert!(PartyId::new(1) < PartyId::new(2));
    }

    #[test]
    fn view_arithmetic() {
        let w = View::FIRST;
        assert_eq!(w.next(), View::new(2));
        assert_eq!(w.next().prev(), w);
    }

    #[test]
    #[should_panic(expected = "no predecessor")]
    fn view_zero_prev_panics() {
        let _ = View::ZERO.prev();
    }

    #[test]
    fn view_leader_round_robin() {
        let n = 4;
        assert_eq!(View::new(1).leader(n), PartyId::new(0));
        assert_eq!(View::new(2).leader(n), PartyId::new(1));
        assert_eq!(View::new(5).leader(n), PartyId::new(0));
    }

    #[test]
    fn view_display() {
        assert_eq!(View::new(3).to_string(), "view 3");
    }
}
