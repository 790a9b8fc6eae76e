//! One vote table for every protocol: who said what, per key.
//!
//! Every protocol in the paper collects signed messages from distinct
//! parties until a threshold is met — `n − f` votes, `f + 1` timed votes,
//! `4f − 1` timeouts — and fires once when it is. [`Tally`] is that
//! collection. Thresholds stay at the call sites, so it has no options; a
//! key's count grows by one at the insert that first records a sender, so
//! `count == t` holds at exactly one insert. What a second, *different*
//! message from a recorded sender does is the caller's rule:
//! [`Tally::insert`] keeps the first, [`Tally::replace`] and
//! [`Tally::admit`] the last.

use gcl_types::PartyId;
use std::collections::BTreeMap;

/// Messages from distinct senders, grouped by key (a value, a view, a
/// `(view, value)` pair, …).
///
/// Bundles come out in ascending sender order, so a forwarded quorum's wire
/// bytes do not depend on arrival order. [`Tally::new`] allocates nothing:
/// the SMR engine builds a protocol instance, with its tallies, per slot.
///
/// # Examples
///
/// ```
/// use gcl_core::Tally;
/// use gcl_types::PartyId;
///
/// let mut votes: Tally<&str, u64> = Tally::new();
/// assert_eq!(votes.insert("v", PartyId::new(2), 7), Ok(1));
/// assert_eq!(votes.insert("v", PartyId::new(0), 7), Ok(2));
/// assert_eq!(votes.insert("v", PartyId::new(2), 8), Err(&7), "first one wins");
/// assert_eq!(votes.replace("v", PartyId::new(2), 8), 2, "last one wins");
/// assert_eq!(votes.bundle(&"v"), [7, 8], "ascending sender");
/// ```
#[derive(Debug)]
pub struct Tally<K, V> {
    keys: BTreeMap<K, Votes<V>>,
}

/// One key's messages in arrival order, indexed by sender: `at[p]` is one
/// more than the position of party `p`'s message (0 = none).
#[derive(Debug)]
struct Votes<V> {
    at: Vec<u32>,
    msgs: Vec<V>,
}

impl<V> Votes<V> {
    fn position(&self, sender: PartyId) -> Option<usize> {
        let at = *self.at.get(sender.as_usize())?;
        at.checked_sub(1).map(|i| i as usize)
    }

    /// Records `sender`'s message, replacing any earlier one; the count.
    fn put(&mut self, sender: PartyId, msg: V) -> usize {
        match self.position(sender) {
            Some(i) => self.msgs[i] = msg,
            None => {
                let p = sender.as_usize();
                if p >= self.at.len() {
                    self.at.resize(p + 1, 0);
                }
                self.msgs.push(msg);
                self.at[p] = self.msgs.len() as u32;
            }
        }
        self.msgs.len()
    }
}

impl<K: Ord, V> Tally<K, V> {
    /// An empty tally.
    pub const fn new() -> Self {
        Tally {
            keys: BTreeMap::new(),
        }
    }

    fn votes_mut(&mut self, key: K) -> &mut Votes<V> {
        self.keys.entry(key).or_insert_with(|| Votes {
            at: Vec::new(),
            msgs: Vec::new(),
        })
    }

    /// Records `msg`, which the caller has verified, as `sender`'s message
    /// under `key` and returns the key's new count — unless `sender` is
    /// recorded there already: then the recorded message comes back (the
    /// same one, or evidence the sender said two things). `sender` must be
    /// a party of the run (it indexes a table as long as `n`).
    pub fn insert(&mut self, key: K, sender: PartyId, msg: V) -> Result<usize, &V> {
        let votes = self.votes_mut(key);
        match votes.position(sender) {
            Some(i) => Err(&votes.msgs[i]),
            None => Ok(votes.put(sender, msg)),
        }
    }

    /// Records `msg`, which the caller has verified, as `sender`'s message
    /// under `key`, replacing any earlier one, and returns the key's count.
    pub fn replace(&mut self, key: K, sender: PartyId, msg: V) -> usize {
        self.votes_mut(key).put(sender, msg)
    }

    /// The message recorded for `sender` under `key`.
    pub fn get(&self, key: &K, sender: PartyId) -> Option<&V> {
        let votes = self.keys.get(key)?;
        votes.position(sender).map(|i| &votes.msgs[i])
    }

    /// How many senders are recorded under `key`.
    pub fn count(&self, key: &K) -> usize {
        self.keys.get(key).map_or(0, |votes| votes.msgs.len())
    }

    /// `key`'s senders and messages, in ascending sender order.
    pub fn votes(&self, key: &K) -> impl Iterator<Item = (PartyId, &V)> {
        self.keys.get(key).into_iter().flat_map(|votes| {
            let by_sender = votes.at.iter().enumerate();
            by_sender.filter_map(|(p, &at)| {
                let i = at.checked_sub(1)? as usize;
                Some((PartyId::new(p as u32), &votes.msgs[i]))
            })
        })
    }

    /// The keys with at least `threshold` senders, in key order.
    pub fn reached(&self, threshold: usize) -> impl Iterator<Item = &K> {
        let keys = self.keys.iter();
        keys.filter(move |(_, votes)| votes.msgs.len() >= threshold)
            .map(|(key, _)| key)
    }
}

impl<K: Ord, V: PartialEq> Tally<K, V> {
    /// Records `msg` as `sender`'s message under `key`, replacing any
    /// earlier one, if it is byte-identical to the message recorded there
    /// (a re-delivery: it was verified when recorded, so `valid` is not
    /// asked) or `valid(&msg)` holds. Returns the key's count, or `None`
    /// for a rejected message.
    pub fn admit(
        &mut self,
        key: K,
        sender: PartyId,
        msg: V,
        valid: impl FnOnce(&V) -> bool,
    ) -> Option<usize> {
        let redelivered = self.get(&key, sender) == Some(&msg);
        (redelivered || valid(&msg)).then(|| self.replace(key, sender, msg))
    }
}

impl<K: Ord, V: Clone> Tally<K, V> {
    /// `key`'s messages in ascending sender order: the bundle a quorum is
    /// forwarded or certified as.
    pub fn bundle(&self, key: &K) -> Vec<V> {
        self.votes(key).map(|(_, msg)| msg.clone()).collect()
    }
}

impl<K: Ord, V> Default for Tally<K, V> {
    fn default() -> Self {
        Self::new()
    }
}
