//! `Tally` against the simplest table that does its job: a
//! `BTreeMap<K, BTreeMap<PartyId, V>>` with a protocol's insert rule on top
//! — first one wins, last one wins, or the re-delivery check that skips
//! verifying a byte-identical message. [`Reference`] is that map with those
//! three rules. Random insert sequences over a small key × party × message
//! space, so re-deliveries and same-sender conflicts are common, must give
//! the same counts, the same duplicate and conflict verdicts, the same
//! verifier calls and the same bundles in the same order; and every key's
//! count must cross each threshold at exactly one insert.

use gcl_core::Tally;
use gcl_types::PartyId;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const KEYS: u8 = 3;
const PARTIES: u32 = 7;

/// The nested map, with the three insert rules.
#[derive(Default)]
struct Reference(BTreeMap<u8, BTreeMap<PartyId, u8>>);

impl Reference {
    /// First one wins: the new count, or the message already recorded.
    fn insert(&mut self, key: u8, sender: PartyId, msg: u8) -> Result<usize, u8> {
        let bucket = self.0.entry(key).or_default();
        if let Some(&recorded) = bucket.get(&sender) {
            return Err(recorded);
        }
        bucket.insert(sender, msg);
        Ok(bucket.len())
    }

    /// Last one wins.
    fn replace(&mut self, key: u8, sender: PartyId, msg: u8) -> usize {
        let bucket = self.0.entry(key).or_default();
        bucket.insert(sender, msg);
        bucket.len()
    }

    /// The psync families' re-delivery check, then last one wins: a
    /// byte-identical re-delivery passes without asking `valid`. Returns the
    /// count (or `None` if rejected) and whether `valid` was asked.
    fn admit(&mut self, key: u8, sender: PartyId, msg: u8, valid: bool) -> (Option<usize>, bool) {
        let redelivered = self.get(key, sender) == Some(msg);
        let accepted = redelivered || valid;
        (
            accepted.then(|| self.replace(key, sender, msg)),
            !redelivered,
        )
    }

    fn get(&self, key: u8, sender: PartyId) -> Option<u8> {
        self.0.get(&key)?.get(&sender).copied()
    }

    fn count(&self, key: u8) -> usize {
        self.0.get(&key).map_or(0, BTreeMap::len)
    }

    /// The nested map's threshold scan.
    fn reached(&self, t: usize) -> Vec<u8> {
        let keys = self.0.iter().filter(|(_, bucket)| bucket.len() >= t);
        keys.map(|(&k, _)| k).collect()
    }

    fn bundle(&self, key: u8) -> Vec<(PartyId, u8)> {
        let bucket = self.0.get(&key).into_iter().flatten();
        bucket.map(|(&p, &m)| (p, m)).collect()
    }
}

/// Runs one random sequence of inserts through both tables, comparing as
/// it goes; returns how often each `(key, threshold)` was crossed.
fn run(seed: u64) -> BTreeMap<(u8, usize), usize> {
    let mut rng = StdRng::seed_from_u64(seed);
    let (mut tally, mut reference) = (Tally::new(), Reference::default());
    let mut crossings = BTreeMap::new();
    for _ in 0..rng.gen_range(0..120usize) {
        let key = rng.gen_range(0..KEYS);
        let sender = PartyId::new(rng.gen_range(0..PARTIES));
        let msg = rng.gen_range(0..3u8);
        let before = tally.count(&key);
        match rng.gen_range(0..3u32) {
            0 => {
                let got = tally.insert(key, sender, msg).map_err(|&m| m);
                prop_assert_eq!(got, reference.insert(key, sender, msg));
            }
            1 => prop_assert_eq!(
                tally.replace(key, sender, msg),
                reference.replace(key, sender, msg)
            ),
            _ => {
                let valid = rng.gen::<bool>();
                let mut asked = false;
                let got = tally.admit(key, sender, msg, |_| {
                    asked = true;
                    valid
                });
                prop_assert_eq!((got, asked), reference.admit(key, sender, msg, valid));
            }
        }
        let after = tally.count(&key);
        prop_assert!(
            after == before || after == before + 1,
            "{before} -> {after}"
        );
        for t in before + 1..=after {
            *crossings.entry((key, t)).or_insert(0) += 1;
        }
        for k in 0..KEYS {
            prop_assert_eq!(tally.count(&k), reference.count(k));
            let votes: Vec<(PartyId, u8)> = tally.votes(&k).map(|(p, &m)| (p, m)).collect();
            prop_assert_eq!(&votes, &reference.bundle(k), "ascending sender order");
            let bundle: Vec<u8> = votes.iter().map(|&(_, m)| m).collect();
            prop_assert_eq!(tally.bundle(&k), bundle);
            for p in (0..PARTIES + 2).map(PartyId::new) {
                prop_assert_eq!(tally.get(&k, p).copied(), reference.get(k, p));
            }
        }
        for t in 0..=PARTIES as usize + 1 {
            let reached: Vec<u8> = tally.reached(t).copied().collect();
            prop_assert_eq!(reached, reference.reached(t), "keys reaching {}", t);
        }
    }
    for k in 0..KEYS {
        for t in 1..=tally.count(&k) {
            prop_assert_eq!(
                crossings.get(&(k, t)),
                Some(&1),
                "key {} threshold {}",
                k,
                t
            );
        }
    }
    crossings
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn tally_matches_the_nested_map_it_replaced(seed: u64) {
        run(seed);
    }
}

#[test]
fn some_sequence_fills_a_key() {
    // The generator reaches every threshold: some key ends up holding a
    // message from every party.
    let full = (0..16u64).any(|seed| {
        let crossings = run(seed);
        (0..KEYS).any(|k| crossings.contains_key(&(k, PARTIES as usize)))
    });
    assert!(full, "no sequence filled a key");
}
