//! Amortized signature verification: one verify-once MAC cache per key
//! universe.
//!
//! The protocols in this workspace re-deliver the same signed artifacts many
//! times — Dolev–Strong relays carry ever-growing chains past every party,
//! brb2 `Forward` bundles repeat votes the receiver already holds, and a
//! psync certificate arrives once per sender. Recomputing a SHA-256 MAC per
//! signature per delivery would make crypto the dominant hot-path cost: a
//! MAC is two block compressions, ~0.17 µs even on the SHA extensions
//! (~0.9 µs on the portable path), against ~0.2–0.8 µs for a whole
//! simulated event of the crypto-heavy rows in `BENCH_sim.json`.
//!
//! [`Verifier`] removes that cost without changing a single verdict. The
//! cache is owned by the [`Pki`] and shared by every verifier over it: keyed
//! by `(signer, digest)`, it stores the *recomputed true MAC* for that pair,
//! so in an n-party run the first verifier pays the hash and the other n−1
//! take a hit. A hit answers any claimed signature by byte-comparing the
//! stored MAC against the claimed one, so the verdict covers the exact
//! `(signer, digest, mac)` tuple and is byte-identical to recomputation for
//! positives **and** negatives alike: caching cannot weaken unforgeability.
//! (MACs here are deterministic — one valid MAC exists per
//! `(signer, digest)` — which is what makes a single stored value a complete
//! oracle for that pair.)
//!
//! There is no second level: protocols check composite artifacts (chains,
//! certificates) signature by signature, so a re-delivered artifact costs
//! one cache lookup per signature. A cache of whole-artifact verdicts would
//! only skip signatures that are hits here anyway, and its key — the
//! artifact's wire encoding — costs as much to build as those lookups.
//!
//! The cache is bounded with deterministic FIFO eviction, so memory is
//! O(capacity) regardless of run length, and since no verdict depends on
//! cache state, behavior is identical at any thread count. The cache sits
//! behind the [`Pki`]'s mutex; a [`Verifier`]'s own counters are
//! single-threaded, keeping it `Send` for the wall engine's worker pool.
//!
//! The [`Verify`] trait abstracts over [`Pki`] (always recompute) and
//! [`Verifier`] (amortize), so protocol helpers accept either.

use crate::digest::Digest;
use crate::keys::{Pki, Signature};
use gcl_types::PartyId;
use std::cell::Cell;
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deterministic multiply-rotate hasher for the verify cache's map.
///
/// Every cache key embeds a SHA-256 output (a [`Digest`]), so the key
/// material is already uniformly distributed and attacker-shaped input
/// cannot engineer bucket collisions any more easily than it can engineer
/// digest collisions.
/// That makes SipHash's keyed collision resistance pure overhead on the
/// per-delivery hot path; this hasher is a handful of arithmetic ops per
/// word instead. It has no per-process random state, so bucket layout —
/// like every cache *verdict* — is identical across runs.
#[derive(Default)]
pub(crate) struct CacheHasher {
    hash: u64,
}

impl CacheHasher {
    const SEED: u64 = 0x51_7c_c1_b7_27_22_0a_95;

    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(Self::SEED);
    }
}

impl Hasher for CacheHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(u64::from(v));
    }

    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

pub(crate) type CacheHash = BuildHasherDefault<CacheHasher>;

/// Verification oracle: can a claimed signature be attributed to a party?
///
/// Implemented by [`Pki`] / `Arc<Pki>` (recompute every time) and
/// [`Verifier`] (amortize). Protocol verify-helpers take `&impl Verify` so
/// both plug in; the contract is that every implementation returns exactly
/// what [`Pki::verify`] returns.
pub trait Verify {
    /// Verifies that `sig` is `claimed`'s signature over `digest`.
    fn verify(&self, claimed: PartyId, digest: Digest, sig: &Signature) -> bool;

    /// Verifies a signature against its embedded signer id.
    fn verify_embedded(&self, digest: Digest, sig: &Signature) -> bool {
        self.verify(sig.signer(), digest, sig)
    }
}

impl Verify for Pki {
    fn verify(&self, claimed: PartyId, digest: Digest, sig: &Signature) -> bool {
        Pki::verify(self, claimed, digest, sig)
    }
}

impl Verify for Arc<Pki> {
    fn verify(&self, claimed: PartyId, digest: Digest, sig: &Signature) -> bool {
        Pki::verify(self, claimed, digest, sig)
    }
}

/// Shared counters a [`Verifier`] flushes into when dropped: MACs actually
/// computed vs. verifications answered from a cache.
///
/// Every verifier also flushes into a process-global probe (see
/// [`VerifyProbe::global`]), which the bench binaries — single verifier
/// population at a time, runs strictly sequential — read as per-run deltas.
/// Tests that need isolation attach their own probe via
/// [`Verifier::with_probe`].
#[derive(Debug, Default)]
pub struct VerifyProbe {
    macs: AtomicU64,
    hits: AtomicU64,
}

impl VerifyProbe {
    /// A fresh zeroed probe.
    pub const fn new() -> Self {
        VerifyProbe {
            macs: AtomicU64::new(0),
            hits: AtomicU64::new(0),
        }
    }

    /// The process-global probe. Meaningful only when reads bracket a
    /// sequential workload (as in the bench bins); parallel test runs share
    /// it, so assertions belong on per-test probes instead.
    pub fn global() -> &'static VerifyProbe {
        static GLOBAL: VerifyProbe = VerifyProbe::new();
        &GLOBAL
    }

    /// MAC computations flushed so far.
    pub fn macs(&self) -> u64 {
        self.macs.load(Ordering::Relaxed)
    }

    /// Shared MAC-cache hits flushed so far.
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    fn add(&self, macs: u64, hits: u64) {
        self.macs.fetch_add(macs, Ordering::Relaxed);
        self.hits.fetch_add(hits, Ordering::Relaxed);
    }
}

/// A bounded map with deterministic first-in-first-out eviction.
///
/// Insertion order (not hash order) decides evictions, so cache contents —
/// and therefore hit/miss counters — are identical across runs and thread
/// counts. Verdicts never depend on cache state at all; only speed does.
#[derive(Debug)]
pub(crate) struct BoundedMap<K, V> {
    map: HashMap<K, V, CacheHash>,
    order: VecDeque<K>,
    capacity: usize,
}

impl<K: Eq + Hash + Clone, V> BoundedMap<K, V> {
    pub(crate) fn new(capacity: usize) -> Self {
        BoundedMap {
            map: HashMap::default(),
            order: VecDeque::new(),
            capacity: capacity.max(1),
        }
    }

    pub(crate) fn get(&self, key: &K) -> Option<&V> {
        self.map.get(key)
    }

    pub(crate) fn insert(&mut self, key: K, value: V) {
        if self.map.insert(key.clone(), value).is_none() {
            self.order.push_back(key);
            if self.order.len() > self.capacity {
                if let Some(oldest) = self.order.pop_front() {
                    self.map.remove(&oldest);
                }
            }
        }
    }
}

/// An amortizing verification handle: a shared [`Pki`] (whose MAC cache it
/// reads and fills), counts of the MACs it computed and the hits it took,
/// and an optional probe those counts are flushed into on drop.
///
/// One per party instance (protocols own it the way they used to own an
/// `Arc<Pki>`); the `verify` module's docs give the cache design and the
/// soundness argument. Constructible from an `Arc<Pki>` via `From`, so
/// existing `Protocol::new(..., keychain.pki(), ...)` call sites compile
/// unchanged against constructors taking `impl Into<Verifier>`.
pub struct Verifier {
    pki: Arc<Pki>,
    macs: Cell<u64>,
    hits: Cell<u64>,
    probe: Option<Arc<VerifyProbe>>,
}

impl Verifier {
    /// A verifier over `pki`'s shared MAC cache, with zeroed counters.
    pub fn new(pki: Arc<Pki>) -> Self {
        Verifier {
            pki,
            macs: Cell::new(0),
            hits: Cell::new(0),
            probe: None,
        }
    }

    /// Attaches a probe that receives this verifier's counters on drop (in
    /// addition to the process-global probe).
    pub fn with_probe(mut self, probe: Arc<VerifyProbe>) -> Self {
        self.probe = Some(probe);
        self
    }

    /// The underlying verification-only key material.
    pub fn pki(&self) -> &Arc<Pki> {
        &self.pki
    }

    /// MAC computations this verifier has performed so far.
    #[cfg(test)]
    fn macs_computed(&self) -> u64 {
        self.macs.get()
    }

    /// Verifications this verifier has answered from a cache so far.
    #[cfg(test)]
    fn cache_hits(&self) -> u64 {
        self.hits.get()
    }

    /// The true MAC for `(claimed, digest)`, from cache or recomputed.
    /// `None` exactly when `claimed` is out of range.
    fn true_mac(&self, claimed: PartyId, digest: Digest) -> Option<[u8; 32]> {
        // `true_mac` is a pure function of the keys, so a MAC one party
        // recomputed answers every other party's lookup byte-identically
        // (43k computes collapse to ~n on the brb2 quorum path).
        if let Some(mac) = self.pki.shared_mac_lookup(claimed, digest) {
            self.hits.set(self.hits.get() + 1);
            return Some(mac);
        }
        let mac = self.pki.shared_mac_store(claimed, digest)?;
        self.macs.set(self.macs.get() + 1);
        Some(mac)
    }
}

impl Verify for Verifier {
    /// Byte-identical to [`Pki::verify`]: signer-field mismatch and
    /// out-of-range ids are `false` without touching the cache; otherwise
    /// the claimed MAC is compared against the true MAC for
    /// `(claimed, digest)` — cached or freshly computed, the comparison is
    /// the same.
    fn verify(&self, claimed: PartyId, digest: Digest, sig: &Signature) -> bool {
        if sig.signer() != claimed {
            return false;
        }
        match self.true_mac(claimed, digest) {
            Some(mac) => mac == *sig.mac_bytes(),
            None => false,
        }
    }
}

impl From<Arc<Pki>> for Verifier {
    fn from(pki: Arc<Pki>) -> Self {
        Verifier::new(pki)
    }
}

impl fmt::Debug for Verifier {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Verifier(n={}, macs={}, hits={})",
            self.pki.n(),
            self.macs.get(),
            self.hits.get()
        )
    }
}

impl Drop for Verifier {
    fn drop(&mut self) {
        let (macs, hits) = (self.macs.get(), self.hits.get());
        if macs == 0 && hits == 0 {
            return;
        }
        VerifyProbe::global().add(macs, hits);
        if let Some(probe) = &self.probe {
            probe.add(macs, hits);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keychain;

    fn digest(x: u64) -> Digest {
        Digest::of(&x)
    }

    #[test]
    fn cached_verify_matches_pki() {
        let chain = Keychain::generate(4, 11);
        let v = Verifier::new(chain.pki());
        let pki = chain.pki();
        let sig = chain.signer(PartyId::new(2)).sign(digest(7));
        for _ in 0..3 {
            // Valid, wrong claimed party, wrong digest, out of range.
            assert!(v.verify(PartyId::new(2), digest(7), &sig));
            assert!(!v.verify(PartyId::new(1), digest(7), &sig));
            assert!(!v.verify(PartyId::new(2), digest(8), &sig));
            assert!(!v.verify(PartyId::new(9), digest(7), &sig));
            assert_eq!(
                v.verify(PartyId::new(2), digest(7), &sig),
                pki.verify(PartyId::new(2), digest(7), &sig)
            );
        }
        // Repeats after the first round were answered from cache.
        assert!(v.cache_hits() > 0);
        assert!(
            v.macs_computed() <= 2,
            "one MAC per distinct (party, digest)"
        );
    }

    #[test]
    fn negative_hit_is_cached_too() {
        let chain = Keychain::generate(3, 12);
        let other = Keychain::generate(3, 13);
        let v = Verifier::new(chain.pki());
        // Cross-universe signature: same signer id, different key material.
        let forged = other.signer(PartyId::new(0)).sign(digest(1));
        assert!(!v.verify(PartyId::new(0), digest(1), &forged));
        let macs = v.macs_computed();
        assert!(!v.verify(PartyId::new(0), digest(1), &forged));
        assert_eq!(v.macs_computed(), macs, "negative answered from cache");
        // The genuine signature over the same pair hits the same entry.
        let real = chain.signer(PartyId::new(0)).sign(digest(1));
        assert!(v.verify(PartyId::new(0), digest(1), &real));
        assert_eq!(v.macs_computed(), macs);
    }

    #[test]
    fn fifo_eviction_keeps_verdicts_exact() {
        let chain = Keychain::with_shared_capacity(2, 14, 2);
        let v = Verifier::new(chain.pki());
        let sigs: Vec<_> = (0..5)
            .map(|i| chain.signer(PartyId::new(0)).sign(digest(i)))
            .collect();
        for round in 0..3 {
            for (i, sig) in sigs.iter().enumerate() {
                assert!(
                    v.verify(PartyId::new(0), digest(i as u64), sig),
                    "round {round}"
                );
                assert!(!v.verify(PartyId::new(0), digest(99), sig));
            }
        }
        // Six distinct pairs through two shared slots: evicted pairs were
        // recomputed, pairs still resident were hits.
        assert!(v.macs_computed() > 6, "{v:?}");
        assert!(v.cache_hits() > 0, "{v:?}");
    }

    #[test]
    fn pki_and_arc_pki_implement_verify_uncached() {
        let chain = Keychain::generate(2, 17);
        let sig = chain.signer(PartyId::new(1)).sign(digest(3));
        fn check(v: &impl Verify, sig: &Signature) -> bool {
            v.verify_embedded(digest(3), sig)
        }
        assert!(check(&chain.pki(), &sig)); // &Arc<Pki>
        assert!(check(chain.pki().as_ref(), &sig)); // &Pki
    }

    #[test]
    fn probe_collects_on_drop() {
        let chain = Keychain::generate(2, 18);
        let probe = Arc::new(VerifyProbe::new());
        let v = Verifier::new(chain.pki()).with_probe(Arc::clone(&probe));
        let sig = chain.signer(PartyId::new(0)).sign(digest(1));
        assert!(v.verify(PartyId::new(0), digest(1), &sig));
        assert!(v.verify(PartyId::new(0), digest(1), &sig));
        assert_eq!(probe.macs(), 0, "not flushed until drop");
        drop(v);
        assert_eq!(probe.macs(), 1);
        assert_eq!(probe.hits(), 1);
    }

    /// The issue's core equivalence body: over random valid / forged /
    /// cross-universe signatures — and across eviction churn on a
    /// two-entry shared cache — `Verifier` answers exactly as raw
    /// `Pki::verify`.
    fn check_verifier_equals_pki(seed: u64, payloads: Vec<u64>) -> bool {
        let chain = Keychain::generate(3, seed);
        let foreign = Keychain::generate(3, seed.wrapping_add(1));
        let pki = chain.pki();
        // Same seed, same keys: only the shared-cache bound differs.
        let tiny = Verifier::new(Keychain::with_shared_capacity(3, seed, 2).pki());
        let roomy = Verifier::new(chain.pki());
        for packed in payloads {
            // One packed case: signer, claimed (sometimes out of range),
            // payload (small space forces cache reuse), cross-universe flag.
            let signer = PartyId::new((packed % 3) as u32);
            let claimed = PartyId::new(((packed >> 2) % 4) as u32);
            let d = digest((packed >> 4) % 8);
            let source = if packed & (1 << 63) != 0 {
                &foreign
            } else {
                &chain
            };
            let sig = source.signer(signer).sign(d);
            let expected = pki.verify(claimed, d, &sig);
            let expected_embedded = pki.verify_embedded(d, &sig);
            if tiny.verify(claimed, d, &sig) != expected
                || roomy.verify(claimed, d, &sig) != expected
                || tiny.verify_embedded(d, &sig) != expected_embedded
                || roomy.verify_embedded(d, &sig) != expected_embedded
            {
                return false;
            }
        }
        true
    }

    proptest::proptest! {
        #[test]
        fn verifier_equals_pki(seed: u64, payloads: Vec<u64>) {
            proptest::prop_assert!(check_verifier_equals_pki(seed, payloads));
        }
    }
}
