//! Amortized signature verification: verify-once caches for MACs and
//! composite artifacts (chains, certs).
//!
//! The protocols in this workspace re-deliver the same signed artifacts many
//! times — Dolev–Strong relays carry ever-growing chains past every party,
//! brb2 `Forward` bundles repeat votes the receiver already holds, and a
//! psync certificate arrives once per sender. Recomputing a SHA-256 MAC per
//! signature per delivery makes crypto the dominant hot-path cost (~30x
//! below the structural ceiling in `BENCH_sim.json`).
//!
//! [`Verifier`] removes that cost without changing a single verdict:
//!
//! * **Signature cache** — one per key universe, owned by the [`Pki`] and
//!   shared by every verifier over it: keyed by `(signer, digest)`, storing
//!   the *recomputed true MAC* for that pair, so in an n-party run the
//!   first verifier pays the hash and the other n−1 take a hit. There is
//!   no per-party level behind it: one existed and answered no lookup on
//!   any benchmark row. A hit answers any claimed
//!   signature by byte-comparing the stored MAC against the claimed one, so
//!   the verdict covers the exact `(signer, digest, mac)` tuple and is
//!   byte-identical to recomputation for positives **and** negatives alike:
//!   caching cannot weaken unforgeability. (MACs here are deterministic —
//!   one valid MAC exists per `(signer, digest)` — which is what makes a
//!   single stored value a complete oracle for that pair.)
//! * **Memo cache** — per [`Verifier`] (per party instance), lock-free:
//!   maps an artifact fingerprint (a [`MemoTag`]-prefixed
//!   byte key built from the artifact's wire encoding) to the boolean
//!   verdict a full verification produced. Protocols use it to make cert
//!   and chain re-verification O(1) on re-delivery; because the key covers
//!   every input the verdict depends on (config, validity rule, exact
//!   signature bytes), a hit is again byte-identical to recomputation.
//!
//! Both caches are bounded with deterministic FIFO eviction, so memory is
//! O(capacity) regardless of run length, and since neither verdict depends
//! on cache state, behavior is identical at any thread count. The shared
//! signature cache sits behind the [`Pki`]'s mutex; everything a
//! [`Verifier`] owns is single-threaded, keeping it `Send` for the wall
//! engine's worker pool.
//!
//! The [`Verify`] trait abstracts over [`Pki`] (always recompute) and
//! [`Verifier`] (amortize), so protocol helpers accept either.

use crate::digest::Digest;
use crate::keys::{Pki, Signature};
use gcl_types::PartyId;
use std::cell::{Cell, RefCell};
use std::collections::{HashMap, VecDeque};
use std::fmt;
use std::hash::{BuildHasherDefault, Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Deterministic multiply-rotate hasher for the verify-cache maps.
///
/// Every cache key embeds a SHA-256 output (a [`Digest`], or a memo key
/// containing exact signature bytes), so the key material is already
/// uniformly distributed and attacker-shaped input cannot engineer bucket
/// collisions any more easily than it can engineer digest collisions.
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

/// Default bound on memoized artifact verdicts per verifier.
pub const DEFAULT_MEMO_CAPACITY: usize = 1 << 12;

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

    /// Looks up a memoized artifact verdict. `None` for uncached
    /// implementations (the default), which makes [`Verify::memoized`]
    /// recompute every time — semantically identical, just slower.
    fn memo_check(&self, key: &[u8]) -> Option<bool> {
        let _ = key;
        None
    }

    /// Records an artifact verdict for later [`Verify::memo_check`] hits.
    fn memo_store(&self, key: Vec<u8>, verdict: bool) {
        let _ = (key, verdict);
    }

    /// Returns the memoized verdict for `key`, computing and recording it
    /// on a miss. `compute` must be a pure function of the bytes in `key` —
    /// the caller's side of the soundness contract.
    fn memoized(&self, key: Vec<u8>, compute: impl FnOnce() -> bool) -> bool
    where
        Self: Sized,
    {
        if let Some(verdict) = self.memo_check(&key) {
            return verdict;
        }
        let verdict = compute();
        self.memo_store(key, verdict);
        verdict
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

/// Namespace byte prefixed to every memo key so verdicts for different
/// artifact kinds can never collide, even on identical payload bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum MemoTag {
    /// Dolev–Strong relay chain over a digest.
    Chain = 1,
    /// `psync::cert` assembled certificate.
    Cert = 2,
    /// `psync` status message (certificate + carrier signature).
    Status = 3,
    /// `pbft3` prepared certificate.
    Prepared = 5,
    /// `pbft3` view-change message.
    ViewChange = 6,
}

impl MemoTag {
    /// Starts a memo key: the tag byte followed by `reserve` spare bytes of
    /// capacity for the artifact fingerprint.
    pub fn key(self, reserve: usize) -> Vec<u8> {
        let mut key = Vec::with_capacity(1 + reserve);
        key.push(self as u8);
        key
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

    /// Cache hits (signature + memo) flushed so far.
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

/// An amortizing verification handle wrapping a shared [`Pki`].
///
/// One per party instance (protocols own it the way they used to own an
/// `Arc<Pki>`); see the [module docs](self) for the cache design and the
/// soundness argument. Constructible from an `Arc<Pki>` via `From`, so
/// existing `Protocol::new(..., keychain.pki(), ...)` call sites compile
/// unchanged against constructors taking `impl Into<Verifier>`.
pub struct Verifier {
    pki: Arc<Pki>,
    memo: RefCell<BoundedMap<Box<[u8]>, bool>>,
    macs: Cell<u64>,
    hits: Cell<u64>,
    probe: Option<Arc<VerifyProbe>>,
}

impl Verifier {
    /// A verifier with default cache bounds.
    pub fn new(pki: Arc<Pki>) -> Self {
        Self::with_capacity(pki, DEFAULT_MEMO_CAPACITY)
    }

    /// A verifier with an explicit memo-cache bound (min 1); used by tests
    /// to exercise the eviction boundary.
    pub fn with_capacity(pki: Arc<Pki>, memo_capacity: usize) -> Self {
        Verifier {
            pki,
            memo: RefCell::new(BoundedMap::new(memo_capacity)),
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
    pub fn macs_computed(&self) -> u64 {
        self.macs.get()
    }

    /// Verifications this verifier has answered from a cache so far.
    pub fn cache_hits(&self) -> u64 {
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

    fn memo_check(&self, key: &[u8]) -> Option<bool> {
        // Box<[u8]> and [u8] hash/compare identically; the allocation-free
        // lookup needs only a borrow of the key bytes.
        let verdict = self.memo.borrow().map.get(key).copied();
        if verdict.is_some() {
            self.hits.set(self.hits.get() + 1);
        }
        verdict
    }

    fn memo_store(&self, key: Vec<u8>, verdict: bool) {
        self.memo
            .borrow_mut()
            .insert(key.into_boxed_slice(), verdict);
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
    fn memoized_artifact_verdicts() {
        let chain = Keychain::generate(2, 15);
        let v = Verifier::new(chain.pki());
        let mut computes = 0;
        let key = MemoTag::Chain.key(4);
        for _ in 0..3 {
            let verdict = v.memoized(key.clone(), || {
                computes += 1;
                true
            });
            assert!(verdict);
        }
        assert_eq!(computes, 1, "computed once, then memoized");
        // A different tag over the same payload bytes is a different key.
        let other = MemoTag::Cert.key(4);
        assert_eq!(v.memo_check(&other), None);
    }

    #[test]
    fn memo_eviction_recomputes() {
        let chain = Keychain::generate(2, 16);
        let v = Verifier::with_capacity(chain.pki(), 1);
        let mut key_a = MemoTag::Chain.key(1);
        key_a.push(0xa);
        let mut key_b = MemoTag::Chain.key(1);
        key_b.push(0xb);
        assert!(v.memoized(key_a.clone(), || true));
        assert!(!v.memoized(key_b, || false)); // evicts key_a
        let mut recomputed = false;
        assert!(v.memoized(key_a, || {
            recomputed = true;
            true
        }));
        assert!(recomputed, "evicted entry is recomputed, same verdict");
    }

    #[test]
    fn pki_and_arc_pki_implement_verify_uncached() {
        let chain = Keychain::generate(2, 17);
        let sig = chain.signer(PartyId::new(1)).sign(digest(3));
        fn check(v: &impl Verify, sig: &Signature) -> bool {
            v.memo_check(b"anything").is_none() && v.verify_embedded(digest(3), sig)
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

    #[test]
    fn keychain_verifier_accessor() {
        let chain = Keychain::generate(3, 19);
        let v = chain.verifier();
        let sig = chain.signer(PartyId::new(2)).sign(digest(4));
        assert!(v.verify_embedded(digest(4), &sig));
        assert!(format!("{v:?}").starts_with("Verifier(n=3"));
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
