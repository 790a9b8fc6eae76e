//! Deterministic MAC-style signatures with by-construction unforgeability.
//!
//! A [`Keychain`] derives one secret key per party from a seed. The
//! [`Signer`] for party `i` is the only object able to produce signatures
//! attributable to `i`; the shared [`Pki`] verifies any signature but never
//! reveals keys. This realizes the paper's "ideal unforgeability" assumption
//! inside the simulation: Byzantine strategy code holds only its own
//! signer(s), so it can replay observed signatures (allowed by the model)
//! but never forge fresh ones.

use crate::digest::Digest;
use crate::sha256::Sha256;
use crate::verify::BoundedMap;
use gcl_types::PartyId;
use std::fmt;
use std::sync::{Arc, Mutex, MutexGuard};

/// A signature by one party over one [`Digest`].
#[derive(Clone, Copy, PartialEq, Eq, Hash)]
pub struct Signature {
    signer: PartyId,
    mac: [u8; 32],
}

impl Signature {
    /// The party this signature claims to be from (verify before trusting).
    pub const fn signer(&self) -> PartyId {
        self.signer
    }

    /// The raw MAC bytes, for comparison against a recomputed true MAC
    /// (crate-internal: only [`crate::Verifier`] needs them).
    pub(crate) const fn mac_bytes(&self) -> &[u8; 32] {
        &self.mac
    }
}

// Wire format: signer id + raw MAC bytes. Decoding reconstructs exactly
// the transmitted claim; unforgeability is unaffected because `Pki::verify`
// recomputes the MAC — forged bytes simply fail verification.
gcl_types::wire_struct!(Signature { signer, mac });

impl fmt::Debug for Signature {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "Sig({} {:02x}{:02x}..)",
            self.signer, self.mac[0], self.mac[1]
        )
    }
}

#[derive(Clone)]
struct SecretKey([u8; 32]);

impl SecretKey {
    fn derive(seed: u64, party: PartyId) -> SecretKey {
        let mut h = Sha256::new();
        h.update(b"gcl-secret-key");
        h.update(&seed.to_le_bytes());
        h.update(&party.index().to_le_bytes());
        SecretKey(h.finalize())
    }

    fn mac(&self, digest: Digest) -> [u8; 32] {
        let mut h = Sha256::new();
        h.update(b"gcl-mac");
        h.update(&self.0);
        h.update(digest.as_bytes());
        h.finalize()
    }
}

/// Signing capability for exactly one party.
///
/// Cloneable (a party may hand it to subcomponents of itself), but only
/// obtainable from [`Keychain::signer`], which the simulation harness calls
/// once per party.
#[derive(Clone)]
pub struct Signer {
    id: PartyId,
    key: SecretKey,
}

impl Signer {
    /// The party this signer signs for.
    pub const fn id(&self) -> PartyId {
        self.id
    }

    /// Signs a digest.
    pub fn sign(&self, digest: Digest) -> Signature {
        Signature {
            signer: self.id,
            mac: self.key.mac(digest),
        }
    }
}

impl fmt::Debug for Signer {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Signer({})", self.id)
    }
}

/// Verification-only view of the key material, shared by all parties.
///
/// Holds every secret key internally (MAC verification needs them) but the
/// public API exposes only [`Pki::verify`]; no key or fresh signature can be
/// extracted through it.
pub struct Pki {
    keys: Vec<SecretKey>,
    /// The MAC cache shared by every [`crate::Verifier`] over this key
    /// universe. `compute_mac` is a pure function of `keys`, so
    /// a recomputed MAC answers any party's later lookup byte-identically;
    /// only recomputed values are ever stored (never attacker-asserted ones),
    /// so a Byzantine signature can't poison it. Bounded FIFO keeps memory
    /// flat on long runs.
    shared_sigs: Mutex<BoundedMap<(PartyId, Digest), [u8; 32]>>,
}

impl Pki {
    /// Number of registered parties.
    pub fn n(&self) -> usize {
        self.keys.len()
    }

    /// Verifies that `sig` is `claimed`'s signature over `digest`.
    ///
    /// Returns `false` (never panics) for out-of-range ids or mismatched
    /// signer fields, so protocols can feed untrusted input directly.
    pub fn verify(&self, claimed: PartyId, digest: Digest, sig: &Signature) -> bool {
        if sig.signer != claimed {
            return false;
        }
        match self.keys.get(claimed.as_usize()) {
            Some(key) => key.mac(digest) == sig.mac,
            None => false,
        }
    }

    /// Verifies a signature against its embedded signer id.
    pub fn verify_embedded(&self, digest: Digest, sig: &Signature) -> bool {
        self.verify(sig.signer, digest, sig)
    }

    /// The one valid MAC for `(party, digest)`, or `None` if `party` is out
    /// of range. Crate-internal: [`crate::Verifier`] caches this value to
    /// answer any claimed signature over the pair without recomputation.
    pub(crate) fn compute_mac(&self, party: PartyId, digest: Digest) -> Option<[u8; 32]> {
        self.keys.get(party.as_usize()).map(|key| key.mac(digest))
    }

    /// The shared-cache entry for `(party, digest)`, if some verifier
    /// already recomputed it.
    pub(crate) fn shared_mac_lookup(&self, party: PartyId, digest: Digest) -> Option<[u8; 32]> {
        lock(&self.shared_sigs).get(&(party, digest)).copied()
    }

    /// Recomputes the MAC for `(party, digest)` and publishes it to the
    /// shared cache; `None` only for out-of-range ids. A lost race (two
    /// verifiers compute the same pair concurrently) is harmless: both
    /// compute the identical value, and `BoundedMap::insert` ignores the
    /// duplicate.
    pub(crate) fn shared_mac_store(&self, party: PartyId, digest: Digest) -> Option<[u8; 32]> {
        let mac = self.compute_mac(party, digest)?;
        lock(&self.shared_sigs).insert((party, digest), mac);
        Some(mac)
    }
}

/// Locks the shared cache, recovering from a poisoned mutex: the cache holds
/// only recomputed (always-valid) entries, so state after a panicking holder
/// is still correct.
fn lock(
    m: &Mutex<BoundedMap<(PartyId, Digest), [u8; 32]>>,
) -> MutexGuard<'_, BoundedMap<(PartyId, Digest), [u8; 32]>> {
    m.lock().unwrap_or_else(|poison| poison.into_inner())
}

impl fmt::Debug for Pki {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "Pki(n={})", self.keys.len())
    }
}

/// Bound on cached `(signer, digest) → mac` entries per key universe.
const SHARED_SIG_CAPACITY: usize = 1 << 16;

/// The trusted-setup key generator: derives all `n` keypairs from a seed.
///
/// # Examples
///
/// ```
/// use gcl_crypto::{Digest, Keychain};
/// use gcl_types::PartyId;
/// let chain = Keychain::generate(3, 7);
/// let sig = chain.signer(PartyId::new(0)).sign(Digest::of(&1u64));
/// assert!(chain.pki().verify(PartyId::new(0), Digest::of(&1u64), &sig));
/// ```
#[derive(Debug, Clone)]
pub struct Keychain {
    seed: u64,
    pki: Arc<Pki>,
}

impl Keychain {
    /// Derives keys for `n` parties from `seed`.
    pub fn generate(n: usize, seed: u64) -> Keychain {
        Self::with_shared_capacity(n, seed, SHARED_SIG_CAPACITY)
    }

    /// [`Keychain::generate`] with an explicit bound on the `Pki`-shared MAC
    /// cache, so tests can exercise its eviction boundary.
    pub(crate) fn with_shared_capacity(n: usize, seed: u64, capacity: usize) -> Keychain {
        let keys = (0..n as u32)
            .map(|i| SecretKey::derive(seed, PartyId::new(i)))
            .collect();
        Keychain {
            seed,
            pki: Arc::new(Pki {
                keys,
                shared_sigs: Mutex::new(BoundedMap::new(capacity)),
            }),
        }
    }

    /// The signer for `party`.
    ///
    /// # Panics
    ///
    /// Panics if `party` is out of range.
    pub fn signer(&self, party: PartyId) -> Signer {
        assert!(
            party.as_usize() < self.pki.n(),
            "party {party} out of range (n = {})",
            self.pki.n()
        );
        Signer {
            id: party,
            key: SecretKey::derive(self.seed, party),
        }
    }

    /// The shared verification handle.
    pub fn pki(&self) -> Arc<Pki> {
        Arc::clone(&self.pki)
    }

    /// A fresh amortizing [`Verifier`](crate::Verifier) over this chain's
    /// [`Pki`]. One per party instance — each holds its own memo cache and
    /// counters; the MAC cache is the `Pki`'s.
    pub fn verifier(&self) -> crate::Verifier {
        crate::Verifier::new(self.pki())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn digest(x: u64) -> Digest {
        Digest::of(&x)
    }

    #[test]
    fn sign_verify_roundtrip() {
        let chain = Keychain::generate(4, 1);
        let pki = chain.pki();
        for i in 0..4 {
            let p = PartyId::new(i);
            let sig = chain.signer(p).sign(digest(10));
            assert!(pki.verify(p, digest(10), &sig));
            assert!(pki.verify_embedded(digest(10), &sig));
        }
    }

    #[test]
    fn wrong_party_rejected() {
        let chain = Keychain::generate(4, 1);
        let sig = chain.signer(PartyId::new(0)).sign(digest(10));
        assert!(!chain.pki().verify(PartyId::new(1), digest(10), &sig));
    }

    #[test]
    fn wrong_digest_rejected() {
        let chain = Keychain::generate(4, 1);
        let sig = chain.signer(PartyId::new(0)).sign(digest(10));
        assert!(!chain.pki().verify(PartyId::new(0), digest(11), &sig));
    }

    #[test]
    fn out_of_range_rejected_not_panicking() {
        let chain = Keychain::generate(2, 1);
        let sig = chain.signer(PartyId::new(0)).sign(digest(1));
        // Tamper with the claimed signer via a forged struct is impossible
        // from outside; out-of-range check via claimed id mismatch:
        assert!(!chain.pki().verify(PartyId::new(9), digest(1), &sig));
    }

    #[test]
    fn distinct_seeds_distinct_keys() {
        let a = Keychain::generate(2, 1);
        let b = Keychain::generate(2, 2);
        let sig = a.signer(PartyId::new(0)).sign(digest(5));
        assert!(!b.pki().verify(PartyId::new(0), digest(5), &sig));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn signer_out_of_range_panics() {
        let chain = Keychain::generate(2, 1);
        let _ = chain.signer(PartyId::new(5));
    }

    #[test]
    fn signer_id_and_debug() {
        let chain = Keychain::generate(2, 1);
        let s = chain.signer(PartyId::new(1));
        assert_eq!(s.id(), PartyId::new(1));
        assert!(format!("{s:?}").contains("P1"));
        assert!(format!("{:?}", chain.pki()).contains("n=2"));
        let sig = s.sign(digest(0));
        assert_eq!(sig.signer(), PartyId::new(1));
        assert!(format!("{sig:?}").starts_with("Sig(P1"));
    }

    proptest::proptest! {
        #[test]
        fn verify_is_exact(seed: u64, payload: u64, other: u64) {
            let chain = Keychain::generate(3, seed);
            let sig = chain.signer(PartyId::new(1)).sign(digest(payload));
            proptest::prop_assert!(chain.pki().verify(PartyId::new(1), digest(payload), &sig));
            if other != payload {
                proptest::prop_assert!(!chain.pki().verify(PartyId::new(1), digest(other), &sig));
            }
        }
    }
}
