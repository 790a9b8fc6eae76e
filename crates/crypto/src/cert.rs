//! Quorum certificates: multi-signature accumulation over one digest.

use crate::digest::{Digest, Digestible};
use crate::keys::Signature;
use crate::sha256::Sha256;
use crate::verify::{MemoTag, Verify};
use gcl_types::{Encode, PartyId};
use std::collections::BTreeMap;

/// A set of signatures from distinct parties over a single digest.
///
/// Every voting protocol in the paper commits on "`q` signed votes for the
/// same value"; `QuorumCert` is that accumulator. Duplicate signers are
/// ignored, so `len` counts *distinct* signers, as all the quorum arguments
/// require.
///
/// # Examples
///
/// ```
/// use gcl_crypto::{Digest, Keychain, QuorumCert};
/// use gcl_types::PartyId;
///
/// let chain = Keychain::generate(4, 9);
/// let d = Digest::of(&("vote", 3u64));
/// let mut qc = QuorumCert::new(d);
/// for i in 0..3 {
///     qc.add(chain.signer(PartyId::new(i)).sign(d));
/// }
/// assert_eq!(qc.len(), 3);
/// assert!(qc.verify(&chain.pki(), 3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct QuorumCert {
    digest: Digest,
    sigs: BTreeMap<PartyId, Signature>,
}

// Wire format: digest + signer-ordered signature map. A decoded cert is
// structurally well-formed (distinct signers by construction of the map);
// its signatures still carry no authority until `QuorumCert::verify`.
gcl_types::wire_struct!(QuorumCert { digest, sigs });

impl QuorumCert {
    /// An empty certificate over `digest`.
    pub fn new(digest: Digest) -> Self {
        QuorumCert {
            digest,
            sigs: BTreeMap::new(),
        }
    }

    /// The digest this certificate accumulates signatures over.
    pub const fn digest(&self) -> Digest {
        self.digest
    }

    /// Adds a signature; returns `true` if it was new (distinct signer).
    ///
    /// The signature is *not* verified here — call [`QuorumCert::verify`]
    /// before trusting a received certificate, or verify each signature on
    /// arrival.
    pub fn add(&mut self, sig: Signature) -> bool {
        self.sigs.insert(sig.signer(), sig).is_none()
    }

    /// Number of distinct signers.
    pub fn len(&self) -> usize {
        self.sigs.len()
    }

    /// True when no signatures have been accumulated.
    pub fn is_empty(&self) -> bool {
        self.sigs.is_empty()
    }

    /// Whether `party` has contributed a signature.
    pub fn contains(&self, party: PartyId) -> bool {
        self.sigs.contains_key(&party)
    }

    /// Iterates over the contributing signers in id order.
    pub fn signers(&self) -> impl Iterator<Item = PartyId> + '_ {
        self.sigs.keys().copied()
    }

    /// Iterates over the signatures in signer order.
    pub fn signatures(&self) -> impl Iterator<Item = &Signature> + '_ {
        self.sigs.values()
    }

    /// Verifies every signature and the quorum size.
    ///
    /// With an amortizing [`crate::Verifier`] the all-signatures-valid check
    /// is memoized on the cert's exact wire bytes, so re-delivery of an
    /// already-verified cert is O(1); the quorum-size comparison stays
    /// outside the memo because `quorum` is the one input not covered by
    /// those bytes. With a plain [`crate::Pki`] every signature is
    /// recomputed, as before.
    pub fn verify(&self, v: &impl Verify, quorum: usize) -> bool {
        self.sigs.len() >= quorum && self.sigs_valid(v)
    }

    /// Memoized "every accumulated signature is valid over the digest".
    fn sigs_valid(&self, v: &impl Verify) -> bool {
        let mut key = MemoTag::QuorumCert.key(36 + 36 * self.sigs.len());
        self.encode(&mut key);
        v.memoized(key, || {
            self.sigs
                .iter()
                .all(|(p, sig)| v.verify(*p, self.digest, sig))
        })
    }

    /// The signers of `self` that also appear in `other` — the quorum
    /// intersection, used e.g. by Figure 5's Byzantine-identification rule.
    pub fn intersection(&self, other: &QuorumCert) -> Vec<PartyId> {
        self.signers().filter(|p| other.contains(*p)).collect()
    }
}

impl Digestible for QuorumCert {
    fn absorb(&self, h: &mut Sha256) {
        crate::digest::absorb_tag(h, "qc");
        h.update(self.digest.as_bytes());
        h.update(&(self.sigs.len() as u64).to_le_bytes());
        for (p, sig) in &self.sigs {
            p.absorb(h);
            // Signatures are attributable MACs; absorb signer + a hash of
            // the raw mac via its Debug-stable bytes is not available, so we
            // re-absorb the digest which the sig covers. Signer set + digest
            // identify the cert for hashing purposes.
            self.digest.absorb(h);
            let _ = sig;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keychain;

    fn setup() -> (Keychain, Digest) {
        (Keychain::generate(5, 3), Digest::of(&("x", 1u64)))
    }

    #[test]
    fn accumulates_distinct_signers() {
        let (chain, d) = setup();
        let mut qc = QuorumCert::new(d);
        assert!(qc.is_empty());
        assert!(qc.add(chain.signer(PartyId::new(0)).sign(d)));
        assert!(!qc.add(chain.signer(PartyId::new(0)).sign(d)), "duplicate");
        assert!(qc.add(chain.signer(PartyId::new(1)).sign(d)));
        assert_eq!(qc.len(), 2);
        assert!(qc.contains(PartyId::new(1)));
        assert!(!qc.contains(PartyId::new(2)));
    }

    #[test]
    fn verify_checks_quorum_and_sigs() {
        let (chain, d) = setup();
        let pki = chain.pki();
        let mut qc = QuorumCert::new(d);
        for i in 0..3 {
            qc.add(chain.signer(PartyId::new(i)).sign(d));
        }
        assert!(qc.verify(&pki, 3));
        assert!(!qc.verify(&pki, 4));
    }

    #[test]
    fn verify_rejects_foreign_signature() {
        let (chain, d) = setup();
        let other = Digest::of(&("y", 2u64));
        let mut qc = QuorumCert::new(d);
        // Signature over the wrong digest sneaks in unverified...
        qc.add(chain.signer(PartyId::new(0)).sign(other));
        // ...but verify catches it.
        assert!(!qc.verify(&chain.pki(), 1));
    }

    #[test]
    fn verify_amortizes_on_redelivery() {
        let (chain, d) = setup();
        let mut qc = QuorumCert::new(d);
        for i in 0..4 {
            qc.add(chain.signer(PartyId::new(i)).sign(d));
        }
        let v = chain.verifier();
        assert!(qc.verify(&v, 4));
        let macs = v.macs_computed();
        assert_eq!(macs, 4, "first delivery verifies each signature");
        for _ in 0..5 {
            assert!(qc.verify(&v, 4));
            assert!(!qc.verify(&v, 5), "quorum check stays outside the memo");
        }
        assert_eq!(v.macs_computed(), macs, "re-delivery is memo-only");
        // A tampered cert (extra signature over a foreign digest) misses the
        // memo and fails exactly as recomputation would.
        let mut bad = qc.clone();
        bad.add(chain.signer(PartyId::new(4)).sign(Digest::of(&("y", 9u64))));
        assert!(!bad.verify(&v, 4));
    }

    #[test]
    fn intersection_finds_double_voters() {
        let (chain, d) = setup();
        let d2 = Digest::of(&("x", 2u64));
        let mut a = QuorumCert::new(d);
        let mut b = QuorumCert::new(d2);
        for i in 0..3 {
            a.add(chain.signer(PartyId::new(i)).sign(d));
        }
        for i in 2..5 {
            b.add(chain.signer(PartyId::new(i)).sign(d2));
        }
        assert_eq!(a.intersection(&b), vec![PartyId::new(2)]);
    }

    #[test]
    fn signers_ordered() {
        let (chain, d) = setup();
        let mut qc = QuorumCert::new(d);
        qc.add(chain.signer(PartyId::new(3)).sign(d));
        qc.add(chain.signer(PartyId::new(1)).sign(d));
        let order: Vec<_> = qc.signers().collect();
        assert_eq!(order, vec![PartyId::new(1), PartyId::new(3)]);
        assert_eq!(qc.signatures().count(), 2);
    }

    #[test]
    fn digestible_depends_on_signer_set() {
        let (chain, d) = setup();
        let mut a = QuorumCert::new(d);
        let mut b = QuorumCert::new(d);
        a.add(chain.signer(PartyId::new(0)).sign(d));
        b.add(chain.signer(PartyId::new(1)).sign(d));
        assert_ne!(Digest::of(&a), Digest::of(&b));
    }
}
