//! Transferable equivocation evidence.
//!
//! The paper's key observation for the `(5f−1)` bound (Section 4.1) and for
//! the synchronous commit rules is that, in the authenticated setting,
//! *leader equivocation is detectable and provable*: two messages signed by
//! the same party over conflicting payloads convict the signer. This module
//! packages that proof so it can be forwarded and re-verified.

use crate::digest::Digest;
use crate::keys::{Pki, Signature};
use gcl_types::PartyId;

/// Proof that `culprit` signed two different payload digests.
///
/// # Examples
///
/// ```
/// use gcl_crypto::{Digest, EquivocationEvidence, Keychain};
/// use gcl_types::PartyId;
///
/// let chain = Keychain::generate(2, 5);
/// let signer = chain.signer(PartyId::new(0));
/// let (d0, d1) = (Digest::of(&0u64), Digest::of(&1u64));
/// let ev = EquivocationEvidence::new(d0, signer.sign(d0), d1, signer.sign(d1)).unwrap();
/// assert!(ev.verify(&chain.pki()));
/// assert_eq!(ev.culprit(), PartyId::new(0));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EquivocationEvidence {
    digest_a: Digest,
    sig_a: Signature,
    digest_b: Digest,
    sig_b: Signature,
}

// Wire format: the four fields in order. Decoding skips the `new`
// invariant on purpose — received evidence is untrusted input, and
// `verify` re-checks both the distinct-digest and signature conditions.
gcl_types::wire_struct!(EquivocationEvidence {
    digest_a,
    sig_a,
    digest_b,
    sig_b
});

impl EquivocationEvidence {
    /// Assembles evidence from two signed digests.
    ///
    /// Returns `None` when the pair is not actually equivocation: different
    /// signers, or identical digests.
    pub fn new(
        digest_a: Digest,
        sig_a: Signature,
        digest_b: Digest,
        sig_b: Signature,
    ) -> Option<Self> {
        if sig_a.signer() != sig_b.signer() || digest_a == digest_b {
            return None;
        }
        Some(EquivocationEvidence {
            digest_a,
            sig_a,
            digest_b,
            sig_b,
        })
    }

    /// The convicted signer.
    pub fn culprit(&self) -> PartyId {
        self.sig_a.signer()
    }

    /// Re-verifies both signatures (for received, untrusted evidence).
    pub fn verify(&self, pki: &Pki) -> bool {
        self.digest_a != self.digest_b
            && pki.verify_embedded(self.digest_a, &self.sig_a)
            && pki.verify_embedded(self.digest_b, &self.sig_b)
    }

    /// The two conflicting digests.
    pub fn digests(&self) -> (Digest, Digest) {
        (self.digest_a, self.digest_b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::keys::Keychain;

    #[test]
    fn valid_evidence_verifies() {
        let chain = Keychain::generate(3, 1);
        let s = chain.signer(PartyId::new(2));
        let (d0, d1) = (Digest::of(&0u64), Digest::of(&1u64));
        let ev = EquivocationEvidence::new(d0, s.sign(d0), d1, s.sign(d1)).unwrap();
        assert!(ev.verify(&chain.pki()));
        assert_eq!(ev.culprit(), PartyId::new(2));
        assert_eq!(ev.digests(), (d0, d1));
    }

    #[test]
    fn same_digest_is_not_equivocation() {
        let chain = Keychain::generate(2, 1);
        let s = chain.signer(PartyId::new(0));
        let d = Digest::of(&7u64);
        assert!(EquivocationEvidence::new(d, s.sign(d), d, s.sign(d)).is_none());
    }

    #[test]
    fn different_signers_rejected() {
        let chain = Keychain::generate(2, 1);
        let (d0, d1) = (Digest::of(&0u64), Digest::of(&1u64));
        let a = chain.signer(PartyId::new(0)).sign(d0);
        let b = chain.signer(PartyId::new(1)).sign(d1);
        assert!(EquivocationEvidence::new(d0, a, d1, b).is_none());
    }

    #[test]
    fn forged_signature_fails_verify() {
        let chain = Keychain::generate(2, 1);
        let other_chain = Keychain::generate(2, 99);
        let (d0, d1) = (Digest::of(&0u64), Digest::of(&1u64));
        let s = other_chain.signer(PartyId::new(0));
        let ev = EquivocationEvidence::new(d0, s.sign(d0), d1, s.sign(d1)).unwrap();
        assert!(!ev.verify(&chain.pki()), "wrong key universe");
    }
}
