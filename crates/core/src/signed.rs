//! Messages that are one value (and a view) plus one signature, told apart
//! only by the domain-separation string the signature covers. Each protocol
//! names its domains once, as constants on its party type, and passes them
//! here; a proposal is checked against the party it must come from
//! (`verify`), a vote or commit against the party its signature names
//! (`verify_embedded`).

use gcl_crypto::{Digest, Signature, Signer, Verify};
use gcl_types::{PartyId, Value, View};

/// `⟨v⟩_i` under a domain: the proposals of Figures 5, 6, 9 and 10, the
/// votes of Figures 1 and 10 and the early-commit strawman, Figure 5's
/// commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SignedValue {
    /// The signed value.
    pub value: Value,
    /// The signature over `(domain, value)`.
    pub sig: Signature,
}

impl SignedValue {
    /// The digest a signature under `domain` covers.
    pub(crate) fn digest(domain: &str, value: Value) -> Digest {
        Digest::of(&(domain, value))
    }

    /// Signs `value` under `domain`.
    pub(crate) fn new(domain: &str, signer: &Signer, value: Value) -> Self {
        SignedValue {
            value,
            sig: signer.sign(Self::digest(domain, value)),
        }
    }

    /// A proposal's check: signed under `domain` by `proposer`.
    pub(crate) fn verify(&self, domain: &str, proposer: PartyId, v: &impl Verify) -> bool {
        self.sig.signer() == proposer
            && v.verify(proposer, Self::digest(domain, self.value), &self.sig)
    }

    /// A vote's or commit's check: signed under `domain` by the party the
    /// signature names.
    pub(crate) fn verify_embedded(&self, domain: &str, v: &impl Verify) -> bool {
        v.verify_embedded(Self::digest(domain, self.value), &self.sig)
    }

    /// The party the signature names (verify before trusting it).
    pub(crate) fn signer(&self) -> PartyId {
        self.sig.signer()
    }
}

/// `⟨v, w⟩_i` under a domain: PBFT's proposal, prepare and commit, and the
/// FaB strawman's vote.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PhaseVote {
    /// The signed value.
    pub value: Value,
    /// The view it is signed for.
    pub view: View,
    /// The signature over `(domain, value, view)`.
    pub sig: Signature,
}

impl PhaseVote {
    /// The digest a signature under `domain` covers.
    pub(crate) fn digest(domain: &str, value: Value, view: View) -> Digest {
        Digest::of(&(domain, value, view))
    }

    /// Signs `(value, view)` under `domain`.
    pub(crate) fn new(domain: &str, signer: &Signer, value: Value, view: View) -> Self {
        PhaseVote {
            value,
            view,
            sig: signer.sign(Self::digest(domain, value, view)),
        }
    }

    /// A proposal's check: signed under `domain` by `proposer`.
    pub(crate) fn verify(&self, domain: &str, proposer: PartyId, v: &impl Verify) -> bool {
        self.sig.signer() == proposer
            && v.verify(
                proposer,
                Self::digest(domain, self.value, self.view),
                &self.sig,
            )
    }

    /// A vote's check: signed under `domain` by the party the signature
    /// names.
    pub(crate) fn verify_embedded(&self, domain: &str, v: &impl Verify) -> bool {
        v.verify_embedded(Self::digest(domain, self.value, self.view), &self.sig)
    }

    /// The party the signature names (verify before trusting it).
    pub(crate) fn voter(&self) -> PartyId {
        self.sig.signer()
    }
}

gcl_types::wire_struct!(SignedValue { value, sig });
gcl_types::wire_struct!(PhaseVote { value, view, sig });

#[cfg(test)]
mod tests {
    use super::*;
    use crate::asynchrony::TwoRoundBrb;
    use crate::psync::PbftPsyncVbb;
    use crate::strawman::{EarlyCommitBb, FabProposal, FabTwoRound};
    use crate::sync::{Fig5Vote, Fig6Vote, SyncStartBb, ThirdBb, TwoDeltaBb, UnsyncBb};
    use gcl_crypto::Keychain;
    use gcl_types::{Duration, Encode};
    use std::collections::BTreeMap;
    use std::path::Path;

    fn hex(msg: &impl Encode) -> String {
        msg.to_wire().iter().map(|b| format!("{b:02x}")).collect()
    }

    /// The wire bytes, signature included, of every `SignedValue`,
    /// `PhaseVote` and timed-vote message, for one keychain and one value.
    /// These are the bytes each message's own struct (`Fig5Proposal`,
    /// `SignedVote`, `PbftProposal`, …) produced, so a changed domain
    /// string, field order or digest shows here; the golden wire hash
    /// cannot see a changed signature, since it hashes random ones.
    #[test]
    fn merged_messages_sign_exactly_as_before() {
        let chain = Keychain::generate(4, 24);
        let (s0, s1) = (chain.signer(PartyId::new(0)), chain.signer(PartyId::new(1)));
        let (v, w, d) = (Value::new(7), View::new(3), Duration::from_micros(250));
        let value = |domain: &str, signer: &Signer| SignedValue::new(domain, signer, v);
        let phase = |domain: &str, signer: &Signer| hex(&PhaseVote::new(domain, signer, v, w));
        let timed =
            |[propose, vote]: [&str; 2]| hex(&Fig6Vote::new(vote, &s1, d, value(propose, &s0)));
        let pins = [
            ("fig5_prop", hex(&value(ThirdBb::PROPOSE, &s0)), "0700000000000000000000005c60f636d10039c37429e327e0d00b9b8420cc504d8e4e6b233cec2c1b4fb118"),
            ("fig5_vote", hex(&Fig5Vote::new(&s1, value(ThirdBb::PROPOSE, &s0))), "0700000000000000000000005c60f636d10039c37429e327e0d00b9b8420cc504d8e4e6b233cec2c1b4fb11801000000dcc0bc7a2b67751cad43d9525cadcd3039271a4f9aa002f99c0564932894d351"),
            ("fig5_commit", hex(&value(ThirdBb::COMMIT, &s1)), "0700000000000000010000005c65a441eb26c8db187eed03132f239327e9d1a93bb96db9470531482abfa879"),
            ("fig6_prop", hex(&value(SyncStartBb::PROPOSE, &s0)), "07000000000000000000000021699886de03bca55292d20211e125f916439d0b8415ebab8da1304b0a5889ab"),
            ("fig6_vote", timed([SyncStartBb::PROPOSE, SyncStartBb::VOTE]), "fa0000000000000007000000000000000000000021699886de03bca55292d20211e125f916439d0b8415ebab8da1304b0a5889ab01000000d29fc9aeaae75254634397443b4098ac478382bb645b07edee67b85e6c1c9315"),
            ("fig9_prop", hex(&value(UnsyncBb::PROPOSE, &s0)), "0700000000000000000000009150d5694236e51db7aa9f880ebb0888f804d0bc9416bb1c938cd5ce0971a599"),
            ("fig9_vote", timed([UnsyncBb::PROPOSE, UnsyncBb::VOTE]), "fa000000000000000700000000000000000000009150d5694236e51db7aa9f880ebb0888f804d0bc9416bb1c938cd5ce0971a599010000005f185784630fe208415441036a45901e7fe87b3288c10aeddcb4de710f578334"),
            ("fig10_prop", hex(&value(TwoDeltaBb::PROPOSE, &s0)), "0700000000000000000000004d8f8f1335f356a724ca1f0b87aec0422eede38911ada51fe4cc758eeff996a5"),
            ("fig10_vote", hex(&value(TwoDeltaBb::VOTE, &s1)), "070000000000000001000000536013962c951057617577f6c40de13ace5345703aab88c40018717aefcb0190"),
            ("brb2_vote", hex(&value(TwoRoundBrb::VOTE, &s1)), "0700000000000000010000008af380eefcd41f3c3e36d4b36550ff93aa76b40702eae4252bcdcac8b1ba121d"),
            ("early_vote", hex(&value(EarlyCommitBb::VOTE, &s1)), "070000000000000001000000cf5bf33663a0556ad2359a4ec8672cbe71cca8dba3ed0f248ae6980928cf7488"),
            ("pbft_prop", phase(PbftPsyncVbb::PROPOSE, &s0), "070000000000000003000000000000000000000022f1fa99cb1a8328d1e622047e259bf6b69cf9c47a872426fef4945e8076967e"),
            ("pbft_prepare", phase(PbftPsyncVbb::PREPARE, &s1), "07000000000000000300000000000000010000001dee07550866c5240c455da7b00972d6cbf6cb8751b2ae994b16ef0774c85752"),
            ("pbft_commit", phase(PbftPsyncVbb::COMMIT, &s1), "0700000000000000030000000000000001000000c8b19aacd15d6d02018da50a622609ce8eccf476a31e15966c6ddc3ec947ef51"),
            ("fab_prop", hex(&FabProposal::new(&s0, v, w, Vec::new())), "07000000000000000300000000000000000000007ea16031dc6343aa9d54e7d6cb6ae0cd69ab1e192d560ac8c28d22688e0c979300000000"),
            ("fab_vote", phase(FabTwoRound::VOTE, &s1), "0700000000000000030000000000000001000000942fb2611c4ed3c834fd09651de86e4e2ee2ad8a92fa99a706caf8c44ab5182c"),
        ];
        for (name, got, pinned) in pins {
            assert_eq!(got, pinned, "{name}");
        }
    }

    /// Every kebab-case string literal in this crate's non-test code, with
    /// where it is spelled.
    fn literals(dir: &Path, found: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                literals(&path, found);
                continue;
            }
            let text = std::fs::read_to_string(&path).unwrap();
            let code = text.split("#[cfg(test)]").next().unwrap();
            for (i, line) in code.lines().enumerate() {
                if line.trim_start().starts_with("//") {
                    continue;
                }
                for piece in line.split('"').skip(1).step_by(2) {
                    let kebab = piece.contains('-')
                        && piece.starts_with(|c: char| c.is_ascii_lowercase())
                        && piece
                            .chars()
                            .all(|c| c.is_ascii_lowercase() || c.is_ascii_digit() || c == '-');
                    if kebab {
                        found.push((piece.to_owned(), format!("{}:{}", path.display(), i + 1)));
                    }
                }
            }
        }
    }

    /// Every domain-separation string in this crate is spelled once, so two
    /// kinds of message never sign the same bytes by accident. The one
    /// share is deliberate and is not a second spelling: a value timeout
    /// (`TimeoutMsg::Val`) is signed over its vote's digest
    /// (`VoteMsg::digest`, `psync-vote`), which is what lets a certificate
    /// count it as that vote.
    #[test]
    fn every_domain_string_is_spelled_once() {
        let mut found = Vec::new();
        literals(
            &Path::new(env!("CARGO_MANIFEST_DIR")).join("src"),
            &mut found,
        );
        let mut seen: BTreeMap<&str, &str> = BTreeMap::new();
        for (domain, at) in &found {
            if let Some(first) = seen.insert(domain, at) {
                panic!("domain {domain:?} spelled at {first} and at {at}");
            }
        }
        for domain in [
            "fig5-prop",
            "brb2-vote",
            "pbft-prepare",
            "psync-vote",
            "psync-bot",
            "maj-vote",
        ] {
            assert!(seen.contains_key(domain), "the scan found no {domain:?}");
        }
    }
}
