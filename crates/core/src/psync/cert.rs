//! Figure 2: the certificate check of the `(5f−1)`-psync-VBB protocol.
//!
//! A valid certificate `C` of view `w` contains ≥ `4f−1` signed messages
//! from distinct parties, each either `⟨⊥, w⟩_j` or `⟨v, w⟩_{L_w, j}` with
//! `F(v) = true`. It **locks** `v ≠ ⊥` iff
//!
//! 1. it contains ≥ `2f−1` entries `⟨v, w⟩_{L_w, j}` (any `j`) and no entry
//!    for any `v' ≠ v`, or
//! 2. it contains ≥ `2f` entries `⟨v, w⟩_{L_w, j}` with `j ≠ L_w`.
//!
//! `∅` is a valid certificate of view 0 locking any externally valid value
//! (the [`Certificate::Genesis`] bootstrap). Certificates rank by view.
//!
//! For generality beyond the exact `n = 5f − 1` configuration the thresholds
//! are expressed through `n` and `f`: quorum `q = n − f` (= `4f−1`), rule-1
//! threshold `q − 2f` (= `2f−1`), rule-2 threshold `q − 2f + 1` (= `2f`).

use gcl_crypto::{Digest, Digestible, MemoTag, Sha256, Signature, Signer, Verify};
use gcl_types::{Config, Encode, ExternalValidity, PartyId, Value, View};
use std::collections::BTreeSet;

/// `⟨v, w⟩_{L_w}`: a value-view pair signed by the leader of view `w`.
///
/// This is the unit of equivocation detection: two `LeaderSigned` of the
/// same view with different values convict the leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeaderSigned {
    /// The proposed value.
    pub value: Value,
    /// The view in which it was proposed.
    pub view: View,
    /// The view leader's signature over `(value, view)`.
    pub leader_sig: Signature,
}

impl LeaderSigned {
    /// The digest the leader signs.
    pub(crate) fn digest(value: Value, view: View) -> Digest {
        Digest::of(&("psync-prop", value, view))
    }

    /// Signs `(value, view)` as leader.
    pub(crate) fn new(leader: &Signer, value: Value, view: View) -> Self {
        LeaderSigned {
            value,
            view,
            leader_sig: leader.sign(Self::digest(value, view)),
        }
    }

    /// Verifies the leader signature against the round-robin leader of
    /// `view`.
    pub(crate) fn verify(&self, config: Config, v: &impl Verify) -> bool {
        let leader = self.view.leader(config.n());
        self.leader_sig.signer() == leader
            && v.verify(
                leader,
                Self::digest(self.value, self.view),
                &self.leader_sig,
            )
    }
}

impl Digestible for LeaderSigned {
    fn absorb(&self, h: &mut Sha256) {
        ("psync-ls", self.value, self.view).absorb(h);
    }
}

/// `⟨vote, ⟨v, w⟩_{L_w, i}⟩_i`: a vote — the leader-signed pair
/// counter-signed by the voter.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct VoteMsg {
    /// The leader-signed proposal being voted.
    pub ls: LeaderSigned,
    /// The voter's signature.
    pub voter_sig: Signature,
}

impl VoteMsg {
    /// The digest the voter signs.
    pub(crate) fn digest(ls: &LeaderSigned) -> Digest {
        Digest::of(&("psync-vote", ls.value, ls.view))
    }

    /// Creates a vote by `voter` for `ls`.
    pub(crate) fn new(voter: &Signer, ls: LeaderSigned) -> Self {
        VoteMsg {
            ls,
            voter_sig: voter.sign(Self::digest(&ls)),
        }
    }

    /// The voting party.
    pub(crate) fn voter(&self) -> PartyId {
        self.voter_sig.signer()
    }

    /// Verifies both signatures.
    pub(crate) fn verify(&self, config: Config, v: &impl Verify) -> bool {
        self.ls.verify(config, v) && v.verify_embedded(Self::digest(&self.ls), &self.voter_sig)
    }
}

/// A timeout message (Figure 3, step 4): `⟨⊥, w⟩_i` when the party timed
/// out before voting, `⟨v, w⟩_{L_w, i}` when it voted `v` first.
///
/// These are exactly the entries certificates are assembled from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TimeoutMsg {
    /// Timed out before voting.
    Bot {
        /// The timed-out view.
        view: View,
        /// The sender's signature over `(⊥, view)`.
        sig: Signature,
    },
    /// Timed out after voting for the contained leader-signed value.
    Val {
        /// The leader-signed pair voted for.
        ls: LeaderSigned,
        /// The sender's counter-signature (same digest as a vote).
        voter_sig: Signature,
    },
}

impl TimeoutMsg {
    /// Digest for a `⊥` timeout of `view`.
    pub(crate) fn bot_digest(view: View) -> Digest {
        Digest::of(&("psync-bot", view))
    }

    /// Creates a `⊥` timeout.
    pub fn bot(signer: &Signer, view: View) -> Self {
        TimeoutMsg::Bot {
            view,
            sig: signer.sign(Self::bot_digest(view)),
        }
    }

    /// Creates a value timeout from the vote the party cast.
    pub(crate) fn val(signer: &Signer, ls: LeaderSigned) -> Self {
        TimeoutMsg::Val {
            ls,
            voter_sig: signer.sign(VoteMsg::digest(&ls)),
        }
    }

    /// The sending party.
    pub(crate) fn sender(&self) -> PartyId {
        match self {
            TimeoutMsg::Bot { sig, .. } => sig.signer(),
            TimeoutMsg::Val { voter_sig, .. } => voter_sig.signer(),
        }
    }

    /// The view this timeout is for.
    pub(crate) fn view(&self) -> View {
        match self {
            TimeoutMsg::Bot { view, .. } => *view,
            TimeoutMsg::Val { ls, .. } => ls.view,
        }
    }

    /// The non-⊥ value carried, if any.
    pub(crate) fn value(&self) -> Option<Value> {
        match self {
            TimeoutMsg::Bot { .. } => None,
            TimeoutMsg::Val { ls, .. } => Some(ls.value),
        }
    }

    /// Verifies signatures and (for values) external validity.
    pub(crate) fn verify(
        &self,
        config: Config,
        v: &impl Verify,
        validity: &ExternalValidity,
    ) -> bool {
        match self {
            TimeoutMsg::Bot { view, sig } => v.verify_embedded(Self::bot_digest(*view), sig),
            TimeoutMsg::Val { ls, voter_sig } => {
                validity.check(ls.value)
                    && ls.verify(config, v)
                    && v.verify_embedded(VoteMsg::digest(ls), voter_sig)
            }
        }
    }
}

impl Digestible for TimeoutMsg {
    fn absorb(&self, h: &mut Sha256) {
        match self {
            TimeoutMsg::Bot { view, .. } => ("psync-tm-bot", *view, self.sender()).absorb(h),
            TimeoutMsg::Val { ls, .. } => ("psync-tm-val", *ls, self.sender()).absorb(h),
        }
    }
}

gcl_types::wire_struct!(LeaderSigned {
    value,
    view,
    leader_sig
});
gcl_types::wire_struct!(VoteMsg { ls, voter_sig });

gcl_types::wire_enum!(TimeoutMsg {
    1 => Bot { view, sig },
    2 => Val { ls, voter_sig },
});
gcl_types::wire_enum!(Certificate {
    1 => Genesis,
    2 => Assembled { view, entries },
});

/// What a certificate locks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Lock {
    /// Locks any externally valid value (only the genesis certificate).
    Any,
    /// Locks exactly this value.
    Exactly(Value),
}

impl Lock {
    /// Whether this lock permits proposing/voting `v`.
    pub(crate) fn permits(&self, v: Value) -> bool {
        match self {
            Lock::Any => true,
            Lock::Exactly(locked) => *locked == v,
        }
    }
}

/// A Figure 2 certificate.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Certificate {
    /// `∅`, the valid certificate of view 0 locking any value.
    Genesis,
    /// A certificate assembled from ≥ `n − f` timeout messages of `view`.
    Assembled {
        /// The view the entries are for.
        view: View,
        /// The timeout entries (distinct senders).
        entries: Vec<TimeoutMsg>,
    },
}

impl Certificate {
    /// The certificate's view (genesis = view 0); certificates rank by it.
    pub(crate) fn view(&self) -> View {
        match self {
            Certificate::Genesis => View::ZERO,
            Certificate::Assembled { view, .. } => *view,
        }
    }

    /// Assembles a certificate from timeout entries for `view`.
    pub(crate) fn assemble(view: View, entries: Vec<TimeoutMsg>) -> Self {
        Certificate::Assembled { view, entries }
    }

    /// Validity per Figure 2: enough entries, distinct senders, all
    /// signatures good, all for `self.view()`, values externally valid.
    ///
    /// With an amortizing [`gcl_crypto::Verifier`] the verdict is memoized
    /// on the certificate's exact wire bytes plus every other input it
    /// depends on — `(n, f)` and the validity predicate's name (a verifier
    /// is per-protocol-instance, which holds a single predicate, so the
    /// name uniquely identifies it) — making re-delivery of a known
    /// certificate O(1) instead of O(q) signature checks.
    pub(crate) fn is_valid(
        &self,
        config: Config,
        v: &impl Verify,
        validity: &ExternalValidity,
    ) -> bool {
        match self {
            Certificate::Genesis => true,
            Certificate::Assembled { view, entries } => {
                if *view == View::ZERO {
                    return false;
                }
                let name = validity.name().as_bytes();
                let mut key = MemoTag::Cert.key(24 + name.len() + 80 * entries.len());
                key.extend_from_slice(&(config.n() as u64).to_le_bytes());
                key.extend_from_slice(&(config.f() as u64).to_le_bytes());
                key.extend_from_slice(&(name.len() as u64).to_le_bytes());
                key.extend_from_slice(name);
                self.encode(&mut key);
                v.memoized(key, || {
                    let distinct: BTreeSet<PartyId> =
                        entries.iter().map(TimeoutMsg::sender).collect();
                    distinct.len() >= config.quorum()
                        && distinct.len() == entries.len()
                        && entries
                            .iter()
                            .all(|t| t.view() == *view && t.verify(config, v, validity))
                })
            }
        }
    }

    /// What the certificate locks, assuming it [`is_valid`](Self::is_valid).
    ///
    /// Returns `None` when it locks nothing (e.g. all-⊥ entries); such
    /// certificates never update a party's lock.
    pub(crate) fn lock(&self, config: Config) -> Option<Lock> {
        match self {
            Certificate::Genesis => Some(Lock::Any),
            Certificate::Assembled { view, entries } => {
                let leader = view.leader(config.n());
                let q = config.quorum();
                let t1 = q.saturating_sub(2 * config.f()); // 2f−1 at n = 5f−1
                let t2 = t1 + 1; //                            2f at n = 5f−1
                let values: BTreeSet<Value> =
                    entries.iter().filter_map(TimeoutMsg::value).collect();
                for v in &values {
                    let for_v = entries.iter().filter(|t| t.value() == Some(*v));
                    let count = for_v.clone().count();
                    let count_non_leader = for_v.filter(|t| t.sender() != leader).count();
                    // Rule (1): ≥ t1 for v and no other value present.
                    if count >= t1 && values.len() == 1 {
                        return Some(Lock::Exactly(*v));
                    }
                    // Rule (2): ≥ t2 for v from parties other than the leader.
                    if count_non_leader >= t2 {
                        return Some(Lock::Exactly(*v));
                    }
                }
                None
            }
        }
    }

    /// True when `self` ranks strictly above `other` (higher view).
    pub(crate) fn ranks_above(&self, other: &Certificate) -> bool {
        self.view() > other.view()
    }
}

impl Digestible for Certificate {
    fn absorb(&self, h: &mut Sha256) {
        match self {
            Certificate::Genesis => "psync-cert-genesis".absorb(h),
            Certificate::Assembled { view, entries } => {
                ("psync-cert", *view, entries.clone()).absorb(h);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gcl_crypto::Keychain;
    use gcl_types::accept_all;

    /// n = 5f − 1 with f = 2 → n = 9, q = 7, t1 = 3 (2f−1), t2 = 4 (2f).
    fn setup() -> (Config, Keychain, ExternalValidity) {
        (
            Config::new(9, 2).unwrap(),
            Keychain::generate(9, 5),
            accept_all(),
        )
    }

    fn leader_of(view: View, chain: &Keychain, cfg: Config) -> Signer {
        chain.signer(view.leader(cfg.n()))
    }

    use gcl_crypto::Signer;

    fn val_tm(chain: &Keychain, cfg: Config, view: View, v: Value, sender: u32) -> TimeoutMsg {
        let ls = LeaderSigned::new(&leader_of(view, chain, cfg), v, view);
        TimeoutMsg::val(&chain.signer(PartyId::new(sender)), ls)
    }

    fn bot_tm(chain: &Keychain, view: View, sender: u32) -> TimeoutMsg {
        TimeoutMsg::bot(&chain.signer(PartyId::new(sender)), view)
    }

    #[test]
    fn genesis_is_valid_and_locks_any() {
        let (cfg, chain, f) = setup();
        let g = Certificate::Genesis;
        assert!(g.is_valid(cfg, &chain.pki(), &f));
        assert_eq!(g.lock(cfg), Some(Lock::Any));
        assert_eq!(g.view(), View::ZERO);
        assert!(Lock::Any.permits(Value::new(77)));
    }

    #[test]
    fn rule1_locks_with_2f_minus_1_votes_single_value() {
        let (cfg, chain, f) = setup();
        let w = View::FIRST;
        // 3 value entries (t1 = 3) + 4 bot entries = 7 = q.
        let mut entries: Vec<TimeoutMsg> = (1..=3)
            .map(|i| val_tm(&chain, cfg, w, Value::new(5), i))
            .collect();
        entries.extend((4..=7).map(|i| bot_tm(&chain, w, i)));
        let c = Certificate::assemble(w, entries);
        assert!(c.is_valid(cfg, &chain.pki(), &f));
        assert_eq!(c.lock(cfg), Some(Lock::Exactly(Value::new(5))));
    }

    #[test]
    fn rule1_fails_below_threshold() {
        let (cfg, chain, f) = setup();
        let w = View::FIRST;
        let mut entries: Vec<TimeoutMsg> = (1..=2)
            .map(|i| val_tm(&chain, cfg, w, Value::new(5), i))
            .collect();
        entries.extend((3..=7).map(|i| bot_tm(&chain, w, i)));
        let c = Certificate::assemble(w, entries);
        assert!(c.is_valid(cfg, &chain.pki(), &f));
        assert_eq!(c.lock(cfg), None, "2 < t1 = 3 value entries");
    }

    #[test]
    fn rule1_blocked_by_conflicting_value() {
        let (cfg, chain, f) = setup();
        let w = View::FIRST;
        // 3 entries for v, 1 for v' (leader equivocated), 3 bot = 7 entries.
        // Rule 1 fails (two values), rule 2 fails (3 < t2 = 4 non-leader).
        let mut entries: Vec<TimeoutMsg> = (1..=3)
            .map(|i| val_tm(&chain, cfg, w, Value::new(5), i))
            .collect();
        entries.push(val_tm(&chain, cfg, w, Value::new(6), 4));
        entries.extend((5..=7).map(|i| bot_tm(&chain, w, i)));
        let c = Certificate::assemble(w, entries);
        assert!(c.is_valid(cfg, &chain.pki(), &f));
        assert_eq!(c.lock(cfg), None);
    }

    #[test]
    fn rule2_locks_despite_equivocation() {
        let (cfg, chain, f) = setup();
        let w = View::FIRST; // leader = P0
                             // 4 non-leader entries for v (t2 = 4), 1 for v', 2 bot = 7 entries.
        let mut entries: Vec<TimeoutMsg> = (1..=4)
            .map(|i| val_tm(&chain, cfg, w, Value::new(5), i))
            .collect();
        entries.push(val_tm(&chain, cfg, w, Value::new(6), 5));
        entries.extend((6..=7).map(|i| bot_tm(&chain, w, i)));
        let c = Certificate::assemble(w, entries);
        assert!(c.is_valid(cfg, &chain.pki(), &f));
        assert_eq!(c.lock(cfg), Some(Lock::Exactly(Value::new(5))));
    }

    #[test]
    fn leader_entry_does_not_count_for_rule2() {
        let (cfg, chain, f) = setup();
        let w = View::FIRST; // leader = P0
                             // 3 non-leader + 1 leader entry for v, plus v' entry: rule 2 needs 4
                             // non-leader, only 3.
        let mut entries: Vec<TimeoutMsg> = (1..=3)
            .map(|i| val_tm(&chain, cfg, w, Value::new(5), i))
            .collect();
        entries.push(val_tm(&chain, cfg, w, Value::new(5), 0)); // leader itself
        entries.push(val_tm(&chain, cfg, w, Value::new(6), 5));
        entries.extend((6..=7).map(|i| bot_tm(&chain, w, i)));
        let c = Certificate::assemble(w, entries);
        assert!(c.is_valid(cfg, &chain.pki(), &f));
        assert_eq!(c.lock(cfg), None);
    }

    #[test]
    fn too_few_entries_invalid() {
        let (cfg, chain, f) = setup();
        let w = View::FIRST;
        let entries: Vec<TimeoutMsg> = (1..=6).map(|i| bot_tm(&chain, w, i)).collect();
        let c = Certificate::assemble(w, entries);
        assert!(!c.is_valid(cfg, &chain.pki(), &f), "6 < q = 7");
    }

    #[test]
    fn duplicate_senders_invalid() {
        let (cfg, chain, f) = setup();
        let w = View::FIRST;
        let mut entries: Vec<TimeoutMsg> = (1..=6).map(|i| bot_tm(&chain, w, i)).collect();
        entries.push(bot_tm(&chain, w, 6)); // duplicate sender 6
        let c = Certificate::assemble(w, entries);
        assert!(!c.is_valid(cfg, &chain.pki(), &f));
    }

    #[test]
    fn wrong_view_entry_invalid() {
        let (cfg, chain, f) = setup();
        let w = View::FIRST;
        let mut entries: Vec<TimeoutMsg> = (1..=6).map(|i| bot_tm(&chain, w, i)).collect();
        entries.push(bot_tm(&chain, w.next(), 7));
        let c = Certificate::assemble(w, entries);
        assert!(!c.is_valid(cfg, &chain.pki(), &f));
    }

    #[test]
    fn externally_invalid_value_rejected() {
        let (cfg, chain, _) = setup();
        let only_small = ExternalValidity::new("small", |v: Value| v.as_u64() < 10);
        let w = View::FIRST;
        let mut entries: Vec<TimeoutMsg> = (1..=3)
            .map(|i| val_tm(&chain, cfg, w, Value::new(100), i))
            .collect();
        entries.extend((4..=7).map(|i| bot_tm(&chain, w, i)));
        let c = Certificate::assemble(w, entries);
        assert!(!c.is_valid(cfg, &chain.pki(), &only_small));
    }

    #[test]
    fn ranking_by_view() {
        let (cfg, chain, _) = setup();
        let _ = cfg;
        let w2 = View::new(2);
        let c2 = Certificate::assemble(w2, vec![bot_tm(&chain, w2, 1)]);
        assert!(c2.ranks_above(&Certificate::Genesis));
        assert!(!Certificate::Genesis.ranks_above(&c2));
    }

    #[test]
    fn vote_and_leader_signed_verify() {
        let (cfg, chain, _) = setup();
        let w = View::FIRST;
        let ls = LeaderSigned::new(&chain.signer(PartyId::new(0)), Value::new(1), w);
        assert!(ls.verify(cfg, &chain.pki()));
        // Signed by a non-leader: rejected.
        let bad = LeaderSigned::new(&chain.signer(PartyId::new(3)), Value::new(1), w);
        assert!(!bad.verify(cfg, &chain.pki()));
        let vote = VoteMsg::new(&chain.signer(PartyId::new(2)), ls);
        assert!(vote.verify(cfg, &chain.pki()));
        assert_eq!(vote.voter(), PartyId::new(2));
    }

    #[test]
    fn timeout_accessors() {
        let (cfg, chain, f) = setup();
        let w = View::FIRST;
        let b = bot_tm(&chain, w, 3);
        assert_eq!(b.sender(), PartyId::new(3));
        assert_eq!(b.view(), w);
        assert_eq!(b.value(), None);
        assert!(b.verify(cfg, &chain.pki(), &f));
        let v = val_tm(&chain, cfg, w, Value::new(4), 2);
        assert_eq!(v.value(), Some(Value::new(4)));
        assert!(v.verify(cfg, &chain.pki(), &f));
    }

    #[test]
    fn lock_permits() {
        assert!(Lock::Exactly(Value::new(3)).permits(Value::new(3)));
        assert!(!Lock::Exactly(Value::new(3)).permits(Value::new(4)));
    }

    #[test]
    fn f1_n4_thresholds() {
        // The paper's highlighted case: f = 1, n = 4 = 5f−1 = 3f+1.
        // q = 3, t1 = 1, t2 = 2.
        let cfg = Config::new(4, 1).unwrap();
        let chain = Keychain::generate(4, 6);
        let f = accept_all();
        let w = View::FIRST;
        let mut entries = vec![val_tm(&chain, cfg, w, Value::new(9), 1)];
        entries.push(bot_tm(&chain, w, 2));
        entries.push(bot_tm(&chain, w, 3));
        let c = Certificate::assemble(w, entries);
        assert!(c.is_valid(cfg, &chain.pki(), &f));
        assert_eq!(c.lock(cfg), Some(Lock::Exactly(Value::new(9))));
    }
}
