//! Codec round-trip property suite: for every registered family's message
//! type (and the crypto vocabulary it embeds), fuzz a message and assert
//! `decode(encode(m)) == m`.
//!
//! The sim ↔ wall conformance suite only exercises the enum variants a
//! good-case run actually sends; this suite generates *every* variant —
//! view changes, timeout bundles, commit certificates — so a codec impl
//! that forgot one cannot hide behind the happy path. Generation is
//! seeded through the proptest shim (`PROPTEST_SEED`/`PROPTEST_CASES`
//! replay and scale it) and signatures are real `Keychain` signatures, so
//! the decoded values are verifiable, not just structurally equal.
//!
//! Every generated message is also turned hostile (see [`Wire::msg`]):
//! these decoders are fed straight from the wall engine's sockets, so a
//! truncated, over-long or mis-tagged frame must be an error, never a
//! panic. [`golden_wire_bytes`] pins the format itself.

use gcl_core::asynchrony::{BrachaMsg, Brb2Msg};
use gcl_core::dishonest::{MajProposal, MajVote, MajorityMsg};
use gcl_core::psync::{
    Certificate, PbftMsg, PhaseVote, PreparedCert, Proof, StatusMsg, TimeoutMsg, VbbMsg,
    ViewChangeMsg, VoteMsg,
};
use gcl_core::strawman::{EarlyMsg, FabMsg, FabProposal, FabViewChange};
use gcl_core::sync::{
    BaMsg, DsMsg, DsRelay, Fig5Vote, Fig6Vote, SyncStartMsg, ThirdMsg, TwoDeltaMsg, UnsyncMsg,
};
use gcl_core::SignedValue;
use gcl_crypto::{Digest, Keychain, Signature};
use gcl_smr::SmrMsg;
use gcl_types::{Batch, Decode, Duration, Encode, PartyId, SlotId, Value, View, WireError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;

/// One shared key universe: codecs only move bytes, so any valid
/// signatures do.
fn chain() -> Keychain {
    Keychain::generate(8, 0x117e_57a6)
}

/// A tag byte no message type claims.
const UNCLAIMED_TAG: u8 = 0xff;

/// Checks every message a generator produces and keeps the encodings (the
/// golden test hashes them).
#[derive(Default)]
struct Wire(Vec<u8>);

impl Wire {
    /// `decode(encode(msg)) == msg`; every strict prefix of the encoding is
    /// an error and one trailing byte is `Trailing(1)`. Returns the encoding.
    fn msg<T: Encode + Decode + PartialEq + Debug>(&mut self, msg: T) -> Vec<u8> {
        let bytes = msg.to_wire();
        prop_assert_eq!(T::from_wire(&bytes).as_ref(), Ok(&msg));
        for cut in 0..bytes.len() {
            let prefix = T::from_wire(&bytes[..cut]);
            prop_assert!(prefix.is_err(), "{cut}-byte prefix decoded: {prefix:?}");
        }
        let long = [bytes.as_slice(), &[0]].concat();
        prop_assert_eq!(T::from_wire(&long), Err(WireError::Trailing(1)));
        self.0.extend_from_slice(&bytes);
        bytes
    }

    /// [`Wire::msg`] for a tagged enum: also, an unclaimed tag byte is
    /// `BadTag` naming the enum.
    fn tagged<T: Encode + Decode + PartialEq + Debug>(&mut self, msg: T) {
        let mut bytes = self.msg(msg);
        bytes[0] = UNCLAIMED_TAG;
        let ty = std::any::type_name::<T>().rsplit("::").next().unwrap();
        let err = WireError::BadTag {
            ty,
            tag: UNCLAIMED_TAG,
        };
        prop_assert_eq!(T::from_wire(&bytes), Err(err));
    }
}

/// One family's generator: a seeded instance of every variant of every
/// message type the family puts on the wire, each through [`Wire`].
type Family = fn(&mut StdRng, &Keychain, &mut Wire);

fn value(rng: &mut StdRng) -> Value {
    Value::new(rng.gen::<u64>())
}

fn view(rng: &mut StdRng) -> View {
    View::new(rng.gen_range(0u64..50))
}

fn party(rng: &mut StdRng) -> PartyId {
    PartyId::new(rng.gen_range(0u32..8))
}

fn duration(rng: &mut StdRng) -> Duration {
    Duration::from_micros(rng.gen_range(0u64..10_000))
}

fn sig(rng: &mut StdRng, chain: &Keychain) -> Signature {
    chain.signer(party(rng)).sign(Digest::of(&rng.gen::<u64>()))
}

fn sig_vec(rng: &mut StdRng, chain: &Keychain) -> Vec<Signature> {
    (0..rng.gen_range(0usize..5))
        .map(|_| sig(rng, chain))
        .collect()
}

fn relay(rng: &mut StdRng, chain: &Keychain) -> DsRelay {
    DsRelay {
        instance: party(rng),
        value: value(rng),
        chain: sig_vec(rng, chain),
    }
}

fn timeout_msg(rng: &mut StdRng, chain: &Keychain, val: bool) -> TimeoutMsg {
    if val {
        TimeoutMsg::Val {
            ls: phase_vote(rng, chain),
            voter_sig: sig(rng, chain),
        }
    } else {
        TimeoutMsg::Bot {
            view: view(rng),
            sig: sig(rng, chain),
        }
    }
}

fn timeout_vec(rng: &mut StdRng, chain: &Keychain) -> Vec<TimeoutMsg> {
    (0..rng.gen_range(0usize..4))
        .map(|_| {
            let val = rng.gen();
            timeout_msg(rng, chain, val)
        })
        .collect()
}

fn certificate(rng: &mut StdRng, chain: &Keychain, assembled: bool) -> Certificate {
    if assembled {
        Certificate::Assembled {
            view: view(rng),
            entries: timeout_vec(rng, chain),
        }
    } else {
        Certificate::Genesis
    }
}

fn status(rng: &mut StdRng, chain: &Keychain) -> StatusMsg {
    let assembled = rng.gen();
    StatusMsg {
        view: view(rng),
        cert: certificate(rng, chain, assembled),
        sig: sig(rng, chain),
    }
}

fn proof(rng: &mut StdRng, chain: &Keychain, shape: u32) -> Proof {
    match shape {
        0 => Proof::Bootstrap,
        1 => {
            let assembled = rng.gen();
            Proof::Cert(certificate(rng, chain, assembled))
        }
        _ => Proof::Statuses(
            (0..rng.gen_range(0usize..3))
                .map(|_| status(rng, chain))
                .collect(),
        ),
    }
}

fn vote_msg(rng: &mut StdRng, chain: &Keychain) -> VoteMsg {
    VoteMsg {
        ls: phase_vote(rng, chain),
        voter_sig: sig(rng, chain),
    }
}

fn vbb_msg(rng: &mut StdRng, chain: &Keychain, variant: u32) -> VbbMsg {
    let pick = rng.gen_range(0u32..3);
    match variant {
        0 => VbbMsg::Propose {
            ls: phase_vote(rng, chain),
            proof: proof(rng, chain, pick),
        },
        1 => VbbMsg::Vote(vote_msg(rng, chain)),
        2 => VbbMsg::VoteBundle((0..pick).map(|_| vote_msg(rng, chain)).collect()),
        3 => VbbMsg::Timeout(timeout_msg(rng, chain, pick == 0)),
        4 => VbbMsg::TimeoutBundle(timeout_vec(rng, chain)),
        _ => VbbMsg::Status(status(rng, chain)),
    }
}

fn signed_value(rng: &mut StdRng, chain: &Keychain) -> SignedValue {
    SignedValue {
        value: value(rng),
        sig: sig(rng, chain),
    }
}

fn phase_vote(rng: &mut StdRng, chain: &Keychain) -> PhaseVote {
    PhaseVote {
        value: value(rng),
        view: view(rng),
        sig: sig(rng, chain),
    }
}

fn view_change(rng: &mut StdRng, chain: &Keychain) -> ViewChangeMsg {
    ViewChangeMsg {
        view: view(rng),
        prepared: rng.gen::<bool>().then(|| PreparedCert {
            value: value(rng),
            view: view(rng),
            prepares: (0..rng.gen_range(0usize..3))
                .map(|_| phase_vote(rng, chain))
                .collect(),
        }),
        sig: sig(rng, chain),
    }
}

fn brb2(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    w.tagged(Brb2Msg::Propose(value(rng)));
    w.tagged(Brb2Msg::Vote(signed_value(rng, chain)));
    let votes = (0..3).map(|_| signed_value(rng, chain)).collect();
    w.tagged(Brb2Msg::Forward(votes));
}

fn bracha(rng: &mut StdRng, _: &Keychain, w: &mut Wire) {
    w.tagged(BrachaMsg::Send(value(rng)));
    w.tagged(BrachaMsg::Echo(value(rng)));
    w.tagged(BrachaMsg::Ready(value(rng)));
}

fn dolev_strong_and_ba(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    w.msg(DsMsg(relay(rng, chain)));
    w.msg(BaMsg(relay(rng, chain)));
}

fn bb_2delta(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    w.tagged(TwoDeltaMsg::Propose(signed_value(rng, chain)));
    w.tagged(TwoDeltaMsg::Vote(signed_value(rng, chain)));
    let votes = (0..2).map(|_| signed_value(rng, chain)).collect();
    w.tagged(TwoDeltaMsg::VoteBundle(votes));
    w.tagged(TwoDeltaMsg::Ba(BaMsg(relay(rng, chain))));
}

fn timed_vote(rng: &mut StdRng, chain: &Keychain) -> Fig6Vote {
    Fig6Vote {
        d: duration(rng),
        prop: signed_value(rng, chain),
        sig: sig(rng, chain),
    }
}

fn bb_sync_start(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    let vote = |rng: &mut StdRng| timed_vote(rng, chain);
    w.tagged(SyncStartMsg::Propose(signed_value(rng, chain)));
    w.tagged(SyncStartMsg::Vote(vote(rng)));
    w.tagged(SyncStartMsg::VoteBundle(
        (0..2).map(|_| vote(rng)).collect(),
    ));
    w.tagged(SyncStartMsg::Ba(BaMsg(relay(rng, chain))));
}

fn bb_unsync(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    let vote = |rng: &mut StdRng| timed_vote(rng, chain);
    w.tagged(UnsyncMsg::Propose(signed_value(rng, chain)));
    w.tagged(UnsyncMsg::Vote(vote(rng)));
    w.tagged(UnsyncMsg::VoteBundle((0..2).map(|_| vote(rng)).collect()));
    w.tagged(UnsyncMsg::Ba(BaMsg(relay(rng, chain))));
}

fn bb_third(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    let vote = |rng: &mut StdRng| Fig5Vote {
        prop: signed_value(rng, chain),
        sig: sig(rng, chain),
    };
    w.tagged(ThirdMsg::Propose(signed_value(rng, chain)));
    w.tagged(ThirdMsg::Vote(vote(rng)));
    w.tagged(ThirdMsg::VoteBundle((0..2).map(|_| vote(rng)).collect()));
    w.tagged(ThirdMsg::Commit(signed_value(rng, chain)));
    w.tagged(ThirdMsg::Ba(BaMsg(relay(rng, chain))));
}

fn bb_majority(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    let prop = |rng: &mut StdRng| MajProposal {
        value: value(rng),
        epoch: rng.gen_range(0u64..9),
        sig: sig(rng, chain),
    };
    let vote = |rng: &mut StdRng| MajVote {
        value: value(rng),
        epoch: rng.gen_range(0u64..9),
        sig: sig(rng, chain),
    };
    w.tagged(MajorityMsg::Propose(prop(rng)));
    w.tagged(MajorityMsg::ForwardProp(prop(rng)));
    w.tagged(MajorityMsg::Vote(vote(rng)));
    w.tagged(MajorityMsg::CommitCert((0..3).map(|_| vote(rng)).collect()));
    w.tagged(MajorityMsg::Done(vote(rng)));
}

fn strawman(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    w.msg(gcl_core::strawman::OneRoundMsg(value(rng)));
    w.tagged(EarlyMsg::Propose(value(rng)));
    w.tagged(EarlyMsg::Vote(signed_value(rng, chain)));
}

fn fab(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    let vc = |rng: &mut StdRng| FabViewChange {
        view: view(rng),
        voted: rng.gen::<bool>().then(|| value(rng)),
        sig: sig(rng, chain),
    };
    let prop = FabProposal {
        value: value(rng),
        view: view(rng),
        sig: sig(rng, chain),
        proof: (0..2).map(|_| vc(rng)).collect(),
    };
    w.tagged(FabMsg::Propose(prop));
    w.tagged(FabMsg::Vote(phase_vote(rng, chain)));
    w.tagged(FabMsg::ViewChange(vc(rng)));
}

fn pbft(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    let prop = phase_vote(rng, chain);
    let proof = (0..2).map(|_| view_change(rng, chain)).collect();
    w.tagged(PbftMsg::Propose { prop, proof });
    w.tagged(PbftMsg::Prepare(phase_vote(rng, chain)));
    w.tagged(PbftMsg::Commit(phase_vote(rng, chain)));
    w.tagged(PbftMsg::CommitBundle(
        (0..3).map(|_| phase_vote(rng, chain)).collect(),
    ));
    w.tagged(PbftMsg::ViewChange(view_change(rng, chain)));
    w.tagged(PbftMsg::ViewChangeBundle(
        (0..2).map(|_| view_change(rng, chain)).collect(),
    ));
}

fn vbb(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    for variant in 0..6 {
        w.tagged(vbb_msg(rng, chain, variant));
    }
    for shape in 0..3 {
        w.tagged(proof(rng, chain, shape));
    }
    for second in [false, true] {
        w.tagged(certificate(rng, chain, second));
        w.tagged(timeout_msg(rng, chain, second));
    }
}

fn smr(rng: &mut StdRng, chain: &Keychain, w: &mut Wire) {
    let slot = SlotId::new(rng.gen_range(0u64..100));
    let variant = rng.gen_range(0u32..6);
    let inner = vbb_msg(rng, chain, variant);
    w.tagged(SmrMsg::Slot { slot, inner });
    let cmds: Vec<Value> = (0..rng.gen_range(0usize..8)).map(|_| value(rng)).collect();
    let batch = Batch::Commands(cmds);
    w.tagged(batch.clone());
    w.tagged(SmrMsg::Payload { slot, batch });
    w.tagged(SmrMsg::PayloadPull { slot });
    w.tagged(SmrMsg::Submit { cmd: value(rng) });
    let cmd = value(rng);
    w.tagged(SmrMsg::Ack { cmd, slot });
    w.tagged(SmrMsg::Reject { cmd: value(rng) });
}

fn flood(rng: &mut StdRng, _: &Keychain, w: &mut Wire) {
    w.msg(value(rng));
}

/// The wire format, pinned: SHA-256 over the encodings of one seeded
/// instance of every variant of every family message, recorded before the
/// enum codecs became `wire_enum!` expansions. A change here is a format
/// change — every tag value and field order is part of the constant.
/// Re-pinned once when the end-of-log `Batch` (tag 1) was retired: the
/// previous stream with that batch and its `Payload` frame (11 bytes) cut
/// out hashes to the constant below.
#[test]
fn golden_wire_bytes() {
    let (mut rng, chain, mut w) = (StdRng::seed_from_u64(15), chain(), Wire::default());
    for generate in FAMILIES {
        generate(&mut rng, &chain, &mut w);
    }
    let hex: String = Digest::of(w.0.as_slice())
        .as_bytes()
        .iter()
        .map(|b| format!("{b:02x}"))
        .collect();
    assert_eq!(
        hex,
        "a8ad2fc1cab3810a0339eb728b4f8ff2696bbffc5bd78150cb5bedf67ecc91bd",
        "{} bytes hashed",
        w.0.len()
    );
}

/// One table for both consumers: each row is a property test running its
/// generator under 48 seeds, and the generators in row order are what
/// [`golden_wire_bytes`] hashes.
macro_rules! families {
    ($($test:ident => $generate:ident),+ $(,)?) => {
        const FAMILIES: &[Family] = &[$($generate),+];
        proptest! {
            #![proptest_config(ProptestConfig::with_cases(48))]
            $(
                #[test]
                fn $test(seed: u64) {
                    $generate(&mut StdRng::seed_from_u64(seed), &chain(), &mut Wire::default());
                }
            )+
        }
    };
}

families! {
    brb2_messages => brb2,
    bracha_messages => bracha,
    dolev_strong_and_ba_messages => dolev_strong_and_ba,
    bb_2delta_messages => bb_2delta,
    bb_sync_start_messages => bb_sync_start,
    bb_unsync_messages => bb_unsync,
    bb_third_messages => bb_third,
    bb_majority_messages => bb_majority,
    strawman_messages => strawman,
    fab_messages => fab,
    pbft_messages => pbft,
    vbb_messages => vbb,
    smr_messages => smr,
    flood_value_messages => flood,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn smr_client_frames_reject_truncation_and_bad_tags(seed: u64) {
        // The ack path hands client-addressed frames to an untrusted
        // socket reader: beyond the fixed hostile bytes of `Wire::msg`,
        // a *random* unclaimed tag and a random trailing byte must be
        // rejected outright.
        let mut rng = StdRng::seed_from_u64(seed);
        let slot = SlotId::new(rng.gen_range(0u64..100));
        let cmd = value(&mut rng);
        for full in [SmrMsg::Ack { cmd, slot }.to_wire(), SmrMsg::Reject { cmd }.to_wire()] {
            let mut bad = full.clone();
            bad[0] = rng.gen_range(7u8..=u8::MAX);
            prop_assert!(SmrMsg::from_wire(&bad).is_err(), "bad tag accepted");
            let mut trailing = full;
            trailing.push(rng.gen());
            prop_assert!(
                SmrMsg::from_wire(&trailing).is_err(),
                "trailing garbage accepted"
            );
        }
    }

    #[test]
    fn crypto_vocabulary(seed: u64) {
        let (mut rng, chain, mut w) = (StdRng::seed_from_u64(seed), chain(), Wire::default());
        w.msg(sig(&mut rng, &chain));
        w.msg(Digest::of(&rng.gen::<u64>()));
    }

    #[test]
    fn decoded_signatures_verify_not_just_compare(seed: u64) {
        // Byte-level fidelity: a signature that crosses the wire must
        // still pass PKI verification, which recomputes the MAC.
        let chain = chain();
        let mut rng = StdRng::seed_from_u64(seed);
        let payload = rng.gen::<u64>();
        let p = party(&mut rng);
        let s = chain.signer(p).sign(Digest::of(&payload));
        let back = Signature::from_wire(&s.to_wire()).expect("decodes");
        prop_assert!(chain.pki().verify(p, Digest::of(&payload), &back));
    }
}
