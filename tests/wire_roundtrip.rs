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

use gcl_core::asynchrony::{BrachaMsg, Brb2Msg, SignedVote};
use gcl_core::dishonest::{MajProposal, MajVote, MajorityMsg};
use gcl_core::psync::{
    Certificate, LeaderSigned, PbftMsg, PbftProposal, PhaseVote, PreparedCert, Proof, StatusMsg,
    TimeoutMsg, VbbMsg, ViewChangeMsg, VoteMsg,
};
use gcl_core::strawman::{EarlyMsg, EarlyVote, FabMsg, FabProposal, FabViewChange, FabVote};
use gcl_core::sync::{
    BaMsg, DsMsg, DsRelay, Fig10Proposal, Fig10Vote, Fig5Commit, Fig5Proposal, Fig5Vote,
    Fig6Proposal, Fig6Vote, Fig9Proposal, Fig9Vote, SyncStartMsg, ThirdMsg, TwoDeltaMsg, UnsyncMsg,
};
use gcl_crypto::{Digest, EquivocationEvidence, Keychain, QuorumCert, Signature};
use gcl_smr::SmrMsg;
use gcl_types::{Batch, Decode, Duration, Encode, PartyId, SlotId, Value, View};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Debug;

/// One shared key universe: codecs only move bytes, so any valid
/// signatures do.
fn chain() -> Keychain {
    Keychain::generate(8, 0x117e_57a6)
}

fn round_trip<T: Encode + Decode + PartialEq + Debug>(msg: T) {
    let bytes = msg.to_wire();
    let back = T::from_wire(&bytes).expect("well-formed encoding must decode");
    prop_assert_eq!(back, msg);
}

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

fn leader_signed(rng: &mut StdRng, chain: &Keychain) -> LeaderSigned {
    LeaderSigned {
        value: value(rng),
        view: view(rng),
        leader_sig: sig(rng, chain),
    }
}

fn timeout_msg(rng: &mut StdRng, chain: &Keychain) -> TimeoutMsg {
    if rng.gen::<bool>() {
        TimeoutMsg::Bot {
            view: view(rng),
            sig: sig(rng, chain),
        }
    } else {
        TimeoutMsg::Val {
            ls: leader_signed(rng, chain),
            voter_sig: sig(rng, chain),
        }
    }
}

fn certificate(rng: &mut StdRng, chain: &Keychain) -> Certificate {
    if rng.gen::<bool>() {
        Certificate::Genesis
    } else {
        Certificate::Assembled {
            view: view(rng),
            entries: (0..rng.gen_range(0usize..4))
                .map(|_| timeout_msg(rng, chain))
                .collect(),
        }
    }
}

fn status(rng: &mut StdRng, chain: &Keychain) -> StatusMsg {
    StatusMsg {
        view: view(rng),
        cert: certificate(rng, chain),
        sig: sig(rng, chain),
    }
}

fn vbb_msg(rng: &mut StdRng, chain: &Keychain) -> VbbMsg {
    let votes = |rng: &mut StdRng, chain: &Keychain| VoteMsg {
        ls: leader_signed(rng, chain),
        voter_sig: sig(rng, chain),
    };
    match rng.gen_range(0u32..6) {
        0 => VbbMsg::Propose {
            ls: leader_signed(rng, chain),
            proof: match rng.gen_range(0u32..3) {
                0 => Proof::Bootstrap,
                1 => Proof::Cert(certificate(rng, chain)),
                _ => Proof::Statuses(
                    (0..rng.gen_range(0usize..3))
                        .map(|_| status(rng, chain))
                        .collect(),
                ),
            },
        },
        1 => VbbMsg::Vote(votes(rng, chain)),
        2 => VbbMsg::VoteBundle(
            (0..rng.gen_range(0usize..4))
                .map(|_| votes(rng, chain))
                .collect(),
        ),
        3 => VbbMsg::Timeout(timeout_msg(rng, chain)),
        4 => VbbMsg::TimeoutBundle(
            (0..rng.gen_range(0usize..4))
                .map(|_| timeout_msg(rng, chain))
                .collect(),
        ),
        _ => VbbMsg::Status(status(rng, chain)),
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn brb2_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        let vote = |rng: &mut StdRng| SignedVote { value: value(rng), sig: sig(rng, &chain) };
        round_trip(Brb2Msg::Propose(value(&mut rng)));
        round_trip(Brb2Msg::Vote(vote(&mut rng)));
        round_trip(Brb2Msg::Forward((0..3).map(|_| vote(&mut rng)).collect()));
    }

    #[test]
    fn bracha_messages(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        round_trip(BrachaMsg::Send(value(&mut rng)));
        round_trip(BrachaMsg::Echo(value(&mut rng)));
        round_trip(BrachaMsg::Ready(value(&mut rng)));
    }

    #[test]
    fn dolev_strong_and_ba_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        round_trip(DsMsg(relay(&mut rng, &chain)));
        round_trip(BaMsg(relay(&mut rng, &chain)));
    }

    #[test]
    fn bb_2delta_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        let vote = |rng: &mut StdRng| Fig10Vote { value: value(rng), sig: sig(rng, &chain) };
        round_trip(TwoDeltaMsg::Propose(Fig10Proposal {
            value: value(&mut rng),
            sig: sig(&mut rng, &chain),
        }));
        round_trip(TwoDeltaMsg::Vote(vote(&mut rng)));
        round_trip(TwoDeltaMsg::VoteBundle((0..2).map(|_| vote(&mut rng)).collect()));
        round_trip(TwoDeltaMsg::Ba(BaMsg(relay(&mut rng, &chain))));
    }

    #[test]
    fn bb_sync_start_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        let prop = |rng: &mut StdRng| Fig6Proposal { value: value(rng), sig: sig(rng, &chain) };
        let vote = |rng: &mut StdRng| Fig6Vote {
            d: duration(rng),
            prop: prop(rng),
            sig: sig(rng, &chain),
        };
        round_trip(SyncStartMsg::Propose(prop(&mut rng)));
        round_trip(SyncStartMsg::Vote(vote(&mut rng)));
        round_trip(SyncStartMsg::VoteBundle((0..2).map(|_| vote(&mut rng)).collect()));
        round_trip(SyncStartMsg::Ba(BaMsg(relay(&mut rng, &chain))));
    }

    #[test]
    fn bb_unsync_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        let prop = |rng: &mut StdRng| Fig9Proposal { value: value(rng), sig: sig(rng, &chain) };
        let vote = |rng: &mut StdRng| Fig9Vote {
            d: duration(rng),
            prop: prop(rng),
            sig: sig(rng, &chain),
        };
        round_trip(UnsyncMsg::Propose(prop(&mut rng)));
        round_trip(UnsyncMsg::Vote(vote(&mut rng)));
        round_trip(UnsyncMsg::VoteBundle((0..2).map(|_| vote(&mut rng)).collect()));
        round_trip(UnsyncMsg::Ba(BaMsg(relay(&mut rng, &chain))));
    }

    #[test]
    fn bb_third_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        let prop = |rng: &mut StdRng| Fig5Proposal { value: value(rng), sig: sig(rng, &chain) };
        let vote = |rng: &mut StdRng| Fig5Vote { prop: prop(rng), sig: sig(rng, &chain) };
        round_trip(ThirdMsg::Propose(prop(&mut rng)));
        round_trip(ThirdMsg::Vote(vote(&mut rng)));
        round_trip(ThirdMsg::VoteBundle((0..2).map(|_| vote(&mut rng)).collect()));
        round_trip(ThirdMsg::Commit(Fig5Commit {
            value: value(&mut rng),
            sig: sig(&mut rng, &chain),
        }));
        round_trip(ThirdMsg::Ba(BaMsg(relay(&mut rng, &chain))));
    }

    #[test]
    fn bb_majority_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        let prop = |rng: &mut StdRng| MajProposal {
            value: value(rng),
            epoch: rng.gen_range(0u64..9),
            sig: sig(rng, &chain),
        };
        let vote = |rng: &mut StdRng| MajVote {
            value: value(rng),
            epoch: rng.gen_range(0u64..9),
            sig: sig(rng, &chain),
        };
        round_trip(MajorityMsg::Propose(prop(&mut rng)));
        round_trip(MajorityMsg::ForwardProp(prop(&mut rng)));
        round_trip(MajorityMsg::Vote(vote(&mut rng)));
        round_trip(MajorityMsg::CommitCert((0..3).map(|_| vote(&mut rng)).collect()));
        round_trip(MajorityMsg::Done(vote(&mut rng)));
    }

    #[test]
    fn strawman_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        round_trip(gcl_core::strawman::OneRoundMsg(value(&mut rng)));
        round_trip(EarlyMsg::Propose(value(&mut rng)));
        round_trip(EarlyMsg::Vote(EarlyVote {
            value: value(&mut rng),
            sig: sig(&mut rng, &chain),
        }));
    }

    #[test]
    fn fab_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        let vc = |rng: &mut StdRng| FabViewChange {
            view: view(rng),
            voted: rng.gen::<bool>().then(|| value(rng)),
            sig: sig(rng, &chain),
        };
        round_trip(FabMsg::Propose(FabProposal {
            value: value(&mut rng),
            view: view(&mut rng),
            sig: sig(&mut rng, &chain),
            proof: (0..2).map(|_| vc(&mut rng)).collect(),
        }));
        round_trip(FabMsg::Vote(FabVote {
            value: value(&mut rng),
            view: view(&mut rng),
            sig: sig(&mut rng, &chain),
        }));
        round_trip(FabMsg::ViewChange(vc(&mut rng)));
    }

    #[test]
    fn pbft_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        round_trip(PbftMsg::Propose {
            prop: PbftProposal {
                value: value(&mut rng),
                view: view(&mut rng),
                sig: sig(&mut rng, &chain),
            },
            proof: (0..2).map(|_| view_change(&mut rng, &chain)).collect(),
        });
        round_trip(PbftMsg::Prepare(phase_vote(&mut rng, &chain)));
        round_trip(PbftMsg::Commit(phase_vote(&mut rng, &chain)));
        round_trip(PbftMsg::CommitBundle(
            (0..3).map(|_| phase_vote(&mut rng, &chain)).collect(),
        ));
        round_trip(PbftMsg::ViewChange(view_change(&mut rng, &chain)));
        round_trip(PbftMsg::ViewChangeBundle(
            (0..2).map(|_| view_change(&mut rng, &chain)).collect(),
        ));
    }

    #[test]
    fn vbb_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        for _ in 0..6 {
            round_trip(vbb_msg(&mut rng, &chain));
        }
    }

    #[test]
    fn smr_messages(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        let slot = SlotId::new(rng.gen_range(0u64..100));
        round_trip(SmrMsg::Slot {
            slot,
            inner: vbb_msg(&mut rng, &chain),
        });
        let cmds: Vec<Value> = (0..rng.gen_range(0usize..8))
            .map(|_| value(&mut rng))
            .collect();
        round_trip(SmrMsg::Payload {
            slot,
            batch: Batch::Commands(cmds),
        });
        round_trip(SmrMsg::Payload {
            slot,
            batch: Batch::Seal,
        });
        round_trip(SmrMsg::PayloadPull { slot });
        round_trip(SmrMsg::Submit {
            cmd: value(&mut rng),
        });
        round_trip(SmrMsg::Ack {
            cmd: value(&mut rng),
            slot,
        });
        round_trip(SmrMsg::Reject {
            cmd: value(&mut rng),
        });
    }

    #[test]
    fn smr_client_frames_reject_truncation_and_bad_tags(seed: u64) {
        // The ack path hands client-addressed frames to an untrusted
        // socket reader, so every strict prefix of a valid Ack/Reject
        // encoding must decode to an error (never panic, never a bogus
        // message), and an unknown leading tag must be rejected outright.
        let mut rng = StdRng::seed_from_u64(seed);
        let slot = SlotId::new(rng.gen_range(0u64..100));
        let frames = [
            SmrMsg::Ack {
                cmd: value(&mut rng),
                slot,
            }
            .to_wire(),
            SmrMsg::Reject {
                cmd: value(&mut rng),
            }
            .to_wire(),
        ];
        for full in &frames {
            for cut in 0..full.len() {
                prop_assert!(
                    SmrMsg::from_wire(&full[..cut]).is_err(),
                    "{cut}-byte prefix of a {}-byte frame decoded",
                    full.len()
                );
            }
            let mut bad = full.clone();
            bad[0] = rng.gen_range(7u8..=u8::MAX);
            prop_assert!(SmrMsg::from_wire(&bad).is_err(), "bad tag accepted");
            let mut trailing = full.clone();
            trailing.push(rng.gen());
            prop_assert!(
                SmrMsg::from_wire(&trailing).is_err(),
                "trailing garbage accepted"
            );
        }
    }

    #[test]
    fn flood_value_messages(seed: u64) {
        let mut rng = StdRng::seed_from_u64(seed);
        round_trip(value(&mut rng));
    }

    #[test]
    fn crypto_vocabulary(seed: u64) {
        let (mut rng, chain) = (StdRng::seed_from_u64(seed), chain());
        round_trip(sig(&mut rng, &chain));
        round_trip(Digest::of(&rng.gen::<u64>()));
        let d = Digest::of(&rng.gen::<u64>());
        let mut qc = QuorumCert::new(d);
        for i in 0..rng.gen_range(0u32..5) {
            qc.add(chain.signer(PartyId::new(i)).sign(d));
        }
        let bytes = qc.to_wire();
        let back = QuorumCert::from_wire(&bytes).expect("decodes");
        prop_assert_eq!(&back, &qc);
        prop_assert!(
            back.verify(&chain.pki(), qc.len()),
            "decoded signatures still verify"
        );
        let (d0, d1) = (Digest::of(&0u64), Digest::of(&1u64));
        let s = chain.signer(PartyId::new(2));
        let ev = EquivocationEvidence::new(d0, s.sign(d0), d1, s.sign(d1)).expect("equivocation");
        let back = EquivocationEvidence::from_wire(&ev.to_wire()).expect("decodes");
        prop_assert!(back.verify(&chain.pki()), "decoded evidence still convicts");
        prop_assert_eq!(back, ev);
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
