//! Cross-crate integration: the SMR engine over the simulator, and
//! failure injection through the registry on the wall engine.

use gcl::crypto::Keychain;
use gcl::net::AsyncBackend;
use gcl::sim::{AdversaryMix, FixedDelay, Simulation, TimingModel};
use gcl::smr::{Counter, KvStore, SlotEngine, SmrParams, StateMachine};
use gcl::types::{Config, Duration, GlobalTime, PartyId, Value};
use gcl_bench::conformance::wall_spec;
use parking_lot::Mutex;
use std::sync::Arc;

const DELTA: Duration = Duration::from_micros(100);

#[test]
fn smr_100_slots_replicate_identically() {
    let n = 4;
    let cfg = Config::new(n, 1).unwrap();
    let chain = Keychain::generate(n, 400);
    let workload: Vec<Value> = (1..=100).map(Value::new).collect();
    let machines: Vec<Arc<Mutex<Counter>>> = (0..n)
        .map(|_| Arc::new(Mutex::new(Counter::default())))
        .collect();
    let ms = machines.clone();
    let o = Simulation::build(cfg)
        .timing(TimingModel::PartialSynchrony {
            gst: GlobalTime::ZERO,
            big_delta: DELTA,
        })
        .oracle(FixedDelay::new(DELTA))
        .spawn_honest(move |p| {
            SlotEngine::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                DELTA,
                SmrParams {
                    batch: 1,
                    pipeline: 8,
                    ..SmrParams::default()
                },
                ms[p.as_usize()].clone(),
            )
            .with_workload(workload.clone())
        })
        .run();
    o.assert_agreement();
    assert!(o.all_honest_committed());
    for m in &machines {
        assert_eq!(m.lock().applied(), 100);
        assert_eq!(m.lock().total(), (1..=100).sum::<u64>());
    }
}

#[test]
fn smr_amortized_slot_latency_beats_pbft_three_rounds() {
    // With pipelining the 2-round engine sustains < 3 message delays per
    // decision — the practical payoff of the paper's psync result.
    let n = 4;
    let cfg = Config::new(n, 1).unwrap();
    let chain = Keychain::generate(n, 401);
    let slots = 50u64;
    let workload: Vec<Value> = (1..=slots).map(Value::new).collect();
    let o = Simulation::build(cfg)
        .timing(TimingModel::PartialSynchrony {
            gst: GlobalTime::ZERO,
            big_delta: DELTA,
        })
        .oracle(FixedDelay::new(DELTA))
        .spawn_honest(move |p| {
            SlotEngine::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                DELTA,
                SmrParams {
                    batch: 1,
                    pipeline: 8,
                    ..SmrParams::default()
                },
                Arc::new(Mutex::new(Counter::default())),
            )
            .with_workload(workload.clone())
        })
        .run();
    assert!(o.all_honest_committed());
    let per_slot = o.end_time().as_micros() / slots;
    assert!(
        per_slot < 3 * DELTA.as_micros(),
        "amortized {per_slot}us per slot should undercut 3 rounds"
    );
}

#[test]
fn smr_kv_under_byzantine_silence() {
    // n = 9, f = 2 silent replicas: the quorum path still commits.
    let n = 9;
    let cfg = Config::new(n, 2).unwrap();
    let chain = Keychain::generate(n, 402);
    let workload: Vec<Value> = (0..10u32).map(|i| KvStore::set(i, i * 10)).collect();
    let machines: Vec<Arc<Mutex<KvStore>>> = (0..n)
        .map(|_| Arc::new(Mutex::new(KvStore::default())))
        .collect();
    let ms = machines.clone();
    let mut b = Simulation::build(cfg)
        .timing(TimingModel::PartialSynchrony {
            gst: GlobalTime::ZERO,
            big_delta: DELTA,
        })
        .oracle(FixedDelay::new(DELTA));
    for i in [7u32, 8] {
        b = b.byzantine(PartyId::new(i), gcl::sim::Silent::new());
    }
    let o = b
        .spawn_honest(move |p| {
            SlotEngine::new(
                cfg,
                chain.signer(p),
                chain.pki(),
                DELTA,
                SmrParams {
                    batch: 1,
                    pipeline: 4,
                    ..SmrParams::default()
                },
                ms[p.as_usize()].clone(),
            )
            .with_workload(workload.clone())
        })
        .run();
    o.assert_agreement();
    let digest = machines[0].lock().state_digest();
    for m in machines.iter().take(7).skip(1) {
        assert_eq!(m.lock().state_digest(), digest);
    }
    assert_eq!(machines[0].lock().get(3), Some(30));
}

#[test]
fn crash_adversary_net_run_upholds_agreement() {
    // Failure injection on the wall engine: party 3 runs the honest BRB
    // code for two handled events, then crashes mid-run. The three live
    // honest parties must still commit the broadcaster's input.
    let reg = gcl_bench::registry();
    let spec = wall_spec(reg, "brb2").with_adversary(AdversaryMix::CrashAt {
        party: PartyId::new(3),
        handled: 2,
    });
    let o = reg
        .run_on(&spec, &AsyncBackend::new())
        .expect("spec admitted");
    assert!(!o.is_honest(PartyId::new(3)), "slot 3 is the crash slot");
    assert!(o.agreement_holds());
    assert!(o.all_honest_committed(), "f = 1 crash is tolerated");
    assert_eq!(o.committed_value(), Some(spec.input));
}
