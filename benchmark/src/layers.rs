//! Per-layer numbers, measured from outside: short microbenchmarks that
//! time calls into each crate's public functions, the table of every
//! per-layer metric the traced run reports, and the share model that
//! splits a simulator run's wall time between queue, crypto and the rest.
//!
//! A layer is a workspace crate. Microbenchmarks are workload-independent
//! (the cost of one SHA-256 block does not depend on who asks), so every
//! traced run measures all of them; observations that only a workload's
//! own runs can give (event counts, scheduler wake-ups, where a request's
//! time went) read 0 on workloads that never enter that layer.

use crate::service::WALL_DELTA;
use crate::workloads::{self, Measurement};
use crate::{grid, host, stats};
use gcl_crypto::{Digest, Keychain, Sha256, Verifier, Verify};
use gcl_net::AsyncBackend;
use gcl_sim::{ScenarioSpec, Sweep};
use gcl_smr::{Mempool, SmrMsg};
use gcl_types::{Batch, Decode, Duration as SimDuration, Encode, PartyId, SlotId, Value};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// `(name, unit, better)` of every per-layer metric, in report order.
/// `BENCHMARK.json` lists exactly these (a unit test holds them together).
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    // gcl_types: the wire codec.
    ("types.encode_ns_per_msg", "ns", "lower"),
    ("types.decode_ns_per_msg", "ns", "lower"),
    ("types.bytes_per_msg", "bytes", "lower"),
    // gcl_crypto.
    ("crypto.sha256_ns_per_kib", "ns", "lower"),
    ("crypto.sign_ns", "ns", "lower"),
    ("crypto.pki_verify_ns", "ns", "lower"),
    ("crypto.verifier_hit_ns_t1", "ns", "lower"),
    ("crypto.verifier_hit_ns_tn", "ns", "lower"),
    ("crypto.keychain_gen_ms_n1024", "ms", "lower"),
    ("crypto.verify_macs", "count", "lower"),
    ("crypto.verify_hits", "count", "higher"),
    // gcl_sim.
    ("sim.queue_ns_per_event_d1", "ns", "lower"),
    ("sim.queue_ns_per_event_d100", "ns", "lower"),
    ("sim.run_ns_per_event", "ns", "lower"),
    ("sim.small_run_us", "us", "lower"),
    ("sim.sweep_us_per_cell", "us", "lower"),
    ("sim.sweep_par_eff", "ratio", "higher"),
    ("sim.events", "count", "lower"),
    ("sim.messages", "count", "lower"),
    ("sim.drops_at_enqueue", "count", "higher"),
    ("sim.peak_queue_depth", "count", "lower"),
    ("sim.queue_bytes", "bytes", "lower"),
    ("sim.grid_checksum", "count", "lower"),
    ("sim.good_case_latency_us.dolev_strong", "us", "lower"),
    ("sim.good_case_latency_us.brb2", "us", "lower"),
    ("sim.good_case_latency_us.vbb5f1", "us", "lower"),
    ("sim.good_case_latency_us.pbft3", "us", "lower"),
    ("sim.good_case_latency_us.bb_majority", "us", "lower"),
    // gcl_core: handler + verify self time per event, an estimate.
    ("core.ns_per_event.dolev_strong", "ns", "lower"),
    ("core.ns_per_event.brb2", "ns", "lower"),
    ("core.ns_per_event.vbb5f1", "ns", "lower"),
    ("core.ns_per_event.pbft3", "ns", "lower"),
    ("core.ns_per_event.bb_majority", "ns", "lower"),
    // gcl_smr.
    ("smr.mempool_submit_ns", "ns", "lower"),
    ("smr.mempool_take_batch_ns_per_cmd", "ns", "lower"),
    ("smr.mempool_mark_committed_ns", "ns", "lower"),
    ("smr.sim_ns_per_cmd", "ns", "lower"),
    ("smr.clean_ref_cmds_per_s", "1/s", "higher"),
    ("smr.cmds_per_slot", "count", "higher"),
    ("smr.noop_slots", "count", "lower"),
    ("smr.submit_to_apply_ms", "ms", "lower"),
    ("smr.apply_to_ack_ms", "ms", "lower"),
    ("smr.mp_rejected", "count", "lower"),
    ("smr.mp_requeued", "count", "lower"),
    // gcl_net.
    ("net.ns_per_msg", "ns", "lower"),
    ("net.messages", "count", "lower"),
    ("net.user_cpu_s", "s", "lower"),
    ("net.sys_cpu_s", "s", "lower"),
    ("net.wakeups", "count", "lower"),
    ("net.peak_outbound_bytes", "bytes", "lower"),
    ("net.workers", "count", "higher"),
    ("net.run_minus_commit_ms", "ms", "lower"),
    ("net.commit_over_floor", "ratio", "lower"),
    ("net.drain_tail_ms", "ms", "lower"),
    // The load generator itself.
    ("client.late_p99_us", "us", "lower"),
    ("client.ack_p99_ms", "ms", "lower"),
    ("client.ack_max_ms", "ms", "lower"),
    ("client.submits_per_s", "1/s", "higher"),
    ("client.unavailable_ms", "ms", "lower"),
    // The process. Demoted from end-to-end: on `wall_flood_n1024` it is a
    // maximum over ~20 runs' in-flight frames and spread 0.24 over ten runs.
    ("host.peak_rss_mb", "MB", "lower"),
    // Derived in the traced run; est_share.* is a model, not a measurement.
    ("trace.self_s.harness", "s", "lower"),
    ("trace.self_s.program", "s", "lower"),
    ("est_share.queue", "ratio", "lower"),
    ("est_share.crypto", "ratio", "lower"),
    ("est_share.rest", "ratio", "lower"),
    ("trace_overhead_frac", "ratio", "lower"),
];

/// Per-layer counts that must repeat bit for bit for a fixed seed.
pub const EXACT: &[&str] = &[
    "crypto.verify_macs",
    "crypto.verify_hits",
    "sim.events",
    "sim.messages",
    "sim.drops_at_enqueue",
    "sim.peak_queue_depth",
    "sim.queue_bytes",
    "sim.grid_checksum",
    "sim.good_case_latency_us.dolev_strong",
    "sim.good_case_latency_us.brb2",
    "sim.good_case_latency_us.vbb5f1",
    "sim.good_case_latency_us.pbft3",
    "sim.good_case_latency_us.bb_majority",
    "net.messages",
];

/// The families whose handler cost `core.ns_per_event.*` estimates, at
/// their n = 64 shapes.
const CORE_FAMILIES: [(&str, usize, usize); 5] = [
    ("dolev_strong", 64, 21),
    ("brb2", 64, 21),
    ("vbb5f1", 64, 13),
    ("pbft3", 64, 21),
    ("bb_majority", 64, 32),
];

type Metrics = Vec<(String, f64)>;

fn ns_each(started: Instant, ops: usize) -> f64 {
    started.elapsed().as_nanos() as f64 / ops as f64
}

/// Median over `reps` timings of `f`, each in ns.
fn median_ns(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let started = Instant::now();
            f();
            started.elapsed().as_nanos() as f64
        })
        .collect();
    stats::median(&samples)
}

/// `gcl_types`: round-trip of a fixed message mix — a bare `Value`, a
/// `Signature` (the bulk of a slot vote), and the service's `Submit`,
/// `Payload` of 32 commands and `Ack`.
fn types_layer(seed: u64, out: &mut Metrics) {
    const ROUNDS: usize = 20_000;
    let chain = Keychain::generate(4, seed);
    let value = Value::new(seed | 1);
    let sig = chain.signer(PartyId::new(1)).sign(Digest::of(&value));
    let msgs = [
        SmrMsg::Submit { cmd: value },
        SmrMsg::Payload {
            slot: SlotId::new(7),
            batch: Batch::Commands((1..=32).map(Value::new).collect()),
        },
        SmrMsg::Ack {
            cmd: value,
            slot: SlotId::new(7),
        },
    ];
    let mut buf = Vec::with_capacity(1024);
    let started = Instant::now();
    for _ in 0..ROUNDS {
        buf.clear();
        black_box(&value).encode(&mut buf);
        black_box(&sig).encode(&mut buf);
        for m in &msgs {
            black_box(m).encode(&mut buf);
        }
        black_box(&buf);
    }
    let per_round = 2 + msgs.len();
    out.push((
        "types.encode_ns_per_msg".into(),
        ns_each(started, ROUNDS * per_round),
    ));
    out.push((
        "types.bytes_per_msg".into(),
        buf.len() as f64 / per_round as f64,
    ));
    let wire = buf.clone();
    let started = Instant::now();
    for _ in 0..ROUNDS {
        let mut input = black_box(wire.as_slice());
        black_box(Value::decode(&mut input).expect("own encoding"));
        black_box(gcl_crypto::Signature::decode(&mut input).expect("own encoding"));
        for _ in &msgs {
            black_box(SmrMsg::decode(&mut input).expect("own encoding"));
        }
        assert!(input.is_empty(), "the mix decodes exactly");
    }
    out.push((
        "types.decode_ns_per_msg".into(),
        ns_each(started, ROUNDS * per_round),
    ));
}

/// `gcl_crypto`: hashing, signing, uncached verification, cached
/// verification through the shared `Pki` lock (alone and contended), and
/// key generation at the n = 1024 workloads' size.
fn crypto_layer(seed: u64, out: &mut Metrics) {
    const OPS: usize = 20_000;
    const PAIRS: usize = 1_024;
    let block = vec![0xa5u8; 64 * 1024];
    let ns = median_ns(5, || {
        black_box(Sha256::digest(black_box(&block)));
    });
    out.push(("crypto.sha256_ns_per_kib".into(), ns / 64.0));

    let chain = Keychain::generate(16, seed);
    let digests: Vec<Digest> = (0..PAIRS as u64).map(|i| Digest::of(&i)).collect();
    let party = |i: usize| PartyId::new((i % 16) as u32);
    let signers: Vec<_> = (0..16).map(|i| chain.signer(party(i))).collect();
    let started = Instant::now();
    for i in 0..OPS {
        black_box(signers[i % 16].sign(black_box(digests[i % PAIRS])));
    }
    out.push(("crypto.sign_ns".into(), ns_each(started, OPS)));

    let sigs: Vec<_> = (0..PAIRS)
        .map(|i| signers[i % 16].sign(digests[i]))
        .collect();
    let pki = chain.pki();
    let started = Instant::now();
    for i in 0..OPS {
        let k = i % PAIRS;
        assert!(pki.verify(party(k), digests[k], black_box(&sigs[k])));
    }
    out.push(("crypto.pki_verify_ns".into(), ns_each(started, OPS)));

    // Cached path: every lookup is a hit in the `Pki`-shared map, taken
    // through its mutex. One thread, then one per core on the same `Pki`.
    let hits = |threads: usize| -> f64 {
        const HITS: usize = 200_000;
        let warm = Verifier::new(chain.pki());
        for k in 0..PAIRS {
            assert!(warm.verify(party(k), digests[k], &sigs[k]));
        }
        let started = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..threads {
                scope.spawn(|| {
                    let v = Verifier::new(chain.pki());
                    for i in 0..HITS {
                        let k = i % PAIRS;
                        assert!(v.verify(party(k), digests[k], black_box(&sigs[k])));
                    }
                });
            }
        });
        ns_each(started, HITS)
    };
    out.push(("crypto.verifier_hit_ns_t1".into(), hits(1)));
    out.push(("crypto.verifier_hit_ns_tn".into(), hits(host::nproc())));

    let ns = median_ns(3, || {
        black_box(Keychain::generate(1024, black_box(seed)));
    });
    out.push(("crypto.keychain_gen_ms_n1024".into(), ns / 1e6));
}

/// One simulator run of `spec`: `(median wall ns, events, latency µs)`.
fn sim_run(spec: &ScenarioSpec, reps: usize) -> (f64, u64, u64) {
    let reg = gcl_bench::registry();
    let mut events = 0;
    let mut latency = 0;
    let ns = median_ns(reps, || {
        let o = reg.run(spec).expect("pinned spec is admissible");
        events = o.events_processed();
        latency = o.good_case_latency().map_or(0, |d| d.as_micros());
    });
    (ns, events, latency)
}

/// `gcl_sim` and `gcl_core`: the raw event queue, a run that is all
/// set-up, sweep scaling across cores, and per-family handler cost as the
/// family's ns/event minus flood's at the same n.
fn sim_and_core_layers(seed: u64, out: &mut Metrics) {
    const EVENTS: usize = 1_000_000;
    for (name, delta_us) in [
        ("sim.queue_ns_per_event_d1", 1),
        ("sim.queue_ns_per_event_d100", 100),
    ] {
        let ns = median_ns(3, || {
            black_box(gcl_sim::queue_stress(EVENTS, delta_us));
        });
        out.push((name.into(), ns / EVENTS as f64));
    }

    let reg = gcl_bench::registry();
    let spec = |family: &str, n, f| {
        reg.spec(family)
            .expect("family is registered")
            .with_shape(n, f)
            .with_seed(seed)
    };
    let (small_ns, _, _) = sim_run(&spec("flood", 4, 1), 2_000);
    out.push(("sim.small_run_us".into(), small_ns / 1e3));

    let cells = grid::cells(reg);
    let cells_per_s = |threads: usize| {
        let ns = median_ns(3, || {
            let report = Sweep::new(reg)
                .cells(cells.clone())
                .threads(threads)
                .seed(seed)
                .run();
            assert_eq!(report.cells_skipped(), 0, "pinned grid is admissible");
        });
        cells.len() as f64 * 1e9 / ns
    };
    let cores = host::nproc();
    let (one, all) = (cells_per_s(1), cells_per_s(cores));
    out.push(("sim.sweep_par_eff".into(), all / (cores as f64 * one)));

    let (flood_ns, flood_events, _) = sim_run(&spec("flood", 64, 21), 20);
    let floor = flood_ns / flood_events as f64;
    for (family, n, f) in CORE_FAMILIES {
        let (ns, events, latency_us) = sim_run(&spec(family, n, f), 7);
        out.push((
            format!("core.ns_per_event.{family}"),
            ns / events as f64 - floor,
        ));
        out.push((
            format!("sim.good_case_latency_us.{family}"),
            latency_us as f64,
        ));
    }
}

/// `gcl_smr`: the mempool's three hot calls, the engine's CPU per command
/// with the simulator as transport, and the fault-free (9,2) service rate
/// the failover workload is judged against.
fn smr_layer(seed: u64, out: &mut Metrics) {
    const CMDS: usize = 50_000;
    let mut pool = Mempool::new(1 << 16);
    let started = Instant::now();
    for i in 0..CMDS as u64 {
        pool.submit(black_box(Value::new(i + 1)))
            .expect("fresh commands are admitted");
    }
    out.push(("smr.mempool_submit_ns".into(), ns_each(started, CMDS)));
    let mut batches = Vec::new();
    let started = Instant::now();
    while let Some(batch) = pool.take_batch(32) {
        batches.push(batch);
    }
    out.push((
        "smr.mempool_take_batch_ns_per_cmd".into(),
        ns_each(started, CMDS),
    ));
    let started = Instant::now();
    for (slot, batch) in batches.iter().enumerate() {
        for &cmd in batch.commands() {
            black_box(pool.mark_committed(cmd, SlotId::new(slot as u64)));
        }
    }
    out.push((
        "smr.mempool_mark_committed_ns".into(),
        ns_each(started, CMDS),
    ));

    const SIM_CMDS: u64 = 10_000;
    let spec = gcl_bench::registry()
        .spec("smr")
        .expect("smr family is registered")
        .with_seed(seed)
        .with_workload(SIM_CMDS, 8);
    let (ns, _, _) = sim_run(&spec, 1);
    out.push(("smr.sim_ns_per_cmd".into(), ns / SIM_CMDS as f64));

    out.push((
        "smr.clean_ref_cmds_per_s".into(),
        workloads::clean_reference_cmds_per_s(seed, 0.7),
    ));
}

/// `gcl_net`: how far a wall commit sits above the 2δ′ the model promises
/// (`brb2` at (4,1)), and how long a run keeps draining after it has
/// committed (`brb2` at n = 256).
fn net_layer(seed: u64, out: &mut Metrics) {
    let reg = gcl_bench::registry();
    let backend = AsyncBackend::new().deadline(Duration::from_secs(60));
    let spec = |n: usize, big_ms: u64| {
        reg.spec("brb2")
            .expect("brb2 is registered")
            .with_shape(n, 1)
            .with_bounds(WALL_DELTA, SimDuration::from_millis(big_ms))
            .with_seed(seed)
    };
    let small = spec(4, 20);
    let ratios: Vec<f64> = (0..5)
        .filter_map(|_| {
            let o = reg.run_on(&small, &backend).ok()?;
            let commit = o.good_case_latency()?.as_micros() as f64;
            Some(commit / (2.0 * WALL_DELTA.as_micros() as f64))
        })
        .collect();
    if !ratios.is_empty() {
        out.push(("net.commit_over_floor".into(), stats::median(&ratios)));
    }
    let big = spec(256, 5_000);
    let started = Instant::now();
    if let Ok(o) = reg.run_on(&big, &backend) {
        let wall_us = started.elapsed().as_micros() as f64;
        if let Some(commit) = o.good_case_latency() {
            out.push((
                "net.drain_tail_ms".into(),
                (wall_us - commit.as_micros() as f64) / 1e3,
            ));
        }
    }
}

/// Runs every layer microbenchmark.
pub fn microbenchmarks(seed: u64) -> Metrics {
    let mut out = Metrics::new();
    types_layer(seed, &mut out);
    crypto_layer(seed, &mut out);
    sim_and_core_layers(seed, &mut out);
    smr_layer(seed, &mut out);
    net_layer(seed, &mut out);
    out
}

/// The share model of a simulator run: events × queue cost and MACs ×
/// verify cost + hits × hit cost, over `call_ns`, the typical wall time of
/// one call into the simulator (for the sweep one pass, whose event count
/// is likewise a whole pass's); the rest is
/// handlers, routing and set-up. Zero shares where a workload has no
/// event or crypto counts.
pub fn share_model(m: &Measurement, micro: &Metrics, call_ns: f64) -> Metrics {
    let cost = |name: &str| {
        micro
            .iter()
            .find(|(k, _)| k == name)
            .map_or(0.0, |(_, v)| *v)
    };
    let count = |name: &str| m.exact.get(name).copied().unwrap_or(0) as f64;
    // `queue_stress` mixes in far-future pushes a broadcast run never
    // makes, so the cheaper of its two timings is the closer stand-in.
    let queue_ns = cost("sim.queue_ns_per_event_d1").min(cost("sim.queue_ns_per_event_d100"));
    let (queue, crypto) = if call_ns > 0.0 {
        (
            count("sim.events") * queue_ns / call_ns,
            (count("crypto.verify_macs") * cost("crypto.pki_verify_ns")
                + count("crypto.verify_hits") * cost("crypto.verifier_hit_ns_t1"))
                / call_ns,
        )
    } else {
        (0.0, 0.0)
    };
    vec![
        ("est_share.queue".into(), queue),
        ("est_share.crypto".into(), crypto),
        ("est_share.rest".into(), 1.0 - queue - crypto),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    #[test]
    fn benchmark_json_lists_exactly_these_layer_metrics() {
        let doc = Json::parse(include_str!("../../BENCHMARK.json")).expect("parses");
        let listed: Vec<(String, String, String)> = doc
            .get("per_layer")
            .and_then(Json::as_arr)
            .expect("per_layer array")
            .iter()
            .map(|m| {
                let field = |k: &str| m.get(k).and_then(Json::as_str).expect(k).to_string();
                (field("name"), field("unit"), field("better"))
            })
            .collect();
        let ours: Vec<(String, String, String)> = PER_LAYER
            .iter()
            .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
            .collect();
        assert_eq!(listed, ours);
        for name in EXACT {
            assert!(PER_LAYER.iter().any(|(n, _, _)| n == name), "{name}");
        }
    }

    #[test]
    fn the_share_model_accounts_for_the_whole_run() {
        let mut m = Measurement::default();
        m.exact.insert("sim.events", 10_000);
        m.exact.insert("crypto.verify_macs", 100);
        m.exact.insert("crypto.verify_hits", 1_000);
        let micro = vec![
            ("sim.queue_ns_per_event_d1".to_string(), 40.0),
            ("sim.queue_ns_per_event_d100".to_string(), 30.0),
            ("crypto.pki_verify_ns".to_string(), 500.0),
            ("crypto.verifier_hit_ns_t1".to_string(), 50.0),
        ];
        let shares = share_model(&m, &micro, 1_000_000.0);
        assert!((shares[0].1 - 0.3).abs() < 1e-12);
        assert!((shares[1].1 - 0.1).abs() < 1e-12);
        let total: f64 = shares.iter().map(|(_, v)| v).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
