//! BFT state machine replication on the 2-round psync-VBB engine.
//!
//! The paper motivates good-case latency through Primary-Backup SMR: "each
//! view in BFT SMR is similar to an instance of broadcast with the leader
//! taking the role of the broadcaster" (Section 1), and its companion
//! paper \[5\] turns the `(5f−1)`-psync-VBB into a practical BFT SMR. This
//! crate is that extension in miniature: a [`SlotEngine`] multiplexes one
//! [`gcl_core::psync::VbbFiveFMinusOne`] instance per log slot, applies
//! committed batches in order to a replicated [`StateMachine`], and keeps a
//! configurable number of slots in flight (pipelining).
//!
//! Each slot decides one [`gcl_types::Batch`] of client commands drawn
//! from the leader's [`Mempool`], so the broadcast's 2-round good case is
//! amortized across the whole batch: SMR *decision latency* in the steady
//! state is exactly the paper's good-case latency, and throughput scales
//! with the batch size.
//!
//! # Termination
//!
//! The log carries no end-of-log marker. A replica stops by **quiesce** —
//! `quiesce_after` consecutive no-op slots at the applied frontier, the
//! trace of an idle service or of a crashed or silent leader once
//! followers time its slots out — and reports its state digest as its
//! commit. A replica given a finite workload
//! ([`SlotEngine::with_workload`], which pre-admits the commands into the
//! same serving engine) also stops as soon as it has applied all of them:
//! a local observation that sends nothing and spends no slot. Both are
//! functions of the applied prefix, so replicas that agree on the log stop
//! at the same digest.
//!
//! # Examples
//!
//! ```
//! use gcl_smr::{Counter, SlotEngine, SmrParams, StateMachine};
//! use gcl_crypto::Keychain;
//! use gcl_sim::{FixedDelay, Simulation, TimingModel};
//! use gcl_types::{Config, Duration, GlobalTime, PartyId, Value};
//! use std::sync::Arc;
//! use parking_lot::Mutex;
//!
//! let cfg = Config::new(4, 1)?;
//! let chain = Keychain::generate(4, 11);
//! let delta = Duration::from_micros(100);
//! let workload: Vec<Value> = (1..=5).map(Value::new).collect();
//! let params = SmrParams { batch: 2, pipeline: 2, ..SmrParams::default() };
//! let machines: Vec<Arc<Mutex<Counter>>> =
//!     (0..4).map(|_| Arc::new(Mutex::new(Counter::default()))).collect();
//! let ms = machines.clone();
//! let outcome = Simulation::build(cfg)
//!     .timing(TimingModel::PartialSynchrony { gst: GlobalTime::ZERO, big_delta: delta })
//!     .oracle(FixedDelay::new(delta))
//!     .spawn_honest(move |p| {
//!         SlotEngine::new(cfg, chain.signer(p), chain.pki(), delta,
//!                         params, ms[p.as_usize()].clone())
//!             .with_workload(workload.clone())
//!     })
//!     .run();
//! assert!(outcome.agreement_holds());
//! for m in &machines {
//!     assert_eq!(m.lock().total(), 1 + 2 + 3 + 4 + 5);
//! }
//! # Ok::<(), gcl_types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod engine;
mod machine;
mod mempool;

pub use engine::{SlotEngine, SmrMsg, SmrParams};
pub use machine::{Counter, KvStore, StateMachine};
pub use mempool::{AdmissionError, Mempool, MempoolStats};
