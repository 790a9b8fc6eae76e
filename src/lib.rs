//! # gcl — Good-case Latency of Byzantine Broadcast
//!
//! A complete, runnable reproduction of *"Good-case Latency of Byzantine
//! Broadcast: A Complete Categorization"* (Abraham, Nayak, Ren, Xiang —
//! PODC 2021): every protocol, every baseline, every lower-bound execution,
//! and the measurement harness that regenerates Table 1 and the figures.
//!
//! This facade re-exports the workspace crates:
//!
//! * [`types`] — ids, values, clocks, resilience configuration.
//! * [`crypto`] — SHA-256, PKI, signatures, memoized verification.
//! * [`sim`] — the deterministic discrete-event execution substrate.
//! * [`core`] — the broadcast protocols (async / psync / sync / dishonest
//!   majority), strawmen, and lower-bound executions.
//! * [`smr`] — BFT state machine replication on the 2-round engine.
//! * [`net`] — the wall engine: framed bytes over socket pairs, real clocks.
//!
//! # Quickstart
//!
//! ```
//! use gcl::core::asynchrony::TwoRoundBrb;
//! use gcl::crypto::Keychain;
//! use gcl::sim::{FixedDelay, Simulation, TimingModel};
//! use gcl::types::{Config, Duration, PartyId, Value};
//!
//! let cfg = Config::new(4, 1)?;
//! let chain = Keychain::generate(4, 7);
//! let outcome = Simulation::build(cfg)
//!     .timing(TimingModel::Asynchrony)
//!     .oracle(FixedDelay::new(Duration::from_micros(50)))
//!     .spawn_honest(|p| {
//!         TwoRoundBrb::new(cfg, chain.signer(p), chain.pki(), PartyId::new(0),
//!                          (p == PartyId::new(0)).then_some(Value::new(1)))
//!     })
//!     .run();
//! assert_eq!(outcome.good_case_rounds(), Some(2)); // the tight bound
//! # Ok::<(), gcl::types::ConfigError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

pub use gcl_core as core;
pub use gcl_crypto as crypto;
pub use gcl_net as net;
pub use gcl_sim as sim;
pub use gcl_smr as smr;
pub use gcl_types as types;
