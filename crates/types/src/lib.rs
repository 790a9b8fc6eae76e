//! Common vocabulary types shared by every crate in the `gcl` workspace.
//!
//! This crate defines the identities, values, clocks and resilience
//! configuration used by the broadcast protocols of
//! *"Good-case Latency of Byzantine Broadcast: A Complete Categorization"*
//! (Abraham, Nayak, Ren, Xiang — PODC 2021).
//!
//! Everything here is deliberately small, `Copy` where possible, and free of
//! protocol logic: protocols live in `gcl-core`, the execution substrate in
//! `gcl-sim`.
//!
//! # Examples
//!
//! ```
//! use gcl_types::{Config, PartyId, Value};
//!
//! let cfg = Config::new(4, 1).unwrap();
//! assert_eq!(cfg.quorum(), 3); // n - f
//! assert!(cfg.supports_brb()); // n >= 3f + 1
//! let v = Value::new(42);
//! assert_eq!(v.as_u64(), 42);
//! let p: PartyId = PartyId::new(0);
//! assert!(cfg.parties().any(|q| q == p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod batch;
mod config;
mod error;
mod id;
mod time;
mod validity;
mod value;
pub(crate) mod wire;

pub use batch::Batch;
pub use config::Config;
pub use error::ConfigError;
pub use id::{PartyId, View};
pub use time::{Duration, GlobalTime, LocalTime, SkewSchedule};
pub use validity::{accept_all, ExternalValidity};
pub use value::{SlotId, Value};
pub use wire::{Decode, Encode, WireError, WireMsg};
