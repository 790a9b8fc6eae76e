//! A real (non-simulated) runtime: every party is a state machine behind
//! a Unix-domain socket, links carry injected latency, clocks are wall
//! clocks.
//!
//! # Two execution targets
//!
//! The workspace has two execution targets behind one scenario layer:
//!
//! * **`gcl_sim`** — the deterministic discrete-event simulator. δ and Δ
//!   are exact, executions replay bit-for-bit, and a million-event run
//!   costs milliseconds. Every *measured* number in the paper tables
//!   (Table 1, Figure 8, the throughput trajectory) comes from here.
//! * **[`AsyncBackend`]** (this crate) — the wall engine. The protocols in
//!   `gcl-core` are written against [`gcl_sim::Context`] and run
//!   **unmodified** here: real concurrency, real message races, real timer
//!   drift. Every message is *encoded to bytes, carried across a socket
//!   pair, and decoded on the far side* via the `gcl_types::wire` codec —
//!   there is no pointer fast path across the party boundary, so a
//!   committing run is end-to-end proof the family's message types survive
//!   serialization. All n parties are multiplexed over one readiness loop
//!   feeding a fixed worker pool (default `min(cores, 8)`): partial reads
//!   reassemble per-party, writes are backpressure-aware, timers live on a
//!   timer wheel, and thread count is O(workers), not O(n) — n = 1024
//!   parties run on a laptop.
//!
//! [`AsyncBackend`] implements [`gcl_sim::Backend`], so any
//! [`gcl_sim::ScenarioSpec`] admitted by a [`gcl_sim::ScenarioRegistry`]
//! runs on both targets:
//!
//! ```text
//! registry.run(&spec)                           // simulator (exact, fast)
//! registry.run_on(&spec, &AsyncBackend::new())  // real bytes, sockets and clocks
//! ```
//!
//! The spec's δ/jitter become injected per-link latencies, its skew
//! schedule becomes per-party start offsets, and its adversary mix becomes
//! muted or mid-run-crashing parties. Outcomes convert to the same
//! [`gcl_sim::Outcome`] audits (agreement, validity, commits) the
//! simulator reports, which is what the workspace's `net_conformance`
//! suite checks: every registered family commits the same value on both
//! targets.
//!
//! **When to trust which numbers:** wall-clock latencies from this crate
//! include scheduler jitter, codec and syscall overhead — treat them as
//! *evidence of liveness under real concurrency*, not as measurements of
//! δ-bounds. Pick spec bounds well above scheduler noise (milliseconds,
//! not the simulator's canonical 100 µs) so protocol timeouts (≥ 4Δ) stay
//! far from spurious firing. For exact good-case latency claims — `2δ` vs
//! `3δ` vs `Δ + 1.5δ` — use the simulator, where those quantities are the
//! model, not an estimate. [`gcl_sim::SchedCounters`] on a wall outcome
//! (workers, wakeups, peak outbound buffer) say how hard the readiness
//! loop actually worked.
//!
//! Runs exit as soon as every honest party terminates; the wall-clock
//! budget passed to [`AsyncBackend::deadline`] is only the fallback
//! horizon for executions where some honest party never can.
//!
//! # Examples
//!
//! ```
//! use gcl_net::AsyncBackend;
//! use gcl_types::Duration;
//!
//! let reg = gcl_core::registry();
//! // Millisecond-scale bounds: wall-clock noise is tiny next to them.
//! let spec = reg
//!     .spec("brb2")
//!     .unwrap()
//!     .with_bounds(Duration::from_millis(2), Duration::from_millis(20));
//! let outcome = reg.run_on(&spec, &AsyncBackend::new()).unwrap();
//! assert!(outcome.agreement_holds());
//! assert_eq!(outcome.committed_value(), Some(spec.input));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(unreachable_pub)]

mod async_backend;
mod engine;
mod wheel;

pub use async_backend::AsyncBackend;
pub use engine::ClientHandle;
