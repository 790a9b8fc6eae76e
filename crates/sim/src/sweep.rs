//! The parallel sweep engine: fan a grid of [`ScenarioSpec`] cells across
//! worker threads, deterministically.
//!
//! A [`Sweep`] takes a registry and a list of cells, derives per-cell
//! seeds from one base seed, and runs the cells on `threads` workers
//! (`std::sync::mpsc` channel aggregation, atomic work-stealing cursor). The
//! resulting [`SweepReport`] is **identical for identical (cells, base
//! seed)** regardless of thread count or scheduling: each cell is an
//! independent deterministic simulation, and results are re-assembled in
//! grid order. Only [`SweepReport::wall_ns`] (and the throughput derived
//! from it) reflects the machine; everything else is reproducible.
//!
//! # Examples
//!
//! ```
//! use gcl_sim::{
//!     Admission, Context, Protocol, ScenarioRegistry, ScenarioSpec, Sweep, ValidityMode,
//! };
//! use gcl_types::{PartyId, Value};
//!
//! struct Echo {
//!     input: Option<Value>,
//! }
//! impl Protocol for Echo {
//!     type Msg = Value;
//!     fn start(&mut self, ctx: &mut dyn Context<Value>) {
//!         if let Some(v) = self.input {
//!             ctx.multicast(v);
//!         }
//!     }
//!     fn on_message(&mut self, _f: PartyId, v: Value, ctx: &mut dyn Context<Value>) {
//!         ctx.commit(v);
//!         ctx.terminate();
//!     }
//! }
//!
//! let mut reg = ScenarioRegistry::new();
//! reg.register_fn(
//!     "echo",
//!     "flood",
//!     Admission::Any,
//!     ValidityMode::Broadcast,
//!     ScenarioSpec::asynchronous("echo", 4, 1),
//!     |spec, backend| {
//!         spec.run_protocol_on(backend, |p| Echo { input: spec.input_for(p) })
//!     },
//! );
//! let cells: Vec<_> = (4..8)
//!     .map(|n| ScenarioSpec::asynchronous("echo", n, 1))
//!     .collect();
//! let report = Sweep::new(&reg).cells(cells).threads(2).seed(7).run();
//! assert_eq!(report.cells.len(), 4);
//! assert_eq!(report.safety_violations().count(), 0);
//! ```

use crate::backend::{Backend, SimBackend};
use crate::scenario::{derive_cell_seed, ScenarioRegistry, ScenarioSpec};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::time::Instant;

/// The default execution target of a sweep.
static SIM_BACKEND: SimBackend = SimBackend::new();

/// The audited result of one grid cell. Every field is deterministic in
/// the cell's spec; two runs of the same sweep compare equal cell-by-cell.
#[derive(Debug, Clone, PartialEq)]
pub struct CellReport {
    /// The cell's spec (with its derived seed).
    pub spec: ScenarioSpec,
    /// `spec.label()`, precomputed for report rows.
    pub label: String,
    /// Whether every honest party committed.
    pub committed: bool,
    /// Good-case latency in µs (`None` when not all honest committed).
    pub latency_us: Option<u64>,
    /// Good-case commit round, where meaningful.
    pub rounds: Option<u32>,
    /// Events the runner processed.
    pub events: u64,
    /// Point-to-point messages sent.
    pub messages: u64,
    /// Event-queue high-water mark (memory-pressure proxy).
    pub peak_queue: u64,
    /// Whether agreement held (**false is a safety violation**).
    pub agreement: bool,
    /// Whether the family's validity audit passed.
    pub validity: bool,
    /// Why the cell was skipped (unknown family / out-of-band shape);
    /// skipped cells count as neither run nor violating.
    pub error: Option<String>,
}

impl CellReport {
    /// Whether this cell violated safety or validity.
    pub fn violating(&self) -> bool {
        !self.agreement || !self.validity
    }
}

/// The aggregate of one sweep run.
#[derive(Debug)]
pub struct SweepReport {
    /// Per-cell results, in grid order.
    pub cells: Vec<CellReport>,
    /// Worker threads used.
    pub threads: usize,
    /// Wall time of the whole sweep (machine-dependent; excluded from
    /// determinism comparisons).
    pub wall_ns: u64,
}

impl SweepReport {
    /// Cells that actually ran (spec admitted by its family).
    pub fn cells_run(&self) -> usize {
        self.cells.iter().filter(|c| c.error.is_none()).count()
    }

    /// Cells skipped as inadmissible.
    pub fn cells_skipped(&self) -> usize {
        self.cells.len() - self.cells_run()
    }

    /// Fraction of run cells in which every honest party committed.
    pub fn commit_rate(&self) -> f64 {
        let run = self.cells_run();
        if run == 0 {
            return 0.0;
        }
        let committed = self.cells.iter().filter(|c| c.committed).count();
        committed as f64 / run as f64
    }

    /// Cells where agreement was violated.
    pub fn safety_violations(&self) -> impl Iterator<Item = &CellReport> + '_ {
        self.cells.iter().filter(|c| !c.agreement)
    }

    /// Cells where the family's validity audit failed.
    pub fn validity_violations(&self) -> impl Iterator<Item = &CellReport> + '_ {
        self.cells.iter().filter(|c| !c.validity)
    }

    /// The `q`-quantile (0 ≤ q ≤ 1) of committed-cell latencies, µs
    /// (nearest-rank on the sorted latencies).
    pub fn latency_percentile(&self, q: f64) -> Option<u64> {
        let mut lat: Vec<u64> = self.cells.iter().filter_map(|c| c.latency_us).collect();
        if lat.is_empty() {
            return None;
        }
        lat.sort_unstable();
        let q = q.clamp(0.0, 1.0);
        let idx = ((lat.len() - 1) as f64 * q).round() as usize;
        Some(lat[idx])
    }

    /// Total simulator events across all cells.
    pub fn total_events(&self) -> u64 {
        self.cells.iter().map(|c| c.events).sum()
    }

    /// Total point-to-point messages across all cells.
    pub fn total_messages(&self) -> u64 {
        self.cells.iter().map(|c| c.messages).sum()
    }

    /// Largest per-cell event-queue high-water mark.
    pub fn max_peak_queue(&self) -> u64 {
        self.cells.iter().map(|c| c.peak_queue).max().unwrap_or(0)
    }

    /// Aggregate simulator events per wall-clock second (machine-dependent).
    pub fn events_per_sec(&self) -> f64 {
        self.total_events() as f64 * 1e9 / self.wall_ns.max(1) as f64
    }

    /// Whether two reports are identical on every deterministic field
    /// (everything except wall time and thread count).
    pub fn deterministic_eq(&self, other: &SweepReport) -> bool {
        self.cells == other.cells
    }
}

/// A configured sweep, ready to [`Sweep::run`].
pub struct Sweep<'a> {
    registry: &'a ScenarioRegistry,
    backend: &'a (dyn Backend + Sync),
    cells: Vec<ScenarioSpec>,
    threads: usize,
    seed: Option<u64>,
}

impl std::fmt::Debug for Sweep<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Sweep")
            .field("backend", &self.backend.name())
            .field("cells", &self.cells.len())
            .field("threads", &self.threads)
            .field("seed", &self.seed)
            .finish()
    }
}

impl<'a> Sweep<'a> {
    /// A sweep over `registry` with no cells and one thread, targeting the
    /// inline simulator.
    pub fn new(registry: &'a ScenarioRegistry) -> Self {
        Sweep {
            registry,
            backend: &SIM_BACKEND,
            cells: Vec::new(),
            threads: 1,
            seed: None,
        }
    }

    /// Retargets every cell onto `backend` (e.g. `gcl_net`'s
    /// `AsyncBackend`). Worker threads each drive full backend runs, so pick
    /// a thread budget with the backend's own worker pool in mind.
    /// Wall-clock cells are *not* deterministic in the spec —
    /// latency and event counts reflect the machine — but the audited
    /// agreement/validity columns still gate like simulator sweeps.
    #[must_use]
    pub fn backend(mut self, backend: &'a (dyn Backend + Sync)) -> Self {
        self.backend = backend;
        self
    }

    /// Appends many cells.
    #[must_use]
    pub fn cells(mut self, specs: impl IntoIterator<Item = ScenarioSpec>) -> Self {
        self.cells.extend(specs);
        self
    }

    /// Sets the worker-thread count (clamped to ≥ 1 and to the cell count).
    #[must_use]
    pub fn threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Re-seeds every cell deterministically from `base`: cell `i` gets
    /// `derive_cell_seed``(base, i)`. Without this, cells keep the seeds
    /// their specs carry.
    #[must_use]
    pub fn seed(mut self, base: u64) -> Self {
        self.seed = Some(base);
        self
    }

    /// Runs every cell across the worker threads and aggregates the
    /// report (cells in grid order, independent of scheduling).
    pub fn run(self) -> SweepReport {
        let Sweep {
            registry,
            backend,
            mut cells,
            threads,
            seed,
        } = self;
        if let Some(base) = seed {
            for (i, cell) in cells.iter_mut().enumerate() {
                cell.seed = derive_cell_seed(base, i as u64);
            }
        }
        let started = Instant::now();
        let threads = threads.min(cells.len()).max(1);
        let mut results: Vec<Option<CellReport>> = (0..cells.len()).map(|_| None).collect();
        if !cells.is_empty() {
            let cursor = AtomicUsize::new(0);
            let (tx, rx) = mpsc::channel::<(usize, CellReport)>();
            let specs: &[ScenarioSpec] = &cells;
            std::thread::scope(|scope| {
                for _ in 0..threads {
                    let tx = tx.clone();
                    let cursor = &cursor;
                    scope.spawn(move || loop {
                        let i = cursor.fetch_add(1, Ordering::Relaxed);
                        let Some(spec) = specs.get(i) else { break };
                        let report = run_cell(registry, backend, spec);
                        if tx.send((i, report)).is_err() {
                            break;
                        }
                    });
                }
                drop(tx);
                for (i, report) in rx.iter() {
                    results[i] = Some(report);
                }
            });
        }
        SweepReport {
            cells: results
                .into_iter()
                .map(|r| r.expect("every cell reports exactly once"))
                .collect(),
            threads,
            wall_ns: started.elapsed().as_nanos().min(u128::from(u64::MAX)) as u64,
        }
    }
}

/// Runs and audits one cell on the sweep's execution backend.
fn run_cell(registry: &ScenarioRegistry, backend: &dyn Backend, spec: &ScenarioSpec) -> CellReport {
    let label = spec.label();
    match registry.validate(spec) {
        Err(e) => CellReport {
            spec: spec.clone(),
            label,
            committed: false,
            latency_us: None,
            rounds: None,
            events: 0,
            messages: 0,
            peak_queue: 0,
            agreement: true,
            validity: true,
            error: Some(e.to_string()),
        },
        Ok(family) => {
            let o = family.run_on(spec, backend);
            CellReport {
                label,
                committed: o.all_honest_committed(),
                latency_us: o.good_case_latency().map(|d| d.as_micros()),
                rounds: o.good_case_rounds(),
                events: o.events_processed(),
                messages: o.messages_sent(),
                peak_queue: o.peak_queue_depth() as u64,
                agreement: o.agreement_holds(),
                validity: family.upholds_validity(spec, &o),
                error: None,
                spec: spec.clone(),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::context::{Context, Protocol};
    use crate::scenario::{Admission, ValidityMode};
    use gcl_types::{PartyId, Value};

    struct Flood {
        input: Option<Value>,
    }
    impl Protocol for Flood {
        type Msg = Value;
        fn start(&mut self, ctx: &mut dyn Context<Value>) {
            if let Some(v) = self.input {
                ctx.multicast(v);
            }
        }
        fn on_message(&mut self, _f: PartyId, v: Value, ctx: &mut dyn Context<Value>) {
            ctx.commit(v);
            ctx.terminate();
        }
    }

    fn registry() -> ScenarioRegistry {
        let mut reg = ScenarioRegistry::new();
        reg.register_fn(
            "flood",
            "flood",
            Admission::Brb,
            ValidityMode::Broadcast,
            ScenarioSpec::asynchronous("flood", 4, 1),
            |spec, backend| {
                spec.run_protocol_on(backend, |p| Flood {
                    input: spec.input_for(p),
                })
            },
        );
        reg
    }

    fn grid() -> Vec<ScenarioSpec> {
        let mut cells = Vec::new();
        for n in [4usize, 5, 7, 10] {
            for s in 0..4u64 {
                cells.push(ScenarioSpec::asynchronous("flood", n, (n - 1) / 3).with_seed(s));
            }
        }
        cells
    }

    #[test]
    fn sweep_is_deterministic_across_thread_counts() {
        let reg = registry();
        let a = Sweep::new(&reg).cells(grid()).threads(1).seed(42).run();
        let b = Sweep::new(&reg).cells(grid()).threads(4).seed(42).run();
        assert!(a.deterministic_eq(&b));
        assert_eq!(a.cells_run(), 16);
        assert_eq!(a.commit_rate(), 1.0);
        assert_eq!(a.safety_violations().count(), 0);
        assert_eq!(a.validity_violations().count(), 0);
        assert!(a.latency_percentile(0.5).is_some());
        assert!(a.total_events() > 0);
        assert!(a.total_messages() > 0);
        assert!(a.max_peak_queue() > 0);
        assert!(a.events_per_sec() > 0.0);
    }

    #[test]
    fn different_base_seed_changes_cell_seeds_only() {
        let reg = registry();
        let a = Sweep::new(&reg).cells(grid()).seed(1).run();
        let b = Sweep::new(&reg).cells(grid()).seed(2).run();
        assert_ne!(a.cells[0].spec.seed, b.cells[0].spec.seed);
        // Fixed-delay flood outcomes don't depend on the seed, so the
        // audited numbers still agree even though seeds moved.
        assert_eq!(a.cells[0].events, b.cells[0].events);
    }

    #[test]
    fn inadmissible_cells_skipped_not_violating() {
        let reg = registry();
        let report = Sweep::new(&reg)
            .cells([
                ScenarioSpec::asynchronous("flood", 4, 2), // outside 3f+1
                ScenarioSpec::asynchronous("absent", 4, 1),
                ScenarioSpec::asynchronous("flood", 4, 1),
            ])
            .run();
        assert_eq!(report.cells_run(), 1);
        assert_eq!(report.cells_skipped(), 2);
        assert_eq!(report.safety_violations().count(), 0);
        assert!(report.cells[0].error.as_deref().unwrap().contains("3f+1"));
        assert!(report.cells[1].error.as_deref().unwrap().contains("absent"));
        assert_eq!(report.commit_rate(), 1.0);
    }

    #[test]
    fn empty_sweep_is_well_formed() {
        let reg = registry();
        let report = Sweep::new(&reg).run();
        assert_eq!(report.cells.len(), 0);
        assert_eq!(report.commit_rate(), 0.0);
        assert_eq!(report.latency_percentile(0.9), None);
        assert_eq!(report.max_peak_queue(), 0);
    }
}
