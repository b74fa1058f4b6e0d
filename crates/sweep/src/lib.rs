//! Batch sweep runner: many-seed, many-configuration evidence.
//!
//! The engine is deterministic by construction and runs ~10⁴× faster than
//! real time, so the robustness claims of the paper's Figs. 4–6 — made
//! there from single trajectories of one seven-node testbed — can be
//! re-established as *statistics* over a scenario grid. This crate turns
//! the runtime into that statistics-producing system in three layers:
//!
//! * [`grid`] — the [`SweepGrid`] DSL: axes over `ScenarioBuilder` knobs
//!   (layout, VC count, star role counts, extra loss, detection
//!   parameters, reroute policy, capsule size, transfer slots)
//!   times seed replicates, expanded into a work-list of
//!   [`SweepCell`]s with stable per-cell seeds
//!   ([`evm_sim::derive_seed`]),
//! * [`executor`] — a work-stealing thread pool over std threads and
//!   channels ([`run_cells`] / [`run_indexed`]): each cell's `Engine` runs
//!   on its own core, results come back in cell order regardless of which
//!   worker finished first,
//! * [`report`] — the deterministic aggregator: per-cell [`CellStats`]
//!   folded into a [`SweepReport`] (mean/p50/p99 failover latency,
//!   loss-vs-regulation curves, deadline hit ratios, radio energy),
//!   rendered as byte-stable CSV and markdown.
//!
//! The contract pinned down by the cross-thread reproducibility suite:
//! for the same grid, a 1-thread and an N-thread run produce **identical
//! bytes** — every per-cell `RunResult` compares equal and the rendered
//! reports match exactly.
//!
//! ```
//! use evm_sweep::{run_cells, SweepGrid, SweepReport};
//! use evm_core::runtime::Scenario;
//! use evm_sim::SimDuration;
//!
//! let mut template = Scenario::baseline();
//! template.duration = SimDuration::from_secs(5);
//! let cells = SweepGrid::new(template)
//!     .over_loss(&[0.0, 0.2])
//!     .seeds_per_cell(2)
//!     .expand();
//! assert_eq!(cells.len(), 4);
//! let results = run_cells(&cells, 2);
//! let report = SweepReport::build(&cells, &results);
//! assert_eq!(report.rows.len(), 2); // one row per config, pooled over seeds
//! ```

#![forbid(unsafe_code)]

pub mod executor;
pub mod grid;
pub mod report;

pub use executor::{available_threads, run_cells, run_cells_checked, run_indexed};
pub use grid::{CellConfig, StarShape, SweepCell, SweepGrid};
pub use report::{CellStats, SweepReport, SweepRow, VcCellStats, VcRow};
