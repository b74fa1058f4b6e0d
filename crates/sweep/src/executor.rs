//! The work-stealing sweep executor.
//!
//! Std-only (threads + channels + one atomic): workers pull the next
//! unclaimed job index from a shared counter — a self-balancing queue
//! over a static work-list, which is all the stealing a sweep needs since
//! cells are independent and the list is fixed up front. Results are
//! reassembled **by job index**, so the output order (and therefore
//! everything aggregated from it) is independent of scheduling, core
//! count and completion order.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc;
use std::thread;

use evm_core::runtime::{Engine, TopologyError};
use evm_core::RunResult;

use crate::grid::SweepCell;

/// The machine's available parallelism (≥ 1).
#[must_use]
pub fn available_threads() -> usize {
    thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// Runs `f(index, &job)` for every job on a pool of `threads` workers and
/// returns the results **in job order**, regardless of which worker ran
/// what when. `threads` is clamped to `[1, jobs.len()]`; with one thread
/// the jobs run inline on the caller in index order.
///
/// # Panics
///
/// Propagates a panic from `f` after the scope joins its workers.
pub fn run_indexed<J, R, F>(jobs: &[J], threads: usize, f: F) -> Vec<R>
where
    J: Sync,
    R: Send,
    F: Fn(usize, &J) -> R + Sync,
{
    let threads = threads.max(1).min(jobs.len().max(1));
    if threads <= 1 {
        return jobs.iter().enumerate().map(|(i, j)| f(i, j)).collect();
    }
    let next = AtomicUsize::new(0);
    let (tx, rx) = mpsc::channel::<(usize, R)>();
    let mut out: Vec<Option<R>> = Vec::with_capacity(jobs.len());
    out.resize_with(jobs.len(), || None);
    thread::scope(|scope| {
        for _ in 0..threads {
            let tx = tx.clone();
            let next = &next;
            let f = &f;
            scope.spawn(move || loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= jobs.len() {
                    break;
                }
                // A closed channel means the collector is gone (a sibling
                // panicked); stop pulling work.
                if tx.send((i, f(i, &jobs[i]))).is_err() {
                    break;
                }
            });
        }
        drop(tx);
        for (i, r) in rx {
            out[i] = Some(r);
        }
    });
    out.into_iter()
        .map(|r| r.expect("every claimed job reports a result"))
        .collect()
}

/// Runs every cell's engine on the pool; results come back in cell order.
///
/// This is the sweep fast path: one `Engine` per cell, no mutable state
/// shared between cells (cells of one deployment key share only their
/// read-only deployment), per-cell seeds fixed at expansion time — so the
/// result vector is byte-identical across thread counts.
#[must_use]
pub fn run_cells(cells: &[SweepCell], threads: usize) -> Vec<RunResult> {
    run_indexed(cells, threads, |_, cell| {
        Engine::new(cell.scenario.clone()).run()
    })
}

/// Like [`run_cells`], but a cell that fails engine setup reports its
/// [`TopologyError`] in place instead of panicking the worker — one bad
/// cell (a hand-built spec, an out-of-range knob) fails alone and the
/// rest of the batch completes. Engine setup runs the whole setup check
/// ([`evm_core::runtime::check_setup`]) before it builds anything — only
/// its per-run stages when the cell carries a deployment that fits it —
/// so every scenario rule is reported here; `SweepGrid::expand` runs the
/// same check up front, so this is the belt for cells built or mutated
/// outside the grid DSL.
#[must_use]
pub fn run_cells_checked(
    cells: &[SweepCell],
    threads: usize,
) -> Vec<Result<RunResult, TopologyError>> {
    run_indexed(cells, threads, |_, cell| {
        Engine::try_new(cell.scenario.clone()).map(Engine::run)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;
    use std::time::Duration;

    #[test]
    fn results_come_back_in_job_order() {
        // Stagger job durations so late jobs finish first under
        // parallelism; order must still be positional.
        let jobs: Vec<u64> = (0..16).rev().collect();
        let out = run_indexed(&jobs, 4, |i, &ms| {
            thread::sleep(Duration::from_millis(ms));
            i * 10
        });
        assert_eq!(out, (0..16).map(|i| i * 10).collect::<Vec<_>>());
    }

    #[test]
    fn one_thread_and_many_threads_agree() {
        let jobs: Vec<u64> = (0..64).collect();
        let serial = run_indexed(&jobs, 1, |i, &x| (i as u64) * 1000 + x * x);
        let parallel = run_indexed(&jobs, 8, |i, &x| (i as u64) * 1000 + x * x);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let ran = Mutex::new(vec![0usize; 100]);
        let jobs: Vec<usize> = (0..100).collect();
        let _ = run_indexed(&jobs, 7, |i, _| {
            ran.lock().unwrap()[i] += 1;
        });
        assert!(ran.into_inner().unwrap().iter().all(|&n| n == 1));
    }

    #[test]
    fn degenerate_inputs() {
        let empty: Vec<u32> = Vec::new();
        assert!(run_indexed(&empty, 4, |_, &x| x).is_empty());
        // More threads than jobs is fine; so is zero requested threads.
        assert_eq!(run_indexed(&[5u32], 64, |_, &x| x + 1), vec![6]);
        assert_eq!(run_indexed(&[5u32, 6], 0, |_, &x| x + 1), vec![6, 7]);
    }

    #[test]
    fn available_threads_is_positive() {
        assert!(available_threads() >= 1);
    }

    /// One malformed cell reports its typed error in place; the rest of
    /// the batch still runs (the failure mode `run_cells` would escalate
    /// into a worker panic).
    #[test]
    fn checked_run_reports_bad_cells_in_place() {
        use evm_core::runtime::{Role, ScenarioBuilder};
        let template = ScenarioBuilder::minimal()
            .duration(evm_sim::SimDuration::from_secs(2))
            .build();
        let mut cells = crate::grid::SweepGrid::new(template)
            .over_loss(&[0.0, 0.1])
            .expand();
        cells[1]
            .scenario
            .topology
            .nodes
            .retain(|n| !matches!(n.role, Role::Controller(_)));
        let out = run_cells_checked(&cells, 2);
        assert!(out[0].is_ok());
        assert_eq!(
            out[1].as_ref().unwrap_err(),
            &TopologyError::MissingController(0)
        );
    }

    /// A scenario-level setup failure — here a topology hosting two VCs
    /// under a one-loop manifest — is reported in place too, not raised
    /// as a worker panic.
    #[test]
    fn checked_run_reports_setup_failures_in_place() {
        use evm_core::runtime::{Scenario, TopologySpec};
        let mut template = Scenario::baseline();
        template.duration = evm_sim::SimDuration::from_secs(2);
        let mut cells = crate::grid::SweepGrid::new(template)
            .over_loss(&[0.0, 0.1])
            .expand();
        cells[1].scenario.topology = TopologySpec::multi_star(2, 2, 2, 1, true, 15.0);
        let out = run_cells_checked(&cells, 2);
        assert!(out[0].is_ok());
        assert_eq!(
            out[1].as_ref().unwrap_err(),
            &TopologyError::ManifestMismatch {
                topology: 2,
                manifest: 1
            }
        );
    }

    /// A zero timing knob fails its own cell with a typed error; it used
    /// to panic the worker (here: a division by zero in setup).
    #[test]
    fn checked_run_reports_zero_timing_knobs_in_place() {
        use evm_core::runtime::Scenario;
        use evm_sim::SimDuration;
        let mut template = Scenario::fig5();
        template.duration = SimDuration::from_secs(2);
        let mut cells = crate::grid::SweepGrid::new(template)
            .over_loss(&[0.0, 0.1])
            .expand();
        cells[0].scenario.sample_every = SimDuration::ZERO;
        let out = run_cells_checked(&cells, 2);
        assert_eq!(
            out[0].as_ref().unwrap_err(),
            &TopologyError::ZeroTiming("sample_every")
        );
        assert!(out[1].is_ok());
    }

    /// Detector parameters out of range fail their own cells with typed
    /// errors; they used to pass the setup check and panic the worker
    /// inside the deviation detector.
    #[test]
    fn checked_run_reports_bad_detection_in_place() {
        use evm_core::runtime::Scenario;
        use evm_sim::SimDuration;
        let mut template = Scenario::fig5();
        template.duration = SimDuration::from_secs(2);
        let mut cells = crate::grid::SweepGrid::new(template)
            .over_loss(&[0.0, 0.1, 0.2])
            .expand();
        cells[0].scenario.detect_consecutive = 0;
        cells[1].scenario.detect_threshold = -1.0;
        let out = run_cells_checked(&cells, 2);
        assert_eq!(
            out[0].as_ref().unwrap_err(),
            &TopologyError::InvalidKnob {
                knob: "detect_consecutive",
                rule: "must be at least 1"
            }
        );
        assert_eq!(
            out[1].as_ref().unwrap_err(),
            &TopologyError::InvalidKnob {
                knob: "detect_threshold",
                rule: "must be non-negative"
            }
        );
        assert!(out[2].is_ok());
    }
}
