//! The three closed-loop workloads, their output checks and the timed
//! operation loop.
//!
//! Load is closed-loop from one process: the next engine run (or sweep
//! batch) starts when the previous one finishes. Each workload's input is
//! generated from the command-line seed through `derive_seed`; its
//! reference result is computed once, untimed, and every timed run must
//! reproduce it exactly.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

use evm_core::runtime::{Engine, ReroutePolicy, Scenario, ScenarioBuilder, TopologyError};
use evm_core::{MigrationRecord, RunResult};
use evm_netsim::{NodeCrash, NodeId};
use evm_sim::{derive_seed, SimDuration, SimTime};
use evm_sweep::{
    available_threads, run_cells_checked, run_indexed, SweepCell, SweepGrid, SweepReport,
};

use crate::spans::{Recorder, SpanId};
use crate::stats;

/// A named workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    Fig6b,
    FleetDense,
    VcFailoverSweep,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::Fig6b,
        Workload::FleetDense,
        Workload::VcFailoverSweep,
    ];

    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            Workload::Fig6b => "fig6b",
            Workload::FleetDense => "fleet_dense",
            Workload::VcFailoverSweep => "vc_failover_sweep",
        }
    }
}

/// Fleet size of `fleet_dense`.
const FLEET_VCS: usize = 2000;
/// RT-Link cycles one `fleet_dense` run simulates.
const FLEET_CYCLES: u64 = 4;
/// VCs of the failover-sweep template.
const SWEEP_VCS: usize = 8;
/// Extra-loss axis of the failover sweep.
const SWEEP_LOSS: [f64; 2] = [0.0, 0.02];
/// Seed replicates per loss point (cells per batch = 2 × this).
const SWEEP_SEEDS: u32 = 4;
/// VCs whose heads the sweep kills, and when.
const HEAD_KILLS: [(u16, u64); 2] = [(1, 60), (5, 160)];
/// The VC whose primary the sweep crashes, and when.
const PRIMARY_CRASH: (u16, u64) = (3, 110);
/// Cells of the thread-count determinism slice.
const SLICE_CELLS: usize = 4;
/// Traced runs a traced measurement collects at least.
const MIN_SAMPLES: u64 = 110;
/// A measurement stops at this multiple of its duration even if it is
/// short of operations, so a slow build still ends.
const TIME_CAP: f64 = 2.0;

/// The work one timed operation completed, and its host time.
#[derive(Debug, Clone, Copy, Default)]
pub struct OpWork {
    pub wall_s: f64,
    /// Simulated seconds completed.
    pub sim_s: f64,
    /// RT-Link slots simulated.
    pub slots: f64,
    /// Engine runs or cells completed.
    pub cells: f64,
}

/// What a closed-loop measurement accumulated.
#[derive(Debug, Default)]
pub struct Tally {
    /// Operations attempted (engine runs or sweep cells).
    pub attempted: u64,
    /// Operations that panicked, errored or failed a check.
    pub failed: u64,
    /// Host ms per engine run or sweep cell, excluding set-up.
    pub run_ms: Vec<f64>,
    /// Host s of set-up per operation (`Engine::try_new`; for a sweep
    /// batch, `expand` plus every cell's `Engine::try_new`).
    pub setup_s: Vec<f64>,
    /// Work and host time of each timed operation.
    pub ops: Vec<OpWork>,
    /// Migrations completed in the timed runs.
    pub migrations: Vec<MigrationRecord>,
    /// Epochs committed in the timed runs.
    pub epochs: u64,
    /// Descriptions of the first failures.
    pub notes: Vec<String>,
}

impl Tally {
    pub fn fail(&mut self, note: String) {
        self.failed += 1;
        if self.notes.len() < 8 {
            self.notes.push(note);
        }
    }

    /// Adds `other`'s attempted and failed counts and failure notes.
    pub fn add_counts(&mut self, other: &Tally) {
        self.attempted += other.attempted;
        self.failed += other.failed;
        let room = 8usize.saturating_sub(self.notes.len());
        self.notes.extend(other.notes.iter().take(room).cloned());
    }

    /// Counts a verified result towards the operation's work.
    fn absorb(&mut self, w: &mut OpWork, r: &RunResult, s: &Scenario) {
        w.cells += 1.0;
        w.sim_s += s.duration.as_secs_f64();
        w.slots += (s.duration / s.rtlink.slot_duration) as f64;
        self.migrations.extend(r.migrations.iter().cloned());
        self.epochs += r.epochs;
    }

    /// Median over operations of `work(op)` per host second; `None`
    /// without operations.
    #[must_use]
    pub fn rate(&self, work: impl Fn(&OpWork) -> f64) -> Option<f64> {
        let rates: Vec<f64> = self
            .ops
            .iter()
            .map(|o| stats::rate(work(o), o.wall_s))
            .collect();
        (!rates.is_empty()).then(|| stats::median(&rates))
    }

    /// Host seconds of all timed operations.
    #[must_use]
    pub fn wall_s(&self) -> f64 {
        self.ops.iter().map(|o| o.wall_s).sum()
    }

    /// Engine runs or cells completed.
    #[must_use]
    pub fn cells(&self) -> f64 {
        self.ops.iter().map(|o| o.cells).sum()
    }
}

/// A workload's seeded input and its reference result.
enum Input {
    /// One engine run (`fig6b`, `fleet_dense`).
    Engine {
        scenario: Scenario,
        reference: RunResult,
    },
    /// One batch of sweep cells (`vc_failover_sweep`).
    Sweep {
        grid: SweepGrid,
        reference: Vec<RunResult>,
    },
}

/// A workload with its seeded input and its reference result.
pub struct Prepared {
    pub threads: usize,
    input: Input,
    /// The scenario of the input (for the sweep, of its first cell).
    pub scenario: Scenario,
    /// The heads the sweep kills (empty elsewhere).
    pub killed_heads: Vec<NodeId>,
    /// |T1−300| + |T2−600| + |T3−800| (simulated s) of the reference run.
    pub timeline_err_s: Option<f64>,
    /// Median simulated latency of the reference migrations.
    pub migration_latency_s: Option<f64>,
}

/// The Fig. 6b scenario under seed `seed`.
fn fig6b(seed: u64) -> Scenario {
    let mut s = Scenario::fig6b();
    s.seed = seed;
    s
}

/// The dense fleet under seed `seed`, [`FLEET_CYCLES`] cycles long.
fn fleet(seed: u64) -> Scenario {
    let mut s = ScenarioBuilder::star().fleet(FLEET_VCS).seed(seed).build();
    s.duration = s.rtlink.cycle_duration() * FLEET_CYCLES;
    s
}

/// The 8-VC failover template under seed `seed`, with the head kills
/// addressed through a probe engine's `vc_map()`.
fn failover_template(seed: u64) -> Result<(Scenario, Vec<NodeId>), String> {
    let mut s = ScenarioBuilder::star()
        .vcs(SWEEP_VCS)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .slots_per_cycle(96)
        .reroute(ReroutePolicy::Heartbeat)
        .transfer_slots(1)
        .capsule_pad_bytes(1024)
        .duration(SimDuration::from_secs(300))
        .crash_vc_primary_at(PRIMARY_CRASH.0, SimTime::from_secs(PRIMARY_CRASH.1))
        .seed(seed)
        .build();
    let probe = Engine::try_new(s.clone()).map_err(|e| format!("probe engine: {e:?}"))?;
    let heads = HEAD_KILLS
        .iter()
        .map(|&(vc, _)| {
            probe
                .vc_map()
                .vc(vc)
                .head
                .ok_or_else(|| format!("VC {vc} has no head"))
        })
        .collect::<Result<Vec<NodeId>, String>>()?;
    for (&head, &(_, at)) in heads.iter().zip(&HEAD_KILLS) {
        s.fault_plan
            .add_crash(NodeCrash::permanent(head, SimTime::from_secs(at)));
    }
    Ok((s, heads))
}

/// Checks Fig. 6b's T1/T2/T3 anchors and drop/collapse/recovery shape;
/// returns the timeline error against the paper.
fn check_fig6b(r: &RunResult) -> Result<f64, String> {
    let at = |needle: &str| {
        r.event_time(needle)
            .map(SimTime::as_secs_f64)
            .ok_or_else(|| format!("no '{needle}' event"))
    };
    let (t1, t2, t3) = (
        at("inject")?,
        at("Ctrl-B -> Active")?,
        at("Ctrl-A -> Dormant")?,
    );
    if t1 != 300.0 || !(600.0..601.0).contains(&t2) || !(800.0..801.0).contains(&t3) {
        return Err(format!("timeline T1={t1} T2={t2} T3={t3}"));
    }
    let level = r.series("LTS.LiquidPct");
    let window = |a: u64, b: u64| {
        level
            .window(SimTime::from_secs(a), SimTime::from_secs(b))
            .stats()
            .ok_or_else(|| format!("no level samples in {a}..{b} s"))
    };
    let (pre, collapse, recovery) = (window(60, 300)?, window(500, 600)?, window(900, 1000)?);
    if pre.min <= 40.0 || collapse.max >= 20.0 || recovery.mean <= collapse.mean + 5.0 {
        return Err(format!(
            "shape: pre min {:.1}, collapse max {:.1}, recovery mean {:.1}",
            pre.min, collapse.max, recovery.mean
        ));
    }
    Ok((t1 - 300.0).abs() + (t2 - 600.0).abs() + (t3 - 800.0).abs())
}

/// Every VC delivered at least one actuation.
fn check_actuation(r: &RunResult) -> Result<(), String> {
    match r.vc_stats.iter().position(|v| v.actuations == 0) {
        Some(vc) => Err(format!("VC {vc} never actuated")),
        None => Ok(()),
    }
}

/// Every scripted head kill yielded an admitted migration of its VC.
fn check_migrations(r: &RunResult) -> Result<(), String> {
    for &(vc, _) in &HEAD_KILLS {
        if !r.migrations.iter().any(|m| m.vc == vc) {
            return Err(format!(
                "head kill of VC {vc} yielded no admitted migration"
            ));
        }
    }
    Ok(())
}

/// Runs `f`, catching a panic as an error message.
pub fn guarded<R>(f: impl FnOnce() -> R) -> Result<R, String> {
    catch_unwind(AssertUnwindSafe(f)).map_err(|p| {
        p.downcast_ref::<&str>()
            .map(|s| (*s).to_string())
            .or_else(|| p.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "panic".to_string())
    })
}

/// The full report text of a sweep, for byte comparison.
fn render(cells: &[SweepCell], results: &[RunResult]) -> String {
    let report = SweepReport::build(cells, results);
    [
        report.to_csv(),
        report.cells_csv(),
        report.vcs_csv(),
        report.reconfig_csv(),
    ]
    .concat()
}

/// Unwraps a batch of checked cell results, or names the first error.
fn all_ok(out: Vec<Result<RunResult, TopologyError>>) -> Result<Vec<RunResult>, String> {
    out.into_iter()
        .enumerate()
        .map(|(i, r)| r.map_err(|e| format!("cell {i}: {e:?}")))
        .collect()
}

/// Builds the seeded input and its reference result, and runs every
/// output check on the reference. Failed checks are counted in the
/// returned tally; the reference is kept all the same, so timed runs are
/// still compared with it. `None` when no reference result could be
/// produced at all, so there is nothing to measure.
#[must_use]
pub fn prepare(workload: Workload, seed: u64) -> (Tally, Option<Prepared>) {
    let mut checks = Tally::default();
    let seed = derive_seed(seed, 0);
    let prepared = match workload {
        Workload::Fig6b | Workload::FleetDense => prepare_engine(workload, seed, &mut checks),
        Workload::VcFailoverSweep => prepare_sweep(seed, &mut checks),
    };
    match prepared {
        Ok(p) => (checks, Some(p)),
        Err(e) => {
            checks.attempted += 1;
            checks.fail(format!("reference under seed {seed}: {e}"));
            (checks, None)
        }
    }
}

/// The input and reference run of a single-engine workload.
fn prepare_engine(workload: Workload, seed: u64, checks: &mut Tally) -> Result<Prepared, String> {
    let scenario = if workload == Workload::Fig6b {
        fig6b(seed)
    } else {
        fleet(seed)
    };
    let reference = guarded(|| Engine::try_new(scenario.clone()).map(Engine::run))?
        .map_err(|e| format!("{e:?}"))?;
    checks.attempted += 1;
    let mut timeline_err_s = None;
    let checked = check_actuation(&reference).and_then(|()| {
        if workload == Workload::Fig6b {
            timeline_err_s = Some(check_fig6b(&reference)?);
        }
        Ok(())
    });
    if let Err(e) = checked {
        checks.fail(format!("reference run: {e}"));
    }
    Ok(Prepared {
        threads: 1,
        scenario: scenario.clone(),
        input: Input::Engine {
            scenario,
            reference,
        },
        killed_heads: Vec::new(),
        timeline_err_s,
        migration_latency_s: None,
    })
}

/// The grid and reference batch of the failover sweep.
fn prepare_sweep(seed: u64, checks: &mut Tally) -> Result<Prepared, String> {
    let threads = available_threads();
    let (grid, cells, killed_heads) = guarded(|| {
        let (template, heads) = failover_template(seed)?;
        let grid = SweepGrid::new(template)
            .over_loss(&SWEEP_LOSS)
            .seeds_per_cell(SWEEP_SEEDS);
        let cells = grid.expand();
        Ok::<_, String>((grid, cells, heads))
    })??;
    let reference = guarded(|| run_cells_checked(&cells, threads)).and_then(all_ok)?;
    checks.attempted += cells.len() as u64;
    let mut latencies = Vec::new();
    for (c, r) in cells.iter().zip(&reference) {
        latencies.extend(r.migrations.iter().map(|m| m.latency.as_secs_f64()));
        if let Err(e) = check_actuation(r).and_then(|()| check_migrations(r)) {
            checks.fail(format!("cell {}: {e}", c.config.key()));
        }
    }
    // Determinism: a slice of the grid renders the same report bytes at
    // one thread and at `threads`.
    let slice = &cells[..SLICE_CELLS.min(cells.len())];
    checks.attempted += slice.len() as u64;
    match guarded(|| run_cells_checked(slice, 1)).and_then(all_ok) {
        Ok(one) if render(slice, &one) == render(slice, &reference[..slice.len()]) => {}
        Ok(_) => checks.fail("1-thread and n-thread reports differ".into()),
        Err(e) => checks.fail(format!("1-thread slice: {e}")),
    }
    let scenario = cells
        .first()
        .ok_or("the grid expands to no cells")?
        .scenario
        .clone();
    Ok(Prepared {
        threads,
        scenario,
        input: Input::Sweep { grid, reference },
        killed_heads,
        timeline_err_s: None,
        migration_latency_s: (!latencies.is_empty()).then(|| stats::median(&latencies)),
    })
}

/// Runs `f` inside a span when tracing.
fn within<R>(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<SpanId>,
    run: u64,
    f: impl FnOnce() -> R,
) -> R {
    match rec {
        Some(rec) => rec.span(name, parent, run, f),
        None => f(),
    }
}

fn open(
    rec: Option<&Recorder>,
    name: &'static str,
    parent: Option<SpanId>,
    run: u64,
) -> Option<SpanId> {
    rec.map(|r| r.open(name, parent, run))
}

fn close(rec: Option<&Recorder>, id: Option<SpanId>) {
    if let (Some(rec), Some(id)) = (rec, id) {
        rec.close(id, 1);
    }
}

/// One engine run: `Engine::try_new`, then `run_until` and `finalize`.
/// Returns the set-up and run host seconds with the result.
fn engine_run(
    scenario: Scenario,
    rec: Option<&Recorder>,
    parent: Option<SpanId>,
    run: u64,
) -> Result<(f64, f64, RunResult), String> {
    let end = SimTime::ZERO + scenario.duration;
    let t0 = Instant::now();
    let mut engine = within(rec, "Engine::try_new", parent, run, || {
        Engine::try_new(scenario)
    })
    .map_err(|e| format!("{e:?}"))?;
    let t1 = Instant::now();
    within(rec, "Engine::run_until", parent, run, || {
        engine.run_until(end)
    });
    let r = within(rec, "Engine::finalize", parent, run, || engine.finalize());
    let t2 = Instant::now();
    Ok(((t1 - t0).as_secs_f64(), (t2 - t1).as_secs_f64(), r))
}

/// One closed-loop operation `i`: an engine run, or a sweep batch.
fn op(p: &Prepared, i: u64, rec: Option<&Recorder>, t: &mut Tally) {
    match &p.input {
        Input::Engine {
            scenario,
            reference,
        } => {
            t.attempted += 1;
            let span = open(rec, "op", None, i);
            let out = guarded(|| engine_run(scenario.clone(), rec, span, i)).and_then(|r| r);
            close(rec, span);
            match out {
                Ok((setup, run, r)) => {
                    t.setup_s.push(setup);
                    t.run_ms.push(run * 1e3);
                    let mut w = OpWork {
                        wall_s: setup + run,
                        ..OpWork::default()
                    };
                    if r == *reference {
                        t.absorb(&mut w, &r, scenario);
                    } else {
                        t.fail(format!("run {i} differs from its reference"));
                    }
                    t.ops.push(w);
                }
                Err(e) => t.fail(format!("run {i}: {e}")),
            }
        }
        Input::Sweep { grid, reference } => {
            let t0 = Instant::now();
            let batch = open(rec, "batch", None, i);
            let expanded = guarded(|| within(rec, "SweepGrid::expand", batch, i, || grid.expand()));
            let cells = match expanded {
                Ok(cells) => cells,
                Err(e) => {
                    close(rec, batch);
                    t.attempted += 1;
                    t.fail(format!("batch {i}: expand: {e}"));
                    return;
                }
            };
            let expand_s = t0.elapsed().as_secs_f64();
            let exec = open(rec, "run_indexed", batch, i);
            let outs = run_indexed(&cells, p.threads, |_, cell| {
                let span = open(rec, "cell", exec, i);
                let out =
                    guarded(|| engine_run(cell.scenario.clone(), rec, span, i)).and_then(|r| r);
                close(rec, span);
                out
            });
            close(rec, exec);
            let mut results = Vec::with_capacity(cells.len());
            let mut setup = expand_s;
            let mut w = OpWork::default();
            for (k, out) in outs.into_iter().enumerate() {
                t.attempted += 1;
                match out {
                    Ok((new_s, run_s, r)) => {
                        setup += new_s;
                        t.run_ms.push(run_s * 1e3);
                        if reference.get(k) == Some(&r) {
                            t.absorb(&mut w, &r, &cells[k].scenario);
                        } else {
                            t.fail(format!("batch {i} cell {k} differs from its reference"));
                        }
                        results.push(r);
                    }
                    Err(e) => t.fail(format!("batch {i} cell {k}: {e}")),
                }
            }
            if results.len() == cells.len() {
                let report = within(rec, "SweepReport::build", batch, i, || {
                    guarded(|| SweepReport::build(&cells, &results))
                });
                match report {
                    Ok(report) => {
                        std::hint::black_box(&report);
                    }
                    Err(e) => t.fail(format!("batch {i}: report: {e}")),
                }
            }
            close(rec, batch);
            t.setup_s.push(setup);
            w.wall_s = t0.elapsed().as_secs_f64();
            t.ops.push(w);
        }
    }
}

/// Runs operations back to back for `seconds`, in repetitions of at
/// least `rep_ops` attempted engine runs or cells each. The repetition
/// under way when `seconds` run out is finished, unless the measurement
/// has run [`TIME_CAP`] times as long. Returns one tally per repetition.
#[must_use]
pub fn measure(p: &Prepared, seconds: f64, rep_ops: u64) -> Vec<Tally> {
    let start = Instant::now();
    let within_cap = || start.elapsed().as_secs_f64() < seconds * TIME_CAP;
    let mut reps = Vec::new();
    let mut i = 0;
    while start.elapsed().as_secs_f64() < seconds {
        let mut t = Tally::default();
        while t.attempted < rep_ops && within_cap() {
            op(p, i, None, &mut t);
            i += 1;
        }
        reps.push(t);
    }
    reps
}

/// Alternates untraced and traced operations on the same input, so host
/// drift cancels out of the tracing overhead, for `seconds` and on until
/// [`MIN_SAMPLES`] traced runs are in (within [`TIME_CAP`]). Returns the
/// untraced and the traced tally.
#[must_use]
pub fn measure_traced(p: &Prepared, seconds: f64, rec: &Recorder) -> (Tally, Tally) {
    let (mut plain, mut traced) = (Tally::default(), Tally::default());
    let start = Instant::now();
    let mut i = 0;
    loop {
        let elapsed = start.elapsed().as_secs_f64();
        let enough = traced.attempted >= MIN_SAMPLES;
        if elapsed >= seconds * TIME_CAP || (elapsed >= seconds && enough) {
            break;
        }
        op(p, i, None, &mut plain);
        op(p, i, Some(rec), &mut traced);
        i += 1;
    }
    (plain, traced)
}
