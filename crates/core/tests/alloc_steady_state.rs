//! Zero-alloc contract for the fleet hot loop.
//!
//! Once an engine is warmed — every series/queue reservation made at
//! setup, the cycle plan compiled — the steady-state slot loop must not
//! touch the heap at all: no per-slot clones, no label `String`s, no
//! dispatch scratch growth, no per-listener message copies, no
//! interpreter stack (it lives in the interpreter's frame). This test
//! installs a counting global allocator, warms a run, then steps several
//! more seconds of simulated time and asserts that **zero** allocations
//! and **zero** deallocations happened in the window.
//!
//! Covered engine windows: a fault-free star; a run with a live
//! capsule migration in flight — multi-listener folded
//! broadcasts with a `CapsuleChunk` crossing the window every cycle (the
//! image is padded so the stop-and-wait shipment spans the whole
//! measured window; its start and completion both land outside it);
//! and a noisy, lossy warm-backup star whose replicas share every run
//! they repeat until a lost PV splits them inside the window, so a
//! replica that had only adopted shared runs runs the interpreter for
//! the first time there.
//!
//! A VM window pins that a warmed [`Vm`] running a program with `call`
//! and a registered `ext` word allocates nothing: the return stack is a
//! fixed array, not a per-run buffer.
//!
//! Two more windows pin what a fleet pays per replica at rest: a fresh
//! [`Vm`] allocates nothing (its extension table is grown only on the
//! first registered word), and cloning a [`Program`] — what every
//! replica and capsule of a shared law does — shares its instructions
//! instead of copying them. A fleet of single-replica VCs keeps no
//! capsule-run memo at all.
//!
//! Two windows bound what a fleet pays to build and tear down an engine.
//! Across `fleet(200)` and `fleet(1000)`, the per-VC slope of
//! [`Engine::try_new`]'s allocations and of [`Engine::finalize`]'s frees
//! must stay within budget: setup shares what repeats from VC to VC
//! (laws, kernels, names, link state) instead of copying it, and
//! teardown hands names on instead of freeing them. `finalize` must
//! allocate as often at 1000 VCs as at 200: it moves the run's tables
//! into the result instead of rebuilding them per node.
//!
//! One more window bounds what a sweep batch pays per cell to set up: one
//! shared deployment ([`check_setup`]) and eight engines on it, for the
//! 8-cell `vc_failover_sweep` batch shape. A cell that copied the
//! deployment instead of sharing it would pay its whole build again.
//! Closing each cell must copy none of the shared deployment's labels.
//!
//! The last window counts a whole Fig. 6b run: a trace line allocates
//! its message, never its category.
//!
//! A single `#[test]` covers all windows sequentially: the counters
//! are process-global, so concurrent tests would pollute each other's
//! windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;

use evm_core::bytecode::NullEnv;
use evm_core::runtime::{check_setup, Engine, MemoStats, ReroutePolicy, Scenario, ScenarioBuilder};
use evm_core::{Op, Program, Vm};
use evm_netsim::NodeId;
use evm_sim::{SimDuration, SimTime};

struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);
static DEALLOCS: AtomicU64 = AtomicU64::new(0);

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        DEALLOCS.fetch_add(1, Relaxed);
        System.dealloc(ptr, layout)
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// A fault-free single-VC star: the steady state is pure slot traffic —
/// samples, capsule runs, actuations, keepalives — with no failover or
/// reconfiguration churn.
fn scenario() -> Scenario {
    ScenarioBuilder::star()
        .duration(SimDuration::from_secs(30))
        .build()
}

/// The same star with the head killed early and a padded capsule
/// migration crawling over one transfer slot per cycle: the crash,
/// silence detection, re-election and epoch commit (plan rebuild) all
/// land before the measured window opens at 10 s, and the 16 KiB image
/// at ~4 cycles/s keeps `CapsuleChunk` folded broadcasts in flight well
/// past its close at 20 s — loss-free, so no retransmit/corruption
/// trace lines allocate inside the window.
fn migration_scenario() -> Scenario {
    ScenarioBuilder::star()
        .reroute(ReroutePolicy::Heartbeat)
        .transfer_slots(1)
        .capsule_pad_bytes(16384)
        .crash_node_at(NodeId(6), SimTime::from_secs(2))
        .duration(SimDuration::from_secs(30))
        .build()
}

/// A warm-backup star with sensor noise and extra loss. Its three
/// replicas (Ctrl-A, Ctrl-B, the head's monitor) stay in step, sharing
/// two of every three runs, until a replica loses a PV at about 15 s;
/// from then on their states differ and most runs are real.
fn diverging_scenario() -> Scenario {
    ScenarioBuilder::star()
        .sensor_noise(0.2)
        .extra_loss(0.02)
        .seed(1)
        .duration(SimDuration::from_secs(30))
        .build()
}

/// Runs `s` warm to 10 s, then to 20 s with the allocator watched, and
/// asserts the window allocated and freed nothing. Returns the memo
/// statistics at the window's open and close.
fn assert_zero_alloc_steady_state(label: &str, s: Scenario) -> [MemoStats; 2] {
    let mut engine = Engine::new(s);
    // Warm: ~40 RT-Link cycles — every capsule run at least once,
    // every lazily-grown structure at its steady footprint.
    engine.run_until(SimTime::from_secs(10));
    let open = engine.memo_stats();

    let allocs_before = ALLOCS.load(Relaxed);
    let deallocs_before = DEALLOCS.load(Relaxed);
    engine.run_until(SimTime::from_secs(20));
    let allocs = ALLOCS.load(Relaxed) - allocs_before;
    let deallocs = DEALLOCS.load(Relaxed) - deallocs_before;
    let close = engine.memo_stats();

    let result = engine.finalize();
    assert!(
        result.actuations > 50,
        "{label}: run must exercise the loop"
    );
    assert_eq!(allocs, 0, "{label}: warmed steady state must not allocate");
    assert_eq!(deallocs, 0, "{label}: warmed steady state must not free");
    [open, close]
}

/// What an `n`-VC fleet run for one cycle (the `fleet_dense`
/// benchmark's deployment) pays to build and close: the allocations
/// made by [`Engine::try_new`], and the allocations and frees made by
/// [`Engine::finalize`]. The scenario is built before the window opens.
struct Lifecycle {
    setup_allocs: u64,
    finalize_allocs: u64,
    finalize_frees: u64,
}

fn fleet_lifecycle(n: usize) -> Lifecycle {
    let mut s = ScenarioBuilder::star().fleet(n).build();
    s.duration = s.rtlink.cycle_duration();
    let end = SimTime::ZERO + s.duration;
    let (setup_allocs, mut engine) = allocs_during(|| Engine::try_new(s).expect("fleet sets up"));
    engine.run_until(end);
    let frees = DEALLOCS.load(Relaxed);
    let (finalize_allocs, result) = allocs_during(|| engine.finalize());
    let finalize_frees = DEALLOCS.load(Relaxed) - frees;
    assert_eq!(result.vc_stats.len(), n, "every VC reports");
    assert_eq!(
        result.node_energy.len(),
        result.meta.nodes,
        "every node reports"
    );
    Lifecycle {
        setup_allocs,
        finalize_allocs,
        finalize_frees,
    }
}

/// Allocations made by a whole Fig. 6b `run_until`, and the trace lines
/// it logged.
fn fig6b_run_allocs() -> (u64, usize) {
    let s = Scenario::fig6b();
    let end = SimTime::ZERO + s.duration;
    let mut engine = Engine::new(s);
    let (allocs, ()) = allocs_during(|| engine.run_until(end));
    (allocs, engine.finalize().trace.len())
}

/// Allocations per cell of setting up an 8-cell batch of the
/// `vc_failover_sweep` shape (8 VCs of 3 replicas, heartbeat reroute, a
/// transfer lane) whose cells differ in seed and loss: one shared
/// deployment, then one engine per cell on it. Each engine is built from
/// its own copy of its cell's scenario, as a sweep worker builds it; the
/// copies are made before the window opens. Also returns the most
/// allocations one cell's [`Engine::finalize`] made.
fn shared_batch_setup() -> (f64, u64) {
    let template = ScenarioBuilder::star()
        .vcs(8)
        .sensors(1)
        .controllers(3)
        .actuators(1)
        .head(true)
        .slots_per_cycle(96)
        .reroute(ReroutePolicy::Heartbeat)
        .transfer_slots(1)
        .capsule_pad_bytes(1024)
        .duration(SimDuration::from_secs(300))
        .build();
    let cells: Vec<Scenario> = (0..8u64)
        .map(|k| {
            let mut s = template.clone();
            s.seed = k;
            s.extra_loss = [0.0, 0.02][(k % 2) as usize];
            s
        })
        .collect();
    let (allocs, engines) = allocs_during(|| {
        let deployment = check_setup(&template).expect("the batch sets up");
        cells
            .into_iter()
            .map(|mut s| {
                s.attach_deployment(Arc::clone(&deployment));
                Engine::try_new(s).expect("the cell sets up")
            })
            .collect::<Vec<_>>()
    });
    let shared = engines[0].deployment();
    assert!(
        engines.iter().all(|e| Arc::ptr_eq(e.deployment(), shared)),
        "every cell runs on the shared deployment"
    );
    // Close each cell after one second: its result shares the
    // deployment's labels and series names.
    let mut closing = 0;
    for mut engine in engines {
        engine.run_until(SimTime::from_secs(2));
        let (allocs, result) = allocs_during(|| engine.finalize());
        assert!(result.actuations > 0, "the cell ran its loops");
        assert_eq!(result.node_energy.len(), result.meta.nodes);
        closing = closing.max(allocs);
    }
    (allocs as f64 / 8.0, closing)
}

/// Allocations made while running `f`.
fn allocs_during<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.load(Relaxed);
    let out = std::hint::black_box(f());
    (ALLOCS.load(Relaxed) - before, out)
}

#[test]
fn warmed_hot_loop_never_touches_the_heap() {
    assert_zero_alloc_steady_state("star", scenario());
    let migration = migration_scenario();
    {
        // The shipment must actually span the window, or the chunk leg
        // was never measured: pin that it is still unfinished at 30 s.
        let r = Engine::new(migration.clone()).run();
        assert!(
            r.migrations.is_empty(),
            "padded transfer must outlast the run (else shrink the pad)"
        );
        assert!(
            r.trace
                .entries()
                .iter()
                .any(|e| e.message.contains("transfer started")),
            "the head kill must start a live migration"
        );
    }
    assert_zero_alloc_steady_state("migration-in-flight", migration);
    let [open, close] = assert_zero_alloc_steady_state("diverging", diverging_scenario());
    // Before the window at most one run in two was real (in step, one in
    // three); inside it more than one in two was, so the replicas split
    // there and a replica that had only adopted runs ran for real.
    let real = |m: MemoStats| m.runs - m.shared;
    assert!(
        real(open) * 2 < open.runs,
        "in step before the window: {open:?}"
    );
    let (runs, real) = (close.runs - open.runs, real(close) - real(open));
    assert!(
        real * 2 > runs,
        "split inside the window: {real} of {runs} runs real"
    );

    // main: push 3; call square; ext 7 (add 1); halt   square: dup mul ret
    let mut vm = Vm::new(64);
    vm.register_extension(7, Program::new(vec![Op::Push(1.0), Op::Add, Op::Ret]));
    let program = Program::new(vec![
        Op::Push(3.0),
        Op::Call(4),
        Op::Ext(7),
        Op::Halt,
        Op::Dup,
        Op::Mul,
        Op::Ret,
    ]);
    let mut env = NullEnv::default();
    assert_eq!(vm.run(&program, &mut env), Ok(10.0), "warm-up run");
    let (allocs, ()) = allocs_during(|| {
        for _ in 0..10 {
            assert_eq!(vm.run(&program, &mut env), Ok(10.0));
        }
    });
    assert_eq!(allocs, 0, "warmed call/ext runs must not allocate");

    let (allocs, vm) = allocs_during(|| Vm::new(64));
    assert_eq!(allocs, 0, "a fresh VM must not allocate");
    drop(vm);
    let law = Program::new(vec![Op::Push(1.0), Op::Push(2.0), Op::Add, Op::Halt]);
    let (allocs, copy) = allocs_during(|| law.clone());
    assert_eq!(allocs, 0, "a program clone must share its instructions");
    assert_eq!(copy, law);

    // Per VC, setup makes 13 allocations: three role-map lists, three
    // slot listener lists, the replica's box, the commanded-mode map, the
    // mode and error traces' name (built by the deployment) and sample
    // buffer each, and the latency buffer. Teardown makes 10 frees: the
    // role-map and listener lists, the box, the mode map, and the
    // scenario's PV and output tags. It allocates once at any scale,
    // for the pooled latency list: series, meters and labels move into
    // the result.
    // Per cell, a shared batch makes 216.3 allocations: its eighth of
    // the deployment's 798, plus 117 for its own engine, whose series
    // share the deployment's names and whose one memo table holds an
    // entry for each of the 8 VCs. Closing a cell copies no label: it
    // allocates once, as a fleet does.
    let (per_cell, closing) = shared_batch_setup();
    assert!(
        per_cell <= 217.0,
        "a shared 8-cell batch allocates {per_cell:.1} times per cell to set up"
    );
    assert!(
        closing <= 1,
        "closing a cell on a shared deployment allocates {closing} times"
    );

    let fleet = Engine::new(ScenarioBuilder::star().fleet(200).build());
    assert_eq!(
        fleet.memo_stats().entries,
        0,
        "single-replica VCs share no runs, so a fleet keeps no memo"
    );
    drop(fleet);

    let small = fleet_lifecycle(200);
    let large = fleet_lifecycle(1000);
    let per_vc = |small: u64, large: u64| (large - small) as f64 / 800.0;
    let setup = per_vc(small.setup_allocs, large.setup_allocs);
    let teardown = per_vc(small.finalize_frees, large.finalize_frees);
    assert!(
        setup <= 14.0,
        "Engine::try_new allocates {setup:.2} times per VC ({} at 200 VCs, {} at 1000)",
        small.setup_allocs,
        large.setup_allocs
    );
    assert!(
        teardown <= 10.0,
        "Engine::finalize frees {teardown:.2} times per VC ({} at 200 VCs, {} at 1000)",
        small.finalize_frees,
        large.finalize_frees
    );
    assert_eq!(
        small.finalize_allocs, large.finalize_allocs,
        "Engine::finalize allocates as often at 1000 VCs as at 200"
    );
    assert!(
        large.finalize_allocs <= 1,
        "Engine::finalize allocates {} times",
        large.finalize_allocs
    );

    // A trace line allocates its message, not its category (a static
    // string). Beyond one allocation a line, a Fig. 6b run makes 23:
    // the trace's own doubling (11) and a few growing buffers.
    let (allocs, lines) = fig6b_run_allocs();
    assert!(
        allocs <= lines as u64 + 32,
        "a Fig. 6b run allocates {allocs} times for {lines} trace lines"
    );
}
