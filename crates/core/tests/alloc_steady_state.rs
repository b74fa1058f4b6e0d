//! Zero-alloc contract for the fleet hot loop.
//!
//! Once an engine is warmed — every interpreter stack grown, every
//! series/queue reservation made at setup, the cycle plan compiled —
//! the steady-state slot loop must not touch the heap at all: no
//! per-slot clones, no label `String`s, no dispatch scratch growth, no
//! per-listener message copies, no per-run interpreter stack. This test
//! installs a counting global allocator, warms a run, then steps several
//! more seconds of simulated time and asserts that **zero** allocations
//! and **zero** deallocations happened in the window.
//!
//! Covered engine windows: a fault-free star, and a run with a live
//! capsule migration in flight — multi-listener folded
//! broadcasts with a `CapsuleChunk` crossing the window every cycle (the
//! image is padded so the stop-and-wait shipment spans the whole
//! measured window; its start and completion both land outside it).
//!
//! A VM window pins that a warmed [`Vm`] running a program with `call`
//! and a registered `ext` word allocates nothing: the return stack is a
//! fixed array, not a per-run buffer.
//!
//! Two more windows pin what a fleet pays per replica at rest: a fresh
//! [`Vm`] allocates nothing (its extension table is grown only on the
//! first registered word), and cloning a [`Program`] — what every
//! replica and capsule of a shared law does — shares its instructions
//! instead of copying them.
//!
//! A single `#[test]` covers all windows sequentially: the counters
//! are process-global, so concurrent tests would pollute each other's
//! windows.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

use evm_core::bytecode::NullEnv;
use evm_core::runtime::{Engine, ReroutePolicy, Scenario, ScenarioBuilder};
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

fn assert_zero_alloc_steady_state(label: &str, s: Scenario) {
    let mut engine = Engine::new(s);
    // Warm: ~40 RT-Link cycles — every capsule run at least once,
    // every lazily-grown structure at its steady footprint.
    engine.run_until(SimTime::from_secs(10));

    let allocs_before = ALLOCS.load(Relaxed);
    let deallocs_before = DEALLOCS.load(Relaxed);
    engine.run_until(SimTime::from_secs(20));
    let allocs = ALLOCS.load(Relaxed) - allocs_before;
    let deallocs = DEALLOCS.load(Relaxed) - deallocs_before;

    let result = engine.finalize();
    assert!(
        result.actuations > 50,
        "{label}: run must exercise the loop"
    );
    assert_eq!(allocs, 0, "{label}: warmed steady state must not allocate");
    assert_eq!(deallocs, 0, "{label}: warmed steady state must not free");
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
}
