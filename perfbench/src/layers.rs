//! Per-layer attribution for the traced run.
//!
//! Each layer is timed from outside, by replaying calls into its public
//! functions on the workload's own configuration: `GasPlant::step` at the
//! workload's `plant_dt`, `Vm::run` of its compiled control law on its
//! tier, `Channel::sample_delivery` (in the budgeted form the slot body
//! uses on unshadowed links) over one of its scheduled links,
//! `EventQueue` push/pop at its node-count depth, and
//! `Reconfigurator::compute` / `SlotSchedule::place_flows` over its
//! topology. Per-run call counts are computed from the scenario and the
//! engine's public accessors, and shares divide replayed cost by the
//! traced run time.

use std::hint::black_box;

use evm_core::bytecode::{compile_control_law, control_law_gas_budget, ControlLawSpec};
use evm_core::runtime::{route_flows, synth_flows, Engine, Reconfigurator};
use evm_core::{Vm, VmEnv, VmError};
use evm_mac::SlotSchedule;
use evm_netsim::{Channel, Frame, FrameKind};
use evm_plant::{GasPlant, Plant};
use evm_sim::{EventQueue, SimRng, SimTime};

use crate::spans::{Recorder, SpanSet};
use crate::stats::{self, median};
use crate::workloads::{Prepared, Tally};
use crate::Metric;

/// Plant steps replayed (at most; fewer when a run makes fewer).
const PLANT_CALLS: u64 = 1000;
/// Spans per batched replay, and calls per batched span.
const BATCHES: u64 = 100;
const BATCH: u64 = 256;
/// Replays of the set-up layers.
const SETUP_REPS: u64 = 3;
/// Run id of the replay spans (timed operations count up from 0).
const REPLAY: u64 = u64::MAX;

/// Per-run work counts computed from the scenario and the engine's public
/// accessors (not counted inside the program).
struct Computed {
    plant_steps: f64,
    vm_runs: f64,
    deliveries: f64,
    occupied_slots: f64,
    slots: f64,
    gas_per_run: f64,
    /// The channel call the engine makes on the replayed link.
    channel_call: &'static str,
}

/// A control-law environment with a drifting PV.
struct Env {
    pv: f64,
    out: f64,
}

impl VmEnv for Env {
    fn read_sensor(&mut self, _port: u8) -> Result<f64, VmError> {
        Ok(self.pv)
    }
    fn write_actuator(&mut self, _port: u8, value: f64) -> Result<(), VmError> {
        self.out = value;
        Ok(())
    }
    fn emit(&mut self, _ch: u8, _value: f64) {}
    fn clock_s(&self) -> f64 {
        0.0
    }
}

/// Replays every layer's public calls under spans (run id [`REPLAY`]) and
/// returns the computed per-run counts.
fn replay(p: &Prepared, rec: &Recorder) -> Result<Computed, String> {
    let s = &p.scenario;
    let engine = Engine::try_new(s.clone()).map_err(|e| format!("replay engine: {e:?}"))?;
    let cycles = s.duration.as_secs_f64() / s.rtlink.cycle_duration().as_secs_f64();
    let spc = s.rtlink.slots_per_cycle;
    let schedule = engine.schedule();
    let assignments: Vec<_> = (0..spc).flat_map(|k| schedule.in_slot(k).iter()).collect();
    let listeners: usize = assignments.iter().map(|a| a.listeners.len()).sum();
    let replicas: usize = engine
        .vc_map()
        .vcs
        .iter()
        .map(|r| r.controllers.len())
        .sum();
    let plant_steps = (s.duration / s.plant_dt) as f64;

    // Plant: one span per step, after a short warm-up.
    let dt = s.plant_dt.as_secs_f64();
    let mut plant = GasPlant::default();
    for _ in 0..20 {
        plant.step(dt);
    }
    let parent = rec.open("replay.plant", None, REPLAY);
    for _ in 0..PLANT_CALLS.min(plant_steps as u64) {
        rec.span("GasPlant::step", Some(parent), REPLAY, || plant.step(dt));
    }
    rec.close(parent, 1);

    // Capsule VM: the workload's compiled law on its configured tier.
    let program = compile_control_law(&ControlLawSpec::from_loop(s.vc_loop(0)));
    let mut vm = Vm::with_tier(control_law_gas_budget(&program), s.tier);
    let mut env = Env { pv: 50.0, out: 0.0 };
    vm.run(&program, &mut env)
        .map_err(|e| format!("Vm::run: {e:?}"))?;
    let gas_per_run = vm.gas_used() as f64;
    batched(rec, "Vm::run", || {
        env.pv = 50.0 + env.out * 1e-3;
        let _ = black_box(vm.run(&program, &mut env));
    });

    // Channel: the first scheduled link, sampled the way the engine's
    // slot body samples it — through the precomputed link budget when the
    // channel has no shadowing, else unbudgeted.
    let a = assignments.first().ok_or("no scheduled slot")?;
    let src = a.owner;
    let dst = *a
        .listeners
        .first()
        .ok_or("a scheduled slot without listeners")?;
    let d = engine.topology().distance(src, dst);
    let frame = Frame::new(src, FrameKind::Broadcast, 16, 0);
    let mut channel = Channel::new(s.channel.clone(), SimRng::seed_from(s.seed));
    let burst = channel.burst_slot((src, dst));
    let channel_call = match channel.link_budget((src, dst), d) {
        Some(budget) => {
            batched(rec, "Channel::sample_delivery_budget", || {
                black_box(channel.sample_delivery_budget(burst, budget, frame.air_bytes()));
            });
            "Channel::sample_delivery_budget"
        }
        None => {
            batched(rec, "Channel::sample_delivery", || {
                black_box(channel.sample_delivery(&frame, dst, d));
            });
            "Channel::sample_delivery"
        }
    };

    // Event queue at the workload's node-count depth: each push lands
    // behind the current contents and each pop takes the head, so the
    // depth stays constant.
    let depth = engine.topology().len() as u64;
    let mut queue: EventQueue<u64> = EventQueue::new();
    for k in 0..depth {
        queue.push(SimTime::from_millis(k), k);
    }
    let mut next = depth;
    batched(rec, "EventQueue::push+pop", || {
        queue.push(SimTime::from_millis(next), next);
        next += 1;
        black_box(queue.pop());
    });

    // Reconfiguration and placement over the workload's topology, with
    // nothing down and with the killed heads down.
    let compute = |down: &[evm_netsim::NodeId]| {
        Reconfigurator::compute(
            1,
            engine.topology(),
            down,
            engine.vc_map(),
            &s.rtlink,
            s.serial_schedule,
            s.transfer_slots,
        )
        .map_err(|e| format!("Reconfigurator::compute: {e:?}"))
    };
    let routed = route_flows(engine.topology(), &synth_flows(engine.vc_map()))
        .map_err(|e| format!("route_flows: {e:?}"))?;
    let flows: Vec<_> = routed.flows.iter().map(|(f, _)| f.clone()).collect();
    for _ in 0..SETUP_REPS {
        black_box(rec.span("Reconfigurator::compute", None, REPLAY, || compute(&[]))?);
        black_box(rec.span("Reconfigurator::compute(down)", None, REPLAY, || {
            compute(&p.killed_heads)
        })?);
        black_box(
            rec.span("SlotSchedule::place_flows", None, REPLAY, || {
                if s.serial_schedule {
                    SlotSchedule::place_flows_serial(&s.rtlink, &flows)
                } else {
                    SlotSchedule::place_flows(&s.rtlink, engine.topology(), &flows)
                }
            })
            .map_err(|e| format!("place_flows: {e:?}"))?,
        );
    }

    Ok(Computed {
        plant_steps,
        vm_runs: cycles * replicas as f64,
        deliveries: cycles * listeners as f64,
        occupied_slots: (1..spc)
            .filter(|&k| !schedule.in_slot(k).is_empty())
            .count() as f64,
        slots: (s.duration / s.rtlink.slot_duration) as f64,
        gas_per_run,
        channel_call,
    })
}

/// [`BATCHES`] spans named `name`, each covering [`BATCH`] calls of `f`.
fn batched(rec: &Recorder, name: &'static str, mut f: impl FnMut()) {
    for _ in 0..BATCH {
        f();
    }
    let parent = rec.open("replay", None, REPLAY);
    for _ in 0..BATCHES {
        let id = rec.open(name, Some(parent), REPLAY);
        for _ in 0..BATCH {
            f();
        }
        rec.close(id, BATCH);
    }
    rec.close(parent, 1);
}

/// Replays the layers, then derives every per-layer metric from the spans
/// of the traced measurement and the replays. `untraced` is the same
/// workload measured without spans, for the tracing overhead.
pub fn metrics(
    p: &Prepared,
    rec: &Recorder,
    traced: &Tally,
    untraced: &Tally,
) -> Result<Vec<Metric>, String> {
    let c = replay(p, rec)?;
    let set = SpanSet::new(rec.spans());
    let per_call = |name: &str| median(&set.per_call_s(name));
    let run_s = per_call("Engine::run_until") + per_call("Engine::finalize");

    let plant_s = per_call("GasPlant::step");
    let vm_s = per_call("Vm::run");
    let channel_s = per_call(c.channel_call);
    let plant_share = stats::share(plant_s, c.plant_steps, run_s);
    let vm_share = stats::share(vm_s, c.vm_runs, run_s);
    let channel_share = stats::share(channel_s, c.deliveries, run_s);

    let ops = traced.cells().max(1.0);
    let sum = |f: fn(&evm_core::MigrationRecord) -> usize| {
        traced.migrations.iter().map(f).sum::<usize>() as f64
    };
    let (frames, sent) = (sum(|m| m.frames), sum(|m| m.frames_sent));

    let cell_ms = median(&set.durations_s("cell")) * 1e3;
    let total = |name: &str| set.durations_s(name).iter().sum::<f64>();
    let busy = stats::share(total("cell"), 1.0, p.threads as f64 * total("run_indexed"));
    let per_op = |t: &Tally| t.wall_s() / t.attempted.max(1) as f64;

    let spans = |name: &str| format!("{} spans", set.per_call_s(name).len());
    let computed = || "computed".to_string();
    let runs = || format!("{} runs", traced.cells());
    Ok(vec![
        Metric::new(
            "plant.step_us",
            plant_s * 1e6,
            "us",
            spans("GasPlant::step"),
        ),
        Metric::new("plant.steps", c.plant_steps, "count", computed()),
        Metric::new(
            "plant.share",
            plant_share,
            "frac",
            spans("Engine::run_until"),
        ),
        Metric::new("vm.run_ns", vm_s * 1e9, "ns", spans("Vm::run")),
        Metric::new("vm.gas_per_run", c.gas_per_run, "count", "1 run".into()),
        Metric::new("vm.runs", c.vm_runs, "count", computed()),
        Metric::new("vm.share", vm_share, "frac", spans("Engine::run_until")),
        Metric::new(
            "channel.delivery_ns",
            channel_s * 1e9,
            "ns",
            spans(c.channel_call),
        ),
        Metric::new("channel.deliveries", c.deliveries, "count", computed()),
        Metric::new(
            "channel.share",
            channel_share,
            "frac",
            spans("Engine::run_until"),
        ),
        Metric::new(
            "queue.push_pop_ns",
            per_call("EventQueue::push+pop") * 1e9,
            "ns",
            spans("EventQueue::push+pop"),
        ),
        Metric::new(
            "reconfig.compute_ms",
            per_call("Reconfigurator::compute") * 1e3,
            "ms",
            spans("Reconfigurator::compute"),
        ),
        Metric::new(
            "reconfig.compute_down_ms",
            per_call("Reconfigurator::compute(down)") * 1e3,
            "ms",
            spans("Reconfigurator::compute(down)"),
        ),
        Metric::new(
            "mac.place_ms",
            per_call("SlotSchedule::place_flows") * 1e3,
            "ms",
            spans("SlotSchedule::place_flows"),
        ),
        Metric::new("mac.occupied_slots", c.occupied_slots, "count", computed()),
        Metric::new(
            "reconfig.epochs",
            traced.epochs as f64 / ops,
            "count",
            runs(),
        ),
        Metric::new("xfer.frames", frames / ops, "count", runs()),
        Metric::new("xfer.frames_sent", sent / ops, "count", runs()),
        Metric::new("xfer.retries", sum(|m| m.retries) / ops, "count", runs()),
        Metric::new(
            "xfer.goodput",
            if sent > 0.0 { frames / sent } else { 0.0 },
            "frac",
            runs(),
        ),
        Metric::new(
            "driver.residual_share",
            1.0 - plant_share - vm_share - channel_share,
            "frac",
            spans("Engine::run_until"),
        ),
        Metric::new(
            "driver.ns_per_slot",
            run_s / c.slots * 1e9,
            "ns",
            spans("Engine::run_until"),
        ),
        Metric::new(
            "engine.finalize_ms",
            per_call("Engine::finalize") * 1e3,
            "ms",
            spans("Engine::finalize"),
        ),
        Metric::new("sweep.cell_ms_p50", cell_ms, "ms", spans("cell")),
        Metric::new(
            "sweep.report_ms",
            per_call("SweepReport::build") * 1e3,
            "ms",
            spans("SweepReport::build"),
        ),
        Metric::new("sweep.worker_busy_frac", busy, "frac", spans("run_indexed")),
        Metric::new(
            "sweep.executor_self_ms",
            per_call("run_indexed") * 1e3,
            "ms",
            spans("run_indexed"),
        ),
        Metric::new(
            "trace.overhead_frac",
            per_op(traced) / per_op(untraced) - 1.0,
            "frac",
            format!(
                "{} traced vs {} untraced ops",
                traced.attempted, untraced.attempted
            ),
        ),
    ])
}
