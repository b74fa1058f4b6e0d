//! Engine construction: resolve the topology, synthesize the shared
//! schedule, and instantiate one [`Node`] per topology node — per
//! Virtual Component.
//!
//! Construction is fleet-aware: role lookups go through a dense node→duty
//! table built once (instead of per-node scans over every VC), identical
//! control laws compile and pass kernel admission once and are shared,
//! and the hot-loop state the driver reads every slot (meters, relay
//! cores, slot occupancy) is laid out in dense topology-indexed tables.
//!
//! **Who owns what.** Setup copies nothing per node or per VC that a run
//! already holds. The engine's topology owns the node labels, moved out
//! of the scenario's spec; the driver borrows them, and
//! [`Engine::finalize`] moves them into the result. Each VC's component
//! record owns its loop name, which finalize moves into the VC's
//! statistics. PV tags and setpoints are read from the scenario's
//! hosting manifest where needed. Warm replicas share their law's booted
//! kernel, and a VC's capsule is its law's, materialized only when a
//! migration ships it.

use std::sync::Arc;

use evm_mac::rtlink::RtLink;
use evm_netsim::{Channel, EnergyMeter, NodeId, RadioPowerModel, Topology};
use evm_plant::{GasPlant, LocalController, RegisterMap};
use evm_rtos::Kernel;
use evm_sim::{EventQueue, SimDuration, SimRng, SimTime, TimeSeries, Trace};

use crate::bytecode::{
    compile_control_law, control_law_gas_budget, Capsule, CapsuleId, ControlLawSpec,
};
use crate::component::VirtualComponent;
use crate::metrics::VcRunStats;
use crate::roles::ControllerMode;
use crate::runtime::behavior::Node;
use crate::runtime::behaviors::{
    focus_kernel, ActuationGate, ActuatorNode, ControllerCore, GatewayNode, HeadNode, RelayCore,
    ReplicaParams, SensorNode, REPLICA_CAPS,
};
use crate::runtime::driver::{Engine, ErrTrace, Ev};
use crate::runtime::plan::CyclePlan;
use crate::runtime::reconfig::{Epoch, ReconfigError, ReconfigState, Reconfigurator};
use crate::runtime::topo::{TopologyError, TopologySpec, VcId, VcMap};
use crate::runtime::Scenario;
use crate::transfers::ObjectTransfer;

/// One distinct control law, compiled, budgeted, checksummed and
/// admitted once however many VCs host it.
struct CompiledLaw {
    spec: ControlLawSpec,
    capsule: Capsule,
    /// An empty replica kernel with the law's focus task admitted,
    /// shared by every warm replica.
    kernel: Arc<Kernel>,
}

/// Everything VC-specific the node loop below needs, prepared once per VC.
struct VcPlan {
    /// The VC's law in the setup law cache; the VC's capsule is that
    /// law's under the VC's id.
    law: usize,
    params: ReplicaParams,
}

/// The single wireless duty a non-gateway node holds (roles are disjoint
/// across VCs by construction — every [`crate::runtime::NodeSpec`] names
/// exactly one role). Indexing duties once replaces the per-node
/// role-map scans, which are quadratic in fleet deployments.
#[derive(Clone, Copy)]
enum Duty {
    Head(VcId),
    Sensor(VcId, u8),
    Relay,
    Controller(VcId),
    Actuator(VcId),
}

/// The scenario stage of the setup check, which needs neither RNG nor
/// topology: every knob rule, by field path, then the crash script
/// against the `hosted` VC count. [`check_setup`] runs it first, and
/// [`crate::runtime::ScenarioBuilder::try_build`] runs it before
/// re-hosting the manifest (which would drop the crashes it checks).
#[deny(clippy::panic_in_result_fn)]
pub(crate) fn check_scenario(s: &Scenario, hosted: usize) -> Result<(), TopologyError> {
    let zero = TopologyError::ZeroTiming;
    let knob = |knob, rule| TopologyError::InvalidKnob { knob, rule };
    // Timing knobs divide a duration or pace a recurring event, so zero
    // would panic mid-setup or mid-run; the other ranges are the
    // contracts of the slot pipeline, the channel, the noise source and
    // the deviation detector.
    let rules = [
        (s.plant_dt.is_zero(), zero("plant_dt")),
        (s.sample_every.is_zero(), zero("sample_every")),
        (
            s.rtlink.slot_duration.is_zero(),
            zero("rtlink.slot_duration"),
        ),
        (s.heartbeat_cycles == 0, zero("heartbeat_cycles")),
        (
            s.rtlink.slots_per_cycle < 2,
            knob(
                "rtlink.slots_per_cycle",
                "needs the sync slot plus a data slot",
            ),
        ),
        (
            !(0.0..=1.0).contains(&s.extra_loss),
            knob("extra_loss", "out of [0, 1]"),
        ),
        (
            !s.sensor_noise_std.is_finite() || s.sensor_noise_std < 0.0,
            knob("sensor_noise_std", "must be finite and non-negative"),
        ),
        (
            s.detect_threshold.is_nan() || s.detect_threshold < 0.0,
            knob("detect_threshold", "must be non-negative"),
        ),
        (
            s.detect_consecutive == 0,
            knob("detect_consecutive", "must be at least 1"),
        ),
        (
            !s.warm_backup && s.transfer_slots == 0,
            TopologyError::ColdStandbyWithoutTransferLane,
        ),
    ];
    if let Some((_, e)) = rules.into_iter().find(|(broken, _)| *broken) {
        return Err(e);
    }
    match s
        .primary_crashes
        .iter()
        .find(|&&(vc, _)| vc as usize >= hosted)
    {
        Some(&(vc, at)) => Err(TopologyError::CrashOnUnhostedVc { vc, at, hosted }),
        None => Ok(()),
    }
}

/// The setup check's result: the resolved deployment, each VC's loop
/// registers and the epoch-0 configuration. [`Engine::try_new`] builds
/// the engine from it; batch runners call [`check_setup`] alone to reject
/// a scenario before any engine exists.
pub struct CheckedSetup {
    rng: SimRng,
    channel: Channel,
    topology: Topology,
    vcs: VcMap,
    regmap: RegisterMap,
    /// Each VC's actuation (holding) register, by `VcId`.
    act_registers: Vec<u16>,
    epoch0: Epoch,
}

/// Checks everything engine setup needs, in stages, so that setup itself
/// meets no malformed input:
///
/// 1. the scenario: knob rules and the crash script against the hosting
///    manifest;
/// 2. the topology spec, resolved (roles, ids, labels, registers);
/// 3. the manifest against the spec's VC count, and each VC's loop
///    against the plant's register map;
/// 4. epoch 0 (routes, slot schedule, transfer lane), computed with
///    [`Reconfigurator::compute`].
///
/// Draws exactly the channel randomness engine construction draws, so the
/// check sees the links the engine will.
///
/// # Errors
///
/// [`TopologyError`] for a knob that breaks its rule, cold standby
/// without transfer slots, a crash on an unhosted VC, a malformed spec, a
/// manifest whose loop count differs from the topology's VC count, a
/// loop whose registers do not fit the plant or its focus sensor, an
/// unroutable flow, or flows (or transfer lane) that do not fit the
/// RT-Link cycle.
#[deny(clippy::panic_in_result_fn)]
pub fn check_setup(scenario: &Scenario) -> Result<CheckedSetup, TopologyError> {
    check_with_spec(scenario, scenario.topology.clone())
}

/// [`check_setup`] over `spec`, which stands in for the scenario's own
/// topology spec and is consumed: its labels move into the resolved
/// topology.
#[deny(clippy::panic_in_result_fn)]
fn check_with_spec(scenario: &Scenario, spec: TopologySpec) -> Result<CheckedSetup, TopologyError> {
    check_scenario(scenario, scenario.n_vcs())?;
    let mut rng = SimRng::seed_from(scenario.seed);
    let mut channel = Channel::new(scenario.channel.clone(), rng.fork(1));
    let (topology, vcs) = spec.try_into_resolved(&mut channel)?;
    if vcs.n_vcs() != scenario.n_vcs() {
        return Err(TopologyError::ManifestMismatch {
            topology: vcs.n_vcs(),
            manifest: scenario.n_vcs(),
        });
    }
    // Each VC's focus sensor must read its loop's PV, so no VC regulates
    // the wrong signal; the OP register is looked up once, here.
    let regmap = RegisterMap::gas_plant_standard();
    let act_registers = vcs
        .vcs
        .iter()
        .map(|roles| {
            let spec = scenario.vc_loop(roles.vc);
            let broken = |rule| TopologyError::LoopRegister { vc: roles.vc, rule };
            let pv = regmap
                .input_register_of(&spec.pv_tag)
                .ok_or(broken("the loop's PV tag has no plant input register"))?;
            if roles.sensor_registers[0] != pv {
                return Err(broken("the focus sensor must read the loop's PV register"));
            }
            regmap
                .holding_register_of(&spec.op_tag)
                .ok_or(broken("the loop's OP tag has no plant holding register"))
        })
        .collect::<Result<_, _>>()?;
    // The same Reconfigurator the runtime re-invokes mid-run builds the
    // setup-time configuration: logical single-hop flows, the multi-hop
    // routing pass (on a fully-connected star the routed list is
    // byte-identical to the logical one; elsewhere flows expand into
    // relay hop chains), then slot placement.
    let epoch0 = Reconfigurator::compute(
        0,
        &topology,
        &[],
        &vcs,
        &scenario.rtlink,
        scenario.serial_schedule,
        scenario.transfer_slots,
    )
    .map_err(|e| match e {
        ReconfigError::Unroutable(e) => TopologyError::Unroutable(e),
        ReconfigError::Unschedulable(e) => TopologyError::Unschedulable(e),
    })?;
    Ok(CheckedSetup {
        rng,
        channel,
        topology,
        vcs,
        regmap,
        act_registers,
        epoch0,
    })
}

impl Engine {
    /// [`Engine::try_new`] for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics with the error of [`Engine::try_new`].
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        Engine::try_new(scenario).unwrap_or_else(|e| panic!("{e}"))
    }

    /// Builds the deployment described by the scenario's topology,
    /// reporting every setup failure as a typed [`TopologyError`] — the
    /// path batch runners use so one bad cell fails alone instead of
    /// aborting the whole sweep.
    ///
    /// # Errors
    ///
    /// Any [`TopologyError`] from [`check_setup`].
    #[allow(clippy::too_many_lines)]
    #[deny(clippy::panic_in_result_fn)]
    pub fn try_new(mut scenario: Scenario) -> Result<Self, TopologyError> {
        // The engine's topology takes over the spec (labels included);
        // nothing reads the scenario's copy after setup.
        let spec = std::mem::replace(
            &mut scenario.topology,
            TopologySpec {
                nodes: Vec::new(),
                links: None,
            },
        );
        let CheckedSetup {
            rng,
            channel,
            topology,
            vcs,
            regmap,
            mut act_registers,
            epoch0,
        } = check_with_spec(&scenario, spec)?;

        // --- Dense node tables (the driver's hot-loop index space) -----
        let node_ids: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
        let dense_ix = |id: NodeId| {
            topology
                .index_of(id)
                .expect("VC members and forwarders are deployed")
        };

        let schedule = epoch0.schedule;
        let flow_kinds = epoch0.flow_kinds;
        let mut relay_cores: Vec<Option<RelayCore>> = (0..node_ids.len()).map(|_| None).collect();
        let mut forwarders: Vec<NodeId> = Vec::with_capacity(epoch0.jobs.len());
        for (id, jobs) in epoch0.jobs {
            relay_cores[dense_ix(id)] = Some(RelayCore::new(jobs));
            forwarders.push(id);
        }

        // --- Per-VC plans: capsule, task params ------------------------
        // Identical laws (fleet deployments host clones of the standard
        // loops) compile, budget, checksum and admit once: each VC's
        // capsule is its law's under the VC's id, every replica's
        // `Program` shares the law's instruction list, and every warm
        // replica shares its law's admitted kernel. The capsule carries
        // the capabilities a computing replica needs, version 1 at boot.
        let mut laws: Vec<CompiledLaw> = Vec::new();
        let plans: Vec<VcPlan> = (0..vcs.n_vcs())
            .map(|k| {
                let vc = k as VcId;
                let spec = scenario.vc_loop(vc);
                let law_spec = ControlLawSpec::from_loop(spec);
                let id = CapsuleId(u32::try_from(k).expect("vc fits u32"));
                let period = SimDuration::from_secs_f64(spec.period_s);
                let law = match laws.iter().position(|l| l.spec == law_spec) {
                    Some(law) => law,
                    None => {
                        let program = compile_control_law(&law_spec);
                        let gas = control_law_gas_budget(&program);
                        let capsule = Capsule::new(id, 1, program, gas, REPLICA_CAPS.to_vec());
                        laws.push(CompiledLaw {
                            spec: law_spec,
                            kernel: Arc::new(focus_kernel(
                                &capsule,
                                vc,
                                vcs.vc(vc).primary(),
                                period,
                            )),
                            capsule,
                        });
                        laws.len() - 1
                    }
                };
                VcPlan {
                    law,
                    params: ReplicaParams {
                        detect_threshold: scenario.detect_threshold,
                        detect_consecutive: scenario.detect_consecutive,
                        hb_timeout: scenario.rtlink.cycle_duration() * scenario.heartbeat_cycles,
                        period,
                        primary: vcs.vc(vc).primary(),
                    },
                }
            })
            .collect();

        // --- Plant + local (wired) loops for the unhosted loops --------
        let plant = GasPlant::default();
        let local_loops: Vec<LocalController> = evm_plant::standard_loops()
            .into_iter()
            .filter(|l| (0..plans.len()).all(|vc| scenario.vc_loop(vc as VcId).name != l.name))
            .map(LocalController::new)
            .collect();

        // --- Dense node → duty table (roles are disjoint across VCs) ---
        let mut duty: Vec<Option<Duty>> = vec![None; node_ids.len()];
        let mut set_duty = |id: NodeId, d: Duty| {
            duty[dense_ix(id)] = Some(d);
        };
        for r in &vcs.vcs {
            if let Some(h) = r.head {
                set_duty(h, Duty::Head(r.vc));
            }
            for (tag, &s) in r.sensors.iter().enumerate() {
                set_duty(
                    s,
                    Duty::Sensor(r.vc, u8::try_from(tag).expect("tag fits u8")),
                );
            }
            for &c in &r.controllers {
                set_duty(c, Duty::Controller(r.vc));
            }
            for &a in &r.actuators {
                set_duty(a, Duty::Actuator(r.vc));
            }
            for &rl in &r.relays {
                set_duty(rl, Duty::Relay);
            }
        }

        // --- Nodes, in topology (dense index) order ---------------------
        let b_mode = if scenario.warm_backup {
            ControllerMode::Backup
        } else {
            ControllerMode::Dormant
        };
        let mut nodes = Vec::with_capacity(node_ids.len());
        for (&id, &node_duty) in node_ids.iter().zip(&duty) {
            let node = match node_duty {
                // A head always runs a monitor replica of its VC's law: it
                // observes the data plane and can detect output deviations
                // itself, which is what makes cold-standby deployments (no
                // warm backup computing) still fail over.
                Some(Duty::Head(vc)) => {
                    let p = &plans[vc as usize];
                    Node::Head(Box::new(HeadNode::new(ControllerCore::new(
                        id,
                        vc,
                        ControllerMode::Backup,
                        Some(&laws[p.law].kernel),
                        &laws[p.law].capsule.program,
                        laws[p.law].capsule.gas_budget,
                        &p.params,
                    ))))
                }
                Some(Duty::Sensor(vc, tag)) => Node::Sensor(SensorNode::new(vc, tag)),
                // Dedicated forwarders: their duties live in the routed
                // relay cores, not the node.
                Some(Duty::Relay) => Node::Relay,
                Some(Duty::Controller(vc)) => {
                    let p = &plans[vc as usize];
                    let (mode, hosts_task) = if id == p.params.primary {
                        (ControllerMode::Active, true)
                    } else {
                        (b_mode, scenario.warm_backup)
                    };
                    Node::Controller(Box::new(ControllerCore::new(
                        id,
                        vc,
                        mode,
                        hosts_task.then_some(&laws[p.law].kernel),
                        &laws[p.law].capsule.program,
                        laws[p.law].capsule.gas_budget,
                        &p.params,
                    )))
                }
                Some(Duty::Actuator(vc)) => {
                    Node::Actuator(ActuatorNode::new(vc, plans[vc as usize].params.primary))
                }
                // Every node but the shared gateway holds a duty in some
                // VC (the spec check rejects a second gateway). One gate
                // per VC without an actuator node: the gateway is then that
                // VC's actuation endpoint.
                None => {
                    let gates = vcs
                        .vcs
                        .iter()
                        .map(|r| {
                            r.actuators
                                .is_empty()
                                .then(|| ActuationGate::new(r.primary()))
                        })
                        .collect();
                    Node::Gateway(Box::new(GatewayNode::new(
                        scenario.sensor_noise_std,
                        std::mem::take(&mut act_registers),
                        gates,
                    )))
                }
            };
            nodes.push(node);
        }

        // --- Virtual components: the head's commanded view per loop ----
        // Each record takes over its loop's name from the scenario: the
        // run's one copy of it.
        let components: Vec<VirtualComponent> = vcs
            .vcs
            .iter()
            .map(|roles| {
                let name = match roles.vc {
                    0 => &mut scenario.focus_loop.name,
                    vc => &mut scenario.extra_vc_loops[vc as usize - 1].name,
                };
                let mut record = VirtualComponent::new(std::mem::take(name));
                let primary = roles.primary();
                for &c in &roles.controllers {
                    record.add_controller(
                        c,
                        if c == primary {
                            ControllerMode::Active
                        } else {
                            b_mode
                        },
                    );
                }
                // Capsule-migration relationships: the primary may ship
                // its capsule to any replica peer (head included). The
                // transfer plane consults these before starting a
                // migration.
                for peer in roles.controllers.iter().copied().chain(roles.head) {
                    if peer != primary {
                        record.add_transfer(ObjectTransfer::Directional {
                            from: primary,
                            to: peer,
                        });
                    }
                }
                record
            })
            .collect();

        let series = scenario
            .sampled_tags
            .iter()
            .map(|t| (t.clone(), TimeSeries::new(t.clone())))
            .collect();
        let mode_series = vcs
            .all_controllers()
            .map(|(_, n)| {
                let ix = dense_ix(n);
                let name = ["Mode.", &topology.nodes()[ix].label].concat();
                (ix, TimeSeries::new(name))
            })
            .collect();
        let err_series = components
            .iter()
            .enumerate()
            .map(|(vc, record)| {
                let spec = scenario.vc_loop(vc as VcId);
                ErrTrace {
                    pv: plant.bind_tag(&spec.pv_tag),
                    setpoint: spec.setpoint,
                    series: TimeSeries::new(["Err.", record.name()].concat()),
                }
            })
            .collect();
        // Loop names join the statistics at finalize, from the records.
        let vc_stats = plans.iter().map(|_| VcRunStats::default()).collect();
        let vc_capsules = plans.iter().map(|p| (p.law, 1)).collect();
        let laws = laws.into_iter().map(|l| l.capsule).collect();
        let meters = node_ids
            .iter()
            .map(|_| EnergyMeter::new(RadioPowerModel::cc2420()))
            .collect();

        let mut engine = Engine {
            plant,
            regmap,
            local_loops,
            channel,
            topology,
            vcs,
            rtlink: RtLink::new(scenario.rtlink.clone()),
            schedule,
            flow_kinds,
            relay_cores,
            forwarders,
            components,
            rng,
            trace: Trace::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            nodes,
            series,
            mode_series,
            err_series,
            meters,
            node_ids,
            plan: CyclePlan::default(),
            plan_prev: CyclePlan::default(),
            fx_effects: Vec::with_capacity(8),
            fx_timers: Vec::with_capacity(8),
            scratch_watch: Vec::new(),
            scratch_down: Vec::new(),
            vslot_k: 1,
            vslot_time: SimTime::ZERO + scenario.rtlink.slot_duration,
            vslot_seq: 0,
            vc_stats,
            reconfig: ReconfigState::default(),
            laws,
            vc_capsules,
            xfer: Vec::new(),
            migrations: Vec::new(),
            scenario,
        };

        // Surface monitoring sensors whose register the plant map does
        // not back (possible past the 11-entry monitor table, where
        // registers are synthetic-but-unique): their downlinks will stay
        // empty, which should be visible in the trace, not silent.
        for roles in &engine.vcs.vcs {
            for (tag, &reg) in roles.sensor_registers.iter().enumerate().skip(1) {
                if engine.regmap.tag_of(reg).is_none() {
                    let label = engine.label_of(roles.sensors[tag]);
                    engine.trace.log(
                        SimTime::ZERO,
                        "config",
                        format!("monitor {label} reads unmapped register {reg}; flow stays empty"),
                    );
                }
            }
        }

        // Capacity reservations: once warmed, the steady-state hot loop
        // never touches the allocator (pinned by the alloc-count test).
        let duration = engine.scenario.duration;
        let samples = usize::try_from(duration / engine.scenario.sample_every + 2)
            .expect("sample count fits usize");
        for s in engine.series.values_mut() {
            s.reserve(samples);
        }
        for (_, s) in &mut engine.mode_series {
            s.reserve(samples);
        }
        let cycles = usize::try_from(duration / engine.scenario.rtlink.cycle_duration() + 2)
            .expect("cycle count fits usize");
        for e in &mut engine.err_series {
            e.series.reserve(cycles);
        }
        for st in &mut engine.vc_stats {
            st.e2e_latencies.reserve(cycles);
        }

        // Compile the setup epoch's cycle plan (draws no RNG); this also
        // reserves the event queue (see `Engine::reserve_in_flight`).
        engine.rebuild_plan();

        // Seed events. The slot chain is a cursor, not queue traffic,
        // but the first slot still takes its sequence number here,
        // between the plant step and the first sample: the same-instant
        // order the golden digests pin.
        engine.queue.push(SimTime::ZERO, Ev::PlantStep);
        engine.vslot_seq = engine.queue.skip_seq();
        engine.queue.push(SimTime::ZERO, Ev::Sample);
        if let Some((at, _)) = engine.scenario.fault {
            engine.queue.push(at, Ev::InjectFault);
        }
        if let Some((at, _)) = engine.scenario.backup_fault {
            engine.queue.push(at, Ev::InjectBackupFault);
        }
        for &(vc, at) in &engine.scenario.primary_crashes {
            engine.queue.push(at, Ev::CrashPrimary { vc });
        }
        for &at in &engine.scenario.force_reconfig {
            engine.queue.push(at, Ev::Reconfigure);
        }
        Ok(engine)
    }
}
