//! Engine construction: resolve the topology, synthesize the shared
//! schedule, and instantiate one behavior per role — per Virtual
//! Component.
//!
//! Construction is fleet-aware: role lookups go through a node→duty
//! index built once (instead of per-node scans over every VC), identical
//! control laws compile once and are shared, and the hot-loop state the
//! driver reads every slot (meters, relay cores, labels, slot occupancy)
//! is laid out in dense topology-indexed tables.

use std::collections::HashMap;

use evm_mac::rtlink::RtLink;
use evm_netsim::{Channel, EnergyMeter, NodeId, RadioPowerModel, Topology};
use evm_plant::{GasPlant, LocalController, RegisterMap};
use evm_sim::{EventQueue, SimDuration, SimRng, SimTime, TimeSeries, Trace};

use crate::bytecode::{
    compile_control_law, control_law_gas_budget, Capability, Capsule, CapsuleId, ControlLawSpec,
};
use crate::component::{MemberInfo, VirtualComponent};
use crate::metrics::VcRunStats;
use crate::roles::ControllerMode;
use crate::runtime::behavior::NodeBehavior;
use crate::runtime::behaviors::{
    ActuationGate, ActuatorNode, ControllerCore, ControllerNode, GatewayNode, HeadNode, RelayCore,
    RelayNode, ReplicaParams, SensorNode,
};
use crate::runtime::driver::{Engine, Ev, NO_NODE};
use crate::runtime::plan::CyclePlan;
use crate::runtime::reconfig::{Epoch, ReconfigError, ReconfigState, Reconfigurator};
use crate::runtime::registry::NodeRegistry;
use crate::runtime::topo::{TopologyError, VcId, VcMap};
use crate::runtime::Scenario;
use crate::transfers::ObjectTransfer;

/// Everything VC-specific the node loop below needs, prepared once per VC.
struct VcPlan {
    /// The authoritative capsule the VC would ship on a live migration:
    /// the compiled law with its gas budget.
    capsule: Capsule,
    params: ReplicaParams,
    primary: NodeId,
    act_register: u16,
    pv_tag: String,
    setpoint: f64,
    loop_name: String,
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

/// The first stage of engine setup, checked: the resolved deployment and
/// its epoch-0 configuration. [`Engine::try_new`] builds the engine from
/// it; batch runners call [`check_setup`] alone to reject a scenario
/// before any engine exists.
pub struct CheckedSetup {
    rng: SimRng,
    channel: Channel,
    topology: Topology,
    vcs: VcMap,
    epoch0: Epoch,
}

/// Runs the first stage of engine setup: resolves the topology spec,
/// checks the hosting manifest and the scripted primary crashes against
/// it, and computes epoch 0 (routes, slot schedule, transfer lane) with
/// [`Reconfigurator::compute`]. Draws exactly the channel randomness
/// engine construction draws, so the check sees the links the engine
/// will.
///
/// # Errors
///
/// [`TopologyError`] for a malformed spec, a manifest whose loop count
/// differs from the topology's VC count, a crash on an unhosted VC, an
/// unroutable flow, or flows (or transfer lane) that do not fit the
/// RT-Link cycle.
pub fn check_setup(scenario: &Scenario) -> Result<CheckedSetup, TopologyError> {
    let mut rng = SimRng::seed_from(scenario.seed);
    let mut channel = Channel::new(scenario.channel.clone(), rng.fork(1));
    let (topology, vcs) = scenario.topology.try_resolve(&mut channel)?;
    let hosted = vcs.n_vcs();
    if hosted != scenario.n_vcs() {
        return Err(TopologyError::ManifestMismatch {
            topology: hosted,
            manifest: scenario.n_vcs(),
        });
    }
    if let Some(&(vc, at)) = scenario
        .primary_crashes
        .iter()
        .find(|&&(vc, _)| vc as usize >= hosted)
    {
        return Err(TopologyError::CrashOnUnhostedVc { vc, at, hosted });
    }
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
        epoch0,
    })
}

impl Engine {
    /// Builds the deployment described by the scenario's topology.
    ///
    /// # Panics
    ///
    /// Panics on any [`TopologyError`] — configuration errors, not
    /// runtime conditions.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        match Engine::try_new(scenario) {
            Ok(engine) => engine,
            Err(
                e @ (TopologyError::ManifestMismatch { .. }
                | TopologyError::CrashOnUnhostedVc { .. }
                | TopologyError::Unroutable(_)
                | TopologyError::Unschedulable(_)),
            ) => panic!("{e}"),
            Err(e) => panic!("malformed topology spec: {e}"),
        }
    }

    /// Like [`Engine::new`], but reports every setup failure as a typed
    /// [`TopologyError`] instead of panicking — the path batch runners
    /// use so one bad cell fails alone instead of aborting the whole
    /// sweep.
    ///
    /// # Errors
    ///
    /// Any [`TopologyError`] from [`check_setup`].
    ///
    /// # Panics
    ///
    /// Panics if a VC's focus sensor reads a register other than its
    /// hosted loop's PV — a misconfigured manifest.
    #[allow(clippy::too_many_lines)]
    pub fn try_new(scenario: Scenario) -> Result<Self, TopologyError> {
        let CheckedSetup {
            rng,
            channel,
            topology,
            vcs,
            epoch0,
        } = check_setup(&scenario)?;

        // --- Dense node tables (the driver's hot-loop index space) -----
        let node_ids: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
        let max_raw = node_ids
            .iter()
            .map(|id| id.raw() as usize)
            .max()
            .unwrap_or(0);
        let mut node_index = vec![NO_NODE; max_raw + 1];
        for (ix, id) in node_ids.iter().enumerate() {
            node_index[id.raw() as usize] = u32::try_from(ix).expect("node count fits u32");
        }
        let labels: Vec<String> = topology.nodes().iter().map(|n| n.label.clone()).collect();

        let schedule = epoch0.schedule;
        let flow_kinds = epoch0.flow_kinds;
        let mut relay_cores: Vec<Option<RelayCore>> = (0..node_ids.len()).map(|_| None).collect();
        let mut forwarders: Vec<NodeId> = Vec::with_capacity(epoch0.jobs.len());
        for (id, jobs) in epoch0.jobs {
            let ix = node_index[id.raw() as usize] as usize;
            relay_cores[ix] = Some(RelayCore::new(jobs));
            forwarders.push(id);
        }

        let regmap = RegisterMap::gas_plant_standard();

        // --- Per-VC plans: capsule, task params, registers -------------
        // Identical laws (fleet deployments host clones of the standard
        // loops) compile, budget and checksum once: each VC clones its
        // law's capsule, whose `Program` shares one instruction list.
        // The capsule carries the capabilities a computing replica needs,
        // version 1 at boot.
        let mut law_cache: Vec<(ControlLawSpec, Capsule)> = Vec::new();
        let plans: Vec<VcPlan> = (0..vcs.n_vcs())
            .map(|k| {
                let vc = k as VcId;
                let spec = scenario.vc_loop(vc);
                let law = ControlLawSpec::from_loop(spec);
                let id = CapsuleId(u32::try_from(k).expect("vc fits u32"));
                let mut capsule = match law_cache.iter().find(|(l, _)| *l == law) {
                    Some((_, c)) => c.clone(),
                    None => {
                        let program = compile_control_law(&law);
                        let gas = control_law_gas_budget(&program);
                        let capsule = Capsule::new(
                            id,
                            1,
                            program,
                            gas,
                            vec![Capability::ControllerRole, Capability::DataPlane],
                        );
                        law_cache.push((law, capsule.clone()));
                        capsule
                    }
                };
                capsule.id = id;
                // The focus sensor's downlink register must agree with the
                // loop the VC hosts — a misconfigured manifest is caught
                // here rather than silently regulating the wrong PV.
                let pv_register = regmap
                    .input_register_of(&spec.pv_tag)
                    .unwrap_or_else(|| panic!("no input register for {}", spec.pv_tag));
                assert_eq!(
                    vcs.vc(vc).sensor_registers[0],
                    pv_register,
                    "VC {vc}'s focus sensor register does not match the {} loop",
                    spec.name
                );
                let act_register = regmap
                    .holding_register_of(&spec.op_tag)
                    .unwrap_or_else(|| panic!("no holding register for {}", spec.op_tag));
                VcPlan {
                    capsule,
                    params: ReplicaParams {
                        detect_threshold: scenario.detect_threshold,
                        detect_consecutive: scenario.detect_consecutive,
                        hb_timeout: scenario.rtlink.cycle_duration() * scenario.heartbeat_cycles,
                        period: SimDuration::from_secs_f64(spec.period_s),
                        primary: vcs.vc(vc).primary(),
                    },
                    primary: vcs.vc(vc).primary(),
                    act_register,
                    pv_tag: spec.pv_tag.clone(),
                    setpoint: spec.setpoint,
                    loop_name: spec.name.clone(),
                }
            })
            .collect();

        // --- Plant + local (wired) loops for the unhosted loops --------
        let plant = GasPlant::default();
        let hosted: Vec<String> = plans.iter().map(|p| p.loop_name.clone()).collect();
        let local_loops: Vec<LocalController> = evm_plant::standard_loops()
            .into_iter()
            .filter(|l| !hosted.contains(&l.name))
            .map(LocalController::new)
            .collect();

        // --- Node → duty index (roles are disjoint across VCs) ---------
        let mut duty: HashMap<NodeId, Duty> = HashMap::new();
        for r in &vcs.vcs {
            if let Some(h) = r.head {
                duty.insert(h, Duty::Head(r.vc));
            }
            for (tag, &s) in r.sensors.iter().enumerate() {
                duty.insert(
                    s,
                    Duty::Sensor(r.vc, u8::try_from(tag).expect("tag fits u8")),
                );
            }
            for &c in &r.controllers {
                duty.insert(c, Duty::Controller(r.vc));
            }
            for &a in &r.actuators {
                duty.insert(a, Duty::Actuator(r.vc));
            }
            for &rl in &r.relays {
                duty.insert(rl, Duty::Relay);
            }
        }

        // --- Node behaviors --------------------------------------------
        let b_mode = if scenario.warm_backup {
            ControllerMode::Backup
        } else {
            ControllerMode::Dormant
        };
        let mut registry = NodeRegistry::new();
        for info in topology.nodes() {
            let id = info.id;
            let behavior: Box<dyn NodeBehavior> = if id == vcs.gateway {
                // One gate per VC without an actuator node: the gateway is
                // then that VC's actuation endpoint.
                let gates = vcs
                    .vcs
                    .iter()
                    .map(|r| {
                        r.actuators
                            .is_empty()
                            .then(|| ActuationGate::new(r.primary()))
                    })
                    .collect();
                let act_registers = plans.iter().map(|p| p.act_register).collect();
                Box::new(GatewayNode::new(
                    scenario.sensor_noise_std,
                    act_registers,
                    gates,
                ))
            } else {
                match duty.get(&id).copied() {
                    // A head always runs a monitor replica of its VC's
                    // law: it observes the data plane and can detect
                    // output deviations itself, which is what makes
                    // cold-standby deployments (no warm backup computing)
                    // still fail over.
                    Some(Duty::Head(vc)) => {
                        let p = &plans[vc as usize];
                        Box::new(HeadNode::new(ControllerCore::new(
                            id,
                            vc,
                            ControllerMode::Backup,
                            true,
                            &p.capsule.program,
                            p.capsule.gas_budget,
                            &p.params,
                        )))
                    }
                    Some(Duty::Sensor(vc, tag)) => Box::new(SensorNode::new(vc, tag)),
                    // Dedicated forwarders: their duties live in the
                    // routed relay cores, not the behavior.
                    Some(Duty::Relay) => Box::new(RelayNode),
                    Some(Duty::Controller(vc)) => {
                        let p = &plans[vc as usize];
                        let (mode, hosts_task) = if id == p.primary {
                            (ControllerMode::Active, true)
                        } else {
                            (b_mode, scenario.warm_backup)
                        };
                        Box::new(ControllerNode::new(ControllerCore::new(
                            id,
                            vc,
                            mode,
                            hosts_task,
                            &p.capsule.program,
                            p.capsule.gas_budget,
                            &p.params,
                        )))
                    }
                    Some(Duty::Actuator(vc)) => {
                        Box::new(ActuatorNode::new(vc, plans[vc as usize].primary))
                    }
                    None => panic!("node must hold a role in some VC"),
                }
            };
            registry.insert(id, behavior);
        }

        // --- Virtual components (one record per hosted loop) -----------
        // Built by a single pass over the topology (members land in
        // topology order within each record, exactly as the per-VC scans
        // produced).
        let mut components: Vec<VirtualComponent> = vcs
            .vcs
            .iter()
            .map(|roles| VirtualComponent::new(plans[roles.vc as usize].loop_name.clone()))
            .collect();
        for n in topology.nodes() {
            if n.id == vcs.gateway {
                for record in &mut components {
                    record.add_member(MemberInfo {
                        node: n.id,
                        kind: n.kind,
                        mode: None,
                        capsules: vec![],
                    });
                }
                continue;
            }
            let Some(&d) = duty.get(&n.id) else { continue };
            let (vc, mode) = match d {
                Duty::Controller(vc) => {
                    let mode = if n.id == vcs.vc(vc).primary() {
                        ControllerMode::Active
                    } else {
                        b_mode
                    };
                    (vc, Some(mode))
                }
                Duty::Head(vc) | Duty::Sensor(vc, _) | Duty::Actuator(vc) => (vc, None),
                Duty::Relay => {
                    let vc = vcs
                        .vc_of_relay(n.id)
                        .expect("relay duty implies relay role");
                    (vc, None)
                }
            };
            components[vc as usize].add_member(MemberInfo {
                node: n.id,
                kind: n.kind,
                mode,
                capsules: vec![],
            });
        }
        for roles in &vcs.vcs {
            if let Some(head) = roles.head {
                components[roles.vc as usize].set_head(head);
            }
            // Capsule-migration relationships: the primary may ship its
            // capsule to any replica peer (head included). The transfer
            // plane consults these records before starting a migration.
            let primary = roles.primary();
            for peer in roles.controllers.iter().copied().chain(roles.head) {
                if peer != primary {
                    components[roles.vc as usize].add_transfer(ObjectTransfer::Directional {
                        from: primary,
                        to: peer,
                    });
                }
            }
        }

        let capsules: Vec<Capsule> = plans.iter().map(|p| p.capsule.clone()).collect();

        let series = scenario
            .sampled_tags
            .iter()
            .map(|t| (t.clone(), TimeSeries::new(t.clone())))
            .collect();
        let mode_series = vcs
            .all_controllers()
            .map(|(_, n)| {
                let label = topology.node(n).expect("member").label.clone();
                (n, TimeSeries::new(format!("Mode.{label}")))
            })
            .collect();
        let err_series = plans
            .iter()
            .map(|p| {
                (
                    p.pv_tag.clone(),
                    p.setpoint,
                    TimeSeries::new(format!("Err.{}", p.loop_name)),
                )
            })
            .collect();
        let vc_stats = plans
            .iter()
            .map(|p| VcRunStats {
                loop_name: p.loop_name.clone(),
                ..VcRunStats::default()
            })
            .collect();
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
            registry,
            series,
            mode_series,
            err_series,
            meters,
            node_ids,
            node_index,
            labels,
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
            capsules,
            xfer: None,
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
        for (_, _, s) in &mut engine.err_series {
            s.reserve(cycles);
        }
        for st in &mut engine.vc_stats {
            st.e2e_latencies.reserve(cycles);
        }
        engine.queue.reserve(64 + 4 * engine.node_ids.len());

        // Compile the setup epoch's cycle plan (draws no RNG).
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
