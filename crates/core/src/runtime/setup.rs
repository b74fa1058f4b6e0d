//! Engine construction: find or build the scenario's [`Deployment`],
//! then build one run's state on it — one [`Node`] per topology node,
//! per Virtual Component.
//!
//! Construction is fleet-aware: the deployment resolves roles into a
//! dense node→duty table once (instead of per-node scans over every VC),
//! identical control laws compile and pass kernel admission once and are
//! shared, and the hot-loop state the driver reads every slot (meters,
//! relay cores, slot occupancy) is laid out in dense topology-indexed
//! tables.
//!
//! **Who owns what.** Setup copies nothing per node or per VC that a run
//! already holds. The deployment's topology owns the node labels — moved
//! out of the scenario's spec when `Engine::try_new` builds the
//! deployment itself; the driver borrows them, and [`Engine::finalize`]
//! moves them into the result when no other engine shares the
//! deployment. Each VC's component record owns its loop name, which
//! finalize moves into the VC's statistics. Series names are the
//! deployment's, shared by every run. PV tags and setpoints are read
//! from the scenario's hosting manifest where needed. Warm replicas
//! share their law's booted kernel, and a VC's capsule is its law's,
//! materialized only when a migration ships it. A single-use deployment
//! hands its plant prototype and wired loops to its one run; a shared
//! one copies them for each.

use std::sync::Arc;

use evm_netsim::{EnergyMeter, RadioPowerModel};
use evm_sim::{EventQueue, SimRng, SimTime, TimeSeries, Trace};

use crate::bytecode::RunMemo;
use crate::component::VirtualComponent;
use crate::metrics::SeriesSet;
use crate::metrics::VcRunStats;
use crate::roles::ControllerMode;
use crate::runtime::behavior::Node;
use crate::runtime::behaviors::{
    ActuationGate, ActuatorNode, ControllerCore, GatewayNode, HeadNode, RelayCore, ReplicaParams,
    SensorNode,
};
use crate::runtime::deployment::{Deployment, Duty, VcLaw};
use crate::runtime::driver::{Engine, ErrTrace, Ev, RunState};
use crate::runtime::reconfig::ReconfigState;
use crate::runtime::topo::{TopologyError, TopologySpec, VcId};
use crate::runtime::Scenario;
use crate::transfers::ObjectTransfer;

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

    /// Builds the run described by the scenario, reporting every setup
    /// failure as a typed [`TopologyError`] — the path batch runners use
    /// so one bad cell fails alone instead of aborting the whole sweep.
    ///
    /// A deployment attached to the scenario
    /// ([`Scenario::attach_deployment`]) is reused when it
    /// [fits](Deployment::fits) the scenario, which then passes only the
    /// per-run checks ([`Deployment::check_run`]); otherwise the engine
    /// checks and builds its own, single-use deployment, moving the
    /// scenario's topology spec into it.
    ///
    /// # Errors
    ///
    /// Any [`TopologyError`] from [`crate::runtime::check_setup`].
    #[deny(clippy::panic_in_result_fn)]
    pub fn try_new(mut scenario: Scenario) -> Result<Self, TopologyError> {
        let dep = match scenario.deployment.take() {
            Some(dep) if dep.fits(&scenario) => {
                dep.check_run(&scenario)?;
                dep
            }
            _ => {
                // The deployment's topology takes over the spec (labels
                // included); nothing reads the scenario's copy after
                // setup.
                let spec = std::mem::replace(
                    &mut scenario.topology,
                    TopologySpec {
                        nodes: Vec::new(),
                        links: None,
                    },
                );
                Arc::new(Deployment::build(&scenario, spec)?)
            }
        };
        Ok(Engine::start(dep, scenario))
    }

    /// Builds one run's state on `dep` from the per-run knobs of
    /// `scenario`, which `dep` fits and which passed the per-run checks.
    /// Draws nothing: the run's stream starts where the deployment's
    /// build started, at the scenario's seed.
    #[allow(clippy::too_many_lines)]
    fn start(mut dep: Arc<Deployment>, mut scenario: Scenario) -> Engine {
        let (plant, local_loops) = Deployment::run_plant(&mut dep);
        // The engine stream, and the channel stream forked off it. A
        // shadowed channel's key holds the seed and its build already
        // drew the link realizations from that stream: the run continues
        // the deployment's channel. An unshadowed one restarts on the
        // deployment's link models with this run's stream.
        let mut rng = SimRng::seed_from(scenario.seed);
        let channel_rng = rng.fork(1);
        let channel = if dep.channel.is_shadowed() {
            dep.channel.clone()
        } else {
            dep.channel.restart(channel_rng)
        };
        let vcs = Arc::clone(&dep.vcs);
        let dense_ix = |id| {
            dep.topology
                .index_of(id)
                .expect("VC members and forwarders are deployed")
        };

        let mut relay_cores: Vec<Option<RelayCore>> =
            (0..dep.node_ids.len()).map(|_| None).collect();
        for (id, jobs) in &dep.relay_jobs {
            relay_cores[dense_ix(*id)] = Some(RelayCore::new(jobs.clone()));
        }

        // --- Per-VC replica parameters ----------------------------------
        let hb_timeout = dep.rtlink.config().cycle_duration() * scenario.heartbeat_cycles;
        let params: Vec<ReplicaParams> = dep
            .vc_laws
            .iter()
            .zip(&vcs.vcs)
            .map(|(&VcLaw { period, .. }, roles)| ReplicaParams {
                detect_threshold: scenario.detect_threshold,
                detect_consecutive: scenario.detect_consecutive,
                hb_timeout,
                period,
                primary: roles.primary(),
            })
            .collect();
        let replica = |id, vc: VcId, mode, warm: bool| {
            let vc_law = dep.vc_laws[vc as usize];
            let law = &dep.laws[vc_law.law];
            let mut core = ControllerCore::new(
                id,
                vc,
                mode,
                warm.then_some(&law.kernel),
                &law.capsule.program,
                law.capsule.gas_budget,
                &params[vc as usize],
            );
            if let Some(slot) = vc_law.memo {
                core.share_runs(slot, law.inputs);
            }
            core
        };

        // --- Nodes, in topology (dense index) order ---------------------
        let b_mode = if scenario.warm_backup {
            ControllerMode::Backup
        } else {
            ControllerMode::Dormant
        };
        let nodes = dep
            .node_ids
            .iter()
            .zip(&dep.duty)
            .map(|(&id, &duty)| match duty {
                // A head always runs a monitor replica of its VC's law: it
                // observes the data plane and can detect output deviations
                // itself, which is what makes cold-standby deployments (no
                // warm backup computing) still fail over.
                Some(Duty::Head(vc)) => Node::Head(Box::new(HeadNode::new(replica(
                    id,
                    vc,
                    ControllerMode::Backup,
                    true,
                )))),
                Some(Duty::Sensor(vc, tag)) => Node::Sensor(SensorNode::new(vc, tag)),
                // Dedicated forwarders: their duties live in the routed
                // relay cores, not the node.
                Some(Duty::Relay) => Node::Relay,
                Some(Duty::Controller(vc)) => {
                    let (mode, warm) = if id == params[vc as usize].primary {
                        (ControllerMode::Active, true)
                    } else {
                        (b_mode, scenario.warm_backup)
                    };
                    Node::Controller(Box::new(replica(id, vc, mode, warm)))
                }
                Some(Duty::Actuator(vc)) => {
                    Node::Actuator(ActuatorNode::new(vc, params[vc as usize].primary))
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
                        Arc::clone(&dep.gateway),
                        gates,
                    )))
                }
            })
            .collect();

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

        // --- Series, sized for the whole run ----------------------------
        // Capacity reservations: once warmed, the steady-state hot loop
        // never touches the allocator (pinned by the alloc-count test).
        let samples = usize::try_from(scenario.duration / scenario.sample_every + 2)
            .expect("sample count fits usize");
        let cycles = usize::try_from(scenario.duration / dep.rtlink.config().cycle_duration() + 2)
            .expect("cycle count fits usize");
        // The deployment built every series name; each run shares them.
        let reserved = |name: &Arc<str>, n: usize| {
            let mut s = TimeSeries::new(Arc::clone(name));
            s.reserve(n);
            s
        };
        // One table in result order (sampled tags, modes, errors), which
        // the result takes over whole.
        let mut series =
            Vec::with_capacity(dep.sampled.len() + dep.mode_series.len() + dep.err_series.len());
        series.extend(dep.sampled.iter().map(|(_, name)| reserved(name, samples)));
        series.extend(
            dep.mode_series
                .iter()
                .map(|(_, name)| reserved(name, samples)),
        );
        series.extend(
            dep.err_series
                .iter()
                .map(|(_, name)| reserved(name, cycles)),
        );
        let err_traces = dep
            .err_series
            .iter()
            .enumerate()
            .map(|(vc, (pv, _))| ErrTrace {
                pv: *pv,
                setpoint: scenario.vc_loop(vc as VcId).setpoint,
            })
            .collect();
        // Loop names join the statistics at finalize, from the records.
        let vc_stats = (0..vcs.n_vcs())
            .map(|_| {
                let mut st = VcRunStats::default();
                st.e2e_latencies.reserve(cycles);
                st
            })
            .collect();
        let vc_capsules = dep.vc_laws.iter().map(|l| (l.law, 1)).collect();
        // One memo entry per VC whose replicas share runs; none (and no
        // allocation) for a deployment of single-replica VCs.
        let memo = (0..dep.memo_entries).map(|_| RunMemo::default()).collect();
        let meters = dep
            .node_ids
            .iter()
            .map(|_| EnergyMeter::new(RadioPowerModel::cc2420()))
            .collect();
        let mut trace = Trace::new();
        for note in &dep.notes {
            trace.log(SimTime::ZERO, "config", note.as_str());
        }
        let vslot_time = SimTime::ZERO + scenario.rtlink.slot_duration;

        let mut engine = Engine {
            run: RunState {
                plant,
                local_loops,
                channel,
                vcs,
                wiring: Arc::clone(&dep.wiring),
                wiring_prev: Arc::clone(&dep.wiring),
                relay_cores,
                components,
                rng,
                trace,
                queue: EventQueue::new(),
                now: SimTime::ZERO,
                nodes,
                series: SeriesSet::from_distinct(series),
                err_traces,
                meters,
                fx_effects: Vec::with_capacity(8),
                fx_timers: Vec::with_capacity(8),
                scratch_watch: Vec::new(),
                scratch_down: Vec::new(),
                vslot_k: 1,
                vslot_time,
                vslot_seq: 0,
                vc_stats,
                reconfig: ReconfigState::default(),
                vc_capsules,
                memo,
                xfer: Vec::new(),
                migrations: Vec::new(),
                #[cfg(debug_assertions)]
                changed_vcs: Vec::new(),
                scenario,
            },
            dep,
        };
        // Reserve the event queue for the epoch-0 plan (see
        // `Engine::reserve_in_flight`).
        engine.reserve_in_flight();

        // Seed events. The slot chain is a cursor, not queue traffic,
        // but the first slot still takes its sequence number here,
        // between the plant step and the first sample: the same-instant
        // order the golden digests pin.
        let run = &mut engine.run;
        run.queue.push(SimTime::ZERO, Ev::PlantStep);
        run.vslot_seq = run.queue.skip_seq();
        run.queue.push(SimTime::ZERO, Ev::Sample);
        let s = &run.scenario;
        if let Some((at, _)) = s.fault {
            run.queue.push(at, Ev::InjectFault);
        }
        if let Some((at, _)) = s.backup_fault {
            run.queue.push(at, Ev::InjectBackupFault);
        }
        for &(vc, at) in &s.primary_crashes {
            run.queue.push(at, Ev::CrashPrimary { vc });
        }
        for &at in &s.force_reconfig {
            run.queue.push(at, Ev::Reconfigure);
        }
        engine
    }
}
