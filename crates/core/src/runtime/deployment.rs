//! The deployment: everything a run does not change, checked and built
//! once and shared by every run of the same key.
//!
//! A Virtual Component's deployment is fixed at commissioning — its
//! nodes, routes, slot schedule and admitted capsules — while controllers
//! fail over and capsules migrate on top of it. [`Deployment`] holds that
//! fixed half of an engine: the setup check's outcome (resolved topology
//! and [`VcMap`], checked loop registers), the link models, epoch 0's
//! routes, schedule and compiled [`CyclePlan`], each distinct law's
//! capsule and admitted kernel, and the calibrated plant prototype with
//! every plant handle bound. Building one draws no run's randomness: the
//! channel stream it derives the topology with is the one every run of
//! its key starts from.
//!
//! **The key.** A deployment depends on a fixed set of scenario fields —
//! its [`DeploymentKey`]. The seed, the extra loss, the duration, the
//! timing and detection knobs and the fault script are not among them,
//! so sweep cells that differ only in those share one deployment. A
//! shadowed channel is the exception for the seed: its topology derive
//! draws link realizations from the channel stream, so its key holds the
//! seed too.
//!
//! **The checks.** [`check_setup`] runs every rule in stages and returns
//! the deployment; [`Deployment::check_run`] runs the per-run stages
//! (knob rules, crash script, fault plan) for another scenario of the same
//! key, which is all a shared deployment leaves to check.

use std::collections::{BTreeMap, HashSet};
use std::fmt;
use std::hash::BuildHasherDefault;
use std::sync::Arc;

use evm_mac::rtlink::RtLink;
use evm_mac::RtLinkConfig;
use evm_netsim::{Channel, ChannelConfig, NodeId, Topology};
use evm_plant::{BoundTag, ControlLoopSpec, GasPlant, LocalController, LoopTags, RegisterMap};
use evm_rtos::Kernel;
use evm_sim::{SimDuration, SimRng};

use crate::bytecode::{
    compile_control_law, control_law_gas_budget, Capsule, CapsuleId, ControlLawSpec, ProgramInputs,
};
use crate::runtime::behaviors::{focus_kernel, GatewayPorts, REPLICA_CAPS};
use crate::runtime::plan::{CyclePlan, Wiring};
use crate::runtime::reconfig::{ReconfigError, Reconfigurator, ReroutePolicy};
use crate::runtime::topo::{Fnv1a, RelayJob, TopologyError, TopologySpec, VcId, VcMap};
use crate::runtime::Scenario;

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

/// The fault-plan stage of the setup check: every scripted crash and
/// link blackout names deployed nodes. A fault on a missing node would
/// otherwise be dropped silently and the run would go fault-free.
#[deny(clippy::panic_in_result_fn)]
fn check_fault_plan(scenario: &Scenario, topology: &Topology) -> Result<(), TopologyError> {
    let plan = &scenario.fault_plan;
    let crashes = plan.crashes().iter().map(|c| (c.node, c.at));
    let blackouts = plan
        .blackouts()
        .iter()
        .flat_map(|b| [(b.from, b.at), (b.to, b.at)]);
    match crashes
        .chain(blackouts)
        .find(|&(node, _)| topology.index_of(node).is_none())
    {
        Some((node, at)) => Err(TopologyError::FaultOnMissingNode { node, at }),
        None => Ok(()),
    }
}

/// The series-name stage of the setup check: a run keeps one series per
/// name, so no two of the sampled tags, the `Mode.<label>` traces and
/// the `Err.<loop>` traces may share one. Sampled tags are distinct
/// already (the deployment keeps each once), and mode names are, since
/// labels are. So two names collide only when two VCs host loops of one
/// name, or a sampled tag carries a trace's prefix and name. Hashes the
/// loop names once; a tag is compared with the traces only when it has
/// a trace prefix.
#[deny(clippy::panic_in_result_fn)]
fn check_series_names(
    sampled: &[(Option<BoundTag>, Arc<str>)],
    mode: &[(usize, Arc<str>)],
    err: &[(Option<BoundTag>, Arc<str>)],
) -> Result<(), TopologyError> {
    let duplicate = |name: &str| Err(TopologyError::DuplicateSeriesName(name.to_string()));
    let mut loops: HashSet<&str, BuildHasherDefault<Fnv1a>> =
        HashSet::with_capacity_and_hasher(err.len(), BuildHasherDefault::default());
    if let Some((_, name)) = err.iter().find(|(_, name)| !loops.insert(name)) {
        return duplicate(name);
    }
    let traced = |tag: &str| {
        mode.iter()
            .map(|(_, name)| name)
            .chain(err.iter().map(|(_, name)| name))
            .any(|name| **name == *tag)
    };
    match sampled
        .iter()
        .find(|(_, tag)| (tag.starts_with("Mode.") || tag.starts_with("Err.")) && traced(tag))
    {
        Some((_, tag)) => duplicate(tag),
        None => Ok(()),
    }
}

/// The scenario fields a [`Deployment`] is built from, and so the fields
/// two scenarios must agree on to share one. Everything else a run reads
/// (seed, extra loss, duration, timing, detection and standby knobs,
/// scripted faults) is per run.
#[derive(Debug)]
struct DeploymentKey {
    topology: TopologySpec,
    channel: ChannelConfig,
    /// The seed, for a shadowed channel only.
    shadow_seed: Option<u64>,
    rtlink: RtLinkConfig,
    serial_schedule: bool,
    transfer_slots: usize,
    /// The plan's keepalive rule follows the reroute policy.
    reroute: ReroutePolicy,
    focus_loop: ControlLoopSpec,
    extra_vc_loops: Vec<ControlLoopSpec>,
    sampled_tags: Vec<String>,
}

/// The seed a deployment over `s` depends on: `Some` on a shadowed
/// channel, whose topology derive draws from the seeded channel stream.
fn shadow_seed(s: &Scenario) -> Option<u64> {
    s.channel.is_shadowed().then_some(s.seed)
}

impl DeploymentKey {
    fn of(s: &Scenario) -> Self {
        DeploymentKey {
            topology: s.topology.clone(),
            channel: s.channel.clone(),
            shadow_seed: shadow_seed(s),
            rtlink: s.rtlink.clone(),
            serial_schedule: s.serial_schedule,
            transfer_slots: s.transfer_slots,
            reroute: s.reroute,
            focus_loop: s.focus_loop.clone(),
            extra_vc_loops: s.extra_vc_loops.clone(),
            sampled_tags: s.sampled_tags.clone(),
        }
    }

    /// `true` if `s` has this key. The cheap fields go first; the
    /// topology spec, the one long field, last.
    fn matches(&self, s: &Scenario) -> bool {
        self.shadow_seed == shadow_seed(s)
            && self.transfer_slots == s.transfer_slots
            && self.serial_schedule == s.serial_schedule
            && self.reroute == s.reroute
            && self.rtlink == s.rtlink
            && self.channel == s.channel
            && self.focus_loop == s.focus_loop
            && self.extra_vc_loops == s.extra_vc_loops
            && self.sampled_tags == s.sampled_tags
            && self.topology == s.topology
    }
}

/// One distinct control law, compiled, budgeted, checksummed and
/// admitted once however many VCs host it.
pub(super) struct CompiledLaw {
    pub(super) spec: ControlLawSpec,
    /// The law's capsule: version 1, under its first host VC's id.
    pub(super) capsule: Capsule,
    /// An empty replica kernel with the law's focus task admitted,
    /// shared by every warm replica.
    pub(super) kernel: Arc<Kernel>,
    /// What the law's program reads besides its variables: the inputs a
    /// shared replica run is keyed on.
    pub(super) inputs: ProgramInputs,
}

/// One VC's law, as its replicas run it.
#[derive(Clone, Copy)]
pub(super) struct VcLaw {
    /// The law, an index into [`Deployment::laws`].
    pub(super) law: usize,
    /// The focus task's period.
    pub(super) period: SimDuration,
    /// The VC's entry in a run's capsule-run memo: `Some` when the VC
    /// deploys at least two replicas (controllers and the head's monitor)
    /// and its law has no `ext`, so replica runs can repeat each other.
    pub(super) memo: Option<u32>,
}

/// The single wireless duty a non-gateway node holds (roles are disjoint
/// across VCs by construction — every [`crate::runtime::NodeSpec`] names
/// exactly one role). Indexing duties once replaces the per-node
/// role-map scans, which are quadratic in fleet deployments.
#[derive(Clone, Copy)]
pub(super) enum Duty {
    Head(VcId),
    Sensor(VcId, u8),
    Relay,
    Controller(VcId),
    Actuator(VcId),
}

/// The run-invariant half of an engine, checked and built once by
/// [`check_setup`] (or inside [`crate::runtime::Engine::try_new`]) and
/// shared, behind an `Arc`, by every run of its key. See the module docs
/// for what it holds and which scenario fields it depends on.
///
/// A run never writes it. What a run may change later — the role map at
/// a head re-election, the wiring at an epoch commit, the link tables
/// when a new epoch meets a new link — the run holds as its own `Arc`
/// onto the deployment's copy and replaces or copies when it writes.
pub struct Deployment {
    /// The fields the deployment was built from; `None` for one built
    /// inside `Engine::try_new`, which no other scenario reuses.
    key: Option<DeploymentKey>,
    /// The resolved nodes, less their labels (moved into
    /// [`Deployment::labels`]).
    pub(super) topology: Topology,
    /// Each node's label, in topology order: shared with every run's
    /// result ([`crate::NodeEnergies`]), never copied.
    pub(super) labels: Arc<[String]>,
    /// Topology node ids in topology order — the dense index space
    /// ([`Topology::index_of`]) of every per-node table.
    pub(super) node_ids: Vec<NodeId>,
    /// Epoch 0's role-resolved addressing.
    pub(super) vcs: Arc<VcMap>,
    pub(super) rtlink: RtLink,
    /// The channel the topology was derived and epoch 0's plan compiled
    /// against: its link models and interned burst slots are what every
    /// run's channel starts from. Unshadowed, only its link tables
    /// ([`Channel::into_template`]); a shadowed one is kept whole, since
    /// its runs continue its stream.
    pub(super) channel: Channel,
    /// Epoch 0's schedule, flow table, forwarders and compiled plan.
    pub(super) wiring: Arc<Wiring>,
    /// Epoch 0's forwarding jobs, by forwarder.
    pub(super) relay_jobs: BTreeMap<NodeId, Vec<RelayJob>>,
    pub(super) laws: Vec<CompiledLaw>,
    /// Each VC's law, focus-task period and memo entry.
    pub(super) vc_laws: Vec<VcLaw>,
    /// Memo entries a run keeps: one per VC with `VcLaw::memo`.
    pub(super) memo_entries: u32,
    /// Each node's duty, in topology order; `None` for the gateway.
    pub(super) duty: Vec<Option<Duty>>,
    /// The calibrated plant every run starts from. `None` once the one
    /// run of a single-use deployment took it ([`Deployment::run_plant`]).
    plant: Option<GasPlant>,
    /// The wired loops the gateway runs against the plant directly, with
    /// their tags bound (taken with the plant).
    local_loops: Vec<(LocalController, LoopTags)>,
    /// The gateway's bound registers, shared by every run's gateway.
    pub(super) gateway: Arc<GatewayPorts>,
    /// One sampled series per distinct sampled tag: its handle (`None`
    /// when the plant does not publish it) and name.
    pub(super) sampled: Vec<(Option<BoundTag>, Arc<str>)>,
    /// Each controller's mode trace: the controller's dense index and
    /// the series name, `Mode.<label>`.
    pub(super) mode_series: Vec<(usize, Arc<str>)>,
    /// Each VC's regulation-error trace: its PV handle and the series
    /// name, `Err.<loop>`.
    pub(super) err_series: Vec<(Option<BoundTag>, Arc<str>)>,
    /// Setup notes every run's trace opens with.
    pub(super) notes: Vec<String>,
}

impl fmt::Debug for Deployment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Deployment")
            .field("nodes", &self.node_ids.len())
            .field("vcs", &self.vcs.n_vcs())
            .field("laws", &self.laws.len())
            .field("shared", &self.key.is_some())
            .finish_non_exhaustive()
    }
}

/// Checks everything engine setup needs, in stages, so that setup itself
/// meets no malformed input, and returns the checked deployment, ready to
/// be shared by every scenario of its key
/// ([`Scenario::attach_deployment`]):
///
/// 1. the scenario: knob rules and the crash script against the hosting
///    manifest;
/// 2. the topology spec, resolved (positions, roles, ids, labels,
///    registers), and the fault plan against the resolved nodes;
/// 3. the manifest against the spec's VC count, and each VC's loop
///    against the plant's register map;
/// 4. epoch 0 (routes, slot schedule, transfer lane), computed with
///    [`Reconfigurator::compute`];
/// 5. the run's series names: one series per name.
///
/// Draws exactly the channel randomness engine construction draws, so the
/// check sees the links the engine will.
///
/// # Errors
///
/// [`TopologyError`] for a knob that breaks its rule, cold standby
/// without transfer slots, a crash on an unhosted VC, a malformed spec, a
/// scripted crash or blackout on a node the deployment does not have, a
/// manifest whose loop count differs from the topology's VC count, a
/// loop whose registers do not fit the plant or its focus sensor, an
/// unroutable flow, flows (or transfer lane) that do not fit the
/// RT-Link cycle, or two series of one name.
#[deny(clippy::panic_in_result_fn)]
pub fn check_setup(scenario: &Scenario) -> Result<Arc<Deployment>, TopologyError> {
    let mut deployment = Deployment::build(scenario, scenario.topology.clone())?;
    deployment.key = Some(DeploymentKey::of(scenario));
    Ok(Arc::new(deployment))
}

impl Deployment {
    /// `true` if this deployment was built by [`check_setup`] for a
    /// scenario with `scenario`'s key, so an engine for `scenario` can
    /// run on it. A deployment built inside `Engine::try_new` fits no
    /// other scenario.
    #[must_use]
    pub fn fits(&self, scenario: &Scenario) -> bool {
        self.key.as_ref().is_some_and(|k| k.matches(scenario))
    }

    /// The stages of [`check_setup`] that a deployment does not settle
    /// for a scenario it [`fits`](Deployment::fits): the knob rules, the
    /// crash script and the fault plan against the deployment's nodes.
    /// For a fitting scenario this rejects exactly what `check_setup`
    /// would, with the same error.
    ///
    /// # Errors
    ///
    /// The [`TopologyError`] of the first broken knob, unhosted crash or
    /// fault on a missing node.
    #[deny(clippy::panic_in_result_fn)]
    pub fn check_run(&self, scenario: &Scenario) -> Result<(), TopologyError> {
        check_scenario(scenario, scenario.n_vcs())?;
        check_fault_plan(scenario, &self.topology)
    }

    /// Runs the setup check over `scenario` with `spec` standing in for
    /// its topology spec (consumed: its labels move into the resolved
    /// topology) and builds the deployment. Reads no scenario field
    /// outside [`DeploymentKey`] but the ones the per-run stages check
    /// and the seed, whose channel stream only a shadowed channel's
    /// build draws from (and only a shadowed key holds).
    #[allow(clippy::too_many_lines)]
    #[deny(clippy::panic_in_result_fn)]
    pub(super) fn build(scenario: &Scenario, spec: TopologySpec) -> Result<Self, TopologyError> {
        check_scenario(scenario, scenario.n_vcs())?;
        let mut rng = SimRng::seed_from(scenario.seed);
        let mut channel = Channel::new(scenario.channel.clone(), rng.fork(1));
        let (mut topology, vcs) = spec.try_into_resolved(&mut channel)?;
        check_fault_plan(scenario, &topology)?;
        if vcs.n_vcs() != scenario.n_vcs() {
            return Err(TopologyError::ManifestMismatch {
                topology: vcs.n_vcs(),
                manifest: scenario.n_vcs(),
            });
        }
        // Each VC's focus sensor must read its loop's PV, so no VC
        // regulates the wrong signal; the OP register is looked up once,
        // here.
        let regmap = RegisterMap::gas_plant_standard();
        let act_registers: Vec<u16> = vcs
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
        // The same Reconfigurator the runtime re-invokes mid-run builds
        // the setup-time configuration: logical single-hop flows, the
        // multi-hop routing pass (on a fully-connected star the routed
        // list is byte-identical to the logical one; elsewhere flows
        // expand into relay hop chains), then slot placement.
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

        // --- Dense node tables (the driver's hot-loop index space) -----
        let node_ids: Vec<NodeId> = topology.nodes().iter().map(|n| n.id).collect();
        let dense_ix = |id: NodeId| {
            topology
                .index_of(id)
                .expect("VC members and forwarders are deployed")
        };

        // --- Laws: capsule, kernel, per-VC period ------------------------
        // Identical laws (fleet deployments host clones of the standard
        // loops) compile, budget, checksum and admit once: each VC's
        // capsule is its law's under the VC's id, every replica's
        // `Program` shares the law's instruction list, and every warm
        // replica shares its law's admitted kernel. The capsule carries
        // the capabilities a computing replica needs, version 1 at boot.
        let mut laws: Vec<CompiledLaw> = Vec::new();
        let mut memo_entries = 0u32;
        let vc_laws = (0..vcs.n_vcs())
            .map(|k| {
                let vc = k as VcId;
                let spec = scenario.vc_loop(vc);
                let law_spec = ControlLawSpec::from_loop(spec);
                let period = SimDuration::from_secs_f64(spec.period_s);
                let law = match laws.iter().position(|l| l.spec == law_spec) {
                    Some(law) => law,
                    None => {
                        let id = CapsuleId(u32::try_from(k).expect("vc fits u32"));
                        let program = compile_control_law(&law_spec);
                        let gas = control_law_gas_budget(&program);
                        let capsule = Capsule::new(id, 1, program, gas, REPLICA_CAPS.to_vec());
                        laws.push(CompiledLaw {
                            spec: law_spec,
                            inputs: capsule.program.inputs(),
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
                let roles = vcs.vc(vc);
                let replicas = roles.controllers.len() + usize::from(roles.head.is_some());
                let memo = (replicas >= 2 && !laws[law].inputs.ext).then(|| {
                    memo_entries += 1;
                    memo_entries - 1
                });
                VcLaw { law, period, memo }
            })
            .collect();

        // --- Plant + local (wired) loops for the unhosted loops --------
        // Every plant access of a run goes through handles bound here:
        // the wired loops', the gateway's registers, the sampled series'
        // and the error traces' tags.
        let plant = GasPlant::default();
        let hosted =
            |name: &str| (0..vcs.n_vcs()).any(|vc| scenario.vc_loop(vc as VcId).name == name);
        let local_loops = evm_plant::standard_loops()
            .into_iter()
            .filter(|l| !hosted(&l.name))
            .map(|l| {
                let c = LocalController::new(l);
                let tags = c.bind(&plant).expect("standard loops fit the plant");
                (c, tags)
            })
            .collect();
        let mut inputs = Vec::with_capacity(vcs.vcs.iter().map(|r| r.sensor_registers.len()).sum());
        let mut input_base = Vec::with_capacity(vcs.n_vcs() + 1);
        input_base.push(0);
        for r in &vcs.vcs {
            inputs.extend(
                r.sensor_registers
                    .iter()
                    .map(|&reg| regmap.bind_input(&plant, reg)),
            );
            input_base.push(u32::try_from(inputs.len()).expect("registers fit u32"));
        }
        let gateway = Arc::new(GatewayPorts {
            act: act_registers
                .iter()
                .map(|&r| regmap.bind_holding(&plant, r))
                .collect(),
            inputs,
            input_base,
        });
        // Series names, built once for every run: each is an `Arc<str>`
        // made from one scratch buffer, one allocation a name.
        let mut buf = String::new();
        let mut name = |parts: [&str; 2]| -> Arc<str> {
            buf.clear();
            buf.extend(parts);
            Arc::from(buf.as_str())
        };
        let mut sampled: Vec<(Option<BoundTag>, Arc<str>)> =
            Vec::with_capacity(scenario.sampled_tags.len());
        for t in &scenario.sampled_tags {
            if sampled.iter().all(|(_, name)| **name != **t) {
                sampled.push((plant.bind_tag(t), Arc::from(t.as_str())));
            }
        }
        let mode_series: Vec<_> = vcs
            .all_controllers()
            .map(|(_, n)| {
                let ix = dense_ix(n);
                (ix, name(["Mode.", &topology.nodes()[ix].label]))
            })
            .collect();
        let err_series: Vec<_> = (0..vcs.n_vcs())
            .map(|vc| {
                let spec = scenario.vc_loop(vc as VcId);
                (plant.bind_tag(&spec.pv_tag), name(["Err.", &spec.name]))
            })
            .collect();
        check_series_names(&sampled, &mode_series, &err_series)?;

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

        // Surface monitoring sensors whose register the plant map does
        // not back (possible past the 11-entry monitor table, where
        // registers are synthetic-but-unique): their downlinks will stay
        // empty, which should be visible in the trace, not silent.
        let mut notes = Vec::new();
        for roles in &vcs.vcs {
            for (tag, &reg) in roles.sensor_registers.iter().enumerate().skip(1) {
                if regmap.tag_of(reg).is_none() {
                    let label = &topology.nodes()[dense_ix(roles.sensors[tag])].label;
                    notes.push(format!(
                        "monitor {label} reads unmapped register {reg}; flow stays empty"
                    ));
                }
            }
        }

        // Compile epoch 0's cycle plan (draws no RNG).
        let forwarders = epoch0.jobs.keys().copied().collect();
        let plan = CyclePlan::compile(
            &epoch0.schedule,
            &epoch0.flow_kinds,
            &topology,
            &mut channel,
            &scenario.rtlink,
            scenario.reroute,
            1,
        );
        let wiring = Arc::new(Wiring {
            schedule: epoch0.schedule,
            flow_kinds: epoch0.flow_kinds,
            forwarders,
            plan,
        });

        // An unshadowed run restarts on the link tables with fresh burst
        // states, so the deployment keeps the tables alone.
        let channel = if channel.is_shadowed() {
            channel
        } else {
            channel.into_template()
        };
        let labels = topology.take_labels().into();
        Ok(Deployment {
            key: None,
            topology,
            labels,
            node_ids,
            vcs: Arc::new(vcs),
            rtlink: RtLink::new(scenario.rtlink.clone()),
            channel,
            wiring,
            relay_jobs: epoch0.jobs,
            laws,
            vc_laws,
            memo_entries,
            duty,
            plant: Some(plant),
            local_loops,
            gateway,
            sampled,
            mode_series,
            err_series,
            notes,
        })
    }

    /// The plant prototype and wired loops a run on `dep` starts from.
    /// A single-use deployment that `dep` alone holds hands over its own:
    /// no other run can start on it, since it fits no scenario. Any other
    /// deployment hands out copies.
    pub(super) fn run_plant(
        dep: &mut Arc<Deployment>,
    ) -> (GasPlant, Vec<(LocalController, LoopTags)>) {
        match Arc::get_mut(dep) {
            Some(single) if single.key.is_none() => (
                single.plant.take().expect("a deployment starts one run"),
                std::mem::take(&mut single.local_loops),
            ),
            _ => (
                dep.plant
                    .clone()
                    .expect("a shared deployment keeps its plant"),
                dep.local_loops.clone(),
            ),
        }
    }
}
