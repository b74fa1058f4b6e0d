//! Scenario configuration and the topology-aware builder DSL.

use std::sync::Arc;

use evm_mac::RtLinkConfig;
use evm_netsim::{ChannelConfig, FaultPlan};
use evm_plant::{ActuatorFault, ControlLoopSpec};
use evm_sim::{SimDuration, SimTime};

use crate::bytecode::Tier;
use crate::runtime::deployment::{check_scenario, Deployment};
use crate::runtime::reconfig::ReroutePolicy;
use crate::runtime::topo::{
    TopologyError, TopologySpec, VcId, CLUSTER_HOP_M, CLUSTER_RING_M, GRID_SPACING_M,
    LINE_SPACING_M, MAX_VCS,
};

/// The physical layout family the builder materializes (and the
/// `over_topology` sweep axis in `evm-sweep`). Star is the Fig. 5
/// single-hop family; the other three exercise the multi-hop relay
/// pipeline end to end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layout {
    /// Single-hop ring around the gateway ([`TopologySpec::multi_star`]).
    Star,
    /// Sensor `hops` hops left of the gateway behind relays, control pod
    /// on the right ([`TopologySpec::line`]). Single-VC.
    Line {
        /// Radio hops from the focus sensor to the gateway (≥ 1).
        hops: usize,
    },
    /// `w × h` lattice, gateway and sensor in opposite corners
    /// ([`TopologySpec::grid`]). Single-VC.
    Grid {
        /// Lattice width (cells).
        w: usize,
        /// Lattice height (cells).
        h: usize,
    },
    /// One tight cluster per VC, each behind a two-relay chain from the
    /// shared gateway ([`TopologySpec::clustered`]).
    Clustered,
}

impl Layout {
    /// Stable label for report keys and CSV cells, e.g. `star`, `line2`,
    /// `grid2x3`, `clustered`.
    #[must_use]
    pub fn label(self) -> String {
        match self {
            Layout::Star => "star".to_string(),
            Layout::Line { hops } => format!("line{hops}"),
            Layout::Grid { w, h } => format!("grid{w}x{h}"),
            Layout::Clustered => "clustered".to_string(),
        }
    }
}

/// A fully specified co-simulation run.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// RNG seed — two runs with the same scenario are identical.
    pub seed: u64,
    /// Simulated duration.
    pub duration: SimDuration,
    /// Plant integration step.
    pub plant_dt: SimDuration,
    /// Tag-sampling period for the output series.
    pub sample_every: SimDuration,
    /// The deployment: node roles, positions and sensor registers.
    pub topology: TopologySpec,
    /// RT-Link cycle parameters.
    pub rtlink: RtLinkConfig,
    /// Radio channel parameters.
    pub channel: ChannelConfig,
    /// The focus control loop hosted on VC 0's EVM nodes.
    pub focus_loop: ControlLoopSpec,
    /// Loops hosted by VCs `1..` (empty for a single-VC deployment). The
    /// count must match the topology's VC count; `[focus_loop] +
    /// extra_vc_loops` is the full hosting manifest, indexed by `VcId`.
    pub extra_vc_loops: Vec<ControlLoopSpec>,
    /// Deviation-detector threshold (output units).
    pub detect_threshold: f64,
    /// Consecutive anomalies to confirm a fault.
    pub detect_consecutive: u32,
    /// The head commits reconfigurations only at multiples of this epoch
    /// (the paper's conservative supervisory cadence; zero = immediate).
    pub reconfig_epoch: SimDuration,
    /// Delay from demotion (Backup) to Dormant — the paper's T3 − T2.
    pub demote_dormant_after: SimDuration,
    /// `true`: backup controllers hold warm replicas (Fig. 6b). `false`:
    /// cold standby — the primary ships the capsule to a backup over the
    /// transfer lane before promotion, which needs `transfer_slots >= 1`
    /// ([`crate::runtime::TopologyError::ColdStandbyWithoutTransferLane`]
    /// otherwise).
    pub warm_backup: bool,
    /// Heartbeat silence threshold in RT-Link cycles. Must be large enough
    /// that a burst of frame losses is not mistaken for a crash: at loss
    /// rate p the false-alarm rate per cycle is p^n.
    pub heartbeat_cycles: u64,
    /// Runtime re-routing policy: `Static` (default) freezes routes,
    /// schedule and head at setup; `Heartbeat` re-routes around dead
    /// forwarders and re-elects a crashed head mid-run (the epoch-based
    /// reconfiguration plane).
    pub reroute: ReroutePolicy,
    /// Always [`Tier::Interp`]: no engine path reads it. Kept only for
    /// the benchmark harness, which passes it to
    /// [`Vm::with_tier`](crate::bytecode::Vm::with_tier); it goes away
    /// with that call site.
    pub tier: Tier,
    /// Scripted reconfiguration requests: at each instant the engine
    /// recomputes the epoch (with whatever down set it has, possibly
    /// empty) and commits it at the next cycle boundary. Test/bench knob
    /// for epoch atomicity and no-op-swap identity.
    pub force_reconfig: Vec<SimTime>,
    /// Scripted controller fault on VC 0's primary.
    pub fault: Option<(SimTime, ActuatorFault)>,
    /// Scripted controller fault on VC 0's *first backup* (double-fault
    /// runs).
    pub backup_fault: Option<(SimTime, ActuatorFault)>,
    /// Actuator value driven when no viable master remains (the
    /// `LocalFailSafe` response; fail-closed for the LTS valve).
    pub fail_safe_value: f64,
    /// Scripted primary-node crashes, per targeted VC (alternative
    /// failure mode).
    pub primary_crashes: Vec<(VcId, SimTime)>,
    /// Disable spatial slot reuse: every flow gets its own slot
    /// (`SlotSchedule::place_flows_serial`). The serialized baseline a
    /// reused schedule's cycle length — and byte-identical plant traces —
    /// are pinned against.
    pub serial_schedule: bool,
    /// Extra Bernoulli loss applied to every link (E14 sweeps this).
    pub extra_loss: f64,
    /// Gaussian measurement noise added at the gateway's sensor reads
    /// (engineering units of the focus PV).
    pub sensor_noise_std: f64,
    /// Dedicated capsule-transfer slots appended to each VC's epoch
    /// schedule. 0 (the default) disables live capsule migration — the
    /// schedule, RNG stream and every golden stay byte-identical — and
    /// is rejected for cold standby. With `n > 0`, the primary ships its
    /// capsule + interpreter state over these slots, chunk by chunk with
    /// per-frame ack/retransmit: to the new head on a re-election under
    /// [`ReroutePolicy::Heartbeat`], and to a cold-standby backup before
    /// the head promotes it.
    pub transfer_slots: usize,
    /// Extra bytes padded onto every shipped capsule image (checkpoint
    /// blobs, logs) — the sweepable image-size knob behind Fig. 6b's
    /// size × slot-budget failover latency.
    pub capsule_pad_bytes: usize,
    /// Per-chunk retransmission budget of a live capsule transfer (the
    /// initial transmission is free).
    pub migration_max_retries: usize,
    /// Fault-injection knob: the chunk with this sequence number arrives
    /// corrupted (one bit flipped in flight) exactly once; the receiver
    /// must drop it and the sender retransmit.
    pub corrupt_transfer_chunk: Option<usize>,
    /// Fault-injection knob: the sender's gas budget is tampered *after*
    /// the digest is computed — arrival attestation must reject the
    /// capsule.
    pub tamper_gas_budget: bool,
    /// Node/link fault script.
    pub fault_plan: FaultPlan,
    /// Plant tags to sample into the result series.
    pub sampled_tags: Vec<String>,
    /// A checked deployment to run on, when one was attached
    /// ([`Scenario::attach_deployment`]); the builder and the
    /// constructors never attach one.
    pub(crate) deployment: Option<Arc<Deployment>>,
}

impl Scenario {
    /// Starts a builder from the baseline (no-fault) configuration.
    #[must_use]
    pub fn builder() -> ScenarioBuilder {
        ScenarioBuilder {
            inner: Scenario::baseline(),
            shape: TopologyShape::fig5(),
            explicit_topology: false,
        }
    }

    /// The no-fault baseline: Fig. 5 topology, LTS loop on the EVM nodes,
    /// paper timing parameters, 1000 s horizon.
    #[must_use]
    pub fn baseline() -> Self {
        Scenario {
            seed: 42,
            duration: SimDuration::from_secs(1000),
            plant_dt: SimDuration::from_millis(100),
            sample_every: SimDuration::from_secs(1),
            topology: TopologySpec::fig5(),
            rtlink: RtLinkConfig::default(),
            channel: ChannelConfig::default(),
            focus_loop: evm_plant::lts_level_loop(),
            extra_vc_loops: Vec::new(),
            detect_threshold: 5.0,
            detect_consecutive: 3,
            reconfig_epoch: SimDuration::from_secs(300),
            demote_dormant_after: SimDuration::from_secs(200),
            warm_backup: true,
            heartbeat_cycles: 16,
            reroute: ReroutePolicy::Static,
            tier: Tier::Interp,
            force_reconfig: Vec::new(),
            fault: None,
            backup_fault: None,
            fail_safe_value: 0.0,
            primary_crashes: Vec::new(),
            serial_schedule: false,
            extra_loss: 0.0,
            sensor_noise_std: 0.0,
            transfer_slots: 0,
            capsule_pad_bytes: 0,
            migration_max_retries: 8,
            corrupt_transfer_chunk: None,
            tamper_gas_budget: false,
            fault_plan: FaultPlan::none(),
            sampled_tags: vec![
                "LTS.LiquidPct".into(),
                "SepLiq.MolarFlow".into(),
                "LTSLiq.MolarFlow".into(),
                "TowerFeed.MolarFlow".into(),
                "LTSLiqValve.OpeningPct".into(),
            ],
            deployment: None,
        }
    }

    /// Attaches a checked deployment ([`crate::runtime::check_setup`]),
    /// typically one shared by every scenario of a sweep with its key.
    /// [`crate::runtime::Engine::try_new`] runs on it when it
    /// [fits](Deployment::fits) the scenario as the engine finds it — a
    /// scenario edited after attaching is checked and built afresh, so
    /// an attached deployment never changes what a run does, only what
    /// its setup costs.
    pub fn attach_deployment(&mut self, deployment: Arc<Deployment>) {
        self.deployment = Some(deployment);
    }

    /// The attached deployment, if any.
    #[must_use]
    pub fn deployment(&self) -> Option<&Arc<Deployment>> {
        self.deployment.as_ref()
    }

    /// Detaches and returns the attached deployment: an engine for the
    /// scenario then checks and builds its own.
    pub fn detach_deployment(&mut self) -> Option<Arc<Deployment>> {
        self.deployment.take()
    }

    /// The paper's Fig. 5 testbed, unmodified — an alias of
    /// [`Scenario::baseline`] that names the topology it reproduces.
    #[must_use]
    pub fn fig5() -> Self {
        Scenario::baseline()
    }

    /// Number of Virtual Components this scenario hosts.
    #[must_use]
    pub fn n_vcs(&self) -> usize {
        1 + self.extra_vc_loops.len()
    }

    /// The loop hosted by VC `vc` (0 = the focus loop).
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    #[must_use]
    pub fn vc_loop(&self, vc: VcId) -> &ControlLoopSpec {
        if vc == 0 {
            &self.focus_loop
        } else {
            &self.extra_vc_loops[vc as usize - 1]
        }
    }

    /// Re-derives the hosting manifest for an `n`-VC deployment: VC 0
    /// keeps [`Scenario::focus_loop`]; VCs `1..n` take the next loops of
    /// the canonical [`evm_plant::vc_host_loops`] order (skipping the
    /// focus loop), and every hosted PV tag is added to
    /// [`Scenario::sampled_tags`]. Re-hosting owns the extra loops' PV
    /// tags: tags the outgoing manifest added are dropped first, so
    /// shrinking the pool leaves no phantom series behind — and scripted
    /// primary crashes targeting VCs the new pool no longer hosts are
    /// dropped with them (a fault can only apply where its VC exists, so
    /// a `vcs` sweep axis never builds a cell that would abort
    /// mid-batch). Does **not** touch the topology — the builder and the
    /// sweep grid pair this with [`TopologyShape::materialize`], which
    /// checks `n` against the layout.
    pub fn host_vcs(&mut self, n: usize) {
        let outgoing: Vec<String> = self
            .extra_vc_loops
            .iter()
            .map(|l| l.pv_tag.clone())
            .collect();
        self.sampled_tags.retain(|t| !outgoing.contains(t));
        self.extra_vc_loops = evm_plant::vc_host_loops()
            .into_iter()
            .filter(|l| l.name != self.focus_loop.name)
            .take(n.saturating_sub(1))
            .collect();
        for vc in 0..n {
            let tag = self.vc_loop(vc as VcId).pv_tag.clone();
            if !self.sampled_tags.contains(&tag) {
                self.sampled_tags.push(tag);
            }
        }
        self.primary_crashes.retain(|&(vc, _)| (vc as usize) < n);
    }

    /// Re-derives the hosting manifest for an `n`-VC **fleet**
    /// deployment ([`TopologySpec::fleet`]): VC `k` hosts canonical loop
    /// `k % MAX_VCS`, with instance-suffixed names (`LC-LTS#1`, …) past
    /// the first eight so every `Err.<loop>` series key stays unique.
    /// The first eight VCs carry the unsuffixed canonical loops, so the
    /// plant's local-control subtraction works exactly as in
    /// [`Scenario::host_vcs`]. Every hosted PV tag (at most the eight
    /// canonical ones) is added to [`Scenario::sampled_tags`].
    pub fn host_fleet(&mut self, n: usize) {
        let outgoing: Vec<String> = self
            .extra_vc_loops
            .iter()
            .map(|l| l.pv_tag.clone())
            .collect();
        self.sampled_tags.retain(|t| !outgoing.contains(t));
        let canon = evm_plant::vc_host_loops();
        self.focus_loop = canon[0].clone();
        self.extra_vc_loops = (1..n)
            .map(|k| {
                let mut l = canon[k % MAX_VCS].clone();
                if k >= MAX_VCS {
                    l.name = format!("{}#{}", l.name, k / MAX_VCS);
                }
                l
            })
            .collect();
        for l in canon.iter().take(n) {
            if !self.sampled_tags.contains(&l.pv_tag) {
                self.sampled_tags.push(l.pv_tag.clone());
            }
        }
        self.primary_crashes.retain(|&(vc, _)| (vc as usize) < n);
    }

    /// The paper's Fig. 6b scenario: the primary sticks at 75 % at
    /// T1 = 300 s; the head commits the failover at the next 300 s epoch
    /// (T2 = 600 s); the primary goes Dormant 200 s later (T3 = 800 s).
    #[must_use]
    pub fn fig6b() -> Self {
        Scenario::builder()
            .fault_at(SimTime::from_secs(300), ActuatorFault::paper_fault())
            .build()
    }

    /// Fig. 6b with immediate reconfiguration — the E3 ablation showing
    /// what detection-limited failover looks like.
    #[must_use]
    pub fn fig6b_fast() -> Self {
        Scenario::builder()
            .fault_at(SimTime::from_secs(300), ActuatorFault::paper_fault())
            .reconfig_epoch(SimDuration::ZERO)
            .build()
    }
}

/// A topology described by shape: a layout family, the VC count and the
/// per-VC role counts every family shares. The builder DSL accumulates
/// one, and the sweep grid's topology axes edit one per cell;
/// [`TopologyShape::materialize`] turns either into a [`TopologySpec`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TopologyShape {
    /// Layout family.
    pub layout: Layout,
    /// Virtual Components hosted (1 for line and grid).
    pub vcs: usize,
    /// Sensor nodes per VC (≥ 1; sensor 0 carries the focus PV).
    pub sensors: usize,
    /// Controller replicas per VC (≥ 1; the first is the initial primary).
    pub controllers: usize,
    /// Actuator nodes per VC (0 routes actuation through the gateway).
    pub actuators: usize,
    /// Whether each VC deploys its head.
    pub head: bool,
    /// Star ring radius in meters (the other layouts use their
    /// calibrated default spacings).
    pub radius_m: f64,
    /// Redundant relay chains (line and clustered layouts only).
    pub backup_relays: usize,
}

impl TopologyShape {
    /// The Fig. 5 testbed: a single-VC star of 2 sensors, 2 controllers,
    /// 1 actuator and the head on a 15 m ring.
    #[must_use]
    pub fn fig5() -> Self {
        TopologyShape {
            layout: Layout::Star,
            vcs: 1,
            sensors: 2,
            controllers: 2,
            actuators: 1,
            head: true,
            radius_m: 15.0,
            backup_relays: 0,
        }
    }

    /// Builds the topology spec of this shape. The role counts are
    /// checked later, on the spec ([`crate::runtime::check_setup`]).
    ///
    /// # Errors
    ///
    /// [`TopologyError::InvalidShape`] if a star or clustered layout hosts
    /// a VC count outside `1..=MAX_VCS`, a line or grid more than one VC,
    /// a star has a NaN or infinite ring radius, a star or grid backup
    /// relays, a line zero hops, or a lattice has fewer cells than roles.
    #[deny(clippy::panic_in_result_fn)]
    pub fn materialize(&self) -> Result<TopologySpec, TopologyError> {
        let (s, c, a, h) = (self.sensors, self.controllers, self.actuators, self.head);
        let broken = match self.layout {
            Layout::Star | Layout::Clustered if !(1..=MAX_VCS).contains(&self.vcs) => {
                Some("vc count out of range")
            }
            Layout::Line { .. } if self.vcs != 1 => Some("line layouts host a single VC"),
            Layout::Grid { .. } if self.vcs != 1 => Some("grid layouts host a single VC"),
            Layout::Star if !self.radius_m.is_finite() => Some("the ring radius must be finite"),
            Layout::Star | Layout::Grid { .. } if self.backup_relays > 0 => {
                Some("backup relays need a line or clustered layout")
            }
            Layout::Line { hops: 0 } => Some("a line needs at least one hop"),
            Layout::Grid { w, h: rows }
                if w.saturating_mul(rows) < 1 + s + c + a + usize::from(h) =>
            {
                Some("the lattice cannot seat every role")
            }
            _ => None,
        };
        if let Some(rule) = broken {
            return Err(TopologyError::InvalidShape {
                layout: self.layout,
                vcs: self.vcs,
                rule,
            });
        }
        Ok(match self.layout {
            Layout::Star => TopologySpec::multi_star(self.vcs, s, c, a, h, self.radius_m),
            Layout::Line { hops } => TopologySpec::line_with_backups(
                hops,
                s,
                c,
                a,
                h,
                LINE_SPACING_M,
                self.backup_relays,
            ),
            Layout::Grid { w, h: rows } => TopologySpec::grid(w, rows, s, c, a, h, GRID_SPACING_M),
            Layout::Clustered => TopologySpec::clustered_with_backups(
                self.vcs,
                s,
                c,
                a,
                h,
                CLUSTER_HOP_M,
                CLUSTER_RING_M,
                self.backup_relays,
            ),
        })
    }
}

/// Fluent builder over [`Scenario::baseline`], including the topology DSL:
///
/// ```
/// use evm_core::runtime::ScenarioBuilder;
/// let wide = ScenarioBuilder::star()
///     .sensors(2)
///     .controllers(3)
///     .head(true)
///     .build();
/// assert_eq!(wide.topology.nodes.len(), 8);
/// ```
#[derive(Debug, Clone)]
pub struct ScenarioBuilder {
    inner: Scenario,
    shape: TopologyShape,
    explicit_topology: bool,
}

impl ScenarioBuilder {
    /// Starts a star-topology builder (the default layout; an alias of
    /// [`Scenario::builder`] that reads well with the role-count methods).
    #[must_use]
    pub fn star() -> Self {
        Scenario::builder()
    }

    /// Starts from the degenerate three-node Virtual Component: gateway,
    /// one sensor, one controller, no actuator node, no head.
    #[must_use]
    pub fn minimal() -> Self {
        Scenario::builder()
            .sensors(1)
            .controllers(1)
            .actuators(0)
            .head(false)
    }

    /// Sets the number of Virtual Components hosted on the shared cycle
    /// (1..=8). Each VC gets the full star role set (`sensors`,
    /// `controllers`, …); VC 0 hosts the focus loop and VCs `1..` host
    /// the next loops of the canonical [`evm_plant::vc_host_loops`]
    /// order.
    #[must_use]
    pub fn vcs(mut self, n: usize) -> Self {
        self.shape.vcs = n;
        self
    }

    /// Sets the number of sensor nodes per VC (≥ 1; sensor 1 carries the
    /// focus PV, the rest publish monitoring flows).
    #[must_use]
    pub fn sensors(mut self, n: usize) -> Self {
        self.shape.sensors = n;
        self
    }

    /// Sets the number of controller replicas (≥ 1; the first is the
    /// initial primary).
    #[must_use]
    pub fn controllers(mut self, n: usize) -> Self {
        self.shape.controllers = n;
        self
    }

    /// Sets the number of actuator nodes: 0 routes actuation through the
    /// gateway, 1 is a dedicated actuator node. More than one is rejected
    /// at build time (controller outputs address a single actuation
    /// endpoint for now).
    #[must_use]
    pub fn actuators(mut self, n: usize) -> Self {
        self.shape.actuators = n;
        self
    }

    /// Includes (or removes) the Virtual Component head. Without a head
    /// there is no arbitration and no failover — the minimal data plane.
    #[must_use]
    pub fn head(mut self, present: bool) -> Self {
        self.shape.head = present;
        self
    }

    /// Sets the star ring radius in meters.
    #[must_use]
    pub fn radius_m(mut self, radius: f64) -> Self {
        self.shape.radius_m = radius;
        self
    }

    /// Switches to the multi-hop line layout: the focus sensor `hops`
    /// radio hops left of the gateway behind `hops - 1` relays, the
    /// control pod one hop right and the actuator beyond it
    /// ([`TopologySpec::line`]). Role-count knobs (`sensors`,
    /// `controllers`, `actuators`, `head`) apply as usual; `line(2)` with
    /// one sensor/controller/actuator is the paper-style
    /// `sensor—relay—gateway—controller—actuator` chain. Single-VC:
    /// `vcs(n > 1)` is rejected at build time, and so is `hops == 0`.
    #[must_use]
    pub fn line(mut self, hops: usize) -> Self {
        self.shape.layout = Layout::Line { hops };
        self
    }

    /// Switches to the `w × h` lattice layout: gateway and focus sensor
    /// in opposite corners, roles filling cells row-major, leftover cells
    /// becoming relays ([`TopologySpec::grid`]). Single-VC: `vcs(n > 1)`
    /// is rejected at build time, and so is a lattice with fewer cells
    /// than roles.
    #[must_use]
    pub fn grid(mut self, w: usize, h: usize) -> Self {
        self.shape.layout = Layout::Grid { w, h };
        self
    }

    /// Switches to the clustered layout *and* hosts `k` Virtual
    /// Components, one tight cluster per VC behind a two-relay chain from
    /// the shared gateway ([`TopologySpec::clustered`]) — the layout
    /// whose intra-cluster slots the scheduler reuses across clusters.
    #[must_use]
    pub fn clustered(mut self, k: usize) -> Self {
        self.shape.layout = Layout::Clustered;
        self.shape.vcs = k;
        self
    }

    /// Adds `n` redundant relay chains beside the primary one (line and
    /// clustered layouts): geometrically parallel forwarders the routing
    /// pass ignores while the primary chain lives — BFS tie-breaks prefer
    /// the lower-id primaries — but which runtime re-routing
    /// ([`ScenarioBuilder::reroute`]) falls back to when a primary relay
    /// dies. Rejected at build time for layouts without a dedicated
    /// chain (star, grid).
    #[must_use]
    pub fn backup_relays(mut self, n: usize) -> Self {
        self.shape.backup_relays = n;
        self
    }

    /// Sets the runtime re-routing policy ([`Scenario::reroute`]).
    #[must_use]
    pub fn reroute(mut self, policy: ReroutePolicy) -> Self {
        self.inner.reroute = policy;
        self
    }

    /// Switches to an `n`-VC fleet deployment: the explicit
    /// [`TopologySpec::fleet`] topology, the cycled hosting manifest
    /// ([`Scenario::host_fleet`]), a serial (sparse) schedule with an
    /// 8× slot-count headroom — the deliberately idle-slot-heavy shape
    /// the event-driven cursor exploits — and sampling + plant
    /// integration periods scaled to the (now very long) cycle, so
    /// result memory and plant-physics cost stay bounded at 10k VCs.
    /// The plant step is capped at 10 s: the discretizations are
    /// unconditionally stable, and no fleet loop samples faster than a
    /// quarter cycle, so sub-second integration buys nothing there.
    #[must_use]
    pub fn fleet(mut self, n: usize) -> Self {
        self.inner.topology = TopologySpec::fleet(n);
        self.explicit_topology = true;
        self.inner.serial_schedule = true;
        let spc = (8 * (3 * n + 1)).max(25);
        self.inner.rtlink.slots_per_cycle = spc;
        let cycle = self.inner.rtlink.slot_duration * spc as u64;
        self.inner.sample_every = cycle / 4;
        self.inner.plant_dt = self
            .inner
            .plant_dt
            .max((cycle / 64).min(SimDuration::from_secs(10)));
        self.inner.host_fleet(n);
        self
    }

    /// Scripts a reconfiguration request at `at` (commits at the next
    /// cycle boundary) — the epoch-atomicity test/bench knob.
    #[must_use]
    pub fn force_reconfig_at(mut self, at: SimTime) -> Self {
        self.inner.force_reconfig.push(at);
        self
    }

    /// Disables spatial slot reuse: the engine places every flow in its
    /// own slot ([`Scenario::serial_schedule`]). Pinning knob for the
    /// reuse-vs-serialized comparisons.
    #[must_use]
    pub fn serial_schedule(mut self, serial: bool) -> Self {
        self.inner.serial_schedule = serial;
        self
    }

    /// Sets the RT-Link cycle length in slots (slot 0 is the sync slot).
    /// Multi-hop layouts expand flows into per-hop slots, so relay-heavy
    /// deployments need a longer cycle than the default 25; fewer than
    /// two slots is rejected at build time.
    #[must_use]
    pub fn slots_per_cycle(mut self, n: usize) -> Self {
        self.inner.rtlink.slots_per_cycle = n;
        self
    }

    /// Uses an explicit topology instead of the star DSL. Once set, the
    /// explicit spec wins: the star knobs (`sensors`, `controllers`,
    /// `actuators`, `head`, `radius_m`) are ignored regardless of call
    /// order.
    #[must_use]
    pub fn topology(mut self, spec: TopologySpec) -> Self {
        self.inner.topology = spec;
        self.explicit_topology = true;
        self
    }

    /// Sets the RNG seed.
    #[must_use]
    pub fn seed(mut self, seed: u64) -> Self {
        self.inner.seed = seed;
        self
    }

    /// Sets the run duration.
    #[must_use]
    pub fn duration(mut self, d: SimDuration) -> Self {
        self.inner.duration = d;
        self
    }

    /// Injects a controller fault on the primary at `at`.
    #[must_use]
    pub fn fault_at(mut self, at: SimTime, fault: ActuatorFault) -> Self {
        self.inner.fault = Some((at, fault));
        self
    }

    /// Crashes VC 0's primary node at `at`.
    #[must_use]
    pub fn crash_primary_at(self, at: SimTime) -> Self {
        self.crash_vc_primary_at(0, at)
    }

    /// Crashes VC `vc`'s primary node at `at` (per-VC fault injection);
    /// a VC the scenario does not host is rejected at build time.
    #[must_use]
    pub fn crash_vc_primary_at(mut self, vc: VcId, at: SimTime) -> Self {
        self.inner.primary_crashes.push((vc, at));
        self
    }

    /// Injects a controller fault on the first backup at `at`
    /// (double-fault scenarios exercising the fail-safe path).
    #[must_use]
    pub fn backup_fault_at(mut self, at: SimTime, fault: ActuatorFault) -> Self {
        self.inner.backup_fault = Some((at, fault));
        self
    }

    /// Sets the head's reconfiguration epoch (zero = immediate).
    #[must_use]
    pub fn reconfig_epoch(mut self, epoch: SimDuration) -> Self {
        self.inner.reconfig_epoch = epoch;
        self
    }

    /// Chooses cold-standby mode: a backup must receive the capsule over
    /// the transfer lane before activation, so the scenario also needs
    /// [`ScenarioBuilder::transfer_slots`] of at least 1; without it,
    /// [`ScenarioBuilder::try_build`] fails with
    /// [`TopologyError::ColdStandbyWithoutTransferLane`].
    #[must_use]
    pub fn cold_backup(mut self) -> Self {
        self.inner.warm_backup = false;
        self
    }

    /// Adds uniform extra link loss (E14); `p` outside `[0, 1]` is
    /// rejected at build time.
    #[must_use]
    pub fn extra_loss(mut self, p: f64) -> Self {
        self.inner.extra_loss = p;
        self
    }

    /// Crashes an arbitrary node at `at` (sensors, actuators, the head).
    /// A node the deployment does not have is rejected by the setup
    /// check ([`TopologyError::FaultOnMissingNode`]).
    #[must_use]
    pub fn crash_node_at(mut self, node: evm_netsim::NodeId, at: SimTime) -> Self {
        self.inner
            .fault_plan
            .add_crash(evm_netsim::NodeCrash::permanent(node, at));
        self
    }

    /// Adds Gaussian measurement noise at the sensor interface; a
    /// negative or non-finite `std` is rejected at build time.
    #[must_use]
    pub fn sensor_noise(mut self, std: f64) -> Self {
        self.inner.sensor_noise_std = std;
        self
    }

    /// Reserves `n` dedicated capsule-transfer slots per VC in every
    /// epoch schedule, enabling live capsule migration on head
    /// re-election and cold-standby promotion (0 = disabled, the
    /// default; cold standby needs at least 1).
    #[must_use]
    pub fn transfer_slots(mut self, n: usize) -> Self {
        self.inner.transfer_slots = n;
        self
    }

    /// Pads every shipped capsule image with `bytes` extra bytes — the
    /// image-size axis of the failover-latency sweep.
    #[must_use]
    pub fn capsule_pad_bytes(mut self, bytes: usize) -> Self {
        self.inner.capsule_pad_bytes = bytes;
        self
    }

    /// Sets the per-chunk retransmission budget of live capsule
    /// transfers.
    #[must_use]
    pub fn migration_max_retries(mut self, n: usize) -> Self {
        self.inner.migration_max_retries = n;
        self
    }

    /// Fault injection: corrupts chunk `seq` of the next live transfer
    /// exactly once in flight (the receiver must drop it and the sender
    /// retransmit).
    #[must_use]
    pub fn corrupt_transfer_chunk(mut self, seq: usize) -> Self {
        self.inner.corrupt_transfer_chunk = Some(seq);
        self
    }

    /// Fault injection: tampers the shipped capsule's gas budget after
    /// its digest is advertised, so arrival attestation must reject it.
    #[must_use]
    pub fn tamper_gas_budget(mut self) -> Self {
        self.inner.tamper_gas_budget = true;
        self
    }

    /// Sets the fault-detection parameters; a negative threshold or zero
    /// consecutive count is rejected at build time.
    #[must_use]
    pub fn detection(mut self, threshold: f64, consecutive: u32) -> Self {
        self.inner.detect_threshold = threshold;
        self.inner.detect_consecutive = consecutive;
        self
    }

    /// Finishes the scenario, materializing the layout (star unless a
    /// `line`/`grid`/`clustered` knob switched it) unless an explicit
    /// topology was set. `.vcs(n)` / `.clustered(n)` with `n > 1` also
    /// derives the hosting manifest ([`Scenario::host_vcs`]).
    ///
    /// # Errors
    ///
    /// [`TopologyError`] if the layout cannot build the shape
    /// ([`TopologyShape::materialize`]), a knob breaks its rule, or a
    /// scripted crash targets a VC the scenario does not host — the
    /// scenario stage of [`crate::runtime::check_setup`]. The deployment
    /// stages (role counts, routes, schedule) run at engine setup.
    #[deny(clippy::panic_in_result_fn)]
    pub fn try_build(mut self) -> Result<Scenario, TopologyError> {
        let hosted = if self.explicit_topology {
            self.inner.n_vcs()
        } else {
            self.inner.topology = self.shape.materialize()?;
            self.shape.vcs
        };
        // Checked before re-hosting, which would drop the crashes on VCs
        // the layout does not host.
        check_scenario(&self.inner, hosted)?;
        if hosted != self.inner.n_vcs() {
            self.inner.host_vcs(hosted);
        }
        Ok(self.inner)
    }

    /// [`ScenarioBuilder::try_build`] for tests and examples.
    ///
    /// # Panics
    ///
    /// Panics with the error of [`ScenarioBuilder::try_build`].
    #[must_use]
    pub fn build(self) -> Scenario {
        self.try_build().unwrap_or_else(|e| panic!("{e}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::topo::Role;

    #[test]
    fn fig6b_matches_paper_timings() {
        let s = Scenario::fig6b();
        let (at, fault) = s.fault.expect("fault scripted");
        assert_eq!(at, SimTime::from_secs(300));
        assert_eq!(fault, ActuatorFault::StuckOutput(75.0));
        assert_eq!(s.reconfig_epoch, SimDuration::from_secs(300));
        assert_eq!(s.demote_dormant_after, SimDuration::from_secs(200));
        assert!(s.warm_backup);
    }

    #[test]
    fn builder_flows() {
        let s = Scenario::builder()
            .seed(7)
            .duration(SimDuration::from_secs(100))
            .extra_loss(0.25)
            .detection(2.0, 5)
            .cold_backup()
            .transfer_slots(1)
            .build();
        assert_eq!(s.seed, 7);
        assert_eq!(s.extra_loss, 0.25);
        assert_eq!(s.detect_consecutive, 5);
        assert!(!s.warm_backup);
    }

    #[test]
    #[should_panic(expected = "loss out of")]
    fn bad_loss_rejected() {
        let _ = Scenario::builder().extra_loss(1.5).build();
    }

    #[test]
    fn default_build_is_fig5() {
        let s = Scenario::builder().build();
        assert_eq!(s.topology, TopologySpec::fig5());
        assert_eq!(Scenario::fig5().topology, TopologySpec::fig5());
    }

    #[test]
    fn star_dsl_expands_roles() {
        let s = ScenarioBuilder::star()
            .sensors(2)
            .controllers(3)
            .head(true)
            .build();
        // GW + 2 sensors + 3 controllers + 1 actuator + head.
        assert_eq!(s.topology.nodes.len(), 8);
        let ctrls = s
            .topology
            .nodes
            .iter()
            .filter(|n| matches!(n.role, Role::Controller(_)))
            .count();
        assert_eq!(ctrls, 3);
    }

    #[test]
    fn minimal_dsl_is_three_nodes() {
        let s = ScenarioBuilder::minimal().build();
        assert_eq!(s.topology.nodes.len(), 3);
        assert!(s.topology.nodes.iter().all(|n| n.role != Role::Head));
    }

    #[test]
    fn vcs_builder_hosts_canonical_loops() {
        let s = ScenarioBuilder::star().vcs(3).build();
        assert_eq!(s.n_vcs(), 3);
        assert_eq!(s.vc_loop(0).name, "LC-LTS");
        assert_eq!(s.vc_loop(1).name, "LC-InletSep");
        assert_eq!(s.vc_loop(2).name, "TC-Chiller");
        assert_eq!(s.topology.n_vcs(), 3);
        assert!(s.sampled_tags.contains(&"Chiller.OutletTempK".to_string()));
        // Single-VC builds stay manifest-free.
        let solo = ScenarioBuilder::star().build();
        assert_eq!(solo.n_vcs(), 1);
        assert!(solo.extra_vc_loops.is_empty());
    }

    /// The topo-layer focus-register table agrees with the ModBus map for
    /// every loop of the canonical hosting order (the cross-check engine
    /// construction enforces per deployment).
    #[test]
    fn vc_focus_registers_match_the_canonical_loops() {
        use crate::runtime::topo::VC_FOCUS_REGISTERS;
        let regmap = evm_plant::RegisterMap::gas_plant_standard();
        for (k, l) in evm_plant::vc_host_loops().iter().enumerate() {
            assert_eq!(
                regmap.input_register_of(&l.pv_tag),
                Some(VC_FOCUS_REGISTERS[k]),
                "{}",
                l.name
            );
            assert!(
                regmap.holding_register_of(&l.op_tag).is_some(),
                "{}",
                l.name
            );
        }
    }

    #[test]
    #[should_panic(expected = "vc count out of")]
    fn bad_vc_count_rejected() {
        let _ = Scenario::builder().vcs(9).build();
    }

    /// Re-hosting a smaller pool drops the outgoing loops' PV tags, so a
    /// `vcs` sweep axis over a multi-VC template records no phantom
    /// series and cells stay comparable across template shapes.
    #[test]
    fn rehosting_smaller_pool_drops_phantom_tags() {
        let mut s = ScenarioBuilder::star().vcs(4).build();
        assert!(s.sampled_tags.contains(&"SalesGas.MolarFlow".to_string()));
        s.host_vcs(2);
        assert_eq!(s.n_vcs(), 2);
        assert!(s.sampled_tags.contains(&"InletSep.LevelPct".to_string()));
        assert!(!s.sampled_tags.contains(&"SalesGas.MolarFlow".to_string()));
        assert!(!s.sampled_tags.contains(&"Chiller.OutletTempK".to_string()));
        // The baseline tags survive untouched.
        assert!(s.sampled_tags.contains(&"LTS.LiquidPct".to_string()));
        assert!(s.sampled_tags.contains(&"TowerFeed.MolarFlow".to_string()));
    }

    /// Scripted crashes follow the pool: shrinking below a crash's
    /// target VC drops the crash, so a `vcs` sweep axis over a faulted
    /// multi-VC template never builds a cell that would abort mid-run.
    #[test]
    fn rehosting_drops_crashes_on_unhosted_vcs() {
        let mut s = Scenario::builder()
            .vcs(2)
            .crash_vc_primary_at(1, SimTime::from_secs(50))
            .crash_vc_primary_at(0, SimTime::from_secs(60))
            .build();
        assert_eq!(s.primary_crashes.len(), 2);
        s.host_vcs(1);
        assert_eq!(s.primary_crashes, vec![(0, SimTime::from_secs(60))]);
    }

    #[test]
    fn explicit_topology_wins() {
        let spec = TopologySpec::minimal(22.0);
        let s = Scenario::builder().topology(spec.clone()).build();
        assert_eq!(s.topology, spec);
        // ...even when star knobs are touched afterwards.
        let s = Scenario::builder()
            .topology(spec.clone())
            .radius_m(99.0)
            .controllers(4)
            .build();
        assert_eq!(s.topology, spec);
    }
}
