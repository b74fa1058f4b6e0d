//! Topology specification and schedule synthesis.
//!
//! A [`TopologySpec`] describes the node set of a deployment by *role*
//! (gateway / sensor / controller / actuator / head) instead of by
//! well-known node id. The runtime resolves roles into a [`VcMap`] — one
//! [`RoleMap`] per hosted Virtual Component — and synthesizes the RT-Link
//! flow pipeline from it, so the same engine runs the paper's seven-node
//! Fig. 5 testbed, a wide star with extra sensors and controllers, a
//! degenerate three-node loop, or several concurrent control loops sharing
//! one gateway and one RT-Link cycle, without code changes.
//!
//! # `VcId` addressing convention
//!
//! Every non-gateway node belongs to exactly one Virtual Component,
//! identified by a dense [`VcId`] (`0..n_vcs`). VC `0` is the paper's
//! focus loop (LC-LTS by default); higher ids host additional plant loops
//! in the canonical order of [`evm_plant::vc_host_loops`]. Role indices
//! (sensor tags, controller precedence, actuator index) are *per VC*:
//! `(vc, Sensor(0))` is VC `vc`'s focus PV sensor. The gateway is shared
//! by every VC and carries no meaningful VC tag of its own. Frames and
//! flow semantics carry the `VcId` explicitly, so one shared TDMA cycle
//! closes every hosted loop without cross-talk.

use std::collections::{BTreeMap, HashSet};
use std::hash::{BuildHasherDefault, Hasher};

use evm_mac::rtlink::{Flow, ScheduleError};
use evm_netsim::{Channel, NodeId, NodeInfo, NodeKind, Position, Topology};
use evm_sim::SimTime;

use crate::runtime::scenario::Layout;

/// Identifies one Virtual Component hosted by the deployment (dense,
/// starting at 0; VC 0 is the focus loop). `u16` so a fleet deployment
/// can host tens of thousands of VCs in one process; the star family
/// stays bounded by [`MAX_VCS`].
pub type VcId = u16;

/// The largest VC pool one deployment can host — bounded by the eight
/// plant loops of §4.2 ([`evm_plant::vc_host_loops`]).
pub const MAX_VCS: usize = 8;

/// The role a node plays in its Virtual Component's control loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Role {
    /// ModBus bridge to the plant; origin of HIL downlinks, sink of
    /// actuation forwards (and the actuation endpoint for every VC whose
    /// topology has no actuator node). Shared by all VCs.
    Gateway,
    /// Publishes one plant signal. Sensor `0` carries its VC's focus PV;
    /// higher indices are monitoring flows.
    Sensor(u8),
    /// Hosts a replica of its VC's control capsule. Controller `0` starts
    /// as the Active primary; higher indices are backups.
    Controller(u8),
    /// Drives its VC's valve from accepted controller outputs. At most
    /// one per Virtual Component — controller outputs address a single
    /// actuation endpoint.
    Actuator(u8),
    /// A Virtual Component's head: arbitration and the control plane.
    Head,
    /// A dedicated store-and-forward node extending its VC's reach beyond
    /// one radio hop. Relays own no control state: the routing pass
    /// ([`route_flows`]) assigns them forwarding jobs, and any node can
    /// forward — a `Relay` node just does nothing else.
    Relay(u8),
}

impl Role {
    /// The physical node kind this role maps onto.
    #[must_use]
    pub fn kind(self) -> NodeKind {
        match self {
            Role::Gateway => NodeKind::Gateway,
            Role::Sensor(_) => NodeKind::Sensor,
            Role::Controller(_) | Role::Head => NodeKind::Controller,
            Role::Actuator(_) => NodeKind::Actuator,
            Role::Relay(_) => NodeKind::Relay,
        }
    }
}

/// One node of a deployment.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeSpec {
    /// Node identity.
    pub id: NodeId,
    /// The Virtual Component this node belongs to (ignored for the
    /// gateway, which serves every VC).
    pub vc: VcId,
    /// Role in its VC's control loop.
    pub role: Role,
    /// Human-readable label (used in traces, series names and results).
    pub label: String,
    /// Planar position (drives path loss and interference).
    pub position: Position,
    /// For sensors: the ModBus input register this sensor publishes.
    pub register: Option<u16>,
}

/// ModBus input registers handed to monitoring sensors (tags 1..), in
/// order. The first matches the Fig. 5 testbed's tower-feed flow.
const MONITOR_REGISTERS: [u16; 11] = [
    30007, 30002, 30003, 30005, 30006, 30004, 30008, 30009, 30010, 30011, 30012,
];

/// First synthetic input register handed out once [`MONITOR_REGISTERS`]
/// is exhausted, so monitoring sensors past the table never alias.
const MONITOR_OVERFLOW_BASE: u16 = 30013;

/// The input register assigned to the `idx`-th monitoring sensor
/// (0-based; sensor tag `idx + 1`). The first eleven come from the
/// Fig. 5-calibrated table; beyond it, registers are derived uniquely as
/// `30013 + k` instead of wrapping around and silently aliasing earlier
/// monitors.
#[must_use]
pub fn monitor_register(idx: usize) -> u16 {
    match MONITOR_REGISTERS.get(idx) {
        Some(&r) => r,
        None => MONITOR_OVERFLOW_BASE + (idx - MONITOR_REGISTERS.len()) as u16,
    }
}

/// The focus PV input register of each VC, in canonical VC order. Mirrors
/// `RegisterMap::gas_plant_standard` for the pv tags of
/// [`evm_plant::vc_host_loops`] (engine construction cross-checks the
/// two; see `setup.rs`).
pub const VC_FOCUS_REGISTERS: [u16; MAX_VCS] = [
    30001, // LC-LTS: LTS.LiquidPct
    30002, // LC-InletSep: InletSep.LevelPct
    30003, // TC-Chiller: Chiller.OutletTempK
    30004, // FC-SalesGas: SalesGas.MolarFlow
    30008, // PC-Column: Column.PressureKPa
    30009, // LC-Sump: Column.SumpLevelPct
    30010, // LC-RefluxDrum: Column.DrumLevelPct
    30011, // TC-Tray: Column.TrayTempK
];

/// Adjacent-link spacing of the line layout ([`Layout::Line`]),
/// calibrated against the default channel model: 40 m links are loss-free
/// (packet error rate exactly zero) while 80 m skip links are out of
/// range, so a line closes its loop only through the relays.
pub const LINE_SPACING_M: f64 = 40.0;
/// Lattice spacing of the grid layout ([`Layout::Grid`]): 52 m orthogonal
/// links connect, 73.5 m diagonals do not — clean 4-connectivity.
pub const GRID_SPACING_M: f64 = 52.0;
/// Relay-chain hop of the clustered layout ([`Layout::Clustered`];
/// loss-free).
pub const CLUSTER_HOP_M: f64 = 40.0;
/// Cluster disc radius of the clustered layout ([`Layout::Clustered`]):
/// intra-cluster links stay within a few meters, far below any loss.
pub const CLUSTER_RING_M: f64 = 2.0;

/// Why [`TopologySpec::seat_vc`] rejects a shape: role and relay indices
/// are `u8`.
const SEAT_RULE: &str = "a VC seats at most 256 sensors, controllers, actuators or relays";

/// `Ctrl-A`, `Ctrl-B`, … (wraps to `Ctrl-27` past the alphabet).
fn controller_label(prefix: &str, i: usize) -> String {
    if i < 26 {
        format!("{prefix}Ctrl-{}", char::from(b'A' + i as u8))
    } else {
        format!("{prefix}Ctrl-{i}")
    }
}

/// Per-VC role counts: the role set every layout seats for each of its
/// Virtual Components ([`crate::runtime::TopologyShape::materialize`]),
/// and one value of the sweep grid's role-count axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StarShape {
    /// Sensor nodes (≥ 1; sensor 0 carries the focus PV).
    pub sensors: usize,
    /// Controller replicas (≥ 1; the first is the initial primary).
    pub controllers: usize,
    /// Actuator nodes (0 routes actuation through the gateway).
    pub actuators: usize,
    /// Whether the Virtual Component head is deployed.
    pub head: bool,
}

impl StarShape {
    /// The paper's Fig. 5 testbed shape (2 sensors, 2 controllers,
    /// 1 actuator, head).
    #[must_use]
    pub fn fig5() -> Self {
        StarShape {
            sensors: 2,
            controllers: 2,
            actuators: 1,
            head: true,
        }
    }

    /// A shape with `n` controller replicas, otherwise Fig. 5.
    #[must_use]
    pub fn with_controllers(n: usize) -> Self {
        StarShape {
            controllers: n,
            ..StarShape::fig5()
        }
    }

    /// Reads the per-VC shape off an existing topology spec: VC 0's role
    /// counts, which for the symmetric multi-VC layouts is every VC's
    /// shape.
    #[must_use]
    pub fn of_spec(spec: &TopologySpec) -> Self {
        let count = |pred: fn(&Role) -> bool| {
            spec.nodes
                .iter()
                .filter(|n| n.vc == 0 && pred(&n.role))
                .count()
        };
        StarShape {
            sensors: count(|r| matches!(r, Role::Sensor(_))),
            controllers: count(|r| matches!(r, Role::Controller(_))),
            actuators: count(|r| matches!(r, Role::Actuator(_))),
            head: spec.nodes.iter().any(|n| n.vc == 0 && n.role == Role::Head),
        }
    }

    /// Stable label, e.g. `s2c3a1h` (trailing `h` iff the head is present).
    #[must_use]
    pub fn label(&self) -> String {
        format!(
            "s{}c{}a{}{}",
            self.sensors,
            self.controllers,
            self.actuators,
            if self.head { "h" } else { "" }
        )
    }
}

impl NodeSpec {
    /// The gateway every deployment shares: node 0 at the origin.
    pub(crate) fn gateway() -> Self {
        NodeSpec {
            id: NodeId(0),
            vc: 0,
            role: Role::Gateway,
            label: "GW".to_string(),
            position: Position::new(0.0, 0.0),
            register: None,
        }
    }
}

/// A deployment described by roles.
#[derive(Debug, Clone, PartialEq)]
pub struct TopologySpec {
    /// The node set. The gateway must be present exactly once.
    pub nodes: Vec<NodeSpec>,
    /// Explicit bidirectional links. `None` (the default everywhere but
    /// fleet deployments) derives connectivity from the channel model;
    /// `Some` bypasses the O(n²) derivation and uses exactly these links
    /// — required at fleet scale, where channel-derived adjacency would
    /// also mesh every co-located cell together.
    pub links: Option<Vec<(NodeId, NodeId)>>,
}

impl TopologySpec {
    /// The paper's Fig. 5 seven-node star: gateway at the center, ring of
    /// S1, Ctrl-A, Ctrl-B, A1, S2 and the head at 15 m.
    #[must_use]
    pub fn fig5() -> Self {
        crate::runtime::TopologyShape::fig5()
            .materialize()
            .expect("the Fig. 5 shape is valid")
    }

    /// Appends VC `vc`'s nodes in the one role order every layout shares:
    /// focus sensor `S1`, controllers `Ctrl-A..`, actuators `A1..`,
    /// monitoring sensors `S2..`, the head, then `backups + 1` relay
    /// chains of `chain` hops each — the primary `R1..`, then `RB1..`,
    /// `RB2.1..` and so on, hop `k` of chain `b` being relay
    /// `chain·b + k − 1`. VC `k > 0` labels carry a `Vk.` prefix. Ids
    /// continue from the spec's last node. The focus sensor reads its
    /// VC's loop PV ([`VC_FOCUS_REGISTERS`]), monitor `k` the `k`-th
    /// monitor register ([`monitor_register`]).
    ///
    /// `place` maps each seat — its ordinal in this order and its role —
    /// to a position: the layout is nothing but that map.
    ///
    /// # Errors
    ///
    /// The rule broken when a role or relay index does not fit a `u8`.
    pub(crate) fn seat_vc(
        &mut self,
        vc: VcId,
        roles: &StarShape,
        chain: usize,
        backups: usize,
        place: impl Fn(usize, Role) -> Position,
    ) -> Result<(), &'static str> {
        let index = |i: usize| u8::try_from(i).map_err(|_| SEAT_RULE);
        let prefix = if vc == 0 {
            String::new()
        } else {
            format!("V{vc}.")
        };
        let first = self.nodes.len();
        let mut seat = |role: Role, label: String| {
            let register = match role {
                Role::Sensor(0) => VC_FOCUS_REGISTERS.get(usize::from(vc)).copied(),
                Role::Sensor(tag) => Some(monitor_register(usize::from(tag) - 1)),
                _ => None,
            };
            let i = self.nodes.len() - first;
            self.nodes.push(NodeSpec {
                // At most MAX_VCS × 1,025 seats: ids fit a u16.
                id: NodeId(self.nodes.len() as u16),
                vc,
                role,
                label,
                position: place(i, role),
                register,
            });
        };
        if roles.sensors > 0 {
            seat(Role::Sensor(0), format!("{prefix}S1"));
        }
        for i in 0..roles.controllers {
            seat(Role::Controller(index(i)?), controller_label(&prefix, i));
        }
        for j in 0..roles.actuators {
            seat(Role::Actuator(index(j)?), format!("{prefix}A{}", j + 1));
        }
        for k in 1..roles.sensors {
            seat(Role::Sensor(index(k)?), format!("{prefix}S{}", k + 1));
        }
        if roles.head {
            seat(Role::Head, format!("{prefix}Head"));
        }
        let relays = backups
            .checked_add(1)
            .and_then(|n| n.checked_mul(chain))
            .ok_or(SEAT_RULE)?;
        for r in 0..relays {
            let (b, k) = (r / chain, r % chain + 1);
            let label = match b {
                0 => format!("{prefix}R{k}"),
                1 => format!("{prefix}RB{k}"),
                _ => format!("{prefix}RB{b}.{k}"),
            };
            seat(Role::Relay(index(r)?), label);
        }
        Ok(())
    }

    /// A fleet deployment: one shared gateway and `n` minimal Virtual
    /// Components (focus sensor + one controller each, no head, no
    /// actuator — the gateway is every VC's actuation endpoint), built
    /// for the 10k-VC scale the fleet engine targets. VC `k`'s pair sits
    /// at angle `2πk/n` on a 12 m ring; ids are `S = 1 + 2k`,
    /// `C = 2 + 2k`; labels `Fk.S` / `Fk.C`. Each VC's sensor reads the
    /// focus register of canonical loop `k % MAX_VCS`
    /// ([`VC_FOCUS_REGISTERS`]), mirroring the cycled loop hosting of
    /// `Scenario::fleet`.
    ///
    /// Connectivity is **explicit** (`links`): gateway↔sensor,
    /// gateway↔controller and sensor↔controller per VC — every flow is
    /// single-hop, and the O(n²) channel derivation (which would mesh
    /// all co-located cells) is bypassed. Node ids are `u16`, so past
    /// 32767 VCs they wrap and the spec check reports a duplicate id.
    #[must_use]
    pub fn fleet(n: usize) -> Self {
        let mut nodes = Vec::with_capacity(1 + 2 * n);
        let mut links = Vec::with_capacity(3 * n);
        nodes.push(NodeSpec::gateway());
        for k in 0..n {
            let vc = k as VcId;
            let angle = 2.0 * std::f64::consts::PI * k as f64 / n as f64;
            let pos = Position::new(12.0 * angle.cos(), 12.0 * angle.sin());
            let sensor = NodeId((1 + 2 * k) as u16);
            let ctrl = NodeId((2 + 2 * k) as u16);
            nodes.push(NodeSpec {
                id: sensor,
                vc,
                role: Role::Sensor(0),
                label: format!("F{k}.S"),
                position: pos,
                register: Some(VC_FOCUS_REGISTERS[k % MAX_VCS]),
            });
            nodes.push(NodeSpec {
                id: ctrl,
                vc,
                role: Role::Controller(0),
                label: format!("F{k}.C"),
                position: pos,
                register: None,
            });
            links.push((NodeId(0), sensor));
            links.push((NodeId(0), ctrl));
            links.push((sensor, ctrl));
        }
        TopologySpec {
            nodes,
            links: Some(links),
        }
    }

    /// Number of Virtual Components the spec hosts (1 + highest VC tag).
    #[must_use]
    pub fn n_vcs(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| n.role != Role::Gateway)
            .map(|n| n.vc as usize + 1)
            .max()
            .unwrap_or(1)
    }

    /// Resolves the spec into the physical [`Topology`] plus the
    /// [`VcMap`] used for dispatch. Consumes the spec: the node labels
    /// move into the [`Topology`] instead of being copied.
    ///
    /// # Errors
    ///
    /// [`TopologyError`] on a malformed spec: no gateway, duplicate ids or
    /// labels, non-contiguous VC, role or relay indices, a missing focus sensor
    /// or controller, a sensor without a register, or more than one
    /// actuator/head per VC.
    #[deny(clippy::panic_in_result_fn)]
    pub fn try_into_resolved(
        self,
        channel: &mut Channel,
    ) -> Result<(Topology, VcMap), TopologyError> {
        let map = VcMap::try_from_spec(&self)?;
        let infos = self
            .nodes
            .into_iter()
            .map(|n| NodeInfo::new(n.id, n.role.kind(), n.position, n.label))
            .collect();
        let topology = match &self.links {
            Some(links) => Topology::with_links(infos, links),
            None => Topology::derive(infos, channel),
        };
        Ok((topology, map))
    }
}

/// A scenario that cannot be built or set up: a knob out of its range, a
/// topology shape its layout cannot build, a malformed [`TopologySpec`],
/// a hosting manifest, crash script or loop register that does not fit
/// it, or flows that cannot be routed or scheduled. Reported per cell
/// instead of aborting a whole sweep.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TopologyError {
    /// No gateway node in the spec.
    MissingGateway,
    /// More than one gateway node.
    DuplicateGateway,
    /// Two nodes share an id.
    DuplicateNodeId(NodeId),
    /// Two nodes share a label (per-node results are keyed by label).
    DuplicateLabel(String),
    /// Two of a run's series would share this name: two VCs host loops
    /// of one name (each VC keeps an `Err.<loop>` trace), or a sampled
    /// tag is spelled like a controller's `Mode.<label>` or a VC's
    /// `Err.<loop>` trace.
    DuplicateSeriesName(String),
    /// A node's position has a NaN or infinite coordinate, which the
    /// link model cannot turn into a distance.
    NonFinitePosition(NodeId),
    /// A sensor node has no input register.
    MissingSensorRegister(NodeId),
    /// A VC has two head nodes.
    DuplicateHead(VcId),
    /// A VC has no sensor 0 (or its sensor tags are not dense `0..n`).
    NonContiguousSensors(VcId),
    /// A VC has no controller 0 (or its indices are not dense `0..n`).
    NonContiguousControllers(VcId),
    /// A VC's relay indices are not dense `0..n`.
    NonContiguousRelays(VcId),
    /// A VC has no sensor at all.
    MissingFocusSensor(VcId),
    /// A VC has no controller at all.
    MissingController(VcId),
    /// A VC has more than one actuator node.
    MultipleActuators(VcId),
    /// The topology hosts a different number of VCs than the scenario's
    /// hosting manifest names loops.
    ManifestMismatch {
        /// VCs the topology hosts.
        topology: usize,
        /// Loops the manifest names.
        manifest: usize,
    },
    /// A scripted crash or link blackout of the scenario's fault plan
    /// names a node the deployment does not have.
    FaultOnMissingNode {
        /// The named node.
        node: NodeId,
        /// When the crash or blackout was scripted to start.
        at: SimTime,
    },
    /// A scripted primary crash targets a VC the deployment does not host.
    CrashOnUnhostedVc {
        /// The targeted VC.
        vc: VcId,
        /// When the crash was scripted.
        at: SimTime,
        /// VCs the deployment hosts.
        hosted: usize,
    },
    /// A flow cannot be routed over the physical connectivity.
    Unroutable(RouteError),
    /// The routed flows (or the transfer lane after them) do not fit the
    /// RT-Link cycle.
    Unschedulable(ScheduleError),
    /// A timing knob that paces the run is zero; names the scenario
    /// field (`plant_dt`, `sample_every`, `rtlink.slot_duration` or
    /// `heartbeat_cycles`).
    ZeroTiming(&'static str),
    /// Backups are cold standby but the scenario reserves no transfer
    /// slots: a cold backup receives the task over the transfer lane
    /// before it can be promoted, so without one no failover could
    /// ever commit.
    ColdStandbyWithoutTransferLane,
    /// A scalar knob breaks its rule; names the scenario field
    /// (`extra_loss`, `sensor_noise_std`, `detect_threshold`,
    /// `detect_consecutive` or `rtlink.slots_per_cycle`) and the rule.
    InvalidKnob {
        /// The scenario field.
        knob: &'static str,
        /// The rule it breaks.
        rule: &'static str,
    },
    /// A topology shape its layout family cannot build: a VC count out
    /// of the family's range, backup relays without a relay chain, a
    /// zero-hop line, a lattice too small to seat every role, or more
    /// sensors, controllers, actuators or relays per VC than a `u8`
    /// index can number.
    InvalidShape {
        /// The layout family and size asked for.
        layout: Layout,
        /// The VC count asked for.
        vcs: usize,
        /// The layout rule the shape breaks.
        rule: &'static str,
    },
    /// A VC's hosted loop does not fit the plant's register map: its PV
    /// or OP tag has no register, or its focus sensor reads another
    /// register than the loop's PV.
    LoopRegister {
        /// The VC.
        vc: VcId,
        /// The register rule it breaks.
        rule: &'static str,
    },
}

impl std::fmt::Display for TopologyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TopologyError::MissingGateway => write!(f, "topology needs a gateway"),
            TopologyError::DuplicateGateway => write!(f, "two gateways in topology spec"),
            TopologyError::DuplicateNodeId(n) => write!(f, "duplicate node id {n}"),
            TopologyError::DuplicateLabel(l) => write!(f, "duplicate node label {l:?}"),
            TopologyError::DuplicateSeriesName(n) => write!(
                f,
                "two series named {n:?}: loop names and sampled tags must name every series once"
            ),
            TopologyError::NonFinitePosition(n) => {
                write!(f, "node {n} needs a finite position")
            }
            TopologyError::MissingSensorRegister(n) => {
                write!(f, "sensor {n} needs an input register")
            }
            TopologyError::DuplicateHead(vc) => write!(f, "two heads in VC {vc}"),
            TopologyError::NonContiguousSensors(vc) => {
                write!(f, "VC {vc} sensor tags must be 0..n contiguous")
            }
            TopologyError::NonContiguousControllers(vc) => {
                write!(f, "VC {vc} controller indices must be 0..n contiguous")
            }
            TopologyError::NonContiguousRelays(vc) => {
                write!(f, "VC {vc} relay indices must be 0..n contiguous")
            }
            TopologyError::MissingFocusSensor(vc) => {
                write!(f, "VC {vc} needs its focus sensor")
            }
            TopologyError::MissingController(vc) => write!(f, "VC {vc} needs a controller"),
            TopologyError::MultipleActuators(vc) => write!(
                f,
                "VC {vc} has multiple actuators: controller outputs address a \
                 single actuation endpoint"
            ),
            TopologyError::ManifestMismatch { topology, manifest } => write!(
                f,
                "topology hosts {topology} VC(s) but the scenario's manifest names \
                 {manifest} loop(s); pair a multi-VC topology with `Scenario::host_vcs`, \
                 as `.vcs(n)` does"
            ),
            TopologyError::FaultOnMissingNode { node, at } => write!(
                f,
                "fault at {at} targets node {node}, which the deployment does not have"
            ),
            TopologyError::CrashOnUnhostedVc { vc, at, hosted } => write!(
                f,
                "crash at {at} targets VC {vc}, but the deployment hosts only {hosted} VC(s)"
            ),
            TopologyError::Unroutable(e) => write!(f, "topology flows must route: {e}"),
            TopologyError::Unschedulable(e) => write!(f, "topology flows must schedule: {e}"),
            TopologyError::ZeroTiming(knob) => write!(f, "timing knob `{knob}` must be positive"),
            TopologyError::ColdStandbyWithoutTransferLane => write!(
                f,
                "cold-standby backups receive the task over the transfer lane; \
                 reserve `transfer_slots` >= 1"
            ),
            TopologyError::InvalidKnob { knob, rule } => write!(f, "scenario knob {knob} {rule}"),
            TopologyError::InvalidShape { layout, vcs, rule } => {
                write!(f, "{rule}: {vcs}-VC {} layout", layout.label())
            }
            TopologyError::LoopRegister { vc, rule } => write!(f, "VC {vc}: {rule}"),
        }
    }
}

impl std::error::Error for TopologyError {}

/// FNV-1a, for the uniqueness sets of the setup check (node labels,
/// loop names): names are short, and a spec is no adversary a keyed
/// hash would guard against.
pub(super) struct Fnv1a(u64);

impl Default for Fnv1a {
    fn default() -> Self {
        Fnv1a(0xcbf2_9ce4_8422_2325)
    }
}

impl Hasher for Fnv1a {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// The deployment-wide checks of [`VcMap::try_from_spec`], in order:
/// finite positions (a NaN distance would otherwise read as a perfect
/// link), unique node ids, unique labels (a run's per-node energy and
/// mode series are keyed by label), then exactly one gateway, whose id
/// is returned. A duplicate is reported at its first repeat in spec
/// order: the id (or label) of the first node that reuses an earlier
/// node's.
fn check_nodes(spec: &TopologySpec) -> Result<NodeId, TopologyError> {
    if let Some(n) = spec
        .nodes
        .iter()
        .find(|n| !(n.position.x.is_finite() && n.position.y.is_finite()))
    {
        return Err(TopologyError::NonFinitePosition(n.id));
    }
    // Ids are dense small integers: a by-raw-id table finds repeats in
    // one pass.
    let max_id = spec.nodes.iter().map(|n| n.id.index()).max().unwrap_or(0);
    let mut seen = vec![false; max_id + 1];
    for n in &spec.nodes {
        if std::mem::replace(&mut seen[n.id.index()], true) {
            return Err(TopologyError::DuplicateNodeId(n.id));
        }
    }
    let mut labels: HashSet<&str, BuildHasherDefault<Fnv1a>> =
        HashSet::with_capacity_and_hasher(spec.nodes.len(), BuildHasherDefault::default());
    if let Some(n) = spec.nodes.iter().find(|n| !labels.insert(&n.label)) {
        return Err(TopologyError::DuplicateLabel(n.label.clone()));
    }
    let mut gateway = None;
    for n in &spec.nodes {
        if n.role == Role::Gateway {
            if gateway.is_some() {
                return Err(TopologyError::DuplicateGateway);
            }
            gateway = Some(n.id);
        }
    }
    gateway.ok_or(TopologyError::MissingGateway)
}

/// Role-resolved addressing for **one** Virtual Component: who plays
/// which part, in deterministic order.
#[derive(Debug, Clone, PartialEq)]
pub struct RoleMap {
    /// The Virtual Component this role set belongs to.
    pub vc: VcId,
    /// The (shared) gateway node.
    pub gateway: NodeId,
    /// The VC's head, if deployed.
    pub head: Option<NodeId>,
    /// Sensors by tag (index 0 is the VC's focus PV sensor).
    pub sensors: Vec<NodeId>,
    /// Controllers in precedence order (index 0 is the initial primary).
    pub controllers: Vec<NodeId>,
    /// Actuators in index order (may be empty: the gateway then accepts
    /// controller outputs directly).
    pub actuators: Vec<NodeId>,
    /// Dedicated relay nodes in index order (may be empty: single-hop
    /// deployments, or multi-hop routes carried by role nodes).
    pub relays: Vec<NodeId>,
    /// ModBus input register backing each sensor tag.
    pub sensor_registers: Vec<u16>,
}

impl RoleMap {
    /// Resolves VC `vc`'s roles from its nodes, given in spec order
    /// (gateway nodes among them are skipped).
    fn try_from_nodes<'a>(
        vc: VcId,
        gateway: NodeId,
        nodes: impl IntoIterator<Item = &'a NodeSpec>,
    ) -> Result<Self, TopologyError> {
        let mut head = None;
        let mut sensors: Vec<(u8, NodeId, u16)> = Vec::new();
        let mut controllers: Vec<(u8, NodeId)> = Vec::new();
        let mut actuators: Vec<(u8, NodeId)> = Vec::new();
        let mut relays: Vec<(u8, NodeId)> = Vec::new();
        for n in nodes {
            match n.role {
                Role::Gateway => continue,
                Role::Head => {
                    if head.is_some() {
                        return Err(TopologyError::DuplicateHead(vc));
                    }
                    head = Some(n.id);
                }
                Role::Sensor(tag) => {
                    let reg = n
                        .register
                        .ok_or(TopologyError::MissingSensorRegister(n.id))?;
                    sensors.push((tag, n.id, reg));
                }
                Role::Controller(i) => controllers.push((i, n.id)),
                Role::Actuator(i) => actuators.push((i, n.id)),
                Role::Relay(i) => relays.push((i, n.id)),
            }
        }
        sensors.sort_by_key(|&(tag, _, _)| tag);
        controllers.sort_by_key(|&(i, _)| i);
        actuators.sort_by_key(|&(i, _)| i);
        relays.sort_by_key(|&(i, _)| i);
        if sensors.is_empty() {
            return Err(TopologyError::MissingFocusSensor(vc));
        }
        if controllers.is_empty() {
            return Err(TopologyError::MissingController(vc));
        }
        if sensors
            .iter()
            .enumerate()
            .any(|(expect, &(tag, _, _))| tag as usize != expect)
        {
            return Err(TopologyError::NonContiguousSensors(vc));
        }
        if controllers
            .iter()
            .enumerate()
            .any(|(expect, &(i, _))| i as usize != expect)
        {
            return Err(TopologyError::NonContiguousControllers(vc));
        }
        if relays
            .iter()
            .enumerate()
            .any(|(expect, &(i, _))| i as usize != expect)
        {
            return Err(TopologyError::NonContiguousRelays(vc));
        }
        if actuators.len() > 1 {
            return Err(TopologyError::MultipleActuators(vc));
        }
        Ok(RoleMap {
            vc,
            gateway,
            head,
            sensor_registers: sensors.iter().map(|&(_, _, r)| r).collect(),
            sensors: sensors.into_iter().map(|(_, id, _)| id).collect(),
            controllers: controllers.into_iter().map(|(_, id)| id).collect(),
            actuators: actuators.into_iter().map(|(_, id)| id).collect(),
            relays: relays.into_iter().map(|(_, id)| id).collect(),
        })
    }

    /// The initial primary controller.
    #[must_use]
    pub fn primary(&self) -> NodeId {
        self.controllers[0]
    }

    /// The node controller outputs are addressed to: the first actuator,
    /// or the gateway when the VC has none.
    #[must_use]
    pub fn actuation_endpoint(&self) -> NodeId {
        self.actuators.first().copied().unwrap_or(self.gateway)
    }

    /// `true` if `id` is one of this VC's controllers (the head's monitor
    /// replica does not count).
    #[must_use]
    pub fn is_controller(&self, id: NodeId) -> bool {
        self.controllers.contains(&id)
    }

    /// The sensor tag of `id` within this VC, if it is a sensor.
    #[must_use]
    pub fn sensor_tag(&self, id: NodeId) -> Option<u8> {
        self.sensors.iter().position(|&s| s == id).map(|i| i as u8)
    }
}

/// Role-resolved addressing for the whole deployment: one [`RoleMap`] per
/// hosted Virtual Component plus the shared gateway. This replaces the
/// old engine's single-VC `RoleMap` in every dispatch decision.
#[derive(Debug, Clone, PartialEq)]
pub struct VcMap {
    /// The shared gateway node.
    pub gateway: NodeId,
    /// Per-VC role maps, indexed by [`VcId`].
    pub vcs: Vec<RoleMap>,
}

impl VcMap {
    /// Builds the map from a spec, validating it.
    ///
    /// # Errors
    ///
    /// See [`TopologyError`].
    #[deny(clippy::panic_in_result_fn)]
    pub fn try_from_spec(spec: &TopologySpec) -> Result<Self, TopologyError> {
        let gateway = check_nodes(spec)?;
        // Group the nodes by VC with one stable sort, spec order kept
        // inside each group: what a per-VC scan over the whole spec would
        // visit, without its quadratic cost in fleet deployments, and in
        // one list rather than one per VC.
        let n_vcs = spec.n_vcs();
        let mut by_vc: Vec<&NodeSpec> = spec
            .nodes
            .iter()
            .filter(|n| (n.vc as usize) < n_vcs)
            .collect();
        by_vc.sort_by_key(|n| n.vc);
        let mut rest = by_vc.as_slice();
        let vcs = (0..n_vcs)
            .map(|vc| {
                let (nodes, tail) =
                    rest.split_at(rest.iter().take_while(|n| n.vc as usize == vc).count());
                rest = tail;
                RoleMap::try_from_nodes(vc as VcId, gateway, nodes.iter().copied())
            })
            .collect::<Result<_, _>>()?;
        Ok(VcMap { gateway, vcs })
    }

    /// Number of hosted Virtual Components.
    #[must_use]
    pub fn n_vcs(&self) -> usize {
        self.vcs.len()
    }

    /// The role map of one VC.
    ///
    /// # Panics
    ///
    /// Panics if `vc` is out of range.
    #[must_use]
    pub fn vc(&self, vc: VcId) -> &RoleMap {
        &self.vcs[vc as usize]
    }

    /// The VC whose controller set contains `id`.
    #[must_use]
    pub fn vc_of_controller(&self, id: NodeId) -> Option<VcId> {
        self.vcs.iter().find(|r| r.is_controller(id)).map(|r| r.vc)
    }

    /// The `(vc, tag)` of a sensor node.
    #[must_use]
    pub fn sensor_of(&self, id: NodeId) -> Option<(VcId, u8)> {
        self.vcs
            .iter()
            .find_map(|r| r.sensor_tag(id).map(|t| (r.vc, t)))
    }

    /// The VC whose actuator set contains `id`.
    #[must_use]
    pub fn vc_of_actuator(&self, id: NodeId) -> Option<VcId> {
        self.vcs
            .iter()
            .find(|r| r.actuators.contains(&id))
            .map(|r| r.vc)
    }

    /// The VC headed by `id`.
    #[must_use]
    pub fn vc_of_head(&self, id: NodeId) -> Option<VcId> {
        self.vcs.iter().find(|r| r.head == Some(id)).map(|r| r.vc)
    }

    /// The VC whose dedicated relay set contains `id`.
    #[must_use]
    pub fn vc_of_relay(&self, id: NodeId) -> Option<VcId> {
        self.vcs
            .iter()
            .find(|r| r.relays.contains(&id))
            .map(|r| r.vc)
    }

    /// All controllers across VCs, in `(vc, precedence)` order.
    pub fn all_controllers(&self) -> impl Iterator<Item = (VcId, NodeId)> + '_ {
        self.vcs
            .iter()
            .flat_map(|r| r.controllers.iter().map(move |&c| (r.vc, c)))
    }
}

/// What a slot owner is expected to transmit — the semantic attached to a
/// scheduled flow. The driver hands this to the owner's behavior, which
/// decides the concrete [`crate::runtime::Message`]. Every variant names
/// the Virtual Component it serves, because the shared gateway (and the
/// schedule itself) multiplexes all VCs onto one cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlowKind {
    /// Gateway → sensor: deliver the plant value backing `(vc, tag)` (the
    /// hardware-in-the-loop downlink).
    HilDownlink {
        /// The served Virtual Component.
        vc: VcId,
        /// The sensor tag served.
        tag: u8,
    },
    /// Sensor → subscribers: publish the latest value of `(vc, tag)`.
    SensorPublish {
        /// The publishing Virtual Component.
        vc: VcId,
        /// The published tag.
        tag: u8,
    },
    /// Controller → actuation endpoint (+observers): output, alert or
    /// keepalive.
    ControlPublish {
        /// The computing Virtual Component.
        vc: VcId,
    },
    /// Actuator → gateway: forward the accepted command.
    ActuateForward {
        /// The forwarding Virtual Component.
        vc: VcId,
    },
    /// Head → members: the control plane (reconfig / fail-safe commands).
    ControlPlane {
        /// The commanding Virtual Component.
        vc: VcId,
    },
    /// Store-and-forward hop of a multi-hop route: the owner retransmits
    /// the frame it captured for forwarding job `job` (an index into the
    /// owner's [`RelayJob`] list built by [`route_flows`]). Only the
    /// routing pass emits this kind; `synth_flows` stays single-hop.
    Relay {
        /// The Virtual Component whose flow is being forwarded.
        vc: VcId,
        /// Index into the owner's forwarding-job list.
        job: u8,
    },
    /// Dedicated capsule-transfer slot: the owner ships one fragment of a
    /// migrating capsule image per cycle (live task migration over the
    /// reconfiguration plane). Idle when no transfer is in flight — never
    /// backfilled with keepalives.
    Transfer {
        /// The Virtual Component whose capsule may migrate here.
        vc: VcId,
    },
}

impl FlowKind {
    /// The Virtual Component this flow serves.
    #[must_use]
    pub fn vc(self) -> VcId {
        match self {
            FlowKind::HilDownlink { vc, .. }
            | FlowKind::SensorPublish { vc, .. }
            | FlowKind::ControlPublish { vc }
            | FlowKind::ActuateForward { vc }
            | FlowKind::ControlPlane { vc }
            | FlowKind::Relay { vc, .. }
            | FlowKind::Transfer { vc } => vc,
        }
    }
}

/// Synthesizes the pipeline-ordered flow list for a deployment. Within
/// each VC every flow is chained `after` its predecessor, so each control
/// cycle completes within one RT-Link cycle (objective 5); *across* VCs
/// the chains are independent, which lets `SlotSchedule::place_flows`
/// interleave them and reuse slots spatially where the topology allows.
/// For the Fig. 5 role set this reproduces the testbed's eight flows
/// exactly:
///
/// 1. `GW→S1` downlink, 2. `S1→Ctrl-A` publish (B, head listen), 3./4.
///    controller outputs (later controllers and head listen), 5. `A1→GW`
///    forward, 6. head control plane, then per monitoring sensor its
///    downlink and publish.
#[must_use]
pub fn synth_flows(map: &VcMap) -> Vec<(Flow, FlowKind)> {
    let n_flows = map
        .vcs
        .iter()
        .map(|r| {
            let monitors = r.sensors.len().saturating_sub(1);
            2 + r.controllers.len()
                + r.actuators.len()
                + usize::from(r.head.is_some())
                + 2 * monitors
        })
        .sum();
    let mut flows: Vec<(Flow, FlowKind)> = Vec::with_capacity(n_flows);
    for roles in &map.vcs {
        let vc = roles.vc;
        // Per-VC chain head: each VC's pipeline is after-chained
        // independently of every other VC's.
        let mut last: Option<usize> = None;
        let mut chain = |flows: &mut Vec<(Flow, FlowKind)>, flow: Flow, kind: FlowKind| {
            let flow = match last {
                Some(i) => flow.after(i),
                None => flow,
            };
            last = Some(flows.len());
            flows.push((flow, kind));
        };

        // Focus PV: downlink then publish to every controller replica.
        chain(
            &mut flows,
            Flow::new(roles.gateway, roles.sensors[0]),
            FlowKind::HilDownlink { vc, tag: 0 },
        );
        let mut pv_listeners: Vec<NodeId> = roles.controllers[1..].to_vec();
        pv_listeners.extend(roles.head);
        chain(
            &mut flows,
            Flow::new(roles.sensors[0], roles.primary()).with_listeners(pv_listeners),
            FlowKind::SensorPublish { vc, tag: 0 },
        );

        // Controller outputs, in precedence order. Later-scheduled
        // replicas (and the head) observe each output within the same
        // cycle; this is what feeds the deviation detectors.
        let endpoint = roles.actuation_endpoint();
        for (i, &c) in roles.controllers.iter().enumerate() {
            let mut listeners: Vec<NodeId> = roles.controllers[i + 1..].to_vec();
            listeners.extend(roles.head);
            chain(
                &mut flows,
                Flow::new(c, endpoint).with_listeners(listeners),
                FlowKind::ControlPublish { vc },
            );
        }

        // Actuation forwards back to the plant bridge.
        for &a in &roles.actuators {
            chain(
                &mut flows,
                Flow::new(a, roles.gateway),
                FlowKind::ActuateForward { vc },
            );
        }

        // Control plane: head → first controller, everyone else listens.
        if let Some(head) = roles.head {
            let mut listeners: Vec<NodeId> = roles.controllers[1..].to_vec();
            listeners.extend(roles.actuators.iter().copied());
            listeners.push(roles.gateway);
            chain(
                &mut flows,
                Flow::new(head, roles.primary()).with_listeners(listeners),
                FlowKind::ControlPlane { vc },
            );
        }

        // Monitoring sensors: downlink + publish toward the head (or the
        // gateway's log when there is no head).
        for (tag, &s) in roles.sensors.iter().enumerate().skip(1) {
            let tag = tag as u8;
            chain(
                &mut flows,
                Flow::new(roles.gateway, s),
                FlowKind::HilDownlink { vc, tag },
            );
            let (dst, listeners) = match roles.head {
                Some(head) => (head, vec![roles.gateway]),
                None => (roles.gateway, Vec::new()),
            };
            chain(
                &mut flows,
                Flow::new(s, dst).with_listeners(listeners),
                FlowKind::SensorPublish { vc, tag },
            );
        }
    }
    flows
}

/// One forwarding duty of a node, produced by [`route_flows`]: capture
/// the frame that arrives from `upstream` matching the relayed flow's
/// semantic, hold the latest copy, and retransmit it in the slot
/// scheduled for the corresponding [`FlowKind::Relay`] job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RelayJob {
    /// The previous-hop transmitter whose frames this job captures.
    pub upstream: NodeId,
    /// The logical flow's original source (disambiguates flows that
    /// share a semantic, e.g. several controllers' `ControlPublish`).
    pub origin: NodeId,
    /// The logical semantic being forwarded.
    pub kind: FlowKind,
}

/// The output of [`route_flows`]: the hop-expanded physical flow list
/// plus every node's forwarding jobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedFlows {
    /// Physical flows in schedule order (same shape `place_flows` takes).
    /// Single-hop logical flows pass through byte-identically.
    pub flows: Vec<(Flow, FlowKind)>,
    /// Forwarding jobs per node, in emission order; `FlowKind::Relay`'s
    /// `job` indexes into the owner's list.
    pub jobs: BTreeMap<NodeId, Vec<RelayJob>>,
    /// For each logical flow, the `(first, last)` physical indices of its
    /// hop chain (`first == last` for single-hop flows).
    pub spans: Vec<(usize, usize)>,
}

/// A logical flow that cannot be carried by the physical topology.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RouteError {
    /// A target is unreachable from the flow's multicast chain.
    Unreachable {
        /// Index of the unroutable logical flow.
        flow: usize,
        /// The chain node the route got stuck at.
        from: NodeId,
        /// The target (primary receiver or listener) it could not reach.
        to: NodeId,
    },
    /// A forwarder would carry more jobs than a [`FlowKind::Relay`] job
    /// index can address (256).
    TooManyJobs {
        /// Index of the logical flow whose hop overflowed the forwarder.
        flow: usize,
        /// The overloaded forwarding node.
        forwarder: NodeId,
    },
}

impl std::fmt::Display for RouteError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RouteError::Unreachable { flow, from, to } => {
                write!(f, "flow {flow} is unroutable: no path {from} -> {to}")
            }
            RouteError::TooManyJobs { flow, forwarder } => write!(
                f,
                "flow {flow} is unroutable: forwarder {forwarder} already carries \
                 256 forwarding jobs"
            ),
        }
    }
}

impl std::error::Error for RouteError {}

/// Expands logical flows into per-hop physical flows over the real
/// connectivity graph — the multi-hop relay pass.
///
/// Per logical flow the pass visits the primary receiver first, then each
/// extra listener in declared order, building one *multicast chain*:
///
/// * a target adjacent to an already-emitted hop's transmitter is
///   **attached** as that hop's listener (earliest such hop wins — the
///   star case degenerates to the original single flow, byte-identically),
/// * otherwise the chain is **extended** with the shortest path
///   ([`Topology::shortest_path`], deterministic tie-breaks) from the
///   last visited target, every new hop a store-and-forward
///   [`FlowKind::Relay`] slot with a [`RelayJob`] registered on its
///   transmitter.
///
/// Hops chain `after` one another and the first hop inherits the logical
/// flow's own `after` edge (remapped to its dependency's last hop), so a
/// pipelined control cycle stays pipelined across any number of hops.
/// Forwarding is a node *capability*: routes run through whatever node is
/// closest, dedicated [`Role::Relay`] nodes being merely nodes with no
/// other duties.
///
/// # Errors
///
/// [`RouteError::Unreachable`] when a target is unreachable from the
/// chain, [`RouteError::TooManyJobs`] when a forwarder would carry more
/// jobs than a relay slot can index.
pub fn route_flows(
    topology: &Topology,
    logical: &[(Flow, FlowKind)],
) -> Result<RoutedFlows, RouteError> {
    struct Hop {
        owner: NodeId,
        dst: NodeId,
        listeners: Vec<NodeId>,
    }

    // Every logical flow yields at least one physical flow.
    let mut out: Vec<(Flow, FlowKind)> = Vec::with_capacity(logical.len());
    let mut jobs: BTreeMap<NodeId, Vec<RelayJob>> = BTreeMap::new();
    let mut spans: Vec<(usize, usize)> = Vec::with_capacity(logical.len());

    for (li, (flow, kind)) in logical.iter().enumerate() {
        assert!(
            flow.after.is_none_or(|dep| dep < li),
            "flow {li} has a forward or dangling precedence edge"
        );
        let after = flow.after.map(|dep| spans[dep].1);

        // Fast path: everything within one hop of the source — the flow
        // passes through untouched (this is every star flow).
        if topology.are_neighbors(flow.src, flow.dst)
            && flow
                .extra_listeners
                .iter()
                .all(|&l| topology.are_neighbors(flow.src, l))
        {
            let mut f = Flow::new(flow.src, flow.dst).with_listeners(flow.extra_listeners.clone());
            if let Some(a) = after {
                f = f.after(a);
            }
            let idx = out.len();
            out.push((f, *kind));
            spans.push((idx, idx));
            continue;
        }

        // Multicast chain over the connectivity graph.
        let mut hops: Vec<Hop> = Vec::new();
        let mut on_chain: Vec<NodeId> = vec![flow.src];
        let mut cur = flow.src;
        for (ti, &target) in std::iter::once(&flow.dst)
            .chain(flow.extra_listeners.iter())
            .enumerate()
        {
            if on_chain.contains(&target) {
                continue; // already receives as a hop endpoint
            }
            if ti > 0 {
                if let Some(h) = hops
                    .iter_mut()
                    .find(|h| topology.are_neighbors(h.owner, target))
                {
                    h.listeners.push(target);
                    continue;
                }
            }
            let path = topology
                .shortest_path(cur, target)
                .ok_or(RouteError::Unreachable {
                    flow: li,
                    from: cur,
                    to: target,
                })?;
            for w in path.windows(2) {
                hops.push(Hop {
                    owner: w[0],
                    dst: w[1],
                    listeners: Vec::new(),
                });
                on_chain.push(w[1]);
            }
            cur = target;
        }

        let first = out.len();
        for (hi, hop) in hops.iter().enumerate() {
            let hop_kind = if hi == 0 {
                *kind
            } else {
                let node_jobs = jobs.entry(hop.owner).or_default();
                let job = u8::try_from(node_jobs.len()).map_err(|_| RouteError::TooManyJobs {
                    flow: li,
                    forwarder: hop.owner,
                })?;
                node_jobs.push(RelayJob {
                    upstream: hops[hi - 1].owner,
                    origin: flow.src,
                    kind: *kind,
                });
                FlowKind::Relay { vc: kind.vc(), job }
            };
            let mut f = Flow::new(hop.owner, hop.dst).with_listeners(hop.listeners.clone());
            f = match if hi == 0 { after } else { Some(out.len() - 1) } {
                Some(a) => f.after(a),
                None => f,
            };
            out.push((f, hop_kind));
        }
        spans.push((first, out.len() - 1));
    }

    Ok(RoutedFlows {
        flows: out,
        jobs,
        spans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::ScenarioBuilder;

    /// The topology a builder materializes.
    fn built(b: ScenarioBuilder) -> TopologySpec {
        b.build().topology
    }

    fn star() -> ScenarioBuilder {
        ScenarioBuilder::star()
    }

    /// The per-VC rescan that [`VcMap::try_from_spec`]'s one-pass
    /// bucketing replaced (quadratic in fleet deployments), kept as the
    /// reference it must agree with, errors included.
    fn naive_from_spec(spec: &TopologySpec) -> Result<VcMap, TopologyError> {
        let gateway = check_nodes(spec)?;
        let vcs = (0..spec.n_vcs() as VcId)
            .map(|vc| {
                RoleMap::try_from_nodes(vc, gateway, spec.nodes.iter().filter(|n| n.vc == vc))
            })
            .collect::<Result<_, _>>()?;
        Ok(VcMap { gateway, vcs })
    }

    /// [`VcMap::try_from_spec`], checked against the per-VC rescan.
    fn try_map(spec: &TopologySpec) -> Result<VcMap, TopologyError> {
        let map = VcMap::try_from_spec(spec);
        assert_eq!(map, naive_from_spec(spec));
        map
    }

    #[test]
    fn fig5_spec_matches_testbed_layout() {
        let spec = TopologySpec::fig5();
        assert_eq!(spec.nodes.len(), 7);
        let labels: Vec<&str> = spec.nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(labels, ["GW", "S1", "Ctrl-A", "Ctrl-B", "A1", "S2", "Head"]);
        let ids: Vec<u16> = spec.nodes.iter().map(|n| n.id.raw()).collect();
        assert_eq!(ids, [0, 1, 2, 3, 4, 5, 6]);
        assert_eq!(spec.nodes[1].register, Some(30001));
        assert_eq!(spec.nodes[5].register, Some(30007));
        assert!(spec.nodes.iter().all(|n| n.vc == 0));
        assert_eq!(spec.n_vcs(), 1);
    }

    #[test]
    fn fig5_flow_synthesis_reproduces_the_eight_testbed_flows() {
        let map = VcMap::try_from_spec(&TopologySpec::fig5()).expect("well-formed spec");
        let flows = synth_flows(&map);
        let as_tuple = |f: &Flow| (f.src.raw(), f.dst.raw(), f.extra_listeners.clone());
        assert_eq!(flows.len(), 8);
        assert_eq!(as_tuple(&flows[0].0), (0, 1, vec![]));
        assert_eq!(as_tuple(&flows[1].0), (1, 2, vec![NodeId(3), NodeId(6)]));
        assert_eq!(as_tuple(&flows[2].0), (2, 4, vec![NodeId(3), NodeId(6)]));
        assert_eq!(as_tuple(&flows[3].0), (3, 4, vec![NodeId(6)]));
        assert_eq!(as_tuple(&flows[4].0), (4, 0, vec![]));
        assert_eq!(
            as_tuple(&flows[5].0),
            (6, 2, vec![NodeId(3), NodeId(4), NodeId(0)])
        );
        assert_eq!(as_tuple(&flows[6].0), (0, 5, vec![]));
        assert_eq!(as_tuple(&flows[7].0), (5, 6, vec![NodeId(0)]));
        // Fully chained: every flow after the first has a predecessor.
        assert!(flows[0].0.after.is_none());
        for (i, (f, _)) in flows.iter().enumerate().skip(1) {
            assert_eq!(f.after, Some(i - 1));
        }
    }

    /// The PR 2 golden trace for the 2-sensor / 3-controller / 1-actuator
    /// star: every flow's (src, dst, listeners) tuple and semantic, not
    /// just the Fig. 5 role set — byte-identical under the multi-VC
    /// refactor (all kinds carry `vc: 0`). Node ids follow the star ring
    /// convention: GW=0, S1=1, Ctrl-A=2, Ctrl-B=3, Ctrl-C=4, A1=5, S2=6,
    /// Head=7.
    #[test]
    fn golden_flows_for_two_sensor_three_controller_star() {
        let map = VcMap::try_from_spec(&built(star().controllers(3))).expect("well-formed spec");
        let flows = synth_flows(&map);
        let got: Vec<(u16, u16, Vec<u16>, FlowKind)> = flows
            .iter()
            .map(|(f, k)| {
                (
                    f.src.raw(),
                    f.dst.raw(),
                    f.extra_listeners.iter().map(|n| n.raw()).collect(),
                    *k,
                )
            })
            .collect();
        let expected: Vec<(u16, u16, Vec<u16>, FlowKind)> = vec![
            (0, 1, vec![], FlowKind::HilDownlink { vc: 0, tag: 0 }),
            (
                1,
                2,
                vec![3, 4, 7],
                FlowKind::SensorPublish { vc: 0, tag: 0 },
            ),
            (2, 5, vec![3, 4, 7], FlowKind::ControlPublish { vc: 0 }),
            (3, 5, vec![4, 7], FlowKind::ControlPublish { vc: 0 }),
            (4, 5, vec![7], FlowKind::ControlPublish { vc: 0 }),
            (5, 0, vec![], FlowKind::ActuateForward { vc: 0 }),
            (7, 2, vec![3, 4, 5, 0], FlowKind::ControlPlane { vc: 0 }),
            (0, 6, vec![], FlowKind::HilDownlink { vc: 0, tag: 1 }),
            (6, 7, vec![0], FlowKind::SensorPublish { vc: 0, tag: 1 }),
        ];
        assert_eq!(got, expected);
        // The pipeline stays fully chained (one control cycle per RT-Link
        // cycle) no matter how many replicas are inserted in the middle.
        assert!(flows[0].0.after.is_none());
        for (i, (f, _)) in flows.iter().enumerate().skip(1) {
            assert_eq!(f.after, Some(i - 1));
        }
    }

    /// Golden trace for the 2-VC × (1 sensor, 2 controllers, 1 actuator,
    /// head) star: every `(src, dst, listeners, kind, after)` tuple. Ring
    /// id order: GW=0, then VC0 {S1=1, Ctrl-A=2, Ctrl-B=3, A1=4, Head=5},
    /// then VC1 {V1.S1=6, V1.Ctrl-A=7, V1.Ctrl-B=8, V1.A1=9, V1.Head=10}.
    /// Each VC's chain is after-linked independently: VC1's first flow has
    /// no predecessor even though it is emitted seventh.
    type FlowTuple = (u16, u16, Vec<u16>, FlowKind, Option<usize>);

    #[test]
    fn golden_flows_for_two_vc_star() {
        let spec = built(star().vcs(2).sensors(1));
        let map = VcMap::try_from_spec(&spec).expect("well-formed spec");
        assert_eq!(map.n_vcs(), 2);
        let flows = synth_flows(&map);
        let got: Vec<FlowTuple> = flows
            .iter()
            .map(|(f, k)| {
                (
                    f.src.raw(),
                    f.dst.raw(),
                    f.extra_listeners.iter().map(|n| n.raw()).collect(),
                    *k,
                    f.after,
                )
            })
            .collect();
        let expected: Vec<FlowTuple> = vec![
            // --- VC 0 chain -------------------------------------------
            (0, 1, vec![], FlowKind::HilDownlink { vc: 0, tag: 0 }, None),
            (
                1,
                2,
                vec![3, 5],
                FlowKind::SensorPublish { vc: 0, tag: 0 },
                Some(0),
            ),
            (
                2,
                4,
                vec![3, 5],
                FlowKind::ControlPublish { vc: 0 },
                Some(1),
            ),
            (3, 4, vec![5], FlowKind::ControlPublish { vc: 0 }, Some(2)),
            (4, 0, vec![], FlowKind::ActuateForward { vc: 0 }, Some(3)),
            (
                5,
                2,
                vec![3, 4, 0],
                FlowKind::ControlPlane { vc: 0 },
                Some(4),
            ),
            // --- VC 1 chain (independent of VC 0's) -------------------
            (0, 6, vec![], FlowKind::HilDownlink { vc: 1, tag: 0 }, None),
            (
                6,
                7,
                vec![8, 10],
                FlowKind::SensorPublish { vc: 1, tag: 0 },
                Some(6),
            ),
            (
                7,
                9,
                vec![8, 10],
                FlowKind::ControlPublish { vc: 1 },
                Some(7),
            ),
            (8, 9, vec![10], FlowKind::ControlPublish { vc: 1 }, Some(8)),
            (9, 0, vec![], FlowKind::ActuateForward { vc: 1 }, Some(9)),
            (
                10,
                7,
                vec![8, 9, 0],
                FlowKind::ControlPlane { vc: 1 },
                Some(10),
            ),
        ];
        assert_eq!(got, expected);
    }

    #[test]
    fn multi_vc_star_focus_registers_and_labels() {
        let spec = built(star().vcs(3));
        assert_eq!(spec.n_vcs(), 3);
        let map = VcMap::try_from_spec(&spec).expect("well-formed spec");
        assert_eq!(map.vc(0).sensor_registers[0], 30001);
        assert_eq!(map.vc(1).sensor_registers[0], 30002);
        assert_eq!(map.vc(2).sensor_registers[0], 30003);
        // VC 1's labels carry the V1. prefix; VC 0 keeps the legacy names.
        let label_of = |id: NodeId| {
            spec.nodes
                .iter()
                .find(|n| n.id == id)
                .unwrap()
                .label
                .clone()
        };
        assert_eq!(label_of(map.vc(0).primary()), "Ctrl-A");
        assert_eq!(label_of(map.vc(1).primary()), "V1.Ctrl-A");
        assert_eq!(label_of(map.vc(2).head.unwrap()), "V2.Head");
        // Reverse lookups agree.
        assert_eq!(map.vc_of_controller(map.vc(1).controllers[1]), Some(1));
        assert_eq!(map.sensor_of(map.vc(2).sensors[1]), Some((2, 1)));
        assert_eq!(map.vc_of_head(map.vc(1).head.unwrap()), Some(1));
        assert_eq!(map.vc_of_actuator(map.vc(0).actuators[0]), Some(0));
    }

    #[test]
    fn minimal_topology_routes_actuation_through_gateway() {
        let map = VcMap::try_from_spec(&built(ScenarioBuilder::minimal().radius_m(10.0)))
            .expect("well-formed spec");
        let roles = map.vc(0);
        assert_eq!(roles.actuation_endpoint(), roles.gateway);
        assert!(roles.head.is_none());
        let flows = synth_flows(&map);
        // Downlink, publish, controller output — three flows, no control
        // plane, no forwards.
        assert_eq!(flows.len(), 3);
        assert_eq!(flows[2].1, FlowKind::ControlPublish { vc: 0 });
        assert_eq!(flows[2].0.dst, roles.gateway);
    }

    #[test]
    fn wide_star_flows_scale_with_roles() {
        let map = VcMap::try_from_spec(&built(star().sensors(3).controllers(3)))
            .expect("well-formed spec");
        let flows = synth_flows(&map);
        // 1 downlink + 1 publish + 3 outputs + 1 forward + 1 plane
        // + 2 * (downlink + publish) = 11.
        assert_eq!(flows.len(), 11);
        // The primary's output is observed by both backups and the head.
        let primary_out = flows
            .iter()
            .find(|(f, k)| {
                matches!(k, FlowKind::ControlPublish { vc: 0 }) && f.src == map.vc(0).primary()
            })
            .unwrap();
        assert_eq!(primary_out.0.extra_listeners.len(), 3);
    }

    /// The wraparound fix: monitoring sensors past the 11-entry table get
    /// unique synthetic registers instead of silently aliasing earlier
    /// monitors.
    #[test]
    fn monitor_registers_never_alias_past_the_table() {
        assert_eq!(monitor_register(0), 30007);
        assert_eq!(monitor_register(10), 30012);
        assert_eq!(monitor_register(11), 30013);
        assert_eq!(monitor_register(12), 30014);
        // A 20-sensor star: one focus + 19 monitors, all registers unique.
        let spec = built(star().sensors(20).controllers(1).actuators(0).head(false));
        let mut regs: Vec<u16> = spec.nodes.iter().filter_map(|n| n.register).collect();
        assert_eq!(regs.len(), 20);
        regs.sort_unstable();
        regs.dedup();
        assert_eq!(regs.len(), 20, "monitor registers must not alias");
    }

    #[test]
    fn malformed_specs_return_typed_errors() {
        let good = TopologySpec::fig5();

        let mut no_gw = good.clone();
        no_gw.nodes.retain(|n| n.role != Role::Gateway);
        assert_eq!(try_map(&no_gw), Err(TopologyError::MissingGateway));

        let mut two_gw = good.clone();
        let mut extra = two_gw.nodes[0].clone();
        extra.id = NodeId(99);
        extra.label = "GW2".into();
        two_gw.nodes.push(extra);
        assert_eq!(try_map(&two_gw), Err(TopologyError::DuplicateGateway));

        let mut dup_id = good.clone();
        dup_id.nodes[2].id = dup_id.nodes[1].id;
        assert_eq!(
            try_map(&dup_id),
            Err(TopologyError::DuplicateNodeId(dup_id.nodes[1].id))
        );

        let mut dup_label = good.clone();
        dup_label.nodes[3].label = dup_label.nodes[2].label.clone();
        assert_eq!(
            try_map(&dup_label),
            Err(TopologyError::DuplicateLabel("Ctrl-A".into()))
        );

        let mut no_sensor = good.clone();
        no_sensor
            .nodes
            .retain(|n| !matches!(n.role, Role::Sensor(_)));
        assert_eq!(
            try_map(&no_sensor),
            Err(TopologyError::MissingFocusSensor(0))
        );

        let mut no_ctrl = good.clone();
        no_ctrl
            .nodes
            .retain(|n| !matches!(n.role, Role::Controller(_)));
        assert_eq!(try_map(&no_ctrl), Err(TopologyError::MissingController(0)));

        let mut gap = good.clone();
        for n in &mut gap.nodes {
            if n.role == Role::Controller(1) {
                n.role = Role::Controller(2);
            }
        }
        assert_eq!(
            try_map(&gap),
            Err(TopologyError::NonContiguousControllers(0))
        );

        let mut two_act = good.clone();
        two_act.nodes.push(NodeSpec {
            id: NodeId(42),
            vc: 0,
            role: Role::Actuator(1),
            label: "A2".into(),
            position: Position::new(1.0, 1.0),
            register: None,
        });
        assert_eq!(try_map(&two_act), Err(TopologyError::MultipleActuators(0)));

        // Both sensors lack a register: the first in spec order is named.
        let mut no_reg = good.clone();
        no_reg.nodes[1].register = None;
        no_reg.nodes[5].register = None;
        assert_eq!(
            try_map(&no_reg),
            Err(TopologyError::MissingSensorRegister(no_reg.nodes[1].id))
        );

        // Two malformed VCs, the later one first in spec order: the error
        // names the lowest malformed VC, as a per-VC scan would.
        let mut two_bad = built(star().vcs(8).sensors(1));
        two_bad
            .nodes
            .retain(|n| !(n.vc == 2 && matches!(n.role, Role::Controller(_))));
        two_bad
            .nodes
            .retain(|n| !(n.vc == 5 && matches!(n.role, Role::Sensor(_))));
        two_bad.nodes.reverse();
        assert_eq!(try_map(&two_bad), Err(TopologyError::MissingController(2)));

        // A hand-written line whose second relay reuses the first's index.
        let mut dup_relay = built(star().line(3));
        for n in &mut dup_relay.nodes {
            if n.role == Role::Relay(1) {
                n.role = Role::Relay(0);
            }
        }
        assert_eq!(
            try_map(&dup_relay),
            Err(TopologyError::NonContiguousRelays(0))
        );

        let mut sparse_vc = good;
        for n in &mut sparse_vc.nodes {
            if n.role != Role::Gateway {
                n.vc = 2; // VCs 0 and 1 left unpopulated.
            }
        }
        assert!(matches!(
            try_map(&sparse_vc),
            Err(TopologyError::MissingFocusSensor(0))
        ));
    }

    #[test]
    fn one_pass_vc_map_matches_per_vc_scan() {
        let specs = [
            TopologySpec::fig5(),
            built(ScenarioBuilder::minimal()),
            built(star().sensors(3).controllers(3)),
            built(star().vcs(MAX_VCS)),
            built(star().line(2).sensors(1)),
            built(star().line(3).backup_relays(2)),
            built(star().grid(3, 3)),
            built(star().clustered(2).sensors(1)),
            built(star().clustered(3).backup_relays(2)),
            TopologySpec::fleet(64),
        ];
        for spec in &specs {
            assert!(try_map(spec).is_ok());
        }
        // Node order is free in a spec: a shuffled fleet resolves the same
        // way under both algorithms, and to the same map as in order.
        let mut shuffled = TopologySpec::fleet(64);
        SimRng::seed_from(0x5107).shuffle(&mut shuffled.nodes);
        assert_eq!(try_map(&shuffled), try_map(&TopologySpec::fleet(64)));
    }

    // ---- multi-hop layouts and the routing pass ----------------------

    use evm_netsim::ChannelConfig;
    use evm_sim::SimRng;

    fn resolve(spec: &TopologySpec) -> (Topology, VcMap) {
        let mut ch = Channel::new(ChannelConfig::default(), SimRng::seed_from(1));
        spec.clone()
            .try_into_resolved(&mut ch)
            .expect("well-formed spec")
    }

    #[test]
    fn line_spec_layout_and_relay_roles() {
        let spec = built(star().line(2).sensors(1));
        let labels: Vec<&str> = spec.nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(labels, ["GW", "S1", "Ctrl-A", "Ctrl-B", "A1", "Head", "R1"]);
        assert_eq!(spec.nodes[1].position, Position::new(-80.0, 0.0));
        assert_eq!(spec.nodes[6].position, Position::new(-40.0, 0.0));
        assert_eq!(spec.nodes[4].position, Position::new(80.0, 0.0));
        let map = VcMap::try_from_spec(&spec).expect("well-formed spec");
        assert_eq!(map.vc(0).relays, vec![NodeId(6)]);
        assert_eq!(map.vc_of_relay(NodeId(6)), Some(0));

        // The physical graph forces the relay: sensor and gateway are out
        // of range of each other, each in range of R1.
        let (topo, _) = resolve(&spec);
        assert!(!topo.are_neighbors(NodeId(0), NodeId(1)));
        assert!(topo.are_neighbors(NodeId(0), NodeId(6)));
        assert!(topo.are_neighbors(NodeId(6), NodeId(1)));
        assert_eq!(topo.hops(NodeId(0), NodeId(1)), Some(2));
        // Actuator is two hops out on the other side, via the pod.
        assert!(!topo.are_neighbors(NodeId(0), NodeId(4)));
        assert!(topo.is_fully_connected());
    }

    #[test]
    fn grid_spec_fills_cells_row_major() {
        let spec = built(star().grid(2, 3).sensors(1).head(false));
        let labels: Vec<&str> = spec.nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(labels, ["GW", "S1", "Ctrl-A", "Ctrl-B", "A1", "R1"]);
        // GW cell 0, sensor the far corner, relay the last leftover cell.
        assert_eq!(spec.nodes[0].position, Position::new(0.0, 0.0));
        assert_eq!(spec.nodes[1].position, Position::new(52.0, 104.0));
        assert_eq!(spec.nodes[2].position, Position::new(52.0, 0.0));
        assert_eq!(spec.nodes[5].position, Position::new(0.0, 104.0));
        let (topo, _) = resolve(&spec);
        // 4-connectivity: orthogonal neighbors only.
        assert!(topo.are_neighbors(NodeId(0), NodeId(2)));
        assert!(
            !topo.are_neighbors(NodeId(2), NodeId(3)),
            "diagonal must be out of range"
        );
        assert_eq!(topo.hops(NodeId(0), NodeId(1)), Some(3));
    }

    /// The lattice rule is the layout's, checked when a shape is
    /// materialized.
    #[test]
    fn grid_rejects_too_small_lattices() {
        let layout = Layout::Grid { w: 2, h: 2 };
        let shape = crate::runtime::TopologyShape {
            layout,
            ..crate::runtime::TopologyShape::fig5()
        };
        assert_eq!(
            shape.materialize(),
            Err(TopologyError::InvalidShape {
                layout,
                vcs: 1,
                rule: "the lattice cannot seat every role"
            })
        );
    }

    #[test]
    fn clustered_spec_arcs_relays_per_vc() {
        let spec = built(star().clustered(2).sensors(1));
        assert_eq!(spec.n_vcs(), 2);
        let labels: Vec<&str> = spec.nodes.iter().map(|n| n.label.as_str()).collect();
        assert_eq!(
            labels,
            [
                "GW",
                "S1",
                "Ctrl-A",
                "Ctrl-B",
                "A1",
                "Head",
                "R1",
                "R2",
                "V1.S1",
                "V1.Ctrl-A",
                "V1.Ctrl-B",
                "V1.A1",
                "V1.Head",
                "V1.R1",
                "V1.R2",
            ]
        );
        let map = VcMap::try_from_spec(&spec).expect("well-formed spec");
        assert_eq!(map.vc(0).relays.len(), 2);
        assert_eq!(map.vc(1).relays.len(), 2);
        assert_eq!(map.vc(0).sensor_registers[0], 30001);
        assert_eq!(map.vc(1).sensor_registers[0], 30002);
        let (topo, _) = resolve(&spec);
        // Three hops from the gateway to each cluster's sensor, and the
        // two clusters are mutually unreachable except through the GW.
        assert_eq!(topo.hops(NodeId(0), NodeId(1)), Some(3));
        assert_eq!(topo.hops(NodeId(0), NodeId(8)), Some(3));
        assert!(!topo.are_neighbors(NodeId(6), NodeId(13)));
        assert!(topo.is_fully_connected());
    }

    /// The routing pass is the identity on fully-connected stars: every
    /// logical flow is already one hop, so the physical flow list (and
    /// the PR 2 / PR 3 goldens pinned on it) is byte-identical and no
    /// forwarding jobs exist.
    #[test]
    fn star_flows_route_byte_identically() {
        for spec in [
            TopologySpec::fig5(),
            built(star().controllers(3)),
            built(star().vcs(2).sensors(1)),
        ] {
            let (topo, map) = resolve(&spec);
            let logical = synth_flows(&map);
            let routed = route_flows(&topo, &logical).expect("routable");
            let as_tuples = |flows: &[(Flow, FlowKind)]| -> Vec<FlowTuple> {
                flows
                    .iter()
                    .map(|(f, k)| {
                        (
                            f.src.raw(),
                            f.dst.raw(),
                            f.extra_listeners.iter().map(|n| n.raw()).collect(),
                            *k,
                            f.after,
                        )
                    })
                    .collect()
            };
            assert_eq!(as_tuples(&routed.flows), as_tuples(&logical));
            assert!(routed.jobs.is_empty());
            assert!(routed.spans.iter().all(|&(a, b)| a == b));
        }
    }

    /// 2-hop line routing: the downlink grows a forwarding hop on R1, the
    /// publish comes back over R1 and the gateway, and the precedence
    /// chain stays intact across the expansion.
    #[test]
    fn line_routing_inserts_relay_hops() {
        let spec = built(star().line(2).sensors(1).controllers(1).head(false));
        // GW=0, S1=1, Ctrl-A=2, A1=3, R1=4.
        let (topo, map) = resolve(&spec);
        let logical = synth_flows(&map);
        let routed = route_flows(&topo, &logical).expect("routable");

        // Downlink GW -> S1 becomes GW -> R1 -> S1.
        let (f0, k0) = &routed.flows[0];
        assert_eq!((f0.src, f0.dst), (NodeId(0), NodeId(4)));
        assert_eq!(*k0, FlowKind::HilDownlink { vc: 0, tag: 0 });
        let (f1, k1) = &routed.flows[1];
        assert_eq!((f1.src, f1.dst), (NodeId(4), NodeId(1)));
        assert!(matches!(k1, FlowKind::Relay { vc: 0, .. }));
        assert_eq!(f1.after, Some(0));

        // R1 carries one job per direction it forwards.
        let r1_jobs = &routed.jobs[&NodeId(4)];
        assert!(r1_jobs.contains(&RelayJob {
            upstream: NodeId(0),
            origin: NodeId(0),
            kind: FlowKind::HilDownlink { vc: 0, tag: 0 },
        }));
        assert!(r1_jobs.contains(&RelayJob {
            upstream: NodeId(1),
            origin: NodeId(1),
            kind: FlowKind::SensorPublish { vc: 0, tag: 0 },
        }));

        // Every hop chain is strictly pipelined: each physical flow after
        // its predecessor within the logical chain.
        for (li, &(first, last)) in routed.spans.iter().enumerate() {
            for idx in first + 1..=last {
                assert_eq!(routed.flows[idx].0.after, Some(idx - 1), "flow {li}");
            }
        }
        // And the schedule respects it end to end.
        let flows: Vec<Flow> = routed.flows.iter().map(|(f, _)| f.clone()).collect();
        let cfg = evm_mac::RtLinkConfig::default();
        let (sched, placed) =
            evm_mac::rtlink::SlotSchedule::place_flows(&cfg, &topo, &flows).expect("schedulable");
        assert!(sched.is_interference_free(&topo));
        for (i, f) in flows.iter().enumerate() {
            if let Some(dep) = f.after {
                assert!(placed[dep] < placed[i]);
            }
        }
    }

    /// A listener no hop transmitter can reach extends the multicast
    /// chain instead of silently starving: the grid's backup controller
    /// gets the primary's output over a forwarding hop.
    #[test]
    fn unreachable_listener_extends_the_chain() {
        let spec = built(star().grid(2, 3).sensors(1).head(false));
        // GW=0, S1=1, Ctrl-A=2, Ctrl-B=3, A1=4, R1=5.
        let (topo, map) = resolve(&spec);
        assert!(!topo.are_neighbors(NodeId(2), NodeId(3)), "diagonal ctrls");
        let logical = synth_flows(&map);
        let routed = route_flows(&topo, &logical).expect("routable");
        // Ctrl-A's output flow: direct hop to A1, then a forwarding hop
        // carrying it on to Ctrl-B.
        let out_idx = logical
            .iter()
            .position(|(f, k)| {
                matches!(k, FlowKind::ControlPublish { vc: 0 }) && f.src == NodeId(2)
            })
            .expect("primary output flow");
        let (first, last) = routed.spans[out_idx];
        assert!(last > first, "listener must extend the chain");
        let hop = &routed.flows[last].0;
        assert_eq!(hop.dst, NodeId(3));
        assert!(
            routed.jobs[&hop.src]
                .iter()
                .any(|j| j.origin == NodeId(2)
                    && matches!(j.kind, FlowKind::ControlPublish { vc: 0 }))
        );
    }

    #[test]
    fn unroutable_flows_are_reported() {
        let mut spec = built(ScenarioBuilder::minimal().radius_m(10.0));
        // Strand the sensor 500 m out: nothing can reach it.
        spec.nodes[1].position = Position::new(500.0, 0.0);
        let (topo, map) = resolve(&spec);
        let logical = synth_flows(&map);
        let err = route_flows(&topo, &logical).expect_err("unroutable");
        assert!(
            matches!(err, RouteError::Unreachable { flow: 0, to, .. } if to == NodeId(1)),
            "{err}"
        );
    }

    /// A relay job index is a `u8`: the 257th flow forwarded by one node
    /// is a typed error naming that forwarder, not a panic.
    #[test]
    fn forwarder_job_overflow_is_a_typed_error() {
        let node = |id: u16, x: f64| {
            NodeInfo::new(
                NodeId(id),
                NodeKind::Relay,
                Position::new(x, 0.0),
                format!("n{id}"),
            )
        };
        // A -- R -- B: every A -> B flow is forwarded by R.
        let topo = Topology::with_links(
            vec![node(0, 0.0), node(1, 40.0), node(2, 80.0)],
            &[(NodeId(0), NodeId(1)), (NodeId(1), NodeId(2))],
        );
        let flows = |n: usize| -> Vec<(Flow, FlowKind)> {
            (0..n)
                .map(|_| {
                    (
                        Flow::new(NodeId(0), NodeId(2)),
                        FlowKind::ControlPublish { vc: 0 },
                    )
                })
                .collect()
        };
        let routed = route_flows(&topo, &flows(256)).expect("256 jobs fit a u8 index");
        assert_eq!(routed.jobs[&NodeId(1)].len(), 256);
        let err = route_flows(&topo, &flows(257)).expect_err("the 257th job overflows");
        assert_eq!(
            err,
            RouteError::TooManyJobs {
                flow: 256,
                forwarder: NodeId(1)
            }
        );
        assert!(err.to_string().contains("forwarder n1"), "{err}");
    }
}
