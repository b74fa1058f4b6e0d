//! The co-simulation runtime: plant ↔ gateway ↔ RT-Link ↔ EVM nodes.
//!
//! Reproduces the paper's hardware-in-the-loop arrangement over *any*
//! role-complete topology: the gas plant (UniSim's stand-in) is bridged
//! through a ModBus register map by the gateway node; sensor, controller
//! and actuator nodes exchange frames in RT-Link TDMA slots; controller
//! nodes run control capsules on the EVM interpreter under nano-RK-style
//! admission; the Virtual Component's health-assessment, arbitration and
//! mode-change machinery drives failover.
//!
//! Layering (see `ARCHITECTURE.md` for the diagram):
//!
//! * [`scenario`](Scenario) — run configuration plus the
//!   [`ScenarioBuilder`] topology DSL,
//! * [`topo`] — role-based topology specs, the [`RoleMap`], and RT-Link
//!   flow synthesis,
//! * [`behavior`] — the closed [`Node`] enum (one variant per role) and
//!   its driver-side contract; the engine keeps one per topology node,
//!   indexed like the topology ([`evm_netsim::Topology::index_of`]),
//! * [`Deployment`] — the run-invariant half of an engine (resolved
//!   topology, epoch-0 wiring, compiled laws, plant prototype), checked
//!   and built once per key and shared by every run of it,
//! * [`behaviors`] — each role's state and duties (gateway, sensor,
//!   controller replica, actuator, head),
//! * [`reconfig`] — the epoch-based reconfiguration plane (the
//!   [`Reconfigurator`] pipeline plus the driver's liveness triggers),
//! * `xfer` — the live capsule-transfer plane, the one migration path:
//!   chunked, acked capsule shipment over each VC's dedicated transfer
//!   slots, to a re-elected head or a promoted cold-standby backup,
//! * `driver` — the deterministic slot-pipeline [`Engine`]: a shared
//!   deployment plus one run's state.

pub mod behavior;
pub mod behaviors;
mod deployment;
mod driver;
mod failover;
mod messages;
mod plan;
pub mod reconfig;
mod scenario;
mod setup;
pub mod topo;
mod xfer;

pub use behavior::{Effect, Node, NodeCtx, Timer};
pub use deployment::{check_setup, Deployment};
pub use driver::{Engine, MemoStats};
pub use messages::Message;
pub use reconfig::{Epoch, ReconfigError, Reconfigurator, ReroutePolicy, SlotFlow};
pub use scenario::Layout;
pub use scenario::{Scenario, ScenarioBuilder, TopologyShape};
pub use topo::{
    monitor_register, route_flows, synth_flows, FlowKind, NodeSpec, RelayJob, Role, RoleMap,
    RouteError, RoutedFlows, TopologyError, TopologySpec, VcId, VcMap, CLUSTER_HOP_M,
    CLUSTER_RING_M, GRID_SPACING_M, LINE_SPACING_M, MAX_VCS,
};

/// Well-known node ids of the paper's Fig. 5 testbed.
///
/// These are **scenario constants**, kept for scripting convenience (e.g.
/// crashing `S1` in a fault plan): the runtime itself resolves every
/// address through the scenario's [`RoleMap`] and never consults them.
pub mod nodes {
    use evm_netsim::NodeId;
    /// Gateway (ModBus bridge).
    pub const GW: NodeId = NodeId(0);
    /// LTS level sensor.
    pub const S1: NodeId = NodeId(1);
    /// Primary controller.
    pub const CTRL_A: NodeId = NodeId(2);
    /// Backup controller.
    pub const CTRL_B: NodeId = NodeId(3);
    /// LTS valve actuator.
    pub const ACT: NodeId = NodeId(4);
    /// Tower-feed sensor.
    pub const S2: NodeId = NodeId(5);
    /// Virtual-component head.
    pub const HEAD: NodeId = NodeId(6);
}
