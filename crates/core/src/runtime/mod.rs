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
//! * [`behavior`] — the [`NodeBehavior`] trait and its driver-side
//!   contract,
//! * [`behaviors`] — one implementation per role (gateway, sensor,
//!   controller, actuator, head),
//! * [`registry`] — behaviors keyed by [`evm_netsim::NodeId`],
//! * [`reconfig`] — the epoch-based reconfiguration plane (the
//!   [`Reconfigurator`] pipeline plus the driver's liveness triggers),
//! * `xfer` — the live capsule-transfer plane: chunked, acked capsule
//!   shipment over the epoch's dedicated transfer slots,
//! * `driver` — the deterministic slot-pipeline [`Engine`].

pub mod behavior;
pub mod behaviors;
mod driver;
mod failover;
mod messages;
mod plan;
pub mod reconfig;
pub mod registry;
mod scenario;
mod setup;
pub mod topo;
mod xfer;

pub use behavior::{Effect, NodeBehavior, NodeCtx, Timer};
pub use driver::Engine;
pub use messages::Message;
pub use reconfig::{Epoch, ReconfigError, Reconfigurator, ReroutePolicy};
pub use scenario::Layout;
pub use scenario::{Scenario, ScenarioBuilder, TopologyShape};
pub use setup::{check_setup, CheckedSetup};
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
