//! Per-role node behaviors.
//!
//! One module per role; each holds that role's state and duties, over
//! its own state only, and [`Node`](crate::runtime::Node) dispatches to
//! them by variant. The controller and the head share one replica,
//! [`ControllerCore`]. Cross-node concerns (arbitration, migration,
//! energy, delivery) live in the driver.

mod actuator;
mod controller;
mod gateway;
mod head;
mod relay;
mod sensor;

pub use actuator::{ActuationGate, ActuatorNode};
pub(crate) use controller::{focus_kernel, log_confirmed_deviation, REPLICA_CAPS};
pub use controller::{ControllerCore, ReplicaParams};
pub use gateway::GatewayNode;
pub(crate) use gateway::GatewayPorts;
pub use head::{HeadNode, HeadPlane, CONTROL_PLANE_REPEATS};
pub use relay::RelayCore;
pub use sensor::SensorNode;
