//! The node type the driver dispatches to.
//!
//! Each node in the deployment is one [`Node`]: the slot-pipeline
//! driver owns the shared world (plant, channel, schedule, energy meters,
//! event queue) and calls into nodes with a [`NodeCtx`] when the node
//! transmits, receives, or a cycle boundary passes. Nodes communicate
//! back through returned messages, scheduled [`Timer`]s, and [`Effect`]s —
//! never by reaching into another node's state, which is what keeps the
//! runtime topology-generic.

use evm_netsim::{EnergyMeter, NodeId};
use evm_plant::GasPlant;
use evm_sim::{SimRng, SimTime, Trace};

use crate::bytecode::RunMemo;
use crate::roles::ControllerMode;
use crate::runtime::behaviors::{
    log_confirmed_deviation, ActuatorNode, ControllerCore, GatewayNode, HeadNode, HeadPlane,
    SensorNode,
};
use crate::runtime::topo::{FlowKind, VcId, VcMap};
use crate::runtime::Message;

/// A deferred, node-local event (delivered back to the same node).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Timer {
    /// The node's focus-task execution completed (WCET elapsed).
    TaskDone,
}

/// A cross-node side effect a node hands back to the driver.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// A confirmed fault report for the head's arbitration (either an
    /// in-band `FaultAlert` frame arriving at the head, or the head's own
    /// monitor short-circuiting the radio hop).
    Alert {
        /// The node suspected faulty.
        suspect: NodeId,
        /// The node reporting it.
        observer: NodeId,
    },
    /// An actuation reached the plant (drives latency/QoS accounting).
    Actuated {
        /// The actuating Virtual Component.
        vc: VcId,
        /// Timestamp of the PV this actuation responds to.
        pv_sampled_at: SimTime,
    },
}

/// The slice of the world a node may touch during one callback.
pub struct NodeCtx<'a> {
    /// Current simulation time.
    pub now: SimTime,
    /// The node being driven.
    pub id: NodeId,
    /// The node's display label (trace messages, series names).
    pub label: &'a str,
    /// Role-resolved addressing for every hosted Virtual Component.
    pub vcs: &'a VcMap,
    /// The scenario RNG (single stream — call order is deterministic).
    pub rng: &'a mut SimRng,
    /// The structured event log.
    pub trace: &'a mut Trace,
    /// The plant (only the gateway bridges to it, through registers
    /// bound at setup).
    pub plant: &'a mut GasPlant,
    /// Side effects for the driver to apply after the callback.
    pub effects: &'a mut Vec<Effect>,
    /// Timers to schedule for this node: `(fire_at, timer)`.
    pub timers: &'a mut Vec<(SimTime, Timer)>,
    /// The run's capsule-run memo, one entry per VC whose replicas share
    /// runs.
    pub(crate) memo: &'a mut [RunMemo],
    /// The node's radio meter, which its battery reading derives from.
    pub(crate) meter: &'a EnergyMeter,
}

/// One deployed node. A Virtual Component deploys a closed set of
/// roles, and the only role change is a backup replica's promotion to
/// head (`promote_to_head`). The driver is the only caller.
#[derive(Clone)]
pub enum Node {
    /// The ModBus bridge between the plant and the radio. Boxed: its
    /// per-VC tables would otherwise set the size of every node's slot,
    /// and a deployment has one gateway.
    Gateway(Box<GatewayNode>),
    /// A sensor publishing one plant signal.
    Sensor(SensorNode),
    /// A dedicated forwarder. Its duties live in the driver-held
    /// [`RelayCore`](crate::runtime::behaviors::RelayCore), so the node
    /// itself does nothing.
    Relay,
    /// A controller replica. Boxed, like [`Node::Head`]: a replica is
    /// far larger than a sensor or an actuator, which a fleet deploys
    /// by the thousand.
    Controller(Box<ControllerCore>),
    /// An actuator node.
    Actuator(ActuatorNode),
    /// A Virtual Component's head: monitor replica and control plane.
    Head(Box<HeadNode>),
}

impl Node {
    /// Called at the start of every RT-Link cycle (slot 0), before any
    /// transmissions — heartbeat silence checks live here. Only nodes
    /// hosting a replica ([`Node::controller`]) do anything, and the
    /// driver dispatches only to those.
    pub(crate) fn on_cycle_start(&mut self, ctx: &mut NodeCtx<'_>) {
        match self {
            // Backups raise heartbeat-timeout alerts; the Active replica
            // has no one to watch (its own silence is what others detect).
            Node::Controller(core) => {
                if core.mode == ControllerMode::Backup
                    && core.watched_silent(ctx.now)
                    && core.pending_alert.is_none()
                {
                    core.pending_alert = Some(core.heartbeat_timeout(ctx));
                }
            }
            Node::Head(head) => head.on_cycle_start(ctx),
            Node::Gateway(_) | Node::Sensor(_) | Node::Relay | Node::Actuator(_) => {}
        }
    }

    /// What this node transmits in a slot scheduled for `kind`, if
    /// anything. Returning `None` leaves the slot empty (listeners still
    /// pay the detect window).
    pub(crate) fn take_outgoing(
        &mut self,
        kind: FlowKind,
        ctx: &mut NodeCtx<'_>,
    ) -> Option<Message> {
        match self {
            Node::Gateway(gw) => gw.take_outgoing(kind, ctx),
            Node::Sensor(s) => s.take_outgoing(kind, ctx),
            Node::Controller(core) => match kind {
                FlowKind::ControlPublish { vc } if vc == core.vc => core.take_publish(),
                _ => None,
            },
            Node::Actuator(a) => a.take_outgoing(kind),
            Node::Head(head) => head.take_outgoing(kind),
            Node::Relay => None,
        }
    }

    /// A frame addressed to (or subscribed by) this node arrived.
    pub(crate) fn on_deliver(&mut self, msg: &Message, ctx: &mut NodeCtx<'_>) {
        match self {
            Node::Gateway(gw) => gw.on_deliver(msg, ctx),
            Node::Sensor(s) => s.on_deliver(msg),
            Node::Controller(core) => {
                if let Message::Reconfig {
                    vc,
                    promote,
                    demote,
                } = *msg
                {
                    if vc == core.vc {
                        core.apply_reconfig(promote, demote, ctx.now, ctx.label, ctx.trace);
                    }
                } else if let Some((suspect, mean_dev)) = core.on_data(msg, ctx) {
                    // The alert waits for this node's publish slot.
                    if core.pending_alert.is_none() {
                        core.pending_alert = Some(suspect);
                        log_confirmed_deviation(ctx, suspect, mean_dev);
                    }
                }
            }
            Node::Actuator(a) => a.on_deliver(msg, ctx),
            Node::Head(head) => head.on_deliver(msg, ctx),
            Node::Relay => {}
        }
    }

    /// A timer scheduled by this node fired.
    pub(crate) fn on_timer(&mut self, timer: Timer, ctx: &mut NodeCtx<'_>) {
        if let Some(core) = self.controller_mut() {
            core.on_timer(timer, ctx);
        }
    }

    /// The controller replica state, for nodes that host one (controller
    /// nodes and the head's monitor). Used by the driver for mode
    /// sampling, arbitration candidates and migration.
    #[must_use]
    pub(crate) fn controller(&self) -> Option<&ControllerCore> {
        match self {
            Node::Controller(core) => Some(core),
            Node::Head(head) => Some(&head.monitor),
            _ => None,
        }
    }

    /// Mutable access to the controller replica state.
    pub(crate) fn controller_mut(&mut self) -> Option<&mut ControllerCore> {
        match self {
            Node::Controller(core) => Some(core),
            Node::Head(head) => Some(&mut head.monitor),
            _ => None,
        }
    }

    /// The head's control plane, for the head node.
    pub(crate) fn head_plane_mut(&mut self) -> Option<&mut HeadPlane> {
        match self {
            Node::Head(head) => Some(&mut head.plane),
            _ => None,
        }
    }

    /// Head re-election's rehydration: a controller replica becomes a
    /// head around the *same* core (mode, detectors, VM state and kernel
    /// carry over) and gains the control plane. Any other node is left
    /// as it is.
    pub(crate) fn promote_to_head(&mut self) {
        *self = match std::mem::replace(self, Node::Relay) {
            Node::Controller(core) => Node::Head(Box::new(HeadNode::new(*core))),
            other => other,
        };
    }
}
