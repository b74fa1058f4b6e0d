//! The Virtual Component's head node.
//!
//! The head owns the control plane: it hosts a monitor replica of the
//! focus law (so cold-standby deployments still detect faults), receives
//! alerts, and — via the driver, which arbitrates with a global view
//! standing in for the members' health publications — commits
//! reconfigurations broadcast in its slot.

use evm_netsim::NodeId;

use crate::runtime::behavior::{Effect, NodeCtx};
use crate::runtime::behaviors::{log_confirmed_deviation, ControllerCore};
use crate::runtime::topo::FlowKind;
use crate::runtime::Message;

/// Each control-plane command is rebroadcast this many cycles; at 40 %
/// frame loss the probability every copy is lost is 0.4^20 ≈ 1e-8.
pub const CONTROL_PLANE_REPEATS: u32 = 20;

/// The head's control-plane state.
#[derive(Debug, Clone, Default)]
pub struct HeadPlane {
    /// Pending control-plane commands with a retransmission budget (the
    /// fault plane must survive lossy links; receivers apply commands
    /// idempotently).
    pub pending_cmds: Vec<(Message, u32)>,
    /// An arbitration decision is scheduled and not yet committed.
    pub decision_pending: bool,
    /// Nodes with confirmed faults — never candidates for promotion.
    pub suspected: Vec<NodeId>,
}

impl HeadPlane {
    /// Queues a command for rebroadcast.
    pub fn push_cmd(&mut self, msg: Message) {
        self.pending_cmds.push((msg, CONTROL_PLANE_REPEATS));
    }
}

/// The head node: monitor replica + control plane.
#[derive(Clone)]
pub struct HeadNode {
    pub(crate) monitor: ControllerCore,
    pub(crate) plane: HeadPlane,
}

impl HeadNode {
    /// Builds the head around its monitor replica.
    #[must_use]
    pub fn new(monitor: ControllerCore) -> Self {
        HeadNode {
            monitor,
            plane: HeadPlane::default(),
        }
    }

    /// The monitor's heartbeat check short-circuits the alert frame (it
    /// would be addressed to this very node).
    pub(crate) fn on_cycle_start(&mut self, ctx: &mut NodeCtx<'_>) {
        if self.monitor.watched_silent(ctx.now) && !self.plane.decision_pending {
            let suspect = self.monitor.heartbeat_timeout(ctx);
            ctx.effects.push(Effect::Alert {
                suspect,
                observer: ctx.id,
            });
        }
    }

    /// Rebroadcasts the oldest pending command in the VC's control-plane
    /// slot.
    pub(crate) fn take_outgoing(&mut self, kind: FlowKind) -> Option<Message> {
        match kind {
            FlowKind::ControlPlane { vc } if vc == self.monitor.vc => {
                let (msg, remaining) = self.plane.pending_cmds.first_mut()?;
                let out = msg.clone();
                *remaining -= 1;
                if *remaining == 0 {
                    self.plane.pending_cmds.remove(0);
                }
                Some(out)
            }
            _ => None,
        }
    }

    /// Alerts, in-band or from the monitor's own detector, go straight to
    /// arbitration.
    pub(crate) fn on_deliver(&mut self, msg: &Message, ctx: &mut NodeCtx<'_>) {
        if let Message::FaultAlert { suspect, observer } = *msg {
            ctx.effects.push(Effect::Alert { suspect, observer });
        } else if let Some((suspect, mean_dev)) = self.monitor.on_data(msg, ctx) {
            log_confirmed_deviation(ctx, suspect, mean_dev);
            ctx.effects.push(Effect::Alert {
                suspect,
                observer: ctx.id,
            });
        }
    }
}
