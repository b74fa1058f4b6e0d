//! Actuator nodes and the actuation gate they share with the gateway.

use evm_netsim::NodeId;
use evm_sim::SimTime;

use crate::runtime::behavior::NodeCtx;
use crate::runtime::topo::{FlowKind, VcId};
use crate::runtime::Message;

/// Master-acceptance state of an actuation endpoint: which controller's
/// outputs are honored, and the fail-safe lock. Shared by [`ActuatorNode`]
/// and by the gateway for VCs without an actuator node.
#[derive(Debug, Clone)]
pub struct ActuationGate {
    active_ctrl: NodeId,
    failsafe: bool,
}

impl ActuationGate {
    /// A gate initially accepting `primary`.
    #[must_use]
    pub fn new(primary: NodeId) -> Self {
        ActuationGate {
            active_ctrl: primary,
            failsafe: false,
        }
    }

    /// Accepts or rejects a controller output. `Some(value)` if the output
    /// should drive the valve.
    #[must_use]
    pub fn accept(&self, from: NodeId, value: f64) -> Option<f64> {
        (from == self.active_ctrl && !self.failsafe).then_some(value)
    }

    /// Engages the fail-safe lock (controller outputs ignored until a
    /// promotion arrives). Returns `false` if already engaged.
    pub fn engage_failsafe(&mut self) -> bool {
        if self.failsafe {
            return false;
        }
        self.failsafe = true;
        true
    }

    /// Applies a reconfiguration: switching masters (the OS-1 operation
    /// switch) also releases the fail-safe lock.
    pub fn on_reconfig(&mut self, promote: Option<NodeId>) {
        if let Some(p) = promote {
            self.active_ctrl = p;
            self.failsafe = false;
        }
    }
}

/// An actuator node: gates its VC's controller outputs and forwards
/// accepted commands to the gateway in its own slot.
#[derive(Clone)]
pub struct ActuatorNode {
    vc: VcId,
    gate: ActuationGate,
    /// Accepted command awaiting this node's TX slot.
    pending: Option<(f64, SimTime)>,
}

impl ActuatorNode {
    /// VC `vc`'s actuator, initially mastered by `primary`.
    #[must_use]
    pub fn new(vc: VcId, primary: NodeId) -> Self {
        ActuatorNode {
            vc,
            gate: ActuationGate::new(primary),
            pending: None,
        }
    }

    /// Forwards the accepted command in the actuator's own slot.
    pub(crate) fn take_outgoing(&mut self, kind: FlowKind) -> Option<Message> {
        match kind {
            FlowKind::ActuateForward { vc } if vc == self.vc => {
                let (value, pv_ts) = self.pending.take()?;
                Some(Message::ActuateFwd {
                    vc,
                    value,
                    pv_sampled_at: pv_ts,
                })
            }
            _ => None,
        }
    }

    /// Gates controller outputs, fail-safe commands and master switches.
    pub(crate) fn on_deliver(&mut self, msg: &Message, ctx: &mut NodeCtx<'_>) {
        match *msg {
            Message::ControlOutput {
                vc,
                from,
                value,
                pv_sampled_at,
            } if vc == self.vc => {
                if let Some(v) = self.gate.accept(from, value) {
                    self.pending = Some((v, pv_sampled_at));
                }
            }
            Message::FailSafe { vc, value } if vc == self.vc && self.gate.engage_failsafe() => {
                self.pending = Some((value, ctx.now));
                ctx.trace
                    .log(ctx.now, "vc", format!("actuator fail-safe at {value}%"));
            }
            Message::Reconfig { vc, promote, .. } if vc == self.vc => {
                self.gate.on_reconfig(promote);
            }
            _ => {}
        }
    }
}
