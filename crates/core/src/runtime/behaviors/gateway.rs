//! The gateway node: ModBus bridge between the plant and the radio.

use evm_sim::SimTime;

use crate::runtime::behavior::{Effect, NodeCtx};
use crate::runtime::behaviors::ActuationGate;
use crate::runtime::topo::{FlowKind, VcId};
use crate::runtime::Message;

/// The gateway: serves HIL downlinks from the plant's register map for
/// every hosted Virtual Component, applies forwarded actuations to each
/// VC's register, and — for VCs without an actuator node — gates that
/// VC's controller outputs itself. All per-VC state is indexed by
/// [`VcId`].
pub struct GatewayNode {
    /// Gaussian measurement noise added to each VC's focus PV read.
    noise_std: f64,
    /// Actuation holding register per VC.
    act_registers: Vec<u16>,
    /// Per-VC gate; `Some` when this gateway is that VC's actuation
    /// endpoint (no actuator node in the VC).
    gates: Vec<Option<ActuationGate>>,
}

impl GatewayNode {
    /// Builds the gateway. `act_registers[vc]` is VC `vc`'s actuation
    /// holding register; `gates[vc]` is `Some` where the gateway is the
    /// actuation endpoint.
    #[must_use]
    pub fn new(noise_std: f64, act_registers: Vec<u16>, gates: Vec<Option<ActuationGate>>) -> Self {
        debug_assert_eq!(act_registers.len(), gates.len());
        GatewayNode {
            noise_std,
            act_registers,
            gates,
        }
    }

    /// Writes an accepted actuation to the VC's plant register and
    /// accounts for it.
    fn actuate(&self, vc: VcId, value: f64, pv_sampled_at: SimTime, ctx: &mut NodeCtx<'_>) {
        let register = self.act_registers[vc as usize];
        let _ = ctx.regmap.write_scaled(ctx.plant, register, value);
        ctx.effects.push(Effect::Actuated { vc, pv_sampled_at });
    }

    /// Serves a HIL downlink from the plant's register map.
    pub(crate) fn take_outgoing(
        &mut self,
        kind: FlowKind,
        ctx: &mut NodeCtx<'_>,
    ) -> Option<Message> {
        match kind {
            FlowKind::HilDownlink { vc, tag } => {
                let register = *ctx.vcs.vc(vc).sensor_registers.get(tag as usize)?;
                let mut v = ctx.regmap.read_scaled(ctx.plant, register).ok()?;
                // Measurement noise applies at the focus PV interface.
                if tag == 0 && self.noise_std > 0.0 {
                    v += ctx.rng.normal(0.0, self.noise_std);
                }
                Some(Message::SensorValue {
                    vc,
                    tag,
                    value: v,
                    sampled_at: ctx.now,
                })
            }
            _ => None,
        }
    }

    /// Applies forwarded actuations and, for VCs without an actuator
    /// node, gates controller outputs itself.
    pub(crate) fn on_deliver(&mut self, msg: &Message, ctx: &mut NodeCtx<'_>) {
        match *msg {
            Message::ActuateFwd {
                vc,
                value,
                pv_sampled_at,
            } => self.actuate(vc, value, pv_sampled_at, ctx),
            // Endpoint duties, only for VCs without an actuator node.
            Message::ControlOutput {
                vc,
                from,
                value,
                pv_sampled_at,
            } => {
                if let Some(Some(gate)) = self.gates.get(vc as usize) {
                    if let Some(v) = gate.accept(from, value) {
                        self.actuate(vc, v, pv_sampled_at, ctx);
                    }
                }
            }
            Message::FailSafe { vc, value } => {
                if let Some(Some(gate)) = self.gates.get_mut(vc as usize) {
                    if gate.engage_failsafe() {
                        ctx.trace
                            .log(ctx.now, "vc", format!("actuator fail-safe at {value}%"));
                        self.actuate(vc, value, ctx.now, ctx);
                    }
                }
            }
            Message::Reconfig { vc, promote, .. } => {
                if let Some(Some(gate)) = self.gates.get_mut(vc as usize) {
                    gate.on_reconfig(promote);
                }
            }
            _ => {}
        }
    }
}
