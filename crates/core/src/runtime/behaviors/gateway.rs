//! The gateway node: ModBus bridge between the plant and the radio.

use std::sync::Arc;

use evm_plant::{BoundHolding, BoundInput};
use evm_sim::SimTime;

use crate::runtime::behavior::{Effect, NodeCtx};
use crate::runtime::behaviors::ActuationGate;
use crate::runtime::topo::{FlowKind, VcId};
use crate::runtime::Message;

/// The gateway's plant handles, bound once per deployment and shared by
/// every run's gateway: nothing a run does writes them.
pub(crate) struct GatewayPorts {
    /// Each VC's actuation holding register; `None` where the plant
    /// cannot be commanded through it (the write is then dropped).
    pub(crate) act: Vec<Option<BoundHolding>>,
    /// Every VC's sensor input registers, concatenated in `VcId` then
    /// tag order; `None` where the register reads no plant measurement
    /// (that downlink stays empty).
    pub(crate) inputs: Vec<Option<BoundInput>>,
    /// VC `vc`'s sensor registers are `inputs[input_base[vc]..
    /// input_base[vc + 1]]`.
    pub(crate) input_base: Vec<u32>,
}

/// The gateway: serves HIL downlinks from the plant's register map for
/// every hosted Virtual Component, applies forwarded actuations to each
/// VC's register, and — for VCs without an actuator node — gates that
/// VC's controller outputs itself. All per-VC state is indexed by
/// [`VcId`]. Registers are bound to plant handles at setup, so serving
/// a downlink or an actuation looks nothing up by address or name.
#[derive(Clone)]
pub struct GatewayNode {
    /// Gaussian measurement noise added to each VC's focus PV read.
    noise_std: f64,
    ports: Arc<GatewayPorts>,
    /// Per-VC gate; `Some` when this gateway is that VC's actuation
    /// endpoint (no actuator node in the VC).
    gates: Vec<Option<ActuationGate>>,
}

impl GatewayNode {
    /// Builds the gateway on the deployment's bound `ports`; `gates[vc]`
    /// is `Some` where the gateway is the actuation endpoint.
    #[must_use]
    pub(crate) fn new(
        noise_std: f64,
        ports: Arc<GatewayPorts>,
        gates: Vec<Option<ActuationGate>>,
    ) -> Self {
        debug_assert_eq!(ports.act.len(), gates.len());
        debug_assert_eq!(ports.input_base.len(), gates.len() + 1);
        GatewayNode {
            noise_std,
            ports,
            gates,
        }
    }

    /// Writes an accepted actuation to the VC's plant register and
    /// accounts for it.
    fn actuate(&self, vc: VcId, value: f64, pv_sampled_at: SimTime, ctx: &mut NodeCtx<'_>) {
        if let Some(register) = &self.ports.act[vc as usize] {
            let _ = register.write(ctx.plant, value);
        }
        ctx.effects.push(Effect::Actuated { vc, pv_sampled_at });
    }

    /// VC `vc`'s bound input register for sensor `tag`, if it has one.
    fn input(&self, vc: VcId, tag: u8) -> Option<BoundInput> {
        let ports = &*self.ports;
        let (lo, hi) = (
            ports.input_base[vc as usize],
            ports.input_base[vc as usize + 1],
        );
        ports.inputs[lo as usize..hi as usize]
            .get(usize::from(tag))
            .copied()
            .flatten()
    }

    /// Serves a HIL downlink from the plant's register map.
    pub(crate) fn take_outgoing(
        &mut self,
        kind: FlowKind,
        ctx: &mut NodeCtx<'_>,
    ) -> Option<Message> {
        match kind {
            FlowKind::HilDownlink { vc, tag } => {
                let mut v = self.input(vc, tag)?.read(ctx.plant);
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
