//! Sensor nodes: receive HIL downlinks, publish timestamped PVs.

use crate::runtime::behavior::NodeCtx;
use crate::runtime::topo::{FlowKind, VcId};
use crate::runtime::Message;

/// A sensor node publishing one plant signal of one Virtual Component.
#[derive(Clone)]
pub struct SensorNode {
    vc: VcId,
    tag: u8,
    latest: Option<f64>,
}

impl SensorNode {
    /// A sensor for signal `tag` of VC `vc` (tag 0 is the VC's focus PV).
    #[must_use]
    pub fn new(vc: VcId, tag: u8) -> Self {
        SensorNode {
            vc,
            tag,
            latest: None,
        }
    }

    /// Publishes the latest PV in the sensor's own publish slot.
    pub(crate) fn take_outgoing(
        &mut self,
        kind: FlowKind,
        ctx: &mut NodeCtx<'_>,
    ) -> Option<Message> {
        match kind {
            FlowKind::SensorPublish { vc, tag } if vc == self.vc && tag == self.tag => {
                // Freshness stamp: the sensor publishes "now" (on hardware
                // it samples right before its slot).
                Some(Message::SensorValue {
                    vc,
                    tag,
                    value: self.latest?,
                    sampled_at: ctx.now,
                })
            }
            _ => None,
        }
    }

    /// Keeps the latest downlinked value of the sensor's signal.
    pub(crate) fn on_deliver(&mut self, msg: &Message) {
        if let Message::SensorValue { vc, tag, value, .. } = *msg {
            if vc == self.vc && tag == self.tag {
                self.latest = Some(value);
            }
        }
    }
}
