//! Store-and-forward relaying.
//!
//! Forwarding is a node *capability*, not a role: the routing pass
//! ([`crate::runtime::route_flows`]) assigns [`RelayJob`]s to whatever
//! node sits on a multi-hop route — a dedicated relay, the gateway, or a
//! controller lending a hop — and the driver keeps one [`RelayCore`] per
//! forwarding node beside its [`Node`](crate::runtime::Node). A job captures the latest frame
//! arriving from its upstream transmitter that matches the relayed flow's
//! semantic, and retransmits it in the slot scheduled for the matching
//! [`FlowKind::Relay`] entry. A dedicated [`crate::runtime::Role::Relay`]
//! node is [`Node::Relay`](crate::runtime::Node::Relay), which does
//! nothing — its whole existence is its `RelayCore`.

use evm_netsim::NodeId;

use crate::runtime::topo::{FlowKind, RelayJob};
use crate::runtime::Message;

/// One node's forwarding state: the latest captured frame per job.
///
/// Later frames overwrite earlier ones (freshest-data forwarding, the
/// same last-write-wins rule the actuation gate applies), and a taken
/// frame leaves the slot empty until the next capture — a dead upstream
/// starves the hop instead of replaying stale frames forever.
#[derive(Debug, Clone)]
pub struct RelayCore {
    jobs: Vec<RelayJob>,
    pending: Vec<Option<Message>>,
}

impl RelayCore {
    /// Builds the core from the node's routed job list.
    #[must_use]
    pub fn new(jobs: Vec<RelayJob>) -> Self {
        let pending = vec![None; jobs.len()];
        RelayCore { jobs, pending }
    }

    /// Offers a delivered frame: every job whose upstream transmitted it
    /// and whose relayed semantic matches captures a copy. (Two jobs can
    /// legitimately share one frame when two logical flows ride the same
    /// hop.)
    pub fn offer(&mut self, from: NodeId, msg: &Message) {
        for (job, slot) in self.jobs.iter().zip(&mut self.pending) {
            if job.upstream == from && job_matches(job, msg) {
                *slot = Some(msg.clone());
            }
        }
    }

    /// Takes the pending frame of job `job`, if any (the driver calls
    /// this in the slot scheduled for the matching [`FlowKind::Relay`]).
    pub fn take(&mut self, job: usize) -> Option<Message> {
        self.pending.get_mut(job)?.take()
    }

    /// The node's job list (inspection/tests).
    #[must_use]
    pub fn jobs(&self) -> &[RelayJob] {
        &self.jobs
    }

    /// Carries pending frames over from a previous epoch's core: every
    /// job that survives into this core (same upstream, origin and
    /// semantic) inherits its captured-but-unsent frame. This is what
    /// makes a no-op epoch swap invisible to the data plane — nothing in
    /// flight is dropped by reprogramming the forwarders.
    pub fn migrate_from(&mut self, old: &mut RelayCore) {
        for (job, slot) in self.jobs.iter().zip(&mut self.pending) {
            if slot.is_none() {
                if let Some(i) = old.jobs.iter().position(|j| j == job) {
                    *slot = old.pending[i].take();
                }
            }
        }
    }
}

/// `true` if `msg` is a frame of the logical flow `job` forwards. The
/// flow's semantic plus its origin disambiguate flows that share a frame
/// shape — e.g. several controllers' `ControlPublish` streams crossing
/// one forwarder.
fn job_matches(job: &RelayJob, msg: &Message) -> bool {
    match (job.kind, msg) {
        (
            FlowKind::HilDownlink { vc, tag } | FlowKind::SensorPublish { vc, tag },
            Message::SensorValue {
                vc: mvc, tag: mtag, ..
            },
        ) => vc == *mvc && tag == *mtag,
        (FlowKind::ControlPublish { vc }, Message::ControlOutput { vc: mvc, from, .. }) => {
            vc == *mvc && *from == job.origin
        }
        // A starved replica's keepalive and a backup's confirmed-fault
        // report ride the same publish slot; both must cross the hops.
        (FlowKind::ControlPublish { .. }, Message::Heartbeat { from }) => *from == job.origin,
        (FlowKind::ControlPublish { .. }, Message::FaultAlert { observer, .. }) => {
            *observer == job.origin
        }
        (FlowKind::ActuateForward { vc }, Message::ActuateFwd { vc: mvc, .. }) => vc == *mvc,
        (
            FlowKind::ControlPlane { vc },
            Message::Reconfig { vc: mvc, .. } | Message::FailSafe { vc: mvc, .. },
        ) => vc == *mvc,
        _ => false,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evm_sim::SimTime;

    fn job(upstream: u16, origin: u16, kind: FlowKind) -> RelayJob {
        RelayJob {
            upstream: NodeId(upstream),
            origin: NodeId(origin),
            kind,
        }
    }

    #[test]
    fn capture_is_keyed_by_upstream_and_semantic() {
        let mut core = RelayCore::new(vec![
            job(0, 0, FlowKind::HilDownlink { vc: 0, tag: 0 }),
            job(1, 1, FlowKind::SensorPublish { vc: 0, tag: 0 }),
        ]);
        let pv = Message::SensorValue {
            vc: 0,
            tag: 0,
            value: 42.0,
            sampled_at: SimTime::ZERO,
        };
        // Same frame shape, different upstream: only the matching
        // direction captures.
        core.offer(NodeId(0), &pv);
        assert_eq!(core.take(0), Some(pv.clone()));
        assert_eq!(core.take(1), None);
        core.offer(NodeId(1), &pv);
        assert_eq!(core.take(0), None);
        assert_eq!(core.take(1), Some(pv.clone()));
        // Wrong VC: ignored.
        let other = Message::SensorValue {
            vc: 1,
            tag: 0,
            value: 1.0,
            sampled_at: SimTime::ZERO,
        };
        core.offer(NodeId(0), &other);
        assert_eq!(core.take(0), None);
    }

    #[test]
    fn control_publish_jobs_discriminate_by_origin() {
        let mut core = RelayCore::new(vec![
            job(5, 2, FlowKind::ControlPublish { vc: 0 }),
            job(5, 3, FlowKind::ControlPublish { vc: 0 }),
        ]);
        let out = |from: u16| Message::ControlOutput {
            vc: 0,
            from: NodeId(from),
            value: 50.0,
            pv_sampled_at: SimTime::ZERO,
        };
        core.offer(NodeId(5), &out(2));
        assert!(core.take(0).is_some());
        assert!(core.take(1).is_none());
        // Keepalives and alerts ride the same job.
        core.offer(NodeId(5), &Message::Heartbeat { from: NodeId(3) });
        assert_eq!(core.take(1), Some(Message::Heartbeat { from: NodeId(3) }));
        core.offer(
            NodeId(5),
            &Message::FaultAlert {
                suspect: NodeId(2),
                observer: NodeId(3),
            },
        );
        assert!(core.take(1).is_some());
    }

    #[test]
    fn epoch_migration_carries_surviving_jobs_pendings() {
        let dl = FlowKind::HilDownlink { vc: 0, tag: 0 };
        let pb = FlowKind::SensorPublish { vc: 0, tag: 0 };
        let mut old = RelayCore::new(vec![job(0, 0, dl), job(1, 1, pb)]);
        let frame = Message::SensorValue {
            vc: 0,
            tag: 0,
            value: 7.0,
            sampled_at: SimTime::ZERO,
        };
        old.offer(NodeId(0), &frame);
        old.offer(NodeId(1), &frame);
        // The new epoch keeps the publish job, drops the downlink one and
        // adds a fresh job: only the survivor inherits its pending frame.
        let mut new = RelayCore::new(vec![job(1, 1, pb), job(9, 9, dl)]);
        new.migrate_from(&mut old);
        assert_eq!(new.take(0), Some(frame));
        assert_eq!(new.take(1), None);
        assert_eq!(old.take(1), None, "migrated frames move, not copy");
        assert!(old.take(0).is_some(), "dropped jobs keep theirs behind");
    }

    #[test]
    fn taken_frames_do_not_replay() {
        let mut core = RelayCore::new(vec![job(0, 0, FlowKind::ControlPlane { vc: 1 })]);
        let cmd = Message::FailSafe { vc: 1, value: 0.0 };
        core.offer(NodeId(0), &cmd);
        assert_eq!(core.take(0), Some(cmd));
        assert_eq!(core.take(0), None, "a hop forwards each capture once");
    }
}
