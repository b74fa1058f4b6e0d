//! The fault plane: injections, head-side arbitration and failover
//! commits — all keyed by Virtual Component.
//!
//! Backups compute the same capsule on the same PV stream and feed
//! deviation detectors with (active output, own output) pairs; a confirmed
//! run of anomalies raises an alert to the VC's head, which arbitrates
//! over that VC's surviving replicas — with a global view standing in for
//! the members' health publications — and commits the reconfiguration at
//! its epoch boundary: the paper's Fig. 6(b) machinery, over arbitrary
//! topologies and any number of concurrent VCs. A cold-standby target
//! holds no task, so the head first ships it the capsule over the VC's
//! transfer lane ([`super::xfer`]), and the transfer plane commits the
//! failover once the capsule is active there. A failover in one VC
//! never touches another VC's records, detectors or actuation gates.

use evm_netsim::NodeId;

use crate::arbitration::{select_master, Candidate};
use crate::roles::ControllerMode;
use crate::runtime::driver::{Engine, Ev};
use crate::runtime::topo::VcId;
use crate::runtime::Message;

impl Engine {
    pub(super) fn on_inject_fault(&mut self) {
        if let Some((_, fault)) = self.run.scenario.fault {
            let primary = self.run.vcs.vc(0).primary();
            let now = self.run.now;
            if let Some(c) = self.controller_mut(primary) {
                c.fault = Some((now, fault));
            }
            let label = self.label_of(primary);
            self.run.trace.log(
                self.run.now,
                "fault",
                format!("inject {fault:?} on {label}"),
            );
        }
    }

    pub(super) fn on_inject_backup_fault(&mut self) {
        let Some(&backup) = self.run.vcs.vc(0).controllers.get(1) else {
            return;
        };
        if let Some((_, fault)) = self.run.scenario.backup_fault {
            let now = self.run.now;
            if let Some(c) = self.controller_mut(backup) {
                c.fault = Some((now, fault));
            }
            let label = self.label_of(backup);
            self.run.trace.log(
                self.run.now,
                "fault",
                format!("inject {fault:?} on {label}"),
            );
        }
    }

    pub(super) fn on_crash_primary(&mut self, vc: VcId) {
        let primary = self.run.vcs.vc(vc).primary();
        self.run
            .scenario
            .fault_plan
            .add_crash(evm_netsim::NodeCrash::permanent(primary, self.run.now));
        let label = self.label_of(primary);
        self.run
            .trace
            .log(self.run.now, "fault", format!("{label} crashed"));
    }

    /// Head-side alert handling for the suspect's VC: schedule the
    /// reconfiguration decision at the next epoch boundary.
    pub(super) fn head_on_alert(&mut self, suspect: NodeId, observer: NodeId) {
        let Some(vc) = self.run.vcs.vc_of_controller(suspect) else {
            return;
        };
        let Some(head) = self.run.vcs.vc(vc).head else {
            return;
        };
        let Some(plane) = self.head_plane_mut(head) else {
            return;
        };
        if plane.decision_pending {
            return;
        }
        // Only the controller its component believes is Active can be the
        // subject of a failover (stale alerts from the switchover window
        // are dropped here).
        if self.run.components[vc as usize].active_controller() != Some(suspect) {
            return;
        }
        if let Some(plane) = self.head_plane_mut(head) {
            plane.decision_pending = true;
        }
        let epoch = self.run.scenario.reconfig_epoch;
        let decide_at = if epoch.is_zero() {
            self.run.now + self.run.scenario.rtlink.slot_duration
        } else {
            self.run.now.ceil_to(epoch)
        };
        self.run.trace.log(
            self.run.now,
            "vc",
            format!("head received alert from {observer} on {suspect}; deciding at {decide_at}"),
        );
        self.run.queue.push(decide_at, Ev::HeadDecision { suspect });
    }

    pub(super) fn on_head_decision(&mut self, suspect: NodeId) {
        let Some(vc) = self.run.vcs.vc_of_controller(suspect) else {
            return;
        };
        let Some(head) = self.run.vcs.vc(vc).head else {
            return;
        };
        let suspected = {
            let Some(plane) = self.head_plane_mut(head) else {
                return;
            };
            if !plane.suspected.contains(&suspect) {
                plane.suspected.push(suspect);
            }
            plane.suspected.clone()
        };
        // Arbitration over the VC's surviving, unsuspected controller
        // replicas (deterministic order: the role map's precedence).
        let candidates: Vec<Candidate> = self
            .run
            .vcs
            .vc(vc)
            .controllers
            .iter()
            .filter(|&&id| id != suspect && !suspected.contains(&id))
            .map(|&id| {
                let c = self.controller(id).expect("controller deployed");
                Candidate {
                    node: id,
                    eligible: self.alive(id),
                    battery: self.battery_fitness(id),
                    cpu_headroom: 1.0 - c.kernel().utilization(),
                    link_quality: 1.0,
                    warm_replica: c.capsule_version.is_some(),
                }
            })
            .collect();
        let Some(target) = select_master(&candidates) else {
            self.engage_fail_safe(vc, head, suspect);
            return;
        };
        let warm = self
            .controller(target)
            .expect("controller deployed")
            .capsule_version
            .is_some();
        if warm {
            self.commit_failover(target, suspect);
        } else if !self.start_capsule_transfer(vc, target, Some(suspect)) {
            // Cold standby ships the capsule to the target first; the
            // transfer plane commits the failover once it is active
            // there. When no shipment can start (the primary that owns
            // the lane is down, or the VC's lane is already busy), no
            // replica can take over.
            self.engage_fail_safe(vc, head, suspect);
        }
    }

    /// §3.1.2 health-assessment response: LocalFailSafe. Demote the
    /// suspect and drive the VC's actuator to its safe position.
    pub(super) fn engage_fail_safe(&mut self, vc: VcId, head: NodeId, suspect: NodeId) {
        self.run
            .trace
            .log(self.run.now, "vc", "no viable master; engaging fail-safe");
        let _ = self
            .component_mut(vc)
            .set_mode(suspect, ControllerMode::Indicator);
        let fail_safe = self.run.scenario.fail_safe_value;
        if let Some(plane) = self.head_plane_mut(head) {
            plane.push_cmd(Message::Reconfig {
                vc,
                promote: None,
                demote: Some((suspect, ControllerMode::Indicator)),
            });
            plane.push_cmd(Message::FailSafe {
                vc,
                value: fail_safe,
            });
            plane.decision_pending = false;
        }
    }

    /// Releases VC `vc`'s pending head decision after a cold-standby
    /// shipment failed, so the next alert re-arbitrates.
    pub(super) fn release_head_decision(&mut self, vc: VcId) {
        if let Some(head) = self.run.vcs.vc(vc).head {
            if let Some(plane) = self.head_plane_mut(head) {
                plane.decision_pending = false;
            }
        }
    }

    pub(super) fn commit_failover(&mut self, target: NodeId, suspect: NodeId) {
        let Some(vc) = self.run.vcs.vc_of_controller(target) else {
            return;
        };
        // The VC head's authoritative view: demote first, then promote.
        let record = self.component_mut(vc);
        let _ = record.set_mode(suspect, ControllerMode::Backup);
        let _ = record.set_mode(target, ControllerMode::Active);
        let Some(head) = self.run.vcs.vc(vc).head else {
            return;
        };
        if let Some(plane) = self.head_plane_mut(head) {
            plane.push_cmd(Message::Reconfig {
                vc,
                promote: Some(target),
                demote: Some((suspect, ControllerMode::Backup)),
            });
            plane.decision_pending = false;
        }
        // The head applies its own commit immediately (it never hears its
        // own broadcast): the monitor re-aims at the new Active.
        if let Some(ix) = self.dep.topology.index_of(head) {
            if let Some(monitor) = self.run.nodes[ix].controller_mut() {
                monitor.apply_reconfig(
                    Some(target),
                    Some((suspect, ControllerMode::Backup)),
                    self.run.now,
                    &self.dep.labels[ix],
                    &mut self.run.trace,
                );
            }
        }
        self.run.queue.push(
            self.run.now + self.run.scenario.demote_dormant_after,
            Ev::DormantDemote { target: suspect },
        );
        self.run.trace.log(
            self.run.now,
            "vc",
            format!("head commits failover {suspect} -> {target}"),
        );
    }

    pub(super) fn on_dormant_demote(&mut self, target: NodeId) {
        let Some(vc) = self.run.vcs.vc_of_controller(target) else {
            return;
        };
        let _ = self
            .component_mut(vc)
            .set_mode(target, ControllerMode::Dormant);
        if let Some(head) = self.run.vcs.vc(vc).head {
            if let Some(plane) = self.head_plane_mut(head) {
                plane.push_cmd(Message::Reconfig {
                    vc,
                    promote: None,
                    demote: Some((target, ControllerMode::Dormant)),
                });
            }
        }
    }
}
