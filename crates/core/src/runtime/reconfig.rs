//! The epoch-based reconfiguration plane.
//!
//! PR 1–4 froze a deployment's routes, slot schedule and head assignment
//! at construction: one immutable program per run. This module makes the
//! whole setup-time pipeline (`synth_flows` → `route_flows` →
//! `SlotSchedule::place_flows` → relay-job programming) re-invokable
//! mid-run through the [`Reconfigurator`], which produces an [`Epoch`] —
//! routes, flow semantics, schedule and forwarding jobs — that the driver
//! swaps in **atomically at an RT-Link cycle boundary** while every piece
//! of long-lived state (plant, PID integrators, commanded modes,
//! failover detectors, energy meters) carries over untouched.
//!
//! Two triggers drive recomputation, both built on transmission-liveness
//! bookkeeping ([`crate::membership::HeartbeatLedger`], stamped by the
//! driver for every frame actually put on the air):
//!
//! 1. **Dead forwarder** — any node carrying forwarding jobs (a
//!    dedicated relay, or a role node lending a hop) that misses more
//!    than `heartbeat_cycles` consecutive cycles is marked down; routes
//!    re-run over the surviving [`Topology`] view
//!    ([`Topology::without_nodes`]) — flows whose endpoints died are
//!    pruned or retargeted to surviving listeners — and starved hops
//!    resume through whatever connectivity remains (e.g. a backup relay
//!    chain).
//! 2. **Head crash** — a silent head is replaced by
//!    [`crate::membership::elect_head`] over the VC's surviving backup
//!    replicas (fittest battery, lowest id on ties); the winner's node
//!    swaps in place from a controller into a head (keeping its
//!    replica state), the role map re-seats the head, and the control
//!    plane (arbitration, failover commits) resumes on the new node.
//!
//! Everything here is gated on [`ReroutePolicy::Heartbeat`]; under the
//! default [`ReroutePolicy::Static`] the runtime behaves exactly as
//! before — no keepalives, no ledger, no epochs — so all pre-existing
//! flow, schedule and plant-trace goldens stay byte-identical.

use std::collections::BTreeMap;
use std::mem;
use std::sync::Arc;

use evm_mac::rtlink::{Flow, RtLinkConfig, ScheduleError, SlotSchedule};
use evm_netsim::{NodeId, Topology};
use evm_sim::{SimDuration, SimTime};

use crate::membership::{elect_head, HeadCandidate, HeartbeatLedger};
use crate::roles::ControllerMode;
use crate::runtime::behaviors::RelayCore;
use crate::runtime::driver::Engine;
use crate::runtime::plan::{CyclePlan, Wiring};
use crate::runtime::topo::{route_flows, synth_flows, FlowKind, RelayJob, RouteError, VcId, VcMap};

/// When (and whether) the runtime re-routes around failures mid-run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReroutePolicy {
    /// Routes, schedule and head are frozen at setup — the pre-epoch
    /// behavior, and the default. A crashed forwarder permanently starves
    /// every hop routed through it.
    Static,
    /// Forwarders and heads transmit keepalives in otherwise-empty owned
    /// slots; a node silent for more than `heartbeat_cycles` cycles is
    /// marked down, triggering re-routing (and head re-election) at the
    /// next cycle boundary.
    Heartbeat,
}

impl ReroutePolicy {
    /// Stable label for report keys and CSV cells.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ReroutePolicy::Static => "static",
            ReroutePolicy::Heartbeat => "heartbeat",
        }
    }
}

/// The flow semantic one scheduled transmission serves: `owner`
/// transmits `kind` in `slot`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotFlow {
    /// The slot within the cycle.
    pub slot: usize,
    /// The transmitting node.
    pub owner: NodeId,
    /// What the transmission carries.
    pub kind: FlowKind,
}

/// One configuration epoch: everything the driver swaps when the network
/// is re-programmed mid-run. Produced by [`Reconfigurator::compute`];
/// epoch 0 is the setup-time configuration.
#[derive(Debug, Clone)]
pub struct Epoch {
    /// Monotone epoch sequence number (tags the schedule).
    pub seq: u64,
    /// The recomputed slot timetable.
    pub schedule: SlotSchedule,
    /// The flow semantic of every scheduled transmission, sorted by
    /// `(slot, owner)`; no pair appears twice (an owner transmits at most
    /// once per slot).
    pub flow_kinds: Vec<SlotFlow>,
    /// Forwarding jobs per node, in emission order.
    pub jobs: BTreeMap<NodeId, Vec<RelayJob>>,
}

/// Why an epoch could not be computed. A failed recompute leaves the
/// previous epoch in force (the run degrades exactly as a static run
/// would) — it never aborts the simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReconfigError {
    /// A logical flow has no path over the surviving topology.
    Unroutable(RouteError),
    /// The re-routed flow set does not fit the RT-Link cycle.
    Unschedulable(ScheduleError),
}

impl std::fmt::Display for ReconfigError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReconfigError::Unroutable(e) => write!(f, "unroutable: {e}"),
            ReconfigError::Unschedulable(e) => write!(f, "unschedulable: {e}"),
        }
    }
}

impl std::error::Error for ReconfigError {}

/// The reusable setup pipeline: role maps in, epoch out. Stateless — the
/// same inputs always produce the same epoch, which is what makes a
/// no-op reconfiguration (nothing died) indistinguishable from the
/// static run.
pub struct Reconfigurator;

impl Reconfigurator {
    /// Synthesizes the flow pipeline for `vcs`, routes it over `topology`
    /// minus the `down` nodes, and places it on a fresh schedule tagged
    /// with `seq`.
    ///
    /// The `down` view is derived from the already-sampled connectivity
    /// graph ([`Topology::without_nodes`]), so recomputation never draws
    /// from the channel's RNG stream — a reconfigured run stays exactly
    /// reproducible. With nothing down, `topology` itself is the view.
    ///
    /// With `transfer_slots > 0`, every VC whose (surviving) primary
    /// controller has at least one surviving peer additionally gets that
    /// many dedicated [`FlowKind::Transfer`] slots appended after the
    /// control pipeline — the bulk lane a live capsule migration ships
    /// its fragments over. `transfer_slots == 0` reproduces the previous
    /// schedules byte for byte.
    ///
    /// # Errors
    ///
    /// [`ReconfigError`] when a flow cannot be routed over the surviving
    /// connectivity or the routed set (plus any transfer reservation)
    /// cannot be scheduled.
    pub fn compute(
        seq: u64,
        topology: &Topology,
        down: &[NodeId],
        vcs: &VcMap,
        rtlink: &RtLinkConfig,
        serial_schedule: bool,
        transfer_slots: usize,
    ) -> Result<Epoch, ReconfigError> {
        let cut;
        let view = if down.is_empty() {
            topology
        } else {
            cut = topology.without_nodes(down);
            &cut
        };
        let logical = prune_down_flows(synth_flows(vcs), down);
        let routed = route_flows(view, &logical).map_err(ReconfigError::Unroutable)?;
        let flows = routed.flows.iter().map(|(f, _)| f);
        let (mut schedule, placed) = if serial_schedule {
            SlotSchedule::place_flows_serial(rtlink, flows)
        } else {
            SlotSchedule::place_flows(rtlink, view, flows)
        }
        .map_err(ReconfigError::Unschedulable)?;
        let mut flow_kinds: Vec<SlotFlow> = routed
            .flows
            .iter()
            .zip(&placed)
            .map(|((flow, kind), &slot)| SlotFlow {
                slot,
                owner: flow.src,
                kind: *kind,
            })
            .collect();
        if transfer_slots > 0 {
            for vc in 0..vcs.n_vcs() as VcId {
                let roles = vcs.vc(vc);
                // The transfer lane's owner is the VC's primary replica —
                // the node holding the authoritative capsule state a
                // migration ships. A down primary has nothing to ship.
                let Some(&src) = roles.controllers.first() else {
                    continue;
                };
                if down.contains(&src) {
                    continue;
                }
                let mut listeners: Vec<NodeId> = roles
                    .head
                    .into_iter()
                    .chain(roles.controllers.iter().copied())
                    .filter(|&n| n != src && !down.contains(&n))
                    .collect();
                listeners.sort_unstable();
                listeners.dedup();
                if listeners.is_empty() {
                    continue;
                }
                let reserved = schedule
                    .reserve_transfer_slots(src, &listeners, transfer_slots)
                    .map_err(ReconfigError::Unschedulable)?;
                flow_kinds.extend(reserved.into_iter().map(|slot| SlotFlow {
                    slot,
                    owner: src,
                    kind: FlowKind::Transfer { vc },
                }));
            }
        }
        // Placement rules out a second flow of one owner in one slot.
        flow_kinds.sort_unstable_by_key(|f| (f.slot, f.owner));
        debug_assert!(flow_kinds
            .windows(2)
            .all(|w| (w[0].slot, w[0].owner) < (w[1].slot, w[1].owner)));
        Ok(Epoch {
            seq,
            schedule: schedule.with_epoch(seq),
            flow_kinds,
            jobs: routed.jobs,
        })
    }
}

/// Rewrites the logical flow list for a set of down nodes, so recompute
/// succeeds even when a dead node was a flow *endpoint* (a role node
/// lending a hop, a crashed primary) and not just a forwarder:
///
/// * a flow whose **source** is down is dropped (nothing transmits),
/// * a flow whose **destination** is down retargets to its first
///   surviving extra listener (a publish keeps serving its subscribers
///   when the primary receiver dies) or is dropped when none survives,
/// * down nodes are stripped from listener lists,
/// * `after` edges re-chain through dropped flows (a dropped flow's
///   dependents inherit its own dependency), keeping the precedence
///   graph valid for `route_flows`.
///
/// With no down nodes the list passes through untouched — the no-op
/// identity the atomicity tests pin.
fn prune_down_flows(logical: Vec<(Flow, FlowKind)>, down: &[NodeId]) -> Vec<(Flow, FlowKind)> {
    if down.is_empty() {
        return logical;
    }
    // Per original index: the kept flow's new index, or — for dropped
    // flows — the dependency its dependents should inherit.
    let mut new_idx: Vec<Option<usize>> = Vec::with_capacity(logical.len());
    let mut inherited: Vec<Option<usize>> = Vec::with_capacity(logical.len());
    let mut kept: Vec<(Flow, FlowKind)> = Vec::new();
    for (flow, kind) in logical {
        let after = flow.after.and_then(|a| new_idx[a].or(inherited[a]));
        let mut listeners: Vec<NodeId> = flow
            .extra_listeners
            .iter()
            .copied()
            .filter(|l| !down.contains(l))
            .collect();
        let dst = if down.contains(&flow.dst) {
            if listeners.is_empty() {
                None
            } else {
                Some(listeners.remove(0))
            }
        } else {
            Some(flow.dst)
        };
        match (down.contains(&flow.src), dst) {
            (false, Some(dst)) => {
                let mut f = Flow::new(flow.src, dst).with_listeners(listeners);
                if let Some(a) = after {
                    f = f.after(a);
                }
                new_idx.push(Some(kept.len()));
                inherited.push(None);
                kept.push((f, kind));
            }
            _ => {
                new_idx.push(None);
                inherited.push(after);
            }
        }
    }
    kept
}

/// The driver's half of the reconfiguration plane: liveness ledger,
/// committed/staged epochs, and the detect→commit→recover timestamps the
/// reports read off.
#[derive(Debug, Clone, Default)]
pub(super) struct ReconfigState {
    /// Transmission liveness per node, in cycle counts.
    pub ledger: HeartbeatLedger,
    /// The committed epoch (0 = the setup-time configuration).
    pub epoch: u64,
    /// A recomputed epoch staged for the next cycle boundary.
    pub pending: Option<Epoch>,
    /// When the first node was marked down.
    pub detect_at: Option<SimTime>,
    /// When the most recent epoch was committed.
    pub last_commit_at: Option<SimTime>,
    /// A down-triggered recompute staged successfully and its recovery
    /// has not been observed yet. Gates the reroute clock: a *failed*
    /// recompute (starvation persists) must never let an unrelated later
    /// commit report a recovery that did not happen.
    pub awaiting_recovery: bool,
    /// Detect → first delivered actuation after a post-detection commit.
    pub reroute_latency: Option<SimDuration>,
}

impl Engine {
    /// Reconfiguration housekeeping at every cycle boundary: commit a
    /// staged epoch, then (under [`ReroutePolicy::Heartbeat`]) scan the
    /// watched nodes for heartbeat silence and stage a recomputed epoch
    /// when someone died.
    ///
    /// The watch set is exactly the nodes with *active duties* in the
    /// committed epoch: heads, plus any node carrying forwarding jobs (a
    /// dedicated relay, or a controller/actuator lending a hop). A node
    /// without duties — e.g. an idle backup-chain relay — is deliberately
    /// unwatched: it owns no slots, so silence carries no information
    /// and would false-mark a live node down (sticky!) the moment a
    /// route change strips its jobs. Its silence clock starts when an
    /// epoch first presses it into service ([`Engine::apply_epoch`]'s
    /// commit-time stamp).
    pub(super) fn reconfig_on_cycle_start(&mut self) {
        if let Some(epoch) = self.run.reconfig.pending.take() {
            self.apply_epoch(epoch);
        }
        if self.run.scenario.reroute != ReroutePolicy::Heartbeat {
            return;
        }
        let (cycle, _) = self.dep.rtlink.slot_at(self.run.now);
        // The scan runs every cycle on every heartbeat deployment, so its
        // two working lists live in reusable engine scratch.
        let mut watch = mem::take(&mut self.run.scratch_watch);
        watch.clear();
        watch.extend(self.run.vcs.vcs.iter().filter_map(|r| r.head));
        watch.extend_from_slice(&self.run.wiring.forwarders);
        // Sorted + deduped: down-marks must trace deterministically.
        watch.sort_unstable();
        watch.dedup();
        let mut newly_down = mem::take(&mut self.run.scratch_down);
        newly_down.clear();
        for &node in &watch {
            if !self.run.reconfig.ledger.is_down(node)
                && self
                    .run
                    .reconfig
                    .ledger
                    .silent(node, cycle, self.run.scenario.heartbeat_cycles)
            {
                self.run.reconfig.ledger.mark_down(node);
                newly_down.push(node);
            }
        }
        self.run.scratch_watch = watch;
        if newly_down.is_empty() {
            self.run.scratch_down = newly_down;
            return;
        }
        if self.run.reconfig.detect_at.is_none() {
            self.run.reconfig.detect_at = Some(self.run.now);
        }
        for &node in &newly_down {
            let label = self.label_of(node);
            self.run.trace.log(
                self.run.now,
                "reconfig",
                format!("{label} missed heartbeats; marked down"),
            );
            self.on_node_down(node);
        }
        self.run.scratch_down = newly_down;
        if self.stage_recompute() {
            self.run.reconfig.awaiting_recovery = true;
        }
    }

    /// Membership consequences of a node marked down: dedicated relays
    /// leave their VC's role map; a dead head triggers re-election.
    fn on_node_down(&mut self, node: NodeId) {
        for vc in 0..self.run.vcs.n_vcs() as VcId {
            if self.run.vcs.vc(vc).head == Some(node) {
                self.reelect_head(vc, node);
            } else if self.run.vcs.vc(vc).relays.contains(&node) {
                Arc::make_mut(&mut self.run.vcs).vcs[vc as usize]
                    .relays
                    .retain(|&r| r != node);
            }
        }
    }

    /// Re-elects VC `vc`'s head after `dead` went silent: deterministic
    /// election over the surviving backup replicas, rehydration in place
    /// (the winner's [`Node::Controller`](super::Node::Controller)
    /// becomes a [`Node::Head`](super::Node::Head) around the *same*
    /// replica core — detectors, VM state and kernel carry over) and the
    /// role-map update. The head's commanded view is untouched: it holds
    /// controller modes, and a re-election commands none.
    fn reelect_head(&mut self, vc: VcId, dead: NodeId) {
        let candidates: Vec<HeadCandidate> = self
            .run
            .vcs
            .vc(vc)
            .controllers
            .iter()
            .map(|&id| {
                let mode = self.run.components[vc as usize].mode(id);
                HeadCandidate {
                    node: id,
                    eligible: mode == Some(ControllerMode::Backup)
                        && self.alive(id)
                        && !self.run.reconfig.ledger.is_down(id),
                    fitness: self.battery_fitness(id),
                }
            })
            .collect();
        let Some(new_head) = elect_head(&candidates) else {
            self.run.trace.log(
                self.run.now,
                "reconfig",
                "head lost and no backup survives; control plane stays down",
            );
            Arc::make_mut(&mut self.run.vcs).vcs[vc as usize].head = None;
            return;
        };
        // Rehydrate: the winner keeps its replica core (mode, detectors,
        // integrator state) but gains the head's control plane.
        if let Some(ix) = self.dep.topology.index_of(new_head) {
            self.run.nodes[ix].promote_to_head();
        }
        {
            let roles = &mut Arc::make_mut(&mut self.run.vcs).vcs[vc as usize];
            roles.head = Some(new_head);
            roles.controllers.retain(|&c| c != new_head);
        }
        let (dead_label, new_label) = (self.label_of(dead), self.label_of(new_head));
        self.run.trace.log(
            self.run.now,
            "reconfig",
            format!("head {dead_label} lost; {new_label} re-elected head"),
        );
        // With a transfer lane reserved, a head re-election doesn't just
        // re-point roles — it *ships the capsule*: the primary serializes
        // its versioned capsule plus interpreter state and streams it to
        // the new head over the dedicated transfer slots (see
        // `super::xfer`). Without transfer slots this is a no-op, which
        // keeps the pre-migration goldens byte-identical.
        self.start_capsule_transfer(vc, new_head, None);
    }

    /// Recomputes the epoch over the surviving topology and stages it for
    /// the next cycle boundary; returns whether staging succeeded. A
    /// failed recompute (no alternate path, cycle too short) leaves the
    /// current epoch in force.
    pub(super) fn stage_recompute(&mut self) -> bool {
        let seq = self.run.reconfig.epoch + 1;
        let down = self.run.reconfig.ledger.down_nodes();
        match Reconfigurator::compute(
            seq,
            &self.dep.topology,
            &down,
            &self.run.vcs,
            &self.run.scenario.rtlink,
            self.run.scenario.serial_schedule,
            self.run.scenario.transfer_slots,
        ) {
            Ok(epoch) => {
                self.run.trace.log(
                    self.run.now,
                    "reconfig",
                    format!(
                        "epoch {seq} staged: {} scheduled flows over {} slots",
                        epoch.flow_kinds.len(),
                        epoch.schedule.max_slot().map_or(0, |s| s + 1),
                    ),
                );
                self.run.reconfig.pending = Some(epoch);
                true
            }
            Err(e) => {
                self.run
                    .trace
                    .log(self.run.now, "reconfig", format!("reroute failed: {e}"));
                false
            }
        }
    }

    /// Commits a staged epoch: swaps schedule, flow semantics and relay
    /// programs in one step, as a new wiring (the old one, possibly the
    /// deployment's, is retired, never written). Pending frames of
    /// forwarding jobs that survive into the new epoch migrate with it,
    /// so a no-op swap is invisible to the data plane.
    fn apply_epoch(&mut self, epoch: Epoch) {
        let mut cores: Vec<Option<RelayCore>> =
            (0..self.dep.node_ids.len()).map(|_| None).collect();
        let mut forwarders: Vec<NodeId> = Vec::with_capacity(epoch.jobs.len());
        for (id, jobs) in epoch.jobs {
            let mut core = RelayCore::new(jobs);
            let ix = self
                .dep
                .topology
                .index_of(id)
                .expect("forwarder is a topology node");
            if let Some(old) = self.run.relay_cores[ix].as_mut() {
                core.migrate_from(old);
            }
            cores[ix] = Some(core);
            forwarders.push(id);
        }
        self.run.relay_cores = cores;
        // The hot loop reads the compiled cycle plan, not the schedule
        // maps: re-lower it at this commit's boundary (see `super::plan`).
        let plan = CyclePlan::compile(
            &epoch.schedule,
            &epoch.flow_kinds,
            &self.dep.topology,
            &mut self.run.channel,
            &self.run.scenario.rtlink,
            self.run.scenario.reroute,
            self.run.wiring.plan.generation + 1,
        );
        let wiring = Arc::new(Wiring {
            schedule: epoch.schedule,
            flow_kinds: epoch.flow_kinds,
            forwarders,
            plan,
        });
        self.run.wiring_prev = mem::replace(&mut self.run.wiring, wiring);
        self.reserve_in_flight();
        self.run.reconfig.epoch = epoch.seq;
        self.run.reconfig.last_commit_at = Some(self.run.now);
        // Start the silence clock for every forwarder of the new epoch:
        // a node first pressed into service here may never have
        // transmitted (an idle backup chain), and never-heard nodes are
        // exempt from silence detection — without a commit-time stamp, a
        // backup that died *before* gaining jobs could starve the new
        // routes forever undetected. (Stamps are max-monotone, so this
        // never rolls a live node's liveness back.)
        if self.run.scenario.reroute == ReroutePolicy::Heartbeat {
            let (cycle, _) = self.dep.rtlink.slot_at(self.run.now);
            for i in 0..self.run.wiring.forwarders.len() {
                let node = self.run.wiring.forwarders[i];
                self.run.reconfig.ledger.heard(node, cycle);
            }
        }
        self.run.trace.log(
            self.run.now,
            "reconfig",
            format!("epoch {} committed", epoch.seq),
        );
    }

    /// A scripted reconfiguration request (`force_reconfig_at`): stage a
    /// recompute with the current down set — possibly empty, the no-op
    /// case the atomicity tests pin — to commit at the next boundary.
    pub(super) fn on_forced_reconfig(&mut self) {
        let _ = self.stage_recompute();
    }

    /// Actuation hook for the recovery clock: the first delivery after
    /// the *detection-triggered* epoch commit closes the
    /// detect→reroute→delivery interval reported as the reroute latency.
    /// Gated on `awaiting_recovery` so a failed reroute (starvation
    /// persists) never lets an unrelated later commit claim a recovery.
    pub(super) fn note_actuation_for_reroute_clock(&mut self) {
        if !self.run.reconfig.awaiting_recovery || self.run.reconfig.reroute_latency.is_some() {
            return;
        }
        let (Some(detect), Some(commit)) = (
            self.run.reconfig.detect_at,
            self.run.reconfig.last_commit_at,
        ) else {
            return;
        };
        if commit >= detect {
            self.run.reconfig.reroute_latency = Some(self.run.now.saturating_since(detect));
            self.run.reconfig.awaiting_recovery = false;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runtime::topo::TopologySpec;
    use evm_netsim::{Channel, ChannelConfig};
    use evm_sim::SimRng;

    fn fig5_parts() -> (Topology, VcMap) {
        let mut ch = Channel::new(ChannelConfig::default(), SimRng::seed_from(1));
        TopologySpec::fig5()
            .try_into_resolved(&mut ch)
            .expect("fig5 resolves")
    }

    /// An empty down set is the identity: epoch 0 from the
    /// Reconfigurator equals the plain setup pipeline, flow for flow.
    #[test]
    fn empty_down_set_reproduces_the_setup_epoch() {
        let (topology, vcs) = fig5_parts();
        let cfg = evm_mac::RtLinkConfig::default();
        let epoch = Reconfigurator::compute(0, &topology, &[], &vcs, &cfg, false, 0).unwrap();
        let routed = route_flows(&topology, &synth_flows(&vcs)).unwrap();
        assert_eq!(epoch.seq, 0);
        assert_eq!(epoch.flow_kinds.len(), routed.flows.len());
        assert_eq!(epoch.jobs, routed.jobs);
        assert_eq!(epoch.schedule.epoch(), 0);
    }

    /// Pruning a down endpoint: flows sourced at the dead node drop,
    /// flows addressed to it retarget to their first surviving listener,
    /// and the `after` chain stays valid (routable + schedulable).
    #[test]
    fn prune_retargets_publishes_when_the_primary_receiver_dies() {
        let (topology, vcs) = fig5_parts();
        let cfg = evm_mac::RtLinkConfig::default();
        // Fig. 5: Ctrl-A = node 2 is the primary — the PV publish's dst
        // and a ControlPublish source.
        let primary = vcs.vc(0).primary();
        let epoch =
            Reconfigurator::compute(1, &topology, &[primary], &vcs, &cfg, false, 0).unwrap();
        assert_eq!(epoch.schedule.epoch(), 1);
        for f in &epoch.flow_kinds {
            assert_ne!(f.owner, primary, "dead node still owns a slot: {f:?}");
        }
        // The PV publish survives, retargeted at the first backup.
        let publish_slots = epoch
            .flow_kinds
            .iter()
            .filter(|f| matches!(f.kind, FlowKind::SensorPublish { vc: 0, tag: 0 }))
            .count();
        assert_eq!(publish_slots, 1, "PV publish retargeted, not dropped");
        // One ControlPublish (the backup's) remains of the original two.
        let outputs = epoch
            .flow_kinds
            .iter()
            .filter(|f| matches!(f.kind, FlowKind::ControlPublish { vc: 0 }))
            .count();
        assert_eq!(outputs, 1);
    }

    /// `transfer_slots > 0` appends a per-VC bulk lane after the control
    /// pipeline: slots owned by the primary, tagged
    /// [`FlowKind::Transfer`], listened to by the head and peers; with 0
    /// the epoch is unchanged.
    #[test]
    fn transfer_slots_are_reserved_per_vc() {
        let (topology, vcs) = fig5_parts();
        let cfg = evm_mac::RtLinkConfig::default();
        let plain = Reconfigurator::compute(0, &topology, &[], &vcs, &cfg, false, 0).unwrap();
        let with_lane = Reconfigurator::compute(0, &topology, &[], &vcs, &cfg, false, 2).unwrap();
        let transfers: Vec<_> = with_lane
            .flow_kinds
            .iter()
            .filter(|f| matches!(f.kind, FlowKind::Transfer { .. }))
            .collect();
        assert_eq!(transfers.len(), 2 * vcs.n_vcs(), "2 slots per VC");
        let pipeline_end = plain.schedule.max_slot().unwrap();
        let primary = vcs.vc(0).primary();
        for f in &transfers {
            assert!(f.slot > pipeline_end, "transfer lane follows the pipeline");
            assert_eq!(f.owner, primary, "primary owns the lane (single VC)");
            let asg = &with_lane.schedule.in_slot(f.slot)[0];
            assert!(
                asg.listeners.contains(&vcs.vc(0).head.unwrap()),
                "head listens on the transfer lane"
            );
        }
        // The control pipeline itself is untouched by the reservation:
        // the lane only appends after it.
        assert_eq!(plain.flow_kinds.len() + 2, with_lane.flow_kinds.len());
        assert_eq!(
            plain.flow_kinds[..],
            with_lane.flow_kinds[..plain.flow_kinds.len()]
        );
    }

    /// The flow table is sorted by `(slot, owner)` and names exactly the
    /// schedule's assignments: every one of them once, and nothing else.
    #[test]
    fn flow_table_is_sorted_and_mirrors_the_schedule() {
        let mut ch = Channel::new(ChannelConfig::default(), SimRng::seed_from(1));
        let spec = TopologySpec::multi_star(3, 2, 2, 1, true, 15.0);
        let (topology, vcs) = spec.try_into_resolved(&mut ch).expect("spec resolves");
        let cfg = evm_mac::RtLinkConfig {
            slots_per_cycle: 64,
            ..evm_mac::RtLinkConfig::default()
        };
        for serial in [false, true] {
            let epoch = Reconfigurator::compute(0, &topology, &[], &vcs, &cfg, serial, 1).unwrap();
            let table = &epoch.flow_kinds;
            assert!(table
                .windows(2)
                .all(|w| (w[0].slot, w[0].owner) < (w[1].slot, w[1].owner)));
            let mut assigned = 0;
            for slot in 0..cfg.slots_per_cycle {
                for a in epoch.schedule.in_slot(slot) {
                    let rows = table
                        .iter()
                        .filter(|f| f.slot == slot && f.owner == a.owner)
                        .count();
                    assert_eq!(rows, 1, "every assignment has one kind");
                    assigned += 1;
                }
            }
            assert_eq!(assigned, table.len());
        }
    }

    /// A down node nobody else can reach around fails recompute with a
    /// typed error instead of panicking (the driver then keeps the old
    /// epoch).
    #[test]
    fn unroutable_survivors_report_instead_of_panicking() {
        let mut ch = Channel::new(ChannelConfig::default(), SimRng::seed_from(1));
        let spec = TopologySpec::line(2, 1, 1, 1, false, crate::runtime::topo::LINE_SPACING_M);
        let (topology, vcs) = spec.try_into_resolved(&mut ch).expect("spec resolves");
        let cfg = evm_mac::RtLinkConfig::default();
        // R1 (node 4) is the only bridge to the sensor: no backup chain.
        let err =
            Reconfigurator::compute(1, &topology, &[NodeId(4)], &vcs, &cfg, false, 0).unwrap_err();
        assert!(matches!(err, ReconfigError::Unroutable(_)), "{err}");
        assert!(format!("{err}").contains("unroutable"));
    }
}
