//! The epoch-compiled cycle plan.
//!
//! An RT-Link cycle is a static program per epoch: which slot carries
//! which flow, who transmits, who listens, and at what cost never change
//! between epoch commits. [`CyclePlan`] compiles instead of
//! interpreting: at setup and at every epoch commit the
//! schedule and its flow semantics are lowered into flat records with
//! every slot-invariant term pre-resolved (dense indices, distances,
//! channel budgets, the cycle-start hook list, bound plant tags), plus a
//! next-occupied-slot index the slot cursor jumps over empty stretches
//! with. The hot path is reduced to the RNG draws.
//!
//! **The RNG-draw order.** Per delivered listener, in listener order:
//! the channel PER chance, the link's burst process, then the engine's
//! `extra_loss` chance. Plan compilation itself draws nothing. Links
//! with log-normal shadowing enabled get no [`LinkBudget`] — their
//! shadowing realization is drawn lazily from the channel RNG on first
//! use, so pre-resolving it would reorder draws; those listeners fall
//! back to the unbudgeted sampler per delivery. The golden digests pin
//! this order.
//!
//! **The rebuild rule.** The plan is rebuilt at engine setup and at
//! epoch commit (`apply_epoch`), both strictly at cycle boundaries. One
//! previous generation is kept so a folded broadcast pushed in the last
//! slots before a commit can still resolve its listener set; deliveries
//! land within their own slot (guard + airtime < slot), so one
//! generation is strictly enough.

use evm_netsim::{BurstSlot, LinkBudget, NodeId};
use evm_plant::BoundTag;
use evm_sim::SimDuration;

use crate::runtime::driver::Engine;
use crate::runtime::reconfig::ReroutePolicy;
use crate::runtime::topo::FlowKind;

/// One pre-resolved listener of a scheduled transmission.
#[derive(Debug)]
pub(super) struct PlanListener {
    /// The listening node.
    pub(super) id: NodeId,
    /// Its dense topology index (meters / relay cores).
    pub(super) ix: u32,
    /// Fixed owner→listener distance, meters.
    pub(super) distance: f64,
    /// Precomputed deterministic channel terms; `None` when shadowing is
    /// enabled (fall back to the unbudgeted sampler — see module docs).
    pub(super) budget: Option<LinkBudget>,
    /// Interned handle to the link's burst-process state, so the budgeted
    /// sampler skips the per-delivery link-pair hash. Interning draws no
    /// RNG and creates exactly the state lazy first use would.
    pub(super) burst: BurstSlot,
}

/// One scheduled transmission with its slot-invariant terms resolved.
#[derive(Debug)]
pub(super) struct PlanEntry {
    /// The transmitting node.
    pub(super) owner: NodeId,
    /// Its dense topology index.
    pub(super) owner_ix: u32,
    /// The flow semantic served, if any.
    pub(super) kind: Option<FlowKind>,
    /// `true` if an empty slot is keepalive-filled (heartbeat reroute
    /// policy and a relay / control-plane flow).
    pub(super) keepalive_eligible: bool,
    /// Listener range in [`CyclePlan::listeners`].
    pub(super) lo: u32,
    /// Exclusive end of the listener range.
    pub(super) hi: u32,
}

/// The compiled cycle: everything slot-invariant, resolved once per
/// epoch. See the module docs for the invariants.
#[derive(Debug, Default)]
pub(super) struct CyclePlan {
    /// [`CyclePlan::entries`] range per slot (`slots_per_cycle` rows).
    pub(super) per_slot: Vec<(u32, u32)>,
    pub(super) entries: Vec<PlanEntry>,
    pub(super) listeners: Vec<PlanListener>,
    /// `next_occ[s]` = smallest occupied slot `>= s`, or
    /// `slots_per_cycle` if none; `slots_per_cycle + 1` rows so the
    /// lookup from `s + 1` stays in bounds.
    next_occ: Vec<u32>,
    /// Listener cost of an empty occupied slot: guard + PHY-header
    /// airtime.
    pub(super) detect: SimDuration,
    /// `true` under the heartbeat reroute policy: transmissions stamp
    /// the liveness ledger and eligible empty slots are keepalive-filled.
    pub(super) keepalives: bool,
    /// Dense indices (ascending) of nodes whose `on_cycle_start` hook
    /// does work — the others are provably no-ops and skipped.
    pub(super) hooks: Vec<u32>,
    /// Pre-bound plant-tag handle per `err_series` row (`None` when the
    /// tag is unpublished: that row is silently not sampled).
    pub(super) err_tags: Vec<Option<BoundTag>>,
    /// Monotone plan identity; folded broadcasts carry it so delivery
    /// resolves against the generation that scheduled the transmission.
    pub(super) generation: u64,
}

impl CyclePlan {
    /// `true` if `slot` carries at least one scheduled transmission.
    pub(super) fn is_occupied(&self, slot: usize) -> bool {
        self.per_slot[slot].0 != self.per_slot[slot].1
    }

    /// Virtual-slot distance from unoccupied `slot` to the next stop:
    /// the next occupied slot in this cycle, else the cycle boundary
    /// (slot 0 always fires — sync plus cycle-start housekeeping).
    pub(super) fn slots_until_stop(&self, slot: usize) -> u64 {
        let spc = self.per_slot.len() as u64;
        let next = u64::from(self.next_occ[slot + 1]).min(spc);
        next - slot as u64
    }
}

impl Engine {
    /// Lowers the committed schedule and flow semantics (plus the
    /// cycle-boundary state) into a fresh [`CyclePlan`], retiring the
    /// previous plan to `plan_prev`. Draws no RNG.
    pub(super) fn rebuild_plan(&mut self) {
        let generation = self.plan.generation + 1;
        let spc = self.scenario.rtlink.slots_per_cycle;
        let keepalives = self.scenario.reroute == ReroutePolicy::Heartbeat;
        let mut per_slot = Vec::with_capacity(spc);
        let mut entries = Vec::new();
        let mut listeners = Vec::new();
        for slot in 0..spc {
            let first = u32::try_from(entries.len()).expect("schedule fits u32");
            for a in self.schedule.in_slot(slot) {
                let owner = a.owner;
                let owner_ix = self.dense_ix(owner).expect("scheduled owner is deployed");
                let kind = self.flow_kinds.get(&(slot, owner)).copied();
                let lo = u32::try_from(listeners.len()).expect("listener count fits u32");
                for &l in &a.listeners {
                    let ix = self.dense_ix(l).expect("scheduled listener is deployed");
                    let distance = self.topology.distance(owner, l);
                    listeners.push(PlanListener {
                        id: l,
                        ix: u32::try_from(ix).expect("dense index fits u32"),
                        distance,
                        budget: self.channel.link_budget((owner, l), distance),
                        burst: self.channel.burst_slot((owner, l)),
                    });
                }
                let hi = u32::try_from(listeners.len()).expect("listener count fits u32");
                entries.push(PlanEntry {
                    owner,
                    owner_ix: u32::try_from(owner_ix).expect("dense index fits u32"),
                    kind,
                    keepalive_eligible: keepalives
                        && matches!(
                            kind,
                            Some(FlowKind::Relay { .. } | FlowKind::ControlPlane { .. })
                        ),
                    lo,
                    hi,
                });
            }
            let end = u32::try_from(entries.len()).expect("schedule fits u32");
            per_slot.push((first, end));
        }
        let mut next_occ = vec![u32::try_from(spc).expect("slot count fits u32"); spc + 1];
        for slot in (0..spc).rev() {
            next_occ[slot] = if per_slot[slot].0 != per_slot[slot].1 {
                u32::try_from(slot).expect("slot fits u32")
            } else {
                next_occ[slot + 1]
            };
        }
        let hooks = self
            .node_ids
            .iter()
            .enumerate()
            .filter(|&(_, &id)| self.registry.get(id).is_some_and(|b| b.has_cycle_hook()))
            .map(|(ix, _)| u32::try_from(ix).expect("dense index fits u32"))
            .collect();
        let err_tags = self
            .err_series
            .iter()
            .map(|(tag, _, _)| self.plant.bind_tag(tag))
            .collect();
        let detect = self.scenario.rtlink.guard
            + evm_netsim::frame::airtime_for_bytes(evm_netsim::PHY_HEADER_BYTES);
        let plan = CyclePlan {
            per_slot,
            entries,
            listeners,
            next_occ,
            detect,
            keepalives,
            hooks,
            err_tags,
            generation,
        };
        self.plan_prev = std::mem::replace(&mut self.plan, plan);
    }
}
