//! The epoch-compiled cycle plan.
//!
//! An RT-Link cycle is a static program per epoch: which slot carries
//! which flow, who transmits, who listens, and at what cost never change
//! between epoch commits. [`CyclePlan`] compiles instead of
//! interpreting: at setup and at every epoch commit the
//! schedule and its flow semantics are lowered into flat records with
//! every slot-invariant term pre-resolved (dense indices, distances,
//! channel budgets, burst-state handles), plus a
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
//! Budgets come from the channel's link-model memo, which is keyed on
//! distance, outlives plan rebuilds and is shared by a deployment's
//! runs: each distinct distance is evaluated once per deployment, not
//! once per listener, per epoch or per run.
//!
//! **The rebuild rule.** The plan is compiled once per deployment, for
//! epoch 0, and every run starts on that shared plan; a run recompiles
//! its own at each epoch commit (`apply_epoch`), strictly at a cycle
//! boundary. One previous generation is kept so a folded broadcast
//! pushed in the last slots before a commit can still resolve its
//! listener set; deliveries land within their own slot (guard + airtime
//! < slot), so one generation is strictly enough.

use evm_mac::rtlink::SlotSchedule;
use evm_mac::RtLinkConfig;
use evm_netsim::{BurstSlot, Channel, LinkBudget, NodeId, Topology};
use evm_sim::SimDuration;

use crate::runtime::driver::Engine;
use crate::runtime::reconfig::{ReroutePolicy, SlotFlow};
use crate::runtime::topo::FlowKind;

/// One pre-resolved listener of a scheduled transmission.
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug, Clone, Copy)]
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
#[derive(Debug)]
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
    /// Monotone plan identity; folded broadcasts carry it so delivery
    /// resolves against the generation that scheduled the transmission.
    pub(super) generation: u64,
}

impl CyclePlan {
    /// `true` if `slot` carries at least one scheduled transmission.
    pub(super) fn is_occupied(&self, slot: usize) -> bool {
        self.per_slot[slot].0 != self.per_slot[slot].1
    }

    /// The most folded-broadcast events one slot can push: per
    /// transmission, one per 64-listener chunk.
    pub(super) fn widest_slot_chunks(&self) -> usize {
        self.per_slot
            .iter()
            .map(|&(lo, hi)| {
                self.entries[lo as usize..hi as usize]
                    .iter()
                    .map(|e| (e.hi - e.lo).div_ceil(64) as usize)
                    .sum::<usize>()
            })
            .max()
            .unwrap_or(0)
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

/// One epoch's wiring: the schedule, its flow semantics, the nodes
/// carrying forwarding jobs, and the plan compiled from them. An epoch
/// commit replaces it whole, so runs share epoch 0's with their
/// deployment and never copy it.
#[derive(Debug)]
pub(super) struct Wiring {
    pub(super) schedule: SlotSchedule,
    /// The flow semantic of every scheduled transmission, sorted by
    /// `(slot, owner)` (the cold, inspectable copy; the hot loop reads
    /// [`Wiring::plan`]).
    pub(super) flow_kinds: Vec<SlotFlow>,
    /// Nodes carrying forwarding jobs, id-sorted.
    pub(super) forwarders: Vec<NodeId>,
    pub(super) plan: CyclePlan,
}

impl CyclePlan {
    /// Lowers `schedule` and its flow table `kinds` into a plan of
    /// generation `generation`: every slot-invariant term resolved
    /// against `topology` and `channel`. Draws no RNG; interns each
    /// listened link's burst state in `channel`.
    pub(super) fn compile(
        schedule: &SlotSchedule,
        kinds: &[SlotFlow],
        topology: &Topology,
        channel: &mut Channel,
        rtlink: &RtLinkConfig,
        reroute: ReroutePolicy,
        generation: u64,
    ) -> CyclePlan {
        let spc = rtlink.slots_per_cycle;
        let keepalives = reroute == ReroutePolicy::Heartbeat;
        // Past its highest placed slot the schedule is empty: a fleet
        // cycle is far longer than the stretch its flows occupy.
        let placed = schedule.max_slot().map_or(0, |s| s + 1);
        let (n_entries, n_listeners) = (0..placed)
            .flat_map(|slot| schedule.in_slot(slot))
            .fold((0, 0), |(e, l), a| (e + 1, l + a.listeners.len()));
        let mut per_slot = Vec::with_capacity(spc);
        let mut entries = Vec::with_capacity(n_entries);
        let mut listeners = Vec::with_capacity(n_listeners);
        let nodes = topology.nodes();
        let dense = |id: NodeId| topology.index_of(id).expect("scheduled nodes are deployed");
        // The flow table is sorted by `(slot, owner)` and the slots are
        // walked in ascending order, so each slot's rows are the next
        // run of the table: a cursor, not a search per entry.
        let mut kinds = kinds;
        for slot in 0..placed {
            let first = u32::try_from(entries.len()).expect("schedule fits u32");
            let (slot_kinds, rest) =
                kinds.split_at(kinds.iter().take_while(|f| f.slot == slot).count());
            kinds = rest;
            for a in schedule.in_slot(slot) {
                let owner = a.owner;
                let owner_ix = dense(owner);
                let kind = slot_kinds.iter().find(|f| f.owner == owner).map(|f| f.kind);
                let lo = u32::try_from(listeners.len()).expect("listener count fits u32");
                for &l in &a.listeners {
                    let ix = dense(l);
                    let distance = nodes[owner_ix].position.distance_to(&nodes[ix].position);
                    listeners.push(PlanListener {
                        id: l,
                        ix: u32::try_from(ix).expect("dense index fits u32"),
                        distance,
                        budget: channel.link_budget((owner, l), distance),
                        burst: channel.burst_slot((owner, l)),
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
        debug_assert!(kinds.is_empty(), "every flow row has a slot in the cycle");
        let end = u32::try_from(entries.len()).expect("schedule fits u32");
        per_slot.resize(spc, (end, end));
        // Slots from `placed` on are empty: their next stop is the end.
        let mut next_occ = vec![u32::try_from(spc).expect("slot count fits u32"); spc + 1];
        for slot in (0..placed).rev() {
            next_occ[slot] = if per_slot[slot].0 != per_slot[slot].1 {
                u32::try_from(slot).expect("slot fits u32")
            } else {
                next_occ[slot + 1]
            };
        }
        let detect =
            rtlink.guard + evm_netsim::frame::airtime_for_bytes(evm_netsim::PHY_HEADER_BYTES);
        CyclePlan {
            per_slot,
            entries,
            listeners,
            next_occ,
            detect,
            keepalives,
            generation,
        }
    }
}

impl Engine {
    /// The plan of generation `gen`: the committed one or, for a folded
    /// broadcast pushed just before the last commit, the one before it.
    pub(super) fn plan_of(&self, gen: u64) -> &CyclePlan {
        let current = &self.run.wiring.plan;
        if current.generation == gen {
            return current;
        }
        let prev = &self.run.wiring_prev.plan;
        debug_assert_eq!(prev.generation, gen, "broadcast outlived its plan");
        prev
    }

    /// Grows the event queue to hold what can be in flight at once under
    /// the current plan: the events seeded at setup; one `TaskDone` per
    /// replica host (a replica runs one capsule at a time); a failover
    /// decision and a dormant demotion per head; and the folded
    /// broadcasts of one slot, which all land within it. Run setup and
    /// every epoch commit call it, so an epoch whose widest slot fans out
    /// further grows the queue at its commit, not inside a fired slot.
    /// Anything rarer (overlapping demotions) grows the queue where it
    /// happens.
    pub(super) fn reserve_in_flight(&mut self) {
        let run = &mut self.run;
        let s = &run.scenario;
        let seeded = 2
            + usize::from(s.fault.is_some())
            + usize::from(s.backup_fault.is_some())
            + s.primary_crashes.len()
            + s.force_reconfig.len();
        let replicas = run
            .nodes
            .iter()
            .filter(|n| n.controller().is_some())
            .count();
        let heads = run.vcs.vcs.iter().filter(|r| r.head.is_some()).count();
        let bound = seeded + replicas + 2 * heads + run.wiring.plan.widest_slot_chunks();
        run.queue.reserve(bound.saturating_sub(run.queue.len()));
    }
}
