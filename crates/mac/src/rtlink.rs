//! RT-Link: time-synchronized TDMA link protocol.
//!
//! RT-Link divides time into fixed cycles of `slots_per_cycle` slots. Every
//! cycle begins with a hardware sync pulse (see [`crate::timesync`]); each
//! slot is owned by at most one transmitter per 2-hop neighborhood, which
//! makes scheduled traffic collision-free. Nodes sleep in all slots they
//! neither own nor subscribe to — this is where the energy win over
//! asynchronous MACs comes from.
//!
//! The schedule builder ([`SlotSchedule::for_flows`]) assigns slots to
//! communication flows in *pipeline order*, so a sensor→controller→actuator
//! chain completes within a single cycle — the property behind the paper's
//! objective 5 (control cycle ≤ 250 ms, latency ≤ 1/3 cycle).

use evm_netsim::{NodeId, Topology};
use evm_sim::{SimDuration, SimTime};

/// RT-Link cycle/slot parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct RtLinkConfig {
    /// Length of one TDMA slot.
    pub slot_duration: SimDuration,
    /// Number of slots per cycle (including the sync slot at index 0).
    pub slots_per_cycle: usize,
    /// Guard interval at the start of each slot absorbing residual sync
    /// error (must exceed the worst-case pairwise misalignment).
    pub guard: SimDuration,
    /// Radio-on time to receive the out-of-band sync pulse each cycle.
    pub sync_listen: SimDuration,
}

impl Default for RtLinkConfig {
    fn default() -> Self {
        RtLinkConfig {
            slot_duration: SimDuration::from_millis(10),
            slots_per_cycle: 25,
            guard: SimDuration::from_micros(300),
            sync_listen: SimDuration::from_millis(1),
        }
    }
}

impl RtLinkConfig {
    /// Length of one full TDMA cycle.
    #[must_use]
    pub fn cycle_duration(&self) -> SimDuration {
        self.slot_duration * self.slots_per_cycle as u64
    }
}

/// Whether a node transmits or listens in a slot.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SlotRole {
    /// The node owns the slot and may transmit.
    Owner,
    /// The node keeps its radio on to receive.
    Listener,
}

/// One slot's assignment: a single owner plus the set of subscribed
/// listeners.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SlotAssignment {
    /// Slot index within the cycle (0 is reserved for sync).
    pub slot: usize,
    /// The transmitting node.
    pub owner: NodeId,
    /// Nodes that keep their radio on in this slot.
    pub listeners: Vec<NodeId>,
}

/// A communication flow to be scheduled: `src` transmits, `dst` (and any
/// `extra_listeners`, e.g. passive backup controllers) receive. `after`
/// optionally names an earlier flow (by index into the flow slice) whose
/// slot must strictly precede this one — that is how precedence chains are
/// pipelined within a cycle.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Flow {
    /// Transmitting node.
    pub src: NodeId,
    /// Primary receiver.
    pub dst: NodeId,
    /// Additional subscribed receivers (passive observers).
    pub extra_listeners: Vec<NodeId>,
    /// Index of a flow that must be scheduled strictly earlier.
    pub after: Option<usize>,
}

impl Flow {
    /// A plain point-to-point flow.
    #[must_use]
    pub fn new(src: NodeId, dst: NodeId) -> Self {
        Flow {
            src,
            dst,
            extra_listeners: Vec::new(),
            after: None,
        }
    }

    /// Adds passive listeners.
    #[must_use]
    pub fn with_listeners(mut self, extra: Vec<NodeId>) -> Self {
        self.extra_listeners = extra;
        self
    }

    /// Requires this flow to be scheduled after flow `idx`.
    #[must_use]
    pub fn after(mut self, idx: usize) -> Self {
        self.after = Some(idx);
        self
    }

    fn all_listeners(&self) -> Vec<NodeId> {
        let mut v = Vec::with_capacity(1 + self.extra_listeners.len());
        v.push(self.dst);
        v.extend(self.extra_listeners.iter().copied());
        v.sort_unstable();
        v.dedup();
        v
    }
}

/// Error produced when a flow set cannot be scheduled.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ScheduleError {
    /// Ran out of slots in the cycle.
    OutOfSlots {
        /// Index of the flow that could not be placed.
        flow: usize,
    },
    /// A precedence edge references a later or missing flow.
    BadPrecedence {
        /// Index of the offending flow.
        flow: usize,
    },
}

impl std::fmt::Display for ScheduleError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScheduleError::OutOfSlots { flow } => {
                write!(f, "no collision-free slot available for flow {flow}")
            }
            ScheduleError::BadPrecedence { flow } => {
                write!(f, "flow {flow} has a forward or dangling precedence edge")
            }
        }
    }
}

impl std::error::Error for ScheduleError {}

/// A full cycle's slot assignments.
#[derive(Debug, Clone, Default)]
pub struct SlotSchedule {
    /// Assignments per slot index, in assignment order; several
    /// assignments may share a slot under spatial reuse. Grown to the
    /// highest assigned slot, not to `slots_per_cycle`: a fleet cycle is
    /// far longer than the stretch its schedule occupies. The last row is
    /// therefore never empty.
    slots: Vec<SlotRow>,
    slots_per_cycle: usize,
    /// Configuration epoch this schedule belongs to. Epoch 0 is the
    /// setup-time schedule; a runtime reconfiguration installs a
    /// recomputed schedule tagged with the next epoch at a cycle
    /// boundary, so every transmission of one cycle provably comes from
    /// one epoch's timetable.
    epoch: u64,
}

/// The assignments of one slot. Most slots carry exactly one (every slot
/// of a serial schedule), held inline; only a spatially reused slot
/// allocates a list.
#[derive(Debug, Clone)]
enum SlotRow {
    One(SlotAssignment),
    Many(Vec<SlotAssignment>),
}

impl Default for SlotRow {
    fn default() -> Self {
        SlotRow::Many(Vec::new())
    }
}

impl SlotRow {
    fn as_slice(&self) -> &[SlotAssignment] {
        match self {
            SlotRow::One(a) => std::slice::from_ref(a),
            SlotRow::Many(v) => v,
        }
    }

    fn push(&mut self, assignment: SlotAssignment) {
        match self {
            SlotRow::Many(v) if v.is_empty() => *self = SlotRow::One(assignment),
            SlotRow::Many(v) => v.push(assignment),
            SlotRow::One(_) => {
                let SlotRow::One(first) = std::mem::take(self) else {
                    unreachable!("matched above")
                };
                *self = SlotRow::Many(vec![first, assignment]);
            }
        }
    }
}

impl SlotSchedule {
    /// Creates an empty schedule for a cycle of `slots_per_cycle` slots
    /// (epoch 0).
    #[must_use]
    pub fn new(slots_per_cycle: usize) -> Self {
        SlotSchedule {
            slots: Vec::new(),
            slots_per_cycle,
            epoch: 0,
        }
    }

    /// Number of slots in the cycle.
    #[must_use]
    pub fn slots_per_cycle(&self) -> usize {
        self.slots_per_cycle
    }

    /// The configuration epoch this schedule was synthesized for.
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Tags the schedule with the configuration epoch that produced it.
    #[must_use]
    pub fn with_epoch(mut self, epoch: u64) -> Self {
        self.epoch = epoch;
        self
    }

    /// Adds an assignment.
    ///
    /// # Panics
    ///
    /// Panics if the slot index is 0 (sync slot) or out of range.
    pub fn assign(&mut self, assignment: SlotAssignment) {
        assert!(assignment.slot != 0, "slot 0 is reserved for sync");
        assert!(
            assignment.slot < self.slots_per_cycle,
            "slot {} out of range",
            assignment.slot
        );
        if assignment.slot >= self.slots.len() {
            self.slots
                .resize_with(assignment.slot + 1, SlotRow::default);
        }
        self.slots[assignment.slot].push(assignment);
    }

    /// All assignments in a slot (empty past the highest assigned slot).
    #[must_use]
    pub fn in_slot(&self, slot: usize) -> &[SlotAssignment] {
        self.slots.get(slot).map_or(&[], SlotRow::as_slice)
    }

    /// The highest slot index carrying an assignment — i.e. how much of
    /// the cycle the schedule actually needs. `None` for an empty
    /// schedule. Capacity benches report this as the effective cycle
    /// length when more Virtual Components share one cycle.
    #[must_use]
    pub fn max_slot(&self) -> Option<usize> {
        self.slots.len().checked_sub(1)
    }

    /// Appends `n` dedicated transfer slots immediately after the last
    /// placed slot, all owned by `owner` with `listeners` receiving.
    /// Transfer slots carry bulk capsule/object fragments (live task
    /// migration) and are deliberately placed *after* the control
    /// pipeline, so a migration in progress never delays the
    /// sense→compute→actuate chain. Returns the reserved slot indices in
    /// ascending order. Calling again (e.g. for another Virtual
    /// Component) appends after the previous reservation.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::OutOfSlots`] if the cycle runs out of slots; the
    /// reported index is the reservation (0-based) that did not fit.
    pub fn reserve_transfer_slots(
        &mut self,
        owner: NodeId,
        listeners: &[NodeId],
        n: usize,
    ) -> Result<Vec<usize>, ScheduleError> {
        let first = self.max_slot().unwrap_or(0) + 1;
        let mut reserved = Vec::with_capacity(n);
        for i in 0..n {
            let slot = first + i;
            if slot >= self.slots_per_cycle {
                return Err(ScheduleError::OutOfSlots { flow: i });
            }
            self.assign(SlotAssignment {
                slot,
                owner,
                listeners: listeners.to_vec(),
            });
            reserved.push(slot);
        }
        Ok(reserved)
    }

    /// The slots in which `node` transmits, ascending.
    #[must_use]
    pub fn owned_slots(&self, node: NodeId) -> Vec<usize> {
        self.slots_where(|a| a.owner == node)
    }

    /// The slots in which `node` listens, ascending.
    #[must_use]
    pub fn listened_slots(&self, node: NodeId) -> Vec<usize> {
        self.slots_where(|a| a.listeners.contains(&node))
    }

    /// The slots holding an assignment that satisfies `pred`, ascending.
    fn slots_where(&self, pred: impl Fn(&SlotAssignment) -> bool) -> Vec<usize> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, row)| row.as_slice().iter().any(&pred))
            .map(|(s, _)| s)
            .collect()
    }

    /// The role of `node` in `slot`, if any.
    #[must_use]
    pub fn role_in(&self, node: NodeId, slot: usize) -> Option<SlotRole> {
        let asgs = self.in_slot(slot);
        if asgs.iter().any(|a| a.owner == node) {
            Some(SlotRole::Owner)
        } else if asgs.iter().any(|a| a.listeners.contains(&node)) {
            Some(SlotRole::Listener)
        } else {
            None
        }
    }

    /// Fraction of non-sync slots in which `node` has its radio on.
    #[must_use]
    pub fn duty_cycle_of(&self, node: NodeId) -> f64 {
        let active = (1..self.slots_per_cycle)
            .filter(|&s| self.role_in(node, s).is_some())
            .count();
        active as f64 / (self.slots_per_cycle - 1) as f64
    }

    /// Greedy pipeline-ordered schedule for `flows` on `topology`.
    ///
    /// Flows are placed in order; each takes the earliest slot that (a) is
    /// strictly after its `after` dependency and (b) does not conflict with
    /// any co-slotted assignment under the 2-hop interference rule.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::OutOfSlots`] if a flow cannot be placed,
    /// [`ScheduleError::BadPrecedence`] on a forward/dangling dependency.
    pub fn for_flows(
        config: &RtLinkConfig,
        topology: &Topology,
        flows: &[Flow],
    ) -> Result<SlotSchedule, ScheduleError> {
        Self::place_flows(config, topology, flows).map(|(schedule, _)| schedule)
    }

    /// Like [`SlotSchedule::for_flows`], but also reports the slot each
    /// flow was placed in (`result.1[i]` is the slot of the `i`-th flow),
    /// so a caller synthesizing a schedule from a flow specification can
    /// map slots back to flow semantics without guessing. Takes the flows
    /// by reference in order (a slice, or borrowed out of a richer list),
    /// so no caller copies them to place them.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::OutOfSlots`] if a flow cannot be placed,
    /// [`ScheduleError::BadPrecedence`] on a forward/dangling dependency.
    pub fn place_flows<'a>(
        config: &RtLinkConfig,
        topology: &Topology,
        flows: impl IntoIterator<Item = &'a Flow>,
    ) -> Result<(SlotSchedule, Vec<usize>), ScheduleError> {
        let flows = flows.into_iter();
        let mut schedule = SlotSchedule::new(config.slots_per_cycle);
        let mut placed_slot: Vec<usize> = Vec::with_capacity(flows.size_hint().0);
        let mut footprint = Footprint::default();
        for (i, flow) in flows.enumerate() {
            let min_slot = match flow.after {
                None => 1,
                Some(dep) if dep < i => placed_slot[dep] + 1,
                Some(_) => return Err(ScheduleError::BadPrecedence { flow: i }),
            };
            let listeners = flow.all_listeners();
            footprint.build(topology, flow.src, &listeners);
            let slot = (min_slot..config.slots_per_cycle)
                .find(|&slot| !schedule.in_slot(slot).iter().any(|a| footprint.blocks(a)))
                .ok_or(ScheduleError::OutOfSlots { flow: i })?;
            schedule.assign(SlotAssignment {
                slot,
                owner: flow.src,
                listeners,
            });
            placed_slot.push(slot);
        }
        Ok((schedule, placed_slot))
    }

    /// Like [`SlotSchedule::place_flows`], but with spatial reuse
    /// disabled: every flow gets its own slot, in flow order. This is the
    /// serialized upper bound a reused schedule is compared against — a
    /// clustered deployment's spatially-reused cycle must be strictly
    /// shorter than this while producing identical plant behavior.
    ///
    /// # Errors
    ///
    /// [`ScheduleError::OutOfSlots`] if the cycle is too short for one
    /// slot per flow, [`ScheduleError::BadPrecedence`] on a
    /// forward/dangling dependency.
    pub fn place_flows_serial<'a>(
        config: &RtLinkConfig,
        flows: impl IntoIterator<Item = &'a Flow>,
    ) -> Result<(SlotSchedule, Vec<usize>), ScheduleError> {
        let flows = flows.into_iter();
        let mut schedule = SlotSchedule::new(config.slots_per_cycle);
        let mut placed_slot: Vec<usize> = Vec::with_capacity(flows.size_hint().0);
        for (i, flow) in flows.enumerate() {
            match flow.after {
                Some(dep) if dep >= i => return Err(ScheduleError::BadPrecedence { flow: i }),
                _ => {}
            }
            // One slot per flow keeps every `after` edge satisfied for
            // free: dependencies always occupy an earlier slot.
            let slot = i + 1;
            if slot >= config.slots_per_cycle {
                return Err(ScheduleError::OutOfSlots { flow: i });
            }
            schedule.assign(SlotAssignment {
                slot,
                owner: flow.src,
                listeners: flow.all_listeners(),
            });
            placed_slot.push(slot);
        }
        Ok((schedule, placed_slot))
    }

    /// Verifies the 2-hop interference-freedom invariant for every slot.
    #[must_use]
    pub fn is_interference_free(&self, topology: &Topology) -> bool {
        self.slots.iter().all(|row| {
            let asgs = row.as_slice();
            asgs.iter().enumerate().all(|(i, a)| {
                asgs[i + 1..]
                    .iter()
                    .all(|b| !conflicts(topology, a.owner, &a.listeners, b))
            })
        })
    }
}

/// Two co-slotted transmissions conflict if the owners are within two hops
/// of each other, or either owner is a neighbor of any of the other's
/// listeners (hidden-terminal rule).
///
/// This pairwise form is the reference: [`SlotSchedule::is_interference_free`]
/// checks with it, and the placer's [`Footprint`] must agree with it. It
/// reads the sorted neighbor lists directly and allocates nothing;
/// `other.owner` is within two hops of `owner` when it is a neighbor, or
/// a neighbor of one of `owner`'s neighbors.
fn conflicts(
    topology: &Topology,
    owner: NodeId,
    listeners: &[NodeId],
    other: &SlotAssignment,
) -> bool {
    owner == other.owner
        || topology.are_neighbors(owner, other.owner)
        || topology
            .neighbors(owner)
            .iter()
            .any(|&nb| topology.are_neighbors(nb, other.owner))
        || listeners
            .iter()
            .any(|&l| topology.are_neighbors(l, other.owner))
        || other
            .listeners
            .iter()
            .any(|&l| topology.are_neighbors(l, owner))
}

/// Everything one flow may not share a slot with, built once per flow so
/// the greedy placer's conflict test is two array reads per node.
///
/// For a flow `src → listeners` the footprint holds
///
/// * `owners` = {src} ∪ two_hop(src) ∪ N(each listener), and
/// * `listeners` = N(src),
///
/// and a co-slotted assignment `a` conflicts exactly when
/// `a.owner ∈ owners` or some `a.listener ∈ listeners`: the 2-hop rule
/// plus the hidden-terminal rule of [`conflicts`], ORed over the
/// assignments. The last term reads `src ∈ N(a.listener)` in the pairwise
/// rule; the two agree because every [`Topology`] constructor keeps
/// neighbor lists symmetric.
///
/// Membership is a per-node-id stamp: starting the next flow bumps the
/// stamp, which empties both sets at once, so the buffers are allocated
/// once per placement run and only grow to the largest id seen.
#[derive(Debug, Default)]
struct Footprint {
    owners: Vec<u32>,
    listeners: Vec<u32>,
    stamp: u32,
}

impl Footprint {
    /// Replaces the footprint with that of the flow `src → listeners`.
    fn build(&mut self, topology: &Topology, src: NodeId, listeners: &[NodeId]) {
        self.stamp += 1;
        let stamp = self.stamp;
        // Distinct nodes stamped into `owners` from neighbor lists.
        let mut covered = 0;
        for &nb in topology.neighbors(src) {
            mark(&mut self.listeners, nb, stamp);
            covered += usize::from(mark(&mut self.owners, nb, stamp));
        }
        // two_hop(src) and N(each listener) in one pass. Neighbor lists
        // hold deployed nodes only, so once every deployed node is an
        // owner the remaining lists add nothing: in a dense cell the
        // first neighbor's list usually covers everyone.
        for &x in topology.neighbors(src).iter().chain(listeners) {
            if covered == topology.len() {
                break;
            }
            for &y in topology.neighbors(x) {
                covered += usize::from(mark(&mut self.owners, y, stamp));
            }
        }
        mark(&mut self.owners, src, stamp);
    }

    /// `true` if `a` may not share a slot with the footprint's flow.
    fn blocks(&self, a: &SlotAssignment) -> bool {
        let has = |set: &[u32], id: NodeId| set.get(usize::from(id.raw())) == Some(&self.stamp);
        has(&self.owners, a.owner) || a.listeners.iter().any(|&l| has(&self.listeners, l))
    }
}

/// Stamps `id` into `set`, growing it to cover the id; `true` if `id`
/// was not stamped yet.
fn mark(set: &mut Vec<u32>, id: NodeId, stamp: u32) -> bool {
    let i = usize::from(id.raw());
    if i >= set.len() {
        set.resize(i + 1, 0);
    }
    let fresh = set[i] != stamp;
    set[i] = stamp;
    fresh
}

/// The RT-Link protocol clock: maps simulation time to cycles and slots.
#[derive(Debug, Clone)]
pub struct RtLink {
    config: RtLinkConfig,
}

impl RtLink {
    /// Creates the protocol clock.
    #[must_use]
    pub fn new(config: RtLinkConfig) -> Self {
        RtLink { config }
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &RtLinkConfig {
        &self.config
    }

    /// `(cycle, slot)` containing time `t`.
    #[must_use]
    pub fn slot_at(&self, t: SimTime) -> (u64, usize) {
        let cyc = self.config.cycle_duration().as_micros();
        let us = t.as_micros();
        let cycle = us / cyc;
        let slot = (us % cyc) / self.config.slot_duration.as_micros();
        (cycle, slot as usize)
    }

    /// Start time of `(cycle, slot)`.
    #[must_use]
    pub fn slot_start(&self, cycle: u64, slot: usize) -> SimTime {
        assert!(slot < self.config.slots_per_cycle, "slot out of range");
        SimTime::from_micros(
            cycle * self.config.cycle_duration().as_micros()
                + slot as u64 * self.config.slot_duration.as_micros(),
        )
    }

    /// The first start time of a slot owned by `node`, strictly after `t`.
    /// Returns `None` if the node owns no slots.
    #[must_use]
    pub fn next_owned_slot(
        &self,
        schedule: &SlotSchedule,
        node: NodeId,
        t: SimTime,
    ) -> Option<SimTime> {
        let owned = schedule.owned_slots(node);
        if owned.is_empty() {
            return None;
        }
        let (cycle, _) = self.slot_at(t);
        for c in cycle..=cycle + 1 {
            for &s in &owned {
                let start = self.slot_start(c, s);
                if start > t {
                    return Some(start);
                }
            }
        }
        None
    }

    /// Per-cycle radio-on time of `node` under `schedule`: sync listen +
    /// owned slots (TX for the frame airtime, bounded by the slot) +
    /// listened slots (RX for the whole slot, conservatively).
    #[must_use]
    pub fn radio_on_per_cycle(&self, schedule: &SlotSchedule, node: NodeId) -> SimDuration {
        let owned = schedule.owned_slots(node).len() as u64;
        let listened = schedule.listened_slots(node).len() as u64;
        self.config.sync_listen
            + self.config.slot_duration * owned
            + self.config.slot_duration * listened
    }
}

impl Default for RtLink {
    fn default() -> Self {
        RtLink::new(RtLinkConfig::default())
    }
}

impl RtLink {
    /// Below this provisioned duty cycle, nodes sleep whole TDMA cycles
    /// (the FireFly low-duty mode) instead of waking for every sync pulse.
    pub const CYCLE_SKIP_KNEE: f64 = 0.02;
}

impl crate::lifetime::DutyCycledMac for RtLink {
    fn name(&self) -> &'static str {
        "rt-link"
    }

    /// Analytic average current at a provisioned duty cycle.
    ///
    /// RT-Link's structural advantage: a provisioned slot that carries no
    /// frame is almost free. Owners sleep empty slots entirely; listeners
    /// pay only a short *detect window* (guard + PHY header) before
    /// shutting the radio down. Cost therefore splits into a fixed sync
    /// term, a per-provisioned-listen-slot detect term, and actual traffic.
    ///
    /// Below [`RtLink::CYCLE_SKIP_KNEE`] the node sleeps whole cycles and
    /// re-acquires the AM sync on wake (the FireFly low-duty mode), so the
    /// fixed sync/detect cost scales down with the requested duty instead
    /// of flooring out.
    fn average_current_ma(&self, duty: f64, wl: &crate::lifetime::Workload) -> f64 {
        assert!(duty > 0.0 && duty <= 1.0, "duty out of (0,1]: {duty}");
        let p = crate::lifetime::power();
        let cycle = self.config.cycle_duration().as_secs_f64();
        let data_slots = (self.config.slots_per_cycle - 1) as f64;
        let t_data = wl.data_airtime().as_secs_f64();
        // Whole-cycle sleeping below the knee.
        let wake_fraction = (duty / Self::CYCLE_SKIP_KNEE).min(1.0);

        // Provisioned slots at this duty cycle, split between TX and RX,
        // with at least one of each and grown if the offered load needs it.
        let k = (duty * data_slots).round().max(2.0);
        let mut k_tx = (k / 2.0).floor().max(1.0);
        let k_rx = (k - k_tx).max(1.0);
        let frames_per_cycle_needed = wl.tx_per_sec * cycle;
        if frames_per_cycle_needed > k_tx {
            k_tx = frames_per_cycle_needed.ceil();
        }

        // Fixed: sync pulse reception every *awake* cycle.
        let sync = p.rx_ma * self.config.sync_listen.as_secs_f64() / cycle * wake_fraction;
        // Listeners: detect window per provisioned RX slot in awake cycles.
        let detect = self.config.guard.as_secs_f64()
            + evm_netsim::frame::airtime_for_bytes(evm_netsim::PHY_HEADER_BYTES).as_secs_f64();
        let listen = p.rx_ma * k_rx * detect / cycle * wake_fraction;
        // Traffic: actual airtime only (owners sleep empty slots).
        let tx = wl.tx_per_sec * t_data * p.tx_ma
            + wl.tx_per_sec * self.config.guard.as_secs_f64() * p.idle_ma;
        let rx = wl.rx_per_sec * t_data * p.rx_ma;
        let active_frac = (self.config.sync_listen.as_secs_f64() + k_rx * detect) / cycle
            * wake_fraction
            + wl.tx_per_sec * t_data
            + wl.rx_per_sec * t_data;
        let sleep = p.sleep_ma * (1.0 - active_frac).max(0.0);
        let _ = k_tx; // capacity provisioning affects latency, not idle energy
        sync + listen + tx + rx + sleep
    }

    /// Average wait for the next owned slot plus the frame airtime;
    /// whole-cycle sleeping below the knee stretches the wait
    /// proportionally.
    fn delivery_latency(&self, duty: f64, wl: &crate::lifetime::Workload) -> evm_sim::SimDuration {
        assert!(duty > 0.0 && duty <= 1.0, "duty out of (0,1]: {duty}");
        let data_slots = (self.config.slots_per_cycle - 1) as f64;
        let k = (duty * data_slots).round().max(2.0);
        let k_tx = (k / 2.0).floor().max(1.0);
        let cycle = self.config.cycle_duration();
        let stretch = (Self::CYCLE_SKIP_KNEE / duty).max(1.0);
        cycle.mul_f64(stretch / (2.0 * k_tx)) + wl.data_airtime()
    }

    /// Scheduled TDMA is collision-free.
    fn delivery_ratio(&self, _duty: f64, _wl: &crate::lifetime::Workload) -> f64 {
        1.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use evm_netsim::{Channel, ChannelConfig, NodeInfo, NodeKind, Position};
    use evm_sim::SimRng;

    fn star_topology() -> Topology {
        let mut ch = Channel::new(ChannelConfig::default(), SimRng::seed_from(1));
        Topology::star(
            6,
            15.0,
            &[NodeKind::Sensor, NodeKind::Controller, NodeKind::Actuator],
            &mut ch,
        )
    }

    /// Schedules are born in epoch 0 and carry whatever epoch the
    /// reconfiguration plane tags them with; the tag never disturbs the
    /// assignments.
    #[test]
    fn epoch_tag_rides_the_schedule() {
        let schedule = SlotSchedule::new(8);
        assert_eq!(schedule.epoch(), 0);
        let mut tagged = schedule.with_epoch(3);
        assert_eq!(tagged.epoch(), 3);
        tagged.assign(SlotAssignment {
            slot: 1,
            owner: NodeId(1),
            listeners: vec![NodeId(2)],
        });
        assert_eq!(tagged.epoch(), 3);
        assert_eq!(tagged.in_slot(1).len(), 1);
    }

    /// Two distant clusters that allow spatial slot reuse.
    fn two_clusters() -> Topology {
        let mut ch = Channel::new(ChannelConfig::default(), SimRng::seed_from(2));
        let mut nodes = Vec::new();
        for i in 0..3u16 {
            nodes.push(NodeInfo::new(
                NodeId(i),
                NodeKind::Controller,
                Position::new(i as f64 * 10.0, 0.0),
                format!("a{i}"),
            ));
        }
        for i in 0..3u16 {
            nodes.push(NodeInfo::new(
                NodeId(10 + i),
                NodeKind::Controller,
                Position::new(2_000.0 + i as f64 * 10.0, 0.0),
                format!("b{i}"),
            ));
        }
        Topology::derive(nodes, &mut ch)
    }

    #[test]
    fn clock_maps_time_to_slots() {
        let rt = RtLink::default();
        assert_eq!(rt.slot_at(SimTime::ZERO), (0, 0));
        assert_eq!(rt.slot_at(SimTime::from_millis(10)), (0, 1));
        assert_eq!(rt.slot_at(SimTime::from_millis(249)), (0, 24));
        assert_eq!(rt.slot_at(SimTime::from_millis(250)), (1, 0));
        assert_eq!(rt.slot_start(1, 0), SimTime::from_millis(250));
        assert_eq!(rt.slot_start(0, 3), SimTime::from_millis(30));
    }

    #[test]
    fn pipeline_order_within_cycle() {
        let topo = star_topology();
        let cfg = RtLinkConfig::default();
        // sensor(1) -> controller(2) -> actuator(3), with the gateway
        // listening in on everything.
        let flows = vec![
            Flow::new(NodeId(1), NodeId(2)),
            Flow::new(NodeId(2), NodeId(3)).after(0),
        ];
        let sched = SlotSchedule::for_flows(&cfg, &topo, &flows).unwrap();
        let s1 = sched.owned_slots(NodeId(1))[0];
        let s2 = sched.owned_slots(NodeId(2))[0];
        assert!(s1 < s2, "pipeline violated: {s1} !< {s2}");
        assert!(sched.is_interference_free(&topo));
    }

    #[test]
    fn single_cluster_flows_get_distinct_slots() {
        let topo = star_topology();
        let cfg = RtLinkConfig::default();
        let flows: Vec<Flow> = (1..=6)
            .map(|i| Flow::new(NodeId(i as u16), NodeId::GATEWAY))
            .collect();
        let sched = SlotSchedule::for_flows(&cfg, &topo, &flows).unwrap();
        let mut used: Vec<usize> = (1..=6)
            .flat_map(|i| sched.owned_slots(NodeId(i as u16)))
            .collect();
        used.sort_unstable();
        used.dedup();
        assert_eq!(used.len(), 6, "all-in-range flows must not share slots");
        assert!(sched.is_interference_free(&topo));
    }

    #[test]
    fn distant_clusters_reuse_slots() {
        let topo = two_clusters();
        let cfg = RtLinkConfig::default();
        let flows = vec![
            Flow::new(NodeId(0), NodeId(1)),
            Flow::new(NodeId(10), NodeId(11)),
        ];
        let sched = SlotSchedule::for_flows(&cfg, &topo, &flows).unwrap();
        assert_eq!(
            sched.owned_slots(NodeId(0)),
            sched.owned_slots(NodeId(10)),
            "distant clusters should share slot 1"
        );
        assert!(sched.is_interference_free(&topo));
    }

    #[test]
    fn serial_placement_disables_spatial_reuse() {
        let topo = two_clusters();
        let cfg = RtLinkConfig::default();
        let flows = vec![
            Flow::new(NodeId(0), NodeId(1)),
            Flow::new(NodeId(10), NodeId(11)),
            Flow::new(NodeId(1), NodeId(2)).after(0),
        ];
        let (reused, _) = SlotSchedule::place_flows(&cfg, &topo, &flows).unwrap();
        let (serial, placed) = SlotSchedule::place_flows_serial(&cfg, &flows).unwrap();
        // Serialized: one slot per flow in flow order.
        assert_eq!(placed, vec![1, 2, 3]);
        assert!(serial.is_interference_free(&topo));
        // The distant clusters reuse slot 1 under the spatial placer, so
        // the reused cycle is strictly shorter.
        assert!(reused.max_slot().unwrap() < serial.max_slot().unwrap());
    }

    #[test]
    fn serial_placement_reports_out_of_slots() {
        let cfg = RtLinkConfig {
            slots_per_cycle: 3,
            ..RtLinkConfig::default()
        };
        let flows: Vec<Flow> = (1..=3)
            .map(|i| Flow::new(NodeId(i as u16), NodeId::GATEWAY))
            .collect();
        let err = SlotSchedule::place_flows_serial(&cfg, &flows).unwrap_err();
        assert_eq!(err, ScheduleError::OutOfSlots { flow: 2 });
        let bad = vec![Flow::new(NodeId(1), NodeId(2)).after(0)];
        let err = SlotSchedule::place_flows_serial(&cfg, &bad).unwrap_err();
        assert_eq!(err, ScheduleError::BadPrecedence { flow: 0 });
    }

    #[test]
    fn transfer_slots_append_after_pipeline() {
        let topo = star_topology();
        let cfg = RtLinkConfig::default();
        let flows = vec![
            Flow::new(NodeId(1), NodeId::GATEWAY),
            Flow::new(NodeId(2), NodeId::GATEWAY).after(0),
        ];
        let (mut schedule, placed) = SlotSchedule::place_flows(&cfg, &topo, &flows).unwrap();
        let pipeline_end = *placed.iter().max().unwrap();
        let reserved = schedule
            .reserve_transfer_slots(NodeId(1), &[NodeId(2), NodeId(3)], 3)
            .unwrap();
        assert_eq!(reserved.len(), 3);
        assert!(reserved[0] > pipeline_end, "transfers follow the pipeline");
        assert_eq!(reserved[2], reserved[0] + 2, "contiguous reservation");
        for &s in &reserved {
            assert_eq!(schedule.in_slot(s)[0].owner, NodeId(1));
            assert!(schedule.in_slot(s)[0].listeners.contains(&NodeId(3)));
        }
        // A second reservation (another VC) appends after the first.
        let more = schedule
            .reserve_transfer_slots(NodeId(2), &[NodeId(1)], 1)
            .unwrap();
        assert_eq!(more, vec![reserved[2] + 1]);
    }

    #[test]
    fn transfer_reservation_reports_overflow() {
        let mut schedule = SlotSchedule::new(4);
        schedule.assign(SlotAssignment {
            slot: 2,
            owner: NodeId(1),
            listeners: vec![NodeId(2)],
        });
        let err = schedule
            .reserve_transfer_slots(NodeId(1), &[NodeId(2)], 2)
            .unwrap_err();
        assert_eq!(err, ScheduleError::OutOfSlots { flow: 1 });
    }

    #[test]
    fn out_of_slots_is_reported() {
        let topo = star_topology();
        let cfg = RtLinkConfig {
            slots_per_cycle: 3, // slots 1 and 2 usable
            ..RtLinkConfig::default()
        };
        let flows: Vec<Flow> = (1..=3)
            .map(|i| Flow::new(NodeId(i as u16), NodeId::GATEWAY))
            .collect();
        let err = SlotSchedule::for_flows(&cfg, &topo, &flows).unwrap_err();
        assert_eq!(err, ScheduleError::OutOfSlots { flow: 2 });
    }

    #[test]
    fn forward_precedence_rejected() {
        let topo = star_topology();
        let cfg = RtLinkConfig::default();
        let flows = vec![Flow::new(NodeId(1), NodeId(2)).after(5)];
        let err = SlotSchedule::for_flows(&cfg, &topo, &flows).unwrap_err();
        assert_eq!(err, ScheduleError::BadPrecedence { flow: 0 });
    }

    #[test]
    fn duty_cycle_and_energy_accounting() {
        let topo = star_topology();
        let cfg = RtLinkConfig::default();
        let flows = vec![
            Flow::new(NodeId(1), NodeId(2)),
            Flow::new(NodeId(2), NodeId(3)).after(0),
        ];
        let sched = SlotSchedule::for_flows(&cfg, &topo, &flows).unwrap();
        // Node 2 owns one slot and listens in one.
        assert_eq!(sched.owned_slots(NodeId(2)).len(), 1);
        assert_eq!(sched.listened_slots(NodeId(2)).len(), 1);
        let dc = sched.duty_cycle_of(NodeId(2));
        assert!((dc - 2.0 / 24.0).abs() < 1e-12);
        let rt = RtLink::new(cfg.clone());
        let on = rt.radio_on_per_cycle(&sched, NodeId(2));
        assert_eq!(on, cfg.sync_listen + cfg.slot_duration * 2);
        // A node with no role only listens for sync.
        assert_eq!(rt.radio_on_per_cycle(&sched, NodeId(5)), cfg.sync_listen);
    }

    #[test]
    fn next_owned_slot_wraps_to_next_cycle() {
        let topo = star_topology();
        let cfg = RtLinkConfig::default();
        let flows = vec![Flow::new(NodeId(1), NodeId(2))];
        let sched = SlotSchedule::for_flows(&cfg, &topo, &flows).unwrap();
        let rt = RtLink::new(cfg);
        let slot = sched.owned_slots(NodeId(1))[0];
        let first = rt
            .next_owned_slot(&sched, NodeId(1), SimTime::ZERO)
            .unwrap();
        assert_eq!(first, rt.slot_start(0, slot));
        let after = rt.next_owned_slot(&sched, NodeId(1), first).unwrap();
        assert_eq!(after, rt.slot_start(1, slot));
        assert_eq!(rt.next_owned_slot(&sched, NodeId(4), SimTime::ZERO), None);
    }

    #[test]
    #[should_panic(expected = "reserved for sync")]
    fn sync_slot_is_protected() {
        let mut sched = SlotSchedule::new(25);
        sched.assign(SlotAssignment {
            slot: 0,
            owner: NodeId(1),
            listeners: vec![],
        });
    }

    /// The slot table grows to the highest assigned slot only: reads past
    /// it (and past the cycle) are empty, slot lists come out ascending
    /// whatever the assignment order, and a transfer reservation appends
    /// after the grown end.
    #[test]
    fn slot_table_grows_to_the_highest_assigned_slot() {
        let empty = SlotSchedule::default();
        assert_eq!(empty.slots_per_cycle(), 0);
        assert_eq!(empty.epoch(), 0);
        assert_eq!(empty.max_slot(), None);
        assert!(empty.in_slot(0).is_empty() && empty.in_slot(7).is_empty());
        assert!(empty.owned_slots(NodeId(1)).is_empty());
        assert_eq!(SlotSchedule::new(40).max_slot(), None);

        let mut sched = SlotSchedule::new(40);
        for (slot, owner, listener) in [(9, 1, 2), (3, 2, 1), (6, 1, 3), (3, 4, 5), (1, 3, 1)] {
            sched.assign(SlotAssignment {
                slot,
                owner: NodeId(owner),
                listeners: vec![NodeId(listener)],
            });
        }
        assert_eq!(sched.max_slot(), Some(9));
        assert_eq!(sched.slots.len(), 10, "grown to the highest slot only");
        for past in [10, 39, 40, 1_000] {
            assert!(sched.in_slot(past).is_empty(), "slot {past}");
            assert_eq!(sched.role_in(NodeId(1), past), None);
        }
        assert!(sched.in_slot(2).is_empty(), "a gap below the top is empty");
        let owners: Vec<NodeId> = sched.in_slot(3).iter().map(|a| a.owner).collect();
        assert_eq!(owners, vec![NodeId(2), NodeId(4)], "assignment order");
        assert_eq!(sched.owned_slots(NodeId(1)), vec![6, 9]);
        assert_eq!(sched.listened_slots(NodeId(1)), vec![1, 3]);
        assert_eq!(sched.owned_slots(NodeId(9)), Vec::<usize>::new());
        assert!((sched.duty_cycle_of(NodeId(1)) - 4.0 / 39.0).abs() < 1e-12);

        let reserved = sched
            .reserve_transfer_slots(NodeId(5), &[NodeId(1)], 2)
            .unwrap();
        assert_eq!(reserved, vec![10, 11]);
        assert_eq!(sched.max_slot(), Some(11));
        assert_eq!(sched.owned_slots(NodeId(5)), vec![10, 11]);
        assert_eq!(sched.listened_slots(NodeId(1)), vec![1, 3, 10, 11]);
        assert!(sched.in_slot(12).is_empty());
    }
}
