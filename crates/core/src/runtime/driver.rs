//! The co-simulation driver: the deterministic slot-pipeline engine.
//!
//! A thin event loop that owns the shared world — plant, channel,
//! schedule, energy meters, event queue, the Virtual Component records —
//! and drives each topology node's [`Node`] through it. All role dispatch is
//! resolved from the scenario's [`VcMap`]; no node id is hard-coded
//! anywhere in the runtime. Every piece of per-loop state (component
//! records, QoS tallies, error traces, fault detectors) is keyed by
//! [`VcId`], so several Virtual Components share one RT-Link cycle
//! without observing each other.
//!
//! Slots are advanced by a cursor over the epoch's [`CyclePlan`] that
//! jumps straight to the next occupied slot or cycle boundary. Every
//! virtual slot, fired or skipped, still takes one queue sequence
//! number, so the same-instant event order (which the golden digests
//! pin) does not depend on how many slots were skipped. The steady
//! state is allocation-free: node state lives in dense topology-indexed
//! tables, labels are borrowed from the topology, and dispatch
//! effects/timers drain into reusable scratch buffers.
//!
//! Construction lives in [`super::setup`]; the heads' fault plane
//! (arbitration, failover commits) in [`super::failover`], capsule
//! migration in [`super::xfer`].

use std::collections::HashMap;
use std::mem;

use evm_mac::rtlink::{RtLink, SlotSchedule};
use evm_netsim::{Battery, Channel, EnergyMeter, Frame, FrameKind, NodeId, RadioState, Topology};
use evm_plant::{BoundTag, GasPlant, LocalController, Plant, RegisterMap};
use evm_sim::{EventQueue, SimRng, SimTime, TimeSeries, Trace};

use crate::bytecode::{Capsule, CapsuleId};
use crate::component::VirtualComponent;
use crate::metrics::{NodeEnergy, RunMeta, RunResult, VcRunStats};
use crate::runtime::behavior::{Effect, Node, NodeCtx, Timer};
use crate::runtime::behaviors::{ControllerCore, HeadPlane, RelayCore};
use crate::runtime::plan::CyclePlan;
use crate::runtime::reconfig::{ReconfigState, SlotFlow};
use crate::runtime::topo::{FlowKind, RoleMap, VcId, VcMap};
use crate::runtime::{Message, Scenario};

/// Driver events. The fault plane (`super::failover`) schedules the
/// arbitration ones.
#[derive(Debug)]
pub(super) enum Ev {
    PlantStep,
    Sample,
    /// Up to 64 delivered listeners of one transmission, folded into a
    /// single event carrying one shared message image. `entry` indexes
    /// the generation-`gen` plan; bit `i` of `mask` selects listener
    /// `base + i` of that entry. Reserves one sequence number per
    /// delivered listener, so ordering against every other event is that
    /// of one delivery event per listener.
    Broadcast {
        gen: u64,
        entry: u32,
        base: u32,
        mask: u64,
        msg: Message,
    },
    /// A timer of the node at dense index `ix` fired.
    NodeTimer {
        ix: u32,
        timer: Timer,
    },
    InjectFault,
    InjectBackupFault,
    CrashPrimary {
        vc: VcId,
    },
    HeadDecision {
        suspect: NodeId,
    },
    DormantDemote {
        target: NodeId,
    },
    /// Scripted reconfiguration request: recompute the epoch (with the
    /// current down set, possibly empty) and commit it at the next cycle
    /// boundary.
    Reconfigure,
}

/// One VC's per-cycle regulation-error trace (the `Err.<loop>` series).
#[derive(Debug)]
pub(super) struct ErrTrace {
    /// The loop's PV tag, bound at setup; `None` when the plant does not
    /// publish it, and the trace then stays empty.
    pub(super) pv: Option<BoundTag>,
    pub(super) setpoint: f64,
    pub(super) series: TimeSeries,
}

/// The co-simulation engine. Build with [`Engine::new`], run with
/// [`Engine::run`] (or incrementally with [`Engine::run_until`] +
/// [`Engine::finalize`]).
pub struct Engine {
    /// The scenario the engine was built from, less what setup moved
    /// out of it: the topology spec (into [`Engine::topology`]) and the
    /// hosted loops' names (into [`Engine::components`]) are empty.
    pub(super) scenario: Scenario,
    pub(super) plant: GasPlant,
    pub(super) regmap: RegisterMap,
    pub(super) local_loops: Vec<LocalController>,
    pub(super) channel: Channel,
    /// The deployment, owner of the node labels (`NodeCtx.label` borrows
    /// them; [`Engine::finalize`] moves them into the result).
    pub(super) topology: Topology,
    pub(super) vcs: VcMap,
    pub(super) rtlink: RtLink,
    pub(super) schedule: SlotSchedule,
    /// The flow semantic of every scheduled transmission, sorted by
    /// `(slot, owner)` (the cold, inspectable copy; the hot loop reads
    /// [`Engine::plan`]).
    pub(super) flow_kinds: Vec<SlotFlow>,
    /// Store-and-forward state per forwarding node ([`FlowKind::Relay`]
    /// slots transmit from here, not from the node itself), indexed
    /// like [`Engine::meters`].
    pub(super) relay_cores: Vec<Option<RelayCore>>,
    /// Nodes carrying forwarding jobs in the committed epoch, id-sorted.
    pub(super) forwarders: Vec<NodeId>,
    /// The head's commanded view of each hosted loop's Virtual
    /// Component (controller modes, transfer relationships), indexed by
    /// `VcId`.
    pub(super) components: Vec<VirtualComponent>,
    pub(super) rng: SimRng,
    pub(super) trace: Trace,
    pub(super) queue: EventQueue<Ev>,
    pub(super) now: SimTime,
    /// Every deployed node, indexed like [`Engine::meters`].
    pub(super) nodes: Vec<Node>,

    pub(super) series: HashMap<String, TimeSeries>,
    /// Per-replica controller-mode traces, keyed by the replica's dense
    /// index.
    pub(super) mode_series: Vec<(usize, TimeSeries)>,
    /// Per-VC per-cycle regulation-error traces, indexed by `VcId`.
    pub(super) err_series: Vec<ErrTrace>,
    /// Radio energy meters, one per topology node, in topology order.
    pub(super) meters: Vec<EnergyMeter>,
    /// Topology node ids in topology order — the dense index space
    /// ([`Topology::index_of`]) shared by [`Engine::nodes`],
    /// [`Engine::meters`], [`Engine::relay_cores`] and the topology's
    /// node list.
    pub(super) node_ids: Vec<NodeId>,
    /// The epoch-compiled cycle plan the slot loop runs from (see
    /// [`super::plan`]); rebuilt at setup and at every epoch commit.
    pub(super) plan: CyclePlan,
    /// The retired previous plan generation — in-flight folded
    /// broadcasts pushed just before an epoch commit resolve here.
    pub(super) plan_prev: CyclePlan,
    /// Dispatch scratch: effects drain here and are reused, so the
    /// steady state never allocates.
    pub(super) fx_effects: Vec<Effect>,
    /// Dispatch scratch for timers (see [`Engine::fx_effects`]).
    pub(super) fx_timers: Vec<(SimTime, Timer)>,
    /// Heartbeat-scan scratch: the watch set (heads + forwarders).
    pub(super) scratch_watch: Vec<NodeId>,
    /// Heartbeat-scan scratch: nodes marked down this cycle.
    pub(super) scratch_down: Vec<NodeId>,
    /// Event-driven slot cursor: index of the next virtual slot event.
    pub(super) vslot_k: u64,
    /// Boundary time of the next virtual slot event.
    pub(super) vslot_time: SimTime,
    /// Queue sequence number reserved for the next virtual slot event —
    /// orders it against same-instant queue entries as if every slot
    /// were a queued event (the order the golden digests pin).
    pub(super) vslot_seq: u64,
    /// Per-VC QoS tallies, indexed by `VcId` — the single source of
    /// truth; the global `RunResult` counters are derived from these at
    /// the end of the run, when each takes its loop name from
    /// [`Engine::components`].
    pub(super) vc_stats: Vec<VcRunStats>,
    /// The reconfiguration plane: liveness ledger, committed/staged
    /// epochs, reroute timestamps (see [`super::reconfig`]).
    pub(super) reconfig: ReconfigState,
    /// The compiled control laws, one capsule per distinct law (version
    /// 1, under its first host VC's id).
    pub(super) laws: Vec<Capsule>,
    /// Each VC's authoritative capsule (what a live migration ships) as
    /// `(law, version)`, indexed by `VcId`: its law's capsule under the
    /// VC's id at that version (see [`Engine::vc_capsule`]). Version
    /// bumps happen at migration start.
    pub(super) vc_capsules: Vec<(usize, u16)>,
    /// The in-flight capsule transfers, at most one per VC, looked up by
    /// VC (see [`super::xfer`]).
    pub(super) xfer: Vec<crate::runtime::xfer::ActiveTransfer>,
    /// Completed capsule migrations, in completion order.
    pub(super) migrations: Vec<crate::metrics::MigrationRecord>,
}

impl Engine {
    /// The slot schedule (for inspection/tests).
    #[must_use]
    pub fn schedule(&self) -> &SlotSchedule {
        &self.schedule
    }

    /// Every hosted Virtual Component's commanded view, indexed by `VcId`.
    #[must_use]
    pub fn components(&self) -> &[VirtualComponent] {
        &self.components
    }

    /// VC 0's role-resolved addressing (for inspection/tests; see
    /// [`Engine::vc_map`] for all VCs).
    #[must_use]
    pub fn roles(&self) -> &RoleMap {
        self.vcs.vc(0)
    }

    /// Role-resolved addressing for every hosted VC.
    #[must_use]
    pub fn vc_map(&self) -> &VcMap {
        &self.vcs
    }

    /// The physical topology (for inspection/tests).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.topology
    }

    /// The committed configuration epoch (0 until a reconfiguration).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.reconfig.epoch
    }

    /// The nodes carrying forwarding jobs in the committed epoch, in id
    /// order (inspection/tests/benches — e.g. picking a loaded forwarder
    /// to kill without re-deriving the routing pass out of band).
    #[must_use]
    pub fn forwarding_nodes(&self) -> Vec<NodeId> {
        self.forwarders.clone()
    }

    /// The lowest slot in which `owner` serves `kind`, if scheduled: the
    /// first match in the slot-ordered flow table.
    #[must_use]
    pub fn slot_serving(&self, owner: NodeId, kind: FlowKind) -> Option<usize> {
        self.flow_kinds
            .iter()
            .find(|f| f.owner == owner && f.kind == kind)
            .map(|f| f.slot)
    }

    /// VC `vc`'s authoritative capsule, materialized from its law.
    pub(super) fn vc_capsule(&self, vc: VcId) -> Capsule {
        let (law, version) = self.vc_capsules[vc as usize];
        let mut capsule = self.laws[law].clone();
        capsule.id = CapsuleId(u32::from(vc));
        capsule.version = version;
        capsule
    }

    /// The radio energy meter of `id`, if deployed.
    #[inline]
    pub(super) fn meter(&self, id: NodeId) -> Option<&EnergyMeter> {
        self.topology.index_of(id).map(|ix| &self.meters[ix])
    }

    /// The controller replica hosted by `id` (controller nodes and the
    /// head's monitor).
    pub(super) fn controller(&self, id: NodeId) -> Option<&ControllerCore> {
        self.topology
            .index_of(id)
            .and_then(|ix| self.nodes[ix].controller())
    }

    /// Mutable controller replica access.
    pub(super) fn controller_mut(&mut self, id: NodeId) -> Option<&mut ControllerCore> {
        self.topology
            .index_of(id)
            .and_then(|ix| self.nodes[ix].controller_mut())
    }

    /// The control plane of `head`, if it is a head node.
    pub(super) fn head_plane_mut(&mut self, head: NodeId) -> Option<&mut HeadPlane> {
        self.topology
            .index_of(head)
            .and_then(|ix| self.nodes[ix].head_plane_mut())
    }

    /// Runs the scenario to completion and returns the results.
    #[must_use]
    pub fn run(mut self) -> RunResult {
        let end = SimTime::ZERO + self.scenario.duration;
        self.run_until(end);
        self.finalize()
    }

    /// Advances the simulation up to (but excluding) `until`: every
    /// event and slot strictly before `until` is processed. The engine
    /// can be advanced again with a later horizon, or closed out with
    /// [`Engine::finalize`]; [`Engine::run`] is exactly
    /// `run_until(start + duration)` followed by `finalize()`.
    ///
    /// The slot cursor races the queue head; the earlier of the two
    /// fires. Empty slots are batch-skipped up to the next occupied slot,
    /// cycle boundary or queue event. Each fired or skipped slot takes
    /// one queue sequence number, as if it were a queued event, so every
    /// same-instant ordering decision is independent of skipping.
    pub fn run_until(&mut self, until: SimTime) {
        let dur = self.scenario.rtlink.slot_duration;
        let spc = self.scenario.rtlink.slots_per_cycle as u64;
        loop {
            let head = self.queue.peek_entry();
            let slot_first = match head {
                None => true,
                Some((qt, qseq)) => (self.vslot_time, self.vslot_seq) < (qt, qseq),
            };
            if !slot_first {
                let (qt, _) = head.expect("queue event ordered first");
                if qt >= until {
                    break;
                }
                let (t, ev) = self.queue.pop().expect("peeked event");
                self.now = t;
                self.handle(ev);
                self.debug_check_invariants();
                continue;
            }
            if self.vslot_time >= until {
                break;
            }
            let slot = usize::try_from(self.vslot_k % spc).expect("slot fits usize");
            if slot == 0 || self.plan.is_occupied(slot) {
                let cycle = self.vslot_k / spc;
                self.now = self.vslot_time;
                self.on_slot_body(cycle, slot);
                // The next slot takes its sequence number now, after the
                // pushes this slot made: the pinned event order.
                self.vslot_k += 1;
                self.vslot_time += dur;
                self.vslot_seq = self.queue.skip_seq();
                self.debug_check_invariants();
            } else {
                // Batch-skip the empty stretch. Only slots that provably
                // fire before both the queue head and `until` may be
                // skipped (`.max(1)`: this slot already won the race).
                let horizon = match head {
                    Some((qt, _)) => qt.min(until),
                    None => until,
                };
                let span = horizon.saturating_since(self.vslot_time);
                let whole = span / dur;
                let n_time = if (span % dur).is_zero() {
                    whole
                } else {
                    whole + 1
                };
                let n = self.plan.slots_until_stop(slot).min(n_time).max(1);
                self.vslot_k += n;
                self.vslot_time += dur * n;
                self.vslot_seq = self.queue.skip_seqs(n);
            }
        }
    }

    /// Debug builds: every head has commanded at most one controller
    /// `Active`. This checks the heads' commanded views, not the modes the
    /// nodes themselves hold, which follow a `Reconfig` frame later.
    #[inline]
    fn debug_check_invariants(&self) {
        debug_assert!(
            self.components
                .iter()
                .all(VirtualComponent::invariant_single_active),
            "single-active invariant violated at {}",
            self.now
        );
    }

    /// Closes out energy accounting (everything not spent on the radio
    /// was deep sleep) and extracts the [`RunResult`]. Names move into
    /// the result: node labels from the topology, loop names from the
    /// component records.
    #[must_use]
    pub fn finalize(self) -> RunResult {
        let total = self.scenario.duration;
        let meta = RunMeta {
            seed: self.scenario.seed,
            duration: self.scenario.duration,
            nodes: self.topology.nodes().len(),
            controllers: self.vcs.vcs.iter().map(|r| r.controllers.len()).sum(),
            vcs: self.vcs.n_vcs(),
        };
        let mut meters = self.meters;
        let node_energy = self
            .topology
            .into_nodes()
            .into_iter()
            .zip(meters.iter_mut())
            .map(|(node, m)| {
                let accounted = m.total_time();
                m.add(RadioState::Sleep, total.saturating_sub(accounted));
                let avg = m.average_current_ma();
                (
                    node.label,
                    NodeEnergy {
                        avg_current_ma: avg,
                        radio_duty: m.radio_duty_cycle(),
                        lifetime_years: Battery::two_aa().lifetime_years_at(avg.max(1e-9)),
                    },
                )
            })
            .collect();
        let mut vc_stats = self.vc_stats;
        for (stats, record) in vc_stats.iter_mut().zip(self.components) {
            stats.loop_name = record.into_name();
        }
        RunResult {
            meta,
            series: self
                .series
                .into_iter()
                .chain(
                    self.mode_series
                        .into_iter()
                        .map(|(_, s)| (s.name().to_string(), s)),
                )
                .chain(
                    self.err_series
                        .into_iter()
                        .map(|e| (e.series.name().to_string(), e.series)),
                )
                .collect(),
            trace: self.trace,
            e2e_latencies: vc_stats
                .iter()
                .flat_map(|s| s.e2e_latencies.iter().copied())
                .collect(),
            deadline_misses: vc_stats.iter().map(|s| s.deadline_misses).sum(),
            actuations: vc_stats.iter().map(|s| s.actuations).sum(),
            node_energy,
            vc_stats,
            epochs: self.reconfig.epoch,
            reroute_latency: self.reconfig.reroute_latency,
            migrations: self.migrations,
        }
    }

    pub(super) fn alive(&self, node: NodeId) -> bool {
        self.scenario.fault_plan.node_alive(node, self.now)
    }

    /// Remaining battery fraction of `node` in `[0, 1]` — the one
    /// fitness both master arbitration and head election rank
    /// candidates by, so the two planes can never diverge on how they
    /// order the same nodes.
    pub(super) fn battery_fitness(&self, node: NodeId) -> f64 {
        let consumed = self.meter(node).map_or(0.0, EnergyMeter::consumed_mah);
        (1.0 - consumed / Battery::two_aa().capacity_mah()).max(0.0)
    }

    pub(super) fn label_of(&self, id: NodeId) -> String {
        match self.topology.index_of(id) {
            Some(ix) => self.topology.nodes()[ix].label.clone(),
            None => id.to_string(),
        }
    }

    /// Runs one callback on the node at dense index `ix` with a scoped
    /// [`NodeCtx`], then applies the timers and effects it produced.
    pub(super) fn dispatch<R>(
        &mut self,
        ix: usize,
        f: impl FnOnce(&mut Node, &mut NodeCtx<'_>) -> R,
    ) -> R {
        let mut effects = mem::take(&mut self.fx_effects);
        let mut timers = mem::take(&mut self.fx_timers);
        let mut ctx = NodeCtx {
            now: self.now,
            id: self.node_ids[ix],
            label: &self.topology.nodes()[ix].label,
            vcs: &self.vcs,
            rng: &mut self.rng,
            trace: &mut self.trace,
            plant: &mut self.plant,
            regmap: &self.regmap,
            effects: &mut effects,
            timers: &mut timers,
        };
        let out = f(&mut self.nodes[ix], &mut ctx);
        let node = u32::try_from(ix).expect("dense index fits u32");
        for (at, timer) in timers.drain(..) {
            self.queue.push(at, Ev::NodeTimer { ix: node, timer });
        }
        self.fx_timers = timers;
        for effect in effects.drain(..) {
            self.apply_effect(effect);
        }
        self.fx_effects = effects;
        out
    }

    fn apply_effect(&mut self, effect: Effect) {
        match effect {
            Effect::Alert { suspect, observer } => self.head_on_alert(suspect, observer),
            Effect::Actuated { vc, pv_sampled_at } => {
                let e2e = self.now.saturating_since(pv_sampled_at);
                let deadline = self.rtlink.config().cycle_duration() / 3;
                let stats = &mut self.vc_stats[vc as usize];
                if e2e > deadline {
                    stats.deadline_misses += 1;
                }
                stats.e2e_latencies.push(e2e);
                stats.actuations += 1;
                self.note_actuation_for_reroute_clock();
            }
        }
    }

    fn handle(&mut self, ev: Ev) {
        match ev {
            Ev::PlantStep => self.on_plant_step(),
            Ev::Sample => self.on_sample(),
            Ev::Broadcast {
                gen,
                entry,
                base,
                mask,
                msg,
            } => self.on_broadcast_delivered(gen, entry, base, mask, &msg),
            Ev::NodeTimer { ix, timer } => {
                self.dispatch(ix as usize, |n, ctx| n.on_timer(timer, ctx));
            }
            Ev::InjectFault => self.on_inject_fault(),
            Ev::InjectBackupFault => self.on_inject_backup_fault(),
            Ev::CrashPrimary { vc } => self.on_crash_primary(vc),
            Ev::HeadDecision { suspect } => self.on_head_decision(suspect),
            Ev::DormantDemote { target } => self.on_dormant_demote(target),
            Ev::Reconfigure => self.on_forced_reconfig(),
        }
    }

    fn on_plant_step(&mut self) {
        let dt = self.scenario.plant_dt;
        // Wired loops run at the gateway against the plant directly.
        let now_s = self.now.as_secs_f64();
        for c in &mut self.local_loops {
            let _ = c.poll(&mut self.plant, now_s);
        }
        self.plant.step(dt.as_secs_f64());
        self.queue.push(self.now + dt, Ev::PlantStep);
    }

    fn on_sample(&mut self) {
        for (tag, series) in &mut self.series {
            if let Some(v) = self.plant.read_tag(tag) {
                series.push(self.now, v);
            }
        }
        for (ix, series) in &mut self.mode_series {
            let mode = self.nodes[*ix].controller().expect("replica host").mode;
            series.push(self.now, mode.as_f64());
        }
        self.queue
            .push(self.now + self.scenario.sample_every, Ev::Sample);
    }

    /// Processes all transmissions of `slot` (in `cycle`), starting now,
    /// from the epoch-compiled [`CyclePlan`]: dense indices, distances,
    /// channel budgets and airtime constants are all pre-resolved, so
    /// the slot is reduced to the RNG draws (see [`super::plan`] for
    /// their order). Delivered listeners fold into one [`Ev::Broadcast`]
    /// per 64-listener chunk of a transmission (one shared message
    /// image), reserving one sequence number per delivered listener.
    fn on_slot_body(&mut self, cycle: u64, slot: usize) {
        if slot == 0 {
            self.on_cycle_start();
        }
        let guard = self.scenario.rtlink.guard;
        // Lift the plan out for the slot so nodes can be dispatched
        // while iterating it; nothing mid-slot rebuilds it (epoch commits
        // happen in `on_cycle_start`, above).
        let plan = mem::take(&mut self.plan);
        let (lo, hi) = plan.per_slot[slot];
        for eix in lo..hi {
            let e = &plan.entries[eix as usize];
            let owner = e.owner;
            if !self.alive(owner) {
                continue;
            }
            let msg = match e.kind {
                Some(FlowKind::Relay { job, .. }) => self.relay_cores[e.owner_ix as usize]
                    .as_mut()
                    .and_then(|c| c.take(job as usize)),
                Some(FlowKind::Transfer { vc }) => self.take_transfer_chunk(vc, owner),
                Some(k) => self.dispatch(e.owner_ix as usize, |n, ctx| n.take_outgoing(k, ctx)),
                None => None,
            };
            let msg = match msg {
                Some(m) => Some(m),
                None if e.keepalive_eligible => Some(Message::Heartbeat { from: owner }),
                None => None,
            };
            let listeners = &plan.listeners[e.lo as usize..e.hi as usize];
            let Some(msg) = msg else {
                // Empty slot: listeners still pay the detect window.
                for l in listeners {
                    if self.alive(l.id) {
                        self.meters[l.ix as usize].add(RadioState::Listen, plan.detect);
                    }
                }
                continue;
            };
            if plan.keepalives {
                self.reconfig.ledger.heard(owner, cycle);
            }
            let air_bytes = evm_netsim::PHY_HEADER_BYTES
                + evm_netsim::frame::MAC_HEADER_BYTES
                + msg.payload_bytes();
            let airtime = evm_netsim::frame::airtime_for_bytes(air_bytes);
            let m = &mut self.meters[e.owner_ix as usize];
            m.add(RadioState::Idle, guard);
            m.add(RadioState::Tx, airtime);
            // One event per 64-listener chunk with deliveries. Chunks
            // are pushed in listener order and nothing else is pushed
            // in between, so their sequence numbers are contiguous:
            // exactly those of one push per delivered listener.
            for (c, chunk) in listeners.chunks(64).enumerate() {
                let mut mask = 0u64;
                let mut delivered = 0u64;
                for (i, l) in chunk.iter().enumerate() {
                    if !self.alive(l.id) {
                        continue;
                    }
                    self.meters[l.ix as usize].add(RadioState::Rx, guard + airtime);
                    if !self.scenario.fault_plan.link_usable(owner, l.id, self.now) {
                        continue;
                    }
                    let received = match l.budget {
                        Some(b) => self.channel.sample_delivery_budget(l.burst, b, air_bytes),
                        None => {
                            // Shadowed link: the realization is drawn
                            // lazily from the channel RNG, so sample
                            // unbudgeted.
                            let frame =
                                Frame::new(owner, FrameKind::Broadcast, msg.payload_bytes(), 0);
                            self.channel.sample_delivery(&frame, l.id, l.distance)
                        }
                    };
                    if !received {
                        continue;
                    }
                    if self.rng.chance(self.scenario.extra_loss) {
                        continue;
                    }
                    mask |= 1u64 << i;
                    delivered += 1;
                }
                if delivered > 0 {
                    self.queue.push(
                        self.now + guard + airtime,
                        Ev::Broadcast {
                            gen: plan.generation,
                            entry: eix,
                            base: u32::try_from(c * 64).expect("listener count fits u32"),
                            mask,
                            msg: msg.clone(),
                        },
                    );
                    if delivered > 1 {
                        // Reserve the sequence numbers of the
                        // per-listener deliveries this event folded.
                        self.queue.skip_seqs(delivered - 1);
                    }
                }
            }
        }
        self.plan = plan;
    }

    /// Delivers one folded broadcast chunk: dispatches each masked
    /// listener in listener order, exactly as one delivery event per
    /// listener would have (their contiguous sequence numbers admit no
    /// interleaving).
    fn on_broadcast_delivered(
        &mut self,
        gen: u64,
        entry: u32,
        base: u32,
        mask: u64,
        msg: &Message,
    ) {
        let current = self.plan.generation == gen;
        let plan = if current {
            mem::take(&mut self.plan)
        } else {
            mem::take(&mut self.plan_prev)
        };
        debug_assert_eq!(plan.generation, gen, "broadcast outlived its plan");
        let e = &plan.entries[entry as usize];
        let from = e.owner;
        let listeners = &plan.listeners[(e.lo + base) as usize..e.hi as usize];
        let mut bits = mask;
        while bits != 0 {
            let l = &listeners[bits.trailing_zeros() as usize];
            bits &= bits - 1;
            // Capsule fragments belong to the engine's transfer plane,
            // not to the node: consume them here.
            if let Message::CapsuleChunk { vc, seq, .. } = *msg {
                self.on_chunk_delivered(l.id, from, vc, seq);
                continue;
            }
            // The forwarding capability sits beside the node: any node
            // with routed relay jobs captures matching frames for its
            // scheduled forwarding slots, *and* still consumes the frame
            // itself (a controller lending a hop also hears the PV it
            // forwards).
            if let Some(core) = self.relay_cores[l.ix as usize].as_mut() {
                core.offer(from, msg);
            }
            self.dispatch(l.ix as usize, |n, ctx| n.on_deliver(msg, ctx));
        }
        if current {
            self.plan = plan;
        } else {
            self.plan_prev = plan;
        }
    }

    /// Cycle-boundary housekeeping: epoch commits and heartbeat-silence
    /// scans (the reconfiguration plane), sync reception energy, per-node
    /// cycle hooks, and the per-VC per-cycle regulation-error samples.
    /// The meter stamp and the hook dispatch share one pass (the hooks
    /// draw no RNG and touch no meters), only nodes hosting a replica are
    /// dispatched (the others' hook is a no-op), and the error samples
    /// read pre-bound plant-tag handles.
    fn on_cycle_start(&mut self) {
        // The reconfiguration plane acts strictly at cycle boundaries,
        // before any transmission of the new cycle: a staged epoch
        // becomes visible here or never — frames are never torn across
        // epochs mid-cycle.
        self.reconfig_on_cycle_start();
        self.drop_orphaned_transfers();
        let sync = self.scenario.rtlink.sync_listen;
        for ix in 0..self.node_ids.len() {
            if !self.alive(self.node_ids[ix]) {
                continue;
            }
            self.meters[ix].add(RadioState::Rx, sync);
            if matches!(self.nodes[ix], Node::Controller(_) | Node::Head(_)) {
                self.dispatch(ix, |n, ctx| n.on_cycle_start(ctx));
            }
        }
        for e in &mut self.err_series {
            if let Some(pv) = e.pv {
                e.series
                    .push(self.now, self.plant.read_bound(pv) - e.setpoint);
            }
        }
    }
}
