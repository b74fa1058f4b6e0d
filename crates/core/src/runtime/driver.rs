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

use std::mem;
use std::sync::Arc;

use evm_mac::rtlink::SlotSchedule;
use evm_netsim::{Channel, EnergyMeter, Frame, FrameKind, NodeId, RadioState, Topology};
use evm_plant::{BoundTag, GasPlant, LocalController, LoopTags, Plant};
use evm_sim::{EventQueue, SimRng, SimTime, Trace};

use crate::bytecode::{Capsule, CapsuleId, RunMemo};
use crate::component::VirtualComponent;
use crate::metrics::{battery_fraction, NodeEnergies, RunMeta, RunResult, SeriesSet, VcRunStats};
use crate::runtime::behavior::{Effect, Node, NodeCtx, Timer};
use crate::runtime::behaviors::{ControllerCore, HeadPlane, RelayCore};
use crate::runtime::deployment::Deployment;
use crate::runtime::plan::Wiring;
use crate::runtime::reconfig::ReconfigState;
use crate::runtime::topo::{FlowKind, RoleMap, VcId, VcMap};
use crate::runtime::{Message, Scenario};

/// Driver events. The fault plane (`super::failover`) schedules the
/// arbitration ones.
#[derive(Debug, Clone)]
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

/// What one VC's per-cycle regulation-error trace (its `Err.<loop>`
/// series) is sampled from.
#[derive(Debug, Clone)]
pub(super) struct ErrTrace {
    /// The loop's PV tag, bound at setup; `None` when the plant does not
    /// publish it, and the trace then stays empty.
    pub(super) pv: Option<BoundTag>,
    pub(super) setpoint: f64,
}

/// How a run's replicas shared capsule runs ([`Engine::memo_stats`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MemoStats {
    /// Memo entries: one per VC whose replicas share runs (at least two
    /// replicas, a law without `ext`).
    pub entries: usize,
    /// Capsule runs made through the entries.
    pub runs: u64,
    /// Runs that adopted their VC's previous run instead of running it.
    pub shared: u64,
}

/// The co-simulation engine. Build with [`Engine::new`], run with
/// [`Engine::run`] (or incrementally with [`Engine::run_until`] +
/// [`Engine::finalize`]).
///
/// An engine is a shared [`Deployment`] plus one run's `RunState`. A
/// clone shares the deployment and copies the run state, so it continues
/// from the same instant exactly as the original would.
#[derive(Clone)]
pub struct Engine {
    /// The run-invariant half, shared by every run of its key.
    pub(super) dep: Arc<Deployment>,
    /// Everything this run changes.
    pub(super) run: RunState,
}

/// The per-run half of an [`Engine`]: RNG, channel burst state, queue,
/// nodes, meters, series and trace, plus the run's views of the shared
/// state it may change. Those views start as the deployment's own
/// (`Arc` clones) and are copied only when the run writes them: the role
/// map at a head re-election or a relay's removal (`Arc::make_mut`), the
/// wiring at an epoch commit (replaced whole).
#[derive(Clone)]
pub(super) struct RunState {
    /// The scenario the run was built from, less what setup moved out of
    /// it: without a shared deployment the topology spec (into the
    /// deployment's topology) is empty, and the hosted loops' names
    /// (into [`RunState::components`]) always are.
    pub(super) scenario: Scenario,
    pub(super) plant: GasPlant,
    /// The wired loops the gateway runs against the plant directly, with
    /// their tags bound at setup.
    pub(super) local_loops: Vec<(LocalController, LoopTags)>,
    /// The run's channel: shares the deployment's link models, owns its
    /// burst states and stream.
    pub(super) channel: Channel,
    /// The current role-resolved addressing (re-seated heads, dropped
    /// relays).
    pub(super) vcs: Arc<VcMap>,
    /// The committed epoch's wiring, whose plan the slot loop runs from
    /// (see [`super::plan`]).
    pub(super) wiring: Arc<Wiring>,
    /// The retired previous wiring: in-flight folded broadcasts pushed
    /// just before an epoch commit resolve against its plan.
    pub(super) wiring_prev: Arc<Wiring>,
    /// Store-and-forward state per forwarding node ([`FlowKind::Relay`]
    /// slots transmit from here, not from the node itself), indexed
    /// like [`RunState::meters`].
    pub(super) relay_cores: Vec<Option<RelayCore>>,
    /// The head's commanded view of each hosted loop's Virtual
    /// Component (controller modes, transfer relationships), indexed by
    /// `VcId`.
    pub(super) components: Vec<VirtualComponent>,
    pub(super) rng: SimRng,
    pub(super) trace: Trace,
    pub(super) queue: EventQueue<Ev>,
    pub(super) now: SimTime,
    /// Every deployed node, indexed like [`RunState::meters`].
    pub(super) nodes: Vec<Node>,

    /// Every series of the run, in result order, parallel to the
    /// deployment's name tables: one per distinct sampled tag
    /// ([`Deployment::sampled`], whose handle is `None` when the plant
    /// does not publish the tag, and the series then stays empty), one
    /// controller-mode trace per replica ([`Deployment::mode_series`]),
    /// and one regulation-error trace per VC ([`Deployment::err_series`]).
    pub(super) series: SeriesSet,
    /// What each VC's error trace is sampled from, indexed by `VcId`.
    pub(super) err_traces: Vec<ErrTrace>,
    /// Radio energy meters, one per topology node, in topology order
    /// (the deployment's dense index space).
    pub(super) meters: Vec<EnergyMeter>,
    /// Dispatch scratch: effects drain here and are reused, so the
    /// steady state never allocates.
    pub(super) fx_effects: Vec<Effect>,
    /// Dispatch scratch for timers (see [`RunState::fx_effects`]).
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
    /// [`RunState::components`].
    pub(super) vc_stats: Vec<VcRunStats>,
    /// The reconfiguration plane: liveness ledger, committed/staged
    /// epochs, reroute timestamps (see [`super::reconfig`]).
    pub(super) reconfig: ReconfigState,
    /// Each VC's authoritative capsule (what a live migration ships) as
    /// `(law, version)`, indexed by `VcId`: its law's capsule under the
    /// VC's id at that version (see [`Engine::vc_capsule`]). Version
    /// bumps happen at migration start.
    pub(super) vc_capsules: Vec<(usize, u16)>,
    /// The capsule-run memo: one entry per VC whose replicas share runs
    /// (see [`crate::bytecode::RunMemo`]), indexed by the VC's slot.
    pub(super) memo: Vec<RunMemo>,
    /// The in-flight capsule transfers, at most one per VC, looked up by
    /// VC (see [`super::xfer`]).
    pub(super) xfer: Vec<crate::runtime::xfer::ActiveTransfer>,
    /// Completed capsule migrations, in completion order.
    pub(super) migrations: Vec<crate::metrics::MigrationRecord>,
    /// Debug builds: the VCs whose commanded view changed since the last
    /// invariant check (see [`Engine::component_mut`]).
    #[cfg(debug_assertions)]
    pub(super) changed_vcs: Vec<VcId>,
}

impl Engine {
    /// The slot schedule (for inspection/tests).
    #[must_use]
    pub fn schedule(&self) -> &SlotSchedule {
        &self.run.wiring.schedule
    }

    /// Every hosted Virtual Component's commanded view, indexed by `VcId`.
    #[must_use]
    pub fn components(&self) -> &[VirtualComponent] {
        &self.run.components
    }

    /// VC 0's role-resolved addressing (for inspection/tests; see
    /// [`Engine::vc_map`] for all VCs).
    #[must_use]
    pub fn roles(&self) -> &RoleMap {
        self.run.vcs.vc(0)
    }

    /// Role-resolved addressing for every hosted VC.
    #[must_use]
    pub fn vc_map(&self) -> &VcMap {
        &self.run.vcs
    }

    /// The physical topology (for inspection/tests). Its nodes carry no
    /// labels: the deployment moved them into the label table every
    /// result shares ([`crate::NodeEnergies::labels`]).
    #[must_use]
    pub fn topology(&self) -> &Topology {
        &self.dep.topology
    }

    /// The deployment this run is built on, shared with every engine of
    /// its key (for inspection/tests).
    #[must_use]
    pub fn deployment(&self) -> &Arc<Deployment> {
        &self.dep
    }

    /// How this run's replicas have shared capsule runs so far (for
    /// inspection/tests).
    #[must_use]
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            entries: self.run.memo.len(),
            runs: self.run.memo.iter().map(RunMemo::runs).sum(),
            shared: self.run.memo.iter().map(RunMemo::hits).sum(),
        }
    }

    /// The committed configuration epoch (0 until a reconfiguration).
    #[must_use]
    pub fn epoch(&self) -> u64 {
        self.run.reconfig.epoch
    }

    /// The nodes carrying forwarding jobs in the committed epoch, in id
    /// order (inspection/tests/benches — e.g. picking a loaded forwarder
    /// to kill without re-deriving the routing pass out of band).
    #[must_use]
    pub fn forwarding_nodes(&self) -> Vec<NodeId> {
        self.run.wiring.forwarders.clone()
    }

    /// The lowest slot in which `owner` serves `kind`, if scheduled: the
    /// first match in the slot-ordered flow table.
    #[must_use]
    pub fn slot_serving(&self, owner: NodeId, kind: FlowKind) -> Option<usize> {
        self.run
            .wiring
            .flow_kinds
            .iter()
            .find(|f| f.owner == owner && f.kind == kind)
            .map(|f| f.slot)
    }

    /// VC `vc`'s authoritative capsule, materialized from its law.
    pub(super) fn vc_capsule(&self, vc: VcId) -> Capsule {
        let (law, version) = self.run.vc_capsules[vc as usize];
        let mut capsule = self.dep.laws[law].capsule.clone();
        capsule.id = CapsuleId(u32::from(vc));
        capsule.version = version;
        capsule
    }

    /// The radio energy meter of `id`, if deployed.
    #[inline]
    pub(super) fn meter(&self, id: NodeId) -> Option<&EnergyMeter> {
        self.dep
            .topology
            .index_of(id)
            .map(|ix| &self.run.meters[ix])
    }

    /// The controller replica hosted by `id` (controller nodes and the
    /// head's monitor).
    pub(super) fn controller(&self, id: NodeId) -> Option<&ControllerCore> {
        self.dep
            .topology
            .index_of(id)
            .and_then(|ix| self.run.nodes[ix].controller())
    }

    /// Mutable controller replica access.
    pub(super) fn controller_mut(&mut self, id: NodeId) -> Option<&mut ControllerCore> {
        self.dep
            .topology
            .index_of(id)
            .and_then(|ix| self.run.nodes[ix].controller_mut())
    }

    /// The control plane of `head`, if it is a head node.
    pub(super) fn head_plane_mut(&mut self, head: NodeId) -> Option<&mut HeadPlane> {
        self.dep
            .topology
            .index_of(head)
            .and_then(|ix| self.run.nodes[ix].head_plane_mut())
    }

    /// Runs the scenario to completion and returns the results.
    #[must_use]
    pub fn run(mut self) -> RunResult {
        let end = SimTime::ZERO + self.run.scenario.duration;
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
        let dur = self.run.scenario.rtlink.slot_duration;
        let spc = self.run.scenario.rtlink.slots_per_cycle as u64;
        loop {
            let head = self.run.queue.peek_entry();
            let slot_first = match head {
                None => true,
                Some((qt, qseq)) => (self.run.vslot_time, self.run.vslot_seq) < (qt, qseq),
            };
            if !slot_first {
                let (qt, _) = head.expect("queue event ordered first");
                if qt >= until {
                    break;
                }
                let (t, ev) = self.run.queue.pop().expect("peeked event");
                self.run.now = t;
                self.handle(ev);
                self.debug_check_invariants();
                continue;
            }
            if self.run.vslot_time >= until {
                break;
            }
            let slot = usize::try_from(self.run.vslot_k % spc).expect("slot fits usize");
            if slot == 0 || self.run.wiring.plan.is_occupied(slot) {
                let cycle = self.run.vslot_k / spc;
                self.run.now = self.run.vslot_time;
                self.on_slot_body(cycle, slot);
                // The next slot takes its sequence number now, after the
                // pushes this slot made: the pinned event order.
                self.run.vslot_k += 1;
                self.run.vslot_time += dur;
                self.run.vslot_seq = self.run.queue.skip_seq();
                self.debug_check_invariants();
            } else {
                // Batch-skip the empty stretch. Only slots that provably
                // fire before both the queue head and `until` may be
                // skipped (`.max(1)`: this slot already won the race).
                let horizon = match head {
                    Some((qt, _)) => qt.min(until),
                    None => until,
                };
                let span = horizon.saturating_since(self.run.vslot_time);
                let whole = span / dur;
                let n_time = if (span % dur).is_zero() {
                    whole
                } else {
                    whole + 1
                };
                let n = self
                    .run
                    .wiring
                    .plan
                    .slots_until_stop(slot)
                    .min(n_time)
                    .max(1);
                self.run.vslot_k += n;
                self.run.vslot_time += dur * n;
                self.run.vslot_seq = self.run.queue.skip_seqs(n);
            }
        }
    }

    /// VC `vc`'s commanded view, for writing. Debug builds note the VC
    /// for the next invariant check.
    pub(super) fn component_mut(&mut self, vc: VcId) -> &mut VirtualComponent {
        #[cfg(debug_assertions)]
        self.run.changed_vcs.push(vc);
        &mut self.run.components[vc as usize]
    }

    /// Debug builds: every head has commanded at most one controller
    /// `Active`. This checks the heads' commanded views, not the modes the
    /// nodes themselves hold, which follow a `Reconfig` frame later, and
    /// only the views changed since the last check
    /// ([`Engine::component_mut`]): the others still hold.
    #[inline]
    fn debug_check_invariants(&mut self) {
        #[cfg(debug_assertions)]
        for vc in self.run.changed_vcs.drain(..) {
            assert!(
                self.run.components[vc as usize].invariant_single_active(),
                "single-active invariant violated in VC {vc} at {}",
                self.run.now
            );
        }
    }

    /// Closes out energy accounting (everything not spent on the radio
    /// was deep sleep) and extracts the [`RunResult`]. Tables move into
    /// the result whole: the series, the closed-out meters (beside the
    /// deployment's label table, shared, so no label is copied whether
    /// or not other runs share the deployment) and the loop names from
    /// the component records. Nothing is hashed or derived per node.
    #[must_use]
    pub fn finalize(self) -> RunResult {
        let Engine { dep, run } = self;
        let total = run.scenario.duration;
        let meta = RunMeta {
            seed: run.scenario.seed,
            duration: run.scenario.duration,
            nodes: dep.topology.nodes().len(),
            controllers: run.vcs.vcs.iter().map(|r| r.controllers.len()).sum(),
            vcs: run.vcs.n_vcs(),
        };
        // Close every meter out: the run sleeps wherever it accounted
        // nothing.
        let mut meters = run.meters;
        for m in &mut meters {
            let accounted = m.total_time();
            m.add(RadioState::Sleep, total.saturating_sub(accounted));
        }
        let node_energy = NodeEnergies::new(Arc::clone(&dep.labels), meters);
        let mut vc_stats = run.vc_stats;
        for (stats, record) in vc_stats.iter_mut().zip(run.components) {
            stats.loop_name = record.into_name();
        }
        // The pooled latencies, sized once: one allocation at any scale.
        let mut e2e_latencies =
            Vec::with_capacity(vc_stats.iter().map(|s| s.e2e_latencies.len()).sum());
        for s in &vc_stats {
            e2e_latencies.extend_from_slice(&s.e2e_latencies);
        }
        RunResult {
            meta,
            series: run.series,
            trace: run.trace,
            e2e_latencies,
            deadline_misses: vc_stats.iter().map(|s| s.deadline_misses).sum(),
            actuations: vc_stats.iter().map(|s| s.actuations).sum(),
            node_energy,
            vc_stats,
            epochs: run.reconfig.epoch,
            reroute_latency: run.reconfig.reroute_latency,
            migrations: run.migrations,
        }
    }

    pub(super) fn alive(&self, node: NodeId) -> bool {
        self.run.scenario.fault_plan.node_alive(node, self.run.now)
    }

    /// Remaining battery fraction of `node` in `[0, 1]` — the one
    /// fitness both master arbitration and head election rank
    /// candidates by, so the two planes can never diverge on how they
    /// order the same nodes.
    pub(super) fn battery_fitness(&self, node: NodeId) -> f64 {
        self.meter(node).map_or(1.0, battery_fraction)
    }

    pub(super) fn label_of(&self, id: NodeId) -> String {
        match self.dep.topology.index_of(id) {
            Some(ix) => self.dep.labels[ix].clone(),
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
        let mut effects = mem::take(&mut self.run.fx_effects);
        let mut timers = mem::take(&mut self.run.fx_timers);
        let mut ctx = NodeCtx {
            now: self.run.now,
            id: self.dep.node_ids[ix],
            label: &self.dep.labels[ix],
            vcs: &self.run.vcs,
            rng: &mut self.run.rng,
            trace: &mut self.run.trace,
            plant: &mut self.run.plant,
            effects: &mut effects,
            timers: &mut timers,
            memo: &mut self.run.memo,
            meter: &self.run.meters[ix],
        };
        let out = f(&mut self.run.nodes[ix], &mut ctx);
        let node = u32::try_from(ix).expect("dense index fits u32");
        for (at, timer) in timers.drain(..) {
            self.run.queue.push(at, Ev::NodeTimer { ix: node, timer });
        }
        self.run.fx_timers = timers;
        for effect in effects.drain(..) {
            self.apply_effect(effect);
        }
        self.run.fx_effects = effects;
        out
    }

    fn apply_effect(&mut self, effect: Effect) {
        match effect {
            Effect::Alert { suspect, observer } => self.head_on_alert(suspect, observer),
            Effect::Actuated { vc, pv_sampled_at } => {
                let e2e = self.run.now.saturating_since(pv_sampled_at);
                let deadline = self.dep.rtlink.config().cycle_duration() / 3;
                let stats = &mut self.run.vc_stats[vc as usize];
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
        let dt = self.run.scenario.plant_dt;
        // Wired loops run at the gateway against the plant directly.
        let now_s = self.run.now.as_secs_f64();
        for (c, tags) in &mut self.run.local_loops {
            let _ = c.poll_bound(&mut self.run.plant, *tags, now_s);
        }
        self.run.plant.step(dt.as_secs_f64());
        self.run.queue.push(self.run.now + dt, Ev::PlantStep);
    }

    fn on_sample(&mut self) {
        let dep = &*self.dep;
        let (sampled, traces) = self
            .run
            .series
            .as_mut_slice()
            .split_at_mut(dep.sampled.len());
        for ((tag, _), series) in dep.sampled.iter().zip(sampled) {
            if let Some(tag) = *tag {
                series.push(self.run.now, self.run.plant.read_bound(tag));
            }
        }
        for ((ix, _), series) in dep.mode_series.iter().zip(traces) {
            let mode = self.run.nodes[*ix].controller().expect("replica host").mode;
            series.push(self.run.now, mode.as_f64());
        }
        self.run
            .queue
            .push(self.run.now + self.run.scenario.sample_every, Ev::Sample);
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
        let guard = self.run.scenario.rtlink.guard;
        // Nothing mid-slot replaces the wiring (epoch commits happen in
        // `on_cycle_start`, above), so every entry read below is of the
        // plan the slot started on. Entries are copied out so nodes can
        // be dispatched between reads.
        let (lo, hi) = self.run.wiring.plan.per_slot[slot];
        for eix in lo..hi {
            let e = self.run.wiring.plan.entries[eix as usize];
            let owner = e.owner;
            if !self.alive(owner) {
                continue;
            }
            let msg = match e.kind {
                Some(FlowKind::Relay { job, .. }) => self.run.relay_cores[e.owner_ix as usize]
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
            let plan = &self.run.wiring.plan;
            let listeners = &plan.listeners[e.lo as usize..e.hi as usize];
            let Some(msg) = msg else {
                // Empty slot: listeners still pay the detect window.
                for l in listeners {
                    if self.alive(l.id) {
                        self.run.meters[l.ix as usize].add(RadioState::Listen, plan.detect);
                    }
                }
                continue;
            };
            if plan.keepalives {
                self.run.reconfig.ledger.heard(owner, cycle);
            }
            let air_bytes = evm_netsim::PHY_HEADER_BYTES
                + evm_netsim::frame::MAC_HEADER_BYTES
                + msg.payload_bytes();
            let airtime = evm_netsim::frame::airtime_for_bytes(air_bytes);
            let m = &mut self.run.meters[e.owner_ix as usize];
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
                    self.run.meters[l.ix as usize].add(RadioState::Rx, guard + airtime);
                    if !self
                        .run
                        .scenario
                        .fault_plan
                        .link_usable(owner, l.id, self.run.now)
                    {
                        continue;
                    }
                    let received = match l.budget {
                        Some(b) => self
                            .run
                            .channel
                            .sample_delivery_budget(l.burst, b, air_bytes),
                        None => {
                            // Shadowed link: the realization is drawn
                            // lazily from the channel RNG, so sample
                            // unbudgeted.
                            let frame =
                                Frame::new(owner, FrameKind::Broadcast, msg.payload_bytes(), 0);
                            self.run.channel.sample_delivery(&frame, l.id, l.distance)
                        }
                    };
                    if !received {
                        continue;
                    }
                    if self.run.rng.chance(self.run.scenario.extra_loss) {
                        continue;
                    }
                    mask |= 1u64 << i;
                    delivered += 1;
                }
                if delivered > 0 {
                    self.run.queue.push(
                        self.run.now + guard + airtime,
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
                        self.run.queue.skip_seqs(delivered - 1);
                    }
                }
            }
        }
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
        let e = self.plan_of(gen).entries[entry as usize];
        let (from, first) = (e.owner, (e.lo + base) as usize);
        let mut bits = mask;
        while bits != 0 {
            let l = self.plan_of(gen).listeners[first + bits.trailing_zeros() as usize];
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
            if let Some(core) = self.run.relay_cores[l.ix as usize].as_mut() {
                core.offer(from, msg);
            }
            self.dispatch(l.ix as usize, |n, ctx| n.on_deliver(msg, ctx));
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
        let sync = self.run.scenario.rtlink.sync_listen;
        for ix in 0..self.dep.node_ids.len() {
            if !self.alive(self.dep.node_ids[ix]) {
                continue;
            }
            self.run.meters[ix].add(RadioState::Rx, sync);
            if matches!(self.run.nodes[ix], Node::Controller(_) | Node::Head(_)) {
                self.dispatch(ix, |n, ctx| n.on_cycle_start(ctx));
            }
        }
        let series = self.run.series.as_mut_slice();
        let first_err = series.len() - self.run.err_traces.len();
        for (e, series) in self.run.err_traces.iter().zip(&mut series[first_err..]) {
            if let Some(pv) = e.pv {
                series.push(self.run.now, self.run.plant.read_bound(pv) - e.setpoint);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use evm_netsim::Battery;
    use evm_sim::SimDuration;

    use super::*;
    use crate::runtime::ScenarioBuilder;

    /// The bits of a node's energy summary.
    type Bits = [u64; 3];

    /// A result's energies, read in label order, are bit for bit a
    /// recomputation from the engine's own meters with the arithmetic a
    /// result used to be built with: close the meter out with sleep, then
    /// the average current, the duty cycle, and the lifetime on 2×AA.
    #[test]
    fn node_energies_match_a_recomputation_from_the_meters() {
        let s = ScenarioBuilder::star()
            .vcs(2)
            .duration(SimDuration::from_secs(20))
            .build();
        let end = SimTime::ZERO + s.duration;
        let mut engine = Engine::new(s);
        engine.run_until(end);
        let total = engine.run.scenario.duration;
        let mut expect: Vec<(String, Bits)> = engine
            .dep
            .node_ids
            .iter()
            .zip(engine.dep.labels.iter())
            .map(|(&id, label)| {
                let mut m = engine.meter(id).expect("deployed").clone();
                m.add(RadioState::Sleep, total.saturating_sub(m.total_time()));
                let avg = m.average_current_ma();
                let life = Battery::two_aa().lifetime_years_at(avg.max(1e-9));
                let bits = [avg, m.radio_duty_cycle(), life].map(f64::to_bits);
                (label.clone(), bits)
            })
            .collect();
        expect.sort_by(|a, b| a.0.cmp(&b.0));
        let r = engine.finalize();
        let got: Vec<(String, Bits)> = r
            .node_energy
            .by_label()
            .into_iter()
            .map(|(label, e)| {
                let bits = [e.avg_current_ma, e.radio_duty, e.lifetime_years].map(f64::to_bits);
                (label.to_string(), bits)
            })
            .collect();
        assert_eq!(got.len(), r.meta.nodes);
        assert_eq!(got, expect);
        assert_eq!(r.node_energy.get("nope"), None);
    }
}
