//! Controller replicas: the EVM nodes hosting the focus control capsule.

use evm_netsim::NodeId;
use evm_rtos::Kernel;
use evm_sim::{SimDuration, SimRng, SimTime, Trace};

use crate::bytecode::{Program, Vm, VmEnv, VmError};
use crate::health::{DeviationDetector, HeartbeatMonitor};
use crate::roles::ControllerMode;
use crate::runtime::behavior::{NodeBehavior, NodeCtx, Timer};
use crate::runtime::topo::{FlowKind, VcId};
use crate::runtime::Message;

/// Detection and task parameters shared by every replica of the focus
/// capsule (derived from the scenario at engine construction).
#[derive(Debug, Clone)]
pub struct ReplicaParams {
    /// Deviation-detector threshold (output units).
    pub detect_threshold: f64,
    /// Consecutive anomalies to confirm a fault.
    pub detect_consecutive: u32,
    /// Heartbeat silence timeout.
    pub hb_timeout: SimDuration,
    /// Focus-task period.
    pub period: SimDuration,
    /// The VC's initial primary (who every replica watches at start).
    pub primary: NodeId,
}

/// The state of one replica of the focus control capsule: VM, kernel,
/// detectors, and the node's view of who is currently Active. Hosted by
/// [`ControllerNode`]s and by the head's monitor.
#[derive(Debug)]
pub struct ControllerCore {
    /// The hosting node.
    pub id: NodeId,
    /// The Virtual Component this replica serves.
    pub vc: VcId,
    /// Current controller mode.
    pub mode: ControllerMode,
    vm: Vm,
    program: Program,
    /// The node's nano-RK-style kernel (admission, utilization).
    pub kernel: Kernel,
    /// `true` once the focus task image is resident and admitted.
    pub has_task: bool,
    /// Version of the resident focus capsule (`None` until one is
    /// resident). The arrival gate only accepts strict upgrades over it.
    pub capsule_version: Option<u16>,
    latest_pv: Option<(f64, SimTime)>,
    computing: bool,
    /// Computed output awaiting this node's TX slot.
    pending_output: Option<(f64, SimTime)>,
    /// Last own output (for deviation checks).
    last_own_output: Option<f64>,
    detector: DeviationDetector,
    heartbeat: HeartbeatMonitor,
    /// Confirmed-fault report awaiting this node's TX slot.
    pub pending_alert: Option<NodeId>,
    /// Scripted controller fault applied to published outputs.
    pub fault: Option<(SimTime, evm_plant::ActuatorFault)>,
    /// Who this replica believes is Active (updated from received
    /// `Reconfig` frames; the initial primary until then).
    believed_active: NodeId,
    params: ReplicaParams,
}

impl ControllerCore {
    /// Builds a replica. `hosts_task` admits the focus task onto the
    /// kernel immediately (warm replica); otherwise the task must arrive
    /// by migration.
    ///
    /// # Panics
    ///
    /// Panics if the focus task fails admission on an empty kernel — a
    /// configuration error.
    #[must_use]
    pub fn new(
        id: NodeId,
        vc: VcId,
        mode: ControllerMode,
        hosts_task: bool,
        program: &Program,
        gas: u64,
        params: &ReplicaParams,
    ) -> Self {
        let primary = params.primary;
        let mut kernel = Kernel::new(format!("{id}"));
        let mut has_task = false;
        if hosts_task {
            kernel
                .admit(
                    evm_rtos::TaskSpec::new("focus", kernel.instr_cost() * gas, params.period),
                    evm_rtos::TaskImage::typical_control_task(),
                    None,
                )
                .expect("focus task admits on an empty kernel");
            has_task = true;
        }
        ControllerCore {
            id,
            vc,
            mode,
            vm: Vm::new(gas),
            program: program.clone(),
            kernel,
            has_task,
            capsule_version: if has_task { Some(1) } else { None },
            latest_pv: None,
            computing: false,
            pending_output: None,
            last_own_output: None,
            detector: DeviationDetector::new(
                id,
                primary,
                params.detect_threshold,
                params.detect_consecutive,
            ),
            heartbeat: HeartbeatMonitor::new(primary, params.hb_timeout),
            pending_alert: None,
            fault: None,
            believed_active: primary,
            params: params.clone(),
        }
    }

    /// The replica's current belief of the Active controller.
    #[must_use]
    pub fn believed_active(&self) -> NodeId {
        self.believed_active
    }

    /// Worst-case execution time of one capsule run.
    #[must_use]
    pub fn wcet(&self) -> SimDuration {
        self.kernel.instr_cost() * self.vm.gas_limit()
    }

    /// A fresh focus PV arrived; starts a capsule execution if this
    /// replica computes. Returns the completion delay to schedule.
    pub fn on_pv(&mut self, value: f64, sampled_at: SimTime) -> Option<SimDuration> {
        self.latest_pv = Some((value, sampled_at));
        if self.mode.computes() && self.has_task && !self.computing {
            self.computing = true;
            return Some(self.wcet());
        }
        None
    }

    /// Records a liveness signal from `from` if it is the watched node.
    pub fn heard_from(&mut self, from: NodeId, at: SimTime) {
        if from == self.heartbeat.watched() {
            self.heartbeat.heard(at);
        }
    }

    /// `true` if the watched node has been silent past the timeout.
    #[must_use]
    pub fn watched_silent(&self, now: SimTime) -> bool {
        self.heartbeat.is_silent(now)
    }

    /// The node this replica's heartbeat monitor watches.
    #[must_use]
    pub fn watched(&self) -> NodeId {
        self.heartbeat.watched()
    }

    /// Observes a peer controller's published output against our own;
    /// returns the mean deviation when a fault is *newly confirmed*.
    pub fn observe_peer_output(&mut self, from: NodeId, value: f64, now: SimTime) -> Option<f64> {
        if self.mode != ControllerMode::Backup || from != self.believed_active {
            return None;
        }
        let own = self.last_own_output?;
        let ev = self.detector.observe(value, own, now)?;
        Some(ev.mean_deviation)
    }

    /// The capsule run completed: execute the VM against the latest PV and
    /// stage the (possibly fault-corrupted) output for the next TX slot.
    pub fn run_capsule(&mut self, now: SimTime, rng: &mut SimRng, trace: &mut Trace) {
        self.computing = false;
        if !self.mode.computes() {
            return;
        }
        let Some((pv, pv_ts)) = self.latest_pv else {
            return;
        };
        struct Env {
            pv: f64,
            out: Option<f64>,
            now_s: f64,
            role: f64,
        }
        impl VmEnv for Env {
            fn read_sensor(&mut self, _p: u8) -> Result<f64, VmError> {
                Ok(self.pv)
            }
            fn write_actuator(&mut self, _p: u8, v: f64) -> Result<(), VmError> {
                self.out = Some(v);
                Ok(())
            }
            fn emit(&mut self, _ch: u8, _v: f64) {}
            fn clock_s(&self) -> f64 {
                self.now_s
            }
            fn role_code(&self) -> f64 {
                self.role
            }
        }
        let mut env = Env {
            pv,
            out: None,
            now_s: now.as_secs_f64(),
            role: self.mode.as_f64(),
        };
        if self.vm.run(&self.program, &mut env).is_err() {
            trace.log(now, "vm", format!("{} capsule trapped", self.id));
            return;
        }
        let correct = env.out.unwrap_or(0.0);
        self.last_own_output = Some(correct);
        // Apply the scripted controller fault to the *published* output.
        let published = match self.fault {
            Some((since, fault)) => {
                let elapsed = now.saturating_since(since).as_secs_f64();
                fault.apply(correct, elapsed, rng)
            }
            None => correct,
        };
        self.pending_output = Some((published, pv_ts));
    }

    /// What this replica transmits in its `ControlPublish` slot: alerts
    /// preempt outputs (fault plane over data plane); a starved computing
    /// replica sends a keepalive.
    pub fn take_publish(&mut self) -> Option<Message> {
        if !self.mode.computes() {
            return None;
        }
        if let Some(suspect) = self.pending_alert.take() {
            return Some(Message::FaultAlert {
                suspect,
                observer: self.id,
            });
        }
        if let Some((value, pv_ts)) = self.pending_output.take() {
            return Some(Message::ControlOutput {
                vc: self.vc,
                from: self.id,
                value,
                pv_sampled_at: pv_ts,
            });
        }
        Some(Message::Heartbeat { from: self.id })
    }

    /// Applies a received (or self-committed, for the head's monitor)
    /// reconfiguration: mode change for this node, belief/detector updates
    /// for everyone.
    pub fn apply_reconfig(
        &mut self,
        promote: Option<NodeId>,
        demote: Option<(NodeId, ControllerMode)>,
        now: SimTime,
        label: &str,
        trace: &mut Trace,
    ) {
        // A reconfiguration starts a fresh observation epoch.
        self.detector.reset();
        self.pending_alert = None;
        // Demote first so the single-active invariant holds through the
        // transition.
        if let Some((target, mode)) = demote {
            if target == self.id && self.mode != mode {
                self.mode = mode;
                if mode == ControllerMode::Dormant {
                    self.pending_output = None;
                    self.computing = false;
                }
                trace.log(now, "vc", format!("{label} -> {mode}"));
            }
        }
        if let Some(target) = promote {
            if target == self.id && self.mode != ControllerMode::Active {
                self.mode = ControllerMode::Active;
                trace.log(now, "vc", format!("{label} -> Active"));
            }
            // Every replica re-aims its observation at the new Active.
            self.believed_active = target;
            self.detector = DeviationDetector::new(
                self.id,
                target,
                self.params.detect_threshold,
                self.params.detect_consecutive,
            );
            if target != self.id {
                // Fresh monitor, deliberately unstamped: a replica that is
                // not subscribed to the new Active's slot never hears it,
                // and a never-heard node is not considered silent — so
                // only actual subscribers resume crash detection.
                self.heartbeat = HeartbeatMonitor::new(target, self.params.hb_timeout);
            }
        }
    }

    /// Admission gate for a migrated focus task. Returns `false` if the
    /// kernel refuses it.
    pub fn admit_focus_task(&mut self) -> bool {
        let gas = self.vm.gas_limit();
        let admitted = self
            .kernel
            .admit(
                evm_rtos::TaskSpec::new(
                    "focus",
                    self.kernel.instr_cost() * gas,
                    self.params.period,
                ),
                evm_rtos::TaskImage::typical_control_task(),
                None,
            )
            .is_ok();
        if admitted {
            self.has_task = true;
        }
        admitted
    }

    /// Snapshot of the VM data section (the migrated integrator state).
    #[must_use]
    pub fn snapshot_vars(&self) -> [f64; crate::bytecode::N_VARS] {
        self.vm.snapshot_vars()
    }

    /// Warm-starts the VM from a migrated snapshot.
    pub fn restore_vars(&mut self, vars: [f64; crate::bytecode::N_VARS]) {
        self.vm.restore_vars(vars);
    }
}

/// A controller node: a [`ControllerCore`] on the radio.
pub struct ControllerNode {
    core: ControllerCore,
}

impl ControllerNode {
    /// Wraps a replica as a network node behavior.
    #[must_use]
    pub fn new(core: ControllerCore) -> Self {
        ControllerNode { core }
    }
}

impl NodeBehavior for ControllerNode {
    fn has_cycle_hook(&self) -> bool {
        true
    }

    fn on_cycle_start(&mut self, ctx: &mut NodeCtx<'_>) {
        // Backups raise heartbeat-timeout alerts; the Active replica has
        // no one to watch (its own silence is what others detect).
        if self.core.mode == ControllerMode::Backup
            && self.core.watched_silent(ctx.now)
            && self.core.pending_alert.is_none()
        {
            let suspect = self.core.watched();
            self.core.pending_alert = Some(suspect);
            ctx.trace.log(
                ctx.now,
                "health",
                format!("{} heartbeat timeout on {suspect}", ctx.id),
            );
        }
    }

    fn take_outgoing(&mut self, kind: FlowKind, _ctx: &mut NodeCtx<'_>) -> Option<Message> {
        match kind {
            FlowKind::ControlPublish { vc } if vc == self.core.vc => self.core.take_publish(),
            _ => None,
        }
    }

    fn on_deliver(&mut self, msg: &Message, ctx: &mut NodeCtx<'_>) {
        match *msg {
            Message::SensorValue {
                vc,
                tag,
                value,
                sampled_at,
            } => {
                // Controllers only act on their own VC's focus PV.
                if vc != self.core.vc || tag != 0 {
                    return;
                }
                if let Some(wcet) = self.core.on_pv(value, sampled_at) {
                    ctx.timers.push((ctx.now + wcet, Timer::TaskDone));
                }
            }
            Message::Heartbeat { from } => self.core.heard_from(from, ctx.now),
            Message::ControlOutput {
                vc, from, value, ..
            } => {
                if vc != self.core.vc {
                    return;
                }
                self.core.heard_from(from, ctx.now);
                if let Some(mean_dev) = self.core.observe_peer_output(from, value, ctx.now) {
                    if self.core.pending_alert.is_none() {
                        self.core.pending_alert = Some(from);
                        ctx.trace.log(
                            ctx.now,
                            "health",
                            format!(
                                "{} confirmed deviation on {from} (mean {mean_dev:.1})",
                                ctx.id
                            ),
                        );
                    }
                }
            }
            Message::Reconfig {
                vc,
                promote,
                demote,
            } => {
                if vc == self.core.vc {
                    self.core
                        .apply_reconfig(promote, demote, ctx.now, ctx.label, ctx.trace);
                }
            }
            // Capsule fragments are reassembled by the engine's transfer
            // plane, not by the behavior layer.
            Message::FaultAlert { .. }
            | Message::FailSafe { .. }
            | Message::ActuateFwd { .. }
            | Message::CapsuleChunk { .. } => {}
        }
    }

    fn on_timer(&mut self, timer: Timer, ctx: &mut NodeCtx<'_>) {
        match timer {
            Timer::TaskDone => self.core.run_capsule(ctx.now, ctx.rng, ctx.trace),
        }
    }

    fn controller_core(&self) -> Option<&ControllerCore> {
        Some(&self.core)
    }

    fn controller_core_mut(&mut self) -> Option<&mut ControllerCore> {
        Some(&mut self.core)
    }

    fn into_controller_core(self: Box<Self>) -> Option<ControllerCore> {
        Some(self.core)
    }
}
