//! Controller replicas: the EVM nodes hosting the focus control capsule.

use std::sync::Arc;

use evm_netsim::NodeId;
use evm_rtos::Kernel;
use evm_sim::{SimDuration, SimTime, Trace};

use crate::attest::{capsule_digest, AttestationKey};
use crate::bytecode::{Capability, Capsule, Program, ProgramInputs, ReplicaInput, Vm};
use crate::health::{DeviationDetector, HeartbeatMonitor};
use crate::migration::admit;
use crate::roles::ControllerMode;
use crate::runtime::behavior::{NodeCtx, Timer};
use crate::runtime::topo::VcId;
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
/// [`Node::Controller`](crate::runtime::Node::Controller) and by the
/// head's monitor.
#[derive(Debug, Clone)]
pub struct ControllerCore {
    /// The hosting node.
    pub id: NodeId,
    /// The Virtual Component this replica serves.
    pub vc: VcId,
    /// Current controller mode.
    pub mode: ControllerMode,
    vm: Vm,
    program: Program,
    /// The VC's entry in the run's capsule-run memo and the law's input
    /// set, for a VC whose replicas share runs (see
    /// [`ControllerCore::share_runs`]).
    memo: Option<(u32, ProgramInputs)>,
    /// The node's nano-RK-style kernel (admission, utilization). Warm
    /// replicas of one law share their booted kernel until one of them
    /// admits a migrated task, which copies it for that replica alone.
    kernel: Arc<Kernel>,
    /// Version of the resident focus capsule (`None` until one is
    /// resident and admitted). The admission gate only accepts strict
    /// upgrades over it.
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

/// What a replica host provides, and so what a focus capsule may ask
/// for: it computes the law and publishes on the data plane.
pub(crate) const REPLICA_CAPS: [Capability; 2] =
    [Capability::ControllerRole, Capability::DataPlane];

/// A replica kernel with `capsule`'s focus task admitted at `period`
/// through the admission gate, as VC `vc`'s replica `host` would run it.
/// Setup builds one per control law and shares it with every warm
/// replica, so the gate runs once per law, not once per replica.
///
/// # Panics
///
/// Panics if the freshly compiled capsule fails the gate on an empty
/// kernel — a configuration error.
#[must_use]
pub(crate) fn focus_kernel(
    capsule: &Capsule,
    vc: VcId,
    host: NodeId,
    period: SimDuration,
) -> Kernel {
    let mut kernel = Kernel::new("");
    let key = AttestationKey::for_vc(vc);
    let digest = capsule_digest(capsule, key);
    admit(
        capsule,
        digest,
        key,
        host,
        &REPLICA_CAPS,
        None,
        &mut kernel,
        period,
    )
    .expect("focus capsule admits on an empty kernel");
    kernel
}

impl ControllerCore {
    /// Builds a replica. A warm replica starts on `warm`, its law's
    /// shared kernel with the focus task already admitted; without one
    /// the replica starts on an empty kernel and the task must arrive by
    /// migration.
    #[must_use]
    pub fn new(
        id: NodeId,
        vc: VcId,
        mode: ControllerMode,
        warm: Option<&Arc<Kernel>>,
        program: &Program,
        gas: u64,
        params: &ReplicaParams,
    ) -> Self {
        let primary = params.primary;
        let kernel = warm.map_or_else(|| Arc::new(Kernel::new("")), Arc::clone);
        ControllerCore {
            id,
            vc,
            mode,
            vm: Vm::new(gas),
            program: program.clone(),
            memo: None,
            kernel,
            capsule_version: warm.map(|_| 1),
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

    /// Runs the capsule through memo entry `slot` of the run, which every
    /// replica of this VC shares: a run whose variables and inputs equal
    /// the VC's previous run adopts its outcome. `inputs` is the law's
    /// input set.
    pub(crate) fn share_runs(&mut self, slot: u32, inputs: ProgramInputs) {
        self.memo = Some((slot, inputs));
    }

    /// The node's kernel (admission, utilization).
    #[must_use]
    pub fn kernel(&self) -> &Kernel {
        &self.kernel
    }

    /// The node's kernel, for admitting a task: copied first if other
    /// replicas still share it.
    pub(crate) fn kernel_mut(&mut self) -> &mut Kernel {
        Arc::make_mut(&mut self.kernel)
    }

    /// The replica's current belief of the Active controller.
    #[must_use]
    pub fn believed_active(&self) -> NodeId {
        self.believed_active
    }

    /// The focus task's period.
    #[must_use]
    pub(crate) fn period(&self) -> SimDuration {
        self.params.period
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
        if self.mode.computes() && self.capsule_version.is_some() && !self.computing {
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
    /// A replica that shares runs with its VC's others (through the run's
    /// [`RunMemo`](crate::bytecode::RunMemo)) adopts the VC's previous run
    /// when it would repeat it exactly, and still pays its WCET, which
    /// elapsed before this call.
    pub fn run_capsule(&mut self, ctx: &mut NodeCtx<'_>) {
        self.computing = false;
        if !self.mode.computes() {
            return;
        }
        let Some((pv, pv_ts)) = self.latest_pv else {
            return;
        };
        let now = ctx.now;
        let input = ReplicaInput {
            pv,
            clock_s: now.as_secs_f64(),
            role: self.mode.as_f64(),
            meter: ctx.meter,
        };
        let run = match self.memo {
            Some((slot, inputs)) => {
                ctx.memo[slot as usize].run(&mut self.vm, &self.program, inputs, input)
            }
            None => input.run(&mut self.vm, &self.program),
        };
        if run.result.is_err() {
            ctx.trace
                .log(now, "vm", format!("{} capsule trapped", self.id));
            return;
        }
        let correct = run.output.unwrap_or(0.0);
        self.last_own_output = Some(correct);
        // Apply the scripted controller fault to the *published* output.
        let published = match self.fault {
            Some((since, fault)) => {
                let elapsed = now.saturating_since(since).as_secs_f64();
                fault.apply(correct, elapsed, ctx.rng)
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

    /// The data-plane frames every replica host handles alike: its VC's
    /// focus PV starts a capsule run (scheduling [`Timer::TaskDone`]),
    /// heartbeats and peer outputs stamp the liveness monitor, and peer
    /// outputs feed the deviation detector. Returns the suspect and its
    /// mean deviation when a peer fault is *newly confirmed*; routing
    /// that alert is the host's duty.
    pub(crate) fn on_data(
        &mut self,
        msg: &Message,
        ctx: &mut NodeCtx<'_>,
    ) -> Option<(NodeId, f64)> {
        match *msg {
            Message::SensorValue {
                vc,
                tag,
                value,
                sampled_at,
            } => {
                // Replicas only act on their own VC's focus PV.
                if vc == self.vc && tag == 0 {
                    if let Some(wcet) = self.on_pv(value, sampled_at) {
                        ctx.timers.push((ctx.now + wcet, Timer::TaskDone));
                    }
                }
                None
            }
            Message::Heartbeat { from } => {
                self.heard_from(from, ctx.now);
                None
            }
            Message::ControlOutput {
                vc, from, value, ..
            } if vc == self.vc => {
                self.heard_from(from, ctx.now);
                let mean_dev = self.observe_peer_output(from, value, ctx.now)?;
                Some((from, mean_dev))
            }
            _ => None,
        }
    }

    /// A timer scheduled by this replica's host fired.
    pub(crate) fn on_timer(&mut self, timer: Timer, ctx: &mut NodeCtx<'_>) {
        match timer {
            Timer::TaskDone => self.run_capsule(ctx),
        }
    }

    /// Logs a heartbeat timeout on the watched node and returns it as
    /// the suspect.
    pub(crate) fn heartbeat_timeout(&self, ctx: &mut NodeCtx<'_>) -> NodeId {
        let suspect = self.watched();
        ctx.trace.log(
            ctx.now,
            "health",
            format!("{} heartbeat timeout on {suspect}", ctx.id),
        );
        suspect
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

/// Logs a newly confirmed output deviation of `suspect`.
pub(crate) fn log_confirmed_deviation(ctx: &mut NodeCtx<'_>, suspect: NodeId, mean_dev: f64) {
    ctx.trace.log(
        ctx.now,
        "health",
        format!(
            "{} confirmed deviation on {suspect} (mean {mean_dev:.1})",
            ctx.id
        ),
    );
}
