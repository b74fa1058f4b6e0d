//! The live capsule-transfer plane: the runtime's one migration path.
//!
//! A shipment starts in two places: when a head re-election fires under
//! [`super::reconfig::ReroutePolicy::Heartbeat`] (the capsule moves to
//! the new head), and when a head decides to promote a cold-standby
//! backup that holds no task (the capsule moves to that backup, and the
//! failover commits only once it has arrived). Either way the VC's
//! primary serializes its capsule plus the interpreter's resumable
//! variable state into a [`CapsuleImage`], fragments it into
//! [`Message::CapsuleChunk`] frames, and ships one fragment per
//! dedicated [`crate::runtime::topo::FlowKind::Transfer`] slot with
//! stop-and-wait acknowledgment and retransmission. When the final
//! fragment verifies, the receiver runs the admission gate
//! ([`admit`]: attestation, version monotonicity, capability check, and
//! kernel admission if the task is not yet resident) and resumes the
//! interpreter from the transferred variable file — so
//! failover latency becomes a measured function of image size ×
//! transfer-slot budget (the Fig. 6b axis). Each VC has its own lane,
//! so shipments of different VCs run side by side, at most one per VC.
//!
//! With `transfer_slots == 0` (the default) none of this code runs: no
//! slots carry [`crate::runtime::topo::FlowKind::Transfer`], no frames
//! are emitted, no RNG draws happen. Cold standby therefore requires a
//! lane: setup rejects a cold backup without one
//! ([`super::TopologyError::ColdStandbyWithoutTransferLane`]).

use evm_netsim::NodeId;
use evm_sim::SimTime;

use crate::attest::{capsule_digest, AttestationKey};
use crate::bytecode::N_VARS;
use crate::error::EvmError;
use crate::metrics::MigrationRecord;
use crate::migration::{admit, chunk_capacity, CapsuleImage};
use crate::runtime::behaviors::REPLICA_CAPS;
use crate::runtime::driver::Engine;
use crate::runtime::topo::VcId;
use crate::runtime::Message;

/// One capsule shipment in flight: a stop-and-wait state machine over
/// its VC's transfer lane. Sender and receiver sides share this record
/// (the engine owns both ends of the simulated link).
#[derive(Debug, Clone)]
pub(super) struct ActiveTransfer {
    /// The migrating Virtual Component.
    pub vc: VcId,
    /// Shipping node (owns the transfer slots).
    pub src: NodeId,
    /// Receiving node: the newly elected head, or the cold backup being
    /// promoted.
    pub dst: NodeId,
    /// The suspect a cold-standby promotion replaces: the head commits
    /// the failover `suspect -> dst` once the capsule is active on
    /// `dst`. `None` for a head re-election.
    pub promote: Option<NodeId>,
    /// The serialized capsule + interpreter state.
    pub image: CapsuleImage,
    /// Total fragments the image splits into.
    pub total: usize,
    /// Next fragment the receiver expects (== fragments verified).
    pub next_chunk: usize,
    /// The current fragment was transmitted and awaits its ack.
    pub awaiting_ack: bool,
    /// Retransmissions already spent on the current fragment.
    pub retries_this_chunk: usize,
    /// Frames put on the air so far, retransmissions included.
    pub frames_sent: usize,
    /// Retransmissions across the whole shipment.
    pub retries: usize,
    /// When the shipment started (for the failover-latency record).
    pub started_at: SimTime,
    /// Scripted one-shot in-flight corruption still pending (fragment
    /// sequence number).
    pub corrupt_pending: Option<usize>,
}

/// What a delivered fragment did to the transfer state machine.
enum ChunkOutcome {
    /// Not addressed to this transfer (overheard, stale, duplicate).
    Ignore,
    /// Scripted corruption consumed the fragment; no ack goes back.
    Corrupted(usize),
    /// Fragment verified but the ack was lost; the sender will re-send.
    AckLost(usize),
    /// Fragment verified and acked; more to come.
    Advance,
    /// The final fragment verified — run the admission gate.
    Complete,
}

impl Engine {
    /// Starts a live capsule shipment for `vc` toward `dst` (the newly
    /// elected head, or with `promote = Some(suspect)` the cold backup
    /// replacing `suspect`): validates the component's transfer
    /// relationships, bumps the authoritative capsule version (receivers
    /// only accept upgrades), snapshots the primary's interpreter state
    /// and computes the advertised digest the receiver will attest
    /// against. Returns whether a shipment started: not when the
    /// scenario reserved no transfer slots, the VC's lane is busy, the
    /// primary is down or is `dst` itself, or no transfer relationship
    /// permits the move.
    pub(super) fn start_capsule_transfer(
        &mut self,
        vc: VcId,
        dst: NodeId,
        promote: Option<NodeId>,
    ) -> bool {
        if self.run.scenario.transfer_slots == 0 {
            return false;
        }
        if self.run.xfer.iter().any(|x| x.vc == vc) {
            self.run.trace.log(
                self.run.now,
                "migrate",
                "transfer lane busy; capsule migration skipped",
            );
            return false;
        }
        let Some(&src) = self.run.vcs.vc(vc).controllers.first() else {
            return false;
        };
        if src == dst || !self.alive(src) {
            return false;
        }
        // The Virtual Component is *defined* by its object-transfer
        // relationships: a shipment the records do not permit never
        // starts.
        let permitted = self.run.components[vc as usize]
            .transfers()
            .iter()
            .any(|t| t.permits(src, dst, self.run.now, true));
        let (src_label, dst_label) = (self.label_of(src), self.label_of(dst));
        if !permitted {
            self.run.trace.log(
                self.run.now,
                "migrate",
                format!("no transfer relationship {src_label} -> {dst_label}; migration refused"),
            );
            return false;
        }
        let Some(vars) = self.controller(src).map(|c| c.snapshot_vars()) else {
            return false;
        };
        // Receivers only accept strict upgrades, so every shipment is a
        // new version of the authoritative capsule.
        self.run.vc_capsules[vc as usize].1 += 1;
        let mut shipped = self.vc_capsule(vc);
        let advertised_digest = capsule_digest(&shipped, AttestationKey::for_vc(vc));
        if self.run.scenario.tamper_gas_budget {
            // Scripted attack: inflate the WCET budget *after* the digest
            // was advertised — arrival attestation must catch this.
            shipped.gas_budget = shipped.gas_budget.saturating_mul(16).max(1);
        }
        let image = CapsuleImage {
            capsule: shipped,
            vars: vars.to_vec(),
            advertised_digest,
            pad_bytes: self.run.scenario.capsule_pad_bytes,
        };
        let total = image.frames();
        self.run.trace.log(
            self.run.now,
            "migrate",
            format!(
                "capsule v{} ({} B, {total} frames) {src_label} -> {dst_label}: transfer started",
                image.capsule.version,
                image.size_bytes(),
            ),
        );
        self.run.xfer.push(ActiveTransfer {
            vc,
            src,
            dst,
            promote,
            image,
            total,
            next_chunk: 0,
            awaiting_ack: false,
            retries_this_chunk: 0,
            frames_sent: 0,
            retries: 0,
            started_at: self.run.now,
            corrupt_pending: self.run.scenario.corrupt_transfer_chunk,
        });
        true
    }

    /// Abandons every shipment whose shipping node is down: its slots
    /// stay silent, so its retry budget would never run out and the
    /// VC's lane would stay busy for good. A promotion left without a
    /// source engages the VC's fail-safe, like one that cannot start.
    pub(super) fn drop_orphaned_transfers(&mut self) {
        while let Some(i) = self.run.xfer.iter().position(|x| !self.alive(x.src)) {
            let xfer = self.run.xfer.swap_remove(i);
            let (src_label, dst_label) = (self.label_of(xfer.src), self.label_of(xfer.dst));
            self.run.trace.log(
                self.run.now,
                "migrate",
                format!("transfer {src_label} -> {dst_label} abandoned: {src_label} is down"),
            );
            if let (Some(suspect), Some(head)) = (xfer.promote, self.run.vcs.vc(xfer.vc).head) {
                self.engage_fail_safe(xfer.vc, head, suspect);
            }
        }
    }

    /// What `owner` transmits in a [`FlowKind::Transfer`] slot for `vc`:
    /// the current fragment of the in-flight shipment (a retransmission
    /// if the previous copy went unacked), or nothing when the lane is
    /// idle. A fragment that exhausts its retransmission budget abandons
    /// the whole shipment with a [`EvmError::MigrationTimeout`] trace —
    /// the budget is checked *before* booking another retry, so a
    /// shipment with budget `n` sends each fragment at most `n + 1`
    /// times. An abandoned promotion releases the head's pending
    /// decision, so the next alert re-arbitrates.
    ///
    /// [`FlowKind::Transfer`]: crate::runtime::topo::FlowKind::Transfer
    pub(super) fn take_transfer_chunk(&mut self, vc: VcId, owner: NodeId) -> Option<Message> {
        let i = self.run.xfer.iter().position(|x| x.vc == vc)?;
        let give_up = {
            let xfer = &mut self.run.xfer[i];
            if xfer.src != owner || xfer.next_chunk >= xfer.total {
                return None;
            }
            if xfer.awaiting_ack {
                if xfer.retries_this_chunk >= self.run.scenario.migration_max_retries {
                    true
                } else {
                    xfer.retries_this_chunk += 1;
                    xfer.retries += 1;
                    false
                }
            } else {
                false
            }
        };
        if give_up {
            let xfer = self.run.xfer.swap_remove(i);
            let (src_label, dst_label) = (self.label_of(xfer.src), self.label_of(xfer.dst));
            let err = EvmError::MigrationTimeout {
                frames_remaining: xfer.total - xfer.next_chunk,
                retries: xfer.retries,
            };
            self.run.trace.log(
                self.run.now,
                "migrate",
                format!("transfer {src_label} -> {dst_label} abandoned: {err}"),
            );
            if xfer.promote.is_some() {
                self.release_head_decision(vc);
            }
            return None;
        }
        let xfer = &mut self.run.xfer[i];
        let seq = xfer.next_chunk;
        let len = (xfer.image.size_bytes() - seq * chunk_capacity()).min(chunk_capacity());
        xfer.awaiting_ack = true;
        xfer.frames_sent += 1;
        Some(Message::CapsuleChunk {
            vc,
            seq: u16::try_from(seq).expect("fragment count fits u16"),
            total: u16::try_from(xfer.total).expect("fragment count fits u16"),
            len: u8::try_from(len).expect("chunk capacity fits u8"),
        })
    }

    /// A [`Message::CapsuleChunk`] landed on `to`: advance the
    /// stop-and-wait machine. Only the addressed receiver's copy of the
    /// expected fragment counts — every other listener overhears and
    /// drops it. The ack back to the sender crosses the same lossy
    /// medium, so it is subject to the scenario's extra loss too; a lost
    /// ack leaves the fragment unacknowledged and the sender re-sends it
    /// (the receiver-side duplicate is then ignored by the `seq` check).
    pub(super) fn on_chunk_delivered(&mut self, to: NodeId, from: NodeId, vc: VcId, seq: u16) {
        let Some(i) = self.run.xfer.iter().position(|x| x.vc == vc) else {
            return;
        };
        let outcome = {
            let xfer = &mut self.run.xfer[i];
            let seq = usize::from(seq);
            if xfer.src != from || xfer.dst != to || seq != xfer.next_chunk {
                ChunkOutcome::Ignore
            } else if xfer.corrupt_pending == Some(seq) {
                xfer.corrupt_pending = None;
                ChunkOutcome::Corrupted(seq)
            } else if self.run.rng.chance(self.run.scenario.extra_loss) {
                ChunkOutcome::AckLost(seq)
            } else {
                xfer.next_chunk += 1;
                xfer.awaiting_ack = false;
                xfer.retries_this_chunk = 0;
                if xfer.next_chunk == xfer.total {
                    ChunkOutcome::Complete
                } else {
                    ChunkOutcome::Advance
                }
            }
        };
        match outcome {
            ChunkOutcome::Ignore | ChunkOutcome::Advance => {}
            ChunkOutcome::Corrupted(seq) => {
                // The fragment CRC fails on a corrupted copy, so the
                // receiver drops it without acking — the sender's
                // retransmission, not this copy, gets activated.
                let dst_label = self.label_of(to);
                self.run.trace.log(
                    self.run.now,
                    "migrate",
                    format!("chunk {seq} corrupted in flight; {dst_label} dropped it unacked"),
                );
            }
            ChunkOutcome::AckLost(seq) => {
                self.run.trace.log(
                    self.run.now,
                    "migrate",
                    format!("chunk {seq} ack lost; sender will retransmit"),
                );
            }
            ChunkOutcome::Complete => self.finish_transfer(i),
        }
    }

    /// All fragments of shipment `i` verified: run the admission gate
    /// (attestation → version monotonicity → capability check → kernel
    /// admission for hosts without the resident task), then resume
    /// the interpreter from the transferred variable file. A promotion
    /// then commits its failover. A rejection at any gate leaves the
    /// receiver's resident state untouched and, for a promotion,
    /// releases the head's pending decision.
    fn finish_transfer(&mut self, i: usize) {
        let xfer = self.run.xfer.swap_remove(i);
        let dst_label = self.label_of(xfer.dst);
        if let Err(reason) = self.activate_arrival(&xfer) {
            self.run
                .trace
                .log(self.run.now, "migrate", format!("{dst_label} {reason}"));
            if xfer.promote.is_some() {
                self.release_head_decision(xfer.vc);
            }
            return;
        }
        let latency = self.run.now.saturating_since(xfer.started_at);
        self.run.trace.log(
            self.run.now,
            "migrate",
            format!(
                "capsule v{} attested and activated on {dst_label} \
                 ({} B in {} frames, {} retries, {:.3} s)",
                xfer.image.capsule.version,
                xfer.image.size_bytes(),
                xfer.frames_sent,
                xfer.retries,
                latency.as_secs_f64(),
            ),
        );
        self.run.migrations.push(MigrationRecord {
            vc: xfer.vc,
            from: xfer.src,
            to: xfer.dst,
            image_bytes: xfer.image.size_bytes(),
            frames: xfer.total,
            frames_sent: xfer.frames_sent,
            retries: xfer.retries,
            latency,
        });
        if let Some(suspect) = xfer.promote {
            self.commit_failover(xfer.dst, suspect);
        }
    }

    /// The gates of [`Engine::finish_transfer`] in order, and on success
    /// the activation itself; on rejection, what the trace reports after
    /// the receiver's label.
    fn activate_arrival(&mut self, xfer: &ActiveTransfer) -> Result<(), String> {
        let core = self
            .controller_mut(xfer.dst)
            .ok_or("hosts no replica core; capsule dropped")?;
        let period = core.period();
        admit(
            &xfer.image.capsule,
            xfer.image.advertised_digest,
            AttestationKey::for_vc(xfer.vc),
            xfer.dst,
            &REPLICA_CAPS,
            core.capsule_version,
            core.kernel_mut(),
            period,
        )
        .map_err(|e| match e {
            EvmError::AdmissionRefused { .. } => {
                "kernel refused the migrated task (admission)".to_string()
            }
            e => format!("rejected capsule v{}: {e}", xfer.image.capsule.version),
        })?;
        let mut vars = [0.0f64; N_VARS];
        for (slot, v) in vars.iter_mut().zip(&xfer.image.vars) {
            *slot = *v;
        }
        core.restore_vars(vars);
        core.capsule_version = Some(xfer.image.capsule.version);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use evm_netsim::NodeId;
    use evm_sim::{SimDuration, SimTime};

    use crate::runtime::{Engine, ReroutePolicy, ScenarioBuilder};

    /// A head re-election under warm standby ships v2 onto Ctrl-B, which
    /// already hosts the v1 task: the gate upgrades the resident capsule
    /// and the kernel still holds exactly one focus task.
    #[test]
    fn migration_onto_a_warm_replica_admits_no_second_task() {
        let s = ScenarioBuilder::star()
            .line(2)
            .sensors(1)
            .controllers(3)
            .actuators(1)
            .head(true)
            .backup_relays(1)
            .reroute(ReroutePolicy::Heartbeat)
            .crash_node_at(NodeId(6), SimTime::from_secs(30))
            .reconfig_epoch(SimDuration::ZERO)
            .transfer_slots(2)
            .build();
        let new_head = NodeId(3);
        let mut engine = Engine::new(s);
        let before = engine
            .controller(new_head)
            .expect("Ctrl-B")
            .kernel()
            .tcbs()
            .to_vec();
        assert_eq!(before.len(), 1, "a warm replica boots with its task");
        engine.run_until(SimTime::from_secs(60));
        assert_eq!(engine.run.migrations.len(), 1, "the re-election migrated");
        let core = engine.controller(new_head).expect("Ctrl-B heads now");
        assert_eq!(core.capsule_version, Some(2));
        assert_eq!(
            core.kernel().tcbs(),
            &before[..],
            "one focus task, unchanged"
        );
    }
}
