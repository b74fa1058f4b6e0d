//! Task migration (§3.1.1 op 1, §4).
//!
//! "This operation includes a capabilities check and the migration of the
//! task control block, stack, data and timing/precedence-related
//! metadata." A [`CapsuleImage`] is that unit: the runtime's transfer
//! plane fragments it into RT-Link frames, ships one per owned transfer
//! slot with per-frame acknowledgment and retransmission, and activates
//! the task on the target only after the final chunk verifies and
//! [`admit`] passes. Both migrations the runtime performs — the capsule
//! hand-off to a re-elected head and the promotion of a cold standby
//! backup — take this one path, and setup admits every law's boot
//! capsule through the same gate.

use evm_netsim::frame::{frames_needed, max_payload};
use evm_netsim::NodeId;
use evm_rtos::{Kernel, TaskImage, TaskSpec};
use evm_sim::SimDuration;

use crate::attest::{attest_capsule, AttestationKey};
use crate::bytecode::{Capability, Capsule};
use crate::error::EvmError;

/// The serialized form of a live capsule in flight between hosts: the
/// versioned code unit, the interpreter's resumable variable state, and
/// the digest its sender advertised for arrival attestation. This is what
/// the runtime chunks into [`crate::runtime::Message::CapsuleChunk`]
/// frames over the epoch's transfer slots.
#[derive(Debug, Clone, PartialEq)]
pub struct CapsuleImage {
    /// The code unit being shipped.
    pub capsule: Capsule,
    /// Snapshot of the interpreter's variable file (resumable state).
    pub vars: Vec<f64>,
    /// Keyed digest the sender computed under the component key.
    pub advertised_digest: u64,
    /// Extra payload bytes riding along (checkpoint blobs, logs —
    /// the sweepable image-size knob).
    pub pad_bytes: usize,
}

/// Serialized metadata overhead: id, version, gas budget, capability
/// list, CRC, digest.
const IMAGE_METADATA_BYTES: usize = 32;

/// Fragment header riding in every `CapsuleChunk` frame (seq, total,
/// len) — the image bytes per frame are the radio payload minus this.
pub const CHUNK_HEADER_BYTES: usize = 7;

/// Image bytes one transfer-slot frame can carry.
#[must_use]
pub fn chunk_capacity() -> usize {
    max_payload() - CHUNK_HEADER_BYTES
}

impl CapsuleImage {
    /// Total bytes that must cross the network.
    #[must_use]
    pub fn size_bytes(&self) -> usize {
        self.capsule.code_size_bytes() + self.vars.len() * 8 + IMAGE_METADATA_BYTES + self.pad_bytes
    }

    /// Frames required at the radio's chunk capacity (payload minus the
    /// fragment header).
    #[must_use]
    pub fn frames(&self) -> usize {
        frames_needed(self.size_bytes(), chunk_capacity())
    }

    /// The kernel-facing task image: what the receiving node's admission
    /// test sees (registers + stack hold code and padding, the data
    /// section holds the variable file).
    #[must_use]
    pub fn task_image(&self) -> TaskImage {
        TaskImage::with_sizes(
            32,
            self.capsule.code_size_bytes() + self.pad_bytes,
            self.vars.len() * 8,
            IMAGE_METADATA_BYTES,
        )
    }
}

/// The admission gate (§3.1.1 ops 1, 6 and 8), the one every capsule
/// passes to land on a host, at deployment and on every migration alike.
/// In order:
///
/// 1. attestation: transport integrity and the keyed digest,
/// 2. version monotonicity: a host only accepts a strict upgrade over its
///    `resident_version`,
/// 3. the capability check against what the host provides,
/// 4. kernel admission of the capsule's task, with WCET = the kernel's
///    instruction cost × the gas budget, at `period` (reserves plus the
///    schedulability test). It runs only when no capsule is resident,
///    since a resident one already holds the task's reservation.
///
/// # Errors
///
/// [`EvmError::AttestationFailed`], [`EvmError::StaleCapsule`],
/// [`EvmError::MissingCapability`] or [`EvmError::AdmissionRefused`],
/// naming the first step that failed. The kernel is unchanged on error.
#[allow(clippy::too_many_arguments)]
pub fn admit(
    capsule: &Capsule,
    advertised_digest: u64,
    key: AttestationKey,
    host: NodeId,
    host_caps: &[Capability],
    resident_version: Option<u16>,
    kernel: &mut Kernel,
    period: SimDuration,
) -> Result<(), EvmError> {
    let report = attest_capsule(capsule, advertised_digest, key);
    if !report.passed() {
        let reason = match (report.integrity_ok, report.digest_ok) {
            (false, _) => "code CRC mismatch (corrupted in transit)",
            (true, false) => "keyed digest mismatch (tampered or wrong key)",
            _ => unreachable!("passed() was false"),
        };
        return Err(EvmError::AttestationFailed {
            reason: reason.to_string(),
        });
    }
    if let Some(resident) = resident_version {
        if capsule.version <= resident {
            return Err(EvmError::StaleCapsule {
                incoming: capsule.version,
                resident,
            });
        }
    }
    if let Some(missing) = capsule.capabilities.iter().find(|c| !host_caps.contains(c)) {
        return Err(EvmError::MissingCapability {
            node: host,
            capability: missing.to_string(),
        });
    }
    if resident_version.is_none() {
        let wcet = kernel.instr_cost() * capsule.gas_budget;
        let spec = TaskSpec::new(capsule.id.to_string(), wcet, period);
        kernel
            .admit(spec, TaskImage::typical_control_task(), None)
            .map_err(|e| EvmError::AdmissionRefused {
                node: host,
                reason: e.to_string(),
            })?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attest::capsule_digest;
    use crate::bytecode::{CapsuleId, Op, Program};

    const KEY: AttestationKey = AttestationKey(0x0DD5_EED5);
    const HOST: NodeId = NodeId(3);
    const PERIOD: SimDuration = SimDuration::from_millis(250);

    fn host_caps() -> Vec<Capability> {
        vec![Capability::ControllerRole, Capability::DataPlane]
    }

    fn shipped_capsule(version: u16) -> Capsule {
        Capsule::new(
            CapsuleId(1),
            version,
            Program::new(vec![Op::Push(1.0), Op::WriteActuator(0), Op::Halt]),
            64,
            host_caps(),
        )
    }

    /// A kernel holding the version-1 capsule's task, as a warm replica's
    /// does.
    fn warm_kernel() -> Kernel {
        let c = shipped_capsule(1);
        let mut kernel = Kernel::new("warm");
        admit(
            &c,
            capsule_digest(&c, KEY),
            KEY,
            HOST,
            &host_caps(),
            None,
            &mut kernel,
            PERIOD,
        )
        .unwrap();
        kernel
    }

    /// A kernel saturated by a 240 ms task at the capsule's period.
    fn full_kernel() -> Kernel {
        let mut kernel = Kernel::new("full");
        let hog = TaskSpec::new("hog", SimDuration::from_millis(240), PERIOD);
        kernel
            .admit(hog, TaskImage::typical_control_task(), None)
            .unwrap();
        kernel
    }

    fn attestation(reason: &str) -> EvmError {
        EvmError::AttestationFailed {
            reason: reason.to_string(),
        }
    }

    /// Name, capsule, advertised digest, host capabilities, resident
    /// version, host kernel, expected outcome.
    type Row<'a> = (
        &'a str,
        &'a Capsule,
        u64,
        &'a [Capability],
        Option<u16>,
        Kernel,
        Result<(), EvmError>,
    );

    /// One row per outcome of the gate. A refused capsule leaves the
    /// kernel's TCBs as they were; an admitted one adds a task only on a
    /// host with nothing resident.
    #[test]
    fn admission_gate_outcomes() {
        let genuine = shipped_capsule(2);
        let digest = capsule_digest(&genuine, KEY);
        let mut inflated = genuine.clone();
        inflated.gas_budget *= 16; // inflate the WCET budget after digesting
        let corrupted = genuine.corrupted(2, 1).expect("still decodes");
        let mut heavy = genuine.clone();
        heavy.gas_budget = 50_000; // 50 ms at 1 us/insn
        let heavy_digest = capsule_digest(&heavy, KEY);
        let caps = host_caps();
        let data_only = [Capability::DataPlane];
        #[rustfmt::skip]
        let rows: [Row<'_>; 8] = [
            ("genuine upgrade, task resident", &genuine, digest, &caps, Some(1), warm_kernel(), Ok(())),
            ("cold target", &genuine, digest, &caps, None, Kernel::new("cold"), Ok(())),
            ("same version", &genuine, digest, &caps, Some(2), warm_kernel(),
                Err(EvmError::StaleCapsule { incoming: 2, resident: 2 })),
            ("older version", &genuine, digest, &caps, Some(5), warm_kernel(),
                Err(EvmError::StaleCapsule { incoming: 2, resident: 5 })),
            ("tampered gas budget", &inflated, digest, &caps, None, Kernel::new("cold"),
                Err(attestation("keyed digest mismatch (tampered or wrong key)"))),
            ("corrupted code", &corrupted, digest, &caps, None, Kernel::new("cold"),
                Err(attestation("code CRC mismatch (corrupted in transit)"))),
            ("missing capability", &genuine, digest, &data_only, None, Kernel::new("cold"),
                Err(EvmError::MissingCapability {
                    node: HOST,
                    capability: Capability::ControllerRole.to_string(),
                })),
            ("over-capacity kernel", &heavy, heavy_digest, &caps, None, full_kernel(),
                Err(EvmError::AdmissionRefused { node: HOST, reason: String::new() })),
        ];
        for (name, capsule, digest, caps, resident, mut kernel, want) in rows {
            let before = kernel.tcbs().to_vec();
            let got = admit(
                capsule,
                digest,
                KEY,
                HOST,
                caps,
                resident,
                &mut kernel,
                PERIOD,
            );
            match (&got, &want) {
                // The kernel's refusal reason is the kernel's to word.
                (
                    Err(EvmError::AdmissionRefused { node, .. }),
                    Err(EvmError::AdmissionRefused {
                        node: want_node, ..
                    }),
                ) => assert_eq!(node, want_node, "{name}"),
                _ => assert_eq!(got, want, "{name}"),
            }
            let added = usize::from(got.is_ok() && resident.is_none());
            assert_eq!(kernel.tcbs().len(), before.len() + added, "{name}");
            if added == 0 {
                assert_eq!(kernel.tcbs(), &before[..], "{name}: TCBs unchanged");
            }
        }
    }

    #[test]
    fn capsule_image_sizes_and_frames() {
        let c = shipped_capsule(1);
        let code = c.code_size_bytes();
        let img = CapsuleImage {
            capsule: c,
            vars: vec![0.0; 32],
            advertised_digest: 0,
            pad_bytes: 0,
        };
        assert_eq!(img.size_bytes(), code + 32 * 8 + 32);
        assert_eq!(img.task_image().size_bytes(), img.size_bytes() + 32);
        let padded = CapsuleImage {
            pad_bytes: 4096,
            ..img.clone()
        };
        assert!(padded.frames() > img.frames());
        assert_eq!(
            img.frames(),
            frames_needed(img.size_bytes(), chunk_capacity())
        );
        assert!(chunk_capacity() < max_payload());
    }
}
