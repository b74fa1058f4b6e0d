//! Task migration (§3.1.1 op 1, §4).
//!
//! "This operation includes a capabilities check and the migration of the
//! task control block, stack, data and timing/precedence-related
//! metadata." A [`CapsuleImage`] is that unit: the runtime's transfer
//! plane fragments it into RT-Link frames, ships one per owned transfer
//! slot with per-frame acknowledgment and retransmission, and activates
//! the task on the target only after the final chunk verifies and
//! [`admit_arrival`] passes. Both migrations the runtime performs — the
//! capsule hand-off to a re-elected head and the promotion of a cold
//! standby backup — take this one path.

use evm_netsim::frame::{frames_needed, max_payload};
use evm_netsim::NodeId;
use evm_rtos::TaskImage;

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

/// The arrival gate (§3.1.1 ops 1+8): every capsule that lands on a host
/// passes, in order, (1) attestation — transport integrity and keyed
/// digest, (2) version monotonicity — receivers only accept upgrades,
/// (3) the capability check against what the host actually provides.
/// Kernel admission (the schedulability test) runs separately after this
/// gate — see `evm_rtos::Kernel::admit`.
///
/// # Errors
///
/// [`EvmError::AttestationFailed`], [`EvmError::StaleCapsule`] or
/// [`EvmError::MissingCapability`] naming the first check that failed.
pub fn admit_arrival(
    capsule: &Capsule,
    advertised_digest: u64,
    resident_version: Option<u16>,
    host_caps: &[Capability],
    host: NodeId,
    key: AttestationKey,
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
    for cap in &capsule.capabilities {
        if !host_caps.contains(cap) {
            return Err(EvmError::MissingCapability {
                node: host,
                capability: cap.to_string(),
            });
        }
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

    #[test]
    fn arrival_gate_accepts_genuine_upgrade() {
        let c = shipped_capsule(2);
        let digest = capsule_digest(&c, KEY);
        assert_eq!(
            admit_arrival(&c, digest, Some(1), &host_caps(), HOST, KEY),
            Ok(())
        );
        // Cold targets (no resident capsule) accept any version.
        assert_eq!(
            admit_arrival(&c, digest, None, &host_caps(), HOST, KEY),
            Ok(())
        );
    }

    #[test]
    fn arrival_gate_rejects_same_or_older_version() {
        let c = shipped_capsule(2);
        let digest = capsule_digest(&c, KEY);
        assert_eq!(
            admit_arrival(&c, digest, Some(2), &host_caps(), HOST, KEY),
            Err(EvmError::StaleCapsule {
                incoming: 2,
                resident: 2
            }),
            "same version is not an upgrade"
        );
        assert_eq!(
            admit_arrival(&c, digest, Some(5), &host_caps(), HOST, KEY),
            Err(EvmError::StaleCapsule {
                incoming: 2,
                resident: 5
            })
        );
    }

    #[test]
    fn arrival_gate_rejects_tampered_gas_budget() {
        let mut c = shipped_capsule(2);
        let digest = capsule_digest(&c, KEY);
        c.gas_budget *= 16; // inflate the WCET budget after digesting
        let err = admit_arrival(&c, digest, None, &host_caps(), HOST, KEY).unwrap_err();
        assert!(matches!(err, EvmError::AttestationFailed { .. }));
    }

    #[test]
    fn arrival_gate_rejects_corrupted_code() {
        let c = shipped_capsule(2);
        let digest = capsule_digest(&c, KEY);
        let bad = c.corrupted(2, 1).expect("still decodes");
        let err = admit_arrival(&bad, digest, None, &host_caps(), HOST, KEY).unwrap_err();
        assert!(matches!(err, EvmError::AttestationFailed { .. }));
    }

    #[test]
    fn arrival_gate_checks_host_capabilities() {
        let c = shipped_capsule(2);
        let digest = capsule_digest(&c, KEY);
        let err = admit_arrival(
            &c,
            digest,
            None,
            &[Capability::DataPlane], // host lacks ControllerRole
            HOST,
            KEY,
        )
        .unwrap_err();
        assert_eq!(
            err,
            EvmError::MissingCapability {
                node: HOST,
                capability: Capability::ControllerRole.to_string(),
            }
        );
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
