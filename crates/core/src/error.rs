//! Crate-wide error type.

use std::fmt;

use evm_netsim::NodeId;

/// Errors surfaced by EVM operations.
#[derive(Debug, Clone, PartialEq)]
pub enum EvmError {
    /// Bytecode execution failed.
    Vm(crate::bytecode::VmError),
    /// Attestation of received code failed.
    AttestationFailed {
        /// What the verifier reported.
        reason: String,
    },
    /// The target node's kernel refused the task set.
    AdmissionRefused {
        /// The refusing node.
        node: NodeId,
        /// Kernel-level reason.
        reason: String,
    },
    /// A required capability is missing on the target node.
    MissingCapability {
        /// The node lacking the capability.
        node: NodeId,
        /// The capability in question.
        capability: String,
    },
    /// No candidate node could take over.
    NoViableMaster,
    /// A capsule shipment exhausted its per-chunk retry budget.
    MigrationTimeout {
        /// Frames that never got through, *including* the chunk that was
        /// in flight when the retry budget ran out.
        frames_remaining: usize,
        /// Retransmissions actually sent before giving up (the initial
        /// transmission of a chunk is not a retry).
        retries: usize,
    },
    /// A received capsule's version is not a strict upgrade over the
    /// resident one ("receivers only accept upgrades").
    StaleCapsule {
        /// Version carried by the arriving capsule.
        incoming: u16,
        /// Version already resident on the host.
        resident: u16,
    },
    /// Referenced an unknown virtual-component member.
    UnknownMember(NodeId),
}

impl fmt::Display for EvmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            EvmError::Vm(e) => write!(f, "vm error: {e}"),
            EvmError::AttestationFailed { reason } => write!(f, "attestation failed: {reason}"),
            EvmError::AdmissionRefused { node, reason } => {
                write!(f, "admission refused on {node}: {reason}")
            }
            EvmError::MissingCapability { node, capability } => {
                write!(f, "{node} lacks capability {capability}")
            }
            EvmError::NoViableMaster => write!(f, "no viable master candidate"),
            EvmError::MigrationTimeout {
                frames_remaining,
                retries,
            } => {
                write!(
                    f,
                    "migration timed out with {frames_remaining} frames left after {retries} retries"
                )
            }
            EvmError::StaleCapsule { incoming, resident } => {
                write!(
                    f,
                    "capsule v{incoming} rejected: resident v{resident} (receivers only accept upgrades)"
                )
            }
            EvmError::UnknownMember(n) => write!(f, "unknown member {n}"),
        }
    }
}

impl std::error::Error for EvmError {}

impl From<crate::bytecode::VmError> for EvmError {
    fn from(e: crate::bytecode::VmError) -> Self {
        EvmError::Vm(e)
    }
}
