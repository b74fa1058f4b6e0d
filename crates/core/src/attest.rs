//! Software attestation (§3.1.1 op 8).
//!
//! "When new code or data is received by a node from another node, the
//! node executes a basic attestation test to ensure the code/data is not
//! corrupted and passes the schedulability test."
//!
//! Attestation here is two checks and one gate:
//!
//! 1. **integrity** — the capsule CRC matches its code bytes,
//! 2. **authenticity** — a keyed digest over (id, version, code,
//!    gas budget, capabilities) matches, using a pre-shared component key
//!    (64-bit keyed FNV-style mix; a stand-in for the platform's real MAC
//!    primitive with identical protocol behavior),
//! 3. the **schedulability gate** is applied after it by the receiving
//!    kernel, in the same admission gate ([`crate::migration::admit`]) —
//!    attestation passing does not bypass it.

use crate::bytecode::{Capability, Capsule};

/// Pre-shared attestation key of a Virtual Component.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AttestationKey(pub u64);

impl AttestationKey {
    /// The deterministic pre-shared key of Virtual Component `vc`
    /// (deployments provision one key per component; the simulation
    /// derives it from the component index).
    #[must_use]
    pub fn for_vc(vc: u16) -> Self {
        AttestationKey(0x0E5B_0C0D_E000_0000 ^ u64::from(vc).wrapping_mul(0x9E37_79B9_7F4A_7C15))
    }
}

/// Stable wire encoding of one capability for digest purposes: a tag
/// byte plus a port byte (0 for portless capabilities).
fn capability_bytes(cap: &Capability) -> [u8; 2] {
    match cap {
        Capability::SensorPort(p) => [1, *p],
        Capability::ActuatorPort(p) => [2, *p],
        Capability::ControllerRole => [3, 0],
        Capability::DataPlane => [4, 0],
    }
}

/// Outcome of attesting a received capsule.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AttestationReport {
    /// CRC check outcome.
    pub integrity_ok: bool,
    /// Keyed-digest check outcome.
    pub digest_ok: bool,
}

impl AttestationReport {
    /// `true` if the capsule may proceed to the admission gate.
    #[must_use]
    pub fn passed(&self) -> bool {
        self.integrity_ok && self.digest_ok
    }
}

/// Computes the keyed digest of a capsule under `key`.
#[must_use]
pub fn capsule_digest(capsule: &Capsule, key: AttestationKey) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ key.0;
    let mut mix = |byte: u8| {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    };
    for b in capsule.id.0.to_le_bytes() {
        mix(b);
    }
    for b in capsule.version.to_le_bytes() {
        mix(b);
    }
    for b in capsule.program.encode() {
        mix(b);
    }
    // The gas budget is the schedulability-test input and the capability
    // list is the admission-gate input: both must be tamper-evident, or a
    // forged capsule could pass attestation and then inflate its WCET
    // budget or claim ports it was never granted.
    for b in capsule.gas_budget.to_le_bytes() {
        mix(b);
    }
    for cap in &capsule.capabilities {
        for b in capability_bytes(cap) {
            mix(b);
        }
    }
    // Final avalanche.
    h ^= h >> 33;
    h = h.wrapping_mul(0xFF51_AFD7_ED55_8CCD);
    h ^= h >> 33;
    h
}

/// Attests a received capsule against the expected digest its sender
/// advertised (computed under the shared key).
#[must_use]
pub fn attest_capsule(
    capsule: &Capsule,
    advertised_digest: u64,
    key: AttestationKey,
) -> AttestationReport {
    AttestationReport {
        integrity_ok: capsule.integrity_ok(),
        digest_ok: capsule_digest(capsule, key) == advertised_digest,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bytecode::{Capability, Capsule, CapsuleId, Op, Program};

    fn capsule() -> Capsule {
        Capsule::new(
            CapsuleId(1),
            1,
            Program::new(vec![Op::Push(1.0), Op::WriteActuator(0), Op::Halt]),
            32,
            vec![Capability::ActuatorPort(0)],
        )
    }

    const KEY: AttestationKey = AttestationKey(0xDEAD_BEEF_0BAD_F00D);

    #[test]
    fn genuine_capsule_attests() {
        let c = capsule();
        let digest = capsule_digest(&c, KEY);
        let report = attest_capsule(&c, digest, KEY);
        assert!(report.passed());
    }

    #[test]
    fn corrupted_code_fails_both_checks() {
        let c = capsule();
        let digest = capsule_digest(&c, KEY);
        let bad = c.corrupted(1, 3).expect("still decodes");
        let report = attest_capsule(&bad, digest, KEY);
        assert!(!report.integrity_ok || !report.digest_ok);
        assert!(!report.passed());
    }

    #[test]
    fn wrong_key_fails_digest() {
        let c = capsule();
        let digest = capsule_digest(&c, KEY);
        let report = attest_capsule(&c, digest, AttestationKey(42));
        assert!(report.integrity_ok, "CRC is keyless");
        assert!(!report.digest_ok);
        assert!(!report.passed());
    }

    #[test]
    fn version_is_covered_by_digest() {
        let c1 = capsule();
        let mut c2 = capsule();
        c2.version = 2;
        assert_ne!(capsule_digest(&c1, KEY), capsule_digest(&c2, KEY));
    }

    /// Regression: the digest must cover *every* field the admission gate
    /// consumes. A tampered gas budget (the schedulability-test input) or
    /// capability list must flip `digest_ok` even though the CRC — which
    /// only covers code — still passes.
    #[test]
    fn gas_budget_is_covered_by_digest() {
        let c = capsule();
        let digest = capsule_digest(&c, KEY);
        let mut tampered = capsule();
        tampered.gas_budget += 1;
        let report = attest_capsule(&tampered, digest, KEY);
        assert!(report.integrity_ok, "CRC covers code only");
        assert!(!report.digest_ok, "gas tampering must fail the digest");
        assert!(!report.passed());
    }

    #[test]
    fn capabilities_are_covered_by_digest() {
        let c = capsule();
        let digest = capsule_digest(&c, KEY);
        let mut widened = capsule();
        widened.capabilities.push(Capability::ControllerRole);
        let report = attest_capsule(&widened, digest, KEY);
        assert!(report.integrity_ok, "CRC covers code only");
        assert!(
            !report.digest_ok,
            "capability tampering must fail the digest"
        );

        let mut swapped = capsule();
        swapped.capabilities = vec![Capability::ActuatorPort(1)];
        assert_ne!(capsule_digest(&c, KEY), capsule_digest(&swapped, KEY));
    }

    #[test]
    fn every_digested_field_mutation_flips_digest_ok() {
        let reference = capsule_digest(&capsule(), KEY);
        let mutations: Vec<Capsule> = vec![
            {
                let mut c = capsule();
                c.id = CapsuleId(2);
                c
            },
            {
                let mut c = capsule();
                c.version += 1;
                c
            },
            capsule().corrupted(1, 3).expect("still decodes"),
            {
                let mut c = capsule();
                c.gas_budget = 33;
                c
            },
            {
                let mut c = capsule();
                c.capabilities.clear();
                c
            },
        ];
        for m in &mutations {
            let report = attest_capsule(m, reference, KEY);
            assert!(!report.digest_ok, "mutation must be digest-visible: {m:?}");
        }
    }

    #[test]
    fn per_vc_keys_differ() {
        assert_ne!(AttestationKey::for_vc(0), AttestationKey::for_vc(1));
        assert_eq!(AttestationKey::for_vc(3), AttestationKey::for_vc(3));
        let c = capsule();
        assert_ne!(
            capsule_digest(&c, AttestationKey::for_vc(0)),
            capsule_digest(&c, AttestationKey::for_vc(1)),
        );
    }

    #[test]
    fn digest_is_deterministic() {
        assert_eq!(
            capsule_digest(&capsule(), KEY),
            capsule_digest(&capsule(), KEY)
        );
    }
}
