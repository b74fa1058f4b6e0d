//! The Embedded Virtual Machine (EVM).
//!
//! This crate is the paper's primary contribution: a distributed runtime
//! abstraction in which control tasks belong to a **Virtual Component** —
//! a logical entity spanning wireless sensor, actuator and controller
//! nodes — rather than to any physical node. The EVM keeps the control law
//! running, within its timeliness and safety envelope, while nodes fail,
//! links drop and the topology changes.
//!
//! Layout:
//!
//! * [`bytecode`] — the FORTH-like interpreter: ISA, stack machine with
//!   gas metering, text assembler, runtime-extensible instruction set,
//!   versioned capsules, and a compiler from PID control-law specs to
//!   bytecode,
//! * [`attest`] — software attestation for received code and data,
//! * [`roles`] / [`transfers`] / [`component`] — controller modes
//!   (Active / Backup / Dormant / Indicator), the five object-transfer
//!   relationship types, and the head's commanded view of a Virtual
//!   Component (controller modes and transfer relationships),
//! * [`membership`] — head election and heartbeat liveness,
//! * [`health`] — output-deviation and heartbeat fault detectors,
//! * [`arbitration`] — new-master selection,
//! * [`migration`] — the capsule image (TCB + stack + data + metadata)
//!   and the one admission gate every capsule passes (attestation,
//!   version, capabilities, kernel admission); the runtime ships the
//!   image for every head re-election and cold-standby promotion alike,
//! * [`synthesis`] — logical-task → physical-node mapping and the binary
//!   quadratic programming runtime optimizer (§3.1.1 op 7),
//! * [`runtime`] — the co-simulation engine tying the plant, ModBus
//!   gateway, RT-Link network and EVM nodes together: a deterministic
//!   slot-pipeline driver over one closed `Node` enum (a variant per
//!   role), configured by a topology DSL (the Fig. 5 testbed is one
//!   instance),
//! * [`metrics`] — QoS metrics extracted from runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod arbitration;
pub mod attest;
pub mod bytecode;
pub mod component;
pub mod error;
pub mod health;
pub mod membership;
pub mod metrics;
pub mod migration;
pub mod roles;
pub mod runtime;
pub mod synthesis;
pub mod transfers;

pub use arbitration::{select_master, Candidate};
pub use attest::{attest_capsule, AttestationKey, AttestationReport};
pub use bytecode::{Capsule, ControlLawSpec, Op, Program, Vm, VmEnv, VmError};
pub use component::VirtualComponent;
pub use error::EvmError;
pub use health::{DeviationDetector, FaultEvidence, HeartbeatMonitor};
pub use membership::{elect_head, HeadCandidate, HeartbeatLedger};
pub use metrics::{
    MigrationRecord, NodeEnergies, NodeEnergy, RunAggregate, RunMeta, RunResult, SeriesSet,
    VcRunStats,
};
pub use migration::{admit, CapsuleImage};
pub use roles::ControllerMode;
pub use runtime::{
    Engine, ReroutePolicy, Scenario, ScenarioBuilder, TopologyError, TopologySpec, VcId, VcMap,
};
pub use synthesis::{Assignment, BqpInstance, SynthesisProblem};
pub use transfers::{FaultResponse, ObjectTransfer};
