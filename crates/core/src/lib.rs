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
//!   relationship types, and the Virtual Component itself,
//! * [`membership`] — admission, head election and epochs,
//! * [`health`] — output-deviation and heartbeat fault detectors,
//! * [`arbitration`] — new-master selection,
//! * [`migration`] — the TCB + stack + data + metadata transfer protocol,
//! * [`synthesis`] — logical-task → physical-node mapping and the binary
//!   quadratic programming runtime optimizer (§3.1.1 op 7),
//! * [`runtime`] — the co-simulation engine tying the plant, ModBus
//!   gateway, RT-Link network and EVM nodes together: a deterministic
//!   slot-pipeline driver over per-role node behaviors, configured by a
//!   topology DSL (the Fig. 5 testbed is one instance),
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
pub use component::{MemberInfo, VirtualComponent};
pub use error::EvmError;
pub use health::{DeviationDetector, FaultEvidence, HeartbeatMonitor};
pub use membership::{elect_head, HeadCandidate, HeartbeatLedger};
pub use metrics::{MigrationRecord, NodeEnergy, RunAggregate, RunMeta, RunResult, VcRunStats};
pub use migration::{admit_arrival, CapsuleImage, MigrationOutcome, MigrationPlan};
pub use roles::ControllerMode;
pub use runtime::{
    Engine, ReroutePolicy, Scenario, ScenarioBuilder, TopologyError, TopologySpec, VcId, VcMap,
};
pub use synthesis::{Assignment, BqpInstance, SynthesisProblem};
pub use transfers::{FaultResponse, ObjectTransfer};
