//! Umbrella crate for the EVM reproduction.
//!
//! Re-exports every workspace crate under one roof so that examples,
//! integration tests and downstream users can write `use evm::core::...`.
//!
//! The paper reproduced here is:
//!
//! > R. Mangharam and M. Pajic, *Embedded Virtual Machines for Robust
//! > Wireless Control Systems*, Proc. 29th IEEE ICDCS Workshops, 2009.
//!
//! See `ARCHITECTURE.md` for the system inventory and
//! `tests/paper_claims.rs` for the paper-vs-measured record (one test per
//! figure or claim).

#![forbid(unsafe_code)]

pub use evm_core as core;
pub use evm_mac as mac;
pub use evm_netsim as netsim;
pub use evm_plant as plant;
pub use evm_rtos as rtos;
pub use evm_sim as sim;
pub use evm_sweep as sweep;

/// Commonly used items, for `use evm::prelude::*`.
pub mod prelude {
    pub use evm_sim::{EventQueue, SimDuration, SimRng, SimTime, TimeSeries, Trace};
}
