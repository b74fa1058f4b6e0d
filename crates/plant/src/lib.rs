//! Process-plant simulator: the UniSim substitute.
//!
//! The paper evaluates the EVM against a Honeywell UniSim model of a
//! natural-gas processing plant (Fig. 4): raw gas with N₂, CO₂ and C₁–nC₄
//! is chilled by propane refrigeration, heavy hydrocarbons condense in a
//! low-temperature separator (LTS), and the liquids are stabilized in a
//! depropanizer column. This crate rebuilds that plant from first
//! principles:
//!
//! * [`thermo`] — component properties, Wilson K-values and Rachford–Rice
//!   flash,
//! * [`stream`] — material streams (flow, temperature, pressure,
//!   composition),
//! * [`blocks`] — separators with level dynamics, gas/gas exchanger,
//!   propane chiller, valves with actuator lag, mixer, and a shortcut
//!   depropanizer,
//! * [`pid`] — PID regulators with the paper's second-order input filter,
//! * [`gasplant`] — the Fig. 4 flowsheet, calibrated so the LTS liquid
//!   valve sits at the paper's 11.48 % operating point,
//! * [`control`] — the 8 control loops (4 top-level + 4 depropanizer),
//! * [`modbus`] — the register map the Fig. 5 gateway exposes,
//! * [`faults`] — sensor/actuator/controller fault library.
//!
//! The plant advances with a fixed step (default 100 ms) under explicit
//! Euler integration; all dynamics are smooth and slow relative to that
//! step (valve lags ≥ 2 s, vessel levels minutes).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blocks;
pub mod control;
pub mod faults;
pub mod gasplant;
pub mod modbus;
pub mod pid;
pub mod stream;
pub mod thermo;

pub use control::{
    lts_level_loop, standard_loops, vc_host_loops, ControlLoopSpec, LocalController, LoopTags,
};
pub use faults::ActuatorFault;
pub use gasplant::{BoundActuator, BoundTag, GasPlant, PlantConfig};
pub use modbus::{BoundHolding, BoundInput, ModbusError, RegisterMap};
pub use pid::{PidController, PidParams, SecondOrderFilter};
pub use stream::Stream;
pub use thermo::{flash, Component, Composition, FlashResult, N_COMPONENTS};

/// A process simulation that exposes named tags for sensors and actuators.
///
/// This is the boundary the ModBus gateway (and therefore the wireless
/// network) sees: read a process variable, write an actuator command.
pub trait Plant {
    /// Advances the plant by `dt` seconds.
    fn step(&mut self, dt: f64);

    /// Reads a published tag (process variables and actuator read-backs).
    fn read_tag(&self, tag: &str) -> Option<f64>;

    /// Writes a writable (actuator) tag.
    ///
    /// # Errors
    ///
    /// Returns `Err` if the tag does not exist or is read-only.
    fn write_tag(&mut self, tag: &str, value: f64) -> Result<(), String>;

    /// All published tag names.
    fn tags(&self) -> Vec<String>;
}
