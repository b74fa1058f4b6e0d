//! Radio energy accounting.
//!
//! The FireFly node's energy budget is dominated by the CC2420 radio; the
//! paper's MAC comparison (RT-Link vs B-MAC vs S-MAC) is entirely a story
//! about how long the radio spends in each state. [`EnergyMeter`] integrates
//! state × time × current into consumed charge, which [`crate::Battery`]
//! converts into lifetime.

use std::fmt;

use evm_sim::{SimDuration, SimTime};

/// Operating state of the radio (plus the MCU sleep state, which gates the
/// floor current).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum RadioState {
    /// Transmitting.
    Tx,
    /// Actively receiving a frame.
    Rx,
    /// Listening / clear-channel assessment (same draw as Rx on CC2420).
    Listen,
    /// Radio off, MCU awake.
    Idle,
    /// Deep sleep (radio off, MCU asleep, clocks on).
    Sleep,
}

impl RadioState {
    /// All states, for iteration in reports.
    pub const ALL: [RadioState; 5] = [
        RadioState::Tx,
        RadioState::Rx,
        RadioState::Listen,
        RadioState::Idle,
        RadioState::Sleep,
    ];
}

impl fmt::Display for RadioState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            RadioState::Tx => "tx",
            RadioState::Rx => "rx",
            RadioState::Listen => "listen",
            RadioState::Idle => "idle",
            RadioState::Sleep => "sleep",
        };
        f.write_str(s)
    }
}

/// Current draw per radio state, in milliamps.
#[derive(Debug, Clone, PartialEq)]
pub struct RadioPowerModel {
    /// Transmit current at the configured power, mA.
    pub tx_ma: f64,
    /// Receive current, mA.
    pub rx_ma: f64,
    /// Listen / CCA current, mA.
    pub listen_ma: f64,
    /// Radio-off MCU-on current, mA.
    pub idle_ma: f64,
    /// Deep-sleep current, mA.
    pub sleep_ma: f64,
}

impl RadioPowerModel {
    /// CC2420 at 0 dBm on a FireFly-class node (datasheet + platform
    /// figures): TX 17.4 mA, RX/listen 19.7 mA, MCU-on floor 1.1 mA,
    /// deep sleep 10 µA.
    #[must_use]
    pub fn cc2420() -> Self {
        RadioPowerModel {
            tx_ma: 17.4,
            rx_ma: 19.7,
            listen_ma: 19.7,
            idle_ma: 1.1,
            sleep_ma: 0.010,
        }
    }

    /// Current for a state, mA.
    #[must_use]
    pub fn current_ma(&self, state: RadioState) -> f64 {
        match state {
            RadioState::Tx => self.tx_ma,
            RadioState::Rx => self.rx_ma,
            RadioState::Listen => self.listen_ma,
            RadioState::Idle => self.idle_ma,
            RadioState::Sleep => self.sleep_ma,
        }
    }
}

impl Default for RadioPowerModel {
    fn default() -> Self {
        RadioPowerModel::cc2420()
    }
}

/// Integrates radio-state residency into consumed charge.
///
/// Drive it either with explicit durations ([`EnergyMeter::add`]) or as a
/// state machine with timestamps ([`EnergyMeter::transition`]).
///
/// # Example
///
/// ```
/// use evm_netsim::{EnergyMeter, RadioPowerModel, RadioState};
/// use evm_sim::SimDuration;
///
/// let mut m = EnergyMeter::new(RadioPowerModel::cc2420());
/// m.add(RadioState::Rx, SimDuration::from_secs(3600));
/// assert!((m.consumed_mah() - 19.7).abs() < 1e-9);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct EnergyMeter {
    model: RadioPowerModel,
    /// Accumulated time per state, µs (indexed like `RadioState::ALL`).
    state_us: [u64; 5],
    /// Current state and the time it was entered, when driven as a state
    /// machine.
    current: Option<(RadioState, SimTime)>,
}

fn state_index(s: RadioState) -> usize {
    match s {
        RadioState::Tx => 0,
        RadioState::Rx => 1,
        RadioState::Listen => 2,
        RadioState::Idle => 3,
        RadioState::Sleep => 4,
    }
}

impl EnergyMeter {
    /// Creates a meter with the given power model.
    #[must_use]
    pub fn new(model: RadioPowerModel) -> Self {
        EnergyMeter {
            model,
            state_us: [0; 5],
            current: None,
        }
    }

    /// Adds `dur` of residency in `state`.
    pub fn add(&mut self, state: RadioState, dur: SimDuration) {
        self.state_us[state_index(state)] += dur.as_micros();
    }

    /// State-machine driving: enter `state` at time `now`, accounting the
    /// residency in the previous state. The first call only sets the state.
    pub fn transition(&mut self, now: SimTime, state: RadioState) {
        if let Some((prev, since)) = self.current {
            self.add(prev, now.saturating_since(since));
        }
        self.current = Some((state, now));
    }

    /// Closes out the state machine at `now` (accounts the residency of the
    /// last open state without entering a new one).
    pub fn finish(&mut self, now: SimTime) {
        if let Some((prev, since)) = self.current.take() {
            self.add(prev, now.saturating_since(since));
        }
    }

    /// Total accounted time in `state`.
    #[must_use]
    pub fn time_in(&self, state: RadioState) -> SimDuration {
        SimDuration::from_micros(self.state_us[state_index(state)])
    }

    /// Total accounted time across all states.
    #[must_use]
    pub fn total_time(&self) -> SimDuration {
        SimDuration::from_micros(self.state_us.iter().sum())
    }

    /// Consumed charge in mAh.
    #[must_use]
    pub fn consumed_mah(&self) -> f64 {
        RadioState::ALL
            .iter()
            .map(|&s| {
                let hours = self.state_us[state_index(s)] as f64 / 3.6e9;
                self.model.current_ma(s) * hours
            })
            .sum()
    }

    /// Average current over the accounted span, mA. Zero if nothing was
    /// accounted.
    #[must_use]
    pub fn average_current_ma(&self) -> f64 {
        let total_h = self.total_time().as_secs_f64() / 3600.0;
        if total_h == 0.0 {
            0.0
        } else {
            self.consumed_mah() / total_h
        }
    }

    /// Fraction of accounted time with the radio active (TX/RX/listen).
    #[must_use]
    pub fn radio_duty_cycle(&self) -> f64 {
        let total = self.total_time().as_micros();
        if total == 0 {
            return 0.0;
        }
        let active = self.state_us[0] + self.state_us[1] + self.state_us[2];
        active as f64 / total as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn charge_accumulates_per_state() {
        let mut m = EnergyMeter::new(RadioPowerModel::cc2420());
        m.add(RadioState::Tx, SimDuration::from_secs(1800)); // 0.5 h
        m.add(RadioState::Sleep, SimDuration::from_secs(1800));
        let expect = 17.4 * 0.5 + 0.010 * 0.5;
        assert!((m.consumed_mah() - expect).abs() < 1e-9);
        assert!((m.average_current_ma() - expect).abs() < 1e-9);
    }

    #[test]
    fn state_machine_driving() {
        let mut m = EnergyMeter::new(RadioPowerModel::cc2420());
        m.transition(SimTime::ZERO, RadioState::Listen);
        m.transition(SimTime::from_secs(10), RadioState::Sleep);
        m.finish(SimTime::from_secs(100));
        assert_eq!(m.time_in(RadioState::Listen), SimDuration::from_secs(10));
        assert_eq!(m.time_in(RadioState::Sleep), SimDuration::from_secs(90));
        assert!((m.radio_duty_cycle() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn duty_cycle_counts_only_radio_states() {
        let mut m = EnergyMeter::new(RadioPowerModel::cc2420());
        m.add(RadioState::Tx, SimDuration::from_secs(1));
        m.add(RadioState::Rx, SimDuration::from_secs(1));
        m.add(RadioState::Idle, SimDuration::from_secs(2));
        assert!((m.radio_duty_cycle() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn empty_meter_is_zero() {
        let m = EnergyMeter::new(RadioPowerModel::cc2420());
        assert_eq!(m.consumed_mah(), 0.0);
        assert_eq!(m.average_current_ma(), 0.0);
        assert_eq!(m.radio_duty_cycle(), 0.0);
    }

    #[test]
    fn model_currents_exposed() {
        let model = RadioPowerModel::cc2420();
        assert_eq!(model.current_ma(RadioState::Rx), model.rx_ma);
        assert!(model.current_ma(RadioState::Sleep) < model.current_ma(RadioState::Idle));
    }
}
