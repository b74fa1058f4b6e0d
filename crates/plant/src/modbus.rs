//! ModBus-style register interface.
//!
//! In Fig. 5 the gateway node talks to UniSim over ModBus. This module
//! reproduces that boundary: plant tags are mapped to 16-bit holding
//! registers with per-tag scaling, so the wireless side exchanges exactly
//! the quantized values a real ModBus gateway would — including the
//! quantization error, which the controllers must tolerate.

use std::collections::BTreeMap;

use crate::gasplant::{BoundActuator, BoundTag, GasPlant};
use crate::Plant;

/// Errors from register operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ModbusError {
    /// No mapping at this register address.
    UnknownRegister(u16),
    /// The register maps to a read-only tag.
    ReadOnly(u16),
    /// The underlying tag vanished (plant reconfiguration).
    TagMissing(String),
}

impl std::fmt::Display for ModbusError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModbusError::UnknownRegister(a) => write!(f, "unknown register {a}"),
            ModbusError::ReadOnly(a) => write!(f, "register {a} is read-only"),
            ModbusError::TagMissing(t) => write!(f, "tag missing: {t}"),
        }
    }
}

impl std::error::Error for ModbusError {}

/// One register's mapping.
#[derive(Debug, Clone, PartialEq)]
struct RegisterEntry {
    tag: String,
    /// Engineering value = raw × scale + offset.
    scale: f64,
    offset: f64,
    writable: bool,
}

/// The 16-bit register word carrying engineering value `v`: rounded,
/// clamped into the u16 range, NaN mapped to 0 by the cast. Every read
/// and write goes through this one quantizer.
fn to_raw(v: f64, scale: f64, offset: f64) -> u16 {
    ((v - offset) / scale)
        .round()
        .clamp(0.0, f64::from(u16::MAX)) as u16
}

/// Engineering value `v` as it arrives after a trip through the wire.
fn quantize(v: f64, scale: f64, offset: f64) -> f64 {
    f64::from(to_raw(v, scale, offset)) * scale + offset
}

/// A register whose tag is a [`GasPlant`] measurement, resolved once by
/// [`RegisterMap::bind_input`]: reads skip the register and tag lookups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundInput {
    tag: BoundTag,
    scale: f64,
    offset: f64,
}

impl BoundInput {
    /// [`RegisterMap::read_scaled`] through the handle: the same
    /// quantized engineering value.
    #[must_use]
    pub fn read(&self, plant: &GasPlant) -> f64 {
        quantize(plant.read_bound(self.tag), self.scale, self.offset)
    }
}

/// A holding register whose tag is a [`GasPlant`] actuator, resolved
/// once by [`RegisterMap::bind_holding`]: writes skip the register and
/// tag lookups.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundHolding {
    act: BoundActuator,
    scale: f64,
    offset: f64,
}

impl BoundHolding {
    /// [`RegisterMap::write_scaled`] through the handle: the command is
    /// quantized through the register exactly as the wire would.
    ///
    /// # Errors
    ///
    /// None in practice: a quantized command is never NaN, the one
    /// value [`GasPlant::write_bound`] refuses.
    pub fn write(&self, plant: &mut GasPlant, value: f64) -> Result<(), String> {
        plant.write_bound(self.act, quantize(value, self.scale, self.offset))
    }
}

/// A ModBus register map over a [`Plant`]'s tags.
#[derive(Debug, Clone, Default)]
pub struct RegisterMap {
    regs: BTreeMap<u16, RegisterEntry>,
}

impl RegisterMap {
    /// Creates an empty map.
    #[must_use]
    pub fn new() -> Self {
        RegisterMap::default()
    }

    /// Maps a read-only (input) register.
    pub fn map_input(&mut self, addr: u16, tag: impl Into<String>, scale: f64, offset: f64) {
        self.regs.insert(
            addr,
            RegisterEntry {
                tag: tag.into(),
                scale,
                offset,
                writable: false,
            },
        );
    }

    /// Maps a writable (holding) register.
    pub fn map_holding(&mut self, addr: u16, tag: impl Into<String>, scale: f64, offset: f64) {
        self.regs.insert(
            addr,
            RegisterEntry {
                tag: tag.into(),
                scale,
                offset,
                writable: true,
            },
        );
    }

    /// Number of mapped registers.
    #[must_use]
    pub fn len(&self) -> usize {
        self.regs.len()
    }

    /// `true` if no registers are mapped.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.regs.is_empty()
    }

    /// The tag behind a register, if mapped.
    #[must_use]
    pub fn tag_of(&self, addr: u16) -> Option<&str> {
        self.regs.get(&addr).map(|e| e.tag.as_str())
    }

    /// The input (read-only) register publishing `tag`, if mapped —
    /// lowest address wins when a tag is mapped twice.
    #[must_use]
    pub fn input_register_of(&self, tag: &str) -> Option<u16> {
        self.regs
            .iter()
            .find(|(_, e)| !e.writable && e.tag == tag)
            .map(|(&addr, _)| addr)
    }

    /// The holding (writable) register commanding `tag`, if mapped —
    /// lowest address wins when a tag is mapped twice.
    #[must_use]
    pub fn holding_register_of(&self, tag: &str) -> Option<u16> {
        self.regs
            .iter()
            .find(|(_, e)| e.writable && e.tag == tag)
            .map(|(&addr, _)| addr)
    }

    /// Resolves register `addr` for reads from `plant`; `None` if it is
    /// unmapped or its tag is not a published measurement (the cases in
    /// which [`RegisterMap::read_scaled`] fails).
    #[must_use]
    pub fn bind_input(&self, plant: &GasPlant, addr: u16) -> Option<BoundInput> {
        let e = self.regs.get(&addr)?;
        Some(BoundInput {
            tag: plant.bind_tag(&e.tag)?,
            scale: e.scale,
            offset: e.offset,
        })
    }

    /// Resolves holding register `addr` for commands to `plant`; `None`
    /// if it is unmapped, read-only, or its tag is not a plant actuator
    /// (the cases in which [`RegisterMap::write_scaled`] fails).
    #[must_use]
    pub fn bind_holding(&self, plant: &GasPlant, addr: u16) -> Option<BoundHolding> {
        let e = self.regs.get(&addr).filter(|e| e.writable)?;
        Some(BoundHolding {
            act: plant.bind_actuator(&e.tag)?,
            scale: e.scale,
            offset: e.offset,
        })
    }

    /// Reads a register: fetches the tag, applies scaling, clamps into the
    /// u16 range.
    ///
    /// # Errors
    ///
    /// [`ModbusError::UnknownRegister`] or [`ModbusError::TagMissing`].
    pub fn read(&self, plant: &dyn Plant, addr: u16) -> Result<u16, ModbusError> {
        let e = self
            .regs
            .get(&addr)
            .ok_or(ModbusError::UnknownRegister(addr))?;
        let v = plant
            .read_tag(&e.tag)
            .ok_or_else(|| ModbusError::TagMissing(e.tag.clone()))?;
        Ok(to_raw(v, e.scale, e.offset))
    }

    /// Reads a register and converts back to engineering units (what the
    /// wireless sensor task publishes).
    ///
    /// # Errors
    ///
    /// Same as [`RegisterMap::read`].
    pub fn read_scaled(&self, plant: &dyn Plant, addr: u16) -> Result<f64, ModbusError> {
        let raw = self.read(plant, addr)?;
        let e = &self.regs[&addr];
        Ok(f64::from(raw) * e.scale + e.offset)
    }

    /// Writes a holding register in engineering units.
    ///
    /// # Errors
    ///
    /// [`ModbusError::UnknownRegister`], [`ModbusError::ReadOnly`], or
    /// [`ModbusError::TagMissing`] if the plant rejects the tag.
    pub fn write_scaled(
        &self,
        plant: &mut dyn Plant,
        addr: u16,
        value: f64,
    ) -> Result<(), ModbusError> {
        let e = self
            .regs
            .get(&addr)
            .ok_or(ModbusError::UnknownRegister(addr))?;
        if !e.writable {
            return Err(ModbusError::ReadOnly(addr));
        }
        // Quantize through the register exactly as the wire would.
        plant
            .write_tag(&e.tag, quantize(value, e.scale, e.offset))
            .map_err(|_| ModbusError::TagMissing(e.tag.clone()))
    }

    /// The standard map for the gas plant: inputs at 30000+, holdings at
    /// 40000+ (conventional ModBus numbering), 0.01 engineering resolution
    /// for percentages and temperatures, 0.1 for flows.
    #[must_use]
    pub fn gas_plant_standard() -> Self {
        let mut m = RegisterMap::new();
        // Inputs (process variables).
        m.map_input(30001, "LTS.LiquidPct", 0.01, 0.0);
        m.map_input(30002, "InletSep.LevelPct", 0.01, 0.0);
        m.map_input(30003, "Chiller.OutletTempK", 0.01, 150.0);
        m.map_input(30004, "SalesGas.MolarFlow", 0.1, 0.0);
        m.map_input(30005, "SepLiq.MolarFlow", 0.1, 0.0);
        m.map_input(30006, "LTSLiq.MolarFlow", 0.1, 0.0);
        m.map_input(30007, "TowerFeed.MolarFlow", 0.1, 0.0);
        m.map_input(30008, "Column.PressureKPa", 0.1, 0.0);
        m.map_input(30009, "Column.SumpLevelPct", 0.01, 0.0);
        m.map_input(30010, "Column.DrumLevelPct", 0.01, 0.0);
        m.map_input(30011, "Column.TrayTempK", 0.01, 250.0);
        m.map_input(30012, "LTSLiqValve.OpeningPct", 0.01, 0.0);
        // Holdings (actuator commands).
        m.map_holding(40001, "SepLiqValve.Cmd", 0.01, 0.0);
        m.map_holding(40002, "LTSLiqValve.Cmd", 0.01, 0.0);
        m.map_holding(40003, "ChillerValve.Cmd", 0.01, 0.0);
        m.map_holding(40004, "SalesValve.Cmd", 0.01, 0.0);
        m.map_holding(40005, "BottomsValve.Cmd", 0.01, 0.0);
        m.map_holding(40006, "DistillateValve.Cmd", 0.01, 0.0);
        m.map_holding(40007, "ReboilerDuty.Cmd", 0.01, 0.0);
        m.map_holding(40008, "CondenserDuty.Cmd", 0.01, 0.0);
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gasplant::GasPlant;

    #[test]
    fn standard_map_covers_all_loops() {
        let m = RegisterMap::gas_plant_standard();
        assert_eq!(m.len(), 20);
        assert_eq!(m.tag_of(30001), Some("LTS.LiquidPct"));
        assert_eq!(m.tag_of(40002), Some("LTSLiqValve.Cmd"));
        assert_eq!(m.tag_of(1), None);
    }

    #[test]
    fn read_roundtrips_within_quantization() {
        let plant = GasPlant::default();
        let m = RegisterMap::gas_plant_standard();
        let direct = plant.read_tag("LTS.LiquidPct").unwrap();
        let via_bus = m.read_scaled(&plant, 30001).unwrap();
        assert!((direct - via_bus).abs() <= 0.01, "{direct} vs {via_bus}");
    }

    #[test]
    fn write_applies_quantized_command() {
        let mut plant = GasPlant::default();
        let m = RegisterMap::gas_plant_standard();
        m.write_scaled(&mut plant, 40002, 75.004).unwrap();
        use crate::Plant;
        for _ in 0..200 {
            plant.step(0.1);
        }
        let opening = plant.read_tag("LTSLiqValve.OpeningPct").unwrap();
        assert!((opening - 75.0).abs() < 0.1, "opening {opening}");
    }

    #[test]
    fn guards_hold() {
        let mut plant = GasPlant::default();
        let m = RegisterMap::gas_plant_standard();
        assert_eq!(
            m.read(&plant, 12345).unwrap_err(),
            ModbusError::UnknownRegister(12345)
        );
        assert_eq!(
            m.write_scaled(&mut plant, 30001, 1.0).unwrap_err(),
            ModbusError::ReadOnly(30001)
        );
    }

    /// A NaN command (a capsule can compute one: only divide-by-zero
    /// traps) quantizes to register word 0, like a read of NaN does,
    /// instead of reaching the plant as NaN.
    #[test]
    fn nan_writes_quantize_to_a_finite_word() {
        let m = RegisterMap::gas_plant_standard();
        let mut plant = GasPlant::default();
        m.write_scaled(&mut plant, 40002, f64::NAN).unwrap();
        use crate::Plant;
        for _ in 0..50 {
            plant.step(0.1);
        }
        let opening = plant.read_tag("LTSLiqValve.OpeningPct").unwrap();
        assert!(opening.is_finite() && opening < 11.48, "opening {opening}");
        assert_eq!(to_raw(f64::NAN, 0.01, 0.0), 0);
        assert_eq!(to_raw(f64::INFINITY, 0.01, 0.0), u16::MAX);
        assert_eq!(to_raw(f64::NEG_INFINITY, 0.01, 0.0), 0);
    }

    /// Bound registers read and write what the map's name path does, bit
    /// for bit, on every register of the standard map, and bind exactly
    /// where that path succeeds.
    #[test]
    fn bound_registers_match_the_map() {
        let m = RegisterMap::gas_plant_standard();
        let mut by_name = GasPlant::default();
        let mut by_handle = by_name.clone();
        let values = [
            f64::NAN,
            f64::NEG_INFINITY,
            -3.0,
            0.004,
            42.125,
            99.995,
            1e9,
        ];
        for addr in [1, 30001, 30003, 30012, 40001, 40002, 40007, 40008, 40009] {
            let input = m.bind_input(&by_handle, addr);
            assert_eq!(
                input.is_some(),
                m.read_scaled(&by_name, addr).is_ok(),
                "{addr}"
            );
            if let Some(input) = input {
                let want = m.read_scaled(&by_name, addr).unwrap();
                assert_eq!(input.read(&by_handle).to_bits(), want.to_bits(), "{addr}");
            }
            let Some(holding) = m.bind_holding(&by_handle, addr) else {
                assert!(m.write_scaled(&mut by_name, addr, 1.0).is_err(), "{addr}");
                continue;
            };
            for v in values {
                m.write_scaled(&mut by_name, addr, v).unwrap();
                holding.write(&mut by_handle, v).unwrap();
                by_name.step(0.1);
                by_handle.step(0.1);
                for tag in crate::gasplant::MEASUREMENT_TAGS {
                    let (a, b) = (
                        by_name.read_tag(tag).unwrap(),
                        by_handle.read_tag(tag).unwrap(),
                    );
                    assert_eq!(a.to_bits(), b.to_bits(), "{addr} <- {v}: {tag}");
                }
            }
        }
    }

    #[test]
    fn temperature_offset_scaling() {
        let plant = GasPlant::default();
        let m = RegisterMap::gas_plant_standard();
        let t = m.read_scaled(&plant, 30003).unwrap();
        let direct = plant.read_tag("Chiller.OutletTempK").unwrap();
        assert!((t - direct).abs() <= 0.01);
        assert!(t > 150.0, "offset applied");
    }
}
