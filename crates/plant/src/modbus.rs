//! ModBus-style register interface.
//!
//! In Fig. 5 the gateway node talks to UniSim over ModBus. This module
//! reproduces that boundary: plant tags are mapped to 16-bit holding
//! registers with per-tag scaling, so the wireless side exchanges exactly
//! the quantized values a real ModBus gateway would — including the
//! quantization error, which the controllers must tolerate.

use std::collections::BTreeMap;

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

/// A register binding resolved once against a [`RegisterMap`]: the
/// address, scaling and backing tag are captured so steady-state access
/// skips the per-call map lookup entirely. This is what a real gateway
/// does when it assembles a cyclic poll list — resolve the addresses at
/// configuration time, then run pure register transactions.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundRegister {
    /// The bound register address.
    pub addr: u16,
    /// Engineering value = raw × scale + offset.
    pub scale: f64,
    /// Engineering offset.
    pub offset: f64,
    /// `true` for holding (writable) registers.
    pub writable: bool,
    /// The plant tag behind the register.
    pub tag: String,
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

/// Reads a bound register in engineering units, quantized through the
/// 16-bit wire exactly like [`RegisterMap::read_scaled`].
///
/// # Errors
///
/// [`ModbusError::TagMissing`] if the plant no longer has the tag.
pub fn read_bound(plant: &dyn Plant, reg: &BoundRegister) -> Result<f64, ModbusError> {
    let v = plant
        .read_tag(&reg.tag)
        .ok_or_else(|| ModbusError::TagMissing(reg.tag.clone()))?;
    Ok(quantize(v, reg.scale, reg.offset))
}

/// Writes a bound holding register in engineering units, quantized
/// through the wire exactly like [`RegisterMap::write_scaled`].
///
/// # Errors
///
/// [`ModbusError::ReadOnly`] for an input binding, or
/// [`ModbusError::TagMissing`] if the plant rejects the tag.
pub fn write_bound(
    plant: &mut dyn Plant,
    reg: &BoundRegister,
    value: f64,
) -> Result<(), ModbusError> {
    if !reg.writable {
        return Err(ModbusError::ReadOnly(reg.addr));
    }
    plant
        .write_tag(&reg.tag, quantize(value, reg.scale, reg.offset))
        .map_err(|_| ModbusError::TagMissing(reg.tag.clone()))
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

    /// Resolves a register address into a [`BoundRegister`] carrying its
    /// scaling and backing tag, for lookup-free steady-state access.
    #[must_use]
    pub fn bind(&self, addr: u16) -> Option<BoundRegister> {
        self.regs.get(&addr).map(|e| BoundRegister {
            addr,
            scale: e.scale,
            offset: e.offset,
            writable: e.writable,
            tag: e.tag.clone(),
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

    #[test]
    fn bound_register_matches_scaled_paths() {
        let mut plant = GasPlant::default();
        let m = RegisterMap::gas_plant_standard();
        let pv = m.bind(30001).expect("input bound");
        assert_eq!(pv.tag, "LTS.LiquidPct");
        assert!(!pv.writable);
        assert_eq!(
            read_bound(&plant, &pv).unwrap(),
            m.read_scaled(&plant, 30001).unwrap()
        );
        let cmd = m.bind(40002).expect("holding bound");
        assert!(cmd.writable);
        write_bound(&mut plant, &cmd, 75.004).unwrap();
        let via_map = m.read_scaled(&plant, 30012);
        assert!(via_map.is_ok(), "write landed through the bound register");
        assert_eq!(
            write_bound(&mut plant, &pv, 1.0).unwrap_err(),
            ModbusError::ReadOnly(30001)
        );
        assert_eq!(m.bind(12345), None);
    }

    /// A NaN command (a capsule can compute one: only divide-by-zero
    /// traps) quantizes to register word 0 on both write paths, like a
    /// read of NaN does, instead of reaching the plant as NaN.
    #[test]
    fn nan_writes_quantize_to_a_finite_word() {
        let m = RegisterMap::gas_plant_standard();
        let cmd = m.bind(40002).expect("holding bound");
        let mut via_bound = GasPlant::default();
        let mut via_map = GasPlant::default();
        write_bound(&mut via_bound, &cmd, f64::NAN).unwrap();
        m.write_scaled(&mut via_map, 40002, f64::NAN).unwrap();
        use crate::Plant;
        for p in [&mut via_bound, &mut via_map] {
            for _ in 0..50 {
                p.step(0.1);
            }
            let opening = p.read_tag("LTSLiqValve.OpeningPct").unwrap();
            assert!(opening.is_finite() && opening < 11.48, "opening {opening}");
        }
        assert_eq!(to_raw(f64::NAN, 0.01, 0.0), 0);
        assert_eq!(to_raw(f64::INFINITY, 0.01, 0.0), u16::MAX);
        assert_eq!(to_raw(f64::NEG_INFINITY, 0.01, 0.0), 0);
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
