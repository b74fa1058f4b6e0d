//! The natural-gas processing plant of Fig. 4.
//!
//! Flow path: combined raw-gas feed → **Inlet Separator** (free liquids
//! out) → overhead gas → **gas/gas exchanger** (pre-cooled against the
//! cold LTS overhead) → **propane chiller** → **Low-Temperature
//! Separator**; LTS overhead returns through the exchanger as sales gas,
//! LTS liquid joins the Inlet Separator liquid and feeds the
//! **Depropanizer**.
//!
//! # Calibration
//!
//! The constructor solves the steady-state flashes once and sizes every
//! valve so the nominal operating point matches the paper: the LTS liquid
//! valve sits at **11.48 %** (the value the faulty controller should output
//! in Fig. 6b), the other valves at mid-range. Vessel levels start at
//! their 50 % setpoints.

use crate::blocks::{Chiller, Depropanizer, GasGasExchanger, Separator, Valve};
use crate::stream::Stream;
use crate::thermo::{flash, Composition};
use crate::Plant;

/// Plant sizing and operating parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct PlantConfig {
    /// Combined raw-gas feed rate, kmol/h.
    pub feed_kmolh: f64,
    /// Feed temperature, K.
    pub feed_t_k: f64,
    /// Feed pressure, kPa.
    pub feed_p_kpa: f64,
    /// LTS operating (chiller target) temperature, K.
    pub lts_t_k: f64,
    /// LTS pressure, kPa.
    pub lts_p_kpa: f64,
    /// Gas/gas exchanger effectiveness.
    pub hx_effectiveness: f64,
    /// Nominal LTS liquid-valve opening — the paper's 11.48 %.
    pub lts_valve_nominal_pct: f64,
    /// Inlet separator liquid-section volume, m³.
    pub sep_volume_m3: f64,
    /// LTS liquid-section volume, m³.
    pub lts_volume_m3: f64,
    /// Valve actuator time constant, s.
    pub valve_tau_s: f64,
    /// Column nominal pressure, kPa.
    pub column_p_kpa: f64,
}

impl Default for PlantConfig {
    fn default() -> Self {
        PlantConfig {
            feed_kmolh: 1440.0,
            feed_t_k: 303.15, // 30 C
            feed_p_kpa: 6200.0,
            lts_t_k: 253.15, // -20 C
            lts_p_kpa: 6000.0,
            hx_effectiveness: 0.6,
            lts_valve_nominal_pct: 11.48,
            sep_volume_m3: 3.0,
            lts_volume_m3: 5.0,
            valve_tau_s: 2.0,
            column_p_kpa: 1400.0,
        }
    }
}

/// The running plant model.
#[derive(Debug, Clone)]
pub struct GasPlant {
    config: PlantConfig,

    inlet_sep: Separator,
    lts: Separator,
    hx: GasGasExchanger,
    chiller: Chiller,
    column: Depropanizer,

    sep_liq_valve: Valve,
    lts_liq_valve: Valve,
    chiller_valve: Valve,
    sales_valve: Valve,
    bottoms_valve: Valve,
    distillate_valve: Valve,
    reboiler_duty_pct: f64,
    condenser_duty_pct: f64,

    /// The raw-gas feed: constant, so built once.
    feed: Stream,
    /// LTS overhead from the previous step (recycle stream through the
    /// exchanger, one-step delay for a stable explicit solution).
    lts_vapor_prev: Stream,

    /// Latest published measurements, in [`MEASUREMENT_TAGS`] order.
    tag_values: [f64; MEASUREMENT_TAGS.len()],
    /// Elapsed simulation time, s.
    elapsed_s: f64,
}

/// A pre-resolved handle to one published plant tag.
///
/// Obtained from [`GasPlant::bind_tag`] once, then read with
/// [`GasPlant::read_bound`] without the per-read name lookup of
/// [`Plant::read_tag`]. Handles never go stale: the tag table is fixed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundTag(usize);

/// A pre-resolved handle to one writable (actuator) plant tag.
///
/// Obtained from [`GasPlant::bind_actuator`] once, then written with
/// [`GasPlant::write_bound`], the one write path: [`Plant::write_tag`]
/// resolves the name and calls it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BoundActuator(usize);

impl GasPlant {
    /// Builds and calibrates the plant at its steady operating point.
    #[must_use]
    pub fn new(config: PlantConfig) -> Self {
        let feed_comp = Composition::raw_natural_gas();

        // --- Steady-state calibration (two flashes) -------------------
        let inlet_flash = flash(&feed_comp, config.feed_t_k, config.feed_p_kpa);
        let sep_liq_ss = config.feed_kmolh * (1.0 - inlet_flash.vapor_fraction);
        let overhead_ss = config.feed_kmolh * inlet_flash.vapor_fraction;

        let lts_flash = flash(&inlet_flash.vapor, config.lts_t_k, config.lts_p_kpa);
        let lts_liq_ss = overhead_ss * (1.0 - lts_flash.vapor_fraction);
        let sales_ss = overhead_ss * lts_flash.vapor_fraction;

        // Valve sizing from nominal openings.
        let sep_liq_valve = Valve::new(sep_liq_ss / 0.50, config.valve_tau_s, 50.0);
        let lts_liq_valve = Valve::new(
            lts_liq_ss / (config.lts_valve_nominal_pct / 100.0),
            config.valve_tau_s,
            config.lts_valve_nominal_pct,
        );
        let sales_valve = Valve::new(sales_ss / 0.50, config.valve_tau_s, 50.0);

        // Exchanger + chiller sizing: the chiller closes whatever gap the
        // exchanger leaves to the LTS temperature at nominal valve ~60 %.
        let hx = GasGasExchanger::new(config.hx_effectiveness);
        let c_min = sales_ss.min(overhead_ss);
        let hx_drop =
            config.hx_effectiveness * c_min * (config.feed_t_k - config.lts_t_k) / overhead_ss;
        let hx_out_t = config.feed_t_k - hx_drop;
        let needed_drop = (hx_out_t - config.lts_t_k).max(1.0);
        let chiller = Chiller::new(needed_drop / 0.60, overhead_ss);
        let chiller_valve = Valve::new(100.0, config.valve_tau_s, 60.0);

        // Column: tower feed = both liquid streams.
        let tower_feed_ss = sep_liq_ss + lts_liq_ss;
        let column = Depropanizer::new(config.column_p_kpa, tower_feed_ss * 1.2);
        // Nominal duty 60 %: bottoms keep the butanes + residual C3.
        let bottoms_ss = tower_feed_ss * 0.45;
        let distillate_ss = tower_feed_ss * 0.55;
        let bottoms_valve = Valve::new(bottoms_ss / 0.50, config.valve_tau_s, 50.0);
        let distillate_valve = Valve::new(distillate_ss / 0.50, config.valve_tau_s, 50.0);

        let inlet_sep = Separator::new(
            config.sep_volume_m3,
            config.feed_t_k,
            config.feed_p_kpa,
            50.0,
            inlet_flash.liquid,
        );
        let lts = Separator::new(
            config.lts_volume_m3,
            config.lts_t_k,
            config.lts_p_kpa,
            50.0,
            lts_flash.liquid,
        );

        let feed = Stream::new(
            config.feed_kmolh,
            config.feed_t_k,
            config.feed_p_kpa,
            feed_comp,
        );
        let lts_vapor_prev =
            Stream::new(sales_ss, config.lts_t_k, config.lts_p_kpa, lts_flash.vapor);

        let mut plant = GasPlant {
            config,
            inlet_sep,
            lts,
            hx,
            chiller,
            column,
            sep_liq_valve,
            lts_liq_valve,
            chiller_valve,
            sales_valve,
            bottoms_valve,
            distillate_valve,
            reboiler_duty_pct: 60.0,
            condenser_duty_pct: 60.0,
            feed,
            lts_vapor_prev,
            tag_values: [0.0; MEASUREMENT_TAGS.len()],
            elapsed_s: 0.0,
        };
        // Publish a consistent initial tag snapshot.
        plant.step(0.1);
        plant.elapsed_s = 0.0;
        plant
    }

    /// The configuration.
    #[must_use]
    pub fn config(&self) -> &PlantConfig {
        &self.config
    }

    /// Elapsed plant time, seconds.
    #[must_use]
    pub fn elapsed_s(&self) -> f64 {
        self.elapsed_s
    }

    /// Convenience accessor: the LTS liquid level, %.
    #[must_use]
    pub fn lts_level_pct(&self) -> f64 {
        self.lts.level_pct()
    }

    /// Convenience accessor: the LTS liquid valve opening, %.
    #[must_use]
    pub fn lts_valve_pct(&self) -> f64 {
        self.lts_liq_valve.opening_pct()
    }

    /// Resolves a published tag name to a reusable [`BoundTag`] handle:
    /// its position in [`MEASUREMENT_TAGS`].
    ///
    /// Returns `None` for unknown tags. The constructor publishes a full
    /// snapshot, so every measurement tag reads a live value from step zero.
    #[must_use]
    pub fn bind_tag(&self, tag: &str) -> Option<BoundTag> {
        MEASUREMENT_TAGS
            .iter()
            .position(|&t| t == tag)
            .map(BoundTag)
    }

    /// Reads the latest value of a tag through its pre-resolved handle.
    #[must_use]
    pub fn read_bound(&self, slot: BoundTag) -> f64 {
        self.tag_values[slot.0]
    }

    /// Resolves a writable tag name to a reusable [`BoundActuator`]
    /// handle: its position in [`ACTUATOR_TAGS`]. Returns `None` for
    /// read-only and unknown tags.
    #[must_use]
    pub fn bind_actuator(&self, tag: &str) -> Option<BoundActuator> {
        ACTUATOR_TAGS
            .iter()
            .position(|&t| t == tag)
            .map(BoundActuator)
    }

    /// Commands an actuator through its pre-resolved handle. Valves and
    /// duties clamp the command into their range (infinities included).
    ///
    /// # Errors
    ///
    /// Refuses a NaN command, which leaves the plant untouched.
    pub fn write_bound(&mut self, act: BoundActuator, value: f64) -> Result<(), String> {
        if value.is_nan() {
            return Err(format!("command is NaN: {}", ACTUATOR_TAGS[act.0]));
        }
        match act.0 {
            0 => self.sep_liq_valve.command(value),
            1 => self.lts_liq_valve.command(value),
            2 => self.chiller_valve.command(value),
            3 => self.sales_valve.command(value),
            4 => self.bottoms_valve.command(value),
            5 => self.distillate_valve.command(value),
            6 => self.reboiler_duty_pct = value.clamp(0.0, 100.0),
            _ => self.condenser_duty_pct = value.clamp(0.0, 100.0),
        }
        Ok(())
    }
}

/// Names of all published (read-only) measurement tags, in the order
/// `step` publishes them: the Fig. 6b series first.
pub const MEASUREMENT_TAGS: [&str; 25] = [
    "LTS.LiquidPct",
    "SepLiq.MolarFlow",
    "LTSLiq.MolarFlow",
    "TowerFeed.MolarFlow",
    "InletSep.LevelPct",
    "InletSep.LiqIn",
    "LTS.LiqIn",
    "Chiller.OutletTempK",
    "SalesGas.MolarFlow",
    "SalesGas.TempK",
    "Column.PressureKPa",
    "Column.SumpLevelPct",
    "Column.DrumLevelPct",
    "Column.TrayTempK",
    "Column.BottomsC3Frac",
    "Bottoms.MolarFlow",
    "Distillate.MolarFlow",
    "SepLiqValve.OpeningPct",
    "LTSLiqValve.OpeningPct",
    "ChillerValve.OpeningPct",
    "SalesValve.OpeningPct",
    "BottomsValve.OpeningPct",
    "DistillateValve.OpeningPct",
    "ReboilerDuty.Pct",
    "CondenserDuty.Pct",
];

/// Names of all writable (actuator) tags, in [`BoundActuator`] order.
pub const ACTUATOR_TAGS: [&str; 8] = [
    "SepLiqValve.Cmd",
    "LTSLiqValve.Cmd",
    "ChillerValve.Cmd",
    "SalesValve.Cmd",
    "BottomsValve.Cmd",
    "DistillateValve.Cmd",
    "ReboilerDuty.Cmd",
    "CondenserDuty.Cmd",
];

impl Plant for GasPlant {
    fn step(&mut self, dt: f64) {
        assert!(dt > 0.0, "dt must be positive");
        self.elapsed_s += dt;

        // Actuators move first.
        for v in [
            &mut self.sep_liq_valve,
            &mut self.lts_liq_valve,
            &mut self.chiller_valve,
            &mut self.sales_valve,
            &mut self.bottoms_valve,
            &mut self.distillate_valve,
        ] {
            v.step(dt);
        }

        // Feed enters the inlet separator.
        let inlet_overhead = self.inlet_sep.feed(&self.feed, dt);

        // Gas/gas exchange against last step's LTS overhead.
        let (hx_hot_out, sales_gas) = self.hx.exchange(&inlet_overhead, &self.lts_vapor_prev);

        // Chiller to LTS temperature (as the refrigerant valve allows).
        let chilled = self
            .chiller
            .cool(&hx_hot_out, self.chiller_valve.opening_pct());

        // The LTS runs at the chilled temperature.
        self.lts.set_t_k(chilled.t_k);
        let lts_vapor = self.lts.feed(&chilled, dt);
        self.lts_vapor_prev = lts_vapor;

        // Liquid draws through the level valves.
        let sep_liq = self
            .inlet_sep
            .draw_liquid(self.sep_liq_valve.flow(f64::MAX), dt);
        let lts_liq = self.lts.draw_liquid(self.lts_liq_valve.flow(f64::MAX), dt);
        let tower_feed = Stream::mix(&sep_liq, &lts_liq);

        // Depropanizer.
        self.column.step(
            &tower_feed,
            self.reboiler_duty_pct,
            self.condenser_duty_pct,
            dt,
        );
        let bottoms = self
            .column
            .draw_bottoms(self.bottoms_valve.flow(f64::MAX), dt);
        let distillate = self
            .column
            .draw_distillate(self.distillate_valve.flow(f64::MAX), dt);

        // Publish measurements, in `MEASUREMENT_TAGS` order.
        self.tag_values = [
            self.lts.level_pct(),
            sep_liq.molar_flow,
            lts_liq.molar_flow,
            tower_feed.molar_flow,
            self.inlet_sep.level_pct(),
            self.inlet_sep.last_liquid_in(),
            self.lts.last_liquid_in(),
            chilled.t_k,
            sales_gas.molar_flow,
            sales_gas.t_k,
            self.column.pressure_kpa(),
            self.column.sump_level_pct(),
            self.column.drum_level_pct(),
            self.column.tray_temp_k(self.reboiler_duty_pct),
            self.column.bottoms_propane_frac(),
            bottoms.molar_flow,
            distillate.molar_flow,
            self.sep_liq_valve.opening_pct(),
            self.lts_liq_valve.opening_pct(),
            self.chiller_valve.opening_pct(),
            self.sales_valve.opening_pct(),
            self.bottoms_valve.opening_pct(),
            self.distillate_valve.opening_pct(),
            self.reboiler_duty_pct,
            self.condenser_duty_pct,
        ];
    }

    fn read_tag(&self, tag: &str) -> Option<f64> {
        self.bind_tag(tag).map(|slot| self.read_bound(slot))
    }

    fn write_tag(&mut self, tag: &str, value: f64) -> Result<(), String> {
        match self.bind_actuator(tag) {
            Some(act) => self.write_bound(act, value),
            None if self.bind_tag(tag).is_some() => Err(format!("tag is read-only: {tag}")),
            None => Err(format!("unknown tag: {tag}")),
        }
    }

    fn tags(&self) -> Vec<String> {
        let mut v: Vec<String> = MEASUREMENT_TAGS
            .iter()
            .chain(&ACTUATOR_TAGS)
            .map(|s| s.to_string())
            .collect();
        v.sort();
        v
    }
}

impl Default for GasPlant {
    fn default() -> Self {
        GasPlant::new(PlantConfig::default())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn initial_point_matches_paper_operating_point() {
        let p = GasPlant::default();
        assert!((p.lts_valve_pct() - 11.48).abs() < 1e-6);
        assert!((p.lts_level_pct() - 50.0).abs() < 1.0);
    }

    #[test]
    fn steady_state_is_roughly_self_consistent() {
        // With valves frozen at their calibrated openings, the level drift
        // over 10 minutes should be small: the calibration balances
        // condensation against valve draw.
        let mut p = GasPlant::default();
        for _ in 0..6000 {
            p.step(0.1);
        }
        let lvl = p.lts_level_pct();
        assert!(
            (lvl - 50.0).abs() < 20.0,
            "open-loop drift too fast: level {lvl}"
        );
        let lts_liq = p.read_tag("LTSLiq.MolarFlow").unwrap();
        let lts_in = p.read_tag("LTS.LiqIn").unwrap();
        assert!(
            (lts_liq - lts_in).abs() / lts_in < 0.25,
            "draw {lts_liq} vs condensation {lts_in}"
        );
    }

    #[test]
    fn forcing_valve_open_drains_the_lts() {
        // The Fig. 6b fault: valve to 75 % -> rapid level drop.
        let mut p = GasPlant::default();
        p.write_tag("LTSLiqValve.Cmd", 75.0).unwrap();
        let l0 = p.lts_level_pct();
        for _ in 0..1500 {
            p.step(0.1); // 150 s
        }
        let l1 = p.lts_level_pct();
        assert!(l1 < l0 - 25.0, "expected rapid drain: {l0} -> {l1}");
        // And the drawn flow spiked well above the condensation rate.
    }

    #[test]
    fn closing_valve_fills_the_lts() {
        let mut p = GasPlant::default();
        p.write_tag("LTSLiqValve.Cmd", 0.0).unwrap();
        let l0 = p.lts_level_pct();
        for _ in 0..1500 {
            p.step(0.1);
        }
        assert!(p.lts_level_pct() > l0 + 5.0, "level must rise");
    }

    #[test]
    fn chiller_valve_affects_condensation() {
        let mut p = GasPlant::default();
        p.write_tag("ChillerValve.Cmd", 0.0).unwrap();
        for _ in 0..600 {
            p.step(0.1);
        }
        // Without refrigeration the LTS warms and condensation collapses.
        let t = p.read_tag("Chiller.OutletTempK").unwrap();
        assert!(t > 270.0, "chiller off must warm the LTS feed: {t}");
        let liq_in = p.read_tag("LTS.LiqIn").unwrap();
        assert!(liq_in < 40.0, "condensation should collapse: {liq_in}");
    }

    #[test]
    fn tag_interface_is_complete_and_guarded() {
        let mut p = GasPlant::default();
        for t in [
            "LTS.LiquidPct",
            "SepLiq.MolarFlow",
            "LTSLiq.MolarFlow",
            "TowerFeed.MolarFlow",
            "Column.PressureKPa",
        ] {
            assert!(p.read_tag(t).is_some(), "missing tag {t}");
        }
        assert!(p.write_tag("LTS.LiquidPct", 1.0).is_err(), "read-only");
        assert!(p.write_tag("No.Such.Tag", 1.0).is_err());
        assert!(p.tags().len() > 20);
    }

    #[test]
    fn bound_tags_track_read_tag() {
        let mut p = GasPlant::default();
        let slot = p.bind_tag("LTS.LiquidPct").expect("tag exists at step 0");
        assert!(p.bind_tag("No.Such.Tag").is_none());
        assert_eq!(p.read_bound(slot), p.read_tag("LTS.LiquidPct").unwrap());
        p.write_tag("LTSLiqValve.Cmd", 75.0).unwrap();
        for _ in 0..300 {
            p.step(0.1);
        }
        assert_eq!(
            p.read_bound(slot),
            p.read_tag("LTS.LiquidPct").unwrap(),
            "handle must track the live value across steps"
        );
    }

    #[test]
    fn tag_table_is_fixed_and_complete() {
        let mut p = GasPlant::default();
        for (i, tag) in MEASUREMENT_TAGS.iter().enumerate() {
            assert_eq!(p.bind_tag(tag), Some(BoundTag(i)), "{tag}");
            assert!(p.write_tag(tag, 1.0).unwrap_err().contains("read-only"));
        }
        let tags = p.tags();
        assert_eq!(tags.len(), 33, "25 measurements + 8 actuators");
        assert!(
            tags.windows(2).all(|w| w[0] < w[1]),
            "sorted, no duplicates"
        );
        for tag in MEASUREMENT_TAGS.iter().chain(&ACTUATOR_TAGS) {
            assert!(tags.iter().any(|t| t == tag), "missing {tag}");
        }
    }

    /// A NaN command is refused on every actuator tag and leaves the
    /// plant exactly as it was: stepping it afterwards matches a twin
    /// that never saw the command.
    #[test]
    fn nan_commands_are_refused_without_effect() {
        let mut p = GasPlant::default();
        let mut twin = p.clone();
        for tag in ACTUATOR_TAGS {
            assert!(p.write_tag(tag, f64::NAN).is_err(), "{tag}");
        }
        for _ in 0..50 {
            p.step(0.1);
            twin.step(0.1);
        }
        for tag in MEASUREMENT_TAGS {
            let (a, b) = (p.read_tag(tag).unwrap(), twin.read_tag(tag).unwrap());
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}: {a} vs {b}");
        }
        // Infinities still clamp into range.
        p.write_tag("LTSLiqValve.Cmd", f64::INFINITY).unwrap();
        p.write_tag("ReboilerDuty.Cmd", f64::NEG_INFINITY).unwrap();
        p.step(0.1);
        assert_eq!(p.read_tag("ReboilerDuty.Pct"), Some(0.0));
        assert!(p.lts_valve_pct() > 11.48 && p.lts_valve_pct() <= 100.0);
    }

    /// The handles are the name path minus the lookup: on every
    /// actuator, `write_bound` returns what `write_tag` returns (the NaN
    /// refusal included) and leaves the plant with the same bits (the
    /// infinity and range clamps included); on every measurement,
    /// `read_bound` reads what `read_tag` reads.
    #[test]
    fn handles_match_the_name_path_bit_for_bit() {
        let values = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -5.0,
            0.0,
            37.5,
            100.0,
            150.0,
        ];
        let mut by_name = GasPlant::default();
        let mut by_handle = by_name.clone();
        for (i, tag) in ACTUATOR_TAGS.iter().enumerate() {
            let act = by_handle.bind_actuator(tag).expect("actuator binds");
            assert_eq!(act, BoundActuator(i), "{tag}");
            for v in values {
                assert_eq!(
                    by_name.write_tag(tag, v),
                    by_handle.write_bound(act, v),
                    "{tag} <- {v}"
                );
                by_name.step(0.1);
                by_handle.step(0.1);
                for m in MEASUREMENT_TAGS {
                    let slot = by_handle.bind_tag(m).expect("measurement binds");
                    let (a, b) = (by_name.read_tag(m).unwrap(), by_handle.read_bound(slot));
                    assert_eq!(a.to_bits(), b.to_bits(), "{tag} <- {v}: {m}");
                }
            }
        }
        for tag in MEASUREMENT_TAGS {
            assert!(by_handle.bind_actuator(tag).is_none(), "{tag} is read-only");
        }
        assert!(by_handle.bind_actuator("No.Such.Tag").is_none());
        assert!(by_name
            .write_tag("No.Such.Tag", 1.0)
            .unwrap_err()
            .contains("unknown"));
    }

    #[test]
    fn fig6b_series_have_sensible_magnitudes() {
        let p = GasPlant::default();
        let sep = p.read_tag("SepLiq.MolarFlow").unwrap();
        let lts = p.read_tag("LTSLiq.MolarFlow").unwrap();
        let tower = p.read_tag("TowerFeed.MolarFlow").unwrap();
        assert!(sep > 5.0 && sep < 400.0, "SepLiq {sep}");
        assert!(lts > 30.0 && lts < 600.0, "LTSLiq {lts}");
        assert!((tower - sep - lts).abs() < 1.0, "mixer balance");
    }
}
