//! The plant's control loops.
//!
//! Eight controllers, as in §4.2: four top-level (inlet-separator level,
//! chiller temperature, **LTS level** — the paper's focus loop — and sales
//! pressure/flow) and four on the depropanizer (pressure, sump level,
//! reflux-drum level, tray temperature). Each loop is a data-driven
//! [`ControlLoopSpec`] so the same definition can run locally (wired
//! baseline) or be compiled into an EVM capsule and hosted on wireless
//! controller nodes.

use std::sync::Arc;

use crate::gasplant::{BoundActuator, BoundTag, GasPlant};
use crate::pid::{PidController, PidParams, SecondOrderFilter};
use crate::Plant;

/// Declarative description of one control loop.
#[derive(Debug, Clone, PartialEq)]
pub struct ControlLoopSpec {
    /// Loop name, e.g. `"LC-LTS"`.
    pub name: String,
    /// Tag providing the process variable.
    pub pv_tag: String,
    /// Tag receiving the actuator command.
    pub op_tag: String,
    /// Setpoint in PV units.
    pub setpoint: f64,
    /// PID tuning.
    pub pid: PidParams,
    /// Second-order input filter time constant, s (0 disables).
    pub filter_tau_s: f64,
    /// Control period, s.
    pub period_s: f64,
    /// Nominal output for bumpless start.
    pub nominal_output: f64,
}

/// A loop's PV and OP tags resolved to [`GasPlant`] handles once, by
/// [`LocalController::bind`], for [`LocalController::poll_bound`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LoopTags {
    pv: BoundTag,
    op: BoundActuator,
}

/// A runnable controller instance built from a [`ControlLoopSpec`].
///
/// A clone shares the spec and copies only the controller state, so
/// every run started from one prototype copies no tag strings.
#[derive(Debug, Clone)]
pub struct LocalController {
    spec: Arc<ControlLoopSpec>,
    pid: PidController,
    filter: SecondOrderFilter,
    next_due_s: f64,
}

impl LocalController {
    /// Instantiates the loop with a bumpless (preloaded) PID.
    #[must_use]
    pub fn new(spec: ControlLoopSpec) -> Self {
        let mut pid = PidController::new(spec.pid, spec.setpoint);
        pid.preload(spec.nominal_output);
        LocalController {
            filter: SecondOrderFilter::new(spec.filter_tau_s),
            next_due_s: 0.0,
            spec: Arc::new(spec),
            pid,
        }
    }

    /// The loop definition.
    #[must_use]
    pub fn spec(&self) -> &ControlLoopSpec {
        &self.spec
    }

    /// The most recent output.
    #[must_use]
    pub fn last_output(&self) -> f64 {
        self.pid.last_output()
    }

    /// Changes the setpoint (mode change); copies a shared spec first.
    pub fn set_setpoint(&mut self, sp: f64) {
        self.pid.set_setpoint(sp);
        Arc::make_mut(&mut self.spec).setpoint = sp;
    }

    /// Computes the control law on a raw PV sample: filter then PID.
    /// This is the exact arithmetic the EVM capsule performs.
    pub fn compute(&mut self, pv_raw: f64, dt_s: f64) -> f64 {
        let pv = self.filter.update(pv_raw, dt_s);
        self.pid.update(pv, dt_s)
    }

    /// Resolves the loop's PV and OP tags against `plant`; `None` if the
    /// plant does not publish the PV or cannot be commanded on the OP.
    #[must_use]
    pub fn bind(&self, plant: &GasPlant) -> Option<LoopTags> {
        Some(LoopTags {
            pv: plant.bind_tag(&self.spec.pv_tag)?,
            op: plant.bind_actuator(&self.spec.op_tag)?,
        })
    }

    /// `true` if the loop's period has elapsed at `now_s`, and then the
    /// next deadline is armed: the due check both poll paths share.
    fn take_due(&mut self, now_s: f64) -> bool {
        if now_s + 1e-9 < self.next_due_s {
            return false;
        }
        self.next_due_s = now_s + self.spec.period_s;
        true
    }

    /// Runs the loop against a [`Plant`] if its period has elapsed;
    /// returns the command written, if any.
    pub fn poll(&mut self, plant: &mut dyn Plant, now_s: f64) -> Option<f64> {
        if !self.take_due(now_s) {
            return None;
        }
        let pv = plant.read_tag(&self.spec.pv_tag)?;
        let out = self.compute(pv, self.spec.period_s);
        plant
            .write_tag(&self.spec.op_tag, out)
            .expect("actuator tag must be writable");
        Some(out)
    }

    /// [`LocalController::poll`] through tags bound once: the same due
    /// check, arithmetic and command, without a lookup by name.
    ///
    /// # Panics
    ///
    /// Panics if the control law computes a NaN command, as `poll` does.
    pub fn poll_bound(&mut self, plant: &mut GasPlant, tags: LoopTags, now_s: f64) -> Option<f64> {
        if !self.take_due(now_s) {
            return None;
        }
        let out = self.compute(plant.read_bound(tags.pv), self.spec.period_s);
        plant
            .write_bound(tags.op, out)
            .expect("the control law computes a number");
        Some(out)
    }
}

/// The LTS level loop — the paper's focus (Fig. 6a): level PV, liquid
/// valve OP, second-order filter + PI, 250 ms control cycle.
#[must_use]
pub fn lts_level_loop() -> ControlLoopSpec {
    ControlLoopSpec {
        name: "LC-LTS".into(),
        pv_tag: "LTS.LiquidPct".into(),
        op_tag: "LTSLiqValve.Cmd".into(),
        setpoint: 50.0,
        // Direct-acting: level above SP opens the outlet valve.
        pid: PidParams::pi(1.2, 90.0),
        filter_tau_s: 2.0,
        period_s: 0.25,
        nominal_output: 11.48,
    }
}

/// All eight loops at the calibrated operating point.
#[must_use]
pub fn standard_loops() -> Vec<ControlLoopSpec> {
    vec![
        // --- top-level -------------------------------------------------
        ControlLoopSpec {
            name: "LC-InletSep".into(),
            pv_tag: "InletSep.LevelPct".into(),
            op_tag: "SepLiqValve.Cmd".into(),
            setpoint: 50.0,
            pid: PidParams::pi(1.5, 120.0),
            filter_tau_s: 2.0,
            period_s: 0.25,
            nominal_output: 50.0,
        },
        ControlLoopSpec {
            name: "TC-Chiller".into(),
            pv_tag: "Chiller.OutletTempK".into(),
            op_tag: "ChillerValve.Cmd".into(),
            setpoint: 253.15,
            // Temperature above SP -> open refrigerant valve: direct.
            pid: PidParams::pi(4.0, 60.0),
            filter_tau_s: 1.0,
            period_s: 0.25,
            nominal_output: 60.0,
        },
        lts_level_loop(),
        ControlLoopSpec {
            name: "FC-SalesGas".into(),
            pv_tag: "SalesGas.MolarFlow".into(),
            op_tag: "SalesValve.Cmd".into(),
            setpoint: 1200.0,
            pid: PidParams::pi(0.05, 30.0),
            filter_tau_s: 1.0,
            period_s: 0.25,
            nominal_output: 50.0,
        },
        // --- depropanizer ---------------------------------------------
        ControlLoopSpec {
            name: "PC-Column".into(),
            pv_tag: "Column.PressureKPa".into(),
            op_tag: "CondenserDuty.Cmd".into(),
            setpoint: 1400.0,
            pid: PidParams::pi(0.4, 90.0),
            filter_tau_s: 1.0,
            period_s: 0.5,
            nominal_output: 60.0,
        },
        ControlLoopSpec {
            name: "LC-Sump".into(),
            pv_tag: "Column.SumpLevelPct".into(),
            op_tag: "BottomsValve.Cmd".into(),
            setpoint: 50.0,
            pid: PidParams::pi(1.5, 120.0),
            filter_tau_s: 2.0,
            period_s: 0.5,
            nominal_output: 50.0,
        },
        ControlLoopSpec {
            name: "LC-RefluxDrum".into(),
            pv_tag: "Column.DrumLevelPct".into(),
            op_tag: "DistillateValve.Cmd".into(),
            setpoint: 50.0,
            pid: PidParams::pi(1.5, 120.0),
            filter_tau_s: 2.0,
            period_s: 0.5,
            nominal_output: 50.0,
        },
        ControlLoopSpec {
            name: "TC-Tray".into(),
            pv_tag: "Column.TrayTempK".into(),
            op_tag: "ReboilerDuty.Cmd".into(),
            setpoint: 330.0,
            // Tray temp above SP -> reduce duty: reverse-acting.
            pid: PidParams::pi(2.0, 120.0).reverse_acting(),
            filter_tau_s: 1.0,
            period_s: 0.5,
            nominal_output: 60.0,
        },
    ]
}

/// The canonical order in which Virtual Components host plant loops as
/// the pool expands on-line (§4.2 capacity expansion): the paper's focus
/// loop first, then the remaining top-level loops, then the depropanizer
/// loops. VC `k` of a multi-VC deployment hosts `vc_host_loops()[k]`.
#[must_use]
pub fn vc_host_loops() -> Vec<ControlLoopSpec> {
    let mut loops = standard_loops();
    let focus = loops
        .iter()
        .position(|l| l.name == "LC-LTS")
        .expect("LC-LTS is a standard loop");
    let focus = loops.remove(focus);
    loops.insert(0, focus);
    loops
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gasplant::GasPlant;

    #[test]
    fn eight_loops_defined() {
        let loops = standard_loops();
        assert_eq!(loops.len(), 8, "4 top-level + 4 depropanizer");
        let names: Vec<&str> = loops.iter().map(|l| l.name.as_str()).collect();
        assert!(names.contains(&"LC-LTS"));
        // No duplicate actuator tags.
        let mut ops: Vec<&String> = loops.iter().map(|l| &l.op_tag).collect();
        ops.sort();
        ops.dedup();
        assert_eq!(ops.len(), 8);
    }

    #[test]
    fn poll_respects_period() {
        let mut plant = GasPlant::default();
        let mut ctrl = LocalController::new(lts_level_loop());
        assert!(ctrl.poll(&mut plant, 0.0).is_some());
        assert!(ctrl.poll(&mut plant, 0.1).is_none(), "before period");
        assert!(ctrl.poll(&mut plant, 0.25).is_some());
    }

    /// Every standard loop, wired through bound tags, makes the same
    /// commands and leaves the plant with the same bits as the name path
    /// over 10k plant steps.
    #[test]
    fn bound_poll_matches_poll_bit_for_bit() {
        let mut by_name = GasPlant::default();
        let mut by_handle = by_name.clone();
        let mut named: Vec<LocalController> = standard_loops()
            .into_iter()
            .map(LocalController::new)
            .collect();
        let mut bound: Vec<(LocalController, LoopTags)> = named
            .iter()
            .map(|c| (c.clone(), c.bind(&by_handle).expect("standard loops bind")))
            .collect();
        let dt = 0.1;
        for k in 0..10_000u32 {
            let t = f64::from(k) * dt;
            for (a, (b, tags)) in named.iter_mut().zip(&mut bound) {
                let want = a.poll(&mut by_name, t).map(f64::to_bits);
                let got = b.poll_bound(&mut by_handle, *tags, t).map(f64::to_bits);
                assert_eq!(got, want, "{} at step {k}", a.spec().name);
            }
            by_name.step(dt);
            by_handle.step(dt);
        }
        for tag in crate::gasplant::MEASUREMENT_TAGS {
            let (a, b) = (
                by_name.read_tag(tag).unwrap(),
                by_handle.read_tag(tag).unwrap(),
            );
            assert_eq!(a.to_bits(), b.to_bits(), "{tag}");
        }
    }

    #[test]
    fn unpublished_tags_do_not_bind() {
        let plant = GasPlant::default();
        let mut spec = lts_level_loop();
        spec.op_tag = "LTS.LiquidPct".into();
        assert!(LocalController::new(spec.clone()).bind(&plant).is_none());
        spec.op_tag = "LTSLiqValve.Cmd".into();
        spec.pv_tag = "No.Such.Tag".into();
        assert!(LocalController::new(spec).bind(&plant).is_none());
    }

    #[test]
    fn closed_loop_holds_the_lts_level() {
        let mut plant = GasPlant::default();
        let mut loops: Vec<LocalController> = standard_loops()
            .into_iter()
            .map(LocalController::new)
            .collect();
        let dt = 0.25;
        let mut t = 0.0;
        for _ in 0..(1800.0 / dt) as usize {
            for c in &mut loops {
                let _ = c.poll(&mut plant, t);
            }
            plant.step(dt);
            t += dt;
        }
        let lvl = plant.lts_level_pct();
        assert!((lvl - 50.0).abs() < 3.0, "closed-loop level {lvl}");
        // Valve stays in the paper's neighborhood.
        let v = plant.lts_valve_pct();
        assert!(v > 4.0 && v < 30.0, "valve {v}");
    }

    #[test]
    fn disturbance_rejection() {
        // Run to steady state, disturb the level, and check recovery.
        let mut plant = GasPlant::default();
        let mut ctrl = LocalController::new(lts_level_loop());
        let dt = 0.25;
        let mut t = 0.0;
        for _ in 0..2400 {
            let _ = ctrl.poll(&mut plant, t);
            plant.step(dt);
            t += dt;
        }
        // Disturb: dump the valve open briefly (bypassing the controller).
        plant.write_tag("LTSLiqValve.Cmd", 90.0).unwrap();
        for _ in 0..200 {
            plant.step(dt);
            t += dt;
        }
        assert!(plant.lts_level_pct() < 45.0, "disturbance visible");
        // Controller takes back over.
        for _ in 0..14000 {
            let _ = ctrl.poll(&mut plant, t);
            plant.step(dt);
            t += dt;
        }
        let lvl = plant.lts_level_pct();
        assert!((lvl - 50.0).abs() < 3.0, "recovered to {lvl}");
    }

    #[test]
    fn setpoint_change_tracks() {
        let mut plant = GasPlant::default();
        let mut ctrl = LocalController::new(lts_level_loop());
        ctrl.set_setpoint(60.0);
        let dt = 0.25;
        let mut t = 0.0;
        for _ in 0..20000 {
            let _ = ctrl.poll(&mut plant, t);
            plant.step(dt);
            t += dt;
        }
        let lvl = plant.lts_level_pct();
        assert!((lvl - 60.0).abs() < 3.0, "tracked to {lvl}");
    }

    /// Clones share the spec until one changes its setpoint, which then
    /// moves that clone alone.
    #[test]
    fn setpoint_change_moves_one_clone() {
        let prototype = LocalController::new(lts_level_loop());
        let mut run = prototype.clone();
        assert!(Arc::ptr_eq(&run.spec, &prototype.spec));
        run.set_setpoint(60.0);
        assert_eq!(run.spec().setpoint, 60.0);
        assert_eq!(prototype.spec().setpoint, lts_level_loop().setpoint);
    }
}
