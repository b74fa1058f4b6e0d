//! Two-phase separator vessel with liquid-level dynamics.
//!
//! The Inlet Separator and the Low-Temperature Separator of Fig. 4. Feed is
//! flashed at vessel conditions; vapor leaves overhead immediately (vapor
//! holdup is negligible at these flows), liquid accumulates in the boot and
//! is withdrawn through the level-control valve. The liquid **level
//! percentage** is the paper's headline process variable (Fig. 6b, solid
//! red trace).

use crate::stream::Stream;
use crate::thermo::{flash, Composition, FlashResult, N_COMPONENTS};

/// The exact bits of a flash's inputs: T, P and every fraction. Bits
/// rather than `==`, so `-0.0` and `0.0` never share an entry.
type FlashKey = [u64; 2 + N_COMPONENTS];

fn flash_key(t_k: f64, p_kpa: f64, z: &Composition) -> FlashKey {
    let mut key = [0; 2 + N_COMPONENTS];
    key[0] = t_k.to_bits();
    key[1] = p_kpa.to_bits();
    for (k, x) in key[2..].iter_mut().zip(z.fractions()) {
        *k = x.to_bits();
    }
    key
}

/// A vertical two-phase separator.
#[derive(Debug, Clone)]
pub struct Separator {
    /// Liquid-section volume, m³.
    volume_m3: f64,
    /// Operating temperature, K.
    t_k: f64,
    /// Operating pressure, kPa.
    p_kpa: f64,
    /// Current liquid inventory, kmol.
    holdup_kmol: f64,
    /// Composition of the held liquid.
    liquid_comp: Composition,
    /// Liquid inflow over the last step, kmol/h (for reporting).
    last_liquid_in: f64,
    /// The last flash this vessel ran, keyed on its exact inputs. The
    /// flash is a pure function of (T, P, composition), so a key hit
    /// reuses a result that recomputing would reproduce bit for bit.
    /// Per instance: parallel sweep workers never share one.
    memo: Option<(FlashKey, FlashResult)>,
}

/// Equality is over the vessel's physical state; the flash memo is a
/// cache of it and takes no part.
impl PartialEq for Separator {
    fn eq(&self, other: &Self) -> bool {
        let Separator {
            volume_m3,
            t_k,
            p_kpa,
            holdup_kmol,
            liquid_comp,
            last_liquid_in,
            memo: _,
        } = self;
        *volume_m3 == other.volume_m3
            && *t_k == other.t_k
            && *p_kpa == other.p_kpa
            && *holdup_kmol == other.holdup_kmol
            && *liquid_comp == other.liquid_comp
            && *last_liquid_in == other.last_liquid_in
    }
}

impl Separator {
    /// Creates a separator at the given conditions with an initial level.
    ///
    /// # Panics
    ///
    /// Panics if volume, temperature or pressure are not strictly
    /// positive, or the initial level is outside 0–100 %.
    #[must_use]
    pub fn new(
        volume_m3: f64,
        t_k: f64,
        p_kpa: f64,
        initial_level_pct: f64,
        initial_comp: Composition,
    ) -> Self {
        assert!(volume_m3 > 0.0, "volume must be positive");
        assert!(t_k > 0.0 && p_kpa > 0.0, "bad operating conditions");
        assert!(
            (0.0..=100.0).contains(&initial_level_pct),
            "level out of range"
        );
        let mut sep = Separator {
            volume_m3,
            t_k,
            p_kpa,
            holdup_kmol: 0.0,
            liquid_comp: initial_comp,
            last_liquid_in: 0.0,
            memo: None,
        };
        sep.holdup_kmol = sep.max_holdup_kmol() * initial_level_pct / 100.0;
        sep
    }

    /// Vessel capacity in kmol of the *current* liquid.
    #[must_use]
    pub fn max_holdup_kmol(&self) -> f64 {
        self.volume_m3 / self.liquid_comp.liquid_molar_volume()
    }

    /// Liquid level, percent of the liquid section.
    #[must_use]
    pub fn level_pct(&self) -> f64 {
        (self.holdup_kmol / self.max_holdup_kmol() * 100.0).clamp(0.0, 100.0)
    }

    /// Operating temperature, K.
    #[must_use]
    pub fn t_k(&self) -> f64 {
        self.t_k
    }

    /// Operating pressure, kPa.
    #[must_use]
    pub fn p_kpa(&self) -> f64 {
        self.p_kpa
    }

    /// Sets the operating temperature (driven by the chiller loop for the
    /// LTS).
    pub fn set_t_k(&mut self, t_k: f64) {
        assert!(t_k > 0.0, "temperature must be positive");
        self.t_k = t_k;
    }

    /// Composition of the held liquid.
    #[must_use]
    pub fn liquid_composition(&self) -> Composition {
        self.liquid_comp
    }

    /// Liquid condensation rate into the boot over the last step, kmol/h.
    #[must_use]
    pub fn last_liquid_in(&self) -> f64 {
        self.last_liquid_in
    }

    /// Feeds the vessel for `dt_s` seconds: the feed is flashed at vessel
    /// conditions, the liquid cut accumulates, and the vapor cut leaves
    /// overhead (returned).
    pub fn feed(&mut self, feed: &Stream, dt_s: f64) -> Stream {
        assert!(dt_s > 0.0, "dt must be positive");
        let at_vessel = Stream {
            t_k: self.t_k,
            p_kpa: self.p_kpa,
            ..*feed
        };
        let key = flash_key(self.t_k, self.p_kpa, &feed.composition);
        let res = match self.memo {
            Some((k, res)) if k == key => res,
            _ => {
                let res = flash(&feed.composition, self.t_k, self.p_kpa);
                self.memo = Some((key, res));
                res
            }
        };
        let (vapor, liquid) = at_vessel.split_by(&res);
        self.last_liquid_in = liquid.molar_flow;
        if liquid.molar_flow > 0.0 {
            let added = liquid.molar_flow * dt_s / 3600.0;
            self.liquid_comp = Composition::mix(
                &self.liquid_comp,
                self.holdup_kmol,
                &liquid.composition,
                added,
            );
            self.holdup_kmol = (self.holdup_kmol + added).min(self.max_holdup_kmol());
        }
        vapor
    }

    /// Withdraws liquid at the requested rate for `dt_s` seconds; the
    /// returned stream's flow is limited by the available inventory.
    pub fn draw_liquid(&mut self, rate_kmolh: f64, dt_s: f64) -> Stream {
        assert!(dt_s > 0.0, "dt must be positive");
        let rate = rate_kmolh.max(0.0);
        let want_kmol = rate * dt_s / 3600.0;
        let got_kmol = want_kmol.min(self.holdup_kmol);
        self.holdup_kmol -= got_kmol;
        Stream::new(
            got_kmol * 3600.0 / dt_s,
            self.t_k,
            self.p_kpa,
            self.liquid_comp,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermo::Component;

    fn lts() -> Separator {
        Separator::new(
            5.0,
            253.15,
            6000.0,
            50.0,
            Composition::new([0.0, 0.01, 0.15, 0.25, 0.35, 0.12, 0.12]),
        )
    }

    fn feed() -> Stream {
        Stream::new(1400.0, 303.15, 6000.0, Composition::raw_natural_gas())
    }

    #[test]
    fn initial_level_matches() {
        let s = lts();
        assert!((s.level_pct() - 50.0).abs() < 1e-9);
    }

    #[test]
    fn feeding_raises_level_and_returns_vapor() {
        let mut s = lts();
        let l0 = s.level_pct();
        let vap = s.feed(&feed(), 10.0);
        assert!(vap.molar_flow > 0.0 && vap.molar_flow < 1400.0);
        assert!(s.level_pct() > l0, "liquid must accumulate");
        assert!(s.last_liquid_in() > 0.0);
        // Vapor leaves at vessel conditions.
        assert_eq!(vap.t_k, 253.15);
    }

    #[test]
    fn drawing_lowers_level_and_conserves_moles() {
        let mut s = lts();
        let before = s.holdup_kmol;
        let out = s.draw_liquid(120.0, 30.0);
        let removed = out.molar_flow * 30.0 / 3600.0;
        assert!((before - s.holdup_kmol - removed).abs() < 1e-9);
        assert!(s.level_pct() < 50.0);
    }

    #[test]
    fn draw_limited_by_inventory() {
        let mut s = Separator::new(1.0, 253.15, 6000.0, 1.0, Composition::pure(Component::C3));
        // Ask for far more than is held.
        let out = s.draw_liquid(1e6, 60.0);
        assert!(s.level_pct() < 1e-9, "vessel must be empty");
        assert!(out.molar_flow < 1e6);
    }

    #[test]
    fn mass_balance_over_feed_and_draw() {
        let mut s = lts();
        let h0 = s.holdup_kmol;
        let dt = 5.0;
        let mut fed_liquid = 0.0;
        let mut drawn = 0.0;
        for _ in 0..100 {
            let _v = s.feed(&feed(), dt);
            fed_liquid += s.last_liquid_in() * dt / 3600.0;
            let out = s.draw_liquid(80.0, dt);
            drawn += out.molar_flow * dt / 3600.0;
        }
        assert!(
            (s.holdup_kmol - (h0 + fed_liquid - drawn)).abs() < 1e-6,
            "holdup drifted"
        );
    }

    fn stream_bits(s: &Stream) -> Vec<u64> {
        let mut bits = vec![s.molar_flow.to_bits(), s.t_k.to_bits(), s.p_kpa.to_bits()];
        bits.extend(s.composition.fractions().iter().map(|x| x.to_bits()));
        bits
    }

    fn comp_bits(c: &Composition) -> Vec<u64> {
        c.fractions().iter().map(|x| x.to_bits()).collect()
    }

    /// Feeds `(vessel T, feed composition)` cases in order to a memoized
    /// separator and to one whose memo is cleared before every call; at
    /// each call both must match `Stream::split_phases` bit for bit.
    fn check_memo_sequence(cases: &[(f64, Composition)]) {
        let mut memo = lts();
        let mut fresh = lts();
        for (i, &(t_k, comp)) in cases.iter().enumerate() {
            let feed = Stream::new(1400.0, 303.15, 6000.0, comp);
            let (want_vapor, want_liquid) = Stream {
                t_k,
                p_kpa: memo.p_kpa(),
                ..feed
            }
            .split_phases();
            memo.set_t_k(t_k);
            fresh.set_t_k(t_k);
            fresh.memo = None;
            let vapor = memo.feed(&feed, 1.0);
            let fresh_vapor = fresh.feed(&feed, 1.0);
            assert_eq!(stream_bits(&vapor), stream_bits(&want_vapor), "call {i}");
            assert_eq!(
                stream_bits(&fresh_vapor),
                stream_bits(&want_vapor),
                "call {i}"
            );
            assert_eq!(
                memo.last_liquid_in().to_bits(),
                want_liquid.molar_flow.to_bits(),
                "call {i}"
            );
            assert_eq!(
                memo.holdup_kmol.to_bits(),
                fresh.holdup_kmol.to_bits(),
                "call {i}"
            );
            assert_eq!(
                comp_bits(&memo.liquid_composition()),
                comp_bits(&fresh.liquid_composition()),
                "call {i}"
            );
        }
    }

    /// A feed whose raw amounts are binary fractions summing to exactly
    /// 1, so normalization leaves every bit as written.
    const BINARY_RAW: [f64; N_COMPONENTS] = [0.125, 0.125, 0.25, 0.25, 0.125, 0.0625, 0.0625];

    #[test]
    fn memo_is_exact_and_invalidates_on_one_ulp_of_temperature() {
        let a = Composition::new(BINARY_RAW);
        let t = 253.15_f64;
        let t_next = f64::from_bits(t.to_bits() + 1);
        check_memo_sequence(&[(t, a), (t, a), (t_next, a), (t, a)]);
    }

    #[test]
    fn memo_is_exact_and_invalidates_on_one_composition_fraction() {
        let a = Composition::new(BINARY_RAW);
        let mut raw = BINARY_RAW;
        raw[Component::C3.index()] = f64::from_bits(raw[Component::C3.index()].to_bits() + 1);
        let b = Composition::new(raw);
        let differing = comp_bits(&a)
            .iter()
            .zip(comp_bits(&b))
            .filter(|(x, y)| **x != *y)
            .count();
        assert_eq!(differing, 1, "B must differ from A in exactly one fraction");
        check_memo_sequence(&[(253.15, a), (253.15, a), (253.15, b), (253.15, a)]);
    }

    #[test]
    fn memo_takes_no_part_in_equality() {
        let mut cached = lts();
        let _ = cached.feed(&feed(), 1.0);
        let mut uncached = cached.clone();
        uncached.memo = None;
        assert_eq!(cached, uncached);
        assert_ne!(cached, lts(), "physical state still counts");
    }

    #[test]
    fn warmer_vessel_condenses_less() {
        let mut cold = lts();
        let mut warm = lts();
        warm.set_t_k(283.15);
        let _ = cold.feed(&feed(), 10.0);
        let _ = warm.feed(&feed(), 10.0);
        assert!(warm.last_liquid_in() < cold.last_liquid_in());
    }
}
