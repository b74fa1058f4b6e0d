//! Vapor–liquid equilibrium: Wilson K-values and Rachford–Rice flash.
//!
//! The Wilson correlation estimates equilibrium ratios from critical
//! properties only — standard practice for light-hydrocarbon systems away
//! from the critical region, and exactly the fidelity level needed here:
//! the EVM experiments depend on *how much liquid condenses at the chiller
//! outlet*, not on fourth-digit VLE accuracy.

use super::mixture::Composition;
use super::species::{Component, N_COMPONENTS};

/// Wilson K-value of component `c` at temperature `t_k` (K) and pressure
/// `p_kpa` (kPa):
///
/// `K = (Pc/P) · exp[5.373 (1 + ω)(1 − Tc/T)]`
///
/// # Panics
///
/// Panics if temperature or pressure is not strictly positive.
#[must_use]
pub fn wilson_k(c: Component, t_k: f64, p_kpa: f64) -> f64 {
    assert!(t_k > 0.0, "temperature must be positive (K)");
    assert!(p_kpa > 0.0, "pressure must be positive (kPa)");
    (c.pc_kpa() / p_kpa) * (5.373 * (1.0 + c.omega()) * (1.0 - c.tc_k() / t_k)).exp()
}

/// Result of an isothermal two-phase flash.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlashResult {
    /// Molar vapor fraction `V/F` in `[0, 1]`.
    pub vapor_fraction: f64,
    /// Liquid-phase composition.
    pub liquid: Composition,
    /// Vapor-phase composition.
    pub vapor: Composition,
}

impl FlashResult {
    /// `true` if both phases are present.
    #[must_use]
    pub fn is_two_phase(&self) -> bool {
        self.vapor_fraction > 0.0 && self.vapor_fraction < 1.0
    }
}

/// Isothermal flash of feed `z` at `t_k` / `p_kpa` using Wilson K-values
/// and a bisection solve of the Rachford–Rice equation
/// `Σ zᵢ(Kᵢ−1)/(1 + V(Kᵢ−1)) = 0`.
#[must_use]
pub fn flash(z: &Composition, t_k: f64, p_kpa: f64) -> FlashResult {
    let k: [f64; N_COMPONENTS] = std::array::from_fn(|i| wilson_k(Component::ALL[i], t_k, p_kpa));

    let rr = |v: f64| -> f64 {
        Component::ALL
            .iter()
            .enumerate()
            .map(|(i, &c)| {
                let zi = z.fraction(c);
                zi * (k[i] - 1.0) / (1.0 + v * (k[i] - 1.0))
            })
            .sum()
    };

    // Phase-boundary checks: f(0) <= 0 -> subcooled liquid; f(1) >= 0 ->
    // superheated vapor.
    if rr(0.0) <= 0.0 {
        return FlashResult {
            vapor_fraction: 0.0,
            liquid: *z,
            vapor: vapor_comp(z, &k, 0.0),
        };
    }
    if rr(1.0) >= 0.0 {
        return FlashResult {
            vapor_fraction: 1.0,
            liquid: liquid_comp(z, &k, 1.0),
            vapor: *z,
        };
    }

    // Bisection on [0, 1]: rr is monotone decreasing in V. Once the
    // midpoint rounds onto an endpoint the bracket is a fixed point (the
    // update either leaves it unchanged or collapses it onto `mid`), so
    // every further iteration — and the final midpoint — yields `mid`
    // again: stopping there is bit-identical to running all 80.
    let mut lo = 0.0f64;
    let mut hi = 1.0f64;
    let mut v = 0.5 * (lo + hi);
    for _ in 0..80 {
        if v == lo || v == hi {
            break;
        }
        if rr(v) > 0.0 {
            lo = v;
        } else {
            hi = v;
        }
        v = 0.5 * (lo + hi);
    }
    FlashResult {
        vapor_fraction: v,
        liquid: liquid_comp(z, &k, v),
        vapor: vapor_comp(z, &k, v),
    }
}

fn liquid_comp(z: &Composition, k: &[f64], v: f64) -> Composition {
    let mut x = [0.0; N_COMPONENTS];
    for (i, &c) in Component::ALL.iter().enumerate() {
        x[i] = z.fraction(c) / (1.0 + v * (k[i] - 1.0));
    }
    Composition::new(x)
}

fn vapor_comp(z: &Composition, k: &[f64], v: f64) -> Composition {
    let mut y = [0.0; N_COMPONENTS];
    for (i, &c) in Component::ALL.iter().enumerate() {
        y[i] = z.fraction(c) * k[i] / (1.0 + v * (k[i] - 1.0));
    }
    Composition::new(y)
}

#[cfg(test)]
mod tests {
    use super::*;
    use evm_sim::SimRng;

    const LTS_T: f64 = 253.15; // -20 C
    const LTS_P: f64 = 6000.0;

    #[test]
    fn wilson_k_ordering_follows_volatility() {
        // At LTS conditions: methane is supercritical-light (K >> 1),
        // butanes are heavy (K << 1).
        let k_c1 = wilson_k(Component::C1, LTS_T, LTS_P);
        let k_c3 = wilson_k(Component::C3, LTS_T, LTS_P);
        let k_nc4 = wilson_k(Component::NC4, LTS_T, LTS_P);
        assert!(k_c1 > 1.0, "K_C1 = {k_c1}");
        assert!(k_c3 < 1.0, "K_C3 = {k_c3}");
        assert!(k_nc4 < k_c3, "butane heavier than propane");
    }

    #[test]
    fn wilson_k_increases_with_temperature() {
        let cold = wilson_k(Component::C3, 250.0, 6000.0);
        let warm = wilson_k(Component::C3, 300.0, 6000.0);
        assert!(warm > cold);
    }

    #[test]
    fn chilled_feed_is_two_phase() {
        let feed = Composition::raw_natural_gas();
        let res = flash(&feed, LTS_T, LTS_P);
        assert!(res.is_two_phase(), "V = {}", res.vapor_fraction);
        // Most of the stream stays gas; a meaningful liquid cut forms.
        assert!(res.vapor_fraction > 0.5 && res.vapor_fraction < 0.99);
        // Liquid is enriched in propane+.
        assert!(res.liquid.fraction(Component::C3) > feed.fraction(Component::C3));
        assert!(res.vapor.fraction(Component::C1) > feed.fraction(Component::C1));
    }

    #[test]
    fn warm_high_pressure_feed_is_mostly_vapor() {
        let feed = Composition::raw_natural_gas();
        let res = flash(&feed, 303.15, 6200.0);
        assert!(res.vapor_fraction > 0.9, "V = {}", res.vapor_fraction);
    }

    #[test]
    fn hot_feed_is_all_vapor() {
        let feed = Composition::raw_natural_gas();
        let res = flash(&feed, 400.0, 3000.0);
        assert_eq!(res.vapor_fraction, 1.0);
        assert_eq!(res.vapor, feed);
    }

    #[test]
    fn cryogenic_butane_is_all_liquid() {
        let feed = Composition::pure(Component::NC4);
        let res = flash(&feed, 250.0, 2000.0);
        assert_eq!(res.vapor_fraction, 0.0);
        assert_eq!(res.liquid, feed);
    }

    /// Draws a random feed composition and flash conditions from a seeded
    /// generator.
    fn random_case(rng: &mut SimRng) -> (Composition, f64, f64) {
        let mut raw = [0.0; N_COMPONENTS];
        for x in &mut raw {
            *x = rng.range(0.01, 10.0);
        }
        (
            Composition::new(raw),
            rng.range(200.0, 400.0),
            rng.range(500.0, 8000.0),
        )
    }

    /// Component material balance: V·yᵢ + (1−V)·xᵢ = zᵢ, over many random
    /// feeds and conditions.
    #[test]
    fn flash_material_balance_holds_randomly() {
        let mut rng = SimRng::seed_from(0xF1A5);
        for _ in 0..256 {
            let (z, t, p) = random_case(&mut rng);
            let res = flash(&z, t, p);
            let v = res.vapor_fraction;
            for c in Component::ALL {
                let recon = v * res.vapor.fraction(c) + (1.0 - v) * res.liquid.fraction(c);
                assert!(
                    (recon - z.fraction(c)).abs() < 1e-6,
                    "{c}: {recon} vs {}",
                    z.fraction(c)
                );
            }
        }
    }

    /// Phase compositions are valid compositions.
    #[test]
    fn flash_phases_normalized_randomly() {
        let mut rng = SimRng::seed_from(0xF1A6);
        for _ in 0..256 {
            let (z, t, p) = random_case(&mut rng);
            let res = flash(&z, t, p);
            let sx: f64 = res.liquid.fractions().iter().sum();
            let sy: f64 = res.vapor.fractions().iter().sum();
            assert!((sx - 1.0).abs() < 1e-9);
            assert!((sy - 1.0).abs() < 1e-9);
            assert!((0.0..=1.0).contains(&res.vapor_fraction));
        }
    }

    /// The bisection as it ran before the early exit: always 80
    /// iterations, then the final midpoint. Kept as the oracle the early
    /// exit must reproduce bit for bit.
    fn flash_full_bisection(z: &Composition, t_k: f64, p_kpa: f64) -> FlashResult {
        let k: [f64; N_COMPONENTS] =
            std::array::from_fn(|i| wilson_k(Component::ALL[i], t_k, p_kpa));
        let rr = |v: f64| -> f64 {
            Component::ALL
                .iter()
                .enumerate()
                .map(|(i, &c)| z.fraction(c) * (k[i] - 1.0) / (1.0 + v * (k[i] - 1.0)))
                .sum()
        };
        if rr(0.0) <= 0.0 {
            return FlashResult {
                vapor_fraction: 0.0,
                liquid: *z,
                vapor: vapor_comp(z, &k, 0.0),
            };
        }
        if rr(1.0) >= 0.0 {
            return FlashResult {
                vapor_fraction: 1.0,
                liquid: liquid_comp(z, &k, 1.0),
                vapor: *z,
            };
        }
        let mut lo = 0.0f64;
        let mut hi = 1.0f64;
        for _ in 0..80 {
            let mid = 0.5 * (lo + hi);
            if rr(mid) > 0.0 {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let v = 0.5 * (lo + hi);
        FlashResult {
            vapor_fraction: v,
            liquid: liquid_comp(z, &k, v),
            vapor: vapor_comp(z, &k, v),
        }
    }

    fn assert_bits_eq(a: &FlashResult, b: &FlashResult, what: &str) {
        assert_eq!(
            a.vapor_fraction.to_bits(),
            b.vapor_fraction.to_bits(),
            "{what}: V {} vs {}",
            a.vapor_fraction,
            b.vapor_fraction
        );
        let phases = [
            (a.liquid.fractions(), b.liquid.fractions()),
            (a.vapor.fractions(), b.vapor.fractions()),
        ];
        for (pa, pb) in phases {
            for (x, y) in pa.iter().zip(pb) {
                assert_eq!(x.to_bits(), y.to_bits(), "{what}: fraction {x} vs {y}");
            }
        }
    }

    /// The early exit returns exactly what the full 80-step bisection
    /// returns, on random feeds and at both plant design points.
    #[test]
    fn early_exit_matches_full_bisection_bitwise() {
        let mut rng = SimRng::seed_from(0xF1A8);
        let mut two_phase = 0;
        for i in 0..2048 {
            let (z, t, p) = random_case(&mut rng);
            let res = flash(&z, t, p);
            two_phase += usize::from(res.is_two_phase());
            assert_bits_eq(&res, &flash_full_bisection(&z, t, p), &format!("case {i}"));
        }
        assert!(two_phase > 100, "too few two-phase cases: {two_phase}");

        let feed = Composition::raw_natural_gas();
        let inlet = flash(&feed, 303.15, 6200.0);
        assert_bits_eq(
            &inlet,
            &flash_full_bisection(&feed, 303.15, 6200.0),
            "inlet",
        );
        assert_bits_eq(
            &flash(&inlet.vapor, LTS_T, LTS_P),
            &flash_full_bisection(&inlet.vapor, LTS_T, LTS_P),
            "LTS",
        );
    }

    /// Cooling at fixed pressure can only condense more.
    #[test]
    fn cooling_condenses_randomly() {
        let mut rng = SimRng::seed_from(0xF1A7);
        for _ in 0..256 {
            let t = rng.range(220.0, 350.0);
            let p = rng.range(1000.0, 7000.0);
            let z = Composition::raw_natural_gas();
            let warm = flash(&z, t + 20.0, p);
            let cold = flash(&z, t, p);
            assert!(cold.vapor_fraction <= warm.vapor_fraction + 1e-9);
        }
    }
}
