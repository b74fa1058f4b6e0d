//! Material streams.

use std::fmt;

use crate::thermo::{flash, Composition, FlashResult};

/// A material stream: molar flow, temperature, pressure and composition.
///
/// # Example
///
/// ```
/// use evm_plant::{Composition, Stream};
/// let feed = Stream::new(1440.0, 303.15, 6200.0, Composition::raw_natural_gas());
/// assert!(feed.flash().vapor_fraction > 0.9);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Stream {
    /// Molar flow, kmol/h.
    pub molar_flow: f64,
    /// Temperature, K.
    pub t_k: f64,
    /// Pressure, kPa.
    pub p_kpa: f64,
    /// Molar composition.
    pub composition: Composition,
}

impl Stream {
    /// Creates a stream.
    ///
    /// # Panics
    ///
    /// Panics if flow is negative or T/P are not strictly positive.
    #[must_use]
    pub fn new(molar_flow: f64, t_k: f64, p_kpa: f64, composition: Composition) -> Self {
        assert!(molar_flow >= 0.0 && molar_flow.is_finite(), "bad flow");
        assert!(t_k > 0.0, "temperature must be positive");
        assert!(p_kpa > 0.0, "pressure must be positive");
        Stream {
            molar_flow,
            t_k,
            p_kpa,
            composition,
        }
    }

    /// An empty (zero-flow) stream at the given conditions.
    #[must_use]
    pub fn empty_like(&self) -> Stream {
        Stream {
            molar_flow: 0.0,
            ..*self
        }
    }

    /// Mass flow, kg/h.
    #[must_use]
    pub fn mass_flow(&self) -> f64 {
        self.molar_flow * self.composition.molecular_weight()
    }

    /// Equilibrium flash at the stream's own T and P.
    #[must_use]
    pub fn flash(&self) -> FlashResult {
        flash(&self.composition, self.t_k, self.p_kpa)
    }

    /// Splits this stream into `(vapor, liquid)` streams at equilibrium.
    #[must_use]
    pub fn split_phases(&self) -> (Stream, Stream) {
        self.split_by(&self.flash())
    }

    /// Splits this stream into `(vapor, liquid)` by an already computed
    /// flash of its composition at its T and P.
    pub(crate) fn split_by(&self, res: &FlashResult) -> (Stream, Stream) {
        let vapor = Stream {
            molar_flow: self.molar_flow * res.vapor_fraction,
            composition: res.vapor,
            ..*self
        };
        let liquid = Stream {
            molar_flow: self.molar_flow * (1.0 - res.vapor_fraction),
            composition: res.liquid,
            ..*self
        };
        (vapor, liquid)
    }

    /// Returns this stream at a different temperature (heating/cooling at
    /// constant pressure and composition).
    #[must_use]
    pub fn at_temperature(&self, t_k: f64) -> Stream {
        assert!(t_k > 0.0, "temperature must be positive");
        Stream { t_k, ..*self }
    }

    /// Mixes two streams: flows add, composition is mole-weighted,
    /// temperature is flow-weighted, pressure is the lower of the two.
    ///
    /// # Panics
    ///
    /// Panics if both streams have zero flow.
    #[must_use]
    pub fn mix(a: &Stream, b: &Stream) -> Stream {
        if a.molar_flow == 0.0 {
            return *b;
        }
        if b.molar_flow == 0.0 {
            return *a;
        }
        let total = a.molar_flow + b.molar_flow;
        Stream {
            molar_flow: total,
            t_k: (a.t_k * a.molar_flow + b.t_k * b.molar_flow) / total,
            p_kpa: a.p_kpa.min(b.p_kpa),
            composition: Composition::mix(
                &a.composition,
                a.molar_flow,
                &b.composition,
                b.molar_flow,
            ),
        }
    }
}

impl fmt::Display for Stream {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.1} kmol/h @ {:.1} K, {:.0} kPa [{}]",
            self.molar_flow, self.t_k, self.p_kpa, self.composition
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::thermo::Component;

    fn feed() -> Stream {
        Stream::new(1440.0, 303.15, 6200.0, Composition::raw_natural_gas())
    }

    #[test]
    fn mass_flow_uses_mw() {
        let s = Stream::new(100.0, 300.0, 1000.0, Composition::pure(Component::C1));
        assert!((s.mass_flow() - 1604.0).abs() < 1e-9);
    }

    #[test]
    fn phase_split_conserves_total_flow() {
        let s = feed().at_temperature(253.15);
        let (v, l) = s.split_phases();
        assert!((v.molar_flow + l.molar_flow - s.molar_flow).abs() < 1e-9);
        assert!(l.molar_flow > 0.0, "cold feed must condense");
        // Component balance on propane.
        let c3_in = s.molar_flow * s.composition.fraction(Component::C3);
        let c3_out = v.molar_flow * v.composition.fraction(Component::C3)
            + l.molar_flow * l.composition.fraction(Component::C3);
        assert!((c3_in - c3_out).abs() < 1e-6);
    }

    #[test]
    fn mix_conserves_flow_and_components() {
        let a = Stream::new(100.0, 300.0, 6000.0, Composition::pure(Component::C1));
        let b = Stream::new(50.0, 250.0, 5000.0, Composition::pure(Component::C3));
        let m = Stream::mix(&a, &b);
        assert!((m.molar_flow - 150.0).abs() < 1e-12);
        assert!((m.composition.fraction(Component::C3) - 1.0 / 3.0).abs() < 1e-12);
        assert_eq!(m.p_kpa, 5000.0);
        // Flow-weighted temperature.
        assert!((m.t_k - (300.0 * 100.0 + 250.0 * 50.0) / 150.0).abs() < 1e-9);
    }

    #[test]
    fn mix_with_empty_is_identity() {
        let a = feed();
        let empty = a.empty_like();
        assert_eq!(Stream::mix(&a, &empty), a);
        assert_eq!(Stream::mix(&empty, &a), a);
    }

    #[test]
    #[should_panic(expected = "temperature must be positive")]
    fn bad_temperature_panics() {
        let _ = feed().at_temperature(0.0);
    }
}
