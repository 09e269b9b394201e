//! Small-scale fading: complex link gains with Rayleigh/Rician statistics.
//!
//! The paper's experiments are static (nothing moves during a run), so the
//! medium draws one complex gain per link per run. Indoor links with line
//! of sight are Rician (strong direct path plus scatter); heavily
//! obstructed links approach Rayleigh.

use hb_dsp::complex::C64;
use hb_dsp::noise::complex_gaussian;
use rand::Rng;

/// Small-scale fading statistics for a link.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fading {
    /// No fading: deterministic gain with uniform random phase.
    None,
    /// Rician fading with the given K-factor (ratio of direct-path power
    /// to scattered power, linear). K → ∞ approaches `None`.
    Rician(f64),
    /// Rayleigh fading (no direct path) — equivalent to `Rician(0)`.
    Rayleigh,
}

impl Fading {
    /// Draws a unit-mean-power complex gain with these statistics.
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> C64 {
        match *self {
            Fading::None => C64::from_polar(1.0, rng.gen::<f64>() * std::f64::consts::TAU),
            Fading::Rayleigh => complex_gaussian(rng, 1.0),
            Fading::Rician(k) => {
                assert!(k >= 0.0, "Rician K must be non-negative");
                // Direct path carries k/(k+1) of the power, scatter 1/(k+1).
                let direct = C64::from_polar(
                    (k / (k + 1.0)).sqrt(),
                    rng.gen::<f64>() * std::f64::consts::TAU,
                );
                direct + complex_gaussian(rng, 1.0 / (k + 1.0))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn none_has_unit_magnitude_random_phase() {
        let mut rng = StdRng::seed_from_u64(1);
        let mut phases = Vec::new();
        for _ in 0..100 {
            let g = Fading::None.draw(&mut rng);
            assert!((g.abs() - 1.0).abs() < 1e-12);
            phases.push(g.arg());
        }
        // Phases spread over the circle.
        let spread = phases.iter().cloned().fold(f64::MIN, f64::max)
            - phases.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread > 3.0);
    }

    #[test]
    fn rayleigh_unit_mean_power() {
        let mut rng = StdRng::seed_from_u64(2);
        let n = 50_000;
        let p: f64 = (0..n)
            .map(|_| Fading::Rayleigh.draw(&mut rng).norm_sq())
            .sum::<f64>()
            / n as f64;
        assert!((p - 1.0).abs() < 0.03, "power {p}");
    }

    #[test]
    fn rician_unit_mean_power_and_lower_variance() {
        let mut rng = StdRng::seed_from_u64(3);
        let n = 50_000;
        let k = 10.0;
        let powers: Vec<f64> = (0..n)
            .map(|_| Fading::Rician(k).draw(&mut rng).norm_sq())
            .collect();
        let mean = powers.iter().sum::<f64>() / n as f64;
        assert!((mean - 1.0).abs() < 0.03, "power {mean}");
        // High-K Rician has much smaller power variance than Rayleigh.
        let var = powers.iter().map(|p| (p - mean) * (p - mean)).sum::<f64>() / n as f64;
        assert!(var < 0.3, "variance {var}");
    }

    #[test]
    fn rician_zero_k_is_rayleigh_like() {
        let mut rng = StdRng::seed_from_u64(4);
        let n = 50_000;
        let p: f64 = (0..n)
            .map(|_| Fading::Rician(0.0).draw(&mut rng).norm_sq())
            .sum::<f64>()
            / n as f64;
        assert!((p - 1.0).abs() < 0.03);
    }
}
