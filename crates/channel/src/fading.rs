//! Small-scale fading: complex link gains with Rayleigh/Rician statistics.
//!
//! The paper's experiments are static (nothing moves during a run), so the
//! medium draws one complex gain per link per run. Indoor links with line
//! of sight are Rician (strong direct path plus scatter); heavily
//! obstructed links approach Rayleigh.

use hb_dsp::complex::C64;
use hb_dsp::noise::{complex_gaussian_from_uniforms, normal_uniforms};
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

/// The most uniforms one [`Fading::draw`] takes (`Rician`).
pub const MAX_FADING_UNIFORMS: usize = 5;

impl Fading {
    /// Draws a unit-mean-power complex gain with these statistics:
    /// [`Fading::draw_uniforms`], then [`Fading::from_uniforms`].
    pub fn draw<R: Rng + ?Sized>(&self, rng: &mut R) -> C64 {
        let mut u = [0.0; MAX_FADING_UNIFORMS];
        self.draw_uniforms(rng, &mut u);
        self.from_uniforms(&u)
    }

    /// Draws the uniforms one gain takes, in stream order: `None` draws
    /// the phase (1); `Rayleigh` the two [`normal_uniforms`] pairs of its
    /// complex Gaussian (4); `Rician` the direct path's phase, then the
    /// scatter's two pairs (5). Entries past the count are left as they
    /// are.
    pub fn draw_uniforms<R: Rng + ?Sized>(&self, rng: &mut R, u: &mut [f64; MAX_FADING_UNIFORMS]) {
        match *self {
            Fading::None => u[0] = rng.gen(),
            Fading::Rayleigh => {
                [u[0], u[1]] = normal_uniforms(rng);
                [u[2], u[3]] = normal_uniforms(rng);
            }
            Fading::Rician(_) => {
                u[0] = rng.gen();
                [u[1], u[2]] = normal_uniforms(rng);
                [u[3], u[4]] = normal_uniforms(rng);
            }
        }
    }

    /// The gain of one draw's uniforms ([`Fading::draw_uniforms`]): a
    /// pure function, so drawing a batch first and transforming it after
    /// gives the same bits as [`Fading::draw`].
    pub fn from_uniforms(&self, u: &[f64; MAX_FADING_UNIFORMS]) -> C64 {
        match *self {
            Fading::None => C64::from_polar(1.0, u[0] * std::f64::consts::TAU),
            Fading::Rayleigh => complex_gaussian_from_uniforms([u[0], u[1], u[2], u[3]], 1.0),
            Fading::Rician(k) => {
                assert!(k >= 0.0, "Rician K must be non-negative");
                // Direct path carries k/(k+1) of the power, scatter 1/(k+1).
                let direct = C64::from_polar((k / (k + 1.0)).sqrt(), u[0] * std::f64::consts::TAU);
                direct + complex_gaussian_from_uniforms([u[1], u[2], u[3], u[4]], 1.0 / (k + 1.0))
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
    fn split_draw_matches_the_scalar_formulas() {
        // The uniforms/transform split must reproduce the inline draws bit
        // for bit: a phase uniform, then Box–Muller cosine variates whose
        // `u1` is clamped at 1e-300.
        fn normal(rng: &mut StdRng) -> f64 {
            let u1 = rng.gen::<f64>().max(1e-300);
            let u2: f64 = rng.gen();
            (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
        }
        fn scatter(rng: &mut StdRng, variance: f64) -> C64 {
            let s = (variance / 2.0).sqrt();
            let re = normal(rng) * s;
            C64::new(re, normal(rng) * s)
        }
        let tau = std::f64::consts::TAU;
        for fading in [Fading::None, Fading::Rayleigh, Fading::Rician(3.5)] {
            let (mut a, mut b) = (StdRng::seed_from_u64(9), StdRng::seed_from_u64(9));
            for _ in 0..200 {
                let want = match fading {
                    Fading::None => C64::from_polar(1.0, b.gen::<f64>() * tau),
                    Fading::Rayleigh => scatter(&mut b, 1.0),
                    Fading::Rician(k) => {
                        let direct = C64::from_polar((k / (k + 1.0)).sqrt(), b.gen::<f64>() * tau);
                        direct + scatter(&mut b, 1.0 / (k + 1.0))
                    }
                };
                let got = fading.draw(&mut a);
                assert_eq!(
                    (got.re.to_bits(), got.im.to_bits()),
                    (want.re.to_bits(), want.im.to_bits()),
                    "{fading:?}"
                );
            }
        }
    }

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
