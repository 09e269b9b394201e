//! Pathloss models for the 402–405 MHz MICS band.
//!
//! Three pieces, mirroring the decomposition the paper itself uses
//! (`L = L_body + L_air`, §6(b)):
//!
//! * **Air**: log-distance with a free-space (n = 2) segment up to an
//!   indoor breakpoint, a steeper (n = 3.5) segment beyond it, and a
//!   **near-field coupling floor** — below roughly a wavelength, small
//!   400 MHz antennas couple far less efficiently than ideal free-space
//!   math suggests, so the loss never drops below `min_coupling_db`.
//!   The floor is what makes jamming-based protection behave the same for
//!   a 20 cm adversary as for the shield's own antennas a few cm apart
//!   (calibrated against Fig. 8a and Fig. 13 of the paper).
//! * **Body**: a fixed in-body attenuation applied per body-boundary
//!   crossing; §7(b) cites "as high as 40 dB" for implant depth \[47\].
//! * **NLOS**: a fixed penalty for non-line-of-sight placements plus
//!   per-link lognormal shadowing.

use crate::geometry::Placement;
use hb_dsp::noise::{normal_from_uniforms, normal_uniforms};
use hb_dsp::units::{db_from_ratio, wavelength_m};
use rand::Rng;

/// Free-space pathloss in dB at distance `d_m` meters for frequency
/// `freq_hz` (the standard Friis form, `20·log10(4πd/λ)`).
pub fn free_space_db(d_m: f64, freq_hz: f64) -> f64 {
    free_space_at(d_m, wavelength_m(freq_hz))
}

/// [`free_space_db`] for a known wavelength `lambda_m`.
fn free_space_at(d_m: f64, lambda_m: f64) -> f64 {
    db_from_ratio((4.0 * std::f64::consts::PI * d_m / lambda_m).powi(2))
}

/// Parameters of the composite indoor MICS pathloss model.
#[derive(Debug, Clone, Copy)]
pub struct PathlossModel {
    /// Carrier frequency, Hz.
    pub freq_hz: f64,
    /// Minimum over-the-air coupling loss, dB (near-field floor).
    pub min_coupling_db: f64,
    /// Breakpoint distance, m: free-space up to here.
    pub breakpoint_m: f64,
    /// Pathloss exponent beyond the breakpoint.
    pub far_exponent: f64,
    /// Extra loss for non-line-of-sight links, dB.
    pub nlos_penalty_db: f64,
    /// Lognormal shadowing standard deviation, dB (drawn once per link).
    pub shadowing_sigma_db: f64,
    /// In-body attenuation per body-boundary crossing, dB.
    pub body_loss_db: f64,
}

impl Default for PathlossModel {
    fn default() -> Self {
        Self::mics_indoor()
    }
}

impl PathlossModel {
    /// The calibrated indoor model used by the testbed (DESIGN.md,
    /// "Calibrated physical constants").
    pub fn mics_indoor() -> Self {
        PathlossModel {
            freq_hz: 403.5e6,
            min_coupling_db: 27.0,
            breakpoint_m: 10.0,
            far_exponent: 3.5,
            nlos_penalty_db: 12.0,
            shadowing_sigma_db: 2.0,
            body_loss_db: 40.0,
        }
    }

    /// Ideal free-space variant (no floor, no breakpoint, no body) —
    /// useful for unit tests and theory comparisons.
    pub fn free_space(freq_hz: f64) -> Self {
        PathlossModel {
            freq_hz,
            min_coupling_db: 0.0,
            breakpoint_m: f64::INFINITY,
            far_exponent: 2.0,
            nlos_penalty_db: 0.0,
            shadowing_sigma_db: 0.0,
            body_loss_db: 0.0,
        }
    }

    /// Median over-the-air loss in dB at distance `d_m` (no body, no
    /// shadowing, LOS).
    pub fn air_loss_db(&self, d_m: f64) -> f64 {
        LinkLoss::new(self).air_loss_db(d_m)
    }

    /// Median total loss between two placements in dB: air loss over the
    /// distance, NLOS penalty if either endpoint lacks line of sight, and
    /// body loss for each endpoint inside tissue.
    pub fn link_loss_db(&self, a: &Placement, b: &Placement) -> f64 {
        LinkLoss::new(self).link_loss_db(a, b)
    }

    /// Draws the total loss including lognormal shadowing for one link:
    /// the shadowing normal's [`normal_uniforms`], then
    /// [`LinkLoss::shadowed_loss_db`].
    pub fn link_loss_db_shadowed<R: Rng + ?Sized>(
        &self,
        a: &Placement,
        b: &Placement,
        rng: &mut R,
    ) -> f64 {
        let [u1, u2] = normal_uniforms(rng);
        LinkLoss::new(self).shadowed_loss_db(a, b, u1, u2)
    }
}

/// A [`PathlossModel`] with its per-link invariants computed once: the
/// wavelength and the free-space loss at the breakpoint. The model's own
/// methods go through it, so a link's loss has one definition; a caller
/// computing many links (`Medium::build_links`) builds it once per pass.
#[derive(Debug, Clone, Copy)]
pub struct LinkLoss {
    model: PathlossModel,
    /// Carrier wavelength, m.
    lambda_m: f64,
    /// Free-space loss at the breakpoint, dB.
    breakpoint_db: f64,
}

impl LinkLoss {
    /// Precomputes `model`'s invariants.
    pub fn new(model: &PathlossModel) -> Self {
        let lambda_m = wavelength_m(model.freq_hz);
        LinkLoss {
            model: *model,
            lambda_m,
            breakpoint_db: free_space_at(model.breakpoint_m, lambda_m),
        }
    }

    /// [`PathlossModel::air_loss_db`].
    pub fn air_loss_db(&self, d_m: f64) -> f64 {
        let m = &self.model;
        let d = d_m.max(1e-3);
        let fs = if d <= m.breakpoint_m {
            free_space_at(d, self.lambda_m)
        } else {
            self.breakpoint_db + 10.0 * m.far_exponent * (d / m.breakpoint_m).log10()
        };
        fs.max(m.min_coupling_db)
    }

    /// [`PathlossModel::link_loss_db`].
    pub fn link_loss_db(&self, a: &Placement, b: &Placement) -> f64 {
        let m = &self.model;
        let mut loss = self.air_loss_db(a.position.distance(&b.position));
        if !a.line_of_sight || !b.line_of_sight {
            loss += m.nlos_penalty_db;
        }
        if a.in_body {
            loss += m.body_loss_db;
        }
        if b.in_body {
            loss += m.body_loss_db;
        }
        loss
    }

    /// The shadowed loss of one link from its shadowing normal's two
    /// uniforms ([`normal_uniforms`]): the pure half of
    /// [`PathlossModel::link_loss_db_shadowed`].
    pub fn shadowed_loss_db(&self, a: &Placement, b: &Placement, u1: f64, u2: f64) -> f64 {
        let shadow = normal_from_uniforms(u1, u2) * self.model.shadowing_sigma_db;
        self.link_loss_db(a, b) + shadow
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn free_space_reference_values() {
        // 403.5 MHz at 1 m: ~24.6 dB.
        let l1 = free_space_db(1.0, 403.5e6);
        assert!((l1 - 24.56).abs() < 0.1, "1m loss {l1}");
        // +20 dB per decade.
        let l10 = free_space_db(10.0, 403.5e6);
        assert!((l10 - l1 - 20.0).abs() < 1e-9);
    }

    #[test]
    fn near_field_floor_applies() {
        let m = PathlossModel::mics_indoor();
        // At 20 cm the raw Friis loss (~10.6 dB) is below the floor.
        assert_eq!(m.air_loss_db(0.2), 27.0);
        assert_eq!(m.air_loss_db(0.01), 27.0);
        // Beyond ~1.4 m the distance term dominates.
        assert!(m.air_loss_db(2.0) > 27.0);
    }

    #[test]
    fn breakpoint_changes_slope() {
        let m = PathlossModel::mics_indoor();
        let l_10 = m.air_loss_db(10.0);
        let l_20 = m.air_loss_db(20.0);
        let l_5 = m.air_loss_db(5.0);
        // Below breakpoint: 20 dB/decade => 10->5 m is ~6 dB.
        assert!((l_10 - l_5 - 6.02).abs() < 0.1);
        // Above breakpoint: 35 dB/decade => 10->20 m is ~10.5 dB.
        assert!((l_20 - l_10 - 10.54).abs() < 0.1);
    }

    #[test]
    fn loss_is_monotone_in_distance() {
        let m = PathlossModel::mics_indoor();
        let mut last = 0.0;
        for i in 1..300 {
            let d = i as f64 * 0.1;
            let l = m.air_loss_db(d);
            assert!(l >= last - 1e-12, "non-monotone at {d} m");
            last = l;
        }
    }

    #[test]
    fn body_and_nlos_terms() {
        let m = PathlossModel::mics_indoor();
        let imd = Placement::los("imd", 0.0, 0.0).implanted();
        let shield = Placement::los("shield", 0.25, 0.0);
        let eve_nlos = Placement::nlos("eve", 5.0, 0.0);

        let base = m.air_loss_db(0.25);
        assert!((m.link_loss_db(&imd, &shield) - (base + 40.0)).abs() < 1e-9);

        let air5 = m.air_loss_db(5.0);
        assert!((m.link_loss_db(&imd, &eve_nlos) - (air5 + 40.0 + 12.0)).abs() < 1e-9);

        // Two in-body endpoints cross the boundary twice.
        let imd2 = Placement::los("imd2", 0.1, 0.0).implanted();
        assert!(m.link_loss_db(&imd, &imd2) >= 27.0 + 80.0 - 1e-9);
    }

    #[test]
    fn link_loss_is_symmetric() {
        let m = PathlossModel::mics_indoor();
        let a = Placement::los("a", 0.0, 0.0).implanted();
        let b = Placement::nlos("b", 3.0, 4.0);
        assert_eq!(m.link_loss_db(&a, &b), m.link_loss_db(&b, &a));
    }

    #[test]
    fn shadowing_statistics() {
        let m = PathlossModel::mics_indoor();
        let a = Placement::los("a", 0.0, 0.0);
        let b = Placement::los("b", 5.0, 0.0);
        let median = m.link_loss_db(&a, &b);
        let mut rng = StdRng::seed_from_u64(42);
        let n = 20_000;
        let draws: Vec<f64> = (0..n)
            .map(|_| m.link_loss_db_shadowed(&a, &b, &mut rng))
            .collect();
        let mean = draws.iter().sum::<f64>() / n as f64;
        let var = draws.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
        assert!(
            (mean - median).abs() < 0.1,
            "mean {mean} vs median {median}"
        );
        assert!((var.sqrt() - 2.0).abs() < 0.1, "sigma {}", var.sqrt());
    }

    #[test]
    fn free_space_model_has_no_floor() {
        let m = PathlossModel::free_space(403.5e6);
        assert!(m.air_loss_db(0.2) < 12.0);
        let a = Placement::los("a", 0.0, 0.0);
        let b = Placement::nlos("b", 1.0, 0.0);
        // No NLOS penalty in the ideal model.
        assert!((m.link_loss_db(&a, &b) - m.air_loss_db(1.0)).abs() < 1e-9);
    }
}
