//! The Fig. 6 testbed layout.
//!
//! The paper's evaluation places the IMD (implanted in bacon/ground beef)
//! and the shield at fixed positions in an office, and moves the adversary
//! among 18 numbered locations "between 20 cm and 30 m", mixing
//! line-of-sight and non-line-of-sight spots, *numbered in descending
//! order of received signal strength at the shield*.
//!
//! The original floor plan is not published, so this module reconstructs a
//! layout with the properties the paper reports (see DESIGN.md →
//! "Calibrated physical constants"):
//!
//! * location 1 is 20 cm away (closest eavesdropping/attack test);
//! * location 8 is ~14 m — the farthest spot where the FCC-power attacker
//!   still succeeds without the shield (Fig. 11/12), with locations 6–8
//!   marginal (success 0.94/0.77/0.59);
//! * location 13 is ~27 m — the farthest success for the 100×-power
//!   attacker without the shield (Fig. 13);
//! * locations above 13 are distant non-line-of-sight spots where even
//!   the 100× attacker fails;
//! * ordering by loss under the calibrated pathloss model is monotone, so
//!   "descending RSS" numbering holds by construction.

use hb_channel::geometry::Placement;
use hb_channel::pathloss::PathlossModel;

/// One adversary location in the testbed.
#[derive(Debug, Clone, Copy)]
pub struct Location {
    /// Paper-style location number (1-based).
    pub index: usize,
    /// Distance from the IMD/shield cluster, meters.
    pub distance_m: f64,
    /// Whether the spot has line of sight to the cluster.
    pub line_of_sight: bool,
}

impl Location {
    /// Location `index` (1-based) of the reconstructed Fig. 6 layout.
    pub fn paper(index: usize) -> Location {
        let (distance_m, line_of_sight) = PAPER_LOCATIONS[index - 1];
        Location {
            index,
            distance_m,
            line_of_sight,
        }
    }

    /// The placement for this location (positions along +x; only the
    /// distance and LOS flag matter to the channel model).
    pub fn placement(&self, label: &str) -> Placement {
        if self.line_of_sight {
            Placement::los(label, self.distance_m, 0.0)
        } else {
            Placement::nlos(label, self.distance_m, 0.0)
        }
    }
}

/// The full testbed geometry.
#[derive(Debug, Clone)]
pub struct Fig6Layout {
    /// The 18 adversary locations, ordered by descending RSS at the shield.
    pub locations: Vec<Location>,
    /// Shield distance from the IMD, meters (worn as a necklace/brooch —
    /// well under half a wavelength, the §3.2 requirement that defeats
    /// MIMO/directional-antenna adversaries).
    pub shield_offset_m: f64,
}

/// The 18 locations of the reconstructed Fig. 6 layout, in paper order:
/// (distance from the IMD/shield cluster in meters, line of sight).
const PAPER_LOCATIONS: [(f64, bool); 18] = [
    (0.20, true),  // 1  — the 20 cm eavesdropper/attacker
    (1.50, true),  // 2
    (2.50, true),  // 3
    (4.00, true),  // 4  — last 100x success with shield (Fig. 13)
    (6.00, true),  // 5
    (3.50, false), // 6  — near NLOS (Fig. 11: 0.94)
    (13.0, true),  // 7
    (14.0, true),  // 8  — FCC-power limit without shield
    (9.00, false), // 9  — first clear failure for FCC power
    (24.0, true),  // 10
    (11.0, false), // 11
    (12.0, false), // 12
    (27.0, true),  // 13 — 100x limit without shield
    (22.0, false), // 14
    (25.0, false), // 15
    (28.0, false), // 16
    (30.0, false), // 17
    (30.5, false), // 18
];

impl Default for Fig6Layout {
    fn default() -> Self {
        Self::paper()
    }
}

impl Fig6Layout {
    /// The reconstructed Fig. 6 layout.
    pub fn paper() -> Self {
        Fig6Layout {
            locations: (1..=PAPER_LOCATIONS.len()).map(Location::paper).collect(),
            shield_offset_m: 0.25,
        }
    }

    /// Location by paper number (1-based).
    pub fn location(&self, index: usize) -> &Location {
        &self.locations[index - 1]
    }

    /// Median link loss from a location to the cluster under `model`
    /// (air + NLOS; no body term — that belongs to the IMD's own link).
    pub fn loss_db(&self, model: &PathlossModel, index: usize) -> f64 {
        let loc = self.location(index);
        let a = loc.placement("x");
        let cluster = Placement::los("cluster", 0.0, 0.0);
        model.link_loss_db(&a, &cluster)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eighteen_locations_paper_distances() {
        let l = Fig6Layout::paper();
        assert_eq!(l.locations.len(), 18);
        assert!((l.location(1).distance_m - 0.2).abs() < 1e-9);
        assert!((l.location(8).distance_m - 14.0).abs() < 1e-9);
        assert!((l.location(13).distance_m - 27.0).abs() < 1e-9);
        // Spanning "between 20 cm and 30 m".
        let max = l
            .locations
            .iter()
            .map(|x| x.distance_m)
            .fold(0.0f64, f64::max);
        assert!((30.0..31.0).contains(&max));
    }

    #[test]
    fn ordering_is_descending_rss() {
        // Location numbering must be ascending in link loss (descending in
        // received signal strength), as the paper's figure states.
        let l = Fig6Layout::paper();
        let model = PathlossModel::mics_indoor();
        let mut last = f64::NEG_INFINITY;
        for i in 1..=18 {
            let loss = l.loss_db(&model, i);
            assert!(
                loss >= last - 1e-9,
                "location {i} loss {loss} breaks descending-RSS order (prev {last})"
            );
            last = loss;
        }
    }

    #[test]
    fn mix_of_los_and_nlos() {
        let l = Fig6Layout::paper();
        let los = l.locations.iter().filter(|x| x.line_of_sight).count();
        assert!((6..=12).contains(&los), "{los} LOS locations");
    }

    #[test]
    fn shield_is_wearably_close() {
        let l = Fig6Layout::paper();
        // Far less than half a wavelength (37.5 cm): the anti-MIMO
        // requirement of §3.2.
        assert!(l.shield_offset_m < 0.375 / 2.0 + 0.1);
        assert!(l.shield_offset_m > 0.0);
    }

    #[test]
    fn placements_carry_los_flag() {
        let l = Fig6Layout::paper();
        assert!(l.location(1).placement("a").line_of_sight);
        assert!(!l.location(9).placement("a").line_of_sight);
    }
}
