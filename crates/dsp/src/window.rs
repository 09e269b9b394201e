//! Window functions for spectral estimation (Welch PSD).

use std::f64::consts::PI;

/// Supported window shapes.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Window {
    /// Rectangular (no tapering). Highest leakage, narrowest main lobe.
    Rectangular,
    /// Hamming window: first sidelobe about −43 dB.
    Hamming,
    /// Hann window: sidelobes fall off at 18 dB/octave.
    Hann,
    /// Blackman window: first sidelobe about −58 dB.
    Blackman,
}

impl Window {
    /// Evaluates the window at tap `n` of an `len`-tap window.
    ///
    /// Uses the symmetric convention: `w(0) == w(len-1)`.
    pub fn value(self, n: usize, len: usize) -> f64 {
        assert!(len >= 1, "window length must be >= 1");
        if len == 1 {
            return 1.0;
        }
        let x = n as f64 / (len - 1) as f64; // 0..=1
        match self {
            Window::Rectangular => 1.0,
            Window::Hamming => 0.54 - 0.46 * (2.0 * PI * x).cos(),
            Window::Hann => 0.5 - 0.5 * (2.0 * PI * x).cos(),
            Window::Blackman => 0.42 - 0.5 * (2.0 * PI * x).cos() + 0.08 * (4.0 * PI * x).cos(),
        }
    }

    /// Generates the full window as a vector of `len` coefficients.
    pub fn coefficients(self, len: usize) -> Vec<f64> {
        (0..len).map(|n| self.value(n, len)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn windows_are_symmetric() {
        for w in [
            Window::Rectangular,
            Window::Hamming,
            Window::Hann,
            Window::Blackman,
        ] {
            let c = w.coefficients(33);
            for i in 0..c.len() {
                assert!(
                    (c[i] - c[c.len() - 1 - i]).abs() < 1e-12,
                    "{w:?} not symmetric at {i}"
                );
            }
        }
    }

    #[test]
    fn windows_peak_at_center() {
        for w in [Window::Hamming, Window::Hann, Window::Blackman] {
            let c = w.coefficients(65);
            let peak = c[32];
            assert!((peak - 1.0).abs() < 1e-9, "{w:?} center is {peak}");
            for (i, &v) in c.iter().enumerate() {
                assert!(v <= peak + 1e-12, "{w:?} exceeds center at {i}");
            }
        }
    }

    #[test]
    fn hann_endpoints_are_zero() {
        let c = Window::Hann.coefficients(16);
        assert!(c[0].abs() < 1e-12);
        assert!(c[15].abs() < 1e-12);
    }

    #[test]
    fn hamming_endpoints() {
        let c = Window::Hamming.coefficients(16);
        assert!((c[0] - 0.08).abs() < 1e-12);
    }

    #[test]
    fn length_one_window_is_unity() {
        for w in [Window::Hamming, Window::Hann, Window::Blackman] {
            assert_eq!(w.coefficients(1), vec![1.0]);
        }
    }
}
