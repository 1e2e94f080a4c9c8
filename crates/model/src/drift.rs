//! Prediction-vs-observed drift detection for served models.
//!
//! A model that was accurate when trained goes stale as the workload
//! underneath it shifts (data growth, input-rate ramps, cluster changes —
//! the *online* regime LOCAT and the online-tuning line of work optimize
//! for). The [`ModelServer`](crate::server::ModelServer) therefore keeps a
//! rolling window of **relative residuals** per [`ModelKey`](crate::server::ModelKey)
//! (crate::server::ModelKey): every observed `(configuration, outcome)`
//! pair is compared against the served model's prediction, and when the
//! windowed mean relative error crosses the configured threshold the
//! server reports *drift* — the signal the lifecycle loop turns into a
//! full retrain plus cache invalidation.
//!
//! Residuals are relative (`|pred - obs| / max(|obs|, ε)`) so one scale
//! works for latency in seconds and cost in cores alike; non-finite
//! predictions are clamped to a large finite residual, because a model
//! that answers `NaN` has drifted by any definition.

use std::collections::VecDeque;

/// Residual assigned to a non-finite prediction: certain drift.
const NON_FINITE_RESIDUAL: f64 = 1e6;
/// Floor on `|observed|` in the relative-error denominator.
const OBS_FLOOR: f64 = 1e-9;

/// Drift-detection policy: window length and trigger threshold.
#[derive(Debug, Clone, Copy)]
pub struct DriftOptions {
    /// Number of recent observations the rolling residual window holds;
    /// drift can only trigger once the window is full.
    pub window: usize,
    /// Windowed mean relative error above which drift triggers.
    pub threshold: f64,
}

impl Default for DriftOptions {
    fn default() -> Self {
        Self { window: 32, threshold: 0.5 }
    }
}

impl DriftOptions {
    /// Validate the options (used by lifecycle construction).
    pub fn validate(&self) -> Result<(), String> {
        if self.window == 0 {
            return Err("drift.window must be >= 1".into());
        }
        if !(self.threshold.is_finite() && self.threshold > 0.0) {
            return Err(format!(
                "drift.threshold must be finite and positive, got {}",
                self.threshold
            ));
        }
        Ok(())
    }
}

/// Outcome of one drift observation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DriftVerdict {
    /// Windowed mean relative error after recording the observation.
    pub score: f64,
    /// Residuals currently in the window (after a trigger this resets to
    /// zero, so consecutive observations cannot re-fire on the same
    /// evidence).
    pub observations: usize,
    /// Whether this observation pushed a *full* window over the threshold.
    pub drifted: bool,
}

/// Rolling residual statistics for one model key.
#[derive(Debug, Default)]
pub struct DriftWindow {
    residuals: VecDeque<f64>,
    sum: f64,
}

impl DriftWindow {
    /// Relative residual of a prediction against an observed outcome.
    pub fn residual(predicted: f64, observed: f64) -> f64 {
        if !predicted.is_finite() || !observed.is_finite() {
            return NON_FINITE_RESIDUAL;
        }
        ((predicted - observed).abs() / observed.abs().max(OBS_FLOOR)).min(NON_FINITE_RESIDUAL)
    }

    /// Record one residual and evaluate the window under `opts`. On a
    /// trigger the window is cleared: the caller is expected to retrain,
    /// and the fresh model deserves a fresh window.
    pub fn record(&mut self, residual: f64, opts: &DriftOptions) -> DriftVerdict {
        let residual = if residual.is_finite() {
            residual.clamp(0.0, NON_FINITE_RESIDUAL)
        } else {
            NON_FINITE_RESIDUAL
        };
        self.residuals.push_back(residual);
        self.sum += residual;
        while self.residuals.len() > opts.window.max(1) {
            if let Some(old) = self.residuals.pop_front() {
                self.sum -= old;
            }
        }
        let score = self.score().unwrap_or(0.0);
        let full = self.residuals.len() >= opts.window.max(1);
        let drifted = full && score > opts.threshold;
        if drifted {
            self.reset();
        }
        DriftVerdict { score, observations: self.residuals.len(), drifted }
    }

    /// Current windowed mean relative error; `None` when no observations
    /// have been recorded since the last reset.
    pub fn score(&self) -> Option<f64> {
        if self.residuals.is_empty() {
            None
        } else {
            Some((self.sum / self.residuals.len() as f64).max(0.0))
        }
    }

    /// Forget all residuals (called after a drift-triggered retrain).
    pub fn reset(&mut self) {
        self.residuals.clear();
        self.sum = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn residual_is_relative_and_clamped() {
        assert!((DriftWindow::residual(12.0, 10.0) - 0.2).abs() < 1e-12);
        assert_eq!(DriftWindow::residual(f64::NAN, 10.0), NON_FINITE_RESIDUAL);
        assert_eq!(DriftWindow::residual(1.0, f64::INFINITY), NON_FINITE_RESIDUAL);
        // Tiny observed values do not blow the ratio past the clamp.
        assert!(DriftWindow::residual(5.0, 0.0) <= NON_FINITE_RESIDUAL);
    }

    #[test]
    fn drift_fires_only_on_a_full_window_over_threshold() {
        let opts = DriftOptions { window: 4, threshold: 0.3 };
        let mut w = DriftWindow::default();
        // Three large residuals: window not full yet, no trigger.
        for _ in 0..3 {
            assert!(!w.record(1.0, &opts).drifted);
        }
        // Fourth fills the window above threshold: trigger + reset.
        let v = w.record(1.0, &opts);
        assert!(v.drifted);
        assert!((v.score - 1.0).abs() < 1e-12);
        assert_eq!(w.score(), None, "window resets after a trigger");
    }

    #[test]
    fn accurate_models_never_trigger() {
        let opts = DriftOptions { window: 4, threshold: 0.3 };
        let mut w = DriftWindow::default();
        for _ in 0..64 {
            assert!(!w.record(0.05, &opts).drifted);
        }
        assert!(w.score().unwrap_or(1.0) < 0.1);
    }

    #[test]
    fn window_slides_old_residuals_out() {
        let opts = DriftOptions { window: 3, threshold: 10.0 };
        let mut w = DriftWindow::default();
        for r in [9.0, 9.0, 9.0, 0.0, 0.0, 0.0] {
            w.record(r, &opts);
        }
        assert!(w.score().unwrap_or(1.0) < 1e-9, "old residuals slid out");
    }

    #[test]
    fn options_validate() {
        assert!(DriftOptions::default().validate().is_ok());
        assert!(DriftOptions { window: 0, threshold: 0.5 }.validate().is_err());
        assert!(DriftOptions { window: 4, threshold: f64::NAN }.validate().is_err());
        assert!(DriftOptions { window: 4, threshold: 0.0 }.validate().is_err());
    }
}
