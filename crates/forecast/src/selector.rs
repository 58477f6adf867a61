//! Dynamic forecaster selection.
//!
//! The NWS trick: run every method in the battery on every stream, score
//! each method's one-step-ahead prediction against the measurement that
//! actually arrives, and let the method with the lowest cumulative error
//! make the *next* forecast. The winner changes as the series' character
//! changes — a median wins through spiky contention, exponential smoothing
//! wins through smooth drift — which is what made one mechanism serviceable
//! for CPU, network, and (in EveryWare) arbitrary program events.

use crate::battery::{StandardBattery, NAMES};
use crate::methods::Forecaster;

/// Error metric used to rank methods.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum ErrorMetric {
    /// Mean absolute error — the NWS default; robust to single busts.
    Mae,
    /// Mean squared error — punishes large busts harder.
    Mse,
}

/// One method's accumulated forecast error.
#[derive(Clone, Copy, Default)]
struct Score {
    /// Sum of absolute / squared errors and the count scored.
    abs_err: f64,
    sq_err: f64,
    scored: u64,
}

/// A forecast and its provenance.
#[derive(Clone, Debug)]
pub struct Forecast<'a> {
    /// Predicted next value.
    pub value: f64,
    /// Name of the winning method (borrowed from the battery, so a
    /// forecast costs no allocation).
    pub method: &'a str,
    /// The winner's mean absolute error so far (`None` until scored once).
    pub mae: Option<f64>,
    /// The winner's root-mean-squared error so far.
    pub rmse: Option<f64>,
}

/// The methods a set runs. Both kinds expose their predictions as one
/// slice, so scoring and selection are the same code for each.
enum Battery {
    /// The standard battery, fused into one state.
    Standard(Box<StandardBattery>),
    /// A caller-supplied battery, with each method's prediction cached
    /// after every update.
    Custom {
        methods: Vec<Box<dyn Forecaster>>,
        preds: Vec<Option<f64>>,
    },
}

impl Battery {
    fn preds(&self) -> &[Option<f64>] {
        match self {
            Battery::Standard(b) => b.preds(),
            Battery::Custom { preds, .. } => preds,
        }
    }

    fn update(&mut self, value: f64) {
        match self {
            Battery::Standard(b) => b.update(value),
            Battery::Custom { methods, preds } => {
                for (m, p) in methods.iter_mut().zip(preds.iter_mut()) {
                    m.update(value);
                    *p = m.predict();
                }
            }
        }
    }

    fn name(&self, i: usize) -> &str {
        match self {
            Battery::Standard(_) => NAMES[i],
            Battery::Custom { methods, .. } => methods[i].name(),
        }
    }
}

/// A battery of forecasters with error-ranked selection for one stream.
pub struct ForecasterSet {
    battery: Battery,
    scores: Box<[Score]>,
    metric: ErrorMetric,
    n: u64,
    /// The method that makes the next forecast, chosen at each update.
    best: Option<usize>,
}

impl Default for ForecasterSet {
    fn default() -> Self {
        Self::standard()
    }
}

impl ForecasterSet {
    /// The standard 17-method battery ranked by MAE.
    pub fn standard() -> Self {
        Self::with_battery(
            Battery::Standard(Box::new(StandardBattery::new())),
            ErrorMetric::Mae,
        )
    }

    /// A custom battery.
    pub fn new(methods: Vec<Box<dyn Forecaster>>, metric: ErrorMetric) -> Self {
        assert!(!methods.is_empty());
        let preds = methods.iter().map(|m| m.predict()).collect();
        Self::with_battery(Battery::Custom { methods, preds }, metric)
    }

    fn with_battery(battery: Battery, metric: ErrorMetric) -> Self {
        let scores = vec![Score::default(); battery.preds().len()].into_boxed_slice();
        let mut set = ForecasterSet {
            battery,
            scores,
            metric,
            n: 0,
            best: None,
        };
        set.best = set.select();
        set
    }

    /// Feed one measurement: score every method's outstanding prediction
    /// against it, let every method absorb it, and choose the method that
    /// makes the next forecast.
    pub fn update(&mut self, value: f64) {
        for (e, pred) in self.scores.iter_mut().zip(self.battery.preds()) {
            if let Some(pred) = *pred {
                let err = pred - value;
                e.abs_err += err.abs();
                e.sq_err += err * err;
                e.scored += 1;
            }
        }
        self.battery.update(value);
        self.n += 1;
        self.best = self.select();
    }

    /// Number of measurements absorbed.
    pub fn samples(&self) -> u64 {
        self.n
    }

    fn score(&self, e: &Score) -> f64 {
        if e.scored == 0 {
            return f64::INFINITY;
        }
        match self.metric {
            ErrorMetric::Mae => e.abs_err / e.scored as f64,
            ErrorMetric::Mse => e.sq_err / e.scored as f64,
        }
    }

    /// The best-scoring method that has a prediction.
    fn select(&self) -> Option<usize> {
        let mut best: Option<(usize, f64)> = None;
        for (i, (pred, e)) in self.battery.preds().iter().zip(&*self.scores).enumerate() {
            if pred.is_none() {
                continue;
            }
            let s = self.score(e);
            // Ties break toward the earlier battery entry (deterministic).
            if best.is_none_or(|(_, bs)| s < bs) {
                best = Some((i, s));
            }
        }
        best.map(|(i, _)| i)
    }

    /// Forecast the next value using the best-scoring method. `None` until
    /// at least one measurement has been absorbed.
    pub fn predict(&self) -> Option<Forecast<'_>> {
        let i = self.best?;
        let e = &self.scores[i];
        Some(Forecast {
            value: self.battery.preds()[i].expect("the selected method predicts"),
            method: self.battery.name(i),
            mae: (e.scored > 0).then(|| e.abs_err / e.scored as f64),
            rmse: (e.scored > 0).then(|| (e.sq_err / e.scored as f64).sqrt()),
        })
    }

    /// The battery-wide MAE leaderboard: `(method, mae)` sorted best-first.
    /// Methods never scored report `f64::INFINITY`.
    pub fn leaderboard(&self) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = self
            .scores
            .iter()
            .enumerate()
            .map(|(i, e)| (self.battery.name(i).to_string(), self.score(e)))
            .collect();
        rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        rows
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::{ExpSmoothing, LastValue, SlidingMedian};
    use ew_sim::Xoshiro256;

    #[test]
    fn empty_set_predicts_none() {
        let s = ForecasterSet::standard();
        assert!(s.predict().is_none());
        assert_eq!(s.samples(), 0);
    }

    #[test]
    fn constant_series_predicted_exactly() {
        let mut s = ForecasterSet::standard();
        for _ in 0..50 {
            s.update(7.5);
        }
        let f = s.predict().unwrap();
        assert!((f.value - 7.5).abs() < 1e-9);
        assert_eq!(f.mae, Some(0.0));
    }

    #[test]
    fn selector_beats_worst_method_on_noisy_series() {
        // Noisy level series: median/mean methods should beat last-value.
        let mut rng = Xoshiro256::seed_from_u64(3);
        let mut s = ForecasterSet::standard();
        let mut last_only =
            ForecasterSet::new(vec![Box::new(LastValue::default())], ErrorMetric::Mae);
        let mut sel_err = 0.0;
        let mut last_err = 0.0;
        let mut count = 0;
        for _ in 0..500 {
            let v = 10.0 + rng.normal();
            if let Some(f) = s.predict() {
                sel_err += (f.value - v).abs();
                count += 1;
            }
            if let Some(f) = last_only.predict() {
                last_err += (f.value - v).abs();
            }
            s.update(v);
            last_only.update(v);
        }
        assert!(count > 400);
        assert!(
            sel_err < last_err * 0.85,
            "selector {sel_err:.1} should clearly beat last-value {last_err:.1}"
        );
    }

    #[test]
    fn selector_switches_method_when_series_character_changes() {
        let mut s = ForecasterSet::new(
            vec![
                Box::new(ExpSmoothing::new(0.05)),
                Box::new(SlidingMedian::new(5)),
                Box::new(LastValue::default()),
            ],
            ErrorMetric::Mae,
        );
        // Smooth constant phase: everything is tied near zero error, but
        // after a ramp the responsive methods must win the leaderboard.
        for i in 0..200 {
            s.update(i as f64 * 2.0);
        }
        let lead = s.leaderboard();
        assert_eq!(
            lead[0].0, "last",
            "on a steep ramp last-value has the least lag; got {lead:?}"
        );
    }

    #[test]
    fn mse_metric_punishes_busts_harder() {
        // One huge bust for method A, many small errors for method B.
        let mk = |metric| {
            ForecasterSet::new(
                vec![
                    Box::new(LastValue::default()) as Box<dyn Forecaster>,
                    Box::new(SlidingMedian::new(51)),
                ],
                metric,
            )
        };
        let series: Vec<f64> = {
            let mut v = vec![10.0; 60];
            v.push(500.0); // one spike: last-value busts once on the spike
            v.extend(std::iter::repeat_n(10.0, 60)); // ...and once after
            v
        };
        let mut mae_set = mk(ErrorMetric::Mae);
        let mut mse_set = mk(ErrorMetric::Mse);
        for &x in &series {
            mae_set.update(x);
            mse_set.update(x);
        }
        // Under MAE the two big busts of last-value are amortized; under
        // MSE they dominate. Median ranks strictly better under MSE.
        let mse_lead = mse_set.leaderboard();
        assert_eq!(mse_lead[0].0, "median_51");
    }

    #[test]
    fn leaderboard_sorted_ascending() {
        let mut s = ForecasterSet::standard();
        let mut rng = Xoshiro256::seed_from_u64(8);
        for _ in 0..100 {
            s.update(5.0 + rng.normal() * 0.1);
        }
        let rows = s.leaderboard();
        for pair in rows.windows(2) {
            assert!(pair[0].1 <= pair[1].1);
        }
        assert_eq!(rows.len(), 17);
    }

    #[test]
    fn forecast_reports_provenance() {
        let mut s = ForecasterSet::standard();
        for _ in 0..20 {
            s.update(3.0);
        }
        let f = s.predict().unwrap();
        assert!(!f.method.is_empty());
        assert!(f.rmse.is_some());
    }
}
