//! Property tests for the forecasting subsystem: the battery must stay
//! well-behaved under arbitrary measurement streams — it runs unattended
//! inside every component of a long-lived Grid application.

use proptest::prelude::*;

use ew_forecast::{standard_battery, ErrorMetric, ForecastTimeout, Forecaster, ForecasterSet};
use ew_proto::{EventTag, TimeoutPolicy};
use ew_sim::SimDuration;

fn finite_series() -> impl Strategy<Value = Vec<f64>> {
    proptest::collection::vec(-1e9f64..1e9, 1..200)
}

/// Series that stress bit-exactness: heavy ties, signed zeros, single huge
/// spikes and values near ±1e9, at lengths that fill and wrap every
/// window width.
fn adversarial_series() -> impl Strategy<Value = Vec<f64>> {
    let value = prop_oneof![
        -1e9f64..1e9,
        (-2i32..3).prop_map(f64::from),
        (-2i32..3).prop_map(f64::from),
        Just(0.0),
        Just(-0.0),
        Just(1e300),
        Just(-1e300),
        (0.0f64..1.0).prop_map(|d| 1e9 - d),
        (0.0f64..1.0).prop_map(|d| -1e9 + d),
    ];
    proptest::collection::vec(value, 1..200)
}

/// The selector as 17 individual forecasters: each method's outstanding
/// prediction is scored when a measurement arrives, and a forecast asks
/// every method for its prediction and takes the best score, ties to the
/// earlier method.
struct Reference {
    methods: Vec<Box<dyn Forecaster>>,
    abs_err: Vec<f64>,
    sq_err: Vec<f64>,
    scored: Vec<u64>,
}

impl Reference {
    fn new() -> Self {
        let methods = standard_battery();
        let n = methods.len();
        Reference {
            methods,
            abs_err: vec![0.0; n],
            sq_err: vec![0.0; n],
            scored: vec![0; n],
        }
    }

    fn update(&mut self, value: f64) {
        for (i, m) in self.methods.iter_mut().enumerate() {
            if let Some(pred) = m.predict() {
                let err = pred - value;
                self.abs_err[i] += err.abs();
                self.sq_err[i] += err * err;
                self.scored[i] += 1;
            }
            m.update(value);
        }
    }

    fn score(&self, i: usize) -> f64 {
        if self.scored[i] == 0 {
            f64::INFINITY
        } else {
            self.abs_err[i] / self.scored[i] as f64
        }
    }

    /// `(value, method, mae, rmse)` of the forecast.
    fn predict(&self) -> Option<(f64, String, Option<f64>, Option<f64>)> {
        let mut best: Option<(usize, f64, f64)> = None;
        for (i, m) in self.methods.iter().enumerate() {
            let Some(pred) = m.predict() else { continue };
            let s = self.score(i);
            if best.is_none_or(|(_, _, bs)| s < bs) {
                best = Some((i, pred, s));
            }
        }
        best.map(|(i, value, _)| {
            let n = self.scored[i] as f64;
            (
                value,
                self.methods[i].name().to_string(),
                (self.scored[i] > 0).then(|| self.abs_err[i] / n),
                (self.scored[i] > 0).then(|| (self.sq_err[i] / n).sqrt()),
            )
        })
    }

    fn leaderboard(&self) -> Vec<(String, f64)> {
        let mut rows: Vec<(String, f64)> = (0..self.methods.len())
            .map(|i| (self.methods[i].name().to_string(), self.score(i)))
            .collect();
        rows.sort_by(|a, b| a.1.partial_cmp(&b.1).unwrap_or(std::cmp::Ordering::Equal));
        rows
    }
}

fn bits(x: Option<f64>) -> Option<u64> {
    x.map(f64::to_bits)
}

proptest! {
    #[test]
    fn standard_set_is_bit_identical_to_the_individual_methods(xs in adversarial_series()) {
        let mut set = ForecasterSet::standard();
        let mut reference = Reference::new();
        for (step, &x) in xs.iter().enumerate() {
            set.update(x);
            reference.update(x);
            let got = set
                .predict()
                .map(|f| (f.value.to_bits(), f.method.to_string(), bits(f.mae), bits(f.rmse)));
            let want = reference
                .predict()
                .map(|(v, m, mae, rmse)| (v.to_bits(), m, bits(mae), bits(rmse)));
            prop_assert_eq!(&got, &want, "step {}: {:?} vs {:?}", step, got, want);
            let rows = |r: Vec<(String, f64)>| -> Vec<(String, u64)> {
                r.into_iter().map(|(m, s)| (m, s.to_bits())).collect()
            };
            let (got, want) = (rows(set.leaderboard()), rows(reference.leaderboard()));
            prop_assert_eq!(&got, &want, "step {}: {:?} vs {:?}", step, got, want);
        }
    }

    #[test]
    fn every_method_survives_arbitrary_finite_input(xs in finite_series()) {
        for mut m in standard_battery() {
            for &x in &xs {
                m.update(x);
            }
            let p = m.predict().expect("non-empty history predicts");
            prop_assert!(p.is_finite(), "{} produced {p}", m.name());
        }
    }

    #[test]
    fn selector_prediction_is_finite_and_mae_nonnegative(xs in finite_series()) {
        let mut set = ForecasterSet::standard();
        for &x in &xs {
            set.update(x);
        }
        let f = set.predict().expect("predicts after input");
        prop_assert!(f.value.is_finite());
        if let Some(mae) = f.mae {
            prop_assert!(mae >= 0.0);
        }
        for (_, score) in set.leaderboard() {
            prop_assert!(score >= 0.0 || score.is_infinite());
        }
    }

    #[test]
    fn selector_never_loses_to_worst_method_by_much(
        xs in proptest::collection::vec(0.0f64..1000.0, 30..150)
    ) {
        // The selected forecast always comes from the method with the best
        // score so far, so its cumulative MAE is within the battery's span.
        let mut set = ForecasterSet::new(standard_battery(), ErrorMetric::Mae);
        let mut chosen_err = 0.0;
        let mut n = 0u32;
        for &x in &xs {
            if let Some(f) = set.predict() {
                chosen_err += (f.value - x).abs();
                n += 1;
            }
            set.update(x);
        }
        if n > 10 {
            // Every method is an average/median/last of history, so all
            // predictions live inside the data range and the selection's
            // online MAE is bounded by it. (A tight regret bound does not
            // hold for follow-the-leader selection; the NWS relies on the
            // empirical behaviour, not a worst-case guarantee.)
            prop_assert!(
                chosen_err / n as f64 <= 1000.0 + 1e-9,
                "online MAE {} escaped the data range",
                chosen_err / n as f64
            );
            let lead = set.leaderboard();
            prop_assert!(lead.iter().any(|(_, s)| s.is_finite()));
        }
    }

    #[test]
    fn timeouts_always_within_clamps(
        rtts in proptest::collection::vec(0.0f64..1e5, 0..100),
        expiries in 0u32..20,
    ) {
        let mut ft = ForecastTimeout::wan_default();
        let tag = EventTag { peer: 1, mtype: 7 };
        for &r in &rtts {
            ft.observe_rtt(tag, SimDuration::from_secs_f64(r));
        }
        for _ in 0..expiries {
            ft.observe_timeout(tag);
        }
        let t = ft.timeout_for(tag);
        prop_assert!(t >= ft.min, "{t:?} below clamp");
        prop_assert!(t <= ft.max, "{t:?} above clamp");
    }
}
