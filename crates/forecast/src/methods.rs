//! The forecaster battery.
//!
//! "The NWS applies a set of light-weight time series forecasting methods
//! and dynamically chooses the technique that yields the greatest
//! forecasting accuracy over time" (§2.2, citing ref \[38\]). Each method here is
//! a one-step-ahead predictor cheap enough to run dozens of instances per
//! measurement stream: last value, running mean, sliding-window means and
//! medians at several widths, trimmed means, exponential smoothing at
//! several gains, and an adaptive-window mean. Selection across the battery
//! lives in [`crate::selector`]. `ForecasterSet::standard()` runs these
//! same 17 methods as one fused state whose predictions are pinned
//! bit-identical to these structs by the crate's tests.

use std::collections::VecDeque;

/// A one-step-ahead time-series predictor.
pub trait Forecaster: Send {
    /// Human-readable method name (appears in diagnostics and benches).
    fn name(&self) -> &str;
    /// Incorporate a new measurement.
    fn update(&mut self, value: f64);
    /// Predict the next measurement; `None` until enough history exists.
    fn predict(&self) -> Option<f64>;
}

/// Predicts the most recent measurement.
#[derive(Clone, Debug, Default)]
pub struct LastValue {
    last: Option<f64>,
}

impl Forecaster for LastValue {
    fn name(&self) -> &str {
        "last"
    }
    fn update(&mut self, value: f64) {
        self.last = Some(value);
    }
    fn predict(&self) -> Option<f64> {
        self.last
    }
}

/// Predicts the mean of all history.
#[derive(Clone, Debug, Default)]
pub struct RunningMean {
    sum: f64,
    n: u64,
}

impl Forecaster for RunningMean {
    fn name(&self) -> &str {
        "running_mean"
    }
    fn update(&mut self, value: f64) {
        self.sum += value;
        self.n += 1;
    }
    fn predict(&self) -> Option<f64> {
        (self.n > 0).then(|| self.sum / self.n as f64)
    }
}

/// Fixed-width ring of recent measurements shared by windowed methods.
#[derive(Clone, Debug)]
struct Window {
    cap: usize,
    buf: VecDeque<f64>,
}

impl Window {
    fn new(cap: usize) -> Self {
        assert!(cap >= 1);
        Window {
            cap,
            buf: VecDeque::with_capacity(cap),
        }
    }
    fn push(&mut self, v: f64) {
        if self.buf.len() == self.cap {
            self.buf.pop_front();
        }
        self.buf.push_back(v);
    }
}

/// Fixed-width ring that also keeps its contents sorted, for methods that
/// take order statistics on every prediction. `push` costs two binary
/// searches plus an O(w) memmove; order statistics are then O(1) reads of
/// `sorted`. The sort-per-predict alternative is O(w log w) *and* a fresh
/// allocation on every call, and `predict` runs at least once per
/// measurement (the selector scores every method's outstanding prediction
/// before feeding it the new value).
#[derive(Clone, Debug)]
struct SortedWindow {
    cap: usize,
    buf: VecDeque<f64>,
    /// The same multiset as `buf`, ascending by `f64::total_cmp` (a total
    /// order, so the outgoing element is always found by binary search).
    sorted: Vec<f64>,
}

impl SortedWindow {
    fn new(cap: usize) -> Self {
        assert!(cap >= 1);
        SortedWindow {
            cap,
            buf: VecDeque::with_capacity(cap),
            sorted: Vec::with_capacity(cap),
        }
    }
    fn push(&mut self, v: f64) {
        if self.buf.len() == self.cap {
            let old = self.buf.pop_front().expect("cap >= 1");
            let i = self.sorted.partition_point(|x| x.total_cmp(&old).is_lt());
            self.sorted.remove(i);
        }
        self.buf.push_back(v);
        let i = self.sorted.partition_point(|x| x.total_cmp(&v).is_lt());
        self.sorted.insert(i, v);
    }
    fn is_empty(&self) -> bool {
        self.sorted.is_empty()
    }
}

/// Mean of the last `w` measurements.
#[derive(Clone, Debug)]
pub struct SlidingMean {
    name: String,
    win: Window,
}

impl SlidingMean {
    /// Window of width `w`.
    pub fn new(w: usize) -> Self {
        SlidingMean {
            name: format!("mean_{w}"),
            win: Window::new(w),
        }
    }
}

impl Forecaster for SlidingMean {
    fn name(&self) -> &str {
        &self.name
    }
    fn update(&mut self, value: f64) {
        self.win.push(value);
    }
    fn predict(&self) -> Option<f64> {
        if self.win.buf.is_empty() {
            None
        } else {
            Some(self.win.buf.iter().sum::<f64>() / self.win.buf.len() as f64)
        }
    }
}

/// Median of the last `w` measurements — robust to the single wild
/// measurement a contended 1998 network produced regularly.
#[derive(Clone, Debug)]
pub struct SlidingMedian {
    name: String,
    win: SortedWindow,
}

impl SlidingMedian {
    /// Window of width `w`.
    pub fn new(w: usize) -> Self {
        SlidingMedian {
            name: format!("median_{w}"),
            win: SortedWindow::new(w),
        }
    }
}

impl Forecaster for SlidingMedian {
    fn name(&self) -> &str {
        &self.name
    }
    fn update(&mut self, value: f64) {
        self.win.push(value);
    }
    fn predict(&self) -> Option<f64> {
        if self.win.is_empty() {
            return None;
        }
        let v = &self.win.sorted;
        let n = v.len();
        Some(if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        })
    }
}

/// Mean of the last `w` measurements after dropping the top and bottom
/// `trim` fraction.
#[derive(Clone, Debug)]
pub struct TrimmedMean {
    name: String,
    win: SortedWindow,
    trim: f64,
}

impl TrimmedMean {
    /// Window `w`, trimming fraction `trim` in `[0, 0.5)` off each end.
    pub fn new(w: usize, trim: f64) -> Self {
        assert!((0.0..0.5).contains(&trim));
        TrimmedMean {
            name: format!("trimmed_{w}_{:02}", (trim * 100.0) as u32),
            win: SortedWindow::new(w),
            trim,
        }
    }
}

impl Forecaster for TrimmedMean {
    fn name(&self) -> &str {
        &self.name
    }
    fn update(&mut self, value: f64) {
        self.win.push(value);
    }
    fn predict(&self) -> Option<f64> {
        if self.win.is_empty() {
            return None;
        }
        let v = &self.win.sorted;
        let k = (v.len() as f64 * self.trim).floor() as usize;
        let kept = &v[k..v.len() - k];
        if kept.is_empty() {
            return Some(v[v.len() / 2]);
        }
        Some(kept.iter().sum::<f64>() / kept.len() as f64)
    }
}

/// Exponentially-smoothed estimate with gain `g`:
/// `est ← (1-g)·est + g·value`.
#[derive(Clone, Debug)]
pub struct ExpSmoothing {
    name: String,
    gain: f64,
    est: Option<f64>,
}

impl ExpSmoothing {
    /// Gain in `(0, 1]`.
    pub fn new(gain: f64) -> Self {
        assert!(gain > 0.0 && gain <= 1.0);
        ExpSmoothing {
            name: format!("exp_{:02}", (gain * 100.0) as u32),
            gain,
            est: None,
        }
    }
}

impl Forecaster for ExpSmoothing {
    fn name(&self) -> &str {
        &self.name
    }
    fn update(&mut self, value: f64) {
        self.est = Some(match self.est {
            None => value,
            Some(e) => (1.0 - self.gain) * e + self.gain * value,
        });
    }
    fn predict(&self) -> Option<f64> {
        self.est
    }
}

/// Adaptive-window mean: the window shrinks after a forecast bust (the
/// series jumped; old history is misleading) and grows while forecasts
/// verify (more history cuts noise). The NWS "adaptive window" methods work
/// this way.
#[derive(Clone, Debug)]
pub struct AdaptiveMean {
    name: String,
    min_w: usize,
    max_w: usize,
    cur_w: usize,
    history: VecDeque<f64>,
    /// Relative error above which the window is judged busted.
    bust_threshold: f64,
}

impl AdaptiveMean {
    /// Window bounds `[min_w, max_w]` and bust threshold (relative error).
    pub fn new(min_w: usize, max_w: usize, bust_threshold: f64) -> Self {
        assert!(min_w >= 1 && max_w >= min_w);
        AdaptiveMean {
            name: format!("adaptive_{min_w}_{max_w}"),
            min_w,
            max_w,
            cur_w: min_w,
            history: VecDeque::with_capacity(max_w),
            bust_threshold,
        }
    }
}

impl Forecaster for AdaptiveMean {
    fn name(&self) -> &str {
        &self.name
    }
    fn update(&mut self, value: f64) {
        if let Some(pred) = self.predict() {
            let scale = value.abs().max(1e-12);
            if (pred - value).abs() / scale > self.bust_threshold {
                self.cur_w = self.min_w;
            } else if self.cur_w < self.max_w {
                self.cur_w += 1;
            }
        }
        if self.history.len() == self.max_w {
            self.history.pop_front();
        }
        self.history.push_back(value);
    }
    fn predict(&self) -> Option<f64> {
        if self.history.is_empty() {
            return None;
        }
        let take = self.cur_w.min(self.history.len());
        let sum: f64 = self.history.iter().rev().take(take).sum();
        Some(sum / take as f64)
    }
}

/// The standard battery: the methods the NWS ran over every measurement
/// stream. 17 predictors.
pub fn standard_battery() -> Vec<Box<dyn Forecaster>> {
    vec![
        Box::new(LastValue::default()),
        Box::new(RunningMean::default()),
        Box::new(SlidingMean::new(5)),
        Box::new(SlidingMean::new(10)),
        Box::new(SlidingMean::new(20)),
        Box::new(SlidingMean::new(50)),
        Box::new(SlidingMedian::new(5)),
        Box::new(SlidingMedian::new(10)),
        Box::new(SlidingMedian::new(20)),
        Box::new(SlidingMedian::new(50)),
        Box::new(TrimmedMean::new(20, 0.1)),
        Box::new(TrimmedMean::new(50, 0.25)),
        Box::new(ExpSmoothing::new(0.05)),
        Box::new(ExpSmoothing::new(0.1)),
        Box::new(ExpSmoothing::new(0.3)),
        Box::new(ExpSmoothing::new(0.7)),
        Box::new(AdaptiveMean::new(3, 50, 0.5)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    fn feed(f: &mut dyn Forecaster, xs: &[f64]) {
        for &x in xs {
            f.update(x);
        }
    }

    #[test]
    fn empty_forecasters_predict_none() {
        for f in standard_battery() {
            assert!(f.predict().is_none(), "{} should start empty", f.name());
        }
    }

    #[test]
    fn all_forecasters_track_a_constant_series() {
        for mut f in standard_battery() {
            feed(f.as_mut(), &[5.0; 60]);
            let p = f.predict().unwrap();
            assert!(
                (p - 5.0).abs() < 1e-9,
                "{} should predict the constant, got {p}",
                f.name()
            );
        }
    }

    #[test]
    fn last_value_tracks_jumps_immediately() {
        let mut f = LastValue::default();
        feed(&mut f, &[1.0, 1.0, 9.0]);
        assert_eq!(f.predict(), Some(9.0));
    }

    #[test]
    fn running_mean_averages_everything() {
        let mut f = RunningMean::default();
        feed(&mut f, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.predict(), Some(2.5));
    }

    #[test]
    fn sliding_mean_forgets_old_history() {
        let mut f = SlidingMean::new(3);
        feed(&mut f, &[100.0, 1.0, 2.0, 3.0]);
        assert_eq!(f.predict(), Some(2.0));
    }

    #[test]
    fn sliding_median_ignores_outliers() {
        let mut f = SlidingMedian::new(5);
        feed(&mut f, &[10.0, 10.0, 10.0, 10.0, 1000.0]);
        assert_eq!(f.predict(), Some(10.0));
    }

    #[test]
    fn sliding_median_even_window_interpolates() {
        let mut f = SlidingMedian::new(4);
        feed(&mut f, &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(f.predict(), Some(2.5));
    }

    #[test]
    fn trimmed_mean_drops_extremes() {
        let mut f = TrimmedMean::new(10, 0.2);
        feed(
            &mut f,
            &[0.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 5.0, 1000.0],
        );
        // Trim 2 off each end: mean of eight 5.0s.
        assert_eq!(f.predict(), Some(5.0));
    }

    #[test]
    fn exp_smoothing_gain_controls_responsiveness() {
        let mut slow = ExpSmoothing::new(0.05);
        let mut fast = ExpSmoothing::new(0.7);
        for f in [&mut slow, &mut fast] {
            feed(f, &[0.0; 20]);
            f.update(10.0);
        }
        assert!(fast.predict().unwrap() > slow.predict().unwrap());
        assert!((fast.predict().unwrap() - 7.0).abs() < 1e-9);
        assert!((slow.predict().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn adaptive_mean_shrinks_window_on_level_shift() {
        let mut f = AdaptiveMean::new(2, 50, 0.5);
        feed(&mut f, &[10.0; 50]);
        // Level shift: forecasts bust, window resets, predictor recovers
        // within a few samples instead of averaging over 50 stale ones.
        feed(&mut f, &[100.0, 100.0, 100.0, 100.0]);
        let p = f.predict().unwrap();
        assert!(
            p > 70.0,
            "adaptive should have mostly snapped to 100, got {p}"
        );

        let mut rigid = SlidingMean::new(50);
        feed(&mut rigid, &[10.0; 50]);
        feed(&mut rigid, &[100.0, 100.0, 100.0, 100.0]);
        assert!(rigid.predict().unwrap() < 20.0, "fixed-50 window lags");
    }

    #[test]
    fn battery_names_are_unique() {
        let battery = standard_battery();
        let mut names: Vec<String> = battery.iter().map(|f| f.name().to_string()).collect();
        names.sort();
        let before = names.len();
        names.dedup();
        assert_eq!(names.len(), before);
    }
}
