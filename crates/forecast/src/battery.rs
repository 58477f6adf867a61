//! The standard battery as one fused state.
//!
//! [`ForecasterSet::standard`](crate::selector::ForecasterSet::standard)
//! runs the 17 methods of [`standard_battery`](crate::methods::standard_battery)
//! on every RPC round trip, scheduler progress report and sensor sample.
//! As 17 boxed forecasters, each windowed method kept its own copy of the
//! recent history, the medians and trimmed means of equal width each kept
//! their own sorted copy, and every prediction re-summed its window twice
//! per measurement (once to score, once to forecast). [`StandardBattery`]
//! holds the same methods as one struct:
//!
//! * one 50-slot ring of raw history, read by the four sliding means and
//!   the adaptive mean;
//! * one sorted window per distinct width {5, 10, 20, 50}, read by
//!   `median_w` and `trimmed_w`;
//! * the running mean and the four exponential-smoothing estimates;
//! * the 17 predictions, computed once per [`StandardBattery::update`].
//!
//! Every prediction is bit-identical to the per-method struct's, which
//! stay the public single-method forecasters and the test oracle:
//!
//! * window sums use `.sum()` over the same elements in the same order
//!   (oldest to newest for the sliding and trimmed means, newest to oldest
//!   for the adaptive mean), so they start from the same initial value and
//!   round at the same steps;
//! * a sorted window holds the same `total_cmp` multiset as the per-method
//!   window, and `total_cmp`-equal values are bit-equal, so the ascending
//!   arrangement — and every order statistic read from it — is the same;
//! * the adaptive mean judges a bust against its previous prediction, which
//!   is exactly the cached one.

/// Number of methods in the standard battery.
pub(crate) const METHODS: usize = 17;

/// Method names, in [`standard_battery`](crate::methods::standard_battery)
/// order (the selector's tie order).
pub(crate) const NAMES: [&str; METHODS] = [
    "last",
    "running_mean",
    "mean_5",
    "mean_10",
    "mean_20",
    "mean_50",
    "median_5",
    "median_10",
    "median_20",
    "median_50",
    "trimmed_20_10",
    "trimmed_50_25",
    "exp_05",
    "exp_10",
    "exp_30",
    "exp_70",
    "adaptive_3_50",
];

/// History kept: the widest window in the battery.
const DEPTH: usize = 50;
/// Exponential-smoothing gains.
const GAINS: [f64; 4] = [0.05, 0.1, 0.3, 0.7];
/// Adaptive mean: window bounds and bust threshold (relative error).
const ADAPTIVE_MIN: usize = 3;
const ADAPTIVE_BUST: f64 = 0.5;

/// The last [`DEPTH`] measurements. Each value is written twice, `DEPTH`
/// slots apart, so the newest `w` values are always one contiguous slice.
struct History {
    buf: [f64; 2 * DEPTH],
    /// Next slot to write, in `0..DEPTH`.
    head: usize,
    len: usize,
}

impl History {
    fn push(&mut self, v: f64) {
        self.buf[self.head] = v;
        self.buf[self.head + DEPTH] = v;
        self.head = (self.head + 1) % DEPTH;
        self.len = (self.len + 1).min(DEPTH);
    }

    /// The newest `min(w, len)` measurements, oldest first.
    fn last(&self, w: usize) -> &[f64] {
        let end = self.head + DEPTH;
        &self.buf[end - w.min(self.len)..end]
    }
}

/// The newest `min(W, n)` measurements, ascending by `f64::total_cmp`.
struct SortedWindow<const W: usize> {
    v: [f64; W],
    len: usize,
}

impl<const W: usize> SortedWindow<W> {
    const EMPTY: Self = SortedWindow {
        v: [0.0; W],
        len: 0,
    };

    /// Absorb `v`. `hist` is the history *before* `v`: when the window is
    /// full, its oldest width-`W` value leaves in the same move.
    fn push(&mut self, hist: &History, v: f64) {
        let j = self.v[..self.len].partition_point(|x| x.total_cmp(&v).is_lt());
        if self.len < W {
            self.v.copy_within(j..self.len, j + 1);
            self.v[j] = v;
            self.len += 1;
            return;
        }
        let old = hist.last(W)[0];
        let i = self.v.partition_point(|x| x.total_cmp(&old).is_lt());
        if j <= i {
            self.v.copy_within(j..i, j + 1);
            self.v[j] = v;
        } else {
            self.v.copy_within(i + 1..j, i);
            self.v[j - 1] = v;
        }
    }

    fn sorted(&self) -> &[f64] {
        &self.v[..self.len]
    }

    fn median(&self) -> f64 {
        let v = self.sorted();
        let n = v.len();
        if n % 2 == 1 {
            v[n / 2]
        } else {
            (v[n / 2 - 1] + v[n / 2]) / 2.0
        }
    }

    /// Mean after dropping `floor(len·trim)` values off each end. With
    /// `trim < 0.5` at least one value is kept.
    fn trimmed_mean(&self, trim: f64) -> f64 {
        let v = self.sorted();
        let k = (v.len() as f64 * trim).floor() as usize;
        let kept = &v[k..v.len() - k];
        kept.iter().sum::<f64>() / kept.len() as f64
    }
}

fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// The 17-method standard battery over one measurement stream.
pub(crate) struct StandardBattery {
    hist: History,
    s5: SortedWindow<5>,
    s10: SortedWindow<10>,
    s20: SortedWindow<20>,
    s50: SortedWindow<50>,
    n: u64,
    sum: f64,
    est: [f64; 4],
    adaptive_w: usize,
    preds: [Option<f64>; METHODS],
}

impl StandardBattery {
    pub(crate) fn new() -> Self {
        StandardBattery {
            hist: History {
                buf: [0.0; 2 * DEPTH],
                head: 0,
                len: 0,
            },
            s5: SortedWindow::EMPTY,
            s10: SortedWindow::EMPTY,
            s20: SortedWindow::EMPTY,
            s50: SortedWindow::EMPTY,
            n: 0,
            sum: 0.0,
            est: [0.0; 4],
            adaptive_w: ADAPTIVE_MIN,
            preds: [None; METHODS],
        }
    }

    /// Each method's prediction of the next measurement, in battery order.
    pub(crate) fn preds(&self) -> &[Option<f64>] {
        &self.preds
    }

    /// Absorb one measurement and recompute every prediction.
    pub(crate) fn update(&mut self, value: f64) {
        if let Some(pred) = self.preds[16] {
            let scale = value.abs().max(1e-12);
            if (pred - value).abs() / scale > ADAPTIVE_BUST {
                self.adaptive_w = ADAPTIVE_MIN;
            } else if self.adaptive_w < DEPTH {
                self.adaptive_w += 1;
            }
        }
        self.s5.push(&self.hist, value);
        self.s10.push(&self.hist, value);
        self.s20.push(&self.hist, value);
        self.s50.push(&self.hist, value);
        self.hist.push(value);
        self.sum += value;
        for (e, g) in self.est.iter_mut().zip(GAINS) {
            *e = if self.n == 0 {
                value
            } else {
                (1.0 - g) * *e + g * value
            };
        }
        self.n += 1;

        let h = &self.hist;
        let adaptive = h.last(self.adaptive_w);
        self.preds = [
            value,
            self.sum / self.n as f64,
            mean(h.last(5)),
            mean(h.last(10)),
            mean(h.last(20)),
            mean(h.last(50)),
            self.s5.median(),
            self.s10.median(),
            self.s20.median(),
            self.s50.median(),
            self.s20.trimmed_mean(0.1),
            self.s50.trimmed_mean(0.25),
            self.est[0],
            self.est[1],
            self.est[2],
            self.est[3],
            adaptive.iter().rev().sum::<f64>() / adaptive.len() as f64,
        ]
        .map(Some);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::methods::standard_battery;
    use proptest::prelude::*;

    /// Every fused prediction must be bit-equal to the per-method
    /// forecaster's after every update.
    fn assert_matches_methods(xs: &[f64]) {
        let mut fused = StandardBattery::new();
        let mut methods = standard_battery();
        for (step, &x) in xs.iter().enumerate() {
            fused.update(x);
            for (i, m) in methods.iter_mut().enumerate() {
                m.update(x);
                let want = m.predict().map(f64::to_bits);
                let got = fused.preds()[i].map(f64::to_bits);
                assert_eq!(got, want, "{} after step {step} of {xs:?}", NAMES[i]);
            }
        }
    }

    #[test]
    fn names_follow_the_battery_order() {
        let names: Vec<String> = standard_battery()
            .iter()
            .map(|m| m.name().to_string())
            .collect();
        assert_eq!(names, NAMES);
    }

    #[test]
    fn empty_battery_predicts_none() {
        assert!(StandardBattery::new().preds().iter().all(Option::is_none));
    }

    #[test]
    fn windows_fill_and_wrap_bit_identically() {
        let xs: Vec<f64> = (0..260)
            .map(|i| ((i * 37 % 23) as f64 - 11.0) * 0.1)
            .collect();
        assert_matches_methods(&xs);
    }

    #[test]
    fn ties_signed_zeros_and_spikes_match() {
        let mut xs = vec![0.0, -0.0, 0.0, -0.0, 1.0, 1.0, -0.0];
        xs.extend(std::iter::repeat_n(3.0, 60));
        xs.push(1e300);
        xs.extend([-1e9, 1e9, 3.0, 3.0, -0.0, 0.0]);
        xs.extend(std::iter::repeat_n(-0.0, 55));
        assert_matches_methods(&xs);
    }

    proptest! {
        #[test]
        fn arbitrary_series_match_the_methods(
            xs in proptest::collection::vec(
                prop_oneof![-1e9f64..1e9, (-3i32..3).prop_map(f64::from)],
                1..200,
            )
        ) {
            assert_matches_methods(&xs);
        }
    }
}
