//! # ew-forecast — NWS-style performance forecasting
//!
//! "A set of performance forecasting services that can make short-term
//! resource and application performance predictions in near-real time"
//! (§2). This crate reimplements the Network Weather Service forecasting
//! subsystem as EveryWare adapted it:
//!
//! * [`methods`] — the battery of lightweight one-step-ahead predictors;
//! * [`selector`] — MAE/MSE-ranked dynamic selection across the battery,
//!   which runs the standard battery as one fused, allocation-free state
//!   whose predictions are bit-identical to the individual methods';
//! * [`dynbench`] — *dynamic benchmarking*: tagging and timing arbitrary
//!   repetitive program events and feeding the timings to forecasters;
//! * [`timeout`] — dynamic time-out discovery for the lingua franca, the
//!   mechanism §2.2 credits with overall program stability at SC98.

#![warn(missing_docs)]

mod battery;
pub mod dynbench;
pub mod methods;
pub mod selector;
pub mod sensor;
pub mod timeout;

pub use dynbench::DynamicBenchmark;
pub use methods::{
    standard_battery, AdaptiveMean, ExpSmoothing, Forecaster, LastValue, RunningMean, SlidingMean,
    SlidingMedian, TrimmedMean,
};
pub use selector::{ErrorMetric, Forecast, ForecasterSet};
pub use sensor::{nm, NwsForecastReply, NwsQuery, NwsReport, NwsSensor, NwsServer, SensorConfig};
pub use timeout::ForecastTimeout;
