//! # tsa-analysis — measurement toolkit for the reproduction experiments
//!
//! Summary statistics, histograms, proportional fits, uniformity tests and
//! markdown table rendering shared by the experiment binaries in `tsa-bench`
//! and the integration tests.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod aggregate;
pub mod report;
pub mod stats;
pub mod uniformity;

pub use aggregate::{MetricSummary, Replicates};
pub use report::{fmt_bool, fmt_f, Table};
pub use stats::{fit_proportional, percentile_sorted, Histogram, Summary};
pub use uniformity::{uniformity, UniformityReport};
