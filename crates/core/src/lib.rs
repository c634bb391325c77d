//! Fluid models of BBRv1, BBRv2, Reno, and CUBIC over a general network
//! model, reproducing Scherrer, Legner, Perrig, Schmid:
//! *Model-Based Insights on the Performance, Fairness, and Stability of
//! BBR* (ACM IMC 2022, arXiv:2208.10103).
//!
//! The crate implements the paper's §2 network fluid model (links with
//! capacity, buffer, and propagation delay; drop-tail and RED loss models)
//! and the §3 congestion-control fluid models, integrated with the method
//! of steps over ring-buffer histories of the delayed quantities.
//!
//! # Quick example
//!
//! ```
//! use bbr_fluid_core::prelude::*;
//!
//! // One BBRv1 flow through a 100 Mbit/s, 10 ms bottleneck with a 1-BDP
//! // drop-tail buffer and a 5.6 ms access delay (the paper's
//! // trace-validation setting, §4.2): a one-link custom layout.
//! let spec = ScenarioSpec::custom(
//!     vec![CustomLink::new(100.0, 0.010, 1.0)],
//!     vec![CustomRoute::new(vec![0], 0.0056, 0.0056 + 0.010)],
//! )
//! .ccas(vec![CcaKind::BbrV1])
//! .duration(2.0);
//! let mut sim = simulator_for_spec(&spec, &ModelConfig::default()).unwrap();
//! let report = sim.run(spec.duration);
//! assert!(report.metrics.utilization_percent > 80.0);
//! ```
//!
//! Units throughout: rates in Mbit/s, data volumes in Mbit, times in
//! seconds. One MSS-sized segment is 1500 B = 0.012 Mbit.

pub mod backend;
pub mod cca;
pub mod config;
pub mod history;
pub mod lanes;
pub mod math;
pub mod metrics;
pub mod queue;
pub mod sim;
pub mod topology;
pub mod trace;

/// Convenient re-exports of the items needed by typical simulations.
pub mod prelude {
    pub use crate::backend::{simulator_for_spec, FluidBackend};
    pub use crate::cca::{CcaKind, FluidCca, ScenarioHint};
    pub use crate::config::ModelConfig;
    pub use crate::metrics::{jain_fairness, AggregateMetrics};
    pub use crate::sim::{RunReport, Simulator};
    pub use crate::topology::{LinkId, LinkSpec, Network, PathSpec, QdiscKind};
    pub use crate::trace::Trace;
    pub use crate::MSS_MBIT;
    pub use bbr_scenario::{
        CustomLink, CustomRoute, FlowMetrics, RunOutcome, ScenarioSpec, SimBackend, Topology,
    };
}

/// One maximum-segment-size packet (1500 bytes) expressed in Mbit.
pub const MSS_MBIT: f64 = 1500.0 * 8.0 / 1_000_000.0;
