//! # quicspin
//!
//! A reproduction of **“Does It Spin? On the Adoption and Use of QUIC’s
//! Spin Bit”** (Kunze, Sander, Wehrle — ACM IMC 2023) as a Rust workspace:
//! a from-scratch QUIC wire codec and endpoint with full RFC 9000 §17.4
//! spin-bit semantics, a deterministic discrete-event network simulator, a
//! passive spin-bit observer (one fixed-size spin-edge machine per
//! direction) with RFC 9312 heuristics and the VEC, a
//! synthetic web population calibrated from the paper’s published
//! aggregates, a zgrab2-style scanning harness, and the analysis code that
//! regenerates every table and figure of the paper.
//!
//! This crate is the facade: it re-exports the public API of every
//! subsystem crate. See `DESIGN.md` for the system inventory and
//! `EXPERIMENTS.md` for paper-vs-measured results.
//!
//! ## Quickstart
//!
//! ```
//! use quicspin::prelude::*;
//!
//! // Simulate one QUIC connection through a 40 ms RTT path and observe
//! // the spin bit from the middle of the network.
//! let mut lab = ConnectionLab::new(LabConfig {
//!     path_rtt_ms: 40.0,
//!     ..LabConfig::default()
//! });
//! let outcome = lab.run();
//! assert!(outcome.handshake_completed);
//! let report = outcome.observer_report();
//! assert!(report.spin_rtt_mean_ms().unwrap() >= 40.0);
//! ```

pub use quicspin_analysis as analysis;
pub use quicspin_core as core;
pub use quicspin_h3 as h3;
pub use quicspin_netsim as netsim;
pub use quicspin_qlog as qlog;
pub use quicspin_quic as quic;
pub use quicspin_scanner as scanner;
pub use quicspin_telemetry as telemetry;
pub use quicspin_webpop as webpop;
pub use quicspin_wire as wire;

/// Convenient re-exports of the most commonly used types.
pub mod prelude {
    pub use quicspin_analysis::{
        Dataset, LongitudinalFigure, OrgTable, OverviewTable, SpinConfigTable,
    };
    pub use quicspin_core::{
        AccuracySample, EdgeMachine, EdgePolicy, FlowClassification, GreaseFilter, ObserverReport,
        PacketObservation,
    };
    pub use quicspin_netsim::{LinkConfig, SimDuration, SimTime, Simulator};
    pub use quicspin_quic::{ConnectionLab, LabConfig, SpinPolicy, TransportConfig};
    pub use quicspin_scanner::{Campaign, CampaignConfig, ConnectionRecord, Scanner};
    pub use quicspin_webpop::{Population, PopulationConfig};
    pub use quicspin_wire::{ConnectionId, Version};
}
