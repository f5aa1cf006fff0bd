//! # quicspin-core — passive spin-bit observation and analysis
//!
//! This crate is the methodological heart of the reproduction: everything
//! the paper's §3.3 and §5 do with collected packet data happens here.
//!
//! * [`PacketObservation`] — the §3.3 extraction: (timestamp, packet
//!   number, spin bit) per received 1-RTT packet.
//! * [`EdgeMachine`] ([`edge`]) — the one spin-edge detector: a
//!   fixed-size state per flow direction that turns the time between
//!   consecutive edges into RTT samples under an [`EdgePolicy`]
//!   ([`EdgePolicy::RAW`] for the paper's client-side extraction,
//!   [`EdgePolicy::ON_PATH`] for the RFC 9312 heuristics of an on-path
//!   observer), plus the RFC 9312 §4.2.1 [`component`] split of a tap
//!   that sees both directions.
//! * [`vec_counter`] — the Valid Edge Counter of De Vaere et al., carried
//!   in the short header's reserved bits by consenting endpoints; an
//!   observer under [`EdgePolicy::require_valid_edge`] accepts an edge
//!   only once the counter saturates at [`VEC_MAX`].
//! * [`GreaseFilter`] — the paper's filter: a connection presumably
//!   greases the spin bit if any spin-derived RTT estimate undercuts the
//!   minimum of the QUIC stack's own estimates.
//! * [`classify`](classify::classify_flow) — the Table 3 taxonomy:
//!   AllZero / AllOne / Spinning / Greased.
//! * [`AccuracySample`] — §5.1's two metrics: absolute difference of the
//!   means and the mapped ratio (divide by the smaller mean; negative when
//!   the spin bit underestimates).
//! * [`reorder`] — §5.1's R/S comparison: received order vs. packets
//!   sorted by packet number.
//!
//! Nothing in this crate knows about the simulator or the QUIC stack; it
//! consumes plain observation records, so it can equally be fed from a
//! real packet capture.

pub mod accuracy;
pub mod classify;
pub mod edge;
pub mod grease;
pub mod observation;
pub mod reorder;
pub mod report;
pub mod vec_counter;

pub use accuracy::AccuracySample;
pub use classify::FlowClassification;
pub use edge::{
    component, AcceptedEdge, Component, Direction, Edge, EdgeMachine, EdgePolicy, SampleSummary,
    PERIOD_WINDOW,
};
pub use grease::GreaseFilter;
pub use observation::PacketObservation;
pub use report::ObserverReport;
pub use vec_counter::{VEC_INVALID, VEC_MAX};
