//! # quicspin-quic — a simplified QUIC v1 endpoint
//!
//! The paper's scans ran an adapted quic-go; this crate is the from-scratch
//! Rust equivalent scoped to what the study exercises:
//!
//! * connection establishment over an opaque-blob handshake that carries
//!   version and transport parameters (TLS itself is irrelevant to the
//!   study — only transport behaviour is measured);
//! * packet-number spaces, ACK generation with delayed ACKs and reported
//!   ACK delay, RFC 9002 RTT estimation (`latest` / `smoothed` / `rttvar`
//!   / `min`), packet-threshold loss detection, and PTO retransmission;
//! * streams sufficient for an HTTP/3-style request/response exchange;
//! * **the spin bit** (RFC 9000 §17.4): client inverts, server reflects,
//!   keyed to the largest received packet number — plus every disabling
//!   strategy the paper investigates (fixed zero/one, per-packet and
//!   per-connection greasing) and the optional Valid Edge Counter;
//! * qlog event emission for every packet the client sends or receives,
//!   mirroring the paper's instrumentation: the measurement is taken from
//!   the scanning client's trace alone, so the server endpoint logs
//!   nothing.
//!
//! [`ConnectionLab`] wires a client and a server connection through a
//! `quicspin-netsim` path and drives the event loop — the unit of work the
//! scanner performs once per target.

pub mod ack;
pub mod config;
pub mod conn;
pub mod lab;
pub mod recovery;
pub mod rtt;
pub mod spin;
pub mod streams;

pub use config::{SpinPolicy, TransportConfig};
pub use conn::{AppEvent, ConnCounters, Connection, ConnectionError, Role, CID_LEN};
pub use lab::{ConnectionLab, LabConfig, LabOutcome, LabScratch, LabStats, ServerProfile};
pub use rtt::RttEstimator;
pub use spin::SpinGenerator;
