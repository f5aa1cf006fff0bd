//! # quicspin-observer — the on-path spin observatory
//!
//! The paper measures the spin bit from its own client; this crate adds
//! the vantage the bit was designed for — a **passive observer in the
//! middle of the path** that reconstructs per-flow RTT from nothing but
//! encrypted short-header bytes.
//!
//! Structure:
//!
//! * [`ObservedPacket`] ([`packet`]) — the privacy boundary. The only
//!   constructors narrow a raw tap datagram through
//!   `Header::peek_observable`; long-header (handshake) packets and
//!   anything undecodable never yield a value, so plaintext bytes cannot
//!   reach observer code by construction.
//! * [`FlowObserver`] ([`flow`]) — the flow table entry: one core
//!   `EdgeMachine` per direction under `EdgePolicy::ON_PATH` (reordering
//!   rejection and loss-gap handling against a 16-period running
//!   median), plus the RFC 9312 §4.2.1 component split from the two
//!   directions' accepted edges. It holds no heap field. [`FlowStats`] is
//!   the serializable snapshot the campaign artifacts carry.
//!
//! The scanner attaches one [`FlowObserver`] per probed connection at the
//! configured tap position (see `quicspin-scanner`); `spinctl observe`
//! renders the resulting `observer.json`.

pub mod flow;
pub mod packet;

pub use flow::{FlowObserver, FlowStats};
pub use packet::ObservedPacket;
