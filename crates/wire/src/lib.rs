//! # quicspin-wire — QUIC wire format
//!
//! From-scratch implementation of the QUIC v1 wire image (RFC 9000) as far
//! as it is needed by a spin-bit measurement study:
//!
//! * variable-length integers (RFC 9000 §16),
//! * connection IDs,
//! * version codes for QUIC v1 and the draft versions 27/29/32/34 that the
//!   paper's adapted quic-go speaks,
//! * long headers (Initial / Handshake / 0-RTT / Retry) and short headers
//!   (1-RTT) including the **spin bit** (bit `0x20` of the short-header
//!   first byte),
//! * packet number truncation/expansion (RFC 9000 Appendix A),
//! * the frame subset used by the simulated endpoints (PADDING, PING, ACK,
//!   CRYPTO, STREAM, HANDSHAKE_DONE, CONNECTION_CLOSE, NEW_CONNECTION_ID).
//!
//! The codec is strictly deterministic and allocation-light; encoding writes
//! into a caller-provided `Vec<u8>`, decoding borrows from a byte slice.
//!
//! Header protection / packet encryption is intentionally *not* applied:
//! the simulator transports plaintext packets and the passive observer is
//! only ever allowed to look at the fields a real observer could see
//! (first byte, version, connection IDs, and — for our ground-truth
//! comparisons — the packet number). See
//! [`header::ObservableShortHeader`] for the observer-legal view.

pub mod cid;
pub mod coding;
pub mod error;
pub mod frame;
pub mod header;
pub mod packet;
pub mod varint;
pub mod version;

pub use cid::ConnectionId;
pub use coding::{Reader, Writer};
pub use error::WireError;
pub use frame::{AckRange, AckRanges, Frame, Frames};
pub use header::{Header, LongHeader, LongType, ObservableShortHeader, ShortHeader};
pub use packet::{
    expand_packet_number, truncate_packet_number, Packet, PacketNumber, PacketWriter,
};
pub use varint::VarInt;
pub use version::Version;
