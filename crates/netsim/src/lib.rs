//! # quicspin-netsim — deterministic discrete-event network simulation
//!
//! The paper measures real Internet paths; this crate provides the
//! substitute: a deterministic, seedable network simulator in the style of
//! smoltcp's fault-injection examples. It models a single client↔server
//! path with per-direction propagation delay, jitter, loss, reordering
//! (hold-back so later packets overtake), and token-bucket rate limiting
//! — plus an **on-path tap** at a configurable position that
//! keeps a header snap of every crossing datagram, which is where the
//! passive spin-bit observer of `quicspin-core` attaches.
//!
//! Design rules (per the repository's networking guides):
//!
//! * event-driven, no hidden clocks — virtual time only ([`SimTime`]);
//! * all randomness from an explicit seed ([`Rng`], xoshiro256**);
//! * fault injection is a first-class feature ([`LinkConfig`]).

pub mod event;
pub mod link;
pub mod pcap;
pub mod rng;
pub mod sim;
pub mod time;

pub use event::EventQueue;
pub use link::{Link, LinkConfig, Transit};
pub use pcap::{read_pcap, write_pcap, PcapError};
pub use rng::{Rng, WeightTable};
pub use sim::{PathStats, Side, SimEvent, SimScratch, Simulator, TapRecord, TAP_SNAP_LEN};
pub use time::{SimDuration, SimTime};
