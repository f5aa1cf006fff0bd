//! # quicspin-webpop — the synthetic Internet
//!
//! The paper scans 219 M real domains; this crate is the substitute
//! (DESIGN.md, substitution table): a parameterized population of
//! domains, DNS records, hosting organizations / ASes, web-server stacks,
//! spin-bit policies, end-host delay classes and path RTTs — **calibrated
//! from the paper's own published aggregates** (Tables 1–4) so that
//! running the unmodified measurement pipeline against it reproduces the
//! paper's shapes.
//!
//! Calibration sources, all from the paper:
//!
//! * Table 1/4 — resolution rates, QUIC rates, spin shares, IP pooling
//!   ratios for toplists vs. CZDS vs. com/net/org, IPv4 vs. IPv6;
//! * Table 2 — per-organization connection shares and spin rates
//!   (Cloudflare ~50 % of connections with 0 % spin, Hostinger ~7 % with
//!   ~52 % spin, a broad "other" tail at ~53 %);
//! * §4.2 — web-server mix (LiteSpeed > 80 % of spinning connections,
//!   imunify360-webshield ~7 %);
//! * §4.3 / Fig. 2 — weekly deployment churn;
//! * Fig. 3/4 — host service classes (fast/medium/slow) whose delays
//!   produce the observed over-estimation distribution *through the
//!   simulation*, not by construction.
//!
//! Everything is deterministic given the population seed.

pub mod churn;
pub mod config;
pub mod delay;
pub mod domain;
pub mod lists;
pub mod org;
pub mod population;

pub use config::PopulationConfig;
pub use delay::{RttProfile, ServiceClass};
pub use domain::{DomainRecord, HostAddr, IpVersion, ListKind};
pub use lists::{ZoneRegistry, DEDUPLICATED_TOPLIST_SIZE, TOPLIST_SOURCES, ZONE_COUNT};
pub use org::{Org, OrgProfile, WebServer, ALL_ORGS, ORG_PROFILES};
pub use population::{ConnectionPlan, Population};
