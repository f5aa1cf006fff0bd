//! Domain records: one entry per target domain with everything the
//! scanner needs to decide how a connection to it behaves.

use crate::org::{Org, WebServer};
use serde::{Deserialize, Serialize};

/// Which target list a domain came from (paper §3.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ListKind {
    /// Deduplicated union of Alexa / Umbrella / Majestic / Tranco.
    Toplist,
    /// CZDS zone files for .com/.net/.org.
    ZoneComNetOrg,
    /// CZDS zone files for the other ~1137 gTLDs.
    ZoneOther,
}

impl ListKind {
    /// Whether this list is part of the CZDS aggregate.
    pub fn is_czds(self) -> bool {
        matches!(self, ListKind::ZoneComNetOrg | ListKind::ZoneOther)
    }
}

/// IP protocol version of a measurement.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum IpVersion {
    /// IPv4 (weekly measurements).
    V4,
    /// IPv6 (selected weeks).
    V6,
}

/// A synthetic IP address: version + opaque host identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct HostAddr {
    /// IP version.
    pub version: IpVersion,
    /// Organization operating the host.
    pub org: Org,
    /// Host index within the org's address pool.
    pub host_index: u64,
}

/// One domain of the target population.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainRecord {
    /// Stable identifier (index into the population).
    pub id: u32,
    /// Which list it came from.
    pub list: ListKind,
    /// Zone index into the population's [`crate::lists::ZoneRegistry`]
    /// (0 for toplist domains, which are looked up by name, not by zone).
    pub zone_id: u16,
    /// For toplist domains: bitmask of the four §3.1.1 sources this entry
    /// appeared in before deduplication (bit 0 = Alexa … bit 3 = Tranco).
    pub toplist_sources: u8,
    /// Hosting organization.
    pub org: Org,
    /// Did the (simulated) DNS resolve an A record?
    pub resolved_v4: bool,
    /// Did DNS resolve an AAAA record with QUIC service behind it?
    pub resolved_v6: bool,
    /// Does the hosting stack answer QUIC at all?
    pub quic: bool,
    /// IPv4 host serving this domain (if resolved).
    pub ipv4: Option<HostAddr>,
    /// IPv6 host serving this domain (if v6-resolved).
    pub ipv6: Option<HostAddr>,
    /// Web-server software on the host.
    pub webserver: WebServer,
    /// Whether the host's stack has the spin bit implemented & enabled.
    pub host_spin: bool,
    /// Host service class index (0 = fast, 1 = medium, 2 = slow).
    pub service_class: u8,
    /// Path RTT from the vantage point to this host, in ms.
    pub rtt_ms: f64,
    /// Whether the landing page redirects (e.g. to the https canonical).
    pub redirects: bool,
    /// Landing page size in bytes.
    pub page_bytes: u32,
}

impl DomainRecord {
    /// The domain name (synthetic but stable; zone domains carry their
    /// registry TLD).
    pub fn name(&self) -> String {
        let tld = match self.list {
            ListKind::Toplist => "com".to_string(),
            _ => crate::lists::tld_for_index(self.zone_id),
        };
        format!("domain-{}.{}", self.id, tld)
    }

    /// The "www." target actually queried (paper §3.2.1 prepends www).
    pub fn www_name(&self) -> String {
        format!("www.{}", self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(id: u32, list: ListKind) -> DomainRecord {
        DomainRecord {
            id,
            list,
            zone_id: if list == ListKind::ZoneComNetOrg {
                id as u16 % 3
            } else {
                3
            },
            toplist_sources: 0,
            org: Org::Other,
            resolved_v4: true,
            resolved_v6: false,
            quic: false,
            ipv4: None,
            ipv6: None,
            webserver: WebServer::OtherServer,
            host_spin: false,
            service_class: 0,
            rtt_ms: 40.0,
            redirects: false,
            page_bytes: 30_000,
        }
    }

    #[test]
    fn czds_classification() {
        assert!(!ListKind::Toplist.is_czds());
        assert!(ListKind::ZoneComNetOrg.is_czds());
        assert!(ListKind::ZoneOther.is_czds());
    }

    #[test]
    fn names_are_stable_and_www_prefixed() {
        let d = record(7, ListKind::ZoneComNetOrg);
        assert_eq!(d.name(), d.name());
        assert!(d.www_name().starts_with("www."));
        assert!(d.www_name().contains("domain-7"));
    }

    #[test]
    fn zone_tlds_follow_zone_id() {
        let tlds: Vec<String> = (0..3)
            .map(|i| record(i, ListKind::ZoneComNetOrg).name())
            .collect();
        assert!(tlds[0].ends_with(".com"));
        assert!(tlds[1].ends_with(".net"));
        assert!(tlds[2].ends_with(".org"));
        assert!(record(0, ListKind::ZoneOther).name().ends_with(".xyz"));
    }

    #[test]
    fn host_addr_equality_keys_on_all_fields() {
        let a = HostAddr {
            version: IpVersion::V4,
            org: Org::Hostinger,
            host_index: 5,
        };
        let b = HostAddr {
            version: IpVersion::V6,
            org: Org::Hostinger,
            host_index: 5,
        };
        assert_ne!(a, b);
        assert_eq!(a, a);
    }
}
