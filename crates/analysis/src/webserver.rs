//! §4.2's web-server attribution: which server software carries the spin
//! bit support (the paper: LiteSpeed > 80 %, imunify360-webshield ~7 %).

use quicspin_scanner::{Campaign, ConnectionRecord, ScanOutcome};
use quicspin_webpop::WebServer;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// Connection counts per web-server software, from which the shares
/// follow. Counts over disjoint record sets merge by per-key addition.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct WebServerShares {
    /// All established connections per software.
    pub all: BTreeMap<String, u64>,
    /// Spinning connections per software.
    pub spinning: BTreeMap<String, u64>,
}

/// Counts one connection for `name`, allocating the key only once.
fn bump(counts: &mut BTreeMap<String, u64>, name: &str) {
    match counts.get_mut(name) {
        Some(n) => *n += 1,
        None => {
            counts.insert(name.to_string(), 1);
        }
    }
}

impl WebServerShares {
    /// Computes the shares from one campaign.
    pub fn from_campaign(campaign: &Campaign) -> Self {
        let mut shares = WebServerShares::default();
        campaign.records.iter().for_each(|r| shares.add(r));
        shares
    }

    /// Adds one record: an established connection counts for its server.
    pub fn add(&mut self, record: &ConnectionRecord) {
        let (ScanOutcome::Ok, Some(ws)) = (record.outcome, record.webserver) else {
            return;
        };
        bump(&mut self.all, label(ws));
        if record.has_spin_activity() {
            bump(&mut self.spinning, label(ws));
        }
    }

    /// Adds counts accumulated over another, disjoint record set.
    pub fn merge(&mut self, other: WebServerShares) {
        for (name, n) in other.all {
            *self.all.entry(name).or_default() += n;
        }
        for (name, n) in other.spinning {
            *self.spinning.entry(name).or_default() += n;
        }
    }

    /// Share of spinning connections served by `server`.
    pub fn spin_share(&self, server: WebServer) -> f64 {
        let total: u64 = self.spinning.values().sum();
        if total == 0 {
            return 0.0;
        }
        *self.spinning.get(label(server)).unwrap_or(&0) as f64 / total as f64
    }

    /// Share of all established connections served by `server`.
    pub fn overall_share(&self, server: WebServer) -> f64 {
        let total: u64 = self.all.values().sum();
        if total == 0 {
            return 0.0;
        }
        *self.all.get(label(server)).unwrap_or(&0) as f64 / total as f64
    }
}

fn label(ws: WebServer) -> &'static str {
    match ws {
        WebServer::LiteSpeed => "LiteSpeed",
        WebServer::Imunify360 => "imunify360-webshield",
        WebServer::CloudflareFrontend => "cloudflare",
        WebServer::GoogleFrontend => "gws",
        WebServer::NginxQuic => "nginx",
        WebServer::Caddy => "Caddy",
        WebServer::OtherServer => "other",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_scanner::{CampaignConfig, NetworkConditions, Scanner};
    use quicspin_webpop::{IpVersion, Population, PopulationConfig};

    fn shares(zone_domains: u32, seed: u64) -> WebServerShares {
        let pop = Population::generate(PopulationConfig {
            seed,
            toplist_domains: 0,
            zone_domains,
        });
        let campaign = Scanner::new(&pop).run_campaign(&CampaignConfig {
            conditions: NetworkConditions::clean(),
            ..CampaignConfig::default()
        });
        WebServerShares::from_campaign(&campaign)
    }

    #[test]
    fn litespeed_dominates_spinning_connections() {
        let s = shares(60_000, 1);
        let litespeed = s.spin_share(WebServer::LiteSpeed);
        assert!(
            litespeed > 0.5,
            "LiteSpeed carries the bulk of spin support: {litespeed:.2}"
        );
        let imunify = s.spin_share(WebServer::Imunify360);
        assert!(imunify > 0.0, "imunify360 present: {imunify:.3}");
        assert!(litespeed > imunify);
    }

    #[test]
    fn frontends_never_spin() {
        let s = shares(60_000, 2);
        assert_eq!(s.spin_share(WebServer::CloudflareFrontend), 0.0);
        assert_eq!(s.spin_share(WebServer::GoogleFrontend), 0.0);
    }

    #[test]
    fn overall_shares_sum_to_one() {
        let s = shares(20_000, 3);
        let servers = [
            WebServer::LiteSpeed,
            WebServer::Imunify360,
            WebServer::CloudflareFrontend,
            WebServer::GoogleFrontend,
            WebServer::NginxQuic,
            WebServer::Caddy,
            WebServer::OtherServer,
        ];
        let total: f64 = servers.iter().map(|&w| s.overall_share(w)).sum();
        assert!((total - 1.0).abs() < 1e-9, "{total}");
    }

    #[test]
    fn empty_campaign_yields_zero_shares() {
        let campaign = quicspin_scanner::Campaign {
            week: 0,
            version: IpVersion::V4,
            records: vec![],
        };
        let s = WebServerShares::from_campaign(&campaign);
        assert_eq!(s.spin_share(WebServer::LiteSpeed), 0.0);
        assert_eq!(s.overall_share(WebServer::LiteSpeed), 0.0);
    }
}
