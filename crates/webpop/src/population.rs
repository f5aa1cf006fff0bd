//! Population generation and per-connection planning.

use crate::churn::ChurnModel;
use crate::config::{PopulationConfig, REDIRECT_RATE, TOPLIST_RESOLVE_RATE, ZONE_RESOLVE_RATE};
use crate::delay::{RttProfile, ServiceClass};
use crate::domain::{DomainRecord, HostAddr, IpVersion, ListKind};
use crate::lists::{sample_source_membership, ZoneRegistry};
use crate::org::{Org, OrgProfile, WebServer, ALL_ORGS, ORG_PROFILES};
use quicspin_netsim::{Rng, WeightTable};
use quicspin_quic::{ServerProfile, SpinPolicy};

/// P(a resolved toplist domain also has an AAAA record) — Table 4.
pub const V6_DNS_RATE_TOPLIST: f64 = 0.125;
/// P(a resolved zone domain also has an AAAA record) — Table 4.
pub const V6_DNS_RATE_ZONE: f64 = 0.071;

/// Everything the scanner needs to run one connection to one domain.
#[derive(Debug, Clone)]
pub struct ConnectionPlan {
    /// Target domain.
    pub domain_id: u32,
    /// The host answering (keys AS/IP aggregation).
    pub host: HostAddr,
    /// Path round-trip time in ms.
    pub rtt_ms: f64,
    /// The server stack's spin policy *for this connection* (host policy,
    /// weekly churn and the RFC 9000 1-in-16 rule already applied).
    pub spin_policy: SpinPolicy,
    /// Response behaviour (processing delay + chunk gaps).
    pub server_profile: ServerProfile,
    /// Web-server software (for the `server:` header).
    pub webserver: WebServer,
    /// Whether the landing page answers with a redirect first.
    pub redirects: bool,
    /// Seed for the connection-level simulation.
    pub seed: u64,
}

/// The generated population.
#[derive(Debug)]
pub struct Population {
    config: PopulationConfig,
    domains: Vec<DomainRecord>,
    churn: ChurnModel,
    zones: ZoneRegistry,
}

fn org_profile(org: Org) -> &'static OrgProfile {
    &ORG_PROFILES[org.index()]
}

/// Stable key identifying a host (for per-host attribute derivation).
fn host_key(seed: u64, org: Org, host_index: u64) -> u64 {
    seed ^ (org.index() as u64).wrapping_mul(0x9e37_79b9_7f4a_7c15)
        ^ host_index.wrapping_mul(0xbf58_476d_1ce4_e5b9)
}

impl Population {
    /// Generates the population from its configuration. Deterministic.
    pub fn generate(config: PopulationConfig) -> Self {
        let mut rng = Rng::new(config.seed);
        let zones = ZoneRegistry::paper();
        let total = config.total_domains() as usize;
        let mut domains = Vec::with_capacity(total);

        let toplist_orgs = WeightTable::new(ORG_PROFILES.iter().map(|p| p.toplist_share));
        let zone_orgs = WeightTable::new(ORG_PROFILES.iter().map(|p| p.zone_share));

        // Pass 1: list membership, org, resolution, QUIC support.
        for id in 0..total as u32 {
            let (list, zone_id, toplist_sources) = if id < config.toplist_domains {
                (ListKind::Toplist, 0, sample_source_membership(&mut rng))
            } else {
                let zone_id = zones.sample(&mut rng);
                let list = if ZoneRegistry::is_com_net_org(zone_id) {
                    ListKind::ZoneComNetOrg
                } else {
                    ListKind::ZoneOther
                };
                (list, zone_id, 0)
            };
            let orgs = if list == ListKind::Toplist {
                &toplist_orgs
            } else {
                &zone_orgs
            };
            let org = ALL_ORGS[rng.weighted(orgs)];
            let profile = org_profile(org);
            let resolve_rate = if list == ListKind::Toplist {
                TOPLIST_RESOLVE_RATE
            } else {
                ZONE_RESOLVE_RATE
            };
            let resolved_v4 = rng.chance(resolve_rate);
            let quic_rate = if list == ListKind::Toplist {
                profile.quic_rate_toplist
            } else {
                profile.quic_rate
            };
            let quic = resolved_v4 && rng.chance(quic_rate);
            let v6_dns_rate = if list == ListKind::Toplist {
                V6_DNS_RATE_TOPLIST
            } else {
                V6_DNS_RATE_ZONE
            };
            let v6_quic_rate = if list == ListKind::Toplist {
                profile.ipv6_rate_toplist
            } else {
                profile.ipv6_rate_zone
            };
            let quic_v6 = quic && rng.chance(v6_quic_rate);
            let resolved_v6 = resolved_v4 && (quic_v6 || rng.chance(v6_dns_rate));
            let redirects = rng.chance(REDIRECT_RATE);
            // Landing page size: log-normal, median 30 KB.
            let page_bytes = rng
                .lognormal((30_000f64).ln(), 0.8)
                .clamp(2_000.0, 400_000.0) as u32;

            domains.push(DomainRecord {
                id,
                list,
                zone_id,
                toplist_sources,
                org,
                resolved_v4,
                resolved_v6,
                quic,
                ipv4: None,
                ipv6: if quic_v6 {
                    Some(HostAddr {
                        version: IpVersion::V6,
                        org,
                        host_index: 0, // assigned in pass 2
                    })
                } else {
                    None
                },
                webserver: WebServer::OtherServer,
                host_spin: false,
                service_class: 0,
                rtt_ms: 40.0,
                redirects,
                page_bytes,
            });
        }

        // Pass 2: host assignment. Pool sizes derive from the actual QUIC
        // domain counts per (org, list) and the configured pooling ratios.
        let mut quic_counts = [[0u64; 2]; 9]; // [org][toplist? 0 : zone 1]
        let mut v6_counts = [[0u64; 2]; 9];
        for d in &domains {
            if d.quic {
                let li = usize::from(d.list != ListKind::Toplist);
                quic_counts[d.org.index()][li] += 1;
                if d.ipv6.is_some() {
                    v6_counts[d.org.index()][li] += 1;
                }
            }
        }
        for d in domains.iter_mut() {
            if !d.quic {
                continue;
            }
            let profile = org_profile(d.org);
            let li = usize::from(d.list != ListKind::Toplist);
            let pooling = if d.list == ListKind::Toplist {
                profile.ipv4_pooling_toplist
            } else {
                profile.ipv4_pooling
            };
            let pool = (quic_counts[d.org.index()][li] / u64::from(pooling.max(1))).max(1);
            // Offset zone and toplist pools so they do not alias.
            let pool_base = if li == 0 { 0 } else { 1 << 40 };
            let host_index = pool_base + rng.next_below(pool);
            d.ipv4 = Some(HostAddr {
                version: IpVersion::V4,
                org: d.org,
                host_index,
            });

            if d.ipv6.is_some() {
                let v6_pool =
                    (v6_counts[d.org.index()][li] / u64::from(profile.ipv6_pooling.max(1))).max(1);
                let v6_index = pool_base + rng.next_below(v6_pool);
                d.ipv6 = Some(HostAddr {
                    version: IpVersion::V6,
                    org: d.org,
                    host_index: v6_index,
                });
            }

            // Per-host stack attributes (stable across domains sharing the
            // host): spin support, web server, service class, path RTT.
            let key = host_key(config.seed, d.org, host_index);
            let mut host_rng = Rng::new(key);
            d.host_spin = host_rng.chance(profile.spin_host_rate);
            let (ls, imu, front, nginx, caddy) = profile.webserver_mix;
            let other = (1.0 - ls - imu - front - nginx - caddy).max(0.0);
            let widx = host_rng.weighted_index(&[ls, imu, front, nginx, caddy, other]);
            d.webserver = match (widx, d.org) {
                (0, _) => WebServer::LiteSpeed,
                (1, _) => WebServer::Imunify360,
                (2, Org::Cloudflare) => WebServer::CloudflareFrontend,
                (2, _) => WebServer::OtherServer,
                (3, _) => WebServer::NginxQuic,
                (4, _) => WebServer::Caddy,
                (_, Org::Google) => WebServer::GoogleFrontend,
                (_, Org::Fastly) => WebServer::OtherServer,
                _ => WebServer::OtherServer,
            };
            let mix = profile.service_mix;
            d.service_class = host_rng.weighted_index(&[mix.fast, mix.medium, mix.slow]) as u8;
            d.rtt_ms = RttProfile {
                median_ms: profile.rtt_median_ms,
                sigma: profile.rtt_sigma,
            }
            .sample(&mut host_rng);
        }

        Population {
            config,
            domains,
            churn: ChurnModel::default(),
            zones,
        }
    }

    /// The zone registry backing this population.
    pub fn zones(&self) -> &ZoneRegistry {
        &self.zones
    }

    /// The configuration this population was generated from.
    pub fn config(&self) -> &PopulationConfig {
        &self.config
    }

    /// All domain records.
    pub fn domains(&self) -> &[DomainRecord] {
        &self.domains
    }

    /// One domain by id.
    pub fn domain(&self, id: u32) -> &DomainRecord {
        &self.domains[id as usize]
    }

    /// Number of domains.
    pub fn len(&self) -> usize {
        self.domains.len()
    }

    /// Whether the population is empty.
    pub fn is_empty(&self) -> bool {
        self.domains.is_empty()
    }

    /// The churn model in force.
    pub fn churn(&self) -> &ChurnModel {
        &self.churn
    }

    /// Whether the domain answers at all in `week` (site migrations, DNS
    /// changes, maintenance; Fig. 2's "working connections in every week"
    /// filter keys on this). Deterministic per (domain, week) — outages
    /// are domain-level events, not whole-IP events: a CDN PoP does not
    /// vanish for a week, but individual sites move and break routinely.
    pub fn is_reachable(&self, domain_id: u32, week: u32) -> bool {
        let d = self.domain(domain_id);
        if d.ipv4.is_none() {
            return d.resolved_v4;
        }
        let key = self.config.seed
            ^ u64::from(domain_id).wrapping_mul(0xd6e8_feb8_6659_fd93)
            ^ u64::from(week).wrapping_mul(0xff51_afd7_ed55_8ccd);
        Rng::new(key).chance(0.95)
    }

    /// Plans one connection to `domain_id` in `week` over `version`.
    ///
    /// Returns `None` if the domain does not resolve on that IP version or
    /// its host does not answer QUIC — the scanner records those outcomes
    /// from the domain record itself.
    pub fn plan_connection(
        &self,
        domain_id: u32,
        week: u32,
        version: IpVersion,
        attempt: u32,
    ) -> Option<ConnectionPlan> {
        let d = self.domain(domain_id);
        if !d.quic {
            return None;
        }
        let host = match version {
            IpVersion::V4 => d.ipv4?,
            IpVersion::V6 => d.ipv6?,
        };
        let profile = org_profile(d.org);
        // Stack attributes live on the machine → keyed by the v4 host
        // (per-domain v6 addresses are the same machine).
        let stack_key = host_key(self.config.seed, d.org, d.ipv4?.host_index);

        let mut conn_rng = Rng::new(
            self.config
                .seed
                .wrapping_mul(31)
                .wrapping_add(u64::from(domain_id))
                .wrapping_mul(1_000_003)
                .wrapping_add(u64::from(week))
                .wrapping_mul(97)
                .wrapping_add(u64::from(attempt))
                .wrapping_add(match version {
                    IpVersion::V4 => 0,
                    IpVersion::V6 => 0x5151,
                }),
        );

        let deployed_this_week =
            d.host_spin && crate::churn::ChurnModel::mixed_host_week_state(stack_key, week);
        let spin_policy = if deployed_this_week {
            SpinPolicy::Participate.with_mandatory_disable(16, &mut conn_rng)
        } else {
            // Host does not spin (or not this week): pick its disable
            // strategy, stable per host.
            let mut host_rng = Rng::new(stack_key ^ 0xd15ab1e);
            let (zero, one, per_packet) = profile.disable_mix;
            let per_conn = (1.0 - zero - one - per_packet).max(0.0);
            match host_rng.weighted_index(&[zero, one, per_packet, per_conn]) {
                0 => SpinPolicy::FixedZero,
                1 => SpinPolicy::FixedOne,
                2 => SpinPolicy::GreasePerPacket,
                _ => SpinPolicy::GreasePerConnection,
            }
        };

        let class = ServiceClass::from_index(d.service_class);
        let server_profile = class.sample_server_profile(d.page_bytes, &mut conn_rng);

        Some(ConnectionPlan {
            domain_id,
            host,
            rtt_ms: d.rtt_ms,
            spin_policy,
            server_profile,
            webserver: d.webserver,
            redirects: d.redirects,
            seed: conn_rng.next_u64(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::PopulationConfig;

    fn pop() -> Population {
        Population::generate(PopulationConfig::tiny(7))
    }

    #[test]
    fn generation_is_deterministic() {
        let a = Population::generate(PopulationConfig::tiny(7));
        let b = Population::generate(PopulationConfig::tiny(7));
        for (x, y) in a.domains().iter().zip(b.domains()) {
            assert_eq!(format!("{x:?}"), format!("{y:?}"));
        }
    }

    #[test]
    fn different_seeds_differ() {
        let a = Population::generate(PopulationConfig::tiny(1));
        let b = Population::generate(PopulationConfig::tiny(2));
        let quic_a = a.domains().iter().filter(|d| d.quic).count();
        let quic_b = b.domains().iter().filter(|d| d.quic).count();
        // Same expectation, different realizations almost surely.
        assert_ne!(
            a.domains()
                .iter()
                .map(|d| d.resolved_v4)
                .collect::<Vec<_>>(),
            b.domains()
                .iter()
                .map(|d| d.resolved_v4)
                .collect::<Vec<_>>()
        );
        let _ = (quic_a, quic_b);
    }

    #[test]
    fn list_sizes_match_config() {
        let p = pop();
        let toplist = p
            .domains()
            .iter()
            .filter(|d| d.list == ListKind::Toplist)
            .count();
        assert_eq!(toplist, 500);
        assert_eq!(p.len(), 4_500);
        assert!(!p.is_empty());
    }

    #[test]
    fn resolution_rates_approximate_paper() {
        let p = Population::generate(PopulationConfig {
            seed: 3,
            toplist_domains: 20_000,
            zone_domains: 50_000,
        });
        let rate = |list: ListKind| {
            let all: Vec<_> = p.domains().iter().filter(|d| d.list == list).collect();
            all.iter().filter(|d| d.resolved_v4).count() as f64 / all.len() as f64
        };
        assert!((rate(ListKind::Toplist) - 0.709).abs() < 0.02);
        assert!((rate(ListKind::ZoneComNetOrg) - 0.849).abs() < 0.02);
    }

    #[test]
    fn quic_domains_have_hosts_and_attributes() {
        let p = pop();
        for d in p.domains().iter().filter(|d| d.quic) {
            assert!(d.resolved_v4);
            let host = d.ipv4.expect("quic domain must have a v4 host");
            assert_eq!(host.version, IpVersion::V4);
            assert_eq!(host.org, d.org);
            assert!(d.rtt_ms >= 2.0);
        }
        for d in p.domains().iter().filter(|d| !d.quic) {
            assert!(d.ipv4.is_none());
        }
    }

    /// QUIC domain ids grouped by their IPv4 host.
    fn domains_by_host(p: &Population) -> std::collections::BTreeMap<HostAddr, Vec<u32>> {
        let mut hosts = std::collections::BTreeMap::<HostAddr, Vec<u32>>::new();
        for d in p.domains().iter().filter(|d| d.quic) {
            hosts
                .entry(d.ipv4.expect("QUIC domains resolve"))
                .or_default()
                .push(d.id);
        }
        hosts
    }

    #[test]
    fn shared_hosting_pools_domains_onto_ips() {
        let p = Population::generate(PopulationConfig {
            seed: 11,
            toplist_domains: 0,
            zone_domains: 200_000,
        });
        let mut cf_domains = 0usize;
        let mut hosts = 0usize;
        for (host, domains) in domains_by_host(&p) {
            if host.org == Org::Cloudflare {
                hosts += 1;
                cf_domains += domains.len();
            }
        }
        assert!(cf_domains > 1_000, "enough Cloudflare sample: {cf_domains}");
        let avg = cf_domains as f64 / hosts as f64;
        assert!(avg > 100.0, "Cloudflare pooling avg {avg} (hosts {hosts})");
    }

    #[test]
    fn host_attributes_consistent_across_domains_on_same_ip() {
        let p = Population::generate(PopulationConfig {
            seed: 13,
            toplist_domains: 0,
            zone_domains: 100_000,
        });
        let hosts = domains_by_host(&p);
        assert!(!hosts.is_empty());
        for (host, domains) in &hosts {
            let attrs = |id: u32| {
                let d = p.domain(id);
                (d.host_spin, d.webserver, d.service_class)
            };
            let expect = attrs(domains[0]);
            for &id in domains {
                assert_eq!(attrs(id), expect, "host {host:?} attribute mismatch");
            }
        }
    }

    #[test]
    fn hyperscalers_never_spin_hosters_often_do() {
        let p = Population::generate(PopulationConfig {
            seed: 17,
            toplist_domains: 0,
            zone_domains: 300_000,
        });
        let spin_rate = |org: Org| {
            let all: Vec<_> = p
                .domains()
                .iter()
                .filter(|d| d.quic && d.org == org)
                .collect();
            if all.is_empty() {
                return f64::NAN;
            }
            all.iter().filter(|d| d.host_spin).count() as f64 / all.len() as f64
        };
        assert_eq!(spin_rate(Org::Cloudflare), 0.0);
        let hostinger = spin_rate(Org::Hostinger);
        assert!((hostinger - 0.55).abs() < 0.08, "hostinger {hostinger}");
    }

    #[test]
    fn toplist_domains_carry_source_masks_zones_carry_zone_ids() {
        let p = Population::generate(PopulationConfig {
            seed: 41,
            toplist_domains: 2_000,
            zone_domains: 2_000,
        });
        for d in p.domains() {
            match d.list {
                crate::domain::ListKind::Toplist => {
                    assert!(d.toplist_sources != 0 && d.toplist_sources < 16);
                }
                _ => {
                    assert_eq!(d.toplist_sources, 0);
                    assert!(usize::from(d.zone_id) < p.zones().len());
                    assert_eq!(
                        d.list == crate::domain::ListKind::ZoneComNetOrg,
                        crate::lists::ZoneRegistry::is_com_net_org(d.zone_id)
                    );
                }
            }
        }
        // Zone TLD names resolve through the registry.
        let zone_domain = p
            .domains()
            .iter()
            .find(|d| d.list != crate::domain::ListKind::Toplist)
            .unwrap();
        let name = zone_domain.name();
        assert!(name.ends_with(&p.zones().zone(zone_domain.zone_id).tld));
    }

    #[test]
    fn plan_connection_none_for_non_quic() {
        let p = pop();
        let non_quic = p.domains().iter().find(|d| !d.quic).unwrap();
        assert!(p
            .plan_connection(non_quic.id, 0, IpVersion::V4, 0)
            .is_none());
    }

    #[test]
    fn plan_connection_some_for_quic_v4() {
        let p = pop();
        let quic = p.domains().iter().find(|d| d.quic).unwrap();
        let plan = p.plan_connection(quic.id, 0, IpVersion::V4, 0).unwrap();
        assert_eq!(plan.domain_id, quic.id);
        assert!(plan.rtt_ms >= 2.0);
        assert!(plan.server_profile.total_bytes() >= 1200);
    }

    #[test]
    fn plan_connection_v6_requires_v6_host() {
        let p = Population::generate(PopulationConfig {
            seed: 23,
            toplist_domains: 0,
            zone_domains: 50_000,
        });
        let with_v6 = p
            .domains()
            .iter()
            .find(|d| d.quic && d.ipv6.is_some())
            .expect("some v6 domain");
        assert!(p.plan_connection(with_v6.id, 0, IpVersion::V6, 0).is_some());
        let without_v6 = p
            .domains()
            .iter()
            .find(|d| d.quic && d.ipv6.is_none())
            .expect("some v4-only domain");
        assert!(p
            .plan_connection(without_v6.id, 0, IpVersion::V6, 0)
            .is_none());
    }

    #[test]
    fn plans_are_deterministic_but_vary_by_week_and_attempt() {
        let p = pop();
        let quic = p.domains().iter().find(|d| d.quic).unwrap();
        let a = p.plan_connection(quic.id, 0, IpVersion::V4, 0).unwrap();
        let b = p.plan_connection(quic.id, 0, IpVersion::V4, 0).unwrap();
        assert_eq!(a.seed, b.seed);
        let c = p.plan_connection(quic.id, 1, IpVersion::V4, 0).unwrap();
        let d = p.plan_connection(quic.id, 0, IpVersion::V4, 1).unwrap();
        assert!(a.seed != c.seed || a.seed != d.seed);
    }

    #[test]
    fn spinning_hosts_respect_one_in_sixteen() {
        let p = Population::generate(PopulationConfig {
            seed: 29,
            toplist_domains: 0,
            zone_domains: 200_000,
        });
        // Pick a spinning Hostinger host and plan many weeks of
        // connections while its deployment is enabled.
        let d = p
            .domains()
            .iter()
            .find(|d| d.quic && d.host_spin && d.org == Org::Hostinger)
            .expect("spinning hostinger domain");
        let mut participate = 0;
        let mut disabled = 0;
        for attempt in 0..2000 {
            let plan = p.plan_connection(d.id, 0, IpVersion::V4, attempt).unwrap();
            match plan.spin_policy {
                SpinPolicy::Participate => participate += 1,
                _ => disabled += 1,
            }
        }
        let total = participate + disabled;
        let rate = f64::from(disabled) / f64::from(total);
        // Either the deployment is off this week (rate 1.0) or the 1-in-16
        // rule applies (~6.25 %).
        assert!(
            rate > 0.99 || (rate - 1.0 / 16.0).abs() < 0.03,
            "disable rate {rate}"
        );
    }

    #[test]
    fn ipv6_hosts_less_pooled_than_v4_for_hosters() {
        let p = Population::generate(PopulationConfig {
            seed: 31,
            toplist_domains: 0,
            zone_domains: 400_000,
        });
        use std::collections::HashSet;
        let mut v4_hosts = HashSet::new();
        let mut v6_hosts = HashSet::new();
        let mut v4_domains = 0;
        let mut v6_domains = 0;
        for d in p
            .domains()
            .iter()
            .filter(|d| d.quic && d.org == Org::Hostinger)
        {
            v4_hosts.insert(d.ipv4.unwrap());
            v4_domains += 1;
            if let Some(v6) = d.ipv6 {
                v6_hosts.insert(v6);
                v6_domains += 1;
            }
        }
        let v4_pool = v4_domains as f64 / v4_hosts.len() as f64;
        let v6_pool = v6_domains as f64 / v6_hosts.len() as f64;
        assert!(
            v4_pool > 5.0 * v6_pool,
            "v4 pooling {v4_pool} must far exceed v6 pooling {v6_pool}"
        );
    }
}
