//! The headline integration test: run the full pipeline against a
//! mid-sized synthetic Internet and assert the paper's qualitative
//! findings — who wins, by roughly what factor, where the crossovers are.
//!
//! Exact numbers live in EXPERIMENTS.md (measured at 1:1000 paper scale);
//! here we assert the *shapes* with tolerances wide enough to be stable
//! across this smaller population.

use quicspin::analysis::{Dataset, OrgTable, OverviewTable, SpinConfigTable, WebServerShares};
use quicspin::scanner::{CampaignConfig, Scanner};
use quicspin::webpop::{IpVersion, Org, Population, PopulationConfig, WebServer};

fn population() -> Population {
    Population::generate(PopulationConfig {
        seed: 0x5eed_2023,
        toplist_domains: 1_000,
        zone_domains: 40_000,
    })
}

#[test]
fn full_pipeline_reproduces_the_papers_shapes() {
    let population = population();
    let scanner = Scanner::new(&population);
    let v4 = scanner.run_campaign(&CampaignConfig::default());

    // ---- Table 1 shapes -------------------------------------------------
    let t1 = OverviewTable::from_campaign(&v4);
    // ~85 % of zone domains resolve, ~71 % of toplist domains.
    assert!(
        (t1.czds.resolved_pct() - 84.9).abs() < 3.0,
        "{}",
        t1.czds.resolved_pct()
    );
    assert!((t1.toplists.resolved_pct() - 70.9).abs() < 5.0);
    // ~12 % of resolved zone domains speak QUIC; toplists are far denser.
    assert!((t1.czds.quic_pct_of_resolved() - 11.5).abs() < 3.0);
    assert!(t1.toplists.quic_pct_of_resolved() > 20.0);
    // ≈10 % of QUIC zone domains spin; toplists spin less.
    assert!(
        (5.0..=15.0).contains(&t1.czds.spin_domain_pct()),
        "CZDS domain spin {:.1}%",
        t1.czds.spin_domain_pct()
    );
    assert!(t1.toplists.spin_domain_pct() < t1.czds.spin_domain_pct());
    // The key §4.1 finding: ~45-50 % of the IPs serving zone domains spin —
    // several times the domain-level share.
    assert!(
        (30.0..=60.0).contains(&t1.czds.spin_ip_pct()),
        "CZDS IP spin {:.1}%",
        t1.czds.spin_ip_pct()
    );
    assert!(t1.czds.spin_ip_pct() > 3.0 * t1.czds.spin_domain_pct());
    // Zone domains pool onto far fewer IPs than toplist domains.
    assert!(t1.czds.domains_per_ip() > 5.0 * t1.toplists.domains_per_ip());

    // ---- Table 2 shapes -------------------------------------------------
    let t2 = OrgTable::from_campaign(&v4);
    let cf = t2.row(Org::Cloudflare);
    assert_eq!(cf.total_rank, Some(1));
    assert_eq!(cf.spin_connections, 0);
    assert_eq!(t2.row(Org::Fastly).spin_connections, 0);
    let hostinger = t2.row(Org::Hostinger);
    assert_eq!(hostinger.spin_rank, Some(1), "Hostinger leads spin support");
    assert!(
        (35.0..=65.0).contains(&hostinger.spin_pct()),
        "Hostinger spins on about half its connections: {:.1}%",
        hostinger.spin_pct()
    );
    // Broad support base: <other> spins on a large share too.
    assert!(t2.row(Org::Other).spin_pct() > 30.0);

    // ---- Table 3 shapes -------------------------------------------------
    let t3 = SpinConfigTable::from_campaign(&v4);
    assert!(t3.czds.all_zero_pct() > 80.0, "all-zero dominates");
    assert!(t3.czds.all_one_pct() < 2.0, "all-one rare");
    assert!(t3.czds.grease_pct() < 1.0, "grease filter fires rarely");

    // ---- §4.2 web servers -----------------------------------------------
    let servers = WebServerShares::from_campaign(&v4);
    let litespeed = servers.spin_share(WebServer::LiteSpeed);
    assert!(
        litespeed > 0.6,
        "LiteSpeed carries the bulk: {litespeed:.2}"
    );
    assert_eq!(servers.spin_share(WebServer::CloudflareFrontend), 0.0);

    // ---- Figures 3/4 shapes ----------------------------------------------
    let dataset = Dataset::from_campaign(&v4);
    let spin = &dataset.fig4.spin_received;
    assert!(spin.connections() > 100, "enough spinning connections");
    assert!(
        dataset.fig3.spin_received.overestimate_share() > 0.9,
        "the spin bit almost always overestimates: {:.2}",
        dataset.fig3.spin_received.overestimate_share()
    );
    assert!(
        (0.15..=0.45).contains(&spin.within_25pct_share()),
        "≈30 % accurate within 25 %: {:.2}",
        spin.within_25pct_share()
    );
    assert!(
        (0.35..=0.75).contains(&spin.over_3x_share()),
        "≈half overestimate >3×: {:.2}",
        spin.over_3x_share()
    );
    // §5.2: reordering impact is marginal.
    assert!(
        dataset.reordering.differing_share() < 0.02,
        "R vs S differ rarely: {:.4}",
        dataset.reordering.differing_share()
    );
    // The bundle finishes into the same tables as their own builders.
    assert_eq!(dataset.overview(), t1);
    assert_eq!(dataset.org_table(), t2);
    assert_eq!(dataset.spin_config(), t3);
    assert_eq!(dataset.webserver, servers);

    // ---- Table 4 shapes (IPv6) -------------------------------------------
    let v6 = scanner.run_campaign(&CampaignConfig {
        version: IpVersion::V6,
        ..CampaignConfig::default()
    });
    let t4 = OverviewTable::from_campaign(&v6);
    // Fewer domains resolve over v6 ...
    assert!(t4.czds.resolved_domains < t1.czds.resolved_domains / 4);
    // ... but QUIC v6 IPs are far more numerous relative to domains
    // (per-domain addresses at the hosters) ...
    assert!(t4.czds.domains_per_ip() < t1.czds.domains_per_ip() / 4.0);
    // ... and the majority of them spin.
    assert!(
        t4.czds.spin_ip_pct() > 50.0,
        "v6 IP spin share {:.1}%",
        t4.czds.spin_ip_pct()
    );
    // Toplists remain the v6 laggard (the paper's "two-fold picture").
    assert!(t4.toplists.spin_domain_pct() < t4.czds.spin_domain_pct());
}
