//! Golden paper text: Tables 1–4, the §4.2 web-server shares, Figs. 2–4
//! and the §5.2 reordering counts for one small fixed population, rendered
//! and serialized (figure shares at full precision), must match
//! `tests/fixtures/paper_text.txt` byte for byte. A change to the analysis
//! builders that moves a single count or share fails here even when the
//! rendered one-decimal percentages do not move.

use quicspin::analysis::{
    render, AbsoluteAccuracyFigure, Dataset, LongitudinalFigure, OrgTable, OverviewTable,
    RatioAccuracyFigure, ReorderingImpact, SpinConfigTable, WebServerShares,
};
use quicspin::scanner::{run_longitudinal, CampaignConfig, LongitudinalConfig, Scanner};
use quicspin::webpop::{IpVersion, Population, PopulationConfig, WebServer};

const FIXTURE: &str = include_str!("fixtures/paper_text.txt");

macro_rules! json {
    ($value:expr) => {
        serde_json::to_string($value).expect("serialize")
    };
}

fn population() -> Population {
    Population::generate(PopulationConfig {
        seed: 0x5eed_2023,
        toplist_domains: 400,
        zone_domains: 8_000,
    })
}

fn paper_text() -> String {
    let population = population();
    let scanner = Scanner::new(&population);
    let config = CampaignConfig {
        threads: 2,
        ..CampaignConfig::default()
    };
    let v4 = scanner.run_campaign(&config);
    let v6 = scanner.run_campaign(&CampaignConfig {
        version: IpVersion::V6,
        ..config.clone()
    });
    let study = Population::generate(PopulationConfig {
        seed: 0x5eed_2023,
        toplist_domains: 0,
        zone_domains: 2_000,
    });
    let weeks = run_longitudinal(&study, &LongitudinalConfig::paper_weeks(config));

    let mut out = String::new();
    let mut line = |s: String| {
        out.push_str(&s);
        out.push('\n');
    };
    let table1 = OverviewTable::from_campaign(&v4);
    line(render::render_overview("Table 1: IPv4 overview", &table1));
    line(json!(&table1));
    let table2 = OrgTable::from_campaign(&v4);
    line(render::render_orgs(&table2));
    line(json!(&table2));
    let table3 = SpinConfigTable::from_campaign(&v4);
    line(render::render_spin_config(&table3));
    line(json!(&table3));
    let servers = WebServerShares::from_campaign(&v4);
    line("Web servers (share of spinning / of all connections):".to_string());
    for ws in [
        WebServer::LiteSpeed,
        WebServer::Imunify360,
        WebServer::CloudflareFrontend,
        WebServer::GoogleFrontend,
        WebServer::NginxQuic,
        WebServer::Caddy,
        WebServer::OtherServer,
    ] {
        line(format!(
            "  {:<22} {:5.1}% {:5.1}%",
            format!("{ws:?}"),
            servers.spin_share(ws) * 100.0,
            servers.overall_share(ws) * 100.0
        ));
    }
    line(json!(&servers));
    let fig3 = AbsoluteAccuracyFigure::from_records(v4.established());
    line(render::render_fig3(&fig3));
    for s in [
        &fig3.spin_received,
        &fig3.spin_sorted,
        &fig3.grease_received,
        &fig3.grease_sorted,
    ] {
        line(format!(
            "n={} bins={:?} shares={:?}",
            s.connections(),
            s.histogram.counts,
            [
                s.overestimate_share(),
                s.within_25ms_share(),
                s.over_200ms_share()
            ]
        ));
    }
    let fig4 = RatioAccuracyFigure::from_records(v4.established());
    line(render::render_fig4(&fig4));
    for s in [
        &fig4.spin_received,
        &fig4.spin_sorted,
        &fig4.grease_received,
        &fig4.grease_sorted,
    ] {
        line(format!(
            "n={} bins={:?} shares={:?}",
            s.connections(),
            s.histogram.counts,
            [
                s.within_25pct_share(),
                s.within_factor2_share(),
                s.over_3x_share(),
                s.underestimate_share(),
                s.under_within_factor2_share()
            ]
        ));
    }
    let reordering = ReorderingImpact::from_records(v4.established());
    line(format!(
        "Reordering impact (§5.2): {} connections, {} differ, {} small, {} improved",
        reordering.connections, reordering.differing, reordering.small_delta, reordering.improved
    ));
    let table4 = OverviewTable::from_campaign(&v6);
    line(render::render_overview("Table 4: IPv6 overview", &table4));
    line(json!(&table4));
    let fig2 = LongitudinalFigure::from_result(&weeks);
    line(render::render_fig2(&fig2));
    line(json!(&fig2));
    line(json!(&weeks));
    out
}

#[test]
fn paper_text_matches_the_golden_fixture() {
    let text = paper_text();
    if text != FIXTURE {
        let first = text
            .lines()
            .zip(FIXTURE.lines())
            .position(|(a, b)| a != b)
            .unwrap_or(text.lines().count().min(FIXTURE.lines().count()));
        panic!(
            "paper text differs from tests/fixtures/paper_text.txt at line {}:\n  got:  {:?}\n  want: {:?}",
            first + 1,
            text.lines().nth(first),
            FIXTURE.lines().nth(first)
        );
    }
}

#[test]
fn dataset_fold_matches_the_materialized_build() {
    let population = population();
    let scanner = Scanner::new(&population);
    let config = |threads| CampaignConfig {
        threads,
        ..CampaignConfig::default()
    };
    let campaign = scanner.run_campaign(&config(2));
    let built = Dataset::from_campaign(&campaign);
    for threads in [1, 4] {
        let folded = scanner.run_campaign_fold(
            &config(threads),
            0..population.len() as u32,
            Dataset::default,
            |dataset, records| dataset.fold_domain(records),
            Dataset::merge,
        );
        assert_eq!(folded, built, "threads={threads}");
    }
    // The bundle holds exactly what each artefact's own builder folds.
    assert_eq!(built.overview(), OverviewTable::from_campaign(&campaign));
    assert_eq!(built.org_table(), OrgTable::from_campaign(&campaign));
    assert_eq!(
        built.spin_config(),
        SpinConfigTable::from_campaign(&campaign)
    );
    assert_eq!(built.webserver, WebServerShares::from_campaign(&campaign));
    let established = || campaign.established();
    assert_eq!(
        built.fig3,
        AbsoluteAccuracyFigure::from_records(established())
    );
    assert_eq!(built.fig4, RatioAccuracyFigure::from_records(established()));
    assert_eq!(
        built.reordering,
        ReorderingImpact::from_records(established())
    );
}
