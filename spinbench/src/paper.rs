//! The `paper_tables` workload: the public-API pipeline behind the
//! paper's tables and figures, as `examples/internet_campaign.rs` and
//! `examples/rfc_compliance.rs` drive it. Both sweeps materialize their
//! records in memory; there is no tap and no flight recorder.

use crate::trace::{Instruments, Tracer};
use quicspin_analysis::{
    render, AbsoluteAccuracyFigure, LongitudinalFigure, OrgTable, OverviewTable,
    RatioAccuracyFigure, SpinConfigTable, WebServerShares,
};
use quicspin_scanner::{
    build_timeseries, run_longitudinal, write_run_manifest, write_timeseries, Campaign,
    CampaignConfig, LongitudinalConfig, RunManifest, Scanner,
};
use quicspin_telemetry::DEFAULT_TIMESERIES_CAPACITY;
use quicspin_webpop::{IpVersion, Population, WebServer};
use std::path::Path;
use std::sync::Arc;
use std::time::Duration;

/// Runs the twelve-week longitudinal study for Fig. 2, then the IPv4 and
/// IPv6 sweeps for Tables 1–4, the organization and web-server shares and
/// Figs. 3/4, and returns the rendered text. Each sweep's run manifest and
/// time series go to `out/v4` and `out/v6`.
///
/// The study runs first. Run after the sweeps, its peak resident memory
/// depends on how the freed sweep records fragment the heap: 78 or 95 MiB,
/// depending on the population seed.
pub fn paper_tables(
    population: &Population,
    threads: usize,
    out: &Path,
    tr: &mut Tracer,
    instruments: &Instruments,
) -> Result<String, String> {
    let base = CampaignConfig {
        threads,
        telemetry: Arc::clone(&instruments.telemetry),
        profiler: Arc::clone(&instruments.profiler),
        ..CampaignConfig::default()
    };
    let v6_config = CampaignConfig {
        version: IpVersion::V6,
        ..base.clone()
    };
    let study = LongitudinalConfig::paper_weeks(base.clone());
    let result = tr.span("scanner.longitudinal", |_| {
        run_longitudinal(population, &study)
    });
    let fig2 = tr.span("analysis.fig2", |_| {
        let figure = LongitudinalFigure::from_result(&result);
        format!(
            "{}observed all-weeks share: {:.1}%\n",
            render::render_fig2(&figure),
            figure.observed_all_weeks() * 100.0
        )
    });

    let scanner = Scanner::new(population);
    let sweep = |tr: &mut Tracer, config: &CampaignConfig| {
        tr.span("scanner.materialize", |_| {
            scanner.run_campaign_with_progress(config, Duration::from_secs(3600), |_| {})
        })
    };
    let (v4, v4_manifest) = sweep(tr, &base);
    let (v6, v6_manifest) = sweep(tr, &v6_config);
    tr.span("artifacts.write_other", |_| {
        write_sweep(&out.join("v4"), &v4, &v4_manifest, &base)?;
        write_sweep(&out.join("v6"), &v6, &v6_manifest, &v6_config)
    })?;
    let text = tr.span("analysis.tables", |_| tables(&v4, &v6));
    Ok(text + &fig2)
}

fn write_sweep(
    dir: &Path,
    campaign: &Campaign,
    manifest: &RunManifest,
    config: &CampaignConfig,
) -> Result<(), String> {
    write_run_manifest(dir, manifest).map_err(|e| e.to_string())?;
    let series = build_timeseries(campaign, config, DEFAULT_TIMESERIES_CAPACITY);
    write_timeseries(dir, &series).map_err(|e| e.to_string())?;
    Ok(())
}

fn tables(v4: &Campaign, v6: &Campaign) -> String {
    let mut text = String::new();
    let mut line = |s: String| {
        text.push_str(&s);
        text.push('\n');
    };
    line(render::render_overview(
        "Table 1: IPv4 overview",
        &OverviewTable::from_campaign(v4),
    ));
    line(render::render_orgs(&OrgTable::from_campaign(v4)));
    line(render::render_spin_config(&SpinConfigTable::from_campaign(
        v4,
    )));
    let servers = WebServerShares::from_campaign(v4);
    line("Web servers (share of spinning connections):".to_string());
    for ws in [
        WebServer::LiteSpeed,
        WebServer::Imunify360,
        WebServer::NginxQuic,
        WebServer::Caddy,
        WebServer::OtherServer,
    ] {
        line(format!(
            "  {:<22} {:5.1}%",
            format!("{ws:?}"),
            servers.spin_share(ws) * 100.0
        ));
    }
    line(render::render_fig3(&AbsoluteAccuracyFigure::from_records(
        v4.established(),
    )));
    line(render::render_fig4(&RatioAccuracyFigure::from_records(
        v4.established(),
    )));
    line(render::render_overview(
        "Table 4: IPv6 overview",
        &OverviewTable::from_campaign(v6),
    ));
    text
}
