//! Integration: the measurement data products (qlog traces, connection
//! records, analysis artefacts) serialize and round-trip, mirroring the
//! paper's released dataset (Appendix B).

use quicspin::core::PacketObservation;
use quicspin::prelude::*;
use quicspin::qlog::QlogFile;
use quicspin::scanner::CampaignConfig;

#[test]
fn lab_qlog_serializes_and_preserves_spin_observations() {
    // Two client traces, as a dataset holds one per probed connection.
    let a = ConnectionLab::new(LabConfig::default()).run();
    let b = ConnectionLab::new(LabConfig {
        seed: 2,
        path_rtt_ms: 80.0,
        ..LabConfig::default()
    })
    .run();
    let file = QlogFile::new(vec![a.client_qlog.clone(), b.client_qlog.clone()]);
    let json = file.to_json().unwrap();
    let back = QlogFile::from_json(&json).unwrap();
    assert_eq!(back, file);
    for (trace, out) in back.traces.iter().zip([&a, &b]) {
        assert_eq!(
            trace.spin_observations(),
            out.client_qlog.spin_observations(),
            "the §3.3 extraction survives serialization"
        );
        assert_eq!(trace.vantage_point, "client");
    }
    assert_ne!(
        back.traces[0].spin_observations(),
        back.traces[1].spin_observations(),
        "the two traces are distinct connections"
    );
}

#[test]
fn connection_records_roundtrip_as_json() {
    let population = Population::generate(quicspin::webpop::PopulationConfig::tiny(5));
    let campaign = Scanner::new(&population).run_campaign(&CampaignConfig::default());
    let established: Vec<&ConnectionRecord> = campaign.established().collect();
    assert!(!established.is_empty());
    for record in established.iter().take(20) {
        let json = serde_json::to_string(record).unwrap();
        let back: ConnectionRecord = serde_json::from_str(&json).unwrap();
        assert_eq!(back.domain_id, record.domain_id);
        assert_eq!(back.report, record.report);
        assert_eq!(back.outcome, record.outcome);
    }
}

#[test]
fn observer_report_rebuilds_identically_from_serialized_observations() {
    let out = ConnectionLab::new(LabConfig::default()).run();
    let observations = out.client_observations();
    let json = serde_json::to_string(&observations).unwrap();
    let back: Vec<PacketObservation> = serde_json::from_str(&json).unwrap();
    let report_a = ObserverReport::build(
        &observations,
        out.client_stack_samples_us.clone(),
        GreaseFilter::paper(),
    );
    let report_b = ObserverReport::build(
        &back,
        out.client_stack_samples_us.clone(),
        GreaseFilter::paper(),
    );
    assert_eq!(report_a, report_b);
}

#[test]
fn analysis_tables_serialize() {
    let population = Population::generate(quicspin::webpop::PopulationConfig::tiny(6));
    let campaign = Scanner::new(&population).run_campaign(&CampaignConfig::default());
    let table = OverviewTable::from_campaign(&campaign);
    let json = serde_json::to_string(&table).unwrap();
    let back: OverviewTable = serde_json::from_str(&json).unwrap();
    assert_eq!(back, table);
}
