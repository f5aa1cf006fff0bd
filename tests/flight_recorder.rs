//! End-to-end tests of the campaign flight recorder: deterministic
//! anomaly detection across worker counts, bounded trace retention with
//! highest-severity-first eviction, zero interference with the campaign
//! records, and exact round-trips of retained traces through the binary
//! store and the timeline renderer.

use quicspin::qlog::{timeline, TimelineRow};
use quicspin::scanner::{
    read_anomaly_index, read_flagged_trace, write_flight_recording, CampaignConfig, FlightConfig,
    ProbeId, Scanner,
};
use quicspin::webpop::{Population, PopulationConfig};

fn population(seed: u64, toplist: u32, zone: u32) -> Population {
    Population::generate(PopulationConfig {
        seed,
        toplist_domains: toplist,
        zone_domains: zone,
    })
}

fn flight_config(threads: usize, budget: u64, sample_every: u64) -> CampaignConfig {
    let mut flight = FlightConfig::armed(0x5eed_f11e);
    flight.retention_budget_bytes = budget;
    flight.baseline_sample_every = sample_every;
    CampaignConfig {
        threads,
        flight,
        ..CampaignConfig::default()
    }
}

#[test]
fn anomaly_index_is_byte_identical_across_thread_counts() {
    let pop = population(0xf11e, 80, 560);
    let scanner = Scanner::new(&pop);
    let mut index_jsons: Vec<String> = Vec::new();
    let mut stores: Vec<Vec<u8>> = Vec::new();
    for threads in [1usize, 4, 8] {
        let config = flight_config(threads, 2 << 20, 16);
        let (_campaign, recording) = scanner.run_campaign_flight(&config);
        assert!(
            !recording.anomalies().is_empty(),
            "campaign must flag something for the comparison to mean anything"
        );
        assert!(recording.flagged_traces() > 0);
        index_jsons.push(serde_json::to_string_pretty(recording.index()).unwrap());
        stores.push(recording.trace_store());
    }
    assert_eq!(
        index_jsons[0], index_jsons[1],
        "anomaly index must not depend on worker count (1 vs 4)"
    );
    assert_eq!(
        index_jsons[0], index_jsons[2],
        "anomaly index must not depend on worker count (1 vs 8)"
    );
    assert_eq!(stores[0], stores[1], "trace store bytes (1 vs 4)");
    assert_eq!(stores[0], stores[2], "trace store bytes (1 vs 8)");
}

#[test]
fn flight_recorder_does_not_change_campaign_records() {
    let pop = population(0xf11e, 100, 540);
    let scanner = Scanner::new(&pop);
    let config = flight_config(2, 2 << 20, 16);
    let mut plain_config = config.clone();
    plain_config.flight = FlightConfig::default();
    let plain = scanner.run_campaign(&plain_config);
    let (flight, recording) = scanner.run_campaign_flight(&config);
    assert!(recording.flagged_traces() > 0);
    assert_eq!(
        serde_json::to_string(&plain.records).unwrap(),
        serde_json::to_string(&flight.records).unwrap(),
        "the flight recorder must be invisible in the records"
    );
    assert!(
        flight.records.iter().all(|r| r.qlog.is_none()),
        "without keep_qlogs the inspected traces are stripped from records"
    );
}

#[test]
fn retention_budget_is_never_exceeded_and_keeps_highest_severity() {
    let pop = population(0xf11e, 80, 520);
    let scanner = Scanner::new(&pop);
    let roomy = 4 << 20;
    let tight = 6_000;
    let (_c1, full) = scanner.run_campaign_flight(&flight_config(2, roomy, 4));
    let (_c2, small) = scanner.run_campaign_flight(&flight_config(2, tight, 4));

    // Same campaign, same detection: only retention differs.
    assert_eq!(full.flagged_traces(), small.flagged_traces());
    assert_eq!(full.anomalies(), small.anomalies());
    assert_eq!(full.evicted_traces(), 0, "roomy budget keeps everything");

    assert!(small.retained_bytes() <= tight, "budget is a hard cap");
    assert!(small.evicted_traces() > 0, "campaign must overflow the cap");
    assert!(!small.retained().is_empty(), "cap still fits some traces");

    // The tight-budget keep-set is a prefix of the roomy one in priority
    // order, so every retained trace outranks every evicted one.
    let full_slots = &full.index().traces;
    let small_slots = &small.index().traces;
    assert_eq!(&full_slots[..small_slots.len()], &small_slots[..]);
    let min_retained = small_slots.iter().map(|s| s.severity).min().unwrap();
    let max_evicted = full_slots[small_slots.len()..]
        .iter()
        .map(|s| s.severity)
        .max()
        .unwrap();
    assert!(
        min_retained >= max_evicted,
        "retained {min_retained} vs evicted {max_evicted}"
    );
}

#[test]
fn stored_traces_round_trip_through_files_and_timeline() {
    let pop = population(0xf11e, 60, 300);
    let scanner = Scanner::new(&pop);
    let mut config = flight_config(2, 4 << 20, 8);
    config.keep_qlogs = true;
    let (campaign, recording) = scanner.run_campaign_flight(&config);
    assert!(!recording.retained().is_empty());

    let dir = std::env::temp_dir().join(format!("quicspin-flight-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let (index_path, store_path) = write_flight_recording(&dir, &recording).unwrap();
    assert!(index_path.ends_with("anomalies.json"));
    assert!(store_path.ends_with("traces.bin"));
    let index = read_anomaly_index(&dir).unwrap();
    assert_eq!(
        serde_json::to_string(&index).unwrap(),
        serde_json::to_string(recording.index()).unwrap()
    );

    for slot in &index.traces {
        let decoded = read_flagged_trace(&dir, slot).unwrap();
        let in_memory = recording.trace(slot.probe).expect("trace in recording");
        // The campaign ran with keep_qlogs, so the very trace the
        // recorder stored is still on its record: the store round-trips
        // the §3.3 extraction and the timeline rows agree with it.
        let original = campaign
            .records
            .iter()
            .find(|r| ProbeId::new(r.domain_id, r.redirect_depth) == slot.probe)
            .and_then(|r| r.qlog.as_ref())
            .expect("original qlog on the record");
        assert_eq!(decoded.spin_observations(), original.spin_observations());
        assert_eq!(decoded.rtt_samples_us(), original.rtt_samples_us());
        assert_eq!(
            in_memory.spin_observations(),
            original.spin_observations(),
            "in-memory accessor agrees with the record"
        );
        let from_rows: Vec<(u64, u64, bool)> = timeline(&decoded)
            .iter()
            .filter_map(TimelineRow::spin_observation)
            .collect();
        assert_eq!(from_rows, original.spin_observations());
    }
    std::fs::remove_dir_all(&dir).ok();
}
