//! Golden JSON artifacts: each file under `tests/fixtures/` was written by
//! the previous, tree-based serde stand-in from a 100-domain `spinctl run
//! --profile` (`timeseries.json` from a 20-domain one, to keep the
//! quadratic truncation sweep short), plus the `loss_vantage` matrix
//! report, that run's `anomalies --json` listing, and a two-trace qlog
//! file. Every one must parse into
//! its artifact type and re-serialize byte-identically, and the reader
//! must reject every truncation and survive byte mutations and deep
//! nesting without panicking.

use proptest::TestRng;
use quicspin_qlog::{ChromeEvent, QlogFile};
use quicspin_scanner::{
    read_observer, write_observer, AnomalyIndex, ObserverDoc, RunManifest, TimeSeriesDoc,
};
use quicspin_spinctl::report::MatrixReportDoc;
use quicspin_spinctl::AnomalyListDoc;
use quicspin_telemetry::ProfileDoc;
use serde::{Deserialize, Serialize};
use std::io::ErrorKind;

/// Parses `text` as `T` and writes it back in the fixture's layout.
type Reserialize = fn(&str, bool) -> Result<String, serde_json::Error>;

fn reserialize<T: Serialize + Deserialize>(
    text: &str,
    pretty: bool,
) -> Result<String, serde_json::Error> {
    let value: T = serde_json::from_str(text)?;
    let mut streamed = Vec::new();
    if pretty {
        serde_json::to_writer_pretty(&mut streamed, &value)?;
    } else {
        serde_json::to_writer(&mut streamed, &value)?;
    }
    let built = if pretty {
        serde_json::to_string_pretty(&value)?
    } else {
        serde_json::to_string(&value)?
    };
    assert_eq!(streamed, built.as_bytes(), "to_writer and to_string agree");
    Ok(built)
}

/// `(file, pretty, reader)`.
const FIXTURES: &[(&str, bool, Reserialize)] = &[
    ("observer.json", true, reserialize::<ObserverDoc>),
    ("anomalies.json", true, reserialize::<AnomalyIndex>),
    ("trace.json", true, reserialize::<Vec<ChromeEvent>>),
    ("timeseries.json", true, reserialize::<TimeSeriesDoc>),
    ("metrics.json", true, reserialize::<RunManifest>),
    ("profile.json", true, reserialize::<ProfileDoc>),
    ("report.json", true, reserialize::<MatrixReportDoc>),
    ("anomalies_list.json", true, reserialize::<AnomalyListDoc>),
    ("qlog.json", false, reserialize::<QlogFile>),
];

/// A fixture's text without the trailing newline a CLI listing adds.
fn fixture(name: &str) -> String {
    let path = format!("{}/tests/fixtures/{name}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    text.strip_suffix('\n').unwrap_or(&text).to_string()
}

#[test]
fn every_fixture_reserializes_byte_identically() {
    for &(name, pretty, reader) in FIXTURES {
        let text = fixture(name);
        let again = reader(&text, pretty).unwrap_or_else(|e| panic!("{name}: {e}"));
        if again != text {
            let at = again
                .bytes()
                .zip(text.bytes())
                .position(|(a, b)| a != b)
                .unwrap_or(again.len().min(text.len()));
            panic!(
                "{name} differs at byte {at}: {:?} vs {:?}",
                &again[at.saturating_sub(40)..(at + 40).min(again.len())],
                &text[at.saturating_sub(40)..(at + 40).min(text.len())],
            );
        }
    }
}

/// Every strict prefix of fixture `index` must fail to parse. One test per
/// fixture, so the quadratic sweeps run in parallel.
fn every_truncation_is_rejected(index: usize) {
    let (name, pretty, reader) = FIXTURES[index];
    let text = fixture(name);
    for end in (0..text.len()).filter(|&i| text.is_char_boundary(i)) {
        assert!(
            reader(&text[..end], pretty).is_err(),
            "{name} truncated to {end} bytes parsed"
        );
    }
}

macro_rules! truncation_tests {
    ($($test:ident = $index:expr;)+) => {$(
        #[test]
        fn $test() {
            every_truncation_is_rejected($index);
        }
    )+};
}

truncation_tests! {
    truncated_observer_is_rejected = 0;
    truncated_anomalies_is_rejected = 1;
    truncated_trace_is_rejected = 2;
    truncated_timeseries_is_rejected = 3;
    truncated_metrics_is_rejected = 4;
    truncated_profile_is_rejected = 5;
    truncated_report_is_rejected = 6;
    truncated_anomaly_listing_is_rejected = 7;
    truncated_qlog_is_rejected = 8;
}

#[test]
fn truncation_tests_cover_every_fixture() {
    assert_eq!(FIXTURES.len(), 9);
}

#[test]
fn byte_mutations_never_panic() {
    // Bytes that break or reshape JSON structure, plus digits and letters
    // that keep it well-formed but change a value or a key.
    const BYTES: &[u8] = b"{}[],:\"\\-.0123456789eEnultrfasx \n\x01";
    let mut rng = TestRng::from_name("json_fixture_mutations");
    for &(name, pretty, reader) in FIXTURES {
        let text = fixture(name).into_bytes();
        let mut rejected = 0;
        for _ in 0..2_000 {
            let at = (rng.next_u64() % text.len() as u64) as usize;
            let byte = BYTES[(rng.next_u64() % BYTES.len() as u64) as usize];
            if !text[at].is_ascii() || text[at] == byte {
                continue;
            }
            let mut mutated = text.clone();
            mutated[at] = byte;
            let mutated = String::from_utf8(mutated).expect("ASCII for ASCII keeps UTF-8");
            if reader(&mutated, pretty).is_err() {
                rejected += 1;
            }
        }
        assert!(rejected > 0, "{name}: no mutation was rejected");
    }
}

#[test]
fn deep_nesting_is_an_error_not_a_stack_overflow() {
    assert_eq!(serde_json::MAX_DEPTH, 128);
    let brackets = "[".repeat(10_000);
    let under_unknown_key = format!("{{\"unknown\":{brackets}");
    for &(name, pretty, reader) in FIXTURES {
        for text in [&brackets, &under_unknown_key] {
            let err = reader(text, pretty).unwrap_err();
            assert!(!err.to_string().is_empty(), "{name}");
        }
    }
    let err = serde_json::from_str::<Vec<u8>>(&brackets).unwrap_err();
    assert!(
        err.to_string().contains("expected unsigned integer"),
        "{err}"
    );
}

#[test]
fn corrupt_field_is_named_by_path_and_offset() {
    let doc: ObserverDoc = serde_json::from_str(&fixture("observer.json")).unwrap();
    let dir =
        std::env::temp_dir().join(format!("quicspin-corrupt-observer-{}", std::process::id()));
    let path = write_observer(&dir, &doc).unwrap();
    let text = std::fs::read_to_string(&path).unwrap();
    // The fourth flow's packet count becomes a string.
    let key = "\"packets\": ";
    let at = text.match_indices(key).nth(3).unwrap().0 + key.len();
    let end = at + text[at..].find(',').unwrap();
    std::fs::write(&path, format!("{}\"many\"{}", &text[..at], &text[end..])).unwrap();
    let err = read_observer(&dir).unwrap_err();
    assert_eq!(err.kind(), ErrorKind::InvalidData);
    assert_eq!(
        err.to_string(),
        format!(
            "corrupt observer doc {}: flows[3].view.stats.packets: \
             expected unsigned integer at byte {at}",
            path.display()
        )
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn lone_high_surrogate_before_another_escape_is_an_error() {
    let err = serde_json::from_str::<String>("\"\\ud800\\u0041\"").unwrap_err();
    assert_eq!(err.to_string(), "invalid surrogate pair at byte 1");
}
