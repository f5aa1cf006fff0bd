//! Client qlog bytes: the measuring client's `TraceLog` of four fixed
//! labs — a clean default path, 5% loss with jitter, reordering on a
//! rate-limited link, and a server that pins its spin bit to zero — is
//! encoded in the binary qlog format and folded into one FNV-1a digest
//! per lab, which must match `tests/fixtures/client_trace_digest.txt`.
//! The client trace is what the scanner reads (§3.3), so any change to
//! what it logs, when, or in which order moves a digest here. The
//! fixture was captured while the server endpoint still logged its own
//! trace: not logging the server must leave the client's bytes alone.

use quicspin::prelude::*;
use quicspin::qlog::encode_trace;

const FIXTURE: &str = include_str!("fixtures/client_trace_digest.txt");

/// FNV-1a over `bytes`.
fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// `name lost reordered events bytes digest` for one lab: the path's
/// drop and reorder counts (so each lab shows it exercised its
/// condition), then the client trace's event count, encoded size and
/// digest.
fn digest_line(name: &str, config: LabConfig) -> String {
    let out = ConnectionLab::new(config).run();
    assert!(out.handshake_completed, "{name}: handshake must complete");
    let bytes = encode_trace(&out.client_qlog);
    let path = &out.stats.path;
    format!(
        "{name} {} {} {} {} {:016x}",
        path.total_lost(),
        path.reordered[0] + path.reordered[1],
        out.client_qlog.len(),
        bytes.len(),
        fnv1a(&bytes)
    )
}

#[test]
fn client_traces_match_the_digest_fixture() {
    let lines = [
        digest_line("default", LabConfig::default()),
        digest_line(
            "loss_5pct_jitter",
            LabConfig {
                loss: 0.05,
                jitter_ms: 2.0,
                seed: 11,
                ..LabConfig::default()
            },
        ),
        digest_line(
            "reorder",
            LabConfig {
                reorder: 0.05,
                link_rate_bytes_per_sec: Some(12_500_000),
                seed: 12,
                ..LabConfig::default()
            },
        ),
        digest_line(
            "fixed_zero_server",
            LabConfig {
                server: TransportConfig::default().with_spin_policy(SpinPolicy::FixedZero),
                seed: 13,
                ..LabConfig::default()
            },
        ),
    ];
    let actual = lines.join("\n") + "\n";
    assert_eq!(actual, FIXTURE, "client trace digests moved:\n{actual}");
}
