//! Per-connection scan records — the dataset all tables and figures are
//! computed from.

use quicspin_core::ObserverReport;
use quicspin_qlog::TraceLog;
use quicspin_webpop::{HostAddr, IpVersion, ListKind, Org, WebServer};
use serde::{Deserialize, Serialize};

/// What happened when the scanner tried a target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ScanOutcome {
    /// DNS did not resolve on the requested IP version.
    NotResolved,
    /// Resolved, but the host never answered QUIC.
    NoQuic,
    /// The host was down this week (no answer at all).
    Unreachable,
    /// QUIC was answered but the handshake did not complete.
    HandshakeFailed,
    /// Connection established and the exchange completed.
    Ok,
}

/// One scanned connection.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct ConnectionRecord {
    /// Target domain.
    pub domain_id: u32,
    /// Which list the domain came from.
    pub list: ListKind,
    /// Hosting organization (AS mapping).
    pub org: Org,
    /// Measurement week.
    pub week: u32,
    /// IP version used.
    pub version: IpVersion,
    /// Redirect depth of this connection (0 = initial request).
    pub redirect_depth: u32,
    /// Outcome of the attempt.
    pub outcome: ScanOutcome,
    /// The host contacted, if any.
    pub host: Option<HostAddr>,
    /// Web-server software from the `server:` response header, if an
    /// HTTP response was parsed.
    pub webserver: Option<WebServer>,
    /// The spin-bit assessment (present for established connections).
    pub report: Option<ObserverReport>,
    /// The on-path observer's view of this connection, present when the
    /// campaign ran with a tap attached (see
    /// [`crate::observe::ObserverView`]).
    #[serde(default)]
    pub observer: Option<crate::observe::ObserverView>,
    /// Simulated handshake time in microseconds, when the handshake
    /// completed. Virtual-clock time, so it is identical for any
    /// worker-thread count — the time-series layer samples it.
    #[serde(default)]
    pub virtual_handshake_us: Option<u64>,
    /// Simulated total connection lifetime in microseconds (0 for
    /// attempts that never produced traffic). Virtual-clock time.
    #[serde(default)]
    pub virtual_total_us: u64,
    /// Deepest simulated bottleneck queue this connection saw.
    #[serde(default)]
    pub queue_high_water: u64,
    /// The client-side qlog trace, retained only when the campaign runs
    /// with `keep_qlogs` (the paper's Appendix B artifact release keeps
    /// these for all toplist connections).
    #[serde(skip_serializing_if = "Option::is_none", default)]
    pub qlog: Option<TraceLog>,
}

impl ConnectionRecord {
    /// A record for a failed attempt.
    pub fn failed(
        domain_id: u32,
        list: ListKind,
        org: Org,
        week: u32,
        version: IpVersion,
        outcome: ScanOutcome,
    ) -> Self {
        ConnectionRecord {
            domain_id,
            list,
            org,
            week,
            version,
            redirect_depth: 0,
            outcome,
            host: None,
            webserver: None,
            report: None,
            observer: None,
            virtual_handshake_us: None,
            virtual_total_us: 0,
            queue_high_water: 0,
            qlog: None,
        }
    }

    /// Whether this connection showed spin-bit activity (flips) —
    /// the paper's "Spin" candidate criterion before grease filtering.
    pub fn has_spin_activity(&self) -> bool {
        self.report
            .as_ref()
            .is_some_and(|r| r.classification.has_activity())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_core::FlowClassification;

    #[test]
    fn failed_record_has_no_report() {
        let r = ConnectionRecord::failed(
            1,
            ListKind::Toplist,
            Org::Other,
            0,
            IpVersion::V4,
            ScanOutcome::NotResolved,
        );
        assert!(r.report.is_none());
        assert!(!r.has_spin_activity());
        assert_eq!(r.outcome, ScanOutcome::NotResolved);
    }

    #[test]
    fn spin_activity_follows_classification() {
        let mut r = ConnectionRecord::failed(
            1,
            ListKind::ZoneComNetOrg,
            Org::Hostinger,
            0,
            IpVersion::V4,
            ScanOutcome::Ok,
        );
        r.report = Some(ObserverReport {
            classification: FlowClassification::Spinning,
            packets: 10,
            spin_samples_received_us: vec![40_000],
            spin_samples_sorted_us: vec![40_000],
            stack_samples_us: vec![40_000],
        });
        assert!(r.has_spin_activity());
        r.report.as_mut().unwrap().classification = FlowClassification::AllZero;
        assert!(!r.has_spin_activity());
    }
}
