//! Probing one target: run the full QUIC+HTTP/3 exchange for one
//! connection plan and distill a [`ConnectionRecord`].

use crate::campaign::CampaignConfig;
use crate::record::{ConnectionRecord, ScanOutcome};
use quicspin_core::ObserverReport;
use quicspin_h3::{Request, Response};
use quicspin_netsim::{Rng, SimDuration};
use quicspin_qlog::TraceLog;
use quicspin_quic::{
    ConnectionLab, LabConfig, LabOutcome, LabScratch, LabStats, ServerProfile, TransportConfig,
    CID_LEN,
};
use quicspin_telemetry::{GaugeId, Metric, ScopeId, WorkerShard};
use quicspin_webpop::{ConnectionPlan, DomainRecord, WebServer};

/// Reusable per-worker probe state.
///
/// A campaign worker thread keeps one of these alive across every probe it
/// runs; the connection lab's event queue, qlog buffers and byte buffers
/// are then recycled instead of reallocated per connection. A fresh
/// scratch and a reused one produce identical records.
///
/// The scratch also carries the worker's one instrumentation shard, so
/// per-packet counters, stage histograms and profiler scope costs
/// accumulate contention-free and ride the existing per-worker state
/// through the hot path. The campaign engine enables the shard to match
/// its telemetry registry and profiler and absorbs it into both when the
/// worker finishes; outside a campaign the shard stays disabled and its
/// lap chain never reads the clock.
#[derive(Debug, Default)]
pub struct ProbeScratch {
    lab: LabScratch,
    /// Worker-private instrumentation shard (see [`WorkerShard`]).
    pub telemetry: WorkerShard,
    /// Worker-private flight-recorder state (anomalies + retained traces),
    /// merged at fold time like [`ProbeScratch::telemetry`].
    pub flight: crate::flight::FlightShard,
    /// One-entry name cache: the `www.` query target of the domain
    /// currently being probed. A probe resolves the same name at several
    /// call sites (request host, redirect location, qlog titles) across
    /// up to two hops; the cache formats it once per domain instead of
    /// once per call. Deliberately one entry, so memory stays flat over
    /// million-domain sweeps.
    www_name: String,
    www_name_for: Option<u32>,
}

impl ProbeScratch {
    /// Returns a qlog trace captured only for flight-recorder inspection,
    /// recycling its event buffer for the next probe.
    pub fn restock_qlog(&mut self, trace: TraceLog) {
        self.lab.restock_client_events(trace.events);
    }

    /// The cached `www.` query target for `domain` (equal to
    /// [`DomainRecord::www_name`]), formatted on the first call per
    /// domain and borrowed on every later one.
    fn www_target(&mut self, domain: &DomainRecord) -> &str {
        if self.www_name_for != Some(domain.id) {
            use std::fmt::Write as _;
            self.www_name.clear();
            let _ = write!(self.www_name, "www.{}", domain.name());
            self.www_name_for = Some(domain.id);
        }
        &self.www_name
    }
}

/// Maps one lab run's plain stats into the worker's shard: transport and
/// path counters (the count-only netsim/quic scopes are views of them,
/// so the hot path reads no clock for those layers), and the lab's own
/// handshake/transfer stopwatches, each recorded once into its scope
/// and the scope's stage.
fn note_lab(shard: &mut WorkerShard, stats: &LabStats, established: bool) {
    // Transport counters, both endpoints.
    for conn in [&stats.client, &stats.server] {
        shard.add(Metric::PacketsSent, conn.packets_sent);
        shard.add(Metric::PacketsReceived, conn.packets_received);
        shard.add(Metric::PacketsUndecodable, conn.packets_undecodable);
        shard.add(Metric::PacketsDuplicate, conn.packets_duplicate);
        shard.add(Metric::PacketsLost, conn.packets_lost);
        shard.add(Metric::FramesRetransmitted, conn.frames_retransmitted);
        shard.add(Metric::FramesReassembled, conn.frames_reassembled);
        shard.add(Metric::PtosFired, conn.ptos_fired);
        shard.add(Metric::DatagramPoolHits, conn.datagram_pool_hits);
        shard.add(Metric::DatagramPoolMisses, conn.datagram_pool_misses);
    }
    // Spin edges as seen by the scanning client (the measurement side).
    shard.add(Metric::SpinTransitionsObserved, stats.client.spin_edges);
    // Simulated-path behaviour.
    let path = &stats.path;
    shard.add(Metric::NetsimDrops, path.total_lost());
    shard.add(
        Metric::NetsimReorders,
        path.reordered[0] + path.reordered[1],
    );
    shard.add(Metric::NetsimQueuePushes, path.queue_pushes);
    shard.add(Metric::NetsimQueuePops, path.queue_pops);
    shard.add(Metric::NetsimDeliveries, path.delivered);
    shard.gauge_max(GaugeId::NetsimQueueHighWater, path.queue_high_water);
    // Every lab run attempts a handshake; only established connections
    // reach the transfer phase. The handshake stopwatch stops only on
    // establishment, so a failed handshake adds no wall sample.
    if stats.handshake_wall_ns > 0 {
        shard.add_wall_ns(ScopeId::LabHandshake, stats.handshake_wall_ns);
    }
    if established {
        shard.incr(Metric::HandshakesCompleted);
        shard.add_wall_ns(ScopeId::LabTransfer, stats.transfer_wall_ns);
    } else {
        shard.incr(Metric::HandshakesFailed);
    }
}

/// Network conditions of the scan path (the part of the path shared by
/// all measurements from the vantage point).
#[derive(Debug, Clone, Copy)]
pub struct NetworkConditions {
    /// Per-direction loss probability.
    pub loss: f64,
    /// Per-direction probability that a packet is held back and overtaken
    /// (reordering; the paper finds its impact nearly negligible, §5.2).
    pub reorder: f64,
    /// Jitter as a fraction of the path RTT.
    pub jitter_frac: f64,
}

impl Default for NetworkConditions {
    fn default() -> Self {
        NetworkConditions {
            loss: 0.001,
            reorder: 0.00006,
            jitter_frac: 0.0003,
        }
    }
}

impl NetworkConditions {
    /// Perfectly clean paths (for tests and ablations).
    pub fn clean() -> Self {
        NetworkConditions {
            loss: 0.0,
            reorder: 0.0,
            jitter_frac: 0.0,
        }
    }
}

/// Runs one planned connection at redirect depth `redirect_depth`;
/// returns the record plus the parsed response (for redirect following).
///
/// Everything else comes from the campaign `config`: the week and IP
/// version stamped on the record, the path conditions, the grease filter,
/// whether the client qlog trace stays on the record (`keep_qlogs`, the
/// paper's Appendix B artifact capture, or `flight.enabled`, so the
/// flight recorder can inspect it), and the observer tap position.
/// `scratch` carries per-worker storage across probes; a fresh one and a
/// reused one produce identical records.
pub fn probe_connection(
    domain: &DomainRecord,
    plan: &ConnectionPlan,
    redirect_depth: u32,
    config: &CampaignConfig,
    scratch: &mut ProbeScratch,
) -> (ConnectionRecord, Option<Response>) {
    // One lap chain: one clock read per scope boundary, feeding the scope
    // and (for the staged scopes) its stage histogram, and none at all
    // when the shard is disabled (begin/lap return None). The inner
    // netsim/quic scopes never read the clock — `note_lab` feeds them
    // post hoc.
    let t0 = scratch.telemetry.begin();
    // Build the HTTP exchange for this hop.
    let request = Request::get(
        scratch.www_target(domain),
        if redirect_depth == 0 {
            "/"
        } else {
            "/canonical"
        },
    );
    let is_redirect_hop = plan.redirects && redirect_depth == 0;
    let response = if is_redirect_hop {
        Response::redirect(
            plan.webserver.header_value(),
            format!("https://{}/canonical", scratch.www_target(domain)),
        )
    } else {
        Response::ok(
            plan.webserver.header_value(),
            plan.server_profile.total_bytes(),
        )
    };
    // Redirect hops answer with a header-only page (one small chunk),
    // still after the host's processing delay.
    let server_profile = if is_redirect_hop {
        ServerProfile {
            initial_delay: plan.server_profile.initial_delay,
            chunks: vec![(SimDuration::ZERO, 600)],
        }
    } else {
        plan.server_profile.clone()
    };

    // Endpoint processing latencies. Pure ACKs take the transport fast
    // path (tens of µs); data packets go through application write
    // scheduling (hundreds of µs to ms on loaded servers). The spin-edge
    // reply is a data packet, so spin periods systematically sit above
    // the stack's handshake-anchored minimum — the §6 end-host-delay
    // mechanism behind Fig. 3/4's overestimation.
    let mut latency_rng = Rng::new(plan.seed ^ 0x9e37_79b9_7f4a_7c15);
    let client_data = SimDuration::from_micros(60 + latency_rng.next_below(90));
    let client_ack = SimDuration::from_micros(30 + latency_rng.next_below(50));
    let server_data = SimDuration::from_micros(500 + latency_rng.next_below(1000));
    let server_ack = SimDuration::from_micros(30 + latency_rng.next_below(60));
    let server_cfg = TransportConfig::default()
        .with_spin_policy(plan.spin_policy)
        .with_processing_latency(server_data, server_ack);
    let lab_cfg = LabConfig {
        path_rtt_ms: plan.rtt_ms,
        jitter_ms: plan.rtt_ms * config.conditions.jitter_frac,
        loss: config.conditions.loss,
        reorder: config.conditions.reorder,
        reorder_hold_ms: 2.0,
        seed: plan.seed,
        client: TransportConfig::default().with_processing_latency(client_data, client_ack),
        server: server_cfg,
        server_profile,
        link_rate_bytes_per_sec: Some(12_500_000),
        // Off by default: the probe then only reads the client's own
        // qlog. An observer campaign arms the (purely passive) tap and
        // folds its capture below.
        tap_position: config.tap,
        request: request.encode(),
        response_prefix: response.encode_header(),
        // Only pay for phase wall-clocks when the shard is live (they
        // split probe/lab into handshake/transfer).
        time_stages: scratch.telemetry.is_enabled(),
    };
    let t = scratch.telemetry.lap(ScopeId::Plan, t0);
    let mut outcome = ConnectionLab::new(lab_cfg).run_with_scratch(&mut scratch.lab);
    note_lab(
        &mut scratch.telemetry,
        &outcome.stats,
        outcome.handshake_completed,
    );
    // Virtual-clock timings for the time-series layer, read off the client
    // qlog before it is (maybe) stripped below. These are simulated
    // microseconds, so they are identical for any worker-thread count.
    let virtual_handshake_us = outcome.client_qlog.handshake_time_us();
    let virtual_total_us = outcome.client_qlog.duration_us();
    let queue_high_water = outcome.stats.path.queue_high_water;
    // The lab scope closes here, so the next lap times spin extraction
    // alone.
    let t = scratch.telemetry.lap(ScopeId::Lab, t);

    if !outcome.handshake_completed {
        let qlog = capture_trace(domain, config, scratch, &mut outcome);
        let record = ConnectionRecord {
            domain_id: domain.id,
            list: domain.list,
            org: domain.org,
            week: config.week,
            version: config.version,
            redirect_depth,
            outcome: ScanOutcome::HandshakeFailed,
            host: Some(plan.host),
            webserver: None,
            report: None,
            observer: None,
            virtual_handshake_us,
            virtual_total_us,
            queue_high_water,
            qlog,
        };
        scratch.telemetry.end(ScopeId::Probe, t0);
        scratch.lab.reclaim(outcome);
        return (record, None);
    }

    let observations = outcome.client_observations();
    let t = scratch.telemetry.lap(ScopeId::SpinExtraction, t);

    let report = ObserverReport::build(
        &observations,
        std::mem::take(&mut outcome.client_stack_samples_us),
        config.grease,
    );
    let t = scratch.telemetry.lap(ScopeId::Classify, t);

    // On-path observation: narrow the tap capture through the observer's
    // privacy boundary (short-header bytes only) and keep the flow view
    // next to the client's own report.
    let observer_view = config.tap.map(|position| {
        let mut flow = quicspin_observer::FlowObserver::default();
        flow.ingest_tap_records(&outcome.tap_records, CID_LEN, |_, _| {});
        let stats = flow.stats();
        scratch
            .telemetry
            .add(Metric::ObserverPacketsObserved, stats.packets);
        scratch
            .telemetry
            .add(Metric::ObserverUnobservable, stats.unobservable);
        scratch.telemetry.add(
            Metric::ObserverEdgesObserved,
            stats.edges_upstream + stats.edges_downstream,
        );
        scratch.telemetry.add(
            Metric::ObserverSamplesAccepted,
            stats.samples + stats.samples_upstream,
        );
        scratch.telemetry.add(
            Metric::ObserverSamplesRejected,
            stats.rejected_reorder + stats.rejected_gap,
        );
        scratch.telemetry.incr(if stats.measurable {
            Metric::ObserverFlowsMeasurable
        } else {
            Metric::ObserverFlowsUnmeasurable
        });
        crate::observe::ObserverView::new(position, stats, &report)
    });
    let t = if config.tap.is_some() {
        scratch.telemetry.lap(ScopeId::ObserverFold, t)
    } else {
        t
    };

    let qlog = capture_trace(domain, config, scratch, &mut outcome);
    if config.keep_qlogs {
        scratch.telemetry.incr(Metric::QlogTracesRetained);
        scratch.telemetry.end(ScopeId::QlogEncode, t);
    }

    // The response header only feeds the record (and redirect
    // following), so it parses after the timed stages, in the probe's
    // own self time.
    let parsed = Response::parse_header(&outcome.response_data).map(|(r, _)| r);
    let webserver = parsed.as_ref().map(|r| WebServer::from_header(&r.server));

    let record = ConnectionRecord {
        domain_id: domain.id,
        list: domain.list,
        org: domain.org,
        week: config.week,
        version: config.version,
        redirect_depth,
        outcome: ScanOutcome::Ok,
        host: Some(plan.host),
        webserver,
        report: Some(report),
        observer: observer_view,
        virtual_handshake_us,
        virtual_total_us,
        queue_high_water,
        qlog,
    };
    scratch.telemetry.end(ScopeId::Probe, t0);
    scratch.lab.reclaim(outcome);
    (record, parsed)
}

/// Takes the client qlog trace off `outcome`, titled with the probed
/// name, when the campaign keeps traces or its flight recorder inspects
/// them; `None` otherwise, leaving the trace for the lab scratch to
/// recycle.
fn capture_trace(
    domain: &DomainRecord,
    config: &CampaignConfig,
    scratch: &mut ProbeScratch,
    outcome: &mut LabOutcome,
) -> Option<TraceLog> {
    if !(config.keep_qlogs || config.flight.enabled) {
        return None;
    }
    if config.flight.enabled {
        scratch.telemetry.incr(Metric::FlightTracesInspected);
    }
    let mut trace = std::mem::take(&mut outcome.client_qlog);
    trace.title = scratch.www_target(domain).to_owned();
    Some(trace)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NetworkConditions;
    use quicspin_core::FlowClassification;
    use quicspin_webpop::{IpVersion, Population, PopulationConfig};

    fn population() -> Population {
        Population::generate(PopulationConfig::tiny(99))
    }

    fn first_quic(pop: &Population) -> &quicspin_webpop::DomainRecord {
        pop.domains().iter().find(|d| d.quic).expect("quic domain")
    }

    /// Week 0, IPv4, the paper's grease filter, clean paths.
    fn clean() -> CampaignConfig {
        CampaignConfig {
            conditions: NetworkConditions::clean(),
            ..CampaignConfig::default()
        }
    }

    /// Probes at depth 0 on fresh scratch.
    fn probe(
        d: &DomainRecord,
        plan: &ConnectionPlan,
        config: &CampaignConfig,
    ) -> (ConnectionRecord, Option<Response>) {
        probe_connection(d, plan, 0, config, &mut ProbeScratch::default())
    }

    #[test]
    fn probe_establishes_and_reports() {
        let pop = population();
        let d = first_quic(&pop);
        let plan = pop.plan_connection(d.id, 0, IpVersion::V4, 0).unwrap();
        let (record, response) = probe(d, &plan, &clean());
        assert_eq!(record.outcome, ScanOutcome::Ok);
        assert!(record.report.is_some());
        assert!(record.webserver.is_some());
        if !plan.redirects {
            let r = response.expect("response parsed");
            assert_eq!(r.server, plan.webserver.header_value());
        }
    }

    #[test]
    fn redirect_hop_parses_location() {
        let pop = population();
        let d = pop
            .domains()
            .iter()
            .find(|d| d.quic && d.redirects)
            .expect("redirecting quic domain");
        let plan = pop.plan_connection(d.id, 0, IpVersion::V4, 0).unwrap();
        let (record, response) = probe(d, &plan, &clean());
        assert_eq!(record.outcome, ScanOutcome::Ok);
        let r = response.expect("redirect response");
        assert!(r.status.is_redirect());
        assert!(r.location.as_deref().unwrap().contains("canonical"));
    }

    #[test]
    fn spinning_host_yields_spin_activity() {
        let pop = Population::generate(PopulationConfig {
            seed: 5,
            toplist_domains: 0,
            zone_domains: 20_000,
        });
        // Over many participating connections, the clear majority must
        // show spin activity. (A fast host answering a small page within
        // one congestion window can legitimately complete before any flip
        // becomes observable — the paper's "Spin" column also only counts
        // *observable* activity.)
        let mut checked = 0;
        let mut active = 0;
        for d in pop.domains().iter().filter(|d| d.quic && d.host_spin) {
            let plan = pop.plan_connection(d.id, 0, IpVersion::V4, 0).unwrap();
            if plan.spin_policy != quicspin_quic::SpinPolicy::Participate {
                continue;
            }
            let (record, _) = probe(d, &plan, &clean());
            let report = record.report.unwrap();
            if matches!(
                report.classification,
                FlowClassification::Spinning | FlowClassification::Greased
            ) {
                active += 1;
            }
            checked += 1;
            if checked >= 40 {
                break;
            }
        }
        assert!(checked >= 20, "found only {checked} participating hosts");
        let rate = f64::from(active) / f64::from(checked);
        assert!(rate > 0.6, "spin activity rate {rate} ({active}/{checked})");
    }

    #[test]
    fn fixed_zero_host_yields_all_zero() {
        let pop = Population::generate(PopulationConfig {
            seed: 6,
            toplist_domains: 0,
            zone_domains: 5_000,
        });
        for d in pop.domains().iter().filter(|d| d.quic && !d.host_spin) {
            let plan = pop.plan_connection(d.id, 0, IpVersion::V4, 0).unwrap();
            if plan.spin_policy != quicspin_quic::SpinPolicy::FixedZero {
                continue;
            }
            let (record, _) = probe(d, &plan, &clean());
            assert_eq!(
                record.report.unwrap().classification,
                FlowClassification::AllZero
            );
            return;
        }
        panic!("no FixedZero host found");
    }

    #[test]
    fn scratch_reuse_matches_fresh_probe() {
        let pop = population();
        let mut scratch = ProbeScratch::default();
        let config = CampaignConfig {
            keep_qlogs: true,
            ..CampaignConfig::default()
        };
        for d in pop.domains().iter().filter(|d| d.quic).take(5) {
            let plan = pop.plan_connection(d.id, 0, IpVersion::V4, 0).unwrap();
            let args =
                |scratch: &mut ProbeScratch| probe_connection(d, &plan, 0, &config, scratch).0;
            let fresh = args(&mut ProbeScratch::default());
            // The scratch carries state over from all previous iterations.
            let reused = args(&mut scratch);
            assert_eq!(fresh.outcome, reused.outcome);
            assert_eq!(fresh.report, reused.report);
            assert_eq!(fresh.qlog, reused.qlog);
        }
    }

    #[test]
    fn tapped_probe_attaches_observer_view_without_changing_the_report() {
        let pop = population();
        let d = first_quic(&pop);
        let plan = pop.plan_connection(d.id, 0, IpVersion::V4, 0).unwrap();
        let run = |tap: Option<f64>| probe(d, &plan, &CampaignConfig { tap, ..clean() }).0;
        let untapped = run(None);
        let tapped = run(Some(0.5));
        assert!(untapped.observer.is_none());
        let view = tapped.observer.expect("tap attaches a view");
        assert_eq!(view.vantage_millionths, 500_000);
        // The passive tap must not perturb the measurement itself.
        assert_eq!(tapped.report, untapped.report);
        // Clean path: the observer's sample stream matches the client's.
        let report = tapped.report.unwrap();
        assert_eq!(
            view.stats.samples,
            report.spin_samples_received_us.len() as u64
        );
        assert_eq!(view.stats.mean_us, view.client_spin_mean_us);
        assert_eq!(view.extra_edges(), 0);
    }

    #[test]
    fn profiled_probe_populates_deterministic_scope_counts() {
        let pop = population();
        let d = first_quic(&pop);
        let plan = pop.plan_connection(d.id, 0, IpVersion::V4, 0).unwrap();
        let tapped = CampaignConfig {
            tap: Some(0.5),
            ..clean()
        };
        let run = || {
            let mut scratch = ProbeScratch::default();
            scratch.telemetry.set_enabled(false, true);
            let config = CampaignConfig {
                keep_qlogs: true,
                ..tapped.clone()
            };
            probe_connection(d, &plan, 0, &config, &mut scratch);
            scratch.telemetry
        };
        let a = run();
        let b = run();
        for &s in ScopeId::ALL {
            if s.deterministic() {
                assert_eq!(a.enters(s), b.enters(s), "{} enters must repeat", s.path());
            }
        }
        assert_eq!(a.enters(ScopeId::Probe), 1);
        assert_eq!(a.enters(ScopeId::LabHandshake), 1);
        assert_eq!(a.enters(ScopeId::LabTransfer), 1);
        assert!(a.enters(ScopeId::WheelPush) > 0, "queue pushes must count");
        assert!(a.enters(ScopeId::PacketEncode) > 0);
        assert!(a.enters(ScopeId::PacketDecode) > 0);
        assert!(a.enters(ScopeId::Reassembly) > 0);
        assert!(a.enters(ScopeId::DatagramPool) > 0);
        assert!(a.enters(ScopeId::ObserverSamples) > 0);
        assert!(a.wall_ns(ScopeId::Probe) > 0, "probe wall must be timed");
        assert!(a.wall_ns(ScopeId::Lab) > 0, "lab wall must be timed");

        // An unprofiled probe leaves every scope cell untouched; only the
        // views, which read the un-gated counters, still count.
        let mut off = ProbeScratch::default();
        off.telemetry.set_enabled(true, false);
        probe_connection(d, &plan, 0, &tapped, &mut off);
        for &s in ScopeId::ALL {
            assert_eq!(off.telemetry.wall_ns(s), 0, "{}", s.path());
            let want = if s.counts().is_empty() {
                0
            } else {
                a.enters(s)
            };
            assert_eq!(off.telemetry.enters(s), want, "{}", s.path());
        }
        // ...while its metrics half still times the staged scopes.
        let classify = off
            .telemetry
            .stage_histogram(quicspin_telemetry::Stage::Classify);
        assert_eq!(classify.count(), 1);
    }

    #[test]
    fn probe_is_deterministic() {
        let pop = population();
        let d = first_quic(&pop);
        let plan = pop.plan_connection(d.id, 0, IpVersion::V4, 0).unwrap();
        let run = || probe(d, &plan, &CampaignConfig::default()).0;
        let a = run();
        let b = run();
        assert_eq!(a.report, b.report);
        assert_eq!(a.webserver, b.webserver);
    }
}
