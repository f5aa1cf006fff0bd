//! Population bytes: every field of every `DomainRecord` of three fixed
//! populations — the unit-test `tiny` shape, the 200 k `spinctl run`
//! shape (⅞ zone domains) and the 1:5000 paper population — folds into
//! one FNV-1a digest per population, which must match
//! `tests/fixtures/population_digest.txt`. The fixture was captured before
//! the zone and org draws moved to precomputed weight tables; any change to
//! a draw, its order or its arithmetic moves a digest here.

use quicspin::webpop::{DomainRecord, HostAddr, Population, PopulationConfig};

const FIXTURE: &str = include_str!("fixtures/population_digest.txt");

/// FNV-1a over explicitly serialized fields.
struct Digest(u64);

impl Digest {
    fn new() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn host(&mut self, host: Option<HostAddr>) {
        match host {
            None => self.bytes(&[0]),
            Some(HostAddr {
                version,
                org,
                host_index,
            }) => {
                self.bytes(&[1, version as u8, org as u8]);
                self.bytes(&host_index.to_le_bytes());
            }
        }
    }

    fn record(&mut self, d: &DomainRecord) {
        // Destructured so that a new field fails to compile until it is
        // digested too.
        let DomainRecord {
            id,
            list,
            zone_id,
            toplist_sources,
            org,
            resolved_v4,
            resolved_v6,
            quic,
            ipv4,
            ipv6,
            webserver,
            host_spin,
            service_class,
            rtt_ms,
            redirects,
            page_bytes,
        } = *d;
        self.bytes(&id.to_le_bytes());
        self.bytes(&[list as u8]);
        self.bytes(&zone_id.to_le_bytes());
        self.bytes(&[
            toplist_sources,
            org as u8,
            u8::from(resolved_v4),
            u8::from(resolved_v6),
            u8::from(quic),
        ]);
        self.host(ipv4);
        self.host(ipv6);
        self.bytes(&[webserver as u8, u8::from(host_spin), service_class]);
        self.bytes(&rtt_ms.to_bits().to_le_bytes());
        self.bytes(&[u8::from(redirects)]);
        self.bytes(&page_bytes.to_le_bytes());
    }
}

/// `name domains digest`, one line per population, in fixture order.
fn digest_line(name: &str, config: PopulationConfig) -> String {
    let population = Population::generate(config);
    let mut digest = Digest::new();
    for d in population.domains() {
        digest.record(d);
    }
    format!("{name} {} {:016x}", population.len(), digest.0)
}

#[test]
fn population_records_match_the_digest_fixture() {
    let domains = 200_000;
    let lines = [
        digest_line("tiny_7", PopulationConfig::tiny(7)),
        digest_line(
            "spinctl_run_200k_seed_23",
            PopulationConfig {
                seed: 23,
                toplist_domains: domains / 8 + 1,
                zone_domains: domains - domains / 8 - 1,
            },
        ),
        digest_line("paper_scale_5000", PopulationConfig::paper_scale(5000)),
    ];
    let actual = lines.join("\n") + "\n";
    assert_eq!(actual, FIXTURE, "population digests moved:\n{actual}");
}
