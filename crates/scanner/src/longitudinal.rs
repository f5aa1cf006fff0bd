//! Longitudinal measurements (§4.3 / Fig. 2): the same domains, scanned
//! across many weeks, to check RFC 9000/9312 compliance.

use crate::campaign::{CampaignConfig, Scanner};
use crate::record::ScanOutcome;
use quicspin_webpop::{IpVersion, Population};
use serde::{Deserialize, Serialize};

/// Longitudinal study parameters.
#[derive(Debug, Clone)]
pub struct LongitudinalConfig {
    /// The selected measurement weeks (the paper picks n = 12 across
    /// CW 15/2022 – CW 20/2023).
    pub weeks: Vec<u32>,
    /// Base campaign configuration (week is overridden per sweep).
    pub base: CampaignConfig,
}

impl LongitudinalConfig {
    /// The paper's n = 12 selection, spread across the campaign.
    pub fn paper_weeks(base: CampaignConfig) -> Self {
        LongitudinalConfig {
            weeks: vec![0, 5, 10, 15, 20, 25, 30, 35, 40, 45, 50, 55],
            base,
        }
    }
}

/// Per-domain weekly behaviour.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DomainWeeks {
    /// Domain id.
    pub domain_id: u32,
    /// Weeks in which a connection was established.
    pub reachable_weeks: u32,
    /// Weeks in which spin activity was observed.
    pub spin_weeks: u32,
}

/// Outcome of the longitudinal study.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LongitudinalResult {
    /// Number of selected weeks (n).
    pub n_weeks: u32,
    /// Per-domain aggregation over all domains that spun at least once.
    pub ever_spun: Vec<DomainWeeks>,
}

impl LongitudinalResult {
    /// Domains that spun at least once AND were reachable in every week —
    /// the Fig. 2 denominator.
    pub fn always_reachable(&self) -> impl Iterator<Item = &DomainWeeks> {
        self.ever_spun
            .iter()
            .filter(move |d| d.reachable_weeks == self.n_weeks)
    }

    /// Fig. 2 histogram: share of always-reachable, ever-spinning domains
    /// with spin activity in exactly `k` weeks, for k = 1..=n.
    pub fn histogram(&self) -> Vec<f64> {
        let denom = self.always_reachable().count() as f64;
        let mut counts = vec![0usize; self.n_weeks as usize];
        for d in self.always_reachable() {
            if d.spin_weeks >= 1 {
                counts[(d.spin_weeks - 1) as usize] += 1;
            }
        }
        counts
            .into_iter()
            .map(|c| if denom > 0.0 { c as f64 / denom } else { 0.0 })
            .collect()
    }
}

/// Runs the longitudinal study. Scans all domains every selected week and
/// aggregates spin activity per domain, mirroring §4.3's methodology.
/// The campaign engine folds each week into the ids of the domains that
/// were reachable or spun, so no week's records are ever held.
pub fn run_longitudinal(
    population: &Population,
    config: &LongitudinalConfig,
) -> LongitudinalResult {
    let scanner = Scanner::new(population);
    let n = population.len() as u32;
    // Per domain id: (weeks reachable, weeks with spin activity).
    let mut weeks = vec![(0u32, 0u32); n as usize];
    for &week in &config.weeks {
        let cfg = CampaignConfig {
            week,
            version: IpVersion::V4,
            ..config.base.clone()
        };
        // (domain id, reachable, spun) for every domain that was either.
        let seen = scanner.run_campaign_fold(
            &cfg,
            0..n,
            Vec::new,
            |acc: &mut Vec<(u32, bool, bool)>, records| {
                let reachable = records.iter().any(|r| r.outcome == ScanOutcome::Ok);
                let spun = records.iter().any(|r| r.has_spin_activity());
                if reachable || spun {
                    acc.push((records[0].domain_id, reachable, spun));
                }
            },
            |acc, mut batch| acc.append(&mut batch),
        );
        for (id, reachable, spun) in seen {
            let entry = &mut weeks[id as usize];
            entry.0 += u32::from(reachable);
            entry.1 += u32::from(spun);
        }
    }

    let ever_spun = weeks
        .into_iter()
        .zip(0..)
        .filter(|&((_, spun), _)| spun > 0)
        .map(|((reachable_weeks, spin_weeks), domain_id)| DomainWeeks {
            domain_id,
            reachable_weeks,
            spin_weeks,
        })
        .collect();

    LongitudinalResult {
        n_weeks: config.weeks.len() as u32,
        ever_spun,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::probe::NetworkConditions;
    use quicspin_webpop::PopulationConfig;

    fn small_longitudinal(weeks: Vec<u32>) -> LongitudinalResult {
        let pop = Population::generate(PopulationConfig {
            seed: 77,
            toplist_domains: 0,
            zone_domains: 1_500,
        });
        let cfg = LongitudinalConfig {
            weeks,
            base: CampaignConfig {
                conditions: NetworkConditions::clean(),
                threads: 2,
                ..CampaignConfig::default()
            },
        };
        run_longitudinal(&pop, &cfg)
    }

    #[test]
    fn ever_spun_domains_have_spin_weeks() {
        let result = small_longitudinal(vec![0, 3, 6]);
        assert!(!result.ever_spun.is_empty(), "some domain must spin");
        for d in &result.ever_spun {
            assert!(d.spin_weeks >= 1);
            assert!(d.spin_weeks <= 3);
            assert!(d.reachable_weeks <= 3);
            assert!(
                d.spin_weeks <= d.reachable_weeks,
                "spin implies reachable: {d:?}"
            );
        }
    }

    #[test]
    fn histogram_sums_to_one_over_always_reachable() {
        let result = small_longitudinal(vec![0, 2, 4, 8]);
        let hist = result.histogram();
        assert_eq!(hist.len(), 4);
        let denom = result.always_reachable().count();
        if denom > 0 {
            let total: f64 = hist.iter().sum();
            assert!((total - 1.0).abs() < 1e-9, "histogram sums to {total}");
        }
    }

    #[test]
    fn churn_spreads_domains_below_full_weeks() {
        let result = small_longitudinal(vec![0, 5, 10, 15, 20, 25]);
        let always: Vec<_> = result.always_reachable().collect();
        if always.len() >= 10 {
            let full = always
                .iter()
                .filter(|d| d.spin_weeks == result.n_weeks)
                .count();
            assert!(
                full < always.len(),
                "churn must keep some domains from spinning every week"
            );
        }
    }

    #[test]
    fn paper_weeks_selection() {
        let cfg = LongitudinalConfig::paper_weeks(CampaignConfig::default());
        assert_eq!(cfg.weeks.len(), 12);
        let mut sorted = cfg.weeks.clone();
        sorted.sort_unstable();
        sorted.dedup();
        assert_eq!(sorted.len(), 12, "weeks are distinct");
    }
}
