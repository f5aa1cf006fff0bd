//! The on-path spin observatory: observer RTT vs client spin RTT vs
//! stack ground truth as a function of tap position and loss rate.
//!
//! The spin bit exists so a *passive on-path* observer can estimate RTT
//! from encrypted traffic (RFC 9000 §17.4, RFC 9312 §4.2.1). This
//! example sweeps a grid of vantage positions × loss rates, runs one
//! tapped campaign per condition, and folds it twice into the same
//! `observer.json` document `spinctl run` writes: once over every
//! observed flow (greasing traffic pollutes both the observer's and the
//! client's aggregate means — the paper's argument for a grease filter)
//! and once restricted to spinning flows.
//!
//! Two effects to look for: the observer's means agree to within
//! microseconds across every vantage position (per-flow parity with the
//! client holds from anywhere on a clean path — the repo's property
//! tests pin it exactly), and on flows with second-scale shared-hosting delay spikes
//! the RFC 9312 validity heuristics drop >4×median spin periods as
//! suspected loss gaps, pulling the observer's mean *below* the
//! client's raw spin estimate and toward the stack ground truth — the
//! paper's §5 overestimation, partially corrected at the tap.
//!
//! Usage: `cargo run --release --example spin_observatory [zone_domains]`

use quicspin::core::FlowClassification;
use quicspin::scanner::{
    CampaignConfig, NetworkConditions, ObserverDoc, ObserverDocBuilder, RecordRow, Scanner,
};
use quicspin::webpop::{Population, PopulationConfig};

/// One grid condition folded into an observer document.
struct Cell {
    loss: f64,
    reorder: f64,
    doc: ObserverDoc,
}

impl Cell {
    /// Observer-minus-client difference (ms) of the mean RTTs over the
    /// paired flows, those where both the observer and the client
    /// produced a mean, so the two sides compare the same flow set.
    fn paired_delta_ms(&self) -> Option<f64> {
        let (mut observer_us, mut client_us, mut n) = (0u64, 0u64, 0u64);
        for row in &self.doc.flows {
            if let (Some(o), Some(c)) = (row.view.stats.mean_us, row.view.client_spin_mean_us) {
                observer_us += o;
                client_us += c;
                n += 1;
            }
        }
        let mean_ms = |sum_us: u64| sum_us as f64 / n as f64 / 1_000.0;
        (n > 0).then(|| mean_ms(observer_us) - mean_ms(client_us))
    }
}

/// Renders the grid as an ASCII table: one row per cell, the three RTT
/// means side by side, plus the paired observer-vs-client delta.
fn render(cells: &[Cell]) -> String {
    let ms = |m: Option<u64>| m.map_or("-".to_string(), |us| format!("{:.3}", us as f64 / 1e3));
    let mut out = String::from(
        "vantage  loss     reorder  flows  measur.  observer_ms  client_ms  stack_ms  pair_delta_ms\n",
    );
    for cell in cells {
        let s = &cell.doc.summary;
        let delta = cell
            .paired_delta_ms()
            .map_or("-".to_string(), |d| format!("{d:+.3}"));
        out.push_str(&format!(
            "{:<8.2} {:<8.4} {:<8.4} {:<6} {:<8} {:<12} {:<10} {:<9} {delta}\n",
            cell.doc.vantage(),
            cell.loss,
            cell.reorder,
            s.flows,
            s.measurable,
            ms(s.observer_mean_us),
            ms(s.client_mean_us),
            ms(s.stack_mean_us),
        ));
    }
    out
}

fn main() {
    let zone_domains: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(800);

    eprintln!("generating population ({zone_domains} zone domains) ...");
    let population = Population::generate(PopulationConfig {
        seed: 11,
        toplist_domains: 40,
        zone_domains,
    });

    let vantages = [0.1, 0.25, 0.5, 0.75, 0.9];
    let losses = [0.0, 0.01, 0.05];
    // Small zone counts produce populations under the default flow count;
    // probing past the end of the domain table is out of bounds.
    let flows = 800u32.min(population.len() as u32);
    eprintln!(
        "sweeping {} vantages x {} loss rates, {} flows each ...",
        vantages.len(),
        losses.len(),
        flows
    );
    let scanner = Scanner::new(&population);
    let base = CampaignConfig::default();
    let (mut all, mut spinning) = (Vec::new(), Vec::new());
    for &vantage in &vantages {
        for &loss in &losses {
            let config = CampaignConfig {
                tap: Some(vantage),
                conditions: NetworkConditions {
                    loss,
                    ..base.conditions
                },
                ..base.clone()
            };
            let campaign = scanner.run_campaign_over(&config, 0..flows);
            let id = config.campaign_id();
            let mut every = ObserverDocBuilder::new(&id, vantage);
            let mut spin = ObserverDocBuilder::new(&id, vantage);
            for record in &campaign.records {
                let row = RecordRow::of(record);
                every.note_row(&row);
                if row.classification == Some(FlowClassification::Spinning) {
                    spin.note_row(&row);
                }
            }
            let reorder = config.conditions.reorder;
            all.push(Cell {
                loss,
                reorder,
                doc: every.finish(),
            });
            spinning.push(Cell {
                loss,
                reorder,
                doc: spin.finish(),
            });
        }
    }

    println!("All observed flows (greasing traffic included — aggregate means are noise):");
    println!("{}", render(&all));
    println!("Spinning flows only (the paper's grease filter applied):");
    println!("{}", render(&spinning));

    // The per-cell observer-vs-client agreement over the paired flow
    // set (both sides produced a mean), one line each. A negative delta
    // with nonzero gap-dropped counts is the heuristics trimming
    // end-host delay spikes the client's raw estimate keeps.
    println!("Agreement and measurability (spinning flows, paired means):");
    for cell in &spinning {
        let s = &cell.doc.summary;
        let delta = match cell.paired_delta_ms() {
            Some(d) => format!("{d:+.3} ms"),
            None => "-".to_string(),
        };
        let measurable = if s.flows == 0 {
            0.0
        } else {
            s.measurable as f64 / s.flows as f64
        };
        println!(
            "  vantage {:.2} loss {:.2}: {:5.1}% of flows measurable, \
             observer-client delta {delta}, {} samples ({} reorder-rejected, {} gap-dropped)",
            cell.doc.vantage(),
            cell.loss,
            measurable * 100.0,
            s.samples,
            s.rejected_reorder,
            s.rejected_gap,
        );
    }
}
