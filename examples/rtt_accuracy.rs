//! §5 / Figures 3+4: RTT measurement accuracy of the spin bit at scale.
//!
//! Scans the spinning share of the population, computes the absolute and
//! mapped-ratio accuracy distributions in both received (R) and sorted (S)
//! packet order, and prints the §5.2 reordering statistics.
//!
//! Usage: `cargo run --release --example rtt_accuracy [zone_domains]`

use quicspin::analysis::{render, Dataset, Summary};
use quicspin::core::FlowClassification;
use quicspin::scanner::{CampaignConfig, Scanner};
use quicspin::webpop::{Population, PopulationConfig};

fn main() {
    let zone_domains: u32 = std::env::args()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .unwrap_or(120_000);

    eprintln!("generating population ({zone_domains} zone domains) ...");
    let population = Population::generate(PopulationConfig {
        seed: 0x5eed_2023,
        toplist_domains: 0,
        zone_domains,
    });

    eprintln!("scanning ...");
    let campaign = Scanner::new(&population).run_campaign(&CampaignConfig::default());
    eprintln!("{} records", campaign.len());

    let dataset = Dataset::from_campaign(&campaign);

    println!("{}", render::render_fig3(&dataset.fig3));
    println!("{}", render::render_fig4(&dataset.fig4));

    // Distribution summaries of the two estimators over spinning conns.
    let spin_means: Vec<f64> = campaign
        .established()
        .filter_map(|r| r.report.as_ref())
        .filter(|rep| rep.classification == FlowClassification::Spinning)
        .filter_map(|rep| rep.spin_rtt_mean_ms())
        .collect();
    let stack_means: Vec<f64> = campaign
        .established()
        .filter_map(|r| r.report.as_ref())
        .filter(|rep| rep.classification == FlowClassification::Spinning)
        .filter_map(|rep| rep.stack_rtt_mean_ms())
        .collect();
    if let (Some(spin), Some(stack)) = (Summary::of(&spin_means), Summary::of(&stack_means)) {
        println!("Per-connection mean RTT distributions (ms):");
        println!(
            "  spin  : median {:>7.1}  p95 {:>8.1}  max {:>8.1}",
            spin.median, spin.p95, spin.max
        );
        println!(
            "  stack : median {:>7.1}  p95 {:>8.1}  max {:>8.1}",
            stack.median, stack.p95, stack.max
        );
        println!();
    }

    let re = &dataset.reordering;
    println!("Reordering impact (§5.2):");
    println!("  connections with spin activity : {}", re.connections);
    println!(
        "  R/S results differ             : {} ({:.2}%)",
        re.differing,
        re.differing_share() * 100.0
    );
    println!(
        "  of those, |Δmean| < 1 ms       : {:.1}%",
        re.small_delta_share() * 100.0
    );
    println!(
        "  of those, sorting improved     : {:.1}%",
        re.improved_share() * 100.0
    );
}
