//! The on-path observatory figure: observer RTT vs client spin RTT vs
//! stack ground-truth RTT as a function of where the tap sits on the
//! path and how hostile the path is (loss, reordering).
//!
//! Each [`VantageCell`] aggregates one `(vantage, loss, reorder)`
//! condition over every observed flow; [`VantageFigure`] holds the full
//! grid in canonical key order. Cells fold plain sums and counts, so
//! accumulation is order-independent and shard merges are exact —
//! the same contract the rest of the analysis crate keeps for its
//! thread-count-invariant artifacts.

use quicspin_scanner::{
    Campaign, CampaignConfig, ConnectionRecord, NetworkConditions, ScanOutcome, Scanner,
};
use quicspin_webpop::Population;
use serde::{Deserialize, Serialize};

/// Converts a path fraction to its canonical millionths encoding.
fn millionths(fraction: f64) -> u32 {
    (fraction.clamp(0.0, 1.0) * 1_000_000.0).round() as u32
}

/// One grid cell: every observed flow at one tap position under one path
/// condition.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct VantageCell {
    /// Tap position in millionths of the path.
    pub vantage_millionths: u32,
    /// Path loss rate in millionths.
    pub loss_millionths: u32,
    /// Path reordering rate in millionths.
    pub reorder_millionths: u32,
    /// Flows the tap saw (established connections).
    pub flows: u64,
    /// Flows with at least one accepted observer RTT sample.
    pub measurable: u64,
    /// Accepted observer RTT samples.
    pub samples: u64,
    /// Edges rejected as reordering artifacts.
    pub rejected_reorder: u64,
    /// Samples rejected as loss gaps.
    pub rejected_gap: u64,
    /// Sum of per-flow observer mean RTTs (µs) over `observer_flows`.
    pub observer_mean_sum_us: u64,
    /// Flows contributing to `observer_mean_sum_us`.
    pub observer_flows: u64,
    /// Sum of per-flow client spin mean RTTs (µs) over `client_flows`.
    pub client_mean_sum_us: u64,
    /// Flows contributing to `client_mean_sum_us`.
    pub client_flows: u64,
    /// Sum of per-flow stack ground-truth mean RTTs (µs) over
    /// `stack_flows`.
    pub stack_mean_sum_us: u64,
    /// Flows contributing to `stack_mean_sum_us`.
    pub stack_flows: u64,
    /// Sum of per-flow observer mean RTTs (µs) over the *paired* flows —
    /// those where both the observer and the client produced a mean, so
    /// the two columns compare the same flow set.
    pub paired_observer_sum_us: u64,
    /// Sum of per-flow client spin mean RTTs (µs) over the paired flows.
    pub paired_client_sum_us: u64,
    /// Flows contributing to the paired sums.
    pub paired_flows: u64,
}

impl VantageCell {
    /// An empty cell for one grid condition.
    pub fn new(vantage: f64, loss: f64, reorder: f64) -> Self {
        VantageCell {
            vantage_millionths: millionths(vantage),
            loss_millionths: millionths(loss),
            reorder_millionths: millionths(reorder),
            ..VantageCell::default()
        }
    }

    /// The cell's grid key, the canonical sort order of the figure.
    pub fn key(&self) -> (u32, u32, u32) {
        (
            self.vantage_millionths,
            self.loss_millionths,
            self.reorder_millionths,
        )
    }

    /// Folds one record into the cell (no-op unless the record carries an
    /// observer view on an established connection).
    pub fn note_record(&mut self, record: &ConnectionRecord) {
        if record.outcome != ScanOutcome::Ok {
            return;
        }
        let Some(view) = &record.observer else {
            return;
        };
        self.flows += 1;
        self.samples += view.stats.samples;
        self.rejected_reorder += view.stats.rejected_reorder;
        self.rejected_gap += view.stats.rejected_gap;
        if view.stats.measurable {
            self.measurable += 1;
        }
        if let Some(m) = view.stats.mean_us {
            self.observer_mean_sum_us += m;
            self.observer_flows += 1;
        }
        if let Some(m) = view.client_spin_mean_us {
            self.client_mean_sum_us += m;
            self.client_flows += 1;
        }
        if let Some(m) = view.stack_mean_us {
            self.stack_mean_sum_us += m;
            self.stack_flows += 1;
        }
        if let (Some(o), Some(c)) = (view.stats.mean_us, view.client_spin_mean_us) {
            self.paired_observer_sum_us += o;
            self.paired_client_sum_us += c;
            self.paired_flows += 1;
        }
    }

    /// Absorbs a disjoint shard of the same condition (all fields are
    /// sums/counts, so the merge is order-independent).
    pub fn merge(&mut self, other: &VantageCell) {
        debug_assert_eq!(self.key(), other.key());
        self.flows += other.flows;
        self.measurable += other.measurable;
        self.samples += other.samples;
        self.rejected_reorder += other.rejected_reorder;
        self.rejected_gap += other.rejected_gap;
        self.observer_mean_sum_us += other.observer_mean_sum_us;
        self.observer_flows += other.observer_flows;
        self.client_mean_sum_us += other.client_mean_sum_us;
        self.client_flows += other.client_flows;
        self.stack_mean_sum_us += other.stack_mean_sum_us;
        self.stack_flows += other.stack_flows;
        self.paired_observer_sum_us += other.paired_observer_sum_us;
        self.paired_client_sum_us += other.paired_client_sum_us;
        self.paired_flows += other.paired_flows;
    }

    /// Mean of per-flow observer RTT means (ms).
    pub fn observer_mean_ms(&self) -> Option<f64> {
        ratio_ms(self.observer_mean_sum_us, self.observer_flows)
    }

    /// Mean of per-flow client spin RTT means (ms).
    pub fn client_mean_ms(&self) -> Option<f64> {
        ratio_ms(self.client_mean_sum_us, self.client_flows)
    }

    /// Mean of per-flow stack ground-truth RTT means (ms).
    pub fn stack_mean_ms(&self) -> Option<f64> {
        ratio_ms(self.stack_mean_sum_us, self.stack_flows)
    }

    /// Mean observer RTT (ms) over the paired flow set (both the
    /// observer and the client produced a mean) — the apples-to-apples
    /// column for observer-vs-client comparisons.
    pub fn paired_observer_mean_ms(&self) -> Option<f64> {
        ratio_ms(self.paired_observer_sum_us, self.paired_flows)
    }

    /// Mean client spin RTT (ms) over the paired flow set.
    pub fn paired_client_mean_ms(&self) -> Option<f64> {
        ratio_ms(self.paired_client_sum_us, self.paired_flows)
    }

    /// Observer-minus-client difference of the paired means (ms).
    pub fn paired_delta_ms(&self) -> Option<f64> {
        Some(self.paired_observer_mean_ms()? - self.paired_client_mean_ms()?)
    }

    /// Share of observed flows that were measurable.
    pub fn measurable_share(&self) -> f64 {
        if self.flows == 0 {
            0.0
        } else {
            self.measurable as f64 / self.flows as f64
        }
    }
}

fn ratio_ms(sum_us: u64, n: u64) -> Option<f64> {
    if n == 0 {
        None
    } else {
        Some(sum_us as f64 / n as f64 / 1_000.0)
    }
}

/// The full vantage-accuracy grid, cells in canonical
/// `(vantage, loss, reorder)` order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct VantageFigure {
    /// Grid cells, sorted by [`VantageCell::key`].
    pub cells: Vec<VantageCell>,
}

impl VantageFigure {
    /// Builds a figure from finished cells (sorts them canonically).
    pub fn from_cells(mut cells: Vec<VantageCell>) -> Self {
        cells.sort_by_key(|c| c.key());
        VantageFigure { cells }
    }

    /// Sweeps a `vantages × losses` grid over `ids`, running one tapped
    /// campaign per condition (reordering follows `base.conditions`).
    /// Campaign results are thread-count invariant, and the grid is
    /// walked in a fixed order, so the figure is fully deterministic.
    pub fn sweep(
        population: &Population,
        base: &CampaignConfig,
        ids: std::ops::Range<u32>,
        vantages: &[f64],
        losses: &[f64],
    ) -> Self {
        Self::sweep_where(population, base, ids, vantages, losses, |_| true)
    }

    /// Like [`sweep`](Self::sweep), but folds only the records `filter`
    /// accepts — e.g. restrict the grid to spinning flows so greasing
    /// traffic (random spin flips on both sides of the tap) does not
    /// pollute the aggregate means.
    pub fn sweep_where(
        population: &Population,
        base: &CampaignConfig,
        ids: std::ops::Range<u32>,
        vantages: &[f64],
        losses: &[f64],
        filter: impl Fn(&ConnectionRecord) -> bool,
    ) -> Self {
        let scanner = Scanner::new(population);
        let mut cells = Vec::with_capacity(vantages.len() * losses.len());
        for &vantage in vantages {
            for &loss in losses {
                let mut config = base.clone();
                config.tap = Some(vantage);
                config.conditions = NetworkConditions {
                    loss,
                    ..base.conditions
                };
                let campaign = scanner.run_campaign_over(&config, ids.clone());
                let mut cell = VantageCell::new(vantage, loss, config.conditions.reorder);
                for record in campaign.records.iter().filter(|r| filter(r)) {
                    cell.note_record(record);
                }
                cells.push(cell);
            }
        }
        VantageFigure::from_cells(cells)
    }

    /// Folds one tapped campaign into the figure as a single cell.
    pub fn note_campaign(&mut self, campaign: &Campaign, config: &CampaignConfig) {
        let Some(vantage) = config.tap else { return };
        let mut cell = VantageCell::new(vantage, config.conditions.loss, config.conditions.reorder);
        for record in &campaign.records {
            cell.note_record(record);
        }
        self.cells.push(cell);
        self.cells.sort_by_key(|c| c.key());
    }

    /// Distinct vantage positions in the grid, ascending.
    pub fn vantages(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.cells.iter().map(|c| c.vantage_millionths).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// Distinct loss rates in the grid, ascending.
    pub fn losses(&self) -> Vec<u32> {
        let mut v: Vec<u32> = self.cells.iter().map(|c| c.loss_millionths).collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The cell for one condition, if present.
    pub fn cell(&self, vantage: f64, loss: f64, reorder: f64) -> Option<&VantageCell> {
        let key = (millionths(vantage), millionths(loss), millionths(reorder));
        self.cells.iter().find(|c| c.key() == key)
    }

    /// Renders the grid as an ASCII table: one row per cell, the three
    /// RTT means side by side, plus the observer-vs-client delta over
    /// the paired flow set (the apples-to-apples comparison).
    pub fn render(&self) -> String {
        let mut out = String::from(
            "vantage  loss     reorder  flows  measur.  observer_ms  client_ms  stack_ms  pair_delta_ms\n",
        );
        for c in &self.cells {
            let fmt_mean = |m: Option<f64>| match m {
                Some(v) => format!("{v:.3}"),
                None => "-".to_string(),
            };
            let fmt_delta = |m: Option<f64>| match m {
                Some(v) => format!("{v:+.3}"),
                None => "-".to_string(),
            };
            out.push_str(&format!(
                "{:<8.2} {:<8.4} {:<8.4} {:<6} {:<8} {:<12} {:<10} {:<9} {}\n",
                f64::from(c.vantage_millionths) / 1_000_000.0,
                f64::from(c.loss_millionths) / 1_000_000.0,
                f64::from(c.reorder_millionths) / 1_000_000.0,
                c.flows,
                c.measurable,
                fmt_mean(c.observer_mean_ms()),
                fmt_mean(c.client_mean_ms()),
                fmt_mean(c.stack_mean_ms()),
                fmt_delta(c.paired_delta_ms()),
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quicspin_webpop::PopulationConfig;

    fn small_pop() -> Population {
        Population::generate(PopulationConfig {
            seed: 11,
            toplist_domains: 40,
            zone_domains: 160,
        })
    }

    fn base_config() -> CampaignConfig {
        CampaignConfig {
            conditions: NetworkConditions::clean(),
            threads: 2,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn sweep_builds_the_full_grid() {
        let pop = small_pop();
        let vantages = [0.1, 0.5, 0.9];
        let losses = [0.0, 0.01, 0.05];
        let figure = VantageFigure::sweep(&pop, &base_config(), 0..80, &vantages, &losses);
        assert_eq!(figure.cells.len(), 9);
        assert_eq!(figure.vantages().len(), 3);
        assert_eq!(figure.losses().len(), 3);

        // Clean-path cells agree with the client to well under the
        // sample resolution (exact per-flow parity on spinning flows is
        // asserted in quicspin-observer's lab tests; cells also fold
        // greasing flows, where the heuristics may drop random-flip
        // samples the client kept).
        for &v in &vantages {
            let cell = figure.cell(v, 0.0, 0.0).expect("clean cell");
            assert!(cell.flows > 0, "vantage {v} saw no flows");
            assert!(cell.measurable > 0);
            let observer = cell.observer_mean_ms().unwrap();
            let client = cell.client_mean_ms().unwrap();
            assert!(
                (observer - client).abs() < 0.01,
                "vantage {v}: observer {observer} vs client {client}"
            );
            let paired = cell.paired_delta_ms().expect("paired flows exist");
            assert!(
                paired.abs() < 0.01,
                "vantage {v}: paired observer-client delta {paired}"
            );
            assert_eq!(cell.rejected_gap, 0);
        }

        // Lossy cells still track the client's own spin estimate (stack
        // comparisons only make sense per spinning flow — the cell also
        // folds greasing flows, whose spin-derived means are noise on
        // both sides of the tap).
        let lossy = figure.cell(0.5, 0.05, 0.0).expect("lossy cell");
        assert!(lossy.flows > 0);
        let observer = lossy.observer_mean_ms().unwrap();
        let client = lossy.client_mean_ms().unwrap();
        assert!(
            (observer - client).abs() / client < 0.5,
            "lossy cell: observer {observer} vs client {client}"
        );

        // Rendering covers every cell.
        let table = figure.render();
        assert_eq!(table.lines().count(), 10);
        assert!(table.contains("observer_ms"));
    }

    #[test]
    fn sweep_where_filters_records() {
        let pop = small_pop();
        let none =
            VantageFigure::sweep_where(&pop, &base_config(), 0..40, &[0.5], &[0.0], |_| false);
        assert_eq!(none.cells.len(), 1);
        assert_eq!(none.cells[0].flows, 0);

        let spinning =
            VantageFigure::sweep_where(&pop, &base_config(), 0..80, &[0.5], &[0.0], |r| {
                r.report.as_ref().is_some_and(|rep| {
                    rep.classification == quicspin_core::FlowClassification::Spinning
                })
            });
        let all = VantageFigure::sweep(&pop, &base_config(), 0..80, &[0.5], &[0.0]);
        let cell = &spinning.cells[0];
        assert!(cell.flows > 0);
        assert!(
            cell.flows < all.cells[0].flows,
            "filter must drop non-spinning flows"
        );
    }

    #[test]
    fn cells_merge_order_independently() {
        let pop = small_pop();
        let mut config = base_config();
        config.tap = Some(0.5);
        let campaign = Scanner::new(&pop).run_campaign_over(&config, 0..120);

        let mut whole = VantageCell::new(0.5, 0.0, 0.0);
        for r in &campaign.records {
            whole.note_record(r);
        }
        let mut left = VantageCell::new(0.5, 0.0, 0.0);
        let mut right = VantageCell::new(0.5, 0.0, 0.0);
        for (i, r) in campaign.records.iter().enumerate() {
            if i % 2 == 0 {
                left.note_record(r);
            } else {
                right.note_record(r);
            }
        }
        left.merge(&right);
        assert_eq!(left, whole);
        assert!(whole.flows > 0);
    }

    #[test]
    fn figure_serde_roundtrip() {
        let pop = small_pop();
        let figure = VantageFigure::sweep(&pop, &base_config(), 0..40, &[0.0, 1.0], &[0.0]);
        let json = serde_json::to_string(&figure).unwrap();
        let back: VantageFigure = serde_json::from_str(&json).unwrap();
        assert_eq!(back, figure);
    }

    #[test]
    fn untapped_campaign_contributes_nothing() {
        let pop = small_pop();
        let config = base_config();
        let campaign = Scanner::new(&pop).run_campaign_over(&config, 0..40);
        let mut figure = VantageFigure::default();
        figure.note_campaign(&campaign, &config);
        assert!(figure.cells.is_empty());
    }
}
