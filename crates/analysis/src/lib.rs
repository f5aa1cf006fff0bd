//! # quicspin-analysis — regenerating the paper's tables and figures
//!
//! Takes the scanner's [`Campaign`](quicspin_scanner::Campaign) records
//! and computes every result the paper reports:
//!
//! | Module | Paper artefact |
//! |---|---|
//! | [`overview`] | Table 1 (IPv4) and Table 4 (IPv6) deployment overviews |
//! | [`orgs`] | Table 2 — AS-organization attribution |
//! | [`spin_config`] | Table 3 — how the spin bit is set/disabled |
//! | [`fig2`] | Fig. 2 — longitudinal RFC-compliance histogram + binomial theory |
//! | [`fig3`] | Fig. 3 — absolute accuracy histogram |
//! | [`fig4`] | Fig. 4 — mapped-ratio accuracy histogram |
//! | [`reordering`] | §5.2 — received-order vs. sorted-order impact |
//! | [`webserver`] | §4.2 — web-server attribution of spin support |
//! | [`render`] | ASCII tables / bar charts and CSV export |
//! | [`dataset`] | [`DomainClass`], the per-list domain tally and [`Dataset`] — every artefact as one fold |
//!
//! Each artefact has one builder: an integer accumulator with
//! `add`/`fold_domain` and `merge`, whose `from_campaign`/`from_records`
//! folds only that artefact. [`Dataset`] bundles them for one pass, and
//! [`Scanner::run_campaign_fold`](quicspin_scanner::Scanner::run_campaign_fold)
//! drives it without materializing the records.

pub mod dataset;
pub mod fig2;
pub mod fig3;
pub mod fig4;
pub mod histogram;
pub mod orgs;
pub mod overview;
pub mod render;
pub mod reordering;
pub mod spin_config;
pub mod stats;
pub mod webserver;

pub use dataset::{Dataset, DomainClass};
pub use fig2::LongitudinalFigure;
pub use fig3::AbsoluteAccuracyFigure;
pub use fig4::RatioAccuracyFigure;
pub use histogram::Histogram;
pub use orgs::OrgTable;
pub use overview::OverviewTable;
pub use reordering::ReorderingImpact;
pub use spin_config::SpinConfigTable;
pub use stats::Summary;
pub use webserver::WebServerShares;
