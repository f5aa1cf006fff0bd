//! Rendering: ASCII tables and bar charts matching the paper's layout,
//! plus CSV export for downstream plotting.

use crate::fig2::LongitudinalFigure;
use crate::fig3::AbsoluteAccuracyFigure;
use crate::fig4::RatioAccuracyFigure;
use crate::histogram::Histogram;
use crate::orgs::OrgTable;
use crate::overview::OverviewTable;
use crate::spin_config::SpinConfigTable;

fn fmt_count(v: u64) -> String {
    // Thousands separators for readability (paper prints big numbers).
    let s = v.to_string();
    let mut out = String::new();
    for (i, c) in s.chars().enumerate() {
        if i > 0 && (s.len() - i).is_multiple_of(3) {
            out.push(',');
        }
        out.push(c);
    }
    out
}

/// Renders Table 1 / Table 4 (the caller labels which).
pub fn render_overview(title: &str, table: &OverviewTable) -> String {
    let mut out = format!("{title}\n");
    out.push_str(&format!(
        "{:<14} {:>12} {:>12} {:>12} {:>12} {:>8}\n",
        "", "Total", "Resolved", "QUIC", "Spin", "Spin%"
    ));
    for (name, row) in table.rows() {
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>7.1}%\n",
            format!("{name} dom"),
            fmt_count(row.total_domains),
            fmt_count(row.resolved_domains),
            fmt_count(row.quic_domains),
            fmt_count(row.spin_domains),
            row.spin_domain_pct()
        ));
        out.push_str(&format!(
            "{:<14} {:>12} {:>12} {:>12} {:>12} {:>7.1}%\n",
            format!("{name} IPs"),
            "",
            "",
            fmt_count(row.quic_ips),
            fmt_count(row.spin_ips),
            row.spin_ip_pct()
        ));
    }
    out
}

/// Renders Table 2.
pub fn render_orgs(table: &OrgTable) -> String {
    let mut out = String::from("Table 2: QUIC connections and spin activity per AS organization\n");
    out.push_str(&format!(
        "{:>3} {:>12} {:<16} {:>12} {:>8} {:>6}\n",
        "#", "Total", "Organization", "Spin#", "Spin%", "Spin#rank"
    ));
    for row in &table.rows {
        out.push_str(&format!(
            "{:>3} {:>12} {:<16} {:>12} {:>7.1}% {:>6}\n",
            row.total_rank.map_or("-".to_string(), |r| r.to_string()),
            fmt_count(row.total_connections),
            row.org.name(),
            fmt_count(row.spin_connections),
            row.spin_pct(),
            row.spin_rank.map_or("-".to_string(), |r| r.to_string())
        ));
    }
    out
}

/// Renders Table 3.
pub fn render_spin_config(table: &SpinConfigTable) -> String {
    let mut out = String::from("Table 3: spin behavior of all QUIC domains\n");
    out.push_str(&format!(
        "{:<14} {:>14} {:>12} {:>12} {:>10}\n",
        "", "All Zero", "All One", "Spin", "Grease"
    ));
    for (name, row) in table.rows() {
        out.push_str(&format!(
            "{:<14} {:>9} ({:4.1}%) {:>7} ({:4.2}%) {:>12} {:>5} ({:4.2}%)\n",
            name,
            fmt_count(row.all_zero),
            row.all_zero_pct(),
            fmt_count(row.all_one),
            row.all_one_pct(),
            fmt_count(row.spin),
            fmt_count(row.grease),
            row.grease_pct()
        ));
    }
    out
}

fn render_histogram_bars(h: &Histogram, width: usize) -> String {
    let shares = h.shares();
    let mut out = String::new();
    for (i, share) in shares.iter().enumerate() {
        let bar_len = (share * width as f64).round() as usize;
        out.push_str(&format!(
            "  {:<14} {:>6.1}% |{}\n",
            h.bin_label(i),
            share * 100.0,
            "#".repeat(bar_len)
        ));
    }
    out
}

/// Renders Fig. 2.
pub fn render_fig2(fig: &LongitudinalFigure) -> String {
    let mut out = format!(
        "Figure 2: weeks with spin activity (n = {}, {} ever-spun, {} always reachable)\n",
        fig.n_weeks, fig.ever_spun, fig.always_reachable
    );
    out.push_str(&format!(
        "{:>6} {:>10} {:>10} {:>10}\n",
        "weeks", "observed", "RFC9000", "RFC9312"
    ));
    for k in 0..fig.n_weeks as usize {
        out.push_str(&format!(
            "{:>6} {:>9.1}% {:>9.1}% {:>9.1}%\n",
            k + 1,
            fig.observed[k] * 100.0,
            fig.rfc9000[k] * 100.0,
            fig.rfc9312[k] * 100.0
        ));
    }
    out
}

/// Renders Fig. 3.
pub fn render_fig3(fig: &AbsoluteAccuracyFigure) -> String {
    let mut out =
        String::from("Figure 3: abs. difference spin - QUIC of per-connection means (ms)\n");
    for (name, series) in [
        ("Spin (R)", &fig.spin_received),
        ("Spin (S)", &fig.spin_sorted),
        ("Grease (R)", &fig.grease_received),
        ("Grease (S)", &fig.grease_sorted),
    ] {
        out.push_str(&format!(
            "{name}: n={} overestimate={:.1}% within±25ms={:.1}% >200ms={:.1}%\n",
            fmt_count(series.connections()),
            series.overestimate_share() * 100.0,
            series.within_25ms_share() * 100.0,
            series.over_200ms_share() * 100.0
        ));
        out.push_str(&render_histogram_bars(&series.histogram, 50));
    }
    out
}

/// Renders Fig. 4.
pub fn render_fig4(fig: &RatioAccuracyFigure) -> String {
    let mut out = String::from("Figure 4: mapped ratio of per-connection means (spin vs QUIC)\n");
    for (name, series) in [
        ("Spin (R)", &fig.spin_received),
        ("Spin (S)", &fig.spin_sorted),
        ("Grease (R)", &fig.grease_received),
        ("Grease (S)", &fig.grease_sorted),
    ] {
        out.push_str(&format!(
            "{name}: n={} within25%={:.1}% within2x={:.1}% >3x={:.1}% under={:.1}%\n",
            fmt_count(series.connections()),
            series.within_25pct_share() * 100.0,
            series.within_factor2_share() * 100.0,
            series.over_3x_share() * 100.0,
            series.underestimate_share() * 100.0
        ));
        out.push_str(&render_histogram_bars(&series.histogram, 50));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fmt_count_inserts_separators() {
        assert_eq!(fmt_count(0), "0");
        assert_eq!(fmt_count(999), "999");
        assert_eq!(fmt_count(1_000), "1,000");
        assert_eq!(fmt_count(216_520_521), "216,520,521");
    }

    #[test]
    fn render_fig2_includes_theory_columns() {
        let fig = LongitudinalFigure {
            n_weeks: 3,
            ever_spun: 10,
            always_reachable: 8,
            observed: vec![0.25, 0.25, 0.5],
            rfc9000: crate::fig2::rfc_theory(3, 15.0 / 16.0),
            rfc9312: crate::fig2::rfc_theory(3, 7.0 / 8.0),
        };
        let text = render_fig2(&fig);
        assert!(text.contains("RFC9000"));
        assert!(text.contains("RFC9312"));
        assert!(text.lines().count() >= 5);
    }

    #[test]
    fn render_histogram_bars_scale() {
        let mut h = Histogram::new(vec![0.0]);
        for _ in 0..10 {
            h.add(1.0);
        }
        let text = render_histogram_bars(&h, 20);
        assert!(text.contains(&"#".repeat(20)), "{text}");
    }
}
