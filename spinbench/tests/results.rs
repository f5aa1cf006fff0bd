use spinbench::results::{compare, parse, render, Row, Verdict};
use spinbench::stats::Summary;

fn row(workload: &str, metric: &str, unit: &str, median: f64, q1: f64, q3: f64) -> Row {
    Row {
        workload: workload.to_string(),
        metric: metric.to_string(),
        unit: unit.to_string(),
        summary: Summary {
            median,
            q1,
            q3,
            n: 5,
        },
    }
}

#[test]
fn results_file_round_trips() {
    let rows = vec![
        row("sweep", "wall_s", "s", 1.711708027, 1.654618, 1.723905),
        row(
            "sweep",
            "domains_per_s",
            "1/s",
            116842.35678354974,
            116015.7,
            120873.8,
        ),
        row(
            "paper_tables",
            "quic.handshake_us.tail",
            "us",
            26.623,
            26.623,
            26.623,
        ),
    ];
    let text = render(&rows, &["seed 1 seconds 10".to_string()]);
    assert!(text.starts_with("# spinbench results v1"));
    assert_eq!(parse(&text).unwrap(), rows);
}

#[test]
fn malformed_lines_are_rejected_with_their_line_number() {
    let err = parse("# header\nsweep\twall_s\ts\t1.0\n").unwrap_err();
    assert!(err.starts_with("line 2:"), "{err}");
    let err = parse("sweep\twall_s\ts\tfast\t1\t1\t3\n").unwrap_err();
    assert!(err.contains("bad median"), "{err}");
    let err = parse("sweep\twall_s\ts\tNaN\t1\t1\t3\n").unwrap_err();
    assert!(err.contains("bad median"), "{err}");
}

fn verdict(a: Row, b: Row) -> Verdict {
    let out = compare(&[a], &[b]);
    assert_eq!(out.len(), 1);
    out[0].verdict
}

#[test]
fn compare_applies_bound_direction_floor_and_spread() {
    // wall_s: lower is better, bound 25%.
    let base = row("sweep", "wall_s", "s", 1.0, 0.99, 1.01);
    assert_eq!(
        verdict(base.clone(), row("sweep", "wall_s", "s", 1.2, 1.19, 1.21)),
        Verdict::Unchanged
    );
    assert_eq!(
        verdict(base.clone(), row("sweep", "wall_s", "s", 1.3, 1.29, 1.31)),
        Verdict::Worse
    );
    assert_eq!(
        verdict(base.clone(), row("sweep", "wall_s", "s", 0.7, 0.69, 0.71)),
        Verdict::Better
    );
    // A quartile spread wider than the bound makes no call.
    assert_eq!(
        verdict(base, row("sweep", "wall_s", "s", 1.3, 1.0, 1.5)),
        Verdict::Unresolved
    );
    // domains_per_s: higher is better.
    let base = row("sweep", "domains_per_s", "1/s", 100.0, 99.0, 101.0);
    assert_eq!(
        verdict(base, row("sweep", "domains_per_s", "1/s", 70.0, 69.0, 71.0)),
        Verdict::Worse
    );
    // peak_rss_mib: +17% is past the 15% bound but within the 4 MiB floor.
    let base = row("matrix_grid", "peak_rss_mib", "MiB", 12.0, 12.0, 12.1);
    assert_eq!(
        verdict(
            base,
            row("matrix_grid", "peak_rss_mib", "MiB", 14.0, 14.0, 14.1)
        ),
        Verdict::Unchanged
    );
}

#[test]
fn compare_skips_metrics_without_a_bound_or_a_counterpart() {
    let a = vec![
        row("sweep", "scanner.sink_s", "s", 1.0, 1.0, 1.0),
        row("sweep", "wall_s", "s", 1.0, 1.0, 1.0),
        row("sweep", "cpu_s", "s", 1.0, 1.0, 1.0),
    ];
    let b = vec![
        row("sweep", "scanner.sink_s", "s", 9.0, 9.0, 9.0),
        row("sweep", "wall_s", "s", 1.0, 1.0, 1.0),
        row("lossy_toplist", "cpu_s", "s", 9.0, 9.0, 9.0),
    ];
    let out = compare(&a, &b);
    assert_eq!(out.len(), 1);
    assert_eq!(
        (out[0].metric.as_str(), out[0].verdict),
        ("wall_s", Verdict::Unchanged)
    );
}
