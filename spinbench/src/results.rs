//! The line-oriented results file and `spinbench compare`.
//!
//! One tab-separated line per (workload, metric):
//! `workload  metric  unit  median  q1  q3  n`. Lines starting with `#`
//! are comments.

use crate::catalog::{end_to_end, Better};
use crate::stats::Summary;
use std::fmt::Write as _;

/// First line of every results file.
pub const HEADER: &str = "# spinbench results v1: workload metric unit median q1 q3 n";

/// One metric of one workload.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Unit.
    pub unit: String,
    /// Median, quartiles and sample count.
    pub summary: Summary,
}

/// Renders rows as a results file; `comments` become `#` lines after the
/// header.
pub fn render(rows: &[Row], comments: &[String]) -> String {
    let mut text = format!("{HEADER}\n");
    for c in comments {
        let _ = writeln!(text, "# {c}");
    }
    for r in rows {
        let s = &r.summary;
        let _ = writeln!(
            text,
            "{}\t{}\t{}\t{}\t{}\t{}\t{}",
            r.workload, r.metric, r.unit, s.median, s.q1, s.q3, s.n
        );
    }
    text
}

/// Parses a results file.
pub fn parse(text: &str) -> Result<Vec<Row>, String> {
    let mut rows = Vec::new();
    for (idx, line) in text.lines().enumerate() {
        let line = line.trim_end();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split('\t').collect();
        let [workload, metric, unit, median, q1, q3, n] = fields[..] else {
            return Err(format!(
                "line {}: expected 7 tab-separated fields, got {}",
                idx + 1,
                fields.len()
            ));
        };
        let num = |what: &str, raw: &str| {
            raw.parse::<f64>()
                .ok()
                .filter(|v| v.is_finite())
                .ok_or_else(|| format!("line {}: bad {what} {raw:?}", idx + 1))
        };
        rows.push(Row {
            workload: workload.to_string(),
            metric: metric.to_string(),
            unit: unit.to_string(),
            summary: Summary {
                median: num("median", median)?,
                q1: num("q1", q1)?,
                q3: num("q3", q3)?,
                n: n.parse()
                    .map_err(|_| format!("line {}: bad n {n:?}", idx + 1))?,
            },
        });
    }
    Ok(rows)
}

/// Outcome of comparing one metric of one workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Improved by more than the bound (and the floor).
    Better,
    /// Worsened by more than the bound (and the floor).
    Worse,
    /// Within the bound.
    Unchanged,
    /// A quartile spread is wider than the bound, so no call is made.
    Unresolved,
}

impl Verdict {
    /// Lower-case label.
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unchanged => "unchanged",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One compared (workload, metric) pair.
#[derive(Debug, Clone)]
pub struct Comparison {
    /// Workload name.
    pub workload: String,
    /// Metric name.
    pub metric: String,
    /// Baseline summary.
    pub a: Summary,
    /// Candidate summary.
    pub b: Summary,
    /// Relative worsening of the median (negative = improvement).
    pub worse_by: f64,
    /// The metric's bound.
    pub bound: f64,
    /// The call.
    pub verdict: Verdict,
}

/// Compares every end-to-end metric present in both `a` (baseline) and
/// `b` (candidate), applying each metric's bound and floor to the medians.
pub fn compare(a: &[Row], b: &[Row]) -> Vec<Comparison> {
    let mut out = Vec::new();
    for ra in a {
        let Some(metric) = end_to_end(&ra.metric) else {
            continue;
        };
        let Some(rb) = b
            .iter()
            .find(|r| r.workload == ra.workload && r.metric == ra.metric)
        else {
            continue;
        };
        let (ma, mb) = (ra.summary.median, rb.summary.median);
        let delta = match metric.better {
            Better::Lower => mb - ma,
            Better::Higher => ma - mb,
        };
        let worse_by = delta / ma.abs();
        let spread = ra.summary.spread().max(rb.summary.spread());
        let verdict = if spread > metric.bound {
            Verdict::Unresolved
        } else if worse_by > metric.bound && delta > metric.floor {
            Verdict::Worse
        } else if -worse_by > metric.bound && -delta > metric.floor {
            Verdict::Better
        } else {
            Verdict::Unchanged
        };
        out.push(Comparison {
            workload: ra.workload.clone(),
            metric: ra.metric.clone(),
            a: ra.summary,
            b: rb.summary,
            worse_by,
            bound: metric.bound,
            verdict,
        });
    }
    out
}
