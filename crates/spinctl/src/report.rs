//! Cross-scenario report generation for `spinctl matrix` / `spinctl
//! report`.
//!
//! A matrix run leaves one campaign directory per scenario cell under
//! `<out>/cells/<id>/` plus a `matrix.json` layout document naming the
//! scenario, the sweep axes, and the cells. This module folds all of
//! that into one `report.md` (human, GitHub-flavoured markdown) and one
//! `report.json` (machine-readable, [`MatrixReportDoc`]).
//!
//! Both outputs are **byte-identical at any `--threads`**: every number
//! in them comes from the deterministic artifact halves (the time
//! series' final point, the anomaly index, the observer document, the
//! deterministic profile counts, and the manifest's
//! [`deterministic_view`](quicspin_telemetry::RunManifest::deterministic_view))
//! and is stored as an integer (microseconds, counts, or millionths of
//! a fraction) so no float formatting is involved. Wall-clock data
//! (stages, `profile.folded` weights) never enters the report — the
//! flamegraph is *linked*, not summarized.
//!
//! Cells missing optional artifacts (observer.json, profile.json,
//! traces.bin) render as `-` instead of failing the whole report; only
//! the three core artifacts (metrics.json, anomalies.json,
//! timeseries.json) are required per cell.

use quicspin_qlog::{heading, millionths_percent, opt_millionths_percent, MarkdownTable};
use quicspin_scanner::{
    read_anomaly_index, read_json, read_observer, read_profile, read_run_manifest, read_timeseries,
    write_json, AnomalyKind, ScenarioMatrix, CHROME_TRACE_FILE_NAME, OBSERVER_FILE_NAME,
    PROFILE_FILE_NAME, PROFILE_FOLDED_FILE_NAME, TRACE_STORE_FILE_NAME,
};
use quicspin_telemetry::ConfigEntry;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};

/// Matrix layout document file name, written next to `cells/`.
pub const MATRIX_FILE_NAME: &str = "matrix.json";
/// Rendered markdown report file name.
pub const REPORT_MD_FILE_NAME: &str = "report.md";
/// Machine-readable report file name.
pub const REPORT_JSON_FILE_NAME: &str = "report.json";
/// Schema version of [`MatrixLayout`] and [`MatrixReportDoc`].
pub const REPORT_SCHEMA_VERSION: u32 = 2;

/// Classification-mix share drift (millionths) past which a cell counts
/// as drifted vs the baseline cell — the integer twin of `compare`'s
/// default `--mix-drift 0.02`.
const MIX_DRIFT_MILLIONTHS: u64 = 20_000;

/// Error-rate drift (millionths) past which a cell counts as regressed
/// vs the baseline cell — the integer twin of `compare`'s 2% gate.
const ERROR_DRIFT_MILLIONTHS: u64 = 20_000;

// ---------------------------------------------------------------------------
// matrix.json — the layout document the runner writes
// ---------------------------------------------------------------------------

/// One sweep axis echoed into the layout/report.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AxisEcho {
    /// Axis name (`loss`, `vantage`, …).
    pub axis: String,
    /// Values in sweep order, as the cell-id tokens (floats in
    /// millionths).
    pub values: Vec<String>,
}

/// One cell's slot in the layout: its id and artifact directory.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellSlot {
    /// Deterministic cell id.
    pub id: String,
    /// Artifact directory, relative to the matrix out-dir.
    pub dir: String,
}

/// The `matrix.json` document: what ran, where its artifacts live.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MatrixLayout {
    /// Schema version ([`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Scenario name.
    pub scenario: String,
    /// Scenario description (may be empty).
    pub description: String,
    /// Sweep axes in cell-id order.
    pub axes: Vec<AxisEcho>,
    /// All cells, in expansion order; the first is the report baseline.
    pub cells: Vec<CellSlot>,
}

impl MatrixLayout {
    /// Builds the layout for a compiled scenario; cell directories are
    /// `cells/<id>`.
    pub fn from_matrix(matrix: &ScenarioMatrix) -> MatrixLayout {
        MatrixLayout {
            schema_version: REPORT_SCHEMA_VERSION,
            scenario: matrix.name.clone(),
            description: matrix.description.clone(),
            axes: matrix
                .axes
                .iter()
                .map(|a| AxisEcho {
                    axis: a.axis.clone(),
                    values: a.values.clone(),
                })
                .collect(),
            cells: matrix
                .cells
                .iter()
                .map(|c| CellSlot {
                    id: c.id.clone(),
                    dir: format!("cells/{}", c.id),
                })
                .collect(),
        }
    }
}

/// Writes `matrix.json` into the matrix out-dir.
pub fn write_matrix_layout(dir: &Path, layout: &MatrixLayout) -> Result<PathBuf, String> {
    write_json(dir, MATRIX_FILE_NAME, layout).map_err(|e| {
        let path = dir.join(MATRIX_FILE_NAME);
        format!("cannot write scenario matrix {}: {e}", path.display())
    })
}

/// Reads `matrix.json` back from a matrix out-dir.
pub fn read_matrix_layout(dir: &Path) -> Result<MatrixLayout, String> {
    read_json(&dir.join(MATRIX_FILE_NAME), "scenario matrix").map_err(|e| e.to_string())
}

// ---------------------------------------------------------------------------
// report.json — the folded cross-scenario document
// ---------------------------------------------------------------------------

/// One classification class inside a [`CellReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MixEntry {
    /// Class name (`spinning`, `greased`, …).
    pub name: String,
    /// Absolute record count.
    pub count: u64,
    /// Share of the cell's mix, in millionths.
    pub share_millionths: u64,
}

/// One anomaly kind's count inside a [`CellReport`].
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AnomalyCount {
    /// Kebab-case anomaly kind name.
    pub kind: String,
    /// Flagged probes of this kind.
    pub count: u64,
}

/// Observer digest for cells that ran with a tap.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ObserverDigest {
    /// Tap position, millionths of the client→server path.
    pub vantage_millionths: u32,
    /// Flows the tap observed.
    pub flows: u64,
    /// Flows with at least one observer RTT sample.
    pub measurable: u64,
    /// Flows the observer could not measure.
    pub unmeasurable: u64,
    /// Largest per-flow observer-vs-client divergence (millionths).
    pub max_divergence_millionths: u64,
}

/// Deterministic profile digest for cells that ran `--profile`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProfileDigest {
    /// Scopes with at least one enter.
    pub scopes: u64,
    /// Total scope enters.
    pub enters: u64,
}

/// One cell's folded metrics inside a [`MatrixReportDoc`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CellReport {
    /// Cell id.
    pub id: String,
    /// Artifact directory, relative to the matrix out-dir.
    pub dir: String,
    /// Deterministic campaign identifier.
    pub campaign: String,
    /// Run provenance: the manifest's deterministic config echo
    /// (seed, conditions, tap vantage, scenario cell id, …).
    pub provenance: Vec<ConfigEntry>,
    /// Probes completed.
    pub probes: u64,
    /// Connection records produced.
    pub records: u64,
    /// Probes that erred.
    pub errors: u64,
    /// Error rate, millionths of probes.
    pub error_rate_millionths: u64,
    /// Handshake-stage median, virtual µs.
    pub handshake_p50_us: u64,
    /// Handshake-stage p99, virtual µs.
    pub handshake_p99_us: u64,
    /// Whole-probe median, virtual µs.
    pub total_p50_us: u64,
    /// Whole-probe p99, virtual µs.
    pub total_p99_us: u64,
    /// Classification mix with integer shares.
    pub mix: Vec<MixEntry>,
    /// Anomaly digest (kinds with nonzero counts, `ALL` order).
    pub anomalies: Vec<AnomalyCount>,
    /// Per-flow |spin − stack| / stack RTT error median, millionths
    /// (from observer.json; absent without a tap or measurable flows).
    pub spin_rtt_error_p50_millionths: Option<u64>,
    /// The same error's p99, millionths.
    pub spin_rtt_error_p99_millionths: Option<u64>,
    /// Observer digest; absent when the cell has no observer.json.
    pub observer: Option<ObserverDigest>,
    /// Profile digest; absent when the cell has no profile.json.
    pub profile: Option<ProfileDigest>,
    /// Relative link to the cell's Perfetto trace, when present.
    pub perfetto_trace: Option<String>,
    /// Relative link to the cell's collapsed flamegraph stacks.
    pub flamegraph: Option<String>,
    /// Relative link to the cell's retained binary trace store.
    pub trace_store: Option<String>,
    /// Metrics regressed vs the baseline cell (empty for the baseline
    /// itself); reuses the `compare` band logic.
    pub regressed: Vec<String>,
}

/// The `report.json` document: scenario echo plus per-cell folds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatrixReportDoc {
    /// Schema version ([`REPORT_SCHEMA_VERSION`]).
    pub schema_version: u32,
    /// Scenario name.
    pub scenario: String,
    /// Scenario description.
    pub description: String,
    /// Sweep axes in cell-id order.
    pub axes: Vec<AxisEcho>,
    /// Baseline cell id (the first expanded cell).
    pub baseline: String,
    /// One report per cell, expansion order.
    pub cells: Vec<CellReport>,
}

// ---------------------------------------------------------------------------
// Folding cells into the report
// ---------------------------------------------------------------------------

/// Nearest-rank percentile over a sorted slice (integer arithmetic).
fn percentile(sorted: &[u64], pct: u64) -> u64 {
    debug_assert!(!sorted.is_empty());
    let idx = ((sorted.len() - 1) as u64 * pct) / 100;
    sorted[idx as usize]
}

fn fold_cell(out_dir: &Path, slot: &CellSlot) -> Result<CellReport, String> {
    let dir = out_dir.join(&slot.dir);
    let manifest = read_run_manifest(&dir).map_err(|e| e.to_string())?;
    let index = read_anomaly_index(&dir).map_err(|e| e.to_string())?;
    let series = read_timeseries(&dir).map_err(|e| e.to_string())?;
    let point = series
        .last_point()
        .cloned()
        .ok_or_else(|| format!("time series in {} has no samples", dir.display()))?;

    let mix_total: u64 = point.mix.iter().map(|c| c.value).sum::<u64>().max(1);
    let mix: Vec<MixEntry> = point
        .mix
        .iter()
        .map(|c| MixEntry {
            name: c.name.clone(),
            count: c.value,
            share_millionths: c.value * 1_000_000 / mix_total,
        })
        .collect();

    let anomalies: Vec<AnomalyCount> = index
        .counts_by_kind()
        .into_iter()
        .map(|(kind, n)| AnomalyCount {
            kind: kind.name().to_string(),
            count: n as u64,
        })
        .collect();

    // The spin-vs-stack RTT error distribution comes from the observer
    // document's per-flow means: |client spin − stack| / stack. Only
    // flows where both means exist contribute.
    let observer_path = dir.join(OBSERVER_FILE_NAME);
    let (observer, spin_p50, spin_p99) = if observer_path.is_file() {
        let doc = read_observer(&dir).map_err(|e| e.to_string())?;
        let mut errors_millionths: Vec<u64> = doc
            .flows
            .iter()
            .filter_map(|row| {
                let spin = row.view.client_spin_mean_us?;
                let stack = row.view.stack_mean_us?;
                if stack == 0 {
                    return None;
                }
                Some(spin.abs_diff(stack) * 1_000_000 / stack)
            })
            .collect();
        errors_millionths.sort_unstable();
        let (p50, p99) = if errors_millionths.is_empty() {
            (None, None)
        } else {
            (
                Some(percentile(&errors_millionths, 50)),
                Some(percentile(&errors_millionths, 99)),
            )
        };
        let digest = ObserverDigest {
            vantage_millionths: doc.vantage_millionths,
            flows: doc.summary.flows,
            measurable: doc.summary.measurable,
            unmeasurable: doc.summary.unmeasurable,
            max_divergence_millionths: doc.summary.max_divergence_millionths,
        };
        (Some(digest), p50, p99)
    } else {
        (None, None, None)
    };

    let profile = if dir.join(PROFILE_FILE_NAME).is_file() {
        let doc = read_profile(&dir).map_err(|e| e.to_string())?;
        let live = doc.scopes.iter().filter(|r| r.enters > 0);
        Some(ProfileDigest {
            scopes: live.clone().count() as u64,
            enters: live.map(|r| r.enters).sum(),
        })
    } else {
        None
    };

    let link = |name: &str| {
        dir.join(name)
            .is_file()
            .then(|| format!("{}/{}", slot.dir, name))
    };

    Ok(CellReport {
        id: slot.id.clone(),
        dir: slot.dir.clone(),
        campaign: index.campaign_id.clone(),
        provenance: manifest.deterministic_view().config,
        probes: point.probes,
        records: point.records,
        errors: point.errors,
        error_rate_millionths: (point.errors * 1_000_000)
            .checked_div(point.probes)
            .unwrap_or(0),
        handshake_p50_us: point.handshake_p50_us,
        handshake_p99_us: point.handshake_p99_us,
        total_p50_us: point.total_p50_us,
        total_p99_us: point.total_p99_us,
        mix,
        anomalies,
        spin_rtt_error_p50_millionths: spin_p50,
        spin_rtt_error_p99_millionths: spin_p99,
        observer,
        profile,
        perfetto_trace: link(CHROME_TRACE_FILE_NAME),
        flamegraph: link(PROFILE_FOLDED_FILE_NAME),
        trace_store: link(TRACE_STORE_FILE_NAME),
        regressed: Vec::new(),
    })
}

/// `compare`'s p99 gate at its default band.
fn p99_regressed(base_us: u64, cell_us: u64) -> bool {
    super::regressed(
        base_us,
        cell_us,
        super::DEFAULT_BAND,
        super::LATENCY_FLOOR_US,
    )
}

fn mark_regressions(cells: &mut [CellReport]) {
    if cells.is_empty() {
        return;
    }
    let base = cells[0].clone();
    for cell in &mut cells[1..] {
        let mut regressed = Vec::new();
        if p99_regressed(base.handshake_p99_us, cell.handshake_p99_us) {
            regressed.push("handshake_p99_us".to_string());
        }
        if p99_regressed(base.total_p99_us, cell.total_p99_us) {
            regressed.push("total_p99_us".to_string());
        }
        if cell.error_rate_millionths > base.error_rate_millionths + ERROR_DRIFT_MILLIONTHS {
            regressed.push("error_rate".to_string());
        }
        let mut class_names: Vec<&str> = base.mix.iter().map(|m| m.name.as_str()).collect();
        for m in &cell.mix {
            if !class_names.contains(&m.name.as_str()) {
                class_names.push(m.name.as_str());
            }
        }
        let share = |mix: &[MixEntry], name: &str| {
            mix.iter()
                .find(|m| m.name == name)
                .map_or(0, |m| m.share_millionths)
        };
        for name in class_names {
            let (sa, sb) = (share(&base.mix, name), share(&cell.mix, name));
            if sa.abs_diff(sb) > MIX_DRIFT_MILLIONTHS {
                regressed.push(format!("mix:{name}"));
            }
        }
        cell.regressed = regressed;
    }
}

/// Folds a matrix out-dir into the report document plus its rendered
/// markdown. Requires `matrix.json` and each cell's core artifacts;
/// optional artifacts (observer.json, profile.json, traces.bin,
/// trace.json, profile.folded) render as `-`/absent.
pub fn generate(out_dir: &Path) -> Result<(MatrixReportDoc, String), String> {
    let layout = read_matrix_layout(out_dir)?;
    let mut cells = Vec::with_capacity(layout.cells.len());
    for slot in &layout.cells {
        cells.push(fold_cell(out_dir, slot)?);
    }
    mark_regressions(&mut cells);
    let doc = MatrixReportDoc {
        schema_version: REPORT_SCHEMA_VERSION,
        scenario: layout.scenario,
        description: layout.description,
        axes: layout.axes,
        baseline: layout
            .cells
            .first()
            .map(|c| c.id.clone())
            .unwrap_or_default(),
        cells,
    };
    let md = render_markdown(&doc);
    Ok((doc, md))
}

/// Writes `report.md` and `report.json` into the matrix out-dir.
pub fn write_report(
    out_dir: &Path,
    doc: &MatrixReportDoc,
    md: &str,
) -> Result<(PathBuf, PathBuf), String> {
    let md_path = out_dir.join(REPORT_MD_FILE_NAME);
    let json_path = out_dir.join(REPORT_JSON_FILE_NAME);
    std::fs::write(&md_path, md)
        .map_err(|e| format!("cannot write report {}: {e}", md_path.display()))?;
    write_json(out_dir, REPORT_JSON_FILE_NAME, doc)
        .map_err(|e| format!("cannot write report {}: {e}", json_path.display()))?;
    Ok((md_path, json_path))
}

// ---------------------------------------------------------------------------
// report.md rendering
// ---------------------------------------------------------------------------

/// The cell-id token of one axis inside a cell id, e.g. axis `loss` in
/// `loss50000-vantage250000` → `50000`.
fn axis_token<'a>(cell_id: &'a str, axis: &str) -> Option<&'a str> {
    cell_id
        .split('-')
        .find_map(|part| part.strip_prefix(axis))
        .filter(|rest| rest.chars().all(|c| c.is_ascii_digit()))
}

fn opt_link(link: &Option<String>, label: &str) -> String {
    link.as_ref()
        .map_or_else(|| "-".to_string(), |l| format!("[{label}]({l})"))
}

fn render_markdown(doc: &MatrixReportDoc) -> String {
    let mut md = String::new();
    md.push_str(&heading(1, &format!("Scenario report: {}", doc.scenario)));
    if !doc.description.is_empty() {
        let _ = writeln!(md, "{}\n", doc.description);
    }
    let axes: Vec<String> = doc
        .axes
        .iter()
        .map(|a| format!("`{}` × {{{}}}", a.axis, a.values.join(", ")))
        .collect();
    let _ = writeln!(
        md,
        "{} cells over {} ax{}: {}. Baseline cell: `{}`.\n",
        doc.cells.len(),
        doc.axes.len(),
        if doc.axes.len() == 1 { "is" } else { "es" },
        axes.join(", "),
        doc.baseline,
    );

    // Grid: one row per cell, the report's core table.
    md.push_str(&heading(2, "Grid"));
    let mut grid = MarkdownTable::new(&[
        "cell",
        "probes",
        "records",
        "err",
        "hs p50 µs",
        "hs p99 µs",
        "total p50 µs",
        "total p99 µs",
        "spin err p50",
        "spin err p99",
        "verdict",
    ]);
    for (i, c) in doc.cells.iter().enumerate() {
        let verdict = if i == 0 {
            "baseline".to_string()
        } else if c.regressed.is_empty() {
            "ok".to_string()
        } else {
            format!("REGRESSED ({})", c.regressed.join(", "))
        };
        grid.row(&[
            format!("`{}`", c.id),
            c.probes.to_string(),
            c.records.to_string(),
            millionths_percent(c.error_rate_millionths),
            c.handshake_p50_us.to_string(),
            c.handshake_p99_us.to_string(),
            c.total_p50_us.to_string(),
            c.total_p99_us.to_string(),
            opt_millionths_percent(c.spin_rtt_error_p50_millionths),
            opt_millionths_percent(c.spin_rtt_error_p99_millionths),
            verdict,
        ]);
    }
    md.push_str(&grid.render());

    // Classification mix: union of class names, first-seen order.
    md.push_str(&heading(2, "Classification mix"));
    let mut class_names: Vec<&str> = Vec::new();
    for c in &doc.cells {
        for m in &c.mix {
            if !class_names.contains(&m.name.as_str()) {
                class_names.push(m.name.as_str());
            }
        }
    }
    let mut header: Vec<&str> = vec!["cell"];
    header.extend(&class_names);
    let mut mix_table = MarkdownTable::new(&header);
    for c in &doc.cells {
        let mut row = vec![format!("`{}`", c.id)];
        for name in &class_names {
            let cell = c.mix.iter().find(|m| &m.name == name).map_or_else(
                || "-".to_string(),
                |m| millionths_percent(m.share_millionths),
            );
            row.push(cell);
        }
        mix_table.row(&row);
    }
    md.push_str(&mix_table.render());

    // Anomaly digest: kinds with a nonzero count anywhere, ALL order.
    md.push_str(&heading(2, "Anomalies"));
    let kinds: Vec<&str> = AnomalyKind::ALL
        .iter()
        .map(|k| k.name())
        .filter(|name| {
            doc.cells
                .iter()
                .any(|c| c.anomalies.iter().any(|a| a.kind == *name))
        })
        .collect();
    if kinds.is_empty() {
        md.push_str("No anomalies in any cell.\n\n");
    } else {
        let mut header: Vec<&str> = vec!["cell"];
        header.extend(&kinds);
        let mut table = MarkdownTable::new(&header);
        for c in &doc.cells {
            let mut row = vec![format!("`{}`", c.id)];
            for kind in &kinds {
                let n = c
                    .anomalies
                    .iter()
                    .find(|a| &a.kind == kind)
                    .map_or(0, |a| a.count);
                row.push(n.to_string());
            }
            table.row(&row);
        }
        md.push_str(&table.render());
    }

    // Observer vantage deltas; cells without observer.json render "-".
    md.push_str(&heading(2, "Observer"));
    let mut obs = MarkdownTable::new(&[
        "cell",
        "vantage",
        "flows",
        "measurable",
        "unmeasurable",
        "max divergence",
    ]);
    for c in &doc.cells {
        match &c.observer {
            Some(o) => obs.row(&[
                format!("`{}`", c.id),
                millionths_percent(u64::from(o.vantage_millionths)),
                o.flows.to_string(),
                o.measurable.to_string(),
                o.unmeasurable.to_string(),
                millionths_percent(o.max_divergence_millionths),
            ]),
            None => obs.row(&[format!("`{}`", c.id)]),
        }
    }
    md.push_str(&obs.render());

    // Deterministic profile digest; unprofiled cells render "-".
    md.push_str(&heading(2, "Profile"));
    let mut prof = MarkdownTable::new(&["cell", "live scopes", "enters"]);
    for c in &doc.cells {
        match &c.profile {
            Some(p) => prof.row(&[
                format!("`{}`", c.id),
                p.scopes.to_string(),
                p.enters.to_string(),
            ]),
            None => prof.row(&[format!("`{}`", c.id)]),
        }
    }
    md.push_str(&prof.render());

    // Per-axis comparison: cells grouped by each axis value, integer
    // means over the group.
    for axis in &doc.axes {
        md.push_str(&heading(2, &format!("Axis: {}", axis.axis)));
        let mut table = MarkdownTable::new(&[
            "value",
            "cells",
            "mean err",
            "mean total p99 µs",
            "mean spin err p50",
            "mean spin err p99",
        ]);
        for value in &axis.values {
            let group: Vec<&CellReport> = doc
                .cells
                .iter()
                .filter(|c| axis_token(&c.id, &axis.axis) == Some(value.as_str()))
                .collect();
            if group.is_empty() {
                continue;
            }
            let n = group.len() as u64;
            let mean = |f: &dyn Fn(&CellReport) -> u64| group.iter().map(|c| f(c)).sum::<u64>() / n;
            let opt_mean = |f: &dyn Fn(&CellReport) -> Option<u64>| {
                let values: Vec<u64> = group.iter().filter_map(|c| f(c)).collect();
                if values.is_empty() {
                    None
                } else {
                    Some(values.iter().sum::<u64>() / values.len() as u64)
                }
            };
            table.row(&[
                value.clone(),
                n.to_string(),
                millionths_percent(mean(&|c| c.error_rate_millionths)),
                mean(&|c| c.total_p99_us).to_string(),
                opt_millionths_percent(opt_mean(&|c| c.spin_rtt_error_p50_millionths)),
                opt_millionths_percent(opt_mean(&|c| c.spin_rtt_error_p99_millionths)),
            ]);
        }
        md.push_str(&table.render());
    }

    // Provenance: the deterministic config echo from each metrics.json.
    md.push_str(&heading(2, "Provenance"));
    let mut keys: Vec<&str> = Vec::new();
    for c in &doc.cells {
        for e in &c.provenance {
            if !keys.contains(&e.key.as_str()) {
                keys.push(e.key.as_str());
            }
        }
    }
    let mut header: Vec<&str> = vec!["cell"];
    header.extend(&keys);
    let mut prov = MarkdownTable::new(&header);
    for c in &doc.cells {
        let mut row = vec![format!("`{}`", c.id)];
        for key in &keys {
            let v = c
                .provenance
                .iter()
                .find(|e| &e.key == key)
                .map_or_else(|| "-".to_string(), |e| e.value.clone());
            row.push(v);
        }
        prov.row(&row);
    }
    md.push_str(&prov.render());

    // Artifact links; missing optional artifacts render "-".
    md.push_str(&heading(2, "Artifacts"));
    let mut links = MarkdownTable::new(&["cell", "perfetto trace", "flamegraph", "trace store"]);
    for c in &doc.cells {
        links.row(&[
            format!("`{}`", c.id),
            opt_link(&c.perfetto_trace, "trace.json"),
            opt_link(&c.flamegraph, "profile.folded"),
            opt_link(&c.trace_store, "traces.bin"),
        ]);
    }
    md.push_str(&links.render());

    md
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cell(id: &str, total_p99: u64, err_millionths: u64, spin_share: u64) -> CellReport {
        CellReport {
            id: id.to_string(),
            dir: format!("cells/{id}"),
            campaign: "week0-V4-seed0000000000000017".to_string(),
            provenance: vec![ConfigEntry {
                key: "scenario_cell".to_string(),
                value: id.to_string(),
            }],
            probes: 100,
            records: 110,
            errors: err_millionths / 10_000,
            error_rate_millionths: err_millionths,
            handshake_p50_us: 30_000,
            handshake_p99_us: 90_000,
            total_p50_us: 100_000,
            total_p99_us: total_p99,
            mix: vec![
                MixEntry {
                    name: "spinning".to_string(),
                    count: spin_share / 10_000,
                    share_millionths: spin_share,
                },
                MixEntry {
                    name: "greased".to_string(),
                    count: (1_000_000 - spin_share) / 10_000,
                    share_millionths: 1_000_000 - spin_share,
                },
            ],
            anomalies: vec![AnomalyCount {
                kind: "rtt-divergence".to_string(),
                count: 3,
            }],
            spin_rtt_error_p50_millionths: Some(40_000),
            spin_rtt_error_p99_millionths: Some(160_000),
            observer: None,
            profile: None,
            perfetto_trace: Some(format!("cells/{id}/trace.json")),
            flamegraph: None,
            trace_store: Some(format!("cells/{id}/traces.bin")),
            regressed: Vec::new(),
        }
    }

    fn doc(cells: Vec<CellReport>) -> MatrixReportDoc {
        MatrixReportDoc {
            schema_version: REPORT_SCHEMA_VERSION,
            scenario: "test".to_string(),
            description: "a test grid".to_string(),
            axes: vec![AxisEcho {
                axis: "loss".to_string(),
                values: vec!["0".to_string(), "50000".to_string()],
            }],
            baseline: cells.first().map(|c| c.id.clone()).unwrap_or_default(),
            cells,
        }
    }

    #[test]
    fn regressions_reuse_the_compare_bands() {
        // Baseline 300 ms p99; within the ×1.25 band stays ok, past it
        // (and past the absolute floor) regresses; error-rate and mix
        // drifts trip their own gates.
        let mut cells = vec![
            cell("loss0", 300_000, 10_000, 800_000),
            cell("loss10000", 370_000, 15_000, 795_000),
            cell("loss50000", 600_000, 90_000, 700_000),
        ];
        mark_regressions(&mut cells);
        assert!(cells[0].regressed.is_empty());
        assert!(cells[1].regressed.is_empty(), "{:?}", cells[1].regressed);
        assert_eq!(
            cells[2].regressed,
            vec![
                "total_p99_us".to_string(),
                "error_rate".to_string(),
                "mix:spinning".to_string(),
                "mix:greased".to_string(),
            ]
        );
    }

    #[test]
    fn markdown_renders_every_section_and_dashes_for_absent() {
        let mut cells = vec![cell("loss0", 300_000, 10_000, 800_000)];
        cells[0].observer = Some(ObserverDigest {
            vantage_millionths: 250_000,
            flows: 50,
            measurable: 40,
            unmeasurable: 10,
            max_divergence_millionths: 120_000,
        });
        cells.push(cell("loss50000", 310_000, 12_000, 790_000));
        cells[1].profile = Some(ProfileDigest {
            scopes: 12,
            enters: 44_000,
        });
        let md = render_markdown(&doc(cells));
        for section in [
            "# Scenario report: test",
            "## Grid",
            "## Classification mix",
            "## Anomalies",
            "## Observer",
            "## Profile",
            "## Axis: loss",
            "## Provenance",
            "## Artifacts",
        ] {
            assert!(md.contains(section), "missing {section}:\n{md}");
        }
        // Observer row for the tapped cell, dash row for the other.
        assert!(md.contains("25.00%"), "vantage missing:\n{md}");
        assert!(
            md.contains("| `loss50000` | - | - | - | - | - |"),
            "no dash observer row:\n{md}"
        );
        // Profile present only on the second cell.
        assert!(md.contains("| 44000 |"), "profile digest missing:\n{md}");
        assert!(
            md.lines().any(|l| l == "| `loss0` | - | - |"),
            "no dash profile row:\n{md}"
        );
        // Flamegraph link absent → "-" in the artifact table.
        assert!(
            md.contains("[trace.json](cells/loss0/trace.json)"),
            "trace link missing:\n{md}"
        );
        assert!(md.contains("spin err p99"), "grid header missing:\n{md}");
    }

    #[test]
    fn axis_tokens_parse_out_of_cell_ids() {
        assert_eq!(axis_token("loss50000-vantage250000", "loss"), Some("50000"));
        assert_eq!(
            axis_token("loss50000-vantage250000", "vantage"),
            Some("250000")
        );
        assert_eq!(axis_token("loss50000-vantage250000", "seed"), None);
        // `reorder` must not match inside other tokens.
        assert_eq!(axis_token("loss50000", "reorder"), None);
    }

    #[test]
    fn layout_round_trips_through_matrix_json() {
        let dir =
            std::env::temp_dir().join(format!("quicspin-report-layout-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let layout = MatrixLayout {
            schema_version: REPORT_SCHEMA_VERSION,
            scenario: "rt".to_string(),
            description: String::new(),
            axes: vec![AxisEcho {
                axis: "loss".to_string(),
                values: vec!["0".to_string()],
            }],
            cells: vec![CellSlot {
                id: "loss0".to_string(),
                dir: "cells/loss0".to_string(),
            }],
        };
        write_matrix_layout(&dir, &layout).unwrap();
        assert_eq!(read_matrix_layout(&dir).unwrap(), layout);
        let err = read_matrix_layout(&dir.join("nope")).unwrap_err();
        assert!(err.contains("cannot read scenario matrix"), "{err}");
        std::fs::write(dir.join(MATRIX_FILE_NAME), "{").unwrap();
        let err = read_matrix_layout(&dir).unwrap_err();
        assert!(err.contains("corrupt scenario matrix"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }
}
