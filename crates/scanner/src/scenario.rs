//! Declarative campaign scenarios: a TOML grid description compiled
//! into [`CampaignConfig`] cells.
//!
//! Campaign configuration used to be hand-written Rust; every new
//! cross-condition comparison (the paper's core currency — spin-RTT
//! accuracy as a function of stack mix, loss, reordering, vantage) cost
//! a code change. A *scenario* is instead a small TOML document naming
//! the population, the base campaign knobs, and one or more *sweep
//! axes*; the cartesian product of the axes expands into a matrix of
//! [`ScenarioCell`]s, each carrying a ready-to-run [`CampaignConfig`]
//! and a deterministic, filesystem-safe cell id. `spinctl matrix` runs
//! the expanded grid through the streamed campaign path and folds the
//! per-cell artifacts into one cross-scenario report.
//!
//! The build environment vendors no TOML crate, so this module includes
//! a parser for the small TOML subset scenarios need: `[section]`
//! headers, `key = value` pairs, strings, booleans, integers, floats,
//! flat arrays, and `#` comments. Every parse or validation failure is
//! a single-line `scenario error: ...` string with an exact, tested
//! message — the `spinctl matrix` exit-code contract (usage errors exit
//! 1) rides on these.

use crate::campaign::CampaignConfig;
use crate::flight::FlightConfig;
use quicspin_webpop::PopulationConfig;

/// Fixed declaration order of sweepable axes; cell ids concatenate the
/// swept axes in this order, so the id layout is stable regardless of
/// the order keys appear in the `[sweep]` section.
pub const SWEEP_AXES: &[&str] = &["loss", "reorder", "jitter_frac", "vantage", "seed", "week"];

/// The most cells a scenario may expand to. Every cell is a full
/// campaign; the committed grids have at most 32.
pub const MAX_CELLS: usize = 4096;

/// One expanded grid cell: a deterministic id plus everything needed to
/// run it.
#[derive(Debug, Clone)]
pub struct ScenarioCell {
    /// Deterministic, filesystem-safe cell id, e.g.
    /// `loss50000-vantage250000` (float axes are encoded in millionths).
    pub id: String,
    /// Ready-to-run campaign configuration (flight recorder armed, tap
    /// set when a vantage is configured, `scenario_cell` echoing `id`).
    pub config: CampaignConfig,
    /// Resident record-byte budget for the streamed path (0 = unbounded).
    pub record_budget: usize,
    /// Whether the cell runs with the hierarchical profiler attached.
    pub profile: bool,
}

/// Echo of one sweep axis for reports: the axis name and its values as
/// rendered in cell ids.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScenarioAxis {
    /// Axis name (one of [`SWEEP_AXES`]).
    pub axis: String,
    /// Values in declaration order, rendered as the cell-id tokens.
    pub values: Vec<String>,
}

/// A compiled scenario: population, axes echo, and the expanded cells.
#[derive(Debug, Clone)]
pub struct ScenarioMatrix {
    /// Scenario name (from `[scenario] name`).
    pub name: String,
    /// Free-form description (may be empty).
    pub description: String,
    /// Population the whole grid shares.
    pub population: PopulationConfig,
    /// Sweep axes in [`SWEEP_AXES`] order.
    pub axes: Vec<ScenarioAxis>,
    /// Expanded cells, lexicographic in axis declaration order.
    pub cells: Vec<ScenarioCell>,
}

// ---------------------------------------------------------------------------
// TOML subset parser
// ---------------------------------------------------------------------------

/// One parsed value of the TOML subset.
#[derive(Debug, Clone, PartialEq)]
enum TomlValue {
    String(String),
    Bool(bool),
    Integer(i64),
    Float(f64),
    Array(Vec<TomlValue>),
}

impl TomlValue {
    fn type_name(&self) -> &'static str {
        match self {
            TomlValue::String(_) => "string",
            TomlValue::Bool(_) => "boolean",
            TomlValue::Integer(_) => "integer",
            TomlValue::Float(_) => "float",
            TomlValue::Array(_) => "array",
        }
    }
}

/// `(section, key, value)` triples in file order; keys before any
/// `[section]` header get section `""`.
fn parse_toml(text: &str) -> Result<Vec<(String, String, TomlValue)>, String> {
    let mut section = String::new();
    let mut out = Vec::new();
    for (idx, raw) in text.lines().enumerate() {
        let line_no = idx + 1;
        let line = strip_comment(raw).trim();
        if line.is_empty() {
            continue;
        }
        if let Some(rest) = line.strip_prefix('[') {
            let Some(name) = rest.strip_suffix(']') else {
                return Err(format!(
                    "scenario error: line {line_no}: unterminated section header {line:?}"
                ));
            };
            section = name.trim().to_string();
            continue;
        }
        let Some((key, value)) = line.split_once('=') else {
            return Err(format!(
                "scenario error: line {line_no}: expected `key = value`, got {line:?}"
            ));
        };
        let key = key.trim();
        if key.is_empty() {
            return Err(format!("scenario error: line {line_no}: empty key"));
        }
        let value = parse_value(value.trim(), line_no)?;
        out.push((section.clone(), key.to_string(), value));
    }
    Ok(out)
}

/// Strips a `#` comment, respecting double-quoted strings.
fn strip_comment(line: &str) -> &str {
    let mut in_string = false;
    for (i, c) in line.char_indices() {
        match c {
            '"' => in_string = !in_string,
            '#' if !in_string => return &line[..i],
            _ => {}
        }
    }
    line
}

fn parse_value(raw: &str, line_no: usize) -> Result<TomlValue, String> {
    if raw.is_empty() {
        return Err(format!("scenario error: line {line_no}: missing value"));
    }
    if let Some(rest) = raw.strip_prefix('[') {
        let Some(body) = rest.strip_suffix(']') else {
            return Err(format!(
                "scenario error: line {line_no}: unterminated array {raw:?}"
            ));
        };
        let body = body.trim();
        let mut items = Vec::new();
        if !body.is_empty() {
            for item in body.split(',') {
                let item = item.trim();
                if item.is_empty() {
                    return Err(format!(
                        "scenario error: line {line_no}: empty array element in {raw:?}"
                    ));
                }
                items.push(parse_value(item, line_no)?);
            }
        }
        return Ok(TomlValue::Array(items));
    }
    if let Some(rest) = raw.strip_prefix('"') {
        let Some(body) = rest.strip_suffix('"') else {
            return Err(format!(
                "scenario error: line {line_no}: unterminated string {raw:?}"
            ));
        };
        return Ok(TomlValue::String(body.to_string()));
    }
    match raw {
        "true" => return Ok(TomlValue::Bool(true)),
        "false" => return Ok(TomlValue::Bool(false)),
        _ => {}
    }
    if let Ok(n) = raw.parse::<i64>() {
        return Ok(TomlValue::Integer(n));
    }
    if raw.contains(['.', 'e', 'E']) {
        if let Ok(f) = raw.parse::<f64>() {
            if f.is_finite() {
                return Ok(TomlValue::Float(f));
            }
        }
    }
    Err(format!(
        "scenario error: line {line_no}: cannot parse value {raw:?}"
    ))
}

// ---------------------------------------------------------------------------
// Scenario compilation
// ---------------------------------------------------------------------------

/// One axis value: floats canonicalized to millionths, integers kept.
#[derive(Debug, Clone, Copy, PartialEq)]
enum AxisValue {
    Millionths(u32),
    Integer(u64),
}

impl AxisValue {
    fn token(self) -> String {
        match self {
            AxisValue::Millionths(m) => m.to_string(),
            AxisValue::Integer(n) => n.to_string(),
        }
    }
}

fn expect_u64(section: &str, key: &str, value: &TomlValue) -> Result<u64, String> {
    match value {
        TomlValue::Integer(n) if *n >= 0 => Ok(*n as u64),
        _ => Err(format!(
            "scenario error: key \"{key}\" in [{section}] must be a non-negative integer, \
             got {}",
            value.type_name()
        )),
    }
}

fn expect_u32(section: &str, key: &str, value: &TomlValue) -> Result<u32, String> {
    let n = expect_u64(section, key, value)?;
    u32::try_from(n).map_err(|_| {
        format!(
            "scenario error: key \"{key}\" in [{section}] value {n} exceeds {}",
            u32::MAX
        )
    })
}

fn expect_fraction(
    section: &str,
    key: &str,
    value: &TomlValue,
    max_inclusive: bool,
) -> Result<f64, String> {
    let f = match value {
        TomlValue::Float(f) => *f,
        TomlValue::Integer(n) => *n as f64,
        _ => {
            return Err(format!(
                "scenario error: key \"{key}\" in [{section}] must be a number, got {}",
                value.type_name()
            ))
        }
    };
    let ok = if max_inclusive {
        (0.0..=1.0).contains(&f)
    } else {
        (0.0..1.0).contains(&f)
    };
    if !ok {
        let range = if max_inclusive { "[0, 1]" } else { "[0, 1)" };
        return Err(format!(
            "scenario error: key \"{key}\" in [{section}] value {f} outside {range}"
        ));
    }
    Ok(f)
}

fn expect_bool(section: &str, key: &str, value: &TomlValue) -> Result<bool, String> {
    match value {
        TomlValue::Bool(b) => Ok(*b),
        _ => Err(format!(
            "scenario error: key \"{key}\" in [{section}] must be a boolean, got {}",
            value.type_name()
        )),
    }
}

fn expect_string(section: &str, key: &str, value: &TomlValue) -> Result<String, String> {
    match value {
        TomlValue::String(s) => Ok(s.clone()),
        _ => Err(format!(
            "scenario error: key \"{key}\" in [{section}] must be a string, got {}",
            value.type_name()
        )),
    }
}

/// Whether an axis carries fractions (millionths tokens) or integers,
/// and the fraction range for validation.
fn axis_is_fraction(axis: &str) -> Option<bool> {
    match axis {
        // (axis, max_inclusive): loss/reorder/jitter_frac live in [0, 1),
        // the tap vantage in [0, 1].
        "loss" | "reorder" | "jitter_frac" => Some(false),
        "vantage" => Some(true),
        "seed" | "week" => None,
        _ => unreachable!("unknown axis {axis} slipped past validation"),
    }
}

fn parse_axis_values(axis: &str, value: &TomlValue) -> Result<Vec<AxisValue>, String> {
    let TomlValue::Array(items) = value else {
        return Err(format!(
            "scenario error: sweep axis \"{axis}\" must be an array, got {}",
            value.type_name()
        ));
    };
    if items.is_empty() {
        return Err(format!("scenario error: sweep axis \"{axis}\" is empty"));
    }
    let mut out = Vec::with_capacity(items.len());
    for item in items {
        let parsed = match axis_is_fraction(axis) {
            Some(max_inclusive) => {
                let f = match item {
                    TomlValue::Float(f) => *f,
                    TomlValue::Integer(n) => *n as f64,
                    _ => {
                        return Err(format!(
                            "scenario error: sweep axis \"{axis}\" element must be a number, \
                             got {}",
                            item.type_name()
                        ))
                    }
                };
                let ok = if max_inclusive {
                    (0.0..=1.0).contains(&f)
                } else {
                    (0.0..1.0).contains(&f)
                };
                if !ok {
                    let range = if max_inclusive { "[0, 1]" } else { "[0, 1)" };
                    return Err(format!(
                        "scenario error: sweep axis \"{axis}\" value {f} outside {range}"
                    ));
                }
                AxisValue::Millionths((f * 1_000_000.0).round() as u32)
            }
            None => match item {
                TomlValue::Integer(n) if axis == "week" && *n > i64::from(u32::MAX) => {
                    return Err(format!(
                        "scenario error: sweep axis \"{axis}\" value {n} exceeds {}",
                        u32::MAX
                    ))
                }
                TomlValue::Integer(n) if *n >= 0 => AxisValue::Integer(*n as u64),
                _ => {
                    return Err(format!(
                        "scenario error: sweep axis \"{axis}\" element must be a \
                         non-negative integer, got {}",
                        item.type_name()
                    ))
                }
            },
        };
        out.push(parsed);
    }
    Ok(out)
}

/// Base (un-swept) cell parameters accumulated from `[campaign]` and
/// `[conditions]`.
struct BaseParams {
    week: u32,
    seed: u64,
    threads: usize,
    loss: f64,
    reorder: f64,
    jitter_frac: f64,
    vantage: Option<f64>,
    record_budget: usize,
    retention_budget_bytes: u64,
    sample_every: u64,
    profile: bool,
}

impl Default for BaseParams {
    fn default() -> Self {
        BaseParams {
            week: 0,
            seed: 23,
            threads: 1,
            loss: 0.001,
            reorder: 0.00006,
            jitter_frac: 0.0003,
            vantage: None,
            record_budget: 1 << 20,
            retention_budget_bytes: 2 << 20,
            sample_every: 64,
            profile: false,
        }
    }
}

/// Parses and compiles a scenario document into its expanded matrix.
///
/// Error contract (all single-line, all prefixed `scenario error: `):
/// syntax errors name the line; unknown sections/keys name the
/// offending identifier; malformed or out-of-range sweep axes name the
/// axis and value; a scenario whose `[sweep]` section is missing or
/// defines no axes is an *empty matrix* error; an axis repeating a
/// value is a *duplicate cell id* error; a grid of more than
/// [`MAX_CELLS`] cells is rejected before any cell is built; a count or
/// week above `u32::MAX` names its key.
pub fn parse_scenario(text: &str) -> Result<ScenarioMatrix, String> {
    let pairs = parse_toml(text)?;

    let mut name = String::new();
    let mut description = String::new();
    let mut population = PopulationConfig {
        seed: 11,
        toplist_domains: 40,
        zone_domains: 360,
    };
    let mut base = BaseParams::default();
    let mut sweep: Vec<(String, Vec<AxisValue>)> = Vec::new();
    let mut saw_sweep_section = false;

    for (section, key, value) in &pairs {
        match section.as_str() {
            "scenario" => match key.as_str() {
                "name" => name = expect_string(section, key, value)?,
                "description" => description = expect_string(section, key, value)?,
                _ => {
                    return Err(format!(
                        "scenario error: unknown key \"{key}\" in [scenario]"
                    ))
                }
            },
            "population" => match key.as_str() {
                "seed" => population.seed = expect_u64(section, key, value)?,
                "toplist_domains" => population.toplist_domains = expect_u32(section, key, value)?,
                "zone_domains" => population.zone_domains = expect_u32(section, key, value)?,
                _ => {
                    return Err(format!(
                        "scenario error: unknown key \"{key}\" in [population]"
                    ))
                }
            },
            "campaign" => match key.as_str() {
                "week" => base.week = expect_u32(section, key, value)?,
                "seed" => base.seed = expect_u64(section, key, value)?,
                "threads" => base.threads = expect_u64(section, key, value)?.max(1) as usize,
                "record_budget_bytes" => {
                    base.record_budget = expect_u64(section, key, value)? as usize
                }
                "retention_budget_bytes" => {
                    base.retention_budget_bytes = expect_u64(section, key, value)?
                }
                "sample_every" => base.sample_every = expect_u64(section, key, value)?,
                "profile" => base.profile = expect_bool(section, key, value)?,
                "tap" => base.vantage = Some(expect_fraction(section, key, value, true)?),
                _ => {
                    return Err(format!(
                        "scenario error: unknown key \"{key}\" in [campaign]"
                    ))
                }
            },
            "conditions" => match key.as_str() {
                "loss" => base.loss = expect_fraction(section, key, value, false)?,
                "reorder" => base.reorder = expect_fraction(section, key, value, false)?,
                "jitter_frac" => base.jitter_frac = expect_fraction(section, key, value, false)?,
                _ => {
                    return Err(format!(
                        "scenario error: unknown key \"{key}\" in [conditions]"
                    ))
                }
            },
            "sweep" => {
                saw_sweep_section = true;
                if !SWEEP_AXES.contains(&key.as_str()) {
                    return Err(format!("scenario error: unknown sweep axis \"{key}\""));
                }
                if sweep.iter().any(|(axis, _)| axis == key) {
                    return Err(format!(
                        "scenario error: sweep axis \"{key}\" defined twice"
                    ));
                }
                sweep.push((key.clone(), parse_axis_values(key, value)?));
            }
            "" => {
                return Err(format!(
                    "scenario error: key \"{key}\" outside any [section]"
                ))
            }
            other => return Err(format!("scenario error: unknown section [{other}]")),
        }
    }

    if name.is_empty() {
        return Err("scenario error: missing [scenario] name".to_string());
    }
    if !saw_sweep_section || sweep.is_empty() {
        return Err("scenario error: empty matrix: [sweep] defines no axes".to_string());
    }
    // Cell ids concatenate axes in SWEEP_AXES order, independent of the
    // order the document declared them in.
    sweep.sort_by_key(|(axis, _)| SWEEP_AXES.iter().position(|a| a == axis));

    let axes: Vec<ScenarioAxis> = sweep
        .iter()
        .map(|(axis, values)| ScenarioAxis {
            axis: axis.clone(),
            values: values.iter().map(|v| v.token()).collect(),
        })
        .collect();

    // Cartesian expansion, lexicographic in axis order: the last axis
    // varies fastest.
    let total = sweep
        .iter()
        .try_fold(1usize, |n, (_, v)| n.checked_mul(v.len()))
        .filter(|&n| n <= MAX_CELLS)
        .ok_or_else(|| format!("scenario error: matrix expands to more than {MAX_CELLS} cells"))?;
    let mut cells: Vec<ScenarioCell> = Vec::with_capacity(total);
    let mut indices = vec![0usize; sweep.len()];
    loop {
        let picks: Vec<(&str, AxisValue)> = sweep
            .iter()
            .zip(&indices)
            .map(|((axis, values), &i)| (axis.as_str(), values[i]))
            .collect();
        let id: String = picks
            .iter()
            .map(|(axis, v)| format!("{axis}{}", v.token()))
            .collect::<Vec<_>>()
            .join("-");
        if cells.iter().any(|c| c.id == id) {
            return Err(format!("scenario error: duplicate cell id \"{id}\""));
        }
        cells.push(build_cell(&base, &picks, id));

        // Odometer increment over the axis indices.
        let mut pos = sweep.len();
        loop {
            if pos == 0 {
                break;
            }
            pos -= 1;
            indices[pos] += 1;
            if indices[pos] < sweep[pos].1.len() {
                break;
            }
            indices[pos] = 0;
            if pos == 0 {
                return Ok(ScenarioMatrix {
                    name,
                    description,
                    population,
                    axes,
                    cells,
                });
            }
        }
    }
}

fn build_cell(base: &BaseParams, picks: &[(&str, AxisValue)], id: String) -> ScenarioCell {
    let mut week = base.week;
    let mut seed = base.seed;
    let mut loss = base.loss;
    let mut reorder = base.reorder;
    let mut jitter_frac = base.jitter_frac;
    let mut vantage = base.vantage;
    for &(axis, value) in picks {
        match (axis, value) {
            ("loss", AxisValue::Millionths(m)) => loss = f64::from(m) / 1_000_000.0,
            ("reorder", AxisValue::Millionths(m)) => reorder = f64::from(m) / 1_000_000.0,
            ("jitter_frac", AxisValue::Millionths(m)) => jitter_frac = f64::from(m) / 1_000_000.0,
            ("vantage", AxisValue::Millionths(m)) => vantage = Some(f64::from(m) / 1_000_000.0),
            ("seed", AxisValue::Integer(n)) => seed = n,
            ("week", AxisValue::Integer(n)) => {
                week = u32::try_from(n).expect("week axis values are checked to fit u32")
            }
            _ => unreachable!("axis/value mismatch for {axis}"),
        }
    }
    let mut flight = FlightConfig::armed(seed);
    flight.retention_budget_bytes = base.retention_budget_bytes;
    flight.baseline_sample_every = base.sample_every;
    let mut config = CampaignConfig {
        week,
        threads: base.threads,
        flight,
        tap: vantage,
        scenario_cell: Some(id.clone()),
        ..CampaignConfig::default()
    };
    config.conditions.loss = loss;
    config.conditions.reorder = reorder;
    config.conditions.jitter_frac = jitter_frac;
    ScenarioCell {
        id,
        config,
        record_budget: base.record_budget,
        profile: base.profile,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SCENARIO: &str = r#"
# A loss x vantage grid.
[scenario]
name = "loss-vantage"
description = "loss x vantage grid"

[population]
seed = 11
toplist_domains = 20
zone_domains = 60

[campaign]
week = 0
seed = 23
threads = 2
record_budget_bytes = 65536
retention_budget_bytes = 131072
sample_every = 16
profile = true

[conditions]
loss = 0.001
reorder = 0.0

[sweep]
vantage = [0.25, 0.75]   # declared before loss: ids still order loss first
loss = [0.0, 0.05]
"#;

    #[test]
    fn scenario_expands_to_a_deterministic_grid() {
        let matrix = parse_scenario(SCENARIO).unwrap();
        assert_eq!(matrix.name, "loss-vantage");
        assert_eq!(matrix.description, "loss x vantage grid");
        assert_eq!(matrix.population.seed, 11);
        assert_eq!(matrix.population.toplist_domains, 20);
        assert_eq!(matrix.population.zone_domains, 60);
        assert_eq!(matrix.axes.len(), 2);
        assert_eq!(matrix.axes[0].axis, "loss");
        assert_eq!(matrix.axes[0].values, vec!["0", "50000"]);
        assert_eq!(matrix.axes[1].axis, "vantage");
        assert_eq!(matrix.axes[1].values, vec!["250000", "750000"]);
        let ids: Vec<&str> = matrix.cells.iter().map(|c| c.id.as_str()).collect();
        assert_eq!(
            ids,
            vec![
                "loss0-vantage250000",
                "loss0-vantage750000",
                "loss50000-vantage250000",
                "loss50000-vantage750000",
            ]
        );
        let cell = &matrix.cells[2];
        assert!((cell.config.conditions.loss - 0.05).abs() < 1e-12);
        assert_eq!(cell.config.tap, Some(0.25));
        assert_eq!(cell.config.week, 0);
        assert_eq!(cell.config.threads, 2);
        assert_eq!(cell.config.flight.seed, 23);
        assert!(cell.config.flight.enabled);
        assert_eq!(cell.config.flight.retention_budget_bytes, 131072);
        assert_eq!(cell.config.flight.baseline_sample_every, 16);
        assert_eq!(cell.config.scenario_cell.as_deref(), Some(cell.id.as_str()));
        assert_eq!(cell.record_budget, 65536);
        assert!(cell.profile);
        // Un-swept conditions inherit the base.
        assert!((cell.config.conditions.reorder - 0.0).abs() < 1e-12);
        assert!((cell.config.conditions.jitter_frac - 0.0003).abs() < 1e-12);
    }

    #[test]
    fn repeated_parse_is_identical() {
        let a = parse_scenario(SCENARIO).unwrap();
        let b = parse_scenario(SCENARIO).unwrap();
        let ids = |m: &ScenarioMatrix| m.cells.iter().map(|c| c.id.clone()).collect::<Vec<_>>();
        assert_eq!(ids(&a), ids(&b));
    }

    #[test]
    fn unknown_key_is_an_exact_error() {
        let text = SCENARIO.replace("sample_every = 16", "frobnicate = 16");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: unknown key \"frobnicate\" in [campaign]"
        );
        let text = SCENARIO.replace("[conditions]\nloss = 0.001", "[conditions]\nloses = 0.001");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: unknown key \"loses\" in [conditions]"
        );
        let text = format!("{SCENARIO}\n[bogus]\nx = 1\n");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: unknown section [bogus]"
        );
    }

    #[test]
    fn bad_sweep_range_is_an_exact_error() {
        let text = SCENARIO.replace("loss = [0.0, 0.05]", "loss = [0.0, 1.5]");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: sweep axis \"loss\" value 1.5 outside [0, 1)"
        );
        let text = SCENARIO.replace("vantage = [0.25, 0.75]", "vantage = [0.25, 1.25]");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: sweep axis \"vantage\" value 1.25 outside [0, 1]"
        );
        let text = SCENARIO.replace("loss = [0.0, 0.05]", "loss = [\"lots\"]");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: sweep axis \"loss\" element must be a number, got string"
        );
        let text = SCENARIO.replace("loss = [0.0, 0.05]", "loss = 0.05");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: sweep axis \"loss\" must be an array, got float"
        );
        let text = SCENARIO.replace("loss = [0.0, 0.05]", "loss = []");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: sweep axis \"loss\" is empty"
        );
        let text = SCENARIO.replace("loss = [0.0, 0.05]", "speed = [0.0, 0.05]");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: unknown sweep axis \"speed\""
        );
    }

    #[test]
    fn empty_matrix_is_an_exact_error() {
        let text = SCENARIO
            .replace(
                "vantage = [0.25, 0.75]   # declared before loss: ids still order loss first",
                "",
            )
            .replace("loss = [0.0, 0.05]", "");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: empty matrix: [sweep] defines no axes"
        );
        let no_sweep: String = SCENARIO
            .lines()
            .take_while(|l| l.trim() != "[sweep]")
            .collect::<Vec<_>>()
            .join("\n");
        assert_eq!(
            parse_scenario(&no_sweep).unwrap_err(),
            "scenario error: empty matrix: [sweep] defines no axes"
        );
    }

    #[test]
    fn duplicate_cell_ids_are_an_exact_error() {
        let text = SCENARIO.replace("loss = [0.0, 0.05]", "loss = [0.05, 0.05]");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: duplicate cell id \"loss50000-vantage250000\""
        );
        let text = format!("{SCENARIO}loss = [0.1]\n");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: sweep axis \"loss\" defined twice"
        );
    }

    #[test]
    fn syntax_errors_name_the_line() {
        let err = parse_scenario("[scenario\nname = \"x\"\n").unwrap_err();
        assert_eq!(
            err,
            "scenario error: line 1: unterminated section header \"[scenario\""
        );
        let err = parse_scenario("[scenario]\nname\n").unwrap_err();
        assert_eq!(
            err,
            "scenario error: line 2: expected `key = value`, got \"name\""
        );
        let err = parse_scenario("[scenario]\nname = \n").unwrap_err();
        assert_eq!(err, "scenario error: line 2: missing value");
        let err = parse_scenario("[scenario]\nname = what\n").unwrap_err();
        assert_eq!(err, "scenario error: line 2: cannot parse value \"what\"");
        let err = parse_scenario("name = \"x\"\n").unwrap_err();
        assert_eq!(err, "scenario error: key \"name\" outside any [section]");
    }

    #[test]
    fn missing_name_and_typed_keys_are_errors() {
        let text = SCENARIO.replace("name = \"loss-vantage\"", "");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: missing [scenario] name"
        );
        let text = SCENARIO.replace("seed = 23", "seed = \"twenty\"");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: key \"seed\" in [campaign] must be a non-negative integer, \
             got string"
        );
        let text = SCENARIO.replace("profile = true", "profile = 1");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: key \"profile\" in [campaign] must be a boolean, got integer"
        );
        let text = SCENARIO.replace("loss = 0.001", "loss = 2.5");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: key \"loss\" in [conditions] value 2.5 outside [0, 1)"
        );
    }

    #[test]
    fn comments_and_strings_coexist() {
        let (section, key, value) = &parse_toml("[s]\nk = \"a # b\" # trailing\n").unwrap()[0];
        assert_eq!(section, "s");
        assert_eq!(key, "k");
        assert_eq!(value, &TomlValue::String("a # b".to_string()));
    }

    #[test]
    fn integer_axes_sweep_seed_and_week() {
        let text = SCENARIO.replace(
            "loss = [0.0, 0.05]",
            "loss = [0.0, 0.05]\nseed = [23, 29]\nweek = [0, 3]",
        );
        let matrix = parse_scenario(&text).unwrap();
        assert_eq!(matrix.cells.len(), 16);
        assert!(matrix
            .cells
            .iter()
            .any(|c| c.id == "loss50000-vantage750000-seed29-week3"));
        let cell = matrix
            .cells
            .iter()
            .find(|c| c.id == "loss0-vantage250000-seed29-week3")
            .unwrap();
        assert_eq!(cell.config.flight.seed, 29);
        assert_eq!(cell.config.week, 3);
    }

    #[test]
    fn values_above_u32_are_rejected_not_truncated() {
        // 2^32 + 1 used to wrap to a one-domain population.
        let text = SCENARIO.replace("zone_domains = 60", "zone_domains = 4294967297");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: key \"zone_domains\" in [population] value 4294967297 \
             exceeds 4294967295"
        );
        let text = SCENARIO.replace("toplist_domains = 20", "toplist_domains = 4294967296");
        assert!(parse_scenario(&text)
            .unwrap_err()
            .contains("\"toplist_domains\" in [population]"));
        let text = SCENARIO.replace("week = 0", "week = 4294967296");
        assert!(parse_scenario(&text)
            .unwrap_err()
            .contains("\"week\" in [campaign]"));
        let text = SCENARIO.replace("loss = [0.0, 0.05]", "week = [0, 4294967296]");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: sweep axis \"week\" value 4294967296 exceeds 4294967295"
        );
        let text = SCENARIO.replace("zone_domains = 60", "zone_domains = 4294967295");
        assert_eq!(
            parse_scenario(&text).unwrap().population.zone_domains,
            u32::MAX
        );
    }

    #[test]
    fn oversized_matrix_is_an_error_before_allocating() {
        // Six axes of 300 values: 300^6 cells, whose allocation used to
        // abort the process.
        let values = |scale: f64| {
            (0..300)
                .map(|i| format!("{}", f64::from(i) * scale))
                .collect::<Vec<_>>()
                .join(", ")
        };
        let ints = (0..300)
            .map(|i| i.to_string())
            .collect::<Vec<_>>()
            .join(", ");
        let sweep = format!(
            "[sweep]\nloss = [{}]\nreorder = [{}]\njitter_frac = [{}]\nvantage = [{}]\n\
             seed = [{ints}]\nweek = [{ints}]\n",
            values(0.003),
            values(0.003),
            values(0.003),
            values(1.0 / 300.0),
        );
        let head = &SCENARIO[..SCENARIO.find("[sweep]").unwrap()];
        let text = format!("{head}{sweep}");
        assert_eq!(
            parse_scenario(&text).unwrap_err(),
            "scenario error: matrix expands to more than 4096 cells"
        );
        // The limit itself still parses.
        let text = format!("{head}[sweep]\nseed = [{}]\n", {
            (0..MAX_CELLS)
                .map(|i| i.to_string())
                .collect::<Vec<_>>()
                .join(", ")
        });
        assert_eq!(parse_scenario(&text).unwrap().cells.len(), MAX_CELLS);
    }
}
