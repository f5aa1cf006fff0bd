//! The benchmark's workloads and the inputs it generates for them.
//!
//! Every input derives from the benchmark seed: population seeds, flight
//! seeds and scenario TOML. The program under test sees only the
//! generated inputs (command-line values and a scenario file).

use quicspin_webpop::{IpVersion, Population, PopulationConfig};
use std::path::Path;

/// Domains of the `sweep` population.
pub const SWEEP_DOMAINS: u32 = 200_000;
/// Toplist domains of the `lossy_toplist` population.
pub const LOSSY_DOMAINS: u32 = 60_000;
/// Toplist and zone domains of each `matrix_grid` cell.
pub const GRID_TOPLIST: u32 = 500;
/// See [`GRID_TOPLIST`].
pub const GRID_ZONE: u32 = 3_500;
/// `paper_tables` population: 1:N of the paper's domain counts.
pub const PAPER_SCALE: u32 = 5_000;
/// Campaigns `paper_tables` runs over its population: the IPv4 and IPv6
/// sweeps plus the twelve longitudinal weeks.
pub const PAPER_SWEEPS: u64 = 14;
/// Size divisor of the untimed threads-1-versus-2 determinism check.
pub const CHECK_DIVISOR: u32 = 20;

/// One benchmark workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// `spinctl run`: the streamed, tapped, flight-recorded operator sweep.
    Sweep,
    /// `spinctl matrix`, one lossy cell over a QUIC-dense toplist.
    LossyToplist,
    /// `spinctl matrix` over a grid of many short campaigns.
    MatrixGrid,
    /// The materializing engine plus the analysis behind the paper tables.
    PaperTables,
}

/// Every workload, in report order.
pub const ALL: [Workload; 4] = [
    Workload::Sweep,
    Workload::LossyToplist,
    Workload::MatrixGrid,
    Workload::PaperTables,
];

impl Workload {
    /// Workload name as given to `--workload`.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sweep => "sweep",
            Workload::LossyToplist => "lossy_toplist",
            Workload::MatrixGrid => "matrix_grid",
            Workload::PaperTables => "paper_tables",
        }
    }

    /// Why the workload is in the benchmark.
    pub fn why(self) -> &'static str {
        match self {
            Workload::Sweep => {
                "spinctl run over 200k domains, 87% failing fast: the streamed engine, its sinks and artifact export weigh most"
            }
            Workload::LossyToplist => {
                "one lossy, reordering matrix cell over 60k QUIC-dense toplist domains: the lab, loss recovery and observer heuristics weigh most"
            }
            Workload::MatrixGrid => {
                "32 short matrix cells of 4k domains: per-cell fixed costs, many small artifact writes and report generation weigh most"
            }
            Workload::PaperTables => {
                "paper tables and the 12-week study at 1:5000 on the materializing engine: no tap or flight recorder; the analysis runs"
            }
        }
    }

    /// Looks a workload up by name.
    pub fn parse(name: &str) -> Option<Workload> {
        ALL.into_iter().find(|w| w.name() == name)
    }

    fn salt(self) -> u64 {
        match self {
            Workload::Sweep => 1,
            Workload::LossyToplist => 2,
            Workload::MatrixGrid => 3,
            Workload::PaperTables => 4,
        }
    }
}

/// SplitMix64: spreads one benchmark seed into independent input seeds.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Population seeds drawn per benchmark seed; the inputs use the one whose
/// population sends the median number of domains to the lab.
pub const CANDIDATE_POPULATIONS: u64 = 9;

/// Domains of `population` whose week-0 IPv4 probe reaches the lab:
/// resolved, QUIC-capable and reachable, as the scanner decides it.
fn lab_bound(population: &Population) -> u64 {
    (0..population.len() as u32)
        .filter(|&id| {
            population.domain(id).resolved_v4
                && population
                    .plan_connection(id, 0, IpVersion::V4, 0)
                    .is_some()
                && population.is_reachable(id, 0)
        })
        .count() as u64
}

/// The generated inputs of one workload at one seed and size.
#[derive(Debug, Clone, Copy)]
pub struct Inputs {
    /// The workload.
    pub workload: Workload,
    /// Size divisor: 1 for timed runs, [`CHECK_DIVISOR`] for the
    /// determinism check.
    pub divisor: u32,
    /// Population seed (below 2^63: scenario TOML integers are i64).
    pub population_seed: u64,
}

impl Inputs {
    /// Inputs of `workload` at benchmark seed `seed`, divided in size by
    /// `divisor`.
    ///
    /// Domains sit in hosting clusters that are QUIC-capable, reachable and
    /// costly together, so the lab work of a population of a few ten
    /// thousand domains varies by several percent from seed to seed. The
    /// inputs therefore draw [`CANDIDATE_POPULATIONS`] population seeds
    /// from `seed` and keep the one whose population sends the median
    /// number of domains to the lab: a typical population of that size,
    /// still a different one for every seed.
    pub fn new(workload: Workload, seed: u64, divisor: u32) -> Inputs {
        let mut candidates: Vec<(u64, u64)> = (0..CANDIDATE_POPULATIONS)
            .map(|i| {
                let inputs = Inputs {
                    workload,
                    divisor: divisor.max(1),
                    population_seed: mix(seed ^ mix(workload.salt() << 8 | i)) >> 1,
                };
                let population = Population::generate(inputs.population());
                (lab_bound(&population), inputs.population_seed)
            })
            .collect();
        candidates.sort_unstable();
        Inputs {
            workload,
            divisor: divisor.max(1),
            population_seed: candidates[candidates.len() / 2].1,
        }
    }

    /// Flight-recorder seed of matrix campaigns.
    fn campaign_seed(&self) -> u64 {
        mix(self.population_seed) >> 1
    }

    /// The population the program generates from these inputs. For
    /// `sweep` this mirrors how `spinctl run` splits `--domains`; for the
    /// matrix workloads it is the scenario's `[population]`.
    pub fn population(&self) -> PopulationConfig {
        let seed = self.population_seed;
        let d = self.divisor;
        match self.workload {
            Workload::Sweep => {
                let n = SWEEP_DOMAINS / d;
                PopulationConfig {
                    seed,
                    toplist_domains: n / 8 + 1,
                    zone_domains: n - n / 8 - 1,
                }
            }
            Workload::LossyToplist => PopulationConfig {
                seed,
                toplist_domains: LOSSY_DOMAINS / d,
                zone_domains: 0,
            },
            Workload::MatrixGrid => PopulationConfig {
                seed,
                toplist_domains: GRID_TOPLIST / d,
                zone_domains: GRID_ZONE / d,
            },
            Workload::PaperTables => PopulationConfig {
                seed,
                ..PopulationConfig::paper_scale(PAPER_SCALE * d)
            },
        }
    }

    /// Domains in the population.
    pub fn population_len(&self) -> u64 {
        let p = self.population();
        u64::from(p.toplist_domains) + u64::from(p.zone_domains)
    }

    /// Domains swept by one run of the main command (each campaign
    /// counts its whole population).
    pub fn domains_swept(&self) -> u64 {
        let campaigns = match self.workload {
            Workload::Sweep | Workload::LossyToplist => 1,
            Workload::MatrixGrid => GRID_CELLS,
            Workload::PaperTables => PAPER_SWEEPS,
        };
        self.population_len() * campaigns
    }

    /// Run manifests (`metrics.json`) one run of the main command writes.
    pub fn manifests(&self) -> u64 {
        match self.workload {
            Workload::Sweep | Workload::LossyToplist => 1,
            Workload::MatrixGrid => GRID_CELLS,
            Workload::PaperTables => 2,
        }
    }

    /// The scenario document of the matrix workloads.
    pub fn scenario(&self) -> Option<String> {
        let pop = self.population();
        let seed = self.campaign_seed();
        match self.workload {
            Workload::LossyToplist => Some(format!(
                "[scenario]\n\
                 name = \"lossy-toplist\"\n\
                 description = \"One lossy, reordering, jittery cell over a QUIC-dense toplist.\"\n\
                 [population]\n\
                 seed = {}\n\
                 toplist_domains = {}\n\
                 zone_domains = {}\n\
                 [campaign]\n\
                 tap = 0.5\n\
                 [conditions]\n\
                 loss = 0.05\n\
                 reorder = 0.01\n\
                 jitter_frac = 0.05\n\
                 [sweep]\n\
                 seed = [{seed}]\n",
                pop.seed, pop.toplist_domains, pop.zone_domains,
            )),
            Workload::MatrixGrid => Some(format!(
                "[scenario]\n\
                 name = \"grid\"\n\
                 description = \"Loss x reorder x jitter x vantage grid of short campaigns.\"\n\
                 [population]\n\
                 seed = {}\n\
                 toplist_domains = {}\n\
                 zone_domains = {}\n\
                 [campaign]\n\
                 seed = {seed}\n\
                 profile = false\n\
                 [sweep]\n\
                 loss = [0.0, 0.01, 0.03, 0.05]\n\
                 reorder = [0.0, 0.01]\n\
                 jitter_frac = [0.0, 0.05]\n\
                 vantage = [0.25, 0.75]\n",
                pop.seed, pop.toplist_domains, pop.zone_domains,
            )),
            Workload::Sweep | Workload::PaperTables => None,
        }
    }

    /// The main command: program and arguments. `out` is the directory the
    /// command writes into and `work` holds generated input files.
    pub fn main_command(
        &self,
        bins: &Bins,
        out: &Path,
        work: &Path,
        threads: usize,
    ) -> (std::path::PathBuf, Vec<String>) {
        let out = out.display().to_string();
        let threads = threads.to_string();
        let (program, args) = match self.workload {
            Workload::Sweep => (
                &bins.spinctl,
                [
                    "run".into(),
                    "--dir".into(),
                    out,
                    "--domains".into(),
                    (SWEEP_DOMAINS / self.divisor).to_string(),
                    "--seed".into(),
                    self.population_seed.to_string(),
                    "--threads".into(),
                    threads,
                ]
                .to_vec(),
            ),
            Workload::LossyToplist | Workload::MatrixGrid => (
                &bins.spinctl,
                [
                    "matrix".into(),
                    work.join(SCENARIO_FILE).display().to_string(),
                    "--out".into(),
                    out,
                    "--threads".into(),
                    threads,
                ]
                .to_vec(),
            ),
            Workload::PaperTables => (
                &bins.spinbench,
                [
                    "exec".into(),
                    "paper_tables".into(),
                    "--population-seed".into(),
                    self.population_seed.to_string(),
                    "--scale".into(),
                    (PAPER_SCALE * self.divisor).to_string(),
                    "--threads".into(),
                    threads,
                    "--out".into(),
                    out,
                ]
                .to_vec(),
            ),
        };
        (program.clone(), args)
    }

    /// The read-back commands a user runs on the main command's output.
    pub fn readback_commands(&self, out: &Path) -> Result<Vec<Vec<String>>, String> {
        let dir = |p: &Path| p.display().to_string();
        let inspect = |d: &Path| {
            vec![
                vec!["summary".into(), "--dir".into(), dir(d)],
                vec![
                    "observe".into(),
                    "--dir".into(),
                    dir(d),
                    "--limit".into(),
                    "20".into(),
                ],
                vec![
                    "anomalies".into(),
                    "--dir".into(),
                    dir(d),
                    "--limit".into(),
                    "20".into(),
                ],
            ]
        };
        Ok(match self.workload {
            Workload::Sweep => inspect(out),
            Workload::LossyToplist => inspect(&first_cell(out)?),
            Workload::MatrixGrid => vec![
                vec!["report".into(), "--dir".into(), dir(out)],
                vec!["summary".into(), "--dir".into(), dir(&first_cell(out)?)],
            ],
            Workload::PaperTables => vec![vec![
                "trend".into(),
                dir(&out.join("v4")),
                dir(&out.join("v6")),
            ]],
        })
    }

    /// Whether the main command's standard output is deterministic and
    /// belongs to the compared output (the rendered paper tables).
    pub fn stdout_is_output(&self) -> bool {
        self.workload == Workload::PaperTables
    }
}

/// Cells of the `matrix_grid` scenario (4 × 2 × 2 × 2 sweep values).
pub const GRID_CELLS: u64 = 32;

/// File name of the generated scenario inside the work directory.
pub const SCENARIO_FILE: &str = "scenario.toml";

/// The executables the benchmark runs.
#[derive(Debug, Clone)]
pub struct Bins {
    /// `spinctl`, built next to the benchmark.
    pub spinctl: std::path::PathBuf,
    /// The benchmark itself (runs `exec` children).
    pub spinbench: std::path::PathBuf,
}

/// The first cell directory of a matrix output, by name.
fn first_cell(out: &Path) -> Result<std::path::PathBuf, String> {
    let cells = out.join("cells");
    let mut names: Vec<_> = std::fs::read_dir(&cells)
        .map_err(|e| format!("cannot list {}: {e}", cells.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    names.sort();
    names
        .into_iter()
        .next()
        .ok_or_else(|| format!("{} holds no cell", cells.display()))
}
