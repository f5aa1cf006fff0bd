//! In-process smoke runs at about 2 k domains: the paper-table pipeline,
//! and the traced replay of every workload emitting every per-layer
//! metric of the catalogue.

use quicspin_scanner::parse_scenario;
use quicspin_webpop::Population;
use spinbench::catalog::PER_LAYER;
use spinbench::paper::paper_tables;
use spinbench::replay::{layer_values, replay, ChildFacts, Extras};
use spinbench::trace::{Instruments, Tracer};
use spinbench::workload::{Inputs, Workload, ALL, CHECK_DIVISOR, GRID_CELLS};
use std::collections::BTreeSet;
use std::path::PathBuf;

fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).unwrap();
    }
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Size divisor that brings each workload to about 2 k domains per
/// campaign (the grid keeps its 32 cells, at 400 domains each).
fn small(workload: Workload) -> Inputs {
    let divisor = match workload {
        Workload::Sweep => 100,
        Workload::LossyToplist => 30,
        Workload::MatrixGrid => 10,
        Workload::PaperTables => 20,
    };
    Inputs::new(workload, 7, divisor)
}

#[test]
fn inputs_follow_the_seed() {
    for w in ALL {
        let a = Inputs::new(w, 3, CHECK_DIVISOR);
        let b = Inputs::new(w, 3, CHECK_DIVISOR);
        assert_eq!(
            format!("{:?}", a.population()),
            format!("{:?}", b.population())
        );
        assert_eq!(a.scenario(), b.scenario());
        assert_ne!(
            a.population_seed,
            Inputs::new(w, 4, CHECK_DIVISOR).population_seed
        );
        // The scenario's population is the one the benchmark reasons about.
        if let Some(text) = a.scenario() {
            let matrix = parse_scenario(&text).unwrap();
            assert_eq!(
                format!("{:?}", matrix.population),
                format!("{:?}", a.population())
            );
            let cells = if w == Workload::MatrixGrid {
                GRID_CELLS
            } else {
                1
            };
            assert_eq!(matrix.cells.len() as u64, cells);
        }
    }
}

#[test]
fn paper_tables_render_every_table() {
    let inputs = small(Workload::PaperTables);
    let out = scratch("paper_tables");
    let population = Population::generate(inputs.population());
    assert!((2_000..2_500).contains(&population.len()));
    let text = paper_tables(
        &population,
        2,
        &out,
        &mut Tracer::default(),
        &Instruments::off(),
    )
    .unwrap();
    for needle in [
        "Table 1",
        "Table 4",
        "Web servers",
        "observed all-weeks share",
    ] {
        assert!(text.contains(needle), "missing {needle:?} in\n{text}");
    }
    for sweep in ["v4", "v6"] {
        assert!(out.join(sweep).join("metrics.json").is_file());
        assert!(out.join(sweep).join("timeseries.json").is_file());
    }
}

#[test]
fn traced_replay_emits_every_layer_metric() {
    let catalogue: BTreeSet<&str> = PER_LAYER.iter().map(|m| m.name).collect();
    for w in ALL {
        let inputs = small(w);
        let out = scratch(&format!("replay_{}", w.name()));
        let mut tr = Tracer::default();
        let ins = Instruments::on();
        let mut extras = Extras::default();
        replay(&inputs, 2, &out, &mut tr, &ins, &mut extras).unwrap();
        let child = ChildFacts {
            wall_s: 1.0,
            ..ChildFacts::default()
        };
        let values = layer_values(&tr, &ins, &extras, &child);
        let emitted: BTreeSet<&str> = values.keys().copied().collect();
        assert_eq!(emitted, catalogue, "{}", w.name());
        assert!(values.values().all(|v| v.value.is_finite()), "{}", w.name());
        assert!(values["scanner.campaign_s"].value > 0.0, "{}", w.name());
        assert!(values["quic.packets_per_conn"].value > 0.0, "{}", w.name());
        assert!(values["webpop.generate_s"].value > 0.0, "{}", w.name());

        // Every span but the top-level ones nests inside an earlier span
        // that covers it.
        let spans = tr.spans();
        for s in spans {
            if let Some(p) = s.parent {
                let parent = &spans[p];
                assert!(parent.start_ns <= s.start_ns && s.end_ns <= parent.end_ns);
            }
        }
        let path = out.join("spans.json");
        tr.write_json(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        assert!(text.starts_with('[') && text.contains("\"name\": \"command\""));
    }
}
