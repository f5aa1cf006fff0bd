//! Each fact is counted once: a profiler scope off the lap chain has no
//! count of its own, its `profile.json` enters are the sum of the
//! counters it names ([`ScopeId::counts`]). This runs a profiled
//! `spinctl run` at one and at four worker threads and checks every such
//! scope against the same run's `metrics.json`.

use quicspin_scanner::{read_profile, read_run_manifest};
use quicspin_telemetry::ScopeId;

#[test]
fn viewed_scope_enters_equal_their_metrics_counters() {
    for threads in ["1", "4"] {
        let dir = std::env::temp_dir().join(format!(
            "spinctl-scope-views-{}-t{threads}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let args: Vec<String> = [
            "run",
            "--dir",
            dir.to_str().expect("utf-8 temp dir"),
            "--domains",
            "400",
            "--seed",
            "7",
            "--loss",
            "0.05",
            "--profile",
            "--threads",
            threads,
        ]
        .iter()
        .map(|a| a.to_string())
        .collect();
        let mut out = Vec::new();
        assert_eq!(quicspin_spinctl::run(&args, &mut out).expect("run"), 0);

        let profile = read_profile(&dir).expect("profile.json");
        let manifest = read_run_manifest(&dir).expect("metrics.json");
        let mut views = 0;
        for &scope in ScopeId::ALL.iter().filter(|s| !s.counts().is_empty()) {
            let enters = profile
                .row(scope.path())
                .unwrap_or_else(|| panic!("{} missing from profile.json", scope.path()))
                .enters;
            let counted: u64 = scope
                .counts()
                .iter()
                .map(|m| manifest.counter(m.name()))
                .sum();
            assert_eq!(enters, counted, "{} at --threads {threads}", scope.path());
            assert!(enters > 0, "{} counted nothing", scope.path());
            views += 1;
        }
        assert_eq!(views, 10);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
