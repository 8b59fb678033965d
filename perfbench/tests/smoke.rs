//! Tiny-size runs of every workload, untraced and traced: each must
//! pass its correctness checks and print exactly the metrics the
//! benchmark declares.

use perfbench::run::{Outcome, Params, Size};
use perfbench::{run_workload, END_TO_END, PER_LAYER, WORKLOADS};

fn tiny(seed: u64, traced: bool) -> Params {
    Params {
        seed,
        seconds: 0.0,
        traced,
        size: Size::tiny(),
    }
}

fn names(o: &Outcome) -> Vec<&str> {
    o.metrics.iter().map(|m| m.name.as_str()).collect()
}

#[test]
fn every_workload_runs_checks_and_reports_its_metrics() {
    for workload in WORKLOADS {
        let o = run_workload(workload, &tiny(3, false)).expect("tiny run");
        assert!(o.correct, "{workload}: {:?}", o.lines);
        assert_eq!(o.failed, 0, "{workload}");
        assert!(o.attempted >= 100, "{workload}: p90 needs 100 operations");
        assert_eq!(names(&o), END_TO_END, "{workload}");
        for m in &o.metrics {
            assert!(m.value.is_finite() && m.value > 0.0, "{workload}: {m:?}");
        }
        let line = o.json();
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": "),
            "{line}"
        );

        let t = run_workload(workload, &tiny(3, true)).expect("tiny traced run");
        assert!(t.correct, "{workload} traced: {:?}", t.lines);
        assert_eq!(names(&t), PER_LAYER, "{workload} traced");
        let file = t
            .trace_file
            .as_ref()
            .expect("traced runs write their spans");
        let text = std::fs::read_to_string(file).expect("trace file");
        assert!(
            text.lines().count() > 1,
            "{workload}: spans and the result line"
        );
        let _ = std::fs::remove_file(file);
    }
}

#[test]
fn the_same_seed_gives_the_same_inputs_and_results() {
    let a = run_workload("replay-filter", &tiny(5, false)).expect("tiny run");
    let b = run_workload("replay-filter", &tiny(5, false)).expect("tiny run");
    let err = |o: &Outcome| o.metric("cycle_err_pct").expect("cycle_err_pct");
    assert_eq!(err(&a), err(&b));
    let c = run_workload("replay-filter", &tiny(6, false)).expect("tiny run");
    assert_ne!(err(&a), err(&c), "another seed records other traces");
}

#[test]
fn an_unknown_workload_is_an_error() {
    assert!(run_workload("no-such-workload", &tiny(1, false)).is_err());
}

#[test]
fn declared_metrics_match_the_benchmark_manifest() {
    // The manifest sits at the repository root, beside this package.
    let Ok(manifest) = std::fs::read_to_string("../BENCHMARK.json") else {
        return;
    };
    for name in END_TO_END.iter().chain(PER_LAYER.iter()) {
        assert!(
            manifest.contains(&format!("\"name\": \"{name}\"")),
            "{name} missing from BENCHMARK.json"
        );
    }
    assert_eq!(
        manifest.matches("\"name\": ").count(),
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len(),
        "BENCHMARK.json lists exactly the workloads and metrics the benchmark prints"
    );
}
