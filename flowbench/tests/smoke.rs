//! Reduced-size runs of every workload: each must pass its correctness
//! gate and report every metric of its mode with its unit.

use asyncmap_flowbench::workload::{run, Scale, Workload, END_TO_END, PER_LAYER, WORKLOADS};

fn smoke(w: Workload, trace: bool) {
    let report = run(w, 7, 1, trace, &Scale::SMOKE, &[]);
    assert!(report.correct, "{}: {:?}", w.name(), report.notes);
    assert_eq!(report.failed, 0);
    assert!(
        report.attempted >= 20,
        "{}: {} jobs",
        w.name(),
        report.attempted
    );

    let table: &[(&str, &str)] = if trace { &PER_LAYER } else { &END_TO_END };
    let names: Vec<&str> = report.metrics.iter().map(|&(n, _)| n).collect();
    let expected: Vec<&str> = table.iter().map(|&(n, _)| n).collect();
    assert_eq!(names, expected);
    let json = report.to_json();
    assert!(json.starts_with(&format!(
        "{{\"correct\": true, \"attempted\": {}, \"failed\": 0, \"metrics\": {{",
        report.attempted
    )));
    for (&(name, value), &(_, unit)) in report.metrics.iter().zip(table) {
        assert!(value.is_finite(), "{name} = {value}");
        let entry = format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}");
        assert!(json.contains(&entry), "{entry} missing from {json}");
    }
    if trace {
        let coverage = report.metric("trace.span_coverage").expect("coverage");
        assert!(coverage >= 0.95, "{}: span coverage {coverage}", w.name());
        assert!(!report.spans.is_empty());
    } else {
        for name in [
            "setup_s",
            "job_p50_s",
            "job_tail_s",
            "jobs_per_s",
            "area",
            "delay",
        ] {
            assert!(report.metric(name).expect(name) > 0.0, "{name}");
        }
        assert_eq!(report.metric("pass_share"), Some(1.0));
    }
}

#[test]
fn ctrl_suite_smoke() {
    smoke(Workload::CtrlSuite, false);
    smoke(Workload::CtrlSuite, true);
}

#[test]
fn gen_flow_smoke() {
    smoke(Workload::GenFlow, false);
    smoke(Workload::GenFlow, true);
}

#[test]
fn eco_loop_smoke() {
    smoke(Workload::EcoLoop, false);
    smoke(Workload::EcoLoop, true);
}

#[test]
fn quality_metrics_repeat_exactly() {
    let a = run(Workload::GenFlow, 3, 1, false, &Scale::SMOKE, &[]);
    let b = run(Workload::GenFlow, 3, 1, false, &Scale::SMOKE, &[]);
    for name in ["area", "delay", "undecided_share", "pass_share"] {
        assert_eq!(a.metric(name), b.metric(name), "{name}");
    }
}

/// `BENCHMARK.json` declares exactly the workloads and metrics the
/// benchmark prints, with the same units.
#[test]
fn benchmark_json_matches_the_metric_tables() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json next to the package");
    for w in WORKLOADS {
        assert!(
            text.contains(&format!("\"name\": \"{}\"", w.name())),
            "{}",
            w.name()
        );
    }
    for (name, unit) in END_TO_END.iter().chain(&PER_LAYER) {
        let entry = format!("\"name\": \"{name}\", \"unit\": \"{unit}\"");
        assert!(text.contains(&entry), "{entry}");
    }
    let declared = text.matches("\"name\":").count();
    assert_eq!(
        declared,
        WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len()
    );
}
