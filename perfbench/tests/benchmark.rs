//! The benchmark's own checks: the traced runner reproduces `run_mix`, the
//! DRAM replay reproduces recorded latencies, and every emitted metric is
//! well named, declared in `BENCHMARK.json`, and adds up.

use ivl_sim_core::config::SystemConfig;
use ivl_simulator::{run_mix, RunConfig, SchemeKind};
use ivl_workloads::mixes::mix_by_name;
use perfbench::digest::{expected_table, full_rendering};
use perfbench::replay::{capture, replay};
use perfbench::traced::run_traced;
use perfbench::workload::{Point, Workload};
use perfbench::{run_traced_set, run_untraced, Checks, Report};

/// Metric names declared in `BENCHMARK.json` under `section`
/// (`end_to_end` or `per_layer`).
fn declared(section: &str) -> Vec<String> {
    let text = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let body = &text[start..];
    let body = &body[body.find('[').unwrap()..=body.find(']').unwrap()];
    body.split("\"name\"")
        .skip(1)
        .map(|s| s.split('"').nth(1).unwrap().to_string())
        .collect()
}

fn smoke_points() -> Vec<Point> {
    ["S-1", "M-1"]
        .into_iter()
        .flat_map(|m| {
            [SchemeKind::Baseline, SchemeKind::IvPro].map(|scheme| Point {
                mix: mix_by_name(m).unwrap(),
                scheme,
            })
        })
        .collect()
}

fn value(report: &Report, name: &str) -> f64 {
    report
        .metrics
        .iter()
        .find(|m| m.name == name)
        .unwrap_or_else(|| panic!("{name} emitted"))
        .value
}

fn assert_names(report: &Report, section: &str) {
    let names: Vec<&str> = report.metrics.iter().map(|m| m.name.as_str()).collect();
    for n in &names {
        assert!(
            !n.is_empty()
                && n.chars()
                    .all(|c| c.is_ascii_alphanumeric() || c == '_' || c == '.' || c == '-'),
            "bad metric name {n:?}"
        );
    }
    let mut got: Vec<String> = names.iter().map(|s| s.to_string()).collect();
    let mut want = declared(section);
    got.sort();
    want.sort();
    assert_eq!(
        got, want,
        "emitted {section} metrics must match BENCHMARK.json"
    );
}

#[test]
fn traced_runner_equals_run_mix_one_mix_per_class() {
    let run = RunConfig::smoke_test();
    for mix in ["S-1", "M-1", "L-1"] {
        let mix = mix_by_name(mix).unwrap();
        for scheme in SchemeKind::MAIN {
            let plain = run_mix(mix, scheme, &run);
            let (traced, trace) = run_traced(mix, scheme, &run);
            assert_eq!(
                full_rendering(&traced),
                full_rendering(&plain),
                "{} {scheme:?}",
                mix.name
            );
            let spans: f64 = trace.span_s.iter().sum();
            assert!((spans - trace.wall_s).abs() <= 1e-9 * trace.wall_s.max(1.0));
        }
    }
}

#[test]
fn replay_reproduces_recorded_dram_latencies() {
    let run = RunConfig::smoke_test();
    let mix = mix_by_name("S-1").unwrap();
    for scheme in [SchemeKind::Baseline, SchemeKind::IvPro] {
        let cap = capture(mix, scheme, &run);
        assert!(cap.from_reset, "a smoke run fits the capture ring");
        assert_eq!(
            full_rendering(&cap.result),
            full_rendering(&run_mix(mix, scheme, &run))
        );
        let rep = replay(&SystemConfig::default().dram, &cap.requests, true);
        assert!(rep.checked > 1000);
        assert_eq!(rep.mismatches, 0, "{scheme:?}");
        assert!(rep.access_ns > 0.0);
    }
}

#[test]
fn untraced_metrics_are_declared() {
    let checks = Checks {
        workload: "smoke",
        expected: None,
    };
    let report = run_untraced(&smoke_points(), &RunConfig::smoke_test(), &checks, 0.0);
    assert_eq!(report.failed, 0, "{:?}", report.notes);
    assert_eq!(report.attempted, 4, "one pass over four points");
    assert_names(&report, "end_to_end");
    for m in &report.metrics {
        assert!(m.value > 0.0, "{} is never 0", m.name);
    }
}

#[test]
fn traced_metrics_are_declared_and_add_up() {
    let checks = Checks {
        workload: "smoke",
        expected: None,
    };
    let report = run_traced_set(&smoke_points(), &RunConfig::smoke_test(), &checks, 0.0);
    assert_eq!(report.failed, 0, "{:?}", report.notes);
    assert_names(&report, "per_layer");
    let shares: f64 = report
        .metrics
        .iter()
        .filter(|m| m.name.ends_with(".self_share") || m.name == "simulator.other_share")
        .map(|m| m.value)
        .sum();
    assert!((shares - 1.0).abs() < 1e-9, "shares sum to {shares}");
    let seconds: f64 = report
        .metrics
        .iter()
        .filter(|m| m.name.ends_with(".self_s") || m.name == "simulator.other_s")
        .map(|m| m.value)
        .sum();
    let wall = value(&report, "trace.wall_s");
    assert!((seconds - wall).abs() < 1e-9 * wall, "{seconds} vs {wall}");
    assert!(value(&report, "dram.replay_checked") > 0.0);
}

#[test]
fn expected_digests_cover_every_point() {
    let table = expected_table();
    let mut n = 0;
    for w in Workload::ALL {
        for p in w.points() {
            let d = table
                .get(&(w.name().to_string(), p.label()))
                .unwrap_or_else(|| panic!("{} {} has a digest", w.name(), p.label()));
            assert_eq!(d.len(), 16);
            n += 1;
        }
    }
    assert_eq!(n, table.len(), "no stale digests");
}
