//! Timeline telemetry report and self-validating smoke gate.
//!
//! Runs one mix under one scheme with the windowed timeline recorder live
//! and:
//!
//! * renders an ASCII sparkline table of every recorded series (with
//!   p50/p95/p99 for histogram series),
//! * **reconciles** each window-summed series against the end-of-run
//!   registry deltas (the timeline clears at the warmup→measurement flip,
//!   so the sums must match exactly), and
//! * round-trips the timeline through its JSONL encoding at the
//!   `IVL_TIMELINE` path (default `ivl_timeline.jsonl`).
//!
//! Exits nonzero if any check fails — CI uses it as the timeline smoke
//! test, the same self-validation pattern as `obs_run`.
//!
//! Usage: `timeline_report [MIX] [SCHEME] [--quick]`.

use std::path::PathBuf;
use std::process::ExitCode;

use ivl_sim_core::config::SystemConfig;
use ivl_sim_core::obs::timeline::{sparkline, write_timeline_jsonl, Cell, HistCell};
use ivl_sim_core::obs::{ObsConfig, StatsRegistry, TimelineData};
use ivl_simulator::{run_mix_observed, RunConfig, SchemeKind};
use ivl_workloads::mixes::mix_by_name;

fn env_path(var: &str, default: &str) -> PathBuf {
    match std::env::var(var) {
        Ok(v) if !v.trim().is_empty() && v != "1" && !v.eq_ignore_ascii_case("true") => {
            PathBuf::from(v.trim())
        }
        _ => PathBuf::from(default),
    }
}

/// Sums every `(series, registry expectation)` pair that must reconcile:
/// the timeline's per-window sums over the measurement window against the
/// registry's epoch deltas. `None` expectations mean the registry skipped
/// the counter (it stayed zero), so the series must be absent too.
fn reconcile(tl: &TimelineData, reg: &StatsRegistry, check: &mut impl FnMut(bool, String)) {
    let hot = match (
        reg.counter("scheme.hot_migrations"),
        reg.counter("scheme.hot_demotions"),
    ) {
        (None, None) => None,
        (a, b) => Some(a.unwrap_or(0) + b.unwrap_or(0)),
    };
    let pairs: [(&str, Option<u64>); 10] = [
        ("dram.reads", reg.counter("dram.reads")),
        ("dram.writes", reg.counter("dram.writes")),
        (
            "dram.idle_skipped_cycles",
            reg.counter("dram.idle_skipped_cycles"),
        ),
        ("llc.misses", reg.ratio("llc.data").map(|hm| hm.misses())),
        ("llc.evictions", reg.counter("llc.evictions")),
        (
            "scheme.walk_legs",
            reg.counter("scheme.path_len_sum").filter(|&v| v > 0),
        ),
        (
            "scheme.nflb_misses",
            reg.ratio("scheme.nflb")
                .map(|hm| hm.misses())
                .filter(|&v| v > 0),
        ),
        ("scheme.nfl_claims", reg.counter("scheme.nfl_claims")),
        ("scheme.nfl_recycles", reg.counter("scheme.nfl_recycles")),
        ("scheme.hot_churn", hot),
    ];
    for (series, expect) in pairs {
        let got = tl.counter_sum(series);
        match expect {
            // A zero registry value may mean no emissions at all, in which
            // case the series legitimately never materialized.
            Some(v) => check(
                got.unwrap_or(0) == v,
                format!("{series} window sum {got:?} != registry {v}"),
            ),
            None => check(
                got.is_none(),
                format!("{series} recorded {got:?} but the registry has no counterpart"),
            ),
        }
    }
    check(
        tl.dropped() == 0,
        format!(
            "timeline dropped {} window(s) — raise IVL_TIMELINE_CAP",
            tl.dropped()
        ),
    );
}

/// One sparkline row per series: per-window magnitudes scaled to the
/// series max (counter value, gauge level, or histogram sample count).
fn render_table(tl: &TimelineData) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "{:<26} {:>10} {:>8}  profile (window = {} cycles)\n",
        "series", "total", "windows", tl.window
    ));
    for (name, s) in &tl.series {
        let values: Vec<f64> = s
            .windows
            .iter()
            .map(|(_, c)| match c {
                Cell::Counter(v) => *v as f64,
                Cell::Gauge(g) => *g,
                Cell::Hist(h) => h.count as f64,
            })
            .collect();
        let total = match s.windows.front().map(|(_, c)| c) {
            Some(Cell::Counter(_)) => format!("{}", s.counter_sum()),
            Some(Cell::Hist(_)) => format!("{}", s.hist_count()),
            _ => format!("{:.1}", values.iter().cloned().fold(0.0f64, f64::max)),
        };
        out.push_str(&format!(
            "{name:<26} {total:>10} {:>8}  {}\n",
            s.windows.len(),
            sparkline(&values)
        ));
        if let Some(Cell::Hist(_)) = s.windows.front().map(|(_, c)| c) {
            let mut merged = HistCell::empty();
            for (_, c) in &s.windows {
                if let Cell::Hist(h) = c {
                    merged.merge(h);
                }
            }
            out.push_str(&format!(
                "{:<26} {:>10} {:>8}  p50={} p95={} p99={} max={}\n",
                "",
                "",
                "",
                merged.percentile(0.50),
                merged.percentile(0.95),
                merged.percentile(0.99),
                merged.max
            ));
        }
    }
    out
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args()
        .skip(1)
        .filter(|a| a != "--quick")
        .collect();
    let mix_name = args.first().map(String::as_str).unwrap_or("S-1");
    let scheme_name = args.get(1).map(String::as_str).unwrap_or("IvPro");
    let Some(mix) = mix_by_name(mix_name) else {
        eprintln!("unknown mix {mix_name:?}");
        return ExitCode::FAILURE;
    };
    let Some(scheme) = SchemeKind::from_label(scheme_name) else {
        eprintln!("unknown scheme {scheme_name:?}");
        return ExitCode::FAILURE;
    };

    let run = if ivl_bench::quick_mode() {
        RunConfig::smoke_test()
    } else {
        RunConfig {
            warmup_accesses: 2_000,
            measure_accesses: 60_000,
            seed: 2024,
        }
    };
    let sys = SystemConfig::default();
    let mut obs_cfg = ObsConfig::off();
    obs_cfg.timeline = true;
    if let Ok(w) = std::env::var("IVL_TIMELINE_WINDOW") {
        if let Ok(w) = w.trim().parse::<u64>() {
            obs_cfg.timeline_window = w.max(1);
        }
    }

    let mut errors: Vec<String> = Vec::new();
    let mut check = |ok: bool, what: String| {
        if !ok {
            errors.push(what);
        }
    };

    eprintln!(
        "[timeline_report] {mix_name}/{} (window = {} cycles)",
        scheme.label(),
        obs_cfg.timeline_window
    );
    let observed = run_mix_observed(mix, scheme, &run, &sys, &obs_cfg);
    reconcile(&observed.timeline, &observed.registry, &mut check);
    check(
        !observed.timeline.is_empty(),
        "run recorded no timeline series".to_string(),
    );

    // JSONL round-trip of the timeline at the IVL_TIMELINE path.
    let tl_path = env_path("IVL_TIMELINE", "ivl_timeline.jsonl");
    match write_timeline_jsonl(&observed.timeline, &tl_path) {
        Err(e) => check(false, format!("cannot write {}: {e}", tl_path.display())),
        Ok(()) => {
            let raw = std::fs::read_to_string(&tl_path).expect("read timeline back");
            match TimelineData::parse_jsonl(&raw) {
                Err(e) => check(false, format!("timeline JSONL unparseable: {e}")),
                Ok(parsed) => check(
                    parsed == observed.timeline,
                    "timeline JSONL round-trip drifted".to_string(),
                ),
            }
            eprintln!("[timeline_report] wrote {}", tl_path.display());
        }
    }

    println!("# {mix_name}/{} — measurement window", scheme.label());
    print!("{}", render_table(&observed.timeline));

    if errors.is_empty() {
        eprintln!("[timeline_report] validation OK");
        ExitCode::SUCCESS
    } else {
        for e in &errors {
            eprintln!("[timeline_report] FAIL: {e}");
        }
        ExitCode::FAILURE
    }
}
