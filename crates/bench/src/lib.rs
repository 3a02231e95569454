//! Figure/table regeneration harness.
//!
//! One binary per table and figure of the paper's evaluation (see
//! DESIGN.md's experiment index); each prints the rows/series the paper
//! reports and writes the same text under `target/figures/`. The heavy
//! simulations (Figures 15/16/18/19 share the same 16 mixes × 4 schemes
//! runs) execute in parallel across (mix, scheme) jobs on the testkit's
//! scoped-thread runner.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::Instant;

use ivl_simulator::{run_mix, MixResult, RunConfig, SchemeKind};
use ivl_workloads::mixes::{Mix, MIXES};

/// Where figure text outputs land.
pub mod perf;

pub fn figures_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/figures");
    std::fs::create_dir_all(&dir).expect("create target/figures");
    dir
}

/// Prints `content` to stdout and mirrors it into `target/figures/<name>`.
pub fn emit(name: &str, content: &str) {
    println!("{content}");
    let path = figures_dir().join(name);
    let mut f = std::fs::File::create(&path).expect("create figure file");
    f.write_all(content.as_bytes()).expect("write figure file");
    eprintln!("[saved {}]", path.display());
}

/// Whether quick mode was requested (`IVL_QUICK=1` or `--quick`): shorter
/// runs for smoke-testing the harness.
pub fn quick_mode() -> bool {
    std::env::var("IVL_QUICK")
        .map(|v| v == "1")
        .unwrap_or(false)
        || std::env::args().any(|a| a == "--quick")
}

/// The run configuration honoring quick mode.
pub fn run_config() -> RunConfig {
    if quick_mode() {
        RunConfig {
            warmup_accesses: 5_000,
            measure_accesses: 30_000,
            seed: 2024,
        }
    } else {
        RunConfig::evaluation()
    }
}

/// Runs every mix under every scheme in `schemes`, in parallel across
/// (mix, scheme) pairs. Results are ordered (mix-major, scheme-minor).
pub fn run_matrix(schemes: &[SchemeKind], run: &RunConfig) -> Vec<MixResult> {
    run_matrix_on(&MIXES, schemes, run)
}

/// Runs a selected set of mixes under every scheme in `schemes`.
///
/// Emits a progress line to stderr as each (mix, scheme) point finishes.
/// Progress reporting rides on a shared atomic counter, so completion
/// order shows through on stderr while the returned results stay in job
/// order (the parallel runner's collector is order-preserving).
pub fn run_matrix_on(mixes: &[Mix], schemes: &[SchemeKind], run: &RunConfig) -> Vec<MixResult> {
    run_matrix_on_with_workers(mixes, schemes, run, ivl_testkit::par::available_workers())
}

/// [`run_matrix_on`] with an explicit worker count. `workers = 1` runs the
/// jobs serially on one pool thread in job order — the determinism tests
/// pin serial vs. multi-worker runs against each other this way.
pub fn run_matrix_on_with_workers(
    mixes: &[Mix],
    schemes: &[SchemeKind],
    run: &RunConfig,
    workers: usize,
) -> Vec<MixResult> {
    let jobs: Vec<(&Mix, SchemeKind)> = mixes
        .iter()
        .flat_map(|m| schemes.iter().map(move |s| (m, *s)))
        .collect();
    run_points(
        &jobs,
        workers,
        |(mix, scheme)| format!("{:<5} {:<14}", mix.name, scheme.label()),
        |(mix, scheme)| run_mix(mix, *scheme, run),
    )
}

/// Generic parallel point sweep: runs `f` over `points` on the testkit's
/// shared-counter pool, printing a `[n/total] <label> <elapsed> (eta …)`
/// progress line to stderr as each point completes — the ETA is the mean
/// per-point wall time extrapolated over the points still outstanding.
/// Results preserve input order.
///
/// The sweep binaries (figure matrices, sensitivity grids) funnel their
/// per-point simulation work through here so every campaign parallelizes
/// the same way.
pub fn run_points<P, T, L, F>(points: &[P], workers: usize, label: L, f: F) -> Vec<T>
where
    P: Sync,
    T: Send,
    L: Fn(&P) -> String + Sync,
    F: Fn(&P) -> T + Sync,
{
    let total = points.len();
    let done = AtomicUsize::new(0);
    let started = Instant::now();
    ivl_testkit::par::map_parallel(points, workers, |p| {
        let r = f(p);
        let n = done.fetch_add(1, Ordering::Relaxed) + 1;
        let elapsed = started.elapsed().as_secs_f64();
        let eta = elapsed / n as f64 * (total - n) as f64;
        eprintln!(
            "[{n:>3}/{total}] {} {:>6.1}s (eta {eta:>5.1}s)",
            label(p),
            elapsed
        );
        r
    })
}

/// Finds the result for (mix, scheme) in a `run_matrix` output.
pub fn find<'a>(results: &'a [MixResult], mix: &str, scheme: SchemeKind) -> &'a MixResult {
    results
        .iter()
        .find(|r| r.mix == mix && r.scheme == scheme)
        .unwrap_or_else(|| panic!("missing result for {mix}/{scheme:?}"))
}

/// Formats a ratio table row with fixed-width columns.
pub fn row(label: &str, values: &[f64]) -> String {
    let mut s = format!("{label:<10}");
    for v in values {
        s.push_str(&format!(" {v:>8.3}"));
    }
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matrix_runs_in_quick_shape() {
        let run = RunConfig::smoke_test();
        let mixes = [*ivl_workloads::mixes::mix_by_name("S-1").unwrap()];
        let results = run_matrix_on(&mixes, &[SchemeKind::Baseline, SchemeKind::IvPro], &run);
        assert_eq!(results.len(), 2);
        assert_eq!(
            find(&results, "S-1", SchemeKind::IvPro).scheme,
            SchemeKind::IvPro
        );
    }

    #[test]
    fn row_formats() {
        let s = row("S-1", &[1.0, 0.5]);
        assert!(s.contains("S-1") && s.contains("1.000") && s.contains("0.500"));
    }
}
