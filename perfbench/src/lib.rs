//! Host-speed benchmark of the IvLeague simulator.
//!
//! A workload is a fixed set of (mix, scheme) points. The untraced mode
//! runs the set through `ivl_simulator::run_mix` (the serial entry point)
//! and reports simulated accesses per second, wall time per set, model
//! set-up time and peak resident memory, with times in reference-host
//! seconds ([`gauge`]). The traced mode runs every
//! point twice more — once through [`traced::run_traced`], a copy of the
//! runner that stamps each layer crossing, and once with the DRAM trace on
//! to price DRAM requests ([`replay`]) — and reports where the host time
//! went, layer by layer. See `README.md` for the metric table.

pub mod digest;
pub mod gauge;
pub mod replay;
pub mod traced;
pub mod workload;

use digest::{digest, full_rendering};
use gauge::{status_mb, thread_cpu_s, Gauge};
use ivl_cache::randomized::RandomizedCache;
use ivl_cache::set_assoc::SetAssocCache;
use ivl_dram::DramModel;
use ivl_sim_core::config::SystemConfig;
use ivl_sim_core::domain::DomainId;
use ivl_simulator::{run_mix, MixResult, RunConfig};
use ivl_workloads::trace::TraceGenerator;
use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;
use traced::{run_traced, Span, SPANS};
use workload::Point;

/// Set-up is repeated until this much time has passed (and at least
/// [`SETUP_MIN_REPS`] times); the median repetition is reported. A small
/// point set's set-up takes milliseconds, so a fixed count would leave it
/// to a handful of noisy samples.
const SETUP_BUDGET_S: f64 = 2.0;
const SETUP_MIN_REPS: usize = 5;

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Dotted metric name.
    pub name: String,
    /// Value as measured.
    pub value: f64,
    /// Unit, e.g. `s`, `ns`, `count`, `ratio`.
    pub unit: &'static str,
}

/// What one benchmark invocation measured.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Point simulations attempted.
    pub attempted: u64,
    /// Points that panicked or whose output failed a check.
    pub failed: u64,
    /// The metrics, in emission order.
    pub metrics: Vec<Metric>,
    /// Human-readable notes (zero measurement windows, check failures).
    pub notes: Vec<String>,
}

impl Report {
    fn push(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push(Metric {
            name: name.to_string(),
            value: if value.is_finite() { value } else { 0.0 },
            unit,
        });
    }

    /// The result line: `correct`, `attempted`, `failed` and the metrics.
    pub fn to_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, m.value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.failed == 0 && self.attempted > 0,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

/// How a benchmark invocation checks point outputs.
#[derive(Debug, Clone, Copy)]
pub struct Checks<'a> {
    /// Workload name (the expected table's first column).
    pub workload: &'a str,
    /// Expected digests; `None` away from the default seed, where only
    /// traced-equals-untraced and repeat-equals-repeat are checked.
    pub expected: Option<&'a BTreeMap<(String, String), String>>,
}

/// Checks one untraced result; `first` holds each point's first rendering
/// (repeat-equals-repeat). Returns the problem, if any.
fn check_result(
    p: &Point,
    run: &RunConfig,
    r: &MixResult,
    checks: &Checks,
    first: &mut Option<String>,
) -> Option<String> {
    let label = p.label();
    if r.cores.len() as u64 != p.cores() || r.failed || r.core_accesses > p.sim_accesses(run) {
        return Some(format!("{label}: malformed result"));
    }
    if let Some(table) = checks.expected {
        let key = (checks.workload.to_string(), label.clone());
        match table.get(&key) {
            Some(want) if *want == digest(r) => {}
            Some(want) => return Some(format!("{label}: digest {} != expected {want}", digest(r))),
            None => return Some(format!("{label}: no expected digest")),
        }
    }
    let text = full_rendering(r);
    match first {
        Some(f) if *f != text => Some(format!("{label}: result differs from the first repeat")),
        Some(_) => None,
        None => {
            *first = Some(text);
            None
        }
    }
}

/// Runs `f`, turning a panic into `None`.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Median of a sample (0 when empty).
fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n == 0 {
        0.0
    } else if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Host seconds of each group of public constructors one point runs.
#[derive(Debug, Clone, Copy, Default)]
struct SetupTimes {
    /// `SchemeKind::build`.
    scheme_s: f64,
    /// `DramModel::new`.
    dram_s: f64,
    /// LLC and per-core L2 `with_geometry`.
    caches_s: f64,
    /// `TraceGenerator::with_footprint` per process.
    traces_s: f64,
}

impl SetupTimes {
    /// Sum of the groups.
    fn total(&self) -> f64 {
        self.scheme_s + self.dram_s + self.caches_s + self.traces_s
    }
}

/// Constructs one point's models exactly as the runner does, timing each
/// group on `clock` (seconds). Dropping them is not timed.
fn setup_point(p: &Point, run: &RunConfig, clock: &dyn Fn() -> f64) -> SetupTimes {
    let cfg = SystemConfig::default();
    let t = clock();
    let scheme = p.scheme.build(&cfg);
    let scheme_s = clock() - t;
    let t = clock();
    let dram = DramModel::new(&cfg.dram);
    let dram_s = clock() - t;
    let t = clock();
    let llc = RandomizedCache::with_geometry(
        cfg.llc.cache.capacity_bytes,
        cfg.llc.cache.ways,
        cfg.llc.cache.line_bytes,
        run.seed ^ 0x11C,
    );
    let l2s: Vec<SetAssocCache> = (0..p.cores())
        .map(|_| {
            SetAssocCache::with_geometry(
                cfg.core.l2.capacity_bytes,
                cfg.core.l2.ways,
                cfg.core.l2.line_bytes,
            )
        })
        .collect();
    let caches_s = clock() - t;
    let t = clock();
    let proc_range = cfg.total_pages() / 4;
    let gens: Vec<TraceGenerator> = p
        .mix
        .profiles()
        .into_iter()
        .enumerate()
        .map(|(pi, profile)| {
            TraceGenerator::with_footprint(
                profile,
                DomainId::new_unchecked(pi as u16 + 1),
                pi as u64 * proc_range,
                run.seed.wrapping_mul(31).wrapping_add(pi as u64),
                profile.footprint_pages(),
                proc_range.next_power_of_two() / 2,
            )
        })
        .collect();
    let traces_s = clock() - t;
    drop((scheme, dram, llc, l2s, gens));
    SetupTimes {
        scheme_s,
        dram_s,
        caches_s,
        traces_s,
    }
}

/// Repeated set-up of every point, timed on `clock`: per-group medians and
/// the median of the per-repetition totals.
fn measure_setup(points: &[Point], run: &RunConfig, clock: &dyn Fn() -> f64) -> (SetupTimes, f64) {
    let start = Instant::now();
    let mut reps: Vec<SetupTimes> = Vec::new();
    while reps.len() < SETUP_MIN_REPS || start.elapsed().as_secs_f64() < SETUP_BUDGET_S {
        reps.push(points.iter().map(|p| setup_point(p, run, clock)).fold(
            SetupTimes::default(),
            |a, s| SetupTimes {
                scheme_s: a.scheme_s + s.scheme_s,
                dram_s: a.dram_s + s.dram_s,
                caches_s: a.caches_s + s.caches_s,
                traces_s: a.traces_s + s.traces_s,
            },
        ));
    }
    let pick = |f: fn(&SetupTimes) -> f64| median(reps.iter().map(f).collect());
    (
        SetupTimes {
            scheme_s: pick(|s| s.scheme_s),
            dram_s: pick(|s| s.dram_s),
            caches_s: pick(|s| s.caches_s),
            traces_s: pick(|s| s.traces_s),
        },
        pick(SetupTimes::total),
    )
}

/// Notes each point's measured share of its accesses, with a warning for
/// every point that never opened its measurement window.
fn note_measure_shares(
    points: &[Point],
    run: &RunConfig,
    results: &[Option<MixResult>],
    report: &mut Report,
) {
    let mut shares = Vec::new();
    for (p, r) in points.iter().zip(results) {
        let Some(r) = r else { continue };
        let share = r.core_accesses as f64 / p.sim_accesses(run) as f64;
        shares.push(format!("{} {share:.4}", p.label()));
        if r.core_accesses == 0 {
            report.notes.push(format!(
                "warning: {} measured 0 of {} accesses (sim.measure_share = 0): its figure \
                 numbers are whole-run, mostly warmup",
                p.label(),
                p.sim_accesses(run)
            ));
        }
    }
    report
        .notes
        .push(format!("measure share per point: {}", shares.join(", ")));
}

/// Untraced mode: runs the point set through `run_mix`, then keeps
/// running its points in order until `seconds` have passed, and reports the
/// end-to-end metrics. Times are the simulating thread's CPU time in
/// reference-host seconds ([`gauge`]); each point's time is the median over
/// its runs.
pub fn run_untraced(points: &[Point], run: &RunConfig, checks: &Checks, seconds: f64) -> Report {
    let mut report = Report::default();
    let gauge = Gauge::start();
    let setup_start = gauge.mark();
    let (_, setup_cpu_s) = measure_setup(points, run, &thread_cpu_s);
    let setup_s = setup_cpu_s / gauge.factor(&setup_start, &gauge.mark());
    let mut first: Vec<Option<String>> = vec![None; points.len()];
    let mut times: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut cpu_times: Vec<Vec<f64>> = vec![Vec::new(); points.len()];
    let mut factors = Vec::new();
    let mut first_pass_mb = 0.0;
    let start = Instant::now();
    'runs: for round in 0.. {
        let mut results = Vec::with_capacity(points.len());
        for (i, p) in points.iter().enumerate() {
            if round > 0 && start.elapsed().as_secs_f64() >= seconds {
                break 'runs;
            }
            report.attempted += 1;
            let a = gauge.mark();
            let r = guarded(|| run_mix(p.mix, p.scheme, run));
            let b = gauge.mark();
            times[i].push(gauge.seconds(&a, &b));
            cpu_times[i].push(gauge.cpu_seconds(&a, &b));
            factors.push(gauge.factor(&a, &b));
            let problem = match &r {
                None => Some(format!("{}: panicked", p.label())),
                Some(r) => check_result(p, run, r, checks, &mut first[i]),
            };
            if let Some(problem) = problem {
                report.failed += 1;
                report.notes.push(problem);
            }
            results.push(r);
        }
        if round == 0 {
            note_measure_shares(points, run, &results, &mut report);
            // Later passes reuse a heap whose fragmentation depends on how
            // many runs fit in the time, so only the first pass is fixed.
            first_pass_mb = status_mb("VmHWM");
        }
    }
    for (i, p) in points.iter().enumerate() {
        report.notes.push(format!(
            "{}: {} runs, median {:.4} s ({:.4} CPU s)",
            p.label(),
            times[i].len(),
            median(times[i].clone()),
            median(cpu_times[i].clone()),
        ));
    }
    let set_s: f64 = times.iter().map(|t| median(t.clone())).sum();
    let accesses: u64 = points.iter().map(|p| p.sim_accesses(run)).sum();
    let (lo, hi) = factors
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), &f| {
            (lo.min(f), hi.max(f))
        });
    report.notes.push(format!(
        "host-speed gauge: cpu {:?}, slice {}, kernel {:.1} MiB; factor median {:.3} \
         (min {lo:.3}, max {hi:.3}) over {} point runs",
        gauge.cpu,
        if gauge.sliced {
            format!("{} ms", gauge::SLICE_NS / 1_000_000)
        } else {
            "default".to_string()
        },
        gauge.kernel_mb,
        median(factors.clone()),
        factors.len(),
    ));
    report.push("sim_accesses_per_s", accesses as f64 / set_s, "1/s");
    report.push("wall_s", set_s, "s");
    report.push("setup_s", setup_s, "s");
    report.push("peak_rss_mb", first_pass_mb - gauge.kernel_mb, "MiB");
    report
}

/// Per-round sums of a traced point set.
#[derive(Default)]
struct TracedTotals {
    untraced_s: f64,
    wall_s: f64,
    span_s: [f64; SPANS],
    calls: [u64; SPANS],
    dram_s: f64,
    dram_requests: u64,
    dram_row_hits: u64,
    l2: (u64, u64),
    llc: (u64, u64),
    replay_checked: u64,
}

/// Traced mode: per point, an untraced `run_mix`, a traced-runner run and
/// (first round only) a DRAM capture and replay; repeats the set until
/// `seconds` have passed and reports the per-layer metrics.
pub fn run_traced_set(points: &[Point], run: &RunConfig, checks: &Checks, seconds: f64) -> Report {
    let mut report = Report::default();
    let epoch = Instant::now();
    let (setup, _) = measure_setup(points, run, &|| epoch.elapsed().as_secs_f64());
    let cfg = SystemConfig::default();
    let mut first: Vec<Option<String>> = vec![None; points.len()];
    let mut access_ns: Vec<f64> = vec![0.0; points.len()];
    let mut totals = TracedTotals::default();
    let mut untraced_results: Vec<Option<MixResult>> = Vec::new();
    let mut rounds = 0u32;
    let start = Instant::now();
    while rounds == 0 || start.elapsed().as_secs_f64() < seconds {
        for (i, p) in points.iter().enumerate() {
            report.attempted += 1;
            let label = p.label();
            let t = Instant::now();
            let plain = guarded(|| run_mix(p.mix, p.scheme, run));
            totals.untraced_s += t.elapsed().as_secs_f64();
            let traced = guarded(|| run_traced(p.mix, p.scheme, run));
            // Outer `None`: no capture this round; inner `None`: it panicked.
            let captured = (rounds == 0).then(|| {
                guarded(|| {
                    let cap = replay::capture(p.mix, p.scheme, run);
                    let rep = replay::replay(&cfg.dram, &cap.requests, cap.from_reset);
                    (cap.result, rep)
                })
            });
            let problem = match (&plain, &traced, &captured) {
                (Some(r), Some((rt, tr)), None | Some(Some(_))) => {
                    let mut problem = check_result(p, run, r, checks, &mut first[i]);
                    let text = full_rendering(r);
                    if full_rendering(rt) != text {
                        problem
                            .get_or_insert(format!("{label}: traced result differs from run_mix"));
                    }
                    if let Some(Some((rc, rep))) = &captured {
                        if full_rendering(rc) != text {
                            problem.get_or_insert(format!(
                                "{label}: capture run differs from run_mix"
                            ));
                        }
                        if rep.mismatches > 0 {
                            problem.get_or_insert(format!(
                                "{label}: {} of {} replayed DRAM latencies differ",
                                rep.mismatches, rep.checked
                            ));
                        }
                        access_ns[i] = rep.access_ns;
                        totals.replay_checked += rep.checked;
                    }
                    totals.wall_s += tr.wall_s;
                    let dram_s_per_req = access_ns[i] * 1e-9;
                    for s in 0..SPANS {
                        let dram_s = tr.dram_requests[s] as f64 * dram_s_per_req;
                        totals.span_s[s] += tr.span_s[s] - dram_s;
                        totals.dram_s += dram_s;
                        totals.calls[s] += tr.calls[s];
                    }
                    let requests = tr.dram.reads.get() + tr.dram.writes.get();
                    totals.dram_requests += requests;
                    totals.dram_row_hits += tr.dram.row_hits.get();
                    totals.l2.0 += tr.l2.hits;
                    totals.l2.1 += tr.l2.total();
                    totals.llc.0 += tr.llc.hits;
                    totals.llc.1 += tr.llc.total();
                    problem
                }
                _ => Some(format!("{label}: panicked")),
            };
            if let Some(problem) = problem {
                report.failed += 1;
                report.notes.push(problem);
            }
            if rounds == 0 {
                untraced_results.push(plain);
            }
        }
        rounds += 1;
    }
    note_measure_shares(points, run, &untraced_results, &mut report);

    let per_round = 1.0 / f64::from(rounds);
    let wall = totals.wall_s * per_round;
    let share = |s: f64| if wall > 0.0 { s / wall } else { 0.0 };
    let self_s = |span: Span| totals.span_s[span as usize] * per_round;
    let calls = |span: Span| totals.calls[span as usize] as f64 * per_round;
    let ns = |span: Span| {
        let c = calls(span);
        if c > 0.0 {
            self_s(span) / c * 1e9
        } else {
            0.0
        }
    };
    let layers = [
        ("workloads.next_event", Span::NextEvent),
        ("cache.l2", Span::L2),
        ("cache.llc", Span::Llc),
        ("integrity.data_access", Span::DataAccess),
        ("integrity.page_alloc", Span::PageAlloc),
        ("integrity.page_dealloc", Span::PageDealloc),
    ];
    for (name, span) in layers {
        report.push(&format!("{name}.self_s"), self_s(span), "s");
        report.push(&format!("{name}.self_share"), share(self_s(span)), "ratio");
        report.push(&format!("{name}.calls"), calls(span), "count");
        match span {
            Span::L2 => report.push(
                "cache.l2.hit_rate",
                ratio(totals.l2.0, totals.l2.1),
                "ratio",
            ),
            Span::Llc => report.push(
                "cache.llc.hit_rate",
                ratio(totals.llc.0, totals.llc.1),
                "ratio",
            ),
            Span::PageDealloc => {}
            _ => report.push(&format!("{name}.ns"), ns(span), "ns"),
        }
    }
    let dram_s = totals.dram_s * per_round;
    report.push("dram.self_s", dram_s, "s");
    report.push("dram.self_share", share(dram_s), "ratio");
    report.push(
        "dram.requests",
        totals.dram_requests as f64 * per_round,
        "count",
    );
    report.push(
        "dram.access_ns",
        if totals.dram_requests > 0 {
            totals.dram_s / totals.dram_requests as f64 * 1e9
        } else {
            0.0
        },
        "ns",
    );
    report.push(
        "dram.row_hit_rate",
        ratio(totals.dram_row_hits, totals.dram_requests),
        "ratio",
    );
    report.push("dram.replay_checked", totals.replay_checked as f64, "count");
    let other = self_s(Span::Other);
    report.push("simulator.other_s", other, "s");
    report.push("simulator.other_share", share(other), "ratio");
    report.push("trace.wall_s", wall, "s");
    report.push(
        "trace.overhead",
        totals.wall_s / totals.untraced_s - 1.0,
        "ratio",
    );
    report.push("setup.scheme_s", setup.scheme_s, "s");
    report.push("setup.dram_s", setup.dram_s, "s");
    report.push("setup.caches_s", setup.caches_s, "s");
    report.push("setup.traces_s", setup.traces_s, "s");
    push_sim_metrics(points, run, &untraced_results, &mut report);
    report
}

fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// The simulated model's own numbers over the point set (deterministic
/// for a seed): they explain the host numbers, and a simulator-only change
/// must leave them identical.
fn push_sim_metrics(
    points: &[Point],
    run: &RunConfig,
    results: &[Option<MixResult>],
    report: &mut Report,
) {
    let ok: Vec<&MixResult> = results.iter().flatten().collect();
    let sum = |f: &dyn Fn(&MixResult) -> u64| ok.iter().map(|r| f(r)).sum::<u64>();
    let total: u64 = points.iter().map(|p| p.sim_accesses(run)).sum();
    let hit_rate = |f: &dyn Fn(&MixResult) -> ivl_sim_core::stats::HitMiss| {
        ratio(sum(&|r| f(r).hits()), sum(&|r| f(r).total()))
    };
    let data = sum(&|r| r.stats.data_reads + r.stats.data_writes);
    let meta = sum(&|r| r.stats.meta_reads + r.stats.meta_writes);
    report.push(
        "sim.measure_share",
        ratio(sum(&|r| r.core_accesses), total),
        "ratio",
    );
    report.push(
        "sim.avg_path_length",
        ratio(
            sum(&|r| r.stats.path_len_sum),
            sum(&|r| r.stats.verifications),
        ),
        "blocks",
    );
    report.push(
        "sim.avg_read_latency_cycles",
        ratio(sum(&|r| r.read_latency_sum), sum(&|r| r.llc_miss_reads)),
        "cycles",
    );
    report.push(
        "sim.counter_cache.hit_rate",
        hit_rate(&|r| r.stats.counter_cache),
        "ratio",
    );
    report.push(
        "sim.tree_cache.hit_rate",
        hit_rate(&|r| r.stats.tree_cache),
        "ratio",
    );
    report.push("sim.nflb.hit_rate", hit_rate(&|r| r.stats.nflb), "ratio");
    report.push(
        "sim.nfl_claims",
        sum(&|r| r.stats.nfl_claims) as f64,
        "count",
    );
    report.push("sim.meta_per_data", ratio(meta, data), "ratio");
}
