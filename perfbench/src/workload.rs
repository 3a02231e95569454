//! The benchmark's workloads: fixed (mix, scheme) point sets with the run
//! lengths that put the simulator in one host-time regime each.

use ivl_simulator::{RunConfig, SchemeKind};
use ivl_workloads::mixes::{mix_by_name, Mix};

/// Trace seed the committed expected digests were taken at.
pub const DEFAULT_SEED: u64 = 2024;

/// One named point set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Quick run lengths over one mix per class: the footprint ramp (page
    /// allocation, NFL claims) dominates host time.
    Ramp,
    /// Evaluation run lengths over two small mixes: steady state, cache and
    /// trace generation heavy.
    SteadySmall,
    /// Evaluation run lengths over a large mix: metadata misses and DRAM
    /// traffic dominate.
    SteadyLarge,
}

impl Workload {
    /// Every workload, in `BENCHMARK.json` order.
    pub const ALL: [Workload; 3] = [Workload::Ramp, Workload::SteadySmall, Workload::SteadyLarge];

    /// The `--workload` name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Ramp => "ramp",
            Workload::SteadySmall => "steady-small",
            Workload::SteadyLarge => "steady-large",
        }
    }

    /// Inverse of [`name`](Self::name).
    pub fn from_name(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Run lengths at `seed`: the figure harness's `--quick` lengths for
    /// `ramp`, [`RunConfig::evaluation`] for the steady workloads.
    pub fn run_config(self, seed: u64) -> RunConfig {
        match self {
            Workload::Ramp => RunConfig {
                warmup_accesses: 5_000,
                measure_accesses: 30_000,
                seed,
            },
            Workload::SteadySmall | Workload::SteadyLarge => RunConfig {
                seed,
                ..RunConfig::evaluation()
            },
        }
    }

    /// The point set, mix-major.
    pub fn points(self) -> Vec<Point> {
        let (mixes, schemes): (&[&str], &[SchemeKind]) = match self {
            Workload::Ramp => (&["S-1", "M-1", "L-1"], &SchemeKind::MAIN),
            Workload::SteadySmall => (&["S-1", "S-3"], &[SchemeKind::Baseline, SchemeKind::IvPro]),
            Workload::SteadyLarge => (&["L-1"], &[SchemeKind::Baseline, SchemeKind::IvPro]),
        };
        mixes
            .iter()
            .flat_map(|m| {
                let mix = mix_by_name(m).expect("benchmark mixes exist");
                schemes.iter().map(move |&scheme| Point { mix, scheme })
            })
            .collect()
    }
}

/// One (mix, scheme) simulation: the benchmark's unit of work.
#[derive(Debug, Clone, Copy)]
pub struct Point {
    /// The multiprogrammed mix.
    pub mix: &'static Mix,
    /// The integrity scheme.
    pub scheme: SchemeKind,
}

impl Point {
    /// `<mix>/<scheme>` label used in logs and the expected-digest file.
    pub fn label(&self) -> String {
        format!("{}/{}", self.mix.name, self.scheme.label())
    }

    /// Simulated cores: four processes times the class's threads each.
    pub fn cores(&self) -> u64 {
        4 * self.mix.class.threads_per_process() as u64
    }

    /// Core memory accesses the point simulates, warmup included. Every
    /// core runs to exactly its warmup-plus-measure budget, so this is
    /// fixed by the run lengths.
    pub fn sim_accesses(&self, run: &RunConfig) -> u64 {
        self.cores() * (run.warmup_accesses + run.measure_accesses)
    }
}
