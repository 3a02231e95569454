//! The traced runner: the serial runner's event loop rebuilt from each
//! layer's public functions, with one timestamp per layer-boundary
//! crossing.
//!
//! Host time is attributed by checkpoints, not nested scopes: the clock is
//! read once at each crossing into a layer and once when an event's
//! handling returns to the scheduler, and the ticks since the previous
//! reading go to the span that was open. The spans therefore partition the
//! run exactly. The few loop instructions between two layer calls of one
//! event (clock arithmetic, write-back bookkeeping) are charged to the
//! earlier layer, which saves a clock read per call; what no span covers
//! (scheduling, the warmup flip, construction) lands in [`Span::Other`].
//!
//! The traced runner must reproduce `ivl_simulator::run_mix` field for
//! field; the benchmark compares the two on every traced point.

use ivl_cache::randomized::RandomizedCache;
use ivl_cache::set_assoc::SetAssocCache;
use ivl_cache::{CacheModel, CacheTally};
use ivl_dram::{DramModel, DramStats};
use ivl_secure_mem::subsystem::IvStats;
use ivl_sim_core::addr::BlockAddr;
use ivl_sim_core::config::SystemConfig;
use ivl_sim_core::domain::DomainId;
use ivl_sim_core::Cycle;
use ivl_simulator::system::SchemeInstance;
use ivl_simulator::{CoreResult, MixResult, RunConfig, SchemeKind};
use ivl_workloads::mixes::Mix;
use ivl_workloads::trace::{MemEvent, TraceGenerator};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::time::Instant;

/// The host-time spans of a traced run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Span {
    /// Everything outside the named layers.
    Other,
    /// `TraceGenerator::next_event`.
    NextEvent,
    /// Private L2 lookups and invalidations.
    L2,
    /// Shared LLC lookups, write-back fills and invalidations.
    Llc,
    /// `IntegritySubsystem::data_access`, DRAM included.
    DataAccess,
    /// `IntegritySubsystem::page_alloc`, DRAM included.
    PageAlloc,
    /// `IntegritySubsystem::page_dealloc`, DRAM included.
    PageDealloc,
}

/// Number of [`Span`] variants.
pub const SPANS: usize = 7;

/// A monotonic tick counter: the TSC on x86-64 (a few ns per read), a
/// nanosecond clock elsewhere. Ticks are converted to seconds against the
/// run's `Instant` wall time, so their unit never matters.
#[inline(always)]
fn stamp() -> u64 {
    #[cfg(target_arch = "x86_64")]
    {
        // SAFETY: RDTSC has no preconditions on x86-64.
        #[allow(unused_unsafe)]
        unsafe {
            core::arch::x86_64::_rdtsc()
        }
    }
    #[cfg(not(target_arch = "x86_64"))]
    {
        use std::sync::OnceLock;
        static ANCHOR: OnceLock<Instant> = OnceLock::new();
        ANCHOR.get_or_init(Instant::now).elapsed().as_nanos() as u64
    }
}

/// Checkpoint attribution state.
struct Stopwatch {
    last: u64,
    open: Span,
    ticks: [u64; SPANS],
    calls: [u64; SPANS],
}

impl Stopwatch {
    fn start() -> Self {
        Stopwatch {
            last: stamp(),
            open: Span::Other,
            ticks: [0; SPANS],
            calls: [0; SPANS],
        }
    }

    /// Closes the open span and opens `span` (one clock read).
    #[inline(always)]
    fn switch(&mut self, span: Span) {
        let t = stamp();
        self.ticks[self.open as usize] += t.saturating_sub(self.last);
        self.last = t;
        self.open = span;
    }

    /// Enters a layer call.
    #[inline(always)]
    fn enter(&mut self, span: Span) {
        self.switch(span);
        self.calls[span as usize] += 1;
    }

    /// Returns to the scheduler.
    #[inline(always)]
    fn leave(&mut self) {
        self.switch(Span::Other);
    }
}

/// What a traced run measured besides its result.
#[derive(Debug, Clone)]
pub struct Trace {
    /// Host seconds of the whole traced run (construction included).
    pub wall_s: f64,
    /// Seconds per span; sums to `wall_s`.
    pub span_s: [f64; SPANS],
    /// Layer calls per span (L2/LLC count lookups, not invalidations).
    pub calls: [u64; SPANS],
    /// DRAM requests issued inside each span.
    pub dram_requests: [u64; SPANS],
    /// Final DRAM statistics (whole run).
    pub dram: DramStats,
    /// L2 tallies summed over cores (whole run).
    pub l2: CacheTally,
    /// LLC tally (whole run).
    pub llc: CacheTally,
}

struct Core {
    gen: usize,
    domain: DomainId,
    l2: SetAssocCache,
    now: Cycle,
    instrs: u64,
    accesses: u64,
    measure_start: Cycle,
    measure_instrs_start: u64,
    benchmark: &'static str,
    base_ipc: f64,
    mlp: f64,
    inv_ipc: f64,
}

fn dram_requests(dram: &DramModel) -> u64 {
    let s = dram.stats();
    s.reads.get() + s.writes.get()
}

/// Runs one point the way `run_mix` does under the default
/// [`SystemConfig`], timing every layer crossing.
pub fn run_traced(mix: &Mix, scheme_kind: SchemeKind, run: &RunConfig) -> (MixResult, Trace) {
    let cfg = SystemConfig::default();
    let t0 = Instant::now();
    let mut sw = Stopwatch::start();
    let mut scheme = scheme_kind.build(&cfg);
    let mut dram = DramModel::new(&cfg.dram);
    let mut llc = RandomizedCache::with_geometry(
        cfg.llc.cache.capacity_bytes,
        cfg.llc.cache.ways,
        cfg.llc.cache.line_bytes,
        run.seed ^ 0x11C,
    );
    let threads = mix.class.threads_per_process();
    let proc_range = cfg.total_pages() / 4;
    let mut gens: Vec<TraceGenerator> = Vec::new();
    let mut cores: Vec<Core> = Vec::new();
    for (pi, profile) in mix.profiles().into_iter().enumerate() {
        let domain = DomainId::new_unchecked(pi as u16 + 1);
        gens.push(TraceGenerator::with_footprint(
            profile,
            domain,
            pi as u64 * proc_range,
            run.seed.wrapping_mul(31).wrapping_add(pi as u64),
            profile.footprint_pages(),
            proc_range.next_power_of_two() / 2,
        ));
        for _ in 0..threads {
            cores.push(Core {
                gen: pi,
                domain,
                l2: SetAssocCache::with_geometry(
                    cfg.core.l2.capacity_bytes,
                    cfg.core.l2.ways,
                    cfg.core.l2.line_bytes,
                ),
                now: 0,
                instrs: 0,
                accesses: 0,
                measure_start: 0,
                measure_instrs_start: 0,
                benchmark: profile.name,
                base_ipc: profile.base_ipc,
                mlp: profile.mlp,
                inv_ipc: 1.0 / profile.base_ipc,
            });
        }
    }

    let warmup_total = run.warmup_accesses;
    let measure_total = warmup_total + run.measure_accesses;
    let mut measuring = false;
    let (mut llc_miss_reads, mut read_latency_sum, mut core_accesses) = (0u64, 0u64, 0u64);
    let mut epoch_stats = IvStats::default();
    let mut dram_requests_in = [0u64; SPANS];
    let mut llc_writebacks: Vec<u64> = Vec::new();
    // The least-advanced core runs next, ties to the lowest index: a
    // min-heap on (ready cycle, core) with the runner's keep-running fast
    // path, which picks the same core the heap would.
    let mut ready: BinaryHeap<Reverse<(Cycle, usize)>> = (0..cores.len())
        .filter(|_| measure_total > 0)
        .map(|i| Reverse((0, i)))
        .collect();
    let mut next: Option<usize> = None;

    loop {
        let idx = match next.take() {
            Some(i) => i,
            None => match ready.pop() {
                Some(Reverse((_, i))) => i,
                None => break,
            },
        };
        if !measuring
            && cores.iter().all(|c| c.accesses >= warmup_total)
            && gens.iter().all(TraceGenerator::warmed_up)
        {
            measuring = true;
            dram.advance_to(cores[idx].now);
            epoch_stats = *scheme.stats();
            for c in &mut cores {
                c.measure_start = c.now;
                c.measure_instrs_start = c.instrs;
            }
        }

        let core = &mut cores[idx];
        sw.enter(Span::NextEvent);
        let event = gens[core.gen].next_event();
        'event: {
            match event {
                MemEvent::Access {
                    block,
                    is_write,
                    gap_instrs,
                } => {
                    core.accesses += 1;
                    if measuring {
                        core_accesses += 1;
                    }
                    core.instrs += gap_instrs;
                    core.now += (gap_instrs as f64 * core.inv_ipc) as Cycle;
                    let key = block.index();
                    core.now += cfg.core.l2.hit_latency;
                    sw.enter(Span::L2);
                    let l2 = core.l2.access(key, is_write);
                    if l2.hit {
                        break 'event;
                    }
                    llc_writebacks.clear();
                    if let Some(e) = l2.evicted.filter(|e| e.dirty) {
                        llc_writebacks.push(e.key);
                    }
                    core.now += cfg.llc.cache.hit_latency - cfg.core.l2.hit_latency;
                    sw.enter(Span::Llc);
                    let llc_out = llc.access(key, is_write);
                    if let Some(e) = llc_out.evicted.filter(|e| e.dirty) {
                        sw.enter(Span::DataAccess);
                        scheme.as_subsystem().data_access(
                            core.now,
                            &mut dram,
                            BlockAddr::new(e.key),
                            core.domain,
                            true,
                        );
                    }
                    for wb in llc_writebacks.drain(..) {
                        sw.enter(Span::Llc);
                        let out = llc.access(wb, true);
                        if let Some(e) = out.evicted.filter(|e| e.dirty) {
                            sw.enter(Span::DataAccess);
                            scheme.as_subsystem().data_access(
                                core.now,
                                &mut dram,
                                BlockAddr::new(e.key),
                                core.domain,
                                true,
                            );
                        }
                    }
                    if llc_out.hit {
                        break 'event;
                    }
                    sw.enter(Span::DataAccess);
                    let done = scheme.as_subsystem().data_access(
                        core.now,
                        &mut dram,
                        block,
                        core.domain,
                        is_write,
                    );
                    let latency = done.saturating_sub(core.now);
                    if measuring && !is_write {
                        llc_miss_reads += 1;
                        read_latency_sum += latency;
                    }
                    let service = latency.min(400);
                    let queueing = latency - service;
                    core.now += queueing + (service as f64 / core.mlp) as Cycle;
                }
                MemEvent::Alloc { page } => {
                    let before = dram_requests(&dram);
                    sw.enter(Span::PageAlloc);
                    let done =
                        scheme
                            .as_subsystem()
                            .page_alloc(core.now, &mut dram, page, core.domain);
                    dram_requests_in[Span::PageAlloc as usize] += dram_requests(&dram) - before;
                    core.now = done + 200;
                    core.instrs += 50;
                }
                MemEvent::Dealloc { page } => {
                    // The runner interleaves the two invalidations per
                    // block; the caches are independent, so two passes
                    // leave the same state.
                    sw.switch(Span::L2);
                    for b in page.blocks() {
                        core.l2.invalidate(b.index());
                    }
                    sw.switch(Span::Llc);
                    for b in page.blocks() {
                        llc.invalidate(b.index());
                    }
                    let before = dram_requests(&dram);
                    sw.enter(Span::PageDealloc);
                    let done =
                        scheme
                            .as_subsystem()
                            .page_dealloc(core.now, &mut dram, page, core.domain);
                    dram_requests_in[Span::PageDealloc as usize] += dram_requests(&dram) - before;
                    core.now = done + 100;
                    core.instrs += 30;
                }
            }
        }

        sw.leave();
        let c = &cores[idx];
        if c.accesses < measure_total {
            let key = (c.now, idx);
            if ready.peek().is_none_or(|Reverse(head)| key < *head) {
                next = Some(idx);
            } else {
                ready.push(Reverse(key));
            }
        }
    }

    let stats = scheme.stats().delta(&epoch_stats);
    let (utilization, untracked_slots, bv_leaked_slots, bv_blocks_scanned) = match &scheme {
        SchemeInstance::Iv(iv) => (
            iv.forest().map(|f| f.stats().mean_utilization()),
            iv.forest().map(|f| f.stats().untracked_slots),
            iv.bv().map(|b| b.leaked_slots()),
            iv.bv().map(|b| b.total_blocks_scanned()),
        ),
        _ => (None, None, None, None),
    };
    let cores_out: Vec<CoreResult> = cores
        .iter()
        .map(|c| CoreResult {
            benchmark: c.benchmark,
            instrs: c.instrs - c.measure_instrs_start,
            cycles: c.now - c.measure_start,
            base_ipc: c.base_ipc,
        })
        .collect();
    dram.advance_to(cores.iter().map(|c| c.now).max().unwrap_or(0));
    let result = MixResult {
        mix: mix.name,
        scheme: scheme_kind,
        avg_path_length: stats.avg_path_length(),
        failed: stats.alloc_failures > 0,
        stats,
        cores: cores_out,
        utilization,
        untracked_slots,
        bv_leaked_slots,
        bv_blocks_scanned,
        llc_miss_reads,
        read_latency_sum,
        core_accesses,
    };
    let l2 = cores.iter().fold(CacheTally::default(), |mut acc, c| {
        let t = c.l2.tally();
        acc.hits += t.hits;
        acc.misses += t.misses;
        acc.evictions += t.evictions;
        acc.dirty_evictions += t.dirty_evictions;
        acc.bypasses += t.bypasses;
        acc
    });
    let (llc_tally, dram_stats) = (llc.tally(), dram.stats());
    drop((scheme, dram, llc, gens, cores));
    sw.leave();
    let wall_s = t0.elapsed().as_secs_f64();

    let total_requests = dram_stats.reads.get() + dram_stats.writes.get();
    dram_requests_in[Span::DataAccess as usize] = total_requests
        - dram_requests_in[Span::PageAlloc as usize]
        - dram_requests_in[Span::PageDealloc as usize];
    let total_ticks: u64 = sw.ticks.iter().sum();
    let per_tick = if total_ticks == 0 {
        0.0
    } else {
        wall_s / total_ticks as f64
    };
    let mut span_s = sw.ticks.map(|t| t as f64 * per_tick);
    // The partition is exact by construction; put rounding residue in
    // `Other` so the spans sum to the wall time.
    span_s[Span::Other as usize] = wall_s - span_s[1..].iter().sum::<f64>();
    (
        result,
        Trace {
            wall_s,
            span_s,
            calls: sw.calls,
            dram_requests: dram_requests_in,
            dram: dram_stats,
            l2,
            llc: llc_tally,
        },
    )
}
